//! Verdict-vote acceptance tests.
//!
//! An acceptor answers each coordinator with a verdict — the status of
//! the coordinator's own open options and whether each is front-movable
//! in the acceptor's cstruct — instead of the cstruct, so a vote costs
//! the same however long a hot record's instance has grown, and nothing
//! has to be kept in step between sender and receiver. A learner that
//! needs the cstruct itself (a quorum holds its option with one
//! decision, behind entries that do not commute with it) pulls the whole
//! vote with a `CstructPull`. These tests check the wire cost, that a
//! coordinator proposes and resolves a transaction with one message per
//! storage node, that loss costs commutative load no pull at all, that a
//! write forced behind committed deltas is learned through one pull per
//! quorum member, and that the cluster converges to an audited,
//! constraint-respecting state under loss and crash/restart.

use mdcc_cluster::{micro_catalog, run_mdcc, ClusterSpec, FaultPlan, MdccMode, NodeRole, Report};
use mdcc_common::{CommutativeUpdate, PhysicalUpdate};
use mdcc_common::{DcId, Key, RecordUpdate, Row, SimDuration, SimTime, UpdateOp, Version};
use mdcc_core::TxnStats;
use mdcc_trace::TraceConfig;
use mdcc_workloads::micro::{initial_items, item_key, MicroConfig, MicroWorkload, STOCK};
use mdcc_workloads::{Transaction, TxnAction, Workload};
use rand::rngs::SmallRng;

const ITEMS: u64 = 120;

/// A hot commutative deployment: commutative instances stay open until
/// the option cap, so each record's cstruct accumulates resolved
/// options — what a vote must not ship — while the load stays civil
/// enough for clean end-of-run audits.
fn hot_spec(seed: u64) -> ClusterSpec {
    let s = SimDuration::from_secs;
    ClusterSpec {
        seed,
        clients: 10,
        shards_per_dc: 1,
        warmup: s(2),
        duration: s(12),
        drain: s(8),
        ..ClusterSpec::default()
    }
}

fn run_hot(spec: &ClusterSpec) -> (Report, TxnStats) {
    let data = initial_items(ITEMS, 7);
    let mut factory = |_c: usize, _dc: DcId, _p: &_| -> Box<dyn Workload> {
        Box::new(MicroWorkload::new(MicroConfig {
            items: ITEMS,
            ..MicroConfig::default()
        }))
    };
    run_mdcc(spec, micro_catalog(), &data, &mut factory, MdccMode::Full)
}

/// End-of-run health shared by every test: nothing dangling, nobody
/// stuck, constraint intact. (Full replica digest equality is only
/// guaranteed when restart anti-entropy runs — the loss-free fault test
/// below asserts it for the restarted nodes, mirroring
/// `crash_recovery.rs`.)
fn assert_healthy(label: &str, report: &Report) {
    let audit = report.audit.as_ref().expect("mdcc runs audit the cluster");
    assert_eq!(audit.pending_options, 0, "{label}: options left dangling");
    assert_eq!(audit.stuck_clients, 0, "{label}: clients left stuck");
    let min_stock = audit.min_of("stock").expect("stock audited");
    assert!(min_stock >= 0, "{label}: stock constraint violated");
}

/// Wire bytes per committed transaction `hot_spec(77)` may cost: the
/// measured value (1 186 B, 610 commits) plus ten per cent. Before the
/// codec's integers became varints it was 2 793 B; a `Propose` and a
/// `Visibility` per record per replica cost 3 744 B on the same spec,
/// votes that carry the cstruct from the settled watermark 6 106 B, votes
/// that re-ship the whole cstruct 70 521 B (measured at c51bd49, 8ec034e
/// and f09ed95, the last commits that could send them, all with
/// fixed-width integers).
const HOT_BYTES_PER_COMMIT_CEILING: f64 = 1_305.0;

/// The headline: on hot commutative load a commit costs a few kilobytes
/// of wire — a vote says what its destination asked, not what the record
/// holds — and the run converges and respects the constraint.
#[test]
fn verdict_votes_keep_hot_commutative_wire_cost_flat() {
    let (report, stats) = run_hot(&hot_spec(77));
    assert_healthy("hot", &report);
    let bpc = report.bytes_per_commit().expect("run committed");
    eprintln!("bytes/commit: {bpc:.0}, commits {}", report.write_commits());
    assert!(report.write_commits() > 100, "run barely committed");
    assert!(
        bpc <= HOT_BYTES_PER_COMMIT_CEILING,
        "votes are shipping more than verdicts: {bpc:.0} B per commit on hot \
         commutative load, ceiling {HOT_BYTES_PER_COMMIT_CEILING:.0}"
    );
    assert_eq!(stats.repair_pulls, 0, "commuting options are counted");
    assert_eq!(report.nodes.stray_msgs, 0);
}

/// A transaction's proposal and its outcome travel once per storage node.
/// With one shard per data center every record of a transaction lives on
/// the same five nodes, so an attempt sends each node one `Propose` and,
/// once decided, one `Visibility`, however many records it names; each
/// node still judges, logs and counts every option on its own.
#[test]
fn a_transaction_proposes_and_resolves_once_per_storage_node() {
    let mut spec = hot_spec(77);
    // Host profiling is what counts deliveries by kind; tracing observes
    // and changes nothing simulated.
    spec.trace = TraceConfig {
        profile: true,
        ..TraceConfig::on()
    };
    let (report, stats) = run_hot(&spec);
    assert_healthy("hot", &report);
    let delivered = |role, kind| -> u64 {
        let rows = report.profile_by_kind.iter();
        let rows = rows.filter(|row| row.role == role && row.kind == kind);
        rows.map(|row| row.msgs).sum()
    };
    let proposes = delivered(NodeRole::Storage, "Propose");
    let visibilities = delivered(NodeRole::Storage, "Visibility");
    let attempts = stats.committed + stats.aborted + stats.timeouts;
    let nodes = report.nodes;
    eprintln!(
        "{proposes} Propose, {visibilities} Visibility for {attempts} attempts \
         ({} committed, {} timeouts); {} options judged, stats {nodes:?}",
        stats.committed, stats.timeouts, nodes.proposals
    );
    let replicas = ClusterSpec::default().protocol.replication as u64;
    assert!(
        proposes <= attempts * replicas,
        "{proposes} Propose for {attempts} attempts"
    );
    assert!(
        visibilities <= attempts * replicas,
        "{visibilities} Visibility for {attempts} attempts"
    );
    // The node's per-option path is unchanged: every option a `Propose`
    // carried was judged and counted once — voted on, bounced, or
    // answered from a known outcome (an `AlreadyResolved` may also answer
    // a classic proposal, hence the range).
    let judged = nodes.fast_votes + nodes.not_fast_bounces + nodes.instance_full;
    let answered = delivered(NodeRole::Client, "AlreadyResolved");
    assert!(
        (judged..=judged + answered).contains(&nodes.proposals),
        "{} options counted, {judged} judged, {answered} answered",
        nodes.proposals
    );
    assert!(
        nodes.proposals > proposes,
        "a Propose carries a transaction's options"
    );
    assert_eq!(nodes.stray_msgs, 0);
}

/// Loss costs commutative load no repair: a verdict stands on its own,
/// so a lost one is a vote not heard, never a gap to fill. Every client
/// still finishes, nothing is pulled, and the repair class stays empty.
#[test]
fn message_loss_forces_no_pull_on_commutative_load() {
    let mut spec = hot_spec(92);
    spec.drop_prob = 0.03;
    // An option whose Visibility is the message lost waits out the 5 s
    // dangling timeout: the drain outlasts it.
    spec.drain = SimDuration::from_secs(15);
    let (report, stats) = run_hot(&spec);
    assert!(report.net.dropped > 0, "the run lost nothing");
    assert!(report.write_commits() > 100, "run barely committed");
    assert_eq!(stats.repair_pulls, 0, "every letter of the run is movable");
    assert_eq!(report.net.repair.msgs, 0);
    assert_eq!(report.nodes.stray_msgs, 0);
    assert_healthy("lossy", &report);
}

/// One client alternating a decrement of one item with a rewrite of the
/// same item, each half a second after the other committed.
struct DeltaThenWrite {
    /// The next update is the decrement.
    delta_next: bool,
    /// When it may go out; `None` until the previous one has committed.
    due: Option<SimTime>,
}

/// Settling time between one update's commit and the next proposal:
/// every replica has applied the outcome by then, so none rejects the
/// next option for a pending one.
const SETTLE: SimDuration = SimDuration::from_millis(500);

struct Scripted {
    reads: Vec<Key>,
    write: Option<fn(Version) -> UpdateOp>,
}

impl Transaction for Scripted {
    fn read_set(&self) -> Vec<Key> {
        self.reads.clone()
    }
    fn decide(&mut self, reads: &[(Key, Version, Option<Row>)]) -> TxnAction {
        let version = reads.first().map_or(Version::ZERO, |(_, v, _)| *v);
        let updates = self
            .write
            .map(|op| RecordUpdate::new(item_key(0), op(version)));
        TxnAction::Commit(updates.into_iter().collect())
    }
    fn is_write(&self) -> bool {
        self.write.is_some()
    }
    fn label(&self) -> &'static str {
        "scripted"
    }
}

impl Workload for DeltaThenWrite {
    fn next_txn(&mut self, _rng: &mut SmallRng) -> Box<dyn Transaction> {
        unreachable!("driven through next_txn_at")
    }

    fn next_txn_at(&mut self, now: SimTime, _rng: &mut SmallRng) -> Box<dyn Transaction> {
        let reads = vec![item_key(0)];
        let due = *self.due.get_or_insert(now + SETTLE);
        let write: Option<fn(Version) -> UpdateOp> = if now < due {
            None // poll with local reads until the last update settled
        } else if std::mem::replace(&mut self.delta_next, false) {
            Some(|_| UpdateOp::Commutative(CommutativeUpdate::delta(STOCK, -1)))
        } else {
            self.delta_next = true;
            Some(|read| {
                UpdateOp::Physical(PhysicalUpdate::write(read, Row::new().with(STOCK, 400)))
            })
        };
        if write.is_some() {
            self.due = None;
        }
        Box::new(Scripted { reads, write })
    }
}

/// A forced non-movable letter: a write accepted behind a committed
/// decrement does not commute with it, every acceptor says so, and the
/// coordinator learns the write from the whole votes it pulls — one
/// pull per member of the quorum it counted, each answered once, all of
/// it in the repair class of `Report::net`.
#[test]
fn a_write_behind_a_committed_delta_is_learned_through_one_pull_per_member() {
    let mut spec = hot_spec(61);
    spec.clients = 1;
    let data = vec![(item_key(0), Row::new().with(STOCK, 400))];
    let mut factory = |_c: usize, _dc: DcId, _p: &_| -> Box<dyn Workload> {
        let (delta_next, due) = (true, None);
        Box::new(DeltaThenWrite { delta_next, due })
    };
    let (report, stats) = run_mdcc(&spec, micro_catalog(), &data, &mut factory, MdccMode::Full);
    assert_healthy("barrier", &report);
    assert_eq!((stats.aborted, stats.collisions, stats.timeouts), (0, 0, 0));
    assert_eq!(
        stats.fast_commits, stats.committed,
        "a pull is no classic round"
    );
    // Decrements and writes alternate, the decrement first.
    let writes = stats.committed / 2;
    assert!(writes >= 5, "run barely committed: {writes} writes");
    let protocol = ClusterSpec::default().protocol;
    let (quorum, all) = (protocol.fast_quorum as u64, protocol.replication as u64);
    assert!(
        (quorum * writes..=all * writes).contains(&stats.repair_pulls),
        "{} pulls for {writes} writes: one per member of a quorum of {quorum} of {all}",
        stats.repair_pulls
    );
    assert_eq!(report.nodes.repair_served, stats.repair_pulls);
    assert_eq!(
        report.net.repair.msgs,
        2 * stats.repair_pulls,
        "a pull and its answer, nothing else, ride the repair class"
    );
    assert!(report.net.repair.bytes > 0);
    assert_eq!(report.nodes.stray_msgs, 0);
}

/// Crash/restart: a node that crashes mid-run, replays its WAL and
/// re-syncs lands **byte-identical** to a never-crashed reference
/// replica.
#[test]
fn restarted_nodes_reconverge_on_hot_commutative_load() {
    let s = SimDuration::from_secs;
    let mut spec = hot_spec(58);
    spec.durability = true;
    spec.drain = s(25);
    spec.faults = FaultPlan::new()
        .crash_restart(DcId(1), 0, s(5), s(4))
        .crash_restart(DcId(3), 0, s(9), s(4));
    let (report, _) = run_hot(&spec);
    assert_eq!(report.recoveries.len(), 2, "both restarts ran");
    assert!(report.write_commits() > 50, "run barely committed");
    assert_healthy("restarts", &report);
    let audit = report.audit.as_ref().expect("audited");
    let reference = audit.committed_digests[0];
    for r in &report.recoveries {
        assert_eq!(
            audit.committed_digests[r.node.0 as usize], reference,
            "restarted node {} diverged from the reference",
            r.node
        );
    }
}
