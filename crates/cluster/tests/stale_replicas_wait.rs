//! A replica that is behind a proposal waits for the version instead of
//! voting no.
//!
//! One client per data center rewrites its own row, back to back, with
//! physical updates: every record has exactly one writer, so nothing
//! here conflicts. The WAN reorders messages, though (lognormal jitter
//! per message), and a coordinator's `Propose(N+1)` regularly overtakes
//! its own asynchronous `Visibility(N)` at some remote replica. Judged
//! on arrival, that replica — still at the old version, option `N`
//! pending — answers `PendingOption` / `StaleRead`; with two or more
//! such replicas the fast quorum is missed, the votes split between two
//! versions, the learner stays undecided until `LEARN_TIMEOUT`, and the
//! option goes through master recovery: a false conflict on an
//! uncontended row. A storage node now parks such a proposal until the
//! record reaches the version it read, so every one of these commits is
//! a fast commit and no learn timeout fires.

use std::sync::Arc;

use mdcc_cluster::{run_mdcc, ClusterSpec, MdccMode, Report};
use mdcc_common::{
    DcId, Key, PhysicalUpdate, RecordUpdate, Row, SimDuration, StaticPlacement, TableId, UpdateOp,
    Version,
};
use mdcc_core::TxnStats;
use mdcc_storage::{Catalog, TableSchema};
use mdcc_workloads::{Transaction, TxnAction, Workload};
use rand::rngs::SmallRng;

const CARTS: TableId = TableId(7);
const ITEMS: TableId = TableId(8);

fn cart_key(client: usize) -> Key {
    Key::new(CARTS, format!("cart{client}"))
}

fn item_key() -> Key {
    Key::new(ITEMS, "item")
}

/// Looks an item up, then rewrites the client's own cart row.
///
/// The writer is the row's only writer and knows the version it wrote
/// last, so it does not read the row back: a read at the local replica
/// can overtake the writer's own Visibility there and return the version
/// before — a doomed proposal, and a different problem from the one
/// under test (ROADMAP, own-read staleness). The item lookup is what
/// TPC-W's interactions do between two cart updates; it puts the next
/// proposal in a later frame than the previous Visibility, so the two
/// cross the WAN with independent jitter.
struct RewriteOwnRow {
    key: Key,
    /// The version the previous rewrite produced.
    version: Version,
}

impl Transaction for RewriteOwnRow {
    fn read_set(&self) -> Vec<Key> {
        vec![item_key()]
    }

    fn decide(&mut self, _reads: &[(Key, Version, Option<Row>)]) -> TxnAction {
        TxnAction::Commit(vec![RecordUpdate::new(
            self.key.clone(),
            UpdateOp::Physical(PhysicalUpdate::write(
                self.version,
                Row::new().with("n", self.version.0 as i64),
            )),
        )])
    }

    fn is_write(&self) -> bool {
        true
    }

    fn label(&self) -> &'static str {
        "rewrite-own-row"
    }
}

struct OwnRowWorkload {
    key: Key,
    /// Bulk-loaded rows start at version 1; every rewrite commits (the
    /// test asserts it), so the n-th rewrite reads version n.
    next_version: Version,
}

impl Workload for OwnRowWorkload {
    fn next_txn(&mut self, _rng: &mut SmallRng) -> Box<dyn Transaction> {
        let version = self.next_version;
        self.next_version = version.next();
        Box::new(RewriteOwnRow {
            key: self.key.clone(),
            version,
        })
    }
}

fn run(seed: u64) -> (Report, TxnStats) {
    let s = SimDuration::from_secs;
    let spec = ClusterSpec {
        seed,
        clients: 5,
        shards_per_dc: 1,
        warmup: s(1),
        duration: s(20),
        drain: s(5),
        ..ClusterSpec::default()
    };
    let catalog = Arc::new(
        Catalog::new()
            .with(TableSchema::new(CARTS, "cart"))
            .with(TableSchema::new(ITEMS, "item")),
    );
    let data: Vec<(Key, Row)> = (0..spec.clients)
        .map(|c| (cart_key(c), Row::new().with("n", 0)))
        .chain([(item_key(), Row::new().with("price", 7))])
        .collect();
    let mut factory = |c: usize, _dc: DcId, _p: &Arc<StaticPlacement>| -> Box<dyn Workload> {
        Box::new(OwnRowWorkload {
            key: cart_key(c),
            next_version: Version(1),
        })
    };
    run_mdcc(&spec, catalog, &data, &mut factory, MdccMode::Full)
}

#[test]
fn single_writer_rows_commit_fast_under_wan_reordering() {
    let mut parked = 0;
    for seed in [31, 32, 33, 34, 35] {
        let (report, stats) = run(seed);
        let audit = report.audit.as_ref().expect("mdcc runs audit the cluster");
        assert!(
            stats.committed > 300,
            "seed {seed}: only {} commits",
            stats.committed
        );
        assert_eq!(stats.timeouts, 0, "seed {seed}: learn timeouts fired");
        assert_eq!(stats.aborted, 0, "seed {seed}: uncontended rows aborted");
        assert_eq!(
            stats.fast_commits, stats.committed,
            "seed {seed}: commits left the fast path"
        );
        assert_eq!(
            (stats.collisions, stats.classic_redirects),
            (0, 0),
            "seed {seed}: (collisions, NotFast redirects)"
        );
        let nodes = report.nodes;
        assert_eq!(
            nodes.missed_commit_pulls, 0,
            "seed {seed}: a replica missed a commit it was sent"
        );
        assert_eq!(
            (nodes.parked_judged_behind, audit.parked_left),
            (0, 0),
            "seed {seed}: (proposals judged while behind, still parked after the drain)"
        );
        assert_eq!(nodes.parked_released, nodes.proposals_parked);
        assert_eq!(audit.pending_options, 0, "seed {seed}");
        assert_eq!(audit.stuck_clients, 0, "seed {seed}");
        let first = audit.committed_digests[0];
        assert!(
            audit.committed_digests.iter().all(|d| *d == first),
            "seed {seed}: replicas diverged"
        );
        parked += nodes.proposals_parked;
    }
    assert!(
        parked > 0,
        "no proposal ever overtook the version it read: the scenario is gone"
    );
}
