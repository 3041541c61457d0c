//! Group-commit WAL and storage-backend acceptance tests.
//!
//! The per-node commit buffer (the simulator's WAL batch) must be a pure
//! durability-layer optimization: with fsync latency zero it is inert —
//! its window and size trigger change nothing — and with real fsync
//! latency it preserves every commit guarantee while one covering fsync
//! serves several appends. The storage backend knob (`ProtocolConfig::storage`)
//! must be invisible one layer further down: cluster runs under the
//! in-memory and log-structured engines are byte-identical, wire
//! accounting included.

use mdcc_cluster::{micro_catalog, run_mdcc, ClusterSpec, FaultPlan, MdccMode, Report};
use mdcc_common::{DcId, Key, Row, SimDuration, StorageKind};
use mdcc_core::TxnStats;
use mdcc_workloads::micro::{item_key, MicroConfig, MicroWorkload, STOCK};
use mdcc_workloads::Workload;

const ITEMS: u64 = 120;

/// A durable deployment: every storage-node state change WAL-appends,
/// so the fsync discipline is on the critical path of every commit.
fn wal_spec(seed: u64, fsync: SimDuration) -> ClusterSpec {
    let s = SimDuration::from_secs;
    ClusterSpec {
        seed,
        clients: 10,
        shards_per_dc: 1,
        warmup: s(2),
        duration: s(12),
        drain: s(8),
        durability: true,
        wal_fsync: fsync,
        ..ClusterSpec::default()
    }
}

fn run_wal(spec: &ClusterSpec) -> (Report, TxnStats) {
    // Effectively infinite stock: only the batch knobs (or the storage
    // backend) differ between runs, so commit outcomes are comparable
    // point to point — constraint exhaustion never decides.
    let data: Vec<(Key, Row)> = (0..ITEMS)
        .map(|i| (item_key(i), Row::new().with(STOCK, 1_000_000)))
        .collect();
    let mut factory = |_c: usize, _dc: DcId, _p: &_| -> Box<dyn Workload> {
        Box::new(MicroWorkload::new(MicroConfig {
            items: ITEMS,
            ..MicroConfig::default()
        }))
    };
    run_mdcc(spec, micro_catalog(), &data, &mut factory, MdccMode::Full)
}

fn assert_healthy(label: &str, report: &Report) {
    let audit = report.audit.as_ref().expect("mdcc runs audit the cluster");
    assert_eq!(audit.pending_options, 0, "{label}: options left dangling");
    assert_eq!(audit.stuck_clients, 0, "{label}: clients left stuck");
    let min_stock = audit.min_of("stock").expect("stock audited");
    assert!(min_stock >= 0, "{label}: stock constraint violated");
}

/// The zero-latency contract: with fsync latency zero no WAL batch
/// opens, so its window and size trigger change nothing — byte-identical
/// wire accounting and audits, the seed behavior exactly.
#[test]
fn group_commit_is_inert_at_zero_fsync_latency() {
    let base = wal_spec(91, SimDuration::ZERO);
    let mut knobs = base.clone();
    knobs.protocol.group_commit_window = SimDuration::from_millis(5);
    knobs.protocol.group_commit_bytes = 1;
    let (a, _) = run_wal(&base);
    let (b, _) = run_wal(&knobs);
    assert_healthy("default batch", &a);
    assert_healthy("5ms/1B batch", &b);
    assert_eq!(a.net, b.net, "identical machines at fsync=0");
    assert_eq!(a.audit, b.audit, "byte-identical audits at fsync=0");
    assert_eq!(a.net.fsyncs, 0, "no explicit fsyncs at zero latency");
}

/// Most fsyncs one commit may cost on the 1 ms `wal_spec`, per seed: the
/// values these runs measured when group commit became the only fsync
/// rule. One fsync per appending message cost 12.3–12.8 here.
const FSYNCS_PER_COMMIT_CEILINGS: [(u64, f64); 5] = [
    (96, 11.187),
    (97, 12.189),
    (98, 11.964),
    (99, 11.644),
    (100, 11.718),
];

/// The acceptance headline: with real fsync latency every run converges
/// healthy with zero aborts, one covering fsync makes several appends
/// durable, and fsyncs per committed transaction hold their measured
/// values.
///
/// The values are not the contract: how many records a message
/// appends, and so how many appends a window gathers, is the protocol's
/// business. A change that splinters batches breaks the ceilings; a
/// protocol change that appends differently may move the values, and
/// then restates them.
#[test]
fn group_commit_amortizes_fsyncs_without_changing_outcomes() {
    let fsync = SimDuration::from_millis(1);
    for (seed, ceiling) in FSYNCS_PER_COMMIT_CEILINGS {
        let (report, _) = run_wal(&wal_spec(seed, fsync));
        assert_healthy("group commit", &report);
        assert!(report.write_commits() > 100, "the run barely committed");
        assert_eq!(report.write_aborts(), 0, "group commit introduced aborts");
        let fpc = report.fsyncs_per_commit().expect("the run committed");
        // Records one fsync made durable, on average.
        let appends = report.audit.as_ref().expect("audited").wal_appends as f64;
        let per_fsync = appends / report.net.fsyncs as f64;
        eprintln!("seed {seed} fsyncs/commit {fpc:.4}; appends per fsync {per_fsync:.4}");
        assert!(
            per_fsync > 1.0,
            "a covering fsync must serve several appends: {per_fsync:.2}"
        );
        assert!(
            fpc <= ceiling,
            "seed {seed}: fsyncs per commit {fpc:.4} over {ceiling}"
        );
    }
}

/// The storage backend is wire-invisible: a run on the log-structured
/// engine (with a cache small enough to force evictions and transient
/// cold-record materialization throughout) is byte-identical to the
/// in-memory reference — same frames, same bytes, same audits.
#[test]
fn log_structured_backend_is_byte_identical_to_mem() {
    let fsync = SimDuration::from_millis(1);
    let mem_spec = wal_spec(93, fsync);
    assert_eq!(
        mem_spec.protocol.storage,
        StorageKind::Mem,
        "the in-memory map is the default backend"
    );
    let mut log_spec = wal_spec(93, fsync);
    log_spec.protocol.storage = StorageKind::LogStructured;
    // ITEMS records per node through a 32-record cache: every node
    // evicts and re-materializes constantly.
    log_spec.protocol.log_cache_records = 32;

    let (mem, _) = run_wal(&mem_spec);
    let (log, _) = run_wal(&log_spec);
    assert_healthy("mem", &mem);
    assert_healthy("log-structured", &log);
    assert_eq!(mem.net, log.net, "wire accounting is backend-independent");
    assert_eq!(mem.audit, log.audit, "audits are byte-identical");
    assert!(
        log.engine.evictions > 0,
        "the log-structured run never spilled its cache — the \
         equivalence was not exercised"
    );
}

/// A crash in the middle of the commit window: the unsynced WAL suffix
/// is lost (write-back durability), but acks are held until the
/// covering fsync, so nothing any client observed as committed can sit
/// in the lost suffix. The restarted node replays its durable prefix
/// and re-syncs to a byte-identical committed state.
#[test]
fn crash_mid_batch_loses_no_acked_commit() {
    let s = SimDuration::from_secs;
    let mut spec = wal_spec(94, SimDuration::from_millis(1));
    spec.drain = s(20);
    spec.faults = FaultPlan::new().crash_restart(DcId(1), 0, s(5), s(4));
    let (report, _) = run_wal(&spec);
    assert_eq!(report.recoveries.len(), 1, "the restart ran");
    assert_healthy("crash-mid-batch", &report);
    assert!(report.write_commits() > 100, "the cluster kept committing");
    let audit = report.audit.as_ref().expect("audited");
    let reference = audit.committed_digests[0];
    for r in &report.recoveries {
        assert_eq!(
            audit.committed_digests[r.node.0 as usize], reference,
            "restarted node diverged after replaying its durable prefix"
        );
    }
}

/// The commit window (deadline events, held acks, covering fsyncs)
/// stays deterministic: same seed, same spec ⇒ byte-identical audits.
#[test]
fn group_commit_runs_are_deterministic() {
    let spec = wal_spec(95, SimDuration::from_millis(1));
    let (a, _) = run_wal(&spec);
    let (b, _) = run_wal(&spec);
    assert_eq!(a.write_commits(), b.write_commits());
    assert_eq!(a.net, b.net, "wire accounting is reproducible");
    assert_eq!(a.audit, b.audit, "audits are byte-identical across reruns");
}
