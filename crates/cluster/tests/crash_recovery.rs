//! The crash–recovery acceptance drill.
//!
//! One storage node in *every* remote data center crashes mid-run (two
//! of them overlapping, which takes the fast quorum away entirely) and
//! restarts from its disk: checkpoint + WAL replay, then anti-entropy
//! sync against peers and dangling-transaction resolution. A client dies
//! too, orphaning whatever its transaction manager had in flight.
//!
//! The run must keep committing throughout, never violate `stock ≥ 0`,
//! resolve every dangling transaction, and leave each restarted node's
//! committed state **byte-equal** to a never-crashed reference replica.

use mdcc_cluster::{micro_catalog, run_mdcc, ClusterSpec, FaultEvent, FaultPlan, MdccMode};
use mdcc_common::{DcId, SimDuration, SimTime};
use mdcc_workloads::micro::{initial_items, MicroConfig, MicroWorkload};
use mdcc_workloads::Workload;

const ITEMS: u64 = 800;

fn drill_spec(seed: u64) -> ClusterSpec {
    let s = SimDuration::from_secs;
    // Stagger crashes over every remote DC; DC1/DC2 overlap (only three
    // replicas alive: the fast quorum of four is unreachable and commits
    // must flow through classic masters), DC3/DC4 overlap likewise.
    let faults = FaultPlan::new()
        .crash_restart(DcId(1), 0, s(8), s(5))
        .crash_restart(DcId(2), 0, s(9), s(5))
        .crash_restart(DcId(3), 0, s(15), s(4))
        .crash_restart(DcId(4), 0, s(16), s(4))
        .with(FaultEvent::CrashClient {
            at: SimDuration::from_millis(10_100),
            client: 3,
        });
    ClusterSpec {
        seed,
        clients: 10,
        shards_per_dc: 1,
        warmup: s(3),
        duration: s(22),
        // Quiesce: clients stop at 25 s; dangling sweeps, sync rounds and
        // in-flight resolutions finish well inside the drain.
        drain: s(15),
        durability: true,
        faults,
        ..ClusterSpec::default()
    }
}

fn run_drill_spec(spec: &ClusterSpec) -> (mdcc_cluster::Report, mdcc_core::TxnStats) {
    let data = initial_items(ITEMS, 7);
    let mut factory = |_c: usize, _dc: DcId, _p: &_| -> Box<dyn Workload> {
        Box::new(MicroWorkload::new(MicroConfig {
            items: ITEMS,
            ..MicroConfig::default()
        }))
    };
    run_mdcc(spec, micro_catalog(), &data, &mut factory, MdccMode::Full)
}

fn run_drill(seed: u64) -> (mdcc_cluster::Report, mdcc_core::TxnStats) {
    run_drill_spec(&drill_spec(seed))
}

#[test]
fn nodes_crash_restart_and_replicas_reconverge_byte_for_byte() {
    let (report, stats) = run_drill(21);
    let audit = report.audit.as_ref().expect("mdcc runs audit the cluster");

    // --- The run keeps committing, including while nodes are down. ---
    let commits = report.write_commits();
    assert!(commits > 200, "got {commits} commits");
    assert!(
        stats.fast_commits > 0,
        "fast path worked before/after faults"
    );
    for (from_s, to_s) in [(8u64, 13u64), (15, 20)] {
        let during = report.commits_between(SimTime::from_secs(from_s), SimTime::from_secs(to_s));
        assert!(
            during > 0,
            "no commits during the {from_s}–{to_s}s crash window"
        );
    }

    // --- Four restarts happened and each replayed real durable state. ---
    assert_eq!(report.recoveries.len(), 4);
    for r in &report.recoveries {
        assert!(
            r.downtime() >= SimDuration::from_secs(4),
            "downtime {:?}",
            r.downtime()
        );
        assert!(
            r.info.snapshot_records > 0,
            "restart of {} materialized nothing from its checkpoint",
            r.node
        );
        assert!(
            r.info.wal_records_replayed > 0,
            "restart of {} replayed an empty WAL tail",
            r.node
        );
    }
    assert!(audit.checkpoints > 0, "periodic checkpoints ran");
    assert!(audit.wal_bytes_written > 0, "the WAL was exercised");

    // --- Every dangling transaction resolved. ---
    assert_eq!(audit.pending_options, 0, "options left dangling");
    assert_eq!(audit.stuck_clients, 0, "live clients left stuck");
    assert!(
        audit.dangling_resolved >= 1,
        "the dead client's orphaned transaction should have been \
         resolved by storage-node peers"
    );

    // --- The stock ≥ 0 constraint held on every replica. ---
    let min_stock = audit.min_of("stock").expect("stock attribute audited");
    assert!(min_stock >= 0, "constraint violated: min stock {min_stock}");

    // --- Byte-equality: restarted nodes match the never-crashed DC0
    //     replica exactly (shards_per_dc = 1 ⇒ node id = dc id). ---
    let reference = audit.committed_digests[0];
    for r in &report.recoveries {
        let digest = audit.committed_digests[r.node.0 as usize];
        assert_eq!(
            digest, reference,
            "restarted node {} diverged from the reference replica",
            r.node
        );
    }
}

/// Sync bytes `drill_spec(21)` may ship over its sync rounds (four
/// restarts, each syncing against rotating peers until a full rotation
/// stays quiet): the reading since a range pull names the records the
/// puller holds, 135 000 B in 331 messages, plus ten per cent. Shipping
/// every key every round cost 6 662 141 B in 24 166 messages on the
/// same spec (measured at f09ed95, the last commit that could). Shipping
/// every record of a divergent range cost 1 596 877 B in 424 messages
/// when the ceiling was set at 2 000 000, and 703 224 B in 422 messages
/// (6 594 records received for 392 adoptions) just before pulls named
/// held records.
const DRILL_SYNC_BYTES_CEILING: u64 = 148_500;

/// Anti-entropy ships divergence, not the store: merkle-style
/// range-digest sync stays under its byte ceiling and sends fewer
/// messages in the whole run than one key-by-key pass over a store
/// would, while every restarted replica still reconverges byte-for-byte
/// with the never-crashed reference. Within a divergent range only the
/// records the puller does not hold ship, so at most half of what the
/// restarted nodes receive is of no use to them.
#[test]
fn batched_merkle_sync_ships_fewer_bytes_than_per_key_flood() {
    let (report, _) = run_drill(21);
    let audit = report.audit.as_ref().expect("audited");
    assert_eq!(audit.pending_options, 0, "dangling options left");
    let reference = audit.committed_digests[0];
    for r in &report.recoveries {
        assert_eq!(
            audit.committed_digests[r.node.0 as usize], reference,
            "node {} diverged",
            r.node
        );
    }

    // Compare *payload* messages: envelope coalescing batches them into
    // fewer frames, but the protocol-level count tells the anti-entropy
    // story.
    let sync = report.net.sync;
    eprintln!(
        "sync traffic: {} msgs ({} frames) / {} bytes; {} items received, {} adopted",
        sync.payloads, sync.msgs, sync.bytes, audit.sync_items_received, audit.sync_adoptions
    );
    assert!(sync.bytes > 0, "the restarted nodes never synced");
    assert!(
        sync.bytes <= DRILL_SYNC_BYTES_CEILING,
        "sync shipped {} bytes, ceiling {DRILL_SYNC_BYTES_CEILING}",
        sync.bytes
    );
    assert!(
        sync.payloads < ITEMS,
        "sync sent {} messages, a message per record ({ITEMS}) or more",
        sync.payloads
    );
    assert!(
        audit.sync_items_received <= 2 * audit.sync_adoptions,
        "sync shipped {} records for {} adoptions",
        audit.sync_items_received,
        audit.sync_adoptions
    );
}

/// The same drill on the log-structured storage backend, with a cache
/// small enough that every node evicts continuously and segment
/// compaction fires mid-protocol. Checkpoints, WAL replay and
/// anti-entropy sweeps all read records through the engine, so this is
/// the regression net for compaction interacting with snapshot `folded`
/// sets: if the copy-forward rewrite perturbed any record's logical
/// state, the restarted nodes' committed digests would diverge from the
/// never-crashed reference.
#[test]
fn log_structured_backend_survives_the_drill() {
    let mut spec = drill_spec(21);
    spec.protocol.storage = mdcc_common::StorageKind::LogStructured;
    // 800 items through a 48-record cache: constant eviction, and the
    // superseding rewrites accumulate dead bytes past the compaction
    // threshold during the run.
    spec.protocol.log_cache_records = 48;
    let (report, _) = run_drill_spec(&spec);
    let audit = report.audit.as_ref().expect("audited");

    assert!(report.write_commits() > 200, "the cluster kept committing");
    assert_eq!(report.recoveries.len(), 4, "all four restarts ran");
    assert_eq!(audit.pending_options, 0, "options left dangling");
    assert_eq!(audit.stuck_clients, 0, "clients left stuck");
    let min_stock = audit.min_of("stock").expect("stock audited");
    assert!(min_stock >= 0, "stock constraint violated");

    let reference = audit.committed_digests[0];
    for r in &report.recoveries {
        assert_eq!(
            audit.committed_digests[r.node.0 as usize], reference,
            "restarted node {} diverged under the log-structured engine",
            r.node
        );
    }

    // The run must actually have exercised the engine's moving parts.
    eprintln!("engine counters: {:?}", report.engine);
    assert!(report.engine.evictions > 0, "the cache never spilled");
    assert!(
        report.engine.compactions > 0,
        "no segment compaction ran — shrink the cache or lengthen the run"
    );
    assert!(report.engine.live_bytes > 0, "segments hold live state");
}

#[test]
fn report_accounts_bytes_by_traffic_class() {
    let (report, _) = run_drill(21);
    let net = report.net;
    assert!(net.bytes_sent > 0, "bytes were accounted");
    assert_eq!(
        net.bytes_sent,
        net.protocol.bytes + net.read.bytes + net.sync.bytes + net.repair.bytes,
        "classes partition the total"
    );
    assert!(net.protocol.bytes > 0, "commit-protocol traffic present");
    assert!(net.read.bytes > 0, "read traffic present");
    assert!(net.sync.bytes > 0, "restart sync traffic present");
    assert!(
        report.bytes_per_commit().unwrap() > 0.0,
        "per-commit wire cost derivable"
    );
}

#[test]
fn drill_is_deterministic() {
    let (a, _) = run_drill(33);
    let (b, _) = run_drill(33);
    assert_eq!(a.write_commits(), b.write_commits());
    assert_eq!(a.audit, b.audit, "audits are byte-identical across reruns");
}
