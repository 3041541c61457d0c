//! The parallel engine must be invisible in the results.
//!
//! The contract (mirroring `trace_observability.rs` for tracing): a run
//! on the conservative parallel per-DC engine produces exactly the same
//! transaction records, byte-accurate wire accounting, consistency
//! audit and event count as the same run on the sequential k-way merge.
//! Not statistically similar — *byte-identical*. The parallel engine is
//! allowed to change two things only: `RunPerf::wall` (host time) and
//! `RunPerf::threads`.
//!
//! The matrix below covers seeds × topologies × protocol modes × fault
//! schedules (node crash/restart with durable storage, and a whole-DC
//! outage), because the bugs a conservative scheduler can have — window
//! boundary off-by-ones, cross-shard routing order, RNG sharing — only
//! show up under load and disruption.

use std::sync::Arc;

use mdcc_cluster::{
    micro_catalog, run_mdcc, ClusterSpec, FaultEvent, FaultPlan, MdccMode, NetKind, Report,
};
use mdcc_common::{DcId, Key, Row, SimDuration, StaticPlacement};
use mdcc_workloads::micro::{item_key, MicroConfig, MicroWorkload, STOCK};
use mdcc_workloads::Workload;

fn data(items: u64) -> Vec<(Key, Row)> {
    (0..items)
        .map(|i| (item_key(i), Row::new().with(STOCK, 1_000_000)))
        .collect()
}

fn factory(items: u64) -> impl FnMut(usize, DcId, &Arc<StaticPlacement>) -> Box<dyn Workload> {
    move |_c, _dc, _p| {
        Box::new(MicroWorkload::new(MicroConfig {
            items,
            items_per_txn: 2,
            max_decrement: 2,
            ..MicroConfig::default()
        }))
    }
}

fn small_spec(seed: u64) -> ClusterSpec {
    ClusterSpec {
        seed,
        dcs: 3,
        shards_per_dc: 1,
        clients: 4,
        net: NetKind::Uniform { rtt_ms: 40.0 },
        warmup: SimDuration::from_millis(500),
        duration: SimDuration::from_secs(4),
        ..ClusterSpec::default()
    }
}

const ITEMS: u64 = 16;

fn run(spec: &ClusterSpec, mode: MdccMode) -> Report {
    let (report, _stats) = run_mdcc(
        spec,
        micro_catalog(),
        &data(ITEMS),
        &mut factory(ITEMS),
        mode,
    );
    report
}

/// Everything a run *decides*: transaction records, wire accounting,
/// consistency audit, recovery log and the dispatched-event count. The
/// engine choice must never change any of it. (Host wall time and the
/// thread count are the engine's only observable difference.)
fn fingerprint(report: &Report) -> impl PartialEq + std::fmt::Debug {
    (
        report.records.clone(),
        report.net,
        report.audit.clone(),
        report.recoveries.clone(),
        report.perf.events,
    )
}

fn assert_equivalent(base: &ClusterSpec, mode: MdccMode, what: &str) {
    let sequential = run(base, mode);
    let parallel = run(
        &ClusterSpec {
            parallel: true,
            ..base.clone()
        },
        mode,
    );
    assert_eq!(
        fingerprint(&sequential),
        fingerprint(&parallel),
        "{what} (seed {}): parallel engine changed the run",
        base.seed
    );
    assert!(
        sequential.records.iter().any(|r| r.committed),
        "{what}: degenerate run, nothing committed"
    );
    assert_eq!(sequential.perf.threads, 1, "{what}: sequential baseline");
    assert_eq!(
        parallel.perf.threads, base.dcs as usize,
        "{what}: one worker per DC"
    );
}

/// The headline property: across seeds, a parallel run is
/// outcome- and wire-byte-identical to the sequential one.
#[test]
fn parallel_matches_sequential_across_seeds() {
    for seed in [1, 7, 42, 4242] {
        assert_equivalent(&small_spec(seed), MdccMode::Full, "uniform/full");
    }
}

/// Same property on the paper's five-region EC2 topology, where
/// asymmetric latencies make the lookahead window tight, and with more
/// shards per DC so cross-shard routing inside a window is exercised.
#[test]
fn parallel_matches_sequential_on_the_paper_topology() {
    for seed in [3, 11] {
        let spec = ClusterSpec {
            dcs: 5,
            shards_per_dc: 2,
            clients: 10,
            net: NetKind::Ec2Five,
            ..small_spec(seed)
        };
        assert_equivalent(&spec, MdccMode::Full, "ec2-five/full");
    }
}

/// Classic rounds route every proposal through a remote master —
/// maximum cross-shard traffic per commit.
#[test]
fn parallel_matches_sequential_under_classic_paxos() {
    assert_equivalent(&small_spec(5), MdccMode::Multi, "uniform/multi");
}

/// A scripted storage-node crash and restart with durable storage: the
/// recovery log, WAL replay and repair traffic must all be identical.
#[test]
fn parallel_matches_sequential_across_crash_and_restart() {
    for seed in [9, 21] {
        let spec = ClusterSpec {
            durability: true,
            wal_fsync: SimDuration::from_micros(500),
            faults: FaultPlan::new().crash_restart(
                DcId(1),
                0,
                SimDuration::from_millis(1_500),
                SimDuration::from_millis(800),
            ),
            ..small_spec(seed)
        };
        assert_equivalent(&spec, MdccMode::Full, "crash-restart/full");
    }
}

/// A whole data center stops receiving mid-run (the Figure 8 outage):
/// undelivered messages, timeouts and failover must replay identically.
#[test]
fn parallel_matches_sequential_across_a_dc_outage() {
    let spec = ClusterSpec {
        faults: FaultPlan::new().with(FaultEvent::FailDc {
            at: SimDuration::from_secs(2),
            dc: DcId(2),
        }),
        ..small_spec(13)
    };
    assert_equivalent(&spec, MdccMode::Full, "dc-outage/full");
}
