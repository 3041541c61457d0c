//! Pins of whole cluster runs under the event loop.
//!
//! Each case runs one small MDCC deployment and pins an FNV-1a hash of
//! the `Debug` form of everything the run decides: the transaction
//! records, the byte-accurate wire accounting, the consistency audit,
//! the recovery log and the dispatched-event count. Host wall time is
//! the only part of a report left out.
//!
//! The matrix covers seeds × topologies × protocol modes × fault
//! schedules (node crash and restart with durable storage and a non-zero
//! fsync, and a whole-DC outage). Any change to a simulated byte, frame,
//! timestamp or event order under any of them moves a pin.

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

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The hash of everything a run decides.
fn fingerprint(report: &Report) -> u64 {
    let decided = (
        &report.records,
        &report.net,
        &report.audit,
        &report.recoveries,
        report.perf.events,
    );
    fnv1a(format!("{decided:?}").as_bytes())
}

/// Runs `spec` under `mode` and checks its fingerprint against `pinned`.
/// Returns the mismatch, in the form of a pin line, if it moved.
fn check(spec: &ClusterSpec, mode: MdccMode, what: &str, pinned: u64) -> Option<String> {
    let report = run(spec, mode);
    assert!(
        report.records.iter().any(|r| r.committed),
        "{what} (seed {}): degenerate run, nothing committed",
        spec.seed
    );
    let got = fingerprint(&report);
    (got != pinned).then(|| format!("{what}: ({}, 0x{got:016x}),", spec.seed))
}

fn assert_pinned(cases: &[(ClusterSpec, MdccMode, &str, u64)]) {
    let moved: Vec<String> = cases
        .iter()
        .filter_map(|(spec, mode, what, pinned)| check(spec, *mode, what, *pinned))
        .collect();
    assert!(moved.is_empty(), "pins moved:\n{}", moved.join("\n"));
}

// Re-pinned once: every integer of the codec became a varint (hashes
// excepted), so every message and WAL record is smaller, its transmit
// and service time shorter, and every schedule shifts. The parent's pins
// were, in order: 0x7a02_06ee_04e3_cec5, 0xd368_9672_477b_0147,
// 0xd7bb_220c_955c_5815, 0x11b5_18c4_475c_3e82 (uniform);
// 0xfcd3_4878_23b4_9b7f, 0x56b0_b5f6_7305_f114 (EC2);
// 0xd2d4_7774_4b61_7f99 (Multi); 0xaddb_c92c_d548_3266,
// 0x7264_b847_2b08_54e7 (crash-restart); 0x3ba4_483a_b6d2_294a (outage).

/// `(seed, pin)` of the uniform three-DC runs.
const UNIFORM: [(u64, u64); 4] = [
    (1, 0x0929_897f_8983_7767),
    (7, 0x78bd_a465_9861_0342),
    (42, 0x8a75_8cb7_5e0b_6618),
    (4242, 0x987c_6942_09ca_d127),
];

/// `(seed, pin)` of the five-region EC2 runs with two shards per DC.
const EC2: [(u64, u64); 2] = [(3, 0xccd3_af25_d60f_cb29), (11, 0xbcf8_b647_8b15_df12)];

/// `(seed, pin)` of the Multi-Paxos run.
const MULTI: (u64, u64) = (5, 0x98fa_fded_130f_3d14);

/// `(seed, pin)` of the durable crash-and-restart runs.
const CRASH_RESTART: [(u64, u64); 2] = [(9, 0x6d0d_9161_e491_a21e), (21, 0xeb7e_077a_38d5_e2de)];

/// `(seed, pin)` of the data-center outage run.
const DC_OUTAGE: (u64, u64) = (13, 0xfd55_3987_ced9_4830);

#[test]
fn uniform_runs_are_pinned_across_seeds() {
    let cases: Vec<_> = UNIFORM
        .iter()
        .map(|&(seed, pin)| (small_spec(seed), MdccMode::Full, "uniform/full", pin))
        .collect();
    assert_pinned(&cases);
}

/// The paper's five-region topology, with asymmetric latencies and more
/// than one shard per data center.
#[test]
fn paper_topology_runs_are_pinned() {
    let cases: Vec<_> = EC2
        .iter()
        .map(|&(seed, pin)| {
            let spec = ClusterSpec {
                dcs: 5,
                shards_per_dc: 2,
                clients: 10,
                net: NetKind::Ec2Five,
                ..small_spec(seed)
            };
            (spec, MdccMode::Full, "ec2-five/full", pin)
        })
        .collect();
    assert_pinned(&cases);
}

/// Classic rounds route every proposal through a remote master.
#[test]
fn multi_paxos_run_is_pinned() {
    let (seed, pin) = MULTI;
    assert_pinned(&[(small_spec(seed), MdccMode::Multi, "uniform/multi", pin)]);
}

/// A scripted storage-node crash and restart with durable storage: the
/// recovery log, WAL replay, group commit and repair traffic.
#[test]
fn crash_restart_runs_are_pinned() {
    let cases: Vec<_> = CRASH_RESTART
        .iter()
        .map(|&(seed, pin)| {
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
            (spec, MdccMode::Full, "crash-restart/full", pin)
        })
        .collect();
    assert_pinned(&cases);
}

/// A whole data center stops receiving mid-run (the Figure 8 outage).
#[test]
fn dc_outage_run_is_pinned() {
    let (seed, pin) = DC_OUTAGE;
    let spec = ClusterSpec {
        faults: FaultPlan::new().with(FaultEvent::FailDc {
            at: SimDuration::from_secs(2),
            dc: DcId(2),
        }),
        ..small_spec(seed)
    };
    assert_pinned(&[(spec, MdccMode::Full, "dc-outage/full", pin)]);
}
