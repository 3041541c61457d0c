//! Pins of whole cluster runs under the event loop.
//!
//! Each case runs one small MDCC deployment and pins an FNV-1a hash of
//! the `Debug` form of everything the run decides: the transaction
//! records, the byte-accurate wire accounting, the consistency audit
//! (each field by name, see `audit_fields`), the recovery log and the
//! dispatched-event count. Host wall time is the only part of a report
//! left out.
//!
//! The matrix covers seeds × topologies × protocol modes × fault
//! schedules (node crash and restart with durable storage and a non-zero
//! fsync, and a whole-DC outage). Any change to a simulated byte, frame,
//! timestamp or event order under any of them moves a pin.

use std::sync::Arc;

use mdcc_cluster::{
    micro_catalog, run_mdcc, ClusterAudit, ClusterSpec, FaultEvent, FaultPlan, MdccMode, NetKind,
    Report,
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

/// The consistency audit, field by field and by name: a field added to
/// [`ClusterAudit`] moves no pin until it is listed here.
fn audit_fields(audit: &ClusterAudit) -> [(&'static str, String); 11] {
    [
        (
            "committed_digests",
            format!("{:?}", audit.committed_digests),
        ),
        ("pending_options", format!("{:?}", audit.pending_options)),
        ("stuck_clients", format!("{:?}", audit.stuck_clients)),
        ("attr_minima", format!("{:?}", audit.attr_minima)),
        (
            "dangling_resolved",
            format!("{:?}", audit.dangling_resolved),
        ),
        ("sync_adoptions", format!("{:?}", audit.sync_adoptions)),
        (
            "sync_items_received",
            format!("{:?}", audit.sync_items_received),
        ),
        ("checkpoints", format!("{:?}", audit.checkpoints)),
        (
            "wal_bytes_written",
            format!("{:?}", audit.wal_bytes_written),
        ),
        ("wal_appends", format!("{:?}", audit.wal_appends)),
        ("parked_left", format!("{:?}", audit.parked_left)),
    ]
}

/// The hash of everything a run decides.
fn fingerprint(report: &Report) -> u64 {
    let mut decided = format!("{:?}\n{:?}\n", report.records, report.net);
    for (name, value) in report.audit.iter().flat_map(audit_fields) {
        decided.push_str(&format!("{name}: {value}\n"));
    }
    decided.push_str(&format!("{:?}\n{}", report.recoveries, report.perf.events));
    fnv1a(decided.as_bytes())
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
//
// Re-pinned again when the classic path began to travel once per
// (transaction, node): a coordinator sends each master one proposal for
// every option it masters, and a `P2a` carries every round a node's
// leaders emit in one handler for the destination, each write-set once
// and no option key. Every run here has classic rounds (collision
// recoveries, or Multi-Paxos throughout), so every run's bytes move and
// its schedule with them. The pins before, in order:
// 0x0929_897f_8983_7767, 0x78bd_a465_9861_0342, 0x8a75_8cb7_5e0b_6618,
// 0x987c_6942_09ca_d127 (uniform); 0xccd3_af25_d60f_cb29,
// 0xbcf8_b647_8b15_df12 (EC2); 0x98fa_fded_130f_3d14 (Multi);
// 0x6d0d_9161_e491_a21e, 0xeb7e_077a_38d5_e2de (crash-restart);
// 0xfd55_3987_ced9_4830 (outage).
//
// Re-pinned again when a node's answers began to travel once per
// (transaction, node): its verdicts on one transaction's records go to
// the coordinator as one `Verdict`, each record named by write-set
// position (an entry whose transaction the coordinator no longer runs is
// dropped), and a read asks each node once for all its keys. Every run
// here sends verdicts and reads, so every run's bytes, messages and
// schedule move. The pins before, in order:
// 0x9ea3_3a2f_aadc_483a, 0xd367_98a6_9592_d4b9, 0xf9b9_eaa1_4e75_458e,
// 0x1973_1659_bc14_0fbf (uniform); 0x79d1_b7ce_d80e_ca33,
// 0xe284_cf39_0e6b_cfc4 (EC2); 0x83d7_d768_9988_ca9b (Multi);
// 0xac89_a327_6aa6_ac2a, 0x4756_8cec_d892_8f19 (crash-restart);
// 0xfb93_9c9b_45b4_eacd (outage).
//
// Re-pinned again when a `Visibility` began to name a node's records by
// write-set position where the coordinator holds an accepted letter from
// it, and a positional `Verdict` entry whose only letter is of its
// message's transaction began to write that letter without the
// transaction. Bytes are the only cause: with the same change's store
// rules (pending entries for options a proved-safe base brings, kept
// through a partial sync) and election rule on the old layouts, every pin
// below held. The pins before, in order:
// 0x48fc_cc20_49fa_bd94, 0xf7af_4bb2_63bc_64ab, 0x38e4_4eb2_0005_ed20,
// 0xbcb6_e4cd_8a89_3e5a (uniform); 0x372c_6b15_b18e_2991,
// 0x463c_9781_332f_813c (EC2); 0x2ae2_84a4_6ac8_45eb (Multi);
// 0x1689_de20_ada3_be82, 0xf245_4bbb_8df1_dd1a (crash-restart);
// 0x90d9_9b62_ec86_d778 (outage).
//
// Re-pinned again when the cluster audit gained `sync_items_received`
// (the records peer sync delivered, adopted or not). The audit's debug
// form is hashed, so the new field is the only cause: with the same
// change's filtered range pulls and without the field, every pin below
// held. The pins before, in order:
// 0x02f6_5a67_116c_2efe, 0x6bb3_ce53_f4b8_952d, 0xba67_06a2_c6ce_0d38,
// 0xfb4d_52dd_4412_c2b5 (uniform); 0x23c7_97ee_945c_0e0c,
// 0xf3e7_e2de_a008_ade5 (EC2); 0x7ad9_8662_f324_a493 (Multi);
// 0x2268_41ee_859c_3ee2, 0xfb7b_50ff_62a7_0388 (crash-restart);
// 0xca32_f810_d593_8a40 (outage).
//
// Re-pinned again when the hash input began to list the audit field by
// field, by name (`audit_fields`), instead of hashing its debug form,
// so that adding a counter to the audit no longer moves every pin. Hash
// input listed field by field; no run moved: at the same commit the
// debug-form fingerprint still equalled every pin below. The pins
// before, in order:
// 0x0222_1fe4_97a9_6612, 0xb3c4_e76f_5fd5_09ed, 0x1b05_eef1_87d2_da08,
// 0xea2b_07f5_57ea_502d (uniform); 0x7a92_9bfd_e922_08d8,
// 0x87a3_cfce_d61d_60c9 (EC2); 0x2c58_0217_76f4_9593 (Multi);
// 0x104b_0fef_dbf4_40da, 0x3bd5_d583_8293_88be (crash-restart);
// 0x3687_2fad_f32c_fe04 (outage).
//
// Re-pinned again when Phase 1 began to ship a cstruct only to or from a
// replica that lacks it: a `P1a` names the leader's instance and cstruct
// digest, a `P1b` leaves out what that names (and its committed value
// unless newer), and the recovery round carries the representative of
// its proved-safe cstruct the promisers hold, named by digest to those
// that hold it exactly. Every run here but the EC2 pair runs Phase 1, so
// its bytes and schedule move; the EC2 runs run none and did not move.
// The pins before, in order:
// 0xe7da_38cb_7f80_96bf, 0x5e2e_0a9e_5af6_d028, 0x0bee_cf79_5063_e54d,
// 0x0d66_5c10_9def_41e2 (uniform); 0x45c3_f508_7c63_17a0 (Multi);
// 0x65a1_fb00_e220_2877, 0xd828_d63a_3e19_072d (crash-restart);
// 0xcd87_5932_8166_8037 (outage).

/// `(seed, pin)` of the uniform three-DC runs.
const UNIFORM: [(u64, u64); 4] = [
    (1, 0xf648_fc13_e4c6_d0da),
    (7, 0xd0d8_593f_ac5c_eb0e),
    (42, 0x0ac6_8f80_c3fc_154c),
    (4242, 0x7f53_b1aa_5da4_6dd7),
];

/// `(seed, pin)` of the five-region EC2 runs with two shards per DC.
const EC2: [(u64, u64); 2] = [(3, 0xe5be_afc1_0723_ae01), (11, 0x96a2_5347_5ff6_8e36)];

/// `(seed, pin)` of the Multi-Paxos run.
const MULTI: (u64, u64) = (5, 0xf961_7917_08d1_b53f);

/// `(seed, pin)` of the durable crash-and-restart runs.
const CRASH_RESTART: [(u64, u64); 2] = [(9, 0xcb1f_eb1c_d0e0_1a4d), (21, 0xc38f_4069_879e_cdcf)];

/// `(seed, pin)` of the data-center outage run.
const DC_OUTAGE: (u64, u64) = (13, 0x729a_e377_b676_ac8c);

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
