//! "No simulated change" as a tier-1 assertion.
//!
//! Host-side optimisations of the vote path (shared cstruct entries,
//! chained digests, glb-free learning, the acceptor's incremental open
//! set) must not move one wire byte or one simulated timestamp. The
//! benchmark observes that per run; this test pins it: a quick-scale hot
//! commutative `micro` run under full MDCC — fast ballots, verdict votes,
//! instance-full bounces, classic recovery, re-basing — must reproduce
//! the exact `Report` the code produced before those optimisations
//! landed. A change that is *meant* to alter protocol behaviour updates
//! the constants and says why; anything else that trips this test has
//! changed behaviour by accident.
//!
//! Re-pinned four times since. First: votes to coordinators start at
//! the record's settled watermark, and a retried proposal of a
//! transaction the record knows as aborted is answered instead of
//! re-entering an instance; the same messages travelled — commits,
//! counters, frames, payload messages and committed digests did not move
//! — they were just smaller. Second: the classic round sends each node
//! only what it can use. Third: an acceptor answers a coordinator with a
//! verdict instead of its cstruct. Fourth: a coordinator proposes and
//! resolves a transaction with one message per storage node (see the
//! constants); the last three move the schedule.

use std::sync::Arc;

use mdcc_cluster::{
    micro_catalog, run_mdcc, run_megastore, run_qw, run_tpc, ClientPlacement, ClusterSpec,
    FaultEvent, FaultPlan, MdccMode, NetKind, Report,
};
use mdcc_common::wire::{fnv1a64_extend, FNV1A64_OFFSET};
use mdcc_common::{DcId, Key, MastershipConfig, Placement, Row, SimDuration};
use mdcc_storage::{AttrConstraint, Catalog, TableSchema};
use mdcc_workloads::micro::{
    initial_items, item_key, MicroConfig, MicroWorkload, MICRO_ITEMS, STOCK,
};
use mdcc_workloads::{ShiftingConfig, ShiftingLocalityWorkload, Workload};

const ITEMS: u64 = 120;

#[test]
fn micro_full_report_is_pinned() {
    let s = SimDuration::from_secs;
    let spec = ClusterSpec {
        seed: 1203,
        clients: 10,
        shards_per_dc: 1,
        warmup: s(2),
        duration: s(12),
        drain: s(8),
        ..ClusterSpec::default()
    };
    let catalog = Arc::new(Catalog::new().with(
        TableSchema::new(MICRO_ITEMS, "item").with_constraint(AttrConstraint::at_least("stock", 0)),
    ));
    let data = initial_items(ITEMS, 7);
    let mut factory = |_c: usize, _dc: DcId, _p: &_| -> Box<dyn Workload> {
        Box::new(MicroWorkload::new(MicroConfig {
            items: ITEMS,
            ..MicroConfig::default()
        }))
    };
    let (report, stats) = run_mdcc(&spec, catalog, &data, &mut factory, MdccMode::Full);
    let audit = report.audit.as_ref().expect("mdcc runs audit the cluster");
    let observed = (
        report.write_commits(),
        stats.committed,
        stats.aborted,
        stats.fast_commits,
        stats.collisions,
        stats.repair_pulls,
        report.net.bytes_sent,
        report.net.msgs_sent,
        report.net.payload_msgs,
        audit.committed_digests.clone(),
    );
    let pinned = (
        PINNED_WRITE_COMMITS,
        PINNED_COMMITTED,
        PINNED_ABORTED,
        PINNED_FAST_COMMITS,
        PINNED_COLLISIONS,
        PINNED_REPAIR_PULLS,
        PINNED_BYTES_SENT,
        PINNED_MSGS_SENT,
        PINNED_PAYLOAD_MSGS,
        PINNED_COMMITTED_DIGESTS.to_vec(),
    );
    assert_eq!(
        observed, pinned,
        "(window commits, committed, aborted, fast commits, collisions, repair pulls, \
         bytes sent, frames sent, payload msgs, per-node committed-state digests)"
    );
}

// Produced by this very test at the parent of the O(Δ) vote-path change
// (commit 5f95508), re-pinned four times for changes meant to move it.
// The second: a classic round sends each node only what it can use
// (612 / 720 / 0 / 648 / 16 / 45 commits, committed, aborted, fast
// commits, collisions and repair pulls became 606 / 713 / 1 / 607 / 27 /
// 43; 3 700 157 bytes, 15 946 frames and 40 174 payload messages became
// 3 704 865 / 16 188 / 40 149). The third: coordinators are sent
// verdicts, ~55 B where a vote was ~150 B, so every vote is served and
// arrives sooner and every later arrival order shifts with it; and no
// shadow falls out of step, so nothing is pulled — every letter of this
// run is movable. Those became what is below (aborts 1 → 0, collisions
// 27 → 14, bytes −38 %). All five replicas ended on one digest before
// and do after. The fourth: one `Propose` and one `Visibility` per
// transaction per storage node instead of per record per replica
// (payload messages 39 905 → below): window commits 611 and committed
// 720 did not move, aborted 0 → 1, fast commits 629 → 625, collisions
// 14 → 22, frames 15 749 → 15 912; all five replicas end on one digest
// before and after (a different one: the schedule moved). The fifth:
// every integer of the codec is a varint (hashes excepted), so every
// message is smaller, leaves and is served sooner: bytes 1 753 955 →
// below (−57 %), collisions 22 → 21, frames and payload messages one
// fewer each; window commits, committed, aborted, fast commits and pulls
// did not move. The digests are FNV-1a over the committed state's
// encoding, so they change with it; all five replicas still end on one.
const PINNED_WRITE_COMMITS: usize = 611;
const PINNED_COMMITTED: u64 = 720;
const PINNED_ABORTED: u64 = 1;
const PINNED_FAST_COMMITS: u64 = 625;
const PINNED_COLLISIONS: u64 = 21;
const PINNED_REPAIR_PULLS: u64 = 0;
// 7 291 205 until votes started at the settled watermark, 3 704 865
// until they became verdicts, 2 290 924 until proposals and outcomes
// went once per storage node, 1 753 955 until integers became varints.
const PINNED_BYTES_SENT: u64 = 745_881;
const PINNED_MSGS_SENT: u64 = 15_911;
const PINNED_PAYLOAD_MSGS: u64 = 25_895;
const PINNED_COMMITTED_DIGESTS: [u64; 5] = [18_260_069_163_046_148_303; 5];

// ---------------------------------------------------------------------
// The baselines through the same harness. One small run each, without a
// drain, so a change to the closed loop or to the runner scaffold that
// moves one record, one frame or one byte of a baseline trips here the
// way `micro_full_report_is_pinned` trips for MDCC.
// ---------------------------------------------------------------------

/// `(spec, catalog, initial rows)` shared by the three baseline pins.
fn baseline_inputs(seed: u64) -> (ClusterSpec, Arc<Catalog>, Vec<(Key, Row)>) {
    let spec = ClusterSpec {
        seed,
        clients: 10,
        shards_per_dc: 1,
        warmup: SimDuration::from_secs(2),
        duration: SimDuration::from_secs(8),
        ..ClusterSpec::default()
    };
    let catalog = Arc::new(Catalog::new().with(
        TableSchema::new(MICRO_ITEMS, "item").with_constraint(AttrConstraint::at_least("stock", 0)),
    ));
    (spec, catalog, initial_items(ITEMS, 7))
}

fn micro_factory(
) -> impl FnMut(usize, DcId, &Arc<mdcc_common::StaticPlacement>) -> Box<dyn Workload> {
    |_c, _dc, _p| {
        Box::new(MicroWorkload::new(MicroConfig {
            items: ITEMS,
            ..MicroConfig::default()
        }))
    }
}

/// `(records in the window, write commits, write aborts, median write
/// latency in ms, frames sent, bytes sent)`.
type BaselinePin = (usize, usize, usize, Option<f64>, u64, u64);

fn baseline_pin(report: &Report) -> BaselinePin {
    (
        report.records.len(),
        report.write_commits(),
        report.write_aborts(),
        report.median_write_ms(),
        report.net.msgs_sent,
        report.net.bytes_sent,
    )
}

#[test]
fn qw4_report_is_pinned() {
    let (spec, catalog, data) = baseline_inputs(1907);
    let report = run_qw(&spec, catalog, &data, &mut micro_factory(), 4);
    assert_eq!(baseline_pin(&report), PINNED_QW4);
}

#[test]
fn tpc_report_is_pinned() {
    let (spec, catalog, data) = baseline_inputs(1908);
    let report = run_tpc(&spec, catalog, &data, &mut micro_factory());
    assert_eq!(baseline_pin(&report), PINNED_TPC);
}

#[test]
fn megastore_report_is_pinned() {
    let (mut spec, catalog, data) = baseline_inputs(1909);
    // The paper's favourable placement: every client beside the master.
    spec.client_placement = ClientPlacement::AllIn(DcId(0));
    let (report, stats) = run_megastore(&spec, catalog, &data, &mut micro_factory());
    assert_eq!(baseline_pin(&report), PINNED_MEGASTORE);
    assert_eq!(
        (stats.committed, stats.aborted),
        PINNED_MEGASTORE_MASTER,
        "(master commits, master aborts) over the whole run"
    );
}

// Produced by these tests at commit 5ce6974, before the four closed loops
// and the four runner scaffolds became one. Bytes re-pinned once, when
// the baselines' messages began to be sized field by field through the
// codec and its integers became varints: 715 139 / 506 473 / 95 204 →
// below. Records, commits, aborts, medians and frames did not move.
const PINNED_QW4: BaselinePin = (413, 413, 0, Some(174.651), 6_235, 303_200);
const PINNED_TPC: BaselinePin = (165, 109, 56, Some(513.704), 4_564, 210_626);
const PINNED_MEGASTORE: BaselinePin = (66, 66, 0, Some(1214.927), 1_018, 40_758);
const PINNED_MEGASTORE_MASTER: (u64, u64) = (82, 0);

// ---------------------------------------------------------------------
// Dynamic mastership. The only pinned run with the layer on: shifting
// locality under Multi-Paxos, two shards per data center, one data-center
// outage. Elections, renewals, access-driven handoffs, the outage's
// re-election and the lease-carried first touches all happen in it, so a
// change to `mdcc-mastership` that moves one send, one timer or one
// counter trips here.
// ---------------------------------------------------------------------

#[test]
fn mastership_report_is_pinned() {
    let s = SimDuration::from_secs;
    let mut spec = ClusterSpec {
        seed: 2207,
        dcs: 5,
        clients: 10,
        shards_per_dc: 2,
        net: NetKind::Uniform { rtt_ms: 100.0 },
        warmup: s(2),
        duration: s(12),
        drain: s(8),
        ..ClusterSpec::default()
    };
    spec.protocol.mastership = MastershipConfig::enabled();
    spec.faults = FaultPlan::new()
        .with(FaultEvent::FailDc {
            at: s(7),
            dc: DcId(1),
        })
        .with(FaultEvent::HealDc {
            at: s(9),
            dc: DcId(1),
        });
    let data: Vec<(Key, Row)> = (0..ITEMS)
        .map(|i| (item_key(i), Row::new().with(STOCK, 1_000_000)))
        .collect();
    let mut factory = |_c: usize, dc: DcId, placement: &Arc<mdcc_common::StaticPlacement>| {
        let p = Arc::clone(placement);
        let shards = p.shard_count();
        Box::new(ShiftingLocalityWorkload::new(ShiftingConfig {
            items: ITEMS,
            items_per_txn: 3,
            max_decrement: 3,
            commutative: true,
            my_dc: dc.0,
            shard_of: Arc::new(move |key: &Key| p.shard_id(key)),
            shards,
            phase_len: s(3),
        })) as Box<dyn Workload>
    };
    let (report, stats) = run_mdcc(&spec, micro_catalog(), &data, &mut factory, MdccMode::Multi);
    let audit = report.audit.as_ref().expect("mdcc runs audit the cluster");
    let ms = report.mastership;
    let mut spans = FNV1A64_OFFSET;
    for span in &report.lease_spans {
        for word in [
            u64::from(span.shard),
            u64::from(span.node.0),
            u64::from(span.ballot.n),
            span.ballot.pid,
            span.from.as_micros(),
            span.until.as_micros(),
        ] {
            spans = fnv1a64_extend(spans, &word.to_le_bytes());
        }
    }
    let observed = (
        report.write_commits(),
        [
            stats.committed,
            stats.aborted,
            stats.fast_commits,
            stats.collisions,
            stats.timeouts,
            stats.classic_redirects,
            stats.repair_pulls,
        ],
        [
            report.net.bytes_sent,
            report.net.msgs_sent,
            report.net.payload_msgs,
        ],
        [
            ms.elections,
            ms.leases_acquired,
            ms.renewals,
            ms.handoffs,
            ms.served,
            ms.forwarded,
            ms.phase1_skipped,
            ms.phase1_covered,
            ms.cold_first_commit_rtts,
        ],
        (report.lease_spans.len(), spans),
        audit.committed_digests.clone(),
    );
    let pinned = (
        PINNED_MS_WRITE_COMMITS,
        PINNED_MS_TXN_STATS,
        PINNED_MS_NET,
        PINNED_MS_COUNTERS,
        PINNED_MS_SPANS,
        PINNED_MS_COMMITTED_DIGESTS.to_vec(),
    );
    assert_eq!(
        observed, pinned,
        "(window commits, [committed, aborted, fast commits, collisions, timeouts, classic \
         redirects, repair pulls], [bytes, frames, payload msgs], [elections, leases acquired, \
         renewals, handoffs, served, forwarded, phase1 skipped, phase1 covered, cold first-commit \
         rtts], (lease spans, their fingerprint), per-node committed-state digests)"
    );
}

// Produced by this very test at commit f12196b, before `mdcc-mastership`
// was split into its election, lease and migration machines; re-pinned
// when the classic round stopped sending nodes what they cannot use,
// again when votes became verdicts, again when a transaction's outcome
// went once per storage node (every proposal of this run goes through a
// master, per record as before; only `Visibility` is grouped), and again
// when the lease holder began leading every record of its shard (no
// per-record override, no record forwarded off the holder). Every field
// moves each time, because the schedule does: window commits
// 585 → 583 → 537 → 538 → below; `TxnStats` [702, 0, 0, 13, 36, 0, 22] →
// [697, 0, 0, 17, 29, 0, 38] → [653, 0, 0, 15, 31, 0, 0] →
// [654, 0, 0, 19, 33, 0, 0] → below (the pulls were shadows out of step;
// commutative options need none); bytes / frames / payload messages
// 8 644 509 / 38 380 / 74 320 → 5 963 507 / 35 096 / 64 146 →
// 4 478 482 / 34 257 / 62 455 → 4 128 885 / 33 690 / 54 648 → below;
// the mastership counters [9, 9, 232, 6, 1 925, 308, 374, 73, 520] →
// [12, 11, 224, 7, 1 828, 299, 435, 68, 571] →
// [14, 13, 205, 8, 1 727, 334, 428, 23, 474] →
// [9, 8, 218, 4, 1 777, 227, 309, 57, 423] → below, the lease spans
// (9 → 11 → 13 → 8 → 13) and their fingerprint, and the ten digests
// with the schedule.
//
// Re-pinned once more when the codec's integers became varints (hashes
// excepted): every message is smaller, so every send leaves and is served
// sooner and the schedule moves again. Window commits 668 → below;
// `TxnStats` [784, 0, 0, 24, 20, 0, 0] → below; bytes / frames / payload
// messages 4 896 443 / 36 721 / 61 086 → below (bytes −59 %); counters
// [14, 13, 232, 9, 2 143, 322, 465, 66, 597] → below; spans 13 → 11.
// These window commits are this one schedule's, not a rate: `bench_all`
// `geo_failover` (the same layer, a 40 s window) reads `commit_tps` 389 →
// 385 at seed 11 and 391 → 392 as the median of ten more seeds.
const PINNED_MS_WRITE_COMMITS: usize = 530;
const PINNED_MS_TXN_STATS: [u64; 7] = [646, 0, 0, 10, 34, 0, 0];
const PINNED_MS_NET: [u64; 3] = [2_024_450, 33_970, 55_121];
const PINNED_MS_COUNTERS: [u64; 9] = [12, 11, 232, 8, 1_764, 335, 430, 44, 518];
const PINNED_MS_SPANS: (usize, u64) = (11, 4_248_629_722_228_771_592);
// Even nodes replicate shard 0, odd nodes shard 1. At the previous pin
// node 2 — the failed data center's shard-0 replica — was off its
// shard's digest, as at every pin before; at this one node 3, the failed
// data center's shard-1 replica, is off its shard's and node 2 on its
// own: records that committed while the data center was dark (ROADMAP
// item 1's healed replicas). That is this schedule, not a new cause:
// `bench_all` `geo_failover` ends with replicas off over ten seeds. The
// digests are FNV-1a over the committed state's encoding, so they change
// with the codec.
const PINNED_MS_COMMITTED_DIGESTS: [u64; 10] = [
    16_892_570_469_261_029_922,
    10_528_140_084_227_356_705,
    16_892_570_469_261_029_922,
    7_995_264_507_331_946_997,
    16_892_570_469_261_029_922,
    10_528_140_084_227_356_705,
    16_892_570_469_261_029_922,
    10_528_140_084_227_356_705,
    16_892_570_469_261_029_922,
    10_528_140_084_227_356_705,
];
