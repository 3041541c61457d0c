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
//! constants); the last three move the schedule. Later re-pins are
//! listed beside the constants.

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
// The sixth: a `P2a` carries every round its sender's leaders emit in one
// handler for the destination, each write-set once and no option key,
// and a proposal to a master is a `Proposal`. Only bytes moved (the
// run's collision recoveries send smaller rounds): every other field,
// frames and payload messages included, is as it was. The seventh: a
// node's verdicts on one transaction's records travel to its coordinator
// as one `Verdict`, each record named by write-set position, and an
// entry whose transaction the coordinator no longer runs is dropped.
// Those entries were what told a transaction that acceptors lacked its
// option before its own proposal had reached them, so the collisions
// they raised go: 611 / 720 / 1 / 625 / 21 / 0 became 619 / 726 / 1 /
// 724 / 0 / 0, frames 15 911 → 14 886, payload messages 25 895 →
// 14 909. All five replicas still end on one digest, a different one
// (the schedule moved). The eighth: a `Visibility` names a node's records
// by write-set position where the coordinator holds an accepted letter
// from it, and a positional `Verdict` entry whose only letter is its
// message's transaction's writes that letter without the transaction.
// Only bytes moved (594 387 → below, −12.4 %); every other field is as
// it was. The ninth: Phase 1 ships a cstruct only to or from a replica
// that lacks it — a `P1a` names the leader's instance and cstruct digest,
// a `P1b` leaves out what that names, and the recovery round names its
// base by digest to the promisers that hold it. Only bytes moved
// (520 928 → below: this run's few Phase 1 rounds); every other field is
// as it was.
const PINNED_WRITE_COMMITS: usize = 619;
const PINNED_COMMITTED: u64 = 726;
const PINNED_ABORTED: u64 = 1;
const PINNED_FAST_COMMITS: u64 = 724;
const PINNED_COLLISIONS: u64 = 0;
const PINNED_REPAIR_PULLS: u64 = 0;
// 7 291 205 until votes started at the settled watermark, 3 704 865
// until they became verdicts, 2 290 924 until proposals and outcomes
// went once per storage node, 1 753 955 until integers became varints,
// 745 881 until a `P2a` named each write-set once, 744 247 until a
// node's verdicts to a coordinator went once per transaction, 594 387
// until outcomes named records by position and anchor letters dropped
// their transaction, 520 928 until Phase 1 left out what the receiver
// holds.
const PINNED_BYTES_SENT: u64 = 519_635;
const PINNED_MSGS_SENT: u64 = 14_886;
const PINNED_PAYLOAD_MSGS: u64 = 14_909;
const PINNED_COMMITTED_DIGESTS: [u64; 5] = [6_803_208_775_975_891_600; 5];

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
// and the four runner scaffolds became one. Bytes re-pinned twice: when
// the baselines' messages began to be sized field by field through the
// codec and its integers became varints (715 139 / 506 473 / 95 204),
// and when a client's read began to ask each replica once for all its
// keys and the reply to carry rows without keys (303 200 / 210 626 /
// 40 758 → below). Records, commits, aborts, medians and frames did not
// move either time.
const PINNED_QW4: BaselinePin = (413, 413, 0, Some(174.651), 6_235, 286_866);
const PINNED_TPC: BaselinePin = (165, 109, 56, Some(513.704), 4_564, 204_052);
const PINNED_MEGASTORE: BaselinePin = (66, 66, 0, Some(1214.927), 1_018, 37_883);
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
    // Every recovery base named by digest was put back where it landed.
    assert_eq!(report.nodes.unresolved_bases, 0);
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
            ms.awaited,
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
         renewals, handoffs, served, forwarded, awaited, phase1 skipped, phase1 covered, cold \
         first-commit rtts], (lease spans, their fingerprint), per-node committed-state digests)"
    );
}

// Produced by this very test at commit f12196b, before `mdcc-mastership`
// was split into its election, lease and migration machines; re-pinned
// when the classic round stopped sending nodes what they cannot use,
// again when votes became verdicts, again when a transaction's outcome
// went once per storage node (only `Visibility` was grouped then: every
// proposal of this run goes through a master, and those went per
// record until the classic path was grouped too, below), and again
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
//
// Re-pinned when the classic path began to travel once per
// (transaction, node): a coordinator sends each node it routes options
// to (the believed holder, else each record's static master) one
// `ProposeMastered` for all of them, a forward passes a shard's options
// on as one, and a `P2a` carries every round a node's leaders emit in
// one handler for the destination, each write-set once and no option
// key. Window commits 530 → below; `TxnStats` [646, 0, 0, 10, 34, 0, 0]
// → below; bytes / frames / payload messages 2 024 450 / 33 970 /
// 55 121 → below (bytes per window commit −22 %); counters
// [12, 11, 232, 8, 1 764, 335, 430, 44, 518] → below (served and
// forwarded still count options, not messages); spans 11 → 9. As
// before, these window commits are this schedule's, not a rate: on
// `bench_all` `geo_failover` `commit_tps` moved +1 % at seed 11.
//
// Re-pinned when a node's verdicts on one transaction's records began to
// travel to its coordinator as one `Verdict`, each record named by
// write-set position, an entry whose transaction the coordinator no
// longer runs dropped. The collisions such entries raised go (38 → 0),
// and the schedule moves with them: window commits 680 → below;
// `TxnStats` [796, 0, 0, 38, 20, 0, 0] → below; bytes / frames / payload
// messages 2 019 014 / 37 083 / 52 347 → below; counters
// [10, 9, 233, 7, 2 127, 270, 410, 62, 534] → below; spans 9 → 11.
//
// Re-pinned when a lease holder began to count every grant of its ballot,
// whichever renewal it answers, a replica stopped probing while it knew
// of a lease outliving its next two ticks, and a node's route for a shard
// became the best lease it knows of, its own grant table included. At a
// 100 ms round trip the old rule lost a renewal whenever its grants came
// back after the next tick: renewals 219 → 389. Heartbeat rounds all but
// stop while leases are held: frames 36 352 → 21 622, bytes 1 852 968 →
// 1 414 690. The schedule moves with them: window commits 649 → below,
// `TxnStats` [766, 0, 0, 0, 25, 0, 0] → below, counters
// [12, 11, 219, 8, 2 003, 309, 410, 61, 532] → below, spans 11 → 12.
// This short run after its outage commits less (twenty seeds of it:
// 13 282 → 12 610 window commits, learn timeouts 384 → 544, every one
// of them in or after the outage; without the outage 16 510 → 16 824
// and none); on `bench_all` `geo_failover` `commit_tps` rose 391 → 412
// (median of twenty seeds).
//
// Re-pinned when a sync that settles one record of a transaction stopped
// dropping the transaction's pending entry while another record here
// still holds its option open, and when outcomes began to name records
// by write-set position and anchor letters to drop their transaction.
// The first alone moved the schedule: node 2, the failed data center's
// replica of shard 0, kept a transaction pending that it used to lose
// to a sync, and ends on its shard's digest; frames / payload messages
// 21 622 / 23 336 → below, bytes 1 414 690 → 1 403 733, the lease spans'
// fingerprint moved; window commits, `TxnStats` and every mastership
// counter did not. The layouts alone move only bytes: 1 403 733 → below.
// (A candidate that no longer campaigns over its own pending acquisition,
// from the same change, moves nothing here.)
//
// Re-pinned when every classic send of a transaction manager and of a
// dangling recovery began to follow one route rule
// (`mdcc_core::coordination::classic_target`): with mastership on, a
// `StartRecovery` after a collision or a full instance and a re-routed
// option go to the lease holder the sender believes in (they went to the
// static master, or to a `NotFast` ballot's proposer as a
// `ProposeToMaster`), and a learn timeout's `StartRecovery` goes where
// its retried proposal goes. The schedule moves with them: window commits
// 595 → below; `TxnStats` [710, 0, 0, 0, 28, 0, 0] → below; bytes /
// frames / payload messages 1 343 741 / 21 524 / 23 185 → below;
// counters [13, 12, 389, 8, 2 032, 251, 431, 49, 529] → below; the lease
// spans' fingerprint and the digests moved, every replica still on its
// shard's digest.
//
// Re-pinned when a `SyncRangePull` range began to name the puller's held
// record digests: a missed-commit pull names none, and the empty list's
// count is one byte, so bytes 1 478 679 → below (36 pulls); nothing else
// moved.
//
// Re-pinned when a node making a shard's lease began to hold the mastered
// options it gets for the shard, held for the lease, until it serves
// (then they go out at the lease ballot with no Phase 1), instead of
// leading them unleased with a Phase 1 of their own. The counters gain
// `awaited` (78 options held): of the 128 options led unleased, 47 are
// left, and a held option counts again as served, forwarded or unleased
// when it is released. The schedule moves with it: window commits 634 →
// below; `TxnStats` [749, 0, 0, 0, 25, 0, 0] → below; bytes / frames /
// payload messages 1 478 715 / 21 855 / 24 536 → below; counters [13,
// 12, 388, 8, 2 128, 279, 466, 54, 574] → below (without `awaited`);
// spans 12 → 10, the fingerprint and the digests moved, every replica
// still on its shard's digest. Most of the bytes are dangling-recovery
// status queries after the outage (`StatusResp` 120 → 1 065 messages,
// 47 696 → 285 174 B): this short run swings that way either way from
// seed to seed (at seeds 1–5 of this configuration bytes per window
// commit rose at two and fell at three).
//
// Re-pinned when Phase 1 began to ship a cstruct only to or from a
// replica that lacks it: a `P1a` names the leader's instance and cstruct
// digest, a `P1b` leaves out what that names (its committed value too
// unless newer), and the recovery round carries the representative of
// its proved-safe cstruct the promisers hold, named by digest to those
// that hold it exactly. Only bytes moved (1 794 215 → below, −9.6 %);
// every other field is as it was. (A first version asked for the whole
// round when a named base it could not put back arrived below the
// promise, instead of Nacking it as it would be Nacked whole; that one
// extra round trip at 8.96 s moved every field.)
//
// Re-pinned when a relinquishing holder began running its successor's
// acquisition: it grants the target's ballot itself and sends every
// replica a `Handoff` carrying the target's lease end, which each answers
// to the target as it would the target's own `Acquire`, so the grants
// reach a handoff target half a round trip sooner. The schedule moves
// with it: window commits 662 → below; `TxnStats` [785, 0, 0, 0, 29, 0,
// 0] → below; bytes / frames / payload messages 1 621 404 / 22 417 /
// 26 812 → below; counters [11, 10, 401, 7, 2 346, 277, 78, 478, 90,
// 658] → below (48 options held instead of 78, 51 Phase 1s under a
// lease instead of 90); spans 10 → 12, the fingerprint and the digests
// moved, every replica still on its shard's digest.
//
// Re-pinned when a replica cut off for longer than a lease began to ask,
// on the first mastership message after the silence, the leader of each
// ballot stream it is in for the instance so far (`P2aBehind`). The two
// replicas of the data center dark from 7 s to 9 s ask about 44 records
// at the heal; where the leader has moved on it answers with the
// record's committed state (sync items received 36 → 65). The schedule
// moves with it: window commits 677 → below; `TxnStats` [801, 0, 0, 0,
// 23, 0, 0] → below; bytes / frames / payload messages 1 226 368 /
// 22 259 / 24 187 → below (+2.4 % bytes in this short run); counters
// [13, 12, 393, 8, 2 363, 269, 48, 550, 51, 652] → below; the lease
// spans' fingerprint and the digests moved, every replica still on its
// shard's digest.
const PINNED_MS_WRITE_COMMITS: usize = 676;
const PINNED_MS_TXN_STATS: [u64; 7] = [800, 0, 0, 0, 23, 0, 0];
const PINNED_MS_NET: [u64; 3] = [1_255_346, 22_204, 24_305];
const PINNED_MS_COUNTERS: [u64; 10] = [13, 12, 390, 8, 2_360, 276, 54, 540, 55, 650];
const PINNED_MS_SPANS: (usize, u64) = (12, 17_421_936_000_884_027_299);
// Even nodes replicate shard 0, odd nodes shard 1. At this pin and the
// five before every replica is on its shard's digest. At the pin before
// that node 2, the failed data center's replica of shard 0, was off its
// shard's digest.
// At the pin before that every replica was on its shard's digest; at the one
// before that nodes 2 and 3 — the failed data center's replicas of shard
// 0 and shard 1 — were each off their shard's digest; at the one before
// that only node 3 was, at every pin before that only node 2: records
// that committed while the
// data center was dark (ROADMAP item 1's healed replicas). Which replicas
// end off is this schedule's, not a cause fixed or added: `bench_all`
// `geo_failover` ends with replicas off over ten seeds. The digests are
// FNV-1a over the committed state's encoding, so they change with the
// codec.
const PINNED_MS_COMMITTED_DIGESTS: [u64; 10] = [
    5_118_977_259_052_070_905,
    7_285_140_648_376_071_341,
    5_118_977_259_052_070_905,
    7_285_140_648_376_071_341,
    5_118_977_259_052_070_905,
    7_285_140_648_376_071_341,
    5_118_977_259_052_070_905,
    7_285_140_648_376_071_341,
    5_118_977_259_052_070_905,
    7_285_140_648_376_071_341,
];
