//! Dynamic-mastership acceptance tests.
//!
//! The lease layer must be three things at once: *off* when disabled —
//! no counter moves and no lease is ever granted — *safe* when
//! enabled — at most one node serves a shard at any virtual instant,
//! across elections, crashes, partitions and heals — and *live* —
//! a crashed master's shard resumes committing within a lease expiry
//! plus an election round, because any replica can still lead
//! classically while the lease machinery converges.

use mdcc_cluster::{
    micro_catalog, run_mdcc, ClientPlacement, ClusterSpec, FaultEvent, FaultPlan, MdccMode,
    NetKind, Report,
};
use mdcc_common::{DcId, Key, MastershipConfig, Row, SimDuration, SimTime};
use mdcc_core::TxnStats;
use mdcc_workloads::micro::{item_key, MicroConfig, MicroWorkload, STOCK};
use mdcc_workloads::Workload;
use proptest::prelude::*;

const ITEMS: u64 = 120;

/// A Multi-Paxos deployment (every proposal goes through a master —
/// the mode mastership exists for), five DCs, one shard.
fn spec(seed: u64) -> ClusterSpec {
    let s = SimDuration::from_secs;
    ClusterSpec {
        seed,
        dcs: 5,
        shards_per_dc: 1,
        clients: 10,
        net: NetKind::Uniform { rtt_ms: 100.0 },
        warmup: s(2),
        duration: s(10),
        drain: s(8),
        ..ClusterSpec::default()
    }
}

fn run(spec: &ClusterSpec) -> (Report, TxnStats) {
    let data: Vec<(Key, Row)> = (0..ITEMS)
        .map(|i| (item_key(i), Row::new().with(STOCK, 1_000_000)))
        .collect();
    let mut factory = |_c: usize, _dc: DcId, _p: &_| -> Box<dyn Workload> {
        Box::new(MicroWorkload::new(MicroConfig {
            items: ITEMS,
            ..MicroConfig::default()
        }))
    };
    run_mdcc(spec, micro_catalog(), &data, &mut factory, MdccMode::Multi)
}

fn assert_healthy(label: &str, report: &Report) {
    let audit = report.audit.as_ref().expect("mdcc runs audit the cluster");
    assert_eq!(audit.pending_options, 0, "{label}: options left dangling");
    assert_eq!(audit.stuck_clients, 0, "{label}: clients left stuck");
    let min_stock = audit.min_of("stock").expect("stock audited");
    assert!(min_stock >= 0, "{label}: stock constraint violated");
}

/// The no-two-masters audit: within each shard, tenures of different
/// holders must not overlap in virtual time. (One holder may appear in
/// several spans — one per ballot — and renewals extend a span, so only
/// cross-node overlap is a safety violation.)
fn assert_no_overlapping_leases(label: &str, report: &Report) {
    let spans = &report.lease_spans;
    for (i, a) in spans.iter().enumerate() {
        for b in &spans[i + 1..] {
            if a.shard != b.shard || a.node == b.node {
                continue;
            }
            let disjoint = a.until <= b.from || b.until <= a.from;
            assert!(
                disjoint,
                "{label}: shard {} served by {:?} ({:?}) over [{:?}, {:?}) \
                 and {:?} ({:?}) over [{:?}, {:?}) — overlapping masters",
                a.shard, a.node, a.ballot, a.from, a.until, b.node, b.ballot, b.from, b.until,
            );
        }
    }
}

/// The off-switch contract: with `mastership.enabled = false` (the
/// default) no lease state ever materializes — every counter of the
/// layer stays zero and the lease audit sees no tenure. (The timing and
/// hysteresis values are constants of `mdcc-mastership`; there is
/// nothing else to switch.)
#[test]
fn disabled_mastership_knobs_are_byte_inert() {
    let base = spec(41);
    assert!(
        !base.protocol.mastership.enabled,
        "mastership is off by default"
    );
    let (a, _) = run(&base);
    assert_healthy("mastership-off", &a);
    assert_eq!(
        a.mastership,
        Default::default(),
        "mastership counters moved while disabled"
    );
    assert!(a.lease_spans.is_empty(), "leases granted while disabled");
}

/// The enabled smoke: leases are acquired and renewed, mastered traffic
/// is actually served under them, and no two nodes ever hold a shard's
/// lease at once.
#[test]
fn leases_cover_writes_and_never_overlap() {
    let mut s = spec(42);
    s.protocol.mastership = MastershipConfig::enabled();
    let (report, _) = run(&s);
    assert_healthy("mastership-on", &report);
    assert!(report.write_commits() > 100, "cluster barely committed");
    let ms = &report.mastership;
    assert!(ms.elections > 0, "no election ever ran");
    assert!(ms.leases_acquired > 0, "no lease ever granted");
    assert!(ms.renewals > 0, "no lease ever renewed by heartbeat");
    assert!(ms.served > 0, "no proposal served under a lease");
    assert!(!report.lease_spans.is_empty(), "audit saw no tenures");
    assert_no_overlapping_leases("mastership-on", &report);
}

/// Lease-carried Phase1 in action: first-touch mastered commits skip
/// the per-record Phase1 exchange entirely — the granted lease ballot
/// already is the promise floor — no two nodes ever hold a shard's lease
/// at once, and every replica still converges to byte-equal committed
/// state.
#[test]
fn lease_phase1_skips_cold_phase1_and_stays_byte_equal() {
    let mut s = spec(45);
    s.protocol.mastership = MastershipConfig::enabled();
    let (report, _) = run(&s);
    assert_healthy("lease-phase1", &report);
    assert_no_overlapping_leases("lease-phase1", &report);
    assert!(
        report.mastership.phase1_skipped > 0,
        "no first-touch mastered commit ever skipped Phase1"
    );
    let digests = &report.audit.as_ref().expect("audited").committed_digests;
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "replicas diverged under Phase1-less lease takeover"
    );
}

/// The warm twin: the election is Phase 1 for records the predecessor
/// wrote, too. Every client sits in one data center, away from the
/// initial holder, so the records are written under holder A until the
/// lease migrates to the clients' replica B — and B's first touch of a
/// record that is warm under A's ballot goes out at B's lease ballot,
/// naming the cstruct it extends, with no Phase1a round before it. A
/// few records still pay one (an append of A's was in flight when B
/// touched them: some replica held a different cstruct and said so);
/// every replica converges to byte-equal committed state.
#[test]
fn lease_phase1_skips_warm_phase1_and_stays_byte_equal() {
    let away = DcId((initial_holder_dc(46).0 + 1) % 5);
    let mut s = spec(46);
    s.client_placement = ClientPlacement::AllIn(away);
    s.protocol.mastership = MastershipConfig::enabled();
    let (report, _) = run(&s);
    assert_healthy("warm-handoff", &report);
    assert_no_overlapping_leases("warm-handoff", &report);
    let ms = &report.mastership;
    assert!(ms.handoffs >= 1, "the lease never followed the clients");
    let holders: std::collections::HashSet<_> = report.lease_spans.iter().map(|l| l.node).collect();
    assert!(
        holders.len() >= 2,
        "one holder only: nothing was handed off"
    );
    let (skipped, covered) = (ms.phase1_skipped, ms.phase1_covered);
    assert!(
        skipped > ITEMS / 2,
        "the successor first-touched only {skipped} of {ITEMS} warm records without Phase 1"
    );
    assert!(
        covered * 4 <= skipped + covered,
        "{covered} of {} first touches under a lease still ran a Phase 1 round",
        skipped + covered
    );
    let digests = &report.audit.as_ref().expect("audited").committed_digests;
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "replicas diverged under a Phase1-less warm lease takeover"
    );
}

/// The data center whose storage node wins the initial election under
/// `spec(seed)`, found by a short fault-free probe run. Deterministic:
/// the faulted runs below share every event with the probe up to their
/// first fault, so the probe's winner is their pre-fault holder.
fn initial_holder_dc(seed: u64) -> DcId {
    let s = SimDuration::from_secs;
    let mut sp = spec(seed);
    sp.duration = s(2);
    sp.drain = s(2);
    sp.protocol.mastership = MastershipConfig::enabled();
    let (report, _) = run(&sp);
    let span = report.lease_spans.first().expect("a lease was granted");
    // Storage ids are dc-major (`id = dc * shards + shard`); one shard
    // per DC here, so the node id is the DC.
    DcId(span.node.0 as u8)
}

/// Crash the initial lease holder mid-tenure. The successor must wait
/// out the orphaned lease, win an election, and the shard must be
/// committing again within a lease expiry plus an election round —
/// while the lease-uniqueness audit stays clean through the restart
/// (the revived node is quarantined, its volatile grant table having
/// died with it).
#[test]
fn master_crash_resumes_writes_within_a_lease_and_an_election() {
    let s = SimDuration::from_secs;
    let crash_at = s(6);
    let victim = initial_holder_dc(43);
    let mut sp = spec(43);
    sp.durability = true;
    sp.drain = s(12);
    sp.protocol.mastership = MastershipConfig::enabled();
    sp.faults = FaultPlan::new().crash_restart(victim, 0, crash_at, s(5));
    let (report, _) = run(&sp);
    assert_eq!(report.recoveries.len(), 1, "the restart ran");
    assert_healthy("master-crash", &report);
    assert_no_overlapping_leases("master-crash", &report);
    assert!(
        report
            .lease_spans
            .iter()
            .any(|l| l.from > SimTime::ZERO + crash_at),
        "no successor tenure after the crash"
    );

    // Liveness: the longest commit outage around the crash is bounded
    // by the orphaned lease running out plus one election round plus a
    // WAN round trip of slack (classic fallback keeps serving even
    // sooner; the lease bound is the worst case).
    let bound = mdcc_mastership::LEASE_DURATION
        + mdcc_mastership::HEARTBEAT_INTERVAL
        + SimDuration::from_millis(300);
    let mut commits: Vec<SimTime> = report
        .records
        .iter()
        .filter(|r| r.committed && r.is_write)
        .map(|r| r.finished)
        .collect();
    commits.sort();
    assert!(!commits.is_empty(), "no write ever committed");
    let crash = SimTime::ZERO + crash_at;
    let last_before = commits.iter().rev().find(|t| **t <= crash);
    let first_after = commits.iter().find(|t| **t > crash);
    let (Some(before), Some(after)) = (last_before, first_after) else {
        panic!("commits missing on one side of the crash");
    };
    let gap = *after - *before;
    assert!(
        gap <= bound,
        "writes took {gap:?} to resume after the master crash (bound {bound:?})"
    );
}

/// Partition the lease holder's whole data center away, then heal it.
/// The surviving majority elects a new master (the partitioned one is
/// no longer majority-connected, so it stops campaigning), commits keep
/// flowing, and after the heal the old holder rejoins without ever
/// having served past its expiry.
#[test]
fn partition_then_heal_keeps_exactly_one_master() {
    let s = SimDuration::from_secs;
    let victim = initial_holder_dc(44);
    let mut sp = spec(44);
    sp.drain = s(12);
    sp.protocol.mastership = MastershipConfig::enabled();
    sp.faults = FaultPlan::new()
        .with(FaultEvent::FailDc {
            at: s(6),
            dc: victim,
        })
        .with(FaultEvent::HealDc {
            at: s(10),
            dc: victim,
        });
    let (report, _) = run(&sp);
    assert_healthy("partition-heal", &report);
    assert_no_overlapping_leases("partition-heal", &report);
    assert!(
        report.write_commits() > 100,
        "commits stalled through the outage"
    );
    assert!(
        report.mastership.elections >= 2,
        "the survivors never re-elected during the outage"
    );
    let nodes: std::collections::HashSet<_> = report.lease_spans.iter().map(|l| l.node).collect();
    assert!(
        nodes.len() >= 2,
        "the lease never moved off the partitioned holder"
    );
    // Every proposal of this run went through a master, the outage and
    // the handoffs included, and no storage node was sent a message it
    // drops: a classic vote goes to the coordinators, not to the master.
    assert!(report.nodes.classic_votes > 1_000);
    assert_eq!(report.nodes.stray_msgs, 0, "messages sent to be discarded");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Lease uniqueness is seed- and fault-schedule-independent: across
    /// random seeds and random crash/restart schedules (any replica,
    /// any time, including expiry-during-crash windows), no two nodes
    /// ever hold the same shard's lease in overlapping virtual-time
    /// windows, and the cluster still converges healthy.
    #[test]
    fn lease_uniqueness_survives_any_crash_schedule(
        seed in 0u64..1_000,
        victim in 0u8..5,
        crash_ms in 3_000u64..9_000,
        down_ms in 200u64..6_000,
    ) {
        let s = SimDuration::from_secs;
        let mut sp = spec(seed);
        sp.durability = true;
        sp.duration = s(8);
        sp.drain = s(12);
        sp.protocol.mastership = MastershipConfig::enabled();
        sp.faults = FaultPlan::new().crash_restart(
            DcId(victim),
            0,
            SimDuration::from_millis(crash_ms),
            SimDuration::from_millis(down_ms),
        );
        let (report, _) = run(&sp);
        prop_assert_eq!(report.recoveries.len(), 1, "the restart ran");
        assert_healthy("prop-crash", &report);
        assert_no_overlapping_leases("prop-crash", &report);
        prop_assert!(report.write_commits() > 50, "cluster barely committed");
    }
}
