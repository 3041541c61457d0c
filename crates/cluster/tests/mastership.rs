//! Dynamic-mastership acceptance tests.
//!
//! The lease layer must be three things at once: *off* when disabled —
//! no counter moves and no lease is ever granted — *safe* when
//! enabled — at most one node serves a shard at any virtual instant,
//! across elections, crashes, partitions and heals — and *live* —
//! a crashed master's shard resumes committing within a lease expiry
//! plus an election round, because any replica can still lead
//! classically while the lease machinery converges.

use std::sync::Arc;

use mdcc_cluster::clients::ClosedLoop;
use mdcc_cluster::{
    micro_catalog, run_mdcc, ClientPlacement, ClusterSpec, FaultEvent, FaultPlan, MdccMode,
    NetKind, NodeRole, Report,
};
use mdcc_common::{
    DcId, Key, MasterPolicy, MastershipConfig, NodeId, Placement, ProtocolConfig, Row, SimDuration,
    SimTime, StaticPlacement,
};
use mdcc_core::{Msg, StorageNodeProcess, Tick, TmConfig, TransactionManager, TxnStats};
use mdcc_sim::{NetworkModel, World, WorldConfig};
use mdcc_storage::RecordStore;
use mdcc_trace::TraceConfig;
use mdcc_workloads::micro::{item_key, MicroConfig, MicroWorkload, STOCK};
use mdcc_workloads::{ShiftingConfig, ShiftingLocalityWorkload, Workload};
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

/// The classic path travels once per (transaction, node), as the fast
/// path does. Shifting locality over one shard: each transaction's three
/// records live on the same five nodes, so an attempt sends the believed
/// holder one `ProposeMastered` naming all three, a forward passes them
/// on as one, and a holder that leads them sends each replica one `P2a`
/// with the three rounds. The lease layer still counts options: each
/// one routed is served, forwarded or led unleased once per hop, and one
/// held for the lease a node is making is counted as awaited too.
#[test]
fn a_mastered_transaction_reaches_each_node_once() {
    let mut sp = spec(47);
    sp.protocol.mastership = MastershipConfig::enabled();
    // Until a coordinator learns the holder, it sends each option to
    // its record's static master: one data center masters every record,
    // so that is one node per attempt too.
    sp.master_policy = MasterPolicy::FixedDc(DcId(0));
    // Host profiling is what counts deliveries by kind; tracing observes
    // and changes nothing simulated.
    sp.trace = TraceConfig {
        profile: true,
        ..TraceConfig::on()
    };
    let data: Vec<(Key, Row)> = (0..ITEMS)
        .map(|i| (item_key(i), Row::new().with(STOCK, 1_000_000)))
        .collect();
    let mut factory = |_c: usize, dc: DcId, placement: &Arc<StaticPlacement>| {
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
            phase_len: SimDuration::from_secs(3),
        })) as Box<dyn Workload>
    };
    let (report, stats) = run_mdcc(&sp, micro_catalog(), &data, &mut factory, MdccMode::Multi);
    assert_healthy("mastered-once", &report);
    assert!(report.write_commits() > 100, "cluster barely committed");
    let delivered = |role, kind| -> u64 {
        let rows = report.profile_by_kind.iter();
        let rows = rows.filter(|row| row.role == role && row.kind == kind);
        rows.map(|row| row.msgs).sum()
    };
    let proposals = delivered(NodeRole::Storage, "ProposeMastered");
    let hints = delivered(NodeRole::Client, "MasterHint");
    let p2a = delivered(NodeRole::Storage, "P2a");
    let attempts = stats.committed + stats.aborted + stats.timeouts;
    let (nodes, ms) = (report.nodes, report.mastership);
    let routed = ms.served + ms.forwarded + ms.unleased;
    eprintln!(
        "{proposals} ProposeMastered for {attempts} attempts and {hints} forwards; \
         {p2a} P2a for {} rounds voted; {routed} options routed: {} served, \
         {} forwarded, {} with no lease known; {} held for a lease",
        nodes.classic_votes, ms.served, ms.forwarded, ms.unleased, ms.awaited
    );
    // One proposal per attempt, and one more per forward (each forward
    // also teaches the coordinator the route with one hint).
    assert!(
        proposals <= attempts + hints,
        "{proposals} ProposeMastered for {attempts} attempts and {hints} forwards"
    );
    assert!(
        p2a < nodes.classic_votes,
        "{p2a} P2a for {} rounds voted: a P2a carries the rounds of a handler",
        nodes.classic_votes
    );
    // Every option that arrived was served, forwarded or (in an election
    // window) led with no lease known, and counted once per option: more
    // options than proposals, as a proposal carries several. An option
    // held for a lease is released as one of the three, so it is counted
    // there as well.
    assert!(
        routed > proposals,
        "{routed} options counted for {proposals} proposals: a proposal carries options"
    );
    assert!(
        ms.awaited > 0 && ms.awaited < routed,
        "{} options held for a lease of {routed} routed: handoff targets hold some",
        ms.awaited
    );
    assert_eq!(nodes.stray_msgs, 0);
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

/// The records `node` holds in another node's ballot stream whose
/// cstruct differs from the one that stream's leader holds on its own
/// replica at the same instance and ballot: appends `node` missed.
fn missed_appends(world: &World<Msg, Tick>, node: NodeId) -> Vec<Key> {
    let held = |n: NodeId, key: &Key| {
        let proc_ = world.get::<StorageNodeProcess>(n).expect("a storage node");
        let state = |r: &mdcc_paxos::AcceptorRecord| {
            (r.version(), r.accepted_ballot(), r.cstruct().trace_digest())
        };
        proc_.store().with_record(key, state)
    };
    let proc_ = world
        .get::<StorageNodeProcess>(node)
        .expect("a storage node");
    let streams = proc_.store().led_elsewhere(node);
    let missed = streams.into_iter().filter(|(key, ballot)| {
        let (mine, leaders) = (held(node, key), held(ballot.proposer, key));
        let same_round = |a: &(_, _, u64), b: &(_, _, u64)| a.0 == b.0 && a.1 == b.1;
        matches!((mine, leaders), (Some(m), Some(l)) if same_round(&m, &l) && m.2 != l.2)
    });
    missed.map(|(key, _)| key).collect()
}

/// A data center dark for longer than a lease while a holder elsewhere
/// appends, then healed. Its replica is in the holder's streams and
/// missed appends there, which it would go on taking without a base
/// check; on the first mastership message after the heal it asks each
/// stream's leader for the instance so far, and within two round trips
/// it holds each such record's leader's cstruct. Only the healed
/// replica asks.
#[test]
fn a_replica_dark_for_longer_than_a_lease_asks_for_the_appends_it_missed() {
    let ms = SimTime::from_millis;
    let protocol = ProtocolConfig {
        mastership: MastershipConfig::enabled(),
        ..ProtocolConfig::default()
    };
    let matrix: Vec<Vec<NodeId>> = (0..5).map(|dc| vec![NodeId(dc)]).collect();
    let placement = StaticPlacement::new(matrix, MasterPolicy::FixedDc(DcId(0)));
    let net = NetworkModel::uniform(5, 100.0, 1.0);
    let config = WorldConfig {
        seed: 45,
        ..WorldConfig::default()
    };
    let mut world: World<Msg, Tick> = World::new(net, config);
    for dc in 0..5 {
        let mut store = RecordStore::new(protocol.clone(), micro_catalog());
        for i in 0..ITEMS {
            store.load(item_key(i), Row::new().with(STOCK, 1_000_000));
        }
        let node = StorageNodeProcess::new(protocol.clone(), store, placement.clone(), false);
        world.spawn(DcId(dc), Box::new(node));
    }
    // Every client is in data center 0 and stops issuing at 4 s.
    for _ in 0..6 {
        let cfg = TmConfig {
            protocol: protocol.clone(),
            my_dc: DcId(0),
            assume_classic: true,
        };
        let tm = TransactionManager::new(cfg, placement.clone());
        let workload = MicroWorkload::new(MicroConfig {
            items: ITEMS,
            ..MicroConfig::default()
        });
        let client = ClosedLoop::new(tm, Box::new(workload), Some(ms(4_000)));
        world.spawn(DcId(0), Box::new(client));
    }
    let dark = NodeId(1);
    world.run_until(ms(3_000));
    world.fail_dc(DcId(1));
    world.run_until(ms(4_600));
    let missed = missed_appends(&world, dark);
    assert!(missed.len() >= 5, "node 1 missed too little: {missed:?}");

    world.heal_dc(DcId(1));
    world.run_until(ms(4_800));
    let left = missed_appends(&world, dark);
    let (left, of) = (left.len(), missed.len());
    assert_eq!(left, 0, "{left} of {of} records still miss appends");
    let asks = |n: u32| {
        let proc_ = world.get::<StorageNodeProcess>(NodeId(n));
        proc_.expect("a storage node").stats().rejoin_asks
    };
    assert!(asks(1) >= missed.len() as u64, "{} asks", asks(1));
    for n in [0, 2, 3, 4] {
        assert_eq!(asks(n), 0, "node {n} was never cut off");
    }
}

/// With mastership off there is no silence to measure: an outage and a
/// heal make no node ask.
#[test]
fn without_mastership_an_outage_asks_nothing() {
    let s = SimDuration::from_secs;
    let mut sp = spec(46);
    sp.faults = FaultPlan::new()
        .with(FaultEvent::FailDc {
            at: s(4),
            dc: DcId(1),
        })
        .with(FaultEvent::HealDc {
            at: s(7),
            dc: DcId(1),
        });
    let (report, _) = run(&sp);
    assert_healthy("outage, mastership off", &report);
    assert_eq!(report.nodes.rejoin_asks, 0);
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
