//! End-to-end protocol tests: full MDCC commits across a simulated
//! five-data-center deployment.

use std::sync::Arc;

use mdcc_common::{
    CommutativeUpdate, DcId, Key, MastershipConfig, NodeId, PhysicalUpdate, ProtocolConfig,
    RecordUpdate, Row, SimDuration, SimTime, TableId, UpdateOp, Version,
};
use mdcc_core::placement::MasterPolicy;
use mdcc_core::placement::Placement;
use mdcc_core::{
    MdccCtx, Msg, StaticPlacement, StorageNodeProcess, Tick, TmConfig, TmEvent, TransactionManager,
    TxnCompletion,
};
use mdcc_mastership::LeaseAudit;
use mdcc_paxos::{AttrConstraint, Ballot, TxnOutcome};
use mdcc_sim::{NetworkModel, Process, World, WorldConfig};
use mdcc_storage::{Catalog, RecordStore, TableSchema};

const ITEMS: TableId = TableId(1);

fn key(pk: &str) -> Key {
    Key::new(ITEMS, pk)
}

fn catalog() -> Arc<Catalog> {
    Arc::new(Catalog::new().with(
        TableSchema::new(ITEMS, "item").with_constraint(AttrConstraint::at_least("stock", 0)),
    ))
}

/// A scripted client: runs its transactions one after another and records
/// completions. With a `pause`, it holds the plan's transaction at that
/// index until the given time, on a `ClientTick`.
struct TestClient {
    tm: TransactionManager,
    plan: Vec<Vec<RecordUpdate>>,
    next: usize,
    pause: Option<(usize, SimTime)>,
    completions: Vec<TxnCompletion>,
}

impl TestClient {
    fn new(cfg: TmConfig, placement: Arc<StaticPlacement>, plan: Vec<Vec<RecordUpdate>>) -> Self {
        Self {
            tm: TransactionManager::new(cfg, placement),
            plan,
            next: 0,
            pause: None,
            completions: Vec::new(),
        }
    }

    fn issue_next(&mut self, ctx: &mut MdccCtx<'_>) {
        if self.next >= self.plan.len() {
            return;
        }
        if let Some((at, until)) = self.pause {
            if at == self.next && ctx.now < until {
                self.pause = None;
                ctx.set_timer(until - ctx.now, Tick::ClientTick);
                return;
            }
        }
        let updates = self.plan[self.next].clone();
        self.next += 1;
        let (_, done) = self.tm.commit(updates, ctx);
        if let Some(done) = done {
            self.completions.push(done);
            self.issue_next(ctx);
        }
    }

    fn handle(&mut self, events: Vec<TmEvent>, ctx: &mut MdccCtx<'_>) {
        for e in events {
            if let TmEvent::Completed(c) = e {
                self.completions.push(c);
                self.issue_next(ctx);
            }
        }
    }
}

impl Process<Msg, Tick> for TestClient {
    fn on_start(&mut self, ctx: &mut MdccCtx<'_>) {
        self.issue_next(ctx);
    }
    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut MdccCtx<'_>) {
        let events = self.tm.on_message(from, msg, ctx);
        self.handle(events, ctx);
    }
    fn on_timer(&mut self, tick: Tick, ctx: &mut MdccCtx<'_>) {
        if let Tick::ClientTick = tick {
            return self.issue_next(ctx);
        }
        self.tm.on_timer(tick, ctx);
    }
}

/// Five DCs, one storage node each, uniform 100 ms inter-DC RTT.
struct TestCluster {
    world: World<Msg, Tick>,
    storage: Vec<NodeId>,
    placement: Arc<StaticPlacement>,
}

fn build_cluster(seed: u64, master_policy: MasterPolicy) -> TestCluster {
    let net = NetworkModel::uniform(5, 100.0, 1.0).with_jitter(0.0);
    build_cluster_with(seed, master_policy, net, ProtocolConfig::default(), None)
}

/// [`build_cluster`] over `net` under `protocol`. With a lease `audit`
/// the nodes run the *Multi* configuration (masters never hand records
/// back to fast ballots) and report their lease tenures to it.
fn build_cluster_with(
    seed: u64,
    master_policy: MasterPolicy,
    net: NetworkModel,
    protocol: ProtocolConfig,
    audit: Option<&LeaseAudit>,
) -> TestCluster {
    let mut world = World::new(
        net,
        WorldConfig {
            seed,
            service_time: SimDuration::from_micros(10),
            service_ns_per_byte: 0,
            ..WorldConfig::default()
        },
    );
    // Storage node ids are assigned in spawn order: 0..5.
    let storage: Vec<NodeId> = (0..5).map(NodeId).collect();
    let matrix: Vec<Vec<NodeId>> = storage.iter().map(|n| vec![*n]).collect();
    let placement = StaticPlacement::new(matrix, master_policy);
    for dc in 0..5u8 {
        let store = RecordStore::new(protocol.clone(), catalog());
        let mut node = StorageNodeProcess::new(
            protocol.clone(),
            store,
            placement.clone() as Arc<dyn Placement>,
            audit.is_none(),
        );
        if let Some(audit) = audit {
            node.set_lease_audit(audit.clone());
        }
        let id = world.spawn(DcId(dc), Box::new(node));
        assert_eq!(id, storage[dc as usize]);
    }
    TestCluster {
        world,
        storage,
        placement,
    }
}

fn load_everywhere(cluster: &mut TestCluster, key: Key, row: Row) {
    for &node in &cluster.storage {
        cluster
            .world
            .get_mut::<StorageNodeProcess>(node)
            .unwrap()
            .store_mut()
            .load(key.clone(), row.clone());
    }
}

fn spawn_client(cluster: &mut TestCluster, dc: u8, plan: Vec<Vec<RecordUpdate>>) -> NodeId {
    let cfg = TmConfig {
        protocol: ProtocolConfig::default(),
        my_dc: DcId(dc),
        assume_classic: false,
    };
    let client = TestClient::new(cfg, cluster.placement.clone(), plan);
    cluster.world.spawn(DcId(dc), Box::new(client))
}

fn stock_at(cluster: &World<Msg, Tick>, node: NodeId, key: &Key) -> Option<i64> {
    cluster
        .get::<StorageNodeProcess>(node)
        .unwrap()
        .store()
        .read_committed(key)
        .map(|(_, row)| row.get_int("stock").unwrap())
}

fn decrement(key: Key, by: i64) -> RecordUpdate {
    RecordUpdate::new(
        key,
        UpdateOp::Commutative(CommutativeUpdate::delta("stock", -by)),
    )
}

#[test]
fn single_commutative_txn_commits_in_one_fast_round() {
    let mut c = build_cluster(1, MasterPolicy::HashedPerRecord);
    load_everywhere(&mut c, key("i1"), Row::new().with("stock", 10));
    let client = spawn_client(&mut c, 0, vec![vec![decrement(key("i1"), 3)]]);
    c.world.run_for(SimDuration::from_secs(10));
    let completions = &c.world.get::<TestClient>(client).unwrap().completions;
    assert_eq!(completions.len(), 1);
    let done = &completions[0];
    assert_eq!(done.outcome, TxnOutcome::Committed);
    assert!(done.fast_path, "no master involved");
    // One wide-area round trip: ~100 ms plus intra-DC chatter.
    let latency = (done.finished - done.started).as_millis();
    assert!(
        (95..160).contains(&latency),
        "fast commit should take one round trip, got {latency} ms"
    );
    // Visibility propagated everywhere.
    for &n in &c.storage {
        assert_eq!(stock_at(&c.world, n, &key("i1")), Some(7), "node {n}");
    }
}

#[test]
fn conflicting_physical_writes_no_lost_updates() {
    let mut c = build_cluster(2, MasterPolicy::HashedPerRecord);
    load_everywhere(&mut c, key("acct"), Row::new().with("stock", 100));
    // Both clients read version 1 and race a physical write.
    let w1 = RecordUpdate::new(
        key("acct"),
        UpdateOp::Physical(PhysicalUpdate::write(
            Version(1),
            Row::new().with("stock", 1),
        )),
    );
    let w2 = RecordUpdate::new(
        key("acct"),
        UpdateOp::Physical(PhysicalUpdate::write(
            Version(1),
            Row::new().with("stock", 2),
        )),
    );
    let c1 = spawn_client(&mut c, 0, vec![vec![w1]]);
    let c2 = spawn_client(&mut c, 2, vec![vec![w2]]);
    c.world.run_for(SimDuration::from_secs(30));
    let d1 = &c.world.get::<TestClient>(c1).unwrap().completions;
    let d2 = &c.world.get::<TestClient>(c2).unwrap().completions;
    assert_eq!(d1.len(), 1);
    assert_eq!(d2.len(), 1);
    let committed: Vec<i64> = [(&d1[0], 1i64), (&d2[0], 2i64)]
        .iter()
        .filter(|(d, _)| d.outcome == TxnOutcome::Committed)
        .map(|(_, v)| *v)
        .collect();
    assert!(
        committed.len() <= 1,
        "write-write conflict must not let both commit"
    );
    // All replicas converge to the committed value (or keep 100).
    let expect = committed.first().copied().unwrap_or(100);
    for &n in &c.storage {
        assert_eq!(stock_at(&c.world, n, &key("acct")), Some(expect));
    }
}

#[test]
fn constraint_never_violated_under_contention() {
    // Five concurrent decrements of 1 against stock 4: demarcation admits
    // at most 3 through fast ballots (Figure 2) and recovery may admit a
    // 4th, but stock must never go negative.
    let mut c = build_cluster(3, MasterPolicy::HashedPerRecord);
    load_everywhere(&mut c, key("hot"), Row::new().with("stock", 4));
    let clients: Vec<NodeId> = (0..5u8)
        .map(|dc| spawn_client(&mut c, dc, vec![vec![decrement(key("hot"), 1)]]))
        .collect();
    c.world.run_for(SimDuration::from_secs(60));
    let mut committed = 0;
    let mut aborted = 0;
    for &cl in &clients {
        for d in &c.world.get::<TestClient>(cl).unwrap().completions {
            match d.outcome {
                TxnOutcome::Committed => committed += 1,
                TxnOutcome::Aborted => aborted += 1,
            }
        }
    }
    assert_eq!(committed + aborted, 5, "every txn must resolve");
    assert!(committed <= 4, "stock 4 admits at most 4 decrements");
    assert!(committed >= 1, "contention must not starve everyone");
    // Every replica converges to the same non-negative stock.
    let values: Vec<i64> = c
        .storage
        .iter()
        .map(|&n| stock_at(&c.world, n, &key("hot")).unwrap())
        .collect();
    assert!(
        values.iter().all(|v| *v == values[0]),
        "divergence: {values:?}"
    );
    assert_eq!(values[0], 4 - committed as i64);
    assert!(values[0] >= 0, "constraint violated: {values:?}");
    // The collisions went through a master's classic rounds, and nobody
    // was sent a message it drops: the votes of those rounds go to the
    // coordinators, not back to the master.
    let node_stats = |n: &NodeId| c.world.get::<StorageNodeProcess>(*n).unwrap().stats();
    let classic_votes: u64 = c.storage.iter().map(|n| node_stats(n).classic_votes).sum();
    let stray: u64 = c.storage.iter().map(|n| node_stats(n).stray_msgs).sum();
    assert!(classic_votes > 0, "the run never left the fast path");
    assert_eq!(stray, 0, "messages sent to storage nodes that drop them");
}

#[test]
fn sequential_txns_from_all_dcs_commit_fast() {
    let mut c = build_cluster(4, MasterPolicy::HashedPerRecord);
    for i in 0..5 {
        load_everywhere(&mut c, key(&format!("i{i}")), Row::new().with("stock", 50));
    }
    let clients: Vec<NodeId> = (0..5u8)
        .map(|dc| {
            let plan = (0..4)
                .map(|j| vec![decrement(key(&format!("i{}", (dc as i64 + j) % 5)), 1)])
                .collect();
            spawn_client(&mut c, dc, plan)
        })
        .collect();
    c.world.run_for(SimDuration::from_secs(30));
    let mut total = 0;
    for &cl in &clients {
        let completions = &c.world.get::<TestClient>(cl).unwrap().completions;
        total += completions.len();
        for d in completions {
            assert_eq!(d.outcome, TxnOutcome::Committed);
        }
    }
    assert_eq!(total, 20);
}

#[test]
fn dc_failure_is_masked_by_quorums() {
    let mut c = build_cluster(5, MasterPolicy::HashedPerRecord);
    load_everywhere(&mut c, key("i1"), Row::new().with("stock", 100));
    // Fail a non-client DC before the transaction starts.
    c.world.fail_dc(DcId(4));
    let client = spawn_client(&mut c, 0, vec![vec![decrement(key("i1"), 1)]]);
    c.world.run_for(SimDuration::from_secs(20));
    let completions = &c.world.get::<TestClient>(client).unwrap().completions;
    assert_eq!(completions.len(), 1);
    assert_eq!(completions[0].outcome, TxnOutcome::Committed);
    // The four live replicas converge.
    for &n in &c.storage[..4] {
        assert_eq!(stock_at(&c.world, n, &key("i1")), Some(99));
    }
}

#[test]
fn two_dc_failures_fall_back_to_classic_and_still_commit() {
    let mut c = build_cluster(6, MasterPolicy::FixedDc(DcId(0)));
    load_everywhere(&mut c, key("i1"), Row::new().with("stock", 100));
    c.world.fail_dc(DcId(3));
    c.world.fail_dc(DcId(4));
    let client = spawn_client(&mut c, 0, vec![vec![decrement(key("i1"), 1)]]);
    c.world.run_for(SimDuration::from_secs(60));
    let completions = &c.world.get::<TestClient>(client).unwrap().completions;
    assert_eq!(completions.len(), 1, "classic fallback must commit");
    assert_eq!(completions[0].outcome, TxnOutcome::Committed);
    assert!(!completions[0].fast_path, "a fast quorum was impossible");
    for &n in &c.storage[..3] {
        assert_eq!(stock_at(&c.world, n, &key("i1")), Some(99));
    }
}

#[test]
fn coordinator_failure_resolves_via_dangling_recovery() {
    let mut c = build_cluster(7, MasterPolicy::HashedPerRecord);
    load_everywhere(&mut c, key("i1"), Row::new().with("stock", 10));
    let client = spawn_client(&mut c, 0, vec![vec![decrement(key("i1"), 2)]]);
    // Let the proposals reach the acceptors, then kill the coordinator
    // before any vote returns (one-way latency is 50 ms).
    c.world.run_until(SimTime::from_millis(60));
    c.world.crash_node(client);
    // Dangling timeout (5 s) + recovery rounds.
    c.world.run_for(SimDuration::from_secs(60));
    // The storage nodes must have resolved the orphaned option on their
    // own — and all to the same outcome.
    let stocks: Vec<i64> = c
        .storage
        .iter()
        .map(|&n| stock_at(&c.world, n, &key("i1")).unwrap())
        .collect();
    assert!(
        stocks.iter().all(|s| *s == stocks[0]),
        "replicas diverged after recovery: {stocks:?}"
    );
    assert!(
        stocks[0] == 8 || stocks[0] == 10,
        "outcome must be all-or-nothing, got {stocks:?}"
    );
    // No replica still holds the option as pending.
    for &n in &c.storage {
        assert_eq!(
            c.world
                .get::<StorageNodeProcess>(n)
                .unwrap()
                .store()
                .pending_len(),
            0,
            "node {n} still has pending options"
        );
    }
}

/// A replica that comes back with nothing — a lost disk, or a shard that
/// was never loaded — still knows its peers from the placement and pulls
/// the whole shard from them.
#[test]
fn node_restarted_onto_an_empty_store_syncs_from_its_peers() {
    let mut c = build_cluster(7, MasterPolicy::HashedPerRecord);
    for pk in ["i1", "i2", "i3"] {
        load_everywhere(&mut c, key(pk), Row::new().with("stock", 10));
    }
    let plan = ["i1", "i2", "i3", "i1"]
        .iter()
        .map(|pk| vec![decrement(key(pk), 1)])
        .collect();
    spawn_client(&mut c, 0, plan);
    c.world.run_for(SimDuration::from_secs(5));

    let lost = c.storage[4];
    c.world.crash_node(lost);
    let node = StorageNodeProcess::from_recovery(
        ProtocolConfig::default(),
        RecordStore::new(ProtocolConfig::default(), catalog()),
        c.placement.clone() as Arc<dyn Placement>,
        true,
        mdcc_recovery::RecoveryInfo::default(),
    );
    c.world.restart_node(lost, Box::new(node));
    c.world.run_for(SimDuration::from_secs(30));

    // Byte-equal as the cluster audit means it: the same committed
    // (key, version, value) for every record.
    let committed = |n: NodeId| {
        let node = c.world.get::<StorageNodeProcess>(n).unwrap();
        node.store().committed_state()
    };
    assert!(
        c.world
            .get::<StorageNodeProcess>(lost)
            .unwrap()
            .stats()
            .sync_rounds
            > 0,
        "a restarted node opens sync rounds"
    );
    assert_eq!(stock_at(&c.world, lost, &key("i1")), Some(8));
    assert_eq!(committed(lost).len(), 3, "every record arrived");
    assert_eq!(committed(lost), committed(c.storage[0]));
}

#[test]
fn an_ask_nobody_can_answer_is_met_with_the_replicas_committed_state() {
    // Node 0 missed the record altogether and asks node 1 about a
    // Phase2a of a ballot node 1 never led (its leader moved on, or the
    // round is over): no window to answer with, so node 1 sends what its
    // own replica has committed, and node 0 is caught up for the next
    // round, not at the next anti-entropy sweep.
    let mut c = build_cluster(5, MasterPolicy::HashedPerRecord);
    let k = key("i1");
    for &node in &c.storage[1..] {
        let replica = c.world.get_mut::<StorageNodeProcess>(node).unwrap();
        let row = Row::new().with("stock", 10);
        replica.store_mut().load(k.clone(), row);
    }
    assert_eq!(stock_at(&c.world, c.storage[0], &k), None);
    let ballot = Ballot::classic(7, c.storage[1]);
    let ask = Msg::P2aBehind {
        key: k.clone(),
        ballot,
    };
    c.world.inject(c.storage[0], c.storage[1], ask);
    c.world.run_for(SimDuration::from_secs(1));
    assert_eq!(stock_at(&c.world, c.storage[0], &k), Some(10));
    let stats = |n: NodeId| c.world.get::<StorageNodeProcess>(n).unwrap().stats();
    assert_eq!(stats(c.storage[0]).sync_adoptions, 1);
    assert_eq!(stats(c.storage[0]).stray_msgs, 0);
}

#[test]
fn multi_record_transaction_is_atomic() {
    let mut c = build_cluster(8, MasterPolicy::HashedPerRecord);
    load_everywhere(&mut c, key("a"), Row::new().with("stock", 5));
    load_everywhere(&mut c, key("b"), Row::new().with("stock", 0));
    // Txn decrements a by 1 and b by 1; b has stock 0 so its option is
    // rejected → the whole transaction must abort, including a's part.
    let updates = vec![decrement(key("a"), 1), decrement(key("b"), 1)];
    let client = spawn_client(&mut c, 1, vec![updates]);
    c.world.run_for(SimDuration::from_secs(30));
    let completions = &c.world.get::<TestClient>(client).unwrap().completions;
    assert_eq!(completions.len(), 1);
    assert_eq!(completions[0].outcome, TxnOutcome::Aborted);
    for &n in &c.storage {
        assert_eq!(
            stock_at(&c.world, n, &key("a")),
            Some(5),
            "a must be untouched"
        );
        assert_eq!(stock_at(&c.world, n, &key("b")), Some(0));
    }
}

#[test]
fn deterministic_across_identical_runs() {
    let run = |seed: u64| -> Vec<(TxnOutcome, u64)> {
        let mut c = build_cluster(seed, MasterPolicy::HashedPerRecord);
        load_everywhere(&mut c, key("hot"), Row::new().with("stock", 6));
        let clients: Vec<NodeId> = (0..5u8)
            .map(|dc| spawn_client(&mut c, dc, vec![vec![decrement(key("hot"), 1)]]))
            .collect();
        c.world.run_for(SimDuration::from_secs(30));
        clients
            .iter()
            .flat_map(|&cl| {
                c.world
                    .get::<TestClient>(cl)
                    .unwrap()
                    .completions
                    .iter()
                    .map(|d| (d.outcome, (d.finished - d.started).as_micros()))
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    assert_eq!(run(42), run(42), "same seed, same execution");
}

/// A shard's lease holder leads every record of its shard, including one
/// another replica ran Phase 1 on inside the holder's tenure: the
/// holder's Phase2a is Nacked, it runs its own Phase 1 above that
/// promise and commits — no proposal is forwarded to the other replica
/// and no client is told to route the record anywhere but the holder.
#[test]
fn the_lease_holder_leads_a_record_another_replica_established_in_its_tenure() {
    let protocol = ProtocolConfig {
        mastership: MastershipConfig::enabled(),
        ..ProtocolConfig::default()
    };
    let audit = LeaseAudit::new();
    // A lease renewal must come back within a heartbeat interval.
    let net = NetworkModel::uniform(5, 60.0, 1.0).with_jitter(0.0);
    let policy = MasterPolicy::FixedDc(DcId(0));
    let mut c = build_cluster_with(9, policy, net, protocol.clone(), Some(&audit));
    let k = key("hot");
    load_everywhere(&mut c, k.clone(), Row::new().with("stock", 100));
    // With data center 4 dark through the first election, node 3 is the
    // top connected pid and wins; back in, node 4 finds a live holder
    // and does not campaign.
    c.world.fail_dc(DcId(4));
    c.world.run_until(SimTime::from_millis(1_500));
    c.world.heal_dc(DcId(4));
    c.world.run_until(SimTime::from_millis(3_000));
    let (holder, other) = (c.storage[3], c.storage[4]);
    let spans = audit.spans();
    assert!(
        !spans.is_empty() && spans.iter().all(|span| span.node == holder),
        "{spans:?}"
    );

    // A client in the holder's data center learns the route.
    let cfg = TmConfig {
        protocol,
        my_dc: DcId(3),
        assume_classic: true,
    };
    // Its first transaction runs now, the other three once node 4 has
    // run Phase 1 on the record.
    let plan = vec![vec![decrement(k.clone(), 1)]; 4];
    let mut client = TestClient::new(cfg, c.placement.clone(), plan);
    client.pause = Some((1, SimTime::from_millis(6_000)));
    let client = c.world.spawn(DcId(3), Box::new(client));
    c.world.run_until(SimTime::from_millis(5_000));
    let forwarded = |c: &TestCluster| -> u64 {
        let node = |n: &NodeId| c.world.get::<StorageNodeProcess>(*n).unwrap();
        let stats = c.storage.iter().filter_map(|n| node(n).mastership_stats());
        stats.map(|s| s.forwarded).sum()
    };
    let before = forwarded(&c);

    // Node 4 runs Phase 1 on the record inside node 3's tenure...
    c.world
        .inject(other, other, Msg::StartRecovery { key: k.clone() });
    c.world.run_until(SimTime::from_millis(6_000));
    let promised = |c: &TestCluster, n: NodeId| {
        let node = c.world.get::<StorageNodeProcess>(n).unwrap();
        node.store().with_record(&k, |r| r.promised()).unwrap()
    };
    assert_eq!(
        promised(&c, holder).proposer,
        other,
        "node 4 established the record"
    );

    // ...and then three mastered proposals for it reach the holder.
    c.world.run_until(SimTime::from_millis(12_000));

    let tester = c.world.get::<TestClient>(client).unwrap();
    assert_eq!(tester.completions.len(), 4, "a client is stuck");
    assert_eq!(tester.tm.in_flight(), 0);
    for done in &tester.completions {
        assert_eq!(done.outcome, TxnOutcome::Committed);
    }
    assert_eq!(
        forwarded(&c),
        before,
        "a proposal was forwarded off the holder"
    );
    for &n in &c.storage {
        assert_eq!(
            promised(&c, n).proposer,
            holder,
            "node {n} promised another leader"
        );
        assert_eq!(stock_at(&c.world, n, &k), Some(96), "node {n}");
    }
    let spans = audit.spans();
    assert!(spans.iter().all(|span| span.node == holder), "{spans:?}");
}
