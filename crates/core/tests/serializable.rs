//! Serializability via read-set validation (§4.4) — the paper's
//! "easily extended to also consider read-sets" future-work feature.
//!
//! Read guards are options like any other: accepted only while the read
//! version is current and no write is pending, they ride fast ballots, so
//! a serializable transaction still commits in one wide-area round trip
//! when uncontended. The classic write-skew anomaly — allowed under read
//! committed — must be blocked.

use std::sync::Arc;

use mdcc_common::placement::MasterPolicy;
use mdcc_common::{
    DcId, Key, NodeId, PhysicalUpdate, ProtocolConfig, RecordUpdate, Row, SimDuration,
    StaticPlacement, TableId, UpdateOp, Version,
};
use mdcc_core::placement::Placement;
use mdcc_core::{
    MdccCtx, Msg, StorageNodeProcess, Tick, TmConfig, TmEvent, TransactionManager, TxnCompletion,
};
use mdcc_paxos::TxnOutcome;
use mdcc_sim::{NetworkModel, Process, World, WorldConfig};
use mdcc_storage::{Catalog, RecordStore};

const T: TableId = TableId(1);

fn key(pk: &str) -> Key {
    Key::new(T, pk)
}

/// A client that issues one serializable transaction: read `reads` (at
/// the versions given), write `writes`.
struct SerClient {
    tm: TransactionManager,
    reads: Vec<(Key, Version)>,
    writes: Vec<RecordUpdate>,
    pub completions: Vec<TxnCompletion>,
}

impl Process<Msg, Tick> for SerClient {
    fn on_start(&mut self, ctx: &mut MdccCtx<'_>) {
        let (_, done) = self
            .tm
            .commit_serializable(self.writes.clone(), self.reads.clone(), ctx);
        assert!(done.is_none());
    }
    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut MdccCtx<'_>) {
        for e in self.tm.on_message(from, msg, ctx) {
            if let TmEvent::Completed(c) = e {
                self.completions.push(c);
            }
        }
    }
    fn on_timer(&mut self, tick: Tick, ctx: &mut MdccCtx<'_>) {
        self.tm.on_timer(tick, ctx);
    }
}

struct Cluster {
    world: World<Msg, Tick>,
    storage: Vec<NodeId>,
    placement: Arc<StaticPlacement>,
}

fn build(seed: u64) -> Cluster {
    let net = NetworkModel::uniform(5, 100.0, 1.0).with_jitter(0.0);
    let mut world = World::new(
        net,
        WorldConfig {
            seed,
            service_time: SimDuration::from_micros(10),
            service_ns_per_byte: 0,
            ..WorldConfig::default()
        },
    );
    let storage: Vec<NodeId> = (0..5).map(NodeId).collect();
    let matrix: Vec<Vec<NodeId>> = storage.iter().map(|n| vec![*n]).collect();
    let placement = StaticPlacement::new(matrix, MasterPolicy::HashedPerRecord);
    let catalog = Arc::new(Catalog::new());
    for dc in 0..5u8 {
        let store = RecordStore::new(ProtocolConfig::default(), catalog.clone());
        let node = StorageNodeProcess::new(
            ProtocolConfig::default(),
            store,
            placement.clone() as Arc<dyn Placement>,
            true,
        );
        world.spawn(DcId(dc), Box::new(node));
    }
    Cluster {
        world,
        storage,
        placement,
    }
}

fn load(c: &mut Cluster, k: &str, v: i64) {
    for &n in &c.storage {
        c.world
            .get_mut::<StorageNodeProcess>(n)
            .unwrap()
            .store_mut()
            .load(key(k), Row::new().with("v", v));
    }
}

fn client(
    c: &mut Cluster,
    dc: u8,
    reads: Vec<(Key, Version)>,
    writes: Vec<RecordUpdate>,
) -> NodeId {
    let tm = TransactionManager::new(
        TmConfig {
            protocol: ProtocolConfig::default(),
            my_dc: DcId(dc),
            assume_classic: false,
        },
        c.placement.clone() as Arc<dyn Placement>,
    );
    c.world.spawn(
        DcId(dc),
        Box::new(SerClient {
            tm,
            reads,
            writes,
            completions: vec![],
        }),
    )
}

fn write(k: &str, v: i64) -> RecordUpdate {
    RecordUpdate::new(
        key(k),
        UpdateOp::Physical(PhysicalUpdate::write(Version(1), Row::new().with("v", v))),
    )
}

fn value_at(c: &World<Msg, Tick>, n: NodeId, k: &str) -> Option<i64> {
    c.get::<StorageNodeProcess>(n)
        .unwrap()
        .store()
        .read_committed(&key(k))
        .and_then(|(_, row)| row.get_int("v"))
}

#[test]
fn write_skew_is_prevented() {
    // The textbook anomaly: T1 reads Y, writes X; T2 reads X, writes Y.
    // Under read committed both commit (no write-write conflict); under
    // serializability at most one may.
    let mut c = build(1);
    load(&mut c, "x", 0);
    load(&mut c, "y", 0);
    let t1 = client(&mut c, 0, vec![(key("y"), Version(1))], vec![write("x", 1)]);
    let t2 = client(&mut c, 2, vec![(key("x"), Version(1))], vec![write("y", 1)]);
    c.world.run_for(SimDuration::from_secs(30));
    let d1 = &c.world.get::<SerClient>(t1).unwrap().completions;
    let d2 = &c.world.get::<SerClient>(t2).unwrap().completions;
    assert_eq!(d1.len(), 1);
    assert_eq!(d2.len(), 1);
    let both = (d1[0].outcome == TxnOutcome::Committed) && (d2[0].outcome == TxnOutcome::Committed);
    assert!(!both, "write skew: both committed");
    // And the surviving state is one of the two serial outcomes.
    let x = value_at(&c.world, c.storage[0], "x").unwrap();
    let y = value_at(&c.world, c.storage[0], "y").unwrap();
    assert!(
        (x, y) == (1, 0) || (x, y) == (0, 1) || (x, y) == (0, 0),
        "non-serializable state ({x},{y})"
    );
}

#[test]
fn stale_read_guard_aborts_the_transaction() {
    // T1 writes x (bumping its version); T2 then validates a read of x at
    // the old version and must abort.
    let mut c = build(2);
    load(&mut c, "x", 0);
    load(&mut c, "z", 0);
    let t1 = client(&mut c, 0, vec![], vec![write("x", 7)]);
    c.world.run_for(SimDuration::from_secs(5));
    assert_eq!(
        c.world.get::<SerClient>(t1).unwrap().completions[0].outcome,
        TxnOutcome::Committed
    );
    // x is now at version 2; T2 read it at version 1.
    let t2 = client(&mut c, 3, vec![(key("x"), Version(1))], vec![write("z", 9)]);
    c.world.run_for(SimDuration::from_secs(10));
    let d2 = &c.world.get::<SerClient>(t2).unwrap().completions;
    assert_eq!(d2[0].outcome, TxnOutcome::Aborted);
    assert_eq!(
        value_at(&c.world, c.storage[0], "z"),
        Some(0),
        "z untouched"
    );
}

#[test]
fn read_guards_do_not_block_each_other() {
    // Shared locks: two transactions validating the same read while
    // writing different records must both commit.
    let mut c = build(3);
    load(&mut c, "shared", 5);
    load(&mut c, "a", 0);
    load(&mut c, "b", 0);
    let t1 = client(
        &mut c,
        0,
        vec![(key("shared"), Version(1))],
        vec![write("a", 1)],
    );
    let t2 = client(
        &mut c,
        2,
        vec![(key("shared"), Version(1))],
        vec![write("b", 1)],
    );
    c.world.run_for(SimDuration::from_secs(30));
    assert_eq!(
        c.world.get::<SerClient>(t1).unwrap().completions[0].outcome,
        TxnOutcome::Committed
    );
    assert_eq!(
        c.world.get::<SerClient>(t2).unwrap().completions[0].outcome,
        TxnOutcome::Committed
    );
}

#[test]
fn serializable_commit_is_still_one_round_trip() {
    let mut c = build(4);
    load(&mut c, "r", 1);
    load(&mut c, "w", 1);
    let t = client(&mut c, 1, vec![(key("r"), Version(1))], vec![write("w", 2)]);
    c.world.run_for(SimDuration::from_secs(10));
    let done = &c.world.get::<SerClient>(t).unwrap().completions[0];
    assert_eq!(done.outcome, TxnOutcome::Committed);
    assert!(done.fast_path, "guards ride fast ballots");
    let latency = (done.finished - done.started).as_millis();
    assert!(
        (95..160).contains(&latency),
        "one round trip expected, got {latency} ms"
    );
}

#[test]
fn guard_does_not_consume_the_version() {
    // A committed guard must not bump the record's version: later readers
    // still validate against the same version.
    let mut c = build(5);
    load(&mut c, "r", 1);
    load(&mut c, "w", 1);
    let t1 = client(&mut c, 0, vec![(key("r"), Version(1))], vec![write("w", 2)]);
    c.world.run_for(SimDuration::from_secs(5));
    assert_eq!(
        c.world.get::<SerClient>(t1).unwrap().completions[0].outcome,
        TxnOutcome::Committed
    );
    // r unchanged at version 1: a second guard at version 1 still works.
    load(&mut c, "w2", 1);
    let t2 = client(
        &mut c,
        2,
        vec![(key("r"), Version(1))],
        vec![write("w2", 3)],
    );
    c.world.run_for(SimDuration::from_secs(10));
    assert_eq!(
        c.world.get::<SerClient>(t2).unwrap().completions[0].outcome,
        TxnOutcome::Committed
    );
}
