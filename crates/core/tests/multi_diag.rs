//! Focused diagnosis of Multi (assume-classic) mode under contention.
use mdcc_common::placement::MasterPolicy;
use mdcc_common::{
    CommutativeUpdate, DcId, Key, NodeId, ProtocolConfig, RecordUpdate, Row, SimDuration,
    StaticPlacement, TableId, UpdateOp,
};
use mdcc_core::placement::Placement;
use mdcc_core::{
    MdccCtx, Msg, StorageNodeProcess, Tick, TmConfig, TmEvent, TransactionManager, TxnCompletion,
};
use mdcc_paxos::AttrConstraint;
use mdcc_sim::{NetworkModel, Process, World, WorldConfig};
use mdcc_storage::{Catalog, RecordStore, TableSchema};
use rand::Rng;
use std::sync::Arc;

const ITEMS: TableId = TableId(1);
fn key(i: u64) -> Key {
    Key::new(ITEMS, format!("i{i}"))
}

struct LoopClient {
    tm: TransactionManager,
    pool: u64,
    pub completions: Vec<TxnCompletion>,
}
impl LoopClient {
    fn issue(&mut self, ctx: &mut MdccCtx<'_>) {
        let mut items = vec![];
        while items.len() < 3 {
            let i = ctx.rng.gen_range(0..self.pool);
            if !items.contains(&i) {
                items.push(i);
            }
        }
        let updates = items
            .iter()
            .map(|i| {
                RecordUpdate::new(
                    key(*i),
                    UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
                )
            })
            .collect();
        let (_, done) = self.tm.commit(updates, ctx);
        assert!(done.is_none());
    }
}
impl Process<Msg, Tick> for LoopClient {
    fn on_start(&mut self, ctx: &mut MdccCtx<'_>) {
        self.issue(ctx);
    }
    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut MdccCtx<'_>) {
        for e in self.tm.on_message(from, msg, ctx) {
            if let TmEvent::Completed(c) = e {
                self.completions.push(c);
                self.issue(ctx);
            }
        }
    }
    fn on_timer(&mut self, tick: Tick, ctx: &mut MdccCtx<'_>) {
        self.tm.on_timer(tick, ctx);
    }
}

#[test]
fn multi_mode_contended() {
    let net = NetworkModel::uniform(5, 100.0, 1.0).with_jitter(0.0);
    let mut world = World::new(
        net,
        WorldConfig {
            seed: 1,
            service_time: SimDuration::from_micros(10),
            service_ns_per_byte: 0,
            ..WorldConfig::default()
        },
    );
    let storage: Vec<NodeId> = (0..5).map(NodeId).collect();
    let matrix: Vec<Vec<NodeId>> = storage.iter().map(|n| vec![*n]).collect();
    let placement = StaticPlacement::new(matrix, MasterPolicy::HashedPerRecord);
    let catalog = Arc::new(Catalog::new().with(
        TableSchema::new(ITEMS, "item").with_constraint(AttrConstraint::at_least("stock", 0)),
    ));
    for dc in 0..5u8 {
        let store = RecordStore::new(ProtocolConfig::default(), catalog.clone());
        let node = StorageNodeProcess::new(
            ProtocolConfig::default(),
            store,
            placement.clone() as Arc<dyn Placement>,
            false,
        );
        world.spawn(DcId(dc), Box::new(node));
    }
    const POOL: u64 = 10;
    for &n in &storage {
        for i in 0..POOL {
            world
                .get_mut::<StorageNodeProcess>(n)
                .unwrap()
                .store_mut()
                .load(key(i), Row::new().with("stock", 100_000));
        }
    }
    let mut clients = vec![];
    for c in 0..10u8 {
        let tm = TransactionManager::new(
            TmConfig {
                protocol: ProtocolConfig::default(),
                my_dc: DcId(c % 5),
                assume_classic: true,
            },
            placement.clone() as Arc<dyn Placement>,
        );
        clients.push(world.spawn(
            DcId(c % 5),
            Box::new(LoopClient {
                tm,
                pool: POOL,
                completions: vec![],
            }),
        ));
    }
    world.run_for(SimDuration::from_secs(60));
    let mut total = 0;
    for &c in &clients {
        let cl = world.get::<LoopClient>(c).unwrap();
        total += cl.completions.len();
        eprintln!(
            "client {c}: {} completions, in_flight={}, stats={:?}",
            cl.completions.len(),
            cl.tm.in_flight(),
            cl.tm.stats()
        );
    }
    eprintln!("total completions: {total}");
    assert!(total > 400, "only {total} completions in 60s");
}
