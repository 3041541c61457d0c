//! Quorum Writes (QW-k): the eventually consistent baseline (§5.2).
//!
//! "Simply sending all updates to all involved storage nodes then waiting
//! for responses from quorum nodes." Writes carry no version checks, no
//! constraints, no transaction boundary — a write batch acks when every
//! update has `k` replica acknowledgements. Reads use a read quorum of 1
//! (the local replica), the fastest read configuration.

use std::collections::HashMap;
use std::sync::Arc;

use mdcc_common::{Key, NodeId, Placement, RecordUpdate, Row, SimTime, Version};
use mdcc_sim::{Ctx, Process};

use crate::store::BaselineStore;

/// Quorum-writes protocol messages.
#[derive(Debug, Clone)]
pub enum QwMsg {
    /// Apply one update (no checks).
    Put {
        /// Write-batch id, echoed in the ack.
        req: u64,
        /// The update.
        update: RecordUpdate,
    },
    /// A replica applied the update.
    PutAck {
        /// Echoed batch id.
        req: u64,
        /// Key the ack is for.
        key: Key,
    },
    /// Local committed read.
    ReadReq {
        /// Request id.
        req: u64,
        /// Key to read.
        key: Key,
    },
    /// Read response.
    ReadResp {
        /// Echoed request id.
        req: u64,
        /// Key read.
        key: Key,
        /// Version at the replica.
        version: Version,
        /// Value at the replica.
        value: Option<Row>,
    },
}

/// A quorum-writes storage replica.
pub struct QwStorage {
    store: BaselineStore,
}

impl QwStorage {
    /// Creates a replica over `store`.
    pub fn new(store: BaselineStore) -> Self {
        Self { store }
    }

    /// Bulk-load access.
    pub fn store_mut(&mut self) -> &mut BaselineStore {
        &mut self.store
    }

    /// Read access (tests/metrics).
    pub fn store(&self) -> &BaselineStore {
        &self.store
    }
}

impl Process<QwMsg> for QwStorage {
    fn on_message(&mut self, from: NodeId, msg: QwMsg, ctx: &mut Ctx<'_, QwMsg>) {
        match msg {
            QwMsg::Put { req, update } => {
                let key = update.key.clone();
                self.store.apply(&update);
                ctx.send(from, QwMsg::PutAck { req, key });
            }
            QwMsg::ReadReq { req, key } => {
                let (version, value) = match self.store.read(&key) {
                    Some((v, row)) => (v, Some(row)),
                    None => (self.store.version_of(&key), None),
                };
                ctx.send(
                    from,
                    QwMsg::ReadResp {
                        req,
                        key,
                        version,
                        value,
                    },
                );
            }
            _ => {}
        }
    }
}

/// One in-flight write batch at the client.
#[derive(Debug)]
struct PendingWrite {
    started: SimTime,
    needed: usize,
    acks: HashMap<Key, usize>,
    keys: Vec<Key>,
}

/// Client-side quorum-writes coordinator ("W of N" writes, reads local).
pub struct QwWriter {
    placement: Arc<dyn Placement>,
    write_quorum: usize,
    next_req: u64,
    pending: HashMap<u64, PendingWrite>,
}

/// A completed write batch.
#[derive(Debug, Clone, Copy)]
pub struct QwDone {
    /// Batch id.
    pub req: u64,
    /// When the batch was issued.
    pub started: SimTime,
}

impl QwWriter {
    /// Creates a writer waiting for `write_quorum` acks per key.
    pub fn new(placement: Arc<dyn Placement>, write_quorum: usize) -> Self {
        Self {
            placement,
            write_quorum,
            next_req: 0,
            pending: HashMap::new(),
        }
    }

    /// Sends a write batch to every replica of every key. Empty batches
    /// complete immediately.
    pub fn write(
        &mut self,
        updates: Vec<RecordUpdate>,
        ctx: &mut Ctx<'_, QwMsg>,
    ) -> (u64, Option<QwDone>) {
        let req = self.next_req;
        self.next_req += 1;
        if updates.is_empty() {
            return (
                req,
                Some(QwDone {
                    req,
                    started: ctx.now,
                }),
            );
        }
        let keys: Vec<Key> = updates.iter().map(|u| u.key.clone()).collect();
        for update in updates {
            for replica in self.placement.replicas(&update.key) {
                ctx.send(
                    replica,
                    QwMsg::Put {
                        req,
                        update: update.clone(),
                    },
                );
            }
        }
        self.pending.insert(
            req,
            PendingWrite {
                started: ctx.now,
                needed: self.write_quorum,
                acks: HashMap::new(),
                keys,
            },
        );
        (req, None)
    }

    /// Feeds an ack; returns the batch completion when every key reached
    /// the write quorum.
    pub fn on_ack(&mut self, req: u64, key: Key) -> Option<QwDone> {
        let pending = self.pending.get_mut(&req)?;
        *pending.acks.entry(key).or_insert(0) += 1;
        let done = pending
            .keys
            .iter()
            .all(|k| pending.acks.get(k).copied().unwrap_or(0) >= pending.needed);
        if done {
            let p = self.pending.remove(&req).expect("present");
            Some(QwDone {
                req,
                started: p.started,
            })
        } else {
            None
        }
    }

    /// In-flight batches.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::placement::MasterPolicy;
    use mdcc_common::{
        CommutativeUpdate, DcId, ProtocolConfig, SimDuration, StaticPlacement, TableId, UpdateOp,
    };
    use mdcc_sim::{NetworkModel, World, WorldConfig};
    use mdcc_storage::Catalog;

    fn key(pk: &str) -> Key {
        Key::new(TableId(1), pk)
    }

    /// Minimal QW client process for the tests.
    struct Client {
        writer: QwWriter,
        batch: Vec<RecordUpdate>,
        done_at: Option<SimTime>,
    }

    impl Process<QwMsg> for Client {
        fn on_start(&mut self, ctx: &mut Ctx<'_, QwMsg>) {
            let batch = self.batch.clone();
            let (_, done) = self.writer.write(batch, ctx);
            if done.is_some() {
                self.done_at = Some(ctx.now);
            }
        }
        fn on_message(&mut self, _from: NodeId, msg: QwMsg, ctx: &mut Ctx<'_, QwMsg>) {
            if let QwMsg::PutAck { req, key } = msg {
                if self.writer.on_ack(req, key).is_some() {
                    self.done_at = Some(ctx.now);
                }
            }
        }
    }

    fn run(write_quorum: usize) -> (World<QwMsg>, Vec<NodeId>, NodeId) {
        let net = NetworkModel::uniform(5, 100.0, 1.0).with_jitter(0.0);
        let mut world = World::new(
            net,
            WorldConfig {
                seed: 1,
                service_time: SimDuration::ZERO,
                service_ns_per_byte: 0,
                ..WorldConfig::default()
            },
        );
        let catalog = Arc::new(Catalog::new());
        let storage: Vec<NodeId> = (0..5u8)
            .map(|dc| {
                let mut s = QwStorage::new(BaselineStore::new(catalog.clone()));
                s.store_mut().load(key("a"), Row::new().with("stock", 10));
                world.spawn(DcId(dc), Box::new(s))
            })
            .collect();
        let matrix: Vec<Vec<NodeId>> = storage.iter().map(|n| vec![*n]).collect();
        let placement = StaticPlacement::new(matrix, MasterPolicy::HashedPerRecord);
        let _ = ProtocolConfig::default();
        let client = Client {
            writer: QwWriter::new(placement, write_quorum),
            batch: vec![RecordUpdate::new(
                key("a"),
                UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
            )],
            done_at: None,
        };
        let client_id = world.spawn(DcId(0), Box::new(client));
        world.run_for(SimDuration::from_secs(5));
        (world, storage, client_id)
    }

    #[test]
    fn qw3_acks_after_three_replicas() {
        let (world, storage, client) = run(3);
        let done = world.get::<Client>(client).unwrap().done_at.expect("done");
        // Uniform latencies: local ack ~1 ms, remote ~100 ms. The third
        // ack arrives after one remote round trip.
        assert!((95..=110).contains(&done.as_millis()), "{done}");
        // All replicas eventually applied (eventual consistency).
        for n in storage {
            let s = world.get::<QwStorage>(n).unwrap();
            assert_eq!(
                s.store().read(&key("a")).unwrap().1.get_int("stock"),
                Some(9)
            );
        }
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let net = NetworkModel::uniform(1, 0.0, 1.0);
        let mut world: World<QwMsg> = World::new(net, WorldConfig::default());
        let matrix = vec![vec![NodeId(0)]];
        let placement = StaticPlacement::new(matrix, MasterPolicy::HashedPerRecord);
        let mut writer = QwWriter::new(placement, 3);
        // Drive by hand through a scratch context.
        let mut effects = Vec::new();
        let mut next_timer = 0;
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
        let mut ctx = Ctx::new(
            SimTime::ZERO,
            NodeId(9),
            &mut rng,
            &mut effects,
            &mut next_timer,
        );
        let (_, done) = writer.write(Vec::new(), &mut ctx);
        assert!(done.is_some());
        assert_eq!(writer.in_flight(), 0);
        let _ = &mut world;
    }

    #[test]
    fn acks_are_counted_per_key() {
        let matrix = vec![vec![NodeId(0)], vec![NodeId(1)], vec![NodeId(2)]];
        let placement = StaticPlacement::new(matrix, MasterPolicy::HashedPerRecord);
        let mut writer = QwWriter::new(placement, 2);
        let mut effects = Vec::new();
        let mut next_timer = 0;
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
        let mut ctx = Ctx::new(
            SimTime::ZERO,
            NodeId(9),
            &mut rng,
            &mut effects,
            &mut next_timer,
        );
        let updates = vec![
            RecordUpdate::new(
                key("a"),
                UpdateOp::Commutative(CommutativeUpdate::delta("x", 1)),
            ),
            RecordUpdate::new(
                key("b"),
                UpdateOp::Commutative(CommutativeUpdate::delta("x", 1)),
            ),
        ];
        let (req, done) = writer.write(updates, &mut ctx);
        assert!(done.is_none());
        assert!(writer.on_ack(req, key("a")).is_none());
        assert!(
            writer.on_ack(req, key("a")).is_none(),
            "a reached quorum, b did not"
        );
        assert!(writer.on_ack(req, key("b")).is_none());
        assert!(
            writer.on_ack(req, key("b")).is_some(),
            "both reached quorum"
        );
    }
}
