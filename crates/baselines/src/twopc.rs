//! Two-phase commit over fully replicated records (§5.2).
//!
//! The paper's 2PC baseline: "a transaction manager tries to prepare all
//! involved storage nodes … 2PC requires all involved storage nodes to
//! respond and is not resilient to single node failures." Prepare takes
//! record locks (no-wait: a locked record votes no, so there are no
//! distributed deadlocks); commit/abort releases them. The coordinator
//! needs two wide-area round trips and waits for the slowest replica in
//! both.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use mdcc_common::{Key, NodeId, Placement, RecordUpdate, Row, SimTime, TxnId, Version};
use mdcc_sim::{Ctx, Process};

use crate::store::BaselineStore;

/// 2PC messages.
#[derive(Debug, Clone)]
pub enum TpcMsg {
    /// Phase 1: validate and lock one record.
    Prepare {
        /// Transaction id.
        txn: TxnId,
        /// The update to prepare.
        update: RecordUpdate,
    },
    /// Phase 1 response.
    PrepareVote {
        /// Transaction id.
        txn: TxnId,
        /// Record voted on.
        key: Key,
        /// Yes/no vote.
        ok: bool,
    },
    /// Phase 2: commit (apply + unlock) or abort (unlock).
    Decide {
        /// Transaction id.
        txn: TxnId,
        /// Record the decision applies to.
        key: Key,
        /// Commit when true.
        commit: bool,
    },
    /// Phase 2 acknowledgement.
    DecideAck {
        /// Transaction id.
        txn: TxnId,
        /// Record acknowledged.
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

/// A 2PC storage replica with a no-wait lock table.
pub struct TpcStorage {
    store: BaselineStore,
    /// key → (owner, prepared update).
    locks: HashMap<Key, (TxnId, RecordUpdate)>,
}

impl TpcStorage {
    /// Creates a replica over `store`.
    pub fn new(store: BaselineStore) -> Self {
        Self {
            store,
            locks: HashMap::new(),
        }
    }

    /// Bulk-load access.
    pub fn store_mut(&mut self) -> &mut BaselineStore {
        &mut self.store
    }

    /// Read access (tests/metrics).
    pub fn store(&self) -> &BaselineStore {
        &self.store
    }

    /// Currently held locks (tests).
    pub fn lock_count(&self) -> usize {
        self.locks.len()
    }
}

impl Process<TpcMsg> for TpcStorage {
    fn on_message(&mut self, from: NodeId, msg: TpcMsg, ctx: &mut Ctx<'_, TpcMsg>) {
        match msg {
            TpcMsg::Prepare { txn, update } => {
                let key = update.key.clone();
                let ok = match self.locks.get(&key) {
                    Some((owner, _)) if *owner != txn => false,
                    _ => self.store.validate(&update).is_ok(),
                };
                if ok {
                    self.locks.insert(key.clone(), (txn, update));
                }
                ctx.send(from, TpcMsg::PrepareVote { txn, key, ok });
            }
            TpcMsg::Decide { txn, key, commit } => {
                if let Some((owner, update)) = self.locks.get(&key) {
                    if *owner == txn {
                        if commit {
                            let update = update.clone();
                            self.store.apply(&update);
                        }
                        self.locks.remove(&key);
                    }
                }
                ctx.send(from, TpcMsg::DecideAck { txn, key });
            }
            TpcMsg::ReadReq { req, key } => {
                let (version, value) = match self.store.read(&key) {
                    Some((v, row)) => (v, Some(row)),
                    None => (self.store.version_of(&key), None),
                };
                ctx.send(
                    from,
                    TpcMsg::ReadResp {
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

#[derive(Debug, PartialEq, Eq)]
enum TpcPhase {
    Preparing,
    Deciding,
}

#[derive(Debug)]
struct ActiveTpc {
    started: SimTime,
    keys: Vec<Key>,
    phase: TpcPhase,
    votes_needed: usize,
    yes_votes: usize,
    any_no: bool,
    votes_seen: usize,
    acks_needed: usize,
    acks_seen: usize,
    commit: bool,
}

/// A finished 2PC transaction.
#[derive(Debug, Clone, Copy)]
pub struct TpcDone {
    /// Transaction id.
    pub txn: TxnId,
    /// True if committed.
    pub committed: bool,
    /// When the transaction started.
    pub started: SimTime,
}

/// Client-side 2PC coordinator.
pub struct TpcCoordinator {
    placement: Arc<dyn Placement>,
    replication: usize,
    next_seq: u64,
    active: HashMap<TxnId, ActiveTpc>,
}

impl TpcCoordinator {
    /// Creates a coordinator over `placement` with `replication` replicas
    /// per record.
    pub fn new(placement: Arc<dyn Placement>, replication: usize) -> Self {
        Self {
            placement,
            replication,
            next_seq: 0,
            active: HashMap::new(),
        }
    }

    /// Starts a transaction; empty write-sets commit immediately.
    pub fn commit(
        &mut self,
        updates: Vec<RecordUpdate>,
        ctx: &mut Ctx<'_, TpcMsg>,
    ) -> (TxnId, Option<TpcDone>) {
        let txn = TxnId::new(ctx.self_id, self.next_seq);
        self.next_seq += 1;
        if updates.is_empty() {
            return (
                txn,
                Some(TpcDone {
                    txn,
                    committed: true,
                    started: ctx.now,
                }),
            );
        }
        let mut keys = Vec::new();
        let mut seen = HashSet::new();
        for u in &updates {
            if seen.insert(u.key.clone()) {
                keys.push(u.key.clone());
            }
            for replica in self.placement.replicas(&u.key) {
                ctx.send(
                    replica,
                    TpcMsg::Prepare {
                        txn,
                        update: u.clone(),
                    },
                );
            }
        }
        let total = keys.len() * self.replication;
        self.active.insert(
            txn,
            ActiveTpc {
                started: ctx.now,
                keys,
                phase: TpcPhase::Preparing,
                votes_needed: total,
                yes_votes: 0,
                any_no: false,
                votes_seen: 0,
                acks_needed: total,
                acks_seen: 0,
                commit: false,
            },
        );
        (txn, None)
    }

    /// Feeds a protocol message; returns the completion when phase 2 is
    /// fully acknowledged.
    pub fn on_message(&mut self, msg: TpcMsg, ctx: &mut Ctx<'_, TpcMsg>) -> Option<TpcDone> {
        match msg {
            TpcMsg::PrepareVote { txn, ok, .. } => {
                let active = self.active.get_mut(&txn)?;
                if active.phase != TpcPhase::Preparing {
                    return None;
                }
                active.votes_seen += 1;
                if ok {
                    active.yes_votes += 1;
                } else {
                    active.any_no = true;
                }
                // The paper's baseline waits for *all* storage nodes.
                if active.votes_seen < active.votes_needed {
                    return None;
                }
                active.phase = TpcPhase::Deciding;
                active.commit = !active.any_no;
                let commit = active.commit;
                let keys = active.keys.clone();
                for key in keys {
                    for replica in self.placement.replicas(&key) {
                        ctx.send(
                            replica,
                            TpcMsg::Decide {
                                txn,
                                key: key.clone(),
                                commit,
                            },
                        );
                    }
                }
                None
            }
            TpcMsg::DecideAck { txn, .. } => {
                let active = self.active.get_mut(&txn)?;
                if active.phase != TpcPhase::Deciding {
                    return None;
                }
                active.acks_seen += 1;
                if active.acks_seen < active.acks_needed {
                    return None;
                }
                let active = self.active.remove(&txn).expect("present");
                Some(TpcDone {
                    txn,
                    committed: active.commit,
                    started: active.started,
                })
            }
            _ => None,
        }
    }

    /// In-flight transactions.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::placement::MasterPolicy;
    use mdcc_common::{CommutativeUpdate, DcId, SimDuration, StaticPlacement, TableId, UpdateOp};
    use mdcc_sim::{NetworkModel, World, WorldConfig};
    use mdcc_storage::{AttrConstraint, Catalog, TableSchema};

    fn key(pk: &str) -> Key {
        Key::new(TableId(1), pk)
    }

    fn catalog() -> Arc<Catalog> {
        Arc::new(
            Catalog::new().with(
                TableSchema::new(TableId(1), "item")
                    .with_constraint(AttrConstraint::at_least("stock", 0)),
            ),
        )
    }

    struct Client {
        coord: TpcCoordinator,
        batch: Vec<RecordUpdate>,
        done: Option<(TpcDone, SimTime)>,
    }

    impl Process<TpcMsg> for Client {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TpcMsg>) {
            let batch = self.batch.clone();
            let (_, done) = self.coord.commit(batch, ctx);
            if let Some(d) = done {
                self.done = Some((d, ctx.now));
            }
        }
        fn on_message(&mut self, _from: NodeId, msg: TpcMsg, ctx: &mut Ctx<'_, TpcMsg>) {
            if let Some(d) = self.coord.on_message(msg, ctx) {
                self.done = Some((d, ctx.now));
            }
        }
    }

    fn build(clients: Vec<Vec<RecordUpdate>>) -> (World<TpcMsg>, Vec<NodeId>, Vec<NodeId>) {
        let net = NetworkModel::uniform(5, 100.0, 1.0).with_jitter(0.0);
        let mut world = World::new(
            net,
            WorldConfig {
                seed: 3,
                service_time: SimDuration::ZERO,
                service_ns_per_byte: 0,
                ..WorldConfig::default()
            },
        );
        let storage: Vec<NodeId> = (0..5u8)
            .map(|dc| {
                let mut s = TpcStorage::new(BaselineStore::new(catalog()));
                s.store_mut().load(key("a"), Row::new().with("stock", 10));
                world.spawn(DcId(dc), Box::new(s))
            })
            .collect();
        let matrix: Vec<Vec<NodeId>> = storage.iter().map(|n| vec![*n]).collect();
        let placement = StaticPlacement::new(matrix, MasterPolicy::HashedPerRecord);
        let client_ids: Vec<NodeId> = clients
            .into_iter()
            .enumerate()
            .map(|(i, batch)| {
                let c = Client {
                    coord: TpcCoordinator::new(placement.clone(), 5),
                    batch,
                    done: None,
                };
                world.spawn(DcId((i % 5) as u8), Box::new(c))
            })
            .collect();
        world.run_for(SimDuration::from_secs(10));
        (world, storage, client_ids)
    }

    fn dec(by: i64) -> Vec<RecordUpdate> {
        vec![RecordUpdate::new(
            key("a"),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -by)),
        )]
    }

    #[test]
    fn single_txn_takes_two_round_trips() {
        let (world, storage, clients) = build(vec![dec(1)]);
        let (done, at) = world.get::<Client>(clients[0]).unwrap().done.unwrap();
        assert!(done.committed);
        // Two wide-area round trips at uniform 100 ms RTT ≈ 200 ms.
        assert!(
            (195..=230).contains(&at.as_millis()),
            "expected ~200 ms, got {at}"
        );
        for n in storage {
            let s = world.get::<TpcStorage>(n).unwrap();
            assert_eq!(
                s.store().read(&key("a")).unwrap().1.get_int("stock"),
                Some(9)
            );
            assert_eq!(s.lock_count(), 0, "locks must be released");
        }
    }

    #[test]
    fn constraint_violation_aborts() {
        let (world, storage, clients) = build(vec![dec(11)]);
        let (done, _) = world.get::<Client>(clients[0]).unwrap().done.unwrap();
        assert!(!done.committed);
        for n in storage {
            let s = world.get::<TpcStorage>(n).unwrap();
            assert_eq!(
                s.store().read(&key("a")).unwrap().1.get_int("stock"),
                Some(10)
            );
        }
    }

    #[test]
    fn concurrent_conflicting_txns_do_not_both_commit_unsafely() {
        // Two decrements of 6 against stock 10: 2PC's no-wait locks mean
        // at most one can commit (they contend on the same record).
        let (world, storage, clients) = build(vec![dec(6), dec(6)]);
        let mut committed = 0;
        for c in &clients {
            let (done, _) = world.get::<Client>(*c).unwrap().done.unwrap();
            if done.committed {
                committed += 1;
            }
        }
        assert!(
            committed <= 1,
            "locks must serialize conflicting decrements"
        );
        for n in storage {
            let s = world.get::<TpcStorage>(n).unwrap();
            let stock = s
                .store()
                .read(&key("a"))
                .unwrap()
                .1
                .get_int("stock")
                .unwrap();
            assert!(stock >= 0, "constraint held");
            assert_eq!(s.lock_count(), 0);
        }
    }

    #[test]
    fn read_only_transactions_commit_immediately() {
        let (world, _, clients) = build(vec![vec![]]);
        let (done, at) = world.get::<Client>(clients[0]).unwrap().done.unwrap();
        assert!(done.committed);
        assert_eq!(at, SimTime::ZERO);
    }
}
