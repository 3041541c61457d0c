//! Megastore\* — the paper's re-implementation of Megastore's replication
//! protocol (§5.2).
//!
//! All data lives in a **single entity group** (the paper's setup, which
//! avoids Megastore's cross-group 2PC). A master serializes write
//! transactions onto commit-log positions agreed via Multi-Paxos: one log
//! position — i.e. one transaction — is in flight at a time, which is the
//! scalability bottleneck the paper measures. Two of the paper's
//! favourable adjustments are included:
//!
//! * the Paxos-CP improvement: non-conflicting transactions commit on
//!   subsequent log positions instead of aborting;
//! * master and all clients co-located in one data center, so commits
//!   need no extra master hop.
//!
//! The master is stable (no failover is modeled — the paper's
//! experiments never fail it), so Phase 1 is elided exactly as
//! Multi-Paxos allows.

use std::collections::{HashMap, VecDeque};

use mdcc_common::{Key, NodeId, RecordUpdate, Row, SimTime, TxnId, Version};
use mdcc_sim::{Ctx, Process};

use crate::store::BaselineStore;

/// Megastore* messages.
#[derive(Debug, Clone)]
pub enum MegaMsg {
    /// Client → master: commit this write-set (with the versions read).
    CommitReq {
        /// Client-chosen transaction id.
        txn: TxnId,
        /// The write-set.
        updates: Vec<RecordUpdate>,
        /// Versions the client read (conflict detection at the
        /// serialization point).
        read_versions: Vec<(Key, Version)>,
    },
    /// Master → client: outcome.
    CommitResp {
        /// Transaction id.
        txn: TxnId,
        /// True if the transaction got a log position and committed.
        committed: bool,
    },
    /// Master → replicas: accept a log position (Multi-Paxos phase 2).
    LogAccept {
        /// Log position.
        pos: u64,
        /// Transaction occupying it.
        txn: TxnId,
    },
    /// Replica → master: position accepted.
    LogAck {
        /// Log position.
        pos: u64,
    },
    /// Master → replicas: apply a decided position's write-set (keeps
    /// local reads fresh-ish; asynchronous).
    Apply {
        /// Log position.
        pos: u64,
        /// The write-set to apply.
        updates: Vec<RecordUpdate>,
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

/// A Megastore* log replica: acks log positions, applies decided
/// write-sets, serves local reads.
pub struct MegaReplica {
    store: BaselineStore,
    applied: u64,
}

impl MegaReplica {
    /// Creates a replica over `store`.
    pub fn new(store: BaselineStore) -> Self {
        Self { store, applied: 0 }
    }

    /// Bulk-load access.
    pub fn store_mut(&mut self) -> &mut BaselineStore {
        &mut self.store
    }

    /// Read access (tests/metrics).
    pub fn store(&self) -> &BaselineStore {
        &self.store
    }

    /// Number of applied log positions.
    pub fn applied(&self) -> u64 {
        self.applied
    }
}

impl Process<MegaMsg> for MegaReplica {
    fn on_message(&mut self, from: NodeId, msg: MegaMsg, ctx: &mut Ctx<'_, MegaMsg>) {
        match msg {
            MegaMsg::LogAccept { pos, .. } => {
                // Stable master ⇒ always acceptable (Multi-Paxos with a
                // held ballot).
                ctx.send(from, MegaMsg::LogAck { pos });
            }
            MegaMsg::Apply { pos, updates } => {
                for u in &updates {
                    self.store.apply(u);
                }
                self.applied = self.applied.max(pos);
            }
            MegaMsg::ReadReq { req, key } => {
                let (version, value) = match self.store.read(&key) {
                    Some((v, row)) => (v, Some(row)),
                    None => (self.store.version_of(&key), None),
                };
                ctx.send(
                    from,
                    MegaMsg::ReadResp {
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

struct QueuedTxn {
    txn: TxnId,
    client: NodeId,
    updates: Vec<RecordUpdate>,
}

struct InFlight {
    txn: TxnId,
    client: NodeId,
    updates: Vec<RecordUpdate>,
    acks: usize,
}

/// Master counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct MegaStats {
    /// Transactions committed through the log.
    pub committed: u64,
    /// Transactions aborted at the serialization point.
    pub aborted: u64,
    /// High-water mark of the queue length (the Figure 3 queueing
    /// collapse shows up here).
    pub max_queue: usize,
}

/// The Megastore* master: serializes the entity group's commit log.
pub struct MegaMaster {
    store: BaselineStore,
    replicas: Vec<NodeId>,
    classic_quorum: usize,
    queue: VecDeque<QueuedTxn>,
    inflight: Option<InFlight>,
    log_pos: u64,
    stats: MegaStats,
}

impl MegaMaster {
    /// Creates a master over its authoritative `store`. `replicas` are
    /// the *other* log replicas; the master itself counts as one ack.
    pub fn new(store: BaselineStore, replicas: Vec<NodeId>, classic_quorum: usize) -> Self {
        Self {
            store,
            replicas,
            classic_quorum,
            queue: VecDeque::new(),
            inflight: None,
            log_pos: 0,
            stats: MegaStats::default(),
        }
    }

    /// Bulk-load access.
    pub fn store_mut(&mut self) -> &mut BaselineStore {
        &mut self.store
    }

    /// Master counters.
    pub fn stats(&self) -> MegaStats {
        self.stats
    }

    /// Current queue length.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Serialization point: validate against the entity group's committed
    /// state. Non-conflicting transactions proceed to a log position
    /// (Paxos-CP); conflicting ones abort immediately. Physical updates
    /// carry the version the client read, so write-write conflicts are
    /// caught here; commutative updates never version-conflict — only
    /// their integrity constraints can reject them.
    fn admissible(&self, q: &QueuedTxn) -> bool {
        q.updates.iter().all(|u| self.store.validate(u).is_ok())
    }

    fn pump(&mut self, ctx: &mut Ctx<'_, MegaMsg>) {
        while self.inflight.is_none() {
            let Some(q) = self.queue.pop_front() else {
                return;
            };
            if !self.admissible(&q) {
                self.stats.aborted += 1;
                ctx.send(
                    q.client,
                    MegaMsg::CommitResp {
                        txn: q.txn,
                        committed: false,
                    },
                );
                continue;
            }
            let pos = self.log_pos;
            self.log_pos += 1;
            for &r in &self.replicas {
                ctx.send(r, MegaMsg::LogAccept { pos, txn: q.txn });
            }
            self.inflight = Some(InFlight {
                txn: q.txn,
                client: q.client,
                updates: q.updates,
                // The master's own (local) log replica acks implicitly.
                acks: 1,
            });
        }
    }
}

impl Process<MegaMsg> for MegaMaster {
    fn on_message(&mut self, from: NodeId, msg: MegaMsg, ctx: &mut Ctx<'_, MegaMsg>) {
        match msg {
            MegaMsg::CommitReq {
                txn,
                updates,
                read_versions,
            } => {
                // `read_versions` documents the client's read snapshot; the
                // write-write check rides on the physical updates' vread.
                let _ = read_versions;
                self.queue.push_back(QueuedTxn {
                    txn,
                    client: from,
                    updates,
                });
                self.stats.max_queue = self.stats.max_queue.max(self.queue.len());
                self.pump(ctx);
            }
            MegaMsg::LogAck { pos } => {
                let Some(inflight) = &mut self.inflight else {
                    return;
                };
                if pos + 1 != self.log_pos {
                    return; // Stale ack for an older position.
                }
                inflight.acks += 1;
                if inflight.acks < self.classic_quorum {
                    return;
                }
                // Position decided: apply authoritatively, bump committed
                // versions, fan out the apply, answer the client.
                let done = self.inflight.take().expect("checked");
                for u in &done.updates {
                    self.store.apply(u);
                }
                for &r in &self.replicas {
                    ctx.send(
                        r,
                        MegaMsg::Apply {
                            pos: self.log_pos - 1,
                            updates: done.updates.clone(),
                        },
                    );
                }
                self.stats.committed += 1;
                ctx.send(
                    done.client,
                    MegaMsg::CommitResp {
                        txn: done.txn,
                        committed: true,
                    },
                );
                self.pump(ctx);
            }
            MegaMsg::ReadReq { req, key } => {
                let (version, value) = match self.store.read(&key) {
                    Some((v, row)) => (v, Some(row)),
                    None => (self.store.version_of(&key), None),
                };
                ctx.send(
                    from,
                    MegaMsg::ReadResp {
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

/// A finished Megastore* transaction (client side).
#[derive(Debug, Clone, Copy)]
pub struct MegaDone {
    /// Transaction id.
    pub txn: TxnId,
    /// Whether the master committed it.
    pub committed: bool,
    /// When the client sent the commit request.
    pub started: SimTime,
}

/// Client-side tracking for Megastore* commits.
pub struct MegaClient {
    master: NodeId,
    next_seq: u64,
    pending: HashMap<TxnId, SimTime>,
}

impl MegaClient {
    /// Creates a client of `master`.
    pub fn new(master: NodeId) -> Self {
        Self {
            master,
            next_seq: 0,
            pending: HashMap::new(),
        }
    }

    /// Sends a commit request; empty write-sets commit immediately.
    pub fn commit(
        &mut self,
        updates: Vec<RecordUpdate>,
        read_versions: Vec<(Key, Version)>,
        ctx: &mut Ctx<'_, MegaMsg>,
    ) -> (TxnId, Option<MegaDone>) {
        let txn = TxnId::new(ctx.self_id, self.next_seq);
        self.next_seq += 1;
        if updates.is_empty() {
            return (
                txn,
                Some(MegaDone {
                    txn,
                    committed: true,
                    started: ctx.now,
                }),
            );
        }
        self.pending.insert(txn, ctx.now);
        ctx.send(
            self.master,
            MegaMsg::CommitReq {
                txn,
                updates,
                read_versions,
            },
        );
        (txn, None)
    }

    /// Feeds a master response.
    pub fn on_message(&mut self, msg: &MegaMsg) -> Option<MegaDone> {
        let MegaMsg::CommitResp { txn, committed } = msg else {
            return None;
        };
        let started = self.pending.remove(txn)?;
        Some(MegaDone {
            txn: *txn,
            committed: *committed,
            started,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::{CommutativeUpdate, DcId, PhysicalUpdate, SimDuration, TableId, UpdateOp};
    use mdcc_sim::{NetworkModel, World, WorldConfig};
    use mdcc_storage::{AttrConstraint, Catalog, TableSchema};
    use std::sync::Arc;

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
        mega: MegaClient,
        batches: Vec<Vec<RecordUpdate>>,
        next: usize,
        done: Vec<(MegaDone, SimTime)>,
    }

    impl Client {
        fn issue(&mut self, ctx: &mut Ctx<'_, MegaMsg>) {
            if self.next >= self.batches.len() {
                return;
            }
            let batch = self.batches[self.next].clone();
            self.next += 1;
            let reads = batch.iter().map(|u| (u.key.clone(), Version(1))).collect();
            let (_, done) = self.mega.commit(batch, reads, ctx);
            if let Some(d) = done {
                self.done.push((d, ctx.now));
                self.issue(ctx);
            }
        }
    }

    impl Process<MegaMsg> for Client {
        fn on_start(&mut self, ctx: &mut Ctx<'_, MegaMsg>) {
            self.issue(ctx);
        }
        fn on_message(&mut self, _from: NodeId, msg: MegaMsg, ctx: &mut Ctx<'_, MegaMsg>) {
            if let Some(d) = self.mega.on_message(&msg) {
                self.done.push((d, ctx.now));
                self.issue(ctx);
            }
        }
    }

    /// Master in DC0, replicas in DC1–4, client in DC0 (the paper's
    /// favourable Megastore* placement).
    fn build(
        batches: Vec<Vec<Vec<RecordUpdate>>>,
    ) -> (World<MegaMsg>, NodeId, Vec<NodeId>, Vec<NodeId>) {
        let net = NetworkModel::uniform(5, 100.0, 1.0).with_jitter(0.0);
        let mut world = World::new(
            net,
            WorldConfig {
                seed: 5,
                service_time: SimDuration::ZERO,
                service_ns_per_byte: 0,
                ..WorldConfig::default()
            },
        );
        let replica_ids: Vec<NodeId> = (1..5u8)
            .map(|dc| {
                let mut r = MegaReplica::new(BaselineStore::new(catalog()));
                r.store_mut().load(key("a"), Row::new().with("stock", 10));
                world.spawn(DcId(dc), Box::new(r))
            })
            .collect();
        let mut master_store = BaselineStore::new(catalog());
        master_store.load(key("a"), Row::new().with("stock", 10));
        let master = world.spawn(
            DcId(0),
            Box::new(MegaMaster::new(master_store, replica_ids.clone(), 3)),
        );
        let clients: Vec<NodeId> = batches
            .into_iter()
            .map(|b| {
                world.spawn(
                    DcId(0),
                    Box::new(Client {
                        mega: MegaClient::new(master),
                        batches: b,
                        next: 0,
                        done: Vec::new(),
                    }),
                )
            })
            .collect();
        world.run_for(SimDuration::from_secs(30));
        (world, master, replica_ids, clients)
    }

    fn dec(by: i64) -> Vec<RecordUpdate> {
        vec![RecordUpdate::new(
            key("a"),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -by)),
        )]
    }

    #[test]
    fn single_commit_takes_one_quorum_round() {
        let (world, master, _, clients) = build(vec![vec![dec(1)]]);
        let c = world.get::<Client>(clients[0]).unwrap();
        let (done, at) = c.done[0];
        assert!(done.committed);
        // Client → local master (~1 ms) + quorum of 3 (master + 2 remote
        // acks at 100 ms RTT) + reply ≈ 100 ms.
        assert!((95..=130).contains(&at.as_millis()), "{at}");
        let m = world.get::<MegaMaster>(master).unwrap();
        assert_eq!(m.stats().committed, 1);
    }

    #[test]
    fn transactions_serialize_one_log_position_at_a_time() {
        // Ten clients, one txn each: commits spaced by a full quorum
        // round each because only one position is in flight.
        let batches = (0..10).map(|_| vec![dec(1)]).collect();
        let (world, master, _, clients) = build(batches);
        let mut times: Vec<u64> = clients
            .iter()
            .map(|c| world.get::<Client>(*c).unwrap().done[0].1.as_millis())
            .collect();
        times.sort_unstable();
        let m = world.get::<MegaMaster>(master).unwrap();
        assert_eq!(m.stats().committed, 10);
        // The last commit waits ~10 serialized quorum rounds.
        assert!(
            times[9] >= 9 * 100,
            "serialization must stack latencies, got {times:?}"
        );
        assert!(m.stats().max_queue >= 5, "queue must have built up");
    }

    #[test]
    fn conflicting_write_aborts_at_serialization_point() {
        // Two physical writes against the same version: the second is a
        // write-write conflict once the first commits.
        let w = |v: i64| {
            vec![RecordUpdate::new(
                key("a"),
                UpdateOp::Physical(PhysicalUpdate::write(
                    Version(1),
                    Row::new().with("stock", v),
                )),
            )]
        };
        let (world, master, _, clients) = build(vec![vec![w(1)], vec![w(2)]]);
        let outcomes: Vec<bool> = clients
            .iter()
            .map(|c| world.get::<Client>(*c).unwrap().done[0].0.committed)
            .collect();
        assert_eq!(outcomes.iter().filter(|c| **c).count(), 1);
        let m = world.get::<MegaMaster>(master).unwrap();
        assert_eq!(m.stats().committed, 1);
        assert_eq!(m.stats().aborted, 1);
    }

    #[test]
    fn replicas_apply_decided_positions() {
        let (world, _, replicas, _) = build(vec![vec![dec(4)]]);
        for r in replicas {
            let rep = world.get::<MegaReplica>(r).unwrap();
            assert_eq!(
                rep.store().read(&key("a")).unwrap().1.get_int("stock"),
                Some(6)
            );
        }
    }

    #[test]
    fn constraint_violations_abort() {
        let (world, master, _, clients) = build(vec![vec![dec(11)]]);
        let c = world.get::<Client>(clients[0]).unwrap();
        assert!(!c.done[0].0.committed);
        let m = world.get::<MegaMaster>(master).unwrap();
        assert_eq!(m.stats().aborted, 1);
    }
}
