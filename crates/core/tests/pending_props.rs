//! The premise a positional `Visibility` rests on (see `Msg::Visibility`):
//! while an acceptor's vote holds a transaction's option open and
//! *accepted*, the transaction is pending there with its whole write-set.
//! The entry goes when the node applies the transaction's outcome, or
//! when sync has settled every record of it the node holds. A
//! coordinator that saw the accepted letter names the records by
//! write-set position, and the node reads them back through that entry.
//!
//! The property drives one node's store through any mix of fast
//! proposals, classic accepts (recovery rounds that adopt a proved-safe
//! cstruct the node has never seen included), outcomes, sync adoptions
//! from a peer, checkpoints and restarts (checkpoint + WAL replay). Every
//! input is write-ahead-logged and applied through the replay entry
//! points, which are the live node's own, so a restart rebuilds exactly
//! what the live store held.

use std::sync::Arc;

use mdcc_common::{
    CommutativeUpdate, Key, NodeId, PhysicalUpdate, ProtocolConfig, Row, SimTime, TableId, TxnId,
    UpdateOp, Version,
};
use mdcc_paxos::acceptor::{Base, Phase2a};
use mdcc_paxos::{Ballot, CStruct, OptionStatus, TxnOption, TxnOutcome};
use mdcc_recovery::{recover_store, wal, write_checkpoint, WalRecord};
use mdcc_sim::Disk;
use mdcc_storage::{AttrConstraint, Catalog, RecordStore, TableSchema};
use proptest::prelude::*;

const TABLE: TableId = TableId(1);
const KEYS: u64 = 3;
const TXNS: u64 = 6;

fn catalog() -> Arc<Catalog> {
    Arc::new(Catalog::new().with(
        TableSchema::new(TABLE, "item").with_constraint(AttrConstraint::at_least("stock", 0)),
    ))
}

fn key(i: u64) -> Key {
    Key::new(TABLE, format!("k{i}"))
}

fn txn(t: u64) -> TxnId {
    TxnId::new(NodeId(9), t)
}

/// Transaction `t`'s write-set: one to three records, starting at `t`'s.
fn write_set(t: u64) -> Arc<[Key]> {
    (0..1 + t % KEYS).map(|i| key((t + i) % KEYS)).collect()
}

/// `t`'s option on `k`, if `k` is in its write-set: a delta for even
/// transactions, a physical write that read version 1 for odd ones.
fn option(t: u64, k: u64) -> Option<TxnOption> {
    let peers = write_set(t);
    let key = key(k);
    peers.contains(&key).then(|| TxnOption {
        txn: txn(t),
        key,
        op: if t.is_multiple_of(2) {
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -2))
        } else {
            UpdateOp::Physical(PhysicalUpdate::write(
                Version(1),
                Row::new().with("stock", 3),
            ))
        },
        peers,
    })
}

/// One generated input: its kind, a transaction, a record and a flag.
type Step = (u8, u64, u64, bool);

fn step() -> impl Strategy<Value = Step> {
    (0u8..9, 0..TXNS, 0..KEYS, any::<bool>())
}

/// The node under test, its disk, and a peer replica it syncs from.
struct World {
    store: RecordStore,
    disk: Disk,
    peer: RecordStore,
    /// The last classic round, so every round outranks the one before.
    round: u32,
}

impl World {
    fn new() -> Self {
        let loaded = || {
            let mut store = RecordStore::new(ProtocolConfig::default(), catalog());
            for k in 0..KEYS {
                store.load(key(k), Row::new().with("stock", 9));
            }
            store
        };
        let (store, peer) = (loaded(), loaded());
        let mut disk = Disk::new();
        write_checkpoint(&mut disk, &store);
        Self {
            store,
            disk,
            peer,
            round: 0,
        }
    }

    /// Logs `record`, then applies it the way replay would.
    fn apply(&mut self, record: WalRecord) {
        wal::append(&mut self.disk, &record);
        wal::replay(&mut self.store, std::slice::from_ref(&record));
    }

    fn run(&mut self, (kind, t, k, flag): Step, at: SimTime) {
        let outcome = if flag {
            TxnOutcome::Committed
        } else {
            TxnOutcome::Aborted
        };
        match kind {
            // A fast proposal, seen by the peer too.
            0..=2 => {
                if let Some(opt) = option(t, k) {
                    let _ = self.peer.fast_propose(opt.clone(), at);
                    self.apply(WalRecord::FastPropose { at, opt });
                }
            }
            // A classic round on `k`: a recovery round adopts a
            // proved-safe cstruct that holds `t`'s option accepted; a
            // pipelined append brings `t`'s option as a new one.
            3 => {
                let Some(opt) = option(t, k) else { return };
                self.round += 1;
                let (base, new_options) = if flag {
                    let mut safe = CStruct::new();
                    safe.append(opt, OptionStatus::Accepted);
                    (Base::ProvedSafe(safe), Vec::new())
                } else {
                    (Base::Held, vec![opt])
                };
                let payload = Box::new(Phase2a {
                    ballot: Ballot::classic(self.round, NodeId(1)),
                    version: self.store.version_of(&key(k)),
                    snapshot: None,
                    base,
                    new_options,
                    close_instance: false,
                    reopen_fast: None,
                });
                let key = key(k);
                self.apply(WalRecord::ClassicAccept { at, key, payload });
            }
            // The outcome reaches the node: every record of `t` it holds.
            4 => {
                for key in write_set(t).iter().cloned() {
                    let (txn, learned_accepted) = (txn(t), flag);
                    self.apply(WalRecord::Visibility {
                        at,
                        key,
                        txn,
                        outcome,
                        learned_accepted,
                    });
                }
            }
            // The outcome reaches the peer only.
            5 => {
                for key in write_set(t).iter() {
                    self.peer.apply_visibility(key, txn(t), outcome, flag);
                }
            }
            // The node adopts the peer's state of `k`.
            6 => {
                let Some(item) = self.peer.sync_item(&key(k)) else {
                    return;
                };
                let (key, snapshot, resolved) = (item.key, item.snapshot, item.resolved);
                if !self.store.sync_relevant(&key, &snapshot, &resolved) {
                    return;
                }
                self.apply(WalRecord::Sync {
                    at,
                    key,
                    snapshot,
                    resolved,
                });
            }
            7 => write_checkpoint(&mut self.disk, &self.store),
            // Crash and restart: the process is gone, the disk stays.
            _ => {
                let cfg = ProtocolConfig::default();
                let (store, _, _) = recover_store(cfg, catalog(), &self.disk).expect("clean disk");
                self.store = store;
            }
        }
    }

    /// Every open option the node's votes hold accepted has its
    /// transaction pending with the whole write-set.
    fn check(&self) {
        for k in 0..KEYS {
            let held = self.store.with_record(&key(k), |rec| {
                let vote = rec.phase2b();
                let entries = vote.cstruct.entries();
                let accepted = entries.filter(|e| e.status.is_accepted());
                let open = accepted.filter(|e| rec.outcome_of(e.opt.txn).is_none());
                open.map(|e| (e.opt.txn, Arc::clone(&e.opt.peers)))
                    .collect::<Vec<_>>()
            });
            for (txn, peers) in held.unwrap_or_default() {
                let pending = self.store.pending_peers(txn);
                prop_assert!(
                    pending.is_some_and(|p| **p == *peers),
                    "k{k}: {txn:?} held accepted, pending {pending:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn an_accepted_letter_keeps_its_transaction_pending(
        steps in prop::collection::vec(step(), 1..48)
    ) {
        let mut world = World::new();
        for (i, step) in steps.into_iter().enumerate() {
            world.run(step, SimTime::from_millis(10 * (i as u64 + 1)));
            world.check();
        }
    }
}
