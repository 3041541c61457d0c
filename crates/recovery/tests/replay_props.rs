//! Property tests of the WAL-replay invariant the crash-recovery
//! subsystem rests on (§3.2.3: the log of learned options lets any node
//! reconstruct transaction state).
//!
//! For random command logs the tests check that:
//!
//! * replay reconstructs exactly the live store (same committed bytes,
//!   same exported state);
//! * checkpointing at *any* prefix and replaying the remaining suffix
//!   reconstructs the same state — compaction is transparent;
//! * replaying a log twice equals replaying it once — every entry point
//!   is idempotent under re-delivery, so a crash *during* recovery (a
//!   half-replayed WAL replayed again) is harmless.
//!
//! Logs written by a node that *parks* stale proposals (a `FastPropose`
//! is logged where it was judged, not where it arrived) are replayed in
//! `crates/core/tests/parked_props.rs`, which can drive the node itself.

use std::sync::Arc;

use mdcc_common::{
    CommutativeUpdate, Key, NodeId, PhysicalUpdate, ProtocolConfig, Row, SimTime, TableId, TxnId,
    UpdateOp,
};
use mdcc_paxos::{Ballot, TxnOption, TxnOutcome};
use mdcc_recovery::{committed_bytes, recover_store, wal, write_checkpoint, WalRecord};
use mdcc_sim::Disk;
use mdcc_storage::{AttrConstraint, Catalog, RecordStore, TableSchema};
use proptest::prelude::*;

const TABLE: TableId = TableId(1);
const KEYS: u64 = 4;

fn catalog() -> Arc<Catalog> {
    Arc::new(Catalog::new().with(
        TableSchema::new(TABLE, "item").with_constraint(AttrConstraint::at_least("stock", 0)),
    ))
}

fn key(i: u64) -> Key {
    Key::new(TABLE, format!("k{i}"))
}

fn fresh_store() -> RecordStore {
    RecordStore::new(ProtocolConfig::default(), catalog())
}

/// One generated step of a command log.
#[derive(Debug, Clone, Copy)]
struct Step {
    kind: u8,
    key: u64,
    amount: i64,
    commit: bool,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0u8..8, 0u64..KEYS, 1i64..4, any::<bool>()).prop_map(|(kind, key, amount, commit)| Step {
        kind,
        key,
        amount,
        commit,
    })
}

/// Turns generated steps into a well-formed command log: loads first,
/// then proposals/visibilities/promises with monotone timestamps.
fn build_log(steps: &[Step]) -> Vec<WalRecord> {
    let mut log: Vec<WalRecord> = (0..KEYS)
        .map(|i| WalRecord::Load {
            key: key(i),
            row: Row::new().with("stock", 100),
        })
        .collect();
    let mut open: Vec<(TxnId, Key)> = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        let at = SimTime::from_millis((i as u64 + 1) * 10);
        match step.kind {
            // Mostly proposals: commutative deltas, some physical writes.
            0..=4 => {
                let txn = TxnId::new(NodeId(9), i as u64);
                let op = if step.kind == 4 {
                    UpdateOp::Physical(PhysicalUpdate::write(
                        mdcc_common::Version(1),
                        Row::new().with("stock", 50 + step.amount),
                    ))
                } else {
                    UpdateOp::Commutative(CommutativeUpdate::delta("stock", -step.amount))
                };
                let opt = TxnOption::solo(txn, key(step.key), op);
                open.push((txn, key(step.key)));
                log.push(WalRecord::FastPropose { at, opt });
            }
            // Resolve a previously proposed transaction.
            5 | 6 => {
                if let Some((txn, k)) = open.get(step.key as usize % open.len().max(1)).cloned() {
                    log.push(WalRecord::Visibility {
                        at,
                        key: k,
                        txn,
                        outcome: if step.commit {
                            TxnOutcome::Committed
                        } else {
                            TxnOutcome::Aborted
                        },
                        learned_accepted: step.commit,
                    });
                }
            }
            // A classic promise lands.
            _ => {
                log.push(WalRecord::Phase1a {
                    key: key(step.key),
                    ballot: Ballot::classic(step.amount as u32, NodeId(step.key as u32)),
                });
            }
        }
    }
    log
}

fn state_fingerprint(store: &RecordStore) -> (Vec<u8>, String, usize) {
    (
        committed_bytes(store),
        format!("{:?}", store.export_state()),
        store.pending_len(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn replay_equals_live_application(steps in prop::collection::vec(step_strategy(), 1..40)) {
        let log = build_log(&steps);
        // Live node: applies commands as they arrive and WALs them.
        let mut live = fresh_store();
        let mut disk = Disk::new();
        for record in &log {
            wal::append(&mut disk, record);
        }
        wal::replay(&mut live, &log);
        // Crashed node: rebuilds purely from the disk.
        let (rebuilt, info) =
            recover_store(ProtocolConfig::default(), catalog(), &disk).expect("clean disk");
        prop_assert_eq!(info.wal_records_replayed, log.len() as u64);
        prop_assert_eq!(state_fingerprint(&rebuilt), state_fingerprint(&live));
    }

    #[test]
    fn any_prefix_checkpoint_plus_suffix_replay_is_lossless(
        steps in prop::collection::vec(step_strategy(), 1..40),
        cut_seed in any::<u64>(),
    ) {
        let log = build_log(&steps);
        let cut = (cut_seed as usize) % (log.len() + 1);
        // Reference: the full log replayed in order.
        let mut reference = fresh_store();
        wal::replay(&mut reference, &log);
        // Checkpoint at `cut`, then the suffix arrives as WAL tail.
        let mut prefix_store = fresh_store();
        wal::replay(&mut prefix_store, &log[..cut]);
        let mut disk = Disk::new();
        write_checkpoint(&mut disk, &prefix_store);
        for record in &log[cut..] {
            wal::append(&mut disk, record);
        }
        let (rebuilt, info) =
            recover_store(ProtocolConfig::default(), catalog(), &disk).expect("clean disk");
        prop_assert_eq!(info.wal_records_replayed, (log.len() - cut) as u64);
        prop_assert_eq!(
            state_fingerprint(&rebuilt),
            state_fingerprint(&reference),
            "checkpoint at {} of {} not transparent",
            cut,
            log.len()
        );
    }

    #[test]
    fn duplicated_commands_replay_idempotently(
        steps in prop::collection::vec(step_strategy(), 1..30),
        dup_mask in any::<u64>(),
    ) {
        // The network re-delivers messages; the WAL then holds the same
        // command twice. Replay must land on the same committed state.
        let log = build_log(&steps);
        let mut clean = fresh_store();
        wal::replay(&mut clean, &log);

        let mut duplicated: Vec<WalRecord> = Vec::new();
        for (i, record) in log.iter().enumerate() {
            duplicated.push(record.clone());
            if dup_mask >> (i % 64) & 1 == 1 {
                duplicated.push(record.clone());
            }
        }
        let mut dup_store = fresh_store();
        wal::replay(&mut dup_store, &duplicated);
        prop_assert_eq!(committed_bytes(&dup_store), committed_bytes(&clean));
        prop_assert_eq!(dup_store.pending_len(), clean.pending_len());
    }

    #[test]
    fn recovery_is_deterministic(steps in prop::collection::vec(step_strategy(), 1..30)) {
        // A crash *during* recovery is harmless: recovery never mutates
        // the disk, and rebuilding from the same disk twice produces
        // identical stores.
        let log = build_log(&steps);
        let mut disk = Disk::new();
        for record in &log {
            wal::append(&mut disk, record);
        }
        let (a, _) = recover_store(ProtocolConfig::default(), catalog(), &disk).expect("clean");
        let (b, _) = recover_store(ProtocolConfig::default(), catalog(), &disk).expect("clean");
        prop_assert_eq!(state_fingerprint(&a), state_fingerprint(&b));
    }
}
