//! Property test: [`AcceptorRecord::encode_state`] writes exactly the
//! bytes of encoding [`AcceptorRecord::export_state`], and the offset it
//! returns ends the committed projection [`AcceptorRecord::encode_committed`]
//! writes.
//!
//! Checkpoints and the log-structured engine's segment entries are
//! written through `encode_state`, and read back as an `AcceptorState`;
//! any difference would change a checkpoint's bytes or corrupt a
//! spilled record. Every history starts with a fixed prefix that fills
//! each collection of the state — outcomes, settled and executed sets,
//! the closed-instance ring, the inherited-folded ring — and continues
//! with random proposals, resolutions, physical writes and snapshot
//! adoptions; the encodings are compared after every step.

use std::sync::Arc;

use mdcc_common::wire::{to_bytes, Enc};
use mdcc_common::{CommutativeUpdate, Key, NodeId, PhysicalUpdate, Row, TableId, TxnId, UpdateOp};
use mdcc_paxos::{AcceptorRecord, AttrConstraint, RecordSnapshot, TxnOption, TxnOutcome};
use proptest::prelude::*;

fn key() -> Key {
    Key::new(TableId(0), "item")
}

fn txn(seq: u64) -> TxnId {
    TxnId::new(NodeId(9), seq)
}

fn delta(seq: u64, amount: i64) -> TxnOption {
    TxnOption::solo(
        txn(seq),
        key(),
        UpdateOp::Commutative(CommutativeUpdate::delta("stock", -amount)),
    )
}

/// A physical write that read the record's current version.
fn write(acc: &AcceptorRecord, seq: u64, stock: i64) -> TxnOption {
    TxnOption::solo(
        txn(seq),
        key(),
        UpdateOp::Physical(PhysicalUpdate::write(
            acc.version(),
            Row::new().with("stock", stock),
        )),
    )
}

/// A newer snapshot whose value folds `folded`, none of which executed
/// here.
fn adopt_newer(acc: &mut AcceptorRecord, stock: i64, folded: Vec<TxnId>) {
    let snapshot = RecordSnapshot {
        version: acc.version().next(),
        value: Some(Row::new().with("stock", stock)),
        folded,
    };
    acc.sync_from_peer(&snapshot, &[]);
}

fn assert_encodings_agree(acc: &AcceptorRecord) {
    let mut out = Enc::new();
    out.u8(0xA5); // a prefix, so the returned offset is absolute
    let committed_end = acc.encode_state(&mut out);
    assert_eq!(&out.as_slice()[1..], &to_bytes(&acc.export_state())[..]);
    let mut committed = Enc::new();
    acc.encode_committed(&mut committed);
    assert_eq!(&out.as_slice()[1..committed_end], committed.as_slice());
}

/// Fills every collection of the state.
fn prefixed_acceptor() -> AcceptorRecord {
    let constraints: Arc<[AttrConstraint]> = Arc::from(vec![AttrConstraint::at_least("stock", 0)]);
    let mut acc =
        AcceptorRecord::with_value(constraints, 5, 4, 32, Row::new().with("stock", 1_000));
    for seq in 1..=3 {
        acc.fast_propose(delta(seq, 1));
        acc.apply_visibility(txn(seq), TxnOutcome::Committed, true);
    }
    // A committed physical write closes the instance: the deltas move
    // to the closed-instance ring.
    let w = write(&acc, 4, 500);
    acc.fast_propose(w);
    acc.apply_visibility(txn(4), TxnOutcome::Committed, true);
    acc.fast_propose(delta(5, 2));
    acc.apply_visibility(txn(5), TxnOutcome::Committed, true);
    // Adopting a newer snapshot that folds a transaction never seen here.
    adopt_newer(&mut acc, 700, vec![txn(900), txn(5)]);
    acc.fast_propose(delta(6, 1));
    let state = acc.export_state();
    assert!(!state.outcomes.is_empty());
    assert!(!state.resolved.is_empty());
    assert!(!state.settle_log.is_empty());
    assert!(!state.closed_resolved.is_empty());
    assert!(!state.inherited_folded.is_empty());
    assert!(!state.entries.is_empty());
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn encode_state_is_the_encoded_export(
        steps in prop::collection::vec((0u8..6, 1i64..4, any::<bool>()), 0..48),
    ) {
        let mut acc = prefixed_acceptor();
        assert_encodings_agree(&acc);
        for (i, (kind, amount, flag)) in steps.into_iter().enumerate() {
            let seq = 10 + i as u64;
            match kind {
                0 | 1 => {
                    acc.fast_propose(delta(seq, amount));
                }
                2 | 3 => {
                    // Resolve an earlier proposal (possibly unknown or
                    // already resolved: duplicates are part of life).
                    let target = txn(seq - 1 - (amount as u64 % 3));
                    let outcome = if flag { TxnOutcome::Committed } else { TxnOutcome::Aborted };
                    acc.apply_visibility(target, outcome, flag);
                }
                4 => {
                    let w = write(&acc, seq, 100 * amount);
                    acc.fast_propose(w);
                    if flag {
                        acc.apply_visibility(txn(seq), TxnOutcome::Committed, true);
                    }
                }
                _ => adopt_newer(&mut acc, 50 * amount, vec![txn(seq - 1), txn(10_000 + seq)]),
            }
            assert_encodings_agree(&acc);
        }
    }
}
