//! Property test: [`AcceptorRecord::encode_state`] writes the encoded
//! export, the one a restart reads back — decoded as an `AcceptorState`
//! and rebuilt by [`AcceptorRecord::from_state`], it is a record that
//! encodes to the same bytes — and the offset it returns ends the
//! committed projection [`AcceptorRecord::encode_committed`] writes.
//!
//! Checkpoints and the log-structured engine's segment entries are
//! written through `encode_state` and read back through `from_state`;
//! a field lost or reordered on the way would change a restarted
//! replica's state or corrupt a spilled record. Every history starts
//! with a fixed prefix that fills each collection of the state —
//! outcomes, settled and executed sets, the closed-instance ring, the
//! inherited-folded ring — and continues with random proposals,
//! resolutions, physical writes and snapshot adoptions; the round trip
//! is checked after every step.

use std::sync::Arc;

use mdcc_common::wire::{from_bytes, to_bytes, Enc, Wire};
use mdcc_common::{
    CommutativeUpdate, Key, NodeId, PhysicalUpdate, Row, TableId, TxnId, UpdateOp, Version,
};
use mdcc_paxos::{
    AcceptorRecord, AcceptorState, AttrConstraint, Ballot, RecordSnapshot, Resolution, TxnOption,
    TxnOutcome,
};
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

fn constraints() -> Arc<[AttrConstraint]> {
    Arc::from(vec![AttrConstraint::at_least("stock", 0)])
}

fn assert_round_trip(acc: &AcceptorRecord) {
    let mut out = Enc::new();
    out.u8(0xA5); // a prefix, so the returned offset is absolute
    let committed_end = acc.encode_state(&mut out);
    let state: AcceptorState = from_bytes(&out.as_slice()[1..]).expect("own encoding decodes");
    let rebuilt = AcceptorRecord::from_state(constraints(), 5, 4, 32, state);
    let mut again = Enc::new();
    again.u8(0xA5);
    assert_eq!(rebuilt.encode_state(&mut again), committed_end);
    assert_eq!(again.as_slice(), out.as_slice());
    let mut committed = Enc::new();
    acc.encode_committed(&mut committed);
    assert_eq!(&out.as_slice()[1..committed_end], committed.as_slice());
}

/// Fills every collection of the state.
fn prefixed_acceptor() -> AcceptorRecord {
    let mut acc =
        AcceptorRecord::with_value(constraints(), 5, 4, 32, Row::new().with("stock", 1_000));
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
    assert!(acc.outcome_of(txn(1)).is_some(), "an outcome");
    // Executed here without an outcome on record: in the executed set,
    // hence settled too (nothing is truncated this early).
    assert_eq!(acc.settled_outcome(txn(900)), Some(TxnOutcome::Committed));
    let in_ring = acc.sync_payload().iter().any(|(opt, _)| opt.txn == txn(1));
    assert!(in_ring, "a closed instance's delta");
    assert!(
        acc.snapshot().folded.contains(&txn(900)),
        "an inherited txn"
    );
    assert!(!acc.cstruct().is_empty());
    acc
}

/// A state's bytes, laid out field by field, with the given outcome and
/// executed transaction lists written as they are.
fn state_bytes(outcomes: &[u64], resolved: &[u64]) -> Vec<u8> {
    let committed = Resolution {
        outcome: TxnOutcome::Committed,
        learned_accepted: true,
    };
    let nothing: Vec<TxnId> = Vec::new();
    let mut out = Enc::new();
    Version(3).encode(&mut out);
    Some(Row::new().with("stock", 5)).encode(&mut out);
    None::<Row>.encode(&mut out);
    Ballot::INITIAL_FAST.encode(&mut out);
    None::<Ballot>.encode(&mut out);
    nothing.encode(&mut out); // cstruct entries
    let outcomes: Vec<(TxnId, Resolution)> =
        outcomes.iter().map(|s| (txn(*s), committed)).collect();
    outcomes.encode(&mut out);
    let resolved: Vec<TxnId> = resolved.iter().map(|s| txn(*s)).collect();
    resolved.encode(&mut out);
    false.encode(&mut out); // close on resolve
    None::<Ballot>.encode(&mut out);
    nothing.encode(&mut out); // closed-instance ring
    nothing.encode(&mut out); // inherited-folded ring
    nothing.encode(&mut out); // settle log
    0u64.encode(&mut out); // settle sequence
    0u64.encode(&mut out); // cstruct epoch
    out.finish()
}

/// Each state has one encoding: the outcome and executed lists are
/// written strictly ascending by transaction, and a list with a repeat
/// or out of order — which would load to the same state as some other
/// blob — does not decode.
#[test]
fn a_state_decodes_only_from_its_one_encoding() {
    let canonical = state_bytes(&[1, 2], &[1, 2]);
    let state: AcceptorState = from_bytes(&canonical).expect("canonical state decodes");
    assert_eq!(
        to_bytes(&state),
        canonical,
        "the layout above is the state's"
    );
    for (outcomes, resolved) in [
        (&[1, 1][..], &[1, 2][..]),
        (&[2, 1], &[1, 2]),
        (&[1, 2], &[2, 2]),
        (&[1, 2], &[2, 1]),
    ] {
        let bytes = state_bytes(outcomes, resolved);
        assert!(
            from_bytes::<AcceptorState>(&bytes).is_err(),
            "outcomes {outcomes:?} and executed {resolved:?} decoded"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn encode_state_is_the_encoded_export(
        steps in prop::collection::vec((0u8..6, 1i64..4, any::<bool>()), 0..48),
    ) {
        let mut acc = prefixed_acceptor();
        assert_round_trip(&acc);
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
            assert_round_trip(&acc);
        }
    }
}
