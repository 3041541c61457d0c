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
//! Generated logs hold both shapes of `ClassicAccept` payload: the lean
//! broadcast (no snapshot: judged where the record is in the instance,
//! a no-op where it is behind) and the answer to a behind acceptor (the
//! snapshot it adopts).
//!
//! A deterministic test at the end replays a lease handoff: Phase2a
//! appends that name the cstruct they extend are accepted or Nacked the
//! same way live and on replay, and a refused one leaves no trace — nor
//! does a lean one this replica was behind on.
//!
//! Logs written by a node that *parks* stale proposals (a `FastPropose`
//! is logged where it was judged, not where it arrived) are replayed in
//! `crates/core/tests/parked_props.rs`, which can drive the node itself.

use std::sync::Arc;

use mdcc_common::{
    CommutativeUpdate, Key, NodeId, PhysicalUpdate, ProtocolConfig, Row, SimTime, TableId, TxnId,
    UpdateOp,
};
use mdcc_paxos::acceptor::{Base, ClassicAccept, Phase2a, RecordSnapshot};
use mdcc_paxos::{Ballot, CStruct, TxnOption, TxnOutcome};
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
    (0u8..10, 0u64..KEYS, 1i64..4, any::<bool>()).prop_map(|(kind, key, amount, commit)| Step {
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
            7 => {
                log.push(WalRecord::Phase1a {
                    key: key(step.key),
                    ballot: Ballot::classic(step.amount as u32, NodeId(step.key as u32)),
                });
            }
            // A classic append, as the node logs it: the lean broadcast
            // (kind 8; at a version the record may or may not have
            // reached) or the answer that carries the snapshot a behind
            // record adopts (kind 9). Ballots rise with the log so most
            // are judged, and some reopen fast ballots behind them.
            _ => {
                let ballot = Ballot::classic(10 + i as u32, NodeId(3));
                let version = mdcc_common::Version(1 + step.amount as u64 % 3);
                let snapshot = (step.kind == 9).then(|| RecordSnapshot {
                    version,
                    value: Some(Row::new().with("stock", 40 + step.amount)),
                    folded: open.first().map(|(txn, _)| *txn).into_iter().collect(),
                });
                let txn = TxnId::new(NodeId(9), i as u64);
                let op = UpdateOp::Commutative(CommutativeUpdate::delta("stock", -step.amount));
                open.push((txn, key(step.key)));
                log.push(WalRecord::ClassicAccept {
                    at,
                    key: key(step.key),
                    payload: Box::new(Phase2a {
                        ballot,
                        version,
                        snapshot,
                        base: Base::Held,
                        new_options: vec![TxnOption::solo(txn, key(step.key), op)],
                        close_instance: step.commit,
                        reopen_fast: step.commit.then(|| Ballot::fast(11 + i as u32, NodeId(3))),
                    }),
                });
            }
        }
    }
    log
}

fn state_fingerprint(store: &RecordStore) -> (Vec<u8>, Vec<u8>, usize) {
    (
        committed_bytes(store),
        store.checkpoint_bytes(),
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
        let (rebuilt, info, _) =
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
        let (rebuilt, info, _) =
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
        let (a, _, _) = recover_store(ProtocolConfig::default(), catalog(), &disk).expect("clean");
        let (b, _, _) = recover_store(ProtocolConfig::default(), catalog(), &disk).expect("clean");
        prop_assert_eq!(state_fingerprint(&a), state_fingerprint(&b));
    }
}

/// A lease handoff in the log. Holder A leads `k0` and `k1` at tenure 1's
/// lease ballot; holder B takes over at tenure 2's. B's first append to
/// `k0` names the cstruct this replica holds and is accepted; its append
/// to `k1` names a cstruct this replica does not hold (it missed one of
/// A's appends) and is Nacked; a straggler of A's is Nacked for its
/// ballot. The storage node keeps refused payloads out of the WAL — but
/// whichever way a log was written, replay must answer every record as
/// the live node did and end in the same state, and a refusal must not
/// have touched anything.
#[test]
fn base_checked_appends_replay_to_the_same_accepts_and_nacks() {
    let (a, b) = (NodeId(3), NodeId(4));
    let (lease_a, lease_b) = (Ballot::lease(1, a), Ballot::lease(2, b));
    let dec = |seq: u64, k: u64| {
        let op = UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1));
        TxnOption::solo(TxnId::new(NodeId(9), seq), key(k), op)
    };
    let mut live = fresh_store();
    let mut log: Vec<WalRecord> = (0..2)
        .map(|i| WalRecord::Load {
            key: key(i),
            row: Row::new().with("stock", 100),
        })
        .collect();
    wal::replay(&mut live, &log);
    let append = |store: &RecordStore, ballot: Ballot, base: Base, opt: TxnOption| {
        Box::new(Phase2a {
            ballot,
            version: store.version_of(&opt.key),
            snapshot: None,
            base,
            new_options: vec![opt],
            close_instance: false,
            reopen_fast: None,
        })
    };
    let held = |store: &RecordStore, k: u64| {
        let digest = store.with_record(&key(k), |r| r.cstruct().trace_digest());
        Base::Digest(digest.expect("loaded"))
    };
    let kind = |answer: &ClassicAccept| match answer {
        ClassicAccept::Vote(_) => "vote".to_string(),
        ClassicAccept::Nack { promised } => format!("nack {promised}"),
        ClassicAccept::Stale { .. } => "stale".to_string(),
        ClassicAccept::Behind => "behind".to_string(),
    };
    let empty = || Base::Digest(CStruct::EMPTY_TRACE_DIGEST);
    let mut answers = Vec::new();
    let mut at = 0;
    let mut step = |live: &mut RecordStore, payload: Box<Phase2a>| {
        at += 10;
        let (at, key) = (SimTime::from_millis(at), payload.new_options[0].key.clone());
        log.push(WalRecord::ClassicAccept {
            at,
            key: key.clone(),
            payload: payload.clone(),
        });
        let before = state_fingerprint(live);
        let answer = live.classic_accept(&key, *payload, at);
        if !matches!(answer, ClassicAccept::Vote(_)) {
            assert_eq!(state_fingerprint(live), before, "a refusal mutated {key}");
        }
        answers.push(kind(&answer));
    };
    // Tenure 1: A's stream on both keys, cold start.
    let p = append(&live, lease_a, empty(), dec(1, 0));
    step(&mut live, p);
    let p = append(&live, lease_a, empty(), dec(2, 0));
    step(&mut live, p);
    let p = append(&live, lease_a, empty(), dec(3, 1));
    step(&mut live, p);
    // Tenure 2: B extends exactly what this replica holds on k0 ...
    let p = append(&live, lease_b, held(&live, 0), dec(4, 0));
    step(&mut live, p);
    // ... and something else on k1: B's replica saw an append of A's
    // (txn 9) that never reached this one.
    let mut elsewhere = CStruct::new();
    elsewhere.append(dec(3, 1), mdcc_paxos::OptionStatus::Accepted);
    elsewhere.append(dec(9, 1), mdcc_paxos::OptionStatus::Accepted);
    let p = append(
        &live,
        lease_b,
        Base::Digest(elsewhere.trace_digest()),
        dec(5, 1),
    );
    step(&mut live, p);
    // A's straggler on k0, after this replica joined B's ballot.
    let p = append(&live, lease_a, empty(), dec(6, 0));
    step(&mut live, p);
    // B's next append on k0 is in the stream: the base is not asked.
    let p = append(&live, lease_b, Base::Digest(0xdead), dec(7, 0));
    step(&mut live, p);
    // On k1 B's replica has since closed an instance this one missed.
    // The broadcast names the next instance and nothing else: judged,
    // it touches nothing. The answer to the ask brings the snapshot,
    // and what this replica carries over is the base it names.
    let next = live.version_of(&key(1)).next();
    let mut lean = append(&live, lease_b, held(&live, 1), dec(8, 1));
    lean.version = next;
    let mut answer = lean.clone();
    answer.snapshot = Some(RecordSnapshot {
        version: next,
        value: Some(Row::new().with("stock", 90)),
        folded: Vec::new(),
    });
    step(&mut live, lean);
    step(&mut live, answer);
    assert_eq!(live.version_of(&key(1)), next);
    // A refused base names the ballot after the refused one ("you
    // skipped Phase 1"); the straggler hears the promise it lost to.
    let refused = format!("nack {}", lease_b.next_classic(lease_b.proposer));
    let outranked = format!("nack {lease_b}");
    let expected = [
        "vote", "vote", "vote", "vote", &refused, &outranked, "vote", "behind", "vote",
    ];
    assert_eq!(answers, expected);

    // Replay by hand answers the same, record for record ...
    let mut again = fresh_store();
    let mut replayed = Vec::new();
    for record in &log {
        match record.clone() {
            WalRecord::ClassicAccept { at, key, payload } => {
                replayed.push(kind(&again.classic_accept(&key, *payload, at)));
            }
            other => {
                wal::replay(&mut again, &[other]);
            }
        }
    }
    assert_eq!(replayed, answers);
    // ... and recovery from the disk ends where the live node is.
    let mut disk = Disk::new();
    for record in &log {
        wal::append(&mut disk, record);
    }
    let (rebuilt, _, _) =
        recover_store(ProtocolConfig::default(), catalog(), &disk).expect("clean");
    assert_eq!(state_fingerprint(&rebuilt), state_fingerprint(&live));
    assert_eq!(state_fingerprint(&again), state_fingerprint(&live));
}
