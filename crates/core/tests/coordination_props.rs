//! Property tests for the shared coordinator machine, without the
//! simulator: its verdict against the glb oracle the learner is tested
//! with, the once-per-key recovery request, and the transaction
//! manager's use of it (fed verdicts, pulling whole votes when asked to)
//! against the recovery coordinator's (fed whole votes).

use std::collections::BTreeSet;
use std::sync::Arc;

use mdcc_common::error::AbortReason;
use mdcc_common::placement::MasterPolicy;
use mdcc_common::{
    CommutativeUpdate, DcId, Key, NodeId, PhysicalUpdate, ProtocolConfig, Row, StaticPlacement,
    TableId, TxnId, UpdateOp, Version,
};
use mdcc_core::coordination::{Coordination, Progress};
use mdcc_core::{Msg, RecordName};
use mdcc_paxos::acceptor::{Letter, Phase2b, VoteVerdict};
use mdcc_paxos::quorum::{mask_indices, subsets};
use mdcc_paxos::{Ballot, CStruct, OptionStatus, TxnOption, TxnOutcome};
use proptest::prelude::*;

const N: usize = 5;
const QF: usize = 4;
/// Transactions the generated cstructs draw from; the machine under test
/// follows transaction 0.
const POOL: u64 = 3;

fn key(i: usize) -> Key {
    Key::new(TableId(0), format!("r{i}"))
}

fn txn(seq: u64) -> TxnId {
    TxnId::new(NodeId(7), seq)
}

/// Five data centers, one storage node each: every key has replicas 0–4.
fn placement() -> Arc<StaticPlacement> {
    let matrix = (0..N as u32).map(|n| vec![NodeId(n)]).collect();
    StaticPlacement::new(matrix, MasterPolicy::FixedDc(DcId(0)))
}

/// One acceptor's cstruct for key `k`: which pool transactions reached
/// it, in which order, as commutative (even `kind`) or physical options,
/// and how it decided each.
fn cstruct_of(k: usize, kind: u8, letters: &[(u64, bool)]) -> CStruct {
    let mut c = CStruct::new();
    for &(seq, accepted) in letters {
        let op = match kind % 2 {
            0 => UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
            _ => UpdateOp::Physical(PhysicalUpdate::write(
                Version(1),
                Row::new().with("stock", seq as i64),
            )),
        };
        let status = if accepted {
            OptionStatus::Accepted
        } else {
            OptionStatus::Rejected(AbortReason::StaleRead)
        };
        c.append(TxnOption::solo(txn(seq), key(k), op), status);
    }
    c
}

/// What the learner is specified to learn from a full set of fast votes:
/// the status of the option in the glb of the first fast quorum that
/// holds it.
fn glb_oracle(votes: &[CStruct]) -> Option<OptionStatus> {
    subsets(votes.len(), QF).into_iter().find_map(|mask| {
        let chosen: Vec<&CStruct> = mask_indices(mask).map(|i| &votes[i]).collect();
        CStruct::glb_many(&chosen).status_of(txn(0))
    })
}

fn vote(cstruct: &CStruct) -> Phase2b {
    Phase2b {
        ballot: Ballot::INITIAL_FAST,
        version: Version(1),
        cstruct: cstruct.clone(),
        epoch: 0,
    }
}

/// The same vote as its acceptor sends it to the coordinator: every
/// transaction of the pool is the coordinator's and open.
fn verdict(cstruct: &CStruct) -> VoteVerdict {
    let letter = |(entry, movable): (&mdcc_paxos::cstruct::Entry, bool)| Letter {
        txn: entry.opt.txn,
        status: entry.status,
        movable,
    };
    VoteVerdict {
        ballot: Ballot::INITIAL_FAST,
        version: Version(1),
        letters: cstruct.letters().map(letter).collect(),
    }
}

/// Each record a Visibility fan-out names: its node, its key, whether it
/// was named by position in `write_set` (read back through it), and its
/// learned status.
fn fanout(
    coord: &Coordination,
    outcome: TxnOutcome,
    me: Option<NodeId>,
    write_set: &[Key],
) -> BTreeSet<(NodeId, Key, bool, bool)> {
    let mut sent = BTreeSet::new();
    let mut nodes = BTreeSet::new();
    coord.visibility(outcome, &*placement(), me, |to, msg| {
        let Msg::Visibility {
            txn: t,
            outcome: o,
            records,
        } = msg
        else {
            panic!("not a Visibility: {msg:?}");
        };
        assert_eq!((t, o), (txn(0), outcome));
        assert!(nodes.insert(to), "two messages to {to}");
        for (name, learned_accepted) in records {
            let (key, positional) = match name {
                RecordName::At(at) => (write_set[at as usize].clone(), true),
                RecordName::Key(key) => (key, false),
            };
            assert!(
                sent.insert((to, key, positional, learned_accepted)),
                "sent twice"
            );
        }
    });
    sent
}

type Letters = Vec<(u64, bool)>;

/// Five acceptors' letters for one key. Most acceptors decide option 0
/// the way the key's `majority` says, some the other way, some never saw
/// it, and other transactions' options sit before and after it — so that
/// quorums that accept, quorums that reject and collisions all occur.
fn acceptors_strategy() -> impl Strategy<Value = Vec<Letters>> {
    let noise = || prop::collection::vec((1..POOL, any::<bool>()), 0..2);
    let acceptor = (0u8..8, noise(), noise());
    (any::<bool>(), prop::collection::vec(acceptor, N..N + 1)).prop_map(|(majority, acceptors)| {
        let letters = |(deviation, before, after): (u8, Letters, Letters)| {
            let own = match deviation {
                0 => None,
                1 => Some((0, !majority)),
                _ => Some((0, majority)),
            };
            before.into_iter().chain(own).chain(after).collect()
        };
        acceptors.into_iter().map(letters).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Votes over 1–3 keys × 5 acceptors, delivered in any order with
    /// duplicates and then completely: the machine's verdict is "every
    /// key's glb-learned status is Accepted", a collision asks for
    /// recovery once per key, and the transaction manager's shape
    /// (sorted keys, sends to every replica, fed verdicts and the whole
    /// votes it pulls) and the recovery coordinator's (write-set order,
    /// its own copy applied locally, fed whole votes) make the same
    /// progress on every delivery and reach the same outcome and the
    /// same Visibility set. A node's records are named by write-set
    /// position exactly when one of its answers held the option accepted.
    #[test]
    fn both_shapes_agree_with_the_glb_oracle(
        per_key in prop::collection::vec((0u8..2, acceptors_strategy()), 1..4),
        early in prop::collection::vec((0usize..3, 0usize..N), 0..24),
        me in 0u32..N as u32,
    ) {
        let cfg = ProtocolConfig::default();
        let keys: Vec<Key> = (0..per_key.len()).map(key).collect();
        let votes: Vec<Vec<CStruct>> = per_key
            .iter()
            .enumerate()
            .map(|(k, (kind, acceptors))| {
                acceptors.iter().map(|l| cstruct_of(k, *kind, l)).collect()
            })
            .collect();
        let me = NodeId(me);
        let mut tm_shaped = Coordination::new(&cfg, txn(0), keys.iter().cloned(), &keys);
        let rev = keys.iter().rev().cloned();
        let mut recovery_shaped = Coordination::new(&cfg, txn(0), rev, &keys);

        let all = (0..keys.len()).flat_map(|k| (0..N).map(move |a| (k, a)));
        let deliveries = early.into_iter().filter(|(k, _)| *k < keys.len()).chain(all);
        let mut asked = vec![0usize; keys.len()];
        let mut collided = vec![false; keys.len()];
        for (k, a) in deliveries {
            let mut progress = tm_shaped.on_verdict(&keys[k], a, &verdict(&votes[k][a]));
            loop {
                let pulls = tm_shaped.take_pulls(&keys[k]);
                if pulls.is_empty() {
                    break;
                }
                prop_assert_eq!(progress, Progress::Undecided, "pulls with a decision");
                for member in pulls {
                    progress = tm_shaped.on_vote(&keys[k], member, &vote(&votes[k][member]));
                }
            }
            prop_assert_eq!(progress, recovery_shaped.on_vote(&keys[k], a, &vote(&votes[k][a])));
            prop_assert!(recovery_shaped.take_pulls(&keys[k]).is_empty(), "whole votes need no pull");
            if let Progress::Collision { ask_master } = progress {
                collided[k] = true;
                asked[k] += usize::from(ask_master);
            }
        }
        for k in 0..keys.len() {
            prop_assert_eq!(asked[k], usize::from(collided[k]), "one StartRecovery per key");
        }

        let learned: Vec<Option<OptionStatus>> = votes.iter().map(|v| glb_oracle(v)).collect();
        let expected = learned.iter().copied().collect::<Option<Vec<_>>>().map(|all| {
            if all.iter().all(|s| s.is_accepted()) {
                TxnOutcome::Committed
            } else {
                TxnOutcome::Aborted
            }
        });
        prop_assert_eq!(tm_shaped.verdict().map(|v| v.outcome), expected);
        prop_assert_eq!(recovery_shaped.verdict(), tm_shaped.verdict());
        prop_assert_eq!(
            tm_shaped.undecided().collect::<BTreeSet<_>>(),
            keys.iter().zip(&learned).filter(|(_, l)| l.is_none()).map(|(k, _)| k).collect()
        );

        // With a verdict, or with an outcome someone else knew first.
        let outcome = expected.unwrap_or(TxnOutcome::Aborted);
        let sent = fanout(&tm_shaped, outcome, None, &keys);
        prop_assert_eq!(&sent, &fanout(&recovery_shaped, outcome, Some(me), &keys));
        let holds: Vec<bool> = (0..N)
            .map(|r| per_key.iter().any(|(_, acceptors)| acceptors[r].contains(&(0, true))))
            .collect();
        let expected_sent: BTreeSet<(NodeId, Key, bool, bool)> = keys
            .iter()
            .zip(&learned)
            .flat_map(|(k, l)| {
                let accepted = l.map_or(outcome == TxnOutcome::Committed, |s| s.is_accepted());
                let holds = &holds;
                (0..N).map(move |r| (NodeId(r as u32), k.clone(), holds[r], accepted))
            })
            .collect();
        prop_assert_eq!(sent, expected_sent);
    }
}

/// One Visibility per storage node, naming its records in the machine's
/// key order; the recovery coordinator's own copy comes last, so it can
/// apply it after the sends; a key named twice is one option.
#[test]
fn own_copy_comes_last_and_a_key_named_twice_counts_once() {
    let cfg = ProtocolConfig::default();
    let keys = [key(1), key(0), key(1)];
    let coord = Coordination::new(&cfg, txn(0), keys.iter().cloned(), &keys);
    assert_eq!(coord.undecided().collect::<Vec<_>>(), [&key(1), &key(0)]);
    let mut order = Vec::new();
    coord.visibility(
        TxnOutcome::Aborted,
        &*placement(),
        Some(NodeId(2)),
        |to, msg| {
            let Msg::Visibility { records, .. } = msg else {
                panic!("not a Visibility: {msg:?}");
            };
            let keys: Vec<Key> = (records.into_iter())
                .map(|(name, _)| match name {
                    RecordName::Key(key) => key,
                    RecordName::At(at) => panic!("no node answered, yet position {at}"),
                })
                .collect();
            order.push((to.0, keys));
        },
    );
    let both = vec![key(1), key(0)];
    let expected = [0, 1, 3, 4, 2].map(|r| (r, both.clone()));
    assert_eq!(order, expected);
}
