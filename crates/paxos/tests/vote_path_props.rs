//! Property tests for the O(Δ) vote path: the learner's glb-free verdict
//! against the glb oracle it replaced, the append-chained cstruct digest
//! against a from-scratch recomputation, entry sharing between an
//! acceptor and the shadows folded from its deltas — and, for votes that
//! start at the settled watermark, the learner's verdict against the one
//! whole cstructs give, shadows under loss, duplication and reordering,
//! and the watermark against its definition.

use std::sync::Arc;

use mdcc_common::error::AbortReason;
use mdcc_common::wire::{fnv1a64, to_bytes};
use mdcc_common::{
    CommutativeUpdate, Key, NodeId, PhysicalUpdate, Row, TableId, TxnId, UpdateOp, Version,
};
use mdcc_paxos::acceptor::{AcceptorRecord, Base, ClassicAccept, FastPropose, Phase2a, Phase2b};
use mdcc_paxos::quorum::{mask_indices, subsets};
use mdcc_paxos::{
    AttrConstraint, Ballot, CStruct, DeltaCursor, DeltaVote, FoldOutcome, LearnOutcome, Learner,
    Mark, OptionStatus, RecordSnapshot, ShadowView, TxnOption, TxnOutcome,
};
use proptest::prelude::*;

const N: usize = 5;
const QC: usize = 3;
const QF: usize = 4;

fn key() -> Key {
    Key::new(TableId(0), "r")
}

fn txn(seq: u64) -> TxnId {
    TxnId::new(NodeId(7), seq)
}

/// Option `seq` of kind `kind % 3`: commutative delta, physical write or
/// read guard.
fn option(seq: u64, kind: u8) -> TxnOption {
    let op = match kind % 3 {
        0 => UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
        1 => UpdateOp::Physical(PhysicalUpdate::write(
            Version(1),
            Row::new().with("stock", seq as i64),
        )),
        _ => UpdateOp::ReadGuard(Version(1)),
    };
    TxnOption::solo(txn(seq), key(), op)
}

// ---------------------------------------------------------------------
// Learner verdict == glb oracle.
// ---------------------------------------------------------------------

/// Transactions in the pool the generated cstructs draw from; the
/// learner under test follows transaction 0.
const POOL: u64 = 5;

/// Rejection reasons differ per acceptor, so the test also pins *which*
/// member's status the verdict reports (the glb's representative entry
/// is the first chosen member's).
const REASONS: [AbortReason; N] = [
    AbortReason::StaleRead,
    AbortReason::PendingOption,
    AbortReason::DemarcationLimit,
    AbortReason::ConstraintViolation,
    AbortReason::AlreadyExists,
];

/// One acceptor's view: which pool transactions reached it, in which
/// order, and how it decided each.
fn member_strategy() -> impl Strategy<Value = Vec<(u64, bool)>> {
    prop::collection::vec((0..POOL, any::<bool>()), 0..7)
}

fn member_cstruct(acceptor: usize, kinds: &[u8], letters: &[(u64, bool)]) -> CStruct {
    let mut c = CStruct::new();
    for &(seq, accepted) in letters {
        let status = if accepted {
            OptionStatus::Accepted
        } else {
            OptionStatus::Rejected(REASONS[acceptor])
        };
        // `append` keeps the first occurrence of a transaction, like an
        // acceptor answering a duplicate proposal.
        c.append(option(seq, kinds[seq as usize]), status);
    }
    c
}

/// The verdict the learner used to compute: the first q-subset (in the
/// learner's enumeration order) whose glb contains the option.
fn glb_oracle(votes: &[&CStruct], q: usize, target: TxnId) -> Option<OptionStatus> {
    subsets(votes.len(), q).into_iter().find_map(|mask| {
        let chosen: Vec<&CStruct> = mask_indices(mask).map(|i| votes[i]).collect();
        CStruct::glb_many(&chosen).status_of(target)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// Over random quorums of cstructs mixing accepted and rejected
    /// commutative, physical and read-guard options in different orders
    /// — front-movable letters (the counting path) and letters behind
    /// non-commuting predecessors (the glb fallback) alike — the learner
    /// learns exactly when, and exactly what, `glb_many(chosen)
    /// .status_of(txn)` says.
    #[test]
    fn learner_verdict_equals_the_glb_oracle(
        kinds in prop::collection::vec(0u8..3, POOL as usize..POOL as usize + 1),
        members in prop::collection::vec(member_strategy(), N..N + 1),
        classic in any::<bool>(),
    ) {
        let (ballot, q) = if classic {
            (Ballot::classic(1, NodeId(0)), QC)
        } else {
            (Ballot::INITIAL_FAST, QF)
        };
        let cstructs: Vec<CStruct> = members
            .iter()
            .enumerate()
            .map(|(a, letters)| member_cstruct(a, &kinds, letters))
            .collect();
        let mut learner = Learner::new(N, QC, QF, txn(0));
        for heard in 1..=N {
            let outcome = learner.on_vote(heard - 1, Phase2b {
                ballot,
                version: Version(1),
                cstruct: cstructs[heard - 1].clone(),
                epoch: 0,
            });
            let seen: Vec<&CStruct> = cstructs[..heard].iter().collect();
            match glb_oracle(&seen, q, txn(0)) {
                Some(status) => {
                    prop_assert_eq!(outcome, LearnOutcome::Learned(status));
                    prop_assert_eq!(learner.learned_fast(), !classic);
                    break; // learning is stable from here on
                }
                None => prop_assert!(
                    !matches!(outcome, LearnOutcome::Learned(_)),
                    "learned {outcome:?} where no quorum's glb holds the option"
                ),
            }
        }
    }
}

/// The fallback is reachable and agrees with the glb: an accepted
/// physical write queued behind another accepted physical write is not
/// front-movable anywhere, yet a quorum recording both in the same order
/// has both in its glb.
#[test]
fn learner_falls_back_to_the_glb_behind_a_barrier() {
    let queued = |first: u64, second: u64| {
        let mut c = CStruct::new();
        c.append(option(first, 1), OptionStatus::Accepted);
        c.append(option(second, 1), OptionStatus::Accepted);
        c
    };
    let vote = |cstruct: CStruct| Phase2b {
        ballot: Ballot::INITIAL_FAST,
        version: Version(1),
        cstruct,
        epoch: 0,
    };
    assert_eq!(
        queued(1, 0).front_movable(txn(0)),
        Some((OptionStatus::Accepted, false))
    );
    let mut agreed = Learner::new(N, QC, QF, txn(0));
    let mut outcome = LearnOutcome::Undecided;
    for a in 0..QF {
        outcome = agreed.on_vote(a, vote(queued(1, 0)));
    }
    assert_eq!(outcome, LearnOutcome::Learned(OptionStatus::Accepted));

    // Same letters everywhere, opposite orders on two members: the
    // count alone would say "learned", the glb says no.
    let mut split = Learner::new(N, QC, QF, txn(0));
    for a in 0..QF {
        let c = if a < 2 { queued(1, 0) } else { queued(0, 1) };
        outcome = split.on_vote(a, vote(c));
    }
    assert!(!matches!(outcome, LearnOutcome::Learned(_)), "{outcome:?}");
}

// ---------------------------------------------------------------------
// Chained digest == from-scratch recomputation; deltas still fold.
// ---------------------------------------------------------------------

/// The digest by definition: FNV-1a over the concatenated canonical
/// encodings of the entries in recorded order.
fn digest_from_scratch(c: &CStruct) -> u64 {
    let mut bytes = Vec::new();
    for entry in c.entries() {
        bytes.extend_from_slice(&to_bytes(entry));
    }
    fnv1a64(&bytes)
}

/// One step of a random acceptor history.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Fast-propose option `seq` of kind `kind` (an append).
    Propose { seq: u64, kind: u8 },
    /// Resolve transaction `seq`: commits of deltas keep the entry,
    /// aborts and guard commits `remove` it, physical decisions advance
    /// the instance.
    Resolve {
        seq: u64,
        commit: bool,
        learned: bool,
    },
    /// A classic Phase2a asking to close the instance once its pending
    /// options resolve and to reopen fast afterwards (instance advance).
    Close,
    /// A recovery Phase2a whose proved-safe cstruct replaces the
    /// acceptor's wholesale (safe adoption).
    Safe { seq: u64, kind: u8 },
    /// A peer's newer committed snapshot (snapshot adoption).
    Adopt,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (
        (0u8..16),
        (0u64..10),
        (0u8..3),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(pick, seq, kind, commit, learned)| match pick {
            0..=7 => Step::Propose { seq, kind },
            8..=12 => Step::Resolve {
                seq,
                commit,
                learned,
            },
            13 => Step::Close,
            14 => Step::Safe { seq, kind },
            _ => Step::Adopt,
        })
}

fn constraints() -> Arc<[AttrConstraint]> {
    Arc::from(vec![AttrConstraint::at_least("stock", 0)])
}

fn acceptor() -> AcceptorRecord {
    AcceptorRecord::with_value(constraints(), N, QF, 64, Row::new().with("stock", 1_000))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// After arbitrary append / `remove` / snapshot-adoption /
    /// safe-adoption / instance-advance sequences the acceptor's chained
    /// digest equals a from-scratch recomputation, and a shadow view fed
    /// the cursor's deltas (no loss) always folds to a vote whose
    /// cstruct equals the acceptor's.
    #[test]
    fn chained_digest_survives_every_mutation_and_deltas_fold(
        steps in prop::collection::vec(step_strategy(), 1..48),
    ) {
        let mut acc = acceptor();
        let mut cursor = DeltaCursor::new();
        let mut shadow = ShadowView::new();
        let mut round = 1u32;
        for step in steps {
            apply(&mut acc, step, &mut round);
            prop_assert_eq!(acc.cstruct().digest(), digest_from_scratch(acc.cstruct()));
            // Ship the acceptor's current vote the way the node does.
            let vote = acc.vote();
            match cursor.extract(&vote) {
                None => shadow.observe_full(&vote),
                Some(delta) => match shadow.fold(&delta) {
                    FoldOutcome::Vote(folded) => {
                        prop_assert_eq!(folded.version, vote.version);
                        prop_assert_eq!(folded.epoch, vote.epoch);
                    }
                    other => prop_assert!(false, "lossless delta failed to fold: {other:?}"),
                },
            }
            prop_assert!(shadow_matches(&shadow, acc.cstruct()));
        }
    }
}

/// Applies one history step to `acc`; `round` numbers its classic ballots.
fn apply(acc: &mut AcceptorRecord, step: Step, round: &mut u32) {
    match step {
        Step::Propose { seq, kind } => {
            // NotFast / InstanceFull answers change nothing.
            let _ = acc.fast_propose(option(seq, kind));
        }
        Step::Resolve {
            seq,
            commit,
            learned,
        } => {
            let outcome = if commit {
                TxnOutcome::Committed
            } else {
                TxnOutcome::Aborted
            };
            acc.apply_visibility(txn(seq), outcome, commit || learned);
        }
        Step::Close | Step::Safe { .. } => {
            *round += 2;
            let base = match step {
                Step::Safe { seq, kind } => {
                    let mut c = CStruct::new();
                    c.append(option(seq, kind), OptionStatus::Accepted);
                    Base::ProvedSafe(c)
                }
                _ => Base::Held,
            };
            let accepted = acc.classic_accept(Phase2a {
                ballot: Ballot::classic(*round, NodeId(0)),
                version: acc.version(),
                snapshot: None,
                base,
                new_options: Vec::new(),
                close_instance: true,
                reopen_fast: Some(Ballot::fast(*round + 1, NodeId(0))),
            });
            assert!(matches!(accepted, ClassicAccept::Vote(_)), "{accepted:?}");
        }
        Step::Adopt => {
            let snapshot = RecordSnapshot {
                version: acc.version().next(),
                value: Some(Row::new().with("stock", 1_000)),
                folded: Vec::new(),
            };
            assert!(acc.sync_from_peer(&snapshot, &[]));
        }
    }
}

/// The mark at position `seq` of the whole cstruct `c`, from scratch.
fn mark_at(c: &CStruct, seq: u64) -> Mark {
    c.entries()
        .take(seq as usize)
        .fold(Mark::START, Mark::after)
}

/// True when `held` is `whole` from `held`'s base on: the base is a mark
/// of `whole`, the ends and whole-cstruct digests agree, and the held
/// entries are `whole`'s, byte for byte — no gap, nothing stale.
fn tail_matches(held: &CStruct, whole: &CStruct) -> bool {
    let base = held.base();
    base.seq <= whole.end_seq()
        && base == mark_at(whole, base.seq)
        && held.end_seq() == whole.end_seq()
        && held.digest() == whole.digest()
        && to_bytes(held) == to_bytes(&whole.suffix(base))
}

fn shadow_matches(shadow: &ShadowView, whole: &CStruct) -> bool {
    tail_matches(shadow.cstruct(), whole)
}

// ---------------------------------------------------------------------
// Votes that start at the settled watermark.
// ---------------------------------------------------------------------

/// One message of the vote stream from an acceptor to one coordinator,
/// with the acceptor's whole cstruct when it was sent.
#[derive(Debug, Clone)]
struct Sent {
    vote: Phase2b,
    delta: Option<DeltaVote>,
    whole: CStruct,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// Over random mixed histories at five independent acceptors —
    /// commutative, physical and guard options, rejections, outcomes in
    /// any order and only at some acceptors, safe and snapshot adoption,
    /// instance advance — a learner fed votes that start at the settled
    /// watermark reaches, for every transaction still open, the verdict
    /// a learner fed whole cstructs reaches. Exactly, whenever the
    /// option is front-movable in every whole cstruct that holds it (the
    /// counting path: always, for commutative, guard and rejected options
    /// of ordinary histories); and where the whole-cstruct learner has
    /// to compute a glb, the tail-fed one may fail to learn what that one
    /// learned — never learn anything else.
    #[test]
    fn watermark_votes_teach_what_whole_cstructs_teach(
        steps in prop::collection::vec((step_strategy(), 0u8..32), 1..40),
    ) {
        let mut acceptors: Vec<AcceptorRecord> = (0..N).map(|_| acceptor()).collect();
        let mut rounds = [1u32; N];
        for (step, reach) in steps {
            // Each step reaches the acceptors its mask names, so they
            // see different subsets of the history.
            for (a, acc) in acceptors.iter_mut().enumerate() {
                if reach & (1 << a) != 0 || reach == 0 {
                    apply(acc, step, &mut rounds[a]);
                }
            }
            for seq in 0..10 {
                if acceptors.iter().any(|acc| acc.outcome_of(txn(seq)).is_some()) {
                    continue; // resolved somewhere: not an open transaction
                }
                let mut whole = Learner::new(N, QC, QF, txn(seq));
                let mut tails = Learner::new(N, QC, QF, txn(seq));
                let mut counting = true;
                for (a, acc) in acceptors.iter().enumerate() {
                    counting &= acc
                        .cstruct()
                        .front_movable(txn(seq))
                        .is_none_or(|(_, movable)| movable);
                    let expected = whole.on_vote(a, acc.phase2b());
                    let got = tails.on_vote(a, acc.vote());
                    if counting {
                        prop_assert_eq!(got, expected, "txn {} after acceptor {}", seq, a);
                    } else {
                        prop_assert!(
                            got == expected
                                || (matches!(expected, LearnOutcome::Learned(_))
                                    && !matches!(got, LearnOutcome::Learned(_))),
                            "txn {} after acceptor {}: {:?} where whole cstructs say {:?}",
                            seq, a, got, expected
                        );
                    }
                }
            }
        }
    }

    /// A coordinator's shadow fed the node's vote stream under loss,
    /// duplication and reordering never holds a silent gap: every vote
    /// it synthesizes is the acceptor's cstruct — as of the delta that
    /// completed it — from the shadow's base on, with that cstruct's
    /// digest; everything else is reported as diverged or stale. One
    /// reliable vote and at most one repair then bring it level with
    /// the live acceptor.
    #[test]
    fn shadows_never_hold_a_silent_gap(
        steps in prop::collection::vec(step_strategy(), 1..48),
        fates in prop::collection::vec(0u8..8, 8..9),
    ) {
        let mut acc = acceptor();
        let mut cursor = DeltaCursor::new();
        let mut shadow = ShadowView::new();
        let mut in_flight: Vec<Sent> = Vec::new();
        let mut round = 1u32;
        for (i, step) in steps.into_iter().enumerate() {
            apply(&mut acc, step, &mut round);
            let vote = acc.vote();
            // The sender's cursor advances whatever the network does next.
            let delta = cursor.extract(&vote);
            in_flight.push(Sent { vote, delta, whole: acc.cstruct().clone() });
            let arrivals: Vec<Sent> = match fates[i % fates.len()] {
                // Lost.
                0 => { in_flight.pop(); Vec::new() }
                // Held back: arrives behind later votes.
                1 => Vec::new(),
                // Duplicated, overtaking whatever is held back.
                2 => vec![in_flight.pop().expect("just pushed"); 2],
                // Everything in flight arrives, newest first.
                3 => in_flight.drain(..).rev().collect(),
                // Everything in flight arrives in order.
                _ => std::mem::take(&mut in_flight),
            };
            for sent in arrivals {
                match &sent.delta {
                    None => shadow.observe_full(&sent.vote),
                    Some(delta) => if let FoldOutcome::Vote(v) = shadow.fold(delta) {
                        prop_assert_eq!(v.version, sent.vote.version);
                        prop_assert_eq!(v.epoch, sent.vote.epoch);
                        prop_assert!(
                            tail_matches(&v.cstruct, &sent.whole),
                            "folded {} onto a gap or a stale tail of {}",
                            v.cstruct, sent.whole
                        );
                    },
                }
            }
        }
        // Drain: what is still in flight is lost; one more vote arrives
        // reliably, and a fold that does not complete is repaired.
        let vote = match acc.fast_propose(option(99, 0)) {
            FastPropose::Vote(vote) => vote,
            _ => acc.vote(),
        };
        match cursor.extract(&vote) {
            None => shadow.observe_full(&vote),
            Some(delta) => if !matches!(shadow.fold(&delta), FoldOutcome::Vote(_)) {
                shadow.reset_full(&acc.vote());
            },
        }
        prop_assert!(shadow_matches(&shadow, acc.cstruct()));
    }

    /// The settled watermark is the mark after the longest prefix of
    /// entries with a recorded outcome — after every operation, across
    /// export and import — and a vote starts there unless the instance
    /// holds an accepted physical write or read guard, in which case it
    /// ships everything. (`AcceptorRecord::vote` re-checks the same
    /// definition in debug builds, like the open set.)
    #[test]
    fn settled_watermark_equals_its_definition(
        steps in prop::collection::vec(step_strategy(), 1..48),
    ) {
        let mut acc = acceptor();
        let mut round = 1u32;
        for step in steps {
            apply(&mut acc, step, &mut round);
            let settled = acc
                .cstruct()
                .entries()
                .take_while(|e| acc.outcome_of(e.opt.txn).is_some())
                .count() as u64;
            let expected = mark_at(acc.cstruct(), settled);
            prop_assert_eq!(acc.settled_watermark(), expected);
            let barrier = acc
                .cstruct()
                .entries()
                .any(|e| e.status.is_accepted() && !e.opt.is_commutative());
            let vote = acc.vote();
            prop_assert_eq!(vote.cstruct.base(), if barrier { Mark::START } else { expected });
            prop_assert!(tail_matches(&vote.cstruct, acc.cstruct()));
            let restored = AcceptorRecord::from_state(constraints(), N, QF, 64, acc.export_state());
            prop_assert_eq!(restored.settled_watermark(), expected);
        }
    }
}

// ---------------------------------------------------------------------
// Sharing.
// ---------------------------------------------------------------------

/// An acceptor's vote and a shadow folded from its deltas point at the
/// same entry allocations: nothing on the vote path copies an option.
#[test]
fn votes_and_folded_shadows_share_entry_allocations() {
    let mut acc = acceptor();
    let mut cursor = DeltaCursor::new();
    let mut shadow = ShadowView::new();
    for seq in 0..6 {
        let FastPropose::Vote(vote) = acc.fast_propose(option(seq, 0)) else {
            panic!("fast proposal must vote");
        };
        match cursor.extract(&vote) {
            None => shadow.observe_full(&vote),
            Some(delta) => {
                assert_eq!(delta.entries.len(), 1, "one new option per vote");
                assert!(matches!(shadow.fold(&delta), FoldOutcome::Vote(_)));
            }
        }
    }
    let vote = acc.phase2b();
    assert_eq!(vote.cstruct.len(), 6);
    assert_eq!(shadow.cstruct().len(), 6);
    for ((mine, voted), folded) in acc
        .cstruct()
        .shared()
        .iter()
        .zip(vote.cstruct.shared())
        .zip(shadow.cstruct().shared())
    {
        assert!(Arc::ptr_eq(mine, voted), "phase2b() copied an entry");
        assert!(Arc::ptr_eq(mine, folded), "the delta fold copied an entry");
    }
}
