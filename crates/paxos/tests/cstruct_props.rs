//! Property tests for the cstruct algebra: the partial-order and lattice
//! laws Generalized Paxos relies on (§3.4.1), plus the delta-vote
//! equivalence proofs — shadow views folded from delta votes under
//! random loss, duplication and crash/restart converge to the exact
//! byte-identical state the full-cstruct vote path produces.

use mdcc_common::error::AbortReason;
use mdcc_common::wire::to_bytes;
use mdcc_common::{
    CommutativeUpdate, Key, NodeId, PhysicalUpdate, Row, TableId, TxnId, UpdateOp, Version,
};
use mdcc_paxos::acceptor::{AcceptorRecord, FastPropose, Phase2b};
use mdcc_paxos::{
    AttrConstraint, Ballot, CStruct, DeltaCursor, FoldOutcome, Learner, OptionStatus, ShadowView,
    TxnOption, TxnOutcome,
};
use proptest::prelude::*;
use std::sync::Arc;

fn key() -> Key {
    Key::new(TableId(0), "r")
}

/// A generated letter: transaction id, commutative?, accepted?.
#[derive(Debug, Clone, Copy)]
struct Letter {
    txn: u64,
    commutative: bool,
    accepted: bool,
}

fn letter_strategy() -> impl Strategy<Value = Letter> {
    (0u64..12, any::<bool>(), any::<bool>()).prop_map(|(txn, commutative, accepted)| Letter {
        txn,
        commutative,
        accepted,
    })
}

/// Distinct-transaction letter sequences: a transaction holds at most one
/// option per record, so generators must not emit the same txn twice
/// (shuffling duplicates would change which occurrence wins the dedupe).
fn letters_strategy(max: usize) -> impl Strategy<Value = Vec<Letter>> {
    prop::collection::vec(letter_strategy(), 0..max).prop_map(|mut v| {
        let mut seen = std::collections::HashSet::new();
        v.retain(|l| seen.insert(l.txn));
        v
    })
}

fn build(letters: &[Letter]) -> CStruct {
    let mut c = CStruct::new();
    for l in letters {
        let op = if l.commutative {
            UpdateOp::Commutative(CommutativeUpdate::delta("x", -1))
        } else {
            UpdateOp::Physical(PhysicalUpdate::write(Version(1), Row::new()))
        };
        let status = if l.accepted {
            OptionStatus::Accepted
        } else {
            OptionStatus::Rejected(AbortReason::StaleRead)
        };
        // `append` dedupes by txn, mirroring acceptor behaviour.
        c.append(
            TxnOption::solo(TxnId::new(NodeId(0), l.txn), key(), op),
            status,
        );
    }
    c
}

/// Shuffles only adjacent commuting pairs — produces an equivalent trace.
fn commuting_shuffle(letters: &[Letter], swaps: &[usize]) -> Vec<Letter> {
    let mut v: Vec<Letter> = letters.to_vec();
    for &s in swaps {
        if v.len() < 2 {
            break;
        }
        let i = s % (v.len() - 1);
        let commute =
            |a: &Letter, b: &Letter| !a.accepted || !b.accepted || (a.commutative && b.commutative);
        if commute(&v[i], &v[i + 1]) {
            v.swap(i, i + 1);
        }
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The trace digest is a fingerprint of the equivalence class: any
    /// two orderings of one letter set agree on it exactly when they are
    /// the same trace — the base check of a lease handoff compares
    /// nothing else.
    #[test]
    fn trace_digest_agrees_exactly_with_equivalence(
        letters in letters_strategy(8),
        order in prop::collection::vec(0usize..64, 8..9),
    ) {
        let mut permuted = letters.clone();
        for (i, pick) in order.iter().enumerate().take(permuted.len()) {
            let j = i + pick % (permuted.len() - i);
            permuted.swap(i, j);
        }
        let (a, b) = (build(&letters), build(&permuted));
        prop_assert_eq!(
            a.trace_digest() == b.trace_digest(),
            a.equivalent(&b),
            "{} vs {}", a, b
        );
        prop_assert_eq!(CStruct::new().trace_digest() == a.trace_digest(), a.is_empty());
    }

    #[test]
    fn prefix_is_reflexive(letters in letters_strategy(8)) {
        let c = build(&letters);
        prop_assert!(c.is_prefix_of(&c));
        prop_assert!(CStruct::new().is_prefix_of(&c));
    }

    #[test]
    fn prefixes_of_built_history_hold(letters in letters_strategy(8)) {
        // Every "append history" prefix must be ⊑ the final cstruct.
        for cut in 0..=letters.len() {
            let small = build(&letters[..cut]);
            let big = build(&letters);
            prop_assert!(
                small.is_prefix_of(&big),
                "prefix {cut} not ⊑ full ({small} vs {big})"
            );
        }
    }

    #[test]
    fn commuting_shuffles_are_equivalent(
        letters in letters_strategy(8),
        swaps in prop::collection::vec(0usize..16, 0..12),
    ) {
        let a = build(&letters);
        let b = build(&commuting_shuffle(&letters, &swaps));
        prop_assert!(a.equivalent(&b), "{a} !~ {b}");
        prop_assert_eq!(a.trace_digest(), b.trace_digest(), "{} ~ {}", a, b);
        prop_assert!(b.equivalent(&a));
    }

    #[test]
    fn lub_is_an_upper_bound(
        xs in letters_strategy(6),
        ys in letters_strategy(6),
    ) {
        let a = build(&xs);
        let b = build(&ys);
        if let Some(l) = a.lub(&b) {
            prop_assert!(a.is_prefix_of(&l), "a={a} not ⊑ lub={l}");
            prop_assert!(b.is_prefix_of(&l), "b={b} not ⊑ lub={l}");
        }
    }

    #[test]
    fn lub_with_self_is_identity(letters in letters_strategy(8)) {
        let a = build(&letters);
        let l = a.lub(&a).expect("self-compatible");
        prop_assert!(l.equivalent(&a));
    }

    #[test]
    fn glb_is_a_lower_bound(
        xs in letters_strategy(6),
        ys in letters_strategy(6),
        zs in letters_strategy(6),
    ) {
        let a = build(&xs);
        let b = build(&ys);
        let c = build(&zs);
        let g = CStruct::glb_many(&[&a, &b, &c]);
        prop_assert!(g.is_prefix_of(&a), "glb={g} not ⊑ a={a}");
        prop_assert!(g.is_prefix_of(&b), "glb={g} not ⊑ b={b}");
        prop_assert!(g.is_prefix_of(&c), "glb={g} not ⊑ c={c}");
    }

    #[test]
    fn glb_of_prefix_pair_is_the_prefix(
        letters in letters_strategy(8),
        cut in 0usize..8,
    ) {
        let cut = cut.min(letters.len());
        let small = build(&letters[..cut]);
        let big = build(&letters);
        let g = CStruct::glb_many(&[&small, &big]);
        prop_assert!(g.equivalent(&small), "glb({small}, {big}) = {g}");
    }

    #[test]
    fn glb_is_idempotent(letters in letters_strategy(8)) {
        let a = build(&letters);
        let g = CStruct::glb_many(&[&a, &a]);
        prop_assert!(g.equivalent(&a));
    }

    #[test]
    fn lub_glb_absorption(
        xs in letters_strategy(6),
        ys in letters_strategy(6),
    ) {
        // a ⊔ (a ⊓ b) ~ a, whenever the lub exists.
        let a = build(&xs);
        let b = build(&ys);
        let g = CStruct::glb_many(&[&a, &b]);
        if let Some(l) = a.lub(&g) {
            prop_assert!(l.equivalent(&a), "a={a} g={g} lub={l}");
        }
    }
}

// ---------------------------------------------------------------------
// Delta-vote equivalence: shadow views versus the full-cstruct path.
// ---------------------------------------------------------------------

/// One step of a random acceptor schedule.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Fast-propose a commutative decrement for transaction `seq`.
    Propose { seq: u64 },
    /// Resolve transaction `seq` (commit or abort) — aborts remove the
    /// entry, which bumps the cstruct epoch.
    Resolve { seq: u64, commit: bool },
    /// Crash the acceptor and rebuild it from its exported state — the
    /// same state a checkpoint + WAL replay reconstructs, including the
    /// delta watermark and cstruct epoch.
    Restart,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // The vendored proptest shim has no `prop_oneof!`; pick the step
    // kind from an integer weight instead (4:3:1).
    ((0u8..8), (0u64..24), any::<bool>()).prop_map(|(kind, seq, commit)| match kind {
        0..=3 => Step::Propose { seq },
        4..=6 => Step::Resolve { seq, commit },
        _ => Step::Restart,
    })
}

fn stock_constraints() -> Arc<[AttrConstraint]> {
    Arc::from(vec![AttrConstraint::at_least("stock", 0)])
}

fn hot_acceptor() -> AcceptorRecord {
    AcceptorRecord::with_value(
        stock_constraints(),
        5,
        4,
        64,
        Row::new().with("stock", 1_000_000),
    )
}

fn prop_key() -> Key {
    Key::new(TableId(0), "hot")
}

fn dec_opt(seq: u64) -> TxnOption {
    TxnOption::solo(
        TxnId::new(NodeId(7), seq),
        prop_key(),
        UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
    )
}

/// Runs `steps` against one acceptor, shipping every emitted vote the
/// way the storage node does — a per-destination [`DeltaCursor`] picks
/// full vote versus positioned delta — with per-vote loss/duplication,
/// folding into `shadow` and read-repairing on divergence. Returns the
/// repair count.
fn drive_delta_schedule(
    acc: &mut AcceptorRecord,
    shadow: &mut ShadowView,
    steps: &[Step],
    drops: &[bool],
    dups: &[bool],
) -> u32 {
    let mut repairs = 0;
    let mut cursor = DeltaCursor::new();
    let mut deliver = |cursor: &mut DeltaCursor,
                       shadow: &mut ShadowView,
                       acc: &AcceptorRecord,
                       vote: &Phase2b,
                       i: usize| {
        // The sender's cursor advances whether or not the network then
        // eats the message (exactly like the node's).
        let extracted = cursor.extract(vote);
        if drops[i % drops.len()] {
            return; // lost in transit
        }
        let times = if dups[i % dups.len()] { 2 } else { 1 };
        for _ in 0..times {
            match &extracted {
                None => shadow.observe_full(vote),
                Some(dv) => {
                    if let FoldOutcome::Diverged = shadow.fold(dv) {
                        // Read-repair round trip: pull the acceptor's
                        // current vote (CstructPull/CstructFull).
                        repairs += 1;
                        shadow.reset_full(&acc.vote());
                    }
                }
            }
        }
    };
    for (i, step) in steps.iter().enumerate() {
        match *step {
            Step::Propose { seq } => {
                if let FastPropose::Vote(vote) = acc.fast_propose(dec_opt(seq)) {
                    deliver(&mut cursor, shadow, acc, &vote, i);
                }
            }
            Step::Resolve { seq, commit } => {
                let outcome = if commit {
                    TxnOutcome::Committed
                } else {
                    TxnOutcome::Aborted
                };
                acc.apply_visibility(TxnId::new(NodeId(7), seq), outcome, commit);
            }
            Step::Restart => {
                // The acceptor state (including the cstruct epoch)
                // survives via export/import; the sender's cursor is
                // volatile and starts cold, re-priming with a full vote.
                let state = acc.export_state();
                *acc = AcceptorRecord::from_state(stock_constraints(), 5, 4, 64, state);
                cursor = DeltaCursor::new();
            }
        }
    }
    repairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Under random loss, duplication and crash/restart, the folded
    /// shadow view — after at most one final read-repair — equals the
    /// acceptor's cstruct from the shadow's base on **byte for byte**,
    /// which is exactly the state shipping whole votes would have
    /// delivered minus the settled prefix.
    #[test]
    fn delta_votes_reconstruct_the_acceptor_byte_for_byte(
        steps in prop::collection::vec(step_strategy(), 1..40),
        drops in prop::collection::vec(any::<bool>(), 8..9),
        dups in prop::collection::vec(any::<bool>(), 8..9),
    ) {
        let mut acc = hot_acceptor();
        let mut shadow = ShadowView::new();
        drive_delta_schedule(&mut acc, &mut shadow, &steps, &drops, &dups);
        // One final reliably-delivered vote (a re-vote of a fresh
        // proposal reaching a cold cursor ships the full structure;
        // otherwise the delta must fold or trigger exactly one repair).
        let mut cursor = DeltaCursor::new();
        let FastPropose::Vote(vote) = acc.fast_propose(dec_opt(999)) else {
            panic!("fresh proposal must vote");
        };
        match cursor.extract(&vote) {
            None => shadow.observe_full(&vote),
            Some(dv) => {
                if let FoldOutcome::Diverged = shadow.fold(&dv) {
                    shadow.reset_full(&acc.vote());
                }
            }
        }
        // Votes start at the settled watermark, so "the acceptor's
        // cstruct" is its tail from the shadow's base on — same end,
        // same whole-cstruct digest, same bytes.
        prop_assert_eq!(shadow.cstruct().end_seq(), acc.cstruct().end_seq());
        prop_assert_eq!(shadow.cstruct().digest(), acc.cstruct().digest());
        prop_assert_eq!(
            to_bytes(shadow.cstruct()),
            to_bytes(&acc.cstruct().suffix(shadow.cstruct().base())),
            "shadow diverged from the acceptor after repair"
        );
    }

    /// Learner equivalence: a learner fed shadow-reconstructed votes
    /// (deltas under loss, with read-repair) learns exactly the same
    /// statuses as a learner fed the legacy full-cstruct votes.
    #[test]
    fn delta_vote_learning_equals_full_vote_learning(
        orders in prop::collection::vec(prop::collection::vec(0usize..6, 6..7), 5..6),
        drops in prop::collection::vec(any::<bool>(), 16..17),
        target in 0u64..6,
    ) {
        const N: usize = 5;
        let mut acceptors: Vec<AcceptorRecord> = (0..N).map(|_| hot_acceptor()).collect();
        let mut shadows: Vec<ShadowView> = (0..N).map(|_| ShadowView::new()).collect();
        let mut cursors: Vec<DeltaCursor> = (0..N).map(|_| DeltaCursor::new()).collect();
        let txn = TxnId::new(NodeId(7), target);
        let mut full = Learner::new(N, 3, 4, txn);
        let mut delta = Learner::new(N, 3, 4, txn);
        let mut di = 0usize;
        for (idx, order) in orders.iter().enumerate() {
            // Each acceptor sees the six commutative proposals in its own
            // order (duplicates in the generated order are deduped by the
            // acceptor) — the Generalized-Paxos situation delta votes
            // must preserve.
            for &seq in order {
                let FastPropose::Vote(vote) = acceptors[idx].fast_propose(dec_opt(seq as u64))
                else { continue };
                // Full-cstruct path: every vote arrives.
                full.on_vote(idx, vote.clone());
                // Delta path: the cursor advances at the sender either
                // way; the message may then be lost, and divergence
                // read-repairs.
                let extracted = cursors[idx].extract(&vote);
                di += 1;
                if drops[di % drops.len()] {
                    continue;
                }
                let folded = match extracted {
                    None => {
                        shadows[idx].observe_full(&vote);
                        vote
                    }
                    Some(dv) => match shadows[idx].fold(&dv) {
                        FoldOutcome::Vote(v) => v,
                        _ => {
                            shadows[idx].reset_full(&acceptors[idx].vote());
                            acceptors[idx].vote()
                        }
                    },
                };
                delta.on_vote(idx, folded);
            }
        }
        // Drain: every acceptor's final state reaches the delta learner
        // (the repair path guarantees this is always reachable).
        for (idx, acc) in acceptors.iter().enumerate() {
            delta.on_vote(idx, acc.phase2b());
            full.on_vote(idx, acc.phase2b());
        }
        prop_assert_eq!(full.learned(), delta.learned(),
            "delta-vote learning diverged from full-cstruct learning");
        if let Some(status) = full.learned() {
            prop_assert!(matches!(status, OptionStatus::Accepted),
                "commutative decrements against ample stock must be accepted");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn ballot_order_is_total_and_respects_kind(
        r1 in 0u32..50, r2 in 0u32..50,
        p1 in 0u32..8, p2 in 0u32..8,
        f1 in any::<bool>(), f2 in any::<bool>(),
    ) {
        let make = |r: u32, p: u32, fast: bool| if fast {
            Ballot::fast(r, NodeId(p))
        } else {
            Ballot::classic(r, NodeId(p))
        };
        let a = make(r1, p1, f1);
        let b = make(r2, p2, f2);
        // Totality + antisymmetry.
        prop_assert_eq!(a < b, b > a);
        prop_assert_eq!(a == b, (r1, p1, f1) == (r2, p2, f2));
        // Classic beats fast within a round.
        if r1 == r2 && !f1 && f2 {
            prop_assert!(a > b);
        }
        // next_classic beats everything it was derived from.
        prop_assert!(a.next_classic(NodeId(0)) > a);
        prop_assert!(a.next_fast(NodeId(0)) > a);
    }
}
