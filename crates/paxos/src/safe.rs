//! ProvedSafe (Algorithm 2, lines 49–57): what a leader holding Phase1b
//! promises must propose next so that nothing chosen below its ballot is
//! lost — and, for promises that may report at a lease-assumed ballot,
//! whether they can be judged yet ([`judged_safe`]). Pure functions of
//! the promises, called by [`crate::LeaderRecord`].

use std::collections::BTreeMap;

use crate::acceptor::Phase1b;
use crate::ballot::Ballot;
use crate::cstruct::CStruct;
use crate::quorum::{mask_indices, subsets};

/// [`proved_safe`] for promises that may report at *assumed* ballots;
/// `None` when they cannot be judged yet and the leader must keep
/// collecting.
///
/// The rule takes whatever was accepted at the highest reported ballot
/// `k` to be safe at `k` — to extend everything chosen below. Phase 1
/// guarantees that for a ballot it established. A ballot assumed from a
/// lease ([`Ballot::is_lease`]) earns it only if a classic quorum joined
/// its stream from the leader's base
/// ([`crate::AcceptorRecord::refuses_base`] has the argument); what a
/// minority accepted there may sit on a base that misses a value chosen
/// below `k` through a quorum the minority does not intersect, and the
/// rule would take its word for it. With `K` the promisers that report
/// at `k` and `N` the others:
///
/// * `|K| ≥ qc` — the quorum joined, all from one base: the rule applies
///   as it stands.
/// * `|N| ≥ n − qc + 1` — they accepted nothing at `k` and, having
///   promised past it, never will: no quorum can form at `k`, nothing
///   was or will be chosen there. `N` meets every quorum, so whatever
///   was chosen below `k` one of `N` accepted: the answer is this
///   function's over `N` alone (the next assumed ballot down judged the
///   same way), and `K`'s reports are dropped.
/// * Neither: both worlds are possible. Either a quorum joins `k`, and
///   the rule's answer `S₁` over everyone is right; or none ever does,
///   and what was chosen below `k` was accepted by a member of `K` —
///   before it joined, so it is a prefix of the base and of `S₁` — or by
///   a member of `N`, and is a prefix of the answer `S₂` over `N`. If
///   `S₂ ⊑ S₁` (the others are merely behind), `S₁` is right in both
///   worlds. Otherwise no answer is: `None`.
///
/// Reports at `k` that contradict each other (acceptors validate
/// appends themselves; two that hold different pieces of the stream can
/// disagree about an option) are no answer either. And joining a later
/// assumed ballot overwrites the ballot an acceptor reports, so `K` can
/// hide who joined the next one down. Either way even `n` promises may
/// leave the ballots undecided. Then, though, every acceptor has promised
/// and nothing below can change any more: whatever was chosen, at any
/// ballot, is a prefix of what each member of some quorum holds, and the
/// lub over all quorums of the glb of what their members hold extends it
/// all ([`held_by_a_quorum`]). All `n` promises always settle it.
///
/// `responses` are the promises for the newest instance; `elsewhere`
/// counts promisers still in an older one, who accepted nothing in this
/// one.
pub fn judged_safe(
    responses: &[(usize, &Phase1b)],
    elsewhere: usize,
    n: usize,
    qc: usize,
    qf: usize,
) -> Option<CStruct> {
    let judged = judge(responses, elsewhere, n, qc, qf, false);
    if judged.is_none() && responses.len() + elsewhere == n {
        return held_by_a_quorum(responses, n, qc);
    }
    judged
}

/// `nested`: `live` are the promisers that did not report at a higher
/// assumed ballot, perhaps fewer than a classic quorum. Their Γ may then
/// not join — reports of a fast ballot that reached different subsets
/// can conflict — and that is "not judged yet", not a broken invariant.
fn judge(
    live: &[(usize, &Phase1b)],
    elsewhere: usize,
    n: usize,
    qc: usize,
    qf: usize,
    nested: bool,
) -> Option<CStruct> {
    let accepted_at = |r: &Phase1b| r.accepted.as_ref().map(|(b, _)| *b);
    let top = live.iter().filter_map(|(_, r)| accepted_at(r)).max();
    let Some(k) = top.filter(Ballot::is_lease) else {
        if nested {
            return possibly_chosen(live, n, qc, qf).ok();
        }
        return Some(proved_safe(live, n, qc, qf));
    };
    let (at_k, others): (Vec<_>, Vec<_>) = live
        .iter()
        .copied()
        .partition(|(_, r)| accepted_at(r) == Some(k));
    // No fallback at an assumed ballot: reports there that contradict
    // each other are no answer either.
    let trusting_k = || possibly_chosen(live, n, qc, qf).ok();
    if at_k.len() >= qc {
        return trusting_k();
    }
    let without_k = judge(&others, elsewhere, n, qc, qf, true);
    if others.len() + elsewhere + qc > n {
        return without_k;
    }
    trusting_k().filter(|s1| without_k.is_some_and(|s2| s2.is_prefix_of(s1)))
}

/// What may have been chosen going by what acceptors hold, whatever the
/// ballots: for every classic quorum the glb of its members' cstructs
/// (an acceptor absent from `responses` holds nothing), and the lub of
/// those. Sound whenever a chosen value stays a prefix of what the
/// acceptors that accepted it hold; exact only when every acceptor
/// reports — with fewer it would adopt what a single one holds.
fn held_by_a_quorum(responses: &[(usize, &Phase1b)], n: usize, qc: usize) -> Option<CStruct> {
    let nothing = CStruct::new();
    let held = |i: usize| {
        let report = responses.iter().find(|(at, _)| *at == i);
        let accepted = report.and_then(|(_, r)| r.accepted.as_ref());
        accepted.map_or(&nothing, |(_, v)| v)
    };
    let gammas: Vec<CStruct> = subsets(n, qc)
        .into_iter()
        .map(|quorum| CStruct::glb_many(&mask_indices(quorum).map(held).collect::<Vec<_>>()))
        .collect();
    CStruct::lub_many(&gammas)
}

/// The ProvedSafe computation (Algorithm 2, lines 49–57): given Phase1b
/// responses from a classic quorum `Q`, find the cstruct that may have
/// been chosen at the highest accepted ballot `k` and must therefore be
/// proposed next.
///
/// For every potential `k`-quorum `R`, the value possibly chosen through
/// `R` is the glb of the cstructs reported by `Q ∩ R`; the safe cstruct is
/// the lub of those glbs. When no potential quorum is populated (`R = ∅`),
/// nothing was chosen and any reported value may be extended.
///
/// Takes what was accepted at `k` to be safe at `k`: promises that may
/// report at an assumed ballot go through [`judged_safe`].
pub fn proved_safe(responses: &[(usize, &Phase1b)], n: usize, qc: usize, qf: usize) -> CStruct {
    // ⊔Γ (line 57). The theory guarantees compatibility; fall back to the
    // largest γ defensively.
    possibly_chosen(responses, n, qc, qf).unwrap_or_else(|gammas| {
        debug_assert!(false, "incompatible gammas in ProvedSafe");
        gammas
            .into_iter()
            .max_by_key(|c| c.len())
            .unwrap_or_default()
    })
}

/// [`proved_safe`]'s answer, or the Γ it could not join: acceptors
/// validate appends themselves, so two that hold different pieces of one
/// leader's stream can disagree about an option.
fn possibly_chosen(
    responses: &[(usize, &Phase1b)],
    n: usize,
    qc: usize,
    qf: usize,
) -> Result<CStruct, Vec<CStruct>> {
    // k ≡ the highest ballot at which anything was accepted.
    let k = responses
        .iter()
        .filter_map(|(_, r)| r.accepted.as_ref().map(|(b, _)| *b))
        .max();
    let Some(k) = k else {
        return Ok(CStruct::new());
    };
    let at_k: BTreeMap<usize, &CStruct> = responses
        .iter()
        .filter_map(|(i, r)| match &r.accepted {
            Some((b, v)) if *b == k => Some((*i, v)),
            _ => None,
        })
        .collect();
    // ProvedSafe is relative to *a* classic quorum Q of promisers. Any
    // qc-subset of responders is valid; preferring acceptors that voted
    // at ballot k maximizes what can be proved safe — this choice is what
    // makes the §3.3.1 worked example land on v1→v2 rather than on the
    // (also safe, but less live) empty cstruct.
    let mut q_members: Vec<usize> = responses.iter().map(|(i, _)| *i).collect();
    q_members.sort_by_key(|i| (!at_k.contains_key(i), *i));
    q_members.truncate(qc.max(1));
    let k_size = if k.is_fast() { qf } else { qc };

    let mut gammas: Vec<CStruct> = Vec::new();
    for r_mask in subsets(n, k_size) {
        let overlap: Vec<usize> = mask_indices(r_mask)
            .filter(|i| q_members.contains(i))
            .collect();
        if overlap.is_empty() {
            // Q ∩ R = ∅: this R tells us nothing (and with valid quorum
            // configurations it cannot occur for classic Q).
            continue;
        }
        if !overlap.iter().all(|i| at_k.contains_key(i)) {
            // Some member of Q ∩ R reported no ballot-k value, so no value
            // was chosen through R.
            continue;
        }
        let members: Vec<&CStruct> = overlap.iter().map(|i| at_k[i]).collect();
        gammas.push(CStruct::glb_many(&members));
    }
    if gammas.is_empty() {
        // R = ∅ (line 54): nothing was possibly chosen; any reported value
        // is safe. Merge what we can for liveness.
        let mut acc = CStruct::new();
        for v in at_k.values() {
            if let Some(merged) = acc.lub(v) {
                acc = merged;
            }
        }
        return Ok(acc);
    }
    CStruct::lub_many(&gammas).ok_or(gammas)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::acceptor::RecordSnapshot;
    use crate::options::{OptionStatus, TxnOption};
    use mdcc_common::error::AbortReason;
    use mdcc_common::{
        CommutativeUpdate, Key, NodeId, PhysicalUpdate, Row, TableId, TxnId, UpdateOp, Version,
    };

    fn key() -> Key {
        Key::new(TableId(0), "r")
    }

    fn txn(seq: u64) -> TxnId {
        TxnId::new(NodeId(7), seq)
    }

    fn comm_opt(seq: u64) -> TxnOption {
        TxnOption::solo(
            txn(seq),
            key(),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
        )
    }

    fn phys_opt(seq: u64) -> TxnOption {
        TxnOption::solo(
            txn(seq),
            key(),
            UpdateOp::Physical(PhysicalUpdate::write(Version(1), Row::new())),
        )
    }

    fn p1b(promised: Ballot, accepted: Option<(Ballot, CStruct)>) -> Phase1b {
        Phase1b {
            promised,
            accepted,
            snapshot: RecordSnapshot {
                version: Version(1),
                value: Some(Row::new().with("stock", 4)),
                folded: Vec::new(),
            },
        }
    }

    #[test]
    fn proved_safe_empty_when_nothing_accepted() {
        let r0 = p1b(Ballot::classic(1, NodeId(1)), None);
        let r1 = p1b(Ballot::classic(1, NodeId(1)), None);
        let r2 = p1b(Ballot::classic(1, NodeId(1)), None);
        let safe = proved_safe(&[(0, &r0), (1, &r1), (2, &r2)], 5, 3, 4);
        assert!(safe.is_empty());
    }

    #[test]
    fn proved_safe_paper_example() {
        // §3.3.1: responses from acceptors {1, 2, 3, 5} (indices 0, 1, 2,
        // 4): acceptor 0 at ballot 3 with v0→v1; acceptors 1 and 4 at
        // ballot 4 with v1→v2 accepted; acceptor 2 at ballot 4 with v1→v3
        // accepted. The only populated fast-quorum intersection agrees on
        // v1→v2, which must be proposed next.
        let b3 = Ballot::fast(3, NodeId(0));
        let b4 = Ballot::fast(4, NodeId(0));
        let old = phys_opt(1); // v0 → v1 at ballot 3
        let v2 = phys_opt(12); // v1 → v2
        let v3 = phys_opt(13); // v1 → v3
        let mut c_old = CStruct::new();
        c_old.append(old, OptionStatus::Accepted);
        let mut c_v2 = CStruct::new();
        c_v2.append(v2.clone(), OptionStatus::Accepted);
        c_v2.append(
            v3.clone(),
            OptionStatus::Rejected(AbortReason::PendingOption),
        );
        let mut c_v3 = CStruct::new();
        c_v3.append(v3.clone(), OptionStatus::Accepted);
        c_v3.append(
            v2.clone(),
            OptionStatus::Rejected(AbortReason::PendingOption),
        );

        let r0 = p1b(b4, Some((b3, c_old)));
        let r1 = p1b(b4, Some((b4, c_v2.clone())));
        let r2 = p1b(b4, Some((b4, c_v3)));
        let r4 = p1b(b4, Some((b4, c_v2)));
        let safe = proved_safe(&[(0, &r0), (1, &r1), (2, &r2), (4, &r4)], 5, 3, 4);
        assert_eq!(
            safe.status_of(txn(12)),
            Some(OptionStatus::Accepted),
            "v1→v2 is the proved-safe choice"
        );
        // v1→v3 must not be accepted in the safe cstruct.
        assert!(!safe.status_of(txn(13)).is_some_and(|s| s.is_accepted()));
    }

    /// The reviewer's counterexample. Physical write `z` was chosen at
    /// the old holder's ballot through acceptors {2, 3, 4}. The new
    /// holder's replica (0) never saw it, assumed the next lease ballot
    /// from its own base and accepted the conflicting write `x` there —
    /// alone, so nothing was chosen at the lease ballot.
    pub(crate) fn minority_at_an_assumed_ballot() -> (Ballot, Ballot, Phase1b, Phase1b) {
        let old = Ballot::lease(1, NodeId(9)).next_classic(NodeId(9));
        let assumed = Ballot::lease(2, NodeId(0));
        let established = assumed.next_classic(NodeId(0));
        let mut chosen = CStruct::new();
        chosen.append(phys_opt(5), OptionStatus::Accepted);
        let mut minority = CStruct::new();
        minority.append(phys_opt(6), OptionStatus::Accepted);
        assert!(chosen.lub(&minority).is_none(), "nothing extends both");
        let at_assumed = p1b(established, Some((assumed, minority)));
        let at_old = p1b(established, Some((old, chosen)));
        (assumed, established, at_assumed, at_old)
    }

    #[test]
    fn an_assumed_ballot_is_judged_by_a_quorum_one_way_or_the_other() {
        let (assumed, _, a, r) = minority_at_an_assumed_ballot();
        let judged =
            |votes: &[(usize, &Phase1b)], elsewhere| judged_safe(votes, elsewhere, 5, 3, 4);
        // Promises from {0, 2, 3}: the quorum {0, and the two not heard
        // from} may have joined the lease ballot — or `z` was chosen
        // below it. Three promises cannot tell; the highest-ballot rule
        // would take acceptor 0 at its word and drop `z`.
        assert_eq!(
            proved_safe(&[(0, &a), (2, &r), (3, &r)], 5, 3, 4).status_of(txn(5)),
            None,
            "the rule alone loses the chosen write"
        );
        assert!(judged(&[(0, &a), (2, &r), (3, &r)], 0).is_none());
        assert!(judged(&[(0, &a), (1, &a), (2, &r), (3, &r)], 0).is_none());
        // A third promiser that never accepted at the lease ballot: no
        // quorum can form there any more. Its reports are dropped and
        // the rule runs over the others — `z` survives, `x` does not.
        let safe = judged(&[(0, &a), (2, &r), (3, &r), (4, &r)], 0).expect("blocked");
        assert_eq!(safe.status_of(txn(5)), Some(OptionStatus::Accepted));
        assert_eq!(safe.status_of(txn(6)), None);
        // A promiser still in an older instance accepted nothing in
        // this one either.
        let safe = judged(&[(0, &a), (2, &r), (3, &r)], 1).expect("blocked");
        assert_eq!(safe.status_of(txn(5)), Some(OptionStatus::Accepted));
        // The other way: a classic quorum reports at the lease ballot,
        // so it did join, all from one base, and the rule applies as it
        // stands.
        let safe = judged(&[(0, &a), (1, &a), (3, &r), (4, &a)], 0).expect("joined");
        assert_eq!(safe.status_of(txn(6)), Some(OptionStatus::Accepted));
        // Ballots Phase 1 established are believed as ever.
        let none = p1b(assumed, None);
        assert!(judged(&[(0, &none), (2, &r), (3, &r)], 0).is_some());
    }

    /// A cstruct of accepted decrements, one per `seq`.
    fn decs(seqs: &[u64]) -> CStruct {
        let mut c = CStruct::new();
        for seq in seqs {
            c.append(comm_opt(*seq), OptionStatus::Accepted);
        }
        c
    }

    #[test]
    fn a_minority_whose_word_covers_the_others_is_believed() {
        // The usual refusal: the others are merely behind. What may have
        // been chosen among them is a prefix of what the minority at the
        // lease ballot holds, so that is right whether or not a quorum
        // joined — no waiting.
        let established = Ballot::lease(2, NodeId(0)).next_classic(NodeId(0));
        let old = Ballot::lease(1, NodeId(9)).next_classic(NodeId(9));
        let ahead = p1b(
            established,
            Some((Ballot::lease(2, NodeId(0)), decs(&[7, 8]))),
        );
        let behind = p1b(established, Some((old, decs(&[7]))));
        let safe = judged_safe(&[(0, &ahead), (2, &behind), (3, &behind)], 0, 5, 3, 4)
            .expect("both worlds agree");
        assert_eq!(safe.len(), 2);
        // Not so when the others hold something the minority lacks.
        let aside = p1b(established, Some((old, decs(&[7, 9]))));
        assert!(judged_safe(&[(0, &ahead), (2, &aside), (3, &aside)], 0, 5, 3, 4).is_none());
    }

    #[test]
    fn every_promise_in_hand_always_settles_it() {
        // Joining a later assumed ballot overwrites the ballot an
        // acceptor reports. Tenure 1's holder got 9 chosen through
        // {0, 1, 4}; tenure 2's assumed a base without it and was joined
        // by {2, 3} only; tenure 3's assumed the base with it and was
        // joined by {0, 4}. Going by ballots, {2, 3} at tenure 2 against
        // {1} at tenure 1 cannot be judged — 0 and 4 might have been
        // with either — and even five promises leave the rule stuck.
        let b = Ballot::lease(4, NodeId(5)).next_classic(NodeId(5));
        let at = |tenure: u32, seqs: &[u64]| {
            p1b(b, Some((Ballot::lease(tenure, NodeId(tenure)), decs(seqs))))
        };
        let (t1, t2, t3) = (at(1, &[7, 9]), at(2, &[7, 8]), at(3, &[7, 9, 10]));
        let all = [(0, &t3), (1, &t1), (2, &t2), (3, &t2), (4, &t3)];
        assert!(judge(&all, 0, 5, 3, 4, false).is_none());
        assert!(judged_safe(&all[..4], 0, 5, 3, 4).is_none(), "one to go");
        // But with everyone's promise nothing below can change: what a
        // quorum holds is what may have been chosen.
        let safe = judged_safe(&all, 0, 5, 3, 4).expect("all five");
        let held: Vec<u64> = safe.entries().map(|e| e.opt.txn.seq).collect();
        assert_eq!(held, [7, 9], "9 was chosen; 8 and 10 never were");
        // Had acceptor 1 merely been behind, the ballots would do.
        let t1 = at(1, &[7]);
        let all = [(0, &t3), (1, &t1), (2, &t2), (3, &t2), (4, &t3)];
        let safe = judge(&all, 0, 5, 3, 4, false).expect("prefixes all the way down");
        let held: Vec<u64> = safe.entries().map(|e| e.opt.txn.seq).collect();
        assert_eq!(held, [7, 8]);
    }

    /// Found by `phase1_lean_props.rs`'s generator once its fast steps
    /// proposed every option kind: a decrement (5) and a physical write
    /// (4) reached different acceptors at the fast ballot, and a lease
    /// holder's append reached acceptor 3 alone. From promises {1, 2, 3}
    /// the lease ballot cannot be judged by its one report, so the
    /// promisers below it are — two, fewer than a classic quorum, whose
    /// fast votes conflict: what may have been chosen through either
    /// does not join. That is "not judged yet" (the other two promises
    /// settle it), where it used to trip `proved_safe`'s assertion.
    #[test]
    fn conflicting_votes_of_a_sub_quorum_below_an_assumed_ballot_wait() {
        let lease = Ballot::lease(1, NodeId(3));
        let promised = lease.next_classic(NodeId(0));
        let fast = Ballot::fast(0, NodeId(0));
        let mut write = CStruct::new();
        write.append(phys_opt(4), OptionStatus::Accepted);
        let r1 = p1b(promised, Some((fast, decs(&[5]))));
        let r2 = p1b(promised, Some((fast, write)));
        let r3 = p1b(promised, Some((lease, decs(&[1, 5, 102]))));
        let three = [(1, &r1), (2, &r2), (3, &r3)];
        assert!(
            possibly_chosen(&three[..2], 5, 3, 4).is_err(),
            "Γ does not join"
        );
        assert_eq!(judged_safe(&three, 0, 5, 3, 4), None);
        let r0 = p1b(promised, None);
        let five = [(0, &r0), (1, &r1), (2, &r2), (3, &r3), (4, &r0)];
        assert!(
            judged_safe(&five, 0, 5, 3, 4).is_some(),
            "all five settle it"
        );
    }

    #[test]
    fn proved_safe_classic_ballot_uses_classic_quorums() {
        let bc = Ballot::classic(2, NodeId(3));
        let mut c = CStruct::new();
        c.append(comm_opt(5), OptionStatus::Accepted);
        let r0 = p1b(bc, Some((bc, c.clone())));
        let r1 = p1b(bc, Some((bc, c.clone())));
        let r2 = p1b(bc, None);
        let safe = proved_safe(&[(0, &r0), (1, &r1), (2, &r2)], 5, 3, 4);
        // With classic quorums of size 3, {0,1,x} overlaps Q in {0,1}
        // which both report c — c may have been chosen and must survive.
        assert_eq!(safe.status_of(txn(5)), Some(OptionStatus::Accepted));
    }
}
