//! Coordinator-side learning (Algorithm 1, lines 14–26).
//!
//! The app server that proposed an option collects Phase2b votes and
//! learns the option's status once *some* quorum of acceptors reports
//! cstructs whose greatest lower bound contains the option: a common
//! trace prefix of a quorum is durable under any future of the protocol.
//!
//! The learner never materializes that glb on the common path. It asks
//! about *one* letter, and a letter that is front-movable in a cstruct
//! (everything recorded before it commutes with it — always the case on
//! cstructs of commutative and rejected options) is in a quorum's glb
//! iff every member holds it with the same decision: front-movable
//! letters are extractable from the start, and extracting other letters
//! never disables them. So all it keeps of a vote is "status of my
//! option, and is it front-movable", and a quorum check is a count over
//! those summaries.
//!
//! That summary is what an acceptor sends a coordinator
//! ([`crate::acceptor::VoteVerdict`], fed through
//! [`Learner::on_verdict`]): the acceptor reads it off the very cstruct
//! it votes. A whole vote ([`Learner::on_vote`] — what recovery's status
//! queries return, and what a coordinator pulls) is reduced to the same
//! summary on arrival and its cstruct kept beside it.
//!
//! Only when a quorum holds the option with one decision but some member
//! holds it behind a non-commuting predecessor (interleaved physical
//! writes) does the learner need [`CStruct::glb_many`], and with it the
//! members' cstructs. For the members that sent none it asks its owner
//! to pull the whole vote ([`Learner::take_pulls`]), once per acceptor
//! per (instance, ballot, letter); until they arrive that quorum is
//! neither learned nor a collision. A pull that is lost costs what a
//! lost vote costs: the coordinator's learn timeout.
//!
//! **One answer per acceptor.** A later answer at a newer (instance,
//! ballot) replaces everything held of that acceptor. At the same
//! (instance, ballot) it replaces the letter, as a later whole vote
//! always did, and a pulled cstruct survives a later verdict only if the
//! verdict repeats the letter the cstruct shows: the count and the glb
//! fallback must speak of one vote, not of two. A verdict that changes
//! the letter drops the cstruct, and the acceptor may be asked again.
//!
//! The learner also detects **definite collisions** — situations where no
//! quorum can possibly agree anymore (e.g. two concurrent physical writes
//! interleaved differently across acceptors) — so recovery can start
//! before the learn timeout fires.

use std::collections::BTreeMap;

use mdcc_common::{TxnId, Version};

use crate::acceptor::{Phase2b, VoteVerdict};
use crate::ballot::Ballot;
use crate::cstruct::CStruct;
use crate::options::OptionStatus;
use crate::quorum::{mask_indices, subsets};

/// Held answers grouped by `(instance, ballot round, ballot kind flag,
/// proposer)` — votes are only comparable within one group — each with
/// its acceptor's index.
type VoteGroups<'a> = BTreeMap<(u64, u32, bool, u32), Vec<(usize, &'a Held)>>;

/// One acceptor's latest answer.
#[derive(Debug, Clone)]
struct Held {
    ballot: Ballot,
    version: Version,
    /// [`CStruct::front_movable`] of the learner's option in the vote:
    /// its recorded status and whether its letter is front-movable
    /// there; `None` while the option has not reached the acceptor.
    letter: Option<(OptionStatus, bool)>,
    /// The cstruct `letter` was read off, when the answer was a whole
    /// vote.
    cstruct: Option<CStruct>,
    /// The owner was already asked to pull this acceptor's whole vote
    /// for this answer.
    asked: bool,
}

/// What one quorum says about the option.
enum Quorum {
    /// Its glb holds the option with this status.
    Holds(OptionStatus),
    /// Its glb does not hold the option.
    Lacks,
    /// One decision everywhere but not front-movable everywhere: only
    /// the members' cstructs can tell, and some are not here.
    NeedsCstructs,
}

/// The learner's verdict after each vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LearnOutcome {
    /// Keep waiting.
    Undecided,
    /// The option's status is durable.
    Learned(OptionStatus),
    /// No quorum can agree on this option anymore; the proposer must ask
    /// the master for collision recovery (§3.3.1).
    Collision,
}

/// Tracks Phase2b votes for one option (one transaction × one record).
#[derive(Debug, Clone)]
pub struct Learner {
    n: usize,
    qc: usize,
    qf: usize,
    txn: TxnId,
    /// Latest answer per acceptor index.
    votes: BTreeMap<usize, Held>,
    /// Acceptors whose whole vote a quorum waits for, not yet handed to
    /// the owner.
    pulls: Vec<usize>,
    learned: Option<OptionStatus>,
    learned_fast: bool,
}

impl Learner {
    /// Creates a learner for `txn`'s option on one record replicated over
    /// `n` acceptors.
    pub fn new(n: usize, qc: usize, qf: usize, txn: TxnId) -> Self {
        Self {
            n,
            qc,
            qf,
            txn,
            votes: BTreeMap::new(),
            pulls: Vec::new(),
            learned: None,
            learned_fast: false,
        }
    }

    /// The learned status, if any.
    pub fn learned(&self) -> Option<OptionStatus> {
        self.learned
    }

    /// True when the status was learned from a fast quorum — i.e. without
    /// a master round trip (latency statistics).
    pub fn learned_fast(&self) -> bool {
        self.learned_fast
    }

    /// Number of acceptors heard from.
    pub fn responses(&self) -> usize {
        self.votes.len()
    }

    /// True when at least one vote *at the newest instance seen* contains
    /// the option. Recovery uses this to distinguish "acceptors disagree"
    /// (drive master recovery) from "the option reached nobody" (the
    /// transaction can be resolved as aborted once proposals can no
    /// longer arrive).
    pub fn seen_at_latest(&self) -> bool {
        let Some(max_version) = self.votes.values().map(|h| h.version).max() else {
            return false;
        };
        self.votes
            .values()
            .any(|h| h.version == max_version && h.letter.is_some())
    }

    /// Feeds one whole Phase2b vote from acceptor `from` and re-evaluates.
    pub fn on_vote(&mut self, from: usize, vote: Phase2b) -> LearnOutcome {
        let letter = vote.cstruct.front_movable(self.txn);
        self.hold(from, vote.ballot, vote.version, letter, Some(vote.cstruct))
    }

    /// Feeds what `verdict`, the vote of acceptor `from` as its
    /// coordinator was sent it, says of this learner's option and
    /// re-evaluates.
    pub fn on_verdict(&mut self, from: usize, verdict: &VoteVerdict) -> LearnOutcome {
        let letter = verdict.letter(self.txn);
        self.hold(from, verdict.ballot, verdict.version, letter, None)
    }

    /// The acceptors whose whole vote the owner should pull: members of
    /// a quorum only cstructs can decide that sent none. Each is named
    /// once per (instance, ballot, letter) it answered with.
    pub fn take_pulls(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.pulls)
    }

    fn hold(
        &mut self,
        from: usize,
        ballot: Ballot,
        version: Version,
        letter: Option<(OptionStatus, bool)>,
        cstruct: Option<CStruct>,
    ) -> LearnOutcome {
        debug_assert!(from < self.n, "acceptor index out of range");
        match self.votes.get_mut(&from) {
            Some(old) if (old.version, old.ballot) > (version, ballot) => {}
            Some(old) if (old.version, old.ballot) == (version, ballot) => {
                if cstruct.is_some() {
                    old.cstruct = cstruct;
                } else if old.letter != letter {
                    old.cstruct = None;
                    old.asked = false;
                }
                old.letter = letter;
            }
            _ => {
                let held = Held {
                    ballot,
                    version,
                    letter,
                    cstruct,
                    asked: false,
                };
                self.votes.insert(from, held);
            }
        }
        self.evaluate()
    }

    /// `glb(chosen).status_of(txn)` without the glb: absent from any
    /// member, or held with differing decisions, means the letter is not
    /// common; held everywhere, same decision, front-movable everywhere
    /// means it is (the glb's representative entry is the first
    /// member's, so its status — rejection reason included — is the one
    /// reported). Anything else needs the real glb.
    fn quorum_status(&self, chosen: &[(usize, &Held)]) -> Quorum {
        let Some((first, _)) = chosen.first().and_then(|(_, h)| h.letter) else {
            return Quorum::Lacks;
        };
        let mut all_movable = true;
        for (_, h) in chosen {
            match h.letter {
                Some((status, movable)) if status.is_accepted() == first.is_accepted() => {
                    all_movable &= movable;
                }
                _ => return Quorum::Lacks,
            }
        }
        if all_movable {
            return Quorum::Holds(first);
        }
        let cstructs: Option<Vec<&CStruct>> =
            chosen.iter().map(|(_, h)| h.cstruct.as_ref()).collect();
        match cstructs {
            None => Quorum::NeedsCstructs,
            Some(cstructs) => match CStruct::glb_many(&cstructs).status_of(self.txn) {
                Some(status) => Quorum::Holds(status),
                None => Quorum::Lacks,
            },
        }
    }

    fn quorum_for(&self, ballot: Ballot) -> usize {
        if ballot.is_fast() {
            self.qf
        } else {
            self.qc
        }
    }

    fn evaluate(&mut self) -> LearnOutcome {
        if let Some(s) = self.learned {
            return LearnOutcome::Learned(s);
        }
        if self.votes.is_empty() {
            return LearnOutcome::Undecided;
        }
        // Group votes by (instance, ballot); Phase2b votes are only
        // comparable within one instance and ballot. Every group is a
        // learning candidate - an accepted-pending option pins its
        // instance open at its acceptors, so a quorum at an older version
        // is just as durable as one at the newest.
        let mut groups: VoteGroups<'_> = BTreeMap::new();
        for (&from, held) in &self.votes {
            let key = (
                held.version.0,
                held.ballot.round,
                !held.ballot.is_fast(),
                held.ballot.proposer.0,
            );
            groups.entry(key).or_default().push((from, held));
        }
        // Members of quorums that wait for cstructs, as a set of indexes.
        let mut silent: u32 = 0;
        for ((_, round, classic, proposer), members) in groups.iter().rev() {
            let ballot = if *classic {
                Ballot::classic(*round, mdcc_common::NodeId(*proposer))
            } else {
                Ballot::fast(*round, mdcc_common::NodeId(*proposer))
            };
            let q = self.quorum_for(ballot);
            if members.len() < q {
                continue;
            }
            // Enumerate q-subsets of this group's members.
            for mask in subsets(members.len(), q) {
                let chosen: Vec<(usize, &Held)> = mask_indices(mask).map(|i| members[i]).collect();
                match self.quorum_status(&chosen) {
                    Quorum::Holds(status) => {
                        self.learned = Some(status);
                        self.learned_fast = ballot.is_fast();
                        self.pulls.clear();
                        return LearnOutcome::Learned(status);
                    }
                    Quorum::Lacks => {}
                    Quorum::NeedsCstructs => {
                        let lacking = chosen.iter().filter(|(_, h)| h.cstruct.is_none());
                        silent = lacking.fold(silent, |set, (from, _)| set | 1 << from);
                    }
                }
            }
        }
        if silent != 0 {
            // A quorum may still hold the option: no collision to
            // declare while its cstructs are on their way.
            for (&from, held) in self.votes.iter_mut() {
                if silent & (1 << from) != 0 && !std::mem::replace(&mut held.asked, true) {
                    self.pulls.push(from);
                }
            }
            return LearnOutcome::Undecided;
        }
        self.detect_collision(&groups)
    }

    /// Declares a collision when no quorum can agree anymore: every
    /// acceptor responded, all in one (instance, ballot) group, and
    /// nothing was learned. Anything less clear-cut stays `Undecided` -
    /// the coordinator's learn timeout is the liveness fallback, and a
    /// spurious collision verdict would trigger needless recovery rounds.
    fn detect_collision(&self, groups: &VoteGroups<'_>) -> LearnOutcome {
        if groups.len() != 1 {
            return LearnOutcome::Undecided;
        }
        let ((_, _, classic, _), members) = groups.iter().next().expect("one group");
        // A vote can reach this coordinator before its own proposal
        // reaches the acceptors (acceptors fan votes out to every entry's
        // coordinator). Until at least one vote carries the option, there
        // is nothing to collide about.
        if members.iter().all(|(_, h)| h.letter.is_none()) {
            return LearnOutcome::Undecided;
        }
        if self.votes.len() == self.n {
            return LearnOutcome::Collision;
        }
        // Early detection within the single group of the current
        // proposal: if neither side can reach its quorum even with every
        // unheard acceptor, the votes are split for good.
        let q = if *classic { self.qc } else { self.qf };
        let mut accepted = 0usize;
        let mut rejected = 0usize;
        let mut absent = 0usize;
        for (_, h) in members {
            match h.letter {
                Some((s, _)) if s.is_accepted() => accepted += 1,
                Some(_) => rejected += 1,
                None => absent += 1,
            }
        }
        let head_room = (self.n - self.votes.len()) + absent;
        if accepted + head_room < q && rejected + head_room < q {
            return LearnOutcome::Collision;
        }
        LearnOutcome::Undecided
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::TxnOption;
    use mdcc_common::error::AbortReason;
    use mdcc_common::{
        CommutativeUpdate, Key, NodeId, PhysicalUpdate, Row, TableId, UpdateOp, Version,
    };

    const N: usize = 5;
    const QC: usize = 3;
    const QF: usize = 4;

    fn key() -> Key {
        Key::new(TableId(0), "r")
    }

    fn txn(seq: u64) -> TxnId {
        TxnId::new(NodeId(1), seq)
    }

    fn comm(seq: u64) -> TxnOption {
        TxnOption::solo(
            txn(seq),
            key(),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
        )
    }

    fn phys(seq: u64) -> TxnOption {
        TxnOption::solo(
            txn(seq),
            key(),
            UpdateOp::Physical(PhysicalUpdate::write(Version(1), Row::new())),
        )
    }

    fn vote(ballot: Ballot, entries: Vec<(TxnOption, OptionStatus)>) -> Phase2b {
        let mut c = CStruct::new();
        for (o, s) in entries {
            c.append(o, s);
        }
        Phase2b {
            ballot,
            version: Version(1),
            cstruct: c,
            epoch: 0,
        }
    }

    #[test]
    fn learns_accept_from_fast_quorum() {
        let mut l = Learner::new(N, QC, QF, txn(1));
        let b = Ballot::INITIAL_FAST;
        for i in 0..3 {
            assert_eq!(
                l.on_vote(i, vote(b, vec![(comm(1), OptionStatus::Accepted)])),
                LearnOutcome::Undecided,
                "three votes are not a fast quorum"
            );
        }
        assert_eq!(
            l.on_vote(3, vote(b, vec![(comm(1), OptionStatus::Accepted)])),
            LearnOutcome::Learned(OptionStatus::Accepted)
        );
        assert_eq!(l.learned(), Some(OptionStatus::Accepted));
    }

    #[test]
    fn learns_reject_even_with_mixed_reasons() {
        let mut l = Learner::new(N, QC, QF, txn(1));
        let b = Ballot::INITIAL_FAST;
        let reasons = [
            AbortReason::StaleRead,
            AbortReason::DemarcationLimit,
            AbortReason::PendingOption,
            AbortReason::StaleRead,
        ];
        let mut outcome = LearnOutcome::Undecided;
        for (i, r) in reasons.iter().enumerate() {
            outcome = l.on_vote(i, vote(b, vec![(comm(1), OptionStatus::Rejected(*r))]));
        }
        assert!(
            matches!(outcome, LearnOutcome::Learned(OptionStatus::Rejected(_))),
            "got {outcome:?}"
        );
    }

    #[test]
    fn learns_classic_from_three_votes() {
        let mut l = Learner::new(N, QC, QF, txn(1));
        let b = Ballot::classic(1, NodeId(0));
        l.on_vote(0, vote(b, vec![(phys(1), OptionStatus::Accepted)]));
        l.on_vote(1, vote(b, vec![(phys(1), OptionStatus::Accepted)]));
        let out = l.on_vote(2, vote(b, vec![(phys(1), OptionStatus::Accepted)]));
        assert_eq!(out, LearnOutcome::Learned(OptionStatus::Accepted));
    }

    #[test]
    fn interleaved_physical_writes_collide() {
        // Acceptors saw t1 and t2 in different orders: 3 accepted t1
        // first, 2 accepted t2 first. Neither reaches a fast quorum.
        let mut l = Learner::new(N, QC, QF, txn(1));
        let b = Ballot::INITIAL_FAST;
        let t1_first = vec![
            (phys(1), OptionStatus::Accepted),
            (phys(2), OptionStatus::Rejected(AbortReason::PendingOption)),
        ];
        let t2_first = vec![
            (phys(2), OptionStatus::Accepted),
            (phys(1), OptionStatus::Rejected(AbortReason::PendingOption)),
        ];
        assert_eq!(
            l.on_vote(0, vote(b, t1_first.clone())),
            LearnOutcome::Undecided
        );
        assert_eq!(
            l.on_vote(1, vote(b, t1_first.clone())),
            LearnOutcome::Undecided
        );
        assert_eq!(
            l.on_vote(2, vote(b, t1_first.clone())),
            LearnOutcome::Undecided
        );
        assert_eq!(
            l.on_vote(3, vote(b, t2_first.clone())),
            LearnOutcome::Undecided
        );
        // Fifth response: all acceptors heard, no 4-quorum agrees → collision.
        assert_eq!(l.on_vote(4, vote(b, t2_first)), LearnOutcome::Collision);
    }

    #[test]
    fn early_collision_detection_without_all_votes() {
        // 2 accepted, 2 rejected: even the one silent acceptor cannot give
        // either side a fast quorum of 4 → declare collision early.
        let mut l = Learner::new(N, QC, QF, txn(1));
        let b = Ballot::INITIAL_FAST;
        l.on_vote(0, vote(b, vec![(comm(1), OptionStatus::Accepted)]));
        l.on_vote(1, vote(b, vec![(comm(1), OptionStatus::Accepted)]));
        l.on_vote(
            2,
            vote(
                b,
                vec![(
                    comm(1),
                    OptionStatus::Rejected(AbortReason::DemarcationLimit),
                )],
            ),
        );
        let out = l.on_vote(
            3,
            vote(
                b,
                vec![(
                    comm(1),
                    OptionStatus::Rejected(AbortReason::DemarcationLimit),
                )],
            ),
        );
        assert_eq!(out, LearnOutcome::Collision);
    }

    #[test]
    fn commutative_options_learn_despite_different_orders() {
        // The whole point of Generalized Paxos: different arrival orders
        // of commuting options do not prevent learning.
        let mut l = Learner::new(N, QC, QF, txn(1));
        let b = Ballot::INITIAL_FAST;
        let ab = vec![
            (comm(1), OptionStatus::Accepted),
            (comm(2), OptionStatus::Accepted),
        ];
        let ba = vec![
            (comm(2), OptionStatus::Accepted),
            (comm(1), OptionStatus::Accepted),
        ];
        l.on_vote(0, vote(b, ab.clone()));
        l.on_vote(1, vote(b, ba.clone()));
        l.on_vote(2, vote(b, ab));
        let out = l.on_vote(3, vote(b, ba));
        assert_eq!(out, LearnOutcome::Learned(OptionStatus::Accepted));
    }

    #[test]
    fn votes_from_older_instances_are_ignored() {
        let mut l = Learner::new(N, QC, QF, txn(1));
        let b = Ballot::INITIAL_FAST;
        let mut old = vote(b, vec![(comm(1), OptionStatus::Accepted)]);
        old.version = Version(0);
        for i in 0..4 {
            let out = l.on_vote(i, old.clone());
            if i < 3 {
                assert_eq!(out, LearnOutcome::Undecided);
            } else {
                // All four votes *are* a quorum at version 0 — but if a
                // newer vote exists, the old instance cannot decide.
                assert_eq!(out, LearnOutcome::Learned(OptionStatus::Accepted));
            }
        }
        // Now a newer-version vote arrives: learning already happened, so
        // the learner sticks to its verdict (learning is stable).
        let newer = vote(b, vec![]);
        assert_eq!(
            l.on_vote(4, newer),
            LearnOutcome::Learned(OptionStatus::Accepted)
        );
    }

    /// A physical write behind a committed delta: accepted, not
    /// front-movable.
    fn behind_a_delta() -> Vec<(TxnOption, OptionStatus)> {
        vec![
            (comm(2), OptionStatus::Accepted),
            (phys(1), OptionStatus::Accepted),
        ]
    }

    /// A verdict at `ballot` that holds the learner's option accepted
    /// and not front-movable, or does not hold it.
    fn verdict(ballot: Ballot, holds: bool) -> VoteVerdict {
        let letter = crate::acceptor::Letter {
            txn: txn(1),
            status: OptionStatus::Accepted,
            movable: false,
        };
        VoteVerdict {
            ballot,
            version: Version(1),
            letters: holds.then_some(letter).into_iter().collect(),
        }
    }

    #[test]
    fn a_quorum_of_letters_that_are_not_movable_pulls_its_silent_members_once() {
        let mut l = Learner::new(N, QC, QF, txn(1));
        let b = Ballot::INITIAL_FAST;
        for i in 0..3 {
            l.on_verdict(i, &verdict(b, true));
            assert!(l.take_pulls().is_empty(), "no quorum, nothing to pull");
        }
        assert_eq!(l.on_verdict(3, &verdict(b, true)), LearnOutcome::Undecided);
        assert_eq!(l.take_pulls(), vec![0, 1, 2, 3]);
        // The fifth acceptor makes every acceptor heard in one group
        // with nothing learned — no collision while cstructs are due,
        // and only the member not asked yet is asked.
        assert_eq!(l.on_verdict(4, &verdict(b, true)), LearnOutcome::Undecided);
        assert_eq!(l.take_pulls(), vec![4]);
        // A repeated verdict asks for nothing again.
        l.on_verdict(0, &verdict(b, true));
        assert!(l.take_pulls().is_empty());
        for i in 0..3 {
            assert_eq!(
                l.on_vote(i, vote(b, behind_a_delta())),
                LearnOutcome::Undecided
            );
        }
        assert_eq!(
            l.on_vote(3, vote(b, behind_a_delta())),
            LearnOutcome::Learned(OptionStatus::Accepted)
        );
        assert!(l.take_pulls().is_empty());
    }

    #[test]
    fn pulled_cstructs_that_disagree_are_a_collision_once_all_are_in() {
        // Same letters everywhere, opposite orders on two members: the
        // count alone would say "learned", the glb says no.
        let mut l = Learner::new(N, QC, QF, txn(1));
        let b = Ballot::INITIAL_FAST;
        for i in 0..N {
            l.on_verdict(i, &verdict(b, true));
        }
        assert_eq!(l.take_pulls().len(), N);
        let other_order = vec![
            (phys(2), OptionStatus::Accepted),
            (phys(1), OptionStatus::Accepted),
        ];
        let queued = vec![
            (phys(3), OptionStatus::Accepted),
            (phys(1), OptionStatus::Accepted),
        ];
        let mut outcome = LearnOutcome::Undecided;
        for i in 0..N {
            let entries = if i < 2 {
                other_order.clone()
            } else {
                queued.clone()
            };
            assert_eq!(outcome, LearnOutcome::Undecided, "cstructs still due");
            outcome = l.on_vote(i, vote(b, entries));
        }
        assert_eq!(outcome, LearnOutcome::Collision);
    }

    #[test]
    fn a_later_verdict_keeps_a_pulled_cstruct_only_if_it_repeats_the_letter() {
        let three = |l: &mut Learner| {
            for i in 0..3 {
                l.on_verdict(i, &verdict(Ballot::classic(1, NodeId(0)), true));
            }
            assert_eq!(l.take_pulls(), vec![0, 1, 2]);
        };
        let b = Ballot::classic(1, NodeId(0));

        // Repeats the letter: the cstruct stays and decides with the
        // other two.
        let mut l = Learner::new(N, QC, QF, txn(1));
        three(&mut l);
        l.on_vote(0, vote(b, behind_a_delta()));
        l.on_verdict(0, &verdict(b, true));
        l.on_vote(1, vote(b, behind_a_delta()));
        assert_eq!(
            l.on_vote(2, vote(b, behind_a_delta())),
            LearnOutcome::Learned(OptionStatus::Accepted)
        );

        // Changes the letter (a reordered verdict from before the option
        // arrived): the letter is replaced, the cstruct that shows
        // another one goes, and when the letter is back the acceptor is
        // asked again.
        let mut l = Learner::new(N, QC, QF, txn(1));
        three(&mut l);
        l.on_vote(0, vote(b, behind_a_delta()));
        l.on_verdict(0, &verdict(b, false));
        l.on_vote(1, vote(b, behind_a_delta()));
        assert_eq!(
            l.on_vote(2, vote(b, behind_a_delta())),
            LearnOutcome::Undecided,
            "two of three hold the option"
        );
        assert_eq!(l.on_verdict(0, &verdict(b, true)), LearnOutcome::Undecided);
        assert_eq!(l.take_pulls(), vec![0]);
        assert_eq!(
            l.on_vote(0, vote(b, behind_a_delta())),
            LearnOutcome::Learned(OptionStatus::Accepted)
        );

        // A newer ballot replaces everything held of the acceptor.
        let mut l = Learner::new(N, QC, QF, txn(1));
        three(&mut l);
        l.on_vote(0, vote(b, behind_a_delta()));
        l.on_verdict(0, &verdict(Ballot::classic(2, NodeId(0)), true));
        l.on_vote(1, vote(b, behind_a_delta()));
        assert_eq!(
            l.on_vote(2, vote(b, behind_a_delta())),
            LearnOutcome::Undecided
        );
    }

    #[test]
    fn duplicate_and_stale_votes_are_idempotent() {
        let mut l = Learner::new(N, QC, QF, txn(1));
        let b = Ballot::INITIAL_FAST;
        let v = vote(b, vec![(comm(1), OptionStatus::Accepted)]);
        l.on_vote(0, v.clone());
        l.on_vote(0, v.clone());
        l.on_vote(0, v.clone());
        assert_eq!(l.responses(), 1, "one acceptor, one vote");
    }
}
