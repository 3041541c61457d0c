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
//! never disables them. So each vote is reduced once, on arrival, to
//! "status of my option, and is it front-movable", and a quorum check is
//! a count over those summaries. Only when some member holds the option
//! behind a non-commuting predecessor (interleaved physical writes) does
//! the learner fall back to [`CStruct::glb_many`].
//!
//! The learner also detects **definite collisions** — situations where no
//! quorum can possibly agree anymore (e.g. two concurrent physical writes
//! interleaved differently across acceptors) — so recovery can start
//! before the learn timeout fires.

use std::collections::BTreeMap;

use mdcc_common::TxnId;

use crate::acceptor::Phase2b;
use crate::ballot::Ballot;
use crate::cstruct::CStruct;
use crate::options::OptionStatus;
use crate::quorum::{mask_indices, subsets};

/// Phase2b votes grouped by `(instance, ballot round, ballot kind flag,
/// proposer)` — votes are only comparable within one group.
type VoteGroups<'a> = BTreeMap<(u64, u32, bool, u32), Vec<&'a Held>>;

/// One acceptor's latest vote, reduced on arrival to what this learner
/// asks of it.
#[derive(Debug, Clone)]
struct Held {
    vote: Phase2b,
    /// [`CStruct::front_movable`] of the learner's option in
    /// `vote.cstruct`: its recorded status and whether its letter is
    /// front-movable there; `None` while the option has not reached
    /// that acceptor.
    letter: Option<(OptionStatus, bool)>,
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
    /// Latest vote per acceptor index.
    votes: BTreeMap<usize, Held>,
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
        let Some(max_version) = self.votes.values().map(|h| h.vote.version).max() else {
            return false;
        };
        self.votes
            .values()
            .any(|h| h.vote.version == max_version && h.letter.is_some())
    }

    /// Feeds one Phase2b vote from acceptor `from` and re-evaluates.
    pub fn on_vote(&mut self, from: usize, vote: Phase2b) -> LearnOutcome {
        debug_assert!(from < self.n, "acceptor index out of range");
        match self.votes.get(&from) {
            Some(old) if (old.vote.version, old.vote.ballot) > (vote.version, vote.ballot) => {}
            _ => {
                let letter = vote.cstruct.front_movable(self.txn);
                self.votes.insert(from, Held { vote, letter });
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
    fn quorum_status(&self, chosen: &[&Held]) -> Option<OptionStatus> {
        let (first, _) = chosen.first()?.letter?;
        let mut all_movable = true;
        for h in chosen {
            let (status, movable) = h.letter?;
            if status.is_accepted() != first.is_accepted() {
                return None;
            }
            all_movable &= movable;
        }
        if all_movable {
            return Some(first);
        }
        let cstructs: Vec<&CStruct> = chosen.iter().map(|h| &h.vote.cstruct).collect();
        CStruct::glb_many(&cstructs).status_of(self.txn)
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
        for held in self.votes.values() {
            let v = &held.vote;
            let key = (
                v.version.0,
                v.ballot.round,
                !v.ballot.is_fast(),
                v.ballot.proposer.0,
            );
            groups.entry(key).or_default().push(held);
        }
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
                let chosen: Vec<&Held> = mask_indices(mask).map(|i| members[i]).collect();
                if let Some(status) = self.quorum_status(&chosen) {
                    self.learned = Some(status);
                    self.learned_fast = ballot.is_fast();
                    return LearnOutcome::Learned(status);
                }
            }
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
        if members.iter().all(|h| h.letter.is_none()) {
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
        for h in members {
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
