//! Ballot numbers.
//!
//! MDCC distinguishes *classic* and *fast* ballots (§3.3.1). Collision
//! recovery must be able to override any fast activity of the same round,
//! so "classic ballot numbers are always higher ranked than fast ballot
//! numbers". Within a kind, ballots order by round and then by proposer
//! id (the paper concatenates the requester's IP address for uniqueness).

use std::fmt;

use mdcc_common::NodeId;

/// Whether a ballot is coordinated by a master (classic) or open to any
/// proposer (fast).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BallotKind {
    /// Any proposer may send options directly to the acceptors; learning
    /// needs a fast quorum.
    Fast,
    /// A single leader serializes proposals; learning needs only a classic
    /// quorum.
    Classic,
}

/// A ballot number: `(round, kind, proposer)` with classic > fast within a
/// round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ballot {
    /// Monotonically increasing round.
    pub round: u32,
    /// Fast or classic.
    pub kind: BallotKind,
    /// The node that started the ballot; tie-breaker, and the master for
    /// classic ballots.
    pub proposer: NodeId,
}

/// Bits of a classic round that count explicit Phase 1 rounds inside
/// one lease tenure; the bits above carry the tenure's election number.
const TENURE_SHIFT: u32 = 16;
const TENURE_MASK: u32 = (1 << TENURE_SHIFT) - 1;

impl Ballot {
    /// The implicit default ballot every record starts in: round 0, fast,
    /// no distinguished proposer (§3.3.1: "all versions start as an
    /// implicitly fast ballot number").
    pub const INITIAL_FAST: Ballot = Ballot {
        round: 0,
        kind: BallotKind::Fast,
        proposer: NodeId(0),
    };

    /// A classic ballot at `round` led by `proposer`.
    pub fn classic(round: u32, proposer: NodeId) -> Self {
        Self {
            round,
            kind: BallotKind::Classic,
            proposer,
        }
    }

    /// A fast ballot at `round` opened by `proposer`.
    pub fn fast(round: u32, proposer: NodeId) -> Self {
        Self {
            round,
            kind: BallotKind::Fast,
            proposer,
        }
    }

    /// True for fast ballots.
    pub fn is_fast(&self) -> bool {
        self.kind == BallotKind::Fast
    }

    /// The smallest classic ballot led by `proposer` that beats `self`
    /// and that Phase 1 may establish. Counts in the low 16 bits of the
    /// round, so up to 2¹⁶−1 of them fit inside one lease tenure (see
    /// [`Ballot::lease`]); the next one carries into the following
    /// tenure, where explicit Phase 1 arbitrates as it does between any
    /// two classic ballots. A round whose low bits are all zero is some
    /// tenure's lease ballot — assumed, never established
    /// ([`Ballot::is_lease`]) — and is stepped over.
    pub fn next_classic(&self, proposer: NodeId) -> Ballot {
        let round = match self.kind {
            // A classic ballot of the same round already beats any fast
            // ballot of that round.
            BallotKind::Fast => self.round.max(1),
            BallotKind::Classic => self.round.saturating_add(1),
        };
        let reserved = round & TENURE_MASK == 0;
        Ballot::classic(round + u32::from(reserved), proposer)
    }

    /// The smallest fast ballot that beats `self` (used by a master
    /// reopening fast mode after γ classic transactions).
    pub fn next_fast(&self, proposer: NodeId) -> Ballot {
        Ballot::fast(self.round + 1, proposer)
    }

    /// The promise floor a mastership lease at election-ballot number
    /// `n` carries for every record in its scope (lease-carried
    /// Phase1). Classic by construction: a floor must fence fast
    /// proposals of its round and is always led by the lease `holder`,
    /// so the holder's first Phase2a at this ballot is immediately
    /// valid on any acceptor that installed the floor.
    ///
    /// Lease ballots are **tenure-major**: the election number sits in
    /// the high bits of the round, `classic(n << 16, holder)`, and the
    /// explicit Phase 1 rounds records run *inside* a tenure
    /// ([`Ballot::next_classic`]) count in the low 16 bits. A new tenure
    /// therefore outranks anything raised inside the old one —
    /// `lease(n + 1, x) > lease(n, y).next_classic(z)…` for up to 2¹⁶−1
    /// steps — and the next holder's lease ballot clears the promise of
    /// every record its predecessor re-established, instead of finding
    /// records that leapfrogged the shard's election number. Same four
    /// bytes on the wire. Election numbers past [`Ballot::MAX_TENURE`]
    /// saturate to one ballot that no longer orders tenures;
    /// [`Ballot::lease_saturated`] reports it and the holder falls back
    /// to explicit Phase 1.
    pub fn lease(n: u32, holder: NodeId) -> Self {
        Ballot::classic(n.min(Self::MAX_TENURE) << TENURE_SHIFT, holder)
    }

    /// The highest election number a lease ballot can carry; it doubles
    /// as the overflow marker.
    pub const MAX_TENURE: u32 = (1 << (32 - TENURE_SHIFT)) - 1;

    /// The election number of the tenure this ballot was raised in (the
    /// inverse of [`Ballot::lease`], ignoring the per-record count).
    pub fn tenure(&self) -> u32 {
        self.round >> TENURE_SHIFT
    }

    /// True for a ballot that is exactly some tenure's lease ballot —
    /// one a holder assumed, never one Phase 1 established: those come
    /// from [`Ballot::next_classic`], which never returns a round with
    /// all low bits zero, carry included. The one place that knows.
    pub fn is_lease(&self) -> bool {
        self.kind == BallotKind::Classic && self.round != 0 && self.round & TENURE_MASK == 0
    }

    /// True for a ballot of the saturated tenure: election numbers that
    /// no longer fit all map here, so it must not stand in for Phase 1.
    pub fn lease_saturated(&self) -> bool {
        self.tenure() == Self::MAX_TENURE
    }

    fn rank(&self) -> (u32, u8, u32) {
        let kind = match self.kind {
            BallotKind::Fast => 0,
            BallotKind::Classic => 1,
        };
        (self.round, kind, self.proposer.0)
    }
}

impl PartialOrd for Ballot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ballot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank().cmp(&other.rank())
    }
}

impl fmt::Display for Ballot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = if self.is_fast() { "F" } else { "C" };
        write!(f, "b{}{}@{}", self.round, k, self.proposer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_outranks_fast_of_same_round() {
        let f = Ballot::fast(3, NodeId(9));
        let c = Ballot::classic(3, NodeId(1));
        assert!(c > f, "classic must beat fast within a round");
        assert!(Ballot::fast(4, NodeId(0)) > c, "higher round beats kind");
    }

    #[test]
    fn proposer_breaks_ties() {
        let a = Ballot::classic(2, NodeId(1));
        let b = Ballot::classic(2, NodeId(2));
        assert!(a < b);
        assert_eq!(a, Ballot::classic(2, NodeId(1)));
    }

    #[test]
    fn next_classic_always_beats_current() {
        let cases = [
            Ballot::INITIAL_FAST,
            Ballot::fast(7, NodeId(3)),
            Ballot::classic(7, NodeId(3)),
        ];
        for b in cases {
            let n = b.next_classic(NodeId(0));
            assert!(n > b, "{n} must beat {b}");
            assert_eq!(n.kind, BallotKind::Classic);
        }
    }

    #[test]
    fn next_fast_beats_current_classic() {
        let c = Ballot::classic(5, NodeId(2));
        let f = c.next_fast(NodeId(2));
        assert!(f > c);
        assert!(f.is_fast());
    }

    #[test]
    fn initial_fast_is_the_minimum_fast_ballot() {
        assert!(Ballot::INITIAL_FAST <= Ballot::fast(0, NodeId(0)));
        assert!(Ballot::INITIAL_FAST < Ballot::classic(0, NodeId(0)));
    }

    #[test]
    fn lease_floor_fences_its_rounds_fast_ballots() {
        let floor = Ballot::lease(3, NodeId(2));
        assert!(!floor.is_fast());
        assert_eq!(floor.tenure(), 3);
        assert!(floor.is_lease());
        assert!(!floor.next_classic(NodeId(2)).is_lease(), "established");
        assert!(!Ballot::classic(1, NodeId(2)).is_lease());
        assert!(!Ballot::fast(floor.round, NodeId(2)).is_lease());
        assert!(floor > Ballot::fast(floor.round, NodeId(9)), "fences fast");
        assert!(floor > Ballot::lease(3, NodeId(1)), "pid breaks ties");
        assert!(Ballot::lease(4, NodeId(0)) > floor, "higher tenure wins");
    }

    #[test]
    fn a_new_tenure_outranks_everything_raised_inside_the_old_one() {
        // Per-record Phase 1 rounds count in the low bits: whoever ran
        // them, and however many (up to 2^16 - 1), the next tenure's
        // lease ballot is above the result.
        for n in [0u32, 1, 7, Ballot::MAX_TENURE - 2] {
            let mut raised = Ballot::lease(n, NodeId(9));
            let next = Ballot::lease(n + 1, NodeId(0));
            for step in 0..(1u32 << TENURE_SHIFT) - 1 {
                raised = raised.next_classic(NodeId(step % 7));
                assert_eq!(raised.tenure(), n, "step {step} stays in tenure {n}");
            }
            assert!(next > raised, "{next} must outrank {raised}");
            // One more carries into the next tenure: explicit Phase 1
            // arbitrates from there, as between any classic ballots —
            // stepping over the lease ballot itself, which is assumed
            // and never established.
            let carried = raised.next_classic(NodeId(1));
            assert!(carried > next);
            assert_eq!(carried.tenure(), n + 1);
            assert!(!carried.is_lease(), "{carried} was established");
        }
    }

    #[test]
    fn phase1_never_establishes_a_lease_ballot() {
        // Whatever it starts from — the last round of a tenure, a fast
        // ballot reopened there — `next_classic` lands on a round with
        // low bits set.
        let last = Ballot::classic((3 << TENURE_SHIFT) | TENURE_MASK, NodeId(1));
        let reopened = last.next_fast(NodeId(1));
        assert_eq!(reopened.round & TENURE_MASK, 0);
        for from in [last, reopened, Ballot::lease(4, NodeId(2))] {
            let next = from.next_classic(NodeId(5));
            assert!(next > from);
            assert!(!next.is_lease(), "{from} -> {next}");
            assert_eq!(next.round, (4 << TENURE_SHIFT) + 1);
        }
    }

    #[test]
    fn election_numbers_that_do_not_fit_saturate_and_say_so() {
        let last = Ballot::lease(Ballot::MAX_TENURE - 1, NodeId(1));
        assert!(!last.lease_saturated());
        let over = Ballot::lease(Ballot::MAX_TENURE, NodeId(1));
        assert!(over.lease_saturated());
        assert_eq!(Ballot::lease(u32::MAX, NodeId(1)), over, "saturates");
        assert!(over > last);
        // Rounds never wrap: the top of the space stays the top.
        let top = Ballot::classic(u32::MAX, NodeId(1));
        assert_eq!(top.next_classic(NodeId(1)).round, u32::MAX);
    }

    #[test]
    fn display() {
        assert_eq!(Ballot::classic(4, NodeId(2)).to_string(), "b4C@n2");
        assert_eq!(Ballot::fast(0, NodeId(0)).to_string(), "b0F@n0");
    }
}
