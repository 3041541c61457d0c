//! The election/lease ballot.

use mdcc_common::{wire, NodeId};

/// An election/lease ballot, totally ordered by `(n, pid)` — the
/// omnipaxos `Ballot` (SNIPPETS.md snippet 1). `pid` is the node id and
/// doubles as the deterministic tiebreak.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ballot {
    /// Ballot number (bumped past everything seen when campaigning).
    pub n: u32,
    /// Proposing node's id, the total-order tiebreak.
    pub pid: u64,
}

impl Ballot {
    /// Creates a ballot.
    pub fn new(n: u32, pid: u64) -> Self {
        Self { n, pid }
    }

    /// The node this ballot belongs to.
    pub fn node(&self) -> NodeId {
        NodeId(self.pid as u32)
    }
}

wire!(struct Ballot { n, pid });
