//! Transaction options: ω(up, ✓/✗).
//!
//! MDCC's acceptors do not agree on values — they agree on *options to
//! execute an update* (§3.2.1). A storage node actively decides whether an
//! option is acceptable (version check or demarcation check) and the
//! decision itself is what Paxos replicates. An accepted option is
//! *outstanding* until the coordinator's Visibility message resolves it as
//! committed or aborted.

use std::fmt;
use std::sync::Arc;

use mdcc_common::error::AbortReason;
use mdcc_common::{Key, TxnId, UpdateOp};

/// The acceptance decision a storage node makes for an option.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptionStatus {
    /// ω(up, ✓): the update may execute if the transaction commits.
    Accepted,
    /// ω(up, ✗): the update must not execute; carries the reason.
    Rejected(AbortReason),
}

impl OptionStatus {
    /// True for [`OptionStatus::Accepted`].
    pub fn is_accepted(&self) -> bool {
        matches!(self, OptionStatus::Accepted)
    }
}

/// Final transaction outcome distributed by Visibility messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnOutcome {
    /// Execute all accepted options of the transaction.
    Committed,
    /// Discard all options of the transaction.
    Aborted,
}

/// An update proposed for one record on behalf of one transaction.
///
/// Besides the operation itself, the option carries the transaction id and
/// the full set of write-set keys — "every option includes all necessary
/// information to reconstruct the state of the corresponding transactions"
/// (§3.2.3), which is what makes dangling-transaction recovery possible.
#[derive(Debug, Clone)]
pub struct TxnOption {
    /// The transaction proposing the update.
    pub txn: TxnId,
    /// The record the update targets.
    pub key: Key,
    /// The update operation.
    pub op: UpdateOp,
    /// All keys written by the transaction (recovery metadata).
    pub peers: Arc<[Key]>,
}

impl TxnOption {
    /// Builds an option for a single-record transaction (tests, examples).
    pub fn solo(txn: TxnId, key: Key, op: UpdateOp) -> Self {
        let peers: Arc<[Key]> = Arc::from(vec![key.clone()]);
        Self {
            txn,
            key,
            op,
            peers,
        }
    }

    /// True when the payload is a commutative update.
    pub fn is_commutative(&self) -> bool {
        self.op.is_commutative()
    }
}

impl PartialEq for TxnOption {
    fn eq(&self, other: &Self) -> bool {
        // Options are identified by (txn, key): a transaction writes a
        // record at most once (the TM merges repeated writes).
        self.txn == other.txn && self.key == other.key
    }
}

impl Eq for TxnOption {}

impl fmt::Display for TxnOption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.is_commutative() {
            "comm"
        } else {
            "phys"
        };
        write!(f, "ω({} on {}, {kind})", self.txn, self.key)
    }
}

/// One transaction's options for the records one storage node
/// replicates: the unit a coordinator proposes to a node.
///
/// Each option names its record by position in the write-set, so the
/// transaction id and the write-set — the recovery metadata every option
/// carries (§3.2.3) — are held, and travel, once per proposal rather
/// than once per option. [`Proposal::options`] gives back the options,
/// sharing one write-set.
#[derive(Debug, Clone)]
pub struct Proposal {
    txn: TxnId,
    peers: Arc<[Key]>,
    /// `(index into peers, update)`, each index at most once.
    ops: Vec<(u32, UpdateOp)>,
}

impl Proposal {
    /// The proposal of `opts`, in the order given: options of one
    /// transaction over one write-set (the first option's), each on a
    /// record of that write-set named once. `None` if `opts` is empty or
    /// one of them breaks that shape.
    pub fn of<'a>(opts: impl IntoIterator<Item = &'a TxnOption>) -> Option<Self> {
        let mut opts = opts.into_iter().peekable();
        let first = opts.peek()?;
        let mut proposal = Proposal {
            txn: first.txn,
            peers: Arc::clone(&first.peers),
            ops: Vec::new(),
        };
        for opt in opts {
            let at = proposal.peers.iter().position(|k| *k == opt.key)?;
            let at = u32::try_from(at).ok()?;
            if opt.txn != proposal.txn || proposal.ops.iter().any(|(i, _)| *i == at) {
                return None;
            }
            proposal.ops.push((at, opt.op.clone()));
        }
        Some(proposal)
    }

    /// Builds a proposal from decoded parts: every index names a peer and
    /// none is named twice, else `None`.
    pub(crate) fn from_parts(
        txn: TxnId,
        peers: Arc<[Key]>,
        ops: Vec<(u32, UpdateOp)>,
    ) -> Option<Self> {
        let mut named = vec![false; peers.len()];
        for (at, _) in &ops {
            let slot = named.get_mut(*at as usize)?;
            if std::mem::replace(slot, true) {
                return None;
            }
        }
        Some(Proposal { txn, peers, ops })
    }

    /// The proposing transaction.
    pub(crate) fn txn(&self) -> TxnId {
        self.txn
    }

    /// The transaction's whole write-set.
    pub(crate) fn peers(&self) -> &Arc<[Key]> {
        &self.peers
    }

    /// `(index into peers, update)` per option, in proposal order.
    pub(crate) fn ops(&self) -> &[(u32, UpdateOp)] {
        &self.ops
    }

    /// The options, in proposal order, sharing one write-set; the
    /// proposal is used up.
    pub fn options(self) -> impl Iterator<Item = TxnOption> {
        let Proposal { txn, peers, ops } = self;
        ops.into_iter().filter_map(move |(at, op)| {
            Some(TxnOption {
                txn,
                key: peers.get(at as usize)?.clone(),
                op,
                peers: Arc::clone(&peers),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::{CommutativeUpdate, NodeId, PhysicalUpdate, Row, TableId, Version};

    fn key(pk: &str) -> Key {
        Key::new(TableId(0), pk)
    }

    #[test]
    fn identity_is_txn_and_key() {
        let t = TxnId::new(NodeId(0), 1);
        let a = TxnOption::solo(
            t,
            key("x"),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
        );
        let b = TxnOption::solo(
            t,
            key("x"),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -2)),
        );
        assert_eq!(a, b, "same (txn, key) is the same option");
        let c = TxnOption::solo(t, key("y"), a.op.clone());
        assert_ne!(a, c);
    }

    #[test]
    fn solo_captures_its_own_key_as_peer() {
        let t = TxnId::new(NodeId(2), 9);
        let o = TxnOption::solo(
            t,
            key("x"),
            UpdateOp::Physical(PhysicalUpdate::write(Version(0), Row::new())),
        );
        assert_eq!(&*o.peers, &[key("x")]);
        assert!(!o.is_commutative());
    }

    #[test]
    fn status_helpers() {
        assert!(OptionStatus::Accepted.is_accepted());
        assert!(!OptionStatus::Rejected(AbortReason::StaleRead).is_accepted());
    }
}
