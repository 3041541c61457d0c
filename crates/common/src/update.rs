//! Update operations collected in a transaction's write-set.
//!
//! MDCC represents every write as `vread → vwrite` (§3.2.1): a *physical*
//! update replaces the record and is only valid if the record version the
//! transaction read is still current; a *commutative* update (§3.4) carries
//! attribute deltas and commutes with other commutative updates subject to
//! the table's value constraints.

use std::fmt;
use std::sync::Arc;

use crate::ids::{Key, TxnId};
use crate::value::Row;

/// Version number of a record. Each decided Paxos instance produces the
/// next version, whether the deciding option committed or aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version(pub u64);

impl Version {
    /// The version of a freshly created record's first instance.
    pub const ZERO: Version = Version(0);

    /// The next version.
    pub fn next(self) -> Version {
        Version(self.0 + 1)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A whole-record replacement, insert or delete.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PhysicalUpdate {
    /// The version this transaction read. `None` marks an insert: the
    /// update is only valid if the record does not exist yet.
    pub vread: Option<Version>,
    /// The new row. `None` marks a delete (tombstone).
    pub value: Option<Row>,
}

impl PhysicalUpdate {
    /// An update of an existing record read at `vread`.
    pub fn write(vread: Version, value: Row) -> Self {
        Self {
            vread: Some(vread),
            value: Some(value),
        }
    }

    /// An insert of a record that must not exist yet.
    pub fn insert(value: Row) -> Self {
        Self {
            vread: None,
            value: Some(value),
        }
    }

    /// A delete of a record read at `vread`.
    pub fn delete(vread: Version) -> Self {
        Self {
            vread: Some(vread),
            value: None,
        }
    }

    /// True if this is an insert (missing `vread`, §3.2.1).
    pub fn is_insert(&self) -> bool {
        self.vread.is_none()
    }

    /// True if this is a delete (tombstone write).
    pub fn is_delete(&self) -> bool {
        self.value.is_none()
    }
}

/// A set of commutative attribute deltas, e.g. `decrement(stock, 1)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CommutativeUpdate {
    /// `(attribute, delta)` pairs; a negative delta is a decrement.
    /// Immutable once built and shared by every copy of the option that
    /// carries it: a clone is a reference count.
    pub deltas: Arc<[(Arc<str>, i64)]>,
}

impl Default for CommutativeUpdate {
    fn default() -> Self {
        Self {
            deltas: Arc::new([]),
        }
    }
}

impl CommutativeUpdate {
    /// A single-attribute delta.
    pub fn delta(attr: impl Into<String>, delta: i64) -> Self {
        Self {
            deltas: Arc::new([(attr.into().into(), delta)]),
        }
    }

    /// Builder-style extra delta.
    pub fn and(self, attr: impl Into<String>, delta: i64) -> Self {
        let extra = (attr.into().into(), delta);
        Self {
            deltas: self.deltas.iter().cloned().chain([extra]).collect(),
        }
    }

    /// Net delta applied to `attr` by this update.
    pub fn delta_for(&self, attr: &str) -> i64 {
        self.deltas
            .iter()
            .filter(|(a, _)| &**a == attr)
            .map(|(_, d)| d)
            .sum()
    }
}

/// Either kind of update, or a read guard.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum UpdateOp {
    /// Version-checked whole-record write.
    Physical(PhysicalUpdate),
    /// Constraint-checked attribute deltas.
    Commutative(CommutativeUpdate),
    /// Read-set validation (§4.4, the paper's serializability extension):
    /// asserts the record is still at the version the transaction read.
    /// Accepted guards act as shared locks — they coexist with each other
    /// but conflict with every write — and execute as no-ops.
    ReadGuard(Version),
}

impl UpdateOp {
    /// True for [`UpdateOp::Commutative`].
    pub fn is_commutative(&self) -> bool {
        matches!(self, UpdateOp::Commutative(_))
    }

    /// True for [`UpdateOp::Physical`] — the only kind whose decision
    /// consumes the record's Paxos instance.
    pub fn is_physical(&self) -> bool {
        matches!(self, UpdateOp::Physical(_))
    }

    /// True for [`UpdateOp::ReadGuard`].
    pub fn is_guard(&self) -> bool {
        matches!(self, UpdateOp::ReadGuard(_))
    }

    /// The record version the operation was computed against: a physical
    /// update's or read guard's `vread`. `None` for inserts and
    /// commutative deltas, which read no version.
    pub fn read_version(&self) -> Option<Version> {
        match self {
            UpdateOp::Physical(p) => p.vread,
            UpdateOp::ReadGuard(v) => Some(*v),
            UpdateOp::Commutative(_) => None,
        }
    }
}

/// One update within a transaction's write-set, bound to a record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RecordUpdate {
    /// The record being updated.
    pub key: Key,
    /// The operation.
    pub op: UpdateOp,
}

impl RecordUpdate {
    /// Convenience constructor.
    pub fn new(key: Key, op: UpdateOp) -> Self {
        Self { key, op }
    }
}

/// A transaction's complete write-set, as collected at commit time
/// (optimistic execution, §3.2.1).
///
/// The keys of all updates ride along with every option so that any node
/// can reconstruct a dangling transaction after a coordinator failure
/// (§3.2.3); [`WriteSet::keys`] is the shared list used for that purpose.
#[derive(Debug, Clone)]
pub struct WriteSet {
    /// The transaction these updates belong to.
    pub txn: TxnId,
    /// One update per record. At most one update per key (the transaction
    /// manager merges repeated writes before commit).
    pub updates: Vec<RecordUpdate>,
    /// Shared copy of all write-set keys, embedded in every option.
    pub keys: Arc<[Key]>,
}

impl WriteSet {
    /// Builds a write-set, capturing the key list for recovery metadata.
    pub fn new(txn: TxnId, updates: Vec<RecordUpdate>) -> Self {
        let keys: Arc<[Key]> = updates.iter().map(|u| u.key.clone()).collect();
        Self { txn, updates, keys }
    }

    /// Number of records written.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// True when the transaction wrote nothing (read-only).
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{NodeId, TableId};

    fn key(pk: &str) -> Key {
        Key::new(TableId(0), pk)
    }

    #[test]
    fn physical_update_kinds() {
        let w = PhysicalUpdate::write(Version(3), Row::new().with("a", 1));
        assert!(!w.is_insert());
        assert!(!w.is_delete());

        let i = PhysicalUpdate::insert(Row::new());
        assert!(i.is_insert());
        assert!(!i.is_delete());

        let d = PhysicalUpdate::delete(Version(9));
        assert!(!d.is_insert());
        assert!(d.is_delete());
    }

    #[test]
    fn commutative_net_delta() {
        let up = CommutativeUpdate::delta("stock", -2)
            .and("sold", 2)
            .and("stock", -1);
        assert_eq!(up.delta_for("stock"), -3);
        assert_eq!(up.delta_for("sold"), 2);
        assert_eq!(up.delta_for("missing"), 0);
    }

    #[test]
    fn version_next_is_monotone() {
        assert!(Version::ZERO < Version::ZERO.next());
        assert_eq!(Version(41).next(), Version(42));
    }

    #[test]
    fn write_set_captures_keys() {
        let txn = TxnId::new(NodeId(1), 1);
        let ws = WriteSet::new(
            txn,
            vec![
                RecordUpdate::new(
                    key("a"),
                    UpdateOp::Commutative(CommutativeUpdate::delta("x", 1)),
                ),
                RecordUpdate::new(
                    key("b"),
                    UpdateOp::Physical(PhysicalUpdate::insert(Row::new())),
                ),
            ],
        );
        assert_eq!(ws.len(), 2);
        assert!(!ws.is_empty());
        assert_eq!(ws.keys.len(), 2);
        assert_eq!(ws.keys[0], key("a"));
        assert_eq!(ws.keys[1], key("b"));
    }
}
