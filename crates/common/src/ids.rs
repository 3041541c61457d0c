//! Identifiers for data centers, nodes, tables, records and transactions.

use std::fmt;
use std::sync::Arc;

/// Identifier of a geographic data center (the paper deploys five).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DcId(pub u8);

impl fmt::Display for DcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dc{}", self.0)
    }
}

/// Identifier of a simulated process (storage node, app server or client).
///
/// Node ids are dense, assigned by the cluster builder; the topology layer
/// maps each node to its [`DcId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a logical table (TPC-W has eight, the micro-benchmark one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub u16);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Primary key of a record: the table it lives in plus a table-unique id.
///
/// TPC-W composite keys (e.g. order lines) are flattened into the `pk`
/// string by the workload layer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key {
    /// Table this record belongs to.
    pub table: TableId,
    /// Table-unique primary key. Shared, not owned: a key is immutable
    /// and every replica-side copy of an option carries it, so a clone
    /// is a reference count, not an allocation.
    pub pk: Arc<str>,
}

impl Key {
    /// Creates a key in `table` with primary key `pk`.
    pub fn new(table: TableId, pk: impl Into<String>) -> Self {
        Self {
            table,
            pk: pk.into().into(),
        }
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.table, self.pk)
    }
}

/// Globally unique transaction identifier.
///
/// The paper uses UUIDs; we use the coordinating app-server's [`NodeId`]
/// plus a per-coordinator sequence number, which is unique under the same
/// assumption (coordinators never reuse sequence numbers) and — unlike a
/// UUID — totally ordered, which tests exploit for deterministic
/// tie-breaking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId {
    /// Node that coordinates the transaction.
    pub coordinator: NodeId,
    /// Coordinator-local sequence number.
    pub seq: u64,
}

impl TxnId {
    /// Creates the `seq`-th transaction id of `coordinator`.
    pub fn new(coordinator: NodeId, seq: u64) -> Self {
        Self { coordinator, seq }
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn({},{})", self.coordinator, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_display_and_ordering() {
        let a = Key::new(TableId(1), "item42");
        let b = Key::new(TableId(1), "item43");
        let c = Key::new(TableId(2), "item42");
        assert_eq!(a.to_string(), "t1/item42");
        assert!(a < b);
        assert!(b < c, "table dominates pk in the ordering");
    }

    #[test]
    fn txn_ids_are_totally_ordered_by_coordinator_then_seq() {
        let a = TxnId::new(NodeId(1), 7);
        let b = TxnId::new(NodeId(1), 8);
        let c = TxnId::new(NodeId(2), 0);
        assert!(a < b);
        assert!(b < c);
        assert_eq!(a, TxnId::new(NodeId(1), 7));
    }

    #[test]
    fn display_forms_are_stable() {
        assert_eq!(DcId(3).to_string(), "dc3");
        assert_eq!(NodeId(12).to_string(), "n12");
        assert_eq!(TxnId::new(NodeId(2), 5).to_string(), "txn(n2,5)");
    }
}
