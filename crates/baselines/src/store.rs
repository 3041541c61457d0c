//! A plain versioned record store shared by the baseline protocols.

use std::collections::HashMap;
use std::sync::Arc;

use mdcc_common::{Key, RecordUpdate, Row, UpdateOp, Version};
use mdcc_storage::Catalog;

/// Why a baseline validation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineReject {
    /// Version check failed (write-write conflict).
    StaleRead,
    /// Insert of an existing record.
    AlreadyExists,
    /// Record missing for an update/delta.
    NotFound,
    /// An integrity constraint would be violated.
    Constraint,
}

/// Versioned rows plus schema constraints — no consensus state.
#[derive(Debug)]
pub struct BaselineStore {
    catalog: Arc<Catalog>,
    records: HashMap<Key, (Version, Option<Row>)>,
}

impl BaselineStore {
    /// An empty store for `catalog`.
    pub fn new(catalog: Arc<Catalog>) -> Self {
        Self {
            catalog,
            records: HashMap::new(),
        }
    }

    /// Bulk-loads a record at version 1.
    pub fn load(&mut self, key: Key, row: Row) {
        self.records.insert(key, (Version(1), Some(row)));
    }

    /// Committed read.
    pub fn read(&self, key: &Key) -> Option<(Version, Row)> {
        match self.records.get(key) {
            Some((v, Some(row))) => Some((*v, row.clone())),
            _ => None,
        }
    }

    /// The version of a key (zero if never written).
    pub fn version_of(&self, key: &Key) -> Version {
        self.records
            .get(key)
            .map(|(v, _)| *v)
            .unwrap_or(Version::ZERO)
    }

    /// Number of materialized records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Validates `update` against the current state (used by protocols
    /// that check before applying: 2PC prepare, Megastore* serialization
    /// point).
    pub fn validate(&self, update: &RecordUpdate) -> Result<(), BaselineReject> {
        let current = self.records.get(&update.key);
        match &update.op {
            UpdateOp::Physical(p) => match p.vread {
                None => match current {
                    Some((_, Some(_))) => Err(BaselineReject::AlreadyExists),
                    _ => Ok(()),
                },
                Some(vread) => match current {
                    Some((v, Some(_))) if *v == vread => Ok(()),
                    Some(_) | None => Err(BaselineReject::StaleRead),
                },
            },
            UpdateOp::ReadGuard(vread) => match current {
                Some((v, Some(_))) if v == vread => Ok(()),
                _ => Err(BaselineReject::StaleRead),
            },
            UpdateOp::Commutative(c) => {
                let Some((_, Some(row))) = current else {
                    return Err(BaselineReject::NotFound);
                };
                for constraint in self.catalog.constraints_for(&update.key).iter() {
                    let delta = c.delta_for(&constraint.attr);
                    let new = row.get_int(&constraint.attr).unwrap_or(0) + delta;
                    if constraint.min.is_some_and(|m| new < m)
                        || constraint.max.is_some_and(|m| new > m)
                    {
                        return Err(BaselineReject::Constraint);
                    }
                }
                Ok(())
            }
        }
    }

    /// Applies `update` unconditionally (quorum-writes semantics, or a
    /// protocol that validated beforehand). Bumps the version.
    pub fn apply(&mut self, update: &RecordUpdate) {
        let entry = self
            .records
            .entry(update.key.clone())
            .or_insert((Version::ZERO, None));
        match &update.op {
            UpdateOp::Physical(p) => {
                entry.1 = p.value.clone();
            }
            UpdateOp::Commutative(c) => {
                let mut row = entry.1.take().unwrap_or_default();
                for (attr, delta) in c.deltas.iter() {
                    row.apply_delta(attr, *delta);
                }
                entry.1 = Some(row);
            }
            UpdateOp::ReadGuard(_) => {
                // Validation-only: no state change, no version bump.
                return;
            }
        }
        entry.0 = entry.0.next();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::{CommutativeUpdate, PhysicalUpdate, TableId};
    use mdcc_storage::AttrConstraint;
    use mdcc_storage::TableSchema;

    fn store() -> BaselineStore {
        let catalog = Catalog::new().with(
            TableSchema::new(TableId(1), "item")
                .with_constraint(AttrConstraint::at_least("stock", 0)),
        );
        BaselineStore::new(Arc::new(catalog))
    }

    fn key(pk: &str) -> Key {
        Key::new(TableId(1), pk)
    }

    #[test]
    fn load_read_version() {
        let mut s = store();
        s.load(key("a"), Row::new().with("stock", 5));
        let (v, row) = s.read(&key("a")).unwrap();
        assert_eq!(v, Version(1));
        assert_eq!(row.get_int("stock"), Some(5));
        assert_eq!(s.version_of(&key("nope")), Version::ZERO);
    }

    #[test]
    fn validate_physical_versions() {
        let mut s = store();
        s.load(key("a"), Row::new().with("stock", 5));
        let fresh = RecordUpdate::new(
            key("a"),
            UpdateOp::Physical(PhysicalUpdate::write(Version(1), Row::new())),
        );
        let stale = RecordUpdate::new(
            key("a"),
            UpdateOp::Physical(PhysicalUpdate::write(Version(0), Row::new())),
        );
        assert_eq!(s.validate(&fresh), Ok(()));
        assert_eq!(s.validate(&stale), Err(BaselineReject::StaleRead));
        let dup_insert = RecordUpdate::new(
            key("a"),
            UpdateOp::Physical(PhysicalUpdate::insert(Row::new())),
        );
        assert_eq!(s.validate(&dup_insert), Err(BaselineReject::AlreadyExists));
    }

    #[test]
    fn validate_constraints() {
        let mut s = store();
        s.load(key("a"), Row::new().with("stock", 2));
        let ok = RecordUpdate::new(
            key("a"),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -2)),
        );
        let too_much = RecordUpdate::new(
            key("a"),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -3)),
        );
        assert_eq!(s.validate(&ok), Ok(()));
        assert_eq!(s.validate(&too_much), Err(BaselineReject::Constraint));
        let ghost = RecordUpdate::new(
            key("ghost"),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
        );
        assert_eq!(s.validate(&ghost), Err(BaselineReject::NotFound));
    }

    #[test]
    fn apply_bumps_versions_and_values() {
        let mut s = store();
        s.load(key("a"), Row::new().with("stock", 5));
        s.apply(&RecordUpdate::new(
            key("a"),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -2)),
        ));
        let (v, row) = s.read(&key("a")).unwrap();
        assert_eq!(v, Version(2));
        assert_eq!(row.get_int("stock"), Some(3));
        // Quorum-writes semantics: apply ignores validation (can violate
        // constraints — the whole point of the comparison).
        s.apply(&RecordUpdate::new(
            key("a"),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -10)),
        ));
        assert_eq!(s.read(&key("a")).unwrap().1.get_int("stock"), Some(-7));
    }
}
