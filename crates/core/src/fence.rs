//! The lease fence: which classic ballot a record's acceptor must have
//! promised before it judges anything, and where a record's classic
//! traffic goes when that ballot is not the shard lease holder's.
//!
//! Lease-carried Phase1: when this node *grants* a shard lease, the
//! granted ballot doubles as the Phase1-promised classic ballot for every
//! record in the shard. The floor is enforced lazily — the storage node
//! asks [`LeaseFence::floor_for`] right before the acceptor judges a
//! Phase1a or Phase2a — so the holder's first Phase2a for a record, cold
//! or warm, is at a ballot the acceptor has promised (lease ballots are
//! tenure-major: a new tenure's clears anything raised inside the old
//! one) and a deposed holder's stale ballot Nacks without a per-record
//! Phase1 exchange. Hot records whose classic ballot
//! diverged from the shard lease (a contested takeover, collision
//! recovery led elsewhere) carry a per-record override, bounded per shard
//! by [`LEASE_RECORD_OVERRIDES`] and handed to the successor on
//! migration.
//!
//! The fence is sans-IO state. Whatever raises it is returned as the
//! [`WalRecord`]s its owner must log, so that the WAL tail alone rebuilds
//! it ([`mdcc_recovery::recovered_lease_state`] → [`LeaseFence::
//! install_recovered`]). With dynamic mastership off nothing raises it and
//! it answers nothing.

use std::collections::BTreeMap;
use std::sync::Arc;

use mdcc_common::{Key, NodeId};
use mdcc_mastership::{
    record_id, Ballot as MsBallot, LeaseTable, OverrideRun, LEASE_RECORD_OVERRIDES,
};
use mdcc_paxos::Ballot;
use mdcc_recovery::{RecoveredLeases, WalRecord};

use crate::placement::Placement;

fn floor_record(shard: u32, b: MsBallot) -> WalRecord {
    WalRecord::LeaseFloor {
        shard,
        n: b.n,
        pid: b.pid,
    }
}

fn override_record(shard: u32, record: u64, b: MsBallot) -> WalRecord {
    WalRecord::LeaseOverride {
        shard,
        record,
        n: b.n,
        pid: b.pid,
    }
}

/// Shard-level promise floors and per-record overrides of one node.
pub struct LeaseFence {
    enabled: bool,
    placement: Arc<dyn Placement>,
    floors: BTreeMap<u32, MsBallot>,
    overrides: BTreeMap<u32, LeaseTable>,
}

impl LeaseFence {
    /// An empty fence; inert unless `enabled` (dynamic mastership on).
    pub fn new(enabled: bool, placement: Arc<dyn Placement>) -> Self {
        Self {
            enabled,
            placement,
            floors: BTreeMap::new(),
            overrides: BTreeMap::new(),
        }
    }

    /// `key`'s shard and its record id within the shard's override table.
    fn locate(&self, key: &Key) -> (u32, u64) {
        (self.placement.shard_id(key), record_id(key.pk.as_bytes()))
    }

    fn table(&mut self, shard: u32) -> &mut LeaseTable {
        self.overrides
            .entry(shard)
            .or_insert_with(|| LeaseTable::new(LEASE_RECORD_OVERRIDES))
    }

    /// Re-installs floors and overrides folded out of the WAL tail.
    /// Enforcement only: recovered floors keep fencing deposed ballots,
    /// they never let this node serve (the mastership layer's restart
    /// quarantine is separate).
    pub fn install_recovered(&mut self, leases: RecoveredLeases) {
        if !self.enabled {
            return;
        }
        for (shard, (n, pid)) in leases.floors {
            self.raise_floor(shard, MsBallot::new(n, pid));
        }
        for ((shard, record), (n, pid)) in leases.overrides {
            self.table(shard).raise(record, MsBallot::new(n, pid));
        }
    }

    /// The shard floors, in shard order: the highest lease ballot this
    /// node granted per shard, as far as the fence knows.
    pub fn floors(&self) -> Vec<(u32, MsBallot)> {
        self.floors.iter().map(|(s, b)| (*s, *b)).collect()
    }

    /// This node granted a lease on `shard` at `ballot`: raises the
    /// shard's floor, returning the record to log if it rose.
    pub fn raise_floor(&mut self, shard: u32, ballot: MsBallot) -> Option<WalRecord> {
        if self.floors.get(&shard).is_some_and(|cur| ballot <= *cur) {
            return None;
        }
        self.floors.insert(shard, ballot);
        Some(floor_record(shard, ballot))
    }

    /// The classic ballot `key`'s acceptor must have promised before it
    /// judges a proposal: the max of the shard's floor and the record's
    /// override.
    pub fn floor_for(&mut self, key: &Key) -> Option<Ballot> {
        if !self.enabled {
            return None;
        }
        let (shard, record) = self.locate(key);
        let floor = self.floors.get(&shard).copied();
        let table = self.overrides.get_mut(&shard);
        let over = table.and_then(|t| t.override_of(record));
        let best = floor.max(over)?;
        Some(Ballot::lease(best.n, best.node()))
    }

    /// A classic ballot above the shard's floor is in force for `key`
    /// (seen in a Nack): remembers the divergence so routing and
    /// enforcement honor it record by record. Returns the record to log
    /// if the override rose.
    ///
    /// Floors and overrides are election ballots, so the promise counts
    /// as the tenure it was raised in ([`Ballot::tenure`]): the explicit
    /// Phase 1 rounds a record ran inside a tenure say nothing about who
    /// holds the shard, and the floor the override enforces is that
    /// tenure's lease ballot — at or below what the acceptors promised.
    pub fn note_promise(&mut self, key: &Key, promised: Ballot) -> Option<WalRecord> {
        if !self.enabled || promised.is_fast() {
            return None;
        }
        let (shard, record) = self.locate(key);
        let ballot = MsBallot::new(promised.tenure(), promised.proposer.0 as u64);
        if self.floors.get(&shard).is_some_and(|f| ballot <= *f) {
            return None; // Within the shard lease: no divergence to record.
        }
        self.table(shard)
            .raise(record, ballot)
            .then(|| override_record(shard, record, ballot))
    }

    /// Where `key`'s classic traffic should go instead of `me`, the
    /// shard's lease holder: the override ballot's proposer, if it
    /// outranks the shard floor and is another node.
    pub fn route(&mut self, key: &Key, me: NodeId) -> Option<NodeId> {
        let (shard, record) = self.locate(key);
        let over = self.overrides.get_mut(&shard)?.override_of(record)?;
        if self.floors.get(&shard).is_some_and(|f| over <= *f) {
            return None;
        }
        (over.node() != me).then(|| over.node())
    }

    /// Drops `key`'s override: its target bounced the traffic back.
    /// Routing only — acceptor promises still arbitrate.
    pub fn retire(&mut self, key: &Key) {
        let (shard, record) = self.locate(key);
        if let Some(table) = self.overrides.get_mut(&shard) {
            table.remove(record);
        }
    }

    /// The shard's overrides in wire form, for the successor on
    /// migration.
    pub fn runs(&self, shard: u32) -> Vec<OverrideRun> {
        self.overrides
            .get(&shard)
            .map(|t| t.runs())
            .unwrap_or_default()
    }

    /// Installs a predecessor's override runs, returning one record to
    /// log per override that rose.
    pub fn install_runs(&mut self, shard: u32, runs: &[OverrideRun]) -> Vec<WalRecord> {
        let raised = self.table(shard).install_runs(runs);
        raised
            .into_iter()
            .map(|(record, b)| override_record(shard, record, b))
            .collect()
    }

    /// The whole fence as log records, floors then overrides, each in
    /// shard (and record) order: a checkpoint truncates the WAL, and the
    /// tail alone must keep carrying the lease state.
    pub fn checkpoint_records(&self) -> Vec<WalRecord> {
        let floors = self.floors.iter().map(|(s, b)| floor_record(*s, *b));
        let overrides = self.overrides.iter().flat_map(|(shard, table)| {
            let entries = table.iter_sorted().into_iter();
            entries.map(move |(record, b)| override_record(*shard, record, b))
        });
        floors.chain(overrides).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::placement::MasterPolicy;
    use mdcc_common::{DcId, StaticPlacement, TableId};
    use mdcc_recovery::recovered_lease_state;

    /// Five data centers, two shards: nodes 0–4 hold shard 0, 5–9 shard 1.
    fn placement() -> Arc<dyn Placement> {
        let matrix = (0..5).map(|dc| vec![NodeId(dc), NodeId(5 + dc)]).collect();
        StaticPlacement::new(matrix, MasterPolicy::FixedDc(DcId(0)))
    }

    fn key(i: u32) -> Key {
        Key::new(TableId(0), format!("r{i}"))
    }

    fn fence() -> LeaseFence {
        LeaseFence::new(true, placement())
    }

    #[test]
    fn checkpoint_records_fold_and_reinstall_to_the_same_fence() {
        let mut fence = fence();
        assert!(fence.raise_floor(1, MsBallot::new(4, 7)).is_some());
        assert!(fence.raise_floor(0, MsBallot::new(2, 3)).is_some());
        assert!(fence.raise_floor(0, MsBallot::new(2, 1)).is_none(), "lower");
        for i in 0..40 {
            let promised = Ballot::lease(5 + i % 3, NodeId(i % 5)).next_classic(NodeId(i % 5));
            assert!(fence.note_promise(&key(i), promised).is_some());
        }
        let run = OverrideRun {
            start: u64::MAX - 1,
            len: 4,
            ballot: MsBallot::new(9, 2),
        };
        assert_eq!(fence.install_runs(1, &[run]).len(), 4, "wraps, all new");

        let records = fence.checkpoint_records();
        assert_eq!(records.len(), 2 + 40 + 4);
        let mut fresh = self::fence();
        fresh.install_recovered(recovered_lease_state(&records));
        let again = fresh.checkpoint_records();
        assert_eq!(format!("{again:?}"), format!("{records:?}"));
        for i in 0..40 {
            assert_eq!(fresh.floor_for(&key(i)), fence.floor_for(&key(i)));
            assert_eq!(
                fresh.route(&key(i), NodeId(0)),
                fence.route(&key(i), NodeId(0))
            );
        }
    }

    #[test]
    fn an_override_at_or_below_the_shard_floor_routes_nowhere() {
        let mut fence = fence();
        let k = key(1);
        let shard = placement().shard_id(&k);
        assert!(fence
            .note_promise(&k, Ballot::lease(6, NodeId(3)))
            .is_some());
        assert_eq!(fence.route(&k, NodeId(0)), Some(NodeId(3)));
        assert_eq!(fence.route(&k, NodeId(3)), None, "the target is this node");
        assert_eq!(fence.floor_for(&k), Some(Ballot::lease(6, NodeId(3))));
        // The shard's lease moves past the override: the holder serves
        // the record again, and a promise within the lease records nothing.
        assert!(fence.raise_floor(shard, MsBallot::new(6, 3)).is_some());
        assert_eq!(fence.route(&k, NodeId(0)), None, "equal to the floor");
        assert!(fence.raise_floor(shard, MsBallot::new(8, 0)).is_some());
        assert_eq!(fence.route(&k, NodeId(1)), None, "below the floor");
        assert_eq!(fence.floor_for(&k), Some(Ballot::lease(8, NodeId(0))));
        assert!(fence
            .note_promise(&k, Ballot::lease(7, NodeId(4)))
            .is_none());
        fence.retire(&k);
        assert_eq!(fence.floor_for(&k), Some(Ballot::lease(8, NodeId(0))));
    }

    #[test]
    fn with_mastership_off_nothing_raises_it_and_it_answers_nothing() {
        let mut fence = LeaseFence::new(false, placement());
        assert!(fence
            .note_promise(&key(1), Ballot::lease(6, NodeId(3)))
            .is_none());
        assert!(fence.note_promise(&key(1), Ballot::INITIAL_FAST).is_none());
        assert_eq!(fence.floor_for(&key(1)), None);
        assert!(fence.checkpoint_records().is_empty());
    }
}
