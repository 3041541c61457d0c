//! The lease fence: which classic ballot a record's acceptor must have
//! promised before it judges anything.
//!
//! Lease-carried Phase1: when this node *grants* a shard lease, the
//! granted ballot doubles as the Phase1-promised classic ballot for every
//! record in the shard. The floor is enforced lazily — the storage node
//! asks [`LeaseFence::floor_for`] right before the acceptor judges a
//! Phase1a or Phase2a — so the holder's first Phase2a for a record, cold
//! or warm, is at a ballot the acceptor has promised (lease ballots are
//! tenure-major: a new tenure's clears anything raised inside the old
//! one) and a deposed holder's stale ballot Nacks without a per-record
//! Phase1 exchange. The holder leads every record of its shard: a record
//! whose promise rose above the lease inside a tenure (a contested
//! takeover, collision recovery led elsewhere) Nacks the holder, which
//! runs its own Phase 1 above that promise.
//!
//! The fence is sans-IO state. Whatever raises it is returned as the
//! [`WalRecord`]s its owner must log, so that the WAL tail alone rebuilds
//! it ([`mdcc_recovery::recovered_lease_state`] → [`LeaseFence::
//! install_recovered`]). With dynamic mastership off nothing raises it and
//! it answers nothing.

use std::collections::BTreeMap;
use std::sync::Arc;

use mdcc_common::Key;
use mdcc_mastership::Ballot as MsBallot;
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

/// Shard-level promise floors of one node.
pub struct LeaseFence {
    enabled: bool,
    placement: Arc<dyn Placement>,
    floors: BTreeMap<u32, MsBallot>,
}

impl LeaseFence {
    /// An empty fence; inert unless `enabled` (dynamic mastership on).
    pub fn new(enabled: bool, placement: Arc<dyn Placement>) -> Self {
        Self {
            enabled,
            placement,
            floors: BTreeMap::new(),
        }
    }

    /// Re-installs floors folded out of the WAL tail. Enforcement only:
    /// recovered floors keep fencing deposed ballots, they never let this
    /// node serve (the mastership layer's restart quarantine is
    /// separate).
    pub fn install_recovered(&mut self, leases: RecoveredLeases) {
        if !self.enabled {
            return;
        }
        for (shard, (n, pid)) in leases.floors {
            self.raise_floor(shard, MsBallot::new(n, pid));
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
    /// judges a proposal: its shard's floor.
    pub fn floor_for(&self, key: &Key) -> Option<Ballot> {
        if !self.enabled {
            return None;
        }
        let floor = self.floors.get(&self.placement.shard_id(key))?;
        Some(Ballot::lease(floor.n, floor.node()))
    }

    /// The whole fence as log records, in shard order: a checkpoint
    /// truncates the WAL, and the tail alone must keep carrying the lease
    /// state.
    pub fn checkpoint_records(&self) -> Vec<WalRecord> {
        let floors = self.floors.iter();
        floors.map(|(s, b)| floor_record(*s, *b)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::placement::MasterPolicy;
    use mdcc_common::{DcId, NodeId, StaticPlacement, TableId};
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

        let records = fence.checkpoint_records();
        assert_eq!(records.len(), 2);
        let mut fresh = self::fence();
        fresh.install_recovered(recovered_lease_state(&records));
        let again = fresh.checkpoint_records();
        assert_eq!(format!("{again:?}"), format!("{records:?}"));
        for i in 0..40 {
            assert_eq!(fresh.floor_for(&key(i)), fence.floor_for(&key(i)));
        }
    }

    #[test]
    fn a_record_answers_its_shards_floor() {
        let mut fence = fence();
        let k = key(1);
        let shard = placement().shard_id(&k);
        assert_eq!(fence.floor_for(&k), None, "no lease granted yet");
        assert!(fence.raise_floor(shard, MsBallot::new(6, 3)).is_some());
        assert_eq!(fence.floor_for(&k), Some(Ballot::lease(6, NodeId(3))));
        assert!(fence.raise_floor(shard, MsBallot::new(8, 0)).is_some());
        assert_eq!(fence.floor_for(&k), Some(Ballot::lease(8, NodeId(0))));
        assert!(fence.raise_floor(1 - shard, MsBallot::new(9, 5)).is_some());
        assert_eq!(fence.floor_for(&k), Some(Ballot::lease(8, NodeId(0))));
    }

    #[test]
    fn with_mastership_off_nothing_raises_it_and_it_answers_nothing() {
        let fence = LeaseFence::new(false, placement());
        assert_eq!(fence.floor_for(&key(1)), None);
        assert!(fence.checkpoint_records().is_empty());
    }
}
