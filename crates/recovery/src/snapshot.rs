//! Checkpoints: full-store snapshots and the recovery entry point.
//!
//! A checkpoint serializes the entire [`RecordStore`] (acceptor state,
//! pending options) into the disk's snapshot blob and truncates the WAL
//! — the compaction step that bounds replay work. On restart,
//! [`recover_store`] rebuilds the store from snapshot + WAL tail and
//! reports how much work that took.

use std::sync::Arc;

use mdcc_common::wire::{fnv1a64, from_bytes, to_bytes, Enc, Wire, WireResult};
use mdcc_common::ProtocolConfig;
use mdcc_sim::Disk;
use mdcc_storage::{Catalog, RecordStore, StoreState};

use crate::wal;

/// What one node restart cost, harvested into experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Records materialized from the checkpoint.
    pub snapshot_records: u64,
    /// Checkpoint size in bytes.
    pub snapshot_bytes: u64,
    /// WAL records replayed on top of the checkpoint.
    pub wal_records_replayed: u64,
    /// WAL tail size in bytes.
    pub wal_bytes: u64,
    /// Pending (accepted, unresolved) transactions restored — the
    /// dangling candidates the node must now drive to resolution.
    pub pending_restored: u64,
}

/// Serializes the store into `disk`'s snapshot blob and truncates the
/// WAL (checkpoint + compaction).
pub fn write_checkpoint(disk: &mut Disk, store: &RecordStore) {
    disk.install_snapshot(store.checkpoint_bytes());
}

/// Parses a checkpoint blob (empty blob ⇒ no checkpoint yet).
pub fn read_checkpoint(bytes: &[u8]) -> WireResult<Option<StoreState>> {
    if bytes.is_empty() {
        return Ok(None);
    }
    Ok(Some(from_bytes::<StoreState>(bytes)?))
}

/// Rebuilds a storage node's record store from its disk: checkpoint
/// first, then WAL replay. The WAL is a command log, so replay invokes
/// the same deterministic entry points the pre-crash node used and lands
/// on the exact pre-crash state.
pub fn recover_store(
    cfg: ProtocolConfig,
    catalog: Arc<Catalog>,
    disk: &Disk,
) -> WireResult<(RecordStore, RecoveryInfo)> {
    let mut info = RecoveryInfo {
        snapshot_bytes: disk.snapshot().len() as u64,
        wal_bytes: disk.wal_len() as u64,
        ..RecoveryInfo::default()
    };
    let mut store = match read_checkpoint(disk.snapshot())? {
        Some(state) => {
            info.snapshot_records = state.records.len() as u64;
            RecordStore::from_state(cfg, catalog, state)
        }
        None => RecordStore::new(cfg, catalog),
    };
    let records = wal::read_all(disk.wal())?;
    let stats = wal::replay(&mut store, &records);
    info.wal_records_replayed = stats.applied;
    info.pending_restored = store.pending_len() as u64;
    Ok((store, info))
}

/// Lease-floor state a restarting node must re-enforce (see
/// [`wal::recovered_lease_state`]). Read from the WAL tail alone: a
/// checkpoint truncates the WAL, but the node re-appends its live
/// floors and overrides right after each checkpoint, so the tail is
/// always complete.
pub fn recovered_leases(disk: &Disk) -> WireResult<wal::RecoveredLeases> {
    Ok(wal::recovered_lease_state(&wal::read_all(disk.wal())?))
}

/// The committed state of a store as canonical bytes: `(key, version,
/// value)` sorted by key. Two replicas that have converged produce equal
/// bytes — the recovery audit's byte-equality check.
pub fn committed_bytes(store: &RecordStore) -> Vec<u8> {
    to_bytes(&store.committed_state())
}

/// FNV-1a digest of [`committed_bytes`], cheap to ship around in reports.
pub fn committed_digest(store: &RecordStore) -> u64 {
    committed_state_digest(&store.committed_state())
}

/// Same digest over an already-materialized committed state (callers
/// that also scan the state avoid cloning it twice).
pub fn committed_state_digest(
    state: &[(
        mdcc_common::Key,
        mdcc_common::Version,
        Option<mdcc_common::Row>,
    )],
) -> u64 {
    let mut enc = Enc::new();
    for entry in state {
        entry.encode(&mut enc);
    }
    fnv1a64(&enc.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalRecord;
    use mdcc_common::{CommutativeUpdate, Key, NodeId, Row, SimTime, TableId, TxnId, UpdateOp};
    use mdcc_paxos::{TxnOption, TxnOutcome};

    fn key(pk: &str) -> Key {
        Key::new(TableId(0), pk)
    }

    fn loaded_store() -> RecordStore {
        let mut s = RecordStore::new(ProtocolConfig::default(), Arc::new(Catalog::new()));
        s.load(key("a"), Row::new().with("stock", 10));
        s.load(key("b"), Row::new().with("stock", 20));
        s
    }

    #[test]
    fn checkpoint_then_recover_is_identity() {
        let mut store = loaded_store();
        store.fast_propose(
            TxnOption::solo(
                TxnId::new(NodeId(2), 1),
                key("a"),
                UpdateOp::Commutative(CommutativeUpdate::delta("stock", -4)),
            ),
            SimTime::from_millis(1),
        );
        let mut disk = Disk::new();
        write_checkpoint(&mut disk, &store);
        assert_eq!(disk.wal_len(), 0, "checkpoint compacts the WAL");

        let (rebuilt, info) =
            recover_store(ProtocolConfig::default(), Arc::new(Catalog::new()), &disk).unwrap();
        assert_eq!(info.snapshot_records, 2);
        assert_eq!(info.wal_records_replayed, 0);
        assert_eq!(info.pending_restored, 1, "outstanding option survives");
        assert_eq!(rebuilt.committed_state(), store.committed_state());
        assert_eq!(committed_digest(&rebuilt), committed_digest(&store));
    }

    #[test]
    fn checkpoint_plus_wal_tail_recovers_exactly() {
        // Live node: checkpoint mid-stream, then more traffic hits the WAL.
        let mut store = loaded_store();
        let mut disk = Disk::new();
        write_checkpoint(&mut disk, &store);

        let opt = TxnOption::solo(
            TxnId::new(NodeId(2), 7),
            key("b"),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -5)),
        );
        let tail = [
            WalRecord::FastPropose {
                at: SimTime::from_millis(4),
                opt: opt.clone(),
            },
            WalRecord::Visibility {
                at: SimTime::from_millis(8),
                key: key("b"),
                txn: opt.txn,
                outcome: TxnOutcome::Committed,
                learned_accepted: true,
            },
        ];
        for r in &tail {
            wal::append(&mut disk, r);
            // The live store applies the same commands.
        }
        wal::replay(&mut store, &tail);

        let (rebuilt, info) =
            recover_store(ProtocolConfig::default(), Arc::new(Catalog::new()), &disk).unwrap();
        assert_eq!(info.wal_records_replayed, 2);
        assert_eq!(
            rebuilt
                .read_committed(&key("b"))
                .unwrap()
                .1
                .get_int("stock"),
            Some(15)
        );
        assert_eq!(committed_bytes(&rebuilt), committed_bytes(&store));
    }

    /// Checkpoints once ended in the learned-option ring (a `u32` entry
    /// count and a `u64` truncation watermark after the pending set). A
    /// blob in that format is refused whole, not half-loaded.
    #[test]
    fn a_checkpoint_with_the_retired_option_ring_is_an_error() {
        let mut blob = loaded_store().checkpoint_bytes();
        assert!(matches!(read_checkpoint(&blob), Ok(Some(_))));
        let mut ring = Enc::new();
        ring.u32(0);
        ring.u64(0);
        blob.extend_from_slice(&ring.finish());
        let err = read_checkpoint(&blob).expect_err("old-format blob must not load");
        assert_eq!(err.context, "trailing bytes");
    }

    #[test]
    fn empty_disk_recovers_to_an_empty_store() {
        let disk = Disk::new();
        let (store, info) =
            recover_store(ProtocolConfig::default(), Arc::new(Catalog::new()), &disk).unwrap();
        assert!(store.is_empty());
        assert_eq!(info, RecoveryInfo::default());
    }

    #[test]
    fn digest_distinguishes_diverged_replicas() {
        let a = loaded_store();
        let mut b = loaded_store();
        assert_eq!(committed_digest(&a), committed_digest(&b));
        b.load(key("a"), Row::new().with("stock", 11));
        assert_ne!(committed_digest(&a), committed_digest(&b));
    }
}
