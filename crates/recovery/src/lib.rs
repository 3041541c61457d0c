//! Durability and crash recovery for MDCC storage nodes.
//!
//! MDCC §3.2.3 argues that because storage nodes log every learned
//! option, *any* node can reconstruct the state of a dangling
//! transaction. This crate makes that durable story concrete:
//!
//! * [`wal`] — a framed, checksummed **command log**: each
//!   state-changing input a storage node handles is appended before the
//!   in-memory [`mdcc_storage::RecordStore`] applies it, so replay from
//!   the last checkpoint lands on the exact pre-crash state;
//! * [`snapshot`] — full-store checkpoints that compact the WAL, the
//!   [`snapshot::recover_store`] restart path, and the committed-state
//!   digests the recovery audit compares across replicas.
//!
//! What reaches disk is encoded by the shared [`mdcc_common::wire`]
//! layer, so the same bytes define a record on disk and a message on the
//! simulated network.
//!
//! The crate is pure data-plumbing over [`mdcc_sim::Disk`]; the
//! protocol-side hooks (when to append, when to checkpoint, peer sync
//! after restart) live in `mdcc-core`, and the fault schedules that
//! exercise them live in `mdcc-cluster`.

pub mod snapshot;
pub mod wal;

pub use mdcc_common::wire::{from_bytes, to_bytes, Wire, WireError, WireResult};
pub use snapshot::{
    committed_bytes, committed_digest, committed_state_digest, read_checkpoint, recover_store,
    recovered_leases, write_checkpoint, RecoveryInfo,
};
pub use wal::{recovered_lease_state, CommitLog, MemLog, RecoveredLeases, ReplayStats, WalRecord};
