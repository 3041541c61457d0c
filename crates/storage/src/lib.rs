//! The storage-node substrate: a versioned, schema-aware record store.
//!
//! The paper's architecture (§2) separates a stateless DB library from
//! stateful storage nodes; each storage node owns a set of records, and
//! each record embeds its own Paxos state. This crate provides that
//! stateful half:
//!
//! * [`schema::Catalog`] — table definitions with integrity constraints
//!   (the `stock ≥ 0` class of constraints that demarcation enforces);
//! * [`store::RecordStore`] — key → [`mdcc_paxos::AcceptorRecord`] map
//!   with committed-read paths, bulk load, and pending-option tracking
//!   for dangling-transaction detection (§3.2.3);
//! * [`engine::Storage`] — pluggable engines deciding where record
//!   bytes live: the in-memory reference map or the log-structured
//!   segment backend ([`ProtocolConfig::storage`](mdcc_common::ProtocolConfig)).

pub mod engine;
pub mod schema;
pub mod store;
pub mod wire;

pub use engine::{EngineStats, KeyRange, LogStructuredBackend, MemBackend, Storage};
pub use mdcc_paxos::AttrConstraint;
pub use schema::{Catalog, TableSchema};
pub use store::{PendingTxn, RangePull, RecordStore, StoreState, SyncItem, SyncRange};
