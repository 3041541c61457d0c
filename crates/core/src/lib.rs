//! The MDCC commit protocol, mounted on the simulator.
//!
//! This crate turns the sans-IO machines of `mdcc-paxos` into simulated
//! processes and adds the transaction layer of the paper:
//!
//! * [`msg::Msg`] — every message exchanged between app servers and
//!   storage nodes, and [`msg::Tick`] — every timer one arms for itself;
//! * [`placement::Placement`] — record → replica group / master mapping
//!   (range partitioning per data center, §2);
//! * [`coordination::Coordination`] — the coordinator's role as a sans-IO
//!   machine: one learner per option, the rule *commit iff every option
//!   was learned accepted*, the Visibility fan-out and the route rule
//!   for classic work — driven by the transaction manager for its own
//!   transactions and by a storage node for dangling ones;
//! * [`node::StorageNodeProcess`] — a storage node: a router from each
//!   message family to per-record acceptors, per-record leaders (masters,
//!   behind the lease floors its `mdcc_mastership` layer keeps) and
//!   dangling-transaction recovery;
//! * [`parked::Parked`] — fast proposals a storage node holds because it
//!   is behind the version they read, judged once the record catches up;
//! * [`tm::TransactionManager`] — the stateless "DB library" embedded in
//!   app servers: optimistic execution, parallel option proposal, the
//!   learn-then-commit rule, visibility fan-out and reads (§3.2, §4).

pub mod coordination;
pub mod msg;
pub mod node;
pub mod parked;
pub mod tm;
pub mod wire;

/// Re-export of the placement layer (now in `mdcc-common`).
pub use mdcc_common::placement;

pub use msg::{MdccCtx, Msg, RecordName, Tick, Verdicts};
pub use node::StorageNodeProcess;
pub use placement::{Placement, StaticPlacement};
pub use tm::{ReadConsistency, TmConfig, TmEvent, TransactionManager, TxnCompletion, TxnStats};
