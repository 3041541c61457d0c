//! Workload generators: TPC-W and the paper's micro-benchmark.
//!
//! Workloads are protocol-agnostic: a [`Transaction`] names the keys it
//! wants to read, then — given the read results — produces a write-set
//! (or none, for browse-style interactions, or a client-side abort when
//! the reads already doom it). Every protocol client (MDCC, 2PC,
//! Megastore*, quorum writes) drives the same transactions through its
//! own commit machinery, which is exactly how the paper compares them.

pub mod micro;
pub mod mix;
pub mod shifting;
pub mod tpcw;

use mdcc_common::{Key, RecordUpdate, Row, SimTime, Version};
use rand::rngs::SmallRng;

/// What a transaction wants to do after its read phase.
#[derive(Debug, Clone)]
pub enum TxnAction {
    /// Propose these updates (empty = read-only, commits trivially).
    Commit(Vec<RecordUpdate>),
    /// The reads already show the transaction cannot succeed (e.g.
    /// insufficient stock for a physical decrement); abort locally
    /// without proposing anything.
    ClientAbort,
}

/// One transaction: a read phase followed by a write-set.
pub trait Transaction {
    /// Keys to read (one parallel batch of local reads).
    fn read_set(&self) -> Vec<Key>;

    /// Builds the write-set from the read results (key, version, value).
    fn decide(&mut self, reads: &[(Key, Version, Option<Row>)]) -> TxnAction;

    /// True if this transaction intends to write (write-transaction
    /// latency reporting follows the paper: only write transactions are
    /// measured).
    fn is_write(&self) -> bool;

    /// Short label for per-interaction statistics.
    fn label(&self) -> &'static str;
}

/// An endless stream of transactions for one client.
pub trait Workload {
    /// Produces the client's next transaction.
    fn next_txn(&mut self, rng: &mut SmallRng) -> Box<dyn Transaction>;

    /// Produces the next transaction knowing the current virtual time.
    /// Time-varying workloads (e.g. [`shifting::ShiftingLocalityWorkload`])
    /// override this; the default ignores `now`, so existing workloads
    /// behave identically.
    fn next_txn_at(&mut self, now: SimTime, rng: &mut SmallRng) -> Box<dyn Transaction> {
        let _ = now;
        self.next_txn(rng)
    }
}

pub use micro::{MicroConfig, MicroWorkload};
pub use shifting::{ShiftingConfig, ShiftingLocalityWorkload};
pub use tpcw::{TpcwConfig, TpcwWorkload};
