//! # MDCC: Multi-Data Center Consistency
//!
//! A Rust reproduction of *MDCC: Multi-Data Center Consistency* (Kraska,
//! Pang, Franklin, Madden, Fekete — EuroSys 2013): an optimistic commit
//! protocol for geo-replicated transactions that needs **one wide-area
//! round trip** in the common case, has **no static master**, detects
//! every write-write conflict (read committed without lost updates), and
//! exploits **commutative updates with value constraints** through
//! Generalized Paxos plus a new quorum demarcation technique.
//!
//! The workspace contains the full system, built from scratch:
//!
//! | crate | contents |
//! |---|---|
//! | [`common`] | ids, simulated time, rows, updates, placement, config |
//! | [`sim`] | deterministic multi-data-center discrete-event simulator + durable disks |
//! | [`paxos`] | ballots, options, cstructs, acceptor/leader/learner, demarcation |
//! | [`storage`] | schema catalog, versioned record store, storage engines |
//! | [`recovery`] | WAL format, checkpoints, crash-recovery replay |
//! | [`core`] | the MDCC protocol: storage-node process + transaction manager |
//! | [`baselines`] | quorum writes, two-phase commit, Megastore* |
//! | [`workloads`] | TPC-W and the paper's micro-benchmark |
//! | [`cluster`] | five-DC harness, closed-loop clients, fault schedules, metrics |
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use mdcc::cluster::{run_mdcc, ClusterSpec, MdccMode};
//! use mdcc::storage::{AttrConstraint, Catalog, TableSchema};
//! use mdcc::workloads::micro::{initial_items, MicroConfig, MicroWorkload, MICRO_ITEMS};
//! use mdcc::common::{DcId, SimDuration};
//!
//! // A small five-data-center deployment with the paper's item table.
//! let spec = ClusterSpec {
//!     clients: 5,
//!     warmup: SimDuration::from_secs(2),
//!     duration: SimDuration::from_secs(10),
//!     ..ClusterSpec::default()
//! };
//! let catalog = Arc::new(Catalog::new().with(
//!     TableSchema::new(MICRO_ITEMS, "item")
//!         .with_constraint(AttrConstraint::at_least("stock", 0)),
//! ));
//! let data = initial_items(500, 7);
//! let mut workloads = |_c: usize, _dc: DcId, _p: &_| -> Box<dyn mdcc::workloads::Workload> {
//!     Box::new(MicroWorkload::new(MicroConfig { items: 500, ..MicroConfig::default() }))
//! };
//! let (report, stats) = run_mdcc(&spec, catalog, &data, &mut workloads, MdccMode::Full);
//! assert!(report.write_commits() > 0);
//! assert!(stats.fast_commits > 0, "common case: one round trip, no master");
//! ```
//!
//! ## Reproduction
//!
//! Every figure of the paper's evaluation has a driver under
//! `crates/bench/src/bin` (`fig3` … `fig8`, `tables`); see EXPERIMENTS.md
//! for measured-versus-paper results.

/// Baseline protocols: quorum writes, 2PC, Megastore*.
pub use mdcc_baselines as baselines;
/// The five-data-center experiment harness, fault schedules and metrics.
pub use mdcc_cluster as cluster;
/// Shared vocabulary types (ids, time, rows, updates, placement).
pub use mdcc_common as common;
/// The MDCC protocol: storage nodes and the transaction manager.
pub use mdcc_core as core;
/// Paxos machinery: ballots, cstructs, acceptors, leaders, learners.
pub use mdcc_paxos as paxos;
/// Durability: WAL format, checkpoints, crash-recovery replay.
pub use mdcc_recovery as recovery;
/// The deterministic discrete-event simulator (with durable disks).
pub use mdcc_sim as sim;
/// Schema catalog and versioned record store.
pub use mdcc_storage as storage;
/// TPC-W and micro-benchmark workload generators.
pub use mdcc_workloads as workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use mdcc_cluster::{
        run_mdcc, run_megastore, run_qw, run_tpc, ClientPlacement, ClusterSpec, FaultEvent,
        FaultPlan, MdccMode, NetKind, Report,
    };
    pub use mdcc_common::{
        DcId, Key, NodeId, ProtocolConfig, RecordUpdate, Row, SimDuration, SimTime, TxnId,
        UpdateOp, Value, Version,
    };
    pub use mdcc_paxos::{AttrConstraint, TxnOutcome};
    pub use mdcc_storage::{Catalog, TableSchema};
    pub use mdcc_workloads::{Transaction, TxnAction, Workload};
}
