//! The experiment harness: five-data-center deployments, closed-loop
//! clients and metrics.
//!
//! This crate assembles full clusters for every protocol in the paper's
//! evaluation — MDCC (plus its *Fast* and *Multi* ablations), quorum
//! writes, two-phase commit and Megastore* — loads the same initial data
//! into each, drives the same [`mdcc_workloads::Workload`] through
//! closed-loop clients, and reduces the resulting transaction records to
//! the statistics the paper's figures plot (medians, CDFs, box plots,
//! commit/abort counts, throughput, time series).

pub mod build;
pub mod clients;
pub mod faults;
pub mod metrics;
pub mod schema;

pub use build::{
    run_mdcc, run_megastore, run_qw, run_tpc, ClientPlacement, ClusterSpec, MdccMode, NetKind,
};
pub use faults::{FaultEvent, FaultPlan};
pub use metrics::{
    BoxStats, ClusterAudit, KindProfile, NetReport, NodeRecovery, NodeRole, Report, RunPerf,
    TxnRecord,
};
pub use schema::{micro_catalog, tpcw_catalog};
