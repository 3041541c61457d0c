//! "No simulated change" as a tier-1 assertion.
//!
//! Host-side optimisations of the vote path (shared cstruct entries,
//! chained digests, glb-free learning, the acceptor's incremental open
//! set) must not move one wire byte or one simulated timestamp. The
//! benchmark observes that per run; this test pins it: a quick-scale hot
//! commutative `micro` run under full MDCC — fast ballots, delta votes,
//! instance-full bounces, classic recovery, re-basing — must reproduce
//! the exact `Report` the code produced before those optimisations
//! landed. A change that is *meant* to alter protocol behaviour updates
//! the constants and says why; anything else that trips this test has
//! changed behaviour by accident.
//!
//! Re-pinned once since: votes to coordinators now start at the record's
//! settled watermark, and a retried proposal of a transaction the record
//! knows as aborted is answered instead of re-entering an instance. The
//! same messages travel — commits, counters, frames, payload messages
//! and committed digests did not move — they are just smaller.

use std::sync::Arc;

use mdcc_cluster::{run_mdcc, ClusterSpec, MdccMode};
use mdcc_common::{DcId, SimDuration};
use mdcc_storage::{AttrConstraint, Catalog, TableSchema};
use mdcc_workloads::micro::{initial_items, MicroConfig, MicroWorkload, MICRO_ITEMS};
use mdcc_workloads::Workload;

const ITEMS: u64 = 120;

#[test]
fn micro_full_report_is_pinned() {
    let s = SimDuration::from_secs;
    let spec = ClusterSpec {
        seed: 1203,
        clients: 10,
        shards_per_dc: 1,
        warmup: s(2),
        duration: s(12),
        drain: s(8),
        ..ClusterSpec::default()
    };
    let catalog = Arc::new(Catalog::new().with(
        TableSchema::new(MICRO_ITEMS, "item").with_constraint(AttrConstraint::at_least("stock", 0)),
    ));
    let data = initial_items(ITEMS, 7);
    let mut factory = |_c: usize, _dc: DcId, _p: &_| -> Box<dyn Workload> {
        Box::new(MicroWorkload::new(MicroConfig {
            items: ITEMS,
            ..MicroConfig::default()
        }))
    };
    let (report, stats) = run_mdcc(&spec, catalog, &data, &mut factory, MdccMode::Full);
    let audit = report.audit.as_ref().expect("mdcc runs audit the cluster");
    let observed = (
        report.write_commits(),
        stats.committed,
        stats.aborted,
        stats.fast_commits,
        stats.collisions,
        stats.repair_pulls,
        report.net.bytes_sent,
        report.net.msgs_sent,
        report.net.payload_msgs,
        audit.committed_digests.clone(),
    );
    let pinned = (
        PINNED_WRITE_COMMITS,
        PINNED_COMMITTED,
        PINNED_ABORTED,
        PINNED_FAST_COMMITS,
        PINNED_COLLISIONS,
        PINNED_REPAIR_PULLS,
        PINNED_BYTES_SENT,
        PINNED_MSGS_SENT,
        PINNED_PAYLOAD_MSGS,
        PINNED_COMMITTED_DIGESTS.to_vec(),
    );
    assert_eq!(
        observed, pinned,
        "(window commits, committed, aborted, fast commits, collisions, repair pulls, \
         bytes sent, frames sent, payload msgs, per-node committed-state digests)"
    );
}

// Produced by this very test at the parent of the O(Δ) vote-path change
// (commit 5f95508) — all but the bytes.
const PINNED_WRITE_COMMITS: usize = 612;
const PINNED_COMMITTED: u64 = 720;
const PINNED_ABORTED: u64 = 0;
const PINNED_FAST_COMMITS: u64 = 648;
const PINNED_COLLISIONS: u64 = 16;
const PINNED_REPAIR_PULLS: u64 = 45;
// 7 291 205 until votes started at the settled watermark: first-contact
// votes no longer re-ship the committed deltas of the open instance.
const PINNED_BYTES_SENT: u64 = 3_700_157;
const PINNED_MSGS_SENT: u64 = 15_946;
const PINNED_PAYLOAD_MSGS: u64 = 40_174;
const PINNED_COMMITTED_DIGESTS: [u64; 5] = [9_683_044_410_260_870_793; 5];
