//! Chaos testing: MDCC under message loss and jitter.
//!
//! Quorum protocols must mask lost messages; the recovery paths (learn
//! timeouts, read retries, collision recovery, dangling-transaction
//! resolution) must keep every transaction live. These runs inject
//! uniform message loss — through the first-class
//! [`ClusterSpec::drop_prob`] knob — on top of jittery wide-area links
//! and assert the system keeps committing and never violates its
//! constraint.

use mdcc_cluster::{micro_catalog, run_mdcc, ClusterSpec, FaultEvent, FaultPlan, MdccMode};
use mdcc_common::{DcId, SimDuration};
use mdcc_workloads::micro::{initial_items, MicroConfig, MicroWorkload};
use mdcc_workloads::Workload;

fn run_with_loss(drop_prob: f64, seed: u64) -> (usize, usize, Option<i64>) {
    let spec = ClusterSpec {
        seed,
        clients: 10,
        shards_per_dc: 1,
        warmup: SimDuration::from_secs(3),
        duration: SimDuration::from_secs(20),
        jitter: 0.25,
        drop_prob,
        ..ClusterSpec::default()
    };
    let data = initial_items(1_000, 7);
    let mut factory = |_c: usize, _dc: DcId, _p: &_| -> Box<dyn Workload> {
        Box::new(MicroWorkload::new(MicroConfig {
            items: 1_000,
            ..MicroConfig::default()
        }))
    };
    let (report, _) = run_mdcc(&spec, micro_catalog(), &data, &mut factory, MdccMode::Full);
    let min_stock = report.audit.as_ref().and_then(|a| a.min_of("stock"));
    (report.write_commits(), report.write_aborts(), min_stock)
}

#[test]
fn commits_survive_heavy_jitter() {
    let (commits, _, _) = run_with_loss(0.0, 11);
    assert!(commits > 100, "got {commits}");
}

#[test]
fn commits_survive_uniform_message_loss() {
    // Every message — proposal, vote, visibility, read — has a 2 % chance
    // of vanishing. Retries and recovery must keep the loop alive.
    let (commits, aborts, min_stock) = run_with_loss(0.02, 12);
    assert!(commits > 100, "got {commits} commits, {aborts} aborts");
    assert!(
        min_stock.expect("stock audited") >= 0,
        "constraint violated"
    );
}

#[test]
fn commits_survive_harsh_message_loss() {
    // 10 % loss: most transactions need at least one retry somewhere.
    let (commits, aborts, min_stock) = run_with_loss(0.10, 13);
    assert!(commits > 50, "got {commits} commits, {aborts} aborts");
    assert!(
        min_stock.expect("stock audited") >= 0,
        "constraint violated"
    );
}

#[test]
fn extreme_loss_does_not_livelock_on_mode_flapping() {
    // At ~15 % loss, replicas' ballot modes diverge (a fast-mode reopen
    // is heard by some replicas and not others). Without master-side
    // damping of the GoFast redirect this ping-pongs proposals between
    // fast and classic forever and the message volume compounds — this
    // run used to take minutes of host time per simulated second. It
    // must finish promptly and keep making progress.
    let (commits, aborts, min_stock) = run_with_loss(0.15, 14);
    assert!(commits > 20, "got {commits} commits, {aborts} aborts");
    assert!(
        min_stock.expect("stock audited") >= 0,
        "constraint violated"
    );
}

#[test]
fn loss_plus_dc_brownout_still_commits() {
    // The original brownout emulation, now layered on true message loss:
    // one remote DC goes dark mid-run and stays dark while 2 % of all
    // other traffic is lost too.
    let spec = ClusterSpec {
        seed: 14,
        clients: 10,
        shards_per_dc: 1,
        warmup: SimDuration::from_secs(3),
        duration: SimDuration::from_secs(20),
        jitter: 0.25,
        drop_prob: 0.02,
        faults: FaultPlan::new().with(FaultEvent::FailDc {
            at: SimDuration::from_secs(8),
            dc: DcId(4),
        }),
        ..ClusterSpec::default()
    };
    let data = initial_items(1_000, 7);
    let mut factory = |_c: usize, _dc: DcId, _p: &_| -> Box<dyn Workload> {
        Box::new(MicroWorkload::new(MicroConfig {
            items: 1_000,
            ..MicroConfig::default()
        }))
    };
    let (report, _) = run_mdcc(&spec, micro_catalog(), &data, &mut factory, MdccMode::Full);
    let commits = report.write_commits();
    assert!(commits > 100, "got {commits}");
}
