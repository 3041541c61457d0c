//! Figure 8: response-time time series across a data-center outage.
//!
//! 100 clients in US-West run the micro-benchmark; about two minutes in,
//! US-East — the data center closest to the clients — stops receiving
//! messages (§5.3.4). The paper: average latency steps from 173.5 ms to
//! 211.7 ms and the system keeps committing throughout. Ours should show
//! the same step: the fast quorum's fourth response now comes from a
//! farther region.

use mdcc_bench::{
    all_in_us_west, micro_catalog, micro_factory, micro_spec, net_summary, perf_summary, save_csv,
    PerfLog, Scale,
};
use mdcc_cluster::{run_mdcc, FaultEvent, FaultPlan, MdccMode};
use mdcc_common::{DcId, SimDuration};
use mdcc_workloads::micro::{initial_items, MicroConfig};

fn main() {
    let scale = Scale::from_args();
    let (mut spec, items) = micro_spec(scale, 1008);
    all_in_us_west(&mut spec);
    // Measure from t=0 (short warm-up) so the pre-failure baseline is
    // long; the failure lands mid-window.
    spec.warmup = SimDuration::from_secs(5);
    let total = spec.duration.as_secs_f64() as u64;
    let fail_at = SimDuration::from_secs(5 + total / 2);
    spec.faults = FaultPlan::new().with(FaultEvent::FailDc {
        at: fail_at,
        dc: DcId(1), // US-East.
    });
    let catalog = micro_catalog();
    let data = initial_items(items, 7);
    let cfg = MicroConfig {
        items,
        ..MicroConfig::default()
    };
    let mut factory = micro_factory(cfg, None);
    let (report, _) = run_mdcc(&spec, catalog, &data, &mut factory, MdccMode::Full);

    println!("# Figure 8 — committed-transaction latency across a US-East outage");
    let bucket = SimDuration::from_secs(5);
    let series = report.write_time_series(bucket);
    let fail_secs = 5.0 + total as f64 / 2.0;
    let mut rows = Vec::new();
    let (mut before_sum, mut before_n) = (0.0, 0usize);
    let (mut after_sum, mut after_n) = (0.0, 0usize);
    for (t, avg, count) in &series {
        rows.push(format!("{t:.0},{avg:.1},{count}"));
        if *count > 0 {
            if *t < fail_secs {
                before_sum += avg * *count as f64;
                before_n += count;
            } else {
                after_sum += avg * *count as f64;
                after_n += count;
            }
        }
    }
    let before = before_sum / before_n.max(1) as f64;
    let after = after_sum / after_n.max(1) as f64;
    println!("failure at t={fail_secs:.0}s (US-East stops receiving)");
    println!("avg latency before: {before:.1} ms (paper: 173.5 ms)");
    println!("avg latency after:  {after:.1} ms (paper: 211.7 ms)");
    println!(
        "commits before/after: {}/{} — availability preserved",
        before_n, after_n
    );
    println!("# {}\n# {}", net_summary(&report), perf_summary(&report));
    save_csv("fig8_dc_failure", "t_secs,avg_latency_ms,commits", &rows);
    let mut perf = PerfLog::new();
    perf.record("MDCC outage", &report);
    perf.save("fig8", scale);
}
