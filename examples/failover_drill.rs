//! Failover drill: lose a data center mid-run (the paper's §5.3.4).
//!
//! One hundred simulated seconds of buy traffic from US-West; halfway
//! through, US-East — the closest region — stops receiving messages.
//! MDCC keeps committing without interruption: quorums simply reach one
//! region farther, and the latency time series shows the step the
//! paper's Figure 8 shows (173.5 ms → 211.7 ms on EC2).
//!
//! ```text
//! cargo run --release --example failover_drill
//! ```

use std::sync::Arc;

use mdcc::cluster::{run_mdcc, ClientPlacement, ClusterSpec, FaultEvent, FaultPlan, MdccMode};
use mdcc::common::{DcId, SimDuration};
use mdcc::storage::{AttrConstraint, Catalog, TableSchema};
use mdcc::workloads::micro::{initial_items, MicroConfig, MicroWorkload, MICRO_ITEMS};
use mdcc::workloads::Workload;

fn main() {
    let spec = ClusterSpec {
        seed: 8,
        clients: 20,
        shards_per_dc: 2,
        client_placement: ClientPlacement::AllIn(DcId(0)), // all in US-West
        warmup: SimDuration::from_secs(5),
        duration: SimDuration::from_secs(100),
        // Kill US-East 55 s in (5 s warm-up + 50 s).
        faults: FaultPlan::new().with(FaultEvent::FailDc {
            at: SimDuration::from_secs(55),
            dc: DcId(1),
        }),
        ..ClusterSpec::default()
    };
    let catalog = Arc::new(Catalog::new().with(
        TableSchema::new(MICRO_ITEMS, "item").with_constraint(AttrConstraint::at_least("stock", 0)),
    ));
    let data = initial_items(2_000, 7);
    let mut factory = |_c: usize, _dc: DcId, _p: &_| -> Box<dyn Workload> {
        Box::new(MicroWorkload::new(MicroConfig {
            items: 2_000,
            ..MicroConfig::default()
        }))
    };
    let (report, _) = run_mdcc(&spec, catalog, &data, &mut factory, MdccMode::Full);

    println!("Failover drill: US-East outage at t = 55 s\n");
    println!("{:>6} {:>12} {:>8}", "t (s)", "avg ms", "commits");
    let series = report.write_time_series(SimDuration::from_secs(5));
    let mut before = Vec::new();
    let mut after = Vec::new();
    for (t, avg, count) in &series {
        let marker = if (*t - 55.0).abs() < 2.5 {
            "  <- outage"
        } else {
            ""
        };
        println!("{t:>6.0} {avg:>12.1} {count:>8}{marker}");
        if *count > 0 {
            if *t < 55.0 {
                before.push(*avg);
            } else {
                after.push(*avg);
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "\navg before {:.1} ms, after {:.1} ms — commits never stop (paper: 173.5 → 211.7 ms)",
        mean(&before),
        mean(&after)
    );
    assert!(
        series.iter().all(|(_, _, count)| *count > 0),
        "availability preserved"
    );
}
