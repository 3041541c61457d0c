//! Figure 9 (beyond the paper): bandwidth-constrained WAN sweep.
//!
//! The byte-accurate transport models link bandwidth and directed-link
//! FIFO queueing, so vote fan-out can actually *congest* a constrained
//! WAN instead of teleporting. This driver sweeps inter-DC bandwidth
//! from a 10 Gbit/s backbone down to a 3 Mbit/s WAN for MDCC full and
//! Fast — how far the links can shrink before a commit's bytes turn
//! into queueing delay.

use mdcc_bench::{
    micro_catalog, micro_factory, micro_spec, net_summary, perf_summary, save_csv, Scale,
};
use mdcc_cluster::{run_mdcc, MdccMode};
use mdcc_workloads::micro::{initial_items, MicroConfig};

/// Swept inter-DC bandwidths: `(label, bytes per second)`. The sweep
/// runs past 100 Mbit/s down into the single-digit megabits because
/// the quick-scale aggregate load, spread across 20 directed links,
/// only starts queueing when a link drops below a few Mbit/s.
const BANDWIDTHS: [(&str, f64); 5] = [
    ("10Gbit", 1_250_000_000.0),
    ("1Gbit", 125_000_000.0),
    ("100Mbit", 12_500_000.0),
    ("10Mbit", 1_250_000.0),
    ("3Mbit", 375_000.0),
];

fn main() {
    let scale = Scale::from_args();
    let (base_spec, items) = micro_spec(scale, 1009);
    let catalog = micro_catalog();
    let data = initial_items(items, 7);
    let mut rows: Vec<String> = Vec::new();
    println!("# Figure 9 — WAN bandwidth sweep: MDCC full/fast");

    let configs: [(&str, MdccMode, bool); 2] = [
        ("MDCC", MdccMode::Full, true),
        ("Fast", MdccMode::Fast, false),
    ];
    for (bw_label, bytes_per_sec) in BANDWIDTHS {
        for (label, mode, commutative) in configs {
            let mut spec = base_spec.clone();
            spec.inter_dc_bandwidth = Some(bytes_per_sec);
            let cfg = MicroConfig {
                items,
                commutative,
                ..MicroConfig::default()
            };
            let mut factory = micro_factory(cfg, None);
            let (report, stats) = run_mdcc(&spec, catalog.clone(), &data, &mut factory, mode);
            let median = report.median_write_ms().unwrap_or(f64::NAN);
            let p90 = report.write_percentile_ms(90.0).unwrap_or(f64::NAN);
            let commits = report.write_commits();
            let bpc = report.bytes_per_commit().unwrap_or(f64::NAN);
            println!(
                "{bw_label} {label}: median={median:.0}ms p90={p90:.0}ms commits={commits} \
                 repair_pulls={}\n#   {}\n#   {}",
                stats.repair_pulls,
                net_summary(&report),
                perf_summary(&report)
            );
            rows.push(format!(
                "{label},{bw_label},{median:.1},{p90:.1},{commits},{bpc:.0},{},{}",
                stats.repair_pulls,
                report.net.repair.msgs / 2,
            ));
        }
    }
    save_csv(
        "fig9_wan",
        "config,bandwidth,median_ms,p90_ms,commits,bytes_per_commit,repair_pulls,repair_rounds",
        &rows,
    );
}
