//! Figure 6: commits/aborts versus conflict rate (hot-spot size).
//!
//! The micro-benchmark accesses a hot spot with 90 % probability; the
//! hot-spot size sweeps {2, 5, 10, 20, 50, 90} % of the data (§5.3.2).
//! Paper shape: at large hot spots (low conflict) every design commits
//! nearly everything, with MDCC committing the most; as the hot spot
//! shrinks, Fast collapses below Multi (collision resolution needs 3
//! round trips), and at 2 % both fast-ballot designs do very poorly
//! compared to Multi.

use mdcc_bench::{
    micro_catalog, micro_factory, micro_spec, net_summary, perf_summary, save_csv, PerfLog, Scale,
};
use mdcc_cluster::{run_mdcc, run_tpc, MdccMode};
use mdcc_workloads::micro::{initial_items, MicroConfig};

fn main() {
    let scale = Scale::from_args();
    let (spec, items) = micro_spec(scale, 1006);
    let catalog = micro_catalog();
    let data = initial_items(items, 7);
    let mut rows: Vec<String> = Vec::new();
    let mut perf = PerfLog::new();
    println!("# Figure 6 — commits/aborts for varying hot-spot sizes");
    for hot_pct in [2.0f64, 5.0, 10.0, 20.0, 50.0, 90.0] {
        let base = MicroConfig {
            items,
            hotspot: Some((hot_pct / 100.0, 0.9)),
            ..MicroConfig::default()
        };
        let configs: [(&str, Option<MdccMode>, bool); 4] = [
            ("2PC", None, true),
            ("Multi", Some(MdccMode::Multi), false),
            ("Fast", Some(MdccMode::Fast), false),
            ("MDCC", Some(MdccMode::Full), true),
        ];
        for (label, mode, commutative) in configs {
            let mut cfg = base.clone();
            cfg.commutative = commutative;
            let mut factory = micro_factory(cfg, None);
            let mut run_spec = spec.clone();
            run_spec.seed = spec.seed + hot_pct as u64;
            let report = match mode {
                Some(m) => run_mdcc(&run_spec, catalog.clone(), &data, &mut factory, m).0,
                None => run_tpc(&run_spec, catalog.clone(), &data, &mut factory),
            };
            let commits = report.write_commits();
            let aborts = report.write_aborts();
            println!("hotspot={hot_pct}% {label}: commits={commits} aborts={aborts}");
            println!(
                "#   {}\n#   {}",
                net_summary(&report),
                perf_summary(&report)
            );
            perf.record(format!("{label} hot{hot_pct}%"), &report);
            rows.push(format!("{hot_pct},{label},{commits},{aborts}"));
        }
    }
    save_csv(
        "fig6_conflict_rates",
        "hotspot_pct,config,commits,aborts",
        &rows,
    );
    perf.save("fig6", scale);
}
