//! Figure 5: micro-benchmark response-time CDFs across MDCC design
//! points.
//!
//! Configurations (§5.3.1): **MDCC** (full: fast + commutative), **Fast**
//! (fast ballots, no commutative support), **Multi** (every proposal via
//! the record's master, Multi-Paxos) and **2PC**. Paper medians: 245,
//! 276, 388 and 543 ms.

use mdcc_bench::{
    cdf_rows, export_trace, micro_catalog, micro_factory, micro_spec, net_summary, perf_summary,
    print_anatomy, print_parked, print_profile, print_profile_by_kind, save_csv, Scale,
};
use mdcc_cluster::{run_mdcc, run_tpc, MdccMode, Report};
use mdcc_common::SimDuration;
use mdcc_trace::TraceConfig;
use mdcc_workloads::micro::{initial_items, MicroConfig};

fn summarize(label: &str, report: &Report) -> String {
    format!(
        "{label}: median={:.0}ms p90={:.0}ms commits={} aborts={}\n#   {}",
        report.median_write_ms().unwrap_or(f64::NAN),
        report.write_percentile_ms(90.0).unwrap_or(f64::NAN),
        report.write_commits(),
        report.write_aborts(),
        net_summary(report),
    ) + &format!("\n#   {}", perf_summary(report))
}

fn main() {
    let scale = Scale::from_args();
    let (_, trace_out) = mdcc_bench::trace_flags();
    let (spec, items) = micro_spec(scale, 1005);
    let catalog = micro_catalog();
    let data = initial_items(items, 7);
    let mut rows: Vec<String> = Vec::new();
    println!("# Figure 5 — micro-benchmark response-time CDFs");
    println!("# paper medians: MDCC 245ms < Fast 276ms < Multi 388ms < 2PC 543ms");

    let base = MicroConfig {
        items,
        ..MicroConfig::default()
    };

    let configs: [(&str, MdccMode, bool); 3] = [
        ("MDCC", MdccMode::Full, true),
        ("Fast", MdccMode::Fast, false),
        ("Multi", MdccMode::Multi, false),
    ];
    for (label, mode, commutative) in configs {
        let mut cfg = base.clone();
        cfg.commutative = commutative;
        let mut factory = micro_factory(cfg, None);
        let (report, stats) = run_mdcc(&spec, catalog.clone(), &data, &mut factory, mode);
        println!("{}", summarize(label, &report));
        println!(
            "#   internals: fast_commits={} collisions={} redirects={} timeouts={}",
            stats.fast_commits, stats.collisions, stats.classic_redirects, stats.timeouts
        );
        rows.extend(cdf_rows(label, &report.write_cdf(200)));
    }

    {
        // Latency-anatomy runs: full MDCC and the Multi (all-classic)
        // ablation, durable with a 1 ms fsync, fully traced — the fast
        // path versus classic breakdown tabulated in EXPERIMENTS.md.
        // Separate runs so the headline schedules above stay
        // byte-identical to untraced builds.
        let mut anatomy_spec = spec.clone();
        anatomy_spec.durability = true;
        anatomy_spec.wal_fsync = SimDuration::from_millis(1);
        anatomy_spec.trace = TraceConfig {
            profile: true,
            ..TraceConfig::on()
        };
        let mut factory = micro_factory(base.clone(), None);
        let (report, _) = run_mdcc(
            &anatomy_spec,
            catalog.clone(),
            &data,
            &mut factory,
            MdccMode::Full,
        );
        println!(
            "{}",
            summarize("MDCC (anatomy: durable, 1ms fsync)", &report)
        );
        print_anatomy("MDCC full (fast path)", &report);
        print_profile(&report, 5);
        print_profile_by_kind(&report, 16);
        print_parked(&report);
        let path = trace_out
            .clone()
            .unwrap_or_else(|| std::path::PathBuf::from("results/fig5_mdcc_trace.json"));
        export_trace(&report, &path);

        let mut factory = micro_factory(base.clone(), None);
        let (multi_report, _) = run_mdcc(
            &anatomy_spec,
            catalog.clone(),
            &data,
            &mut factory,
            MdccMode::Multi,
        );
        print_anatomy("Multi (all classic)", &multi_report);
    }

    {
        let mut factory = micro_factory(base, None);
        let report = run_tpc(&spec, catalog, &data, &mut factory);
        println!("{}", summarize("2PC", &report));
        rows.extend(cdf_rows("2PC", &report.write_cdf(200)));
    }

    save_csv("fig5_micro_cdf", "config,latency_ms,fraction", &rows);
}
