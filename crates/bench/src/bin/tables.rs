//! The medians table: every protocol/configuration median the evaluation
//! text quotes, regenerated in one run.
//!
//! §5.2.1 (TPC-W): QW-3 188 ms, QW-4 260 ms, MDCC 278 ms, 2PC 668 ms,
//! Megastore* 17 810 ms. §5.3.1 (micro): MDCC 245 ms, Fast 276 ms,
//! Multi 388 ms, 2PC 543 ms.

use mdcc_bench::{
    all_in_us_west, micro_catalog, micro_factory, micro_spec, perf_summary, save_csv, tpcw_catalog,
    tpcw_data, tpcw_factory, tpcw_spec, PerfLog, Scale,
};
use mdcc_cluster::{run_mdcc, run_megastore, run_qw, run_tpc, MdccMode, Report};
use mdcc_workloads::micro::{initial_items, MicroConfig};

fn main() {
    let scale = Scale::from_args();
    let mut rows: Vec<String> = Vec::new();
    let mut perf = PerfLog::new();
    println!("# Medians table (paper §5.2.1 and §5.3.1)");
    println!(
        "{:<22} {:>12} {:>12}",
        "configuration", "median ms", "paper ms"
    );

    // ---------------- TPC-W ----------------
    let (spec, items) = tpcw_spec(scale, 2001);
    let catalog = tpcw_catalog();
    let data = tpcw_data(items, 7);
    let table =
        |name: &str, report: &Report, paper: f64, rows: &mut Vec<String>, perf: &mut PerfLog| {
            let median = report.median_write_ms().unwrap_or(f64::NAN);
            println!(
                "{name:<22} {median:>12.0} {paper:>12.0}   # {}",
                perf_summary(report)
            );
            perf.record(name, report);
            rows.push(format!("{name},{median:.1},{paper}"));
        };

    for (k, paper) in [(3usize, 188.0), (4usize, 260.0)] {
        let mut f = tpcw_factory(items, true);
        let report = run_qw(&spec, catalog.clone(), &data, &mut f, k);
        table(
            &format!("tpcw/QW-{k}"),
            &report,
            paper,
            &mut rows,
            &mut perf,
        );
    }
    {
        let mut f = tpcw_factory(items, true);
        let (report, _) = run_mdcc(&spec, catalog.clone(), &data, &mut f, MdccMode::Full);
        table("tpcw/MDCC", &report, 278.0, &mut rows, &mut perf);
    }
    {
        let mut f = tpcw_factory(items, true);
        let report = run_tpc(&spec, catalog.clone(), &data, &mut f);
        table("tpcw/2PC", &report, 668.0, &mut rows, &mut perf);
    }
    {
        let mut mega_spec = spec.clone();
        all_in_us_west(&mut mega_spec);
        let mut f = tpcw_factory(items, true);
        let (report, _) = run_megastore(&mega_spec, catalog, &data, &mut f);
        table("tpcw/Megastore*", &report, 17_810.0, &mut rows, &mut perf);
    }

    // ---------------- Micro ----------------
    let (spec, items) = micro_spec(scale, 2002);
    let catalog = micro_catalog();
    let data = initial_items(items, 7);
    let micro_cfgs: [(&str, MdccMode, bool, f64); 3] = [
        ("micro/MDCC", MdccMode::Full, true, 245.0),
        ("micro/Fast", MdccMode::Fast, false, 276.0),
        ("micro/Multi", MdccMode::Multi, false, 388.0),
    ];
    for (name, mode, commutative, paper) in micro_cfgs {
        let cfg = MicroConfig {
            items,
            commutative,
            ..MicroConfig::default()
        };
        let mut f = micro_factory(cfg, None);
        let (report, _) = run_mdcc(&spec, catalog.clone(), &data, &mut f, mode);
        table(name, &report, paper, &mut rows, &mut perf);
    }
    {
        let cfg = MicroConfig {
            items,
            ..MicroConfig::default()
        };
        let mut f = micro_factory(cfg, None);
        let report = run_tpc(&spec, catalog, &data, &mut f);
        table("micro/2PC", &report, 543.0, &mut rows, &mut perf);
    }

    save_csv("tables_medians", "configuration,median_ms,paper_ms", &rows);
    perf.save("tables", scale);
}
