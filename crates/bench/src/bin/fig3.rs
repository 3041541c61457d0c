//! Figure 3: TPC-W write-transaction response-time CDFs.
//!
//! Protocols: QW-3, QW-4 (eventually consistent), MDCC, 2PC, Megastore*
//! (strongly consistent). The paper's medians: 188, 260, 278, 668 and
//! 17 810 ms respectively. Run with `--scale=paper` for the full setup
//! (100 clients, SF 10 000, 1 min warm-up + 2 min measurement).

use mdcc_bench::{
    all_in_us_west, cdf_rows, export_trace, net_summary, perf_summary, print_anatomy, print_parked,
    print_profile, print_profile_by_kind, save_csv, tpcw_catalog, tpcw_data, tpcw_factory,
    tpcw_spec, PerfLog, Scale,
};
use mdcc_cluster::{run_mdcc, run_megastore, run_qw, run_tpc, MdccMode, Report};

/// Regression guard on full-MDCC wire cost at the CI (`--scale=quick`)
/// configuration. Whole-cstruct votes measured 4 857 bytes per committed
/// transaction here, delta votes ~4 400 (TPC-W's mixed workload keeps
/// cstructs thin — the hot-commutative fig5 shows the headline), verdict
/// votes, which carry no cstruct, 2 666, and one `Propose` and one
/// `Visibility` per transaction per storage node, instead of per record
/// per replica, 1 802, and with varint integers in the codec 926 (QW-4
/// 1 380 → 727 on the same run). The run is deterministic at this seed,
/// so the ceiling is that reading plus ten per cent: votes carrying
/// options, proposals repeating the write-set or fixed-width integers
/// again fail the smoke run while ordinary drift does not.
const MDCC_QUICK_BYTES_PER_COMMIT_CEILING: f64 = 1_019.0;

/// Companion guard on full-MDCC wire *frames* per committed transaction.
/// With envelope coalescing (the default since PR 4) the quick run
/// measures ~12.6 msgs/commit; the PR 3 per-message transport measured
/// ~36. The ceiling sits well above the coalesced figure and far below
/// the uncoalesced one, so losing the outbox (or a regression that
/// re-inflates fan-out) fails the smoke run while ordinary drift does
/// not.
const MDCC_QUICK_MSGS_PER_COMMIT_CEILING: f64 = 16.0;

fn summarize(label: &str, report: &Report) -> String {
    format!(
        "{label}: median={:.0}ms p90={:.0}ms p99={:.0}ms commits={} aborts={} tps={:.0}\n#   {}",
        report.median_write_ms().unwrap_or(f64::NAN),
        report.write_percentile_ms(90.0).unwrap_or(f64::NAN),
        report.write_percentile_ms(99.0).unwrap_or(f64::NAN),
        report.write_commits(),
        report.write_aborts(),
        report.throughput_tps(),
        net_summary(report),
    ) + &format!("\n#   {}", perf_summary(report))
}

fn main() {
    let scale = Scale::from_args();
    let (trace_cfg, trace_out) = mdcc_bench::trace_flags();
    let (spec, items) = tpcw_spec(scale, 1003);
    let catalog = tpcw_catalog();
    let data = tpcw_data(items, 7);
    let mut rows: Vec<String> = Vec::new();
    let mut perf = PerfLog::new();
    println!("# Figure 3 — TPC-W write transaction response times (CDF)");
    println!(
        "# paper medians: QW-3 188ms < QW-4 260ms < MDCC 278ms < 2PC 668ms << Megastore* 17810ms"
    );

    for k in [3usize, 4usize] {
        let mut factory = tpcw_factory(items, true);
        let report = run_qw(&spec, catalog.clone(), &data, &mut factory, k);
        let label = format!("QW-{k}");
        println!("{}", summarize(&label, &report));
        perf.record(&label, &report);
        rows.extend(cdf_rows(&label, &report.write_cdf(200)));
    }

    {
        // The MDCC run is traced at quick (CI) scale by default and at
        // any scale on `--trace` / `--trace-out=`; tracing is proven
        // outcome-identical, so the guards below still bind.
        let mut mdcc_spec = spec.clone();
        mdcc_spec.trace = if trace_cfg.enabled || scale == Scale::Quick {
            mdcc_trace::TraceConfig {
                profile: true,
                ..mdcc_trace::TraceConfig::on()
            }
        } else {
            trace_cfg
        };
        let mut factory = tpcw_factory(items, true);
        let (report, stats) = run_mdcc(
            &mdcc_spec,
            catalog.clone(),
            &data,
            &mut factory,
            MdccMode::Full,
        );
        println!("{}", summarize("MDCC", &report));
        perf.record("MDCC", &report);
        print_anatomy("MDCC (TPC-W)", &report);
        print_profile(&report, 5);
        print_profile_by_kind(&report, 16);
        print_parked(&report);
        if let Some(path) = &trace_out {
            export_trace(&report, path);
        }
        println!(
            "# MDCC internals: fast_commits={} collisions={} redirects={} repair_pulls={}",
            stats.fast_commits, stats.collisions, stats.classic_redirects, stats.repair_pulls
        );
        rows.extend(cdf_rows("MDCC", &report.write_cdf(200)));
        if scale == Scale::Quick {
            let bpc = report.bytes_per_commit().unwrap_or(f64::INFINITY);
            if bpc > MDCC_QUICK_BYTES_PER_COMMIT_CEILING {
                eprintln!(
                    "REGRESSION: full-MDCC bytes/commit {bpc:.0} exceeds the checked-in \
                     ceiling {MDCC_QUICK_BYTES_PER_COMMIT_CEILING:.0} — verdict votes \
                     carrying cstructs, or proposals sent per record, again?"
                );
                std::process::exit(1);
            }
            println!(
                "# bytes/commit guard: {bpc:.0} <= ceiling {MDCC_QUICK_BYTES_PER_COMMIT_CEILING:.0}"
            );
            let mpc = report.msgs_per_commit().unwrap_or(f64::INFINITY);
            if mpc > MDCC_QUICK_MSGS_PER_COMMIT_CEILING {
                eprintln!(
                    "REGRESSION: full-MDCC msgs/commit {mpc:.1} exceeds the checked-in \
                     ceiling {MDCC_QUICK_MSGS_PER_COMMIT_CEILING:.1} — envelope \
                     coalescing lost or fan-out re-inflated?"
                );
                std::process::exit(1);
            }
            println!(
                "# msgs/commit guard: {mpc:.1} <= ceiling {MDCC_QUICK_MSGS_PER_COMMIT_CEILING:.1}"
            );
        }
    }

    {
        let mut factory = tpcw_factory(items, true);
        let report = run_tpc(&spec, catalog.clone(), &data, &mut factory);
        println!("{}", summarize("2PC", &report));
        perf.record("2PC", &report);
        rows.extend(cdf_rows("2PC", &report.write_cdf(200)));
    }

    {
        // The paper plays in Megastore*'s favour: master and all clients
        // in US-West.
        let mut mega_spec = spec.clone();
        all_in_us_west(&mut mega_spec);
        let mut factory = tpcw_factory(items, true);
        let (report, stats) = run_megastore(&mega_spec, catalog, &data, &mut factory);
        println!("{}", summarize("Megastore*", &report));
        perf.record("Megastore*", &report);
        println!(
            "# Megastore* internals: committed={} aborted={} max_queue={}",
            stats.committed, stats.aborted, stats.max_queue
        );
        rows.extend(cdf_rows("Megastore*", &report.write_cdf(200)));
    }

    save_csv("fig3_tpcw_cdf", "protocol,latency_ms,fraction", &rows);
    perf.save("fig3", scale);
}
