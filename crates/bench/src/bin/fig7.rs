//! Figure 7: response times versus master locality (box plots).
//!
//! Transactions pick items whose default master is in the client's own
//! data center with probability {100, 80, 60, 40, 20} % (§5.3.3). The
//! paper's shape: Multi beats MDCC only at (near) 100 % locality; MDCC
//! stays flat because it never needs the master; Multi's variance and
//! maximum grow as masters get remote (queueing behind the record's
//! serialized instances).

use mdcc_bench::{
    micro_catalog, micro_factory, micro_spec, net_summary, perf_summary, save_csv, PerfLog, Scale,
};
use mdcc_cluster::{run_mdcc, MdccMode};
use mdcc_workloads::micro::{initial_items, MicroConfig};

fn main() {
    let scale = Scale::from_args();
    let (spec, items) = micro_spec(scale, 1007);
    let catalog = micro_catalog();
    let data = initial_items(items, 7);
    let mut rows: Vec<String> = Vec::new();
    let mut perf = PerfLog::new();
    println!("# Figure 7 — response-time box plots vs master locality");
    for local_pct in [100.0f64, 80.0, 60.0, 40.0, 20.0] {
        // 20 % locality == uniform choice over five DCs; the knob is the
        // fraction of transactions forced local beyond that baseline.
        let forced = ((local_pct - 20.0) / 80.0).clamp(0.0, 1.0);
        for (label, mode, commutative) in [
            ("Multi", MdccMode::Multi, false),
            ("MDCC", MdccMode::Full, true),
        ] {
            let cfg = MicroConfig {
                items,
                commutative,
                ..MicroConfig::default()
            };
            let mut factory = micro_factory(cfg, Some(forced));
            let mut run_spec = spec.clone();
            run_spec.seed = spec.seed + local_pct as u64;
            let (report, _) = run_mdcc(&run_spec, catalog.clone(), &data, &mut factory, mode);
            let b = report.write_boxplot().expect("commits exist");
            println!(
                "locality={local_pct}% {label}: min={:.0} q1={:.0} med={:.0} q3={:.0} max={:.0}",
                b.min, b.q1, b.median, b.q3, b.max
            );
            println!(
                "#   {}\n#   {}",
                net_summary(&report),
                perf_summary(&report)
            );
            perf.record(format!("{label} loc{local_pct}%"), &report);
            rows.push(format!(
                "{local_pct},{label},{:.1},{:.1},{:.1},{:.1},{:.1}",
                b.min, b.q1, b.median, b.q3, b.max
            ));
        }
    }
    save_csv(
        "fig7_master_locality",
        "locality_pct,config,min_ms,q1_ms,median_ms,q3_ms,max_ms",
        &rows,
    );
    perf.save("fig7", scale);
}
