//! Figure 4: TPC-W throughput scalability.
//!
//! Scale-out series: (50 clients, SF 5 000, 2 nodes/DC), (100, 10 000, 4)
//! and (200, 20 000, 8) — data per storage node fixed at SF 2 500 and the
//! client:node ratio constant, exactly like §5.2.2. The paper's shape:
//! QW-3 ≳ QW-4 ≳ MDCC (within 10 % at 200 clients) > 2PC ≫ Megastore*
//! (low and flat).

use mdcc_bench::{
    all_in_us_west, net_summary, perf_summary, save_csv, tpcw_catalog, tpcw_data, tpcw_factory,
    PerfLog, Scale,
};
use mdcc_cluster::{run_mdcc, run_megastore, run_qw, run_tpc, ClusterSpec, MdccMode};
use mdcc_common::SimDuration;

fn main() {
    let scale = Scale::from_args();
    let d = scale.div();
    let m = scale.mult();
    let mut rows: Vec<String> = Vec::new();
    let mut perf = PerfLog::new();
    println!("# Figure 4 — TPC-W transactions per second vs concurrent clients");
    for (clients, items, shards) in [
        (50u64, 5_000u64, 2usize),
        (100, 10_000, 4),
        (200, 20_000, 8),
    ] {
        let clients = (clients * m / d).max(2) as usize;
        let items = items * m / d;
        let spec = ClusterSpec {
            seed: 1004 + clients as u64,
            clients,
            shards_per_dc: shards,
            warmup: SimDuration::from_secs(30 / d),
            duration: SimDuration::from_secs(90 / d),
            ..ClusterSpec::default()
        };
        let catalog = tpcw_catalog();
        let data = tpcw_data(items, 7);

        for k in [3usize, 4usize] {
            let mut factory = tpcw_factory(items, true);
            let report = run_qw(&spec, catalog.clone(), &data, &mut factory, k);
            let tps = report.throughput_tps();
            println!("QW-{k} clients={clients}: {tps:.0} tps");
            println!(
                "#   {}\n#   {}",
                net_summary(&report),
                perf_summary(&report)
            );
            perf.record(format!("QW-{k} c{clients}"), &report);
            rows.push(format!("QW-{k},{clients},{tps:.1}"));
        }
        {
            let mut factory = tpcw_factory(items, true);
            let (report, _) = run_mdcc(&spec, catalog.clone(), &data, &mut factory, MdccMode::Full);
            let tps = report.throughput_tps();
            println!("MDCC clients={clients}: {tps:.0} tps");
            println!(
                "#   {}\n#   {}",
                net_summary(&report),
                perf_summary(&report)
            );
            perf.record(format!("MDCC c{clients}"), &report);
            rows.push(format!("MDCC,{clients},{tps:.1}"));
        }
        {
            let mut factory = tpcw_factory(items, true);
            let report = run_tpc(&spec, catalog.clone(), &data, &mut factory);
            let tps = report.throughput_tps();
            println!("2PC clients={clients}: {tps:.0} tps");
            println!(
                "#   {}\n#   {}",
                net_summary(&report),
                perf_summary(&report)
            );
            perf.record(format!("2PC c{clients}"), &report);
            rows.push(format!("2PC,{clients},{tps:.1}"));
        }
        {
            let mut mega_spec = spec.clone();
            all_in_us_west(&mut mega_spec);
            let mut factory = tpcw_factory(items, true);
            let (report, _) = run_megastore(&mega_spec, catalog, &data, &mut factory);
            let tps = report.throughput_tps();
            println!("Megastore* clients={clients}: {tps:.0} tps");
            println!(
                "#   {}\n#   {}",
                net_summary(&report),
                perf_summary(&report)
            );
            perf.record(format!("Megastore* c{clients}"), &report);
            rows.push(format!("Megastore*,{clients},{tps:.1}"));
        }
    }
    save_csv("fig4_tpcw_scaling", "protocol,clients,tps", &rows);
    perf.save("fig4", scale);
}
