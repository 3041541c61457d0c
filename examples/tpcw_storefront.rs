//! A TPC-W storefront on MDCC: the paper's §5.2 evaluation in miniature.
//!
//! Runs the full TPC-W ordering mix (fourteen web interactions, ~37 %
//! writes) against a five-data-center MDCC deployment and prints
//! per-interaction latency statistics, then contrasts the write-latency
//! medians with two-phase commit on the identical workload.
//!
//! ```text
//! cargo run --release --example tpcw_storefront
//! ```

use std::collections::BTreeMap;

use mdcc::cluster::{run_mdcc, run_tpc, tpcw_catalog, ClusterSpec, MdccMode};
use mdcc::common::{DcId, SimDuration};
use mdcc::workloads::tpcw::{initial_data, TpcwConfig, TpcwWorkload};
use mdcc::workloads::Workload;

fn main() {
    const ITEMS: u64 = 2_000;
    let spec = ClusterSpec {
        seed: 9,
        clients: 20,
        shards_per_dc: 2,
        warmup: SimDuration::from_secs(10),
        duration: SimDuration::from_secs(45),
        ..ClusterSpec::default()
    };
    let catalog = tpcw_catalog();
    let data = initial_data(&TpcwConfig::with_scale(ITEMS, 0), 7);

    let mut factory = |client: usize, _dc: DcId, _p: &_| -> Box<dyn Workload> {
        Box::new(TpcwWorkload::new(TpcwConfig::with_scale(
            ITEMS,
            client as u64,
        )))
    };
    let (report, stats) = run_mdcc(&spec, catalog.clone(), &data, &mut factory, MdccMode::Full);

    println!("TPC-W ordering mix on MDCC — 20 emulated browsers, 5 data centers\n");
    println!("{:<24}{:>8}{:>10}", "interaction", "count", "median ms");
    let mut by_label: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in &report.records {
        if r.committed {
            by_label
                .entry(r.label)
                .or_default()
                .push(r.latency().as_millis_f64());
        }
    }
    for (label, mut lat) in by_label {
        lat.sort_by(f64::total_cmp);
        let median = lat[lat.len() / 2];
        println!("{label:<24}{:>8}{median:>10.0}", lat.len());
    }
    println!(
        "\nwrite txns: {} committed / {} aborted, {}% on the fast path",
        report.write_commits(),
        report.write_aborts(),
        100 * stats.fast_commits / stats.committed.max(1),
    );

    // The same storefront on 2PC: two wide-area round trips to all five
    // data centers per write.
    let mut factory = |client: usize, _dc: DcId, _p: &_| -> Box<dyn Workload> {
        Box::new(TpcwWorkload::new(TpcwConfig::with_scale(
            ITEMS,
            client as u64,
        )))
    };
    let tpc = run_tpc(&spec, catalog, &data, &mut factory);
    println!(
        "\nwrite-latency medians: MDCC {:.0} ms vs 2PC {:.0} ms (paper: 278 vs 668)",
        report.median_write_ms().unwrap_or(f64::NAN),
        tpc.median_write_ms().unwrap_or(f64::NAN)
    );
}
