//! Cross-crate integration tests through the public `mdcc` facade.

use std::sync::Arc;

use mdcc::cluster::{
    micro_catalog, run_mdcc, run_megastore, run_qw, run_tpc, tpcw_catalog, ClientPlacement,
    ClusterSpec, MdccMode, NetKind,
};
use mdcc::common::{DcId, ProtocolConfig, SimDuration};
use mdcc::workloads::micro::{initial_items, MicroConfig, MicroWorkload};
use mdcc::workloads::tpcw::{self, TpcwConfig, TpcwWorkload};
use mdcc::workloads::Workload;

fn small_spec(seed: u64) -> ClusterSpec {
    ClusterSpec {
        seed,
        clients: 10,
        shards_per_dc: 1,
        warmup: SimDuration::from_secs(3),
        duration: SimDuration::from_secs(15),
        ..ClusterSpec::default()
    }
}

fn micro_factory(
    items: u64,
) -> impl FnMut(usize, DcId, &Arc<mdcc::common::StaticPlacement>) -> Box<dyn Workload> {
    move |_c, _dc, _p| {
        Box::new(MicroWorkload::new(MicroConfig {
            items,
            ..MicroConfig::default()
        }))
    }
}

#[test]
fn facade_quickstart_runs_and_reports_consistently() {
    let spec = small_spec(1);
    let data = initial_items(1_000, 7);
    let mut factory = micro_factory(1_000);
    let (report, stats) = run_mdcc(&spec, micro_catalog(), &data, &mut factory, MdccMode::Full);
    // Report internals must be self-consistent.
    let commits = report.write_commits();
    let aborts = report.write_aborts();
    assert!(commits > 50, "got {commits}");
    assert_eq!(
        commits,
        report.write_latencies_ms().len(),
        "latency samples = committed writes"
    );
    assert!(
        stats.committed as usize >= commits,
        "stats cover the window and more"
    );
    let cdf = report.write_cdf(50);
    assert!(cdf.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
    assert_eq!(cdf.last().map(|(_, f)| *f), Some(1.0));
    let _ = aborts;
}

#[test]
fn tpcw_runs_on_every_protocol_with_sane_orderings() {
    let spec = small_spec(2);
    let items = 1_000u64;
    let data = tpcw::initial_data(&TpcwConfig::with_scale(items, 0), 7);
    let factory = |commutative: bool| {
        move |client: usize,
              _dc: DcId,
              _p: &Arc<mdcc::common::StaticPlacement>|
              -> Box<dyn Workload> {
            let mut cfg = TpcwConfig::with_scale(items, client as u64);
            cfg.commutative = commutative;
            Box::new(TpcwWorkload::new(cfg))
        }
    };

    let mut f = factory(true);
    let (mdcc_report, _) = run_mdcc(&spec, tpcw_catalog(), &data, &mut f, MdccMode::Full);
    let mut f = factory(true);
    let qw3 = run_qw(&spec, tpcw_catalog(), &data, &mut f, 3);
    let mut f = factory(true);
    let tpc = run_tpc(&spec, tpcw_catalog(), &data, &mut f);
    let mut mega_spec = spec.clone();
    mega_spec.client_placement = ClientPlacement::AllIn(DcId(0));
    let mut f = factory(true);
    let (mega, mega_stats) = run_megastore(&mega_spec, tpcw_catalog(), &data, &mut f);

    let m_mdcc = mdcc_report.median_write_ms().expect("mdcc commits");
    let m_qw3 = qw3.median_write_ms().expect("qw commits");
    let m_tpc = tpc.median_write_ms().expect("2pc commits");
    let m_mega = mega.median_write_ms().expect("mega commits");
    // Figure 3 ordering.
    assert!(m_qw3 < m_mdcc, "QW-3 {m_qw3} < MDCC {m_mdcc}");
    assert!(m_mdcc < m_tpc, "MDCC {m_mdcc} < 2PC {m_tpc}");
    assert!(m_tpc < m_mega, "2PC {m_tpc} < Megastore* {m_mega}");
    assert!(mega_stats.committed > 0);
    // Throughput ordering (Figure 4).
    assert!(qw3.throughput_tps() > mdcc_report.throughput_tps());
    assert!(mdcc_report.throughput_tps() > mega.throughput_tps());
}

#[test]
fn replication_factors_other_than_five_work() {
    // The quorum math generalizes: run a 3-DC and a 7-DC deployment.
    for dcs in [3u8, 7u8] {
        let protocol = ProtocolConfig::for_replication(dcs as usize);
        protocol.validate().expect("valid quorums");
        let spec = ClusterSpec {
            seed: 3,
            dcs,
            clients: 6,
            shards_per_dc: 1,
            net: NetKind::Uniform { rtt_ms: 100.0 },
            warmup: SimDuration::from_secs(2),
            duration: SimDuration::from_secs(10),
            protocol,
            ..ClusterSpec::default()
        };
        let data = initial_items(500, 7);
        let mut factory = micro_factory(500);
        let (report, stats) = run_mdcc(&spec, micro_catalog(), &data, &mut factory, MdccMode::Full);
        assert!(
            report.write_commits() > 20,
            "dcs={dcs}: {} commits",
            report.write_commits()
        );
        assert!(stats.fast_commits > 0, "dcs={dcs}: fast path must work");
    }
}

#[test]
fn megastore_on_micro_queues_behind_one_log() {
    let mut spec = small_spec(4);
    spec.client_placement = ClientPlacement::AllIn(DcId(0));
    let data = initial_items(1_000, 7);
    let mut factory = micro_factory(1_000);
    let (report, stats) = run_megastore(&spec, micro_catalog(), &data, &mut factory);
    assert!(stats.committed > 0);
    assert!(stats.max_queue >= 3, "one-at-a-time log must queue");
    assert!(report.median_write_ms().unwrap() > 200.0);
}

#[test]
fn seeds_change_results_but_structure_holds() {
    let data = initial_items(1_000, 7);
    let mut medians = Vec::new();
    for seed in [10u64, 11, 12] {
        let spec = small_spec(seed);
        let mut factory = micro_factory(1_000);
        let (report, _) = run_mdcc(&spec, micro_catalog(), &data, &mut factory, MdccMode::Full);
        medians.push(report.median_write_ms().expect("commits"));
    }
    // All seeds land in the one-round-trip envelope.
    for m in &medians {
        assert!((100.0..350.0).contains(m), "median {m}");
    }
}
