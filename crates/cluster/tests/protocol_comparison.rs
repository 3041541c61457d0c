//! Cross-protocol comparison on the micro-benchmark: the latency and
//! behaviour orderings the paper's evaluation establishes must hold in
//! the simulated deployment too.

use mdcc_cluster::{
    micro_catalog, run_mdcc, run_megastore, run_qw, run_tpc, ClientPlacement, ClusterSpec,
    FaultEvent, FaultPlan, MdccMode, NetKind, Report,
};
use mdcc_common::{DcId, SimDuration};
use mdcc_workloads::micro::{initial_items, MicroConfig, MicroWorkload};

fn spec() -> ClusterSpec {
    ClusterSpec {
        seed: 7,
        clients: 15,
        shards_per_dc: 2,
        warmup: SimDuration::from_secs(5),
        duration: SimDuration::from_secs(25),
        jitter: 0.05,
        ..ClusterSpec::default()
    }
}

const ITEMS: u64 = 2_000;

fn run_variant(mode: MdccMode, commutative: bool, seed: u64) -> (Report, mdcc_core::TxnStats) {
    let mut s = spec();
    s.seed = seed;
    let catalog = micro_catalog();
    let data = initial_items(ITEMS, 99);
    let mut factory = |_i: usize, _dc: DcId, _p: &_| -> Box<dyn mdcc_workloads::Workload> {
        Box::new(MicroWorkload::new(MicroConfig {
            items: ITEMS,
            commutative,
            ..MicroConfig::default()
        }))
    };
    run_mdcc(&s, catalog, &data, &mut factory, mode)
}

#[test]
fn mdcc_commits_write_txns_with_one_round_trip_latency() {
    let (report, stats) = run_variant(MdccMode::Full, true, 11);
    assert!(
        report.write_commits() > 100,
        "got {}",
        report.write_commits()
    );
    let median = report.median_write_ms().expect("commits exist");
    // From the median client, a fast quorum is the 4th-closest DC:
    // 120–190 ms RTT plus local reads. The paper's micro median is 245 ms.
    assert!(
        (120.0..320.0).contains(&median),
        "median {median} ms outside one-round-trip range"
    );
    // Low-contention uniform workload: virtually everything goes fast.
    assert!(stats.fast_commits * 10 >= stats.committed * 9);
    // Aborts stay rare (demarcation edges on low-stock items can reject a
    // handful of unlucky concurrent decrements).
    let aborts = report.write_aborts();
    let total = report.write_commits() + aborts;
    assert!(
        aborts * 40 <= total,
        "abort rate must stay under 2.5%: {aborts}/{total}"
    );
}

#[test]
fn protocol_latency_ordering_matches_figure5() {
    // MDCC (fast+commutative) < Multi (master round trips) < 2PC
    // (two rounds, all replicas). Same workload, same seed.
    let (full, _) = run_variant(MdccMode::Full, true, 21);
    let (multi, _) = run_variant(MdccMode::Multi, false, 21);

    let mut s = spec();
    s.seed = 21;
    let catalog = micro_catalog();
    let data = initial_items(ITEMS, 99);
    let mut factory = |_i: usize, _dc: DcId, _p: &_| -> Box<dyn mdcc_workloads::Workload> {
        Box::new(MicroWorkload::new(MicroConfig {
            items: ITEMS,
            commutative: false,
            ..MicroConfig::default()
        }))
    };
    let tpc = run_tpc(&s, catalog, &data, &mut factory);

    let m_full = full.median_write_ms().expect("mdcc commits");
    let m_multi = multi.median_write_ms().expect("multi commits");
    let m_tpc = tpc.median_write_ms().expect("2pc commits");
    assert!(
        m_full < m_multi,
        "MDCC ({m_full} ms) must beat Multi ({m_multi} ms)"
    );
    assert!(
        m_multi < m_tpc,
        "Multi ({m_multi} ms) must beat 2PC ({m_tpc} ms)"
    );
}

#[test]
fn mdcc_tracks_quorum_writes_four() {
    // §5.2.1: MDCC's fast commit waits for the same 4th response QW-4
    // waits for; QW-3 returns one response earlier and must be fastest.
    let (mdcc, _) = run_variant(MdccMode::Full, true, 31);
    let mut s = spec();
    s.seed = 31;
    let catalog = micro_catalog();
    let data = initial_items(ITEMS, 99);
    let mut factory = |_i: usize, _dc: DcId, _p: &_| -> Box<dyn mdcc_workloads::Workload> {
        Box::new(MicroWorkload::new(MicroConfig {
            items: ITEMS,
            commutative: true,
            ..MicroConfig::default()
        }))
    };
    let qw3 = run_qw(&s, catalog.clone(), &data, &mut factory, 3);
    let mut factory2 = |_i: usize, _dc: DcId, _p: &_| -> Box<dyn mdcc_workloads::Workload> {
        Box::new(MicroWorkload::new(MicroConfig {
            items: ITEMS,
            commutative: true,
            ..MicroConfig::default()
        }))
    };
    let qw4 = run_qw(&s, catalog, &data, &mut factory2, 4);
    let m_qw3 = qw3.median_write_ms().unwrap();
    let m_qw4 = qw4.median_write_ms().unwrap();
    let m_mdcc = mdcc.median_write_ms().unwrap();
    assert!(m_qw3 < m_qw4, "QW-3 ({m_qw3}) < QW-4 ({m_qw4})");
    assert!(
        m_mdcc < m_qw4 * 1.5,
        "MDCC ({m_mdcc}) should be in QW-4's ({m_qw4}) neighbourhood"
    );
    assert!(m_qw3 < m_mdcc, "eventual consistency stays cheapest");
}

#[test]
fn megastore_serializes_and_queues() {
    let mut s = spec();
    s.seed = 41;
    s.clients = 15;
    s.client_placement = ClientPlacement::AllIn(DcId(0));
    let catalog = micro_catalog();
    let data = initial_items(ITEMS, 99);
    let mut factory = |_i: usize, _dc: DcId, _p: &_| -> Box<dyn mdcc_workloads::Workload> {
        Box::new(MicroWorkload::new(MicroConfig {
            items: ITEMS,
            commutative: true,
            ..MicroConfig::default()
        }))
    };
    let (mega, stats) = run_megastore(&s, catalog, &data, &mut factory);
    let (mdcc, _) = run_variant(MdccMode::Full, true, 41);
    let m_mega = mega.median_write_ms().expect("mega commits");
    let m_mdcc = mdcc.median_write_ms().expect("mdcc commits");
    // One transaction at a time with 15 always-pending writers ⇒ heavy
    // queueing, far beyond MDCC's medians (orders of magnitude in the
    // paper's 100-client setting).
    assert!(
        m_mega > 3.0 * m_mdcc,
        "Megastore* ({m_mega} ms) must queue far beyond MDCC ({m_mdcc} ms)"
    );
    assert!(stats.max_queue >= 5, "queue high-water {}", stats.max_queue);
    assert!(stats.committed > 0);
}

#[test]
fn uniform_network_gives_deterministic_reports() {
    let run = |seed: u64| {
        let mut s = spec();
        s.seed = seed;
        s.net = NetKind::Uniform { rtt_ms: 100.0 };
        s.jitter = 0.0;
        s.duration = SimDuration::from_secs(10);
        let catalog = micro_catalog();
        let data = initial_items(500, 9);
        let mut factory = |_i: usize, _dc: DcId, _p: &_| -> Box<dyn mdcc_workloads::Workload> {
            Box::new(MicroWorkload::new(MicroConfig {
                items: 500,
                ..MicroConfig::default()
            }))
        };
        let (report, _) = run_mdcc(&s, catalog, &data, &mut factory, MdccMode::Full);
        report
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(a.records, b.records);
}

#[test]
fn dc_failure_mid_run_does_not_stop_commits() {
    let mut s = spec();
    s.seed = 51;
    s.client_placement = ClientPlacement::AllIn(DcId(0));
    s.warmup = SimDuration::from_secs(5);
    s.duration = SimDuration::from_secs(30);
    // Fail US-East (the closest DC to the clients) 15 s in.
    s.faults = FaultPlan::new().with(FaultEvent::FailDc {
        at: SimDuration::from_secs(15),
        dc: DcId(1),
    });
    let catalog = micro_catalog();
    let data = initial_items(ITEMS, 99);
    let mut factory = |_i: usize, _dc: DcId, _p: &_| -> Box<dyn mdcc_workloads::Workload> {
        Box::new(MicroWorkload::new(MicroConfig {
            items: ITEMS,
            ..MicroConfig::default()
        }))
    };
    let (report, _) = run_mdcc(&s, catalog, &data, &mut factory, MdccMode::Full);
    let series = report.write_time_series(SimDuration::from_secs(5));
    // Commits continue in every bucket, including after the failure.
    for (t, _, count) in &series {
        assert!(*count > 0, "no commits in bucket at {t}s");
    }
    // Average latency steps up after the outage (farther quorums).
    let before: f64 = series[..2].iter().map(|(_, avg, _)| avg).sum::<f64>() / 2.0;
    let after: f64 = series[series.len() - 2..]
        .iter()
        .map(|(_, avg, _)| avg)
        .sum::<f64>()
        / 2.0;
    assert!(
        after > before,
        "latency must rise after the outage (before {before:.1} ms, after {after:.1} ms)"
    );
}
