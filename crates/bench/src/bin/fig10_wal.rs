//! Figure 10: group-commit WAL throughput under an fsync-latency sweep.
//!
//! The commit path of a durable deployment is fsync-bound: every
//! storage-node state change WAL-appends, and each append charges the
//! node `fsync_latency` of busy time. Group commit
//! (`ProtocolConfig::group_commit`, the default) batches all appends a
//! node accumulates within `group_commit_window` under one covering
//! fsync, with acks held until that fsync fires — N transactions pay
//! one latency instead of N, exactly as envelope coalescing amortized
//! the per-message service floor. This driver sweeps `fsync_latency`
//! with group commit on and off and reports commits/sec, fsyncs per
//! committed transaction, and the speedup; at paper scale it closes
//! with a million-record bulk load showing the log-structured storage
//! backend keeping the materialized working set bounded.

use mdcc_bench::{
    export_trace, micro_catalog, net_summary, perf_summary, print_anatomy, print_profile_by_kind,
    save_csv, PerfLog, Scale,
};
use mdcc_cluster::{run_mdcc, ClusterSpec, MdccMode, Report};
use mdcc_common::{DcId, Key, ProtocolConfig, Row, SimDuration, StorageKind};
use mdcc_storage::RecordStore;
use mdcc_workloads::micro::{item_key, MicroConfig, MicroWorkload, STOCK};
use mdcc_workloads::Workload;

/// Regression guard on the group-commit run at 1 ms fsync latency in
/// the CI (`--scale=quick`) configuration. Per-append fsync measures
/// one fsync per WAL append — ~38 fsyncs per committed transaction on
/// this workload (3-item transactions, five replicas). Group commit
/// measures ~6.4. The run is deterministic at this seed, so the
/// ceiling sits between the two: losing the commit buffer (or a
/// regression that splinters batches) fails the smoke run while
/// ordinary drift does not.
const MDCC_FSYNCS_PER_COMMIT_CEILING: f64 = 8.0;

const ITEMS: u64 = 500;

/// The durability-bound deployment: one storage shard per DC puts
/// every replica of every record on the same five nodes, so each
/// node's WAL sees every transaction — the load the per-node commit
/// buffer exists for. Stock is effectively infinite: only the
/// durability discipline differs between runs, so commit outcomes are
/// comparable point to point.
fn wal_spec(scale: Scale, seed: u64, fsync: SimDuration, group_commit: bool) -> ClusterSpec {
    let d = scale.div();
    let m = scale.mult();
    let s = SimDuration::from_secs;
    let mut spec = ClusterSpec {
        seed,
        clients: (100 * m) as usize,
        shards_per_dc: 1,
        warmup: s(10 / d),
        duration: s(40 / d),
        drain: s(10),
        durability: true,
        wal_fsync: fsync,
        ..ClusterSpec::default()
    };
    spec.protocol.group_commit = group_commit;
    spec
}

fn run_wal(spec: &ClusterSpec) -> Report {
    let data: Vec<(Key, Row)> = (0..ITEMS)
        .map(|i| (item_key(i), Row::new().with(STOCK, 1_000_000)))
        .collect();
    let mut factory = |_c: usize, _dc: DcId, _p: &_| -> Box<dyn Workload> {
        Box::new(MicroWorkload::new(MicroConfig {
            items: ITEMS,
            ..MicroConfig::default()
        }))
    };
    run_mdcc(spec, micro_catalog(), &data, &mut factory, MdccMode::Full).0
}

fn summarize(label: &str, report: &Report) -> String {
    format!(
        "{label}: tps={:.0} commits={} median={:.0}ms p99={:.0}ms\n#   {}\n#   {}",
        report.throughput_tps(),
        report.write_commits(),
        report.median_write_ms().unwrap_or(f64::NAN),
        report.write_percentile_ms(99.0).unwrap_or(f64::NAN),
        net_summary(report),
        perf_summary(report),
    )
}

/// Bulk-loads `records` rows through the log-structured backend and
/// prints how much of the store stayed materialized — the RSS story:
/// encoded segments grow with data volume, the record cache does not.
fn log_structured_demo(records: u64) {
    let cfg = ProtocolConfig {
        storage: StorageKind::LogStructured,
        ..ProtocolConfig::default()
    };
    let cache_cap = cfg.log_cache_records;
    let mut store = RecordStore::new(cfg, micro_catalog());
    let start = std::time::Instant::now();
    for i in 0..records {
        store.load(item_key(i), Row::new().with(STOCK, 100));
    }
    let stats = store.engine_stats();
    println!(
        "# log-structured bulk load: {} records in {:.2}s — {} materialized \
         (cache cap {}), {:.1} MB live segments ({} segments, {} evictions, \
         {} compactions)",
        records,
        start.elapsed().as_secs_f64(),
        store.materialized(),
        cache_cap,
        stats.live_bytes as f64 / 1e6,
        stats.segments,
        stats.evictions,
        stats.compactions,
    );
    assert!(
        store.materialized() <= cache_cap,
        "materialized records must stay bounded by the cache cap"
    );
}

fn main() {
    let scale = Scale::from_args();
    let (trace_cfg, trace_out) = mdcc_bench::trace_flags();
    let us = SimDuration::from_micros;
    let mut rows: Vec<String> = Vec::new();
    let mut perf = PerfLog::new();
    println!("# Figure 10 — WAL group commit: commits/sec vs fsync latency");
    println!("# per-append fsync pays one latency per WAL append; group commit pays one per batch");

    // The no-durability-cost anchor: at zero fsync latency both
    // disciplines are the same machine (group commit is inert).
    {
        let spec = wal_spec(scale, 1010, SimDuration::ZERO, true);
        let report = run_wal(&spec);
        println!("{}", summarize("fsync=0 (free durability)", &report));
        perf.record("fsync0", &report);
        rows.push(format!(
            "0,free,{:.1},{:.4}",
            report.throughput_tps(),
            report.fsyncs_per_commit().unwrap_or(0.0)
        ));
    }

    for fsync_us in [500u64, 1_000, 2_000, 5_000] {
        let mut tps = [0.0f64; 2];
        for (i, group_commit) in [false, true].into_iter().enumerate() {
            let mut spec = wal_spec(scale, 1010, us(fsync_us), group_commit);
            let traced = group_commit && fsync_us == 1_000;
            if traced && (trace_cfg.enabled || scale == Scale::Quick) {
                spec.trace = mdcc_trace::TraceConfig {
                    profile: true,
                    ..mdcc_trace::TraceConfig::on()
                };
            }
            let mode = if group_commit { "group" } else { "per-append" };
            let label = format!("fsync={:.1}ms {mode}", fsync_us as f64 / 1e3);
            let report = run_wal(&spec);
            println!("{}", summarize(&label, &report));
            perf.record(&label, &report);
            tps[i] = report.throughput_tps();
            rows.push(format!(
                "{:.1},{mode},{:.1},{:.4}",
                fsync_us as f64 / 1e3,
                report.throughput_tps(),
                report.fsyncs_per_commit().unwrap_or(0.0)
            ));
            if traced {
                print_anatomy("group commit @1ms", &report);
                // Where a durable run's host time goes, checkpoints and
                // anti-entropy included (nothing unless profiled).
                print_profile_by_kind(&report, 12);
                if let Some(path) = &trace_out {
                    export_trace(&report, path);
                }
            }
            if traced && scale == Scale::Quick {
                let fpc = report.fsyncs_per_commit().unwrap_or(f64::INFINITY);
                if fpc > MDCC_FSYNCS_PER_COMMIT_CEILING {
                    eprintln!(
                        "REGRESSION: group-commit fsyncs/commit {fpc:.1} exceeds the \
                         checked-in ceiling {MDCC_FSYNCS_PER_COMMIT_CEILING:.1} — \
                         commit buffer lost or batches splintered?"
                    );
                    std::process::exit(1);
                }
                println!(
                    "# fsyncs/commit guard: {fpc:.1} <= ceiling \
                     {MDCC_FSYNCS_PER_COMMIT_CEILING:.1}"
                );
            }
        }
        println!(
            "# fsync={:.1}ms speedup: group commit {:.2}x over per-append ({:.0} vs {:.0} tps)",
            fsync_us as f64 / 1e3,
            tps[1] / tps[0].max(1e-9),
            tps[1],
            tps[0],
        );
    }

    // The storage-engine half of the story: a record count that would
    // hold a million materialized acceptor records under the in-memory
    // backend stays a 4 096-record cache plus encoded segments under
    // the log-structured one.
    let records = match scale {
        Scale::Quick => 100_000,
        Scale::Paper => 1_000_000,
        Scale::X10 => 1_000_000,
    };
    log_structured_demo(records);

    save_csv("fig10_wal", "fsync_ms,mode,tps,fsyncs_per_commit", &rows);
    perf.save("fig10", scale);
}
