//! The measurement passes. Each runs one public entry point of the
//! product (`run_mdcc`, `run_tpc`) on a workload's generated inputs and
//! reduces the `Report` to flat `name → number` pairs.
//!
//! Key convention: a key starting with `host.` was measured on the host
//! clock and varies run to run; every other key is a simulated quantity
//! and must repeat bit for bit for the same seed (the determinism gate
//! compares them across reps).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mdcc_cluster::metrics::percentile;
use mdcc_cluster::{run_mdcc, run_tpc, ClusterSpec, FaultPlan, Report};
use mdcc_common::{SimDuration, SimTime};
use mdcc_core::TxnStats;
use mdcc_trace::{Phase, TraceConfig};

use crate::host::{cpu_seconds, peak_rss_mb, Spans};
use crate::workloads::{Kind, Size};

/// Flat output of one pass.
pub type Raw = BTreeMap<String, f64>;

fn put(raw: &mut Raw, key: &str, value: f64) {
    raw.insert(key.to_string(), value);
}

/// `num / den`, absent when the denominator is zero (the metric is then
/// reported as `null`: the layer did no work on this workload).
fn put_ratio(raw: &mut Raw, key: &str, num: f64, den: f64) {
    if den > 0.0 {
        put(raw, key, num / den);
    }
}

/// One MDCC run of `kind` at `size`: the full, quarter and traced passes.
pub fn workload_pass(kind: Kind, seed: u64, size: Size, traced: bool, spans: &mut Spans) -> Raw {
    let mut raw = Raw::new();
    let started = Instant::now();
    let inputs = spans.scope("datagen", |_| kind.inputs(seed));
    put(&mut raw, "host.datagen_s", started.elapsed().as_secs_f64());

    let mut spec = kind.spec(seed, size);
    if traced {
        spec.trace = TraceConfig {
            profile: true,
            ..TraceConfig::on()
        };
    }
    let mut factory = kind.factory();
    let (cpu0, wall0) = (cpu_seconds(), Instant::now());
    let (report, stats) = spans.scope("run_mdcc", |_| {
        run_mdcc(
            &spec,
            Arc::clone(&inputs.catalog),
            &inputs.data,
            &mut *factory,
            kind.mode(),
        )
    });
    let run_wall = wall0.elapsed().as_secs_f64();
    put(&mut raw, "host.run_cpu_s", cpu_seconds() - cpu0);
    put(&mut raw, "host.run_wall_s", run_wall);
    // `perf.wall` stops before `run_mdcc` drops its `World`; the rest of
    // the call is the drop (plus the audit's final reductions).
    put(
        &mut raw,
        "host.world_drop_s",
        (run_wall - report.perf.wall.as_secs_f64()).max(0.0),
    );
    if let Some(mb) = peak_rss_mb() {
        put(&mut raw, "host.peak_rss_mb", mb);
    }
    spans.scope("reduce", |_| {
        reduce(kind, &spec, size, &report, &stats, &mut raw);
        if traced {
            reduce_trace(&spec, &report, &mut raw);
        }
    });
    raw
}

/// Fewest set-ups the set-up pass makes, the longest it keeps repeating,
/// and the most it makes.
const SETUP_MIN_REPS: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_secs(3);
const SETUP_MAX_REPS: usize = 25;

/// Set-up cost: everything before the measurement window opens — data
/// generation plus `run_mdcc` with the workload's warm-up but a
/// zero-length window and drain and no faults (build the world, load
/// every replica, write the initial checkpoints, warm up, audit).
///
/// The warm-up belongs here for steadiness as much as for meaning:
/// building and loading alone lasts 20–200 ms of page-faulting, which
/// this shared machine stretches by up to 2x from one minute to the
/// next. The pass repeats at least `SETUP_MIN_REPS` times and on until
/// `SETUP_BUDGET` is spent, and reports the minimum (as every host
/// metric does) and the quartiles. A smoke run sets up once.
pub fn setup_pass(kind: Kind, seed: u64, size: Size, spans: &mut Spans) -> Raw {
    let smoke = size.shrink > 1;
    let mut spec = kind.spec(seed, size);
    spec.duration = SimDuration::ZERO;
    spec.drain = SimDuration::ZERO;
    spec.faults = FaultPlan::new();
    let mut walls = Vec::new();
    let begun = Instant::now();
    while walls.is_empty()
        || (!smoke
            && (walls.len() < SETUP_MIN_REPS
                || (walls.len() < SETUP_MAX_REPS && begun.elapsed() < SETUP_BUDGET)))
    {
        let wall0 = Instant::now();
        spans.scope("setup", |_| {
            let inputs = kind.inputs(seed);
            let mut factory = kind.factory();
            let (report, _) = run_mdcc(
                &spec,
                Arc::clone(&inputs.catalog),
                &inputs.data,
                &mut *factory,
                kind.mode(),
            );
            std::hint::black_box(report);
        });
        walls.push(wall0.elapsed().as_secs_f64());
    }
    let (q1, q3) = quartiles(&mut walls);
    let mut raw = Raw::new();
    put(&mut raw, "host.setup_s", walls[0]);
    put(&mut raw, "host.setup_q1_s", q1);
    put(&mut raw, "host.setup_q3_s", q3);
    put(&mut raw, "host.setup_reps", walls.len() as f64);
    raw
}

/// The 2PC baseline on the same deployment and inputs.
pub fn tpc_pass(kind: Kind, seed: u64, size: Size, spans: &mut Spans) -> Raw {
    let inputs = kind.inputs(seed);
    let spec = kind.spec(seed, size);
    let mut factory = kind.factory();
    let report = spans.scope("run_tpc", |_| {
        run_tpc(
            &spec,
            Arc::clone(&inputs.catalog),
            &inputs.data,
            &mut *factory,
        )
    });
    let mut raw = Raw::new();
    if let Some(p50) = report.median_write_ms() {
        put(&mut raw, "tpc_p50_ms", p50);
    }
    put(&mut raw, "tpc_commits", report.write_commits() as f64);
    raw
}

/// Median of `values` (sorts them; the upper middle for even counts).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// First and third quartile of `values` (sorts them; linear
/// interpolation between the two nearest ranks, so two values give the
/// points a quarter of the way in from each).
pub fn quartiles(values: &mut [f64]) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let rank = q * (values.len() - 1) as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
    };
    (at(0.25), at(0.75))
}

fn reduce(
    kind: Kind,
    spec: &ClusterSpec,
    size: Size,
    report: &Report,
    stats: &TxnStats,
    raw: &mut Raw,
) {
    let audit = report
        .audit
        .as_ref()
        .expect("run_mdcc always audits the cluster");
    let commits = report.write_commits() as f64;
    let aborts = report.write_aborts() as f64;
    let stuck = audit.stuck_clients as f64;
    let attempted = commits + aborts + stuck;
    let window_s = spec.duration.as_secs_f64();

    // End to end, simulated. "Commit" is a committed write transaction
    // everywhere in this benchmark; reads are context.
    let latencies = report.write_latencies_ms();
    put(raw, "commits", commits);
    put(raw, "commit_samples", latencies.len() as f64);
    if let (Some(p50), Some(p99)) = (percentile(&latencies, 50.0), percentile(&latencies, 99.0)) {
        put(raw, "commit_p50_ms", p50);
        put(raw, "commit_p99_ms", p99);
    }
    put_ratio(raw, "commit_tps", commits, window_s);
    put_ratio(raw, "failed_frac", aborts + stuck, attempted);
    put_ratio(
        raw,
        "wire_bytes_per_commit",
        report.net.bytes_sent as f64,
        commits,
    );
    put_ratio(
        raw,
        "wire_frames_per_commit",
        report.net.msgs_sent as f64,
        commits,
    );
    let mut reads: Vec<f64> = report
        .records
        .iter()
        .filter(|r| !r.is_write && r.committed)
        .map(|r| r.latency().as_millis_f64())
        .collect();
    reads.sort_by(f64::total_cmp);
    if kind == Kind::TpcwDurable {
        if let Some(p99) = percentile(&reads, 99.0) {
            put(raw, "read_p99_ms", p99);
        }
        put_ratio(raw, "fsyncs_per_commit", report.net.fsyncs as f64, commits);
    }
    if kind == Kind::GeoFailover {
        // Closed loop: a client stalled by the outage has exactly one
        // transaction open, so its latency is the time without service.
        let (fail, heal) = kind.outage(size);
        let (fail, heal) = (SimTime::ZERO + fail, SimTime::ZERO + heal);
        let worst = report
            .records
            .iter()
            .filter(|r| r.is_write && r.started >= fail && r.started < heal)
            .map(|r| r.latency().as_millis_f64())
            .fold(None, |m: Option<f64>, l| Some(m.map_or(l, |m| m.max(l))));
        if let Some(worst) = worst {
            put(raw, "failover_max_ms", worst);
        }
    }

    // The audit, after drain.
    let diverged = diverged_replicas(&audit.committed_digests, spec.shards_per_dc);
    let overlaps = lease_overlaps(report);
    let min_stock = audit.min_of("stock");
    put(
        raw,
        "audit_violations",
        diverged as f64
            + audit.pending_options as f64
            + stuck
            + overlaps as f64
            + if min_stock.is_some_and(|m| m < 0) {
                1.0
            } else {
                0.0
            },
    );
    put(raw, "cluster.diverged_replicas", diverged as f64);
    put(raw, "cluster.pending_options", audit.pending_options as f64);
    put(raw, "cluster.stuck_clients", stuck);
    put(
        raw,
        "cluster.dangling_resolved",
        audit.dangling_resolved as f64,
    );
    if let Some(min_stock) = min_stock {
        put(raw, "cluster.min_stock", min_stock as f64);
    }

    // Coordinator counters cover the whole run (warm-up and drain too),
    // so they are normalized by the coordinators' own commit count.
    let tm_commits = stats.committed as f64;
    put_ratio(
        raw,
        "core.fast_commit_frac",
        stats.fast_commits as f64,
        tm_commits,
    );
    put_ratio(
        raw,
        "core.collisions_per_kcommit",
        1e3 * stats.collisions as f64,
        tm_commits,
    );
    put_ratio(
        raw,
        "core.classic_redirects_per_commit",
        stats.classic_redirects as f64,
        tm_commits,
    );
    put_ratio(
        raw,
        "core.learn_timeouts_per_kcommit",
        1e3 * stats.timeouts as f64,
        tm_commits,
    );
    put_ratio(
        raw,
        "core.repair_pulls_per_kcommit",
        1e3 * stats.repair_pulls as f64,
        tm_commits,
    );

    // Engine and transport.
    let net = &report.net;
    put(raw, "events", report.perf.events as f64);
    put_ratio(
        raw,
        "sim.events_per_commit",
        report.perf.events as f64,
        commits,
    );
    put_ratio(
        raw,
        "sim.coalesce_factor",
        net.payload_msgs as f64,
        net.msgs_sent as f64,
    );
    put(raw, "sim.dropped_frames", net.dropped as f64);
    put_ratio(
        raw,
        "sim.protocol_bytes_per_commit",
        net.protocol.bytes as f64,
        commits,
    );
    put_ratio(
        raw,
        "sim.read_bytes_per_commit",
        net.read.bytes as f64,
        commits,
    );
    put_ratio(
        raw,
        "sim.sync_bytes_per_commit",
        net.sync.bytes as f64,
        commits,
    );
    put_ratio(
        raw,
        "sim.repair_bytes_per_commit",
        net.repair.bytes as f64,
        commits,
    );

    // Durability and recovery.
    put_ratio(
        raw,
        "recovery.wal_bytes_per_commit",
        audit.wal_bytes_written as f64,
        commits,
    );
    put(raw, "recovery.checkpoints", audit.checkpoints as f64);
    put(raw, "recovery.sync_adoptions", audit.sync_adoptions as f64);
    put(
        raw,
        "recovery.node_recoveries",
        report.recoveries.len() as f64,
    );
    let sum = |f: fn(&mdcc_recovery::RecoveryInfo) -> u64| -> f64 {
        report.recoveries.iter().map(|r| f(&r.info)).sum::<u64>() as f64
    };
    put(
        raw,
        "recovery.replay_records",
        sum(|i| i.wal_records_replayed),
    );
    put(raw, "recovery.snapshot_bytes", sum(|i| i.snapshot_bytes));
    put(
        raw,
        "recovery.pending_restored",
        sum(|i| i.pending_restored),
    );

    // Storage engine (all zero under the in-memory backend).
    let engine = &report.engine;
    put_ratio(
        raw,
        "storage.evictions_per_commit",
        engine.evictions as f64,
        commits,
    );
    put(raw, "storage.live_mb", engine.live_bytes as f64 / 1e6);
    put_ratio(
        raw,
        "storage.dead_frac",
        engine.dead_bytes as f64,
        (engine.live_bytes + engine.dead_bytes) as f64,
    );
    put(raw, "storage.segments", engine.segments as f64);
    put(raw, "storage.compactions", engine.compactions as f64);

    // Dynamic mastership (all zero while it is disabled).
    let ms = &report.mastership;
    let cold = (ms.phase1_skipped + ms.phase1_covered) as f64;
    put(raw, "mastership.elections", ms.elections as f64);
    put(raw, "mastership.handoffs", ms.handoffs as f64);
    put_ratio(
        raw,
        "mastership.forwarded_frac",
        ms.forwarded as f64,
        (ms.served + ms.forwarded) as f64,
    );
    put_ratio(
        raw,
        "mastership.phase1_skipped_frac",
        ms.phase1_skipped as f64,
        cold,
    );
    put_ratio(
        raw,
        "mastership.cold_first_commit_rtts",
        ms.cold_first_commit_rtts as f64,
        cold,
    );
    put(raw, "mastership.lease_overlaps", overlaps as f64);

    // Workload context.
    put_ratio(
        raw,
        "workloads.read_frac",
        reads.len() as f64,
        report.records.len() as f64,
    );
    put(raw, "workloads.attempted_writes", attempted);
    put(
        raw,
        "workloads.attempted_txns",
        report.records.len() as f64 + stuck,
    );
}

/// Replicas whose committed digest differs from the most common digest
/// among the replicas of their shard. Digests are indexed dc-major.
fn diverged_replicas(digests: &[u64], shards_per_dc: usize) -> usize {
    (0..shards_per_dc)
        .map(|shard| {
            let replicas: Vec<u64> = digests
                .iter()
                .skip(shard)
                .step_by(shards_per_dc)
                .copied()
                .collect();
            let agreeing = replicas
                .iter()
                .map(|d| replicas.iter().filter(|o| *o == d).count())
                .max()
                .unwrap_or(0);
            replicas.len() - agreeing
        })
        .sum()
}

/// Pairs of lease tenures of one shard, held by different nodes, that
/// overlap in simulated time (the no-two-masters invariant).
fn lease_overlaps(report: &Report) -> usize {
    let spans = &report.lease_spans;
    let mut overlaps = 0;
    for (i, a) in spans.iter().enumerate() {
        for b in &spans[i + 1..] {
            if a.shard != b.shard {
                // Sorted by shard: no later span shares `a`'s shard.
                break;
            }
            if a.node != b.node && a.until > b.from && b.until > a.from {
                overlaps += 1;
            }
        }
    }
    overlaps
}

/// Phase anatomy (simulated time), span counts and the per-node host
/// profile of a traced run.
fn reduce_trace(spec: &ClusterSpec, report: &Report, raw: &mut Raw) {
    let trace = report.trace.as_ref().expect("traced run keeps its trace");
    let mut by_phase: BTreeMap<Phase, Vec<f64>> = BTreeMap::new();
    for span in &trace.spans {
        by_phase
            .entry(span.phase)
            .or_default()
            .push(span.duration().as_millis_f64());
    }
    for durations in by_phase.values_mut() {
        durations.sort_by(f64::total_cmp);
    }
    let mut pct = |key: &str, phase: Phase, p: f64| {
        if let Some(v) = by_phase.get(&phase).and_then(|d| percentile(d, p)) {
            put(raw, key, v);
        }
    };
    pct("paxos.phase1_p50_ms", Phase::Phase1, 50.0);
    pct("paxos.phase2a_p50_ms", Phase::Phase2a, 50.0);
    pct("core.phase2b_p50_ms", Phase::Phase2b, 50.0);
    pct("core.phase2b_p99_ms", Phase::Phase2b, 99.0);
    pct("core.visibility_p50_ms", Phase::Visibility, 50.0);
    pct("sim.net_queue_p99_ms", Phase::NetQueue, 99.0);
    pct("sim.net_transmit_p99_ms", Phase::NetTransmit, 99.0);
    pct("sim.net_service_p99_ms", Phase::NetService, 99.0);
    let commits = report.write_commits() as f64;
    let fsync_spans = by_phase.get(&Phase::WalFsync).map_or(0, Vec::len);
    put_ratio(
        raw,
        "recovery.wal_fsync_spans_per_commit",
        fsync_spans as f64,
        commits,
    );
    put_ratio(
        raw,
        "trace.spans_per_commit",
        trace.spans.len() as f64,
        commits,
    );

    // Storage nodes were spawned first, so their ids are the low ones.
    let storage_nodes = spec.dcs as u32 * spec.shards_per_dc as u32;
    let (mut node, mut tm) = ((0.0, 0.0), (0.0, 0.0));
    for entry in &report.profile {
        let slot = if entry.node.0 < storage_nodes {
            &mut node
        } else {
            &mut tm
        };
        slot.0 += entry.wall.as_secs_f64() * 1e6;
        slot.1 += entry.events as f64;
    }
    put_ratio(raw, "host.node_us_per_event", node.0, node.1);
    put_ratio(raw, "host.tm_us_per_event", tm.0, tm.1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_ranks() {
        assert_eq!(quartiles(&mut [5.0, 1.0, 3.0, 2.0, 4.0]), (2.0, 4.0));
        assert_eq!(quartiles(&mut [8.0, 4.0]), (5.0, 7.0));
        assert_eq!(quartiles(&mut [3.0]), (3.0, 3.0));
    }

    #[test]
    fn divergence_counts_replicas_off_the_shard_majority() {
        // Two shards, five DCs, dc-major: shard 0 = even slots.
        let digests = [1, 7, 1, 7, 2, 7, 1, 8, 1, 9];
        assert_eq!(diverged_replicas(&digests, 2), 1 + 2);
        assert_eq!(diverged_replicas(&[5; 10], 2), 0);
    }
}
