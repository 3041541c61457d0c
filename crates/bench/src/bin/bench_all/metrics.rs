//! The metric table — every metric's name, unit, direction, bound and
//! source — and the derivation of metric values from pass outputs.

use crate::passes::{quartiles, Raw};
use Better::{Higher, Lower};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How much worse a metric may get before `--compare` calls it a
/// regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the old value.
    Rel(f64),
    /// An absolute amount, for metrics whose healthy value is zero.
    Abs(f64),
    /// Per-layer metrics explain; they do not gate.
    None,
}

/// Where a metric's value comes from.
#[derive(Clone, Copy)]
pub enum Source {
    /// A simulated quantity of the full run (identical in every rep).
    Full(&'static str),
    /// A simulated quantity of the traced quarter run.
    Traced(&'static str),
    /// A host timing of the kernel pass, keyed by the metric's own name.
    Kernel,
    /// Computed from host timings, usually across passes.
    Derived(Derive),
}

type Derive = fn(&Passes) -> Measured;

/// Which run produces the metric: `--trace 0` (end to end) or
/// `--trace 1` (per layer) of the driver's command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    EndToEnd,
    Layer,
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    pub stage: Stage,
    pub source: Source,
}

/// Everything measured for one workload.
#[derive(Debug, Default)]
pub struct Passes {
    /// Full untraced runs, one per rep.
    pub full: Vec<Raw>,
    pub setup: Option<Raw>,
    pub quarter: Option<Raw>,
    pub traced: Option<Raw>,
    pub tpc: Option<Raw>,
    pub kernels: Option<Raw>,
}

/// A metric's value with the spread of the reps behind it. Host metrics
/// report the minimum of their reps: interference on a shared machine
/// only ever adds time. The spread is the distance between the reps'
/// quartiles, which is what `--compare` holds against the bound.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Measured {
    /// `None` = the metric does not apply to this workload (`null`).
    pub value: Option<f64>,
    pub q1: Option<f64>,
    pub q3: Option<f64>,
    pub n: usize,
}

impl Measured {
    fn one(value: Option<f64>) -> Self {
        Measured {
            value,
            q1: value,
            q3: value,
            n: value.is_some() as usize,
        }
    }

    fn min_of(values: impl Iterator<Item = Option<f64>>) -> Self {
        let mut values: Vec<f64> = values.flatten().collect();
        if values.is_empty() {
            return Measured::default();
        }
        let (q1, q3) = quartiles(&mut values);
        Measured {
            value: Some(values[0]),
            q1: Some(q1),
            q3: Some(q3),
            n: values.len(),
        }
    }
}

fn get(raw: Option<&Raw>, key: &str) -> Option<f64> {
    raw?.get(key).copied()
}

fn ratio(num: Option<f64>, den: Option<f64>) -> Option<f64> {
    match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => Some(n / d),
        _ => None,
    }
}

/// Host CPU µs of a whole run (build, load, warm-up, window, drain)
/// per `unit`. Nothing is subtracted: a set-up estimate taken from
/// other runs would carry its own noise into every run's figure.
fn us_per(run: &Raw, unit: &str) -> Option<f64> {
    ratio(
        run.get("host.run_cpu_s").map(|s| s * 1e6),
        run.get(unit).copied(),
    )
}

fn host_cpu_us_per_commit(p: &Passes) -> Measured {
    Measured::min_of(p.full.iter().map(|r| us_per(r, "commits")))
}

fn host_peak_rss_mb(p: &Passes) -> Measured {
    Measured::min_of(p.full.iter().map(|r| r.get("host.peak_rss_mb").copied()))
}

fn setup_s(p: &Passes) -> Measured {
    let setup = p.setup.as_ref();
    Measured {
        value: get(setup, "host.setup_s"),
        q1: get(setup, "host.setup_q1_s"),
        q3: get(setup, "host.setup_q3_s"),
        n: get(setup, "host.setup_reps").unwrap_or(0.0) as usize,
    }
}

fn host_us_per_event(p: &Passes) -> Measured {
    Measured::min_of(p.full.iter().map(|r| us_per(r, "events")))
}

fn host_events_per_s(p: &Passes) -> Measured {
    Measured::one(host_us_per_event(p).value.map(|us| 1e6 / us))
}

fn run_length_growth(p: &Passes) -> Measured {
    let quarter = p.quarter.as_ref().and_then(|q| us_per(q, "events"));
    Measured::one(ratio(host_us_per_event(p).value, quarter))
}

fn world_drop_s(p: &Passes) -> Measured {
    Measured::min_of(p.full.iter().map(|r| r.get("host.world_drop_s").copied()))
}

fn datagen_s(p: &Passes) -> Measured {
    Measured::min_of(p.full.iter().map(|r| r.get("host.datagen_s").copied()))
}

fn tpc_p50_ratio(p: &Passes) -> Measured {
    Measured::one(ratio(
        get(p.quarter.as_ref(), "commit_p50_ms"),
        get(p.tpc.as_ref(), "tpc_p50_ms"),
    ))
}

fn trace_overhead(p: &Passes) -> Measured {
    Measured::one(ratio(
        get(p.traced.as_ref(), "host.run_cpu_s"),
        get(p.quarter.as_ref(), "host.run_cpu_s"),
    ))
}

fn node_host_us(p: &Passes) -> Measured {
    Measured::one(get(p.traced.as_ref(), "host.node_us_per_event"))
}

fn tm_host_us(p: &Passes) -> Measured {
    Measured::one(get(p.traced.as_ref(), "host.tm_us_per_event"))
}

/// An end-to-end metric read from the full run (simulated, exact).
const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Bound::Rel(bound),
        stage: Stage::EndToEnd,
        source: Source::Full(name),
    }
}

/// An end-to-end metric measured on the host.
const fn e2e_host(name: &'static str, unit: &'static str, bound: f64, f: Derive) -> Def {
    Def {
        source: Source::Derived(f),
        ..e2e(name, unit, Lower, bound)
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, source: Source) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Bound::None,
        stage: Stage::Layer,
        source,
    }
}

/// A metric a user of the system would see, but which is undefined or
/// zero on some workload. The driver's contract wants every
/// `end_to_end` metric to be a number, never 0, on every workload, so
/// these are measured with the per-layer run; they keep the issue's
/// bounds for `--compare`.
const fn user(name: &'static str, unit: &'static str, bound: Bound) -> Def {
    Def {
        bound,
        ..count(name, unit, Lower)
    }
}

/// A per-layer metric computed from host timings.
const fn host(name: &'static str, unit: &'static str, better: Better, f: Derive) -> Def {
    layer(name, unit, better, Source::Derived(f))
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Def {
    layer(name, unit, better, Source::Full(name))
}

const fn traced(name: &'static str, unit: &'static str) -> Def {
    layer(name, unit, Better::Lower, Source::Traced(name))
}

const fn kernel(name: &'static str) -> Def {
    layer(name, "ns", Better::Lower, Source::Kernel)
}

/// Every metric, in report order. Units: `sim_ms` is simulated time;
/// `us`, `s`, `ns` and `MB` are measured on the host.
pub const DEFS: &[Def] = &[
    // End to end: defined and non-zero on every workload. The driver
    // varies the seed and wants each spread across seeds below a third of
    // the bound, so the bounds of the simulated ones are about three
    // times their widest spread across seeds (README, "Steadiness").
    e2e("commit_p50_ms", "sim_ms", Lower, 0.04),
    e2e("commit_p99_ms", "sim_ms", Lower, 0.16),
    e2e("commit_tps", "1/sim_s", Higher, 0.14),
    e2e("wire_bytes_per_commit", "B", Lower, 0.09),
    e2e("wire_frames_per_commit", "count", Lower, 0.10),
    e2e_host("host_cpu_us_per_commit", "us", 0.25, host_cpu_us_per_commit),
    e2e_host("host_peak_rss_mb", "MB", 0.10, host_peak_rss_mb),
    e2e_host("setup_s", "s", 0.25, setup_s),
    // End to end on the workloads that have them.
    user("read_p99_ms", "sim_ms", Bound::Rel(0.05)),
    user("failed_frac", "frac", Bound::Abs(0.005)),
    user("fsyncs_per_commit", "count", Bound::Rel(0.02)),
    user("failover_max_ms", "sim_ms", Bound::Rel(0.05)),
    user("audit_violations", "count", Bound::Abs(0.0)),
    // Counts of the full run (exact).
    count("core.fast_commit_frac", "frac", Higher),
    count("core.collisions_per_kcommit", "count", Lower),
    count("core.classic_redirects_per_commit", "count", Lower),
    count("core.learn_timeouts_per_kcommit", "count", Lower),
    count("core.repair_pulls_per_kcommit", "count", Lower),
    count("sim.events_per_commit", "count", Lower),
    host("sim.host_us_per_event", "us", Lower, host_us_per_event),
    host("sim.host_events_per_s", "1/s", Higher, host_events_per_s),
    host("sim.run_length_growth", "x", Lower, run_length_growth),
    host("sim.world_drop_s", "s", Lower, world_drop_s),
    count("sim.coalesce_factor", "x", Higher),
    count("sim.dropped_frames", "count", Lower),
    count("sim.protocol_bytes_per_commit", "B", Lower),
    count("sim.read_bytes_per_commit", "B", Lower),
    count("sim.sync_bytes_per_commit", "B", Lower),
    count("sim.repair_bytes_per_commit", "B", Lower),
    count("recovery.wal_bytes_per_commit", "B", Lower),
    count("recovery.checkpoints", "count", Lower),
    count("recovery.replay_records", "count", Lower),
    count("recovery.snapshot_bytes", "B", Lower),
    count("recovery.pending_restored", "count", Lower),
    count("recovery.sync_adoptions", "count", Lower),
    count("storage.evictions_per_commit", "count", Lower),
    count("storage.live_mb", "MB", Lower),
    count("storage.dead_frac", "frac", Lower),
    count("storage.segments", "count", Lower),
    count("storage.compactions", "count", Lower),
    count("mastership.elections", "count", Lower),
    count("mastership.handoffs", "count", Lower),
    count("mastership.forwarded_frac", "frac", Lower),
    count("mastership.phase1_skipped_frac", "frac", Higher),
    count("mastership.cold_first_commit_rtts", "rtt", Lower),
    count("mastership.lease_overlaps", "count", Lower),
    count("cluster.diverged_replicas", "count", Lower),
    count("cluster.pending_options", "count", Lower),
    count("cluster.stuck_clients", "count", Lower),
    count("cluster.dangling_resolved", "count", Lower),
    count("cluster.min_stock", "count", Higher),
    count("workloads.read_frac", "frac", Higher),
    count("workloads.attempted_writes", "count", Higher),
    host("workloads.datagen_s", "s", Lower, datagen_s),
    host("baselines.tpc_p50_ratio", "x", Lower, tpc_p50_ratio),
    // The traced quarter run (simulated time, exact).
    traced("paxos.phase1_p50_ms", "sim_ms"),
    traced("paxos.phase2a_p50_ms", "sim_ms"),
    traced("core.phase2b_p50_ms", "sim_ms"),
    traced("core.phase2b_p99_ms", "sim_ms"),
    traced("core.visibility_p50_ms", "sim_ms"),
    traced("recovery.wal_fsync_spans_per_commit", "count"),
    traced("sim.net_queue_p99_ms", "sim_ms"),
    traced("sim.net_transmit_p99_ms", "sim_ms"),
    traced("sim.net_service_p99_ms", "sim_ms"),
    host("core.node_host_us_per_event", "us", Lower, node_host_us),
    host("core.tm_host_us_per_event", "us", Lower, tm_host_us),
    host("trace.overhead_ratio", "x", Lower, trace_overhead),
    traced("trace.spans_per_commit", "count"),
    // Kernels (host ns per operation).
    kernel("common.msg_encode_ns"),
    kernel("common.msg_decode_ns"),
    kernel("common.envelope_encode_ns"),
    kernel("paxos.cstruct_lub_ns"),
    kernel("paxos.cstruct_digest_ns"),
    kernel("paxos.delta_extract_fold_ns"),
    kernel("paxos.acceptor_propose_resolve_ns"),
    kernel("paxos.learner_fast_quorum_ns"),
    kernel("paxos.demarcation_check_ns"),
    kernel("storage.mem_put_ns"),
    kernel("storage.log_put_ns"),
    kernel("storage.log_get_hot_ns"),
    kernel("storage.log_get_cold_ns"),
    kernel("recovery.wal_append_group_ns"),
    kernel("recovery.replay_ns_per_record"),
    kernel("recovery.snapshot_encode_ns_per_record"),
    kernel("mastership.lease_encode_ns"),
    kernel("mastership.lease_lookup_ns"),
    layer("sim.pingpong_events_per_s", "1/s", Higher, Source::Kernel),
];

impl Def {
    pub fn is_kernel(&self) -> bool {
        matches!(self.source, Source::Kernel)
    }

    /// The metric's value from what has been measured so far.
    pub fn measure(&self, passes: &Passes) -> Measured {
        match self.source {
            Source::Full(key) => Measured::one(get(passes.full.first(), key)),
            Source::Traced(key) => Measured::one(get(passes.traced.as_ref(), key)),
            Source::Kernel => Measured::one(get(passes.kernels.as_ref(), self.name)),
            Source::Derived(f) => f(passes),
        }
    }
}
