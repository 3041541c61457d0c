//! Shared scaffolding for the experiment drivers.
//!
//! Every figure of the paper's evaluation has a binary in `src/bin`
//! (`fig3` … `fig8`, `tables`) built on the helpers here: experiment
//! scales, workload factories, and CSV output under `results/`.
//! Measured-versus-paper numbers — including bytes-on-wire per
//! committed transaction — are recorded in the repository-level
//! `EXPERIMENTS.md`.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub use mdcc_cluster::{micro_catalog, tpcw_catalog};
use mdcc_cluster::{ClientPlacement, ClusterSpec, Report};
use mdcc_common::{DcId, Key, Row, SimDuration, StaticPlacement};
use mdcc_trace::TraceConfig;
use mdcc_workloads::micro::{MicroConfig, MicroWorkload};
use mdcc_workloads::tpcw::{self, TpcwConfig, TpcwWorkload};
use mdcc_workloads::Workload;

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long smoke runs (CI).
    Quick,
    /// Minutes-long runs matching the paper's setup sizes.
    Paper,
    /// Ten times the paper's client and data sizes at paper durations —
    /// the engine's headroom demonstration.
    X10,
}

impl Scale {
    /// Parses one scale name; `None` for anything unknown.
    pub fn parse(v: &str) -> Option<Scale> {
        match v {
            "quick" => Some(Scale::Quick),
            "paper" => Some(Scale::Paper),
            "10x" => Some(Scale::X10),
            _ => None,
        }
    }

    /// Parses `--scale=quick|paper|10x` from the process arguments
    /// (default: paper — drivers reproduce the paper's setup sizes
    /// unless explicitly scaled down for CI smoke runs).
    pub fn from_args() -> Scale {
        for arg in std::env::args() {
            if let Some(v) = arg.strip_prefix("--scale=") {
                return Scale::parse(v)
                    .unwrap_or_else(|| panic!("unknown scale {v:?} (use quick|paper|10x)"));
            }
        }
        Scale::Paper
    }

    /// The name `--scale=` accepts for this scale.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
            Scale::X10 => "10x",
        }
    }

    /// Scale factor divisor applied to clients/items/duration.
    pub fn div(&self) -> u64 {
        match self {
            Scale::Quick => 4,
            Scale::Paper | Scale::X10 => 1,
        }
    }

    /// Multiplier applied to clients and items (durations stay at the
    /// paper's lengths: `10x` grows the deployment, not the run).
    pub fn mult(&self) -> u64 {
        match self {
            Scale::Quick | Scale::Paper => 1,
            Scale::X10 => 10,
        }
    }
}

/// The paper's TPC-W deployment (§5.2.1): SF 10 000 items, 100 clients,
/// four storage nodes per DC, 1 min warm-up + 2 min measurement.
pub fn tpcw_spec(scale: Scale, seed: u64) -> (ClusterSpec, u64) {
    let d = scale.div();
    let m = scale.mult();
    let items = 10_000 * m / d;
    let spec = ClusterSpec {
        seed,
        clients: (100 * m / d) as usize,
        shards_per_dc: ((4 / d) as usize).max(1),
        warmup: SimDuration::from_secs(60 / d),
        duration: SimDuration::from_secs(120 / d),
        ..ClusterSpec::default()
    };
    (spec, items)
}

/// The paper's micro-benchmark deployment (§5.3): 10 000 items, 100
/// clients, two storage nodes per DC, 1 min warm-up + 3 min measurement.
pub fn micro_spec(scale: Scale, seed: u64) -> (ClusterSpec, u64) {
    let d = scale.div();
    let m = scale.mult();
    let items = 10_000 * m / d;
    let spec = ClusterSpec {
        seed,
        clients: (100 * m / d) as usize,
        shards_per_dc: 2,
        warmup: SimDuration::from_secs(60 / d),
        duration: SimDuration::from_secs(180 / d),
        ..ClusterSpec::default()
    };
    (spec, items)
}

/// TPC-W initial rows at `items` scale.
pub fn tpcw_data(items: u64, seed: u64) -> Vec<(Key, Row)> {
    let cfg = TpcwConfig::with_scale(items, 0);
    tpcw::initial_data(&cfg, seed)
}

/// A TPC-W workload factory; `commutative` selects delta versus physical
/// stock updates in Buy Confirm.
pub fn tpcw_factory(
    items: u64,
    commutative: bool,
) -> impl FnMut(usize, DcId, &Arc<StaticPlacement>) -> Box<dyn Workload> {
    move |client, _dc, _placement| {
        let mut cfg = TpcwConfig::with_scale(items, client as u64);
        cfg.commutative = commutative;
        Box::new(TpcwWorkload::new(cfg))
    }
}

/// A micro-benchmark workload factory from a config template; per-client
/// master-locality wiring (Figure 7) happens here.
pub fn micro_factory(
    template: MicroConfig,
    local_fraction: Option<f64>,
) -> impl FnMut(usize, DcId, &Arc<StaticPlacement>) -> Box<dyn Workload> {
    move |_client, dc, placement| {
        let mut cfg = template.clone();
        if let Some(fraction) = local_fraction {
            let p = Arc::clone(placement);
            cfg.locality = Some(mdcc_workloads::micro::LocalityConfig {
                local_fraction: fraction,
                my_dc: dc.0,
                master_dc_of: Arc::new(move |key: &Key| {
                    use mdcc_common::Placement as _;
                    p.master_dc(key).0
                }),
            });
        }
        Box::new(MicroWorkload::new(cfg))
    }
}

/// Puts all clients in DC 0 (with the Megastore* master / the Figure 8
/// vantage point), as the paper does.
pub fn all_in_us_west(spec: &mut ClusterSpec) {
    spec.client_placement = ClientPlacement::AllIn(DcId(0));
}

/// One-line bytes-on-wire summary of a run: total by traffic class plus
/// wire cost per committed transaction — bytes *and* frames (the
/// per-message service floor makes frames/commit the queueing
/// figure-of-merit envelope coalescing optimizes).
pub fn net_summary(report: &mdcc_cluster::Report) -> String {
    const MB: f64 = 1_000_000.0;
    let n = report.net;
    let commits = report.committed_count().max(1);
    let fsyncs = match report.fsyncs_per_commit() {
        Some(f) if n.fsyncs > 0 => format!(", {f:.2} fsyncs/commit"),
        _ => String::new(),
    };
    format!(
        "wire: {:.2} MB (protocol {:.2} / read {:.2} / sync {:.2} / repair {:.2}), \
         {:.0} bytes/commit, {:.1} msgs/commit ({:.1} protocol; {:.2}x coalesced), \
         {} repair rounds{fsyncs}",
        n.bytes_sent as f64 / MB,
        n.protocol.bytes as f64 / MB,
        n.read.bytes as f64 / MB,
        n.sync.bytes as f64 / MB,
        n.repair.bytes as f64 / MB,
        report.bytes_per_commit().unwrap_or(f64::NAN),
        report.msgs_per_commit().unwrap_or(f64::NAN),
        n.protocol.msgs as f64 / commits as f64,
        n.payload_msgs as f64 / n.msgs_sent.max(1) as f64,
        n.repair.msgs / 2,
    )
}

/// Parses the shared tracing flags from the process arguments:
/// `--trace` turns span collection on for the driver's MDCC runs,
/// `--trace-out=PATH` additionally names a Chrome-trace JSON export
/// target (and implies `--trace`). Returns `(config, export path)`.
pub fn trace_flags() -> (TraceConfig, Option<PathBuf>) {
    let mut out = None;
    let mut on = false;
    for arg in std::env::args() {
        if arg == "--trace" {
            on = true;
        } else if let Some(v) = arg.strip_prefix("--trace-out=") {
            out = Some(PathBuf::from(v));
            on = true;
        }
    }
    let cfg = if on {
        TraceConfig::on()
    } else {
        TraceConfig::off()
    };
    (cfg, out)
}

/// One-line host-cost summary of a run: wall-clock runtime and event
/// rate — printed by every driver so harness-level perf regressions
/// show up in the logs, not just sim-time results.
pub fn perf_summary(report: &Report) -> String {
    let p = report.perf;
    format!(
        "host: {:.2}s wall, {} events, {:.0} events/sec",
        p.wall.as_secs_f64(),
        p.events,
        p.events_per_sec(),
    )
}

/// Prints the per-phase latency anatomy of a traced run; quiet for
/// untraced reports (every driver calls this unconditionally).
pub fn print_anatomy(label: &str, report: &Report) {
    if let Some(anatomy) = report.anatomy() {
        println!("# {label} — latency anatomy (sim-time, per phase):");
        print!("{anatomy}");
    }
}

/// Prints the hottest `top` nodes of the event-loop profile: events
/// handled, sim busy time and (when `TraceConfig::profile` was set)
/// host wall time per node.
pub fn print_profile(report: &Report, top: usize) {
    if report.profile.is_empty() {
        return;
    }
    println!(
        "# event-loop profile — top {} of {} nodes by sim busy time:",
        top.min(report.profile.len()),
        report.profile.len()
    );
    println!(
        "#   {:<6} {:>10} {:>14} {:>12}",
        "node", "events", "sim busy ms", "host ms"
    );
    for entry in report.profile.iter().take(top) {
        println!(
            "#   {:<6} {:>10} {:>14.3} {:>12.3}",
            entry.node.to_string(),
            entry.events,
            entry.sim_busy.as_millis_f64(),
            entry.wall.as_secs_f64() * 1e3,
        );
    }
}

/// Prints the `top` (node role, message kind) rows of the event-loop
/// profile by host time — which handler the engine's wall-clock went
/// to — with what each kind delivered: messages and their framed wire
/// bytes (timers and `on_start` deliver nothing). The profile covers
/// the whole run, warm-up and drain included, while the report counts
/// write commits in its window only, so the per-commit column divides
/// whole-run bytes by window commits and reads high — by the ratio of
/// the run's commits to the window's (1.67× on `bench_all`'s traced
/// quarter pass). Compare its rows with each other, not with
/// `bytes_per_commit`. Nothing unless the run profiled host time
/// (`TraceConfig::profile`).
pub fn print_profile_by_kind(report: &Report, top: usize) {
    let rows = &report.profile_by_kind;
    if rows.is_empty() {
        return;
    }
    let total: f64 = rows.iter().map(|r| r.wall.as_secs_f64()).sum();
    let bytes: u64 = rows.iter().map(|r| r.bytes).sum();
    let commits = report.write_commits().max(1) as f64;
    println!(
        "# event-loop profile — top {} of {} (role, message kind) rows by host time \
         ({:.1} ms in handlers; {:.0} B delivered over the whole run, warm-up and drain \
         included, per window commit):",
        top.min(rows.len()),
        rows.len(),
        total * 1e3,
        bytes as f64 / commits
    );
    println!(
        "#   {:<8} {:<16} {:>10} {:>12} {:>10} {:>7} {:>10} {:>12} {:>9} {:>10}",
        "role",
        "kind",
        "events",
        "host ms",
        "us/event",
        "share",
        "msgs",
        "bytes",
        "B/msg",
        "runB/wcmt"
    );
    for row in rows.iter().take(top) {
        let wall = row.wall.as_secs_f64();
        println!(
            "#   {:<8} {:<16} {:>10} {:>12.3} {:>10.2} {:>6.1}% {:>10} {:>12} {:>9.1} {:>10.1}",
            format!("{:?}", row.role).to_lowercase(),
            row.kind,
            row.events,
            wall * 1e3,
            wall * 1e6 / row.events.max(1) as f64,
            100.0 * wall / total.max(f64::MIN_POSITIVE),
            row.msgs,
            row.bytes,
            row.bytes as f64 / row.msgs.max(1) as f64,
            row.bytes as f64 / commits,
        );
    }
}

/// Prints the stale-proposal counters of an MDCC run: how many fast
/// proposals reached a replica before the version they read and were
/// parked, how they left the table, and how many are still parked
/// (zero once a run has drained).
pub fn print_parked(report: &Report) {
    let n = &report.nodes;
    let pct = |part: u64, whole: u64| 100.0 * part as f64 / whole.max(1) as f64;
    println!(
        "# stale proposals: parked={} ({:.1}% of {} versioned, {:.2}% of {} fast proposals) \
         released={} judged_behind={} parked_left={}",
        n.proposals_parked,
        pct(n.proposals_parked, n.versioned_proposals),
        n.versioned_proposals,
        pct(n.proposals_parked, n.proposals),
        n.proposals,
        n.parked_released,
        n.parked_judged_behind,
        report.audit.as_ref().map_or(0, |a| a.parked_left),
    );
}

/// Writes a traced run's Chrome-trace JSON (loadable in Perfetto /
/// `chrome://tracing`) to `path` and echoes what it wrote.
pub fn export_trace(report: &Report, path: &Path) {
    let Some(trace) = &report.trace else {
        eprintln!("# trace export requested but the run was not traced");
        return;
    };
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            let _ = fs::create_dir_all(dir);
        }
    }
    fs::write(path, trace.to_chrome_json()).expect("write trace file");
    println!(
        "# wrote {} ({} spans, {} counter samples)",
        path.display(),
        trace.spans.len(),
        trace.counters.len()
    );
}

/// Writes rows as CSV under `results/` and echoes the path.
pub fn save_csv(name: &str, header: &str, rows: &[String]) {
    let dir = PathBuf::from("results");
    let _ = fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.csv"));
    let mut f = fs::File::create(&path).expect("create results file");
    writeln!(f, "{header}").expect("write header");
    for row in rows {
        writeln!(f, "{row}").expect("write row");
    }
    println!("# wrote {}", path.display());
}

/// Formats a CDF as CSV rows.
pub fn cdf_rows(label: &str, cdf: &[(f64, f64)]) -> Vec<String> {
    cdf.iter()
        .map(|(ms, frac)| format!("{label},{ms:.3},{frac:.5}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_all_three_names() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("10x"), Some(Scale::X10));
        assert_eq!(Scale::parse("huge"), None);
        assert_eq!(Scale::parse(""), None);
        for s in [Scale::Quick, Scale::Paper, Scale::X10] {
            assert_eq!(Scale::parse(s.name()), Some(s), "name round-trips");
        }
    }

    #[test]
    fn ten_x_grows_the_deployment_not_the_run() {
        let (spec, items) = tpcw_spec(Scale::X10, 1);
        assert_eq!(spec.clients, 1_000);
        assert_eq!(items, 100_000);
        let (paper, _) = tpcw_spec(Scale::Paper, 1);
        assert_eq!(spec.warmup, paper.warmup);
        assert_eq!(spec.duration, paper.duration);
        let (mspec, mitems) = micro_spec(Scale::X10, 1);
        assert_eq!(mspec.clients, 1_000);
        assert_eq!(mitems, 100_000);
        assert_eq!(mspec.duration, SimDuration::from_secs(180));
    }

    #[test]
    fn specs_scale_down_for_quick_runs() {
        let (q, qi) = tpcw_spec(Scale::Quick, 1);
        let (p, pi) = tpcw_spec(Scale::Paper, 1);
        assert!(q.clients < p.clients);
        assert!(qi < pi);
        assert_eq!(p.clients, 100);
        assert_eq!(pi, 10_000);
        assert_eq!(p.shards_per_dc, 4);
    }

    #[test]
    fn catalogs_have_the_stock_constraint() {
        let c = tpcw_catalog();
        let k = tpcw::item_key(1);
        assert_eq!(c.constraints_for(&k).len(), 1);
        let m = micro_catalog();
        let k = mdcc_workloads::micro::item_key(1);
        assert_eq!(m.constraints_for(&k).len(), 1);
    }

    #[test]
    fn micro_spec_matches_paper_defaults() {
        let (spec, items) = micro_spec(Scale::Paper, 3);
        assert_eq!(spec.clients, 100);
        assert_eq!(items, 10_000);
        assert_eq!(spec.shards_per_dc, 2);
        assert_eq!(spec.duration, SimDuration::from_secs(180));
    }
}
