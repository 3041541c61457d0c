//! `bench_all`: the repository's benchmark. Four workloads, each
//! measured end to end (simulated and host metrics) and layer by layer
//! (counters, traced phase anatomy, kernels), a correctness gate, a
//! results file and a comparison tool. See `README.md` beside this file.
//!
//! Every measurement pass runs in a fresh child process of this binary
//! (`--child <workload>:<pass>`), so allocator state and peak RSS
//! belong to one run; the parent only orchestrates and reports.

mod compare;
mod host;
mod json;
mod kernels;
mod metrics;
mod passes;
mod workloads;

use std::collections::{BTreeMap, BTreeSet};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use host::{Span, Spans};
use kernels::Effort;
use metrics::{Bound, Def, Measured, Passes, Stage, DEFS};
use passes::Raw;
use workloads::{Kind, Size, ALL};

const USAGE: &str = "\
usage: bench_all [--seed N] [--seconds S] [--workload NAME [--trace 0|1]] [--smoke]
                 [--out PATH] [--trace-out PATH]
       bench_all --compare OLD.json NEW.json
workloads: micro_commutative micro_contended tpcw_durable geo_failover";

/// Fewest and most full-run reps a `--seconds` budget may buy. Three,
/// so that one rep slowed by a neighbour leaves two for the minimum.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 8;
/// Name under which the workload-independent kernel rows are filed when
/// all workloads run.
const KERNELS: &str = "kernels";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    Full,
    Quarter,
    Traced,
    Setup,
    Tpc,
    Kernels,
}

impl Pass {
    const ALL: [Pass; 6] = [
        Pass::Full,
        Pass::Quarter,
        Pass::Traced,
        Pass::Setup,
        Pass::Tpc,
        Pass::Kernels,
    ];

    fn name(self) -> &'static str {
        match self {
            Pass::Full => "full",
            Pass::Quarter => "quarter",
            Pass::Traced => "traced",
            Pass::Setup => "setup",
            Pass::Tpc => "tpc",
            Pass::Kernels => "kernels",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Opts {
    seed: u64,
    /// Host seconds of full runs to measure per workload: reps stop as
    /// soon as another would overshoot this by more than the reps so far
    /// fall short of it (`MIN_REPS` to `MAX_REPS` of them).
    seconds: f64,
    /// Divides every simulated length; above 1 is a smoke run (one rep,
    /// token kernel batches). `--smoke` sets 10.
    shrink: u64,
    workload: Option<Kind>,
    /// The driver's `--trace 0|1`: print one stage as the contract's
    /// result line.
    driver_stage: Option<Stage>,
    out: Option<String>,
    trace_out: Option<String>,
    child: Option<(String, Pass)>,
    compare: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        seed: 11,
        seconds: 20.0,
        shrink: 1,
        workload: None,
        driver_stage: None,
        out: None,
        trace_out: None,
        child: None,
        compare: None,
    };
    let mut args = args.iter();
    while let Some(key) = args.next() {
        let mut value = || args.next().cloned().ok_or(format!("{key} needs a value"));
        match key.as_str() {
            "--smoke" => opts.shrink = 10,
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed: bad number")?,
            "--seconds" => opts.seconds = value()?.parse().map_err(|_| "--seconds: bad number")?,
            "--workload" => {
                let v = value()?;
                opts.workload = Some(Kind::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--trace" => {
                opts.driver_stage = Some(match value()?.as_str() {
                    "0" => Stage::EndToEnd,
                    "1" => Stage::Layer,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--out" => opts.out = Some(value()?),
            "--trace-out" => opts.trace_out = Some(value()?),
            "--child" => {
                let v = value()?;
                let (w, p) = v.split_once(':').ok_or("--child takes <workload>:<pass>")?;
                let pass = Pass::ALL
                    .into_iter()
                    .find(|x| x.name() == p)
                    .ok_or(format!("unknown pass {p:?}"))?;
                opts.child = Some((w.to_string(), pass));
            }
            "--compare" => {
                let old = value()?;
                let new = value()?;
                opts.compare = Some((old, new));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.driver_stage.is_some() && opts.workload.is_none() {
        return Err("--trace needs --workload".to_string());
    }
    Ok(opts)
}

// ---------------------------------------------------------------------
// Passes: in this process (children, tests) or in a fresh child.
// ---------------------------------------------------------------------

/// Where passes execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Runner {
    /// A fresh child process per pass (the benchmark proper).
    Child,
    /// This process (unit tests, which have no `bench_all` to re-exec).
    #[cfg_attr(not(test), allow(dead_code))]
    InProcess,
}

/// What every pass of one invocation shares.
#[derive(Debug, Clone, Copy)]
struct Plan {
    seed: u64,
    shrink: u64,
    runner: Runner,
}

impl Plan {
    fn smoke(&self) -> bool {
        self.shrink > 1
    }
}

fn run_pass_here(
    pass: Pass,
    kind: Option<Kind>,
    plan: Plan,
    spans: &mut Spans,
) -> Result<Raw, String> {
    let size = |window_div| Size {
        shrink: plan.shrink,
        window_div,
    };
    let kind = || kind.ok_or(format!("pass {} needs a workload", pass.name()));
    Ok(match pass {
        Pass::Full => passes::workload_pass(kind()?, plan.seed, size(1), false, spans),
        Pass::Quarter => passes::workload_pass(kind()?, plan.seed, size(4), false, spans),
        Pass::Traced => passes::workload_pass(kind()?, plan.seed, size(4), true, spans),
        Pass::Setup => passes::setup_pass(kind()?, plan.seed, size(1), spans),
        Pass::Tpc => passes::tpc_pass(kind()?, plan.seed, size(4), spans),
        Pass::Kernels => {
            let effort = if plan.smoke() {
                Effort::SMOKE
            } else {
                Effort::FULL
            };
            kernels::kernels_pass(effort, spans)
        }
    })
}

/// Child side of the protocol: one `v <key> <value>` line per number,
/// one `s <start_us> <end_us> <parent|-> <name>` line per span.
fn child_main(workload: &str, pass: Pass, opts: &Opts) -> Result<(), String> {
    let kind = Kind::parse(workload);
    let plan = Plan {
        seed: opts.seed,
        shrink: opts.shrink,
        runner: Runner::InProcess,
    };
    let mut spans = Spans::default();
    let raw = run_pass_here(pass, kind, plan, &mut spans)?;
    let mut out = String::new();
    for (key, value) in &raw {
        out.push_str(&format!("v {key} {value:?}\n"));
    }
    for span in spans.into_vec() {
        let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "s {} {} {parent} {}\n",
            span.start_us, span.end_us, span.name
        ));
    }
    print!("{out}");
    Ok(())
}

fn parse_child_output(text: &str) -> Result<(Raw, Vec<Span>), String> {
    let mut raw = Raw::new();
    let mut spans = Vec::new();
    for line in text.lines() {
        let bad = || format!("malformed child line {line:?}");
        let mut fields = line.splitn(5, ' ');
        match fields.next() {
            Some("v") => {
                let key = fields.next().ok_or_else(bad)?;
                let value = fields.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                raw.insert(key.to_string(), value);
            }
            Some("s") => {
                let mut int = || fields.next().and_then(|v| v.parse::<u64>().ok());
                let (start_us, end_us) = (int().ok_or_else(bad)?, int().ok_or_else(bad)?);
                let parent = fields.next().ok_or_else(bad)?.parse().ok();
                spans.push(Span {
                    name: fields.next().ok_or_else(bad)?.to_string(),
                    start_us,
                    end_us,
                    parent,
                });
            }
            _ => return Err(bad()),
        }
    }
    Ok((raw, spans))
}

/// Runs one pass where the plan says, under a span of its own.
fn run_pass(pass: Pass, kind: Option<Kind>, plan: Plan, spans: &mut Spans) -> Result<Raw, String> {
    let target = kind.map_or(KERNELS, Kind::name);
    spans.scope(&format!("{target}:{}", pass.name()), |spans| {
        if plan.runner == Runner::InProcess {
            return run_pass_here(pass, kind, plan, spans);
        }
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["--child", &format!("{target}:{}", pass.name())])
            .args(["--seed", &plan.seed.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if plan.smoke() {
            cmd.arg("--smoke");
        }
        // `output` waits for the child to end.
        let output = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "child {target}:{} failed: {}",
                pass.name(),
                output.status
            ));
        }
        let (raw, child_spans) = parse_child_output(&String::from_utf8_lossy(&output.stdout))?;
        spans.adopt(child_spans);
        Ok(raw)
    })
}

/// Measures `stages` of one workload.
fn collect(
    kind: Kind,
    stages: &[Stage],
    seconds: f64,
    plan: Plan,
    spans: &mut Spans,
) -> Result<Passes, String> {
    let mut p = Passes::default();
    let mut pass = |pass| run_pass(pass, Some(kind), plan, spans);
    if stages.contains(&Stage::EndToEnd) {
        p.setup = Some(pass(Pass::Setup)?);
        let begun = Instant::now();
        loop {
            p.full.push(pass(Pass::Full)?);
            let spent = begun.elapsed().as_secs_f64();
            let next = spent / p.full.len() as f64;
            if plan.smoke()
                || p.full.len() >= MAX_REPS
                || (p.full.len() >= MIN_REPS && spent + next / 2.0 >= seconds)
            {
                break;
            }
        }
    }
    if stages.contains(&Stage::Layer) {
        if p.full.is_empty() {
            p.full.push(pass(Pass::Full)?);
        }
        p.quarter = Some(pass(Pass::Quarter)?);
        p.traced = Some(pass(Pass::Traced)?);
        p.tpc = Some(pass(Pass::Tpc)?);
    }
    Ok(p)
}

// ---------------------------------------------------------------------
// Rows, gate, reports.
// ---------------------------------------------------------------------

struct Row {
    workload: &'static str,
    def: &'static Def,
    m: Measured,
}

fn rows_of(workload: &'static str, passes: &Passes, select: impl Fn(&Def) -> bool) -> Vec<Row> {
    DEFS.iter()
        .filter(|d| select(d))
        .map(|def| Row {
            workload,
            def,
            m: def.measure(passes),
        })
        .collect()
}

struct Check {
    workload: &'static str,
    name: &'static str,
    ok: bool,
    detail: String,
}

/// The correctness gate of one workload. Divergence, pending options and
/// stuck clients on the three faulty or contended workloads are real
/// defects of this commit; they are reported as metrics
/// (`audit_violations`, `cluster.*`), not failed here, so the benchmark
/// can record the baseline that later changes must drive to zero.
fn gate(kind: Kind, passes: &Passes, rows: &[Row]) -> Vec<Check> {
    let full = passes.full.first();
    let value = |key: &str| full.and_then(|r| r.get(key)).copied();
    let mut checks = Vec::new();
    let mut check = |name, ok: bool, detail: String| {
        checks.push(Check {
            workload: kind.name(),
            name,
            ok,
            detail,
        })
    };

    // Bit patterns, so that NaN would compare equal to itself.
    let simulated = |r: &Raw| -> BTreeMap<String, u64> {
        r.iter()
            .filter(|(k, _)| !k.starts_with("host."))
            .map(|(k, v)| (k.clone(), v.to_bits()))
            .collect()
    };
    match passes.full.as_slice() {
        [first, rest @ ..] if !rest.is_empty() => {
            let first = simulated(first);
            let mut differing = BTreeSet::new();
            for other in rest.iter().map(simulated) {
                for key in first.keys().chain(other.keys()) {
                    if first.get(key) != other.get(key) {
                        differing.insert(key.clone());
                    }
                }
            }
            check(
                "deterministic",
                differing.is_empty(),
                format!("{} reps, differing: {differing:?}", passes.full.len()),
            );
        }
        _ => check("deterministic", true, "one rep: not compared".to_string()),
    }
    let min_stock = value("cluster.min_stock");
    check(
        "stock_never_negative",
        min_stock.is_some_and(|m| m >= 0.0),
        format!("cluster.min_stock = {min_stock:?}"),
    );
    let overlaps = value("mastership.lease_overlaps");
    check(
        "one_master_per_shard",
        overlaps == Some(0.0),
        format!("mastership.lease_overlaps = {overlaps:?}"),
    );
    match kind {
        Kind::MicroCommutative => {
            let violations = value("audit_violations");
            check(
                "audit_clean",
                violations == Some(0.0),
                format!("audit_violations = {violations:?}"),
            );
        }
        Kind::TpcwDurable => {
            let (nodes, replayed) = (
                value("recovery.node_recoveries"),
                value("recovery.replay_records"),
            );
            check(
                "crashed_node_recovered",
                nodes == Some(1.0) && replayed.is_some_and(|r| r > 0.0),
                format!("node recoveries = {nodes:?}, replayed WAL records = {replayed:?}"),
            );
        }
        Kind::GeoFailover => {
            let elections = value("mastership.elections");
            check(
                "elections_held",
                elections.is_some_and(|e| e > 0.0),
                format!("mastership.elections = {elections:?}"),
            );
        }
        Kind::MicroContended => {}
    }
    let broken: Vec<&str> = rows
        .iter()
        .filter(|r| match r.m.value {
            Some(v) => !v.is_finite(),
            // Only workload-specific metrics may be null.
            None => matches!(r.def.bound, Bound::Rel(_)) && r.def.stage == Stage::EndToEnd,
        })
        .map(|r| r.def.name)
        .collect();
    check(
        "metrics_present",
        broken.is_empty(),
        format!("missing or non-finite: {broken:?}"),
    );
    checks
}

fn bound_text(bound: Bound) -> String {
    match bound {
        Bound::Rel(b) => format!("{:.0}%", b * 100.0),
        Bound::Abs(b) => format!("+{b}"),
        Bound::None => "-".to_string(),
    }
}

fn print_rows(rows: &[Row]) {
    let mut workload = "";
    for row in rows {
        if row.workload != workload {
            workload = row.workload;
            match Kind::parse(workload) {
                Some(kind) => println!("== {workload} == {}", kind.why()),
                None => println!("== {workload} =="),
            }
            println!(
                "  {:<40} {:>16} {:<8} {:<7} {:>6}  reps",
                "metric", "value", "unit", "better", "bound"
            );
        }
        let reps = if row.m.n > 1 {
            format!(
                "n={} q1={} q3={}",
                row.m.n,
                json::num(row.m.q1),
                json::num(row.m.q3)
            )
        } else {
            String::new()
        };
        println!(
            "  {:<40} {:>16} {:<8} {:<7} {:>6}  {reps}",
            row.def.name,
            row.m
                .value
                .map_or("null".to_string(), |v| format!("{v:.4}")),
            row.def.unit,
            row.def.better.name(),
            bound_text(row.def.bound),
        );
    }
}

fn git_describe() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The results file: one flat row per (workload, metric), the schema
/// `--compare` reads back.
fn results_json(opts: &Opts, rows: &[Row], checks: &[Check]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = format!(
        "{{\n  \"schema\": \"bench_all/1\",\n  \"meta\": {{\"git\": {}, \"nproc\": {nproc}, \
         \"seed\": {}, \"seconds\": {}, \"smoke\": {}}},\n  \"rows\": [\n",
        json::quote(&git_describe()),
        opts.seed,
        opts.seconds,
        opts.shrink > 1
    );
    for (i, row) in rows.iter().enumerate() {
        let bound = match row.def.bound {
            Bound::Rel(b) => format!("\"bound_kind\": \"rel\", \"bound\": {b}, "),
            Bound::Abs(b) => format!("\"bound_kind\": \"abs\", \"bound\": {b}, "),
            Bound::None => String::new(),
        };
        out.push_str(&format!(
            "    {{\"workload\": {}, \"metric\": {}, \"unit\": {}, \"better\": {}, {bound}\
             \"value\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}{}\n",
            json::quote(row.workload),
            json::quote(row.def.name),
            json::quote(row.def.unit),
            json::quote(row.def.better.name()),
            json::num(row.m.value),
            json::num(row.m.q1),
            json::num(row.m.q3),
            row.m.n,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"gate\": [\n");
    for (i, c) in checks.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": {}, \"check\": {}, \"ok\": {}, \"detail\": {}}}{}\n",
            json::quote(c.workload),
            json::quote(c.name),
            c.ok,
            json::quote(&c.detail),
            if i + 1 < checks.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The driver's result line. A metric that does not apply to the
/// workload reads 0 there (the line has no `null`).
fn contract_line(passes: &Passes, rows: &[Row], correct: bool) -> String {
    let full = passes.full.first();
    let count = |key: &str| full.and_then(|r| r.get(key)).map_or(0, |v| *v as u64);
    let metrics: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(r.def.name),
                json::num(Some(r.m.value.unwrap_or(0.0))),
                json::quote(r.def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        count("workloads.attempted_txns").max(1),
        count("cluster.stuck_clients"),
        metrics.join(", ")
    )
}

/// Everything one invocation produced.
struct Outcome {
    rows: Vec<Row>,
    checks: Vec<Check>,
    /// Passes of the last workload measured (the driver's only one).
    last: Passes,
}

fn measure(opts: &Opts, runner: Runner, spans: &mut Spans) -> Result<Outcome, String> {
    let plan = Plan {
        seed: opts.seed,
        shrink: opts.shrink,
        runner,
    };
    let stages: &[Stage] = match opts.driver_stage {
        Some(Stage::EndToEnd) => &[Stage::EndToEnd],
        Some(Stage::Layer) => &[Stage::Layer],
        None => &[Stage::EndToEnd, Stage::Layer],
    };
    let kinds: Vec<Kind> = opts.workload.map_or(ALL.to_vec(), |k| vec![k]);
    let kernels_wanted = stages.contains(&Stage::Layer);
    let mut outcome = Outcome {
        rows: Vec::new(),
        checks: Vec::new(),
        last: Passes::default(),
    };
    for &kind in &kinds {
        eprintln!("# measuring {} ...", kind.name());
        let mut passes = collect(kind, stages, opts.seconds, plan, spans)?;
        // One workload: its kernel rows ride along (the driver's per-layer
        // run wants every metric). All workloads: kernels run once, below.
        let own_kernels = kernels_wanted && kinds.len() == 1;
        if own_kernels {
            passes.kernels = Some(run_pass(Pass::Kernels, None, plan, spans)?);
        }
        let rows = rows_of(kind.name(), &passes, |d| {
            stages.contains(&d.stage) && (own_kernels || !d.is_kernel())
        });
        outcome.checks.extend(gate(kind, &passes, &rows));
        outcome.rows.extend(rows);
        outcome.last = passes;
    }
    if kernels_wanted && kinds.len() > 1 {
        eprintln!("# measuring kernels ...");
        let passes = Passes {
            kernels: Some(run_pass(Pass::Kernels, None, plan, spans)?),
            ..Passes::default()
        };
        outcome
            .rows
            .extend(rows_of(KERNELS, &passes, Def::is_kernel));
    }
    Ok(outcome)
}

fn run(opts: &Opts) -> Result<bool, String> {
    if let Some((old, new)) = &opts.compare {
        return compare::compare(old, new);
    }
    if let Some((workload, pass)) = &opts.child {
        child_main(workload, *pass, opts)?;
        return Ok(true);
    }
    let mut spans = Spans::default();
    let outcome = spans.scope("bench_all", |spans| measure(opts, Runner::Child, spans))?;
    println!(
        "# bench_all seed={} git={} nproc={}",
        opts.seed,
        git_describe(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    print_rows(&outcome.rows);
    println!("== gate ==");
    for c in &outcome.checks {
        println!(
            "  {:<18} {:<24} {}  {}",
            c.workload,
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    let correct = outcome.checks.iter().all(|c| c.ok);
    let write = |path: &str, text: String| {
        std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))
    };
    if let Some(path) = &opts.out {
        write(path, results_json(opts, &outcome.rows, &outcome.checks))?;
    }
    if let Some(path) = &opts.trace_out {
        write(path, spans.to_chrome_json())?;
    }
    if opts.driver_stage.is_some() {
        println!("{}", contract_line(&outcome.last, &outcome.rows, correct));
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("bench_all: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_all: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Value;

    /// `BENCHMARK.json` at the repository root. This source builds under
    /// two manifests (its own and `mdcc-bench`'s), so walk up to find it.
    fn benchmark_json() -> Value {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                return json::parse(&text).expect("BENCHMARK.json parses");
            }
            assert!(dir.pop(), "no BENCHMARK.json above the manifest directory");
        }
    }

    fn names(doc: &Value, list: &str) -> Vec<String> {
        let names: Vec<String> = doc
            .get(list)
            .expect("list present")
            .as_arr()
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        for name in &names {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad name {name:?}"
            );
        }
        names
    }

    /// The smoke run: every window shrunk (harder than `--smoke`, this is
    /// a debug build), one rep, passes in this process. Every workload
    /// and metric of `BENCHMARK.json` must come out exactly once, and
    /// the table here must agree with the file.
    #[test]
    fn smoke_run_reports_every_benchmark_json_name_once() {
        let opts = Opts {
            shrink: 60,
            ..parse_args(&[]).expect("defaults")
        };
        let mut spans = Spans::default();
        let outcome = measure(&opts, Runner::InProcess, &mut spans).expect("smoke run");
        let text = results_json(&opts, &outcome.rows, &outcome.checks);
        let doc = json::parse(&text).expect("results file parses");
        let rows = doc.get("rows").expect("rows").as_arr();

        let bench = benchmark_json();
        let workloads = names(&bench, "workloads");
        assert_eq!(workloads, ALL.map(|k| k.name().to_string()));
        for (entry, kind) in bench.get("workloads").unwrap().as_arr().iter().zip(ALL) {
            assert_eq!(entry.get("why").and_then(Value::as_str), Some(kind.why()));
        }
        let end_to_end = names(&bench, "end_to_end");
        let per_layer = names(&bench, "per_layer");
        let of_stage = |stage| -> Vec<String> {
            DEFS.iter()
                .filter(|d| d.stage == stage)
                .map(|d| d.name.to_string())
                .collect()
        };
        assert_eq!(end_to_end, of_stage(Stage::EndToEnd));
        assert_eq!(per_layer, of_stage(Stage::Layer));
        for list in ["end_to_end", "per_layer"] {
            for entry in bench.get(list).unwrap().as_arr() {
                let field = |k: &str| entry.get(k).and_then(Value::as_str);
                let def = DEFS.iter().find(|d| Some(d.name) == field("name")).unwrap();
                assert_eq!(field("unit"), Some(def.unit), "{}", def.name);
                assert_eq!(field("better"), Some(def.better.name()), "{}", def.name);
                if let Bound::Rel(b) = def.bound {
                    if def.stage == Stage::EndToEnd {
                        assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(b));
                    }
                }
            }
        }

        let count = |workload: &str, metric: &str| {
            rows.iter()
                .filter(|r| {
                    r.get("workload").and_then(Value::as_str) == Some(workload)
                        && r.get("metric").and_then(Value::as_str) == Some(metric)
                })
                .count()
        };
        for workload in &workloads {
            for metric in end_to_end.iter().chain(&per_layer) {
                let is_kernel = DEFS.iter().any(|d| d.name == metric && d.is_kernel());
                let filed_under = if is_kernel { KERNELS } else { workload };
                assert_eq!(count(filed_under, metric), 1, "{filed_under}/{metric}");
            }
        }
        let kernels = DEFS.iter().filter(|d| d.is_kernel()).count();
        assert_eq!(
            rows.len(),
            workloads.len() * (DEFS.len() - kernels) + kernels
        );
        assert!(spans.to_chrome_json().contains("micro_commutative:full"));
    }

    #[test]
    fn arguments_parse() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let driver = parse_args(&args(
            "--workload tpcw_durable --seed 7 --seconds 15 --trace 1",
        ))
        .expect("driver form");
        assert_eq!(driver.workload, Some(Kind::TpcwDurable));
        assert_eq!(driver.seed, 7);
        assert_eq!(driver.seconds, 15.0);
        assert_eq!(driver.driver_stage, Some(Stage::Layer));
        let own = parse_args(&args("--workload geo_failover --smoke --out x.json")).unwrap();
        assert_eq!(
            (own.workload, own.shrink, own.out.as_deref()),
            (Some(Kind::GeoFailover), 10, Some("x.json"))
        );
        let cmp = parse_args(&args("--compare a.json b.json")).unwrap();
        assert_eq!(
            cmp.compare,
            Some(("a.json".to_string(), "b.json".to_string()))
        );
        assert!(
            parse_args(&args("--trace 1")).is_err(),
            "--trace needs a workload"
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--child micro_commutative:nope")).is_err());
        assert!(parse_args(&args("--seed=7")).is_err(), "one spelling only");
    }

    #[test]
    fn child_output_round_trips() {
        let text = "v commit_p50_ms 180.25\nv host.run_cpu_s 1.5e-3\ns 10 20 - run mdcc\ns 12 18 0 reduce\n";
        let (raw, spans) = parse_child_output(text).expect("parses");
        assert_eq!(raw["commit_p50_ms"], 180.25);
        assert_eq!(raw["host.run_cpu_s"], 0.0015);
        assert_eq!(spans[0].name, "run mdcc");
        assert_eq!((spans[1].parent, spans[1].end_us), (Some(0), 18));
        assert!(parse_child_output("x 1 2").is_err());
    }
}
