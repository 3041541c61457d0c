//! The observability layer must observe without disturbing.
//!
//! The tracing contract has three legs:
//!
//! 1. **Equivalence** — a run with tracing enabled produces exactly the
//!    same transaction outcomes, consistency audit and wire bytes as the
//!    same run with tracing off. Spans are harvested from the side of
//!    the event loop; they never schedule events, consume randomness or
//!    widen messages.
//! 2. **Determinism** — the exported Chrome-trace JSON is a pure
//!    function of the seed: two identical runs yield byte-identical
//!    files (host wall-clock numbers are deliberately excluded).
//! 3. **Coverage** — a full-protocol durable run decomposes commit
//!    latency into the paper's pipeline: classic rounds, Phase 2b
//!    voting, commit, visibility fan-out, WAL fsync and the transport
//!    underneath it all.

use std::sync::Arc;

use mdcc_cluster::{micro_catalog, run_mdcc, ClusterSpec, MdccMode, NetKind, NodeRole, Report};
use mdcc_common::{DcId, Key, NodeId, Row, SimDuration, StaticPlacement, TxnId};
use mdcc_core::Tick;
use mdcc_sim::TimerPayload;
use mdcc_trace::{Phase, TraceConfig};
use mdcc_workloads::micro::{item_key, MicroConfig, MicroWorkload, STOCK};
use mdcc_workloads::Workload;

fn data(items: u64) -> Vec<(Key, Row)> {
    (0..items)
        .map(|i| (item_key(i), Row::new().with(STOCK, 1_000_000)))
        .collect()
}

fn factory(items: u64) -> impl FnMut(usize, DcId, &Arc<StaticPlacement>) -> Box<dyn Workload> {
    move |_c, _dc, _p| {
        Box::new(MicroWorkload::new(MicroConfig {
            items,
            items_per_txn: 2,
            max_decrement: 2,
            ..MicroConfig::default()
        }))
    }
}

/// A short full-protocol run: small but busy enough that every span
/// source fires (reads, fast votes, visibility fan-out, transport
/// queueing).
fn small_spec(seed: u64) -> ClusterSpec {
    ClusterSpec {
        seed,
        dcs: 3,
        shards_per_dc: 1,
        clients: 4,
        net: NetKind::Uniform { rtt_ms: 40.0 },
        warmup: SimDuration::from_millis(500),
        duration: SimDuration::from_secs(4),
        ..ClusterSpec::default()
    }
}

const ITEMS: u64 = 16;

fn run(spec: &ClusterSpec) -> Report {
    let (report, _stats) = run_mdcc(
        spec,
        micro_catalog(),
        &data(ITEMS),
        &mut factory(ITEMS),
        MdccMode::Full,
    );
    report
}

/// Everything a run *decides*, as opposed to what it *observes*: the
/// transaction records, the byte-accurate wire accounting and the
/// end-of-run consistency audit. Tracing must never change any of it.
fn outcome_fingerprint(report: &Report) -> impl PartialEq + std::fmt::Debug {
    (
        report.records.clone(),
        report.net,
        report.audit.clone(),
        report.recoveries.len(),
    )
}

/// The equivalence property of the ISSUE: over several seeds, a traced
/// run is outcome- and wire-byte-identical to an untraced one.
#[test]
fn tracing_does_not_perturb_outcomes_or_wire() {
    for seed in [1, 7, 42, 4242] {
        let base = small_spec(seed);
        let off = run(&base);
        let on = run(&ClusterSpec {
            trace: TraceConfig::on(),
            ..base.clone()
        });
        assert_eq!(
            outcome_fingerprint(&off),
            outcome_fingerprint(&on),
            "seed {seed}: tracing changed the run"
        );
        assert!(off.trace.is_none(), "untraced run must not carry spans");
        let trace = on.trace.as_ref().expect("traced run carries spans");
        assert!(!trace.is_empty(), "seed {seed}: no spans harvested");
        assert!(off.records.iter().any(|r| r.committed), "degenerate run");
    }
}

/// Same seed ⇒ byte-identical exported trace. Host wall time exists in
/// `Report::perf` but never leaks into the JSON.
#[test]
fn same_seed_exports_byte_identical_trace_json() {
    let spec = ClusterSpec {
        trace: TraceConfig::on(),
        ..small_spec(42)
    };
    let a = run(&spec).trace.expect("traced").to_chrome_json();
    let b = run(&spec).trace.expect("traced").to_chrome_json();
    assert_eq!(a, b, "trace JSON must be a pure function of the seed");
    assert!(a.contains("\"traceEvents\""));
    assert!(a.contains("\"ph\":\"X\""), "no duration events exported");
    assert!(a.len() > 1_000, "suspiciously small trace");
}

/// Deterministic 1-in-N transaction sampling thins protocol spans
/// without touching outcomes.
#[test]
fn sampling_thins_spans_without_changing_outcomes() {
    let base = small_spec(7);
    let full = run(&ClusterSpec {
        trace: TraceConfig::on(),
        ..base.clone()
    });
    let sampled = run(&ClusterSpec {
        trace: TraceConfig {
            sample: 8,
            ..TraceConfig::on()
        },
        ..base.clone()
    });
    assert_eq!(
        outcome_fingerprint(&full),
        outcome_fingerprint(&sampled),
        "sampling is observational only"
    );
    let count = |r: &Report, phase: Phase| {
        r.trace
            .as_ref()
            .unwrap()
            .spans
            .iter()
            .filter(|s| s.phase == phase)
            .count()
    };
    assert!(
        count(&sampled, Phase::Commit) * 4 < count(&full, Phase::Commit),
        "1-in-8 sampling should keep far fewer commit spans ({} vs {})",
        count(&sampled, Phase::Commit),
        count(&full, Phase::Commit),
    );
}

/// A durable full-protocol run decomposes latency into at least five
/// phases, including the ones the paper's anatomy argument needs:
/// Phase 2b voting, commit, visibility and WAL fsync, with the
/// transport's service time underneath.
#[test]
fn anatomy_covers_the_commit_pipeline() {
    let spec = ClusterSpec {
        durability: true,
        wal_fsync: SimDuration::from_micros(500),
        trace: TraceConfig::on(),
        ..small_spec(11)
    };
    let report = run(&spec);
    let anatomy = report.anatomy().expect("traced run has an anatomy");
    assert!(
        anatomy.phase_count() >= 5,
        "expected ≥5 phases, got {}:\n{anatomy}",
        anatomy.phase_count()
    );
    for phase in [
        Phase::Phase2b,
        Phase::Commit,
        Phase::Visibility,
        Phase::WalFsync,
        Phase::NetService,
    ] {
        let stat = anatomy
            .phase(phase)
            .unwrap_or_else(|| panic!("phase {} missing from:\n{anatomy}", phase.name()));
        assert!(stat.count > 0);
        assert!(stat.p99_ms >= stat.p50_ms);
    }
    // The fsync knob really charges service time: spans are exactly the
    // configured latency.
    let fsync = anatomy.phase(Phase::WalFsync).unwrap();
    assert!((fsync.p50_ms - 0.5).abs() < 1e-9, "p50 {}", fsync.p50_ms);
}

/// Classic rounds show up as phase1/phase2a spans when the protocol is
/// forced through masters (the §5.3.1 Multi ablation).
#[test]
fn classic_rounds_produce_phase1_and_phase2a_spans() {
    let spec = ClusterSpec {
        trace: TraceConfig::on(),
        ..small_spec(5)
    };
    let (report, _stats) = run_mdcc(
        &spec,
        micro_catalog(),
        &data(ITEMS),
        &mut factory(ITEMS),
        MdccMode::Multi,
    );
    let anatomy = report.anatomy().expect("traced");
    let p2a = anatomy
        .phase(Phase::Phase2a)
        .unwrap_or_else(|| panic!("no phase2a spans in a Multi run:\n{anatomy}"));
    assert!(p2a.count > 0);
}

/// The event-loop profiler attributes work to nodes even without host
/// wall-clock profiling, and the host-cost counters are always on.
#[test]
fn profiler_and_run_perf_account_for_the_event_loop() {
    let report = run(&ClusterSpec {
        trace: TraceConfig {
            profile: true,
            ..TraceConfig::on()
        },
        ..small_spec(3)
    });
    assert!(report.perf.events > 0, "no events dispatched?");
    assert!(report.perf.wall.as_nanos() > 0);
    assert!(report.perf.events_per_sec() > 0.0);
    assert!(!report.profile.is_empty());
    let total_events: u64 = report.profile.iter().map(|p| p.events).sum();
    assert_eq!(total_events, report.perf.events, "profiler loses events");
    let hottest = &report.profile[0];
    assert!(hottest.sim_busy > SimDuration::ZERO);
    assert!(
        report
            .profile
            .windows(2)
            .all(|w| w[0].sim_busy >= w[1].sim_busy),
        "profile must be sorted hottest-first"
    );
    assert!(
        report.profile.iter().any(|p| p.wall.as_nanos() > 0),
        "wall profiling was requested"
    );
    // The split by (node role, message kind) accounts for the same
    // events and the same host time, and names the protocol's messages.
    let by_kind = &report.profile_by_kind;
    assert_eq!(
        by_kind.iter().map(|k| k.events).sum::<u64>(),
        report.perf.events,
        "the kind split loses events"
    );
    assert_eq!(
        by_kind.iter().map(|k| k.wall).sum::<std::time::Duration>(),
        report.profile.iter().map(|p| p.wall).sum(),
        "the kind split loses host time"
    );
    assert!(by_kind.windows(2).all(|w| w[0].wall >= w[1].wall));
    for (role, kind) in [
        (NodeRole::Storage, "Propose"),
        (NodeRole::Storage, "Visibility"),
        (NodeRole::Client, "Verdict"),
        (NodeRole::Client, "start"),
    ] {
        assert!(
            by_kind.iter().any(|k| k.role == role && k.kind == kind),
            "no {role:?} row for {kind}: {by_kind:?}"
        );
    }
    // It also says what each kind delivered: every payload message the
    // network handed to a handler, timers and `on_start` none, and the
    // bytes are the messages' own frames (an envelope's shared header is
    // not apportioned, so the sum sits just above what was sent bare).
    let delivered: u64 = by_kind.iter().map(|k| k.msgs).sum();
    assert!(delivered > 0 && delivered <= report.net.payload_msgs);
    assert!(by_kind.iter().all(|k| k.msgs <= k.events));
    assert!(by_kind.iter().all(|k| (k.msgs == 0) == (k.bytes == 0)));
    let ticks = every_tick_kind();
    let tick = |k: &&mdcc_cluster::KindProfile| ticks.contains(&k.kind);
    assert!(
        by_kind
            .iter()
            .filter(tick)
            .any(|k| k.role == NodeRole::Storage),
        "no storage tick row (every storage node sweeps for dangling transactions): {by_kind:?}"
    );
    let local = |k: &&mdcc_cluster::KindProfile| k.kind == "start" || tick(k);
    assert!(by_kind.iter().filter(local).all(|k| k.msgs == 0));
    let bytes: u64 = by_kind.iter().map(|k| k.bytes).sum();
    assert!(bytes > report.net.bytes_sent / 2 && bytes < report.net.bytes_sent * 2);
    // Without host profiling the split is not collected at all.
    assert!(run(&small_spec(3)).profile_by_kind.is_empty());
    assert!(run(&ClusterSpec {
        trace: TraceConfig::on(),
        ..small_spec(3)
    })
    .profile_by_kind
    .is_empty());
}

/// The kind of every `Tick`. The match fails to compile when `Tick`
/// gains a variant, so the list cannot silently fall behind.
fn every_tick_kind() -> Vec<&'static str> {
    let txn = TxnId::new(NodeId(0), 0);
    let ticks = [
        Tick::LearnTimeout { txn },
        Tick::ReadRetry { token: 0 },
        Tick::DanglingSweep,
        Tick::RecoveryRetry { txn },
        Tick::MissedPull {
            key: item_key(0),
            txn,
            attempt: 0,
        },
        Tick::CheckpointTick,
        Tick::SyncSweep,
        Tick::ClientTick,
        Tick::MsTick,
    ];
    for tick in &ticks {
        match tick {
            Tick::LearnTimeout { .. }
            | Tick::ReadRetry { .. }
            | Tick::DanglingSweep
            | Tick::RecoveryRetry { .. }
            | Tick::MissedPull { .. }
            | Tick::CheckpointTick
            | Tick::SyncSweep
            | Tick::ClientTick
            | Tick::MsTick => {}
        }
    }
    ticks.iter().map(TimerPayload::kind).collect()
}
