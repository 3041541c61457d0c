//! Figure 11 (extension): dynamic mastership under shifting locality.
//!
//! Every data center's clients spend each phase buying items of one
//! shard, and every phase boundary rotates each DC to the next shard —
//! the access pattern record-mastership exists for. Three Multi-Paxos
//! configurations run the same workload:
//!
//! * **floor** — phases never shift and leases migrate once, so every
//!   DC commits through a local master: the latency floor.
//! * **static** — mastership off; masters sit wherever the hash put
//!   them, and most commits pay a full extra WAN round trip.
//! * **dynamic** — mastership on; after each shift the lease follows
//!   the dominant-origin DC within a few heartbeat rounds and latency
//!   returns to the floor.
//!
//! The shifting runs are repeated on the paper's five-region topology
//! (`Ec2Five`), static and dynamic, printing renewals and leases
//! acquired: there a grant majority is up to 190 ms away, longer than a
//! heartbeat tick, and a lease that could not renew across ticks would
//! be acquired again and again. Each dynamic run also prints `awaited`:
//! the mastered options a node held for the lease it was making, most
//! of them at a handoff target whose grants were still out; and
//! `held_ms`, how long such an option was held on average.
//!
//! A master-crash drill follows: the initial lease holder of a
//! single-shard deployment is killed mid-tenure and the commit outage
//! (the recovery window) is measured. Two environment guards make the
//! driver CI-enforceable:
//!
//! * `MDCC_ELECTION_ROUNDS_CEILING` — fail if the dynamic run held
//!   more elections than this (a regressed election loop churns), if
//!   its median is above the static run's (dynamic mastership must
//!   never cost more than having none), or if the lease stopped
//!   carrying Phase1 across handoffs: at most a quarter of the dynamic
//!   run's in-tenure first touches may still run a Phase1 round. Past
//!   `--shifting-only` it also fails if, on the `Ec2Five` pair below,
//!   dynamic mastership commits less than static placement.
//! * `MDCC_UNAVAILABILITY_MS_CEILING` — fail if the drill's commit
//!   outage exceeds this many milliseconds.
//!
//! A cold-key drill closes the figure: all clients in one DC and a key
//! pool large enough that nearly every write is a first touch. The
//! granted lease ballot is the promise floor, so a cold record's first
//! Phase2a is immediately valid: one WAN round trip, where an explicit
//! Phase1a/Phase1b exchange first would make it two. The first-touch
//! latency CDF lands in `results/fig11_cold_first_touch.csv`, and a
//! third guard makes the optimization CI-enforceable:
//!
//! * `MDCC_COLD_FIRST_COMMIT_RTT_CEILING` — fail if the median
//!   first-touch commit exceeds this many WAN round trips (half an RTT
//!   of slack for the propose hop), or if the lease stops carrying
//!   Phase1: at most a quarter of the in-tenure first touches may still
//!   run a Phase1 round. A fully cold record pays no Phase1 at all; the
//!   residue is records first touched before the lease existed, or
//!   contested across the migration, where a replica that does not
//!   hold the cstruct the holder extends makes it fall back to a full
//!   Phase1 for safety.
//!
//! `--shifting-only` stops after the three shifting-locality runs and
//! their guards (CI runs them at default scale as well as quick: at 400
//! records per shard most touches are the first after a handoff, which
//! 100 per shard hides) and writes `results/fig11_shifting.csv`.

use std::sync::Arc;

use mdcc_bench::{
    all_in_us_west, cdf_rows, micro_catalog, net_summary, perf_summary, print_profile_by_kind,
    save_csv, Scale,
};
use mdcc_cluster::{run_mdcc, ClusterSpec, FaultPlan, MdccMode, NetKind, Report};
use mdcc_common::{
    DcId, Key, MastershipConfig, Placement as _, Row, SimDuration, SimTime, StaticPlacement,
};
use mdcc_trace::TraceConfig;
use mdcc_workloads::micro::{item_key, STOCK};
use mdcc_workloads::{ShiftingConfig, ShiftingLocalityWorkload, Workload};

const SHARDS: u32 = 5;

fn base_spec(scale: Scale, seed: u64) -> (ClusterSpec, u64) {
    let d = scale.div();
    let m = scale.mult();
    // Pools sized so keys stay warm (repeat touches keep classic
    // instances open — no per-commit Phase1) while commutative deltas
    // keep concurrent touches conflict-free.
    let items = 2_000 * m / d;
    let spec = ClusterSpec {
        seed,
        dcs: 5,
        shards_per_dc: SHARDS as usize,
        // Migration triggers on a rate-over-window (`MIGRATE_MIN_RATE`
        // per `MIGRATE_WINDOW`), so the client pool must stay large
        // enough at every scale for a dominant DC to clear the rate bar.
        clients: ((50 * m / d) as usize).max(50),
        net: NetKind::Uniform { rtt_ms: 100.0 },
        warmup: SimDuration::from_secs(5 / d.min(4)),
        duration: SimDuration::from_secs(40 / d),
        drain: SimDuration::from_secs(6),
        ..ClusterSpec::default()
    };
    (spec, items)
}

/// A shifting-locality factory: each client buys only from its DC's
/// phase shard. `phase_len` at least as long as the run is the
/// never-shifting floor configuration.
fn shifting_factory(
    items: u64,
    phase_len: SimDuration,
) -> impl FnMut(usize, DcId, &Arc<StaticPlacement>) -> Box<dyn Workload> {
    move |_client, dc, placement| {
        let p = Arc::clone(placement);
        let shards = p.shard_count();
        Box::new(ShiftingLocalityWorkload::new(ShiftingConfig {
            items,
            items_per_txn: 3,
            max_decrement: 3,
            // Commutative deltas: stale reads never abort, so the
            // boxplots measure routing, not conflict retries.
            commutative: true,
            my_dc: dc.0,
            shard_of: Arc::new(move |key: &Key| p.shard_id(key)),
            shards,
            phase_len,
        }))
    }
}

fn run(spec: &ClusterSpec, items: u64, phase_len: SimDuration) -> Report {
    let catalog = micro_catalog();
    // Effectively infinite stock: this figure isolates routing latency,
    // so demarcation exhaustion must never decide an outcome.
    let data: Vec<(Key, Row)> = (0..items)
        .map(|i| (item_key(i), Row::new().with(STOCK, 1_000_000)))
        .collect();
    let mut factory = shifting_factory(items, phase_len);
    let (report, _) = run_mdcc(spec, catalog, &data, &mut factory, MdccMode::Multi);
    report
}

/// How long an awaited option was held, on average (0 with none held).
fn mean_hold_ms(ms: &mdcc_mastership::MastershipStats) -> f64 {
    ms.awaited_ms as f64 / ms.awaited.max(1) as f64
}

fn env_ceiling(name: &str) -> Option<u64> {
    std::env::var(name).ok().map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{name} must be an integer, got {v:?}"))
    })
}

fn main() {
    let scale = Scale::from_args();
    let (spec, items) = base_spec(scale, 1011);
    let phase_len = SimDuration::from_secs(4);
    let forever = SimDuration::from_secs(100_000);
    let mut rows: Vec<String> = Vec::new();
    println!("# Figure 11 — dynamic mastership vs shifting locality");

    let mut medians = [0.0f64; 3];
    let configs = [
        ("floor", forever, true),
        ("static", phase_len, false),
        ("dynamic", phase_len, true),
    ];
    let mut dynamic = Default::default();
    for (i, (label, phases, mastership)) in configs.iter().enumerate() {
        let mut s = spec.clone();
        s.seed = spec.seed + i as u64;
        if *mastership {
            s.protocol.mastership = MastershipConfig::enabled();
        }
        // At quick scale the dynamic run also says where its bytes go:
        // delivered messages and bytes by (role, kind). Profiling does
        // not move a simulated number; its host cost stays out of the
        // sizes whose wall time is on record.
        let by_kind = *label == "dynamic" && scale == Scale::Quick;
        if by_kind {
            s.trace = TraceConfig {
                profile: true,
                ..TraceConfig::on()
            };
        }
        let report = run(&s, items, *phases);
        let b = report.write_boxplot().expect("commits exist");
        medians[i] = b.median;
        let ms = &report.mastership;
        println!(
            "{label}: med={:.0}ms q3={:.0}ms max={:.0}ms commits={} \
             elections={} leases={} awaited={} held_ms={:.1} handoffs={} served={} \
             forwarded={} p1_skipped={} p1_covered={}",
            b.median,
            b.q3,
            b.max,
            report.write_commits(),
            ms.elections,
            ms.leases_acquired,
            ms.awaited,
            mean_hold_ms(ms),
            ms.handoffs,
            ms.served,
            ms.forwarded,
            ms.phase1_skipped,
            ms.phase1_covered,
        );
        println!(
            "#   {}\n#   {}",
            net_summary(&report),
            perf_summary(&report)
        );
        if by_kind {
            print_profile_by_kind(&report, usize::MAX);
        }
        if *label == "dynamic" {
            dynamic = *ms;
        }
        rows.push(format!(
            "{label},{:.1},{:.1},{:.1},{:.1},{:.1},{},{},{}",
            b.min, b.q1, b.median, b.q3, b.max, ms.elections, ms.leases_acquired, ms.handoffs
        ));
    }
    println!(
        "# medians: dynamic/floor = {:.2}x, static/floor = {:.2}x",
        medians[2] / medians[0],
        medians[1] / medians[0]
    );
    if let Some(ceiling) = env_ceiling("MDCC_ELECTION_ROUNDS_CEILING") {
        let elections = dynamic.elections;
        assert!(
            elections <= ceiling,
            "dynamic run held {elections} elections, ceiling {ceiling}"
        );
        assert!(
            medians[2] <= medians[1],
            "dynamic mastership (median {:.0} ms) costs more than none ({:.0} ms)",
            medians[2],
            medians[1]
        );
        let (skipped, covered) = (dynamic.phase1_skipped, dynamic.phase1_covered);
        assert!(
            covered * 4 <= skipped + covered,
            "the lease carried Phase1 across handoffs for only {skipped} of {} in-tenure \
             first touches ({covered} ran a Phase1 round)",
            skipped + covered
        );
        println!(
            "# dynamic guards ok: {elections} elections <= {ceiling}, median {:.0} <= static \
             {:.0} ms, in-tenure Phase1 rounds {covered} of {} first touches",
            medians[2],
            medians[1],
            skipped + covered
        );
    }
    if std::env::args().any(|a| a == "--shifting-only") {
        save_csv(
            "fig11_shifting",
            "config,min_ms,q1_ms,median_ms,q3_ms,max_ms,elections,leases,handoffs",
            &rows,
        );
        return;
    }

    // ------------------------------------------------------------------
    // The paper's five-region topology: the shifting runs again without
    // dynamic mastership and with it. Its farthest grant majorities are
    // 120–190 ms away, more than a heartbeat tick, so this pair is where
    // a renewal outlasting the tick shows.
    // ------------------------------------------------------------------
    let mut ec2_commits = [0usize; 2];
    for (i, mastership) in [false, true].into_iter().enumerate() {
        let mut s = spec.clone();
        s.seed = spec.seed + 300 + i as u64;
        s.net = NetKind::Ec2Five;
        if mastership {
            s.protocol.mastership = MastershipConfig::enabled();
        }
        let report = run(&s, items, phase_len);
        let b = report.write_boxplot().expect("commits exist");
        let ms = &report.mastership;
        let label = ["ec2five_static", "ec2five_dynamic"][i];
        ec2_commits[i] = report.write_commits();
        println!(
            "{label}: med={:.0}ms q3={:.0}ms max={:.0}ms commits={} elections={} leases={} \
             renewals={} awaited={} held_ms={:.1} handoffs={} served={} forwarded={}",
            b.median,
            b.q3,
            b.max,
            ec2_commits[i],
            ms.elections,
            ms.leases_acquired,
            ms.renewals,
            ms.awaited,
            mean_hold_ms(ms),
            ms.handoffs,
            ms.served,
            ms.forwarded,
        );
        rows.push(format!(
            "{label},{:.1},{:.1},{:.1},{:.1},{:.1},{},{},{}",
            b.min, b.q1, b.median, b.q3, b.max, ms.elections, ms.leases_acquired, ms.handoffs
        ));
    }
    if env_ceiling("MDCC_ELECTION_ROUNDS_CEILING").is_some() {
        let [fixed, dynamic] = ec2_commits;
        assert!(
            dynamic >= fixed,
            "on Ec2Five dynamic mastership committed {dynamic}, static placement {fixed}"
        );
        println!("# Ec2Five guard ok: dynamic commits {dynamic} >= static {fixed}");
    }

    // ------------------------------------------------------------------
    // Master-crash drill: one shard, kill the holder, measure the
    // commit outage.
    // ------------------------------------------------------------------
    let d = scale.div();
    let crash_at = SimDuration::from_secs(8 / d.min(2));
    let mut drill = spec.clone();
    drill.seed = spec.seed + 100;
    drill.shards_per_dc = 1;
    drill.clients = (20 / d as usize).max(5);
    drill.durability = true;
    drill.duration = SimDuration::from_secs(20 / d);
    drill.drain = SimDuration::from_secs(10);
    drill.protocol.mastership = MastershipConfig::enabled();

    // Probe (fault-free, same prefix) for the initial holder's DC.
    let mut probe = drill.clone();
    probe.duration = SimDuration::from_secs(2);
    probe.drain = SimDuration::from_secs(2);
    let holder = run(&probe, items, forever)
        .lease_spans
        .first()
        .map(|l| DcId(l.node.0 as u8))
        .expect("probe run granted a lease");

    drill.faults =
        FaultPlan::new().crash_restart(holder, 0, crash_at, SimDuration::from_secs(6 / d.min(2)));
    let report = run(&drill, items, forever);
    let crash = SimTime::ZERO + crash_at;
    let mut commits: Vec<SimTime> = report
        .records
        .iter()
        .filter(|r| r.committed && r.is_write)
        .map(|r| r.finished)
        .collect();
    commits.sort();
    let before = commits.iter().rev().find(|t| **t <= crash);
    let after = commits.iter().find(|t| **t > crash);
    let window_ms = match (before, after) {
        (Some(b), Some(a)) => (*a - *b).as_micros() as f64 / 1_000.0,
        _ => f64::NAN,
    };
    println!(
        "drill: master (dc {}) crashed at {:.0}ms, recovery window {window_ms:.0}ms \
         (lease {:.0}ms + heartbeat {:.0}ms), elections={}",
        holder.0,
        crash_at.as_micros() as f64 / 1_000.0,
        mdcc_mastership::LEASE_DURATION.as_micros() as f64 / 1_000.0,
        mdcc_mastership::HEARTBEAT_INTERVAL.as_micros() as f64 / 1_000.0,
        report.mastership.elections,
    );
    rows.push(format!(
        "drill,,,{window_ms:.1},,,{},{},{}",
        report.mastership.elections, report.mastership.leases_acquired, report.mastership.handoffs
    ));
    if let Some(ceiling) = env_ceiling("MDCC_UNAVAILABILITY_MS_CEILING") {
        assert!(
            window_ms.is_finite() && window_ms <= ceiling as f64,
            "recovery window {window_ms:.0}ms exceeds ceiling {ceiling}ms"
        );
        println!("# unavailability guard ok: {window_ms:.0}ms <= {ceiling}ms");
    }

    // ------------------------------------------------------------------
    // Cold-key drill: lease-carried Phase1. All clients in one DC and a
    // key pool sized so ~90% of writes are first touches; dynamic
    // mastership migrates the lease to the clients' DC during warm-up,
    // so the measured window is local-master first-touch commits: one
    // WAN round trip, the lease ballot standing in for the Phase1
    // promise.
    // ------------------------------------------------------------------
    let m = scale.mult();
    let cold_items = 32_000 * m / d;
    let mut cold = spec.clone();
    cold.seed = spec.seed + 200;
    cold.shards_per_dc = 1;
    cold.clients = ((20 * m / d) as usize).max(10);
    cold.warmup = SimDuration::from_secs(3);
    cold.duration = SimDuration::from_secs(12 / d.min(2));
    cold.drain = SimDuration::from_secs(8);
    all_in_us_west(&mut cold);
    cold.protocol.mastership = MastershipConfig::enabled();

    let report = run(&cold, cold_items, forever);
    let b = report.write_boxplot().expect("cold drill committed");
    let ms = &report.mastership;
    println!(
        "cold_first_touch: med={:.0}ms q3={:.0}ms max={:.0}ms commits={} \
         phase1_skipped={} phase1_covered={} cold_rtts={}",
        b.median,
        b.q3,
        b.max,
        report.write_commits(),
        ms.phase1_skipped,
        ms.phase1_covered,
        ms.cold_first_commit_rtts,
    );
    println!("#   {}", net_summary(&report));
    rows.push(format!(
        "cold_first_touch,{:.1},{:.1},{:.1},{:.1},{:.1},{},{},{}",
        b.min, b.q1, b.median, b.q3, b.max, ms.elections, ms.leases_acquired, ms.handoffs
    ));
    assert!(
        ms.phase1_skipped > 0,
        "lease-carried Phase1 never engaged in the cold drill"
    );
    let cdf = cdf_rows("cold_first_touch", &report.write_cdf(200));
    save_csv("fig11_cold_first_touch", "config,latency_ms,fraction", &cdf);
    if let Some(ceiling) = env_ceiling("MDCC_COLD_FIRST_COMMIT_RTT_CEILING") {
        // The drill's WAN RTT is the Uniform net's 100 ms; half an RTT
        // of slack covers the client->master propose hop and jitter.
        let rtts = b.median / 100.0;
        assert!(
            rtts <= ceiling as f64 + 0.5,
            "cold first-touch median {rtts:.2} RTTs exceeds ceiling {ceiling}"
        );
        let (skipped, covered) = (ms.phase1_skipped, ms.phase1_covered);
        assert!(
            covered * 4 <= skipped + covered,
            "the lease carried Phase1 for only {skipped} of {} in-tenure first \
             touches ({covered} ran a Phase1 round)",
            skipped + covered
        );
        println!(
            "# cold first-commit guard ok: {rtts:.2} RTTs <= {ceiling} + 0.5, \
             in-tenure Phase1 rounds {covered} of {} first touches",
            skipped + covered
        );
    }

    save_csv(
        "fig11_mastership",
        "config,min_ms,q1_ms,median_ms,q3_ms,max_ms,elections,leases,handoffs",
        &rows,
    );
}
