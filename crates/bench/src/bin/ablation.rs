//! Ablation studies beyond the paper's figures: the design knobs
//! DESIGN.md calls out.
//!
//! * **γ sweep** — how long to stay classic after a collision. Small γ
//!   probes fast ballots aggressively (re-collision risk); large γ keeps
//!   paying the master round trip.
//! * **replication sweep** — MDCC latency as the deployment grows from 3
//!   to 7 data centers: the fast quorum `Q_F` grows with `N`, so commits
//!   wait on ever-farther replicas.
//! * **serializability tax** — read-committed-without-lost-updates
//!   versus full serializability (read guards, §4.4) on the same
//!   workload.

use mdcc_bench::{
    micro_catalog, micro_factory, micro_spec, perf_summary, save_csv, PerfLog, Scale,
};
use mdcc_cluster::{run_mdcc, ClusterSpec, MdccMode, NetKind};
use mdcc_common::{ProtocolConfig, SimDuration};
use mdcc_workloads::micro::{initial_items, MicroConfig};

fn main() {
    let scale = Scale::from_args();
    let mut rows: Vec<String> = Vec::new();
    let mut perf = PerfLog::new();

    // ------------------------------------------------------------------
    // γ sweep under a hot-spot workload (collisions happen).
    // ------------------------------------------------------------------
    println!("# Ablation 1 — γ (classic window after a collision)");
    let (spec, items) = micro_spec(scale, 3001);
    let catalog = micro_catalog();
    let data = initial_items(items, 7);
    for gamma in [5u64, 25, 100, 400] {
        let mut run_spec = spec.clone();
        run_spec.protocol.gamma = gamma;
        let cfg = MicroConfig {
            items,
            hotspot: Some((0.10, 0.9)),
            ..MicroConfig::default()
        };
        let mut factory = micro_factory(cfg, None);
        let (report, stats) = run_mdcc(
            &run_spec,
            catalog.clone(),
            &data,
            &mut factory,
            MdccMode::Full,
        );
        let median = report.median_write_ms().unwrap_or(f64::NAN);
        println!(
            "gamma={gamma}: median={median:.0}ms commits={} collisions={} redirects={}",
            report.write_commits(),
            stats.collisions,
            stats.classic_redirects
        );
        println!("#   {}", perf_summary(&report));
        perf.record(format!("gamma {gamma}"), &report);
        rows.push(format!(
            "gamma,{gamma},{median:.1},{},{},{}",
            report.write_commits(),
            stats.collisions,
            stats.classic_redirects
        ));
    }

    // ------------------------------------------------------------------
    // Replication-factor sweep on a uniform network.
    // ------------------------------------------------------------------
    println!("# Ablation 2 — replication factor (uniform 100 ms RTT)");
    for dcs in [3u8, 5, 7] {
        let protocol = ProtocolConfig::for_replication(dcs as usize);
        let d = scale.div();
        let m = scale.mult();
        let run_spec = ClusterSpec {
            seed: 3002,
            dcs,
            clients: (50 * m / d).max(4) as usize,
            shards_per_dc: 1,
            net: NetKind::Uniform { rtt_ms: 100.0 },
            warmup: SimDuration::from_secs(20 / d),
            duration: SimDuration::from_secs(60 / d),
            protocol: protocol.clone(),
            ..ClusterSpec::default()
        };
        let cfg = MicroConfig {
            items,
            ..MicroConfig::default()
        };
        let mut factory = micro_factory(cfg, None);
        let (report, _) = run_mdcc(
            &run_spec,
            catalog.clone(),
            &data,
            &mut factory,
            MdccMode::Full,
        );
        let median = report.median_write_ms().unwrap_or(f64::NAN);
        println!(
            "N={dcs} (Qc={}, Qf={}): median={median:.0}ms commits={}",
            protocol.classic_quorum,
            protocol.fast_quorum,
            report.write_commits()
        );
        println!("#   {}", perf_summary(&report));
        perf.record(format!("replication N{dcs}"), &report);
        rows.push(format!(
            "replication,{dcs},{median:.1},{},{}",
            protocol.classic_quorum, protocol.fast_quorum
        ));
    }

    // ------------------------------------------------------------------
    // Envelope coalescing: outbox on/off × Nagle flush window.
    // ------------------------------------------------------------------
    println!("# Ablation 4 — envelope coalescing (on/off x flush window)");
    let windows_us: [Option<u64>; 6] = [
        None,
        Some(0),
        Some(500),
        Some(2_000),
        Some(5_000),
        Some(10_000),
    ];
    for window in windows_us {
        let mut run_spec = spec.clone();
        match window {
            None => run_spec.protocol.coalesce = false,
            Some(us) => {
                run_spec.protocol.coalesce = true;
                run_spec.protocol.coalesce_window = SimDuration::from_micros(us);
            }
        }
        let cfg = MicroConfig {
            items,
            ..MicroConfig::default()
        };
        let mut factory = micro_factory(cfg, None);
        let (report, _) = run_mdcc(
            &run_spec,
            catalog.clone(),
            &data,
            &mut factory,
            MdccMode::Full,
        );
        let label = match window {
            None => "off".to_owned(),
            Some(us) => format!("{us}us"),
        };
        let median = report.median_write_ms().unwrap_or(f64::NAN);
        let commits = report.write_commits();
        let mpc = report.msgs_per_commit().unwrap_or(f64::NAN);
        let bpc = report.bytes_per_commit().unwrap_or(f64::NAN);
        let n = report.net;
        let proto_mpc = n.protocol.msgs as f64 / commits.max(1) as f64;
        let factor = n.payload_msgs as f64 / n.msgs_sent.max(1) as f64;
        println!(
            "coalesce={label}: median={median:.0}ms commits={commits} \
             msgs/commit={mpc:.1} (protocol {proto_mpc:.1}) bytes/commit={bpc:.0} \
             coalesce-factor={factor:.2}x"
        );
        println!("#   {}", perf_summary(&report));
        perf.record(format!("coalesce {label}"), &report);
        rows.push(format!(
            "coalesce,{label},{median:.1},{mpc:.1},{proto_mpc:.1},{bpc:.0}"
        ));
    }

    // ------------------------------------------------------------------
    // Serializability tax: the same buy workload with read guards.
    // ------------------------------------------------------------------
    println!("# Ablation 3 — read committed vs serializable (read guards)");
    for serializable in [false, true] {
        let cfg = MicroConfig {
            items,
            serializable_reads: serializable,
            ..MicroConfig::default()
        };
        let mut factory = micro_factory(cfg, None);
        let (report, stats) = run_mdcc(&spec, catalog.clone(), &data, &mut factory, MdccMode::Full);
        let label = if serializable {
            "serializable"
        } else {
            "read-committed"
        };
        let median = report.median_write_ms().unwrap_or(f64::NAN);
        println!(
            "{label}: median={median:.0}ms commits={} aborts={} fast={}",
            report.write_commits(),
            report.write_aborts(),
            stats.fast_commits
        );
        println!("#   {}", perf_summary(&report));
        perf.record(format!("isolation {label}"), &report);
        rows.push(format!(
            "isolation,{label},{median:.1},{},{}",
            report.write_commits(),
            report.write_aborts()
        ));
    }

    save_csv("ablations", "study,x,median_ms,a,b,c", &rows);
    perf.save("ablation", scale);
}
