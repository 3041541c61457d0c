//! Envelope-coalescing acceptance tests.
//!
//! The transport's destination-coalesced outbox (`ProtocolConfig::
//! coalesce`, on by default) must be a pure wire-layer optimization:
//! identical commit outcomes with strictly fewer wire frames — every
//! frame pays the per-message service floor, so frames/commit is the
//! queueing cost the paper's throughput ceilings hinge on. With the
//! knob off the transport reverts to one frame per message, the PR 3
//! baseline (`msgs_sent == payload_msgs`, byte-identical accounting).

use mdcc_cluster::{micro_catalog, run_mdcc, ClusterSpec, MdccMode, Report};
use mdcc_common::{DcId, Key, Row, SimDuration};
use mdcc_core::TxnStats;
use mdcc_workloads::micro::{item_key, MicroConfig, MicroWorkload, STOCK};
use mdcc_workloads::Workload;

const ITEMS: u64 = 120;

/// The fan-out-heavy deployment: one shard per DC concentrates every
/// record of a transaction on the same five acceptors, and commutative
/// contention keeps instances full of interested coordinators — the
/// load the envelope outbox exists for.
fn hot_spec(seed: u64, coalesce: bool) -> ClusterSpec {
    let s = SimDuration::from_secs;
    let mut spec = ClusterSpec {
        seed,
        clients: 10,
        shards_per_dc: 1,
        warmup: s(2),
        duration: s(12),
        drain: s(8),
        ..ClusterSpec::default()
    };
    spec.protocol.coalesce = coalesce;
    spec
}

fn run_hot(spec: &ClusterSpec) -> (Report, TxnStats) {
    // Effectively infinite stock: only the transport differs between
    // runs, so "identical commit outcomes" is exact — every attempted
    // transaction commits in both (constraint exhaustion never decides).
    let data: Vec<(Key, Row)> = (0..ITEMS)
        .map(|i| (item_key(i), Row::new().with(STOCK, 1_000_000)))
        .collect();
    let mut factory = |_c: usize, _dc: DcId, _p: &_| -> Box<dyn Workload> {
        Box::new(MicroWorkload::new(MicroConfig {
            items: ITEMS,
            ..MicroConfig::default()
        }))
    };
    run_mdcc(spec, micro_catalog(), &data, &mut factory, MdccMode::Full)
}

fn assert_healthy(label: &str, report: &Report) {
    let audit = report.audit.as_ref().expect("mdcc runs audit the cluster");
    assert_eq!(audit.pending_options, 0, "{label}: options left dangling");
    assert_eq!(audit.stuck_clients, 0, "{label}: clients left stuck");
    let min_stock = audit.min_of("stock").expect("stock audited");
    assert!(min_stock >= 0, "{label}: stock constraint violated");
}

/// The acceptance headline: coalescing on versus off produces identical
/// commit outcomes — every transaction either run attempts commits, the
/// cluster converges healthy — while the on-run ships strictly fewer
/// wire frames, outright and per commit, because its envelopes carry
/// several messages where the off-run sends each in a frame of its own.
///
/// The ratio is not the contract: it is what the messages a handler
/// sends to one node number, and that moves with the protocol. It was
/// 2.53x (23.3 vs 58.9 protocol frames per commit) while the coordinator
/// sent one `Propose` and one `Visibility` per record per replica, and is
/// 1.47x (23.3 vs 34.4) since it sends one per storage node — the on-run
/// did not move; the off-run lost the messages the envelopes used to
/// batch.
#[test]
fn coalescing_preserves_outcomes_with_strictly_fewer_frames() {
    let on_spec = hot_spec(77, true);
    assert!(
        ClusterSpec::default().protocol.coalesce,
        "coalescing is the default"
    );
    let off_spec = hot_spec(77, false);

    let (on, _) = run_hot(&on_spec);
    let (off, _) = run_hot(&off_spec);
    assert_healthy("coalesce-on", &on);
    assert_healthy("coalesce-off", &off);

    // Identical commit outcomes: the commutative load with ample stock
    // commits every attempt in both transports — no aborts either way.
    assert!(on.write_commits() > 100, "on-run barely committed");
    assert!(off.write_commits() > 100, "off-run barely committed");
    assert_eq!(on.write_aborts(), 0, "coalescing introduced aborts");
    assert_eq!(off.write_aborts(), 0, "baseline unexpectedly aborted");

    // Off is the PR 3 transport: one frame per message.
    assert_eq!(
        off.net.msgs_sent, off.net.payload_msgs,
        "with coalescing off every message is its own frame"
    );

    // On: envelopes batch, protocol traffic included, so the run ships
    // strictly fewer frames — outright, for comparable (closed-loop)
    // work, and per commit.
    assert!(
        on.net.payload_msgs > on.net.msgs_sent,
        "envelopes must actually batch messages"
    );
    assert!(
        on.net.protocol.payloads > on.net.protocol.msgs,
        "protocol envelopes must batch messages: {} messages in {} frames",
        on.net.protocol.payloads,
        on.net.protocol.msgs
    );
    assert!(
        on.net.msgs_sent < off.net.msgs_sent,
        "coalescing must ship strictly fewer frames: {} vs {}",
        on.net.msgs_sent,
        off.net.msgs_sent
    );
    let on_mpc = on.net.protocol.msgs as f64 / on.write_commits() as f64;
    let off_mpc = off.net.protocol.msgs as f64 / off.write_commits() as f64;
    eprintln!(
        "protocol frames/commit: on {on_mpc:.1} vs off {off_mpc:.1} ({:.2}x); \
         total {:.1} vs {:.1}; coalesce factor {:.2}x",
        off_mpc / on_mpc,
        on.msgs_per_commit().unwrap(),
        off.msgs_per_commit().unwrap(),
        on.net.payload_msgs as f64 / on.net.msgs_sent as f64,
    );
    assert!(
        on_mpc < off_mpc,
        "coalescing must ship strictly fewer protocol frames per commit: \
         {on_mpc:.1} vs {off_mpc:.1}"
    );
}

/// Coalescing (including the Nagle flush window) stays deterministic:
/// same seed, same spec ⇒ byte-identical audits.
#[test]
fn coalesced_runs_are_deterministic() {
    let (a, _) = run_hot(&hot_spec(33, true));
    let (b, _) = run_hot(&hot_spec(33, true));
    assert_eq!(a.write_commits(), b.write_commits());
    assert_eq!(a.net, b.net, "wire accounting is reproducible");
    assert_eq!(a.audit, b.audit, "audits are byte-identical across reruns");
}
