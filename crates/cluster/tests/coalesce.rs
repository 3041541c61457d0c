//! Envelope-coalescing acceptance tests.
//!
//! The transport's destination-coalesced outbox must be a pure
//! wire-layer optimization: healthy commit outcomes with strictly fewer
//! wire frames than messages — every frame pays the per-message service
//! floor, so frames/commit is the queueing cost the paper's throughput
//! ceilings hinge on.

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
fn hot_spec(seed: u64) -> ClusterSpec {
    let s = SimDuration::from_secs;
    ClusterSpec {
        seed,
        clients: 10,
        shards_per_dc: 1,
        warmup: s(2),
        duration: s(12),
        drain: s(8),
        ..ClusterSpec::default()
    }
}

fn run_hot(spec: &ClusterSpec) -> (Report, TxnStats) {
    // Effectively infinite stock: every attempted transaction commits
    // (constraint exhaustion never decides), so an abort can only be
    // the transport's doing.
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

/// Most protocol frames one commit may cost on `hot_spec(77)`, and the
/// fewest messages a frame must carry on average there: the values this
/// run measured once a node's verdicts on one transaction's records
/// travelled as one `Verdict` (21.371 and 1.0009). When the outbox
/// became the only transport they were 23.3426 and 1.6374 — most of the
/// batching was then three verdicts to one coordinator that are now one
/// message — and one frame per message cost 34.4 protocol frames per
/// commit, at a factor of 1.
const PROTOCOL_FRAMES_PER_COMMIT_CEILING: f64 = 21.372;
const COALESCE_FACTOR_FLOOR: f64 = 1.0008;

/// The acceptance headline: the coalescing transport commits every
/// transaction it attempts and leaves the cluster healthy, while its
/// envelopes carry several messages each — strictly fewer frames than
/// messages, protocol traffic included — and its frames per commit and
/// coalescing factor hold their measured values.
///
/// The values are not the contract: they count the messages a handler
/// sends to one node, and that moves with the protocol. A change that
/// splinters envelopes breaks the bounds; a protocol change that sends
/// fewer messages may move both values, and then restates them.
#[test]
fn coalescing_preserves_outcomes_with_strictly_fewer_frames() {
    let (report, _) = run_hot(&hot_spec(77));
    assert_healthy("coalescing", &report);
    assert!(report.write_commits() > 100, "the run barely committed");
    assert_eq!(report.write_aborts(), 0, "coalescing introduced aborts");

    // Envelopes batch, protocol traffic included, so the run ships
    // strictly fewer frames than messages.
    assert!(
        report.net.payload_msgs > report.net.msgs_sent,
        "envelopes must actually batch messages"
    );
    assert!(
        report.net.protocol.payloads > report.net.protocol.msgs,
        "protocol envelopes must batch messages: {} messages in {} frames",
        report.net.protocol.payloads,
        report.net.protocol.msgs
    );
    let mpc = report.net.protocol.msgs as f64 / report.write_commits() as f64;
    let factor = report.net.payload_msgs as f64 / report.net.msgs_sent as f64;
    eprintln!(
        "protocol frames/commit {mpc:.3}; total {:.3}; coalescing factor {factor:.4}x",
        report.msgs_per_commit().unwrap(),
    );
    assert!(
        mpc <= PROTOCOL_FRAMES_PER_COMMIT_CEILING,
        "protocol frames per commit {mpc:.3} over {PROTOCOL_FRAMES_PER_COMMIT_CEILING}"
    );
    assert!(
        factor >= COALESCE_FACTOR_FLOOR,
        "coalescing factor {factor:.4}x under {COALESCE_FACTOR_FLOOR}x"
    );
}

/// Coalescing (including the Nagle flush window) stays deterministic:
/// same seed, same spec ⇒ byte-identical audits.
#[test]
fn coalesced_runs_are_deterministic() {
    let (a, _) = run_hot(&hot_spec(33));
    let (b, _) = run_hot(&hot_spec(33));
    assert_eq!(a.write_commits(), b.write_commits());
    assert_eq!(a.net, b.net, "wire accounting is reproducible");
    assert_eq!(a.audit, b.audit, "audits are byte-identical across reruns");
}
