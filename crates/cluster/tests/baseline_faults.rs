//! Fault schedules against the baseline protocols.
//!
//! The paper contrasts MDCC's storage-side recovery with 2PC's classic
//! weakness: "2PC requires all involved storage nodes to respond and is
//! not resilient to single node failures" — and above all, a dead
//! coordinator leaves every prepared participant locked with nobody
//! entitled to decide (the *blocking window*). These tests script the
//! same [`FaultPlan`] vocabulary MDCC runs use against the baselines:
//!
//! * a 2PC coordinator dies mid-prepare → its locks are orphaned and
//!   every later conflicting transaction aborts forever;
//! * the same coordinator death under MDCC → storage nodes resolve the
//!   dangling transaction themselves and commits keep flowing;
//! * a quorum-writes deployment shrugs off a storage-node crash (k of
//!   n acks suffice), demonstrating crash/restart schedules now drive
//!   baseline storage nodes too.

use std::sync::Arc;

use mdcc_cluster::{
    micro_catalog, run_mdcc, run_megastore, run_qw, run_tpc, ClusterSpec, FaultEvent, FaultPlan,
    MdccMode, NetKind,
};
use mdcc_common::Row;
use mdcc_common::{DcId, ProtocolConfig, SimDuration, SimTime};
use mdcc_workloads::micro::{initial_items, item_key, MicroConfig, MicroWorkload, STOCK};
use mdcc_workloads::Workload;

/// One hot item, single-record transactions: any orphaned lock on it
/// blocks every writer in the system.
const HOT_ITEMS: u64 = 1;

/// The hot item with effectively infinite stock, so only locking — not
/// constraint exhaustion — decides outcomes.
fn hot_data() -> Vec<(mdcc_common::Key, Row)> {
    vec![(item_key(0), Row::new().with(STOCK, 50_000_000))]
}

fn hot_factory() -> impl FnMut(usize, DcId, &Arc<mdcc_common::StaticPlacement>) -> Box<dyn Workload>
{
    |_c, _dc, _p| {
        Box::new(MicroWorkload::new(MicroConfig {
            items: HOT_ITEMS,
            items_per_txn: 1,
            max_decrement: 1,
            ..MicroConfig::default()
        }))
    }
}

fn coordinator_death_spec(seed: u64, crash_at_ms: u64) -> ClusterSpec {
    ClusterSpec {
        seed,
        clients: 2,
        shards_per_dc: 1,
        net: NetKind::Uniform { rtt_ms: 100.0 },
        // Jitter desynchronizes the contending closed loops; in perfect
        // lockstep the no-wait locks livelock and nobody commits.
        jitter: 0.08,
        warmup: SimDuration::from_secs(1),
        duration: SimDuration::from_secs(19),
        faults: FaultPlan::new().with(FaultEvent::CrashClient {
            at: SimDuration::from_millis(crash_at_ms),
            client: 0,
        }),
        // The benign/blocking pair below is a razor on *where in the
        // prepare cycle* the crash lands; the Nagle flush window would
        // shift every cycle and blunt it. End-of-event flushing keeps
        // this single-send-per-destination workload on legacy timing.
        protocol: ProtocolConfig {
            coalesce_window: SimDuration::ZERO,
            ..ProtocolConfig::default()
        },
        ..ClusterSpec::default()
    }
}

#[test]
fn twopc_coordinator_death_blocks_every_later_writer() {
    // Two coordinators contend on one hot item. Crash coordinator 0 at
    // two instants 100 ms apart:
    //
    // * **benign** (5.05 s): it dies holding no prepare lock — the
    //   surviving coordinator, freed of contention, commits every cycle;
    // * **mid-prepare** (5.15 s): it dies between PrepareVote-yes and
    //   Decide — the lock it took on the hot item is orphaned on every
    //   replica that voted yes, every later prepare votes no (no-wait
    //   locking), and the survivor starves until the end of time.
    //
    // The 100 ms difference between "everything recovers" and "nothing
    // ever commits again" *is* the paper's blocking-window argument.
    let data = hot_data();

    let benign = {
        let mut factory = hot_factory();
        run_tpc(
            &coordinator_death_spec(11, 5_050),
            micro_catalog(),
            &data,
            &mut factory,
        )
    };
    let after_benign = benign.commits_between(SimTime::from_millis(5_500), SimTime::from_secs(20));
    assert!(
        after_benign > 50,
        "a cleanly-dead coordinator frees the item: survivor commits ({after_benign})"
    );

    let blocking = {
        let mut factory = hot_factory();
        run_tpc(
            &coordinator_death_spec(11, 5_150),
            micro_catalog(),
            &data,
            &mut factory,
        )
    };
    let after_blocking =
        blocking.commits_between(SimTime::from_millis(5_600), SimTime::from_secs(20));
    assert_eq!(
        after_blocking, 0,
        "the orphaned prepare lock must block every later writer ({after_blocking} commits leaked)"
    );
}

#[test]
fn mdcc_survives_the_same_coordinator_death() {
    // Identical schedule, identical hot-spot workload, MDCC: the
    // surviving storage nodes detect the dangling transaction after the
    // dangling timeout and resolve it themselves (§3.2.3); the system
    // keeps committing.
    let spec = coordinator_death_spec(11, 5_150);
    let data = hot_data();
    let mut factory = hot_factory();
    let (report, _) = run_mdcc(&spec, micro_catalog(), &data, &mut factory, MdccMode::Full);

    // Past the 5 s dangling timeout + resolution, commits must flow —
    // under the exact schedule that wedges 2PC forever.
    let after = report.commits_between(SimTime::from_secs(12), SimTime::from_secs(20));
    assert!(
        after > 0,
        "MDCC's dangling-transaction recovery must unblock the hot record"
    );
}

#[test]
fn quorum_writes_commit_through_a_storage_crash_restart() {
    // Crash the DC4 storage node for 5 s mid-run. QW-3 needs only 3 of
    // 5 acks, so writes keep committing throughout; the restart (for
    // baselines: a revive — they have no durability subsystem) brings
    // the node back.
    let spec = ClusterSpec {
        seed: 5,
        clients: 4, // DCs 0–3: reads stay clear of the crashed node.
        shards_per_dc: 1,
        net: NetKind::Uniform { rtt_ms: 100.0 },
        jitter: 0.0,
        warmup: SimDuration::from_secs(1),
        duration: SimDuration::from_secs(12),
        faults: FaultPlan::new().crash_restart(
            DcId(4),
            0,
            SimDuration::from_secs(4),
            SimDuration::from_secs(5),
        ),
        ..ClusterSpec::default()
    };
    let data = hot_data();
    let mut factory = hot_factory();
    let report = run_qw(&spec, micro_catalog(), &data, &mut factory, 3);

    let during = report.commits_between(SimTime::from_secs(4), SimTime::from_secs(9));
    assert!(
        during > 0,
        "QW-3 must keep committing while one replica is down"
    );
    let after = report.commits_between(SimTime::from_secs(9), SimTime::from_secs(13));
    assert!(after > 0, "commits continue after the restart");
    assert!(
        report.net.bytes_sent > 0,
        "baselines ride the sized transport"
    );
}

/// `ClusterSpec::drain` means the same for every protocol: clients stop
/// issuing when the window closes, so a drain as long as the window adds
/// only the frames of the transactions then in flight — not a second
/// window's worth of traffic. Two clients over a 40 s window keep that
/// in-flight share (one transaction per client) under the 2 % bound.
#[test]
fn baselines_stop_issuing_when_the_drain_begins() {
    // Frames sent by `[QW-4, 2PC, Megastore*]` with a drain of `drain_s`.
    let frames = |drain_s: u64| -> [u64; 3] {
        let spec = ClusterSpec {
            seed: 23,
            clients: 2,
            shards_per_dc: 1,
            warmup: SimDuration::from_secs(1),
            duration: SimDuration::from_secs(40),
            drain: SimDuration::from_secs(drain_s),
            ..ClusterSpec::default()
        };
        let data = initial_items(120, 7);
        let mut factory = |_c: usize, _dc: DcId, _p: &_| -> Box<dyn Workload> {
            Box::new(MicroWorkload::new(MicroConfig {
                items: 120,
                ..MicroConfig::default()
            }))
        };
        [
            run_qw(&spec, micro_catalog(), &data, &mut factory, 4),
            run_tpc(&spec, micro_catalog(), &data, &mut factory),
            run_megastore(&spec, micro_catalog(), &data, &mut factory).0,
        ]
        .map(|report| report.net.msgs_sent)
    };
    let (without, with) = (frames(0), frames(40));
    for (i, name) in ["qw-4", "2pc", "megastore*"].into_iter().enumerate() {
        let (without, with) = (without[i], with[i]);
        assert!(
            without > 500,
            "{name}: the window carried traffic ({without} frames)"
        );
        assert!(
            with * 100 <= without * 102,
            "{name}: {with} frames with a drain against {without} without — clients kept issuing"
        );
    }
}
