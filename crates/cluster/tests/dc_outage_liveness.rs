//! A data-center outage whose clients stay alive: every one of them is
//! answered after the heal.
//!
//! While the data center is dark its coordinators' proposals reach
//! nobody, and storage-side dangling recovery aborts the transactions
//! they had in flight. Some of those options never reached some record
//! at all, so the abort lands there as a bare outcome. After the heal
//! the coordinator retries such a proposal; the record must answer the
//! retry from the outcome it holds (`AlreadyResolved`) — re-leading it
//! appends nothing, no vote ever names the transaction again, and the
//! client waits forever.

use std::sync::Arc;

use mdcc_cluster::{
    micro_catalog, run_mdcc, ClusterSpec, FaultEvent, FaultPlan, MdccMode, NetKind,
};
use mdcc_common::{DcId, Key, MastershipConfig, Placement, Row, SimDuration, StaticPlacement};
use mdcc_workloads::micro::{item_key, STOCK};
use mdcc_workloads::{ShiftingConfig, ShiftingLocalityWorkload, Workload};

const ITEMS: u64 = 400;
const OUTAGE_DC: DcId = DcId(3);

/// Multi-Paxos with dynamic mastership under shifting locality — every
/// commit goes through a lease holder, so retried proposals take the
/// mastered path — with `OUTAGE_DC` dark for three seconds mid-run.
fn run_outage(seed: u64) -> mdcc_cluster::Report {
    let s = SimDuration::from_secs;
    let mut spec = ClusterSpec {
        seed,
        dcs: 5,
        shards_per_dc: 3,
        clients: 25,
        net: NetKind::Uniform { rtt_ms: 100.0 },
        warmup: s(2),
        duration: s(14),
        drain: s(20),
        faults: FaultPlan::new()
            .with(FaultEvent::FailDc {
                at: s(7),
                dc: OUTAGE_DC,
            })
            .with(FaultEvent::HealDc {
                at: s(10),
                dc: OUTAGE_DC,
            }),
        ..ClusterSpec::default()
    };
    spec.protocol.mastership = MastershipConfig::enabled();
    let data: Vec<(Key, Row)> = (0..ITEMS)
        .map(|i| (item_key(i), Row::new().with(STOCK, 1_000_000)))
        .collect();
    let mut factory = |_c: usize, dc: DcId, p: &Arc<StaticPlacement>| -> Box<dyn Workload> {
        let p = Arc::clone(p);
        Box::new(ShiftingLocalityWorkload::new(ShiftingConfig {
            items: ITEMS,
            items_per_txn: 3,
            max_decrement: 3,
            commutative: true,
            my_dc: dc.0,
            shards: p.shard_count(),
            shard_of: Arc::new(move |key: &Key| p.shard_id(key)),
            phase_len: s(4),
        }))
    };
    run_mdcc(&spec, micro_catalog(), &data, &mut factory, MdccMode::Multi).0
}

#[test]
fn clients_of_a_healed_data_center_are_all_answered() {
    for seed in [11, 12, 13, 14, 15] {
        let report = run_outage(seed);
        let audit = report.audit.as_ref().expect("mdcc runs audit the cluster");
        assert!(
            report.write_commits() > 200,
            "seed {seed}: only {} commits",
            report.write_commits()
        );
        assert_eq!(
            audit.stuck_clients, 0,
            "seed {seed}: clients never answered after the heal"
        );
        assert_eq!(
            audit.pending_options, 0,
            "seed {seed}: options left dangling"
        );
        assert!(
            audit.min_of("stock").expect("stock audited") >= 0,
            "seed {seed}: stock constraint violated"
        );
    }
}
