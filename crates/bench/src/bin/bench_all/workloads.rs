//! The four benchmark workloads: deployment, data, client behaviour and
//! fault schedule of each, built from the product crates' public types.
//!
//! All four are closed loops: every client (TPC-W emulated browser or
//! micro-benchmark buyer) issues its next transaction only after the
//! previous one was answered, with no think time. Every fault time is a
//! fixed fraction of the measurement window, so the quarter-length pass
//! keeps the same schedule shape.

use std::sync::Arc;

use mdcc_cluster::{ClusterSpec, FaultEvent, FaultPlan, MdccMode, NetKind};
use mdcc_common::{
    DcId, Key, MastershipConfig, Placement as _, Row, SimDuration, StaticPlacement, StorageKind,
};
use mdcc_storage::{AttrConstraint, Catalog, TableSchema};
use mdcc_workloads::micro::{self, MicroConfig, MicroWorkload};
use mdcc_workloads::tpcw::{self, TpcwConfig, TpcwWorkload};
use mdcc_workloads::{ShiftingConfig, ShiftingLocalityWorkload, Workload};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    MicroCommutative,
    MicroContended,
    TpcwDurable,
    GeoFailover,
}

/// Every workload, in report order.
pub const ALL: [Kind; 4] = [
    Kind::MicroCommutative,
    Kind::MicroContended,
    Kind::TpcwDurable,
    Kind::GeoFailover,
];

/// The data center `geo_failover` takes down.
const OUTAGE_DC: DcId = DcId(1);

/// How long a pass runs relative to the workload's full size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Divides warm-up, window and drain (1 = benchmark size; `--smoke`
    /// uses 10).
    pub shrink: u64,
    /// Divides the measurement window only (1 = full, 4 = quarter pass).
    pub window_div: u64,
}

/// Stock high enough that no constraint ever decides an outcome.
const AMPLE_STOCK: i64 = 1_000_000;

/// Boxed per-client workload factory, the shape `run_mdcc`/`run_tpc` take.
pub type Factory = Box<dyn FnMut(usize, DcId, &Arc<StaticPlacement>) -> Box<dyn Workload>>;

/// Everything one run needs besides the spec.
pub struct Inputs {
    pub catalog: Arc<Catalog>,
    pub data: Vec<(Key, Row)>,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::MicroCommutative => "micro_commutative",
            Kind::MicroContended => "micro_contended",
            Kind::TpcwDurable => "tpcw_durable",
            Kind::GeoFailover => "geo_failover",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// Why the workload is in the benchmark (one line; `BENCHMARK.json`
    /// carries the same text). Windows are shorter than the issue's probe
    /// sizes because the driver's time cap allows about 35 s per run.
    pub fn why(self) -> &'static str {
        match self {
            Kind::MicroCommutative => {
                "headline path: fast ballots, commutative deltas, delta votes, coalescing; storage \
                 engine, WAL, leader, mastership idle; 60 s window (time cap) still shows \
                 run-length growth"
            }
            Kind::MicroContended => {
                "physical updates on a hot spot: collisions, classic recovery through the leader, \
                 NotFast bounces, read-repair; commutative and delta code idle; 60 s window"
            }
            Kind::TpcwDurable => {
                "TPC-W reads, writes and inserts on the log-structured store with WAL, 1 ms fsync, \
                 group commit, checkpoints, a storage-node crash, replay and merkle sync; 20 s window"
            }
            Kind::GeoFailover => {
                "shifting locality under Multi-Paxos with dynamic mastership (leases, elections, \
                 migration, lease-carried Phase1) and a data-center outage; 40 s window"
            }
        }
    }

    /// `(warm-up, measurement window, drain)` of the full run, in
    /// simulated seconds. Sized so one full run costs 4–8 s of host CPU
    /// on a 2-core shared box (see README, "Sizing").
    fn windows_s(self) -> (u64, u64, u64) {
        match self {
            Kind::MicroCommutative => (10, 60, 10),
            Kind::MicroContended => (10, 60, 10),
            Kind::TpcwDurable => (10, 20, 10),
            Kind::GeoFailover => (10, 40, 20),
        }
    }

    /// `(warm-up, window, drain)` of one pass: every length divided by
    /// `size.shrink` (smoke runs), the window further by
    /// `size.window_div` (the quarter passes).
    pub fn windows(self, size: Size) -> (SimDuration, SimDuration, SimDuration) {
        let (warmup, window, drain) = self.windows_s();
        let ms = |secs: u64, div: u64| SimDuration::from_millis(secs * 1_000 / div.max(1));
        (
            ms(warmup, size.shrink),
            ms(window, size.shrink * size.window_div),
            ms(drain, size.shrink),
        )
    }

    pub fn mode(self) -> MdccMode {
        match self {
            Kind::MicroCommutative | Kind::TpcwDurable => MdccMode::Full,
            Kind::MicroContended => MdccMode::Fast,
            Kind::GeoFailover => MdccMode::Multi,
        }
    }

    /// Item-table size (micro items / TPC-W scale factor).
    fn items(self) -> u64 {
        match self {
            Kind::MicroCommutative | Kind::MicroContended => 5_000,
            Kind::TpcwDurable => 3_000,
            Kind::GeoFailover => 2_000,
        }
    }

    /// The deployment for `seed` at `size`. Fault times are fixed
    /// fractions of the measurement window.
    pub fn spec(self, seed: u64, size: Size) -> ClusterSpec {
        let (warmup, window, drain) = self.windows(size);
        // The instant `num/den` of the way through the window.
        let at = |num: u64, den: u64| warmup + window * num / den;
        let mut spec = ClusterSpec {
            seed,
            dcs: 5,
            warmup,
            duration: window,
            drain,
            // One engine thread: the per-DC engine needs five cores and
            // would measure the scheduler on a smaller machine.
            parallel: false,
            ..ClusterSpec::default()
        };
        match self {
            Kind::MicroCommutative | Kind::MicroContended => {
                spec.clients = 50;
                spec.shards_per_dc = 2;
                spec.net = NetKind::Ec2Five;
            }
            Kind::TpcwDurable => {
                spec.clients = 30;
                spec.shards_per_dc = 2;
                spec.net = NetKind::Ec2Five;
                spec.durability = true;
                spec.wal_fsync = SimDuration::from_millis(1);
                spec.protocol.group_commit = true;
                spec.protocol.storage = StorageKind::LogStructured;
                // Storage node (DC 2, shard 0) is down for the window's
                // [23/60, 33/60).
                spec.faults =
                    FaultPlan::new().crash_restart(DcId(2), 0, at(23, 60), at(33, 60) - at(23, 60));
            }
            Kind::GeoFailover => {
                spec.clients = 50;
                spec.shards_per_dc = 5;
                spec.net = NetKind::Uniform { rtt_ms: 100.0 };
                spec.protocol.mastership = MastershipConfig::enabled();
                let (fail, heal) = self.outage(size);
                // The data center's own clients stay alive through the
                // outage: whichever of them is never answered after the
                // heal counts as a stuck client.
                spec.faults = FaultPlan::new()
                    .with(FaultEvent::FailDc {
                        at: fail,
                        dc: OUTAGE_DC,
                    })
                    .with(FaultEvent::HealDc {
                        at: heal,
                        dc: OUTAGE_DC,
                    });
            }
        }
        spec
    }

    /// `(FailDc, HealDc)` offsets from simulation start: the outage
    /// covers the window's `[1/2, 7/12)` (`geo_failover` only).
    pub fn outage(self, size: Size) -> (SimDuration, SimDuration) {
        let (warmup, window, _) = self.windows(size);
        (warmup + window * 6 / 12, warmup + window * 7 / 12)
    }

    /// Catalog and initial rows, generated from `seed`.
    pub fn inputs(self, seed: u64) -> Inputs {
        let items = self.items();
        let ample = |items: u64| -> Vec<(Key, Row)> {
            (0..items)
                .map(|i| {
                    (
                        micro::item_key(i),
                        Row::new().with(micro::STOCK, AMPLE_STOCK),
                    )
                })
                .collect()
        };
        match self {
            Kind::MicroCommutative => Inputs {
                catalog: micro_catalog(),
                data: micro::initial_items(items, seed),
            },
            Kind::MicroContended | Kind::GeoFailover => Inputs {
                catalog: micro_catalog(),
                data: ample(items),
            },
            Kind::TpcwDurable => Inputs {
                catalog: tpcw_catalog(),
                data: tpcw::initial_data(&TpcwConfig::with_scale(items, 0), seed),
            },
        }
    }

    /// The per-client workload factory.
    pub fn factory(self) -> Factory {
        let items = self.items();
        match self {
            Kind::MicroCommutative => Box::new(move |_, _, _| {
                Box::new(MicroWorkload::new(MicroConfig {
                    items,
                    commutative: true,
                    ..MicroConfig::default()
                }))
            }),
            Kind::MicroContended => Box::new(move |_, _, _| {
                Box::new(MicroWorkload::new(MicroConfig {
                    items,
                    commutative: false,
                    // Figure 6's hottest setting that still commits most
                    // transactions: 90 % of accesses on 20 % of items.
                    hotspot: Some((0.2, 0.9)),
                    ..MicroConfig::default()
                }))
            }),
            Kind::TpcwDurable => Box::new(move |client, _, _| {
                Box::new(TpcwWorkload::new(TpcwConfig::with_scale(
                    items,
                    client as u64,
                )))
            }),
            Kind::GeoFailover => Box::new(move |_, dc, placement| {
                let p = Arc::clone(placement);
                let shards = p.shard_count();
                Box::new(ShiftingLocalityWorkload::new(ShiftingConfig {
                    items,
                    items_per_txn: 3,
                    max_decrement: 3,
                    commutative: true,
                    my_dc: dc.0,
                    shard_of: Arc::new(move |key: &Key| p.shard_id(key)),
                    shards,
                    phase_len: SimDuration::from_secs(4),
                }))
            }),
        }
    }
}

fn micro_catalog() -> Arc<Catalog> {
    Arc::new(
        Catalog::new().with(
            TableSchema::new(micro::MICRO_ITEMS, "item")
                .with_constraint(AttrConstraint::at_least(micro::STOCK, 0)),
        ),
    )
}

fn tpcw_catalog() -> Arc<Catalog> {
    use tpcw::tables as t;
    Arc::new(
        Catalog::new()
            .with(
                TableSchema::new(t::ITEM, "item")
                    .with_constraint(AttrConstraint::at_least(tpcw::STOCK, 0)),
            )
            .with(TableSchema::new(t::CUSTOMER, "customer"))
            .with(TableSchema::new(t::ORDERS, "orders"))
            .with(TableSchema::new(t::ORDER_LINE, "order_line"))
            .with(TableSchema::new(t::CC_XACTS, "cc_xacts"))
            .with(TableSchema::new(t::CART, "shopping_cart"))
            .with(TableSchema::new(t::CART_LINE, "shopping_cart_line"))
            .with(TableSchema::new(t::AUTHOR, "author")),
    )
}
