//! Cluster builders and experiment runners, one per protocol.

use std::sync::Arc;

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use mdcc_baselines::megastore::{MegaClient, MegaMaster, MegaMsg, MegaReplica, MegaStats};
use mdcc_baselines::qw::{QwStorage, QwWriter};
use mdcc_baselines::twopc::{TpcCoordinator, TpcStorage};
use mdcc_baselines::BaselineStore;
use mdcc_common::placement::MasterPolicy;
use mdcc_common::{
    DcId, Key, NodeId, Placement, ProtocolConfig, Row, SimDuration, SimTime, StaticPlacement,
};
use mdcc_core::node::NodeStats;
use mdcc_core::{Msg, StorageNodeProcess, Tick, TmConfig, TransactionManager, TxnStats};
use mdcc_recovery::{recover_store, RecoveryInfo};
use mdcc_sim::{presets, NetMessage, NetworkModel, Process, TimerPayload, World, WorldConfig};
use mdcc_storage::{Catalog, RecordStore};
use mdcc_trace::{Phase, Span, TraceConfig, TraceHandle};
use mdcc_workloads::Workload;

use crate::clients::{Baseline, ClosedLoop, Committer};
use crate::faults::{FaultEvent, FaultPlan};
use crate::metrics::{
    ClusterAudit, KindProfile, NetReport, NodeRecovery, NodeRole, Report, RunPerf,
};

/// Which network model to deploy on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetKind {
    /// The five EC2 regions of the paper (§5.1).
    Ec2Five,
    /// Uniform inter-DC RTT (tests, controlled experiments).
    Uniform {
        /// Round-trip time between any two data centers, ms.
        rtt_ms: f64,
    },
}

/// Where the emulated browsers run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientPlacement {
    /// Evenly spread over all data centers (the paper's default).
    Even,
    /// All in one data center (Megastore* and the Figure 8 experiment).
    AllIn(DcId),
}

/// MDCC protocol configuration variants of §5.3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MdccMode {
    /// The full protocol: fast ballots plus commutativity (the workload
    /// decides whether updates are commutative).
    Full,
    /// Fast ballots without commutative support — pair with a workload
    /// that emits physical updates.
    Fast,
    /// All instances Multi-Paxos: every proposal goes through the
    /// record's master and fast ballots never reopen.
    Multi,
}

/// Everything that describes one experiment deployment.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// RNG seed (world + workloads).
    pub seed: u64,
    /// Number of data centers.
    pub dcs: u8,
    /// Storage nodes per data center (shards).
    pub shards_per_dc: usize,
    /// Number of closed-loop clients.
    pub clients: usize,
    /// Client placement.
    pub client_placement: ClientPlacement,
    /// Default-master assignment.
    pub master_policy: MasterPolicy,
    /// Network model.
    pub net: NetKind,
    /// Lognormal jitter sigma on one-way delays.
    pub jitter: f64,
    /// Probability that any one message is silently lost in transit.
    pub drop_prob: f64,
    /// Override every inter-DC link's bandwidth (bytes/second); `None`
    /// keeps the network model's default (10 Gbit/s). The knob behind
    /// the fig9 WAN-constrained sweep, where vote fan-out actually
    /// congests the directed-link FIFO queues.
    pub inter_dc_bandwidth: Option<f64>,
    /// Fixed floor of the per-message CPU cost at every node.
    pub service_time: SimDuration,
    /// Per-byte handling cost (ns/byte) added on top of the floor — the
    /// serialization component of service time, so a megabyte sync chunk
    /// costs its receiver more than a one-byte vote.
    pub service_ns_per_byte: u64,
    /// Warm-up period excluded from the report.
    pub warmup: SimDuration,
    /// Measurement window length.
    pub duration: SimDuration,
    /// Post-window drain: clients of every protocol stop issuing at
    /// `warmup + duration` and the world runs this much longer so in-flight and dangling
    /// transactions resolve and replicas converge (recovery audits need
    /// a quiesced cluster). Zero disables draining.
    pub drain: SimDuration,
    /// Scripted fault schedule: storage and client crashes, restarts,
    /// data-center outages.
    pub faults: FaultPlan,
    /// Write-ahead-log every storage-node input to the simulated disk
    /// and checkpoint periodically. Required for `faults` that restart
    /// nodes; off by default because figure runs don't pay for it.
    pub durability: bool,
    /// Simulated fsync latency charged to a node whenever one of its
    /// handlers appended WAL bytes. Only meaningful with `durability`;
    /// `ZERO` — the default — leaves the event schedule byte-identical
    /// to runs predating the observability layer.
    pub wal_fsync: SimDuration,
    /// Deterministic tracing: causal spans, per-link gauges, event-loop
    /// profiling. Off by default; a disabled tracer records nothing and
    /// changes no outcome or wire byte.
    pub trace: TraceConfig,
    /// Ignored; deleted once `bench_all` stops naming it (ROADMAP 0(a)).
    pub parallel: bool,
    /// Protocol parameters (quorums, timeouts, γ).
    pub protocol: ProtocolConfig,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        Self {
            seed: 42,
            dcs: 5,
            shards_per_dc: 2,
            clients: 20,
            client_placement: ClientPlacement::Even,
            master_policy: MasterPolicy::HashedPerRecord,
            net: NetKind::Ec2Five,
            jitter: 0.08,
            drop_prob: 0.0,
            inter_dc_bandwidth: None,
            service_time: SimDuration::from_micros(40),
            service_ns_per_byte: 40,
            warmup: SimDuration::from_secs(10),
            duration: SimDuration::from_secs(60),
            drain: SimDuration::ZERO,
            faults: FaultPlan::new(),
            durability: false,
            wal_fsync: SimDuration::ZERO,
            trace: TraceConfig::off(),
            parallel: false,
            protocol: ProtocolConfig::default(),
        }
    }
}

/// Builds workloads for each client: `(client index, client dc,
/// placement)`.
pub type WorkloadFactory<'a> =
    dyn FnMut(usize, DcId, &Arc<StaticPlacement>) -> Box<dyn Workload> + 'a;

fn network(spec: &ClusterSpec) -> NetworkModel {
    let model = match spec.net {
        NetKind::Ec2Five => {
            assert_eq!(spec.dcs, 5, "the EC2 preset is a five-region network");
            presets::ec2_five_dc()
        }
        NetKind::Uniform { rtt_ms } => NetworkModel::uniform(spec.dcs as usize, rtt_ms, 1.0),
    };
    let model = match spec.inter_dc_bandwidth {
        Some(bytes_per_sec) => model.with_inter_dc_bandwidth(bytes_per_sec),
        None => model,
    };
    model
        .with_jitter(spec.jitter)
        .with_drop_prob(spec.drop_prob)
}

fn client_dc(spec: &ClusterSpec, i: usize) -> DcId {
    match spec.client_placement {
        ClientPlacement::Even => DcId((i % spec.dcs as usize) as u8),
        ClientPlacement::AllIn(dc) => dc,
    }
}

/// Precomputed storage-node id matrix: ids are dense spawn-order ids, so
/// spawning dc-major yields `id = dc * shards + shard`.
fn storage_matrix(spec: &ClusterSpec) -> Vec<Vec<NodeId>> {
    (0..spec.dcs as u32)
        .map(|dc| {
            (0..spec.shards_per_dc as u32)
                .map(|s| NodeId(dc * spec.shards_per_dc as u32 + s))
                .collect()
        })
        .collect()
}

/// Resolves a fault-plan `(dc, shard)` to its node id, with a clear
/// error for out-of-range plan entries.
fn storage_target(matrix: &[Vec<NodeId>], dc: DcId, shard: usize) -> NodeId {
    let node = matrix.get(dc.0 as usize).and_then(|nodes| nodes.get(shard));
    *node.unwrap_or_else(|| {
        panic!(
            "fault plan names shard {shard} of dc{} but the spec has {} DCs of {} shards",
            dc.0,
            matrix.len(),
            matrix[0].len()
        )
    })
}

/// One deployment being run: the world plus what the steps shared by
/// every protocol's runner (spawn clients, drive faults, report) need.
/// `T` is what the world's processes arm timers with.
struct Run<'a, M, T = M> {
    spec: &'a ClusterSpec,
    wall_start: Instant,
    world: World<M, T>,
    /// Storage node ids by `[dc][shard]`.
    matrix: Vec<Vec<NodeId>>,
    placement: Arc<StaticPlacement>,
    clients: Vec<NodeId>,
    recoveries: Vec<NodeRecovery>,
}

impl<'a, M: NetMessage + 'static, T: TimerPayload + 'static> Run<'a, M, T> {
    /// An empty world for `spec` whose storage tier will be `matrix`.
    fn new(spec: &'a ClusterSpec, matrix: Vec<Vec<NodeId>>, masters: MasterPolicy) -> Self {
        let config = WorldConfig {
            seed: spec.seed,
            service_time: spec.service_time,
            service_ns_per_byte: spec.service_ns_per_byte,
            coalesce_window: spec.protocol.coalesce_window,
            fsync_latency: spec.wal_fsync,
            group_commit_window: spec.protocol.group_commit_window,
            group_commit_bytes: spec.protocol.group_commit_bytes,
            ..WorldConfig::default()
        };
        Self {
            spec,
            wall_start: Instant::now(),
            world: World::new(network(spec), config),
            placement: StaticPlacement::new(matrix.clone(), masters),
            matrix,
            clients: Vec::new(),
            recoveries: Vec::new(),
        }
    }

    /// Spawns the sharded storage tier DC-major, so that ids match
    /// `matrix`. `make` wraps each node's process around the rows of its
    /// shard, in `data` order — a store is loaded before it is spawned.
    fn spawn_storage(
        &mut self,
        data: &[(Key, Row)],
        mut make: impl FnMut(&[&(Key, Row)]) -> Box<dyn Process<M, T>>,
    ) {
        let mut rows = vec![Vec::new(); self.spec.shards_per_dc];
        for row in data {
            rows[self.placement.shard_of(&row.0)].push(row);
        }
        for (dc, nodes) in self.matrix.iter().enumerate() {
            for (shard, &expected) in nodes.iter().enumerate() {
                let dc = DcId(dc as u8);
                let id = self.world.spawn(dc, make(&rows[shard]));
                assert_eq!(id, expected);
            }
        }
    }

    /// Spawns the spec's closed-loop clients, each committing through
    /// what `committer` builds for its data center.
    fn spawn_clients<C: Committer<Msg = M, Tick = T>>(
        &mut self,
        workload_factory: &mut WorkloadFactory<'_>,
        mut committer: impl FnMut(DcId) -> C,
    ) {
        let spec = self.spec;
        let window_end = SimTime::ZERO + spec.warmup + spec.duration;
        let stop_issuing_at = (spec.drain > SimDuration::ZERO).then_some(window_end);
        for i in 0..spec.clients {
            let dc = client_dc(spec, i);
            let workload = workload_factory(i, dc, &self.placement);
            let client = ClosedLoop::new(committer(dc), workload, stop_issuing_at);
            self.clients.push(self.world.spawn(dc, Box::new(client)));
        }
    }

    /// Runs the world through the scripted fault plan, in time order,
    /// and on to the end of the experiment span (warm-up + window, plus
    /// optional drain). Every protocol understands the whole
    /// [`FaultPlan`] vocabulary; what differs is `restart`, which brings
    /// the crashed storage node `(node, dc)` back and says what that
    /// cost, if it recovered anything.
    fn drive(
        &mut self,
        mut restart: impl FnMut(&mut World<M, T>, NodeId, DcId) -> Option<RecoveryInfo>,
    ) {
        let spec = self.spec;
        let end = SimTime::ZERO + spec.warmup + spec.duration + spec.drain;
        let mut crashed_at: HashMap<NodeId, SimTime> = HashMap::new();
        for event in spec.faults.sorted() {
            self.world.run_until((SimTime::ZERO + event.at()).min(end));
            match event {
                FaultEvent::FailDc { dc, .. } => self.world.fail_dc(dc),
                FaultEvent::HealDc { dc, .. } => self.world.heal_dc(dc),
                FaultEvent::CrashStorage { dc, shard, .. } => {
                    let node = storage_target(&self.matrix, dc, shard);
                    self.world.crash_node(node);
                    crashed_at.insert(node, self.world.now());
                }
                FaultEvent::RestartStorage { dc, shard, .. } => {
                    let node = storage_target(&self.matrix, dc, shard);
                    if let Some(info) = restart(&mut self.world, node, dc) {
                        self.recoveries.push(NodeRecovery {
                            node,
                            dc,
                            shard,
                            crashed_at: crashed_at.get(&node).copied().unwrap_or(SimTime::ZERO),
                            restarted_at: self.world.now(),
                            info,
                        });
                    }
                }
                FaultEvent::CrashClient { client, .. } => {
                    assert!(
                        client < self.clients.len(),
                        "fault plan crashes client {client} but the spec has {} clients",
                        self.clients.len()
                    );
                    self.world.crash_node(self.clients[client]);
                }
            }
        }
        self.world.run_until(end);
    }

    /// Harvests the clients' records into the report every protocol
    /// fills the same way: window-filtered records, restarts, wire and
    /// host totals.
    fn report<C: Committer<Msg = M, Tick = T>>(&mut self) -> Report {
        let mut records = Vec::new();
        for id in &self.clients {
            let client = self.world.get::<ClosedLoop<C>>(*id).expect("client");
            records.extend(client.records.iter().copied());
        }
        let mut report = Report::new(records, self.spec.warmup, self.spec.duration);
        report.recoveries = std::mem::take(&mut self.recoveries);
        report.net = NetReport::from_world(self.world.stats());
        report.perf = RunPerf {
            wall: self.wall_start.elapsed(),
            events: self.world.stats().events_handled,
        };
        report
    }
}

/// A baseline store holding `rows`.
fn baseline_store(catalog: &Arc<Catalog>, rows: &[&(Key, Row)]) -> BaselineStore {
    let mut store = BaselineStore::new(Arc::clone(catalog));
    for (key, row) in rows {
        store.load(key.clone(), row.clone());
    }
    store
}

/// How a baseline restarts a storage node. Baseline stores have no
/// durability subsystem, so `RestartStorage` *revives* the paused
/// process with its pre-crash memory intact (a generous reading — a real
/// restart would lose everything). A crashed client, by contrast, stays
/// dead: the 2PC coordinator whose prepare locks are then held forever
/// is the blocking window `tests/baseline_faults.rs` reproduces.
fn revive<M: NetMessage + 'static>(
    world: &mut World<M>,
    node: NodeId,
    _dc: DcId,
) -> Option<RecoveryInfo> {
    world.revive_node(node);
    None
}

// ---------------------------------------------------------------------
// MDCC.
// ---------------------------------------------------------------------

/// Rebuilds a crashed node's process from its disk: the store from
/// checkpoint + WAL replay, and the lease floors persisted in the same
/// WAL tail, so the restarted node keeps *fencing* deposed ballots (its
/// own serving rights stay quarantined inside the mastership layer).
fn recover_node(
    cfg: &ProtocolConfig,
    catalog: &Arc<Catalog>,
    placement: &Arc<dyn Placement>,
    allow_fast: bool,
    disk: &mdcc_sim::Disk,
) -> (StorageNodeProcess, RecoveryInfo) {
    let torn = "disk state parses: the simulated disk is never torn";
    let (store, info, leases) = recover_store(cfg.clone(), Arc::clone(catalog), disk).expect(torn);
    let node = StorageNodeProcess::from_recovery(
        cfg.clone(),
        store,
        leases,
        placement.clone(),
        allow_fast,
    );
    (node, info)
}

/// Replay is instantaneous in sim time; the span still marks *when* the
/// node recovered and what run the replay belonged to.
fn replay_span(node: NodeId, dc: DcId, at: SimTime) -> Span {
    Span {
        node,
        dc,
        phase: Phase::WalReplay,
        start: at,
        end: at,
        txn: None,
        key: None,
        class: None,
    }
}

fn storage_node(world: &World<Msg, Tick>, n: NodeId) -> &StorageNodeProcess {
    world.get::<StorageNodeProcess>(n).expect("node")
}

/// The end-of-run consistency audit across every storage node.
fn audit_cluster(
    world: &World<Msg, Tick>,
    matrix: &[Vec<NodeId>],
    totals: &NodeStats,
    stuck_clients: usize,
) -> ClusterAudit {
    let mut audit = ClusterAudit {
        dangling_resolved: totals.dangling_resolved,
        sync_adoptions: totals.sync_adoptions,
        sync_items_received: totals.sync_items_received,
        checkpoints: totals.checkpoints,
        stuck_clients,
        ..ClusterAudit::default()
    };
    let mut minima: BTreeMap<String, i64> = BTreeMap::new();
    for &n in matrix.iter().flatten() {
        let node = storage_node(world, n);
        audit.parked_left += node.parked_len();
        audit.pending_options += node.store().pending_len();
        let committed = node.store().committed_state();
        audit
            .committed_digests
            .push(mdcc_recovery::committed_state_digest(&committed));
        for (_, _, value) in committed {
            let Some(row) = value else { continue };
            for (attr, v) in row.iter() {
                if let Some(i) = v.as_int() {
                    minima
                        .entry(attr.to_owned())
                        .and_modify(|m| *m = (*m).min(i))
                        .or_insert(i);
                }
            }
        }
        let disk = world.disk(n).stats();
        audit.wal_bytes_written += disk.wal_bytes_written;
        audit.wal_appends += disk.wal_appends;
    }
    audit.attr_minima = minima.into_iter().collect();
    audit
}

/// The `MDCC_DIVERGE_DEBUG` tap: audit counters, and per-key differences
/// between replica 0 of each shard and the others — the microscope for
/// recovery-audit failures.
fn diverge_debug_tap(world: &World<Msg, Tick>, matrix: &[Vec<NodeId>], audit: &ClusterAudit) {
    if std::env::var_os("MDCC_DIVERGE_DEBUG").is_none() {
        return;
    }
    eprintln!(
        "[diverge] audit: adoptions={} received={} checkpoints={} dangling={} pending={} rounds={:?}",
        audit.sync_adoptions,
        audit.sync_items_received,
        audit.checkpoints,
        audit.dangling_resolved,
        audit.pending_options,
        matrix
            .iter()
            .flatten()
            .map(|&n| storage_node(world, n).stats().sync_rounds)
            .collect::<Vec<_>>()
    );
    for (shard, &reference) in matrix[0].iter().enumerate() {
        let ref_state = storage_node(world, reference).store().committed_state();
        for dc_nodes in &matrix[1..] {
            let n = dc_nodes[shard];
            let state = storage_node(world, n).store().committed_state();
            for (a, b) in ref_state.iter().zip(state.iter()) {
                if a != b {
                    eprintln!(
                        "[diverge] shard {shard}: {reference} has {:?} v{} ; {n} has {:?} v{} (key {})",
                        a.2, a.1 .0, b.2, b.1 .0, a.0
                    );
                }
            }
        }
    }
}

/// The `MDCC_DEBUG` tap: node, TM and world counters after the run.
fn debug_tap(world: &World<Msg, Tick>, nodes: &NodeStats, tms: &TxnStats, audit: &ClusterAudit) {
    if std::env::var_os("MDCC_DEBUG").is_some() {
        eprintln!(
            "[mdcc-debug] nodes: {nodes:?}, tms: {tms:?}, pending_options={}, parked_left={}, \
             stuck_client_txns={}, world={:?}",
            audit.pending_options,
            audit.parked_left,
            audit.stuck_clients,
            world.stats()
        );
    }
}

/// Runs an MDCC experiment; returns the report and the summed TM stats.
///
/// MDCC runs understand the full [`FaultPlan`]: storage nodes crash
/// (volatile state destroyed, simulated disk preserved), restart (store
/// rebuilt from checkpoint + WAL replay via `mdcc-recovery`, after which
/// the node re-learns in-flight options and drives dangling-transaction
/// resolution), and clients die with their TMs. Set
/// [`ClusterSpec::durability`] for any plan that restarts nodes.
pub fn run_mdcc(
    spec: &ClusterSpec,
    catalog: Arc<Catalog>,
    data: &[(Key, Row)],
    workload_factory: &mut WorkloadFactory<'_>,
    mode: MdccMode,
) -> (Report, TxnStats) {
    let mut run: Run<'_, Msg, Tick> = Run::new(spec, storage_matrix(spec), spec.master_policy);
    let tracer = TraceHandle::new(spec.trace);
    if spec.trace.enabled {
        run.world.set_tracer(tracer.clone());
    }
    let placement = run.placement.clone() as Arc<dyn Placement>;
    let cfg = &spec.protocol;
    let allow_fast = !matches!(mode, MdccMode::Multi);
    // One shared lease-tenure collector across every node, restarted
    // ones included — the no-two-masters audit needs the full history.
    let lease_audit = cfg
        .mastership
        .enabled
        .then(mdcc_mastership::LeaseAudit::new);
    // What a node is handed at first boot and again at every restart.
    let equip = |node: &mut StorageNodeProcess| {
        if spec.trace.enabled {
            node.set_tracer(tracer.clone());
        }
        if let Some(audit) = &lease_audit {
            node.set_lease_audit(audit.clone());
        }
    };
    // Make the initial data distribution durable: each node starts from
    // a checkpoint so a crash before its first periodic checkpoint still
    // recovers the loaded records.
    let mut snapshots = Vec::new();
    run.spawn_storage(data, |rows| {
        let mut store = RecordStore::new(cfg.clone(), Arc::clone(&catalog));
        for (key, row) in rows {
            store.load(key.clone(), row.clone());
        }
        let mut node = StorageNodeProcess::new(cfg.clone(), store, placement.clone(), allow_fast);
        if spec.durability {
            snapshots.push(node.store().checkpoint_bytes());
            node.enable_durability();
        }
        equip(&mut node);
        Box::new(node)
    });
    for (&node, snapshot) in run.matrix.iter().flatten().zip(snapshots) {
        run.world.disk_mut(node).install_snapshot(snapshot);
    }
    run.spawn_clients(workload_factory, |dc| {
        let mut tm = TransactionManager::new(
            TmConfig {
                protocol: cfg.clone(),
                my_dc: dc,
                assume_classic: matches!(mode, MdccMode::Multi),
            },
            placement.clone(),
        );
        if spec.trace.enabled {
            tm.set_tracer(tracer.clone());
        }
        tm
    });

    run.drive(|world, node, dc| {
        assert!(spec.durability, "restarting nodes requires durability");
        let disk = world.disk(node);
        let (mut proc_, info) = recover_node(cfg, &catalog, &placement, allow_fast, disk);
        equip(&mut proc_);
        if spec.trace.enabled {
            tracer.span(replay_span(node, dc, world.now()));
        }
        world.restart_node(node, Box::new(proc_));
        Some(info)
    });

    harvest_mdcc(&mut run, &tracer, lease_audit.as_ref())
}

/// What a driven MDCC run ends with: the report every protocol fills,
/// the TMs' summed counters, the storage tier's, and the end-of-run
/// audit.
fn harvest_mdcc(
    run: &mut Run<'_, Msg, Tick>,
    tracer: &TraceHandle,
    lease_audit: Option<&mdcc_mastership::LeaseAudit>,
) -> (Report, TxnStats) {
    let spec = run.spec;
    let crashed_clients = spec.faults.crashed_clients();
    let mut stats = TxnStats::default();
    let mut in_flight = 0usize;
    for (i, id) in run.clients.iter().enumerate() {
        let client = run
            .world
            .get::<ClosedLoop<TransactionManager>>(*id)
            .expect("client");
        stats += client.committer.stats();
        if !crashed_clients.contains(&i) {
            // Should be ≤ 1 per closed-loop client; more indicates a
            // stuck protocol path.
            in_flight += client.committer.in_flight();
        }
    }

    let mut node_stats = NodeStats::default();
    let mut engine = mdcc_storage::EngineStats::default();
    let mut ms_stats = mdcc_mastership::MastershipStats::default();
    for &n in run.matrix.iter().flatten() {
        let node = storage_node(&run.world, n);
        node_stats += node.stats();
        engine += node.store().engine_stats();
        ms_stats += node.mastership_stats().unwrap_or_default();
    }
    let audit = audit_cluster(&run.world, &run.matrix, &node_stats, in_flight);
    diverge_debug_tap(&run.world, &run.matrix, &audit);
    debug_tap(&run.world, &node_stats, &stats, &audit);
    let mut report = run.report::<TransactionManager>();
    report.audit = Some(audit);
    report.profile = run.world.profile();
    // Storage nodes were spawned first, so theirs are the low ids.
    let storage_nodes = spec.dcs as u32 * spec.shards_per_dc as u32;
    report.profile_by_kind = KindProfile::by_role(&run.world.profile_by_kind(), |node| {
        if node.0 < storage_nodes {
            NodeRole::Storage
        } else {
            NodeRole::Client
        }
    });
    report.engine = engine;
    report.nodes = node_stats;
    report.mastership = ms_stats;
    if let Some(audit) = lease_audit {
        report.lease_spans = audit.spans();
    }
    if spec.trace.enabled {
        report.trace = Some(tracer.take());
    }
    (report, stats)
}

// ---------------------------------------------------------------------
// The baselines.
// ---------------------------------------------------------------------

/// Runs a quorum-writes experiment with write quorum `k`.
pub fn run_qw(
    spec: &ClusterSpec,
    catalog: Arc<Catalog>,
    data: &[(Key, Row)],
    workload_factory: &mut WorkloadFactory<'_>,
    k: usize,
) -> Report {
    let mut run = Run::new(spec, storage_matrix(spec), spec.master_policy);
    run.spawn_storage(data, |rows| {
        Box::new(QwStorage::new(baseline_store(&catalog, rows)))
    });
    let placement = run.placement.clone() as Arc<dyn Placement>;
    run.spawn_clients(workload_factory, |dc| {
        Baseline::new(QwWriter::new(placement.clone(), k), placement.clone(), dc)
    });
    run.drive(revive);
    run.report::<Baseline<QwWriter>>()
}

/// Runs a 2PC experiment.
pub fn run_tpc(
    spec: &ClusterSpec,
    catalog: Arc<Catalog>,
    data: &[(Key, Row)],
    workload_factory: &mut WorkloadFactory<'_>,
) -> Report {
    let mut run = Run::new(spec, storage_matrix(spec), spec.master_policy);
    run.spawn_storage(data, |rows| {
        Box::new(TpcStorage::new(baseline_store(&catalog, rows)))
    });
    let placement = run.placement.clone() as Arc<dyn Placement>;
    run.spawn_clients(workload_factory, |dc| {
        let coord = TpcCoordinator::new(placement.clone(), spec.dcs as usize);
        Baseline::new(coord, placement.clone(), dc)
    });
    run.drive(revive);
    run.report::<Baseline<TpcCoordinator>>()
}

/// Runs a Megastore* experiment. The master lives in DC 0 (the paper's
/// US-West), data is one entity group, and the caller usually also puts
/// every client in DC 0 (the paper plays in Megastore*'s favour).
pub fn run_megastore(
    spec: &ClusterSpec,
    catalog: Arc<Catalog>,
    data: &[(Key, Row)],
    workload_factory: &mut WorkloadFactory<'_>,
) -> (Report, MegaStats) {
    // Replicas for DCs 1..n spawn first (ids 0..n-1), master last — then
    // reads in DC 0 go to the master's authoritative store. One node per
    // DC, each holding the whole entity group; the placement built over
    // them also serves workload factories (e.g. master-locality pools).
    let replica_ids: Vec<NodeId> = (0..spec.dcs as u32 - 1).map(NodeId).collect();
    let master = NodeId(spec.dcs as u32 - 1);
    let matrix = std::iter::once(master)
        .chain(replica_ids.iter().copied())
        .map(|n| vec![n])
        .collect();
    let mut run: Run<'_, MegaMsg> = Run::new(spec, matrix, MasterPolicy::FixedDc(DcId(0)));
    let rows: Vec<&(Key, Row)> = data.iter().collect();
    for (dc, &expected) in (1..spec.dcs).zip(&replica_ids) {
        let replica = MegaReplica::new(baseline_store(&catalog, &rows));
        assert_eq!(run.world.spawn(DcId(dc), Box::new(replica)), expected);
    }
    let master_proc = MegaMaster::new(
        baseline_store(&catalog, &rows),
        replica_ids,
        spec.protocol.classic_quorum,
    );
    assert_eq!(run.world.spawn(DcId(0), Box::new(master_proc)), master);
    let placement = run.placement.clone() as Arc<dyn Placement>;
    run.spawn_clients(workload_factory, |dc| {
        Baseline::new(MegaClient::new(master), placement.clone(), dc)
    });
    run.drive(revive);
    let stats = run.world.get::<MegaMaster>(master).expect("master").stats();
    (run.report::<Baseline<MegaClient>>(), stats)
}
