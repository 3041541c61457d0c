//! Cluster builders and experiment runners, one per protocol.

use std::sync::Arc;

use mdcc_baselines::megastore::{MegaMaster, MegaReplica, MegaStats};
use mdcc_baselines::qw::{QwStorage, QwWriter};
use mdcc_baselines::twopc::{TpcCoordinator, TpcStorage};
use mdcc_baselines::BaselineStore;
use mdcc_common::placement::MasterPolicy;
use mdcc_common::{
    DcId, Key, NodeId, Placement, ProtocolConfig, Row, SimDuration, SimTime, StaticPlacement,
};
use mdcc_core::{StorageNodeProcess, TmConfig, TransactionManager, TxnStats};
use mdcc_sim::{presets, NetworkModel, World, WorldConfig};
use mdcc_storage::{Catalog, RecordStore};
use mdcc_trace::{Phase, Span, TraceConfig, TraceHandle};
use mdcc_workloads::Workload;

use crate::clients::{MdccClient, MegastoreClient, QwClient, TpcClient};
use crate::faults::{FaultEvent, FaultPlan};
use crate::metrics::{
    ClusterAudit, KindProfile, NodeRecovery, NodeRole, Report, RunPerf, TxnRecord,
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
    /// Post-window drain: clients stop issuing at `warmup + duration`
    /// and the world runs this much longer so in-flight and dangling
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
    /// Run the simulation on the conservative parallel per-DC engine
    /// (one worker thread per data center). Guaranteed byte-identical
    /// to the sequential scheduler for any seed; traced runs always
    /// fall back to sequential.
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
    let dc_nodes = matrix.get(dc.0 as usize).unwrap_or_else(|| {
        panic!(
            "fault plan names dc{} but the spec has {} DCs",
            dc.0,
            matrix.len()
        )
    });
    *dc_nodes.get(shard).unwrap_or_else(|| {
        panic!(
            "fault plan names shard {shard} in dc{} but the spec has {} shards per DC",
            dc.0,
            dc_nodes.len()
        )
    })
}

/// The simulator settings a spec implies, shared by every protocol's
/// runner.
fn world_config(spec: &ClusterSpec) -> WorldConfig {
    WorldConfig {
        seed: spec.seed,
        service_time: spec.service_time,
        service_ns_per_byte: spec.service_ns_per_byte,
        coalesce: spec.protocol.coalesce,
        coalesce_window: spec.protocol.coalesce_window,
        fsync_latency: spec.wal_fsync,
        group_commit: spec.protocol.group_commit,
        group_commit_window: spec.protocol.group_commit_window,
        group_commit_bytes: spec.protocol.group_commit_bytes,
        parallel: spec.parallel,
    }
}

/// Runs a baseline world through the failure schedule and the full
/// experiment span (warm-up + window, plus optional drain).
///
/// Baselines understand the whole [`FaultPlan`] vocabulary, with one
/// deliberate difference from MDCC: baseline stores have no durability
/// subsystem, so `RestartStorage` *revives* the paused process with its
/// pre-crash memory intact (a generous reading — a real restart would
/// lose everything). `CrashStorage` still drops all inbound traffic and
/// `CrashClient` kills a coordinator permanently — which is exactly the
/// scenario the paper's 2PC comparison hinges on: a dead 2PC
/// coordinator leaves its prepare locks held forever (the classic
/// blocking window), while MDCC's storage-side dangling recovery
/// resolves the orphaned transaction on its own.
fn drive<M: mdcc_sim::NetMessage + Send + 'static>(
    world: &mut World<M>,
    spec: &ClusterSpec,
    matrix: &[Vec<NodeId>],
    client_ids: &[NodeId],
) {
    let timeline = spec.faults.sorted();
    let end = SimTime::ZERO + spec.warmup + spec.duration + spec.drain;
    for event in timeline {
        world.run_until((SimTime::ZERO + event.at()).min(end));
        match event {
            FaultEvent::FailDc { dc, .. } => world.fail_dc(dc),
            FaultEvent::HealDc { dc, .. } => world.heal_dc(dc),
            FaultEvent::CrashStorage { dc, shard, .. } => {
                world.crash_node(storage_target(matrix, dc, shard));
            }
            FaultEvent::RestartStorage { dc, shard, .. } => {
                world.revive_node(storage_target(matrix, dc, shard));
            }
            FaultEvent::CrashClient { client, .. } => {
                assert!(
                    client < client_ids.len(),
                    "fault plan crashes client {client} but the spec has {} clients",
                    client_ids.len()
                );
                world.crash_node(client_ids[client]);
            }
        }
    }
    world.run_until(end);
}

// ---------------------------------------------------------------------
// MDCC.
// ---------------------------------------------------------------------

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
    let wall_start = std::time::Instant::now();
    let mut world: World<mdcc_core::Msg> = World::new(network(spec), world_config(spec));
    let tracer = TraceHandle::new(spec.trace);
    if spec.trace.enabled {
        world.set_tracer(tracer.clone());
    }
    let matrix = storage_matrix(spec);
    let placement = StaticPlacement::new(matrix.clone(), spec.master_policy);
    let allow_fast = !matches!(mode, MdccMode::Multi);
    // One shared lease-tenure collector across every node, restarted
    // ones included — the no-two-masters audit needs the full history.
    let lease_audit = spec
        .protocol
        .mastership
        .enabled
        .then(mdcc_mastership::LeaseAudit::new);
    for dc in 0..spec.dcs {
        for &expected in &matrix[dc as usize] {
            let store = RecordStore::new(spec.protocol.clone(), Arc::clone(&catalog));
            let mut node = StorageNodeProcess::new(
                spec.protocol.clone(),
                store,
                placement.clone() as Arc<dyn Placement>,
                allow_fast,
            );
            if spec.durability {
                node.enable_durability();
            }
            if spec.trace.enabled {
                node.set_tracer(tracer.clone(), DcId(dc));
            }
            if let Some(audit) = &lease_audit {
                node.set_lease_audit(audit.clone());
            }
            let id = world.spawn(DcId(dc), Box::new(node));
            assert_eq!(id, expected);
        }
    }
    for (key, row) in data {
        let shard = placement.shard_of(key);
        for dc_nodes in &matrix {
            world
                .get_mut::<StorageNodeProcess>(dc_nodes[shard])
                .expect("storage node")
                .store_mut()
                .load(key.clone(), row.clone());
        }
    }
    if spec.durability {
        // Make the initial data distribution durable: each node starts
        // from a checkpoint so a crash before its first periodic
        // checkpoint still recovers the loaded records.
        for dc_nodes in &matrix {
            for &n in dc_nodes {
                let snapshot = world
                    .get::<StorageNodeProcess>(n)
                    .expect("storage node")
                    .store()
                    .checkpoint_bytes();
                world.disk_mut(n).install_snapshot(snapshot);
            }
        }
    }
    let end = SimTime::ZERO + spec.warmup + spec.duration;
    let stop_issuing_at = (spec.drain > SimDuration::ZERO).then_some(end);
    let mut client_ids = Vec::with_capacity(spec.clients);
    for i in 0..spec.clients {
        let dc = client_dc(spec, i);
        let tm = TransactionManager::new(
            TmConfig {
                protocol: spec.protocol.clone(),
                my_dc: dc,
                assume_classic: matches!(mode, MdccMode::Multi),
            },
            placement.clone() as Arc<dyn Placement>,
        );
        let workload = workload_factory(i, dc, &placement);
        let mut client = MdccClient::new(tm, workload);
        if let Some(stop) = stop_issuing_at {
            client.stop_issuing_at(stop);
        }
        if spec.trace.enabled {
            client.set_tracer(tracer.clone());
        }
        client_ids.push(world.spawn(dc, Box::new(client)));
    }

    // Drive through the scripted fault plan in time order.
    let timeline = spec.faults.sorted();
    let mut recoveries: Vec<NodeRecovery> = Vec::new();
    let mut crash_times: std::collections::HashMap<NodeId, SimTime> =
        std::collections::HashMap::new();
    let run_end = end + spec.drain;
    for event in timeline {
        let at = (SimTime::ZERO + event.at()).min(run_end);
        world.run_until(at);
        match event {
            FaultEvent::CrashStorage { dc, shard, .. } => {
                let node = storage_target(&matrix, dc, shard);
                world.crash_node(node);
                crash_times.insert(node, world.now());
            }
            FaultEvent::RestartStorage { dc, shard, .. } => {
                assert!(spec.durability, "restarting nodes requires durability");
                let node = storage_target(&matrix, dc, shard);
                let (store, info) = mdcc_recovery::recover_store(
                    spec.protocol.clone(),
                    Arc::clone(&catalog),
                    world.disk(node),
                )
                .expect("disk state parses: the simulated disk is never torn");
                let mut proc_ = StorageNodeProcess::from_recovery(
                    spec.protocol.clone(),
                    store,
                    placement.clone() as Arc<dyn Placement>,
                    allow_fast,
                    info,
                );
                if let Some(audit) = &lease_audit {
                    proc_.set_lease_audit(audit.clone());
                }
                // Re-install the lease floors and per-record overrides
                // persisted in the WAL tail so the restarted node keeps
                // *fencing* deposed ballots (its own serving rights
                // stay quarantined inside the mastership layer).
                let leases = mdcc_recovery::recovered_leases(world.disk(node))
                    .expect("disk state parses: the simulated disk is never torn");
                proc_.install_recovered_leases(leases);
                if spec.trace.enabled {
                    proc_.set_tracer(tracer.clone(), dc);
                    // Replay is instantaneous in sim time; the span
                    // still marks *when* the node recovered and what
                    // run the replay belonged to.
                    tracer.span(Span {
                        node,
                        dc,
                        phase: Phase::WalReplay,
                        start: world.now(),
                        end: world.now(),
                        txn: None,
                        key: None,
                        class: None,
                    });
                }
                world.restart_node(node, Box::new(proc_));
                recoveries.push(NodeRecovery {
                    node,
                    dc,
                    shard,
                    crashed_at: crash_times.get(&node).copied().unwrap_or(SimTime::ZERO),
                    restarted_at: world.now(),
                    info,
                });
            }
            FaultEvent::CrashClient { client, .. } => {
                assert!(
                    client < client_ids.len(),
                    "fault plan crashes client {client} but the spec has {} clients",
                    client_ids.len()
                );
                world.crash_node(client_ids[client]);
            }
            FaultEvent::FailDc { dc, .. } => world.fail_dc(dc),
            FaultEvent::HealDc { dc, .. } => world.heal_dc(dc),
        }
    }
    world.run_until(run_end);

    let crashed_clients = spec.faults.crashed_clients();
    let mut records: Vec<TxnRecord> = Vec::new();
    let mut stats = TxnStats::default();
    let mut in_flight = 0usize;
    for (i, id) in client_ids.iter().enumerate() {
        let client = world.get::<MdccClient>(*id).expect("client");
        records.extend(client.records.iter().copied());
        let s = client.tm_stats();
        stats.committed += s.committed;
        stats.aborted += s.aborted;
        stats.fast_commits += s.fast_commits;
        stats.collisions += s.collisions;
        stats.timeouts += s.timeouts;
        stats.classic_redirects += s.classic_redirects;
        stats.repair_pulls += s.repair_pulls;
        if !crashed_clients.contains(&i) {
            in_flight += client.in_flight();
        }
    }

    // End-of-run consistency audit across every storage node.
    let mut audit = ClusterAudit::default();
    let mut engine = mdcc_storage::EngineStats::default();
    let mut ms_stats = mdcc_mastership::MastershipStats::default();
    let mut node_stats = mdcc_core::node::NodeStats::default();
    let mut minima: std::collections::BTreeMap<String, i64> = std::collections::BTreeMap::new();
    for dc_nodes in &matrix {
        for &n in dc_nodes {
            let node = world.get::<StorageNodeProcess>(n).expect("node");
            node_stats += node.stats();
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
            audit.wal_bytes_written += world.disk(n).stats().wal_bytes_written;
            if let Some(m) = node.mastership_stats() {
                ms_stats.elections += m.elections;
                ms_stats.leases_acquired += m.leases_acquired;
                ms_stats.renewals += m.renewals;
                ms_stats.handoffs += m.handoffs;
                ms_stats.served += m.served;
                ms_stats.forwarded += m.forwarded;
                ms_stats.phase1_skipped += m.phase1_skipped;
                ms_stats.phase1_covered += m.phase1_covered;
                ms_stats.cold_first_commit_rtts += m.cold_first_commit_rtts;
            }
            let e = node.store().engine_stats();
            engine.live_bytes += e.live_bytes;
            engine.dead_bytes += e.dead_bytes;
            engine.segments += e.segments;
            engine.compactions += e.compactions;
            engine.evictions += e.evictions;
        }
    }
    audit.dangling_resolved = node_stats.dangling_resolved;
    audit.sync_adoptions = node_stats.sync_adoptions;
    audit.checkpoints = node_stats.checkpoints;
    audit.stuck_clients = in_flight;
    audit.attr_minima = minima.into_iter().collect();
    if std::env::var_os("MDCC_DIVERGE_DEBUG").is_some() {
        eprintln!(
            "[diverge] audit: adoptions={} checkpoints={} dangling={} pending={} rounds={:?}",
            audit.sync_adoptions,
            audit.checkpoints,
            audit.dangling_resolved,
            audit.pending_options,
            matrix
                .iter()
                .flatten()
                .map(|&n| world
                    .get::<StorageNodeProcess>(n)
                    .unwrap()
                    .stats()
                    .sync_rounds)
                .collect::<Vec<_>>()
        );
        // Dump per-key differences between replica 0 of each shard and
        // the others — the microscope for recovery-audit failures.
        for shard in 0..spec.shards_per_dc {
            let reference = matrix[0][shard];
            let ref_state = world
                .get::<StorageNodeProcess>(reference)
                .expect("node")
                .store()
                .committed_state();
            for dc_nodes in &matrix[1..] {
                let n = dc_nodes[shard];
                let state = world
                    .get::<StorageNodeProcess>(n)
                    .expect("node")
                    .store()
                    .committed_state();
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
    if std::env::var_os("MDCC_DEBUG").is_some() {
        eprintln!(
            "[mdcc-debug] nodes: {node_stats:?}, pending_options={}, parked_left={}, \
             stuck_client_txns={in_flight}, world={:?}",
            audit.pending_options,
            audit.parked_left,
            world.stats()
        );
    }
    let mut report = Report::new(records, spec.warmup, spec.duration);
    report.recoveries = recoveries;
    report.audit = Some(audit);
    report.net = crate::metrics::NetReport::from_world(world.stats());
    report.perf = RunPerf {
        wall: wall_start.elapsed(),
        events: world.stats().events_handled,
        threads: world.worker_threads(),
    };
    report.profile = world.profile();
    // Storage nodes were spawned first, so theirs are the low ids.
    let storage_nodes = spec.dcs as u32 * spec.shards_per_dc as u32;
    report.profile_by_kind = KindProfile::by_role(&world.profile_by_kind(), |node| {
        if node.0 < storage_nodes {
            NodeRole::Storage
        } else {
            NodeRole::Client
        }
    });
    report.engine = engine;
    report.nodes = node_stats;
    report.mastership = ms_stats;
    if let Some(audit) = &lease_audit {
        report.lease_spans = audit.spans();
    }
    if spec.trace.enabled {
        report.trace = Some(tracer.take());
    }
    (report, stats)
}

// ---------------------------------------------------------------------
// Quorum writes.
// ---------------------------------------------------------------------

/// Runs a quorum-writes experiment with write quorum `k`.
pub fn run_qw(
    spec: &ClusterSpec,
    catalog: Arc<Catalog>,
    data: &[(Key, Row)],
    workload_factory: &mut WorkloadFactory<'_>,
    k: usize,
) -> Report {
    let wall_start = std::time::Instant::now();
    let mut world: World<mdcc_baselines::qw::QwMsg> = World::new(network(spec), world_config(spec));
    let matrix = storage_matrix(spec);
    let placement = StaticPlacement::new(matrix.clone(), spec.master_policy);
    for dc in 0..spec.dcs {
        for &expected in &matrix[dc as usize] {
            let store = BaselineStore::new(Arc::clone(&catalog));
            let id = world.spawn(DcId(dc), Box::new(QwStorage::new(store)));
            assert_eq!(id, expected);
        }
    }
    for (key, row) in data {
        let shard = placement.shard_of(key);
        for dc_nodes in &matrix {
            world
                .get_mut::<QwStorage>(dc_nodes[shard])
                .expect("storage node")
                .store_mut()
                .load(key.clone(), row.clone());
        }
    }
    let mut client_ids = Vec::with_capacity(spec.clients);
    for i in 0..spec.clients {
        let dc = client_dc(spec, i);
        let writer = QwWriter::new(placement.clone() as Arc<dyn Placement>, k);
        let workload = workload_factory(i, dc, &placement);
        let client = QwClient::new(
            writer,
            placement.clone() as Arc<dyn Placement>,
            dc,
            workload,
        );
        client_ids.push(world.spawn(dc, Box::new(client)));
    }
    drive(&mut world, spec, &matrix, &client_ids);
    let mut records = Vec::new();
    for id in client_ids {
        records.extend(
            world
                .get::<QwClient>(id)
                .expect("client")
                .records
                .iter()
                .copied(),
        );
    }
    let mut report = Report::new(records, spec.warmup, spec.duration);
    report.net = crate::metrics::NetReport::from_world(world.stats());
    report.perf = RunPerf {
        wall: wall_start.elapsed(),
        events: world.stats().events_handled,
        threads: world.worker_threads(),
    };
    report
}

// ---------------------------------------------------------------------
// Two-phase commit.
// ---------------------------------------------------------------------

/// Runs a 2PC experiment.
pub fn run_tpc(
    spec: &ClusterSpec,
    catalog: Arc<Catalog>,
    data: &[(Key, Row)],
    workload_factory: &mut WorkloadFactory<'_>,
) -> Report {
    let wall_start = std::time::Instant::now();
    let mut world: World<mdcc_baselines::twopc::TpcMsg> =
        World::new(network(spec), world_config(spec));
    let matrix = storage_matrix(spec);
    let placement = StaticPlacement::new(matrix.clone(), spec.master_policy);
    for dc in 0..spec.dcs {
        for &expected in &matrix[dc as usize] {
            let store = BaselineStore::new(Arc::clone(&catalog));
            let id = world.spawn(DcId(dc), Box::new(TpcStorage::new(store)));
            assert_eq!(id, expected);
        }
    }
    for (key, row) in data {
        let shard = placement.shard_of(key);
        for dc_nodes in &matrix {
            world
                .get_mut::<TpcStorage>(dc_nodes[shard])
                .expect("storage node")
                .store_mut()
                .load(key.clone(), row.clone());
        }
    }
    let mut client_ids = Vec::with_capacity(spec.clients);
    for i in 0..spec.clients {
        let dc = client_dc(spec, i);
        let coord = TpcCoordinator::new(placement.clone() as Arc<dyn Placement>, spec.dcs as usize);
        let workload = workload_factory(i, dc, &placement);
        let client = TpcClient::new(coord, placement.clone() as Arc<dyn Placement>, dc, workload);
        client_ids.push(world.spawn(dc, Box::new(client)));
    }
    drive(&mut world, spec, &matrix, &client_ids);
    let mut records = Vec::new();
    for id in client_ids {
        records.extend(
            world
                .get::<TpcClient>(id)
                .expect("client")
                .records
                .iter()
                .copied(),
        );
    }
    let mut report = Report::new(records, spec.warmup, spec.duration);
    report.net = crate::metrics::NetReport::from_world(world.stats());
    report.perf = RunPerf {
        wall: wall_start.elapsed(),
        events: world.stats().events_handled,
        threads: world.worker_threads(),
    };
    report
}

// ---------------------------------------------------------------------
// Megastore*.
// ---------------------------------------------------------------------

/// Runs a Megastore* experiment. The master lives in DC 0 (the paper's
/// US-West), data is one entity group, and the caller usually also puts
/// every client in DC 0 (the paper plays in Megastore*'s favour).
pub fn run_megastore(
    spec: &ClusterSpec,
    catalog: Arc<Catalog>,
    data: &[(Key, Row)],
    workload_factory: &mut WorkloadFactory<'_>,
) -> (Report, MegaStats) {
    let wall_start = std::time::Instant::now();
    let mut world: World<mdcc_baselines::megastore::MegaMsg> =
        World::new(network(spec), world_config(spec));
    // Replicas for DCs 1..n spawn first (ids 0..n-1), master last — then
    // reads in DC 0 go to the master's authoritative store.
    let replica_ids: Vec<NodeId> = (1..spec.dcs)
        .map(|dc| {
            let mut replica = MegaReplica::new(BaselineStore::new(Arc::clone(&catalog)));
            for (key, row) in data {
                replica.store_mut().load(key.clone(), row.clone());
            }
            world.spawn(DcId(dc), Box::new(replica))
        })
        .collect();
    let mut master_store = BaselineStore::new(Arc::clone(&catalog));
    for (key, row) in data {
        master_store.load(key.clone(), row.clone());
    }
    let master = world.spawn(
        DcId(0),
        Box::new(MegaMaster::new(
            master_store,
            replica_ids.clone(),
            spec.protocol.classic_quorum,
        )),
    );
    let mut replicas_by_dc = vec![master];
    replicas_by_dc.extend(replica_ids.iter().copied());
    // Placement is only used by workload factories (e.g. master-locality
    // pools); Megastore* itself is a single entity group.
    let matrix: Vec<Vec<NodeId>> = replicas_by_dc.iter().map(|n| vec![*n]).collect();
    let placement = StaticPlacement::new(matrix.clone(), MasterPolicy::FixedDc(DcId(0)));
    let mut client_ids = Vec::with_capacity(spec.clients);
    for i in 0..spec.clients {
        let dc = client_dc(spec, i);
        let workload = workload_factory(i, dc, &placement);
        let client = MegastoreClient::new(
            mdcc_baselines::megastore::MegaClient::new(master),
            replicas_by_dc.clone(),
            dc,
            workload,
        );
        client_ids.push(world.spawn(dc, Box::new(client)));
    }
    drive(&mut world, spec, &matrix, &client_ids);
    let mut records = Vec::new();
    for id in client_ids {
        records.extend(
            world
                .get::<MegastoreClient>(id)
                .expect("client")
                .records
                .iter()
                .copied(),
        );
    }
    let stats = world.get::<MegaMaster>(master).expect("master").stats();
    let mut report = Report::new(records, spec.warmup, spec.duration);
    report.net = crate::metrics::NetReport::from_world(world.stats());
    report.perf = RunPerf {
        wall: wall_start.elapsed(),
        events: world.stats().events_handled,
        threads: world.worker_threads(),
    };
    (report, stats)
}
