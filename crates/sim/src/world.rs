//! The world: clock, event queue, processes and failure injection.
//!
//! # Destination-coalesced envelopes
//!
//! With [`WorldConfig::coalesce`] on (the default), [`Ctx::send`] no
//! longer hands each message straight to the network: sends accumulate
//! in a per-(destination, traffic-class) outbox that ships when the
//! outbox batch closes (see Batching below). Each shipped slot is one
//! envelope wire frame: one frame header and one service-time floor per
//! envelope instead of per message, with per-byte costs and per-class
//! byte attribution preserved exactly (only same-class messages share an
//! envelope). Slots ship in first-enqueue order and payloads dispatch in
//! send order, so per-(src, dst, class) FIFO delivery holds whenever the
//! jitter-free network would deliver FIFO. Messages of *different*
//! classes to one destination ride different envelopes and may reorder
//! relative to each other — the same reordering a jittered network
//! already inflicts, which every protocol here must (and does) tolerate.
//!
//! # Batching
//!
//! Every node keeps two deadline-or-size batches of one kind, and the
//! world arms, fires and disarms both the same way:
//!
//! * the **outbox** batch. It opens at the end of an event that left
//!   sends in the outbox and closes [`WorldConfig::coalesce_window`]
//!   later (Nagle), so bursts across events share envelopes. It has no
//!   size trigger. A zero window closes it at the end of the event.
//! * the **WAL** batch, under [`WorldConfig::group_commit`] with a
//!   non-zero [`WorldConfig::fsync_latency`]. An event that appended to
//!   the WAL opens it. It closes [`WorldConfig::group_commit_window`]
//!   later, or at once when [`WorldConfig::group_commit_bytes`] are
//!   unsynced. Closing charges one covering fsync for every append it
//!   holds.
//!
//! An open batch's deadline is one queued [`EventKind::Deadline`]. Only
//! the deadline the batch currently holds counts, so one orphaned by a
//! crash or by the size trigger fires as a no-op.
//!
//! Per-append fsync (`group_commit` off) is the degenerate WAL batch: it
//! closes as the appending handler returns, before that handler's sends
//! leave, and holds nothing, so it never ships a pending outbox.
//!
//! While the WAL batch is open the outbox is its holding pen. An ack
//! must not outrun the fsync that makes what it acknowledges durable, so
//! nothing leaves until the WAL batch closes, and then everything does.
//! Read replies are the exception: they promise no durability, so they
//! leave at the end of their event instead of queueing behind a
//! stranger's fsync. Without coalescing, each held send is a slot of its
//! own and ships as the same bare frame, in the same order, as the
//! per-message transport would have sent it.
//!
//! # One event loop
//!
//! The world keeps one event queue and one clock, and pops one event at
//! a time. Every event carries an intrinsic [`EventKey`] — `(cause
//! time, emitting node, that node's emit counter)` — and the queue
//! orders by `(at, key)`, a total order that is a pure function of the
//! simulation's history rather than of the order events were pushed in.
//! Each node draws its randomness from its own RNG, seeded from the
//! world seed and its id. A run is therefore a function of its seed and
//! of the calls made on the world, and running to the end in pieces
//! ([`World::run_until`] at any split points) equals one run.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use mdcc_common::wire::envelope_wire_bytes;
use mdcc_common::{DcId, NodeId, SimDuration, SimTime};
use mdcc_trace::{CounterSample, Phase, Span, TraceHandle};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::disk::Disk;
use crate::event::{BatchKind, Event, EventKey, EventKind, EventQueue, TimerId};
use crate::net::NetworkModel;
use crate::process::{Ctx, Effect, NetMessage, Process, TimerPayload, TrafficClass};
use crate::topology::Topology;

/// World-level knobs.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// RNG seed; two worlds with equal seeds and equal call sequences
    /// produce identical executions.
    pub seed: u64,
    /// Fixed floor of the CPU cost a node pays to handle one message
    /// (syscall + dispatch overhead). Messages arriving at a busy node
    /// queue FIFO behind it — this is what creates the paper's queueing
    /// effects (most visibly Megastore*'s serialization collapse).
    pub service_time: SimDuration,
    /// Per-byte handling cost in nanoseconds, added on top of the floor:
    /// a one-byte vote and a megabyte sync chunk no longer cost the node
    /// the same. The default (40 ns/byte ≈ 25 MB/s of deserialization +
    /// handling) puts a typical ~250-byte protocol message at the 50 µs
    /// the old flat model charged.
    pub service_ns_per_byte: u64,
    /// Coalesce same-destination, same-class sends into envelope frames
    /// (see the module docs). `false` restores the per-message transport
    /// byte for byte — the equivalence baseline.
    pub coalesce: bool,
    /// The outbox batch's window: how long sends may wait past the end
    /// of their event. Zero (the default here) ships them at the end of
    /// the event; the cluster harness threads
    /// `ProtocolConfig::coalesce_window` through.
    pub coalesce_window: SimDuration,
    /// Synchronous-flush latency charged to a node whenever an event
    /// handler appended WAL bytes: the node stays busy that much longer
    /// (an fsync on the commit path). Zero — the default — charges
    /// nothing, preserving the pre-fsync schedule exactly.
    pub fsync_latency: SimDuration,
    /// Group commit: appends join the node's WAL batch, one covering
    /// fsync makes the whole batch durable, and the batch holds the
    /// node's sends until then (see the module docs) — so N
    /// transactions pay one `fsync_latency` instead of N. Inert unless
    /// `fsync_latency` is non-zero; `false` restores the per-append
    /// fsync schedule byte for byte.
    pub group_commit: bool,
    /// The WAL batch's window: how long it may wait for more appends
    /// before its covering fsync. Zero syncs in an event of its own at
    /// the same instant — which still covers every append of the
    /// opening event.
    pub group_commit_window: SimDuration,
    /// The WAL batch's size trigger: it closes at once when this many
    /// unsynced WAL bytes accumulate, bounding both the held-ack window
    /// and the data lost to a crash mid-batch.
    pub group_commit_bytes: usize,
    /// Ignored; deleted once `bench_all` stops naming it (ROADMAP 0(a)).
    pub parallel: bool,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            seed: 0x4D44_4343, // "MDCC" in ASCII.
            service_time: SimDuration::from_micros(40),
            service_ns_per_byte: 40,
            coalesce: true,
            coalesce_window: SimDuration::ZERO,
            fsync_latency: SimDuration::ZERO,
            group_commit: true,
            group_commit_window: SimDuration::from_micros(500),
            group_commit_bytes: 256 * 1024,
            parallel: false,
        }
    }
}

/// Per-traffic-class message/byte counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficTotals {
    /// Wire frames handed to the network (envelopes count once).
    pub msgs: u64,
    /// Wire bytes handed to the network.
    pub bytes: u64,
    /// Process-level messages carried by those frames; equals `msgs`
    /// when coalescing is off, and `msgs / payloads` is the coalescing
    /// (amortization) factor when it is on.
    pub payloads: u64,
}

/// Counters the world maintains about itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Wire frames handed to the network (a coalesced envelope counts
    /// once — it pays one frame header and one service floor).
    pub sent: u64,
    /// Frames delivered to a live process.
    pub delivered: u64,
    /// Frames lost (network loss, dead node, failed DC).
    pub dropped: u64,
    /// Timers that fired (excludes cancelled).
    pub timers_fired: u64,
    /// Wire bytes handed to the network.
    pub bytes_sent: u64,
    /// Process-level messages carried by all sent frames.
    pub payload_msgs: u64,
    /// Handler invocations dispatched (start/timer/message); divided by
    /// host wall time this is the engine's events/sec throughput.
    pub events_handled: u64,
    /// Synchronous WAL flushes charged (`fsync_latency` each): one per
    /// appending event without group commit, one per batch with it.
    /// Zero when `fsync_latency` is zero — durability then costs
    /// nothing and nothing is counted.
    pub fsyncs: u64,
    /// Sent frames/bytes broken out by [`TrafficClass`] (indexed with
    /// [`TrafficClass::index`]).
    pub by_class: [TrafficTotals; TrafficClass::COUNT],
}

impl WorldStats {
    /// Totals for one traffic class.
    pub fn class(&self, class: TrafficClass) -> TrafficTotals {
        self.by_class[class.index()]
    }

    /// Counts one frame of `bytes` carrying `payloads` messages of
    /// `class` handed to the network.
    fn count_sent(&mut self, class: TrafficClass, bytes: usize, payloads: u64) {
        self.sent += 1;
        self.bytes_sent += bytes as u64;
        self.payload_msgs += payloads;
        let totals = &mut self.by_class[class.index()];
        totals.msgs += 1;
        totals.bytes += bytes as u64;
        totals.payloads += payloads;
    }
}

/// One node's event-loop profile: how much work its handlers did, in
/// events, virtual busy time, and (when host profiling is on) host wall
/// time. The direct input to "which handlers to make cheaper first".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileEntry {
    /// The node.
    pub node: NodeId,
    /// Its data center.
    pub dc: DcId,
    /// Handler invocations dispatched to it.
    pub events: u64,
    /// Virtual CPU time its handlers were charged (service + fsync).
    pub sim_busy: SimDuration,
    /// Host wall time spent inside its handlers; zero unless the run
    /// profiled wall time (`TraceConfig::profile`).
    pub wall: Duration,
}

/// Per-node accumulator behind [`ProfileEntry`].
#[derive(Debug, Clone, Default)]
struct ProfileCell {
    events: u64,
    sim_busy: SimDuration,
    wall: Duration,
    /// Per [`NetMessage::kind`] and [`TimerPayload::kind`] handled
    /// (`"start"` for `on_start`), in order of first appearance. Filled
    /// only while host profiling is on.
    kinds: Vec<KindCell>,
}

impl ProfileCell {
    /// Adds one handler call of `kind` that took `spent` of host time;
    /// `delivered` is the framed size of the message it handled, if one
    /// was delivered.
    fn record(&mut self, kind: &'static str, delivered: Option<u64>, spent: Duration) {
        self.wall += spent;
        let at = match self.kinds.iter().position(|k| k.kind == kind) {
            Some(at) => at,
            None => {
                self.kinds.push(KindCell {
                    kind,
                    ..KindCell::default()
                });
                self.kinds.len() - 1
            }
        };
        let of_kind = &mut self.kinds[at];
        of_kind.events += 1;
        of_kind.wall += spent;
        of_kind.msgs += u64::from(delivered.is_some());
        of_kind.bytes += delivered.unwrap_or(0);
    }
}

/// One kind's share of a [`ProfileCell`].
#[derive(Debug, Clone, Copy, Default)]
struct KindCell {
    kind: &'static str,
    events: u64,
    wall: Duration,
    msgs: u64,
    bytes: u64,
}

/// One node's handler work on one kind of message or timer: a row of
/// the profile split by [`NetMessage::kind`] and [`TimerPayload::kind`].
/// Only runs that profile host time (`TraceConfig::profile`) produce any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindProfileEntry {
    /// The node.
    pub node: NodeId,
    /// The message or timer kind (`"start"` for the `on_start` call).
    pub kind: &'static str,
    /// Handler invocations for it.
    pub events: u64,
    /// Host wall time spent inside them.
    pub wall: Duration,
    /// Those of the invocations that were network deliveries (the rest
    /// are timers firing and `on_start`).
    pub msgs: u64,
    /// Framed wire size of the delivered messages, each on its own (the
    /// header an envelope shares among its payloads is not apportioned).
    pub bytes: u64,
}

/// Anatomy label for a traffic class (trace-span detail).
fn class_label(class: TrafficClass) -> &'static str {
    match class {
        TrafficClass::Protocol => "protocol",
        TrafficClass::Read => "read",
        TrafficClass::Sync => "sync",
        TrafficClass::Repair => "repair",
    }
}

/// Derives a per-node RNG seed from the world seed (splitmix64-style
/// finalizer, so adjacent node ids land far apart in seed space).
fn node_rng_seed(world_seed: u64, node: u32) -> u64 {
    let mut z = world_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(node as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One slot of the outbox: messages to one destination in one traffic
/// class, with the framed single-message size of each (captured at send
/// time) for byte accounting. Ships as one frame.
struct OutboxSlot<M> {
    to: NodeId,
    class: TrafficClass,
    msgs: Vec<M>,
    framed_sizes: Vec<usize>,
}

/// One of a node's deadline-or-size batches (module docs, Batching):
/// the deadline it armed when it opened, `None` while it is closed.
#[derive(Debug, Clone, Copy, Default)]
struct Batch {
    deadline: Option<SimTime>,
}

impl Batch {
    /// Whether a deadline event firing at `at` closes this batch; if so
    /// the batch is closed.
    fn due(&mut self, at: SimTime) -> bool {
        let due = self.deadline == Some(at);
        if due {
            self.deadline = None;
        }
        due
    }
}

/// Everything the world keeps for one node.
struct Node<M, T> {
    id: NodeId,
    dc: DcId,
    /// The process; taken out only while its handler runs.
    proc_: Option<Box<dyn Process<M, T>>>,
    busy_until: SimTime,
    alive: bool,
    /// Bumped on every `restart_node`; timers armed by an older
    /// incarnation are dropped when they fire.
    incarnation: u32,
    /// Durable storage; survives crash/restart.
    disk: Disk,
    /// Protocol randomness and this node's outbound network sampling,
    /// so randomness is a function of the node's own history.
    rng: SmallRng,
    /// Monotone emit counter (the third component of every
    /// [`EventKey`] this node's sends and timers stamp).
    emit: u64,
    /// Timer-id counter, based at `node_id << 40` so ids are unique
    /// across nodes.
    next_timer: u64,
    profile: ProfileCell,
    /// The holding pen, in first-enqueue order: one slot per
    /// (destination, traffic class) when coalescing, one per held send
    /// otherwise. Unsent messages die with the process on a crash.
    outbox: Vec<OutboxSlot<M>>,
    /// The outbox and WAL batches, indexed by [`BatchKind`].
    batches: [Batch; 2],
}

impl<M, T> Node<M, T> {
    fn new(id: NodeId, dc: DcId, proc_: Box<dyn Process<M, T>>, seed: u64) -> Self {
        Self {
            id,
            dc,
            proc_: Some(proc_),
            busy_until: SimTime::ZERO,
            alive: true,
            incarnation: 0,
            disk: Disk::new(),
            rng: SmallRng::seed_from_u64(seed),
            emit: 0,
            next_timer: (id.0 as u64) << 40,
            profile: ProfileCell::default(),
            outbox: Vec::new(),
            batches: [Batch::default(); 2],
        }
    }

    /// The hold rule: whether an open WAL batch holds this node's
    /// outbox. Only group commit with a non-zero fsync latency opens one
    /// (with a free fsync there is nothing to amortize), and it is open
    /// while appends await their covering fsync.
    fn holding(&self, config: &WorldConfig) -> bool {
        config.group_commit && config.fsync_latency > SimDuration::ZERO && self.disk.has_unsynced()
    }

    /// Puts a send in the pen: into its (destination, class) slot when
    /// `merge`, else into a slot of its own.
    fn pen(&mut self, to: NodeId, class: TrafficClass, msg: M, bytes: usize, merge: bool) {
        if merge {
            if let Some(slot) = self
                .outbox
                .iter_mut()
                .find(|s| s.to == to && s.class == class)
            {
                slot.msgs.push(msg);
                slot.framed_sizes.push(bytes);
                return;
            }
        }
        self.outbox.push(OutboxSlot {
            to,
            class,
            msgs: vec![msg],
            framed_sizes: vec![bytes],
        });
    }

    /// Stamps a fresh event key from this node's emit counter at `now`.
    fn next_key(&mut self, now: SimTime) -> EventKey {
        let emit = self.emit;
        self.emit += 1;
        EventKey {
            cause: now,
            node: self.id.0,
            emit,
        }
    }
}

impl WorldConfig {
    /// CPU cost of handling one `bytes`-sized message: the fixed floor
    /// plus the per-byte deserialization cost.
    fn service_cost(&self, bytes: usize) -> SimDuration {
        let per_byte_us = (bytes as u64 * self.service_ns_per_byte + 500) / 1_000;
        self.service_time + SimDuration::from_micros(per_byte_us)
    }

    /// How long a batch of `kind` stays open.
    fn window(&self, kind: BatchKind) -> SimDuration {
        match kind {
            BatchKind::Outbox => self.coalesce_window,
            BatchKind::Wal => self.group_commit_window,
        }
    }
}

/// A deterministic discrete-event simulation of one deployment: `M` is
/// what its processes send each other, `T` what they arm timers with.
pub struct World<M, T = M> {
    now: SimTime,
    net: NetworkModel,
    topology: Topology,
    config: WorldConfig,
    /// The trace collector, held only while tracing is enabled.
    tracer: Option<TraceHandle>,
    /// Whether to time handlers on the host (`TraceConfig::profile`).
    profile_wall: bool,
    queue: EventQueue<M, T>,
    /// Every node, indexed by id: ids are dense spawn order.
    nodes: Vec<Node<M, T>>,
    cancelled: HashSet<TimerId>,
    /// The link FIFO matrix, by `[from DC][to DC]`: earliest time a new
    /// transmission can start on that directed link.
    link_free_at: Vec<Vec<SimTime>>,
    /// Per data center: true while it is failed (inbound messages drop).
    down: Vec<bool>,
    stats: WorldStats,
    effects_scratch: Vec<Effect<M, T>>,
    /// First-arrival times of deferred deliveries, keyed by the event
    /// key's (node, emit) — which survives deferral; populated only
    /// while tracing, so the receive span can start when the frame
    /// reached the busy node.
    arrivals: HashMap<(u32, u64), SimTime>,
    /// Emit counter for world-level injections (tests), stamped under a
    /// pseudo-node so they never collide with real emit streams.
    inject_emit: u64,
}

impl<M: NetMessage + 'static, T: TimerPayload + 'static> World<M, T> {
    /// Creates a world over `net` with the given config.
    pub fn new(net: NetworkModel, config: WorldConfig) -> Self {
        let dc_count = net.dc_count();
        Self {
            now: SimTime::ZERO,
            net,
            topology: Topology::new(),
            config,
            tracer: None,
            profile_wall: false,
            queue: EventQueue::new(),
            nodes: Vec::new(),
            cancelled: HashSet::new(),
            link_free_at: vec![vec![SimTime::ZERO; dc_count]; dc_count],
            down: vec![false; dc_count],
            stats: WorldStats::default(),
            effects_scratch: Vec::new(),
            arrivals: HashMap::new(),
            inject_emit: 0,
        }
    }

    /// Queues node `i`'s `on_start` now (spawn and restart).
    fn start(&mut self, i: usize) {
        let node = &mut self.nodes[i];
        let key = node.next_key(self.now);
        self.queue
            .push_keyed(self.now, key, node.id, EventKind::Start);
    }

    /// Executes a single already-popped event, whose time the clock
    /// already reads.
    fn step_event(&mut self, mut ev: Event<M, T>) {
        let i = ev.target.0 as usize;
        if let EventKind::Deliver { bytes, .. } | EventKind::DeliverEnvelope { bytes, .. } = ev.kind
        {
            match self.admit(ev, bytes) {
                Some(admitted) => ev = admitted,
                None => return,
            }
        }
        match ev.kind {
            EventKind::Start => {
                if self.nodes[i].alive {
                    self.dispatch(i, DispatchKind::Start);
                    self.end_event(i);
                }
            }
            EventKind::Timer {
                id,
                msg,
                incarnation,
            } => {
                let node = &self.nodes[i];
                if self.cancelled.remove(&id) || !node.alive || incarnation != node.incarnation {
                    return;
                }
                self.stats.timers_fired += 1;
                self.dispatch(i, DispatchKind::Timer(msg));
                self.end_event(i);
            }
            EventKind::Deliver { from, msg, .. } => {
                self.dispatch(i, DispatchKind::Message { from, msg });
                self.end_event(i);
            }
            EventKind::DeliverEnvelope { from, msgs, .. } => {
                // Unpack before dispatch: payloads in send order, and
                // everything the handlers send batches into the reply
                // flush below.
                for msg in msgs {
                    self.dispatch(i, DispatchKind::Message { from, msg });
                }
                self.end_event(i);
            }
            EventKind::Deadline(kind) => {
                if self.nodes[i].batches[kind as usize].due(ev.at) {
                    self.close(i, kind);
                }
            }
        }
    }

    /// Admits an arriving frame of `bytes` (a bare message or an
    /// envelope) at its target: dropped at a dead node or in a failed
    /// data center, deferred while the node is busy, otherwise charged
    /// its service cost and handed back for dispatch.
    fn admit(&mut self, mut ev: Event<M, T>, bytes: usize) -> Option<Event<M, T>> {
        let tracing = self.tracer.is_some();
        let node = &mut self.nodes[ev.target.0 as usize];
        if !node.alive || self.down[node.dc.0 as usize] {
            self.stats.dropped += 1;
            if tracing {
                self.arrivals.remove(&(ev.key.node, ev.key.emit));
            }
            return None;
        }
        // Model per-message CPU cost: a busy node defers handling.
        if node.busy_until > ev.at {
            if tracing {
                // Remember when the frame first reached the busy node:
                // the receive span starts there, not at the deferred
                // handling time.
                self.arrivals
                    .entry((ev.key.node, ev.key.emit))
                    .or_insert(ev.at);
            }
            ev.at = node.busy_until;
            self.queue.push_deferred(ev);
            return None;
        }
        // One service floor plus the per-byte cost of the whole frame —
        // for an envelope, the amortization coalescing buys.
        let cost = self.config.service_cost(bytes);
        node.busy_until = ev.at + cost;
        node.profile.sim_busy += cost;
        self.stats.delivered += 1;
        if let Some(tracer) = &self.tracer {
            let arrived = self.arrivals.remove(&(ev.key.node, ev.key.emit));
            tracer.span(Span {
                node: ev.target,
                dc: node.dc,
                phase: Phase::NetService,
                start: arrived.unwrap_or(ev.at),
                end: ev.at + cost,
                txn: None,
                key: None,
                class: None,
            });
        }
        Some(ev)
    }

    /// Charges node `i` one fsync of its WAL on top of whatever the node
    /// is already busy with. With `fsync_latency` zero nothing is
    /// charged or counted, but a traced run still gets its (zero-length)
    /// span: it marks where a durable append happened.
    fn charge_fsync(&mut self, i: usize) {
        let latency = self.config.fsync_latency;
        let node = &mut self.nodes[i];
        let start = node.busy_until.max(self.now);
        if latency > SimDuration::ZERO {
            node.busy_until = start + latency;
            node.profile.sim_busy += latency;
            node.disk.fsync();
            self.stats.fsyncs += 1;
        }
        if let Some(tracer) = &self.tracer {
            tracer.span(Span {
                node: node.id,
                dc: node.dc,
                phase: Phase::WalFsync,
                start,
                end: start + latency,
                txn: None,
                key: None,
                class: None,
            });
        }
    }

    /// Node `i`'s batch of `kind` took more: close it now if
    /// `close_now`, else open it — arm its deadline one window out —
    /// unless it is open already.
    fn join(&mut self, i: usize, kind: BatchKind, close_now: bool) {
        let node = &mut self.nodes[i];
        if close_now {
            node.batches[kind as usize].deadline = None;
            self.close(i, kind);
        } else if node.batches[kind as usize].deadline.is_none() {
            let deadline = self.now + self.config.window(kind);
            node.batches[kind as usize].deadline = Some(deadline);
            let key = node.next_key(self.now);
            let kind = EventKind::Deadline(kind);
            self.queue.push_keyed(deadline, key, node.id, kind);
        }
    }

    /// Closes node `i`'s batch of `kind`. Closing the WAL batch charges
    /// its one covering fsync and so releases the whole pen; closing
    /// the outbox ships the pen, or only its read replies while the WAL
    /// batch holds it.
    fn close(&mut self, i: usize, kind: BatchKind) {
        if kind == BatchKind::Wal {
            self.charge_fsync(i);
        }
        let reads_only = self.nodes[i].holding(&self.config);
        let mut pen = std::mem::take(&mut self.nodes[i].outbox);
        for s in pen.extract_if(.., |s| !reads_only || s.class == TrafficClass::Read) {
            self.ship(i, s);
        }
        // What stays keeps its order, and the pen keeps its capacity.
        self.nodes[i].outbox = pen;
    }

    /// The end of an event at node `i`: while a WAL batch holds the pen
    /// only read replies leave; otherwise the outbox batch takes what
    /// the event buffered.
    fn end_event(&mut self, i: usize) {
        let config = &self.config;
        let node = &self.nodes[i];
        if node.holding(config) {
            self.close(i, BatchKind::Outbox);
        } else if config.coalesce && !node.outbox.is_empty() {
            let at_once = config.coalesce_window == SimDuration::ZERO;
            self.join(i, BatchKind::Outbox, at_once);
        }
    }

    /// A handler at node `i` appended to the WAL. Under group commit the
    /// append joins the WAL batch, which closes at once when
    /// `group_commit_bytes` are unsynced. Otherwise the append pays its
    /// own fsync here, after its handler and before its effects: the
    /// degenerate batch, closed at once and holding nothing.
    fn wal_appended(&mut self, i: usize) {
        let config = &self.config;
        let node = &self.nodes[i];
        if node.holding(config) {
            let full = node.disk.unsynced_bytes() >= config.group_commit_bytes;
            self.join(i, BatchKind::Wal, full);
        } else {
            self.charge_fsync(i);
        }
    }

    fn dispatch(&mut self, i: usize, kind: DispatchKind<M, T>) {
        let node = &mut self.nodes[i];
        // Take the process out so effects application can borrow `self`.
        let Some(mut proc_) = node.proc_.take() else {
            return;
        };
        self.stats.events_handled += 1;
        node.profile.events += 1;
        // Detect durable appends by WAL-byte delta: the disk is the one
        // source of truth, so no handler needs an explicit fsync call.
        let wal_before = node.disk.stats().wal_bytes_written;
        let wall_start = self
            .profile_wall
            .then(|| (kind.label(), std::time::Instant::now()));
        let mut effects = std::mem::take(&mut self.effects_scratch);
        let mut ctx = Ctx::with_disk(
            self.now,
            node.id,
            &mut node.rng,
            &mut effects,
            &mut node.next_timer,
            &mut node.disk,
        );
        match kind {
            DispatchKind::Start => proc_.on_start(&mut ctx),
            DispatchKind::Timer(msg) => proc_.on_timer(msg, &mut ctx),
            DispatchKind::Message { from, msg } => proc_.on_message(from, msg, &mut ctx),
        }
        if let Some(((label, delivered), t0)) = wall_start {
            node.profile.record(label, delivered, t0.elapsed());
        }
        let appended = node.disk.stats().wal_bytes_written > wal_before;
        node.proc_ = Some(proc_);
        if appended && (self.config.fsync_latency > SimDuration::ZERO || self.tracer.is_some()) {
            self.wal_appended(i);
        }
        for effect in effects.drain(..) {
            self.apply_effect(i, effect);
        }
        self.effects_scratch = effects;
    }

    fn apply_effect(&mut self, i: usize, effect: Effect<M, T>) {
        let node = &mut self.nodes[i];
        match effect {
            Effect::Send {
                to,
                msg,
                bytes,
                class,
            } => {
                let config = &self.config;
                if config.coalesce || (class != TrafficClass::Read && node.holding(config)) {
                    node.pen(to, class, msg, bytes, config.coalesce);
                } else {
                    // The per-message transport: one bare frame, now.
                    let from = node.id;
                    let kind = EventKind::Deliver { from, msg, bytes };
                    self.push_to_network(i, to, class, kind);
                }
            }
            Effect::SetTimer { id, delay, msg } => {
                let incarnation = node.incarnation;
                let key = node.next_key(self.now);
                let kind = EventKind::Timer {
                    id,
                    msg,
                    incarnation,
                };
                self.queue.push_keyed(self.now + delay, key, node.id, kind);
            }
            Effect::CancelTimer(id) => {
                self.cancelled.insert(id);
            }
        }
    }

    /// Ships one outbox slot: a single buffered message goes out as the
    /// same bare frame the per-message transport would send; two or more
    /// ship as one envelope (sized by [`envelope_wire_bytes`], matching
    /// the `mdcc_common::wire::Envelope` codec byte for byte).
    fn ship(&mut self, i: usize, mut s: OutboxSlot<M>) {
        let from = self.nodes[i].id;
        let kind = if s.msgs.len() == 1 {
            let bytes = s.framed_sizes[0];
            let msg = s.msgs.pop().expect("one message");
            EventKind::Deliver { from, msg, bytes }
        } else {
            let bytes = envelope_wire_bytes(s.framed_sizes.iter().copied());
            let msgs = s.msgs;
            EventKind::DeliverEnvelope { from, msgs, bytes }
        };
        self.push_to_network(i, s.to, s.class, kind);
    }

    /// Hands one wire frame (a bare message or an envelope) from node
    /// `i` to the network: accounts it, occupies the directed DC-pair
    /// link FIFO for its transmission delay, and schedules delivery (or
    /// drops it, per the loss model).
    fn push_to_network(
        &mut self,
        i: usize,
        to: NodeId,
        class: TrafficClass,
        kind: EventKind<M, T>,
    ) {
        let (bytes, payloads) = kind.frame();
        self.stats.count_sent(class, bytes, payloads);
        let from_dc = self.nodes[i].dc;
        let to_dc = self.topology.dc_of(to);
        // Transmission: the frame occupies the directed DC-pair link
        // for `bytes / bandwidth`, FIFO behind whatever is already on
        // it — a burst congests the link instead of teleporting. Lost
        // frames occupy the link too: the sender transmits the bytes
        // before the network eats them, so billed bytes and link
        // congestion stay consistent.
        let tx = self.net.transmission_delay(from_dc, to_dc, bytes);
        let link = &mut self.link_free_at[from_dc.0 as usize][to_dc.0 as usize];
        let start = (*link).max(self.now);
        *link = start + tx;
        if let Some(tracer) = &self.tracer {
            self.trace_transmit(tracer, i, to_dc, start, start + tx, class);
        }
        let node = &mut self.nodes[i];
        match self.net.sample_delay(from_dc, to_dc, &mut node.rng) {
            Some(propagation) => {
                let key = node.next_key(self.now);
                self.queue
                    .push_keyed(start + tx + propagation, key, to, kind);
            }
            None => self.stats.dropped += 1,
        }
    }

    /// Records a frame's transmission from node `i` on the link to
    /// `to_dc`, from `start` to `end`: its wait behind earlier traffic
    /// (if it waited), the transmission itself, and the link's backlog.
    fn trace_transmit(
        &self,
        tracer: &TraceHandle,
        i: usize,
        to_dc: DcId,
        start: SimTime,
        end: SimTime,
        class: TrafficClass,
    ) {
        let from = &self.nodes[i];
        let span = |phase, start, end| Span {
            node: from.id,
            dc: from.dc,
            phase,
            start,
            end,
            txn: None,
            key: None,
            class: Some(class_label(class)),
        };
        if start > self.now {
            tracer.span(span(Phase::NetQueue, self.now, start));
        }
        tracer.span(span(Phase::NetTransmit, start, end));
        tracer.counter(CounterSample {
            name: "link",
            from: from.dc,
            to: to_dc,
            at: self.now,
            backlog_us: (end - self.now).as_micros(),
        });
    }

    /// Attaches a trace collector; the transport and the fsync model
    /// record spans into it from now on. Tracing is observational only —
    /// it never consumes randomness or reschedules an event, so a traced
    /// run's execution is identical to an untraced one.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.profile_wall = tracer.profile();
        self.tracer = tracer.enabled().then_some(tracer);
    }

    /// Per-node event-loop profile, hottest (by virtual busy time,
    /// events as tie-break) first.
    pub fn profile(&self) -> Vec<ProfileEntry> {
        let mut entries: Vec<ProfileEntry> = self
            .nodes
            .iter()
            .map(|n| ProfileEntry {
                node: n.id,
                dc: n.dc,
                events: n.profile.events,
                sim_busy: n.profile.sim_busy,
                wall: n.profile.wall,
            })
            .collect();
        entries.sort_by(|a, b| {
            (b.sim_busy, b.events, a.node.0).cmp(&(a.sim_busy, a.events, b.node.0))
        });
        entries
    }

    /// The profile split by message and timer kind: one row per (node,
    /// kind) the node handled, most host time first. Empty unless the
    /// run profiled host time (`TraceConfig::profile`).
    pub fn profile_by_kind(&self) -> Vec<KindProfileEntry> {
        let mut entries: Vec<KindProfileEntry> = Vec::new();
        for n in &self.nodes {
            entries.extend(n.profile.kinds.iter().map(|k| KindProfileEntry {
                node: n.id,
                kind: k.kind,
                events: k.events,
                wall: k.wall,
                msgs: k.msgs,
                bytes: k.bytes,
            }));
        }
        entries.sort_by(|a, b| (b.wall, a.node.0, a.kind).cmp(&(a.wall, b.node.0, b.kind)));
        entries
    }

    /// Spawns a process in `dc`; its `on_start` runs at the current time.
    pub fn spawn(&mut self, dc: DcId, proc_: Box<dyn Process<M, T>>) -> NodeId {
        assert!(
            (dc.0 as usize) < self.net.dc_count(),
            "dc outside network model"
        );
        let id = self.topology.add_node(dc);
        let seed = node_rng_seed(self.config.seed, id.0);
        self.nodes.push(Node::new(id, dc, proc_, seed));
        self.start(id.0 as usize);
        id
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node-to-DC mapping.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// World-level counters.
    pub fn stats(&self) -> WorldStats {
        self.stats
    }

    /// The world's record of a node.
    fn node(&self, node: NodeId) -> &Node<M, T> {
        &self.nodes[node.0 as usize]
    }

    /// The world's record of a node, mutably.
    fn node_mut(&mut self, node: NodeId) -> &mut Node<M, T> {
        &mut self.nodes[node.0 as usize]
    }

    /// Injects a message from outside the simulation (tests only; regular
    /// traffic should originate in processes).
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: M) {
        let bytes = msg.wire_bytes();
        let key = EventKey {
            cause: self.now,
            node: u32::MAX,
            emit: self.inject_emit,
        };
        self.inject_emit += 1;
        let kind = EventKind::Deliver { from, msg, bytes };
        self.queue.push_keyed(self.now, key, to, kind);
    }

    /// Marks a node crashed: inbound messages drop, timers are suppressed,
    /// the process is no longer invoked, and whatever its outbox still
    /// buffered dies unsent.
    pub fn crash_node(&mut self, node: NodeId) {
        let node = &mut self.nodes[node.0 as usize];
        if node.holding(&self.config) {
            // Power loss mid-batch: the WAL keeps exactly its durable
            // prefix. The batch's acks were held in the outbox, which
            // dies below, so no acknowledged transaction dies un-logged
            // — the crash-consistency contract of group commit.
            node.disk.discard_unsynced();
        }
        node.alive = false;
        node.outbox.clear();
        // Orphan both deadlines: they fire as no-ops instead of closing
        // whatever a revived incarnation batches later.
        node.batches = [Batch::default(); 2];
    }

    /// Revives a crashed node (its state is whatever it was at crash time,
    /// mirroring a process *pause*; see [`World::restart_node`] for a real
    /// restart that loses volatile state).
    pub fn revive_node(&mut self, node: NodeId) {
        self.node_mut(node).alive = true;
    }

    /// Restarts a crashed node as a fresh process: the old incarnation's
    /// volatile state (including its pending timers) is gone, its disk is
    /// preserved, and `proc_` — typically rebuilt from that disk — runs
    /// `on_start` at the current time.
    ///
    /// # Panics
    ///
    /// Panics if the node is still alive; crash it first.
    pub fn restart_node(&mut self, node: NodeId, proc_: Box<dyn Process<M, T>>) {
        let now = self.now;
        let n = self.node_mut(node);
        assert!(!n.alive, "restart of a live node: crash it first");
        n.proc_ = Some(proc_);
        n.alive = true;
        n.incarnation += 1;
        n.busy_until = now;
        self.start(node.0 as usize);
    }

    /// Read access to a node's durable disk.
    pub fn disk(&self, node: NodeId) -> &Disk {
        &self.node(node).disk
    }

    /// Write access to a node's durable disk (harness-side setup, e.g.
    /// seeding an initial checkpoint before the simulation starts).
    pub fn disk_mut(&mut self, node: NodeId) -> &mut Disk {
        &mut self.node_mut(node).disk
    }

    /// Simulates a data-center outage the way the paper does (§5.3.4):
    /// nodes in `dc` stop *receiving* messages. Their timers still fire,
    /// so coordinators inside the failed DC keep timing out — which is the
    /// externally observable behaviour of an unreachable region.
    pub fn fail_dc(&mut self, dc: DcId) {
        self.down[dc.0 as usize] = true;
    }

    /// Ends a data-center outage.
    pub fn heal_dc(&mut self, dc: DcId) {
        self.down[dc.0 as usize] = false;
    }

    /// True while `dc` is failed.
    pub fn is_dc_down(&self, dc: DcId) -> bool {
        self.down[dc.0 as usize]
    }

    /// Immutable access to a process, downcast to its concrete type.
    pub fn get<P: Process<M, T>>(&self, node: NodeId) -> Option<&P> {
        self.node(node)
            .proc_
            .as_deref()
            .and_then(|p| (p as &dyn std::any::Any).downcast_ref())
    }

    /// Mutable access to a process, downcast to its concrete type.
    pub fn get_mut<P: Process<M, T>>(&mut self, node: NodeId) -> Option<&mut P> {
        self.node_mut(node)
            .proc_
            .as_deref_mut()
            .and_then(|p| (p as &mut dyn std::any::Any).downcast_mut())
    }

    /// Executes the earliest pending event, after moving the clock to
    /// its time. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        self.step_event(ev);
        true
    }

    /// Runs all events up to and including time `until`, then sets the
    /// clock to `until`.
    pub fn run_until(&mut self, until: SimTime) {
        while self.queue.peek_time().is_some_and(|t| t <= until) {
            self.step();
        }
        self.now = self.now.max(until);
    }

    /// Runs for `d` of virtual time from now.
    pub fn run_for(&mut self, d: SimDuration) {
        let until = self.now + d;
        self.run_until(until);
    }

    /// Drains the queue completely (tests; real experiments use
    /// [`World::run_until`] because closed-loop clients never go idle).
    pub fn run_to_quiescence(&mut self) {
        while self.step() {}
    }

    /// Drains the queue like [`World::run_to_quiescence`], but panics
    /// after `max_steps` events instead of livelocking on a
    /// self-perpetuating timer/message loop. The panic names the process
    /// that handled the most events (the likely offender) and the next
    /// pending event's target. Prefer this in tests: a buggy process
    /// that re-arms itself forever turns into a diagnosable failure
    /// instead of a hung run.
    ///
    /// # Panics
    ///
    /// Panics when `max_steps` events ran without reaching quiescence.
    pub fn run_to_quiescence_bounded(&mut self, max_steps: u64) {
        let mut steps = 0u64;
        let mut handled: HashMap<u32, u64> = HashMap::new();
        while let Some(next) = self.queue.peek_target() {
            if steps >= max_steps {
                let (&hottest, &count) = handled
                    .iter()
                    // Max count; ties break toward the smallest id so
                    // the panic message is deterministic.
                    .max_by_key(|(id, c)| (**c, std::cmp::Reverse(**id)))
                    .expect("at least one event was handled");
                panic!(
                    "run_to_quiescence_bounded: no quiescence after {max_steps} steps; \
                     process {} handled {count} of them (next event targets {})",
                    NodeId(hottest),
                    next
                );
            }
            *handled.entry(next.0).or_default() += 1;
            steps += 1;
            self.step();
        }
    }
}

enum DispatchKind<M, T> {
    Start,
    Timer(T),
    Message { from: NodeId, msg: M },
}

impl<M: NetMessage, T: TimerPayload> DispatchKind<M, T> {
    /// The profiler's label for this call, and the framed size of the
    /// message it delivers, if it delivers one.
    fn label(&self) -> (&'static str, Option<u64>) {
        match self {
            DispatchKind::Start => ("start", None),
            DispatchKind::Timer(tick) => (TimerPayload::kind(tick), None),
            DispatchKind::Message { msg, .. } => {
                (NetMessage::kind(msg), Some(msg.wire_bytes() as u64))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetworkModel;
    use mdcc_common::SimDuration;

    /// Ping-pong pair recording receive times; used to verify latency and
    /// determinism.
    struct Pinger {
        peer: NodeId,
        rounds: u32,
        log: Vec<(SimTime, u32)>,
    }

    impl Process<u32> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.send(self.peer, 0);
        }
        fn on_message(&mut self, _from: NodeId, msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.log.push((ctx.now, msg));
            if msg < self.rounds {
                ctx.send(self.peer, msg + 1);
            }
        }
    }

    fn two_node_world(seed: u64) -> (World<u32>, NodeId, NodeId) {
        let net = NetworkModel::uniform(2, 100.0, 1.0).with_jitter(0.0);
        let mut w = World::new(
            net,
            WorldConfig {
                seed,
                service_time: SimDuration::ZERO,
                service_ns_per_byte: 0,
                ..WorldConfig::default()
            },
        );
        // Pre-assign ids: spawn order is deterministic.
        let a = NodeId(0);
        let b = NodeId(1);
        let pa = Pinger {
            peer: b,
            rounds: 10,
            log: Vec::new(),
        };
        let pb = Pinger {
            peer: a,
            rounds: 10,
            log: Vec::new(),
        };
        assert_eq!(w.spawn(DcId(0), Box::new(pa)), a);
        assert_eq!(w.spawn(DcId(1), Box::new(pb)), b);
        (w, a, b)
    }

    #[test]
    fn ping_pong_measures_one_way_latency() {
        let (mut w, _a, b) = two_node_world(1);
        w.run_to_quiescence_bounded(100_000);
        let pb: &Pinger = w.get(b).unwrap();
        // Both pingers initiate at t=0; each hop takes 50 ms one-way, so b
        // receives message k at (k+1)*50 ms.
        assert_eq!(pb.log[0].0.as_millis(), 50);
        assert_eq!(pb.log[0].1, 0);
        assert_eq!(pb.log[1].0.as_millis(), 100);
        assert_eq!(pb.log[1].1, 1);
    }

    #[test]
    fn same_seed_same_execution() {
        let (mut w1, a1, _) = two_node_world(99);
        let (mut w2, a2, _) = two_node_world(99);
        w1.run_to_quiescence_bounded(100_000);
        w2.run_to_quiescence_bounded(100_000);
        let l1 = &w1.get::<Pinger>(a1).unwrap().log;
        let l2 = &w2.get::<Pinger>(a2).unwrap().log;
        assert_eq!(l1, l2);
        assert_eq!(w1.stats(), w2.stats());
    }

    #[test]
    fn crashed_node_receives_nothing() {
        let (mut w, a, b) = two_node_world(5);
        w.crash_node(b);
        w.run_to_quiescence_bounded(100_000);
        // b was crashed before starting: it neither sends nor receives,
        // and a's initial ping to it is dropped.
        assert!(w.get::<Pinger>(b).unwrap().log.is_empty());
        assert!(w.get::<Pinger>(a).unwrap().log.is_empty());
        assert_eq!(w.stats().dropped, 1, "a's initial ping dropped");
    }

    #[test]
    fn failed_dc_drops_inbound_only() {
        let (mut w, a, b) = two_node_world(5);
        w.fail_dc(DcId(1));
        w.run_to_quiescence_bounded(100_000);
        // b never hears a's ping; a still received b's initial ping (sent
        // from inside the failed DC, which the paper's fault model allows).
        assert!(w.get::<Pinger>(b).unwrap().log.is_empty());
        assert_eq!(w.get::<Pinger>(a).unwrap().log.len(), 1);
        w.heal_dc(DcId(1));
        assert!(!w.is_dc_down(DcId(1)));
    }

    #[test]
    fn service_time_serializes_a_hot_node() {
        struct Sink {
            handled: Vec<SimTime>,
        }
        impl Process<u32> for Sink {
            fn on_message(&mut self, _f: NodeId, _m: u32, ctx: &mut Ctx<'_, u32>) {
                self.handled.push(ctx.now);
            }
        }
        struct Blast {
            target: NodeId,
        }
        impl Process<u32> for Blast {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                for i in 0..4 {
                    ctx.send(self.target, i);
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: u32, _ctx: &mut Ctx<'_, u32>) {}
        }
        let net = NetworkModel::uniform(1, 0.0, 10.0).with_jitter(0.0);
        let mut w = World::new(
            net,
            WorldConfig {
                seed: 0,
                service_time: SimDuration::from_millis(2),
                service_ns_per_byte: 0,
                // Per-message service accounting is what this test pins
                // down; coalescing would batch the blast into one frame.
                coalesce: false,
                ..WorldConfig::default()
            },
        );
        let sink = w.spawn(DcId(0), Box::new(Sink { handled: vec![] }));
        let _ = w.spawn(DcId(0), Box::new(Blast { target: sink }));
        w.run_to_quiescence_bounded(100_000);
        let times: Vec<u64> = w
            .get::<Sink>(sink)
            .unwrap()
            .handled
            .iter()
            .map(|t| t.as_millis())
            .collect();
        // All four arrive at t=5 (half of 10 ms intra RTT); the 2 ms service
        // time spaces handling at 5,7,9,11.
        assert_eq!(times, vec![5, 7, 9, 11]);
    }

    /// A payload whose wire size is chosen by the test.
    #[derive(Debug, Clone, Copy)]
    struct Blob(usize);
    impl crate::process::NetMessage for Blob {
        fn wire_bytes(&self) -> usize {
            self.0
        }
        fn traffic_class(&self) -> crate::process::TrafficClass {
            crate::process::TrafficClass::Sync
        }
    }

    struct BlobSink {
        arrived: Vec<SimTime>,
    }
    impl Process<Blob> for BlobSink {
        fn on_message(&mut self, _f: NodeId, _m: Blob, ctx: &mut Ctx<'_, Blob>) {
            self.arrived.push(ctx.now);
        }
    }

    struct BlobBlast {
        target: NodeId,
        sizes: Vec<usize>,
    }
    impl Process<Blob> for BlobBlast {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Blob>) {
            for &s in &self.sizes {
                ctx.send(self.target, Blob(s));
            }
        }
        fn on_message(&mut self, _f: NodeId, _m: Blob, _ctx: &mut Ctx<'_, Blob>) {}
    }

    fn blob_world(sizes: Vec<usize>) -> (World<Blob>, NodeId) {
        // 1 MB/s inter-DC, 100 ms RTT, no jitter: transmission delay is
        // 1 ms per KB on top of the 50 ms propagation delay.
        let net = NetworkModel::uniform(2, 100.0, 1.0)
            .with_jitter(0.0)
            .with_inter_dc_bandwidth(1_000_000.0);
        let mut w = World::new(
            net,
            WorldConfig {
                seed: 1,
                service_time: SimDuration::ZERO,
                service_ns_per_byte: 0,
                // These tests measure per-message transmission and link
                // queueing; the coalescing tests below cover envelopes.
                coalesce: false,
                ..WorldConfig::default()
            },
        );
        let sink = w.spawn(DcId(1), Box::new(BlobSink { arrived: vec![] }));
        let _ = w.spawn(
            DcId(0),
            Box::new(BlobBlast {
                target: sink,
                sizes,
            }),
        );
        (w, sink)
    }

    #[test]
    fn transmission_delay_adds_to_propagation() {
        let (mut w, sink) = blob_world(vec![100_000]);
        w.run_to_quiescence_bounded(100_000);
        // 100 KB at 1 MB/s = 100 ms transmission + 50 ms propagation.
        let arrived = &w.get::<BlobSink>(sink).unwrap().arrived;
        assert_eq!(arrived.len(), 1);
        assert_eq!(arrived[0].as_millis(), 150);
    }

    #[test]
    fn bursts_queue_fifo_on_the_link() {
        // Three 100 KB messages sent at t=0 share one 1 MB/s link: they
        // serialize at 100 ms apiece instead of teleporting in parallel.
        let (mut w, sink) = blob_world(vec![100_000, 100_000, 100_000]);
        w.run_to_quiescence_bounded(100_000);
        let times: Vec<u64> = w
            .get::<BlobSink>(sink)
            .unwrap()
            .arrived
            .iter()
            .map(|t| t.as_millis())
            .collect();
        assert_eq!(times, vec![150, 250, 350]);
    }

    #[test]
    fn small_message_queues_behind_a_large_one() {
        // A 1-byte message sent right after a 500 KB one waits for the
        // link: the burst congests it.
        let (mut w, sink) = blob_world(vec![500_000, 1]);
        w.run_to_quiescence_bounded(100_000);
        let times: Vec<u64> = w
            .get::<BlobSink>(sink)
            .unwrap()
            .arrived
            .iter()
            .map(|t| t.as_millis())
            .collect();
        // First: 500 ms tx + 50 ms prop. Second: starts at 500 ms, ~0 tx.
        assert_eq!(times, vec![550, 550]);
    }

    #[test]
    fn byte_and_class_accounting() {
        use crate::process::TrafficClass;
        let (mut w, _) = blob_world(vec![100_000, 200]);
        w.run_to_quiescence_bounded(100_000);
        let stats = w.stats();
        assert_eq!(stats.sent, 2);
        assert_eq!(stats.bytes_sent, 100_200);
        assert_eq!(
            stats.payload_msgs, 2,
            "frames == messages without coalescing"
        );
        assert_eq!(stats.class(TrafficClass::Sync).msgs, 2);
        assert_eq!(stats.class(TrafficClass::Sync).bytes, 100_200);
        assert_eq!(stats.class(TrafficClass::Sync).payloads, 2);
        assert_eq!(stats.class(TrafficClass::Protocol).msgs, 0);
    }

    #[test]
    fn per_byte_service_time_scales_with_message_size() {
        struct Sink {
            handled: Vec<SimTime>,
        }
        impl Process<Blob> for Sink {
            fn on_message(&mut self, _f: NodeId, _m: Blob, ctx: &mut Ctx<'_, Blob>) {
                self.handled.push(ctx.now);
            }
        }
        struct Blast {
            target: NodeId,
        }
        impl Process<Blob> for Blast {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Blob>) {
                // One large then one tiny message, same instant.
                ctx.send(self.target, Blob(100_000));
                ctx.send(self.target, Blob(1));
            }
            fn on_message(&mut self, _f: NodeId, _m: Blob, _ctx: &mut Ctx<'_, Blob>) {}
        }
        let net = NetworkModel::uniform(1, 0.0, 10.0).with_jitter(0.0);
        let mut w = World::new(
            net,
            WorldConfig {
                seed: 0,
                service_time: SimDuration::from_millis(1),
                service_ns_per_byte: 1_000, // 1 µs per byte
                coalesce: false,
                ..WorldConfig::default()
            },
        );
        let sink = w.spawn(DcId(0), Box::new(Sink { handled: vec![] }));
        let _ = w.spawn(DcId(0), Box::new(Blast { target: sink }));
        w.run_to_quiescence_bounded(100_000);
        let times: Vec<u64> = w
            .get::<Sink>(sink)
            .unwrap()
            .handled
            .iter()
            .map(|t| t.as_millis())
            .collect();
        // Both arrive at 5 ms (half the 10 ms intra RTT; tiny tx delay).
        // The 100 KB message costs 1 ms + 100 ms to handle, so the small
        // one is deferred until 106 ms.
        assert_eq!(times, vec![5, 106]);
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct T {
            fired: Vec<u32>,
        }
        impl Process<u32> for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                ctx.set_timer(SimDuration::from_millis(10), 1);
                let id = ctx.set_timer(SimDuration::from_millis(20), 2);
                ctx.cancel_timer(id);
                ctx.set_timer(SimDuration::from_millis(30), 3);
            }
            fn on_message(&mut self, _f: NodeId, _m: u32, _ctx: &mut Ctx<'_, u32>) {}
            fn on_timer(&mut self, msg: u32, _ctx: &mut Ctx<'_, u32>) {
                self.fired.push(msg);
            }
        }
        let net = NetworkModel::uniform(1, 0.0, 1.0);
        let mut w = World::new(net, WorldConfig::default());
        let n = w.spawn(DcId(0), Box::new(T { fired: vec![] }));
        w.run_to_quiescence_bounded(100_000);
        assert_eq!(w.get::<T>(n).unwrap().fired, vec![1, 3]);
        assert_eq!(w.stats().timers_fired, 2);
    }

    /// Counts its own timer ticks and persists each tick to its disk.
    struct Ticker {
        period: SimDuration,
        ticks: u32,
    }
    impl Process<u32> for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.set_timer(self.period, 0);
        }
        fn on_message(&mut self, _f: NodeId, _m: u32, _ctx: &mut Ctx<'_, u32>) {}
        fn on_timer(&mut self, _msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.ticks += 1;
            if let Some(disk) = ctx.disk() {
                disk.append_wal(&[self.ticks as u8]);
            }
            ctx.set_timer(self.period, 0);
        }
    }

    #[test]
    fn restart_replaces_the_process_and_preserves_the_disk() {
        let net = NetworkModel::uniform(1, 0.0, 1.0);
        let mut w: World<u32> = World::new(net, WorldConfig::default());
        let n = w.spawn(
            DcId(0),
            Box::new(Ticker {
                period: SimDuration::from_millis(10),
                ticks: 0,
            }),
        );
        w.run_until(SimTime::from_millis(35));
        assert_eq!(w.get::<Ticker>(n).unwrap().ticks, 3);
        assert_eq!(w.disk(n).wal(), &[1, 2, 3]);

        w.crash_node(n);
        w.run_until(SimTime::from_millis(75));
        assert_eq!(
            w.get::<Ticker>(n).unwrap().ticks,
            3,
            "dead nodes tick no timers"
        );

        w.restart_node(
            n,
            Box::new(Ticker {
                period: SimDuration::from_millis(10),
                ticks: 0,
            }),
        );
        w.run_until(SimTime::from_millis(105));
        let t = w.get::<Ticker>(n).unwrap();
        assert_eq!(t.ticks, 3, "fresh process restarted its own timer chain");
        assert_eq!(
            w.disk(n).wal(),
            &[1, 2, 3, 1, 2, 3],
            "disk survived the crash; new incarnation appended"
        );
    }

    #[test]
    fn stale_incarnation_timers_never_fire() {
        // The old incarnation arms a timer far in the future; after a
        // crash + restart the timer must not leak into the new process.
        let net = NetworkModel::uniform(1, 0.0, 1.0);
        let mut w: World<u32> = World::new(net, WorldConfig::default());
        let n = w.spawn(
            DcId(0),
            Box::new(Ticker {
                period: SimDuration::from_secs(1),
                ticks: 0,
            }),
        );
        w.run_until(SimTime::from_millis(1)); // arms the first timer
        w.crash_node(n);
        w.restart_node(
            n,
            Box::new(Ticker {
                period: SimDuration::from_secs(10),
                ticks: 0,
            }),
        );
        w.run_until(SimTime::from_secs(5));
        assert_eq!(
            w.get::<Ticker>(n).unwrap().ticks,
            0,
            "the 1 s timer belonged to the dead incarnation"
        );
        w.run_until(SimTime::from_secs(11));
        assert_eq!(w.get::<Ticker>(n).unwrap().ticks, 1, "own timer fires");
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let net = NetworkModel::uniform(1, 0.0, 1.0);
        let mut w: World<u32> = World::new(net, WorldConfig::default());
        w.run_until(SimTime::from_secs(5));
        assert_eq!(w.now(), SimTime::from_secs(5));
    }

    // -----------------------------------------------------------------
    // Destination-coalesced envelopes.
    // -----------------------------------------------------------------

    /// Sends every blob in one handler, coalescing on.
    fn coalesced_blob_world(sizes: Vec<usize>) -> (World<Blob>, NodeId) {
        let net = NetworkModel::uniform(2, 100.0, 1.0)
            .with_jitter(0.0)
            .with_inter_dc_bandwidth(1_000_000.0);
        let mut w = World::new(
            net,
            WorldConfig {
                seed: 1,
                service_time: SimDuration::ZERO,
                service_ns_per_byte: 0,
                ..WorldConfig::default()
            },
        );
        let sink = w.spawn(DcId(1), Box::new(BlobSink { arrived: vec![] }));
        let _ = w.spawn(
            DcId(0),
            Box::new(BlobBlast {
                target: sink,
                sizes,
            }),
        );
        (w, sink)
    }

    #[test]
    fn same_event_sends_coalesce_into_one_envelope() {
        let sizes = vec![100_000usize, 200, 5_000];
        let (mut w, sink) = coalesced_blob_world(sizes.clone());
        w.run_to_quiescence_bounded(100);
        let stats = w.stats();
        assert_eq!(stats.sent, 1, "three same-slot sends ship as one frame");
        assert_eq!(stats.payload_msgs, 3);
        assert_eq!(
            stats.bytes_sent,
            mdcc_common::wire::envelope_wire_bytes(sizes) as u64,
            "the envelope is billed exactly what its codec encoding costs"
        );
        assert_eq!(stats.class(TrafficClass::Sync).msgs, 1);
        assert_eq!(stats.class(TrafficClass::Sync).payloads, 3);
        // All three payloads dispatched at the envelope's arrival.
        let arrived = &w.get::<BlobSink>(sink).unwrap().arrived;
        assert_eq!(arrived.len(), 3);
        assert!(arrived.windows(2).all(|p| p[0] == p[1]));
    }

    #[test]
    fn singleton_flush_is_byte_identical_to_legacy() {
        let (mut w_on, _) = coalesced_blob_world(vec![100_000]);
        let (mut w_off, _) = blob_world(vec![100_000]);
        w_on.run_to_quiescence_bounded(100);
        w_off.run_to_quiescence_bounded(100);
        assert_eq!(
            w_on.stats(),
            w_off.stats(),
            "a lone message never pays envelope overhead"
        );
    }

    /// One u32 per timer tick — cross-event traffic for the Nagle tests.
    struct Ticker10 {
        target: NodeId,
        sent: u32,
    }
    impl Process<u32> for Ticker10 {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_message(&mut self, _f: NodeId, _m: u32, _ctx: &mut Ctx<'_, u32>) {}
        fn on_timer(&mut self, _msg: u32, ctx: &mut Ctx<'_, u32>) {
            ctx.send(self.target, self.sent);
            self.sent += 1;
            if self.sent < 10 {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
    }

    struct SeqSink {
        got: Vec<u32>,
    }
    impl Process<u32> for SeqSink {
        fn on_message(&mut self, _f: NodeId, m: u32, _ctx: &mut Ctx<'_, u32>) {
            self.got.push(m);
        }
    }

    #[test]
    fn nagle_window_batches_across_events_and_keeps_fifo_order() {
        let net = NetworkModel::uniform(2, 100.0, 1.0).with_jitter(0.0);
        let mut w = World::new(
            net,
            WorldConfig {
                seed: 9,
                service_time: SimDuration::ZERO,
                service_ns_per_byte: 0,
                coalesce: true,
                coalesce_window: SimDuration::from_millis(5),
                ..WorldConfig::default()
            },
        );
        let sink = w.spawn(DcId(1), Box::new(SeqSink { got: vec![] }));
        let _ = w.spawn(
            DcId(0),
            Box::new(Ticker10 {
                target: sink,
                sent: 0,
            }),
        );
        w.run_to_quiescence_bounded(1_000);
        let stats = w.stats();
        // Ten one-per-millisecond sends collapse into two 5-wide
        // envelopes (the window re-opens when the first flush drains).
        assert_eq!(stats.payload_msgs, 10);
        assert_eq!(stats.sent, 2, "got {} frames", stats.sent);
        assert_eq!(
            w.get::<SeqSink>(sink).unwrap().got,
            (0..10).collect::<Vec<_>>(),
            "per-(src,dst) FIFO order survives coalescing"
        );
    }

    #[test]
    fn crashed_sender_outbox_dies_unsent() {
        let net = NetworkModel::uniform(2, 100.0, 1.0).with_jitter(0.0);
        let mut w = World::new(
            net,
            WorldConfig {
                seed: 9,
                service_time: SimDuration::ZERO,
                service_ns_per_byte: 0,
                coalesce: true,
                coalesce_window: SimDuration::from_millis(50),
                ..WorldConfig::default()
            },
        );
        let sink = w.spawn(DcId(1), Box::new(SeqSink { got: vec![] }));
        let ticker = w.spawn(
            DcId(0),
            Box::new(Ticker10 {
                target: sink,
                sent: 0,
            }),
        );
        // Let a few sends buffer, then kill the sender before its
        // 50 ms flush fires: the outbox dies with the process.
        w.run_until(SimTime::from_millis(3));
        w.crash_node(ticker);
        w.run_to_quiescence_bounded(1_000);
        assert_eq!(w.stats().sent, 0, "buffered sends died with the sender");
        assert!(w.get::<SeqSink>(sink).unwrap().got.is_empty());
    }

    #[test]
    fn stale_flush_event_cannot_cut_a_revived_senders_window_short() {
        // A crash orphans the scheduled flush; sends buffered after the
        // revival must still get their full Nagle window, not ship at
        // the dead incarnation's deadline.
        struct LateSender {
            sink: NodeId,
        }
        impl Process<u32> for LateSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                ctx.send(self.sink, 1); // buffered; flush due at 50 ms
                ctx.set_timer(SimDuration::from_millis(40), 0);
            }
            fn on_message(&mut self, _f: NodeId, _m: u32, _ctx: &mut Ctx<'_, u32>) {}
            fn on_timer(&mut self, _m: u32, ctx: &mut Ctx<'_, u32>) {
                ctx.send(self.sink, 2); // post-revival batch
            }
        }
        let net = NetworkModel::uniform(2, 100.0, 1.0).with_jitter(0.0);
        let mut w = World::new(
            net,
            WorldConfig {
                seed: 9,
                service_time: SimDuration::ZERO,
                service_ns_per_byte: 0,
                coalesce: true,
                coalesce_window: SimDuration::from_millis(50),
                ..WorldConfig::default()
            },
        );
        let sink = w.spawn(DcId(1), Box::new(SeqSink { got: vec![] }));
        let sender = w.spawn(DcId(0), Box::new(LateSender { sink }));
        // Crash right after the first send buffered (killing it and
        // orphaning the 50 ms flush event), then revive: the timer at
        // 40 ms still belongs to this incarnation and sends msg 2.
        w.run_until(SimTime::from_millis(1));
        w.crash_node(sender);
        w.revive_node(sender);
        w.run_to_quiescence_bounded(1_000);
        let got = &w.get::<SeqSink>(sink).unwrap().got;
        assert_eq!(got, &[2], "only the post-revival send ships");
        // Flush at 40 + 50 = 90 ms, plus 50 ms propagation — not at the
        // stale 50 ms deadline (which would arrive at 100 < 140 only if
        // honored; equality of the full schedule pins it).
        assert_eq!(w.now(), SimTime::from_millis(140));
    }

    /// Re-arms its own timer forever — the livelock shape
    /// `run_to_quiescence_bounded` exists to diagnose.
    struct Perpetual;
    impl Process<u32> for Perpetual {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_message(&mut self, _f: NodeId, _m: u32, _ctx: &mut Ctx<'_, u32>) {}
        fn on_timer(&mut self, _msg: u32, ctx: &mut Ctx<'_, u32>) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "no quiescence after 500 steps")]
    fn bounded_quiescence_names_the_livelocked_process() {
        let net = NetworkModel::uniform(1, 0.0, 1.0);
        let mut w: World<u32> = World::new(net, WorldConfig::default());
        let _ = w.spawn(DcId(0), Box::new(Perpetual));
        w.run_to_quiescence_bounded(500);
    }

    #[test]
    fn bounded_quiescence_passes_terminating_runs() {
        let (mut w, a, _) = two_node_world(3);
        w.run_to_quiescence_bounded(10_000);
        assert_eq!(w.get::<Pinger>(a).unwrap().log.len(), 11);
    }

    /// A payload tagged with its traffic class, for the group-commit
    /// read carve-out tests.
    #[derive(Debug, Clone, Copy)]
    struct Classed(crate::process::TrafficClass);
    impl crate::process::NetMessage for Classed {
        fn wire_bytes(&self) -> usize {
            100
        }
        fn traffic_class(&self) -> crate::process::TrafficClass {
            self.0
        }
    }

    /// Appends to its WAL (opening a group-commit batch), then sends
    /// one read reply and one protocol message in the same event.
    struct BatchedWriter {
        target: NodeId,
    }
    impl Process<Classed> for BatchedWriter {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Classed>) {
            if let Some(disk) = ctx.disk() {
                disk.append_wal(&[1, 2, 3]);
            }
            ctx.send(self.target, Classed(crate::process::TrafficClass::Read));
            ctx.send(self.target, Classed(crate::process::TrafficClass::Protocol));
        }
        fn on_message(&mut self, _f: NodeId, _m: Classed, _ctx: &mut Ctx<'_, Classed>) {}
    }

    struct ClassSink {
        arrived: Vec<(crate::process::TrafficClass, SimTime)>,
    }
    impl Process<Classed> for ClassSink {
        fn on_message(&mut self, _f: NodeId, m: Classed, ctx: &mut Ctx<'_, Classed>) {
            self.arrived.push((m.0, ctx.now));
        }
    }

    /// Read replies escape an open group-commit batch immediately;
    /// protocol traffic (the acks whose durability the batch covers)
    /// waits for the covering fsync — on both transports.
    #[test]
    fn group_commit_releases_reads_before_the_covering_fsync() {
        use crate::process::TrafficClass;
        for coalesce in [false, true] {
            let net = NetworkModel::uniform(2, 100.0, 1.0).with_jitter(0.0);
            let mut w = World::new(
                net,
                WorldConfig {
                    seed: 3,
                    service_time: SimDuration::ZERO,
                    service_ns_per_byte: 0,
                    coalesce,
                    fsync_latency: SimDuration::from_millis(5),
                    group_commit: true,
                    group_commit_window: SimDuration::from_millis(20),
                    ..WorldConfig::default()
                },
            );
            let sink = w.spawn(DcId(1), Box::new(ClassSink { arrived: vec![] }));
            let _ = w.spawn(DcId(0), Box::new(BatchedWriter { target: sink }));
            w.run_to_quiescence_bounded(100_000);
            let arrived = &w.get::<ClassSink>(sink).unwrap().arrived;
            assert_eq!(arrived.len(), 2, "coalesce={coalesce}");
            let at = |class: TrafficClass| {
                arrived
                    .iter()
                    .find(|(c, _)| *c == class)
                    .map(|(_, t)| t.as_millis())
                    .unwrap()
            };
            // One-way latency is 50 ms: the read ships at t=0 and lands
            // at 50 ms; the protocol message waits for the 20 ms window
            // deadline and lands at 70 ms.
            assert_eq!(at(TrafficClass::Read), 50, "coalesce={coalesce}");
            assert_eq!(at(TrafficClass::Protocol), 70, "coalesce={coalesce}");
        }
    }
}
