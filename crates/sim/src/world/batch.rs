//! The transport and the fsync rule: the outbox and WAL batches every
//! node keeps, and the frames they hand to the network (module docs of
//! [`crate::world`], "Batching").

use mdcc_common::wire::envelope_wire_bytes;
use mdcc_common::{DcId, NodeId, SimDuration, SimTime};
use mdcc_trace::{CounterSample, Phase, Span, TraceHandle};

use super::{Node, World, WorldConfig};
use crate::event::{BatchKind, EventKind};
use crate::process::{NetMessage, TimerPayload, TrafficClass};

/// One slot of the outbox: messages to one destination in one traffic
/// class, with the framed single-message size of each (captured at send
/// time) for byte accounting. Ships as one frame.
pub(super) struct OutboxSlot<M> {
    to: NodeId,
    class: TrafficClass,
    msgs: Vec<M>,
    framed_sizes: Vec<usize>,
}

/// One of a node's deadline-or-size batches (module docs, Batching):
/// the deadline it armed when it opened, `None` while it is closed.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Batch {
    deadline: Option<SimTime>,
}

impl Batch {
    /// Whether a deadline event firing at `at` closes this batch; if so
    /// the batch is closed.
    pub(super) fn due(&mut self, at: SimTime) -> bool {
        let due = self.deadline == Some(at);
        if due {
            self.deadline = None;
        }
        due
    }
}

impl WorldConfig {
    /// How long a batch of `kind` stays open.
    fn window(&self, kind: BatchKind) -> SimDuration {
        match kind {
            BatchKind::Outbox => self.coalesce_window,
            BatchKind::Wal => self.group_commit_window,
        }
    }
}

impl<M, T> Node<M, T> {
    /// The hold rule: whether an open WAL batch holds this node's
    /// outbox. Only a non-zero fsync latency opens one (with a free
    /// fsync there is nothing to amortize), and it is open while appends
    /// await their covering fsync.
    pub(super) fn holding(&self, config: &WorldConfig) -> bool {
        config.fsync_latency > SimDuration::ZERO && self.disk.has_unsynced()
    }

    /// Puts a send in the pen, into its (destination, class) slot.
    pub(super) fn pen(&mut self, to: NodeId, class: TrafficClass, msg: M, bytes: usize) {
        if let Some(slot) = self
            .outbox
            .iter_mut()
            .find(|s| s.to == to && s.class == class)
        {
            slot.msgs.push(msg);
            slot.framed_sizes.push(bytes);
            return;
        }
        self.outbox.push(OutboxSlot {
            to,
            class,
            msgs: vec![msg],
            framed_sizes: vec![bytes],
        });
    }
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

impl<M: NetMessage + 'static, T: TimerPayload + 'static> World<M, T> {
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
    pub(super) fn close(&mut self, i: usize, kind: BatchKind) {
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
    pub(super) fn end_event(&mut self, i: usize) {
        let config = &self.config;
        let node = &self.nodes[i];
        if node.holding(config) {
            self.close(i, BatchKind::Outbox);
        } else if !node.outbox.is_empty() {
            let at_once = config.coalesce_window == SimDuration::ZERO;
            self.join(i, BatchKind::Outbox, at_once);
        }
    }

    /// A handler at node `i` appended to the WAL. The append joins the
    /// WAL batch, which closes at once when `group_commit_bytes` are
    /// unsynced. With `fsync_latency` zero no batch opens; a traced run
    /// still records the append here, as the zero-length `WalFsync` span
    /// `charge_fsync` draws.
    pub(super) fn wal_appended(&mut self, i: usize) {
        let config = &self.config;
        let node = &self.nodes[i];
        if node.holding(config) {
            let full = node.disk.unsynced_bytes() >= config.group_commit_bytes;
            self.join(i, BatchKind::Wal, full);
        } else {
            self.charge_fsync(i);
        }
    }

    /// Ships one outbox slot: a single buffered message goes out as a
    /// bare frame of its own framed size; two or more ship as one
    /// envelope (sized by [`envelope_wire_bytes`], matching the
    /// `mdcc_common::wire::Envelope` codec byte for byte).
    fn ship(&mut self, i: usize, s: OutboxSlot<M>) {
        let from = self.nodes[i].id;
        let kind = match <[M; 1]>::try_from(s.msgs) {
            Ok([msg]) => {
                let bytes = s.framed_sizes[0];
                EventKind::Deliver { from, msg, bytes }
            }
            Err(msgs) => {
                let bytes = envelope_wire_bytes(s.framed_sizes.iter().copied());
                EventKind::DeliverEnvelope { from, msgs, bytes }
            }
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
}
