//! What the world counts about itself: wire traffic by class, and each
//! node's event-loop profile.

use std::time::Duration;

use mdcc_common::{DcId, NodeId, SimDuration};

use super::World;
use crate::process::{NetMessage, TimerPayload, TrafficClass};

/// Per-traffic-class message/byte counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficTotals {
    /// Wire frames handed to the network (envelopes count once).
    pub msgs: u64,
    /// Wire bytes handed to the network.
    pub bytes: u64,
    /// Process-level messages carried by those frames; `payloads /
    /// msgs` is the coalescing (amortization) factor.
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
    /// closed WAL batch. Zero when `fsync_latency` is zero — durability
    /// then costs nothing and nothing is counted.
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
    pub(super) fn count_sent(&mut self, class: TrafficClass, bytes: usize, payloads: u64) {
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
pub(super) struct ProfileCell {
    pub(super) events: u64,
    pub(super) sim_busy: SimDuration,
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
    pub(super) fn record(&mut self, kind: &'static str, delivered: Option<u64>, spent: Duration) {
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

impl<M: NetMessage + 'static, T: TimerPayload + 'static> World<M, T> {
    /// World-level counters.
    pub fn stats(&self) -> WorldStats {
        self.stats
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
}
