//! The sans-IO process interface.
//!
//! A [`Process`] is a deterministic state machine: the world hands it a
//! message `M` or a fired timer `T` (by default `M` too) plus a [`Ctx`],
//! and the process responds by recording *effects* (sends, timers) on the
//! context. Effects are applied by the world after the handler returns,
//! so handlers never touch the event queue directly and protocol code
//! contains no runtime dependencies.

use std::any::Any;

use mdcc_common::{NodeId, SimDuration, SimTime};
use rand::rngs::SmallRng;

use crate::disk::Disk;
use crate::event::TimerId;

/// How a message is accounted in byte/traffic statistics. The transport
/// itself treats every class identically — the split exists so reports
/// can answer "how much of the wire went to recovery sync versus the
/// commit protocol versus reads".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Commit-protocol traffic: proposals, votes, Phase1/2, visibility.
    Protocol,
    /// Read requests and responses.
    Read,
    /// Anti-entropy / recovery-sync traffic.
    Sync,
    /// Divergence-repair traffic: cstruct pulls and their full-state
    /// responses when a delta vote's digest mismatches.
    Repair,
}

impl TrafficClass {
    /// Number of classes (sizing per-class counter arrays).
    pub const COUNT: usize = 4;

    /// Dense index for per-class counter arrays.
    pub const fn index(self) -> usize {
        match self {
            TrafficClass::Protocol => 0,
            TrafficClass::Read => 1,
            TrafficClass::Sync => 2,
            TrafficClass::Repair => 3,
        }
    }
}

/// A message type with a byte-accurate wire size.
///
/// Every payload sent through [`Ctx::send`] must know what it costs on
/// the wire: the network model charges transmission delay proportional
/// to `wire_bytes` and the receiver pays a per-byte deserialization
/// cost. Implementations should report the *framed* size (payload plus
/// frame header) of the message's canonical binary encoding.
pub trait NetMessage {
    /// Total bytes this message occupies on the wire.
    fn wire_bytes(&self) -> usize;

    /// Which traffic class the message is accounted under. Deliberately
    /// has no default body: every message schema must classify each
    /// variant explicitly, so new messages cannot silently fall into a
    /// catch-all class and skew per-class byte accounting.
    fn traffic_class(&self) -> TrafficClass;

    /// A short static name for what kind of message this is (an enum
    /// schema names its variant). Read only by the host profiler
    /// (`TraceConfig::profile`), which splits each node's handler time
    /// by it; never by the transport.
    fn kind(&self) -> &'static str {
        "message"
    }
}

/// What a process arms a timer with. It never crosses the network, so
/// it has no wire size, only a kind for the host profiler, distinct from
/// every message kind of its world. A message type is its own.
pub trait TimerPayload {
    /// A short static name for what kind of timer this is.
    fn kind(&self) -> &'static str;
}

impl<M: NetMessage> TimerPayload for M {
    fn kind(&self) -> &'static str {
        NetMessage::kind(self)
    }
}

// Plain payloads used by simulator-level tests and benches.
impl NetMessage for u32 {
    fn wire_bytes(&self) -> usize {
        4
    }
    fn traffic_class(&self) -> TrafficClass {
        TrafficClass::Protocol
    }
}

impl NetMessage for u64 {
    fn wire_bytes(&self) -> usize {
        8
    }
    fn traffic_class(&self) -> TrafficClass {
        TrafficClass::Protocol
    }
}

/// An action a process asked the world to perform.
#[derive(Debug)]
pub enum Effect<M, T = M> {
    /// Send `msg` to `to` over the simulated network.
    Send {
        /// Destination node.
        to: NodeId,
        /// Payload.
        msg: M,
        /// Wire size of `msg`, captured at send time.
        bytes: usize,
        /// Traffic class of `msg`, captured at send time.
        class: TrafficClass,
    },
    /// Deliver `msg` back to the process after `delay`.
    SetTimer {
        /// Cancellation handle.
        id: TimerId,
        /// Delay from now.
        delay: SimDuration,
        /// Payload passed to `on_timer`.
        msg: T,
    },
    /// Suppress a previously set timer.
    CancelTimer(TimerId),
}

/// Handler context: the process's window onto the world for one event.
pub struct Ctx<'a, M, T = M> {
    /// Current virtual time.
    pub now: SimTime,
    /// The id of the process being invoked.
    pub self_id: NodeId,
    /// Seeded RNG for protocol-level randomness (backoff jitter etc.).
    pub rng: &'a mut SmallRng,
    effects: &'a mut Vec<Effect<M, T>>,
    next_timer: &'a mut u64,
    disk: Option<&'a mut Disk>,
}

impl<'a, M, T> Ctx<'a, M, T> {
    /// Creates a context with no durable disk attached; used by tests
    /// that drive a process by hand. The world itself always attaches the
    /// process's disk via [`Ctx::with_disk`].
    pub fn new(
        now: SimTime,
        self_id: NodeId,
        rng: &'a mut SmallRng,
        effects: &'a mut Vec<Effect<M, T>>,
        next_timer: &'a mut u64,
    ) -> Self {
        Self {
            now,
            self_id,
            rng,
            effects,
            next_timer,
            disk: None,
        }
    }

    /// Creates a context bound to the process's durable disk.
    pub fn with_disk(
        now: SimTime,
        self_id: NodeId,
        rng: &'a mut SmallRng,
        effects: &'a mut Vec<Effect<M, T>>,
        next_timer: &'a mut u64,
        disk: &'a mut Disk,
    ) -> Self {
        Self {
            now,
            self_id,
            rng,
            effects,
            next_timer,
            disk: Some(disk),
        }
    }

    /// The process's durable disk, if one is attached. Writes to it
    /// survive [`crate::World::crash_node`] / [`crate::World::restart_node`].
    pub fn disk(&mut self) -> Option<&mut Disk> {
        self.disk.as_deref_mut()
    }

    /// Sends `msg` to `to`; latency, bandwidth and loss are the network
    /// model's call. The message's wire size is captured here so the
    /// transport can charge transmission delay and queueing for it.
    ///
    /// The send lands in the world's per-(destination, traffic-class)
    /// outbox and ships — batched with other same-slot sends into one
    /// envelope frame — when the world flushes at the end of this event
    /// (or after the configured Nagle window). Per-(src, dst, class)
    /// send order is preserved; same-destination sends of different
    /// classes may reorder, exactly as network jitter already can.
    pub fn send(&mut self, to: NodeId, msg: M)
    where
        M: NetMessage,
    {
        let bytes = msg.wire_bytes();
        let class = msg.traffic_class();
        // Every protocol message frames at least a header; a zero-byte
        // size means a `NetMessage` impl forgot to account the payload
        // and the transport would carry it for free.
        debug_assert!(
            bytes > 0,
            "message reports zero wire bytes — unaccounted NetMessage impl"
        );
        self.effects.push(Effect::Send {
            to,
            msg,
            bytes,
            class,
        });
    }

    /// Schedules `msg` to be delivered to `on_timer` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, msg: T) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.effects.push(Effect::SetTimer { id, delay, msg });
        id
    }

    /// Cancels a pending timer. Cancelling an already-fired timer is a
    /// harmless no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer(id));
    }
}

/// A simulated node: storage node, app server or workload client.
///
/// The `Any` supertrait lets the harness downcast processes back to their
/// concrete type after a run to harvest metrics.
pub trait Process<M, T = M>: Any {
    /// Invoked once when the node is spawned.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M, T>) {}

    /// Invoked for every delivered network message.
    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Ctx<'_, M, T>);

    /// Invoked when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _tick: T, _ctx: &mut Ctx<'_, M, T>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    struct Echo;
    impl Process<u32> for Echo {
        fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Ctx<'_, u32>) {
            ctx.send(from, msg + 1);
        }
    }

    #[test]
    fn ctx_records_effects_in_order() {
        let mut effects = Vec::new();
        let mut next_timer = 0;
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ctx = Ctx::new(
            SimTime::ZERO,
            NodeId(0),
            &mut rng,
            &mut effects,
            &mut next_timer,
        );
        ctx.send(NodeId(1), 10u32);
        let t = ctx.set_timer(SimDuration::from_millis(5), 20);
        ctx.cancel_timer(t);
        assert_eq!(effects.len(), 3);
        assert!(matches!(
            effects[0],
            Effect::Send {
                to: NodeId(1),
                msg: 10,
                bytes: 4,
                class: TrafficClass::Protocol,
            }
        ));
        assert!(matches!(
            effects[1],
            Effect::SetTimer {
                id: TimerId(0),
                msg: 20,
                ..
            }
        ));
        assert!(matches!(effects[2], Effect::CancelTimer(TimerId(0))));
    }

    #[test]
    fn timer_ids_are_unique() {
        // Nothing is sent, so only the annotation names the message type.
        let mut effects: Vec<Effect<u32>> = Vec::new();
        let mut next_timer = 0;
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ctx = Ctx::new(
            SimTime::ZERO,
            NodeId(0),
            &mut rng,
            &mut effects,
            &mut next_timer,
        );
        let a = ctx.set_timer(SimDuration::from_millis(1), 1);
        let b = ctx.set_timer(SimDuration::from_millis(1), 2);
        assert_ne!(a, b);
    }

    #[test]
    fn handler_can_be_driven_by_hand() {
        let mut echo = Echo;
        let mut effects = Vec::new();
        let mut next_timer = 0;
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ctx = Ctx::new(
            SimTime::ZERO,
            NodeId(5),
            &mut rng,
            &mut effects,
            &mut next_timer,
        );
        echo.on_message(NodeId(9), 41, &mut ctx);
        assert!(matches!(
            effects[0],
            Effect::Send {
                to: NodeId(9),
                msg: 42,
                ..
            }
        ));
    }
}
