//! The event queue: a time-ordered heap with deterministic tie-breaking.
//!
//! # Intrinsic event stamps
//!
//! Events used to be tie-broken by a global insertion counter, which
//! made the pop order depend on *when* the scheduler happened to push —
//! a property only a single sequential loop can reproduce. Every event
//! now carries an [`EventKey`] derived from its *cause*: the time it
//! was emitted, the node that emitted it, and that node's private
//! monotone emit counter. The comparator `(at, cause, node, emit)` is a
//! total order over events that is a pure function of the simulation's
//! history, so the pop order does not depend on the order in which the
//! world happened to push events.
//!
//! # Slab storage
//!
//! `BinaryHeap` sift operations move whole elements. Protocol message
//! enums run to hundreds of bytes, so the heap stores fixed 32-byte
//! entries (`at`, key, slot index) and parks each event's payload in a
//! slab until it pops; deferring a delivery at a busy node re-pushes
//! only the small entry, never touching the payload.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use mdcc_common::{NodeId, SimTime};

/// Identifier of a pending timer, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u64);

/// Intrinsic identity of an event: when and by whom it was caused.
///
/// `(cause, node, emit)` is unique — `emit` is the emitting node's
/// private counter — and totally ordered, so ties at equal delivery
/// time resolve identically no matter which queue the event sat in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Time the causing handler ran (send/arm/spawn time).
    pub cause: SimTime,
    /// Emitting node (sender for deliveries, owner for timers).
    pub node: u32,
    /// The emitting node's monotone emit counter.
    pub emit: u64,
}

/// What a popped event asks the world to do.
#[derive(Debug, Clone)]
pub enum EventKind<M, T = M> {
    /// Deliver a network message to `target`.
    Deliver {
        /// Sender of the message.
        from: NodeId,
        /// Message payload.
        msg: M,
        /// Wire size of the message; drives the receiver's per-byte
        /// deserialization cost.
        bytes: usize,
    },
    /// Deliver a coalesced envelope of same-class messages from one
    /// sender: the receiver pays one service-time floor (plus the
    /// per-byte cost of the whole envelope) and then dispatches the
    /// payloads in send order.
    DeliverEnvelope {
        /// Sender of every payload.
        from: NodeId,
        /// The coalesced payloads, oldest first.
        msgs: Vec<M>,
        /// Wire size of the whole envelope (frame header + per-message
        /// length prefixes + payloads).
        bytes: usize,
    },
    /// Close `target`'s batch of this kind: its deadline, armed when the
    /// batch opened. A deadline the batch no longer holds (a crash or the
    /// size trigger disarmed it) fires as a no-op.
    Deadline(BatchKind),
    /// Fire a timer previously set by `target` itself.
    Timer {
        /// Id returned by `set_timer`, checked against cancellations.
        id: TimerId,
        /// Payload the process attached to the timer.
        msg: T,
        /// Incarnation of `target` at the time the timer was set. A timer
        /// armed by a crashed incarnation must not fire into its restarted
        /// successor, so the world drops timers whose incarnation lags.
        incarnation: u32,
    },
    /// Invoke `Process::on_start` for `target` (scheduled at spawn).
    Start,
}

impl<M, T> EventKind<M, T> {
    /// Wire bytes and payload messages of the frame a delivery carries;
    /// `(0, 0)` for an event that carries none.
    pub(crate) fn frame(&self) -> (usize, u64) {
        match self {
            EventKind::Deliver { bytes, .. } => (*bytes, 1),
            EventKind::DeliverEnvelope { bytes, msgs, .. } => (*bytes, msgs.len() as u64),
            _ => (0, 0),
        }
    }
}

/// The two deadline-or-size batches every simulated node keeps (the
/// world's module docs describe both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchKind {
    /// Sends waiting in the outbox for the Nagle window.
    Outbox = 0,
    /// WAL appends waiting for their covering fsync.
    Wal = 1,
}

/// A scheduled event.
#[derive(Debug, Clone)]
pub struct Event<M, T = M> {
    /// Virtual time at which the event fires.
    pub at: SimTime,
    /// Intrinsic identity; breaks delivery-time ties deterministically.
    pub key: EventKey,
    /// Node the event is addressed to.
    pub target: NodeId,
    /// Payload.
    pub kind: EventKind<M, T>,
}

/// Fixed-size heap entry: the payload stays in the slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapEntry {
    at: SimTime,
    key: EventKey,
    slot: u32,
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the earliest
        // event (smallest time, then smallest key) on top.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.key.cmp(&self.key))
    }
}

/// Min-heap of events ordered by `(time, key)`.
#[derive(Debug)]
pub struct EventQueue<M, T = M> {
    heap: BinaryHeap<HeapEntry>,
    slots: Vec<Option<(NodeId, EventKind<M, T>)>>,
    free: Vec<u32>,
}

impl<M, T> Default for EventQueue<M, T> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<M, T> EventQueue<M, T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` for `target` at `at` under an explicit intrinsic
    /// key (the world derives keys from the emitting node).
    pub fn push_keyed(
        &mut self,
        at: SimTime,
        key: EventKey,
        target: NodeId,
        kind: EventKind<M, T>,
    ) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some((target, kind));
                s
            }
            None => {
                self.slots.push(Some((target, kind)));
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(HeapEntry { at, key, slot });
    }

    /// Re-inserts an already-keyed event (used when a busy node defers
    /// handling); the original key keeps FIFO order among deferred
    /// events racing newly emitted ones at the same time.
    pub fn push_deferred(&mut self, event: Event<M, T>) {
        self.push_keyed(event.at, event.key, event.target, event.kind);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event<M, T>> {
        let entry = self.heap.pop()?;
        // Every heap entry owns a live slot until it pops.
        let (target, kind) = self.slots[entry.slot as usize].take()?;
        self.free.push(entry.slot);
        Some(Event {
            at: entry.at,
            key: entry.key,
            target,
            kind,
        })
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Target of the earliest pending event.
    pub fn peek_target(&self) -> Option<NodeId> {
        self.heap
            .peek()
            .and_then(|e| self.slots[e.slot as usize].as_ref())
            .map(|(target, _)| *target)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<M> EventQueue<M> {
        /// Schedules `kind` for `target` at `at` under a key of its own
        /// (`cause = at`, `node = target`, a per-thread emit counter), so
        /// ties at equal time pop in push order.
        fn push(&mut self, at: SimTime, target: NodeId, kind: EventKind<M>) {
            thread_local!(static EMIT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) });
            let emit = EMIT.with(|e| e.replace(e.get() + 1));
            let node = target.0;
            self.push_keyed(
                at,
                EventKey {
                    cause: at,
                    node,
                    emit,
                },
                target,
                kind,
            );
        }
    }

    fn deliver(n: u32) -> EventKind<&'static str> {
        EventKind::Deliver {
            from: NodeId(n),
            msg: "m",
            bytes: 1,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), NodeId(0), deliver(1));
        q.push(SimTime::from_millis(10), NodeId(0), deliver(2));
        q.push(SimTime::from_millis(20), NodeId(0), deliver(3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_millis())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100u32 {
            q.push(t, NodeId(i), deliver(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.target.0).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ties_break_by_key_not_push_order() {
        // Explicit keys override push order: the smaller (cause, node,
        // emit) pops first regardless of which was pushed first.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        let late_cause = EventKey {
            cause: SimTime::from_millis(4),
            node: 9,
            emit: 0,
        };
        let early_cause = EventKey {
            cause: SimTime::from_millis(2),
            node: 1,
            emit: 7,
        };
        q.push_keyed(t, late_cause, NodeId(0), deliver(0));
        q.push_keyed(t, early_cause, NodeId(1), deliver(1));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.target.0).collect();
        assert_eq!(order, vec![1, 0], "earlier cause wins the tie");
    }

    #[test]
    fn deferred_events_keep_their_sequence() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), NodeId(0), deliver(0));
        q.push(SimTime::from_millis(1), NodeId(1), deliver(1));
        let mut first = q.pop().unwrap();
        // Defer the first event to t=2; it now races the event at t=1 and
        // must lose, but at t=2 it beats any *newly pushed* t=2 event
        // (its cause time is older).
        first.at = SimTime::from_millis(2);
        q.push_deferred(first);
        q.push(SimTime::from_millis(2), NodeId(2), deliver(2));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.target.0).collect();
        assert_eq!(order, vec![1, 0, 2]);
    }

    #[test]
    fn peek_time_tracks_minimum() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_millis(9), NodeId(0), deliver(0));
        q.push(SimTime::from_millis(4), NodeId(0), deliver(0));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(4)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        assert_eq!(q.peek_target(), Some(NodeId(0)));
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut q = EventQueue::new();
        for round in 0..3u64 {
            for i in 0..8u32 {
                q.push(SimTime(round * 10 + i as u64), NodeId(i), deliver(i));
            }
            while q.pop().is_some() {}
        }
        assert!(q.slots.len() <= 8, "slab grew past peak occupancy");
    }
}
