//! Failure injection: crashing, reviving and restarting nodes, failing
//! and healing data centers, and messages injected from outside the
//! simulation.

use mdcc_common::{DcId, NodeId};

use super::{Batch, World};
use crate::event::{EventKey, EventKind};
use crate::process::{NetMessage, Process, TimerPayload};

impl<M: NetMessage + 'static, T: TimerPayload + 'static> World<M, T> {
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
}
