//! The closed-loop workload client, one loop for every protocol.
//!
//! [`ClosedLoop`] is the paper's emulated browser with no think time:
//! draw a transaction from the workload, run its (local) read phase,
//! build the write-set, commit it through the protocol, record the
//! outcome, repeat. What differs per protocol — how a local read and a
//! commit travel — sits behind [`Committer`], implemented for MDCC's
//! transaction manager and for the three baselines' coordinators.

use std::sync::Arc;

use mdcc_baselines::megastore::{MegaClient, MegaMsg};
use mdcc_baselines::qw::{QwMsg, QwWriter};
use mdcc_baselines::twopc::{TpcCoordinator, TpcMsg};
use mdcc_common::{DcId, Key, NodeId, Placement, RecordUpdate, Row, SimTime, Version};
use mdcc_core::{MdccCtx, Msg, ReadConsistency, Tick, TmEvent, TransactionManager};
use mdcc_paxos::TxnOutcome;
use mdcc_sim::{Ctx, NetMessage, Process, TimerPayload};
use mdcc_workloads::{Transaction, TxnAction, Workload};

use crate::metrics::TxnRecord;

/// One key's read result: committed version and value.
type ReadValue = (Key, Version, Option<Row>);

/// A transaction past its read phase: what it read, what it writes.
pub struct Decided {
    /// The read results `decide` was given.
    pub reads: Vec<ReadValue>,
    /// The write-set it produced (empty = read-only).
    pub updates: Vec<RecordUpdate>,
}

/// What a protocol reports back to the loop.
pub enum Step {
    /// The read batch with this token finished with these values.
    ReadDone(u64, Vec<ReadValue>),
    /// The commit attempt finished; `true` if it committed.
    Done(bool),
}

/// The context a committer's handlers run with.
type CtxOf<'a, C> = Ctx<'a, <C as Committer>::Msg, <C as Committer>::Tick>;

/// How one protocol reads locally and commits. The loop keeps one
/// transaction in flight, so a handler call ends at most one phase.
pub trait Committer: 'static {
    /// The protocol's message schema.
    type Msg: NetMessage + 'static;

    /// What it arms timers with: MDCC's transaction manager arms
    /// [`Tick`]s; a baseline arms none and names its world's default.
    type Tick: TimerPayload + 'static;

    /// Starts a local read of `keys` (never empty) and returns its
    /// token; the values arrive later as [`Step::ReadDone`].
    fn read(&mut self, keys: Vec<Key>, ctx: &mut CtxOf<'_, Self>) -> u64;

    /// Starts the commit. Returns the outcome when it is known on the
    /// spot; otherwise it arrives later as [`Step::Done`].
    fn commit(&mut self, txn: Decided, ctx: &mut CtxOf<'_, Self>) -> Option<bool>;

    /// Feeds a delivered message.
    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Msg,
        ctx: &mut CtxOf<'_, Self>,
    ) -> Option<Step>;

    /// Feeds a fired timer; a timer never ends a phase.
    fn on_timer(&mut self, _tick: Self::Tick, _ctx: &mut CtxOf<'_, Self>) {}
}

/// An app server: the protocol's client library plus an emulated browser.
pub struct ClosedLoop<C> {
    /// The protocol side (its counters are harvested by the harness).
    pub committer: C,
    workload: Box<dyn Workload>,
    /// The transaction in flight and when it was issued.
    current: Option<(SimTime, Box<dyn Transaction>)>,
    pending_read: Option<u64>,
    /// Stop issuing new transactions at this time (drain phase: lets the
    /// cluster quiesce so recovery audits compare converged replicas).
    /// In-flight ones still run to completion.
    stop_at: Option<SimTime>,
    /// Finished transactions (harvested by the harness).
    pub records: Vec<TxnRecord>,
}

impl<C: Committer> ClosedLoop<C> {
    /// Creates a client committing through `committer`.
    pub fn new(committer: C, workload: Box<dyn Workload>, stop_at: Option<SimTime>) -> Self {
        Self {
            committer,
            workload,
            current: None,
            pending_read: None,
            stop_at,
            records: Vec::new(),
        }
    }

    fn issue(&mut self, ctx: &mut CtxOf<'_, C>) {
        if self.stop_at.is_some_and(|stop| ctx.now >= stop) {
            return;
        }
        let txn = self.workload.next_txn_at(ctx.now, ctx.rng);
        let reads = txn.read_set();
        self.current = Some((ctx.now, txn));
        if reads.is_empty() {
            self.after_reads(Vec::new(), ctx);
        } else {
            self.pending_read = Some(self.committer.read(reads, ctx));
        }
    }

    fn after_reads(&mut self, reads: Vec<ReadValue>, ctx: &mut CtxOf<'_, C>) {
        let Some((_, txn)) = self.current.as_mut() else {
            return;
        };
        let done = match txn.decide(&reads) {
            TxnAction::ClientAbort => Some(false),
            TxnAction::Commit(updates) => self.committer.commit(Decided { reads, updates }, ctx),
        };
        if let Some(committed) = done {
            self.finish(committed, ctx);
        }
    }

    fn finish(&mut self, committed: bool, ctx: &mut CtxOf<'_, C>) {
        let Some((started, txn)) = self.current.take() else {
            return;
        };
        self.records.push(TxnRecord {
            started,
            finished: ctx.now,
            committed,
            is_write: txn.is_write(),
            label: txn.label(),
        });
        self.issue(ctx);
    }

    fn handle(&mut self, step: Option<Step>, ctx: &mut CtxOf<'_, C>) {
        match step {
            Some(Step::ReadDone(token, values)) if self.pending_read == Some(token) => {
                self.pending_read = None;
                self.after_reads(values, ctx);
            }
            Some(Step::Done(committed)) => self.finish(committed, ctx),
            _ => {}
        }
    }
}

impl<C: Committer> Process<C::Msg, C::Tick> for ClosedLoop<C> {
    fn on_start(&mut self, ctx: &mut CtxOf<'_, C>) {
        self.issue(ctx);
    }
    fn on_message(&mut self, from: NodeId, msg: C::Msg, ctx: &mut CtxOf<'_, C>) {
        let step = self.committer.on_message(from, msg, ctx);
        self.handle(step, ctx);
    }
    fn on_timer(&mut self, tick: C::Tick, ctx: &mut CtxOf<'_, C>) {
        self.committer.on_timer(tick, ctx);
    }
}

/// MDCC: the DB library's transaction manager is the committer.
impl Committer for TransactionManager {
    type Msg = Msg;
    type Tick = Tick;

    fn read(&mut self, keys: Vec<Key>, ctx: &mut MdccCtx<'_>) -> u64 {
        TransactionManager::read(self, keys, ReadConsistency::Local, ctx)
    }

    fn commit(&mut self, txn: Decided, ctx: &mut MdccCtx<'_>) -> Option<bool> {
        // A read-only transaction is answered here and takes no
        // transaction id: the TM never hears of it.
        if txn.updates.is_empty() {
            return Some(true);
        }
        let (_, done) = TransactionManager::commit(self, txn.updates, ctx);
        done.map(|done| done.outcome == TxnOutcome::Committed)
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut MdccCtx<'_>) -> Option<Step> {
        // The TM reports per transaction it runs; under this loop that is one.
        let mut events = TransactionManager::on_message(self, from, msg, ctx);
        debug_assert!(events.len() <= 1, "one transaction in flight");
        Some(match events.pop()? {
            TmEvent::Completed(c) => Step::Done(c.outcome == TxnOutcome::Committed),
            TmEvent::ReadDone { token, values } => Step::ReadDone(token, values),
        })
    }

    fn on_timer(&mut self, tick: Tick, ctx: &mut MdccCtx<'_>) {
        TransactionManager::on_timer(self, tick, ctx);
    }
}

/// A baseline coordinator `P` and its client's read phase: one
/// `ReadReq` per key to the replica in the client's own data center
/// under a fresh request id, answers collected until all are in.
pub struct Baseline<P> {
    coord: P,
    placement: Arc<dyn Placement>,
    my_dc: DcId,
    next_req: u64,
    /// `(request id, responses needed, collected values)`.
    wait: Option<(u64, usize, Vec<ReadValue>)>,
}

impl<P> Baseline<P> {
    /// A client in `my_dc` committing through `coord`.
    pub fn new(coord: P, placement: Arc<dyn Placement>, my_dc: DcId) -> Self {
        Self {
            coord,
            placement,
            my_dc,
            next_req: 0,
            wait: None,
        }
    }

    /// Opens a read batch, sending what `request` builds per key.
    fn read_with<M: NetMessage>(
        &mut self,
        keys: Vec<Key>,
        ctx: &mut Ctx<'_, M>,
        request: fn(u64, Key) -> M,
    ) -> u64 {
        let req = self.next_req;
        self.next_req += 1;
        self.wait = Some((req, keys.len(), Vec::new()));
        for key in keys {
            let node = self.placement.replica_in(&key, self.my_dc);
            ctx.send(node, request(req, key));
        }
        req
    }

    /// Takes one response; returns the batch once it is complete.
    fn collect(&mut self, req: u64, value: ReadValue) -> Option<Step> {
        let (want, needed, values) = self.wait.as_mut()?;
        if *want != req {
            return None;
        }
        values.push(value);
        if values.len() < *needed {
            return None;
        }
        let (_, _, values) = self.wait.take()?;
        Some(Step::ReadDone(req, values))
    }
}

impl Committer for Baseline<QwWriter> {
    type Msg = QwMsg;
    type Tick = QwMsg;

    fn read(&mut self, keys: Vec<Key>, ctx: &mut Ctx<'_, QwMsg>) -> u64 {
        self.read_with(keys, ctx, |req, key| QwMsg::ReadReq { req, key })
    }

    fn commit(&mut self, txn: Decided, ctx: &mut Ctx<'_, QwMsg>) -> Option<bool> {
        let (_, done) = self.coord.write(txn.updates, ctx);
        done.map(|_| true)
    }

    fn on_message(&mut self, _: NodeId, msg: QwMsg, _: &mut Ctx<'_, QwMsg>) -> Option<Step> {
        match msg {
            QwMsg::ReadResp {
                req,
                key,
                version,
                value,
            } => self.collect(req, (key, version, value)),
            // The ack that completes the quorum ends the batch; later
            // ones are stragglers the writer no longer knows.
            QwMsg::PutAck { req, key } => self.coord.on_ack(req, key).map(|_| Step::Done(true)),
            _ => None,
        }
    }
}

impl Committer for Baseline<TpcCoordinator> {
    type Msg = TpcMsg;
    type Tick = TpcMsg;

    fn read(&mut self, keys: Vec<Key>, ctx: &mut Ctx<'_, TpcMsg>) -> u64 {
        self.read_with(keys, ctx, |req, key| TpcMsg::ReadReq { req, key })
    }

    fn commit(&mut self, txn: Decided, ctx: &mut Ctx<'_, TpcMsg>) -> Option<bool> {
        let (_, done) = self.coord.commit(txn.updates, ctx);
        done.map(|done| done.committed)
    }

    fn on_message(&mut self, _: NodeId, msg: TpcMsg, ctx: &mut Ctx<'_, TpcMsg>) -> Option<Step> {
        match msg {
            TpcMsg::ReadResp {
                req,
                key,
                version,
                value,
            } => self.collect(req, (key, version, value)),
            msg => {
                let done = self.coord.on_message(msg, ctx)?;
                Some(Step::Done(done.committed))
            }
        }
    }
}

impl Committer for Baseline<MegaClient> {
    type Msg = MegaMsg;
    type Tick = MegaMsg;

    fn read(&mut self, keys: Vec<Key>, ctx: &mut Ctx<'_, MegaMsg>) -> u64 {
        self.read_with(keys, ctx, |req, key| MegaMsg::ReadReq { req, key })
    }

    fn commit(&mut self, txn: Decided, ctx: &mut Ctx<'_, MegaMsg>) -> Option<bool> {
        let read_versions = txn.reads.into_iter().map(|(k, v, _)| (k, v)).collect();
        let (_, done) = self.coord.commit(txn.updates, read_versions, ctx);
        done.map(|done| done.committed)
    }

    fn on_message(&mut self, _: NodeId, msg: MegaMsg, _: &mut Ctx<'_, MegaMsg>) -> Option<Step> {
        match msg {
            MegaMsg::ReadResp {
                req,
                key,
                version,
                value,
            } => self.collect(req, (key, version, value)),
            msg => {
                let done = self.coord.on_message(&msg)?;
                Some(Step::Done(done.committed))
            }
        }
    }
}
