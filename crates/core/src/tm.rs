//! The transaction manager — the paper's stateless "DB library" (§2).
//!
//! Embedded in an app-server process, the TM implements the optimistic
//! commit protocol of §3.2:
//!
//! 1. the application executes reads (local read-committed by default,
//!    up-to-date quorum reads on request, §4.2) and collects a write-set;
//! 2. at commit, the TM proposes one option per record — directly to the
//!    acceptors when the record is (believed) fast, one message per
//!    storage node carrying every option it replicates, via the record's
//!    master otherwise;
//! 3. it learns each option from Phase2b quorums; **it may not abort a
//!    proposed transaction** — on learn failure it can only trigger
//!    recovery and keep waiting (the key difference from 2PC, §3.2.1);
//! 4. commit iff every option is learned accepted; the outcome fans out
//!    asynchronously as Visibility messages and does not add latency.

use std::collections::btree_map::Entry;
use std::collections::hash_map::Entry as HashEntry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use mdcc_common::config::LEARN_TIMEOUT;
use mdcc_common::error::AbortReason;
use mdcc_common::{
    DcId, Key, NodeId, ProtocolConfig, RecordUpdate, Row, SimTime, TxnId, Version, WriteSet,
};
use mdcc_paxos::{OptionStatus, Proposal, TxnOption, TxnOutcome};
use mdcc_sim::event::TimerId;
use mdcc_trace::{Phase, TraceHandle};

use crate::coordination::{recovery_target, Coordination, Progress};
use crate::msg::{per_node, send_each, MdccCtx, Msg, Tick};
use crate::placement::Placement;

/// Read consistency levels (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadConsistency {
    /// Read the local replica's committed value — may be stale, never
    /// dirty (read committed, §4.1).
    Local,
    /// Read a classic quorum and return the highest committed version.
    UpToDate,
}

/// TM configuration.
#[derive(Debug, Clone)]
pub struct TmConfig {
    /// Protocol parameters (quorums, timeouts).
    pub protocol: ProtocolConfig,
    /// The data center this app server runs in (local reads).
    pub my_dc: DcId,
    /// Always propose via the record's master — the *Multi*
    /// configuration of §5.3.1. When `false` (MDCC default) records are
    /// assumed fast until a master says otherwise.
    pub assume_classic: bool,
}

/// Aggregate TM counters (the ingredients of Figures 5–7).
#[derive(Debug, Clone, Copy, Default)]
pub struct TxnStats {
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transactions.
    pub aborted: u64,
    /// Transactions whose every option was learned from fast quorums.
    pub fast_commits: u64,
    /// Collisions observed (recovery requests sent).
    pub collisions: u64,
    /// Learn timeouts fired.
    pub timeouts: u64,
    /// Proposals bounced from fast to classic mode.
    pub classic_redirects: u64,
    /// Whole votes pulled (`CstructPull` sent): a learner met a quorum
    /// that only the acceptors' cstructs can decide.
    pub repair_pulls: u64,
}

impl std::ops::AddAssign for TxnStats {
    fn add_assign(&mut self, o: Self) {
        // Exhaustive, so the next counter cannot be left out of the sum.
        let Self {
            committed,
            aborted,
            fast_commits,
            collisions,
            timeouts,
            classic_redirects,
            repair_pulls,
        } = o;
        self.committed += committed;
        self.aborted += aborted;
        self.fast_commits += fast_commits;
        self.collisions += collisions;
        self.timeouts += timeouts;
        self.classic_redirects += classic_redirects;
        self.repair_pulls += repair_pulls;
    }
}

/// The result of one finished transaction, handed to the client process.
#[derive(Debug, Clone)]
pub struct TxnCompletion {
    /// The transaction.
    pub txn: TxnId,
    /// Commit or abort.
    pub outcome: TxnOutcome,
    /// When `commit` was called.
    pub started: SimTime,
    /// When the last option was learned (the commit point).
    pub finished: SimTime,
    /// For aborts: the first rejection reason.
    pub abort_reason: Option<AbortReason>,
    /// Every option was learned via fast ballots (no master involved).
    pub fast_path: bool,
}

/// Events the TM reports to its hosting process.
#[derive(Debug, Clone)]
pub enum TmEvent {
    /// A commit attempt finished.
    Completed(TxnCompletion),
    /// A read issued with [`TransactionManager::read`] finished.
    ReadDone {
        /// Token returned by `read`.
        token: u64,
        /// Per-key results: committed version and value.
        values: Vec<(Key, Version, Option<Row>)>,
    },
}

// Iteration order drives message emission order, so it must be
// deterministic for reproducible simulations: `options` is a `BTreeMap`
// and `coord` is built from its (sorted) keys.
#[derive(Debug)]
struct ActiveTxn {
    started: SimTime,
    /// The options, kept to re-propose them after a learn timeout or a
    /// bounce (a bounce names the transaction, not the option).
    options: BTreeMap<Key, TxnOption>,
    /// Learners and decisions, keys in sorted order.
    coord: Coordination,
    all_fast: bool,
    timer: TimerId,
}

#[derive(Debug)]
struct ReadTask {
    consistency: ReadConsistency,
    needed: usize,
    /// Per-key responses, keyed by responder so retry re-broadcasts
    /// cannot count one replica twice toward an up-to-date quorum.
    responses: HashMap<Key, Vec<(NodeId, Version, Option<Row>)>>,
    keys: Vec<Key>,
    /// Re-issue timer: a read request or response lost to the network
    /// (or to a crashed replica) must not stall the client forever.
    timer: TimerId,
    retries: u32,
}

/// The per-app-server transaction manager.
pub struct TransactionManager {
    cfg: TmConfig,
    placement: Arc<dyn Placement>,
    next_seq: u64,
    next_read: u64,
    active: BTreeMap<TxnId, ActiveTxn>,
    /// Per record, the active transactions still waiting to learn their
    /// option on it, in transaction order — the learners a vote for that
    /// record feeds. Entries come with `commit` and go with
    /// `record_decision`.
    waiting: HashMap<Key, Vec<TxnId>>,
    reads: HashMap<u64, ReadTask>,
    /// Records believed to be under a classic ballot, with their master.
    classic_cache: HashMap<Key, NodeId>,
    /// Dynamic mastership: believed lease holder per shard, learned from
    /// `MasterHint` redirects. Only consulted when
    /// `protocol.mastership.enabled`.
    lease_cache: HashMap<u32, NodeId>,
    stats: TxnStats,
    /// Shared trace collector; spans are recorded only when attached
    /// (and enabled), so the default TM pays one `Option` test.
    tracer: Option<TraceHandle>,
}

impl TransactionManager {
    /// Creates a TM for the app server in `cfg.my_dc`.
    pub fn new(cfg: TmConfig, placement: Arc<dyn Placement>) -> Self {
        Self {
            cfg,
            placement,
            next_seq: 0,
            next_read: 0,
            active: BTreeMap::new(),
            waiting: HashMap::new(),
            reads: HashMap::new(),
            classic_cache: HashMap::new(),
            lease_cache: HashMap::new(),
            stats: TxnStats::default(),
            tracer: None,
        }
    }

    /// Attaches the run's trace collector; commit/phase2b/visibility
    /// spans are recorded into it. Purely observational.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = Some(tracer);
    }

    /// Aggregate counters.
    pub fn stats(&self) -> TxnStats {
        self.stats
    }

    /// Number of unfinished commit attempts.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    // ------------------------------------------------------------------
    // Reads.
    // ------------------------------------------------------------------

    /// Issues a read of `keys`; the result arrives later as
    /// [`TmEvent::ReadDone`] carrying the returned token.
    pub fn read(
        &mut self,
        keys: Vec<Key>,
        consistency: ReadConsistency,
        ctx: &mut MdccCtx<'_>,
    ) -> u64 {
        let token = self.next_read;
        self.next_read += 1;
        let needed = match consistency {
            ReadConsistency::Local => 1,
            ReadConsistency::UpToDate => self.cfg.protocol.classic_quorum,
        };
        for key in &keys {
            self.send_read(token, key, consistency, false, ctx);
        }
        let timer = ctx.set_timer(LEARN_TIMEOUT, Tick::ReadRetry { token });
        self.reads.insert(
            token,
            ReadTask {
                consistency,
                needed,
                responses: HashMap::new(),
                keys,
                timer,
                retries: 0,
            },
        );
        token
    }

    /// Sends the read requests for one key. `broadcast` widens a local
    /// read to every replica — the fallback when the local replica looks
    /// dead (crashed node, §3.2.3's "any storage node" principle applies
    /// to reads too).
    fn send_read(
        &self,
        token: u64,
        key: &Key,
        consistency: ReadConsistency,
        broadcast: bool,
        ctx: &mut MdccCtx<'_>,
    ) {
        let req = || Msg::ReadReq {
            req: token,
            key: key.clone(),
        };
        match consistency {
            ReadConsistency::Local if !broadcast => {
                ctx.send(self.placement.replica_in(key, self.cfg.my_dc), req())
            }
            _ => send_each(ctx, &self.placement.replicas(key), req),
        }
    }

    // ------------------------------------------------------------------
    // Commit.
    // ------------------------------------------------------------------

    /// Starts a **serializable** commit (§4.4): besides the write-set,
    /// the transaction's read-set is validated — every read key becomes a
    /// [`mdcc_common::UpdateOp::ReadGuard`] option that the acceptors
    /// accept only if the version is still current and no write is
    /// pending. Guards ride fast ballots like any other option, so
    /// serializability still costs one wide-area round trip in the
    /// common case. Keys also written by the transaction need no guard
    /// (their write already validates the version).
    pub fn commit_serializable(
        &mut self,
        mut updates: Vec<RecordUpdate>,
        read_set: Vec<(Key, Version)>,
        ctx: &mut MdccCtx<'_>,
    ) -> (TxnId, Option<TxnCompletion>) {
        let written: HashSet<Key> = updates.iter().map(|u| u.key.clone()).collect();
        for (key, version) in read_set {
            if !written.contains(&key) {
                updates.push(RecordUpdate::new(
                    key,
                    mdcc_common::UpdateOp::ReadGuard(version),
                ));
            }
        }
        self.commit(updates, ctx)
    }

    /// Starts the commit of a write-set (Algorithm 1, TransactionStart).
    ///
    /// Returns the transaction id and, for empty write-sets, an immediate
    /// completion (a read-only transaction commits trivially).
    pub fn commit(
        &mut self,
        updates: Vec<RecordUpdate>,
        ctx: &mut MdccCtx<'_>,
    ) -> (TxnId, Option<TxnCompletion>) {
        let txn = TxnId::new(ctx.self_id, self.next_seq);
        self.next_seq += 1;
        if updates.is_empty() {
            let done = TxnCompletion {
                txn,
                outcome: TxnOutcome::Committed,
                started: ctx.now,
                finished: ctx.now,
                abort_reason: None,
                fast_path: true,
            };
            self.stats.committed += 1;
            self.stats.fast_commits += 1;
            return (txn, Some(done));
        }
        let ws = WriteSet::new(txn, updates);
        let mut options = BTreeMap::new();
        for u in &ws.updates {
            let opt = TxnOption {
                txn,
                key: u.key.clone(),
                op: u.op.clone(),
                peers: Arc::clone(&ws.keys),
            };
            if options.insert(u.key.clone(), opt).is_none() {
                // One coordinator, increasing sequence numbers: pushing
                // keeps each list in transaction order.
                self.waiting.entry(u.key.clone()).or_default().push(txn);
            }
        }
        if let Some(tracer) = &self.tracer {
            // One commit span per attempt, one phase2b span per option:
            // proposal fan-out → the quorum that decides the record.
            let (me, dc) = (ctx.self_id, self.cfg.my_dc);
            tracer.begin(me, dc, Some(txn), None, Phase::Commit, ctx.now);
            for key in options.keys() {
                let key = Some(key.clone());
                tracer.begin(me, dc, Some(txn), key, Phase::Phase2b, ctx.now);
            }
        }
        self.propose_attempt(options.values(), 0, ctx);
        let timer = ctx.set_timer(LEARN_TIMEOUT, Tick::LearnTimeout { txn });
        let coord = Coordination::new(&self.cfg.protocol, txn, options.keys().cloned());
        self.active.insert(
            txn,
            ActiveTxn {
                started: ctx.now,
                options,
                coord,
                all_fast: true,
                timer,
            },
        );
        (txn, None)
    }

    /// Routes a transaction's proposals per their records' believed mode
    /// (SENDPROPOSAL, Algorithm 1 lines 9–13); `attempt` counts the learn
    /// timeouts so far. An option of a record believed classic goes to
    /// the record's master on its own; the rest go fast, one `Propose`
    /// per storage node ([`Self::propose_fast`]).
    fn propose_attempt<'a>(
        &self,
        opts: impl IntoIterator<Item = &'a TxnOption>,
        attempt: u32,
        ctx: &mut MdccCtx<'_>,
    ) {
        let mut fast = Vec::new();
        for opt in opts {
            let master = self.classic_cache.get(&opt.key).copied().or_else(|| {
                self.cfg
                    .assume_classic
                    .then(|| self.placement.master(&opt.key))
            });
            match master {
                Some(m) if self.cfg.protocol.mastership.enabled => {
                    let target = self.lease_route(&opt.key, m, attempt);
                    let (origin_dc, opt) = (self.cfg.my_dc, opt.clone());
                    ctx.send(target, Msg::ProposeMastered { origin_dc, opt });
                }
                Some(m) => ctx.send(m, Msg::ProposeToMaster(opt.clone())),
                None => fast.push(opt),
            }
        }
        self.propose_fast(fast, ctx);
    }

    /// Where a classic proposal of `key` goes with dynamic mastership on:
    /// the shard's believed lease holder, else `master`. Retries rotate
    /// through the replica group instead, because the believed holder may
    /// be the crashed node (any replica either serves, forwards to the
    /// live holder, or leads classically).
    fn lease_route(&self, key: &Key, master: NodeId, attempt: u32) -> NodeId {
        let shard = self.placement.shard_id(key);
        if attempt == 0 {
            self.lease_cache.get(&shard).copied().unwrap_or(master)
        } else {
            let replicas = self.placement.shard_replicas(shard);
            replicas[(self.cfg.my_dc.0 as usize + attempt as usize) % replicas.len()]
        }
    }

    /// Proposes `opts`, options of one transaction, straight to the
    /// acceptors of their records: one `Propose` per storage node,
    /// carrying the options of every record the node replicates in the
    /// order given (key order) — the transaction and its write-set cross
    /// the network once per node, not once per record.
    fn propose_fast(&self, opts: Vec<&TxnOption>, ctx: &mut MdccCtx<'_>) {
        let routed = opts
            .into_iter()
            .map(|o| (self.placement.replicas(&o.key), o));
        for (node, group) in per_node(routed) {
            if let Some(proposal) = Proposal::of(group) {
                ctx.send(node, Msg::Propose(proposal));
            }
        }
    }

    // ------------------------------------------------------------------
    // Message handling.
    // ------------------------------------------------------------------

    /// Feeds a network message; returns completions/read results to act on.
    pub fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut MdccCtx<'_>) -> Vec<TmEvent> {
        match msg {
            Msg::Verdict { key, verdict } => self.on_answer(from, key, ctx, |coord, key, idx| {
                coord.on_verdict(key, idx, &verdict)
            }),
            // The whole vote one of this TM's learners pulled.
            Msg::Vote { key, vote } => self.on_answer(from, key, ctx, |coord, key, idx| {
                coord.on_vote(key, idx, &vote)
            }),
            Msg::AlreadyResolved { key, txn, outcome } => {
                let status = match outcome {
                    TxnOutcome::Committed => OptionStatus::Accepted,
                    TxnOutcome::Aborted => OptionStatus::Rejected(AbortReason::Resolved),
                };
                if let Some(active) = self.active.get_mut(&txn) {
                    active.coord.decide(&key, status);
                }
                self.record_decision(txn, key, ctx)
            }
            Msg::ReadResp {
                req,
                key,
                version,
                value,
            } => self.on_read_resp(from, req, key, version, value, ctx),
            Msg::NotFast { .. }
            | Msg::GoFast { .. }
            | Msg::InstanceFull { .. }
            | Msg::MasterHint { .. } => {
                self.on_reroute(msg, ctx);
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    /// A storage node says a proposal belongs elsewhere (the record's
    /// ballot mode changed, its instance is full, its master moved):
    /// remember the route and send the option there.
    fn on_reroute(&mut self, msg: Msg, ctx: &mut MdccCtx<'_>) {
        match msg {
            Msg::NotFast { key, txn, promised } => {
                // The record is under a classic ballot: remember the
                // master and retry through it (§3.3.1 fallback).
                self.stats.classic_redirects += 1;
                if let Some(opt) = self.relevant(txn, &key).cloned() {
                    self.classic_cache.insert(key, promised.proposer);
                    ctx.send(promised.proposer, Msg::ProposeToMaster(opt));
                }
            }
            Msg::GoFast { key, txn } => {
                // The record reopened fast ballots: drop the cache entry
                // and propose directly.
                self.classic_cache.remove(&key);
                if let Some(opt) = self.relevant(txn, &key) {
                    self.propose_fast(vec![opt], ctx);
                }
            }
            Msg::InstanceFull { key, txn } => {
                // Ask the master to close + re-base the instance, then
                // route the option through it.
                self.stats.collisions += 1;
                let master = self.placement.master(&key);
                if let Some(opt) = self.relevant(txn, &key).cloned() {
                    ctx.send(master, Msg::StartRecovery { key: key.clone() });
                    self.classic_cache.insert(key, master);
                    ctx.send(master, Msg::ProposeToMaster(opt));
                }
            }
            Msg::MasterHint { shard, node } => {
                // A replica redirected us: route this shard's mastered
                // traffic to the current lease holder.
                self.lease_cache.insert(shard, node);
            }
            _ => {}
        }
    }

    /// Handles a fired timer. Nothing it does finishes a transaction or a
    /// read: a learn timeout re-proposes, a read retry re-reads.
    pub fn on_timer(&mut self, tick: Tick, ctx: &mut MdccCtx<'_>) {
        match tick {
            Tick::LearnTimeout { txn } => self.on_learn_timeout(txn, ctx),
            Tick::ReadRetry { token } => self.retry_read(token, ctx),
            // A storage node's and a client's own ticks: the TM arms none.
            Tick::DanglingSweep
            | Tick::RecoveryRetry { .. }
            | Tick::MissedPull { .. }
            | Tick::CheckpointTick
            | Tick::SyncSweep
            | Tick::ClientTick
            | Tick::MsTick => {}
        }
    }

    /// `txn` is still unresolved a learn timeout after its proposals.
    fn on_learn_timeout(&mut self, txn: TxnId, ctx: &mut MdccCtx<'_>) {
        let Some(active) = self.active.get_mut(&txn) else {
            return;
        };
        self.stats.timeouts += 1;
        // We may *not* abort: options might already be learned by others.
        // Trigger recovery on stuck records and re-propose (acceptors and
        // masters deduplicate).
        let undecided = active.coord.undecided();
        let opts: Vec<TxnOption> = undecided
            .filter_map(|k| active.options.get(k).cloned())
            .collect();
        // Exponential backoff: under heavy contention a recovery round can
        // outlast the base timeout, and re-triggering it on every tick
        // turns congestion into livelock.
        let attempt = active.coord.next_attempt();
        let backoff = LEARN_TIMEOUT * (1u64 << attempt.min(4));
        active.timer = ctx.set_timer(backoff, Tick::LearnTimeout { txn });
        for opt in &opts {
            // Rotate through the replicas: the default master may be in a
            // failed data center (master failover, §3.2.3).
            let key = opt.key.clone();
            let target = recovery_target(&*self.placement, &key, attempt);
            ctx.send(target, Msg::StartRecovery { key });
            if attempt >= 3 {
                // The believed master may be the dead one; fall back to
                // fast proposals, which any live node can vote on.
                self.classic_cache.remove(&opt.key);
            }
            if self.cfg.protocol.mastership.enabled {
                // The believed lease holder may be the crashed node; drop
                // the route and let the rotated retry relearn it.
                self.lease_cache.remove(&self.placement.shard_id(&opt.key));
            }
        }
        self.propose_attempt(&opts, attempt, ctx);
    }

    /// Re-issues the still-missing reads of a stalled batch. After a
    /// couple of attempts the local replica is presumed dead and the
    /// read fans out to every replica (the first response wins).
    fn retry_read(&mut self, token: u64, ctx: &mut MdccCtx<'_>) {
        let Some(task) = self.reads.get_mut(&token) else {
            return;
        };
        task.retries += 1;
        let broadcast = task.retries >= 2;
        let missing: Vec<Key> = task
            .keys
            .iter()
            .filter(|k| task.responses.get(*k).map(|v| v.len()).unwrap_or(0) < task.needed)
            .cloned()
            .collect();
        let consistency = task.consistency;
        let backoff = LEARN_TIMEOUT * (1u64 << task.retries.min(4));
        task.timer = ctx.set_timer(backoff, Tick::ReadRetry { token });
        for key in missing {
            self.send_read(token, &key, consistency, broadcast, ctx);
        }
    }

    /// `txn`'s option on `key` while the transaction is in flight and the
    /// option has no status yet: what a storage node that bounced it asks
    /// this TM to send again.
    fn relevant(&self, txn: TxnId, key: &Key) -> Option<&TxnOption> {
        let active = self.active.get(&txn)?;
        let open = !active.coord.is_decided(key);
        active.options.get(key).filter(|_| open)
    }

    /// Acceptor `from` answered for `key` — a verdict, or the whole vote
    /// a learner pulled: `feed` hands the answer to one transaction's
    /// coordination. It can decide any of our in-flight transactions
    /// still waiting on the record.
    fn on_answer(
        &mut self,
        from: NodeId,
        key: Key,
        ctx: &mut MdccCtx<'_>,
        feed: impl Fn(&mut Coordination, &Key, usize) -> Progress,
    ) -> Vec<TmEvent> {
        let Some(candidates) = self.waiting.get(&key).cloned() else {
            return Vec::new();
        };
        let Some(idx) = self.placement.acceptor_index(&key, from) else {
            return Vec::new();
        };
        let mut events = Vec::new();
        for txn in candidates {
            let Some(active) = self.active.get_mut(&txn) else {
                continue;
            };
            match feed(&mut active.coord, &key, idx) {
                Progress::Learned { status, fast } => {
                    active.all_fast &= fast;
                    let commutative = active.options[&key].is_commutative();
                    events.extend(self.record_decision(txn, key.clone(), ctx));
                    // Algorithm 1, lines 24–26: a rejected commutative
                    // option in a fast ballot signals a demarcation-limit
                    // hit; the master must re-base.
                    if commutative && fast && !status.is_accepted() {
                        let master = self.placement.master(&key);
                        ctx.send(master, Msg::StartRecovery { key: key.clone() });
                    }
                }
                Progress::Collision { ask_master } => {
                    self.stats.collisions += 1;
                    if ask_master {
                        let master = self.placement.master(&key);
                        ctx.send(master, Msg::StartRecovery { key: key.clone() });
                    }
                }
                Progress::Undecided => {
                    // Same decision at a quorum, not front-movable
                    // everywhere: the learner needs the cstructs of the
                    // members that sent a verdict.
                    let pulls = active.coord.take_pulls(&key);
                    if !pulls.is_empty() {
                        let replicas = self.placement.replicas(&key);
                        for to in pulls.into_iter().filter_map(|member| replicas.get(member)) {
                            self.stats.repair_pulls += 1;
                            ctx.send(*to, Msg::CstructPull { key: key.clone() });
                        }
                    }
                }
            }
        }
        events
    }

    /// `key`'s option of `txn` now has a status: stop feeding it votes
    /// and, once every option has one, finish the transaction.
    fn record_decision(&mut self, txn: TxnId, key: Key, ctx: &mut MdccCtx<'_>) -> Vec<TmEvent> {
        let Entry::Occupied(entry) = self.active.entry(txn) else {
            return Vec::new();
        };
        if let Some(tracer) = &self.tracer {
            let key = Some(key.clone());
            tracer.end(ctx.self_id, Some(txn), key, Phase::Phase2b, ctx.now);
        }
        if let Some(waiting) = self.waiting.get_mut(&key) {
            waiting.retain(|t| *t != txn);
            if waiting.is_empty() {
                self.waiting.remove(&key);
            }
        }
        // All options decided: the outcome is now deterministic (§3.2.1).
        let Some(verdict) = entry.get().coord.verdict() else {
            return Vec::new();
        };
        let active = entry.remove();
        ctx.cancel_timer(active.timer);
        let finished = ctx.now;
        if let Some(tracer) = &self.tracer {
            tracer.end(ctx.self_id, Some(txn), None, Phase::Commit, finished);
            // The visibility span opens at the commit point; each replica
            // that applies the outcome extends it (node layer), and the
            // harvest closes it at the last application.
            let (me, dc) = (ctx.self_id, self.cfg.my_dc);
            tracer.begin(me, dc, Some(txn), None, Phase::Visibility, finished);
        }
        // Visibility fan-out is asynchronous: it happens after the commit
        // point and does not add to transaction latency.
        let outcome = verdict.outcome;
        let send = |to, msg| ctx.send(to, msg);
        active
            .coord
            .visibility(outcome, &*self.placement, None, send);
        match outcome {
            TxnOutcome::Committed => {
                self.stats.committed += 1;
                self.stats.fast_commits += u64::from(active.all_fast);
            }
            TxnOutcome::Aborted => self.stats.aborted += 1,
        }
        vec![TmEvent::Completed(TxnCompletion {
            txn,
            outcome,
            started: active.started,
            finished,
            abort_reason: verdict.abort_reason,
            fast_path: active.all_fast,
        })]
    }

    fn on_read_resp(
        &mut self,
        from: NodeId,
        req: u64,
        key: Key,
        version: Version,
        value: Option<Row>,
        ctx: &mut MdccCtx<'_>,
    ) -> Vec<TmEvent> {
        let HashEntry::Occupied(mut entry) = self.reads.entry(req) else {
            return Vec::new();
        };
        let task = entry.get_mut();
        let responses = task.responses.entry(key).or_default();
        if responses.iter().any(|(n, _, _)| *n == from) {
            // A duplicate from a replica already counted (retry
            // re-broadcast): an up-to-date quorum must be distinct
            // replicas or it no longer intersects write quorums.
            return Vec::new();
        }
        responses.push((from, version, value));
        let done = task
            .keys
            .iter()
            .all(|k| task.responses.get(k).map(|v| v.len()).unwrap_or(0) >= task.needed);
        if !done {
            return Vec::new();
        }
        let task = entry.remove();
        ctx.cancel_timer(task.timer);
        let values = task
            .keys
            .iter()
            .map(|k| {
                let responses = &task.responses[k];
                let best = match task.consistency {
                    ReadConsistency::Local => responses.first(),
                    ReadConsistency::UpToDate => responses.iter().max_by_key(|(_, v, _)| *v),
                };
                let (_, version, value) = best.cloned().unwrap_or((NodeId(0), Version::ZERO, None));
                (k.clone(), version, value)
            })
            .collect();
        vec![TmEvent::ReadDone { token: req, values }]
    }
}
