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
//!    master otherwise — every classic send goes where one route rule
//!    names ([`crate::coordination::classic_target`]);
//! 3. it learns each option from Phase2b quorums; **it may not abort a
//!    proposed transaction** — on learn failure it can only trigger
//!    recovery and keep waiting (the key difference from 2PC, §3.2.1);
//! 4. commit iff every option is learned accepted; the outcome fans out
//!    asynchronously as Visibility messages and does not add latency.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use mdcc_common::config::LEARN_TIMEOUT;
use mdcc_common::error::AbortReason;
use mdcc_common::{
    DcId, Key, NodeId, ProtocolConfig, RecordUpdate, Row, SimTime, TxnId, Version, WriteSet,
};
use mdcc_paxos::acceptor::VoteVerdict;
use mdcc_paxos::{OptionStatus, Proposal, TxnOption, TxnOutcome};
use mdcc_sim::event::TimerId;
use mdcc_trace::{Phase, TraceHandle};

use crate::coordination::{classic_target, Coordination, Progress};
use crate::msg::{grouped, MdccCtx, Msg, RecordName, Tick, Verdicts};
use crate::placement::Placement;

mod reads;

use reads::Reads;

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

mdcc_common::counters! {
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
        /// `Verdict` entries dropped unread because the transaction whose
        /// write-set names their record no longer runs here (see
        /// [`Msg::Verdict`] for why that is safe).
        pub unanchored_verdicts: u64,
        /// Replies dropped as malformed: a `ReadResp` whose row count is not
        /// its request's key count, or a `Verdict` entry whose position falls
        /// outside its transaction's write-set.
        pub malformed_replies: u64,
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
    /// The write-set, in update order: a verdict names a record by its
    /// position here.
    peers: Arc<[Key]>,
    /// Learners and decisions, keys in sorted order.
    coord: Coordination,
    all_fast: bool,
    timer: TimerId,
}

/// The per-app-server transaction manager.
pub struct TransactionManager {
    cfg: TmConfig,
    placement: Arc<dyn Placement>,
    next_seq: u64,
    active: BTreeMap<TxnId, ActiveTxn>,
    /// Per record, the active transactions still waiting to learn their
    /// option on it, in transaction order — the learners a vote for that
    /// record feeds. Entries come with `commit` and go with
    /// `record_decision`.
    waiting: HashMap<Key, Vec<TxnId>>,
    reads: Reads,
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
            active: BTreeMap::new(),
            waiting: HashMap::new(),
            reads: Reads::default(),
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
        let keys = options.keys().cloned();
        let coord = Coordination::new(&self.cfg.protocol, txn, keys, &ws.keys);
        self.active.insert(
            txn,
            ActiveTxn {
                started: ctx.now,
                options,
                peers: ws.keys,
                coord,
                all_fast: true,
                timer,
            },
        );
        (txn, None)
    }

    /// Routes a transaction's proposals per their records' believed mode
    /// (SENDPROPOSAL, Algorithm 1 lines 9–13); `attempt` counts the learn
    /// timeouts so far. Classic records' options go one proposal per
    /// master: with mastership on, where the route rule sends them; off,
    /// to the master a bounce named, else the static one. The rest go
    /// fast, one `Propose` per storage node.
    fn propose_attempt<'a>(
        &self,
        opts: impl IntoIterator<Item = &'a TxnOption>,
        attempt: u32,
        ctx: &mut MdccCtx<'_>,
    ) {
        let mastered = self.cfg.protocol.mastership.enabled;
        let (mut classic, mut fast) = (Vec::new(), Vec::new());
        for opt in opts {
            let cached = self.classic_cache.get(&opt.key).copied();
            match cached.or_else(|| self.cfg.assume_classic.then(|| self.target(&opt.key, 0))) {
                Some(_) if mastered => classic.push((vec![self.target(&opt.key, attempt)], opt)),
                Some(m) => classic.push((vec![m], opt)),
                None => fast.push(opt),
            }
        }
        let origin_dc = self.cfg.my_dc;
        for (node, group) in grouped(classic) {
            let Some(proposal) = Proposal::of(group) else {
                continue;
            };
            let msg = if mastered {
                Msg::ProposeMastered {
                    origin_dc,
                    proposal,
                }
            } else {
                Msg::ProposeToMaster(proposal)
            };
            ctx.send(node, msg);
        }
        self.propose_fast(fast, ctx);
    }

    /// Where `key`'s classic work goes on `attempt`: the route rule, by
    /// the lease holder `MasterHint`s named when mastership is on.
    fn target(&self, key: &Key, attempt: u32) -> NodeId {
        let holder = || self.lease_cache.get(&self.placement.shard_id(key)).copied();
        let leased = (self.cfg.protocol.mastership.enabled).then(|| (holder(), self.cfg.my_dc));
        classic_target(&*self.placement, key, attempt, leased)
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
        for (node, group) in grouped(routed) {
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
            Msg::Verdict(Verdicts { txn, records }) => self.on_verdicts(from, txn, records, ctx),
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
            Msg::ReadResp { req, rows } => self.on_read_resp(from, req, rows, ctx),
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
                    self.propose_attempt([&opt], 0, ctx);
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
                let master = self.target(&key, 0);
                if let Some(opt) = self.relevant(txn, &key).cloned() {
                    ctx.send(master, Msg::StartRecovery { key: key.clone() });
                    self.classic_cache.insert(key, master);
                    self.propose_attempt([&opt], 0, ctx);
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
            ctx.send(self.target(&key, attempt), Msg::StartRecovery { key });
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

    /// `txn`'s option on `key` while the transaction is in flight and the
    /// option has no status yet: what a storage node that bounced it asks
    /// this TM to send again.
    fn relevant(&self, txn: TxnId, key: &Key) -> Option<&TxnOption> {
        let active = self.active.get(&txn)?;
        let open = !active.coord.is_decided(key);
        active.options.get(key).filter(|_| open)
    }

    /// Acceptor `from`'s verdicts, one per record. Every record is named
    /// before any verdict is fed — feeding one can finish `txn` and drop
    /// the write-set the rest are named by. A position is read through
    /// `txn`'s write-set: dropped if `txn` no longer runs here (see
    /// [`Msg::Verdict`]), and as malformed if it falls outside it.
    fn on_verdicts(
        &mut self,
        from: NodeId,
        txn: TxnId,
        records: Vec<(RecordName, VoteVerdict)>,
        ctx: &mut MdccCtx<'_>,
    ) -> Vec<TmEvent> {
        let peers = self.active.get(&txn).map(|a| Arc::clone(&a.peers));
        let mut named = Vec::with_capacity(records.len());
        for (name, verdict) in records {
            let key = match (name, &peers) {
                (RecordName::Key(key), _) => key,
                (RecordName::At(_), None) => {
                    self.stats.unanchored_verdicts += 1;
                    continue;
                }
                (RecordName::At(at), Some(peers)) => match peers.get(at as usize) {
                    Some(key) => key.clone(),
                    None => {
                        self.stats.malformed_replies += 1;
                        continue;
                    }
                },
            };
            named.push((key, verdict));
        }
        let mut events = Vec::new();
        for (key, verdict) in named {
            events.extend(self.on_answer(from, key, ctx, |coord, key, idx| {
                coord.on_verdict(key, idx, &verdict)
            }));
        }
        events
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
                        ctx.send(
                            self.target(&key, 0),
                            Msg::StartRecovery { key: key.clone() },
                        );
                    }
                }
                Progress::Collision { ask_master } => {
                    self.stats.collisions += 1;
                    if ask_master {
                        ctx.send(
                            self.target(&key, 0),
                            Msg::StartRecovery { key: key.clone() },
                        );
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
}
