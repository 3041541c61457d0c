//! The transaction manager — the paper's stateless "DB library" (§2).
//!
//! Embedded in an app-server process, the TM implements the optimistic
//! commit protocol of §3.2:
//!
//! 1. the application executes reads (local read-committed by default,
//!    up-to-date quorum reads on request, §4.2) and collects a write-set;
//! 2. at commit, the TM proposes one option per record — directly to the
//!    acceptors when the record is (believed) fast, via the record's
//!    master otherwise;
//! 3. it learns each option from Phase2b quorums; **it may not abort a
//!    proposed transaction** — on learn failure it can only trigger
//!    recovery and keep waiting (the key difference from 2PC, §3.2.1);
//! 4. commit iff every option is learned accepted; the outcome fans out
//!    asynchronously as Visibility messages and does not add latency.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use mdcc_common::config::LEARN_TIMEOUT;
use mdcc_common::error::AbortReason;
use mdcc_common::{
    DcId, Key, NodeId, ProtocolConfig, RecordUpdate, Row, SimTime, TxnId, Version, WriteSet,
};
use mdcc_paxos::{
    FoldOutcome, LearnOutcome, Learner, OptionStatus, ShadowView, TxnOption, TxnOutcome,
};
use mdcc_sim::event::TimerId;
use mdcc_sim::Ctx;
use mdcc_trace::{Phase, TraceHandle};

use crate::msg::Msg;
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
    /// Delta-vote divergences repaired: `CstructPull` round trips this
    /// TM issued because a shadow view's digest mismatched.
    pub repair_pulls: u64,
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

// Iteration order of these maps drives message emission order, so they
// must be deterministic (`BTreeMap`) for reproducible simulations.
#[derive(Debug)]
struct ActiveTxn {
    started: SimTime,
    options: BTreeMap<Key, TxnOption>,
    learners: BTreeMap<Key, Learner>,
    decided: BTreeMap<Key, OptionStatus>,
    all_fast: bool,
    timer: TimerId,
    recovery_sent: HashSet<Key>,
    retries: u32,
}

#[derive(Debug)]
struct ReadTask {
    token: u64,
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
    /// Record-granular routes learned from `RecordHint` redirects:
    /// records whose classic traffic diverges from the shard lease
    /// (per-record lease overrides). Consulted before `lease_cache`;
    /// bounded by [`RECORD_ROUTES_CAP`] (a dropped route costs one
    /// forward hop through the shard holder).
    record_cache: HashMap<Key, NodeId>,
    /// Per-record, per-acceptor shadow views reconstructing each
    /// acceptor's cstruct from delta votes. Bounded by
    /// [`SHADOW_KEYS_CAP`]; a dropped shadow merely costs one
    /// `CstructPull` repair round trip on the record's next delta vote.
    shadows: HashMap<Key, Vec<ShadowView>>,
    stats: TxnStats,
    /// Shared trace collector; spans are recorded only when attached
    /// (and enabled), so the default TM pays one `Option` test.
    tracer: Option<TraceHandle>,
    /// The `MDCC_TRACE` debug tap (one stderr line per vote fed to a
    /// learner), read from the environment once at construction.
    trace_votes: bool,
}

/// Records whose shadow views this TM retains before the map resets.
/// Eviction is safe — the next delta vote for an evicted record fails to
/// fold and read-repairs with a full cstruct — so the cap only trades
/// repair round trips for memory.
const SHADOW_KEYS_CAP: usize = 4096;

/// Record-granular route entries this TM retains before the map resets.
/// Eviction is safe — the shard holder re-forwards and re-teaches the
/// route on the record's next proposal.
const RECORD_ROUTES_CAP: usize = 4096;

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
            record_cache: HashMap::new(),
            shadows: HashMap::new(),
            stats: TxnStats::default(),
            tracer: None,
            trace_votes: std::env::var_os("MDCC_TRACE").is_some(),
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
        ctx: &mut Ctx<'_, Msg>,
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
        let timer = ctx.set_timer(LEARN_TIMEOUT, Msg::ReadRetry { token });
        self.reads.insert(
            token,
            ReadTask {
                token,
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
        ctx: &mut Ctx<'_, Msg>,
    ) {
        match consistency {
            ReadConsistency::Local if !broadcast => {
                let node = self.placement.replica_in(key, self.cfg.my_dc);
                ctx.send(
                    node,
                    Msg::ReadReq {
                        req: token,
                        key: key.clone(),
                    },
                );
            }
            _ => {
                for node in self.placement.replicas(key) {
                    ctx.send(
                        node,
                        Msg::ReadReq {
                            req: token,
                            key: key.clone(),
                        },
                    );
                }
            }
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
        ctx: &mut Ctx<'_, Msg>,
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
        ctx: &mut Ctx<'_, Msg>,
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
        let mut learners = BTreeMap::new();
        for u in &ws.updates {
            let opt = TxnOption {
                txn,
                key: u.key.clone(),
                op: u.op.clone(),
                peers: Arc::clone(&ws.keys),
            };
            learners.insert(
                u.key.clone(),
                Learner::new(
                    self.cfg.protocol.replication,
                    self.cfg.protocol.classic_quorum,
                    self.cfg.protocol.fast_quorum,
                    txn,
                ),
            );
            if options.insert(u.key.clone(), opt).is_none() {
                // One coordinator, increasing sequence numbers: pushing
                // keeps each list in transaction order.
                self.waiting.entry(u.key.clone()).or_default().push(txn);
            }
        }
        if let Some(tracer) = &self.tracer {
            // One commit span per attempt, one phase2b span per option:
            // proposal fan-out → the quorum that decides the record.
            tracer.begin(
                ctx.self_id,
                self.cfg.my_dc,
                Some(txn),
                None,
                Phase::Commit,
                ctx.now,
            );
            for key in options.keys() {
                tracer.begin(
                    ctx.self_id,
                    self.cfg.my_dc,
                    Some(txn),
                    Some(key.clone()),
                    Phase::Phase2b,
                    ctx.now,
                );
            }
        }
        for opt in options.values() {
            self.propose(opt.clone(), ctx);
        }
        let timer = ctx.set_timer(LEARN_TIMEOUT, Msg::LearnTimeout { txn });
        self.active.insert(
            txn,
            ActiveTxn {
                started: ctx.now,
                options,
                learners,
                decided: BTreeMap::new(),
                all_fast: true,
                timer,
                recovery_sent: HashSet::new(),
                retries: 0,
            },
        );
        (txn, None)
    }

    /// The node to ask for recovery on `attempt` (0 = the default
    /// master). Master failover, §3.2.3: after *several* timeouts the
    /// next replica is asked to take over the record's mastership — any
    /// storage node can lead. Rotating too eagerly creates dueling
    /// leaders under contention (each stuck coordinator nominating a
    /// different node), so three attempts go to the same target before
    /// moving on.
    fn recovery_target(&self, key: &Key, attempt: u32) -> NodeId {
        let replicas = self.placement.replicas(key);
        let start = self.placement.master_dc(key).0 as usize;
        replicas[(start + attempt as usize / 3) % replicas.len()]
    }

    /// Routes one proposal per the record's believed mode (SENDPROPOSAL,
    /// Algorithm 1 lines 9–13).
    fn propose(&mut self, opt: TxnOption, ctx: &mut Ctx<'_, Msg>) {
        self.propose_attempt(opt, 0, ctx);
    }

    /// `propose`, parameterized by the retry attempt. With dynamic
    /// mastership on, classic proposals go to the shard's believed lease
    /// holder; retries rotate through the replica group instead, because
    /// the believed holder may be the crashed node (any replica either
    /// serves, forwards to the live holder, or leads classically).
    fn propose_attempt(&mut self, opt: TxnOption, attempt: u32, ctx: &mut Ctx<'_, Msg>) {
        let master = self.classic_cache.get(&opt.key).copied().or_else(|| {
            self.cfg
                .assume_classic
                .then(|| self.placement.master(&opt.key))
        });
        match master {
            Some(m) => {
                if self.cfg.protocol.mastership.enabled {
                    let shard = self.placement.shard_id(&opt.key);
                    let target = if attempt == 0 {
                        // Record-granular routes (per-record lease
                        // overrides) outrank the shard-level route.
                        self.record_cache
                            .get(&opt.key)
                            .copied()
                            .or_else(|| self.lease_cache.get(&shard).copied())
                            .unwrap_or(m)
                    } else {
                        let replicas = self.placement.shard_replicas(shard);
                        replicas[(self.cfg.my_dc.0 as usize + attempt as usize) % replicas.len()]
                    };
                    ctx.send(
                        target,
                        Msg::ProposeMastered {
                            origin_dc: self.cfg.my_dc,
                            opt,
                        },
                    );
                } else {
                    ctx.send(m, Msg::ProposeToMaster(opt));
                }
            }
            None => {
                for r in self.placement.replicas(&opt.key) {
                    ctx.send(r, Msg::Propose(opt.clone()));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Message handling.
    // ------------------------------------------------------------------

    /// Feeds a network message; returns completions/read results to act on.
    pub fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_, Msg>) -> Vec<TmEvent> {
        match msg {
            Msg::Vote { key, vote } => {
                // A vote sent as such (this coordinator had nothing to
                // fold a delta onto) doubles as a shadow reset:
                // subsequent deltas from this acceptor fold on top of it.
                if let Some(view) = self.shadow_mut(&key, from) {
                    view.observe_full(&vote);
                }
                self.on_vote(from, key, vote, ctx)
            }
            Msg::VoteDelta { key, delta } => {
                // Fold the delta into this acceptor's shadow view; on
                // success the reconstructed vote feeds the learners, on
                // divergence (lost delta, missed epoch, reordering)
                // read-repair pulls the acceptor's current vote.
                let Some(outcome) = self.fold_delta(&key, from, &delta) else {
                    return Vec::new();
                };
                match outcome {
                    FoldOutcome::Vote(vote) => self.on_vote(from, key, vote, ctx),
                    FoldOutcome::Diverged => {
                        // One pull per divergence: every vote arriving
                        // during the repair round trip re-detects the
                        // same gap, and re-pulling each time would ship
                        // the full cstruct once per in-flight vote.
                        let pull = self
                            .shadow_mut(&key, from)
                            .map(|view| view.should_pull())
                            .unwrap_or(false);
                        if pull {
                            self.stats.repair_pulls += 1;
                            ctx.send(from, Msg::CstructPull { key });
                        }
                        Vec::new()
                    }
                    FoldOutcome::Stale => Vec::new(),
                }
            }
            Msg::CstructFull { key, vote } => {
                // Read-repair response: reset the diverged shadow to the
                // acceptor's exact state, then learn from the vote.
                if let Some(view) = self.shadow_mut(&key, from) {
                    view.reset_full(&vote);
                }
                self.on_vote(from, key, vote, ctx)
            }
            Msg::NotFast { key, opt, promised } => {
                // The record is under a classic ballot: remember the
                // master and retry through it (§3.3.1 fallback).
                self.stats.classic_redirects += 1;
                if self.relevant(&opt) {
                    self.classic_cache.insert(key, promised.proposer);
                    ctx.send(promised.proposer, Msg::ProposeToMaster(opt));
                }
                Vec::new()
            }
            Msg::GoFast { key, opt } => {
                // The record reopened fast ballots: drop the cache entry
                // and propose directly.
                self.classic_cache.remove(&key);
                if self.relevant(&opt) {
                    for r in self.placement.replicas(&key) {
                        ctx.send(r, Msg::Propose(opt.clone()));
                    }
                }
                Vec::new()
            }
            Msg::InstanceFull { key, opt } => {
                // Ask the master to close + re-base the instance, then
                // route the option through it.
                self.stats.collisions += 1;
                let master = self.placement.master(&key);
                if self.relevant(&opt) {
                    ctx.send(master, Msg::StartRecovery { key: key.clone() });
                    self.classic_cache.insert(key, master);
                    ctx.send(master, Msg::ProposeToMaster(opt));
                }
                Vec::new()
            }
            Msg::AlreadyResolved { key, txn, outcome } => {
                let status = match outcome {
                    TxnOutcome::Committed => OptionStatus::Accepted,
                    TxnOutcome::Aborted => OptionStatus::Rejected(AbortReason::Resolved),
                };
                self.record_decision(txn, key, status, ctx)
            }
            Msg::ReadResp {
                req,
                key,
                version,
                value,
            } => self.on_read_resp(from, req, key, version, value, ctx),
            Msg::MasterHint { shard, node } => {
                // A replica redirected us: route this shard's mastered
                // traffic to the current lease holder.
                self.lease_cache.insert(shard, node);
                Vec::new()
            }
            Msg::RecordHint { key, node } => {
                // The shard holder redirected us record-granularly:
                // this record's classic ballot lives on `node`.
                if self.record_cache.len() > RECORD_ROUTES_CAP
                    && !self.record_cache.contains_key(&key)
                {
                    self.record_cache.clear();
                }
                self.record_cache.insert(key, node);
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    /// Handles a fired timer; same contract as [`Self::on_message`].
    pub fn on_timer(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) -> Vec<TmEvent> {
        if let Msg::ReadRetry { token } = msg {
            self.retry_read(token, ctx);
            return Vec::new();
        }
        let Msg::LearnTimeout { txn } = msg else {
            return Vec::new();
        };
        let Some(active) = self.active.get_mut(&txn) else {
            return Vec::new();
        };
        self.stats.timeouts += 1;
        active.retries += 1;
        let undecided: Vec<Key> = active
            .options
            .keys()
            .filter(|k| !active.decided.contains_key(*k))
            .cloned()
            .collect();
        // We may *not* abort: options might already be learned by others.
        // Trigger recovery on stuck records and re-propose (acceptors and
        // masters deduplicate).
        let opts: Vec<TxnOption> = undecided
            .iter()
            .map(|k| active.options[k].clone())
            .collect();
        // Exponential backoff: under heavy contention a recovery round can
        // outlast the base timeout, and re-triggering it on every tick
        // turns congestion into livelock.
        let backoff = LEARN_TIMEOUT * (1u64 << active.retries.min(4));
        active.timer = ctx.set_timer(backoff, Msg::LearnTimeout { txn });
        let attempt = self.active[&txn].retries;
        for (key, opt) in undecided.into_iter().zip(opts) {
            // Rotate through the replicas: the default master may be in a
            // failed data center (master failover, §3.2.3).
            let target = self.recovery_target(&key, attempt);
            ctx.send(target, Msg::StartRecovery { key: key.clone() });
            if attempt >= 3 {
                // The believed master may be the dead one; fall back to
                // fast proposals, which any live node can vote on.
                self.classic_cache.remove(&key);
            }
            if self.cfg.protocol.mastership.enabled {
                // The believed lease holder may be the crashed node; drop
                // both routes and let the rotated retry relearn them.
                self.lease_cache.remove(&self.placement.shard_id(&key));
                self.record_cache.remove(&key);
            }
            self.propose_attempt(opt, attempt, ctx);
        }
        Vec::new()
    }

    /// Re-issues the still-missing reads of a stalled batch. After a
    /// couple of attempts the local replica is presumed dead and the
    /// read fans out to every replica (the first response wins).
    fn retry_read(&mut self, token: u64, ctx: &mut Ctx<'_, Msg>) {
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
        let timer = ctx.set_timer(backoff, Msg::ReadRetry { token });
        self.reads.get_mut(&token).expect("present").timer = timer;
        for key in missing {
            self.send_read(token, &key, consistency, broadcast, ctx);
        }
    }

    /// The shadow view tracking acceptor `from`'s cstruct for `key`,
    /// materializing the per-record views on first contact.
    fn shadow_mut(&mut self, key: &Key, from: NodeId) -> Option<&mut ShadowView> {
        let idx = self.placement.acceptor_index(key, from)?;
        if self.shadows.len() > SHADOW_KEYS_CAP && !self.shadows.contains_key(key) {
            // Bounded memory: reset wholesale; evicted records repair
            // themselves with one CstructPull on their next delta vote.
            self.shadows.clear();
        }
        let n = self.cfg.protocol.replication;
        self.shadows
            .entry(key.clone())
            .or_insert_with(|| vec![ShadowView::new(); n])
            .get_mut(idx)
    }

    /// Folds one delta vote into the sender's shadow view. `None` when
    /// the sender is not an acceptor of the record.
    fn fold_delta(
        &mut self,
        key: &Key,
        from: NodeId,
        delta: &mdcc_paxos::DeltaVote,
    ) -> Option<FoldOutcome> {
        let view = self.shadow_mut(key, from)?;
        Some(view.fold(delta))
    }

    fn relevant(&self, opt: &TxnOption) -> bool {
        self.active
            .get(&opt.txn)
            .map(|a| !a.decided.contains_key(&opt.key))
            .unwrap_or(false)
    }

    fn on_vote(
        &mut self,
        from: NodeId,
        key: Key,
        vote: mdcc_paxos::acceptor::Phase2b,
        ctx: &mut Ctx<'_, Msg>,
    ) -> Vec<TmEvent> {
        // A vote can decide any of our in-flight transactions still
        // waiting on this record.
        let Some(candidates) = self.waiting.get(&key).cloned() else {
            return Vec::new();
        };
        let Some(idx) = self.placement.acceptor_index(&key, from) else {
            return Vec::new();
        };
        let mut events = Vec::new();
        let mut vote = Some(vote);
        for (i, txn) in candidates.iter().copied().enumerate() {
            // The last learner takes the vote itself; any before it take
            // a copy that shares its entries.
            let vote = if i + 1 == candidates.len() {
                vote.take()
            } else {
                vote.clone()
            }
            .expect("taken only by the last candidate");
            let active = self.active.get_mut(&txn).expect("candidate exists");
            let learner = active.learners.get_mut(&key).expect("learner exists");
            let shown = self.trace_votes.then(|| {
                format!(
                    "v={} b={} cstruct={}",
                    vote.version.0, vote.ballot, vote.cstruct
                )
            });
            let outcome = learner.on_vote(idx, vote);
            if let Some(shown) = shown {
                eprintln!(
                    "[tm-trace t={}] {txn} {key} vote from a{idx} {shown} -> {outcome:?} ({} resp)",
                    ctx.now,
                    learner.responses()
                );
            }
            match outcome {
                LearnOutcome::Learned(status) => {
                    if !learner.learned_fast() {
                        active.all_fast = false;
                    }
                    let commutative = active.options[&key].is_commutative();
                    let fast = learner.learned_fast();
                    events.extend(self.record_decision(txn, key.clone(), status, ctx));
                    // Algorithm 1, lines 24–26: a rejected commutative
                    // option in a fast ballot signals a demarcation-limit
                    // hit; the master must re-base.
                    if commutative && fast && !status.is_accepted() {
                        let master = self.placement.master(&key);
                        ctx.send(master, Msg::StartRecovery { key: key.clone() });
                    }
                }
                LearnOutcome::Collision => {
                    self.stats.collisions += 1;
                    let active = self.active.get_mut(&txn).expect("candidate exists");
                    if active.recovery_sent.insert(key.clone()) {
                        let master = self.placement.master(&key);
                        ctx.send(master, Msg::StartRecovery { key: key.clone() });
                    }
                }
                LearnOutcome::Undecided => {}
            }
        }
        events
    }

    fn record_decision(
        &mut self,
        txn: TxnId,
        key: Key,
        status: OptionStatus,
        ctx: &mut Ctx<'_, Msg>,
    ) -> Vec<TmEvent> {
        let Some(active) = self.active.get_mut(&txn) else {
            return Vec::new();
        };
        if let Some(tracer) = &self.tracer {
            tracer.end(
                ctx.self_id,
                Some(txn),
                Some(key.clone()),
                Phase::Phase2b,
                ctx.now,
            );
        }
        if let Some(waiting) = self.waiting.get_mut(&key) {
            waiting.retain(|t| *t != txn);
            if waiting.is_empty() {
                self.waiting.remove(&key);
            }
        }
        active.decided.insert(key, status);
        if active.decided.len() < active.options.len() {
            return Vec::new();
        }
        // All options decided: the outcome is now deterministic (§3.2.1).
        let active = self.active.remove(&txn).expect("present");
        ctx.cancel_timer(active.timer);
        let mut abort_reason = None;
        for status in active.decided.values() {
            if let OptionStatus::Rejected(r) = status {
                abort_reason = Some(*r);
                break;
            }
        }
        let outcome = if abort_reason.is_none() {
            TxnOutcome::Committed
        } else {
            TxnOutcome::Aborted
        };
        let finished = ctx.now;
        if let Some(tracer) = &self.tracer {
            tracer.end(ctx.self_id, Some(txn), None, Phase::Commit, finished);
            // The visibility span opens at the commit point; each replica
            // that applies the outcome extends it (node layer), and the
            // harvest closes it at the last application.
            tracer.begin(
                ctx.self_id,
                self.cfg.my_dc,
                Some(txn),
                None,
                Phase::Visibility,
                finished,
            );
        }
        // Visibility fan-out is asynchronous: it happens after the commit
        // point and does not add to transaction latency.
        for key in active.options.keys() {
            let learned_accepted = active.decided[key].is_accepted();
            for r in self.placement.replicas(key) {
                ctx.send(
                    r,
                    Msg::Visibility {
                        txn,
                        key: key.clone(),
                        outcome,
                        learned_accepted,
                    },
                );
            }
        }
        match outcome {
            TxnOutcome::Committed => {
                self.stats.committed += 1;
                if active.all_fast {
                    self.stats.fast_commits += 1;
                }
            }
            TxnOutcome::Aborted => self.stats.aborted += 1,
        }
        vec![TmEvent::Completed(TxnCompletion {
            txn,
            outcome,
            started: active.started,
            finished,
            abort_reason,
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
        ctx: &mut Ctx<'_, Msg>,
    ) -> Vec<TmEvent> {
        let Some(task) = self.reads.get_mut(&req) else {
            return Vec::new();
        };
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
        let task = self.reads.remove(&req).expect("present");
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
        vec![TmEvent::ReadDone {
            token: task.token,
            values,
        }]
    }
}
