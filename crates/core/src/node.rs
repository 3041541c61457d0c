//! The storage-node process: acceptors, masters and dangling recovery.
//!
//! One `StorageNodeProcess` serves every record of its shard within its
//! data center. It plays three roles:
//!
//! * **acceptor** for fast proposals, Phase1a/Phase2a and visibility
//!   messages, delegating to [`mdcc_storage::RecordStore`];
//! * **master (leader)** for records whose classic ballots it owns,
//!   delegating to [`mdcc_paxos::LeaderRecord`] (the handlers of this
//!   role are in the child module `master`);
//! * **recovery coordinator** for dangling transactions (§3.2.3): options
//!   outstanding past the timeout are reconstructed by quorum-reading
//!   every key in the option's write-set and resolved deterministically.
//!
//! # Stale proposals wait
//!
//! The network reorders, so a coordinator's `Propose(N+1)` can reach a
//! replica before its own `Visibility(N)`. A fast proposal that read a
//! version this replica has not reached (`RecordStore::behind`) is
//! parked in [`crate::parked::Parked`] instead of being judged — the
//! acceptor could only vote "no" for a reason that is this replica's
//! lag, not the transaction's fault. The invariants:
//!
//! * **A parked proposal has touched nothing.** It is held before the
//!   WAL append and before the acceptor sees it: not logged, not in a
//!   cstruct, not voted on. The node behaves as if the network had
//!   delivered it later; a crash forgets it like an in-flight message,
//!   and WAL replay finds `FastPropose` where it was judged.
//! * **Every parked proposal reads a version above its record's.** The
//!   table is drained for a record wherever its version can move —
//!   `record_moved` (visibility, classic accept, sync adoption) and the
//!   `Propose` path itself, since a Visibility that overtook a proposal
//!   closes the instance when the proposal is judged.
//! * **Release is judgement by the unchanged acceptor**, in arrival
//!   order per record, through the same path as an arriving `Propose`.
//! * **Nothing waits longer than before.** The coordinator's retry of a
//!   transaction (its learn timeout fired) is judged on arrival and
//!   drops the parked copy; the table is capped; a crash empties it.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use mdcc_common::config::{
    CHECKPOINT_INTERVAL, DANGLING_TIMEOUT, LEARN_TIMEOUT, RECOVERY_SYNC_INTERVAL, SYNC_CHUNK_KEYS,
};
use mdcc_common::error::AbortReason;
use mdcc_common::{DcId, Key, NodeId, ProtocolConfig, SimDuration, SimTime, TxnId};
use mdcc_mastership::{LeaseAudit, Mastership, MastershipStats, HEARTBEAT_INTERVAL};
use mdcc_paxos::acceptor::{FastPropose, Phase2b, VoteVerdict};
use mdcc_paxos::{Ballot, LeaderRecord, OptionStatus, TxnOption, TxnOutcome};
use mdcc_recovery::{wal, write_checkpoint, RecoveryInfo, WalRecord};
use mdcc_sim::Process;
use mdcc_storage::RecordStore;
use mdcc_trace::{Phase, TraceHandle};

use crate::coordination::{recovery_target, Coordination, Progress};
use crate::fence::LeaseFence;
use crate::msg::{send_each, MdccCtx, Msg, Tick};
use crate::parked::Parked;
use crate::placement::Placement;

mod master;

/// Counters a storage node keeps about itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeStats {
    /// Fast proposals voted on.
    pub fast_votes: u64,
    /// Classic Phase2a proposals voted on.
    pub classic_votes: u64,
    /// Fast proposals bounced because a classic ballot was in force.
    pub not_fast_bounces: u64,
    /// Instance-full bounces.
    pub instance_full: u64,
    /// Collision/limit recoveries this node led.
    pub recoveries_led: u64,
    /// Dangling transactions this node resolved.
    pub dangling_resolved: u64,
    /// Durable checkpoints written (snapshot + WAL compaction).
    pub checkpoints: u64,
    /// Anti-entropy sync rounds initiated after a restart.
    pub sync_rounds: u64,
    /// Records whose state changed through peer sync.
    pub sync_adoptions: u64,
    /// `CstructPull` requests this node answered with its current whole
    /// vote.
    pub repair_served: u64,
    /// Committed visibilities that arrived for options this node never
    /// accepted (bare outcomes): each triggers a targeted per-key
    /// anti-entropy pull so the missed execution is installed from a
    /// peer instead of silently diverging the value.
    pub missed_commit_pulls: u64,
    /// Fast-ballot options received, counted per option (a `Propose`
    /// carries every option of its transaction this node replicates).
    pub proposals: u64,
    /// Those whose option carries a read version (physical updates of
    /// existing records, read guards) — the only ones that can park.
    pub versioned_proposals: u64,
    /// Fast proposals held because they read a version this replica had
    /// not reached yet (see [`crate::parked`]).
    pub proposals_parked: u64,
    /// Parked proposals judged after their record caught up.
    pub parked_released: u64,
    /// Parked proposals judged while the record was still behind: the
    /// coordinator re-proposed the transaction, or the table overflowed.
    pub parked_judged_behind: u64,
    /// Messages delivered here that a storage node has no use for and
    /// drops (TM-side kinds): each was encoded, framed, queued and
    /// charged for nothing. Zero unless a sender targets a node that
    /// cannot use what it sends.
    pub stray_msgs: u64,
}

impl std::ops::AddAssign for NodeStats {
    /// Field-wise sum (cluster-wide totals).
    fn add_assign(&mut self, o: Self) {
        self.fast_votes += o.fast_votes;
        self.classic_votes += o.classic_votes;
        self.not_fast_bounces += o.not_fast_bounces;
        self.instance_full += o.instance_full;
        self.recoveries_led += o.recoveries_led;
        self.dangling_resolved += o.dangling_resolved;
        self.checkpoints += o.checkpoints;
        self.sync_rounds += o.sync_rounds;
        self.sync_adoptions += o.sync_adoptions;
        self.repair_served += o.repair_served;
        self.missed_commit_pulls += o.missed_commit_pulls;
        self.proposals += o.proposals;
        self.versioned_proposals += o.versioned_proposals;
        self.proposals_parked += o.proposals_parked;
        self.parked_released += o.parked_released;
        self.parked_judged_behind += o.parked_judged_behind;
        self.stray_msgs += o.stray_msgs;
    }
}

/// How often the store is swept for dangling options: twice per timeout.
const SWEEP_INTERVAL: SimDuration = SimDuration::from_micros(DANGLING_TIMEOUT.as_micros() / 2);

/// Retry sweeps of a dangling-transaction recovery before an option that
/// nobody has seen at the current instance is declared dead and the
/// transaction resolved as aborted. Sound because recovery only starts
/// `DANGLING_TIMEOUT` (seconds) after acceptance while message delays
/// are sub-second — the same synchrony assumption the paper's
/// timeout-based recovery makes (§3.2.3).
const RECOVERY_ABANDON_RETRIES: u32 = 3;

/// The vote an acceptor gives for a record it has never materialized.
fn absent_vote() -> Phase2b {
    Phase2b {
        ballot: Ballot::INITIAL_FAST,
        version: mdcc_common::Version::ZERO,
        cstruct: mdcc_paxos::CStruct::new(),
        epoch: 0,
    }
}

/// A storage node (one per shard per data center).
pub struct StorageNodeProcess {
    cfg: ProtocolConfig,
    store: RecordStore,
    placement: Arc<dyn Placement>,
    leaders: HashMap<Key, LeaderRecord>,
    /// `false` reproduces the *Multi* configuration: masters never hand
    /// records back to fast ballots.
    allow_fast: bool,
    /// In-flight dangling-transaction reconstructions: the coordinator's
    /// role, taken over for someone else's transaction, keys in the
    /// option's `peers` order.
    recoveries: HashMap<TxnId, Coordination>,
    /// When `true` the node write-ahead-logs every state-changing input
    /// to its simulated disk and checkpoints periodically.
    durable: bool,
    /// Set when this process was rebuilt from disk after a crash; such
    /// nodes run periodic anti-entropy rounds against peer replicas.
    recovered: Option<RecoveryInfo>,
    /// Rotating index into the peer-replica list for sync rounds.
    sync_cursor: usize,
    /// Transactions already redirected back to the fast path once
    /// (GoFast); a re-bounced proposal is accepted for classic leading
    /// instead of ping-ponging. Entries clear on resolution.
    redirected_fast: HashSet<TxnId>,
    /// `stats.sync_adoptions` as of the previous sync sweep, plus the
    /// number of consecutive sweeps that adopted nothing — sweeping
    /// stops once a full peer rotation stays quiet (convergence).
    last_sync_adoptions: u64,
    sync_idle_rounds: u32,
    stats: NodeStats,
    /// Shared trace collector for leader-ballot and visibility spans.
    tracer: Option<TraceHandle>,
    /// This node's data center, for span attribution (set with the
    /// tracer; protocol logic never reads it).
    my_dc: DcId,
    /// Dynamic-mastership layer (leases + ballot leader election),
    /// constructed in `on_start` when `cfg.mastership.enabled`. `None`
    /// reproduces static placement byte-identically: no extra timers,
    /// messages or state.
    mastership: Option<Mastership>,
    /// Shared lease-tenure collector handed to the mastership layer
    /// (consistency audits assert no overlapping tenures).
    lease_audit: Option<LeaseAudit>,
    /// Lease-carried Phase1: the promise floors of the leases this node
    /// granted.
    fence: LeaseFence,
    /// Fast proposals that read a version this replica has not reached,
    /// held until the record catches up. Volatile like an in-flight
    /// message: nothing in it was logged, appended or voted on.
    parked: Parked,
}

/// Bound on the fast-redirect memo: entries normally clear on
/// resolution, but a transaction whose coordinator dies right after the
/// redirect never resolves here; past the cap the memo resets (which at
/// worst re-allows one redirect per stale transaction).
const REDIRECTED_FAST_CAP: usize = 4096;

/// Retries of a missed-commit peer pull (rotating target peers) before
/// the node gives up and waits for the next instance close to repair
/// it via snapshot adoption.
const MISSED_PULL_RETRIES: u32 = 3;

impl StorageNodeProcess {
    /// Creates a storage node over `store`.
    pub fn new(
        cfg: ProtocolConfig,
        store: RecordStore,
        placement: Arc<dyn Placement>,
        allow_fast: bool,
    ) -> Self {
        let fence = LeaseFence::new(cfg.mastership.enabled, Arc::clone(&placement));
        Self {
            cfg,
            store,
            placement,
            fence,
            leaders: HashMap::new(),
            allow_fast,
            recoveries: HashMap::new(),
            durable: false,
            recovered: None,
            sync_cursor: 0,
            redirected_fast: HashSet::new(),
            last_sync_adoptions: 0,
            sync_idle_rounds: 0,
            stats: NodeStats::default(),
            tracer: None,
            my_dc: DcId(0),
            mastership: None,
            lease_audit: None,
            parked: Parked::new(),
        }
    }

    /// Attaches the run's shared lease audit; must be set before spawn
    /// so `on_start` hands it to the mastership layer.
    pub fn set_lease_audit(&mut self, audit: LeaseAudit) {
        self.lease_audit = Some(audit);
    }

    /// Mastership counters, if the dynamic-mastership layer is active.
    pub fn mastership_stats(&self) -> Option<MastershipStats> {
        self.mastership.as_ref().map(|m| m.stats())
    }

    /// Installs lease floors recovered from the WAL tail (see
    /// [`mdcc_recovery::recovered_leases`]) into this node's fence —
    /// enforcement only, see [`LeaseFence::install_recovered`].
    pub fn install_recovered_leases(&mut self, leases: mdcc_recovery::RecoveredLeases) {
        self.fence.install_recovered(leases);
    }

    /// Attaches the run's trace collector. `my_dc` is this node's data
    /// center (spans carry it; the world is not reachable from here).
    pub fn set_tracer(&mut self, tracer: TraceHandle, my_dc: DcId) {
        self.tracer = Some(tracer);
        self.my_dc = my_dc;
    }

    /// Creates a storage node whose store was rebuilt from its disk
    /// (checkpoint + WAL replay). The node is durable, and `on_start`
    /// additionally kicks off anti-entropy sync rounds so the node
    /// catches up on whatever committed while it was down.
    pub fn from_recovery(
        cfg: ProtocolConfig,
        store: RecordStore,
        placement: Arc<dyn Placement>,
        allow_fast: bool,
        info: RecoveryInfo,
    ) -> Self {
        let mut node = Self::new(cfg, store, placement, allow_fast);
        node.durable = true;
        node.recovered = Some(info);
        node
    }

    /// Turns on write-ahead logging + periodic checkpoints. Must be set
    /// before the node is spawned (the WAL must cover every input).
    pub fn enable_durability(&mut self) {
        self.durable = true;
    }

    /// Read access to the underlying store (tests, metrics).
    pub fn store(&self) -> &RecordStore {
        &self.store
    }

    /// Mutable store access (bulk loading before the simulation starts).
    pub fn store_mut(&mut self) -> &mut RecordStore {
        &mut self.store
    }

    /// This node's counters.
    pub fn stats(&self) -> NodeStats {
        self.stats
    }

    /// Write-ahead-logs commands, if durability is on and the world
    /// attached a disk. The records are built (from the current time)
    /// only then: a node without a WAL must not pay for clones of what it
    /// would drop.
    fn wal_append<I>(&self, ctx: &mut MdccCtx<'_>, records: impl FnOnce(SimTime) -> I)
    where
        I: IntoIterator<Item = WalRecord>,
    {
        if !self.durable {
            return;
        }
        let now = ctx.now;
        if let Some(disk) = ctx.disk() {
            for record in records(now) {
                wal::append(disk, &record);
            }
        }
    }

    /// Opens one merkle-style anti-entropy round with the next peer in
    /// rotation: the peer answers with range digests, this node pulls
    /// only divergent ranges, and state ships in multi-record chunks.
    /// The peers are the shard's replica group as the placement lists it:
    /// a store that came back empty has peers to sync from all the same.
    fn run_sync_round(&mut self, ctx: &mut MdccCtx<'_>) {
        let mut peers = (0..self.placement.shard_count())
            .map(|shard| self.placement.shard_replicas(shard))
            .find(|group| group.contains(&ctx.self_id))
            .unwrap_or_default();
        peers.retain(|r| *r != ctx.self_id);
        if peers.is_empty() {
            return;
        }
        let target = peers[self.sync_cursor % peers.len()];
        self.sync_cursor += 1;
        self.stats.sync_rounds += 1;
        ctx.send(target, Msg::SyncDigestReq);
    }

    /// Applies one record's worth of peer sync state (one item of a
    /// `SyncChunk`).
    fn apply_sync_item(&mut self, item: mdcc_storage::SyncItem, ctx: &mut MdccCtx<'_>) {
        let (key, snapshot, resolved) = (item.key, item.snapshot, item.resolved);
        if !self.store.sync_relevant(&key, &snapshot, &resolved) {
            return;
        }
        self.wal_append(ctx, |at| {
            [WalRecord::Sync {
                at,
                key: key.clone(),
                snapshot: snapshot.clone(),
                resolved: resolved.clone(),
            }]
        });
        let before = self.store.version_of(&key);
        if self.store.sync_from_peer(&key, &snapshot, &resolved) {
            self.stats.sync_adoptions += 1;
        }
        if self.store.version_of(&key) != before {
            self.record_moved(&key, ctx);
        }
    }

    /// Fans a vote out to every coordinator that can still learn
    /// something from it, so recovery-adopted options reach their
    /// transaction managers (learners). Entries this node has an outcome
    /// for are settled business at their coordinator — it produced the
    /// Visibility, and stale retries get `AlreadyResolved`.
    ///
    /// `also` is the proposer on the fast path, where the proposer *is*
    /// the learner and must hear back even if the outcome overtook its
    /// option. On the classic path it is nobody: the Phase2a came from
    /// the master, which learns that its instance advanced from its
    /// local acceptor and would drop the vote unread.
    ///
    /// Each destination is sent the vote as a verdict
    /// ([`mdcc_paxos::AcceptorRecord::verdicts`]): what `vote` — which
    /// starts at the record's settled watermark — says of the
    /// destination's own open options. A learner that needs the cstruct
    /// itself comes back with a `CstructPull`.
    fn fan_out_vote(
        &mut self,
        key: &Key,
        vote: &Phase2b,
        also: Option<NodeId>,
        ctx: &mut MdccCtx<'_>,
    ) {
        let verdicts = self.store.with_record(key, |rec| rec.verdicts(vote));
        let mut verdicts = verdicts.unwrap_or_default();
        if let Some(proposer) = also {
            // The proposer first, with nothing to say of its options if
            // none is open here.
            let verdict = match verdicts.iter().position(|(to, _)| *to == proposer) {
                Some(at) => verdicts.remove(at).1,
                None => VoteVerdict {
                    ballot: vote.ballot,
                    version: vote.version,
                    letters: Vec::new(),
                },
            };
            verdicts.insert(0, (proposer, verdict));
        }
        for (to, verdict) in verdicts {
            let key = key.clone();
            ctx.send(to, Msg::Verdict { key, verdict });
        }
    }

    /// A fast-ballot option arrived (`Msg::Propose` carries one per record
    /// of its transaction this node replicates, fed here in order).
    ///
    /// A proposal that read a version this replica has not reached is
    /// parked instead of judged — before the WAL append and before the
    /// acceptor sees it, so to every other participant the network
    /// merely delivered it later (see [`crate::parked`]). It is judged
    /// when the record catches up ([`Self::release_parked`]), when the
    /// coordinator proposes the transaction again (its learn timeout
    /// fired: it has waited long enough, so the fresh copy is judged as
    /// it stands and the parked one dropped), or when the table
    /// overflows (the oldest is judged as it stands).
    fn on_propose(&mut self, from: NodeId, opt: TxnOption, ctx: &mut MdccCtx<'_>) {
        self.stats.proposals += 1;
        self.stats.versioned_proposals += u64::from(opt.op.read_version().is_some());
        let retried = self.parked.take(opt.txn, &opt.key).is_some();
        if retried {
            self.stats.parked_judged_behind += 1;
        } else if self.store.behind(&opt) {
            self.stats.proposals_parked += 1;
            if let Some((from, oldest)) = self.parked.park(from, opt) {
                self.stats.parked_judged_behind += 1;
                self.judge_proposal(from, oldest, ctx);
            }
            return;
        }
        let key = opt.key.clone();
        self.judge_proposal(from, opt, ctx);
        // A Visibility that overtook this proposal may just have closed
        // the instance: whatever waited for that version is due.
        self.release_parked(&key, ctx);
    }

    /// Logs one fast proposal, lets the acceptor judge it and answers.
    fn judge_proposal(&mut self, from: NodeId, opt: TxnOption, ctx: &mut MdccCtx<'_>) {
        let key = opt.key.clone();
        let txn = opt.txn;
        self.wal_append(ctx, |at| {
            [WalRecord::FastPropose {
                at,
                opt: opt.clone(),
            }]
        });
        match self.store.fast_propose(opt, ctx.now) {
            FastPropose::Vote(vote) => {
                self.stats.fast_votes += 1;
                self.fan_out_vote(&key, &vote, Some(from), ctx);
            }
            FastPropose::NotFast { promised } => {
                self.stats.not_fast_bounces += 1;
                ctx.send(from, Msg::NotFast { key, txn, promised });
            }
            FastPropose::InstanceFull => {
                self.stats.instance_full += 1;
                ctx.send(from, Msg::InstanceFull { key, txn });
            }
            FastPropose::AlreadyResolved(outcome) => {
                ctx.send(from, Msg::AlreadyResolved { key, txn, outcome });
            }
        }
    }

    /// Judges, in arrival order, the parked proposals of `key` whose
    /// read version the record has reached — called wherever the
    /// record's version may have moved. A judged proposal can itself
    /// move the version (its Visibility overtook it), hence the loop;
    /// proposals still ahead stay parked.
    fn release_parked(&mut self, key: &Key, ctx: &mut MdccCtx<'_>) {
        while self.parked.waits_on(key) {
            let due = self.parked.release(key, self.store.version_of(key));
            if due.is_empty() {
                return;
            }
            for (from, opt) in due {
                self.stats.parked_released += 1;
                self.judge_proposal(from, opt, ctx);
            }
        }
    }

    /// Proposals still parked on this node (audits: zero once a run has
    /// drained).
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// The local acceptor's version of `key` moved (visibility, classic
    /// accept, sync adoption): tell the co-located leader, if any, that
    /// the acceptor advanced past its instance, and judge the parked
    /// proposals that waited for the version.
    fn record_moved(&mut self, key: &Key, ctx: &mut MdccCtx<'_>) {
        if let Some(snapshot) = self.store.with_record(key, |r| r.snapshot()) {
            self.with_leader(key, |l| l.on_advance(snapshot), ctx);
            if let (Some(tracer), true) = (&self.tracer, self.leaders.contains_key(key)) {
                // The acceptor advanced past the instance the 2a round
                // targeted; a no-op if no phase2a span is open.
                let key = Some(key.clone());
                tracer.end(ctx.self_id, None, key, Phase::Phase2a, ctx.now);
            }
        }
        self.release_parked(key, ctx);
    }

    // ------------------------------------------------------------------
    // Dangling-transaction recovery.
    // ------------------------------------------------------------------

    fn start_dangling_recovery(&mut self, txn: TxnId, keys: Arc<[Key]>, ctx: &mut MdccCtx<'_>) {
        if self.recoveries.contains_key(&txn) {
            return;
        }
        let coord = Coordination::new(&self.cfg, txn, keys.iter().cloned());
        for key in coord.undecided() {
            self.query_status(txn, key, ctx);
        }
        self.recoveries.insert(txn, coord);
        ctx.set_timer(LEARN_TIMEOUT, Tick::RecoveryRetry { txn });
    }

    /// Quorum-reads `txn`'s option on `key`: asks every replica.
    fn query_status(&self, txn: TxnId, key: &Key, ctx: &mut MdccCtx<'_>) {
        send_each(ctx, &self.placement.replicas(key), || Msg::QueryStatus {
            txn,
            key: key.clone(),
        });
    }

    fn finish_recovery(&mut self, txn: TxnId, outcome: TxnOutcome, ctx: &mut MdccCtx<'_>) {
        let Some(coord) = self.recoveries.remove(&txn) else {
            return;
        };
        self.stats.dangling_resolved += 1;
        let placement = Arc::clone(&self.placement);
        let me = ctx.self_id;
        // This node applies its own verdict directly: routing the
        // self-notification through the (lossy) network risks the one
        // message whose loss leaves the recovery coordinator itself
        // dangling after everyone else has moved on.
        let emit = |to: NodeId, msg: Msg| {
            if to == me {
                self.on_message(me, msg, ctx)
            } else {
                ctx.send(to, msg)
            }
        };
        coord.visibility(outcome, &*placement, Some(me), emit);
    }

    /// Applies one transaction outcome to one record on this node — what
    /// the `Visibility` message handler does for each record it names.
    fn apply_visibility_local(
        &mut self,
        txn: TxnId,
        key: Key,
        outcome: TxnOutcome,
        learned_accepted: bool,
        ctx: &mut MdccCtx<'_>,
    ) {
        self.wal_append(ctx, |at| {
            [WalRecord::Visibility {
                at,
                key: key.clone(),
                txn,
                outcome,
                learned_accepted,
            }]
        });
        // A visibility also settles any recovery we were running.
        if self.recoveries.contains_key(&txn) {
            self.finish_recovery(txn, outcome, ctx);
        }
        self.redirected_fast.remove(&txn);
        // A committed option this node never accepted (bounced
        // proposal, divergent ballot mode) lands as a bare
        // outcome: the update cannot execute here and the value
        // silently falls behind every peer that held the entry.
        // Detect it and read-repair the key from a peer replica
        // (the peer ships its committed snapshot plus resolved
        // options; `install_learned` executes what was missed).
        let missed = outcome == TxnOutcome::Committed
            && learned_accepted
            && self
                .store
                .with_record(&key, |r| r.would_miss_execution(txn))
                .unwrap_or(true);
        let advanced = self
            .store
            .apply_visibility(&key, txn, outcome, learned_accepted);
        if let Some(tracer) = &self.tracer {
            // Stretch the coordinator's visibility span to this
            // replica's application time; the harvest closes it
            // at the last replica reached.
            tracer.extend(txn.coordinator, Some(txn), None, Phase::Visibility, ctx.now);
        }
        if advanced {
            self.record_moved(&key, ctx);
        }
        if missed {
            self.pull_missed_commit(key, txn, 0, ctx);
        }
    }

    /// Read-repairs a committed option whose execution this node missed
    /// (a Visibility landed as a bare outcome): pull the key's sync
    /// payload from a peer replica and re-check on a timer, rotating
    /// peers, until the execution is installed or the attempts run out.
    /// The timer also covers the race where the pull overtakes the
    /// peer's own Visibility.
    fn pull_missed_commit(&mut self, key: Key, txn: TxnId, attempt: u32, ctx: &mut MdccCtx<'_>) {
        let mut peers = self.placement.replicas(&key);
        peers.retain(|r| *r != ctx.self_id);
        if peers.is_empty() {
            return;
        }
        if attempt == 0 {
            // Count divergence events, not retry attempts.
            self.stats.missed_commit_pulls += 1;
        }
        let target = peers[(txn.seq as usize + attempt as usize) % peers.len()];
        let ranges = vec![(key.clone(), key.clone())];
        ctx.send(target, Msg::SyncRangePull { ranges });
        if attempt < MISSED_PULL_RETRIES {
            let attempt = attempt + 1;
            ctx.set_timer(LEARN_TIMEOUT, Tick::MissedPull { key, txn, attempt });
        }
    }

    /// Finishes `txn`'s recovery once the commit rule has a verdict.
    fn recovery_check_done(&mut self, txn: TxnId, ctx: &mut MdccCtx<'_>) {
        let verdict = self.recoveries.get(&txn).and_then(|c| c.verdict());
        if let Some(verdict) = verdict {
            self.finish_recovery(txn, verdict.outcome, ctx);
        }
    }

    // ------------------------------------------------------------------
    // Message handlers, one per family (see `Process::on_message`).
    // ------------------------------------------------------------------

    /// The merkle anti-entropy family: a restarted peer asks for range
    /// digests, pulls the ranges that differ and applies the chunks.
    fn on_sync(&mut self, from: NodeId, msg: Msg, ctx: &mut MdccCtx<'_>) {
        match msg {
            Msg::SyncDigestReq => {
                // Advertise range digests of everything we hold; full
                // state only ships for ranges the peer finds divergent.
                let ranges = self.store.sync_ranges(SYNC_CHUNK_KEYS);
                if !ranges.is_empty() {
                    ctx.send(from, Msg::SyncDigest { ranges });
                }
            }
            Msg::SyncDigest { ranges } => {
                // Compare the advertised ranges against local state in
                // one pass and pull only the ones whose digests differ.
                let divergent = self.store.divergent_ranges(&ranges);
                if !divergent.is_empty() {
                    ctx.send(from, Msg::SyncRangePull { ranges: divergent });
                }
            }
            Msg::SyncRangePull { ranges } => {
                for items in self.store.sync_items_in(&ranges) {
                    for chunk in items.chunks(SYNC_CHUNK_KEYS) {
                        let items = chunk.to_vec();
                        ctx.send(from, Msg::SyncChunk { items });
                    }
                }
            }
            Msg::SyncChunk { items } => {
                for item in items {
                    self.apply_sync_item(item, ctx);
                }
            }
            _ => {}
        }
    }

    fn on_sync_sweep(&mut self, ctx: &mut MdccCtx<'_>) {
        if self.stats.sync_adoptions == self.last_sync_adoptions {
            self.sync_idle_rounds += 1;
        } else {
            self.last_sync_adoptions = self.stats.sync_adoptions;
            self.sync_idle_rounds = 0;
        }
        // Stop only after strictly more quiet rounds than there are
        // peers: a full rotation — including at least one live,
        // never-crashed replica — found nothing to repair.
        if self.sync_idle_rounds > self.cfg.replication as u32 {
            return;
        }
        self.run_sync_round(ctx);
        ctx.set_timer(RECOVERY_SYNC_INTERVAL, Tick::SyncSweep);
    }

    fn on_read(&mut self, from: NodeId, req: u64, key: Key, ctx: &mut MdccCtx<'_>) {
        let (version, value) = match self.store.read_committed(&key) {
            Some((v, row)) => (v, Some(row)),
            None => (self.store.version_of(&key), None),
        };
        let resp = Msg::ReadResp {
            req,
            key,
            version,
            value,
        };
        ctx.send(from, resp);
    }

    fn on_query_status(&mut self, from: NodeId, txn: TxnId, key: Key, ctx: &mut MdccCtx<'_>) {
        let (vote, outcome) = self
            .store
            .with_record(&key, |rec| (rec.phase2b(), rec.outcome_of(txn)))
            .unwrap_or_else(|| (absent_vote(), None));
        let resp = Msg::StatusResp {
            txn,
            key,
            vote,
            outcome,
        };
        ctx.send(from, resp);
    }

    fn on_status_resp(
        &mut self,
        from: NodeId,
        txn: TxnId,
        key: Key,
        vote: Phase2b,
        outcome: Option<TxnOutcome>,
        ctx: &mut MdccCtx<'_>,
    ) {
        if let Some(outcome) = outcome {
            // Someone already knows the verdict: just propagate it.
            return self.finish_recovery(txn, outcome, ctx);
        }
        let Some(idx) = self.placement.acceptor_index(&key, from) else {
            return;
        };
        let Some(coord) = self.recoveries.get_mut(&txn) else {
            return;
        };
        match coord.on_vote(&key, idx, &vote) {
            Progress::Learned { .. } => self.recovery_check_done(txn, ctx),
            Progress::Collision { ask_master: true } => {
                let master = self.placement.master(&key);
                ctx.send(master, Msg::StartRecovery { key });
            }
            Progress::Collision { ask_master: false } | Progress::Undecided => {}
        }
    }

    /// A recovery is still open after `LEARN_TIMEOUT`: re-query the
    /// undecided keys and re-trigger master recovery for them; after
    /// [`RECOVERY_ABANDON_RETRIES`] rounds, declare options nobody holds
    /// dead.
    fn on_recovery_retry(&mut self, txn: TxnId, ctx: &mut MdccCtx<'_>) {
        let Some(coord) = self.recoveries.get_mut(&txn) else {
            return;
        };
        let attempt = coord.next_attempt();
        if attempt >= RECOVERY_ABANDON_RETRIES {
            let dead = coord.undecided().filter(|k| coord.nobody_holds(k));
            for key in dead.cloned().collect::<Vec<Key>>() {
                coord.decide(&key, OptionStatus::Rejected(AbortReason::Resolved));
            }
        }
        let undecided: Vec<Key> = coord.undecided().cloned().collect();
        for key in undecided {
            self.query_status(txn, &key, ctx);
            // Rotate the recovery leader in case the default master's
            // data center is down (§3.2.3).
            let target = recovery_target(&*self.placement, &key, attempt);
            ctx.send(target, Msg::StartRecovery { key });
        }
        self.recovery_check_done(txn, ctx);
        if self.recoveries.contains_key(&txn) {
            ctx.set_timer(LEARN_TIMEOUT, Tick::RecoveryRetry { txn });
        }
    }
}

impl Process<Msg, Tick> for StorageNodeProcess {
    fn on_start(&mut self, ctx: &mut MdccCtx<'_>) {
        ctx.set_timer(SWEEP_INTERVAL, Tick::DanglingSweep);
        if self.durable {
            ctx.set_timer(CHECKPOINT_INTERVAL, Tick::CheckpointTick);
        }
        if self.recovered.is_some() {
            // Catch up on state missed while down: one round now, then
            // periodic rounds (the final ones, after traffic quiesces,
            // guarantee convergence with never-crashed replicas).
            self.run_sync_round(ctx);
            ctx.set_timer(RECOVERY_SYNC_INTERVAL, Tick::SyncSweep);
        }
        if self.cfg.mastership.enabled {
            // Host the lease/election layer for every shard this node
            // replicates. The node's DC is its acceptor position in the
            // replica group (one replica per DC, in DcId order).
            let mut shards = Vec::new();
            let mut my_dc = DcId(0);
            for shard in 0..self.placement.shard_count() {
                let replicas = self.placement.shard_replicas(shard);
                if let Some(idx) = replicas.iter().position(|n| *n == ctx.self_id) {
                    my_dc = DcId(idx as u8);
                    shards.push((shard, replicas));
                }
            }
            if !shards.is_empty() {
                // What `install_recovered_leases` put in the fence is
                // what this node granted before a restart.
                let recovered_at = self.recovered.is_some().then_some(ctx.now);
                let granted = self.fence.floors();
                let mut ms = Mastership::new(ctx.self_id, my_dc, shards, recovered_at, &granted);
                if let Some(audit) = &self.lease_audit {
                    ms.set_audit(audit.clone());
                }
                self.mastership = Some(ms);
                // Stagger first ticks by node id so heartbeats across
                // nodes do not land on the same instants.
                let stagger = SimDuration::from_micros((ctx.self_id.0 as u64 % 17) * 313);
                ctx.set_timer(HEARTBEAT_INTERVAL + stagger, Tick::MsTick);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut MdccCtx<'_>) {
        match msg {
            Msg::Propose(proposal) => {
                for opt in proposal.options() {
                    self.on_propose(from, opt, ctx);
                }
            }
            Msg::ProposeToMaster(opt) => self.lead_classic(from, opt, ctx),
            Msg::ProposeMastered { origin_dc, opt } => {
                self.on_propose_mastered(from, origin_dc, opt, ctx)
            }
            Msg::Mastership(inner) => self.on_mastership(from, inner, ctx),
            Msg::StartRecovery { key } => self.lead_recovery(&key, ctx),
            Msg::P1a { key, ballot } => self.on_phase1a(from, key, ballot, ctx),
            Msg::P1b { key, payload } => self.on_phase1b(from, key, payload, ctx),
            Msg::P2a { key, payload } => self.on_phase2a(from, key, payload, ctx),
            Msg::P2aNack { key, promised } => self.with_leader(&key, |l| l.on_nack(promised), ctx),
            Msg::P2aBehind { key, ballot } => self.on_behind(from, key, ballot, ctx),
            Msg::P2aStale { key, snapshot } => {
                self.with_leader(&key, |l| l.on_stale(snapshot), ctx)
            }
            Msg::Visibility {
                txn,
                outcome,
                records,
            } => {
                for (key, learned_accepted) in records {
                    self.apply_visibility_local(txn, key, outcome, learned_accepted, ctx);
                }
            }
            Msg::SyncDigestReq
            | Msg::SyncDigest { .. }
            | Msg::SyncRangePull { .. }
            | Msg::SyncChunk { .. } => self.on_sync(from, msg, ctx),
            Msg::ReadReq { req, key } => self.on_read(from, req, key, ctx),
            Msg::CstructPull { key } => {
                // A learner needs the cstruct behind a verdict.
                self.stats.repair_served += 1;
                let vote = self.store.with_record(&key, |rec| rec.vote());
                let vote = vote.unwrap_or_else(absent_vote);
                ctx.send(from, Msg::Vote { key, vote });
            }
            Msg::QueryStatus { txn, key } => self.on_query_status(from, txn, key, ctx),
            Msg::StatusResp {
                txn,
                key,
                vote,
                outcome,
            } => self.on_status_resp(from, txn, key, vote, outcome, ctx),
            // TM-side messages: nothing a storage node does asks for
            // one, so whoever sent it wasted the frame. Counted.
            Msg::MasterHint { .. }
            | Msg::NotFast { .. }
            | Msg::InstanceFull { .. }
            | Msg::AlreadyResolved { .. }
            | Msg::GoFast { .. }
            | Msg::Verdict { .. }
            | Msg::Vote { .. }
            | Msg::ReadResp { .. } => self.stats.stray_msgs += 1,
        }
    }

    fn on_timer(&mut self, tick: Tick, ctx: &mut MdccCtx<'_>) {
        match tick {
            Tick::DanglingSweep => {
                for p in self.store.dangling(ctx.now) {
                    self.start_dangling_recovery(p.txn, p.peers, ctx);
                }
                ctx.set_timer(SWEEP_INTERVAL, Tick::DanglingSweep);
            }
            Tick::RecoveryRetry { txn } => self.on_recovery_retry(txn, ctx),
            Tick::MissedPull { key, txn, attempt } => {
                let still_missing = self
                    .store
                    .with_record(&key, |r| r.missing_execution(txn))
                    .unwrap_or(true);
                if still_missing {
                    self.pull_missed_commit(key, txn, attempt, ctx);
                }
            }
            // Only a durable node arms one; a volatile one has no disk.
            Tick::CheckpointTick if !self.durable => {}
            Tick::CheckpointTick => {
                if let Some(disk) = ctx.disk() {
                    write_checkpoint(disk, &self.store);
                    self.stats.checkpoints += 1;
                }
                // A checkpoint truncates the WAL; re-append the live
                // lease state so the tail alone always carries it
                // (`mdcc_recovery::recovered_leases` reads only the tail).
                self.wal_append(ctx, |_| self.fence.checkpoint_records());
                ctx.set_timer(CHECKPOINT_INTERVAL, Tick::CheckpointTick);
            }
            Tick::MsTick => {
                let mut out = Vec::new();
                let Some(ms) = self.mastership.as_mut() else {
                    return;
                };
                let next = ms.on_tick(ctx.now, &mut out);
                self.flush_ms_actions(out, ctx);
                ctx.set_timer(next, Tick::MsTick);
            }
            Tick::SyncSweep => self.on_sync_sweep(ctx),
            // The TM's and clients' ticks: a storage node arms none.
            Tick::LearnTimeout { .. } | Tick::ReadRetry { .. } | Tick::ClientTick => {}
        }
    }
}
