//! The storage-node process: one `StorageNodeProcess` serves every
//! record of its shard within its data center, routing each message
//! family and timer to the role that owns it:
//!
//! * **acceptor** — proposals, Phase2a, visibility, reads, status
//!   queries and the anti-entropy responder, here, over
//!   [`mdcc_storage::RecordStore`]; proposals this replica is behind on
//!   wait in [`crate::parked`]; verdicts leave once per (transaction,
//!   coordinator) (`node/answers.rs`);
//! * **master** — classic ballots and Phase1a/Phase2a behind the lease
//!   floors the mastership layer keeps (`node/master.rs`, over
//!   [`mdcc_paxos::LeaderRecord`]);
//! * **recovery coordinator** for dangling transactions (§3.2.3), a
//!   sans-IO machine (`node/dangling.rs`);
//! * **repair initiator** — a restarted node's anti-entropy rounds and
//!   missed-commit pulls, a sans-IO machine (`node/repair.rs`).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use mdcc_common::config::{
    CHECKPOINT_INTERVAL, DANGLING_TIMEOUT, LEARN_TIMEOUT, RECOVERY_SYNC_INTERVAL, SYNC_CHUNK_KEYS,
};
use mdcc_common::{DcId, Key, NodeId, ProtocolConfig, SimDuration, SimTime, TxnId};
use mdcc_mastership::{Ballot as MsBallot, LeaseAudit, Mastership, MastershipStats};
use mdcc_paxos::acceptor::{FastPropose, Phase2a, Phase2b, VoteVerdict};
use mdcc_paxos::{Ballot, LeaderRecord, TxnOption, TxnOutcome};
use mdcc_recovery::{wal, write_checkpoint, RecoveredLeases, WalRecord};
use mdcc_sim::Process;
use mdcc_storage::{RangePull, RecordStore};
use mdcc_trace::{Phase, TraceHandle};

use crate::coordination::classic_target;
use crate::msg::{MdccCtx, Msg, RecordName, Tick};
use crate::parked::Parked;
use crate::placement::Placement;
use dangling::Dangling;
use master::{floor_records, recovered_floors};
use repair::Repair;

mod answers;
mod dangling;
mod master;
mod repair;

mdcc_common::counters! {
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
        /// Records received in `SyncChunk`s, adopted or not.
        pub sync_items_received: u64,
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
        /// `Visibility` messages dropped unread because they name a record
        /// by write-set position and this node holds no pending entry for
        /// their transaction (it applied the outcome already, or sync
        /// settled every record of it here; see [`Msg::Visibility`]), or
        /// the position falls outside the write-set.
        pub unresolved_visibilities: u64,
        /// Recovery rounds in the record's instance and promise whose
        /// base, named by digest, matched neither its cstruct nor the
        /// copy its promise reported: each was asked for whole.
        pub unresolved_bases: u64,
        /// Messages delivered here that a storage node has no use for and
        /// drops (TM-side kinds): each was encoded, framed, queued and
        /// charged for nothing. Zero unless a sender targets a node that
        /// cannot use what it sends.
        pub stray_msgs: u64,
        /// Records asked about after a silence longer than a lease.
        pub rejoin_asks: u64,
    }
}

/// How often the store is swept for dangling options: twice per timeout.
const SWEEP_INTERVAL: SimDuration = SimDuration::from_micros(DANGLING_TIMEOUT.as_micros() / 2);

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
    /// Dangling transactions this node took over (§3.2.3).
    dangling: Dangling,
    /// When `true` the node write-ahead-logs every state-changing input
    /// to its simulated disk and checkpoints periodically.
    durable: bool,
    /// The anti-entropy rounds of a node rebuilt from disk after a
    /// crash, and the pulls of missed commits.
    repair: Repair,
    /// Transactions already redirected back to the fast path once
    /// (GoFast); a re-bounced proposal is accepted for classic leading
    /// instead of ping-ponging. Entries clear on resolution.
    redirected_fast: HashSet<TxnId>,
    stats: NodeStats,
    /// Shared trace collector for leader-ballot and visibility spans.
    tracer: Option<TraceHandle>,
    /// This node's data center (set in `on_start`): span attribution, and
    /// where a dangling recovery's retries start rotating under leases.
    my_dc: DcId,
    /// Dynamic-mastership layer (leases + ballot leader election),
    /// constructed in `on_start` when `cfg.mastership.enabled`. `None`
    /// reproduces static placement byte-identically: no extra timers,
    /// messages or state.
    mastership: Option<Mastership>,
    /// Shared lease-tenure collector handed to the mastership layer
    /// (consistency audits assert no overlapping tenures).
    lease_audit: Option<LeaseAudit>,
    /// The lease floors a restarted node's WAL tail carried, until
    /// `on_start` seeds the mastership layer with them (empty on a first
    /// boot, and unused with mastership off).
    recovered_floors: Vec<(u32, MsBallot)>,
    /// When the last mastership message arrived (`node/master.rs`).
    ms_heard: SimTime,
    /// Mastered options held, by shard, for the lease this node is
    /// making (`node/master.rs`); volatile like `parked`.
    awaited: BTreeMap<u32, master::Awaited>,
    /// Fast proposals that read a version this replica has not reached,
    /// held until the record catches up. Volatile like an in-flight
    /// message: nothing in it was logged, appended or voted on.
    parked: Parked,
    /// The cstruct each record's open promise reported, with the promised
    /// ballot, until a round at that ballot or above arrives: a recovery
    /// round may name it by digest (`node/master.rs`). Volatile.
    reported: HashMap<Key, (Ballot, mdcc_paxos::CStruct)>,
    /// Phase2a rounds this node's leaders emitted in the handler under
    /// way, sent when it ends ([`Self::send_rounds`]).
    rounds: Vec<(Key, Phase2a)>,
    /// Verdicts this node's acceptors gave in the handler under way, with
    /// their destination and anchoring transaction, sent when it ends
    /// ([`Self::send_answers`]).
    answers: Vec<(NodeId, TxnId, RecordName, VoteVerdict)>,
}

/// Bound on the fast-redirect memo: entries normally clear on
/// resolution, but a transaction whose coordinator dies right after the
/// redirect never resolves here; past the cap the memo resets (which at
/// worst re-allows one redirect per stale transaction).
const REDIRECTED_FAST_CAP: usize = 4096;

impl StorageNodeProcess {
    /// Creates a storage node over `store`.
    pub fn new(
        cfg: ProtocolConfig,
        store: RecordStore,
        placement: Arc<dyn Placement>,
        allow_fast: bool,
    ) -> Self {
        Self {
            dangling: Dangling::new(Arc::clone(&placement)),
            repair: Repair::default(),
            cfg,
            store,
            placement,
            recovered_floors: Vec::new(),
            ms_heard: SimTime::ZERO,
            awaited: BTreeMap::new(),
            leaders: HashMap::new(),
            allow_fast,
            durable: false,
            redirected_fast: HashSet::new(),
            stats: NodeStats::default(),
            tracer: None,
            my_dc: DcId(0),
            mastership: None,
            lease_audit: None,
            parked: Parked::new(),
            reported: HashMap::new(),
            rounds: Vec::new(),
            answers: Vec::new(),
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

    /// Attaches the run's trace collector.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = Some(tracer);
    }

    /// Creates a storage node whose store and lease floors were rebuilt
    /// from its disk ([`mdcc_recovery::recover_store`]). The node is
    /// durable, `on_start` seeds its mastership layer with `leases` (the
    /// node never grants at or below them again, so a deposed holder's
    /// ballots stay fenced), and it additionally kicks off anti-entropy
    /// sync rounds so the node catches up on whatever committed while it
    /// was down.
    pub fn from_recovery(
        cfg: ProtocolConfig,
        store: RecordStore,
        leases: RecoveredLeases,
        placement: Arc<dyn Placement>,
        allow_fast: bool,
    ) -> Self {
        let mut node = Self::new(cfg, store, placement, allow_fast);
        node.durable = true;
        node.repair = Repair::restarted_node();
        node.recovered_floors = recovered_floors(leases);
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
        let peers = Arc::clone(&opt.peers);
        self.wal_append(ctx, |at| {
            [WalRecord::FastPropose {
                at,
                opt: opt.clone(),
            }]
        });
        match self.store.fast_propose(opt, ctx.now) {
            FastPropose::Vote(vote) => {
                self.stats.fast_votes += 1;
                self.fan_out_vote(&key, &vote, Some((from, txn, &peers)));
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

    /// Runs what the dangling-transaction machine asked for, in order. A
    /// resolution's own copy is applied here, not sent: losing it would
    /// leave this node dangling after everyone else has moved on.
    fn run_dangling(
        &mut self,
        actions: impl IntoIterator<Item = dangling::Action>,
        ctx: &mut MdccCtx<'_>,
    ) {
        for action in actions {
            match action {
                dangling::Action::Send(to, msg) => ctx.send(to, msg),
                dangling::Action::Recover(key, attempt) => {
                    // The route rule, by this node's lease belief.
                    let (shard, now) = (self.placement.shard_id(&key), ctx.now);
                    let leased =
                        (self.mastership.as_ref()).map(|ms| (ms.holder(shard, now), self.my_dc));
                    let to = classic_target(&*self.placement, &key, attempt, leased);
                    ctx.send(to, Msg::StartRecovery { key });
                }
                dangling::Action::ArmRetry(txn) => {
                    ctx.set_timer(LEARN_TIMEOUT, Tick::RecoveryRetry { txn });
                }
                dangling::Action::Resolved(coord, outcome) => {
                    self.stats.dangling_resolved += 1;
                    let placement = Arc::clone(&self.placement);
                    let me = ctx.self_id;
                    coord.visibility(outcome, &*placement, Some(me), |to, msg| {
                        if to == me {
                            self.on_message(me, msg, ctx)
                        } else {
                            ctx.send(to, msg)
                        }
                    });
                }
            }
        }
    }

    /// Applies `txn`'s outcome to every record a Visibility names. Each
    /// name is read before any record is applied: a position goes
    /// through the write-set `txn` has pending here, and the first
    /// application drops that entry. A Visibility with a position this
    /// node cannot read is dropped whole and counted (see
    /// [`Msg::Visibility`] for why that is safe).
    fn on_visibility(
        &mut self,
        txn: TxnId,
        outcome: TxnOutcome,
        records: Vec<(RecordName, bool)>,
        ctx: &mut MdccCtx<'_>,
    ) {
        let peers = self.store.pending_peers(txn);
        let named: Option<Vec<(Key, bool)>> = (records.into_iter())
            .map(|(name, learned_accepted)| match name {
                RecordName::Key(key) => Some((key, learned_accepted)),
                RecordName::At(at) => Some((peers?.get(at as usize)?.clone(), learned_accepted)),
            })
            .collect();
        let Some(named) = named else {
            self.stats.unresolved_visibilities += 1;
            return;
        };
        for (key, learned_accepted) in named {
            self.apply_visibility_local(txn, key, outcome, learned_accepted, ctx);
        }
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
        let resolved = self.dangling.on_outcome(txn, outcome);
        self.run_dangling(resolved, ctx);
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
        let replicas = self.placement.replicas(&key);
        let Some((peer, next)) = repair::missed_pull(&replicas, ctx.self_id, txn, attempt) else {
            return;
        };
        if attempt == 0 {
            // Count divergence events, not retry attempts.
            self.stats.missed_commit_pulls += 1;
        }
        let ranges = vec![RangePull::all(key.clone(), key.clone())];
        ctx.send(peer, Msg::SyncRangePull { ranges });
        if let Some(attempt) = next {
            ctx.set_timer(LEARN_TIMEOUT, Tick::MissedPull { key, txn, attempt });
        }
    }

    /// Runs the sweep step the repair machine asks for, if any: a round
    /// with its peer (`on_sync` answers) and the next sweep's timer.
    fn sweep(&mut self, sweep: Option<repair::Sweep>, ctx: &mut MdccCtx<'_>) {
        let Some(sweep) = sweep else { return };
        if let Some(peer) = sweep.peer {
            self.stats.sync_rounds += 1;
            ctx.send(peer, Msg::SyncDigestReq);
        }
        ctx.set_timer(RECOVERY_SYNC_INTERVAL, Tick::SyncSweep);
    }

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
                // one pass and pull only the ones whose digests differ,
                // naming the records held there.
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
                self.stats.sync_items_received += items.len() as u64;
                for item in items {
                    self.apply_sync_item(item, ctx);
                }
            }
            _ => {}
        }
    }

    /// Answers a read with one row per key, in request order.
    fn on_read(&mut self, from: NodeId, req: u64, keys: Vec<Key>, ctx: &mut MdccCtx<'_>) {
        let rows = keys
            .iter()
            .map(|key| match self.store.read_committed(key) {
                Some((v, row)) => (v, Some(row)),
                None => (self.store.version_of(key), None),
            })
            .collect();
        ctx.send(from, Msg::ReadResp { req, rows });
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
}

impl Process<Msg, Tick> for StorageNodeProcess {
    fn on_start(&mut self, ctx: &mut MdccCtx<'_>) {
        ctx.set_timer(SWEEP_INTERVAL, Tick::DanglingSweep);
        if self.durable {
            ctx.set_timer(CHECKPOINT_INTERVAL, Tick::CheckpointTick);
        }
        // The shards this node replicates, with their replica groups. A
        // group holds one replica per data center, in `DcId` order.
        let me = ctx.self_id;
        let groups: Vec<(u32, Vec<NodeId>)> = (0..self.placement.shard_count())
            .map(|shard| (shard, self.placement.shard_replicas(shard)))
            .filter(|(_, replicas)| replicas.contains(&me))
            .collect();
        let group = groups.first().map_or(&[][..], |(_, replicas)| replicas);
        self.my_dc = DcId(group.iter().position(|n| *n == me).unwrap_or(0) as u8);
        // A restarted node catches up on what it missed while down, from
        // its group as the placement lists it (so even an empty store has
        // peers); the final rounds, after traffic quiesces, converge it.
        let sweep = self.repair.on_start(me, group);
        self.sweep(sweep, ctx);
        if self.cfg.mastership.enabled {
            self.start_mastership(groups, ctx);
        }
        self.flush(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut MdccCtx<'_>) {
        match msg {
            Msg::Propose(proposal) => {
                for opt in proposal.options() {
                    self.on_propose(from, opt, ctx);
                }
            }
            Msg::ProposeToMaster(proposal) => {
                for opt in proposal.options() {
                    self.lead_classic(from, opt, ctx);
                }
            }
            Msg::ProposeMastered {
                origin_dc,
                proposal,
            } => self.on_propose_mastered(from, origin_dc, proposal, ctx),
            Msg::Mastership(inner) => self.on_mastership(from, inner, ctx),
            Msg::StartRecovery { key } => self.lead_recovery(&key, ctx),
            Msg::P1a { key, payload } => self.on_phase1a(from, key, payload, ctx),
            Msg::P1b { key, payload } => self.on_phase1b(from, key, payload, ctx),
            Msg::P2a { rounds } => {
                for (key, round) in rounds.0 {
                    self.on_phase2a(from, key, round, ctx);
                }
            }
            Msg::P2aNack { key, promised } => self.with_leader(&key, |l| l.on_nack(promised), ctx),
            Msg::P2aBehind { key, ballot } => self.on_behind(from, key, ballot, ctx),
            Msg::P2aStale { key, snapshot } => {
                self.with_leader(&key, |l| l.on_stale(snapshot), ctx)
            }
            Msg::Visibility {
                txn,
                outcome,
                records,
            } => self.on_visibility(txn, outcome, records, ctx),
            Msg::SyncDigestReq
            | Msg::SyncDigest { .. }
            | Msg::SyncRangePull { .. }
            | Msg::SyncChunk { .. } => self.on_sync(from, msg, ctx),
            Msg::ReadReq { req, keys } => self.on_read(from, req, keys, ctx),
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
            } => {
                let actions = self.dangling.on_status(from, txn, key, &vote, outcome);
                self.run_dangling(actions, ctx);
            }
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
        self.flush(ctx);
    }

    fn on_timer(&mut self, tick: Tick, ctx: &mut MdccCtx<'_>) {
        match tick {
            Tick::DanglingSweep => {
                for p in self.store.dangling(ctx.now) {
                    let actions = self.dangling.start(&self.cfg, p.txn, &p.peers);
                    self.run_dangling(actions, ctx);
                }
                ctx.set_timer(SWEEP_INTERVAL, Tick::DanglingSweep);
            }
            Tick::RecoveryRetry { txn } => {
                let actions = self.dangling.on_retry(txn);
                self.run_dangling(actions, ctx);
            }
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
                // lease floors so the tail alone always carries them
                // (`mdcc_recovery::recover_store` folds only the tail).
                self.wal_append(ctx, |_| floor_records(self.mastership.as_ref()));
                ctx.set_timer(CHECKPOINT_INTERVAL, Tick::CheckpointTick);
            }
            Tick::MsTick => {
                if let Some(ms) = self.mastership.as_mut() {
                    let mut out = Vec::new();
                    let next = ms.on_tick(ctx.now, &mut out);
                    self.flush_ms_actions(out, ctx);
                    ctx.set_timer(next, Tick::MsTick);
                }
            }
            Tick::SyncSweep => {
                let adoptions = self.stats.sync_adoptions;
                let sweep = self.repair.on_sweep(adoptions, self.cfg.replication);
                self.sweep(sweep, ctx);
            }
            // The TM's and clients' ticks: a storage node arms none.
            Tick::LearnTimeout { .. } | Tick::ReadRetry { .. } | Tick::ClientTick => {}
        }
        self.flush(ctx);
    }
}
