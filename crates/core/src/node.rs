//! The storage-node process: acceptors, masters and dangling recovery.
//!
//! One `StorageNodeProcess` serves every record of its shard within its
//! data center. It plays three roles:
//!
//! * **acceptor** for fast proposals, Phase1a/Phase2a and visibility
//!   messages, delegating to [`mdcc_storage::RecordStore`];
//! * **master (leader)** for records whose classic ballots it owns,
//!   delegating to [`mdcc_paxos::LeaderRecord`];
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
use mdcc_common::{DcId, Key, NodeId, ProtocolConfig, SimDuration, TxnId};
use mdcc_mastership::{
    record_id, Action as MsAction, Ballot as MsBallot, LeaseAudit, LeaseTable, Mastership,
    MastershipStats, MsMsg, OverrideRun, HEARTBEAT_INTERVAL, LEASE_RECORD_OVERRIDES,
};
use mdcc_paxos::acceptor::{ClassicAccept, FastPropose, Phase2b};
use mdcc_paxos::leader::{LeaderAction, LeaderConfig};
use mdcc_paxos::{LeaderRecord, LearnOutcome, Learner, OptionStatus, TxnOption, TxnOutcome};
use mdcc_recovery::{wal, write_checkpoint, RecoveryInfo, WalRecord};
use mdcc_sim::{Ctx, Process};
use mdcc_storage::RecordStore;
use mdcc_trace::{Phase, TraceHandle};

use crate::msg::Msg;
use crate::parked::Parked;
use crate::placement::Placement;

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
    /// `CstructPull` read-repair requests this node answered with its
    /// current vote (delta-vote divergence repair).
    pub repair_served: u64,
    /// Committed visibilities that arrived for options this node never
    /// accepted (bare outcomes): each triggers a targeted per-key
    /// anti-entropy pull so the missed execution is installed from a
    /// peer instead of silently diverging the value.
    pub missed_commit_pulls: u64,
    /// `Propose` messages received (fast-ballot proposals).
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
    }
}

/// One in-flight dangling-transaction reconstruction.
#[derive(Debug)]
struct RecoveryTask {
    keys: Arc<[Key]>,
    learners: HashMap<Key, Learner>,
    decided: HashMap<Key, OptionStatus>,
    recovering_keys: HashSet<Key>,
    /// Retry sweeps performed; after a few rounds of "nobody has seen the
    /// option at the current instance" the transaction is resolved as
    /// aborted. Sound because recovery only starts `DANGLING_TIMEOUT`
    /// (seconds) after acceptance while message delays are sub-second —
    /// the same synchrony assumption the paper's timeout-based recovery
    /// makes (§3.2.3).
    retries: u32,
}

/// Retry sweeps before an unseen option is declared dead.
const RECOVERY_ABANDON_RETRIES: u32 = 3;

/// The vote an acceptor gives for a record it has never materialized.
fn absent_vote() -> Phase2b {
    Phase2b {
        ballot: mdcc_paxos::Ballot::INITIAL_FAST,
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
    recoveries: HashMap<TxnId, RecoveryTask>,
    sweep_interval: SimDuration,
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
    /// Transactions already forwarded once to a record-override target;
    /// a proposal that comes back (the target is deposed, crashed, or
    /// bouncing) retires the override and is led locally instead of
    /// ping-ponging between holder and target forever.
    override_forwarded: HashSet<TxnId>,
    /// Per-record, per-destination delta cursors: each tracks how much
    /// of which cstruct epoch that destination has already been sent, so
    /// every vote ships only the entry suffix the destination is
    /// missing. Volatile on purpose: losing the cursors after a crash
    /// just re-sends full votes, which receivers absorb by resetting
    /// their shadows. Bounded by evicting the least-recently-touched
    /// half past [`VOTE_CURSORS_CAP`].
    vote_cursors: HashMap<Key, CursorEntry>,
    /// Monotone touch clock stamping [`CursorEntry::touched`].
    vote_cursor_clock: u64,
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
    /// Lease-carried Phase1: shard-level promise floors installed
    /// whenever this node *granted* a lease. The
    /// granted ballot doubles as the Phase1-promised classic ballot for
    /// every record in the shard, enforced lazily on the acceptor right
    /// before it judges a proposal — so the holder's first Phase2a for
    /// a cold record is immediately valid and a deposed holder's stale
    /// ballot Nacks without any per-record Phase1 exchange.
    lease_floors: HashMap<u32, MsBallot>,
    /// Per-record override ballots for hot keys whose classic ballot
    /// diverged from the shard lease (contested records, collision
    /// recovery led elsewhere). Bounded per shard by
    /// [`LEASE_RECORD_OVERRIDES`]; handed to the successor on migration.
    lease_overrides: HashMap<u32, LeaseTable>,
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

/// Bound on the per-record delta-cursor map. Past the cap the
/// least-recently-touched half is evicted — records still voting keep
/// their cursors, so one hot node crossing the cap no longer forces
/// full-vote re-priming for every record at once (an evicted record
/// re-sends at worst one full vote per destination).
const VOTE_CURSORS_CAP: usize = 16384;

/// One record's delta cursors plus its last-touch stamp (LRU eviction).
#[derive(Debug, Default)]
struct CursorEntry {
    touched: u64,
    by_dest: HashMap<NodeId, mdcc_paxos::DeltaCursor>,
}

/// Evicts the least-recently-touched half of a cursor map: entries at
/// or below the median touch stamp go. Stamps are unique (a monotone
/// clock), so this removes at least half deterministically regardless
/// of map iteration order.
fn evict_lru_half(cursors: &mut HashMap<Key, CursorEntry>) {
    let mut stamps: Vec<u64> = cursors.values().map(|e| e.touched).collect();
    stamps.sort_unstable();
    let cutoff = stamps[stamps.len() / 2];
    cursors.retain(|_, e| e.touched > cutoff);
}

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
        let sweep_interval = DANGLING_TIMEOUT / 2;
        Self {
            cfg,
            store,
            placement,
            leaders: HashMap::new(),
            allow_fast,
            recoveries: HashMap::new(),
            sweep_interval,
            durable: false,
            recovered: None,
            sync_cursor: 0,
            redirected_fast: HashSet::new(),
            override_forwarded: HashSet::new(),
            vote_cursors: HashMap::new(),
            vote_cursor_clock: 0,
            last_sync_adoptions: 0,
            sync_idle_rounds: 0,
            stats: NodeStats::default(),
            tracer: None,
            my_dc: DcId(0),
            mastership: None,
            lease_audit: None,
            lease_floors: HashMap::new(),
            lease_overrides: HashMap::new(),
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

    /// Installs lease floors and per-record overrides recovered from
    /// the WAL tail (see [`mdcc_recovery::recovered_leases`]) into this
    /// node's *enforcement* tables only. The mastership layer's restart
    /// quarantine is untouched: recovered floors keep fencing deposed
    /// ballots, they never let this node serve.
    pub fn install_recovered_leases(&mut self, leases: mdcc_recovery::RecoveredLeases) {
        if !self.cfg.mastership.enabled {
            return;
        }
        for (shard, (n, pid)) in leases.floors {
            let b = MsBallot::new(n, pid);
            let e = self.lease_floors.entry(shard).or_insert(b);
            if b > *e {
                *e = b;
            }
        }
        for ((shard, record), (n, pid)) in leases.overrides {
            self.lease_overrides
                .entry(shard)
                .or_insert_with(|| LeaseTable::new(LEASE_RECORD_OVERRIDES))
                .raise(record, MsBallot::new(n, pid));
        }
    }

    /// Lazily enforces the lease-promise floor on one record's acceptor
    /// state before it judges a proposal: the effective floor is the
    /// max of the shard-level lease ballot and any per-record override.
    /// A raise is mirrored into the WAL as the Phase1a it stands in
    /// for, so crash replay reproduces the exact same Nacks.
    fn enforce_floor(&mut self, key: &Key, ctx: &mut Ctx<'_, Msg>) {
        if !self.cfg.mastership.enabled {
            return;
        }
        let shard = self.placement.shard_id(key);
        let mut best = self.lease_floors.get(&shard).copied();
        if let Some(table) = self.lease_overrides.get_mut(&shard) {
            if let Some(b) = table.override_of(record_id(key.pk.as_bytes())) {
                best = Some(best.map_or(b, |f| f.max(b)));
            }
        }
        let Some(msb) = best else { return };
        let ballot = mdcc_paxos::Ballot::lease(msb.n, msb.node());
        if self.store.raise_promise(key, ballot) {
            self.wal_append(
                &WalRecord::Phase1a {
                    key: key.clone(),
                    ballot,
                },
                ctx,
            );
        }
    }

    /// Remembers a per-record divergence from the shard lease: a
    /// classic ballot above the lease floor is in force for this record
    /// (contested takeover, collision recovery led elsewhere). Future
    /// routing and promise enforcement honor it record-granularly.
    fn note_record_override(
        &mut self,
        key: &Key,
        promised: mdcc_paxos::Ballot,
        ctx: &mut Ctx<'_, Msg>,
    ) {
        if !self.cfg.mastership.enabled || promised.is_fast() {
            return;
        }
        let shard = self.placement.shard_id(key);
        let msb = MsBallot::new(promised.round, promised.proposer.0 as u64);
        if self.lease_floors.get(&shard).is_some_and(|f| msb <= *f) {
            return; // Within the shard lease: no divergence to record.
        }
        let record = record_id(key.pk.as_bytes());
        let table = self
            .lease_overrides
            .entry(shard)
            .or_insert_with(|| LeaseTable::new(LEASE_RECORD_OVERRIDES));
        if table.raise(record, msb) {
            self.wal_append(
                &WalRecord::LeaseOverride {
                    shard,
                    record,
                    n: msb.n,
                    pid: msb.pid,
                },
                ctx,
            );
        }
    }

    /// Where one record's classic traffic should go when it diverges
    /// from the shard lease this node is serving: the override ballot's
    /// proposer, if it outranks the shard floor and is another node.
    fn record_override_target(&mut self, key: &Key, me: NodeId) -> Option<NodeId> {
        if !self.cfg.mastership.enabled {
            return None;
        }
        let shard = self.placement.shard_id(key);
        let over = self
            .lease_overrides
            .get_mut(&shard)?
            .override_of(record_id(key.pk.as_bytes()))?;
        if self.lease_floors.get(&shard).is_some_and(|f| over <= *f) {
            return None;
        }
        (over.node() != me).then(|| over.node())
    }

    /// Installs a predecessor's per-record override runs (shipped on
    /// migration so hot-key promises survive the handoff).
    fn install_override_runs(&mut self, shard: u32, runs: &[OverrideRun], ctx: &mut Ctx<'_, Msg>) {
        if !self.cfg.mastership.enabled {
            return;
        }
        let mut raised: Vec<(u64, MsBallot)> = Vec::new();
        let table = self
            .lease_overrides
            .entry(shard)
            .or_insert_with(|| LeaseTable::new(LEASE_RECORD_OVERRIDES));
        for run in runs {
            for i in 0..u64::from(run.len) {
                let record = run.start.wrapping_add(i);
                if table.raise(record, run.ballot) {
                    raised.push((record, run.ballot));
                }
            }
        }
        for (record, b) in raised {
            self.wal_append(
                &WalRecord::LeaseOverride {
                    shard,
                    record,
                    n: b.n,
                    pid: b.pid,
                },
                ctx,
            );
        }
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

    /// Write-ahead-logs one command, if durability is on and the world
    /// attached a disk.
    fn wal_append(&mut self, record: &WalRecord, ctx: &mut Ctx<'_, Msg>) {
        if !self.durable {
            return;
        }
        if let Some(disk) = ctx.disk() {
            wal::append(disk, record);
        }
    }

    /// The peer replicas of this node's shard (every key this store
    /// holds shares one replica group).
    fn peer_replicas(&self, ctx: &Ctx<'_, Msg>) -> Vec<NodeId> {
        let Some(key) = self.store.keys().into_iter().next() else {
            return Vec::new();
        };
        self.peer_replicas_of(&key, ctx)
    }

    /// The other replicas of one record.
    fn peer_replicas_of(&self, key: &Key, ctx: &Ctx<'_, Msg>) -> Vec<NodeId> {
        self.placement
            .replicas(key)
            .into_iter()
            .filter(|r| *r != ctx.self_id)
            .collect()
    }

    /// Opens one merkle-style anti-entropy round with the next peer in
    /// rotation: the peer answers with range digests, this node pulls
    /// only divergent ranges, and state ships in multi-record chunks.
    fn run_sync_round(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let peers = self.peer_replicas(ctx);
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
    fn apply_sync_item(
        &mut self,
        key: Key,
        snapshot: mdcc_paxos::RecordSnapshot,
        resolved: Vec<(mdcc_paxos::TxnOption, mdcc_paxos::Resolution)>,
        ctx: &mut Ctx<'_, Msg>,
    ) {
        if !self.store.sync_relevant(&key, &snapshot, &resolved) {
            return;
        }
        self.wal_append(
            &WalRecord::Sync {
                at: ctx.now,
                key: key.clone(),
                snapshot: snapshot.clone(),
                resolved: resolved.clone(),
            },
            ctx,
        );
        let before = self.store.version_of(&key);
        if self.store.sync_from_peer(&key, &snapshot, &resolved) {
            self.stats.sync_adoptions += 1;
        }
        if self.store.version_of(&key) != before {
            self.record_moved(&key, ctx);
        }
    }

    /// Leader state per record this node masters (debugging/tests):
    /// `(key, leading, establishing, inflight, queue length)`.
    pub fn leader_debug(&self) -> Vec<(Key, bool, bool, bool, usize)> {
        let mut v: Vec<_> = self
            .leaders
            .iter()
            .map(|(k, l)| {
                (
                    k.clone(),
                    l.is_leading(),
                    l.is_establishing(),
                    l.is_inflight(),
                    l.queue_len(),
                )
            })
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Leads one classic proposal locally: redirect it back to the fast
    /// path when the record reopened fast (at most once per txn), else
    /// enqueue it on this node's leader for the record. Shared by the
    /// static `ProposeToMaster` path and the lease-holder path.
    fn lead_classic(&mut self, from: NodeId, opt: mdcc_paxos::TxnOption, ctx: &mut Ctx<'_, Msg>) {
        let key = opt.key.clone();
        // Stale retry of a settled transaction: answer with the
        // recorded outcome, exactly as the fast path does. Once every
        // replica has resolved the transaction (e.g. storage-side
        // dangling recovery finished while the coordinator was
        // partitioned away), re-leading appends nothing new and the
        // delta-vote fan-out skips its coordinator as settled
        // business — without this reply the retrying TM never hears
        // back and the transaction wedges at the coordinator forever.
        if let Some(outcome) = self
            .store
            .with_record(&key, |r| r.settled_outcome(opt.txn))
            .flatten()
        {
            ctx.send(
                opt.txn.coordinator,
                Msg::AlreadyResolved {
                    key,
                    txn: opt.txn,
                    outcome,
                },
            );
            return;
        }
        // If the record is actually in fast mode and fast ballots
        // are allowed, redirect the TM back to the fast path —
        // but at most once per transaction. Under message loss
        // the replicas' ballot modes can diverge (this record
        // reopened fast, another replica never heard the reopen
        // and still bounces NotFast), and honoring the redirect
        // every time ping-pongs the proposal between fast and
        // classic forever. The second arrival takes mastership:
        // the classic round re-synchronizes every replica.
        let leading = self
            .leaders
            .get(&key)
            .map(|l| l.is_leading())
            .unwrap_or(false);
        let record_fast = self
            .store
            .with_record(&key, |r| r.promised().is_fast())
            .unwrap_or(true);
        if self.redirected_fast.len() > REDIRECTED_FAST_CAP {
            self.redirected_fast.clear();
        }
        if self.allow_fast && !leading && record_fast && self.redirected_fast.insert(opt.txn) {
            ctx.send(from, Msg::GoFast { key, opt });
            return;
        }
        // A fresh lease holder starts its classic ballots above the
        // election ballot so its Phase1a outranks the predecessor's —
        // and skips Phase1 entirely for cold records (lease-carried
        // Phase1): the granted lease ballot is already the promise
        // floor on a grant quorum of acceptors, so the first Phase2a at
        // that ballot is immediately valid (one WAN round trip).
        let mut skipped_phase1 = false;
        if let Some(ms) = &self.mastership {
            let shard = self.placement.shard_id(&key);
            if let Some(floor) = ms.ballot_floor(shard) {
                let self_id = ctx.self_id;
                let ballot = mdcc_paxos::Ballot::lease(floor, self_id);
                // Only worth attempting when the local replica (this
                // node is one of the record's acceptors) says a
                // pipelined append at the lease ballot could actually
                // land: the record is already in this ballot's stream,
                // or it is cold AND the lease ballot clears the local
                // promise. A record warm under a predecessor's ballot
                // would bounce off the warm-record guard, and one whose
                // promise is a deposed holder's higher classic ballot
                // would be Nacked outright — either way the wasted WAN
                // round trip (and the spurious record override the Nack
                // would raise) costs more than running Phase1 up front.
                let locally_cold = self
                    .store
                    .with_record(&key, |r| {
                        r.accepted_ballot() == Some(ballot)
                            || (r.cstruct().is_empty() && r.promised() <= ballot)
                    })
                    .unwrap_or(true);
                if ms.is_serving(shard, ctx.now)
                    && locally_cold
                    && self.leader_for(&key, ctx).assume_leadership(ballot)
                {
                    skipped_phase1 = true;
                } else {
                    self.leader_for(&key, ctx).observe_ballot(ballot);
                }
            }
        }
        if skipped_phase1 {
            if let Some(ms) = self.mastership.as_mut() {
                ms.note_phase1_skipped();
            }
        }
        let actions = self.leader_for(&key, ctx).enqueue(opt);
        self.run_leader_actions(&key, actions, ctx);
    }

    /// Emits the mastership layer's queued sends as wrapped messages
    /// and absorbs its host-level effects: lease grants raise this
    /// node's promise floor, migrations ship the override table to the
    /// successor.
    fn flush_ms_actions(&mut self, out: Vec<MsAction>, ctx: &mut Ctx<'_, Msg>) {
        for action in out {
            match action {
                MsAction::Send { to, msg } => ctx.send(to, Msg::Mastership(msg)),
                MsAction::FloorRaised { shard, ballot } => {
                    let rose = self
                        .lease_floors
                        .get(&shard)
                        .is_none_or(|cur| ballot > *cur);
                    if rose {
                        self.lease_floors.insert(shard, ballot);
                        self.wal_append(
                            &WalRecord::LeaseFloor {
                                shard,
                                n: ballot.n,
                                pid: ballot.pid,
                            },
                            ctx,
                        );
                    }
                }
                MsAction::Relinquished { shard, to } => {
                    // Hand the per-record override table to the
                    // successor so hot-key promises survive migration.
                    if let Some(table) = self.lease_overrides.get(&shard) {
                        let runs = table.runs();
                        if !runs.is_empty() {
                            ctx.send(to, Msg::Mastership(MsMsg::Overrides { shard, runs }));
                        }
                    }
                }
            }
        }
    }

    fn leader_for(&mut self, key: &Key, ctx: &Ctx<'_, Msg>) -> &mut LeaderRecord {
        let snapshot = self
            .store
            .with_record(key, |r| r.snapshot())
            .unwrap_or_else(mdcc_paxos::RecordSnapshot::absent);
        let cfg = LeaderConfig {
            n: self.cfg.replication,
            qc: self.cfg.classic_quorum,
            qf: self.cfg.fast_quorum,
            gamma: self.cfg.gamma,
            allow_fast: self.allow_fast,
            max_instance_options: self.cfg.max_instance_options,
        };
        let self_id = ctx.self_id;
        self.leaders
            .entry(key.clone())
            .or_insert_with(|| LeaderRecord::new(cfg, self_id, snapshot))
    }

    fn run_leader_actions(
        &mut self,
        key: &Key,
        actions: Vec<LeaderAction>,
        ctx: &mut Ctx<'_, Msg>,
    ) {
        let replicas = self.placement.replicas(key);
        for action in actions {
            match action {
                LeaderAction::Phase1a(ballot) => {
                    self.stats.recoveries_led += 1;
                    // A per-record Phase1 round run while this node
                    // serves the shard's lease — the two-round-trip
                    // first touch lease-carried Phase1 exists to avoid
                    // (the fig11 cold-key drill bounds its share).
                    let shard = self.placement.shard_id(key);
                    if let Some(ms) = self.mastership.as_mut() {
                        if ms.is_serving(shard, ctx.now) {
                            ms.note_phase1_covered();
                        }
                    }
                    if let Some(tracer) = &self.tracer {
                        // Ballot acquisition: closes when a Phase1b
                        // quorum makes this node the record's leader.
                        tracer.begin(
                            ctx.self_id,
                            self.my_dc,
                            None,
                            Some(key.clone()),
                            Phase::Phase1,
                            ctx.now,
                        );
                    }
                    for &r in &replicas {
                        ctx.send(
                            r,
                            Msg::P1a {
                                key: key.clone(),
                                ballot,
                            },
                        );
                    }
                }
                LeaderAction::Phase2a(payload) => {
                    if let Some(tracer) = &self.tracer {
                        // Classic instance round: closes when the local
                        // acceptor observes the instance advance.
                        tracer.begin(
                            ctx.self_id,
                            self.my_dc,
                            None,
                            Some(key.clone()),
                            Phase::Phase2a,
                            ctx.now,
                        );
                    }
                    for &r in &replicas {
                        ctx.send(
                            r,
                            Msg::P2a {
                                key: key.clone(),
                                payload: Box::new(payload.clone()),
                            },
                        );
                    }
                }
                LeaderAction::RedirectFast(opt) => {
                    // The record reopened fast mode while this option was
                    // queued: hand it back to its coordinator.
                    ctx.send(
                        opt.txn.coordinator,
                        Msg::GoFast {
                            key: key.clone(),
                            opt,
                        },
                    );
                }
            }
        }
    }

    /// Fans a vote out to the proposer (`also`) and to every coordinator
    /// that can still learn something from it, so recovery-adopted
    /// options reach their transaction managers (learners). Entries this
    /// node has an outcome for are settled business at their
    /// coordinator — it produced the Visibility, and stale retries get
    /// `AlreadyResolved`.
    ///
    /// `vote` starts at the record's settled watermark
    /// ([`mdcc_paxos::AcceptorRecord::vote`]); each destination
    /// receives only the entry suffix its per-destination
    /// [`mdcc_paxos::DeltaCursor`] says it is missing, plus a digest of
    /// the whole cstruct, or — on first contact, in a new epoch, or when
    /// the watermark overtook what it was last sent — the vote itself.
    /// Receivers whose shadows cannot fold a delta (loss, reordering)
    /// come back with a `CstructPull`.
    fn fan_out_vote(&mut self, key: &Key, vote: Phase2b, also: NodeId, ctx: &mut Ctx<'_, Msg>) {
        if self.vote_cursors.len() > VOTE_CURSORS_CAP {
            evict_lru_half(&mut self.vote_cursors);
        }
        let mut targets = vec![also];
        if let Some(coords) = self
            .store
            .with_record(key, |rec| rec.learning_coordinators())
        {
            for coord in coords {
                if !targets.contains(&coord) {
                    targets.push(coord);
                }
            }
        }
        self.vote_cursor_clock += 1;
        let entry = self.vote_cursors.entry(key.clone()).or_default();
        entry.touched = self.vote_cursor_clock;
        let cursors = &mut entry.by_dest;
        for to in targets {
            match cursors.entry(to).or_default().extract(&vote) {
                Some(delta) => ctx.send(
                    to,
                    Msg::VoteDelta {
                        key: key.clone(),
                        delta,
                    },
                ),
                None => ctx.send(
                    to,
                    Msg::Vote {
                        key: key.clone(),
                        vote: vote.clone(),
                    },
                ),
            }
        }
    }

    /// A fast-ballot proposal arrived (`Msg::Propose`).
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
    fn on_propose(&mut self, from: NodeId, opt: TxnOption, ctx: &mut Ctx<'_, Msg>) {
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
    fn judge_proposal(&mut self, from: NodeId, opt: TxnOption, ctx: &mut Ctx<'_, Msg>) {
        let key = opt.key.clone();
        let txn = opt.txn;
        self.wal_append(
            &WalRecord::FastPropose {
                at: ctx.now,
                opt: opt.clone(),
            },
            ctx,
        );
        match self.store.fast_propose(opt.clone(), ctx.now) {
            FastPropose::Vote(vote) => {
                self.stats.fast_votes += 1;
                self.fan_out_vote(&key, vote, from, ctx);
            }
            FastPropose::NotFast { promised } => {
                self.stats.not_fast_bounces += 1;
                ctx.send(from, Msg::NotFast { key, opt, promised });
            }
            FastPropose::InstanceFull => {
                self.stats.instance_full += 1;
                ctx.send(from, Msg::InstanceFull { key, opt });
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
    fn release_parked(&mut self, key: &Key, ctx: &mut Ctx<'_, Msg>) {
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
    /// accept, sync adoption): tell the co-located leader and judge the
    /// parked proposals that waited for it.
    fn record_moved(&mut self, key: &Key, ctx: &mut Ctx<'_, Msg>) {
        self.notify_leader_advance(key, ctx);
        self.release_parked(key, ctx);
    }

    /// Notifies the co-located leader (if any) that the local acceptor
    /// advanced past its instance.
    fn notify_leader_advance(&mut self, key: &Key, ctx: &mut Ctx<'_, Msg>) {
        let Some(snapshot) = self.store.with_record(key, |r| r.snapshot()) else {
            return;
        };
        if let Some(leader) = self.leaders.get_mut(key) {
            let actions = leader.on_advance(snapshot);
            self.run_leader_actions(key, actions, ctx);
            if let Some(tracer) = &self.tracer {
                // The acceptor advanced past the instance the 2a round
                // targeted; a no-op if no phase2a span is open.
                tracer.end(
                    ctx.self_id,
                    None,
                    Some(key.clone()),
                    Phase::Phase2a,
                    ctx.now,
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Dangling-transaction recovery.
    // ------------------------------------------------------------------

    fn start_dangling_recovery(&mut self, txn: TxnId, keys: Arc<[Key]>, ctx: &mut Ctx<'_, Msg>) {
        if self.recoveries.contains_key(&txn) {
            return;
        }
        let mut learners = HashMap::new();
        for key in keys.iter() {
            learners.insert(
                key.clone(),
                Learner::new(
                    self.cfg.replication,
                    self.cfg.classic_quorum,
                    self.cfg.fast_quorum,
                    txn,
                ),
            );
            for r in self.placement.replicas(key) {
                ctx.send(
                    r,
                    Msg::QueryStatus {
                        txn,
                        key: key.clone(),
                    },
                );
            }
        }
        self.recoveries.insert(
            txn,
            RecoveryTask {
                keys,
                learners,
                decided: HashMap::new(),
                recovering_keys: HashSet::new(),
                retries: 0,
            },
        );
        ctx.set_timer(LEARN_TIMEOUT, Msg::RecoveryRetry { txn });
    }

    fn finish_recovery(&mut self, txn: TxnId, outcome: TxnOutcome, ctx: &mut Ctx<'_, Msg>) {
        let Some(task) = self.recoveries.remove(&txn) else {
            return;
        };
        self.stats.dangling_resolved += 1;
        for key in task.keys.iter() {
            let learned_accepted = task
                .decided
                .get(key)
                .map(|s| s.is_accepted())
                .unwrap_or(outcome == TxnOutcome::Committed);
            // This node applies its own verdict directly: routing the
            // self-notification through the (lossy) network risks the
            // one message whose loss leaves the recovery coordinator
            // itself dangling after everyone else has moved on.
            for r in self.placement.replicas(key) {
                if r == ctx.self_id {
                    continue;
                }
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
            if self.placement.replicas(key).contains(&ctx.self_id) {
                self.apply_visibility_local(txn, key.clone(), outcome, learned_accepted, ctx);
            }
        }
    }

    /// Applies one transaction outcome to one record on this node —
    /// the body of the `Visibility` message handler, also invoked
    /// directly when this node is itself a replica of a record whose
    /// recovery it just finished.
    fn apply_visibility_local(
        &mut self,
        txn: TxnId,
        key: Key,
        outcome: TxnOutcome,
        learned_accepted: bool,
        ctx: &mut Ctx<'_, Msg>,
    ) {
        self.wal_append(
            &WalRecord::Visibility {
                at: ctx.now,
                key: key.clone(),
                txn,
                outcome,
                learned_accepted,
            },
            ctx,
        );
        // A visibility also settles any recovery we were running.
        if self.recoveries.contains_key(&txn) {
            self.finish_recovery(txn, outcome, ctx);
        }
        self.redirected_fast.remove(&txn);
        self.override_forwarded.remove(&txn);
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
    fn pull_missed_commit(&mut self, key: Key, txn: TxnId, attempt: u32, ctx: &mut Ctx<'_, Msg>) {
        let peers = self.peer_replicas_of(&key, ctx);
        if peers.is_empty() {
            return;
        }
        if attempt == 0 {
            // Count divergence events, not retry attempts.
            self.stats.missed_commit_pulls += 1;
        }
        let target = peers[(txn.seq as usize + attempt as usize) % peers.len()];
        ctx.send(
            target,
            Msg::SyncRangePull {
                ranges: vec![(key.clone(), key.clone())],
            },
        );
        if attempt < MISSED_PULL_RETRIES {
            ctx.set_timer(
                LEARN_TIMEOUT,
                Msg::MissedPull {
                    key,
                    txn,
                    attempt: attempt + 1,
                },
            );
        }
    }

    fn recovery_check_done(&mut self, txn: TxnId, ctx: &mut Ctx<'_, Msg>) {
        let Some(task) = self.recoveries.get(&txn) else {
            return;
        };
        if task.decided.len() < task.keys.len() {
            return;
        }
        // Deterministic outcome rule — identical to the coordinator's:
        // commit iff every option was learned accepted.
        let all_accepted = task.decided.values().all(|s| s.is_accepted());
        let outcome = if all_accepted {
            TxnOutcome::Committed
        } else {
            TxnOutcome::Aborted
        };
        self.finish_recovery(txn, outcome, ctx);
    }
}

impl Process<Msg> for StorageNodeProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.set_timer(self.sweep_interval, Msg::DanglingSweep);
        if self.durable {
            ctx.set_timer(CHECKPOINT_INTERVAL, Msg::CheckpointTick);
        }
        if self.recovered.is_some() {
            // Catch up on state missed while down: one round now, then
            // periodic rounds (the final ones, after traffic quiesces,
            // guarantee convergence with never-crashed replicas).
            self.run_sync_round(ctx);
            ctx.set_timer(RECOVERY_SYNC_INTERVAL, Msg::SyncSweep);
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
                let recovered_at = self.recovered.is_some().then_some(ctx.now);
                let mut ms = Mastership::new(ctx.self_id, my_dc, shards, recovered_at);
                if let Some(audit) = &self.lease_audit {
                    ms.set_audit(audit.clone());
                }
                self.mastership = Some(ms);
                // Stagger first ticks by node id so heartbeats across
                // nodes do not land on the same instants.
                let stagger = SimDuration::from_micros((ctx.self_id.0 as u64 % 17) * 313);
                ctx.set_timer(HEARTBEAT_INTERVAL + stagger, Msg::MsTick);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::Propose(opt) => self.on_propose(from, opt, ctx),
            Msg::ProposeToMaster(opt) => {
                self.lead_classic(from, opt, ctx);
            }
            Msg::ProposeMastered { origin_dc, opt } => {
                let shard = self.placement.shard_id(&opt.key);
                let (serving, holder) = match &self.mastership {
                    Some(ms) => (ms.is_serving(shard, ctx.now), ms.holder(shard, ctx.now)),
                    None => (false, None),
                };
                if serving {
                    // Record-level override: this record's classic
                    // traffic belongs elsewhere even though we hold the
                    // shard lease. Forward and teach the coordinator
                    // the record-granular route.
                    if let Some(node) = self.record_override_target(&opt.key, ctx.self_id) {
                        if self.override_forwarded.len() > REDIRECTED_FAST_CAP {
                            self.override_forwarded.clear();
                        }
                        if self.override_forwarded.insert(opt.txn) {
                            if let Some(ms) = self.mastership.as_mut() {
                                ms.note_forwarded();
                            }
                            ctx.send(
                                opt.txn.coordinator,
                                Msg::RecordHint {
                                    key: opt.key.clone(),
                                    node,
                                },
                            );
                            ctx.send(node, Msg::ProposeMastered { origin_dc, opt });
                            return;
                        }
                        // Forwarded once already and the proposal came
                        // back: the target is deposed, crashed, or not
                        // serving this record anymore. Retire the
                        // override (routing only — acceptor promises
                        // still arbitrate) and lead locally; classic
                        // ballots outrank any stale promise. Re-teach
                        // the coordinator so future traffic for this
                        // record routes here directly.
                        if let Some(table) = self.lease_overrides.get_mut(&shard) {
                            table.remove(record_id(opt.key.pk.as_bytes()));
                        }
                        ctx.send(
                            opt.txn.coordinator,
                            Msg::RecordHint {
                                key: opt.key.clone(),
                                node: ctx.self_id,
                            },
                        );
                    }
                    if let Some(ms) = self.mastership.as_mut() {
                        ms.note_served(shard, origin_dc);
                    }
                    self.lead_classic(from, opt, ctx);
                } else if let Some(node) = holder.filter(|n| *n != ctx.self_id) {
                    // Not the holder, but we know who is: forward the
                    // proposal and teach the coordinator the route.
                    if let Some(ms) = self.mastership.as_mut() {
                        ms.note_forwarded();
                    }
                    ctx.send(opt.txn.coordinator, Msg::MasterHint { shard, node });
                    ctx.send(node, Msg::ProposeMastered { origin_dc, opt });
                } else {
                    // No live lease this node knows of (election still in
                    // progress, or mastership disabled here): lead
                    // classically. Safe regardless of leases — classic
                    // Paxos ballots arbitrate — and keeps writes
                    // available through election windows.
                    self.lead_classic(from, opt, ctx);
                }
            }
            Msg::MasterHint { .. } | Msg::RecordHint { .. } => {
                // TM-side routing hints; nothing for a storage node.
            }
            Msg::Mastership(inner) => {
                if let MsMsg::Overrides { shard, runs } = inner {
                    // Host-level payload: a migrating predecessor ships
                    // its per-record override table to this successor.
                    self.install_override_runs(shard, &runs, ctx);
                    return;
                }
                let mut out = Vec::new();
                if let Some(ms) = self.mastership.as_mut() {
                    ms.on_msg(from, inner, ctx.now, &mut out);
                }
                self.flush_ms_actions(out, ctx);
            }
            Msg::StartRecovery { key } => {
                let actions = self.leader_for(&key, ctx).start_recovery();
                self.run_leader_actions(&key, actions, ctx);
            }
            Msg::P1a { key, ballot } => {
                self.enforce_floor(&key, ctx);
                self.wal_append(
                    &WalRecord::Phase1a {
                        key: key.clone(),
                        ballot,
                    },
                    ctx,
                );
                let payload = self.store.phase1a(&key, ballot);
                ctx.send(from, Msg::P1b { key, payload });
            }
            Msg::P1b { key, payload } => {
                let Some(idx) = self.placement.acceptor_index(&key, from) else {
                    return;
                };
                if let Some(leader) = self.leaders.get_mut(&key) {
                    let actions = leader.on_phase1b(idx, payload);
                    self.run_leader_actions(&key, actions, ctx);
                    let leading = self
                        .leaders
                        .get(&key)
                        .map(|l| l.is_leading())
                        .unwrap_or(false);
                    if leading {
                        if let Some(tracer) = &self.tracer {
                            tracer.end(ctx.self_id, None, Some(key), Phase::Phase1, ctx.now);
                        }
                    }
                }
            }
            Msg::P2a { key, payload } => {
                self.enforce_floor(&key, ctx);
                // Lease-carried-Phase1 warm guard: a pipelined append
                // (`safe = None`) from a ballot this record has not
                // accepted yet, landing on a non-empty current-instance
                // cstruct, would fork that ballot's serialized stream —
                // acceptors in the stream hold the leader's entries,
                // this one would hold strays from a deposed leader, and
                // the learner's quorum-GLB can never converge across
                // the fork. Classic Phase1 prevents this by re-basing
                // every acceptor with a proved-safe cstruct; a lease
                // holder that skipped Phase1 never sent one, so the
                // warm record bounces the append and the holder falls
                // back to a full Phase1 round. Cold records (empty
                // cstruct — the first-touch case the optimization
                // exists for) are unaffected. Nothing is logged or
                // mutated here, so crash replay cannot diverge.
                if self.cfg.mastership.enabled
                    && payload.safe.is_none()
                    && self
                        .store
                        .with_record(&key, |r| {
                            r.accepted_ballot() != Some(payload.ballot) && !r.cstruct().is_empty()
                        })
                        .unwrap_or(false)
                {
                    let promised = self
                        .store
                        .with_record(&key, |r| r.promised())
                        .unwrap_or(payload.ballot)
                        .max(payload.ballot);
                    ctx.send(from, Msg::P2aNack { key, promised });
                    return;
                }
                self.wal_append(
                    &WalRecord::ClassicAccept {
                        at: ctx.now,
                        key: key.clone(),
                        payload: payload.clone(),
                    },
                    ctx,
                );
                let before = self.store.version_of(&key);
                match self.store.classic_accept(&key, *payload, ctx.now) {
                    ClassicAccept::Vote(vote) => {
                        self.stats.classic_votes += 1;
                        self.fan_out_vote(&key, vote, from, ctx);
                    }
                    ClassicAccept::Nack { promised } => {
                        ctx.send(
                            from,
                            Msg::P2aNack {
                                key: key.clone(),
                                promised,
                            },
                        );
                    }
                    ClassicAccept::Stale { snapshot } => {
                        ctx.send(
                            from,
                            Msg::P2aStale {
                                key: key.clone(),
                                snapshot,
                            },
                        );
                    }
                }
                if self.store.version_of(&key) != before {
                    self.record_moved(&key, ctx);
                }
            }
            Msg::P2aNack { key, promised } => {
                self.note_record_override(&key, promised, ctx);
                if let Some(leader) = self.leaders.get_mut(&key) {
                    let actions = leader.on_nack(promised);
                    self.run_leader_actions(&key, actions, ctx);
                }
            }
            Msg::P2aStale { key, snapshot } => {
                if let Some(leader) = self.leaders.get_mut(&key) {
                    let actions = leader.on_stale(snapshot);
                    self.run_leader_actions(&key, actions, ctx);
                }
            }
            Msg::Visibility {
                txn,
                key,
                outcome,
                learned_accepted,
            } => {
                self.apply_visibility_local(txn, key, outcome, learned_accepted, ctx);
            }
            Msg::SyncDigestReq => {
                // A restarted peer opens a merkle round: advertise range
                // digests of everything we hold; full state only ships
                // for ranges the peer finds divergent.
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
                        ctx.send(
                            from,
                            Msg::SyncChunk {
                                items: chunk.to_vec(),
                            },
                        );
                    }
                }
            }
            Msg::SyncChunk { items } => {
                for item in items {
                    self.apply_sync_item(item.key, item.snapshot, item.resolved, ctx);
                }
            }
            Msg::ReadReq { req, key } => {
                let (version, value) = match self.store.read_committed(&key) {
                    Some((v, row)) => (v, Some(row)),
                    None => (self.store.version_of(&key), None),
                };
                ctx.send(
                    from,
                    Msg::ReadResp {
                        req,
                        key,
                        version,
                        value,
                    },
                );
            }
            Msg::CstructPull { key } => {
                // A receiver's shadow view diverged (lost delta, missed
                // epoch): read-repair with the current vote.
                self.stats.repair_served += 1;
                let vote = self
                    .store
                    .with_record(&key, |rec| rec.vote())
                    .unwrap_or_else(absent_vote);
                ctx.send(from, Msg::CstructFull { key, vote });
            }
            Msg::QueryStatus { txn, key } => {
                let (vote, outcome) = self
                    .store
                    .with_record(&key, |rec| (rec.phase2b(), rec.outcome_of(txn)))
                    .unwrap_or_else(|| (absent_vote(), None));
                ctx.send(
                    from,
                    Msg::StatusResp {
                        txn,
                        key,
                        vote,
                        outcome,
                    },
                );
            }
            Msg::StatusResp {
                txn,
                key,
                vote,
                outcome,
            } => {
                if let Some(outcome) = outcome {
                    // Someone already knows the verdict: just propagate it.
                    if self.recoveries.contains_key(&txn) {
                        self.finish_recovery(txn, outcome, ctx);
                    }
                    return;
                }
                let Some(idx) = self.placement.acceptor_index(&key, from) else {
                    return;
                };
                let Some(task) = self.recoveries.get_mut(&txn) else {
                    return;
                };
                let Some(learner) = task.learners.get_mut(&key) else {
                    return;
                };
                match learner.on_vote(idx, vote) {
                    LearnOutcome::Learned(status) => {
                        task.decided.insert(key, status);
                        self.recovery_check_done(txn, ctx);
                    }
                    LearnOutcome::Collision => {
                        if task.recovering_keys.insert(key.clone()) {
                            let master = self.placement.master(&key);
                            ctx.send(master, Msg::StartRecovery { key });
                        }
                    }
                    LearnOutcome::Undecided => {}
                }
            }
            Msg::NotFast { .. }
            | Msg::InstanceFull { .. }
            | Msg::AlreadyResolved { .. }
            | Msg::GoFast { .. }
            | Msg::Vote { .. }
            | Msg::VoteDelta { .. }
            | Msg::CstructFull { .. }
            | Msg::ReadResp { .. } => {
                // TM-side messages; a storage node can receive them only
                // if it acted as a recovery coordinator whose task is
                // already finished — ignore.
            }
            Msg::LearnTimeout { .. }
            | Msg::ReadRetry { .. }
            | Msg::DanglingSweep
            | Msg::RecoveryRetry { .. }
            | Msg::MissedPull { .. }
            | Msg::CheckpointTick
            | Msg::SyncSweep
            | Msg::ClientTick
            | Msg::MsTick => {
                // Timer payloads arrive via on_timer, not as messages.
            }
        }
    }

    fn on_timer(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::DanglingSweep => {
                let dangling = self.store.dangling(ctx.now);
                for p in dangling {
                    self.start_dangling_recovery(p.txn, p.peers, ctx);
                }
                ctx.set_timer(self.sweep_interval, Msg::DanglingSweep);
            }
            Msg::RecoveryRetry { txn } => {
                let Some(task) = self.recoveries.get_mut(&txn) else {
                    return;
                };
                task.retries += 1;
                let give_up = task.retries >= RECOVERY_ABANDON_RETRIES;
                let n = self.cfg.replication;
                // Re-query undecided keys; re-trigger master recovery for
                // keys that still cannot be learned; after enough rounds,
                // declare options nobody holds as dead (see RecoveryTask).
                let mut undecided: Vec<Key> = Vec::new();
                for k in task.keys.iter() {
                    if task.decided.contains_key(k) {
                        continue;
                    }
                    let learner = &task.learners[k];
                    if give_up && learner.responses() == n && !learner.seen_at_latest() {
                        task.decided.insert(
                            k.clone(),
                            OptionStatus::Rejected(mdcc_common::error::AbortReason::Resolved),
                        );
                    } else {
                        undecided.push(k.clone());
                    }
                }
                let attempt = task.retries;
                for key in undecided {
                    for r in self.placement.replicas(&key) {
                        ctx.send(
                            r,
                            Msg::QueryStatus {
                                txn,
                                key: key.clone(),
                            },
                        );
                    }
                    // Rotate the recovery leader in case the default
                    // master's data center is down (§3.2.3); stay on one
                    // target for a few sweeps to avoid dueling leaders.
                    let replicas = self.placement.replicas(&key);
                    let start = self.placement.master_dc(&key).0 as usize;
                    let target = replicas[(start + attempt as usize / 3) % replicas.len()];
                    ctx.send(target, Msg::StartRecovery { key });
                }
                self.recovery_check_done(txn, ctx);
                if self.recoveries.contains_key(&txn) {
                    ctx.set_timer(LEARN_TIMEOUT, Msg::RecoveryRetry { txn });
                }
            }
            Msg::MissedPull { key, txn, attempt } => {
                let still_missing = self
                    .store
                    .with_record(&key, |r| r.missing_execution(txn))
                    .unwrap_or(true);
                if still_missing {
                    self.pull_missed_commit(key, txn, attempt, ctx);
                }
            }
            Msg::CheckpointTick if self.durable => {
                if let Some(disk) = ctx.disk() {
                    write_checkpoint(disk, &self.store);
                    self.stats.checkpoints += 1;
                }
                // A checkpoint truncates the WAL; re-append the live
                // lease floors and overrides in deterministic order so
                // the tail alone always carries the full lease state
                // (`mdcc_recovery::recovered_leases` reads only it).
                let mut floors: Vec<(u32, MsBallot)> =
                    self.lease_floors.iter().map(|(s, b)| (*s, *b)).collect();
                floors.sort_unstable_by_key(|(s, _)| *s);
                for (shard, b) in floors {
                    self.wal_append(
                        &WalRecord::LeaseFloor {
                            shard,
                            n: b.n,
                            pid: b.pid,
                        },
                        ctx,
                    );
                }
                let mut shards: Vec<u32> = self.lease_overrides.keys().copied().collect();
                shards.sort_unstable();
                for shard in shards {
                    let entries = self
                        .lease_overrides
                        .get(&shard)
                        .map(|t| t.iter_sorted())
                        .unwrap_or_default();
                    for (record, b) in entries {
                        self.wal_append(
                            &WalRecord::LeaseOverride {
                                shard,
                                record,
                                n: b.n,
                                pid: b.pid,
                            },
                            ctx,
                        );
                    }
                }
                ctx.set_timer(CHECKPOINT_INTERVAL, Msg::CheckpointTick);
            }
            Msg::MsTick => {
                let mut out = Vec::new();
                let Some(ms) = self.mastership.as_mut() else {
                    return;
                };
                let next = ms.on_tick(ctx.now, &mut out);
                self.flush_ms_actions(out, ctx);
                ctx.set_timer(next, Msg::MsTick);
            }
            Msg::SyncSweep => {
                if self.stats.sync_adoptions == self.last_sync_adoptions {
                    self.sync_idle_rounds += 1;
                } else {
                    self.last_sync_adoptions = self.stats.sync_adoptions;
                    self.sync_idle_rounds = 0;
                }
                // Stop only after strictly more quiet rounds than there
                // are peers: a full rotation — including at least one
                // live, never-crashed replica — found nothing to repair.
                if self.sync_idle_rounds > self.cfg.replication as u32 {
                    return;
                }
                self.run_sync_round(ctx);
                ctx.set_timer(RECOVERY_SYNC_INTERVAL, Msg::SyncSweep);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::TableId;

    #[test]
    fn cursor_eviction_keeps_the_recently_touched_half() {
        let mut cursors: HashMap<Key, CursorEntry> = HashMap::new();
        for i in 0..101u64 {
            cursors.insert(
                Key::new(TableId(1), format!("k{i}")),
                CursorEntry {
                    touched: i + 1,
                    by_dest: HashMap::new(),
                },
            );
        }
        evict_lru_half(&mut cursors);
        assert_eq!(cursors.len(), 50, "at least half evicted");
        // Exactly the most recently touched entries survive.
        assert!(cursors.values().all(|e| e.touched > 51));
        assert!(cursors.contains_key(&Key::new(TableId(1), "k100")));
        assert!(!cursors.contains_key(&Key::new(TableId(1), "k0")));
    }
}
