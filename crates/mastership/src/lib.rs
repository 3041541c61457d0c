//! Dynamic mastership: shard-granular master leases, omnipaxos-style
//! ballot leader election, and access-driven master migration.
//!
//! Static placement freezes every record's master at cluster build
//! time; fig7 shows Multi degrading ~2× as locality drops. This crate
//! makes mastership a runtime property:
//!
//! - **Leases.** Each shard (replica group, one node per data center)
//!   has at most one *lease holder* at a time. The holder renews its
//!   lease every heartbeat tick; replicas grant a lease ballot only if
//!   it outranks everything they already granted, so two holders can
//!   never have overlapping majority-acked windows (the grant quorum of
//!   a new ballot intersects the renewal quorum of the old one, and the
//!   intersection node reports the old expiry, which the new holder
//!   waits out).
//! - **Ballot leader election.** Candidacy is a [`Ballot`]`{n, pid}`
//!   total order in the omnipaxos style: heartbeat rounds with
//!   increasing delay under contention, majority-connected gating, and
//!   a deterministic top-connected-pid tiebreak so a crashed master is
//!   replaced without waiting for classic-ballot timeouts.
//! - **Migration.** The holder counts the origin data center of every
//!   mastered request it serves; once a remote data center dominates
//!   past a hysteresis threshold for several consecutive ticks, the
//!   holder hands the lease to that data center's replica (a voluntary
//!   relinquish, so the successor needs no expiry wait).
//!
//! The crate is transport-free: [`Mastership::on_tick`] /
//! [`Mastership::on_msg`] mutate pure state and emit [`Action`]s the
//! host (a storage node) turns into wire messages and timers. Virtual
//! time is injected by the caller, so everything runs on the
//! deterministic simulator clock.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use mdcc_common::wire::{err, Dec, Enc, Wire, WireResult};
use mdcc_common::{DcId, NodeId, SimDuration, SimTime};

// ---------------------------------------------------------------------
// Timing and hysteresis. One value each: no deployment, figure or test
// runs the layer with another.
// ---------------------------------------------------------------------

/// Base interval between heartbeat/lease ticks at every replica. Each
/// tick closes the previous heartbeat round, renews any held lease, and
/// checks the migration hysteresis.
pub const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// How long one lease grant is valid. A holder renews every tick, so
/// this is four heartbeat intervals — enough to ride out a lost renewal
/// round; it also bounds the unavailability window after a master crash
/// (a successor must wait out the acked expiry).
pub const LEASE_DURATION: SimDuration = SimDuration::from_millis(400);

/// Added to the tick delay after a contested election round
/// (omnipaxos-style increasing heartbeat delay), decayed back to the
/// base once a lease settles.
pub const HB_DELAY_INCREMENT: SimDuration = SimDuration::from_millis(25);

/// Access-driven migration fires when a remote data center's
/// mastered-request count reaches this percentage of the holder's local
/// count (200 = twice the local traffic).
pub const MIGRATE_THRESHOLD_PCT: u64 = 200;

/// A remote data center must additionally sustain at least this many
/// mastered requests *per second* over the observation window.
/// Rate-normalized, so it means the same thing at `--scale=quick`,
/// `paper` and `10x` (a per-tick count would not: client pools and tick
/// cadence change with scale).
pub const MIGRATE_MIN_RATE: u64 = 20;

/// Observation window for the migration rate. The holder only evaluates
/// the hysteresis once a window's worth of traffic has accumulated; the
/// window then decays exponentially (counts halve, the window start
/// moves halfway forward).
pub const MIGRATE_WINDOW: SimDuration = SimDuration::from_millis(400);

/// The same remote data center must stay dominant for this many
/// consecutive evaluations before the lease is handed off (hysteresis).
pub const MIGRATE_ROUNDS: u32 = 2;

/// Bound on a shard's record-override table (records whose promise rose
/// above the shard's base lease ballot), the `cap` a storage node gives
/// [`LeaseTable::new`]. Past it the least-recently-touched half is
/// spilled deterministically; a spilled record merely falls back to the
/// base lease floor.
pub const LEASE_RECORD_OVERRIDES: usize = 64;

// ---------------------------------------------------------------------
// Ballot.
// ---------------------------------------------------------------------

/// An election/lease ballot, totally ordered by `(n, pid)` — the
/// omnipaxos `Ballot` (SNIPPETS.md snippet 1). `pid` is the node id and
/// doubles as the deterministic tiebreak.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ballot {
    /// Ballot number (bumped past everything seen when campaigning).
    pub n: u32,
    /// Proposing node's id, the total-order tiebreak.
    pub pid: u64,
}

impl Ballot {
    /// Creates a ballot.
    pub fn new(n: u32, pid: u64) -> Self {
        Self { n, pid }
    }

    /// The node this ballot belongs to.
    pub fn node(&self) -> NodeId {
        NodeId(self.pid as u32)
    }
}

impl Wire for Ballot {
    fn encode(&self, out: &mut Enc) {
        out.u32(self.n);
        out.u64(self.pid);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(Self {
            n: inp.u32()?,
            pid: inp.u64()?,
        })
    }
}

// ---------------------------------------------------------------------
// Messages.
// ---------------------------------------------------------------------

/// A gossiped routing hint: the highest-ballot lease a node knows of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HolderHint {
    /// Lease ballot.
    pub ballot: Ballot,
    /// Holder node.
    pub node: NodeId,
    /// When the lease (as last seen) expires.
    pub expiry: SimTime,
}

impl Wire for HolderHint {
    fn encode(&self, out: &mut Enc) {
        self.ballot.encode(out);
        self.node.encode(out);
        self.expiry.encode(out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(Self {
            ballot: Ballot::decode(inp)?,
            node: NodeId::decode(inp)?,
            expiry: SimTime::decode(inp)?,
        })
    }
}

/// Mastership protocol messages, exchanged among a shard's replica
/// group (the host wraps them in its own message enum for transport).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsMsg {
    /// Heartbeat round probe.
    HbReq {
        /// Shard concerned.
        shard: u32,
        /// Sender's heartbeat round.
        round: u32,
    },
    /// Heartbeat reply: the replier's top ballot plus a lease-routing
    /// hint (how non-holders and late joiners learn the current
    /// master).
    HbReply {
        /// Shard concerned.
        shard: u32,
        /// Echoed round.
        round: u32,
        /// Replier's top ballot (candidacy or granted).
        ballot: Ballot,
        /// Highest-ballot lease the replier knows of.
        holder: Option<HolderHint>,
    },
    /// Acquire (fresh election or handoff) or renew (same ballot as
    /// already granted) a lease until `expiry`.
    Acquire {
        /// Shard concerned.
        shard: u32,
        /// Lease ballot (the candidate's election ballot).
        ballot: Ballot,
        /// Requested lease end.
        expiry: SimTime,
        /// The predecessor ballot, when the previous holder voluntarily
        /// relinquished (handoff): its expiry need not be waited out.
        relinquished: Option<Ballot>,
    },
    /// Lease granted.
    Grant {
        /// Shard concerned.
        shard: u32,
        /// Echoed ballot.
        ballot: Ballot,
        /// Echoed expiry (distinguishes renewal generations).
        expiry: SimTime,
        /// The grantor's previous grant `(ballot, expiry)` — the
        /// safety-critical datum: a fresh holder must not serve before
        /// the max of these across its grant quorum.
        prev: Option<(Ballot, SimTime)>,
    },
    /// Lease refused: the grantor already promised a higher ballot.
    Reject {
        /// Shard concerned.
        shard: u32,
        /// The grantor's top ballot.
        max: Ballot,
    },
    /// Voluntary migration: the holder relinquishes and nominates the
    /// target (ballot's pid) with the next ballot number.
    Handoff {
        /// Shard concerned.
        shard: u32,
        /// Candidacy ballot minted for the target.
        ballot: Ballot,
        /// The relinquished (old holder's) ballot.
        relinquished: Ballot,
    },
    /// The per-record override table a relinquishing holder ships to
    /// its handoff target, range-run encoded, so record-granular
    /// promise floors survive migration. Handled by the host storage
    /// node (which owns the table), not by this layer.
    Overrides {
        /// Shard concerned.
        shard: u32,
        /// Override runs, sorted by starting record id.
        runs: Vec<OverrideRun>,
    },
}

impl MsMsg {
    /// The shard the message concerns.
    pub fn shard(&self) -> u32 {
        match self {
            MsMsg::HbReq { shard, .. }
            | MsMsg::HbReply { shard, .. }
            | MsMsg::Acquire { shard, .. }
            | MsMsg::Grant { shard, .. }
            | MsMsg::Reject { shard, .. }
            | MsMsg::Handoff { shard, .. }
            | MsMsg::Overrides { shard, .. } => *shard,
        }
    }
}

impl Wire for MsMsg {
    fn encode(&self, out: &mut Enc) {
        match self {
            MsMsg::HbReq { shard, round } => {
                out.u8(0);
                out.u32(*shard);
                out.u32(*round);
            }
            MsMsg::HbReply {
                shard,
                round,
                ballot,
                holder,
            } => {
                out.u8(1);
                out.u32(*shard);
                out.u32(*round);
                ballot.encode(out);
                holder.encode(out);
            }
            MsMsg::Acquire {
                shard,
                ballot,
                expiry,
                relinquished,
            } => {
                out.u8(2);
                out.u32(*shard);
                ballot.encode(out);
                expiry.encode(out);
                relinquished.encode(out);
            }
            MsMsg::Grant {
                shard,
                ballot,
                expiry,
                prev,
            } => {
                out.u8(3);
                out.u32(*shard);
                ballot.encode(out);
                expiry.encode(out);
                prev.encode(out);
            }
            MsMsg::Reject { shard, max } => {
                out.u8(4);
                out.u32(*shard);
                max.encode(out);
            }
            MsMsg::Handoff {
                shard,
                ballot,
                relinquished,
            } => {
                out.u8(5);
                out.u32(*shard);
                ballot.encode(out);
                relinquished.encode(out);
            }
            MsMsg::Overrides { shard, runs } => {
                out.u8(6);
                out.u32(*shard);
                runs.encode(out);
            }
        }
    }

    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(match inp.u8()? {
            0 => MsMsg::HbReq {
                shard: inp.u32()?,
                round: inp.u32()?,
            },
            1 => MsMsg::HbReply {
                shard: inp.u32()?,
                round: inp.u32()?,
                ballot: Ballot::decode(inp)?,
                holder: Option::decode(inp)?,
            },
            2 => MsMsg::Acquire {
                shard: inp.u32()?,
                ballot: Ballot::decode(inp)?,
                expiry: SimTime::decode(inp)?,
                relinquished: Option::decode(inp)?,
            },
            3 => MsMsg::Grant {
                shard: inp.u32()?,
                ballot: Ballot::decode(inp)?,
                expiry: SimTime::decode(inp)?,
                prev: Option::decode(inp)?,
            },
            4 => MsMsg::Reject {
                shard: inp.u32()?,
                max: Ballot::decode(inp)?,
            },
            5 => MsMsg::Handoff {
                shard: inp.u32()?,
                ballot: Ballot::decode(inp)?,
                relinquished: Ballot::decode(inp)?,
            },
            6 => MsMsg::Overrides {
                shard: inp.u32()?,
                runs: Vec::decode(inp)?,
            },
            _ => return err("mastership msg tag"),
        })
    }
}

// ---------------------------------------------------------------------
// Per-record lease overrides.
// ---------------------------------------------------------------------

/// Stable 64-bit record id: FNV-1a over the key's wire encoding. The
/// override table and its wire codec work in id space so they stay
/// key-type-agnostic and fixed-width.
pub fn record_id(key_bytes: &[u8]) -> u64 {
    mdcc_common::wire::fnv1a64(key_bytes)
}

/// A run of consecutive record ids sharing one override ballot — the
/// compact wire form of the override table. Sequentially inserted keys
/// hash to scattered ids, so most runs are length 1; the run encoding
/// wins when ids cluster (range leases, enumerated record spaces) and
/// costs only 4 bytes over a bare `(id, ballot)` pair otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverrideRun {
    /// First record id of the run.
    pub start: u64,
    /// Number of consecutive ids covered (≥ 1).
    pub len: u32,
    /// Override ballot, the promise floor for every record in the run.
    pub ballot: Ballot,
}

impl Wire for OverrideRun {
    fn encode(&self, out: &mut Enc) {
        out.u64(self.start);
        out.u32(self.len);
        self.ballot.encode(out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(Self {
            start: inp.u64()?,
            len: inp.u32()?,
            ballot: Ballot::decode(inp)?,
        })
    }
}

#[derive(Debug, Clone, Copy)]
struct OverrideEntry {
    ballot: Ballot,
    touched: u64,
}

/// Bounded per-shard table of per-record promise-floor overrides: hot
/// records whose promise rose past the shard's base lease ballot (a
/// contested classic round, or state inherited from a predecessor).
/// Capacity is enforced by a deterministic LRU-half spill — when an
/// insert would exceed `cap`, the least-recently-touched half is
/// dropped and those records fall back to the shard's base floor
/// (safe: the base floor is a lower bound, never wrong, just colder).
#[derive(Debug, Clone, Default)]
pub struct LeaseTable {
    cap: usize,
    /// Monotone touch clock backing the LRU order (deterministic, no
    /// wall time).
    clock: u64,
    overrides: HashMap<u64, OverrideEntry>,
}

impl LeaseTable {
    /// Creates a table bounded to `cap` overrides (0 disables it).
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            clock: 0,
            overrides: HashMap::new(),
        }
    }

    /// Number of overrides currently held.
    pub fn len(&self) -> usize {
        self.overrides.len()
    }

    /// Whether the table holds no overrides.
    pub fn is_empty(&self) -> bool {
        self.overrides.is_empty()
    }

    /// The override ballot for `record`, touching its LRU stamp.
    pub fn override_of(&mut self, record: u64) -> Option<Ballot> {
        self.clock += 1;
        let clock = self.clock;
        self.overrides.get_mut(&record).map(|e| {
            e.touched = clock;
            e.ballot
        })
    }

    /// The override ballot for `record` without touching LRU state.
    pub fn peek(&self, record: u64) -> Option<Ballot> {
        self.overrides.get(&record).map(|e| e.ballot)
    }

    /// Retires the override for `record`, if any — the holder observed
    /// the override target bounce traffic back (stale promise or a
    /// crashed node), so record routing reverts to the shard lease.
    /// Routing only: dropping a floor is always safe, the acceptors'
    /// actual Paxos promises remain the ground truth.
    pub fn remove(&mut self, record: u64) -> bool {
        self.overrides.remove(&record).is_some()
    }

    /// Raises (or inserts) the override for `record` to `ballot`;
    /// returns whether the stored floor rose. Spills the
    /// least-recently-touched half when the bound is exceeded.
    pub fn raise(&mut self, record: u64, ballot: Ballot) -> bool {
        if self.cap == 0 {
            return false;
        }
        self.clock += 1;
        let clock = self.clock;
        let rose = match self.overrides.entry(record) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let e = e.get_mut();
                e.touched = clock;
                if ballot > e.ballot {
                    e.ballot = ballot;
                    true
                } else {
                    false
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(OverrideEntry {
                    ballot,
                    touched: clock,
                });
                true
            }
        };
        if self.overrides.len() > self.cap {
            self.spill_lru_half();
        }
        rose
    }

    /// Drops the least-recently-touched half of the table
    /// (deterministic: the touch clock is monotone and collision-free).
    fn spill_lru_half(&mut self) {
        let mut stamps: Vec<u64> = self.overrides.values().map(|e| e.touched).collect();
        stamps.sort_unstable();
        let cutoff = stamps[stamps.len() / 2];
        self.overrides.retain(|_, e| e.touched > cutoff);
    }

    /// The table as sorted, coalesced runs (consecutive ids with equal
    /// ballots merge) — the wire form shipped on handoff.
    pub fn runs(&self) -> Vec<OverrideRun> {
        let mut entries = self.iter_sorted();
        let mut runs: Vec<OverrideRun> = Vec::new();
        for (id, ballot) in entries.drain(..) {
            match runs.last_mut() {
                Some(r) if r.ballot == ballot && r.start + r.len as u64 == id => r.len += 1,
                _ => runs.push(OverrideRun {
                    start: id,
                    len: 1,
                    ballot,
                }),
            }
        }
        runs
    }

    /// Installs decoded runs (a predecessor's table), raising each
    /// record's floor to at least the run's ballot; returns the records
    /// whose floor rose, for the caller to log.
    pub fn install_runs(&mut self, runs: &[OverrideRun]) -> Vec<(u64, Ballot)> {
        let mut raised = Vec::new();
        for run in runs {
            for i in 0..u64::from(run.len) {
                let record = run.start.wrapping_add(i);
                if self.raise(record, run.ballot) {
                    raised.push((record, run.ballot));
                }
            }
        }
        raised
    }

    /// All `(record id, ballot)` pairs sorted by id — deterministic
    /// iteration for WAL re-logging at checkpoints.
    pub fn iter_sorted(&self) -> Vec<(u64, Ballot)> {
        let mut entries: Vec<(u64, Ballot)> = self
            .overrides
            .iter()
            .map(|(id, e)| (*id, e.ballot))
            .collect();
        entries.sort_unstable_by_key(|(id, _)| *id);
        entries
    }
}

// ---------------------------------------------------------------------
// Audit.
// ---------------------------------------------------------------------

/// One interval during which a node claimed mastership of a shard: from
/// the first majority-acked serve point through the last acked expiry
/// (or the relinquish instant, whichever is earlier). Spans of
/// *different* holders for the same shard must never overlap — the
/// lease-safety invariant the property tests check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseSpan {
    /// Shard concerned.
    pub shard: u32,
    /// Holder node.
    pub node: NodeId,
    /// Lease ballot of this tenure.
    pub ballot: Ballot,
    /// First instant the holder was allowed to serve.
    pub from: SimTime,
    /// Last instant (exclusive) the holder could have served.
    pub until: SimTime,
}

#[derive(Default)]
struct AuditInner {
    spans: HashMap<(u32, Ballot), LeaseSpan>,
}

/// Shared collector of lease tenures, attached by the harness (purely
/// observational — never read by the protocol).
#[derive(Clone, Default)]
pub struct LeaseAudit {
    inner: Arc<Mutex<AuditInner>>,
}

impl LeaseAudit {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    fn acquire(&self, shard: u32, node: NodeId, ballot: Ballot, from: SimTime, until: SimTime) {
        let mut inner = self.inner.lock().expect("audit lock");
        inner.spans.insert(
            (shard, ballot),
            LeaseSpan {
                shard,
                node,
                ballot,
                from,
                until,
            },
        );
    }

    fn renew(&self, shard: u32, ballot: Ballot, until: SimTime) {
        let mut inner = self.inner.lock().expect("audit lock");
        if let Some(span) = inner.spans.get_mut(&(shard, ballot)) {
            span.until = span.until.max(until);
        }
    }

    fn relinquish(&self, shard: u32, ballot: Ballot, at: SimTime) {
        let mut inner = self.inner.lock().expect("audit lock");
        if let Some(span) = inner.spans.get_mut(&(shard, ballot)) {
            span.until = span.until.min(at);
        }
    }

    /// All recorded tenures, sorted by `(shard, from, ballot)` —
    /// deterministic regardless of engine parallelism.
    pub fn spans(&self) -> Vec<LeaseSpan> {
        let inner = self.inner.lock().expect("audit lock");
        let mut spans: Vec<LeaseSpan> = inner.spans.values().copied().collect();
        spans.sort_by_key(|s| (s.shard, s.from, s.ballot));
        spans
    }
}

// ---------------------------------------------------------------------
// Stats.
// ---------------------------------------------------------------------

/// Counters of mastership activity at one node (aggregated into the
/// cluster report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MastershipStats {
    /// Election rounds this node started (candidacy bumps).
    pub elections: u64,
    /// Fresh leases acquired (majority-granted).
    pub leases_acquired: u64,
    /// Successful lease renewals.
    pub renewals: u64,
    /// Voluntary handoffs sent (migration).
    pub handoffs: u64,
    /// Mastered requests served while holding the lease.
    pub served: u64,
    /// Mastered requests forwarded to the believed holder.
    pub forwarded: u64,
    /// Cold first-touch mastered commits served without a per-record
    /// Phase1 exchange — the lease ballot carried the promise.
    pub phase1_skipped: u64,
    /// Classic Phase1 rounds run for lease-covered records while
    /// serving (records the lease ballot could not carry: warm under a
    /// predecessor's ballot, or promised above the lease).
    pub phase1_covered: u64,
    /// WAN round trips spent on cold first-touch mastered commits
    /// (1 per skipped Phase1, 2 per classic establish while serving).
    pub cold_first_commit_rtts: u64,
}

// ---------------------------------------------------------------------
// Actions.
// ---------------------------------------------------------------------

/// What the host must do on behalf of the mastership layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send `msg` to `to` (always a peer replica of the shard group).
    Send {
        /// Destination storage node.
        to: NodeId,
        /// Message to deliver.
        msg: MsMsg,
    },
    /// This replica's granted lease ballot for `shard` strictly rose:
    /// the host must enforce `ballot` as the Phase1 promise floor for
    /// every record acceptor in the shard (lease-carried Phase1), so a
    /// deposed holder's stale ballots are fenced without per-record
    /// Phase1a/Phase1b exchanges.
    FloorRaised {
        /// Shard concerned.
        shard: u32,
        /// The new lease ballot, now the shard-wide promise floor.
        ballot: Ballot,
    },
    /// This node voluntarily handed the lease for `shard` to `to`: the
    /// host should ship its per-record override table (as
    /// [`MsMsg::Overrides`]) so the successor inherits record-granular
    /// coverage.
    Relinquished {
        /// Shard concerned.
        shard: u32,
        /// The handoff target.
        to: NodeId,
    },
}

// ---------------------------------------------------------------------
// Per-shard state.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Holding {
    ballot: Ballot,
    serve_from: SimTime,
    expiry: SimTime,
}

#[derive(Debug, Clone)]
struct Pending {
    ballot: Ballot,
    expiry: SimTime,
    relinquished: Option<Ballot>,
    grants: Vec<NodeId>,
    /// Max predecessor expiry reported by grantors (what a fresh holder
    /// must wait out).
    floor: SimTime,
    renewal: bool,
}

struct ShardState {
    shard: u32,
    /// Replica group in DC order, self included.
    peers: Vec<NodeId>,
    majority: usize,
    // --- ballot leader election ---
    candidacy: Ballot,
    hb_round: u32,
    /// Peers that replied to a recent round (current or previous — one
    /// WAN round trip can outlast a heartbeat interval).
    replies: Vec<NodeId>,
    max_seen: Ballot,
    // --- lease table (replica role) ---
    granted: Ballot,
    granted_expiry: SimTime,
    // --- routing hint ---
    hint: Option<HolderHint>,
    // --- holder role ---
    holding: Option<Holding>,
    pending: Option<Pending>,
    // --- migration ---
    origin_counts: Vec<u64>,
    /// Start of the current rate-measurement window.
    window_start: SimTime,
    dominant_streak: u32,
    last_dominant: Option<u8>,
}

impl ShardState {
    fn new(shard: u32, peers: Vec<NodeId>, pid: u64) -> Self {
        let majority = peers.len() / 2 + 1;
        let dcs = peers.len();
        Self {
            shard,
            peers,
            majority,
            candidacy: Ballot::new(0, pid),
            hb_round: 0,
            replies: Vec::new(),
            max_seen: Ballot::default(),
            granted: Ballot::default(),
            granted_expiry: SimTime::ZERO,
            hint: None,
            holding: None,
            pending: None,
            origin_counts: vec![0; dcs],
            window_start: SimTime::ZERO,
            dominant_streak: 0,
            last_dominant: None,
        }
    }

    /// The best routing hint this replica can gossip: its own unexpired
    /// holding, its grant table, or what it heard from peers — whichever
    /// carries the highest ballot.
    fn best_hint(&self, me: NodeId, now: SimTime) -> Option<HolderHint> {
        let mut best: Option<HolderHint> = None;
        let mut offer = |h: HolderHint| {
            if h.expiry > now && best.map(|b| h.ballot > b.ballot).unwrap_or(true) {
                best = Some(h);
            }
        };
        if let Some(h) = self.holding {
            offer(HolderHint {
                ballot: h.ballot,
                node: me,
                expiry: h.expiry,
            });
        }
        if self.granted != Ballot::default() {
            offer(HolderHint {
                ballot: self.granted,
                node: self.granted.node(),
                expiry: self.granted_expiry,
            });
        }
        if let Some(h) = self.hint {
            offer(h);
        }
        best
    }

    fn observe_hint(&mut self, h: HolderHint) {
        let better = match self.hint {
            Some(cur) => h.ballot > cur.ballot || (h.ballot == cur.ballot && h.expiry > cur.expiry),
            None => true,
        };
        if better {
            self.hint = Some(h);
        }
    }
}

// ---------------------------------------------------------------------
// The node-level mastership layer.
// ---------------------------------------------------------------------

/// Mastership state of one storage node: election, lease table, holder
/// and migration state for every shard the node replicates.
pub struct Mastership {
    me: NodeId,
    my_dc: DcId,
    shards: HashMap<u32, ShardState>,
    /// Ordered shard ids (deterministic tick iteration).
    shard_order: Vec<u32>,
    /// A restarted replica lost its volatile grant table; it must not
    /// grant (or campaign) until every lease it might have granted
    /// before the crash has expired.
    quarantine_until: SimTime,
    /// Contention level: each contested tick raises the heartbeat delay
    /// by one increment (omnipaxos's increasing-delay rounds), each
    /// calm tick lowers it.
    delay_level: u32,
    stats: MastershipStats,
    audit: Option<LeaseAudit>,
}

impl Mastership {
    /// Builds the mastership layer for a node replicating `shards`
    /// (`(shard id, replica group in DC order)`). `recovered_at` marks
    /// a post-restart node, which is quarantined from granting for one
    /// lease duration (its volatile grant table died with the crash).
    pub fn new(
        me: NodeId,
        my_dc: DcId,
        shards: Vec<(u32, Vec<NodeId>)>,
        recovered_at: Option<SimTime>,
    ) -> Self {
        let pid = me.0 as u64;
        let quarantine_until = match recovered_at {
            Some(at) => at + LEASE_DURATION,
            None => SimTime::ZERO,
        };
        let mut shard_order: Vec<u32> = shards.iter().map(|(s, _)| *s).collect();
        shard_order.sort_unstable();
        Self {
            me,
            my_dc,
            shards: shards
                .into_iter()
                .map(|(s, peers)| (s, ShardState::new(s, peers, pid)))
                .collect(),
            shard_order,
            quarantine_until,
            delay_level: 0,
            stats: MastershipStats::default(),
            audit: None,
        }
    }

    /// Attaches the shared lease-tenure collector.
    pub fn set_audit(&mut self, audit: LeaseAudit) {
        self.audit = Some(audit);
    }

    /// Activity counters.
    pub fn stats(&self) -> MastershipStats {
        self.stats
    }

    /// Whether this node currently holds the lease for `shard` and is
    /// inside its majority-acked serving window.
    pub fn is_serving(&self, shard: u32, now: SimTime) -> bool {
        self.shards
            .get(&shard)
            .and_then(|s| s.holding)
            .map(|h| h.serve_from <= now && now < h.expiry)
            .unwrap_or(false)
    }

    /// Where mastered traffic for `shard` should go right now: self
    /// when serving, else the highest-ballot unexpired lease holder
    /// this node knows of.
    pub fn holder(&self, shard: u32, now: SimTime) -> Option<NodeId> {
        let state = self.shards.get(&shard)?;
        if self.is_serving(shard, now) {
            return Some(self.me);
        }
        state.hint.filter(|h| h.expiry > now).map(|h| h.node)
    }

    /// Election ballot number of the lease this node holds for `shard`
    /// — seeds the classic-paxos ballot floor so a fresh master's
    /// Phase1a immediately outranks its predecessor's ballots.
    pub fn ballot_floor(&self, shard: u32) -> Option<u32> {
        self.shards
            .get(&shard)
            .and_then(|s| s.holding)
            .map(|h| h.ballot.n)
    }

    /// Records one mastered request served while holding the lease
    /// (feeds access-driven migration).
    pub fn note_served(&mut self, shard: u32, origin_dc: DcId) {
        self.stats.served += 1;
        if let Some(state) = self.shards.get_mut(&shard) {
            if let Some(slot) = state.origin_counts.get_mut(origin_dc.0 as usize) {
                *slot += 1;
            }
        }
    }

    /// Records one mastered request forwarded to the believed holder.
    pub fn note_forwarded(&mut self) {
        self.stats.forwarded += 1;
    }

    /// Records a cold first-touch mastered commit that skipped the
    /// per-record Phase1 exchange because the lease ballot already
    /// carried the promise (one WAN round trip instead of two).
    pub fn note_phase1_skipped(&mut self) {
        self.stats.phase1_skipped += 1;
        self.stats.cold_first_commit_rtts += 1;
    }

    /// Records a classic Phase1 round run for a lease-covered record
    /// while serving — the latency cliff lease-carried Phase1 exists
    /// to remove (two WAN round trips for the first commit).
    pub fn note_phase1_covered(&mut self) {
        self.stats.phase1_covered += 1;
        self.stats.cold_first_commit_rtts += 2;
    }

    /// One heartbeat tick: closes the previous round, renews or
    /// campaigns, checks migration, opens the next round. Returns the
    /// delay until the next tick (base interval plus the current
    /// contention level's increments).
    pub fn on_tick(&mut self, now: SimTime, out: &mut Vec<Action>) -> SimDuration {
        let mut contested = false;
        let quarantined = now < self.quarantine_until;
        for idx in 0..self.shard_order.len() {
            let shard = self.shard_order[idx];
            contested |= self.tick_shard(shard, now, quarantined, out);
        }
        if contested {
            self.delay_level = (self.delay_level + 1).min(4);
        } else {
            self.delay_level = self.delay_level.saturating_sub(1);
        }
        HEARTBEAT_INTERVAL + HB_DELAY_INCREMENT * self.delay_level as u64
    }

    fn tick_shard(
        &mut self,
        shard: u32,
        now: SimTime,
        quarantined: bool,
        out: &mut Vec<Action>,
    ) -> bool {
        let me = self.me;
        let lease = LEASE_DURATION;
        let mut contested = false;

        // Migration check first: it may relinquish the lease, in which
        // case this tick neither renews nor campaigns.
        self.check_migration(shard, now, out);

        let state = self.shards.get_mut(&shard).expect("shard state");
        if let Some(holding) = state.holding {
            // Self-deposition: a holder whose renewals have failed to
            // reach a grant majority for a full lease beyond its expiry
            // is on the wrong side of a partition — possibly an
            // *asymmetric* one where its Acquires still reach the
            // grantors (keeping their routing hints alive and elections
            // suppressed) while the grants can never come back. It
            // stopped serving at the expiry; now it also stops
            // renewing, so the survivors' hints lapse and the
            // connected majority can elect. Dropping `holding` is
            // always safe — it only ever stops this node from serving.
            if now.since(holding.expiry) > lease {
                state.holding = None;
                state.pending = None;
                return contested;
            }
            // Renew (also re-acquires an expired-but-unchallenged
            // lease: replicas treat the same ballot from the same
            // holder as a renewal).
            let expiry = now + lease;
            state.pending = Some(Pending {
                ballot: holding.ballot,
                expiry,
                relinquished: None,
                grants: Vec::new(),
                floor: SimTime::ZERO,
                renewal: true,
            });
            Self::self_grant(state, me, now, &mut self.stats, &self.audit, out);
            for peer in state.peers.clone() {
                if peer != me {
                    out.push(Action::Send {
                        to: peer,
                        msg: MsMsg::Acquire {
                            shard,
                            ballot: holding.ballot,
                            expiry,
                            relinquished: None,
                        },
                    });
                }
            }
        } else if !quarantined && state.hb_round > 0 {
            // Campaign when no live lease is known, this node can see a
            // majority, and it is the top-pid node among those alive —
            // the deterministic omnipaxos tiebreak, so exactly one
            // candidate usually emerges per election.
            let hint_live = state.hint.map(|h| h.expiry > now).unwrap_or(false);
            let connected = state.replies.len() + 1;
            let top_pid = state
                .replies
                .iter()
                .map(|n| n.0 as u64)
                .max()
                .unwrap_or(0)
                .max(me.0 as u64);
            if !hint_live && connected >= state.majority && top_pid == me.0 as u64 {
                let n = state.max_seen.n.max(state.candidacy.n) + 1;
                state.candidacy = Ballot::new(n, me.0 as u64);
                state.max_seen = state.max_seen.max(state.candidacy);
                self.stats.elections += 1;
                contested = true;
                let expiry = now + lease;
                state.pending = Some(Pending {
                    ballot: state.candidacy,
                    expiry,
                    relinquished: None,
                    grants: Vec::new(),
                    floor: SimTime::ZERO,
                    renewal: false,
                });
                Self::self_grant(state, me, now, &mut self.stats, &self.audit, out);
                for peer in state.peers.clone() {
                    if peer != me {
                        out.push(Action::Send {
                            to: peer,
                            msg: MsMsg::Acquire {
                                shard,
                                ballot: state.candidacy,
                                expiry,
                                relinquished: None,
                            },
                        });
                    }
                }
            }
        }

        // Open the next heartbeat round.
        let state = self.shards.get_mut(&shard).expect("shard state");
        state.hb_round += 1;
        state.replies.clear();
        let round = state.hb_round;
        for peer in state.peers.clone() {
            if peer != me {
                out.push(Action::Send {
                    to: peer,
                    msg: MsMsg::HbReq { shard, round },
                });
            }
        }
        contested
    }

    /// Applies the grant rule to this node's *own* lease table for its
    /// own pending acquire/renewal (the candidate is one of the shard's
    /// replicas and votes for itself).
    fn self_grant(
        state: &mut ShardState,
        me: NodeId,
        now: SimTime,
        stats: &mut MastershipStats,
        audit: &Option<LeaseAudit>,
        out: &mut Vec<Action>,
    ) {
        let Some(pending) = state.pending.clone() else {
            return;
        };
        let renewal = state.granted == pending.ballot && state.granted.pid == me.0 as u64;
        if pending.ballot > state.granted || renewal {
            let rose = pending.ballot > state.granted;
            let prev = (state.granted != Ballot::default() && !renewal)
                .then_some((state.granted, state.granted_expiry));
            state.granted = pending.ballot;
            state.granted_expiry = pending.expiry;
            if rose {
                out.push(Action::FloorRaised {
                    shard: state.shard,
                    ballot: pending.ballot,
                });
            }
            Self::apply_grant(
                state,
                me,
                me,
                pending.ballot,
                pending.expiry,
                prev,
                now,
                stats,
                audit,
            );
        }
    }

    /// Folds one grant (self or remote) into the matching pending
    /// acquisition, promoting to holder at majority.
    #[allow(clippy::too_many_arguments)]
    fn apply_grant(
        state: &mut ShardState,
        me: NodeId,
        from: NodeId,
        ballot: Ballot,
        expiry: SimTime,
        prev: Option<(Ballot, SimTime)>,
        now: SimTime,
        stats: &mut MastershipStats,
        audit: &Option<LeaseAudit>,
    ) {
        let Some(pending) = state.pending.as_mut() else {
            return;
        };
        if pending.ballot != ballot || pending.expiry != expiry {
            return;
        }
        if pending.grants.contains(&from) {
            return;
        }
        pending.grants.push(from);
        if let Some((prev_ballot, prev_expiry)) = prev {
            // A predecessor's acked window must be waited out — unless
            // it voluntarily relinquished (handoff) or it was this very
            // node's earlier tenure.
            let relinquished = pending.relinquished == Some(prev_ballot);
            if !relinquished && prev_ballot.pid != me.0 as u64 {
                pending.floor = pending.floor.max(prev_expiry);
            }
        }
        if pending.grants.len() >= state.majority {
            let pending = state.pending.take().expect("pending");
            if pending.renewal {
                if let Some(h) = state.holding.as_mut() {
                    h.expiry = pending.expiry;
                    stats.renewals += 1;
                    if let Some(a) = audit {
                        a.renew(state.shard, h.ballot, h.expiry);
                    }
                }
            } else {
                let serve_from = now.max(pending.floor);
                state.holding = Some(Holding {
                    ballot: pending.ballot,
                    serve_from,
                    expiry: pending.expiry,
                });
                stats.leases_acquired += 1;
                if let Some(a) = audit {
                    a.acquire(state.shard, me, pending.ballot, serve_from, pending.expiry);
                }
            }
            state.hint = Some(HolderHint {
                ballot: ballot.max(state.holding.map(|h| h.ballot).unwrap_or_default()),
                node: me,
                expiry,
            });
        }
    }

    /// Access-driven migration: if a remote data center's mastered
    /// traffic sustained at least [`MIGRATE_MIN_RATE`] req/s *and*
    /// dominated the holder's local traffic for [`MIGRATE_ROUNDS`]
    /// consecutive window evaluations, hand the lease to its replica.
    ///
    /// Dominance is judged on request *rate over a window*
    /// ([`MIGRATE_WINDOW`]), not raw per-tick counts, so the rule is
    /// scale-free: quick/paper/10x scales shift absolute traffic by an
    /// order of magnitude but leave req/s-per-client untouched.
    fn check_migration(&mut self, shard: u32, now: SimTime, out: &mut Vec<Action>) {
        let my_dc = self.my_dc.0 as usize;
        let state = self.shards.get_mut(&shard).expect("shard state");
        let serving = state
            .holding
            .map(|h| h.serve_from <= now && now < h.expiry)
            .unwrap_or(false);
        if !serving {
            state.dominant_streak = 0;
            state.last_dominant = None;
            state.window_start = now;
            for c in &mut state.origin_counts {
                *c = 0;
            }
            return;
        }
        // Evaluate only once a full window of traffic has accumulated.
        let elapsed = now.since(state.window_start);
        if elapsed < MIGRATE_WINDOW {
            return;
        }
        let local = state.origin_counts.get(my_dc).copied().unwrap_or(0);
        let (dom_dc, dom_count) = state
            .origin_counts
            .iter()
            .copied()
            .enumerate()
            .filter(|(dc, _)| *dc != my_dc)
            .max_by_key(|(dc, c)| (*c, std::cmp::Reverse(*dc)))
            .unwrap_or((my_dc, 0));
        let dom_rate = dom_count * 1_000 / elapsed.as_millis().max(1);
        let dominant =
            dom_rate >= MIGRATE_MIN_RATE && dom_count * 100 >= MIGRATE_THRESHOLD_PCT * local.max(1);
        if dominant && state.last_dominant == Some(dom_dc as u8) {
            state.dominant_streak += 1;
        } else if dominant {
            state.last_dominant = Some(dom_dc as u8);
            state.dominant_streak = 1;
        } else {
            state.last_dominant = None;
            state.dominant_streak = 0;
        }
        // Exponential decay: halve both the counts and the elapsed
        // window so the rate estimate tracks recent traffic.
        for c in &mut state.origin_counts {
            *c /= 2;
        }
        state.window_start += elapsed / 2;
        if state.dominant_streak < MIGRATE_ROUNDS {
            return;
        }
        let holding = state.holding.expect("serving implies holding");
        let target = state.peers[dom_dc];
        let next = Ballot::new(holding.ballot.n + 1, target.0 as u64);
        // Relinquish first: this node stops serving *now*, so the
        // successor may start without waiting out our expiry.
        state.holding = None;
        state.pending = None;
        state.dominant_streak = 0;
        state.last_dominant = None;
        state.window_start = now;
        for c in &mut state.origin_counts {
            *c = 0;
        }
        state.max_seen = state.max_seen.max(next);
        // Route optimistically to the target while it acquires.
        state.hint = Some(HolderHint {
            ballot: next,
            node: target,
            expiry: now + LEASE_DURATION,
        });
        self.stats.handoffs += 1;
        if let Some(a) = &self.audit {
            a.relinquish(shard, holding.ballot, now);
        }
        out.push(Action::Send {
            to: target,
            msg: MsMsg::Handoff {
                shard,
                ballot: next,
                relinquished: holding.ballot,
            },
        });
        // Let the host ship its per-record override table after the
        // handoff message.
        out.push(Action::Relinquished { shard, to: target });
    }

    /// Handles one mastership message.
    pub fn on_msg(&mut self, from: NodeId, msg: MsMsg, now: SimTime, out: &mut Vec<Action>) {
        let me = self.me;
        let quarantined = now < self.quarantine_until;
        let shard = msg.shard();
        let Some(state) = self.shards.get_mut(&shard) else {
            return;
        };
        match msg {
            MsMsg::HbReq { shard, round } => {
                let ballot = state.candidacy.max(state.granted);
                let holder = state.best_hint(me, now);
                out.push(Action::Send {
                    to: from,
                    msg: MsMsg::HbReply {
                        shard,
                        round,
                        ballot,
                        holder,
                    },
                });
            }
            MsMsg::HbReply {
                round,
                ballot,
                holder,
                ..
            } => {
                // One WAN round trip can outlast a heartbeat interval,
                // so replies to the previous round still prove the peer
                // alive and connected.
                if round + 2 > state.hb_round && !state.replies.contains(&from) {
                    state.replies.push(from);
                }
                state.max_seen = state.max_seen.max(ballot);
                if let Some(h) = holder {
                    if h.expiry > now {
                        state.observe_hint(h);
                    }
                }
            }
            MsMsg::Acquire {
                shard,
                ballot,
                expiry,
                relinquished,
            } => {
                if quarantined {
                    // A restarted replica's grant table died with its
                    // crash: granting again before every possible
                    // pre-crash grant expired could break the quorum
                    // intersection argument. Stay silent.
                    return;
                }
                state.max_seen = state.max_seen.max(ballot);
                let renewal = ballot == state.granted && ballot.pid == from.0 as u64;
                if ballot > state.granted || renewal {
                    let rose = ballot > state.granted;
                    let prev = (state.granted != Ballot::default() && !renewal)
                        .then_some((state.granted, state.granted_expiry));
                    state.granted = ballot;
                    state.granted_expiry = expiry;
                    if rose {
                        out.push(Action::FloorRaised { shard, ballot });
                    }
                    state.observe_hint(HolderHint {
                        ballot,
                        node: ballot.node(),
                        expiry,
                    });
                    // A voluntarily relinquished predecessor need not be
                    // reported: its holder already ceded.
                    let prev = prev.filter(|(b, _)| Some(*b) != relinquished);
                    out.push(Action::Send {
                        to: from,
                        msg: MsMsg::Grant {
                            shard,
                            ballot,
                            expiry,
                            prev,
                        },
                    });
                } else {
                    out.push(Action::Send {
                        to: from,
                        msg: MsMsg::Reject {
                            shard,
                            max: state.granted.max(state.candidacy),
                        },
                    });
                }
            }
            MsMsg::Grant {
                ballot,
                expiry,
                prev,
                ..
            } => {
                Self::apply_grant(
                    state,
                    me,
                    from,
                    ballot,
                    expiry,
                    prev,
                    now,
                    &mut self.stats,
                    &self.audit,
                );
            }
            MsMsg::Reject { max, .. } => {
                state.max_seen = state.max_seen.max(max);
                state.candidacy.n = state.candidacy.n.max(max.n);
                let outranked = state
                    .pending
                    .as_ref()
                    .map(|p| max > p.ballot)
                    .unwrap_or(false);
                if outranked {
                    state.pending = None;
                    if let Some(h) = state.holding.take() {
                        // Someone outranked our lease: stop serving at
                        // once (their serve floor already covers our
                        // acked expiry, so this only tightens).
                        if let Some(a) = &self.audit {
                            a.relinquish(shard, h.ballot, now);
                        }
                    }
                }
            }
            MsMsg::Handoff {
                shard,
                ballot,
                relinquished,
            } => {
                if quarantined || ballot.pid != me.0 as u64 {
                    return;
                }
                state.max_seen = state.max_seen.max(ballot);
                state.candidacy = state.candidacy.max(ballot);
                self.stats.elections += 1;
                let expiry = now + LEASE_DURATION;
                state.pending = Some(Pending {
                    ballot,
                    expiry,
                    relinquished: Some(relinquished),
                    grants: Vec::new(),
                    floor: SimTime::ZERO,
                    renewal: false,
                });
                Self::self_grant(state, me, now, &mut self.stats, &self.audit, out);
                for peer in state.peers.clone() {
                    if peer != me {
                        out.push(Action::Send {
                            to: peer,
                            msg: MsMsg::Acquire {
                                shard,
                                ballot,
                                expiry,
                                relinquished: Some(relinquished),
                            },
                        });
                    }
                }
            }
            MsMsg::Overrides { .. } => {
                // The host storage node owns the override table and
                // intercepts this message before it reaches here; a
                // stray delivery is safely ignored.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::wire::{from_bytes, to_bytes};

    fn ms(millis: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(millis)
    }

    fn group() -> Vec<NodeId> {
        (0..5).map(NodeId).collect()
    }

    fn layer(me: u32) -> Mastership {
        Mastership::new(NodeId(me), DcId(me as u8), vec![(0, group())], None)
    }

    #[test]
    fn ballots_order_by_n_then_pid() {
        assert!(Ballot::new(2, 0) > Ballot::new(1, 99));
        assert!(Ballot::new(2, 3) > Ballot::new(2, 2));
        assert_eq!(Ballot::new(1, 1).max(Ballot::new(1, 1)), Ballot::new(1, 1));
    }

    #[test]
    fn messages_round_trip() {
        let samples = vec![
            MsMsg::HbReq { shard: 3, round: 9 },
            MsMsg::HbReply {
                shard: 3,
                round: 9,
                ballot: Ballot::new(4, 2),
                holder: Some(HolderHint {
                    ballot: Ballot::new(4, 2),
                    node: NodeId(2),
                    expiry: ms(500),
                }),
            },
            MsMsg::Acquire {
                shard: 0,
                ballot: Ballot::new(1, 4),
                expiry: ms(400),
                relinquished: Some(Ballot::new(0, 1)),
            },
            MsMsg::Grant {
                shard: 0,
                ballot: Ballot::new(1, 4),
                expiry: ms(400),
                prev: Some((Ballot::new(0, 1), ms(300))),
            },
            MsMsg::Reject {
                shard: 1,
                max: Ballot::new(7, 0),
            },
            MsMsg::Handoff {
                shard: 2,
                ballot: Ballot::new(8, 3),
                relinquished: Ballot::new(7, 1),
            },
            MsMsg::Overrides {
                shard: 2,
                runs: vec![
                    OverrideRun {
                        start: 10,
                        len: 3,
                        ballot: Ballot::new(9, 3),
                    },
                    OverrideRun {
                        start: 0xdead_beef_cafe,
                        len: 1,
                        ballot: Ballot::new(11, 0),
                    },
                ],
            },
        ];
        for msg in samples {
            let bytes = to_bytes(&msg);
            let back: MsMsg = from_bytes(&bytes).expect("decode");
            assert_eq!(back, msg);
        }
    }

    /// Full five-node group: ticking everyone twice elects exactly the
    /// top-pid node, which then serves after a majority of grants.
    #[test]
    fn top_pid_wins_the_first_election() {
        let mut nodes: Vec<Mastership> = (0..5).map(layer).collect();
        let mut t = SimTime::ZERO;
        for round in 0u64..3 {
            t = ms(100 * (round + 1));
            // Tick all, collect sends, deliver heartbeats + acquires.
            let mut mail: Vec<(NodeId, NodeId, MsMsg)> = Vec::new();
            for node in nodes.iter_mut() {
                let mut out = Vec::new();
                node.on_tick(t, &mut out);
                for a in out {
                    if let Action::Send { to, msg } = a {
                        mail.push((node.me, to, msg));
                    }
                }
            }
            // Deliver until quiescent (messages are instantaneous here).
            while !mail.is_empty() {
                let batch = std::mem::take(&mut mail);
                for (from, to, msg) in batch {
                    let node = &mut nodes[to.0 as usize];
                    let mut out = Vec::new();
                    node.on_msg(from, msg, t, &mut out);
                    for a in out {
                        if let Action::Send { to: t2, msg } = a {
                            mail.push((node.me, t2, msg));
                        }
                    }
                }
            }
        }
        assert!(nodes[4].is_serving(0, t), "top pid should hold the lease");
        for n in &nodes[..4] {
            assert!(!n.is_serving(0, t), "{:?} must not serve", n.me);
            assert_eq!(n.holder(0, t), Some(NodeId(4)));
        }
        assert_eq!(nodes[4].ballot_floor(0), Some(1));
    }

    /// A replica that granted an old lease reports its expiry; a new
    /// holder must not serve before it.
    #[test]
    fn successor_waits_out_the_predecessors_expiry() {
        let mut candidate = layer(2);
        let mut out = Vec::new();
        candidate.on_tick(ms(100), &mut out); // opens round 1
        for peer in [0u32, 1, 3, 4] {
            candidate.on_msg(
                NodeId(peer),
                MsMsg::HbReply {
                    shard: 0,
                    round: 1,
                    ballot: Ballot::default(),
                    holder: None,
                },
                ms(110),
                &mut Vec::new(),
            );
        }
        // Higher pids look alive, so node 2 must NOT campaign...
        let mut out = Vec::new();
        candidate.on_tick(ms(200), &mut out);
        assert!(
            !out.iter().any(|a| matches!(
                a,
                Action::Send {
                    msg: MsMsg::Acquire { .. },
                    ..
                }
            )),
            "node 2 defers to higher pids"
        );
        // ...until only lower pids reply (3 and 4 crashed).
        for peer in [0u32, 1] {
            candidate.on_msg(
                NodeId(peer),
                MsMsg::HbReply {
                    shard: 0,
                    round: 2,
                    ballot: Ballot::default(),
                    holder: None,
                },
                ms(210),
                &mut Vec::new(),
            );
        }
        let mut out = Vec::new();
        candidate.on_tick(ms(300), &mut out);
        let acquire = out
            .iter()
            .find_map(|a| match a {
                Action::Send {
                    msg: MsMsg::Acquire { ballot, expiry, .. },
                    ..
                } => Some((*ballot, *expiry)),
                _ => None,
            })
            .expect("campaigns once top-connected");
        let (ballot, expiry) = acquire;
        assert_eq!(ballot, Ballot::new(1, 2));
        // Two grants complete the majority; one reports a predecessor
        // lease that runs until t=650.
        let mut out = Vec::new();
        candidate.on_msg(
            NodeId(0),
            MsMsg::Grant {
                shard: 0,
                ballot,
                expiry,
                prev: Some((Ballot::new(0, 4), ms(650))),
            },
            ms(320),
            &mut out,
        );
        candidate.on_msg(
            NodeId(1),
            MsMsg::Grant {
                shard: 0,
                ballot,
                expiry,
                prev: None,
            },
            ms(330),
            &mut out,
        );
        assert!(
            !candidate.is_serving(0, ms(340)),
            "must wait out the predecessor's acked expiry"
        );
        assert!(candidate.is_serving(0, ms(651)));
    }

    /// Handoff: the target may serve immediately (the predecessor
    /// relinquished), and grants echoing the relinquished ballot do not
    /// raise the serve floor.
    #[test]
    fn handoff_serves_without_waiting() {
        let mut target = layer(2);
        let mut out = Vec::new();
        let old = Ballot::new(3, 4);
        target.on_msg(
            NodeId(4),
            MsMsg::Handoff {
                shard: 0,
                ballot: Ballot::new(4, 2),
                relinquished: old,
            },
            ms(1000),
            &mut out,
        );
        let expiry = match out
            .iter()
            .find(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: MsMsg::Acquire { .. },
                        ..
                    }
                )
            })
            .expect("acquires on handoff")
        {
            Action::Send {
                msg: MsMsg::Acquire { expiry, .. },
                ..
            } => *expiry,
            _ => unreachable!(),
        };
        let mut out = Vec::new();
        for peer in [0u32, 1] {
            target.on_msg(
                NodeId(peer),
                MsMsg::Grant {
                    shard: 0,
                    ballot: Ballot::new(4, 2),
                    expiry,
                    prev: Some((old, ms(1500))),
                },
                ms(1010),
                &mut out,
            );
        }
        assert!(
            target.is_serving(0, ms(1011)),
            "relinquished predecessor's expiry is waived"
        );
    }

    /// A quarantined (restarted) replica neither grants nor campaigns
    /// until one lease duration has passed.
    #[test]
    fn restart_quarantine_blocks_grants() {
        let mut node = Mastership::new(NodeId(1), DcId(1), vec![(0, group())], Some(ms(1000)));
        let mut out = Vec::new();
        node.on_msg(
            NodeId(4),
            MsMsg::Acquire {
                shard: 0,
                ballot: Ballot::new(9, 4),
                expiry: ms(1400),
                relinquished: None,
            },
            ms(1100),
            &mut out,
        );
        assert!(out.is_empty(), "no grant during quarantine");
        node.on_msg(
            NodeId(4),
            MsMsg::Acquire {
                shard: 0,
                ballot: Ballot::new(9, 4),
                expiry: ms(1800),
                relinquished: None,
            },
            ms(1500),
            &mut out,
        );
        assert!(
            matches!(
                out.as_slice(),
                [
                    Action::FloorRaised { .. },
                    Action::Send {
                        msg: MsMsg::Grant { .. },
                        ..
                    }
                ]
            ),
            "grants resume after quarantine: {out:?}"
        );
    }

    /// The migration hysteresis: remote-dominant traffic sustained at
    /// a sufficient *rate* over the window hands the lease off; the
    /// holder stops serving at once and tells the host to ship its
    /// override table.
    #[test]
    fn remote_traffic_triggers_handoff() {
        let mut holder = layer(4);
        // Install a held lease directly (window starts at t=0).
        let state = holder.shards.get_mut(&0).unwrap();
        state.holding = Some(Holding {
            ballot: Ballot::new(2, 4),
            serve_from: ms(0),
            expiry: ms(10_000),
        });
        // 40 remote requests over the first 500 ms window = 80 req/s,
        // well past the 20 req/s rate floor and 200 % dominance ratio.
        for _ in 0..40 {
            holder.note_served(0, DcId(1));
        }
        for _ in 0..3 {
            holder.note_served(0, DcId(4));
        }
        let mut out = Vec::new();
        holder.on_tick(ms(500), &mut out); // window full → streak 1
        assert!(holder.is_serving(0, ms(550)));
        for _ in 0..40 {
            holder.note_served(0, DcId(1));
        }
        let mut out = Vec::new();
        holder.on_tick(ms(1000), &mut out); // streak 2 → handoff
        let handoff = out.iter().find_map(|a| match a {
            Action::Send {
                to,
                msg: MsMsg::Handoff { ballot, .. },
            } => Some((*to, *ballot)),
            _ => None,
        });
        assert_eq!(handoff, Some((NodeId(1), Ballot::new(3, 1))));
        assert!(
            out.iter()
                .any(|a| matches!(a, Action::Relinquished { shard: 0, to } if *to == NodeId(1))),
            "host is told to ship overrides: {out:?}"
        );
        assert!(!holder.is_serving(0, ms(1001)), "relinquished immediately");
        assert_eq!(holder.holder(0, ms(1001)), Some(NodeId(1)));
        assert_eq!(holder.stats().handoffs, 1);
    }

    /// Sparse traffic never migrates, no matter how lopsided: the
    /// rate floor filters out low-volume noise at any scale.
    #[test]
    fn low_rate_traffic_never_migrates() {
        let mut holder = layer(4);
        let state = holder.shards.get_mut(&0).unwrap();
        state.holding = Some(Holding {
            ballot: Ballot::new(2, 4),
            serve_from: ms(0),
            expiry: ms(60_000),
        });
        // 5 remote requests per 500 ms window = 10 req/s < 20 req/s.
        for round in 1u64..=8 {
            for _ in 0..5 {
                holder.note_served(0, DcId(1));
            }
            let mut out = Vec::new();
            holder.on_tick(ms(500 * round), &mut out);
            assert!(
                !out.iter().any(|a| matches!(
                    a,
                    Action::Send {
                        msg: MsMsg::Handoff { .. },
                        ..
                    }
                )),
                "below the rate floor, the lease stays put"
            );
        }
        assert_eq!(holder.stats().handoffs, 0);
    }

    /// Lease audit spans never overlap across holders, and renewal
    /// extends rather than duplicates.
    #[test]
    fn audit_records_tenures() {
        let audit = LeaseAudit::new();
        let mut a = layer(4);
        a.set_audit(audit.clone());
        let state = a.shards.get_mut(&0).unwrap();
        state.pending = Some(Pending {
            ballot: Ballot::new(1, 4),
            expiry: ms(400),
            relinquished: None,
            grants: Vec::new(),
            floor: SimTime::ZERO,
            renewal: false,
        });
        Mastership::self_grant(
            a.shards.get_mut(&0).unwrap(),
            NodeId(4),
            ms(0),
            &mut a.stats,
            &a.audit,
            &mut Vec::new(),
        );
        for peer in [0u32, 1] {
            a.on_msg(
                NodeId(peer),
                MsMsg::Grant {
                    shard: 0,
                    ballot: Ballot::new(1, 4),
                    expiry: ms(400),
                    prev: None,
                },
                ms(10),
                &mut Vec::new(),
            );
        }
        let spans = audit.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].node, NodeId(4));
        assert_eq!(spans[0].until, ms(400));
    }

    /// Granting a lease (self or remote) tells the host to raise the
    /// shard's promise floor exactly when the granted ballot rises.
    #[test]
    fn grants_emit_floor_raises() {
        let mut replica = layer(1);
        let mut out = Vec::new();
        replica.on_msg(
            NodeId(4),
            MsMsg::Acquire {
                shard: 0,
                ballot: Ballot::new(3, 4),
                expiry: ms(400),
                relinquished: None,
            },
            ms(10),
            &mut out,
        );
        assert!(
            out.iter().any(|a| matches!(
                a,
                Action::FloorRaised {
                    shard: 0,
                    ballot
                } if *ballot == Ballot::new(3, 4)
            )),
            "fresh grant raises the floor: {out:?}"
        );
        // A renewal of the same ballot does not re-raise.
        let mut out = Vec::new();
        replica.on_msg(
            NodeId(4),
            MsMsg::Acquire {
                shard: 0,
                ballot: Ballot::new(3, 4),
                expiry: ms(800),
                relinquished: None,
            },
            ms(410),
            &mut out,
        );
        assert!(
            !out.iter().any(|a| matches!(a, Action::FloorRaised { .. })),
            "renewal leaves the floor alone: {out:?}"
        );
        // A stale ballot is rejected and raises nothing.
        let mut out = Vec::new();
        replica.on_msg(
            NodeId(2),
            MsMsg::Acquire {
                shard: 0,
                ballot: Ballot::new(2, 2),
                expiry: ms(1200),
                relinquished: None,
            },
            ms(420),
            &mut out,
        );
        assert!(
            out.iter().all(|a| matches!(
                a,
                Action::Send {
                    msg: MsMsg::Reject { .. },
                    ..
                }
            )),
            "stale acquire only rejects: {out:?}"
        );
    }

    #[test]
    fn lease_table_raises_and_looks_up() {
        let mut table = LeaseTable::new(8);
        assert!(table.is_empty());
        assert!(table.raise(7, Ballot::new(2, 4)));
        assert!(!table.raise(7, Ballot::new(1, 9)), "lower ballot ignored");
        assert!(table.raise(7, Ballot::new(3, 1)));
        assert_eq!(table.override_of(7), Some(Ballot::new(3, 1)));
        assert_eq!(table.override_of(8), None);
        assert_eq!(table.peek(7), Some(Ballot::new(3, 1)));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn lease_table_spills_lru_half_deterministically() {
        let mut table = LeaseTable::new(4);
        for id in 0u64..4 {
            table.raise(id, Ballot::new(1, 0));
        }
        // Touch 2 and 3 so they are the recent half.
        table.override_of(2);
        table.override_of(3);
        // The fifth insert overflows: everything at or below the
        // median touch stamp spills, keeping only the freshest (3, 4).
        table.raise(4, Ballot::new(1, 0));
        assert_eq!(table.len(), 2);
        assert_eq!(table.peek(0), None);
        assert_eq!(table.peek(1), None);
        assert_eq!(table.peek(2), None);
        assert_eq!(table.peek(3), Some(Ballot::new(1, 0)));
        assert_eq!(table.peek(4), Some(Ballot::new(1, 0)));
    }

    #[test]
    fn lease_table_zero_cap_is_inert() {
        let mut table = LeaseTable::new(0);
        assert!(!table.raise(1, Ballot::new(5, 5)));
        assert!(table.is_empty());
        assert_eq!(table.override_of(1), None);
    }

    #[test]
    fn runs_coalesce_and_round_trip() {
        let mut table = LeaseTable::new(64);
        let b = Ballot::new(4, 2);
        // Two adjacent clusters with a gap and one ballot change.
        for id in [10u64, 11, 12, 14, 15, 100] {
            table.raise(id, b);
        }
        table.raise(15, Ballot::new(5, 2));
        let runs = table.runs();
        assert_eq!(
            runs,
            vec![
                OverrideRun {
                    start: 10,
                    len: 3,
                    ballot: b
                },
                OverrideRun {
                    start: 14,
                    len: 1,
                    ballot: b
                },
                OverrideRun {
                    start: 15,
                    len: 1,
                    ballot: Ballot::new(5, 2)
                },
                OverrideRun {
                    start: 100,
                    len: 1,
                    ballot: b
                },
            ]
        );
        // Wire round trip and re-install reproduce the table.
        let bytes = to_bytes(&MsMsg::Overrides { shard: 0, runs });
        let back: MsMsg = from_bytes(&bytes).expect("decode");
        let MsMsg::Overrides { runs: decoded, .. } = back else {
            panic!("wrong variant");
        };
        let mut fresh = LeaseTable::new(64);
        fresh.install_runs(&decoded);
        assert_eq!(fresh.iter_sorted(), table.iter_sorted());
    }
}
