//! Per-record leader (master), Algorithm 2 of the paper.
//!
//! A leader serializes classic ballots for one record. It is engaged in
//! two situations:
//!
//! 1. **Collision recovery** (§3.3.1): a proposer could not assemble a
//!    fast quorum (or a commutative option was rejected and the
//!    demarcation base must move, §3.4.2). The leader runs Phase1a with a
//!    classic ballot, computes the proved-safe cstruct from a classic
//!    quorum of Phase1b responses, and re-proposes it with Phase2a,
//!    closing and re-basing the instance.
//! 2. **Classic (Multi-Paxos) operation** (§3.1.2, §3.2): after a
//!    collision the next γ transactions run through the master; the
//!    ballot is retained across instances so Phase 1 is skipped. When γ
//!    reaches zero the leader reopens fast mode.
//!
//! A leader gets its ballot in one of two ways. Phase 1 *establishes*
//! one: promises from a classic quorum, then a recovery round that
//! re-bases every acceptor onto the proved-safe cstruct. Both cost only
//! what the receiver lacks: the Phase1a names the cstruct the leader
//! holds ([`LeaderRecord::phase1a`]), promises that hold exactly that
//! leave it out and the leader puts it back before it judges them
//! ([`LeaderRecord::on_phase1b`]), and the recovery round names its base
//! by digest to each promiser that reported exactly that base
//! ([`LeaderRecord::names_base_to`]; `crate::acceptor`'s `promise.rs`
//! has the whole exchange). Or the holder
//! of the shard's mastership lease *assumes* the lease ballot
//! ([`LeaderRecord::assume_leadership`]): the election was Phase 1's
//! promise for every record of the shard at once, and what Phase 1b
//! would have reported each append proves instead, by naming the cstruct
//! it extends ([`crate::acceptor::Base::Digest`]) so that only acceptors
//! holding exactly that join — and a Phase 1 that later finds reports at
//! an assumed ballot believes them only once it knows whether a quorum
//! joined ([`judged_safe`]). Either way a ballot is lost once: the
//! Nacks of one rejected Phase2a arrive up to a round trip apart, and
//! only the first is news ([`LeaderRecord::on_nack`]); a leader deposed
//! between two tenures of its own node is told when the lease comes back
//! ([`LeaderRecord::step_down`]).
//!
//! Crucially, classic instances are **open**: the leader appends each new
//! option with its own Phase2a immediately, without waiting for earlier
//! options to resolve. Waiting would re-introduce exactly the distributed
//! deadlock §3.2.2 eliminates (transaction A's option queued behind B's
//! unresolved option while B waits on A elsewhere); instead the
//! acceptors' validation decides newcomers at once — conflicting physical
//! options are rejected (abort), commutative ones coexist. An instance
//! only closes (resolving, then re-basing the demarcation limits) on
//! recovery, on γ expiry, or when it hits the option cap.
//!
//! A Phase2a broadcast names the instance it targets and carries none of
//! the committed state behind it: an acceptor in that instance needs
//! nothing more, and one that is behind asks. The leader answers that
//! acceptor alone ([`LeaderRecord::on_behind`]) with the instance so far
//! — base, window, close and reopen — and its snapshot, for as long as
//! it leads the ballot and that instance is the one its snapshot names;
//! an ask that comes later is stale, and the hosting node sends its own
//! replica's committed state. That is why the window describes the
//! instance of the last *round* and outlives the leader's own replica
//! catching up to it ([`LeaderRecord::on_advance`]), and why an
//! acceptor's `Stale` report ends the close it overtook
//! ([`LeaderRecord::on_stale`]).
//!
//! The struct is sans-IO: methods return [`LeaderAction`]s that the
//! hosting process turns into messages.

use std::collections::{BTreeMap, VecDeque};

use mdcc_common::{NodeId, Version};

use crate::acceptor::{Base, Phase1a, Phase1b, Phase2a, Promise, RecordSnapshot};
use crate::ballot::Ballot;
use crate::cstruct::CStruct;
use crate::options::TxnOption;
use crate::safe::judged_safe;

/// What the hosting process must do next.
#[derive(Debug, Clone)]
pub enum LeaderAction {
    /// Broadcast Phase1a with this ballot to all acceptors of the record.
    Phase1a(Ballot),
    /// Broadcast this Phase2a to all acceptors of the record.
    Phase2a(Phase2a),
    /// The record reopened fast ballots while this option waited; bounce
    /// it back to its coordinator for a direct fast proposal.
    RedirectFast(TxnOption),
}

/// Leader configuration.
#[derive(Debug, Clone)]
pub struct LeaderConfig {
    /// Replication factor `N`.
    pub n: usize,
    /// Classic quorum size.
    pub qc: usize,
    /// Fast quorum size.
    pub qf: usize,
    /// Options to keep classic after a collision (the paper's γ).
    pub gamma: u64,
    /// Whether fast ballots may be reopened at all. `false` reproduces
    /// the *Multi* configuration of §5.3.1 (always master-coordinated).
    pub allow_fast: bool,
    /// Close and re-base the instance after this many options.
    pub max_instance_options: usize,
    /// Name the base of every append ([`Base::Digest`]), also under a
    /// ballot Phase 1 established. For deployments whose leaders change
    /// with a lease and never reopen fast ballots: there an acceptor
    /// that missed a recovery round would keep a deposed leader's strays
    /// next to the stream's entries for good, so it must refuse to join
    /// and be re-based instead.
    pub name_base: bool,
}

#[derive(Debug, Clone)]
enum Phase {
    /// Not currently leading; fast ballots are running (or nothing is).
    Idle,
    /// Phase 1 in flight: collecting promises, and keeping the instance
    /// and cstruct the Phase1a named to put back into those that leave
    /// it out.
    Establishing {
        ballot: Ballot,
        votes: BTreeMap<usize, Phase1b>,
        named: Option<(Version, CStruct)>,
    },
    /// Ballot established; Phase2a appends flow directly (Multi-Paxos).
    Leading { ballot: Ballot },
    /// The γ-expiring close was sent at `ballot`; once the instance
    /// advances the record is fast again and the leader steps aside.
    Retiring { ballot: Ballot },
}

/// Per-record leader state machine.
#[derive(Debug, Clone)]
pub struct LeaderRecord {
    cfg: LeaderConfig,
    /// The node this leader runs on (ballot tie-breaker).
    self_id: NodeId,
    phase: Phase,
    /// Options waiting for a proposable moment (establishment, instance
    /// close, retirement).
    queue: VecDeque<TxnOption>,
    /// Options appended to the current open instance (replayed on a
    /// stale-snapshot retry and to an acceptor that was behind).
    window: Vec<TxnOption>,
    /// The proved-safe cstruct the ballot's recovery round re-based the
    /// current instance onto, until the instance advances: an acceptor
    /// that was behind when the round went out joins from it like the
    /// others did ([`Self::on_behind`]).
    rebased: Option<CStruct>,
    /// The promisers, by acceptor index, whose promise reported exactly
    /// `rebased` in its instance: the recovery round names its base to
    /// them by digest ([`Self::names_base_to`]).
    holders: Vec<usize>,
    /// Best known committed state.
    snapshot: RecordSnapshot,
    /// The instance the last Phase2a broadcast targeted: what `window`,
    /// `closing` and `rebased` are about. It trails `snapshot` between
    /// an advance and the next round, and when a `Stale` taught the
    /// leader a newer instance and there was nothing to replay into it.
    round_in: Version,
    /// Highest ballot observed anywhere (for picking winning ballots).
    max_seen: Ballot,
    /// Remaining classic options before fast mode reopens.
    gamma_remaining: u64,
    /// A close was requested for the current instance; new options queue
    /// until it advances.
    closing: bool,
    /// A recovery was requested while we were busy.
    recovery_requested: bool,
    /// `Some(d)` while every append names `d`, the digest of the cstruct
    /// the ballot's stream started from in the current instance, so
    /// that an acceptor not yet in the stream joins only if it holds
    /// exactly that ([`Base::Digest`]): always under a ballot taken from
    /// a lease instead of from Phase 1, and under an established one if
    /// [`LeaderConfig::name_base`] says so. `None` otherwise, and
    /// whenever no ballot is led.
    extends: Option<u64>,
}

impl LeaderRecord {
    /// Creates an idle leader for a record whose committed state is
    /// `snapshot`.
    pub fn new(cfg: LeaderConfig, self_id: NodeId, snapshot: RecordSnapshot) -> Self {
        Self {
            cfg,
            self_id,
            phase: Phase::Idle,
            queue: VecDeque::new(),
            window: Vec::new(),
            rebased: None,
            holders: Vec::new(),
            round_in: snapshot.version,
            snapshot,
            max_seen: Ballot::INITIAL_FAST,
            gamma_remaining: 0,
            closing: false,
            recovery_requested: false,
            extends: None,
        }
    }

    /// True while the leader holds an established classic ballot.
    pub fn is_leading(&self) -> bool {
        matches!(self.phase, Phase::Leading { .. })
    }

    /// Records a ballot observed in the wild so future ballots beat it.
    pub fn observe_ballot(&mut self, b: Ballot) {
        if b > self.max_seen {
            self.max_seen = b;
        }
    }

    /// Lease-carried Phase1: the mastership lease ballot is already the
    /// promise floor on every acceptor of this record, so the lease
    /// holder may start Leading at that ballot with no Phase1a/Phase1b
    /// exchange. What Phase 1 would have proved — that the ballot's first
    /// value extends anything chosen below it — the first Phase2a proves
    /// instead: it names `base`, the trace digest of the cstruct the
    /// holder's local replica holds, and only acceptors holding exactly
    /// that join the stream (see [`crate::AcceptorRecord::refuses_base`]
    /// for the argument). Cold or warm makes no difference; one that
    /// differs Nacks with the ballot after this one and [`Self::on_nack`]
    /// falls back to Phase 1.
    ///
    /// Only from `Idle` (see [`Self::step_down`] for a leader left over
    /// from an earlier tenure), with a classic ballot at least as high
    /// as anything observed — a contested record falls back to classic
    /// Phase 1 — and never with a saturated lease ballot, which no
    /// longer outranks its predecessors.
    pub fn assume_leadership(&mut self, ballot: Ballot, base: u64) -> bool {
        if !matches!(self.phase, Phase::Idle)
            || ballot.is_fast()
            || ballot.lease_saturated()
            || ballot < self.max_seen
        {
            return false;
        }
        self.max_seen = ballot;
        self.phase = Phase::Leading { ballot };
        self.gamma_remaining = self.cfg.gamma;
        self.closing = false;
        self.recovery_requested = false;
        self.extends = Some(base);
        true
    }

    /// The shard's lease is now at `lease`: a leader still leading or
    /// establishing a lower ballot was deposed in between — every
    /// acceptor that granted the lease Nacks it — and nobody told it.
    /// What its open window still has in flight (`resolved` says which
    /// options have their outcome already) goes back to the queue for
    /// the next ballot and it turns `Idle`, so that
    /// [`Self::assume_leadership`] (or Phase 1) can take over before
    /// anything is sent at the dead ballot.
    pub fn step_down(&mut self, lease: Ballot, resolved: impl Fn(&TxnOption) -> bool) {
        let (Phase::Leading { ballot } | Phase::Establishing { ballot, .. }) = self.phase else {
            return;
        };
        if ballot < lease {
            self.window.retain(|opt| !resolved(opt));
            self.abandon_ballot();
        }
    }

    /// Nothing in flight and nothing waiting: dropping this leader loses
    /// no proposal. `resolved` says whether an option of the open window
    /// has its outcome; the window itself is only cleared when the
    /// instance advances.
    pub fn is_quiescent(&self, resolved: impl Fn(&TxnOption) -> bool) -> bool {
        matches!(self.phase, Phase::Idle | Phase::Leading { .. })
            && !self.closing
            && !self.recovery_requested
            && self.queue.is_empty()
            && self.window.iter().all(resolved)
    }

    /// A proposer (or the learner rule of Algorithm 1 line 19/26) asked
    /// for recovery of the current instance — a collision happened or the
    /// demarcation base must move.
    pub fn start_recovery(&mut self) -> Vec<LeaderAction> {
        match &self.phase {
            // A quorum promised and the leader is still collecting: what
            // some accepted at an assumed ballot awaits judgement
            // (`judged_safe`). The promise it lacks may have been
            // lost; ask again, at the same ballot.
            Phase::Establishing { ballot, votes, .. } if votes.len() >= self.cfg.qc => {
                vec![LeaderAction::Phase1a(*ballot)]
            }
            Phase::Establishing { .. } | Phase::Retiring { .. } => Vec::new(),
            Phase::Leading { ballot } => {
                // Already coordinating: a close round re-bases without a
                // new Phase 1.
                if self.closing {
                    return Vec::new();
                }
                self.closing = true;
                let ballot = *ballot;
                self.broadcast(ballot, None, Vec::new(), true, self.reopen_ballot(ballot))
            }
            Phase::Idle => {
                self.recovery_requested = true;
                self.establish()
            }
        }
    }

    /// Queues or appends an option (client sent `Propose` to the master,
    /// Algorithm 2 line 29).
    pub fn enqueue(&mut self, opt: TxnOption) -> Vec<LeaderAction> {
        let duplicate = self.queue.iter().any(|o| o.txn == opt.txn)
            || self.window.iter().any(|o| o.txn == opt.txn);
        if duplicate {
            return Vec::new();
        }
        match self.phase {
            Phase::Leading { ballot } if !self.closing => {
                // The queue is empty here unless a step-down just put
                // its unresolved window back: those go first.
                self.queue.push_back(opt);
                self.drain_queue(ballot)
            }
            Phase::Leading { .. } | Phase::Establishing { .. } | Phase::Retiring { .. } => {
                self.queue.push_back(opt);
                Vec::new()
            }
            Phase::Idle => {
                self.queue.push_back(opt);
                self.establish()
            }
        }
    }

    /// The Phase1a that asks for `ballot`. It names the newest instance
    /// this leader knows of and the cstruct it holds there — `local`, its
    /// own replica's instance and cstruct, if that is the one, else the
    /// empty one — so that promises holding exactly that leave it out
    /// ([`Phase1b::leave_out`]). While `ballot` is being established the
    /// leader keeps what it named, to put back into them
    /// ([`Self::on_phase1b`]).
    pub fn phase1a(&mut self, ballot: Ballot, local: Option<(Version, CStruct)>) -> Phase1a {
        let version = self.snapshot.version;
        let held = local.filter(|(v, _)| *v == version).map(|(_, c)| c);
        let held = held.unwrap_or_default();
        let digest = held.digest();
        if let Phase::Establishing {
            ballot: b, named, ..
        } = &mut self.phase
        {
            if *b == ballot {
                *named = Some((version, held));
            }
        }
        Phase1a {
            ballot,
            version,
            digest,
        }
    }

    /// Handles one promise, with what it left out put back first
    /// ([`Promise::restore`]): a promise that leaves out what this leader
    /// did not name is dropped.
    pub fn on_phase1b(&mut self, from: usize, promise: Promise) -> Vec<LeaderAction> {
        self.observe_ballot(promise.promised);
        let Phase::Establishing {
            ballot,
            votes,
            named,
        } = &mut self.phase
        else {
            return Vec::new();
        };
        let ballot = *ballot;
        if promise.promised > ballot {
            // Someone outran us; retry with a higher ballot.
            self.phase = Phase::Idle;
            return self.establish();
        }
        if promise.promised != ballot {
            return Vec::new();
        }
        let Some(p1b) = promise.restore(named.as_ref().map(|(v, c)| (*v, c))) else {
            return Vec::new();
        };
        if p1b.snapshot.version > self.snapshot.version {
            self.snapshot = p1b.snapshot.clone();
        }
        votes.insert(from, p1b);
        if votes.len() < self.cfg.qc {
            return Vec::new();
        }
        // Quorum of promises: compute the proved-safe cstruct over votes
        // for the *newest* instance and propose it together with
        // everything queued; the recovery round always closes and
        // re-bases the instance. Promisers still in an older instance
        // accepted nothing in this one. If what some promisers accepted
        // at an assumed ballot cannot be judged yet, keep collecting:
        // every further promise asks again.
        let newest = self.snapshot.version;
        let relevant: Vec<(usize, &Phase1b)> = votes
            .iter()
            .filter(|(_, v)| v.snapshot.version == newest)
            .map(|(i, v)| (*i, v))
            .collect();
        let elsewhere = votes.len() - relevant.len();
        let (n, qc, qf) = (self.cfg.n, self.cfg.qc, self.cfg.qf);
        let Some(safe) = judged_safe(&relevant, elsewhere, n, qc, qf) else {
            return Vec::new();
        };
        let (safe, holders) = carried(safe, &relevant);
        self.holders = holders;
        self.phase = Phase::Leading { ballot };
        self.recovery_requested = false;
        self.gamma_remaining = self.cfg.gamma;
        self.extends = self.cfg.name_base.then(|| safe.trace_digest());
        let mut new_options = Vec::new();
        while let Some(opt) = self.queue.pop_front() {
            if safe.status_of(opt.txn).is_none() {
                self.gamma_remaining = self.gamma_remaining.saturating_sub(1);
                self.window.push(opt.clone());
                new_options.push(opt);
            }
        }
        let reopen = self.reopen_ballot(ballot);
        self.closing = true;
        if reopen.is_some() {
            self.phase = Phase::Retiring { ballot };
        }
        self.rebased = Some(safe.clone());
        self.broadcast(ballot, Some(safe), new_options, true, reopen)
    }

    /// The digest a recovery round still out may name its proved-safe
    /// base by to acceptor `acceptor` ([`Base::NamedSafe`]): `Some` when
    /// that acceptor's promise reported exactly that cstruct, which it
    /// therefore holds — as its own, or as the copy its promise reported.
    /// The hosting process picks each destination's base with this; every
    /// other destination, and every later answer, gets the base whole.
    pub fn names_base_to(&self, acceptor: usize) -> Option<u64> {
        let safe = self.rebased.as_ref()?;
        self.holders.contains(&acceptor).then(|| safe.digest())
    }

    /// The local acceptor advanced past the current instance: the close
    /// (if any) completed; drain what queued up meanwhile.
    ///
    /// Past the instance of the last round, not up to it: a local
    /// acceptor that was behind the instance this leader proposes in
    /// (the leader caught up through a Phase1b or a `Stale`, its replica
    /// has not yet) moves when it adopts the leader's own snapshot, and
    /// the round is as open as it was — the window still has to reach
    /// the acceptors that asked for it, the close is still out.
    pub fn on_advance(&mut self, snapshot: RecordSnapshot) -> Vec<LeaderAction> {
        if snapshot.version <= self.round_in {
            return Vec::new();
        }
        if snapshot.version > self.snapshot.version {
            self.snapshot = snapshot;
        }
        self.window.clear();
        self.rebased = None;
        self.closing = false;
        // The next instance starts empty everywhere.
        self.extends = self.extends.map(|_| CStruct::EMPTY_TRACE_DIGEST);
        match self.phase {
            Phase::Retiring { .. } => {
                // Fast mode reopened: hand queued options back to their
                // coordinators for direct proposals.
                self.phase = Phase::Idle;
                self.extends = None;
                self.queue
                    .drain(..)
                    .map(LeaderAction::RedirectFast)
                    .collect()
            }
            Phase::Leading { ballot } => self.drain_queue(ballot),
            _ => Vec::new(),
        }
    }

    /// Appends queued options to the open instance until it starts
    /// closing (the rest wait for the next one).
    fn drain_queue(&mut self, ballot: Ballot) -> Vec<LeaderAction> {
        let mut actions = Vec::new();
        while !self.closing {
            let Some(opt) = self.queue.pop_front() else {
                break;
            };
            actions.extend(self.append(ballot, opt));
        }
        actions
    }

    /// A Phase2a was nacked: our ballot lost. Re-establish with a higher
    /// one if there is still work to do — once per lost ballot. One
    /// rejected Phase2a comes back as up to `n` Nacks, the local one at
    /// once and the remote ones a round trip later; those that name a
    /// ballot the one now being led or established already reaches are
    /// about a ballot this leader has left behind, and reacting to them
    /// would throw away the Phase 1 in flight for one a round higher.
    /// An acceptor that refuses the base of a ballot assumed from a
    /// lease ("you skipped Phase 1 here") names the ballot after it
    /// ([`crate::AcceptorRecord::refuses_base`]), so that is news once,
    /// and falls back to Phase 1.
    pub fn on_nack(&mut self, promised: Ballot) -> Vec<LeaderAction> {
        self.observe_ballot(promised);
        let stale = match self.phase {
            Phase::Establishing { ballot, .. } | Phase::Leading { ballot } => promised <= ballot,
            Phase::Idle | Phase::Retiring { .. } => false,
        };
        if stale {
            return Vec::new();
        }
        self.abandon_ballot();
        if self.recovery_requested || !self.queue.is_empty() {
            self.establish()
        } else {
            Vec::new()
        }
    }

    /// Gives up the current ballot: un-decided window options go back
    /// to the queue for re-proposal under the next one.
    fn abandon_ballot(&mut self) {
        for opt in self.window.drain(..).rev() {
            if self.queue.iter().all(|o| o.txn != opt.txn) {
                self.queue.push_front(opt);
            }
        }
        self.phase = Phase::Idle;
        self.rebased = None;
        self.closing = false;
        self.extends = None;
    }

    /// An acceptor reported newer committed state than ours: catch up and
    /// replay the open window against the newer instance.
    ///
    /// That acceptor is past the instance the window was proposed in, so
    /// a close that was out for it has happened: the window goes into
    /// the newer instance as plain appends, and what queued behind the
    /// close follows. (Replayed with the close still on, it would close
    /// the newer instance at the acceptor that reported it — the one
    /// that holds none of the window pending — which then reports the
    /// next instance, and so on for as long as the window stands.)
    pub fn on_stale(&mut self, snapshot: RecordSnapshot) -> Vec<LeaderAction> {
        let newer = snapshot.version > self.snapshot.version;
        if newer {
            self.snapshot = snapshot;
            self.rebased = None;
            self.extends = self.extends.map(|_| CStruct::EMPTY_TRACE_DIGEST);
        }
        let Phase::Leading { ballot } = self.phase else {
            return Vec::new();
        };
        if newer {
            self.closing = false;
        }
        let mut actions = Vec::new();
        if !self.window.is_empty() {
            let window = self.window.clone();
            actions = self.broadcast(ballot, None, window, self.closing, None);
        }
        if newer {
            actions.extend(self.drain_queue(ballot));
        }
        actions
    }

    /// An acceptor could not use a Phase2a of `ballot`: it is behind the
    /// instance and the broadcast travels without the committed state
    /// ([`crate::AcceptorRecord::lacks_snapshot`]). While this leader
    /// still leads that ballot — `Leading`, or `Retiring` with the
    /// closing round out — the answer for that one acceptor is the
    /// instance so far as a single Phase2a: the snapshot, the base the
    /// ballot's stream started from, every option appended since, and
    /// the close and reopen the acceptor missed with them. It judges
    /// that as it judged a Phase2a that carried its snapshot along.
    ///
    /// `None` — the ask is stale — when this leader does not lead that
    /// ballot (it moved on, never led it, or retired and stepped aside)
    /// or holds no round to answer with: the window, the close and the
    /// base describe the instance of the last broadcast, and the
    /// snapshot has left it. Either [`Self::on_advance`] cleared them
    /// (the local acceptor closed the instance before the ask arrived)
    /// or a `Stale` taught a newer snapshot that nothing was replayed
    /// into; stamped with that snapshot, the old instance's options and
    /// close would land in an instance they were never proposed in. The
    /// hosting node then sends the acceptor its own replica's committed
    /// state, which is what it was missing.
    pub fn on_behind(&self, ballot: Ballot) -> Option<Phase2a> {
        let (Phase::Leading { ballot: led } | Phase::Retiring { ballot: led }) = self.phase else {
            return None;
        };
        if led != ballot || self.snapshot.version != self.round_in {
            return None;
        }
        let reopen = self.closing.then(|| self.reopen_ballot(led)).flatten();
        let (safe, window) = (self.rebased.clone(), self.window.clone());
        Some(Phase2a {
            snapshot: self.snapshot.clone().into(),
            ..self.build_phase2a(led, safe, window, self.closing, reopen)
        })
    }

    fn establish(&mut self) -> Vec<LeaderAction> {
        let ballot = self.max_seen.next_classic(self.self_id);
        self.max_seen = ballot;
        self.phase = Phase::Establishing {
            ballot,
            votes: BTreeMap::new(),
            named: None,
        };
        self.closing = false;
        vec![LeaderAction::Phase1a(ballot)]
    }

    /// Appends one option to the open instance with its own Phase2a —
    /// never waiting on earlier options (see the module docs on deadlock
    /// avoidance).
    fn append(&mut self, ballot: Ballot, opt: TxnOption) -> Vec<LeaderAction> {
        self.gamma_remaining = self.gamma_remaining.saturating_sub(1);
        self.window.push(opt.clone());
        let reopen = self.reopen_ballot(ballot);
        let cap_hit = self.window.len() >= self.cfg.max_instance_options;
        let close = reopen.is_some() || cap_hit;
        if close {
            self.closing = true;
        }
        if reopen.is_some() {
            self.phase = Phase::Retiring { ballot };
        }
        self.broadcast(ballot, None, vec![opt], close, reopen)
    }

    /// The fast ballot to reopen with, when γ is exhausted.
    fn reopen_ballot(&self, ballot: Ballot) -> Option<Ballot> {
        (self.cfg.allow_fast && self.gamma_remaining == 0).then(|| ballot.next_fast(self.self_id))
    }

    /// One Phase2a to every acceptor, in the leader's current instance.
    fn broadcast(
        &mut self,
        ballot: Ballot,
        safe: Option<CStruct>,
        new_options: Vec<TxnOption>,
        close_instance: bool,
        reopen_fast: Option<Ballot>,
    ) -> Vec<LeaderAction> {
        self.round_in = self.snapshot.version;
        let round = self.build_phase2a(ballot, safe, new_options, close_instance, reopen_fast);
        vec![LeaderAction::Phase2a(round)]
    }

    fn build_phase2a(
        &self,
        ballot: Ballot,
        safe: Option<CStruct>,
        new_options: Vec<TxnOption>,
        close_instance: bool,
        reopen_fast: Option<Ballot>,
    ) -> Phase2a {
        let base = match (safe, self.extends) {
            (Some(safe), _) => Base::ProvedSafe(safe),
            (None, Some(digest)) => Base::Digest(digest),
            (None, None) => Base::Held,
        };
        Phase2a {
            ballot,
            version: self.snapshot.version,
            snapshot: None,
            base,
            new_options,
            close_instance,
            reopen_fast,
        }
    }
}

/// The representative of `safe` a recovery round carries, and the
/// promisers of `relevant` that reported exactly it: of the non-empty
/// cstructs they reported with `safe`'s trace, the one most of them hold,
/// so that the round can name it to them by digest ([`Base::NamedSafe`]).
/// A cstruct is a trace and any representative of it is as safe as
/// another; ProvedSafe's own comes out in canonical order, which no
/// acceptor holds. `safe` as judged, held by nobody, when none reported
/// its trace — and when it is empty, which costs less whole than named.
fn carried(safe: CStruct, relevant: &[(usize, &Phase1b)]) -> (CStruct, Vec<usize>) {
    let reported: Vec<(usize, &CStruct)> = (relevant.iter())
        .filter_map(|(i, v)| Some((*i, &v.accepted.as_ref()?.1)))
        .filter(|(_, c)| !c.is_empty())
        .collect();
    let holders = |c: &CStruct| -> Vec<usize> {
        let same = reported.iter().filter(|(_, r)| r.digest() == c.digest());
        same.map(|(i, _)| *i).collect()
    };
    let candidates = reported.iter().map(|(_, c)| *c);
    let best = (candidates.filter(|c| c.equivalent(&safe))).max_by_key(|c| holders(c).len());
    match best {
        Some(c) => (c.clone(), holders(c)),
        None => (safe, Vec::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acceptor::{Committed, Reported};
    use crate::options::{OptionStatus, TxnOption};
    use crate::safe::tests::minority_at_an_assumed_ballot;
    use mdcc_common::{CommutativeUpdate, Key, Row, TableId, TxnId, UpdateOp, Version};

    fn cfg() -> LeaderConfig {
        LeaderConfig {
            n: 5,
            qc: 3,
            qf: 4,
            gamma: 3,
            allow_fast: true,
            max_instance_options: 32,
            name_base: false,
        }
    }

    fn key() -> Key {
        Key::new(TableId(0), "r")
    }

    fn txn(seq: u64) -> TxnId {
        TxnId::new(NodeId(7), seq)
    }

    fn comm_opt(seq: u64) -> TxnOption {
        TxnOption::solo(
            txn(seq),
            key(),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
        )
    }

    fn snapshot() -> RecordSnapshot {
        RecordSnapshot {
            version: Version(1),
            value: Some(Row::new().with("stock", 4)),
            folded: Vec::new(),
        }
    }

    /// The local acceptor closed the leader's instance and moved on.
    fn advance(l: &mut LeaderRecord) -> Vec<LeaderAction> {
        let next = l.snapshot.version.next();
        advance_to(l, next)
    }

    /// The local acceptor reached `version`.
    fn advance_to(l: &mut LeaderRecord, version: Version) -> Vec<LeaderAction> {
        l.on_advance(RecordSnapshot {
            version,
            ..snapshot()
        })
    }

    fn p1b(promised: Ballot, accepted: Option<(Ballot, CStruct)>) -> Phase1b {
        Phase1b {
            promised,
            accepted,
            snapshot: snapshot(),
        }
    }

    /// Drives a leader through establishment, returning its ballot.
    fn establish(l: &mut LeaderRecord) -> Ballot {
        let actions = l.start_recovery();
        let LeaderAction::Phase1a(b) = actions[0] else {
            panic!("expected phase1a");
        };
        l.on_phase1b(0, p1b(b, None).into());
        l.on_phase1b(1, p1b(b, None).into());
        let actions = l.on_phase1b(2, p1b(b, None).into());
        assert!(matches!(actions[0], LeaderAction::Phase2a(_)));
        assert!(l.is_leading() || matches!(l.phase, Phase::Retiring { .. }));
        b
    }

    #[test]
    fn recovery_runs_phase1_then_closing_phase2() {
        let mut l = LeaderRecord::new(cfg(), NodeId(1), snapshot());
        let actions = l.start_recovery();
        let LeaderAction::Phase1a(b) = &actions[0] else {
            panic!("expected phase1a");
        };
        assert!(!b.is_fast());
        assert!(l.on_phase1b(0, p1b(*b, None).into()).is_empty());
        assert!(l.on_phase1b(1, p1b(*b, None).into()).is_empty());
        let actions = l.on_phase1b(2, p1b(*b, None).into());
        let LeaderAction::Phase2a(p2a) = &actions[0] else {
            panic!("expected phase2a");
        };
        assert!(p2a.close_instance, "recovery closes and re-bases");
        assert!(
            matches!(p2a.base, Base::ProvedSafe(_)),
            "recovery adopts the proved-safe cstruct"
        );
        assert!(l.is_leading());
        assert!(l.closing, "close outstanding");
    }

    /// The digest of a non-empty cstruct, standing for "what the
    /// holder's local replica holds".
    fn warm_base() -> u64 {
        let mut c = CStruct::new();
        c.append(comm_opt(90), OptionStatus::Accepted);
        c.trace_digest()
    }

    #[test]
    fn assumed_leadership_appends_without_phase1() {
        // Lease-carried Phase1: a lease holder goes straight to Leading
        // and its first enqueue emits a Phase2a, no Phase1a round — on a
        // warm record too: the append names the cstruct it extends.
        let mut l = LeaderRecord::new(cfg(), NodeId(2), snapshot());
        let lease = Ballot::lease(3, NodeId(2));
        assert!(l.assume_leadership(lease, warm_base()));
        assert!(l.is_leading());
        let actions = l.enqueue(comm_opt(1));
        let LeaderAction::Phase2a(p2a) = &actions[0] else {
            panic!("expected immediate phase2a, got {actions:?}");
        };
        assert_eq!(p2a.ballot, lease);
        assert!(
            matches!(p2a.base, Base::Digest(d) if d == warm_base()),
            "compare-and-append, no recovery cstruct"
        );
        assert!(!actions
            .iter()
            .any(|a| matches!(a, LeaderAction::Phase1a(_))));
        // Every append of the ballot names the base until the instance
        // advances; the next instance starts empty everywhere.
        let LeaderAction::Phase2a(second) = &l.enqueue(comm_opt(2))[0] else {
            panic!("expected a second append");
        };
        assert!(matches!(second.base, Base::Digest(d) if d == warm_base()));
        advance(&mut l);
        let LeaderAction::Phase2a(third) = &l.enqueue(comm_opt(3))[0] else {
            panic!("expected a third append");
        };
        assert!(matches!(third.base, Base::Digest(d) if d == CStruct::EMPTY_TRACE_DIGEST));
    }

    #[test]
    fn assume_leadership_defers_to_contested_records() {
        let mut l = LeaderRecord::new(cfg(), NodeId(2), snapshot());
        // A ballot of a later tenure was seen: the lease ballot is
        // contested and the holder must fall back to classic Phase1.
        l.observe_ballot(Ballot::lease(7, NodeId(4)));
        assert!(!l.assume_leadership(Ballot::lease(3, NodeId(2)), warm_base()));
        assert!(!l.is_leading());
        // Fast ballots never carry leadership.
        assert!(!l.assume_leadership(Ballot::fast(u32::MAX, NodeId(2)), warm_base()));
        // Established leaders are not re-entered.
        let mut busy = LeaderRecord::new(cfg(), NodeId(2), snapshot());
        establish(&mut busy);
        assert!(!busy.assume_leadership(Ballot::lease(9, NodeId(2)), warm_base()));
        // An election number that no longer fits the ballot saturates,
        // stops ordering tenures, and is refused: explicit Phase 1.
        let mut fresh = LeaderRecord::new(cfg(), NodeId(2), snapshot());
        let over = Ballot::lease(Ballot::MAX_TENURE + 5, NodeId(2));
        assert!(!fresh.assume_leadership(over, warm_base()));
        let actions = fresh.enqueue(comm_opt(1));
        assert!(matches!(actions[0], LeaderAction::Phase1a(_)));
    }

    #[test]
    fn a_stale_nack_leaves_the_phase1_in_flight_alone() {
        // One rejected Phase2a returns up to five Nacks. The first makes
        // the leader establish a higher ballot; the other four name a
        // promise that ballot already clears and must change nothing.
        let mut l = LeaderRecord::new(cfg(), NodeId(1), snapshot());
        let b = establish(&mut l);
        advance(&mut l);
        let _ = l.enqueue(comm_opt(1));
        let foreign = Ballot::classic(b.round + 5, NodeId(9));
        let actions = l.on_nack(foreign);
        let LeaderAction::Phase1a(b2) = actions[0] else {
            panic!("expected re-establishment")
        };
        assert!(b2 > foreign);
        l.on_phase1b(0, p1b(b2, None).into());
        for _ in 0..4 {
            assert!(l.on_nack(foreign).is_empty(), "stale nack must be ignored");
            assert!(l.on_nack(b2).is_empty(), "our own ballot is no news");
        }
        assert!(
            matches!(&l.phase, Phase::Establishing { ballot, votes, .. } if *ballot == b2 && votes.len() == 1),
            "the Phase 1 in flight survives, promises included: {:?}",
            l.phase
        );
        // A promise above the ballot being established is news.
        let higher = Ballot::classic(b2.round + 1, NodeId(9));
        assert!(matches!(l.on_nack(higher)[0], LeaderAction::Phase1a(b3) if b3 > higher));
        // And a leader is not unseated by a Nack about a ballot below
        // the one it leads (a straggler from before it re-established).
        let mut led = LeaderRecord::new(cfg(), NodeId(1), snapshot());
        let b = establish(&mut led);
        advance(&mut led);
        assert!(led
            .on_nack(Ballot::classic(b.round - 1, NodeId(9)))
            .is_empty());
        assert!(led.on_nack(b).is_empty(), "nor by one that names its own");
        assert!(led.is_leading());
    }

    #[test]
    fn a_refused_base_falls_back_to_phase1() {
        // An acceptor that does not hold the base of an assumed ballot
        // Nacks with the ballot after it: "you skipped Phase 1 here".
        let mut l = LeaderRecord::new(cfg(), NodeId(2), snapshot());
        let lease = Ballot::lease(3, NodeId(2));
        assert!(l.assume_leadership(lease, warm_base()));
        let _ = l.enqueue(comm_opt(1));
        // A Nack that merely names the led ballot is a straggler about
        // an older one — the acceptor promised *this* leader — not news.
        assert!(l.on_nack(lease).is_empty());
        assert!(l.is_leading());
        let refusal = lease.next_classic(NodeId(2));
        let actions = l.on_nack(refusal);
        let LeaderAction::Phase1a(b) = actions[0] else {
            panic!("expected Phase 1, got {actions:?}")
        };
        assert!(b > lease);
        assert_eq!(b.tenure(), 3, "raised inside the tenure");
        assert_eq!(l.queue.len(), 1, "the append is re-proposed");
        // The other acceptors' refusals arrive a round trip later.
        assert!(l.on_nack(refusal).is_empty(), "once per lost ballot");
        // The ballot Phase 1 establishes re-bases every acceptor: no
        // base digest any more.
        l.on_phase1b(0, p1b(b, None).into());
        l.on_phase1b(1, p1b(b, None).into());
        let actions = l.on_phase1b(2, p1b(b, None).into());
        assert!(
            matches!(&actions[0], LeaderAction::Phase2a(p) if matches!(p.base, Base::ProvedSafe(_)))
        );
        advance(&mut l);
        assert!(
            matches!(&l.enqueue(comm_opt(2))[0], LeaderAction::Phase2a(p) if matches!(p.base, Base::Held))
        );
    }

    #[test]
    fn where_leaders_change_with_a_lease_established_ballots_name_their_base_too() {
        let mut c = cfg();
        c.name_base = true;
        let mut l = LeaderRecord::new(c, NodeId(2), snapshot());
        let LeaderAction::Phase1a(b) = l.enqueue(comm_opt(5))[0] else {
            panic!("expected phase1a")
        };
        let mut held = CStruct::new();
        held.append(comm_opt(90), OptionStatus::Accepted);
        let old = Ballot::classic(b.round - 1, NodeId(9));
        l.on_phase1b(0, p1b(b, Some((old, held.clone()))).into());
        l.on_phase1b(1, p1b(b, Some((old, held))).into());
        let recovery = l.on_phase1b(2, p1b(b, None).into());
        assert!(
            matches!(&recovery[0], LeaderAction::Phase2a(p) if matches!(p.base, Base::ProvedSafe(_)))
        );
        // Replayed inside the recovery round's instance, the window
        // extends the proved-safe cstruct; after it, nothing.
        let LeaderAction::Phase2a(replay) = &l.on_stale(snapshot())[0] else {
            panic!("expected a replay")
        };
        assert_eq!(replay.new_options[0].txn, txn(5));
        assert!(matches!(replay.base, Base::Digest(d) if d == warm_base()));
        let _ = advance(&mut l);
        let LeaderAction::Phase2a(p) = &l.enqueue(comm_opt(1))[0] else {
            panic!("expected an append")
        };
        assert!(matches!(p.base, Base::Digest(d) if d == CStruct::EMPTY_TRACE_DIGEST));
    }

    #[test]
    fn a_deposed_leader_steps_down_before_the_lease_returns() {
        // Tenure 3 here, tenure 4 elsewhere, tenure 5 here again: the
        // leader left Leading at tenure 3's ballot was never told.
        let mut l = LeaderRecord::new(cfg(), NodeId(2), snapshot());
        let old = Ballot::lease(3, NodeId(2));
        assert!(l.assume_leadership(old, warm_base()));
        let _ = l.enqueue(comm_opt(1));
        let new = Ballot::lease(5, NodeId(2));
        assert!(!l.assume_leadership(new, warm_base()), "still Leading");
        l.step_down(new, |_| false);
        assert!(!l.is_leading());
        assert!(matches!(l.phase, Phase::Idle));
        assert_eq!(l.queue.len(), 1, "the window went back to the queue");
        assert!(l.assume_leadership(new, warm_base()));
        // Nothing is ever sent at the old ballot again: the re-queued
        // option goes out ahead of the next one, both at the new ballot.
        let actions = l.enqueue(comm_opt(2));
        let sent: Vec<TxnId> = actions
            .iter()
            .map(|action| match action {
                LeaderAction::Phase2a(p) if p.ballot == new => p.new_options[0].txn,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(sent, [txn(1), txn(2)]);
        // Stepping down is only for ballots below the lease, and only
        // what is still unresolved is carried over.
        l.step_down(new, |_| false);
        assert!(l.is_leading());
        l.step_down(Ballot::lease(6, NodeId(2)), |o| o.txn == txn(1));
        assert_eq!(l.queue.len(), 1);
        assert_eq!(l.queue[0].txn, txn(2));
    }

    #[test]
    fn quiescent_means_nothing_in_flight_and_nothing_waiting() {
        let mut l = LeaderRecord::new(cfg(), NodeId(2), snapshot());
        assert!(l.is_quiescent(|_| false), "idle and empty");
        assert!(l.assume_leadership(Ballot::lease(3, NodeId(2)), warm_base()));
        let _ = l.enqueue(comm_opt(1));
        assert!(!l.is_quiescent(|_| false), "an append is in flight");
        assert!(l.is_quiescent(|o| o.txn == txn(1)), "its outcome is known");
        let _ = l.start_recovery();
        assert!(!l.is_quiescent(|_| true), "a close round is in flight");
    }

    #[test]
    fn appends_flow_without_waiting_for_resolution() {
        // The §3.2.2 deadlock-avoidance shape: the leader must emit a
        // Phase2a per option immediately, not serialize on visibility.
        let mut l = LeaderRecord::new(cfg(), NodeId(1), snapshot());
        establish(&mut l);
        advance(&mut l); // recovery close done
        let a1 = l.enqueue(comm_opt(1));
        let a2 = l.enqueue(comm_opt(2));
        let LeaderAction::Phase2a(p1) = &a1[0] else {
            panic!()
        };
        let LeaderAction::Phase2a(p2) = &a2[0] else {
            panic!()
        };
        assert!(
            matches!(p1.base, Base::Held),
            "appends never overwrite the cstruct"
        );
        assert!(!p1.close_instance);
        assert_eq!(p1.new_options[0].txn, txn(1));
        assert_eq!(p2.new_options[0].txn, txn(2));
    }

    #[test]
    fn gamma_expiry_closes_and_reopens_fast() {
        let mut l = LeaderRecord::new(cfg(), NodeId(1), snapshot());
        establish(&mut l);
        advance(&mut l);
        // γ = 3: the third appended option carries close + reopen.
        let a1 = l.enqueue(comm_opt(1));
        let a2 = l.enqueue(comm_opt(2));
        let a3 = l.enqueue(comm_opt(3));
        let get = |a: &Vec<LeaderAction>| match &a[0] {
            LeaderAction::Phase2a(p) => p.clone(),
            other => panic!("unexpected {other:?}"),
        };
        assert!(get(&a1).reopen_fast.is_none());
        assert!(get(&a2).reopen_fast.is_none());
        let p3 = get(&a3);
        assert!(p3.reopen_fast.is_some(), "γ exhausted reopens fast");
        assert!(p3.close_instance);
        // Retiring: new proposals queue and bounce back on advance.
        assert!(l.enqueue(comm_opt(4)).is_empty());
        let bounced = advance(&mut l);
        assert!(matches!(&bounced[0], LeaderAction::RedirectFast(o) if o.txn == txn(4)));
        assert!(!l.is_leading());
    }

    #[test]
    fn multi_configuration_never_reopens_fast() {
        let mut c = cfg();
        c.allow_fast = false;
        let mut l = LeaderRecord::new(c, NodeId(1), snapshot());
        establish(&mut l);
        advance(&mut l);
        for seq in 1..10 {
            let actions = l.enqueue(comm_opt(seq));
            let LeaderAction::Phase2a(p) = &actions[0] else {
                panic!()
            };
            assert!(p.reopen_fast.is_none());
        }
        assert!(l.is_leading(), "stays leader forever");
    }

    #[test]
    fn cap_closes_the_instance_and_queues_new_options() {
        let mut c = cfg();
        c.gamma = 1_000;
        c.max_instance_options = 2;
        let mut l = LeaderRecord::new(c, NodeId(1), snapshot());
        establish(&mut l);
        advance(&mut l);
        let _ = l.enqueue(comm_opt(1));
        let a2 = l.enqueue(comm_opt(2));
        let LeaderAction::Phase2a(p2) = &a2[0] else {
            panic!()
        };
        assert!(p2.close_instance, "cap hit closes the instance");
        // While closing, new proposals queue.
        assert!(l.enqueue(comm_opt(3)).is_empty());
        assert_eq!(l.queue.len(), 1);
        // The advance drains the queue into the fresh instance.
        let drained = advance(&mut l);
        assert!(matches!(&drained[0], LeaderAction::Phase2a(p) if p.new_options[0].txn == txn(3)));
    }

    #[test]
    fn recovery_while_leading_closes_without_phase1() {
        let mut c = cfg();
        c.gamma = 1_000;
        let mut l = LeaderRecord::new(c, NodeId(1), snapshot());
        establish(&mut l);
        advance(&mut l);
        let _ = l.enqueue(comm_opt(1));
        let actions = l.start_recovery();
        let LeaderAction::Phase2a(p) = &actions[0] else {
            panic!("expected a close round, got {actions:?}")
        };
        assert!(p.close_instance);
        assert!(p.new_options.is_empty());
        // A second request while closing is absorbed.
        assert!(l.start_recovery().is_empty());
    }

    #[test]
    fn nack_requeues_window_and_re_establishes() {
        let mut l = LeaderRecord::new(cfg(), NodeId(1), snapshot());
        let b = establish(&mut l);
        advance(&mut l);
        let _ = l.enqueue(comm_opt(1));
        let foreign = Ballot::classic(b.round + 5, NodeId(9));
        let actions = l.on_nack(foreign);
        let LeaderAction::Phase1a(b2) = actions[0] else {
            panic!("expected re-establishment")
        };
        assert!(b2 > foreign);
        assert_eq!(l.queue.len(), 1, "window option went back to the queue");
    }

    #[test]
    fn stale_snapshot_replays_the_window() {
        let mut c = cfg();
        c.gamma = 1_000;
        let mut l = LeaderRecord::new(c, NodeId(1), snapshot());
        establish(&mut l);
        advance(&mut l);
        let _ = l.enqueue(comm_opt(1));
        let newer = RecordSnapshot {
            version: Version(5),
            value: Some(Row::new().with("stock", 2)),
            folded: Vec::new(),
        };
        let actions = l.on_stale(newer);
        let LeaderAction::Phase2a(p) = &actions[0] else {
            panic!()
        };
        assert_eq!(p.version, Version(5));
        assert_eq!(p.new_options.len(), 1);
    }

    #[test]
    fn broadcasts_travel_lean_and_a_behind_acceptor_is_answered_while_leading() {
        let mut c = cfg();
        c.gamma = 1_000;
        let mut l = LeaderRecord::new(c, NodeId(1), snapshot());
        let b = establish(&mut l);
        // The recovery round is still closing: one that was behind joins
        // from the proved-safe cstruct like the others.
        let answer = l.on_behind(b).expect("the closing round is in flight");
        assert!(matches!(answer.base, Base::ProvedSafe(_)));
        assert!(answer.close_instance && answer.new_options.is_empty());
        advance(&mut l);
        let sent: Vec<Phase2a> = [comm_opt(1), comm_opt(2)]
            .into_iter()
            .map(|opt| match &l.enqueue(opt)[0] {
                LeaderAction::Phase2a(p) => p.clone(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert!(sent.iter().all(|p| p.snapshot.is_none()), "lean broadcast");
        // The answer is the instance so far in one Phase2a, with the
        // committed state to catch up from.
        let answer = l.on_behind(b).expect("leading with a window");
        assert_eq!(answer.snapshot, Some(l.snapshot.clone()));
        assert_eq!((answer.ballot, answer.version), (b, sent[1].version));
        assert_eq!(answer.new_options, [comm_opt(1), comm_opt(2)]);
        assert!(matches!(answer.base, Base::Held));
        assert!(!answer.close_instance && answer.reopen_fast.is_none());
    }

    #[test]
    fn a_behind_acceptor_is_answered_while_retiring() {
        // γ = 3: the third append closes and reopens fast; the leader is
        // Retiring and still holds the window the acceptor missed.
        let mut l = LeaderRecord::new(cfg(), NodeId(1), snapshot());
        let b = establish(&mut l);
        advance(&mut l);
        for seq in 1..=2 {
            let _ = l.enqueue(comm_opt(seq));
        }
        let LeaderAction::Phase2a(last) = &l.enqueue(comm_opt(3))[0] else {
            panic!("expected the closing append")
        };
        assert!(matches!(l.phase, Phase::Retiring { .. }));
        let answer = l.on_behind(b).expect("retiring with the close in flight");
        assert_eq!(answer.snapshot, Some(l.snapshot.clone()));
        assert_eq!(answer.new_options.len(), 3);
        assert!(answer.close_instance, "the close it missed");
        assert_eq!(answer.reopen_fast, last.reopen_fast, "and the reopen");
        assert!(answer.reopen_fast.is_some());
    }

    #[test]
    fn a_local_acceptor_catching_up_is_no_advance() {
        // The leader learned of instance 5 from a promise; its own
        // replica is still in instance 1 and moves when it adopts the
        // leader's snapshot. The recovery round is as open as it was:
        // the window, the close and the base all still stand.
        let mut c = cfg();
        c.gamma = 1_000;
        let mut l = LeaderRecord::new(c, NodeId(1), snapshot());
        let LeaderAction::Phase1a(b) = l.enqueue(comm_opt(1))[0] else {
            panic!("expected phase 1")
        };
        let ahead = Phase1b {
            snapshot: RecordSnapshot {
                version: Version(5),
                ..snapshot()
            },
            ..p1b(b, None)
        };
        l.on_phase1b(0, ahead.clone().into());
        l.on_phase1b(1, ahead.clone().into());
        let sent = l.on_phase1b(2, ahead.clone().into());
        assert!(matches!(&sent[0], LeaderAction::Phase2a(p) if p.version == Version(5)));
        assert!(l.on_advance(ahead.snapshot.clone()).is_empty());
        let answer = l.on_behind(b).expect("the round is still out");
        assert_eq!(answer.new_options, [comm_opt(1)]);
        assert!(answer.close_instance && matches!(answer.base, Base::ProvedSafe(_)));
        // The instance after it is an advance: the round is over.
        advance(&mut l);
        assert!(l.on_behind(b).is_none());
    }

    #[test]
    fn an_advance_is_measured_against_the_round_not_against_what_a_stale_taught() {
        // γ = 3: the third append retires the leader, in instance 2. An
        // acceptor far ahead says `Stale`; a retiring leader replays
        // nothing, so its last round is still the one in instance 2, and
        // its own replica closing that instance is the advance it waits
        // for — although the replica has not reached what the leader
        // now knows of.
        let mut l = LeaderRecord::new(cfg(), NodeId(1), snapshot());
        establish(&mut l);
        advance(&mut l);
        for seq in 1..=3 {
            let _ = l.enqueue(comm_opt(seq));
        }
        assert!(matches!(l.phase, Phase::Retiring { .. }));
        assert!(l.enqueue(comm_opt(4)).is_empty(), "queued behind the close");
        let newer = RecordSnapshot {
            version: Version(7),
            ..snapshot()
        };
        assert!(l.on_stale(newer).is_empty());
        let bounced = advance_to(&mut l, Version(3));
        assert!(matches!(&bounced[..], [LeaderAction::RedirectFast(o)] if o.txn == txn(4)));
        assert!(matches!(l.phase, Phase::Idle));
    }

    #[test]
    fn a_newer_stale_ends_the_close_it_overtook() {
        // A close is out in instance 1 with an option in the window; an
        // acceptor past that instance says so. The window is replayed in
        // its instance as an append — closing there again would close it
        // at that acceptor alone, which would report the next one, and
        // so on — and what queued behind the close follows.
        let mut c = cfg();
        c.gamma = 1_000;
        let mut l = LeaderRecord::new(c, NodeId(1), snapshot());
        establish(&mut l);
        advance(&mut l);
        let _ = l.enqueue(comm_opt(1));
        let _ = l.start_recovery();
        assert!(l.enqueue(comm_opt(2)).is_empty(), "queued behind the close");
        let newer = RecordSnapshot {
            version: Version(5),
            ..snapshot()
        };
        let sent = l.on_stale(newer.clone());
        let rounds: Vec<&Phase2a> = sent
            .iter()
            .map(|action| match action {
                LeaderAction::Phase2a(p) => p,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(rounds.len(), 2, "the replay, then what was queued");
        assert!(rounds
            .iter()
            .all(|p| p.version == Version(5) && !p.close_instance));
        assert_eq!(rounds[0].new_options, [comm_opt(1)]);
        assert_eq!(rounds[1].new_options, [comm_opt(2)]);
        // The same report again replays the window and nothing else.
        assert_eq!(l.on_stale(newer).len(), 1);
    }

    #[test]
    fn a_stale_ask_is_ignored() {
        let mut l = LeaderRecord::new(cfg(), NodeId(1), snapshot());
        assert!(l.on_behind(Ballot::classic(1, NodeId(1))).is_none(), "idle");
        let b = establish(&mut l);
        advance(&mut l);
        let _ = l.enqueue(comm_opt(1));
        // About a ballot this leader has left behind, or never led.
        assert!(l
            .on_behind(Ballot::classic(b.round - 1, NodeId(1)))
            .is_none());
        assert!(l.on_behind(Ballot::classic(b.round, NodeId(9))).is_none());
        assert!(l.on_behind(b).is_some());
        // γ = 3: the third append retires the leader; once the instance
        // advanced the record is fast again, the window is gone and the
        // leader has stepped aside.
        let _ = l.enqueue(comm_opt(2));
        let _ = l.enqueue(comm_opt(3));
        assert!(l.on_behind(b).is_some(), "retiring");
        advance(&mut l);
        assert!(l.on_behind(b).is_none(), "retired");
        // Establishing leads nothing yet.
        let LeaderAction::Phase1a(b2) = l.enqueue(comm_opt(4))[0] else {
            panic!("expected phase 1")
        };
        assert!(l.on_behind(b).is_none() && l.on_behind(b2).is_none());
    }

    #[test]
    fn an_ask_after_the_advance_cleared_the_window_is_ignored() {
        // The local acceptor closed an empty instance at once and the
        // leader moved on: there is no round left to answer with (the
        // hosting node sends the acceptor its replica's state), until
        // the next broadcast opens one in the new instance.
        let mut c = cfg();
        c.gamma = 1_000;
        let mut l = LeaderRecord::new(c, NodeId(1), snapshot());
        let b = establish(&mut l);
        assert!(l.on_behind(b).is_some(), "the closing round is out");
        advance(&mut l);
        assert!(l.is_leading() && l.on_behind(b).is_none());
        let _ = l.enqueue(comm_opt(1));
        let answer = l.on_behind(b).expect("a round in the new instance");
        assert_eq!(answer.version, Version(2));
        assert_eq!(answer.snapshot, Some(l.snapshot.clone()));
        assert_eq!(answer.new_options, [comm_opt(1)]);
        assert!(matches!(answer.base, Base::Held) && !answer.close_instance);
    }

    #[test]
    fn a_retiring_leader_a_stale_taught_a_newer_snapshot_does_not_answer() {
        // γ = 3: the third append retires the leader with its window and
        // close out in instance 2. A `Stale` teaches it instance 7 and a
        // retiring leader replays nothing, so the window, the close and
        // the reopen still describe instance 2: stamped with snapshot 7
        // they would append decided options, close and reopen there.
        let mut l = LeaderRecord::new(cfg(), NodeId(1), snapshot());
        let b = establish(&mut l);
        advance(&mut l);
        for seq in 1..=3 {
            let _ = l.enqueue(comm_opt(seq));
        }
        assert!(matches!(l.phase, Phase::Retiring { .. }));
        assert!(l.on_behind(b).is_some_and(|p| p.version == Version(2)));
        let newer = RecordSnapshot {
            version: Version(7),
            ..snapshot()
        };
        assert!(l.on_stale(newer).is_empty());
        assert!(matches!(l.phase, Phase::Retiring { .. }));
        assert!(l.on_behind(b).is_none());
    }

    #[test]
    fn higher_promise_restarts_with_higher_ballot() {
        let mut l = LeaderRecord::new(cfg(), NodeId(1), snapshot());
        let actions = l.start_recovery();
        let LeaderAction::Phase1a(b1) = actions[0] else {
            panic!()
        };
        let foreign = Ballot::classic(b1.round + 3, NodeId(9));
        let actions = l.on_phase1b(0, p1b(foreign, None).into());
        let LeaderAction::Phase1a(b2) = actions[0] else {
            panic!("expected a retry")
        };
        assert!(b2 > foreign);
    }

    #[test]
    fn enqueue_dedupes_by_txn() {
        let mut l = LeaderRecord::new(cfg(), NodeId(1), snapshot());
        establish(&mut l);
        advance(&mut l);
        let a1 = l.enqueue(comm_opt(1));
        assert_eq!(a1.len(), 1);
        let a2 = l.enqueue(comm_opt(1));
        assert!(a2.is_empty(), "duplicate of an open-window option");
    }

    #[test]
    fn phase1_keeps_collecting_until_an_assumed_ballot_is_judged() {
        let (_, _, a, r) = minority_at_an_assumed_ballot();
        let mut l = LeaderRecord::new(cfg(), NodeId(0), snapshot());
        l.observe_ballot(a.accepted.as_ref().expect("accepted").0);
        let LeaderAction::Phase1a(b) = l.start_recovery()[0] else {
            panic!("expected phase1a")
        };
        let at = |v: &Phase1b| Phase1b {
            promised: b,
            ..v.clone()
        };
        assert!(l.on_phase1b(0, at(&a).into()).is_empty());
        assert!(l.on_phase1b(2, at(&r).into()).is_empty());
        assert!(
            l.on_phase1b(3, at(&r).into()).is_empty(),
            "a quorum, unjudged"
        );
        assert!(!l.is_leading());
        // Whoever asks meanwhile makes the leader ask again, at the same
        // ballot: the promise it lacks may have been lost.
        assert!(matches!(l.start_recovery()[..], [LeaderAction::Phase1a(again)] if again == b));
        let actions = l.on_phase1b(4, at(&r).into());
        let LeaderAction::Phase2a(p) = &actions[0] else {
            panic!("expected the recovery round, got {actions:?}")
        };
        let Base::ProvedSafe(safe) = &p.base else {
            panic!("expected a proved-safe cstruct")
        };
        assert_eq!(safe.status_of(txn(5)), Some(OptionStatus::Accepted));
        assert_eq!(safe.status_of(txn(6)), None);
    }

    /// Accepted decrements `seqs`, in that order.
    fn decs(seqs: &[u64]) -> CStruct {
        let mut c = CStruct::new();
        for seq in seqs {
            c.append(comm_opt(*seq), OptionStatus::Accepted);
        }
        c
    }

    #[test]
    fn promises_leave_out_the_named_cstruct_and_the_round_names_it_back() {
        // The leader's replica holds 2 then 1; so do two promisers. The
        // third holds the same value in the other order.
        let (held, reordered) = (decs(&[2, 1]), decs(&[1, 2]));
        let mut l = LeaderRecord::new(cfg(), NodeId(1), snapshot());
        let LeaderAction::Phase1a(b) = l.start_recovery()[0] else {
            panic!("expected phase1a")
        };
        let named = l.phase1a(b, Some((Version(1), held.clone())));
        assert_eq!((named.ballot, named.version), (b, Version(1)));
        assert_eq!(named.digest, held.digest());
        // A replica in another instance names nothing but the empty one.
        let mut other = l.clone();
        let elsewhere = other.phase1a(b, Some((Version(2), held.clone())));
        assert_eq!(elsewhere.digest, CStruct::EMPTY_TRACE_DIGEST);
        let old = Ballot::classic(b.round - 1, NodeId(9));
        let promise = |c: &CStruct| p1b(b, Some((old, c.clone()))).leave_out(&named);
        let lean = promise(&held);
        assert!(matches!(lean.accepted, Some((_, Reported::Named(d))) if d == held.digest()));
        assert!(matches!(lean.committed, Committed::Version(Version(1))));
        assert!(matches!(
            promise(&reordered).accepted,
            Some((_, Reported::Whole(_)))
        ));
        assert!(l.on_phase1b(0, promise(&held)).is_empty());
        assert!(l.on_phase1b(2, promise(&reordered)).is_empty());
        let LeaderAction::Phase2a(round) = &l.on_phase1b(3, promise(&held))[0] else {
            panic!("expected the recovery round")
        };
        // ProvedSafe's own representative is canonical (1 then 2); the
        // round carries the one two promisers hold, named to them.
        let Base::ProvedSafe(safe) = &round.base else {
            panic!("expected a proved-safe base")
        };
        assert!(safe.equivalent(&reordered));
        assert_eq!(safe.digest(), held.digest());
        let names: Vec<Option<u64>> = (0..5).map(|i| l.names_base_to(i)).collect();
        let d = Some(held.digest());
        assert_eq!(names, [d, None, None, d, None]);
        // Later answers and rounds carry it whole; once the instance
        // advances nothing is named.
        advance(&mut l);
        assert_eq!(l.names_base_to(0), None);
    }

    #[test]
    fn a_promise_that_leaves_out_what_was_not_named_is_dropped() {
        let held = decs(&[2, 1]);
        let mut l = LeaderRecord::new(cfg(), NodeId(1), snapshot());
        let LeaderAction::Phase1a(b) = l.start_recovery()[0] else {
            panic!("expected phase1a")
        };
        let named = l.phase1a(b, Some((Version(1), held.clone())));
        let old = Ballot::classic(b.round - 1, NodeId(9));
        let other = Phase1a {
            digest: decs(&[3]).digest(),
            ..named
        };
        let stray = p1b(b, Some((old, decs(&[3])))).leave_out(&other);
        for i in 0..3 {
            assert!(l.on_phase1b(i, stray.clone()).is_empty(), "dropped");
        }
        assert!(!l.is_leading());
        // Committed state newer than the named instance must travel.
        let mut newer = p1b(b, None).leave_out(&named);
        newer.committed = Committed::Version(Version(2));
        assert!(l.on_phase1b(0, newer).is_empty());
        // Whole promises still establish the ballot.
        for i in 0..2 {
            assert!(l.on_phase1b(i, p1b(b, None).into()).is_empty());
        }
        assert!(matches!(
            l.on_phase1b(2, p1b(b, None).into())[0],
            LeaderAction::Phase2a(_)
        ));
        assert_eq!(l.names_base_to(0), None, "an empty base goes whole");
    }
}
