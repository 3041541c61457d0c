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
//! re-bases every acceptor onto the proved-safe cstruct. Or the holder
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

use crate::acceptor::{Base, Phase1b, Phase2a, RecordSnapshot};
use crate::ballot::Ballot;
use crate::cstruct::CStruct;
use crate::options::TxnOption;
use crate::quorum::{mask_indices, subsets};

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
    /// Phase 1 in flight: collecting promises.
    Establishing {
        ballot: Ballot,
        votes: BTreeMap<usize, Phase1b>,
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
            Phase::Establishing { ballot, votes } if votes.len() >= self.cfg.qc => {
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

    /// Handles one Phase1b promise.
    pub fn on_phase1b(&mut self, from: usize, p1b: Phase1b) -> Vec<LeaderAction> {
        self.observe_ballot(p1b.promised);
        let Phase::Establishing { ballot, votes } = &mut self.phase else {
            return Vec::new();
        };
        let ballot = *ballot;
        if p1b.promised > ballot {
            // Someone outran us; retry with a higher ballot.
            self.phase = Phase::Idle;
            return self.establish();
        }
        if p1b.promised != ballot {
            return Vec::new();
        }
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

/// [`proved_safe`] for promises that may report at *assumed* ballots;
/// `None` when they cannot be judged yet and the leader must keep
/// collecting.
///
/// The rule takes whatever was accepted at the highest reported ballot
/// `k` to be safe at `k` — to extend everything chosen below. Phase 1
/// guarantees that for a ballot it established. A ballot assumed from a
/// lease ([`Ballot::is_lease`]) earns it only if a classic quorum joined
/// its stream from the leader's base
/// ([`crate::AcceptorRecord::refuses_base`] has the argument); what a
/// minority accepted there may sit on a base that misses a value chosen
/// below `k` through a quorum the minority does not intersect, and the
/// rule would take its word for it. With `K` the promisers that report
/// at `k` and `N` the others:
///
/// * `|K| ≥ qc` — the quorum joined, all from one base: the rule applies
///   as it stands.
/// * `|N| ≥ n − qc + 1` — they accepted nothing at `k` and, having
///   promised past it, never will: no quorum can form at `k`, nothing
///   was or will be chosen there. `N` meets every quorum, so whatever
///   was chosen below `k` one of `N` accepted: the answer is this
///   function's over `N` alone (the next assumed ballot down judged the
///   same way), and `K`'s reports are dropped.
/// * Neither: both worlds are possible. Either a quorum joins `k`, and
///   the rule's answer `S₁` over everyone is right; or none ever does,
///   and what was chosen below `k` was accepted by a member of `K` —
///   before it joined, so it is a prefix of the base and of `S₁` — or by
///   a member of `N`, and is a prefix of the answer `S₂` over `N`. If
///   `S₂ ⊑ S₁` (the others are merely behind), `S₁` is right in both
///   worlds. Otherwise no answer is: `None`.
///
/// Reports at `k` that contradict each other (acceptors validate
/// appends themselves; two that hold different pieces of the stream can
/// disagree about an option) are no answer either. And joining a later
/// assumed ballot overwrites the ballot an acceptor reports, so `K` can
/// hide who joined the next one down. Either way even `n` promises may
/// leave the ballots undecided. Then, though, every acceptor has promised
/// and nothing below can change any more: whatever was chosen, at any
/// ballot, is a prefix of what each member of some quorum holds, and the
/// lub over all quorums of the glb of what their members hold extends it
/// all ([`held_by_a_quorum`]). All `n` promises always settle it.
///
/// `responses` are the promises for the newest instance; `elsewhere`
/// counts promisers still in an older one, who accepted nothing in this
/// one.
pub fn judged_safe(
    responses: &[(usize, &Phase1b)],
    elsewhere: usize,
    n: usize,
    qc: usize,
    qf: usize,
) -> Option<CStruct> {
    let judged = judge(responses, elsewhere, n, qc, qf);
    if judged.is_none() && responses.len() + elsewhere == n {
        return held_by_a_quorum(responses, n, qc);
    }
    judged
}

fn judge(
    live: &[(usize, &Phase1b)],
    elsewhere: usize,
    n: usize,
    qc: usize,
    qf: usize,
) -> Option<CStruct> {
    let accepted_at = |r: &Phase1b| r.accepted.as_ref().map(|(b, _)| *b);
    let top = live.iter().filter_map(|(_, r)| accepted_at(r)).max();
    let Some(k) = top.filter(Ballot::is_lease) else {
        return Some(proved_safe(live, n, qc, qf));
    };
    let (at_k, others): (Vec<_>, Vec<_>) = live
        .iter()
        .copied()
        .partition(|(_, r)| accepted_at(r) == Some(k));
    // No fallback at an assumed ballot: reports there that contradict
    // each other are no answer either.
    let trusting_k = || possibly_chosen(live, n, qc, qf).ok();
    if at_k.len() >= qc {
        return trusting_k();
    }
    let without_k = judge(&others, elsewhere, n, qc, qf);
    if others.len() + elsewhere + qc > n {
        return without_k;
    }
    trusting_k().filter(|s1| without_k.is_some_and(|s2| s2.is_prefix_of(s1)))
}

/// What may have been chosen going by what acceptors hold, whatever the
/// ballots: for every classic quorum the glb of its members' cstructs
/// (an acceptor absent from `responses` holds nothing), and the lub of
/// those. Sound whenever a chosen value stays a prefix of what the
/// acceptors that accepted it hold; exact only when every acceptor
/// reports — with fewer it would adopt what a single one holds.
fn held_by_a_quorum(responses: &[(usize, &Phase1b)], n: usize, qc: usize) -> Option<CStruct> {
    let nothing = CStruct::new();
    let held = |i: usize| {
        let report = responses.iter().find(|(at, _)| *at == i);
        let accepted = report.and_then(|(_, r)| r.accepted.as_ref());
        accepted.map_or(&nothing, |(_, v)| v)
    };
    let gammas: Vec<CStruct> = subsets(n, qc)
        .into_iter()
        .map(|quorum| CStruct::glb_many(&mask_indices(quorum).map(held).collect::<Vec<_>>()))
        .collect();
    CStruct::lub_many(&gammas)
}

/// The ProvedSafe computation (Algorithm 2, lines 49–57): given Phase1b
/// responses from a classic quorum `Q`, find the cstruct that may have
/// been chosen at the highest accepted ballot `k` and must therefore be
/// proposed next.
///
/// For every potential `k`-quorum `R`, the value possibly chosen through
/// `R` is the glb of the cstructs reported by `Q ∩ R`; the safe cstruct is
/// the lub of those glbs. When no potential quorum is populated (`R = ∅`),
/// nothing was chosen and any reported value may be extended.
///
/// Takes what was accepted at `k` to be safe at `k`: promises that may
/// report at an assumed ballot go through [`judged_safe`].
pub fn proved_safe(responses: &[(usize, &Phase1b)], n: usize, qc: usize, qf: usize) -> CStruct {
    // ⊔Γ (line 57). The theory guarantees compatibility; fall back to the
    // largest γ defensively.
    possibly_chosen(responses, n, qc, qf).unwrap_or_else(|gammas| {
        debug_assert!(false, "incompatible gammas in ProvedSafe");
        gammas
            .into_iter()
            .max_by_key(|c| c.len())
            .unwrap_or_default()
    })
}

/// [`proved_safe`]'s answer, or the Γ it could not join: acceptors
/// validate appends themselves, so two that hold different pieces of one
/// leader's stream can disagree about an option.
fn possibly_chosen(
    responses: &[(usize, &Phase1b)],
    n: usize,
    qc: usize,
    qf: usize,
) -> Result<CStruct, Vec<CStruct>> {
    // k ≡ the highest ballot at which anything was accepted.
    let k = responses
        .iter()
        .filter_map(|(_, r)| r.accepted.as_ref().map(|(b, _)| *b))
        .max();
    let Some(k) = k else {
        return Ok(CStruct::new());
    };
    let at_k: BTreeMap<usize, &CStruct> = responses
        .iter()
        .filter_map(|(i, r)| match &r.accepted {
            Some((b, v)) if *b == k => Some((*i, v)),
            _ => None,
        })
        .collect();
    // ProvedSafe is relative to *a* classic quorum Q of promisers. Any
    // qc-subset of responders is valid; preferring acceptors that voted
    // at ballot k maximizes what can be proved safe — this choice is what
    // makes the §3.3.1 worked example land on v1→v2 rather than on the
    // (also safe, but less live) empty cstruct.
    let mut q_members: Vec<usize> = responses.iter().map(|(i, _)| *i).collect();
    q_members.sort_by_key(|i| (!at_k.contains_key(i), *i));
    q_members.truncate(qc.max(1));
    let k_size = if k.is_fast() { qf } else { qc };

    let mut gammas: Vec<CStruct> = Vec::new();
    for r_mask in subsets(n, k_size) {
        let overlap: Vec<usize> = mask_indices(r_mask)
            .filter(|i| q_members.contains(i))
            .collect();
        if overlap.is_empty() {
            // Q ∩ R = ∅: this R tells us nothing (and with valid quorum
            // configurations it cannot occur for classic Q).
            continue;
        }
        if !overlap.iter().all(|i| at_k.contains_key(i)) {
            // Some member of Q ∩ R reported no ballot-k value, so no value
            // was chosen through R.
            continue;
        }
        let members: Vec<&CStruct> = overlap.iter().map(|i| at_k[i]).collect();
        gammas.push(CStruct::glb_many(&members));
    }
    if gammas.is_empty() {
        // R = ∅ (line 54): nothing was possibly chosen; any reported value
        // is safe. Merge what we can for liveness.
        let mut acc = CStruct::new();
        for v in at_k.values() {
            if let Some(merged) = acc.lub(v) {
                acc = merged;
            }
        }
        return Ok(acc);
    }
    CStruct::lub_many(&gammas).ok_or(gammas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{OptionStatus, TxnOption};
    use mdcc_common::error::AbortReason;
    use mdcc_common::{
        CommutativeUpdate, Key, PhysicalUpdate, Row, TableId, TxnId, UpdateOp, Version,
    };

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

    fn phys_opt(seq: u64) -> TxnOption {
        TxnOption::solo(
            txn(seq),
            key(),
            UpdateOp::Physical(PhysicalUpdate::write(Version(1), Row::new())),
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
        l.on_phase1b(0, p1b(b, None));
        l.on_phase1b(1, p1b(b, None));
        let actions = l.on_phase1b(2, p1b(b, None));
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
        assert!(l.on_phase1b(0, p1b(*b, None)).is_empty());
        assert!(l.on_phase1b(1, p1b(*b, None)).is_empty());
        let actions = l.on_phase1b(2, p1b(*b, None));
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
        l.on_phase1b(0, p1b(b2, None));
        for _ in 0..4 {
            assert!(l.on_nack(foreign).is_empty(), "stale nack must be ignored");
            assert!(l.on_nack(b2).is_empty(), "our own ballot is no news");
        }
        assert!(
            matches!(&l.phase, Phase::Establishing { ballot, votes } if *ballot == b2 && votes.len() == 1),
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
        l.on_phase1b(0, p1b(b, None));
        l.on_phase1b(1, p1b(b, None));
        let actions = l.on_phase1b(2, p1b(b, None));
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
        l.on_phase1b(0, p1b(b, Some((old, held.clone()))));
        l.on_phase1b(1, p1b(b, Some((old, held))));
        let recovery = l.on_phase1b(2, p1b(b, None));
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
        l.on_phase1b(0, ahead.clone());
        l.on_phase1b(1, ahead.clone());
        let sent = l.on_phase1b(2, ahead.clone());
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
        let actions = l.on_phase1b(0, p1b(foreign, None));
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
    fn proved_safe_empty_when_nothing_accepted() {
        let r0 = p1b(Ballot::classic(1, NodeId(1)), None);
        let r1 = p1b(Ballot::classic(1, NodeId(1)), None);
        let r2 = p1b(Ballot::classic(1, NodeId(1)), None);
        let safe = proved_safe(&[(0, &r0), (1, &r1), (2, &r2)], 5, 3, 4);
        assert!(safe.is_empty());
    }

    #[test]
    fn proved_safe_paper_example() {
        // §3.3.1: responses from acceptors {1, 2, 3, 5} (indices 0, 1, 2,
        // 4): acceptor 0 at ballot 3 with v0→v1; acceptors 1 and 4 at
        // ballot 4 with v1→v2 accepted; acceptor 2 at ballot 4 with v1→v3
        // accepted. The only populated fast-quorum intersection agrees on
        // v1→v2, which must be proposed next.
        let b3 = Ballot::fast(3, NodeId(0));
        let b4 = Ballot::fast(4, NodeId(0));
        let old = phys_opt(1); // v0 → v1 at ballot 3
        let v2 = phys_opt(12); // v1 → v2
        let v3 = phys_opt(13); // v1 → v3
        let mut c_old = CStruct::new();
        c_old.append(old, OptionStatus::Accepted);
        let mut c_v2 = CStruct::new();
        c_v2.append(v2.clone(), OptionStatus::Accepted);
        c_v2.append(
            v3.clone(),
            OptionStatus::Rejected(AbortReason::PendingOption),
        );
        let mut c_v3 = CStruct::new();
        c_v3.append(v3.clone(), OptionStatus::Accepted);
        c_v3.append(
            v2.clone(),
            OptionStatus::Rejected(AbortReason::PendingOption),
        );

        let r0 = p1b(b4, Some((b3, c_old)));
        let r1 = p1b(b4, Some((b4, c_v2.clone())));
        let r2 = p1b(b4, Some((b4, c_v3)));
        let r4 = p1b(b4, Some((b4, c_v2)));
        let safe = proved_safe(&[(0, &r0), (1, &r1), (2, &r2), (4, &r4)], 5, 3, 4);
        assert_eq!(
            safe.status_of(txn(12)),
            Some(OptionStatus::Accepted),
            "v1→v2 is the proved-safe choice"
        );
        // v1→v3 must not be accepted in the safe cstruct.
        assert!(!safe.status_of(txn(13)).is_some_and(|s| s.is_accepted()));
    }

    /// The reviewer's counterexample. Physical write `z` was chosen at
    /// the old holder's ballot through acceptors {2, 3, 4}. The new
    /// holder's replica (0) never saw it, assumed the next lease ballot
    /// from its own base and accepted the conflicting write `x` there —
    /// alone, so nothing was chosen at the lease ballot.
    fn minority_at_an_assumed_ballot() -> (Ballot, Ballot, Phase1b, Phase1b) {
        let old = Ballot::lease(1, NodeId(9)).next_classic(NodeId(9));
        let assumed = Ballot::lease(2, NodeId(0));
        let established = assumed.next_classic(NodeId(0));
        let mut chosen = CStruct::new();
        chosen.append(phys_opt(5), OptionStatus::Accepted);
        let mut minority = CStruct::new();
        minority.append(phys_opt(6), OptionStatus::Accepted);
        assert!(chosen.lub(&minority).is_none(), "nothing extends both");
        let at_assumed = p1b(established, Some((assumed, minority)));
        let at_old = p1b(established, Some((old, chosen)));
        (assumed, established, at_assumed, at_old)
    }

    #[test]
    fn an_assumed_ballot_is_judged_by_a_quorum_one_way_or_the_other() {
        let (assumed, _, a, r) = minority_at_an_assumed_ballot();
        let judged =
            |votes: &[(usize, &Phase1b)], elsewhere| judged_safe(votes, elsewhere, 5, 3, 4);
        // Promises from {0, 2, 3}: the quorum {0, and the two not heard
        // from} may have joined the lease ballot — or `z` was chosen
        // below it. Three promises cannot tell; the highest-ballot rule
        // would take acceptor 0 at its word and drop `z`.
        assert_eq!(
            proved_safe(&[(0, &a), (2, &r), (3, &r)], 5, 3, 4).status_of(txn(5)),
            None,
            "the rule alone loses the chosen write"
        );
        assert!(judged(&[(0, &a), (2, &r), (3, &r)], 0).is_none());
        assert!(judged(&[(0, &a), (1, &a), (2, &r), (3, &r)], 0).is_none());
        // A third promiser that never accepted at the lease ballot: no
        // quorum can form there any more. Its reports are dropped and
        // the rule runs over the others — `z` survives, `x` does not.
        let safe = judged(&[(0, &a), (2, &r), (3, &r), (4, &r)], 0).expect("blocked");
        assert_eq!(safe.status_of(txn(5)), Some(OptionStatus::Accepted));
        assert_eq!(safe.status_of(txn(6)), None);
        // A promiser still in an older instance accepted nothing in
        // this one either.
        let safe = judged(&[(0, &a), (2, &r), (3, &r)], 1).expect("blocked");
        assert_eq!(safe.status_of(txn(5)), Some(OptionStatus::Accepted));
        // The other way: a classic quorum reports at the lease ballot,
        // so it did join, all from one base, and the rule applies as it
        // stands.
        let safe = judged(&[(0, &a), (1, &a), (3, &r), (4, &a)], 0).expect("joined");
        assert_eq!(safe.status_of(txn(6)), Some(OptionStatus::Accepted));
        // Ballots Phase 1 established are believed as ever.
        let none = p1b(assumed, None);
        assert!(judged(&[(0, &none), (2, &r), (3, &r)], 0).is_some());
    }

    /// A cstruct of accepted decrements, one per `seq`.
    fn decs(seqs: &[u64]) -> CStruct {
        let mut c = CStruct::new();
        for seq in seqs {
            c.append(comm_opt(*seq), OptionStatus::Accepted);
        }
        c
    }

    #[test]
    fn a_minority_whose_word_covers_the_others_is_believed() {
        // The usual refusal: the others are merely behind. What may have
        // been chosen among them is a prefix of what the minority at the
        // lease ballot holds, so that is right whether or not a quorum
        // joined — no waiting.
        let established = Ballot::lease(2, NodeId(0)).next_classic(NodeId(0));
        let old = Ballot::lease(1, NodeId(9)).next_classic(NodeId(9));
        let ahead = p1b(
            established,
            Some((Ballot::lease(2, NodeId(0)), decs(&[7, 8]))),
        );
        let behind = p1b(established, Some((old, decs(&[7]))));
        let safe = judged_safe(&[(0, &ahead), (2, &behind), (3, &behind)], 0, 5, 3, 4)
            .expect("both worlds agree");
        assert_eq!(safe.len(), 2);
        // Not so when the others hold something the minority lacks.
        let aside = p1b(established, Some((old, decs(&[7, 9]))));
        assert!(judged_safe(&[(0, &ahead), (2, &aside), (3, &aside)], 0, 5, 3, 4).is_none());
    }

    #[test]
    fn every_promise_in_hand_always_settles_it() {
        // Joining a later assumed ballot overwrites the ballot an
        // acceptor reports. Tenure 1's holder got 9 chosen through
        // {0, 1, 4}; tenure 2's assumed a base without it and was joined
        // by {2, 3} only; tenure 3's assumed the base with it and was
        // joined by {0, 4}. Going by ballots, {2, 3} at tenure 2 against
        // {1} at tenure 1 cannot be judged — 0 and 4 might have been
        // with either — and even five promises leave the rule stuck.
        let b = Ballot::lease(4, NodeId(5)).next_classic(NodeId(5));
        let at = |tenure: u32, seqs: &[u64]| {
            p1b(b, Some((Ballot::lease(tenure, NodeId(tenure)), decs(seqs))))
        };
        let (t1, t2, t3) = (at(1, &[7, 9]), at(2, &[7, 8]), at(3, &[7, 9, 10]));
        let all = [(0, &t3), (1, &t1), (2, &t2), (3, &t2), (4, &t3)];
        assert!(judge(&all, 0, 5, 3, 4).is_none());
        assert!(judged_safe(&all[..4], 0, 5, 3, 4).is_none(), "one to go");
        // But with everyone's promise nothing below can change: what a
        // quorum holds is what may have been chosen.
        let safe = judged_safe(&all, 0, 5, 3, 4).expect("all five");
        let held: Vec<u64> = safe.entries().map(|e| e.opt.txn.seq).collect();
        assert_eq!(held, [7, 9], "9 was chosen; 8 and 10 never were");
        // Had acceptor 1 merely been behind, the ballots would do.
        let t1 = at(1, &[7]);
        let all = [(0, &t3), (1, &t1), (2, &t2), (3, &t2), (4, &t3)];
        let safe = judge(&all, 0, 5, 3, 4).expect("prefixes all the way down");
        let held: Vec<u64> = safe.entries().map(|e| e.opt.txn.seq).collect();
        assert_eq!(held, [7, 8]);
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
        assert!(l.on_phase1b(0, at(&a)).is_empty());
        assert!(l.on_phase1b(2, at(&r)).is_empty());
        assert!(l.on_phase1b(3, at(&r)).is_empty(), "a quorum, unjudged");
        assert!(!l.is_leading());
        // Whoever asks meanwhile makes the leader ask again, at the same
        // ballot: the promise it lacks may have been lost.
        assert!(matches!(l.start_recovery()[..], [LeaderAction::Phase1a(again)] if again == b));
        let actions = l.on_phase1b(4, at(&r));
        let LeaderAction::Phase2a(p) = &actions[0] else {
            panic!("expected the recovery round, got {actions:?}")
        };
        let Base::ProvedSafe(safe) = &p.base else {
            panic!("expected a proved-safe cstruct")
        };
        assert_eq!(safe.status_of(txn(5)), Some(OptionStatus::Accepted));
        assert_eq!(safe.status_of(txn(6)), None);
    }

    #[test]
    fn proved_safe_classic_ballot_uses_classic_quorums() {
        let bc = Ballot::classic(2, NodeId(3));
        let mut c = CStruct::new();
        c.append(comm_opt(5), OptionStatus::Accepted);
        let r0 = p1b(bc, Some((bc, c.clone())));
        let r1 = p1b(bc, Some((bc, c.clone())));
        let r2 = p1b(bc, None);
        let safe = proved_safe(&[(0, &r0), (1, &r1), (2, &r2)], 5, 3, 4);
        // With classic quorums of size 3, {0,1,x} overlaps Q in {0,1}
        // which both report c — c may have been chosen and must survive.
        assert_eq!(safe.status_of(txn(5)), Some(OptionStatus::Accepted));
    }
}
