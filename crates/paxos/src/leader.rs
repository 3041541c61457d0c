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
//! The struct is sans-IO: methods return [`LeaderAction`]s that the
//! hosting process turns into messages.

use std::collections::{BTreeMap, VecDeque};

use mdcc_common::NodeId;

use crate::acceptor::{Phase1b, Phase2a, RecordSnapshot};
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
    /// The γ-expiring close was sent; once the instance advances the
    /// record is fast again and the leader steps aside.
    Retiring,
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
    /// stale-snapshot retry).
    window: Vec<TxnOption>,
    /// Best known committed state.
    snapshot: RecordSnapshot,
    /// Highest ballot observed anywhere (for picking winning ballots).
    max_seen: Ballot,
    /// Remaining classic options before fast mode reopens.
    gamma_remaining: u64,
    /// A close was requested for the current instance; new options queue
    /// until it advances.
    closing: bool,
    /// A recovery was requested while we were busy.
    recovery_requested: bool,
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
            snapshot,
            max_seen: Ballot::INITIAL_FAST,
            gamma_remaining: 0,
            closing: false,
            recovery_requested: false,
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
    /// exchange — its first Phase2a is immediately valid. Only allowed
    /// from `Idle` with a classic ballot at least as high as anything
    /// observed; a contested record (higher ballot seen) falls back to
    /// classic Phase1. Value-safe: an idle leader has no recovery open,
    /// classic instances grow cstructs only by validated appends, and
    /// an acceptor ahead on committed state answers `Stale`, which the
    /// usual catch-up path handles.
    pub fn assume_leadership(&mut self, ballot: Ballot) -> bool {
        if !matches!(self.phase, Phase::Idle) || ballot.is_fast() || ballot < self.max_seen {
            return false;
        }
        self.max_seen = ballot;
        self.phase = Phase::Leading { ballot };
        self.gamma_remaining = self.cfg.gamma;
        self.closing = false;
        self.recovery_requested = false;
        true
    }

    /// A proposer (or the learner rule of Algorithm 1 line 19/26) asked
    /// for recovery of the current instance — a collision happened or the
    /// demarcation base must move.
    pub fn start_recovery(&mut self) -> Vec<LeaderAction> {
        match &self.phase {
            Phase::Establishing { .. } | Phase::Retiring => Vec::new(),
            Phase::Leading { ballot } => {
                // Already coordinating: a close round re-bases without a
                // new Phase 1.
                if self.closing {
                    return Vec::new();
                }
                self.closing = true;
                let ballot = *ballot;
                vec![LeaderAction::Phase2a(self.build_phase2a(
                    ballot,
                    None,
                    Vec::new(),
                    true,
                    self.reopen_ballot(ballot),
                ))]
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
            Phase::Leading { ballot } if !self.closing => self.append(ballot, opt),
            Phase::Leading { .. } | Phase::Establishing { .. } | Phase::Retiring => {
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
        // re-bases the instance.
        let votes = std::mem::take(votes);
        let newest = self.snapshot.version;
        let relevant: Vec<(usize, &Phase1b)> = votes
            .iter()
            .filter(|(_, v)| v.snapshot.version == newest)
            .map(|(i, v)| (*i, v))
            .collect();
        let safe = proved_safe(&relevant, self.cfg.n, self.cfg.qc, self.cfg.qf);
        self.phase = Phase::Leading { ballot };
        self.recovery_requested = false;
        self.gamma_remaining = self.cfg.gamma;
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
            self.phase = Phase::Retiring;
        }
        vec![LeaderAction::Phase2a(self.build_phase2a(
            ballot,
            Some(safe),
            new_options,
            true,
            reopen,
        ))]
    }

    /// The local acceptor advanced past the current instance: the close
    /// (if any) completed; drain what queued up meanwhile.
    pub fn on_advance(&mut self, snapshot: RecordSnapshot) -> Vec<LeaderAction> {
        if snapshot.version > self.snapshot.version {
            self.snapshot = snapshot;
        }
        self.window.clear();
        self.closing = false;
        match self.phase {
            Phase::Retiring => {
                // Fast mode reopened: hand queued options back to their
                // coordinators for direct proposals.
                self.phase = Phase::Idle;
                self.queue
                    .drain(..)
                    .map(LeaderAction::RedirectFast)
                    .collect()
            }
            Phase::Leading { ballot } => {
                let mut actions = Vec::new();
                while !self.closing {
                    let Some(opt) = self.queue.pop_front() else {
                        break;
                    };
                    actions.extend(self.append(ballot, opt));
                }
                actions
            }
            _ => Vec::new(),
        }
    }

    /// A Phase2a was nacked: our ballot lost. Re-establish with a higher
    /// one if there is still work to do.
    pub fn on_nack(&mut self, promised: Ballot) -> Vec<LeaderAction> {
        self.observe_ballot(promised);
        // Un-decided window options go back to the queue for re-proposal
        // under the next ballot.
        for opt in self.window.drain(..).rev() {
            if self.queue.iter().all(|o| o.txn != opt.txn) {
                self.queue.push_front(opt);
            }
        }
        self.phase = Phase::Idle;
        self.closing = false;
        if self.recovery_requested || !self.queue.is_empty() {
            self.establish()
        } else {
            Vec::new()
        }
    }

    /// An acceptor reported newer committed state than ours: catch up and
    /// replay the open window against the newer instance.
    pub fn on_stale(&mut self, snapshot: RecordSnapshot) -> Vec<LeaderAction> {
        if snapshot.version > self.snapshot.version {
            self.snapshot = snapshot;
        }
        let Phase::Leading { ballot } = self.phase else {
            return Vec::new();
        };
        if self.window.is_empty() {
            return Vec::new();
        }
        let window = self.window.clone();
        vec![LeaderAction::Phase2a(self.build_phase2a(
            ballot,
            None,
            window,
            self.closing,
            None,
        ))]
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
            self.phase = Phase::Retiring;
        }
        vec![LeaderAction::Phase2a(self.build_phase2a(
            ballot,
            None,
            vec![opt],
            close,
            reopen,
        ))]
    }

    /// The fast ballot to reopen with, when γ is exhausted.
    fn reopen_ballot(&self, ballot: Ballot) -> Option<Ballot> {
        (self.cfg.allow_fast && self.gamma_remaining == 0).then(|| ballot.next_fast(self.self_id))
    }

    fn build_phase2a(
        &self,
        ballot: Ballot,
        safe: Option<CStruct>,
        new_options: Vec<TxnOption>,
        close_instance: bool,
        reopen_fast: Option<Ballot>,
    ) -> Phase2a {
        Phase2a {
            ballot,
            version: self.snapshot.version,
            snapshot: self.snapshot.clone(),
            safe,
            new_options,
            close_instance,
            reopen_fast,
        }
    }
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
pub fn proved_safe(responses: &[(usize, &Phase1b)], n: usize, qc: usize, qf: usize) -> CStruct {
    // k ≡ the highest ballot at which anything was accepted.
    let k = responses
        .iter()
        .filter_map(|(_, r)| r.accepted.as_ref().map(|(b, _)| *b))
        .max();
    let Some(k) = k else {
        return CStruct::new();
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
        return acc;
    }
    // ⊔Γ (line 57). The theory guarantees compatibility; fall back to the
    // largest γ defensively.
    let refs: Vec<&CStruct> = gammas.iter().collect();
    match CStruct::lub_many(refs) {
        Some(l) => l,
        None => {
            debug_assert!(false, "incompatible gammas in ProvedSafe");
            gammas
                .into_iter()
                .max_by_key(|c| c.len())
                .unwrap_or_default()
        }
    }
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
        assert!(l.is_leading() || matches!(l.phase, Phase::Retiring));
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
            p2a.safe.is_some(),
            "recovery adopts the proved-safe cstruct"
        );
        assert!(l.is_leading());
        assert!(l.closing, "close outstanding");
    }

    #[test]
    fn assumed_leadership_appends_without_phase1() {
        // Lease-carried Phase1: a lease holder goes straight to Leading
        // and its first enqueue emits a Phase2a, no Phase1a round.
        let mut l = LeaderRecord::new(cfg(), NodeId(2), snapshot());
        let lease = Ballot::lease(3, NodeId(2));
        assert!(l.assume_leadership(lease));
        assert!(l.is_leading());
        let actions = l.enqueue(comm_opt(1));
        let LeaderAction::Phase2a(p2a) = &actions[0] else {
            panic!("expected immediate phase2a, got {actions:?}");
        };
        assert_eq!(p2a.ballot, lease);
        assert!(p2a.safe.is_none(), "no recovery cstruct needed");
        assert!(!actions
            .iter()
            .any(|a| matches!(a, LeaderAction::Phase1a(_))));
    }

    #[test]
    fn assume_leadership_defers_to_contested_records() {
        let mut l = LeaderRecord::new(cfg(), NodeId(2), snapshot());
        // A higher ballot was seen: the lease ballot is contested and
        // the holder must fall back to classic Phase1.
        l.observe_ballot(Ballot::classic(7, NodeId(4)));
        assert!(!l.assume_leadership(Ballot::lease(3, NodeId(2))));
        assert!(!l.is_leading());
        // Fast ballots never carry leadership.
        assert!(!l.assume_leadership(Ballot::fast(9, NodeId(2))));
        // Established leaders are not re-entered.
        let mut busy = LeaderRecord::new(cfg(), NodeId(2), snapshot());
        establish(&mut busy);
        assert!(!busy.assume_leadership(Ballot::lease(9, NodeId(2))));
    }

    #[test]
    fn appends_flow_without_waiting_for_resolution() {
        // The §3.2.2 deadlock-avoidance shape: the leader must emit a
        // Phase2a per option immediately, not serialize on visibility.
        let mut l = LeaderRecord::new(cfg(), NodeId(1), snapshot());
        establish(&mut l);
        l.on_advance(snapshot()); // recovery close done
        let a1 = l.enqueue(comm_opt(1));
        let a2 = l.enqueue(comm_opt(2));
        let LeaderAction::Phase2a(p1) = &a1[0] else {
            panic!()
        };
        let LeaderAction::Phase2a(p2) = &a2[0] else {
            panic!()
        };
        assert!(p1.safe.is_none(), "appends never overwrite the cstruct");
        assert!(!p1.close_instance);
        assert_eq!(p1.new_options[0].txn, txn(1));
        assert_eq!(p2.new_options[0].txn, txn(2));
    }

    #[test]
    fn gamma_expiry_closes_and_reopens_fast() {
        let mut l = LeaderRecord::new(cfg(), NodeId(1), snapshot());
        establish(&mut l);
        l.on_advance(snapshot());
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
        let bounced = l.on_advance(snapshot());
        assert!(matches!(&bounced[0], LeaderAction::RedirectFast(o) if o.txn == txn(4)));
        assert!(!l.is_leading());
    }

    #[test]
    fn multi_configuration_never_reopens_fast() {
        let mut c = cfg();
        c.allow_fast = false;
        let mut l = LeaderRecord::new(c, NodeId(1), snapshot());
        establish(&mut l);
        l.on_advance(snapshot());
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
        l.on_advance(snapshot());
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
        let drained = l.on_advance(snapshot());
        assert!(matches!(&drained[0], LeaderAction::Phase2a(p) if p.new_options[0].txn == txn(3)));
    }

    #[test]
    fn recovery_while_leading_closes_without_phase1() {
        let mut c = cfg();
        c.gamma = 1_000;
        let mut l = LeaderRecord::new(c, NodeId(1), snapshot());
        establish(&mut l);
        l.on_advance(snapshot());
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
        l.on_advance(snapshot());
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
        l.on_advance(snapshot());
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
        l.on_advance(snapshot());
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
