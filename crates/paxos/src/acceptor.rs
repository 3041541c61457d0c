//! Per-record acceptor state (Algorithm 3 of the paper).
//!
//! Every record runs its own sequence of Paxos instances, one per record
//! *version*; instance `i+1` starts only when instance `i` is decided and
//! resolved. Within the current instance the acceptor holds the classic
//! Paxos triple — promised ballot `mbal`, accepted ballot `bal`, accepted
//! cstruct `val` — plus MDCC's additions: option validation (the "active
//! decision" of §3.2.1), escrow/demarcation bookkeeping for commutative
//! updates, and visibility application.
//!
//! # The settled watermark
//!
//! A committed commutative option stays in the cstruct until its
//! instance closes, so a hot record's cstruct grows with its history
//! while only its last few entries are still in play. The acceptor keeps
//! the position of the first entry without a recorded outcome — the
//! *settled watermark*, with the digest chain up to it — and the votes
//! it hands coordinators ([`AcceptorRecord::vote`], what
//! [`FastPropose::Vote`] and [`ClassicAccept::Vote`] carry) start there.
//! The invariants:
//!
//! * **Only votes to coordinators are trimmed.** The cstruct itself,
//!   [`AcceptorRecord::export_state`], snapshots, the sync payload,
//!   Phase1b and [`AcceptorRecord::phase2b`] (recovery's `StatusResp`)
//!   keep whole instances: leader recovery, anti-entropy and crash
//!   replay reason about prefixes of what acceptors *hold*.
//! * **Positions stay positions in the whole cstruct**, so "append-only
//!   within an epoch" and the chained digest keep their meaning; the
//!   watermark only ever moves forward within an epoch.
//! * **What is hidden commutes with what is shown.** Everything before
//!   the watermark has an outcome that was applied here; while the
//!   instance holds no accepted physical write or read guard, every
//!   entry is a commutative or rejected option and they all commute, so
//!   a learner reaches the same verdict from the tail as from the whole.
//!   Accepting such a *barrier* behind a settled prefix opens a new
//!   cstruct epoch and votes ship whole cstructs until it is gone.
//! * **The watermark is derived state** — recomputed on import like the
//!   open set, never written to the WAL or a checkpoint.
//!
//! A coordinator can therefore no longer read a transaction's status off
//! a vote once the record knows its outcome; the one that still asks is
//! retrying a proposal storage-side recovery already resolved, and
//! [`AcceptorRecord::settled_outcome`] answers it.
//!
//! # Verdicts
//!
//! A learner asks one thing of a vote: the status of its option and
//! whether everything recorded before it commutes with it
//! ([`CStruct::front_movable`]). The acceptor answers that itself, on
//! the cstruct of [`AcceptorRecord::vote`], for every open option of
//! the coordinator it writes to ([`AcceptorRecord::verdicts`]), and
//! sends the answer ([`VoteVerdict`]) in place of the cstruct. The vote
//! itself travels only to a learner that has to compute a glb
//! ([`crate::learner`]) and to recovery's status queries.
//!
//! # Judging only what this replica is not behind on
//!
//! [`AcceptorRecord::fast_propose`] compares an option's read version
//! with the record's version *here*. When the option read a later
//! version ([`AcceptorRecord::behind`]) that comparison says nothing
//! about the transaction: `vread` came from some replica's committed
//! state, so this replica is missing a decided instance it will be
//! sent. The acceptor stays a pure judge — asked, it still answers such
//! an option `StaleRead`/`PendingOption` — and the storage node asks
//! only once the record has caught up, or once the coordinator has
//! waited out its learn timeout (`mdcc_core::parked`). `behind` is the
//! predicate it uses, kept next to the validation rules it mirrors.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use mdcc_common::error::AbortReason;
use mdcc_common::wire::Enc;
use mdcc_common::{CommutativeUpdate, NodeId, Row, TxnId, UpdateOp, Version};

use crate::ballot::Ballot;
use crate::cstruct::{trace_digest_of, CStruct, Entry, Mark};
use crate::demarcation::{escrow_accepts, AttrConstraint, EscrowView};
use crate::options::{OptionStatus, TxnOption, TxnOutcome};
use crate::wire::{encode_committed, StateView};

/// Committed record state, shipped in Phase1b/Phase2a for catch-up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordSnapshot {
    /// Number of decided instances.
    pub version: Version,
    /// Committed, visible value (`None`: absent or deleted).
    pub value: Option<Row>,
    /// Transactions whose effects are folded into `value` (executed
    /// locally or inherited through an earlier snapshot adoption),
    /// sorted. A node adopting this snapshot must mark these settled or
    /// a later re-delivery of one of their options (carried entries,
    /// restart anti-entropy) would double-execute it.
    pub folded: Vec<TxnId>,
}

impl RecordSnapshot {
    /// A snapshot of a record that does not exist yet.
    pub fn absent() -> Self {
        RecordSnapshot {
            version: Version::ZERO,
            value: None,
            folded: Vec::new(),
        }
    }
}

/// Phase1b response payload.
#[derive(Debug, Clone)]
pub struct Phase1b {
    /// The acceptor's promise after processing the Phase1a — equals the
    /// leader's ballot iff the promise was granted.
    pub promised: Ballot,
    /// Ballot and cstruct last accepted in the current instance, if any.
    pub accepted: Option<(Ballot, CStruct)>,
    /// Committed state for leader catch-up.
    pub snapshot: RecordSnapshot,
}

/// Phase2b vote payload.
#[derive(Debug, Clone)]
pub struct Phase2b {
    /// Ballot the vote belongs to.
    pub ballot: Ballot,
    /// Instance (record version) the vote belongs to.
    pub version: Version,
    /// The acceptor's cstruct `val_a` — learners compute quorum glbs
    /// over these. Whole in [`AcceptorRecord::phase2b`]; from the settled
    /// watermark on ([`CStruct::base`] says where) in
    /// [`AcceptorRecord::vote`], the form coordinators are sent.
    pub cstruct: CStruct,
    /// The acceptor's cstruct epoch: bumped on every wholesale cstruct
    /// replacement or entry removal (instance advance, snapshot/safe
    /// adoption, abort/guard resolution), so that within one epoch the
    /// cstruct is strictly append-only. Restored by WAL replay. Nothing
    /// on the verdict path reads it; the checkpoint format and
    /// [`crate::shadow`] name it.
    pub epoch: u64,
}

/// One option's line of a [`VoteVerdict`]: what
/// [`CStruct::front_movable`] says of it in the acceptor's vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Letter {
    /// The option's transaction.
    pub txn: TxnId,
    /// How the acceptor decided it.
    pub status: OptionStatus,
    /// Everything the vote records before it commutes with it.
    pub movable: bool,
}

/// A Phase2b vote as one coordinator is sent it: the answer to the only
/// question its learners ask of the vote's cstruct, instead of the
/// cstruct. It names the vote's ballot and instance and, for each option
/// of that coordinator still open at the acceptor, its [`Letter`]; an
/// option that has not reached the acceptor has none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteVerdict {
    /// Ballot the vote belongs to.
    pub ballot: Ballot,
    /// Instance (record version) the vote belongs to.
    pub version: Version,
    /// The destination's open options, in recorded order.
    pub letters: Vec<Letter>,
}

impl VoteVerdict {
    /// `txn`'s letter: its status and whether it is front-movable in the
    /// vote, `None` when the vote does not hold it.
    pub fn letter(&self, txn: TxnId) -> Option<(OptionStatus, bool)> {
        let letter = self.letters.iter().find(|l| l.txn == txn)?;
        Some((letter.status, letter.movable))
    }
}

/// Result of a direct (fast-ballot) proposal, Algorithm 3 line 78.
#[derive(Debug, Clone)]
pub enum FastPropose {
    /// The option was appended (or was already present); here is the vote.
    Vote(Phase2b),
    /// The record is in a classic ballot; the proposer must go through
    /// the master.
    NotFast {
        /// Current promised ballot (its proposer is the master to ask).
        promised: Ballot,
    },
    /// The instance has absorbed its maximum number of options; the
    /// proposer should ask the master to close and re-base it.
    InstanceFull,
    /// The proposing transaction was already resolved on this node — the
    /// proposal is a stale retry and must not re-enter an instance.
    AlreadyResolved(TxnOutcome),
}

/// Result of a classic Phase2a.
#[derive(Debug, Clone)]
pub enum ClassicAccept {
    /// Accepted; here is the vote.
    Vote(Phase2b),
    /// The ballot was too old, or the acceptor cannot join its stream
    /// ([`AcceptorRecord::refuses_base`]).
    Nack {
        /// The ballot to outrank: the acceptor's current promise, or the
        /// first ballot past the Phase2a's own when its base was refused.
        promised: Ballot,
    },
    /// The leader's snapshot is older than this acceptor's committed
    /// state; it must catch up and retry.
    Stale {
        /// The acceptor's newer committed state.
        snapshot: RecordSnapshot,
    },
    /// The Phase2a targets an instance this acceptor has not reached and
    /// travels without the leader's snapshot
    /// ([`AcceptorRecord::lacks_snapshot`]): nothing was mutated, the
    /// promise included, and the acceptor asks the leader for it.
    Behind,
}

/// What a [`Phase2a`]'s fresh options are appended to.
#[derive(Debug, Clone)]
pub enum Base {
    /// A pipelined append under a ballot Phase 1 established (its
    /// recovery round re-based the acceptors): whatever the acceptor
    /// holds stays in place.
    Held,
    /// A recovery round: the proved-safe cstruct, statuses already
    /// decided, which the acceptor adopts wholesale first.
    ProvedSafe(CStruct),
    /// An append of a leader that skipped Phase 1 (it assumed leadership
    /// at its shard's lease ballot): [`CStruct::trace_digest`] of the
    /// cstruct the ballot's stream started from in this instance. An
    /// acceptor joins only if it holds exactly that cstruct — Phase 1
    /// piggybacked on Phase 2 as a compare-and-append.
    Digest(u64),
}

/// Classic Phase2a payload (leader → acceptors).
///
/// The broadcast names the instance it targets and nothing of the state
/// behind it: an acceptor already in that instance — nearly every one,
/// every time — needs only the position to know so. One that is behind
/// ([`AcceptorRecord::lacks_snapshot`]) says so, and the leader answers
/// that acceptor alone with the instance's whole window and its
/// committed state ([`crate::LeaderRecord::on_behind`]).
#[derive(Debug, Clone)]
pub struct Phase2a {
    /// Classic ballot (established by Phase 1, or a lease ballot whose
    /// first append names its [`Base::Digest`]).
    pub ballot: Ballot,
    /// Instance this proposal targets.
    pub version: Version,
    /// The leader's committed state, for an acceptor behind `version` to
    /// catch up from: `Some` only on the answer to one that asked.
    pub snapshot: Option<RecordSnapshot>,
    /// What `new_options` extend.
    pub base: Base,
    /// Fresh options for the acceptor to validate and append.
    pub new_options: Vec<TxnOption>,
    /// Close the instance once every accepted option resolves, then
    /// re-base (new base value and demarcation limits, §3.4.2).
    pub close_instance: bool,
    /// After the instance advances, reopen fast mode at this ballot
    /// (γ policy, §3.3.2).
    pub reopen_fast: Option<Ballot>,
}

/// Per-record acceptor.
#[derive(Debug, Clone)]
pub struct AcceptorRecord {
    n: usize,
    qf: usize,
    max_instance_options: usize,
    constraints: Arc<[AttrConstraint]>,
    version: Version,
    value: Option<Row>,
    /// Value when the current instance opened — the demarcation base `X`.
    base: Option<Row>,
    promised: Ballot,
    accepted_ballot: Option<Ballot>,
    cstruct: CStruct,
    /// The entries of `cstruct` whose transaction has no recorded outcome
    /// yet, in recorded order. A committed commutative entry stays in
    /// the cstruct until its instance closes, so the cstruct grows with
    /// history while this set stays as small as the record's in-flight
    /// transactions; validation, escrow accounting, the instance-full
    /// check, vote fan-out targeting and instance closing all ask about
    /// it and must not re-scan the cstruct. Kept in step by
    /// [`Self::append_decided`], [`Self::note_outcome`] and
    /// [`Self::replace_cstruct`] — the only places entries or outcomes
    /// of current entries come and go.
    open: Vec<Arc<Entry>>,
    /// The settled watermark: the position of the first open entry in
    /// `cstruct` (its end when nothing is open), with the digest chain
    /// up to there. Everything before it has a recorded outcome that was
    /// applied here — state, not protocol payload — so votes to
    /// coordinators start at it ([`Self::vote`]). Moves forward only,
    /// in [`Self::advance_settled`] (amortised O(1) per entry), except
    /// where the digest chain itself restarts: [`Self::replace_cstruct`]
    /// and [`Self::remove_entry`].
    settled: Mark,
    /// Accepted entries of `cstruct` that are neither commutative nor
    /// rejected (physical writes, read guards), open or not. While there
    /// is one, an entry behind the watermark may not commute with it, so
    /// votes ship the whole cstruct (see [`Self::vote`]).
    barriers: usize,
    /// Transaction resolutions this node has heard (Visibility messages);
    /// kept across instances so duplicate or early messages are harmless.
    outcomes: HashMap<TxnId, Resolution>,
    /// Transactions whose entry-level resolution already executed here
    /// (idempotence under re-delivery and stale retries).
    resolved_entries: HashSet<TxnId>,
    close_on_resolve: bool,
    reopen_fast_after: Option<Ballot>,
    /// Bounded ring of committed commutative options from recently
    /// *closed* instances. Restart anti-entropy needs these: an option
    /// that commits while a replica is down and whose instance then
    /// closes leaves every live cstruct — this ring is the only place
    /// its payload survives for shipping to the recovering replica
    /// (deltas commute, so installing one after the close is still
    /// value-correct).
    closed_resolved: Vec<(TxnOption, Resolution)>,
    /// Bounded ring of transactions marked settled through a snapshot
    /// adoption *without* executing locally (their effect arrived inside
    /// the adopted value). These must keep riding in outgoing snapshots'
    /// `folded` lists: they are the settled transactions a further
    /// adopter cannot discover from this node's cstruct or ring.
    inherited_folded: Vec<TxnId>,
    /// Settled transactions in settle order, oldest first — the
    /// truncation queue for `outcomes`/`resolved_entries`. See
    /// [`AcceptorRecord::truncate_settled`].
    settle_log: VecDeque<TxnId>,
    /// Monotone count of settlements ever recorded on this record; the
    /// truncation watermark is `settle_seq - settle_log.len()` (every
    /// settlement below it has had its metadata dropped).
    settle_seq: u64,
    /// Cstruct epoch: bumped on every mutation that is not a plain
    /// append (instance advance, snapshot/safe adoption, entry removal).
    /// Within one epoch the cstruct is strictly append-only, which is
    /// what lets delta votes ship a positioned entry suffix instead of
    /// the whole structure. Mutated only inside the input-processing
    /// entry points, so WAL replay restores it deterministically.
    cstruct_epoch: u64,
}

/// Entries kept in [`AcceptorRecord`]'s closed-instance ring.
const CLOSED_RESOLVED_CAP: usize = 64;

/// Entries kept in [`AcceptorRecord`]'s inherited-folded ring. Larger
/// than any peer's shippable window (`CLOSED_RESOLVED_CAP` + one
/// instance), so a transaction can only age out of it after it has aged
/// out of every ring that could re-ship its option.
const INHERITED_FOLDED_CAP: usize = 256;

/// Settlements retained in [`AcceptorRecord`]'s truncation queue before
/// the oldest transaction's resolution metadata is dropped. The window
/// only needs to outlive in-flight duplicates of the transaction's
/// messages (stale retried proposals, duplicate Visibilities): message
/// lifetimes are sub-second while this many settlements on one record
/// take orders of magnitude longer — the same synchrony assumption the
/// paper's timeout-based recovery makes (§3.2.3).
const RESOLVED_RETENTION: usize = 512;

/// The full volatile state of one [`AcceptorRecord`], exported for
/// durable checkpoints and re-imported on node restart (§3.2.3: a
/// storage node must be able to reconstruct its per-record Paxos state).
///
/// Collections are exported in a deterministic (sorted) order so two
/// equal acceptors always serialize identically.
#[derive(Debug, Clone)]
pub struct AcceptorState {
    /// Committed version.
    pub version: Version,
    /// Committed value.
    pub value: Option<Row>,
    /// Demarcation base of the current instance.
    pub base: Option<Row>,
    /// Promised ballot.
    pub promised: Ballot,
    /// Last accepted ballot of the current instance.
    pub accepted_ballot: Option<Ballot>,
    /// Current-instance cstruct entries, in recorded order.
    pub entries: Vec<Arc<Entry>>,
    /// Known transaction resolutions, sorted by transaction id.
    pub outcomes: Vec<(TxnId, Resolution)>,
    /// Transactions whose entry-level resolution already executed,
    /// sorted by transaction id.
    pub resolved: Vec<TxnId>,
    /// Whether the instance closes once all pending options resolve.
    pub close_on_resolve: bool,
    /// Ballot to reopen fast mode at after the instance advances.
    pub reopen_fast_after: Option<Ballot>,
    /// Retained committed commutative options of recently closed
    /// instances (restart anti-entropy), oldest first.
    pub closed_resolved: Vec<(TxnOption, Resolution)>,
    /// Transactions settled via snapshot adoption without local
    /// execution (see `AcceptorRecord::inherited_folded`), oldest first.
    pub inherited_folded: Vec<TxnId>,
    /// Settled transactions still inside the truncation window, oldest
    /// first (see `AcceptorRecord::settle_log`).
    pub settle_log: Vec<TxnId>,
    /// Total settlements ever recorded on this record.
    pub settle_seq: u64,
    /// Cstruct epoch (see `AcceptorRecord::cstruct_epoch`).
    pub cstruct_epoch: u64,
}

/// A transaction outcome together with the *globally learned* status of
/// this record's option — the coordinator knows both; the local vote may
/// have been in the minority and must not drive instance accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// Commit or abort of the whole transaction.
    pub outcome: TxnOutcome,
    /// Whether this record's option was learned as accepted. Always true
    /// for commits; for aborts it decides whether the instance's version
    /// is consumed (§3.2.1: learning generates a new version id whether
    /// the learned option commits or aborts).
    pub learned_accepted: bool,
}

/// The open set by definition: the entries of `cstruct` whose transaction
/// has no recorded outcome, in recorded order.
fn open_entries(cstruct: &CStruct, outcomes: &HashMap<TxnId, Resolution>) -> Vec<Arc<Entry>> {
    cstruct
        .shared()
        .iter()
        .filter(|e| !outcomes.contains_key(&e.opt.txn))
        .cloned()
        .collect()
}

/// True for an entry later commutative or rejected entries need not
/// commute with: an accepted physical write or read guard.
fn is_barrier(entry: &Entry) -> bool {
    entry.status.is_accepted() && !entry.opt.is_commutative()
}

/// The barrier count by definition.
fn barrier_entries(cstruct: &CStruct) -> usize {
    cstruct.entries().filter(|e| is_barrier(e)).count()
}

impl AcceptorRecord {
    /// A fresh, non-existent record in the implicit initial fast ballot.
    pub fn new(
        constraints: Arc<[AttrConstraint]>,
        n: usize,
        qf: usize,
        max_instance_options: usize,
    ) -> Self {
        Self {
            n,
            qf,
            max_instance_options,
            constraints,
            version: Version::ZERO,
            value: None,
            base: None,
            promised: Ballot::INITIAL_FAST,
            accepted_ballot: None,
            cstruct: CStruct::new(),
            open: Vec::new(),
            settled: Mark::START,
            barriers: 0,
            outcomes: HashMap::new(),
            resolved_entries: HashSet::new(),
            close_on_resolve: false,
            reopen_fast_after: None,
            closed_resolved: Vec::new(),
            inherited_folded: Vec::new(),
            settle_log: VecDeque::new(),
            settle_seq: 0,
            cstruct_epoch: 0,
        }
    }

    /// Creates a record that already exists with `value` (bulk load).
    pub fn with_value(
        constraints: Arc<[AttrConstraint]>,
        n: usize,
        qf: usize,
        max_instance_options: usize,
        value: Row,
    ) -> Self {
        let mut a = Self::new(constraints, n, qf, max_instance_options);
        a.value = Some(value.clone());
        a.base = Some(value);
        a.version = Version(1);
        a
    }

    /// Committed version (decided instances).
    pub fn version(&self) -> Version {
        self.version
    }

    /// Committed, visible value.
    pub fn value(&self) -> Option<&Row> {
        self.value.as_ref()
    }

    /// Current promise.
    pub fn promised(&self) -> Ballot {
        self.promised
    }

    /// The current instance's cstruct (tests and recovery inspection).
    pub fn cstruct(&self) -> &CStruct {
        &self.cstruct
    }

    /// Ballot of the last Phase2a accepted into the current instance, if
    /// any — a record is "in ballot `b`'s stream" exactly when this is
    /// `Some(b)` (the base check of [`Self::refuses_base`] keys off it).
    pub fn accepted_ballot(&self) -> Option<Ballot> {
        self.accepted_ballot
    }

    /// The current cstruct epoch (tests and shadow-view inspection).
    pub fn cstruct_epoch(&self) -> u64 {
        self.cstruct_epoch
    }

    /// Opens a new cstruct epoch after a non-append mutation (wholesale
    /// replacement or entry removal): delta positions from the old epoch
    /// no longer reference this cstruct, so senders restart their
    /// cursors and ship the new epoch's contents from position zero.
    fn bump_epoch(&mut self) {
        self.cstruct_epoch += 1;
    }

    /// Replaces the cstruct wholesale (instance advance, snapshot or
    /// proved-safe adoption): a new epoch, and the open set is re-derived
    /// from the new contents.
    fn replace_cstruct(&mut self, cstruct: CStruct) {
        self.open = open_entries(&cstruct, &self.outcomes);
        self.barriers = barrier_entries(&cstruct);
        self.cstruct = cstruct;
        self.settled = Mark::START;
        self.advance_settled();
        self.bump_epoch();
    }

    /// Moves the settled watermark forward to the first open entry.
    fn advance_settled(&mut self) {
        let first_open = self.open.first();
        let unsettled = &self.cstruct.shared()[self.settled.seq as usize..];
        for entry in unsettled {
            if first_open.is_some_and(|open| Arc::ptr_eq(open, entry)) {
                break;
            }
            self.settled = self.settled.after(entry);
        }
    }

    /// Appends ω(opt, status) to the cstruct; the entry is open unless
    /// its transaction's outcome overtook it.
    fn append_decided(&mut self, opt: TxnOption, status: OptionStatus) {
        let entry = Arc::new(Entry { opt, status });
        if !self.cstruct.append_entry(Arc::clone(&entry)) {
            return;
        }
        if is_barrier(&entry) {
            self.barriers += 1;
            if self.barriers == 1 && self.settled.seq > 0 {
                // Votes stop starting at the watermark: a new epoch makes
                // every destination take the whole cstruct instead of
                // folding this entry onto a tail that hides what it does
                // not commute with.
                self.bump_epoch();
            }
        }
        if self.outcomes.contains_key(&entry.opt.txn) {
            self.advance_settled();
        } else {
            self.open.push(entry);
        }
    }

    /// Records `txn`'s resolution; its entry, if any, is no longer open.
    fn note_outcome(&mut self, txn: TxnId, resolution: Resolution) {
        self.outcomes.insert(txn, resolution);
        self.open.retain(|e| e.opt.txn != txn);
        self.advance_settled();
    }

    /// Removes the entry of `txn`, whose outcome is on record (so the
    /// entry is not open), from the cstruct — a non-append mutation,
    /// hence a new epoch.
    fn remove_entry(&mut self, txn: TxnId) {
        if let Some(removed) = self.cstruct.remove(txn) {
            self.barriers -= usize::from(is_barrier(&removed));
            self.settled = Mark::START;
            self.advance_settled();
            self.bump_epoch();
        }
    }

    /// The outcome this node has recorded for `txn`, if any (recovery
    /// queries short-circuit on it).
    pub fn outcome_of(&self, txn: TxnId) -> Option<TxnOutcome> {
        self.outcomes.get(&txn).map(|r| r.outcome)
    }

    /// Committed state for catch-up messages.
    ///
    /// `folded` covers every settled transaction whose option could
    /// still be re-delivered to an adopter — resolved entries of the
    /// current instance, the closed-instance ring, and settled
    /// transactions this node itself inherited through adoption. The
    /// full `resolved_entries` history would also be correct but grows
    /// with transaction count; this bounded set keeps snapshot messages
    /// and WAL frames O(ring).
    pub fn snapshot(&self) -> RecordSnapshot {
        let mut folded: Vec<TxnId> = self
            .cstruct
            .entries()
            .map(|e| e.opt.txn)
            .filter(|txn| self.resolved_entries.contains(txn))
            .chain(self.closed_resolved.iter().map(|(opt, _)| opt.txn))
            .chain(self.inherited_folded.iter().copied())
            .collect();
        folded.sort();
        folded.dedup();
        RecordSnapshot {
            version: self.version,
            value: self.value.clone(),
            folded,
        }
    }

    /// Adopts a newer committed snapshot: the catch-up step shared by
    /// classic Phase2a and restart anti-entropy. What this node holds and
    /// the snapshot does not fold carries over. Accepted-but-unresolved
    /// options stay pending in the new instance — their acceptance may
    /// already be part of a learned quorum, so dropping them could lose
    /// an update. Committed deltas executed in the instance being left
    /// are applied again to the adopted value, which lacks them: the
    /// snapshot's owner closed that instance before they were proposed,
    /// or before their outcome reached it (an acceptor that had to ask
    /// for the snapshot hears the outcome first more often than one that
    /// was sent it). What the snapshot does fold is neither: re-executing
    /// it would double-apply.
    fn adopt_snapshot(&mut self, snapshot: &RecordSnapshot) {
        let mut carried = CStruct::new();
        for e in self.pending() {
            if !snapshot.folded.contains(&e.opt.txn) {
                carried.append_entry(Arc::clone(e));
            }
        }
        // Entries already resolved here leave the cstruct on adoption,
        // but they are settled history: if they stop riding in this
        // node's outgoing `folded` lists, a peer that adopts *our*
        // snapshot can later double-execute their options when another
        // replica re-ships them (ring or current-instance payloads).
        // Keep advertising them as inherited.
        let executed: Vec<Arc<Entry>> = self
            .cstruct
            .shared()
            .iter()
            .filter(|e| self.resolved_entries.contains(&e.opt.txn))
            .cloned()
            .collect();
        self.version = snapshot.version;
        self.value = snapshot.value.clone();
        for e in &executed {
            let committed = self.outcome_of(e.opt.txn) == Some(TxnOutcome::Committed);
            if let UpdateOp::Commutative(c) = &e.opt.op {
                if committed && !snapshot.folded.contains(&e.opt.txn) {
                    self.apply_deltas(c);
                }
            }
        }
        self.base = self.value.clone();
        self.replace_cstruct(carried);
        self.accepted_ballot = None;
        self.close_on_resolve = false;
        for e in executed {
            self.note_inherited(e.opt.txn);
        }
        for txn in &snapshot.folded {
            if self.resolved_entries.insert(*txn) {
                self.note_inherited(*txn);
                self.note_settled(*txn);
            }
        }
    }

    /// Executes a committed commutative update on the value.
    fn apply_deltas(&mut self, update: &CommutativeUpdate) {
        let mut row = self.value.take().unwrap_or_default();
        for (attr, delta) in update.deltas.iter() {
            row.apply_delta(attr, *delta);
        }
        self.value = Some(row);
    }

    /// Records a transaction settled via adoption (effect arrived inside
    /// a snapshot value, never executed locally) so outgoing snapshots
    /// keep advertising it.
    fn note_inherited(&mut self, txn: TxnId) {
        if self.inherited_folded.contains(&txn) {
            return;
        }
        self.inherited_folded.push(txn);
        if self.inherited_folded.len() > INHERITED_FOLDED_CAP {
            let excess = self.inherited_folded.len() - INHERITED_FOLDED_CAP;
            self.inherited_folded.drain(..excess);
        }
    }

    /// Enrolls a settled transaction in the truncation queue and prunes
    /// metadata that has aged past the retention watermark.
    fn note_settled(&mut self, txn: TxnId) {
        self.settle_log.push_back(txn);
        self.settle_seq += 1;
        self.truncate_settled();
    }

    /// Watermark-based truncation of the resolution metadata (`outcomes`
    /// and `resolved_entries`), which would otherwise grow with
    /// transaction count.
    ///
    /// A settled transaction's metadata is dropped once
    /// [`RESOLVED_RETENTION`] later settlements have been recorded on
    /// this record — the proxy for "the visibility fan-out has been
    /// acknowledged everywhere" in a message schema without explicit
    /// acks — *and* the transaction has left every structure a replica
    /// could still re-ship its option from: the current cstruct, the
    /// closed-instance ring and the inherited-folded ring. Converged
    /// replicas hold identical rings (they execute the same instance
    /// closes), so aging out of the local rings implies peers can no
    /// longer re-deliver the option — which is what makes forgetting the
    /// `resolved_entries` dedup marker safe.
    fn truncate_settled(&mut self) {
        while self.settle_log.len() > RESOLVED_RETENTION {
            let txn = *self.settle_log.front().expect("len checked");
            let referenced = self.cstruct.entry_of(txn).is_some()
                || self.closed_resolved.iter().any(|(o, _)| o.txn == txn)
                || self.inherited_folded.contains(&txn);
            if referenced {
                // Still shippable from a ring: blocked until it ages out.
                break;
            }
            self.settle_log.pop_front();
            self.resolved_entries.remove(&txn);
            self.outcomes.remove(&txn);
        }
    }

    /// Entries currently held in the resolution-metadata maps (tests:
    /// bounded growth under sustained traffic).
    pub fn resolution_metadata_len(&self) -> usize {
        self.outcomes.len().max(self.resolved_entries.len())
    }

    /// Number of settlements whose metadata has been truncated — the
    /// watermark below which this record has forgotten resolutions.
    pub fn settle_watermark(&self) -> u64 {
        self.settle_seq - self.settle_log.len() as u64
    }

    /// Phase1a (Algorithm 3, line 68): promise if the ballot is new, and
    /// report the accepted state either way so the caller learns about
    /// competing masters.
    pub fn phase1a(&mut self, m: Ballot) -> Phase1b {
        if m > self.promised {
            self.promised = m;
        }
        Phase1b {
            promised: self.promised,
            accepted: self.accepted_ballot.map(|b| (b, self.cstruct.clone())),
            snapshot: self.snapshot(),
        }
    }

    /// Raises the promised ballot to `b` without producing a Phase1b —
    /// the lease-carried Phase1 (a mastership lease grant stands in for
    /// the per-record Phase1a/Phase1b exchange). Returns whether the
    /// promise rose. Unlike [`AcceptorRecord::phase1a`] this never
    /// lowers anything and sends no reply: the leaseholder's first
    /// Phase2a at the lease ballot is immediately valid here, while a
    /// deposed holder's older ballot now Nacks and fast proposals of
    /// the floored round bounce `NotFast`.
    pub fn raise_promise(&mut self, b: Ballot) -> bool {
        if b > self.promised {
            self.promised = b;
            true
        } else {
            false
        }
    }

    /// Direct fast-ballot proposal (Algorithm 3, line 78): accept the
    /// option iff the record is still in a fast ballot, validating it
    /// against local state ("the active decision", §3.2.1).
    pub fn fast_propose(&mut self, opt: TxnOption) -> FastPropose {
        if let Some(outcome) = self.settled_outcome(opt.txn) {
            // A stale retry of a transaction this record is done with: it
            // must not be decided twice, and it must get an answer — no
            // vote will ever name it again.
            return FastPropose::AlreadyResolved(outcome);
        }
        if !self.promised.is_fast() {
            return FastPropose::NotFast {
                promised: self.promised,
            };
        }
        if self.cstruct.status_of(opt.txn).is_some() {
            // Duplicate delivery: re-vote idempotently.
            return FastPropose::Vote(self.vote());
        }
        if self.unresolved_len() >= self.max_instance_options {
            return FastPropose::InstanceFull;
        }
        let status = self.validate(&opt);
        let txn = opt.txn;
        self.append_decided(opt, status);
        self.accepted_ballot = Some(self.promised);
        // A Visibility that overtook the proposal resolves immediately.
        if self.outcomes.contains_key(&txn) {
            self.resolve_entry(txn);
            self.try_advance();
        }
        FastPropose::Vote(self.vote())
    }

    /// The base check — the one rule for who may join the stream of a
    /// ballot that skipped Phase 1. `Some(nack)` when this acceptor must
    /// refuse `p`: a base-checked append ([`Base::Digest`]) whose ballot
    /// it would join from a cstruct other than the one the leader
    /// extends. Pure — a storage node asks before it logs the payload,
    /// [`Self::classic_accept`] asks again.
    ///
    /// `nack` is what the refusal answers with: the first ballot past
    /// `p`'s own. The acceptor promised no such thing; it says that no
    /// ballot up to `p`'s will do here and only one Phase 1 establishes
    /// can ("you skipped Phase 1"), in the one currency a leader
    /// compares — so that an ordinary Nack that merely *names* the
    /// leader's current ballot (a straggler about an older one) reads as
    /// no news, and this one as news.
    ///
    /// Why a match may stand in for Phase 1. Let a classic quorum `Q`
    /// accept `C + x` at ballot `b′`, every member having held exactly
    /// `C`. Any value chosen at a lower ballot `k` through a quorum `R`
    /// was accepted by some `a ∈ Q ∩ R` before `a` promised `b′`; `a`'s
    /// cstruct only grows within an instance, so that value is a prefix
    /// of `C`, and `C + x` extends it — which is all Phase 1's
    /// ProvedSafe would have established. An acceptor holding anything
    /// else (it missed one of the predecessor's appends, or holds one
    /// the leader's replica never saw) is no witness for that argument
    /// and says so with a Nack; the leader then runs Phase 1 proper.
    /// That includes the acceptor whose cstruct is *empty* while the
    /// leader's base is not: appending there would fork the ballot's
    /// stream just the same. "Exactly `C`" is equality of traces, not of
    /// arrival orders: two replicas of the predecessor's stream that
    /// received commuting appends in opposite orders hold the same value.
    ///
    /// The argument needs the *quorum*: what a minority accepted at an
    /// assumed ballot proves nothing about what was chosen below it, and
    /// a later Phase 1 must not take it at its word — see
    /// [`crate::leader::judged_safe`].
    pub fn refuses_base(&self, p: &Phase2a) -> Option<Ballot> {
        let Base::Digest(base) = p.base else {
            return None;
        };
        // Nothing to prove: it accepted at `p.ballot` before (it is in
        // the stream), or it does not join at all — it promised higher
        // and Nacks, or is ahead of the leader and answers `Stale`.
        let in_stream = self.accepted_ballot == Some(p.ballot);
        if in_stream || p.ballot < self.promised || p.version < self.version {
            return None;
        }
        let held = if p.version == self.version {
            self.cstruct.trace_digest()
        } else {
            // Behind on decided instances: it adopts the leader's
            // snapshot first and holds what it carries over, its pending
            // options the snapshot has not folded in. Without the
            // snapshot there is nothing to compare yet: it asks first.
            let folded = &p.snapshot.as_ref()?.folded;
            let carried = self.pending().filter(|e| !folded.contains(&e.opt.txn));
            trace_digest_of(carried.map(|e| &**e))
        };
        (held != base).then(|| p.ballot.next_classic(p.ballot.proposer))
    }

    /// True when `p` cannot be judged here: it targets an instance this
    /// acceptor has not reached and travels without the committed state
    /// to catch up from. Pure — a storage node asks before it logs the
    /// payload, [`Self::classic_accept`] asks again and answers
    /// [`ClassicAccept::Behind`]. A ballot below the promise is not the
    /// acceptor's to join either way and gets its Nack.
    pub fn lacks_snapshot(&self, p: &Phase2a) -> bool {
        p.snapshot.is_none() && p.version > self.version && p.ballot >= self.promised
    }

    /// Classic Phase2a (Algorithm 3, line 72), extended with catch-up and
    /// instance-close/reopen control.
    pub fn classic_accept(&mut self, p: Phase2a) -> ClassicAccept {
        if p.ballot < self.promised {
            return ClassicAccept::Nack {
                promised: self.promised,
            };
        }
        if self.lacks_snapshot(&p) {
            return ClassicAccept::Behind;
        }
        if let Some(promised) = self.refuses_base(&p) {
            // Nothing is mutated, the promise included.
            return ClassicAccept::Nack { promised };
        }
        if let Some(snapshot) = p.snapshot.as_ref().filter(|_| p.version > self.version) {
            // We missed decisions; adopt the leader's committed state.
            self.adopt_snapshot(snapshot);
        } else if p.version < self.version {
            return ClassicAccept::Stale {
                snapshot: self.snapshot(),
            };
        }
        self.promised = p.ballot;
        self.accepted_ballot = Some(p.ballot);
        // On recovery rounds, adopt the proved-safe cstruct wholesale;
        // pipelined appends leave the current cstruct as is. Then
        // validate fresh options in payload order. Every step is a
        // deterministic function of (payload, committed state), and the
        // leader serializes payloads, so acceptors that accept this
        // ballot's Phase2a stream hold identical cstructs — that is why
        // "all storage nodes will always make the same abort or commit
        // decision" (§3.2.1).
        if let Base::ProvedSafe(safe) = p.base {
            self.replace_cstruct(safe);
        }
        for opt in p.new_options {
            // Skip duplicates and transactions this node already resolved
            // in an earlier instance (stale retries routed via the master).
            if self.cstruct.status_of(opt.txn).is_none() && !self.outcomes.contains_key(&opt.txn) {
                let status = self.validate(&opt);
                self.append_decided(opt, status);
            }
        }
        // Sticky within the instance: once a close is requested, later
        // appends must not cancel it (the demarcation re-base depends on
        // it, §3.4.2).
        self.close_on_resolve |= p.close_instance;
        if p.reopen_fast.is_some() {
            self.reopen_fast_after = p.reopen_fast;
        }
        // Resolve anything we already know the outcome of.
        let known: Vec<TxnId> = self
            .cstruct
            .entries()
            .filter(|e| self.outcomes.contains_key(&e.opt.txn))
            .map(|e| e.opt.txn)
            .collect();
        for txn in known {
            self.resolve_entry(txn);
        }
        self.try_advance();
        ClassicAccept::Vote(self.vote())
    }

    /// Known resolutions sorted by transaction, as the state exports them.
    fn sorted_outcomes(&self) -> Vec<(TxnId, Resolution)> {
        let mut outcomes: Vec<(TxnId, Resolution)> =
            self.outcomes.iter().map(|(t, r)| (*t, *r)).collect();
        outcomes.sort_unstable_by_key(|(t, _)| *t);
        outcomes
    }

    /// Executed resolutions sorted by transaction, as the state exports
    /// them.
    fn sorted_resolved(&self) -> Vec<TxnId> {
        let mut resolved: Vec<TxnId> = self.resolved_entries.iter().copied().collect();
        resolved.sort_unstable();
        resolved
    }

    /// Exports the acceptor's full state for a durable checkpoint.
    pub fn export_state(&self) -> AcceptorState {
        AcceptorState {
            version: self.version,
            value: self.value.clone(),
            base: self.base.clone(),
            promised: self.promised,
            accepted_ballot: self.accepted_ballot,
            entries: self.cstruct.shared().to_vec(),
            outcomes: self.sorted_outcomes(),
            resolved: self.sorted_resolved(),
            close_on_resolve: self.close_on_resolve,
            reopen_fast_after: self.reopen_fast_after,
            closed_resolved: self.closed_resolved.clone(),
            inherited_folded: self.inherited_folded.clone(),
            settle_log: self.settle_log.iter().copied().collect(),
            settle_seq: self.settle_seq,
            cstruct_epoch: self.cstruct_epoch,
        }
    }

    /// Appends exactly the bytes of `export_state().encode()` without
    /// building the export: nothing is cloned, and only the two hashed
    /// sets are copied to be sorted. Checkpoints and the log-structured
    /// engine's segment entries are written through here.
    ///
    /// Returns `out.len()` where the committed projection ends: the bytes
    /// [`Self::encode_committed`] would write are the state's prefix, so
    /// a caller that recorded where the state began can digest them
    /// without encoding again.
    pub fn encode_state(&self, out: &mut Enc) -> usize {
        let (outcomes, resolved) = (self.sorted_outcomes(), self.sorted_resolved());
        let (front, back) = self.settle_log.as_slices();
        StateView {
            version: self.version,
            value: &self.value,
            base: &self.base,
            promised: self.promised,
            accepted_ballot: self.accepted_ballot,
            entries: self.cstruct.shared(),
            outcomes: &outcomes,
            resolved: &resolved,
            close_on_resolve: self.close_on_resolve,
            reopen_fast_after: self.reopen_fast_after,
            closed_resolved: &self.closed_resolved,
            inherited_folded: &self.inherited_folded,
            settle_log: (front, back),
            settle_seq: self.settle_seq,
            cstruct_epoch: self.cstruct_epoch,
        }
        .encode(out)
    }

    /// Appends the committed projection `(version, value)` — the prefix
    /// of [`Self::encode_state`] that replicas compare and anti-entropy
    /// digests.
    pub fn encode_committed(&self, out: &mut Enc) {
        encode_committed(self.version, &self.value, out);
    }

    /// Rebuilds an acceptor from an exported state (restart path).
    pub fn from_state(
        constraints: Arc<[AttrConstraint]>,
        n: usize,
        qf: usize,
        max_instance_options: usize,
        state: AcceptorState,
    ) -> Self {
        let mut cstruct = CStruct::new();
        for entry in state.entries {
            cstruct.append_entry(entry);
        }
        let outcomes: HashMap<TxnId, Resolution> = state.outcomes.into_iter().collect();
        let open = open_entries(&cstruct, &outcomes);
        let barriers = barrier_entries(&cstruct);
        let mut record = Self {
            n,
            qf,
            max_instance_options,
            constraints,
            version: state.version,
            value: state.value,
            base: state.base,
            promised: state.promised,
            accepted_ballot: state.accepted_ballot,
            cstruct,
            open,
            settled: Mark::START,
            barriers,
            outcomes,
            resolved_entries: state.resolved.into_iter().collect(),
            close_on_resolve: state.close_on_resolve,
            reopen_fast_after: state.reopen_fast_after,
            closed_resolved: state.closed_resolved,
            inherited_folded: state.inherited_folded,
            settle_log: state.settle_log.into_iter().collect(),
            settle_seq: state.settle_seq,
            cstruct_epoch: state.cstruct_epoch,
        };
        record.advance_settled();
        record
    }

    /// The outcome owed to a retried proposal of `txn` when this record
    /// is done with it — on the classic path as much as the fast one
    /// ([`Self::fast_propose`] answers `AlreadyResolved` with it):
    ///
    /// * **resolved and processed here** — the recorded outcome; if the
    ///   record is gone (snapshot-folded or truncated metadata) the
    ///   transaction can only have committed, aborted options never fold
    ///   into values;
    /// * **aborted, the option never learned accepted, never seen here**
    ///   (an abort by dangling recovery behind a failed data center
    ///   lands as such a bare outcome) — final all the same: the option
    ///   executes nothing and consumes no version, and re-entering an
    ///   instance could only append an entry no vote fan-out would name;
    /// * **anything else this record has not processed** — *not*
    ///   settled: a committed option still has to be appended and
    ///   executed on arrival, and an aborted one that was learned
    ///   accepted still has to consume its instance's version here as
    ///   it did at the replicas that held it.
    pub fn settled_outcome(&self, txn: TxnId) -> Option<TxnOutcome> {
        let recorded = self.outcomes.get(&txn);
        if self.resolved_entries.contains(&txn) {
            return Some(recorded.map_or(TxnOutcome::Committed, |r| r.outcome));
        }
        recorded
            .filter(|r| r.outcome == TxnOutcome::Aborted && !r.learned_accepted)
            .map(|r| r.outcome)
    }

    /// Options of the current instance that are already resolved —
    /// committed commutative updates whose entries stay in the cstruct
    /// until the instance closes. A peer helping a restarted replica
    /// catch up ships exactly these (each option "includes all necessary
    /// information to reconstruct the state", §3.2.3).
    pub fn resolved_in_instance(&self) -> Vec<(TxnOption, Resolution)> {
        self.cstruct
            .entries()
            .filter_map(|e| self.outcomes.get(&e.opt.txn).map(|r| (e.opt.clone(), *r)))
            .collect()
    }

    /// Everything a recovering peer needs to catch up on this record:
    /// resolved options of the current instance plus the retained ring of
    /// committed commutative options from recently closed instances.
    pub fn sync_payload(&self) -> Vec<(TxnOption, Resolution)> {
        let mut payload = self.resolved_in_instance();
        let mut seen: HashSet<TxnId> = payload.iter().map(|(o, _)| o.txn).collect();
        for (opt, resolution) in &self.closed_resolved {
            if seen.insert(opt.txn) {
                payload.push((opt.clone(), *resolution));
            }
        }
        payload
    }

    /// Installs a learned option shipped by a peer (anti-entropy after a
    /// restart): appends the entry if this node never saw the proposal,
    /// records the authoritative resolution and executes it. Idempotent.
    /// Returns `true` when local state changed.
    pub fn install_learned(&mut self, opt: TxnOption, resolution: Resolution) -> bool {
        let txn = opt.txn;
        if self.resolved_entries.contains(&txn) {
            return false;
        }
        if !self.outcomes.contains_key(&txn) {
            self.note_outcome(txn, resolution);
        }
        if self.cstruct.entry_of(txn).is_none() {
            let status = if resolution.learned_accepted {
                OptionStatus::Accepted
            } else {
                OptionStatus::Rejected(AbortReason::Resolved)
            };
            self.append_decided(opt, status);
            self.accepted_ballot.get_or_insert(self.promised);
        }
        self.resolve_entry(txn);
        self.try_advance();
        true
    }

    /// True when [`AcceptorRecord::sync_from_peer`] with these arguments
    /// would change local state — lets callers skip WAL-logging no-op
    /// sync traffic.
    pub fn sync_would_change(
        &self,
        snapshot: &RecordSnapshot,
        resolved: &[(TxnOption, Resolution)],
    ) -> bool {
        if snapshot.version > self.version {
            return true;
        }
        if snapshot.version < self.version {
            return false;
        }
        resolved
            .iter()
            .any(|(opt, _)| !self.resolved_entries.contains(&opt.txn))
    }

    /// Catches up from a peer's committed state after a restart.
    ///
    /// * `snapshot.version > self.version`: adopt the committed state
    ///   wholesale. Every option of an older instance is already settled
    ///   inside a snapshot at a higher version (an instance only closes
    ///   once its pending options resolve), so the current cstruct is
    ///   discarded and the shipped resolutions are recorded as
    ///   already-executed *without* re-applying them.
    /// * equal versions: install any resolved options this node missed
    ///   while it was down (their effects are *not* in the snapshot's
    ///   version accounting, so they execute here).
    /// * `snapshot.version < self.version`: the peer is the stale one.
    ///
    /// Returns `true` when local state changed.
    pub fn sync_from_peer(
        &mut self,
        snapshot: &RecordSnapshot,
        resolved: &[(TxnOption, Resolution)],
    ) -> bool {
        if snapshot.version > self.version {
            self.adopt_snapshot(snapshot);
            for (opt, resolution) in resolved {
                self.note_outcome(opt.txn, *resolution);
                if self.resolved_entries.insert(opt.txn) {
                    self.note_inherited(opt.txn);
                    self.note_settled(opt.txn);
                }
                self.remove_entry(opt.txn);
            }
            true
        } else if snapshot.version == self.version {
            let mut changed = false;
            for (opt, resolution) in resolved {
                changed |= self.install_learned(opt.clone(), *resolution);
            }
            changed
        } else {
            false
        }
    }

    /// True when applying a *committed* visibility for `txn` would land
    /// as a bare outcome: this node never accepted the option (bounced
    /// proposal, divergent ballot mode), so it cannot execute the
    /// learned update and its value silently falls behind its peers.
    /// Callers use this to trigger a targeted anti-entropy pull — the
    /// same class of divergence repair delta votes rely on.
    pub fn would_miss_execution(&self, txn: TxnId) -> bool {
        !self.outcomes.contains_key(&txn) && self.missing_execution(txn)
    }

    /// True while `txn`'s learned update has not executed here and its
    /// option is nowhere to be found locally — the state a bare
    /// committed outcome leaves behind until a peer pull repairs it.
    pub fn missing_execution(&self, txn: TxnId) -> bool {
        !self.resolved_entries.contains(&txn) && self.cstruct.entry_of(txn).is_none()
    }

    /// Handles a Visibility/Learned message (Algorithm 3, line 100).
    /// Returns `true` if this resolution advanced the instance.
    ///
    /// `learned_accepted` is the coordinator's learned status for this
    /// record's option — the authoritative decision, which may differ
    /// from this node's minority vote.
    pub fn apply_visibility(
        &mut self,
        txn: TxnId,
        outcome: TxnOutcome,
        learned_accepted: bool,
    ) -> bool {
        if self.outcomes.contains_key(&txn) {
            // Duplicate (e.g. both the coordinator and a recovery
            // coordinator resolved the transaction).
            return false;
        }
        self.note_outcome(
            txn,
            Resolution {
                outcome,
                learned_accepted,
            },
        );
        let before = self.version;
        self.resolve_entry(txn);
        self.try_advance();
        if !self.resolved_entries.contains(&txn) {
            // The option never reached this node (only the fan-out did):
            // enroll the bare outcome for truncation directly, or the
            // `outcomes` map would grow with every transaction whose
            // Visibility is broadcast here.
            self.note_settled(txn);
        }
        self.version != before
    }

    /// The vote for the current state with the whole cstruct — what
    /// recovery queries (`StatusResp`) carry, and the oracle the
    /// property tests compare [`Self::vote`] against.
    pub fn phase2b(&self) -> Phase2b {
        self.vote_from(Mark::START)
    }

    /// The vote coordinators learn from: the cstruct from the settled
    /// watermark on, at the cost of the entries still in play rather
    /// than of the instance's history. A coordinator is sent what it
    /// says of the coordinator's own options ([`Self::verdicts`]) and
    /// the vote itself when it pulls it.
    ///
    /// What the watermark hides cannot change a learner's verdict.
    /// Without a barrier entry (accepted physical write or read guard)
    /// every entry of the cstruct is commutative or rejected, all of
    /// them commute, so an option is front-movable in the tail exactly
    /// when it is in the whole cstruct and a quorum's glb over tails
    /// holds it exactly when the glb over whole cstructs does. With a
    /// barrier the vote ships everything: the barrier does not commute
    /// with the committed deltas before it, and a learner may only count
    /// it as chosen where those are common to the quorum too.
    pub fn vote(&self) -> Phase2b {
        self.vote_from(if self.barriers == 0 {
            self.settled
        } else {
            Mark::START
        })
    }

    fn vote_from(&self, from: Mark) -> Phase2b {
        debug_assert!(
            self.open
                .iter()
                .map(Arc::as_ptr)
                .eq(open_entries(&self.cstruct, &self.outcomes)
                    .iter()
                    .map(Arc::as_ptr)),
            "open set out of step with the cstruct"
        );
        debug_assert_eq!(
            (self.settled, self.barriers),
            self.settled_from_scratch(),
            "settled watermark out of step with the cstruct"
        );
        Phase2b {
            ballot: self.accepted_ballot.unwrap_or(self.promised),
            version: self.version,
            cstruct: self.cstruct.suffix(from),
            epoch: self.cstruct_epoch,
        }
    }

    /// The settled watermark and barrier count by definition: the mark
    /// after the longest prefix of entries with a recorded outcome, and
    /// the number of accepted physical or guard entries.
    fn settled_from_scratch(&self) -> (Mark, usize) {
        let settled = self
            .cstruct
            .entries()
            .take_while(|e| self.outcomes.contains_key(&e.opt.txn))
            .fold(Mark::START, Mark::after);
        (settled, barrier_entries(&self.cstruct))
    }

    /// The settled watermark: where [`Self::vote`] starts unless a
    /// barrier entry makes it ship the whole cstruct (tests, benches).
    pub fn settled_watermark(&self) -> Mark {
        self.settled
    }

    /// `vote` — this record's [`Self::vote`] — as each coordinator that
    /// can still learn from it is sent it, in node order: the owners of
    /// the entries without a recorded outcome here, each with the
    /// letters of its own. Coordinators of resolved entries already
    /// decided (they produced the Visibility, or the retry path answers
    /// them `AlreadyResolved`), so a vote to them is pure wire waste.
    /// One pass over the entries the vote holds.
    pub fn verdicts(&self, vote: &Phase2b) -> Vec<(NodeId, VoteVerdict)> {
        let mut out: Vec<(NodeId, VoteVerdict)> = Vec::new();
        for (entry, movable) in vote.cstruct.letters() {
            let txn = entry.opt.txn;
            if self.outcomes.contains_key(&txn) {
                continue;
            }
            let at = match out.binary_search_by_key(&txn.coordinator, |(to, _)| *to) {
                Ok(at) => at,
                Err(at) => {
                    let verdict = VoteVerdict {
                        ballot: vote.ballot,
                        version: vote.version,
                        letters: Vec::new(),
                    };
                    out.insert(at, (txn.coordinator, verdict));
                    at
                }
            };
            out[at].1.letters.push(Letter {
                txn,
                status: entry.status,
                movable,
            });
        }
        out
    }

    /// True once this record knows how `txn` ended, by a Visibility of
    /// its own or folded into a snapshot it adopted. An option this
    /// replica has never seen has no outcome here: its Phase2a may still
    /// be on the way.
    pub fn has_outcome(&self, txn: TxnId) -> bool {
        self.outcomes.contains_key(&txn) || self.resolved_entries.contains(&txn)
    }

    /// Options accepted but with unknown transaction outcome.
    fn pending(&self) -> impl Iterator<Item = &Arc<Entry>> {
        self.open.iter().filter(|e| e.status.is_accepted())
    }

    fn unresolved_len(&self) -> usize {
        self.pending().count()
    }

    /// SETCOMPATIBLE (Algorithm 3, lines 83–99): the storage node's active
    /// accept/reject decision.
    fn validate(&self, opt: &TxnOption) -> OptionStatus {
        match &opt.op {
            UpdateOp::Physical(p) => {
                // validSingle: no other pending option may exist.
                if self.pending().next().is_some() {
                    return OptionStatus::Rejected(AbortReason::PendingOption);
                }
                match p.vread {
                    None => {
                        // Insert: the record must not exist.
                        if self.value.is_some() {
                            OptionStatus::Rejected(AbortReason::AlreadyExists)
                        } else {
                            OptionStatus::Accepted
                        }
                    }
                    Some(vread) => {
                        if self.value.is_none() || vread != self.version {
                            OptionStatus::Rejected(AbortReason::StaleRead)
                        } else {
                            OptionStatus::Accepted
                        }
                    }
                }
            }
            UpdateOp::ReadGuard(vread) => {
                // §4.4 serializability: the read is valid iff the version
                // still matches and no write can sneak between the read
                // and the commit (pending writes reject the guard; other
                // guards — shared locks — coexist).
                if self.value.is_none() || *vread != self.version {
                    return OptionStatus::Rejected(AbortReason::StaleRead);
                }
                if self.pending().any(|e| !e.opt.op.is_guard()) {
                    return OptionStatus::Rejected(AbortReason::PendingOption);
                }
                OptionStatus::Accepted
            }
            UpdateOp::Commutative(c) => {
                let Some(base) = &self.base else {
                    return OptionStatus::Rejected(AbortReason::ConstraintViolation);
                };
                // A pending physical replacement — or a pending read
                // guard (shared lock) — blocks deltas.
                if self.pending().any(|e| !e.opt.is_commutative()) {
                    return OptionStatus::Rejected(AbortReason::PendingOption);
                }
                for constraint in self.constraints.iter() {
                    let candidate = c.delta_for(&constraint.attr);
                    if candidate == 0 {
                        continue;
                    }
                    let view = self.escrow_view(base, &constraint.attr);
                    if let Err(reason) =
                        escrow_accepts(constraint, self.n, self.qf, view, candidate)
                    {
                        return OptionStatus::Rejected(reason);
                    }
                }
                OptionStatus::Accepted
            }
        }
    }

    /// True when `opt` was computed against a version this record has not
    /// reached yet: its `vread` names a decided instance this replica is
    /// still missing. [`Self::validate`] could only answer such an option
    /// with `StaleRead` or `PendingOption` — a "no" about this replica's
    /// lag, not about the transaction — so the storage node holds the
    /// proposal until the record catches up instead of judging it (see
    /// the stale-proposal rule in `mdcc_core::node`). Pure: no state
    /// changes. Inserts and commutative deltas read no version and are
    /// never behind.
    pub fn behind(&self, opt: &TxnOption) -> bool {
        opt.op.read_version().is_some_and(|v| v > self.version)
    }

    /// Builds the escrow view of one attribute: base `X`, the net of
    /// deltas already committed within this instance, and the sign-split
    /// pending deltas.
    fn escrow_view(&self, base: &Row, attr: &str) -> EscrowView {
        let base_v = base.get_int(attr).unwrap_or(0);
        let current = self
            .value
            .as_ref()
            .and_then(|v| v.get_int(attr))
            .unwrap_or(0);
        let mut pending_neg = 0;
        let mut pending_pos = 0;
        for e in self.pending() {
            if let UpdateOp::Commutative(c) = &e.opt.op {
                let d = c.delta_for(attr);
                if d < 0 {
                    pending_neg += d;
                } else {
                    pending_pos += d;
                }
            }
        }
        EscrowView {
            base: base_v,
            committed: current - base_v,
            pending_neg,
            pending_pos,
        }
    }

    /// Applies the recorded resolution of `txn` to its entry in the
    /// current instance, exactly once per node.
    ///
    /// The *learned* status in the resolution — not this node's possibly
    /// minority local vote — drives the effects, so every replica makes
    /// identical instance-accounting decisions:
    ///
    /// * committed → execute the update; physical updates close the
    ///   instance (new version);
    /// * aborted but learned-accepted → the instance's version is still
    ///   consumed for physical options (§3.2.1);
    /// * aborted and learned-rejected → the entry simply leaves the
    ///   cstruct (escrow release; it was never going to execute).
    fn resolve_entry(&mut self, txn: TxnId) {
        let Some(entry) = self.cstruct.entry_of(txn).map(Arc::clone) else {
            return;
        };
        if !self.resolved_entries.insert(txn) {
            return;
        }
        let op = &entry.opt.op;
        let resolution = self.outcomes[&txn];
        match resolution.outcome {
            TxnOutcome::Committed => {
                // Execute even if *locally* rejected: the learned global
                // decision outranks this node's minority vote, and data
                // must converge.
                match op {
                    UpdateOp::Physical(p) => {
                        self.value = p.value.clone();
                    }
                    UpdateOp::Commutative(c) => self.apply_deltas(c),
                    UpdateOp::ReadGuard(_) => {
                        // Guards execute as no-ops; the lock releases.
                        self.remove_entry(txn);
                    }
                }
                if op.is_physical() {
                    self.advance_instance();
                }
            }
            TxnOutcome::Aborted => {
                if resolution.learned_accepted && op.is_physical() {
                    self.advance_instance();
                } else {
                    self.remove_entry(txn);
                }
            }
        }
        self.note_settled(txn);
    }

    fn try_advance(&mut self) {
        if self.close_on_resolve && self.pending().next().is_none() {
            self.advance_instance();
        }
    }

    /// Closes the current instance: bump the version, re-base the value
    /// (new demarcation base, §3.4.2) and open the next instance in fast
    /// or classic mode per the leader's instruction.
    fn advance_instance(&mut self) {
        // Preserve the closing instance's committed commutative options
        // for restart anti-entropy (see `closed_resolved`). Rejected and
        // physical options need no payload: aborts execute nothing and a
        // missed physical decision shows up as version lag, which
        // snapshot catch-up repairs.
        let keep: Vec<(TxnOption, Resolution)> = self
            .cstruct
            .entries()
            .filter(|e| e.opt.is_commutative())
            .filter_map(|e| {
                let r = self.outcomes.get(&e.opt.txn)?;
                (r.outcome == TxnOutcome::Committed).then(|| (e.opt.clone(), *r))
            })
            .collect();
        self.closed_resolved.extend(keep);
        if self.closed_resolved.len() > CLOSED_RESOLVED_CAP {
            let excess = self.closed_resolved.len() - CLOSED_RESOLVED_CAP;
            self.closed_resolved.drain(..excess);
        }
        self.version = self.version.next();
        self.base = self.value.clone();
        self.replace_cstruct(CStruct::new());
        self.accepted_ballot = None;
        self.close_on_resolve = false;
        if let Some(fast) = self.reopen_fast_after.take() {
            if fast > self.promised {
                self.promised = fast;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::wire::to_bytes;
    use mdcc_common::{CommutativeUpdate, Key, NodeId, PhysicalUpdate, TableId};

    fn key() -> Key {
        Key::new(TableId(0), "item1")
    }

    fn stock_constraints() -> Arc<[AttrConstraint]> {
        Arc::from(vec![AttrConstraint::at_least("stock", 0)])
    }

    fn acceptor_with_stock(stock: i64) -> AcceptorRecord {
        AcceptorRecord::with_value(
            stock_constraints(),
            5,
            4,
            32,
            Row::new().with("stock", stock),
        )
    }

    fn txn(seq: u64) -> TxnId {
        TxnId::new(NodeId(9), seq)
    }

    fn dec(seq: u64, amount: i64) -> TxnOption {
        TxnOption::solo(
            txn(seq),
            key(),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -amount)),
        )
    }

    fn phys_write(seq: u64, vread: u64, stock: i64) -> TxnOption {
        TxnOption::solo(
            txn(seq),
            key(),
            UpdateOp::Physical(PhysicalUpdate::write(
                Version(vread),
                Row::new().with("stock", stock),
            )),
        )
    }

    fn status_of(v: &FastPropose, t: TxnId) -> OptionStatus {
        match v {
            FastPropose::Vote(p) => p.cstruct.status_of(t).expect("present"),
            other => panic!("expected vote, got {other:?}"),
        }
    }

    #[test]
    fn fresh_record_accepts_insert_and_rejects_duplicate() {
        let mut a = AcceptorRecord::new(stock_constraints(), 5, 4, 32);
        let ins = TxnOption::solo(
            txn(1),
            key(),
            UpdateOp::Physical(PhysicalUpdate::insert(Row::new().with("stock", 5))),
        );
        let v = a.fast_propose(ins.clone());
        assert!(status_of(&v, txn(1)).is_accepted());
        // Commit it: the record now exists at version 1.
        assert!(a.apply_visibility(txn(1), TxnOutcome::Committed, true));
        assert_eq!(a.version(), Version(1));
        assert_eq!(a.value().unwrap().get_int("stock"), Some(5));
        // A second insert must be rejected.
        let ins2 = TxnOption::solo(
            txn(2),
            key(),
            UpdateOp::Physical(PhysicalUpdate::insert(Row::new())),
        );
        let v2 = a.fast_propose(ins2);
        assert_eq!(
            status_of(&v2, txn(2)),
            OptionStatus::Rejected(AbortReason::AlreadyExists)
        );
    }

    #[test]
    fn physical_update_checks_vread() {
        let mut a = acceptor_with_stock(5);
        assert_eq!(a.version(), Version(1));
        let stale = phys_write(1, 0, 9);
        assert_eq!(
            status_of(&a.fast_propose(stale), txn(1)),
            OptionStatus::Rejected(AbortReason::StaleRead)
        );
        let fresh = phys_write(2, 1, 9);
        assert!(status_of(&a.fast_propose(fresh), txn(2)).is_accepted());
        a.apply_visibility(txn(2), TxnOutcome::Committed, true);
        assert_eq!(a.value().unwrap().get_int("stock"), Some(9));
        assert_eq!(a.version(), Version(2));
    }

    #[test]
    fn behind_means_the_option_read_a_version_not_reached_here() {
        let mut a = acceptor_with_stock(5);
        assert_eq!(a.version(), Version(1));
        // Physical update: behind only when it read a later version.
        assert!(!a.behind(&phys_write(1, 0, 9)), "read an older version");
        assert!(!a.behind(&phys_write(1, 1, 9)), "read this version");
        assert!(a.behind(&phys_write(1, 2, 9)), "read the next version");
        // Read guard: same rule.
        let guard = |v| TxnOption::solo(txn(2), key(), UpdateOp::ReadGuard(Version(v)));
        assert!(!a.behind(&guard(1)));
        assert!(a.behind(&guard(3)));
        // Inserts and commutative deltas read no version.
        let insert = TxnOption::solo(
            txn(3),
            key(),
            UpdateOp::Physical(PhysicalUpdate::insert(Row::new())),
        );
        assert!(!a.behind(&insert));
        assert!(!a.behind(&dec(4, 1)));
        // A record that never existed here is at version zero.
        let absent = AcceptorRecord::new(stock_constraints(), 5, 4, 32);
        assert!(absent.behind(&phys_write(5, 1, 9)));
        assert!(!absent.behind(&insert));
        // A tombstone keeps its version: a write that read the deleted
        // version is judged (and rejected), one that read past it waits.
        let delete = TxnOption::solo(
            txn(6),
            key(),
            UpdateOp::Physical(PhysicalUpdate::delete(Version(1))),
        );
        assert!(status_of(&a.fast_propose(delete), txn(6)).is_accepted());
        a.apply_visibility(txn(6), TxnOutcome::Committed, true);
        assert_eq!((a.version(), a.value()), (Version(2), None));
        assert!(!a.behind(&phys_write(7, 2, 9)));
        assert!(a.behind(&phys_write(7, 3, 9)));
        // Asking changes nothing.
        let before = format!("{:?}", a.export_state());
        let _ = a.behind(&phys_write(8, 9, 9));
        assert_eq!(format!("{:?}", a.export_state()), before);
    }

    #[test]
    fn pending_physical_option_blocks_the_next_writer() {
        // The deadlock-avoidance rule (§3.2.2): reject instead of wait.
        let mut a = acceptor_with_stock(5);
        assert!(status_of(&a.fast_propose(phys_write(1, 1, 6)), txn(1)).is_accepted());
        assert_eq!(
            status_of(&a.fast_propose(phys_write(2, 1, 7)), txn(2)),
            OptionStatus::Rejected(AbortReason::PendingOption)
        );
    }

    #[test]
    fn aborted_physical_option_still_consumes_the_version() {
        let mut a = acceptor_with_stock(5);
        a.fast_propose(phys_write(1, 1, 6));
        assert!(a.apply_visibility(txn(1), TxnOutcome::Aborted, true));
        assert_eq!(a.version(), Version(2), "version consumed by the abort");
        assert_eq!(
            a.value().unwrap().get_int("stock"),
            Some(5),
            "value untouched"
        );
        // A transaction that re-reads (version 2) succeeds now.
        let v = a.fast_propose(phys_write(2, 2, 7));
        assert!(status_of(&v, txn(2)).is_accepted());
    }

    #[test]
    fn commutative_options_coexist() {
        let mut a = acceptor_with_stock(10);
        assert!(status_of(&a.fast_propose(dec(1, 2)), txn(1)).is_accepted());
        assert!(status_of(&a.fast_propose(dec(2, 3)), txn(2)).is_accepted());
        // Both commit; the deltas fold into the value, version unchanged
        // until the instance is closed by the master.
        a.apply_visibility(txn(1), TxnOutcome::Committed, true);
        a.apply_visibility(txn(2), TxnOutcome::Committed, true);
        assert_eq!(a.value().unwrap().get_int("stock"), Some(5));
        assert_eq!(a.version(), Version(1));
    }

    #[test]
    fn demarcation_limit_rejects_fourth_pending_decrement() {
        // Figure 2: X=4, five −1 options; a single node accepts three.
        let mut a = acceptor_with_stock(4);
        for i in 1..=3 {
            assert!(
                status_of(&a.fast_propose(dec(i, 1)), txn(i)).is_accepted(),
                "txn {i}"
            );
        }
        assert_eq!(
            status_of(&a.fast_propose(dec(4, 1)), txn(4)),
            OptionStatus::Rejected(AbortReason::DemarcationLimit)
        );
    }

    #[test]
    fn aborts_release_escrow() {
        let mut a = acceptor_with_stock(4);
        for i in 1..=3 {
            a.fast_propose(dec(i, 1));
        }
        a.apply_visibility(txn(2), TxnOutcome::Aborted, true);
        assert!(
            status_of(&a.fast_propose(dec(4, 1)), txn(4)).is_accepted(),
            "released escrow re-admits the fourth option"
        );
    }

    #[test]
    fn pending_commutative_blocks_physical_but_not_vice_versa_check() {
        let mut a = acceptor_with_stock(10);
        a.fast_propose(dec(1, 1));
        // Physical write while a delta is pending → rejected (validSingle).
        assert_eq!(
            status_of(&a.fast_propose(phys_write(2, 1, 99)), txn(2)),
            OptionStatus::Rejected(AbortReason::PendingOption)
        );
    }

    #[test]
    fn pending_physical_blocks_commutative() {
        let mut a = acceptor_with_stock(10);
        a.fast_propose(phys_write(1, 1, 99));
        assert_eq!(
            status_of(&a.fast_propose(dec(2, 1)), txn(2)),
            OptionStatus::Rejected(AbortReason::PendingOption)
        );
    }

    #[test]
    fn classic_ballot_bounces_fast_proposals() {
        let mut a = acceptor_with_stock(5);
        let m = Ballot::classic(1, NodeId(3));
        a.phase1a(m);
        match a.fast_propose(dec(1, 1)) {
            FastPropose::NotFast { promised } => assert_eq!(promised, m),
            other => panic!("expected NotFast, got {other:?}"),
        }
    }

    #[test]
    fn lease_floor_admits_holder_and_fences_the_deposed() {
        // Lease-carried Phase1: installing the lease ballot as the
        // promise floor replaces the per-record Phase1a/Phase1b round.
        let mut a = acceptor_with_stock(4);
        let floor = Ballot::lease(3, NodeId(2));
        assert!(a.raise_promise(floor));
        assert!(
            !a.raise_promise(Ballot::classic(2, NodeId(4))),
            "no regress"
        );
        // The holder's first Phase2a at the floor ballot is valid with
        // no prior Phase1a on this record.
        let r = a.classic_accept(Phase2a {
            ballot: floor,
            version: Version(1),
            snapshot: None,
            base: Base::Held,
            new_options: vec![dec(1, 1)],
            close_instance: false,
            reopen_fast: None,
        });
        assert!(matches!(r, ClassicAccept::Vote(_)), "floor admits holder");
        // A deposed holder's lower lease ballot Nacks...
        let deposed = Ballot::lease(2, NodeId(4));
        match a.classic_accept(Phase2a {
            ballot: deposed,
            version: Version(1),
            snapshot: None,
            base: Base::Held,
            new_options: vec![dec(2, 1)],
            close_instance: false,
            reopen_fast: None,
        }) {
            ClassicAccept::Nack { promised } => assert_eq!(promised, floor),
            other => panic!("expected nack, got {other:?}"),
        }
        // ...and fast proposals bounce to the master while floored.
        match a.fast_propose(dec(3, 1)) {
            FastPropose::NotFast { promised } => assert_eq!(promised, floor),
            other => panic!("expected NotFast, got {other:?}"),
        }
    }

    #[test]
    fn phase1a_promises_monotonically() {
        let mut a = acceptor_with_stock(5);
        let m1 = Ballot::classic(2, NodeId(1));
        let m2 = Ballot::classic(1, NodeId(2));
        assert_eq!(a.phase1a(m1).promised, m1);
        // A lower ballot cannot regress the promise.
        assert_eq!(a.phase1a(m2).promised, m1);
    }

    #[test]
    fn classic_accept_validates_new_options_and_closes() {
        let mut a = acceptor_with_stock(4);
        let m = Ballot::classic(1, NodeId(3));
        a.phase1a(m);
        let result = a.classic_accept(Phase2a {
            ballot: m,
            version: Version(1),
            snapshot: None,
            base: Base::Held,
            new_options: vec![dec(1, 2)],
            close_instance: true,
            reopen_fast: Some(Ballot::fast(2, NodeId(3))),
        });
        let ClassicAccept::Vote(vote) = result else {
            panic!("expected vote");
        };
        assert!(vote.cstruct.status_of(txn(1)).unwrap().is_accepted());
        // Resolving the only pending option closes and re-bases the
        // instance, reopening fast mode.
        assert!(a.apply_visibility(txn(1), TxnOutcome::Committed, true));
        assert_eq!(a.version(), Version(2));
        assert_eq!(a.value().unwrap().get_int("stock"), Some(2));
        assert!(a.promised().is_fast());
        // Demarcation now works against the new base of 2.
        assert!(status_of(&a.fast_propose(dec(5, 1)), txn(5)).is_accepted());
    }

    #[test]
    fn classic_accept_nacks_old_ballots() {
        let mut a = acceptor_with_stock(5);
        let high = Ballot::classic(5, NodeId(1));
        a.phase1a(high);
        let low = Ballot::classic(1, NodeId(2));
        match a.classic_accept(Phase2a {
            ballot: low,
            version: Version(1),
            snapshot: None,
            base: Base::Held,
            new_options: vec![],
            close_instance: false,
            reopen_fast: None,
        }) {
            ClassicAccept::Nack { promised } => assert_eq!(promised, high),
            other => panic!("expected nack, got {other:?}"),
        }
    }

    #[test]
    fn catch_up_adopts_leader_snapshot() {
        let mut behind = acceptor_with_stock(5);
        let m = Ballot::classic(1, NodeId(3));
        behind.phase1a(m);
        let newer = RecordSnapshot {
            version: Version(4),
            value: Some(Row::new().with("stock", 1)),
            folded: Vec::new(),
        };
        let lean = Phase2a {
            ballot: m,
            version: Version(4),
            snapshot: None,
            base: Base::Held,
            new_options: vec![dec(1, 1)],
            close_instance: false,
            reopen_fast: None,
        };
        // The broadcast names the instance only: a behind acceptor
        // touches nothing and asks.
        let before = to_bytes(&behind.export_state());
        assert!(behind.lacks_snapshot(&lean));
        assert!(matches!(
            behind.classic_accept(lean.clone()),
            ClassicAccept::Behind
        ));
        assert_eq!(to_bytes(&behind.export_state()), before);
        // The leader's answer carries the state to catch up from.
        let r = behind.classic_accept(Phase2a {
            snapshot: Some(newer.clone()),
            ..lean.clone()
        });
        assert!(matches!(r, ClassicAccept::Vote(_)));
        // Caught up, the lean form is an ordinary (duplicate) append.
        assert!(!behind.lacks_snapshot(&lean));
        assert!(matches!(
            behind.classic_accept(lean),
            ClassicAccept::Vote(_)
        ));
        assert_eq!(behind.cstruct().len(), 1);
        assert_eq!(behind.version(), Version(4));
        assert_eq!(behind.value().unwrap().get_int("stock"), Some(1));
    }

    #[test]
    fn adoption_keeps_a_committed_delta_the_snapshot_does_not_fold() {
        // The acceptor took an option in instance 1 and heard its outcome
        // while it waited for the snapshot of instance 2 it had asked
        // for. The snapshot's owner closed instance 1 without the option
        // (the leader proposes it again in instance 2), so its value
        // lacks the delta this node already executed.
        let m = Ballot::classic(1, NodeId(3));
        let round = |version, snapshot| Phase2a {
            ballot: m,
            version: Version(version),
            snapshot,
            base: Base::Held,
            new_options: vec![dec(1, 3)],
            close_instance: false,
            reopen_fast: None,
        };
        let executed = || {
            let mut a = acceptor_with_stock(10);
            assert!(matches!(
                a.classic_accept(round(1, None)),
                ClassicAccept::Vote(_)
            ));
            a.apply_visibility(txn(1), TxnOutcome::Committed, true);
            assert_eq!(a.value().unwrap().get_int("stock"), Some(7));
            a
        };
        let snapshot = |stock, folded| RecordSnapshot {
            version: Version(2),
            value: Some(Row::new().with("stock", stock)),
            folded,
        };
        let mut a = executed();
        let r = a.classic_accept(round(2, Some(snapshot(10, Vec::new()))));
        assert!(matches!(r, ClassicAccept::Vote(_)));
        assert_eq!(a.version(), Version(2));
        assert_eq!(a.value().unwrap().get_int("stock"), Some(7), "kept");
        assert!(a.cstruct().is_empty(), "settled, not proposed again");
        assert!(a.snapshot().folded.contains(&txn(1)));
        // A snapshot that folds the option already has the delta.
        let mut b = executed();
        let _ = b.classic_accept(round(2, Some(snapshot(7, vec![txn(1)]))));
        assert_eq!(b.value().unwrap().get_int("stock"), Some(7));
    }

    #[test]
    fn stale_leader_is_told_to_catch_up() {
        let mut ahead = acceptor_with_stock(5);
        // Advance to version 2 locally.
        ahead.fast_propose(phys_write(1, 1, 6));
        ahead.apply_visibility(txn(1), TxnOutcome::Committed, true);
        assert_eq!(ahead.version(), Version(2));
        let m = Ballot::classic(1, NodeId(3));
        ahead.phase1a(m);
        match ahead.classic_accept(Phase2a {
            ballot: m,
            version: Version(1),
            snapshot: None,
            base: Base::Held,
            new_options: vec![],
            close_instance: false,
            reopen_fast: None,
        }) {
            ClassicAccept::Stale { snapshot } => assert_eq!(snapshot.version, Version(2)),
            other => panic!("expected stale, got {other:?}"),
        }
    }

    #[test]
    fn visibility_before_proposal_resolves_on_arrival() {
        let mut a = acceptor_with_stock(10);
        // The Visibility overtakes the Propose in the network.
        a.apply_visibility(txn(1), TxnOutcome::Committed, true);
        a.fast_propose(dec(1, 4));
        assert_eq!(a.value().unwrap().get_int("stock"), Some(6));
    }

    #[test]
    fn a_retry_of_a_bare_abort_is_answered_without_entering_the_instance() {
        let mut a = acceptor_with_stock(10);
        a.fast_propose(dec(1, 1));
        // Dangling recovery aborted transaction 7 while its coordinator
        // was cut off; the option never reached this record, so the
        // abort is an outcome without an entry.
        a.apply_visibility(txn(7), TxnOutcome::Aborted, false);
        let (epoch, len) = (a.cstruct_epoch(), a.cstruct().len());
        let answered =
            |r: FastPropose| matches!(r, FastPropose::AlreadyResolved(TxnOutcome::Aborted));
        // Fast retry.
        assert!(answered(a.fast_propose(dec(7, 1))));
        // Classic and mastered retries: the master consults this before
        // leading, and answers instead.
        assert_eq!(a.settled_outcome(txn(7)), Some(TxnOutcome::Aborted));
        // The answer does not depend on the ballot mode...
        let m = Ballot::classic(1, NodeId(3));
        a.phase1a(m);
        assert!(answered(a.fast_propose(dec(7, 1))));
        // ...and a Phase2a that names the transaction anyway appends
        // nothing.
        let r = a.classic_accept(Phase2a {
            ballot: m,
            version: a.version(),
            snapshot: None,
            base: Base::Held,
            new_options: vec![dec(7, 1)],
            close_instance: false,
            reopen_fast: None,
        });
        assert!(matches!(r, ClassicAccept::Vote(_)));
        assert_eq!((a.cstruct_epoch(), a.cstruct().len()), (epoch, len));
        assert!(a.cstruct().status_of(txn(7)).is_none());
        // An abort whose option *was* learned accepted is different: the
        // replicas that held the option consumed its instance's version,
        // so here the option still has to arrive and do the same.
        let mut b = acceptor_with_stock(10);
        b.apply_visibility(txn(8), TxnOutcome::Aborted, true);
        assert_eq!(b.settled_outcome(txn(8)), None);
        assert!(matches!(
            b.fast_propose(phys_write(8, 1, 3)),
            FastPropose::Vote(_)
        ));
        assert_eq!(b.version(), Version(2), "the abort consumed the version");
        assert_eq!(b.settled_outcome(txn(8)), Some(TxnOutcome::Aborted));
        // A committed transaction that executed here is answered too,
        // ahead of the duplicate-delivery re-vote its entry would get.
        a.apply_visibility(txn(1), TxnOutcome::Committed, true);
        assert!(a.cstruct().status_of(txn(1)).is_some());
        assert!(matches!(
            a.fast_propose(dec(1, 1)),
            FastPropose::AlreadyResolved(TxnOutcome::Committed)
        ));
    }

    #[test]
    fn duplicate_visibilities_apply_once() {
        let mut a = acceptor_with_stock(10);
        a.fast_propose(dec(1, 4));
        a.apply_visibility(txn(1), TxnOutcome::Committed, true);
        a.apply_visibility(txn(1), TxnOutcome::Committed, true);
        assert_eq!(a.value().unwrap().get_int("stock"), Some(6));
    }

    #[test]
    fn instance_full_reports_to_proposer() {
        let mut a = acceptor_with_stock(1_000_000);
        let cap = 4;
        let mut small = AcceptorRecord::with_value(
            stock_constraints(),
            5,
            4,
            cap,
            Row::new().with("stock", 1_000_000),
        );
        for i in 0..cap as u64 {
            assert!(matches!(
                small.fast_propose(dec(i + 1, 1)),
                FastPropose::Vote(_)
            ));
        }
        assert!(matches!(
            small.fast_propose(dec(99, 1)),
            FastPropose::InstanceFull
        ));
        // The default cap (32) is far from full here.
        assert!(matches!(a.fast_propose(dec(1, 1)), FastPropose::Vote(_)));
    }

    #[test]
    fn state_round_trip_preserves_behaviour() {
        let mut a = acceptor_with_stock(10);
        a.fast_propose(dec(1, 2));
        a.fast_propose(dec(2, 3));
        a.apply_visibility(txn(1), TxnOutcome::Committed, true);
        a.phase1a(Ballot::classic(1, NodeId(2)));

        let state = a.export_state();
        let mut b = AcceptorRecord::from_state(stock_constraints(), 5, 4, 32, state);
        assert_eq!(b.version(), a.version());
        assert_eq!(b.value(), a.value());
        assert_eq!(b.promised(), a.promised());
        assert_eq!(b.cstruct().len(), a.cstruct().len());
        // The clone continues exactly where the original stops.
        a.apply_visibility(txn(2), TxnOutcome::Committed, true);
        b.apply_visibility(txn(2), TxnOutcome::Committed, true);
        assert_eq!(b.value(), a.value());
        assert_eq!(
            format!("{:?}", b.export_state()),
            format!("{:?}", a.export_state()),
            "exported states stay identical after further operations"
        );
    }

    #[test]
    fn install_learned_executes_missed_commits_once() {
        // A replica that was down during the proposal gets the learned
        // option shipped by a peer: the delta applies exactly once.
        let mut a = acceptor_with_stock(10);
        let res = Resolution {
            outcome: TxnOutcome::Committed,
            learned_accepted: true,
        };
        assert!(a.install_learned(dec(1, 4), res));
        assert_eq!(a.value().unwrap().get_int("stock"), Some(6));
        assert!(!a.install_learned(dec(1, 4), res), "idempotent");
        assert_eq!(a.value().unwrap().get_int("stock"), Some(6));
        // A late Visibility for the same transaction is also a no-op.
        a.apply_visibility(txn(1), TxnOutcome::Committed, true);
        assert_eq!(a.value().unwrap().get_int("stock"), Some(6));
    }

    #[test]
    fn sync_adopts_newer_snapshots_without_reexecuting() {
        let mut behind = acceptor_with_stock(10);
        // Peer is two instances ahead; its resolved list describes options
        // whose effects are already inside the snapshot value.
        let newer = RecordSnapshot {
            version: Version(3),
            value: Some(Row::new().with("stock", 4)),
            folded: Vec::new(),
        };
        let resolved = vec![(
            dec(7, 2),
            Resolution {
                outcome: TxnOutcome::Committed,
                learned_accepted: true,
            },
        )];
        assert!(behind.sync_from_peer(&newer, &resolved));
        assert_eq!(behind.version(), Version(3));
        assert_eq!(behind.value().unwrap().get_int("stock"), Some(4));
        // The shipped resolution was recorded, not re-executed.
        assert_eq!(behind.outcome_of(txn(7)), Some(TxnOutcome::Committed));
        // A stale peer changes nothing.
        let older = RecordSnapshot {
            version: Version(1),
            value: Some(Row::new().with("stock", 99)),
            folded: Vec::new(),
        };
        assert!(!behind.sync_from_peer(&older, &[]));
        assert_eq!(behind.value().unwrap().get_int("stock"), Some(4));
    }

    #[test]
    fn sync_at_equal_version_installs_missed_deltas() {
        let mut a = acceptor_with_stock(10);
        let peer_snapshot = RecordSnapshot {
            version: Version(1),
            value: Some(Row::new().with("stock", 7)),
            folded: Vec::new(),
        };
        let resolved = vec![(
            dec(3, 3),
            Resolution {
                outcome: TxnOutcome::Committed,
                learned_accepted: true,
            },
        )];
        assert!(a.sync_from_peer(&peer_snapshot, &resolved));
        assert_eq!(
            a.value().unwrap().get_int("stock"),
            Some(7),
            "missed delta executed locally"
        );
        assert!(!a.sync_from_peer(&peer_snapshot, &resolved), "idempotent");
    }

    #[test]
    fn resolution_metadata_stops_growing_with_transaction_count() {
        // Sustained physical-write traffic: every commit closes its
        // instance, so nothing blocks the watermark. The metadata maps
        // must plateau instead of growing with transaction count.
        let mut a = acceptor_with_stock(1);
        const TXNS: u64 = 4_000;
        for i in 1..=TXNS {
            let v = a.version().0;
            let w = phys_write(i, v, i as i64);
            assert!(status_of(&a.fast_propose(w), txn(i)).is_accepted());
            a.apply_visibility(txn(i), TxnOutcome::Committed, true);
        }
        assert_eq!(a.version().0, 1 + TXNS, "every write closed an instance");
        assert!(
            a.resolution_metadata_len() <= 520,
            "metadata must be bounded, got {}",
            a.resolution_metadata_len()
        );
        assert!(
            a.settle_watermark() > 3_000,
            "watermark advanced, got {}",
            a.settle_watermark()
        );
    }

    #[test]
    fn outcome_only_visibilities_are_truncated_too() {
        // Visibility fan-out reaches replicas that never saw the option;
        // those bare outcomes must not accumulate forever either.
        let mut a = acceptor_with_stock(5);
        for i in 1..=2_000 {
            a.apply_visibility(txn(i), TxnOutcome::Committed, true);
        }
        assert!(
            a.resolution_metadata_len() <= 520,
            "bare outcomes bounded, got {}",
            a.resolution_metadata_len()
        );
    }

    #[test]
    fn truncation_is_blocked_while_rings_can_reship() {
        // Commutative commits whose instance never closes stay in the
        // cstruct — the watermark must not outrun them (a peer could
        // still ship their options).
        let mut a = acceptor_with_stock(10_000_000);
        for i in 1..=700 {
            a.fast_propose(dec(i, 1));
            a.apply_visibility(txn(i), TxnOutcome::Committed, true);
        }
        // All 700 are resolved entries of the still-open instance.
        assert_eq!(a.settle_watermark(), 0, "open-instance entries retained");
        for i in 1..=700 {
            assert_eq!(a.outcome_of(txn(i)), Some(TxnOutcome::Committed));
        }
    }

    #[test]
    fn truncated_metadata_round_trips_through_state_export() {
        let mut a = acceptor_with_stock(1);
        for i in 1..=1_000 {
            let v = a.version().0;
            a.fast_propose(phys_write(i, v, i as i64));
            a.apply_visibility(txn(i), TxnOutcome::Committed, true);
        }
        let b = AcceptorRecord::from_state(stock_constraints(), 5, 4, 32, a.export_state());
        assert_eq!(b.settle_watermark(), a.settle_watermark());
        assert_eq!(b.resolution_metadata_len(), a.resolution_metadata_len());
        assert_eq!(
            format!("{:?}", b.export_state()),
            format!("{:?}", a.export_state()),
            "export ∘ import is the identity under truncation"
        );
    }

    #[test]
    fn delete_then_reinsert() {
        let mut a = acceptor_with_stock(5);
        let del = TxnOption::solo(
            txn(1),
            key(),
            UpdateOp::Physical(PhysicalUpdate::delete(Version(1))),
        );
        assert!(status_of(&a.fast_propose(del), txn(1)).is_accepted());
        a.apply_visibility(txn(1), TxnOutcome::Committed, true);
        assert!(a.value().is_none(), "tombstoned");
        let ins = TxnOption::solo(
            txn(2),
            key(),
            UpdateOp::Physical(PhysicalUpdate::insert(Row::new().with("stock", 1))),
        );
        assert!(status_of(&a.fast_propose(ins), txn(2)).is_accepted());
    }
}
