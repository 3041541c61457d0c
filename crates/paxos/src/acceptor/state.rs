//! The durable state of one record's acceptor, and what only it touches:
//! resolution records and their truncation, the two rings restart
//! anti-entropy ships from, snapshot adoption and peer sync.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use mdcc_common::error::AbortReason;
use mdcc_common::wire::Enc;
use mdcc_common::{CommutativeUpdate, Row, TxnId, UpdateOp, Version};

use super::{AcceptorRecord, RecordSnapshot};
use crate::ballot::Ballot;
use crate::cstruct::{CStruct, Entry, Mark};
use crate::demarcation::AttrConstraint;
use crate::options::{OptionStatus, TxnOption, TxnOutcome};

/// The durable state of one [`AcceptorRecord`], held as one field of it:
/// what a checkpoint holds ([`AcceptorRecord::export_state`]) and a
/// restarted node rebuilds the record from
/// ([`AcceptorRecord::from_state`]; §3.2.3: a storage node must be able
/// to reconstruct its per-record Paxos state). Everything else the
/// record keeps is configuration, or derived from this and recomputed.
///
/// Its `Wire` encoding ([`crate::wire`]) is the checkpoint layout. The
/// two hashed sets are written sorted by transaction, so equal states
/// encode identically, and decoding refuses any other order. Only
/// decoding and the record itself build one.
#[derive(Debug, Clone)]
pub struct AcceptorState {
    /// Number of decided instances.
    pub(crate) version: Version,
    /// Committed, visible value (`None`: absent or deleted).
    pub(crate) value: Option<Row>,
    /// Value when the current instance opened — the demarcation base `X`.
    pub(crate) base: Option<Row>,
    /// Promised ballot.
    pub(crate) promised: Ballot,
    /// Ballot of the last Phase2a accepted into the current instance.
    pub(crate) accepted_ballot: Option<Ballot>,
    /// The current instance's cstruct.
    pub(crate) cstruct: CStruct,
    /// Transaction resolutions this node has heard (Visibility messages);
    /// kept across instances so duplicate or early messages are harmless.
    pub(crate) outcomes: HashMap<TxnId, Resolution>,
    /// Transactions whose entry-level resolution already executed here
    /// (idempotence under re-delivery and stale retries).
    pub(crate) resolved: HashSet<TxnId>,
    /// Whether the instance closes once all pending options resolve.
    pub(crate) close_on_resolve: bool,
    /// Ballot to reopen fast mode at after the instance advances.
    pub(crate) reopen_fast_after: Option<Ballot>,
    /// Bounded ring of committed commutative options from recently
    /// *closed* instances, oldest first. Restart anti-entropy needs
    /// these: an option that commits while a replica is down and whose
    /// instance then closes leaves every live cstruct — this ring is the
    /// only place its payload survives for shipping to the recovering
    /// replica (deltas commute, so installing one after the close is
    /// still value-correct).
    pub(crate) closed_resolved: Vec<(TxnOption, Resolution)>,
    /// Bounded ring of transactions marked settled through a snapshot
    /// adoption *without* executing locally (their effect arrived inside
    /// the adopted value), oldest first. These must keep riding in
    /// outgoing snapshots' `folded` lists: they are the settled
    /// transactions a further adopter cannot discover from this node's
    /// cstruct or ring.
    pub(crate) inherited_folded: Vec<TxnId>,
    /// Settled transactions in settle order, oldest first — the
    /// truncation queue for `outcomes`/`resolved`. See
    /// [`AcceptorState::truncate_settled`].
    pub(crate) settle_log: VecDeque<TxnId>,
    /// Monotone count of settlements ever recorded on this record; the
    /// truncation watermark is `settle_seq - settle_log.len()` (every
    /// settlement below it has had its metadata dropped).
    pub(crate) settle_seq: u64,
    /// Cstruct epoch ([`super::Phase2b::epoch`]): bumped on every
    /// mutation that is not a plain append, only inside the
    /// input-processing entry points, so WAL replay restores it.
    pub(crate) cstruct_epoch: u64,
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

/// Entries kept in the closed-instance ring.
const CLOSED_RESOLVED_CAP: usize = 64;

/// Entries kept in the inherited-folded ring. Larger than any peer's
/// shippable window (`CLOSED_RESOLVED_CAP` + one instance), so a
/// transaction can only age out of it after it has aged out of every
/// ring that could re-ship its option.
const INHERITED_FOLDED_CAP: usize = 256;

/// Settlements retained in the truncation queue before the oldest
/// transaction's resolution metadata is dropped. The window only needs
/// to outlive in-flight duplicates of the transaction's messages (stale
/// retried proposals, duplicate Visibilities): message lifetimes are
/// sub-second while this many settlements on one record take orders of
/// magnitude longer — the same synchrony assumption the paper's
/// timeout-based recovery makes (§3.2.3).
const RESOLVED_RETENTION: usize = 512;

/// Drops the oldest entries of `ring` beyond its `cap` newest.
fn keep_newest<T>(ring: &mut Vec<T>, cap: usize) {
    ring.drain(..ring.len().saturating_sub(cap));
}

impl AcceptorState {
    /// A record that does not exist yet, in the implicit initial fast
    /// ballot.
    pub(super) fn absent() -> Self {
        AcceptorState {
            version: Version::ZERO,
            value: None,
            base: None,
            promised: Ballot::INITIAL_FAST,
            accepted_ballot: None,
            cstruct: CStruct::new(),
            outcomes: HashMap::new(),
            resolved: HashSet::new(),
            close_on_resolve: false,
            reopen_fast_after: None,
            closed_resolved: Vec::new(),
            inherited_folded: Vec::new(),
            settle_log: VecDeque::new(),
            settle_seq: 0,
            cstruct_epoch: 0,
        }
    }

    /// Executes a committed commutative update on the value.
    pub(super) fn apply_deltas(&mut self, update: &CommutativeUpdate) {
        let mut row = self.value.take().unwrap_or_default();
        for (attr, delta) in update.deltas.iter() {
            row.apply_delta(attr, *delta);
        }
        self.value = Some(row);
    }

    /// Preserves the closing instance's committed commutative options for
    /// restart anti-entropy (see `closed_resolved`). Rejected and physical
    /// options need no payload: aborts execute nothing and a missed
    /// physical decision shows up as version lag, which snapshot catch-up
    /// repairs.
    pub(super) fn keep_closed_instance(&mut self) {
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
        keep_newest(&mut self.closed_resolved, CLOSED_RESOLVED_CAP);
    }

    /// Records a transaction settled via adoption (effect arrived inside
    /// a snapshot value, never executed locally) so outgoing snapshots
    /// keep advertising it.
    fn note_inherited(&mut self, txn: TxnId) {
        if self.inherited_folded.contains(&txn) {
            return;
        }
        self.inherited_folded.push(txn);
        keep_newest(&mut self.inherited_folded, INHERITED_FOLDED_CAP);
    }

    /// Marks `txn` executed by way of an adopted value: settled, and
    /// advertised as inherited. No-op if it already executed here.
    fn inherit(&mut self, txn: TxnId) {
        if self.resolved.insert(txn) {
            self.note_inherited(txn);
            self.note_settled(txn);
        }
    }

    /// Enrolls a settled transaction in the truncation queue and prunes
    /// metadata that has aged past the retention watermark.
    pub(super) fn note_settled(&mut self, txn: TxnId) {
        self.settle_log.push_back(txn);
        self.settle_seq += 1;
        self.truncate_settled();
    }

    /// Watermark-based truncation of the resolution metadata (`outcomes`
    /// and `resolved`), which would otherwise grow with transaction
    /// count.
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
    /// `resolved` dedup marker safe.
    fn truncate_settled(&mut self) {
        while let Some(&txn) = self
            .settle_log
            .front()
            .filter(|_| self.settle_log.len() > RESOLVED_RETENTION)
        {
            let referenced = self.cstruct.entry_of(txn).is_some()
                || self.closed_resolved.iter().any(|(o, _)| o.txn == txn)
                || self.inherited_folded.contains(&txn);
            if referenced {
                // Still shippable from a ring: blocked until it ages out.
                break;
            }
            self.settle_log.pop_front();
            self.resolved.remove(&txn);
            self.outcomes.remove(&txn);
        }
    }
}

impl AcceptorRecord {
    /// Exports the acceptor's full state for a durable checkpoint.
    pub fn export_state(&self) -> AcceptorState {
        self.state.clone()
    }

    /// Appends the encoded state without cloning it, as checkpoints and
    /// the log-structured engine's segment entries are written. Returns
    /// `out.len()` where the committed projection
    /// ([`Self::encode_committed`], the state's prefix) ends, so a caller
    /// that recorded where the state began can digest it without
    /// encoding again.
    pub fn encode_state(&self, out: &mut Enc) -> usize {
        self.state.encode_with_committed_end(out)
    }

    /// Appends the committed projection `(version, value)` — the prefix
    /// of [`Self::encode_state`] that replicas compare and anti-entropy
    /// digests.
    pub fn encode_committed(&self, out: &mut Enc) {
        self.state.encode_committed(out);
    }

    /// Rebuilds an acceptor from an exported state (restart path).
    pub fn from_state(
        constraints: Arc<[AttrConstraint]>,
        n: usize,
        qf: usize,
        max_instance_options: usize,
        state: AcceptorState,
    ) -> Self {
        let mut record = Self {
            n,
            qf,
            max_instance_options,
            constraints,
            state,
            open: Vec::new(),
            settled: Mark::START,
            barriers: 0,
        };
        record.derive();
        record
    }

    /// The outcome this node has recorded for `txn`, if any (recovery
    /// queries short-circuit on it).
    pub fn outcome_of(&self, txn: TxnId) -> Option<TxnOutcome> {
        self.state.outcomes.get(&txn).map(|r| r.outcome)
    }

    /// True once this record knows how `txn` ended, by a Visibility of
    /// its own or folded into a snapshot it adopted. An option this
    /// replica has never seen has no outcome here: its Phase2a may still
    /// be on the way.
    pub fn has_outcome(&self, txn: TxnId) -> bool {
        self.state.outcomes.contains_key(&txn) || self.state.resolved.contains(&txn)
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
        let recorded = self.state.outcomes.get(&txn);
        if self.state.resolved.contains(&txn) {
            return Some(recorded.map_or(TxnOutcome::Committed, |r| r.outcome));
        }
        recorded
            .filter(|r| r.outcome == TxnOutcome::Aborted && !r.learned_accepted)
            .map(|r| r.outcome)
    }

    /// Entries currently held in the resolution-metadata maps (tests:
    /// bounded growth under sustained traffic).
    pub fn resolution_metadata_len(&self) -> usize {
        self.state.outcomes.len().max(self.state.resolved.len())
    }

    /// Number of settlements whose metadata has been truncated — the
    /// watermark below which this record has forgotten resolutions.
    pub fn settle_watermark(&self) -> u64 {
        self.state.settle_seq - self.state.settle_log.len() as u64
    }

    /// Committed state for catch-up messages.
    ///
    /// `folded` covers every settled transaction whose option could
    /// still be re-delivered to an adopter — resolved entries of the
    /// current instance, the closed-instance ring, and settled
    /// transactions this node itself inherited through adoption. The
    /// full `resolved` history would also be correct but grows with
    /// transaction count; this bounded set keeps snapshot messages and
    /// WAL frames O(ring).
    pub fn snapshot(&self) -> RecordSnapshot {
        let s = &self.state;
        let mut folded: Vec<TxnId> = s
            .cstruct
            .entries()
            .map(|e| e.opt.txn)
            .filter(|txn| s.resolved.contains(txn))
            .chain(s.closed_resolved.iter().map(|(opt, _)| opt.txn))
            .chain(s.inherited_folded.iter().copied())
            .collect();
        folded.sort();
        folded.dedup();
        RecordSnapshot {
            version: s.version,
            value: s.value.clone(),
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
    pub(super) fn adopt_snapshot(&mut self, snapshot: &RecordSnapshot) {
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
            .state
            .cstruct
            .shared()
            .iter()
            .filter(|e| self.state.resolved.contains(&e.opt.txn))
            .cloned()
            .collect();
        self.state.version = snapshot.version;
        self.state.value = snapshot.value.clone();
        for e in &executed {
            let committed = self.outcome_of(e.opt.txn) == Some(TxnOutcome::Committed);
            if let UpdateOp::Commutative(c) = &e.opt.op {
                if committed && !snapshot.folded.contains(&e.opt.txn) {
                    self.state.apply_deltas(c);
                }
            }
        }
        self.state.base = self.state.value.clone();
        self.replace_cstruct(carried);
        self.state.accepted_ballot = None;
        self.state.close_on_resolve = false;
        for e in executed {
            self.state.note_inherited(e.opt.txn);
        }
        for txn in &snapshot.folded {
            self.state.inherit(*txn);
        }
    }

    /// Everything a recovering peer needs to catch up on this record:
    /// the options of the current instance that are already resolved —
    /// committed commutative updates, whose entries stay in the cstruct
    /// until the instance closes — plus the retained ring of committed
    /// commutative options from recently closed instances. Each option
    /// "includes all necessary information to reconstruct the state"
    /// (§3.2.3).
    pub fn sync_payload(&self) -> Vec<(TxnOption, Resolution)> {
        let s = &self.state;
        let mut payload: Vec<(TxnOption, Resolution)> = s
            .cstruct
            .entries()
            .filter_map(|e| s.outcomes.get(&e.opt.txn).map(|r| (e.opt.clone(), *r)))
            .collect();
        let mut seen: HashSet<TxnId> = payload.iter().map(|(o, _)| o.txn).collect();
        for (opt, resolution) in &s.closed_resolved {
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
        if self.state.resolved.contains(&txn) {
            return false;
        }
        if !self.state.outcomes.contains_key(&txn) {
            self.note_outcome(txn, resolution);
        }
        if self.state.cstruct.entry_of(txn).is_none() {
            let status = if resolution.learned_accepted {
                OptionStatus::Accepted
            } else {
                OptionStatus::Rejected(AbortReason::Resolved)
            };
            self.append_decided(opt, status);
            let s = &mut self.state;
            s.accepted_ballot.get_or_insert(s.promised);
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
        match snapshot.version.cmp(&self.state.version) {
            Ordering::Greater => true,
            Ordering::Less => false,
            Ordering::Equal => resolved
                .iter()
                .any(|(opt, _)| !self.state.resolved.contains(&opt.txn)),
        }
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
        if snapshot.version > self.state.version {
            self.adopt_snapshot(snapshot);
            for (opt, resolution) in resolved {
                self.note_outcome(opt.txn, *resolution);
                self.state.inherit(opt.txn);
                self.remove_entry(opt.txn);
            }
            true
        } else if snapshot.version == self.state.version {
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
        !self.state.outcomes.contains_key(&txn) && self.missing_execution(txn)
    }

    /// True while `txn`'s learned update has not executed here and its
    /// option is nowhere to be found locally — the state a bare
    /// committed outcome leaves behind until a peer pull repairs it.
    pub fn missing_execution(&self, txn: TxnId) -> bool {
        !self.state.resolved.contains(&txn) && self.state.cstruct.entry_of(txn).is_none()
    }
}
