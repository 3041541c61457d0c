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
//! Here: the payload types and Algorithm 3's entry points. The durable
//! [`AcceptorState`] with its rings, adoption and peer sync is in
//! `state.rs`, votes and verdicts in `vote.rs`, the active decision in
//! `validate.rs`, and Phase 1 as it travels — promises that leave out
//! what the leader named, recovery bases named by digest — in
//! `promise.rs`.

use std::sync::Arc;

use mdcc_common::{Key, Row, TxnId, UpdateOp, Version};

use crate::ballot::Ballot;
use crate::cstruct::{trace_digest_of, CStruct, Entry, Mark};
use crate::demarcation::AttrConstraint;
use crate::options::{TxnOption, TxnOutcome};

mod promise;
mod state;
mod validate;
mod vote;

pub use promise::{Committed, Phase1a, Promise, Reported};
pub use state::{AcceptorState, Resolution};
pub use vote::{Letter, Phase2b, VoteVerdict};

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

/// Phase1b response payload, whole: what the leader judges. It travels
/// as a [`Promise`] that leaves out what the Phase1a named.
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
    /// ([`AcceptorRecord::lacks_snapshot`]), or names a proved-safe base
    /// this acceptor could not put back ([`AcceptorRecord::resolve_base`]):
    /// nothing was mutated, the promise included, and the acceptor asks
    /// the leader for the round whole.
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
    /// A recovery round's proved-safe cstruct named by its
    /// [`CStruct::digest`], to an acceptor whose promise reported exactly
    /// that cstruct: it holds it already, and adopts it as if it had
    /// travelled ([`AcceptorRecord::resolve_base`]). Never logged: the
    /// hosting node puts the cstruct back before the WAL sees the round.
    NamedSafe(u64),
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

/// The Phase2a rounds one node's leaders emitted in one handler for the
/// records one acceptor node replicates, each with its record, in the
/// order emitted: what one Phase2a message carries. Every option of a
/// round is on the round's record, so on the wire each (transaction,
/// write-set) its options name travels once, and no option names its
/// record.
#[derive(Debug, Clone)]
pub struct Phase2aRounds(pub Vec<(Key, Phase2a)>);

/// Per-record acceptor: the record's configuration, its durable
/// [`AcceptorState`], and three fields derived from that state —
/// recomputed by [`AcceptorRecord::from_state`], never written out.
#[derive(Debug, Clone)]
pub struct AcceptorRecord {
    n: usize,
    qf: usize,
    max_instance_options: usize,
    constraints: Arc<[AttrConstraint]>,
    /// Everything a checkpoint holds ([`AcceptorRecord::export_state`]).
    state: AcceptorState,
    /// The entries of `cstruct` whose transaction has no recorded outcome
    /// yet, in recorded order. A committed commutative entry stays in
    /// the cstruct until its instance closes, so the cstruct grows with
    /// history while this set stays as small as the record's in-flight
    /// transactions; validation, escrow accounting, the instance-full
    /// check, vote fan-out targeting and instance closing all ask about
    /// it and must not re-scan the cstruct. Kept in step by
    /// `append_decided`, `note_outcome` and `replace_cstruct` — the only
    /// places entries or outcomes of current entries come and go.
    open: Vec<Arc<Entry>>,
    /// The settled watermark: the position of the first open entry in
    /// `cstruct` (its end when nothing is open), with the digest chain
    /// up to there. Everything before it has a recorded outcome that was
    /// applied here — state, not protocol payload — so votes to
    /// coordinators start at it ([`Self::vote`]). Moves forward only,
    /// in `advance_settled` (amortised O(1) per entry), except where the
    /// digest chain itself restarts: `replace_cstruct` and `remove_entry`.
    settled: Mark,
    /// Accepted entries of `cstruct` that are neither commutative nor
    /// rejected (physical writes, read guards), open or not. While there
    /// is one, an entry behind the watermark may not commute with it, so
    /// votes ship the whole cstruct (see [`Self::vote`]).
    barriers: usize,
}

impl AcceptorRecord {
    /// A fresh, non-existent record in the implicit initial fast ballot.
    pub fn new(
        constraints: Arc<[AttrConstraint]>,
        n: usize,
        qf: usize,
        max_instance_options: usize,
    ) -> Self {
        Self::from_state(
            constraints,
            n,
            qf,
            max_instance_options,
            AcceptorState::absent(),
        )
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
        a.state.value = Some(value.clone());
        a.state.base = Some(value);
        a.state.version = Version(1);
        a
    }

    /// Committed version (decided instances).
    pub fn version(&self) -> Version {
        self.state.version
    }

    /// Committed, visible value.
    pub fn value(&self) -> Option<&Row> {
        self.state.value.as_ref()
    }

    /// Current promise.
    pub fn promised(&self) -> Ballot {
        self.state.promised
    }

    /// The current instance's cstruct (tests and recovery inspection).
    pub fn cstruct(&self) -> &CStruct {
        &self.state.cstruct
    }

    /// Ballot of the last Phase2a accepted into the current instance, if
    /// any — a record is "in ballot `b`'s stream" exactly when this is
    /// `Some(b)` (the base check of [`Self::refuses_base`] keys off it).
    pub fn accepted_ballot(&self) -> Option<Ballot> {
        self.state.accepted_ballot
    }

    /// The current cstruct epoch (tests and shadow-view inspection).
    pub fn cstruct_epoch(&self) -> u64 {
        self.state.cstruct_epoch
    }

    /// Phase1a (Algorithm 3, line 68): promise if the ballot is new, and
    /// report the accepted state either way so the caller learns about
    /// competing masters.
    pub fn phase1a(&mut self, m: Ballot) -> Phase1b {
        self.raise_promise(m);
        let s = &self.state;
        Phase1b {
            promised: s.promised,
            accepted: s.accepted_ballot.map(|b| (b, s.cstruct.clone())),
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
        let raised = b > self.state.promised;
        self.state.promised = self.state.promised.max(b);
        raised
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
        if !self.state.promised.is_fast() {
            return FastPropose::NotFast {
                promised: self.state.promised,
            };
        }
        if self.state.cstruct.status_of(opt.txn).is_some() {
            // Duplicate delivery: re-vote idempotently.
            return FastPropose::Vote(self.vote());
        }
        if self.pending().count() >= self.max_instance_options {
            return FastPropose::InstanceFull;
        }
        let status = self.validate(&opt);
        let txn = opt.txn;
        self.append_decided(opt, status);
        self.state.accepted_ballot = Some(self.state.promised);
        // A Visibility that overtook the proposal resolves immediately.
        if self.state.outcomes.contains_key(&txn) {
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
    /// [`crate::safe::judged_safe`].
    pub fn refuses_base(&self, p: &Phase2a) -> Option<Ballot> {
        let Base::Digest(base) = p.base else {
            return None;
        };
        // Nothing to prove: it accepted at `p.ballot` before (it is in
        // the stream), or it does not join at all — it promised higher
        // and Nacks, or is ahead of the leader and answers `Stale`.
        let in_stream = self.state.accepted_ballot == Some(p.ballot);
        if in_stream || p.ballot < self.state.promised || p.version < self.state.version {
            return None;
        }
        let held = if p.version == self.state.version {
            self.state.cstruct.trace_digest()
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
        p.snapshot.is_none() && p.version > self.state.version && p.ballot >= self.state.promised
    }

    /// Classic Phase2a (Algorithm 3, line 72), extended with catch-up and
    /// instance-close/reopen control.
    pub fn classic_accept(&mut self, mut p: Phase2a) -> ClassicAccept {
        if p.ballot < self.state.promised {
            return ClassicAccept::Nack {
                promised: self.state.promised,
            };
        }
        if self.lacks_snapshot(&p) {
            return ClassicAccept::Behind;
        }
        if let Err(answer) = self.resolve_base(&mut p, None) {
            return answer;
        }
        if let Some(promised) = self.refuses_base(&p) {
            // Nothing is mutated, the promise included.
            return ClassicAccept::Nack { promised };
        }
        let behind = p.version > self.state.version;
        if let Some(snapshot) = p.snapshot.as_ref().filter(|_| behind) {
            // We missed decisions; adopt the leader's committed state.
            self.adopt_snapshot(snapshot);
        } else if p.version < self.state.version {
            return ClassicAccept::Stale {
                snapshot: self.snapshot(),
            };
        }
        self.state.promised = p.ballot;
        self.state.accepted_ballot = Some(p.ballot);
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
            if self.state.cstruct.status_of(opt.txn).is_none()
                && !self.state.outcomes.contains_key(&opt.txn)
            {
                let status = self.validate(&opt);
                self.append_decided(opt, status);
            }
        }
        // Sticky within the instance: once a close is requested, later
        // appends must not cancel it (the demarcation re-base depends on
        // it, §3.4.2).
        self.state.close_on_resolve |= p.close_instance;
        if p.reopen_fast.is_some() {
            self.state.reopen_fast_after = p.reopen_fast;
        }
        // Resolve anything we already know the outcome of.
        let known: Vec<TxnId> = self
            .state
            .cstruct
            .entries()
            .filter(|e| self.state.outcomes.contains_key(&e.opt.txn))
            .map(|e| e.opt.txn)
            .collect();
        for txn in known {
            self.resolve_entry(txn);
        }
        self.try_advance();
        ClassicAccept::Vote(self.vote())
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
        if self.state.outcomes.contains_key(&txn) {
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
        let before = self.state.version;
        self.resolve_entry(txn);
        self.try_advance();
        if !self.state.resolved.contains(&txn) {
            // The option never reached this node (only the fan-out did):
            // enroll the bare outcome for truncation directly, or the
            // `outcomes` map would grow with every transaction whose
            // Visibility is broadcast here.
            self.state.note_settled(txn);
        }
        self.state.version != before
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
        let Some(entry) = self.state.cstruct.entry_of(txn).map(Arc::clone) else {
            return;
        };
        if !self.state.resolved.insert(txn) {
            return;
        }
        let op = &entry.opt.op;
        let resolution = self.state.outcomes[&txn];
        match resolution.outcome {
            TxnOutcome::Committed => {
                // Execute even if *locally* rejected: the learned global
                // decision outranks this node's minority vote, and data
                // must converge.
                match op {
                    UpdateOp::Physical(p) => {
                        self.state.value = p.value.clone();
                    }
                    UpdateOp::Commutative(c) => self.state.apply_deltas(c),
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
        self.state.note_settled(txn);
    }

    fn try_advance(&mut self) {
        if self.state.close_on_resolve && self.pending().next().is_none() {
            self.advance_instance();
        }
    }

    /// Closes the current instance: bump the version, re-base the value
    /// (new demarcation base, §3.4.2) and open the next instance in fast
    /// or classic mode per the leader's instruction.
    fn advance_instance(&mut self) {
        self.state.keep_closed_instance();
        self.state.version = self.state.version.next();
        self.state.base = self.state.value.clone();
        self.replace_cstruct(CStruct::new());
        self.state.accepted_ballot = None;
        self.state.close_on_resolve = false;
        if let Some(fast) = self.state.reopen_fast_after.take() {
            self.raise_promise(fast);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::OptionStatus;
    use mdcc_common::error::AbortReason;
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
        let before = to_bytes(&a.export_state());
        let _ = a.behind(&phys_write(8, 9, 9));
        assert_eq!(to_bytes(&a.export_state()), before);
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
            to_bytes(&b.export_state()),
            to_bytes(&a.export_state()),
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
            to_bytes(&b.export_state()),
            to_bytes(&a.export_state()),
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
