//! Delta votes and per-acceptor shadow views.
//!
//! Nothing in `mdcc-core` uses this module since acceptors answer
//! coordinators with verdicts ([`crate::acceptor::VoteVerdict`]), and
//! nothing encodes a delta vote: it stays, with
//! `tests/vote_path_props.rs`, only because the `bench_all` kernels
//! name it (ROADMAP item 0(a)).
//!
//! Full MDCC's dominant wire cost is Phase2b vote fan-out: every vote
//! ships the record's entire cstruct to the proposer and to every
//! interested coordinator (see EXPERIMENTS.md §fig5). Within one
//! *cstruct epoch* the acceptor's cstruct is strictly append-only, so a
//! vote only needs to carry the options appended since the acceptor's
//! previous vote — a [`DeltaVote`] — plus an FNV digest of the full
//! structure.
//!
//! Both ends do work proportional to the delta, not to the cstruct. The
//! digest is the cstruct's append chain ([`CStruct::digest`]): within an
//! epoch it is a function of the epoch's append history alone, the
//! acceptor reads it off in O(1) and a shadow that folded the same
//! appends holds the same chain, so the per-fold check is one integer
//! comparison. Entries are immutable shared values: a delta, the shadow
//! it folds into and the vote synthesized for the learner all point at
//! the entry the sender's message carried.
//!
//! Receivers keep one [`ShadowView`] per acceptor and fold each delta
//! into it. When the digest of the folded view matches the vote's
//! digest, the view *is* the acceptor's cstruct and a
//! [`Phase2b`] is synthesized for the learner. When it does not —
//! an epoch was missed (ballot change, instance advance, entry
//! removal), a delta was lost, or votes were reordered — the receiver
//! falls back to an explicit read-repair round trip (`CstructPull` /
//! `CstructFull` in the message schema) that fetches the acceptor's
//! current vote only for that diverged acceptor.
//!
//! # The settled watermark
//!
//! A vote an acceptor sends a coordinator starts at the record's settled
//! watermark ([`crate::AcceptorRecord::vote`]), not at entry 0: committed
//! commutative options stay in an open instance until it closes, and
//! re-shipping them with every first-contact vote made wire bytes grow
//! with the instance's history. So "the acceptor's cstruct" above reads
//! "the acceptor's cstruct from some mark on" ([`CStruct::suffix`]), and
//! three invariants keep positions and digests meaningful:
//!
//! * **Positions are positions in the whole cstruct.** `from_seq`,
//!   `full_len` and the cursor's `seq` count from entry 0 whatever the
//!   vote elides; a shadow is `(base, entries[base.seq..])` and its
//!   digest chain resumes from `base.chain`, so it equals the acceptor's
//!   whole-cstruct digest exactly when the held entries match.
//! * **A delta never skips.** It folds only onto a shadow that reaches
//!   its `from_seq`; a gap is [`FoldOutcome::Diverged`] whatever the
//!   sender knows about the skipped entries.
//! * **Only a vote rebases.** A destination whose cursor is cold, in
//!   another epoch, or behind the watermark is sent the vote itself — a
//!   self-contained statement "everything before `base` is settled,
//!   here is the rest" — which [`ShadowView::observe_full`] installs,
//!   dropping whatever prefix the shadow still held.

use std::sync::Arc;

use mdcc_common::Version;

use crate::acceptor::Phase2b;
use crate::ballot::Ballot;
use crate::cstruct::{CStruct, Entry};

/// A Phase2b vote carrying only the options appended since the
/// acceptor's previous vote, plus a digest of the full cstruct.
#[derive(Debug, Clone)]
pub struct DeltaVote {
    /// Ballot the vote belongs to.
    pub ballot: Ballot,
    /// Instance (record version) the vote belongs to.
    pub version: Version,
    /// The acceptor's cstruct epoch this delta's positions refer to.
    pub epoch: u64,
    /// Position in the epoch's append order where `entries` starts.
    pub from_seq: u64,
    /// Entries `[from_seq..from_seq + entries.len())` of the epoch.
    pub entries: Vec<Arc<Entry>>,
    /// The acceptor's full-cstruct digest ([`CStruct::digest`]) at
    /// emission time.
    pub digest: u64,
    /// Total entries in the whole cstruct, elided prefix included
    /// (cheap pre-check and gap detector alongside the digest).
    pub full_len: u64,
}

impl DeltaVote {
    /// Extracts the delta representation of an emitted vote: the entry
    /// suffix past `from_seq` (a position at or after the vote's base)
    /// plus the whole-structure digest.
    pub fn extract(vote: &Phase2b, from_seq: u64) -> Self {
        let entries = vote.cstruct.shared();
        let skip = from_seq.saturating_sub(vote.cstruct.base().seq) as usize;
        DeltaVote {
            ballot: vote.ballot,
            version: vote.version,
            epoch: vote.epoch,
            from_seq,
            entries: entries[entries.len().min(skip)..].to_vec(),
            digest: vote.cstruct.digest(),
            full_len: vote.cstruct.end_seq(),
        }
    }
}

/// Sender-side delta cursor: tracks, per destination, how much of which
/// cstruct epoch that destination has already been sent, so each vote
/// ships only the entry suffix the destination is missing.
///
/// Deliberately volatile (kept in the storage-node process, not the
/// WAL): losing a cursor after a crash merely re-primes the destination
/// with one full vote. What *must* survive restarts is the acceptor's
/// cstruct epoch — cursors and shadow views both position against it.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaCursor {
    primed: bool,
    version: Version,
    epoch: u64,
    seq: u64,
}

impl DeltaCursor {
    /// A cursor for a destination that has never been sent a vote.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decides what to send for `vote` and advances the cursor:
    /// `Some(delta)` is the positioned entry suffix for a destination
    /// that was sent everything up to it in this epoch; `None` means the
    /// destination must receive the vote itself — first contact, a new
    /// instance or epoch, or a last send the vote's base has since
    /// moved past.
    pub fn extract(&mut self, vote: &Phase2b) -> Option<DeltaVote> {
        let end = vote.cstruct.end_seq();
        let foldable = self.primed
            && self.version == vote.version
            && self.epoch == vote.epoch
            && (vote.cstruct.base().seq..=end).contains(&self.seq);
        let from_seq = self.seq;
        *self = DeltaCursor {
            primed: true,
            version: vote.version,
            epoch: vote.epoch,
            seq: end,
        };
        foldable.then(|| DeltaVote::extract(vote, from_seq))
    }
}

/// What folding one delta vote into a shadow view produced.
#[derive(Debug, Clone)]
pub enum FoldOutcome {
    /// The fold succeeded and the digest matched: here is the
    /// reconstructed full vote for the learner.
    Vote(Phase2b),
    /// The shadow diverged from the acceptor (missed epoch, lost delta,
    /// reordering): the receiver must pull the full cstruct.
    Diverged,
    /// The delta belongs to an older instance or epoch than the shadow
    /// already tracks; ignore it.
    Stale,
}

/// The receiver-side reconstruction of one acceptor's cstruct.
#[derive(Debug, Clone, Default)]
pub struct ShadowView {
    version: Version,
    epoch: u64,
    cstruct: CStruct,
    /// Diverged folds seen since the last pull was issued (0 = no pull
    /// outstanding). Suppresses the pull storm a single lost delta
    /// would otherwise cause on a hot record — every vote arriving
    /// during the repair round trip re-detects the same gap — while
    /// [`PULL_RETRY_EVERY`] keeps the view live if the repair response
    /// itself is lost.
    diverged_since_pull: u32,
}

/// Diverged folds tolerated on one shadow before the pull is re-sent
/// (the escape hatch for a lost `CstructFull` response).
const PULL_RETRY_EVERY: u32 = 16;

impl ShadowView {
    /// An empty shadow: installs votes and folds epoch-opening deltas
    /// (`from_seq == 0`) directly; anything mid-epoch diverges and
    /// triggers a pull.
    pub fn new() -> Self {
        Self::default()
    }

    /// The reconstructed cstruct, from the shadow's base on (tests and
    /// diagnostics).
    pub fn cstruct(&self) -> &CStruct {
        &self.cstruct
    }

    /// Folds one delta vote. On [`FoldOutcome::Vote`] the shadow equals
    /// the acceptor's cstruct from the shadow's base on, byte-for-byte
    /// (the digest proved it).
    pub fn fold(&mut self, dv: &DeltaVote) -> FoldOutcome {
        if (dv.version, dv.epoch) < (self.version, self.epoch) {
            return FoldOutcome::Stale;
        }
        if dv.version != self.version || dv.epoch != self.epoch {
            // A new instance or epoch. A delta from position zero holds
            // the whole cstruct and rebuilds the shadow outright; a
            // mid-epoch delta means the vote that opened the epoch here
            // was lost and only a pull can resynchronize.
            if dv.from_seq != 0 {
                return FoldOutcome::Diverged;
            }
            self.version = dv.version;
            self.epoch = dv.epoch;
            self.cstruct = CStruct::new();
        }
        let have = self.cstruct.end_seq();
        if dv.from_seq > have {
            // Gap: a previous delta of this epoch never arrived.
            return FoldOutcome::Diverged;
        }
        // Overlapping prefix entries are already present (duplicate or
        // re-emitted vote); append only the genuinely new tail.
        for entry in dv.entries.iter().skip((have - dv.from_seq) as usize) {
            self.cstruct.append_entry(Arc::clone(entry));
        }
        if self.cstruct.end_seq() == dv.full_len && self.cstruct.digest() == dv.digest {
            self.diverged_since_pull = 0;
            FoldOutcome::Vote(self.as_vote(dv.ballot))
        } else {
            FoldOutcome::Diverged
        }
    }

    /// Whether a [`FoldOutcome::Diverged`] should trigger a pull right
    /// now: true for the first divergence (and again every
    /// [`PULL_RETRY_EVERY`] diverged folds, in case the repair response
    /// was lost); false while a pull is already outstanding.
    pub fn should_pull(&mut self) -> bool {
        if self.diverged_since_pull == 0 || self.diverged_since_pull >= PULL_RETRY_EVERY {
            self.diverged_since_pull = 1;
            true
        } else {
            self.diverged_since_pull += 1;
            false
        }
    }

    /// Installs a vote (a `CstructFull` repair response), resetting the
    /// shadow to the acceptor's exact state from the vote's base on so
    /// subsequent deltas fold again. Unconditional: a diverged shadow's
    /// contents are untrustworthy, so the repair response always wins (a
    /// stale response merely provokes one more pull).
    pub fn reset_full(&mut self, vote: &Phase2b) {
        self.version = vote.version;
        self.epoch = vote.epoch;
        self.cstruct = vote.cstruct.clone();
        self.diverged_since_pull = 0;
    }

    /// Primes or rebases the shadow from a vote sent as such (first
    /// contact, a new epoch, or a cursor the watermark overtook) —
    /// installs it only when it reaches at least as far as what the
    /// shadow tracks, so a reordered old vote cannot regress a view that
    /// already folded fresher deltas.
    pub fn observe_full(&mut self, vote: &Phase2b) {
        let incoming = (vote.version, vote.epoch, vote.cstruct.end_seq());
        let have = (self.version, self.epoch, self.cstruct.end_seq());
        if incoming >= have {
            self.reset_full(vote);
        }
    }

    fn as_vote(&self, ballot: Ballot) -> Phase2b {
        Phase2b {
            ballot,
            version: self.version,
            cstruct: self.cstruct.clone(),
            epoch: self.epoch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acceptor::{AcceptorRecord, FastPropose};
    use crate::demarcation::AttrConstraint;
    use crate::options::{TxnOption, TxnOutcome};
    use mdcc_common::{CommutativeUpdate, Key, NodeId, Row, TableId, TxnId, UpdateOp};

    fn acceptor(stock: i64) -> AcceptorRecord {
        AcceptorRecord::with_value(
            Arc::from(vec![AttrConstraint::at_least("stock", 0)]),
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
            Key::new(TableId(0), "item1"),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -amount)),
        )
    }

    fn vote_of(r: FastPropose) -> Phase2b {
        match r {
            FastPropose::Vote(v) => v,
            other => panic!("expected vote, got {other:?}"),
        }
    }

    /// Primes a cursor/shadow pair with one vote (the node's
    /// first-contact behaviour).
    fn prime(cursor: &mut DeltaCursor, shadow: &mut ShadowView, vote: &Phase2b) {
        assert!(
            cursor.extract(vote).is_none(),
            "first contact ships the vote itself"
        );
        shadow.observe_full(vote);
    }

    /// Ships `vote` the way the node does and asserts the shadow ends up
    /// equal to the acceptor's cstruct from the shadow's base on.
    fn ship(cursor: &mut DeltaCursor, shadow: &mut ShadowView, vote: &Phase2b, a: &AcceptorRecord) {
        match cursor.extract(vote) {
            None => shadow.observe_full(vote),
            Some(dv) => assert!(matches!(shadow.fold(&dv), FoldOutcome::Vote(_))),
        }
        assert_eq!(shadow.cstruct().digest(), a.cstruct().digest());
        assert_eq!(shadow.cstruct().end_seq(), a.cstruct().end_seq());
    }

    #[test]
    fn deltas_fold_to_the_acceptors_exact_cstruct() {
        let mut a = acceptor(100);
        let mut cursor = DeltaCursor::new();
        let mut shadow = ShadowView::new();
        prime(
            &mut cursor,
            &mut shadow,
            &vote_of(a.fast_propose(dec(1, 1))),
        );
        for i in 2..=5 {
            let vote = vote_of(a.fast_propose(dec(i, 1)));
            let dv = cursor.extract(&vote).expect("warm cursor ships deltas");
            assert_eq!(
                dv.entries.len(),
                1,
                "each vote ships exactly the new option"
            );
            match shadow.fold(&dv) {
                FoldOutcome::Vote(v) => {
                    assert_eq!(v.cstruct.digest(), a.cstruct().digest());
                    assert_eq!(v.cstruct.len(), a.cstruct().len());
                }
                other => panic!("fold failed: {other:?}"),
            }
        }
    }

    #[test]
    fn lost_delta_is_detected_and_repaired() {
        let mut a = acceptor(100);
        let mut cursor = DeltaCursor::new();
        let mut shadow = ShadowView::new();
        prime(
            &mut cursor,
            &mut shadow,
            &vote_of(a.fast_propose(dec(1, 1))),
        );
        // The second vote's delta is lost in transit; the third arrives
        // with a gap the shadow must refuse to paper over.
        let _lost = cursor.extract(&vote_of(a.fast_propose(dec(2, 1))));
        let v3 = vote_of(a.fast_propose(dec(3, 1)));
        let dv3 = cursor.extract(&v3).expect("delta");
        assert!(matches!(shadow.fold(&dv3), FoldOutcome::Diverged));
        // Read-repair: install the acceptor's full cstruct, then deltas
        // fold again.
        shadow.reset_full(&a.phase2b());
        let v4 = vote_of(a.fast_propose(dec(4, 1)));
        let dv4 = cursor.extract(&v4).expect("delta");
        match shadow.fold(&dv4) {
            FoldOutcome::Vote(v) => assert_eq!(v.cstruct.digest(), a.cstruct().digest()),
            other => panic!("post-repair fold failed: {other:?}"),
        }
    }

    #[test]
    fn duplicate_and_reemitted_votes_fold_idempotently() {
        let mut a = acceptor(100);
        let mut cursor = DeltaCursor::new();
        let mut shadow = ShadowView::new();
        prime(
            &mut cursor,
            &mut shadow,
            &vote_of(a.fast_propose(dec(1, 1))),
        );
        let v2 = vote_of(a.fast_propose(dec(2, 1)));
        let dv2 = cursor.extract(&v2).expect("delta");
        assert!(matches!(shadow.fold(&dv2), FoldOutcome::Vote(_)));
        assert!(matches!(shadow.fold(&dv2), FoldOutcome::Vote(_)));
        // A retried proposal re-votes; the warm cursor ships an empty
        // delta that still digest-verifies against the folded shadow.
        let revote = vote_of(a.fast_propose(dec(2, 1)));
        let dv = cursor.extract(&revote).expect("delta");
        assert!(dv.entries.is_empty(), "re-vote ships no entries");
        assert!(matches!(shadow.fold(&dv), FoldOutcome::Vote(_)));
    }

    #[test]
    fn removal_opens_a_new_epoch_and_deltas_recover() {
        let mut a = acceptor(100);
        let mut cursor = DeltaCursor::new();
        let mut shadow = ShadowView::new();
        prime(
            &mut cursor,
            &mut shadow,
            &vote_of(a.fast_propose(dec(1, 1))),
        );
        for i in 2..=3 {
            let v = vote_of(a.fast_propose(dec(i, 1)));
            let dv = cursor.extract(&v).expect("delta");
            assert!(matches!(shadow.fold(&dv), FoldOutcome::Vote(_)));
        }
        let epoch_before = a.cstruct_epoch();
        // An abort removes its entry: the epoch bumps and the next vote
        // is shipped as such (the shrunken cstruct) — no pull needed —
        // after which deltas fold again.
        a.apply_visibility(txn(2), TxnOutcome::Aborted, false);
        assert!(a.cstruct_epoch() > epoch_before);
        let v4 = vote_of(a.fast_propose(dec(4, 1)));
        assert!(cursor.extract(&v4).is_none(), "a new epoch ships the vote");
        assert_eq!(v4.cstruct.len(), 3, "survivors plus the new option");
        shadow.observe_full(&v4);
        assert_eq!(shadow.cstruct().digest(), a.cstruct().digest());
        let v5 = vote_of(a.fast_propose(dec(5, 1)));
        let dv = cursor.extract(&v5).expect("warm again");
        assert_eq!(dv.entries.len(), 1);
        assert!(matches!(shadow.fold(&dv), FoldOutcome::Vote(_)));
    }

    #[test]
    fn missed_epoch_opening_diverges() {
        let mut a = acceptor(100);
        let mut cursor = DeltaCursor::new();
        let mut shadow = ShadowView::new();
        prime(
            &mut cursor,
            &mut shadow,
            &vote_of(a.fast_propose(dec(1, 1))),
        );
        // Abort bumps the epoch; the vote that opens it here is lost.
        a.apply_visibility(txn(1), TxnOutcome::Aborted, false);
        assert!(cursor
            .extract(&vote_of(a.fast_propose(dec(2, 1))))
            .is_none());
        let v3 = vote_of(a.fast_propose(dec(3, 1)));
        let dv = cursor.extract(&v3).expect("delta");
        assert!(dv.from_seq > 0);
        assert!(matches!(shadow.fold(&dv), FoldOutcome::Diverged));
    }

    #[test]
    fn stale_votes_from_older_epochs_are_ignored() {
        let mut a = acceptor(100);
        let mut cursor = DeltaCursor::new();
        let mut shadow = ShadowView::new();
        prime(
            &mut cursor,
            &mut shadow,
            &vote_of(a.fast_propose(dec(0, 1))),
        );
        let old = vote_of(a.fast_propose(dec(1, 1)));
        let old_dv = cursor.extract(&old).expect("delta");
        a.apply_visibility(txn(1), TxnOutcome::Aborted, false);
        let new = vote_of(a.fast_propose(dec(2, 1)));
        assert!(cursor.extract(&new).is_none(), "a new epoch ships the vote");
        shadow.observe_full(&new);
        // The pre-abort delta arrives late: older epoch, ignored.
        assert!(matches!(shadow.fold(&old_dv), FoldOutcome::Stale));
        assert_eq!(shadow.cstruct().digest(), a.cstruct().digest());
    }

    #[test]
    fn repeated_divergence_pulls_once_until_repaired() {
        let mut a = acceptor(100);
        let mut cursor = DeltaCursor::new();
        let mut shadow = ShadowView::new();
        prime(
            &mut cursor,
            &mut shadow,
            &vote_of(a.fast_propose(dec(1, 1))),
        );
        // A delta is lost; the following votes keep hitting the gap.
        let _lost = cursor.extract(&vote_of(a.fast_propose(dec(2, 1))));
        let mut pulls = 0;
        for i in 3..=8 {
            let v = vote_of(a.fast_propose(dec(i, 1)));
            let dv = cursor.extract(&v).expect("delta");
            assert!(matches!(shadow.fold(&dv), FoldOutcome::Diverged));
            if shadow.should_pull() {
                pulls += 1;
            }
        }
        assert_eq!(pulls, 1, "one pull per divergence, not per vote");
        // The repair response clears the suppression…
        shadow.reset_full(&a.phase2b());
        let v = vote_of(a.fast_propose(dec(9, 1)));
        let dv = cursor.extract(&v).expect("delta");
        assert!(matches!(shadow.fold(&dv), FoldOutcome::Vote(_)));
        // …and a fresh divergence pulls again immediately.
        let _lost = cursor.extract(&vote_of(a.fast_propose(dec(10, 1))));
        let v = vote_of(a.fast_propose(dec(11, 1)));
        let dv = cursor.extract(&v).expect("delta");
        assert!(matches!(shadow.fold(&dv), FoldOutcome::Diverged));
        assert!(shadow.should_pull(), "new divergence pulls at once");
    }

    #[test]
    fn cold_cursor_after_sender_restart_reprimes_with_a_full_vote() {
        // The cursor is volatile: a restarted node starts cold and sends
        // a full vote, which the receiver's shadow absorbs seamlessly
        // because the WAL-restored epoch keeps positions consistent.
        let mut a = acceptor(100);
        let mut cursor = DeltaCursor::new();
        let mut shadow = ShadowView::new();
        prime(
            &mut cursor,
            &mut shadow,
            &vote_of(a.fast_propose(dec(1, 1))),
        );
        let v2 = vote_of(a.fast_propose(dec(2, 1)));
        let dv = cursor.extract(&v2).expect("delta");
        assert!(matches!(shadow.fold(&dv), FoldOutcome::Vote(_)));
        // Crash + restart: acceptor state (incl. epoch) survives via
        // export/import, the cursor does not.
        let state = a.export_state();
        let mut a = AcceptorRecord::from_state(
            Arc::from(vec![AttrConstraint::at_least("stock", 0)]),
            5,
            4,
            32,
            state,
        );
        let mut cursor = DeltaCursor::new();
        let v3 = vote_of(a.fast_propose(dec(3, 1)));
        assert!(cursor.extract(&v3).is_none(), "cold cursor sends full");
        shadow.observe_full(&v3);
        let v4 = vote_of(a.fast_propose(dec(4, 1)));
        let dv = cursor.extract(&v4).expect("warm again");
        match shadow.fold(&dv) {
            FoldOutcome::Vote(v) => assert_eq!(v.cstruct.digest(), a.cstruct().digest()),
            other => panic!("post-restart fold failed: {other:?}"),
        }
    }

    #[test]
    fn votes_start_at_the_settled_watermark() {
        let mut a = acceptor(100);
        for i in 1..=3 {
            a.fast_propose(dec(i, 1));
            a.apply_visibility(txn(i), TxnOutcome::Committed, true);
        }
        // Three committed deltas stay in the open instance; a first
        // contact is sent the one option still in play, positioned
        // behind them, with the whole cstruct's digest.
        let vote = vote_of(a.fast_propose(dec(4, 1)));
        assert_eq!(vote.cstruct.base(), a.settled_watermark());
        assert_eq!(vote.cstruct.base().seq, 3);
        assert_eq!(vote.cstruct.len(), 1);
        assert_eq!(vote.cstruct.digest(), a.cstruct().digest());
        let mut cursor = DeltaCursor::new();
        let mut shadow = ShadowView::new();
        prime(&mut cursor, &mut shadow, &vote);
        assert_eq!(shadow.cstruct().len(), 1);
        // Deltas fold onto the tail exactly as onto a whole cstruct.
        let v5 = vote_of(a.fast_propose(dec(5, 1)));
        let dv = cursor.extract(&v5).expect("warm cursor ships deltas");
        assert_eq!((dv.from_seq, dv.entries.len(), dv.full_len), (4, 1, 5));
        match shadow.fold(&dv) {
            FoldOutcome::Vote(v) => {
                assert_eq!(v.cstruct.base().seq, 3);
                assert_eq!(v.cstruct.len(), 2);
                assert_eq!(v.cstruct.digest(), a.cstruct().digest());
            }
            other => panic!("fold onto a tail failed: {other:?}"),
        }
    }

    #[test]
    fn a_cursor_the_watermark_overtook_is_sent_the_vote() {
        let mut a = acceptor(100);
        let mut cursor = DeltaCursor::new();
        let mut shadow = ShadowView::new();
        prime(
            &mut cursor,
            &mut shadow,
            &vote_of(a.fast_propose(dec(1, 1))),
        );
        // Votes this destination is not a target of: the record moves on
        // and settles everything the destination was ever sent, and more.
        a.apply_visibility(txn(1), TxnOutcome::Committed, true);
        for i in 2..=4 {
            a.fast_propose(dec(i, 1));
            a.apply_visibility(txn(i), TxnOutcome::Committed, true);
        }
        let vote = vote_of(a.fast_propose(dec(5, 1)));
        assert_eq!(vote.cstruct.base().seq, 4);
        assert!(
            cursor.extract(&vote).is_none(),
            "position 1 is behind the watermark: the vote rebases"
        );
        shadow.observe_full(&vote);
        assert_eq!(
            shadow.cstruct().base().seq,
            4,
            "the settled prefix is dropped"
        );
        assert_eq!(shadow.cstruct().digest(), a.cstruct().digest());
        // Had that vote been lost, the next delta must not bridge the gap.
        let mut stale = ShadowView::new();
        stale.observe_full(&vote_of(acceptor(100).fast_propose(dec(1, 1))));
        let dv = cursor
            .extract(&vote_of(a.fast_propose(dec(6, 1))))
            .expect("warm");
        assert!(matches!(stale.fold(&dv), FoldOutcome::Diverged));
        assert!(matches!(shadow.fold(&dv), FoldOutcome::Vote(_)));
    }

    #[test]
    fn a_barrier_entry_ships_the_whole_cstruct_in_a_new_epoch() {
        let row = Row::new().with("stock", 100);
        let mut a = AcceptorRecord::with_value(Arc::from(Vec::new()), 5, 4, 32, row.clone());
        let mut cursor = DeltaCursor::new();
        let mut shadow = ShadowView::new();
        for i in 1..=2 {
            let vote = vote_of(a.fast_propose(dec(i, 1)));
            ship(&mut cursor, &mut shadow, &vote, &a);
            a.apply_visibility(txn(i), TxnOutcome::Committed, true);
        }
        let epoch = a.cstruct_epoch();
        // A physical write accepted behind two settled deltas does not
        // commute with them: the vote stops hiding them, and the epoch
        // change makes the warm destination take it whole.
        let write = TxnOption::solo(
            txn(3),
            Key::new(TableId(0), "item1"),
            UpdateOp::Physical(mdcc_common::PhysicalUpdate::write(a.version(), row)),
        );
        let vote = vote_of(a.fast_propose(write));
        assert!(vote
            .cstruct
            .status_of(txn(3))
            .expect("present")
            .is_accepted());
        assert_eq!(vote.cstruct.base().seq, 0);
        assert_eq!(vote.cstruct.len(), 3);
        assert!(a.cstruct_epoch() > epoch);
        assert!(cursor.extract(&vote).is_none());
        shadow.observe_full(&vote);
        assert_eq!(shadow.cstruct().len(), 3);
    }
}
