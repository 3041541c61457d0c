//! What an acceptor tells learners: its Phase2b vote, the verdicts that
//! stand in for it on the way to coordinators, and the derived state
//! that keeps both cheap — the open set, the barrier count and the
//! settled watermark.
//!
//! # The settled watermark
//!
//! A committed commutative option stays in the cstruct until its
//! instance closes, so a hot record's cstruct grows with its history
//! while only its last few entries are still in play. The acceptor keeps
//! the position of the first entry without a recorded outcome — the
//! *settled watermark*, with the digest chain up to it — and the votes
//! it hands coordinators ([`AcceptorRecord::vote`], what
//! [`super::FastPropose::Vote`] and [`super::ClassicAccept::Vote`]
//! carry) start there. The invariants:
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

use std::collections::HashMap;
use std::sync::Arc;

use mdcc_common::{NodeId, TxnId, Version};

use super::{AcceptorRecord, Resolution};
use crate::ballot::Ballot;
use crate::cstruct::{CStruct, Entry, Mark};
use crate::options::{OptionStatus, TxnOption};

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
    /// Recomputes the derived fields — the open set, the barrier count
    /// and the settled watermark — from the held cstruct and outcomes.
    pub(super) fn derive(&mut self) {
        self.open = open_entries(&self.state.cstruct, &self.state.outcomes);
        self.barriers = barrier_entries(&self.state.cstruct);
        self.settled = Mark::START;
        self.advance_settled();
    }

    /// Opens a new cstruct epoch after a non-append mutation (wholesale
    /// replacement or entry removal): delta positions from the old epoch
    /// no longer reference this cstruct, so senders restart their
    /// cursors and ship the new epoch's contents from position zero.
    fn bump_epoch(&mut self) {
        self.state.cstruct_epoch += 1;
    }

    /// Replaces the cstruct wholesale (instance advance, snapshot or
    /// proved-safe adoption): a new epoch, and the derived fields are
    /// recomputed from the new contents.
    pub(super) fn replace_cstruct(&mut self, cstruct: CStruct) {
        self.state.cstruct = cstruct;
        self.derive();
        self.bump_epoch();
    }

    /// Moves the settled watermark forward to the first open entry.
    fn advance_settled(&mut self) {
        let first_open = self.open.first();
        let unsettled = &self.state.cstruct.shared()[self.settled.seq as usize..];
        for entry in unsettled {
            if first_open.is_some_and(|open| Arc::ptr_eq(open, entry)) {
                break;
            }
            self.settled = self.settled.after(entry);
        }
    }

    /// Appends ω(opt, status) to the cstruct; the entry is open unless
    /// its transaction's outcome overtook it.
    pub(super) fn append_decided(&mut self, opt: TxnOption, status: OptionStatus) {
        let entry = Arc::new(Entry { opt, status });
        if !self.state.cstruct.append_entry(Arc::clone(&entry)) {
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
        if self.state.outcomes.contains_key(&entry.opt.txn) {
            self.advance_settled();
        } else {
            self.open.push(entry);
        }
    }

    /// Records `txn`'s resolution; its entry, if any, is no longer open.
    pub(super) fn note_outcome(&mut self, txn: TxnId, resolution: Resolution) {
        self.state.outcomes.insert(txn, resolution);
        self.open.retain(|e| e.opt.txn != txn);
        self.advance_settled();
    }

    /// Removes the entry of `txn`, whose outcome is on record (so the
    /// entry is not open), from the cstruct — a non-append mutation,
    /// hence a new epoch.
    pub(super) fn remove_entry(&mut self, txn: TxnId) {
        if let Some(removed) = self.state.cstruct.remove(txn) {
            self.barriers -= usize::from(is_barrier(&removed));
            self.settled = Mark::START;
            self.advance_settled();
            self.bump_epoch();
        }
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
            self.open.iter().map(Arc::as_ptr).eq(open_entries(
                &self.state.cstruct,
                &self.state.outcomes
            )
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
            ballot: self.state.accepted_ballot.unwrap_or(self.state.promised),
            version: self.state.version,
            cstruct: self.state.cstruct.suffix(from),
            epoch: self.state.cstruct_epoch,
        }
    }

    /// The settled watermark and barrier count by definition: the mark
    /// after the longest prefix of entries with a recorded outcome, and
    /// the number of accepted physical or guard entries.
    fn settled_from_scratch(&self) -> (Mark, usize) {
        let settled = self
            .state
            .cstruct
            .entries()
            .take_while(|e| self.state.outcomes.contains_key(&e.opt.txn))
            .fold(Mark::START, Mark::after);
        (settled, barrier_entries(&self.state.cstruct))
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
            if self.state.outcomes.contains_key(&txn) {
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
}
