//! The acceptor's active decision (§3.2.1): whether an option may be
//! accepted against the record's committed state, its pending options
//! and, for commutative updates, the escrow left under the record's
//! demarcation limits (§3.4.2).
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

use std::sync::Arc;

use mdcc_common::error::AbortReason;
use mdcc_common::{Row, UpdateOp};

use super::AcceptorRecord;
use crate::cstruct::Entry;
use crate::demarcation::{escrow_accepts, EscrowView};
use crate::options::{OptionStatus, TxnOption};

impl AcceptorRecord {
    /// Options accepted but with unknown transaction outcome.
    pub(super) fn pending(&self) -> impl Iterator<Item = &Arc<Entry>> {
        self.open.iter().filter(|e| e.status.is_accepted())
    }

    /// SETCOMPATIBLE (Algorithm 3, lines 83–99): the storage node's active
    /// accept/reject decision.
    pub(super) fn validate(&self, opt: &TxnOption) -> OptionStatus {
        let (value, version) = (&self.state.value, self.state.version);
        match &opt.op {
            UpdateOp::Physical(p) => {
                // validSingle: no other pending option may exist.
                if self.pending().next().is_some() {
                    return OptionStatus::Rejected(AbortReason::PendingOption);
                }
                match p.vread {
                    // Insert: the record must not exist.
                    None if value.is_some() => OptionStatus::Rejected(AbortReason::AlreadyExists),
                    Some(vread) if value.is_none() || vread != version => {
                        OptionStatus::Rejected(AbortReason::StaleRead)
                    }
                    _ => OptionStatus::Accepted,
                }
            }
            UpdateOp::ReadGuard(vread) => {
                // §4.4 serializability: the read is valid iff the version
                // still matches and no write can sneak between the read
                // and the commit (pending writes reject the guard; other
                // guards — shared locks — coexist).
                if value.is_none() || *vread != version {
                    return OptionStatus::Rejected(AbortReason::StaleRead);
                }
                if self.pending().any(|e| !e.opt.op.is_guard()) {
                    return OptionStatus::Rejected(AbortReason::PendingOption);
                }
                OptionStatus::Accepted
            }
            UpdateOp::Commutative(c) => {
                let Some(base) = &self.state.base else {
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
        opt.op
            .read_version()
            .is_some_and(|v| v > self.state.version)
    }

    /// Builds the escrow view of one attribute: base `X`, the net of
    /// deltas already committed within this instance, and the sign-split
    /// pending deltas.
    fn escrow_view(&self, base: &Row, attr: &str) -> EscrowView {
        let base_v = base.get_int(attr).unwrap_or(0);
        let current = self
            .state
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
}
