//! The Paxos machinery behind MDCC: Classic, Multi-, Fast and Generalized
//! Paxos executed *per record*, with transaction options instead of plain
//! values.
//!
//! Everything in this crate is sans-IO: pure state machines and algebra
//! that consume typed inputs and return typed outputs. `mdcc-core` mounts
//! them on the simulator; tests drive them directly.
//!
//! Module tour:
//!
//! * [`ballot`] — ballot numbers; classic ballots outrank fast ballots of
//!   the same round (§3.3.1).
//! * [`options`] — transaction options ω(up, ✓/✗): the paper's central
//!   trick of agreeing on *the right to execute an update* rather than the
//!   update itself (§3.2.1) — and proposals, one transaction's options
//!   for one storage node.
//! * [`cstruct`] — command structures from Generalized Paxos with trace
//!   semantics: commutative accepted options commute, rejected options are
//!   neutral, physical accepted options are barriers (§3.4.1).
//! * [`quorum`] — classic/fast quorum arithmetic and subset enumeration.
//! * [`demarcation`] — the paper's new quorum demarcation limit
//!   `L = (N−Q_F)/N · X` plus the escrow-style pending-option check
//!   (§3.4.2, Figure 2).
//! * [`acceptor`] — per-record storage-node state: Phase1b, Phase2b
//!   classic/fast, option validation, visibility application.
//! * [`leader`] — per-record master: Phase1a, ProvedSafe, Phase2a,
//!   the fast⇄classic γ policy (§3.3.2).
//! * [`learner`] — coordinator-side learning of option statuses from
//!   Phase2b quorums — from the verdicts acceptors send, or from whole
//!   votes — including definite-collision detection.
//! * [`shadow`] — delta votes and per-acceptor shadow views, the vote
//!   compression verdicts replaced; kept for the benchmark kernels
//!   that name it, used by nothing else.

pub mod acceptor;
pub mod ballot;
pub mod cstruct;
pub mod demarcation;
pub mod leader;
pub mod learner;
pub mod options;
pub mod quorum;
pub mod shadow;
pub mod wire;

pub use acceptor::{
    AcceptorRecord, AcceptorState, Letter, Phase1b, Phase2b, RecordSnapshot, Resolution,
    VoteVerdict,
};
pub use ballot::{Ballot, BallotKind};
pub use cstruct::{CStruct, Mark};
pub use demarcation::AttrConstraint;
pub use leader::LeaderRecord;
pub use learner::{LearnOutcome, Learner};
pub use options::{OptionStatus, Proposal, TxnOption, TxnOutcome};
pub use shadow::{DeltaCursor, DeltaVote, FoldOutcome, ShadowView};
