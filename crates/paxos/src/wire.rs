//! [`Wire`] encodings for the Paxos vocabulary.
//!
//! These impls complete the shared wire layer of [`mdcc_common::wire`]
//! for the types this crate owns: ballots, options, cstructs and every
//! Phase1/Phase2 payload. `mdcc-recovery` writes them to disk and
//! `mdcc-core` puts them on the simulated network, so one encoding
//! defines both the durable format and the message's cost in wire bytes.

use std::sync::Arc;

use mdcc_common::error::AbortReason;
use mdcc_common::wire::{encode_seq, err, Dec, Enc, Wire, WireResult};
use mdcc_common::{Key, Row, TxnId, UpdateOp, Version};

use crate::acceptor::{
    AcceptorState, Base, Letter, Phase1b, Phase2a, Phase2b, RecordSnapshot, Resolution, VoteVerdict,
};
use crate::ballot::{Ballot, BallotKind};
use crate::cstruct::{CStruct, Entry, Mark};
use crate::options::{OptionStatus, Proposal, TxnOption, TxnOutcome};
use crate::shadow::DeltaVote;

impl Wire for Ballot {
    fn encode(&self, out: &mut Enc) {
        out.u32(self.round);
        out.u8(match self.kind {
            BallotKind::Fast => 0,
            BallotKind::Classic => 1,
        });
        self.proposer.encode(out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        let round = inp.u32()?;
        let kind = match inp.u8()? {
            0 => BallotKind::Fast,
            1 => BallotKind::Classic,
            _ => return err("ballot kind"),
        };
        Ok(Ballot {
            round,
            kind,
            proposer: mdcc_common::NodeId::decode(inp)?,
        })
    }
}

impl Wire for OptionStatus {
    fn encode(&self, out: &mut Enc) {
        match self {
            OptionStatus::Accepted => out.u8(0),
            OptionStatus::Rejected(reason) => {
                out.u8(1);
                reason.encode(out);
            }
        }
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        match inp.u8()? {
            0 => Ok(OptionStatus::Accepted),
            1 => Ok(OptionStatus::Rejected(AbortReason::decode(inp)?)),
            _ => err("option-status tag"),
        }
    }
}

impl Wire for TxnOutcome {
    fn encode(&self, out: &mut Enc) {
        out.u8(match self {
            TxnOutcome::Committed => 0,
            TxnOutcome::Aborted => 1,
        });
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        match inp.u8()? {
            0 => Ok(TxnOutcome::Committed),
            1 => Ok(TxnOutcome::Aborted),
            _ => err("txn-outcome tag"),
        }
    }
}

impl Wire for Resolution {
    fn encode(&self, out: &mut Enc) {
        self.outcome.encode(out);
        out.bool(self.learned_accepted);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(Resolution {
            outcome: TxnOutcome::decode(inp)?,
            learned_accepted: inp.bool()?,
        })
    }
}

impl Wire for TxnOption {
    fn encode(&self, out: &mut Enc) {
        self.txn.encode(out);
        self.key.encode(out);
        self.op.encode(out);
        out.u32(self.peers.len() as u32);
        for peer in self.peers.iter() {
            peer.encode(out);
        }
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        let txn = TxnId::decode(inp)?;
        let key = Key::decode(inp)?;
        let op = UpdateOp::decode(inp)?;
        let n = inp.u32()? as usize;
        if n > inp.remaining() {
            return err("peers length");
        }
        let mut peers = Vec::with_capacity(n);
        for _ in 0..n {
            peers.push(Key::decode(inp)?);
        }
        Ok(TxnOption {
            txn,
            key,
            op,
            peers: Arc::from(peers),
        })
    }
}

/// The transaction and its write-set once, then each option as the
/// position of its record in the write-set and its update.
impl Wire for Proposal {
    fn encode(&self, out: &mut Enc) {
        self.txn().encode(out);
        out.u32(self.peers().len() as u32);
        for peer in self.peers().iter() {
            peer.encode(out);
        }
        out.u32(self.ops().len() as u32);
        for (at, op) in self.ops() {
            out.u32(*at);
            op.encode(out);
        }
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        let txn = TxnId::decode(inp)?;
        let peers: Vec<Key> = Vec::decode(inp)?;
        let ops = Vec::decode(inp)?;
        match Proposal::from_parts(txn, Arc::from(peers), ops) {
            Some(proposal) => Ok(proposal),
            None => err("proposal index"),
        }
    }
}

impl Wire for Entry {
    fn encode(&self, out: &mut Enc) {
        self.opt.encode(out);
        self.status.encode(out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(Entry {
            opt: TxnOption::decode(inp)?,
            status: OptionStatus::decode(inp)?,
        })
    }
}

/// The chain is a hash: fixed-width.
impl Wire for Mark {
    fn encode(&self, out: &mut Enc) {
        out.u64(self.seq);
        out.fixed64(self.chain);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(Mark {
            seq: inp.u64()?,
            chain: inp.fixed64()?,
        })
    }
}

/// The held entries only: a whole cstruct everywhere except inside a
/// [`Phase2b`], whose encoding carries the base alongside.
impl Wire for CStruct {
    fn encode(&self, out: &mut Enc) {
        out.u32(self.len() as u32);
        for entry in self.entries() {
            entry.encode(out);
        }
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        decode_cstruct_from(Mark::START, inp)
    }
}

/// Decodes a cstruct's entries as the tail of one that starts at `base`.
fn decode_cstruct_from(base: Mark, inp: &mut Dec<'_>) -> WireResult<CStruct> {
    let n = inp.u32()? as usize;
    if n > inp.remaining() {
        return err("cstruct length");
    }
    let mut c = CStruct::starting_at(base);
    for _ in 0..n {
        c.append_entry(Arc::new(Entry::decode(inp)?));
    }
    Ok(c)
}

impl Wire for RecordSnapshot {
    fn encode(&self, out: &mut Enc) {
        self.version.encode(out);
        self.value.encode(out);
        self.folded.encode(out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(RecordSnapshot {
            version: Version::decode(inp)?,
            value: Option::decode(inp)?,
            folded: Vec::decode(inp)?,
        })
    }
}

impl Wire for Phase1b {
    fn encode(&self, out: &mut Enc) {
        self.promised.encode(out);
        self.accepted.encode(out);
        self.snapshot.encode(out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(Phase1b {
            promised: Ballot::decode(inp)?,
            accepted: Option::decode(inp)?,
            snapshot: RecordSnapshot::decode(inp)?,
        })
    }
}

/// A vote whose cstruct starts at the settled watermark names the mark
/// (a tag byte, the sequence number and the eight-byte chain); a whole
/// cstruct costs the one byte that says it is whole.
impl Wire for Phase2b {
    fn encode(&self, out: &mut Enc) {
        self.ballot.encode(out);
        self.version.encode(out);
        let base = self.cstruct.base();
        (base != Mark::START).then_some(base).encode(out);
        self.cstruct.encode(out);
        out.u64(self.epoch);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        let ballot = Ballot::decode(inp)?;
        let version = Version::decode(inp)?;
        let base = Option::decode(inp)?.unwrap_or(Mark::START);
        Ok(Phase2b {
            ballot,
            version,
            cstruct: decode_cstruct_from(base, inp)?,
            epoch: inp.u64()?,
        })
    }
}

impl Wire for Letter {
    fn encode(&self, out: &mut Enc) {
        self.txn.encode(out);
        self.status.encode(out);
        out.bool(self.movable);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(Letter {
            txn: TxnId::decode(inp)?,
            status: OptionStatus::decode(inp)?,
            movable: inp.bool()?,
        })
    }
}

impl Wire for VoteVerdict {
    fn encode(&self, out: &mut Enc) {
        self.ballot.encode(out);
        self.version.encode(out);
        self.letters.encode(out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(VoteVerdict {
            ballot: Ballot::decode(inp)?,
            version: Version::decode(inp)?,
            letters: Vec::decode(inp)?,
        })
    }
}

impl Wire for DeltaVote {
    fn encode(&self, out: &mut Enc) {
        self.ballot.encode(out);
        self.version.encode(out);
        out.u64(self.epoch);
        out.u64(self.from_seq);
        self.entries.encode(out);
        out.fixed64(self.digest);
        out.u64(self.full_len);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(DeltaVote {
            ballot: Ballot::decode(inp)?,
            version: Version::decode(inp)?,
            epoch: inp.u64()?,
            from_seq: inp.u64()?,
            entries: Vec::decode(inp)?,
            digest: inp.fixed64()?,
            full_len: inp.u64()?,
        })
    }
}

/// Tags 0 and 1 are the `None`/`Some` bytes of the `Option<CStruct>`
/// this field used to be, so a Phase2a without a base digest encodes to
/// the bytes it always did; tag 2 is the digest form.
impl Wire for Base {
    fn encode(&self, out: &mut Enc) {
        match self {
            Base::Held => out.u8(0),
            Base::ProvedSafe(safe) => {
                out.u8(1);
                safe.encode(out);
            }
            Base::Digest(digest) => {
                out.u8(2);
                out.fixed64(*digest);
            }
        }
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        match inp.u8()? {
            0 => Ok(Base::Held),
            1 => Ok(Base::ProvedSafe(CStruct::decode(inp)?)),
            2 => Ok(Base::Digest(inp.fixed64()?)),
            _ => err("phase2a base tag"),
        }
    }
}

/// The snapshot is an `Option`: the broadcast pays the one byte that
/// says it is absent, the answer to a behind acceptor carries it whole.
impl Wire for Phase2a {
    fn encode(&self, out: &mut Enc) {
        self.ballot.encode(out);
        self.version.encode(out);
        self.snapshot.encode(out);
        self.base.encode(out);
        self.new_options.encode(out);
        out.bool(self.close_instance);
        self.reopen_fast.encode(out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(Phase2a {
            ballot: Ballot::decode(inp)?,
            version: Version::decode(inp)?,
            snapshot: Option::decode(inp)?,
            base: Base::decode(inp)?,
            new_options: Vec::decode(inp)?,
            close_instance: inp.bool()?,
            reopen_fast: Option::decode(inp)?,
        })
    }
}

/// A borrowed view of one acceptor's durable state — the one definition
/// of its checkpoint layout. [`AcceptorState`]'s `Wire::encode` and
/// [`crate::AcceptorRecord::encode_state`] both write through it, so the
/// exported and the in-place encodings cannot drift apart. Fields mirror
/// [`AcceptorState`]; `settle_log` is the two halves of a ring buffer.
pub(crate) struct StateView<'a> {
    pub version: Version,
    pub value: &'a Option<Row>,
    pub base: &'a Option<Row>,
    pub promised: Ballot,
    pub accepted_ballot: Option<Ballot>,
    pub entries: &'a [Arc<Entry>],
    pub outcomes: &'a [(TxnId, Resolution)],
    pub resolved: &'a [TxnId],
    pub close_on_resolve: bool,
    pub reopen_fast_after: Option<Ballot>,
    pub closed_resolved: &'a [(TxnOption, Resolution)],
    pub inherited_folded: &'a [TxnId],
    pub settle_log: (&'a [TxnId], &'a [TxnId]),
    pub settle_seq: u64,
    pub cstruct_epoch: u64,
}

/// The committed projection `(version, value)`: the first two fields of
/// an acceptor's encoded state.
pub(crate) fn encode_committed(version: Version, value: &Option<Row>, out: &mut Enc) {
    version.encode(out);
    value.encode(out);
}

fn encode_slice<T: Wire>(items: &[T], out: &mut Enc) {
    encode_seq(items.len(), items, out);
}

impl StateView<'_> {
    /// Appends the state to `out`. Returns `out.len()` where the
    /// committed projection ends: `out[start..end]` is what
    /// [`encode_committed`] writes for this state.
    pub(crate) fn encode(&self, out: &mut Enc) -> usize {
        encode_committed(self.version, self.value, out);
        let committed_end = out.len();
        self.base.encode(out);
        self.promised.encode(out);
        self.accepted_ballot.encode(out);
        encode_slice(self.entries, out);
        encode_slice(self.outcomes, out);
        encode_slice(self.resolved, out);
        out.bool(self.close_on_resolve);
        self.reopen_fast_after.encode(out);
        encode_slice(self.closed_resolved, out);
        encode_slice(self.inherited_folded, out);
        let (front, back) = self.settle_log;
        encode_seq(front.len() + back.len(), front.iter().chain(back), out);
        self.settle_seq.encode(out);
        self.cstruct_epoch.encode(out);
        committed_end
    }
}

impl Wire for AcceptorState {
    fn encode(&self, out: &mut Enc) {
        StateView {
            version: self.version,
            value: &self.value,
            base: &self.base,
            promised: self.promised,
            accepted_ballot: self.accepted_ballot,
            entries: &self.entries,
            outcomes: &self.outcomes,
            resolved: &self.resolved,
            close_on_resolve: self.close_on_resolve,
            reopen_fast_after: self.reopen_fast_after,
            closed_resolved: &self.closed_resolved,
            inherited_folded: &self.inherited_folded,
            settle_log: (&self.settle_log[..], &[]),
            settle_seq: self.settle_seq,
            cstruct_epoch: self.cstruct_epoch,
        }
        .encode(out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(AcceptorState {
            version: Version::decode(inp)?,
            value: Option::decode(inp)?,
            base: Option::decode(inp)?,
            promised: Ballot::decode(inp)?,
            accepted_ballot: Option::decode(inp)?,
            entries: Vec::decode(inp)?,
            outcomes: Vec::decode(inp)?,
            resolved: Vec::decode(inp)?,
            close_on_resolve: inp.bool()?,
            reopen_fast_after: Option::decode(inp)?,
            closed_resolved: Vec::decode(inp)?,
            inherited_folded: Vec::decode(inp)?,
            settle_log: Vec::decode(inp)?,
            settle_seq: u64::decode(inp)?,
            cstruct_epoch: u64::decode(inp)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::wire::{from_bytes, to_bytes};
    use mdcc_common::{CommutativeUpdate, NodeId, PhysicalUpdate, Row, TableId};

    fn round_trip<T: Wire + std::fmt::Debug>(v: &T) -> T {
        let bytes = to_bytes(v);
        from_bytes(&bytes).expect("round trip")
    }

    #[test]
    fn options_and_ballots_round_trip() {
        let opt = TxnOption {
            txn: TxnId::new(NodeId(1), 5),
            key: Key::new(TableId(0), "a"),
            op: UpdateOp::Commutative(CommutativeUpdate::delta("stock", -3).and("sold", 3)),
            peers: Arc::from(vec![Key::new(TableId(0), "a"), Key::new(TableId(0), "b")]),
        };
        let back = round_trip(&opt);
        assert_eq!(back.txn, opt.txn);
        assert_eq!(back.op, opt.op);
        assert_eq!(&*back.peers, &*opt.peers);

        for ballot in [
            Ballot::INITIAL_FAST,
            Ballot::classic(9, NodeId(2)),
            Ballot::fast(4, NodeId(1)),
        ] {
            assert_eq!(round_trip(&ballot), ballot);
        }
        for status in [
            OptionStatus::Accepted,
            OptionStatus::Rejected(AbortReason::DemarcationLimit),
        ] {
            assert_eq!(round_trip(&status), status);
        }
    }

    /// A three-record transaction's options on two of its records.
    fn two_of_three() -> (Proposal, Vec<TxnOption>) {
        let txn = TxnId::new(NodeId(1), 5);
        let peers: Arc<[Key]> = ["a", "b", "c"]
            .map(|pk| Key::new(TableId(0), pk))
            .into_iter()
            .collect();
        let option = |at: usize, op| TxnOption {
            txn,
            key: peers[at].clone(),
            op,
            peers: Arc::clone(&peers),
        };
        let opts = vec![
            option(2, UpdateOp::ReadGuard(Version(4))),
            option(
                0,
                UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
            ),
        ];
        (Proposal::of(&opts).expect("one transaction"), opts)
    }

    #[test]
    fn proposals_round_trip_and_give_back_their_options() {
        let (proposal, opts) = two_of_three();
        let back = round_trip(&proposal);
        assert_eq!(to_bytes(&back), to_bytes(&proposal));
        let options: Vec<TxnOption> = back.options().collect();
        assert_eq!(options, opts, "same options, same order");
        for (got, sent) in options.iter().zip(&opts) {
            assert_eq!(got.op, sent.op);
            assert_eq!(&*got.peers, &*sent.peers);
            assert!(Arc::ptr_eq(&got.peers, &options[0].peers), "one write-set");
        }
    }

    #[test]
    fn proposal_of_refuses_what_is_not_one_transaction_over_one_write_set() {
        let (_, opts) = two_of_three();
        assert!(Proposal::of(&[]).is_none(), "empty");
        let twice = [opts[0].clone(), opts[0].clone()];
        assert!(Proposal::of(&twice).is_none(), "a record named twice");
        let mut other = opts[1].clone();
        other.txn = TxnId::new(NodeId(2), 5);
        assert!(
            Proposal::of([&opts[0], &other]).is_none(),
            "two transactions"
        );
        let mut outside = opts[1].clone();
        outside.key = Key::new(TableId(0), "z");
        assert!(
            Proposal::of([&opts[0], &outside]).is_none(),
            "a record off the write-set"
        );
    }

    #[test]
    fn a_proposal_naming_no_peer_or_one_twice_does_not_decode() {
        let (proposal, _) = two_of_three();
        let bytes = to_bytes(&proposal);
        // `bytes` with the varint at `at` replaced by the encoding of `v`.
        let with_varint = |at: usize, v: u32| {
            let mut rest = Dec::new(&bytes[at..]);
            rest.u32().expect("a varint");
            let mut b = bytes[..at].to_vec();
            b.extend_from_slice(&to_bytes(&v));
            b.extend_from_slice(&bytes[bytes.len() - rest.remaining()..]);
            b
        };
        // The last option's index sits right after the first option.
        let first_end = to_bytes(&proposal.txn()).len()
            + to_bytes(&proposal.peers().to_vec()).len()
            + to_bytes(&(proposal.ops().len() as u32)).len()
            + to_bytes(&proposal.ops()[0]).len();
        let with_last_index = |at: u32| with_varint(first_end, at);
        assert_eq!(with_last_index(0), bytes, "the index found");
        assert!(from_bytes::<Proposal>(&with_last_index(1)).is_ok());
        assert!(
            from_bytes::<Proposal>(&with_last_index(3)).is_err(),
            "an index equal to the write-set's length"
        );
        assert!(
            from_bytes::<Proposal>(&with_last_index(2)).is_err(),
            "the first option's index again"
        );
        // A count larger than the input, for the write-set and the options.
        let peers_at = to_bytes(&proposal.txn()).len();
        let ops_at = peers_at + to_bytes(&proposal.peers().to_vec()).len();
        for at in [peers_at, ops_at] {
            let b = with_varint(at, bytes.len() as u32);
            assert!(from_bytes::<Proposal>(&b).is_err(), "count at byte {at}");
        }
        for cut in 0..bytes.len() {
            assert!(from_bytes::<Proposal>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn phase_payloads_round_trip() {
        let mut safe = CStruct::new();
        safe.append(
            TxnOption::solo(
                TxnId::new(NodeId(0), 1),
                Key::new(TableId(0), "x"),
                UpdateOp::ReadGuard(Version(2)),
            ),
            OptionStatus::Accepted,
        );
        let p2a = Phase2a {
            ballot: Ballot::classic(2, NodeId(3)),
            version: Version(5),
            snapshot: Some(RecordSnapshot {
                version: Version(5),
                value: Some(Row::new().with("stock", 1)),
                folded: vec![TxnId::new(NodeId(4), 2)],
            }),
            base: Base::ProvedSafe(safe.clone()),
            new_options: vec![TxnOption::solo(
                TxnId::new(NodeId(9), 7),
                Key::new(TableId(0), "x"),
                UpdateOp::Physical(PhysicalUpdate::delete(Version(5))),
            )],
            close_instance: true,
            reopen_fast: Some(Ballot::fast(3, NodeId(3))),
        };
        let back = round_trip(&p2a);
        assert_eq!(back.ballot, p2a.ballot);
        assert_eq!(back.version, p2a.version);
        assert_eq!(back.snapshot, p2a.snapshot);
        assert!(matches!(&back.base, Base::ProvedSafe(c) if c.len() == 1));
        assert_eq!(back.new_options, p2a.new_options);
        assert!(back.close_instance);
        assert_eq!(back.reopen_fast, p2a.reopen_fast);

        // The broadcast form: no snapshot, one byte instead of it.
        let lean = Phase2a {
            snapshot: None,
            ..p2a.clone()
        };
        assert_eq!(round_trip(&lean).snapshot, None);
        assert_eq!(
            to_bytes(&lean).len() + to_bytes(&p2a.snapshot).len(),
            to_bytes(&p2a).len() + 1
        );

        // The three forms of the base: the two that existed keep the
        // bytes of the `Option<CStruct>` they were, the digest form is a
        // third tag and eight bytes.
        let with_base = |base: Base| Phase2a {
            base,
            ..p2a.clone()
        };
        let (held, proved) = (with_base(Base::Held), with_base(p2a.base.clone()));
        let as_option = |safe: Option<CStruct>| {
            let mut out = Enc::default();
            p2a.ballot.encode(&mut out);
            p2a.version.encode(&mut out);
            p2a.snapshot.encode(&mut out);
            safe.encode(&mut out);
            p2a.new_options.encode(&mut out);
            out.bool(p2a.close_instance);
            p2a.reopen_fast.encode(&mut out);
            out.finish()
        };
        assert_eq!(to_bytes(&held), as_option(None));
        assert_eq!(to_bytes(&proved), as_option(Some(safe.clone())));
        assert!(matches!(round_trip(&held).base, Base::Held));
        let onto = with_base(Base::Digest(safe.digest()));
        assert!(matches!(round_trip(&onto).base, Base::Digest(d) if d == safe.digest()));
        assert_eq!(to_bytes(&onto).len(), to_bytes(&held).len() + 8);
        let mut bad = to_bytes(&held);
        let after_tag = to_bytes(&held.new_options).len() + 1 + to_bytes(&held.reopen_fast).len();
        let tag_at = bad.len() - after_tag - 1;
        assert_eq!(bad[tag_at], 0);
        bad[tag_at] = 3;
        assert!(from_bytes::<Phase2a>(&bad).is_err(), "unknown base tag");

        let p1b = Phase1b {
            promised: Ballot::classic(2, NodeId(3)),
            accepted: Some((Ballot::fast(1, NodeId(0)), safe.clone())),
            snapshot: RecordSnapshot::absent(),
        };
        let back = round_trip(&p1b);
        assert_eq!(back.promised, p1b.promised);
        assert_eq!(back.accepted.as_ref().map(|(b, c)| (*b, c.len())), {
            p1b.accepted.as_ref().map(|(b, c)| (*b, c.len()))
        });

        let p2b = Phase2b {
            ballot: Ballot::fast(1, NodeId(0)),
            version: Version(9),
            cstruct: safe.clone(),
            epoch: 3,
        };
        let back = round_trip(&p2b);
        assert_eq!(back.ballot, p2b.ballot);
        assert_eq!(back.version, p2b.version);
        assert_eq!(back.cstruct.len(), p2b.cstruct.len());
        assert_eq!(back.epoch, 3);

        // A vote that starts at a settled watermark names the mark and
        // resumes the digest chain from it; a whole one pays one byte.
        let mut whole = safe.clone();
        whole.append(
            TxnOption::solo(
                TxnId::new(NodeId(0), 2),
                Key::new(TableId(0), "x"),
                UpdateOp::ReadGuard(Version(2)),
            ),
            OptionStatus::Accepted,
        );
        let base = Mark::START.after(whole.entries().next().expect("two entries"));
        let tail = Phase2b {
            cstruct: whole.suffix(base),
            ..p2b.clone()
        };
        let back = round_trip(&tail);
        assert_eq!(back.cstruct.base(), base);
        assert_eq!(back.cstruct.len(), 1);
        assert_eq!(back.cstruct.end_seq(), 2);
        assert_eq!(back.cstruct.digest(), whole.digest());
        let header = |vote: &Phase2b| to_bytes(vote).len() - to_bytes(&vote.cstruct).len();
        assert_eq!(header(&tail), header(&p2b) + to_bytes(&base).len());

        let dv = crate::shadow::DeltaVote {
            ballot: Ballot::fast(1, NodeId(0)),
            version: Version(9),
            epoch: 3,
            from_seq: 2,
            entries: safe.shared().to_vec(),
            digest: safe.digest(),
            full_len: 3,
        };
        let back = round_trip(&dv);
        assert_eq!(back.ballot, dv.ballot);
        assert_eq!(back.from_seq, 2);
        assert_eq!(back.entries.len(), dv.entries.len());
        assert_eq!(back.digest, dv.digest);
        assert_eq!(back.full_len, 3);
    }

    /// A Phase2a from generated parts: with or without the snapshot,
    /// every form of the base, any number of options.
    fn generated_phase2a(words: &[u32], with_snapshot: bool) -> Phase2a {
        let word = |i: usize| u64::from(words[i % words.len()]);
        let opt = |seq: u64| {
            TxnOption::solo(
                TxnId::new(NodeId(seq as u32 % 7), seq),
                Key::new(TableId(1), "k"),
                UpdateOp::Commutative(CommutativeUpdate::delta("stock", -(seq as i64 % 5))),
            )
        };
        let mut held = CStruct::new();
        for seq in 0..word(1) % 3 {
            held.append(opt(seq), OptionStatus::Accepted);
        }
        let base = match word(2) % 3 {
            0 => Base::Held,
            1 => Base::ProvedSafe(held),
            _ => Base::Digest(word(3) << 32 | word(4)),
        };
        Phase2a {
            ballot: Ballot::classic(words[0], NodeId(words[0] % 5)),
            version: Version(word(5)),
            snapshot: with_snapshot.then(|| RecordSnapshot {
                version: Version(word(5)),
                value: (word(6) % 2 == 0).then(|| Row::new().with("stock", word(7) as i64)),
                folded: (0..word(8) % 14)
                    .map(|s| TxnId::new(NodeId(2), s))
                    .collect(),
            }),
            base,
            new_options: (0..word(9) % 4).map(|s| opt(100 + s)).collect(),
            close_instance: word(10) % 2 == 0,
            reopen_fast: (word(11) % 2 == 0).then(|| Ballot::fast(words[0] + 1, NodeId(1))),
        }
    }

    proptest::proptest! {
        /// Both shapes of Phase2a round-trip, and a frame cut short
        /// anywhere is an error, never a panic or another message.
        #[test]
        fn phase2a_round_trips_and_its_strict_prefixes_do_not_decode(
            words in proptest::collection::vec(proptest::any::<u32>(), 12..13),
            with_snapshot in proptest::any::<bool>(),
        ) {
            let p2a = generated_phase2a(&words, with_snapshot);
            let bytes = to_bytes(&p2a);
            let back: Phase2a = from_bytes(&bytes).expect("round trip");
            proptest::prop_assert_eq!(to_bytes(&back), bytes.clone());
            proptest::prop_assert_eq!(back.snapshot.is_some(), with_snapshot);
            for cut in 0..bytes.len() {
                proptest::prop_assert!(
                    from_bytes::<Phase2a>(&bytes[..cut]).is_err(),
                    "a {cut}-byte prefix of {} decoded",
                    bytes.len()
                );
            }
        }
    }
}
