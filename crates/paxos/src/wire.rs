//! [`Wire`] encodings for the Paxos vocabulary.
//!
//! These impls complete the shared wire layer of [`mdcc_common::wire`]
//! for the types this crate owns: ballots, options, cstructs and every
//! Phase1/Phase2 payload. `mdcc-recovery` writes them to disk and
//! `mdcc-core` puts them on the simulated network, so one encoding
//! defines both the durable format and the message's cost in wire bytes.

use std::sync::Arc;

use mdcc_common::wire::{encode_seq, err, Dec, Enc, Wire, WireResult};
use mdcc_common::{wire, Key, TxnId, UpdateOp, Version};

use crate::acceptor::{
    AcceptorState, Base, Committed, Letter, Phase1a, Phase2a, Phase2aRounds, Phase2b, Promise,
    RecordSnapshot, Reported, Resolution, VoteVerdict,
};
use crate::ballot::{Ballot, BallotKind};
use crate::cstruct::{CStruct, Entry, Mark};
use crate::options::{OptionStatus, Proposal, TxnOption, TxnOutcome};

wire!(struct Ballot { round, kind, proposer });
wire!(enum BallotKind, "ballot kind" { 0 => Fast, 1 => Classic });

wire!(enum OptionStatus, "option-status tag" {
    0 => Accepted,
    1 => Rejected(reason),
});

wire!(enum TxnOutcome, "txn-outcome tag" { 0 => Committed, 1 => Aborted });

wire!(struct Resolution { outcome, learned_accepted });
wire!(struct TxnOption { txn, key, op, peers });
wire!(struct Entry { opt, status });
wire!(struct RecordSnapshot { version, value, folded });
wire!(enum Committed, "committed-state tag" { 0 => Version(version), 1 => Snapshot(snapshot) });
wire!(struct Letter { txn, status, movable });
wire!(struct VoteVerdict { ballot, version, letters });

wire!(
    /// The snapshot is an `Option`: the broadcast pays the one byte that
    /// says it is absent, the answer to a behind acceptor carries it
    /// whole.
    struct Phase2a { ballot, version, snapshot, base, new_options, close_instance, reopen_fast }
);

/// The transaction and its write-set once, then each option as the
/// position of its record in the write-set and its update.
impl Wire for Proposal {
    fn encode(&self, out: &mut Enc) {
        self.txn().encode(out);
        self.peers().encode(out);
        encode_seq(self.ops().len(), self.ops(), out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        let txn = TxnId::decode(inp)?;
        let peers = Arc::decode(inp)?;
        let ops = Vec::decode(inp)?;
        match Proposal::from_parts(txn, peers, ops) {
            Some(proposal) => Ok(proposal),
            None => err("proposal index"),
        }
    }
}

/// The digest is a hash: fixed-width.
impl Wire for Phase1a {
    fn encode(&self, out: &mut Enc) {
        self.ballot.encode(out);
        self.version.encode(out);
        out.fixed64(self.digest);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(Phase1a {
            ballot: Ballot::decode(inp)?,
            version: Version::decode(inp)?,
            digest: inp.fixed64()?,
        })
    }
}

/// The accepted pair is one tag: 0 nothing accepted, 1 the ballot and
/// the whole cstruct (the bytes of the `Option` it was), 2 the ballot
/// and the echoed digest, fixed-width.
impl Wire for Promise {
    fn encode(&self, out: &mut Enc) {
        self.promised.encode(out);
        match &self.accepted {
            None => out.u8(0),
            Some((ballot, reported)) => {
                out.u8(match reported {
                    Reported::Whole(_) => 1,
                    Reported::Named(_) => 2,
                });
                ballot.encode(out);
                match reported {
                    Reported::Whole(cstruct) => cstruct.encode(out),
                    Reported::Named(digest) => out.fixed64(*digest),
                }
            }
        }
        self.committed.encode(out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        let promised = Ballot::decode(inp)?;
        let accepted = match inp.u8()? {
            0 => None,
            1 => Some((Ballot::decode(inp)?, Reported::Whole(CStruct::decode(inp)?))),
            2 => Some((Ballot::decode(inp)?, Reported::Named(inp.fixed64()?))),
            _ => return err("promise accepted tag"),
        };
        Ok(Promise {
            promised,
            accepted,
            committed: Committed::decode(inp)?,
        })
    }
}

/// First each distinct (transaction, write-set) the rounds' options name,
/// once; then each round: its record, then the [`Phase2a`] fields in
/// their own order, with each option written as the index of its
/// (transaction, write-set) and its update. An option's record is its
/// round's, so it is not written; the decoded options of one
/// (transaction, write-set) share one write-set.
impl Wire for Phase2aRounds {
    fn encode(&self, out: &mut Enc) {
        let options = self.0.iter().flat_map(|(_, round)| &round.new_options);
        let mut sets: Vec<&TxnOption> = Vec::new();
        let mut at = Vec::new();
        for opt in options {
            let same = |s: &&TxnOption| s.txn == opt.txn && s.peers == opt.peers;
            at.push(sets.iter().position(same).unwrap_or_else(|| {
                sets.push(opt);
                sets.len() - 1
            }) as u32);
        }
        out.u32(sets.len() as u32);
        for set in &sets {
            set.txn.encode(out);
            set.peers.encode(out);
        }
        let mut at = at.into_iter();
        out.u32(self.0.len() as u32);
        for (key, round) in &self.0 {
            key.encode(out);
            round.ballot.encode(out);
            round.version.encode(out);
            round.snapshot.encode(out);
            round.base.encode(out);
            out.u32(round.new_options.len() as u32);
            for (opt, at) in round.new_options.iter().zip(&mut at) {
                debug_assert_eq!(&opt.key, key, "an option of a round is on its record");
                out.u32(at);
                opt.op.encode(out);
            }
            out.bool(round.close_instance);
            round.reopen_fast.encode(out);
        }
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        let n = count(inp, "p2a write-set count")?;
        let mut sets = Vec::with_capacity(n);
        for _ in 0..n {
            sets.push((TxnId::decode(inp)?, Arc::<[Key]>::decode(inp)?));
        }
        let n = count(inp, "p2a round count")?;
        let mut rounds = Vec::with_capacity(n);
        for _ in 0..n {
            let key = Key::decode(inp)?;
            let ballot = Ballot::decode(inp)?;
            let version = Version::decode(inp)?;
            let snapshot = Option::decode(inp)?;
            let base = Base::decode(inp)?;
            let n = count(inp, "p2a option count")?;
            let mut new_options = Vec::with_capacity(n);
            for _ in 0..n {
                let Some((txn, peers)) = sets.get(inp.u32()? as usize) else {
                    return err("p2a write-set index");
                };
                if !peers.contains(&key) {
                    return err("p2a option outside its write-set");
                }
                new_options.push(TxnOption {
                    txn: *txn,
                    key: key.clone(),
                    op: UpdateOp::decode(inp)?,
                    peers: Arc::clone(peers),
                });
            }
            let round = Phase2a {
                ballot,
                version,
                snapshot,
                base,
                new_options,
                close_instance: inp.bool()?,
                reopen_fast: Option::decode(inp)?,
            };
            rounds.push((key, round));
        }
        Ok(Phase2aRounds(rounds))
    }
}

/// A count of items still to decode: refused when it exceeds the bytes
/// left, before anything is reserved for it.
fn count(inp: &mut Dec<'_>, context: &'static str) -> WireResult<usize> {
    let n = inp.u32()? as usize;
    if n > inp.remaining() {
        return err(context);
    }
    Ok(n)
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
    let n = count(inp, "cstruct length")?;
    let mut c = CStruct::starting_at(base);
    for _ in 0..n {
        c.append_entry(Arc::new(Entry::decode(inp)?));
    }
    Ok(c)
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

/// Tags 0 and 1 are the `None`/`Some` bytes of the `Option<CStruct>`
/// this field used to be, so a Phase2a without a base digest encodes to
/// the bytes it always did; tag 2 is the digest form and tag 3 the
/// proved-safe cstruct named by its digest, both fixed-width.
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
            Base::NamedSafe(digest) => {
                out.u8(3);
                out.fixed64(*digest);
            }
        }
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        match inp.u8()? {
            0 => Ok(Base::Held),
            1 => Ok(Base::ProvedSafe(CStruct::decode(inp)?)),
            2 => Ok(Base::Digest(inp.fixed64()?)),
            3 => Ok(Base::NamedSafe(inp.fixed64()?)),
            _ => err("phase2a base tag"),
        }
    }
}

impl AcceptorState {
    /// Appends the state to `out`: the checkpoint layout, written in
    /// place with the two hashed sets sorted by transaction. Returns
    /// `out.len()` where the committed projection ends: `out[start..end]`
    /// is what [`AcceptorState::encode_committed`] writes.
    pub(crate) fn encode_with_committed_end(&self, out: &mut Enc) -> usize {
        self.encode_committed(out);
        let committed_end = out.len();
        self.base.encode(out);
        self.promised.encode(out);
        self.accepted_ballot.encode(out);
        let entries = self.cstruct.shared();
        encode_seq(entries.len(), entries, out);
        let mut outcomes: Vec<(TxnId, Resolution)> =
            self.outcomes.iter().map(|(t, r)| (*t, *r)).collect();
        outcomes.sort_unstable_by_key(|(t, _)| *t);
        outcomes.encode(out);
        let mut resolved: Vec<TxnId> = self.resolved.iter().copied().collect();
        resolved.sort_unstable();
        resolved.encode(out);
        out.bool(self.close_on_resolve);
        self.reopen_fast_after.encode(out);
        self.closed_resolved.encode(out);
        self.inherited_folded.encode(out);
        encode_seq(self.settle_log.len(), &self.settle_log, out);
        self.settle_seq.encode(out);
        self.cstruct_epoch.encode(out);
        committed_end
    }

    /// Appends the committed projection `(version, value)`: the first two
    /// fields of the encoded state.
    pub(crate) fn encode_committed(&self, out: &mut Enc) {
        self.version.encode(out);
        self.value.encode(out);
    }
}

/// Decodes a list written strictly ascending by transaction, the one
/// order a hashed set is encoded in: a repeat or a list out of order is
/// refused, so that each state has one encoding.
fn decode_ascending<T: Wire, C: FromIterator<T>>(
    inp: &mut Dec<'_>,
    txn: fn(&T) -> TxnId,
) -> WireResult<C> {
    let items: Vec<T> = Vec::decode(inp)?;
    if !items.windows(2).all(|w| txn(&w[0]) < txn(&w[1])) {
        return err("acceptor-state set order");
    }
    Ok(items.into_iter().collect())
}

impl Wire for AcceptorState {
    fn encode(&self, out: &mut Enc) {
        self.encode_with_committed_end(out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(AcceptorState {
            version: Version::decode(inp)?,
            value: Option::decode(inp)?,
            base: Option::decode(inp)?,
            promised: Ballot::decode(inp)?,
            accepted_ballot: Option::decode(inp)?,
            cstruct: Vec::<Arc<Entry>>::decode(inp)?.into_iter().fold(
                CStruct::new(),
                |mut cstruct, entry| {
                    cstruct.append_entry(entry);
                    cstruct
                },
            ),
            outcomes: decode_ascending(inp, |(txn, _)| *txn)?,
            resolved: decode_ascending(inp, |txn| *txn)?,
            close_on_resolve: inp.bool()?,
            reopen_fast_after: Option::decode(inp)?,
            closed_resolved: Vec::decode(inp)?,
            inherited_folded: Vec::decode(inp)?,
            settle_log: Vec::decode(inp)?.into(),
            settle_seq: u64::decode(inp)?,
            cstruct_epoch: u64::decode(inp)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::error::AbortReason;
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

        // The four forms of the base: the two that existed keep the
        // bytes of the `Option<CStruct>` they were, the digest form and
        // the proved-safe base named by digest are a tag and eight bytes.
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
        let named = with_base(Base::NamedSafe(safe.digest()));
        assert!(matches!(round_trip(&named).base, Base::NamedSafe(d) if d == safe.digest()));
        assert_eq!(to_bytes(&named).len(), to_bytes(&held).len() + 8);
        let named_bytes = to_bytes(&named);
        for cut in 0..named_bytes.len() {
            assert!(from_bytes::<Phase2a>(&named_bytes[..cut]).is_err());
        }
        let mut bad = to_bytes(&held);
        let after_tag = to_bytes(&held.new_options).len() + 1 + to_bytes(&held.reopen_fast).len();
        let tag_at = bad.len() - after_tag - 1;
        assert_eq!(bad[tag_at], 0);
        bad[tag_at] = 4;
        assert!(from_bytes::<Phase2a>(&bad).is_err(), "unknown base tag");

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
    }

    /// A non-empty cstruct and a snapshot, for the Phase 1 payloads.
    fn phase1_parts() -> (CStruct, RecordSnapshot) {
        let mut held = CStruct::new();
        held.append(
            TxnOption::solo(
                TxnId::new(NodeId(0), 1),
                key("x"),
                UpdateOp::ReadGuard(Version(2)),
            ),
            OptionStatus::Rejected(AbortReason::StaleRead),
        );
        let snapshot = RecordSnapshot {
            version: Version(5),
            value: Some(Row::new().with("stock", 1)),
            folded: vec![TxnId::new(NodeId(4), 2)],
        };
        (held, snapshot)
    }

    /// Every form a promise takes: nothing accepted, the cstruct whole or
    /// named, the committed state whole or its version alone.
    fn promises() -> Vec<Promise> {
        let (held, snapshot) = phase1_parts();
        let promised = Ballot::classic(2, NodeId(3));
        let accepted = [
            None,
            Some((Ballot::fast(1, NodeId(0)), Reported::Whole(held.clone()))),
            Some((
                Ballot::classic(1, NodeId(2)),
                Reported::Named(held.digest()),
            )),
        ];
        let committed = [
            Committed::Version(Version(5)),
            Committed::Snapshot(snapshot),
        ];
        (accepted.iter())
            .flat_map(|a| committed.iter().map(move |c| (a.clone(), c.clone())))
            .map(|(accepted, committed)| Promise {
                promised,
                accepted,
                committed,
            })
            .collect()
    }

    #[test]
    fn phase1_payloads_round_trip_and_their_strict_prefixes_do_not_decode() {
        let (held, _) = phase1_parts();
        let p1a = Phase1a {
            ballot: Ballot::classic(2, NodeId(3)),
            version: Version(5),
            digest: held.digest(),
        };
        let bytes = to_bytes(&p1a);
        assert_eq!(from_bytes::<Phase1a>(&bytes).expect("round trip"), p1a);
        assert_eq!(bytes.len(), to_bytes(&(p1a.ballot, p1a.version)).len() + 8);
        for cut in 0..bytes.len() {
            assert!(from_bytes::<Phase1a>(&bytes[..cut]).is_err());
        }
        for promise in promises() {
            let bytes = to_bytes(&promise);
            let back: Promise = from_bytes(&bytes).expect("round trip");
            assert_eq!(to_bytes(&back), bytes);
            assert_eq!(back.committed, promise.committed);
            let form = |p: &Promise| match &p.accepted {
                None => None,
                Some((b, Reported::Whole(c))) => Some((*b, c.digest(), true)),
                Some((b, Reported::Named(d))) => Some((*b, *d, false)),
            };
            assert_eq!(form(&back), form(&promise));
            for cut in 0..bytes.len() {
                assert!(from_bytes::<Promise>(&bytes[..cut]).is_err());
            }
        }
    }

    #[test]
    fn a_named_promise_costs_a_digest_and_unknown_tags_are_refused() {
        let forms = promises();
        let (nothing, whole, named) = (&forms[0], &forms[2], &forms[4]);
        let (held, snapshot) = phase1_parts();
        // The whole cstruct travels as the `Option` it was; the named one
        // as a third tag, the ballot and eight bytes.
        assert_eq!(
            to_bytes(whole).len(),
            to_bytes(nothing).len()
                + to_bytes(&Ballot::fast(1, NodeId(0))).len()
                + to_bytes(&held).len()
        );
        assert_eq!(
            to_bytes(named).len(),
            to_bytes(nothing).len() + to_bytes(&Ballot::classic(1, NodeId(2))).len() + 8
        );
        // Committed state left out costs its version and a tag.
        assert_eq!(
            to_bytes(&forms[1]).len() - to_bytes(nothing).len(),
            to_bytes(&snapshot).len() - to_bytes(&snapshot.version).len()
        );
        let promised = to_bytes(&nothing.promised).len();
        let mut bad = to_bytes(nothing);
        assert_eq!(bad[promised], 0, "the accepted tag");
        bad[promised] = 3;
        assert!(from_bytes::<Promise>(&bad).is_err(), "unknown accepted tag");
        let mut bad = to_bytes(nothing);
        assert_eq!(bad[promised + 1], 0, "the committed tag");
        bad[promised + 1] = 2;
        assert!(
            from_bytes::<Promise>(&bad).is_err(),
            "unknown committed tag"
        );
    }

    fn key(pk: &str) -> Key {
        Key::new(TableId(0), pk)
    }

    /// A round on `pk` at instance 5 of a classic ballot, with `options`.
    fn round(pk: &str, options: Vec<TxnOption>) -> (Key, Phase2a) {
        let p2a = Phase2a {
            ballot: Ballot::classic(2, NodeId(3)),
            version: Version(5),
            snapshot: None,
            base: Base::Digest(0xfeed),
            new_options: options,
            close_instance: false,
            reopen_fast: None,
        };
        (key(pk), p2a)
    }

    /// The options of one three-record transaction, one per record.
    fn one_transaction(seq: u64) -> Vec<TxnOption> {
        let peers: Arc<[Key]> = ["a", "b", "c"].map(key).into_iter().collect();
        (peers.iter())
            .map(|k| TxnOption {
                txn: TxnId::new(NodeId(1), seq),
                key: k.clone(),
                op: UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
                peers: Arc::clone(&peers),
            })
            .collect()
    }

    /// Every shape one message of rounds takes: one round; the three
    /// rounds of one transaction's records; a close that appends nothing
    /// over a proved-safe base; a window replay on one record holding
    /// the options of two transactions.
    fn shapes() -> Vec<Phase2aRounds> {
        let (t1, t2) = (one_transaction(5), one_transaction(6));
        let mut safe = CStruct::new();
        safe.append(t1[0].clone(), OptionStatus::Accepted);
        let (k, mut close) = round("a", Vec::new());
        close.base = Base::ProvedSafe(safe);
        close.close_instance = true;
        close.reopen_fast = Some(Ballot::fast(3, NodeId(3)));
        vec![
            Phase2aRounds(vec![round("a", vec![t1[0].clone()])]),
            Phase2aRounds(
                t1.iter()
                    .map(|o| round(&o.key.pk, vec![o.clone()]))
                    .collect(),
            ),
            Phase2aRounds(vec![(k, close)]),
            Phase2aRounds(vec![round("b", vec![t1[1].clone(), t2[1].clone()])]),
        ]
    }

    #[test]
    fn phase2a_rounds_round_trip_and_share_each_write_set() {
        for rounds in shapes() {
            let bytes = to_bytes(&rounds);
            let back: Phase2aRounds = from_bytes(&bytes).expect("round trip");
            assert_eq!(to_bytes(&back), bytes);
            assert_eq!(back.0.len(), rounds.0.len());
            for ((key, got), (sent_key, sent)) in back.0.iter().zip(&rounds.0) {
                assert_eq!(key, sent_key);
                assert_eq!(
                    got.new_options, sent.new_options,
                    "same options, same order"
                );
                for (g, s) in got.new_options.iter().zip(&sent.new_options) {
                    assert_eq!((&g.op, &*g.peers), (&s.op, &*s.peers));
                }
            }
            let options: Vec<&TxnOption> =
                back.0.iter().flat_map(|(_, r)| &r.new_options).collect();
            for (a, b) in options
                .iter()
                .flat_map(|a| options.iter().map(move |b| (a, b)))
            {
                assert_eq!(
                    a.txn == b.txn,
                    Arc::ptr_eq(&a.peers, &b.peers),
                    "one write-set"
                );
            }
            for cut in 0..bytes.len() {
                assert!(from_bytes::<Phase2aRounds>(&bytes[..cut]).is_err());
            }
        }
    }

    #[test]
    fn three_rounds_of_one_transaction_name_its_write_set_once_and_no_record_twice() {
        let opts = one_transaction(5);
        let write_set = to_bytes(&opts[0].txn).len() + to_bytes(&opts[0].peers).len();
        let rounds: Vec<(Key, Phase2a)> = opts
            .iter()
            .map(|o| round(&o.key.pk, vec![o.clone()]))
            .collect();
        let alone: Vec<usize> = (rounds.iter())
            .map(|r| to_bytes(&Phase2aRounds(vec![r.clone()])).len())
            .collect();
        let together = to_bytes(&Phase2aRounds(rounds.clone())).len();
        // Two write-sets and two of the three counts of the rounds
        // message are saved.
        assert_eq!(together + 2 * write_set + 4, alone.iter().sum::<usize>());
        // One round costs its record once: the option's key is the
        // round's; the two counts and the index cost a byte each.
        let (key, p2a) = &rounds[0];
        let option_key = to_bytes(key).len();
        let keyed = to_bytes(key).len() + to_bytes(p2a).len();
        assert_eq!(alone[0] + option_key, keyed + 3);
    }

    /// One round on "a" written field by field: `sets` (transaction,
    /// write-set) entries announced, one written over `peers`; `rounds`
    /// rounds announced, one written, with `options` options announced
    /// and one written at write-set `index`.
    fn one_round_frame(
        sets: u32,
        rounds: u32,
        options: u32,
        index: u32,
        peers: &[&str],
    ) -> Vec<u8> {
        let mut out = Enc::default();
        out.u32(sets);
        TxnId::new(NodeId(1), 5).encode(&mut out);
        peers
            .iter()
            .map(|pk| key(pk))
            .collect::<Vec<Key>>()
            .encode(&mut out);
        out.u32(rounds);
        key("a").encode(&mut out);
        Ballot::classic(2, NodeId(3)).encode(&mut out);
        Version(5).encode(&mut out);
        None::<RecordSnapshot>.encode(&mut out);
        Base::Digest(0xfeed).encode(&mut out);
        out.u32(options);
        out.u32(index);
        UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)).encode(&mut out);
        out.bool(false);
        None::<Ballot>.encode(&mut out);
        out.finish()
    }

    #[test]
    fn rounds_naming_no_write_set_or_counting_past_their_bytes_do_not_decode() {
        let good = one_round_frame(1, 1, 1, 0, &["a", "b", "c"]);
        let opt = one_transaction(5).swap_remove(0);
        assert_eq!(
            good,
            to_bytes(&Phase2aRounds(vec![round("a", vec![opt])])),
            "the layout"
        );
        assert!(from_bytes::<Phase2aRounds>(&good).is_ok());
        let refused = |frame: Vec<u8>, what: &str| {
            assert!(from_bytes::<Phase2aRounds>(&frame).is_err(), "{what}");
        };
        refused(
            one_round_frame(1, 1, 1, 1, &["a", "b", "c"]),
            "an index past the write-sets",
        );
        refused(
            one_round_frame(1, 1, 1, 0, &["b", "c"]),
            "a write-set without the record",
        );
        let big = good.len() as u32;
        refused(one_round_frame(big, 1, 1, 0, &["a"]), "a write-set count");
        refused(one_round_frame(1, big, 1, 0, &["a"]), "a round count");
        refused(one_round_frame(1, 1, big, 0, &["a"]), "an option count");
    }

    #[test]
    fn field_list_layouts_are_pinned() {
        // One value of each type whose layout is a list of fields, every
        // tag of each such enum, as one FNV-1a/64 digest of their
        // encodings back to back.
        let (_, opts) = two_of_three();
        let entry = Entry {
            opt: opts[1].clone(),
            status: OptionStatus::Rejected(AbortReason::DemarcationLimit),
        };
        let mut held = CStruct::new();
        held.append(opts[0].clone(), OptionStatus::Accepted);
        let snapshot = RecordSnapshot {
            version: Version(200),
            value: Some(Row::new().with("stock", -3)),
            folded: vec![TxnId::new(NodeId(4), 2), TxnId::new(NodeId(5), 1)],
        };
        let letters = vec![
            Letter {
                txn: TxnId::new(NodeId(3), 4),
                status: OptionStatus::Accepted,
                movable: true,
            },
            Letter {
                txn: TxnId::new(NodeId(3), 5),
                status: OptionStatus::Rejected(AbortReason::PendingOption),
                movable: false,
            },
        ];
        let bytes = [
            to_bytes(&Ballot::fast(300, NodeId(2))),
            to_bytes(&Ballot::classic(1, NodeId(7))),
            to_bytes(&OptionStatus::Accepted),
            to_bytes(&OptionStatus::Rejected(AbortReason::Resolved)),
            to_bytes(&TxnOutcome::Committed),
            to_bytes(&TxnOutcome::Aborted),
            to_bytes(&Resolution {
                outcome: TxnOutcome::Aborted,
                learned_accepted: true,
            }),
            to_bytes(&opts[0]),
            to_bytes(&entry),
            to_bytes(&snapshot),
            to_bytes(&Phase1a {
                ballot: Ballot::classic(2, NodeId(3)),
                version: Version(200),
                digest: held.digest(),
            }),
            to_bytes(&Promise {
                promised: Ballot::classic(2, NodeId(3)),
                accepted: Some((Ballot::fast(1, NodeId(0)), Reported::Whole(held.clone()))),
                committed: Committed::Snapshot(snapshot.clone()),
            }),
            to_bytes(&Promise {
                promised: Ballot::classic(2, NodeId(3)),
                accepted: Some((Ballot::fast(1, NodeId(0)), Reported::Named(held.digest()))),
                committed: Committed::Version(Version(200)),
            }),
            to_bytes(&letters[1]),
            to_bytes(&VoteVerdict {
                ballot: Ballot::INITIAL_FAST,
                version: Version(2),
                letters,
            }),
            to_bytes(&Phase2a {
                ballot: Ballot::classic(2, NodeId(3)),
                version: Version(5),
                snapshot: Some(snapshot),
                base: Base::ProvedSafe(held),
                new_options: opts,
                close_instance: true,
                reopen_fast: Some(Ballot::fast(3, NodeId(3))),
            }),
        ]
        .concat();
        // Re-pinned from 0xf27a_6cc8_1525_5d98 when a Phase1b stopped
        // travelling as itself: a Phase1a names the leader's instance and
        // cstruct digest, and a promise leaves out what that names, with
        // a Phase1a and a whole and a lean promise in place of the Phase1b.
        let digest = mdcc_common::wire::fnv1a64(&bytes);
        assert_eq!(digest, 0x0c62_c5c6_d5ee_3016, "{digest:#018x}");
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

        /// So do they as rounds: one round, or the same round twice.
        #[test]
        fn phase2a_rounds_round_trip_and_their_strict_prefixes_do_not_decode(
            words in proptest::collection::vec(proptest::any::<u32>(), 12..13),
            with_snapshot in proptest::any::<bool>(),
            twice in proptest::any::<bool>(),
        ) {
            let round = (Key::new(TableId(1), "k"), generated_phase2a(&words, with_snapshot));
            let rounds = Phase2aRounds(vec![round; 1 + usize::from(twice)]);
            let bytes = to_bytes(&rounds);
            let back: Phase2aRounds = from_bytes(&bytes).expect("round trip");
            proptest::prop_assert_eq!(to_bytes(&back), bytes.clone());
            for cut in 0..bytes.len() {
                proptest::prop_assert!(from_bytes::<Phase2aRounds>(&bytes[..cut]).is_err());
            }
        }
    }
}
