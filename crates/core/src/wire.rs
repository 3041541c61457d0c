//! Byte-accurate wire encoding of [`Msg`].
//!
//! The simulator charges transmission delay, link queueing and per-byte
//! service cost for [`NetMessage::wire_bytes`], so every protocol
//! message must know its canonical encoded size. The encoding reuses the
//! shared wire layer ([`mdcc_common::wire`]) that also defines the WAL
//! and checkpoint formats — one set of bytes for disk and network.
//!
//! Traffic-class mapping (drives the byte breakdown in experiment
//! reports): reads are [`TrafficClass::Read`], all anti-entropy sync
//! traffic is [`TrafficClass::Sync`], a pulled whole vote and its
//! request are [`TrafficClass::Repair`], everything else — proposals,
//! verdicts, Phase1/2, visibility, recovery — is
//! [`TrafficClass::Protocol`].

use mdcc_common::wire::{err, wire_len, Dec, Enc, Wire, WireResult, FRAME_OVERHEAD};
use mdcc_common::{Key, TxnId};
use mdcc_paxos::acceptor::{Phase1b, Phase2a, Phase2b, RecordSnapshot, VoteVerdict};
use mdcc_paxos::{Ballot, TxnOutcome};
use mdcc_sim::{NetMessage, TrafficClass};

use crate::msg::Msg;

impl Wire for Msg {
    fn encode(&self, out: &mut Enc) {
        match self {
            Msg::Propose(proposal) => {
                out.u8(0);
                proposal.encode(out);
            }
            Msg::ProposeToMaster(opt) => {
                out.u8(1);
                opt.encode(out);
            }
            Msg::Visibility {
                txn,
                outcome,
                records,
            } => {
                out.u8(2);
                txn.encode(out);
                outcome.encode(out);
                records.encode(out);
            }
            Msg::StartRecovery { key } => {
                out.u8(3);
                key.encode(out);
            }
            Msg::Vote { key, vote } => {
                out.u8(4);
                key.encode(out);
                vote.encode(out);
            }
            Msg::NotFast { key, txn, promised } => {
                out.u8(5);
                key.encode(out);
                txn.encode(out);
                promised.encode(out);
            }
            Msg::InstanceFull { key, txn } => {
                out.u8(6);
                key.encode(out);
                txn.encode(out);
            }
            Msg::AlreadyResolved { key, txn, outcome } => {
                out.u8(7);
                key.encode(out);
                txn.encode(out);
                outcome.encode(out);
            }
            Msg::GoFast { key, txn } => {
                out.u8(8);
                key.encode(out);
                txn.encode(out);
            }
            Msg::P1a { key, ballot } => {
                out.u8(9);
                key.encode(out);
                ballot.encode(out);
            }
            Msg::P1b { key, payload } => {
                out.u8(10);
                key.encode(out);
                payload.encode(out);
            }
            Msg::P2a { key, payload } => {
                out.u8(11);
                key.encode(out);
                payload.as_ref().encode(out);
            }
            Msg::P2aNack { key, promised } => {
                out.u8(12);
                key.encode(out);
                promised.encode(out);
            }
            Msg::P2aStale { key, snapshot } => {
                out.u8(13);
                key.encode(out);
                snapshot.encode(out);
            }
            Msg::ReadReq { req, key } => {
                out.u8(14);
                out.u64(*req);
                key.encode(out);
            }
            Msg::ReadResp {
                req,
                key,
                version,
                value,
            } => {
                out.u8(15);
                out.u64(*req);
                key.encode(out);
                version.encode(out);
                value.encode(out);
            }
            Msg::QueryStatus { txn, key } => {
                out.u8(16);
                txn.encode(out);
                key.encode(out);
            }
            Msg::StatusResp {
                txn,
                key,
                vote,
                outcome,
            } => {
                out.u8(17);
                txn.encode(out);
                key.encode(out);
                vote.encode(out);
                outcome.encode(out);
            }
            // Tags 18 and 19 (the per-key sync request and reply) are
            // retired, not reused.
            Msg::SyncDigestReq => out.u8(20),
            Msg::SyncDigest { ranges } => {
                out.u8(21);
                ranges.encode(out);
            }
            Msg::SyncRangePull { ranges } => {
                out.u8(22);
                ranges.encode(out);
            }
            Msg::SyncChunk { items } => {
                out.u8(23);
                items.encode(out);
            }
            // Tags 24 to 30, 34 and 38 (local timers, which never
            // crossed the wire) and 31 and 33 (the delta vote and the
            // read-repair reply that is now a `Vote`) are retired, not
            // reused.
            Msg::CstructPull { key } => {
                out.u8(32);
                key.encode(out);
            }
            Msg::Mastership(inner) => {
                out.u8(35);
                inner.encode(out);
            }
            Msg::ProposeMastered { origin_dc, opt } => {
                out.u8(36);
                origin_dc.encode(out);
                opt.encode(out);
            }
            Msg::MasterHint { shard, node } => {
                out.u8(37);
                out.u32(*shard);
                node.encode(out);
            }
            // Tag 39 (the per-record lease override's routing hint) is
            // retired, not reused.
            Msg::P2aBehind { key, ballot } => {
                out.u8(40);
                key.encode(out);
                ballot.encode(out);
            }
            Msg::Verdict { key, verdict } => {
                out.u8(41);
                key.encode(out);
                verdict.encode(out);
            }
        }
    }

    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(match inp.u8()? {
            0 => Msg::Propose(Wire::decode(inp)?),
            1 => Msg::ProposeToMaster(Wire::decode(inp)?),
            2 => Msg::Visibility {
                txn: TxnId::decode(inp)?,
                outcome: TxnOutcome::decode(inp)?,
                records: Vec::decode(inp)?,
            },
            3 => Msg::StartRecovery {
                key: Key::decode(inp)?,
            },
            4 => Msg::Vote {
                key: Key::decode(inp)?,
                vote: Phase2b::decode(inp)?,
            },
            5 => Msg::NotFast {
                key: Key::decode(inp)?,
                txn: TxnId::decode(inp)?,
                promised: Ballot::decode(inp)?,
            },
            6 => Msg::InstanceFull {
                key: Key::decode(inp)?,
                txn: TxnId::decode(inp)?,
            },
            7 => Msg::AlreadyResolved {
                key: Key::decode(inp)?,
                txn: TxnId::decode(inp)?,
                outcome: TxnOutcome::decode(inp)?,
            },
            8 => Msg::GoFast {
                key: Key::decode(inp)?,
                txn: TxnId::decode(inp)?,
            },
            9 => Msg::P1a {
                key: Key::decode(inp)?,
                ballot: Ballot::decode(inp)?,
            },
            10 => Msg::P1b {
                key: Key::decode(inp)?,
                payload: Phase1b::decode(inp)?,
            },
            11 => Msg::P2a {
                key: Key::decode(inp)?,
                payload: Box::new(Phase2a::decode(inp)?),
            },
            12 => Msg::P2aNack {
                key: Key::decode(inp)?,
                promised: Ballot::decode(inp)?,
            },
            13 => Msg::P2aStale {
                key: Key::decode(inp)?,
                snapshot: RecordSnapshot::decode(inp)?,
            },
            14 => Msg::ReadReq {
                req: inp.u64()?,
                key: Key::decode(inp)?,
            },
            15 => Msg::ReadResp {
                req: inp.u64()?,
                key: Key::decode(inp)?,
                version: Wire::decode(inp)?,
                value: Option::decode(inp)?,
            },
            16 => Msg::QueryStatus {
                txn: TxnId::decode(inp)?,
                key: Key::decode(inp)?,
            },
            17 => Msg::StatusResp {
                txn: TxnId::decode(inp)?,
                key: Key::decode(inp)?,
                vote: Phase2b::decode(inp)?,
                outcome: Option::decode(inp)?,
            },
            20 => Msg::SyncDigestReq,
            21 => Msg::SyncDigest {
                ranges: Vec::decode(inp)?,
            },
            22 => Msg::SyncRangePull {
                ranges: Vec::decode(inp)?,
            },
            23 => Msg::SyncChunk {
                items: Vec::decode(inp)?,
            },
            32 => Msg::CstructPull {
                key: Key::decode(inp)?,
            },
            35 => Msg::Mastership(Wire::decode(inp)?),
            36 => Msg::ProposeMastered {
                origin_dc: Wire::decode(inp)?,
                opt: Wire::decode(inp)?,
            },
            37 => Msg::MasterHint {
                shard: inp.u32()?,
                node: Wire::decode(inp)?,
            },
            40 => Msg::P2aBehind {
                key: Key::decode(inp)?,
                ballot: Ballot::decode(inp)?,
            },
            41 => Msg::Verdict {
                key: Key::decode(inp)?,
                verdict: VoteVerdict::decode(inp)?,
            },
            _ => return err("msg tag"),
        })
    }
}

impl NetMessage for Msg {
    /// Framed size of the message's canonical encoding — what the
    /// message occupies on the simulated wire. Sized through the codec's
    /// thread-local scratch buffer: this runs once per send, so it must
    /// not allocate.
    fn wire_bytes(&self) -> usize {
        wire_len(self) + FRAME_OVERHEAD
    }

    fn traffic_class(&self) -> TrafficClass {
        match self {
            Msg::ReadReq { .. } | Msg::ReadResp { .. } => TrafficClass::Read,
            Msg::SyncDigestReq
            | Msg::SyncDigest { .. }
            | Msg::SyncRangePull { .. }
            | Msg::SyncChunk { .. } => TrafficClass::Sync,
            Msg::CstructPull { .. } | Msg::Vote { .. } => TrafficClass::Repair,
            _ => TrafficClass::Protocol,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Msg::Propose(_) => "Propose",
            Msg::ProposeToMaster(_) => "ProposeToMaster",
            Msg::ProposeMastered { .. } => "ProposeMastered",
            Msg::Visibility { .. } => "Visibility",
            Msg::StartRecovery { .. } => "StartRecovery",
            Msg::Verdict { .. } => "Verdict",
            Msg::CstructPull { .. } => "CstructPull",
            Msg::Vote { .. } => "Vote",
            Msg::NotFast { .. } => "NotFast",
            Msg::InstanceFull { .. } => "InstanceFull",
            Msg::AlreadyResolved { .. } => "AlreadyResolved",
            Msg::GoFast { .. } => "GoFast",
            Msg::P1a { .. } => "P1a",
            Msg::P1b { .. } => "P1b",
            Msg::P2a { .. } => "P2a",
            Msg::P2aNack { .. } => "P2aNack",
            Msg::P2aBehind { .. } => "P2aBehind",
            Msg::P2aStale { .. } => "P2aStale",
            Msg::ReadReq { .. } => "ReadReq",
            Msg::ReadResp { .. } => "ReadResp",
            Msg::QueryStatus { .. } => "QueryStatus",
            Msg::StatusResp { .. } => "StatusResp",
            Msg::SyncDigestReq => "SyncDigestReq",
            Msg::SyncDigest { .. } => "SyncDigest",
            Msg::SyncRangePull { .. } => "SyncRangePull",
            Msg::SyncChunk { .. } => "SyncChunk",
            Msg::Mastership(_) => "Mastership",
            Msg::MasterHint { .. } => "MasterHint",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::tests::every_tick;
    use mdcc_common::error::AbortReason;
    use mdcc_common::wire::{frame, from_bytes, to_bytes};
    use mdcc_sim::TimerPayload;
    use std::sync::Arc;

    use mdcc_common::{
        CommutativeUpdate, DcId, NodeId, PhysicalUpdate, Row, TableId, UpdateOp, Version,
    };
    use mdcc_mastership::{Ballot as MsBallot, HolderHint, MsMsg};
    use mdcc_paxos::{CStruct, Letter, OptionStatus, Proposal, Resolution, TxnOption};
    use mdcc_storage::{SyncItem, SyncRange};

    fn full_vote(cstruct: CStruct) -> Phase2b {
        Phase2b {
            ballot: Ballot::INITIAL_FAST,
            version: Version(1),
            cstruct,
            epoch: 0,
        }
    }

    fn key(pk: &str) -> Key {
        Key::new(TableId(1), pk)
    }

    fn opt(seq: u64) -> TxnOption {
        TxnOption::solo(
            TxnId::new(NodeId(3), seq),
            key("a"),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
        )
    }

    fn propose(opt: &TxnOption) -> Msg {
        Msg::Propose(Proposal::of([opt]).expect("an option of one transaction"))
    }

    /// A three-record transaction's options: a delta, a read guard and a
    /// physical write.
    fn three() -> Vec<TxnOption> {
        let peers: Arc<[Key]> = ["a", "b", "c"].map(key).into_iter().collect();
        let ops = [
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -2)),
            UpdateOp::ReadGuard(Version(6)),
            UpdateOp::Physical(PhysicalUpdate::write(Version(2), Row::new().with("n", 1))),
        ];
        (peers.iter().zip(ops))
            .map(|(k, op)| TxnOption {
                txn: TxnId::new(NodeId(3), 20),
                key: k.clone(),
                op,
                peers: Arc::clone(&peers),
            })
            .collect()
    }

    fn samples() -> Vec<Msg> {
        let mut cstruct = CStruct::new();
        cstruct.append(opt(4), OptionStatus::Accepted);
        let snapshot = RecordSnapshot {
            version: Version(3),
            value: Some(Row::new().with("stock", 7)),
            folded: vec![TxnId::new(NodeId(1), 9)],
        };
        vec![
            propose(&opt(1)),
            Msg::Propose(Proposal::of(&three()).expect("one transaction")),
            Msg::ProposeToMaster(opt(2)),
            Msg::Visibility {
                txn: TxnId::new(NodeId(0), 5),
                outcome: TxnOutcome::Committed,
                records: vec![(key("a"), true)],
            },
            Msg::Visibility {
                txn: TxnId::new(NodeId(0), 6),
                outcome: TxnOutcome::Aborted,
                records: vec![(key("a"), true), (key("b"), false), (key("c"), false)],
            },
            Msg::StartRecovery { key: key("b") },
            Msg::Vote {
                key: key("a"),
                vote: Phase2b {
                    ballot: Ballot::INITIAL_FAST,
                    version: Version(2),
                    cstruct: cstruct.clone(),
                    epoch: 1,
                },
            },
            Msg::Verdict {
                key: key("a"),
                verdict: VoteVerdict {
                    ballot: Ballot::INITIAL_FAST,
                    version: Version(2),
                    letters: vec![
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
                    ],
                },
            },
            Msg::CstructPull { key: key("a") },
            Msg::NotFast {
                key: key("a"),
                txn: opt(3).txn,
                promised: Ballot::classic(1, NodeId(2)),
            },
            Msg::InstanceFull {
                key: key("a"),
                txn: opt(9).txn,
            },
            Msg::AlreadyResolved {
                key: key("a"),
                txn: TxnId::new(NodeId(0), 1),
                outcome: TxnOutcome::Aborted,
            },
            Msg::GoFast {
                key: key("a"),
                txn: opt(8).txn,
            },
            Msg::P1a {
                key: key("a"),
                ballot: Ballot::classic(4, NodeId(1)),
            },
            Msg::P1b {
                key: key("a"),
                payload: Phase1b {
                    promised: Ballot::classic(4, NodeId(1)),
                    accepted: Some((Ballot::fast(1, NodeId(0)), cstruct.clone())),
                    snapshot: snapshot.clone(),
                },
            },
            Msg::P2a {
                key: key("a"),
                payload: Box::new(Phase2a {
                    ballot: Ballot::classic(4, NodeId(1)),
                    version: Version(3),
                    snapshot: Some(snapshot.clone()),
                    base: mdcc_paxos::acceptor::Base::ProvedSafe(cstruct.clone()),
                    new_options: vec![opt(11)],
                    close_instance: true,
                    reopen_fast: Some(Ballot::fast(5, NodeId(1))),
                }),
            },
            Msg::P2a {
                key: key("a"),
                payload: Box::new(Phase2a {
                    ballot: Ballot::classic(4, NodeId(1)),
                    version: Version(3),
                    snapshot: None,
                    base: mdcc_paxos::acceptor::Base::Digest(cstruct.trace_digest()),
                    new_options: vec![opt(12)],
                    close_instance: false,
                    reopen_fast: None,
                }),
            },
            Msg::P2aBehind {
                key: key("a"),
                ballot: Ballot::classic(4, NodeId(1)),
            },
            Msg::P2aNack {
                key: key("a"),
                promised: Ballot::classic(9, NodeId(0)),
            },
            Msg::P2aStale {
                key: key("a"),
                snapshot: snapshot.clone(),
            },
            Msg::ReadReq {
                req: 7,
                key: key("c"),
            },
            Msg::ReadResp {
                req: 7,
                key: key("c"),
                version: Version(1),
                value: Some(Row::new().with("stock", 4)),
            },
            Msg::QueryStatus {
                txn: TxnId::new(NodeId(2), 2),
                key: key("a"),
            },
            Msg::StatusResp {
                txn: TxnId::new(NodeId(2), 2),
                key: key("a"),
                vote: Phase2b {
                    ballot: Ballot::INITIAL_FAST,
                    version: Version(0),
                    cstruct: CStruct::new(),
                    epoch: 0,
                },
                outcome: Some(TxnOutcome::Committed),
            },
            Msg::SyncDigestReq,
            Msg::SyncDigest {
                ranges: vec![SyncRange {
                    lo: key("a"),
                    hi: key("m"),
                    digest: 0xDEAD_BEEF,
                }],
            },
            Msg::SyncRangePull {
                ranges: vec![(key("a"), key("m"))],
            },
            Msg::SyncChunk {
                items: vec![SyncItem {
                    key: key("a"),
                    snapshot,
                    resolved: vec![(
                        opt(13),
                        Resolution {
                            outcome: TxnOutcome::Aborted,
                            learned_accepted: false,
                        },
                    )],
                }],
            },
            Msg::Mastership(MsMsg::HbReq { shard: 3, round: 7 }),
            Msg::Mastership(MsMsg::HbReply {
                shard: 3,
                round: 7,
                ballot: MsBallot::new(2, 4),
                holder: Some(HolderHint {
                    ballot: MsBallot::new(2, 4),
                    node: NodeId(4),
                    expiry: mdcc_common::SimTime::ZERO + mdcc_common::SimDuration::from_millis(500),
                }),
            }),
            Msg::Mastership(MsMsg::Acquire {
                shard: 1,
                ballot: MsBallot::new(3, 2),
                expiry: mdcc_common::SimTime::ZERO + mdcc_common::SimDuration::from_millis(900),
                relinquished: Some(MsBallot::new(2, 0)),
            }),
            Msg::Mastership(MsMsg::Grant {
                shard: 1,
                ballot: MsBallot::new(3, 2),
                expiry: mdcc_common::SimTime::ZERO + mdcc_common::SimDuration::from_millis(900),
                prev: Some((
                    MsBallot::new(2, 0),
                    mdcc_common::SimTime::ZERO + mdcc_common::SimDuration::from_millis(650),
                )),
            }),
            Msg::Mastership(MsMsg::Reject {
                shard: 1,
                max: MsBallot::new(5, 4),
            }),
            Msg::Mastership(MsMsg::Handoff {
                shard: 2,
                ballot: MsBallot::new(4, 1),
                relinquished: MsBallot::new(3, 0),
            }),
            Msg::ProposeMastered {
                origin_dc: DcId(2),
                opt: opt(14),
            },
            Msg::MasterHint {
                shard: 4,
                node: NodeId(12),
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for msg in samples() {
            let bytes = to_bytes(&msg);
            let back: Msg = from_bytes(&bytes).expect("decode");
            assert_eq!(
                format!("{back:?}"),
                format!("{msg:?}"),
                "round trip mismatch"
            );
        }
    }

    #[test]
    fn strict_prefixes_of_the_classic_round_do_not_decode() {
        // A frame cut short anywhere is an error, never a panic or
        // another message — for every variant of the schema, the lean
        // and the answering Phase2a and the ask between them included.
        for msg in samples() {
            let bytes = to_bytes(&msg);
            for cut in 0..bytes.len() {
                assert!(
                    from_bytes::<Msg>(&bytes[..cut]).is_err(),
                    "{} bytes of {msg:?} decoded",
                    cut
                );
            }
        }
    }

    /// The system allocator, recording the largest single request made
    /// by a thread while that thread has armed it.
    struct LargestRequest;

    thread_local! {
        static ARMED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
        static LARGEST: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    // SAFETY: every call is forwarded unchanged to `System`, which
    // upholds the `GlobalAlloc` contract; the bookkeeping touches only
    // const-initialised thread-locals of `Cell<usize>` / `Cell<bool>`,
    // which neither allocate nor run destructors.
    unsafe impl std::alloc::GlobalAlloc for LargestRequest {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            if ARMED.try_with(std::cell::Cell::get).unwrap_or(false) {
                let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
            }
            // SAFETY: `layout` is the caller's, passed through.
            unsafe { std::alloc::System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            // SAFETY: `ptr` came from `System.alloc` with this `layout`.
            unsafe { std::alloc::System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: LargestRequest = LargestRequest;

    #[test]
    fn a_flipped_bit_decodes_or_errs_without_panic_or_oversized_reservation() {
        // Every count a decoder reads is checked against the bytes that
        // remain before anything is reserved for it, so the largest
        // request a corrupt frame can cause is one element slot per
        // input byte. `SLOT` is the largest element any vector of the
        // schema holds in memory.
        const SLOT: usize = 256;
        assert!(std::mem::size_of::<TxnOption>() <= SLOT);
        assert!(std::mem::size_of::<(u32, UpdateOp)>() <= SLOT);
        assert!(std::mem::size_of::<(Key, bool)>() <= SLOT);
        assert!(std::mem::size_of::<SyncItem>() <= SLOT);
        assert!(std::mem::size_of::<(TxnOption, Resolution)>() <= SLOT);
        for msg in samples() {
            let mut bytes = to_bytes(&msg);
            for bit in 0..bytes.len() * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                LARGEST.set(0);
                ARMED.set(true);
                // `Ok` (another well-formed message) or `Err`: either
                // way it returns.
                let decoded = from_bytes::<Msg>(&bytes);
                ARMED.set(false);
                drop(decoded);
                assert!(
                    LARGEST.get() <= bytes.len() * SLOT,
                    "bit {bit} of {msg:?}: one request of {} bytes for a {}-byte frame",
                    LARGEST.get(),
                    bytes.len()
                );
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn retired_tags_decode_to_an_error() {
        // 18 and 19 were the per-key sync request and reply, 31 the
        // delta vote, 33 the read-repair reply that is now a `Vote`, 39
        // the per-record lease override's routing hint (a key and a
        // node). 24 to 30, 34 and 38 were the local timers
        // `LearnTimeout` (a txn), `ReadRetry` (a token), `DanglingSweep`,
        // `RecoveryRetry` (a txn), `CheckpointTick`, `SyncSweep`,
        // `ClientTick`, `MissedPull` (a key, a txn and an attempt) and
        // `MsTick`. A peer still sending any of them gets `Err`, not a
        // panic or another message: bare and with what it carried.
        let txn = to_bytes(&TxnId::new(NodeId(0), 3));
        let key_node = [to_bytes(&key("a")), to_bytes(&NodeId(9))].concat();
        let missed = [to_bytes(&key("a")), txn.clone(), to_bytes(&2u32)].concat();
        let payloads: [(u8, &[u8]); 14] = [
            (18, &key_node),
            (19, &key_node),
            (24, &txn),
            (25, &to_bytes(&42u64)),
            (26, &[]),
            (27, &txn),
            (28, &[]),
            (29, &[]),
            (30, &[]),
            (31, &key_node),
            (33, &key_node),
            (34, &missed),
            (38, &[]),
            (39, &key_node),
        ];
        for (tag, payload) in payloads {
            assert!(from_bytes::<Msg>(&[tag]).is_err(), "bare tag {tag}");
            let frame = [&[tag], payload].concat();
            assert!(from_bytes::<Msg>(&frame).is_err(), "tag {tag} with payload");
        }
    }

    #[test]
    fn kind_names_do_not_collide() {
        // The by-kind profile files message kinds, tick kinds and
        // `on_start` side by side, keyed by name: a name two of them
        // shared would merge their rows.
        let mut variants = std::collections::HashSet::new();
        let mut kinds: Vec<&str> = samples()
            .iter()
            .filter(|m| variants.insert(std::mem::discriminant(*m)))
            .map(NetMessage::kind)
            .collect();
        assert_eq!(kinds.len(), 28, "samples() has every variant: {kinds:?}");
        kinds.extend(every_tick().iter().map(TimerPayload::kind));
        kinds.push("start");
        let distinct: std::collections::HashSet<&str> = kinds.iter().copied().collect();
        assert_eq!(distinct.len(), kinds.len(), "{kinds:?}");
    }

    #[test]
    fn wire_bytes_is_framed_encoding_len() {
        for msg in samples() {
            assert_eq!(msg.wire_bytes(), to_bytes(&msg).len() + FRAME_OVERHEAD);
            assert_eq!(msg.wire_bytes(), frame(&msg).len());
        }
    }

    #[test]
    fn traffic_classes_partition_the_schema() {
        assert_eq!(
            Msg::ReadReq {
                req: 0,
                key: key("a")
            }
            .traffic_class(),
            TrafficClass::Read
        );
        assert_eq!(Msg::SyncDigestReq.traffic_class(), TrafficClass::Sync);
        assert_eq!(propose(&opt(1)).traffic_class(), TrafficClass::Protocol);
        assert_eq!(
            Msg::CstructPull { key: key("a") }.traffic_class(),
            TrafficClass::Repair
        );
        assert_eq!(
            Msg::Vote {
                key: key("a"),
                vote: full_vote(CStruct::new()),
            }
            .traffic_class(),
            TrafficClass::Repair,
            "a whole vote travels only as the answer to a pull"
        );
        assert_eq!(
            Msg::Verdict {
                key: key("a"),
                verdict: VoteVerdict {
                    ballot: Ballot::INITIAL_FAST,
                    version: Version(1),
                    letters: Vec::new(),
                },
            }
            .traffic_class(),
            TrafficClass::Protocol,
            "verdicts are commit-protocol traffic, not repair"
        );
        assert_eq!(
            Msg::Visibility {
                txn: TxnId::new(NodeId(0), 0),
                outcome: TxnOutcome::Committed,
                records: vec![(key("a"), true)],
            }
            .traffic_class(),
            TrafficClass::Protocol
        );
        assert_eq!(
            Msg::Mastership(MsMsg::HbReq { shard: 0, round: 1 }).traffic_class(),
            TrafficClass::Protocol,
            "lease/election plane is protocol traffic"
        );
        assert_eq!(
            Msg::ProposeMastered {
                origin_dc: DcId(0),
                opt: opt(1),
            }
            .traffic_class(),
            TrafficClass::Protocol
        );
    }

    #[test]
    fn a_verdict_does_not_grow_with_the_cstruct() {
        // A hot commutative instance with many concurrent options: the
        // whole vote ships every entry, the verdict one line for the
        // destination's own option.
        let mut cstruct = CStruct::new();
        for i in 0..32 {
            cstruct.append(opt(i), OptionStatus::Accepted);
        }
        let vote = full_vote(cstruct);
        let letters = vec![Letter {
            txn: opt(31).txn,
            status: OptionStatus::Accepted,
            movable: true,
        }];
        let verdict = Msg::Verdict {
            key: key("a"),
            verdict: VoteVerdict {
                ballot: vote.ballot,
                version: vote.version,
                letters,
            },
        };
        let whole = Msg::Vote {
            key: key("a"),
            vote,
        };
        assert!(verdict.wire_bytes() <= 60, "{} B", verdict.wire_bytes());
        assert!(
            verdict.wire_bytes() * 10 < whole.wire_bytes(),
            "a verdict must be at least 10x smaller: {} vs {}",
            verdict.wire_bytes(),
            whole.wire_bytes()
        );
    }

    #[test]
    fn one_proposal_of_three_options_saves_two_write_sets() {
        // Three options to one node: one `Propose` names the transaction
        // and the write-set once; three single ones name them thrice.
        let opts = three();
        let peers = to_bytes(&opts[0].peers.to_vec()).len();
        let grouped = Msg::Propose(Proposal::of(&opts).expect("one transaction"));
        let singles: usize = opts.iter().map(|o| propose(o).wire_bytes()).sum();
        assert!(
            grouped.wire_bytes() + 2 * peers <= singles,
            "{} B grouped, {singles} B as three, write-set {peers} B",
            grouped.wire_bytes()
        );
        // What goes in comes out, in order.
        let Ok(Msg::Propose(back)) = from_bytes::<Msg>(&to_bytes(&grouped)) else {
            panic!("not a proposal");
        };
        let back: Vec<TxnOption> = back.options().collect();
        assert_eq!(back, opts);
        assert!(back.iter().zip(&opts).all(|(b, o)| b.op == o.op));
    }

    #[test]
    fn a_vote_is_much_smaller_than_a_sync_chunk() {
        let vote = Msg::Vote {
            key: key("a"),
            vote: full_vote(CStruct::new()),
        };
        let chunk = Msg::SyncChunk {
            items: (0..32)
                .map(|i| SyncItem {
                    key: key(&format!("k{i}")),
                    snapshot: RecordSnapshot {
                        version: Version(2),
                        value: Some(Row::new().with("stock", i)),
                        folded: Vec::new(),
                    },
                    resolved: Vec::new(),
                })
                .collect(),
        };
        assert!(
            chunk.wire_bytes() > 10 * vote.wire_bytes(),
            "sized transport must distinguish {} from {}",
            vote.wire_bytes(),
            chunk.wire_bytes()
        );
    }
}
