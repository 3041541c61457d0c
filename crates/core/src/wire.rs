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

use mdcc_common::wire;
use mdcc_common::wire::{err, wire_len, Dec, Enc, Wire, WireResult, FRAME_OVERHEAD};
use mdcc_common::{Key, TxnId, Version};
use mdcc_paxos::acceptor::{Letter, VoteVerdict};
use mdcc_paxos::{Ballot, OptionStatus};
use mdcc_sim::{NetMessage, TrafficClass};

use crate::msg::{Msg, RecordName, Verdicts};

wire!(enum Msg, "msg tag" {
    0 => Propose(proposal),
    1 => ProposeToMaster(proposal),
    2 => Visibility { txn, outcome, records },
    3 => StartRecovery { key },
    4 => Vote { key, vote },
    5 => NotFast { key, txn, promised },
    6 => InstanceFull { key, txn },
    7 => AlreadyResolved { key, txn, outcome },
    8 => GoFast { key, txn },
    9 => P1a { key, payload },
    10 => P1b { key, payload },
    11 => P2a { rounds },
    12 => P2aNack { key, promised },
    13 => P2aStale { key, snapshot },
    14 => ReadReq { req, keys },
    15 => ReadResp { req, rows },
    16 => QueryStatus { txn, key },
    17 => StatusResp { txn, key, vote, outcome },
    // Tags 18 and 19 (the per-key sync request and reply) are retired,
    // not reused.
    20 => SyncDigestReq,
    21 => SyncDigest { ranges },
    22 => SyncRangePull { ranges },
    23 => SyncChunk { items },
    // Tags 24 to 30, 34 and 38 (local timers, which never crossed the
    // wire) and 31 and 33 (the delta vote and the read-repair reply that
    // is now a `Vote`) are retired, not reused.
    32 => CstructPull { key },
    35 => Mastership(inner),
    36 => ProposeMastered { origin_dc, proposal },
    37 => MasterHint { shard, node },
    // Tag 39 (the per-record lease override's routing hint) is retired,
    // not reused.
    40 => P2aBehind { key, ballot },
    41 => Verdict(verdicts),
});

/// A position travels as one varint, position + 1; a 0 says a key
/// follows instead. (A `Verdict` entry folds its anchor flag into the
/// same varint: see [`Verdicts`].)
impl Wire for RecordName {
    fn encode(&self, out: &mut Enc) {
        match self {
            RecordName::At(at) => out.u64(u64::from(*at) + 1),
            RecordName::Key(key) => {
                out.u64(0);
                key.encode(out);
            }
        }
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        match inp.u64()? {
            0 => Ok(RecordName::Key(Key::decode(inp)?)),
            at => match u32::try_from(at - 1) {
                Ok(at) => Ok(RecordName::At(at)),
                Err(_) => err("record position"),
            },
        }
    }
}

/// The transaction once, then each entry: a varint head, the record's
/// key if the head names none, the vote's ballot and version, and its
/// letters. The head is twice the name's code (a position plus one, or
/// 0 for a key) plus an anchor flag. The flag marks a positional entry
/// whose only letter is of the message's transaction: that letter is
/// written as its status and movability alone. A key-named entry with
/// the flag does not decode.
impl Wire for Verdicts {
    fn encode(&self, out: &mut Enc) {
        self.txn.encode(out);
        out.u32(self.records.len() as u32);
        for (name, verdict) in &self.records {
            let (code, key) = match name {
                RecordName::At(at) => (u64::from(*at) + 1, None),
                RecordName::Key(key) => (0, Some(key)),
            };
            let anchor = match verdict.letters.as_slice() {
                [only] if only.txn == self.txn && key.is_none() => Some(only),
                _ => None,
            };
            out.u64(code * 2 + u64::from(anchor.is_some()));
            if let Some(key) = key {
                key.encode(out);
            }
            verdict.ballot.encode(out);
            verdict.version.encode(out);
            match anchor {
                Some(letter) => {
                    letter.status.encode(out);
                    out.bool(letter.movable);
                }
                None => verdict.letters.encode(out),
            }
        }
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        let txn = TxnId::decode(inp)?;
        let n = inp.u32()? as usize;
        if n > inp.remaining() {
            return err("verdict count");
        }
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            let head = inp.u64()?;
            let anchored = head & 1 == 1;
            let name = match head >> 1 {
                0 if anchored => return err("anchor on a key-named verdict"),
                0 => RecordName::Key(Key::decode(inp)?),
                at => match u32::try_from(at - 1) {
                    Ok(at) => RecordName::At(at),
                    Err(_) => return err("record position"),
                },
            };
            let ballot = Ballot::decode(inp)?;
            let version = Version::decode(inp)?;
            let letters = if anchored {
                let status = OptionStatus::decode(inp)?;
                let movable = inp.bool()?;
                vec![Letter {
                    txn,
                    status,
                    movable,
                }]
            } else {
                Vec::decode(inp)?
            };
            let verdict = VoteVerdict {
                ballot,
                version,
                letters,
            };
            records.push((name, verdict));
        }
        Ok(Verdicts { txn, records })
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
        self.variant_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::tests::every_tick;
    use mdcc_common::error::AbortReason;
    use mdcc_common::wire::{frame, from_bytes, to_bytes};
    use mdcc_common::{Key, TxnId};
    use mdcc_paxos::acceptor::{
        Base, Committed, Phase1a, Phase1b, Phase2a, Phase2aRounds, Phase2b, Promise,
        RecordSnapshot, VoteVerdict,
    };
    use mdcc_paxos::{Ballot, TxnOutcome};
    use mdcc_sim::TimerPayload;
    use std::sync::Arc;

    use mdcc_common::{
        CommutativeUpdate, DcId, NodeId, PhysicalUpdate, Row, TableId, UpdateOp, Version,
    };
    use mdcc_mastership::{Ballot as MsBallot, HolderHint, MsMsg};
    use mdcc_paxos::{CStruct, Letter, OptionStatus, Proposal, Resolution, TxnOption};
    use mdcc_storage::{RangePull, SyncItem, SyncRange};

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

    /// A pipelined append of `options` at instance 3 of a classic ballot.
    fn append(options: Vec<TxnOption>) -> Phase2a {
        Phase2a {
            ballot: Ballot::classic(4, NodeId(1)),
            version: Version(3),
            snapshot: None,
            base: Base::Held,
            new_options: options,
            close_instance: false,
            reopen_fast: None,
        }
    }

    /// The Phase1a of a leader that holds `cstruct` in `snapshot`'s
    /// instance.
    fn phase1a(cstruct: &CStruct, snapshot: &RecordSnapshot) -> Phase1a {
        Phase1a {
            ballot: Ballot::classic(4, NodeId(1)),
            version: snapshot.version,
            digest: cstruct.digest(),
        }
    }

    /// The whole promise of an acceptor that accepted `cstruct` in
    /// `snapshot`'s instance.
    fn promise(cstruct: &CStruct, snapshot: &RecordSnapshot) -> Phase1b {
        Phase1b {
            promised: Ballot::classic(4, NodeId(1)),
            accepted: Some((Ballot::fast(1, NodeId(0)), cstruct.clone())),
            snapshot: snapshot.clone(),
        }
    }

    fn p2a(rounds: Vec<(Key, Phase2a)>) -> Msg {
        let rounds = Phase2aRounds(rounds);
        Msg::P2a { rounds }
    }

    /// The cstruct and snapshot the samples carry.
    fn sample_state() -> (CStruct, RecordSnapshot) {
        let mut cstruct = CStruct::new();
        cstruct.append(opt(4), OptionStatus::Accepted);
        let snapshot = RecordSnapshot {
            version: Version(3),
            value: Some(Row::new().with("stock", 7)),
            folded: vec![TxnId::new(NodeId(1), 9)],
        };
        (cstruct, snapshot)
    }

    fn samples() -> Vec<Msg> {
        let (cstruct, snapshot) = sample_state();
        vec![
            propose(&opt(1)),
            Msg::Propose(Proposal::of(&three()).expect("one transaction")),
            Msg::ProposeToMaster(Proposal::of([&opt(2)]).expect("one option")),
            Msg::ProposeToMaster(Proposal::of(&three()).expect("one transaction")),
            Msg::Visibility {
                txn: TxnId::new(NodeId(0), 5),
                outcome: TxnOutcome::Committed,
                records: vec![(RecordName::Key(key("a")), true)],
            },
            Msg::Visibility {
                txn: TxnId::new(NodeId(0), 6),
                outcome: TxnOutcome::Aborted,
                records: ["a", "b", "c"]
                    .into_iter()
                    .zip([true, false, false])
                    .map(|(k, accepted)| (RecordName::Key(key(k)), accepted))
                    .collect(),
            },
            // To a node that holds the write-set: by position.
            Msg::Visibility {
                txn: TxnId::new(NodeId(0), 7),
                outcome: TxnOutcome::Committed,
                records: vec![(RecordName::At(0), true), (RecordName::At(2), false)],
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
            Msg::Verdict(Verdicts {
                txn: TxnId::new(NodeId(3), 5),
                records: vec![(
                    RecordName::Key(key("a")),
                    VoteVerdict {
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
                )],
            }),
            // A node's verdicts on three records of one transaction: two
            // named by write-set position (one letter, the anchor's,
            // written without its transaction; none, to the proposer),
            // one by key.
            Msg::Verdict(Verdicts {
                txn: TxnId::new(NodeId(3), 20),
                records: vec![
                    (
                        RecordName::At(0),
                        VoteVerdict {
                            ballot: Ballot::INITIAL_FAST,
                            version: Version(4),
                            letters: vec![Letter {
                                txn: TxnId::new(NodeId(3), 20),
                                status: OptionStatus::Accepted,
                                movable: true,
                            }],
                        },
                    ),
                    (
                        RecordName::At(2),
                        VoteVerdict {
                            ballot: Ballot::classic(4, NodeId(1)),
                            version: Version(3),
                            letters: Vec::new(),
                        },
                    ),
                    (
                        RecordName::Key(key("b")),
                        VoteVerdict {
                            ballot: Ballot::INITIAL_FAST,
                            version: Version(6),
                            letters: vec![
                                Letter {
                                    txn: TxnId::new(NodeId(3), 19),
                                    status: OptionStatus::Accepted,
                                    movable: true,
                                },
                                Letter {
                                    txn: TxnId::new(NodeId(3), 20),
                                    status: OptionStatus::Accepted,
                                    movable: true,
                                },
                            ],
                        },
                    ),
                ],
            }),
            // Anchored letters that are not the common accepted-movable
            // one, and a positional entry whose only letter is another
            // transaction's: it keeps its letter whole.
            Msg::Verdict(Verdicts {
                txn: TxnId::new(NodeId(2), 300),
                records: vec![
                    (
                        RecordName::At(70),
                        VoteVerdict {
                            ballot: Ballot::classic(2, NodeId(4)),
                            version: Version(200),
                            letters: vec![Letter {
                                txn: TxnId::new(NodeId(2), 300),
                                status: OptionStatus::Rejected(AbortReason::StaleRead),
                                movable: false,
                            }],
                        },
                    ),
                    (
                        RecordName::At(1),
                        VoteVerdict {
                            ballot: Ballot::INITIAL_FAST,
                            version: Version(9),
                            letters: vec![Letter {
                                txn: TxnId::new(NodeId(2), 299),
                                status: OptionStatus::Accepted,
                                movable: true,
                            }],
                        },
                    ),
                ],
            }),
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
                payload: phase1a(&cstruct, &snapshot),
            },
            Msg::P1b {
                key: key("a"),
                payload: promise(&cstruct, &snapshot).into(),
            },
            // The promise to the leader that named that very cstruct, in
            // that very instance: the cstruct and the committed value are
            // left out.
            Msg::P1b {
                key: key("a"),
                payload: promise(&cstruct, &snapshot).leave_out(&phase1a(&cstruct, &snapshot)),
            },
            p2a(vec![(
                key("a"),
                Phase2a {
                    snapshot: Some(snapshot.clone()),
                    base: Base::ProvedSafe(cstruct.clone()),
                    close_instance: true,
                    reopen_fast: Some(Ballot::fast(5, NodeId(1))),
                    ..append(vec![opt(11)])
                },
            )]),
            p2a(vec![(
                key("a"),
                Phase2a {
                    base: Base::Digest(cstruct.trace_digest()),
                    ..append(vec![opt(12)])
                },
            )]),
            p2a(three()
                .into_iter()
                .map(|o| (o.key.clone(), append(vec![o])))
                .collect()),
            p2a(vec![(
                key("a"),
                Phase2a {
                    base: Base::ProvedSafe(cstruct.clone()),
                    close_instance: true,
                    ..append(Vec::new())
                },
            )]),
            p2a(vec![(key("a"), append(vec![opt(15), opt(16)]))]),
            p2a(vec![(
                key("a"),
                Phase2a {
                    base: Base::NamedSafe(cstruct.digest()),
                    close_instance: true,
                    ..append(Vec::new())
                },
            )]),
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
                keys: vec![key("c")],
            },
            Msg::ReadResp {
                req: 7,
                rows: vec![(Version(1), Some(Row::new().with("stock", 4)))],
            },
            // One node's answer to a read of three keys, one never written.
            Msg::ReadReq {
                req: 8,
                keys: ["a", "b", "c"].map(key).to_vec(),
            },
            Msg::ReadResp {
                req: 8,
                rows: vec![
                    (Version(2), Some(Row::new().with("stock", 4))),
                    (Version::ZERO, None),
                    (Version(7), Some(Row::new().with("title", "widget"))),
                ],
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
                ranges: vec![
                    RangePull::all(key("a"), key("a")),
                    RangePull {
                        lo: key("b"),
                        hi: key("m"),
                        held: vec![0xDEAD_BEEF, u64::MAX],
                    },
                ],
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
                expiry: mdcc_common::SimTime::ZERO + mdcc_common::SimDuration::from_millis(1_300),
            }),
            Msg::ProposeMastered {
                origin_dc: DcId(2),
                proposal: Proposal::of([&opt(14)]).expect("one option"),
            },
            Msg::ProposeMastered {
                origin_dc: DcId(2),
                proposal: Proposal::of(&three()).expect("one transaction"),
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
    fn sample_bytes_are_pinned() {
        // Every variant's layout, as one FNV-1a/64 digest of the
        // samples' encodings back to back: a field moved, added or
        // resized anywhere in the schema changes it. Re-pinned from
        // 0x6d7f_3258_2a39_ef8a when `ProposeToMaster` and
        // `ProposeMastered` began to carry a `Proposal` and `P2a` its
        // rounds (each write-set once, no option key), with the samples
        // of those shapes added; and from 0x193b_44ea_31c7_80b4 when a
        // `Verdict` began to carry a node's votes on one transaction's
        // records, each named by write-set position or key, and a
        // `ReadReq` / `ReadResp` a list of keys / of keyless rows, with
        // the samples of those shapes added; and from 0xb265_884c_06db_d1d3
        // when a `Visibility` began to name its records by write-set
        // position or key and a positional `Verdict` entry whose only
        // letter is its message's transaction began to write that letter
        // without the transaction, with a positional Visibility and two
        // such entries added; and from 0xfe7e_855d_46fe_69b0 when a
        // `SyncRangePull` range began to carry the puller's held record
        // digests, with a pull naming nothing held and one naming two
        // digests as its sample; and from 0xd5c1_8987_f0c1_5dde when a
        // `P1a` began to name the leader's instance and cstruct digest, a
        // `P1b` to leave out what that names and a recovery round's base
        // to be named by digest, with a lean `P1b` and a named base added;
        // and from 0x08b6_48ca_c638_9da6 when the mastership `Handoff`
        // began to carry the target's lease end (`expiry`), which every
        // replica it reaches grants on the target's behalf.
        let bytes: Vec<u8> = samples().iter().flat_map(to_bytes).collect();
        let digest = mdcc_common::wire::fnv1a64(&bytes);
        assert_eq!(digest, 0x5cba_c87a_9937_9dcf, "{digest:#018x}");
    }

    #[test]
    fn an_anchor_letter_drops_its_transaction_and_only_a_position_carries_one() {
        let txn = TxnId::new(NodeId(3), 20_000);
        let letter = Letter {
            txn,
            status: OptionStatus::Accepted,
            movable: true,
        };
        let verdict = |name: RecordName, letter: Letter| {
            Msg::Verdict(Verdicts {
                txn,
                records: vec![(
                    name,
                    VoteVerdict {
                        ballot: Ballot::INITIAL_FAST,
                        version: Version(4),
                        letters: vec![letter],
                    },
                )],
            })
        };
        let other = Letter {
            txn: TxnId::new(NodeId(3), 19_999),
            ..letter
        };
        let anchored = verdict(RecordName::At(0), letter).wire_bytes();
        let spelled = verdict(RecordName::At(0), other).wire_bytes();
        let txn_bytes = to_bytes(&txn).len();
        // The spelled-out letter pays the transaction and the letter count.
        assert_eq!(anchored + txn_bytes + 1, spelled);
        // A key-named entry spells its letter out, and one that carries
        // the anchor flag (head 1: key, flagged) is refused.
        let by_key = to_bytes(&verdict(RecordName::Key(key("a")), letter));
        let head = 1 + to_bytes(&txn).len() + 1;
        assert_eq!(by_key[head], 0, "a key-named entry's head");
        let mut flagged = by_key.clone();
        flagged[head] = 1;
        assert!(from_bytes::<Msg>(&by_key).is_ok());
        assert!(from_bytes::<Msg>(&flagged).is_err());
    }

    #[test]
    fn phase_one_leaves_out_what_the_receiver_holds_and_refuses_unknown_tags() {
        let (cstruct, snapshot) = sample_state();
        let (p1a, whole) = (phase1a(&cstruct, &snapshot), promise(&cstruct, &snapshot));
        let frame = |payload: Promise| {
            to_bytes(&Msg::P1b {
                key: key("a"),
                payload,
            })
        };
        let lean = frame(whole.clone().leave_out(&p1a));
        let full = frame(whole.clone().into());
        // The cstruct and the value give way to a digest; the version
        // stays.
        let saved = to_bytes(&cstruct).len() + to_bytes(&snapshot).len();
        let kept = 8 + to_bytes(&snapshot.version).len();
        assert_eq!(full.len() - lean.len(), saved - kept);
        // The tag of the accepted pair sits right after the promised
        // ballot: 3 is no tag.
        let at = to_bytes(&Msg::P1b {
            key: key("a"),
            payload: Promise {
                accepted: None,
                ..whole.into()
            },
        })
        .len()
            - to_bytes(&Committed::Snapshot(snapshot.clone())).len()
            - 1;
        assert_eq!(lean[at], 2, "the named form");
        let mut bad = lean.clone();
        bad[at] = 3;
        assert!(from_bytes::<Msg>(&bad).is_err(), "unknown accepted tag");
        // A recovery round's base named by digest is tag 3; 4 is no tag.
        let named = to_bytes(&p2a(vec![(
            key("a"),
            Phase2a {
                base: Base::NamedSafe(cstruct.digest()),
                ..append(Vec::new())
            },
        )]));
        let held = to_bytes(&p2a(vec![(key("a"), append(Vec::new()))]));
        assert_eq!(named.len(), held.len() + 8);
        let at = (0..held.len())
            .find(|i| held[*i] != named[*i])
            .expect("a tag");
        assert_eq!((held[at], named[at]), (0, 3));
        let mut bad = named;
        bad[at] = 4;
        assert!(from_bytes::<Msg>(&bad).is_err(), "unknown base tag");
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
        assert!(std::mem::size_of::<(RecordName, bool)>() <= SLOT);
        assert!(std::mem::size_of::<SyncItem>() <= SLOT);
        assert!(std::mem::size_of::<(TxnOption, Resolution)>() <= SLOT);
        assert!(std::mem::size_of::<(Key, Phase2a)>() <= SLOT);
        assert!(std::mem::size_of::<(TxnId, Arc<[Key]>)>() <= SLOT);
        assert!(std::mem::size_of::<(RecordName, VoteVerdict)>() <= SLOT);
        assert!(std::mem::size_of::<(Version, Option<Row>)>() <= SLOT);
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
                keys: vec![key("a")],
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
            Msg::Verdict(Verdicts {
                txn: TxnId::new(NodeId(0), 0),
                records: vec![(
                    RecordName::At(0),
                    VoteVerdict {
                        ballot: Ballot::INITIAL_FAST,
                        version: Version(1),
                        letters: Vec::new(),
                    },
                )],
            })
            .traffic_class(),
            TrafficClass::Protocol,
            "verdicts are commit-protocol traffic, not repair"
        );
        assert_eq!(
            Msg::Visibility {
                txn: TxnId::new(NodeId(0), 0),
                outcome: TxnOutcome::Committed,
                records: vec![(RecordName::At(0), true)],
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
                proposal: Proposal::of([&opt(1)]).expect("one option"),
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
        let verdict = Msg::Verdict(Verdicts {
            txn: opt(31).txn,
            records: vec![(
                RecordName::At(0),
                VoteVerdict {
                    ballot: vote.ballot,
                    version: vote.version,
                    letters,
                },
            )],
        });
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
