//! Wire encodings of the baseline protocols' messages.
//!
//! The baselines ride the same sized transport as MDCC: every message
//! is a listing of the shared codec of [`mdcc_common::wire`] (varint ids
//! and versions included) and reports its framed encoded size, exactly
//! as MDCC's `Msg` does, so transmission delay, link queueing and
//! per-byte service cost apply to 2PC, quorum writes and Megastore* as
//! they do to MDCC — a fair fight on the same network.

use mdcc_common::wire;
use mdcc_common::wire::{wire_len, FRAME_OVERHEAD};
use mdcc_sim::{NetMessage, TrafficClass};

use crate::megastore::MegaMsg;
use crate::qw::QwMsg;
use crate::twopc::TpcMsg;

wire!(enum TpcMsg, "2pc msg tag" {
    0 => Prepare { txn, update },
    1 => PrepareVote { txn, key, ok },
    2 => Decide { txn, key, commit },
    3 => DecideAck { txn, key },
    4 => ReadReq { req, keys },
    5 => ReadResp { req, rows },
});

wire!(enum QwMsg, "quorum-write msg tag" {
    0 => Put { req, update },
    1 => PutAck { req, key },
    2 => ReadReq { req, keys },
    3 => ReadResp { req, rows },
});

wire!(enum MegaMsg, "megastore msg tag" {
    0 => CommitReq { txn, updates, read_versions },
    1 => CommitResp { txn, committed },
    2 => LogAccept { pos, txn },
    3 => LogAck { pos },
    4 => Apply { pos, updates },
    5 => ReadReq { req, keys },
    6 => ReadResp { req, rows },
});

impl NetMessage for TpcMsg {
    fn wire_bytes(&self) -> usize {
        wire_len(self) + FRAME_OVERHEAD
    }

    fn traffic_class(&self) -> TrafficClass {
        match self {
            TpcMsg::ReadReq { .. } | TpcMsg::ReadResp { .. } => TrafficClass::Read,
            _ => TrafficClass::Protocol,
        }
    }
}

impl NetMessage for QwMsg {
    fn wire_bytes(&self) -> usize {
        wire_len(self) + FRAME_OVERHEAD
    }

    fn traffic_class(&self) -> TrafficClass {
        match self {
            QwMsg::ReadReq { .. } | QwMsg::ReadResp { .. } => TrafficClass::Read,
            _ => TrafficClass::Protocol,
        }
    }
}

impl NetMessage for MegaMsg {
    fn wire_bytes(&self) -> usize {
        wire_len(self) + FRAME_OVERHEAD
    }

    fn traffic_class(&self) -> TrafficClass {
        match self {
            MegaMsg::ReadReq { .. } | MegaMsg::ReadResp { .. } => TrafficClass::Read,
            _ => TrafficClass::Protocol,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::wire::{frame, from_bytes, to_bytes, Wire};
    use mdcc_common::{
        CommutativeUpdate, Key, NodeId, RecordUpdate, Row, TableId, TxnId, UpdateOp, Version,
    };

    #[test]
    fn sizes_scale_with_payload() {
        let small = TpcMsg::Prepare {
            txn: TxnId::new(NodeId(1), 1),
            update: RecordUpdate::new(
                Key::new(TableId(0), "a"),
                UpdateOp::Commutative(CommutativeUpdate::delta("s", -1)),
            ),
        };
        let big = TpcMsg::Prepare {
            txn: TxnId::new(NodeId(1), 1),
            update: RecordUpdate::new(
                Key::new(TableId(0), "a-much-longer-primary-key-string"),
                UpdateOp::Commutative(CommutativeUpdate::delta("some_attribute", -1)),
            ),
        };
        assert!(big.wire_bytes() > small.wire_bytes());
        let ack = MegaMsg::LogAck { pos: 7 };
        assert_eq!(
            ack.wire_bytes(),
            FRAME_OVERHEAD + 1 + 1,
            "the smallest message still pays framing and its tag"
        );
    }

    #[test]
    fn integers_cost_what_the_codec_writes() {
        // Ids, positions and versions pay their varint length, as MDCC's
        // do: the largest costs ten bytes where the smallest costs one.
        let read_resp = |n: u64| QwMsg::ReadResp {
            req: n,
            rows: vec![(Version(n), Some(Row::new().with("stock", 5)))],
        };
        assert_eq!(
            read_resp(u64::MAX).wire_bytes() - read_resp(1).wire_bytes(),
            2 * (10 - 1)
        );
        let txn = TxnId::new(NodeId(2), 9);
        let read_versions = vec![(Key::new(TableId(0), "a"), Version(300))];
        let commit = MegaMsg::CommitReq {
            txn,
            updates: Vec::new(),
            read_versions: read_versions.clone(),
        };
        assert_eq!(
            commit.wire_bytes(),
            FRAME_OVERHEAD
                + 1
                + wire_len(&txn)
                + wire_len(&Vec::<RecordUpdate>::new())
                + wire_len(&read_versions)
        );
    }

    fn key(pk: &str) -> Key {
        Key::new(TableId(0), pk)
    }

    fn update(pk: &str) -> RecordUpdate {
        RecordUpdate::new(
            key(pk),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
        )
    }

    /// One message of every 2PC variant.
    fn tpc_samples() -> Vec<TpcMsg> {
        let txn = TxnId::new(NodeId(3), 200);
        vec![
            TpcMsg::Prepare {
                txn,
                update: update("a"),
            },
            TpcMsg::PrepareVote {
                txn,
                key: key("a"),
                ok: true,
            },
            TpcMsg::Decide {
                txn,
                key: key("a"),
                commit: false,
            },
            TpcMsg::DecideAck { txn, key: key("a") },
            TpcMsg::ReadReq {
                req: 9,
                keys: vec![key("b")],
            },
            TpcMsg::ReadResp {
                req: 9,
                rows: vec![(Version(300), Some(Row::new().with("stock", 5)))],
            },
        ]
    }

    /// One message of every quorum-write variant.
    fn qw_samples() -> Vec<QwMsg> {
        vec![
            QwMsg::Put {
                req: 130,
                update: update("a"),
            },
            QwMsg::PutAck {
                req: 130,
                key: key("a"),
            },
            QwMsg::ReadReq {
                req: 1,
                keys: vec![key("b")],
            },
            QwMsg::ReadResp {
                req: 1,
                rows: vec![(Version(2), None)],
            },
        ]
    }

    /// One message of every Megastore* variant.
    fn mega_samples() -> Vec<MegaMsg> {
        let txn = TxnId::new(NodeId(2), 9);
        vec![
            MegaMsg::CommitReq {
                txn,
                updates: vec![update("a"), update("b")],
                read_versions: vec![(key("a"), Version(300))],
            },
            MegaMsg::CommitResp {
                txn,
                committed: true,
            },
            MegaMsg::LogAccept { pos: 128, txn },
            MegaMsg::LogAck { pos: 128 },
            MegaMsg::Apply {
                pos: 128,
                updates: vec![update("a")],
            },
            MegaMsg::ReadReq {
                req: 4,
                keys: vec![key("c")],
            },
            MegaMsg::ReadResp {
                req: 4,
                rows: vec![(Version(1), Some(Row::new().with("title", "widget")))],
            },
        ]
    }

    /// Every sample decodes to itself and is sized as its frame.
    fn check_codec<M: Wire + NetMessage + std::fmt::Debug>(samples: Vec<M>) {
        for msg in samples {
            let back: M = from_bytes(&to_bytes(&msg)).expect("decode");
            assert_eq!(format!("{back:?}"), format!("{msg:?}"));
            assert_eq!(msg.wire_bytes(), frame(&msg).len(), "{msg:?}");
        }
    }

    #[test]
    fn every_variant_round_trips_and_is_sized_as_its_frame() {
        check_codec(tpc_samples());
        check_codec(qw_samples());
        check_codec(mega_samples());
    }

    #[test]
    fn wire_bytes_are_pinned() {
        let tpc: Vec<usize> = tpc_samples().iter().map(|m| m.wire_bytes()).collect();
        let qw: Vec<usize> = qw_samples().iter().map(|m| m.wire_bytes()).collect();
        let mega: Vec<usize> = mega_samples().iter().map(|m| m.wire_bytes()).collect();
        // A read request names its keys as a list (one byte more for
        // one key) and its reply its rows without keys (two bytes less
        // for one one-letter key): was 13 / 25, 13 / 15 and 13 / 30.
        assert_eq!(tpc, [24, 16, 16, 15, 14, 23], "2PC");
        assert_eq!(qw, [23, 14, 14, 13], "quorum writes");
        assert_eq!(mega, [42, 12, 13, 11, 24, 14, 28], "Megastore*");
    }

    #[test]
    fn reads_are_classified_as_read_traffic() {
        let read = QwMsg::ReadReq {
            req: 1,
            keys: vec![Key::new(TableId(0), "a")],
        };
        assert_eq!(read.traffic_class(), TrafficClass::Read);
        let ack = QwMsg::PutAck {
            req: 1,
            key: Key::new(TableId(0), "a"),
        };
        assert_eq!(ack.traffic_class(), TrafficClass::Protocol);
        let mega_read = MegaMsg::ReadReq {
            req: 1,
            keys: vec![Key::new(TableId(0), "a")],
        };
        assert_eq!(mega_read.traffic_class(), TrafficClass::Read);
    }
}
