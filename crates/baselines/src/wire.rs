//! Wire sizes for the baseline protocols' messages.
//!
//! The baselines ride the same sized transport as MDCC: every message
//! reports its byte-accurate encoded size, each field sized through the
//! shared codec of [`mdcc_common::wire`] (varint ids and versions
//! included), so transmission delay, link queueing and per-byte service
//! cost apply to 2PC, quorum writes and Megastore* exactly as they do to
//! MDCC — a fair fight on the same network.

use mdcc_common::wire::{wire_len, FRAME_OVERHEAD};
use mdcc_sim::{NetMessage, TrafficClass};

use crate::megastore::MegaMsg;
use crate::qw::QwMsg;
use crate::twopc::TpcMsg;

/// What every message pays besides its fields: the frame header and a
/// one-byte message tag.
const HEADER_LEN: usize = FRAME_OVERHEAD + 1;

impl NetMessage for TpcMsg {
    fn wire_bytes(&self) -> usize {
        let body = match self {
            TpcMsg::Prepare { txn, update } => wire_len(txn) + wire_len(update),
            TpcMsg::PrepareVote { txn, key, ok } => wire_len(txn) + wire_len(key) + wire_len(ok),
            TpcMsg::Decide { txn, key, commit } => wire_len(txn) + wire_len(key) + wire_len(commit),
            TpcMsg::DecideAck { txn, key } => wire_len(txn) + wire_len(key),
            TpcMsg::ReadReq { req, key } => wire_len(req) + wire_len(key),
            TpcMsg::ReadResp {
                req,
                key,
                version,
                value,
            } => wire_len(req) + wire_len(key) + wire_len(version) + wire_len(value),
        };
        HEADER_LEN + body
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
        let body = match self {
            QwMsg::Put { req, update } => wire_len(req) + wire_len(update),
            QwMsg::PutAck { req, key } | QwMsg::ReadReq { req, key } => {
                wire_len(req) + wire_len(key)
            }
            QwMsg::ReadResp {
                req,
                key,
                version,
                value,
            } => wire_len(req) + wire_len(key) + wire_len(version) + wire_len(value),
        };
        HEADER_LEN + body
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
        let body = match self {
            MegaMsg::CommitReq {
                txn,
                updates,
                read_versions,
            } => wire_len(txn) + wire_len(updates) + wire_len(read_versions),
            MegaMsg::CommitResp { txn, committed } => wire_len(txn) + wire_len(committed),
            MegaMsg::LogAccept { pos, txn } => wire_len(pos) + wire_len(txn),
            MegaMsg::LogAck { pos } => wire_len(pos),
            MegaMsg::Apply { pos, updates } => wire_len(pos) + wire_len(updates),
            MegaMsg::ReadReq { req, key } => wire_len(req) + wire_len(key),
            MegaMsg::ReadResp {
                req,
                key,
                version,
                value,
            } => wire_len(req) + wire_len(key) + wire_len(version) + wire_len(value),
        };
        HEADER_LEN + body
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
            HEADER_LEN + 1,
            "the smallest message still pays framing and its tag"
        );
    }

    #[test]
    fn integers_cost_what_the_codec_writes() {
        // Ids, positions and versions pay their varint length, as MDCC's
        // do: the largest costs ten bytes where the smallest costs one.
        let read_resp = |n: u64| QwMsg::ReadResp {
            req: n,
            key: Key::new(TableId(0), "a"),
            version: Version(n),
            value: Some(Row::new().with("stock", 5)),
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
            HEADER_LEN
                + wire_len(&txn)
                + wire_len(&Vec::<RecordUpdate>::new())
                + wire_len(&read_versions)
        );
    }

    #[test]
    fn reads_are_classified_as_read_traffic() {
        let read = QwMsg::ReadReq {
            req: 1,
            key: Key::new(TableId(0), "a"),
        };
        assert_eq!(read.traffic_class(), TrafficClass::Read);
        let ack = QwMsg::PutAck {
            req: 1,
            key: Key::new(TableId(0), "a"),
        };
        assert_eq!(ack.traffic_class(), TrafficClass::Protocol);
        let mega_read = MegaMsg::ReadReq {
            req: 1,
            key: Key::new(TableId(0), "a"),
        };
        assert_eq!(mega_read.traffic_class(), TrafficClass::Read);
    }
}
