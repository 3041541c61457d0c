//! Wire sizes for the baseline protocols' messages.
//!
//! The baselines ride the same sized transport as MDCC: every message
//! reports its byte-accurate encoded size (computed with the shared
//! codec of [`mdcc_common::wire`]) so transmission delay, link queueing
//! and per-byte service cost apply to 2PC, quorum writes and Megastore*
//! exactly as they do to MDCC — a fair fight on the same network.

use mdcc_common::wire::{wire_len, FRAME_OVERHEAD};
use mdcc_sim::{NetMessage, TrafficClass};

use crate::megastore::MegaMsg;
use crate::qw::QwMsg;
use crate::twopc::TpcMsg;

/// Encoded size of a `TxnId` (coordinator u32 + seq u64).
const TXN_LEN: usize = 12;
/// Encoded size of a `u64` request id / log position.
const U64_LEN: usize = 8;
/// Encoded size of a `Version`.
const VERSION_LEN: usize = 8;
/// Encoded size of a bool / tag byte.
const BOOL_LEN: usize = 1;

/// Encoded size of an `Option<Row>` (tag byte + row if present).
fn opt_row_len(value: &Option<mdcc_common::Row>) -> usize {
    BOOL_LEN + value.as_ref().map_or(0, wire_len)
}

impl NetMessage for TpcMsg {
    fn wire_bytes(&self) -> usize {
        let body = match self {
            TpcMsg::Prepare { update, .. } => TXN_LEN + wire_len(update),
            TpcMsg::PrepareVote { key, .. } => TXN_LEN + wire_len(key) + BOOL_LEN,
            TpcMsg::Decide { key, .. } => TXN_LEN + wire_len(key) + BOOL_LEN,
            TpcMsg::DecideAck { key, .. } => TXN_LEN + wire_len(key),
            TpcMsg::ReadReq { key, .. } => U64_LEN + wire_len(key),
            TpcMsg::ReadResp { key, value, .. } => {
                U64_LEN + wire_len(key) + VERSION_LEN + opt_row_len(value)
            }
        };
        FRAME_OVERHEAD + 1 + body
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
            QwMsg::Put { update, .. } => U64_LEN + wire_len(update),
            QwMsg::PutAck { key, .. } => U64_LEN + wire_len(key),
            QwMsg::ReadReq { key, .. } => U64_LEN + wire_len(key),
            QwMsg::ReadResp { key, value, .. } => {
                U64_LEN + wire_len(key) + VERSION_LEN + opt_row_len(value)
            }
        };
        FRAME_OVERHEAD + 1 + body
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
                updates,
                read_versions,
                ..
            } => {
                TXN_LEN
                    + wire_len(updates)
                    + 4
                    + read_versions
                        .iter()
                        .map(|(k, _)| wire_len(k) + VERSION_LEN)
                        .sum::<usize>()
            }
            MegaMsg::CommitResp { .. } => TXN_LEN + BOOL_LEN,
            MegaMsg::LogAccept { .. } => U64_LEN + TXN_LEN,
            MegaMsg::LogAck { .. } => U64_LEN,
            MegaMsg::Apply { updates, .. } => U64_LEN + wire_len(updates),
            MegaMsg::ReadReq { key, .. } => U64_LEN + wire_len(key),
            MegaMsg::ReadResp { key, value, .. } => {
                U64_LEN + wire_len(key) + VERSION_LEN + opt_row_len(value)
            }
        };
        FRAME_OVERHEAD + 1 + body
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
    use mdcc_common::{CommutativeUpdate, Key, NodeId, RecordUpdate, TableId, TxnId, UpdateOp};

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
            FRAME_OVERHEAD + 1 + U64_LEN,
            "the smallest message still pays framing and its tag"
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
