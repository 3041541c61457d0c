//! [`Wire`] encodings for store state and anti-entropy payloads.
//!
//! Completes the shared wire layer of [`mdcc_common::wire`] for the
//! types this crate owns: pending-transaction bookkeeping, exported
//! store state (checkpoints) and the merkle-sync vocabulary
//! ([`SyncItem`], [`SyncRange`], [`RangePull`]).

use mdcc_common::wire;
use mdcc_common::wire::{err, Dec, Enc, Wire, WireResult};
use mdcc_common::Key;

use crate::store::{PendingTxn, RangePull, StoreState, SyncItem, SyncRange};

wire!(struct PendingTxn { txn, since, peers });
wire!(struct StoreState { records, pending });
wire!(struct SyncItem { key, snapshot, resolved });

impl Wire for SyncRange {
    fn encode(&self, out: &mut Enc) {
        self.lo.encode(out);
        self.hi.encode(out);
        out.fixed64(self.digest);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(SyncRange {
            lo: Key::decode(inp)?,
            hi: Key::decode(inp)?,
            digest: inp.fixed64()?,
        })
    }
}

/// The held digests are hashes, so each is fixed-width like
/// [`SyncRange::digest`]: a count, then eight bytes per digest.
impl Wire for RangePull {
    fn encode(&self, out: &mut Enc) {
        self.lo.encode(out);
        self.hi.encode(out);
        out.u32(self.held.len() as u32);
        for &h in &self.held {
            out.fixed64(h);
        }
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        let lo = Key::decode(inp)?;
        let hi = Key::decode(inp)?;
        let n = inp.u32()? as usize;
        // Refuse a count the bytes left cannot hold before allocating.
        if n.saturating_mul(8) > inp.remaining() {
            return err("held digest count");
        }
        let mut held = Vec::with_capacity(n);
        for _ in 0..n {
            held.push(inp.fixed64()?);
        }
        Ok(RangePull { lo, hi, held })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use mdcc_common::wire::{fnv1a64, from_bytes, to_bytes};
    use mdcc_common::{
        CommutativeUpdate, NodeId, ProtocolConfig, Row, SimTime, TableId, TxnId, UpdateOp, Version,
    };
    use mdcc_paxos::{RecordSnapshot, Resolution, TxnOption, TxnOutcome};

    use crate::{Catalog, RecordStore};

    #[test]
    fn store_and_sync_bytes_are_pinned() {
        // A store holding one record with an accepted, unresolved delta,
        // exported, and a sync item: one FNV-1a/64 digest of their
        // encodings back to back.
        let key = Key::new(TableId(0), "a");
        let peers: Arc<[Key]> = vec![key.clone(), Key::new(TableId(0), "b")].into();
        let opt = TxnOption {
            txn: TxnId::new(NodeId(1), 4),
            key: key.clone(),
            op: UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
            peers,
        };
        let mut store = RecordStore::new(ProtocolConfig::default(), Arc::new(Catalog::new()));
        store.load(key.clone(), Row::new().with("stock", 5));
        let _ = store.fast_propose(opt.clone(), SimTime::from_millis(3));
        let state = store.export_state();
        assert_eq!(state.pending.len(), 1);
        let item = SyncItem {
            key,
            snapshot: RecordSnapshot {
                version: Version(1),
                value: Some(Row::new().with("stock", 4)),
                folded: vec![TxnId::new(NodeId(1), 2)],
            },
            resolved: vec![(
                opt,
                Resolution {
                    outcome: TxnOutcome::Committed,
                    learned_accepted: true,
                },
            )],
        };
        let bytes = [
            to_bytes(&state.pending[0]),
            to_bytes(&state),
            to_bytes(&item),
        ]
        .concat();
        assert_eq!(fnv1a64(&bytes), 0xea73_3acc_bfbb_d909);
    }

    fn pull(held: Vec<u64>) -> RangePull {
        RangePull {
            lo: Key::new(TableId(0), "a"),
            hi: Key::new(TableId(0), "m"),
            held,
        }
    }

    #[test]
    fn a_range_pull_writes_its_held_digests_fixed_width() {
        let bare = to_bytes(&pull(vec![]));
        let held = to_bytes(&pull(vec![1, u64::MAX]));
        // The empty list is one count byte; each digest is eight bytes.
        assert_eq!(held.len(), bare.len() + 16);
        assert_eq!(&held[bare.len() - 1..bare.len()], &[2]);
        assert_eq!(&held[bare.len()..bare.len() + 8], &1u64.to_le_bytes());
        for p in [pull(vec![]), pull(vec![7, 0, u64::MAX])] {
            assert_eq!(from_bytes::<RangePull>(&to_bytes(&p)).unwrap(), p);
        }
    }

    #[test]
    fn a_range_pull_refuses_a_count_its_bytes_cannot_hold() {
        // A list cut short by one byte.
        let bytes = to_bytes(&pull(vec![3, 4]));
        assert!(from_bytes::<RangePull>(&bytes[..bytes.len() - 1]).is_err());
        // A count of u32::MAX with no digests behind it: refused before
        // the decoder reserves 32 GiB.
        let mut bytes = to_bytes(&pull(vec![]));
        bytes.pop();
        bytes.extend([0xff, 0xff, 0xff, 0xff, 0x0f]);
        bytes.extend([0u8; 16]);
        assert!(from_bytes::<RangePull>(&bytes).is_err());
    }
}
