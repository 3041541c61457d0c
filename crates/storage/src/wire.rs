//! [`Wire`] encodings for store state and anti-entropy payloads.
//!
//! Completes the shared wire layer of [`mdcc_common::wire`] for the
//! types this crate owns: pending-transaction bookkeeping, exported
//! store state (checkpoints) and the merkle-sync vocabulary
//! ([`SyncItem`], [`SyncRange`]).

use mdcc_common::wire;
use mdcc_common::wire::{Dec, Enc, Wire, WireResult};
use mdcc_common::Key;

use crate::store::{PendingTxn, StoreState, SyncItem, SyncRange};

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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use mdcc_common::wire::{fnv1a64, to_bytes};
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
}
