//! [`Wire`] encodings for store state and anti-entropy payloads.
//!
//! Completes the shared wire layer of [`mdcc_common::wire`] for the
//! types this crate owns: pending-transaction bookkeeping, exported
//! store state (checkpoints) and the merkle-sync vocabulary
//! ([`SyncItem`], [`SyncRange`]).

use std::sync::Arc;

use mdcc_common::wire::{err, Dec, Enc, Wire, WireResult};
use mdcc_common::{Key, SimTime, TxnId};
use mdcc_paxos::RecordSnapshot;

use crate::store::{PendingTxn, StoreState, SyncItem, SyncRange};

impl Wire for PendingTxn {
    fn encode(&self, out: &mut Enc) {
        self.txn.encode(out);
        self.since.encode(out);
        out.u32(self.peers.len() as u32);
        for peer in self.peers.iter() {
            peer.encode(out);
        }
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        let txn = TxnId::decode(inp)?;
        let since = SimTime::decode(inp)?;
        let n = inp.u32()? as usize;
        if n > inp.remaining() {
            return err("pending peers length");
        }
        let mut peers = Vec::with_capacity(n);
        for _ in 0..n {
            peers.push(Key::decode(inp)?);
        }
        Ok(PendingTxn {
            txn,
            since,
            peers: Arc::from(peers),
        })
    }
}

impl Wire for StoreState {
    fn encode(&self, out: &mut Enc) {
        self.records.encode(out);
        self.pending.encode(out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(StoreState {
            records: Vec::decode(inp)?,
            pending: Vec::decode(inp)?,
        })
    }
}

impl Wire for SyncItem {
    fn encode(&self, out: &mut Enc) {
        self.key.encode(out);
        self.snapshot.encode(out);
        self.resolved.encode(out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(SyncItem {
            key: Key::decode(inp)?,
            snapshot: RecordSnapshot::decode(inp)?,
            resolved: Vec::decode(inp)?,
        })
    }
}

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
