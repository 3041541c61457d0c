//! Property test: batched merkle-range sync reconverges byte-for-byte
//! identical to shipping every key on arbitrary divergent stores.
//!
//! Two replicas start equal; the peer then applies a random committed
//! workload of which the "local" replica (simulating a crashed node)
//! only sees a prefix-interleaved subset. Both ways of syncing are then
//! run against the peer:
//!
//! * **legacy** — every peer key ships, the receiver filters no-ops via
//!   `sync_relevant` (the oracle: a sync that can skip nothing);
//! * **batched** — the peer's range digests are compared against local
//!   digests and only divergent ranges ship (what `SyncDigestReq` /
//!   `SyncDigest`/`SyncRangePull`/`SyncChunk` does).
//!
//! Both must land on identical committed state — equal to the peer's —
//! and a second batched round must find zero divergent ranges.

use std::sync::Arc;

use mdcc_common::{
    CommutativeUpdate, Key, NodeId, ProtocolConfig, Row, SimTime, TableId, TxnId, UpdateOp,
};
use mdcc_paxos::{TxnOption, TxnOutcome};
use mdcc_storage::{Catalog, RecordStore};
use proptest::prelude::*;

const KEYS: u64 = 24;

fn key(i: u64) -> Key {
    Key::new(TableId(1), format!("k{i:02}"))
}

fn loaded_store() -> RecordStore {
    let mut s = RecordStore::new(ProtocolConfig::default(), Arc::new(Catalog::new()));
    for i in 0..KEYS {
        s.load(key(i), Row::new().with("stock", 1_000_000));
    }
    s
}

/// One committed commutative transaction applied through the real
/// acceptor entry points.
fn apply_commit(store: &mut RecordStore, seq: u64, key_idx: u64, delta: i64) {
    let txn = TxnId::new(NodeId(7), seq);
    let opt = TxnOption::solo(
        txn,
        key(key_idx),
        UpdateOp::Commutative(CommutativeUpdate::delta("stock", -delta)),
    );
    let now = SimTime::from_millis(seq);
    store.fast_propose(opt, now);
    store.apply_visibility(&key(key_idx), txn, TxnOutcome::Committed, true);
}

/// Runs the legacy per-key flood from `peer` into `local`.
fn legacy_sync(local: &mut RecordStore, peer: &RecordStore) {
    for k in peer.keys() {
        let item = peer.sync_item(&k).expect("peer key");
        if local.sync_relevant(&k, &item.snapshot, &item.resolved) {
            local.sync_from_peer(&k, &item.snapshot, &item.resolved);
        }
    }
}

/// Runs one batched merkle round from `peer` into `local` — the same
/// digest-compare / pull-divergent flow the storage node drives over
/// the network. Returns the number of ranges that shipped.
fn batched_sync(local: &mut RecordStore, peer: &RecordStore, chunk: usize) -> usize {
    let ranges = peer.sync_ranges(chunk);
    let divergent = local.divergent_ranges(&ranges);
    // The one-pass comparison must agree with the per-range digest API.
    for r in &ranges {
        let diverges = divergent.iter().any(|(lo, _)| lo == &r.lo);
        assert_eq!(
            local.sync_digest_in(&r.lo, &r.hi) != r.digest,
            diverges,
            "divergent_ranges must match per-range digest comparison"
        );
    }
    let shipped = divergent.len();
    for items in peer.sync_items_in(&divergent) {
        for item in items {
            if local.sync_relevant(&item.key, &item.snapshot, &item.resolved) {
                local.sync_from_peer(&item.key, &item.snapshot, &item.resolved);
            }
        }
    }
    shipped
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_sync_equals_per_key_sync(
        ops in prop::collection::vec((0u64..KEYS, 1i64..4, any::<bool>()), 1..120),
        chunk in 1usize..9,
    ) {
        // The peer sees every committed transaction; the local replica
        // (down for part of the run) only the ones flagged `true`.
        let mut peer = loaded_store();
        let mut local_legacy = loaded_store();
        let mut local_batched = loaded_store();
        for (seq, (k, d, seen_locally)) in ops.iter().enumerate() {
            apply_commit(&mut peer, seq as u64, *k, *d);
            if *seen_locally {
                apply_commit(&mut local_legacy, seq as u64, *k, *d);
                apply_commit(&mut local_batched, seq as u64, *k, *d);
            }
        }

        legacy_sync(&mut local_legacy, &peer);
        batched_sync(&mut local_batched, &peer, chunk);

        // Byte-for-byte equal committed state, and equal to the peer's.
        prop_assert_eq!(local_batched.committed_state(), local_legacy.committed_state());
        prop_assert_eq!(local_batched.committed_state(), peer.committed_state());

        // Convergence: a second batched round finds nothing to ship.
        let shipped = batched_sync(&mut local_batched, &peer, chunk);
        prop_assert_eq!(shipped, 0, "second round must be digest-clean");
    }

    #[test]
    fn digest_ranges_cover_every_key_once(
        chunk in 1usize..9,
    ) {
        let peer = loaded_store();
        let ranges = peer.sync_ranges(chunk);
        let mut covered = 0usize;
        for r in &ranges {
            prop_assert!(r.lo <= r.hi);
            covered += peer.sync_items_in(&[(r.lo.clone(), r.hi.clone())])[0].len();
        }
        prop_assert_eq!(covered, KEYS as usize);
        // Ranges tile the sorted key space without overlap.
        for w in ranges.windows(2) {
            prop_assert!(w[0].hi < w[1].lo);
        }
    }
}
