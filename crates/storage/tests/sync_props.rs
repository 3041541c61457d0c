//! Property tests of merkle-range anti-entropy, on both storage backends.
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
//!
//! Every store runs with a four-record cache, so under the
//! log-structured backend a range mixes cached records (digested on
//! demand) with spilled ones (digested when their entry was written).
//! A third property pins what a range digest means: two stores digest a
//! range equal exactly when their committed states agree on it.

use std::sync::Arc;

use mdcc_common::{
    CommutativeUpdate, Key, NodeId, ProtocolConfig, Row, SimTime, StorageKind, TableId, TxnId,
    UpdateOp, Version,
};
use mdcc_paxos::{TxnOption, TxnOutcome};
use mdcc_storage::{Catalog, RecordStore};
use proptest::prelude::*;

const KEYS: u64 = 24;

const BACKENDS: [StorageKind; 2] = [StorageKind::Mem, StorageKind::LogStructured];

fn key(i: u64) -> Key {
    Key::new(TableId(1), format!("k{i:02}"))
}

fn loaded_store(storage: StorageKind) -> RecordStore {
    let cfg = ProtocolConfig {
        storage,
        log_cache_records: 4,
        ..ProtocolConfig::default()
    };
    let mut s = RecordStore::new(cfg, Arc::new(Catalog::new()));
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
    // The one-pass comparison must agree with the per-range digest API,
    // and the advertised digest with the peer's own.
    for r in &ranges {
        assert_eq!(peer.sync_digest_in(&r.lo, &r.hi), r.digest);
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

/// The committed state of `store` restricted to `[lo, hi]`.
fn committed_within(store: &RecordStore, lo: &Key, hi: &Key) -> Vec<(Key, Version, Option<Row>)> {
    store
        .committed_state()
        .into_iter()
        .filter(|(k, _, _)| lo <= k && k <= hi)
        .collect()
}

/// One step of a history: a committed delta on a loaded key, or the
/// bulk load of a key outside the loaded range.
fn apply_step(store: &mut RecordStore, seq: u64, (k, amount, fresh): (u64, i64, bool)) {
    if fresh {
        store.load(key(KEYS + k % 6), Row::new().with("stock", amount));
    } else {
        apply_commit(store, seq, k, amount);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_sync_equals_per_key_sync(
        ops in prop::collection::vec((0u64..KEYS, 1i64..4, any::<bool>()), 1..120),
        chunk in 1usize..9,
    ) {
        for storage in BACKENDS {
            // The peer sees every committed transaction; the local
            // replica (down for part of the run) only the ones flagged
            // `true`.
            let mut peer = loaded_store(storage);
            let mut local_legacy = loaded_store(storage);
            let mut local_batched = loaded_store(storage);
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
            prop_assert_eq!(shipped, 0, "{:?}: second round must be digest-clean", storage);
        }
    }

    #[test]
    fn digest_ranges_cover_every_key_once(
        chunk in 1usize..9,
    ) {
        for storage in BACKENDS {
            let peer = loaded_store(storage);
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

    /// Two stores with independent random histories — sharing most of
    /// their steps, so that ranges often agree — digest a range equal
    /// if and only if their committed states restricted to it are
    /// equal. One store is in memory and the other log-structured, so
    /// the two backends must also agree on every record's digest.
    #[test]
    fn range_digests_agree_iff_committed_states_agree(
        steps in prop::collection::vec((0u64..KEYS, 1i64..4, any::<bool>(), 0u8..4), 0..40),
        bounds in prop::collection::vec((0u64..KEYS + 6, 0u64..KEYS + 6), 8..9),
    ) {
        let mut a = loaded_store(StorageKind::Mem);
        let mut b = loaded_store(StorageKind::LogStructured);
        for (seq, (k, amount, fresh, to)) in steps.into_iter().enumerate() {
            // 0: both stores, 1: only `a`, 2: only `b`, 3: both.
            if to != 2 {
                apply_step(&mut a, seq as u64, (k, amount, fresh));
            }
            if to != 1 {
                apply_step(&mut b, seq as u64, (k, amount, fresh));
            }
        }
        for (lo, hi) in bounds {
            let (lo, hi) = (key(lo.min(hi)), key(lo.max(hi)));
            let states_agree = committed_within(&a, &lo, &hi) == committed_within(&b, &lo, &hi);
            let digests_agree = a.sync_digest_in(&lo, &hi) == b.sync_digest_in(&lo, &hi);
            prop_assert_eq!(digests_agree, states_agree, "range [{:?}, {:?}]", lo, hi);
        }
        // The whole key space, and an inverted range (empty on both).
        prop_assert_eq!(
            a.sync_digest_in(&key(0), &key(99)) == b.sync_digest_in(&key(0), &key(99)),
            a.committed_state() == b.committed_state()
        );
        prop_assert_eq!(a.sync_digest_in(&key(9), &key(3)), 0);
    }
}
