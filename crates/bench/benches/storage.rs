//! Criterion micro-benchmarks of the durability and storage-engine hot
//! paths: WAL framing under the per-append and group-commit fsync
//! disciplines, and record access through the two [`Storage`] backends.
//!
//! The simulated-latency amortization (N transactions, one
//! `fsync_latency`) is fig10's story; what these benches pin down is
//! the *host* cost of the same paths — frame encoding and checksum per
//! append, transient decode on a cold log-structured read, the
//! copy-forward compaction rewrite, the single-key anti-entropy pull a
//! replica sends after a missed commit, the range digests of a sync
//! round, and building a checkpoint blob.

use std::cell::RefCell;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use mdcc_common::config::SYNC_CHUNK_KEYS;
use mdcc_common::{
    CommutativeUpdate, Key, NodeId, ProtocolConfig, Row, SimTime, TableId, TxnId, UpdateOp,
};
use mdcc_paxos::{AcceptorRecord, AttrConstraint, Ballot, TxnOption, TxnOutcome};
use mdcc_recovery::wal::{self, WalRecord};
use mdcc_sim::Disk;
use mdcc_storage::{Catalog, LogStructuredBackend, MemBackend, RecordStore, Storage, TableSchema};

fn key(n: usize) -> Key {
    Key::new(TableId(1), format!("k{n:05}"))
}

fn catalog() -> Arc<Catalog> {
    Arc::new(Catalog::new().with(
        TableSchema::new(TableId(1), "item").with_constraint(AttrConstraint::at_least("stock", 0)),
    ))
}

fn record(cat: &Arc<Catalog>, k: &Key, stock: i64) -> AcceptorRecord {
    let cfg = ProtocolConfig::default();
    AcceptorRecord::with_value(
        cat.constraints_for(k),
        cfg.replication,
        cfg.fast_quorum,
        cfg.max_instance_options,
        Row::new().with("stock", stock),
    )
}

fn wal_record(seq: u64) -> WalRecord {
    WalRecord::FastPropose {
        at: SimTime::from_millis(seq),
        opt: TxnOption::solo(
            TxnId::new(NodeId(0), seq),
            key(seq as usize),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
        ),
    }
}

/// WAL appends under the two fsync disciplines: one fsync per append
/// versus one covering fsync per batch. The simulated disk's fsync is a
/// watermark store, so the rows isolate the per-append framing cost the
/// storage node pays either way.
fn bench_wal_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal");
    for batch in [1usize, 8, 32] {
        let records: Vec<WalRecord> = (0..batch as u64).map(wal_record).collect();
        group.bench_with_input(
            BenchmarkId::new("append_fsync_each", batch),
            &batch,
            |bench, _| {
                bench.iter_batched(
                    Disk::new,
                    |mut disk| {
                        for r in &records {
                            wal::append(&mut disk, r);
                            disk.fsync();
                        }
                        disk.wal_len()
                    },
                    BatchSize::SmallInput,
                );
            },
        );
        group.bench_with_input(
            BenchmarkId::new("append_group_fsync", batch),
            &batch,
            |bench, _| {
                bench.iter_batched(
                    Disk::new,
                    |mut disk| {
                        for r in &records {
                            wal::append(&mut disk, r);
                        }
                        disk.fsync();
                        disk.wal_len()
                    },
                    BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

const ENGINE_RECORDS: usize = 512;
/// Small enough that the bulk-load rows overflow it several times —
/// eviction (the encode-and-spill path) is part of what's measured.
const CACHE_CAP: usize = 128;

fn log_engine(cat: &Arc<Catalog>) -> LogStructuredBackend {
    let cfg = ProtocolConfig {
        log_cache_records: CACHE_CAP,
        ..ProtocolConfig::default()
    };
    LogStructuredBackend::new(&cfg, Arc::clone(cat))
}

fn loaded_log_engine(cat: &Arc<Catalog>) -> LogStructuredBackend {
    let mut log = log_engine(cat);
    for i in 0..ENGINE_RECORDS {
        let k = key(i);
        log.insert(k.clone(), record(cat, &k, i as i64));
    }
    log
}

/// Bulk insert through both backends. The log-structured rows include
/// the evictions the bounded cache forces (`ENGINE_RECORDS` is several
/// times `CACHE_CAP`).
fn bench_engine_put(c: &mut Criterion) {
    let cat = catalog();
    let records: Vec<(Key, AcceptorRecord)> = (0..ENGINE_RECORDS)
        .map(|i| {
            let k = key(i);
            let r = record(&cat, &k, i as i64);
            (k, r)
        })
        .collect();
    let mut group = c.benchmark_group("engine_put");
    group.sample_size(20);
    group.bench_function("mem", |bench| {
        bench.iter_batched(
            MemBackend::new,
            |mut mem| {
                for (k, r) in &records {
                    mem.insert(k.clone(), r.clone());
                }
                mem.len()
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("log_structured", |bench| {
        bench.iter_batched(
            || log_engine(&cat),
            |mut log| {
                for (k, r) in &records {
                    log.insert(k.clone(), r.clone());
                }
                log.len()
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// Point reads: the in-memory map, a log-structured cache hit, and a
/// log-structured cold read (transient segment decode — the price of
/// keeping the record unmaterialized).
fn bench_engine_get(c: &mut Criterion) {
    let cat = catalog();
    let mut mem = MemBackend::new();
    for i in 0..ENGINE_RECORDS {
        let k = key(i);
        mem.insert(k.clone(), record(&cat, &k, i as i64));
    }
    let log = loaded_log_engine(&cat);
    // The newest insert is certainly cached; key 0 was evicted long ago,
    // and reads materialize transiently so it stays cold.
    let hot = key(ENGINE_RECORDS - 1);
    let cold = key(0);
    assert!(log.materialized() <= CACHE_CAP);
    let mut group = c.benchmark_group("engine_get");
    group.bench_function("mem", |bench| {
        bench.iter(|| {
            let mut v = 0;
            mem.read(std::hint::black_box(&cold), &mut |r| {
                v = r.version().0;
            });
            v
        });
    });
    group.bench_function("log_hot", |bench| {
        bench.iter(|| {
            let mut v = 0;
            log.read(std::hint::black_box(&hot), &mut |r| {
                v = r.version().0;
            });
            v
        });
    });
    group.bench_function("log_cold", |bench| {
        bench.iter(|| {
            let mut v = 0;
            log.read(std::hint::black_box(&cold), &mut |r| {
                v = r.version().0;
            });
            v
        });
    });
    group.finish();
}

/// In-place update of a hot record — the steady-state path of every
/// protocol-side mutation once the record is materialized.
fn bench_engine_update(c: &mut Criterion) {
    let cat = catalog();
    let mut mem = MemBackend::new();
    let k = key(0);
    mem.insert(k.clone(), record(&cat, &k, 1));
    let mut log = loaded_log_engine(&cat);
    let hot = key(ENGINE_RECORDS - 1);
    let mut group = c.benchmark_group("engine_update");
    group.bench_function("mem", |bench| {
        bench.iter(|| {
            let mut v = 0;
            mem.update(&k, &mut || unreachable!("record exists"), &mut |r| {
                v = r.version().0;
            });
            v
        });
    });
    group.bench_function("log_hot", |bench| {
        bench.iter(|| {
            let mut v = 0;
            log.update(&hot, &mut || unreachable!("record exists"), &mut |r| {
                v = r.version().0;
            });
            v
        });
    });
    group.finish();
}

/// The copy-forward rewrite: every live entry re-appended into fresh
/// segments in sorted-key order. Repeated calls rewrite the same live
/// set, so each iteration measures one full compaction pass over
/// `ENGINE_RECORDS` spilled records.
fn bench_engine_compact(c: &mut Criterion) {
    let cat = catalog();
    let mut log = loaded_log_engine(&cat);
    let mut group = c.benchmark_group("engine_compact");
    group.sample_size(20);
    group.bench_function("log_structured", |bench| {
        bench.iter(|| {
            log.compact();
            log.engine_stats().live_bytes
        });
    });
    group.finish();
}

/// Serving `SyncRangePull { ranges: [(key, key)] }` — what a replica
/// sends after a commit it could not execute — from a log-structured
/// store of 30 000 records. A point range is one lookup; the full-range
/// row is the pass over every key of the store that each such pull used
/// to cost.
fn bench_sync_pull(c: &mut Criterion) {
    let cfg = ProtocolConfig {
        storage: mdcc_common::StorageKind::LogStructured,
        ..ProtocolConfig::default()
    };
    let mut store = RecordStore::new(cfg, catalog());
    for i in 0..STORE_RECORDS {
        store.load(key(i), Row::new().with("stock", i as i64));
    }
    let hot = key(STORE_RECORDS / 2);
    let point = [(hot.clone(), hot)];
    let everything = [(key(0), key(STORE_RECORDS - 1))];
    let mut group = c.benchmark_group("sync_pull");
    group.sample_size(20);
    group.bench_function("single_key/30000", |bench| {
        bench.iter(|| store.sync_items_in(std::hint::black_box(&point)).len());
    });
    group.bench_function("list_keys/30000", |bench| {
        bench.iter(|| store.keys().len());
    });
    group.bench_function("whole_store/30000", |bench| {
        bench.iter(|| store.sync_items_in(std::hint::black_box(&everything))[0].len());
    });
    group.finish();
}

/// Records of the anti-entropy and checkpoint benches: about two
/// storage nodes' worth of a `tpcw_durable` catalog.
const STORE_RECORDS: usize = 30_000;

/// Records the warm store's traffic touches, and the committed
/// transactions each gets.
const WARM_RECORDS: usize = 4_096;
const WARM_TXNS: u64 = 8;

/// A 30 000-record store whose last-touched `WARM_RECORDS` records carry
/// real acceptor state — outcomes, settled and executed sets, a cstruct
/// of committed options — as the cached records of a running node do.
/// Under the log-structured backend (default cache of 4 096 records)
/// the warm records are mostly cached and the rest spilled.
fn warm_store(storage: mdcc_common::StorageKind) -> RecordStore {
    let cfg = ProtocolConfig {
        storage,
        ..ProtocolConfig::default()
    };
    let mut store = RecordStore::new(cfg, catalog());
    for i in 0..STORE_RECORDS {
        store.load(key(i), Row::new().with("stock", 1_000_000));
    }
    let mut seq = 0;
    for round in 0..WARM_TXNS {
        for i in 0..WARM_RECORDS {
            let k = key(i * (STORE_RECORDS / WARM_RECORDS));
            seq += 1;
            let txn = TxnId::new(NodeId(round as u32), seq);
            let opt = TxnOption::solo(
                txn,
                k.clone(),
                UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
            );
            store.fast_propose(opt, SimTime::from_millis(seq));
            store.apply_visibility(&k, txn, TxnOutcome::Committed, true);
        }
    }
    store
}

/// Touches every warm record without changing it, as traffic between
/// two sync rounds would.
fn touch_warm(store: &mut RecordStore) {
    for i in 0..WARM_RECORDS {
        store.raise_promise(
            &key(i * (STORE_RECORDS / WARM_RECORDS)),
            Ballot::INITIAL_FAST,
        );
    }
}

/// The two halves of a sync round on a 30 000-record log-structured
/// store with a warm cache: the peer advertising its range digests
/// (`SyncDigestReq` → `sync_ranges`) and the restarted node comparing
/// them against its own (`SyncDigest` → `divergent_ranges`; here every
/// range agrees, so nothing is pulled and the row is pure digesting).
/// Before each timed call every warm record is touched, so each cached
/// one is digested afresh; the `untouched` row repeats the round with
/// nothing touched in between.
fn bench_sync_digest(c: &mut Criterion) {
    let store = RefCell::new(warm_store(mdcc_common::StorageKind::LogStructured));
    let ranges = store.borrow().sync_ranges(SYNC_CHUNK_KEYS);
    let mut group = c.benchmark_group("sync_digest");
    group.sample_size(20);
    group.bench_function(&format!("sync_ranges/{STORE_RECORDS}"), |bench| {
        bench.iter_batched(
            || touch_warm(&mut store.borrow_mut()),
            |()| store.borrow().sync_ranges(SYNC_CHUNK_KEYS).len(),
            BatchSize::SmallInput,
        );
    });
    group.bench_function(&format!("divergent_ranges/{STORE_RECORDS}"), |bench| {
        bench.iter_batched(
            || touch_warm(&mut store.borrow_mut()),
            |()| store.borrow().divergent_ranges(&ranges).len(),
            BatchSize::SmallInput,
        );
    });
    group.bench_function(&format!("sync_ranges_untouched/{STORE_RECORDS}"), |bench| {
        bench.iter(|| store.borrow().sync_ranges(SYNC_CHUNK_KEYS).len());
    });
    group.finish();
}

/// Building the checkpoint blob of a 30 000-record store
/// ([`RecordStore::checkpoint_bytes`]), as every `CheckpointTick` does.
/// On the log-structured store all but the cached records are copied
/// out of their segments. The `loaded` rows hold freshly loaded rows
/// only; the `warm` rows add the acceptor state of `warm_store`, whose
/// encoding dominates a running node's checkpoints.
fn bench_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint");
    group.sample_size(20);
    for (name, storage) in [
        ("mem", mdcc_common::StorageKind::Mem),
        ("log", mdcc_common::StorageKind::LogStructured),
    ] {
        let cfg = ProtocolConfig {
            storage,
            ..ProtocolConfig::default()
        };
        let mut store = RecordStore::new(cfg, catalog());
        for i in 0..STORE_RECORDS {
            store.load(key(i), Row::new().with("stock", i as i64));
        }
        group.bench_function(&format!("encode/{name}/{STORE_RECORDS}"), |bench| {
            bench.iter(|| store.checkpoint_bytes().len());
        });
        let warm = warm_store(storage);
        group.bench_function(&format!("encode_warm/{name}/{STORE_RECORDS}"), |bench| {
            bench.iter(|| warm.checkpoint_bytes().len());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_wal_commit,
    bench_engine_put,
    bench_engine_get,
    bench_engine_update,
    bench_engine_compact,
    bench_sync_pull,
    bench_sync_digest,
    bench_checkpoint
);
criterion_main!(benches);
