//! Pluggable storage engines behind the record store.
//!
//! [`crate::store::RecordStore`] owns the protocol logic — what a
//! record mutation *means* — and delegates where record bytes *live* to
//! a [`Storage`] backend:
//!
//! * [`MemBackend`] — every record fully materialized in a hash map.
//!   The reference engine: fastest access, RSS proportional to record
//!   count × materialized-record size.
//! * [`LogStructuredBackend`] — records encoded into append-only
//!   in-memory segments behind a sparse index, with a bounded cache of
//!   materialized records and copy-forward compaction once dead bytes
//!   outweigh live ones. RSS stays O(encoded state + working set).
//!
//! The two are interchangeable at the protocol level: everything a node
//! says on the wire or persists in its WAL is a pure function of the
//! records' logical state, and [`mdcc_paxos::AcceptorRecord`] round-trips
//! that state exactly through `export_state`/`from_state` (the codec the
//! log-structured engine reuses for its segment entries). Cluster runs
//! under either backend are byte-identical.
//!
//! The trait is object-safe — access goes through `&mut dyn FnMut`
//! closures rather than returned references, because the log-structured
//! engine materializes cold records transiently and has nothing to
//! borrow from after the call.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use mdcc_common::wire::{Dec, Enc, Wire};
use mdcc_common::{Key, ProtocolConfig};
use mdcc_paxos::{AcceptorRecord, AcceptorState};

use crate::schema::Catalog;

/// Target size of one append-only segment. Small enough that
/// compaction granularity stays fine-grained in tests, large enough
/// that segment count stays negligible at paper scale.
pub const SEGMENT_BYTES: usize = 256 * 1024;

/// Compaction only runs once at least this many dead bytes have
/// accumulated — rewriting a few stale KiB is not worth the copy.
pub const COMPACT_FLOOR_BYTES: usize = 64 * 1024;

/// Observable counters of a storage engine (reports, tests, benches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Bytes of segment entries still referenced by the index.
    pub live_bytes: usize,
    /// Bytes of superseded segment entries awaiting compaction.
    pub dead_bytes: usize,
    /// Open segments.
    pub segments: usize,
    /// Copy-forward compactions performed.
    pub compactions: u64,
    /// Materialized records written back to segments under cache
    /// pressure.
    pub evictions: u64,
}

impl std::ops::AddAssign for EngineStats {
    fn add_assign(&mut self, o: Self) {
        // Exhaustive, so the next counter cannot be left out of the sum.
        let Self {
            live_bytes,
            dead_bytes,
            segments,
            compactions,
            evictions,
        } = o;
        self.live_bytes += live_bytes;
        self.dead_bytes += dead_bytes;
        self.segments += segments;
        self.compactions += compactions;
        self.evictions += evictions;
    }
}

/// Where a store's records live. See the module docs for the contract;
/// in short, a backend must round-trip every record's logical state
/// exactly, and its iteration order (`keys_sorted`) must be
/// deterministic.
pub trait Storage: fmt::Debug + Send {
    /// Inserts (or replaces) a fully-formed record.
    fn insert(&mut self, key: Key, rec: AcceptorRecord);

    /// Calls `f` with the record under `key`, materializing it
    /// transiently if cold. Returns `false` (without calling `f`) when
    /// the key was never inserted.
    fn read(&self, key: &Key, f: &mut dyn FnMut(&AcceptorRecord)) -> bool;

    /// Calls `f` with mutable access to the record under `key`,
    /// creating it via `make` first if absent. The mutated record stays
    /// hot until the backend decides to spill it.
    fn update(
        &mut self,
        key: &Key,
        make: &mut dyn FnMut() -> AcceptorRecord,
        f: &mut dyn FnMut(&mut AcceptorRecord),
    );

    /// Number of distinct records ever inserted or created.
    fn len(&self) -> usize;

    /// True when no record was ever inserted or created.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every key, sorted — the deterministic iteration order sync
    /// sweeps and checkpoints rely on.
    fn keys_sorted(&self) -> Vec<Key>;

    /// Encodes every record as the checkpoint codec lays out
    /// `StoreState::records`: a `u32` count, then `(key, state)` per
    /// record in sorted-key order — byte for byte what encoding
    /// `(key, export_state())` of each record in `keys_sorted` order
    /// gives, without materializing records that are already stored in
    /// that form.
    fn encode_records(&self, out: &mut Enc);

    /// Records currently held materialized in memory (the whole store
    /// for [`MemBackend`]; the cache for [`LogStructuredBackend`]).
    fn materialized(&self) -> usize;

    /// Engine counters; all-zero for backends without segments.
    fn engine_stats(&self) -> EngineStats;
}

/// The reference engine: a plain hash map of materialized records.
#[derive(Debug, Default)]
pub struct MemBackend {
    records: HashMap<Key, AcceptorRecord>,
}

impl MemBackend {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Storage for MemBackend {
    fn insert(&mut self, key: Key, rec: AcceptorRecord) {
        self.records.insert(key, rec);
    }

    fn read(&self, key: &Key, f: &mut dyn FnMut(&AcceptorRecord)) -> bool {
        match self.records.get(key) {
            Some(rec) => {
                f(rec);
                true
            }
            None => false,
        }
    }

    fn update(
        &mut self,
        key: &Key,
        make: &mut dyn FnMut() -> AcceptorRecord,
        f: &mut dyn FnMut(&mut AcceptorRecord),
    ) {
        f(self.records.entry(key.clone()).or_insert_with(make));
    }

    fn len(&self) -> usize {
        self.records.len()
    }

    fn keys_sorted(&self) -> Vec<Key> {
        let mut keys: Vec<Key> = self.records.keys().cloned().collect();
        keys.sort();
        keys
    }

    fn encode_records(&self, out: &mut Enc) {
        let mut records: Vec<(&Key, &AcceptorRecord)> = self.records.iter().collect();
        records.sort_unstable_by_key(|(key, _)| *key);
        out.u32(records.len() as u32);
        for (key, rec) in records {
            key.encode(out);
            rec.export_state().encode(out);
        }
    }

    fn materialized(&self) -> usize {
        self.records.len()
    }

    fn engine_stats(&self) -> EngineStats {
        EngineStats::default()
    }
}

/// Location of one encoded record inside the segment files.
#[derive(Debug, Clone, Copy)]
struct EntryRef {
    seg: u32,
    off: u32,
    len: u32,
}

#[derive(Debug)]
struct Cached {
    rec: AcceptorRecord,
    /// Monotone touch stamp; eviction drops the oldest-touched half.
    touch: u64,
}

/// The log-structured engine: append-only segments + sparse index +
/// bounded materialization cache.
///
/// Writes land in the cache; under pressure the least-recently-touched
/// half is encoded (`export_state`, the checkpoint codec) and appended
/// to the open segment, superseding any older entry for the same key.
/// Reads hit the cache or transiently decode the indexed entry.
/// Compaction copies every live entry forward into fresh segments once
/// dead bytes outweigh live ones, in sorted-key order so the rewrite is
/// deterministic.
pub struct LogStructuredBackend {
    replication: usize,
    fast_quorum: usize,
    max_instance_options: usize,
    catalog: Arc<Catalog>,
    cache_cap: usize,
    index: HashMap<Key, EntryRef>,
    segments: Vec<Vec<u8>>,
    cache: HashMap<Key, Cached>,
    clock: u64,
    live_bytes: usize,
    dead_bytes: usize,
    compactions: u64,
    evictions: u64,
}

impl fmt::Debug for LogStructuredBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogStructuredBackend")
            .field("records", &self.len())
            .field("cached", &self.cache.len())
            .field("stats", &self.engine_stats())
            .finish()
    }
}

impl LogStructuredBackend {
    /// An empty engine for the given schema and protocol config (the
    /// record-materialization parameters and `log_cache_records` come
    /// from there).
    pub fn new(cfg: &ProtocolConfig, catalog: Arc<Catalog>) -> Self {
        Self {
            replication: cfg.replication,
            fast_quorum: cfg.fast_quorum,
            max_instance_options: cfg.max_instance_options,
            catalog,
            cache_cap: cfg.log_cache_records.max(1),
            index: HashMap::new(),
            segments: Vec::new(),
            cache: HashMap::new(),
            clock: 0,
            live_bytes: 0,
            dead_bytes: 0,
            compactions: 0,
            evictions: 0,
        }
    }

    fn touch(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Decodes the indexed segment entry for `key` into a fresh record.
    fn materialize(&self, key: &Key) -> Option<AcceptorRecord> {
        let entry = self.index.get(key)?;
        let seg = &self.segments[entry.seg as usize];
        let bytes = &seg[entry.off as usize..(entry.off + entry.len) as usize];
        let mut dec = Dec::new(bytes);
        let _key = Key::decode(&mut dec).expect("segment entry key decodes");
        let state = AcceptorState::decode(&mut dec).expect("segment entry state decodes");
        Some(AcceptorRecord::from_state(
            self.catalog.constraints_for(key),
            self.replication,
            self.fast_quorum,
            self.max_instance_options,
            state,
        ))
    }

    /// Encodes `(key, state)` and appends it to the open segment,
    /// pointing the index at it and superseding (dead-marking) any
    /// older entry for the key.
    fn append_entry(&mut self, key: &Key, rec: &AcceptorRecord) {
        let mut enc = Enc::new();
        key.encode(&mut enc);
        rec.export_state().encode(&mut enc);
        let bytes = enc.finish();
        if self
            .segments
            .last()
            .is_none_or(|seg| seg.len() >= SEGMENT_BYTES)
        {
            self.segments.push(Vec::new());
        }
        let seg = (self.segments.len() - 1) as u32;
        let open = self.segments.last_mut().expect("open segment exists");
        let off = open.len() as u32;
        open.extend_from_slice(&bytes);
        let entry = EntryRef {
            seg,
            off,
            len: bytes.len() as u32,
        };
        if let Some(old) = self.index.insert(key.clone(), entry) {
            self.live_bytes -= old.len as usize;
            self.dead_bytes += old.len as usize;
        }
        self.live_bytes += bytes.len();
        self.maybe_compact();
    }

    /// Spills the least-recently-touched half of the cache into
    /// segments. Eviction order is the touch-stamp order — a pure
    /// function of the access history, so runs are deterministic.
    fn evict_lru_half(&mut self) {
        let mut order: Vec<(u64, Key)> = self
            .cache
            .iter()
            .map(|(k, c)| (c.touch, k.clone()))
            .collect();
        order.sort();
        order.truncate(order.len().div_ceil(2));
        for (_, key) in order {
            let cached = self.cache.remove(&key).expect("listed entry is cached");
            self.append_entry(&key, &cached.rec);
            self.evictions += 1;
        }
    }

    /// Copy-forward compaction: rewrite live entries once dead bytes
    /// outweigh live ones.
    fn maybe_compact(&mut self) {
        if self.dead_bytes <= self.live_bytes || self.dead_bytes < COMPACT_FLOOR_BYTES {
            return;
        }
        self.compact();
    }

    /// Unconditional copy-forward rewrite (tests and benches call this
    /// directly; live code goes through the dead-byte trigger).
    pub fn compact(&mut self) {
        let mut keys: Vec<Key> = self.index.keys().cloned().collect();
        keys.sort();
        let mut segments: Vec<Vec<u8>> = Vec::new();
        let mut index = HashMap::with_capacity(self.index.len());
        for key in keys {
            let old = self.index[&key];
            let src =
                &self.segments[old.seg as usize][old.off as usize..(old.off + old.len) as usize];
            if segments
                .last()
                .is_none_or(|s: &Vec<u8>| s.len() >= SEGMENT_BYTES)
            {
                segments.push(Vec::new());
            }
            let seg = (segments.len() - 1) as u32;
            let open = segments.last_mut().expect("open segment exists");
            let off = open.len() as u32;
            open.extend_from_slice(src);
            index.insert(
                key,
                EntryRef {
                    seg,
                    off,
                    len: old.len,
                },
            );
        }
        self.segments = segments;
        self.index = index;
        self.dead_bytes = 0;
        self.compactions += 1;
    }
}

impl Storage for LogStructuredBackend {
    fn insert(&mut self, key: Key, rec: AcceptorRecord) {
        let touch = self.touch();
        self.cache.insert(key, Cached { rec, touch });
        if self.cache.len() > self.cache_cap {
            self.evict_lru_half();
        }
    }

    fn read(&self, key: &Key, f: &mut dyn FnMut(&AcceptorRecord)) -> bool {
        if let Some(cached) = self.cache.get(key) {
            f(&cached.rec);
            return true;
        }
        match self.materialize(key) {
            Some(rec) => {
                f(&rec);
                true
            }
            None => false,
        }
    }

    fn update(
        &mut self,
        key: &Key,
        make: &mut dyn FnMut() -> AcceptorRecord,
        f: &mut dyn FnMut(&mut AcceptorRecord),
    ) {
        let touch = self.touch();
        if let Some(cached) = self.cache.get_mut(key) {
            cached.touch = touch;
            f(&mut cached.rec);
            return;
        }
        let mut rec = self.materialize(key).unwrap_or_else(&mut *make);
        f(&mut rec);
        self.cache.insert(key.clone(), Cached { rec, touch });
        if self.cache.len() > self.cache_cap {
            self.evict_lru_half();
        }
    }

    fn len(&self) -> usize {
        let spilled_only = self
            .index
            .keys()
            .filter(|k| !self.cache.contains_key(*k))
            .count();
        self.cache.len() + spilled_only
    }

    fn keys_sorted(&self) -> Vec<Key> {
        let mut keys: Vec<Key> = self.cache.keys().cloned().collect();
        keys.extend(
            self.index
                .keys()
                .filter(|k| !self.cache.contains_key(*k))
                .cloned(),
        );
        keys.sort();
        keys
    }

    fn encode_records(&self, out: &mut Enc) {
        // A segment entry *is* `key.encode(); state.encode()` — the
        // element layout of the checkpoint's record list — so a spilled
        // record is copied, not decoded and re-encoded. The cache
        // supersedes the index for keys present in both.
        let mut records: Vec<(&Key, Option<&EntryRef>)> =
            self.cache.keys().map(|key| (key, None)).collect();
        records.extend(
            self.index
                .iter()
                .filter(|(key, _)| !self.cache.contains_key(*key))
                .map(|(key, entry)| (key, Some(entry))),
        );
        records.sort_unstable_by_key(|(key, _)| *key);
        out.u32(records.len() as u32);
        for (key, spilled) in records {
            match spilled {
                Some(entry) => {
                    let seg = &self.segments[entry.seg as usize];
                    out.bytes(&seg[entry.off as usize..(entry.off + entry.len) as usize]);
                }
                None => {
                    key.encode(out);
                    self.cache[key].rec.export_state().encode(out);
                }
            }
        }
    }

    fn materialized(&self) -> usize {
        self.cache.len()
    }

    fn engine_stats(&self) -> EngineStats {
        EngineStats {
            live_bytes: self.live_bytes,
            dead_bytes: self.dead_bytes,
            segments: self.segments.len(),
            compactions: self.compactions,
            evictions: self.evictions,
        }
    }
}

/// Builds the backend `cfg.storage` selects.
pub fn backend_for(cfg: &ProtocolConfig, catalog: &Arc<Catalog>) -> Box<dyn Storage> {
    match cfg.storage {
        mdcc_common::StorageKind::Mem => Box::new(MemBackend::new()),
        mdcc_common::StorageKind::LogStructured => {
            Box::new(LogStructuredBackend::new(cfg, Arc::clone(catalog)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use mdcc_common::{Row, TableId};
    use mdcc_paxos::AttrConstraint;

    fn catalog() -> Arc<Catalog> {
        Arc::new(
            Catalog::new().with(
                TableSchema::new(TableId(1), "item")
                    .with_constraint(AttrConstraint::at_least("stock", 0)),
            ),
        )
    }

    fn key(n: usize) -> Key {
        Key::new(TableId(1), format!("k{n:05}"))
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

    fn small_cache_engine(cap: usize) -> LogStructuredBackend {
        let cfg = ProtocolConfig {
            log_cache_records: cap,
            ..ProtocolConfig::default()
        };
        LogStructuredBackend::new(&cfg, catalog())
    }

    #[test]
    fn backends_agree_on_reads_and_keys() {
        let cat = catalog();
        let mut mem = MemBackend::new();
        let mut log = small_cache_engine(4);
        for i in 0..32 {
            let k = key(i);
            mem.insert(k.clone(), record(&cat, &k, i as i64));
            log.insert(k.clone(), record(&cat, &k, i as i64));
        }
        assert_eq!(mem.len(), 32);
        assert_eq!(log.len(), 32);
        assert_eq!(mem.keys_sorted(), log.keys_sorted());
        assert!(log.materialized() <= 4, "cache bounded by its cap");
        for i in 0..32 {
            let k = key(i);
            let mut a = None;
            let mut b = None;
            assert!(mem.read(&k, &mut |r| a = Some(format!("{:?}", r.export_state()))));
            assert!(log.read(&k, &mut |r| b = Some(format!("{:?}", r.export_state()))));
            assert_eq!(a, b, "evicted record round-trips exactly");
        }
    }

    #[test]
    fn cold_reads_do_not_grow_the_cache() {
        let cat = catalog();
        let mut log = small_cache_engine(4);
        for i in 0..16 {
            let k = key(i);
            log.insert(k.clone(), record(&cat, &k, 1));
        }
        let before = log.materialized();
        for i in 0..16 {
            assert!(log.read(&key(i), &mut |_| {}));
        }
        assert_eq!(log.materialized(), before, "reads materialize transiently");
        assert!(!log.read(&key(999), &mut |_| {}), "absent key stays absent");
    }

    #[test]
    fn update_creates_then_mutates_in_place() {
        let cat = catalog();
        let mut log = small_cache_engine(8);
        let k = key(0);
        let mut made = 0;
        log.update(
            &k,
            &mut || {
                made += 1;
                record(&cat, &k, 5)
            },
            &mut |_| {},
        );
        log.update(&k, &mut || unreachable!("record exists"), &mut |_| {});
        assert_eq!(made, 1);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn rewrites_accumulate_dead_bytes_and_compaction_reclaims_them() {
        let cat = catalog();
        let mut log = small_cache_engine(1);
        // Repeatedly rewriting two keys through a 1-record cache forces
        // an eviction (and hence a superseding segment append) on every
        // other update.
        for round in 0..200 {
            for i in 0..2 {
                let k = key(i);
                log.insert(k.clone(), record(&cat, &k, round));
            }
        }
        let stats = log.engine_stats();
        assert!(stats.evictions > 0);
        assert!(stats.dead_bytes > 0, "superseded entries count as dead");
        log.compact();
        let after = log.engine_stats();
        assert_eq!(after.dead_bytes, 0);
        assert!(after.live_bytes <= stats.live_bytes + stats.dead_bytes);
        // Contents survive the rewrite.
        for i in 0..2 {
            let mut stock = None;
            assert!(log.read(&key(i), &mut |r| {
                stock = r.value().and_then(|row| row.get_int("stock"));
            }));
            assert_eq!(stock, Some(199));
        }
    }

    #[test]
    fn compaction_preserves_encoded_state_byte_for_byte() {
        let cat = catalog();
        let mut log = small_cache_engine(1);
        for i in 0..8 {
            let k = key(i);
            for round in 0..4 {
                log.insert(k.clone(), record(&cat, &k, round));
            }
        }
        let before: Vec<String> = log
            .keys_sorted()
            .iter()
            .map(|k| {
                let mut s = String::new();
                log.read(k, &mut |r| s = format!("{:?}", r.export_state()));
                s
            })
            .collect();
        log.compact();
        let after: Vec<String> = log
            .keys_sorted()
            .iter()
            .map(|k| {
                let mut s = String::new();
                log.read(k, &mut |r| s = format!("{:?}", r.export_state()));
                s
            })
            .collect();
        assert_eq!(before, after, "compaction copies entries verbatim");
        assert_eq!(log.engine_stats().compactions, 1);
    }
}
