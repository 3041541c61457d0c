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
//!   in-memory segments, with a bounded cache of materialized records
//!   and copy-forward compaction once dead bytes outweigh live ones.
//!   RSS stays O(encoded state + working set).
//!
//! The two are interchangeable at the protocol level: everything a node
//! says on the wire or persists in its WAL is a pure function of the
//! records' logical state, and [`mdcc_paxos::AcceptorRecord`] round-trips
//! that state exactly through `encode_state`/`from_state` (the checkpoint
//! codec, which the log-structured engine reuses for its segment
//! entries). Cluster runs under either backend are byte-identical.
//!
//! # Ordered walks and record digests
//!
//! Checkpoints, anti-entropy and the recovery audit walk records in key
//! order ([`Storage::for_each_in`], [`Storage::digests_in`],
//! [`Storage::encode_records`]). Anti-entropy compares key ranges by
//! the wrapping sum of one [`record_digest`] per record, so a range's
//! digest is built from per-record values in any order.
//!
//! The log-structured engine keeps one index of every key, hot or
//! spilled: hash lookups for point access, plus a sorted map that
//! changes only when a key is first created, so walks never collect and
//! sort. A spilled entry carries its record's digest, fixed when the
//! entry was written and taken from the bytes being written (the
//! projection `(key, version, value)` is the entry's prefix). A hot
//! record is digested only when a walk asks for it, and the digest is
//! kept until the record's next touch; the mutation path computes
//! nothing.
//!
//! The trait is object-safe — access goes through `&mut dyn FnMut`
//! closures rather than returned references, because the log-structured
//! engine materializes cold records transiently and has nothing to
//! borrow from after the call.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

use mdcc_common::wire::{fnv1a64, Dec, Enc, Wire};
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

/// One record's contribution to a range digest, `h(key, version,
/// value)`: FNV-1a/64 over the committed projection's canonical bytes
/// (`key`, then the record's version and value, as the wire encodes
/// them), followed by MurmurHash3's 64-bit finalizer. Range digests add
/// these up; the finalizer spreads every input bit over the whole word
/// first, so the sum does not inherit FNV's weak low bits.
pub fn record_digest(projection: &[u8]) -> u64 {
    let mut h = fnv1a64(projection);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// [`record_digest`] of a materialized record, encoding its projection
/// into `scratch`.
fn digest_record(key: &Key, rec: &AcceptorRecord, scratch: &mut Enc) -> u64 {
    scratch.clear();
    key.encode(scratch);
    rec.encode_committed(scratch);
    record_digest(scratch.as_slice())
}

/// Which keys an ordered walk visits.
#[derive(Debug, Clone, Copy)]
pub enum KeyRange<'a> {
    /// Every key.
    All,
    /// The keys in `[lo, hi]`; none when `lo > hi`.
    Within(&'a Key, &'a Key),
}

impl<'a> KeyRange<'a> {
    fn contains(self, key: &Key) -> bool {
        match self {
            KeyRange::All => true,
            KeyRange::Within(lo, hi) => lo <= key && key <= hi,
        }
    }

    /// Bounds for a sorted map's `range`; `None` for an empty interval
    /// (which `BTreeMap::range` would reject).
    fn bounds(self) -> Option<(Bound<&'a Key>, Bound<&'a Key>)> {
        match self {
            KeyRange::All => Some((Bound::Unbounded, Bound::Unbounded)),
            KeyRange::Within(lo, hi) => {
                (lo <= hi).then_some((Bound::Included(lo), Bound::Included(hi)))
            }
        }
    }
}

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
/// exactly, and its walks must visit keys in sorted order.
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

    /// Every key, sorted.
    fn keys_sorted(&self) -> Vec<Key>;

    /// Calls `f` with every record in `range`, in key order, cold ones
    /// materialized transiently.
    fn for_each_in(&self, range: KeyRange<'_>, f: &mut dyn FnMut(&Key, &AcceptorRecord));

    /// The [`record_digest`] of every record in `range`, in key order.
    fn digests_in<'a>(
        &'a self,
        range: KeyRange<'_>,
    ) -> Box<dyn Iterator<Item = (&'a Key, u64)> + 'a>;

    /// Encodes every record as the checkpoint codec lays out
    /// `StoreState::records`: a `u32` count, then `(key, state)` per
    /// record in key order — byte for byte what encoding
    /// `(key, export_state())` of each record gives, without
    /// materializing records that are already stored in that form.
    fn encode_records(&self, out: &mut Enc);

    /// Records currently held materialized in memory (the whole store
    /// for [`MemBackend`]; the cache for [`LogStructuredBackend`]).
    fn materialized(&self) -> usize;

    /// Engine counters; all-zero for backends without segments.
    fn engine_stats(&self) -> EngineStats;
}

/// The reference engine: a plain hash map of materialized records.
/// Ordered walks sort the keys they visit; nothing on its point-access
/// path keeps an order.
#[derive(Debug, Default)]
pub struct MemBackend {
    records: HashMap<Key, AcceptorRecord>,
}

impl MemBackend {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The records in `range`, sorted by key.
    fn sorted_in(&self, range: KeyRange<'_>) -> Vec<(&Key, &AcceptorRecord)> {
        let mut records: Vec<(&Key, &AcceptorRecord)> = self
            .records
            .iter()
            .filter(|(key, _)| range.contains(key))
            .collect();
        records.sort_unstable_by_key(|(key, _)| *key);
        records
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
        keys.sort_unstable();
        keys
    }

    fn for_each_in(&self, range: KeyRange<'_>, f: &mut dyn FnMut(&Key, &AcceptorRecord)) {
        for (key, rec) in self.sorted_in(range) {
            f(key, rec);
        }
    }

    fn digests_in<'a>(
        &'a self,
        range: KeyRange<'_>,
    ) -> Box<dyn Iterator<Item = (&'a Key, u64)> + 'a> {
        let mut scratch = Enc::new();
        Box::new(
            self.sorted_in(range)
                .into_iter()
                .map(move |(key, rec)| (key, digest_record(key, rec, &mut scratch))),
        )
    }

    fn encode_records(&self, out: &mut Enc) {
        out.u32(self.records.len() as u32);
        for (key, rec) in self.sorted_in(KeyRange::All) {
            key.encode(out);
            rec.encode_state(out);
        }
    }

    fn materialized(&self) -> usize {
        self.records.len()
    }

    fn engine_stats(&self) -> EngineStats {
        EngineStats::default()
    }
}

/// Location of one encoded record inside the segments.
#[derive(Debug, Clone, Copy)]
struct EntryRef {
    seg: u32,
    off: u32,
    len: u32,
}

/// A record that lives only in its segment entry.
#[derive(Debug, Clone, Copy)]
struct Spilled {
    at: EntryRef,
    /// [`record_digest`] of the entry's record, fixed when it was
    /// written.
    digest: u64,
}

/// A materialized record.
#[derive(Debug)]
struct Cached {
    key: Key,
    rec: AcceptorRecord,
    /// Monotone touch stamp; eviction drops the oldest-touched half.
    touch: u64,
    /// The entry the record was last spilled to, if any. It stays live
    /// (and compaction copies it) until the next spill supersedes it.
    stale: Option<EntryRef>,
    /// `(touch, digest)` of the last walk that digested the record.
    /// Every mutation takes a new touch stamp, so a digest taken at the
    /// current stamp is still the record's: repeated sync rounds digest
    /// only the records touched in between, and mutations pay nothing.
    digested: Cell<(u64, u64)>,
}

impl Cached {
    fn new(key: Key, rec: AcceptorRecord, touch: u64, stale: Option<EntryRef>) -> Self {
        Self {
            key,
            rec,
            touch,
            stale,
            // Touch stamps start at 1, so stamp 0 marks "never digested".
            digested: Cell::new((0, 0)),
        }
    }

    fn digest(&self, scratch: &mut Enc) -> u64 {
        let (at, digest) = self.digested.get();
        if at == self.touch {
            return digest;
        }
        let digest = digest_record(&self.key, &self.rec, scratch);
        self.digested.set((self.touch, digest));
        digest
    }
}

/// Where one record lives: every key is exactly one of the two. A hot
/// record is boxed, so a slot stays small for the spilled majority.
#[derive(Debug)]
enum Slot {
    Hot(Box<Cached>),
    Spilled(Spilled),
}

impl Slot {
    /// The segment entry this slot keeps live, if any.
    fn entry_mut(&mut self) -> Option<&mut EntryRef> {
        match self {
            Slot::Hot(cached) => cached.stale.as_mut(),
            Slot::Spilled(spilled) => Some(&mut spilled.at),
        }
    }
}

/// Every key the engine holds, hot or spilled. Point access hashes
/// (`by_key`); walks follow `order`, which changes only when a key is
/// first created, so they neither hash nor sort. Both map a key to its
/// slot, and slots are never removed.
#[derive(Debug, Default)]
struct Index {
    slots: Vec<Slot>,
    by_key: HashMap<Key, u32>,
    order: BTreeMap<Key, u32>,
}

impl Index {
    fn id(&self, key: &Key) -> Option<usize> {
        self.by_key.get(key).map(|&id| id as usize)
    }

    /// Adds a key never seen before; returns its slot id.
    fn create(&mut self, key: Key, slot: Slot) -> usize {
        let id = self.slots.len();
        self.slots.push(slot);
        self.by_key.insert(key.clone(), id as u32);
        self.order.insert(key, id as u32);
        id
    }

    /// `(key, slot)` pairs in `range`, in key order.
    fn walk<'a>(&'a self, range: KeyRange<'_>) -> impl Iterator<Item = (&'a Key, &'a Slot)> + 'a {
        range
            .bounds()
            .map(|bounds| self.order.range::<Key, _>(bounds))
            .into_iter()
            .flatten()
            .map(|(key, &id)| (key, &self.slots[id as usize]))
    }
}

/// The append-only segments and their byte accounting.
#[derive(Debug, Default)]
struct Segments {
    segs: Vec<Enc>,
    live_bytes: usize,
    dead_bytes: usize,
}

impl Segments {
    fn bytes(&self, at: EntryRef) -> &[u8] {
        &self.segs[at.seg as usize].as_slice()[at.off as usize..(at.off + at.len) as usize]
    }

    /// The segment the next entry goes to: the last one, or a fresh one
    /// once the last is full.
    fn open(&mut self) -> (u32, &mut Enc) {
        if self
            .segs
            .last()
            .is_none_or(|seg| seg.len() >= SEGMENT_BYTES)
        {
            self.segs.push(Enc::new());
        }
        let seg = self.segs.len() - 1;
        (seg as u32, &mut self.segs[seg])
    }

    /// Encodes `(key, state)` in place at the end of the open segment,
    /// superseding (dead-marking) `old`. The digest is taken from the
    /// entry's prefix as written.
    fn append(&mut self, key: &Key, rec: &AcceptorRecord, old: Option<EntryRef>) -> Spilled {
        let (seg, open) = self.open();
        let off = open.len();
        key.encode(open);
        let committed_end = rec.encode_state(open);
        let digest = record_digest(&open.as_slice()[off..committed_end]);
        let len = open.len() - off;
        if let Some(old) = old {
            self.live_bytes -= old.len as usize;
            self.dead_bytes += old.len as usize;
        }
        self.live_bytes += len;
        let at = EntryRef {
            seg,
            off: off as u32,
            len: len as u32,
        };
        Spilled { at, digest }
    }
}

/// The log-structured engine: append-only segments + one index of
/// every key + bounded materialization cache.
///
/// Writes land in the cache; under pressure the least-recently-touched
/// half is encoded (the checkpoint codec) at the end of the open
/// segment, superseding any older entry for the same key. Reads hit the
/// cache or transiently decode the indexed entry. Compaction copies
/// every live entry forward into fresh segments once dead bytes
/// outweigh live ones, in key order so the rewrite is deterministic.
pub struct LogStructuredBackend {
    replication: usize,
    fast_quorum: usize,
    max_instance_options: usize,
    catalog: Arc<Catalog>,
    cache_cap: usize,
    index: Index,
    /// Slot ids of the hot records, in no particular order: what
    /// eviction ranks, without a pass over every slot.
    hot: Vec<u32>,
    log: Segments,
    clock: u64,
    compactions: u64,
    evictions: u64,
}

impl fmt::Debug for LogStructuredBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogStructuredBackend")
            .field("records", &self.len())
            .field("cached", &self.hot.len())
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
            index: Index::default(),
            hot: Vec::new(),
            log: Segments::default(),
            clock: 0,
            compactions: 0,
            evictions: 0,
        }
    }

    fn touch(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Decodes a segment entry into a fresh record.
    fn materialize(&self, key: &Key, at: EntryRef) -> AcceptorRecord {
        let mut dec = Dec::new(self.log.bytes(at));
        let state = Key::decode(&mut dec)
            .and_then(|_| AcceptorState::decode(&mut dec))
            .expect("segment entries decode: the engine wrote them");
        AcceptorRecord::from_state(
            self.catalog.constraints_for(key),
            self.replication,
            self.fast_quorum,
            self.max_instance_options,
            state,
        )
    }

    /// Caches a materialized record — in slot `id`, or in a new slot for
    /// a key never seen — then spills if the cache is over its cap.
    fn make_hot(&mut self, id: Option<usize>, cached: Cached) {
        let id = match id {
            Some(id) => {
                self.index.slots[id] = Slot::Hot(Box::new(cached));
                id
            }
            None => {
                let key = cached.key.clone();
                self.index.create(key, Slot::Hot(Box::new(cached)))
            }
        };
        self.hot.push(id as u32);
        if self.hot.len() > self.cache_cap {
            self.evict_lru_half();
        }
    }

    /// Spills the least-recently-touched half of the cache into
    /// segments. Eviction order is the touch-stamp order — a pure
    /// function of the access history, so runs are deterministic.
    fn evict_lru_half(&mut self) {
        let slots = &self.index.slots;
        let mut order: Vec<(u64, u32)> = self
            .hot
            .iter()
            .filter_map(|&id| match &slots[id as usize] {
                Slot::Hot(cached) => Some((cached.touch, id)),
                Slot::Spilled(_) => None,
            })
            .collect();
        order.sort_unstable();
        let evict = order.len().div_ceil(2);
        self.hot = order[evict..].iter().map(|&(_, id)| id).collect();
        for &(_, id) in &order[..evict] {
            let id = id as usize;
            let Slot::Hot(cached) = &self.index.slots[id] else {
                continue;
            };
            let spilled = self.log.append(&cached.key, &cached.rec, cached.stale);
            self.index.slots[id] = Slot::Spilled(spilled);
            self.evictions += 1;
            self.maybe_compact();
        }
    }

    /// Copy-forward compaction: rewrite live entries once dead bytes
    /// outweigh live ones.
    fn maybe_compact(&mut self) {
        if self.log.dead_bytes <= self.log.live_bytes || self.log.dead_bytes < COMPACT_FLOOR_BYTES {
            return;
        }
        self.compact();
    }

    /// Unconditional copy-forward rewrite (tests and benches call this
    /// directly; live code goes through the dead-byte trigger).
    pub fn compact(&mut self) {
        let mut fresh = Segments {
            live_bytes: self.log.live_bytes,
            ..Segments::default()
        };
        let Index { slots, order, .. } = &mut self.index;
        for &id in order.values() {
            let Some(at) = slots[id as usize].entry_mut() else {
                continue;
            };
            let (seg, open) = fresh.open();
            let off = open.len() as u32;
            open.bytes(self.log.bytes(*at));
            *at = EntryRef { seg, off, ..*at };
        }
        self.log = fresh;
        self.compactions += 1;
    }
}

impl Storage for LogStructuredBackend {
    fn insert(&mut self, key: Key, rec: AcceptorRecord) {
        let touch = self.touch();
        match self.index.id(&key) {
            Some(id) => match &mut self.index.slots[id] {
                Slot::Hot(cached) => {
                    cached.rec = rec;
                    cached.touch = touch;
                }
                Slot::Spilled(spilled) => {
                    let stale = Some(spilled.at);
                    self.make_hot(Some(id), Cached::new(key, rec, touch, stale));
                }
            },
            None => self.make_hot(None, Cached::new(key, rec, touch, None)),
        }
    }

    fn read(&self, key: &Key, f: &mut dyn FnMut(&AcceptorRecord)) -> bool {
        let Some(id) = self.index.id(key) else {
            return false;
        };
        match &self.index.slots[id] {
            Slot::Hot(cached) => f(&cached.rec),
            Slot::Spilled(spilled) => f(&self.materialize(key, spilled.at)),
        }
        true
    }

    fn update(
        &mut self,
        key: &Key,
        make: &mut dyn FnMut() -> AcceptorRecord,
        f: &mut dyn FnMut(&mut AcceptorRecord),
    ) {
        let touch = self.touch();
        match self.index.id(key) {
            Some(id) => match &mut self.index.slots[id] {
                Slot::Hot(cached) => {
                    cached.touch = touch;
                    f(&mut cached.rec);
                }
                Slot::Spilled(spilled) => {
                    let at = spilled.at;
                    let mut rec = self.materialize(key, at);
                    f(&mut rec);
                    self.make_hot(Some(id), Cached::new(key.clone(), rec, touch, Some(at)));
                }
            },
            None => {
                let mut rec = make();
                f(&mut rec);
                self.make_hot(None, Cached::new(key.clone(), rec, touch, None));
            }
        }
    }

    fn len(&self) -> usize {
        self.index.slots.len()
    }

    fn keys_sorted(&self) -> Vec<Key> {
        self.index.order.keys().cloned().collect()
    }

    fn for_each_in(&self, range: KeyRange<'_>, f: &mut dyn FnMut(&Key, &AcceptorRecord)) {
        for (key, slot) in self.index.walk(range) {
            match slot {
                Slot::Hot(cached) => f(key, &cached.rec),
                Slot::Spilled(spilled) => f(key, &self.materialize(key, spilled.at)),
            }
        }
    }

    fn digests_in<'a>(
        &'a self,
        range: KeyRange<'_>,
    ) -> Box<dyn Iterator<Item = (&'a Key, u64)> + 'a> {
        let mut scratch = Enc::new();
        Box::new(self.index.walk(range).map(move |(key, slot)| match slot {
            Slot::Hot(cached) => (key, cached.digest(&mut scratch)),
            Slot::Spilled(spilled) => (key, spilled.digest),
        }))
    }

    fn encode_records(&self, out: &mut Enc) {
        // A segment entry *is* `key.encode(); state.encode()` — the
        // element layout of the checkpoint's record list — so a spilled
        // record is copied, not decoded and re-encoded.
        out.u32(self.len() as u32);
        for (key, slot) in self.index.walk(KeyRange::All) {
            match slot {
                Slot::Hot(cached) => {
                    key.encode(out);
                    cached.rec.encode_state(out);
                }
                Slot::Spilled(spilled) => out.bytes(self.log.bytes(spilled.at)),
            }
        }
    }

    fn materialized(&self) -> usize {
        self.hot.len()
    }

    fn engine_stats(&self) -> EngineStats {
        EngineStats {
            live_bytes: self.log.live_bytes,
            dead_bytes: self.log.dead_bytes,
            segments: self.log.segs.len(),
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

    fn digests(backend: &dyn Storage, range: KeyRange<'_>) -> Vec<(Key, u64)> {
        backend
            .digests_in(range)
            .map(|(k, h)| (k.clone(), h))
            .collect()
    }

    /// A spilled record's digest is taken from its segment entry as it
    /// is written; a cached one is computed from the record. Both must
    /// be the in-memory backend's digest of the same record — through
    /// rewrites, evictions, a compaction, and bounded walks.
    #[test]
    fn digests_agree_across_backends_hot_spilled_and_compacted() {
        let cat = catalog();
        let mut mem = MemBackend::new();
        let mut log = small_cache_engine(4);
        for round in 0..3 {
            for i in (0..24).rev() {
                let k = key(i);
                mem.insert(k.clone(), record(&cat, &k, round * 100 + i as i64));
                log.insert(k.clone(), record(&cat, &k, round * 100 + i as i64));
            }
        }
        assert!(log.engine_stats().dead_bytes > 0);
        assert_eq!(digests(&mem, KeyRange::All), digests(&log, KeyRange::All));
        log.compact();
        assert_eq!(digests(&mem, KeyRange::All), digests(&log, KeyRange::All));
        let (lo, hi) = (key(5), key(11));
        let within = digests(&log, KeyRange::Within(&lo, &hi));
        assert_eq!(within, digests(&mem, KeyRange::Within(&lo, &hi)));
        assert_eq!(within.len(), 7);
        assert!(digests(&log, KeyRange::Within(&hi, &lo)).is_empty());
        let mut walked = Vec::new();
        log.for_each_in(KeyRange::Within(&lo, &hi), &mut |k, _| {
            walked.push(k.clone())
        });
        assert_eq!(walked, (5..=11).map(key).collect::<Vec<_>>());
    }

    /// A cached record's digest is remembered per touch stamp: a walk
    /// after a mutation sees the new state.
    #[test]
    fn a_mutated_cached_record_is_digested_afresh() {
        let cat = catalog();
        let mut log = small_cache_engine(8);
        let k = key(0);
        log.insert(k.clone(), record(&cat, &k, 1));
        let before = digests(&log, KeyRange::All);
        assert_eq!(
            before,
            digests(&log, KeyRange::All),
            "stable while untouched"
        );
        let fresh = record(&cat, &k, 2);
        log.update(&k, &mut || unreachable!("record exists"), &mut |r| {
            *r = fresh.clone()
        });
        let mut scratch = Enc::new();
        let mut expected = 0;
        log.read(&k, &mut |r| expected = digest_record(&k, r, &mut scratch));
        assert_eq!(digests(&log, KeyRange::All), vec![(k, expected)]);
        assert_ne!(before[0].1, expected);
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
