//! The per-node record store: key → acceptor state, plus bookkeeping.

use std::collections::BTreeMap;
use std::sync::Arc;

use mdcc_common::config::DANGLING_TIMEOUT;
use mdcc_common::wire::{Enc, Wire};
use mdcc_common::{Key, ProtocolConfig, Row, SimTime, TxnId, Version};
use mdcc_paxos::acceptor::{ClassicAccept, FastPropose, Phase1b, Phase2a};
use mdcc_paxos::{
    AcceptorRecord, AcceptorState, Ballot, OptionStatus, RecordSnapshot, Resolution, TxnOption,
    TxnOutcome,
};

use crate::engine::{backend_for, EngineStats, KeyRange, Storage};
use crate::schema::Catalog;

/// The full durable state of a [`RecordStore`], exported for checkpoints
/// and re-imported on node restart. Collections are sorted so two equal
/// stores export identically.
#[derive(Debug)]
pub struct StoreState {
    /// Per-record acceptor state, sorted by key.
    pub records: Vec<(Key, AcceptorState)>,
    /// Outstanding (accepted, unresolved) transactions, sorted by id.
    pub pending: Vec<PendingTxn>,
}

/// One record's worth of anti-entropy payload: its committed snapshot
/// plus the resolved options a peer would need to catch up.
#[derive(Debug, Clone)]
pub struct SyncItem {
    /// The record.
    pub key: Key,
    /// The sender's committed state for it.
    pub snapshot: RecordSnapshot,
    /// Resolved options of the sender's current instance plus its
    /// closed-instance ring (see [`mdcc_paxos::AcceptorRecord::sync_payload`]).
    pub resolved: Vec<(TxnOption, Resolution)>,
}

/// A contiguous key range of a store with a digest of its sync-relevant
/// state — one leaf of the merkle-style comparison that lets a restarted
/// node skip ranges where it already agrees with its peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncRange {
    /// Smallest key in the range (inclusive).
    pub lo: Key,
    /// Largest key in the range (inclusive).
    pub hi: Key,
    /// Digest of the **committed projection** `(key, version, value)` of
    /// every key the sender holds in `[lo, hi]`: the wrapping sum of one
    /// per-record digest each, so equal record sets give equal digests
    /// whatever order they are added in. See
    /// [`RecordStore::sync_digest_in`] for why that is safe and why the
    /// digest deliberately excludes resolution metadata.
    pub digest: u64,
}

/// A transaction with an outstanding (accepted, unresolved) option on this
/// node — the raw material of dangling-transaction detection (§3.2.3).
#[derive(Debug, Clone)]
pub struct PendingTxn {
    /// The transaction.
    pub txn: TxnId,
    /// When this node accepted the option.
    pub since: SimTime,
    /// All keys of the transaction's write-set (from the option).
    pub peers: Arc<[Key]>,
}

/// All records a storage node is responsible for.
#[derive(Debug)]
pub struct RecordStore {
    cfg: ProtocolConfig,
    catalog: Arc<Catalog>,
    /// Where record bytes live — [`crate::engine::MemBackend`] or
    /// [`crate::engine::LogStructuredBackend`], chosen by
    /// `cfg.storage`. Both round-trip logical record state exactly, so
    /// the choice is invisible on the wire and in the WAL.
    records: Box<dyn Storage>,
    /// txn → (first-accept time, peers). Ordered so that dangling
    /// sweeps emit recovery traffic deterministically.
    pending: BTreeMap<TxnId, PendingTxn>,
}

/// The record a key's first mutation starts from.
fn blank_record(cfg: &ProtocolConfig, catalog: &Catalog, key: &Key) -> AcceptorRecord {
    AcceptorRecord::new(
        catalog.constraints_for(key),
        cfg.replication,
        cfg.fast_quorum,
        cfg.max_instance_options,
    )
}

impl RecordStore {
    /// An empty store for the given schema and protocol config.
    pub fn new(cfg: ProtocolConfig, catalog: Arc<Catalog>) -> Self {
        let records = backend_for(&cfg, &catalog);
        Self {
            cfg,
            catalog,
            records,
            pending: BTreeMap::new(),
        }
    }

    /// Bulk-loads a record as already committed at version 1 (initial data
    /// distribution; every replica loads the same rows).
    pub fn load(&mut self, key: Key, row: Row) {
        let constraints = self.catalog.constraints_for(&key);
        let rec = AcceptorRecord::with_value(
            constraints,
            self.cfg.replication,
            self.cfg.fast_quorum,
            self.cfg.max_instance_options,
            row,
        );
        self.records.insert(key, rec);
    }

    /// Number of materialized records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no record was ever touched.
    pub fn is_empty(&self) -> bool {
        self.records.len() == 0
    }

    /// Committed (read-committed) local read: version and value.
    /// Uncommitted options are never visible (§4.1).
    pub fn read_committed(&self, key: &Key) -> Option<(Version, Row)> {
        self.with_record(key, |rec| {
            rec.value().map(|row| (rec.version(), row.clone()))
        })
        .flatten()
    }

    /// The record's committed version even if the value is absent
    /// (deleted records report their tombstone version).
    pub fn version_of(&self, key: &Key) -> Version {
        self.with_record(key, |r| r.version())
            .unwrap_or(Version::ZERO)
    }

    /// Calls `f` with the acceptor record under `key` (tests, recovery
    /// audit, read-only message handling). `None` when the key was
    /// never touched. Access is closure-shaped rather than a returned
    /// reference because the log-structured backend materializes cold
    /// records transiently.
    pub fn with_record<R>(&self, key: &Key, f: impl FnOnce(&AcceptorRecord) -> R) -> Option<R> {
        let mut f = Some(f);
        let mut out = None;
        self.records.read(key, &mut |rec| {
            if let Some(f) = f.take() {
                out = Some(f(rec));
            }
        });
        out
    }

    /// Calls `f` with mutable access to the record under `key`,
    /// creating an absent record first.
    fn with_record_mut<R>(&mut self, key: &Key, f: impl FnOnce(&mut AcceptorRecord) -> R) -> R {
        let (cfg, catalog) = (&self.cfg, &self.catalog);
        let mut make = || blank_record(cfg, catalog, key);
        let mut f = Some(f);
        let mut out = None;
        self.records.update(key, &mut make, &mut |rec| {
            if let Some(f) = f.take() {
                out = Some(f(rec));
            }
        });
        out.expect("update invokes the access closure")
    }

    /// Phase1a for one record.
    pub fn phase1a(&mut self, key: &Key, ballot: Ballot) -> Phase1b {
        self.with_record_mut(key, |rec| rec.phase1a(ballot))
    }

    /// Raises one record's promise floor without a Phase1b (the
    /// lease-carried Phase1: a mastership lease grant stands in for the
    /// per-record Phase1a exchange). Returns whether the promise rose.
    pub fn raise_promise(&mut self, key: &Key, ballot: Ballot) -> bool {
        self.with_record_mut(key, |rec| rec.raise_promise(ballot))
    }

    /// True when `opt` read a version its record has not reached here yet
    /// ([`AcceptorRecord::behind`]; a record never touched is at version
    /// zero). Only options that carry a read version look the record up.
    pub fn behind(&self, opt: &TxnOption) -> bool {
        let Some(vread) = opt.op.read_version() else {
            return false;
        };
        self.with_record(&opt.key, |rec| rec.behind(opt))
            .unwrap_or(vread > Version::ZERO)
    }

    /// Fast-ballot proposal for one record, with pending tracking.
    pub fn fast_propose(&mut self, opt: TxnOption, now: SimTime) -> FastPropose {
        let key = opt.key.clone();
        let txn = opt.txn;
        let peers = Arc::clone(&opt.peers);
        // The decision is read off the record, not the vote: the vote
        // starts at the settled watermark and may no longer name an
        // option whose outcome overtook it.
        let (result, status) = self.with_record_mut(&key, |rec| {
            let result = rec.fast_propose(opt);
            (result, rec.cstruct().status_of(txn))
        });
        if let (FastPropose::Vote(_), Some(status)) = (&result, status) {
            self.note_decided(now, txn, status, peers);
        }
        result
    }

    /// True when `p2a` targets an instance `key`'s record has not reached
    /// here and travels without the snapshot to catch up from
    /// ([`AcceptorRecord::lacks_snapshot`], asked of the blank record
    /// [`Self::classic_accept`] would create when the key was never
    /// touched).
    pub fn lacks_snapshot(&self, key: &Key, p2a: &Phase2a) -> bool {
        self.with_record(key, |rec| rec.lacks_snapshot(p2a))
            .unwrap_or_else(|| blank_record(&self.cfg, &self.catalog, key).lacks_snapshot(p2a))
    }

    /// Classic Phase2a for one record, with pending tracking.
    pub fn classic_accept(&mut self, key: &Key, p2a: Phase2a, now: SimTime) -> ClassicAccept {
        let new_txns: Vec<(TxnId, Arc<[Key]>)> = p2a
            .new_options
            .iter()
            .map(|o| (o.txn, Arc::clone(&o.peers)))
            .collect();
        let (result, decided) = self.with_record_mut(key, |rec| {
            let result = rec.classic_accept(p2a);
            let decided: Vec<(TxnId, Arc<[Key]>, OptionStatus)> = new_txns
                .into_iter()
                .filter_map(|(txn, peers)| Some((txn, peers, rec.cstruct().status_of(txn)?)))
                .collect();
            (result, decided)
        });
        if let ClassicAccept::Vote(_) = &result {
            for (txn, peers, status) in decided {
                self.note_decided(now, txn, status, peers);
            }
        }
        result
    }

    /// Applies a transaction outcome to one record. Returns `true` when
    /// the record's instance advanced. `learned_accepted` is the globally
    /// learned status of this record's option (see
    /// [`mdcc_paxos::acceptor::Resolution`]).
    pub fn apply_visibility(
        &mut self,
        key: &Key,
        txn: TxnId,
        outcome: TxnOutcome,
        learned_accepted: bool,
    ) -> bool {
        let advanced = self.with_record_mut(key, |rec| {
            rec.apply_visibility(txn, outcome, learned_accepted)
        });
        self.pending.remove(&txn);
        advanced
    }

    /// All keys this store holds, sorted (deterministic iteration for
    /// sync sweeps and checkpoints).
    pub fn keys(&self) -> Vec<Key> {
        self.records.keys_sorted()
    }

    /// Records currently materialized in memory (the whole store under
    /// the in-memory backend; the cache under the log-structured one).
    pub fn materialized(&self) -> usize {
        self.records.materialized()
    }

    /// The storage engine's counters (segments, live/dead bytes,
    /// compactions); all-zero for the in-memory backend.
    pub fn engine_stats(&self) -> EngineStats {
        self.records.engine_stats()
    }

    /// The committed state of every record — `(key, version, value)`
    /// sorted by key. This is the paper-visible state of a storage node:
    /// the recovery audit compares it byte-for-byte across replicas.
    pub fn committed_state(&self) -> Vec<(Key, Version, Option<Row>)> {
        let mut state = Vec::with_capacity(self.len());
        self.records.for_each_in(KeyRange::All, &mut |key, rec| {
            state.push((key.clone(), rec.version(), rec.value().cloned()));
        });
        state
    }

    /// Exports the store's full durable state for a checkpoint.
    pub fn export_state(&self) -> StoreState {
        let mut records: Vec<(Key, AcceptorState)> = Vec::with_capacity(self.len());
        self.records.for_each_in(KeyRange::All, &mut |key, rec| {
            records.push((key.clone(), rec.export_state()));
        });
        StoreState {
            records,
            pending: self.pending.values().cloned().collect(),
        }
    }

    /// The checkpoint blob: exactly `to_bytes(&self.export_state())`,
    /// built without materializing the store — the backend writes its
    /// records straight into the buffer ([`Storage::encode_records`]),
    /// which for the log-structured engine copies spilled records out of
    /// their segments.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut out = Enc::new();
        self.records.encode_records(&mut out);
        out.u32(self.pending.len() as u32);
        for pending in self.pending.values() {
            pending.encode(&mut out);
        }
        out.finish()
    }

    /// Rebuilds a store from an exported state (restart path).
    pub fn from_state(cfg: ProtocolConfig, catalog: Arc<Catalog>, state: StoreState) -> Self {
        let mut store = Self::new(cfg, catalog);
        for (key, acceptor) in state.records {
            let rec = AcceptorRecord::from_state(
                store.catalog.constraints_for(&key),
                store.cfg.replication,
                store.cfg.fast_quorum,
                store.cfg.max_instance_options,
                acceptor,
            );
            store.records.insert(key, rec);
        }
        for p in state.pending {
            store.pending.insert(p.txn, p);
        }
        store
    }

    /// True when [`RecordStore::sync_from_peer`] with these arguments
    /// would change state (pre-check before WAL-logging the sync).
    pub fn sync_relevant(
        &self,
        key: &Key,
        snapshot: &RecordSnapshot,
        resolved: &[(TxnOption, Resolution)],
    ) -> bool {
        match self.with_record(key, |rec| rec.sync_would_change(snapshot, resolved)) {
            Some(would) => would,
            None => snapshot.version > Version::ZERO || !resolved.is_empty(),
        }
    }

    /// Applies a peer's committed state for one record (anti-entropy
    /// after a restart, see [`AcceptorRecord::sync_from_peer`]). Returns
    /// `true` when local state changed.
    pub fn sync_from_peer(
        &mut self,
        key: &Key,
        snapshot: &RecordSnapshot,
        resolved: &[(TxnOption, Resolution)],
    ) -> bool {
        if snapshot.version == Version::ZERO && resolved.is_empty() {
            return false;
        }
        let changed = self.with_record_mut(key, |rec| rec.sync_from_peer(snapshot, resolved));
        if changed {
            for (opt, _) in resolved {
                self.pending.remove(&opt.txn);
            }
        }
        changed
    }

    // ------------------------------------------------------------------
    // Merkle-style anti-entropy: range digests and batched payloads.
    // ------------------------------------------------------------------

    /// The anti-entropy payload for one record this store holds.
    pub fn sync_item(&self, key: &Key) -> Option<SyncItem> {
        self.with_record(key, |rec| sync_item_of(key, rec))
    }

    /// Partitions this store's keys into chunks of at most `chunk_keys`
    /// and digests each chunk's committed projection, in one ordered
    /// walk. A peer comparing these digests against its own (via
    /// [`RecordStore::divergent_ranges`]) learns exactly which ranges
    /// diverge — everything else never touches the wire.
    pub fn sync_ranges(&self, chunk_keys: usize) -> Vec<SyncRange> {
        let mut digests = self.records.digests_in(KeyRange::All);
        let mut ranges = Vec::new();
        while let Some((lo, mut digest)) = digests.next() {
            let mut hi = lo;
            for (key, h) in digests.by_ref().take(chunk_keys.max(1) - 1) {
                hi = key;
                digest = digest.wrapping_add(h);
            }
            ranges.push(SyncRange {
                lo: lo.clone(),
                hi: hi.clone(),
                digest,
            });
        }
        ranges
    }

    /// Compares a peer's advertised range digests against local state
    /// (one ordered walk of each range) and returns the `(lo, hi)`
    /// bounds whose committed projections differ — the ranges worth
    /// pulling.
    pub fn divergent_ranges(&self, ranges: &[SyncRange]) -> Vec<(Key, Key)> {
        ranges
            .iter()
            .filter(|r| self.sync_digest_in(&r.lo, &r.hi) != r.digest)
            .map(|r| (r.lo.clone(), r.hi.clone()))
            .collect()
    }

    /// Digest of the **committed projection** `(key, version, value)` of
    /// every key this store holds in `[lo, hi]`: the wrapping sum of one
    /// [`crate::engine::record_digest`] per record, over the same
    /// canonical bytes the recovery audit compares across replicas.
    /// Equal sets of records
    /// give equal sums, so two converged replicas always digest equal;
    /// the sum ignores order, which is safe because both sides digest
    /// exactly the records a range holds, and it lets a range's digest
    /// be added up from per-record values cached when records spill.
    ///
    /// Equal digests mean the range's committed states already agree;
    /// shipping it could at most transfer resolution metadata whose
    /// effects are already folded into both values (the pending-option
    /// and dangling-recovery machinery owns those leftovers, exactly as
    /// it does for the items `sync_relevant` turns away).
    pub fn sync_digest_in(&self, lo: &Key, hi: &Key) -> u64 {
        self.records
            .digests_in(KeyRange::Within(lo, hi))
            .fold(0, |sum, (_, h)| sum.wrapping_add(h))
    }

    /// The anti-entropy payloads of every key this store holds in each
    /// of the `[lo, hi]` `ranges`, one sorted batch per range.
    /// A single-key range (the targeted pull after a missed commit) is
    /// one lookup; any other walks just the keys it covers.
    pub fn sync_items_in(&self, ranges: &[(Key, Key)]) -> Vec<Vec<SyncItem>> {
        ranges
            .iter()
            .map(|(lo, hi)| {
                if lo == hi {
                    return self.sync_item(lo).into_iter().collect();
                }
                let mut items = Vec::new();
                self.records
                    .for_each_in(KeyRange::Within(lo, hi), &mut |key, rec| {
                        items.push(sync_item_of(key, rec));
                    });
                items
            })
            .collect()
    }

    /// Transactions whose options have been outstanding on this node for
    /// longer than the dangling timeout — candidates for recovery.
    pub fn dangling(&self, now: SimTime) -> Vec<PendingTxn> {
        self.pending
            .values()
            .filter(|p| now.since(p.since) >= DANGLING_TIMEOUT)
            .cloned()
            .collect()
    }

    /// All currently pending transactions (metrics/tests).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// An option this node accepted stays pending until its outcome
    /// arrives; a rejected one needs no recovery.
    fn note_decided(&mut self, now: SimTime, txn: TxnId, status: OptionStatus, peers: Arc<[Key]>) {
        if status.is_accepted() {
            self.pending.entry(txn).or_insert(PendingTxn {
                txn,
                since: now,
                peers,
            });
        }
    }
}

/// One record's anti-entropy payload.
fn sync_item_of(key: &Key, rec: &AcceptorRecord) -> SyncItem {
    SyncItem {
        key: key.clone(),
        snapshot: rec.snapshot(),
        resolved: rec.sync_payload(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::{CommutativeUpdate, NodeId, PhysicalUpdate, SimDuration, TableId, UpdateOp};
    use mdcc_paxos::AttrConstraint;

    fn catalog() -> Arc<Catalog> {
        Arc::new(
            Catalog::new().with(
                crate::schema::TableSchema::new(TableId(1), "item")
                    .with_constraint(AttrConstraint::at_least("stock", 0)),
            ),
        )
    }

    fn store() -> RecordStore {
        RecordStore::new(ProtocolConfig::default(), catalog())
    }

    fn key(pk: &str) -> Key {
        Key::new(TableId(1), pk)
    }

    fn txn(seq: u64) -> TxnId {
        TxnId::new(NodeId(0), seq)
    }

    #[test]
    fn load_and_read_committed() {
        let mut s = store();
        s.load(key("i1"), Row::new().with("stock", 7));
        let (v, row) = s.read_committed(&key("i1")).unwrap();
        assert_eq!(v, Version(1));
        assert_eq!(row.get_int("stock"), Some(7));
        assert!(s.read_committed(&key("nope")).is_none());
        assert_eq!(s.version_of(&key("nope")), Version::ZERO);
    }

    /// The log in the name is the node's WAL (`mdcc-recovery`), written
    /// before the store is called; the store's own share is the pending
    /// set.
    #[test]
    fn fast_propose_logs_and_tracks_pending() {
        let mut s = store();
        s.load(key("i1"), Row::new().with("stock", 7));
        let opt = TxnOption::solo(
            txn(1),
            key("i1"),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
        );
        let now = SimTime::from_millis(10);
        let r = s.fast_propose(opt, now);
        assert!(matches!(r, FastPropose::Vote(_)));
        assert_eq!(s.pending_len(), 1);
        // Resolution clears the pending set.
        s.apply_visibility(&key("i1"), txn(1), TxnOutcome::Committed, true);
        assert_eq!(s.pending_len(), 0);
        let (_, row) = s.read_committed(&key("i1")).unwrap();
        assert_eq!(row.get_int("stock"), Some(6));
    }

    #[test]
    fn rejected_options_do_not_become_pending() {
        let mut s = store();
        // Record does not exist: a commutative update is rejected.
        let opt = TxnOption::solo(
            txn(1),
            key("ghost"),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
        );
        let r = s.fast_propose(opt, SimTime::ZERO);
        assert!(matches!(r, FastPropose::Vote(_)));
        assert_eq!(s.pending_len(), 0);
    }

    #[test]
    fn dangling_detection_uses_timeout() {
        let mut s = store();
        s.load(key("i1"), Row::new().with("stock", 7));
        let opt = TxnOption::solo(
            txn(1),
            key("i1"),
            UpdateOp::Physical(PhysicalUpdate::write(
                Version(1),
                Row::new().with("stock", 1),
            )),
        );
        s.fast_propose(opt, SimTime::ZERO);
        let timeout = DANGLING_TIMEOUT;
        assert!(s
            .dangling(SimTime::ZERO + timeout - SimDuration::from_millis(1))
            .is_empty());
        let d = s.dangling(SimTime::ZERO + timeout);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].txn, txn(1));
        assert_eq!(&*d[0].peers, &[key("i1")]);
    }

    #[test]
    fn export_import_round_trip_is_exact() {
        let mut s = store();
        s.load(key("i1"), Row::new().with("stock", 9));
        s.load(key("i2"), Row::new().with("stock", 4));
        let now = SimTime::from_millis(5);
        s.fast_propose(
            TxnOption::solo(
                txn(1),
                key("i1"),
                UpdateOp::Commutative(CommutativeUpdate::delta("stock", -2)),
            ),
            now,
        );
        s.apply_visibility(&key("i1"), txn(1), TxnOutcome::Committed, true);
        s.fast_propose(
            TxnOption::solo(
                txn(2),
                key("i2"),
                UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
            ),
            now,
        );

        let rebuilt =
            RecordStore::from_state(ProtocolConfig::default(), catalog(), s.export_state());
        assert_eq!(rebuilt.committed_state(), s.committed_state());
        assert_eq!(rebuilt.pending_len(), s.pending_len());
        assert_eq!(
            format!("{:?}", rebuilt.export_state()),
            format!("{:?}", s.export_state()),
            "export ∘ import ∘ export is the identity"
        );
    }

    /// The checkpoint blob is built without materializing the store,
    /// and must be the bytes the materializing path produced: on the
    /// in-memory backend, and on the log-structured one holding cached
    /// records, spilled ones (copied out of their segments) and
    /// superseded segment entries (which must not be copied).
    #[test]
    fn checkpoint_bytes_equal_the_encoded_export_on_both_backends() {
        use mdcc_common::StorageKind;
        for storage in [StorageKind::Mem, StorageKind::LogStructured] {
            let cfg = ProtocolConfig {
                storage,
                log_cache_records: 3,
                ..ProtocolConfig::default()
            };
            let mut s = RecordStore::new(cfg.clone(), catalog());
            assert_eq!(
                s.checkpoint_bytes(),
                mdcc_common::wire::to_bytes(&s.export_state()),
                "{storage:?}: empty store"
            );
            for i in 0..12 {
                s.load(key(&format!("i{i:02}")), Row::new().with("stock", 50));
            }
            // Traffic that revisits records, so spilled ones come back
            // into the cache and spill again (superseding their entry),
            // with options left pending.
            for seq in 0..60u64 {
                let k = key(&format!("i{:02}", (seq * 5) % 12));
                let now = SimTime::from_millis(seq);
                s.fast_propose(
                    TxnOption::solo(
                        txn(seq),
                        k.clone(),
                        UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
                    ),
                    now,
                );
                if seq % 3 != 0 {
                    s.apply_visibility(&k, txn(seq), TxnOutcome::Committed, true);
                }
            }
            if storage == StorageKind::LogStructured {
                assert!(s.materialized() < s.len(), "some records are spilled");
                assert!(s.materialized() > 0, "some records are cached");
                assert!(s.engine_stats().dead_bytes > 0, "some entries superseded");
            }
            assert!(s.pending_len() > 0);
            let bytes = s.checkpoint_bytes();
            assert_eq!(
                bytes,
                mdcc_common::wire::to_bytes(&s.export_state()),
                "{storage:?}: checkpoint bytes differ from the encoded export"
            );
            let state: StoreState = mdcc_common::wire::from_bytes(&bytes).expect("decodes");
            let rebuilt = RecordStore::from_state(cfg, catalog(), state);
            assert_eq!(rebuilt.committed_state(), s.committed_state());
        }
    }

    /// As above: outcomes are logged by the WAL, pending is kept here.
    #[test]
    fn sync_from_peer_clears_pending_and_logs_outcomes() {
        let mut s = store();
        s.load(key("i1"), Row::new().with("stock", 9));
        let now = SimTime::from_millis(3);
        let opt = TxnOption::solo(
            txn(1),
            key("i1"),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -2)),
        );
        s.fast_propose(opt.clone(), now);
        assert_eq!(s.pending_len(), 1);
        // A peer reports the same version with the option resolved.
        let peer_snapshot = mdcc_paxos::RecordSnapshot {
            version: Version(1),
            value: Some(Row::new().with("stock", 7)),
            folded: Vec::new(),
        };
        let resolved = vec![(
            opt,
            mdcc_paxos::Resolution {
                outcome: TxnOutcome::Committed,
                learned_accepted: true,
            },
        )];
        assert!(s.sync_from_peer(&key("i1"), &peer_snapshot, &resolved));
        assert_eq!(s.pending_len(), 0, "synced resolution clears pending");
        let (_, row) = s.read_committed(&key("i1")).unwrap();
        assert_eq!(row.get_int("stock"), Some(7));
    }

    #[test]
    fn uncommitted_options_are_invisible_to_reads() {
        let mut s = store();
        s.load(key("i1"), Row::new().with("stock", 7));
        let opt = TxnOption::solo(
            txn(1),
            key("i1"),
            UpdateOp::Physical(PhysicalUpdate::write(
                Version(1),
                Row::new().with("stock", 0),
            )),
        );
        s.fast_propose(opt, SimTime::ZERO);
        let (v, row) = s.read_committed(&key("i1")).unwrap();
        assert_eq!(v, Version(1));
        assert_eq!(
            row.get_int("stock"),
            Some(7),
            "read committed, not the option"
        );
    }
}
