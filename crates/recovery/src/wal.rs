//! The write-ahead log: framed command records, append and replay.
//!
//! The WAL is a *command log*: every state-changing input a storage node
//! handles (bulk load, Phase1a, fast proposal, classic Phase2a,
//! visibility, peer sync) is framed and appended to the node's simulated
//! disk **before** the in-memory store applies it. Because every one of
//! those operations is a deterministic function of (current state,
//! input), replaying the log from the last checkpoint reconstructs the
//! exact pre-crash state — the property §3.2.3 relies on when it claims
//! any node can rebuild a transaction from its log of learned options.
//!
//! Frame format: `[len: u32][checksum: u32][payload: len bytes]`, with an
//! FNV-1a checksum over the payload. A torn or corrupt tail fails decode
//! cleanly rather than poisoning recovery.

use mdcc_common::wire::{frame, read_frames, WireResult};
use mdcc_common::{wire, Key, Row, SimTime, TxnId};
use mdcc_paxos::acceptor::Phase2a;
use mdcc_paxos::{Ballot, RecordSnapshot, Resolution, TxnOption, TxnOutcome};
use mdcc_sim::Disk;
use mdcc_storage::RecordStore;

/// One durable command. Replay applies these through the same
/// [`RecordStore`] entry points the live node used.
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// Bulk load of one record at start-up (initial data distribution).
    Load {
        /// Record loaded.
        key: Key,
        /// Initial row.
        row: Row,
    },
    /// A Phase1a promise request was processed.
    Phase1a {
        /// Record concerned.
        key: Key,
        /// Ballot promised (or at least offered).
        ballot: Ballot,
    },
    /// A fast-ballot proposal was processed.
    FastPropose {
        /// When it was processed (drives pending-option timestamps).
        at: SimTime,
        /// The proposal.
        opt: TxnOption,
    },
    /// A classic Phase2a was processed.
    ClassicAccept {
        /// When it was processed.
        at: SimTime,
        /// Record concerned.
        key: Key,
        /// The payload as it was judged: the lean broadcast, or the
        /// answer that carried the snapshot the record caught up from
        /// (a Phase2a the node only asked about is not logged).
        payload: Box<Phase2a>,
    },
    /// A transaction outcome (Visibility) was applied.
    Visibility {
        /// When it was applied.
        at: SimTime,
        /// Record concerned.
        key: Key,
        /// Resolved transaction.
        txn: TxnId,
        /// Commit or abort.
        outcome: TxnOutcome,
        /// Learned status of this record's option.
        learned_accepted: bool,
    },
    /// A peer-sync catch-up was applied (anti-entropy after restart).
    Sync {
        /// When it was applied.
        at: SimTime,
        /// Record concerned.
        key: Key,
        /// Peer's committed state.
        snapshot: RecordSnapshot,
        /// Peer's resolved options of the current instance.
        resolved: Vec<(TxnOption, Resolution)>,
    },
    /// A mastership lease grant raised the shard-wide Phase1 promise
    /// floor (lease-carried Phase1). Not replayed into the store —
    /// floors apply lazily per record — but folded back into the node's
    /// enforcement table on restart so its quorum-intersection fencing
    /// survives the crash. Raw fields, so recovery needs no dependency
    /// on the mastership crate.
    LeaseFloor {
        /// Shard whose promise floor rose.
        shard: u32,
        /// Lease ballot number.
        n: u32,
        /// Lease holder's pid.
        pid: u64,
    },
}

wire!(enum WalRecord, "wal-record tag" {
    0 => Load { key, row },
    1 => Phase1a { key, ballot },
    2 => FastPropose { at, opt },
    3 => ClassicAccept { at, key, payload },
    4 => Visibility { at, key, txn, outcome, learned_accepted },
    5 => Sync { at, key, snapshot, resolved },
    6 => LeaseFloor { shard, n, pid },
    // Tag 7 (a per-record lease override) is retired, not reused.
});

/// Frames one record (`[len][checksum][payload]`, the shared framing of
/// [`mdcc_common::wire`]) and appends it to `disk`'s WAL area. Whether
/// the frame is durable at once or awaits a covering group fsync is the
/// simulator's write-back model ([`Disk::fsync`]), not the log's.
pub fn append(disk: &mut Disk, record: &WalRecord) {
    disk.append_wal(&frame(record));
}

/// Parses every framed record in `wal`, oldest first, verifying
/// checksums.
pub fn read_all(wal: &[u8]) -> WireResult<Vec<WalRecord>> {
    read_frames(wal)
}

/// Counters from one replay pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Records applied.
    pub applied: u64,
}

/// Re-applies `records` to `store` through the same entry points the
/// live node used. Replaying a log the store has (partially) seen is
/// harmless: every entry point is idempotent under re-delivery.
pub fn replay(store: &mut RecordStore, records: &[WalRecord]) -> ReplayStats {
    let mut stats = ReplayStats::default();
    for record in records {
        match record.clone() {
            WalRecord::Load { key, row } => store.load(key, row),
            WalRecord::Phase1a { key, ballot } => {
                let _ = store.phase1a(&key, ballot);
            }
            WalRecord::FastPropose { at, opt } => {
                let _ = store.fast_propose(opt, at);
            }
            WalRecord::ClassicAccept { at, key, payload } => {
                let _ = store.classic_accept(&key, *payload, at);
            }
            WalRecord::Visibility {
                key,
                txn,
                outcome,
                learned_accepted,
                ..
            } => {
                let _ = store.apply_visibility(&key, txn, outcome, learned_accepted);
            }
            WalRecord::Sync {
                key,
                snapshot,
                resolved,
                ..
            } => {
                let _ = store.sync_from_peer(&key, &snapshot, &resolved);
            }
            // Lease floors are not record-store state: they live in the
            // node's mastership layer and re-apply lazily per record.
            // `recovered_lease_state` folds them out of the log.
            WalRecord::LeaseFloor { .. } => {}
        }
        stats.applied += 1;
    }
    stats
}

/// Lease-floor state folded out of a WAL: the maximum `(n, pid)` floor
/// per shard, the highest lease ballot the node granted. The restarting
/// node seeds its mastership layer with it, so it never grants at or
/// below it again and a deposed predecessor's ballots stay fenced across
/// its crash (its own serving rights stay quarantined for a lease).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveredLeases {
    /// Per-shard base floors `(shard, (n, pid))`, sorted by shard.
    pub floors: Vec<(u32, (u32, u64))>,
}

/// Extracts [`RecoveredLeases`] from replayed WAL records.
pub fn recovered_lease_state(records: &[WalRecord]) -> RecoveredLeases {
    use std::collections::BTreeMap;
    let mut floors: BTreeMap<u32, (u32, u64)> = BTreeMap::new();
    for record in records {
        if let WalRecord::LeaseFloor { shard, n, pid } = *record {
            let slot = floors.entry(shard).or_default();
            *slot = (*slot).max((n, pid));
        }
    }
    RecoveredLeases {
        floors: floors.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::wire::{Enc, Wire};
    use mdcc_common::{CommutativeUpdate, NodeId, ProtocolConfig, TableId, UpdateOp};
    use mdcc_storage::Catalog;
    use std::sync::Arc;

    fn key(pk: &str) -> Key {
        Key::new(TableId(0), pk)
    }

    fn sample_records() -> Vec<WalRecord> {
        let opt = TxnOption::solo(
            TxnId::new(NodeId(1), 4),
            key("a"),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
        );
        vec![
            WalRecord::Load {
                key: key("a"),
                row: Row::new().with("stock", 5),
            },
            WalRecord::FastPropose {
                at: SimTime::from_millis(3),
                opt,
            },
            WalRecord::Visibility {
                at: SimTime::from_millis(9),
                key: key("a"),
                txn: TxnId::new(NodeId(1), 4),
                outcome: TxnOutcome::Committed,
                learned_accepted: true,
            },
        ]
    }

    #[test]
    fn frames_round_trip_through_a_disk() {
        let mut disk = Disk::new();
        let records = sample_records();
        for r in &records {
            append(&mut disk, r);
        }
        let back = read_all(disk.wal()).expect("parse");
        assert_eq!(back.len(), records.len());
        assert_eq!(
            format!("{back:?}"),
            format!("{records:?}"),
            "decoded records equal the appended ones"
        );
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let mut disk = Disk::new();
        append(&mut disk, &sample_records()[0]);
        let mut bytes = disk.wal().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(read_all(&bytes).is_err(), "checksum catches the flip");
        bytes.truncate(bytes.len() - 2);
        assert!(read_all(&bytes).is_err(), "torn tail detected");
    }

    #[test]
    fn replay_restores_the_cstruct_epoch() {
        // Delta votes reference positions within a cstruct *epoch*; the
        // epoch advances inside the input-processing entry points
        // (aborts remove entries and bump it), so a command-log replay
        // must land on the same value — a regressed epoch after a
        // restart would make receivers discard the node's fresh votes
        // as stale and stall learning until read-repair.
        let catalog = Arc::new(Catalog::new());
        let mut live = RecordStore::new(ProtocolConfig::default(), Arc::clone(&catalog));
        let mut records = vec![WalRecord::Load {
            key: key("a"),
            row: Row::new().with("stock", 50),
        }];
        for seq in 0..3 {
            records.push(WalRecord::FastPropose {
                at: SimTime::from_millis(seq),
                opt: TxnOption::solo(
                    TxnId::new(NodeId(1), seq),
                    key("a"),
                    UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
                ),
            });
        }
        // An abort removes its entry, bumping the cstruct epoch…
        records.push(WalRecord::Visibility {
            at: SimTime::from_millis(9),
            key: key("a"),
            txn: TxnId::new(NodeId(1), 2),
            outcome: TxnOutcome::Aborted,
            learned_accepted: false,
        });
        // …and a further proposal extends the new epoch.
        records.push(WalRecord::FastPropose {
            at: SimTime::from_millis(12),
            opt: TxnOption::solo(
                TxnId::new(NodeId(1), 3),
                key("a"),
                UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
            ),
        });
        replay(&mut live, &records);

        let mut rebuilt = RecordStore::new(ProtocolConfig::default(), Arc::clone(&catalog));
        replay(&mut rebuilt, &records);

        // Both process the same next proposal: the emitted votes must
        // carry identical epochs and delta positions.
        let next = TxnOption::solo(
            TxnId::new(NodeId(1), 9),
            key("a"),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
        );
        let at = SimTime::from_millis(20);
        let (live_vote, rebuilt_vote) = match (
            live.fast_propose(next.clone(), at),
            rebuilt.fast_propose(next, at),
        ) {
            (
                mdcc_paxos::acceptor::FastPropose::Vote(a),
                mdcc_paxos::acceptor::FastPropose::Vote(b),
            ) => (a, b),
            other => panic!("expected votes, got {other:?}"),
        };
        assert_eq!(live_vote.epoch, rebuilt_vote.epoch);
        assert!(
            live_vote.epoch > 0,
            "the abort should have bumped the epoch"
        );
        assert_eq!(
            mdcc_common::wire::to_bytes(&live_vote.cstruct),
            mdcc_common::wire::to_bytes(&rebuilt_vote.cstruct),
            "replayed cstruct must be byte-identical"
        );
    }

    #[test]
    fn lease_records_round_trip_and_fold() {
        let mut disk = Disk::new();
        let records = vec![
            WalRecord::LeaseFloor {
                shard: 2,
                n: 3,
                pid: 14,
            },
            // A later, higher floor, a lower (stale) one, another shard's.
            WalRecord::LeaseFloor {
                shard: 2,
                n: 7,
                pid: 9,
            },
            WalRecord::LeaseFloor {
                shard: 2,
                n: 5,
                pid: 99,
            },
            WalRecord::LeaseFloor {
                shard: 0,
                n: 1,
                pid: 3,
            },
        ];
        for r in &records {
            append(&mut disk, r);
        }
        let back = read_all(disk.wal()).expect("parse");
        assert_eq!(format!("{back:?}"), format!("{records:?}"));
        // Replay ignores them at the store level...
        let catalog = Arc::new(Catalog::new());
        let mut store = RecordStore::new(ProtocolConfig::default(), Arc::clone(&catalog));
        let stats = replay(&mut store, &back);
        assert_eq!(stats.applied, 4);
        assert!(store.keys().is_empty());
        // ...while the fold keeps the per-shard maxima.
        let leases = recovered_lease_state(&back);
        assert_eq!(leases.floors, vec![(0, (1, 3)), (2, (7, 9))]);
    }

    #[test]
    fn record_bytes_are_pinned() {
        // The samples and one record of each other variant, as one
        // FNV-1a/64 digest of their encodings back to back.
        let opt = TxnOption::solo(
            TxnId::new(NodeId(2), 8),
            key("b"),
            UpdateOp::ReadGuard(mdcc_common::Version(3)),
        );
        let snapshot = RecordSnapshot {
            version: mdcc_common::Version(3),
            value: Some(Row::new().with("stock", 2)),
            folded: vec![TxnId::new(NodeId(1), 1)],
        };
        let mut records = sample_records();
        records.extend([
            WalRecord::Phase1a {
                key: key("b"),
                ballot: Ballot::classic(3, NodeId(1)),
            },
            WalRecord::ClassicAccept {
                at: SimTime::from_millis(40),
                key: key("b"),
                payload: Box::new(Phase2a {
                    ballot: Ballot::classic(3, NodeId(1)),
                    version: mdcc_common::Version(3),
                    snapshot: Some(snapshot.clone()),
                    base: mdcc_paxos::acceptor::Base::Held,
                    new_options: vec![opt.clone()],
                    close_instance: true,
                    reopen_fast: Some(Ballot::fast(4, NodeId(1))),
                }),
            },
            WalRecord::Sync {
                at: SimTime::from_millis(700),
                key: key("b"),
                snapshot,
                resolved: vec![(
                    opt,
                    Resolution {
                        outcome: TxnOutcome::Aborted,
                        learned_accepted: false,
                    },
                )],
            },
            WalRecord::LeaseFloor {
                shard: 2,
                n: 200,
                pid: 14,
            },
        ]);
        let bytes: Vec<u8> = records
            .iter()
            .flat_map(mdcc_common::wire::to_bytes)
            .collect();
        let digest = mdcc_common::wire::fnv1a64(&bytes);
        assert_eq!(digest, 0x013a_51f5_73bf_4f94, "{digest:#018x}");
    }

    #[test]
    fn retired_tags_decode_to_an_error() {
        // 7 was a per-record lease override; a log still holding one
        // gets `Err`, not a panic or another record.
        let mut bytes = Enc::new();
        7u64.encode(&mut bytes);
        2u32.encode(&mut bytes); // shard
        0xfeed_u64.encode(&mut bytes); // record id
        5u32.encode(&mut bytes); // ballot number
        14u64.encode(&mut bytes); // pid
        let bytes = bytes.finish();
        assert!(mdcc_common::wire::from_bytes::<WalRecord>(&bytes).is_err());
    }

    #[test]
    fn replay_reconstructs_store_state() {
        let catalog = Arc::new(Catalog::new());
        let mut store = RecordStore::new(ProtocolConfig::default(), Arc::clone(&catalog));
        replay(&mut store, &sample_records());
        let (version, row) = store.read_committed(&key("a")).expect("record exists");
        assert_eq!(version.0, 1);
        assert_eq!(
            row.get_int("stock"),
            Some(4),
            "delta committed during replay"
        );
        assert_eq!(store.pending_len(), 0);
    }
}
