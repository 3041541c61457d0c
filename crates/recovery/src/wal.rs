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

use mdcc_common::wire::{read_frames, Dec, Enc, Wire, WireError, WireResult};
use mdcc_common::{Key, Row, SimTime, TxnId};
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

impl Wire for WalRecord {
    fn encode(&self, out: &mut Enc) {
        match self {
            WalRecord::Load { key, row } => {
                0u64.encode(out);
                key.encode(out);
                row.encode(out);
            }
            WalRecord::Phase1a { key, ballot } => {
                1u64.encode(out);
                key.encode(out);
                ballot.encode(out);
            }
            WalRecord::FastPropose { at, opt } => {
                2u64.encode(out);
                at.encode(out);
                opt.encode(out);
            }
            WalRecord::ClassicAccept { at, key, payload } => {
                3u64.encode(out);
                at.encode(out);
                key.encode(out);
                payload.as_ref().encode(out);
            }
            WalRecord::Visibility {
                at,
                key,
                txn,
                outcome,
                learned_accepted,
            } => {
                4u64.encode(out);
                at.encode(out);
                key.encode(out);
                txn.encode(out);
                outcome.encode(out);
                learned_accepted.encode(out);
            }
            WalRecord::Sync {
                at,
                key,
                snapshot,
                resolved,
            } => {
                5u64.encode(out);
                at.encode(out);
                key.encode(out);
                snapshot.encode(out);
                resolved.encode(out);
            }
            WalRecord::LeaseFloor { shard, n, pid } => {
                6u64.encode(out);
                shard.encode(out);
                n.encode(out);
                pid.encode(out);
            } // Tag 7 (a per-record lease override) is retired, not
              // reused.
        }
    }

    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        match u64::decode(inp)? {
            0 => Ok(WalRecord::Load {
                key: Key::decode(inp)?,
                row: Row::decode(inp)?,
            }),
            1 => Ok(WalRecord::Phase1a {
                key: Key::decode(inp)?,
                ballot: Ballot::decode(inp)?,
            }),
            2 => Ok(WalRecord::FastPropose {
                at: SimTime::decode(inp)?,
                opt: TxnOption::decode(inp)?,
            }),
            3 => Ok(WalRecord::ClassicAccept {
                at: SimTime::decode(inp)?,
                key: Key::decode(inp)?,
                payload: Box::new(Phase2a::decode(inp)?),
            }),
            4 => Ok(WalRecord::Visibility {
                at: SimTime::decode(inp)?,
                key: Key::decode(inp)?,
                txn: TxnId::decode(inp)?,
                outcome: TxnOutcome::decode(inp)?,
                learned_accepted: bool::decode(inp)?,
            }),
            5 => Ok(WalRecord::Sync {
                at: SimTime::decode(inp)?,
                key: Key::decode(inp)?,
                snapshot: RecordSnapshot::decode(inp)?,
                resolved: Vec::decode(inp)?,
            }),
            6 => Ok(WalRecord::LeaseFloor {
                shard: u32::decode(inp)?,
                n: u32::decode(inp)?,
                pid: u64::decode(inp)?,
            }),
            _ => Err(WireError {
                context: "wal-record tag",
            }),
        }
    }
}

/// Frames one record (`[len][checksum][payload]`) into bytes, using the
/// shared framing of [`mdcc_common::wire`].
pub fn frame(record: &WalRecord) -> Vec<u8> {
    mdcc_common::wire::frame(record)
}

/// Where framed WAL records land. The storage node's live path appends
/// to its simulated [`Disk`]; tests and benches can use a [`MemLog`]
/// without standing up a world. The trait deliberately says nothing
/// about durability timing — whether an appended frame is synchronously
/// durable or awaits a covering group fsync is the simulator's
/// write-back model ([`Disk::fsync`]), not the log's.
pub trait CommitLog {
    /// Appends one already-framed record.
    fn append_frame(&mut self, frame: &[u8]);
    /// Every appended byte, oldest first.
    fn frames(&self) -> &[u8];
}

impl CommitLog for Disk {
    fn append_frame(&mut self, frame: &[u8]) {
        self.append_wal(frame);
    }

    fn frames(&self) -> &[u8] {
        self.wal()
    }
}

/// An in-memory commit log: a plain byte buffer (tests, benches).
#[derive(Debug, Clone, Default)]
pub struct MemLog {
    bytes: Vec<u8>,
}

impl MemLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CommitLog for MemLog {
    fn append_frame(&mut self, frame: &[u8]) {
        self.bytes.extend_from_slice(frame);
    }

    fn frames(&self) -> &[u8] {
        &self.bytes
    }
}

/// Appends one framed record to `log` (usually a node's [`Disk`] WAL
/// area).
pub fn append<L: CommitLog + ?Sized>(log: &mut L, record: &WalRecord) {
    log.append_frame(&frame(record));
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
            // node's enforcement table and re-apply lazily per record.
            // `recovered_lease_state` folds them out of the log.
            WalRecord::LeaseFloor { .. } => {}
        }
        stats.applied += 1;
    }
    stats
}

/// Lease-floor state folded out of a WAL: the maximum `(n, pid)` floor
/// per shard, exactly what the restarting node must re-enforce so a deposed predecessor's
/// ballots stay fenced across its crash (the mastership lease table
/// itself stays quarantined — this is acceptor-side state only).
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
