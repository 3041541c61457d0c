//! Protocol messages between app servers (TMs) and storage nodes, and
//! the timers each process arms for itself.
//!
//! Every [`Msg`] variant has a byte-accurate wire encoding (see
//! [`crate::wire`]); the simulator charges transmission delay, link
//! queueing and per-byte service cost for exactly those bytes. A
//! [`Tick`] never leaves its process and has no encoding.

use mdcc_common::{DcId, Key, NodeId, Row, TxnId, Version};
use mdcc_mastership::MsMsg;
use mdcc_paxos::acceptor::{Phase1a, Phase2aRounds, Phase2b, Promise, RecordSnapshot, VoteVerdict};
use mdcc_paxos::{Ballot, Proposal, TxnOutcome};
use mdcc_sim::{Ctx, TimerPayload};
use mdcc_storage::{RangePull, SyncItem, SyncRange};

/// The context of every MDCC handler: it sends [`Msg`]s, arms [`Tick`]s.
pub type MdccCtx<'a> = Ctx<'a, Msg, Tick>;

/// Groups items by the targets (nodes, shards) each is routed to: one
/// entry per target, in the order the items first name it, holding every
/// item routed there in item order — so that a handler sends each node
/// one message. An item is cloned for every target but its last.
pub fn grouped<K, T, I>(routed: impl IntoIterator<Item = (I, T)>) -> Vec<(K, Vec<T>)>
where
    K: Copy + PartialEq,
    T: Clone,
    I: IntoIterator<Item = K>,
{
    let mut groups: Vec<(K, Vec<T>)> = Vec::new();
    for (targets, item) in routed {
        let mut targets = targets.into_iter().peekable();
        let mut item = Some(item);
        while let Some(target) = targets.next() {
            let copy = match targets.peek() {
                Some(_) => item.clone(),
                None => item.take(),
            };
            let Some(copy) = copy else { break };
            match groups.iter_mut().find(|(t, _)| *t == target) {
                Some((_, items)) => items.push(copy),
                None => groups.push((target, vec![copy])),
            }
        }
    }
    groups
}

/// How an entry of a [`Msg::Verdict`] or a [`Msg::Visibility`] names
/// its record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordName {
    /// Position in the write-set (`TxnOption::peers`) of the message's
    /// transaction.
    At(u32),
    /// The record's key: for a vote no single transaction anchors, or an
    /// outcome for a node that may not hold the write-set.
    Key(Key),
}

/// What a [`Msg::Verdict`] carries: one node's verdicts on records, in
/// the order the sender judged them, each with its name and the vote
/// reduced for its destination.
#[derive(Debug, Clone)]
pub struct Verdicts {
    /// The transaction whose write-set positional entries index.
    pub txn: TxnId,
    /// Per record, its name and its verdict.
    pub records: Vec<(RecordName, VoteVerdict)>,
}

/// Everything that travels between MDCC processes: every variant crosses
/// the wire. What a process arms for itself is a [`Tick`].
#[derive(Debug, Clone)]
pub enum Msg {
    // ------------------------------------------------------------------
    // Proposals (TM → storage nodes).
    // ------------------------------------------------------------------
    /// Fast-path proposal straight to an acceptor (Algorithm 1, line 13):
    /// every option of one transaction on a record the destination
    /// replicates, the transaction and its write-set named once.
    Propose(Proposal),
    /// Classic-path proposal to the master (line 11), sent with dynamic
    /// mastership off only: every option of one transaction on a record
    /// the destination masters, shaped as a [`Msg::Propose`].
    ProposeToMaster(Proposal),
    /// Outcome fan-out once the coordinator learned all options
    /// (the Visibility/Learned message of §3.2.1): one per storage node,
    /// for every record of the transaction the node replicates.
    ///
    /// The records are named by position in `txn`'s write-set
    /// ([`RecordName::At`]) when the coordinator holds a letter of `txn`
    /// from the destination that says *accepted*: a node that accepted
    /// an option of `txn` keeps `txn` pending, with its write-set, and
    /// reads each position back through it. To any other node (it has
    /// not answered, or only rejected) they are named by key.
    ///
    /// The node names every record before it applies any, because
    /// applying the first drops the pending entry. A positional
    /// Visibility that finds no pending entry is dropped unread, and
    /// that is safe. The entry goes only when this node applied an
    /// outcome of `txn`, which settled every record of `txn` it holds
    /// (one Visibility names them all), or when sync has settled every
    /// record here that held an option of `txn` (a peer's payload
    /// carries the outcome and the execution). Either way no record here
    /// still waits for what the dropped message says.
    Visibility {
        /// Resolved transaction.
        txn: TxnId,
        /// Commit or abort.
        outcome: TxnOutcome,
        /// Per record, in the coordinator's key order: its name and
        /// whether its option was *learned* as accepted — the
        /// authoritative status that drives version accounting on nodes
        /// whose local vote was in the minority.
        records: Vec<(RecordName, bool)>,
    },
    /// Ask the node the route rule names (`coordination::classic_target`)
    /// to run collision recovery for a record (Algorithm 1, lines 19, 26).
    StartRecovery {
        /// Record to recover.
        key: Key,
    },

    // ------------------------------------------------------------------
    // Acceptor responses (storage node → learners/TM).
    // ------------------------------------------------------------------
    /// Phase2b votes (fast or classic) as a coordinator needs them: every
    /// vote one handler of the sender gave for records with an option of
    /// the coordinator's, grouped by the transaction that names them.
    /// Each entry is one record's vote: its ballot and instance and, for
    /// each option of the destination still open at the acceptor, its
    /// status and whether it is front-movable in the acceptor's cstruct —
    /// what the destination's learners would read off the cstruct, read
    /// off it by the acceptor.
    ///
    /// Who receives one: the coordinators of the record's options that
    /// have no outcome here yet — the learners — and, on the fast path,
    /// the proposer, which is one of them. A classic vote does *not* go
    /// back to the master that sent the Phase2a: a master is no learner,
    /// it follows its instance through its local acceptor.
    ///
    /// An entry names its record by position in the write-set of `txn`
    /// ([`RecordName::At`]) when `txn` anchors it: the vote holds one
    /// letter, of `txn`, or none and `txn` is the fast-path proposer's
    /// transaction. A vote with two or more letters names its key
    /// ([`RecordName::Key`]). The coordinator maps a position back
    /// through the write-set it keeps for `txn` while `txn` runs.
    ///
    /// An entry whose anchor the coordinator no longer runs is dropped
    /// unread, and that is safe. Its only letter (if any) is of `txn`,
    /// which is resolved, so what it could still tell is that this
    /// acceptor does not hold some *other* transaction's option on the
    /// record — yet. That transaction's own proposal gets its own answer
    /// from this acceptor, one that holds its letter, so the dropped entry
    /// is worth no more than a delayed message, which the protocol
    /// tolerates anyway.
    ///
    /// A positional entry whose only letter is of `txn` travels without
    /// the letter's transaction (`crate::wire`): the message names it.
    Verdict(Verdicts),
    /// A coordinator's learner met a quorum that holds its option with
    /// one decision but not front-movable everywhere (interleaved
    /// physical writes): only the cstructs can tell; ship the current
    /// whole vote.
    CstructPull {
        /// Record whose vote is wanted.
        key: Key,
    },
    /// The whole vote a coordinator pulled: the acceptor's cstruct from
    /// the record's settled watermark on
    /// ([`mdcc_paxos::AcceptorRecord::vote`]).
    Vote {
        /// Record voted on.
        key: Key,
        /// The vote.
        vote: Phase2b,
    },
    /// The record is under a classic ballot; retry via its master.
    NotFast {
        /// Record concerned.
        key: Key,
        /// Transaction whose option on `key` was bounced (its coordinator
        /// holds the option).
        txn: TxnId,
        /// The classic ballot in force — its proposer is the master.
        promised: Ballot,
    },
    /// The record's instance is full; the proposer should request
    /// recovery so the master closes and re-bases it.
    InstanceFull {
        /// Record concerned.
        key: Key,
        /// Transaction whose option on `key` was bounced (re-proposed
        /// after recovery).
        txn: TxnId,
    },
    /// The proposed transaction was already resolved earlier (the
    /// proposal is a stale retry); here is its outcome.
    AlreadyResolved {
        /// Record concerned.
        key: Key,
        /// Transaction in question.
        txn: TxnId,
        /// Its decided outcome.
        outcome: TxnOutcome,
    },
    /// The master reports the record is back in fast mode; the TM should
    /// drop its classic-mode cache entry and re-propose directly.
    GoFast {
        /// Record concerned.
        key: Key,
        /// Transaction whose option on `key` was bounced.
        txn: TxnId,
    },

    // ------------------------------------------------------------------
    // Leader ↔ acceptors (classic ballots).
    // ------------------------------------------------------------------
    /// Phase1a broadcast: the new classic ballot, and the instance and
    /// cstruct digest the leader holds, which promises leave out.
    P1a {
        /// Record concerned.
        key: Key,
        /// Ballot and what the leader holds.
        payload: Phase1a,
    },
    /// Phase1b response, without what the Phase1a named.
    P1b {
        /// Record concerned.
        key: Key,
        /// Promise payload.
        payload: Promise,
    },
    /// Phase2a: every round the sender's leaders broadcast in one
    /// handler to the records the destination replicates, each naming
    /// the instance it targets and carrying no snapshot; or the answer to
    /// one acceptor's [`Msg::P2aBehind`], one round that carries the
    /// instance's whole window and the leader's snapshot.
    P2a {
        /// The rounds, each with its record, in the order they were led.
        rounds: Phase2aRounds,
    },
    /// Phase2a not judged: the acceptor has not reached the instance it
    /// targets and the broadcast carries no state to catch up from.
    /// Nothing was logged, promised or mutated; the leader of `ballot`,
    /// if it still holds that ballot's window, answers this acceptor
    /// with a `P2a` that carries its snapshot.
    P2aBehind {
        /// Record concerned.
        key: Key,
        /// Ballot of the Phase2a the acceptor could not use.
        ballot: Ballot,
    },
    /// Phase2a refused: ballot too old.
    P2aNack {
        /// Record concerned.
        key: Key,
        /// The acceptor's promise.
        promised: Ballot,
    },
    /// Phase2a refused: the leader's snapshot lags this acceptor.
    P2aStale {
        /// Record concerned.
        key: Key,
        /// Newer committed state for leader catch-up.
        snapshot: RecordSnapshot,
    },

    // ------------------------------------------------------------------
    // Reads.
    // ------------------------------------------------------------------
    /// Read the committed values of records, all replicated by the
    /// destination: one request per (read, node).
    ReadReq {
        /// Request id, echoed in the response; fresh for every request
        /// sent, retries included.
        req: u64,
        /// Records to read.
        keys: Vec<Key>,
    },
    /// Read response: one row per requested key, in request order and
    /// without the keys — the requester pairs them with its request.
    ReadResp {
        /// Echoed request id.
        req: u64,
        /// Per key, the committed version (zero for never-written
        /// records) and value, if the record exists.
        rows: Vec<(Version, Option<Row>)>,
    },

    // ------------------------------------------------------------------
    // Dangling-transaction recovery (storage node → storage nodes).
    // ------------------------------------------------------------------
    /// Ask a replica for the status of one transaction's option on one
    /// record (quorum read of the instance state, §3.2.3).
    QueryStatus {
        /// Transaction being reconstructed.
        txn: TxnId,
        /// Record queried.
        key: Key,
    },
    /// Response: the replica's current vote plus, if it already knows it,
    /// the transaction outcome.
    StatusResp {
        /// Transaction being reconstructed.
        txn: TxnId,
        /// Record queried.
        key: Key,
        /// The replica's current vote for the record's instance.
        vote: Phase2b,
        /// Outcome if this replica already learned it.
        outcome: Option<TxnOutcome>,
    },

    // ------------------------------------------------------------------
    // Crash recovery: restart-time peer sync (storage ↔ storage).
    // ------------------------------------------------------------------
    /// A restarted node opens a merkle-style sync round (anti-entropy
    /// catch-up for updates missed while it was down, §3.2.3): the peer
    /// answers with digests of its key ranges; full state ships only
    /// for ranges that diverge.
    SyncDigestReq,
    /// Range digests of everything the sender holds; the receiver
    /// compares each range against its own state and pulls only the
    /// divergent ones.
    SyncDigest {
        /// One digest per chunk of the sender's sorted key space.
        ranges: Vec<SyncRange>,
    },
    /// Ship sync payloads for these divergent key ranges, except the
    /// records the puller already holds: each range names the puller's
    /// per-record digests there (the terms its range digest sums), and
    /// the peer ships only records whose digest is not among them. The
    /// missed-commit pull names one key and nothing held, so it ships
    /// that record whatever its state.
    SyncRangePull {
        /// Inclusive bounds as advertised in `SyncDigest`, each with the
        /// puller's held digests.
        ranges: Vec<RangePull>,
    },
    /// A batched chunk of per-record sync payloads: each item is a
    /// record's committed snapshot plus the already-resolved options of
    /// its current instance (each option "includes all necessary
    /// information to reconstruct the state").
    SyncChunk {
        /// At most `SYNC_CHUNK_KEYS` records' worth of state.
        items: Vec<SyncItem>,
    },

    // ------------------------------------------------------------------
    // Dynamic mastership (lease/election plane + mastered proposals).
    // ------------------------------------------------------------------
    /// Lease/election-plane message between the replicas of one shard
    /// (heartbeats, acquires, grants, handoffs — see `mdcc_mastership`).
    Mastership(MsMsg),
    /// Classic-path proposal routed to the shards' *lease holder*
    /// instead of the static per-record master: every option of one
    /// transaction the destination is believed to master. Carries the
    /// requesting data center so the holder can observe access locality
    /// and migrate.
    ProposeMastered {
        /// Data center the issuing TM lives in.
        origin_dc: DcId,
        /// The proposal itself.
        proposal: Proposal,
    },
    /// A node that is not (or no longer) the lease holder redirects the
    /// proposer: route this shard's classic traffic to `node`.
    MasterHint {
        /// Shard concerned.
        shard: u32,
        /// Current lease holder as far as the sender knows.
        node: NodeId,
    },
}

/// A timer an MDCC process arms for itself; it never crosses the wire.
#[derive(Debug)]
pub enum Tick {
    /// TM: the learn timeout of a transaction fired.
    LearnTimeout {
        /// Transaction still unresolved.
        txn: TxnId,
    },
    /// TM: a read batch is still incomplete; re-issue the missing reads.
    ReadRetry {
        /// Token of the stalled read batch.
        token: u64,
    },
    /// Storage node: periodic dangling-transaction sweep.
    DanglingSweep,
    /// Storage node: a recovery attempt stalled; retry it.
    RecoveryRetry {
        /// Transaction being recovered.
        txn: TxnId,
    },
    /// Storage node: re-check a committed option whose execution this
    /// node missed (bare outcome) and pull it from the next peer if the
    /// earlier repair did not land.
    MissedPull {
        /// Record whose execution is missing.
        key: Key,
        /// The committed transaction.
        txn: TxnId,
        /// Retry attempt (rotates the target peer).
        attempt: u32,
    },
    /// Storage node: periodic durable checkpoint (snapshot + WAL
    /// compaction).
    CheckpointTick,
    /// Storage node: periodic anti-entropy round after a restart.
    SyncSweep,
    /// Client processes: issue the next transaction (armed by clients
    /// that pace themselves; carried here so every process shares one
    /// tick type).
    ClientTick,
    /// Storage node: mastership heartbeat/lease timer.
    MsTick,
}

impl TimerPayload for Tick {
    fn kind(&self) -> &'static str {
        match self {
            Tick::LearnTimeout { .. } => "LearnTimeout",
            Tick::ReadRetry { .. } => "ReadRetry",
            Tick::DanglingSweep => "DanglingSweep",
            Tick::RecoveryRetry { .. } => "RecoveryRetry",
            Tick::MissedPull { .. } => "MissedPull",
            Tick::CheckpointTick => "CheckpointTick",
            Tick::SyncSweep => "SyncSweep",
            Tick::ClientTick => "ClientTick",
            Tick::MsTick => "MsTick",
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mdcc_common::TableId;

    /// One tick of every kind. The match fails to compile when `Tick`
    /// gains a variant, so the list cannot silently fall behind.
    pub(crate) fn every_tick() -> Vec<Tick> {
        let txn = TxnId::new(NodeId(0), 3);
        let key = Key::new(TableId(1), "a");
        let ticks = vec![
            Tick::LearnTimeout { txn },
            Tick::ReadRetry { token: 42 },
            Tick::DanglingSweep,
            Tick::RecoveryRetry { txn },
            Tick::MissedPull {
                key,
                txn,
                attempt: 2,
            },
            Tick::CheckpointTick,
            Tick::SyncSweep,
            Tick::ClientTick,
            Tick::MsTick,
        ];
        for tick in &ticks {
            match tick {
                Tick::LearnTimeout { .. }
                | Tick::ReadRetry { .. }
                | Tick::DanglingSweep
                | Tick::RecoveryRetry { .. }
                | Tick::MissedPull { .. }
                | Tick::CheckpointTick
                | Tick::SyncSweep
                | Tick::ClientTick
                | Tick::MsTick => {}
            }
        }
        ticks
    }
}
