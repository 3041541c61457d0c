//! Protocol messages between app servers (TMs) and storage nodes, and
//! the timers each process arms for itself.
//!
//! Every [`Msg`] variant has a byte-accurate wire encoding (see
//! [`crate::wire`]); the simulator charges transmission delay, link
//! queueing and per-byte service cost for exactly those bytes. A
//! [`Tick`] never leaves its process and has no encoding.

use mdcc_common::{DcId, Key, NodeId, Row, TxnId, Version};
use mdcc_mastership::MsMsg;
use mdcc_paxos::acceptor::{Phase1b, Phase2a, Phase2b, RecordSnapshot, VoteVerdict};
use mdcc_paxos::{Ballot, Proposal, TxnOption, TxnOutcome};
use mdcc_sim::{Ctx, TimerPayload};
use mdcc_storage::{SyncItem, SyncRange};

/// The context of every MDCC handler: it sends [`Msg`]s, arms [`Tick`]s.
pub type MdccCtx<'a> = Ctx<'a, Msg, Tick>;

/// Sends one copy of a message to each node of `to`, in order.
pub(crate) fn send_each(ctx: &mut MdccCtx<'_>, to: &[NodeId], msg: impl Fn() -> Msg) {
    for &node in to {
        ctx.send(node, msg());
    }
}

/// Groups items by the nodes each is routed to: one entry per node, in
/// the order the items first name it, holding every item routed there in
/// item order — so that a handler sends each node one message.
pub(crate) fn per_node<T: Clone>(
    routed: impl IntoIterator<Item = (Vec<NodeId>, T)>,
) -> Vec<(NodeId, Vec<T>)> {
    let mut groups: Vec<(NodeId, Vec<T>)> = Vec::new();
    for (nodes, item) in routed {
        for node in nodes {
            match groups.iter_mut().find(|(n, _)| *n == node) {
                Some((_, items)) => items.push(item.clone()),
                None => groups.push((node, vec![item.clone()])),
            }
        }
    }
    groups
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
    /// Classic-path proposal to the record's master (line 11).
    ProposeToMaster(TxnOption),
    /// Outcome fan-out once the coordinator learned all options
    /// (the Visibility/Learned message of §3.2.1): one per storage node,
    /// for every record of the transaction the node replicates.
    Visibility {
        /// Resolved transaction.
        txn: TxnId,
        /// Commit or abort.
        outcome: TxnOutcome,
        /// Per record, in the coordinator's key order: whether its option
        /// was *learned* as accepted — the authoritative status that
        /// drives version accounting on nodes whose local vote was in the
        /// minority.
        records: Vec<(Key, bool)>,
    },
    /// Ask the (potential) master to run collision recovery for a record
    /// (Algorithm 1, lines 19 and 26).
    StartRecovery {
        /// Record to recover.
        key: Key,
    },

    // ------------------------------------------------------------------
    // Acceptor responses (storage node → learners/TM).
    // ------------------------------------------------------------------
    /// Phase2b vote (fast or classic) as a coordinator needs it: the
    /// vote's ballot and instance and, for each option of the
    /// destination still open at the acceptor, its status and whether it
    /// is front-movable in the acceptor's cstruct — what the
    /// destination's learners would read off the cstruct, read off it by
    /// the acceptor.
    ///
    /// Who receives one: the coordinators of the record's options that
    /// have no outcome here yet — the learners — and, on the fast path,
    /// the proposer, which is one of them. A classic vote does *not* go
    /// back to the master that sent the Phase2a: a master is no learner,
    /// it follows its instance through its local acceptor.
    Verdict {
        /// Record voted on.
        key: Key,
        /// The vote, reduced for its destination.
        verdict: VoteVerdict,
    },
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
    /// Phase1a broadcast.
    P1a {
        /// Record concerned.
        key: Key,
        /// New classic ballot.
        ballot: Ballot,
    },
    /// Phase1b response.
    P1b {
        /// Record concerned.
        key: Key,
        /// Promise payload.
        payload: Phase1b,
    },
    /// Phase2a: the broadcast to every acceptor of the record, which
    /// names the instance it targets and carries no snapshot, or the
    /// answer to one acceptor's [`Msg::P2aBehind`], which carries the
    /// instance's whole window and the leader's snapshot.
    P2a {
        /// Record concerned.
        key: Key,
        /// Proposal payload.
        payload: Box<Phase2a>,
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
    /// Read the committed value of a record.
    ReadReq {
        /// Request id, echoed in the response.
        req: u64,
        /// Record to read.
        key: Key,
    },
    /// Read response.
    ReadResp {
        /// Echoed request id.
        req: u64,
        /// Record read.
        key: Key,
        /// Committed version (zero for never-written records).
        version: Version,
        /// Committed value, if the record exists.
        value: Option<Row>,
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
    /// Ship full sync payloads for these divergent key ranges.
    SyncRangePull {
        /// `(lo, hi)` inclusive bounds, as advertised in `SyncDigest`.
        ranges: Vec<(Key, Key)>,
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
    /// Classic-path proposal routed to the shard's *lease holder* instead
    /// of the static per-record master. Carries the requesting data
    /// center so the holder can observe access locality and migrate.
    ProposeMastered {
        /// Data center the issuing TM lives in.
        origin_dc: DcId,
        /// The proposal itself.
        opt: TxnOption,
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
