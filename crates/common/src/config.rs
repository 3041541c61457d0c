//! Protocol-wide configuration.

use std::fmt;

use crate::time::SimDuration;

/// Which storage engine backs each storage node's record map.
///
/// Both backends are proven byte-identical at the cluster level: what a
/// node says on the wire and persists in its WAL is a pure function of
/// the records' logical state, which every backend round-trips exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StorageKind {
    /// Every record lives fully materialized in an in-memory hash map —
    /// the reference backend (fastest reads, RSS grows with record
    /// count × materialized-record size).
    #[default]
    Mem,
    /// Log-structured: records are encoded into append-only in-memory
    /// segments behind a sparse index, with a bounded cache of
    /// materialized records (see
    /// [`ProtocolConfig::log_cache_records`]) and copy-forward segment
    /// compaction once dead bytes outweigh live ones. RSS stays
    /// O(encoded state + working set) instead of O(materialized
    /// records).
    LogStructured,
}

/// How long a coordinator waits to learn an option before it starts
/// collision recovery; also the base of its retry back-off and the
/// storage node's recovery-retry period. More than two of the widest
/// round trips of the EC2 preset (270 ms).
pub const LEARN_TIMEOUT: SimDuration = SimDuration::from_millis(600);

/// How long a storage node waits on an outstanding option before it
/// triggers dangling-transaction recovery (§3.2.3); the node sweeps for
/// such options at half this period. Seconds, while message delays are
/// sub-second: the synchrony assumption that lets recovery declare an
/// option nobody has seen dead.
pub const DANGLING_TIMEOUT: SimDuration = SimDuration::from_millis(5_000);

/// How often a durable storage node checkpoints its store to disk and
/// compacts its WAL.
pub const CHECKPOINT_INTERVAL: SimDuration = SimDuration::from_millis(10_000);

/// How often a restarted storage node runs an anti-entropy sync round
/// against a peer replica (catch-up for state it missed while down).
pub const RECOVERY_SYNC_INTERVAL: SimDuration = SimDuration::from_millis(2_500);

/// Keys per sync digest range and per shipped sync chunk message.
pub const SYNC_CHUNK_KEYS: usize = 32;

/// Dynamic mastership: shard-granular master leases renewed by
/// heartbeat, omnipaxos-style ballot leader election, and access-driven
/// master migration. Its timing and hysteresis are constants of
/// `mdcc-mastership` (`HEARTBEAT_INTERVAL`, `LEASE_DURATION`, …); the
/// one thing a deployment chooses is whether the layer runs.
///
/// A granted lease ballot doubles as the Phase1-promised classic ballot
/// for every record in the lease's scope (lease-carried Phase1):
/// granting replicas enforce it as a per-record promise floor, so the
/// holder's first Phase2a for a cold record is immediately valid — one
/// WAN round trip instead of a Phase1a/Phase1b exchange plus Phase2.
///
/// Disabled by default. With `enabled = false` no mastership timer is
/// armed, no mastership message is sent and no RNG is consumed — runs
/// are byte-identical to static placement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MastershipConfig {
    /// Master switch. Off reproduces static per-record placement
    /// byte-identically.
    pub enabled: bool,
}

impl MastershipConfig {
    /// The layer switched on.
    pub fn enabled() -> Self {
        Self { enabled: true }
    }
}

/// Tunable parameters of the MDCC commit protocol.
///
/// The defaults mirror the paper's deployment: replication factor `N = 5`
/// (one replica per data center), classic quorum 3, fast quorum 4, and a
/// fast-policy window of `γ = 100` classic instances after a collision
/// (§3.3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Replication factor `N` — number of storage nodes per record.
    pub replication: usize,
    /// Classic quorum size `|Q_C|`.
    pub classic_quorum: usize,
    /// Fast quorum size `|Q_F|`.
    pub fast_quorum: usize,
    /// Number of instances forced classic after a collision before fast
    /// ballots are retried (the paper's γ).
    pub gamma: u64,
    /// Maximum number of options absorbed into one fast-commutative
    /// instance before the master closes it with a classic round and
    /// re-bases demarcation limits.
    pub max_instance_options: usize,
    /// Ignored; deleted once `bench_all` stops naming it (ROADMAP 0(a)).
    pub coalesce: bool,
    /// The window of the outbox batch. The simulator coalesces
    /// same-destination, same-traffic-class sends into envelope frames:
    /// one frame header and one service-time floor per (destination,
    /// class) slot of the sender's outbox instead of per message. It
    /// keeps two batches per node, the outbox and the WAL, with one
    /// deadline-or-size mechanism (`mdcc_sim::world`, "Batching"). Zero
    /// ships the outbox at the end of every event (what one handler
    /// sends still batches); a positive window holds it that long so
    /// bursts *across* events share envelopes too.
    pub coalesce_window: SimDuration,
    /// Ignored; deleted once `bench_all` stops naming it (ROADMAP 0(a)).
    pub group_commit: bool,
    /// The window of the WAL batch (group commit): WAL appends join the
    /// node's WAL batch, whose one covering fsync makes the whole batch
    /// durable for a single `fsync_latency` charge; the batch holds the
    /// node's sends, read replies excepted, until then. Inert while
    /// `fsync_latency` is zero. Zero still covers every append made
    /// while handling one event (an envelope delivering N messages pays
    /// one fsync); a positive window lets bursts *across* events share a
    /// flush.
    pub group_commit_window: SimDuration,
    /// The WAL batch's size trigger: this many unsynced bytes close it
    /// at once, bounding both its latency and the data at risk in the
    /// write-back cache.
    pub group_commit_bytes: usize,
    /// Storage engine backing each node's record map.
    pub storage: StorageKind,
    /// Cache capacity (materialized records) of the log-structured
    /// backend; ignored by [`StorageKind::Mem`]. When the cache
    /// overflows, the least-recently-touched half is encoded back into
    /// segments and dropped.
    pub log_cache_records: usize,
    /// Dynamic mastership: shard-granular leases, ballot leader
    /// election, access-driven migration. Off by default (static
    /// placement, byte-identical to earlier revisions).
    pub mastership: MastershipConfig,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self {
            replication: 5,
            classic_quorum: 3,
            fast_quorum: 4,
            gamma: 100,
            max_instance_options: 32,
            coalesce: true,
            coalesce_window: SimDuration::from_micros(500),
            group_commit: true,
            group_commit_window: SimDuration::from_micros(500),
            group_commit_bytes: 256 * 1024,
            storage: StorageKind::Mem,
            log_cache_records: 4096,
            mastership: MastershipConfig::default(),
        }
    }
}

/// A violated Fast Paxos quorum-size requirement (§3.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuorumRuleViolation {
    /// Two classic quorums might not intersect: `2·|Q_C| ≤ N`.
    ClassicClassic,
    /// A classic and a fast quorum might not intersect: `|Q_C| + |Q_F| ≤ N`.
    ClassicFast,
    /// Two fast quorums and one classic quorum might have an empty common
    /// intersection: `2·|Q_F| + |Q_C| ≤ 2·N`.
    FastFastClassic,
    /// A quorum size exceeds the replication factor or is zero.
    Bounds,
}

impl fmt::Display for QuorumRuleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            QuorumRuleViolation::ClassicClassic => "2*Qc must exceed N",
            QuorumRuleViolation::ClassicFast => "Qc + Qf must exceed N",
            QuorumRuleViolation::FastFastClassic => "2*Qf + Qc must exceed 2*N",
            QuorumRuleViolation::Bounds => "quorum sizes must be in 1..=N",
        };
        f.write_str(s)
    }
}

impl ProtocolConfig {
    /// Builds a config for replication factor `n` with the smallest safe
    /// quorums: `|Q_C| = ⌊n/2⌋ + 1` and the minimum `|Q_F|` satisfying the
    /// fast-quorum requirement.
    ///
    /// # Examples
    ///
    /// ```
    /// use mdcc_common::ProtocolConfig;
    /// let c = ProtocolConfig::for_replication(5);
    /// assert_eq!((c.classic_quorum, c.fast_quorum), (3, 4));
    /// let c = ProtocolConfig::for_replication(7);
    /// assert_eq!((c.classic_quorum, c.fast_quorum), (4, 6));
    /// ```
    pub fn for_replication(n: usize) -> Self {
        let classic = n / 2 + 1;
        // Smallest Qf with Qc + Qf > n and 2*Qf + Qc > 2n.
        let mut fast = classic.max(n - classic + 1);
        while 2 * fast + classic <= 2 * n {
            fast += 1;
        }
        Self {
            replication: n,
            classic_quorum: classic,
            fast_quorum: fast.min(n),
            ..Self::default()
        }
    }

    /// Checks the Fast Paxos quorum requirements, returning the first
    /// violated rule if any.
    pub fn validate(&self) -> std::result::Result<(), QuorumRuleViolation> {
        let n = self.replication;
        let qc = self.classic_quorum;
        let qf = self.fast_quorum;
        if qc == 0 || qf == 0 || qc > n || qf > n {
            return Err(QuorumRuleViolation::Bounds);
        }
        if 2 * qc <= n {
            return Err(QuorumRuleViolation::ClassicClassic);
        }
        if qc + qf <= n {
            return Err(QuorumRuleViolation::ClassicFast);
        }
        if 2 * qf + qc <= 2 * n {
            return Err(QuorumRuleViolation::FastFastClassic);
        }
        Ok(())
    }

    /// The paper's formula for how many of the `N·X` replicated resources
    /// may silently remain after constraint exhaustion: `(N − Q_F)·X`
    /// spread over `N` nodes, i.e. the demarcation numerator (§3.4.2).
    pub fn demarcation_slack_num(&self) -> usize {
        self.replication - self.fast_quorum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_deployment() {
        let c = ProtocolConfig::default();
        assert_eq!(c.replication, 5);
        assert_eq!(c.classic_quorum, 3);
        assert_eq!(c.fast_quorum, 4);
        assert_eq!(c.gamma, 100);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn for_replication_produces_valid_configs() {
        for n in 1..=11 {
            let c = ProtocolConfig::for_replication(n);
            assert!(
                c.validate().is_ok(),
                "n={n} produced invalid quorums ({}, {})",
                c.classic_quorum,
                c.fast_quorum
            );
        }
    }

    #[test]
    fn three_replicas_need_fast_quorum_of_three() {
        // With N=3, Qc=2: 2*Qf + 2 > 6 requires Qf = 3 (every node).
        let c = ProtocolConfig::for_replication(3);
        assert_eq!(c.fast_quorum, 3);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let c = ProtocolConfig {
            classic_quorum: 2,
            ..ProtocolConfig::default()
        };
        assert_eq!(c.validate(), Err(QuorumRuleViolation::ClassicClassic));

        let c = ProtocolConfig {
            fast_quorum: 3,
            ..ProtocolConfig::default()
        };
        assert_eq!(c.validate(), Err(QuorumRuleViolation::FastFastClassic));

        let c = ProtocolConfig {
            fast_quorum: 9,
            ..ProtocolConfig::default()
        };
        assert_eq!(c.validate(), Err(QuorumRuleViolation::Bounds));

        let c = ProtocolConfig {
            replication: 9,
            ..ProtocolConfig::default()
        };
        // Qc=3, Qf=4: Qc+Qf=7 ≤ 9.
        assert_eq!(c.validate(), Err(QuorumRuleViolation::ClassicClassic));
    }

    #[test]
    fn demarcation_slack() {
        assert_eq!(ProtocolConfig::default().demarcation_slack_num(), 1);
    }
}
