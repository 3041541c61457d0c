//! Transaction records and the statistics the paper's figures plot,
//! plus the durability/recovery telemetry of fault-schedule runs.

use std::time::Duration;

use mdcc_common::{DcId, NodeId, SimDuration, SimTime};
use mdcc_recovery::RecoveryInfo;
use mdcc_sim::{KindProfileEntry, ProfileEntry, TrafficClass, TrafficTotals, WorldStats};
use mdcc_trace::{Anatomy, TraceData};

/// One storage-node restart as observed by the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRecovery {
    /// The restarted node.
    pub node: NodeId,
    /// Its data center.
    pub dc: DcId,
    /// Its shard index within the data center.
    pub shard: usize,
    /// When the node crashed.
    pub crashed_at: SimTime,
    /// When it restarted (recovery replay happens at this instant).
    pub restarted_at: SimTime,
    /// What the replay cost (checkpoint records, WAL records, bytes,
    /// restored pending transactions).
    pub info: RecoveryInfo,
}

impl NodeRecovery {
    /// How long the node was down.
    pub fn downtime(&self) -> SimDuration {
        self.restarted_at - self.crashed_at
    }
}

/// End-of-run consistency audit of an MDCC cluster, harvested from every
/// storage node after the experiment (and its drain period) finished.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterAudit {
    /// FNV digest of each storage node's committed state `(key, version,
    /// value)`, indexed by dense node id (dc-major). Replicas of the same
    /// shard that have converged hold equal digests.
    pub committed_digests: Vec<u64>,
    /// Options still pending (accepted, unresolved) across all nodes.
    pub pending_options: usize,
    /// Live clients with unfinished commit attempts.
    pub stuck_clients: usize,
    /// Minimum committed value per integer attribute across every record
    /// and replica, sorted by attribute name — the `stock ≥ 0` check
    /// reads its attribute here.
    pub attr_minima: Vec<(String, i64)>,
    /// Dangling transactions resolved by storage nodes (peer recovery).
    pub dangling_resolved: u64,
    /// Records whose state changed through post-restart peer sync.
    pub sync_adoptions: u64,
    /// Durable checkpoints written across all nodes.
    pub checkpoints: u64,
    /// WAL bytes written across all nodes (pre-compaction total).
    pub wal_bytes_written: u64,
    /// WAL records appended across all nodes: with `net.fsyncs`, the
    /// mean number of appends one fsync made durable.
    pub wal_appends: u64,
    /// Fast proposals still parked across all nodes (held because their
    /// replica was behind the version they read). Zero once a run has
    /// drained: a parked proposal leaves when its record catches up or
    /// its coordinator retries.
    pub parked_left: usize,
}

impl ClusterAudit {
    /// The audited minimum of one integer attribute, if any record has it.
    pub fn min_of(&self, attr: &str) -> Option<i64> {
        self.attr_minima
            .iter()
            .find(|(a, _)| a == attr)
            .map(|(_, v)| *v)
    }
}

/// Bytes-on-wire accounting for one run, harvested from the simulated
/// transport and broken out by traffic class — the cost model §1 of the
/// paper motivates (wide-area bytes are the scarce resource).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetReport {
    /// Wire frames handed to the network. With envelope coalescing on
    /// (`ProtocolConfig::coalesce`, the default) a batched envelope
    /// counts once; `payload_msgs / msgs_sent` is the amortization
    /// factor the outbox achieved.
    pub msgs_sent: u64,
    /// Process-level messages carried by those frames (equals
    /// `msgs_sent` when coalescing is off).
    pub payload_msgs: u64,
    /// Wire bytes handed to the network.
    pub bytes_sent: u64,
    /// Frames delivered to live processes.
    pub delivered: u64,
    /// Frames lost (network loss, dead node, failed DC).
    pub dropped: u64,
    /// Commit-protocol traffic (proposals, votes, phases, visibility).
    pub protocol: TrafficTotals,
    /// Read requests/responses.
    pub read: TrafficTotals,
    /// Anti-entropy / recovery-sync traffic.
    pub sync: TrafficTotals,
    /// Whole votes pulled (`CstructPull` and the `Vote` that answers
    /// it): `repair.msgs / 2` approximates the number of round trips
    /// learners needed because a verdict could not be counted.
    pub repair: TrafficTotals,
    /// WAL fsyncs charged across all nodes. Zero when `fsync_latency`
    /// is zero (appends are free); with group commit on, one covering
    /// fsync serves every append in its batch, so
    /// `fsyncs / committed_count` is the amortization the commit
    /// buffer achieved.
    pub fsyncs: u64,
}

impl NetReport {
    /// Reduces a world's counters into the report form.
    pub fn from_world(stats: WorldStats) -> Self {
        Self {
            msgs_sent: stats.sent,
            payload_msgs: stats.payload_msgs,
            bytes_sent: stats.bytes_sent,
            delivered: stats.delivered,
            dropped: stats.dropped,
            protocol: stats.class(TrafficClass::Protocol),
            read: stats.class(TrafficClass::Read),
            sync: stats.class(TrafficClass::Sync),
            repair: stats.class(TrafficClass::Repair),
            fsyncs: stats.fsyncs,
        }
    }
}

/// Host-side cost of one run: how much real time and how many event
/// dispatches the experiment burned. Purely observational — simulated
/// results never depend on these numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunPerf {
    /// Wall-clock time the run took on the host.
    pub wall: Duration,
    /// Handler invocations the event loop dispatched.
    pub events: u64,
}

impl RunPerf {
    /// Simulator events processed per host second.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.events as f64 / secs
    }
}

/// One finished transaction as seen by a client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxnRecord {
    /// When the interaction began (before its read phase).
    pub started: SimTime,
    /// When the outcome was known (commit point / abort).
    pub finished: SimTime,
    /// Whether it committed.
    pub committed: bool,
    /// Whether it intended to write.
    pub is_write: bool,
    /// Interaction label ("buy", "buy-confirm", …).
    pub label: &'static str,
}

impl TxnRecord {
    /// End-to-end latency.
    pub fn latency(&self) -> SimDuration {
        self.finished - self.started
    }
}

/// Five-number summary for box plots (Figure 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

/// The reduced result of one experiment run.
#[derive(Debug, Clone)]
pub struct Report {
    /// All transaction records inside the measurement window, from every
    /// client, sorted by finish time.
    pub records: Vec<TxnRecord>,
    /// Measurement window start.
    pub window_start: SimTime,
    /// Measurement window end.
    pub window_end: SimTime,
    /// Storage-node restarts performed by the fault schedule (MDCC runs
    /// only; empty otherwise).
    pub recoveries: Vec<NodeRecovery>,
    /// End-of-run consistency audit (MDCC runs only).
    pub audit: Option<ClusterAudit>,
    /// Bytes-on-wire accounting, by traffic class. Covers the whole run
    /// including warm-up and drain (the wire does not stop billing
    /// outside the measurement window).
    pub net: NetReport,
    /// Harvested spans and link gauges when the run traced
    /// ([`ClusterSpec::trace`]); `None` otherwise.
    pub trace: Option<TraceData>,
    /// Host wall-clock cost of the run (always collected; cheap).
    pub perf: RunPerf,
    /// Per-node event-loop profile, hottest node first (MDCC runs; the
    /// wall column is zero unless `TraceConfig::profile` was set).
    pub profile: Vec<ProfileEntry>,
    /// The same profile split by node role and message kind, most host
    /// time first — which handler the engine's wall-clock went to.
    /// Empty unless `TraceConfig::profile` was set.
    pub profile_by_kind: Vec<KindProfile>,
    /// Storage-engine counters summed across every node (MDCC runs;
    /// all-zero under the in-memory backend, which has no segments).
    pub engine: mdcc_storage::EngineStats,
    /// Storage-node counters summed across every node (MDCC runs):
    /// votes, bounces, recoveries led, and the stale-proposal counters
    /// (`proposals_parked`, `parked_released`, `parked_judged_behind`).
    pub nodes: mdcc_core::node::NodeStats,
    /// Dynamic-mastership counters summed across every node (MDCC runs
    /// with `protocol.mastership.enabled`; all-zero otherwise).
    pub mastership: mdcc_mastership::MastershipStats,
    /// Every lease tenure granted during the run, sorted by
    /// `(shard, from, ballot)` — the raw material of the no-two-masters
    /// audit. Empty unless dynamic mastership ran.
    pub lease_spans: Vec<mdcc_mastership::LeaseSpan>,
}

/// What a profiled node does in the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NodeRole {
    /// A storage node: acceptor, leader, recovery coordinator.
    Storage,
    /// An app server: client driver plus transaction manager.
    Client,
}

/// Host cost and delivered wire volume of one message kind on all nodes
/// of one role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindProfile {
    /// The nodes' role.
    pub role: NodeRole,
    /// The message or tick kind (`mdcc_sim::NetMessage::kind`,
    /// `mdcc_sim::TimerPayload::kind`; `"start"` is the `on_start` call).
    pub kind: &'static str,
    /// Handler invocations.
    pub events: u64,
    /// Host wall time spent inside them.
    pub wall: Duration,
    /// Network deliveries among the invocations.
    pub msgs: u64,
    /// Framed wire size of those messages, each on its own.
    pub bytes: u64,
}

impl KindProfile {
    /// Sums a world's per-(node, kind) profile by role — `role_of` says
    /// which role a node plays — and sorts it most host time first.
    pub fn by_role(
        entries: &[KindProfileEntry],
        role_of: impl Fn(NodeId) -> NodeRole,
    ) -> Vec<KindProfile> {
        let mut rows: Vec<KindProfile> = Vec::new();
        for entry in entries {
            let role = role_of(entry.node);
            match rows
                .iter_mut()
                .find(|row| row.role == role && row.kind == entry.kind)
            {
                Some(row) => {
                    row.events += entry.events;
                    row.wall += entry.wall;
                    row.msgs += entry.msgs;
                    row.bytes += entry.bytes;
                }
                None => rows.push(KindProfile {
                    role,
                    kind: entry.kind,
                    events: entry.events,
                    wall: entry.wall,
                    msgs: entry.msgs,
                    bytes: entry.bytes,
                }),
            }
        }
        rows.sort_by(|a, b| (b.wall, a.role, a.kind).cmp(&(a.wall, b.role, b.kind)));
        rows
    }
}

impl Report {
    /// Builds a report from raw client records, keeping only transactions
    /// that *finished* inside `[warmup, warmup + duration)`.
    pub fn new(mut records: Vec<TxnRecord>, warmup: SimDuration, duration: SimDuration) -> Self {
        let window_start = SimTime::ZERO + warmup;
        let window_end = window_start + duration;
        records.retain(|r| r.finished >= window_start && r.finished < window_end);
        records.sort_by_key(|r| r.finished);
        Self {
            records,
            window_start,
            window_end,
            recoveries: Vec::new(),
            audit: None,
            net: NetReport::default(),
            trace: None,
            perf: RunPerf::default(),
            profile: Vec::new(),
            profile_by_kind: Vec::new(),
            engine: mdcc_storage::EngineStats::default(),
            nodes: mdcc_core::node::NodeStats::default(),
            mastership: mdcc_mastership::MastershipStats::default(),
            lease_spans: Vec::new(),
        }
    }

    /// Per-phase latency anatomy from the run's trace (`None` when the
    /// run did not trace).
    pub fn anatomy(&self) -> Option<Anatomy> {
        self.trace.as_ref().map(|t| t.anatomy())
    }

    /// Committed transactions of any kind inside the window — the
    /// denominator of every per-commit wire figure.
    pub fn committed_count(&self) -> usize {
        self.records.iter().filter(|r| r.committed).count()
    }

    /// Wire bytes spent per committed transaction (all classes), the
    /// figure-of-merit the byte-accurate transport enables. `None` when
    /// nothing committed.
    pub fn bytes_per_commit(&self) -> Option<f64> {
        match self.committed_count() {
            0 => None,
            commits => Some(self.net.bytes_sent as f64 / commits as f64),
        }
    }

    /// Wire frames spent per committed transaction (all classes) — the
    /// figure-of-merit of envelope coalescing: every frame pays the
    /// per-message service floor, so this is the count queueing theory
    /// cares about. `None` when nothing committed.
    pub fn msgs_per_commit(&self) -> Option<f64> {
        match self.committed_count() {
            0 => None,
            commits => Some(self.net.msgs_sent as f64 / commits as f64),
        }
    }

    /// WAL fsyncs charged per committed transaction — the
    /// figure-of-merit of group commit, landing beside bytes/commit
    /// (coalescing) and msgs/commit (enveloping). `None` when nothing
    /// committed.
    pub fn fsyncs_per_commit(&self) -> Option<f64> {
        match self.committed_count() {
            0 => None,
            commits => Some(self.net.fsyncs as f64 / commits as f64),
        }
    }

    /// Commits whose outcome was learned inside `[from, to)` — used to
    /// check the cluster kept committing *while* nodes were down.
    pub fn commits_between(&self, from: SimTime, to: SimTime) -> usize {
        self.records
            .iter()
            .filter(|r| r.committed && r.is_write && r.finished >= from && r.finished < to)
            .count()
    }

    /// Latencies (ms) of committed write transactions — the quantity the
    /// paper's response-time figures plot.
    pub fn write_latencies_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.is_write && r.committed)
            .map(|r| r.latency().as_millis_f64())
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Committed write transactions.
    pub fn write_commits(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.is_write && r.committed)
            .count()
    }

    /// Aborted write transactions (protocol aborts and client-side
    /// aborts).
    pub fn write_aborts(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.is_write && !r.committed)
            .count()
    }

    /// Committed transactions of any kind per second of window time.
    pub fn throughput_tps(&self) -> f64 {
        let secs = (self.window_end - self.window_start).as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.committed_count() as f64 / secs
    }

    /// Median committed-write latency in ms (`None` when no writes
    /// committed).
    pub fn median_write_ms(&self) -> Option<f64> {
        percentile(&self.write_latencies_ms(), 50.0)
    }

    /// An arbitrary percentile of committed-write latency.
    pub fn write_percentile_ms(&self, p: f64) -> Option<f64> {
        percentile(&self.write_latencies_ms(), p)
    }

    /// Average committed-write latency in ms.
    pub fn mean_write_ms(&self) -> Option<f64> {
        let v = self.write_latencies_ms();
        if v.is_empty() {
            return None;
        }
        Some(v.iter().sum::<f64>() / v.len() as f64)
    }

    /// CDF of committed-write latencies: `(latency_ms, fraction ≤)` at
    /// each recorded point, downsampled to at most `points` entries.
    pub fn write_cdf(&self, points: usize) -> Vec<(f64, f64)> {
        let v = self.write_latencies_ms();
        if v.is_empty() {
            return Vec::new();
        }
        let n = v.len();
        let step = (n / points.max(1)).max(1);
        let mut out = Vec::new();
        for i in (0..n).step_by(step) {
            out.push((v[i], (i + 1) as f64 / n as f64));
        }
        if out.last().map(|(l, _)| *l) != Some(v[n - 1]) {
            out.push((v[n - 1], 1.0));
        }
        out
    }

    /// Box-plot summary of committed-write latencies.
    pub fn write_boxplot(&self) -> Option<BoxStats> {
        let v = self.write_latencies_ms();
        if v.is_empty() {
            return None;
        }
        Some(BoxStats {
            min: v[0],
            q1: percentile(&v, 25.0).expect("non-empty"),
            median: percentile(&v, 50.0).expect("non-empty"),
            q3: percentile(&v, 75.0).expect("non-empty"),
            max: v[v.len() - 1],
        })
    }

    /// Average committed-write latency per time bucket — the Figure 8
    /// time series. Returns `(bucket_start_secs, avg_ms, count)`.
    pub fn write_time_series(&self, bucket: SimDuration) -> Vec<(f64, f64, usize)> {
        let mut out: Vec<(f64, f64, usize)> = Vec::new();
        let mut t = self.window_start;
        let mut idx = 0usize;
        let records: Vec<&TxnRecord> = self
            .records
            .iter()
            .filter(|r| r.is_write && r.committed)
            .collect();
        while t < self.window_end {
            let end = t + bucket;
            let mut sum = 0.0;
            let mut count = 0usize;
            while idx < records.len() && records[idx].finished < end {
                sum += records[idx].latency().as_millis_f64();
                count += 1;
                idx += 1;
            }
            let avg = if count > 0 { sum / count as f64 } else { 0.0 };
            out.push((t.as_secs_f64(), avg, count));
            t = end;
        }
        out
    }
}

/// Nearest-rank percentile of a pre-sorted slice.
///
/// `p` is a percentage and is clamped to `[0, 100]`: anything at or
/// below zero (including NaN) returns the minimum, anything at or above
/// 100 the maximum — so `p = 1.0` is the 1st percentile, never an
/// out-of-range index.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let (first, last) = (*sorted.first()?, *sorted.last()?);
    // `p.is_nan() || p <= 0.0` spelled to catch NaN in one comparison.
    if p.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Some(first);
    }
    if p >= 100.0 {
        return Some(last);
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start_ms: u64, latency_ms: u64, committed: bool, is_write: bool) -> TxnRecord {
        TxnRecord {
            started: SimTime::from_millis(start_ms),
            finished: SimTime::from_millis(start_ms + latency_ms),
            committed,
            is_write,
            label: "t",
        }
    }

    fn report(records: Vec<TxnRecord>) -> Report {
        Report::new(records, SimDuration::ZERO, SimDuration::from_secs(100))
    }

    #[test]
    fn window_filters_and_sorts() {
        let r = Report::new(
            vec![rec(60_000, 10, true, true), rec(1_000, 10, true, true)],
            SimDuration::from_secs(30),
            SimDuration::from_secs(60),
        );
        assert_eq!(r.records.len(), 1, "warm-up record dropped");
        assert_eq!(r.records[0].started, SimTime::from_secs(60));
    }

    #[test]
    fn medians_and_percentiles() {
        let r = report(vec![
            rec(0, 100, true, true),
            rec(0, 200, true, true),
            rec(0, 300, true, true),
            rec(0, 400, true, true),
            rec(0, 50_000, false, true), // aborted: excluded
            rec(0, 5, true, false),      // read: excluded
        ]);
        assert_eq!(r.median_write_ms(), Some(200.0));
        assert_eq!(r.write_percentile_ms(100.0), Some(400.0));
        assert_eq!(r.write_percentile_ms(25.0), Some(100.0));
        assert_eq!(r.write_commits(), 4);
        assert_eq!(r.write_aborts(), 1);
        assert_eq!(r.mean_write_ms(), Some(250.0));
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let r = report((0..100).map(|i| rec(0, (i + 1) * 10, true, true)).collect());
        let cdf = r.write_cdf(10);
        assert!(cdf.len() <= 12);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(cdf.last().unwrap().1, 1.0);
    }

    #[test]
    fn boxplot_five_numbers() {
        let r = report((1..=100).map(|i| rec(0, i * 10, true, true)).collect());
        let b = r.write_boxplot().unwrap();
        assert_eq!(b.min, 10.0);
        assert_eq!(b.q1, 250.0);
        assert_eq!(b.median, 500.0);
        assert_eq!(b.q3, 750.0);
        assert_eq!(b.max, 1_000.0);
    }

    #[test]
    fn throughput_counts_commits_over_window() {
        let r = Report::new(
            (0..50)
                .map(|i| rec(i * 100, 10, true, i % 2 == 0))
                .collect(),
            SimDuration::ZERO,
            SimDuration::from_secs(10),
        );
        assert!((r.throughput_tps() - 5.0).abs() < 0.01);
    }

    #[test]
    fn time_series_buckets_average_latency() {
        let r = Report::new(
            vec![
                rec(500, 100, true, true),
                rec(600, 300, true, true),
                rec(1_500, 50, true, true),
            ],
            SimDuration::ZERO,
            SimDuration::from_secs(2),
        );
        let series = r.write_time_series(SimDuration::from_secs(1));
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].2, 2);
        assert!((series[0].1 - 200.0).abs() < 0.01);
        assert_eq!(series[1].2, 1);
        assert!((series[1].1 - 50.0).abs() < 0.01);
    }

    #[test]
    fn per_commit_wire_figures() {
        let mut r = report(vec![
            rec(0, 10, true, true),
            rec(0, 10, true, false),
            rec(0, 10, false, true),
        ]);
        r.net.msgs_sent = 30;
        r.net.bytes_sent = 600;
        r.net.fsyncs = 7;
        assert_eq!(r.msgs_per_commit(), Some(15.0));
        assert_eq!(r.bytes_per_commit(), Some(300.0));
        assert_eq!(r.fsyncs_per_commit(), Some(3.5));
        let nothing_committed = report(vec![rec(0, 10, false, true)]);
        assert_eq!(nothing_committed.msgs_per_commit(), None);
        assert_eq!(nothing_committed.fsyncs_per_commit(), None);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), Some(2.0));
        assert_eq!(percentile(&v, 75.0), Some(3.0));
        assert_eq!(percentile(&v, 1.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_empty_set() {
        assert_eq!(percentile(&[], 0.0), None);
        assert_eq!(percentile(&[], 1.0), None);
        assert_eq!(percentile(&[], 100.0), None);
        assert_eq!(percentile(&[], f64::NAN), None);
    }

    #[test]
    fn percentile_single_sample_is_every_percentile() {
        let one = [7.5];
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&one, p), Some(7.5));
        }
    }

    #[test]
    fn percentile_clamps_out_of_range_p() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, -5.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 250.0), Some(4.0));
        assert_eq!(percentile(&v, f64::NAN), Some(1.0));
    }

    #[test]
    fn run_perf_rate() {
        let perf = RunPerf {
            wall: Duration::from_millis(500),
            events: 1_000,
        };
        assert!((perf.events_per_sec() - 2_000.0).abs() < 1e-9);
        assert_eq!(RunPerf::default().events_per_sec(), 0.0);
    }
}
