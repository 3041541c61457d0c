//! Deterministic tracing and latency anatomy.
//!
//! The simulator can only answer "how long did this commit take?" —
//! this crate answers *where the time went*. Protocol code (TM, paxos
//! leaders, storage nodes) and the transport record [`Span`]s — keyed
//! by transaction, record and [`Phase`], stamped with virtual sim time —
//! into a shared [`TraceHandle`]. A finished run harvests a
//! [`TraceData`] which feeds two consumers:
//!
//! * [`TraceData::anatomy`] — per-phase p50/p95/p99 latency tables
//!   printed by the fig drivers and tabulated in EXPERIMENTS.md;
//! * [`TraceData::to_chrome_json`] — a Chrome-trace/Perfetto JSON
//!   timeline (`chrome://tracing` or <https://ui.perfetto.dev>).
//!
//! Tracing is strictly *observational*: recording a span never touches
//! the RNG, never schedules an event and never changes a wire byte, so
//! a traced run is outcome- and byte-identical to an untraced one (the
//! cluster test-suite enforces this). Timestamps are virtual sim time,
//! so the exported JSON is a pure function of the seed: same seed ⇒
//! byte-identical trace.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use mdcc_common::{DcId, Key, NodeId, SimDuration, SimTime, TxnId};

// ---------------------------------------------------------------------
// Config.
// ---------------------------------------------------------------------

/// Tracing knobs. Default is the hard off-switch: no span is recorded,
/// no per-event branch beyond one `bool` test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. Off ⇒ every record call is a no-op.
    pub enabled: bool,
    /// Keep protocol spans for 1-in-`sample` transactions (keyed on the
    /// coordinator-local txn sequence number, so sampling is
    /// deterministic and seed-stable). `1` traces every transaction.
    /// Transport and WAL spans are not txn-sampled; they are bounded by
    /// message volume and always kept while tracing is on.
    pub sample: u64,
    /// Also collect host wall-clock per-process profiles (the only
    /// non-deterministic output; kept out of the exported JSON).
    pub profile: bool,
}

impl TraceConfig {
    /// Tracing disabled (the default).
    pub const fn off() -> Self {
        Self {
            enabled: false,
            sample: 1,
            profile: false,
        }
    }

    /// Trace every transaction, no host profiling.
    pub const fn on() -> Self {
        Self {
            enabled: true,
            sample: 1,
            profile: false,
        }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::off()
    }
}

// ---------------------------------------------------------------------
// Phases.
// ---------------------------------------------------------------------

/// What a span measures. Protocol phases mirror the paper's commit
/// anatomy; `Net*` phases decompose one message's life on the wire;
/// `Wal*` phases cover durability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Classic Phase1a → quorum of Phase1b (ballot acquisition).
    Phase1,
    /// Classic Phase2a broadcast → leader observes the instance decided.
    Phase2a,
    /// Proposal fan-out → quorum of learned votes at the TM, per record.
    Phase2b,
    /// End-to-end commit attempt at the coordinating TM.
    Commit,
    /// Commit decision → visibility application at the last replica.
    Visibility,
    /// Synchronous WAL flush charged on a durable append.
    WalFsync,
    /// WAL scan + replay during node restart.
    WalReplay,
    /// Message waits in the sender-side per-link FIFO.
    NetQueue,
    /// Message occupies the link (serialization at link bandwidth).
    NetTransmit,
    /// Delivered message waits for a busy receiver, then is serviced
    /// (per-byte deserialization + handler floor).
    NetService,
}

impl Phase {
    /// Stable display order for anatomy tables.
    pub const ALL: [Phase; 10] = [
        Phase::Phase1,
        Phase::Phase2a,
        Phase::Phase2b,
        Phase::Commit,
        Phase::Visibility,
        Phase::WalFsync,
        Phase::WalReplay,
        Phase::NetQueue,
        Phase::NetTransmit,
        Phase::NetService,
    ];

    /// Lower-case name used in anatomy tables and trace JSON.
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Phase1 => "phase1",
            Phase::Phase2a => "phase2a",
            Phase::Phase2b => "phase2b",
            Phase::Commit => "commit",
            Phase::Visibility => "visibility",
            Phase::WalFsync => "wal_fsync",
            Phase::WalReplay => "wal_replay",
            Phase::NetQueue => "net_queue",
            Phase::NetTransmit => "net_transmit",
            Phase::NetService => "net_service",
        }
    }

    /// Chrome-trace category.
    const fn category(self) -> &'static str {
        match self {
            Phase::Phase1 | Phase::Phase2a | Phase::Phase2b | Phase::Commit | Phase::Visibility => {
                "protocol"
            }
            Phase::WalFsync | Phase::WalReplay => "wal",
            Phase::NetQueue | Phase::NetTransmit | Phase::NetService => "net",
        }
    }
}

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

/// A closed interval of virtual time attributed to one [`Phase`] on one
/// node, optionally keyed by transaction / record / traffic class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Node the span is attributed to (Chrome `tid`).
    pub node: NodeId,
    /// Data center of that node (Chrome `pid`).
    pub dc: DcId,
    /// What this interval measures.
    pub phase: Phase,
    /// Start, virtual time.
    pub start: SimTime,
    /// End, virtual time (`end >= start`).
    pub end: SimTime,
    /// Transaction the span belongs to, when one is in scope.
    pub txn: Option<TxnId>,
    /// Record the span belongs to (per-record phases).
    pub key: Option<Key>,
    /// Traffic-class label for `Net*` spans ("protocol", "read", …).
    pub class: Option<&'static str>,
}

impl Span {
    /// Span duration.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// One sample of a Chrome counter track (per-link backlog gauges).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Counter track name, e.g. `link dc0->dc3`.
    pub name: &'static str,
    /// Source/destination pair the sample belongs to.
    pub from: DcId,
    /// Destination data center.
    pub to: DcId,
    /// Sample time.
    pub at: SimTime,
    /// Backlog on the directed link at `at`, in µs of transmission time.
    pub backlog_us: u64,
}

#[derive(Debug, Clone)]
struct OpenSpan {
    dc: DcId,
    start: SimTime,
    end: SimTime,
    /// `extend`ed spans close at harvest; merely `begin`-but-never-ended
    /// spans (aborted / in-flight at drain) are dropped.
    closable: bool,
}

/// Identity of an open span: the owning node plus (txn, record, phase).
/// `key = None` covers txn-wide phases like `Commit`; `txn = None` covers
/// leader-side ballot phases, which exist per (node, record) instead.
type SpanKey = (NodeId, Option<TxnId>, Option<Key>, Phase);

// ---------------------------------------------------------------------
// Collector & handle.
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Collector {
    cfg: TraceConfig,
    spans: Vec<Span>,
    counters: Vec<CounterSample>,
    open: HashMap<SpanKey, OpenSpan>,
}

/// Shared, cloneable handle to one run's trace collector.
///
/// The world, every TM and every storage node hold clones of the same
/// handle and append to one span stream, which sits behind an
/// `Arc<Mutex<…>>`. The simulator runs on one thread, so the lock is
/// never contended.
#[derive(Debug, Clone)]
pub struct TraceHandle(Arc<Mutex<Collector>>);

impl TraceHandle {
    /// Creates a collector for one run.
    pub fn new(cfg: TraceConfig) -> Self {
        TraceHandle(Arc::new(Mutex::new(Collector {
            cfg,
            spans: Vec::new(),
            counters: Vec::new(),
            open: HashMap::new(),
        })))
    }

    /// The configuration the collector was created with.
    pub fn config(&self) -> TraceConfig {
        self.0.lock().unwrap().cfg
    }

    /// Whether any recording happens at all.
    pub fn enabled(&self) -> bool {
        self.0.lock().unwrap().cfg.enabled
    }

    /// Whether the host-wall-clock profiler is requested.
    pub fn profile(&self) -> bool {
        let cfg = self.0.lock().unwrap().cfg;
        cfg.enabled && cfg.profile
    }

    /// Deterministic 1-in-`sample` filter for txn-keyed protocol spans;
    /// spans with no transaction in scope are kept whenever tracing is on.
    pub fn sampled(&self, txn: Option<TxnId>) -> bool {
        let cfg = self.0.lock().unwrap().cfg;
        cfg.enabled && txn.map(|t| t.seq % cfg.sample.max(1) == 0).unwrap_or(true)
    }

    /// Opens a span; first start wins (re-begins on retries are no-ops,
    /// so a span covers the whole retry sequence).
    pub fn begin(
        &self,
        node: NodeId,
        dc: DcId,
        txn: Option<TxnId>,
        key: Option<Key>,
        phase: Phase,
        at: SimTime,
    ) {
        if !self.sampled(txn) {
            return;
        }
        self.0
            .lock()
            .unwrap()
            .open
            .entry((node, txn, key, phase))
            .or_insert(OpenSpan {
                dc,
                start: at,
                end: at,
                closable: false,
            });
    }

    /// Closes a span and emits it. Unmatched ends are ignored.
    pub fn end(
        &self,
        node: NodeId,
        txn: Option<TxnId>,
        key: Option<Key>,
        phase: Phase,
        at: SimTime,
    ) {
        if !self.sampled(txn) {
            return;
        }
        let mut c = self.0.lock().unwrap();
        if let Some(open) = c.open.remove(&(node, txn, key.clone(), phase)) {
            c.spans.push(Span {
                node,
                dc: open.dc,
                phase,
                start: open.start,
                end: at.max(open.start),
                txn,
                key,
                class: None,
            });
        }
    }

    /// Pushes a span's end time outward without closing it (visibility
    /// fan-out: each replica application extends; harvest closes at the
    /// last one). Extended spans survive harvest even if never `end`ed.
    pub fn extend(
        &self,
        node: NodeId,
        txn: Option<TxnId>,
        key: Option<Key>,
        phase: Phase,
        at: SimTime,
    ) {
        if !self.sampled(txn) {
            return;
        }
        let mut c = self.0.lock().unwrap();
        if let Some(open) = c.open.get_mut(&(node, txn, key, phase)) {
            open.end = open.end.max(at);
            open.closable = true;
        }
    }

    /// Records an already-closed span directly (transport / WAL spans
    /// whose bounds are known at record time).
    pub fn span(&self, span: Span) {
        let mut c = self.0.lock().unwrap();
        if !c.cfg.enabled {
            return;
        }
        c.spans.push(span);
    }

    /// Records one sample of a per-link backlog gauge.
    pub fn counter(&self, sample: CounterSample) {
        let mut c = self.0.lock().unwrap();
        if !c.cfg.enabled {
            return;
        }
        c.counters.push(sample);
    }

    /// Harvests the run's trace: closes `extend`ed spans at their last
    /// observed end, drops never-extended opens (in-flight at drain),
    /// and returns everything deterministically sorted.
    pub fn take(&self) -> TraceData {
        let mut c = self.0.lock().unwrap();
        let open = std::mem::take(&mut c.open);
        let mut closable: Vec<(SpanKey, OpenSpan)> =
            open.into_iter().filter(|(_, o)| o.closable).collect();
        // HashMap drain order is unspecified; sort by identity first.
        closable.sort_by(|a, b| a.0.cmp(&b.0));
        for ((node, txn, key, phase), o) in closable {
            c.spans.push(Span {
                node,
                dc: o.dc,
                phase,
                start: o.start,
                end: o.end,
                txn,
                key,
                class: None,
            });
        }
        let mut spans = std::mem::take(&mut c.spans);
        spans.sort_by(|a, b| {
            (a.start, a.end, a.phase, a.node, &a.txn, &a.key)
                .cmp(&(b.start, b.end, b.phase, b.node, &b.txn, &b.key))
        });
        let mut counters = std::mem::take(&mut c.counters);
        counters.sort_by_key(|c| (c.at, c.from, c.to, c.backlog_us));
        TraceData { spans, counters }
    }
}

// ---------------------------------------------------------------------
// Harvested trace.
// ---------------------------------------------------------------------

/// A run's complete trace, deterministically ordered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceData {
    /// All closed spans, sorted by (start, end, phase, node, txn, key).
    pub spans: Vec<Span>,
    /// All counter samples, sorted by (time, link).
    pub counters: Vec<CounterSample>,
}

impl TraceData {
    /// True when nothing was recorded (tracing off or no activity).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty()
    }

    /// Per-(phase, class) latency anatomy over all spans.
    pub fn anatomy(&self) -> Anatomy {
        let mut buckets: HashMap<(Phase, Option<&'static str>), Vec<u64>> = HashMap::new();
        for s in &self.spans {
            buckets
                .entry((s.phase, s.class))
                .or_default()
                .push(s.duration().as_micros());
        }
        let mut rows: Vec<PhaseStat> = buckets
            .into_iter()
            .map(|((phase, class), mut us)| {
                us.sort_unstable();
                PhaseStat {
                    phase,
                    class,
                    count: us.len() as u64,
                    p50_ms: pct_us(&us, 50.0) / 1_000.0,
                    p95_ms: pct_us(&us, 95.0) / 1_000.0,
                    p99_ms: pct_us(&us, 99.0) / 1_000.0,
                }
            })
            .collect();
        rows.sort_by(|a, b| (a.phase, a.class).cmp(&(b.phase, b.class)));
        Anatomy { rows }
    }

    /// Serializes the trace as Chrome trace-event JSON (the format
    /// `chrome://tracing` and Perfetto load). `pid` is the data center,
    /// `tid` the node; durations and timestamps are virtual µs. The
    /// output is a pure function of the span list, hence of the seed.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.spans.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for s in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{",
                s.phase.name(),
                s.phase.category(),
                s.start.as_micros(),
                s.duration().as_micros(),
                s.dc.0,
                s.node.0,
            ));
            let mut first_arg = true;
            if let Some(txn) = &s.txn {
                out.push_str(&format!("\"txn\":\"{}\"", json_escape(&txn.to_string())));
                first_arg = false;
            }
            if let Some(key) = &s.key {
                if !first_arg {
                    out.push(',');
                }
                out.push_str(&format!("\"key\":\"{}\"", json_escape(&key.to_string())));
                first_arg = false;
            }
            if let Some(class) = s.class {
                if !first_arg {
                    out.push(',');
                }
                out.push_str(&format!("\"class\":\"{class}\""));
            }
            out.push_str("}}");
        }
        for cs in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{} {}->{}\",\"cat\":\"net\",\"ph\":\"C\",\"ts\":{},\"pid\":{},\"tid\":0,\"args\":{{\"backlog_us\":{}}}}}",
                cs.name,
                cs.from,
                cs.to,
                cs.at.as_micros(),
                cs.from.0,
                cs.backlog_us,
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Nearest-rank percentile over sorted µs durations, as f64 µs.
fn pct_us(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil().max(1.0) as usize;
    sorted_us[rank.min(sorted_us.len()) - 1] as f64
}

// ---------------------------------------------------------------------
// Anatomy table.
// ---------------------------------------------------------------------

/// Latency statistics for one (phase, traffic-class) bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// The phase.
    pub phase: Phase,
    /// Traffic-class label for `Net*` rows, `None` for protocol/WAL.
    pub class: Option<&'static str>,
    /// Spans in the bucket.
    pub count: u64,
    /// Median, ms.
    pub p50_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
}

impl PhaseStat {
    /// Row label: phase name, plus class where present.
    pub fn label(&self) -> String {
        match self.class {
            Some(c) => format!("{} [{}]", self.phase.name(), c),
            None => self.phase.name().to_string(),
        }
    }
}

/// Per-phase latency breakdown; `Display` renders the driver table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Anatomy {
    /// One row per (phase, class) bucket, in [`Phase::ALL`] order.
    pub rows: Vec<PhaseStat>,
}

impl Anatomy {
    /// Stats for a phase, summed over classes — `None` if never traced.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseStat> {
        self.rows.iter().find(|r| r.phase == phase)
    }

    /// Number of distinct phases observed.
    pub fn phase_count(&self) -> usize {
        let mut phases: Vec<Phase> = self.rows.iter().map(|r| r.phase).collect();
        phases.dedup();
        phases.len()
    }
}

impl fmt::Display for Anatomy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rows.is_empty() {
            return writeln!(f, "  (no spans recorded)");
        }
        writeln!(
            f,
            "  {:<24} {:>8} {:>9} {:>9} {:>9}",
            "phase", "count", "p50 ms", "p95 ms", "p99 ms"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<24} {:>8} {:>9.3} {:>9.3} {:>9.3}",
                r.label(),
                r.count,
                r.p50_ms,
                r.p95_ms,
                r.p99_ms
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::TableId;

    fn k(pk: &str) -> Key {
        Key::new(TableId(1), pk)
    }

    fn handle() -> TraceHandle {
        TraceHandle::new(TraceConfig::on())
    }

    #[test]
    fn off_switch_records_nothing() {
        let t = TraceHandle::new(TraceConfig::off());
        let txn = TxnId::new(NodeId(1), 0);
        t.begin(
            NodeId(1),
            DcId(0),
            Some(txn),
            None,
            Phase::Commit,
            SimTime(10),
        );
        t.end(NodeId(1), Some(txn), None, Phase::Commit, SimTime(50));
        t.span(Span {
            node: NodeId(2),
            dc: DcId(1),
            phase: Phase::NetQueue,
            start: SimTime(0),
            end: SimTime(5),
            txn: None,
            key: None,
            class: Some("protocol"),
        });
        assert!(t.take().is_empty());
    }

    #[test]
    fn begin_end_produces_span() {
        let t = handle();
        let txn = TxnId::new(NodeId(3), 7);
        t.begin(
            NodeId(3),
            DcId(0),
            Some(txn),
            Some(k("a")),
            Phase::Phase2b,
            SimTime(100),
        );
        t.end(
            NodeId(3),
            Some(txn),
            Some(k("a")),
            Phase::Phase2b,
            SimTime(350),
        );
        let data = t.take();
        assert_eq!(data.spans.len(), 1);
        let s = &data.spans[0];
        assert_eq!(s.phase, Phase::Phase2b);
        assert_eq!(s.duration(), SimDuration(250));
        assert_eq!(s.txn, Some(txn));
        assert_eq!(s.key, Some(k("a")));
    }

    #[test]
    fn first_begin_wins_and_unmatched_end_is_ignored() {
        let t = handle();
        let txn = TxnId::new(NodeId(1), 1);
        t.begin(
            NodeId(1),
            DcId(0),
            Some(txn),
            None,
            Phase::Phase1,
            SimTime(10),
        );
        t.begin(
            NodeId(1),
            DcId(0),
            Some(txn),
            None,
            Phase::Phase1,
            SimTime(20),
        );
        t.end(NodeId(1), Some(txn), None, Phase::Phase1, SimTime(40));
        t.end(NodeId(1), Some(txn), None, Phase::Phase1, SimTime(99)); // already closed
        let data = t.take();
        assert_eq!(data.spans.len(), 1);
        assert_eq!(data.spans[0].start, SimTime(10));
        assert_eq!(data.spans[0].end, SimTime(40));
    }

    #[test]
    fn extended_spans_close_at_harvest_and_bare_opens_drop() {
        let t = handle();
        let txn = TxnId::new(NodeId(2), 4);
        t.begin(
            NodeId(2),
            DcId(1),
            Some(txn),
            None,
            Phase::Visibility,
            SimTime(100),
        );
        t.extend(NodeId(2), Some(txn), None, Phase::Visibility, SimTime(180));
        t.extend(NodeId(2), Some(txn), None, Phase::Visibility, SimTime(150)); // non-monotone ok
                                                                               // A begun-but-never-touched span must not survive harvest.
        t.begin(
            NodeId(2),
            DcId(1),
            Some(txn),
            None,
            Phase::Commit,
            SimTime(100),
        );
        let data = t.take();
        assert_eq!(data.spans.len(), 1);
        assert_eq!(data.spans[0].phase, Phase::Visibility);
        assert_eq!(data.spans[0].end, SimTime(180));
    }

    #[test]
    fn sampling_keeps_one_in_n_by_txn_seq() {
        let t = TraceHandle::new(TraceConfig {
            enabled: true,
            sample: 4,
            profile: false,
        });
        for seq in 0..16 {
            let txn = TxnId::new(NodeId(1), seq);
            t.begin(
                NodeId(1),
                DcId(0),
                Some(txn),
                None,
                Phase::Commit,
                SimTime(seq),
            );
            t.end(NodeId(1), Some(txn), None, Phase::Commit, SimTime(seq + 1));
        }
        assert_eq!(t.take().spans.len(), 4); // seq 0, 4, 8, 12
    }

    #[test]
    fn anatomy_buckets_by_phase_and_class() {
        let t = handle();
        for (i, class) in [("a", "protocol"), ("b", "protocol"), ("c", "read")]
            .iter()
            .enumerate()
        {
            t.span(Span {
                node: NodeId(i as u32),
                dc: DcId(0),
                phase: Phase::NetQueue,
                start: SimTime(0),
                end: SimTime(1_000 * (i as u64 + 1)),
                txn: None,
                key: None,
                class: Some(class.1),
            });
        }
        let txn = TxnId::new(NodeId(0), 0);
        t.begin(
            NodeId(0),
            DcId(0),
            Some(txn),
            None,
            Phase::Commit,
            SimTime(0),
        );
        t.end(NodeId(0), Some(txn), None, Phase::Commit, SimTime(9_000));
        let anatomy = t.take().anatomy();
        assert_eq!(anatomy.rows.len(), 3); // commit, netqueue×2 classes
        assert_eq!(anatomy.phase_count(), 2);
        let commit = anatomy.phase(Phase::Commit).unwrap();
        assert_eq!(commit.count, 1);
        assert!((commit.p50_ms - 9.0).abs() < 1e-9);
    }

    #[test]
    fn chrome_json_is_deterministic_and_well_formed() {
        let build = || {
            let t = handle();
            let txn = TxnId::new(NodeId(2), 3);
            t.begin(
                NodeId(2),
                DcId(1),
                Some(txn),
                Some(k("x\"esc")),
                Phase::Phase2b,
                SimTime(5),
            );
            t.end(
                NodeId(2),
                Some(txn),
                Some(k("x\"esc")),
                Phase::Phase2b,
                SimTime(25),
            );
            t.counter(CounterSample {
                name: "link",
                from: DcId(0),
                to: DcId(1),
                at: SimTime(7),
                backlog_us: 42,
            });
            t.take().to_chrome_json()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(a.ends_with("]}"));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ph\":\"C\""));
        assert!(a.contains("x\\\"esc"));
        assert!(a.contains("\"dur\":20"));
    }

    #[test]
    fn harvest_order_is_independent_of_insertion_order() {
        let spans = |order: &[u64]| {
            let t = handle();
            for &seq in order {
                let txn = TxnId::new(NodeId(1), seq);
                t.begin(
                    NodeId(1),
                    DcId(0),
                    Some(txn),
                    None,
                    Phase::Commit,
                    SimTime(10),
                );
                t.extend(NodeId(1), Some(txn), None, Phase::Commit, SimTime(20));
            }
            t.take().spans
        };
        assert_eq!(spans(&[3, 1, 2]), spans(&[1, 2, 3]));
    }
}
