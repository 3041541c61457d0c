//! Host-side measurement: process CPU time, peak RSS, and the bench's
//! own spans (kept in memory, exported as Chrome-trace JSON at the end).

use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// CPU seconds this process has run, from `/proc/self/schedstat` (first
/// field, ns on-CPU; resolution is one scheduler tick). Falls back to
/// wall time since the first call where procfs is unavailable.
pub fn cpu_seconds() -> f64 {
    if let Ok(stat) = std::fs::read_to_string("/proc/self/schedstat") {
        if let Some(ns) = stat
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
        {
            return ns as f64 / 1e9;
        }
    }
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Peak resident set of this process in MB (`VmHWM`); `None` without
/// procfs.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One bench-side span. Times are µs since the Unix epoch so spans of
/// the parent and of its child processes share one axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

fn now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// In-memory span recorder with an open-span stack.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now_us(),
            end_us: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = now_us();
        out
    }

    /// Adopts spans recorded elsewhere (a child process): their roots
    /// become children of the innermost open span.
    pub fn adopt(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        let root = self.open.last().copied();
        self.spans.extend(spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base).or(root),
            ..s
        }));
    }

    pub fn into_vec(self) -> Vec<Span> {
        self.spans
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete event per span, the causing span's name in `args`.
    pub fn to_chrome_json(&self) -> String {
        let t0 = self.spans.iter().map(|s| s.start_us).min().unwrap_or(0);
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = match s.parent {
                    Some(p) => crate::json::quote(&self.spans[p].name),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {}, \
                     \"dur\": {}, \"args\": {{\"parent\": {parent}}}}}",
                    crate::json::quote(&s.name),
                    s.start_us - t0,
                    s.end_us.saturating_sub(s.start_us),
                )
            })
            .collect();
        format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
    }
}
