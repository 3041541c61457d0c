//! The lease-tenure audit: who claimed which shard, from when until when.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use mdcc_common::{NodeId, SimTime};

use crate::ballot::Ballot;
use crate::lease::Tenure;

/// One interval during which a node claimed mastership of a shard: from
/// the first majority-acked serve point through the last acked expiry
/// (or the relinquish instant, whichever is earlier). Spans of
/// *different* holders for the same shard must never overlap — the
/// lease-safety invariant the property tests check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseSpan {
    /// Shard concerned.
    pub shard: u32,
    /// Holder node.
    pub node: NodeId,
    /// Lease ballot of this tenure.
    pub ballot: Ballot,
    /// First instant the holder was allowed to serve.
    pub from: SimTime,
    /// Last instant (exclusive) the holder could have served.
    pub until: SimTime,
}

/// Tenures by `(shard, ballot)`.
type Spans = HashMap<(u32, Ballot), LeaseSpan>;

/// Shared collector of lease tenures, attached by the harness (purely
/// observational — never read by the protocol).
#[derive(Clone, Default)]
pub struct LeaseAudit {
    inner: Arc<Mutex<Spans>>,
}

impl LeaseAudit {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The one place the lock is taken; poisoned only if a recording
    /// panicked, and then the run is lost.
    fn with<R>(&self, f: impl FnOnce(&mut Spans) -> R) -> R {
        f(&mut self.inner.lock().expect("audit lock"))
    }

    /// Records what happened to `node`'s tenure of `shard` at `now`.
    pub(crate) fn record(&self, shard: u32, node: NodeId, event: Tenure, now: SimTime) {
        self.with(|spans| match event {
            Tenure::Acquired {
                ballot,
                from,
                until,
            } => {
                let span = LeaseSpan {
                    shard,
                    node,
                    ballot,
                    from,
                    until,
                };
                spans.insert((shard, ballot), span);
            }
            Tenure::Renewed { ballot, until } => {
                if let Some(span) = spans.get_mut(&(shard, ballot)) {
                    span.until = span.until.max(until);
                }
            }
            Tenure::Ended { ballot } => {
                if let Some(span) = spans.get_mut(&(shard, ballot)) {
                    span.until = span.until.min(now);
                }
            }
        });
    }

    /// All recorded tenures, sorted by `(shard, from, ballot)` so the
    /// order never depends on the map's.
    pub fn spans(&self) -> Vec<LeaseSpan> {
        let mut spans: Vec<LeaseSpan> = self.with(|spans| spans.values().copied().collect());
        spans.sort_by_key(|s| (s.shard, s.from, s.ballot));
        spans
    }
}
