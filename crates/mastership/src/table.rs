//! Per-record lease overrides: the bounded table a storage node keeps
//! per shard, and its range-run wire form.

use std::collections::HashMap;

use mdcc_common::wire::{err, Dec, Enc, Wire, WireResult};

use crate::ballot::Ballot;

/// Bound on a shard's record-override table (records whose promise rose
/// above the shard's base lease ballot), the `cap` a storage node gives
/// [`LeaseTable::new`]. Past it the least-recently-touched half is
/// spilled deterministically; a spilled record merely falls back to the
/// base lease floor.
pub const LEASE_RECORD_OVERRIDES: usize = 64;

/// Stable 64-bit record id: FNV-1a over the key's wire encoding. The
/// override table and its wire codec work in id space so they stay
/// key-type-agnostic and fixed-width.
pub fn record_id(key_bytes: &[u8]) -> u64 {
    mdcc_common::wire::fnv1a64(key_bytes)
}

/// A run of consecutive record ids sharing one override ballot — the
/// compact wire form of the override table. Sequentially inserted keys
/// hash to scattered ids, so most runs are length 1; the run encoding
/// wins when ids cluster (range leases, enumerated record spaces) and
/// costs only 4 bytes over a bare `(id, ballot)` pair otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverrideRun {
    /// First record id of the run.
    pub start: u64,
    /// Number of consecutive ids covered (≥ 1).
    pub len: u32,
    /// Override ballot, the promise floor for every record in the run.
    pub ballot: Ballot,
}

impl Wire for OverrideRun {
    fn encode(&self, out: &mut Enc) {
        out.u64(self.start);
        out.u32(self.len);
        self.ballot.encode(out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        let (start, len) = (inp.u64()?, inp.u32()?);
        // A table holds at most `LEASE_RECORD_OVERRIDES` records, so no
        // run [`LeaseTable::runs`] produced is longer (or empty).
        if len == 0 || len as usize > LEASE_RECORD_OVERRIDES {
            return err("override run length");
        }
        let ballot = Ballot::decode(inp)?;
        Ok(Self { start, len, ballot })
    }
}

#[derive(Debug, Clone, Copy)]
struct OverrideEntry {
    ballot: Ballot,
    touched: u64,
}

/// Bounded per-shard table of per-record promise-floor overrides: hot
/// records whose promise rose past the shard's base lease ballot (a
/// contested classic round, or state inherited from a predecessor).
/// Capacity is enforced by a deterministic LRU-half spill — when an
/// insert would exceed `cap`, the least-recently-touched half is
/// dropped and those records fall back to the shard's base floor
/// (safe: the base floor is a lower bound, never wrong, just colder).
#[derive(Debug, Clone, Default)]
pub struct LeaseTable {
    cap: usize,
    /// Monotone touch clock backing the LRU order (deterministic, no
    /// wall time).
    clock: u64,
    overrides: HashMap<u64, OverrideEntry>,
}

impl LeaseTable {
    /// Creates a table bounded to `cap` overrides (0 disables it).
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            clock: 0,
            overrides: HashMap::new(),
        }
    }

    /// Number of overrides currently held.
    pub fn len(&self) -> usize {
        self.overrides.len()
    }

    /// Whether the table holds no overrides.
    pub fn is_empty(&self) -> bool {
        self.overrides.is_empty()
    }

    /// The override ballot for `record`, touching its LRU stamp.
    pub fn override_of(&mut self, record: u64) -> Option<Ballot> {
        self.clock += 1;
        let clock = self.clock;
        self.overrides.get_mut(&record).map(|e| {
            e.touched = clock;
            e.ballot
        })
    }

    /// The override ballot for `record` without touching LRU state.
    pub fn peek(&self, record: u64) -> Option<Ballot> {
        self.overrides.get(&record).map(|e| e.ballot)
    }

    /// Retires the override for `record`, if any — the holder observed
    /// the override target bounce traffic back (stale promise or a
    /// crashed node), so record routing reverts to the shard lease.
    /// Routing only: dropping a floor is always safe, the acceptors'
    /// actual Paxos promises remain the ground truth.
    pub fn remove(&mut self, record: u64) -> bool {
        self.overrides.remove(&record).is_some()
    }

    /// Raises (or inserts) the override for `record` to `ballot`;
    /// returns whether the stored floor rose. Spills the
    /// least-recently-touched half when the bound is exceeded.
    pub fn raise(&mut self, record: u64, ballot: Ballot) -> bool {
        if self.cap == 0 {
            return false;
        }
        self.clock += 1;
        let clock = self.clock;
        let rose = match self.overrides.entry(record) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let e = e.get_mut();
                e.touched = clock;
                if ballot > e.ballot {
                    e.ballot = ballot;
                    true
                } else {
                    false
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(OverrideEntry {
                    ballot,
                    touched: clock,
                });
                true
            }
        };
        if self.overrides.len() > self.cap {
            self.spill_lru_half();
        }
        rose
    }

    /// Drops the least-recently-touched half of the table
    /// (deterministic: the touch clock is monotone and collision-free).
    fn spill_lru_half(&mut self) {
        let mut stamps: Vec<u64> = self.overrides.values().map(|e| e.touched).collect();
        stamps.sort_unstable();
        let cutoff = stamps[stamps.len() / 2];
        self.overrides.retain(|_, e| e.touched > cutoff);
    }

    /// The table as sorted, coalesced runs (consecutive ids with equal
    /// ballots merge) — the wire form shipped on handoff.
    pub fn runs(&self) -> Vec<OverrideRun> {
        let mut entries = self.iter_sorted();
        let mut runs: Vec<OverrideRun> = Vec::new();
        for (id, ballot) in entries.drain(..) {
            match runs.last_mut() {
                Some(r) if r.ballot == ballot && r.start + r.len as u64 == id => r.len += 1,
                _ => runs.push(OverrideRun {
                    start: id,
                    len: 1,
                    ballot,
                }),
            }
        }
        runs
    }

    /// Installs decoded runs (a predecessor's table), raising each
    /// record's floor to at least the run's ballot; returns the records
    /// whose floor rose, for the caller to log. The runs come off the
    /// wire: whatever their lengths claim, a table of capacity `cap`
    /// never held more than `cap` records, so only the first `cap` ids
    /// are looked at.
    pub fn install_runs(&mut self, runs: &[OverrideRun]) -> Vec<(u64, Ballot)> {
        let ids = runs.iter().flat_map(|run| {
            (0..u64::from(run.len)).map(|i| (run.start.wrapping_add(i), run.ballot))
        });
        ids.take(self.cap)
            .filter(|(record, ballot)| self.raise(*record, *ballot))
            .collect()
    }

    /// All `(record id, ballot)` pairs sorted by id — deterministic
    /// iteration for WAL re-logging at checkpoints.
    pub fn iter_sorted(&self) -> Vec<(u64, Ballot)> {
        let mut entries: Vec<(u64, Ballot)> = self
            .overrides
            .iter()
            .map(|(id, e)| (*id, e.ballot))
            .collect();
        entries.sort_unstable_by_key(|(id, _)| *id);
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::wire::{from_bytes, to_bytes};

    /// A run length is a `u32` off the wire; it must not drive the loop.
    #[test]
    fn a_hostile_run_length_costs_nothing() {
        let hostile = OverrideRun {
            start: 7,
            len: u32::MAX,
            ballot: Ballot::new(3, 1),
        };
        let started = std::time::Instant::now();
        let mut table = LeaseTable::new(LEASE_RECORD_OVERRIDES);
        let raised = table.install_runs(&[hostile, hostile]);
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(raised.len(), LEASE_RECORD_OVERRIDES, "no more than fit");
        assert_eq!(table.len(), LEASE_RECORD_OVERRIDES);
        // And the codec refuses it (and an empty run) before it gets
        // that far; the longest run a full table can produce passes.
        for (len, ok) in [
            (u32::MAX, false),
            (65, false),
            (0, false),
            (64, true),
            (1, true),
        ] {
            let run = OverrideRun { len, ..hostile };
            assert_eq!(
                from_bytes::<OverrideRun>(&to_bytes(&run)).is_ok(),
                ok,
                "{len}"
            );
        }
    }
}
