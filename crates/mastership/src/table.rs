//! A bounded per-record ballot table and its range-run wire form.
//!
//! Nothing in the product uses this module since a shard's lease holder
//! leads every record of its shard: it stays, with its codec, only
//! because the `bench_all` kernels `mastership.lease_encode_ns` and
//! `mastership.lease_lookup_ns` name it (ROADMAP item 0(a)).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use mdcc_common::wire::{err, Dec, Enc, Wire, WireResult};

use crate::ballot::Ballot;

/// The longest run [`OverrideRun::decode`] accepts: the table size the
/// kernels use, so no run [`LeaseTable::runs`] produced is longer.
const MAX_RUN: usize = 64;

/// A run of consecutive record ids sharing one ballot — the compact wire
/// form of the table. Sequentially inserted keys hash to scattered ids,
/// so most runs are length 1; the run encoding wins when ids cluster and
/// costs only 4 bytes over a bare `(id, ballot)` pair otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverrideRun {
    /// First record id of the run.
    pub start: u64,
    /// Number of consecutive ids covered (≥ 1).
    pub len: u32,
    /// The ballot of every record in the run.
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
        // A length off the wire must not drive anyone's loop.
        if len == 0 || len as usize > MAX_RUN {
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

/// Bounded table of per-record ballots. Capacity is enforced by a
/// deterministic LRU-half spill: when an insert would exceed `cap`, the
/// least-recently-touched half is dropped.
#[derive(Debug, Clone, Default)]
pub struct LeaseTable {
    cap: usize,
    /// Monotone touch clock backing the LRU order (deterministic, no
    /// wall time).
    clock: u64,
    overrides: HashMap<u64, OverrideEntry>,
}

impl LeaseTable {
    /// Creates a table bounded to `cap` records (0 disables it).
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            clock: 0,
            overrides: HashMap::new(),
        }
    }

    /// The ballot for `record`, touching its LRU stamp.
    pub fn override_of(&mut self, record: u64) -> Option<Ballot> {
        self.clock += 1;
        let clock = self.clock;
        self.overrides.get_mut(&record).map(|e| {
            e.touched = clock;
            e.ballot
        })
    }

    /// Raises (or inserts) `record`'s ballot to `ballot`; returns whether
    /// the stored ballot rose. Spills the least-recently-touched half
    /// when the bound is exceeded.
    pub fn raise(&mut self, record: u64, ballot: Ballot) -> bool {
        if self.cap == 0 {
            return false;
        }
        self.clock += 1;
        let clock = self.clock;
        let rose = match self.overrides.entry(record) {
            Entry::Occupied(mut e) => {
                let e = e.get_mut();
                e.touched = clock;
                let rose = ballot > e.ballot;
                e.ballot = e.ballot.max(ballot);
                rose
            }
            Entry::Vacant(v) => {
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

    /// The table as runs sorted by id (consecutive ids with equal ballots
    /// merge).
    pub fn runs(&self) -> Vec<OverrideRun> {
        let mut entries: Vec<(u64, Ballot)> = self
            .overrides
            .iter()
            .map(|(id, e)| (*id, e.ballot))
            .collect();
        entries.sort_unstable_by_key(|(id, _)| *id);
        let mut runs: Vec<OverrideRun> = Vec::new();
        for (id, ballot) in entries {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::wire::{from_bytes, to_bytes};

    /// A run length is a `u32` off the wire; the codec refuses one
    /// longer than any table produces (and an empty run), and the
    /// longest run a full table can produce passes.
    #[test]
    fn a_hostile_run_length_costs_nothing() {
        let hostile = OverrideRun {
            start: 7,
            len: u32::MAX,
            ballot: Ballot::new(3, 1),
        };
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
