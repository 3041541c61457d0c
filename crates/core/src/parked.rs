//! Proposals held because this replica is behind the version they read.
//!
//! A fast-ballot proposal whose option carries a read version ahead of
//! the local record (`AcceptorRecord::behind`) proves that this replica
//! is missing a decided instance: `vread` was read from some replica's
//! *committed* state. Judging it now could only say `StaleRead` or
//! `PendingOption` — a "no" about this replica's lag that splits the
//! acceptors' votes across two versions and leaves the coordinator
//! waiting out `LEARN_TIMEOUT`. The storage node parks such a proposal
//! here, before logging or voting, and judges it once the record has
//! caught up; to every other participant that is indistinguishable from
//! the network delivering the proposal later.
//!
//! The table is sans-IO state: it holds `(sender, option)` pairs and
//! hands them back. It never grows past [`PARKED_CAP`] and it forgets
//! everything at a crash, like any in-flight message.
//!
//! Invariant kept by the owner ([`crate::node::StorageNodeProcess`]):
//! every parked proposal reads a version *above* its record's current
//! one — [`Parked::release`] is called whenever a record's version moves.

use std::collections::{BTreeMap, HashMap};

use mdcc_common::{Key, NodeId, TxnId, Version};
use mdcc_paxos::TxnOption;

/// Proposals one node holds at most. Past it the oldest is handed back
/// to be judged as it stands, so a replica that never catches up costs a
/// bounded amount of memory and nothing waits on it forever.
pub const PARKED_CAP: usize = 4096;

/// The parked proposals of one storage node, in arrival order.
#[derive(Debug, Default)]
pub struct Parked {
    /// Arrival stamp → the proposal and who sent it.
    by_arrival: BTreeMap<u64, (NodeId, TxnOption)>,
    /// Arrival stamps per record, ascending.
    by_key: HashMap<Key, Vec<u64>>,
    next_stamp: u64,
}

impl Parked {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Proposals currently held.
    pub fn len(&self) -> usize {
        self.by_arrival.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.by_arrival.is_empty()
    }

    /// True when a proposal for `key` is held.
    pub fn waits_on(&self, key: &Key) -> bool {
        self.by_key.contains_key(key)
    }

    /// Holds `opt`, which `from` proposed and which reads a version the
    /// record has not reached. Past the cap the oldest held proposal is
    /// returned for the caller to judge now.
    pub fn park(&mut self, from: NodeId, opt: TxnOption) -> Option<(NodeId, TxnOption)> {
        debug_assert!(opt.op.read_version().is_some(), "nothing to wait for");
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.by_key.entry(opt.key.clone()).or_default().push(stamp);
        self.by_arrival.insert(stamp, (from, opt));
        if self.by_arrival.len() <= PARKED_CAP {
            return None;
        }
        let (oldest, _) = self.by_arrival.first_key_value()?;
        self.remove(*oldest)
    }

    /// `key` is now at `version`: hands back, in arrival order, every
    /// proposal for it that read `version` or an older one. Proposals
    /// still ahead of `version` stay.
    pub fn release(&mut self, key: &Key, version: Version) -> Vec<(NodeId, TxnOption)> {
        let Some(stamps) = self.by_key.get(key) else {
            return Vec::new();
        };
        let due: Vec<u64> = stamps
            .iter()
            .copied()
            .filter(|stamp| {
                let (_, opt) = &self.by_arrival[stamp];
                opt.op.read_version().is_none_or(|vread| vread <= version)
            })
            .collect();
        due.into_iter()
            .filter_map(|stamp| self.remove(stamp))
            .collect()
    }

    /// Removes the held proposal of `txn` for `key`, if any — the
    /// coordinator re-proposed it and the fresh copy is judged instead.
    pub fn take(&mut self, txn: TxnId, key: &Key) -> Option<(NodeId, TxnOption)> {
        let stamp = *self
            .by_key
            .get(key)?
            .iter()
            .find(|stamp| self.by_arrival[stamp].1.txn == txn)?;
        self.remove(stamp)
    }

    fn remove(&mut self, stamp: u64) -> Option<(NodeId, TxnOption)> {
        let (from, opt) = self.by_arrival.remove(&stamp)?;
        if let Some(stamps) = self.by_key.get_mut(&opt.key) {
            stamps.retain(|s| *s != stamp);
            if stamps.is_empty() {
                self.by_key.remove(&opt.key);
            }
        }
        Some((from, opt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::{PhysicalUpdate, Row, TableId, UpdateOp};

    fn key(pk: &str) -> Key {
        Key::new(TableId(1), pk)
    }

    fn write(seq: u64, pk: &str, vread: u64) -> TxnOption {
        TxnOption::solo(
            TxnId::new(NodeId(9), seq),
            key(pk),
            UpdateOp::Physical(PhysicalUpdate::write(
                Version(vread),
                Row::new().with("n", seq as i64),
            )),
        )
    }

    fn seqs(released: &[(NodeId, TxnOption)]) -> Vec<u64> {
        released.iter().map(|(_, opt)| opt.txn.seq).collect()
    }

    #[test]
    fn release_keeps_arrival_order_within_a_key() {
        let mut parked = Parked::new();
        // Interleaved with another key, and not in version order.
        parked.park(NodeId(1), write(1, "a", 3));
        parked.park(NodeId(2), write(2, "b", 2));
        parked.park(NodeId(3), write(3, "a", 2));
        parked.park(NodeId(4), write(4, "a", 3));
        let released = parked.release(&key("a"), Version(3));
        assert_eq!(seqs(&released), vec![1, 3, 4]);
        assert_eq!(
            released.iter().map(|(from, _)| from.0).collect::<Vec<_>>(),
            vec![1, 3, 4],
            "each proposal comes back with its sender"
        );
        assert_eq!(parked.len(), 1, "the other key's proposal stays");
        assert!(parked.waits_on(&key("b")) && !parked.waits_on(&key("a")));
    }

    #[test]
    fn proposals_still_ahead_of_the_new_version_stay() {
        let mut parked = Parked::new();
        parked.park(NodeId(1), write(1, "a", 2));
        parked.park(NodeId(1), write(2, "a", 4));
        parked.park(NodeId(1), write(3, "a", 3));
        assert_eq!(seqs(&parked.release(&key("a"), Version(1))), vec![]);
        assert_eq!(seqs(&parked.release(&key("a"), Version(3))), vec![1, 3]);
        assert_eq!(parked.len(), 1);
        assert!(parked.waits_on(&key("a")));
    }

    #[test]
    fn nothing_is_left_after_a_release_at_or_past_every_vread() {
        let mut parked = Parked::new();
        for seq in 0..5 {
            parked.park(NodeId(1), write(seq, "a", 2 + seq));
        }
        // The record jumped past all of them (snapshot adoption).
        assert_eq!(parked.release(&key("a"), Version(9)).len(), 5);
        assert!(parked.is_empty());
        assert!(!parked.waits_on(&key("a")));
        assert!(parked.release(&key("a"), Version(10)).is_empty());
    }

    #[test]
    fn a_retry_takes_the_parked_copy_of_that_record_only() {
        let mut parked = Parked::new();
        let txn = TxnId::new(NodeId(9), 7);
        parked.park(NodeId(1), write(7, "a", 2));
        parked.park(NodeId(1), write(7, "b", 2));
        parked.park(NodeId(1), write(8, "a", 2));
        let (from, opt) = parked.take(txn, &key("a")).expect("parked");
        assert_eq!((from, opt.txn, opt.key.clone()), (NodeId(1), txn, key("a")));
        assert!(parked.take(txn, &key("a")).is_none(), "taken once");
        assert_eq!(parked.len(), 2, "the other record's copy still waits");
        assert_eq!(seqs(&parked.release(&key("a"), Version(2))), vec![8]);
        assert_eq!(seqs(&parked.release(&key("b"), Version(2))), vec![7]);
    }

    #[test]
    fn the_cap_hands_back_the_oldest() {
        let mut parked = Parked::new();
        for seq in 0..PARKED_CAP as u64 {
            let pk = format!("k{}", seq % 7);
            assert!(parked.park(NodeId(1), write(seq, &pk, 2)).is_none());
        }
        assert_eq!(parked.len(), PARKED_CAP);
        let (_, oldest) = parked
            .park(NodeId(1), write(90_000, "z", 2))
            .expect("over the cap");
        assert_eq!(oldest.txn.seq, 0);
        let (_, next) = parked
            .park(NodeId(1), write(90_001, "z", 2))
            .expect("still over the cap");
        assert_eq!(next.txn.seq, 1);
        assert_eq!(parked.len(), PARKED_CAP);
        // The evicted ones are gone from their key's queue too.
        let k0 = parked.release(&key("k0"), Version(2));
        assert_eq!(k0.first().map(|(_, o)| o.txn.seq), Some(7));
    }
}
