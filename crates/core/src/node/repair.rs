//! Replica repair, the initiating side (the responder is the node's
//! `on_sync`): a restarted node's anti-entropy rounds, rotating over its
//! replica group, and the pull of a committed execution a node missed.
//! The machine is sans-IO: it names the peer to ask and whether to
//! re-arm; the node sends `SyncDigestReq` / `SyncRangePull` and arms
//! `Tick::SyncSweep` / `Tick::MissedPull`.
//!
//! A round's pull names, for each range whose digest differs, the
//! per-record digests the node holds there, and the peer ships only the
//! records whose digest is not among them: under traffic a range differs
//! by a record or two in flight, and the rest the node already holds. A
//! missed-commit pull names one key and nothing held, so that record
//! ships whatever its state.

use mdcc_common::{NodeId, TxnId};

/// Retries of a missed-commit pull (rotating target peers) before the
/// node gives up and waits for the next instance close to repair it via
/// snapshot adoption.
pub const MISSED_PULL_RETRIES: u32 = 3;

/// A sweep step: open a round with `peer`, if the replica group has
/// another member, and arm the next sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sweep {
    /// Where the round's `SyncDigestReq` goes.
    pub peer: Option<NodeId>,
}

/// The repair initiator of one storage node (`Default`: of a node that
/// never restarted).
#[derive(Debug, Default)]
pub struct Repair {
    /// The node was rebuilt from its disk after a crash.
    restarted: bool,
    /// The node's replica group less itself, in placement order.
    peers: Vec<NodeId>,
    /// Rounds opened so far: the rotation's position.
    cursor: usize,
    /// The node's adoption count at the previous sweep, and the sweeps
    /// in a row that adopted nothing.
    last_adoptions: u64,
    idle_sweeps: u32,
}

impl Repair {
    /// The initiator of a node rebuilt from its disk.
    pub fn restarted_node() -> Self {
        Self {
            restarted: true,
            ..Self::default()
        }
    }

    /// True for a node rebuilt from its disk.
    pub fn restarted(&self) -> bool {
        self.restarted
    }

    /// Boot: `me`'s replica group is `group`. A restarted node opens its
    /// first round; one that never restarted does nothing.
    pub fn on_start(&mut self, me: NodeId, group: &[NodeId]) -> Option<Sweep> {
        self.peers = group.iter().copied().filter(|n| *n != me).collect();
        self.restarted.then(|| self.round())
    }

    /// The sweep timer fired; the node has adopted `adoptions` records so
    /// far. `None` stops sweeping once more sweeps in a row than the
    /// `replication` factor adopted nothing: a full rotation, which
    /// includes a replica that never crashed, found nothing to repair.
    pub fn on_sweep(&mut self, adoptions: u64, replication: usize) -> Option<Sweep> {
        if adoptions == self.last_adoptions {
            self.idle_sweeps += 1;
        } else {
            self.last_adoptions = adoptions;
            self.idle_sweeps = 0;
        }
        (self.idle_sweeps as usize <= replication).then(|| self.round())
    }

    /// The next peer in rotation.
    fn round(&mut self) -> Sweep {
        if self.peers.is_empty() {
            return Sweep { peer: None };
        }
        let peer = self.peers[self.cursor % self.peers.len()];
        self.cursor += 1;
        Sweep { peer: Some(peer) }
    }
}

/// The `attempt`-th pull of `txn`'s execution on a record replicated at
/// `replicas`: the peer, one of them but `me`, rotating from `txn`'s
/// sequence number, and the attempt to re-arm with while retries are
/// left. `None` when the record has no other replica.
pub fn missed_pull(
    replicas: &[NodeId],
    me: NodeId,
    txn: TxnId,
    attempt: u32,
) -> Option<(NodeId, Option<u32>)> {
    let peers: Vec<NodeId> = replicas.iter().copied().filter(|n| *n != me).collect();
    if peers.is_empty() {
        return None;
    }
    let peer = peers[(txn.seq as usize + attempt as usize) % peers.len()];
    Some((peer, (attempt < MISSED_PULL_RETRIES).then_some(attempt + 1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> Vec<NodeId> {
        (0..5).map(NodeId).collect()
    }

    fn peer(sweep: Option<Sweep>) -> Option<u32> {
        sweep.and_then(|s| s.peer).map(|n| n.0)
    }

    #[test]
    fn a_node_that_never_restarted_opens_no_round() {
        let mut repair = Repair::default();
        assert!(!repair.restarted());
        assert_eq!(repair.on_start(NodeId(2), &group()), None);
    }

    #[test]
    fn a_restarted_node_rotates_over_its_peers_and_never_picks_itself() {
        let mut repair = Repair::restarted_node();
        let mut picked = vec![peer(repair.on_start(NodeId(2), &group()))];
        // Each sweep adopts something, so sweeping goes on.
        picked.extend((1..=8).map(|adoptions| peer(repair.on_sweep(adoptions, 5))));
        let expected = [0, 1, 3, 4, 0, 1, 3, 4, 0].map(Some);
        assert_eq!(picked, expected);
        let alone = Repair::restarted_node().on_start(NodeId(2), &[NodeId(2)]);
        assert_eq!(
            alone,
            Some(Sweep { peer: None }),
            "no round, but the sweep is armed"
        );
    }

    #[test]
    fn sweeping_stops_after_replication_plus_one_quiet_sweeps() {
        let mut repair = Repair::restarted_node();
        repair.on_start(NodeId(0), &group());
        for quiet in 1..=5 {
            assert!(
                repair.on_sweep(0, 5).is_some(),
                "quiet sweep {quiet} sweeps on"
            );
        }
        // An adoption resets the count.
        assert!(repair.on_sweep(7, 5).is_some());
        for quiet in 1..=5 {
            assert!(
                repair.on_sweep(7, 5).is_some(),
                "quiet sweep {quiet} after the adoption"
            );
        }
        assert_eq!(repair.on_sweep(7, 5), None, "the sixth quiet sweep stops");
    }

    #[test]
    fn a_missed_pull_rotates_from_the_sequence_number_until_retries_run_out() {
        let txn = TxnId::new(NodeId(9), 6);
        let pulls: Vec<(u32, Option<u32>)> = (0..=MISSED_PULL_RETRIES)
            .map(|attempt| missed_pull(&group(), NodeId(0), txn, attempt).expect("peers"))
            .map(|(peer, next)| (peer.0, next))
            .collect();
        // Peers 1–4; the target is peers[(seq + attempt) % 4].
        assert_eq!(pulls, [(3, Some(1)), (4, Some(2)), (1, Some(3)), (2, None)]);
        assert_eq!(missed_pull(&[NodeId(0)], NodeId(0), txn, 0), None);
    }
}
