//! Ballot leader election for one shard, omnipaxos style: heartbeat
//! rounds, who answered, the highest ballot seen, and the rule that
//! turns them into "campaign with ballot *b*" or nothing. It also keeps
//! the one thing an election is for — the highest-ballot live holder this
//! node knows of — because a known live holder is what suppresses a
//! campaign. Pure: inputs are replies, ballots and the clock; the only
//! outputs are return values.

use mdcc_common::{NodeId, SimDuration, SimTime};

use crate::ballot::Ballot;
use crate::msg::HolderHint;

/// Base interval between heartbeat/lease ticks at every replica. Each
/// tick closes the previous heartbeat round, renews any held lease, and
/// checks the migration hysteresis.
pub const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// Added to the tick delay after a contested election round
/// (omnipaxos-style increasing heartbeat delay), decayed back to the
/// base once a lease settles.
pub const HB_DELAY_INCREMENT: SimDuration = SimDuration::from_millis(25);

/// One replica's view of one shard's election.
#[derive(Debug, Clone)]
pub(crate) struct Election {
    me: NodeId,
    majority: usize,
    candidacy: Ballot,
    round: u32,
    /// Peers that replied to a recent round (current or previous — one
    /// WAN round trip can outlast a heartbeat interval).
    replies: Vec<NodeId>,
    max_seen: Ballot,
    /// The routing hint: the highest-ballot lease heard of.
    hint: Option<HolderHint>,
}

impl Election {
    pub(crate) fn new(me: NodeId, majority: usize) -> Self {
        Self {
            me,
            majority,
            candidacy: Ballot::new(0, me.0 as u64),
            round: 0,
            replies: Vec::new(),
            max_seen: Ballot::default(),
            hint: None,
        }
    }

    /// Closes the current heartbeat round and opens the next; returns
    /// its number.
    pub(crate) fn open_round(&mut self) -> u32 {
        self.round += 1;
        self.replies.clear();
        self.round
    }

    /// A peer answered round `round` with its top ballot and its hint.
    pub(crate) fn on_reply(
        &mut self,
        from: NodeId,
        round: u32,
        ballot: Ballot,
        holder: Option<HolderHint>,
        now: SimTime,
    ) {
        // One WAN round trip can outlast a heartbeat interval, so
        // replies to the previous round still prove the peer alive and
        // connected.
        if round + 2 > self.round && !self.replies.contains(&from) {
            self.replies.push(from);
        }
        self.saw(ballot);
        if let Some(h) = holder.filter(|h| h.expiry > now) {
            self.observe(h);
        }
    }

    /// A ballot went by (in an `Acquire`, a reply, a `Reject`).
    pub(crate) fn saw(&mut self, ballot: Ballot) {
        self.max_seen = self.max_seen.max(ballot);
    }

    /// A grantor refused this node's ballot: the next candidacy must
    /// outrank `max`.
    pub(crate) fn on_reject(&mut self, max: Ballot) {
        self.saw(max);
        self.candidacy.n = self.candidacy.n.max(max.n);
    }

    /// The election rule. Campaign when no live lease is known, this
    /// node can see a majority, and it is the top-pid node among those
    /// alive — the deterministic omnipaxos tiebreak, so exactly one
    /// candidate usually emerges per election. Returns the ballot to
    /// campaign with, above everything seen.
    pub(crate) fn campaign(&mut self, now: SimTime) -> Option<Ballot> {
        let pid = self.me.0 as u64;
        let connected = self.replies.len() + 1;
        let outranked = self.replies.iter().any(|n| n.0 as u64 > pid);
        if self.round == 0 || self.leader(now).is_some() || connected < self.majority || outranked {
            return None;
        }
        let n = self.max_seen.n.max(self.candidacy.n) + 1;
        self.candidacy = Ballot::new(n, pid);
        self.saw(self.candidacy);
        Some(self.candidacy)
    }

    /// The holder nominated this node with `ballot` (a handoff): that is
    /// its candidacy now.
    pub(crate) fn adopt(&mut self, ballot: Ballot) {
        self.saw(ballot);
        self.candidacy = self.candidacy.max(ballot);
    }

    /// This node, the holder, nominated `hint.node` with `hint.ballot`:
    /// route to it optimistically while it acquires.
    pub(crate) fn nominate(&mut self, hint: HolderHint) {
        self.saw(hint.ballot);
        self.hint = Some(hint);
    }

    /// A grant majority made this node the holder until `expiry`.
    pub(crate) fn elected(&mut self, ballot: Ballot, expiry: SimTime) {
        self.hint = Some(HolderHint {
            ballot,
            node: self.me,
            expiry,
        });
    }

    /// Keeps `h` if it outranks (or outlives, at equal ballot) the
    /// current hint.
    pub(crate) fn observe(&mut self, h: HolderHint) {
        let better = match self.hint {
            Some(cur) => h.ballot > cur.ballot || (h.ballot == cur.ballot && h.expiry > cur.expiry),
            None => true,
        };
        if better {
            self.hint = Some(h);
        }
    }

    /// The live holder this node knows of, if any.
    pub(crate) fn leader(&self, now: SimTime) -> Option<NodeId> {
        self.hint.filter(|h| h.expiry > now).map(|h| h.node)
    }

    /// This replica's top ballot — its candidacy or `granted`, what it
    /// last granted — as told to peers in replies and rejections.
    pub(crate) fn top_ballot(&self, granted: Ballot) -> Ballot {
        self.candidacy.max(granted)
    }

    /// The best routing hint this replica can gossip: what its lease
    /// roles know (`own`: its unexpired holding, its grant table) or
    /// what it heard from peers — whichever carries the highest ballot.
    pub(crate) fn best_hint(
        &self,
        own: impl IntoIterator<Item = HolderHint>,
        now: SimTime,
    ) -> Option<HolderHint> {
        let mut best: Option<HolderHint> = None;
        for h in own.into_iter().chain(self.hint) {
            if h.expiry > now && best.is_none_or(|b| h.ballot > b.ballot) {
                best = Some(h);
            }
        }
        best
    }
}

/// Contention level of a node's heartbeat: each contested tick raises
/// the delay by one increment (omnipaxos's increasing-delay rounds),
/// each calm tick lowers it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Backoff {
    level: u32,
}

impl Backoff {
    /// The delay until the next tick, after one that was `contested`
    /// (some shard campaigned) or calm.
    pub(crate) fn next_delay(&mut self, contested: bool) -> SimDuration {
        self.level = if contested {
            (self.level + 1).min(4)
        } else {
            self.level.saturating_sub(1)
        };
        HEARTBEAT_INTERVAL + HB_DELAY_INCREMENT * self.level as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ms(millis: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(millis)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Whatever it is fed, the election proposes a campaign only with
        /// a majority of the group answering, nobody of a higher pid
        /// among them and no live holder known — and then with a ballot
        /// above everything it has seen.
        #[test]
        fn never_campaigns_without_a_majority_or_below_the_top_pid(
            me in 0u32..5,
            inputs in prop::collection::vec((0u8..6, 0u32..5, 0u32..6, 0u64..400), 0..40),
        ) {
            let mut e = Election::new(NodeId(me), 3);
            let mut now = ms(0);
            for (kind, peer, n, at) in inputs {
                now += SimDuration::from_millis(at % 60);
                let ballot = Ballot::new(n, u64::from(peer));
                let hint = HolderHint { ballot, node: NodeId(peer), expiry: ms(at * 4) };
                match kind {
                    0 => { e.open_round(); }
                    1 if peer != me => {
                        let round = e.round.saturating_sub(n % 3);
                        e.on_reply(NodeId(peer), round, ballot, (at % 2 == 0).then_some(hint), now);
                    }
                    2 => e.saw(ballot),
                    3 => e.on_reject(ballot),
                    4 => e.observe(hint),
                    _ => {}
                }
                let seen = e.max_seen;
                let mut probe = e.clone();
                if let Some(b) = probe.campaign(now) {
                    prop_assert!(e.round > 0, "before the first round");
                    prop_assert!(e.replies.len() + 1 >= 3, "without a majority: {:?}", e.replies);
                    prop_assert!(e.replies.iter().all(|r| r.0 < me), "below the top pid");
                    prop_assert!(e.leader(now).is_none(), "under a live holder");
                    prop_assert!(b > seen && b.pid == u64::from(me), "{b:?} after {seen:?}");
                    prop_assert_eq!(probe.top_ballot(Ballot::default()), b);
                }
            }
        }
    }

    /// Replies to the previous round still count (a WAN round trip can
    /// outlast a heartbeat interval); older ones do not.
    #[test]
    fn replies_count_for_two_rounds() {
        let mut e = Election::new(NodeId(4), 3);
        for _ in 0..3 {
            e.open_round();
        }
        e.on_reply(NodeId(0), 1, Ballot::default(), None, ms(10));
        assert_eq!(e.campaign(ms(20)), None, "nobody answered a recent round");
        e.on_reply(NodeId(0), 2, Ballot::default(), None, ms(30));
        e.on_reply(NodeId(1), 3, Ballot::new(6, 1), None, ms(30));
        assert_eq!(e.campaign(ms(40)), Some(Ballot::new(7, 4)));
    }

    #[test]
    fn contention_raises_the_tick_delay_and_calm_lowers_it() {
        let mut backoff = Backoff::default();
        let delays: Vec<u64> = [true, true, true, true, true, false, false]
            .into_iter()
            .map(|contested| backoff.next_delay(contested).as_millis())
            .collect();
        assert_eq!(delays, [125, 150, 175, 200, 200, 175, 150]);
    }
}
