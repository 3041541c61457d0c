//! Dynamic mastership: shard-granular master leases, omnipaxos-style
//! ballot leader election, and access-driven master migration.
//!
//! Static placement freezes every record's master at cluster build
//! time; fig7 shows Multi degrading ~2× as locality drops. This crate
//! makes mastership a runtime property:
//!
//! - **Leases.** Each shard (replica group, one node per data center)
//!   has at most one *lease holder* at a time. The holder asks for a
//!   renewal every heartbeat tick and counts every grant of its ballot,
//!   whichever renewal it answers: its tenure runs to the latest expiry
//!   a majority acked, so a renewal needs a majority round trip under
//!   the lease, not under a tick. Replicas grant a lease ballot only if
//!   it outranks everything they already granted, so two holders can
//!   never have overlapping majority-acked windows (the grant quorum of
//!   a new ballot intersects the renewal quorum of the old one, and the
//!   intersection node reports the old expiry, which the new holder
//!   waits out).
//! - **Ballot leader election.** Candidacy is a [`Ballot`]`{n, pid}`
//!   total order in the omnipaxos style: heartbeat rounds with
//!   increasing delay under contention, majority-connected gating, and
//!   a deterministic top-connected-pid tiebreak so a crashed master is
//!   replaced without waiting for classic-ballot timeouts. Raft's rule
//!   decides when a round is probed: a held lease's renewal is the
//!   shard's heartbeat, so a replica sends `HbReq`s only while it knows
//!   of no lease that outlives its next two ticks — from two ticks
//!   before the lease it knows of lapses, in time to campaign when it
//!   does.
//! - **Migration.** The holder counts the origin data center of every
//!   mastered request it serves; once a remote data center dominates
//!   past a hysteresis threshold for several consecutive ticks, the
//!   holder hands the lease to that data center's replica (a voluntary
//!   relinquish, so the successor needs no expiry wait) and runs the
//!   successor's acquisition: it grants the successor's ballot itself
//!   and asks every replica for it with a `Handoff`, whose grants go to
//!   the successor. The successor serves one round trip after the
//!   relinquish — no sooner is possible, since a grantor's floor fences
//!   the old holder the moment it grants the successor.
//!
//! The crate is transport-free: [`Mastership::on_tick`] /
//! [`Mastership::on_msg`] mutate pure state and emit [`Action`]s the
//! host (a storage node) turns into wire messages and timers. Virtual
//! time is injected by the caller, so everything runs on the
//! deterministic simulator clock.
//!
//! The three protocols are three pure machines, one set per shard —
//! [`election`], [`lease`], [`migration`] — each a value whose methods
//! take an input and the clock and return what follows from it.
//! [`Mastership`] composes them: it routes ticks and messages to the
//! shard's machines, turns what they return into [`Action`]s, counts
//! ([`MastershipStats`]), reports tenures to the [`LeaseAudit`], and
//! keeps a restarted node quiet until its lost grants have expired.
//!
//! It is also the one owner of a replica's lease floors: the highest
//! lease ballot it granted per shard ([`Mastership::floor`]). The host
//! enforces a shard's floor as the Phase1 promise of every record in the
//! shard (lease-carried Phase1), logs it on each rise, and hands the
//! floors its log recovered back to [`Mastership::new`] on a restart.

use std::collections::BTreeMap;

use mdcc_common::{DcId, NodeId, SimDuration, SimTime};

mod audit;
mod ballot;
mod election;
mod lease;
mod migration;
mod msg;
mod shard;
mod table;

pub use audit::{LeaseAudit, LeaseSpan};
pub use ballot::Ballot;
pub use election::{HB_DELAY_INCREMENT, HEARTBEAT_INTERVAL};
pub use lease::LEASE_DURATION;
pub use migration::{MIGRATE_MIN_RATE, MIGRATE_ROUNDS, MIGRATE_THRESHOLD_PCT, MIGRATE_WINDOW};
pub use msg::{HolderHint, MsMsg};
pub use table::{LeaseTable, OverrideRun};

use election::Backoff;
use shard::{Effects, Shard};

mdcc_common::counters! {
    /// Counters of mastership activity at one node (aggregated into the
    /// cluster report).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MastershipStats {
        /// Election rounds this node started (candidacy bumps).
        pub elections: u64,
        /// Fresh leases acquired (majority-granted).
        pub leases_acquired: u64,
        /// Successful lease renewals.
        pub renewals: u64,
        /// Voluntary handoffs sent (migration).
        pub handoffs: u64,
        /// Mastered requests served while holding the lease.
        pub served: u64,
        /// Mastered requests forwarded to the believed holder.
        pub forwarded: u64,
        /// Mastered requests led here while this node knew of no live
        /// lease for their shard and was making none itself (an election
        /// window), or past the deadline of the lease it held them for:
        /// with `served` and `forwarded`, every option that arrived in a
        /// `ProposeMastered`, each counted once.
        pub unleased: u64,
        /// Mastered requests held for the lease this node was making
        /// ([`Mastership::awaiting`]) instead of led with a Phase 1 of
        /// their own. Each is counted again, once, as `served`,
        /// `forwarded` or `unleased` when it is released.
        pub awaited: u64,
        /// Simulated milliseconds the `awaited` options spent held, summed
        /// over options (each from its arrival to its release): the mean
        /// hold is `awaited_ms / awaited`. A crash forgets what it held,
        /// and those options are not counted.
        pub awaited_ms: u64,
        /// Cold first-touch mastered commits served without a per-record
        /// Phase1 exchange — the lease ballot carried the promise.
        pub phase1_skipped: u64,
        /// Classic Phase1 rounds run for lease-covered records while
        /// serving (records the lease ballot could not carry: warm under a
        /// predecessor's ballot, or promised above the lease).
        pub phase1_covered: u64,
        /// WAN round trips spent on cold first-touch mastered commits
        /// (1 per skipped Phase1, 2 per classic establish while serving).
        pub cold_first_commit_rtts: u64,
    }
}

/// What the host must do on behalf of the mastership layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send `msg` to `to` (always a peer replica of the shard group).
    Send {
        /// Destination storage node.
        to: NodeId,
        /// Message to deliver.
        msg: MsMsg,
    },
    /// This replica's granted lease ballot for `shard` strictly rose:
    /// `ballot` is the shard's new [`Mastership::floor`], which the host
    /// enforces as the Phase1 promise of every record acceptor in the
    /// shard (lease-carried Phase1), so a deposed holder's stale ballots
    /// are fenced without per-record Phase1a/Phase1b exchanges. The host
    /// logs it, so that a restart can hand it back to [`Mastership::new`].
    FloorRaised {
        /// Shard concerned.
        shard: u32,
        /// The new lease ballot, now the shard-wide promise floor.
        ballot: Ballot,
    },
    /// This node voluntarily handed the lease for `shard` to `to`: it
    /// no longer leads the shard's records, so the host may drop its
    /// leaders for them that have nothing in flight.
    Relinquished {
        /// Shard concerned.
        shard: u32,
        /// The handoff target.
        to: NodeId,
    },
}

/// Mastership state of one storage node: election, lease and migration
/// machines for every shard the node replicates.
pub struct Mastership {
    me: NodeId,
    /// By shard id: ticks walk the shards in id order.
    shards: BTreeMap<u32, Shard>,
    /// A restarted replica lost its volatile grant table; it must not
    /// grant (or campaign) until every lease it might have granted
    /// before the crash has expired.
    quarantine_until: SimTime,
    backoff: Backoff,
    stats: MastershipStats,
    audit: Option<LeaseAudit>,
}

impl Mastership {
    /// Builds the mastership layer for a node replicating `shards`
    /// (`(shard id, replica group in DC order)`). `recovered_at` marks
    /// a post-restart node, which is quarantined from granting for one
    /// lease duration (the expiries it granted died with the crash).
    /// `granted` holds the lease ballots the node granted before it
    /// restarted, by shard, as its log recovered them (empty on a first
    /// boot): it never grants at or below its highest again, so a
    /// lapsed holder's old ballot cannot rise above a lower one elected
    /// while the node was down.
    pub fn new(
        me: NodeId,
        my_dc: DcId,
        shards: Vec<(u32, Vec<NodeId>)>,
        recovered_at: Option<SimTime>,
        granted: &[(u32, Ballot)],
    ) -> Self {
        let quarantine_until = match recovered_at {
            Some(at) => at + LEASE_DURATION,
            None => SimTime::ZERO,
        };
        let granted_in = |shard| {
            let of_shard = granted.iter().filter(|(s, _)| *s == shard);
            of_shard.map(|(_, b)| *b).max().unwrap_or_default()
        };
        Self {
            me,
            shards: shards
                .into_iter()
                .map(|(s, peers)| (s, Shard::new(s, peers, me, my_dc, granted_in(s))))
                .collect(),
            quarantine_until,
            backoff: Backoff::default(),
            stats: MastershipStats::default(),
            audit: None,
        }
    }

    /// Attaches the shared lease-tenure collector.
    pub fn set_audit(&mut self, audit: LeaseAudit) {
        self.audit = Some(audit);
    }

    /// Activity counters.
    pub fn stats(&self) -> MastershipStats {
        self.stats
    }

    /// The lease ballot number under which this node serves `shard`
    /// right now, if it does.
    pub fn serving_ballot(&self, shard: u32, now: SimTime) -> Option<u32> {
        Some(self.shards.get(&shard)?.lease.serving(now)?.n)
    }

    /// Whether this node currently holds the lease for `shard` and is
    /// inside its majority-acked serving window.
    pub fn is_serving(&self, shard: u32, now: SimTime) -> bool {
        self.serving_ballot(shard, now).is_some()
    }

    /// Where mastered traffic for `shard` should go right now: self
    /// when serving, else the highest-ballot unexpired lease this node
    /// knows of — the hint it would gossip, its own grant table
    /// included, so a candidate that outranked the lease it heard of
    /// does not route back to that lease's holder.
    pub fn holder(&self, shard: u32, now: SimTime) -> Option<NodeId> {
        if self.is_serving(shard, now) {
            return Some(self.me);
        }
        Some(self.shards.get(&shard)?.best_lease(now)?.node)
    }

    /// The lease ballot this node is making for `shard`, while it can
    /// still come to serve under it: its own acquisition of that ballot is
    /// pending, until the end of the lease asked for, or it holds the
    /// lease but may not serve under it yet (a predecessor's acked window
    /// is still being waited out), until the lease ends. `None` while it
    /// serves and while it makes no lease. Mastered work that arrives
    /// meanwhile can wait for the lease instead of running a Phase 1 that
    /// competes with it.
    pub fn awaiting(&self, shard: u32, now: SimTime) -> Option<Ballot> {
        self.shards.get(&shard)?.lease.awaiting(now)
    }

    /// `shard`'s promise floor: the highest lease ballot this replica
    /// granted for it (its own tenures included), if it granted any. It
    /// rises exactly when [`Action::FloorRaised`] is emitted.
    pub fn floor(&self, shard: u32) -> Option<Ballot> {
        let granted = self.shards.get(&shard)?.lease.granted();
        (granted != Ballot::default()).then_some(granted)
    }

    /// Every shard's [`Self::floor`], in shard order.
    pub fn floors(&self) -> impl Iterator<Item = (u32, Ballot)> + '_ {
        self.shards
            .keys()
            .filter_map(|&s| Some((s, self.floor(s)?)))
    }

    /// Records one mastered request served while holding the lease
    /// (feeds access-driven migration).
    pub fn note_served(&mut self, shard: u32, origin_dc: DcId) {
        self.stats.served += 1;
        if let Some(state) = self.shards.get_mut(&shard) {
            state.migration.note(origin_dc);
        }
    }

    /// Records one mastered request forwarded to the believed holder.
    pub fn note_forwarded(&mut self) {
        self.stats.forwarded += 1;
    }

    /// Records one mastered request led here with no live lease known.
    pub fn note_unleased(&mut self) {
        self.stats.unleased += 1;
    }

    /// Records one mastered request held for the lease this node is
    /// making.
    pub fn note_awaited(&mut self) {
        self.stats.awaited += 1;
    }

    /// Records `options` held options released after being held for
    /// `held` (rounded to the millisecond).
    pub fn note_released(&mut self, options: usize, held: SimDuration) {
        let ms = (held.as_micros() + 500) / 1_000;
        self.stats.awaited_ms += options as u64 * ms;
    }

    /// Records a cold first-touch mastered commit that skipped the
    /// per-record Phase1 exchange because the lease ballot already
    /// carried the promise (one WAN round trip instead of two).
    pub fn note_phase1_skipped(&mut self) {
        self.stats.phase1_skipped += 1;
        self.stats.cold_first_commit_rtts += 1;
    }

    /// Records a classic Phase1 round run for a lease-covered record
    /// while serving — the latency cliff lease-carried Phase1 exists
    /// to remove (two WAN round trips for the first commit).
    pub fn note_phase1_covered(&mut self) {
        self.stats.phase1_covered += 1;
        self.stats.cold_first_commit_rtts += 2;
    }

    /// The per-shard machines' sink for this call.
    fn effects<'a>(
        &'a mut self,
        out: &'a mut Vec<Action>,
    ) -> (&'a mut BTreeMap<u32, Shard>, Effects<'a>) {
        let fx = Effects {
            me: self.me,
            out,
            stats: &mut self.stats,
            audit: self.audit.as_ref(),
        };
        (&mut self.shards, fx)
    }

    /// One heartbeat tick: closes the previous round, renews or
    /// campaigns, checks migration, opens the next round. Returns the
    /// delay until the next tick (base interval plus the current
    /// contention level's increments).
    pub fn on_tick(&mut self, now: SimTime, out: &mut Vec<Action>) -> SimDuration {
        let quarantined = now < self.quarantine_until;
        let (shards, mut fx) = self.effects(out);
        let mut contested = false;
        for shard in shards.values_mut() {
            contested |= shard.tick(now, quarantined, &mut fx);
        }
        self.backoff.next_delay(contested)
    }

    /// Handles one mastership message.
    pub fn on_msg(&mut self, from: NodeId, msg: MsMsg, now: SimTime, out: &mut Vec<Action>) {
        let quarantined = now < self.quarantine_until;
        let (shards, mut fx) = self.effects(out);
        if let Some(shard) = shards.get_mut(&msg.shard()) {
            shard.on_msg(from, msg, now, quarantined, &mut fx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::wire::{from_bytes, to_bytes};

    fn ms(millis: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(millis)
    }

    fn group() -> Vec<NodeId> {
        (0..5).map(NodeId).collect()
    }

    fn layer(me: u32) -> Mastership {
        Mastership::new(NodeId(me), DcId(me as u8), vec![(0, group())], None, &[])
    }

    #[test]
    fn ballots_order_by_n_then_pid() {
        assert!(Ballot::new(2, 0) > Ballot::new(1, 99));
        assert!(Ballot::new(2, 3) > Ballot::new(2, 2));
        assert_eq!(Ballot::new(1, 1).max(Ballot::new(1, 1)), Ballot::new(1, 1));
    }

    #[test]
    fn messages_round_trip() {
        let samples = vec![
            MsMsg::HbReq { shard: 3, round: 9 },
            MsMsg::HbReply {
                shard: 3,
                round: 9,
                ballot: Ballot::new(4, 2),
                holder: Some(HolderHint {
                    ballot: Ballot::new(4, 2),
                    node: NodeId(2),
                    expiry: ms(500),
                }),
            },
            MsMsg::Acquire {
                shard: 0,
                ballot: Ballot::new(1, 4),
                expiry: ms(400),
                relinquished: Some(Ballot::new(0, 1)),
            },
            MsMsg::Grant {
                shard: 0,
                ballot: Ballot::new(1, 4),
                expiry: ms(400),
                prev: Some((Ballot::new(0, 1), ms(300))),
            },
            MsMsg::Reject {
                shard: 1,
                max: Ballot::new(7, 0),
            },
            MsMsg::Handoff {
                shard: 2,
                ballot: Ballot::new(8, 3),
                relinquished: Ballot::new(7, 1),
                expiry: ms(900),
            },
        ];
        for msg in samples {
            let bytes = to_bytes(&msg);
            let back: MsMsg = from_bytes(&bytes).expect("decode");
            assert_eq!(back, msg);
        }
    }

    /// Full five-node group: ticking everyone twice elects exactly the
    /// top-pid node, which then serves after a majority of grants.
    #[test]
    fn top_pid_wins_the_first_election() {
        let mut nodes: Vec<Mastership> = (0..5).map(layer).collect();
        let mut t = SimTime::ZERO;
        for round in 0u64..3 {
            t = ms(100 * (round + 1));
            // Tick all, collect sends, deliver heartbeats + acquires.
            let mut mail: Vec<(NodeId, NodeId, MsMsg)> = Vec::new();
            for node in nodes.iter_mut() {
                let mut out = Vec::new();
                node.on_tick(t, &mut out);
                for a in out {
                    if let Action::Send { to, msg } = a {
                        mail.push((node.me, to, msg));
                    }
                }
            }
            // Deliver until quiescent (messages are instantaneous here).
            while !mail.is_empty() {
                let batch = std::mem::take(&mut mail);
                for (from, to, msg) in batch {
                    let node = &mut nodes[to.0 as usize];
                    let mut out = Vec::new();
                    node.on_msg(from, msg, t, &mut out);
                    for a in out {
                        if let Action::Send { to: t2, msg } = a {
                            mail.push((node.me, t2, msg));
                        }
                    }
                }
            }
        }
        assert!(nodes[4].is_serving(0, t), "top pid should hold the lease");
        for n in &nodes[..4] {
            assert!(!n.is_serving(0, t), "{:?} must not serve", n.me);
            assert_eq!(n.holder(0, t), Some(NodeId(4)));
        }
        assert_eq!(nodes[4].serving_ballot(0, t), Some(1));
    }

    /// A replica that granted an old lease reports its expiry; a new
    /// holder must not serve before it.
    #[test]
    fn successor_waits_out_the_predecessors_expiry() {
        let mut candidate = layer(2);
        let mut out = Vec::new();
        candidate.on_tick(ms(100), &mut out); // opens round 1
        for peer in [0u32, 1, 3, 4] {
            candidate.on_msg(
                NodeId(peer),
                MsMsg::HbReply {
                    shard: 0,
                    round: 1,
                    ballot: Ballot::default(),
                    holder: None,
                },
                ms(110),
                &mut Vec::new(),
            );
        }
        // Higher pids look alive, so node 2 must NOT campaign...
        let mut out = Vec::new();
        candidate.on_tick(ms(200), &mut out);
        assert!(
            !out.iter().any(|a| matches!(
                a,
                Action::Send {
                    msg: MsMsg::Acquire { .. },
                    ..
                }
            )),
            "node 2 defers to higher pids"
        );
        // ...until only lower pids reply (3 and 4 crashed).
        for peer in [0u32, 1] {
            candidate.on_msg(
                NodeId(peer),
                MsMsg::HbReply {
                    shard: 0,
                    round: 2,
                    ballot: Ballot::default(),
                    holder: None,
                },
                ms(210),
                &mut Vec::new(),
            );
        }
        let mut out = Vec::new();
        candidate.on_tick(ms(300), &mut out);
        let acquire = out
            .iter()
            .find_map(|a| match a {
                Action::Send {
                    msg: MsMsg::Acquire { ballot, expiry, .. },
                    ..
                } => Some((*ballot, *expiry)),
                _ => None,
            })
            .expect("campaigns once top-connected");
        let (ballot, expiry) = acquire;
        assert_eq!(ballot, Ballot::new(1, 2));
        // Two grants complete the majority; one reports a predecessor
        // lease that runs until t=650.
        let mut out = Vec::new();
        candidate.on_msg(
            NodeId(0),
            MsMsg::Grant {
                shard: 0,
                ballot,
                expiry,
                prev: Some((Ballot::new(0, 4), ms(650))),
            },
            ms(320),
            &mut out,
        );
        candidate.on_msg(
            NodeId(1),
            MsMsg::Grant {
                shard: 0,
                ballot,
                expiry,
                prev: None,
            },
            ms(330),
            &mut out,
        );
        assert!(
            !candidate.is_serving(0, ms(340)),
            "must wait out the predecessor's acked expiry"
        );
        assert!(candidate.is_serving(0, ms(651)));
    }

    /// A handoff target still collecting grants routes the shard to
    /// itself, not to the predecessor it heard renew: that node, which
    /// nominated it, would route the options straight back.
    #[test]
    fn an_acquiring_target_does_not_route_back_to_its_predecessor() {
        let mut target = layer(2);
        let old = Ballot::new(1, 4);
        let renew = MsMsg::Acquire {
            shard: 0,
            ballot: old,
            expiry: ms(500),
            relinquished: None,
        };
        target.on_msg(NodeId(4), renew, ms(100), &mut Vec::new());
        assert_eq!(target.holder(0, ms(110)), Some(NodeId(4)));
        let handoff = MsMsg::Handoff {
            shard: 0,
            ballot: Ballot::new(2, 2),
            relinquished: old,
            expiry: ms(550),
        };
        target.on_msg(NodeId(4), handoff, ms(150), &mut Vec::new());
        assert!(!target.is_serving(0, ms(160)));
        assert_eq!(target.holder(0, ms(160)), Some(NodeId(2)));
    }

    /// Handoff: the target asks for the lease end its predecessor
    /// minted, and serves as soon as a majority holds it — the old
    /// holder's grant counts — without waiting out the relinquished
    /// predecessor's expiry, even where a grantor names it.
    #[test]
    fn handoff_serves_without_waiting() {
        let mut target = layer(2);
        let (old, ballot, expiry) = (Ballot::new(3, 4), Ballot::new(4, 2), ms(1_400));
        let handoff = MsMsg::Handoff {
            shard: 0,
            ballot,
            relinquished: old,
            expiry,
        };
        let mut out = Vec::new();
        target.on_msg(NodeId(4), handoff, ms(1_050), &mut out);
        let acquires: Vec<_> = out
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    msg: MsMsg::Acquire { expiry, .. },
                    ..
                } => Some(*expiry),
                _ => None,
            })
            .collect();
        assert_eq!(acquires, [expiry; 4], "the minted end, not its own");
        let grant = |prev| MsMsg::Grant {
            shard: 0,
            ballot,
            expiry,
            prev,
        };
        target.on_msg(NodeId(4), grant(None), ms(1_050), &mut Vec::new());
        assert!(!target.is_serving(0, ms(1_050)), "two of five hold it");
        let named = Some((old, ms(1_500)));
        target.on_msg(NodeId(0), grant(named), ms(1_100), &mut Vec::new());
        assert!(
            target.is_serving(0, ms(1_100)),
            "relinquished predecessor's expiry is waived"
        );
        assert_eq!(target.serving_ballot(0, ms(1_399)), Some(4));
        assert!(!target.is_serving(0, expiry));
    }

    /// A grantor answers a `Handoff` as it would the target's own
    /// `Acquire`, and to the target: a grant that raises its floor and
    /// names no relinquished predecessor.
    #[test]
    fn a_grantor_answers_a_handoff_to_the_target() {
        let mut grantor = layer(0);
        let old = Ballot::new(3, 4);
        let renew = MsMsg::Acquire {
            shard: 0,
            ballot: old,
            expiry: ms(1_500),
            relinquished: None,
        };
        grantor.on_msg(NodeId(4), renew, ms(1_000), &mut Vec::new());
        let handoff = MsMsg::Handoff {
            shard: 0,
            ballot: Ballot::new(4, 2),
            relinquished: old,
            expiry: ms(1_450),
        };
        let mut out = Vec::new();
        grantor.on_msg(NodeId(4), handoff, ms(1_100), &mut out);
        let grant = MsMsg::Grant {
            shard: 0,
            ballot: Ballot::new(4, 2),
            expiry: ms(1_450),
            prev: None,
        };
        let raised = Action::FloorRaised {
            shard: 0,
            ballot: Ballot::new(4, 2),
        };
        let to = NodeId(2);
        assert_eq!(out, [raised, Action::Send { to, msg: grant }]);
        assert_eq!(grantor.holder(0, ms(1_100)), Some(NodeId(2)));
    }

    /// A copy of a `Handoff` that arrives after the grantor granted a
    /// higher ballot is refused, and the `Reject` goes to the target: it
    /// ends the acquisition there.
    #[test]
    fn a_late_handoff_copy_is_refused_to_the_target() {
        let mut grantor = layer(0);
        let higher = MsMsg::Acquire {
            shard: 0,
            ballot: Ballot::new(5, 3),
            expiry: ms(1_600),
            relinquished: None,
        };
        grantor.on_msg(NodeId(3), higher, ms(1_200), &mut Vec::new());
        let late = MsMsg::Handoff {
            shard: 0,
            ballot: Ballot::new(4, 2),
            relinquished: Ballot::new(3, 4),
            expiry: ms(1_450),
        };
        let mut out = Vec::new();
        grantor.on_msg(NodeId(4), late, ms(1_250), &mut out);
        let reject = MsMsg::Reject {
            shard: 0,
            max: Ballot::new(5, 3),
        };
        let to = NodeId(2);
        assert_eq!(out, [Action::Send { to, msg: reject }]);
        assert_eq!(grantor.floor(0), Some(Ballot::new(5, 3)));
    }

    /// A quarantined (restarted) replica neither grants nor campaigns
    /// until one lease duration has passed.
    #[test]
    fn restart_quarantine_blocks_grants() {
        let mut node = Mastership::new(NodeId(1), DcId(1), vec![(0, group())], Some(ms(1000)), &[]);
        let mut out = Vec::new();
        node.on_msg(
            NodeId(4),
            MsMsg::Acquire {
                shard: 0,
                ballot: Ballot::new(9, 4),
                expiry: ms(1400),
                relinquished: None,
            },
            ms(1100),
            &mut out,
        );
        assert!(out.is_empty(), "no grant during quarantine");
        node.on_msg(
            NodeId(4),
            MsMsg::Acquire {
                shard: 0,
                ballot: Ballot::new(9, 4),
                expiry: ms(1800),
                relinquished: None,
            },
            ms(1500),
            &mut out,
        );
        assert!(
            matches!(
                out.as_slice(),
                [
                    Action::FloorRaised { .. },
                    Action::Send {
                        msg: MsMsg::Grant { .. },
                        ..
                    }
                ]
            ),
            "grants resume after quarantine: {out:?}"
        );
    }

    /// A candidate waits for the grants of its own acquisition: it does
    /// not campaign again, replacing the ballot they answer, until that
    /// acquisition can no longer complete (its lease would have ended).
    #[test]
    fn a_candidate_does_not_campaign_over_its_own_acquisition() {
        let mut candidate = layer(4);
        // Tick `at` opens heartbeat round `at / 100`; two lower pids
        // answer it.
        let campaigns = |candidate: &mut Mastership, at: u64| {
            let mut out = Vec::new();
            candidate.on_tick(ms(at), &mut out);
            let round = (at / 100) as u32;
            for peer in [0u32, 1] {
                let reply = MsMsg::HbReply {
                    shard: 0,
                    round,
                    ballot: Ballot::default(),
                    holder: None,
                };
                candidate.on_msg(NodeId(peer), reply, ms(at + 10), &mut Vec::new());
            }
            let acquires = out.iter().filter_map(|a| match a {
                Action::Send {
                    msg: MsMsg::Acquire { ballot, .. },
                    ..
                } => Some(*ballot),
                _ => None,
            });
            acquires.collect::<std::collections::BTreeSet<_>>()
        };
        assert!(campaigns(&mut candidate, 100).is_empty(), "no replies yet");
        let first = campaigns(&mut candidate, 200);
        assert_eq!(first.len(), 1, "campaigns once a majority answers");
        // Its grants are a round trip away: ticks inside its lease wait.
        for at in [300, 400, 500] {
            assert!(campaigns(&mut candidate, at).is_empty(), "at {at} ms");
        }
        assert_eq!(candidate.stats().elections, 1);
        // Past the lease it asked for (200 + 400 ms) it campaigns again.
        let again = campaigns(&mut candidate, 600);
        assert_eq!(again.len(), 1);
        assert!(again.first() > first.first());
        assert_eq!(candidate.stats().elections, 2);
    }

    /// Raft's rule for heartbeats: a replica that knows of a lease
    /// outliving its next two ticks sends no `HbReq` — the holder's
    /// renewal is the heartbeat — and probes again from two ticks before
    /// that lease lapses. The holder never probes: its `Acquire` does.
    #[test]
    fn only_a_replica_without_a_live_lease_probes() {
        let sent = |out: &[Action], hb: bool| {
            let is = |m: &MsMsg| matches!(m, MsMsg::HbReq { .. }) == hb;
            out.iter()
                .filter(|a| matches!(a, Action::Send { msg, .. } if is(msg)))
                .count()
        };
        let mut grantor = layer(1);
        let mut out = Vec::new();
        grantor.on_tick(ms(100), &mut out);
        assert_eq!(sent(&out, true), 4, "no lease known");
        let acquire = MsMsg::Acquire {
            shard: 0,
            ballot: Ballot::new(1, 4),
            expiry: ms(560),
            relinquished: None,
        };
        grantor.on_msg(NodeId(4), acquire, ms(160), &mut Vec::new());
        for (at, probes) in [(200, 0), (359, 0), (360, 4)] {
            let mut out = Vec::new();
            grantor.on_tick(ms(at), &mut out);
            assert_eq!(sent(&out, true), probes, "at {at} ms");
        }
        let mut holder = layer(4);
        let state = holder.shards.get_mut(&0).unwrap();
        state.lease.hold(Ballot::new(1, 4), ms(0), ms(150));
        let mut out = Vec::new();
        holder.on_tick(ms(100), &mut out);
        assert_eq!((sent(&out, true), sent(&out, false)), (0, 4));
    }

    /// Node 4 holds ballot (2, 4) from 0 ms; 40 remote requests from data
    /// center 1 before each of its ticks at 500 and 1 000 ms hand the
    /// lease to node 1 at the second. Returns what that tick emitted.
    fn handed_off(holder: &mut Mastership) -> Vec<Action> {
        let state = holder.shards.get_mut(&0).unwrap();
        state.lease.hold(Ballot::new(2, 4), ms(0), ms(10_000));
        // 40 remote requests over the first 500 ms window = 80 req/s,
        // well past the 20 req/s rate floor and 200 % dominance ratio.
        for _ in 0..40 {
            holder.note_served(0, DcId(1));
        }
        for _ in 0..3 {
            holder.note_served(0, DcId(4));
        }
        let mut out = Vec::new();
        holder.on_tick(ms(500), &mut out); // window full → streak 1
        assert!(holder.is_serving(0, ms(550)));
        for _ in 0..40 {
            holder.note_served(0, DcId(1));
        }
        let mut out = Vec::new();
        holder.on_tick(ms(1000), &mut out); // streak 2 → handoff
        out
    }

    /// The migration hysteresis: remote-dominant traffic sustained at
    /// a sufficient *rate* over the window hands the lease off; the
    /// holder stops serving at once and tells the host it relinquished.
    #[test]
    fn remote_traffic_triggers_handoff() {
        let mut holder = layer(4);
        let out = handed_off(&mut holder);
        let handoff = out.iter().find_map(|a| match a {
            Action::Send {
                to,
                msg: MsMsg::Handoff { ballot, .. },
            } if *to == ballot.node() => Some((*to, *ballot)),
            _ => None,
        });
        assert_eq!(handoff, Some((NodeId(1), Ballot::new(3, 1))));
        assert!(
            out.iter()
                .any(|a| matches!(a, Action::Relinquished { shard: 0, to } if *to == NodeId(1))),
            "host is told it relinquished: {out:?}"
        );
        assert!(!holder.is_serving(0, ms(1001)), "relinquished immediately");
        assert_eq!(holder.holder(0, ms(1001)), Some(NodeId(1)));
        assert_eq!(holder.stats().handoffs, 1);
    }

    /// The relinquishing holder runs its successor's acquisition: it
    /// grants the target's ballot itself (its floor rises at once, its
    /// `Grant` goes to the target) and asks every other replica for it
    /// with a `Handoff`, all for one lease end.
    #[test]
    fn a_relinquishing_holder_grants_its_successor_and_asks_for_it() {
        let mut holder = layer(4);
        let out = handed_off(&mut holder);
        let (ballot, expiry) = (Ballot::new(3, 1), ms(1_400));
        let handoff = MsMsg::Handoff {
            shard: 0,
            ballot,
            relinquished: Ballot::new(2, 4),
            expiry,
        };
        let grant = MsMsg::Grant {
            shard: 0,
            ballot,
            expiry,
            prev: None,
        };
        let mut expected: Vec<Action> = (0..4)
            .map(|to| Action::Send {
                to: NodeId(to),
                msg: handoff.clone(),
            })
            .collect();
        expected.push(Action::FloorRaised { shard: 0, ballot });
        expected.push(Action::Send {
            to: NodeId(1),
            msg: grant,
        });
        expected.push(Action::Relinquished {
            shard: 0,
            to: NodeId(1),
        });
        assert_eq!(out, expected);
        assert_eq!(holder.floor(0), Some(ballot));
    }

    /// Sparse traffic never migrates, no matter how lopsided: the
    /// rate floor filters out low-volume noise at any scale.
    #[test]
    fn low_rate_traffic_never_migrates() {
        let mut holder = layer(4);
        let state = holder.shards.get_mut(&0).unwrap();
        state.lease.hold(Ballot::new(2, 4), ms(0), ms(60_000));
        // 5 remote requests per 500 ms window = 10 req/s < 20 req/s.
        for round in 1u64..=8 {
            for _ in 0..5 {
                holder.note_served(0, DcId(1));
            }
            let mut out = Vec::new();
            holder.on_tick(ms(500 * round), &mut out);
            assert!(
                !out.iter().any(|a| matches!(
                    a,
                    Action::Send {
                        msg: MsMsg::Handoff { .. },
                        ..
                    }
                )),
                "below the rate floor, the lease stays put"
            );
        }
        assert_eq!(holder.stats().handoffs, 0);
    }

    /// Lease audit spans never overlap across holders, and renewal
    /// extends rather than duplicates.
    #[test]
    fn audit_records_tenures() {
        let audit = LeaseAudit::new();
        let mut a = layer(4);
        a.set_audit(audit.clone());
        let mut out = Vec::new();
        let (shards, mut fx) = a.effects(&mut out);
        let state = shards.get_mut(&0).unwrap();
        state.acquire(Ballot::new(1, 4), None, ms(400), ms(0), &mut fx);
        for peer in [0u32, 1] {
            a.on_msg(
                NodeId(peer),
                MsMsg::Grant {
                    shard: 0,
                    ballot: Ballot::new(1, 4),
                    expiry: ms(400),
                    prev: None,
                },
                ms(10),
                &mut Vec::new(),
            );
        }
        let spans = audit.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].node, NodeId(4));
        assert_eq!(spans[0].until, ms(400));
    }

    /// Granting a lease (self or remote) tells the host to raise the
    /// shard's promise floor exactly when the granted ballot rises.
    #[test]
    fn grants_emit_floor_raises() {
        let mut replica = layer(1);
        let mut out = Vec::new();
        replica.on_msg(
            NodeId(4),
            MsMsg::Acquire {
                shard: 0,
                ballot: Ballot::new(3, 4),
                expiry: ms(400),
                relinquished: None,
            },
            ms(10),
            &mut out,
        );
        assert!(
            out.iter().any(|a| matches!(
                a,
                Action::FloorRaised {
                    shard: 0,
                    ballot
                } if *ballot == Ballot::new(3, 4)
            )),
            "fresh grant raises the floor: {out:?}"
        );
        // A renewal of the same ballot does not re-raise.
        let mut out = Vec::new();
        replica.on_msg(
            NodeId(4),
            MsMsg::Acquire {
                shard: 0,
                ballot: Ballot::new(3, 4),
                expiry: ms(800),
                relinquished: None,
            },
            ms(410),
            &mut out,
        );
        assert!(
            !out.iter().any(|a| matches!(a, Action::FloorRaised { .. })),
            "renewal leaves the floor alone: {out:?}"
        );
        // A stale ballot is rejected and raises nothing.
        let mut out = Vec::new();
        replica.on_msg(
            NodeId(2),
            MsMsg::Acquire {
                shard: 0,
                ballot: Ballot::new(2, 2),
                expiry: ms(1200),
                relinquished: None,
            },
            ms(420),
            &mut out,
        );
        assert!(
            out.iter().all(|a| matches!(
                a,
                Action::Send {
                    msg: MsMsg::Reject { .. },
                    ..
                }
            )),
            "stale acquire only rejects: {out:?}"
        );
    }

    #[test]
    fn lease_table_raises_and_looks_up() {
        let mut table = LeaseTable::new(8);
        assert!(table.runs().is_empty());
        assert!(table.raise(7, Ballot::new(2, 4)));
        assert!(!table.raise(7, Ballot::new(1, 9)), "lower ballot ignored");
        assert!(table.raise(7, Ballot::new(3, 1)));
        assert_eq!(table.override_of(7), Some(Ballot::new(3, 1)));
        assert_eq!(table.override_of(8), None);
        assert_eq!(table.runs().len(), 1);
    }

    #[test]
    fn lease_table_spills_lru_half_deterministically() {
        let mut table = LeaseTable::new(4);
        for id in 0u64..4 {
            table.raise(id, Ballot::new(1, 0));
        }
        // Touch 2 and 3 so they are the recent half.
        table.override_of(2);
        table.override_of(3);
        // The fifth insert overflows: everything at or below the
        // median touch stamp spills, keeping only the freshest (3, 4).
        table.raise(4, Ballot::new(1, 0));
        let kept = OverrideRun {
            start: 3,
            len: 2,
            ballot: Ballot::new(1, 0),
        };
        assert_eq!(table.runs(), vec![kept]);
    }

    #[test]
    fn lease_table_zero_cap_is_inert() {
        let mut table = LeaseTable::new(0);
        assert!(!table.raise(1, Ballot::new(5, 5)));
        assert!(table.runs().is_empty());
        assert_eq!(table.override_of(1), None);
    }

    #[test]
    fn runs_coalesce_and_round_trip() {
        let mut table = LeaseTable::new(64);
        let b = Ballot::new(4, 2);
        // Two adjacent clusters with a gap and one ballot change.
        for id in [10u64, 11, 12, 14, 15, 100] {
            table.raise(id, b);
        }
        table.raise(15, Ballot::new(5, 2));
        let runs = table.runs();
        assert_eq!(
            runs,
            vec![
                OverrideRun {
                    start: 10,
                    len: 3,
                    ballot: b
                },
                OverrideRun {
                    start: 14,
                    len: 1,
                    ballot: b
                },
                OverrideRun {
                    start: 15,
                    len: 1,
                    ballot: Ballot::new(5, 2)
                },
                OverrideRun {
                    start: 100,
                    len: 1,
                    ballot: b
                },
            ]
        );
        for run in runs {
            let back: OverrideRun = from_bytes(&to_bytes(&run)).expect("decode");
            assert_eq!(back, run);
        }
    }
}
