//! One shard's three machines, composed: ticks and messages go in, and
//! what the machines return comes out as [`Action`]s, counters and audit
//! records. No rule of the protocols lives here — only who is asked
//! what, in which order, and what is sent because of the answer.

use mdcc_common::{DcId, NodeId, SimTime};

use crate::audit::LeaseAudit;
use crate::ballot::Ballot;
use crate::election::{Election, HEARTBEAT_INTERVAL};
use crate::lease::{Held, Lease, Tenure, Verdict, LEASE_DURATION};
use crate::migration::Migration;
use crate::msg::{HolderHint, MsMsg};
use crate::{Action, MastershipStats};

/// Where what a shard's machines return ends up: the host's action
/// list, this node's counters, the audit.
pub(crate) struct Effects<'a> {
    pub(crate) me: NodeId,
    pub(crate) out: &'a mut Vec<Action>,
    pub(crate) stats: &'a mut MastershipStats,
    pub(crate) audit: Option<&'a LeaseAudit>,
}

impl Effects<'_> {
    fn send(&mut self, to: NodeId, msg: MsMsg) {
        self.out.push(Action::Send { to, msg });
    }

    /// Sends `msg` to every replica of the group but this one.
    fn broadcast(&mut self, peers: &[NodeId], msg: MsMsg) {
        let me = self.me;
        for &peer in peers.iter().filter(|p| **p != me) {
            self.send(peer, msg.clone());
        }
    }

    /// Counts a tenure event and forwards it to the audit.
    fn tenure(&mut self, shard: u32, event: Tenure, now: SimTime) {
        match event {
            Tenure::Acquired { .. } => self.stats.leases_acquired += 1,
            Tenure::Renewed { .. } => self.stats.renewals += 1,
            Tenure::Ended { .. } => {}
        }
        if let Some(audit) = self.audit {
            audit.record(shard, self.me, event, now);
        }
    }
}

/// One shard's machines and the replica group they talk to.
pub(crate) struct Shard {
    id: u32,
    /// Replica group in DC order, self included.
    peers: Vec<NodeId>,
    pub(crate) election: Election,
    pub(crate) lease: Lease,
    pub(crate) migration: Migration,
}

impl Shard {
    /// `granted`: the highest lease ballot this replica granted for the
    /// shard before it restarted (see [`Lease::new`]).
    pub(crate) fn new(
        id: u32,
        peers: Vec<NodeId>,
        me: NodeId,
        my_dc: DcId,
        granted: Ballot,
    ) -> Self {
        let majority = peers.len() / 2 + 1;
        Self {
            id,
            election: Election::new(me, majority),
            lease: Lease::new(me, majority, granted),
            migration: Migration::new(my_dc, peers.len()),
            peers,
        }
    }

    /// One heartbeat tick; returns whether this node campaigned.
    ///
    /// The heartbeat round it opens is probed only if this replica knows
    /// of no lease that outlives its next two ticks — the two rounds the
    /// campaign rule counts replies to. A holder's `Acquire` is its
    /// heartbeat and the `Grant`s are the replies, so while renewals
    /// arrive nobody probes; a grantor starts again two ticks before the
    /// lease it knows of lapses, in time to campaign the tick it does.
    pub(crate) fn tick(&mut self, now: SimTime, quarantined: bool, fx: &mut Effects<'_>) -> bool {
        // Migration check first: it may relinquish the lease, in which
        // case this tick neither renews nor campaigns.
        let serving = self.lease.serving(now).is_some();
        if let Some(dc) = self.migration.evaluate(serving, now) {
            self.hand_off(dc, now, fx);
        }
        let mut contested = false;
        match self.lease.check(now) {
            Held::Deposed => return false,
            Held::Renew(ballot) => self.acquire(ballot, None, now + LEASE_DURATION, now, fx),
            // A candidate whose acquisition can still complete waits
            // for its grants: campaigning again would replace it and
            // waste every grant in flight.
            Held::No if quarantined || self.lease.acquiring(now) => {}
            Held::No => {
                if let Some(ballot) = self.election.campaign(now) {
                    fx.stats.elections += 1;
                    contested = true;
                    self.acquire(ballot, None, now + LEASE_DURATION, now, fx);
                }
            }
        }
        let (shard, round) = (self.id, self.election.open_round());
        let horizon = now + HEARTBEAT_INTERVAL * 2;
        if self.best_lease(now).is_none_or(|h| h.expiry <= horizon) {
            fx.broadcast(&self.peers, MsMsg::HbReq { shard, round });
        }
        contested
    }

    /// The best lease this replica knows of: what its own lease roles
    /// know or what it heard (see [`Election::best_hint`]). It is what
    /// the replica gossips, where it routes, and whether it probes.
    pub(crate) fn best_lease(&self, now: SimTime) -> Option<HolderHint> {
        self.election.best_hint(self.lease.hints(), now)
    }

    /// Starts acquiring (or renewing, if it is the held ballot) the
    /// lease with `ballot` until `expiry`: this node's own vote, then an
    /// `Acquire` to every peer.
    pub(crate) fn acquire(
        &mut self,
        ballot: Ballot,
        relinquished: Option<Ballot>,
        expiry: SimTime,
        now: SimTime,
        fx: &mut Effects<'_>,
    ) {
        let shard = self.id;
        let begun = self.lease.begin(ballot, relinquished, expiry, now);
        if begun.rose {
            fx.out.push(Action::FloorRaised { shard, ballot });
        }
        self.settle(begun.tenure, now, fx);
        let msg = MsMsg::Acquire {
            shard,
            ballot,
            expiry: begun.expiry,
            relinquished,
        };
        fx.broadcast(&self.peers, msg);
    }

    /// Something happened to this node's tenure, or nothing yet: a
    /// holder is what the node routes to from now on.
    fn settle(&mut self, tenure: Option<Tenure>, now: SimTime, fx: &mut Effects<'_>) {
        let Some(tenure) = tenure else { return };
        if let Tenure::Acquired { ballot, until, .. } | Tenure::Renewed { ballot, until } = tenure {
            self.election.elected(ballot, until);
        }
        fx.tenure(self.id, tenure, now);
    }

    /// Hands the lease to data center `dc`'s replica and runs its
    /// acquisition: relinquish, mint the next ballot and a lease end for
    /// the target, and ask every replica to grant it — the target begins
    /// its acquisition with them, the others answer it as they would the
    /// target's `Acquire`. This node grants it itself, at once, so its
    /// own floor fences its leftover rounds before any peer's does. Then
    /// tell the host it no longer leads the shard.
    ///
    /// The grants reach the target one round trip after the relinquish,
    /// not one and a half: the shortest gap there can be, since a
    /// grantor's floor fences the old holder the moment it grants the
    /// successor.
    fn hand_off(&mut self, dc: usize, now: SimTime, fx: &mut Effects<'_>) {
        let (Some(&target), Some(relinquished)) = (self.peers.get(dc), self.lease.relinquish())
        else {
            return;
        };
        let shard = self.id;
        let ballot = Ballot::new(relinquished.n + 1, target.0 as u64);
        let expiry = now + LEASE_DURATION;
        fx.stats.handoffs += 1;
        let ended = Tenure::Ended {
            ballot: relinquished,
        };
        fx.tenure(shard, ended, now);
        // The `Handoff` goes first: links are FIFO, so the target has
        // begun its acquisition when this node's grant arrives.
        let msg = MsMsg::Handoff {
            shard,
            ballot,
            relinquished,
            expiry,
        };
        fx.broadcast(&self.peers, msg);
        self.on_acquire(target, ballot, expiry, Some(relinquished), now, fx);
        fx.out.push(Action::Relinquished { shard, to: target });
    }

    /// Routes one message of this shard to the machine it is for.
    pub(crate) fn on_msg(
        &mut self,
        from: NodeId,
        msg: MsMsg,
        now: SimTime,
        quarantined: bool,
        fx: &mut Effects<'_>,
    ) {
        match msg {
            MsMsg::HbReq { shard, round } => {
                let ballot = self.election.top_ballot(self.lease.granted());
                let holder = self.best_lease(now);
                let msg = MsMsg::HbReply {
                    shard,
                    round,
                    ballot,
                    holder,
                };
                fx.send(from, msg);
            }
            MsMsg::HbReply {
                round,
                ballot,
                holder,
                ..
            } => self.election.on_reply(from, round, ballot, holder, now),
            // A restarted replica's grant expiries died with its crash
            // (only the ballots came back from its log): granting again
            // before every possible pre-crash grant expired could break
            // the quorum intersection argument. Stay silent. Nor may it
            // take a handoff.
            MsMsg::Acquire { .. } | MsMsg::Handoff { .. } if quarantined => {}
            MsMsg::Acquire {
                ballot,
                expiry,
                relinquished,
                ..
            } => self.on_acquire(from, ballot, expiry, relinquished, now, fx),
            MsMsg::Grant {
                ballot,
                expiry,
                prev,
                ..
            } => {
                let tenure = self.lease.on_grant(from, ballot, expiry, prev, now);
                self.settle(tenure, now, fx);
            }
            MsMsg::Reject { max, .. } => {
                self.election.on_reject(max);
                let ended = self.lease.on_reject(max);
                self.settle(ended, now, fx);
            }
            MsMsg::Handoff {
                ballot,
                relinquished,
                expiry,
                ..
            } if ballot.node() == fx.me => {
                if !self.lease.has_ceded(ballot) {
                    self.election.adopt(ballot);
                    fx.stats.elections += 1;
                    self.acquire(ballot, Some(relinquished), expiry, now, fx);
                }
            }
            // The holder asks on the target's behalf: the answer goes to
            // the target, as if it had asked itself.
            MsMsg::Handoff {
                ballot,
                relinquished,
                expiry,
                ..
            } => self.on_acquire(ballot.node(), ballot, expiry, Some(relinquished), now, fx),
        }
    }

    /// A peer asks for the lease: the grantor's answer, and what this
    /// node learns from having given it.
    fn on_acquire(
        &mut self,
        from: NodeId,
        ballot: Ballot,
        expiry: SimTime,
        relinquished: Option<Ballot>,
        now: SimTime,
        fx: &mut Effects<'_>,
    ) {
        let shard = self.id;
        self.election.saw(ballot);
        let msg = match self.lease.grant(ballot, from, expiry, relinquished, now) {
            Verdict::Granted { rose, prev } => {
                if rose {
                    fx.out.push(Action::FloorRaised { shard, ballot });
                }
                self.election.observe(HolderHint {
                    ballot,
                    node: ballot.node(),
                    expiry,
                });
                MsMsg::Grant {
                    shard,
                    ballot,
                    expiry,
                    prev,
                }
            }
            Verdict::Refused { max } => {
                let max = self.election.top_ballot(max);
                MsMsg::Reject { shard, max }
            }
        };
        fx.send(from, msg);
    }
}
