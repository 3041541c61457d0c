//! The lease protocol of one shard, both roles. As a *grantor* a replica
//! keeps the highest lease ballot it granted and until when; as a
//! *holder* (or a candidate) it collects grants for one ballot, serves
//! once a majority acked, and then serves until the latest expiry a
//! majority acked, whichever renewal each grant answered. A candidate is
//! one of the shard's replicas and votes for itself, so both roles go
//! through the same [`Lease::grant`]. Pure: inputs are ballots, grants
//! and the clock; the outputs are return values ([`Verdict`], [`Begun`],
//! [`Tenure`], [`Held`]).

use mdcc_common::{NodeId, SimDuration, SimTime};

use crate::ballot::Ballot;
use crate::msg::HolderHint;

/// How long one lease grant is valid: four heartbeat intervals. A holder
/// asks for a renewal every tick and every grant counts, whichever
/// renewal it answers, so a renewal needs one majority round trip under
/// this, not under a tick; the lease also bounds the unavailability
/// window after a master crash (a successor must wait out the acked
/// expiry).
pub const LEASE_DURATION: SimDuration = SimDuration::from_millis(400);

#[derive(Debug, Clone)]
struct Holding {
    ballot: Ballot,
    serve_from: SimTime,
    /// The majority-th latest of `acks`: until when a majority of the
    /// group granted `ballot`.
    expiry: SimTime,
    /// The latest expiry each grantor acked for `ballot`, this node's
    /// own vote included.
    acks: Vec<(NodeId, SimTime)>,
}

impl Holding {
    /// Folds one grant of the held ballot in; returns the new expiry if
    /// the majority-th latest ack rose. A grantor's granted expiry only
    /// grows while it grants this ballot and is reported to whoever it
    /// grants a higher one, so a majority acking at least `expiry` is
    /// all a successor's wait needs — whichever renewal each ack answered.
    fn ack(&mut self, from: NodeId, expiry: SimTime, majority: usize) -> Option<SimTime> {
        match self.acks.iter_mut().find(|(n, _)| *n == from) {
            Some((_, acked)) => *acked = (*acked).max(expiry),
            None => self.acks.push((from, expiry)),
        }
        let mut acked: Vec<SimTime> = self.acks.iter().map(|(_, e)| *e).collect();
        acked.sort_unstable_by(|a, b| b.cmp(a));
        let until = *acked.get(majority - 1)?;
        (until > self.expiry).then(|| {
            self.expiry = until;
            until
        })
    }
}

#[derive(Debug, Clone)]
struct Pending {
    ballot: Ballot,
    expiry: SimTime,
    relinquished: Option<Ballot>,
    grants: Vec<NodeId>,
    /// Max predecessor expiry reported by grantors (what a fresh holder
    /// must wait out).
    floor: SimTime,
}

/// A grantor's answer to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    Granted {
        /// The granted ballot strictly rose: it is the shard's new
        /// promise floor.
        rose: bool,
        /// The previous grant `(ballot, expiry)` — the safety-critical
        /// datum: a fresh holder must not serve before the max of these
        /// across its grant quorum. `None` for a renewal and for a
        /// relinquished predecessor.
        prev: Option<(Ballot, SimTime)>,
    },
    /// The grantor already promised the higher ballot `max`.
    Refused { max: Ballot },
}

/// What happened to this node's tenure of the shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tenure {
    /// A grant majority made it the holder: it may serve over
    /// `[from, until)`.
    Acquired {
        ballot: Ballot,
        from: SimTime,
        until: SimTime,
    },
    /// A grant majority extended the tenure to `until`.
    Renewed { ballot: Ballot, until: SimTime },
    /// It stopped serving now (handed on, or outranked).
    Ended { ballot: Ballot },
}

/// What [`Lease::begin`] did besides opening the acquisition.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Begun {
    /// The lease end to request from the peers.
    pub(crate) expiry: SimTime,
    /// This node's own vote raised its granted ballot.
    pub(crate) rose: bool,
    /// Its own vote was already a majority (a group of one).
    pub(crate) tenure: Option<Tenure>,
}

/// What a heartbeat tick finds in the holder role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Held {
    /// Not holding.
    No,
    /// Holding: renew this ballot.
    Renew(Ballot),
    /// Was holding, and just gave up (see [`Lease::check`]).
    Deposed,
}

/// A voluntarily relinquished predecessor is neither reported by a
/// grantor nor waited out by its successor: its holder already ceded.
fn unless_relinquished(
    prev: Option<(Ballot, SimTime)>,
    relinquished: Option<Ballot>,
) -> Option<(Ballot, SimTime)> {
    prev.filter(|(ballot, _)| Some(*ballot) != relinquished)
}

/// One replica's lease state for one shard.
#[derive(Debug, Clone)]
pub(crate) struct Lease {
    me: NodeId,
    majority: usize,
    // --- grantor role ---
    granted: Ballot,
    granted_expiry: SimTime,
    /// The latest-expiring lease acked, before `granted`, for a node
    /// other than `granted`'s: what `granted`'s holder had to wait out,
    /// and must again if it campaigns again.
    earlier: Option<(Ballot, SimTime)>,
    /// What the grant that set `granted_expiry` reported: a copy of that
    /// request is answered alike.
    reported: Option<(Ballot, SimTime)>,
    // --- holder role ---
    holding: Option<Holding>,
    pending: Option<Pending>,
    /// The highest ballot this node relinquished.
    ceded: Ballot,
}

impl Lease {
    /// `granted` is the highest ballot this replica granted before it
    /// restarted, recovered from its log (the default ballot on a first
    /// boot): a restarted grantor refuses everything at or below it.
    pub(crate) fn new(me: NodeId, majority: usize, granted: Ballot) -> Self {
        Self {
            me,
            majority,
            granted,
            granted_expiry: SimTime::ZERO,
            earlier: None,
            reported: None,
            holding: None,
            pending: None,
            ceded: Ballot::default(),
        }
    }

    /// The grant rule. A replica grants a lease ballot only if it
    /// outranks everything it already granted — or is the same holder
    /// renewing the same ballot — so two holders can never have
    /// overlapping majority-acked windows: the grant quorum of a new
    /// ballot intersects the renewal quorum of the old one, and the
    /// intersection node reports the old expiry, which the new holder
    /// waits out. `from` is the requester: a peer, or this node voting
    /// for itself.
    ///
    /// What is reported is the latest-expiring lease this replica acked
    /// *for another node* — usually the previous grant, but not when the
    /// previous grant was the requester's own earlier campaign (a
    /// candidate that campaigns again before its grants return would
    /// otherwise hide the lease it was told to wait out behind its own
    /// ballot), nor when an older grant outlives a newer one.
    pub(crate) fn grant(
        &mut self,
        ballot: Ballot,
        from: NodeId,
        expiry: SimTime,
        relinquished: Option<Ballot>,
        now: SimTime,
    ) -> Verdict {
        if ballot == self.granted && ballot.pid == from.0 as u64 {
            // The same holder again. A copy of the request that set the
            // expiry gets the answer that request got: the requester may
            // count the copy first, and a fresh holder must wait out what
            // it reports. Anything else is a renewal, and renewals of one
            // holder may arrive out of order.
            let prev = (expiry == self.granted_expiry).then_some(self.reported);
            if expiry > self.granted_expiry {
                self.granted_expiry = expiry;
                self.reported = None;
            }
            return Verdict::Granted {
                rose: false,
                prev: prev.flatten(),
            };
        }
        if ballot <= self.granted {
            return Verdict::Refused { max: self.granted };
        }
        let last =
            (self.granted != Ballot::default()).then_some((self.granted, self.granted_expiry));
        let last = unless_relinquished(last, relinquished);
        let earlier = self.earlier.filter(|(_, until)| *until > now);
        let foreign = [last, earlier].into_iter().flatten();
        let foreign = foreign.filter(|(b, _)| b.pid != ballot.pid);
        self.earlier = foreign.max_by_key(|(_, until)| *until);
        self.granted = ballot;
        self.granted_expiry = expiry;
        // (`last` alone when it is the requester's own: it will not wait
        // for itself, but the message keeps its shape.)
        self.reported = self.earlier.or(last);
        Verdict::Granted {
            rose: true,
            prev: self.reported,
        }
    }

    /// The highest ballot this replica granted.
    pub(crate) fn granted(&self) -> Ballot {
        self.granted
    }

    /// Asks for `ballot` until `expiry` — a renewal of the held ballot,
    /// or an acquisition: a campaign or a handoff (`relinquished` is then
    /// the predecessor's ballot, whose expiry need not be waited out, and
    /// `expiry` the one the predecessor asked the grantors for on this
    /// node's behalf) — and casts this node's own vote. The caller asks
    /// the peers. An acquisition replaces the one pending; a renewal
    /// opens nothing, its grants extend the held tenure.
    pub(crate) fn begin(
        &mut self,
        ballot: Ballot,
        relinquished: Option<Ballot>,
        expiry: SimTime,
        now: SimTime,
    ) -> Begun {
        if self.held() != Some(ballot) {
            self.pending = Some(Pending {
                ballot,
                expiry,
                relinquished,
                grants: Vec::new(),
                floor: SimTime::ZERO,
            });
        }
        let (rose, tenure) = match self.grant(ballot, self.me, expiry, relinquished, now) {
            Verdict::Granted { rose, prev } => {
                (rose, self.on_grant(self.me, ballot, expiry, prev, now))
            }
            Verdict::Refused { .. } => (false, None),
        };
        Begun {
            expiry,
            rose,
            tenure,
        }
    }

    /// Folds one grant (own or a peer's) into the held tenure if it is
    /// for the held ballot, else into the matching pending acquisition,
    /// promoting to holder at majority.
    pub(crate) fn on_grant(
        &mut self,
        from: NodeId,
        ballot: Ballot,
        expiry: SimTime,
        prev: Option<(Ballot, SimTime)>,
        now: SimTime,
    ) -> Option<Tenure> {
        if let Some(h) = self.holding.as_mut().filter(|h| h.ballot == ballot) {
            let until = h.ack(from, expiry, self.majority)?;
            return Some(Tenure::Renewed { ballot, until });
        }
        let pending = self.pending.as_mut()?;
        if pending.ballot != ballot || pending.expiry != expiry || pending.grants.contains(&from) {
            return None;
        }
        pending.grants.push(from);
        if let Some((prev_ballot, prev_expiry)) = unless_relinquished(prev, pending.relinquished) {
            // A predecessor's acked window must be waited out — unless
            // it voluntarily relinquished (handoff) or it was this very
            // node's earlier tenure.
            if prev_ballot.pid != self.me.0 as u64 {
                pending.floor = pending.floor.max(prev_expiry);
            }
        }
        if pending.grants.len() < self.majority {
            return None;
        }
        let pending = self.pending.take()?;
        let serve_from = now.max(pending.floor);
        let acks = pending.grants.iter().map(|n| (*n, pending.expiry));
        self.holding = Some(Holding {
            ballot: pending.ballot,
            serve_from,
            expiry: pending.expiry,
            acks: acks.collect(),
        });
        Some(Tenure::Acquired {
            ballot: pending.ballot,
            from: serve_from,
            until: pending.expiry,
        })
    }

    /// An acquisition is pending whose grants could still make this node
    /// the holder before the lease it asked for ends.
    pub(crate) fn acquiring(&self, now: SimTime) -> bool {
        self.pending.as_ref().is_some_and(|p| p.expiry > now)
    }

    /// A grantor refused with `max`. If that outranks what this node is
    /// acquiring, the acquisition is over; if it outranks the lease this
    /// node holds, someone outranked that: it stops serving at once
    /// (their serve floor already covers its acked expiry, so this only
    /// tightens).
    pub(crate) fn on_reject(&mut self, max: Ballot) -> Option<Tenure> {
        self.pending.take_if(|p| max > p.ballot);
        let ballot = self.holding.take_if(|h| max > h.ballot)?.ballot;
        Some(Tenure::Ended { ballot })
    }

    /// The holder's tick. Self-deposition: a holder whose renewals have
    /// failed to reach a grant majority for a full lease beyond its
    /// expiry is on the wrong side of a partition — possibly an
    /// *asymmetric* one where its Acquires still reach the grantors
    /// (keeping their routing hints alive and elections suppressed)
    /// while the grants can never come back. It stopped serving at the
    /// expiry; now it also stops renewing, so the survivors' hints lapse
    /// and the connected majority can elect. Dropping the holding is
    /// always safe — it only ever stops this node from serving.
    /// Otherwise: renew (which also re-acquires an expired-but-
    /// unchallenged lease: replicas treat the same ballot from the same
    /// holder as a renewal).
    pub(crate) fn check(&mut self, now: SimTime) -> Held {
        let Some(Holding { ballot, expiry, .. }) = self.holding else {
            return Held::No;
        };
        if now.since(expiry) > LEASE_DURATION {
            self.holding = None;
            self.pending = None;
            return Held::Deposed;
        }
        Held::Renew(ballot)
    }

    /// Gives the lease up voluntarily (a handoff): this node stops
    /// serving *now*, so the successor may start without waiting out the
    /// expiry. Returns the relinquished ballot.
    pub(crate) fn relinquish(&mut self) -> Option<Ballot> {
        self.pending = None;
        let ballot = self.holding.take()?.ballot;
        self.ceded = self.ceded.max(ballot);
        Some(ballot)
    }

    /// Whether this node held `ballot` (or a later one) and relinquished
    /// it. Grantors do not make a successor wait out a relinquished
    /// ballot, so it must never be served under again — a late copy of
    /// the `Handoff` that once nominated this node with it is refused.
    pub(crate) fn has_ceded(&self, ballot: Ballot) -> bool {
        ballot <= self.ceded
    }

    /// The ballot of the lease this node holds while it is inside the
    /// majority-acked serving window — the one definition of "serving".
    pub(crate) fn serving(&self, now: SimTime) -> Option<Ballot> {
        self.holding
            .as_ref()
            .filter(|h| h.serve_from <= now && now < h.expiry)
            .map(|h| h.ballot)
    }

    /// The ballot of the lease this node is making, while it can still
    /// come to serve under it: the lease it holds but may not serve under
    /// yet, until that lease ends, else the one its pending acquisition
    /// asks for, until the end asked for. `None` while it serves.
    pub(crate) fn awaiting(&self, now: SimTime) -> Option<Ballot> {
        if self.serving(now).is_some() {
            return None;
        }
        let unserved = self.holding.as_ref().filter(|h| now < h.serve_from);
        let unserved = unserved.map(|h| (h.ballot, h.expiry));
        let pending = self.pending.as_ref().map(|p| (p.ballot, p.expiry));
        let making = [unserved, pending].into_iter().flatten();
        making
            .filter(|(_, until)| now < *until)
            .map(|(b, _)| b)
            .next()
    }

    /// The ballot of the lease this node holds, serving or not.
    pub(crate) fn held(&self) -> Option<Ballot> {
        self.holding.as_ref().map(|h| h.ballot)
    }

    /// The leases this replica knows of first hand: its own holding and
    /// the one in its grant table.
    pub(crate) fn hints(&self) -> impl Iterator<Item = HolderHint> {
        let own = self.holding.as_ref().map(|h| HolderHint {
            ballot: h.ballot,
            node: self.me,
            expiry: h.expiry,
        });
        let granted = (self.granted != Ballot::default()).then_some(HolderHint {
            ballot: self.granted,
            node: self.granted.node(),
            expiry: self.granted_expiry,
        });
        own.into_iter().chain(granted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ms(millis: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(millis)
    }

    impl Lease {
        /// Installs a held lease directly (tests of what a holder does).
        pub(crate) fn hold(&mut self, ballot: Ballot, serve_from: SimTime, expiry: SimTime) {
            self.holding = Some(Holding {
                ballot,
                serve_from,
                expiry,
                acks: Vec::new(),
            });
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The grant rule is one function of (table, ballot, requester):
        /// two replicas fed the same requests answer alike, whichever of
        /// them the requester happens to be.
        #[test]
        fn the_grant_rule_does_not_know_who_is_voting(
            requests in prop::collection::vec((0u32..4, 0u32..4, 0u32..4, 1u64..900, 0u32..4), 1..12),
        ) {
            let mut a = Lease::new(NodeId(1), 3, Ballot::default());
            let mut b = Lease::new(NodeId(3), 3, Ballot::default());
            for (n, pid, from, at, ceded) in requests {
                let ballot = Ballot::new(n, u64::from(pid));
                let relinquished = (ceded > 0).then_some(Ballot::new(ceded, 1));
                let (now, expiry) = (ms(at), ms(at) + LEASE_DURATION);
                let va = a.grant(ballot, NodeId(from), expiry, relinquished, now);
                let vb = b.grant(ballot, NodeId(from), expiry, relinquished, now);
                prop_assert_eq!(va, vb);
                prop_assert_eq!(a.granted(), b.granted());
                match va {
                    Verdict::Granted { .. } => prop_assert_eq!(a.granted(), ballot),
                    Verdict::Refused { max } => prop_assert!(max >= ballot && max == a.granted()),
                }
            }
        }
    }

    /// A candidate's own vote goes through the same rule: what `begin`
    /// leaves in the grant table is what a peer's `Acquire` would.
    #[test]
    fn begin_votes_through_the_grant_rule() {
        let mut own = Lease::new(NodeId(2), 3, Ballot::default());
        let mut peer = Lease::new(NodeId(0), 3, Ballot::default());
        for lease in [&mut own, &mut peer] {
            lease.grant(Ballot::new(1, 4), NodeId(4), ms(500), None, ms(100));
        }
        let begun = own.begin(Ballot::new(2, 2), None, ms(600), ms(200));
        let asked = peer.grant(Ballot::new(2, 2), NodeId(2), begun.expiry, None, ms(200));
        let prev = Some((Ballot::new(1, 4), ms(500)));
        assert_eq!(asked, Verdict::Granted { rose: true, prev });
        assert!(begun.rose && begun.tenure.is_none());
        assert_eq!(own.granted(), peer.granted());
        // Two peers complete the majority; the predecessor's acked
        // window is waited out.
        assert_eq!(
            own.on_grant(NodeId(0), Ballot::new(2, 2), begun.expiry, prev, ms(250)),
            None
        );
        let tenure = own.on_grant(NodeId(1), Ballot::new(2, 2), begun.expiry, None, ms(260));
        let (ballot, from, until) = (Ballot::new(2, 2), ms(500), begun.expiry);
        assert_eq!(
            tenure,
            Some(Tenure::Acquired {
                ballot,
                from,
                until
            })
        );
        assert_eq!(own.serving(ms(499)), None);
        assert_eq!(own.serving(ms(500)), Some(ballot));
        assert_eq!(own.serving(until), None);
    }

    /// What a grantor reports is the latest-expiring lease it acked for
    /// *another* node, not merely its previous grant.
    #[test]
    fn a_grantor_reports_the_lease_another_node_may_still_serve_under() {
        let mut x = Lease::new(NodeId(0), 3, Ballot::default());
        let granted = |v| match v {
            Verdict::Granted { prev, .. } => prev,
            Verdict::Refused { max } => panic!("refused, {max:?}"),
        };
        let theirs = (Ballot::new(1, 2), ms(514));
        assert_eq!(
            granted(x.grant(theirs.0, NodeId(2), theirs.1, None, ms(114))),
            None
        );
        // Node 4 campaigns, is told of it, and campaigns again before
        // the grants are back: it is told again.
        let first = x.grant(Ballot::new(1, 4), NodeId(4), ms(515), None, ms(115));
        assert_eq!(granted(first), Some(theirs));
        let again = x.grant(Ballot::new(2, 4), NodeId(4), ms(522), None, ms(122));
        assert_eq!(
            granted(again),
            Some(theirs),
            "not hidden behind its own (1, 4)"
        );
        // Once that lease has run out only the previous grant is left to
        // report (the requester's own here: it will not wait for it).
        let later = x.grant(Ballot::new(3, 4), NodeId(4), ms(1_000), None, ms(600));
        assert_eq!(granted(later), Some((Ballot::new(2, 4), ms(522))));
        // A renewal that arrives late does not shorten what was acked.
        x.grant(Ballot::new(3, 4), NodeId(4), ms(1_100), None, ms(700));
        x.grant(Ballot::new(3, 4), NodeId(4), ms(1_050), None, ms(710));
        let next = x.grant(Ballot::new(4, 1), NodeId(1), ms(1_200), None, ms(800));
        assert_eq!(granted(next), Some((Ballot::new(3, 4), ms(1_100))));
    }

    /// A copy of the request a grant answered gets the same answer: the
    /// candidate may count the copy first, and only the first answer
    /// named the lease it must wait out. (400 000 generated schedules
    /// found two nodes serving when a copy answered as a renewal would.)
    #[test]
    fn a_copy_of_a_granted_request_is_answered_alike() {
        let mut x = Lease::new(NodeId(0), 3, Ballot::default());
        x.grant(Ballot::new(2, 4), NodeId(4), ms(886), None, ms(486));
        let theirs = Some((Ballot::new(2, 4), ms(886)));
        let first = x.grant(Ballot::new(3, 3), NodeId(3), ms(915), None, ms(515));
        let copy = x.grant(Ballot::new(3, 3), NodeId(3), ms(915), None, ms(725));
        assert_eq!(
            first,
            Verdict::Granted {
                rose: true,
                prev: theirs
            }
        );
        assert_eq!(
            copy,
            Verdict::Granted {
                rose: false,
                prev: theirs
            }
        );
        // A renewal reports nothing, and neither does a copy of it.
        let renewed = Verdict::Granted {
            rose: false,
            prev: None,
        };
        for at in [815, 820] {
            let verdict = x.grant(Ballot::new(3, 3), NodeId(3), ms(1_215), None, ms(at));
            assert_eq!(verdict, renewed);
        }
    }

    /// A relinquished ballot is not waited out — and never served under
    /// again by the node that gave it up.
    #[test]
    fn a_relinquished_ballot_is_gone_for_good() {
        let mut holder = Lease::new(NodeId(4), 3, Ballot::default());
        holder.hold(Ballot::new(2, 4), ms(0), ms(900));
        assert!(!holder.has_ceded(Ballot::new(2, 4)));
        assert_eq!(holder.relinquish(), Some(Ballot::new(2, 4)));
        assert_eq!(holder.serving(ms(10)), None);
        assert!(holder.has_ceded(Ballot::new(2, 4)) && holder.has_ceded(Ballot::new(1, 4)));
        assert!(!holder.has_ceded(Ballot::new(3, 4)));
        let mut x = Lease::new(NodeId(0), 3, Ballot::default());
        x.grant(Ballot::new(2, 4), NodeId(4), ms(900), None, ms(500));
        let handed = x.grant(
            Ballot::new(3, 1),
            NodeId(1),
            ms(950),
            Some(Ballot::new(2, 4)),
            ms(550),
        );
        assert_eq!(
            handed,
            Verdict::Granted {
                rose: true,
                prev: None
            }
        );
    }

    /// Every grant of the held ballot counts, whichever renewal it
    /// answers: the tenure runs to the latest expiry a majority acked,
    /// so renewals whose grants take longer than a tick still extend it,
    /// and a late grant never shortens it.
    #[test]
    fn a_holder_counts_every_grant_of_its_ballot() {
        let (mut holder, b) = (
            Lease::new(NodeId(4), 3, Ballot::default()),
            Ballot::new(1, 4),
        );
        let begun = holder.begin(b, None, ms(400), ms(0));
        assert_eq!(
            holder.on_grant(NodeId(0), b, begun.expiry, None, ms(60)),
            None
        );
        let acquired = holder.on_grant(NodeId(1), b, begun.expiry, None, ms(60));
        let (from, until) = (ms(60), ms(400));
        assert_eq!(
            acquired,
            Some(Tenure::Acquired {
                ballot: b,
                from,
                until
            })
        );
        // Two renewals go out before either is answered.
        for at in [100, 200] {
            assert!(holder.begin(b, None, ms(at + 400), ms(at)).tenure.is_none());
        }
        // Node 0 answers the first, node 2 the second: with this node's
        // own votes a majority acked 500 at least.
        assert_eq!(holder.on_grant(NodeId(0), b, ms(500), None, ms(250)), None);
        let renewed = holder.on_grant(NodeId(2), b, ms(600), None, ms(260));
        assert_eq!(
            renewed,
            Some(Tenure::Renewed {
                ballot: b,
                until: ms(500)
            })
        );
        // An older grant changes nothing; the majority's latest does.
        assert_eq!(holder.on_grant(NodeId(3), b, ms(400), None, ms(270)), None);
        let renewed = holder.on_grant(NodeId(1), b, ms(600), None, ms(280));
        assert_eq!(
            renewed,
            Some(Tenure::Renewed {
                ballot: b,
                until: ms(600)
            })
        );
        assert_eq!(holder.on_grant(NodeId(0), b, ms(500), None, ms(290)), None);
        assert_eq!(holder.serving(ms(599)), Some(b));
        assert_eq!(holder.serving(ms(600)), None);
    }

    /// A `Reject` that outranks the held ballot ends the tenure whether
    /// or not an acquisition is pending; one that does not, leaves it.
    #[test]
    fn an_outranking_reject_ends_the_tenure() {
        let mut holder = Lease::new(NodeId(4), 3, Ballot::default());
        holder.hold(Ballot::new(2, 4), ms(0), ms(900));
        assert_eq!(holder.on_reject(Ballot::new(2, 4)), None);
        assert_eq!(holder.on_reject(Ballot::new(1, 9)), None);
        let ended = holder.on_reject(Ballot::new(3, 1));
        assert_eq!(
            ended,
            Some(Tenure::Ended {
                ballot: Ballot::new(2, 4)
            })
        );
        assert_eq!(holder.held(), None);
    }

    /// A node is making the lease from its acquisition until it serves:
    /// while the grants are out, and while a predecessor's acked window
    /// is waited out, as long as the lease it makes has not ended.
    #[test]
    fn a_lease_is_awaited_until_it_serves_or_cannot() {
        let mut candidate = Lease::new(NodeId(2), 3, Ballot::default());
        let b = Ballot::new(2, 2);
        assert_eq!(candidate.awaiting(ms(0)), None, "making no lease");
        let begun = candidate.begin(b, None, ms(500), ms(100));
        assert_eq!(candidate.awaiting(ms(100)), Some(b));
        assert_eq!(candidate.awaiting(begun.expiry), None, "lapsed");
        let prev = Some((Ballot::new(1, 4), ms(700)));
        candidate.on_grant(NodeId(0), b, begun.expiry, prev, ms(150));
        candidate.on_grant(NodeId(1), b, begun.expiry, None, ms(160));
        assert_eq!(candidate.serving(ms(499)), None);
        assert_eq!(candidate.awaiting(ms(499)), Some(b));
        assert_eq!(candidate.awaiting(begun.expiry), None, "ended unserved");
        // Renewals while it waits extend the lease it is making.
        candidate.begin(b, None, ms(800), ms(400));
        candidate.on_grant(NodeId(0), b, ms(800), None, ms(450));
        candidate.on_grant(NodeId(1), b, ms(800), None, ms(460));
        assert_eq!(candidate.awaiting(ms(699)), Some(b));
        assert_eq!(candidate.awaiting(ms(700)), None, "serving");
        // A refusal ends the acquisition, and with it the wait.
        let mut refused = Lease::new(NodeId(2), 3, Ballot::default());
        refused.begin(b, None, ms(500), ms(100));
        refused.on_reject(Ballot::new(3, 4));
        assert_eq!(refused.awaiting(ms(110)), None);
    }

    /// Self-deposition: one lease duration past the expiry, not before.
    #[test]
    fn a_holder_gives_up_a_lease_it_cannot_renew() {
        let mut holder = Lease::new(NodeId(4), 3, Ballot::default());
        holder.hold(Ballot::new(2, 4), ms(0), ms(900));
        assert_eq!(holder.check(ms(1_300)), Held::Renew(Ballot::new(2, 4)));
        assert_eq!(holder.check(ms(1_301)), Held::Deposed);
        assert_eq!(holder.check(ms(1_302)), Held::No);
        assert_eq!(holder.held(), None);
    }
}
