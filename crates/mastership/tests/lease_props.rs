//! Lease safety under any delivery order, and lease liveness on a steady
//! network, without the simulator.
//!
//! Five [`Mastership`] layers replicate one shard. A generated schedule
//! ticks them one at a time on a shared clock, delivers what is in
//! flight in any order, drops it, delivers it twice, crashes and
//! restarts nodes, and sends bursts of mastered traffic from one data
//! center to whoever is serving. The simulator's network is FIFO per
//! link and never duplicates; this one is neither, and it runs thousands
//! of schedules a second.
//!
//! After every step at most one node is serving. At the end no two
//! audit spans of different nodes overlap, and the `FloorRaised` ballots
//! a node emitted are strictly increasing across its incarnations: a
//! restarted node is rebuilt with the floors it raised before, as its
//! WAL's `LeaseFloor` records would give them back.
//!
//! Liveness runs the same five layers on a network without faults and
//! with one fixed one-way delay, each node ticking on its own clock: the
//! first holder keeps the lease whatever the round trip under the lease
//! duration, nobody probes while it renews, and a crashed holder's
//! successor serves as soon as it did when renewals were lost to the
//! tick.

use std::collections::BTreeMap;

use mdcc_common::{DcId, NodeId, SimDuration, SimTime};
use mdcc_mastership::{
    Action, Ballot, LeaseAudit, Mastership, MsMsg, HEARTBEAT_INTERVAL, LEASE_DURATION,
};
use proptest::prelude::*;

const NODES: u32 = 5;
const SHARD: u32 = 0;
/// How long a crashed node stays down before it is rebuilt: not at all,
/// the case that once found [`REVIVAL`].
const DOWN: SimDuration = SimDuration::ZERO;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Advance the clock by `ms` and tick `node`.
    Tick { node: u32, ms: u64 },
    /// Deliver the `count` oldest messages in flight, in order.
    Flush { count: usize },
    /// Deliver the `k`-th message in flight (out of order).
    Deliver { k: usize },
    /// Lose the `k`-th message in flight.
    Drop { k: usize },
    /// Deliver the `k`-th message in flight and keep it in flight.
    Duplicate { k: usize },
    /// Crash `node`; it is rebuilt `down` later, recovered then.
    Crash { node: u32 },
    /// `burst` mastered requests from `dc` — or, without one, from the
    /// data center whose turn it is (they take two-second turns, the
    /// shifting-locality pattern) — served by whoever serves.
    Serve { dc: Option<u8>, burst: u32 },
}

/// One op from three sampled words; ticks and deliveries dominate, so
/// that leases are actually acquired, renewed and migrated.
fn op((kind, a, b): (u8, u8, u16)) -> Op {
    let (node, k) = (u32::from(a) % NODES, usize::from(b));
    match kind % 16 {
        0..=4 => Op::Tick {
            node,
            ms: 1 + u64::from(b) % if a < 64 { 150 } else { 30 },
        },
        5..=8 => Op::Flush { count: 1 + k % 24 },
        9..=10 => Op::Deliver { k },
        11 => Op::Drop { k },
        12 => Op::Duplicate { k },
        13 if b % 8 == 0 => Op::Crash { node },
        13..=14 => Op::Serve {
            dc: (a % 4 == 0).then_some(a / 4 % NODES as u8),
            burst: 20 + u32::from(b) % 40,
        },
        _ => Op::Tick {
            node,
            ms: 1 + u64::from(b) % 20,
        },
    }
}

struct Group {
    nodes: Vec<Mastership>,
    now: SimTime,
    in_flight: Vec<(NodeId, NodeId, MsMsg)>,
    audit: LeaseAudit,
    /// `FloorRaised` ballots of each node, over all its incarnations.
    floors: Vec<Vec<Ballot>>,
    /// When each crashed node comes back, `down` after its crash.
    down_until: Vec<Option<SimTime>>,
    down: SimDuration,
}

impl Group {
    fn new(down: SimDuration) -> Self {
        let audit = LeaseAudit::new();
        Self {
            nodes: (0..NODES).map(|i| boot(i, None, &[], &audit)).collect(),
            now: SimTime::ZERO,
            in_flight: Vec::new(),
            audit,
            floors: vec![Vec::new(); NODES as usize],
            down_until: vec![None; NODES as usize],
            down,
        }
    }

    fn absorb(&mut self, node: u32, actions: Vec<Action>) -> Result<(), String> {
        for action in actions {
            match action {
                Action::Send { to, msg } => self.in_flight.push((NodeId(node), to, msg)),
                Action::FloorRaised { ballot, .. } => {
                    let floors = &mut self.floors[node as usize];
                    if floors.last().is_some_and(|last| *last >= ballot) {
                        return Err(format!("node {node} raised {ballot:?} after {floors:?}"));
                    }
                    floors.push(ballot);
                }
                Action::Relinquished { .. } => {}
            }
        }
        Ok(())
    }

    fn deliver(&mut self, (from, to, msg): (NodeId, NodeId, MsMsg)) -> Result<(), String> {
        if self.down_until[to.0 as usize].is_some() {
            return Ok(());
        }
        let mut out = Vec::new();
        self.nodes[to.0 as usize].on_msg(from, msg, self.now, &mut out);
        self.absorb(to.0, out)
    }

    fn apply(&mut self, op: Op) -> Result<(), String> {
        let pick = |k: usize, len: usize| (len > 0).then(|| k % len);
        match op {
            Op::Tick { node, ms } => {
                self.now += SimDuration::from_millis(ms);
                self.revive();
                if self.down_until[node as usize].is_none() {
                    let mut out = Vec::new();
                    self.nodes[node as usize].on_tick(self.now, &mut out);
                    self.absorb(node, out)?;
                }
            }
            Op::Flush { count } => {
                let count = count.min(self.in_flight.len());
                for m in self.in_flight.drain(..count).collect::<Vec<_>>() {
                    self.deliver(m)?;
                }
            }
            Op::Deliver { k } => {
                if let Some(k) = pick(k, self.in_flight.len()) {
                    let m = self.in_flight.remove(k);
                    self.deliver(m)?;
                }
            }
            Op::Drop { k } => {
                if let Some(k) = pick(k, self.in_flight.len()) {
                    self.in_flight.remove(k);
                }
            }
            Op::Duplicate { k } => {
                if let Some(k) = pick(k, self.in_flight.len()) {
                    self.deliver(self.in_flight[k].clone())?;
                }
            }
            Op::Crash { node } => {
                self.down_until[node as usize] = Some(self.now + self.down);
                self.revive();
            }
            Op::Serve { dc, burst } => {
                let now = self.now;
                let dc = dc.unwrap_or((now.as_millis() / 2_000 % u64::from(NODES)) as u8);
                for node in self.serving() {
                    for _ in 0..burst {
                        self.nodes[node as usize].note_served(SHARD, DcId(dc));
                    }
                }
            }
        }
        self.at_most_one_serves()
    }

    /// Rebuilds the crashed nodes whose downtime is over.
    fn revive(&mut self) {
        for i in 0..NODES {
            if self.down_until[i as usize].is_some_and(|at| at <= self.now) {
                self.down_until[i as usize] = None;
                let floors = &self.floors[i as usize];
                self.nodes[i as usize] = boot(i, Some(self.now), floors, &self.audit);
            }
        }
    }

    fn serving(&self) -> Vec<u32> {
        (0..NODES)
            .filter(|i| self.down_until[*i as usize].is_none())
            .filter(|i| self.nodes[*i as usize].is_serving(SHARD, self.now))
            .collect()
    }

    fn at_most_one_serves(&self) -> Result<(), String> {
        let serving = self.serving();
        if serving.len() > 1 {
            return Err(format!("{serving:?} all serve at {}", self.now));
        }
        Ok(())
    }

    fn overlapping_spans(&self) -> Result<(), String> {
        let spans = self.audit.spans();
        for (i, a) in spans.iter().enumerate() {
            for b in &spans[i + 1..] {
                let disjoint = a.until <= b.from || b.until <= a.from;
                if a.node != b.node && !disjoint {
                    return Err(format!("overlapping tenures {a:?} and {b:?}"));
                }
            }
        }
        Ok(())
    }
}

/// Node `i`, restarted at `recovered_at` with the `floors` it raised
/// before, or booted for the first time.
fn boot(
    i: u32,
    recovered_at: Option<SimTime>,
    floors: &[Ballot],
    audit: &LeaseAudit,
) -> Mastership {
    let group = (0..NODES).map(NodeId).collect();
    let granted: Vec<(u32, Ballot)> = floors.iter().map(|b| (SHARD, *b)).collect();
    let shards = vec![(SHARD, group)];
    let mut node = Mastership::new(NodeId(i), DcId(i as u8), shards, recovered_at, &granted);
    node.set_audit(audit.clone());
    node
}

/// What a schedule exercised: `(tenures, handoffs)`.
fn run(schedule: &[Op]) -> Result<(usize, u64), String> {
    run_with(schedule, DOWN)
}

fn run_with(schedule: &[Op], down: SimDuration) -> Result<(usize, u64), String> {
    let mut group = Group::new(down);
    for (step, op) in schedule.iter().enumerate() {
        group
            .apply(*op)
            .map_err(|e| format!("step {step} ({op:?}): {e}"))?;
    }
    group.overlapping_spans()?;
    let handoffs = group.nodes.iter().map(|n| n.stats().handoffs).sum();
    Ok((group.audit.spans().len(), handoffs))
}

/// The vendored proptest does not shrink: drop ops one at a time for as
/// long as the schedule still fails.
fn shrink(mut schedule: Vec<Op>) -> Vec<Op> {
    let mut i = 0;
    while i < schedule.len() {
        let mut shorter = schedule.clone();
        shorter.remove(i);
        if run(&shorter).is_err() {
            schedule = shorter;
            i = 0;
        } else {
            i += 1;
        }
    }
    schedule
}

/// The property: panics with the shrunk schedule if one breaks it.
fn check(words: Vec<(u8, u8, u16)>) {
    let schedule: Vec<Op> = words.into_iter().map(op).collect();
    if run(&schedule).is_err() {
        let schedule = shrink(schedule);
        let violation = run(&schedule).expect_err("shrinking keeps the failure");
        let lines: Vec<String> = schedule.iter().map(|op| format!("{op:?},")).collect();
        panic!("{violation}\nschedule:\n{}", lines.join("\n"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn at_most_one_node_serves_under_any_delivery_order(
        words in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u16>()), 50..600),
    ) {
        check(words);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400_000))]

    /// The same property at 400 000 schedules (about a minute in release):
    /// `cargo test --release -p mdcc-mastership --test lease_props --
    /// --ignored`.
    #[test]
    #[ignore]
    fn at_most_one_node_serves_in_400_000_schedules(
        words in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u16>()), 50..600),
    ) {
        check(words);
    }
}

/// The generator is worth something only if its schedules get far
/// enough to have leases to break: most elect a holder, and a good share
/// migrate the lease at least once.
#[test]
fn schedules_reach_tenures_and_handoffs() {
    let mut rng = proptest::TestRng::deterministic("coverage");
    let (mut with_tenure, mut with_handoff) = (0, 0);
    for _ in 0..300 {
        let schedule: Vec<Op> = (0..400)
            .map(|_| {
                let w = rng.next_u64();
                op((w as u8, (w >> 8) as u8, (w >> 16) as u16))
            })
            .collect();
        let (tenures, handoffs) = run(&schedule).expect("safe");
        with_tenure += usize::from(tenures > 0);
        with_handoff += usize::from(handoffs > 0);
    }
    assert!(
        with_tenure >= 250,
        "only {with_tenure} of 300 elected a holder"
    );
    assert!(
        with_handoff >= 30,
        "only {with_handoff} of 300 migrated a lease"
    );
}

/// Found by reading the handoff rule against a network that duplicates
/// (the generator above reaches it too rarely to count on): grantors do
/// not make a successor wait out a *relinquished* ballot, so the node
/// that relinquished it must never serve under it again — not even when
/// a late copy of the `Handoff` that once gave it that ballot turns up
/// while its own successor is still collecting grants.
#[test]
fn a_late_copy_of_a_handoff_cannot_revive_the_lease_it_once_gave() {
    let mut g = Group::new(DOWN);
    let is_handoff = |m: &(NodeId, NodeId, MsMsg)| matches!(m.2, MsMsg::Handoff { .. });
    // One heartbeat interval with an obedient network, `dc` dominating
    // the traffic; stops short of delivering a `Handoff`.
    let round = |g: &mut Group, dc: u8| {
        g.apply(Op::Serve {
            dc: Some(dc),
            burst: 60,
        })
        .expect("safe");
        for node in 0..NODES {
            let ms = if node == 0 { 100 } else { 0 };
            g.apply(Op::Tick { node, ms }).expect("safe");
        }
        while !g.in_flight.is_empty() && !g.in_flight.iter().any(is_handoff) {
            g.apply(Op::Flush { count: 1 }).expect("safe");
        }
    };
    // Delivers everything in flight, and every reply to it.
    let settle = |g: &mut Group| {
        while !g.in_flight.is_empty() {
            g.apply(Op::Flush { count: 1 })?;
        }
        Ok::<(), String>(())
    };
    // Node 4 is elected, then hands the lease to data center 1.
    while !g.in_flight.iter().any(is_handoff) {
        round(&mut g, 1);
    }
    let late_copy = g.in_flight.iter().find(|m| is_handoff(m)).cloned();
    let late_copy = late_copy.expect("a handoff is in flight");
    settle(&mut g).expect("safe");
    assert_eq!(g.serving(), [1]);
    // Node 1 hands it on to data center 0, whose replica starts
    // acquiring; its requests are still on their way when the copy of
    // the first handoff reaches node 1.
    while !g.in_flight.iter().any(is_handoff) {
        round(&mut g, 0);
    }
    assert_eq!(g.serving(), [] as [u32; 0], "node 1 relinquished");
    let second = g.in_flight.iter().position(is_handoff).expect("in flight");
    let second = g.in_flight.remove(second);
    g.in_flight.clear();
    g.deliver(second).expect("safe");
    let successor_asks = std::mem::take(&mut g.in_flight);
    g.deliver(late_copy).expect("safe");
    // (What node 1 then sends to its successor is lost: the successor's
    // `Reject` would have stopped it.)
    g.in_flight.retain(|(_, to, _)| *to != NodeId(0));
    settle(&mut g).expect("safe");
    g.in_flight = successor_asks;
    settle(&mut g).expect("the successor serves alone");
    assert_eq!(g.serving(), [0]);
}

/// What the property found first, shrunk (plain ticks and in-order
/// delivery are enough): node 2 hears only lower pids and campaigns with
/// (1, 2) while node 4 campaigns with (1, 4) and, a tick later and before
/// its grants are back, again with (2, 4). Grantors reported only their
/// *previous* grant — (1, 4), the candidate's own, which it does not
/// wait for — so the lease they had acked for node 2 until 514 ms was
/// hidden and both served from 122 ms. Grantors now report the
/// latest-expiring lease they acked for *another* node.
#[test]
fn a_candidate_that_campaigns_twice_still_waits_out_what_it_was_told_of() {
    use Op::*;
    let schedule = [
        Tick { node: 1, ms: 13 },
        Tick { node: 4, ms: 27 },
        Deliver { k: 61566 },
        Tick { node: 2, ms: 20 },
        Tick { node: 4, ms: 5 },
        Tick { node: 1, ms: 18 },
        Duplicate { k: 20103 },
        Tick { node: 4, ms: 6 },
        Flush { count: 16 },
        Flush { count: 18 },
        Tick { node: 2, ms: 25 },
        Flush { count: 11 },
        Tick { node: 4, ms: 1 },
        Flush { count: 8 },
        Tick { node: 4, ms: 7 },
        Flush { count: 14 },
        Flush { count: 9 },
        Flush { count: 15 },
    ];
    let (tenures, _) = run(&schedule).expect("node 4 waits");
    assert_eq!(tenures, 2, "both were elected, one after the other");
}

/// Found by the property when crashed nodes came back at once: a holder
/// whose lease lapsed keeps asking for it with the same ballot, and
/// grantors that restarted meanwhile had forgotten that ballot and
/// elected a *lower* one. To them the old ballot rose, they reported the
/// lease to wait out on the first grant only, and the holder, whose
/// request was a renewal, neither waited nor still had that request
/// pending: nodes 2 and 4 both served at 687 ms. A restarted grantor now
/// starts from the ballots it granted before (its `LeaseFloor` records)
/// and refuses the lower one outright.
#[test]
fn a_lapsed_holder_is_revived_by_grantors_that_restarted_at_once() {
    run_with(&REVIVAL, SimDuration::ZERO).expect("restarted grantors remember what they granted");
}

const REVIVAL: [Op; 57] = {
    use Op::*;
    [
        Tick { node: 4, ms: 5 },
        Crash { node: 2 },
        Flush { count: 6 },
        Crash { node: 0 },
        Flush { count: 22 },
        Tick { node: 4, ms: 12 },
        Tick { node: 0, ms: 2 },
        Tick { node: 0, ms: 23 },
        Flush { count: 23 },
        Tick { node: 1, ms: 5 },
        Tick { node: 4, ms: 16 },
        Flush { count: 11 },
        Drop { k: 42620 },
        Drop { k: 11088 },
        Tick { node: 1, ms: 114 },
        Deliver { k: 918 },
        Deliver { k: 29761 },
        Flush { count: 2 },
        Deliver { k: 38275 },
        Tick { node: 4, ms: 5 },
        Tick { node: 3, ms: 30 },
        Duplicate { k: 23477 },
        Tick { node: 2, ms: 21 },
        Flush { count: 2 },
        Tick { node: 4, ms: 10 },
        Tick { node: 2, ms: 6 },
        Flush { count: 2 },
        Deliver { k: 15326 },
        Tick { node: 0, ms: 6 },
        Tick { node: 4, ms: 19 },
        Tick { node: 1, ms: 10 },
        Crash { node: 1 },
        Flush { count: 21 },
        Tick { node: 1, ms: 16 },
        Flush { count: 22 },
        Flush { count: 14 },
        Flush { count: 16 },
        Tick { node: 2, ms: 125 },
        Tick { node: 2, ms: 101 },
        Tick { node: 1, ms: 29 },
        Tick { node: 0, ms: 34 },
        Tick { node: 3, ms: 13 },
        Tick { node: 4, ms: 12 },
        Tick { node: 4, ms: 7 },
        Tick { node: 2, ms: 18 },
        Tick { node: 2, ms: 18 },
        Tick { node: 4, ms: 14 },
        Tick { node: 3, ms: 16 },
        Flush { count: 24 },
        Flush { count: 16 },
        Flush { count: 23 },
        Flush { count: 8 },
        Flush { count: 17 },
        Flush { count: 14 },
        Flush { count: 10 },
        Flush { count: 7 },
        Flush { count: 20 },
    ]
};

/// What happens on the steady network: a node's heartbeat tick, or a
/// message arriving.
enum Event {
    Tick(u32),
    Deliver(NodeId, NodeId, MsMsg),
}

/// Five layers, one shard, every message arriving `delay` after it was
/// sent, every node ticking when its last tick said to — the first ones
/// staggered by node id as storage nodes stagger them.
struct Steady {
    nodes: Vec<Mastership>,
    alive: Vec<bool>,
    delay: SimDuration,
    now: SimTime,
    /// Pending events by `(when, scheduling order)`.
    queue: BTreeMap<(SimTime, u64), Event>,
    scheduled: u64,
    audit: LeaseAudit,
    /// When each `HbReq` was sent.
    probes: Vec<SimTime>,
    /// When the first renewal completed.
    settled: Option<SimTime>,
}

impl Steady {
    fn new(rtt_ms: u64) -> Self {
        let audit = LeaseAudit::new();
        let mut steady = Self {
            nodes: (0..NODES).map(|i| boot(i, None, &[], &audit)).collect(),
            alive: vec![true; NODES as usize],
            delay: SimDuration::from_millis(rtt_ms) / 2,
            now: SimTime::ZERO,
            queue: BTreeMap::new(),
            scheduled: 0,
            audit,
            probes: Vec::new(),
            settled: None,
        };
        for i in 0..NODES {
            let stagger = SimDuration::from_micros(u64::from(i) * 313);
            steady.schedule(HEARTBEAT_INTERVAL + stagger, Event::Tick(i));
        }
        steady
    }

    fn schedule(&mut self, after: SimDuration, event: Event) {
        self.scheduled += 1;
        self.queue.insert((self.now + after, self.scheduled), event);
    }

    /// Runs every event up to `until`; ticks stop after `ticks_until`,
    /// so what is in flight then still arrives.
    fn run(&mut self, until: SimTime, ticks_until: SimTime) {
        while let Some(entry) = self.queue.first_entry() {
            if entry.key().0 > until {
                break;
            }
            let ((at, _), event) = entry.remove_entry();
            self.now = at;
            let mut out = Vec::new();
            let (node, next_tick) = match event {
                Event::Tick(i) if self.alive[i as usize] && at <= ticks_until => {
                    (i, Some(self.nodes[i as usize].on_tick(at, &mut out)))
                }
                Event::Deliver(from, to, msg) if self.alive[to.0 as usize] => {
                    self.nodes[to.0 as usize].on_msg(from, msg, at, &mut out);
                    (to.0, None)
                }
                _ => continue,
            };
            // Sends first, then the next tick, as a storage node does.
            for action in out {
                if let Action::Send { to, msg } = action {
                    if matches!(msg, MsMsg::HbReq { .. }) {
                        self.probes.push(at);
                    }
                    self.schedule(self.delay, Event::Deliver(NodeId(node), to, msg));
                }
            }
            if let Some(next) = next_tick {
                self.schedule(next, Event::Tick(node));
            }
            if self.settled.is_none() && self.sum(|s| s.renewals) > 0 {
                self.settled = Some(at);
            }
        }
        self.now = until;
    }

    fn sum(&self, counter: impl Fn(mdcc_mastership::MastershipStats) -> u64) -> u64 {
        self.nodes.iter().map(|n| counter(n.stats())).sum()
    }
}

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// Round trips the lease duration leaves room for: from 60 ms, where
/// renewals always came back within a tick, to 200 ms, past the 190 ms
/// of the farthest `Ec2Five` grant majority.
const STEADY_RTTS_MS: [u64; 4] = [60, 100, 140, 200];

/// On a steady network the first holder keeps the lease for the whole
/// run: one election, one acquisition, a renewal every tick, and — once the first
/// renewal is back — not one heartbeat probe. A renewal that was still
/// in flight at the next tick used to be replaced by that tick's, so at
/// a round trip of a tick or more the lease lapsed and was acquired
/// again.
#[test]
fn the_first_holder_keeps_the_lease_at_any_round_trip_under_the_lease() {
    let (run_ms, tick_ms) = (20_000, HEARTBEAT_INTERVAL.as_millis());
    assert!(STEADY_RTTS_MS
        .iter()
        .all(|rtt| *rtt < LEASE_DURATION.as_millis() - tick_ms));
    for rtt in STEADY_RTTS_MS {
        let mut steady = Steady::new(rtt);
        let end = at_ms(run_ms);
        steady.run(end + LEASE_DURATION, end);
        let spans = steady.audit.spans();
        let acquired = steady.sum(|s| s.leases_acquired);
        assert_eq!((acquired, spans.len()), (1, 1), "{rtt} ms: {spans:?}");
        // One campaign per acquisition: a candidate waits for its own
        // grants instead of campaigning again over them.
        let elections = steady.sum(|s| s.elections);
        assert_eq!(elections, acquired, "{rtt} ms: {elections} elections");
        let tenure = end.since(spans[0].from).as_millis();
        let renewals = steady.sum(|s| s.renewals);
        assert!(
            renewals + 2 >= tenure / tick_ms,
            "{rtt} ms: {renewals} renewals in a {tenure} ms tenure"
        );
        let settled = steady.settled.expect("renewed");
        let late = steady.probes.iter().filter(|at| **at >= settled).count();
        assert_eq!(
            late, 0,
            "{rtt} ms: probes after the tenure settled at {settled}"
        );
    }
}

/// After the holder crashes, a successor serves no later than it did
/// when a tick replaced the renewal in flight and every replica probed
/// every tick: `SUCCESSOR_WITHIN_MS` is what this harness measured then,
/// per round trip.
#[test]
fn a_crashed_holders_successor_serves_as_soon_as_it_did() {
    const SUCCESSOR_WITHIN_MS: [u64; 4] = [460, 500, 665, 725];
    let crash = at_ms(6_000);
    for (rtt, within) in STEADY_RTTS_MS.into_iter().zip(SUCCESSOR_WITHIN_MS) {
        let mut steady = Steady::new(rtt);
        steady.run(crash, crash);
        let holder = steady.audit.spans().last().expect("a holder").node;
        steady.alive[holder.0 as usize] = false;
        let end = crash + SimDuration::from_secs(4);
        steady.run(end, end);
        let spans = steady.audit.spans().into_iter();
        let successor = spans.filter(|s| s.from > crash).find(|s| s.node != holder);
        let serves = successor
            .expect("a successor")
            .from
            .since(crash)
            .as_millis();
        assert!(
            serves <= within,
            "{rtt} ms: {serves} ms after the crash, was {within}"
        );
    }
}
