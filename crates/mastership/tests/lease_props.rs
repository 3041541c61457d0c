//! Lease safety under any delivery order, without the simulator.
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

use mdcc_common::{DcId, NodeId, SimDuration, SimTime};
use mdcc_mastership::{Action, Ballot, LeaseAudit, Mastership, MsMsg};
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
