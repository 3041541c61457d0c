//! The mastership layer's observable behaviour, pinned without the
//! simulator.
//!
//! Five [`Mastership`] layers replicate two shards and exchange their
//! messages through a FIFO mailbox driven by a fixed script: the first
//! election, three renewals, a `Reject` that deposes a holder with a
//! renewal pending, the re-election after it, an access-driven handoff
//! (with `Relinquished`), a restart with its quarantine and the lease
//! ballots the node granted before it, and a second handoff whose
//! `Handoff` messages (one to each replica: the relinquishing holder
//! asks them all for its successor's lease) are delivered twice. Every
//! [`Action`]
//! is fingerprinted in emission order — destination and `Wire` bytes of
//! each send, the fields of `FloorRaised` / `Relinquished` — together
//! with the tick delays returned, every node's `stats()` and the audit's
//! spans. A refactor of the layer that keeps this constant has moved no
//! send, no counter and no tenure; a change that is meant to alter the
//! protocol updates the constant and says why.

use std::collections::VecDeque;

use mdcc_common::wire::{fnv1a64, Enc, Wire};
use mdcc_common::{DcId, NodeId, SimDuration, SimTime};
use mdcc_mastership::{Action, Ballot, LeaseAudit, Mastership, MastershipStats, MsMsg};

const NODES: u32 = 5;
/// Given out of order on purpose: ticks walk shards in id order.
const SHARDS: [u32; 2] = [7, 3];

fn ms(millis: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(millis)
}

fn group() -> Vec<NodeId> {
    (0..NODES).map(NodeId).collect()
}

struct Script {
    nodes: Vec<Mastership>,
    mail: VecDeque<(NodeId, NodeId, MsMsg)>,
    audit: LeaseAudit,
    log: Enc,
    /// Enqueue every `Handoff` twice (the duplicated delivery).
    duplicate_handoffs: bool,
    relinquished: Vec<(NodeId, u32, NodeId)>,
    /// Per node, the `FloorRaised` ballots it logged: what its WAL would
    /// give back on a restart.
    floors: Vec<Vec<(u32, Ballot)>>,
}

impl Script {
    fn new() -> Self {
        let audit = LeaseAudit::new();
        let nodes = (0..NODES)
            .map(|i| Self::boot(i, None, &[], &audit))
            .collect::<Vec<_>>();
        Self {
            nodes,
            mail: VecDeque::new(),
            audit,
            log: Enc::new(),
            duplicate_handoffs: false,
            relinquished: Vec::new(),
            floors: vec![Vec::new(); NODES as usize],
        }
    }

    fn boot(
        i: u32,
        recovered_at: Option<SimTime>,
        granted: &[(u32, Ballot)],
        audit: &LeaseAudit,
    ) -> Mastership {
        let shards = SHARDS.iter().map(|s| (*s, group())).collect();
        let mut node = Mastership::new(NodeId(i), DcId(i as u8), shards, recovered_at, granted);
        node.set_audit(audit.clone());
        node
    }

    /// Logs `actions` of `node` in emission order and queues its sends.
    fn absorb(&mut self, node: NodeId, actions: Vec<Action>) {
        for action in actions {
            node.encode(&mut self.log);
            match action {
                Action::Send { to, msg } => {
                    self.log.u8(0);
                    to.encode(&mut self.log);
                    msg.encode(&mut self.log);
                    let copies = match msg {
                        MsMsg::Handoff { .. } if self.duplicate_handoffs => 2,
                        _ => 1,
                    };
                    for _ in 0..copies {
                        self.mail.push_back((node, to, msg.clone()));
                    }
                }
                Action::FloorRaised { shard, ballot } => {
                    self.floors[node.0 as usize].push((shard, ballot));
                    self.log.u8(1);
                    self.log.u32(shard);
                    ballot.encode(&mut self.log);
                }
                Action::Relinquished { shard, to } => {
                    self.log.u8(2);
                    self.log.u32(shard);
                    to.encode(&mut self.log);
                    self.relinquished.push((node, shard, to));
                }
            }
        }
    }

    fn tick(&mut self, i: u32, now: SimTime) {
        let mut out = Vec::new();
        let delay = self.nodes[i as usize].on_tick(now, &mut out);
        self.log.u8(9);
        delay.encode(&mut self.log);
        self.absorb(NodeId(i), out);
    }

    fn on_msg(&mut self, from: NodeId, to: NodeId, msg: MsMsg, now: SimTime) {
        let mut out = Vec::new();
        self.nodes[to.0 as usize].on_msg(from, msg, now, &mut out);
        self.absorb(to, out);
    }

    /// Delivers the mailbox in FIFO order until nothing is in flight.
    fn deliver(&mut self, now: SimTime) {
        while let Some((from, to, msg)) = self.mail.pop_front() {
            self.on_msg(from, to, msg, now);
        }
    }

    /// One heartbeat interval: every node ticks at `t` ms, everything
    /// sent (and every reply to it) arrives 10 ms later.
    fn step(&mut self, t: u64) {
        for i in 0..NODES {
            self.tick(i, ms(t));
        }
        self.deliver(ms(t + 10));
    }

    fn serving(&self, shard: u32, now: SimTime) -> Vec<u32> {
        (0..NODES)
            .filter(|i| self.nodes[*i as usize].is_serving(shard, now))
            .collect()
    }

    fn stats(&self, i: u32) -> MastershipStats {
        self.nodes[i as usize].stats()
    }

    /// Sixty mastered requests from `origin` served by `holder` before
    /// every step from `from` on, until `holder` hands `shard` on;
    /// returns the time of the step that did.
    fn migrate(&mut self, holder: u32, shard: u32, origin: u8, from: u64) -> u64 {
        let before = self.relinquished.len();
        for t in (from..from + 2_000).step_by(100) {
            for _ in 0..60 {
                self.nodes[holder as usize].note_served(shard, DcId(origin));
            }
            self.step(t);
            if self.relinquished.len() > before {
                return t;
            }
        }
        panic!("node {holder} never handed shard {shard} to data center {origin}");
    }

    fn fingerprint(mut self) -> u64 {
        for i in 0..NODES {
            let s = self.stats(i);
            for counter in [
                s.elections,
                s.leases_acquired,
                s.renewals,
                s.handoffs,
                s.served,
                s.forwarded,
                s.phase1_skipped,
                s.phase1_covered,
                s.cold_first_commit_rtts,
            ] {
                self.log.u64(counter);
            }
        }
        for span in self.audit.spans() {
            self.log.u32(span.shard);
            span.node.encode(&mut self.log);
            span.ballot.encode(&mut self.log);
            span.from.encode(&mut self.log);
            span.until.encode(&mut self.log);
        }
        fnv1a64(self.log.as_slice())
    }
}

#[test]
fn scripted_five_node_scenario_is_pinned() {
    let mut s = Script::new();

    // First election: round 1 proves everyone connected, round 2 lets the
    // top pid campaign; it wins both shards.
    s.step(100);
    s.step(200);
    for shard in SHARDS {
        assert_eq!(s.serving(shard, ms(211)), [4]);
        assert_eq!(s.nodes[4].serving_ballot(shard, ms(211)), Some(1));
        assert_eq!(s.nodes[0].holder(shard, ms(211)), Some(NodeId(4)));
    }
    assert_eq!(s.stats(4).elections, 2);

    // Three renewals.
    for t in [300, 400, 500] {
        s.step(t);
    }
    assert_eq!(s.stats(4).renewals, 6);

    // A Reject deposes the holder of shard 7 while its renewal is
    // pending; shard 3's lease is untouched.
    s.tick(4, ms(600));
    let reject = MsMsg::Reject {
        shard: 7,
        max: Ballot::new(5, 3),
    };
    s.on_msg(NodeId(3), NodeId(4), reject, ms(605));
    assert_eq!(s.serving(7, ms(606)), [] as [u32; 0]);
    assert_eq!(s.serving(3, ms(606)), [4]);
    for i in 0..4 {
        s.tick(i, ms(600));
    }
    s.deliver(ms(610));
    // The grantors' hints lapse with the last acked expiry; then the top
    // pid campaigns again, above the ballot that deposed it.
    for t in [700, 800, 900, 1_000] {
        assert_eq!(s.serving(7, ms(t)), [] as [u32; 0]);
        s.step(t);
    }
    assert_eq!(s.serving(7, ms(1_011)), [4]);
    assert_eq!(s.nodes[4].serving_ballot(7, ms(1_011)), Some(6));

    // Access-driven handoff: data center 1 dominates shard 3's traffic.
    let t = s.migrate(4, 3, 1, 1_100);
    assert_eq!(s.relinquished, [(NodeId(4), 3, NodeId(1))]);
    assert_eq!(s.serving(3, ms(t + 11)), [1], "the target serves at once");
    assert_eq!(s.serving(7, ms(t + 11)), [4]);
    assert_eq!(s.stats(4).handoffs, 1);

    // Node 2 crashes and restarts: silent for one lease duration, then a
    // grantor again.
    let restart = t + 50;
    s.nodes[2] = Script::boot(2, Some(ms(restart)), &s.floors[2], &s.audit);
    for step in 1..=6 {
        s.step(t + 100 * step);
    }
    assert_eq!(s.stats(2), MastershipStats::default(), "it only grants");
    assert_eq!(s.serving(3, ms(t + 611)), [1]);
    assert_eq!(s.serving(7, ms(t + 611)), [4]);

    // A second handoff, its Handoff message delivered twice.
    s.duplicate_handoffs = true;
    let t = s.migrate(1, 3, 0, t + 700);
    assert_eq!(s.relinquished.last(), Some(&(NodeId(1), 3, NodeId(0))));
    assert_eq!(s.serving(3, ms(t + 11)), [0]);
    assert_eq!(
        s.stats(0).elections,
        2,
        "each delivery restarts the acquire"
    );
    for step in 1..=3 {
        s.step(t + 100 * step);
    }
    assert_eq!(s.serving(3, ms(t + 311)), [0]);
    assert_eq!(s.serving(7, ms(t + 311)), [4]);

    // Different nodes' tenures of one shard never overlap.
    let spans = s.audit.spans();
    for (i, a) in spans.iter().enumerate() {
        for b in &spans[i + 1..] {
            let disjoint = a.until <= b.from || b.until <= a.from;
            assert!(
                a.shard != b.shard || a.node == b.node || disjoint,
                "{a:?} / {b:?}"
            );
        }
    }
    assert_eq!(s.fingerprint(), PINNED_FINGERPRINT);
}

// Produced by this very test at commit f12196b, when the layer was one
// `lib.rs`, and moved once since: node 2 restarts with the lease ballots
// it granted before (its `LeaseFloor` records). Its heartbeat replies after
// the restart name them, (2, 1) for shard 3 and (6, 4) for shard 7,
// instead of (0, 2); and its first grants after the quarantine renew
// ballots it already granted, so they raise no floor (two `FloorRaised`
// fewer). Nothing else in the log changed. Re-pinned again when the
// codec's integers became varints (8 183 363 735 130 456 600 before):
// the log is `Wire` bytes and `Enc` integers, so its every send and
// counter is written in fewer bytes. Every assertion above, on who
// serves what when, held unchanged. Re-pinned when a replica stopped
// probing while it knew of a lease outliving its next two ticks
// (13 290 420 141 509 925 431 before): the script's 1 080 `HbReq`s, and
// as many `HbReply`s, fell to 152 each; every other send, every counter
// and every audit span is as it was. Re-pinned when a relinquishing holder
// began running its successor's acquisition (13 085 791 064 198 278 280
// before): it grants the target's ballot itself and sends a `Handoff`
// carrying the target's lease end to every replica, each of which answers
// the target. `Handoff`s 2 → 8 and `Grant`s 192 → 203 (the two holders'
// own, three per delivered `Handoff` copy at the other replicas); every
// counter and every audit span is as it was.
const PINNED_FINGERPRINT: u64 = 13_779_944_973_799_700_628;
