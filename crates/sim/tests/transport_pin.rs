//! Pins of the simulator's transport and WAL batching, under every
//! combination of the two knobs that shape them: `coalesce_window` ∈
//! {0, 500 µs} × `fsync_latency` ∈ {0, 1 ms}.
//!
//! One scripted three-DC world runs under each of the four. A hot
//! writer appends to its WAL on every tick and fans proposals out to two
//! followers in other data centers; the followers append and acknowledge;
//! two readers ask the writer for reads, which it answers — sometimes in
//! an event that also appended, so the reply is sent while a
//! group-commit batch is open. A follower is restarted, a reader is
//! crashed and revived, and the writer is crashed mid-batch and
//! restarted as a fresh process.
//!
//! Each combination pins the world's counters, every node's WAL length
//! and an FNV-1a hash of every node's delivery log (time, sender,
//! payload). Any change to a simulated byte, frame, timestamp or event
//! order under any combination moves a pin.

use mdcc_common::{DcId, NodeId, SimDuration, SimTime};
use mdcc_sim::{Ctx, NetMessage, NetworkModel, Process, TrafficClass, World, WorldConfig};

const PROPOSE: u32 = 1;
const ACK: u32 = 2;
const VISIBLE: u32 = 3;
const SYNC: u32 = 4;
const REPAIR: u32 = 5;
const READ_REQ: u32 = 6;
const READ_RESP: u32 = 7;

/// A scripted message: its kind, a sequence number, and the wire size
/// and traffic class the transport accounts it under.
#[derive(Debug, Clone, Copy)]
struct Msg {
    kind: u32,
    seq: u32,
    bytes: usize,
}

impl NetMessage for Msg {
    fn wire_bytes(&self) -> usize {
        self.bytes
    }
    fn traffic_class(&self) -> TrafficClass {
        match self.kind {
            SYNC => TrafficClass::Sync,
            REPAIR => TrafficClass::Repair,
            READ_REQ | READ_RESP => TrafficClass::Read,
            _ => TrafficClass::Protocol,
        }
    }
}

fn msg(kind: u32, seq: u32, bytes: usize) -> Msg {
    Msg { kind, seq, bytes }
}

enum Role {
    /// Ticks `ticks_left` more times; each tick appends and fans out.
    Writer {
        followers: [NodeId; 2],
        ticks_left: u32,
    },
    Follower,
    /// Sends `reads_left` more read requests, one per `period`.
    Reader {
        writer: NodeId,
        period: SimDuration,
        reads_left: u32,
    },
}

struct Node {
    role: Role,
    /// Distinguishes a restarted incarnation's messages.
    epoch: u32,
    seq: u32,
    /// FNV-1a over every delivery: (time µs, sender, kind, seq).
    log: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl Node {
    fn new(role: Role, epoch: u32) -> Self {
        Self {
            role,
            epoch,
            seq: 0,
            log: FNV_OFFSET,
        }
    }

    fn next_seq(&mut self) -> u32 {
        self.seq += 1;
        (self.epoch << 24) | self.seq
    }

    fn append(ctx: &mut Ctx<'_, Msg>, len: usize) {
        if let Some(disk) = ctx.disk() {
            disk.append_wal(&vec![0xA5; len]);
        }
    }
}

impl Process<Msg> for Node {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        match &self.role {
            Role::Writer { .. } => {
                ctx.set_timer(SimDuration::from_millis(2), msg(0, 0, 1));
            }
            Role::Reader { period, .. } => {
                ctx.set_timer(*period, msg(0, 0, 1));
            }
            Role::Follower => {}
        }
    }

    fn on_message(&mut self, from: NodeId, m: Msg, ctx: &mut Ctx<'_, Msg>) {
        for word in [
            ctx.now.0,
            u64::from(from.0),
            u64::from(m.kind),
            u64::from(m.seq),
        ] {
            self.log = fnv(self.log, word);
        }
        let seq = self.next_seq();
        match (&self.role, m.kind) {
            (Role::Writer { followers, .. }, ACK) => {
                let followers = *followers;
                if m.seq.is_multiple_of(2) {
                    Self::append(ctx, 40);
                }
                for f in followers {
                    ctx.send(f, msg(VISIBLE, seq, 46));
                }
            }
            (Role::Writer { followers, .. }, READ_REQ) => {
                let notice = followers[1];
                // Every fifth read is answered by an event that also
                // appended: its reply is sent under an open batch.
                if m.seq.is_multiple_of(5) {
                    Self::append(ctx, 24);
                }
                ctx.send(from, msg(READ_RESP, seq, 120));
                if m.seq.is_multiple_of(4) {
                    ctx.send(notice, msg(VISIBLE, seq, 46));
                }
            }
            (Role::Follower, PROPOSE) => {
                Self::append(ctx, 100);
                ctx.send(from, msg(ACK, m.seq, 60));
            }
            (Role::Follower, VISIBLE) if m.seq.is_multiple_of(7) => Self::append(ctx, 30),
            (Role::Follower, SYNC) => ctx.send(from, msg(REPAIR, seq, 80)),
            _ => {}
        }
    }

    fn on_timer(&mut self, _m: Msg, ctx: &mut Ctx<'_, Msg>) {
        let seq = self.next_seq();
        match &mut self.role {
            Role::Writer {
                followers,
                ticks_left,
            } => {
                let followers = *followers;
                *ticks_left -= 1;
                let rearm = *ticks_left > 0;
                // Sizes vary so some ticks cross the size trigger.
                Self::append(ctx, 64 + (seq as usize * 397) % 3_000);
                for f in followers {
                    ctx.send(f, msg(PROPOSE, seq, 180 + seq as usize % 50));
                }
                if seq.is_multiple_of(3) {
                    ctx.send(followers[0], msg(SYNC, seq, 1_500));
                }
                if rearm {
                    ctx.set_timer(SimDuration::from_millis(2), msg(0, 0, 1));
                }
            }
            Role::Reader {
                writer,
                period,
                reads_left,
            } => {
                ctx.send(*writer, msg(READ_REQ, seq, 50));
                *reads_left -= 1;
                if *reads_left > 0 {
                    ctx.set_timer(*period, msg(0, 0, 1));
                }
            }
            Role::Follower => {}
        }
    }
}

fn writer(epoch: u32) -> Box<Node> {
    let role = Role::Writer {
        followers: [NodeId(2), NodeId(4)],
        ticks_left: 40,
    };
    Box::new(Node::new(role, epoch))
}

fn reader(period_us: u64) -> Box<Node> {
    let role = Role::Reader {
        writer: NodeId(0),
        period: SimDuration::from_micros(period_us),
        reads_left: 80,
    };
    Box::new(Node::new(role, 0))
}

/// Runs the script under one combination and renders its pin.
fn pin(window_us: u64, fsync_us: u64) -> String {
    let net = NetworkModel::uniform(3, 20.0, 1.0)
        .with_drop_prob(0.01)
        .with_inter_dc_bandwidth(2_000_000.0);
    let mut w: World<Msg> = World::new(
        net,
        WorldConfig {
            seed: 26,
            service_time: SimDuration::from_micros(40),
            service_ns_per_byte: 40,
            coalesce_window: SimDuration::from_micros(window_us),
            fsync_latency: SimDuration::from_micros(fsync_us),
            group_commit_window: SimDuration::from_millis(2),
            group_commit_bytes: 2_048,
            ..WorldConfig::default()
        },
    );
    assert_eq!(w.spawn(DcId(0), writer(0)), NodeId(0));
    assert_eq!(w.spawn(DcId(0), reader(700)), NodeId(1));
    w.spawn(DcId(1), Box::new(Node::new(Role::Follower, 0)));
    w.spawn(DcId(1), reader(1_100));
    w.spawn(DcId(2), Box::new(Node::new(Role::Follower, 0)));

    let mut logs = Vec::new();
    w.run_until(SimTime::from_millis(16));
    logs.push(w.get::<Node>(NodeId(2)).unwrap().log);
    w.crash_node(NodeId(2));
    w.run_until(SimTime::from_millis(22));
    w.restart_node(NodeId(2), Box::new(Node::new(Role::Follower, 1)));
    w.run_until(SimTime::from_millis(25));
    w.crash_node(NodeId(1));
    w.run_until(SimTime::from_millis(26));
    w.revive_node(NodeId(1));
    // Mid-batch: the writer appended on its tick at 30 ms and the
    // covering fsync is not yet due.
    w.run_until(SimTime(30_150));
    logs.push(w.get::<Node>(NodeId(0)).unwrap().log);
    w.crash_node(NodeId(0));
    w.run_until(SimTime::from_millis(38));
    w.restart_node(NodeId(0), writer(1));
    w.run_to_quiescence_bounded(1_000_000);
    for n in 0..5 {
        logs.push(w.get::<Node>(NodeId(n)).unwrap().log);
    }

    let s = w.stats();
    let classes: Vec<String> = s
        .by_class
        .iter()
        .map(|c| format!("{}/{}/{}", c.msgs, c.bytes, c.payloads))
        .collect();
    let wal: Vec<String> = (0..5)
        .map(|n| w.disk(NodeId(n)).wal_len().to_string())
        .collect();
    let logs: Vec<String> = logs.iter().map(|h| format!("{h:016x}")).collect();
    format!(
        "sent={} delivered={} dropped={} timers={} bytes={} payloads={} events={} fsyncs={} \
         classes={} wal={} end={} logs={}",
        s.sent,
        s.delivered,
        s.dropped,
        s.timers_fired,
        s.bytes_sent,
        s.payload_msgs,
        s.events_handled,
        s.fsyncs,
        classes.join(","),
        wal.join(","),
        w.now().0,
        logs.join(","),
    )
}

/// `(coalesce_window µs, fsync_latency µs)` and the pin of its run.
///
/// Moved once since they were taken: an envelope's message count and
/// payload length prefixes became varints, so an envelope of this
/// script's messages is three bytes smaller, plus two or three per
/// message it carries (the messages' own sizes are synthetic and did
/// not change). The three rows that ship envelopes moved (their frames
/// leave sooner, and the schedule shifts with them); the one whose
/// slots never hold two messages did not.
#[rustfmt::skip]
const PINS: [(u64, u64, &str); 4] = [
    (0, 0, "sent=682 delivered=652 dropped=30 timers=170 bytes=83670 payloads=682 events=829 fsyncs=0 classes=429/38540/429,220/18350/220,17/25500/17,16/1280/16 wal=95448,0,5480,0,6010 end=149910 logs=3e1df64a8de9fb96,fd9f34bbf40e1c90,c64ff1f6f750f7dc,b022c572d6838e20,f809f8241151b608,03d67dfcf3ab4a2e,657b75129de420c8"),
    (0, 1000, "sent=452 delivered=429 dropped=23 timers=170 bytes=79370 payloads=679 events=824 fsyncs=123 classes=203/37400/430,220/18350/220,15/22500/15,14/1120/14 wal=91717,0,5180,0,6070 end=153596 logs=10928731441b5b75,5151edd979d24864,be4dc0914f8999d5,e30b276ddcbdc820,80e36d1306066258,9443a5ecd3dafbf6,fa00e425911090c1"),
    (500, 0, "sent=556 delivered=527 dropped=29 timers=170 bytes=82535 payloads=678 events=821 fsyncs=0 classes=317/37507/425,205/18168/219,17/25500/17,17/1360/17 wal=85645,0,5380,0,6000 end=152769 logs=c0e0782f40ab3f78,732c02b856f27c96,77d4596b086ad036,de40e72a595daaf7,3a896c87495498ae,b8d9a248f84f4f3d,75260596b069d017"),
    (500, 1000, "sent=444 delivered=418 dropped=26 timers=170 bytes=79114 payloads=683 events=827 fsyncs=132 classes=200/37213/434,214/18201/219,15/22500/15,15/1200/15 wal=81900,0,5500,0,5660 end=154516 logs=4f98e80fb224da8a,67994f25b690757b,3143c85da2c11119,04807be6bd9492f3,68e5aeb3b00fffa7,5580962c6eea4d4b,bf72b402bc518fca"),
];

#[test]
fn every_batching_configuration_is_pinned() {
    let mut mismatches = Vec::new();
    for (window_us, fsync_us, expected) in PINS {
        let got = pin(window_us, fsync_us);
        if got != expected {
            mismatches.push(format!("    ({window_us}, {fsync_us}, \"{got}\"),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "pins moved:\n{}",
        mismatches.join("\n")
    );
}
