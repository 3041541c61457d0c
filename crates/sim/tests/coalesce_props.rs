//! Property tests of the destination-coalesced envelope transport.
//!
//! Three guarantees the outbox/flush layer must uphold no matter how
//! sends interleave:
//!
//! * **per-(src, dst) FIFO** — on a jitter-free network, a receiver
//!   sees every sender's messages in exactly send order, for any flush
//!   window;
//! * **payload conservation** — coalescing changes framing only: every
//!   message the send schedule emits arrives, once;
//! * **codec agreement** — the bytes the simulator bills for an
//!   envelope equal the framed size of the shared
//!   [`mdcc_common::wire::Envelope`] codec encoding, and that encoding
//!   round-trips.

use mdcc_common::wire::{
    envelope_wire_bytes, frame_payload, from_bytes, to_bytes, Envelope, FRAME_OVERHEAD,
};
use mdcc_common::{DcId, NodeId, SimDuration};
use mdcc_sim::{Ctx, NetworkModel, Process, World, WorldConfig};
use proptest::prelude::*;

/// Sends `(self_tag << 16) | seq` to the sink on a fixed schedule of
/// inter-send gaps (µs); gap 0 batches with the previous send's event.
struct ScheduledSender {
    sink: NodeId,
    tag: u32,
    gaps_us: Vec<u64>,
    next: usize,
}

impl Process<u32> for ScheduledSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        ctx.set_timer(SimDuration::ZERO, 0);
    }
    fn on_message(&mut self, _f: NodeId, _m: u32, _ctx: &mut Ctx<'_, u32>) {}
    fn on_timer(&mut self, _msg: u32, ctx: &mut Ctx<'_, u32>) {
        // Emit every zero-gap send in this event, then re-arm for the
        // next positive gap.
        loop {
            if self.next >= self.gaps_us.len() {
                return;
            }
            let gap = self.gaps_us[self.next];
            ctx.send(self.sink, (self.tag << 16) | self.next as u32);
            self.next += 1;
            if gap > 0 {
                ctx.set_timer(SimDuration::from_micros(gap), 0);
                return;
            }
        }
    }
}

struct Sink {
    got: Vec<(NodeId, u32)>,
}
impl Process<u32> for Sink {
    fn on_message(&mut self, from: NodeId, m: u32, _ctx: &mut Ctx<'_, u32>) {
        self.got.push((from, m));
    }
}

/// Runs one schedule; returns the sink's receive log.
fn run_schedule(schedules: &[Vec<u64>], window_us: u64, service_us: u64) -> Vec<(NodeId, u32)> {
    let net = NetworkModel::uniform(2, 80.0, 1.0).with_jitter(0.0);
    let mut w = World::new(
        net,
        WorldConfig {
            seed: 7,
            service_time: SimDuration::from_micros(service_us),
            service_ns_per_byte: 10,
            coalesce_window: SimDuration::from_micros(window_us),
            ..WorldConfig::default()
        },
    );
    let sink = w.spawn(DcId(1), Box::new(Sink { got: Vec::new() }));
    for (i, gaps) in schedules.iter().enumerate() {
        w.spawn(
            DcId(0),
            Box::new(ScheduledSender {
                sink,
                tag: i as u32 + 1,
                gaps_us: gaps.clone(),
                next: 0,
            }),
        );
    }
    w.run_to_quiescence_bounded(1_000_000);
    w.get::<Sink>(sink).unwrap().got.clone()
}

/// Per-sender receive subsequence, in arrival order.
fn per_sender(log: &[(NodeId, u32)], sender: NodeId) -> Vec<u32> {
    log.iter()
        .filter(|(f, _)| *f == sender)
        .map(|(_, m)| *m)
        .collect()
}

/// A payload whose traffic class the test chooses: coalescing is
/// same-class-only, so interleaved classes split into separate
/// envelopes (and may reorder relative to each other, like jittered
/// delivery — FIFO is guaranteed per (src, dst, class)).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Classed(u32, mdcc_sim::TrafficClass);
impl mdcc_sim::NetMessage for Classed {
    fn wire_bytes(&self) -> usize {
        64
    }
    fn traffic_class(&self) -> mdcc_sim::TrafficClass {
        self.1
    }
}

#[test]
fn interleaved_classes_split_envelopes_but_keep_per_class_order() {
    use mdcc_sim::TrafficClass as Tc;
    struct Blast {
        sink: NodeId,
    }
    impl Process<Classed> for Blast {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Classed>) {
            ctx.send(self.sink, Classed(0, Tc::Sync));
            ctx.send(self.sink, Classed(1, Tc::Protocol));
            ctx.send(self.sink, Classed(2, Tc::Sync));
            ctx.send(self.sink, Classed(3, Tc::Protocol));
        }
        fn on_message(&mut self, _f: NodeId, _m: Classed, _ctx: &mut Ctx<'_, Classed>) {}
    }
    struct ClassSink {
        got: Vec<Classed>,
    }
    impl Process<Classed> for ClassSink {
        fn on_message(&mut self, _f: NodeId, m: Classed, _ctx: &mut Ctx<'_, Classed>) {
            self.got.push(m);
        }
    }
    let net = NetworkModel::uniform(2, 80.0, 1.0).with_jitter(0.0);
    let mut w = World::new(
        net,
        WorldConfig {
            seed: 3,
            service_time: SimDuration::ZERO,
            service_ns_per_byte: 0,
            ..WorldConfig::default()
        },
    );
    let sink = w.spawn(DcId(1), Box::new(ClassSink { got: Vec::new() }));
    let _ = w.spawn(DcId(0), Box::new(Blast { sink }));
    w.run_to_quiescence_bounded(1_000);
    let stats = w.stats();
    assert_eq!(stats.sent, 2, "one envelope per class");
    assert_eq!(stats.class(mdcc_sim::TrafficClass::Sync).payloads, 2);
    assert_eq!(stats.class(mdcc_sim::TrafficClass::Protocol).payloads, 2);
    let got = &w.get::<ClassSink>(sink).unwrap().got;
    assert_eq!(got.len(), 4, "nothing lost across class splits");
    let seqs =
        |class: Tc| -> Vec<u32> { got.iter().filter(|m| m.1 == class).map(|m| m.0).collect() };
    assert_eq!(seqs(Tc::Sync), vec![0, 2], "Sync order preserved");
    assert_eq!(seqs(Tc::Protocol), vec![1, 3], "Protocol order preserved");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fifo_order_and_payload_conservation_hold_for_any_window(
        schedules in prop::collection::vec(
            prop::collection::vec(0u64..2_500, 1..24),
            1..4,
        ),
        window_us in 0u64..8_000,
        service_us in 0u64..200,
    ) {
        let coalesced = run_schedule(&schedules, window_us, service_us);

        let total: usize = schedules.iter().map(Vec::len).sum();
        prop_assert_eq!(coalesced.len(), total, "coalescing lost or duplicated messages");

        for (i, gaps) in schedules.iter().enumerate() {
            // Senders spawned after the sink: ids 1, 2, ...
            let sender = NodeId(i as u32 + 1);
            let tag = i as u32 + 1;
            let expected: Vec<u32> =
                (0..gaps.len() as u32).map(|s| (tag << 16) | s).collect();
            prop_assert_eq!(
                per_sender(&coalesced, sender),
                expected,
                "per-(src,dst) FIFO order broke under coalescing"
            );
        }
    }

    #[test]
    fn billed_envelope_bytes_match_the_codec(
        payload_sizes in prop::collection::vec(1usize..2_000, 2..12),
    ) {
        // Framed single-message sizes, as NetMessage::wire_bytes reports
        // them for real protocol messages.
        let framed: Vec<usize> = payload_sizes.iter().map(|p| p + FRAME_OVERHEAD).collect();
        let env = Envelope {
            class: 0,
            payloads: payload_sizes.iter().map(|&n| vec![0xA5u8; n]).collect(),
        };
        let encoded = frame_payload(&to_bytes(&env));
        prop_assert_eq!(
            envelope_wire_bytes(framed.iter().copied()),
            encoded.len(),
            "the transport's byte accounting must equal the codec's framed size"
        );
    }

    #[test]
    fn envelope_codec_round_trips(
        payloads in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 0..300),
            0..10,
        ),
        class in 0u8..4,
    ) {
        let env = Envelope { class, payloads };
        let decoded: Envelope = from_bytes(&to_bytes(&env)).expect("round trip");
        prop_assert_eq!(decoded, env);
    }
}
