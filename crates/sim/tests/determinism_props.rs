//! Property tests of the simulator's reproducibility guarantee: same
//! seed, same configuration ⇒ byte-identical executions, across random
//! topologies, jitter levels and loss rates — and however the run is
//! split into `run_until` calls.

use mdcc_common::{DcId, NodeId, SimDuration, SimTime};
use mdcc_sim::{Ctx, NetworkModel, Process, World, WorldConfig};
use proptest::prelude::*;

/// A gossiping process: periodically messages a random peer and records
/// everything it receives.
struct Gossip {
    peers: Vec<NodeId>,
    rounds: u32,
    log: Vec<(SimTime, NodeId, u32)>,
}

impl Process<u32> for Gossip {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        ctx.set_timer(SimDuration::from_millis(10), 0);
    }
    fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Ctx<'_, u32>) {
        self.log.push((ctx.now, from, msg));
    }
    fn on_timer(&mut self, msg: u32, ctx: &mut Ctx<'_, u32>) {
        use rand::Rng;
        if msg >= self.rounds {
            return;
        }
        let peer = self.peers[ctx.rng.gen_range(0..self.peers.len())];
        ctx.send(peer, msg);
        ctx.set_timer(SimDuration::from_millis(10), msg + 1);
    }
}

/// Per-node receive logs plus world counters — the full observable
/// trace of one run.
type Trace = (Vec<Vec<(SimTime, NodeId, u32)>>, mdcc_sim::WorldStats);

/// Simulated length of every run.
const RUN: SimDuration = SimDuration::from_secs(2);

/// Runs one gossip world to `RUN`, stopping first at each of `splits`
/// (µs, in the order given).
#[allow(clippy::too_many_arguments)]
fn run(
    seed: u64,
    dcs: usize,
    nodes_per_dc: usize,
    rtt: f64,
    jitter: f64,
    drop: f64,
    service_us: u64,
    coalesce_window_us: u64,
    splits: &[u64],
) -> Trace {
    let net = NetworkModel::uniform(dcs, rtt, 1.0)
        .with_jitter(jitter)
        .with_drop_prob(drop);
    let mut world = World::new(
        net,
        WorldConfig {
            seed,
            service_time: SimDuration::from_micros(service_us),
            coalesce_window: SimDuration::from_micros(coalesce_window_us),
            ..WorldConfig::default()
        },
    );
    let total = dcs * nodes_per_dc;
    let peers: Vec<NodeId> = (0..total as u32).map(NodeId).collect();
    for i in 0..total {
        let g = Gossip {
            peers: peers.clone(),
            rounds: 20,
            log: Vec::new(),
        };
        world.spawn(DcId((i % dcs) as u8), Box::new(g));
    }
    for &at in splits {
        world.run_until(SimTime(at));
    }
    world.run_until(SimTime::ZERO + RUN);
    let logs = peers
        .iter()
        .map(|&p| world.get::<Gossip>(p).unwrap().log.clone())
        .collect();
    (logs, world.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn same_seed_same_execution(
        seed in any::<u64>(),
        dcs in 2usize..5,
        nodes_per_dc in 1usize..3,
        rtt in 10.0f64..300.0,
        jitter in 0.0f64..0.3,
        drop in 0.0f64..0.2,
        service_us in 0u64..500,
        coalesce_window_us in 0u64..5_000,
        splits in proptest::collection::vec(0u64..2_000_000, 0..5),
    ) {
        // One run to the end against one stopped at the split points:
        // a clock that moved differently across a `run_until` boundary
        // would show here.
        let mut splits = splits;
        splits.sort_unstable();
        let a = run(seed, dcs, nodes_per_dc, rtt, jitter, drop, service_us, coalesce_window_us, &[]);
        let b = run(seed, dcs, nodes_per_dc, rtt, jitter, drop, service_us, coalesce_window_us, &splits);
        prop_assert_eq!(a.1, b.1, "world stats diverged");
        prop_assert_eq!(a.0, b.0, "message logs diverged");
    }

    #[test]
    fn different_seeds_diverge_under_jitter(
        seed in any::<u64>(),
        rtt in 50.0f64..200.0,
    ) {
        // With jitter on, two different seeds should essentially never
        // produce identical delivery timestamps.
        let a = run(seed, 3, 2, rtt, 0.2, 0.0, 50, 0, &[]);
        let b = run(seed.wrapping_add(1), 3, 2, rtt, 0.2, 0.0, 50, 0, &[]);
        prop_assert_ne!(a.0, b.0);
    }
}
