//! Deterministic discrete-event simulation of a multi-data-center deployment.
//!
//! The paper evaluates MDCC on five Amazon EC2 regions. This crate replaces
//! that testbed with a seeded discrete-event simulator:
//!
//! * [`world::World`] owns the virtual clock, the event queue and every
//!   simulated process;
//! * [`process::Process`] is the sans-IO handler interface protocol crates
//!   implement (message in → effects out);
//! * [`net::NetworkModel`] samples message latencies from an inter-DC
//!   round-trip matrix with lognormal jitter and injects losses;
//! * [`topology::Topology`] maps nodes to data centers;
//! * [`presets`] ships the 2012-era EC2 latency matrix used by every
//!   experiment.
//!
//! Determinism: given the same seed and the same sequence of API calls, a
//! `World` produces byte-identical traces. Its one event loop pops events
//! in `(time, key)` order, where the key is intrinsic (cause time,
//! emitting node, per-node emit counter), and all randomness flows from
//! per-node [`rand::rngs::SmallRng`]s derived from the world seed.

pub mod disk;
pub mod event;
pub mod net;
pub mod presets;
pub mod process;
pub mod topology;
pub mod world;

pub use disk::{Disk, DiskStats};
pub use event::{BatchKind, Event, EventKey, EventKind, EventQueue, TimerId};
pub use net::{LinkSpec, NetworkModel, DEFAULT_INTER_DC_BANDWIDTH, DEFAULT_INTRA_DC_BANDWIDTH};
pub use process::{Ctx, NetMessage, Process, TimerPayload, TrafficClass};
pub use topology::Topology;
pub use world::{KindProfileEntry, ProfileEntry, TrafficTotals, World, WorldConfig, WorldStats};
