//! The per-layer kernel pass: host ns per operation around public
//! functions of each layer, on fixed generated inputs, workload
//! independent. Each kernel sizes its batch to at least
//! `Effort::batch_min` and reports the median of `Effort::batches`
//! batches.
//!
//! Inputs are built through public constructors only. Fresh state a
//! kernel needs per operation is part of the operation unless noted.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mdcc_common::wire::{from_bytes, to_bytes, with_scratch_encoding, Enc, Envelope, Wire};
use mdcc_common::{
    CommutativeUpdate, DcId, Key, NodeId, ProtocolConfig, Row, SimDuration, SimTime, TableId,
    TxnId, UpdateOp, Version,
};
use mdcc_core::Msg;
use mdcc_mastership::LeaseTable;
use mdcc_paxos::acceptor::{FastPropose, Phase2b};
use mdcc_paxos::demarcation::{escrow_accepts, EscrowView};
use mdcc_paxos::{
    AcceptorRecord, AttrConstraint, Ballot, CStruct, DeltaCursor, FoldOutcome, LearnOutcome,
    Learner, OptionStatus, ShadowView, TxnOption, TxnOutcome,
};
use mdcc_recovery::wal::{self, WalRecord};
use mdcc_sim::{Ctx, Disk, NetworkModel, Process, World, WorldConfig};
use mdcc_storage::{Catalog, LogStructuredBackend, MemBackend, RecordStore, Storage, TableSchema};

use crate::host::Spans;
use crate::passes::{median, Raw};

/// How hard to measure: `(minimum batch length, batches)`.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    pub batch_min: Duration,
    pub batches: usize,
}

impl Effort {
    pub const FULL: Effort = Effort {
        batch_min: Duration::from_millis(20),
        batches: 7,
    };
    /// Smoke runs only check that every kernel runs and reports.
    pub const SMOKE: Effort = Effort {
        batch_min: Duration::from_micros(200),
        batches: 1,
    };
}

/// Median seconds per call of `op` over `effort.batches` batches, each
/// doubled in length until it lasts `effort.batch_min`.
fn secs_per_call(effort: Effort, mut op: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    let mut time = |iters: u64| {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        start.elapsed()
    };
    while time(iters) < effort.batch_min {
        iters *= 2;
    }
    let mut per_call: Vec<f64> = (0..effort.batches)
        .map(|_| time(iters).as_secs_f64() / iters as f64)
        .collect();
    median(&mut per_call)
}

fn key(n: usize) -> Key {
    Key::new(TableId(1), format!("k{n:05}"))
}

fn comm_option(seq: u64, key: Key) -> TxnOption {
    TxnOption::solo(
        TxnId::new(NodeId(0), seq),
        key,
        UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
    )
}

fn cstruct_of(n: u64) -> CStruct {
    let mut c = CStruct::new();
    for i in 0..n {
        c.append(comm_option(i, key(0)), OptionStatus::Accepted);
    }
    c
}

fn vote_of(n: u64) -> Phase2b {
    Phase2b {
        ballot: Ballot::INITIAL_FAST,
        version: Version(1),
        cstruct: cstruct_of(n),
        epoch: 0,
    }
}

fn catalog() -> Arc<Catalog> {
    Arc::new(Catalog::new().with(
        TableSchema::new(TableId(1), "item").with_constraint(AttrConstraint::at_least("stock", 0)),
    ))
}

fn record(cat: &Arc<Catalog>, k: &Key, stock: i64) -> AcceptorRecord {
    let cfg = ProtocolConfig::default();
    AcceptorRecord::with_value(
        cat.constraints_for(k),
        cfg.replication,
        cfg.fast_quorum,
        cfg.max_instance_options,
        Row::new().with("stock", stock),
    )
}

/// Records per storage-engine kernel, several times `CACHE_CAP` so the
/// log-structured rows include the evictions its bounded cache forces.
const ENGINE_RECORDS: usize = 512;
const CACHE_CAP: usize = 128;

fn log_engine(cat: &Arc<Catalog>) -> LogStructuredBackend {
    let cfg = ProtocolConfig {
        log_cache_records: CACHE_CAP,
        ..ProtocolConfig::default()
    };
    LogStructuredBackend::new(&cfg, Arc::clone(cat))
}

struct Echo;

impl Process<u64> for Echo {
    fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        ctx.send(from, msg + 1);
    }
}

/// Simulated seconds of ping-pong per `pingpong` call.
const PINGPONG_SIM_SECS: u64 = 2;

/// A world of trivial echo processes: the engine's cost with no
/// protocol on top. Returns the events it handled.
fn pingpong() -> u64 {
    let protocol = ProtocolConfig::default();
    let mut world: World<u64> = World::new(
        NetworkModel::uniform(5, 10.0, 1.0),
        WorldConfig {
            seed: 7,
            service_time: SimDuration::from_micros(40),
            service_ns_per_byte: 40,
            coalesce: protocol.coalesce,
            coalesce_window: protocol.coalesce_window,
            fsync_latency: SimDuration::ZERO,
            group_commit: protocol.group_commit,
            group_commit_window: protocol.group_commit_window,
            group_commit_bytes: protocol.group_commit_bytes,
            parallel: false,
        },
    );
    let nodes: Vec<NodeId> = (0..20u8)
        .map(|i| world.spawn(DcId(i % 5), Box::new(Echo)))
        .collect();
    for (i, &from) in nodes.iter().enumerate() {
        for hop in 1..=8 {
            world.inject(from, nodes[(i + hop) % nodes.len()], 0u64);
        }
    }
    world.run_until(SimTime::from_secs(PINGPONG_SIM_SECS));
    world.stats().events_handled
}

/// Runs every kernel; keys are the per-layer metric names.
pub fn kernels_pass(effort: Effort, spans: &mut Spans) -> Raw {
    let mut raw = Raw::new();
    // `units` = operations one call of `op` performs.
    let mut kernel = |name: &str, units: f64, op: &mut dyn FnMut()| {
        let secs = spans.scope(name, |_| secs_per_call(effort, op));
        raw.insert(name.to_string(), secs * 1e9 / units);
    };

    // Wire codec.
    let msg = Msg::Vote {
        key: key(0),
        vote: vote_of(8),
    };
    let msg_bytes = to_bytes(&msg);
    kernel("common.msg_encode_ns", 1.0, &mut || {
        black_box(with_scratch_encoding(black_box(&msg), |b| b.len()));
    });
    kernel("common.msg_decode_ns", 1.0, &mut || {
        black_box(from_bytes::<Msg>(black_box(&msg_bytes)).expect("own encoding decodes"));
    });
    let envelope = Envelope {
        class: 2,
        payloads: (0..16).map(|i| vec![i as u8; 96]).collect(),
    };
    kernel("common.envelope_encode_ns", 1.0, &mut || {
        black_box(with_scratch_encoding(black_box(&envelope), |b| b.len()));
    });

    // Cstruct algebra and the delta-vote pipeline.
    let (a, b) = (cstruct_of(32), cstruct_of(32));
    kernel("paxos.cstruct_lub_ns", 1.0, &mut || {
        black_box(black_box(&a).lub(black_box(&b)));
    });
    let full = cstruct_of(64);
    kernel("paxos.cstruct_digest_ns", 1.0, &mut || {
        black_box(black_box(&full).digest());
    });
    // One record growing to 64 options: the sender ships each one-entry
    // tail, the receiver folds it and checks the digest. Per vote.
    let votes: Vec<Phase2b> = (1..=64).map(vote_of).collect();
    kernel(
        "paxos.delta_extract_fold_ns",
        votes.len() as f64,
        &mut || {
            let mut cursor = DeltaCursor::new();
            let mut shadow = ShadowView::new();
            for vote in &votes {
                match cursor.extract(black_box(vote)) {
                    None => shadow.observe_full(vote),
                    Some(delta) => match shadow.fold(&delta) {
                        FoldOutcome::Vote(_) => {}
                        other => panic!("delta fold diverged: {other:?}"),
                    },
                }
            }
            black_box(shadow);
        },
    );

    // Acceptor, learner, demarcation. Per propose+resolve cycle; the
    // fresh record every 16 cycles is part of the cost.
    let constraints: Arc<[AttrConstraint]> = Arc::from(vec![AttrConstraint::at_least("stock", 0)]);
    kernel("paxos.acceptor_propose_resolve_ns", 16.0, &mut || {
        let mut acceptor = AcceptorRecord::with_value(
            Arc::clone(&constraints),
            5,
            4,
            64,
            Row::new().with("stock", 1_000_000),
        );
        for seq in 0..16 {
            let opt = comm_option(seq, key(0));
            let txn = opt.txn;
            match acceptor.fast_propose(opt) {
                FastPropose::Vote(_) => {}
                other => panic!("fast proposal refused: {other:?}"),
            }
            acceptor.apply_visibility(txn, TxnOutcome::Committed, true);
        }
        black_box(acceptor);
    });
    let quorum_votes: Vec<Phase2b> = (0..4).map(|_| vote_of(2)).collect();
    kernel("paxos.learner_fast_quorum_ns", 1.0, &mut || {
        let mut learner = Learner::new(5, 3, 4, TxnId::new(NodeId(0), 0));
        let mut outcome = LearnOutcome::Undecided;
        for (acceptor, vote) in quorum_votes.iter().enumerate() {
            outcome = learner.on_vote(acceptor, vote.clone());
        }
        assert!(matches!(outcome, LearnOutcome::Learned(_)));
        black_box(learner);
    });
    let constraint = AttrConstraint::at_least("stock", 0);
    kernel("paxos.demarcation_check_ns", 1.0, &mut || {
        let verdict = escrow_accepts(
            black_box(&constraint),
            5,
            4,
            EscrowView {
                base: 1_000,
                committed: -120,
                pending_neg: -75,
                pending_pos: 12,
            },
            black_box(-3),
        );
        black_box(verdict.is_ok());
    });

    // Storage engines. Per record.
    let cat = catalog();
    let records: Vec<(Key, AcceptorRecord)> = (0..ENGINE_RECORDS)
        .map(|i| (key(i), record(&cat, &key(i), i as i64)))
        .collect();
    kernel("storage.mem_put_ns", ENGINE_RECORDS as f64, &mut || {
        let mut mem = MemBackend::new();
        for (k, r) in &records {
            mem.insert(k.clone(), r.clone());
        }
        black_box(mem.len());
    });
    kernel("storage.log_put_ns", ENGINE_RECORDS as f64, &mut || {
        let mut log = log_engine(&cat);
        for (k, r) in &records {
            log.insert(k.clone(), r.clone());
        }
        black_box(log.len());
    });
    let mut log = log_engine(&cat);
    for (k, r) in &records {
        log.insert(k.clone(), r.clone());
    }
    // The newest insert is cached; key 0 was evicted long ago, and reads
    // materialize transiently, so it stays cold.
    let (hot, cold) = (key(ENGINE_RECORDS - 1), key(0));
    let mut read = |name: &str, k: &Key| {
        kernel(name, 1.0, &mut || {
            let mut version = 0;
            log.read(black_box(k), &mut |r| version = r.version().0);
            black_box(version);
        });
    };
    read("storage.log_get_hot_ns", &hot);
    read("storage.log_get_cold_ns", &cold);

    // WAL, replay, checkpoint encoding.
    let wal_records: Vec<WalRecord> = (0..32u64)
        .map(|seq| WalRecord::FastPropose {
            at: SimTime::from_millis(seq),
            opt: comm_option(seq, key(seq as usize)),
        })
        .collect();
    kernel(
        "recovery.wal_append_group_ns",
        wal_records.len() as f64,
        &mut || {
            let mut disk = Disk::new();
            for r in &wal_records {
                wal::append(&mut disk, r);
            }
            disk.fsync();
            black_box(disk.wal_len());
        },
    );
    // A node's log between checkpoints: one proposal and its outcome per
    // record. Decoding the checkpoint and rebuilding the store from it is
    // part of a restart, so it is part of the operation.
    let cfg = ProtocolConfig::default();
    let mut store = RecordStore::new(cfg.clone(), Arc::clone(&cat));
    for i in 0..ENGINE_RECORDS {
        store.load(key(i), Row::new().with("stock", 1_000));
    }
    let state = store.export_state();
    let checkpoint = mdcc_recovery::to_bytes(&state);
    let log_tail: Vec<WalRecord> = (0..ENGINE_RECORDS as u64)
        .flat_map(|seq| {
            let opt = comm_option(seq, key(seq as usize));
            let visibility = WalRecord::Visibility {
                at: SimTime::from_millis(seq + 1),
                key: opt.key.clone(),
                txn: opt.txn,
                outcome: TxnOutcome::Committed,
                learned_accepted: true,
            };
            [
                WalRecord::FastPropose {
                    at: SimTime::from_millis(seq),
                    opt,
                },
                visibility,
            ]
        })
        .collect();
    kernel(
        "recovery.replay_ns_per_record",
        log_tail.len() as f64,
        &mut || {
            let state = mdcc_recovery::read_checkpoint(&checkpoint)
                .expect("own checkpoint decodes")
                .expect("checkpoint is not empty");
            let mut store = RecordStore::from_state(cfg.clone(), Arc::clone(&cat), state);
            black_box(wal::replay(&mut store, &log_tail));
        },
    );
    kernel(
        "recovery.snapshot_encode_ns_per_record",
        ENGINE_RECORDS as f64,
        &mut || {
            black_box(mdcc_recovery::to_bytes(black_box(&state)).len());
        },
    );

    // Lease table: 64 overrides, half one contiguous run, half scattered.
    let mut table = LeaseTable::new(64);
    for i in 0..32u64 {
        table.raise(1_000 + i, mdcc_mastership::Ballot::new(7, 3));
        table.raise(
            (32 + i).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            mdcc_mastership::Ballot::new(7, 3),
        );
    }
    kernel("mastership.lease_encode_ns", 1.0, &mut || {
        let runs = table.runs();
        let mut enc = Enc::new();
        enc.u32(runs.len() as u32);
        for run in &runs {
            run.encode(&mut enc);
        }
        black_box(enc.finish());
    });
    kernel("mastership.lease_lookup_ns", 1.0, &mut || {
        black_box(table.override_of(black_box(1_000)));
    });

    // The event engine alone. Reported as events per host second.
    let mut events = 0;
    kernel("sim.pingpong_events_per_s", 1.0, &mut || {
        events = pingpong()
    });
    let ns_per_call = raw["sim.pingpong_events_per_s"];
    raw.insert(
        "sim.pingpong_events_per_s".to_string(),
        events as f64 / (ns_per_call / 1e9),
    );
    raw
}
