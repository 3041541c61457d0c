//! Criterion micro-benchmarks of the allocation-purged hot paths: the
//! delta-vote pipeline (cursor extraction on the sender, shadow fold on
//! the receiver), cstruct digesting, the two ends of one vote at growing
//! cstruct lengths (acceptor `phase2b` + digest, learner `on_vote`), and
//! envelope flush encoding. These are the per-message costs the engine
//! pays millions of times in a paper-scale run, so a stray allocation —
//! or work proportional to a record's history — dominates wall time.
//! The last group keeps the two cold cstruct cases that no `bench_all`
//! kernel times.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mdcc_common::wire::{to_bytes, with_scratch_encoding, Envelope};
use mdcc_common::{CommutativeUpdate, Key, NodeId, Row, TableId, TxnId, UpdateOp, Version};
use mdcc_paxos::acceptor::{FastPropose, Phase2b};
use mdcc_paxos::shadow::{DeltaCursor, FoldOutcome, ShadowView};
use mdcc_paxos::{
    AcceptorRecord, AttrConstraint, Ballot, CStruct, LearnOutcome, Learner, OptionStatus,
    TxnOption, TxnOutcome,
};

fn key() -> Key {
    Key::new(TableId(0), "bench")
}

fn comm_option(seq: u64) -> TxnOption {
    TxnOption::solo(
        TxnId::new(NodeId(0), seq),
        key(),
        UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
    )
}

fn vote_of(n: u64) -> Phase2b {
    let mut c = CStruct::new();
    for i in 0..n {
        c.append(comm_option(i), OptionStatus::Accepted);
    }
    Phase2b {
        ballot: Ballot::INITIAL_FAST,
        version: Version(1),
        cstruct: c,
        epoch: 0,
    }
}

/// The sender+receiver delta pipeline over one growing record: the
/// acceptor's cstruct gains one option per vote, the cursor ships the
/// one-entry tail, the shadow folds it and checks the digest. This is
/// the steady-state Phase2b path of a hot commutative record.
fn bench_delta_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("delta");
    for size in [8u64, 32, 64] {
        let votes: Vec<Phase2b> = (1..=size).map(vote_of).collect();
        group.bench_with_input(BenchmarkId::new("extract_fold", size), &size, |bench, _| {
            bench.iter(|| {
                let mut cursor = DeltaCursor::new();
                let mut shadow = ShadowView::new();
                let mut folded = 0u64;
                for vote in &votes {
                    match cursor.extract(std::hint::black_box(vote)) {
                        None => shadow.observe_full(vote),
                        Some(dv) => match shadow.fold(&dv) {
                            FoldOutcome::Vote(_) => folded += 1,
                            other => panic!("unexpected {other:?}"),
                        },
                    }
                }
                folded
            });
        });
        // The digest rides on every emitted vote and is checked on every
        // fold; it is the cstruct's append chain, read off in O(1).
        let full = vote_of(size);
        group.bench_with_input(BenchmarkId::new("digest", size), &size, |bench, _| {
            bench.iter(|| std::hint::black_box(&full.cstruct).digest());
        });
    }
    group.finish();
}

/// The two ends of one vote on a record whose cstruct already holds
/// `len` committed commutative options (they stay until the instance
/// closes, so `len` grows with run length): the acceptor emitting the
/// vote coordinators are sent — it starts at the settled watermark, so
/// its cost must not depend on `len` at all — with its digest, and a
/// learner digesting a fast quorum of whole-cstruct votes of that length
/// for the newest option (at most `len` pointer copies per vote).
fn bench_vote_ends(c: &mut Criterion) {
    let mut group = c.benchmark_group("vote");
    for len in [4u64, 16, 64] {
        let mut acceptor = AcceptorRecord::with_value(
            std::sync::Arc::from(vec![AttrConstraint::at_least("stock", 0)]),
            5,
            4,
            128,
            Row::new().with("stock", 1_000_000),
        );
        for seq in 0..len {
            let opt = comm_option(seq);
            let txn = opt.txn;
            assert!(matches!(acceptor.fast_propose(opt), FastPropose::Vote(_)));
            acceptor.apply_visibility(txn, TxnOutcome::Committed, true);
        }
        group.bench_with_input(
            BenchmarkId::new("acceptor/phase2b+digest", len),
            &len,
            |bench, _| {
                bench.iter(|| {
                    let vote = std::hint::black_box(&acceptor).vote();
                    let digest = vote.cstruct.digest();
                    (vote, digest)
                });
            },
        );
        // Four acceptors that recorded the same options; the learner
        // follows the last one appended.
        let votes: Vec<Phase2b> = (0..4).map(|_| vote_of(len)).collect();
        group.bench_with_input(
            BenchmarkId::new("learner/on_vote", len),
            &len,
            |bench, _| {
                bench.iter(|| {
                    let mut learner = Learner::new(5, 3, 4, TxnId::new(NodeId(0), len - 1));
                    let mut outcome = LearnOutcome::Undecided;
                    for (from, vote) in votes.iter().enumerate() {
                        outcome = learner.on_vote(from, std::hint::black_box(vote).clone());
                    }
                    assert!(matches!(outcome, LearnOutcome::Learned(_)));
                    learner
                });
            },
        );
    }
    group.finish();
}

/// Envelope flush encoding: the transport coalesces every payload bound
/// for one destination into a single frame. Scratch encoding reuses one
/// thread-local buffer per flush; the fresh-`to_bytes` row is the
/// allocating baseline it replaced.
fn bench_envelope_flush(c: &mut Criterion) {
    let mut group = c.benchmark_group("envelope");
    for batch in [1usize, 4, 16] {
        let envelope = Envelope {
            class: 2,
            payloads: (0..batch).map(|i| vec![i as u8; 96]).collect(),
        };
        group.bench_with_input(
            BenchmarkId::new("encode_scratch", batch),
            &batch,
            |bench, _| {
                bench.iter(|| with_scratch_encoding(std::hint::black_box(&envelope), |b| b.len()));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("encode_fresh", batch),
            &batch,
            |bench, _| {
                bench.iter(|| to_bytes(std::hint::black_box(&envelope)).len());
            },
        );
    }
    group.finish();
}

/// The cases of the retired `engine` bench that no `bench_all` kernel
/// times (the others are `paxos.cstruct_lub_ns`,
/// `paxos.acceptor_propose_resolve_ns`, `paxos.learner_fast_quorum_ns`
/// and `paxos.demarcation_check_ns`): the cstruct glb and prefix test
/// behind the learner's fallback and leader recovery.
fn bench_off_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("cstruct");
    for size in [4u64, 16, 32] {
        let (a, b) = (vote_of(size).cstruct, vote_of(size).cstruct);
        group.bench_with_input(BenchmarkId::new("glb", size), &size, |bench, _| {
            bench.iter(|| CStruct::glb_many(std::hint::black_box(&[&a, &b])));
        });
        group.bench_with_input(BenchmarkId::new("prefix", size), &size, |bench, _| {
            bench.iter(|| std::hint::black_box(&a).is_prefix_of(std::hint::black_box(&b)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_delta_pipeline,
    bench_vote_ends,
    bench_envelope_flush,
    bench_off_kernel
);
criterion_main!(benches);
