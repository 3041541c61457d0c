//! One route rule for classic work: with dynamic mastership on, a
//! transaction manager sends every `StartRecovery` and every re-routed
//! option where it would send a proposal — the lease holder a
//! `MasterHint` named, or on a retry the replica the rotation names — and
//! a classic proposal travels only as `ProposeMastered`.
//!
//! The tests drive a real [`TransactionManager`] by hand — no simulator —
//! and inspect what it sends.

use mdcc_common::config::MastershipConfig;
use mdcc_common::error::AbortReason;
use mdcc_common::placement::MasterPolicy;
use mdcc_common::{
    DcId, Key, NodeId, PhysicalUpdate, ProtocolConfig, RecordUpdate, Row, SimTime, StaticPlacement,
    TableId, TxnId, UpdateOp, Version,
};
use mdcc_core::{MdccCtx, Msg, RecordName, Tick, TmConfig, TransactionManager, Verdicts};
use mdcc_paxos::acceptor::{Letter, VoteVerdict};
use mdcc_paxos::{Ballot, OptionStatus};
use mdcc_sim::process::Effect;
use mdcc_sim::Ctx;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const TM: NodeId = NodeId(99);
/// The shard's static master: node 1, in data center 1.
const MASTER: NodeId = NodeId(1);
/// The lease holder a `MasterHint` names.
const HOLDER: NodeId = NodeId(4);

fn key() -> Key {
    Key::new(TableId(1), "a")
}

/// Runs `f` as one TM handler at `now`; returns what it sent, none of it
/// a `ProposeToMaster`.
fn handler(now: u64, f: impl FnOnce(&mut MdccCtx<'_>)) -> Vec<(NodeId, Msg)> {
    let (mut rng, mut effects, mut next_timer) = (SmallRng::seed_from_u64(5), Vec::new(), 0);
    let mut ctx = Ctx::new(
        SimTime::from_millis(now),
        TM,
        &mut rng,
        &mut effects,
        &mut next_timer,
    );
    f(&mut ctx);
    let sent: Vec<(NodeId, Msg)> = effects
        .into_iter()
        .filter_map(|e| match e {
            Effect::Send { to, msg, .. } => Some((to, msg)),
            _ => None,
        })
        .collect();
    let to_master = sent
        .iter()
        .find(|(_, m)| matches!(m, Msg::ProposeToMaster(_)));
    assert!(to_master.is_none(), "a mastered TM sent {to_master:?}");
    sent
}

/// A mastered TM in data center 2 of five (one node each, records
/// mastered in data center 1) that committed a write of [`key`] and
/// learned from a `MasterHint` that [`HOLDER`] holds its shard.
fn hinted() -> (TransactionManager, TxnId) {
    let matrix = (0..5).map(|n| vec![NodeId(n)]).collect();
    let placement = StaticPlacement::new(matrix, MasterPolicy::FixedDc(DcId(1)));
    let protocol = ProtocolConfig {
        mastership: MastershipConfig::enabled(),
        ..ProtocolConfig::default()
    };
    let cfg = TmConfig {
        protocol,
        my_dc: DcId(2),
        assume_classic: false,
    };
    let mut tm = TransactionManager::new(cfg, placement);
    let mut txn = None;
    let proposes = handler(1, |ctx| {
        let op = PhysicalUpdate::write(Version(1), Row::new().with("n", 7));
        let (id, done) = tm.commit(vec![RecordUpdate::new(key(), UpdateOp::Physical(op))], ctx);
        assert!(done.is_none());
        txn = Some(id);
    });
    assert_eq!(proposes.len(), 5, "the record starts fast: {proposes:?}");
    let hint = Msg::MasterHint {
        shard: 0,
        node: HOLDER,
    };
    assert!(handler(2, |ctx| drop(tm.on_message(NodeId(3), hint, ctx))).is_empty());
    (tm, txn.expect("a transaction"))
}

/// Each sent message as its target and kind.
fn kinds(sent: &[(NodeId, Msg)]) -> Vec<(u32, &'static str)> {
    let kind = |msg: &Msg| match msg {
        Msg::StartRecovery { .. } => "StartRecovery",
        Msg::ProposeMastered { .. } => "ProposeMastered",
        Msg::Propose(_) => "Propose",
        _ => "other",
    };
    sent.iter().map(|(to, msg)| (to.0, kind(msg))).collect()
}

/// An acceptor's verdict on `txn`'s option, which it decided `status`.
fn verdict(txn: TxnId, status: OptionStatus) -> Msg {
    let letters = vec![Letter {
        txn,
        status,
        movable: true,
    }];
    let vote = VoteVerdict {
        ballot: Ballot::INITIAL_FAST,
        version: Version(1),
        letters,
    };
    Msg::Verdict(Verdicts {
        txn,
        records: vec![(RecordName::At(0), vote)],
    })
}

#[test]
fn a_collision_asks_the_believed_holder_to_recover() {
    let (mut tm, txn) = hinted();
    let split = [
        OptionStatus::Accepted,
        OptionStatus::Accepted,
        OptionStatus::Rejected(AbortReason::PendingOption),
        OptionStatus::Rejected(AbortReason::PendingOption),
        OptionStatus::Rejected(AbortReason::PendingOption),
    ];
    let mut sent = Vec::new();
    for (n, status) in split.into_iter().enumerate() {
        let answer = verdict(txn, status);
        sent.extend(handler(3, |ctx| {
            drop(tm.on_message(NodeId(n as u32), answer, ctx))
        }));
    }
    assert!(tm.stats().collisions > 0, "no fast quorum can form");
    assert_eq!(kinds(&sent), [(HOLDER.0, "StartRecovery")]);
}

#[test]
fn a_full_instance_routes_recovery_and_the_option_to_the_holder() {
    let (mut tm, txn) = hinted();
    let full = Msg::InstanceFull { key: key(), txn };
    let sent = handler(3, |ctx| drop(tm.on_message(NodeId(0), full, ctx)));
    let expected = [(HOLDER.0, "StartRecovery"), (HOLDER.0, "ProposeMastered")];
    assert_eq!(kinds(&sent), expected);
}

#[test]
fn a_not_fast_bounce_goes_to_the_holder_not_the_ballots_proposer() {
    let (mut tm, txn) = hinted();
    let promised = Ballot::classic(1, NodeId(2));
    assert_ne!(promised.proposer, HOLDER);
    let bounce = Msg::NotFast {
        key: key(),
        txn,
        promised,
    };
    let sent = handler(3, |ctx| drop(tm.on_message(NodeId(2), bounce, ctx)));
    assert_eq!(kinds(&sent), [(HOLDER.0, "ProposeMastered")]);
}

#[test]
fn a_learn_timeout_recovers_and_retries_at_one_node() {
    let (mut tm, txn) = hinted();
    let promised = Ballot::classic(1, NodeId(2));
    let bounce = Msg::NotFast {
        key: key(),
        txn,
        promised,
    };
    handler(3, |ctx| drop(tm.on_message(NodeId(2), bounce, ctx)));
    let sent = handler(5_000, |ctx| tm.on_timer(Tick::LearnTimeout { txn }, ctx));
    // The first retry rotates to the replica after the TM's own data
    // center (2), neither the static master nor the believed holder.
    let retry = NodeId(3);
    assert_ne!(retry, MASTER);
    assert_eq!(
        kinds(&sent),
        [(retry.0, "StartRecovery"), (retry.0, "ProposeMastered")]
    );
}
