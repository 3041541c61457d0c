//! A replica that heard nothing from the mastership layer for longer than
//! a lease was cut off: grantors hear each holder's renewal every
//! heartbeat. On the first mastership message after such a silence it
//! asks, for each open instance in another node's ballot stream, that
//! ballot's leader for the instance so far (`Msg::P2aBehind`, to the
//! ballot's proposer). A silence of at most a lease asks nothing.
//!
//! The test drives one real [`StorageNodeProcess`] (node 0 of a five-node
//! shard, dynamic mastership on) by hand — no simulator — and inspects
//! what it sends.

use std::sync::Arc;

use mdcc_common::config::MastershipConfig;
use mdcc_common::placement::MasterPolicy;
use mdcc_common::{
    DcId, Key, NodeId, PhysicalUpdate, ProtocolConfig, Row, SimTime, StaticPlacement, TableId,
    TxnId, UpdateOp, Version,
};
use mdcc_core::{MdccCtx, Msg, StorageNodeProcess};
use mdcc_mastership::{Ballot as MsBallot, MsMsg};
use mdcc_paxos::acceptor::{Base, Phase2a, Phase2aRounds};
use mdcc_paxos::{Ballot, TxnOption};
use mdcc_sim::process::Effect;
use mdcc_sim::{Ctx, Process};
use mdcc_storage::{Catalog, RecordStore};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const ME: NodeId = NodeId(0);
/// The shard's lease holder, which renews.
const HOLDER: NodeId = NodeId(4);

fn key(pk: &str) -> Key {
    Key::new(TableId(1), pk)
}

/// Five data centers, one node each: every node replicates shard 0.
fn placement() -> Arc<StaticPlacement> {
    let matrix = (0..5).map(|n| vec![NodeId(n)]).collect();
    StaticPlacement::new(matrix, MasterPolicy::FixedDc(DcId(1)))
}

/// Runs `f` as one handler of node [`ME`] at `now` ms; returns what it
/// sent, with each destination.
fn at(
    node: &mut StorageNodeProcess,
    now: u64,
    f: impl FnOnce(&mut StorageNodeProcess, &mut MdccCtx<'_>),
) -> Vec<(NodeId, Msg)> {
    let (mut rng, mut effects, mut next_timer) = (SmallRng::seed_from_u64(5), Vec::new(), 0);
    let now = SimTime::from_millis(now);
    let mut ctx = Ctx::new(now, ME, &mut rng, &mut effects, &mut next_timer);
    f(node, &mut ctx);
    let sent = effects.into_iter().filter_map(|e| match e {
        Effect::Send { to, msg, .. } => Some((to, msg)),
        _ => None,
    });
    sent.collect()
}

/// An append of one write of `pk` at `ballot`, from `ballot`'s leader.
fn append(node: &mut StorageNodeProcess, now: u64, pk: &str, ballot: Ballot, seq: u64) {
    let op = PhysicalUpdate::write(Version(1), Row::new().with("n", seq as i64));
    let opt = TxnOption::solo(TxnId::new(NodeId(99), seq), key(pk), UpdateOp::Physical(op));
    let round = Phase2a {
        ballot,
        version: Version(1),
        snapshot: None,
        base: Base::Held,
        new_options: vec![opt],
        close_instance: false,
        reopen_fast: None,
    };
    let rounds = Phase2aRounds(vec![(key(pk), round)]);
    let msg = Msg::P2a { rounds };
    at(node, now, |n, ctx| n.on_message(ballot.proposer, msg, ctx));
}

/// The holder's lease renewal, delivered at `now` ms; returns the
/// `P2aBehind`s it made the node send.
fn renewal(node: &mut StorageNodeProcess, now: u64) -> Vec<(NodeId, Key, Ballot)> {
    let msg = Msg::Mastership(MsMsg::Acquire {
        shard: 0,
        ballot: MsBallot::new(2, u64::from(HOLDER.0)),
        expiry: SimTime::from_millis(now + 400),
        relinquished: None,
    });
    let sent = at(node, now, |n, ctx| n.on_message(HOLDER, msg, ctx));
    let asks = sent.into_iter().filter_map(|(to, msg)| match msg {
        Msg::P2aBehind { key, ballot } => Some((to, key, ballot)),
        _ => None,
    });
    asks.collect()
}

#[test]
fn the_first_mastership_message_after_a_silence_longer_than_a_lease_asks_each_streams_leader() {
    let protocol = ProtocolConfig {
        mastership: MastershipConfig::enabled(),
        ..ProtocolConfig::default()
    };
    let mut store = RecordStore::new(protocol.clone(), Arc::new(Catalog::new()));
    for pk in ["a", "b", "c", "d", "e"] {
        store.load(key(pk), Row::new().with("n", 0));
    }
    let mut node = StorageNodeProcess::new(protocol, store, placement(), false);
    at(&mut node, 1, |n, ctx| n.on_start(ctx));
    // "a" and "c" are in the holder's stream, "b" in an earlier leader's,
    // "d" in this node's own; "e" holds nothing.
    let (lease, earlier, own) = (
        Ballot::lease(2, HOLDER),
        Ballot::lease(1, NodeId(3)),
        Ballot::lease(3, ME),
    );
    append(&mut node, 10, "a", lease, 1);
    append(&mut node, 10, "b", earlier, 2);
    append(&mut node, 10, "c", lease, 3);
    append(&mut node, 10, "d", own, 4);

    // Silences of at most a lease, from the start and between renewals.
    assert_eq!(renewal(&mut node, 300), []);
    assert_eq!(renewal(&mut node, 700), [], "exactly a lease");
    assert_eq!(node.stats().rejoin_asks, 0);

    // Cut off for longer than a lease: one ask per record, each to the
    // leader of the ballot it accepted there.
    let asks = renewal(&mut node, 1101);
    let expected = [
        (HOLDER, key("a"), lease),
        (NodeId(3), key("b"), earlier),
        (HOLDER, key("c"), lease),
    ];
    assert_eq!(asks, expected);
    assert_eq!(node.stats().rejoin_asks, 3);

    // Heard again: nothing more to ask.
    assert_eq!(renewal(&mut node, 1200), []);
    assert_eq!(node.stats().rejoin_asks, 3);
}
