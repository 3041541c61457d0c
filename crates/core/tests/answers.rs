//! A storage node answers once per (transaction, node): its verdicts on
//! one transaction's records travel to the coordinator as one `Verdict`
//! that names each record by its position in the write-set, and a
//! transaction manager's read asks each node once and pairs the rows of
//! a reply with the keys of the request it answers.
//!
//! The outcome travels the same way back: a Visibility names a node's
//! records by write-set position when the coordinator holds an accepted
//! letter of the transaction from that node, and by key otherwise.
//!
//! The tests drive real [`StorageNodeProcess`]es and a real
//! [`TransactionManager`] by hand — no simulator — and inspect what each
//! sends; the last ones hand-build malformed replies.

use std::sync::Arc;

use mdcc_common::placement::MasterPolicy;
use mdcc_common::{
    DcId, Key, NodeId, PhysicalUpdate, ProtocolConfig, RecordUpdate, Row, SimTime, StaticPlacement,
    TableId, TxnId, UpdateOp, Version,
};
use mdcc_core::placement::Placement;
use mdcc_core::{
    MdccCtx, Msg, ReadConsistency, RecordName, StorageNodeProcess, Tick, TmConfig, TmEvent,
    TransactionManager, Verdicts,
};
use mdcc_paxos::acceptor::VoteVerdict;
use mdcc_paxos::{Ballot, TxnOutcome};
use mdcc_recovery::{recover_store, write_checkpoint};
use mdcc_sim::process::Effect;
use mdcc_sim::{Ctx, Disk, Process};
use mdcc_storage::{Catalog, RecordStore};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const TABLE: TableId = TableId(1);
const TM: NodeId = NodeId(99);

fn key(pk: &str) -> Key {
    Key::new(TABLE, pk)
}

/// Five data centers, `shards` storage nodes each: node `dc * shards +
/// shard` serves `shard` in `dc`.
fn placement(shards: u32) -> Arc<StaticPlacement> {
    let matrix = (0..5)
        .map(|dc| (0..shards).map(|s| NodeId(dc * shards + s)).collect())
        .collect();
    StaticPlacement::new(matrix, MasterPolicy::HashedPerRecord)
}

/// Runs `f` as one handler of process `me` at `now`; returns what it sent.
fn handler(me: NodeId, now: u64, f: impl FnOnce(&mut MdccCtx<'_>)) -> Vec<(NodeId, Msg)> {
    handler_on(me, now, None, f)
}

/// [`handler`] with `disk` attached, if any: a durable node logs to it.
fn handler_on(
    me: NodeId,
    now: u64,
    disk: Option<&mut Disk>,
    f: impl FnOnce(&mut MdccCtx<'_>),
) -> Vec<(NodeId, Msg)> {
    let (mut rng, mut effects, mut next_timer) = (SmallRng::seed_from_u64(5), Vec::new(), 0);
    let now = SimTime::from_millis(now);
    let mut ctx = match disk {
        Some(disk) => Ctx::with_disk(now, me, &mut rng, &mut effects, &mut next_timer, disk),
        None => Ctx::new(now, me, &mut rng, &mut effects, &mut next_timer),
    };
    f(&mut ctx);
    effects
        .into_iter()
        .filter_map(|e| match e {
            Effect::Send { to, msg, .. } => Some((to, msg)),
            _ => None,
        })
        .collect()
}

fn tm(placement: Arc<StaticPlacement>) -> TransactionManager {
    let cfg = TmConfig {
        protocol: ProtocolConfig::default(),
        my_dc: DcId(0),
        assume_classic: false,
    };
    TransactionManager::new(cfg, placement)
}

/// A storage node whose store holds `keys` at version 1.
fn node(placement: Arc<StaticPlacement>, keys: &[Key]) -> StorageNodeProcess {
    let mut store = RecordStore::new(ProtocolConfig::default(), Arc::new(Catalog::new()));
    for (i, key) in keys.iter().enumerate() {
        store.load(key.clone(), Row::new().with("n", i as i64));
    }
    StorageNodeProcess::new(ProtocolConfig::default(), store, placement, true)
}

fn write(key: &Key) -> RecordUpdate {
    let op = PhysicalUpdate::write(Version(1), Row::new().with("n", 7));
    RecordUpdate::new(key.clone(), UpdateOp::Physical(op))
}

fn three_keys() -> Vec<Key> {
    ["a", "b", "c"].map(key).to_vec()
}

/// Commits a write of `keys` at a fresh TM over one shard; returns the
/// TM, the transaction and the `Propose` each node was sent.
fn committed(keys: &[Key]) -> (TransactionManager, TxnId, Vec<(NodeId, Msg)>) {
    let mut tm = tm(placement(1));
    let mut txn = None;
    let sent = handler(TM, 1, |ctx| {
        let (id, done) = tm.commit(keys.iter().map(write).collect(), ctx);
        assert!(done.is_none());
        txn = Some(id);
    });
    (tm, txn.expect("a transaction"), sent)
}

#[test]
fn a_node_answers_a_three_record_proposal_with_one_verdict() {
    let keys = three_keys();
    let (mut tm, txn, proposes) = committed(&keys);
    assert_eq!(proposes.len(), 5, "one Propose per storage node");
    let mut outcome = None;
    for (to, propose) in proposes {
        let mut node = node(placement(1), &keys);
        let answers = handler(to, 2, |ctx| node.on_message(TM, propose, ctx));
        assert_eq!(answers.len(), 1, "node {to:?} answered {answers:?}");
        let (dest, verdict) = answers.into_iter().next().expect("one answer");
        assert_eq!(dest, TM);
        let Msg::Verdict(Verdicts {
            txn: named,
            records,
        }) = &verdict
        else {
            panic!("not a verdict: {verdict:?}");
        };
        assert_eq!(*named, txn);
        // Each record by its position in the write-set, each with the
        // transaction's own accepted letter.
        let names: Vec<&RecordName> = records.iter().map(|(name, _)| name).collect();
        assert_eq!(
            names,
            [0, 1, 2].map(RecordName::At).iter().collect::<Vec<_>>()
        );
        for (_, verdict) in records {
            let (status, _) = verdict.letter(txn).expect("the option is held");
            assert!(status.is_accepted());
        }
        // The TM maps each position back to its record and learns.
        for event in handler(TM, 3, |ctx| outcome = tm.on_message(to, verdict, ctx).pop()) {
            assert!(matches!(event.1, Msg::Visibility { .. }), "{event:?}");
        }
        if outcome.is_some() {
            break;
        }
    }
    let Some(TmEvent::Completed(done)) = outcome else {
        panic!("the commit was not learned: {outcome:?}");
    };
    assert_eq!(done.outcome, TxnOutcome::Committed);
    assert!(done.fast_path);
    assert_eq!(tm.stats().malformed_replies, 0);
}

#[test]
fn a_read_of_three_keys_on_one_node_is_one_request_answered_in_order() {
    let placement = placement(1);
    let keys = three_keys();
    let mut tm = tm(Arc::clone(&placement));
    let mut token = None;
    let sent = handler(TM, 1, |ctx| {
        token = Some(tm.read(keys.clone(), ReadConsistency::Local, ctx));
    });
    let [(to, request)] = sent.as_slice() else {
        panic!("one request expected: {sent:?}");
    };
    assert_eq!(*to, placement.replica_in(&keys[0], DcId(0)));
    let Msg::ReadReq { keys: asked, .. } = request else {
        panic!("not a read: {request:?}");
    };
    assert_eq!(asked, &keys);
    // The node answers one row per key, in request order, no key named.
    let mut node = node(Arc::clone(&placement), &keys[..2]);
    let reply = handler(*to, 2, |ctx| node.on_message(TM, request.clone(), ctx));
    let [(_, reply @ Msg::ReadResp { rows, .. })] = reply.as_slice() else {
        panic!("one reply expected: {reply:?}");
    };
    let versions: Vec<Version> = rows.iter().map(|(v, _)| *v).collect();
    assert_eq!(versions, [Version(1), Version(1), Version::ZERO]);
    let mut events = Vec::new();
    handler(TM, 3, |ctx| events = tm.on_message(*to, reply.clone(), ctx));
    let [TmEvent::ReadDone {
        token: done,
        values,
    }] = events.as_slice()
    else {
        panic!("the read did not finish: {events:?}");
    };
    assert_eq!(Some(*done), token);
    let read: Vec<(&Key, Option<i64>)> = values
        .iter()
        .map(|(k, _, row)| (k, row.as_ref().and_then(|r| r.get_int("n"))))
        .collect();
    assert_eq!(
        read,
        [(&keys[0], Some(0)), (&keys[1], Some(1)), (&keys[2], None)]
    );
}

/// The first keys `k0, k1, ..` that land on `shard`.
fn keys_on(placement: &StaticPlacement, shard: usize, n: usize) -> Vec<Key> {
    let all = (0..).map(|i| key(&format!("k{i}")));
    all.filter(|k| placement.shard_of(k) == shard)
        .take(n)
        .collect()
}

fn reads_of(sent: &[(NodeId, Msg)]) -> Vec<(NodeId, u64, Vec<Key>)> {
    sent.iter()
        .filter_map(|(to, msg)| match msg {
            Msg::ReadReq { req, keys } => Some((*to, *req, keys.clone())),
            _ => None,
        })
        .collect()
}

/// A reply whose rows say which key of the request each answers.
fn reply(req: u64, keys: &[Key]) -> Msg {
    let rows = keys.iter().map(|k| {
        let row = Row::new().with("pk", &*k.pk);
        (Version(3), Some(row))
    });
    let rows = rows.collect();
    Msg::ReadResp { req, rows }
}

#[test]
fn a_late_reply_pairs_with_the_keys_of_the_request_it_answers() {
    // Two shards: the read asks node 0 for two keys and node 1 for one.
    let placement = placement(2);
    let (on0, on1) = (keys_on(&placement, 0, 2), keys_on(&placement, 1, 1));
    let keys = vec![on0[0].clone(), on1[0].clone(), on0[1].clone()];
    let mut tm = tm(Arc::clone(&placement));
    let mut token = 0;
    let first = reads_of(&handler(TM, 1, |ctx| {
        token = tm.read(keys.clone(), ReadConsistency::Local, ctx);
    }));
    assert_eq!(first.len(), 2, "one request per node: {first:?}");
    let (n0, first0, _) = first
        .iter()
        .find(|(_, _, k)| *k == on0)
        .expect("node 0 asked");
    let (n1, first1, _) = first
        .iter()
        .find(|(_, _, k)| *k == on1)
        .expect("node 1 asked");
    assert_ne!(first0, first1, "every request has its own id");
    // Node 1 answers; node 0's reply is late, so the read retries what
    // is missing under a fresh id.
    let events = handler(TM, 2, |ctx| {
        assert!(tm.on_message(*n1, reply(*first1, &on1), ctx).is_empty());
    });
    assert!(events.is_empty());
    let retry = reads_of(&handler(TM, 3, |ctx| {
        tm.on_timer(Tick::ReadRetry { token }, ctx)
    }));
    let [(to, again, asked)] = retry.as_slice() else {
        panic!("one retry expected: {retry:?}");
    };
    assert_eq!((to, asked), (n0, &on0));
    assert!(
        ![*first0, *first1].contains(again),
        "a retry has its own id"
    );
    // The late first reply finishes the read, its rows on its own keys.
    let mut events = Vec::new();
    handler(TM, 4, |ctx| {
        events = tm.on_message(*n0, reply(*first0, &on0), ctx)
    });
    let [TmEvent::ReadDone { values, .. }] = events.as_slice() else {
        panic!("the read did not finish: {events:?}");
    };
    for (key, _, row) in values {
        let pk = row.as_ref().and_then(|r| r.get_str("pk"));
        assert_eq!(pk, Some(&*key.pk), "{key:?} paired with {row:?}");
    }
    // The retry's reply arrives after the read ended: ignored.
    handler(TM, 5, |ctx| {
        assert!(tm.on_message(*n0, reply(*again, &on0), ctx).is_empty());
    });
    assert_eq!(tm.stats().malformed_replies, 0);
}

#[test]
fn a_read_reply_of_the_wrong_length_is_dropped_and_counted() {
    let keys = three_keys();
    let mut tm = tm(placement(1));
    let sent = reads_of(&handler(TM, 1, |ctx| {
        tm.read(keys.clone(), ReadConsistency::Local, ctx);
    }));
    let [(node, req, _)] = sent.as_slice() else {
        panic!("one request expected: {sent:?}");
    };
    for short in [
        &keys[..2],
        &[],
        &[keys[0].clone(), keys[1].clone(), keys[2].clone(), key("d")],
    ] {
        handler(TM, 2, |ctx| {
            assert!(tm.on_message(*node, reply(*req, short), ctx).is_empty());
        });
    }
    assert_eq!(tm.stats().malformed_replies, 3);
    // The well-formed reply still finishes the read.
    let mut events = Vec::new();
    handler(TM, 3, |ctx| {
        events = tm.on_message(*node, reply(*req, &keys), ctx)
    });
    assert!(matches!(events.as_slice(), [TmEvent::ReadDone { .. }]));
}

fn empty_verdict() -> VoteVerdict {
    VoteVerdict {
        ballot: Ballot::INITIAL_FAST,
        version: Version(1),
        letters: Vec::new(),
    }
}

#[test]
fn a_verdict_position_outside_the_write_set_is_dropped_and_counted() {
    let (mut tm, txn, _) = committed(&three_keys());
    let records = vec![
        (RecordName::At(3), empty_verdict()),
        (RecordName::At(u32::MAX), empty_verdict()),
    ];
    let verdict = Msg::Verdict(Verdicts { txn, records });
    let sent = handler(TM, 2, |ctx| {
        assert!(tm.on_message(NodeId(0), verdict, ctx).is_empty());
    });
    assert!(sent.is_empty(), "{sent:?}");
    assert_eq!(tm.stats().malformed_replies, 2);
    assert_eq!(tm.in_flight(), 1);
    // A position of a transaction this TM does not run is not malformed:
    // its anchor is gone, and the entry is dropped as a late message.
    let gone = TxnId::new(TM, 77);
    let verdict = Msg::Verdict(Verdicts {
        txn: gone,
        records: vec![(RecordName::At(0), empty_verdict())],
    });
    handler(TM, 3, |ctx| {
        assert!(tm.on_message(NodeId(0), verdict, ctx).is_empty());
    });
    assert_eq!(tm.stats().malformed_replies, 2);
    assert_eq!(tm.stats().unanchored_verdicts, 1);
}

/// The names of the records a Visibility carries.
fn names(msg: &Msg) -> Vec<RecordName> {
    let Msg::Visibility { records, .. } = msg else {
        panic!("not a visibility: {msg:?}");
    };
    records.iter().map(|(name, _)| name.clone()).collect()
}

/// The first message of `sent` to `node` that `is` picks.
fn sent_to(sent: &[(NodeId, Msg)], node: NodeId, is: impl Fn(&Msg) -> bool) -> Msg {
    let to_node = sent.iter().find(|(to, m)| *to == node && is(m));
    to_node.expect("a message to the node").1.clone()
}

/// The Visibility `sent` carries to `node`.
fn visibility_to(sent: &[(NodeId, Msg)], node: NodeId) -> Msg {
    sent_to(sent, node, |m| matches!(m, Msg::Visibility { .. }))
}

fn by_position() -> Vec<RecordName> {
    [0, 1, 2].map(RecordName::At).to_vec()
}

fn by_key(keys: &[Key]) -> Vec<RecordName> {
    keys.iter().cloned().map(RecordName::Key).collect()
}

#[test]
fn a_positional_visibility_resolves_after_a_restart_between_vote_and_outcome() {
    let keys = three_keys();
    let (mut tm, _, proposes) = committed(&keys);
    // Node 0 logs its vote, then crashes; the outcome reaches the node
    // rebuilt from its checkpoint and log.
    let mut disk = Disk::new();
    let mut fan_out = Vec::new();
    for (to, propose) in proposes {
        let mut node = node(placement(1), &keys);
        let answers = if to == NodeId(0) {
            write_checkpoint(&mut disk, node.store());
            node.enable_durability();
            handler_on(to, 2, Some(&mut disk), |ctx| {
                node.on_message(TM, propose, ctx)
            })
        } else {
            handler(to, 2, |ctx| node.on_message(TM, propose, ctx))
        };
        for (_, verdict) in answers {
            fan_out.extend(handler(TM, 3, |ctx| {
                tm.on_message(to, verdict, ctx);
            }));
        }
        if !fan_out.is_empty() {
            break;
        }
    }
    assert_eq!(tm.in_flight(), 0, "four accepting nodes decide it");
    // Nodes 0 to 3 answered accepted: by position. Node 4 never answered.
    for node in 0..4 {
        assert_eq!(names(&visibility_to(&fan_out, NodeId(node))), by_position());
    }
    assert_eq!(names(&visibility_to(&fan_out, NodeId(4))), by_key(&keys));
    let cfg = ProtocolConfig::default();
    let (store, _, leases) =
        recover_store(cfg.clone(), Arc::new(Catalog::new()), &disk).expect("clean");
    assert_eq!(store.pending_len(), 1, "the vote's pending entry survives");
    let mut node = StorageNodeProcess::from_recovery(cfg, store, leases, placement(1), true);
    let visibility = visibility_to(&fan_out, NodeId(0));
    handler_on(NodeId(0), 4, Some(&mut disk), |ctx| {
        node.on_message(TM, visibility, ctx)
    });
    assert_eq!(node.stats().unresolved_visibilities, 0);
    assert_eq!(node.store().pending_len(), 0);
    for key in &keys {
        let (version, row) = node.store().read_committed(key).expect("a value");
        assert_eq!(
            (version, row.get_int("n")),
            (Version(2), Some(7)),
            "{key:?}"
        );
    }
}

#[test]
fn a_node_that_only_rejected_gets_key_names() {
    let keys = three_keys();
    // Another coordinator's writes hold node 4's records first, so node
    // 4 rejects every option of the transaction under test.
    let mut other = tm(placement(1));
    let held = handler(NodeId(98), 1, |ctx| {
        other.commit(keys.iter().map(write).collect(), ctx);
    });
    let (mut tm, txn, proposes) = committed(&keys);
    let mut fan_out = Vec::new();
    for (to, propose) in proposes.into_iter().rev() {
        let mut node = node(placement(1), &keys);
        if to == NodeId(4) {
            let first = sent_to(&held, to, |m| matches!(m, Msg::Propose(_)));
            handler(to, 2, |ctx| node.on_message(NodeId(98), first, ctx));
        }
        for (dest, verdict) in handler(to, 3, |ctx| node.on_message(TM, propose, ctx)) {
            if dest != TM {
                continue;
            }
            if to == NodeId(4) {
                let Msg::Verdict(Verdicts { records, .. }) = &verdict else {
                    panic!("not a verdict: {verdict:?}");
                };
                for (_, v) in records {
                    let (status, _) = v.letter(txn).expect("judged");
                    assert!(!status.is_accepted(), "node 4 rejects");
                }
            }
            fan_out.extend(handler(TM, 4, |ctx| {
                tm.on_message(to, verdict, ctx);
            }));
        }
        if !fan_out.is_empty() {
            break;
        }
    }
    assert_eq!(tm.in_flight(), 0, "every node answered; 0 to 3 accepted");
    assert_eq!(names(&visibility_to(&fan_out, NodeId(4))), by_key(&keys));
    for node in 0..4 {
        assert_eq!(names(&visibility_to(&fan_out, NodeId(node))), by_position());
    }
}

#[test]
fn an_unresolvable_positional_visibility_is_dropped_and_counted() {
    let keys = three_keys();
    let (_, txn, proposes) = committed(&keys);
    let visibility = |records: Vec<(RecordName, bool)>| Msg::Visibility {
        txn,
        outcome: TxnOutcome::Committed,
        records,
    };
    // A node that holds nothing of the transaction.
    let mut empty = node(placement(1), &keys);
    let sent = handler(NodeId(0), 2, |ctx| {
        empty.on_message(TM, visibility(vec![(RecordName::At(0), true)]), ctx)
    });
    assert!(sent.is_empty(), "{sent:?}");
    assert_eq!(empty.stats().unresolved_visibilities, 1);
    // A node that holds it pending, sent a position past its write-set:
    // nothing applies, the entry stays for the well-formed copy.
    let (to, propose) = proposes.into_iter().next().expect("a proposal");
    let mut node = node(placement(1), &keys);
    handler(to, 2, |ctx| node.on_message(TM, propose, ctx));
    let past = vec![(RecordName::At(0), true), (RecordName::At(3), true)];
    handler(to, 3, |ctx| node.on_message(TM, visibility(past), ctx));
    assert_eq!(node.stats().unresolved_visibilities, 1);
    assert_eq!(node.store().pending_len(), 1);
    assert_eq!(node.store().version_of(&keys[0]), Version(1));
    let all = by_position().into_iter().map(|name| (name, true)).collect();
    handler(to, 4, |ctx| node.on_message(TM, visibility(all), ctx));
    assert_eq!(node.stats().unresolved_visibilities, 1);
    assert_eq!(node.store().pending_len(), 0);
    assert!(keys
        .iter()
        .all(|k| node.store().version_of(k) == Version(2)));
}
