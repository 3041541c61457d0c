//! A node that is making a shard's lease holds the mastered options it
//! gets for the shard until it serves, then leads them at the lease
//! ballot with no Phase 1; if the lease does not come by the
//! acquisition's deadline it leads them as a node with no lease does.
//! The table of held options is volatile: a crash forgets it, and the
//! coordinator's retry stands in for it.
//!
//! The tests drive five real [`StorageNodeProcess`]es (one shard, one
//! node per data center, Multi-Paxos with dynamic mastership) and a real
//! [`TransactionManager`] by hand — no simulator, no timers but the ones
//! a test fires — and inspect what each sends.

use std::collections::VecDeque;
use std::sync::Arc;

use mdcc_common::config::MastershipConfig;
use mdcc_common::placement::MasterPolicy;
use mdcc_common::{
    DcId, Key, NodeId, PhysicalUpdate, ProtocolConfig, RecordUpdate, Row, SimTime, StaticPlacement,
    TableId, TxnId, UpdateOp, Version,
};
use mdcc_core::{MdccCtx, Msg, StorageNodeProcess, Tick, TmConfig, TmEvent, TransactionManager};
use mdcc_mastership::{Ballot as MsBallot, MsMsg};
use mdcc_paxos::{Ballot, TxnOutcome};
use mdcc_recovery::{recover_store, write_checkpoint};
use mdcc_sim::process::Effect;
use mdcc_sim::{Ctx, Disk, Process};
use mdcc_storage::{Catalog, RecordStore};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const TM: NodeId = NodeId(99);
/// The hand-off target: node 2, in data center 2.
const TARGET: NodeId = NodeId(2);
/// The holder that hands the lease on.
const OLD: NodeId = NodeId(4);
/// The lease ballot the handoff nominates the target with.
const LEASE: MsBallot = MsBallot { n: 2, pid: 2 };

fn key() -> Key {
    Key::new(TableId(1), "a")
}

fn protocol() -> ProtocolConfig {
    ProtocolConfig {
        mastership: MastershipConfig::enabled(),
        ..ProtocolConfig::default()
    }
}

/// Five data centers, one node each: every node replicates shard 0.
fn placement() -> Arc<StaticPlacement> {
    let matrix = (0..5).map(|n| vec![NodeId(n)]).collect();
    StaticPlacement::new(matrix, MasterPolicy::FixedDc(DcId(1)))
}

/// One message in flight.
type Mail = (NodeId, NodeId, Msg);

/// Five durable storage nodes, each with its disk, and a TM in data
/// center 3. Only what a test hands to [`Cluster::deliver`] arrives.
struct Cluster {
    nodes: Vec<StorageNodeProcess>,
    disks: Vec<Disk>,
    tm: TransactionManager,
}

impl Cluster {
    /// Every node started at 1 ms, holding [`key`] at version 1; the TM
    /// believes [`TARGET`] holds the shard (a `MasterHint` taught it).
    fn new() -> Self {
        let mut nodes = Vec::new();
        let mut disks = Vec::new();
        for _ in 0..5 {
            let mut store = RecordStore::new(protocol(), Arc::new(Catalog::new()));
            store.load(key(), Row::new().with("n", 1));
            let mut disk = Disk::new();
            write_checkpoint(&mut disk, &store);
            let mut node = StorageNodeProcess::new(protocol(), store, placement(), false);
            node.enable_durability();
            nodes.push(node);
            disks.push(disk);
        }
        let cfg = TmConfig {
            protocol: protocol(),
            my_dc: DcId(3),
            assume_classic: true,
        };
        let tm = TransactionManager::new(cfg, placement());
        let mut cluster = Self { nodes, disks, tm };
        for n in 0..5 {
            cluster.at(NodeId(n), 1, |node, ctx| node.on_start(ctx));
        }
        let hint = Msg::MasterHint {
            shard: 0,
            node: TARGET,
        };
        cluster.tm_at(1, |tm, ctx| drop(tm.on_message(NodeId(0), hint, ctx)));
        cluster
    }

    /// Runs `f` as one handler of storage node `me` at `now` ms, over its
    /// disk; returns what it sent.
    fn at(
        &mut self,
        me: NodeId,
        now: u64,
        f: impl FnOnce(&mut StorageNodeProcess, &mut MdccCtx<'_>),
    ) -> Vec<Mail> {
        let i = me.0 as usize;
        let (node, disk) = (&mut self.nodes[i], &mut self.disks[i]);
        run(me, now, Some(disk), |ctx| f(node, ctx))
    }

    /// Runs `f` as one TM handler at `now` ms; returns what it sent.
    fn tm_at(&mut self, now: u64, f: impl FnOnce(&mut TransactionManager, &mut MdccCtx<'_>)) {
        let tm = &mut self.tm;
        assert!(run(TM, now, None, |ctx| f(tm, ctx)).is_empty());
    }

    /// The TM commits a write of [`key`]: its one `ProposeMastered`.
    fn commit(&mut self, now: u64) -> (TxnId, Mail) {
        let tm = &mut self.tm;
        let mut txn = None;
        let sent = run(TM, now, None, |ctx| {
            let op = PhysicalUpdate::write(Version(1), Row::new().with("n", 7));
            let update = RecordUpdate::new(key(), UpdateOp::Physical(op));
            let (id, done) = tm.commit(vec![update], ctx);
            assert!(done.is_none());
            txn = Some(id);
        });
        let [propose] = <[Mail; 1]>::try_from(sent).expect("one proposal");
        assert!(matches!(propose.2, Msg::ProposeMastered { .. }));
        assert_eq!(propose.1, TARGET, "the TM routes to the believed holder");
        (txn.expect("a transaction"), propose)
    }

    /// The old holder hands the lease to [`TARGET`], asking for a lease
    /// to `now + 400` ms: the target gets its `Handoff` and begins the
    /// acquisition (its own `Acquire`s, copies the grantors would answer
    /// alike, are dropped); the copies for the other replicas are
    /// returned undelivered.
    fn hand_off(&mut self, now: u64) -> Vec<Mail> {
        let handoff = Msg::Mastership(MsMsg::Handoff {
            shard: 0,
            ballot: LEASE,
            relinquished: MsBallot::new(1, u64::from(OLD.0)),
            expiry: SimTime::from_millis(now + 400),
        });
        let acquires = self.deliver((OLD, TARGET, handoff.clone()), now);
        assert_eq!(acquires.len(), 4, "{acquires:?}");
        let peers = [0, 1, 3].map(|n| (OLD, NodeId(n), handoff.clone()));
        peers.into()
    }

    /// Delivers one message at `now` ms; returns what its handler sent.
    fn deliver(&mut self, (from, to, msg): Mail, now: u64) -> Vec<Mail> {
        if to == TM {
            let tm = &mut self.tm;
            let mut events = Vec::new();
            let sent = run(TM, now, None, |ctx| events = tm.on_message(from, msg, ctx));
            for event in events {
                if let TmEvent::Completed(done) = event {
                    assert_eq!(done.outcome, TxnOutcome::Committed);
                }
            }
            return sent;
        }
        self.at(to, now, |node, ctx| node.on_message(from, msg, ctx))
    }

    /// Delivers `mail` and everything it causes, in order, at `now` ms.
    fn settle(&mut self, mail: Vec<Mail>, now: u64) {
        let mut queue: VecDeque<Mail> = mail.into();
        let mut budget = 10_000;
        while let Some(next) = queue.pop_front() {
            budget -= 1;
            assert!(budget > 0, "the cluster does not settle");
            queue.extend(self.deliver(next, now));
        }
    }
}

/// Runs `f` as one handler of process `me` at `now` ms; returns what it
/// sent (timers it armed are dropped: a test fires the ones it needs).
fn run(
    me: NodeId,
    now: u64,
    disk: Option<&mut Disk>,
    f: impl FnOnce(&mut MdccCtx<'_>),
) -> Vec<Mail> {
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
            Effect::Send { to, msg, .. } => Some((me, to, msg)),
            _ => None,
        })
        .collect()
}

/// The ballots of the `P1a`s in `sent`.
fn p1a(sent: &[Mail]) -> Vec<Ballot> {
    let ballots = sent.iter().filter_map(|(_, _, m)| match m {
        Msg::P1a { payload, .. } => Some(payload.ballot),
        _ => None,
    });
    ballots.collect()
}

/// The ballots of the rounds the `P2a`s in `sent` carry for [`key`].
fn p2a(sent: &[Mail]) -> Vec<Ballot> {
    let rounds = sent.iter().filter_map(|(_, _, m)| match m {
        Msg::P2a { rounds } => Some(rounds.0.iter()),
        _ => None,
    });
    let rounds = rounds.flatten().filter(|(k, _)| *k == key());
    rounds.map(|(_, round)| round.ballot).collect()
}

/// The `Handoff`s `handoffs` delivered to `peers`: their grants, each
/// addressed to the target.
fn grants(cluster: &mut Cluster, handoffs: &[Mail], peers: &[u32], now: u64) -> Vec<Mail> {
    let to_peers = handoffs.iter().filter(|(_, to, _)| peers.contains(&to.0));
    let mut grants = Vec::new();
    for mail in to_peers.cloned().collect::<Vec<_>>() {
        grants.extend(cluster.deliver(mail, now));
    }
    assert_eq!(grants.len(), peers.len(), "{grants:?}");
    assert!(grants.iter().all(|(_, to, _)| *to == TARGET), "{grants:?}");
    grants
}

/// (a) The hand-off target gets the option while the grantors are still
/// answering the old holder's `Handoff`: it sends no `P1a`. Their grants
/// make it serve, and the option leaves as a `P2a` at the lease ballot:
/// one round trip, not two.
#[test]
fn a_handoff_target_leads_what_it_held_at_the_lease_ballot() {
    let mut cluster = Cluster::new();
    let handoffs = cluster.hand_off(10);
    let (_, propose) = cluster.commit(20);
    let sent = cluster.deliver(propose, 30);
    assert!(sent.is_empty(), "the option waits for the lease: {sent:?}");
    let grants = grants(&mut cluster, &handoffs, &[0, 1], 60);
    let first = cluster.deliver(grants[0].clone(), 110);
    assert!(first.is_empty(), "one grant is no majority: {first:?}");
    let sent = cluster.deliver(grants[1].clone(), 110);
    assert_eq!(p1a(&sent), []);
    let lease = Ballot::lease(LEASE.n, TARGET);
    assert_eq!(p2a(&sent), [lease; 5], "one P2a per replica: {sent:?}");
    let ms = cluster.nodes[2].mastership_stats().expect("mastership on");
    assert_eq!((ms.served, ms.unleased, ms.forwarded), (1, 0, 0));
    assert_eq!(ms.phase1_skipped, 1, "the lease carried Phase 1");
}

/// (b) A held option whose acquisition is refused is led at once, with
/// a Phase 1 of its own, as a node with no lease leads it; and one whose
/// acquisition lapses is led by its deadline. Neither is dropped: the
/// Phase 1 closes and the option leaves in the `P2a`.
#[test]
fn a_held_option_is_led_as_before_once_the_lease_cannot_come() {
    for refused in [true, false] {
        let mut cluster = Cluster::new();
        cluster.hand_off(10);
        let (_, propose) = cluster.commit(20);
        assert!(cluster.deliver(propose, 30).is_empty());
        let sent = if refused {
            let reject = MsMsg::Reject {
                shard: 0,
                max: MsBallot::new(5, 3),
            };
            cluster.deliver((NodeId(0), TARGET, Msg::Mastership(reject)), 60)
        } else {
            // The acquisition asked for a lease to 10 + 400 ms: a tick
            // before that still waits, the first one past it leads.
            let early = cluster.at(TARGET, 300, |n, ctx| n.on_timer(Tick::MsTick, ctx));
            assert_eq!(p1a(&early), [], "{early:?}");
            cluster.at(TARGET, 420, |n, ctx| n.on_timer(Tick::MsTick, ctx))
        };
        let ballots = p1a(&sent);
        assert_eq!(ballots.len(), 5, "refused={refused}: {sent:?}");
        let ms = cluster.nodes[2].mastership_stats().expect("mastership on");
        assert_eq!((ms.served, ms.unleased, ms.forwarded), (0, 1, 0));
        // The Phase 1 closes and the held option goes out.
        let p1as = sent
            .into_iter()
            .filter(|(_, _, m)| matches!(m, Msg::P1a { .. }));
        let mut p1bs = Vec::new();
        for mail in p1as.collect::<Vec<_>>() {
            p1bs.extend(cluster.deliver(mail, 470));
        }
        let mut led = Vec::new();
        for mail in p1bs {
            led.extend(cluster.deliver(mail, 520));
        }
        assert_eq!(p2a(&led), [ballots[0]; 5], "refused={refused}: {led:?}");
    }
}

/// (c) The target crashes while it holds the option, and restarts from
/// its disk: it has forgotten the option, so the grants of its old
/// acquisition lead nothing. The TM's retry commits the transaction.
#[test]
fn a_crash_forgets_the_held_options_and_the_retry_commits() {
    let mut cluster = Cluster::new();
    let handoffs = cluster.hand_off(10);
    let (txn, propose) = cluster.commit(20);
    // (It holds the option; a node without the wait has led it.)
    cluster.deliver(propose, 30);
    // Crash and restart from the checkpoint and the log.
    let (store, _, leases) =
        recover_store(protocol(), Arc::new(Catalog::new()), &cluster.disks[2]).expect("clean");
    cluster.nodes[2] =
        StorageNodeProcess::from_recovery(protocol(), store, leases, placement(), false);
    let restart = cluster.at(TARGET, 40, |node, ctx| node.on_start(ctx));
    let grants = grants(&mut cluster, &handoffs, &[0, 1, 3], 60);
    let mut sent = Vec::new();
    for grant in grants {
        sent.extend(cluster.deliver(grant, 110));
    }
    assert_eq!((p1a(&sent), p2a(&sent)), (vec![], vec![]), "{sent:?}");
    assert_eq!(cluster.tm.in_flight(), 1);
    cluster.settle(restart, 120);
    let tm = &mut cluster.tm;
    let retry = run(TM, 620, None, |ctx| {
        tm.on_timer(Tick::LearnTimeout { txn }, ctx)
    });
    assert!(!retry.is_empty(), "the TM retries");
    cluster.settle(retry, 620);
    assert_eq!(cluster.tm.in_flight(), 0, "the retry committed");
    assert_eq!(cluster.tm.stats().committed, 1);
}
