//! Property tests of the stale-proposal rule: a storage node that is
//! behind the version a fast proposal read parks it and judges it once
//! the record catches up (`mdcc_core::parked`).
//!
//! The claim the rule rests on is that parking is indistinguishable from
//! the network delivering the proposal later. The tests drive one real
//! [`StorageNodeProcess`] by hand — no simulator — through random
//! interleavings of the `Propose` and `Visibility` messages of a chain
//! of single-writer updates (each reads the version its predecessor
//! wrote), including `Visibility(N+1)` overtaking both `Visibility(N)`
//! and `Propose(N+1)`, and check that:
//!
//! * the node's store ends byte-equal to a reference store that judges
//!   on arrival but is *handed* each stale proposal immediately after
//!   the event that made its record reach the version it read;
//! * every proposal is judged at exactly the version it read, so no vote
//!   the node emits carries a rejection — a replica that is merely one
//!   message behind never says "no";
//! * nothing stays parked, and the write-ahead log the node wrote while
//!   parking replays to the same store (a `FastPropose` record sits at
//!   the position where the proposal was judged, not where it arrived).

use std::sync::Arc;

use mdcc_common::placement::MasterPolicy;
use mdcc_common::{
    Key, NodeId, PhysicalUpdate, ProtocolConfig, Row, SimTime, StaticPlacement, TableId, TxnId,
    UpdateOp, Version,
};
use mdcc_core::placement::Placement;
use mdcc_core::{Msg, StorageNodeProcess};
use mdcc_paxos::acceptor::Letter;
use mdcc_paxos::{OptionStatus, Proposal, TxnOption, TxnOutcome};
use mdcc_recovery::{recover_store, wal, WalRecord};
use mdcc_sim::process::Effect;
use mdcc_sim::{Ctx, Disk, Process};
use mdcc_storage::{Catalog, RecordStore};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const TABLE: TableId = TableId(1);
const COORDINATOR: NodeId = NodeId(9);

fn key() -> Key {
    Key::new(TABLE, "cart")
}

fn loaded_store() -> RecordStore {
    let mut store = RecordStore::new(ProtocolConfig::default(), Arc::new(Catalog::new()));
    store.load(key(), Row::new().with("n", 0));
    store
}

/// Link `i` of the chain: rewrites the row, having read version `i`
/// (the record is loaded at version 1, so link 1 goes first).
fn link(i: u64) -> TxnOption {
    TxnOption::solo(
        TxnId::new(COORDINATOR, i),
        key(),
        UpdateOp::Physical(PhysicalUpdate::write(
            Version(i),
            Row::new().with("n", i as i64),
        )),
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Propose(u64),
    Visibility(u64),
}

/// The `2 * links` messages of a chain in the order `ranks` sorts them.
fn interleaving(links: u64, ranks: &[u64]) -> Vec<Event> {
    let mut events: Vec<(u64, Event)> = (1..=links)
        .flat_map(|i| [Event::Propose(i), Event::Visibility(i)])
        .zip(ranks.iter().cycle())
        .map(|(event, rank)| (*rank, event))
        .collect();
    events.sort_by_key(|(rank, _)| *rank);
    events.into_iter().map(|(_, event)| event).collect()
}

/// One hand-driven durable storage node (replica 0 of five).
struct Harness {
    node: StorageNodeProcess,
    disk: Disk,
    rng: SmallRng,
    next_timer: u64,
    sent: Vec<Msg>,
}

fn placement() -> Arc<dyn Placement> {
    let matrix: Vec<Vec<NodeId>> = (0..5).map(|n| vec![NodeId(n)]).collect();
    StaticPlacement::new(matrix, MasterPolicy::HashedPerRecord)
}

impl Harness {
    fn new() -> Self {
        let mut node =
            StorageNodeProcess::new(ProtocolConfig::default(), loaded_store(), placement(), true);
        node.enable_durability();
        let mut disk = Disk::new();
        mdcc_recovery::write_checkpoint(&mut disk, node.store());
        Self {
            node,
            disk,
            rng: SmallRng::seed_from_u64(7),
            next_timer: 0,
            sent: Vec::new(),
        }
    }

    fn deliver(&mut self, now: SimTime, msg: Msg) {
        let mut effects = Vec::new();
        let mut ctx = Ctx::with_disk(
            now,
            NodeId(0),
            &mut self.rng,
            &mut effects,
            &mut self.next_timer,
            &mut self.disk,
        );
        self.node.on_message(COORDINATOR, msg, &mut ctx);
        self.sent
            .extend(effects.into_iter().filter_map(|e| match e {
                Effect::Send { msg, .. } => Some(msg),
                _ => None,
            }));
    }
}

/// The coordinator's `Propose` of link `i` to this node: a proposal of
/// one option.
fn propose(i: u64) -> Msg {
    Msg::Propose(Proposal::of([&link(i)]).expect("one option"))
}

fn visibility(i: u64) -> Msg {
    Msg::Visibility {
        txn: TxnId::new(COORDINATOR, i),
        outcome: TxnOutcome::Committed,
        records: vec![(key(), true)],
    }
}

/// The instance and the letters a vote names: the node answers the
/// coordinator with a verdict, one letter per option of the coordinator
/// still open at the record. `None` for a message that is not a vote.
fn voted(msg: &Msg) -> Option<(Version, &[Letter])> {
    match msg {
        Msg::Verdict { verdict, .. } => Some((verdict.version, &verdict.letters)),
        _ => None,
    }
}

fn fingerprint(store: &RecordStore) -> String {
    format!("{:?}", store.export_state())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parking_equals_later_delivery(
        links in 1u64..7,
        ranks in prop::collection::vec(any::<u64>(), 14..15),
    ) {
        let events = interleaving(links, &ranks);

        // The node under test: parks what it is behind on.
        let mut node = Harness::new();
        // The reference: judges on arrival; the test plays the network
        // and withholds a stale proposal until its record has moved.
        let mut reference = loaded_store();
        let mut withheld: Vec<TxnOption> = Vec::new();

        for (step, event) in events.iter().enumerate() {
            let now = SimTime::from_millis(step as u64 + 1);
            match *event {
                Event::Propose(i) => {
                    node.deliver(now, propose(i));
                    if reference.behind(&link(i)) {
                        withheld.push(link(i));
                    } else {
                        reference.fast_propose(link(i), now);
                    }
                }
                Event::Visibility(i) => {
                    node.deliver(now, visibility(i));
                    reference.apply_visibility(
                        &key(),
                        TxnId::new(COORDINATOR, i),
                        TxnOutcome::Committed,
                        true,
                    );
                }
            }
            // Deliver, in arrival order, whatever the event released;
            // a delivered proposal can release the next one.
            while let Some(at) = withheld.iter().position(|opt| !reference.behind(opt)) {
                reference.fast_propose(withheld.remove(at), now);
            }
        }

        prop_assert_eq!(
            fingerprint(node.node.store()),
            fingerprint(&reference),
            "park + release differs from later delivery for {:?}",
            events
        );
        // The whole chain arrived, so the whole chain executed.
        prop_assert_eq!(node.node.store().version_of(&key()), Version(links + 1));
        prop_assert_eq!(node.node.parked_len(), 0, "nothing waits forever");
        prop_assert!(withheld.is_empty());
        let stats = node.node.stats();
        prop_assert_eq!(stats.proposals_parked, stats.parked_released);
        prop_assert_eq!(stats.parked_judged_behind, 0);

        // No replica that is merely behind says no.
        for (version, letters) in node.sent.iter().filter_map(voted) {
            for letter in letters {
                prop_assert!(
                    letter.status.is_accepted(),
                    "{} rejected at {} in {:?}",
                    letter.txn,
                    version,
                    events
                );
            }
        }

        // The log written while parking: each proposal was logged where
        // it was judged — at the version it read — and replay lands on
        // the live store.
        let log = wal::read_all(node.disk.wal()).expect("clean log");
        let mut replayed = loaded_store();
        for record in &log {
            if let WalRecord::FastPropose { opt, .. } = record {
                prop_assert_eq!(
                    Some(replayed.version_of(&opt.key)),
                    opt.op.read_version(),
                    "{} judged away from the version it read",
                    opt.txn
                );
            }
            wal::replay(&mut replayed, std::slice::from_ref(record));
        }
        prop_assert_eq!(fingerprint(&replayed), fingerprint(node.node.store()));
        let (recovered, _) =
            recover_store(ProtocolConfig::default(), Arc::new(Catalog::new()), &node.disk)
                .expect("clean disk");
        prop_assert_eq!(fingerprint(&recovered), fingerprint(node.node.store()));
    }
}

/// The overtaking case spelled out: `Visibility(2)` arrives before both
/// `Visibility(1)` and `Propose(2)`.
#[test]
fn visibility_overtaking_its_own_proposal_and_its_predecessor() {
    let mut node = Harness::new();
    let at = SimTime::from_millis;
    node.deliver(at(1), propose(1));
    node.deliver(at(2), visibility(2));
    node.deliver(at(3), propose(2));
    assert_eq!(
        node.node.parked_len(),
        1,
        "link 2 read a version not here yet"
    );
    assert_eq!(node.node.store().version_of(&key()), Version(1));
    node.deliver(at(4), visibility(1));
    // Link 1 executed, which released link 2, whose outcome was already
    // known: it executed on the spot.
    assert_eq!(node.node.parked_len(), 0);
    let (version, row) = node.node.store().read_committed(&key()).expect("exists");
    assert_eq!((version, row.get_int("n")), (Version(3), Some(2)));
}

/// The coordinator's retry is judged on arrival and supersedes the
/// parked copy; the answer is the one a behind replica always gave.
#[test]
fn a_retry_is_judged_as_it_stands_and_drops_the_parked_copy() {
    let mut node = Harness::new();
    let at = SimTime::from_millis;
    node.deliver(at(1), propose(2));
    assert_eq!(node.node.parked_len(), 1);
    assert!(node.sent.is_empty(), "a parked proposal is not answered");
    node.deliver(at(700), propose(2));
    assert_eq!(node.node.parked_len(), 0);
    let stats = node.node.stats();
    assert_eq!(
        (
            stats.proposals_parked,
            stats.parked_judged_behind,
            stats.parked_released
        ),
        (1, 1, 0)
    );
    let rejected = node
        .sent
        .iter()
        .filter_map(voted)
        .any(|(_, letters)| letters.iter().any(|l| !l.status.is_accepted()));
    assert!(rejected, "judged while behind: the stale-read vote of old");
    // Judged once: the record catching up later finds nothing parked.
    let log = wal::read_all(node.disk.wal()).expect("clean log");
    assert_eq!(log.len(), 1);
}

/// A crash loses parked proposals the way it loses in-flight messages:
/// they were never logged, so the recovered store is the pre-crash
/// store, the restarted node holds nothing, and the coordinator's retry
/// gets its answer.
#[test]
fn a_crash_forgets_parked_proposals_and_the_retry_is_answered() {
    let mut node = Harness::new();
    let at = SimTime::from_millis;
    node.deliver(at(1), propose(1));
    node.deliver(at(2), propose(3));
    node.deliver(at(3), propose(2));
    assert_eq!(node.node.parked_len(), 2, "links 2 and 3 wait for link 1");
    let before = fingerprint(node.node.store());
    let log = wal::read_all(node.disk.wal()).expect("clean log");
    assert_eq!(log.len(), 1, "parked proposals are not logged");

    // Crash: the process is gone, the disk stays.
    let Harness { disk, .. } = node;
    let (store, info) = recover_store(ProtocolConfig::default(), Arc::new(Catalog::new()), &disk)
        .expect("clean disk");
    assert_eq!(fingerprint(&store), before);
    let restarted = StorageNodeProcess::from_recovery(
        ProtocolConfig::default(),
        store,
        placement(),
        true,
        info,
    );
    assert_eq!(restarted.parked_len(), 0);
    let mut node = Harness {
        node: restarted,
        disk,
        rng: SmallRng::seed_from_u64(8),
        next_timer: 0,
        sent: Vec::new(),
    };

    // Link 1 resolves; nothing was parked, so nothing else moves.
    node.deliver(at(900), visibility(1));
    assert_eq!(node.node.store().version_of(&key()), Version(2));
    assert!(node.sent.iter().all(|m| voted(m).is_none()));
    // The coordinator's learn timeout re-proposes link 2: judged at the
    // version it read, accepted, answered.
    node.deliver(at(901), propose(2));
    let accepted = node
        .sent
        .iter()
        .filter_map(voted)
        .any(|(version, letters)| {
            version == Version(2)
                && letters.iter().any(|l| {
                    l.txn == TxnId::new(COORDINATOR, 2) && l.status == OptionStatus::Accepted
                })
        });
    assert!(accepted, "the retry was not answered: {:?}", node.sent);
}
