//! The lease handoff without the simulator: a deposed leader with
//! appends still in flight, a successor that assumes leadership at the
//! next tenure's lease ballot, and five acceptors that receive what the
//! two sent in any order, more than once or never.
//!
//! The successor skipped Phase 1. What stands in for it is the base
//! check ([`AcceptorRecord::refuses_base`]): its first Phase2a names the
//! trace digest of the cstruct it extends, and only acceptors holding
//! exactly that join the ballot. The properties here restate the safety
//! argument as things a test can see:
//!
//! 1. acceptors that accepted at the same ballot hold the same cstruct;
//! 2. no option is ever learned with two statuses, by a learner that
//!    follows every vote or by one that looks at the acceptors afresh;
//! 3. whatever was learned, accepted or rejected, is in every
//!    proved-safe cstruct a later Phase 1 computes with that decision —
//!    the successor's own fallback included, and also when what the
//!    acceptors hold conflicts (physical writes, decrements that only
//!    fit the escrow one at a time), where a Phase 1 that believed a
//!    minority at the assumed ballot would drop a chosen option;
//! 4. the options learned accepted fit the stock together;
//! 5. an acceptor that missed one of the predecessor's appends Nacks,
//!    even when what it holds is *nothing*;
//! 6. and without the digest comparison, (1) fails.
//!
//! Every Phase2a is delivered as it is broadcast: without the leader's
//! snapshot. Some acceptors start an instance *behind* the leaders'
//! replicas; they ask, and the answers — the instance so far, with the
//! snapshot — join what is in flight and are delivered in any order,
//! more than once or never, like everything else. An acceptor may also
//! catch up by anti-entropy in between. Properties 1–4 hold unchanged,
//! and:
//!
//! 7. a lean Phase2a delivered to an acceptor that is behind changes
//!    nothing there — not its promise, not what it accepted;
//! 8. an answer that finds the acceptor already in its instance (it
//!    caught up by sync, or by an earlier copy of the answer) is judged
//!    exactly as the same Phase2a without the snapshot: an ordinary
//!    duplicate.

use std::collections::BTreeMap;
use std::sync::Arc;

use mdcc_common::wire::to_bytes;
use mdcc_common::{
    CommutativeUpdate, Key, NodeId, PhysicalUpdate, Row, TableId, TxnId, UpdateOp, Version,
};
use mdcc_paxos::acceptor::{AcceptorRecord, Base, ClassicAccept, Phase2a};
use mdcc_paxos::leader::{LeaderAction, LeaderConfig};
use mdcc_paxos::TxnOutcome;
use mdcc_paxos::{
    AttrConstraint, Ballot, CStruct, LeaderRecord, LearnOutcome, Learner, OptionStatus, TxnOption,
};
use proptest::prelude::*;

const N: usize = 5;
const QC: usize = 3;
const QF: usize = 4;

/// The predecessor and the successor; acceptor `i` runs on `NodeId(i)`.
const OLD: NodeId = NodeId(10);
const NEW: NodeId = NodeId(11);

fn key() -> Key {
    Key::new(TableId(0), "r")
}

fn txn(seq: u64) -> TxnId {
    TxnId::new(NodeId(7), seq)
}

/// Stock every acceptor starts from.
const STOCK: i64 = 1_000;

/// The instance both tenures run in. Instance 1 closed before either:
/// a write that left the stock where it was committed there, and the
/// acceptors that start *behind* missed its outcome.
const INSTANCE: Version = Version(2);

/// A decrement that fits the escrow alone and not next to another one:
/// the demarcation floor is `STOCK / 5`.
const BIG: i64 = 450;

/// How much option `seq` takes from the stock if it commits.
fn takes(seq: u64) -> i64 {
    match seq % 4 {
        0 => 2 * STOCK,
        1 => 1,
        2 => BIG,
        _ => 0,
    }
}

/// Option `seq`, one of four kinds. A decrement no acceptor can grant
/// (it exceeds the stock) and one every acceptor grants whatever else it
/// holds; and two whose decision depends on *what else* the acceptor
/// holds, so that acceptors a lossy channel left with different pieces
/// of one leader's stream disagree about them and their cstructs have no
/// upper bound: a decrement of [`BIG`], and a physical write, which
/// tolerates no other pending option and blocks every later one.
fn opt(seq: u64) -> TxnOption {
    let op = match takes(seq) {
        0 => UpdateOp::Physical(PhysicalUpdate::write(
            INSTANCE,
            Row::new().with("stock", STOCK),
        )),
        amount => UpdateOp::Commutative(CommutativeUpdate::delta("stock", -amount)),
    };
    TxnOption::solo(txn(seq), key(), op)
}

/// Five acceptors in [`INSTANCE`], except those of `behind`, which never
/// heard how instance 1 ended — and, if `saw`, still hold its write.
fn acceptors(behind: &[usize], saw: bool) -> Vec<AcceptorRecord> {
    let constraints: Arc<[AttrConstraint]> = Arc::from(vec![AttrConstraint::at_least("stock", 0)]);
    let row = Row::new().with("stock", STOCK);
    let first = TxnOption::solo(
        txn(9_999),
        key(),
        UpdateOp::Physical(PhysicalUpdate::write(Version(1), row.clone())),
    );
    (0..N)
        .map(|i| {
            let mut acc =
                AcceptorRecord::with_value(Arc::clone(&constraints), N, QF, 32, row.clone());
            let lags = behind.contains(&i);
            if !lags || saw {
                acc.fast_propose(first.clone());
            }
            if !lags {
                acc.apply_visibility(first.txn, TxnOutcome::Committed, true);
                assert_eq!(acc.version(), INSTANCE);
            }
            acc
        })
        .collect()
}

/// Everything an acceptor is, as bytes.
fn state_of(acc: &AcceptorRecord) -> Vec<u8> {
    to_bytes(&acc.export_state())
}

fn leader(node: NodeId, acc: &AcceptorRecord) -> LeaderRecord {
    let cfg = LeaderConfig {
        n: N,
        qc: QC,
        qf: QF,
        gamma: 1_000,
        allow_fast: false,
        max_instance_options: 32,
        name_base: true,
    };
    LeaderRecord::new(cfg, node, acc.snapshot())
}

fn rank(status: OptionStatus) -> bool {
    status.is_accepted()
}

/// A random source the properties draw from: a tape of generated words.
struct Tape<'a> {
    words: &'a [u32],
    at: usize,
}

impl Tape<'_> {
    fn next(&mut self, below: usize) -> Option<usize> {
        let word = *self.words.get(self.at)?;
        self.at += 1;
        Some(word as usize % below.max(1))
    }
}

/// Five acceptors, the two leaders, every Phase2a either ever sent, and
/// what has been learned so far.
struct Handoff {
    acc: Vec<AcceptorRecord>,
    old: LeaderRecord,
    new: LeaderRecord,
    /// The successor's local replica.
    home: usize,
    /// `(from the successor?, target acceptor, payload)`: delivered by
    /// index, never removed, so a message can arrive twice or never.
    sent: Vec<(bool, usize, Phase2a)>,
    /// Learners that follow every vote, one per option.
    following: BTreeMap<TxnId, Learner>,
    /// Accepted or not, as first learned by anyone.
    learned: BTreeMap<TxnId, bool>,
    /// Simulates the digest comparison reverted to "always accept".
    ignore_base: bool,
    /// The predecessor still answers acceptors that ask: true during
    /// its tenure, false once it is succeeded.
    old_answers: bool,
}

impl Handoff {
    fn new(home: usize) -> Self {
        Self::with_behind(home, &[], false)
    }

    /// The acceptors of `behind` start an instance back (neither
    /// leader's own replica may).
    fn with_behind(home: usize, behind: &[usize], saw: bool) -> Self {
        let acc = acceptors(behind, saw);
        let (old, new) = (leader(OLD, &acc[0]), leader(NEW, &acc[home]));
        Handoff {
            acc,
            old,
            new,
            home,
            sent: Vec::new(),
            following: BTreeMap::new(),
            learned: BTreeMap::new(),
            ignore_base: false,
            old_answers: true,
        }
    }

    fn follow(&mut self, seq: u64) {
        let learner = Learner::new(N, QC, QF, txn(seq));
        self.following.insert(txn(seq), learner);
    }

    /// Acceptor `at` judges a Phase2a — the base check included, unless
    /// the scenario reverts it.
    fn node_accept(&mut self, at: usize, mut p: Phase2a) -> ClassicAccept {
        if self.ignore_base {
            if let Base::Digest(_) = p.base {
                p.base = Base::Held;
            }
        }
        self.acc[at].classic_accept(p)
    }

    /// Records what a learner concluded; two statuses for one option is
    /// the failure the whole protocol exists to exclude.
    fn note(&mut self, txn: TxnId, outcome: LearnOutcome) -> Result<(), String> {
        let LearnOutcome::Learned(status) = outcome else {
            return Ok(());
        };
        let first = *self.learned.entry(txn).or_insert(rank(status));
        if first == rank(status) {
            Ok(())
        } else {
            Err(format!(
                "{txn:?} learned accepted={first} and then {status:?}"
            ))
        }
    }

    /// Feeds acceptor `at`'s vote to the learners that follow every vote,
    /// and asks fresh learners what the five acceptors say right now.
    fn observe(&mut self, at: usize) -> Result<(), String> {
        let vote = self.acc[at].phase2b();
        let txns: Vec<TxnId> = self.following.keys().copied().collect();
        for txn in txns {
            let follower = self.following.get_mut(&txn).expect("listed");
            let before = follower.learned();
            let outcome = follower.on_vote(at, vote.clone());
            if before.is_some() && follower.learned().map(rank) != before.map(rank) {
                return Err(format!("{txn:?} un-learned: {before:?} -> {outcome:?}"));
            }
            self.note(txn, outcome)?;
            let mut fresh = Learner::new(N, QC, QF, txn);
            let mut outcome = LearnOutcome::Undecided;
            for (i, acc) in self.acc.iter().enumerate() {
                outcome = fresh.on_vote(i, acc.phase2b());
            }
            self.note(txn, outcome)?;
        }
        Ok(())
    }

    /// Runs what a leader asked for: Phase2a payloads join `sent`, a
    /// Phase1a is answered at once by a tape-chosen classic quorum (the
    /// other acceptors hear of it only if the leader has to keep
    /// collecting).
    fn run(
        &mut self,
        from_new: bool,
        actions: Vec<LeaderAction>,
        tape: &mut Tape,
    ) -> Result<(), String> {
        let mut todo = actions;
        while let Some(action) = todo.pop() {
            match action {
                LeaderAction::Phase2a(p) => {
                    if let Base::ProvedSafe(safe) = &p.base {
                        for (txn, accepted) in &self.learned {
                            if safe.status_of(*txn).map(rank) != Some(*accepted) {
                                return Err(format!(
                                    "{txn:?} was learned accepted={accepted}, {safe} says otherwise"
                                ));
                            }
                        }
                    }
                    self.sent.extend((0..N).map(|to| (from_new, to, p.clone())));
                }
                LeaderAction::Phase1a(ballot) => {
                    // The quorum first, then — only while the leader
                    // still cannot judge what it heard — the others.
                    let skip = tape.next(N).unwrap_or(0);
                    let in_quorum = |i: &usize| (i + skip) % N < QC + skip % 2;
                    let order = (0..N)
                        .filter(in_quorum)
                        .chain((0..N).filter(|i| !in_quorum(i)));
                    let leader = if from_new {
                        &mut self.new
                    } else {
                        &mut self.old
                    };
                    for i in order {
                        let p1b = self.acc[i].phase1a(ballot);
                        let next = leader.on_phase1b(i, p1b);
                        let decided = matches!(next[..], [LeaderAction::Phase2a(_)]);
                        todo.extend(next);
                        if decided {
                            break;
                        }
                    }
                }
                LeaderAction::RedirectFast(_) => return Err("fast mode is off".into()),
            }
        }
        Ok(())
    }

    /// Property 8: an answer that finds acceptor `at` already in its
    /// instance is judged as the same Phase2a without the snapshot.
    fn an_answer_too_late_is_a_duplicate(&self, at: usize, p: &Phase2a) -> Result<(), String> {
        if p.snapshot.is_none() || self.acc[at].version() < p.version {
            return Ok(());
        }
        let lean = Phase2a {
            snapshot: None,
            ..p.clone()
        };
        let (mut with, mut without) = (self.acc[at].clone(), self.acc[at].clone());
        let answers = (with.classic_accept(p.clone()), without.classic_accept(lean));
        let same_answer = std::mem::discriminant(&answers.0) == std::mem::discriminant(&answers.1);
        if same_answer && state_of(&with) == state_of(&without) {
            Ok(())
        } else {
            Err(format!(
                "acceptor {at} read a snapshot it had no use for: {answers:?}"
            ))
        }
    }

    /// Delivers `sent[pick]`. Only the successor reacts to the answer —
    /// the predecessor is gone, which is why it was succeeded — however
    /// late it comes: a Nack about a ballot it has left behind is no
    /// news to it. An acceptor that is behind asks whoever sent the
    /// Phase2a, and the answer joins what is in flight.
    fn deliver(&mut self, pick: usize, tape: &mut Tape) -> Result<(), String> {
        let (from_new, at, p) = self.sent[pick].clone();
        let version = self.acc[at].version();
        let ballot = p.ballot;
        self.an_answer_too_late_is_a_duplicate(at, &p)?;
        let lean_and_behind = p.snapshot.is_none() && p.version > version;
        let untouched = lean_and_behind.then(|| state_of(&self.acc[at]));
        let answer = self.node_accept(at, p);
        if let Some(before) = untouched {
            // Property 7: it asks, or Nacks a ballot it promised past.
            let asks = matches!(answer, ClassicAccept::Behind | ClassicAccept::Nack { .. });
            if !asks || state_of(&self.acc[at]) != before {
                return Err(format!(
                    "a lean Phase2a moved acceptor {at}, behind: {answer:?}"
                ));
            }
        }
        let actions = match answer {
            ClassicAccept::Vote(_) => {
                self.observe(at)?;
                Vec::new()
            }
            ClassicAccept::Nack { promised } if from_new => self.new.on_nack(promised),
            ClassicAccept::Stale { snapshot } if from_new => self.new.on_stale(snapshot),
            ClassicAccept::Nack { .. } | ClassicAccept::Stale { .. } => Vec::new(),
            ClassicAccept::Behind => {
                let asked = if from_new { &self.new } else { &self.old };
                let answers = from_new || self.old_answers;
                let answer = asked.on_behind(ballot).filter(|_| answers);
                self.sent.extend(answer.map(|p| (from_new, at, p)));
                Vec::new()
            }
        };
        self.run(true, actions, tape)?;
        if at == self.home && self.acc[at].version() != version {
            let actions = self.new.on_advance(self.acc[at].snapshot());
            self.run(true, actions, tape)?;
        }
        Ok(())
    }

    /// The predecessor's tenure: `common` appends that reached everyone,
    /// then `inflight` more whose Phase2a are still on the wire.
    fn predecessor(
        &mut self,
        common: usize,
        inflight: usize,
        tape: &mut Tape,
    ) -> Result<(), String> {
        let lease = Ballot::lease(1, OLD);
        assert!(self
            .old
            .assume_leadership(lease, CStruct::EMPTY_TRACE_DIGEST));
        for seq in 1..=(common + inflight) as u64 {
            self.follow(seq);
            let actions = self.old.enqueue(opt(seq));
            let mut pick = self.sent.len();
            self.run(false, actions, tape)?;
            // What reached everyone includes the answers to those that
            // had to ask.
            while seq <= common as u64 && pick < self.sent.len() {
                self.deliver(pick, tape)?;
                pick += 1;
            }
        }
        self.old_answers = false;
        Ok(())
    }

    /// Anti-entropy: acceptor `at` catches up from the successor's
    /// replica, as a restarted or repaired node would.
    fn sync(&mut self, at: usize) {
        let snapshot = self.acc[self.home].snapshot();
        self.acc[at].sync_from_peer(&snapshot, &[]);
    }

    /// The election: a grant quorum (the successor's replica among them)
    /// promises the new lease ballot, and the successor assumes it with
    /// the digest of what its own replica holds, then appends `seq`.
    fn handoff(&mut self, seq: u64, tape: &mut Tape) -> Result<Ballot, String> {
        let lease = Ballot::lease(2, NEW);
        let skip = tape.next(N).unwrap_or(0);
        for offset in 0..QC {
            let grantor = (self.home + offset * (1 + skip % 2)) % N;
            self.acc[grantor].raise_promise(lease);
        }
        let home = &self.acc[self.home];
        self.new.observe_ballot(home.promised());
        let base = home.cstruct().trace_digest();
        if !self.new.assume_leadership(lease, base) {
            return Err("the lease ballot must clear the local promise".into());
        }
        self.follow(seq);
        let actions = self.new.enqueue(opt(seq));
        self.run(true, actions, tape)?;
        Ok(lease)
    }

    /// Every acceptor pair that accepted at the same ballot of the
    /// successor in the same instance holds the same cstruct. (Each such
    /// ballot carries one Phase2a here; the predecessor's stream is in
    /// pieces by construction — that is what "in flight" means.)
    fn streams_agree(&self) -> Result<(), String> {
        for (i, a) in self.acc.iter().enumerate() {
            for (j, b) in self.acc.iter().enumerate().skip(i + 1) {
                let same_stream = a.accepted_ballot().is_some_and(|b| b.proposer == NEW)
                    && a.accepted_ballot() == b.accepted_ballot()
                    && a.version() == b.version();
                if same_stream && !a.cstruct().equivalent(b.cstruct()) {
                    return Err(format!(
                        "acceptors {i} and {j} both accepted at {:?}: {} vs {}",
                        a.accepted_ballot(),
                        a.cstruct(),
                        b.cstruct()
                    ));
                }
                if same_stream && a.cstruct().trace_digest() != b.cstruct().trace_digest() {
                    return Err(format!("digests of {i} and {j} differ on equal cstructs"));
                }
            }
        }
        Ok(())
    }
}

impl Handoff {
    /// The options learned accepted may all commit: together they must
    /// fit the stock.
    fn learned_fits_the_stock(&self) -> Result<(), String> {
        let accepted = self.learned.iter().filter(|(_, accepted)| **accepted);
        let taken: i64 = accepted.map(|(txn, _)| takes(txn.seq)).sum();
        if taken > STOCK {
            return Err(format!(
                "learned accepted: {:?}, {taken} of {STOCK}",
                self.learned
            ));
        }
        Ok(())
    }
}

/// One whole scenario from generated inputs; `Err` names the property
/// that broke.
fn scenario(
    home: usize,
    common: usize,
    inflight: usize,
    words: &[u32],
    ignore_base: bool,
) -> Result<(), String> {
    scenario_with_behind(home, 0, common, inflight, words, ignore_base)
}

/// [`scenario`] with the acceptors of the `lag` bit mask an instance
/// behind (the leaders' own replicas excepted; bit `N` says whether they
/// still hold instance 1's write), and anti-entropy among the events.
fn scenario_with_behind(
    home: usize,
    lag: usize,
    common: usize,
    inflight: usize,
    words: &[u32],
    ignore_base: bool,
) -> Result<(), String> {
    let mut tape = Tape { words, at: 0 };
    let behind: Vec<usize> = (1..N).filter(|i| *i != home && lag >> i & 1 == 1).collect();
    let mut h = Handoff::with_behind(home, &behind, lag >> N & 1 == 1);
    h.ignore_base = ignore_base;
    h.predecessor(common, inflight, &mut tape)?;
    // Some of what is in flight lands before the election, some after,
    // some never.
    let early = tape.next(2 * N).unwrap_or(0);
    for _ in 0..early {
        match tape.next(h.sent.len()) {
            Some(pick) if pick < h.sent.len() => h.deliver(pick, &mut tape)?,
            _ => {}
        }
    }
    let first = 100 + tape.next(4).unwrap_or(1) as u64;
    h.handoff(first, &mut tape)?;
    // With someone behind, one event in `sent.len() + 1` is a sync.
    let syncs = usize::from(!behind.is_empty());
    while let Some(pick) = tape.next(h.sent.len() + syncs) {
        if pick < h.sent.len() {
            h.deliver(pick, &mut tape)?;
        } else {
            h.sync(behind[tape.next(behind.len()).unwrap_or(0)]);
        }
        h.streams_agree()?;
    }
    // Quiesce: everything the successor sent arrives everywhere, in the
    // order it was sent (the predecessor's stragglers stay lost).
    let mut pick = 0;
    while pick < h.sent.len() {
        if h.sent[pick].0 {
            h.deliver(pick, &mut tape)?;
        }
        pick += 1;
    }
    h.streams_agree()?;
    h.learned_fits_the_stock()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Properties 1–4 over random predecessor histories, random delivery
    /// (reordered, duplicated, dropped), random grant quorums, random
    /// Phase 1 quorums for the successor's fallback.
    #[test]
    fn base_checked_handoff_is_safe_under_any_delivery(
        home in 0usize..N,
        common in 0usize..5,
        inflight in 0usize..4,
        words in prop::collection::vec(any::<u32>(), 8..72),
    ) {
        let outcome = scenario(home, common, inflight, &words, false);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    /// The same with acceptors behind: lean deliveries, asks, answers in
    /// any order, twice or never, syncs in between. Properties 1–4
    /// unchanged, 7 and 8 on every delivery.
    #[test]
    fn behind_acceptors_ask_and_answers_arrive_in_any_order(
        home in 0usize..N,
        lag in 2usize..(2 << N),
        common in 0usize..5,
        inflight in 0usize..4,
        words in prop::collection::vec(any::<u32>(), 8..72),
    ) {
        let outcome = scenario_with_behind(home, lag, common, inflight, &words, false);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

/// The on-demand path end to end, by hand: a behind acceptor is left
/// untouched by the broadcast, joins through the answer, and a second
/// copy of the answer — or one that arrives after a sync — adds nothing.
#[test]
fn a_behind_acceptor_joins_through_the_answer_and_only_once() {
    let mut tape = Tape { words: &[], at: 0 };
    let mut h = Handoff::with_behind(0, &[3, 4], false);
    h.predecessor(0, 0, &mut tape).expect("an empty tenure");
    let lease = h.handoff(101, &mut tape).expect("assumed");
    assert_eq!(h.sent.len(), N, "one lean broadcast");
    assert!(h.sent.iter().all(|(_, _, p)| p.snapshot.is_none()));
    for pick in 0..N {
        h.deliver(pick, &mut tape).expect("delivered");
    }
    // Three joined; the two behind asked, each got an answer of its own.
    assert_eq!(h.acc[3].version(), Version(1));
    assert_eq!(h.acc[3].accepted_ballot(), None);
    assert_eq!(h.sent.len(), N + 2);
    let (_, at, answer) = h.sent[N].clone();
    assert_eq!(at, 3);
    assert_eq!(answer.snapshot, Some(h.acc[0].snapshot()));
    h.deliver(N, &mut tape).expect("answered");
    assert_eq!(h.acc[3].version(), INSTANCE);
    assert_eq!(h.acc[3].accepted_ballot(), Some(lease));
    let joined = state_of(&h.acc[3]);
    h.deliver(N, &mut tape).expect("a second copy");
    assert_eq!(state_of(&h.acc[3]), joined, "the duplicate added nothing");
    // Acceptor 4 catches up by anti-entropy first; the broadcast it
    // could not use then finds it in the instance, and the answer it
    // asked for is one more duplicate.
    h.sync(4);
    assert_eq!(h.acc[4].version(), INSTANCE);
    h.deliver(4, &mut tape).expect("the lean copy again");
    assert_eq!(h.acc[4].accepted_ballot(), Some(lease));
    let joined = state_of(&h.acc[4]);
    h.deliver(N + 1, &mut tape).expect("the late answer");
    assert_eq!(state_of(&h.acc[4]), joined);
    h.streams_agree().expect("one stream");
}

/// Property 5, the case the old `!cstruct.is_empty()` guard let through:
/// the successor's replica holds one of the predecessor's appends, this
/// acceptor never got it and holds nothing. It must Nack — appending
/// would fork the ballot's stream — while an acceptor that holds the
/// same one entry joins.
#[test]
fn an_empty_acceptor_nacks_a_leader_whose_base_is_not() {
    let mut tape = Tape { words: &[], at: 0 };
    let mut h = Handoff::new(0);
    h.predecessor(0, 1, &mut tape)
        .expect("one append in flight");
    // The predecessor's append reached acceptors 0 and 1 only.
    for pick in [0, 1] {
        h.deliver(pick, &mut tape).expect("delivered");
    }
    let lease = h.handoff(100, &mut tape).expect("assumed");
    let first = h.sent.iter().position(|(new, ..)| *new).expect("sent");
    assert!(matches!(h.sent[first].2.base, Base::Digest(d) if d != CStruct::EMPTY_TRACE_DIGEST));
    let (_, _, p) = h.sent[first + 1].clone();
    assert!(matches!(h.node_accept(1, p), ClassicAccept::Vote(_)));
    assert_eq!(h.acc[1].accepted_ballot(), Some(lease));
    let (_, _, p) = h.sent[first + 4].clone();
    assert!(h.acc[4].cstruct().is_empty());
    let after = lease.next_classic(NEW);
    assert_eq!(
        h.acc[4].refuses_base(&p),
        Some(after),
        "\"you skipped Phase 1\""
    );
    match h.node_accept(4, p) {
        ClassicAccept::Nack { promised } => assert_eq!(promised, after),
        other => panic!("expected a Nack, got {other:?}"),
    }
    assert!(h.acc[4].cstruct().is_empty(), "nothing was mutated");
    assert_ne!(h.acc[4].accepted_ballot(), Some(lease));
}

/// Property 6: the same scenario with the digest comparison reverted to
/// "always accept" forks the stream — the empty acceptor appends, and
/// two acceptors that accepted at one ballot hold different cstructs.
#[test]
fn without_the_digest_comparison_streams_fork() {
    let run = |ignore_base: bool| {
        let mut tape = Tape { words: &[], at: 0 };
        let mut h = Handoff::new(0);
        h.ignore_base = ignore_base;
        h.predecessor(0, 1, &mut tape)?;
        for pick in [0, 1] {
            h.deliver(pick, &mut tape)?;
        }
        h.handoff(100, &mut tape)?;
        let first = h.sent.iter().position(|(new, ..)| *new).expect("sent");
        for pick in [first, first + 1, first + 4] {
            let (_, at, p) = h.sent[pick].clone();
            h.node_accept(at, p);
        }
        h.streams_agree()
    };
    assert_eq!(run(false), Ok(()));
    let forked = run(true).expect_err("no base check, no agreement");
    assert!(forked.contains("both accepted at"), "{forked}");
    // And the property test notices too, on some generated input.
    let words: Vec<u32> = (0..64u32)
        .map(|i| i.wrapping_mul(2_654_435_761) >> 7)
        .collect();
    let caught = (0..N)
        .any(|home| (1..4).any(|inflight| scenario(home, 1, inflight, &words, true).is_err()));
    assert!(caught, "the property must fail without the comparison");
}
