//! Property tests for verdict votes, without the simulator: a learner fed
//! what acceptors answer coordinators — for each option, its status and
//! whether it is front-movable, read off the vote by the acceptor — and
//! the whole votes it pulls when it asks, against learners fed the whole
//! votes themselves and against the glb over those.
//!
//! 3 and 5 real [`AcceptorRecord`]s, commutative and physical options
//! from two or three coordinators, outcomes that close instances, a
//! classic re-accept at a higher ballot, deliveries lost, duplicated and
//! reordered.

use std::sync::Arc;

use mdcc_common::{
    CommutativeUpdate, Key, NodeId, PhysicalUpdate, Row, TableId, TxnId, UpdateOp, Version,
};
use mdcc_paxos::acceptor::{
    AcceptorRecord, Base, ClassicAccept, FastPropose, Phase1b, Phase2a, Phase2b, VoteVerdict,
};
use mdcc_paxos::quorum::{mask_indices, subsets};
use mdcc_paxos::safe::proved_safe;
use mdcc_paxos::{
    AttrConstraint, Ballot, CStruct, LearnOutcome, Learner, OptionStatus, TxnOption, TxnOutcome,
};
use proptest::prelude::*;

/// Transactions of a schedule; transaction `seq` belongs to coordinator
/// `seq % coordinators`.
const POOL: usize = 6;

fn key() -> Key {
    Key::new(TableId(0), "r")
}

fn coordinator(seq: usize, coordinators: usize) -> NodeId {
    NodeId(10 + (seq % coordinators) as u32)
}

fn txn(seq: usize, coordinators: usize) -> TxnId {
    TxnId::new(coordinator(seq, coordinators), seq as u64)
}

fn acceptor(n: usize, qf: usize) -> AcceptorRecord {
    let constraints: Arc<[AttrConstraint]> = Arc::from(vec![AttrConstraint::at_least("stock", 0)]);
    AcceptorRecord::with_value(constraints, n, qf, 64, Row::new().with("stock", 1_000))
}

/// One vote on its way to the coordinators it was fanned out to: whole,
/// as learner A is fed it, and as the verdicts learner B is fed.
#[derive(Debug, Clone)]
struct Sent {
    from: usize,
    vote: Phase2b,
    to: Vec<(NodeId, VoteVerdict)>,
}

/// One step of a schedule; masks name acceptors, bit per index.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Fast-propose transaction `seq` (physical when `physical`, reading
    /// the newest version when first proposed) at the acceptors of
    /// `reach`.
    Propose {
        seq: usize,
        physical: bool,
        reach: u8,
    },
    /// Tell the acceptors of `reach` how `seq` ended, if its coordinator
    /// knows: a physical option's outcome closes the instance.
    Resolve { seq: usize, reach: u8 },
    /// A master runs Phase 1 at the acceptors of `promise` that are in
    /// the newest instance and, given a classic quorum, has those of
    /// `accept` re-accept the proved-safe cstruct at its higher ballot.
    Classic { promise: u8, accept: u8 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // Three masks in four name every acceptor: quorums have to form for
    // anything to be learned, resolved and built upon.
    let mask = || (0u8..4, 1u8..32).prop_map(|(some, mask)| if some == 0 { mask } else { 31 });
    (0u8..16, 0..POOL, 0u8..3, mask(), mask()).prop_map(|(pick, seq, kind, reach, accept)| {
        match pick {
            0..=7 => Step::Propose {
                seq,
                physical: kind == 0,
                reach,
            },
            8..=13 => Step::Resolve { seq, reach },
            _ => Step::Classic {
                promise: reach | accept,
                accept,
            },
        }
    })
}

/// The learners of one transaction and what the harness knows of them.
struct Pair {
    txn: TxnId,
    /// Fed every whole vote its coordinator is sent or pulls.
    whole: Learner,
    /// Fed the verdicts of the same votes, and the whole votes it pulls.
    verdicts: Learner,
    /// Per acceptor, the whole vote `verdicts`'s held letter was read
    /// off: the learner's replacement rule, replayed on whole votes.
    held: Vec<Option<Phase2b>>,
    /// A pull was answered from a newer (instance, ballot) than the
    /// verdict that caused it: `whole` may have learned from the votes
    /// that verdict stood for, which `verdicts` never saw whole.
    excused: bool,
}

impl Pair {
    fn hold(&mut self, from: usize, vote: &Phase2b) {
        let newer = |old: &Phase2b| (old.version, old.ballot) > (vote.version, vote.ballot);
        if !self.held[from].as_ref().is_some_and(newer) {
            self.held[from] = Some(vote.clone());
        }
    }

    /// What whole-vote learning says of the held votes: a fresh learner
    /// fed them all.
    fn fresh(&self, n: usize, qc: usize, qf: usize) -> LearnOutcome {
        let mut learner = Learner::new(n, qc, qf, self.txn);
        let mut outcome = LearnOutcome::Undecided;
        for (from, vote) in self.held.iter().enumerate() {
            if let Some(vote) = vote {
                outcome = learner.on_vote(from, vote.clone());
            }
        }
        outcome
    }

    /// The definition: the status of the option in the glb of some
    /// quorum of held votes of one instance and ballot.
    fn glb_says(&self, qc: usize, qf: usize) -> Vec<OptionStatus> {
        let held: Vec<&Phase2b> = self.held.iter().flatten().collect();
        let mut found = Vec::new();
        for at in &held {
            let group: Vec<&CStruct> = held
                .iter()
                .filter(|v| (v.version, v.ballot) == (at.version, at.ballot))
                .map(|v| &v.cstruct)
                .collect();
            let q = if at.ballot.is_fast() { qf } else { qc };
            for mask in subsets(group.len(), q) {
                let chosen: Vec<&CStruct> = mask_indices(mask).map(|i| group[i]).collect();
                found.extend(CStruct::glb_many(&chosen).status_of(self.txn));
            }
        }
        found
    }
}

struct Harness {
    n: usize,
    qc: usize,
    qf: usize,
    coordinators: usize,
    acceptors: Vec<AcceptorRecord>,
    options: Vec<Option<TxnOption>>,
    pairs: Vec<Pair>,
    in_flight: Vec<Sent>,
    round: u32,
    /// Test the test: never answer a pull.
    answer_pulls: bool,
    /// Pulls answered so far.
    answered: usize,
}

impl Harness {
    fn new(n: usize, coordinators: usize) -> Self {
        let (qc, qf) = if n == 3 { (2, 3) } else { (3, 4) };
        let pairs = (0..POOL)
            .map(|seq| Pair {
                txn: txn(seq, coordinators),
                whole: Learner::new(n, qc, qf, txn(seq, coordinators)),
                verdicts: Learner::new(n, qc, qf, txn(seq, coordinators)),
                held: vec![None; n],
                excused: false,
            })
            .collect();
        Harness {
            n,
            qc,
            qf,
            coordinators,
            acceptors: (0..n).map(|_| acceptor(n, qf)).collect(),
            options: vec![None; POOL],
            pairs,
            in_flight: Vec::new(),
            round: 1,
            answer_pulls: true,
            answered: 0,
        }
    }

    fn newest(&self) -> Version {
        let versions = self.acceptors.iter().map(AcceptorRecord::version);
        versions.max().expect("acceptors")
    }

    /// The fan-out of `vote`, just cast by acceptor `from`: to the
    /// coordinators of its open options and to `also`, the proposer.
    fn send(&mut self, from: usize, vote: Phase2b, also: &[NodeId]) {
        let acceptor = &self.acceptors[from];
        let mut to = acceptor.verdicts(&vote);
        // A verdict is the vote, read for its destination: every option
        // without an outcome here has the letter the cstruct shows.
        for pair in &self.pairs {
            if acceptor.outcome_of(pair.txn).is_none() {
                let verdict = to.iter().find(|(c, _)| *c == pair.txn.coordinator);
                prop_assert_eq!(
                    verdict.and_then(|(_, v)| v.letter(pair.txn)),
                    vote.cstruct.front_movable(pair.txn),
                    "{} in {}",
                    pair.txn,
                    &vote.cstruct
                );
            }
        }
        for &extra in also {
            if to.iter().all(|(c, _)| *c != extra) {
                let (ballot, version, letters) = (vote.ballot, vote.version, Vec::new());
                let nothing_open = VoteVerdict {
                    ballot,
                    version,
                    letters,
                };
                to.push((extra, nothing_open));
            }
        }
        self.in_flight.push(Sent { from, vote, to });
    }

    fn apply(&mut self, step: Step) {
        match step {
            Step::Propose {
                seq,
                physical,
                reach,
            } => {
                let (newest, coordinators) = (self.newest(), self.coordinators);
                let opt = self.options[seq].get_or_insert_with(|| {
                    let op = if physical {
                        let row = Row::new().with("stock", 500 + seq as i64);
                        UpdateOp::Physical(PhysicalUpdate::write(newest, row))
                    } else {
                        UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1))
                    };
                    TxnOption::solo(txn(seq, coordinators), key(), op)
                });
                let opt = opt.clone();
                for a in (0..self.n).filter(|a| reach & (1 << a) != 0) {
                    // NotFast / InstanceFull / AlreadyResolved: no vote.
                    if let FastPropose::Vote(vote) = self.acceptors[a].fast_propose(opt.clone()) {
                        self.send(a, vote, &[opt.txn.coordinator]);
                    }
                }
            }
            Step::Resolve { seq, reach } => {
                // The coordinator is the verdict-fed learner: only what
                // it learned becomes an outcome.
                let Some(status) = self.pairs[seq].verdicts.learned() else {
                    return;
                };
                let outcome = if status.is_accepted() {
                    TxnOutcome::Committed
                } else {
                    TxnOutcome::Aborted
                };
                let txn = self.pairs[seq].txn;
                for a in (0..self.n).filter(|a| reach & (1 << a) != 0) {
                    self.acceptors[a].apply_visibility(txn, outcome, status.is_accepted());
                }
            }
            Step::Classic { promise, accept } => {
                let newest = self.newest();
                let promising: Vec<usize> = (0..self.n)
                    .filter(|a| promise & (1 << a) != 0 && self.acceptors[*a].version() == newest)
                    .collect();
                if promising.len() < self.qc {
                    return;
                }
                self.round += 2;
                let ballot = Ballot::classic(self.round, NodeId(0));
                let promises: Vec<(usize, Phase1b)> = promising
                    .iter()
                    .map(|&a| (a, self.acceptors[a].phase1a(ballot)))
                    .collect();
                let responses: Vec<(usize, &Phase1b)> =
                    promises.iter().map(|(a, p)| (*a, p)).collect();
                let safe = proved_safe(&responses, self.n, self.qc, self.qf);
                for a in promising.into_iter().filter(|a| accept & (1 << a) != 0) {
                    let accepted = self.acceptors[a].classic_accept(Phase2a {
                        ballot,
                        version: newest,
                        snapshot: None,
                        base: Base::ProvedSafe(safe.clone()),
                        new_options: Vec::new(),
                        close_instance: true,
                        reopen_fast: Some(Ballot::fast(self.round + 1, NodeId(0))),
                    });
                    let ClassicAccept::Vote(vote) = accepted else {
                        panic!("a promiser refused the ballot it promised: {accepted:?}");
                    };
                    self.send(a, vote, &[]);
                }
            }
        }
    }

    /// Hands `sent` to the learners of the coordinators it went to,
    /// answers the pulls that causes, and compares.
    fn deliver(&mut self, sent: &Sent) {
        let (n, qc, qf) = (self.n, self.qc, self.qf);
        for pair in &mut self.pairs {
            let Some((_, verdict)) = sent.to.iter().find(|(c, _)| *c == pair.txn.coordinator)
            else {
                continue;
            };
            let learned_before = pair.verdicts.learned();
            pair.whole.on_vote(sent.from, sent.vote.clone());
            pair.hold(sent.from, &sent.vote);
            let mut outcome = pair.verdicts.on_verdict(sent.from, verdict);
            loop {
                let pulls = pair.verdicts.take_pulls();
                if pulls.is_empty() || !self.answer_pulls {
                    break;
                }
                prop_assert_eq!(outcome, LearnOutcome::Undecided, "pulls with a decision");
                self.answered += pulls.len();
                for member in pulls {
                    // The answer is the acceptor's vote *now*.
                    let answer = self.acceptors[member].vote();
                    let asked_at = pair.held[member].as_ref().map(|v| (v.version, v.ballot));
                    pair.excused |= asked_at != Some((answer.version, answer.ballot));
                    pair.whole.on_vote(member, answer.clone());
                    pair.hold(member, &answer);
                    outcome = pair.verdicts.on_vote(member, answer);
                }
            }
            if learned_before.is_some() {
                continue; // learning is stable from there on
            }
            // Exactly what whole votes teach, collisions included.
            prop_assert_eq!(
                outcome,
                pair.fresh(n, qc, qf),
                "{} after {:?}",
                pair.txn,
                sent
            );
            // Safety, from the definition.
            if let LearnOutcome::Learned(status) = outcome {
                let glb = pair.glb_says(qc, qf);
                prop_assert!(
                    glb.iter().any(|s| s.is_accepted() == status.is_accepted()),
                    "{} learned {:?}, the glbs say {:?}",
                    pair.txn,
                    status,
                    glb
                );
            }
            // Liveness: decided whenever the whole-vote learner is.
            prop_assert!(
                pair.excused || pair.whole.learned().is_none() || pair.verdicts.learned().is_some(),
                "{}: whole votes taught {:?}, verdicts and pulls nothing",
                pair.txn,
                pair.whole.learned()
            );
        }
    }

    fn run(&mut self, steps: &[Step], fates: &[u8]) {
        for (i, step) in steps.iter().enumerate() {
            let before = self.in_flight.len();
            self.apply(*step);
            let arrivals: Vec<Sent> = match fates[i % fates.len()] {
                // This step's votes are lost.
                0 => {
                    self.in_flight.truncate(before);
                    Vec::new()
                }
                // Held back: they arrive behind later votes.
                1 => Vec::new(),
                // Duplicated, overtaking whatever is held back.
                2 => {
                    let new = self.in_flight.split_off(before);
                    new.iter().chain(new.iter()).cloned().collect()
                }
                // Everything in flight arrives, newest first.
                3 => self.in_flight.drain(..).rev().collect(),
                // Everything in flight arrives in order.
                _ => std::mem::take(&mut self.in_flight),
            };
            for sent in &arrivals {
                self.deliver(sent);
            }
        }
        // Drain: what is still in flight is lost, and every acceptor's
        // vote of the moment reaches every coordinator.
        self.in_flight.clear();
        let everyone: Vec<NodeId> = (0..self.coordinators)
            .map(|c| coordinator(c, self.coordinators))
            .collect();
        for a in 0..self.n {
            self.send(a, self.acceptors[a].vote(), &everyone);
        }
        for sent in std::mem::take(&mut self.in_flight) {
            self.deliver(&sent);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Over random schedules the verdict-fed learner, with its pulls
    /// answered, is at every delivery where whole-vote learning over the
    /// same votes is — undecided, learned (same status, reason
    /// included) or collided; whatever it learns, the glb of a quorum of
    /// the votes its letters were read off holds with the same
    /// decision; and it has decided whenever the learner fed every
    /// whole vote has.
    #[test]
    fn verdicts_and_pulls_teach_what_whole_votes_teach(
        five in any::<bool>(),
        three_coordinators in any::<bool>(),
        steps in prop::collection::vec(step_strategy(), 1..40),
        fates in prop::collection::vec(0u8..8, 8..9),
    ) {
        let mut harness = Harness::new(if five { 5 } else { 3 }, 2 + usize::from(three_coordinators));
        harness.run(&steps, &fates);
    }
}

/// A physical write accepted behind committed deltas is not front-movable
/// (the deltas do not commute with it), so a quorum's verdicts cannot be
/// counted: the learner pulls each member's whole vote, once, and learns
/// from their glb.
fn barrier_schedule() -> (Vec<Step>, Vec<u8>) {
    let everywhere = 0b11111;
    let steps = vec![
        Step::Propose {
            seq: 0,
            physical: false,
            reach: everywhere,
        },
        Step::Resolve {
            seq: 0,
            reach: everywhere,
        },
        Step::Propose {
            seq: 1,
            physical: true,
            reach: everywhere,
        },
    ];
    (steps, vec![7])
}

#[test]
fn a_write_behind_committed_deltas_is_learned_through_one_pull_per_member() {
    for n in [3, 5] {
        let mut harness = Harness::new(n, 2);
        let (steps, fates) = barrier_schedule();
        harness.run(&steps, &fates);
        let pair = &harness.pairs[1];
        assert_eq!(pair.verdicts.learned(), Some(OptionStatus::Accepted));
        assert_eq!(pair.whole.learned(), Some(OptionStatus::Accepted));
        assert_eq!(
            harness.answered, harness.qf,
            "each member of the quorum, once"
        );
        for (a, acceptor) in harness.acceptors.iter().enumerate() {
            let vote = acceptor.vote();
            assert_eq!(
                vote.cstruct.front_movable(pair.txn),
                Some((OptionStatus::Accepted, false)),
                "acceptor {a}"
            );
        }
    }
}

/// The test tests something: with pulls left unanswered the same
/// schedule leaves the verdict-fed learner behind the whole-vote one.
#[test]
#[should_panic(expected = "Learned(Accepted)")]
fn without_the_pull_the_barrier_schedule_fails_the_property() {
    let mut harness = Harness::new(5, 2);
    harness.answer_pulls = false;
    let (steps, fates) = barrier_schedule();
    harness.run(&steps, &fates);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// [`CStruct::letters`] is [`CStruct::front_movable`] of every entry,
    /// over accepted and rejected deltas, writes and read guards.
    #[test]
    fn one_pass_letters_equal_front_movable(
        entries in prop::collection::vec((0u8..3, any::<bool>()), 0..12),
    ) {
        let mut cstruct = CStruct::new();
        for (seq, (kind, accepted)) in entries.into_iter().enumerate() {
            let op = match kind {
                0 => UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
                1 => UpdateOp::Physical(PhysicalUpdate::write(Version(1), Row::new())),
                _ => UpdateOp::ReadGuard(Version(1)),
            };
            let status = if accepted {
                OptionStatus::Accepted
            } else {
                OptionStatus::Rejected(mdcc_common::error::AbortReason::StaleRead)
            };
            cstruct.append(TxnOption::solo(txn(seq, 1), key(), op), status);
        }
        let mut seen = 0;
        for (entry, movable) in cstruct.letters() {
            prop_assert_eq!(
                Some((entry.status, movable)),
                cstruct.front_movable(entry.opt.txn),
                "{} in {}", entry.opt.txn, &cstruct
            );
            seen += 1;
        }
        prop_assert_eq!(seen, cstruct.len());
    }
}
