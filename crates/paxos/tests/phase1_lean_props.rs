//! Phase 1 at the cost of what the receiver lacks, without the
//! simulator: five acceptors with generated histories — fast proposals
//! in any order, outcomes, appends at lease-assumed ballots and recovery
//! rounds at ballots Phase 1 established — then one more Phase 1 whose
//! Phase1a names what its leader's replica holds.
//!
//! A promise leaves out what the Phase1a named ([`Phase1b::leave_out`])
//! and the leader puts it back ([`Promise::restore`]); the recovery round
//! names its base by digest to each promiser that reported exactly it,
//! and such an acceptor puts it back from its own cstruct or from the
//! copy its promise reported ([`AcceptorRecord::resolve_base`]). The
//! properties say that none of this changes anything but bytes:
//!
//! (a) every promise, left out and put back against any Phase1a — the
//!     one its leader sent, or one naming another acceptor's cstruct in
//!     its own instance or the next one over — is the promise it stands
//!     for: the same accepted cstruct, and the same snapshot wherever
//!     the leader could adopt it. `judged_safe` over the promises put
//!     back equals `judged_safe` over the whole ones, and a leader fed
//!     the lean promises acts exactly as one fed the whole ones;
//! (b) an acceptor sent the recovery round's base by digest ends with the
//!     same answer, `export_state` and vote as its twin sent the whole
//!     round — also when an outcome or another round changed its cstruct
//!     between its promise and the round — and never fails to put a
//!     named base back.
//!
//! Two mutations are modelled here, as the base check's reversal is in
//! `lease_handoff_props.rs`, and both are caught: eliding on the digest
//! without the version check, which (a) notices, and resolving against
//! the current cstruct only, which (b) notices.

use std::sync::Arc;

use mdcc_common::wire::to_bytes;
use mdcc_common::{CommutativeUpdate, Key, NodeId, PhysicalUpdate, Row, TableId, TxnId};
use mdcc_common::{UpdateOp, Version};
use mdcc_paxos::acceptor::{AcceptorRecord, Base, Phase1a, Phase1b, Phase2a, Promise, Reported};
use mdcc_paxos::leader::{LeaderAction, LeaderConfig};
use mdcc_paxos::safe::judged_safe;
use mdcc_paxos::{
    AttrConstraint, Ballot, CStruct, LeaderRecord, LearnOutcome, Learner, TxnOption, TxnOutcome,
};
use proptest::prelude::*;

const N: usize = 5;
const QC: usize = 3;
const QF: usize = 4;

/// Stock every acceptor starts from; [`BIG`] fits the escrow alone and
/// not next to another one.
const STOCK: i64 = 1_000;
const BIG: i64 = 450;

fn key() -> Key {
    Key::new(TableId(0), "r")
}

/// Option `seq`: a write that read the first instance, which tolerates
/// no other pending option and closes the instance when it commits, or
/// a decrement — one that every acceptor grants, or a [`BIG`] one whose
/// decision depends on what else the acceptor holds.
fn opt(seq: u64) -> TxnOption {
    let op = match seq % 4 {
        0 => UpdateOp::Physical(PhysicalUpdate::write(
            Version(1),
            Row::new().with("stock", STOCK),
        )),
        2 => UpdateOp::Commutative(CommutativeUpdate::delta("stock", -BIG)),
        n => UpdateOp::Commutative(CommutativeUpdate::delta("stock", -(n as i64))),
    };
    TxnOption::solo(TxnId::new(NodeId(7), seq), key(), op)
}

fn leader(node: usize, acc: &AcceptorRecord) -> LeaderRecord {
    let cfg = LeaderConfig {
        n: N,
        qc: QC,
        qf: QF,
        gamma: 1_000,
        allow_fast: false,
        max_instance_options: 32,
        name_base: true,
    };
    LeaderRecord::new(cfg, NodeId(node as u32), acc.snapshot())
}

/// A random source the properties draw from: a tape of generated words.
struct Tape<'a> {
    words: &'a [u32],
    at: usize,
}

impl Tape<'_> {
    fn next(&mut self, below: usize) -> usize {
        let word = self.words.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        word as usize % below.max(1)
    }

    fn mask(&mut self) -> usize {
        self.next(1 << N)
    }
}

/// The modelled mutations.
#[derive(Clone, Copy, Default)]
struct Mutants {
    /// Promises leave out a cstruct on its digest alone, in any instance.
    elide_any_instance: bool,
    /// A named base is resolved against the acceptor's current cstruct
    /// only, not the copy its promise reported.
    current_only: bool,
}

/// What one scenario exercised.
#[derive(Default, Debug, Clone, Copy)]
struct Seen {
    /// Promises that left their cstruct out.
    elided: usize,
    /// Named bases put back from the promise's copy: the acceptor's
    /// cstruct had changed since.
    from_copy: usize,
    /// Named bases put back from the acceptor's current cstruct.
    from_current: usize,
}

/// Everything an acceptor is, as bytes.
fn state_of(acc: &AcceptorRecord) -> Vec<u8> {
    to_bytes(&acc.export_state())
}

/// A promise as the acceptor sends it to the leader whose Phase1a is
/// `named`, unless a mutant says otherwise.
fn lean(p1b: &Phase1b, named: &Phase1a, mutants: Mutants) -> Promise {
    let mut lean = p1b.clone().leave_out(named);
    if mutants.elide_any_instance {
        let own = Phase1a {
            version: p1b.snapshot.version,
            ..*named
        };
        lean.accepted = p1b.clone().leave_out(&own).accepted;
    }
    lean
}

/// Property (a) for one promise and one Phase1a naming `held` in
/// `version`: put back, it is the promise it stands for.
fn restores(p1b: &Phase1b, version: Version, held: &CStruct, m: Mutants) -> Result<(), String> {
    let named = Phase1a {
        ballot: p1b.promised,
        version,
        digest: held.digest(),
    };
    let back = lean(p1b, &named, m).restore(Some((version, held)));
    let Some(back) = back else {
        return Err(format!(
            "a promise at {:?} did not restore against {version:?}",
            p1b.snapshot.version
        ));
    };
    let accepted = |p: &Phase1b| p.accepted.as_ref().map(|(b, c)| (*b, to_bytes(c)));
    let newer = p1b.snapshot.version > version;
    let same_snapshot =
        back.snapshot.version == p1b.snapshot.version && (!newer || back.snapshot == p1b.snapshot);
    if back.promised != p1b.promised || accepted(&back) != accepted(p1b) || !same_snapshot {
        return Err(format!("restored {back:?}, sent {p1b:?}"));
    }
    Ok(())
}

/// One of the options the history proposes: fast (odd, small
/// decrements) or appended at a lease ballot (from 100 on, every kind).
fn learnable(seq: u64, tape: &mut Tape) -> u64 {
    [2 * seq + 1, 100 + seq][tape.next(2)]
}

/// Five acceptors and the tape's history for them.
struct World {
    acc: Vec<AcceptorRecord>,
    tenure: u32,
}

impl World {
    fn new() -> Self {
        let constraints: Arc<[AttrConstraint]> =
            Arc::from(vec![AttrConstraint::at_least("stock", 0)]);
        let row = Row::new().with("stock", STOCK);
        let acc = (0..N)
            .map(|_| AcceptorRecord::with_value(Arc::clone(&constraints), N, QF, 32, row.clone()))
            .collect();
        World { acc, tenure: 0 }
    }

    fn deliver(&mut self, mask: usize, p: &Phase2a) {
        for i in (0..N).filter(|i| mask >> i & 1 == 1) {
            let _ = self.acc[i].classic_accept(p.clone());
        }
    }

    /// An append at the next lease ballot, assumed by `node` from its
    /// replica's cstruct, reaching the acceptors of `mask`.
    fn lease_append(&mut self, node: usize, seq: u64, mask: usize) {
        self.tenure += 1;
        let lease = Ballot::lease(self.tenure, NodeId(node as u32));
        let mut l = leader(node, &self.acc[node]);
        l.observe_ballot(self.acc[node].promised());
        if !l.assume_leadership(lease, self.acc[node].cstruct().trace_digest()) {
            return;
        }
        for action in l.enqueue(opt(seq)) {
            if let LeaderAction::Phase2a(p) = action {
                self.deliver(mask, &p);
            }
        }
    }

    /// A Phase 1 of `node`'s leader over every acceptor (whole promises),
    /// its recovery round reaching the acceptors of `mask`.
    fn established(&mut self, node: usize, mask: usize) {
        let mut l = leader(node, &self.acc[node]);
        for acc in &self.acc {
            l.observe_ballot(acc.promised());
        }
        let Some(LeaderAction::Phase1a(ballot)) = l.start_recovery().pop() else {
            return;
        };
        for i in 0..N {
            let p1b = self.acc[i].phase1a(ballot);
            for action in l.on_phase1b(i, p1b.into()) {
                if let LeaderAction::Phase2a(p) = action {
                    self.deliver(mask, &p);
                }
            }
        }
    }

    /// One step of generated history.
    fn step(&mut self, tape: &mut Tape) {
        let seq = 1 + tape.next(8) as u64;
        match tape.next(6) {
            0 | 1 => {
                // Decrements every acceptor grants: fast ballots deliver
                // them in any order, never into a collision (an acceptor
                // set that disagrees on a decision is recovery's own
                // business, not what naming changes).
                let mask = tape.mask();
                let seq = 2 * seq + 1;
                for i in (0..N).filter(|i| mask >> i & 1 == 1) {
                    let _ = self.acc[i].fast_propose(opt(seq));
                }
            }
            2 => {
                let seq = learnable(seq, tape);
                let mask = tape.mask();
                for i in (0..N).filter(|i| mask >> i & 1 == 1) {
                    self.learn(i, seq);
                }
            }
            3 | 4 => {
                let node = tape.next(N);
                let mask = tape.mask();
                self.lease_append(node, 100 + seq, mask);
            }
            _ => {
                let node = tape.next(N);
                let mask = tape.mask();
                self.established(node, mask);
            }
        }
    }

    /// Acceptor `i` hears the outcome of option `seq`, if a learner
    /// looking at the five acceptors' votes has learned one: a
    /// single-record transaction commits exactly when its option was
    /// learned accepted.
    fn learn(&mut self, i: usize, seq: u64) {
        let txn = opt(seq).txn;
        let mut learner = Learner::new(N, QC, QF, txn);
        let mut outcome = LearnOutcome::Undecided;
        for (at, acc) in self.acc.iter().enumerate() {
            outcome = learner.on_vote(at, acc.phase2b());
        }
        if let LearnOutcome::Learned(status) = outcome {
            let accepted = status.is_accepted();
            let outcome = [TxnOutcome::Aborted, TxnOutcome::Committed][usize::from(accepted)];
            self.acc[i].apply_visibility(txn, outcome, accepted);
        }
    }

    /// What may change an acceptor between its promise and the round: an
    /// outcome for one of the options, or an append at a later lease.
    fn perturb(&mut self, i: usize, tape: &mut Tape) {
        let seq = 1 + tape.next(8) as u64;
        match tape.next(3) {
            0 => self.learn(i, learnable(seq, tape)),
            1 => self.lease_append(i, 200 + seq, 1 << i),
            _ => {}
        }
    }
}

/// One scenario from generated inputs; `Err` names the property that
/// broke, `Ok` says what was exercised.
fn scenario(home: usize, words: &[u32], m: Mutants) -> Result<Seen, String> {
    let mut tape = Tape { words, at: 0 };
    let mut w = World::new();
    for _ in 0..tape.next(12) {
        w.step(&mut tape);
    }
    let mut seen = Seen::default();
    // The last Phase 1, led from `home`, twice over: one leader is sent
    // whole promises, the other lean ones.
    let mut whole = leader(home, &w.acc[home]);
    for acc in &w.acc {
        whole.observe_ballot(acc.promised());
    }
    let Some(LeaderAction::Phase1a(ballot)) = whole.start_recovery().pop() else {
        return Err("no Phase 1".into());
    };
    let mut thin = whole.clone();
    let local = Some((w.acc[home].version(), w.acc[home].cstruct().clone()));
    let named = thin.phase1a(ballot, local.clone());
    assert_eq!(whole.phase1a(ballot, local), named);
    let held: Vec<(Version, CStruct)> = (w.acc.iter())
        .map(|a| (a.version(), a.cstruct().clone()))
        .collect();
    let start = tape.next(N);
    let mut promises: Vec<(usize, Phase1b)> = Vec::new();
    let mut round = None;
    for i in (0..N).map(|k| (start + k) % N) {
        let p1b = w.acc[i].phase1a(ballot);
        for (v, c) in &held {
            for version in [*v, v.next(), Version(v.0.saturating_sub(1))] {
                restores(&p1b, version, c, m)?;
            }
        }
        let sent = lean(&p1b, &named, m);
        seen.elided += usize::from(matches!(sent.accepted, Some((_, Reported::Named(_)))));
        let (a, b) = (
            whole.on_phase1b(i, p1b.clone().into()),
            thin.on_phase1b(i, sent),
        );
        if format!("{a:?}") != format!("{b:?}") {
            return Err(format!("promise {i}: whole {a:?}, lean {b:?}"));
        }
        round = round.or(a.into_iter().find_map(|action| match action {
            LeaderAction::Phase2a(p) => Some(p),
            _ => None,
        }));
        promises.push((i, p1b));
    }
    if format!("{:?}", whole.on_behind(ballot)) != format!("{:?}", thin.on_behind(ballot)) {
        return Err("the leaders answer an ask differently".into());
    }
    // `judged_safe` over the promises put back and over the whole ones.
    let restored: Vec<(usize, Phase1b)> = (promises.iter())
        .filter_map(|(i, p)| {
            let back = lean(p, &named, m).restore(Some((named.version, &held[home].1)));
            Some((*i, back?))
        })
        .collect();
    let judged = |ps: &[(usize, Phase1b)]| {
        let newest = ps.iter().map(|(_, p)| p.snapshot.version).max();
        let relevant: Vec<(usize, &Phase1b)> = (ps.iter())
            .filter(|(_, p)| Some(p.snapshot.version) == newest)
            .map(|(i, p)| (*i, p))
            .collect();
        let elsewhere = ps.len() - relevant.len();
        judged_safe(&relevant, elsewhere, N, QC, QF).map(|c| to_bytes(&c))
    };
    if judged(&restored) != judged(&promises) {
        return Err("judged_safe differs over the promises put back".into());
    }
    let Some(round) = round else {
        return Ok(seen);
    };
    let Base::ProvedSafe(safe) = &round.base else {
        return Err(format!("the recovery round's base: {:?}", round.base));
    };
    // (b): each acceptor, perhaps changed since its promise, judges the
    // round as sent to it and as sent whole.
    for (i, p1b) in &promises {
        let i = *i;
        w.perturb(i, &mut tape);
        let copy = p1b.accepted.as_ref().map(|(_, c)| c.clone());
        let copy = copy.filter(|_| !m.current_only && p1b.promised == ballot);
        let mut sent = round.clone();
        if thin.names_base_to(i) == Some(safe.digest()) {
            sent.base = Base::NamedSafe(safe.digest());
        }
        let named_here = matches!(sent.base, Base::NamedSafe(_));
        let (mut full, mut twin) = (w.acc[i].clone(), w.acc[i].clone());
        let current = twin.cstruct().digest() == safe.digest();
        let behind = twin.lacks_snapshot(&sent);
        // The node's order: the ask for a snapshot, then the name.
        let resolved = match behind {
            true => Ok(()),
            false => twin.resolve_base(&mut sent, copy.as_ref()),
        };
        if named_here && resolved.is_err() {
            return Err(format!("acceptor {i} could not put its named base back"));
        }
        if named_here && !behind {
            seen.from_current += usize::from(current);
            seen.from_copy += usize::from(!current);
        }
        let given = resolved.err().unwrap_or_else(|| twin.classic_accept(sent));
        let answers = (full.classic_accept(round.clone()), given);
        let same_answer = format!("{:?}", answers.0) == format!("{:?}", answers.1);
        let same_vote = to_bytes(&full.phase2b()) == to_bytes(&twin.phase2b());
        if !same_answer || !same_vote || state_of(&full) != state_of(&twin) {
            return Err(format!(
                "acceptor {i} ends elsewhere with its base named: {answers:?}"
            ));
        }
        w.acc[i] = full;
    }
    Ok(seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Properties (a) and (b) over generated histories.
    #[test]
    fn phase_one_costs_only_bytes(
        home in 0usize..N,
        words in prop::collection::vec(any::<u32>(), 16..96),
    ) {
        let outcome = scenario(home, &words, Mutants::default());
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

/// Fixed tapes: what the properties exercise, and that each modelled
/// mutation breaks one of them on some of these tapes.
fn tapes() -> impl Iterator<Item = (usize, Vec<u32>)> {
    (0..400u32).map(|t| {
        let words = (0..80u32)
            .map(|i| (t * 80 + i).wrapping_mul(2_654_435_761).rotate_left(t % 29))
            .collect();
        (t as usize % N, words)
    })
}

#[test]
fn the_scenarios_leave_out_name_and_put_back_from_the_copy() {
    let mut total = Seen::default();
    for (home, words) in tapes() {
        let seen = scenario(home, &words, Mutants::default()).expect("the properties hold");
        total.elided += seen.elided;
        total.from_copy += seen.from_copy;
        total.from_current += seen.from_current;
    }
    assert!(total.elided > 0, "{total:?}");
    assert!(total.from_current > 0, "{total:?}");
    assert!(total.from_copy > 0, "{total:?}");
}

/// What `mutants` break on the fixed tapes.
fn caught(mutants: Mutants) -> Vec<String> {
    let broken = tapes().filter_map(|(home, words)| scenario(home, &words, mutants).err());
    broken.collect()
}

#[test]
fn eliding_on_the_digest_in_any_instance_is_caught() {
    let mutants = Mutants {
        elide_any_instance: true,
        ..Mutants::default()
    };
    let caught = caught(mutants);
    assert!(!caught.is_empty());
    assert!(
        caught.iter().all(|e| e.contains("did not restore")),
        "{caught:?}"
    );
}

#[test]
fn resolving_against_the_current_cstruct_only_is_caught() {
    let mutants = Mutants {
        current_only: true,
        ..Mutants::default()
    };
    let caught = caught(mutants);
    assert!(!caught.is_empty());
    let named = |e: &String| e.contains("could not put its named base back");
    assert!(caught.iter().all(named), "{caught:?}");
}
