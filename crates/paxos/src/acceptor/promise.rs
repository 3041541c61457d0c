//! Phase 1 at the cost of what the receiver lacks.
//!
//! A [`Phase1a`] names what the leader already holds of the record: the
//! newest instance it knows of and the digest of the cstruct it holds
//! there. A [`Promise`] — the [`Phase1b`] as it travels — leaves out
//! what the leader would only be told again ([`Phase1b::leave_out`]):
//! the accepted cstruct when it is exactly the named one, in the named
//! instance, and the committed value and folded transactions unless the
//! acceptor's instance is newer than the named one. Its version always
//! travels: the leader judges only the promises of the newest instance.
//! The leader puts back what was left out before it judges anything
//! ([`Promise::restore`]), so ProvedSafe sees the promises it always saw.
//!
//! The recovery round that follows names its proved-safe base by digest
//! ([`Base::NamedSafe`]) to each promiser that reported exactly that
//! cstruct; the others get it whole. Such an acceptor holds it as its
//! current cstruct or — when an outcome or another round changed that
//! since — as the copy its promise reported, which the hosting node
//! keeps while the promise is open ([`AcceptorRecord::resolve_base`]).
//! The node resolves the name before it logs the round, so what is
//! logged, replayed and adopted is the round as the leader led it.
//!
//! Every digest here is [`CStruct::digest`], the chain over the entries
//! in recorded order, not the trace digest: what is put back is then the
//! very cstruct that was left out, and an acceptor that resolves a name
//! ends exactly where the whole round would have left it. Two replicas
//! that hold one value in different orders simply ship it.

use mdcc_common::Version;

use super::{AcceptorRecord, Base, ClassicAccept, Phase1b, Phase2a, RecordSnapshot};
use crate::ballot::Ballot;
use crate::cstruct::CStruct;

/// Phase1a payload (leader → acceptors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase1a {
    /// The classic ballot to promise.
    pub ballot: Ballot,
    /// The newest instance the leader knows of.
    pub version: Version,
    /// [`CStruct::digest`] of the cstruct the leader holds in `version`.
    pub digest: u64,
}

/// What a [`Promise`] says of the cstruct the acceptor accepted.
#[derive(Debug, Clone)]
pub enum Reported {
    /// The cstruct itself.
    Whole(CStruct),
    /// Exactly the cstruct the Phase1a named, in the named instance: its
    /// digest, echoed.
    Named(u64),
}

/// What a [`Promise`] says of the acceptor's committed state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Committed {
    /// Its version alone: the Phase1a named an instance at least as new.
    Version(Version),
    /// The whole snapshot, newer than the instance the Phase1a named.
    Snapshot(RecordSnapshot),
}

/// A Phase1b as it travels (acceptor → leader).
#[derive(Debug, Clone)]
pub struct Promise {
    /// The acceptor's promise after the Phase1a.
    pub promised: Ballot,
    /// Ballot and cstruct last accepted in the acceptor's instance.
    pub accepted: Option<(Ballot, Reported)>,
    /// The acceptor's committed state.
    pub committed: Committed,
}

impl Phase1b {
    /// This promise as sent to the leader whose Phase1a is `named`: the
    /// accepted cstruct left out when it is non-empty and exactly the one
    /// named, in the named instance, and the committed value and folded
    /// transactions unless the instance is newer than the named one.
    pub fn leave_out(self, named: &Phase1a) -> Promise {
        let version = self.snapshot.version;
        let known =
            |c: &CStruct| version == named.version && !c.is_empty() && c.digest() == named.digest;
        let accepted = self.accepted.map(|(b, c)| {
            let reported = if known(&c) {
                Reported::Named(named.digest)
            } else {
                Reported::Whole(c)
            };
            (b, reported)
        });
        let committed = if version > named.version {
            Committed::Snapshot(self.snapshot)
        } else {
            Committed::Version(version)
        };
        Promise {
            promised: self.promised,
            accepted,
            committed,
        }
    }
}

/// The promise with nothing left out.
impl From<Phase1b> for Promise {
    fn from(p: Phase1b) -> Self {
        Promise {
            promised: p.promised,
            accepted: p.accepted.map(|(b, c)| (b, Reported::Whole(c))),
            committed: Committed::Snapshot(p.snapshot),
        }
    }
}

impl Promise {
    /// The [`Phase1b`] this promise stands for, with what it left out put
    /// back from `named`: the instance the leader's Phase1a named and the
    /// cstruct it holds there. Committed state left out comes back as its
    /// version with no value — a leader adopts only a snapshot newer than
    /// its own, and those travel whole.
    ///
    /// `None` when the promise leaves out what `named` does not hold: a
    /// cstruct of another digest or instance, or committed state newer
    /// than the named instance. Such a promise is no use to the leader.
    pub fn restore(self, named: Option<(Version, &CStruct)>) -> Option<Phase1b> {
        let snapshot = match self.committed {
            Committed::Snapshot(snapshot) => snapshot,
            Committed::Version(version) => {
                named.filter(|(v, _)| version <= *v)?;
                RecordSnapshot {
                    version,
                    ..RecordSnapshot::absent()
                }
            }
        };
        let accepted = match self.accepted {
            None => None,
            Some((b, Reported::Whole(c))) => Some((b, c)),
            Some((b, Reported::Named(digest))) => {
                let in_named =
                    |(v, c): &(Version, &CStruct)| *v == snapshot.version && c.digest() == digest;
                let (_, c) = named.filter(in_named)?;
                Some((b, c.clone()))
            }
        };
        Some(Phase1b {
            promised: self.promised,
            accepted,
            snapshot,
        })
    }
}

impl AcceptorRecord {
    /// Puts back the proved-safe cstruct a recovery round names by digest
    /// ([`Base::NamedSafe`]): this acceptor's current cstruct or
    /// `reported`, the copy its promise reported, whichever has that
    /// digest. Any other base is left alone.
    ///
    /// When neither has it, `p` is left as it was and the error is the
    /// answer, given with nothing mutated: the Nack or the `Stale` the
    /// whole round would get — below the promise, or in an instance this
    /// acceptor has left, the base does not matter — and otherwise
    /// `Behind`, which asks the leader for the round whole.
    pub fn resolve_base(
        &self,
        p: &mut Phase2a,
        reported: Option<&CStruct>,
    ) -> Result<(), ClassicAccept> {
        let Base::NamedSafe(digest) = p.base else {
            return Ok(());
        };
        let mut held = [Some(&self.state.cstruct), reported].into_iter().flatten();
        if let Some(safe) = held.find(|c| c.digest() == digest) {
            p.base = Base::ProvedSafe(safe.clone());
            return Ok(());
        }
        let s = &self.state;
        Err(if p.ballot < s.promised {
            ClassicAccept::Nack {
                promised: s.promised,
            }
        } else if p.version < s.version {
            ClassicAccept::Stale {
                snapshot: self.snapshot(),
            }
        } else {
            ClassicAccept::Behind
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{OptionStatus, TxnOption, TxnOutcome};
    use mdcc_common::wire::to_bytes;
    use mdcc_common::{CommutativeUpdate, Key, NodeId, Row, TableId, TxnId, UpdateOp};
    use std::sync::Arc;

    fn dec(seq: u64) -> TxnOption {
        TxnOption::solo(
            TxnId::new(NodeId(9), seq),
            Key::new(TableId(0), "r"),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
        )
    }

    fn acceptor() -> AcceptorRecord {
        let constraints = Arc::from(Vec::new());
        AcceptorRecord::with_value(constraints, 5, 4, 32, Row::new().with("stock", 10))
    }

    /// A recovery round at `b` over `base`.
    fn round(b: Ballot, base: Base) -> Phase2a {
        Phase2a {
            ballot: b,
            version: Version(1),
            snapshot: None,
            base,
            new_options: Vec::new(),
            close_instance: true,
            reopen_fast: None,
        }
    }

    #[test]
    fn a_named_base_is_put_back_from_the_cstruct_or_the_copy_and_else_asked_for() {
        let mut a = acceptor();
        for seq in [1, 2] {
            let _ = a.fast_propose(dec(seq));
        }
        let b = Ballot::classic(3, NodeId(1));
        let promise = a.phase1a(b);
        let copy = promise.accepted.expect("accepted at the fast ballot").1;
        let named = Base::NamedSafe(copy.digest());
        let mut p = round(b, named.clone());
        assert!(a.resolve_base(&mut p, None).is_ok(), "its own cstruct");
        assert!(matches!(&p.base, Base::ProvedSafe(c) if to_bytes(c) == to_bytes(&copy)));
        // An outcome takes an entry out before the round arrives: the
        // copy the promise reported still has it.
        a.apply_visibility(dec(1).txn, TxnOutcome::Aborted, false);
        assert_ne!(a.cstruct().digest(), copy.digest());
        let mut p = round(b, named.clone());
        let asks = a.resolve_base(&mut p, None);
        assert!(matches!(asks, Err(ClassicAccept::Behind)));
        assert!(matches!(p.base, Base::NamedSafe(_)), "left as it was");
        let before = to_bytes(&a.export_state());
        assert!(matches!(a.classic_accept(p.clone()), ClassicAccept::Behind));
        assert_eq!(
            to_bytes(&a.export_state()),
            before,
            "asked, nothing mutated"
        );
        assert!(a.resolve_base(&mut p, Some(&copy)).is_ok());
        let mut whole = a.clone();
        let named_vote = a.classic_accept(p);
        let whole_vote = whole.classic_accept(round(b, Base::ProvedSafe(copy)));
        assert_eq!(format!("{named_vote:?}"), format!("{whole_vote:?}"));
        assert_eq!(to_bytes(&a.export_state()), to_bytes(&whole.export_state()));
        // Any other base is left alone.
        let mut held = round(b, Base::Held);
        assert!(a.resolve_base(&mut held, None).is_ok());
        assert!(matches!(held.base, Base::Held));
        // A name neither holds is no use.
        let mut other = CStruct::new();
        other.append(dec(7), OptionStatus::Accepted);
        let mut p = round(b, Base::NamedSafe(other.digest()));
        let current = a.cstruct().clone();
        assert!(matches!(
            a.resolve_base(&mut p, Some(&current)),
            Err(ClassicAccept::Behind)
        ));
        // Below the promise, or in an instance it has left, it gets the
        // answer the whole round would get.
        let _ = a.phase1a(b.next_classic(NodeId(2)));
        let refused = a.resolve_base(&mut p.clone(), None);
        assert!(matches!(refused, Err(ClassicAccept::Nack { .. })));
        let old = Phase2a {
            ballot: b.next_classic(NodeId(2)),
            version: Version(0),
            ..p
        };
        assert!(matches!(
            a.resolve_base(&mut old.clone(), None),
            Err(ClassicAccept::Stale { .. })
        ));
    }

    #[test]
    fn a_promise_leaves_out_only_what_the_phase1a_named_in_its_instance() {
        let mut a = acceptor();
        let _ = a.fast_propose(dec(1));
        let b = Ballot::classic(3, NodeId(1));
        let p1b = a.phase1a(b);
        let held = a.cstruct().clone();
        let named = |version, digest| Phase1a {
            ballot: b,
            version,
            digest,
        };
        let lean = p1b.clone().leave_out(&named(Version(1), held.digest()));
        assert!(matches!(lean.accepted, Some((_, Reported::Named(_)))));
        assert_eq!(lean.committed, Committed::Version(Version(1)));
        let back = lean.restore(Some((Version(1), &held))).expect("named");
        assert_eq!(back.snapshot.version, Version(1));
        assert_eq!(
            back.accepted.map(|(b, c)| (b, to_bytes(&c))),
            p1b.accepted.clone().map(|(b, c)| (b, to_bytes(&c)))
        );
        // Another instance, another digest: the cstruct travels whole.
        for other in [named(Version(2), held.digest()), named(Version(1), 7)] {
            let lean = p1b.clone().leave_out(&other);
            assert!(matches!(lean.accepted, Some((_, Reported::Whole(_)))));
        }
        // A leader that knows only an older instance gets the snapshot.
        let lean = p1b.clone().leave_out(&named(Version(0), held.digest()));
        assert_eq!(lean.committed, Committed::Snapshot(p1b.snapshot.clone()));
        // What was left out comes back only from what was named.
        let lean = p1b.leave_out(&named(Version(1), held.digest()));
        assert!(lean.clone().restore(None).is_none());
        assert!(lean.restore(Some((Version(2), &held))).is_none());
    }
}
