//! The coordinator's half of the commit protocol, once (§3.2.1, §3.2.3).
//!
//! "Any node can finish a dangling transaction by doing what its
//! coordinator would have done": learn every option of the transaction
//! from its acceptors' votes, apply the deterministic rule *commit iff
//! every option was learned accepted*, tell every replica. The
//! transaction manager ([`crate::tm`]) does it for the transactions it
//! started, a storage node ([`crate::node`]) for the ones it finds
//! dangling; both drive one [`Coordination`] so there is one copy of the
//! rule for them to agree on.
//!
//! The machine is sans-IO: it takes votes and decisions, and answers
//! with what its owner has to do ([`Progress`], [`Verdict`], the
//! Visibility messages, one per storage node, each naming its records by
//! write-set position where the node holds the write-set). Its owner
//! keeps what is its own — sends, timers, retries, routing caches,
//! statistics — and the order of the keys it was built with is the order
//! everything is emitted in.

use mdcc_common::error::AbortReason;
use mdcc_common::{DcId, Key, NodeId, ProtocolConfig, TxnId};
use mdcc_paxos::acceptor::{Phase2b, VoteVerdict};
use mdcc_paxos::{LearnOutcome, Learner, OptionStatus, TxnOutcome};

use crate::msg::{grouped, Msg, RecordName};
use crate::placement::Placement;

/// What one vote did to the transaction's knowledge of one option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// No quorum yet (or the key is not one of the transaction's).
    Undecided,
    /// The option's status is now known; `fast` when a fast quorum
    /// decided it.
    Learned {
        /// The learned status.
        status: OptionStatus,
        /// Learned from a fast quorum, no master involved.
        fast: bool,
    },
    /// No quorum can form any more. `ask_master` is true the first time
    /// this happens for the key: the owner sends one `StartRecovery`.
    Collision {
        /// First collision seen on this key.
        ask_master: bool,
    },
}

/// The outcome the commit rule gives once every option is decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Commit iff every option was learned accepted.
    pub outcome: TxnOutcome,
    /// For aborts: the first rejection, in key order.
    pub abort_reason: Option<AbortReason>,
}

#[derive(Debug)]
struct Slot {
    key: Key,
    /// Position of `key` in the transaction's write-set.
    at: Option<u32>,
    learner: Learner,
    decided: Option<OptionStatus>,
    recovery_asked: bool,
    /// The acceptors (bit = index in the key's replica group) that
    /// answered with the transaction's option as accepted: each keeps the
    /// transaction pending, write-set included, until it applies the
    /// outcome.
    accepted_by: u64,
}

impl Slot {
    /// Notes that acceptor `from` holds the option accepted.
    fn accepted_at(&mut self, from: usize, accepted: bool) {
        if accepted && from < 64 {
            self.accepted_by |= 1 << from;
        }
    }

    /// True when `node`, an acceptor of `group` (the key's replica
    /// group), answered with the option accepted.
    fn held_by(&self, group: &[NodeId], node: NodeId) -> bool {
        let from = group.iter().position(|n| *n == node);
        from.is_some_and(|from| from < 64 && self.accepted_by & (1 << from) != 0)
    }

    /// The status the Visibility tells this option's replicas: the
    /// learned one, or, for an option without a status (the outcome
    /// became known before it was learned), the outcome's.
    fn learned_accepted(&self, outcome: TxnOutcome) -> bool {
        match self.decided {
            Some(status) => status.is_accepted(),
            None => outcome == TxnOutcome::Committed,
        }
    }

    /// Records what the learner made of the answer it was just fed.
    fn progress(&mut self, outcome: LearnOutcome) -> Progress {
        match outcome {
            LearnOutcome::Learned(status) => {
                self.decided = Some(status);
                Progress::Learned {
                    status,
                    fast: self.learner.learned_fast(),
                }
            }
            LearnOutcome::Collision => Progress::Collision {
                ask_master: !std::mem::replace(&mut self.recovery_asked, true),
            },
            LearnOutcome::Undecided => Progress::Undecided,
        }
    }
}

/// One transaction being learned and decided.
#[derive(Debug)]
pub struct Coordination {
    txn: TxnId,
    replication: usize,
    slots: Vec<Slot>,
    /// Learn timeouts so far; the `attempt` of [`classic_target`].
    attempts: u32,
}

impl Coordination {
    /// Starts learning `txn`'s options on `keys`; their order is the
    /// order of [`Self::undecided`] and [`Self::visibility`]. A key named
    /// twice counts once: a transaction has one option per record.
    /// `write_set` is `txn`'s (its options' `peers`): a Visibility names
    /// a record by its first position there.
    pub fn new(
        cfg: &ProtocolConfig,
        txn: TxnId,
        keys: impl IntoIterator<Item = Key>,
        write_set: &[Key],
    ) -> Self {
        let (n, qc, qf) = (cfg.replication, cfg.classic_quorum, cfg.fast_quorum);
        let mut slots: Vec<Slot> = Vec::new();
        for key in keys {
            if slots.iter().all(|s| s.key != key) {
                let at = write_set.iter().position(|k| *k == key);
                slots.push(Slot {
                    key,
                    at: at.and_then(|at| u32::try_from(at).ok()),
                    learner: Learner::new(n, qc, qf, txn),
                    decided: None,
                    recovery_asked: false,
                    accepted_by: 0,
                });
            }
        }
        Self {
            txn,
            replication: cfg.replication,
            slots,
            attempts: 0,
        }
    }

    fn slot(&self, key: &Key) -> Option<&Slot> {
        self.slots.iter().find(|s| s.key == *key)
    }

    fn slot_mut(&mut self, key: &Key) -> Option<&mut Slot> {
        self.slots.iter_mut().find(|s| s.key == *key)
    }

    /// Feeds the whole vote of acceptor `from` (its index in the key's
    /// replica group) to the key's learner: a replica's answer to a
    /// status query, or the vote a coordinator pulled.
    pub fn on_vote(&mut self, key: &Key, from: usize, vote: &Phase2b) -> Progress {
        let txn = self.txn;
        let Some(slot) = self.slot_mut(key) else {
            return Progress::Undecided;
        };
        let status = vote.cstruct.status_of(txn);
        slot.accepted_at(from, status.is_some_and(|s| s.is_accepted()));
        let outcome = slot.learner.on_vote(from, vote.clone());
        slot.progress(outcome)
    }

    /// Feeds what the verdict of acceptor `from` says of this
    /// transaction's option on `key` to the key's learner.
    pub fn on_verdict(&mut self, key: &Key, from: usize, verdict: &VoteVerdict) -> Progress {
        let txn = self.txn;
        let Some(slot) = self.slot_mut(key) else {
            return Progress::Undecided;
        };
        let letter = verdict.letter(txn);
        slot.accepted_at(from, letter.is_some_and(|(s, _)| s.is_accepted()));
        let outcome = slot.learner.on_verdict(from, verdict);
        slot.progress(outcome)
    }

    /// The acceptors of `key` (indexes in its replica group) whose whole
    /// vote the owner should pull with a `CstructPull`: see
    /// [`Learner::take_pulls`]. Empty unless the last answer left the
    /// key undecided.
    pub fn take_pulls(&mut self, key: &Key) -> Vec<usize> {
        self.slot_mut(key)
            .map(|slot| slot.learner.take_pulls())
            .unwrap_or_default()
    }

    /// Records a status learned some other way (a replica answered with
    /// the recorded outcome; the owner gave the option up).
    pub fn decide(&mut self, key: &Key, status: OptionStatus) {
        if let Some(slot) = self.slot_mut(key) {
            slot.decided = Some(status);
        }
    }

    /// Counts one more learn timeout; returns how many there have been.
    pub fn next_attempt(&mut self) -> u32 {
        self.attempts += 1;
        self.attempts
    }

    /// True once `key`'s option has a status.
    pub fn is_decided(&self, key: &Key) -> bool {
        self.slot(key).is_some_and(|s| s.decided.is_some())
    }

    /// The keys still without a status.
    pub fn undecided(&self) -> impl Iterator<Item = &Key> {
        let open = self.slots.iter().filter(|s| s.decided.is_none());
        open.map(|s| &s.key)
    }

    /// Every acceptor answered for `key` and none of them holds the
    /// option at its current instance.
    pub fn nobody_holds(&self, key: &Key) -> bool {
        self.slot(key).is_some_and(|s| {
            s.learner.responses() == self.replication && !s.learner.seen_at_latest()
        })
    }

    /// The commit rule: once every option is decided, commit iff every
    /// one was learned accepted (§3.2.1 — the outcome is deterministic).
    pub fn verdict(&self) -> Option<Verdict> {
        if self.slots.iter().any(|s| s.decided.is_none()) {
            return None;
        }
        let abort_reason = self.slots.iter().find_map(|s| match s.decided {
            Some(OptionStatus::Rejected(reason)) => Some(reason),
            _ => None,
        });
        let outcome = match abort_reason {
            None => TxnOutcome::Committed,
            Some(_) => TxnOutcome::Aborted,
        };
        Some(Verdict {
            outcome,
            abort_reason,
        })
    }

    /// The Visibility fan-out of `outcome`: calls `emit(node, message)`
    /// once per storage node that replicates a record of the
    /// transaction, the message naming those records in key order; nodes
    /// come in the order the keys first name them. With `me` set (a
    /// storage node finishing someone else's transaction) that node's
    /// own copy comes last, for the owner to apply directly instead of
    /// sending. An option without a status (the outcome became known
    /// before it was learned) follows the outcome.
    ///
    /// A node some answer showed holding an option of the transaction
    /// accepted gets its records named by write-set position, any other
    /// by key (see [`Msg::Visibility`]).
    pub fn visibility(
        &self,
        outcome: TxnOutcome,
        placement: &dyn Placement,
        me: Option<NodeId>,
        mut emit: impl FnMut(NodeId, Msg),
    ) {
        let groups: Vec<Vec<NodeId>> = (self.slots.iter())
            .map(|s| placement.replicas(&s.key))
            .collect();
        let routed = (groups.iter().zip(&self.slots))
            .map(|(group, s)| (group.iter().copied(), (s, group.as_slice())));
        let mut by_node = grouped(routed);
        if let Some(at) = by_node.iter().position(|(n, _)| Some(*n) == me) {
            let own = by_node.remove(at);
            by_node.push(own);
        }
        for (node, slots) in by_node {
            let holds = (slots.iter()).any(|(s, group)| s.held_by(group, node));
            let records = slots
                .iter()
                .map(|(s, _)| {
                    let name = match s.at.filter(|_| holds) {
                        Some(at) => RecordName::At(at),
                        None => RecordName::Key(s.key.clone()),
                    };
                    (name, s.learned_accepted(outcome))
                })
                .collect();
            let txn = self.txn;
            emit(
                node,
                Msg::Visibility {
                    txn,
                    outcome,
                    records,
                },
            );
        }
    }
}

/// The route rule: the node that gets `key`'s classic work (a proposal,
/// a `StartRecovery`, a re-route) on `attempt`, 0 being the first try.
/// With dynamic mastership on, `leased` is the sender's belief — the
/// shard's lease holder, if known, and its own data center: attempt 0
/// goes to the holder, else the static master, and each retry to the
/// `attempt`-th replica after the sender's data center. A lease names one
/// master at a time, so a retry duels nobody, and the believed holder may
/// have crashed, so every retry tries the next replica. With it off
/// (§3.2.3), three attempts go to the static master before the next
/// replica is asked: rotating that eagerly there would make dueling
/// leaders under contention, each stuck coordinator naming its own.
pub fn classic_target(
    placement: &dyn Placement,
    key: &Key,
    attempt: u32,
    leased: Option<(Option<NodeId>, DcId)>,
) -> NodeId {
    let at = match leased {
        Some((holder, _)) if attempt == 0 => {
            return holder.unwrap_or_else(|| placement.master(key))
        }
        Some((_, from)) => from.0 as usize + attempt as usize,
        None => placement.master_dc(key).0 as usize + attempt as usize / 3,
    };
    let replicas = placement.replicas(key);
    replicas[at % replicas.len()]
}
