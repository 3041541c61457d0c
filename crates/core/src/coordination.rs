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
//! Visibility messages, one per storage node). Its owner keeps what is
//! its own — sends, timers, retries, routing caches, statistics — and the
//! order of the keys it was built with is the order everything is
//! emitted in.

use mdcc_common::error::AbortReason;
use mdcc_common::{Key, NodeId, ProtocolConfig, TxnId};
use mdcc_paxos::acceptor::{Phase2b, VoteVerdict};
use mdcc_paxos::{LearnOutcome, Learner, OptionStatus, TxnOutcome};

use crate::msg::{grouped, Msg};
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
    learner: Learner,
    decided: Option<OptionStatus>,
    recovery_asked: bool,
}

impl Slot {
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
    /// Learn timeouts so far; the `attempt` of [`recovery_target`].
    attempts: u32,
}

impl Coordination {
    /// Starts learning `txn`'s options on `keys`; their order is the
    /// order of [`Self::undecided`] and [`Self::visibility`]. A key named
    /// twice counts once: a transaction has one option per record.
    pub fn new(cfg: &ProtocolConfig, txn: TxnId, keys: impl IntoIterator<Item = Key>) -> Self {
        let (n, qc, qf) = (cfg.replication, cfg.classic_quorum, cfg.fast_quorum);
        let mut slots: Vec<Slot> = Vec::new();
        for key in keys {
            if slots.iter().all(|s| s.key != key) {
                slots.push(Slot {
                    key,
                    learner: Learner::new(n, qc, qf, txn),
                    decided: None,
                    recovery_asked: false,
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
        let Some(slot) = self.slot_mut(key) else {
            return Progress::Undecided;
        };
        let outcome = slot.learner.on_vote(from, vote.clone());
        slot.progress(outcome)
    }

    /// Feeds what the verdict of acceptor `from` says of this
    /// transaction's option on `key` to the key's learner.
    pub fn on_verdict(&mut self, key: &Key, from: usize, verdict: &VoteVerdict) -> Progress {
        let Some(slot) = self.slot_mut(key) else {
            return Progress::Undecided;
        };
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
    pub fn visibility(
        &self,
        outcome: TxnOutcome,
        placement: &dyn Placement,
        me: Option<NodeId>,
        mut emit: impl FnMut(NodeId, Msg),
    ) {
        let mut groups = grouped(self.slots.iter().map(|slot| {
            let learned_accepted = match slot.decided {
                Some(status) => status.is_accepted(),
                None => outcome == TxnOutcome::Committed,
            };
            let replicas = placement.replicas(&slot.key);
            (replicas, (slot.key.clone(), learned_accepted))
        }));
        if let Some(at) = groups.iter().position(|(n, _)| Some(*n) == me) {
            let own = groups.remove(at);
            groups.push(own);
        }
        for (node, records) in groups {
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

/// The node to ask for recovery of `key` on `attempt` (0 = the default
/// master). Master failover, §3.2.3: after *several* timeouts the next
/// replica is asked to take over the record's mastership — any storage
/// node can lead. Rotating too eagerly creates dueling leaders under
/// contention (each stuck coordinator nominating a different node), so
/// three attempts go to the same target before moving on.
pub fn recovery_target(placement: &dyn Placement, key: &Key, attempt: u32) -> NodeId {
    let replicas = placement.replicas(key);
    let start = placement.master_dc(key).0 as usize;
    replicas[(start + attempt as usize / 3) % replicas.len()]
}
