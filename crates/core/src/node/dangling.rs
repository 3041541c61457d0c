//! Dangling-transaction recovery (§3.2.3): "any node can finish a
//! dangling transaction by doing what its coordinator would have done".
//! A storage node that finds an option outstanding past
//! `DANGLING_TIMEOUT` quorum-reads every key of its write-set, asks a
//! master to recover what collided and retries on a timer, until the
//! commit rule gives a verdict or a replica or Visibility names the
//! outcome. The machine is sans-IO: each input answers with the
//! [`Action`]s its owner runs, in order.

use std::collections::HashMap;
use std::sync::Arc;

use mdcc_common::error::AbortReason;
use mdcc_common::{Key, NodeId, ProtocolConfig, TxnId};
use mdcc_paxos::acceptor::Phase2b;
use mdcc_paxos::{OptionStatus, TxnOutcome};

use crate::coordination::{recovery_target, Coordination, Progress};
use crate::msg::Msg;
use crate::placement::Placement;

/// Retry rounds of a recovery before an option that nobody has seen at
/// the current instance is declared dead and the transaction resolved as
/// aborted. Sound because recovery only starts `DANGLING_TIMEOUT`
/// (seconds) after acceptance while message delays are sub-second — the
/// same synchrony assumption the paper's timeout-based recovery makes
/// (§3.2.3).
pub const RECOVERY_ABANDON_RETRIES: u32 = 3;

/// What the owner of a [`Dangling`] does, in order.
#[derive(Debug)]
pub enum Action {
    /// Send `Msg::QueryStatus` or `Msg::StartRecovery`.
    Send(NodeId, Msg),
    /// Arm `Tick::RecoveryRetry` for the transaction.
    ArmRetry(TxnId),
    /// Resolved with this outcome: tell every replica.
    Resolved(Coordination, TxnOutcome),
}

/// The dangling transactions one storage node is recovering.
pub struct Dangling {
    placement: Arc<dyn Placement>,
    /// Coordinations taken over, keys in the option's `peers` order.
    open: HashMap<TxnId, Coordination>,
}

impl Dangling {
    /// Recovers nothing yet.
    pub fn new(placement: Arc<dyn Placement>) -> Self {
        let open = HashMap::new();
        Self { placement, open }
    }

    /// Takes over `txn`, whose write-set is `keys`: asks every replica of
    /// every key, then arms the retry. Nothing if it is already open.
    pub fn start(&mut self, cfg: &ProtocolConfig, txn: TxnId, keys: &[Key]) -> Vec<Action> {
        if self.open.contains_key(&txn) {
            return Vec::new();
        }
        let coord = Coordination::new(cfg, txn, keys.iter().cloned(), keys);
        let mut out = Vec::new();
        for key in coord.undecided() {
            query(&*self.placement, txn, key, &mut out);
        }
        self.open.insert(txn, coord);
        out.push(Action::ArmRetry(txn));
        out
    }

    /// Replica `from` answered for `txn` on `key`: with an outcome, that
    /// resolves the transaction; else its vote feeds the key's learner.
    pub fn on_status(
        &mut self,
        from: NodeId,
        txn: TxnId,
        key: Key,
        vote: &Phase2b,
        outcome: Option<TxnOutcome>,
    ) -> Vec<Action> {
        if let Some(outcome) = outcome {
            return self.on_outcome(txn, outcome).into_iter().collect();
        }
        let Some(idx) = self.placement.acceptor_index(&key, from) else {
            return Vec::new();
        };
        let Some(coord) = self.open.get_mut(&txn) else {
            return Vec::new();
        };
        match coord.on_vote(&key, idx, vote) {
            Progress::Learned { .. } => self.check_done(txn).into_iter().collect(),
            Progress::Collision { ask_master: true } => {
                let master = self.placement.master(&key);
                vec![Action::Send(master, Msg::StartRecovery { key })]
            }
            Progress::Collision { ask_master: false } | Progress::Undecided => Vec::new(),
        }
    }

    /// `txn`'s retry timer fired. From round [`RECOVERY_ABANDON_RETRIES`]
    /// on, options nobody holds are dead; each undecided key is queried
    /// again and its recovery target (rotating, in case the master's data
    /// center is down) asked to lead it. Re-arms while `txn` is open.
    pub fn on_retry(&mut self, txn: TxnId) -> Vec<Action> {
        let Some(coord) = self.open.get_mut(&txn) else {
            return Vec::new();
        };
        let attempt = coord.next_attempt();
        if attempt >= RECOVERY_ABANDON_RETRIES {
            let dead = coord.undecided().filter(|k| coord.nobody_holds(k));
            for key in dead.cloned().collect::<Vec<Key>>() {
                coord.decide(&key, OptionStatus::Rejected(AbortReason::Resolved));
            }
        }
        let mut out = Vec::new();
        for key in coord.undecided() {
            query(&*self.placement, txn, key, &mut out);
            let target = recovery_target(&*self.placement, key, attempt);
            let key = key.clone();
            out.push(Action::Send(target, Msg::StartRecovery { key }));
        }
        out.push(self.check_done(txn).unwrap_or(Action::ArmRetry(txn)));
        out
    }

    /// `txn`'s outcome is known (a Visibility applied it here): resolves
    /// it if it is open.
    pub fn on_outcome(&mut self, txn: TxnId, outcome: TxnOutcome) -> Option<Action> {
        let coord = self.open.remove(&txn)?;
        Some(Action::Resolved(coord, outcome))
    }

    /// Resolves `txn` once the commit rule has a verdict.
    fn check_done(&mut self, txn: TxnId) -> Option<Action> {
        let verdict = self.open.get(&txn)?.verdict()?;
        self.on_outcome(txn, verdict.outcome)
    }
}

/// Asks every replica of `key` for `txn`'s option there.
fn query(placement: &dyn Placement, txn: TxnId, key: &Key, out: &mut Vec<Action>) {
    for node in placement.replicas(key) {
        let key = key.clone();
        out.push(Action::Send(node, Msg::QueryStatus { txn, key }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::placement::{MasterPolicy, StaticPlacement};
    use mdcc_common::{DcId, TableId, Version};
    use mdcc_paxos::{Ballot, CStruct};

    use crate::coordination::Verdict;

    fn key(pk: &str) -> Key {
        Key::new(TableId(1), pk)
    }

    fn txn() -> TxnId {
        TxnId::new(NodeId(9), 4)
    }

    /// Five data centers of one node each, records mastered in DC 1.
    fn machine() -> Dangling {
        let matrix = (0..5).map(|n| vec![NodeId(n)]).collect();
        let placement = StaticPlacement::new(matrix, MasterPolicy::FixedDc(DcId(1)));
        Dangling::new(placement)
    }

    /// What a replica that holds no option for the record answers.
    fn not_held() -> Phase2b {
        Phase2b {
            ballot: Ballot::INITIAL_FAST,
            version: Version::ZERO,
            cstruct: CStruct::new(),
            epoch: 0,
        }
    }

    /// Takes over `txn()`, whose write-set is the records `pks`.
    fn start(dangling: &mut Dangling, pks: &[&str]) -> Vec<Action> {
        let keys: Vec<Key> = pks.iter().map(|pk| key(pk)).collect();
        dangling.start(&ProtocolConfig::default(), txn(), &keys)
    }

    /// One line per action: what it is, its key and its target.
    fn lines(actions: &[Action]) -> Vec<String> {
        let line = |action: &Action| match action {
            Action::Send(to, Msg::QueryStatus { key, .. }) => format!("query {} {}", key.pk, to.0),
            Action::Send(to, Msg::StartRecovery { key }) => format!("recover {} {}", key.pk, to.0),
            Action::Send(to, msg) => format!("{msg:?} {}", to.0),
            Action::ArmRetry(_) => "arm".to_string(),
            Action::Resolved(_, outcome) => format!("resolved {outcome:?}"),
        };
        actions.iter().map(line).collect()
    }

    fn queries(pk: &str) -> Vec<String> {
        (0..5).map(|n| format!("query {pk} {n}")).collect()
    }

    #[test]
    fn an_answer_that_carries_an_outcome_resolves_at_once() {
        let mut dangling = machine();
        start(&mut dangling, &["a", "b"]);
        let outcome = Some(TxnOutcome::Committed);
        let actions = dangling.on_status(NodeId(3), txn(), key("a"), &not_held(), outcome);
        assert_eq!(lines(&actions), ["resolved Committed"]);
        assert!(dangling.on_retry(txn()).is_empty(), "closed: no retry");
    }

    #[test]
    fn a_second_start_for_an_open_transaction_does_nothing() {
        let mut dangling = machine();
        let first = start(&mut dangling, &["a", "b"]);
        let expected = [queries("a"), queries("b"), vec!["arm".to_string()]].concat();
        assert_eq!(lines(&first), expected);
        assert!(start(&mut dangling, &["a", "b"]).is_empty());
    }

    #[test]
    fn an_option_nobody_holds_is_abandoned_after_the_retries() {
        let mut dangling = machine();
        start(&mut dangling, &["a"]);
        for n in 0..5 {
            let answer = dangling.on_status(NodeId(n), txn(), key("a"), &not_held(), None);
            assert!(answer.is_empty(), "replica {n}'s answer decides nothing");
        }
        for attempt in 1..RECOVERY_ABANDON_RETRIES {
            let retry = dangling.on_retry(txn());
            assert_eq!(
                lines(&retry).last().map(String::as_str),
                Some("arm"),
                "{attempt}"
            );
        }
        let last = dangling.on_retry(txn());
        assert_eq!(lines(&last), ["resolved Aborted"]);
        let verdict = match last.first() {
            Some(Action::Resolved(coord, _)) => coord.verdict(),
            _ => None,
        };
        let aborted = Verdict {
            outcome: TxnOutcome::Aborted,
            abort_reason: Some(AbortReason::Resolved),
        };
        assert_eq!(verdict, Some(aborted), "the option is Rejected(Resolved)");
    }

    #[test]
    fn start_recovery_targets_rotate_after_three_attempts() {
        let mut dangling = machine();
        start(&mut dangling, &["a"]);
        let master = dangling.placement.master(&key("a"));
        assert_eq!(master, NodeId(1));
        assert_eq!(recovery_target(&*dangling.placement, &key("a"), 0), master);
        let recover = |actions: Vec<Action>| {
            let lines = lines(&actions);
            lines.into_iter().find(|l| l.starts_with("recover"))
        };
        for _ in 1..=2 {
            assert_eq!(
                recover(dangling.on_retry(txn())).as_deref(),
                Some("recover a 1")
            );
        }
        assert_eq!(
            recover(dangling.on_retry(txn())).as_deref(),
            Some("recover a 2")
        );
    }

    #[test]
    fn each_keys_queries_come_before_its_start_recovery() {
        let mut dangling = machine();
        start(&mut dangling, &["a", "b"]);
        let recover = |pk: &str| vec![format!("recover {pk} 1")];
        let expected = [
            queries("a"),
            recover("a"),
            queries("b"),
            recover("b"),
            vec!["arm".to_string()],
        ];
        assert_eq!(lines(&dangling.on_retry(txn())), expected.concat());
    }
}
