//! Dangling-transaction recovery (§3.2.3): "any node can finish a
//! dangling transaction by doing what its coordinator would have done".
//! A storage node that finds an option outstanding past
//! `DANGLING_TIMEOUT` quorum-reads every key of its write-set, asks for
//! recovery of what collided and retries on a timer, until the
//! commit rule gives a verdict or a replica or Visibility names the
//! outcome. The machine is sans-IO: each input answers with the
//! [`Action`]s its owner runs, in order.

use std::collections::HashMap;
use std::sync::Arc;

use mdcc_common::error::AbortReason;
use mdcc_common::{Key, NodeId, ProtocolConfig, TxnId};
use mdcc_paxos::acceptor::Phase2b;
use mdcc_paxos::{OptionStatus, TxnOutcome};

use crate::coordination::{Coordination, Progress};
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
    /// Send `Msg::QueryStatus`.
    Send(NodeId, Msg),
    /// Send `Msg::StartRecovery` for the key where the route rule
    /// ([`crate::coordination::classic_target`]) sends this attempt.
    Recover(Key, u32),
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
            Progress::Collision { ask_master: true } => vec![Action::Recover(key, 0)],
            Progress::Collision { ask_master: false } | Progress::Undecided => Vec::new(),
        }
    }

    /// `txn`'s retry timer fired. From round [`RECOVERY_ABANDON_RETRIES`]
    /// on, options nobody holds are dead; each undecided key is queried
    /// again and recovered at this attempt (the route rule rotates, in
    /// case the master's data center is down). Re-arms while `txn` is open.
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
            out.push(Action::Recover(key.clone(), attempt));
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
    use mdcc_common::{DcId, PhysicalUpdate, Row, TableId, UpdateOp, Version};
    use mdcc_paxos::{Ballot, CStruct, TxnOption};

    use crate::coordination::{classic_target, Verdict};

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

    /// Feeds `txn()`'s option on "a" a split no fast quorum can decide:
    /// two replicas accepted it, three rejected it.
    fn collide(dangling: &mut Dangling) -> Vec<Action> {
        let write = PhysicalUpdate::write(Version(1), Row::new());
        let opt = TxnOption::solo(txn(), key("a"), UpdateOp::Physical(write));
        let mut out = Vec::new();
        for n in 0..5 {
            let status = match n {
                0 | 1 => OptionStatus::Accepted,
                _ => OptionStatus::Rejected(AbortReason::PendingOption),
            };
            let mut vote = not_held();
            vote.cstruct.append(opt.clone(), status);
            out.extend(dangling.on_status(NodeId(n), txn(), key("a"), &vote, None));
        }
        out
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
            Action::Recover(key, attempt) => format!("recover {} {attempt}", key.pk),
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

    /// Where the route rule sends the `StartRecovery`s of attempts 0 (a
    /// collision) to 6 (retries), per lease belief: with mastership off
    /// (`None`) the master (node 1) three times, then the next replica
    /// for three; with it on, the believed holder (else the master), then
    /// a rotation from the node's own data center.
    #[test]
    fn start_recovery_targets_follow_the_route_rule() {
        let leased = |holder, from| Some((holder, DcId(from)));
        let table = [
            (None, [1, 1, 1, 2, 2, 2, 3]),
            (leased(Some(NodeId(4)), 2), [4, 3, 4, 0, 1, 2, 3]),
            (leased(None, 0), [1, 1, 2, 3, 4, 0, 1]),
        ];
        for (belief, targets) in table {
            let mut dangling = machine();
            start(&mut dangling, &["a"]);
            let mut got = Vec::new();
            for attempt in 0..targets.len() as u32 {
                let actions = match attempt {
                    0 => collide(&mut dangling),
                    _ => dangling.on_retry(txn()),
                };
                let recover = actions.iter().find_map(|a| match a {
                    Action::Recover(key, at) => Some((key.clone(), *at)),
                    _ => None,
                });
                let (key, at) = recover.expect("a StartRecovery");
                assert_eq!(at, attempt);
                got.push(classic_target(&*dangling.placement, &key, at, belief).0);
            }
            assert_eq!(got, targets, "{belief:?}");
        }
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
