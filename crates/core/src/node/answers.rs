//! The acceptor role's answers: the verdicts a storage node's acceptors
//! give travel once per (transaction, coordinator).
//!
//! A vote is not sent where it is given. [`StorageNodeProcess::fan_out_vote`]
//! reduces it to one verdict per coordinator that can learn from it and
//! buffers those, the way the leaders' Phase2a rounds are buffered; the
//! handler's one flush ([`StorageNodeProcess::flush`]) sends each
//! coordinator one `Verdict` per transaction its entries name, each
//! record named by position in that transaction's write-set where one
//! transaction anchors it (see [`Msg::Verdict`]).

use mdcc_common::{Key, NodeId, TxnId};
use mdcc_paxos::acceptor::{Phase2b, VoteVerdict};

use super::StorageNodeProcess;
use crate::msg::{grouped, MdccCtx, Msg, RecordName, Verdicts};

impl StorageNodeProcess {
    /// Fans a vote out to every coordinator that can still learn
    /// something from it, so recovery-adopted options reach their
    /// transaction managers (learners). Entries this node has an outcome
    /// for are settled business at their coordinator — it produced the
    /// Visibility, and stale retries get `AlreadyResolved`.
    ///
    /// `proposer` is the fast path's: its node, transaction and
    /// write-set. There the proposer *is* the learner and must hear back
    /// even if the outcome overtook its option. On the classic path it is
    /// nobody: the Phase2a came from the master, which learns that its
    /// instance advanced from its local acceptor and would drop the vote
    /// unread.
    ///
    /// Each destination is answered with the vote as a verdict
    /// ([`mdcc_paxos::AcceptorRecord::verdicts`]): what `vote` — which
    /// starts at the record's settled watermark — says of the
    /// destination's own open options. A learner that needs the cstruct
    /// itself comes back with a `CstructPull`. The answers wait for the
    /// end of the handler ([`Self::send_answers`]), named by position in
    /// the write-set of the transaction that anchors them (see
    /// [`Msg::Verdict`]).
    pub(super) fn fan_out_vote(
        &mut self,
        key: &Key,
        vote: &Phase2b,
        proposer: Option<(NodeId, TxnId, &[Key])>,
    ) {
        let verdicts = self.store.with_record(key, |rec| rec.verdicts(vote));
        let mut verdicts = verdicts.unwrap_or_default();
        if let Some((from, _, _)) = proposer {
            // The proposer first, with nothing to say of its options if
            // none is open here.
            let verdict = match verdicts.iter().position(|(to, _)| *to == from) {
                Some(at) => verdicts.remove(at).1,
                None => VoteVerdict {
                    ballot: vote.ballot,
                    version: vote.version,
                    letters: Vec::new(),
                },
            };
            verdicts.insert(0, (from, verdict));
        }
        for (to, verdict) in verdicts {
            if let Some((txn, name)) = anchored(key, vote, proposer, to, &verdict) {
                self.answers.push((to, txn, name, verdict));
            }
        }
    }

    /// Sends the verdicts this handler gave: each coordinator one
    /// `Verdict` per anchoring transaction, its entries in the order
    /// they were given.
    fn send_answers(&mut self, ctx: &mut MdccCtx<'_>) {
        let answers = self.answers.drain(..);
        let routed = answers.map(|(to, txn, name, verdict)| ([(to, txn)], (name, verdict)));
        for ((to, txn), records) in grouped(routed) {
            ctx.send(to, Msg::Verdict(Verdicts { txn, records }));
        }
    }

    /// Sends what the handler now ending left to send: the Phase2a rounds
    /// its leaders emitted and the verdicts its acceptors gave. Every
    /// handler exit runs it.
    pub(super) fn flush(&mut self, ctx: &mut MdccCtx<'_>) {
        self.send_rounds(ctx);
        self.send_answers(ctx);
    }
}

/// How `to`'s verdict on `key` travels: the transaction whose
/// [`Msg::Verdict`] carries it, and the record's name there. The
/// verdict's only letter anchors it, or, when it has none, the proposer's
/// transaction: then it names `key` by position in that transaction's
/// write-set. A verdict of two or more letters names `key` itself and
/// rides with the proposer's transaction or its newest letter's. `None`
/// only for a verdict with neither letter nor proposer, which
/// [`mdcc_paxos::AcceptorRecord::verdicts`] never gives.
fn anchored(
    key: &Key,
    vote: &Phase2b,
    proposer: Option<(NodeId, TxnId, &[Key])>,
    to: NodeId,
    verdict: &VoteVerdict,
) -> Option<(TxnId, RecordName)> {
    let proposer = proposer.filter(|(from, _, _)| *from == to);
    let by_key = || RecordName::Key(key.clone());
    let anchor = match (verdict.letters.as_slice(), proposer) {
        ([only], _) => only.txn,
        ([], Some((_, txn, _))) => txn,
        (_, Some((_, txn, _))) => return Some((txn, by_key())),
        (letters, None) => return Some((letters.last()?.txn, by_key())),
    };
    let peers = match proposer {
        Some((_, txn, peers)) if txn == anchor => Some(peers),
        _ => (vote.cstruct.shared().iter())
            .find(|e| e.opt.txn == anchor)
            .map(|e| &*e.opt.peers),
    };
    let at = peers.and_then(|peers| peers.iter().position(|k| k == key));
    let name = match at.map(u32::try_from) {
        Some(Ok(at)) if anchor.coordinator == to => RecordName::At(at),
        _ => by_key(),
    };
    Some((anchor, name))
}
