//! The master role of a storage node: leading the classic ballots of the
//! records it masters (by static placement, on request, or as the
//! holder of the shard's lease), and that role's acceptor counterpart,
//! Phase1a/Phase2a behind the lease fence.
//!
//! Under dynamic mastership a lease handoff costs a record nothing. The
//! new holder's first touch assumes the lease ballot and appends in one
//! WAN round trip, naming the cstruct it extends
//! ([`StorageNodeProcess::claim_lease_ballot`]); acceptors compare
//! before they log ([`StorageNodeProcess::refused_base`]); a leader of
//! an earlier tenure steps down first and a node that hands a shard on
//! drops the shard's idle leaders
//! ([`StorageNodeProcess::current_leader`],
//! [`StorageNodeProcess::drop_quiescent_leaders`]).

use mdcc_common::{DcId, Key, NodeId};
use mdcc_mastership::{Action as MsAction, MsMsg};
use mdcc_paxos::acceptor::{ClassicAccept, Phase1b, Phase2a};
use mdcc_paxos::leader::{LeaderAction, LeaderConfig};
use mdcc_paxos::{Ballot, CStruct, LeaderRecord, TxnOption};
use mdcc_recovery::WalRecord;
use mdcc_storage::RecordStore;
use mdcc_trace::Phase;

use super::{StorageNodeProcess, REDIRECTED_FAST_CAP};
use crate::msg::{send_each, MdccCtx, Msg};

impl StorageNodeProcess {
    /// Lazily enforces the lease-promise floor on one record's acceptor
    /// state before it judges a proposal. A raise is mirrored into the
    /// WAL as the Phase1a it stands in for, so crash replay reproduces
    /// the exact same Nacks.
    fn enforce_floor(&mut self, key: &Key, ctx: &mut MdccCtx<'_>) {
        let Some(ballot) = self.fence.floor_for(key) else {
            return;
        };
        if self.store.raise_promise(key, ballot) {
            self.wal_append(ctx, |_| {
                [WalRecord::Phase1a {
                    key: key.clone(),
                    ballot,
                }]
            });
        }
    }

    /// Leads one classic proposal locally: redirect it back to the fast
    /// path when the record reopened fast (at most once per txn), else
    /// enqueue it on this node's leader for the record. Shared by the
    /// static `ProposeToMaster` path and the lease-holder path.
    pub(super) fn lead_classic(&mut self, from: NodeId, opt: TxnOption, ctx: &mut MdccCtx<'_>) {
        let key = opt.key.clone();
        // Stale retry of a settled transaction: answer with the
        // recorded outcome, exactly as the fast path does. Once every
        // replica has resolved the transaction (e.g. storage-side
        // dangling recovery finished while the coordinator was
        // partitioned away), re-leading appends nothing new and the
        // delta-vote fan-out skips its coordinator as settled
        // business — without this reply the retrying TM never hears
        // back and the transaction wedges at the coordinator forever.
        let txn = opt.txn;
        let settled = self.store.with_record(&key, |r| r.settled_outcome(txn));
        if let Some(outcome) = settled.flatten() {
            return ctx.send(txn.coordinator, Msg::AlreadyResolved { key, txn, outcome });
        }
        // If the record is actually in fast mode and fast ballots are
        // allowed, redirect the TM back to the fast path — but at most once
        // per transaction. Under message loss the replicas' ballot modes can
        // diverge (this record reopened fast, another replica never heard
        // the reopen and still bounces NotFast), and honoring the redirect
        // every time ping-pongs the proposal between fast and classic
        // forever. The second arrival takes mastership: the classic round
        // re-synchronizes every replica.
        let leading = self.leaders.get(&key).is_some_and(|l| l.is_leading());
        let record_fast = self
            .store
            .with_record(&key, |r| r.promised().is_fast())
            .unwrap_or(true);
        if self.redirected_fast.len() > REDIRECTED_FAST_CAP {
            self.redirected_fast.clear();
        }
        if self.allow_fast && !leading && record_fast && self.redirected_fast.insert(txn) {
            return ctx.send(from, Msg::GoFast { key, txn });
        }
        self.claim_lease_ballot(&key, ctx);
        let (leader, _) = self.leader_for(&key, ctx);
        let actions = leader.enqueue(opt);
        self.run_leader_actions(&key, actions, ctx);
    }

    /// The lease handoff, record by record and only when a record is
    /// touched: winning the shard's election *is* Phase 1 for everything
    /// in the shard. The granted lease ballot is the promise floor on a
    /// grant quorum of acceptors, and lease ballots are tenure-major, so
    /// it clears whatever a predecessor raised on the record; the
    /// holder's first Phase2a therefore goes out at the lease ballot with
    /// no Phase1a/Phase1b round (one WAN round trip), naming the trace
    /// digest of the cstruct it extends — the local replica's — so that
    /// only acceptors holding exactly that join the ballot's stream (see
    /// [`mdcc_paxos::AcceptorRecord::refuses_base`]; a replica that
    /// differs Nacks and the leader runs Phase 1 after all). The only
    /// case left for explicit Phase 1 up front is a local promise above
    /// the lease ballot: someone re-established the record inside this
    /// tenure.
    fn claim_lease_ballot(&mut self, key: &Key, ctx: &mut MdccCtx<'_>) {
        let Some(ms) = &self.mastership else { return };
        let shard = self.placement.shard_id(key);
        let lease = ms.serving_ballot(shard, ctx.now);
        let lease = lease.map(|n| Ballot::lease(n, ctx.self_id));
        let (leader, store) = self.current_leader(key, ctx);
        if leader.is_leading() {
            return; // Every touch but the first after a handoff.
        }
        let Some(lease) = lease else { return };
        let local = store.with_record(key, |r| (r.promised(), r.cstruct().trace_digest()));
        let (promised, base) = local.unwrap_or((Ballot::INITIAL_FAST, CStruct::EMPTY_TRACE_DIGEST));
        if promised <= lease && leader.assume_leadership(lease, base) {
            if let Some(ms) = self.mastership.as_mut() {
                ms.note_phase1_skipped();
            }
        }
    }

    /// `key`'s leader, brought up to date with the leases before it is
    /// asked to do anything. A leader this node still has from an
    /// *earlier* tenure — left leading a ballot that the tenures in
    /// between deposed, and never told — steps down: its next Phase2a
    /// would go out at the dead ballot and come back as five Nacks. And
    /// whatever it establishes next starts above the highest lease
    /// ballot this node has granted for the record (its own tenures
    /// included) and above what the record promised meanwhile, not from
    /// scratch. With dynamic mastership off there is no floor and this
    /// is [`Self::leader_for`].
    fn current_leader(
        &mut self,
        key: &Key,
        ctx: &MdccCtx<'_>,
    ) -> (&mut LeaderRecord, &RecordStore) {
        let floor = self.fence.floor_for(key);
        let (leader, store) = self.leader_for(key, ctx);
        if let Some(floor) = floor {
            leader.step_down(floor, outcome_known(store, key));
            let promised = store.with_record(key, |r| r.promised());
            leader.observe_ballot(promised.map_or(floor, |p| p.max(floor)));
        }
        (leader, store)
    }

    /// Someone asked this node to recover `key`'s instance
    /// (`Msg::StartRecovery`).
    pub(super) fn lead_recovery(&mut self, key: &Key, ctx: &mut MdccCtx<'_>) {
        let (leader, _) = self.current_leader(key, ctx);
        let actions = leader.start_recovery();
        self.run_leader_actions(key, actions, ctx);
    }

    /// This node handed `shard`'s lease on: its leaders for the shard's
    /// records are deposed. Those with nothing in flight are dropped —
    /// each holds a `RecordSnapshot` and every option of its open
    /// instance, and [`Self::leader_for`] rebuilds one from the record
    /// if the lease ever comes back. The rest finish what they started.
    fn drop_quiescent_leaders(&mut self, shard: u32) {
        let (store, placement) = (&self.store, &self.placement);
        self.leaders.retain(|key, leader| {
            placement.shard_id(key) != shard || !leader.is_quiescent(outcome_known(store, key))
        });
    }

    /// Emits the mastership layer's queued sends as wrapped messages
    /// and absorbs its host-level effects: lease grants raise this
    /// node's promise floor, and a handoff drops the shard's idle
    /// leaders.
    pub(super) fn flush_ms_actions(&mut self, out: Vec<MsAction>, ctx: &mut MdccCtx<'_>) {
        for action in out {
            match action {
                MsAction::Send { to, msg } => ctx.send(to, Msg::Mastership(msg)),
                MsAction::FloorRaised { shard, ballot } => {
                    let raised = self.fence.raise_floor(shard, ballot);
                    self.wal_append(ctx, |_| raised);
                }
                MsAction::Relinquished { shard, .. } => self.drop_quiescent_leaders(shard),
            }
        }
    }

    /// `key`'s leader, built from the record if this node has none, and
    /// the store beside it: the caller may keep reading the record.
    fn leader_for(&mut self, key: &Key, ctx: &MdccCtx<'_>) -> (&mut LeaderRecord, &RecordStore) {
        let cfg = LeaderConfig {
            n: self.cfg.replication,
            qc: self.cfg.classic_quorum,
            qf: self.cfg.fast_quorum,
            gamma: self.cfg.gamma,
            allow_fast: self.allow_fast,
            max_instance_options: self.cfg.max_instance_options,
            name_base: self.cfg.mastership.enabled,
        };
        let (store, self_id) = (&self.store, ctx.self_id);
        let leader = self.leaders.entry(key.clone()).or_insert_with(|| {
            let snapshot = store.with_record(key, |r| r.snapshot());
            let snapshot = snapshot.unwrap_or_else(mdcc_paxos::RecordSnapshot::absent);
            LeaderRecord::new(cfg, self_id, snapshot)
        });
        (leader, store)
    }

    pub(super) fn run_leader_actions(
        &mut self,
        key: &Key,
        actions: Vec<LeaderAction>,
        ctx: &mut MdccCtx<'_>,
    ) {
        let replicas = self.placement.replicas(key);
        for action in actions {
            match action {
                LeaderAction::Phase1a(ballot) => {
                    self.stats.recoveries_led += 1;
                    // A per-record Phase1 round run while this node
                    // serves the shard's lease — the two-round-trip
                    // first touch lease-carried Phase1 exists to avoid
                    // (the fig11 cold-key drill bounds its share).
                    let shard = self.placement.shard_id(key);
                    if let Some(ms) = self.mastership.as_mut() {
                        if ms.is_serving(shard, ctx.now) {
                            ms.note_phase1_covered();
                        }
                    }
                    // Ballot acquisition: closes when a Phase1b quorum
                    // makes this node the record's leader.
                    self.trace_begin(key, Phase::Phase1, ctx);
                    send_each(ctx, &replicas, || Msg::P1a {
                        key: key.clone(),
                        ballot,
                    });
                }
                LeaderAction::Phase2a(payload) => {
                    // Classic instance round: closes when the local
                    // acceptor observes the instance advance.
                    self.trace_begin(key, Phase::Phase2a, ctx);
                    send_each(ctx, &replicas, || Msg::P2a {
                        key: key.clone(),
                        payload: Box::new(payload.clone()),
                    });
                }
                LeaderAction::RedirectFast(opt) => {
                    // The record reopened fast mode while this option was
                    // queued: hand it back to its coordinator.
                    let (key, txn) = (key.clone(), opt.txn);
                    ctx.send(txn.coordinator, Msg::GoFast { key, txn });
                }
            }
        }
    }

    /// Opens a leader-side span on `key` (ballot acquisition, classic
    /// round), if a tracer is attached.
    fn trace_begin(&self, key: &Key, phase: Phase, ctx: &MdccCtx<'_>) {
        if let Some(tracer) = &self.tracer {
            let key = Some(key.clone());
            tracer.begin(ctx.self_id, self.my_dc, None, key, phase, ctx.now);
        }
    }

    /// Feeds the record's leader, if this node has one, and runs what
    /// it asks for.
    pub(super) fn with_leader(
        &mut self,
        key: &Key,
        feed: impl FnOnce(&mut LeaderRecord) -> Vec<LeaderAction>,
        ctx: &mut MdccCtx<'_>,
    ) {
        if let Some(leader) = self.leaders.get_mut(key) {
            let actions = feed(leader);
            self.run_leader_actions(key, actions, ctx);
        }
    }

    /// A classic proposal routed by shard lease (`Msg::ProposeMastered`):
    /// serve it, forward it to the holder, or lead it regardless. The
    /// holder leads every record of its shard: a record promised above
    /// the lease inside its tenure Nacks the holder's Phase2a, and the
    /// holder's own Phase 1 re-establishes it
    /// ([`StorageNodeProcess::current_leader`]).
    pub(super) fn on_propose_mastered(
        &mut self,
        from: NodeId,
        origin_dc: DcId,
        opt: TxnOption,
        ctx: &mut MdccCtx<'_>,
    ) {
        let shard = self.placement.shard_id(&opt.key);
        let (serving, holder) = match &self.mastership {
            Some(ms) => (ms.is_serving(shard, ctx.now), ms.holder(shard, ctx.now)),
            None => (false, None),
        };
        if serving {
            if let Some(ms) = self.mastership.as_mut() {
                ms.note_served(shard, origin_dc);
            }
            self.lead_classic(from, opt, ctx);
        } else if let Some(node) = holder.filter(|n| *n != ctx.self_id) {
            // Not the holder, but we know who is: forward the proposal
            // and teach its coordinator the route.
            if let Some(ms) = self.mastership.as_mut() {
                ms.note_forwarded();
            }
            ctx.send(opt.txn.coordinator, Msg::MasterHint { shard, node });
            ctx.send(node, Msg::ProposeMastered { origin_dc, opt });
        } else {
            // No live lease this node knows of (election still in progress,
            // or mastership disabled here): lead classically. Safe
            // regardless of leases — classic Paxos ballots arbitrate — and
            // keeps writes available through election windows.
            self.lead_classic(from, opt, ctx);
        }
    }

    pub(super) fn on_mastership(&mut self, from: NodeId, inner: MsMsg, ctx: &mut MdccCtx<'_>) {
        let mut out = Vec::new();
        if let Some(ms) = self.mastership.as_mut() {
            ms.on_msg(from, inner, ctx.now, &mut out);
        }
        self.flush_ms_actions(out, ctx);
    }

    pub(super) fn on_phase1a(
        &mut self,
        from: NodeId,
        key: Key,
        ballot: Ballot,
        ctx: &mut MdccCtx<'_>,
    ) {
        self.enforce_floor(&key, ctx);
        self.wal_append(ctx, |_| {
            [WalRecord::Phase1a {
                key: key.clone(),
                ballot,
            }]
        });
        let payload = self.store.phase1a(&key, ballot);
        ctx.send(from, Msg::P1b { key, payload });
    }

    pub(super) fn on_phase1b(
        &mut self,
        from: NodeId,
        key: Key,
        payload: Phase1b,
        ctx: &mut MdccCtx<'_>,
    ) {
        let Some(idx) = self.placement.acceptor_index(&key, from) else {
            return;
        };
        self.with_leader(&key, |l| l.on_phase1b(idx, payload), ctx);
        if self.leaders.get(&key).is_some_and(|l| l.is_leading()) {
            if let Some(tracer) = &self.tracer {
                tracer.end(ctx.self_id, None, Some(key), Phase::Phase1, ctx.now);
            }
        }
    }

    /// An acceptor could not use a Phase2a of `ballot` (`Msg::P2aBehind`):
    /// if this node's leader still holds that ballot's round, `from`
    /// alone is sent the instance so far with the snapshot it lacks. If
    /// not — the leader moved on, or the round is over — `from` is sent
    /// this replica's committed state for the record, the anti-entropy
    /// payload for one key: it catches up now, not at the next sweep,
    /// and takes part in the next round.
    pub(super) fn on_behind(
        &mut self,
        from: NodeId,
        key: Key,
        ballot: Ballot,
        ctx: &mut MdccCtx<'_>,
    ) {
        let answer = self.leaders.get(&key).and_then(|l| l.on_behind(ballot));
        if let Some(payload) = answer {
            let payload = Box::new(payload);
            ctx.send(from, Msg::P2a { key, payload });
        } else if let Some(item) = self.store.sync_item(&key) {
            ctx.send(from, Msg::SyncChunk { items: vec![item] });
        }
    }

    /// The base check, ahead of the WAL: the ballot to Nack `payload`
    /// with when it names a base this record does not hold
    /// ([`mdcc_paxos::AcceptorRecord::refuses_base`] is the rule; the
    /// leader falls back to Phase 1 proper). Nothing is logged or
    /// mutated here, so crash replay cannot diverge: the WAL holds only
    /// what the acceptor went on to judge, and the acceptor asks itself
    /// again. Appends name their base only under dynamic mastership.
    fn refused_base(&self, key: &Key, payload: &Phase2a) -> Option<Ballot> {
        if !self.cfg.mastership.enabled {
            return None;
        }
        self.store.with_record(key, |r| r.refuses_base(payload))?
    }

    /// A Phase2a arrived: the lean broadcast, or the leader's answer to
    /// this node's `P2aBehind`. Two answers are given ahead of the WAL,
    /// with nothing logged or mutated: the ask, when the record has not
    /// reached the instance and the payload carries no snapshot to get
    /// there from, and the base check's Nack. What is logged is what the
    /// acceptor went on to judge. The vote goes to the coordinators that
    /// can still learn from it and not back to `from`: a master is no
    /// learner.
    pub(super) fn on_phase2a(
        &mut self,
        from: NodeId,
        key: Key,
        payload: Box<Phase2a>,
        ctx: &mut MdccCtx<'_>,
    ) {
        self.enforce_floor(&key, ctx);
        let ballot = payload.ballot;
        if self.store.lacks_snapshot(&key, &payload) {
            return ctx.send(from, Msg::P2aBehind { key, ballot });
        }
        if let Some(promised) = self.refused_base(&key, &payload) {
            return ctx.send(from, Msg::P2aNack { key, promised });
        }
        self.wal_append(ctx, |at| {
            [WalRecord::ClassicAccept {
                at,
                key: key.clone(),
                payload: payload.clone(),
            }]
        });
        let before = self.store.version_of(&key);
        match self.store.classic_accept(&key, *payload, ctx.now) {
            ClassicAccept::Vote(vote) => {
                self.stats.classic_votes += 1;
                self.fan_out_vote(&key, &vote, None, ctx);
            }
            ClassicAccept::Nack { promised } => {
                let key = key.clone();
                ctx.send(from, Msg::P2aNack { key, promised });
            }
            ClassicAccept::Stale { snapshot } => {
                let key = key.clone();
                ctx.send(from, Msg::P2aStale { key, snapshot });
            }
            ClassicAccept::Behind => unreachable!("asked ahead of the WAL"),
        }
        if self.store.version_of(&key) != before {
            self.record_moved(&key, ctx);
        }
    }
}

/// "Has `key`'s record an outcome for this option?" An option the
/// record has never seen has none: its Phase2a may still be on the way.
fn outcome_known<'a>(store: &'a RecordStore, key: &'a Key) -> impl Fn(&TxnOption) -> bool + 'a {
    move |opt| {
        let known = store.with_record(key, |r| r.has_outcome(opt.txn));
        known.unwrap_or(false)
    }
}
