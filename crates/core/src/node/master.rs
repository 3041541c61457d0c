//! The master role of a storage node: leading the classic ballots of the
//! records it masters (by static placement, on request, or as the
//! holder of the shard's lease), and that role's acceptor counterpart,
//! Phase1a/Phase2a behind the lease floors.
//!
//! Lease-carried Phase1: when this node *grants* a shard lease, the
//! granted ballot doubles as the Phase1-promised classic ballot for every
//! record in the shard. The mastership layer owns that floor, the highest
//! lease ballot this node granted per shard ([`Mastership::floor`]); the
//! node enforces it lazily, right before an acceptor judges a Phase1a or
//! Phase2a ([`lease_floor`]), so a deposed holder's stale ballot Nacks
//! without a per-record Phase1 exchange. Each rise is logged, and the
//! floors are re-logged after every checkpoint ([`floor_records`]), so
//! the WAL tail alone rebuilds them. With dynamic mastership off there is
//! no mastership layer and no floor.
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
//!
//! A mastered proposal goes where the shard's lease says
//! ([`StorageNodeProcess::lease_route`]): served here, forwarded to the
//! holder, or led with no lease — or held while this node is making the
//! lease itself, its acquisition out or a predecessor's window still
//! being waited out. Held options are led at the lease ballot with no
//! Phase 1 once the node serves, or with a Phase 1 of their own once
//! that lease is refused or lapses ([`StorageNodeProcess::release_awaited`],
//! after each mastership input). At a handoff this is where the options
//! the old holder forwards land while the target's grants are out.
//!
//! The classic path travels once per (transaction, node): a proposal
//! carries every option its coordinator routed to this node, and the
//! Phase2a rounds a handler's leaders emit leave together, one `P2a` per
//! replica node ([`StorageNodeProcess::send_rounds`], run by the
//! handler's one flush with the verdicts its acceptors gave).
//!
//! A replica cut off for longer than a lease asks the leaders of the
//! streams it is in for what it missed before a lease that moves here
//! names a stale base ([`StorageNodeProcess::ask_after_silence`]).
//!
//! Phase 1 ships a cstruct only to or from a replica that lacks it. A
//! Phase1a names the instance and cstruct digest of this node's replica
//! and a promise leaves out what that names
//! ([`StorageNodeProcess::on_phase1a`]); the recovery round names its
//! proved-safe base by digest to each promiser that reported exactly it
//! ([`StorageNodeProcess::send_rounds`]). Such an acceptor holds that
//! cstruct as its own or as the copy its promise reported, kept here
//! while the promise is open, and puts it back before the WAL sees the
//! round ([`StorageNodeProcess::resolve_base`]).

use mdcc_common::{DcId, Key, NodeId, SimDuration, SimTime};
use mdcc_mastership::{
    Action as MsAction, Ballot as MsBallot, Mastership, MsMsg, HEARTBEAT_INTERVAL, LEASE_DURATION,
};
use mdcc_paxos::acceptor::{Base, ClassicAccept, Phase1a, Phase2a, Phase2aRounds, Promise};
use mdcc_paxos::leader::{LeaderAction, LeaderConfig};
use mdcc_paxos::{Ballot, CStruct, LeaderRecord, Proposal, TxnOption};
use mdcc_recovery::{RecoveredLeases, WalRecord};
use mdcc_storage::RecordStore;
use mdcc_trace::Phase;

use super::{StorageNodeProcess, REDIRECTED_FAST_CAP};
use crate::msg::{grouped, MdccCtx, Msg, Tick};
use crate::placement::Placement;

/// The classic ballot `key`'s acceptor must have promised before it
/// judges a proposal: the lease ballot this node granted for `key`'s
/// shard, as the classic lease ballot of its holder. `None` with
/// mastership off, or before this node granted the shard any lease.
fn lease_floor(ms: Option<&Mastership>, placement: &dyn Placement, key: &Key) -> Option<Ballot> {
    let floor = ms?.floor(placement.shard_id(key))?;
    Some(Ballot::lease(floor.n, floor.node()))
}

fn floor_record(shard: u32, b: MsBallot) -> WalRecord {
    WalRecord::LeaseFloor {
        shard,
        n: b.n,
        pid: b.pid,
    }
}

/// Every shard's floor as log records, in shard order: a checkpoint
/// truncates the WAL, and the tail alone must keep carrying the floors.
pub(super) fn floor_records(ms: Option<&Mastership>) -> Vec<WalRecord> {
    let floors = ms.into_iter().flat_map(Mastership::floors);
    floors.map(|(s, b)| floor_record(s, b)).collect()
}

/// The floors [`floor_records`] logged, as a restart folded them out of
/// the WAL tail: what [`Mastership::new`] is seeded with.
pub(super) fn recovered_floors(leases: RecoveredLeases) -> Vec<(u32, MsBallot)> {
    let floors = leases.floors.into_iter();
    floors
        .map(|(s, (n, pid))| (s, MsBallot::new(n, pid)))
        .collect()
}

/// Mastered options held for one shard's lease while this node makes
/// it, and the lease ballot they wait for. Volatile like an in-flight
/// message: a crash forgets it, and the coordinators' retries stand in
/// for what it held. It lasts no longer than the lease it waits for
/// takes to serve or to fail.
pub(super) struct Awaited {
    ballot: MsBallot,
    /// Each `ProposeMastered`'s options of the shard, with its sender,
    /// origin data center and arrival time, in arrival order.
    held: Vec<(NodeId, DcId, SimTime, Vec<TxnOption>)>,
}

/// Where a shard's mastered options go at this node now.
#[derive(Clone, Copy)]
enum Route {
    /// This node serves the shard's lease: lead them under it.
    Serve,
    /// Another node holds it, as far as this one knows: forward them.
    Forward(NodeId),
    /// This node is making the lease with this ballot: hold them until
    /// it serves, or until it cannot.
    Await(MsBallot),
    /// No lease is known or being made here: lead them regardless.
    Unleased,
}

impl StorageNodeProcess {
    /// Lazily enforces the lease-promise floor on one record's acceptor
    /// state before it judges a proposal. A raise is mirrored into the
    /// WAL as the Phase1a it stands in for, so crash replay reproduces
    /// the exact same Nacks.
    fn enforce_floor(&mut self, key: &Key, ctx: &mut MdccCtx<'_>) {
        let Some(ballot) = lease_floor(self.mastership.as_ref(), &*self.placement, key) else {
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
        let floor = lease_floor(self.mastership.as_ref(), &*self.placement, key);
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

    /// Hosts the lease/election layer for `shards`, the (shard, replica
    /// group) pairs this node is in (`on_start`, mastership on).
    pub(super) fn start_mastership(
        &mut self,
        shards: Vec<(u32, Vec<NodeId>)>,
        ctx: &mut MdccCtx<'_>,
    ) {
        if shards.is_empty() {
            return;
        }
        // The floors a restart recovered are what this node granted
        // before it crashed.
        let recovered_at = self.repair.restarted().then_some(ctx.now);
        let granted = std::mem::take(&mut self.recovered_floors);
        let mut ms = Mastership::new(ctx.self_id, self.my_dc, shards, recovered_at, &granted);
        if let Some(audit) = &self.lease_audit {
            ms.set_audit(audit.clone());
        }
        self.mastership = Some(ms);
        self.ms_heard = ctx.now;
        // Stagger first ticks by node id so heartbeats across nodes do
        // not land on the same instants.
        let stagger = SimDuration::from_micros((ctx.self_id.0 as u64 % 17) * 313);
        ctx.set_timer(HEARTBEAT_INTERVAL + stagger, Tick::MsTick);
    }

    /// Emits the mastership layer's queued sends as wrapped messages
    /// and absorbs its host-level effects: a raised floor is logged, and
    /// a handoff drops the shard's idle leaders. Then the options held
    /// for a lease are looked at again: the input may have made it.
    pub(super) fn flush_ms_actions(&mut self, out: Vec<MsAction>, ctx: &mut MdccCtx<'_>) {
        for action in out {
            match action {
                MsAction::Send { to, msg } => ctx.send(to, Msg::Mastership(msg)),
                MsAction::FloorRaised { shard, ballot } => {
                    self.wal_append(ctx, |_| [floor_record(shard, ballot)]);
                }
                MsAction::Relinquished { shard, .. } => self.drop_quiescent_leaders(shard),
            }
        }
        self.release_awaited(ctx);
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
                    let local = self
                        .store
                        .with_record(key, |r| (r.version(), r.cstruct().clone()));
                    let Some(leader) = self.leaders.get_mut(key) else {
                        continue;
                    };
                    let payload = leader.phase1a(ballot, local);
                    for &node in &replicas {
                        let key = key.clone();
                        ctx.send(node, Msg::P1a { key, payload });
                    }
                }
                LeaderAction::Phase2a(round) => {
                    // Classic instance round: closes when the local
                    // acceptor observes the instance advance. It leaves
                    // with the handler's other rounds.
                    self.trace_begin(key, Phase::Phase2a, ctx);
                    self.rounds.push((key.clone(), round));
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

    /// Sends the Phase2a rounds this node's leaders emitted in the handler
    /// now ending: each replica node one `P2a` holding every round of a
    /// record it replicates, in the order they were led. A recovery round
    /// names its proved-safe base by digest to a node whose promise
    /// reported exactly that cstruct ([`LeaderRecord::names_base_to`]).
    pub(super) fn send_rounds(&mut self, ctx: &mut MdccCtx<'_>) {
        let rounds = std::mem::take(&mut self.rounds);
        let placement = &self.placement;
        let routed = rounds.into_iter().map(|r| (placement.replicas(&r.0), r));
        for (node, mut rounds) in grouped(routed) {
            for (key, round) in &mut rounds {
                let Base::ProvedSafe(safe) = &round.base else {
                    continue;
                };
                let at = self.placement.acceptor_index(key, node);
                let leader = self.leaders.get(key);
                let named = at.and_then(|at| leader?.names_base_to(at));
                if named == Some(safe.digest()) {
                    round.base = Base::NamedSafe(safe.digest());
                }
            }
            let rounds = Phase2aRounds(rounds);
            ctx.send(node, Msg::P2a { rounds });
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
    /// for each shard it names, [`Self::lease_route`] decides where the
    /// shard's options go — served here, forwarded to the holder as one
    /// proposal, held for the lease this node is making, or led
    /// regardless — and [`Self::settle`] sends them there; then what stays
    /// here is led, in proposal order. Options held earlier go first: the
    /// same decision is re-made for them after each mastership input
    /// ([`Self::release_awaited`]). Served, forwarded, awaited and
    /// unleased ([`mdcc_mastership::MastershipStats`]) count options. The
    /// holder leads every record of its shard: a record promised above
    /// the lease inside its tenure Nacks the holder's Phase2a, and the
    /// holder's own Phase 1 re-establishes it
    /// ([`StorageNodeProcess::current_leader`]).
    pub(super) fn on_propose_mastered(
        &mut self,
        from: NodeId,
        origin_dc: DcId,
        proposal: Proposal,
        ctx: &mut MdccCtx<'_>,
    ) {
        self.release_awaited(ctx);
        let opts: Vec<TxnOption> = proposal.options().collect();
        let placement = &self.placement;
        let shards = grouped(opts.iter().map(|o| ([placement.shard_id(&o.key)], o)));
        let mut led_here = Vec::new();
        for (shard, group) in shards {
            let route = self.lease_route(shard, ctx);
            if self.settle(route, shard, (from, origin_dc), group, ctx) {
                led_here.push(shard);
            }
        }
        for opt in opts {
            if led_here.contains(&self.placement.shard_id(&opt.key)) {
                self.lead_classic(from, opt, ctx);
            }
        }
    }

    /// Where `shard`'s mastered options go at this node now — the one
    /// decision for an option that arrives and for one held here. A node
    /// that is making the lease ([`Mastership::awaiting`]) holds them
    /// until it serves, then leads them at the lease ballot with no
    /// Phase 1: leading them now would run a Phase 1 that competes with
    /// the lease about to carry it. They wait for one lease ballot: once
    /// that acquisition is refused or lapses, they are led as a node with
    /// no lease leads them, even if the node is already making another.
    fn lease_route(&self, shard: u32, ctx: &MdccCtx<'_>) -> Route {
        let Some(ms) = &self.mastership else {
            return Route::Unleased;
        };
        let now = ctx.now;
        if ms.is_serving(shard, now) {
            return Route::Serve;
        }
        if let Some(node) = ms.holder(shard, now).filter(|n| *n != ctx.self_id) {
            return Route::Forward(node);
        }
        let held = self.awaited.get(&shard).map(|w| w.ballot);
        match ms.awaiting(shard, now) {
            Some(ballot) if held.is_none_or(|b| b == ballot) => Route::Await(ballot),
            // No live lease this node knows of or is making (election
            // still in progress), or the one it was making did not come:
            // lead classically. Safe regardless of leases — classic
            // Paxos ballots arbitrate — and keeps writes available
            // through election windows.
            _ => Route::Unleased,
        }
    }

    /// Sends one `ProposeMastered`'s options of `shard` where `route`
    /// says, counting each; returns whether they are to be led here.
    fn settle(
        &mut self,
        route: Route,
        shard: u32,
        (from, origin_dc): (NodeId, DcId),
        options: Vec<&TxnOption>,
        ctx: &mut MdccCtx<'_>,
    ) -> bool {
        let Some(ms) = self.mastership.as_mut() else {
            return true;
        };
        for _ in &options {
            match route {
                Route::Serve => ms.note_served(shard, origin_dc),
                Route::Forward(_) => ms.note_forwarded(),
                Route::Await(_) => ms.note_awaited(),
                Route::Unleased => ms.note_unleased(),
            }
        }
        match route {
            Route::Serve | Route::Unleased => return true,
            Route::Forward(node) => {
                // Not the holder, but we know who is: forward the shard's
                // options and teach their coordinator the route.
                // (Options of one proposal always make one: the `else`
                // leads them rather than drop them.)
                let coordinator = options.first().map(|o| o.txn.coordinator);
                let (Some(coordinator), Some(proposal)) = (coordinator, Proposal::of(options))
                else {
                    return true;
                };
                ctx.send(coordinator, Msg::MasterHint { shard, node });
                let msg = Msg::ProposeMastered {
                    origin_dc,
                    proposal,
                };
                ctx.send(node, msg);
            }
            Route::Await(ballot) => {
                let options = options.into_iter().cloned().collect();
                let held = (from, origin_dc, ctx.now, options);
                let awaited = self.awaited.entry(shard).or_insert_with(|| Awaited {
                    ballot,
                    held: Vec::new(),
                });
                awaited.held.push(held);
            }
        }
        false
    }

    /// Re-makes the decision for the options held for a lease, after each
    /// mastership input and before a new proposal: a shard whose route
    /// is no longer to wait has its options settled as they arrived,
    /// shard by shard in id order and in arrival order within one.
    fn release_awaited(&mut self, ctx: &mut MdccCtx<'_>) {
        let shards: Vec<u32> = self.awaited.keys().copied().collect();
        for shard in shards {
            let route = self.lease_route(shard, ctx);
            if matches!(route, Route::Await(_)) {
                continue;
            }
            let Some(awaited) = self.awaited.remove(&shard) else {
                continue;
            };
            for (from, origin_dc, arrived, options) in awaited.held {
                if let Some(ms) = self.mastership.as_mut() {
                    ms.note_released(options.len(), ctx.now.since(arrived));
                }
                let held = options.iter().collect();
                if self.settle(route, shard, (from, origin_dc), held, ctx) {
                    for opt in options {
                        self.lead_classic(from, opt, ctx);
                    }
                }
            }
        }
    }

    pub(super) fn on_mastership(&mut self, from: NodeId, inner: MsMsg, ctx: &mut MdccCtx<'_>) {
        self.ask_after_silence(ctx);
        let mut out = Vec::new();
        if let Some(ms) = self.mastership.as_mut() {
            ms.on_msg(from, inner, ctx.now, &mut out);
        }
        self.flush_ms_actions(out, ctx);
    }

    /// The first mastership message after a silence longer than a lease:
    /// grantors hear each holder's renewal every heartbeat, so this node
    /// was cut off and may have missed appends to streams it is in, which
    /// skip the base check. It asks each stream's leader for the instance
    /// so far ([`RecordStore::led_elsewhere`]; [`Self::on_behind`]).
    fn ask_after_silence(&mut self, ctx: &mut MdccCtx<'_>) {
        let silent = ctx.now.since(self.ms_heard) > LEASE_DURATION;
        self.ms_heard = ctx.now;
        if !silent {
            return;
        }
        for (key, ballot) in self.store.led_elsewhere(ctx.self_id) {
            self.stats.rejoin_asks += 1;
            ctx.send(ballot.proposer, Msg::P2aBehind { key, ballot });
        }
    }

    /// A Phase1a: the promise is logged as the ballot alone and answered
    /// without what the Phase1a names ([`mdcc_paxos::Phase1b::leave_out`]).
    /// The cstruct it reports is kept while the promise is open: the
    /// recovery round may name it by digest although an outcome changed
    /// the record since.
    pub(super) fn on_phase1a(
        &mut self,
        from: NodeId,
        key: Key,
        named: Phase1a,
        ctx: &mut MdccCtx<'_>,
    ) {
        self.enforce_floor(&key, ctx);
        let ballot = named.ballot;
        self.wal_append(ctx, |_| {
            [WalRecord::Phase1a {
                key: key.clone(),
                ballot,
            }]
        });
        let promise = self.store.phase1a(&key, ballot);
        if let Some((_, held)) = (promise.accepted.as_ref()).filter(|_| promise.promised == ballot)
        {
            self.reported.insert(key.clone(), (ballot, held.clone()));
        }
        let payload = promise.leave_out(&named);
        ctx.send(from, Msg::P1b { key, payload });
    }

    pub(super) fn on_phase1b(
        &mut self,
        from: NodeId,
        key: Key,
        payload: Promise,
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
        if let Some(round) = answer {
            let rounds = Phase2aRounds(vec![(key, round)]);
            ctx.send(from, Msg::P2a { rounds });
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

    /// Puts back the proved-safe cstruct a recovery round names by digest
    /// from the record's cstruct or the copy its promise reported
    /// ([`mdcc_paxos::AcceptorRecord::resolve_base`], whose error is the
    /// answer when neither has it). A round at the promise's ballot or
    /// above closes the promise and drops the copy.
    fn resolve_base(&mut self, key: &Key, payload: &mut Phase2a) -> Result<(), ClassicAccept> {
        let open = self.reported.get(key).map(|(b, _)| *b);
        let copy = match open {
            Some(b) if payload.ballot >= b => self.reported.remove(key).map(|(_, c)| c),
            _ => None,
        };
        let copy = copy.as_ref();
        if !matches!(payload.base, Base::NamedSafe(_)) {
            return Ok(());
        }
        let resolved = self
            .store
            .with_record(key, |r| r.resolve_base(payload, copy));
        resolved.unwrap_or(Err(ClassicAccept::Behind))
    }

    /// A Phase2a arrived: the lean broadcast, or the leader's answer to
    /// this node's `P2aBehind`. Some answers are given ahead of the WAL,
    /// with nothing logged or mutated: the ask, when the record has not
    /// reached the instance and the payload carries no snapshot to get
    /// there from; the base check's Nack; and whatever a recovery round
    /// whose named base this node cannot put back gets (an ask, or the
    /// Nack or `Stale` it would get whole). What is logged is what the
    /// acceptor went on to judge, with a named base put back. The vote
    /// goes to the coordinators that can still learn from it and not back
    /// to `from`: a master is no learner.
    pub(super) fn on_phase2a(
        &mut self,
        from: NodeId,
        key: Key,
        mut payload: Phase2a,
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
        let before = self.store.version_of(&key);
        let judged = match self.resolve_base(&key, &mut payload) {
            // A named base this node cannot put back: answered with
            // nothing logged, as an ask or a refused base is.
            Err(answer) => {
                let asks = matches!(answer, ClassicAccept::Behind);
                self.stats.unresolved_bases += u64::from(asks);
                answer
            }
            Ok(()) => {
                self.wal_append(ctx, |at| {
                    [WalRecord::ClassicAccept {
                        at,
                        key: key.clone(),
                        payload: Box::new(payload.clone()),
                    }]
                });
                self.store.classic_accept(&key, payload, ctx.now)
            }
        };
        match judged {
            ClassicAccept::Vote(vote) => {
                self.stats.classic_votes += 1;
                self.fan_out_vote(&key, &vote, None);
            }
            ClassicAccept::Nack { promised } => {
                let key = key.clone();
                ctx.send(from, Msg::P2aNack { key, promised });
            }
            ClassicAccept::Stale { snapshot } => {
                let key = key.clone();
                ctx.send(from, Msg::P2aStale { key, snapshot });
            }
            ClassicAccept::Behind => {
                // The named base's ask; the record's being behind is
                // asked about above, before anything else.
                let key = key.clone();
                ctx.send(from, Msg::P2aBehind { key, ballot });
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::placement::MasterPolicy;
    use mdcc_common::{StaticPlacement, TableId};
    use mdcc_recovery::recovered_lease_state;

    /// Five data centers, two shards: nodes 0–4 hold shard 0, 5–9 shard 1.
    fn placement() -> std::sync::Arc<StaticPlacement> {
        let matrix = (0..5).map(|dc| vec![NodeId(dc), NodeId(5 + dc)]).collect();
        StaticPlacement::new(matrix, MasterPolicy::FixedDc(DcId(0)))
    }

    fn key(i: u32) -> Key {
        Key::new(TableId(0), format!("r{i}"))
    }

    /// Node 0's mastership layer, granting for both shards (`granted`:
    /// the floors a restart recovered).
    fn layer(granted: &[(u32, MsBallot)]) -> Mastership {
        let groups = vec![
            (0, (0..5).map(NodeId).collect()),
            (1, vec![NodeId(0), NodeId(6)]),
        ];
        Mastership::new(NodeId(0), DcId(0), groups, None, granted)
    }

    /// A peer asks node 0 for `shard`'s lease at `ballot`.
    fn acquire(ms: &mut Mastership, shard: u32, ballot: MsBallot) {
        let expiry = SimTime::from_millis(400);
        let msg = MsMsg::Acquire {
            shard,
            ballot,
            expiry,
            relinquished: None,
        };
        ms.on_msg(
            ballot.node(),
            msg,
            SimTime::from_millis(10),
            &mut Vec::new(),
        );
    }

    #[test]
    fn a_records_floor_follows_its_shards_grants_alone() {
        let placement = placement();
        let mut ms = layer(&[]);
        let k = key(1);
        let shard = placement.shard_id(&k);
        let floor = |ms: &Mastership| lease_floor(Some(ms), &*placement, &k);
        assert_eq!(floor(&ms), None, "no lease granted yet");
        acquire(&mut ms, shard, MsBallot::new(6, 3));
        assert_eq!(floor(&ms), Some(Ballot::lease(6, NodeId(3))));
        acquire(&mut ms, shard, MsBallot::new(8, 1));
        assert_eq!(floor(&ms), Some(Ballot::lease(8, NodeId(1))));
        acquire(&mut ms, shard, MsBallot::new(7, 4));
        assert_eq!(floor(&ms), Some(Ballot::lease(8, NodeId(1))), "refused");
        acquire(&mut ms, 1 - shard, MsBallot::new(9, 6));
        assert_eq!(floor(&ms), Some(Ballot::lease(8, NodeId(1))));
    }

    #[test]
    fn checkpointed_floors_fold_and_reseed_to_the_same_floors() {
        let placement = placement();
        let mut ms = layer(&[]);
        acquire(&mut ms, 1, MsBallot::new(4, 6));
        acquire(&mut ms, 0, MsBallot::new(2, 3));
        acquire(&mut ms, 0, MsBallot::new(2, 1));

        let records = floor_records(Some(&ms));
        assert_eq!(records.len(), 2);
        let fresh = layer(&recovered_floors(recovered_lease_state(&records)));
        let again = floor_records(Some(&fresh));
        assert_eq!(format!("{again:?}"), format!("{records:?}"));
        for i in 0..40 {
            let floor = |ms| lease_floor(Some(ms), &*placement, &key(i));
            assert!(floor(&ms).is_some());
            assert_eq!(floor(&fresh), floor(&ms));
        }
    }

    #[test]
    fn with_mastership_off_there_is_no_floor_and_nothing_to_relog() {
        let placement = placement();
        for i in 0..40 {
            assert_eq!(lease_floor(None, &*placement, &key(i)), None);
        }
        assert!(floor_records(None).is_empty());
    }
}
