//! The transaction manager's reads (§4.2): local read-committed or
//! up-to-date quorum reads, one request per (read, node).
//!
//! A read of k keys sends each node it asks one `ReadReq` naming every
//! key it is asked for there, under a request id of its own; the node
//! answers one `ReadResp` with a row per key, in request order, without
//! the keys. Every request sent — retries and broadcast fallbacks too —
//! gets a fresh id, and the read keeps each id's key list until it ends,
//! so a late reply to an earlier request is paired with that request's
//! keys. A reply whose row count is not its request's key count is
//! dropped and counted, never paired short.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use mdcc_common::config::LEARN_TIMEOUT;
use mdcc_common::{Key, NodeId, Row, Version};
use mdcc_sim::event::TimerId;

use super::{ReadConsistency, TmEvent, TransactionManager};
use crate::msg::{grouped, MdccCtx, Msg, Tick};

/// The reads a TM has in flight.
#[derive(Debug, Default)]
pub(super) struct Reads {
    /// The next read token or request id: one counter, so both are
    /// fresh.
    next: u64,
    /// The read (token) each request id belongs to, until the read ends.
    requests: HashMap<u64, u64>,
    /// The reads in flight, by token.
    tasks: HashMap<u64, ReadTask>,
}

impl Reads {
    fn fresh_id(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }
}

#[derive(Debug)]
struct ReadTask {
    consistency: ReadConsistency,
    needed: usize,
    /// Per-key responses, keyed by responder so retry re-broadcasts
    /// cannot count one replica twice toward an up-to-date quorum.
    responses: HashMap<Key, Vec<(NodeId, Version, Option<Row>)>>,
    keys: Vec<Key>,
    /// The keys of every request this read sent, by request id.
    sent: HashMap<u64, Vec<Key>>,
    /// Re-issue timer: a read request or response lost to the network
    /// (or to a crashed replica) must not stall the client forever.
    timer: TimerId,
    retries: u32,
}

impl ReadTask {
    /// The keys still short of the responses they need.
    fn missing(&self) -> impl Iterator<Item = &Key> {
        let short = |k: &&Key| self.responses.get(*k).map_or(0, Vec::len) < self.needed;
        self.keys.iter().filter(short)
    }
}

impl TransactionManager {
    /// Issues a read of `keys`; the result arrives later as
    /// [`TmEvent::ReadDone`] carrying the returned token.
    pub fn read(
        &mut self,
        keys: Vec<Key>,
        consistency: ReadConsistency,
        ctx: &mut MdccCtx<'_>,
    ) -> u64 {
        let token = self.reads.fresh_id();
        let needed = match consistency {
            ReadConsistency::Local => 1,
            ReadConsistency::UpToDate => self.cfg.protocol.classic_quorum,
        };
        let sent = self.send_reads(token, &keys, consistency, false, ctx);
        let timer = ctx.set_timer(LEARN_TIMEOUT, Tick::ReadRetry { token });
        let task = ReadTask {
            consistency,
            needed,
            responses: HashMap::new(),
            keys,
            sent,
            timer,
            retries: 0,
        };
        self.reads.tasks.insert(token, task);
        token
    }

    /// Sends read `token`'s requests for `keys`: each node one `ReadReq`
    /// under a fresh id, naming every key it is asked for. Returns the
    /// keys sent under each id. `broadcast` widens a local read to every
    /// replica — the fallback when the local replica looks dead (crashed
    /// node, §3.2.3's "any storage node" principle applies to reads too).
    fn send_reads(
        &mut self,
        token: u64,
        keys: &[Key],
        consistency: ReadConsistency,
        broadcast: bool,
        ctx: &mut MdccCtx<'_>,
    ) -> HashMap<u64, Vec<Key>> {
        let routed = keys.iter().map(|key| {
            let targets = match consistency {
                ReadConsistency::Local if !broadcast => {
                    vec![self.placement.replica_in(key, self.cfg.my_dc)]
                }
                _ => self.placement.replicas(key),
            };
            (targets, key.clone())
        });
        let mut sent = HashMap::new();
        for (node, keys) in grouped(routed) {
            let req = self.reads.fresh_id();
            self.reads.requests.insert(req, token);
            let msg = Msg::ReadReq {
                req,
                keys: keys.clone(),
            };
            ctx.send(node, msg);
            sent.insert(req, keys);
        }
        sent
    }

    /// Re-issues the still-missing reads of a stalled batch. After a
    /// couple of attempts the local replica is presumed dead and the
    /// read fans out to every replica (the first response wins).
    pub(super) fn retry_read(&mut self, token: u64, ctx: &mut MdccCtx<'_>) {
        let Some(task) = self.reads.tasks.get_mut(&token) else {
            return;
        };
        task.retries += 1;
        let broadcast = task.retries >= 2;
        let missing: Vec<Key> = task.missing().cloned().collect();
        let consistency = task.consistency;
        let backoff = LEARN_TIMEOUT * (1u64 << task.retries.min(4));
        task.timer = ctx.set_timer(backoff, Tick::ReadRetry { token });
        let sent = self.send_reads(token, &missing, consistency, broadcast, ctx);
        if let Some(task) = self.reads.tasks.get_mut(&token) {
            task.sent.extend(sent);
        }
    }

    /// Replica `from` answered read request `req`: one row per key the
    /// request named, paired with them in order. A reply of the wrong
    /// length is dropped as malformed, never paired short.
    pub(super) fn on_read_resp(
        &mut self,
        from: NodeId,
        req: u64,
        rows: Vec<(Version, Option<Row>)>,
        ctx: &mut MdccCtx<'_>,
    ) -> Vec<TmEvent> {
        let Some(&token) = self.reads.requests.get(&req) else {
            return Vec::new();
        };
        let Entry::Occupied(mut entry) = self.reads.tasks.entry(token) else {
            return Vec::new();
        };
        let task = entry.get_mut();
        let Some(keys) = task.sent.get(&req).filter(|keys| keys.len() == rows.len()) else {
            self.stats.malformed_replies += 1;
            return Vec::new();
        };
        for (key, (version, value)) in keys.iter().zip(rows) {
            let responses = task.responses.entry(key.clone()).or_default();
            // A duplicate from a replica already counted (retry
            // re-broadcast) is skipped: an up-to-date quorum must be
            // distinct replicas or it no longer intersects write quorums.
            if !responses.iter().any(|(n, _, _)| *n == from) {
                responses.push((from, version, value));
            }
        }
        if task.missing().next().is_some() {
            return Vec::new();
        }
        let task = entry.remove();
        ctx.cancel_timer(task.timer);
        for req in task.sent.keys() {
            self.reads.requests.remove(req);
        }
        let values = task
            .keys
            .iter()
            .map(|k| {
                let responses = &task.responses[k];
                let best = match task.consistency {
                    ReadConsistency::Local => responses.first(),
                    ReadConsistency::UpToDate => responses.iter().max_by_key(|(_, v, _)| *v),
                };
                let (_, version, value) = best.cloned().unwrap_or((NodeId(0), Version::ZERO, None));
                (k.clone(), version, value)
            })
            .collect();
        vec![TmEvent::ReadDone { token, values }]
    }
}
