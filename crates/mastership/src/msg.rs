//! The wire messages of the mastership protocols and their codecs.

use mdcc_common::wire::{err, Dec, Enc, Wire, WireResult};
use mdcc_common::{NodeId, SimTime};

use crate::ballot::Ballot;

/// A gossiped routing hint: the highest-ballot lease a node knows of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HolderHint {
    /// Lease ballot.
    pub ballot: Ballot,
    /// Holder node.
    pub node: NodeId,
    /// When the lease (as last seen) expires.
    pub expiry: SimTime,
}

impl Wire for HolderHint {
    fn encode(&self, out: &mut Enc) {
        self.ballot.encode(out);
        self.node.encode(out);
        self.expiry.encode(out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(Self {
            ballot: Ballot::decode(inp)?,
            node: NodeId::decode(inp)?,
            expiry: SimTime::decode(inp)?,
        })
    }
}

/// Mastership protocol messages, exchanged among a shard's replica
/// group (the host wraps them in its own message enum for transport).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsMsg {
    /// Heartbeat round probe.
    HbReq {
        /// Shard concerned.
        shard: u32,
        /// Sender's heartbeat round.
        round: u32,
    },
    /// Heartbeat reply: the replier's top ballot plus a lease-routing
    /// hint (how non-holders and late joiners learn the current
    /// master).
    HbReply {
        /// Shard concerned.
        shard: u32,
        /// Echoed round.
        round: u32,
        /// Replier's top ballot (candidacy or granted).
        ballot: Ballot,
        /// Highest-ballot lease the replier knows of.
        holder: Option<HolderHint>,
    },
    /// Acquire (fresh election or handoff) or renew (same ballot as
    /// already granted) a lease until `expiry`.
    Acquire {
        /// Shard concerned.
        shard: u32,
        /// Lease ballot (the candidate's election ballot).
        ballot: Ballot,
        /// Requested lease end.
        expiry: SimTime,
        /// The predecessor ballot, when the previous holder voluntarily
        /// relinquished (handoff): its expiry need not be waited out.
        relinquished: Option<Ballot>,
    },
    /// Lease granted.
    Grant {
        /// Shard concerned.
        shard: u32,
        /// Echoed ballot.
        ballot: Ballot,
        /// Echoed expiry (distinguishes renewal generations).
        expiry: SimTime,
        /// The grantor's previous grant `(ballot, expiry)` — the
        /// safety-critical datum: a fresh holder must not serve before
        /// the max of these across its grant quorum.
        prev: Option<(Ballot, SimTime)>,
    },
    /// Lease refused: the grantor already promised a higher ballot.
    Reject {
        /// Shard concerned.
        shard: u32,
        /// The grantor's top ballot.
        max: Ballot,
    },
    /// Voluntary migration: the holder relinquishes and nominates the
    /// target (ballot's pid) with the next ballot number.
    Handoff {
        /// Shard concerned.
        shard: u32,
        /// Candidacy ballot minted for the target.
        ballot: Ballot,
        /// The relinquished (old holder's) ballot.
        relinquished: Ballot,
    },
}

impl MsMsg {
    /// The shard the message concerns.
    pub fn shard(&self) -> u32 {
        match self {
            MsMsg::HbReq { shard, .. }
            | MsMsg::HbReply { shard, .. }
            | MsMsg::Acquire { shard, .. }
            | MsMsg::Grant { shard, .. }
            | MsMsg::Reject { shard, .. }
            | MsMsg::Handoff { shard, .. } => *shard,
        }
    }
}

impl Wire for MsMsg {
    fn encode(&self, out: &mut Enc) {
        match self {
            MsMsg::HbReq { shard, round } => {
                out.u8(0);
                out.u32(*shard);
                out.u32(*round);
            }
            MsMsg::HbReply {
                shard,
                round,
                ballot,
                holder,
            } => {
                out.u8(1);
                out.u32(*shard);
                out.u32(*round);
                ballot.encode(out);
                holder.encode(out);
            }
            MsMsg::Acquire {
                shard,
                ballot,
                expiry,
                relinquished,
            } => {
                out.u8(2);
                out.u32(*shard);
                ballot.encode(out);
                expiry.encode(out);
                relinquished.encode(out);
            }
            MsMsg::Grant {
                shard,
                ballot,
                expiry,
                prev,
            } => {
                out.u8(3);
                out.u32(*shard);
                ballot.encode(out);
                expiry.encode(out);
                prev.encode(out);
            }
            MsMsg::Reject { shard, max } => {
                out.u8(4);
                out.u32(*shard);
                max.encode(out);
            }
            MsMsg::Handoff {
                shard,
                ballot,
                relinquished,
            } => {
                out.u8(5);
                out.u32(*shard);
                ballot.encode(out);
                relinquished.encode(out);
            } // Tag 6 (the per-record override table a relinquishing
              // holder shipped to its successor) is retired, not reused.
        }
    }

    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(match inp.u8()? {
            0 => MsMsg::HbReq {
                shard: inp.u32()?,
                round: inp.u32()?,
            },
            1 => MsMsg::HbReply {
                shard: inp.u32()?,
                round: inp.u32()?,
                ballot: Ballot::decode(inp)?,
                holder: Option::decode(inp)?,
            },
            2 => MsMsg::Acquire {
                shard: inp.u32()?,
                ballot: Ballot::decode(inp)?,
                expiry: SimTime::decode(inp)?,
                relinquished: Option::decode(inp)?,
            },
            3 => MsMsg::Grant {
                shard: inp.u32()?,
                ballot: Ballot::decode(inp)?,
                expiry: SimTime::decode(inp)?,
                prev: Option::decode(inp)?,
            },
            4 => MsMsg::Reject {
                shard: inp.u32()?,
                max: Ballot::decode(inp)?,
            },
            5 => MsMsg::Handoff {
                shard: inp.u32()?,
                ballot: Ballot::decode(inp)?,
                relinquished: Ballot::decode(inp)?,
            },
            _ => return err("mastership msg tag"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::wire::from_bytes;

    #[test]
    fn retired_tags_decode_to_an_error() {
        // 6 was the per-record override table; a peer still sending it
        // gets `Err`, not a panic or another message.
        let mut bytes = Enc::new();
        bytes.u8(6);
        bytes.u32(2);
        bytes.u32(0);
        assert!(from_bytes::<MsMsg>(bytes.as_slice()).is_err());
    }
}
