//! The wire messages of the mastership protocols and their codecs.

use mdcc_common::{wire, NodeId, SimTime};

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

wire!(struct HolderHint { ballot, node, expiry });

/// Mastership protocol messages, exchanged among a shard's replica
/// group (the host wraps them in its own message enum for transport).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsMsg {
    /// Heartbeat round probe. Sent only by a replica that knows of no
    /// lease outliving its next two ticks — while a holder renews, its
    /// `Acquire` is the heartbeat — and always answered.
    HbReq {
        /// Shard concerned.
        shard: u32,
        /// Sender's heartbeat round.
        round: u32,
    },
    /// Heartbeat reply: the replier's top ballot plus a lease-routing
    /// hint (how a restarted replica, or one whose lease is running out,
    /// learns the current master).
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
    /// already granted) a lease until `expiry`. A renewal is also the
    /// holder's heartbeat: grantors that receive it do not probe.
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
        /// Echoed expiry: the grantor acked the ballot until then (a
        /// holder counts each grantor's latest).
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
    /// Voluntary migration: the holder relinquishes, nominates the
    /// target (ballot's pid) with the next ballot number, and asks every
    /// replica for the target's lease. The target begins its acquisition
    /// with `expiry`; any other replica answers as it would the target's
    /// `Acquire { ballot, expiry, relinquished }`, to the target. The
    /// holder has granted it already.
    Handoff {
        /// Shard concerned.
        shard: u32,
        /// Candidacy ballot minted for the target.
        ballot: Ballot,
        /// The relinquished (old holder's) ballot.
        relinquished: Ballot,
        /// The target's lease end, as the holder minted it.
        expiry: SimTime,
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

wire!(enum MsMsg, "mastership msg tag" {
    0 => HbReq { shard, round },
    1 => HbReply { shard, round, ballot, holder },
    2 => Acquire { shard, ballot, expiry, relinquished },
    3 => Grant { shard, ballot, expiry, prev },
    4 => Reject { shard, max },
    5 => Handoff { shard, ballot, relinquished, expiry },
    // Tag 6 (the per-record override table a relinquishing holder
    // shipped to its successor) is retired, not reused.
});

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::wire::{fnv1a64, from_bytes, to_bytes, Enc};
    use mdcc_common::SimDuration;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Every variant, both forms of each `Option` field.
    fn samples() -> Vec<MsMsg> {
        let hint = HolderHint {
            ballot: Ballot::new(2, 4),
            node: NodeId(4),
            expiry: at(500),
        };
        vec![
            MsMsg::HbReq { shard: 3, round: 7 },
            MsMsg::HbReply {
                shard: 3,
                round: 200,
                ballot: Ballot::new(2, 4),
                holder: Some(hint),
            },
            MsMsg::HbReply {
                shard: 3,
                round: 7,
                ballot: Ballot::default(),
                holder: None,
            },
            MsMsg::Acquire {
                shard: 1,
                ballot: Ballot::new(3, 2),
                expiry: at(900),
                relinquished: Some(Ballot::new(2, 0)),
            },
            MsMsg::Acquire {
                shard: 1,
                ballot: Ballot::new(3, 2),
                expiry: at(900),
                relinquished: None,
            },
            MsMsg::Grant {
                shard: 1,
                ballot: Ballot::new(3, 2),
                expiry: at(900),
                prev: Some((Ballot::new(2, 0), at(650))),
            },
            MsMsg::Grant {
                shard: 1,
                ballot: Ballot::new(3, 2),
                expiry: at(900),
                prev: None,
            },
            MsMsg::Reject {
                shard: 1,
                max: Ballot::new(5, 300),
            },
            MsMsg::Handoff {
                shard: 2,
                ballot: Ballot::new(4, 1),
                relinquished: Ballot::new(3, 0),
                expiry: at(1_300),
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for msg in samples() {
            assert_eq!(from_bytes::<MsMsg>(&to_bytes(&msg)), Ok(msg));
        }
    }

    #[test]
    fn sample_bytes_are_pinned() {
        // One FNV-1a/64 digest of the samples' encodings back to back.
        // Re-pinned (0x6293_f0f7_6d35_cc10 before) when `Handoff` gained
        // `expiry`, the target's lease end its predecessor mints.
        let bytes: Vec<u8> = samples().iter().flat_map(to_bytes).collect();
        assert_eq!(fnv1a64(&bytes), 0xabed_c65f_c8c6_9841);
    }

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
