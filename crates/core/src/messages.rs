//! PID-CAN wire messages.
//!
//! Three query-phase messages (§III-C: duty-query, index-agent, index-jump)
//! plus the state-update and index-diffusion messages of §III-A/B and the
//! FoundList notification of Algorithm 5.

use soc_overlay::Candidate;
use soc_types::{NodeId, QueryId, ResVec};

/// Everything PID-CAN puts on the wire.
///
/// One event carries one message through `Effect` → event queue → handler,
/// so the enum stays small: the hot diffusion message is inline, and every
/// fat body sits behind a `Box` that travels with the message — a relaying
/// hop updates the body in place and re-sends the same box.
#[derive(Clone, Debug)]
pub enum PidMsg {
    /// A node's availability record being routed to its duty node.
    StateUpdate(Box<StateUpdate>),
    /// Index-diffusion message `{ID, dim_NO, dim_TTL}` (Algorithms 1–2).
    Index {
        /// Identifier being diffused (a node whose cache is non-empty).
        id: NodeId,
        /// Dimension currently being propagated (1-based in the paper;
        /// 0-based here).
        dim_no: usize,
        /// Remaining same-dimension relay budget (`q`); 0 under SID.
        dim_ttl: usize,
    },
    /// Query routing toward the duty node (Algorithm 3).
    DutyQuery(Box<DutyQuery>),
    /// Index-agent message `{v, ι − α}` (Algorithm 4): the search arriving
    /// at an agent, which samples a fresh jump list from its PIList.
    IndexAgent(Box<Search>),
    /// Index-jump message `{v, δ, j − β}` (Algorithm 5).
    IndexJump(Box<Search>),
    /// FoundList `ϕ` notification to the requester.
    Found {
        /// Query identity.
        qid: QueryId,
        /// Qualified records discovered at one index node.
        candidates: Vec<Candidate>,
    },
    /// End-of-search notice to the requester (the searcher exhausted both
    /// its jump list and the agent list), so SoS can decide on a retry.
    Exhausted {
        /// Query identity.
        qid: QueryId,
    },
}

const _: () = assert!(std::mem::size_of::<PidMsg>() <= 32);

/// Body of [`PidMsg::StateUpdate`].
#[derive(Clone, Debug)]
pub struct StateUpdate {
    /// Node the record describes.
    pub subject: NodeId,
    /// Its availability vector (raw units).
    pub avail: ResVec,
    /// CAN key-space target (normalized availability, plus the virtual
    /// coordinate under VD).
    pub target: ResVec,
    /// Remaining routing-hop budget. Routing descends strictly, so it only
    /// runs out when churn keeps detouring the walk; the record is then
    /// dropped and counted in `PidDiag::route_exhausted`.
    pub hops_left: u32,
}

/// Body of [`PidMsg::DutyQuery`].
#[derive(Clone, Debug)]
pub struct DutyQuery {
    /// Query identity.
    pub qid: QueryId,
    /// Requester (receives FoundList notifications).
    pub requester: NodeId,
    /// Demand vector being matched (raw units; under SoS this is the
    /// slacked `e'`).
    pub demand: ResVec,
    /// CAN key-space target (normalized demand).
    pub target: ResVec,
    /// Results still wanted (`δ`).
    pub delta: usize,
    /// Remaining routing-hop budget (bounds the query delay; exhausting
    /// it fails the query rather than wandering forever).
    pub hops_left: u32,
}

/// The travelling search state of Algorithms 4–5, shared by
/// [`PidMsg::IndexAgent`] and [`PidMsg::IndexJump`]: one box follows the
/// search from agent to jump targets and back to the next agent.
#[derive(Clone, Debug)]
pub struct Search {
    /// Query identity.
    pub qid: QueryId,
    /// Requester.
    pub requester: NodeId,
    /// Demand vector (raw units).
    pub demand: ResVec,
    /// Results still wanted.
    pub delta: usize,
    /// Remaining jump targets (`j`); empty on the way to an agent.
    pub jumps: Vec<NodeId>,
    /// Remaining agents (`ι` minus already-consumed ones).
    pub agents: Vec<NodeId>,
    /// Remaining jump-hop budget (query delay bound); set by the agent.
    pub budget: usize,
}

impl PidMsg {
    /// Short label for traces and tests.
    pub fn label(&self) -> &'static str {
        match self {
            PidMsg::StateUpdate(_) => "state-update",
            PidMsg::Index { .. } => "index",
            PidMsg::DutyQuery(_) => "duty-query",
            PidMsg::IndexAgent(_) => "index-agent",
            PidMsg::IndexJump(_) => "index-jump",
            PidMsg::Found { .. } => "found",
            PidMsg::Exhausted { .. } => "exhausted",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let search = Search {
            qid: QueryId(0),
            requester: NodeId(0),
            demand: ResVec::zeros(2),
            delta: 1,
            jumps: vec![],
            agents: vec![],
            budget: 8,
        };
        let msgs = [
            PidMsg::StateUpdate(Box::new(StateUpdate {
                subject: NodeId(0),
                avail: ResVec::zeros(2),
                target: ResVec::zeros(2),
                hops_left: 8,
            })),
            PidMsg::Index {
                id: NodeId(0),
                dim_no: 0,
                dim_ttl: 2,
            },
            PidMsg::DutyQuery(Box::new(DutyQuery {
                qid: QueryId(0),
                requester: NodeId(0),
                demand: ResVec::zeros(2),
                target: ResVec::zeros(2),
                delta: 1,
                hops_left: 8,
            })),
            PidMsg::IndexAgent(Box::new(search.clone())),
            PidMsg::IndexJump(Box::new(search)),
            PidMsg::Found {
                qid: QueryId(0),
                candidates: vec![],
            },
            PidMsg::Exhausted { qid: QueryId(0) },
        ];
        let mut labels: Vec<&str> = msgs.iter().map(|m| m.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), msgs.len());
    }
}
