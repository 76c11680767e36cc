//! Two-sided certificates: the report type, constructive witnesses,
//! obstruction witnesses, and witness materialisation into a routing
//! table the existing pipeline can re-certify.

use wormnet::{ChannelId, Network, NodeId};
use wormroute::{RouteError, TableRouting};

use crate::reach::ReachGame;

/// The engine's answer to "does any deadlock-free routing exist?".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExistenceVerdict {
    /// A complete acyclic-CDG routing exists; [`ExistenceReport::witness`]
    /// carries the channel schedule it is extracted from.
    Exists,
    /// No acyclic-CDG routing can exist;
    /// [`ExistenceReport::obstruction`] carries the violating
    /// sub-network.
    Impossible,
    /// The engine's certificate budgets were exhausted without a
    /// certificate from either side.
    Unknown,
}

impl ExistenceVerdict {
    /// Stable lowercase name used in JSON documents and reports.
    pub fn name(&self) -> &'static str {
        match self {
            ExistenceVerdict::Exists => "exists",
            ExistenceVerdict::Impossible => "impossible",
            ExistenceVerdict::Unknown => "unknown",
        }
    }
}

/// How a strongly connected component's winning order was found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WitnessKind {
    /// One or two nodes: every channel order wins.
    Trivial,
    /// Edge-disjoint in/out spanning branchings rooted at a hub node.
    Branchings {
        /// The hub both branchings are rooted at.
        root: NodeId,
    },
    /// Greedy maximum-marginal-gain schedule.
    Schedule,
    /// Exhaustive memoised reach-game search.
    Exact,
}

impl WitnessKind {
    /// Stable lowercase name used in JSON documents and reports.
    pub fn name(&self) -> &'static str {
        match self {
            WitnessKind::Trivial => "trivial",
            WitnessKind::Branchings { .. } => "branchings",
            WitnessKind::Schedule => "schedule",
            WitnessKind::Exact => "exact",
        }
    }
}

/// Per-component provenance of the constructive witness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentWitness {
    /// How the component's winning order was found.
    pub kind: WitnessKind,
    /// Nodes in the component.
    pub nodes: usize,
    /// Live channels internal to the component.
    pub channels: usize,
}

/// Constructive existence witness: a total order on the live channels
/// that wins the reach game (see the crate docs for the condition).
///
/// The order is the certificate. Any consecutive pair of channels on a
/// path extracted from it ascends in the order, so the materialised
/// routing's channel-dependency graph is acyclic by construction;
/// [`witness_table`] performs the extraction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// Every live channel exactly once, in schedule order.
    pub order: Vec<ChannelId>,
    /// Per-component provenance, in condensation topological order.
    pub components: Vec<ComponentWitness>,
}

/// Why no deadlock-free routing can exist.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObstructionKind {
    /// A strongly connected component with `n ≥ 3` nodes has fewer
    /// than `2n − 2` internal channels — below the one-way gossip
    /// lower bound, so no one-pass schedule can cover its internal
    /// demands.
    Deficiency {
        /// The minimum internal channel count, `2n − 2`.
        required: usize,
    },
    /// Forced precedence constraints between single-in/single-out
    /// channels form a cycle: the listed channels each must be
    /// scheduled strictly before the next (cyclically), so no total
    /// order satisfies them.
    PrecedenceCycle {
        /// The constraint cycle, `cycle[i]` forced before
        /// `cycle[(i + 1) % len]`.
        cycle: Vec<ChannelId>,
    },
    /// Exhaustive reach-game search over the component found no
    /// winning schedule.
    Exhausted {
        /// Game states explored by the refutation.
        states: u64,
    },
}

impl ObstructionKind {
    /// Stable lowercase name used in JSON documents and reports.
    pub fn name(&self) -> &'static str {
        match self {
            ObstructionKind::Deficiency { .. } => "deficiency",
            ObstructionKind::PrecedenceCycle { .. } => "precedence-cycle",
            ObstructionKind::Exhausted { .. } => "exhausted",
        }
    }
}

/// Obstruction witness: a violating sub-network, checkable in
/// isolation by [`crate::check_obstruction`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Obstruction {
    /// The specific violation.
    pub kind: ObstructionKind,
    /// The strongly connected component the violation lives in.
    pub nodes: Vec<NodeId>,
    /// The live channels internal to that component.
    pub channels: Vec<ChannelId>,
}

/// The engine's two-sided answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExistenceReport {
    /// The verdict.
    pub verdict: ExistenceVerdict,
    /// Ordered reachable demand pairs `(s, t)`, `s ≠ t`, over the live
    /// graph — the demand set the verdict speaks about.
    pub demands: usize,
    /// Strongly connected components of the live node graph.
    pub sccs: usize,
    /// Components with at least two nodes (the ones that need a
    /// certificate; singletons are vacuous).
    pub components: usize,
    /// Channels masked out of the analysis (empty for the intact
    /// network).
    pub down: Vec<ChannelId>,
    /// Constructive witness when [`ExistenceVerdict::Exists`].
    pub witness: Option<Witness>,
    /// Obstruction witness when [`ExistenceVerdict::Impossible`].
    pub obstruction: Option<Obstruction>,
}

impl ExistenceReport {
    /// Channels in the constructive witness order (0 when absent).
    pub fn witness_channels(&self) -> usize {
        self.witness.as_ref().map_or(0, |w| w.order.len())
    }

    /// Channels in the obstruction witness (0 when absent).
    pub fn obstruction_channels(&self) -> usize {
        self.obstruction.as_ref().map_or(0, |o| o.channels.len())
    }

    /// Stable lowercase name of the certificate kind: the witness
    /// kind of the hardest component, the obstruction kind, or
    /// `"none"`.
    pub fn kind_name(&self) -> &'static str {
        if let Some(o) = &self.obstruction {
            return o.kind.name();
        }
        if let Some(w) = &self.witness {
            // Report the most expensive certifier that was needed:
            // exact > schedule > branchings > trivial.
            let mut best = "trivial";
            for c in &w.components {
                let rank = |k: &str| match k {
                    "exact" => 3,
                    "schedule" => 2,
                    "branchings" => 1,
                    _ => 0,
                };
                if rank(c.kind.name()) > rank(best) {
                    best = c.kind.name();
                }
            }
            return best;
        }
        "none"
    }
}

/// Remove node-level loops from a channel walk, keeping a subsequence.
///
/// The walk visits `s, dst(c₀), dst(c₁), …`; whenever a node repeats,
/// the channels between the two visits are spliced out. The surviving
/// channels are a subsequence of the input, so a walk whose channels
/// strictly ascend in a schedule stays ascending.
fn splice_loops(
    net: &Network,
    src: NodeId,
    walk: &[ChannelId],
    nodes: &mut Vec<NodeId>,
    path: &mut Vec<ChannelId>,
) {
    nodes.clear();
    nodes.push(src);
    path.clear();
    for &c in walk {
        let next = net.channel(c).dst();
        if let Some(pos) = nodes.iter().position(|&v| v == next) {
            nodes.truncate(pos + 1);
            path.truncate(pos);
        } else {
            nodes.push(next);
            path.push(c);
        }
    }
}

/// Materialise a witness into a complete routing table over every
/// reachable ordered pair.
///
/// Replays the reach game over the witness order recording, for every
/// newly covered pair, the channel that covered it; backtracking that
/// provenance yields, per pair, a walk whose channels strictly ascend
/// in the order. Node loops are spliced out (preserving ascent), so
/// the resulting paths are node-simple and the table's CDG is acyclic
/// by construction — which is exactly what the classifier and
/// `wormlint` re-certify.
pub fn witness_table(net: &Network, witness: &Witness) -> Result<TableRouting, RouteError> {
    let n = net.node_count();
    let mut game = ReachGame::new(n);
    let mut prov = vec![u32::MAX; n * n];
    for (pos, &c) in witness.order.iter().enumerate() {
        let ch = net.channel(c);
        game.process_recording(
            ch.src().index(),
            ch.dst().index(),
            u32::try_from(pos).expect("schedule position fits u32"),
            &mut prov,
        );
    }
    // Per-pair buffers, reused across the table.
    let (mut rev, mut nodes, mut spliced) = (Vec::new(), Vec::new(), Vec::new());
    TableRouting::build(net, |path, src, dst| {
        let (s, t) = (src.index(), dst.index());
        if !game.covered(s, t) {
            return None;
        }
        rev.clear();
        let mut cur = t;
        while cur != s {
            let pos = prov[cur * n + s];
            debug_assert_ne!(pos, u32::MAX, "covered pair must have provenance");
            let c = witness.order[pos as usize];
            rev.push(c);
            cur = net.channel(c).src().index();
        }
        rev.reverse();
        splice_loops(net, src, &rev, &mut nodes, &mut spliced);
        for &c in &spliced {
            path.channel(c);
        }
        Some(())
    })
}
