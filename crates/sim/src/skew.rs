//! Per-router clock-skew modeling.
//!
//! Section 6 of the paper asks whether the unreachability of the
//! Figure 1 cycle depends on routers operating in lock-step. The
//! physical phenomenon is *clock skew*: routers occasionally miss a
//! forwarding opportunity relative to their neighbours. We model a
//! skewed router as one that pauses all of its input queues for one
//! cycle on a periodic schedule — during a paused cycle those queues
//! neither transmit nor accept flits (see
//! [`crate::Decisions::frozen`]).
//!
//! A [`SkewModel`] assigns each node an optional `(period, offset)`;
//! the node pauses on cycles `t` with `t % period == offset`. Larger
//! periods = milder skew. The bounded-skew guarantee the paper's
//! Section 6 construction provides is then testable: `G(k)` stays
//! deadlock-free under any skew whose per-window pause count is below
//! the measured stall threshold.
//!
//! **Liveness caveat:** period 2 is degenerate — two adjacent routers
//! pausing on alternating phases are never jointly active, so the link
//! between them starves permanently (a timeout, not a deadlock: the
//! wait-for graph stays acyclic). Any period ≥ 3 guarantees every
//! router pair shares at least one active cycle per period, so flits
//! always eventually cross.

use rand::RngExt;
use wormnet::{ChannelId, Network, NodeId};

/// Periodic pause schedule per node.
#[derive(Clone, Debug, Default)]
pub struct SkewModel {
    /// `schedule[node] = Some((period, offset))`: pause on cycles
    /// `t % period == offset`. `None`: never pauses.
    schedule: Vec<Option<(u64, u64)>>,
    /// Channels hosted by each node (channels whose destination it
    /// is), precomputed for fast per-cycle freezing.
    hosted: Vec<Vec<ChannelId>>,
}

impl SkewModel {
    /// A model where no router ever pauses.
    pub fn none(net: &Network) -> Self {
        SkewModel {
            schedule: vec![None; net.node_count()],
            hosted: Self::host_map(net),
        }
    }

    /// Give one node a periodic pause.
    ///
    /// # Panics
    /// Panics if `period == 0` or `offset >= period`.
    pub fn with_pause(mut self, node: NodeId, period: u64, offset: u64) -> Self {
        assert!(period >= 1, "period must be positive");
        assert!(offset < period, "offset must be below period");
        self.schedule[node.index()] = Some((period, offset));
        self
    }

    /// Random bounded skew: every node pauses once per `period` cycles
    /// at a random phase. This is the "modest clock skew" regime of
    /// the paper's Section 3 assumptions.
    pub fn uniform_random(net: &Network, rng: &mut impl rand::Rng, period: u64) -> Self {
        assert!(period >= 2, "period 1 would freeze the network solid");
        let schedule = (0..net.node_count())
            .map(|_| Some((period, rng.random_range(0..period))))
            .collect();
        SkewModel {
            schedule,
            hosted: Self::host_map(net),
        }
    }

    fn host_map(net: &Network) -> Vec<Vec<ChannelId>> {
        net.nodes().map(|n| net.in_channels(n).to_vec()).collect()
    }

    /// Whether `node` pauses on cycle `t`.
    pub fn is_paused(&self, node: NodeId, t: u64) -> bool {
        match self.schedule[node.index()] {
            Some((period, offset)) => t % period == offset,
            None => false,
        }
    }

    /// Whether some router pauses at all. A model in which none does
    /// freezes nothing on any cycle.
    pub fn pauses(&self) -> bool {
        self.schedule.iter().any(Option::is_some)
    }

    /// Append the channels frozen on cycle `t` (all queues hosted by
    /// paused routers) to `frozen`.
    pub fn extend_frozen(&self, t: u64, frozen: &mut Vec<ChannelId>) {
        for (node, sched) in self.schedule.iter().enumerate() {
            if let Some((period, offset)) = sched {
                if t % period == *offset {
                    frozen.extend_from_slice(&self.hosted[node]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use wormnet::topology::line;

    fn frozen_at(skew: &SkewModel, t: u64) -> Vec<ChannelId> {
        let mut frozen = Vec::new();
        skew.extend_frozen(t, &mut frozen);
        frozen
    }

    #[test]
    fn none_freezes_nothing() {
        let (net, _) = line(3);
        let skew = SkewModel::none(&net);
        for t in 0..10 {
            assert!(frozen_at(&skew, t).is_empty());
        }
        assert!(!skew.pauses());
        assert!(skew.with_pause(NodeId::from_index(1), 4, 1).pauses());
    }

    #[test]
    fn single_pause_freezes_hosted_channels() {
        let (net, nodes) = line(3);
        let skew = SkewModel::none(&net).with_pause(nodes[1], 4, 1);
        assert!(frozen_at(&skew, 0).is_empty());
        let frozen = frozen_at(&skew, 1);
        // Node 1 hosts the queues of channels 0->1 and 2->1.
        assert_eq!(frozen.len(), net.in_channels(nodes[1]).len());
        for c in &frozen {
            assert_eq!(net.channel(*c).dst(), nodes[1]);
        }
        assert!(skew.is_paused(nodes[1], 5));
        assert!(!skew.is_paused(nodes[1], 6));
    }

    #[test]
    fn uniform_random_pauses_every_node_once_per_period() {
        let (net, _) = line(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let skew = SkewModel::uniform_random(&net, &mut rng, 5);
        for n in net.nodes() {
            let pauses: Vec<u64> = (0..10).filter(|&t| skew.is_paused(n, t)).collect();
            assert_eq!(pauses.len(), 2, "two pauses in two periods");
            assert_eq!(pauses[1] - pauses[0], 5);
        }
    }

    #[test]
    fn period_two_alternating_phases_never_jointly_active() {
        // The liveness caveat from the module docs, concretely.
        let (net, nodes) = line(2);
        let skew = SkewModel::none(&net)
            .with_pause(nodes[0], 2, 0)
            .with_pause(nodes[1], 2, 1);
        for t in 0..10 {
            assert!(skew.is_paused(nodes[0], t) || skew.is_paused(nodes[1], t));
        }
        // Period 3 always leaves a joint window.
        let skew3 = SkewModel::none(&net)
            .with_pause(nodes[0], 3, 0)
            .with_pause(nodes[1], 3, 1);
        let joint = (0..3).any(|t| !skew3.is_paused(nodes[0], t) && !skew3.is_paused(nodes[1], t));
        assert!(joint);
    }

    #[test]
    #[should_panic(expected = "offset")]
    fn bad_offset_rejected() {
        let (net, nodes) = line(2);
        let _ = SkewModel::none(&net).with_pause(nodes[0], 3, 3);
    }
}
