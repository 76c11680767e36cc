//! Adaptive routing: functions of the form `R : C × N → P(C)`.
//!
//! The paper studies *oblivious* routing, but its Section 2 reviews —
//! and its conclusion points to — the adaptive theory: Duato's result
//! that an acyclic CDG is not necessary for deadlock-free *adaptive*
//! routing, and the open question of characterizing adaptive false
//! resource cycles. This module provides the adaptive substrate used
//! by the extension experiments:
//!
//! * [`AdaptiveRouting`] — the routing relation as explicit option
//!   tables keyed by (injection node, destination) and (input channel,
//!   destination), with a connectivity validator.
//! * [`fully_adaptive_minimal`] — every productive mesh direction, one
//!   lane: the classic deadlock-*prone* adaptive algorithm.
//! * [`duato_mesh`] — fully adaptive lanes plus a dimension-order
//!   *escape* lane (Duato's methodology): deadlock-free although its
//!   extended dependency graph is cyclic.

use std::collections::{BTreeMap, VecDeque};

use wormnet::topology::Mesh;
use wormnet::{ChannelId, Network, NodeId};

use crate::{RouteError, RoutingStep, TableRouting};

/// An adaptive routing relation over a network.
///
/// For every (current position, destination) the relation lists the
/// *permitted* output channels; a router may forward the header on any
/// free one. Option lists are kept in deterministic order.
#[derive(Clone, Debug, Default)]
pub struct AdaptiveRouting {
    inject: BTreeMap<(NodeId, NodeId), Vec<ChannelId>>,
    forward: BTreeMap<(ChannelId, NodeId), Vec<ChannelId>>,
}

/// Validation failures for adaptive routing relations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdaptiveError {
    /// No permitted first channel for a (source, destination) pair.
    NoInjection(NodeId, NodeId),
    /// A reachable (channel, destination) state has no permitted
    /// continuation.
    DeadEnd(ChannelId, NodeId),
    /// A permitted option does not start at the position it is
    /// permitted from.
    Disconnected(ChannelId, ChannelId),
}

impl std::fmt::Display for AdaptiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptiveError::NoInjection(s, d) => {
                write!(f, "no injection option for {s} -> {d}")
            }
            AdaptiveError::DeadEnd(c, d) => {
                write!(f, "dead end at channel {c} toward {d}")
            }
            AdaptiveError::Disconnected(a, b) => {
                write!(f, "option {b} does not continue from {a}")
            }
        }
    }
}

impl std::error::Error for AdaptiveError {}

impl AdaptiveRouting {
    /// Build from a choice function `f(position, dst) → options`,
    /// where `position` is `Err(node)` at injection or `Ok(channel)`
    /// in flight. The function is evaluated for every node/channel ×
    /// destination combination; empty option lists are fine as long as
    /// the state is unreachable (checked by [`AdaptiveRouting::validate`]).
    pub fn build(
        net: &Network,
        mut f: impl FnMut(Result<ChannelId, NodeId>, NodeId) -> Vec<ChannelId>,
    ) -> Self {
        let mut inject = BTreeMap::new();
        let mut forward = BTreeMap::new();
        for dst in net.nodes() {
            for src in net.nodes() {
                if src != dst {
                    let opts = f(Err(src), dst);
                    debug_assert!(opts.iter().all(|&c| net.channel(c).src() == src));
                    inject.insert((src, dst), opts);
                }
            }
            for c in net.channels() {
                if c.dst() != dst {
                    let opts = f(Ok(c.id()), dst);
                    debug_assert!(opts.iter().all(|&o| net.channel(o).src() == c.dst()));
                    forward.insert((c.id(), dst), opts);
                }
            }
        }
        AdaptiveRouting { inject, forward }
    }

    /// Permitted first channels for a message from `src` to `dst`.
    pub fn injection_options(&self, src: NodeId, dst: NodeId) -> &[ChannelId] {
        self.inject
            .get(&(src, dst))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Permitted continuations after arriving over `input` toward
    /// `dst` (empty when `input` already ends at `dst`).
    pub fn options(&self, input: ChannelId, dst: NodeId) -> &[ChannelId] {
        self.forward
            .get(&(input, dst))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Validate connectivity: every (src, dst) pair has at least one
    /// injection option, and from every state reachable by following
    /// options, the destination is reachable.
    pub fn validate(&self, net: &Network) -> Result<(), AdaptiveError> {
        for dst in net.nodes() {
            // BFS over channels reachable toward `dst`.
            let mut queue: VecDeque<ChannelId> = VecDeque::new();
            let mut seen = vec![false; net.channel_count()];
            for src in net.nodes() {
                if src == dst {
                    continue;
                }
                let opts = self.injection_options(src, dst);
                if opts.is_empty() {
                    return Err(AdaptiveError::NoInjection(src, dst));
                }
                for &c in opts {
                    if net.channel(c).src() != src {
                        return Err(AdaptiveError::Disconnected(c, c));
                    }
                    if !seen[c.index()] {
                        seen[c.index()] = true;
                        queue.push_back(c);
                    }
                }
            }
            while let Some(c) = queue.pop_front() {
                if net.channel(c).dst() == dst {
                    continue; // arrived
                }
                let opts = self.options(c, dst);
                if opts.is_empty() {
                    return Err(AdaptiveError::DeadEnd(c, dst));
                }
                for &o in opts {
                    if net.channel(o).src() != net.channel(c).dst() {
                        return Err(AdaptiveError::Disconnected(c, o));
                    }
                    if !seen[o.index()] {
                        seen[o.index()] = true;
                        queue.push_back(o);
                    }
                }
            }
        }
        Ok(())
    }

    /// Degree of adaptivity: the mean number of options over all
    /// forwarding states (1.0 = oblivious).
    pub fn mean_options(&self) -> f64 {
        let lists: Vec<usize> = self
            .forward
            .values()
            .chain(self.inject.values())
            .map(Vec::len)
            .filter(|&l| l > 0)
            .collect();
        if lists.is_empty() {
            return 0.0;
        }
        lists.iter().sum::<usize>() as f64 / lists.len() as f64
    }
}

/// Degenerate adaptivity: wrap an oblivious [`TableRouting`] as an
/// adaptive relation whose every option list is a singleton. Useful
/// for cross-validating the adaptive engine against the oblivious one
/// (they must behave identically on such relations).
pub fn from_table(net: &Network, table: &TableRouting) -> Result<AdaptiveRouting, RouteError> {
    let compiled = table.compile(net)?;
    Ok(AdaptiveRouting::build(net, |pos, dst| match pos {
        Err(node) => compiled.inject(node, dst).into_iter().collect(),
        Ok(chan) => match compiled.try_next(net, chan, dst) {
            Some(RoutingStep::Forward(c)) => vec![c],
            _ => vec![],
        },
    }))
}

/// Productive (distance-reducing) neighbour moves on a mesh, on a
/// given VC lane.
fn productive_channels(mesh: &Mesh, at: NodeId, dst: NodeId, vc: u8) -> Vec<ChannelId> {
    let net = mesh.network();
    let cur = mesh.coords(at);
    let goal = mesh.coords(dst);
    let mut opts = Vec::new();
    for dim in 0..mesh.dims().len() {
        if cur[dim] == goal[dim] {
            continue;
        }
        let mut next = cur.clone();
        if cur[dim] < goal[dim] {
            next[dim] += 1;
        } else {
            next[dim] -= 1;
        }
        if let Some(c) = net.find_channel_vc(at, mesh.node(&next), vc) {
            opts.push(c);
        }
    }
    opts
}

/// The next dimension-order hop on a mesh, on a given VC lane.
fn dor_channel(mesh: &Mesh, at: NodeId, dst: NodeId, vc: u8) -> Option<ChannelId> {
    let net = mesh.network();
    let cur = mesh.coords(at);
    let goal = mesh.coords(dst);
    for dim in 0..mesh.dims().len() {
        if cur[dim] == goal[dim] {
            continue;
        }
        let mut next = cur.clone();
        if cur[dim] < goal[dim] {
            next[dim] += 1;
        } else {
            next[dim] -= 1;
        }
        return net.find_channel_vc(at, mesh.node(&next), vc);
    }
    None
}

/// Fully adaptive minimal routing on a single-lane mesh: at every hop,
/// any productive direction. The canonical deadlock-*prone* adaptive
/// algorithm (its dependency graph has cycles with no escape).
pub fn fully_adaptive_minimal(mesh: &Mesh) -> AdaptiveRouting {
    AdaptiveRouting::build(mesh.network(), |pos, dst| {
        let at = match pos {
            Err(node) => node,
            Ok(chan) => mesh.network().channel(chan).dst(),
        };
        productive_channels(mesh, at, dst, 0)
    })
}

/// Glass & Ni's **west-first** algorithm in its true partially
/// adaptive form, on a single-lane 2-D mesh: all west (−x) hops must
/// be taken first (no adaptivity while heading west); once no west
/// hops remain, the header may take *any* productive direction among
/// {east, north, south}. Prohibiting the two turns into west breaks
/// every abstract turn cycle, so the relation is deadlock-free with an
/// acyclic extended dependency graph — the turn model's claim,
/// machine-checked in the tests.
pub fn west_first_adaptive(mesh: &Mesh) -> AdaptiveRouting {
    assert_eq!(mesh.dims().len(), 2, "west-first requires a 2-D mesh");
    AdaptiveRouting::build(mesh.network(), |pos, dst| {
        let at = match pos {
            Err(node) => node,
            Ok(chan) => mesh.network().channel(chan).dst(),
        };
        let cur = mesh.coords(at);
        let goal = mesh.coords(dst);
        if cur[0] > goal[0] {
            // West hops first, obliviously.
            let mut west = cur.clone();
            west[0] -= 1;
            return mesh
                .network()
                .find_channel_vc(at, mesh.node(&west), 0)
                .into_iter()
                .collect();
        }
        // Fully adaptive among the remaining productive directions
        // (all of which are non-west).
        productive_channels(mesh, at, dst, 0)
    })
}

/// Duato's methodology on a two-lane mesh: lane 1 is fully adaptive
/// minimal, lane 0 is a dimension-order *escape* lane. From any
/// position a header may use any productive adaptive-lane channel or
/// the escape channel; once decisions route through escape channels
/// the escape subnetwork alone (acyclic, dimension-ordered) guarantees
/// progress, so the algorithm is deadlock-free although the full
/// dependency graph is cyclic.
pub fn duato_mesh(mesh: &Mesh) -> AdaptiveRouting {
    assert!(mesh.vcs() >= 2, "Duato's construction needs an escape lane");
    AdaptiveRouting::build(mesh.network(), |pos, dst| {
        let at = match pos {
            Err(node) => node,
            Ok(chan) => mesh.network().channel(chan).dst(),
        };
        let mut opts = productive_channels(mesh, at, dst, 1);
        if let Some(escape) = dor_channel(mesh, at, dst, 0) {
            opts.push(escape);
        }
        opts
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_adaptive_has_all_productive_options() {
        let mesh = Mesh::new(&[3, 3]);
        let r = fully_adaptive_minimal(&mesh);
        r.validate(mesh.network()).unwrap();
        // From a corner toward the opposite corner: two options.
        let a = mesh.node(&[0, 0]);
        let b = mesh.node(&[2, 2]);
        assert_eq!(r.injection_options(a, b).len(), 2);
        // Aligned pair: one option.
        let c = mesh.node(&[0, 2]);
        assert_eq!(r.injection_options(a, c).len(), 1);
        assert!(r.mean_options() > 1.0);
    }

    #[test]
    fn duato_adds_escape_option() {
        let mesh = Mesh::with_vcs(&[3, 3], 2);
        let r = duato_mesh(&mesh);
        r.validate(mesh.network()).unwrap();
        let a = mesh.node(&[0, 0]);
        let b = mesh.node(&[2, 2]);
        // Two adaptive productive + one escape.
        let opts = r.injection_options(a, b);
        assert_eq!(opts.len(), 3);
        let lanes: Vec<u8> = opts
            .iter()
            .map(|&c| mesh.network().channel(c).vc())
            .collect();
        assert_eq!(lanes.iter().filter(|&&v| v == 1).count(), 2);
        assert_eq!(lanes.iter().filter(|&&v| v == 0).count(), 1);
    }

    #[test]
    fn options_are_position_consistent() {
        let mesh = Mesh::new(&[3, 2]);
        let r = fully_adaptive_minimal(&mesh);
        let net = mesh.network();
        for dst in net.nodes() {
            for c in net.channels() {
                if c.dst() == dst {
                    continue;
                }
                for &o in r.options(c.id(), dst) {
                    assert_eq!(net.channel(o).src(), c.dst());
                }
            }
        }
    }

    #[test]
    fn minimality_of_productive_moves() {
        // Each option strictly reduces Manhattan distance.
        let mesh = Mesh::new(&[3, 3]);
        let r = fully_adaptive_minimal(&mesh);
        let net = mesh.network();
        for dst in net.nodes() {
            for src in net.nodes() {
                if src == dst {
                    continue;
                }
                for &o in r.injection_options(src, dst) {
                    let next = net.channel(o).dst();
                    assert_eq!(mesh.manhattan(next, dst) + 1, mesh.manhattan(src, dst));
                }
            }
        }
    }

    #[test]
    fn west_first_adaptive_shape() {
        let mesh = Mesh::new(&[3, 3]);
        let r = west_first_adaptive(&mesh);
        r.validate(mesh.network()).unwrap();
        // Westward destination: exactly one option (west).
        let a = mesh.node(&[2, 0]);
        let b = mesh.node(&[0, 2]);
        let opts = r.injection_options(a, b);
        assert_eq!(opts.len(), 1);
        assert_eq!(
            mesh.coords(mesh.network().channel(opts[0]).dst()),
            vec![1, 0]
        );
        // Eastward-north destination: two adaptive options.
        let c = mesh.node(&[0, 0]);
        let d = mesh.node(&[2, 2]);
        assert_eq!(r.injection_options(c, d).len(), 2);
    }

    #[test]
    fn validate_catches_dead_ends() {
        // A relation that never routes out of node 0 toward node 1.
        let mesh = Mesh::new(&[2, 2]);
        let bad = AdaptiveRouting::build(mesh.network(), |pos, dst| match pos {
            Err(n) if n == mesh.node(&[0, 0]) && dst == mesh.node(&[1, 1]) => vec![],
            Err(n) => productive_channels(&mesh, n, dst, 0),
            Ok(c) => productive_channels(&mesh, mesh.network().channel(c).dst(), dst, 0),
        });
        assert!(matches!(
            bad.validate(mesh.network()),
            Err(AdaptiveError::NoInjection(_, _))
        ));
    }

    #[test]
    fn from_table_is_singleton_relation() {
        use crate::algorithms::dimension_order;
        let mesh = Mesh::new(&[3, 3]);
        let table = dimension_order(&mesh).unwrap();
        let adaptive = from_table(mesh.network(), &table).unwrap();
        adaptive.validate(mesh.network()).unwrap();
        assert!((adaptive.mean_options() - 1.0).abs() < 1e-9);
        // Each option matches the table's path step.
        for ((s, d), path) in table.iter() {
            assert_eq!(adaptive.injection_options(s, d), &path.channels()[..1]);
        }
    }

    #[test]
    #[should_panic(expected = "escape lane")]
    fn duato_needs_two_lanes() {
        let mesh = Mesh::new(&[3, 3]);
        let _ = duato_mesh(&mesh);
    }
}
