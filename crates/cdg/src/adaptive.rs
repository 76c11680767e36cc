//! Extended channel dependency graphs for adaptive routing.
//!
//! For an adaptive relation `R : C × N → P(C)` the (extended) CDG has
//! an edge `c1 → c2` whenever some message, having arrived over `c1`,
//! is *permitted* to continue on `c2`. Duato's theory distinguishes
//! this full graph from the escape subnetwork's graph; reproducing his
//! headline fact — deadlock freedom with a cyclic full CDG — only
//! needs the full graph and its cycle count, which is what this module
//! computes. Edges are restricted to (channel, destination) states
//! actually reachable from some injection.

use std::collections::{BTreeSet, VecDeque};

use wormnet::graph::{self, Digraph};
use wormnet::{ChannelId, Network};
use wormroute::adaptive::AdaptiveRouting;

/// The extended dependency graph of an adaptive routing relation.
#[derive(Clone, Debug)]
pub struct AdaptiveCdg {
    channel_count: usize,
    edges: BTreeSet<(ChannelId, ChannelId)>,
    adj: Vec<Vec<usize>>,
}

impl AdaptiveCdg {
    /// Build the reachable extended CDG.
    pub fn build(net: &Network, routing: &AdaptiveRouting) -> Self {
        let mut edges: BTreeSet<(ChannelId, ChannelId)> = BTreeSet::new();
        for dst in net.nodes() {
            // BFS over channels reachable toward dst.
            let mut seen = vec![false; net.channel_count()];
            let mut queue: VecDeque<ChannelId> = VecDeque::new();
            for src in net.nodes() {
                if src == dst {
                    continue;
                }
                for &c in routing.injection_options(src, dst) {
                    if !seen[c.index()] {
                        seen[c.index()] = true;
                        queue.push_back(c);
                    }
                }
            }
            while let Some(c) = queue.pop_front() {
                if net.channel(c).dst() == dst {
                    continue;
                }
                for &o in routing.options(c, dst) {
                    edges.insert((c, o));
                    if !seen[o.index()] {
                        seen[o.index()] = true;
                        queue.push_back(o);
                    }
                }
            }
        }
        let mut adj = vec![Vec::new(); net.channel_count()];
        for &(c1, c2) in &edges {
            adj[c1.index()].push(c2.index());
        }
        for a in &mut adj {
            a.sort_unstable();
            a.dedup();
        }
        AdaptiveCdg {
            channel_count: net.channel_count(),
            edges,
            adj,
        }
    }

    /// Number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the extended CDG is acyclic.
    pub fn is_acyclic(&self) -> bool {
        graph::is_acyclic(self)
    }

    /// The subgraph restricted to a set of channels (e.g. the escape
    /// lane) — used to check Duato's condition that the escape
    /// subnetwork alone is acyclic.
    pub fn restricted_to(&self, keep: impl Fn(ChannelId) -> bool) -> AdaptiveCdg {
        let edges: BTreeSet<(ChannelId, ChannelId)> = self
            .edges
            .iter()
            .copied()
            .filter(|&(a, b)| keep(a) && keep(b))
            .collect();
        let mut adj = vec![Vec::new(); self.channel_count];
        for &(c1, c2) in &edges {
            adj[c1.index()].push(c2.index());
        }
        for a in &mut adj {
            a.sort_unstable();
            a.dedup();
        }
        AdaptiveCdg {
            channel_count: self.channel_count,
            edges,
            adj,
        }
    }
}

impl Digraph for AdaptiveCdg {
    fn vertex_count(&self) -> usize {
        self.channel_count
    }

    fn successors(&self, v: usize) -> Vec<usize> {
        self.adj[v].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormnet::topology::Mesh;
    use wormroute::adaptive::{duato_mesh, fully_adaptive_minimal};

    #[test]
    fn fully_adaptive_mesh_cdg_is_cyclic() {
        let mesh = Mesh::new(&[3, 3]);
        let routing = fully_adaptive_minimal(&mesh);
        let cdg = AdaptiveCdg::build(mesh.network(), &routing);
        assert!(!cdg.is_acyclic(), "turns in all directions create cycles");
        assert!(cdg.edge_count() > 0);
    }

    #[test]
    fn duato_full_cdg_cyclic_but_escape_acyclic() {
        // Duato's headline structure: the full dependency graph has
        // cycles (through the adaptive lane), yet the escape lane's
        // subgraph is acyclic — which is why the algorithm cannot
        // deadlock.
        let mesh = Mesh::with_vcs(&[3, 3], 2);
        let routing = duato_mesh(&mesh);
        let cdg = AdaptiveCdg::build(mesh.network(), &routing);
        assert!(
            !cdg.is_acyclic(),
            "the adaptive lane makes the full CDG cyclic"
        );
        let net = mesh.network();
        let escape = cdg.restricted_to(|c| net.channel(c).vc() == 0);
        assert!(
            escape.is_acyclic(),
            "the dimension-order escape lane is acyclic"
        );
        assert!(escape.edge_count() > 0);
        assert!(escape.edge_count() < cdg.edge_count());
    }

    #[test]
    fn west_first_adaptive_cdg_is_acyclic() {
        // The turn model's claim: banning the two turns into west
        // leaves an acyclic dependency graph even with adaptivity.
        let mesh = Mesh::new(&[3, 3]);
        let routing = wormroute::adaptive::west_first_adaptive(&mesh);
        let cdg = AdaptiveCdg::build(mesh.network(), &routing);
        assert!(cdg.is_acyclic());
    }

    #[test]
    fn line_mesh_adaptive_cdg_is_acyclic() {
        // 1-D mesh: adaptivity degenerates to a single direction.
        let mesh = Mesh::new(&[4, 1]);
        let routing = fully_adaptive_minimal(&mesh);
        let cdg = AdaptiveCdg::build(mesh.network(), &routing);
        assert!(cdg.is_acyclic());
    }
}
