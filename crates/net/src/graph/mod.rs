//! Self-contained graph algorithms shared by the network layer and by
//! the channel-dependency-graph analysis in `wormcdg`.
//!
//! Everything operates on the minimal [`Digraph`] trait so the same
//! code serves node graphs, channel graphs and dependency graphs.
//! The graphs range from the paper's figures (tens of vertices) to the
//! cluster-scale fabrics' dependency graphs (~10^5 channels and
//! ~10^6 edges), and every caller holds the whole graph before it asks
//! a question, so each question has one batch algorithm: Kahn for
//! acyclicity and the Dally–Seitz order, Tarjan for strongly connected
//! components and Johnson for elementary cycles, all linear in the
//! graph size per answer (Johnson per cycle).

mod cycles;
mod paths;
mod scc;
mod topo;

pub use cycles::{elementary_cycles_prefix, elementary_cycles_visit};
pub use paths::{bfs_distances, bfs_path, reachable_from};
pub use scc::tarjan_scc;
pub use topo::{is_acyclic, topological_order};

/// A directed graph with dense `0..vertex_count()` vertex indices.
///
/// `successors` returns an owned `Vec` so adapters can compute
/// adjacency on the fly (e.g. deduplicating parallel channels); the
/// algorithms below call it once per vertex per pass.
pub trait Digraph {
    /// Number of vertices.
    fn vertex_count(&self) -> usize;
    /// Successor vertex indices of `v`.
    fn successors(&self, v: usize) -> Vec<usize>;
}

/// A plain adjacency-list digraph, used in tests and as a scratch
/// representation inside algorithms.
#[derive(Clone, Debug, Default)]
pub struct AdjList {
    adj: Vec<Vec<usize>>,
}

impl AdjList {
    /// Create a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        AdjList {
            adj: vec![Vec::new(); n],
        }
    }

    /// Build from an edge list.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut g = AdjList::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Add a directed edge.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u < self.adj.len() && v < self.adj.len());
        self.adj[u].push(v);
    }
}

impl Digraph for AdjList {
    fn vertex_count(&self) -> usize {
        self.adj.len()
    }

    fn successors(&self, v: usize) -> Vec<usize> {
        self.adj[v].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjlist_basics() {
        let g = AdjList::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.successors(0), vec![1]);
        assert_eq!(g.successors(2), vec![0]);
    }

    #[test]
    #[should_panic]
    fn adjlist_bounds_checked() {
        let mut g = AdjList::new(2);
        g.add_edge(0, 5);
    }
}
