//! Routing-table generators for corpus experiments.
//!
//! The Section 5 validation experiments run the paper's theorems over
//! many algorithms; these generators provide the population: BFS
//! shortest-path tables (minimal) and random simple-path tables
//! (usually nonminimal and non-coherent).

use wormnet::graph::{bfs_path, Digraph};
use wormnet::{Network, NodeId};

use crate::error::RouteError;
use crate::table::TableRouting;

/// Adapter exposing a network's node graph to the BFS helpers.
struct NodeGraph<'a>(&'a Network);

impl Digraph for NodeGraph<'_> {
    fn vertex_count(&self) -> usize {
        self.0.node_count()
    }

    fn successors(&self, v: usize) -> Vec<usize> {
        let mut succ: Vec<usize> = self
            .0
            .out_channels(NodeId::from_index(v))
            .iter()
            .map(|&c| self.0.channel(c).dst().index())
            .collect();
        succ.sort_unstable();
        succ.dedup();
        succ
    }
}

/// Deterministic BFS shortest-path routing: minimal by construction.
/// Tie-breaking follows node-index order, which makes the table
/// suffix-closed on most regular topologies but not in general.
pub fn shortest_path_table(net: &Network) -> Result<TableRouting, RouteError> {
    TableRouting::from_node_paths(net, |s, d| {
        bfs_path(&NodeGraph(net), s.index(), d.index())
            .map(|walk| walk.into_iter().map(NodeId::from_index).collect())
    })
}

/// Random simple-path routing: for each pair, a uniformly random
/// node-simple path found by randomized DFS, with an optional detour
/// budget above the shortest distance. Useful for generating
/// non-coherent, nonminimal algorithms in bulk.
///
/// `max_detour` bounds path length to `shortest + max_detour` hops so
/// tables stay small; `rng` drives the choice.
pub fn random_table(
    net: &Network,
    rng: &mut impl rand::Rng,
    max_detour: usize,
) -> Result<TableRouting, RouteError> {
    use rand::seq::SliceRandom;
    let g = NodeGraph(net);
    TableRouting::from_node_paths(net, |s, d| {
        let shortest = bfs_path(&g, s.index(), d.index())?.len() - 1;
        let budget = shortest + max_detour;
        // Randomized DFS for a node-simple walk of length <= budget.
        let mut stack: Vec<(usize, Vec<usize>)> = vec![(s.index(), vec![s.index()])];
        while let Some((v, walk)) = stack.pop() {
            if v == d.index() {
                return Some(walk.into_iter().map(NodeId::from_index).collect());
            }
            if walk.len() > budget {
                continue;
            }
            let mut succ = g.successors(v);
            succ.shuffle(rng);
            for w in succ {
                if !walk.contains(&w) {
                    let mut next = walk.clone();
                    next.push(w);
                    stack.push((w, next));
                }
            }
        }
        None
    })
}

/// Random destination-rooted in-tree routing: for each destination,
/// draw a random spanning in-tree (one next-hop channel per node) and
/// route every source along it.
///
/// Loop-free and total by construction, and a *node function*
/// (`R : N × N → C`, hence suffix-closed) — exactly Corollary 1's
/// class, for which the paper proves no unreachable cyclic
/// configuration can exist. Across destinations the trees disagree, so
/// the CDG is frequently cyclic, making this the natural corpus for
/// validating that corollary: every cyclic instance must be
/// deadlockable.
pub fn random_tree_routing(
    net: &Network,
    rng: &mut impl rand::Rng,
) -> Result<TableRouting, RouteError> {
    use rand::seq::SliceRandom;
    let n = net.node_count();
    // next[dst][node] = channel toward dst.
    let mut next: Vec<Vec<Option<wormnet::ChannelId>>> = vec![vec![None; n]; n];
    for dst in net.nodes() {
        let mut in_tree = vec![false; n];
        in_tree[dst.index()] = true;
        let mut remaining = n - 1;
        while remaining > 0 {
            // Channels from outside the tree into it (randomized Prim).
            let mut candidates: Vec<wormnet::ChannelId> = net
                .channels()
                .filter(|c| !in_tree[c.src().index()] && in_tree[c.dst().index()])
                .map(|c| c.id())
                .collect();
            candidates.shuffle(rng);
            let c = *candidates
                .first()
                .expect("strongly connected networks always extend the tree");
            let u = net.channel(c).src();
            next[dst.index()][u.index()] = Some(c);
            in_tree[u.index()] = true;
            remaining -= 1;
        }
    }
    TableRouting::from_paths_with(net, |net, s, d| {
        let mut chans = Vec::new();
        let mut cur = s;
        while cur != d {
            let c = next[d.index()][cur.index()].expect("spanning in-tree");
            chans.push(c);
            cur = net.channel(c).dst();
        }
        Some(crate::path::Path::from_channels(net, chans))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;
    use rand::SeedableRng;
    use wormnet::topology::{complete, line, Mesh};

    #[test]
    fn shortest_paths_are_minimal() {
        let mesh = Mesh::new(&[3, 3]);
        let table = shortest_path_table(mesh.network()).unwrap();
        assert!(table.is_total(mesh.network()));
        assert!(properties::is_minimal(mesh.network(), &table));
    }

    #[test]
    fn shortest_paths_on_line_are_coherent() {
        let (net, _) = line(5);
        let table = shortest_path_table(&net).unwrap();
        assert!(properties::is_coherent(&net, &table));
    }

    #[test]
    fn random_tables_are_total_and_bounded() {
        let (net, _) = complete(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let table = random_table(&net, &mut rng, 2).unwrap();
        assert!(table.is_total(&net));
        for ((s, d), p) in table.iter() {
            let shortest = net.hop_distance(s, d).unwrap();
            assert!(p.len() <= shortest + 2, "{s}->{d} too long");
            assert!(p.is_node_simple(&net));
        }
    }

    #[test]
    fn random_tables_vary_with_seed() {
        let mesh = Mesh::new(&[3, 3]);
        let t1 =
            random_table(mesh.network(), &mut rand::rngs::StdRng::seed_from_u64(1), 2).unwrap();
        let t2 =
            random_table(mesh.network(), &mut rand::rngs::StdRng::seed_from_u64(2), 2).unwrap();
        assert_ne!(t1, t2);
    }

    #[test]
    fn tree_routing_is_a_node_function() {
        let mesh = Mesh::new(&[3, 2]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let table = random_tree_routing(mesh.network(), &mut rng).unwrap();
        assert!(table.is_total(mesh.network()));
        assert!(properties::is_node_function(mesh.network(), &table));
        assert!(properties::is_suffix_closed(mesh.network(), &table));
        assert!(table.compile(mesh.network()).is_ok());
    }

    #[test]
    fn tree_routing_varies_with_seed() {
        let mesh = Mesh::new(&[3, 3]);
        let t1 =
            random_tree_routing(mesh.network(), &mut rand::rngs::StdRng::seed_from_u64(1)).unwrap();
        let t2 =
            random_tree_routing(mesh.network(), &mut rand::rngs::StdRng::seed_from_u64(2)).unwrap();
        assert_ne!(t1, t2);
    }

    #[test]
    fn zero_detour_random_tables_are_minimal() {
        let mesh = Mesh::new(&[3, 2]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let table = random_table(mesh.network(), &mut rng, 0).unwrap();
        assert!(properties::is_minimal(mesh.network(), &table));
    }
}
