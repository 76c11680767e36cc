//! Routing-table generators for corpus experiments.
//!
//! The Section 5 validation experiments run the paper's theorems over
//! many algorithms; these generators provide the population: BFS
//! shortest-path tables (minimal) and random simple-path tables
//! (usually nonminimal and non-coherent).

use wormnet::{Network, NodeId};

use crate::error::RouteError;
use crate::successors::Successors;
use crate::table::TableRouting;

/// One breadth-first search at a time over a network's node graph,
/// with parallel channels merged and successors in ascending index
/// order.
struct Bfs {
    succ: Successors,
    /// The source of the last search.
    source: Option<NodeId>,
    /// Each reached node's predecessor in the last search (the source
    /// is its own), `UNREACHED` for the others.
    parent: Vec<usize>,
    dist: Vec<usize>,
    queue: Vec<usize>,
}

impl Bfs {
    const UNREACHED: usize = usize::MAX;

    fn new(net: &Network) -> Self {
        let n = net.node_count();
        Bfs {
            succ: Successors::new(net),
            source: None,
            parent: vec![Self::UNREACHED; n],
            dist: vec![Self::UNREACHED; n],
            queue: Vec::with_capacity(n),
        }
    }

    /// Search from `src`, unless the last search did.
    fn from(&mut self, src: NodeId) {
        if self.source == Some(src) {
            return;
        }
        self.source = Some(src);
        self.parent.fill(Self::UNREACHED);
        self.dist.fill(Self::UNREACHED);
        self.queue.clear();
        let s = src.index();
        self.parent[s] = s;
        self.dist[s] = 0;
        self.queue.push(s);
        let mut head = 0;
        while let Some(&v) = self.queue.get(head) {
            head += 1;
            for &w in self.succ.of(NodeId::from_index(v)) {
                let w = w as usize;
                if self.parent[w] == Self::UNREACHED {
                    self.parent[w] = v;
                    self.dist[w] = self.dist[v] + 1;
                    self.queue.push(w);
                }
            }
        }
    }

    /// Hop distance from the last search's source, if reached.
    fn distance(&self, v: NodeId) -> Option<usize> {
        Some(self.dist[v.index()]).filter(|&d| d != Self::UNREACHED)
    }
}

/// Deterministic BFS shortest-path routing: minimal by construction.
/// Tie-breaking follows node-index order, which makes the table
/// suffix-closed on most regular topologies but not in general.
///
/// One search per source serves all its destinations: each path
/// follows the search tree's predecessors back from the destination.
pub fn shortest_path_table(net: &Network) -> Result<TableRouting, RouteError> {
    let mut bfs = Bfs::new(net);
    let mut back = Vec::new();
    TableRouting::build(net, |path, s, d| {
        bfs.from(s);
        bfs.distance(d)?;
        back.clear();
        let mut v = d.index();
        while v != s.index() {
            back.push(v);
            v = bfs.parent[v];
        }
        path.node(s);
        for &v in back.iter().rev() {
            path.node(NodeId::from_index(v));
        }
        Some(())
    })
}

/// Random simple-path routing: for each pair, a uniformly random
/// node-simple path found by randomized DFS, with an optional detour
/// budget above the shortest distance. Useful for generating
/// non-coherent, nonminimal algorithms in bulk.
///
/// `max_detour` bounds path length to `shortest + max_detour` hops so
/// tables stay small; `rng` drives the choice.
///
/// The search's walks share their prefixes: each stack entry names its
/// node and the entry it extends, in an arena reused across pairs.
pub fn random_table(
    net: &Network,
    rng: &mut impl rand::Rng,
    max_detour: usize,
) -> Result<TableRouting, RouteError> {
    use rand::seq::SliceRandom;
    let mut bfs = Bfs::new(net);
    // (node, index of the entry it extends, walk length in nodes).
    let mut arena: Vec<(usize, usize, usize)> = Vec::new();
    let mut stack: Vec<usize> = Vec::new();
    let mut succ: Vec<usize> = Vec::new();
    let mut back: Vec<usize> = Vec::new();
    TableRouting::build(net, |path, s, d| {
        bfs.from(s);
        let budget = bfs.distance(d)? + max_detour;
        // Randomized DFS for a node-simple walk of length <= budget.
        arena.clear();
        stack.clear();
        arena.push((s.index(), 0, 1));
        stack.push(0);
        while let Some(e) = stack.pop() {
            let (v, _, len) = arena[e];
            if v == d.index() {
                back.clear();
                back.extend(walk_back(&arena, e));
                for &v in back.iter().rev() {
                    path.node(NodeId::from_index(v));
                }
                return Some(());
            }
            if len > budget {
                continue;
            }
            succ.clear();
            succ.extend(
                bfs.succ
                    .of(NodeId::from_index(v))
                    .iter()
                    .map(|&w| w as usize),
            );
            succ.shuffle(rng);
            for &w in &succ {
                if !walk_back(&arena, e).any(|v| v == w) {
                    arena.push((w, e, len + 1));
                    stack.push(arena.len() - 1);
                }
            }
        }
        None
    })
}

/// The nodes of the walk that ends at `random_table`'s arena entry
/// `e`, last one first.
fn walk_back(arena: &[(usize, usize, usize)], e: usize) -> impl Iterator<Item = usize> + '_ {
    std::iter::successors(Some(e), move |&e| (arena[e].2 > 1).then_some(arena[e].1))
        .map(move |e| arena[e].0)
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
    TableRouting::build(net, |path, s, d| {
        let mut cur = s;
        while cur != d {
            let c = next[d.index()][cur.index()].expect("spanning in-tree");
            path.channel(c);
            cur = net.channel(c).dst();
        }
        Some(())
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

    /// Per-pair reference searches the generators must agree with: a
    /// BFS per pair for the shortest path, and a randomized DFS that
    /// copies its walk at every step.
    mod oracle {
        use super::*;
        use crate::path::Path;
        use crate::table::TableBuilder;
        use rand::seq::SliceRandom;
        use wormnet::graph::{bfs_path, Digraph};

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

        fn table(
            net: &Network,
            mut walk: impl FnMut(usize, usize) -> Option<Vec<usize>>,
        ) -> TableRouting {
            let mut t = TableBuilder::new(net);
            for s in net.nodes() {
                for d in net.nodes().filter(|&d| d != s) {
                    if let Some(w) = walk(s.index(), d.index()) {
                        let nodes: Vec<NodeId> = w.into_iter().map(NodeId::from_index).collect();
                        t.insert(s, d, Path::from_nodes(net, &nodes).unwrap())
                            .unwrap();
                    }
                }
            }
            t.finish().unwrap()
        }

        pub fn shortest_path_table(net: &Network) -> TableRouting {
            table(net, |s, d| bfs_path(&NodeGraph(net), s, d))
        }

        pub fn random_table(
            net: &Network,
            rng: &mut impl rand::Rng,
            max_detour: usize,
        ) -> TableRouting {
            let g = NodeGraph(net);
            table(net, |s, d| {
                let budget = bfs_path(&g, s, d)?.len() - 1 + max_detour;
                let mut stack: Vec<(usize, Vec<usize>)> = vec![(s, vec![s])];
                while let Some((v, walk)) = stack.pop() {
                    if v == d {
                        return Some(walk);
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
    }

    #[test]
    fn generators_match_the_per_pair_searches() {
        use wormnet::topology::{ring_unidirectional, ring_with_vcs};
        let nets = [
            Mesh::new(&[3, 3]).into_network(),
            Mesh::with_vcs(&[2, 3], 2).into_network(),
            complete(5).0,
            ring_unidirectional(5).0,
            ring_with_vcs(4, 2).0,
            line(4).0,
        ];
        for (k, net) in nets.iter().enumerate() {
            assert_eq!(
                shortest_path_table(net).unwrap(),
                oracle::shortest_path_table(net),
                "net {k}"
            );
            for (seed, detour) in [(1, 0), (2, 1), (3, 2), (4, 3)] {
                let mut a = rand::rngs::StdRng::seed_from_u64(seed);
                let mut b = rand::rngs::StdRng::seed_from_u64(seed);
                assert_eq!(
                    random_table(net, &mut a, detour).unwrap(),
                    oracle::random_table(net, &mut b, detour),
                    "net {k} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn zero_detour_random_tables_are_minimal() {
        let mesh = Mesh::new(&[3, 2]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let table = random_table(mesh.network(), &mut rng, 0).unwrap();
        assert!(properties::is_minimal(mesh.network(), &table));
    }
}
