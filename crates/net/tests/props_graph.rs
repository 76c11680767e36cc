//! Property-based tests for the graph algorithms and topology
//! builders: our Johnson/Tarjan/BFS implementations against brute
//! force and against each other, structural invariants of the
//! generated topologies, and the network's lane index against a scan
//! of the out-lists.

use proptest::prelude::*;
use wormnet::graph::{
    bfs_distances, bfs_path, elementary_cycles_prefix, is_acyclic, reachable_from, tarjan_scc,
    topological_order, AdjList, Digraph,
};
use wormnet::topology::{
    complete, line, ring_bidirectional, ring_unidirectional, ring_with_vcs, star, Dragonfly,
    FatTree, Hypercube, KaryTree, Mesh, Torus,
};
use wormnet::{ChannelId, Network, NodeId};

/// Every elementary cycle of `g`: an unbounded prefix, which must
/// complete.
fn elementary_cycles(g: &AdjList) -> Vec<Vec<usize>> {
    let (cycles, complete) = elementary_cycles_prefix(g, usize::MAX);
    assert!(complete, "an unbounded enumeration completes");
    cycles
}

/// The first channel in `src`'s out-list that runs to `dst` on lane
/// `vc`: the scan `Network::find_channel_vc` must reproduce.
fn scan(net: &Network, src: NodeId, dst: NodeId, vc: u8) -> Option<ChannelId> {
    net.out_channels(src).iter().copied().find(|&c| {
        let ch = net.channel(c);
        ch.dst() == dst && ch.vc() == vc
    })
}

/// The first `(src, dst, vc)` whose lookup differs from the scan, over
/// every ordered node pair (self-pairs included) and every lane up to
/// one past the largest in use, plus lane 255: absent lanes included.
fn lane_mismatch(net: &Network) -> Option<(NodeId, NodeId, u8)> {
    let top = net.channels().map(|c| c.vc()).max().unwrap_or(0);
    let lanes: Vec<u8> = (0..=top.saturating_add(1)).chain([u8::MAX]).collect();
    net.nodes()
        .flat_map(|s| net.nodes().map(move |d| (s, d)))
        .flat_map(|(s, d)| lanes.iter().map(move |&vc| (s, d, vc)))
        .find(|&(s, d, vc)| net.find_channel_vc(s, d, vc) != scan(net, s, d, vc))
}

/// Random multigraphs: parallel lanes and repeated `(src, dst, vc)`
/// channels.
fn arb_multigraph() -> impl Strategy<Value = (usize, Vec<(usize, usize, u8)>)> {
    (2usize..7).prop_flat_map(|n| {
        let channels = prop::collection::vec((0..n, 0..n, 0u8..3), 0..40).prop_map(|cs| {
            cs.into_iter()
                .filter(|(u, v, _)| u != v)
                .collect::<Vec<_>>()
        });
        (Just(n), channels)
    })
}

fn arb_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..7).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n, 0..n), 0..20)
            .prop_map(|es| es.into_iter().filter(|(u, v)| u != v).collect::<Vec<_>>());
        (Just(n), edges)
    })
}

/// Exponential brute force cycle enumeration for cross-checking.
fn brute_force_cycles(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let g = AdjList::from_edges(n, edges);
    let mut out: Vec<Vec<usize>> = Vec::new();
    fn dfs(
        g: &AdjList,
        start: usize,
        v: usize,
        path: &mut Vec<usize>,
        seen: &mut Vec<bool>,
        out: &mut Vec<Vec<usize>>,
    ) {
        for w in g.successors(v) {
            if w == start {
                out.push(path.clone());
            } else if w > start && !seen[w] {
                seen[w] = true;
                path.push(w);
                dfs(g, start, w, path, seen, out);
                path.pop();
                seen[w] = false;
            }
        }
    }
    for s in 0..n {
        let mut seen = vec![false; n];
        seen[s] = true;
        let mut path = vec![s];
        dfs(&g, s, s, &mut path, &mut seen, &mut out);
    }
    out.sort();
    out.dedup();
    out
}

/// The first reason Tarjan's components are not the mutual
/// reachability classes: a vertex missing or repeated, or a pair
/// `(u, v)` whose shared component disagrees with `u` and `v` reaching
/// each other. Polynomial, so it also runs on graphs too large for
/// the brute-force cycle enumeration.
fn tarjan_mismatch(n: usize, edges: &[(usize, usize)]) -> Option<String> {
    let g = AdjList::from_edges(n, edges);
    let mut comp_of = vec![usize::MAX; n];
    for (i, c) in tarjan_scc(&g).iter().enumerate() {
        for &v in c {
            if comp_of[v] != usize::MAX {
                return Some(format!("vertex {v} in two components"));
            }
            comp_of[v] = i;
        }
    }
    if let Some(v) = comp_of.iter().position(|&c| c == usize::MAX) {
        return Some(format!("vertex {v} in no component"));
    }
    let reach: Vec<Vec<bool>> = (0..n).map(|v| reachable_from(&g, v)).collect();
    (0..n)
        .flat_map(|u| (0..n).map(move |v| (u, v)))
        .find(|&(u, v)| (comp_of[u] == comp_of[v]) != (reach[u][v] && reach[v][u]))
        .map(|(u, v)| format!("vertices {u} and {v}"))
}

/// Tarjan against mutual reachability on 50 seeded graphs of 1–29
/// nodes and up to 80 edges.
#[test]
fn tarjan_matches_mutual_reachability_on_seeded_graphs() {
    use rand::{RngExt, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE);
    for i in 0..50 {
        let n = rng.random_range(1..30);
        let m = rng.random_range(0..80);
        let edges: Vec<(usize, usize)> = (0..m)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .filter(|(u, v)| u != v)
            .collect();
        assert_eq!(tarjan_mismatch(n, &edges), None, "graph {i}: {edges:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Johnson's algorithm finds exactly the brute-force cycle set.
    #[test]
    fn johnson_matches_brute_force((n, edges) in arb_graph()) {
        let g = AdjList::from_edges(n, &edges);
        prop_assert_eq!(elementary_cycles(&g), brute_force_cycles(n, &edges));
    }

    /// Kahn and Tarjan against brute force: the graph is acyclic iff
    /// the brute-force enumeration finds no cycle, and two vertices
    /// share a Tarjan component iff each reaches the other.
    #[test]
    fn kahn_and_tarjan_match_brute_force((n, edges) in arb_graph()) {
        let g = AdjList::from_edges(n, &edges);
        prop_assert_eq!(is_acyclic(&g), brute_force_cycles(n, &edges).is_empty());
        prop_assert_eq!(tarjan_mismatch(n, &edges), None);
    }

    /// Acyclicity, topological order, SCC structure, and cycle
    /// enumeration are mutually consistent.
    #[test]
    fn graph_algorithms_are_consistent((n, edges) in arb_graph()) {
        let g = AdjList::from_edges(n, &edges);
        let cycles = elementary_cycles(&g);
        let acyclic = is_acyclic(&g);
        prop_assert_eq!(acyclic, cycles.is_empty());
        prop_assert_eq!(acyclic, topological_order(&g).is_some());
        // Every cycle lives inside one SCC.
        let comps = tarjan_scc(&g);
        let mut comp_of = vec![usize::MAX; n];
        for (i, c) in comps.iter().enumerate() {
            for &v in c {
                comp_of[v] = i;
            }
        }
        for cycle in &cycles {
            let c0 = comp_of[cycle[0]];
            prop_assert!(cycle.iter().all(|&v| comp_of[v] == c0));
        }
        // A topological order, if any, puts every edge forward.
        if let Some(order) = topological_order(&g) {
            let mut pos = vec![0; n];
            for (i, &v) in order.iter().enumerate() {
                pos[v] = i;
            }
            for &(u, v) in &edges {
                prop_assert!(pos[u] < pos[v]);
            }
        }
    }

    /// BFS paths are valid walks of the claimed (minimal) length.
    #[test]
    fn bfs_paths_are_shortest((n, edges) in arb_graph(), s in 0usize..6, t in 0usize..6) {
        let (s, t) = (s % n, t % n);
        let g = AdjList::from_edges(n, &edges);
        let dist = bfs_distances(&g, s);
        match bfs_path(&g, s, t) {
            Some(path) => {
                prop_assert_eq!(path[0], s);
                prop_assert_eq!(*path.last().unwrap(), t);
                prop_assert_eq!(Some(path.len() - 1), dist[t]);
                for w in path.windows(2) {
                    prop_assert!(g.successors(w[0]).contains(&w[1]));
                }
            }
            None => prop_assert_eq!(dist[t], None),
        }
    }

    /// Mesh BFS distance equals Manhattan distance for every pair.
    #[test]
    fn mesh_distances_are_manhattan(w in 2usize..5, h in 1usize..4) {
        prop_assume!(w * h >= 2);
        let mesh = Mesh::new(&[w, h]);
        for a in mesh.network().nodes().collect::<Vec<_>>() {
            for b in mesh.network().nodes().collect::<Vec<_>>() {
                prop_assert_eq!(
                    mesh.network().hop_distance(a, b),
                    Some(mesh.manhattan(a, b))
                );
            }
        }
    }

    /// Torus distances equal wrap-aware Manhattan for every pair.
    #[test]
    fn torus_distances_wrap(k in 3usize..5) {
        let t = Torus::new(&[k, 3], 1);
        for a in t.network().nodes().collect::<Vec<_>>() {
            for b in t.network().nodes().collect::<Vec<_>>() {
                prop_assert_eq!(
                    t.network().hop_distance(a, b),
                    Some(t.ring_distance(a, b))
                );
            }
        }
    }

    /// Hypercube distance equals Hamming distance.
    #[test]
    fn hypercube_distances_are_hamming(d in 1u32..5) {
        let h = Hypercube::new(d);
        for a in h.network().nodes().collect::<Vec<_>>() {
            for b in h.network().nodes().collect::<Vec<_>>() {
                prop_assert_eq!(
                    h.network().hop_distance(a, b),
                    Some(h.hamming(a, b))
                );
            }
        }
    }

    /// Every builder yields a strongly connected Definition-1 network.
    #[test]
    /// The lane index returns the scan's channel, the first in
    /// out-list order among parallel channels on one lane, and stays
    /// right when channels are added after a lookup.
    #[test]
    fn lane_index_matches_the_out_list_scan((n, channels) in arb_multigraph(), split in 0usize..40) {
        let mut net = Network::new();
        let nodes = net.add_nodes("v", n);
        let split = split.min(channels.len());
        for &(u, v, vc) in &channels[..split] {
            net.add_channel_vc(nodes[u], nodes[v], vc);
        }
        prop_assert_eq!(lane_mismatch(&net), None);
        for &(u, v, vc) in &channels[split..] {
            net.add_channel_vc(nodes[u], nodes[v], vc);
        }
        prop_assert_eq!(lane_mismatch(&net), None);
        prop_assert_eq!(lane_mismatch(&net.clone()), None);
    }

    #[test]
    fn builders_are_strongly_connected(n in 2usize..8) {
        let (ring, _) = ring_unidirectional(n);
        prop_assert!(ring.is_strongly_connected());
        prop_assert!(ring.validate().is_ok());
    }
}

/// Every topology builder's lane index agrees with the scan.
#[test]
fn lane_index_matches_the_scan_on_every_builder() {
    let nets: Vec<(&str, Network)> = vec![
        ("ring_unidirectional", ring_unidirectional(5).0),
        ("ring_bidirectional", ring_bidirectional(5).0),
        ("ring_with_vcs", ring_with_vcs(5, 3).0),
        ("line", line(4).0),
        ("star", star(4).0),
        ("complete", complete(5).0),
        ("mesh", Mesh::with_vcs(&[3, 2, 2], 2).into_network()),
        ("torus", Torus::new(&[3, 4], 2).into_network()),
        ("hypercube", Hypercube::new(3).into_network()),
        ("kary tree", KaryTree::new(3, 2).into_network()),
        ("fat tree", FatTree::new(4).into_network()),
        ("dragonfly", Dragonfly::new(4, 3).into_network()),
        (
            "valiant dragonfly",
            Dragonfly::new_valiant(3, 2).into_network(),
        ),
        (
            "single-lane dragonfly",
            Dragonfly::with_lanes(3, 2, &[0], &[0]).into_network(),
        ),
    ];
    for (name, net) in &nets {
        assert_eq!(lane_mismatch(net), None, "{name}");
    }
}
