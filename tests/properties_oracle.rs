//! Differential oracle for `wormroute::properties::analyze`.
//!
//! `analyze` decides every routing property in one pass over the table
//! and records the counts and witnesses the `W003`, `W005`,
//! `W101`–`W105` and `W209` lints print. The [`reference`] module keeps
//! the predicates and counting rules that pass replaced, one walk per
//! property, and every test here checks that the two agree on every
//! field of the report: booleans, counts, first witnesses and the worst
//! detour.
//!
//! Inputs: random node-simple tables (`random_table`, detour 0–2) and
//! random in-tree routings on complete graphs and meshes, random
//! channel walks (node revisits, paths through their own destination,
//! partial tables), tables with failed channels removed, small
//! instances of every production engine the `fabric_static` benchmark
//! workload runs, tables on more than 64 nodes (the pass searches 64
//! sources at a time) with partial rows, unreachable pairs across a
//! batch boundary and suffix tries that branch, and two hand-built
//! tables whose answers are derived on paper.

use cyclic_wormhole::net::topology::{
    complete, ring_unidirectional, ring_with_vcs, Dragonfly, FatTree, Hypercube, Mesh, Torus,
};
use cyclic_wormhole::net::{ChannelId, Network, NodeId};
use cyclic_wormhole::route::algorithms::{
    clockwise_ring, dateline_ring, dateline_torus, dimension_order, dragonfly_minimal,
    dragonfly_valiant, ecube, fattree_updown, fullmesh_direct, fullmesh_ring_detour,
    fullmesh_vcfree, negative_first, random_table, random_tree_routing, shortest_path_table,
    west_first, xy_mesh,
};
use cyclic_wormhole::route::properties::{self, DeadTail, PropertyReport, Site};
use cyclic_wormhole::route::{Path, TableBuilder, TableRouting};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// The per-property walks `analyze` replaced: the Definition 7–9,
/// minimality and `R : N × N → C` predicates, and the counting and
/// witness rules of the `W003`, `W005`, `W101`–`W104` and `W209`
/// lints, each walking the table on its own.
mod reference {
    use super::*;
    use cyclic_wormhole::route::properties::Detour;
    use std::collections::BTreeMap;

    pub fn report(net: &Network, table: &TableRouting) -> PropertyReport {
        let prefix_closed = is_prefix_closed(net, table);
        let suffix_closed = is_suffix_closed(net, table);
        let node_simple = never_revisits_nodes(net, table);
        let (unrouted_pairs, first_unrouted) = unrouted(net, table);
        let (nonminimal_pairs, worst_detour) = nonminimal(net, table);
        let (prefix_violations, first_prefix_violation) = prefix_violations(net, table);
        let (suffix_violations, first_suffix_violation) = suffix_violations(net, table);
        let (revisiting_paths, first_revisit) = revisits(net, table);
        let (down_up, multi_hop_paths) = down_up(net, table);
        PropertyReport {
            total: table.is_total(net),
            minimal: is_minimal(net, table),
            prefix_closed,
            suffix_closed,
            node_simple,
            coherent: prefix_closed && suffix_closed && node_simple,
            node_function: is_node_function(net, table),
            down_up,
            multi_hop_paths,
            unrouted_pairs,
            first_unrouted,
            nonminimal_pairs,
            worst_detour,
            prefix_violations,
            first_prefix_violation,
            suffix_violations,
            first_suffix_violation,
            revisiting_paths,
            first_revisit,
            dead_tails: dead_tails(net, table),
        }
    }

    fn is_minimal(net: &Network, table: &TableRouting) -> bool {
        table
            .iter()
            .all(|((src, dst), path)| net.distances_from(src)[dst.index()] == Some(path.len()))
    }

    /// First occurrences of interior nodes only; a missing registered
    /// prefix is a violation.
    fn is_prefix_closed(net: &Network, table: &TableRouting) -> bool {
        table.iter().all(|((src, _dst), path)| {
            let nodes = path.nodes(net);
            nodes[1..nodes.len() - 1].iter().enumerate().all(|(i, &v)| {
                if v == src {
                    return true;
                }
                let first_pos = nodes.iter().position(|&n| n == v).expect("on the walk");
                if first_pos != i + 1 {
                    return true;
                }
                let prefix = &path.channels()[..first_pos];
                matches!(table.path(src, v), Some(registered) if registered.channels() == prefix)
            })
        })
    }

    fn is_suffix_closed(net: &Network, table: &TableRouting) -> bool {
        table.iter().all(|((_src, dst), path)| {
            let nodes = path.nodes(net);
            (1..nodes.len() - 1).all(|pos| {
                let v = nodes[pos];
                if v == dst {
                    return true;
                }
                let suffix = &path.channels()[pos..];
                matches!(table.path(v, dst), Some(registered) if registered.channels() == suffix)
            })
        })
    }

    fn never_revisits_nodes(net: &Network, table: &TableRouting) -> bool {
        table.iter().all(|(_, path)| path.is_node_simple(net))
    }

    fn is_node_function(net: &Network, table: &TableRouting) -> bool {
        let mut choice: BTreeMap<(NodeId, NodeId), ChannelId> = BTreeMap::new();
        for ((_, dst), path) in table.iter() {
            let nodes = path.nodes(net);
            for (i, &c) in path.channels().iter().enumerate() {
                match choice.get(&(nodes[i], dst)) {
                    Some(&prev) if prev != c => return false,
                    Some(_) => {}
                    None => {
                        choice.insert((nodes[i], dst), c);
                    }
                }
            }
        }
        true
    }

    /// `W003`: every ordered pair looked up in node order.
    fn unrouted(net: &Network, table: &TableRouting) -> (usize, Vec<(NodeId, NodeId)>) {
        let nodes: Vec<_> = net.nodes().collect();
        let missing: Vec<(NodeId, NodeId)> = nodes
            .iter()
            .flat_map(|&u| nodes.iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u != v && table.path(u, v).is_none())
            .collect();
        let first = missing.iter().take(3).copied().collect();
        (missing.len(), first)
    }

    /// `W101`: the largest detour wins, the first in table order on
    /// ties.
    fn nonminimal(net: &Network, table: &TableRouting) -> (usize, Option<Detour>) {
        let mut count = 0;
        let mut worst: Option<Detour> = None;
        for (pair, path) in table.iter() {
            let Some(dist) = net.distances_from(pair.0)[pair.1.index()] else {
                continue;
            };
            if path.len() > dist {
                count += 1;
                if worst.is_none_or(|w| path.len() - dist > w.len - w.distance) {
                    worst = Some(Detour {
                        pair,
                        len: path.len(),
                        distance: dist,
                    });
                }
            }
        }
        (count, worst)
    }

    /// `W103`: every violation counted, the first one kept.
    fn prefix_violations(net: &Network, table: &TableRouting) -> (usize, Option<Site>) {
        let mut count = 0;
        let mut first = None;
        for ((src, dst), path) in table.iter() {
            let nodes = path.nodes(net);
            for (i, &v) in nodes[1..nodes.len() - 1].iter().enumerate() {
                if v == src || nodes.iter().position(|&n| n == v) != Some(i + 1) {
                    continue;
                }
                let prefix = &path.channels()[..i + 1];
                if matches!(table.path(src, v), Some(r) if r.channels() == prefix) {
                    continue;
                }
                count += 1;
                first.get_or_insert(Site {
                    pair: (src, dst),
                    pos: i + 1,
                    node: v,
                });
            }
        }
        (count, first)
    }

    /// `W102`: every violation counted, the first one kept.
    fn suffix_violations(net: &Network, table: &TableRouting) -> (usize, Option<Site>) {
        let mut count = 0;
        let mut first = None;
        for ((src, dst), path) in table.iter() {
            let nodes = path.nodes(net);
            for (pos, &v) in nodes.iter().enumerate().take(nodes.len() - 1).skip(1) {
                if v == dst {
                    continue;
                }
                let suffix = &path.channels()[pos..];
                if matches!(table.path(v, dst), Some(r) if r.channels() == suffix) {
                    continue;
                }
                count += 1;
                first.get_or_insert(Site {
                    pair: (src, dst),
                    pos,
                    node: v,
                });
            }
        }
        (count, first)
    }

    /// `W104`: on the first non-simple path, the first node already
    /// visited.
    fn revisits(net: &Network, table: &TableRouting) -> (usize, Option<Site>) {
        let mut count = 0;
        let mut first = None;
        for (pair, path) in table.iter() {
            if path.is_node_simple(net) {
                continue;
            }
            count += 1;
            if first.is_none() {
                let nodes = path.nodes(net);
                let (pos, &node) = nodes
                    .iter()
                    .enumerate()
                    .find(|(i, n)| nodes[..*i].contains(n))
                    .expect("non-simple walk has a repeat");
                first = Some(Site { pair, pos, node });
            }
        }
        (count, first)
    }

    /// `W005`: one entry per path through its own destination.
    fn dead_tails(net: &Network, table: &TableRouting) -> Vec<DeadTail> {
        table
            .iter()
            .filter_map(|((src, dst), path)| {
                let nodes = path.nodes(net);
                let first = nodes[..nodes.len() - 1].iter().position(|&n| n == dst)?;
                Some(DeadTail {
                    pair: (src, dst),
                    first_arrival: first,
                })
            })
            .collect()
    }

    /// `W209`: strictly descending, then strictly ascending node
    /// indices on every path, and the multi-hop path count.
    fn down_up(net: &Network, table: &TableRouting) -> (bool, usize) {
        let mut all = true;
        let mut multi_hop = 0;
        for (_, path) in table.iter() {
            let idx: Vec<usize> = path.nodes(net).iter().map(|n| n.index()).collect();
            if idx.len() > 2 {
                multi_hop += 1;
            }
            let turn = idx.windows(2).take_while(|w| w[0] > w[1]).count();
            all &= idx[turn..].windows(2).all(|w| w[0] < w[1]);
        }
        (all, multi_hop)
    }
}

fn assert_agrees(net: &Network, table: &TableRouting, what: &str) {
    let pass = properties::analyze(net, table);
    let oracle = reference::report(net, table);
    assert_eq!(
        pass, oracle,
        "{what}: the pass disagrees with the reference"
    );
    assert_eq!(properties::is_minimal(net, table), oracle.minimal, "{what}");
}

/// A partial table of random channel walks: from every source, a few
/// walks that never repeat a channel but may revisit nodes, pass
/// through their own end node, and wander past shortest paths. Each
/// walk registers the pair (source, last node) if it is still free.
fn random_walk_table(net: &Network, rng: &mut StdRng, max_len: usize) -> TableRouting {
    let mut table = TableBuilder::new(net);
    for src in net.nodes() {
        let mut registered: Vec<NodeId> = Vec::new();
        for _ in 0..net.node_count() {
            let len = rng.random_range(1..=max_len);
            let mut chans: Vec<ChannelId> = Vec::new();
            let mut at = src;
            for _ in 0..len {
                let mut out: Vec<ChannelId> = net
                    .out_channels(at)
                    .iter()
                    .copied()
                    .filter(|c| !chans.contains(c))
                    .collect();
                out.shuffle(rng);
                let Some(&c) = out.first() else { break };
                chans.push(c);
                at = net.channel(c).dst();
            }
            if at == src || registered.contains(&at) {
                continue;
            }
            registered.push(at);
            let path = Path::from_channels(net, chans).expect("a channel walk");
            table.insert(src, at, path).expect("fresh pair");
        }
    }
    table.finish().expect("fresh pairs")
}

/// `table` with a random eighth of the network's channels failed.
fn degrade(net: &Network, table: &TableRouting, rng: &mut StdRng) -> TableRouting {
    let down: Vec<ChannelId> = net
        .channels()
        .map(|c| c.id())
        .filter(|_| rng.random_range(0..8) == 0)
        .collect();
    table.without_channels(&down)
}

fn small_net(kind: usize, size: usize) -> Network {
    match kind % 4 {
        0 => complete(2 + size).0,
        1 => Mesh::new(&[2 + size % 3, 1 + size / 3]).network().clone(),
        2 => ring_with_vcs(3 + size, 2).0,
        _ => ring_unidirectional(3 + size).0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_tables_agree(seed in 0u64..10_000, kind in 0usize..2, size in 0usize..4, detour in 0usize..=2) {
        let net = small_net(kind, size);
        let mut rng = StdRng::seed_from_u64(seed);
        let table = random_table(&net, &mut rng, detour).expect("routes");
        assert_agrees(&net, &table, "random_table");
        assert_agrees(&net, &degrade(&net, &table, &mut rng), "degraded random_table");
    }

    #[test]
    fn random_tree_routings_agree(seed in 0u64..10_000, kind in 0usize..2, size in 0usize..4) {
        let net = small_net(kind, size);
        let mut rng = StdRng::seed_from_u64(seed);
        let table = random_tree_routing(&net, &mut rng).expect("routes");
        assert_agrees(&net, &table, "random_tree_routing");
        assert_agrees(&net, &degrade(&net, &table, &mut rng), "degraded random_tree_routing");
    }

    #[test]
    fn random_walk_tables_agree(seed in 0u64..10_000, kind in 0usize..4, size in 0usize..4, max_len in 1usize..9) {
        let net = small_net(kind, size);
        let mut rng = StdRng::seed_from_u64(seed);
        let table = random_walk_table(&net, &mut rng, max_len);
        assert_agrees(&net, &table, "random walks");
    }
}

/// Small instances of every engine in the `fabric_static` workload,
/// intact and with failed channels removed.
#[test]
fn fabric_engines_agree() {
    let mut cases: Vec<(&str, Network, TableRouting)> = Vec::new();
    for dims in [&[3, 4][..], &[2, 3, 2]] {
        let mesh = Mesh::new(dims);
        let t = dimension_order(&mesh).unwrap();
        cases.push(("dimension_order", mesh.network().clone(), t));
        let t = negative_first(&mesh).unwrap();
        cases.push(("negative_first", mesh.network().clone(), t));
    }
    let mesh = Mesh::new(&[3, 3]);
    cases.push((
        "west_first",
        mesh.network().clone(),
        west_first(&mesh).unwrap(),
    ));
    cases.push(("xy_mesh", mesh.network().clone(), xy_mesh(&mesh).unwrap()));
    let (net, nodes) = ring_with_vcs(6, 2);
    let t = dateline_ring(&net, &nodes).unwrap();
    cases.push(("dateline_ring", net, t));
    let cube = Hypercube::new(3);
    cases.push(("ecube", cube.network().clone(), ecube(&cube).unwrap()));
    let df = Dragonfly::new(3, 2);
    cases.push((
        "dragonfly_minimal",
        df.network().clone(),
        dragonfly_minimal(&df).unwrap(),
    ));
    let df = Dragonfly::new_valiant(3, 2);
    cases.push((
        "dragonfly_valiant",
        df.network().clone(),
        dragonfly_valiant(&df).unwrap(),
    ));
    let df = Dragonfly::with_lanes(3, 3, &[0], &[0]);
    cases.push((
        "single-lane dragonfly_minimal",
        df.network().clone(),
        dragonfly_minimal(&df).unwrap(),
    ));
    let ft = FatTree::new(4);
    cases.push((
        "fattree_updown",
        ft.network().clone(),
        fattree_updown(&ft).unwrap(),
    ));
    let (net, nodes) = complete(7);
    cases.push((
        "fullmesh_vcfree",
        net.clone(),
        fullmesh_vcfree(&net, &nodes).unwrap(),
    ));
    cases.push((
        "fullmesh_ring_detour",
        net.clone(),
        fullmesh_ring_detour(&net, &nodes).unwrap(),
    ));
    cases.push((
        "fullmesh_direct",
        net.clone(),
        fullmesh_direct(&net).unwrap(),
    ));
    let (net, nodes) = ring_unidirectional(5);
    let t = clockwise_ring(&net, &nodes).unwrap();
    cases.push(("clockwise_ring", net, t));

    let mut rng = StdRng::seed_from_u64(14);
    for (name, net, table) in &cases {
        assert_agrees(net, table, name);
        for _ in 0..4 {
            assert_agrees(net, &degrade(net, table, &mut rng), name);
        }
    }
}

/// Tables on more than 64 nodes, with a node count that is not a
/// multiple of 64: the pass's BFS searches 64 sources at a time.
/// Partial rows (the fat tree, degraded tables), pairs unreachable
/// across the first batch boundary, and suffix tries that branch (the
/// dateline ring and torus violate Definition 8 after every dateline
/// crossing, so suffixes from one node differ by lane).
#[test]
fn batch_boundaries_and_branching_tries_agree() {
    let mut cases: Vec<(&str, Network, TableRouting)> = Vec::new();
    let mesh = Mesh::new(&[9, 10]);
    let t = dimension_order(&mesh).unwrap();
    cases.push(("9x10 dimension_order", mesh.network().clone(), t));
    let ft = FatTree::new(8);
    let t = fattree_updown(&ft).unwrap();
    cases.push(("k=8 fattree_updown", ft.network().clone(), t));
    // Two stars, hubs 0 (leaves 1..63) and 64 (leaves 65..69), joined
    // by the one-way link 0 -> 64: no node of the second batch of 64
    // sources reaches one of the first, so those pairs are unreachable
    // (and unrouted).
    let mut net = Network::new();
    let v = net.add_nodes("s", 70);
    for (hub, leaves) in [(0, 1..64), (64, 65..70)] {
        for leaf in leaves {
            net.add_bidi(v[hub], v[leaf]);
        }
    }
    net.add_channel(v[0], v[64]);
    let t = shortest_path_table(&net).unwrap();
    cases.push(("two stars, shortest paths", net.clone(), t));
    let mut rng = StdRng::seed_from_u64(21);
    let t = random_table(&net, &mut rng, 2).unwrap();
    cases.push(("two stars, random detours", net, t));
    let (net, nodes) = ring_with_vcs(9, 2);
    let t = dateline_ring(&net, &nodes).unwrap();
    cases.push(("9-node dateline_ring", net, t));
    let torus = Torus::new(&[4, 3], 2);
    let t = dateline_torus(&torus).unwrap();
    cases.push(("4x3 dateline_torus", torus.network().clone(), t));
    let torus = Torus::new(&[3, 5], 2);
    let t = dateline_torus(&torus).unwrap();
    cases.push(("3x5 dateline_torus", torus.network().clone(), t));

    let mut rng = StdRng::seed_from_u64(22);
    for (name, net, table) in &cases {
        assert_agrees(net, table, name);
        assert_agrees(net, &degrade(net, table, &mut rng), name);
    }
    let report = |i: usize| properties::analyze(&cases[i].1, &cases[i].2);
    assert!(
        report(2).unrouted_pairs > 0,
        "the one-way link leaves pairs unrouted"
    );
    for i in [4, 5, 6] {
        assert!(report(i).suffix_violations > 0, "{}", cases[i].0);
    }
}

/// The bidirectional 4-cycle `q0 - q1 - q2 - q3 - q0`.
fn square() -> (Network, Vec<NodeId>) {
    let mut net = Network::new();
    let q = net.add_nodes("q", 4);
    for i in 0..4 {
        net.add_bidi(q[i], q[(i + 1) % 4]);
    }
    (net, q)
}

/// A table routing each walk's endpoints over the walk.
fn walks(net: &Network, walks: &[&[NodeId]]) -> TableRouting {
    let mut table = TableBuilder::new(net);
    for walk in walks {
        let path = Path::from_nodes(net, walk).unwrap();
        table.insert(walk[0], *walk.last().unwrap(), path).unwrap();
    }
    table.finish().unwrap()
}

/// Definition 7 constrains only a node's first occurrence.
///
/// Hand derivation: `q0 -> q3` runs `q0 q1 q2 q1 q0 q3`, revisiting
/// `q1` at position 3 and the source at position 4. With `q0 -> q1`
/// and `q0 -> q1 -> q2` registered, both first occurrences (`q1` at 1,
/// `q2` at 2) match their prefixes, and the revisits are unconstrained,
/// so the table is prefix-closed; a rule reading the *last* occurrence
/// would demand `q0 -> q1` be `q0 q1 q2 q1`. Suffixes: `q0 -> q2`'s
/// tail `q1 q2` is unrouted (the first violation, in table order);
/// on the long walk the tails from `q1` (positions 1 and 3) and `q2`
/// are unrouted, and the tail `q0 q3` from position 4 differs from the
/// registered `q0 -> q3` — five violations. The detour is 5 channels
/// against distance 1.
#[test]
fn node_revisit_constrains_only_the_first_occurrence() {
    let (net, q) = square();
    let table = walks(
        &net,
        &[
            &[q[0], q[1]],
            &[q[0], q[1], q[2]],
            &[q[0], q[1], q[2], q[1], q[0], q[3]],
        ],
    );
    let r = properties::analyze(&net, &table);
    assert_eq!(r, reference::report(&net, &table));

    assert!(r.prefix_closed);
    assert_eq!(r.prefix_violations, 0);
    assert!(!r.node_simple && !r.coherent);
    assert_eq!(r.revisiting_paths, 1);
    let walk_pair = (q[0], q[3]);
    assert_eq!(
        r.first_revisit,
        Some(Site {
            pair: walk_pair,
            pos: 3,
            node: q[1]
        })
    );
    assert_eq!(r.suffix_violations, 5);
    assert_eq!(
        r.first_suffix_violation,
        Some(Site {
            pair: (q[0], q[2]),
            pos: 1,
            node: q[1]
        })
    );
    let worst = r.worst_detour.expect("a detour");
    assert_eq!((worst.pair, worst.len, worst.distance), (walk_pair, 5, 1));
    assert!(r.dead_tails.is_empty());
    assert_eq!(r.unrouted_pairs, 12 - 3);
    assert_eq!(
        r.first_unrouted,
        vec![(q[1], q[0]), (q[1], q[2]), (q[1], q[3])]
    );
}

/// A path that passes through its own destination.
///
/// Hand derivation: `q0 -> q1` runs `q0 q1 q2 q1`. It reaches `q1` at
/// hop 1, leaving two dead channels (`W005`). The first occurrence of
/// the destination is interior, and its registered path (the whole
/// walk) is not the one-hop prefix: a Definition 7 violation at
/// position 1; `q2`'s prefix `q0 q1 q2` is unrouted, a second one.
/// Suffixes skip the destination, and the tail `q2 q1` from position 2
/// is unrouted: one Definition 8 violation. The revisit is `q1` at
/// position 3.
#[test]
fn path_through_its_own_destination() {
    let (net, q) = square();
    let table = walks(&net, &[&[q[0], q[1], q[2], q[1]]]);
    let r = properties::analyze(&net, &table);
    assert_eq!(r, reference::report(&net, &table));

    let pair = (q[0], q[1]);
    assert_eq!(
        r.dead_tails,
        vec![DeadTail {
            pair,
            first_arrival: 1
        }]
    );
    assert_eq!(r.prefix_violations, 2);
    assert_eq!(
        r.first_prefix_violation,
        Some(Site {
            pair,
            pos: 1,
            node: q[1]
        })
    );
    assert_eq!(r.suffix_violations, 1);
    assert_eq!(
        r.first_suffix_violation,
        Some(Site {
            pair,
            pos: 2,
            node: q[2]
        })
    );
    assert_eq!(
        r.first_revisit,
        Some(Site {
            pair,
            pos: 3,
            node: q[1]
        })
    );
    assert!(!r.minimal && !r.node_simple && !r.down_up);
    assert_eq!(r.multi_hop_paths, 1);
}
