//! Property-based tests for the routing substrate: compiled functions
//! reproduce their tables, and the Definition 7–9 predicates relate to
//! each other the way the theory says they must.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use wormnet::topology::{complete, Mesh};
use wormnet::NodeId;
use wormroute::algorithms::{random_table, random_tree_routing, shortest_path_table};
use wormroute::{properties, Path, PathRef, RoutingStep, TableBuilder, TableRouting};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whenever a table compiles to a routing function, walking the
    /// function from every source reproduces the table's path exactly.
    #[test]
    fn compiled_function_walks_reproduce_paths(seed in 0u64..500) {
        let mesh = Mesh::new(&[3, 2]);
        let net = mesh.network();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // In-tree routing always compiles (it is a node function).
        let table = random_tree_routing(net, &mut rng).expect("routes");
        let compiled = table.compile(net).expect("node functions compile");
        for ((s, d), path) in table.iter() {
            let mut walked = Vec::new();
            let mut cur = compiled.inject(s, d).expect("routed pair");
            walked.push(cur);
            while let RoutingStep::Forward(c) = compiled.next(net, cur, d) {
                walked.push(c);
                cur = c;
                prop_assert!(walked.len() <= net.channel_count(), "walk must terminate");
            }
            prop_assert_eq!(walked.as_slice(), path.channels());
        }
    }

    /// For total tables: node-function implies suffix-closed, and
    /// coherent implies node-simple paths.
    #[test]
    fn predicate_implications(seed in 0u64..500, detour in 0usize..2) {
        let (net, _) = complete(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let table = random_table(&net, &mut rng, detour).expect("routes");
        prop_assert!(table.is_total(&net));
        if properties::is_node_function(&net, &table) {
            prop_assert!(properties::is_suffix_closed(&net, &table));
        }
        if properties::is_coherent(&net, &table) {
            prop_assert!(properties::never_revisits_nodes(&net, &table));
            prop_assert!(properties::is_prefix_closed(&net, &table));
            prop_assert!(properties::is_suffix_closed(&net, &table));
        }
        // Minimality bound: no path shorter than the hop distance.
        for ((s, d), p) in table.iter() {
            prop_assert!(p.len() >= net.hop_distance(s, d).unwrap());
        }
    }

    /// BFS shortest-path tables are minimal on every mesh and their
    /// compiled form (when it exists) is consistent.
    #[test]
    fn shortest_tables_are_minimal(w in 2usize..5, h in 1usize..4) {
        prop_assume!(w * h >= 2);
        let mesh = Mesh::new(&[w, h]);
        let net = mesh.network();
        let table = shortest_path_table(net).expect("routes");
        prop_assert!(properties::is_minimal(net, &table));
        prop_assert!(table.is_total(net));
        // Deterministic construction.
        prop_assert_eq!(&table, &shortest_path_table(net).expect("routes"));
    }

    /// Paths constructed from node walks round-trip through their
    /// node views.
    #[test]
    fn path_node_roundtrip(seed in 0u64..500) {
        let mesh = Mesh::new(&[3, 3]);
        let net = mesh.network();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let table = random_table(net, &mut rng, 1).expect("routes");
        for ((s, d), p) in table.iter() {
            let nodes = p.nodes(net);
            prop_assert_eq!(nodes[0], s);
            prop_assert_eq!(*nodes.last().unwrap(), d);
            prop_assert_eq!(nodes.len(), p.len() + 1);
            let rebuilt = wormroute::Path::from_channels(net, p.channels().to_vec())
                .expect("valid channels");
            prop_assert_eq!(rebuilt.view(), p);
            // Every interior node splits the channels into a prefix
            // ending at it and a suffix leaving it.
            let chans = p.channels();
            for pos in 1..nodes.len() - 1 {
                prop_assert_eq!(net.channel(chans[pos - 1]).dst(), nodes[pos]);
                prop_assert_eq!(net.channel(chans[pos]).src(), nodes[pos]);
            }
        }
    }

    /// Random tree routing: every source's path to a fixed destination
    /// merges into a tree (once two paths meet, they coincide).
    #[test]
    fn tree_paths_merge(seed in 0u64..300) {
        let mesh = Mesh::new(&[3, 2]);
        let net = mesh.network();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let table = random_tree_routing(net, &mut rng).expect("routes");
        for d in net.nodes() {
            // next-hop per node must be unique across all paths to d.
            let mut next: std::collections::BTreeMap<NodeId, wormnet::ChannelId> =
                Default::default();
            for s in net.nodes() {
                if s == d {
                    continue;
                }
                let p = table.path(s, d).expect("total");
                let nodes = p.nodes(net);
                for (i, &c) in p.channels().iter().enumerate() {
                    let at = nodes[i];
                    match next.get(&at) {
                        Some(&prev) => prop_assert_eq!(prev, c),
                        None => {
                            next.insert(at, c);
                        }
                    }
                }
            }
        }
    }

    /// The flat table against an ordered-map oracle: a random partial
    /// table, inserted in random order, answers `path`, `iter` and
    /// `len` like a `BTreeMap<(NodeId, NodeId), Path>`, and rebuilding
    /// it from node walks gives the same table.
    #[test]
    fn flat_table_matches_a_map_oracle(seed in 0u64..500, keep in 0u64..9) {
        let (net, _) = complete(6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let full = random_table(&net, &mut rng, 1).expect("routes");
        let mut chosen: Vec<((NodeId, NodeId), Path)> = full
            .iter()
            .filter(|_| rng.random_range(0..8u64) < keep)
            .map(|(pair, p)| (pair, p.to_path()))
            .collect();
        chosen.shuffle(&mut rng);
        let oracle: BTreeMap<(NodeId, NodeId), Path> = chosen.iter().cloned().collect();
        let mut builder = TableBuilder::new(&net);
        for ((s, d), p) in chosen {
            builder.insert(s, d, p).expect("valid pair");
        }
        let table = builder.finish().expect("distinct pairs");
        prop_assert_eq!(table.len(), oracle.len());
        prop_assert!(table.iter().map(|(k, p)| (k, p.to_path())).eq(oracle.clone()));
        for s in net.nodes() {
            for d in net.nodes() {
                prop_assert_eq!(table.path(s, d).map(PathRef::to_path), oracle.get(&(s, d)).cloned());
            }
        }
        let walks = TableRouting::build(&net, |path, s, d| {
            oracle.get(&(s, d)).map(|p| path.walk(&p.nodes(&net)))
        })
        .expect("valid walks");
        prop_assert_eq!(&walks, &table);
    }
}
