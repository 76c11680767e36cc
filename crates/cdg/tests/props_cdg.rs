//! Property-based tests for the CDG layer: witness completeness, the
//! Dally–Seitz certificate, and candidate validity over random
//! routing algorithms.

use proptest::prelude::*;
use rand::SeedableRng;
use wormcdg::{check_numbering, enumerate_candidates, Cdg, Witnesses};
use wormnet::topology::{ring_unidirectional, Mesh};
use wormroute::algorithms::{clockwise_ring, random_table, random_tree_routing};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Witness completeness and exactness: the CDG has an edge for
    /// *every* consecutive channel pair of *every* path and nothing
    /// else, and the witnesses gathered for all of its edges list
    /// exactly the messages whose path holds that pair, in table order.
    #[test]
    fn witnesses_are_complete_and_exact(seed in 0u64..500) {
        let mesh = Mesh::new(&[3, 2]);
        let net = mesh.network();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let table = random_table(net, &mut rng, 1).expect("routes");
        let cdg = Cdg::build(net, &table);
        let witnesses = Witnesses::gather(&table, cdg.edges());

        // Forward direction: every window is an edge and witnessed.
        let mut expected: std::collections::BTreeMap<_, Vec<_>> = Default::default();
        for (pair, path) in table.iter() {
            for w in path.channels().windows(2) {
                expected.entry((w[0], w[1])).or_default().push(pair);
                prop_assert!(cdg.has_edge(w[0], w[1]));
                prop_assert!(witnesses.get(w[0], w[1]).contains(&pair));
            }
        }
        // Reverse: no edge without a window, and no other witness.
        prop_assert_eq!(cdg.edge_count(), expected.len());
        prop_assert!(cdg.edges().eq(expected.keys().copied()));
        for ((a, b), pairs) in &expected {
            prop_assert_eq!(witnesses.get(*a, *b), pairs.as_slice());
        }
    }

    /// The Dally–Seitz numbering exists iff the CDG is acyclic, and
    /// when it exists the independent checker accepts it: it strictly
    /// increases along every individual path. Swapping the numbers of
    /// any dependency's two channels breaks it.
    #[test]
    fn numbering_certificate_is_sound(seed in 0u64..500) {
        let mesh = Mesh::new(&[3, 2]);
        let net = mesh.network();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let table = random_tree_routing(net, &mut rng).expect("routes");
        let cdg = Cdg::build(net, &table);
        match cdg.numbering() {
            Some(mut numbering) => {
                prop_assert!(cdg.is_acyclic());
                prop_assert_eq!(check_numbering(net, &table, &numbering), Ok(()));
                if let Some((a, b)) = cdg.edges().nth(seed as usize % cdg.edge_count().max(1)) {
                    numbering.swap(a.index(), b.index());
                    prop_assert!(check_numbering(net, &table, &numbering).is_err());
                }
            }
            None => prop_assert!(!cdg.is_acyclic()),
        }
    }

    /// Candidate enumeration on rings: the count is stable across
    /// calls, candidates tile the cycle, and every blocking handoff is
    /// witnessed.
    #[test]
    fn ring_candidates_are_valid(n in 3usize..6) {
        let (net, nodes) = ring_unidirectional(n);
        let table = clockwise_ring(&net, &nodes).expect("routes");
        let cdg = Cdg::build(&net, &table);
        let cycle = cdg.cycles().remove(0);
        let witnesses = Witnesses::of_cycles(&table, [&cycle]);
        let (cands, complete) = enumerate_candidates(&witnesses, &cycle, 1_000_000);
        prop_assert!(complete);
        prop_assert!(!cands.is_empty());
        let (again, _) = enumerate_candidates(&witnesses, &cycle, 1_000_000);
        prop_assert_eq!(&cands, &again, "deterministic enumeration");
        for cand in &cands {
            let total: usize = cand.segments.iter().map(|s| s.channels.len()).sum();
            prop_assert_eq!(total, cycle.len());
            let k = cand.segments.len();
            prop_assert!(k >= 2);
            for i in 0..k {
                let cur = &cand.segments[i];
                let next = &cand.segments[(i + 1) % k];
                let last = *cur.channels.last().unwrap();
                prop_assert!(witnesses.get(last, next.channels[0]).contains(&cur.msg));
            }
            // Each message owns exactly one segment.
            let mut msgs: Vec<_> = cand.messages();
            msgs.sort_unstable();
            msgs.dedup();
            prop_assert_eq!(msgs.len(), k);
        }
    }

    /// Cycle enumeration output is canonical: cycles are sorted,
    /// deduplicated, rotation-normalized, and every edge exists.
    #[test]
    fn cycles_are_canonical(seed in 0u64..300) {
        let mesh = Mesh::new(&[2, 2]);
        let net = mesh.network();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let table = random_table(net, &mut rng, 2).expect("routes");
        let cdg = Cdg::build(net, &table);
        if let Some(cycles) = cdg.cycles_bounded(10_000) {
            for c in &cycles {
                let min = c.channels.iter().min().unwrap();
                prop_assert_eq!(&c.channels[0], min, "minimum channel first");
                for (a, b) in c.edge_pairs() {
                    prop_assert!(cdg.has_edge(a, b));
                }
            }
            let mut sorted = cycles.clone();
            sorted.sort_by(|a, b| a.channels.cmp(&b.channels));
            sorted.dedup();
            prop_assert_eq!(sorted.len(), cycles.len(), "no duplicates");
        }
    }
}
