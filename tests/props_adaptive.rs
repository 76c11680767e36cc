//! Property-based tests for the adaptive engine, including the
//! cross-engine check: on a singleton (table-derived) relation the
//! adaptive engine must behave exactly like the oblivious one.

use cyclic_wormhole::net::topology::Mesh;
use cyclic_wormhole::route::adaptive::{from_table, fully_adaptive_minimal};
use cyclic_wormhole::route::algorithms::dimension_order;
use cyclic_wormhole::sim::adaptive::{
    AdaptiveDecisions, AdaptivePolicy, AdaptiveRunner, AdaptiveSim,
};
use cyclic_wormhole::sim::runner::{ArbitrationPolicy, Outcome, Runner};
use cyclic_wormhole::sim::{MessageSpec, Sim};
use proptest::prelude::*;

fn mesh_messages(mesh: &Mesh, raw: &[(usize, usize, usize)]) -> Vec<MessageSpec> {
    let n = mesh.network().node_count();
    raw.iter()
        .filter_map(|&(s, d, len)| {
            let src = cyclic_wormhole::net::NodeId::from_index(s % n);
            let dst = cyclic_wormhole::net::NodeId::from_index(d % n);
            (src != dst).then(|| MessageSpec::new(src, dst, len))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cross-engine equivalence: a singleton adaptive relation derived
    /// from dimension-order routing delivers the same workload in the
    /// same number of cycles as the oblivious engine under matching
    /// greedy policies.
    #[test]
    fn singleton_adaptive_matches_oblivious(
        w in 2usize..4,
        h in 2usize..4,
        raw in prop::collection::vec((0usize..16, 0usize..16, 1usize..5), 1..4),
    ) {
        let mesh = Mesh::new(&[w, h]);
        let table = dimension_order(&mesh).expect("routes");
        let specs = mesh_messages(&mesh, &raw);
        prop_assume!(!specs.is_empty());

        // Oblivious run, lowest-id arbitration.
        let sim = Sim::new(mesh.network(), &table, specs.clone(), Some(1)).expect("routed");
        let mut runner = Runner::new(&sim, ArbitrationPolicy::LowestId);
        let oblivious = runner.run(100_000);

        // Adaptive run over the singleton relation, greedy first-free
        // (identical tie-breaking: lowest message id claims first).
        let relation = from_table(mesh.network(), &table).expect("compiles");
        let asim = AdaptiveSim::new(mesh.network(), relation, specs).expect("routed");
        let mut arunner = AdaptiveRunner::new(&asim, AdaptivePolicy::FirstFree);
        let adaptive = arunner.run(100_000);

        match (&oblivious, &adaptive) {
            (Outcome::Delivered { cycles: a }, Outcome::Delivered { cycles: b }) => {
                prop_assert_eq!(a, b, "same delivery time");
            }
            (a, b) => prop_assert!(false, "outcomes diverge: {:?} vs {:?}", a, b),
        }
        // Per-message delivery times match too.
        for m in sim.messages() {
            prop_assert_eq!(
                runner.stats().delivered_at[m.index()],
                arunner.stats().delivered_at[m.index()]
            );
        }
    }

    /// Adaptive engine invariants hold under arbitrary greedy-ish
    /// decision sequences on fully adaptive meshes.
    #[test]
    fn adaptive_invariants_hold(
        w in 2usize..4,
        h in 2usize..4,
        raw in prop::collection::vec((0usize..16, 0usize..16, 1usize..5), 1..4),
        words in prop::collection::vec(any::<u64>(), 1..32),
        steps in 1usize..80,
    ) {
        let mesh = Mesh::new(&[w, h]);
        let routing = fully_adaptive_minimal(&mesh);
        let specs = mesh_messages(&mesh, &raw);
        prop_assume!(!specs.is_empty());
        let sim = AdaptiveSim::new(mesh.network(), routing, specs).expect("routed");
        let mut state = sim.initial_state();
        let mut pos = 0usize;
        let mut next = || {
            let v = words[pos % words.len()].wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(pos as u64);
            pos += 1;
            v
        };
        for _ in 0..steps {
            let mut moves = std::collections::BTreeMap::new();
            let mut claimed = Vec::new();
            for (m, opts) in sim.free_options(&state) {
                let w = next();
                // Sometimes hold the header back.
                if w % 4 == 0 {
                    continue;
                }
                let remaining: Vec<_> =
                    opts.into_iter().filter(|c| !claimed.contains(c)).collect();
                if remaining.is_empty() {
                    continue;
                }
                let pick = remaining[(w as usize / 4) % remaining.len()];
                claimed.push(pick);
                moves.insert(m, pick);
            }
            sim.step(&mut state, &AdaptiveDecisions { moves });
            sim.check_invariants(&state);
        }
        // Taken prefixes never exceed a minimal path's length on a
        // minimal relation.
        for m in sim.messages() {
            let spec = sim.spec(m);
            prop_assert!(
                state.taken[m.index()].len() <= mesh.manhattan(spec.src, spec.dst)
            );
        }
    }

    /// On minimal adaptive relations, delivered messages take exactly
    /// Manhattan-many hops, whatever the route chosen.
    #[test]
    fn adaptive_minimal_paths_are_minimal(seed in 0u64..300) {
        let mesh = Mesh::new(&[3, 3]);
        let routing = fully_adaptive_minimal(&mesh);
        let specs = vec![
            MessageSpec::new(mesh.node(&[0, 0]), mesh.node(&[2, 1]), 3),
            MessageSpec::new(mesh.node(&[2, 2]), mesh.node(&[0, 1]), 3),
        ];
        let sim = AdaptiveSim::new(mesh.network(), routing, specs).expect("routed");
        let mut runner = AdaptiveRunner::new(&sim, AdaptivePolicy::Seeded(seed));
        let outcome = runner.run(10_000);
        let delivered = matches!(outcome, Outcome::Delivered { .. });
        prop_assert!(delivered);
        let state = runner.state();
        for m in sim.messages() {
            let spec = sim.spec(m);
            prop_assert_eq!(
                state.taken[m.index()].len(),
                mesh.manhattan(spec.src, spec.dst)
            );
        }
    }
}
