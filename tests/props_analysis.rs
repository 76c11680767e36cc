//! Property-based tests for the analysis layers: routing properties,
//! CDG structure, candidate validity, and search/simulation agreement.

use cyclic_wormhole::cdg::{enumerate_candidates, sharing, Cdg, Witnesses};
use cyclic_wormhole::core::family::{CycleMessageSpec, SharedCycleSpec};
use cyclic_wormhole::net::topology::Mesh;
use cyclic_wormhole::route::algorithms::{dimension_order, random_table};
use cyclic_wormhole::route::properties;
use cyclic_wormhole::search::{explore, SearchConfig};
use cyclic_wormhole::sim::runner::{ArbitrationPolicy, Outcome, Runner};
use cyclic_wormhole::sim::{MessageSpec, Sim};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dimension-order routing is minimal, coherent, compiles to a
    /// routing function, and has an acyclic CDG — on every mesh shape.
    #[test]
    fn dor_properties_on_every_mesh(w in 2usize..5, h in 1usize..4, d3 in 1usize..3) {
        prop_assume!(w * h * d3 >= 2);
        let mesh = Mesh::new(&[w, h, d3]);
        let table = dimension_order(&mesh).expect("routes");
        let report = properties::analyze(mesh.network(), &table);
        prop_assert!(report.total && report.minimal && report.coherent);
        prop_assert!(table.compile(mesh.network()).is_ok());
        prop_assert!(Cdg::build(mesh.network(), &table).is_acyclic());
    }

    /// Random routing tables always produce structurally valid CDGs:
    /// every edge witness's path really contains the edge, and every
    /// enumerated candidate is a legal Definition-6 configuration.
    #[test]
    fn random_tables_produce_valid_candidates(seed in 0u64..500, detour in 0usize..3) {
        let mesh = Mesh::new(&[3, 2]);
        let net = mesh.network();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let table = random_table(net, &mut rng, detour).expect("routes");
        let cdg = Cdg::build(net, &table);
        let witnesses = Witnesses::gather(&table, cdg.edges());

        for (c1, c2) in cdg.edges() {
            for &(s, d) in witnesses.get(c1, c2) {
                let path = table.path(s, d).expect("witness routed");
                let chans = path.channels();
                let ok = chans.windows(2).any(|w| w[0] == c1 && w[1] == c2);
                prop_assert!(ok, "witness does not induce edge");
            }
        }

        for cycle in cdg.cycles_bounded(200).into_iter().flatten() {
            let (candidates, _) = enumerate_candidates(&witnesses, &cycle, 200);
            for cand in candidates.iter() {
                // Segments tile the cycle.
                let total: u32 = cand.iter().map(|s| s.len).sum();
                prop_assert_eq!(total as usize, cycle.len());
                prop_assert!(cand.len() >= 2);
                // Each owner holds consecutive channels of its path and
                // wants the next segment's head.
                let k = cand.len();
                for i in 0..k {
                    let cur = &cand[i];
                    let next = &cand[(i + 1) % k];
                    let held: Vec<_> = cur.channels(&cycle).collect();
                    let path = table.path(cur.msg.0, cur.msg.1).expect("routed");
                    let chans = path.channels();
                    let start = chans
                        .iter()
                        .position(|&c| c == held[0])
                        .expect("held channels on path");
                    prop_assert_eq!(&chans[start..start + held.len()], &held[..]);
                    prop_assert_eq!(
                        chans[start + held.len()],
                        next.channels(&cycle).next().unwrap()
                    );
                }
            }
        }
    }

    /// Whenever the exhaustive search certifies deadlock freedom for a
    /// message set, no concrete policy run can deadlock.
    #[test]
    fn search_freedom_implies_run_freedom(seed in 0u64..200) {
        let mesh = Mesh::new(&[2, 2]);
        let net = mesh.network();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let table = random_table(net, &mut rng, 1).expect("routes");
        let nodes: Vec<_> = net.nodes().collect();
        let specs: Vec<MessageSpec> = (0..3)
            .map(|i| {
                let s = nodes[(seed as usize + i) % nodes.len()];
                let d = nodes[(seed as usize + i + 1) % nodes.len()];
                MessageSpec::new(s, d, 2 + i % 3)
            })
            .filter(|m| table.path(m.src, m.dst).is_some())
            .collect();
        prop_assume!(!specs.is_empty());

        let sim = Sim::new(net, &table, specs, Some(1)).expect("routed");
        let result = explore(&sim, &SearchConfig::default());
        if result.verdict.is_free() {
            for policy in [
                ArbitrationPolicy::LowestId,
                ArbitrationPolicy::Adversarial,
            ] {
                let mut runner = Runner::new(&sim, policy);
                let outcome = runner.run(50_000);
                let deadlocked = matches!(outcome, Outcome::Deadlock { .. });
                prop_assert!(!deadlocked);
            }
        }
    }

    /// The search is deterministic: same inputs, same verdict and
    /// state count.
    #[test]
    fn search_is_deterministic(d1 in 1usize..4, d2 in 1usize..4) {
        let spec = SharedCycleSpec {
            messages: vec![
                CycleMessageSpec::shared(d1, 3, 1),
                CycleMessageSpec::shared(d2, 3, 1),
            ],
        };
        let c = spec.build();
        let sim = Sim::new(&c.net, &c.table, c.message_specs(), Some(1)).expect("routed");
        let a = explore(&sim, &SearchConfig::default());
        let b = explore(&sim, &SearchConfig::default());
        prop_assert_eq!(a.verdict.is_free(), b.verdict.is_free());
        prop_assert_eq!(a.states_explored, b.states_explored);
    }

    /// Sharing analysis geometry is internally consistent on arbitrary
    /// family instances: d + 1 + a <= path length, and the entry
    /// channel is the first ring channel.
    #[test]
    fn family_geometry_consistent(
        params in prop::collection::vec((1usize..4, 1usize..5), 2..5),
    ) {
        let spec = SharedCycleSpec {
            messages: params
                .iter()
                .map(|&(d, g)| CycleMessageSpec::shared(d, g, 1))
                .collect(),
        };
        let c = spec.build();
        let cycle = c.cycle();
        for b in &c.built {
            let g = sharing::geometry(&c.net, &c.table, &cycle, b.pair, Some(c.cs));
            prop_assert_eq!(g.d, Some(b.spec.d));
            prop_assert_eq!(g.a, b.spec.a());
            prop_assert_eq!(g.entry_index, 1 + b.spec.d);
            prop_assert_eq!(g.path_len, 1 + b.spec.d + b.spec.a());
        }
    }
}
