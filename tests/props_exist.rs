//! Property tests for the existence engine's two-sided certificates
//! on random topologies, plus degraded-topology agreement with
//! `wormfault::reverify`.
//!
//! The soundness contract under test:
//!
//! * **exists** ⇒ the witness materialises into a routing of *every*
//!   reachable demand whose CDG is acyclic (the classic Dally–Seitz
//!   certificate re-checks it with no reference to the engine);
//! * **impossible** ⇒ the obstruction re-validates in isolation
//!   ([`wormexist::check_obstruction`]) and every random routing
//!   proposed on the fabric has a cyclic CDG;
//! * **degraded** ⇒ [`wormfault::reverify`]'s `routability` taxonomy
//!   is exactly the composition of the degraded classifier verdict and
//!   the masked existence verdict — fault scenarios can tell "this
//!   routing broke but another exists" from "no routing can exist".

use cyclic_wormhole::cdg::Cdg;
use cyclic_wormhole::core::classify::ClassifyOptions;
use cyclic_wormhole::fault::{reverify, FaultPlan, FaultRoutability};
use cyclic_wormhole::net::{ChannelId, Network, NodeId};
use cyclic_wormhole::route::algorithms::random_table;
use proptest::prelude::*;
use rand::SeedableRng;
use wormexist::{
    analyze, analyze_masked, check_obstruction, witness_table, ExistOptions, ExistenceVerdict,
};

/// Build a multigraph from a node count and a raw edge list (entries
/// taken mod `n`; self-loops dropped; duplicate arcs become extra
/// lanes, exercising the multichannel path of the engine).
fn build_net(n: usize, raw: &[(usize, usize)]) -> Network {
    let mut net = Network::new();
    let nodes = net.add_nodes("v", n);
    let mut lane = std::collections::HashMap::new();
    for &(u, v) in raw {
        let (u, v) = (u % n, v % n);
        if u == v {
            continue;
        }
        let vc = lane.entry((u, v)).or_insert(0u8);
        net.add_channel_vc(nodes[u], nodes[v], *vc);
        *vc = vc.wrapping_add(1);
    }
    net
}

/// The engine's two-sided soundness on an arbitrary fabric.
fn assert_two_sided_sound(net: &Network, seed: u64) {
    let report = analyze(net, &ExistOptions::default());
    match report.verdict {
        ExistenceVerdict::Exists => {
            let witness = report.witness.as_ref().expect("exists carries a witness");
            let table = witness_table(net, witness).expect("witness materialises");
            assert_eq!(table.len(), report.demands, "witness covers every demand");
            assert!(
                Cdg::build(net, &table).is_acyclic(),
                "witness CDG must be acyclic"
            );
            for ((src, dst), path) in table.iter() {
                assert!(path.is_node_simple(net));
                assert_eq!(path.src(net), src);
                assert_eq!(path.dst(net), dst);
            }
        }
        ExistenceVerdict::Impossible => {
            let obs = report
                .obstruction
                .as_ref()
                .expect("impossible carries an obstruction");
            assert!(
                check_obstruction(net, &[], obs),
                "obstruction re-validates in isolation"
            );
            // No random routing may contradict the verdict. Partial
            // tables (disconnected fabrics) prove nothing and are
            // skipped; an acyclic *total* routing would be a bug.
            for s in 0..4u64 {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ s);
                let Ok(table) = random_table(net, &mut rng, (s % 2) as usize) else {
                    continue;
                };
                if !table.is_total(net) {
                    continue;
                }
                assert!(
                    !Cdg::build(net, &table).is_acyclic(),
                    "random total routing contradicts an impossible verdict"
                );
            }
        }
        ExistenceVerdict::Unknown => {
            // Finite budgets: no claim to check, but the report must
            // then carry neither certificate.
            assert!(report.witness.is_none() && report.obstruction.is_none());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two-sided certificate soundness on uniformly random fabrics.
    #[test]
    fn random_fabrics_get_sound_certificates(
        n in 2usize..9,
        raw in prop::collection::vec((0usize..9, 0usize..9), 1..40),
        seed in 0u64..1u64 << 32,
    ) {
        let net = build_net(n, &raw);
        assert_two_sided_sound(&net, seed);
    }

    /// Masked analysis agrees with analysing the surviving fabric:
    /// killing channels and re-running must match the verdict of the
    /// network with those channels structurally absent.
    #[test]
    fn masked_analysis_matches_the_amputated_fabric(
        n in 2usize..8,
        raw in prop::collection::vec((0usize..8, 0usize..8), 2..30),
        kill in prop::collection::vec(any::<bool>(), 2..30),
    ) {
        let net = build_net(n, &raw);
        let down: Vec<ChannelId> = net
            .channels()
            .filter(|c| *kill.get(c.id().index()).unwrap_or(&false))
            .map(|c| c.id())
            .collect();
        let masked = analyze_masked(&net, &down, &ExistOptions::default());

        // Rebuild the fabric without the down channels (same node set,
        // same channel multiplicities otherwise).
        let mut amputated = Network::new();
        let nodes = amputated.add_nodes("v", n);
        for c in net.channels() {
            if !down.contains(&c.id()) {
                amputated.add_channel_vc(
                    nodes[c.src().index()],
                    nodes[c.dst().index()],
                    c.vc(),
                );
            }
        }
        let direct = analyze(&amputated, &ExistOptions::default());
        prop_assert_eq!(masked.verdict, direct.verdict);
        prop_assert_eq!(masked.demands, direct.demands);
        prop_assert_eq!(masked.sccs, direct.sccs);
    }

    /// `wormfault::reverify`'s routability taxonomy is exactly the
    /// composition of its two inputs, and its embedded existence
    /// report agrees with a standalone masked analysis.
    #[test]
    fn reverify_routability_agrees_with_masked_existence(
        n in 3usize..7,
        raw in prop::collection::vec((0usize..7, 0usize..7), 4..24),
        detour in 0usize..2,
        table_seed in 0u64..1u64 << 32,
        kill in prop::collection::vec(any::<bool>(), 0..24),
    ) {
        let net = build_net(n, &raw);
        let mut rng = rand::rngs::StdRng::seed_from_u64(table_seed);
        let Ok(table) = random_table(&net, &mut rng, detour) else {
            // Disconnected fabric: no total routing to re-verify.
            return Ok(());
        };
        let mut plan = FaultPlan::new();
        let mut down = Vec::new();
        for c in net.channels() {
            if *kill.get(c.id().index()).unwrap_or(&false) {
                plan = plan.channel_down(c.id(), 1);
                down.push(c.id());
            }
        }
        let r = reverify(&net, &table, &plan, &ClassifyOptions::default());
        let standalone = analyze_masked(&net, &down, &ExistOptions::default());
        prop_assert_eq!(r.degraded.existence.verdict, standalone.verdict);
        prop_assert_eq!(&r.degraded.existence.down, &standalone.down);

        let expect = if r.degraded.is_deadlock_free() == Some(true) {
            FaultRoutability::RoutingSurvives
        } else {
            match standalone.verdict {
                ExistenceVerdict::Exists => FaultRoutability::ReroutableDamage,
                ExistenceVerdict::Impossible => FaultRoutability::FabricUnroutable,
                ExistenceVerdict::Unknown => FaultRoutability::Unknown,
            }
        };
        prop_assert_eq!(r.routability, expect);
    }
}

#[test]
fn fabric_unroutable_is_reachable_in_the_taxonomy() {
    // Directed triangle, single lane: deadlockable table, impossible
    // fabric — the case the taxonomy exists to name.
    let mut net = Network::new();
    let nodes = net.add_nodes("v", 3);
    for i in 0..3 {
        net.add_channel(nodes[i], nodes[(i + 1) % 3]);
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let table = random_table(&net, &mut rng, 0).expect("triangle routes");
    let r = reverify(&net, &table, &FaultPlan::new(), &ClassifyOptions::default());
    assert_eq!(r.routability, FaultRoutability::FabricUnroutable);
    assert_eq!(
        r.degraded.existence.verdict,
        ExistenceVerdict::Impossible,
        "single-lane triangle admits no deadlock-free routing"
    );
}

#[test]
fn witness_paths_ascend_the_schedule() {
    // The structural reason witness CDGs are acyclic: every path's
    // channels appear in strictly increasing schedule position. Check
    // it explicitly on one nontrivial fabric (two-lane ring).
    let mut net = Network::new();
    let nodes = net.add_nodes("r", 5);
    for i in 0..5 {
        net.add_channel_vc(nodes[i], nodes[(i + 1) % 5], 0);
        net.add_channel_vc(nodes[i], nodes[(i + 1) % 5], 1);
    }
    let report = analyze(&net, &ExistOptions::default());
    assert_eq!(report.verdict, ExistenceVerdict::Exists);
    let witness = report.witness.unwrap();
    let pos: std::collections::HashMap<ChannelId, usize> = witness
        .order
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, i))
        .collect();
    let table = witness_table(&net, &witness).unwrap();
    let all: Vec<(NodeId, NodeId)> = table.iter().map(|(p, _)| p).collect();
    assert_eq!(all.len(), 20, "5-node ring has 20 ordered pairs");
    for (_, path) in table.iter() {
        let positions: Vec<usize> = path.channels().iter().map(|c| pos[c]).collect();
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "witness path must ascend the schedule: {positions:?}"
        );
    }
}
