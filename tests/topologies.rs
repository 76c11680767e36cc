//! Cluster-scale topology builders and their production routing
//! engines: structural invariants, certified static verdicts, and
//! three-way differential agreement.
//!
//! Three layers of checking:
//!
//! 1. **Structural invariants** — node/channel counts against the
//!    closed-form formulas, virtual-channel layering per family, and
//!    the expected diameter.
//! 2. **Differential agreement** — on the downscaled instances the CI
//!    smoke suite uses, `worm_core::classify`, the `wormlint`
//!    registry, and bounded exhaustive search must tell the same
//!    story: the production engines are deadlock-free, the no-VC
//!    dragonfly misconfiguration deadlocks.
//! 3. **Scale** — the 330-node full mesh (108,570 channels, above the
//!    10^5 bar) earns a certified `free-acyclic` verdict with the
//!    W209 down/up numbering certificate even in a debug build.

use cyclic_wormhole::cdg::check_numbering;
use cyclic_wormhole::core::classify::{classify_algorithm, AlgorithmVerdict, ClassifyOptions};
use cyclic_wormhole::exist::ExistOptions;
use cyclic_wormhole::net::topology::{complete, Dragonfly, FatTree, FatTreeTier};
use cyclic_wormhole::net::Network;
use cyclic_wormhole::route::algorithms::{dragonfly_minimal, fattree_updown, fullmesh_vcfree};
use cyclic_wormhole::search::{explore, SearchConfig};
use cyclic_wormhole::sim::{MessageSpec, Sim};
use wormbench::scenarios::large_topology_scenarios;
use wormlint::{LintConfig, LintContext, Registry, StaticVerdict};

/// Largest finite shortest-path distance over all node pairs.
fn diameter(net: &Network) -> usize {
    net.nodes()
        .flat_map(|src| net.distances_from(src))
        .flatten()
        .max()
        .expect("non-empty network")
}

#[test]
fn dragonfly_structural_invariants() {
    let (groups, routers) = (5, 4);
    let df = Dragonfly::new(groups, routers);
    let net = df.network();
    assert_eq!(net.node_count(), groups * routers);
    // Minimal VC-ordered lanes: every ordered in-group router pair gets
    // a local channel per local lane; every unordered group pair gets
    // one global link (two directed channels) per global lane.
    let locals = groups * routers * (routers - 1) * df.local_lanes().len();
    let globals = groups * (groups - 1) * df.global_lanes().len();
    assert_eq!(net.channel_count(), locals + globals);
    // Lane layering: locals on {0, 2}, globals on {1} — the strictly
    // increasing local/global/local sequence behind the W208
    // certificate.
    assert_eq!(df.local_lanes(), &[0, 2]);
    assert_eq!(df.global_lanes(), &[1]);
    let lanes: std::collections::BTreeSet<u8> = net.channels().map(|c| c.vc()).collect();
    assert_eq!(lanes.into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    // Minimal routing is local/global/local: diameter 3.
    assert_eq!(diameter(net), 3);

    let valiant = Dragonfly::new_valiant(groups, routers);
    assert_eq!(valiant.local_lanes(), &[0, 2, 4]);
    assert_eq!(valiant.global_lanes(), &[1, 3]);
}

#[test]
fn fattree_structural_invariants() {
    let k = 4;
    let ft = FatTree::new(k);
    let net = ft.network();
    let half = k / 2;
    // (k/2)^2 cores + k pods of k/2 aggregation + k/2 edge switches.
    assert_eq!(net.node_count(), half * half + k * (half + half));
    let (mut cores, mut aggs, mut edges) = (0, 0, 0);
    for node in net.nodes() {
        match ft.tier(node) {
            FatTreeTier::Core => cores += 1,
            FatTreeTier::Aggregation => aggs += 1,
            FatTreeTier::Edge => edges += 1,
        }
    }
    assert_eq!((cores, aggs, edges), (half * half, k * half, k * half));
    // Each tier boundary carries k * (k/2)^2 links, each bidirectional.
    assert_eq!(net.channel_count(), 2 * 2 * k * half * half);
    // Up*/down* needs no virtual channels: a single lane everywhere.
    assert!(net.channels().all(|c| c.vc() == 0));
    // Edge-to-edge across pods: up through an aggregation switch and a
    // core, down the far side — diameter 4.
    assert_eq!(diameter(net), 4);
}

#[test]
fn fullmesh_structural_invariants() {
    let n = 12;
    let (net, nodes) = complete(n);
    assert_eq!(nodes.len(), n);
    assert_eq!(net.node_count(), n);
    assert_eq!(net.channel_count(), n * (n - 1));
    assert!(net.channels().all(|c| c.vc() == 0));
    assert_eq!(diameter(&net), 1);
}

/// The stable label `worm_core::classify` verdicts are compared under.
fn classify_label(v: &AlgorithmVerdict) -> &'static str {
    match v {
        AlgorithmVerdict::DeadlockFreeAcyclic { .. } => "free-acyclic",
        AlgorithmVerdict::DeadlockFreeWithCycles { .. } => "free-cyclic",
        AlgorithmVerdict::Deadlockable { .. } => "deadlockable",
        AlgorithmVerdict::Unknown { .. } => "unknown",
    }
}

/// Enumeration budgets for the cyclic no-VC instance, mirroring the
/// bench harness: Corollary 1 decides it from the node-function
/// property plus CDG cyclicity, so a handful of cycles suffices —
/// unbounded enumeration on a deeply cyclic CDG is exactly what the
/// certified pipeline avoids.
const MAX_CYCLES: usize = 8;
const MAX_CANDIDATES: usize = 256;

/// Classifier and lint registry agree with each scenario's expected
/// verdict on the downscaled (CI smoke) instances, each family carries
/// its Dally–Seitz numbering certificate, and the classifier's
/// numbering passes the independent path-walking check.
#[test]
fn downscaled_scenarios_certify_expected_verdicts() {
    let registry = Registry::with_default_lints();
    let expected_certificate = [
        ("topo_dragonfly_min", Some("W208")),
        ("topo_fattree_updown", Some("W209")),
        ("topo_fullmesh_vcfree", Some("W209")),
        ("topo_dragonfly_novc", None),
    ];
    let scenarios = large_topology_scenarios(true);
    assert_eq!(scenarios.len(), expected_certificate.len());
    for s in &scenarios {
        let opts = ClassifyOptions {
            max_cycles: MAX_CYCLES,
            max_candidates: MAX_CANDIDATES,
            use_search: false,
            ..ClassifyOptions::default()
        };
        let verdict = classify_algorithm(&s.net, &s.table, &opts);
        assert_eq!(classify_label(&verdict), s.expected_verdict, "{}", s.name);
        if let AlgorithmVerdict::DeadlockFreeAcyclic { numbering } = &verdict {
            assert_eq!(
                check_numbering(&s.net, &s.table, numbering),
                Ok(()),
                "{}",
                s.name
            );
        }

        let config = LintConfig {
            max_cycles: MAX_CYCLES,
            max_candidates: MAX_CANDIDATES,
            ..LintConfig::default()
        };
        let report = registry.run(&s.net, &s.table, &config);
        assert_eq!(report.verdict.name(), s.expected_verdict, "{}", s.name);

        let (_, cert) = expected_certificate
            .iter()
            .find(|(name, _)| *name == s.name)
            .expect("unexpected scenario name");
        if let Some(code) = cert {
            assert!(
                report.diagnostics.iter().any(|d| &d.code == code),
                "{}: missing numbering certificate {code}",
                s.name
            );
        }
    }
}

/// On the downscaled no-VC dragonfly the classifier refutes the table
/// from the cycles the lint context analyses: both stream the same CDG
/// cycles, in the same order.
#[test]
fn downscaled_novc_refutation_witness_matches_lint() {
    let scenarios = large_topology_scenarios(true);
    let novc = scenarios
        .iter()
        .find(|s| s.name == "topo_dragonfly_novc")
        .expect("novc scenario present");

    let opts = ClassifyOptions {
        max_cycles: MAX_CYCLES,
        max_candidates: MAX_CANDIDATES,
        use_search: false,
        ..ClassifyOptions::default()
    };
    let verdict = classify_algorithm(&novc.net, &novc.table, &opts);
    let AlgorithmVerdict::Deadlockable { cycles } = &verdict else {
        panic!("novc must be refuted, got {verdict:?}");
    };
    let ctx = LintContext::build(
        &novc.net,
        &novc.table,
        MAX_CYCLES,
        MAX_CANDIDATES,
        &ExistOptions::default(),
    );
    let classified: Vec<_> = cycles.iter().map(|cy| &cy.cycle).collect();
    let linted: Vec<_> = ctx.cycles.iter().map(|cy| &cy.cycle).collect();
    assert_eq!(
        classified, linted,
        "classifier and lint refute from different cycles"
    );
}

/// Bounded exhaustive search confirms both sides of the static story
/// on the downscaled instances: a reachable-deadlock certificate of
/// the no-VC dragonfly deadlocks for real, and an adversarial message
/// set on the certified-free dragonfly cannot be deadlocked.
#[test]
fn downscaled_search_agrees_with_static_verdicts() {
    let scenarios = large_topology_scenarios(true);

    let novc = scenarios
        .iter()
        .find(|s| s.name == "topo_dragonfly_novc")
        .expect("novc scenario present");
    // The static certificate must be search-confirmed: the candidates
    // the lint context surfaces must deadlock for real.
    let ctx = LintContext::build(
        &novc.net,
        &novc.table,
        MAX_CYCLES,
        MAX_CANDIDATES,
        &ExistOptions::default(),
    );
    assert!(!ctx.is_acyclic(), "novc CDG is cyclic");
    let mut confirmed = 0;
    for (_, ca) in ctx.candidates() {
        if ca.class.reachable() != Some(true) || confirmed > 0 {
            continue;
        }
        let specs: Vec<MessageSpec> = ca
            .candidate
            .segments
            .iter()
            .map(|seg| MessageSpec::new(seg.msg.0, seg.msg.1, seg.channels.len()))
            .collect();
        let sim = Sim::new(&novc.net, &novc.table, specs, Some(1)).expect("certificate routes");
        let result = explore(&sim, &SearchConfig::default());
        assert!(
            result.verdict.is_deadlock(),
            "novc certificate not search-confirmed"
        );
        confirmed += 1;
    }
    assert_eq!(confirmed, 1, "no reachable-deadlock certificate found");

    // The certified-free dragonfly under the same adversarial shape:
    // four minimal-length messages chasing each other through distinct
    // groups, the pattern that deadlocks the no-VC variant.
    let df = Dragonfly::new(5, 4);
    let table = dragonfly_minimal(&df).expect("routes");
    let specs: Vec<MessageSpec> = (0..4)
        .map(|g| {
            let src = df.node(g, 1);
            let dst = df.node((g + 1) % 4, 2);
            let len = table.path(src, dst).expect("routed").channels().len();
            MessageSpec::new(src, dst, len)
        })
        .collect();
    let sim = Sim::new(df.network(), &table, specs, Some(1)).expect("routes");
    let result = explore(&sim, &SearchConfig::default());
    assert!(
        result.verdict.is_free(),
        "search deadlocked the certified-free dragonfly"
    );
}

/// The full-scale mesh stays certified above the 10^5-channel bar even
/// in a debug build: 330 nodes, 108,570 channels, verdict
/// `free-acyclic` with the W209 down/up certificate.
#[test]
fn full_scale_mesh_certifies_in_debug() {
    let (net, nodes) = complete(330);
    assert!(net.channel_count() >= 100_000);
    let table = fullmesh_vcfree(&net, &nodes).expect("routes");
    let report = Registry::with_default_lints().run(&net, &table, &LintConfig::default());
    assert_eq!(report.verdict, StaticVerdict::FreeAcyclic);
    assert!(report.diagnostics.iter().any(|d| d.code == "W209"));
}

/// `fattree_updown` routes between every pair of edge switches and
/// uses every physical link in the fabric (the W004 dead-channel lint
/// stays quiet on the smoke instance for the edge-to-edge table).
#[test]
fn fattree_updown_covers_every_link() {
    let ft = FatTree::new(4);
    let table = fattree_updown(&ft).expect("routes");
    let mut used = vec![false; ft.network().channel_count()];
    for (_, path) in table.iter() {
        for &c in path.channels() {
            used[c.index()] = true;
        }
    }
    assert!(
        used.iter().all(|&u| u),
        "up*/down* must exercise every channel"
    );
}
