//! Named benchmark scenarios behind the `bench_report` harness and its
//! committed baselines (`BENCH_search.json`, `BENCH_sim.json`).
//!
//! A [`SearchScenario`] bundles a simulation with its search
//! parameters and (when the instance has one) the rotation-symmetry
//! canonicalizer derived by
//! [`worm_core::symmetry::family_canonicalizer`]; a [`SimScenario`]
//! bundles a simulation with the runner policy, cycle budget and
//! (optionally) fault plan to drive it with, and runs it
//! ([`SimScenario::run`]) the one way the harness times it.

use std::sync::Arc;

use rand::SeedableRng;
use worm_core::paper::{fig1, fig2, fig3, generalized};
use worm_core::symmetry::family_canonicalizer;
use worm_core::CycleConstruction;
use wormfault::{FaultOutcome, FaultPlan, FaultRunner, RetryPolicy};
use wormnet::topology::{complete, Dragonfly, FatTree, Mesh};
use wormnet::Network;
use wormroute::algorithms::{dimension_order, dragonfly_minimal, fattree_updown, fullmesh_vcfree};
use wormroute::TableRouting;
use wormsearch::{SearchConfig, SymmetryCanonicalizer};
use wormsim::runner::{ArbitrationPolicy, Outcome, Runner};
use wormsim::stats::Stats;
use wormsim::{traffic, MessageSpec, Sim};

/// One named exhaustive-search workload.
#[derive(Clone, Debug)]
pub struct SearchScenario {
    /// Stable scenario name (used as the JSON baseline key).
    pub name: String,
    /// The simulation to search.
    pub sim: Sim,
    /// Adversarial stall budget for the search.
    pub stall_budget: u32,
    /// State cap for the search.
    pub max_states: usize,
    /// The instance's rotation-symmetry canonicalizer, when the
    /// derived group is non-trivial.
    pub canon: Option<Arc<SymmetryCanonicalizer>>,
}

impl SearchScenario {
    fn from_construction(
        name: impl Into<String>,
        c: &CycleConstruction,
        specs: Vec<MessageSpec>,
        stall_budget: u32,
    ) -> Self {
        let sim = Sim::new(&c.net, &c.table, specs, Some(1)).expect("family instances route");
        let canon = family_canonicalizer(c, &sim);
        SearchScenario {
            name: name.into(),
            sim,
            stall_budget,
            max_states: 20_000_000,
            canon,
        }
    }

    /// The plain (uncanonicalized) search configuration.
    pub fn plain_config(&self) -> SearchConfig {
        SearchConfig {
            stall_budget: self.stall_budget,
            max_states: self.max_states,
            ..SearchConfig::default()
        }
    }

    /// The canonicalized configuration, when the instance has a
    /// non-trivial symmetry group.
    pub fn canon_config(&self) -> Option<SearchConfig> {
        let canon = self.canon.clone()?;
        Some(self.plain_config().canonicalized(canon))
    }
}

/// The standard search workloads: Figure 1, Figure 2, the six
/// Figure 3 scenarios, and `G(1..=5)` — every instance the paper's
/// reachability arguments cover, each searched at stall budget 0 (the
/// base router model).
pub fn search_scenarios() -> Vec<SearchScenario> {
    let mut out = Vec::new();
    let c = fig1::cyclic_dependency();
    out.push(SearchScenario::from_construction(
        "fig1",
        &c,
        c.message_specs(),
        0,
    ));
    let c = fig2::two_message_deadlock();
    out.push(SearchScenario::from_construction(
        "fig2",
        &c,
        c.message_specs(),
        0,
    ));
    for s in fig3::all_scenarios() {
        let c = s.spec.build();
        out.push(SearchScenario::from_construction(
            format!("fig3_{}", s.name),
            &c,
            s.message_specs(&c),
            0,
        ));
    }
    for k in 1..=5 {
        let c = generalized::generalized(k);
        out.push(SearchScenario::from_construction(
            format!("g{k}"),
            &c,
            generalized::minimum_length_specs(&c),
            0,
        ));
    }
    out
}

/// Section 6's adversarial searches: `G(k)` at stall budgets `k`
/// (`g{k}_stall{k}`, which must stay deadlock-free) and `k + 1`
/// (`g{k}_stall{k+1}`, which must deadlock), for `k = 1..=5` — the
/// searches the service's `paper_full` jobs spend most of their time
/// in. Kept apart from [`search_scenarios`] so the lint cross-checks,
/// which iterate that list, keep their cost.
pub fn stall_search_scenarios() -> Vec<SearchScenario> {
    let mut out = Vec::new();
    for k in 1..=5u32 {
        let c = generalized::generalized(k as usize);
        for budget in [k, k + 1] {
            out.push(SearchScenario::from_construction(
                format!("g{k}_stall{budget}"),
                &c,
                generalized::minimum_length_specs(&c),
                budget,
            ));
        }
    }
    out
}

/// One named cluster-scale static-verification workload: a topology
/// with its production routing engine, measured end to end (CDG
/// build, the batch acyclicity decision, bounded cycle streaming,
/// classification, and the wormlint verdict).
#[derive(Clone, Debug)]
pub struct TopologyScenario {
    /// Stable scenario name (used as the JSON baseline key).
    pub name: String,
    /// The fabric.
    pub net: Network,
    /// Its routing table.
    pub table: TableRouting,
    /// Wall-clock milliseconds the routing engine took to build
    /// `table`.
    pub table_build_ms: f64,
    /// The verdict the static pipeline must reach on this instance
    /// (`"free-acyclic"` for the production engines, `"deadlockable"`
    /// for the no-VC misconfiguration).
    pub expected_verdict: &'static str,
}

/// Run `build` and return its value with the wall-clock milliseconds
/// it took.
fn timed<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let value = build();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// The cluster-scale workloads: dragonfly minimal routing, k-ary
/// fat-tree up*/down*, the VC-free full mesh — each certified
/// deadlock-free — plus a single-lane dragonfly misconfiguration that
/// must be *refuted*. `smoke` swaps in downscaled instances so debug
/// builds and CI validate the same pipeline in milliseconds; the full
/// instances put each free family above 10^5 channels.
pub fn large_topology_scenarios(smoke: bool) -> Vec<TopologyScenario> {
    let (groups, routers, k, n) = if smoke {
        (5, 4, 4, 12)
    } else {
        (41, 40, 48, 330)
    };
    let mut out = Vec::new();

    let df = Dragonfly::new(groups, routers);
    let (table, table_build_ms) = timed(|| dragonfly_minimal(&df).expect("dragonfly routes"));
    out.push(TopologyScenario {
        name: "topo_dragonfly_min".into(),
        net: df.into_network(),
        table,
        table_build_ms,
        expected_verdict: "free-acyclic",
    });

    let ft = FatTree::new(k);
    let (table, table_build_ms) = timed(|| fattree_updown(&ft).expect("fat-tree routes"));
    out.push(TopologyScenario {
        name: "topo_fattree_updown".into(),
        net: ft.into_network(),
        table,
        table_build_ms,
        expected_verdict: "free-acyclic",
    });

    let (net, nodes) = complete(n);
    let (table, table_build_ms) =
        timed(|| fullmesh_vcfree(&net, &nodes).expect("full mesh routes"));
    out.push(TopologyScenario {
        name: "topo_fullmesh_vcfree".into(),
        net,
        table,
        table_build_ms,
        expected_verdict: "free-acyclic",
    });

    // The cautionary tale: a dragonfly with every lane collapsed to 0.
    // The engine is still a node function, so by Corollary 1 its cyclic
    // CDG is a *real* deadlock, and the pipeline must say so. It runs
    // at the same (41, 40) scale as the minimal-routing instance: its
    // 65,600 channels form one strongly connected component, which one
    // batch Kahn pass rejects in linear time.
    let df = Dragonfly::with_lanes(groups, routers, &[0], &[0]);
    let (table, table_build_ms) = timed(|| dragonfly_minimal(&df).expect("dragonfly routes"));
    out.push(TopologyScenario {
        name: "topo_dragonfly_novc".into(),
        net: df.into_network(),
        table,
        table_build_ms,
        expected_verdict: "deadlockable",
    });

    out
}

/// One named existence workload: a fabric whose two-sided
/// routability verdict `wormexist` must reach (and certify).
#[derive(Clone, Debug)]
pub struct ExistScenario {
    /// Stable scenario name (used as the JSON baseline key).
    pub name: String,
    /// The fabric under the existence question.
    pub net: Network,
    /// The verdict the engine must reach (`"exists"` on every fabric
    /// here — the interesting measurement is which certificate wins
    /// and how fast, not the answer).
    pub expected_verdict: &'static str,
}

/// The existence workloads of the search suite: the Figure 1 fabric,
/// the largest generalized-family instance `G(5)`, and the no-VC
/// dragonfly *fabric* (whose production minimal routing deadlocks —
/// the engine must still certify that a deadlock-free routing exists,
/// pinning the blame on the table). `smoke` downscales the dragonfly
/// alongside [`large_topology_scenarios`].
pub fn exist_scenarios(smoke: bool) -> Vec<ExistScenario> {
    let (groups, routers) = if smoke { (5, 4) } else { (41, 40) };
    vec![
        ExistScenario {
            name: "exist_fig1".into(),
            net: fig1::cyclic_dependency().net,
            expected_verdict: "exists",
        },
        ExistScenario {
            name: "exist_g5".into(),
            net: generalized::generalized(5).net,
            expected_verdict: "exists",
        },
        ExistScenario {
            name: "exist_topo_dragonfly_novc".into(),
            net: Dragonfly::with_lanes(groups, routers, &[0], &[0]).into_network(),
            expected_verdict: "exists",
        },
    ]
}

/// One named flit-level simulator workload.
#[derive(Clone, Debug)]
pub struct SimScenario {
    /// Stable scenario name (used as the JSON baseline key).
    pub name: String,
    /// The simulation to run.
    pub sim: Sim,
    /// Arbitration policy for the runner.
    pub policy: ArbitrationPolicy,
    /// Cycle budget for one run.
    pub max_cycles: u64,
    /// A fault plan to run under, with the network its injector
    /// resolves channels against: the run goes through
    /// [`FaultRunner`] with passive retries. `None` runs the plain
    /// [`Runner`].
    pub faults: Option<(Network, FaultPlan)>,
}

impl SimScenario {
    /// A scenario run by the plain [`Runner`], with no fault plan.
    fn plain(
        name: impl Into<String>,
        sim: Sim,
        policy: ArbitrationPolicy,
        max_cycles: u64,
    ) -> Self {
        SimScenario {
            name: name.into(),
            sim,
            policy,
            max_cycles,
            faults: None,
        }
    }

    /// Run the scenario once for at most `max_cycles` cycles and hand the outcome's name (`delivered`, `deadlock`,
    /// `timeout`) and the run's statistics to `read`, returning what it
    /// returns. A timer started before the call stops first thing in
    /// `read`, so reading the statistics is not timed.
    pub fn run<R>(&self, max_cycles: u64, read: impl FnOnce(&'static str, &Stats) -> R) -> R {
        match &self.faults {
            None => {
                let mut runner = Runner::new(&self.sim, self.policy.clone());
                let outcome = match runner.run(max_cycles) {
                    Outcome::Delivered { .. } => "delivered",
                    Outcome::Deadlock { .. } => "deadlock",
                    Outcome::Timeout { .. } => "timeout",
                };
                read(outcome, runner.stats())
            }
            Some((net, plan)) => {
                let mut runner = FaultRunner::new(
                    net,
                    &self.sim,
                    self.policy.clone(),
                    plan.clone(),
                    RetryPolicy::Passive,
                );
                let outcome = match runner.run(max_cycles) {
                    FaultOutcome::Delivered { .. } => "delivered",
                    FaultOutcome::DeliveredPartial { .. } => "delivered-partial",
                    FaultOutcome::Deadlock { .. } => "deadlock",
                    FaultOutcome::Timeout { .. } => "timeout",
                };
                read(outcome, runner.stats())
            }
        }
    }
}

/// The standard simulator workloads: uniform random traffic on meshes
/// (the throughput case), the Figure 1 construction under the
/// adversarial arbiter (the contention case), Figure 1 with its
/// shared channel `c_s` down from cycle 0 (the starved case: no flit
/// ever moves, and the run times out at its horizon), and the three
/// ablations of DESIGN.md's choices:
///
/// * `ablate_arb_<policy>` — one contended workload (the 5×5
///   dimension-order mesh, seed 3, rate 0.15 over 60 injection cycles,
///   lengths 4–8) under each arbitration policy;
/// * `fig1_depth<d>` — Figure 1 under the adversary at buffer depths
///   1, 2, 4 and 8 (wormhole through buffered wormhole towards virtual
///   cut-through);
/// * `pipeline_len<n>` — one worm of 2, 8, 32 or 128 flits down the
///   8×1 line.
pub fn sim_scenarios() -> Vec<SimScenario> {
    let mut out = Vec::new();
    // Injection rates taper with mesh size so each workload delivers
    // in a few hundred cycles: at 0.05 a 32x32 mesh would saturate
    // (thousands of in-flight worms on one-flit queues).
    for (side, rate) in [(4usize, 0.05), (6, 0.05), (8, 0.05), (16, 0.02), (32, 0.01)] {
        let mesh = Mesh::new(&[side, side]);
        let table = dimension_order(&mesh).expect("routes");
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let specs = traffic::uniform_random(mesh.network(), &table, &mut rng, rate, 100, (4, 8));
        let sim = Sim::new(mesh.network(), &table, specs, None).expect("routed");
        out.push(SimScenario::plain(
            format!("mesh_uniform_{side}x{side}"),
            sim,
            ArbitrationPolicy::OldestFirst,
            1_000_000,
        ));
    }
    let con = fig1::cyclic_dependency();
    let sim = Sim::new(&con.net, &con.table, con.message_specs(), Some(1)).expect("routed");
    out.push(SimScenario::plain(
        "fig1_adversarial",
        sim.clone(),
        ArbitrationPolicy::Adversarial { favored: vec![] },
        10_000,
    ));
    out.push(SimScenario {
        name: "fig1_cs_down".into(),
        sim,
        policy: ArbitrationPolicy::LowestId,
        max_cycles: 10_000,
        faults: Some((con.net.clone(), FaultPlan::new().channel_down(con.cs, 0))),
    });

    let mesh = Mesh::new(&[5, 5]);
    let table = dimension_order(&mesh).expect("routes");
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let specs = traffic::uniform_random(mesh.network(), &table, &mut rng, 0.15, 60, (4, 8));
    let sim = Sim::new(mesh.network(), &table, specs, None).expect("routed");
    for (name, policy) in [
        ("lowest_id", ArbitrationPolicy::LowestId),
        ("round_robin", ArbitrationPolicy::RoundRobin),
        ("oldest_first", ArbitrationPolicy::OldestFirst),
        (
            "adversarial",
            ArbitrationPolicy::Adversarial { favored: vec![] },
        ),
    ] {
        out.push(SimScenario::plain(
            format!("ablate_arb_{name}"),
            sim.clone(),
            policy,
            1_000_000,
        ));
    }
    for depth in [1usize, 2, 4, 8] {
        let sim = Sim::new(&con.net, &con.table, con.message_specs(), Some(depth)).expect("routed");
        out.push(SimScenario::plain(
            format!("fig1_depth{depth}"),
            sim,
            ArbitrationPolicy::Adversarial { favored: vec![] },
            10_000,
        ));
    }
    let line = Mesh::new(&[8, 1]);
    let table = dimension_order(&line).expect("routes");
    for len in [2usize, 8, 32, 128] {
        let specs = vec![MessageSpec::new(
            line.node(&[0, 0]),
            line.node(&[7, 0]),
            len,
        )];
        let sim = Sim::new(line.network(), &table, specs, None).expect("routed");
        out.push(SimScenario::plain(
            format!("pipeline_len{len}"),
            sim,
            ArbitrationPolicy::LowestId,
            100_000,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_scenarios_are_named_and_unique() {
        let scenarios = search_scenarios();
        assert_eq!(scenarios.len(), 2 + 6 + 5);
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len(), "duplicate scenario name");
    }

    #[test]
    fn stall_scenarios_pair_each_family_instance_with_k_and_k_plus_one() {
        let names: Vec<(String, u32)> = stall_search_scenarios()
            .into_iter()
            .map(|s| (s.name, s.stall_budget))
            .collect();
        assert_eq!(names.len(), 10);
        for k in 1..=5u32 {
            assert!(names.contains(&(format!("g{k}_stall{k}"), k)));
            assert!(names.contains(&(format!("g{k}_stall{}", k + 1), k + 1)));
        }
    }

    #[test]
    fn family_instances_carry_half_turn_canonicalizers() {
        // Figure 1 and every G(k) have the [A, B, A, B] spec shape, so
        // each must carry an order-1 (half-turn) canonicalizer.
        for s in search_scenarios() {
            if s.name == "fig1" || s.name.starts_with('g') {
                let canon = s
                    .canon
                    .as_ref()
                    .unwrap_or_else(|| panic!("{} should have a rotation symmetry", s.name));
                assert_eq!(canon.order(), 1, "{}", s.name);
                assert!(s.canon_config().is_some());
            }
        }
    }

    #[test]
    fn topology_scenarios_are_named_and_routed() {
        let scenarios = large_topology_scenarios(true);
        assert_eq!(scenarios.len(), 4);
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        assert!(names.iter().all(|n| n.starts_with("topo_")));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len(), "duplicate scenario name");
        for s in &scenarios {
            assert!(!s.table.is_empty(), "{}", s.name);
        }
    }

    #[test]
    fn sim_scenarios_run() {
        let scenarios = sim_scenarios();
        for s in &scenarios {
            assert!(!s.name.is_empty());
            assert!(s.max_cycles > 0);
        }
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len(), "duplicate scenario name");
        for name in [
            "mesh_uniform_16x16",
            "mesh_uniform_32x32",
            "fig1_cs_down",
            "ablate_arb_adversarial",
            "fig1_depth8",
            "pipeline_len128",
        ] {
            assert!(
                scenarios.iter().any(|s| s.name == name),
                "{name} missing from the sim suite"
            );
        }
    }
}
