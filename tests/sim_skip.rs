//! The run loop's fixed-point skip, held to a per-cycle oracle.
//!
//! `Runner::run`, `Runner::run_hooked` and `FaultRunner::run` jump over
//! quiet cycles (no flit moved, no header request, no stalled message)
//! to the next cycle at which an input can differ; `Runner::step` and
//! `Runner::step_hooked` never skip. Every test here drives the same
//! inputs both ways and requires the same outcome, final state,
//! `Stats`, `FaultReport` and `sim.*`/`fault.*` trace counters. The
//! inputs: the healthy Figures 1–3 and seeded 4×4 mesh traffic under
//! every arbitration policy, as given and released one message at a
//! time (runs that must skip), with deeper queues, stall combs, a
//! pausing skew model and a hook that prunes injections, stalls worms
//! and freezes a channel; clockwise and dateline rings; runs stopped
//! and resumed at many horizons; the 13 paper constructions with `c_s`
//! down; seeded random and hand-crafted fault plans (recovering
//! outages, router stalls, flit drops, corruption and injection
//! jitter) under both retry policies; far-future `inject_at` times;
//! and proptest-generated topologies, traffic, stall combs, skew and
//! hook decisions. Stall combs reach the runner as the fault layer's
//! flit drops do, through a hook ([`Combs`]) that names its next stall
//! cycle, so the skipping loop jumps from stall to stall.
//!
//! Each test records into a recorder installed on its own thread, so
//! the tests run side by side without mixing counters;
//! `concurrent_runs_keep_their_own_counters` holds that scope itself.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

use cyclic_wormhole::core::family::CycleConstruction;
use cyclic_wormhole::core::paper::{fig1, fig2, fig3, generalized};
use cyclic_wormhole::fault::{FaultInjector, FaultOutcome, FaultPlan, FaultRunner, RetryPolicy};
use cyclic_wormhole::net::topology::{line, ring_unidirectional, ring_with_vcs, Mesh};
use cyclic_wormhole::net::{ChannelId, Network, NodeId};
use cyclic_wormhole::route::algorithms::{
    clockwise_ring, dateline_ring, shortest_path_table, xy_mesh,
};
use cyclic_wormhole::route::TableRouting;
use cyclic_wormhole::sim::hooks::DecisionHook;
use cyclic_wormhole::sim::runner::{ArbitrationPolicy, Outcome, Runner};
use cyclic_wormhole::sim::skew::SkewModel;
use cyclic_wormhole::sim::stats::Stats;
use cyclic_wormhole::sim::{traffic, Decisions, MessageId, MessageSpec, Sim, SimState, StepReport};
use cyclic_wormhole::trace::MemoryRecorder;
use proptest::prelude::*;
use rand::{RngExt, SeedableRng};

/// Run `f` under a fresh recorder: its result and the `sim.*` and
/// `fault.*` counters it recorded.
fn recorded<T>(f: impl FnOnce() -> T) -> (T, BTreeMap<String, u64>) {
    let rec = Arc::new(MemoryRecorder::new());
    cyclic_wormhole::trace::install(rec.clone());
    let out = f();
    cyclic_wormhole::trace::uninstall();
    let counters = rec
        .snapshot()
        .counters
        .into_iter()
        .filter(|(k, _)| k.starts_with("sim.") || k.starts_with("fault."))
        .collect();
    (out, counters)
}

/// Everything a run leaves behind that the skip must not change.
#[derive(Debug, PartialEq)]
struct Run<O> {
    outcome: O,
    time: u64,
    state: SimState,
    stats: Stats,
    counters: BTreeMap<String, u64>,
}

/// Stall combs applied through the hook seam: each message is stalled
/// on the cycles listed for it. A message that does not exist may be
/// listed too; the engine counts its stall. The next listed cycle is
/// the hook's `quiet_until`.
#[derive(Clone, Debug, Default)]
struct Combs(BTreeMap<MessageId, Vec<u64>>);

impl DecisionHook for Combs {
    fn adjust(&mut self, _: &Sim, _: &SimState, time: u64, d: &mut Decisions) {
        d.stalls.extend(
            self.0
                .iter()
                .filter(|(_, cycles)| cycles.contains(&time))
                .map(|(&m, _)| m),
        );
    }

    fn quiet_until(&self, time: u64) -> u64 {
        let later = self.0.values().flatten().filter(|&&t| t > time);
        later.copied().min().unwrap_or(u64::MAX)
    }
}

/// Stall combs that also count the cycles a run steps: the runner
/// calls `adjust` once per stepped cycle and never for a skipped one.
/// `quiet_until` is the combs' own, `u64::MAX` when they stall
/// nothing, so counting never blocks the skip.
struct Counted {
    combs: Combs,
    stepped: u64,
}

impl DecisionHook for Counted {
    fn adjust(&mut self, sim: &Sim, state: &SimState, time: u64, d: &mut Decisions) {
        self.stepped += 1;
        self.combs.adjust(sim, state, time, d);
    }

    fn quiet_until(&self, time: u64) -> u64 {
        self.combs.quiet_until(time)
    }
}

/// `hook`, or else `combs` (a copy of the run's stall combs) when
/// they stall anything.
fn hook_or<'h>(
    hook: Option<&'h mut (dyn DecisionHook + '_)>,
    combs: &'h mut Combs,
) -> Option<&'h mut dyn DecisionHook> {
    assert!(
        hook.is_none() || combs.0.is_empty(),
        "a run takes stall combs or a hook, not both"
    );
    match hook {
        Some(h) => Some(h as &mut dyn DecisionHook),
        None if combs.0.is_empty() => None,
        None => Some(combs),
    }
}

/// One plain run's inputs.
struct Plain<'a> {
    sim: &'a Sim,
    policy: ArbitrationPolicy,
    /// Stall combs, applied as the run's hook when it is given none.
    stalls: Combs,
    skew: Option<SkewModel>,
}

impl<'a> Plain<'a> {
    fn new(sim: &'a Sim, policy: ArbitrationPolicy) -> Self {
        Plain {
            sim,
            policy,
            stalls: Combs::default(),
            skew: None,
        }
    }

    fn runner(&self) -> Runner<'a> {
        let mut r = Runner::new(self.sim, self.policy.clone());
        if let Some(skew) = &self.skew {
            r = r.with_skew(skew.clone());
        }
        r
    }

    /// `Runner::run` / `run_hooked`.
    fn skipping(&self, max: u64, hook: Option<&mut dyn DecisionHook>) -> Run<Outcome> {
        let mut r = self.runner();
        let mut combs = self.stalls.clone();
        let hook = hook_or(hook, &mut combs);
        let (outcome, counters) = recorded(|| match hook {
            Some(h) => r.run_hooked(max, h),
            None => r.run(max),
        });
        finish(outcome, &r, counters)
    }

    /// One `step` / `step_hooked` per cycle, with the full deadlock
    /// walk after each.
    fn stepped(&self, max: u64, hook: Option<&mut dyn DecisionHook>) -> Run<Outcome> {
        let sim = self.sim;
        let mut r = self.runner();
        let mut combs = self.stalls.clone();
        let mut hook = hook_or(hook, &mut combs);
        let (outcome, counters) = recorded(|| {
            while r.time() < max {
                if sim.all_delivered(r.state()) {
                    return Outcome::Delivered { cycles: r.time() };
                }
                match hook.as_mut() {
                    Some(h) => r.step_hooked(&mut **h),
                    None => r.step(),
                }
                if let Some(members) = sim.find_deadlock(r.state()) {
                    return Outcome::Deadlock {
                        members,
                        at_cycle: r.time(),
                    };
                }
            }
            if sim.all_delivered(r.state()) {
                Outcome::Delivered { cycles: r.time() }
            } else {
                Outcome::Timeout { cycles: r.time() }
            }
        });
        finish(outcome, &r, counters)
    }

    fn assert_skip_matches(&self, label: &str, max: u64) {
        assert_eq!(
            self.stepped(max, None),
            self.skipping(max, None),
            "{label}/{:?}: the skipping run diverged from the stepped one",
            self.policy
        );
    }

    /// The skipping run (its stall combs counted through [`Counted`])
    /// steps fewer cycles than it simulates.
    fn assert_skips(&self, label: &str, max: u64) {
        let mut counted = Counted {
            combs: self.stalls.clone(),
            stepped: 0,
        };
        let mut r = self.runner();
        r.run_hooked(max, &mut counted);
        assert!(
            counted.stepped < r.time(),
            "{label}/{:?}: stepped all {} cycles, skipped none",
            self.policy,
            r.time()
        );
    }
}

fn finish<O>(outcome: O, r: &Runner<'_>, counters: BTreeMap<String, u64>) -> Run<O> {
    Run {
        outcome,
        time: r.time(),
        state: r.state().clone(),
        stats: r.stats().clone(),
        counters,
    }
}

/// `FaultRunner::run` against a per-cycle loop of `step_hooked` with
/// the same injector: outcome, state, stats, fault report, counters.
fn assert_fault_skip_matches(
    label: &str,
    net: &Network,
    sim: &Sim,
    policy: &ArbitrationPolicy,
    plan: &FaultPlan,
    retry: &RetryPolicy,
    max: u64,
) {
    let mut fr = FaultRunner::new(net, sim, policy.clone(), plan.clone(), retry.clone());
    let (outcome, counters) = recorded(|| fr.run(max));
    let skipping = (
        Run {
            outcome,
            time: fr.time(),
            state: fr.state().clone(),
            stats: fr.stats().clone(),
            counters,
        },
        fr.report(),
    );

    let mut injector = FaultInjector::new(net, plan.clone(), retry.clone(), sim.message_count());
    let mut r = Runner::new(sim, policy.clone());
    let (outcome, counters) = recorded(|| {
        let survivors_delivered = |r: &Runner<'_>, injector: &FaultInjector| {
            sim.messages()
                .all(|m| injector.is_abandoned(m) || r.state().is_delivered(m, sim.length(m)))
        };
        let success = |r: &Runner<'_>, injector: &FaultInjector| {
            let abandoned = injector.report().abandoned;
            if abandoned.is_empty() {
                FaultOutcome::Delivered { cycles: r.time() }
            } else {
                FaultOutcome::DeliveredPartial {
                    cycles: r.time(),
                    abandoned,
                }
            }
        };
        while r.time() < max {
            if survivors_delivered(&r, &injector) {
                return success(&r, &injector);
            }
            r.step_hooked(&mut injector);
            if let Some(members) = sim.find_deadlock(r.state()) {
                return FaultOutcome::Deadlock {
                    members,
                    at_cycle: r.time(),
                };
            }
        }
        if survivors_delivered(&r, &injector) {
            success(&r, &injector)
        } else {
            FaultOutcome::Timeout { cycles: max }
        }
    });
    let stepped = (finish(outcome, &r, counters), injector.report());
    assert_eq!(
        stepped, skipping,
        "{label}/{retry:?}: the fault runner diverged from the stepped loop"
    );
}

/// The 13 paper constructions with the message sets their experiments
/// use.
fn constructions() -> Vec<(String, CycleConstruction, Vec<MessageSpec>)> {
    let c = fig1::cyclic_dependency();
    let m = c.message_specs();
    let mut out = vec![("fig1".to_string(), c, m)];
    let c = fig2::two_message_deadlock();
    let m = c.message_specs();
    out.push(("fig2".to_string(), c, m));
    for s in fig3::all_scenarios() {
        let c = s.spec.build();
        let m = s.message_specs(&c);
        out.push((format!("fig3_{}", s.name), c, m));
    }
    for k in 1..=5 {
        let c = generalized::generalized(k);
        let m = generalized::minimum_length_specs(&c);
        out.push((format!("G({k})"), c, m));
    }
    assert_eq!(out.len(), 13, "paper constructions");
    out
}

fn retry_policies() -> [RetryPolicy; 2] {
    [
        RetryPolicy::Passive,
        RetryPolicy::Active {
            max_attempts: 4,
            backoff: 3,
        },
    ]
}

/// The healthy Figures 1–3 and 4×4 mesh traffic.
fn healthy() -> Vec<(String, Network, TableRouting, Vec<MessageSpec>)> {
    workloads(4, &[3, 11, 42], 0.3, 30)
}

/// [`healthy`] with its messages released one at a time. The release
/// gap outlasts any one message's trip through an empty network by
/// more than the eight stalls a comb deals it, so the network drains
/// between releases and every run has quiet cycles to skip (at queue
/// depth 1 the workloads as given have none).
fn staggered() -> Vec<(String, Network, TableRouting, Vec<MessageSpec>)> {
    healthy()
        .into_iter()
        .map(|(name, net, table, specs)| {
            let trip = specs
                .iter()
                .map(|s| table.path(s.src, s.dst).expect("routed").len() + s.length)
                .max()
                .unwrap_or(0) as u64;
            let gap = trip + 16;
            let specs = specs
                .into_iter()
                .enumerate()
                .map(|(i, s)| s.at(i as u64 * gap))
                .collect();
            (format!("{name} staggered"), net, table, specs)
        })
        .collect()
}

#[test]
fn healthy_workloads_match_the_stepped_loop_under_every_policy() {
    for (name, net, table, specs) in healthy() {
        let sim = Sim::new(&net, &table, specs, Some(1)).expect("routed");
        for policy in policies() {
            Plain::new(&sim, policy).assert_skip_matches(&name, 10_000);
        }
    }
    for (name, net, table, specs) in staggered() {
        let sim = Sim::new(&net, &table, specs, Some(1)).expect("routed");
        for policy in policies() {
            let run = Plain::new(&sim, policy);
            run.assert_skip_matches(&name, 10_000);
            run.assert_skips(&name, 10_000);
        }
    }
}

#[test]
fn deeper_queues_match_the_stepped_loop() {
    for capacity in [2usize, 3] {
        for (name, net, table, specs) in healthy() {
            let sim = Sim::new(&net, &table, specs, Some(capacity)).expect("routed");
            Plain::new(&sim, ArbitrationPolicy::OldestFirst)
                .assert_skip_matches(&format!("{name} capacity {capacity}"), 10_000);
        }
    }
}

/// Each of `n` ring nodes sends a 3-flit message all the way round to
/// its predecessor.
fn all_around(nodes: &[NodeId]) -> Vec<MessageSpec> {
    let n = nodes.len();
    (0..n)
        .map(|i| MessageSpec::new(nodes[i], nodes[(i + n - 1) % n], 3))
        .collect()
}

#[test]
fn clockwise_and_dateline_rings_match_the_stepped_loop() {
    for n in [3usize, 4, 6] {
        let (net, nodes) = ring_unidirectional(n);
        let table = clockwise_ring(&net, &nodes).expect("ring routes");
        let sim = Sim::new(&net, &table, all_around(&nodes), Some(1)).expect("routed");
        for policy in policies() {
            Plain::new(&sim, policy).assert_skip_matches(&format!("clockwise ring {n}"), 10_000);
        }
    }
    // Virtual channels split at a dateline: the same traffic delivers.
    for n in [4usize, 5, 6] {
        let (net, nodes) = ring_with_vcs(n, 2);
        let table = dateline_ring(&net, &nodes).expect("dateline routes");
        let sim = Sim::new(&net, &table, all_around(&nodes), Some(1)).expect("routed");
        for policy in policies() {
            let run = Plain::new(&sim, policy.clone());
            run.assert_skip_matches(&format!("dateline ring {n}"), 10_000);
            let outcome = run.skipping(10_000, None).outcome;
            assert!(
                matches!(outcome, Outcome::Delivered { .. }),
                "dateline ring must deliver (n={n}, {policy:?}): {outcome:?}"
            );
        }
    }
}

/// The staggered workloads' combs stall messages that are still
/// pending while the network is empty: a skip that ignored the combs'
/// `quiet_until` would jump over those stalls.
#[test]
fn stall_combs_match_the_stepped_loop_on_every_healthy_workload() {
    let staggered: Vec<_> = staggered().into_iter().map(|w| (w, true)).collect();
    let workloads = healthy().into_iter().map(|w| (w, false)).chain(staggered);
    for ((name, net, table, specs), skips) in workloads {
        let sim = Sim::new(&net, &table, specs, Some(1)).expect("routed");
        // Stall each message on a deterministic comb of cycles.
        let mut stalls = Combs::default();
        for (i, m) in sim.messages().enumerate() {
            let phase = (i as u64) % 5;
            stalls.0.insert(m, (0..8).map(|k| phase + 3 * k).collect());
        }
        for policy in policies() {
            let mut run = Plain::new(&sim, policy);
            run.stalls = stalls.clone();
            let label = format!("{name} stall comb");
            run.assert_skip_matches(&label, 10_000);
            if skips {
                run.assert_skips(&label, 10_000);
            }
        }
    }
}

#[test]
fn pausing_skew_matches_the_stepped_loop_on_every_healthy_workload() {
    for (name, net, table, specs) in healthy() {
        let sim = Sim::new(&net, &table, specs, Some(1)).expect("routed");
        let mut skew = SkewModel::none(&net);
        for (i, node) in net.nodes().enumerate() {
            if i % 2 == 0 {
                let period = 4 + (i as u64 % 3);
                skew = skew.with_pause(node, period, i as u64 % period);
            }
        }
        for policy in policies() {
            let mut run = Plain::new(&sim, policy);
            run.skew = Some(skew.clone());
            run.assert_skip_matches(&format!("{name} skew"), 10_000);
        }
    }
}

/// A deterministic hook exercising every mutation the seam allows:
/// pruning injections, stalling in-flight worms, and freezing a
/// channel — the operations `wormfault` performs. It keeps the
/// default `quiet_until`.
struct Chaos {
    victim: ChannelId,
}

impl DecisionHook for Chaos {
    fn adjust(&mut self, sim: &Sim, state: &SimState, time: u64, d: &mut Decisions) {
        if time.is_multiple_of(3) && !d.inject.is_empty() {
            let keep = d.inject.len().div_ceil(2);
            d.inject.truncate(keep);
        }
        if time % 5 == 1 {
            if let Some(m) = sim
                .messages()
                .find(|&m| state.is_started(m) && !state.is_delivered(m, sim.length(m)))
            {
                if !d.stalls.contains(&m) {
                    d.stalls.push(m);
                }
            }
        }
        if time % 7 == 2 && !d.frozen.contains(&self.victim) {
            d.frozen.push(self.victim);
        }
    }
}

#[test]
fn chaos_hooks_match_the_stepped_loop() {
    for (name, net, table, specs) in healthy() {
        let sim = Sim::new(&net, &table, specs, Some(1)).expect("routed");
        let victim = ChannelId::from_index(net.channel_count() / 2);
        for policy in policies() {
            let run = Plain::new(&sim, policy.clone());
            let stepped = run.stepped(10_000, Some(&mut Chaos { victim }));
            let skipping = run.skipping(10_000, Some(&mut Chaos { victim }));
            assert_eq!(stepped, skipping, "{name}/{policy:?}: hooked run diverged");
        }
    }
}

/// A run stopped at a horizon and resumed leaves, at every horizon,
/// what the same number of single steps leaves: the skip accounts for
/// the cycles it jumps whenever it stops, not only at a run's end.
/// Horizons grow by 1 to 13 cycles, so many fall inside an idle gap.
#[test]
fn runs_resumed_at_every_horizon_match_the_stepped_loop() {
    let mut sims: Vec<(String, Sim)> = healthy()
        .into_iter()
        .map(|(name, net, table, specs)| {
            let sim = Sim::new(&net, &table, specs, Some(1)).expect("routed");
            (name, sim)
        })
        .collect();
    let (_, far) = line_sim(
        4,
        &[(0, 3, 3, 0), (1, 3, 2, 90), (0, 2, 4, 90), (3, 0, 2, 321)],
    );
    sims.push(("far-future inject_at".to_string(), far));
    for (name, sim) in &sims {
        let mut skipping = Runner::new(sim, ArbitrationPolicy::OldestFirst);
        let mut stepping = Runner::new(sim, ArbitrationPolicy::OldestFirst);
        let mut horizon = 0;
        while horizon < 500 {
            horizon += 1 + horizon % 13;
            let outcome = skipping.run(horizon);
            while stepping.time() < skipping.time() {
                stepping.step();
            }
            assert_eq!(
                (stepping.time(), stepping.state(), stepping.stats()),
                (skipping.time(), skipping.state(), skipping.stats()),
                "{name}: diverged at horizon {horizon}"
            );
            if !matches!(outcome, Outcome::Timeout { .. }) {
                break;
            }
        }
    }
}

/// Every healthy workload runs on its own thread, all released at
/// once, each under its own recorder: each recorder holds exactly the
/// counters its run records alone.
#[test]
fn concurrent_runs_keep_their_own_counters() {
    let sims: Vec<Sim> = healthy()
        .into_iter()
        .map(|(_, net, table, specs)| Sim::new(&net, &table, specs, Some(1)).expect("routed"))
        .collect();
    let run = |sim: &Sim| recorded(|| Runner::new(sim, ArbitrationPolicy::OldestFirst).run(10_000));
    let alone: Vec<_> = sims.iter().map(run).collect();
    let barrier = Barrier::new(sims.len());
    let together: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = sims
            .iter()
            .map(|sim| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    run(sim)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert_eq!(alone, together);
}

#[test]
fn paper_constructions_with_cs_down_match_the_stepped_loop() {
    for (name, c, messages) in constructions() {
        let sim = Sim::new(&c.net, &c.table, messages, Some(1)).expect("routed");
        let plan = FaultPlan::new().channel_down(c.cs, 0);
        for retry in retry_policies() {
            assert_fault_skip_matches(
                &format!("{name} c_s down"),
                &c.net,
                &sim,
                &ArbitrationPolicy::LowestId,
                &plan,
                &retry,
                2_000,
            );
        }
    }
}

/// Figure 1 with `c_s` out for a window: the run resumes on the cycle
/// the channel comes back, not one early or late.
#[test]
fn an_outage_resumes_on_the_cycle_the_channel_returns() {
    let c = fig1::cyclic_dependency();
    let sim = Sim::new(&c.net, &c.table, c.message_specs(), Some(1)).expect("routed");
    let plan = FaultPlan::new().channel_outage(c.cs, 0, 500);
    for retry in retry_policies() {
        assert_fault_skip_matches(
            "fig1 c_s outage",
            &c.net,
            &sim,
            &ArbitrationPolicy::LowestId,
            &plan,
            &retry,
            2_000,
        );
    }
    let mut fr = FaultRunner::new(
        &c.net,
        &sim,
        ArbitrationPolicy::LowestId,
        plan,
        RetryPolicy::Passive,
    );
    match fr.run(2_000) {
        FaultOutcome::Delivered { cycles } => assert!(cycles > 500, "delivered at {cycles}"),
        other => panic!("fig1 with a c_s outage must deliver: {other:?}"),
    }
}

/// Figures 1–3, and uniform random traffic on a `side`×`side` mesh for
/// each seed: messages of 2–6 flits at injection `rate`, starting as
/// late as cycle `horizon`.
fn workloads(
    side: usize,
    seeds: &[u64],
    rate: f64,
    horizon: u64,
) -> Vec<(String, Network, TableRouting, Vec<MessageSpec>)> {
    let mut out = Vec::new();
    for (name, c, messages) in constructions().into_iter().take(8) {
        out.push((name, c.net, c.table, messages));
    }
    for &seed in seeds {
        let mesh = Mesh::new(&[side, side]);
        let table = xy_mesh(&mesh).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let specs =
            traffic::uniform_random(mesh.network(), &table, &mut rng, rate, horizon, (2, 6));
        out.push((
            format!("mesh{side}x{side} seed {seed}"),
            mesh.network().clone(),
            table,
            specs,
        ));
    }
    out
}

/// A seeded plan of recovering outages and router stalls, plus a flit
/// drop, a corruption and an injection delay on seeded messages.
fn random_plan(net: &Network, messages: usize, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::random(net, seed, 2, 2, 300);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5EED);
    for _ in 0..2 {
        let m = MessageId::from_index(rng.random_range(0..messages));
        plan = plan
            .flit_drop(m, rng.random_range(0..200))
            .flit_corrupt(m, rng.random_range(0..200))
            .inject_delay(m, rng.random_range(1..40));
    }
    plan
}

#[test]
fn random_fault_plans_match_the_stepped_loop() {
    for (name, net, table, specs) in workloads(3, &[1, 7], 0.2, 60) {
        let sim = Sim::new(&net, &table, specs, Some(1)).expect("routed");
        for seed in [1u64, 9, 23] {
            let plan = random_plan(&net, sim.message_count(), seed);
            for retry in retry_policies() {
                for policy in [
                    ArbitrationPolicy::OldestFirst,
                    ArbitrationPolicy::RoundRobin,
                ] {
                    assert_fault_skip_matches(
                        &format!("{name} seed {seed}"),
                        &net,
                        &sim,
                        &policy,
                        &plan,
                        &retry,
                        3_000,
                    );
                }
            }
        }
    }
}

/// Seeded outage windows and router stalls up to cycle 400 on each
/// healthy workload's own network.
#[test]
fn seeded_outage_plans_match_the_stepped_loop_on_every_healthy_workload() {
    for (name, net, table, specs) in healthy() {
        let sim = Sim::new(&net, &table, specs, Some(1)).expect("routed");
        for seed in [1u64, 9, 23] {
            let plan = FaultPlan::random(&net, seed, 2, 2, 400);
            for retry in [
                RetryPolicy::Passive,
                RetryPolicy::Active {
                    max_attempts: 3,
                    backoff: 2,
                },
            ] {
                assert_fault_skip_matches(
                    &format!("{name} seed {seed}"),
                    &net,
                    &sim,
                    &ArbitrationPolicy::OldestFirst,
                    &plan,
                    &retry,
                    10_000,
                );
            }
        }
    }
}

/// A hand-crafted plan with an outage window, a router stall, an
/// injection delay and a flit drop, under an aggressive retry budget.
#[test]
fn crafted_plans_with_retry_backoff_match_the_stepped_loop() {
    for (name, net, table, specs) in healthy() {
        let sim = Sim::new(&net, &table, specs, Some(1)).expect("routed");
        let victim = ChannelId::from_index(net.channel_count() / 2);
        let node = net.nodes().next().expect("nonempty network");
        let mut plan = FaultPlan::new()
            .channel_outage(victim, 2, 30)
            .router_stall(node, 5, 8);
        if let Some(m) = sim.messages().next() {
            plan = plan.inject_delay(m, 6).flit_drop(m, 12);
        }
        let retry = RetryPolicy::Active {
            max_attempts: 2,
            backoff: 1,
        };
        assert_fault_skip_matches(
            &format!("{name} crafted plan"),
            &net,
            &sim,
            &ArbitrationPolicy::OldestFirst,
            &plan,
            &retry,
            10_000,
        );
    }
}

fn line_sim(nodes: usize, specs: &[(usize, usize, usize, u64)]) -> (Network, Sim) {
    let (net, _) = line(nodes);
    let table = shortest_path_table(&net).unwrap();
    let specs = specs
        .iter()
        .map(|&(s, d, len, at)| {
            MessageSpec::new(NodeId::from_index(s), NodeId::from_index(d), len).at(at)
        })
        .collect();
    let sim = Sim::new(&net, &table, specs, Some(1)).unwrap();
    (net, sim)
}

fn policies() -> [ArbitrationPolicy; 4] {
    [
        ArbitrationPolicy::LowestId,
        ArbitrationPolicy::RoundRobin,
        ArbitrationPolicy::OldestFirst,
        ArbitrationPolicy::Adversarial,
    ]
}

#[test]
fn far_future_injections_match_the_stepped_loop() {
    let (_, sim) = line_sim(
        4,
        &[
            (0, 3, 3, 0),
            (1, 3, 2, 900),
            (0, 2, 4, 900),
            (3, 0, 2, 4_321),
        ],
    );
    for policy in policies() {
        Plain::new(&sim, policy).assert_skip_matches("far-future inject_at", 10_000);
    }
    // A horizon that falls inside an idle stretch.
    Plain::new(&sim, ArbitrationPolicy::LowestId).assert_skip_matches("horizon mid-gap", 2_500);
}

#[test]
fn stall_plans_match_the_stepped_loop() {
    let (_, sim) = line_sim(4, &[(0, 3, 3, 0), (1, 3, 2, 200), (0, 2, 2, 205)]);
    let stalls = Combs(BTreeMap::from([
        (MessageId::from_index(0), vec![1, 2, 50, 2]),
        (MessageId::from_index(1), vec![150, 201, 203, 700]),
        // A stall on a message that does not exist is counted, as the
        // engines tolerate it.
        (MessageId::from_index(7), vec![400]),
    ]));
    for policy in policies() {
        let mut run = Plain::new(&sim, policy);
        run.stalls = stalls.clone();
        run.assert_skip_matches("stall plan", 1_000);
    }
}

/// A stall comb does not block the skip: the loop jumps from one
/// stall to the next and asks the hook only about the cycles it steps.
#[test]
fn a_stall_comb_skips_between_its_stalls() {
    let (_, sim) = line_sim(4, &[(0, 3, 3, 0), (1, 3, 2, 900)]);
    let combs = Combs(BTreeMap::from([
        (MessageId::from_index(0), vec![1, 2, 300]),
        (MessageId::from_index(7), vec![600]),
    ]));
    let mut run = Plain::new(&sim, ArbitrationPolicy::LowestId);
    run.stalls = combs.clone();
    run.assert_skip_matches("sparse stalls", 2_000);

    /// Counts the cycles the runner actually steps.
    struct Counted {
        inner: Combs,
        adjusted: u64,
    }
    impl DecisionHook for Counted {
        fn adjust(&mut self, sim: &Sim, state: &SimState, time: u64, d: &mut Decisions) {
            self.adjusted += 1;
            self.inner.adjust(sim, state, time, d);
        }
        fn quiet_until(&self, time: u64) -> u64 {
            self.inner.quiet_until(time)
        }
    }
    let mut hook = Counted {
        inner: combs,
        adjusted: 0,
    };
    let mut r = Runner::new(&sim, ArbitrationPolicy::LowestId);
    let outcome = r.run_hooked(2_000, &mut hook);
    assert!(
        matches!(outcome, Outcome::Delivered { cycles } if cycles > 900),
        "{outcome:?}"
    );
    assert!(
        hook.adjusted < 50,
        "stepped {} of {} cycles",
        hook.adjusted,
        r.time()
    );
}

#[test]
fn pausing_skew_matches_the_stepped_loop() {
    let (net, sim) = line_sim(4, &[(0, 3, 3, 0), (1, 3, 2, 300), (3, 0, 2, 40)]);
    let skew = SkewModel::none(&net)
        .with_pause(NodeId::from_index(2), 7, 3)
        .with_pause(NodeId::from_index(1), 5, 0);
    for policy in policies() {
        let mut run = Plain::new(&sim, policy);
        run.skew = Some(skew.clone());
        run.assert_skip_matches("pausing skew", 1_000);
    }
}

/// A hook that keeps the default `quiet_until`: it freezes one channel
/// for a while and counts the cycles it observes.
struct Counting {
    chan: ChannelId,
    until: u64,
    observed: u64,
}

impl DecisionHook for Counting {
    fn adjust(&mut self, _: &Sim, _: &SimState, time: u64, d: &mut Decisions) {
        if time < self.until {
            d.frozen.push(self.chan);
        }
    }

    fn observe(&mut self, _: &Sim, _: &SimState, _: u64, _: &StepReport) {
        self.observed += 1;
    }
}

#[test]
fn a_default_hook_observes_every_cycle() {
    let (_, sim) = line_sim(4, &[(0, 3, 3, 0), (1, 3, 2, 600)]);
    let chan = sim.path(MessageId::from_index(0))[1];
    let plain = Plain::new(&sim, ArbitrationPolicy::OldestFirst);
    let mut stepped_hook = Counting {
        chan,
        until: 40,
        observed: 0,
    };
    let stepped = plain.stepped(2_000, Some(&mut stepped_hook));
    let mut hook = Counting {
        chan,
        until: 40,
        observed: 0,
    };
    let skipping = plain.skipping(2_000, Some(&mut hook));
    assert_eq!(stepped, skipping, "hooked run diverged");
    assert!(
        matches!(skipping.outcome, Outcome::Delivered { cycles } if cycles > 600),
        "{:?}",
        skipping.outcome
    );
    assert_eq!(
        hook.observed, skipping.stats.cycles,
        "a hook without quiet_until must observe every cycle"
    );
}

/// The stepped loops above would not notice a skip that never fires;
/// this one must: the starved Figure 1 run sits idle for almost all of
/// its horizon, and the skipping run steps only until it stops
/// changing.
#[test]
fn a_starved_run_skips_to_the_horizon() {
    let c = fig1::cyclic_dependency();
    let sim = Sim::new(&c.net, &c.table, c.message_specs(), Some(1)).expect("routed");
    /// Counts the cycles the runner actually steps.
    struct Steps {
        inner: FaultInjector,
        adjusted: u64,
    }
    impl DecisionHook for Steps {
        fn adjust(&mut self, sim: &Sim, state: &SimState, time: u64, d: &mut Decisions) {
            self.adjusted += 1;
            self.inner.adjust(sim, state, time, d);
        }
        fn observe(&mut self, sim: &Sim, state: &SimState, time: u64, report: &StepReport) {
            self.inner.observe(sim, state, time, report);
        }
        fn quiet_until(&self, time: u64) -> u64 {
            self.inner.quiet_until(time)
        }
        fn withdrawn(&self) -> usize {
            self.inner.withdrawn()
        }
    }
    let mut hook = Steps {
        inner: FaultInjector::new(
            &c.net,
            FaultPlan::new().channel_down(c.cs, 0),
            RetryPolicy::Passive,
            sim.message_count(),
        ),
        adjusted: 0,
    };
    let mut r = Runner::new(&sim, ArbitrationPolicy::LowestId);
    assert_eq!(
        r.run_hooked(10_000, &mut hook),
        Outcome::Timeout { cycles: 10_000 }
    );
    assert_eq!(r.stats().cycles, 10_000);
    assert!(
        hook.adjusted < 100,
        "stepped {} of 10,000 starved cycles",
        hook.adjusted
    );
}

fn arb_topology() -> impl Strategy<Value = (Network, Vec<NodeId>, TableRouting)> {
    prop_oneof![
        (2usize..6).prop_map(|n| {
            let (net, nodes) = line(n);
            let table = shortest_path_table(&net).expect("line routes");
            (net, nodes, table)
        }),
        (3usize..6).prop_map(|n| {
            let (net, nodes) = ring_unidirectional(n);
            let table = clockwise_ring(&net, &nodes).expect("ring routes");
            (net, nodes, table)
        }),
        (4usize..6).prop_map(|n| {
            let (net, nodes) = ring_with_vcs(n, 2);
            let table = dateline_ring(&net, &nodes).expect("dateline routes");
            (net, nodes, table)
        }),
        ((2usize..4), (2usize..4)).prop_map(|(w, h)| {
            let mesh = Mesh::new(&[w, h]);
            let table = shortest_path_table(mesh.network()).expect("mesh routes");
            let nodes: Vec<NodeId> = mesh.network().nodes().collect();
            (mesh.into_network(), nodes, table)
        }),
    ]
}

fn arb_policy() -> impl Strategy<Value = ArbitrationPolicy> {
    prop_oneof![
        Just(ArbitrationPolicy::LowestId),
        Just(ArbitrationPolicy::RoundRobin),
        Just(ArbitrationPolicy::OldestFirst),
        Just(ArbitrationPolicy::Adversarial),
    ]
}

/// Messages between the `nodes` the raw indices name (a message to
/// its own source goes to the next node), keeping the routed ones.
fn arb_messages(
    nodes: &[NodeId],
    table: &TableRouting,
    raw: &[(usize, usize, usize, u64)],
) -> Vec<MessageSpec> {
    raw.iter()
        .map(|&(s, d, len, at)| {
            let src = nodes[s % nodes.len()];
            let mut dst = nodes[d % nodes.len()];
            if dst == src {
                dst = nodes[(d + 1) % nodes.len()];
            }
            MessageSpec::new(src, dst, len).at(at)
        })
        .filter(|m| table.path(m.src, m.dst).is_some())
        .collect()
}

/// A hook that prunes injections and stalls worms by pseudo-random
/// words, one per cycle.
struct Words {
    words: Vec<u32>,
}

impl DecisionHook for Words {
    fn adjust(&mut self, sim: &Sim, state: &SimState, time: u64, d: &mut Decisions) {
        let w = self.words[time as usize % self.words.len()]
            .wrapping_mul(2654435761)
            .wrapping_add(time as u32);
        d.inject.retain(|m| w & (1 << (m.index() % 16)) != 0);
        for m in sim.messages() {
            if state.is_started(m)
                && !state.is_delivered(m, sim.length(m))
                && w & (1 << (16 + m.index() % 16)) != 0
                && !d.stalls.contains(&m)
            {
                d.stalls.push(m);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary topology, traffic with idle gaps, queue capacity,
    /// policy, stall comb and skew.
    #[test]
    fn random_workloads_match_the_stepped_loop(
        (net, nodes, table) in arb_topology(),
        raw in prop::collection::vec((0usize..36, 0usize..36, 1usize..6, 0u64..400), 1..6),
        policy in arb_policy(),
        capacity in 1usize..4,
        stall_seed in any::<u32>(),
        skew_period in prop_oneof![Just(None), (3u64..8).prop_map(Some)],
    ) {
        let specs = arb_messages(&nodes, &table, &raw);
        prop_assume!(!specs.is_empty());
        let sim = Sim::new(&net, &table, specs, Some(capacity)).expect("routed");
        let mut run = Plain::new(&sim, policy);
        // A deterministic stall comb derived from the seed.
        let mut x = stall_seed;
        for m in sim.messages() {
            x = x.wrapping_mul(2654435761).wrapping_add(12345);
            if x.is_multiple_of(3) {
                let phase = u64::from(x % 7);
                run.stalls.0.insert(m, (0..6).map(|k| phase + 2 * k).collect());
            }
        }
        if let Some(period) = skew_period {
            let mut skew = SkewModel::none(&net);
            for (i, node) in net.nodes().enumerate() {
                if i % 3 == 0 {
                    skew = skew.with_pause(node, period, i as u64 % period);
                }
            }
            run.skew = Some(skew);
        }
        prop_assert_eq!(run.stepped(2_000, None), run.skipping(2_000, None));
    }

    /// The same pseudo-random decisions applied through the hook seam
    /// on both loops.
    #[test]
    fn random_hooks_match_the_stepped_loop(
        (net, nodes, table) in arb_topology(),
        raw in prop::collection::vec((0usize..36, 0usize..36, 1usize..5, 0u64..200), 1..5),
        words in prop::collection::vec(any::<u32>(), 1..32),
    ) {
        let specs = arb_messages(&nodes, &table, &raw);
        prop_assume!(!specs.is_empty());
        let sim = Sim::new(&net, &table, specs, Some(1)).expect("routed");
        let run = Plain::new(&sim, ArbitrationPolicy::OldestFirst);
        let stepped = run.stepped(2_000, Some(&mut Words { words: words.clone() }));
        let skipping = run.skipping(2_000, Some(&mut Words { words }));
        prop_assert_eq!(stepped, skipping);
    }
}
