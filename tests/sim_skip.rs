//! The run loop's fixed-point skip, held to a per-cycle oracle.
//!
//! `Runner::run`, `Runner::run_hooked` and `FaultRunner::run` jump over
//! quiet cycles (no flit moved, no header request, no stalled message)
//! to the next cycle at which an input can differ; `Runner::step` and
//! `Runner::step_hooked` never skip. Every test here drives the same
//! inputs both ways, on both engines, and requires the same outcome,
//! final state, `Stats`, `FaultReport` and `sim.*`/`fault.*` trace
//! counters. The inputs: the 13 paper constructions with `c_s` down,
//! seeded random fault plans (recovering outages, router stalls, flit
//! drops, corruption and injection jitter) under both retry policies,
//! far-future `inject_at` times, stall plans, a pausing skew model and
//! a hook that keeps the default `quiet_until`.
//!
//! The trace recorder is process-global, so this file is its own test
//! binary and every test holds `trace_lock` while it records.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use cyclic_wormhole::core::family::CycleConstruction;
use cyclic_wormhole::core::paper::{fig1, fig2, fig3, generalized};
use cyclic_wormhole::fault::{FaultInjector, FaultOutcome, FaultPlan, FaultRunner, RetryPolicy};
use cyclic_wormhole::net::topology::{line, Mesh};
use cyclic_wormhole::net::{ChannelId, Network, NodeId};
use cyclic_wormhole::route::algorithms::{shortest_path_table, xy_mesh};
use cyclic_wormhole::route::TableRouting;
use cyclic_wormhole::sim::hooks::DecisionHook;
use cyclic_wormhole::sim::runner::{ArbitrationPolicy, EngineKind, Outcome, Runner, StallPlan};
use cyclic_wormhole::sim::skew::SkewModel;
use cyclic_wormhole::sim::stats::Stats;
use cyclic_wormhole::sim::{traffic, Decisions, MessageId, MessageSpec, Sim, SimState, StepReport};
use cyclic_wormhole::trace::MemoryRecorder;
use rand::{RngExt, SeedableRng};

const ENGINES: [EngineKind; 2] = [EngineKind::Stepping, EngineKind::Event];

fn trace_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

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

/// One plain run's inputs.
struct Plain<'a> {
    sim: &'a Sim,
    policy: ArbitrationPolicy,
    engine: EngineKind,
    stalls: StallPlan,
    skew: Option<SkewModel>,
}

impl<'a> Plain<'a> {
    fn new(sim: &'a Sim, policy: ArbitrationPolicy, engine: EngineKind) -> Self {
        Plain {
            sim,
            policy,
            engine,
            stalls: StallPlan::new(),
            skew: None,
        }
    }

    fn runner(&self) -> Runner<'a> {
        let mut r = Runner::new(self.sim, self.policy.clone())
            .with_engine(self.engine)
            .with_stalls(self.stalls.clone());
        if let Some(skew) = &self.skew {
            r = r.with_skew(skew.clone());
        }
        r
    }

    /// `Runner::run` / `run_hooked`.
    fn skipping(&self, max: u64, hook: Option<&mut dyn DecisionHook>) -> Run<Outcome> {
        let mut r = self.runner();
        let (outcome, counters) = recorded(|| match hook {
            Some(h) => r.run_hooked(max, h),
            None => r.run(max),
        });
        finish(outcome, &r, counters)
    }

    /// One `step` / `step_hooked` per cycle, with the full deadlock
    /// walk after each.
    fn stepped(&self, max: u64, mut hook: Option<&mut dyn DecisionHook>) -> Run<Outcome> {
        let sim = self.sim;
        let mut r = self.runner();
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
            "{label}/{:?}/{:?}: the skipping run diverged from the stepped one",
            self.engine,
            self.policy
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
    for engine in ENGINES {
        let mut fr = FaultRunner::new(net, sim, policy.clone(), plan.clone(), retry.clone())
            .with_engine(engine);
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

        let mut injector =
            FaultInjector::new(net, plan.clone(), retry.clone(), sim.message_count());
        let mut r = Runner::new(sim, policy.clone()).with_engine(engine);
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
            "{label}/{engine:?}/{retry:?}: the fault runner diverged from the stepped loop"
        );
    }
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

#[test]
fn paper_constructions_with_cs_down_match_the_stepped_loop() {
    let _guard = trace_lock();
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
    let _guard = trace_lock();
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

/// Workloads for the random plans: Figures 1–3 and seeded mesh traffic
/// whose messages start as late as cycle 60.
fn fault_workloads() -> Vec<(String, Network, TableRouting, Vec<MessageSpec>)> {
    let mut out = Vec::new();
    for (name, c, messages) in constructions().into_iter().take(8) {
        out.push((name, c.net, c.table, messages));
    }
    for seed in [1u64, 7] {
        let mesh = Mesh::new(&[3, 3]);
        let table = xy_mesh(&mesh).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let specs = traffic::uniform_random(mesh.network(), &table, &mut rng, 0.2, 60, (2, 6));
        out.push((
            format!("mesh seed {seed}"),
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
    let _guard = trace_lock();
    for (name, net, table, specs) in fault_workloads() {
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
        ArbitrationPolicy::Adversarial { favored: vec![] },
    ]
}

#[test]
fn far_future_injections_match_the_stepped_loop() {
    let _guard = trace_lock();
    let (_, sim) = line_sim(
        4,
        &[
            (0, 3, 3, 0),
            (1, 3, 2, 900),
            (0, 2, 4, 900),
            (3, 0, 2, 4_321),
        ],
    );
    for engine in ENGINES {
        for policy in policies() {
            Plain::new(&sim, policy, engine).assert_skip_matches("far-future inject_at", 10_000);
        }
        // A horizon that falls inside an idle stretch.
        Plain::new(&sim, ArbitrationPolicy::LowestId, engine)
            .assert_skip_matches("horizon mid-gap", 2_500);
    }
}

#[test]
fn stall_plans_match_the_stepped_loop() {
    let _guard = trace_lock();
    let (_, sim) = line_sim(4, &[(0, 3, 3, 0), (1, 3, 2, 200), (0, 2, 2, 205)]);
    let mut stalls = StallPlan::new();
    stalls.insert(MessageId::from_index(0), vec![1, 2, 50, 2]);
    stalls.insert(MessageId::from_index(1), vec![150, 201, 203, 700]);
    // A stall on a message that does not exist is counted, as the
    // engines tolerate it.
    stalls.insert(MessageId::from_index(7), vec![400]);
    for engine in ENGINES {
        for policy in policies() {
            let mut run = Plain::new(&sim, policy, engine);
            run.stalls = stalls.clone();
            run.assert_skip_matches("stall plan", 1_000);
        }
    }
}

#[test]
fn pausing_skew_matches_the_stepped_loop() {
    let _guard = trace_lock();
    let (net, sim) = line_sim(4, &[(0, 3, 3, 0), (1, 3, 2, 300), (3, 0, 2, 40)]);
    let skew = SkewModel::none(&net)
        .with_pause(NodeId::from_index(2), 7, 3)
        .with_pause(NodeId::from_index(1), 5, 0);
    for engine in ENGINES {
        for policy in policies() {
            let mut run = Plain::new(&sim, policy, engine);
            run.skew = Some(skew.clone());
            run.assert_skip_matches("pausing skew", 1_000);
        }
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
    let _guard = trace_lock();
    let (_, sim) = line_sim(4, &[(0, 3, 3, 0), (1, 3, 2, 600)]);
    let chan = sim.path(MessageId::from_index(0))[1];
    for engine in ENGINES {
        let plain = Plain::new(&sim, ArbitrationPolicy::OldestFirst, engine);
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
        assert_eq!(stepped, skipping, "{engine:?}: hooked run diverged");
        assert!(
            matches!(skipping.outcome, Outcome::Delivered { cycles } if cycles > 600),
            "{engine:?}: {:?}",
            skipping.outcome
        );
        assert_eq!(
            hook.observed, skipping.stats.cycles,
            "{engine:?}: a hook without quiet_until must observe every cycle"
        );
    }
}

/// The stepped loops above would not notice a skip that never fires;
/// this one must: the starved Figure 1 run sits idle for almost all of
/// its horizon, and the skipping run steps only until it stops
/// changing.
#[test]
fn a_starved_run_skips_to_the_horizon() {
    let _guard = trace_lock();
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
    for engine in ENGINES {
        let mut hook = Steps {
            inner: FaultInjector::new(
                &c.net,
                FaultPlan::new().channel_down(c.cs, 0),
                RetryPolicy::Passive,
                sim.message_count(),
            ),
            adjusted: 0,
        };
        let mut r = Runner::new(&sim, ArbitrationPolicy::LowestId).with_engine(engine);
        assert_eq!(
            r.run_hooked(10_000, &mut hook),
            Outcome::Timeout { cycles: 10_000 }
        );
        assert_eq!(r.stats().cycles, 10_000);
        assert!(
            hook.adjusted < 100,
            "{engine:?}: stepped {} of 10,000 starved cycles",
            hook.adjusted
        );
    }
}
