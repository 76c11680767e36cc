//! The fault injector: a [`DecisionHook`] that applies a
//! [`FaultPlan`] to a running simulation.
//!
//! All fault mechanics reduce to the engine's existing decision
//! vocabulary — no engine changes, no special-cased fault state:
//!
//! * channel outages and router stalls extend
//!   [`wormsim::Decisions::frozen`] (a frozen channel neither
//!   transmits nor accepts flits nor can be acquired — exactly the
//!   semantics a dead link needs);
//! * flit drops extend [`wormsim::Decisions::stalls`] by one cycle
//!   (wormhole flow control is lossless, so a dropped flit costs a
//!   retransmission cycle, not data);
//! * injection jitter and retry backoff prune
//!   [`wormsim::Decisions::inject`].
//!
//! Because the hook runs *before* arbitration, a fault can never
//! strand a stale arbitration winner — the engine re-derives requests
//! from the adjusted sets.
//!
//! `fault.*` trace counters are emitted **only** when a fault
//! actually fires or an active retry policy acts; an injector with an
//! empty plan and the default [`RetryPolicy::Passive`] is
//! observationally silent, keeping the zero-fault run bit-identical
//! to the fault-free engine down to its trace report.
//!
//! The injector answers [`DecisionHook::quiet_until`] from its plan and
//! retry policy, so a run whose messages are stuck behind a dead
//! channel jumps from one fault event to the next (or to the horizon)
//! instead of stepping every idle cycle. Every cycle on which the
//! injector may act is still stepped: a `down`/`up`, drop or corrupt
//! cycle, every cycle of a router-stall window (each is counted), every
//! cycle jitter holds a message back (each is counted), and every cycle
//! of a run under an active retry policy.

use std::collections::BTreeSet;

use wormnet::{ChannelId, ChannelLiveness, Network};
use wormsim::hooks::DecisionHook;
use wormsim::{Decisions, MessageId, Sim, SimState, StepReport};

use crate::plan::{FaultEvent, FaultPlan};

/// How the injection side reacts when a message cannot start (its
/// entry channel is down, frozen, or occupied).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum RetryPolicy {
    /// Retry every cycle, forever, with no bookkeeping — the
    /// baseline engine's behaviour. An injector with an empty plan
    /// and this policy is bit-identical to no injector at all.
    #[default]
    Passive,
    /// Count failed injection attempts per message; between attempts
    /// back off exponentially (`backoff` cycles, doubling each
    /// failure), and after `max_attempts` failures **abandon** the
    /// message: it never injects, and a run where every survivor is
    /// delivered counts as partial success rather than a timeout.
    Active {
        /// Failed attempts before the message is abandoned.
        max_attempts: u32,
        /// Initial backoff in cycles; doubles after each failure.
        backoff: u64,
    },
}

/// Aggregate fault activity of one run (see
/// [`FaultInjector::report`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Channel-down events applied.
    pub channel_downs: u64,
    /// Channel-up (recovery) events applied.
    pub channel_ups: u64,
    /// Cycle-slots lost to router stalls (windows × widths, clipped
    /// to the run length).
    pub router_stall_cycles: u64,
    /// Flit drops applied (each cost one retransmission cycle).
    pub flit_drops: u64,
    /// Messages flagged as carrying corrupted payload.
    pub corrupted: Vec<MessageId>,
    /// Injection slots suppressed by jitter.
    pub jitter_cycles: u64,
    /// Failed injection attempts counted by an active retry policy.
    pub failed_attempts: u64,
    /// Messages abandoned by an active retry policy.
    pub abandoned: Vec<MessageId>,
}

/// Applies a [`FaultPlan`] to a simulation through the decision-hook
/// seam. Construct one per run ([`FaultInjector::new`]), drive it via
/// [`wormsim::runner::Runner::run_hooked`] or
/// [`crate::FaultRunner`].
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    policy: RetryPolicy,
    liveness: ChannelLiveness,
    /// Router-stall windows, precomputed to hosted-channel lists:
    /// `(from, until, channels)`.
    stall_windows: Vec<(u64, u64, Vec<ChannelId>)>,
    /// Per-message failed-attempt counts (active policy).
    attempts: Vec<u32>,
    /// Earliest cycle each message may retry injection.
    next_retry_at: Vec<u64>,
    abandoned: BTreeSet<MessageId>,
    corrupted: BTreeSet<MessageId>,
    /// Messages we allowed to attempt injection this cycle, checked
    /// for success in `observe`.
    attempted: Vec<MessageId>,
    /// Jitter held a message back on the last adjusted cycle.
    held_back: bool,
    report: FaultReport,
}

impl FaultInjector {
    /// Build an injector for `plan` over `net`, driving a simulation
    /// with `messages` messages.
    pub fn new(net: &Network, plan: FaultPlan, policy: RetryPolicy, messages: usize) -> Self {
        let stall_windows = plan
            .events()
            .iter()
            .filter_map(|e| match e {
                FaultEvent::RouterStall { node, from, cycles } => {
                    Some((*from, from + cycles, net.in_channels(*node).to_vec()))
                }
                _ => None,
            })
            .collect();
        FaultInjector {
            plan,
            policy,
            liveness: ChannelLiveness::all_up(net.channel_count()),
            stall_windows,
            attempts: vec![0; messages],
            next_retry_at: vec![0; messages],
            abandoned: BTreeSet::new(),
            corrupted: BTreeSet::new(),
            attempted: Vec::new(),
            held_back: false,
            report: FaultReport::default(),
        }
    }

    /// The plan being applied.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Current channel up/down overlay.
    pub fn liveness(&self) -> &ChannelLiveness {
        &self.liveness
    }

    /// Whether this injector can have **no** observable effect: an
    /// empty plan under the passive retry policy. A transparent
    /// injector leaves the run bit-identical to the fault-free
    /// engine, including trace output (no `fault.*` counters, no
    /// `fault.plan` span).
    pub fn is_transparent(&self) -> bool {
        self.plan.is_empty() && self.policy == RetryPolicy::Passive
    }

    /// Whether `msg` was abandoned by the retry policy.
    pub fn is_abandoned(&self, msg: MessageId) -> bool {
        self.abandoned.contains(&msg)
    }

    /// Whether `msg` was flagged as corrupted.
    pub fn is_corrupted(&self, msg: MessageId) -> bool {
        self.corrupted.contains(&msg)
    }

    /// Aggregate fault activity so far.
    pub fn report(&self) -> FaultReport {
        let mut r = self.report.clone();
        r.corrupted = self.corrupted.iter().copied().collect();
        r.abandoned = self.abandoned.iter().copied().collect();
        r
    }

    fn in_flight(sim: &Sim, state: &SimState, m: MessageId) -> bool {
        state.is_started(m) && !state.is_delivered(m, sim.length(m))
    }
}

impl DecisionHook for FaultInjector {
    fn adjust(&mut self, sim: &Sim, state: &SimState, time: u64, decisions: &mut Decisions) {
        // 1. Channel up/down events scheduled for this cycle flip the
        //    liveness overlay.
        for event in self.plan.events() {
            match *event {
                FaultEvent::ChannelDown { channel, at } if at == time => {
                    self.liveness.set_down(channel);
                    self.report.channel_downs += 1;
                    wormtrace::counter("fault.channel_down", 1);
                }
                FaultEvent::ChannelUp { channel, at } if at == time => {
                    self.liveness.set_up(channel);
                    self.report.channel_ups += 1;
                    wormtrace::counter("fault.channel_up", 1);
                }
                _ => {}
            }
        }

        // 2. Down channels and stalled routers freeze their queues.
        decisions
            .frozen
            .extend_from_slice(self.liveness.down_channels());
        for (from, until, channels) in &self.stall_windows {
            if (*from..*until).contains(&time) {
                decisions.frozen.extend(channels.iter().copied());
                self.report.router_stall_cycles += 1;
                wormtrace::counter("fault.router_stall_cycles", 1);
            }
        }

        // 3. Flit drops stall the victim one cycle; corruption only
        //    flags it.
        for event in self.plan.events() {
            match *event {
                FaultEvent::FlitDrop { msg, at }
                    if at == time
                        && Self::in_flight(sim, state, msg)
                        && !decisions.stalls.contains(&msg) =>
                {
                    decisions.stalls.push(msg);
                    self.report.flit_drops += 1;
                    wormtrace::counter("fault.flit_drops", 1);
                }
                FaultEvent::FlitCorrupt { msg, at }
                    if at == time
                        && Self::in_flight(sim, state, msg)
                        && !self.corrupted.contains(&msg) =>
                {
                    self.corrupted.insert(msg);
                    wormtrace::counter("fault.flit_corrupts", 1);
                }
                _ => {}
            }
        }

        // 4. Injection jitter holds messages back past their spec
        //    time.
        self.held_back = false;
        for event in self.plan.events() {
            if let FaultEvent::InjectDelay { msg, delay } = *event {
                let release = sim.spec(msg).inject_at + delay;
                if time < release && decisions.inject.contains(&msg) {
                    decisions.inject.retain(|&m| m != msg);
                    self.held_back = true;
                    self.report.jitter_cycles += 1;
                    wormtrace::counter("fault.jitter_cycles", 1);
                }
            }
        }

        // 5. Retry policy: abandoned messages never inject; backed-off
        //    messages wait out their window. `attempted` records who
        //    is left so `observe` can score the attempt.
        if let RetryPolicy::Active { .. } = self.policy {
            let (abandoned, next_retry) = (&self.abandoned, &self.next_retry_at);
            decisions
                .inject
                .retain(|&m| !abandoned.contains(&m) && next_retry[m.index()] <= time);
            self.attempted = decisions.inject.clone();
        }
    }

    fn observe(&mut self, _sim: &Sim, state: &SimState, time: u64, _report: &StepReport) {
        let RetryPolicy::Active {
            max_attempts,
            backoff,
        } = self.policy
        else {
            return;
        };
        for &m in &std::mem::take(&mut self.attempted) {
            if state.is_started(m) {
                continue; // injection succeeded
            }
            self.attempts[m.index()] += 1;
            self.report.failed_attempts += 1;
            wormtrace::counter("fault.inject_failed", 1);
            if self.attempts[m.index()] >= max_attempts {
                if self.abandoned.insert(m) {
                    wormtrace::counter("fault.msg_abandoned", 1);
                }
            } else {
                // Exponential backoff, exponent capped to keep the
                // shift defined.
                let exp = (self.attempts[m.index()] - 1).min(16);
                self.next_retry_at[m.index()] = time + 1 + (backoff << exp);
            }
        }
    }

    /// The first cycle after `time` at which the plan or the retry
    /// policy acts: the next `down`/`up`, drop or corrupt event, the
    /// next router-stall window's start (`time + 1` while a window is
    /// open or closes, since stalled cycles are counted), and `time + 1`
    /// while jitter holds a message back or an active retry policy is
    /// in force (it scores every failed attempt).
    fn quiet_until(&self, time: u64) -> u64 {
        let next = time + 1;
        if self.held_back || self.policy != RetryPolicy::Passive {
            return next;
        }
        let mut until = u64::MAX;
        for event in self.plan.events() {
            match *event {
                FaultEvent::ChannelDown { at, .. }
                | FaultEvent::ChannelUp { at, .. }
                | FaultEvent::FlitDrop { at, .. }
                | FaultEvent::FlitCorrupt { at, .. }
                    if at > time =>
                {
                    until = until.min(at);
                }
                _ => {}
            }
        }
        for &(from, window_end, _) in &self.stall_windows {
            if from <= next && window_end > time {
                return next;
            }
            if from > time {
                until = until.min(from);
            }
        }
        until
    }

    fn withdrawn(&self) -> usize {
        self.abandoned.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormnet::topology::line;
    use wormroute::algorithms::shortest_path_table;
    use wormsim::MessageSpec;

    const NEVER: u64 = u64::MAX;

    /// A 3-node line with one message `m0` from node 0 to node 2.
    fn fixture() -> (Network, Sim, MessageId) {
        let (net, nodes) = line(3);
        let table = shortest_path_table(&net).unwrap();
        let sim = Sim::new(
            &net,
            &table,
            vec![MessageSpec::new(nodes[0], nodes[2], 2)],
            None,
        )
        .unwrap();
        (net, sim, MessageId::from_index(0))
    }

    /// Adjust and observe cycle `time` with `m0` still pending (its
    /// entry channel taken away, so an attempt fails).
    fn quiet_cycle(inj: &mut FaultInjector, sim: &Sim, time: u64) -> Decisions {
        let state = sim.initial_state();
        let mut d = Decisions {
            inject: vec![MessageId::from_index(0)],
            ..Decisions::default()
        };
        inj.adjust(sim, &state, time, &mut d);
        inj.observe(sim, &state, time, &StepReport::default());
        d
    }

    #[test]
    fn quiet_until_is_the_next_down_or_up_cycle() {
        let (net, sim, m) = fixture();
        let c = sim.path(m)[1];
        let plan = FaultPlan::new().channel_outage(c, 5, 12);
        let mut inj = FaultInjector::new(&net, plan, RetryPolicy::Passive, 1);
        quiet_cycle(&mut inj, &sim, 0);
        assert_eq!(inj.quiet_until(0), 5);
        assert_eq!(inj.quiet_until(4), 5);
        let d = quiet_cycle(&mut inj, &sim, 5);
        assert_eq!(d.frozen, vec![c], "the channel went down at 5");
        assert_eq!(inj.liveness().down_channels(), &[c]);
        assert_eq!(inj.quiet_until(5), 12);
        quiet_cycle(&mut inj, &sim, 12);
        assert!(inj.liveness().all_channels_up(), "came back at 12");
        assert_eq!(inj.quiet_until(12), NEVER);
    }

    #[test]
    fn quiet_until_steps_every_cycle_of_a_stall_window() {
        let (net, _, _) = fixture();
        let node = net.nodes().nth(1).unwrap();
        let plan = FaultPlan::new().router_stall(node, 10, 3);
        let inj = FaultInjector::new(&net, plan, RetryPolicy::Passive, 1);
        assert_eq!(inj.quiet_until(0), 10, "the window's start");
        assert_eq!(inj.quiet_until(9), 10);
        // Inside the window every cycle is counted, and the cycle it
        // closes on freezes a different set.
        for t in 10..=12 {
            assert_eq!(inj.quiet_until(t), t + 1, "cycle {t}");
        }
        assert_eq!(inj.quiet_until(13), NEVER);
    }

    #[test]
    fn quiet_until_is_the_next_drop_or_corrupt_cycle() {
        let (net, sim, m) = fixture();
        let plan = FaultPlan::new().flit_drop(m, 7).flit_corrupt(m, 9);
        let mut inj = FaultInjector::new(&net, plan, RetryPolicy::Passive, 1);
        quiet_cycle(&mut inj, &sim, 0);
        assert_eq!(inj.quiet_until(0), 7);
        assert_eq!(inj.quiet_until(7), 9);
        assert_eq!(inj.quiet_until(9), NEVER);
    }

    #[test]
    fn quiet_until_steps_while_jitter_holds_a_message_back() {
        let (net, sim, m) = fixture();
        let plan = FaultPlan::new().inject_delay(m, 20);
        let mut inj = FaultInjector::new(&net, plan, RetryPolicy::Passive, 1);
        let d = quiet_cycle(&mut inj, &sim, 3);
        assert!(d.inject.is_empty(), "held back");
        assert_eq!(inj.quiet_until(3), 4);
        let d = quiet_cycle(&mut inj, &sim, 19);
        assert!(d.inject.is_empty(), "still held back");
        assert_eq!(inj.quiet_until(19), 20);
        let d = quiet_cycle(&mut inj, &sim, 20);
        assert_eq!(d.inject, vec![m], "released");
        assert_eq!(inj.quiet_until(20), NEVER);
    }

    #[test]
    fn quiet_until_steps_every_cycle_under_an_active_retry_policy() {
        let (net, sim, m) = fixture();
        let retry = RetryPolicy::Active {
            max_attempts: 3,
            backoff: 4,
        };
        let mut inj = FaultInjector::new(&net, FaultPlan::new(), retry, 1);
        // The first attempt fails and backs off 4 cycles.
        assert_eq!(quiet_cycle(&mut inj, &sim, 0).inject, vec![m]);
        assert_eq!(inj.quiet_until(0), 1);
        // Waiting out the backoff is still stepped cycle by cycle.
        assert!(quiet_cycle(&mut inj, &sim, 2).inject.is_empty());
        assert_eq!(inj.quiet_until(2), 3);
        // The second attempt fails, the third abandons the message.
        assert_eq!(quiet_cycle(&mut inj, &sim, 5).inject, vec![m]);
        quiet_cycle(&mut inj, &sim, 14);
        assert!(inj.is_abandoned(m));
        assert_eq!(inj.withdrawn(), 1);
        assert_eq!(inj.quiet_until(14), 15);
    }

    #[test]
    fn a_passive_empty_plan_never_bounds_the_skip() {
        let (net, sim, _) = fixture();
        let mut inj = FaultInjector::new(&net, FaultPlan::new(), RetryPolicy::Passive, 1);
        quiet_cycle(&mut inj, &sim, 0);
        assert_eq!(inj.quiet_until(0), NEVER);
        assert_eq!(inj.withdrawn(), 0);
    }
}
