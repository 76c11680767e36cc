//! Driving a simulation under a fault plan: the [`FaultRunner`]
//! couples a [`wormsim::runner::Runner`] with a [`FaultInjector`] and
//! interprets the outcome fault-aware — a run where the retry policy
//! abandoned some messages but every survivor arrived is a partial
//! delivery, not a timeout.

use wormnet::Network;
use wormsim::runner::{ArbitrationPolicy, Outcome, Runner};
use wormsim::stats::Stats;
use wormsim::{MessageId, Sim, SimState};

use crate::injector::{FaultInjector, FaultReport, RetryPolicy};
use crate::plan::FaultPlan;

/// Outcome of a run under faults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Every message was delivered.
    Delivered {
        /// Cycles taken.
        cycles: u64,
    },
    /// Every message the retry policy did not abandon was delivered.
    DeliveredPartial {
        /// Cycles taken.
        cycles: u64,
        /// Messages abandoned at the injection boundary.
        abandoned: Vec<MessageId>,
    },
    /// A wait-for cycle through owned channels: true deadlock. Faults
    /// can *cause* this (an outage re-shapes contention) but frozen
    /// channels alone cannot — a message waiting on a dead channel is
    /// starved, not deadlocked.
    Deadlock {
        /// The messages in the wait-for cycle.
        members: Vec<MessageId>,
        /// Cycle of detection.
        at_cycle: u64,
    },
    /// Budget exhausted with undelivered, unabandoned messages (e.g.
    /// a message routed through a permanently dead channel under the
    /// passive retry policy).
    Timeout {
        /// Cycles consumed.
        cycles: u64,
    },
}

/// A [`Runner`] with a [`FaultInjector`] attached, plus fault-aware
/// termination.
pub struct FaultRunner<'a> {
    runner: Runner<'a>,
    injector: FaultInjector,
}

impl<'a> FaultRunner<'a> {
    /// Set up a run of `sim` (messages routed over `net`) under
    /// `plan` with the given arbitration and retry policies.
    pub fn new(
        net: &Network,
        sim: &'a Sim,
        arbitration: ArbitrationPolicy,
        plan: FaultPlan,
        retry: RetryPolicy,
    ) -> Self {
        let injector = FaultInjector::new(net, plan, retry, sim.message_count());
        FaultRunner {
            runner: Runner::new(sim, arbitration),
            injector,
        }
    }

    /// Current cycle.
    pub fn time(&self) -> u64 {
        self.runner.time()
    }

    /// Current state (for inspection).
    pub fn state(&self) -> &SimState {
        self.runner.state()
    }

    /// Collected engine statistics.
    pub fn stats(&self) -> &Stats {
        self.runner.stats()
    }

    /// The attached injector (liveness overlay, corruption flags…).
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Aggregate fault activity so far.
    pub fn report(&self) -> FaultReport {
        self.injector.report()
    }

    fn success(&self) -> FaultOutcome {
        let abandoned = self.injector.report().abandoned;
        if abandoned.is_empty() {
            FaultOutcome::Delivered {
                cycles: self.runner.time(),
            }
        } else {
            FaultOutcome::DeliveredPartial {
                cycles: self.runner.time(),
                abandoned,
            }
        }
    }

    /// Run until every surviving message is delivered, a deadlock
    /// forms, or `max_cycles` elapse, through the runner's own loop
    /// ([`Runner::run_hooked`]): the injector is the hook, its
    /// abandoned messages are the withdrawn ones, and a run stuck
    /// behind a dead channel jumps from fault event to fault event.
    /// Unless the injector is transparent (empty plan, passive retry —
    /// kept silent so the zero-fault trace report matches the
    /// baseline's exactly), the whole run is wrapped in a `fault.plan`
    /// trace span.
    pub fn run(&mut self, max_cycles: u64) -> FaultOutcome {
        let _span = (!self.injector.is_transparent()).then(|| wormtrace::span("fault.plan"));
        match self.runner.run_hooked(max_cycles, &mut self.injector) {
            Outcome::Delivered { .. } => self.success(),
            Outcome::Deadlock { members, at_cycle } => FaultOutcome::Deadlock { members, at_cycle },
            Outcome::Timeout { .. } => FaultOutcome::Timeout { cycles: max_cycles },
        }
    }
}
