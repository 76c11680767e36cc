//! Engine hooks: external actors that adjust a cycle's [`Decisions`]
//! before they are committed.
//!
//! The simulator externalizes nondeterminism through [`Decisions`];
//! the [`crate::runner::Runner`] computes a concrete decision vector
//! each cycle from its policy and skew model. A
//! [`DecisionHook`] slots in between: after the runner assembles the
//! cycle's tentative `inject`/`stalls`/`frozen` sets but *before*
//! header requests are evaluated and arbitration winners are chosen,
//! the hook may mutate those sets. Because arbitration runs after the
//! hook, a hook can never leave a stale winner pointing at a message
//! that no longer requests its channel (the engine treats that as a
//! caller bug and panics).
//!
//! This is the seam the `wormfault` crate uses to apply fault plans —
//! channel outages extend `frozen`, flit drops extend `stalls`,
//! injection jitter and retry backoff prune `inject` — without the
//! engine or the runner knowing anything about faults. It is also the
//! runner's only way to stall a message. A hook that
//! never mutates anything leaves the runner's behaviour bit-identical
//! to the hook-free path (`tests/fault_conformance.rs` holds this
//! contract down to trace reports).
//!
//! **Skipped cycles.** [`crate::runner::Runner::run`] and
//! [`crate::runner::Runner::run_hooked`] jump over cycles in which
//! nothing can change. After a *quiet* cycle `t` — one that moved no
//! flit, made no header request and stalled no message — the state
//! and the arbitration memory are exactly what they were before it,
//! so every later cycle repeats `t` until one of its inputs differs.
//! The runner knows its own inputs (the next `inject_at`, the
//! horizon); the hook names its own through
//! [`DecisionHook::quiet_until`]: the first cycle after `t` at which
//! its `adjust` may decide differently or have any other effect. The
//! runner calls neither `adjust` nor `observe` for the cycles it skips.
//! The default answer is `t + 1`, so a hook that does not override it
//! sees every cycle. [`crate::runner::Runner::step`] and
//! [`crate::runner::Runner::step_hooked`] never skip.

use crate::engine::{Decisions, Sim, StepReport};
use crate::state::SimState;

/// An actor that adjusts each cycle's decisions before they commit.
pub trait DecisionHook {
    /// Adjust the tentative decisions for cycle `time`.
    ///
    /// Called with `decisions.winners` still empty — arbitration is
    /// resolved *after* all adjustments, from the requests the
    /// adjusted sets induce. Implementations may add or remove
    /// entries of `inject`, `stalls`, and `frozen`; they should keep
    /// `inject`/`stalls` free of duplicates (the engine tolerates
    /// them, but the sets feed request enumeration directly).
    fn adjust(&mut self, sim: &Sim, state: &SimState, time: u64, decisions: &mut Decisions);

    /// Observe the committed step for cycle `time`: `state` is the
    /// post-step state and `report` what the engine did. Default:
    /// nothing. Fault layers use this for retry/timeout bookkeeping
    /// (e.g. counting failed injection attempts).
    fn observe(&mut self, sim: &Sim, state: &SimState, time: u64, report: &StepReport) {
        let _ = (sim, state, time, report);
    }

    /// Called after the quiet cycle `time` was adjusted and observed:
    /// the earliest cycle after `time` at which this hook's `adjust`
    /// may change the decisions it made for `time` (given the same
    /// state and tentative sets), or do anything else observable — a
    /// counter, a report entry, bookkeeping its `observe` would score.
    /// The runner may skip every cycle before it without calling the
    /// hook. Default: `time + 1`, no cycle is skipped.
    fn quiet_until(&self, time: u64) -> u64 {
        time + 1
    }

    /// How many messages this hook has withdrawn from the run: messages
    /// that never started and that it will never let inject (a retry
    /// policy that gave up on them). The run counts as delivered once
    /// every other message is. Default: none.
    fn withdrawn(&self) -> usize {
        0
    }
}

/// The do-nothing hook: [`crate::runner::Runner::step_hooked`] with
/// `NoopHook` is exactly [`crate::runner::Runner::step`].
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopHook;

impl DecisionHook for NoopHook {
    fn adjust(&mut self, _: &Sim, _: &SimState, _: u64, _: &mut Decisions) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MessageId, MessageSpec};
    use crate::runner::{ArbitrationPolicy, Outcome, Runner};
    use wormnet::topology::line;
    use wormnet::{ChannelId, NodeId};
    use wormroute::algorithms::shortest_path_table;

    fn two_message_line() -> (wormnet::Network, crate::engine::Sim) {
        let (net, _) = line(4);
        let table = shortest_path_table(&net).unwrap();
        let sim = Sim::new(
            &net,
            &table,
            vec![
                MessageSpec::new(NodeId::from_index(0), NodeId::from_index(3), 3),
                MessageSpec::new(NodeId::from_index(1), NodeId::from_index(3), 2).at(1),
            ],
            None,
        )
        .unwrap();
        (net, sim)
    }

    #[test]
    fn noop_hook_is_bit_identical_to_plain_runner() {
        let (_, sim) = two_message_line();
        let mut plain = Runner::new(&sim, ArbitrationPolicy::OldestFirst);
        let mut hooked = Runner::new(&sim, ArbitrationPolicy::OldestFirst);
        let mut hook = NoopHook;
        loop {
            plain.step();
            hooked.step_hooked(&mut hook);
            assert_eq!(plain.state(), hooked.state());
            assert_eq!(plain.time(), hooked.time());
            if sim.all_delivered(plain.state()) {
                break;
            }
            assert!(plain.time() < 100, "runaway");
        }
    }

    /// A hook that freezes one channel for the first `until` cycles.
    struct FreezeOne {
        chan: ChannelId,
        until: u64,
        observed_steps: u64,
    }

    impl DecisionHook for FreezeOne {
        fn adjust(&mut self, _: &Sim, _: &SimState, time: u64, d: &mut Decisions) {
            if time < self.until {
                d.frozen.push(self.chan);
            }
        }
        fn observe(&mut self, _: &Sim, _: &SimState, _: u64, _: &StepReport) {
            self.observed_steps += 1;
        }
    }

    #[test]
    fn freezing_hook_delays_delivery_and_observes_every_step() {
        let (_, sim) = two_message_line();
        let baseline = {
            let mut r = Runner::new(&sim, ArbitrationPolicy::LowestId);
            match r.run(100) {
                Outcome::Delivered { cycles } => cycles,
                o => panic!("{o:?}"),
            }
        };
        let c0 = sim.path(MessageId::from_index(0))[0];
        let mut hook = FreezeOne {
            chan: c0,
            until: 4,
            observed_steps: 0,
        };
        let mut r = Runner::new(&sim, ArbitrationPolicy::LowestId);
        match r.run_hooked(100, &mut hook) {
            Outcome::Delivered { cycles } => {
                assert!(cycles > baseline, "freeze must cost cycles");
                assert_eq!(hook.observed_steps, cycles);
            }
            o => panic!("{o:?}"),
        }
    }

    /// A hook that stalls one message on the listed cycles.
    struct StallOn {
        msg: MessageId,
        cycles: Vec<u64>,
    }

    impl DecisionHook for StallOn {
        fn adjust(&mut self, _: &Sim, _: &SimState, time: u64, d: &mut Decisions) {
            if self.cycles.contains(&time) {
                d.stalls.push(self.msg);
            }
        }
    }

    #[test]
    fn stalling_hook_delays_delivery_by_the_stalled_cycles() {
        let (net, _) = line(3);
        let table = shortest_path_table(&net).unwrap();
        let sim = Sim::new(
            &net,
            &table,
            vec![MessageSpec::new(
                NodeId::from_index(0),
                NodeId::from_index(2),
                2,
            )],
            None,
        )
        .unwrap();
        let baseline = match Runner::new(&sim, ArbitrationPolicy::LowestId).run(100) {
            Outcome::Delivered { cycles } => cycles,
            o => panic!("{o:?}"),
        };
        let mut hook = StallOn {
            msg: MessageId::from_index(0),
            cycles: vec![1, 2, 3],
        };
        let mut r = Runner::new(&sim, ArbitrationPolicy::LowestId);
        match r.run_hooked(100, &mut hook) {
            Outcome::Delivered { cycles } => assert_eq!(cycles, baseline + 3),
            o => panic!("{o:?}"),
        }
    }

    /// A hook that suppresses all injection forever: the run times out
    /// without ever starting a message (injection starvation, not
    /// deadlock).
    struct NeverInject;

    impl DecisionHook for NeverInject {
        fn adjust(&mut self, _: &Sim, _: &SimState, _: u64, d: &mut Decisions) {
            d.inject.clear();
        }
    }

    #[test]
    fn suppressed_injection_times_out_without_deadlock() {
        let (_, sim) = two_message_line();
        let mut r = Runner::new(&sim, ArbitrationPolicy::LowestId);
        let outcome = r.run_hooked(20, &mut NeverInject);
        assert_eq!(outcome, Outcome::Timeout { cycles: 20 });
        assert!(sim.pending(r.state()).len() == 2, "nothing ever injected");
    }
}
