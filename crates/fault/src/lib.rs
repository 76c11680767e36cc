//! # wormfault — deterministic fault injection and re-verification
//!
//! The paper proves its deadlock-freedom results on a healthy
//! network. This crate asks what survives when the hardware
//! misbehaves, in two complementary ways:
//!
//! * **Dynamic** — a [`FaultPlan`] (seedable, replayable schedule of
//!   channel outages, router stalls, flit drops/corruption, and
//!   injection jitter) is applied to a live simulation through the
//!   engine's decision-hook seam ([`wormsim::hooks::DecisionHook`]):
//!   outages and stalls freeze channels, drops cost retransmission
//!   cycles, jitter and [`RetryPolicy`] backoff gate injection. The
//!   [`FaultRunner`] drives the run and reads the outcome fault-aware
//!   (abandoned messages make a delivery *partial*, not failed).
//! * **Static** — [`reverify`] re-runs the complete classification
//!   pipeline (Theorems 2–5 plus exhaustive-search fallback, via
//!   [`worm_core::classify_degraded`]) on the topology minus the
//!   plan's permanent channel losses, reporting whether the paper's
//!   unreachable-cycle verdict survives the damage.
//!
//! Everything is deterministic: the same `(topology, plan, seed)`
//! reproduces the same trajectory, outcome, and verdict — the
//! property `tests/props_fault.rs` pins across thread counts. The
//! empty plan is guaranteed **bit-identical** to the fault-free
//! engine, down to trace reports (`tests/fault_conformance.rs`).
//!
//! ```
//! use worm_core::classify::ClassifyOptions;
//! use wormfault::{reverify, FaultPlan};
//! use wormnet::topology::ring_unidirectional;
//! use wormroute::algorithms::clockwise_ring;
//!
//! let (net, nodes) = ring_unidirectional(4);
//! let table = clockwise_ring(&net, &nodes).unwrap();
//! let c01 = net.find_channel(nodes[0], nodes[1]).unwrap();
//!
//! // Permanently losing one ring channel breaks the (deadlockable)
//! // dependency cycle: the degraded verdict flips to deadlock-free.
//! let plan = FaultPlan::new().channel_down(c01, 10);
//! let report = reverify(&net, &table, &plan, &ClassifyOptions::default());
//! assert!(!report.verdict_survives);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod injector;
mod plan;
mod reverify;
mod runner;
pub mod spec;

pub use injector::{FaultInjector, FaultReport, RetryPolicy};
pub use plan::{FaultEvent, FaultPlan};
pub use reverify::{reverify, reverify_from, FaultRoutability, ReverifyReport};
pub use runner::{FaultOutcome, FaultRunner};

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim::runner::ArbitrationPolicy;
    use wormsim::{MessageSpec, Sim};

    use wormnet::topology::line;
    use wormroute::algorithms::shortest_path_table;

    fn line_sim() -> (wormnet::Network, Vec<wormnet::NodeId>, Sim) {
        let (net, nodes) = line(4);
        let table = shortest_path_table(&net).unwrap();
        let sim = Sim::new(
            &net,
            &table,
            vec![
                MessageSpec::new(nodes[0], nodes[3], 3),
                MessageSpec::new(nodes[1], nodes[3], 2).at(1),
            ],
            None,
        )
        .unwrap();
        (net, nodes, sim)
    }

    #[test]
    fn empty_plan_delivers_like_the_baseline() {
        let (net, _, sim) = line_sim();
        let baseline = {
            let mut r = wormsim::runner::Runner::new(&sim, ArbitrationPolicy::OldestFirst);
            match r.run(100) {
                wormsim::runner::Outcome::Delivered { cycles } => cycles,
                o => panic!("{o:?}"),
            }
        };
        let mut fr = FaultRunner::new(
            &net,
            &sim,
            ArbitrationPolicy::OldestFirst,
            FaultPlan::new(),
            RetryPolicy::Passive,
        );
        assert_eq!(fr.run(100), FaultOutcome::Delivered { cycles: baseline });
        assert_eq!(fr.report(), FaultReport::default());
    }

    #[test]
    fn transient_outage_delays_but_delivers() {
        let (net, nodes, sim) = line_sim();
        let baseline = {
            let mut fr = FaultRunner::new(
                &net,
                &sim,
                ArbitrationPolicy::OldestFirst,
                FaultPlan::new(),
                RetryPolicy::Passive,
            );
            match fr.run(100) {
                FaultOutcome::Delivered { cycles } => cycles,
                o => panic!("{o:?}"),
            }
        };
        let c01 = net.find_channel(nodes[0], nodes[1]).unwrap();
        let plan = FaultPlan::new().channel_outage(c01, 0, 5);
        let mut fr = FaultRunner::new(
            &net,
            &sim,
            ArbitrationPolicy::OldestFirst,
            plan,
            RetryPolicy::Passive,
        );
        match fr.run(100) {
            FaultOutcome::Delivered { cycles } => {
                assert!(cycles > baseline, "outage must cost cycles");
            }
            o => panic!("{o:?}"),
        }
        let report = fr.report();
        assert_eq!(report.channel_downs, 1);
        assert_eq!(report.channel_ups, 1);
    }

    #[test]
    fn permanent_outage_times_out_passively_but_degrades_gracefully_actively() {
        let (net, nodes, sim) = line_sim();
        let c01 = net.find_channel(nodes[0], nodes[1]).unwrap();

        // Passive: message 0 can never enter its first channel; the
        // run starves (timeout, NOT deadlock — no wait-for cycle).
        let plan = FaultPlan::new().channel_down(c01, 0);
        let mut fr = FaultRunner::new(
            &net,
            &sim,
            ArbitrationPolicy::OldestFirst,
            plan.clone(),
            RetryPolicy::Passive,
        );
        assert_eq!(fr.run(60), FaultOutcome::Timeout { cycles: 60 });

        // Active: after max_attempts failures the message is
        // abandoned and the survivor's delivery counts as success.
        let mut fr = FaultRunner::new(
            &net,
            &sim,
            ArbitrationPolicy::OldestFirst,
            plan,
            RetryPolicy::Active {
                max_attempts: 3,
                backoff: 2,
            },
        );
        match fr.run(100) {
            FaultOutcome::DeliveredPartial { abandoned, .. } => {
                assert_eq!(abandoned, vec![wormsim::MessageId::from_index(0)]);
            }
            o => panic!("{o:?}"),
        }
        let report = fr.report();
        assert_eq!(report.failed_attempts, 3);
        // Backoff doubles: attempts at t=0, then +1+2, then +1+4.
        assert!(fr
            .injector()
            .is_abandoned(wormsim::MessageId::from_index(0)));
    }

    #[test]
    fn drops_corruption_and_jitter_are_observable() {
        let (net, _, sim) = line_sim();
        let plan = FaultPlan::new()
            .flit_drop(wormsim::MessageId::from_index(0), 2)
            .flit_corrupt(wormsim::MessageId::from_index(0), 3)
            .inject_delay(wormsim::MessageId::from_index(1), 4);
        let mut fr = FaultRunner::new(
            &net,
            &sim,
            ArbitrationPolicy::OldestFirst,
            plan,
            RetryPolicy::Passive,
        );
        match fr.run(100) {
            FaultOutcome::Delivered { .. } => {}
            o => panic!("{o:?}"),
        }
        let report = fr.report();
        assert_eq!(report.flit_drops, 1);
        assert_eq!(report.corrupted, vec![wormsim::MessageId::from_index(0)]);
        assert!(report.jitter_cycles > 0, "injection was held back");
        assert!(fr
            .injector()
            .is_corrupted(wormsim::MessageId::from_index(0)));
    }

    #[test]
    fn router_stall_freezes_hosted_queues() {
        let (net, nodes, sim) = line_sim();
        let baseline = {
            let mut fr = FaultRunner::new(
                &net,
                &sim,
                ArbitrationPolicy::OldestFirst,
                FaultPlan::new(),
                RetryPolicy::Passive,
            );
            match fr.run(100) {
                FaultOutcome::Delivered { cycles } => cycles,
                o => panic!("{o:?}"),
            }
        };
        let plan = FaultPlan::new().router_stall(nodes[2], 1, 4);
        let mut fr = FaultRunner::new(
            &net,
            &sim,
            ArbitrationPolicy::OldestFirst,
            plan,
            RetryPolicy::Passive,
        );
        match fr.run(100) {
            FaultOutcome::Delivered { cycles } => assert!(cycles > baseline),
            o => panic!("{o:?}"),
        }
        assert_eq!(fr.report().router_stall_cycles, 4);
    }
}
