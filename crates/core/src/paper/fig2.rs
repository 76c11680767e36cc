//! Figure 2 / Theorem 4: a channel shared by exactly **two** messages
//! outside the cycle always yields a reachable deadlock.
//!
//! The construction: two messages through `c_s` with different access
//! distances. The paper's schedule — inject the longer-access message
//! first, the other immediately after — lets both reach the cycle in
//! time to block each other.

use crate::family::{CycleConstruction, CycleMessageSpec, SharedCycleSpec};

/// Parameters of the Figure 2 instance: two sharers with access
/// distances 3 and 1.
pub fn spec() -> SharedCycleSpec {
    SharedCycleSpec {
        messages: vec![
            CycleMessageSpec::shared(3, 3, 1), // M1: longer access path
            CycleMessageSpec::shared(1, 3, 1), // M2
        ],
    }
}

/// Build the Figure 2 network and routing algorithm.
pub fn two_message_deadlock() -> CycleConstruction {
    spec().build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsearch::{explore, replay, SearchConfig, Verdict};
    use wormsim::Sim;

    #[test]
    fn cdg_is_cyclic_with_candidates() {
        let c = two_message_deadlock();
        assert!(!c.cdg().is_acyclic());
        let cands = wormcdg::deadlock_candidates(&c.table, &c.cycle(), 1000).unwrap();
        assert!(!cands.is_empty());
    }

    /// Theorem 4, machine-checked: the search finds a deadlock
    /// schedule, and it replays.
    #[test]
    fn theorem4_deadlock_reachable() {
        let c = two_message_deadlock();
        let sim = Sim::new(&c.net, &c.table, c.message_specs(), Some(1)).unwrap();
        let result = explore(&sim, &SearchConfig::default());
        let Verdict::DeadlockReachable(witness) = &result.verdict else {
            panic!("Figure 2 must deadlock: {:?}", result.verdict);
        };
        assert_eq!(witness.members.len(), 2);
        assert_eq!(witness.stalls_used(), 0, "no adversarial stalls needed");
        assert!(replay(&sim, witness).is_some());
    }

    /// The shared-channel analysis sees exactly the Theorem 4 shape.
    #[test]
    fn sharing_shape_is_two_outside() {
        let c = two_message_deadlock();
        let cycle = c.cycle();
        let candidate = c.canonical_candidate();
        let analysis = wormcdg::sharing::analyze(&c.net, &c.table, &cycle, &candidate);
        let outside: Vec<_> = analysis.outside().collect();
        assert_eq!(outside.len(), 1);
        assert_eq!(outside[0].channel, c.cs);
        assert_eq!(outside[0].users.len(), 2);
    }
}
