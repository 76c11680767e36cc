//! Figure 1: the **Cyclic Dependency routing algorithm** — oblivious,
//! deadlock-free, with a cyclic channel dependency graph.
//!
//! Reconstruction from the paper's Section 4 and Theorem 1:
//!
//! * four messages `M1..M4` from `Src` to `D1..D4`, all using the
//!   shared channel `c_s = Src → N*`;
//! * `M1`/`M3` use **two** channels from `N*` to the cycle
//!   (`d = 2`) and must hold **three** channels within the cycle
//!   (`g = 3`); `M2`/`M4` use three (`d = 3`) and must hold four
//!   (`g = 4`);
//! * each destination `D_i` lies one channel past the next message's
//!   entry (`reach = 1`), so `M1` routes through `D4`, `M2` through
//!   `D1`, and so on;
//! * all other traffic routes through `N*` directly.
//!
//! Theorem 1 argues the cycle is an unreachable configuration: to
//! block `M1`, `M2` must be injected earlier, and symmetrically for
//! `M3`/`M4` — but the four messages must use `c_s` consecutively and
//! the odd messages' shorter access paths make the required schedule
//! impossible. The test suite verifies this *mechanically*: the
//! exhaustive search proves no injection order, arbitration choice, or
//! buffer-size reduction produces a deadlock, while a static deadlock
//! configuration does exist (the false resource cycle).

use crate::family::{CycleConstruction, CycleMessageSpec, SharedCycleSpec};

/// Parameters of the paper's Figure 1 instance.
pub fn spec() -> SharedCycleSpec {
    SharedCycleSpec {
        messages: vec![
            CycleMessageSpec::shared(2, 3, 1), // M1
            CycleMessageSpec::shared(3, 4, 1), // M2
            CycleMessageSpec::shared(2, 3, 1), // M3
            CycleMessageSpec::shared(3, 4, 1), // M4
        ],
    }
}

/// Build the Cyclic Dependency routing algorithm's network and table.
pub fn cyclic_dependency() -> CycleConstruction {
    spec().build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsearch::{explore, SearchConfig};
    use wormsim::Sim;

    #[test]
    fn cdg_is_cyclic() {
        let c = cyclic_dependency();
        let cdg = c.cdg();
        assert!(!cdg.is_acyclic());
        assert_eq!(cdg.cycles().len(), 1);
    }

    #[test]
    fn static_deadlock_candidate_exists() {
        let c = cyclic_dependency();
        let cands = wormcdg::deadlock_candidates(&c.table, &c.cycle(), 1000).unwrap();
        assert_eq!(cands.len(), 1, "the canonical configuration");
        assert_eq!(cands[0].len(), 4);
        let mut held: Vec<u32> = cands[0].iter().map(|s| s.len).collect();
        held.sort_unstable();
        assert_eq!(held, vec![3, 3, 4, 4], "paper: M1/M3 hold 3, M2/M4 hold 4");
    }

    /// Theorem 1, machine-checked: with paper lengths (ℓ_i = a_i) and
    /// one-flit buffers, no adversary schedule deadlocks.
    #[test]
    fn theorem1_deadlock_free_paper_lengths() {
        let c = cyclic_dependency();
        let sim = Sim::new(&c.net, &c.table, c.message_specs(), Some(1)).unwrap();
        let result = explore(&sim, &SearchConfig::default());
        assert!(
            result.verdict.is_free(),
            "Figure 1 must be deadlock-free: {:?}",
            result.verdict
        );
    }

    /// Theorem 1's "more than four messages" case: the proof argues
    /// that because every message uses more channels inside the cycle
    /// than from the shared channel to it, parking tricks with extra
    /// message instances cannot help the adversary. Machine-check with
    /// a duplicate of M2 at a length the base messages don't use.
    #[test]
    fn theorem1_robust_to_duplicate_instances() {
        let c = cyclic_dependency();
        let mut specs: Vec<wormsim::MessageSpec> = c
            .built
            .iter()
            .map(|b| wormsim::MessageSpec::new(b.pair.0, b.pair.1, b.spec.g))
            .collect();
        let m2 = &c.built[1];
        specs.push(wormsim::MessageSpec::new(m2.pair.0, m2.pair.1, 8));
        let sim = Sim::new(&c.net, &c.table, specs, Some(1)).unwrap();
        let result = explore(&sim, &SearchConfig::default());
        assert!(result.verdict.is_free(), "{:?}", result.verdict);
    }

    /// The single shared channel is essential: splitting Figure 1's
    /// four sharers across two shared channels (two sharers each, any
    /// arrangement) destroys unreachability — consistent with
    /// Theorem 4 composing across channels. Empirical answer to the
    /// paper's Section 7 open problem for this family.
    #[test]
    fn splitting_the_shared_channel_restores_deadlock() {
        use crate::family::{CycleMessageSpec, SharedCycleSpec};
        for groups in [[0usize, 1, 0, 1], [0, 0, 1, 1]] {
            let ds = [2usize, 3, 2, 3];
            let gs = [3usize, 4, 3, 4];
            let spec = SharedCycleSpec {
                messages: (0..4)
                    .map(|i| CycleMessageSpec::shared_in_group(groups[i], ds[i], gs[i], 1))
                    .collect(),
            };
            let c = spec.build();
            let specs: Vec<wormsim::MessageSpec> = c
                .built
                .iter()
                .map(|b| wormsim::MessageSpec::new(b.pair.0, b.pair.1, b.spec.g))
                .collect();
            let sim = Sim::new(&c.net, &c.table, specs, Some(1)).unwrap();
            let result = explore(&sim, &SearchConfig::default());
            assert!(
                result.verdict.is_deadlock(),
                "groups {groups:?} must deadlock"
            );
        }
    }

    /// Theorem 1 at the adversarial minimum: messages just long enough
    /// to hold their segments.
    #[test]
    fn theorem1_deadlock_free_minimum_lengths() {
        let c = cyclic_dependency();
        let specs: Vec<wormsim::MessageSpec> = c
            .built
            .iter()
            .map(|b| wormsim::MessageSpec::new(b.pair.0, b.pair.1, b.spec.g))
            .collect();
        let sim = Sim::new(&c.net, &c.table, specs, Some(1)).unwrap();
        let result = explore(&sim, &SearchConfig::default());
        assert!(result.verdict.is_free(), "{:?}", result.verdict);
    }
}
