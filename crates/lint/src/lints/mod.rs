//! The built-in lint suite.
//!
//! Codes are stable and documented in `docs/LINTS.md`:
//!
//! | Range | Module | Concern |
//! |---|---|---|
//! | `W0xx` | [`structure`] | network/table integrity |
//! | `W1xx` | [`routing`] | routing-function properties (Definitions 7–9, Corollary 1) |
//! | `W201`–`W207` | [`theorems`] | CDG cycles and the Section 5 theorems |
//! | `W208`–`W209` | [`certificates`] | positive Dally–Seitz numbering certificates |
//! | `W3xx` | [`existence`] | two-sided existence certificates for the network itself |

pub mod certificates;
pub mod existence;
pub mod routing;
pub mod structure;
pub mod theorems;

use crate::lint::{Finding, Lint};
use wormnet::{Network, NodeId};
use wormroute::PathRef;

/// Every built-in lint, in code order.
pub fn default_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(structure::SelfLoopChannel),
        Box::new(structure::DuplicateChannel),
        Box::new(structure::UnroutablePairs),
        Box::new(structure::DeadChannel),
        Box::new(structure::DeadPathTail),
        Box::new(routing::NonMinimalRoute),
        Box::new(routing::SuffixClosureViolation),
        Box::new(routing::PrefixClosureViolation),
        Box::new(routing::NodeRevisit),
        Box::new(routing::NodeFunctionForm),
        Box::new(theorems::CdgCycleCensus),
        Box::new(theorems::Theorem2NoOutsideSharing),
        Box::new(theorems::Theorem4TwoSharers),
        Box::new(theorems::Theorem5Unreachable),
        Box::new(theorems::Theorem5Reachable),
        Box::new(theorems::Theorem3MinimalAllShare),
        Box::new(theorems::OutOfScopeCycle),
        Box::new(certificates::VcMonotoneCertificate),
        Box::new(certificates::DownUpCertificate),
        Box::new(existence::ExistenceWitness),
        Box::new(existence::ExistenceObstruction),
        Box::new(existence::DeadlockableButRoutable),
        Box::new(existence::ExistenceUndecided),
    ]
}

/// The one spec-wide finding of a lint that fires at most once.
pub(crate) fn spec_if<'c>(fires: bool) -> Vec<Finding<'c>> {
    if fires {
        vec![Finding::Spec]
    } else {
        Vec::new()
    }
}

/// `src->dst` in node names — the `pair:` entity convention.
pub(crate) fn pair_ref(net: &Network, (s, d): (NodeId, NodeId)) -> String {
    format!("{}->{}", net.node_name(s), net.node_name(d))
}

/// A path's node walk in node names (`a->b->c`).
pub(crate) fn walk(net: &Network, path: PathRef<'_>) -> String {
    walk_nodes(net, &path.nodes(net))
}

/// A node walk in node names (`a->b->c`).
pub(crate) fn walk_nodes(net: &Network, nodes: &[NodeId]) -> String {
    nodes
        .iter()
        .map(|&n| net.node_name(n).to_string())
        .collect::<Vec<_>>()
        .join("->")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_sorted_and_well_formed() {
        let lints = default_lints();
        let codes: Vec<&str> = lints.iter().map(|l| l.code()).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, codes, "codes must be unique and in sorted order");
        for l in &lints {
            let code = l.code();
            assert_eq!(code.len(), 4, "{code}");
            assert!(code.starts_with('W'), "{code}");
            assert!(code[1..].chars().all(|c| c.is_ascii_digit()), "{code}");
            assert!(!l.name().is_empty() && !l.description().is_empty());
            assert!(!l.paper_anchor().is_empty());
        }
    }
}
