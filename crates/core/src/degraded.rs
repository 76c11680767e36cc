//! Classification of a routing algorithm on a *degraded* topology:
//! what survives of the paper's verdict when channels fail.
//!
//! The paper's analysis is static: Theorems 2–5 and the search
//! fallback all reason about the channel dependency graph induced by
//! the routing relation on the *healthy* network. A channel failure
//! changes that object in two ways at once:
//!
//! * **Routing loss** — every source/destination pair whose oblivious
//!   path crosses a down channel becomes unroutable. Oblivious routing
//!   has no recourse: there is exactly one path per pair, so the
//!   honest degraded model simply drops those pairs
//!   ([`wormroute::TableRouting::without_channels`]).
//! * **Dependency loss** — with those pairs gone, every CDG edge
//!   witnessed *only* by their paths disappears, and cycles may break.
//!   A deadlock-free-with-cycles algorithm can degrade into a
//!   trivially acyclic one; conversely a deadlockable ring loses its
//!   cycle the moment any ring channel dies (the deadlock needs the
//!   full ring).
//!
//! [`classify_degraded`] runs the complete pipeline — CDG rebuild,
//! Theorems 2–5, search fallback — on the degraded routing relation
//! and reports the verdict next to enough provenance (unroutable
//! pairs, healthy and degraded CDG edge counts) to see *why* the
//! verdict moved. `wormfault` uses this to answer the
//! re-verification question per fault plan: does the unreachable-cycle
//! argument survive this fault?

use wormcdg::Cdg;
use wormexist::{ExistOptions, ExistenceReport};
use wormnet::{ChannelId, Network};
use wormroute::TableRouting;

use crate::classify::{classify_cdg, AlgorithmVerdict, ClassifyOptions};

/// The outcome of re-running the classification pipeline on a
/// degraded topology.
#[derive(Clone, Debug)]
pub struct DegradedClassification {
    /// The channels taken down, sorted and deduplicated.
    pub down: Vec<ChannelId>,
    /// The degraded routing relation: the healthy table minus every
    /// pair routed through a down channel.
    pub table: TableRouting,
    /// Source/destination pairs that lost their (only) path.
    pub unroutable_pairs: usize,
    /// Edges of the healthy CDG.
    pub baseline_edges: usize,
    /// Edges of the CDG rebuilt from the degraded table.
    pub degraded_edges: usize,
    /// The pipeline's verdict on the degraded relation.
    pub verdict: AlgorithmVerdict,
    /// The existence engine's two-sided verdict for the *degraded
    /// fabric* itself ([`wormexist::analyze_masked`] over the same
    /// down set): even when this table's verdict breaks, does some
    /// deadlock-free routing still exist among the surviving pairs —
    /// or can none? Separates "the routing broke" from "the fabric
    /// became unroutable".
    pub existence: ExistenceReport,
}

impl DegradedClassification {
    /// Whether the degraded verdict certifies deadlock freedom
    /// (`None` = undecided within budgets).
    pub fn is_deadlock_free(&self) -> Option<bool> {
        self.verdict.is_deadlock_free()
    }
}

/// Re-classify `table` on `net` with the channels in `down` failed.
///
/// Pairs routed through a down channel are dropped (oblivious routing
/// offers no alternative path), the CDG is rebuilt from the surviving
/// pairs, and the full Theorems 2–5 + search pipeline re-runs on it.
/// An empty `down` reproduces [`classify_algorithm`] on the healthy
/// table exactly.
///
/// [`classify_algorithm`]: crate::classify::classify_algorithm
pub fn classify_degraded(
    net: &Network,
    table: &TableRouting,
    down: &[ChannelId],
    opts: &ClassifyOptions,
) -> DegradedClassification {
    classify_degraded_from(
        net,
        table,
        &Cdg::build(net, table),
        down,
        opts,
        &ExistOptions::default(),
    )
}

/// [`classify_degraded`] against the already built CDG of the healthy
/// `table`, deciding the degraded fabric's existence under `exist`.
/// The degraded CDG is built once and classified in place.
pub fn classify_degraded_from(
    net: &Network,
    table: &TableRouting,
    healthy: &Cdg,
    down: &[ChannelId],
    opts: &ClassifyOptions,
    exist: &ExistOptions,
) -> DegradedClassification {
    let _span = wormtrace::span("classify.degraded");
    let mut down: Vec<ChannelId> = down.to_vec();
    down.sort_unstable();
    down.dedup();

    let degraded_table = table.without_channels(&down);
    let unroutable_pairs = table.len() - degraded_table.len();
    wormtrace::counter("classify.degraded.runs", 1);
    wormtrace::counter(
        "classify.degraded.unroutable_pairs",
        unroutable_pairs as u64,
    );

    let (verdict, degraded_edges) = {
        let _span = wormtrace::span("classify.algorithm");
        let degraded = Cdg::build(net, &degraded_table);
        (
            classify_cdg(net, &degraded_table, &degraded, opts),
            degraded.edge_count(),
        )
    };
    let existence = wormexist::analyze_masked(net, &down, exist);
    DegradedClassification {
        down,
        table: degraded_table,
        unroutable_pairs,
        baseline_edges: healthy.edge_count(),
        degraded_edges,
        verdict,
        existence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormnet::topology::ring_unidirectional;
    use wormroute::algorithms::clockwise_ring;

    #[test]
    fn no_downs_reproduces_the_healthy_verdict() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let d = classify_degraded(&net, &table, &[], &ClassifyOptions::default());
        assert_eq!(d.unroutable_pairs, 0);
        assert_eq!(d.baseline_edges, d.degraded_edges);
        assert_eq!(d.is_deadlock_free(), Some(false), "healthy ring deadlocks");
    }

    #[test]
    fn killing_a_ring_channel_breaks_the_deadlock() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let c01 = net.find_channel(nodes[0], nodes[1]).unwrap();
        let d = classify_degraded(&net, &table, &[c01], &ClassifyOptions::default());
        assert!(d.unroutable_pairs > 0);
        assert!(d.degraded_edges < d.baseline_edges);
        // The ring cycle needed all four channels; the survivor CDG is
        // a path, hence acyclic, hence deadlock-free.
        assert_eq!(d.is_deadlock_free(), Some(true));
        assert!(matches!(
            d.verdict,
            AlgorithmVerdict::DeadlockFreeAcyclic { .. }
        ));
    }

    #[test]
    fn degraded_existence_tracks_the_fabric_not_the_table() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        // The healthy single-lane ring fabric admits *no* deadlock-free
        // routing at all — the table is not the problem.
        let healthy = classify_degraded(&net, &table, &[], &ClassifyOptions::default());
        assert_eq!(
            healthy.existence.verdict,
            wormexist::ExistenceVerdict::Impossible
        );
        // Amputating a ring channel leaves an acyclic path: everything
        // that still has a path routes deadlock-free.
        let c01 = net.find_channel(nodes[0], nodes[1]).unwrap();
        let d = classify_degraded(&net, &table, &[c01], &ClassifyOptions::default());
        assert_eq!(d.existence.verdict, wormexist::ExistenceVerdict::Exists);
        assert_eq!(d.existence.down, vec![c01]);
    }

    #[test]
    fn down_list_is_sorted_and_deduplicated() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let c01 = net.find_channel(nodes[0], nodes[1]).unwrap();
        let c12 = net.find_channel(nodes[1], nodes[2]).unwrap();
        let d = classify_degraded(&net, &table, &[c12, c01, c12], &ClassifyOptions::default());
        assert_eq!(d.down, vec![c01, c12]);
    }
}
