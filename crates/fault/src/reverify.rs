//! Degraded-topology re-verification: does the paper's verdict
//! survive a fault plan's permanent damage?
//!
//! The interesting verification question a fault raises is not "do
//! messages still arrive" (simulation answers that) but "is the
//! *deadlock argument* still valid". [`reverify`] answers it by
//! classifying the healthy algorithm, extracting the plan's permanent
//! channel losses, and re-running the complete Theorems 2–5 + search
//! pipeline on the degraded routing relation
//! ([`worm_core::classify_degraded`]); [`reverify_from`] starts from a
//! healthy verdict and CDG the caller already has. Transient outages
//! contribute nothing here — a channel that comes back up leaves the
//! static dependency structure untouched — so a purely transient plan
//! always reports the baseline verdict verbatim.
//!
//! Since the existence engine landed, the degraded classification also
//! carries `wormexist`'s two-sided verdict for the damaged fabric, so
//! a broken verdict splits further: did *this routing* break while a
//! deadlock-free alternative still exists ("replace the table"), or
//! can *no* deadlock-free routing exist on what remains ("replace the
//! hardware")? [`FaultRoutability`] names the cases.

use worm_core::classify::{classify_algorithm, AlgorithmVerdict, ClassifyOptions};
use worm_core::degraded::{classify_degraded_from, DegradedClassification};
use wormcdg::Cdg;
use wormexist::{ExistOptions, ExistenceVerdict};
use wormnet::Network;
use wormroute::TableRouting;

use crate::plan::FaultPlan;

/// Where a fault leaves the *fabric*, as opposed to the routing: the
/// existence half of the re-verification question.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultRoutability {
    /// The analysed routing's deadlock-freedom survived the damage —
    /// no rerouting decision is forced.
    RoutingSurvives,
    /// The analysed routing's argument broke (or was never free), but
    /// the existence engine certifies that a deadlock-free routing of
    /// the surviving pairs exists: the damage is reroutable in
    /// principle.
    ReroutableDamage,
    /// No deadlock-free (acyclic-CDG) routing of the surviving pairs
    /// can exist: the degraded fabric itself is unroutable, and no
    /// table swap recovers it.
    FabricUnroutable,
    /// The existence engine exhausted its budgets undecided.
    Unknown,
}

impl FaultRoutability {
    /// Stable lowercase name (the `wormserve/1` JSON value).
    pub fn name(self) -> &'static str {
        match self {
            FaultRoutability::RoutingSurvives => "routing-survives",
            FaultRoutability::ReroutableDamage => "reroutable-damage",
            FaultRoutability::FabricUnroutable => "fabric-unroutable",
            FaultRoutability::Unknown => "unknown",
        }
    }
}

/// Baseline and degraded verdicts for one fault plan, plus whether
/// the deadlock-freedom conclusion survived.
#[derive(Clone, Debug)]
pub struct ReverifyReport {
    /// The healthy-topology verdict.
    pub baseline: AlgorithmVerdict,
    /// The full degraded classification (verdict, unroutable pairs,
    /// CDG edge deltas, and the degraded fabric's existence verdict).
    pub degraded: DegradedClassification,
    /// Whether the deadlock-freedom answer is unchanged:
    /// `baseline.is_deadlock_free() == degraded.is_deadlock_free()`.
    /// Note the *verdict* may still move within an answer (e.g.
    /// deadlock-free-with-cycles degrading to trivially acyclic);
    /// compare the variants directly when that distinction matters.
    pub verdict_survives: bool,
    /// The fabric-level reading of the damage: survived, reroutable,
    /// unroutable, or unknown. See [`FaultRoutability`].
    pub routability: FaultRoutability,
}

/// Classify `table` on `net` healthy and under `plan`'s permanent
/// channel losses, reporting whether the deadlock verdict survives.
pub fn reverify(
    net: &Network,
    table: &TableRouting,
    plan: &FaultPlan,
    opts: &ClassifyOptions,
) -> ReverifyReport {
    reverify_from(
        net,
        table,
        &Cdg::build(net, table),
        classify_algorithm(net, table, opts),
        plan,
        opts,
        &ExistOptions::default(),
    )
}

/// [`reverify`] from an already classified healthy fabric: `healthy`
/// is the CDG of `table` and `baseline` its verdict under `opts`. The
/// degraded fabric's existence is decided under `exist`.
pub fn reverify_from(
    net: &Network,
    table: &TableRouting,
    healthy: &Cdg,
    baseline: AlgorithmVerdict,
    plan: &FaultPlan,
    opts: &ClassifyOptions,
    exist: &ExistOptions,
) -> ReverifyReport {
    let _span = wormtrace::span("fault.reverify");
    wormtrace::counter("fault.reverify_runs", 1);
    let degraded = classify_degraded_from(net, table, healthy, &plan.permanent_down(), opts, exist);
    let verdict_survives = baseline.is_deadlock_free() == degraded.is_deadlock_free();
    let routability = if degraded.is_deadlock_free() == Some(true) {
        FaultRoutability::RoutingSurvives
    } else {
        match degraded.existence.verdict {
            ExistenceVerdict::Exists => FaultRoutability::ReroutableDamage,
            ExistenceVerdict::Impossible => FaultRoutability::FabricUnroutable,
            ExistenceVerdict::Unknown => FaultRoutability::Unknown,
        }
    };
    ReverifyReport {
        baseline,
        degraded,
        verdict_survives,
        routability,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormnet::topology::ring_unidirectional;
    use wormroute::algorithms::clockwise_ring;

    #[test]
    fn transient_plans_change_nothing() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let c01 = net.find_channel(nodes[0], nodes[1]).unwrap();
        let plan = FaultPlan::new().channel_outage(c01, 3, 9);
        let r = reverify(&net, &table, &plan, &ClassifyOptions::default());
        assert!(r.verdict_survives);
        assert_eq!(r.degraded.unroutable_pairs, 0);
    }

    #[test]
    fn permanent_ring_damage_flips_the_verdict() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let c01 = net.find_channel(nodes[0], nodes[1]).unwrap();
        let plan = FaultPlan::new().channel_down(c01, 5);
        let r = reverify(&net, &table, &plan, &ClassifyOptions::default());
        // Healthy clockwise ring deadlocks; amputating a ring channel
        // breaks the only cycle.
        assert_eq!(r.baseline.is_deadlock_free(), Some(false));
        assert_eq!(r.degraded.is_deadlock_free(), Some(true));
        assert!(!r.verdict_survives);
        // The surviving routing is itself free, so nothing is forced.
        assert_eq!(r.routability, FaultRoutability::RoutingSurvives);
    }

    #[test]
    fn unbroken_single_lane_ring_is_fabric_unroutable() {
        // A transient-only plan leaves the ring intact: the table
        // still deadlocks, and so would every other table — the
        // existence engine pins the blame on the fabric.
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let c01 = net.find_channel(nodes[0], nodes[1]).unwrap();
        let plan = FaultPlan::new().channel_outage(c01, 3, 9);
        let r = reverify(&net, &table, &plan, &ClassifyOptions::default());
        assert_eq!(r.degraded.is_deadlock_free(), Some(false));
        assert_eq!(r.routability, FaultRoutability::FabricUnroutable);
    }

    #[test]
    fn deadlockable_lane_on_a_two_lane_ring_is_reroutable_damage() {
        // Route every pair clockwise on lane 0 of a two-lane ring and
        // break nothing: the routing deadlocks, but the fabric has a
        // deadlock-free alternative — damage (here: none) is
        // reroutable, not fatal.
        let mut net = Network::new();
        let nodes = net.add_nodes("r", 4);
        let mut lane0 = Vec::new();
        for i in 0..4 {
            let j = (i + 1) % 4;
            lane0.push(net.add_channel_vc(nodes[i], nodes[j], 0));
            net.add_channel_vc(nodes[i], nodes[j], 1);
        }
        let mut table = wormroute::TableBuilder::new(&net);
        for (s, &src) in nodes.iter().enumerate() {
            for hops in 1..4 {
                let dst = nodes[(s + hops) % 4];
                let chans: Vec<_> = (0..hops).map(|h| lane0[(s + h) % 4]).collect();
                let path = wormroute::Path::from_channels(&net, chans).unwrap();
                table.insert(src, dst, path).unwrap();
            }
        }
        let table = table.finish().unwrap();
        let r = reverify(&net, &table, &FaultPlan::new(), &ClassifyOptions::default());
        assert_eq!(r.degraded.is_deadlock_free(), Some(false));
        assert_eq!(r.routability, FaultRoutability::ReroutableDamage);
        assert_eq!(
            r.degraded.existence.verdict,
            wormexist::ExistenceVerdict::Exists
        );
    }
}
