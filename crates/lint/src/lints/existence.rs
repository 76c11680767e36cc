//! `W301`–`W304`: the existence axis.
//!
//! Every other lint judges the routing *under analysis*; these judge
//! the *network*: does any deadlock-free (acyclic-CDG) routing exist
//! at all? The verdict comes from `wormexist`'s two-sided engine and
//! is orthogonal to the W1xx/W2xx findings — a table can be
//! deadlockable on a perfectly routable fabric (`W303`), and a fabric
//! can be unroutable no matter what table anyone writes (`W302`).
//! None of these lints moves the overall `StaticVerdict`, which keeps
//! describing the given routing.

use wormexist::{ExistenceVerdict, ObstructionKind};

use crate::diagnostic::{Diagnostic, Severity};
use crate::lint::{Finding, Lint};
use crate::lints::spec_if;
use crate::registry::{verdict, StaticVerdict};
use crate::LintContext;

/// Most obstruction channels listed as entities before truncating.
const MAX_WITNESS_CHANNELS: usize = 8;

/// `W301`: a constructive existence witness.
pub struct ExistenceWitness;

impl Lint for ExistenceWitness {
    fn code(&self) -> &'static str {
        "W301"
    }
    fn name(&self) -> &'static str {
        "existence-witness"
    }
    fn description(&self) -> &'static str {
        "a deadlock-free routing exists for this network: the engine ships a one-pass channel schedule from which an acyclic-CDG routing table can be materialised and re-certified"
    }
    fn paper_anchor(&self) -> &'static str {
        "Mendlovic-Matias existence condition (PAPERS.md); Theorem 1 (Dally-Seitz)"
    }
    fn default_severity(&self) -> Severity {
        Severity::Allow
    }
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>> {
        let report = &ctx.existence;
        spec_if(report.verdict == ExistenceVerdict::Exists && report.witness.is_some())
    }
    fn render(&self, ctx: &LintContext<'_>, _: &Finding<'_>, severity: Severity) -> Diagnostic {
        let report = &ctx.existence;
        let witness = report.witness.as_ref().expect("W301 fires on a witness");
        Diagnostic::new(
            self.code(),
            self.name(),
            severity,
            format!(
                "a deadlock-free routing exists: a {}-channel schedule covers all {} reachable pair(s) ({} certificate)",
                witness.order.len(),
                report.demands,
                report.kind_name(),
            ),
        )
        .fact("demands", report.demands)
        .fact("kind", report.kind_name())
        .fact("sccs", report.sccs)
        .fact("witness_channels", witness.order.len())
    }
}

/// `W302`: an obstruction witness — no routing can exist.
pub struct ExistenceObstruction;

impl Lint for ExistenceObstruction {
    fn code(&self) -> &'static str {
        "W302"
    }
    fn name(&self) -> &'static str {
        "existence-obstruction"
    }
    fn description(&self) -> &'static str {
        "no deadlock-free (acyclic-CDG) routing can exist for this network: a violating sub-network blocks every possible table, not just the one under analysis"
    }
    fn paper_anchor(&self) -> &'static str {
        "Mendlovic-Matias existence condition (PAPERS.md)"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>> {
        spec_if(ctx.existence.obstruction.is_some())
    }
    fn render(&self, ctx: &LintContext<'_>, _: &Finding<'_>, severity: Severity) -> Diagnostic {
        let obs = ctx
            .existence
            .obstruction
            .as_ref()
            .expect("W302 fires on an obstruction");
        let why = match &obs.kind {
            ObstructionKind::Deficiency { required } => format!(
                "its {}-node strongly connected component has only {} internal channel(s); one-way gossip needs {required}",
                obs.nodes.len(),
                obs.channels.len(),
            ),
            ObstructionKind::PrecedenceCycle { cycle } => format!(
                "{} forced scheduling precedences between bottleneck channels form a cycle",
                cycle.len(),
            ),
            ObstructionKind::Exhausted { states } => format!(
                "exhaustive schedule search ({states} game states) refuted its {}-node component",
                obs.nodes.len(),
            ),
        };
        let mut d = Diagnostic::new(
            self.code(),
            self.name(),
            severity,
            format!("no deadlock-free routing can exist: {why}"),
        )
        .fact("kind", obs.kind.name())
        .fact("obstruction_nodes", obs.nodes.len())
        .fact("obstruction_channels", obs.channels.len());
        if let ObstructionKind::Deficiency { required } = &obs.kind {
            d = d.fact("required_channels", required);
        }
        let listed = match &obs.kind {
            ObstructionKind::PrecedenceCycle { cycle } => cycle,
            _ => &obs.channels,
        };
        for &c in listed.iter().take(MAX_WITNESS_CHANNELS) {
            d = d.entity("channel", ctx.net.channel(c));
        }
        d
    }
}

/// `W303`: this routing is deadlockable, but the fabric is not.
pub struct DeadlockableButRoutable;

impl Lint for DeadlockableButRoutable {
    fn code(&self) -> &'static str {
        "W303"
    }
    fn name(&self) -> &'static str {
        "deadlockable-but-routable"
    }
    fn description(&self) -> &'static str {
        "the routing under analysis is statically deadlockable, yet a deadlock-free routing exists for the same network — the table is at fault, not the fabric"
    }
    fn paper_anchor(&self) -> &'static str {
        "Mendlovic-Matias existence condition (PAPERS.md); Section 5 theorems"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>> {
        spec_if(
            ctx.existence.verdict == ExistenceVerdict::Exists
                && verdict(ctx) == StaticVerdict::Deadlockable,
        )
    }
    fn render(&self, ctx: &LintContext<'_>, _: &Finding<'_>, severity: Severity) -> Diagnostic {
        Diagnostic::new(
            self.code(),
            self.name(),
            severity,
            format!(
                "the table is at fault, not the fabric: this routing is statically deadlockable, but a {}-certificate schedule routes all {} reachable pair(s) deadlock-free",
                ctx.existence.kind_name(),
                ctx.existence.demands,
            ),
        )
        .fact("demands", ctx.existence.demands)
        .fact("kind", ctx.existence.kind_name())
    }
}

/// `W304`: the existence engine ran out of certificate budget.
pub struct ExistenceUndecided;

impl Lint for ExistenceUndecided {
    fn code(&self) -> &'static str {
        "W304"
    }
    fn name(&self) -> &'static str {
        "existence-undecided"
    }
    fn description(&self) -> &'static str {
        "the existence engine found no certificate from either side within budget: existence of a deadlock-free routing for this network is open"
    }
    fn paper_anchor(&self) -> &'static str {
        "Mendlovic-Matias existence condition (PAPERS.md)"
    }
    fn default_severity(&self) -> Severity {
        Severity::Allow
    }
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>> {
        spec_if(ctx.existence.verdict == ExistenceVerdict::Unknown)
    }
    fn render(&self, ctx: &LintContext<'_>, _: &Finding<'_>, severity: Severity) -> Diagnostic {
        let report = &ctx.existence;
        Diagnostic::new(
            self.code(),
            self.name(),
            severity,
            format!(
                "existence undecided: {} component(s) over {} SCC(s) exhausted the certificate budgets with no witness and no obstruction",
                report.components, report.sccs,
            ),
        )
        .fact("components", report.components)
        .fact("demands", report.demands)
        .fact("sccs", report.sccs)
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::{LintConfig, Registry, StaticVerdict};
    use wormnet::topology::{ring_unidirectional, Mesh};
    use wormroute::algorithms::{clockwise_ring, dimension_order};

    fn codes(net: &wormnet::Network, table: &wormroute::TableRouting) -> Vec<&'static str> {
        Registry::with_default_lints()
            .run(net, table, &LintConfig::default())
            .diagnostics
            .iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn free_mesh_earns_the_witness_and_nothing_else() {
        let mesh = Mesh::new(&[3, 3]);
        let table = dimension_order(&mesh).unwrap();
        let c = codes(mesh.network(), &table);
        assert!(c.contains(&"W301"), "{c:?}");
        assert!(
            !c.contains(&"W302") && !c.contains(&"W303") && !c.contains(&"W304"),
            "{c:?}"
        );
    }

    #[test]
    fn single_lane_ring_is_obstructed_and_never_w303() {
        // The clockwise ring is deadlockable, but so is every other
        // routing on this fabric: W302, not W303, and the verdict
        // still describes the table.
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let report = Registry::with_default_lints().run(&net, &table, &LintConfig::default());
        assert_eq!(report.verdict, StaticVerdict::Deadlockable);
        let c: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(c.contains(&"W302"), "{c:?}");
        assert!(!c.contains(&"W301") && !c.contains(&"W303"), "{c:?}");
    }

    #[test]
    fn deadlockable_table_on_a_routable_fabric_is_w303() {
        // Two VC lanes make the ring fabric routable, but routing
        // everything on lane 0 stays deadlockable: the table is at
        // fault, and W303 says so.
        let mut net = wormnet::Network::new();
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
        let report = Registry::with_default_lints().run(&net, &table, &LintConfig::default());
        assert_eq!(report.verdict, StaticVerdict::Deadlockable);
        let c: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(c.contains(&"W301") && c.contains(&"W303"), "{c:?}");
        assert!(!c.contains(&"W302"), "{c:?}");
    }
}
