//! `W1xx`: routing-function properties (Definitions 7–9, minimality,
//! Corollary 1's `R : N × N → C` form).
//!
//! Every lint here projects the context's `properties`: the one
//! property pass over the table records each count next to its first
//! (or worst) witness, so each lint's finding is the spec itself and
//! rendering reads the witness.

use wormroute::properties::{Detour, Site};

use crate::diagnostic::{Diagnostic, Severity};
use crate::lint::{Finding, Lint};
use crate::lints::{pair_ref, spec_if, walk, walk_nodes};
use crate::LintContext;

/// `W101`: paths longer than the shortest path for their pair.
pub struct NonMinimalRoute;

impl Lint for NonMinimalRoute {
    fn code(&self) -> &'static str {
        "W101"
    }
    fn name(&self) -> &'static str {
        "non-minimal-route"
    }
    fn description(&self) -> &'static str {
        "a detour past the shortest path; deliberate in the paper's constructions (Theorem 3 rules out minimal variants) but a red flag in production specs"
    }
    fn paper_anchor(&self) -> &'static str {
        "Section 1 (minimal routing); Theorem 3"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>> {
        spec_if(ctx.properties.worst_detour.is_some())
    }
    fn render(&self, ctx: &LintContext<'_>, _: &Finding<'_>, severity: Severity) -> Diagnostic {
        let Detour {
            pair,
            len,
            distance: dist,
        } = ctx.properties.worst_detour.expect("W101 fires on a detour");
        let count = ctx.properties.nonminimal_pairs;
        Diagnostic::new(
            self.code(),
            self.name(),
            severity,
            format!(
                "{count} of {} routed pair(s) take non-minimal paths (worst: {} uses {len} channels, distance {dist})",
                ctx.table.len(),
                pair_ref(ctx.net, pair),
            ),
        )
        .entity("pair", pair_ref(ctx.net, pair))
        .fact("nonminimal_pairs", count)
        .fact("worst_pair", pair_ref(ctx.net, pair))
        .fact("worst_path", walk(ctx.net, ctx.table.path(pair.0, pair.1).expect("routed")))
        .fact("worst_path_len", len)
        .fact("worst_distance", dist)
    }
}

/// `W102`: Definition 8 violations — a path's suffix from an
/// intermediate node differs from (or is missing as) the registered
/// path for that node.
pub struct SuffixClosureViolation;

impl Lint for SuffixClosureViolation {
    fn code(&self) -> &'static str {
        "W102"
    }
    fn name(&self) -> &'static str {
        "suffix-closure-violation"
    }
    fn description(&self) -> &'static str {
        "without suffix-closure, Corollary 2's guarantee (no false resource cycles) is forfeited: a cyclic CDG no longer implies a reachable deadlock"
    }
    fn paper_anchor(&self) -> &'static str {
        "Definition 8; Corollary 2"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>> {
        spec_if(ctx.properties.first_suffix_violation.is_some())
    }
    fn render(&self, ctx: &LintContext<'_>, _: &Finding<'_>, severity: Severity) -> Diagnostic {
        let Site { pair, pos, node } = ctx
            .properties
            .first_suffix_violation
            .expect("W102 fires on a violation");
        let path = ctx
            .table
            .path(pair.0, pair.1)
            .expect("witness pairs are routed");
        let (pair_name, via) = (pair_ref(ctx.net, pair), ctx.net.node_name(node));
        Diagnostic::new(
            self.code(),
            self.name(),
            severity,
            format!(
                "routing is not suffix-closed: {} violation(s); e.g. the path for {pair_name} passes {via} but {via} is routed differently",
                ctx.properties.suffix_violations,
            ),
        )
        .entity("pair", &pair_name)
        .entity("node", via)
        .fact("pair", &pair_name)
        .fact("via", via)
        .fact("path", walk(ctx.net, path))
        .fact("expected_suffix", walk_nodes(ctx.net, &path.nodes(ctx.net)[pos..]))
        .fact("registered", registered(ctx, node, pair.1))
        .fact("violations", ctx.properties.suffix_violations)
    }
}

/// `W103`: Definition 7 violations — the registered path to an
/// intermediate node (first occurrence) is not the corresponding
/// prefix.
pub struct PrefixClosureViolation;

impl Lint for PrefixClosureViolation {
    fn code(&self) -> &'static str {
        "W103"
    }
    fn name(&self) -> &'static str {
        "prefix-closure-violation"
    }
    fn description(&self) -> &'static str {
        "one of the three legs of Definition 9 coherence; coherent algorithms get Corollary 3's exactness"
    }
    fn paper_anchor(&self) -> &'static str {
        "Definition 7; Corollary 3"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>> {
        spec_if(ctx.properties.first_prefix_violation.is_some())
    }
    fn render(&self, ctx: &LintContext<'_>, _: &Finding<'_>, severity: Severity) -> Diagnostic {
        let Site { pair, pos, node } = ctx
            .properties
            .first_prefix_violation
            .expect("W103 fires on a violation");
        let path = ctx
            .table
            .path(pair.0, pair.1)
            .expect("witness pairs are routed");
        let (pair_name, via) = (pair_ref(ctx.net, pair), ctx.net.node_name(node));
        Diagnostic::new(
            self.code(),
            self.name(),
            severity,
            format!(
                "routing is not prefix-closed: {} violation(s); e.g. the path for {pair_name} reaches {via} off the registered route",
                ctx.properties.prefix_violations,
            ),
        )
        .entity("pair", &pair_name)
        .entity("node", via)
        .fact("pair", &pair_name)
        .fact("via", via)
        .fact("path", walk(ctx.net, path))
        .fact("expected_prefix", walk_nodes(ctx.net, &path.nodes(ctx.net)[..=pos]))
        .fact("registered", registered(ctx, pair.0, node))
        .fact("violations", ctx.properties.prefix_violations)
    }
}

/// The registered path for `(src, dst)` as a node walk, or `unrouted`.
fn registered(ctx: &LintContext<'_>, src: wormnet::NodeId, dst: wormnet::NodeId) -> String {
    ctx.table
        .path(src, dst)
        .map(|p| walk(ctx.net, p))
        .unwrap_or_else(|| "unrouted".to_string())
}

/// `W104`: a routed path visits some node twice.
pub struct NodeRevisit;

impl Lint for NodeRevisit {
    fn code(&self) -> &'static str {
        "W104"
    }
    fn name(&self) -> &'static str {
        "node-revisit"
    }
    fn description(&self) -> &'static str {
        "a path through the same node twice breaks Definition 9 coherence and wastes channels"
    }
    fn paper_anchor(&self) -> &'static str {
        "Definition 9 (coherent routing never visits a node twice)"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>> {
        spec_if(ctx.properties.first_revisit.is_some())
    }
    fn render(&self, ctx: &LintContext<'_>, _: &Finding<'_>, severity: Severity) -> Diagnostic {
        let Site { pair, node, .. } = ctx
            .properties
            .first_revisit
            .expect("W104 fires on a revisit");
        let path = ctx
            .table
            .path(pair.0, pair.1)
            .expect("witness pairs are routed");
        let (pair_name, revisited) = (pair_ref(ctx.net, pair), ctx.net.node_name(node));
        Diagnostic::new(
            self.code(),
            self.name(),
            severity,
            format!(
                "{} routed path(s) revisit a node; e.g. {pair_name} passes {revisited} twice",
                ctx.properties.revisiting_paths,
            ),
        )
        .entity("pair", &pair_name)
        .entity("node", revisited)
        .fact("pair", &pair_name)
        .fact("path", walk(ctx.net, path))
        .fact("revisited_node", revisited)
        .fact("revisiting_paths", ctx.properties.revisiting_paths)
    }
}

/// `W105`: positive detection of Corollary 1's `R : N × N → C` class.
pub struct NodeFunctionForm;

impl Lint for NodeFunctionForm {
    fn code(&self) -> &'static str {
        "W105"
    }
    fn name(&self) -> &'static str {
        "node-function-form"
    }
    fn description(&self) -> &'static str {
        "the next channel depends only on (current node, destination): by Corollary 1 such an algorithm has no false resource cycles, so any CDG cycle here is a real deadlock"
    }
    fn paper_anchor(&self) -> &'static str {
        "Corollary 1"
    }
    fn default_severity(&self) -> Severity {
        Severity::Allow
    }
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>> {
        spec_if(ctx.properties.node_function)
    }
    fn render(&self, ctx: &LintContext<'_>, _: &Finding<'_>, severity: Severity) -> Diagnostic {
        let cyclic = !ctx.is_acyclic();
        Diagnostic::new(
            self.code(),
            self.name(),
            severity,
            if cyclic {
                "algorithm has the form R : N x N -> C and a cyclic CDG: by Corollary 1 a reachable deadlock exists".to_string()
            } else {
                "algorithm has the form R : N x N -> C (every cyclic dependency would be a real deadlock; this CDG is acyclic)".to_string()
            },
        )
        .fact("cdg_cyclic", cyclic)
        .fact("suffix_closed", ctx.properties.suffix_closed)
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::{LintConfig, Registry, StaticVerdict};
    use wormnet::topology::ring_unidirectional;
    use wormroute::algorithms::clockwise_ring;
    use wormroute::{Path, TableBuilder};

    #[test]
    fn clockwise_ring_gets_node_function_form_and_no_property_warnings() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let report = Registry::with_default_lints().run(&net, &table, &LintConfig::default());
        assert!(report.diagnostics.iter().any(|d| d.code == "W105"));
        for code in ["W101", "W102", "W103", "W104"] {
            assert!(
                !report.diagnostics.iter().any(|d| d.code == code),
                "{code} must not fire on the coherent ring"
            );
        }
        assert_eq!(report.verdict, StaticVerdict::Deadlockable);
    }

    #[test]
    fn suffix_and_prefix_witnesses_are_concrete() {
        use wormnet::topology::line;
        let (net, nodes) = line(4);
        let mut table = TableBuilder::new(&net);
        table
            .insert(
                nodes[0],
                nodes[3],
                Path::from_nodes(&net, &[nodes[0], nodes[1], nodes[2], nodes[3]]).unwrap(),
            )
            .unwrap();
        let table = table.finish().unwrap();
        let report = Registry::with_default_lints().run(&net, &table, &LintConfig::default());
        let w102 = report
            .diagnostics
            .iter()
            .find(|d| d.code == "W102")
            .expect("missing suffixes violate Definition 8");
        assert_eq!(w102.witness["registered"], "unrouted");
        assert_eq!(w102.witness["violations"], "2");
        assert!(w102.witness["expected_suffix"].contains("->"));
        let w103 = report
            .diagnostics
            .iter()
            .find(|d| d.code == "W103")
            .expect("missing prefixes violate Definition 7");
        assert_eq!(w103.witness["violations"], "2");
    }

    #[test]
    fn nonminimal_detour_measured() {
        use wormnet::topology::line;
        let (net, nodes) = line(4);
        let mut table = TableBuilder::new(&net);
        // (1,0) the long way round: 1-2-1-0 (3 channels, distance 1).
        table
            .insert(
                nodes[1],
                nodes[0],
                Path::from_nodes(&net, &[nodes[1], nodes[2], nodes[1], nodes[0]]).unwrap(),
            )
            .unwrap();
        let table = table.finish().unwrap();
        let report = Registry::with_default_lints().run(&net, &table, &LintConfig::default());
        let w101 = report
            .diagnostics
            .iter()
            .find(|d| d.code == "W101")
            .expect("detour");
        assert_eq!(w101.witness["worst_path_len"], "3");
        assert_eq!(w101.witness["worst_distance"], "1");
        let w104 = report
            .diagnostics
            .iter()
            .find(|d| d.code == "W104")
            .expect("revisit");
        assert_eq!(w104.witness["revisited_node"], "l1");
    }
}
