//! `W0xx`: structural integrity of the network and table.

use std::collections::BTreeSet;

use wormroute::properties::DeadTail;

use crate::diagnostic::{Diagnostic, Severity};
use crate::lint::{Finding, Lint};
use crate::lints::{pair_ref, walk};
use crate::LintContext;

/// `W001`: a channel whose endpoints coincide.
pub struct SelfLoopChannel;

impl Lint for SelfLoopChannel {
    fn code(&self) -> &'static str {
        "W001"
    }
    fn name(&self) -> &'static str {
        "self-loop-channel"
    }
    fn description(&self) -> &'static str {
        "a channel from a node to itself can never appear on a path and poisons CDG construction"
    }
    fn paper_anchor(&self) -> &'static str {
        "Section 2 model (channels connect neighbouring nodes)"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>> {
        ctx.net
            .channels()
            .filter(|c| c.src() == c.dst())
            .map(|c| Finding::Channel(c.id()))
            .collect()
    }
    fn render(
        &self,
        ctx: &LintContext<'_>,
        finding: &Finding<'_>,
        severity: Severity,
    ) -> Diagnostic {
        let &Finding::Channel(id) = finding else {
            unreachable!("W001 selects channels")
        };
        let c = ctx.net.channel(id);
        Diagnostic::new(
            self.code(),
            self.name(),
            severity,
            format!("channel {c} is a self-loop"),
        )
        .entity("channel", c)
        .entity("node", ctx.net.node_name(c.src()))
    }
}

/// `W002`: two channels with identical (src, dst, vc).
pub struct DuplicateChannel;

impl Lint for DuplicateChannel {
    fn code(&self) -> &'static str {
        "W002"
    }
    fn name(&self) -> &'static str {
        "duplicate-channel"
    }
    fn description(&self) -> &'static str {
        "two channels with the same endpoints and virtual-channel index are indistinguishable to an oblivious router"
    }
    fn paper_anchor(&self) -> &'static str {
        "Section 2 model (virtual channels are distinct resources)"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>> {
        let mut seen = BTreeSet::new();
        ctx.net
            .channels()
            .filter(|c| !seen.insert((c.src(), c.dst(), c.vc())))
            .map(|c| Finding::Channel(c.id()))
            .collect()
    }
    fn render(
        &self,
        ctx: &LintContext<'_>,
        finding: &Finding<'_>,
        severity: Severity,
    ) -> Diagnostic {
        let &Finding::Channel(id) = finding else {
            unreachable!("W002 selects channels")
        };
        let c = ctx.net.channel(id);
        Diagnostic::new(
            self.code(),
            self.name(),
            severity,
            format!("channel {c} duplicates an earlier channel on the same link and lane"),
        )
        .entity("channel", c)
    }
}

/// `W003`: the network is not strongly connected, or the table leaves
/// ordered pairs unrouted.
pub struct UnroutablePairs;

impl Lint for UnroutablePairs {
    fn code(&self) -> &'static str {
        "W003"
    }
    fn name(&self) -> &'static str {
        "unroutable-pair"
    }
    fn description(&self) -> &'static str {
        "a total oblivious algorithm must route every ordered pair; disconnection makes that impossible"
    }
    fn paper_anchor(&self) -> &'static str {
        "Definition 3 (routing algorithm totality); Section 2 (strongly connected interconnection)"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    /// `Spec` = the network is not strongly connected; `Measure(n)` =
    /// the table leaves `n` ordered pairs unrouted.
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>> {
        let mut out = Vec::new();
        if !ctx.net.is_strongly_connected() {
            out.push(Finding::Spec);
        }
        if ctx.properties.unrouted_pairs > 0 {
            out.push(Finding::Measure(ctx.properties.unrouted_pairs));
        }
        out
    }
    fn render(
        &self,
        ctx: &LintContext<'_>,
        finding: &Finding<'_>,
        severity: Severity,
    ) -> Diagnostic {
        match *finding {
            Finding::Spec => {
                let nodes: Vec<_> = ctx.net.nodes().collect();
                let dist = ctx.net.all_pairs_distances();
                let witness = nodes
                    .iter()
                    .flat_map(|&u| nodes.iter().map(move |&v| (u, v)))
                    .find(|&(u, v)| u != v && dist[u.index()][v.index()].is_none());
                let mut d = Diagnostic::new(
                    self.code(),
                    self.name(),
                    severity,
                    "network is not strongly connected".to_string(),
                );
                if let Some(pair) = witness {
                    d = d
                        .entity("pair", pair_ref(ctx.net, pair))
                        .fact("unreachable_pair", pair_ref(ctx.net, pair));
                }
                d
            }
            Finding::Measure(unrouted) => {
                let mut d = Diagnostic::new(
                    self.code(),
                    self.name(),
                    severity,
                    format!("routing table is not total: {unrouted} unrouted pair(s)"),
                )
                .fact("unrouted_pairs", unrouted);
                for &pair in &ctx.properties.first_unrouted {
                    d = d.entity("pair", pair_ref(ctx.net, pair));
                }
                d
            }
            _ => unreachable!("W003 selects the spec and its unrouted-pair count"),
        }
    }
}

/// `W004`: a channel no routed path uses.
pub struct DeadChannel;

impl Lint for DeadChannel {
    fn code(&self) -> &'static str {
        "W004"
    }
    fn name(&self) -> &'static str {
        "dead-channel"
    }
    fn description(&self) -> &'static str {
        "a channel outside every routed path is dead hardware: it cannot carry traffic and never appears in the CDG"
    }
    fn paper_anchor(&self) -> &'static str {
        "Definition 4 (the CDG contains exactly the channels the algorithm uses)"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>> {
        // Past this many dead channels, collapse into one summary
        // finding: a deliberately partial table (e.g. switch-only
        // fat-tree routing) would otherwise drown the report.
        const PER_CHANNEL_LIMIT: usize = 16;
        let mut used = vec![false; ctx.net.channel_count()];
        for (_, path) in ctx.table.iter() {
            for c in path.channels() {
                used[c.index()] = true;
            }
        }
        let dead: Vec<_> = ctx
            .net
            .channels()
            .map(|c| c.id())
            .filter(|c| !used[c.index()])
            .collect();
        if dead.len() <= PER_CHANNEL_LIMIT {
            dead.into_iter().map(Finding::Channel).collect()
        } else {
            vec![Finding::Channels(dead)]
        }
    }
    fn render(
        &self,
        ctx: &LintContext<'_>,
        finding: &Finding<'_>,
        severity: Severity,
    ) -> Diagnostic {
        match finding {
            &Finding::Channel(id) => {
                let c = ctx.net.channel(id);
                Diagnostic::new(
                    self.code(),
                    self.name(),
                    severity,
                    format!("channel {c} is used by no routed path"),
                )
                .entity("channel", c)
            }
            Finding::Channels(dead) => {
                let mut d = Diagnostic::new(
                    self.code(),
                    self.name(),
                    severity,
                    format!(
                        "{} of {} channels are used by no routed path",
                        dead.len(),
                        ctx.net.channel_count(),
                    ),
                )
                .fact("dead_channels", dead.len());
                for (i, &id) in dead.iter().take(3).enumerate() {
                    let c = ctx.net.channel(id);
                    d = d.entity("channel", c).fact(format!("example_{i}"), c);
                }
                d
            }
            _ => unreachable!("W004 selects dead channels"),
        }
    }
}

/// `W005`: a table entry whose path passes through its own destination
/// before ending — everything after the first arrival is a dead tail.
pub struct DeadPathTail;

impl Lint for DeadPathTail {
    fn code(&self) -> &'static str {
        "W005"
    }
    fn name(&self) -> &'static str {
        "dead-table-entry"
    }
    fn description(&self) -> &'static str {
        "a path that reaches its destination and keeps going carries dead channels: the worm would already have been consumed, yet the spec manufactures phantom CDG dependencies from the tail"
    }
    fn paper_anchor(&self) -> &'static str {
        "Section 2 model (messages are consumed at their destination)"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>> {
        ctx.properties
            .dead_tails
            .iter()
            .map(Finding::DeadTail)
            .collect()
    }
    fn render(
        &self,
        ctx: &LintContext<'_>,
        finding: &Finding<'_>,
        severity: Severity,
    ) -> Diagnostic {
        let &Finding::DeadTail(&DeadTail {
            pair,
            first_arrival: first,
        }) = finding
        else {
            unreachable!("W005 selects dead tails")
        };
        let path = ctx
            .table
            .path(pair.0, pair.1)
            .expect("dead tails are routed");
        let dead = path.len() - first;
        Diagnostic::new(
            self.code(),
            self.name(),
            severity,
            format!(
                "path for {} passes through its destination at hop {first} and continues for {dead} dead channel(s)",
                pair_ref(ctx.net, pair),
            ),
        )
        .entity("pair", pair_ref(ctx.net, pair))
        .fact("path", walk(ctx.net, path))
        .fact("first_arrival_hop", first)
        .fact("dead_channels", dead)
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::{LintConfig, Registry};
    use wormnet::topology::line;
    use wormnet::Network;
    use wormroute::{Path, TableBuilder, TableRouting};

    fn run(net: &Network, table: &TableRouting) -> Vec<crate::Diagnostic> {
        Registry::with_default_lints()
            .run(net, table, &LintConfig::default())
            .diagnostics
    }

    #[test]
    fn duplicate_detected_and_no_self_loop_possible() {
        // `Network::add_channel_full` rejects self-loops outright, so
        // W001 is defence in depth for future construction paths; W002
        // is reachable today.
        let mut net = Network::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.add_channel(a, b);
        net.add_channel(b, a);
        net.add_channel(a, b); // duplicate of the first channel
        let table = TableRouting::new();
        let diags = run(&net, &table);
        assert!(!diags.iter().any(|d| d.code == "W001"));
        let w2 = diags.iter().find(|d| d.code == "W002").expect("W002");
        assert_eq!(w2.severity, crate::Severity::Deny);
    }

    #[test]
    fn missing_pairs_summarized() {
        let (net, nodes) = line(3);
        let mut table = TableBuilder::new(&net);
        table
            .insert(
                nodes[0],
                nodes[1],
                Path::from_nodes(&net, &[nodes[0], nodes[1]]).unwrap(),
            )
            .unwrap();
        let table = table.finish().unwrap();
        let diags = run(&net, &table);
        let w3 = diags.iter().find(|d| d.code == "W003").expect("W003");
        assert_eq!(w3.witness["unrouted_pairs"], "5");
        assert!(!w3.entities.is_empty());
    }

    #[test]
    fn dead_channel_detected() {
        let (net, nodes) = line(3);
        // Route only 0->1; every other channel is dead.
        let mut table = TableBuilder::new(&net);
        table
            .insert(
                nodes[0],
                nodes[1],
                Path::from_nodes(&net, &[nodes[0], nodes[1]]).unwrap(),
            )
            .unwrap();
        let table = table.finish().unwrap();
        let dead = run(&net, &table)
            .iter()
            .filter(|d| d.code == "W004")
            .count();
        assert_eq!(dead, 3, "three of the line's four channels are unused");
    }

    #[test]
    fn dead_tail_detected() {
        let (net, nodes) = line(3);
        let mut table = TableBuilder::new(&net);
        // 0 -> 1 -> 2 -> 1: arrives at node 1 (hop 1), then wanders on.
        table
            .insert(
                nodes[0],
                nodes[1],
                Path::from_nodes(&net, &[nodes[0], nodes[1], nodes[2], nodes[1]]).unwrap(),
            )
            .unwrap();
        let table = table.finish().unwrap();
        let diags = run(&net, &table);
        let w5 = diags.iter().find(|d| d.code == "W005").expect("W005");
        assert_eq!(w5.witness["first_arrival_hop"], "1");
        assert_eq!(w5.witness["dead_channels"], "2");
    }
}
