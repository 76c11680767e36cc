//! Lift an in-memory `(Network, TableRouting)` pair into an explicit
//! `wormspec/1` document.
//!
//! The inverse of the resolution seams for the explicit subset: node
//! declarations in id order, channel declarations in id order (so
//! `build_topology` reassigns the *same* dense ids), and one `path`
//! declaration per routed pair, sorted by `(src, dst)`. Round-tripping
//! `lift` through `build_topology`/`table_from_spec` therefore rebuilds
//! a network and table that analyze identically — which is how the
//! paper-figure lint-corpus constructions became committed `.wspec`
//! files (see `corpus/`).

use wormnet::Network;
use wormroute::TableRouting;
use wormspec::ast::{
    ChannelDecl, Decl, NodeDecl, Quantity, Routing, Spanned, Spec, Topology, TopologyKind, Unit,
};

fn dummy_str(s: &str) -> Spanned<String> {
    Spanned::dummy(s.to_string())
}

/// Express `net` + `table` as an explicit spec (`kind = explicit`,
/// `engine = table`).
pub fn lift(net: &Network, table: &TableRouting) -> Spec {
    let mut decls = Vec::with_capacity(net.node_count() + net.channel_count());
    for node in net.nodes() {
        decls.push(Decl::Node(NodeDecl {
            name: dummy_str(net.node_name(node)),
        }));
    }
    for channel in net.channels() {
        decls.push(Decl::Channel(ChannelDecl {
            src: dummy_str(net.node_name(channel.src())),
            dst: dummy_str(net.node_name(channel.dst())),
            lane: Spanned::dummy(u64::from(channel.vc())),
            cap: Spanned::dummy(Quantity::new(channel.capacity() as u64, Unit::Flits)),
            label: channel.label().map(dummy_str),
        }));
    }
    // The table iterates in `(src, dst)` order.
    let mut routing = Routing::new(dummy_str("table"));
    let mut hops = Vec::new();
    for ((src, dst), path) in table.iter() {
        hops.clear();
        hops.extend(path.channels().iter().map(|c| c.index() as u64));
        routing.push_path(
            Spanned::dummy(net.node_name(src)),
            Spanned::dummy(net.node_name(dst)),
            Spanned::dummy(&hops),
        );
    }
    Spec {
        topology: Topology {
            kind: Spanned::dummy(TopologyKind::Explicit),
            decls,
            ..Topology::default()
        },
        routing,
        traffic: None,
        faults: None,
        verify: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormnet::spec::build_topology;
    use wormroute::spec::table_from_spec;

    fn rebuild(spec: &Spec) -> (Network, TableRouting) {
        let topo = build_topology(&spec.topology).expect("lifted topology builds");
        let table = table_from_spec(&spec.routing, &topo).expect("lifted table resolves");
        let net = topo.network().clone();
        (net, table)
    }

    #[test]
    fn lifting_fig1_round_trips_through_the_seams() {
        let c = worm_core::paper::fig1::cyclic_dependency();
        let spec = lift(&c.net, &c.table);
        let printed = wormspec::to_spec(&spec);
        let reparsed = wormspec::parse(&printed).expect("lifted spec parses");
        assert_eq!(reparsed, spec, "parse(print(lift)) must be identity");

        let (net, table) = rebuild(&reparsed);
        assert_eq!(net.node_count(), c.net.node_count());
        assert_eq!(net.channel_count(), c.net.channel_count());
        for (a, b) in net.channels().zip(c.net.channels()) {
            assert_eq!(
                (a.src(), a.dst(), a.vc(), a.capacity()),
                (b.src(), b.dst(), b.vc(), b.capacity())
            );
            assert_eq!(a.label(), b.label());
        }
        assert_eq!(table.len(), c.table.len());
        for (pair, path) in c.table.iter() {
            assert_eq!(
                table.path(pair.0, pair.1).map(|p| p.channels()),
                Some(path.channels())
            );
        }
    }

    #[test]
    fn lifted_specs_analyze_identically() {
        let c = worm_core::paper::fig2::two_message_deadlock();
        let spec = lift(&c.net, &c.table);
        let (net, table) = rebuild(&spec);
        let registry = wormlint::Registry::with_default_lints();
        let config = wormlint::LintConfig::default();
        let direct = registry.run(&c.net, &c.table, &config);
        let lifted = registry.run(&net, &table, &config);
        assert_eq!(direct.verdict, lifted.verdict);
        assert_eq!(direct.diagnostics.len(), lifted.diagnostics.len());
    }
}
