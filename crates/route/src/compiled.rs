//! The routing *function* form `R : C × N → C` (Definition 2),
//! compiled from a [`TableRouting`].

use std::collections::BTreeMap;

use wormnet::{ChannelId, Network, NodeId};

use crate::error::FunctionConflict;
use crate::table::TableRouting;

/// One routing decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingStep {
    /// Forward the header onto this channel.
    Forward(ChannelId),
    /// The message has reached its destination and is consumed.
    Consume,
}

/// An oblivious routing function: output channel as a function of the
/// input channel and the destination only.
///
/// The paper's central results (Theorem 2's corollaries in particular)
/// distinguish `R : C × N → C` from `R : N × N → C`; compiling a path
/// table into this form both provides the simulator's router decision
/// procedure and *verifies* the algorithm really belongs to the
/// `C × N → C` class: compilation fails with [`FunctionConflict`] if
/// any (input channel, destination) pair would need two different
/// outputs.
#[derive(Clone, Debug, Default)]
pub struct CompiledRouting {
    /// Injection decisions: (source node, destination) → first channel.
    inject: BTreeMap<(NodeId, NodeId), ChannelId>,
    /// Forwarding decisions: (input channel, destination) → output.
    forward: BTreeMap<(ChannelId, NodeId), ChannelId>,
}

impl CompiledRouting {
    /// Compile a path table.
    pub fn from_table(net: &Network, table: &TableRouting) -> Result<Self, FunctionConflict> {
        let mut inject: BTreeMap<(NodeId, NodeId), ChannelId> = BTreeMap::new();
        let mut forward: BTreeMap<(ChannelId, NodeId), ChannelId> = BTreeMap::new();

        for ((src, dst), path) in table.iter() {
            let chans = path.channels();
            // Injection step. A table has one path per pair so a
            // conflict here is impossible, but we keep the check for
            // defence in depth.
            if let Some(&prev) = inject.get(&(src, dst)) {
                if prev != chans[0] {
                    return Err(FunctionConflict {
                        input: None,
                        dst,
                        outputs: (prev, chans[0]),
                    });
                }
            } else {
                inject.insert((src, dst), chans[0]);
            }
            // Forwarding steps.
            for w in chans.windows(2) {
                match forward.get(&(w[0], dst)) {
                    Some(&prev) if prev != w[1] => {
                        return Err(FunctionConflict {
                            input: Some(w[0]),
                            dst,
                            outputs: (prev, w[1]),
                        });
                    }
                    Some(_) => {}
                    None => {
                        forward.insert((w[0], dst), w[1]);
                    }
                }
            }
            let _ = net; // endpoints already validated at insert time
        }
        Ok(CompiledRouting { inject, forward })
    }

    /// Routing decision at injection: the first channel a message from
    /// `src` to `dst` uses, if the pair is routed.
    pub fn inject(&self, src: NodeId, dst: NodeId) -> Option<ChannelId> {
        self.inject.get(&(src, dst)).copied()
    }

    /// Routing decision in flight: where a header that arrived over
    /// `input` heading for `dst` goes next.
    ///
    /// Returns `None` if the function is undefined for the pair — for
    /// a well-formed oblivious algorithm that only happens when the
    /// header has arrived (`input.dst() == dst`), i.e. [`RoutingStep::Consume`].
    pub fn next(&self, net: &Network, input: ChannelId, dst: NodeId) -> RoutingStep {
        if net.channel(input).dst() == dst {
            return RoutingStep::Consume;
        }
        match self.forward.get(&(input, dst)) {
            Some(&c) => RoutingStep::Forward(c),
            None => panic!(
                "routing function undefined for input {input} toward {dst}; \
                 the table did not cover a reachable state"
            ),
        }
    }

    /// Non-panicking variant of [`CompiledRouting::next`].
    pub fn try_next(&self, net: &Network, input: ChannelId, dst: NodeId) -> Option<RoutingStep> {
        if net.channel(input).dst() == dst {
            return Some(RoutingStep::Consume);
        }
        self.forward
            .get(&(input, dst))
            .copied()
            .map(RoutingStep::Forward)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::Path;
    use crate::table::TableBuilder;
    use wormnet::topology::ring_unidirectional;
    use wormnet::Network;

    #[test]
    fn ring_table_compiles_and_routes() {
        let (net, nodes) = ring_unidirectional(4);
        let table = TableRouting::build(&net, |path, s, d| {
            let n = 4;
            let si = s.index();
            path.node(s);
            let mut i = si;
            while nodes[i] != d {
                i = (i + 1) % n;
                path.node(nodes[i]);
            }
            Some(())
        })
        .unwrap();
        let compiled = table.compile(&net).unwrap();

        let c01 = net.find_channel(nodes[0], nodes[1]).unwrap();
        let c12 = net.find_channel(nodes[1], nodes[2]).unwrap();
        assert_eq!(compiled.inject(nodes[0], nodes[2]), Some(c01));
        assert_eq!(
            compiled.next(&net, c01, nodes[2]),
            RoutingStep::Forward(c12)
        );
        assert_eq!(compiled.next(&net, c12, nodes[2]), RoutingStep::Consume);
    }

    #[test]
    fn conflicting_paths_fail_compilation() {
        // Diamond: 0 -> {1,2} -> 3, and 3 -> 0 to close connectivity.
        // Route (0,3) via 1 and (x,3)... we need a conflict on the SAME
        // input channel: use a path through channel (0,1) that then
        // diverges for the same destination.
        let mut net = Network::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        let c = net.add_node("c");
        let d = net.add_node("d");
        net.add_channel(a, b);
        net.add_channel(b, c);
        net.add_channel(b, d);
        net.add_channel(c, d);
        net.add_channel(d, a);

        // (a,d): a->b->c->d ; (a,... ) hmm need same input channel a->b
        // toward d twice with different continuations, so use a second
        // source routing through a->b: impossible (only a injects on
        // a->b). Instead create the conflict via two *sources* sharing
        // channel b->? : route (a,d) = a->b->d and (b,d)... same dest
        // from b uses b->c->d. Conflict is at injection vs forward —
        // not a conflict. Real conflict: (a,d) = a->b->c->d and (b,d)
        // would have to match suffix. Build conflict with a second
        // path over channel (b,c): (b,d) = b->c->d vs (a,d) continuing
        // c->? identically — conflict requires disagreement, so give
        // (a,d) the path a->b->d and (x= a, d2=c): a->b->c. No conflict
        // either. The genuine conflict needs two pairs with the SAME
        // dst whose paths share an input channel but diverge after it;
        // with unique sources that needs a shared intermediate channel:
        // add e -> b so (e,d) can also traverse b.
        let e = net.add_node("e");
        net.add_channel(e, b);
        net.add_channel(a, c); // unused filler for connectivity realism
                               // A third source f with f->a, for the conflict below.
        let f = net.add_node("f");
        net.add_channel(f, a);

        let paths = [
            (a, d, Path::from_nodes(&net, &[a, b, c, d]).unwrap()),
            (e, d, Path::from_nodes(&net, &[e, b, d]).unwrap()),
            (f, d, Path::from_nodes(&net, &[f, a, b, d]).unwrap()),
        ];
        let table = |count: usize| {
            let mut builder = TableBuilder::new(&net);
            for (s, t, p) in paths.iter().take(count) {
                builder.insert(*s, *t, p.clone()).unwrap();
            }
            builder.finish().unwrap()
        };
        // (a,d) says: after arriving at b over a->b, go b->c.
        // (e,d) says: after arriving at b over e->b, go b->d.
        // Different *input* channels, so still consistent:
        assert!(table(2).compile(&net).is_ok());

        // Now force a true conflict: two destinations is fine, we need
        // same (input, dst). Route (f,d) = f->a->b->d: input a->b toward
        // d now maps to both b->c and b->d.
        let table = table(3);
        let err = table.compile(&net).unwrap_err();
        let ab = net.find_channel(a, b).unwrap();
        match err {
            crate::error::RouteError::NotAFunction(c) => {
                assert_eq!(c.input, Some(ab));
                assert_eq!(c.dst, d);
            }
            other => panic!("expected NotAFunction, got {other:?}"),
        }
    }

    #[test]
    fn try_next_returns_none_when_undefined() {
        let (net, nodes) = ring_unidirectional(3);
        let table = TableRouting::new();
        let compiled = table.compile(&net).unwrap();
        let c01 = net.find_channel(nodes[0], nodes[1]).unwrap();
        assert_eq!(compiled.try_next(&net, c01, nodes[2]), None);
        // Arrived: consume regardless of table contents.
        assert_eq!(
            compiled.try_next(&net, c01, nodes[1]),
            Some(RoutingStep::Consume)
        );
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn next_panics_when_undefined() {
        let (net, nodes) = ring_unidirectional(3);
        let compiled = TableRouting::new().compile(&net).unwrap();
        let c01 = net.find_channel(nodes[0], nodes[1]).unwrap();
        compiled.next(&net, c01, nodes[2]);
    }
}
