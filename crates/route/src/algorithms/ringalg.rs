//! Ring routing without virtual channels — the canonical
//! deadlock-prone oblivious algorithm.

use wormnet::{Network, NodeId};

use super::position_map;
use crate::error::RouteError;
use crate::table::TableRouting;

/// Clockwise routing on a unidirectional ring (no virtual channels):
/// every message follows the ring to its destination.
///
/// This algorithm is suffix-closed and coherent, and its channel
/// dependency graph is the full ring cycle. By the paper's
/// Corollary 2 the cycle cannot be unreachable, so the algorithm
/// *must* deadlock — the experiments confirm the search engine finds
/// the deadlock, validating the pipeline against a known-bad baseline.
pub fn clockwise_ring(net: &Network, nodes: &[NodeId]) -> Result<TableRouting, RouteError> {
    let n = nodes.len();
    let index_of = position_map(net, nodes);
    TableRouting::build(net, |path, s, d| {
        let mut i = index_of[s.index()]?;
        path.node(s);
        while nodes[i] != d {
            i = (i + 1) % n;
            path.node(nodes[i]);
        }
        Some(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;
    use wormnet::topology::ring_unidirectional;

    #[test]
    fn routes_clockwise() {
        let (net, nodes) = ring_unidirectional(5);
        let table = clockwise_ring(&net, &nodes).unwrap();
        assert_eq!(table.path(nodes[3], nodes[1]).unwrap().len(), 3);
        assert!(table.is_total(&net));
    }

    #[test]
    fn is_coherent_and_functional() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        assert!(properties::is_coherent(&net, &table));
        assert!(table.compile(&net).is_ok());
    }
}
