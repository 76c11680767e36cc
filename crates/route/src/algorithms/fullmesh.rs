//! Routing engines for dense full meshes (one channel each way
//! between every node pair, built by [`wormnet::topology::complete`]).
//!
//! * [`fullmesh_direct`] — every pair takes its direct channel; the
//!   channel dependency graph has no edges at all.
//! * [`fullmesh_vcfree`] — a VC-free scheme in the spirit of Cano et
//!   al. (HOTI 2025, see PAPERS.md): most pairs go direct, but a
//!   deterministic subset detours through an intermediate node whose
//!   index is *below both endpoints*. Every two-hop path therefore
//!   descends then ascends in node index, so the dependency graph only
//!   ever points from descending channels to ascending ones and can
//!   close no cycle — deadlock freedom with zero virtual channels,
//!   which is the certificate wormlint's W209 recognises.
//! * [`fullmesh_ring_detour`] — a deliberately deadlockable negative
//!   control: pairs two steps apart (mod n) detour through the node
//!   between them, threading a single n-cycle of dependencies through
//!   the mesh's "+1" channels.

use wormnet::{Network, NodeId};

use super::position_map;
use crate::error::RouteError;
use crate::table::TableRouting;

/// Direct routing: every ordered pair uses its one-hop channel.
pub fn fullmesh_direct(net: &Network) -> Result<TableRouting, RouteError> {
    TableRouting::build(net, |path, s, d| {
        path.walk(&[s, d]);
        Some(())
    })
}

/// VC-free full-mesh routing with index-descending detours.
///
/// A pair `(s, d)` goes direct when `s + d` is even or when either
/// endpoint is node 0; otherwise it detours through
/// `m = (7s + 13d) mod min(s, d)`, which is strictly below both
/// endpoints. The detour set is arbitrary (it stands in for whatever
/// traffic engineering motivates non-direct routes); the deadlock
/// argument only needs `m < min(s, d)`.
pub fn fullmesh_vcfree(net: &Network, nodes: &[NodeId]) -> Result<TableRouting, RouteError> {
    let index_of = position_map(net, nodes);
    TableRouting::build(net, |path, s, d| {
        let (si, di) = (index_of[s.index()]?, index_of[d.index()]?);
        let low = si.min(di);
        if (si + di) % 2 == 0 || low == 0 {
            path.walk(&[s, d]);
        } else {
            path.walk(&[s, nodes[(7 * si + 13 * di) % low], d]);
        }
        Some(())
    })
}

/// Deadlockable full-mesh routing: `(s, d)` with `d = s + 2 (mod n)`
/// detours through `s + 1 (mod n)`; every other pair goes direct.
///
/// The detours chain the mesh's `i -> i+1` channels into one cyclic
/// dependency ring. The engine is a node function
/// (`R : N x N -> C`), so by the paper's Corollary 1 that cycle is a
/// *reachable* deadlock, not a false positive.
pub fn fullmesh_ring_detour(net: &Network, nodes: &[NodeId]) -> Result<TableRouting, RouteError> {
    let n = nodes.len();
    let index_of = position_map(net, nodes);
    TableRouting::build(net, |path, s, d| {
        let (si, di) = (index_of[s.index()]?, index_of[d.index()]?);
        if di == (si + 2) % n {
            path.walk(&[s, nodes[(si + 1) % n], d]);
        } else {
            path.walk(&[s, d]);
        }
        Some(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;
    use wormnet::topology::complete;

    #[test]
    fn direct_routing_is_total_minimal_and_coherent() {
        let (net, _) = complete(6);
        let table = fullmesh_direct(&net).unwrap();
        let r = properties::analyze(&net, &table);
        assert!(r.total && r.minimal && r.coherent && r.node_function);
        assert!(table.compile(&net).is_ok());
    }

    #[test]
    fn vcfree_detours_descend_then_ascend() {
        let (net, nodes) = complete(9);
        let table = fullmesh_vcfree(&net, &nodes).unwrap();
        assert!(table.is_total(&net));
        assert!(table.compile(&net).is_ok());
        let mut detours = 0;
        for ((s, d), p) in table.iter() {
            let idx: Vec<usize> = p.nodes(&net).iter().map(|n| n.index()).collect();
            match idx.as_slice() {
                [_, _] => {}
                [a, m, b] => {
                    detours += 1;
                    assert!(m < a && m < b, "{s} -> {d}: {idx:?}");
                }
                other => panic!("unexpected path {other:?}"),
            }
        }
        assert!(detours > 0, "the odd-sum pairs really detour");
    }

    #[test]
    fn vcfree_detour_rule_matches_the_spec() {
        let (net, nodes) = complete(8);
        let table = fullmesh_vcfree(&net, &nodes).unwrap();
        // 3 -> 4: odd sum, min 3 => via (21 + 52) % 3 = 1.
        let p = table.path(nodes[3], nodes[4]).unwrap();
        assert_eq!(p.nodes(&net), vec![nodes[3], nodes[1], nodes[4]]);
        // 2 -> 4: even sum => direct.
        assert_eq!(table.path(nodes[2], nodes[4]).unwrap().len(), 1);
        // 0 -> 5: odd sum but endpoint 0 => direct.
        assert_eq!(table.path(nodes[0], nodes[5]).unwrap().len(), 1);
    }

    #[test]
    fn ring_detour_is_a_node_function() {
        let (net, nodes) = complete(7);
        let table = fullmesh_ring_detour(&net, &nodes).unwrap();
        assert!(table.is_total(&net));
        assert!(properties::is_node_function(&net, &table));
        // 2 -> 4 detours through 3; 2 -> 5 goes direct.
        let p = table.path(nodes[2], nodes[4]).unwrap();
        assert_eq!(p.nodes(&net), vec![nodes[2], nodes[3], nodes[4]]);
        assert_eq!(table.path(nodes[2], nodes[5]).unwrap().len(), 1);
    }
}
