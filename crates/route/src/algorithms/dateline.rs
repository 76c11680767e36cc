//! Dateline routing on rings and tori with two virtual channels
//! (Dally & Seitz's classic construction).
//!
//! All traffic in a ring travels in one direction; a message starts on
//! the high VC lane (1) and switches to the low lane (0) when it
//! crosses the *dateline* — the wraparound link. The switch breaks the
//! single dependency cycle of the ring, yielding an acyclic channel
//! dependency graph (asserted in `wormcdg`'s tests).

use wormnet::topology::Torus;
use wormnet::{Network, NodeId};

use super::position_map;
use crate::error::RouteError;
use crate::table::TableRouting;

/// Dateline routing on a unidirectional ring built by
/// [`wormnet::topology::ring_with_vcs`] with at least two lanes.
/// `nodes` must be the ring-ordered node list that builder returned.
pub fn dateline_ring(net: &Network, nodes: &[NodeId]) -> Result<TableRouting, RouteError> {
    let n = nodes.len();
    let index_of = position_map(net, nodes);
    TableRouting::build(net, |path, s, d| {
        let (mut i, di) = (index_of[s.index()]?, index_of[d.index()]?);
        let mut crossed = false;
        while i != di {
            let j = (i + 1) % n;
            // The wraparound (dateline) hop is n-1 -> 0.
            if i == n - 1 {
                crossed = true;
            }
            path.lane(nodes[i], nodes[j], if crossed { 0 } else { 1 });
            i = j;
        }
        Some(())
    })
}

/// Dateline + dimension-order routing on a torus with two VC lanes.
///
/// Dimensions are corrected in increasing order; within a dimension
/// the message takes the minimal ring direction (ties toward +). Each
/// dimension/direction has its own dateline at the wrap link.
pub fn dateline_torus(torus: &Torus) -> Result<TableRouting, RouteError> {
    assert!(torus.vcs() >= 2, "dateline routing needs two VC lanes");
    TableRouting::build(torus.network(), |path, s, d| {
        let mut cur = s;
        for (dim, &k) in torus.dims().iter().enumerate() {
            let (c, goal) = (torus.coord(cur, dim), torus.coord(d, dim));
            let forward = (goal + k - c) % k; // hops in + direction
            let go_positive = forward <= k - forward; // ties toward +
                                                      // Dateline: the wrap hop in either direction.
            let mut crossed = false;
            for (next, wraps) in torus.toward(cur, dim, goal, go_positive) {
                crossed |= wraps;
                path.lane(cur, next, if crossed { 0 } else { 1 });
                cur = next;
            }
        }
        Some(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;
    use wormnet::topology::ring_with_vcs;

    #[test]
    fn ring_messages_switch_lane_at_dateline() {
        let (net, nodes) = ring_with_vcs(5, 2);
        let table = dateline_ring(&net, &nodes).unwrap();
        // 3 -> 1 crosses the wrap link 4 -> 0.
        let p = table.path(nodes[3], nodes[1]).unwrap();
        let lanes: Vec<u8> = p.channels().iter().map(|&c| net.channel(c).vc()).collect();
        assert_eq!(lanes, vec![1, 0, 0]);
        // 0 -> 4 never crosses: all lane 1.
        let p = table.path(nodes[0], nodes[4]).unwrap();
        assert!(p.channels().iter().all(|&c| net.channel(c).vc() == 1));
    }

    #[test]
    fn ring_table_is_total_and_functional() {
        let (net, nodes) = ring_with_vcs(6, 2);
        let table = dateline_ring(&net, &nodes).unwrap();
        assert!(table.is_total(&net));
        assert!(table.compile(&net).is_ok());
    }

    #[test]
    fn ring_is_not_suffix_closed() {
        // A message that has crossed the dateline continues on lane 0,
        // but a message *starting* past the dateline uses lane 1 — the
        // lane depends on the input channel, so dateline routing is a
        // genuine R : C x N -> C algorithm that is NOT suffix-closed
        // (and hence not coherent). This is exactly the class the
        // paper's Corollary 2 does not cover.
        let (net, nodes) = ring_with_vcs(5, 2);
        let table = dateline_ring(&net, &nodes).unwrap();
        assert!(!properties::is_suffix_closed(&net, &table));
        assert!(!properties::is_coherent(&net, &table));
        // But every path is node-simple and prefix behaviour is moot;
        // the function form still compiles.
        assert!(properties::never_revisits_nodes(&net, &table));
    }

    #[test]
    fn torus_routes_minimally() {
        let t = Torus::new(&[4, 4], 2);
        let table = dateline_torus(&t).unwrap();
        assert!(table.is_total(t.network()));
        for ((s, d), p) in table.iter() {
            assert_eq!(p.len(), t.ring_distance(s, d), "{s} -> {d}");
        }
    }

    #[test]
    fn torus_wrap_hop_switches_lane() {
        let t = Torus::new(&[4, 3], 2);
        let table = dateline_torus(&t).unwrap();
        // (3,0) -> (0,0): single + hop across the wrap: lane 0.
        let p = table.path(t.node(&[3, 0]), t.node(&[0, 0])).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(t.network().channel(p.channels()[0]).vc(), 0);
        // (1,0) -> (2,0): interior hop: lane 1.
        let p = table.path(t.node(&[1, 0]), t.node(&[2, 0])).unwrap();
        assert_eq!(t.network().channel(p.channels()[0]).vc(), 1);
    }

    #[test]
    fn torus_is_functional() {
        let t = Torus::new(&[3, 3], 2);
        let table = dateline_torus(&t).unwrap();
        assert!(table.compile(t.network()).is_ok());
    }

    #[test]
    #[should_panic(expected = "two VC lanes")]
    fn torus_needs_two_lanes() {
        let t = Torus::new(&[3, 3], 1);
        let _ = dateline_torus(&t);
    }
}
