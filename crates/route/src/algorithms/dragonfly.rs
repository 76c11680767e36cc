//! Minimal and Valiant routing on dragonfly networks with the
//! VC-ordered lane discipline of InfiniBand-controller engines
//! (Maglione-Mathey et al., see PAPERS.md).
//!
//! Minimal dragonfly routing is local–global–local: at most one hop
//! inside the source group to the gateway router, the global link
//! itself, and at most one hop inside the destination group. Deadlock
//! freedom comes entirely from lane ordering — each successive hop
//! class uses a strictly higher VC lane (local 0, global 1, local 2),
//! so the channel dependency graph is layered by lane and can close no
//! cycle. This is the certificate wormlint's W208 recognises. Valiant
//! routing detours through a deterministic intermediate group with
//! five hop classes on lanes 0..5.
//!
//! Both engines read the lane lists off the [`Dragonfly`] builder, so
//! running them on a single-lane fabric
//! (`Dragonfly::with_lanes(g, a, &[0], &[0])`) yields the classic
//! deadlockable configuration used as a negative control in the lint
//! corpus.

use wormnet::topology::Dragonfly;
use wormnet::NodeId;

use crate::error::RouteError;
use crate::table::TableRouting;

/// Every router's group and every group pair's gateway, computed once
/// per table so that no pair pays the builder's index arithmetic.
struct Groups {
    groups: usize,
    of: Vec<usize>,
    gateways: Vec<NodeId>,
}

impl Groups {
    fn new(df: &Dragonfly) -> Self {
        let g = df.groups();
        Groups {
            groups: g,
            of: df.network().nodes().map(|v| df.coords(v).0).collect(),
            gateways: (0..g * g)
                .map(|i| {
                    let (from, to) = (i / g, i % g);
                    if from == to {
                        NodeId::from_index(0)
                    } else {
                        df.gateway(from, to)
                    }
                })
                .collect(),
        }
    }

    /// The router's group.
    fn of(&self, v: NodeId) -> usize {
        self.of[v.index()]
    }

    /// The router of group `from` hosting the global link to `to`.
    fn gateway(&self, from: usize, to: usize) -> NodeId {
        debug_assert_ne!(from, to);
        self.gateways[from * self.groups + to]
    }
}

/// The `i`-th lane of `lanes`, clamped to the last entry — single-lane
/// fabrics reuse lane 0 for every hop class (and lose the deadlock
/// freedom that comes with the ordering).
fn lane(lanes: &[u8], i: usize) -> u8 {
    lanes[i.min(lanes.len() - 1)]
}

/// Minimal (local–global–local) dragonfly routing.
///
/// Intra-group pairs take the direct local channel on the first local
/// lane. Inter-group pairs climb to the source group's gateway for the
/// destination group, cross the global link, and take one local hop to
/// the destination, with hop classes on `local_lanes[0]`,
/// `global_lanes[0]`, `local_lanes[1]`.
///
/// With `routers_per_group >= groups - 1` every gateway inside a group
/// is distinct, the direct group-to-group link is the unique shortest
/// route, and the table is minimal in the hop-distance sense too.
pub fn dragonfly_minimal(df: &Dragonfly) -> Result<TableRouting, RouteError> {
    let groups = Groups::new(df);
    TableRouting::build(df.network(), |path, s, d| {
        let (gs, gd) = (groups.of(s), groups.of(d));
        if gs == gd {
            path.lane(s, d, lane(df.local_lanes(), 0));
        } else {
            let out = groups.gateway(gs, gd);
            let inn = groups.gateway(gd, gs);
            if s != out {
                path.lane(s, out, lane(df.local_lanes(), 0));
            }
            path.lane(out, inn, lane(df.global_lanes(), 0));
            if inn != d {
                path.lane(inn, d, lane(df.local_lanes(), 1));
            }
        }
        Some(())
    })
}

/// Valiant (local–global–local–global–local) dragonfly routing.
///
/// Inter-group pairs detour through a deterministic intermediate group
/// `(gs + gd) % groups` (skipping the endpoints), with the five hop
/// classes on lanes `local[0], global[0], local[1], global[1],
/// local[2]`. Intra-group pairs take the direct local channel.
///
/// # Panics
/// Panics when the dragonfly has fewer than three groups — there is no
/// group to detour through.
pub fn dragonfly_valiant(df: &Dragonfly) -> Result<TableRouting, RouteError> {
    assert!(
        df.groups() >= 3,
        "valiant routing needs a third group to detour through"
    );
    let groups = Groups::new(df);
    TableRouting::build(df.network(), |path, s, d| {
        let (gs, gd) = (groups.of(s), groups.of(d));
        if gs == gd {
            path.lane(s, d, lane(df.local_lanes(), 0));
            return Some(());
        }
        let mut gm = (gs + gd) % df.groups();
        while gm == gs || gm == gd {
            gm = (gm + 1) % df.groups();
        }
        let walk = [
            s,
            groups.gateway(gs, gm),
            groups.gateway(gm, gs),
            groups.gateway(gm, gd),
            groups.gateway(gd, gm),
            d,
        ];
        let lanes = [
            lane(df.local_lanes(), 0),
            lane(df.global_lanes(), 0),
            lane(df.local_lanes(), 1),
            lane(df.global_lanes(), 1),
            lane(df.local_lanes(), 2),
        ];
        for (i, w) in walk.windows(2).enumerate() {
            if w[0] != w[1] {
                path.lane(w[0], w[1], lanes[i]);
            }
        }
        Some(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;
    use wormnet::Network;

    /// The VC lanes of a routed path, in hop order.
    fn lanes_of(net: &Network, p: crate::PathRef<'_>) -> Vec<u8> {
        p.channels().iter().map(|&c| net.channel(c).vc()).collect()
    }

    #[test]
    fn minimal_is_total_functional_and_minimal() {
        let df = Dragonfly::new(5, 4);
        let table = dragonfly_minimal(&df).unwrap();
        assert!(table.is_total(df.network()));
        assert!(table.compile(df.network()).is_ok());
        // routers_per_group (4) >= groups - 1 (4): gateways distinct,
        // the direct route is the unique shortest one.
        assert!(properties::is_minimal(df.network(), &table));
    }

    #[test]
    fn minimal_lanes_strictly_increase() {
        let df = Dragonfly::new(5, 4);
        let net = df.network();
        let table = dragonfly_minimal(&df).unwrap();
        for (_, p) in table.iter() {
            let lanes = lanes_of(net, p);
            assert!(lanes.windows(2).all(|w| w[0] < w[1]), "{lanes:?}");
        }
    }

    #[test]
    fn minimal_path_shapes() {
        let df = Dragonfly::new(4, 3);
        let table = dragonfly_minimal(&df).unwrap();
        // Intra-group: one local hop.
        let p = table.path(df.node(1, 0), df.node(1, 2)).unwrap();
        assert_eq!(lanes_of(df.network(), p), vec![0]);
        // Inter-group from/to non-gateway routers: three hops 0,1,2.
        let (s, d) = (df.node(0, 2), df.node(2, 2));
        assert_ne!(df.gateway(0, 2), s);
        assert_ne!(df.gateway(2, 0), d);
        let p = table.path(s, d).unwrap();
        assert_eq!(lanes_of(df.network(), p), vec![0, 1, 2]);
        // Gateway-to-gateway: the bare global hop.
        let p = table.path(df.gateway(0, 1), df.gateway(1, 0)).unwrap();
        assert_eq!(lanes_of(df.network(), p), vec![1]);
    }

    #[test]
    fn valiant_detours_with_increasing_lanes() {
        let df = Dragonfly::new_valiant(4, 3);
        let net = df.network();
        let table = dragonfly_valiant(&df).unwrap();
        assert!(table.is_total(net));
        assert!(table.compile(net).is_ok());
        let mut saw_five_hops = false;
        for ((s, d), p) in table.iter() {
            let lanes = lanes_of(net, p);
            assert!(lanes.windows(2).all(|w| w[0] < w[1]), "{s} -> {d}");
            saw_five_hops |= lanes == vec![0, 1, 2, 3, 4];
            // Inter-group paths cross exactly two global links.
            let (gs, _) = df.coords(s);
            let (gd, _) = df.coords(d);
            if gs != gd {
                assert_eq!(lanes.iter().filter(|l| *l % 2 == 1).count(), 2);
            }
        }
        assert!(saw_five_hops, "some pair exercises all five hop classes");
    }

    #[test]
    fn valiant_avoids_endpoint_groups() {
        let df = Dragonfly::new_valiant(5, 4);
        let table = dragonfly_valiant(&df).unwrap();
        let (s, d) = (df.node(1, 0), df.node(3, 1));
        let p = table.path(s, d).unwrap();
        let groups: Vec<usize> = p
            .nodes(df.network())
            .iter()
            .map(|&n| df.coords(n).0)
            .collect();
        let via: Vec<usize> = groups[1..groups.len() - 1]
            .iter()
            .copied()
            .filter(|&g| g != 1 && g != 3)
            .collect();
        assert!(!via.is_empty(), "a detour group appears on the path");
    }

    #[test]
    fn single_lane_fabric_routes_everything_on_lane_zero() {
        let df = Dragonfly::with_lanes(3, 2, &[0], &[0]);
        let net = df.network();
        let table = dragonfly_minimal(&df).unwrap();
        assert!(table.is_total(net));
        for (_, p) in table.iter() {
            assert!(lanes_of(net, p).iter().all(|&l| l == 0));
        }
    }

    #[test]
    #[should_panic(expected = "third group")]
    fn valiant_needs_three_groups() {
        let df = Dragonfly::new_valiant(2, 2);
        let _ = dragonfly_valiant(&df);
    }
}
