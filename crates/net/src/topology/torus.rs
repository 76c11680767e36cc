//! k-ary n-dimensional torus with virtual channels.

use crate::{Network, NodeId};

use super::{coords_to_index, index_to_coords, stride};

/// An n-dimensional torus (mesh with wraparound links), with `vcs`
/// virtual-channel lanes per directed link.
///
/// Two lanes are what dateline routing needs to be deadlock-free; one
/// lane reproduces the classically deadlockable wrapped network.
#[derive(Clone, Debug)]
pub struct Torus {
    net: Network,
    dims: Vec<usize>,
    vcs: u8,
    /// Every node's coordinates, node after node.
    coords: Vec<u32>,
}

impl Torus {
    /// Build a torus with the given extents and VC lanes.
    ///
    /// Extents of 1 are rejected (a wrap link would be a self-loop)
    /// and extents of 2 would duplicate the mesh link, so each extent
    /// must be ≥ 3 — matching real k-ary n-cube machines.
    pub fn new(dims: &[usize], vcs: u8) -> Self {
        assert!(!dims.is_empty(), "torus needs at least one dimension");
        assert!(
            dims.iter().all(|&d| d >= 3),
            "torus extents must be >= 3 (got {dims:?})"
        );
        assert!(vcs >= 1, "need at least one virtual channel");
        let n: usize = dims.iter().product();

        let mut net = Network::new();
        let mut nodes = Vec::with_capacity(n);
        let mut table = Vec::with_capacity(n * dims.len());
        for idx in 0..n {
            let coords = index_to_coords(idx, dims);
            table.extend(coords.iter().map(|&c| c as u32));
            let name = format!(
                "t({})",
                coords
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            );
            nodes.push(net.add_node(name));
        }
        for idx in 0..n {
            let coords = index_to_coords(idx, dims);
            for (d, &extent) in dims.iter().enumerate() {
                let mut up = coords.clone();
                up[d] = (coords[d] + 1) % extent;
                let j = coords_to_index(&up, dims);
                for vc in 0..vcs {
                    net.add_channel_vc(nodes[idx], nodes[j], vc);
                    net.add_channel_vc(nodes[j], nodes[idx], vc);
                }
            }
        }
        Torus {
            net,
            dims: dims.to_vec(),
            vcs,
            coords: table,
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Consume the torus, returning the network.
    pub fn into_network(self) -> Network {
        self.net
    }

    /// Per-dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Virtual channels per directed link.
    pub fn vcs(&self) -> u8 {
        self.vcs
    }

    /// Node at the given coordinates.
    pub fn node(&self, coords: &[usize]) -> NodeId {
        NodeId::from_index(coords_to_index(coords, &self.dims))
    }

    /// Coordinates of a node.
    pub fn coords(&self, node: NodeId) -> Vec<usize> {
        let d = self.dims.len();
        self.coords[node.index() * d..(node.index() + 1) * d]
            .iter()
            .map(|&c| c as usize)
            .collect()
    }

    /// Coordinate `dim` of a node ([`Torus::coords`] without the
    /// allocation).
    pub fn coord(&self, node: NodeId, dim: usize) -> usize {
        self.coords[node.index() * self.dims.len() + dim] as usize
    }

    /// The hops a message takes from `node` around dimension `dim`'s
    /// ring, toward the higher coordinate when `up`, until its
    /// coordinate there is `goal`: each hop's next node, and whether
    /// the hop is the ring's wraparound link (the dateline).
    ///
    /// # Panics
    /// Panics when `goal` is off the torus.
    pub fn toward(
        &self,
        node: NodeId,
        dim: usize,
        goal: usize,
        up: bool,
    ) -> impl Iterator<Item = (NodeId, bool)> {
        let k = self.dims[dim];
        assert!(goal < k, "coordinate {goal} off the torus");
        let s = stride(&self.dims, dim);
        let c = self.coord(node, dim);
        let base = node.index() - c * s;
        let hops = if up {
            (goal + k - c) % k
        } else {
            (c + k - goal) % k
        };
        (0..hops).map(move |h| {
            let from = if up { (c + h) % k } else { (c + k - h) % k };
            let to = if up {
                (from + 1) % k
            } else {
                (from + k - 1) % k
            };
            let wraps = if up { from == k - 1 } else { from == 0 };
            (NodeId::from_index(base + to * s), wraps)
        })
    }

    /// Minimal hop distance on the torus (wraparound-aware Manhattan).
    pub fn ring_distance(&self, a: NodeId, b: NodeId) -> usize {
        self.coords(a)
            .iter()
            .zip(self.coords(b))
            .zip(&self.dims)
            .map(|((&x, y), &k)| {
                let d = x.abs_diff(y);
                d.min(k - d)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_and_toward_agree_with_coords() {
        let t = Torus::new(&[3, 4, 5], 1);
        for v in t.network().nodes() {
            let coords = t.coords(v);
            for (dim, &c) in coords.iter().enumerate() {
                assert_eq!(t.coord(v, dim), c);
                let k = t.dims()[dim];
                for (goal, up) in (0..k).flat_map(|g| [(g, false), (g, true)]) {
                    let mut at = coords.clone();
                    let mut expected = Vec::new();
                    while at[dim] != goal {
                        let from = at[dim];
                        at[dim] = if up {
                            (from + 1) % k
                        } else {
                            (from + k - 1) % k
                        };
                        let wraps = if up { from == k - 1 } else { from == 0 };
                        expected.push((t.node(&at), wraps));
                    }
                    let hops: Vec<(NodeId, bool)> = t.toward(v, dim, goal, up).collect();
                    assert_eq!(hops, expected, "{v} dim {dim} to {goal} up {up}");
                }
            }
        }
    }

    #[test]
    fn three_ring_torus() {
        let t = Torus::new(&[3], 1);
        assert_eq!(t.network().node_count(), 3);
        // 3 links, both directions, 1 vc = 6 channels.
        assert_eq!(t.network().channel_count(), 6);
        assert!(t.network().is_strongly_connected());
    }

    #[test]
    fn vc_lanes_multiply_channels() {
        let t1 = Torus::new(&[4, 4], 1);
        let t2 = Torus::new(&[4, 4], 2);
        assert_eq!(
            t2.network().channel_count(),
            2 * t1.network().channel_count()
        );
        assert_eq!(t2.vcs(), 2);
    }

    #[test]
    fn wraparound_distance() {
        let t = Torus::new(&[5], 1);
        let a = t.node(&[0]);
        let b = t.node(&[4]);
        assert_eq!(t.ring_distance(a, b), 1);
        assert_eq!(t.network().hop_distance(a, b), Some(1));
    }

    #[test]
    fn torus_2d_distances_match_bfs() {
        let t = Torus::new(&[4, 3], 1);
        for a in t.network().nodes().collect::<Vec<_>>() {
            for b in t.network().nodes().collect::<Vec<_>>() {
                assert_eq!(
                    t.network().hop_distance(a, b),
                    Some(t.ring_distance(a, b)),
                    "{a:?} -> {b:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = ">= 3")]
    fn small_extent_rejected() {
        Torus::new(&[2, 4], 1);
    }
}
