//! k-ary n-dimensional mesh.

use crate::{Network, NodeId};

use super::{coords_to_index, index_to_coords, stride};

/// An n-dimensional mesh with per-dimension extents and bidirectional
/// links between coordinate neighbours.
///
/// Node names encode coordinates, e.g. `m(2,1)`. Dimension 0 varies
/// fastest in node-index order, so `Mesh::node` and `Mesh::coords` are
/// cheap arithmetic.
#[derive(Clone, Debug)]
pub struct Mesh {
    net: Network,
    dims: Vec<usize>,
    vcs: u8,
    /// Every node's coordinates, node after node.
    coords: Vec<u32>,
}

impl Mesh {
    /// Build a mesh with the given extents (every extent ≥ 1, at least
    /// two nodes overall so the network is a legal Definition-1 graph).
    pub fn new(dims: &[usize]) -> Self {
        Mesh::with_vcs(dims, 1)
    }

    /// Build a mesh with `vcs` virtual-channel lanes per directed link
    /// (adaptive algorithms with escape channels need two).
    pub fn with_vcs(dims: &[usize], vcs: u8) -> Self {
        assert!(!dims.is_empty(), "mesh needs at least one dimension");
        assert!(dims.iter().all(|&d| d >= 1), "extents must be positive");
        assert!(vcs >= 1, "need at least one virtual channel");
        let n: usize = dims.iter().product();
        assert!(n >= 2, "mesh needs at least two nodes");

        let mut net = Network::new();
        let mut nodes = Vec::with_capacity(n);
        let mut table = Vec::with_capacity(n * dims.len());
        for idx in 0..n {
            let coords = index_to_coords(idx, dims);
            table.extend(coords.iter().map(|&c| c as u32));
            let name = format!(
                "m({})",
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
                if coords[d] + 1 < extent {
                    let mut up = coords.clone();
                    up[d] += 1;
                    let j = coords_to_index(&up, dims);
                    for vc in 0..vcs {
                        net.add_channel_vc(nodes[idx], nodes[j], vc);
                        net.add_channel_vc(nodes[j], nodes[idx], vc);
                    }
                }
            }
        }
        Mesh {
            net,
            dims: dims.to_vec(),
            vcs,
            coords: table,
        }
    }

    /// Virtual-channel lanes per directed link.
    pub fn vcs(&self) -> u8 {
        self.vcs
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Consume the mesh, returning the network.
    pub fn into_network(self) -> Network {
        self.net
    }

    /// Per-dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
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

    /// Coordinate `dim` of a node ([`Mesh::coords`] without the
    /// allocation).
    pub fn coord(&self, node: NodeId, dim: usize) -> usize {
        self.coords[node.index() * self.dims.len() + dim] as usize
    }

    /// The nodes a message passes moving from `node` along dimension
    /// `dim` until its coordinate there is `goal`, one hop at a time
    /// (the last one is at `goal`; none when it already is).
    ///
    /// # Panics
    /// Panics when `goal` is off the mesh.
    pub fn toward(&self, node: NodeId, dim: usize, goal: usize) -> impl Iterator<Item = NodeId> {
        assert!(goal < self.dims[dim], "coordinate {goal} off the mesh");
        let s = stride(&self.dims, dim);
        let (i, c) = (node.index(), self.coord(node, dim));
        (1..=c.abs_diff(goal))
            .map(move |k| NodeId::from_index(if goal > c { i + k * s } else { i - k * s }))
    }

    /// Manhattan distance between two nodes — the minimal hop count in
    /// a mesh, used to check routing minimality.
    pub fn manhattan(&self, a: NodeId, b: NodeId) -> usize {
        self.coords(a)
            .iter()
            .zip(self.coords(b))
            .map(|(&x, y)| x.abs_diff(y))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_and_toward_agree_with_coords() {
        let mesh = Mesh::new(&[3, 4, 2]);
        for v in mesh.network().nodes() {
            let coords = mesh.coords(v);
            for (dim, &c) in coords.iter().enumerate() {
                assert_eq!(mesh.coord(v, dim), c);
                for goal in 0..mesh.dims()[dim] {
                    let line: Vec<NodeId> = mesh.toward(v, dim, goal).collect();
                    let expected: Vec<NodeId> = if goal >= c {
                        (c + 1..=goal).collect::<Vec<_>>()
                    } else {
                        (goal..c).rev().collect()
                    }
                    .into_iter()
                    .map(|x| {
                        let mut at = coords.clone();
                        at[dim] = x;
                        mesh.node(&at)
                    })
                    .collect();
                    assert_eq!(line, expected);
                }
            }
        }
    }

    #[test]
    fn two_by_two() {
        let mesh = Mesh::new(&[2, 2]);
        let net = mesh.network();
        assert_eq!(net.node_count(), 4);
        // 4 undirected links -> 8 channels.
        assert_eq!(net.channel_count(), 8);
        assert!(net.is_strongly_connected());
    }

    #[test]
    fn coords_roundtrip_and_names() {
        let mesh = Mesh::new(&[3, 2]);
        let n = mesh.node(&[2, 1]);
        assert_eq!(mesh.coords(n), vec![2, 1]);
        assert_eq!(mesh.network().node_name(n), "m(2,1)");
    }

    #[test]
    fn channel_counts_formula() {
        // 4x3 mesh: horizontal links 3*3=9, vertical links 4*2=8 -> 34 channels.
        let mesh = Mesh::new(&[4, 3]);
        assert_eq!(mesh.network().channel_count(), 2 * (3 * 3 + 4 * 2));
    }

    #[test]
    fn manhattan_matches_bfs() {
        let mesh = Mesh::new(&[4, 4]);
        let a = mesh.node(&[0, 0]);
        let b = mesh.node(&[3, 2]);
        assert_eq!(mesh.manhattan(a, b), 5);
        assert_eq!(mesh.network().hop_distance(a, b), Some(5));
    }

    #[test]
    fn three_dimensional() {
        let mesh = Mesh::new(&[2, 2, 2]);
        assert_eq!(mesh.network().node_count(), 8);
        assert!(mesh.network().is_strongly_connected());
        assert_eq!(
            mesh.manhattan(mesh.node(&[0, 0, 0]), mesh.node(&[1, 1, 1])),
            3
        );
    }

    #[test]
    fn degenerate_line_mesh() {
        let mesh = Mesh::new(&[5, 1]);
        assert_eq!(mesh.network().node_count(), 5);
        assert_eq!(mesh.network().channel_count(), 8);
        assert!(mesh.network().is_strongly_connected());
    }

    #[test]
    #[should_panic(expected = "two nodes")]
    fn single_node_rejected() {
        Mesh::new(&[1, 1]);
    }

    #[test]
    fn vcs_multiply_channels() {
        let m1 = Mesh::new(&[3, 3]);
        let m2 = Mesh::with_vcs(&[3, 3], 2);
        assert_eq!(
            m2.network().channel_count(),
            2 * m1.network().channel_count()
        );
        assert_eq!(m2.vcs(), 2);
        let a = m2.node(&[0, 0]);
        let b = m2.node(&[1, 0]);
        assert!(m2.network().find_channel_vc(a, b, 1).is_some());
        assert!(m2.network().is_strongly_connected());
    }
}
