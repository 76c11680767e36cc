//! Builders for the standard interconnection topologies used by the
//! baseline routing algorithms and benchmarks.
//!
//! The paper's own networks (Figures 1–3 and the Section 6 family) are
//! *custom* graphs and live in `worm-core::paper`; this module covers
//! the conventional substrates: rings, k-ary n-dimensional meshes,
//! tori with virtual channels, hypercubes, the cluster-scale fabrics
//! (dragonfly groups, k-ary fat-trees, and — via [`complete`] — dense
//! full meshes), and a few degenerate shapes used in tests.

mod dragonfly;
mod fattree;
mod hypercube;
mod mesh;
mod misc;
mod ring;
mod torus;
mod tree;

pub use dragonfly::Dragonfly;
pub use fattree::{FatTree, FatTreeTier};
pub use hypercube::Hypercube;
pub use mesh::Mesh;
pub use misc::{complete, line, star};
pub use ring::{ring_bidirectional, ring_unidirectional, ring_with_vcs};
pub use torus::Torus;
pub use tree::KaryTree;

/// Convert mixed-radix coordinates to a dense node index.
/// `dims` lists the extent of each dimension; coordinate 0 varies
/// fastest.
pub(crate) fn coords_to_index(coords: &[usize], dims: &[usize]) -> usize {
    debug_assert_eq!(coords.len(), dims.len());
    let mut idx = 0;
    let mut stride = 1;
    for (c, d) in coords.iter().zip(dims) {
        debug_assert!(c < d, "coordinate {c} out of range {d}");
        idx += c * stride;
        stride *= d;
    }
    idx
}

/// The index distance between neighbours along dimension `dim`: the
/// product of the extents below it.
pub(crate) fn stride(dims: &[usize], dim: usize) -> usize {
    dims[..dim].iter().product()
}

/// Convert a dense node index back to mixed-radix coordinates.
pub(crate) fn index_to_coords(mut idx: usize, dims: &[usize]) -> Vec<usize> {
    let mut coords = Vec::with_capacity(dims.len());
    for &d in dims {
        coords.push(idx % d);
        idx /= d;
    }
    debug_assert_eq!(idx, 0);
    coords
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let dims = [3, 4, 2];
        for idx in 0..24 {
            let c = index_to_coords(idx, &dims);
            assert_eq!(coords_to_index(&c, &dims), idx);
        }
    }

    #[test]
    fn coord_zero_varies_fastest() {
        let dims = [3, 4];
        assert_eq!(coords_to_index(&[1, 0], &dims), 1);
        assert_eq!(coords_to_index(&[0, 1], &dims), 3);
    }
}
