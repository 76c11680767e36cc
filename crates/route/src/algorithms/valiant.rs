//! Valiant-style two-phase routing on a two-lane mesh.
//!
//! Valiant's scheme routes every message through a random intermediate
//! node to spread load. Our oblivious (derandomized) variant fixes the
//! intermediate per *destination* with a deterministic hash — per-pair
//! intermediates would make the algorithm source-routed rather than a
//! `R : C × N → C` function, the class the paper studies. Phase 1
//! (src → intermediate) runs dimension order on VC lane 1, phase 2
//! (intermediate → dst) on lane 0. The lane switch makes the
//! dependency graph acyclic (each lane's DOR subgraph is acyclic and
//! cross-lane edges only go 1 → 0), so the algorithm is deadlock-free
//! while being deliberately *nonminimal* and *non-coherent* — a useful
//! contrast point for the paper's property taxonomy.

use wormnet::topology::Mesh;
use wormnet::NodeId;

use crate::error::RouteError;
use crate::table::{PathWriter, TableRouting};

/// Deterministic intermediate node per destination. Depending only on
/// the destination keeps the algorithm in the `R : C × N → C` class
/// (the next hop is a function of position and destination).
fn intermediate(mesh: &Mesh, dst: NodeId) -> NodeId {
    let n = mesh.network().node_count();
    let mut h = (dst.index() as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
    h ^= h >> 31;
    NodeId::from_index((h as usize) % n)
}

/// Dimension-order hops from `from` to `to` on a VC lane.
fn dor_hops(mesh: &Mesh, from: NodeId, to: NodeId, lane: u8, path: &mut PathWriter<'_>) {
    let mut cur = from;
    for dim in 0..mesh.dims().len() {
        for next in mesh.toward(cur, dim, mesh.coord(to, dim)) {
            path.lane(cur, next, lane);
            cur = next;
        }
    }
}

/// Build the two-phase Valiant table on a mesh with ≥ 2 VC lanes.
///
/// Degenerate pairs whose intermediate coincides with an endpoint
/// collapse to single-phase dimension-order on the corresponding lane.
pub fn valiant_mesh(mesh: &Mesh) -> Result<TableRouting, RouteError> {
    assert!(mesh.vcs() >= 2, "Valiant routing needs two VC lanes");
    TableRouting::build(mesh.network(), |path, src, dst| {
        let mid = intermediate(mesh, dst);
        dor_hops(mesh, src, mid, 1, path);
        dor_hops(mesh, mid, dst, 0, path);
        Some(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn routes_through_fixed_intermediates() {
        let mesh = Mesh::with_vcs(&[3, 3], 2);
        let table = valiant_mesh(&mesh).unwrap();
        assert!(table.is_total(mesh.network()));
        // Deterministic: rebuilding gives the identical table.
        let again = valiant_mesh(&mesh).unwrap();
        assert_eq!(table, again);
    }

    #[test]
    fn phase_lanes_are_ordered() {
        // Along every path, once lane 0 appears, lane 1 never returns.
        let mesh = Mesh::with_vcs(&[3, 3], 2);
        let table = valiant_mesh(&mesh).unwrap();
        let net = mesh.network();
        for (_, path) in table.iter() {
            let lanes: Vec<u8> = path
                .channels()
                .iter()
                .map(|&c| net.channel(c).vc())
                .collect();
            let mut seen_zero = false;
            for l in lanes {
                if l == 0 {
                    seen_zero = true;
                } else {
                    assert!(!seen_zero, "lane 1 after lane 0");
                }
            }
        }
    }

    #[test]
    fn is_nonminimal_and_not_coherent() {
        let mesh = Mesh::with_vcs(&[4, 4], 2);
        let table = valiant_mesh(&mesh).unwrap();
        let report = properties::analyze(mesh.network(), &table);
        assert!(report.total);
        assert!(!report.minimal, "detours through intermediates");
        assert!(!report.coherent);
    }

    #[test]
    fn compiles_to_function() {
        // Phase is encoded in the lane of the input channel, so the
        // table is a valid R : C x N -> C function.
        let mesh = Mesh::with_vcs(&[3, 3], 2);
        let table = valiant_mesh(&mesh).unwrap();
        assert!(table.compile(mesh.network()).is_ok());
    }

    #[test]
    #[should_panic(expected = "two VC lanes")]
    fn needs_two_lanes() {
        let mesh = Mesh::new(&[3, 3]);
        let _ = valiant_mesh(&mesh);
    }
}
