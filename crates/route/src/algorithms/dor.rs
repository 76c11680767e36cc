//! Dimension-order routing on meshes (XY routing and its n-dimensional
//! generalization).
//!
//! Dimension-order routing corrects coordinates one dimension at a
//! time, in increasing dimension index. It is minimal, coherent, and
//! has an acyclic channel dependency graph — the textbook Dally–Seitz
//! deadlock-free oblivious algorithm, used here as the "conventional"
//! end of the spectrum opposite the paper's cyclic construction.

use wormnet::topology::Mesh;

use crate::error::RouteError;
use crate::table::TableRouting;

/// Dimension-order routing for an n-dimensional mesh.
pub fn dimension_order(mesh: &Mesh) -> Result<TableRouting, RouteError> {
    TableRouting::build(mesh.network(), |path, s, d| {
        let mut cur = s;
        path.node(cur);
        for dim in 0..mesh.dims().len() {
            for v in mesh.toward(cur, dim, mesh.coord(d, dim)) {
                path.node(v);
                cur = v;
            }
        }
        Some(())
    })
}

/// XY routing on a 2-dimensional mesh: route along X to the correct
/// column, then along Y. A thin wrapper over [`dimension_order`] that
/// asserts the mesh is 2-D, kept because the literature (and the turn
/// model discussion) refers to it by name.
pub fn xy_mesh(mesh: &Mesh) -> Result<TableRouting, RouteError> {
    assert_eq!(mesh.dims().len(), 2, "XY routing requires a 2-D mesh");
    dimension_order(mesh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn xy_routes_x_then_y() {
        let mesh = Mesh::new(&[3, 3]);
        let table = xy_mesh(&mesh).unwrap();
        let s = mesh.node(&[0, 0]);
        let d = mesh.node(&[2, 2]);
        let walk = table.path(s, d).unwrap().nodes(mesh.network());
        let coords: Vec<Vec<usize>> = walk.iter().map(|&n| mesh.coords(n)).collect();
        assert_eq!(
            coords,
            vec![vec![0, 0], vec![1, 0], vec![2, 0], vec![2, 1], vec![2, 2]]
        );
    }

    #[test]
    fn dor_is_total_minimal_coherent() {
        let mesh = Mesh::new(&[3, 2]);
        let table = dimension_order(&mesh).unwrap();
        let report = properties::analyze(mesh.network(), &table);
        assert!(report.total);
        assert!(report.minimal);
        assert!(report.coherent);
    }

    #[test]
    fn dor_three_dims() {
        let mesh = Mesh::new(&[2, 2, 2]);
        let table = dimension_order(&mesh).unwrap();
        let s = mesh.node(&[0, 0, 0]);
        let d = mesh.node(&[1, 1, 1]);
        assert_eq!(table.path(s, d).unwrap().len(), 3);
        assert!(properties::is_minimal(mesh.network(), &table));
        assert!(properties::is_coherent(mesh.network(), &table));
    }

    #[test]
    fn dor_compiles_to_function() {
        // Dimension-order is realizable as R : C x N -> C.
        let mesh = Mesh::new(&[3, 3]);
        let table = dimension_order(&mesh).unwrap();
        assert!(table.compile(mesh.network()).is_ok());
    }

    #[test]
    fn negative_direction_paths() {
        let mesh = Mesh::new(&[3, 3]);
        let table = dimension_order(&mesh).unwrap();
        let s = mesh.node(&[2, 2]);
        let d = mesh.node(&[0, 1]);
        let p = table.path(s, d).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.nodes(mesh.network())[1], mesh.node(&[1, 2]));
    }

    #[test]
    #[should_panic(expected = "2-D mesh")]
    fn xy_rejects_other_dims() {
        let mesh = Mesh::new(&[2, 2, 2]);
        let _ = xy_mesh(&mesh);
    }
}
