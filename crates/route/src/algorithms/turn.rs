//! Deterministic variants of turn-model routing (Glass & Ni) on 2-D
//! meshes.
//!
//! The turn model proves deadlock freedom by prohibiting enough turns
//! to break every abstract cycle. The original algorithms are
//! partially adaptive; the paper at hand studies *oblivious* routing,
//! so we fix a deterministic path choice inside the permitted turn
//! sets. Both variants below are minimal and their dependency graphs
//! are acyclic (asserted in `wormcdg` tests).

use wormnet::topology::Mesh;

use crate::error::RouteError;
use crate::table::TableRouting;

/// Deterministic **west-first** routing on a 2-D mesh: all west (−x)
/// hops are taken first; the rest of the route runs Y then east, which
/// only uses turns the west-first model permits (no turn *into* west).
pub fn west_first(mesh: &Mesh) -> Result<TableRouting, RouteError> {
    assert_eq!(mesh.dims().len(), 2, "west-first requires a 2-D mesh");
    TableRouting::build(mesh.network(), |path, s, d| {
        let (gx, gy) = (mesh.coord(d, 0), mesh.coord(d, 1));
        let mut cur = s;
        path.node(cur);
        let mut go = |dim: usize, goal: usize| {
            for v in mesh.toward(cur, dim, goal) {
                path.node(v);
                cur = v;
            }
        };
        // 1. All west hops first, 2. then Y hops (either direction),
        // 3. then east hops.
        go(0, gx.min(mesh.coord(s, 0)));
        go(1, gy);
        go(0, gx);
        Some(())
    })
}

/// Deterministic **negative-first** routing on an n-dimensional mesh:
/// all negative-direction hops first (in dimension order), then all
/// positive-direction hops (in dimension order). No turn from a
/// positive direction into a negative one ever occurs, which is the
/// negative-first model's prohibition.
pub fn negative_first(mesh: &Mesh) -> Result<TableRouting, RouteError> {
    let ndim = mesh.dims().len();
    TableRouting::build(mesh.network(), |path, s, d| {
        let mut cur = s;
        path.node(cur);
        // Negative hops first, then positive ones.
        for up in [false, true] {
            for dim in 0..ndim {
                let (c, goal) = (mesh.coord(cur, dim), mesh.coord(d, dim));
                let goal = if up { goal.max(c) } else { goal.min(c) };
                for v in mesh.toward(cur, dim, goal) {
                    path.node(v);
                    cur = v;
                }
            }
        }
        Some(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn west_first_goes_west_first() {
        let mesh = Mesh::new(&[4, 3]);
        let table = west_first(&mesh).unwrap();
        // (3,0) -> (0,2): three west hops then two north hops.
        let p = table.path(mesh.node(&[3, 0]), mesh.node(&[0, 2])).unwrap();
        let coords: Vec<Vec<usize>> = p
            .nodes(mesh.network())
            .iter()
            .map(|&n| mesh.coords(n))
            .collect();
        assert_eq!(
            coords[0..4],
            [vec![3, 0], vec![2, 0], vec![1, 0], vec![0, 0]]
        );
        assert_eq!(coords[4..], [vec![0, 1], vec![0, 2]]);
    }

    #[test]
    fn west_first_east_goes_last() {
        let mesh = Mesh::new(&[4, 3]);
        let table = west_first(&mesh).unwrap();
        // (0,2) -> (3,0): south first, then east.
        let p = table.path(mesh.node(&[0, 2]), mesh.node(&[3, 0])).unwrap();
        let coords: Vec<Vec<usize>> = p
            .nodes(mesh.network())
            .iter()
            .map(|&n| mesh.coords(n))
            .collect();
        assert_eq!(coords[1], vec![0, 1]);
        assert_eq!(coords[2], vec![0, 0]);
        assert_eq!(coords.last().unwrap(), &vec![3, 0]);
    }

    #[test]
    fn west_first_no_turns_into_west() {
        let mesh = Mesh::new(&[4, 4]);
        let table = west_first(&mesh).unwrap();
        for (_, p) in table.iter() {
            let coords: Vec<Vec<usize>> = p
                .nodes(mesh.network())
                .iter()
                .map(|&n| mesh.coords(n))
                .collect();
            let mut seen_non_west = false;
            for w in coords.windows(2) {
                let west = w[1][0] + 1 == w[0][0];
                if west {
                    assert!(!seen_non_west, "turn into west in {coords:?}");
                } else {
                    seen_non_west = true;
                }
            }
        }
    }

    #[test]
    fn both_variants_minimal_total() {
        let mesh = Mesh::new(&[3, 3]);
        for table in [west_first(&mesh).unwrap(), negative_first(&mesh).unwrap()] {
            let r = properties::analyze(mesh.network(), &table);
            assert!(r.total && r.minimal && r.node_simple);
        }
    }

    #[test]
    fn negative_first_ordering() {
        let mesh = Mesh::new(&[3, 3, 3]);
        let table = negative_first(&mesh).unwrap();
        // (2,0,1) -> (0,2,0): negatives (x: 2->0, z: 1->0) first, then y up.
        let p = table
            .path(mesh.node(&[2, 0, 1]), mesh.node(&[0, 2, 0]))
            .unwrap();
        let coords: Vec<Vec<usize>> = p
            .nodes(mesh.network())
            .iter()
            .map(|&n| mesh.coords(n))
            .collect();
        // First three hops are negative moves.
        assert_eq!(coords[1], vec![1, 0, 1]);
        assert_eq!(coords[2], vec![0, 0, 1]);
        assert_eq!(coords[3], vec![0, 0, 0]);
        // Then positive y moves.
        assert_eq!(coords[4], vec![0, 1, 0]);
        assert_eq!(coords[5], vec![0, 2, 0]);
    }

    #[test]
    fn west_first_compiles_to_function() {
        let mesh = Mesh::new(&[3, 3]);
        assert!(west_first(&mesh).unwrap().compile(mesh.network()).is_ok());
        assert!(negative_first(&mesh)
            .unwrap()
            .compile(mesh.network())
            .is_ok());
    }
}
