//! E-cube routing on binary hypercubes.
//!
//! E-cube corrects differing address bits from least significant to
//! most significant. Like dimension-order on meshes it is minimal,
//! coherent, and deadlock-free with an acyclic dependency graph.

use wormnet::topology::Hypercube;

use crate::error::RouteError;
use crate::table::TableRouting;

/// E-cube (bit-fixing) routing for a hypercube.
pub fn ecube(cube: &Hypercube) -> Result<TableRouting, RouteError> {
    TableRouting::build(cube.network(), |path, s, d| {
        let mut cur = cube.address(s);
        let goal = cube.address(d);
        path.node(s);
        for bit in 0..cube.dim() {
            let mask = 1usize << bit;
            if (cur ^ goal) & mask != 0 {
                cur ^= mask;
                path.node(cube.node(cur));
            }
        }
        debug_assert_eq!(cur, goal);
        Some(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn fixes_bits_low_to_high() {
        let cube = Hypercube::new(3);
        let table = ecube(&cube).unwrap();
        let s = cube.node(0b000);
        let d = cube.node(0b101);
        let walk = table.path(s, d).unwrap().nodes(cube.network());
        let addrs: Vec<usize> = walk.iter().map(|&n| cube.address(n)).collect();
        assert_eq!(addrs, vec![0b000, 0b001, 0b101]);
    }

    #[test]
    fn ecube_is_total_minimal_coherent() {
        let cube = Hypercube::new(3);
        let table = ecube(&cube).unwrap();
        let report = properties::analyze(cube.network(), &table);
        assert!(report.total && report.minimal && report.coherent);
    }

    #[test]
    fn path_lengths_equal_hamming() {
        let cube = Hypercube::new(4);
        let table = ecube(&cube).unwrap();
        for ((s, d), p) in table.iter() {
            assert_eq!(p.len(), cube.hamming(s, d));
        }
    }

    #[test]
    fn compiles_to_function() {
        let cube = Hypercube::new(3);
        assert!(ecube(&cube).unwrap().compile(cube.network()).is_ok());
    }
}
