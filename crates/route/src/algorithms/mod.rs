//! Concrete oblivious routing algorithms.
//!
//! * Deadlock-free baselines with acyclic channel dependency graphs:
//!   [`dimension_order`] (XY and its n-dimensional generalization),
//!   [`ecube`], [`dateline_ring`], [`dateline_torus`],
//!   [`west_first`], [`negative_first`], and two-phase
//!   [`valiant_mesh`] (nonminimal, non-coherent, yet Dally-Seitz
//!   safe).
//! * Cluster-scale engines for the fabrics in
//!   `wormnet::topology`: VC-ordered [`dragonfly_minimal`] and
//!   [`dragonfly_valiant`], up*/down* [`fattree_updown`], and the
//!   VC-free [`fullmesh_direct`] / [`fullmesh_vcfree`] pair.
//! * Deliberately deadlock-prone algorithms used to validate the
//!   analysis pipeline: [`clockwise_ring`] and
//!   [`fullmesh_ring_detour`].
//! * Generators for corpus experiments: [`shortest_path_table`],
//!   [`random_table`].

mod dateline;
mod dor;
mod dragonfly;
mod ecube;
mod fattree;
mod fullmesh;
mod generators;
mod ringalg;
mod turn;
mod updown;
mod valiant;

pub use dateline::{dateline_ring, dateline_torus};
pub use dor::{dimension_order, xy_mesh};
pub use dragonfly::{dragonfly_minimal, dragonfly_valiant};
pub use ecube::ecube;
pub use fattree::fattree_updown;
pub use fullmesh::{fullmesh_direct, fullmesh_ring_detour, fullmesh_vcfree};
pub use generators::{random_table, random_tree_routing, shortest_path_table};
pub use ringalg::clockwise_ring;
pub use turn::{negative_first, west_first};
pub use updown::updown_tree;
pub use valiant::valiant_mesh;

use wormnet::{Network, NodeId};

/// Map node ids to their position in `nodes` (None for nodes outside
/// the slice, which the engines leave unrouted).
fn position_map(net: &Network, nodes: &[NodeId]) -> Vec<Option<usize>> {
    let mut map = vec![None; net.node_count()];
    for (i, &n) in nodes.iter().enumerate() {
        map[n.index()] = Some(i);
    }
    map
}
