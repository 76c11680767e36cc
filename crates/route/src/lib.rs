//! # wormroute — oblivious routing substrate
//!
//! This crate implements the routing layer of the paper's model:
//!
//! * [`Path`] — a channel path through a [`wormnet::Network`], and
//!   [`PathRef`], a borrowed view of one.
//! * [`TableRouting`] — Definition 3's routing *algorithm*
//!   `R(src, dst) = path`: one explicit path per ordered node pair.
//!   This is the natural representation for oblivious routing, where
//!   every message has a single, fully determined path. The paths sit
//!   in one flat row-per-source layout and are handed out as
//!   [`PathRef`] views; [`TableBuilder`] takes pairs in any order.
//! * [`CompiledRouting`] — Definition 2's routing *function*
//!   `R : C × N → C` (input channel × destination → output channel),
//!   compiled from a table. Compilation fails with a
//!   [`FunctionConflict`] if the table is not realizable as such a
//!   function — an important fidelity check, since the paper's results
//!   are specifically about this class.
//! * [`properties`] — the structural predicates from Definitions 7–9:
//!   minimal, prefix-closed, suffix-closed, coherent.
//! * [`algorithms`] — standard deadlock-free baselines (dimension-order
//!   on meshes, e-cube on hypercubes, dateline rings/tori, turn-model
//!   variants) plus intentionally deadlock-prone algorithms (clockwise
//!   ring) used to validate the analysis pipeline, and random-table
//!   generators for corpus experiments.
//!
//! The paper's own constructions (Figures 1–3, Section 6) live in
//! `worm-core`; they are just [`TableRouting`] values over custom
//! networks.
//!
//! ```
//! use wormnet::topology::Mesh;
//! use wormroute::{algorithms::xy_mesh, properties};
//!
//! let mesh = Mesh::new(&[3, 3]);
//! let table = xy_mesh(&mesh).unwrap();
//! let report = properties::analyze(mesh.network(), &table);
//! assert!(report.minimal && report.coherent);
//! // XY is realizable as a routing function R : C x N -> C.
//! assert!(table.compile(mesh.network()).is_ok());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod compiled;
mod error;
mod path;
mod successors;
mod table;

pub mod adaptive;
pub mod algorithms;
pub mod properties;
pub mod spec;

pub use compiled::{CompiledRouting, RoutingStep};
pub use error::{FunctionConflict, RouteError};
pub use path::{Path, PathRef};
pub use table::{Duplicate, PathWriter, Paths, TableBuilder, TableRouting};
