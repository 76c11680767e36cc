//! # worm-core — the paper's contribution
//!
//! This crate implements the constructions and results of Schwiebert,
//! *Deadlock-Free Oblivious Wormhole Routing with Cyclic Dependencies*
//! (SPAA 1997):
//!
//! * [`family`] — the parameterized **shared-channel cycle**
//!   construction that underlies every figure in the paper: `k`
//!   messages entering a channel ring through a common shared channel
//!   `c_s`, with per-message access distance `d_i`, held span `g_i`,
//!   and reach into the next segment. Figure 1, Figure 2, the six
//!   Figure 3 scenarios, and the Section 6 generalization `G(k)` are
//!   all instances.
//! * [`paper`] — the concrete instances:
//!   [`paper::fig1::cyclic_dependency`] (the headline deadlock-free
//!   algorithm with a cyclic CDG), [`paper::fig2`] (Theorem 4's
//!   two-message deadlock), [`paper::fig3`] (the six three-message
//!   scenarios), and [`paper::generalized`] (Section 6's `G(k)`).
//! * [`conditions`] — Theorem 5's eight conditions deciding whether a
//!   cycle whose shared channel is used by exactly three messages is
//!   an unreachable configuration.
//! * [`analysis`] — the static analysis of one `(network, table)`,
//!   built once: CDG → Kahn numbering or cycles → static deadlock
//!   candidates → shared-channel analysis → Theorems 2–5, plus the
//!   routing properties and the fabric's existence report.
//! * [`classify`] — the overall pipeline: the static analysis, then
//!   the exhaustive-search fallback where the theorems say nothing;
//!   producing a per-cycle and whole-algorithm deadlock verdict with
//!   provenance.
//! * [`degraded`] — the same pipeline re-run on a degraded topology
//!   (failed channels drop the pairs routed through them), reporting
//!   whether the healthy verdict survives the fault.

//! ```
//! use worm_core::classify::{classify_algorithm, AlgorithmVerdict, ClassifyOptions};
//! use worm_core::paper::fig1;
//!
//! // The paper's headline, end to end: cyclic dependencies, yet
//! // certified deadlock-free by the classification pipeline.
//! let c = fig1::cyclic_dependency();
//! assert!(!c.cdg().is_acyclic());
//! let verdict = classify_algorithm(&c.net, &c.table, &ClassifyOptions::default());
//! assert!(matches!(verdict, AlgorithmVerdict::DeadlockFreeWithCycles { .. }));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
pub mod classify;
pub mod conditions;
pub mod degraded;
pub mod family;
pub mod paper;
pub mod spec;
pub mod validate;

pub use analysis::{Analysis, CandidateAnalysis, CycleAnalysis, StaticClass};
pub use classify::{
    candidate_reachable, classify_algorithm, AlgorithmVerdict, CycleClass, CycleVerdict,
};
pub use degraded::{classify_degraded, classify_degraded_from, DegradedClassification};
pub use family::{CycleConstruction, CycleMessageSpec, SharedCycleSpec};
