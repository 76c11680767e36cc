//! # wormcdg — channel dependency graph analysis
//!
//! The channel dependency graph (CDG) is the central static object of
//! Dally & Seitz's theory and of the paper: vertices are channels, and
//! there is an edge `c1 → c2` whenever the routing algorithm permits a
//! message to use `c2` immediately after `c1`.
//!
//! This crate provides:
//!
//! * [`Cdg`] — CDG construction from a [`wormroute::TableRouting`],
//!   as compressed sparse rows of each channel's distinct successors.
//! * [`Witnesses`] — the *witnesses* of chosen edges: the (src, dst)
//!   message pairs whose path induces each dependency, gathered on
//!   demand by one scan of the table.
//! * The **Dally–Seitz check**: [`Cdg::is_acyclic`] and
//!   [`Cdg::numbering`], one batch Kahn pass over the finished graph,
//!   which produce the strictly-increasing channel numbering
//!   certificate when the CDG is acyclic.
//! * [`check_numbering`] — the certificate's independent checker: it
//!   walks the routing table's paths, not the CDG, and names the first
//!   dependency whose number does not strictly increase.
//! * [`Cdg::cycles`] — enumeration of every elementary cycle, each a
//!   [`CdgCycle`] — with streamed/bounded variants
//!   ([`Cdg::cycles_streamed`]) for cluster-scale graphs.
//! * [`deadlock_candidates`] — for a cycle, every *static* deadlock
//!   configuration candidate (Definition 6): an assignment of
//!   messages to contiguous channel segments of the cycle such that
//!   each message's next required channel is the head of the next
//!   segment. A cycle's candidates are stored flat ([`Candidates`]),
//!   each segment a run of the cycle's own channels ([`Segment`]).
//!   Whether a candidate is *reachable* is a dynamic question
//!   answered by `wormsearch`; a candidate that exists statically but
//!   is unreachable is exactly the paper's *false resource cycle*.
//! * [`sharing`] — shared-channel analysis over a candidate: which
//!   channels more than one configuration message needs, whether they
//!   lie inside or outside the cycle, and the per-message geometry
//!   (`d_i`, `a_i`) that Theorems 3–5 reason about, written into flat
//!   buffers.

//! ```
//! use wormnet::topology::ring_unidirectional;
//! use wormroute::algorithms::clockwise_ring;
//! use wormcdg::Cdg;
//!
//! let (net, nodes) = ring_unidirectional(4);
//! let table = clockwise_ring(&net, &nodes).unwrap();
//! let cdg = Cdg::build(&net, &table);
//! assert!(!cdg.is_acyclic());            // the ring is one big cycle
//! assert_eq!(cdg.cycles().len(), 1);     // ... exactly one
//! assert!(cdg.numbering().is_none());    // no Dally-Seitz certificate
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod candidates;
mod graph;
mod numbering;
mod witnesses;

pub mod adaptive;
pub mod sharing;

pub use candidates::{
    deadlock_candidates, describe_candidate, enumerate_candidates, Candidates, DeadlockCandidate,
    Segment,
};
pub use graph::{Cdg, CdgCycle, MsgPair};
pub use numbering::{check_numbering, NumberingError};
pub use witnesses::Witnesses;
