//! # wormsearch — exhaustive deadlock-reachability search
//!
//! The paper's central question is *dynamic*: a cycle in the channel
//! dependency graph admits a static deadlock configuration, but can
//! the network actually **reach** it? Theorem 1 answers "no" for the
//! Cyclic Dependency algorithm by hand; this crate answers it by
//! machine, for any small scenario, by exhaustively exploring the
//! space of adversary behaviours:
//!
//! * **injection times** — each message may be released at any cycle
//!   (the adversary picks, covering every relative offset);
//! * **arbitration** — every winner choice at every contended channel
//!   is explored (strictly stronger than the paper's "the deadlock-
//!   prone message wins" assumption);
//! * **stalls** — optionally, a bounded budget of adversarial
//!   stall-cycles that freeze a chosen message even though its output
//!   channel is free. Section 6 of the paper is exactly about how much
//!   of this extra power the adversary needs: the generalized family
//!   `G(k)` requires a budget of at least `k`.
//!
//! States are memoized ([`wormsim::SimState`] is time-independent), so
//! the search is a reachability analysis over a finite state space and
//! its verdicts are exact for the given message set and lengths:
//! either a [`Witness`] schedule driving the network into deadlock, or
//! a proof that no interleaving deadlocks.
//!
//! ## Engines
//!
//! Two engines share the same decision enumeration and the same
//! bit-packed state keys ([`wormsim::StateCodec`]):
//!
//! * [`explore`] — sequential depth-first search. The oracle: simple,
//!   deterministic, and memory-lean (no parent pointers).
//! * [`explore_parallel`] — layer-synchronized breadth-first search
//!   over work-stealing worker threads. Returns the **same verdict**
//!   as [`explore`] on every input, and its witness is *shortest* and
//!   *identical for every thread count* (layers complete before any
//!   early exit; parent pointers min-merge; the smallest goal key
//!   wins). Prefer it for large scenarios; `threads = 0` uses every
//!   core. [`min_stall_budget_parallel`] scans stall budgets on top of
//!   it, and [`adaptive::explore_adaptive_parallel`] runs adaptive
//!   scenarios on the same core.
//!
//! Every result carries [`SearchMetrics`] — states/second, frontier
//! peak, dedup hit-rate, per-worker steal counts — printed by the
//! `exp_*` binaries via [`SearchMetrics::summary`]. The same numbers
//! are published as structured `search.*` counters and spans through
//! the re-exported [`wormtrace`] instrumentation layer (see
//! `docs/TRACING.md`); `SearchMetrics` is the in-process
//! compatibility view over those counters, and installing a
//! [`wormtrace::Recorder`] (e.g. with an `exp_*` binary's
//! `--trace <path>` flag) captures them machine-readably instead.
//!
//! Searches that exceed [`SearchConfig::max_states`] return
//! [`Verdict::Inconclusive`] carrying the number of states visited;
//! this is a verdict about the *search*, never a claim about the
//! network.

//! ```
//! use wormnet::topology::ring_unidirectional;
//! use wormroute::algorithms::clockwise_ring;
//! use wormsearch::{explore, SearchConfig};
//! use wormsim::{MessageSpec, Sim};
//!
//! // The unrestricted ring must deadlock under some schedule.
//! let (net, nodes) = ring_unidirectional(4);
//! let table = clockwise_ring(&net, &nodes).unwrap();
//! let specs: Vec<_> = (0..4)
//!     .map(|i| MessageSpec::new(nodes[i], nodes[(i + 2) % 4], 2))
//!     .collect();
//! let sim = Sim::new(&net, &table, specs, Some(1)).unwrap();
//! let result = explore(&sim, &SearchConfig::default());
//! assert!(result.verdict.is_deadlock());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod explore;
mod options;
mod parallel;
mod verdict;
mod visited;

pub mod adaptive;
pub mod canon;
pub mod spec;

pub use canon::{
    CanonScratch, Canonicalizer, IdentityCanonicalizer, StatePermutation, SymmetryCanonicalizer,
};
pub use explore::{
    explore, explore_shortest, explore_until, min_stall_budget, min_stall_budget_parallel,
    render_witness, replay, SearchConfig,
};
pub use parallel::explore_parallel;
pub use verdict::{SearchMetrics, SearchResult, Verdict, Witness};
pub use wormtrace;
