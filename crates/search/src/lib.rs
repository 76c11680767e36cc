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
//! One family of engines shares the decision enumeration, the stepping
//! core and the bit-packed state keys ([`wormsim::StateCodec`]):
//!
//! * [`explore`] — depth-first search, the oracle: deterministic and
//!   memory-lean (no parent pointers);
//! * [`explore_until`] — the same search for one specific target
//!   configuration (the literal Definition 5 question);
//! * [`min_stall_budget`] — Section 6's stall-budget scan on top of
//!   [`explore`];
//! * [`adaptive::explore_adaptive`] — adaptive routing, where the
//!   route choice is part of the adversary.
//!
//! Every result carries [`SearchMetrics`] — states/second, frontier
//! peak, dedup hit-rate — printed by the `exp_*` binaries via
//! [`SearchMetrics::summary`]. The same numbers
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
mod verdict;
mod visited;

pub mod adaptive;
pub mod spec;

pub use explore::{explore, explore_until, min_stall_budget, render_witness, replay, SearchConfig};
pub use verdict::{SearchMetrics, SearchResult, Verdict, Witness};
pub use wormtrace;
