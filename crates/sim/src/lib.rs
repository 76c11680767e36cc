//! # wormsim — flit-level wormhole-routing simulator
//!
//! A discrete-event (cycle-synchronous) simulator implementing the
//! paper's Section 3 model exactly:
//!
//! 1. messages of arbitrary length, split into flits;
//! 2. every channel has its own flit queue of configurable depth
//!    (default: the adversarial one-flit minimum);
//! 3. once a queue accepts a header it accepts only that message's
//!    flits until the tail passes (**atomic buffer allocation**);
//! 4. flits advance one channel per cycle when space permits, with
//!    chained advance inside a worm (a full pipeline of one message
//!    moves as a unit when its lead flit moves);
//! 5. a header acquires a new channel only if the queue was empty and
//!    unowned at the start of the cycle, and only after winning
//!    arbitration against other headers requesting the channel that
//!    cycle;
//! 6. destinations consume one flit per cycle (assumption 2: arrived
//!    messages are eventually consumed).
//!
//! The engine is split into a static part ([`Sim`]: network, paths,
//! lengths, capacities) and a dynamic part ([`SimState`]: channel
//! occupancy windows and per-message progress) that is small, cheap to
//! clone, and hashable — `wormsearch` explores the state space by
//! cloning states and enumerating [`Decisions`].
//!
//! Nondeterminism is externalized: each cycle the caller supplies a
//! [`Decisions`] value (which pending messages attempt injection,
//! which messages an adversary stalls, and who wins each contended
//! channel). [`runner::Runner`] drives the engine with concrete
//! policies (FIFO-ish oldest-first, round-robin, fixed order, and the
//! paper's adversarial policy); the search engine instead enumerates
//! all decision combinations.
//!
//! Deadlock is detected structurally: a cycle in the message wait-for
//! graph where every member's header waits on a channel *owned* by the
//! next member. For oblivious routing such a cycle is permanent, so
//! detection is exact (no timeouts needed).

//! ```
//! use wormnet::topology::line;
//! use wormroute::algorithms::shortest_path_table;
//! use wormsim::runner::{ArbitrationPolicy, Outcome, Runner};
//! use wormsim::{MessageSpec, Sim};
//!
//! let (net, nodes) = line(4);
//! let table = shortest_path_table(&net).unwrap();
//! let sim = Sim::new(&net, &table, vec![
//!     MessageSpec::new(nodes[0], nodes[3], 3),
//! ], Some(1)).unwrap();
//! let mut runner = Runner::new(&sim, ArbitrationPolicy::OldestFirst);
//! assert!(matches!(runner.run(100), Outcome::Delivered { .. }));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod engine;
mod error;
mod message;
mod state;

pub mod adaptive;
pub mod arena;
pub mod hooks;
pub mod packed;
pub mod runner;
pub mod skew;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod traffic;

pub use arena::StateArena;
pub use engine::{Decisions, Sim, StepChoice, StepReport, StepScratch, StepTally};
pub use error::SimError;
pub use message::{MessageId, MessageSpec};
pub use packed::StateCodec;
pub use state::{ChannelOcc, SimState};
