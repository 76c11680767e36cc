//! # wormnet — interconnection-network substrate
//!
//! This crate implements the network model from Definition 1 of
//! Schwiebert, *Deadlock-Free Oblivious Wormhole Routing with Cyclic
//! Dependencies* (SPAA 1997):
//!
//! > An interconnection network `I` is a strongly connected directed
//! > multigraph, `I = G(N, C)`, where the vertices `N` are the
//! > processors and the arcs `C` are channels that connect neighboring
//! > processors.
//!
//! A [`Network`] is a directed multigraph: nodes are routers/processors
//! and channels are unidirectional flit pipelines between neighbouring
//! nodes. Multiple parallel channels between the same pair of nodes are
//! allowed — that is how *virtual channels* (Dally's virtual-channel
//! flow control) are modelled: each virtual channel is a first-class
//! [`Channel`] with its own buffer, tagged with a `vc` lane index.
//!
//! The crate also provides:
//!
//! * [`topology`] — builders for the standard topologies used by the
//!   baseline routing algorithms (ring, line, k-ary n-dimensional mesh,
//!   torus, hypercube, star, complete graph).
//! * [`ChannelLiveness`] — a dynamic up/down overlay over a network's
//!   channels. The `Network` itself is immutable after construction
//!   (stable dense ids), so link failures are an overlay, not a graph
//!   mutation; the fault-injection layer drives it.
//! * [`graph`] — self-contained graph algorithms shared by the network
//!   and by the channel-dependency-graph analysis: Tarjan SCC, Johnson
//!   elementary-cycle enumeration, BFS shortest paths, reachability and
//!   topological sort. They operate on the tiny [`graph::Digraph`]
//!   trait so the same code serves `Network` and `wormcdg`'s CDG.
//!
//! ## Example
//!
//! ```
//! use wormnet::{Network, NodeId};
//!
//! let mut net = Network::new();
//! let a = net.add_node("a");
//! let b = net.add_node("b");
//! let ab = net.add_channel(a, b);
//! let ba = net.add_channel(b, a);
//! assert!(net.is_strongly_connected());
//! assert_eq!(net.channel(ab).src(), a);
//! assert_eq!(net.channel(ba).dst(), a);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod channel;
mod error;
mod liveness;
mod network;
mod node;

pub mod graph;
pub mod spec;
pub mod topology;

pub use channel::{Channel, ChannelId};
pub use error::NetError;
pub use liveness::ChannelLiveness;
pub use network::Network;
pub use node::NodeId;
