//! `wormserve` — the batch verification service over `wormspec/1`.
//!
//! The crate closes the loop the spec language opens: a spec file goes
//! in, a deterministic `wormserve/1` verdict document comes out, and
//! identical *canonical* specs never pay for verification twice.
//!
//! The pieces, in data-flow order:
//!
//! - [`key`] — parse a source and hash its canonical text as it is
//!   printed into a [`SpecKey`]: all a cache lookup needs;
//! - [`resolve`] — resolve a key through every per-crate seam
//!   (`wormnet::spec`, `wormroute::spec`, `wormsim::spec`,
//!   `wormfault::spec`, `wormlint::spec`, `worm_core::spec`,
//!   `wormexist::spec`, `wormsearch::spec`) into a [`CompiledJob`];
//!   [`compile()`] is `key` then `resolve`;
//! - [`verdict_json`] — run the engines the spec selected and render
//!   the sorted-key, timing-free `wormserve/1` document;
//! - [`JobQueue`] — a bounded blocking MPMC queue (backpressure);
//! - [`ResultCache`] — content-addressed verdict storage keyed by the
//!   canonical spec hash, hit = byte-identical replay;
//! - [`Server`] — the worker pool gluing the above together: each job
//!   is keyed, looked up, and resolved and verified only on a miss,
//!   with graceful drain on [`Server::shutdown`];
//! - [`lift()`] — the inverse seam: express an in-memory network and
//!   routing table as an explicit spec (how the lint corpus became
//!   committed `.wspec` files);
//! - [`specgen`] — seeded spec generation and the
//!   lint/classifier/search three-way differential fuzzer.
//!
//! `docs/SERVICE.md` is the operator-facing guide to all of this;
//! `docs/SPEC.md` documents the input language.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod compile;
pub mod lift;
pub mod queue;
pub mod server;
pub mod specgen;
pub mod verdict;

pub use cache::ResultCache;
pub use compile::{compile, key, resolve, CompiledJob, SpecKey};
pub use lift::lift;
pub use queue::JobQueue;
pub use server::{JobResult, Server, ServerConfig};
pub use verdict::{verdict_json, SCHEMA};
