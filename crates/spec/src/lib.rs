//! # wormspec — the `wormspec/1` specification language
//!
//! A zero-dependency textual language for describing complete
//! wormhole-routing verification scenarios: a topology, a routing
//! function, optional traffic, an optional fault plan, and
//! verification budgets. It is the submission format of the
//! `wormserve` batch-verification service and the on-disk format of
//! the committed lint corpus (`corpus/*.wspec`).
//!
//! A spec is a version header followed by named sections:
//!
//! ```text
//! wormspec/1
//! topology {
//!   kind = mesh
//!   dims = [3, 3]
//! }
//! routing {
//!   engine = dimension_order
//! }
//! verify {
//!   engine = static
//!   lint { W105 = allow }
//! }
//! ```
//!
//! The pipeline inside this crate is deliberately small and fully
//! hand-rolled (no dependencies — parser generators included):
//!
//! * [`lexer`] — tokens with byte [`diag::Span`]s, borrowed from the
//!   source (only a string literal with an escape is copied); comments
//!   (`#`) and whitespace vanish here.
//! * [`parser`] — recursive descent into the typed [`ast`]. Quantities
//!   carry units (`cycles`, `flits`, `lanes`) checked at parse time;
//!   enumerations, references (`c3`, `m0`, `W101`), duplicate keys and
//!   sections are all validated with stable error codes. A routing
//!   section's `path` declarations are stored flat (one hop vector and
//!   one name buffer per section, see [`ast::Routing`]), so a table of
//!   thousands of paths costs a few allocations, not three per path.
//! * [`diag`] — [`diag::SpecError`] with stable `E`-codes and rendered
//!   line/column + caret-snippet diagnostics.
//! * [`print`](mod@print) — the `to_spec` pretty-printer; its output is
//!   the **canonical form**, with `parse(print(ast)) == ast`. It writes
//!   piece by piece into a sink: a `String` for [`to_spec`] and
//!   [`canonical`], an FNV-1a state for the hash.
//! * [`canon`] — the FNV-1a 64-bit [`content_hash`] over the canonical
//!   form, keying the `wormserve` result cache. It is taken as the text
//!   is printed, so hashing renders no text; [`fnv1a`] is its
//!   definition over bytes.
//!
//! Resolution — turning an AST into a live `Network`, `TableRouting`,
//! `FaultPlan`, and so on — deliberately lives *downstream*: each
//! crate that owns a builder gains a `from_spec` constructor (e.g.
//! `wormnet::spec::build_topology`), keeping this crate free of any
//! dependency and usable by tooling that only needs syntax.
//!
//! The full language reference — grammar, key tables, canonicalization
//! rules, and the error catalog — is `docs/SPEC.md`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ast;
pub mod canon;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod print;

pub use ast::Spec;
pub use canon::{canonical, content_hash, content_hash_hex, fnv1a};
pub use diag::{Span, SpecError};
pub use parser::parse;
pub use print::to_spec;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_entry_points_compose() {
        let src = "wormspec/1\n\
                   topology { kind = torus dims = [4, 4] vcs = 2 lanes }\n\
                   routing { engine = dateline_torus }\n";
        let spec = parse(src).expect("parses");
        let text = to_spec(&spec);
        assert_eq!(parse(&text).expect("canonical text parses"), spec);
        assert_eq!(content_hash_hex(&spec).len(), 16);
    }

    #[test]
    fn errors_render_with_position() {
        let src = "wormspec/1\ntopology { kind = mersh }\nrouting { engine = x }\n";
        let err = parse(src).unwrap_err();
        let rendered = err.render(src, "test.wspec");
        assert!(
            rendered.starts_with("test.wspec:2:19: error[E009]"),
            "{rendered}"
        );
    }
}
