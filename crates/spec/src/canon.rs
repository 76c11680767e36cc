//! Canonicalization and content hashing.
//!
//! The **canonical form** of a spec is defined as the output of the
//! pretty-printer ([`crate::print::to_spec`]): fixed section order,
//! fixed key order, two-space indentation, normalized string escapes
//! and decimals, defaults elided, lint overrides sorted. Since the
//! parser already discards comments, whitespace, and key order, every
//! formatting of the same scenario canonicalizes to identical bytes.
//!
//! The **content hash** is FNV-1a (64-bit) over those bytes. It keys
//! the `wormserve` result cache: a resubmitted spec that differs only
//! in formatting hits the cache and is answered with the stored
//! verdict, bit for bit. The hash is taken as the text is printed: the
//! printer writes into an FNV-1a state instead of a buffer, so hashing
//! a spec renders no text.

use crate::ast::Spec;
use crate::print::{to_spec, write_spec, Sink};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a (64-bit) over arbitrary bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a(FNV_OFFSET);
    h.update(bytes);
    h.0
}

/// An FNV-1a state. Updating it piece by piece gives what [`fnv1a`]
/// gives over the pieces joined.
struct Fnv1a(u64);

impl Fnv1a {
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

impl Sink for Fnv1a {
    fn write(&mut self, s: &str) {
        self.update(s.as_bytes());
    }
}

/// The canonical text of a spec (the pretty-printer's output).
pub fn canonical(spec: &Spec) -> String {
    to_spec(spec)
}

/// 64-bit content hash of the canonical form: [`fnv1a`] over
/// [`canonical`]'s bytes, taken as they are printed.
pub fn content_hash(spec: &Spec) -> u64 {
    let mut h = Fnv1a(FNV_OFFSET);
    write_spec(&mut h, spec);
    h.0
}

/// The content hash as 16 lowercase hex digits (cache file names,
/// verdict identity).
pub fn content_hash_hex(spec: &Spec) -> String {
    format!("{:016x}", content_hash(spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hash_ignores_formatting_comments_and_key_order() {
        let a = parse(
            "wormspec/1\n\
             topology { kind = mesh dims = [3, 3] vcs = 2 lanes }\n\
             routing { engine = dimension_order }\n",
        )
        .unwrap();
        let b = parse(
            "wormspec/1   # the same scenario, scrambled\n\
             topology {\n\
               vcs   =   2 lanes   # key order differs\n\
               dims = [ 3 , 3 ]\n\
               kind = mesh\n\
             }\n\
             routing {\n\
               engine = dimension_order\n\
             }\n",
        )
        .unwrap();
        assert_eq!(content_hash(&a), content_hash(&b));
        assert_eq!(canonical(&a), canonical(&b));
    }

    #[test]
    fn hash_distinguishes_different_scenarios() {
        let a = parse(
            "wormspec/1\ntopology { kind = mesh dims = [3, 3] }\nrouting { engine = dimension_order }\n",
        )
        .unwrap();
        let b = parse(
            "wormspec/1\ntopology { kind = mesh dims = [3, 4] }\nrouting { engine = dimension_order }\n",
        )
        .unwrap();
        assert_ne!(content_hash(&a), content_hash(&b));
    }

    #[test]
    fn hex_is_sixteen_lowercase_digits() {
        let a = parse(
            "wormspec/1\ntopology { kind = ring nodes = 4 }\nrouting { engine = clockwise_ring }\n",
        )
        .unwrap();
        let hex = content_hash_hex(&a);
        assert_eq!(hex, format!("{:016x}", fnv1a(canonical(&a).as_bytes())));
        assert_eq!(hex.len(), 16);
        assert!(hex
            .chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
    }
}
