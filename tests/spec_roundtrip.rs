//! Round-trip and canonicalization properties of `wormspec/1`.
//!
//! The spec language makes two guarantees this suite pins:
//!
//! 1. **`parse(print(ast)) == ast`** — the canonical printer loses
//!    nothing the AST keeps, and printing is idempotent (the canonical
//!    form is a fixed point).
//! 2. **Hash stability** — the content hash is taken over the
//!    canonical text, so comments, whitespace, key order, and
//!    spelled-out defaults never change it; different scenarios do.
//! 3. **Resolution sees only the canonical text** — compiling a source
//!    and compiling its canonical text agree on success, hash, error
//!    code and message. This is what lets a `wormserve` cache hit skip
//!    resolution: a hash that once resolved always resolves.
//!
//! Random specs come from `wormserve::specgen` (seeded, deterministic)
//! so the properties range over every topology family and section the
//! generator can emit. `specgen` emits no `path` declarations, so
//! `explicit_spec` draws explicit topologies and routing tables
//! directly as ASTs, with node names that need every escape the lexer
//! resolves.

use std::path::PathBuf;

use cyclic_wormhole::serve::specgen::generate;
use cyclic_wormhole::serve::{compile, key};
use cyclic_wormhole::spec::ast::{
    ChannelDecl, Decl, NodeDecl, Quantity, Routing, Spanned, Spec, Topology, TopologyKind, Unit,
};
use proptest::prelude::*;

/// Deterministically sprinkle comments, blank lines, and trailing
/// whitespace over a source without touching its meaning.
fn perturb(source: &str, seed: u64) -> String {
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64: cheap, deterministic, good enough to vary sites.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut out = String::new();
    for line in source.lines() {
        match next() % 4 {
            0 => out.push_str("# perturbation comment\n"),
            1 => out.push('\n'),
            _ => {}
        }
        out.push_str(line);
        if next() % 3 == 0 {
            out.push_str("   ");
        }
        out.push_str(if next() % 5 == 0 {
            "  # trailing note\n"
        } else {
            "\n"
        });
    }
    out
}

/// Pieces of node names: plain text, each character the lexer reads
/// from an escape (`\"`, `\\`, `\n`, `\t`), and non-ASCII text.
const NAME_PIECES: [&str; 10] = ["r", "n7", "Src", "\"", "\\", "\n", "\t", "ö", "節点", "🦀"];

/// A node name of one to four pieces.
fn node_name() -> impl Strategy<Value = String> {
    prop::collection::vec(0..NAME_PIECES.len(), 1..5)
        .prop_map(|pieces| pieces.into_iter().map(|i| NAME_PIECES[i]).collect())
}

/// A random explicit spec: up to five node names (repeats allowed),
/// channels between them, and up to twelve `path` declarations of 0–20
/// channels each whose endpoints repeat freely. Paths are built through
/// `Routing::push_path`, as the parser builds them. The spec need not
/// resolve: the properties here are the language's.
fn explicit_spec() -> impl Strategy<Value = Spec> {
    let channel = (0usize..5, 0usize..5, 0u64..3, 1u64..3, any::<bool>());
    let path = (
        0usize..5,
        0usize..5,
        prop::collection::vec(0u64..300, 0..21),
    );
    (
        prop::collection::vec(node_name(), 1..6),
        prop::collection::vec(channel, 0..8),
        prop::collection::vec(path, 0..13),
    )
        .prop_map(|(names, channels, paths)| {
            let name = |i: usize| names[i % names.len()].as_str();
            let mut decls: Vec<Decl> = names
                .iter()
                .map(|n| {
                    Decl::Node(NodeDecl {
                        name: Spanned::dummy(n.clone()),
                    })
                })
                .collect();
            for (src, dst, lane, cap, labelled) in channels {
                decls.push(Decl::Channel(ChannelDecl {
                    src: Spanned::dummy(name(src).to_string()),
                    dst: Spanned::dummy(name(dst).to_string()),
                    lane: Spanned::dummy(lane),
                    cap: Spanned::dummy(Quantity::new(cap, Unit::Flits)),
                    label: labelled.then(|| Spanned::dummy(name(src + dst).to_string())),
                }));
            }
            let mut routing = Routing::new(Spanned::dummy("table".to_string()));
            for (src, dst, hops) in &paths {
                routing.push_path(
                    Spanned::dummy(name(*src)),
                    Spanned::dummy(name(*dst)),
                    Spanned::dummy(hops),
                );
            }
            Spec {
                topology: Topology {
                    kind: Spanned::dummy(TopologyKind::Explicit),
                    decls,
                    ..Topology::default()
                },
                routing,
                traffic: None,
                faults: None,
                verify: None,
            }
        })
}

/// FNV-1a over the canonical text, as printed to a string.
fn printed_hash(spec: &Spec) -> String {
    format!(
        "{:016x}",
        wormspec::fnv1a(wormspec::to_spec(spec).as_bytes())
    )
}

proptest! {
    #[test]
    fn explicit_tables_round_trip_and_hash_stably(spec in explicit_spec(), noise in 0u64..1000) {
        let printed = wormspec::to_spec(&spec);
        let reparsed = wormspec::parse(&printed)
            .unwrap_or_else(|e| panic!("{}", e.render(&printed, "printed")));
        prop_assert_eq!(&reparsed, &spec, "parse(print(ast)) != ast:\n{}", printed);
        prop_assert_eq!(wormspec::to_spec(&reparsed), printed.clone(), "printing is not idempotent");
        let perturbed = perturb(&printed, noise);
        let perturbed_ast = wormspec::parse(&perturbed)
            .unwrap_or_else(|e| panic!("{}", e.render(&perturbed, "perturbed")));
        prop_assert_eq!(wormspec::content_hash_hex(&perturbed_ast), wormspec::content_hash_hex(&spec));
        prop_assert_eq!(key(&perturbed).expect("parses").hash, printed_hash(&spec));
    }

    #[test]
    fn parse_print_is_identity_and_idempotent(seed in 0u64..500) {
        let source = generate(seed);
        let ast = wormspec::parse(&source).expect("generated specs parse");
        let printed = wormspec::to_spec(&ast);
        let reparsed = wormspec::parse(&printed).expect("canonical text parses");
        prop_assert_eq!(&reparsed, &ast, "parse(print(ast)) != ast for seed {}", seed);
        prop_assert_eq!(
            wormspec::to_spec(&reparsed),
            printed,
            "printing is not idempotent for seed {}",
            seed
        );
    }

    #[test]
    fn hash_ignores_comments_and_whitespace(seed in 0u64..500, noise in 0u64..1000) {
        let source = generate(seed);
        let ast = wormspec::parse(&source).expect("generated specs parse");
        let perturbed = perturb(&source, noise);
        let perturbed_ast = wormspec::parse(&perturbed)
            .unwrap_or_else(|e| panic!("{}", e.render(&perturbed, "perturbed")));
        prop_assert_eq!(
            wormspec::content_hash_hex(&ast),
            wormspec::content_hash_hex(&perturbed_ast),
            "hash moved under perturbation (seed {}, noise {})",
            seed,
            noise
        );
    }
}

/// The committed corpus, sorted by file name.
fn corpus_sources() -> Vec<(String, String)> {
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut sources: Vec<(String, String)> = std::fs::read_dir(&corpus)
        .expect("corpus/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "wspec"))
        .map(|p| {
            let source = std::fs::read_to_string(&p).expect("corpus spec reads");
            (p.display().to_string(), source)
        })
        .collect();
    sources.sort();
    assert_eq!(sources.len(), 20, "corpus size");
    sources
}

#[test]
fn the_key_hashes_the_printed_canonical_text() {
    let mut sources = corpus_sources();
    sources.extend((0..500).map(|seed| (format!("specgen seed {seed}"), generate(seed))));
    for (name, source) in &sources {
        let spec = wormspec::parse(source).unwrap_or_else(|e| panic!("{}", e.render(source, name)));
        assert_eq!(
            key(source).expect("parses").hash,
            printed_hash(&spec),
            "{name}"
        );
    }
}

#[test]
fn hash_ignores_key_order_and_spelled_defaults() {
    let variants = [
        // Canonical-ish ordering.
        "wormspec/1\ntopology { kind = ring nodes = 4 }\nrouting { engine = clockwise_ring }\n",
        // Keys reordered.
        "wormspec/1\ntopology { nodes = 4 kind = ring }\nrouting { engine = clockwise_ring }\n",
        // Heavy reformatting.
        "wormspec/1\n\n\ntopology {\n\n  nodes = 4\n  kind = ring\n}\nrouting {\n  engine = clockwise_ring\n}\n",
    ];
    let hashes: Vec<String> = variants
        .iter()
        .map(|v| wormspec::content_hash_hex(&wormspec::parse(v).unwrap()))
        .collect();
    assert_eq!(hashes[0], hashes[1]);
    assert_eq!(hashes[0], hashes[2]);

    // Spelled-out channel defaults hash identically to omitted ones.
    let explicit = "wormspec/1\ntopology { kind = explicit node \"a\" node \"b\" channel \"a\" -> \"b\" node \"c\" channel \"b\" -> \"c\" channel \"c\" -> \"a\" }\nrouting { engine = shortest_path }\n";
    let spelled = "wormspec/1\ntopology { kind = explicit node \"a\" node \"b\" channel \"a\" -> \"b\" lane 0 cap 1 flits node \"c\" channel \"b\" -> \"c\" channel \"c\" -> \"a\" }\nrouting { engine = shortest_path }\n";
    assert_eq!(
        wormspec::content_hash_hex(&wormspec::parse(explicit).unwrap()),
        wormspec::content_hash_hex(&wormspec::parse(spelled).unwrap()),
    );
}

#[test]
fn different_scenarios_hash_differently() {
    let a = wormspec::parse(
        "wormspec/1\ntopology { kind = ring nodes = 4 }\nrouting { engine = clockwise_ring }\n",
    )
    .unwrap();
    let b = wormspec::parse(
        "wormspec/1\ntopology { kind = ring nodes = 5 }\nrouting { engine = clockwise_ring }\n",
    )
    .unwrap();
    let c = wormspec::parse("wormspec/1\ntopology { kind = ring nodes = 4 vcs = 2 lanes }\nrouting { engine = dateline_ring }\n").unwrap();
    let (ha, hb, hc) = (
        wormspec::content_hash_hex(&a),
        wormspec::content_hash_hex(&b),
        wormspec::content_hash_hex(&c),
    );
    assert_ne!(ha, hb);
    assert_ne!(ha, hc);
    assert_ne!(hb, hc);
}

/// What compiling a source decides, spans aside: the hash, or the error
/// code and message.
fn outcome(source: &str) -> Result<String, (&'static str, String)> {
    compile(source)
        .map(|job| job.hash)
        .map_err(|e| (e.code, e.message))
}

#[test]
fn compiling_the_canonical_text_decides_the_same() {
    let mut sources = corpus_sources();
    sources.extend((0..500).map(|seed| (format!("specgen seed {seed}"), generate(seed))));
    // Specs that parse but fail in a resolution seam, formatted unlike
    // their canonical text.
    let ring = "wormspec/1\ntopology {\n    nodes = 4 # four routers\n    kind = ring\n}\n";
    for rest in [
        "routing { engine = table path \"r0\" -> \"r99\" = [c0] }\n",
        "routing { engine = table path \"r0\" -> \"r1\" = [c0, c99] }\n",
        "routing { engine = dimension_order }\n",
        "routing { engine = zigzag }\n",
        "routing { engine = clockwise_ring }\nfaults { down c99 @ 1 cycles }\n",
        "routing { engine = clockwise_ring }\nverify { lint { W999 = deny } }\n",
        "routing { engine = clockwise_ring }\nverify { capacity = 0 flits }\n",
    ] {
        sources.push((format!("unresolvable: {rest}"), format!("{ring}{rest}")));
    }
    let mut failures = 0;
    for (name, source) in &sources {
        let spec = wormspec::parse(source).unwrap_or_else(|e| panic!("{}", e.render(source, name)));
        let canonical = wormspec::canonical(&spec);
        let decided = outcome(source);
        failures += usize::from(decided.is_err());
        assert_eq!(decided, outcome(&canonical), "{name}");
    }
    assert!(failures >= 7, "the unresolvable specs must fail");
}
