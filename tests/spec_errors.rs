//! Rendered spec diagnostics, pinned byte for byte.
//!
//! Every malformed input below goes through `wormserve::compile`, the
//! service's own entry point, and its error is compared with a
//! committed snapshot under `tests/snapshots/spec_errors/`: the stable
//! code, the byte span, the stage that raised it (`parse` when
//! `wormspec::parse` already rejects the source, `resolve` when only a
//! downstream `from_spec` seam does), and the full
//! `SpecError::render` text with its caret snippet.
//!
//! The cases cover every `E001`–`E014` code, string escapes, non-ASCII
//! names, unterminated strings, stray punctuation, out-of-range
//! literals, malformed references, units, and duplicate keys and
//! sections. To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_SPECS=1 cargo test --test spec_errors
//! ```
//!
//! then commit the updated files together with the change.

use std::path::PathBuf;

use cyclic_wormhole::serve::compile;

fn snapshot_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/spec_errors")
}

const HEADER: &str = "wormspec/1\n";
const RING: &str = "wormspec/1\ntopology { kind = ring nodes = 4 }\n";
const RING_ROUTED: &str =
    "wormspec/1\ntopology { kind = ring nodes = 4 }\nrouting { engine = clockwise_ring }\n";

/// A two-node explicit topology followed by `rest`.
fn explicit(rest: &str) -> String {
    format!(
        "{HEADER}topology {{\n  kind = explicit\n  node \"a\"\n  node \"b\"\n  channel \"a\" -> \"b\"\n  channel \"b\" -> \"a\"\n}}\n{rest}"
    )
}

/// Every case: `(snapshot name, source)`.
fn cases() -> Vec<(&'static str, String)> {
    let ring = |rest: &str| format!("{RING_ROUTED}{rest}");
    let topo = |body: &str| {
        format!("{HEADER}topology {{ {body} }}\nrouting {{ engine = clockwise_ring }}\n")
    };
    vec![
        // E001: lexing.
        (
            "e001_stray_minus",
            explicit("routing {\n  engine = table\n  path \"a\" - \"b\" = [c0]\n}\n"),
        ),
        (
            "e001_stray_dot",
            ring("traffic { pattern = uniform rate = .5 }\n"),
        ),
        ("e001_unexpected_character", topo("kind = ring; nodes = 4")),
        ("e001_non_ascii_identifier", topo("kind = ring nodes = 4 größe = 3")),
        ("e001_three_byte_character", topo("kind = ring nodes = 4 €")),
        (
            "e001_unknown_escape",
            explicit("routing {\n  engine = table\n  path \"a\\qb\" -> \"b\" = [c0]\n}\n"),
        ),
        (
            "e001_unknown_non_ascii_escape",
            explicit("routing {\n  engine = table\n  path \"a\\é\" -> \"b\" = [c0]\n}\n"),
        ),
        (
            "e001_unterminated_string_at_newline",
            explicit("routing {\n  engine = table\n  path \"a -> \"b\" = [c0]\n}\n"),
        ),
        (
            "e001_unterminated_string_at_eof",
            explicit("routing {\n  engine = table\n  path \"a\" -> \"b"),
        ),
        (
            "e001_backslash_at_eof",
            explicit("routing {\n  engine = table\n  path \"a\" -> \"b\\"),
        ),
        // E002: unexpected tokens.
        ("e002_missing_eq", topo("kind ring nodes = 4")),
        (
            "e002_escaped_string_for_a_keyword",
            topo("kind = \"ri\\\"ng\\t\\n\\\\\" nodes = 4"),
        ),
        (
            "e002_decimal_next_to_range",
            ring("faults { outage c0 @ 2.50..9 cycles }\n"),
        ),
        ("e002_int_list_item", topo("kind = mesh dims = [3, x]")),
        (
            "e002_end_of_input_in_section",
            format!("{RING}routing {{ engine = clockwise_ring\n"),
        ),
        (
            "e002_range_where_a_rate_ends",
            ring("traffic { pattern = uniform rate = 1..2 }\n"),
        ),
        // E003: the version header.
        (
            "e003_unsupported_version",
            RING_ROUTED.replace("wormspec/1", "wormspec/2"),
        ),
        (
            "e003_missing_header",
            RING_ROUTED.replace("wormspec/1\n", ""),
        ),
        // E004, E005: sections.
        ("e004_unknown_section", ring("tolopogy { }\n")),
        (
            "e005_duplicate_section",
            ring("routing { engine = clockwise_ring }\n"),
        ),
        // E006: unknown keys.
        ("e006_unknown_topology_key", topo("kind = ring nodes = 4 wat = 3")),
        (
            "e006_unknown_fault_declaration",
            ring("faults { fail c0 @ 1 cycles }\n"),
        ),
        (
            "e006_unknown_verify_key",
            ring("verify { engine = full scc = hkmst }\n"),
        ),
        // E007: duplicate keys.
        ("e007_duplicate_kind", topo("kind = ring kind = ring nodes = 4")),
        ("e007_duplicate_nodes", topo("kind = ring nodes = 4 nodes = 5")),
        (
            "e007_duplicate_routing_engine",
            format!("{RING}routing {{ engine = clockwise_ring engine = dateline_ring }}\n"),
        ),
        (
            "e007_duplicate_rate",
            ring("traffic { pattern = uniform rate = 0.1 rate = 0.2 }\n"),
        ),
        (
            "e007_duplicate_random",
            ring(
                "faults {\n  random(seed = 1, outages = 1, stalls = 0, horizon = 9 cycles)\n  random(seed = 2, outages = 1, stalls = 0, horizon = 9 cycles)\n}\n",
            ),
        ),
        (
            "e007_duplicate_max_states",
            ring("verify { max_states = 10 max_states = 20 }\n"),
        ),
        (
            "e007_duplicate_lint_code",
            ring("verify { lint { W101 = allow, W101 = deny } }\n"),
        ),
        // E008: units.
        ("e008_wrong_unit", topo("kind = ring nodes = 4 vcs = 2 flits")),
        (
            "e008_missing_unit_before_brace",
            ring("verify { stall_budget = 2 }\n"),
        ),
        (
            "e008_missing_unit_before_a_word",
            ring("traffic {\n  pattern = explicit\n  message \"r0\" -> \"r2\" length 3 at 1 cycles\n}\n"),
        ),
        (
            "e008_outage_range_unit",
            ring("faults { outage c0 @ 1..5 flits }\n"),
        ),
        // E009: enumerations.
        ("e009_unknown_kind", topo("kind = mersh nodes = 4")),
        ("e009_bool", topo("kind = dragonfly groups = 3 routers = 2 valiant = maybe")),
        (
            "e009_unknown_severity",
            ring("verify { lint { W101 = loud } }\n"),
        ),
        (
            "e009_unknown_routing_engine",
            format!("{RING}routing {{ engine = zigzag }}\n"),
        ),
        // E010: references.
        ("e010_wrong_prefix", ring("faults { down q3 @ 1 cycles }\n")),
        ("e010_bare_prefix", ring("faults { down c @ 1 cycles }\n")),
        (
            "e010_reference_over_64_bits",
            ring("faults { down c99999999999999999999 @ 1 cycles }\n"),
        ),
        (
            "e010_channel_list_item",
            explicit("routing {\n  engine = table\n  path \"a\" -> \"b\" = [c0, x1]\n}\n"),
        ),
        (
            "e010_message_reference",
            ring("faults { drop x1 @ 1 cycles }\n"),
        ),
        ("e010_lint_code", ring("verify { lint { W1 = allow } }\n")),
        // E011: ranges.
        (
            "e011_integer_over_64_bits",
            topo("kind = ring nodes = 18446744073709551616"),
        ),
        (
            "e011_zero_capacity",
            ring("verify { capacity = 0 flits }\n"),
        ),
        ("e011_one_node_ring", topo("kind = ring nodes = 1")),
        // E012: missing sections and keys.
        ("e012_missing_kind", topo("nodes = 4")),
        ("e012_missing_routing_section", RING.to_string()),
        (
            "e012_missing_routing_engine",
            format!("{RING}routing {{ }}\n"),
        ),
        (
            "e012_missing_pattern",
            ring("traffic { rate = 0.1 }\n"),
        ),
        // E013: conflicts, raised by the resolution seams.
        ("e013_key_for_another_kind", topo("kind = ring nodes = 4 dims = [4]")),
        (
            "e013_duplicate_non_ascii_node",
            format!(
                "{HEADER}topology {{\n  kind = explicit\n  node \"Zürich\" node \"Genève\" node \"Zürich\"\n}}\nrouting {{ engine = table }}\n"
            ),
        ),
        (
            "e013_engine_for_another_kind",
            format!("{RING}routing {{ engine = dimension_order }}\n"),
        ),
        (
            "e013_paths_need_the_table_engine",
            format!("{RING}routing {{ engine = clockwise_ring path \"r0\" -> \"r1\" = [c0] }}\n"),
        ),
        // E014: names the built scenario does not have.
        (
            "e014_unknown_path_node",
            format!("{RING}routing {{ engine = table path \"r0\" -> \"r99\" = [c0] }}\n"),
        ),
        (
            "e014_missing_path_channel",
            format!("{RING}routing {{ engine = table path \"r0\" -> \"r1\" = [c0, c99] }}\n"),
        ),
        (
            "e014_unknown_escaped_node",
            format!(
                "{HEADER}topology {{\n  kind = explicit\n  node \"a\\\"b\"\n  channel \"a\\\"b\" -> \"c\\\\d\\te\\n\"\n}}\nrouting {{ engine = table }}\n"
            ),
        ),
        (
            "e014_unknown_non_ascii_node",
            format!(
                "{HEADER}topology {{\n  kind = explicit\n  node \"Zürich\" node \"Genève\" channel \"Zürich\" -> \"Bern\"\n}}\nrouting {{ engine = table }}\n"
            ),
        ),
        ("e014_missing_fault_channel", ring("faults { down c99 @ 1 cycles }\n")),
        (
            "e014_missing_message",
            ring("traffic {\n  pattern = explicit\n  message \"r0\" -> \"r2\" length 3 flits\n}\nfaults { drop m5 @ 1 cycles }\n"),
        ),
        ("e014_unknown_lint_code", ring("verify { lint { W999 = deny } }\n")),
        // E014 from the explicit table's path checks.
        (
            "e014_path_repeats_two_channels",
            triangle("  path \"a\" -> \"c\" = [c2, c0, c1, c3, c2, c0]\n"),
        ),
        (
            "e014_path_channels_not_adjacent",
            triangle("  path \"a\" -> \"c\" = [c2, c1]\n"),
        ),
        (
            "e014_duplicate_path_pair",
            triangle("  path \"a\" -> \"b\" = [c2]\n  path \"b\" -> \"c\" = [c0]\n  path \"a\" -> \"b\" = [c2]\n"),
        ),
        (
            "e014_path_source_mismatch",
            triangle("  path \"a\" -> \"c\" = [c0]\n"),
        ),
        (
            "e014_path_destination_mismatch",
            triangle("  path \"a\" -> \"c\" = [c2]\n"),
        ),
    ]
}

/// Three explicit nodes with channels `c0: b → c`, `c1: c → b`,
/// `c2: a → b` and `c3: b → a`, and a `table` routing section holding
/// `paths`.
fn triangle(paths: &str) -> String {
    format!(
        "{HEADER}topology {{\n  kind = explicit\n  node \"a\"\n  node \"b\"\n  node \"c\"\n  channel \"b\" -> \"c\"\n  channel \"c\" -> \"b\"\n  channel \"a\" -> \"b\"\n  channel \"b\" -> \"a\"\n}}\nrouting {{\n  engine = table\n{paths}}}\n"
    )
}

/// The snapshot text of one failing case.
fn snapshot(name: &str, source: &str) -> String {
    let origin = format!("{name}.wspec");
    let err = match compile(source) {
        Ok(_) => panic!("{name}: the source compiled, but every case must be rejected"),
        Err(e) => e,
    };
    let stage = match wormspec::parse(source) {
        Err(parse_err) => {
            assert_eq!(
                parse_err, err,
                "{name}: `compile` must return the parser's own error"
            );
            "parse"
        }
        Ok(_) => "resolve",
    };
    format!(
        "code: {}\nspan: {}..{}\nstage: {stage}\n--- rendered ---\n{}",
        err.code,
        err.span.lo,
        err.span.hi,
        err.render(source, &origin)
    )
}

#[test]
fn rendered_diagnostics_match_their_snapshots() {
    let update = std::env::var_os("UPDATE_SPECS").is_some_and(|v| v == "1");
    if update {
        std::fs::create_dir_all(snapshot_dir()).expect("create snapshot dir");
    }
    for (name, source) in cases() {
        let text = snapshot(name, &source);
        let path = snapshot_dir().join(format!("{name}.txt"));
        if update {
            std::fs::write(&path, &text).expect("write snapshot");
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing {} ({e}); regenerate with UPDATE_SPECS=1 cargo test --test spec_errors",
                path.display()
            )
        });
        assert_eq!(
            golden, text,
            "{name}: the diagnostic drifted; if intentional, regenerate with \
             UPDATE_SPECS=1 cargo test --test spec_errors"
        );
    }
}

#[test]
fn every_error_code_is_covered() {
    let cases = cases();
    for n in 1..=14 {
        let prefix = format!("e{n:03}_");
        assert!(
            cases.iter().any(|(name, _)| name.starts_with(&prefix)),
            "no case for E{n:03}"
        );
    }
    for (name, source) in &cases {
        let err = compile(source).expect_err("every case is rejected");
        assert_eq!(
            err.code.to_ascii_lowercase(),
            name[..4],
            "{name}: the case name must start with its code"
        );
    }
}

#[test]
fn snapshot_names_are_unique_and_none_is_stale() {
    let mut names: Vec<&str> = cases().iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    let total = names.len();
    names.dedup();
    assert_eq!(names.len(), total, "duplicate case names");
    if std::env::var_os("UPDATE_SPECS").is_some_and(|v| v == "1") {
        return;
    }
    for entry in std::fs::read_dir(snapshot_dir()).expect("snapshot dir exists") {
        let path = entry.expect("dir entry").path();
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        assert!(
            names.binary_search(&stem.as_str()).is_ok(),
            "stale snapshot {} has no case",
            path.display()
        );
    }
}
