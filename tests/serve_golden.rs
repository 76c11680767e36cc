//! Golden `wormserve/1` documents: the service's verdict bytes for a
//! fixed set of specs, committed under `tests/snapshots/serve/`.
//!
//! The set covers the 20 corpus specs and the shapes the corpus does
//! not reach:
//!
//! - two deadlockable fabrics that exhaust the candidate budget at
//!   `max_cycles = 8 max_candidates = 256` (the 80-channel single-lane
//!   dragonfly and a 16-node clockwise ring), with their `W207` budget
//!   findings and large `W202`/`W203` counts;
//! - `fig1` under `verify { engine = search }`, where the classifier
//!   falls back to exhaustive search;
//! - the 13 paper constructions (Figures 1–3 and `G(1)`–`G(5)`) with
//!   their shared channel `c_s` down from cycle 0, under the full
//!   engine (search, fault-aware simulation and the `faults` block):
//!   each run starves, and its `sim` block pins the timeout at the
//!   horizon;
//! - `fig1` with `c_s` out on cycles `0..5000`: the run delivers just
//!   after the channel comes back, so its `sim` block pins the exact
//!   cycle the simulation resumes at;
//! - a spec whose existence verdict is `unknown` under
//!   `verify { max_states = 1 }`, so its lint block must say `W304`.
//!
//! To regenerate after an intentional change to the documents:
//!
//! ```text
//! UPDATE_SPECS=1 cargo test --test serve_golden
//! ```
//!
//! then commit the updated files together with the change.

use std::fmt::Write as _;
use std::path::PathBuf;

use cyclic_wormhole::core::family::CycleConstruction;
use cyclic_wormhole::core::paper::{fig1, fig2, fig3, generalized};
use cyclic_wormhole::net::topology::ring_unidirectional;
use cyclic_wormhole::route::algorithms::shortest_path_table;
use cyclic_wormhole::serve::specgen::generate;
use cyclic_wormhole::serve::{compile, lift, verdict_json};
use cyclic_wormhole::sim::MessageSpec;

fn snapshot_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/serve")
}

fn corpus_source(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("corpus")
        .join(format!("{name}.wspec"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A production fabric under the static engine with the explicit
/// enumeration budgets the benchmark's deadlockable fabrics use.
fn budgeted_fabric(topology: &str, engine: &str) -> String {
    format!(
        "wormspec/1\ntopology {{\n  {topology}\n}}\nrouting {{\n  engine = {engine}\n}}\n\
         verify {{\n  engine = static\n  max_cycles = 8\n  max_candidates = 256\n}}\n"
    )
}

/// A paper construction with its messages and one fault declaration
/// on its shared channel `c_s` (`{c}` in `fault` names it), under the
/// full engine with one-flit buffers.
fn faulted_construction(c: &CycleConstruction, messages: &[MessageSpec], fault: &str) -> String {
    let mut s = wormspec::to_spec(&lift(&c.net, &c.table));
    s.push_str("traffic {\n  pattern = explicit\n");
    for m in messages {
        let _ = writeln!(
            s,
            "  message \"{}\" -> \"{}\" length {} flits",
            c.net.node_name(m.src),
            c.net.node_name(m.dst),
            m.length
        );
    }
    let fault = fault.replace("{c}", &format!("c{}", c.cs.index()));
    let _ = write!(
        s,
        "}}\nfaults {{\n  {fault}\n}}\nverify {{\n  engine = full\n  capacity = 1 flits\n}}\n"
    );
    s
}

/// The 13 paper constructions with the message sets their experiments
/// use, each with `c_s` permanently down from cycle 0, plus Figure 1
/// with `c_s` out on cycles `0..5000`.
fn faulted_constructions() -> Vec<(String, String)> {
    const DOWN: &str = "down {c} @ 0 cycles";
    let fig1 = fig1::cyclic_dependency();
    let fig2 = fig2::two_message_deadlock();
    let mut out = vec![
        (
            "fig1_cs_down".to_string(),
            faulted_construction(&fig1, &fig1.message_specs(), DOWN),
        ),
        (
            "fig1_cs_outage".to_string(),
            faulted_construction(&fig1, &fig1.message_specs(), "outage {c} @ 0..5000 cycles"),
        ),
        (
            "fig2_cs_down".to_string(),
            faulted_construction(&fig2, &fig2.message_specs(), DOWN),
        ),
    ];
    for scenario in fig3::all_scenarios() {
        let c = scenario.spec.build();
        out.push((
            format!("fig3_{}_cs_down", scenario.name),
            faulted_construction(&c, &scenario.message_specs(&c), DOWN),
        ));
    }
    for k in 1..=5 {
        let c = generalized::generalized(k);
        out.push((
            format!("g{k}_cs_down"),
            faulted_construction(&c, &generalized::minimum_length_specs(&c), DOWN),
        ));
    }
    out
}

/// A 5-node unidirectional ring with back channels `r1→r0`, `r3→r2`
/// and `r0→r4` and the chord `r0→r2`, routed on shortest paths. One
/// state of exact-game budget leaves its existence undecided.
fn undecided_existence() -> String {
    let (mut net, r) = ring_unidirectional(5);
    for (a, b) in [(1, 0), (3, 2), (0, 4), (0, 2)] {
        net.add_channel(r[a], r[b]);
    }
    let table = shortest_path_table(&net).expect("strongly connected");
    let mut s = wormspec::to_spec(&lift(&net, &table));
    s.push_str("verify {\n  max_states = 1\n}\n");
    s
}

/// Every golden case: `(snapshot name, spec source)`.
fn cases() -> Vec<(String, String)> {
    let mut names: Vec<String> =
        std::fs::read_dir(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus"))
            .expect("corpus/ exists")
            .filter_map(Result::ok)
            .filter_map(|e| {
                let path = e.path();
                (path.extension().and_then(|x| x.to_str()) == Some("wspec"))
                    .then(|| path.file_stem().unwrap().to_string_lossy().into_owned())
            })
            .collect();
    names.sort();
    assert_eq!(names.len(), 20, "corpus size");
    let mut cases: Vec<(String, String)> = names
        .into_iter()
        .map(|n| {
            let source = corpus_source(&n);
            (format!("corpus_{n}"), source)
        })
        .collect();
    cases.push((
        "dragonfly_single_lane_5x4".into(),
        budgeted_fabric(
            "kind = dragonfly\n  groups = 5\n  routers = 4\n  local_lanes = [0]\n  global_lanes = [0]",
            "dragonfly_minimal",
        ),
    ));
    cases.push((
        "ring16_clockwise".into(),
        budgeted_fabric("kind = ring\n  nodes = 16", "clockwise_ring"),
    ));
    cases.push((
        "fig1_search".into(),
        format!(
            "{}verify {{\n  engine = search\n}}\n",
            corpus_source("fig1")
        ),
    ));
    cases.extend(faulted_constructions());
    cases.push(("existence_undecided".into(), undecided_existence()));
    cases
}

fn document(name: &str, source: &str) -> String {
    let job = compile(source).unwrap_or_else(|e| panic!("{}", e.render(source, name)));
    verdict_json(&job)
}

/// The value of the first `"key":` in `doc`: an object up to its
/// matching brace, or a scalar up to the next `,` or `}`.
fn field<'d>(doc: &'d str, key: &str) -> &'d str {
    let pat = format!("\"{key}\":");
    let start = doc
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {doc}"))
        + pat.len();
    let rest = &doc[start..];
    let end = if rest.starts_with('{') {
        let mut depth = 0;
        rest.char_indices()
            .find_map(|(i, c)| {
                match c {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
                (depth == 0).then_some(i + 1)
            })
            .expect("balanced object")
    } else {
        rest.find([',', '}']).unwrap_or(rest.len())
    };
    &rest[..end]
}

/// `W301` iff existence is `exists`, `W302` iff `impossible`, `W304`
/// iff `unknown`: the lint block and the existence block describe the
/// same existence run.
fn assert_existence_lints_agree(name: &str, doc: &str) {
    let verdict = field(field(doc, "existence"), "verdict");
    let counts = field(field(doc, "lint"), "counts");
    for (code, want) in [
        ("W301", "\"exists\""),
        ("W302", "\"impossible\""),
        ("W304", "\"unknown\""),
    ] {
        assert_eq!(
            counts.contains(&format!("\"{code}\":")),
            verdict == want,
            "{name}: existence {verdict} vs lint counts {counts}"
        );
    }
}

#[test]
fn served_documents_match_the_golden_files() {
    let update = std::env::var_os("UPDATE_SPECS").is_some_and(|v| v == "1");
    if update {
        std::fs::create_dir_all(snapshot_dir()).expect("create snapshot dir");
    }
    for (name, source) in cases() {
        let doc = document(&name, &source);
        let path = snapshot_dir().join(format!("{name}.json"));
        if update {
            std::fs::write(&path, format!("{doc}\n")).expect("write golden document");
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing {} ({e}); regenerate with UPDATE_SPECS=1 cargo test --test serve_golden",
                path.display()
            )
        });
        assert_eq!(
            golden.trim_end(),
            doc,
            "{name}: the served document drifted; if intentional, regenerate with \
             UPDATE_SPECS=1 cargo test --test serve_golden"
        );
    }
}

#[test]
fn no_golden_file_is_stray() {
    let expected: Vec<String> = {
        let mut v: Vec<String> = cases()
            .into_iter()
            .map(|(n, _)| format!("{n}.json"))
            .collect();
        v.sort();
        v
    };
    let mut committed: Vec<String> = std::fs::read_dir(snapshot_dir())
        .expect("tests/snapshots/serve exists")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    committed.sort();
    assert_eq!(expected, committed);
}

#[test]
fn existence_lints_agree_with_the_existence_block() {
    for (name, source) in cases() {
        assert_existence_lints_agree(&name, &document(&name, &source));
    }
    // The pinned fuzz window of `wormserve --fuzz 40 --seed 0`.
    for seed in 0..40 {
        let source = generate(seed);
        assert_existence_lints_agree(
            &format!("specgen seed {seed}"),
            &document("specgen", &source),
        );
    }
}
