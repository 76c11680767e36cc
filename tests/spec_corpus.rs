//! The committed `.wspec` corpus under `corpus/` must be *equivalent*
//! to the hard-coded lint-corpus constructions: building each spec
//! through the resolution seams and linting the result must reproduce
//! the committed `LINT_corpus.json` golden **byte for byte**.
//!
//! The corpus has two kinds of files:
//!
//! - **hand-written** named-topology specs (`mesh_3x3_dor`,
//!   `ring4_clockwise`, ...) — maintained by hand, never regenerated;
//! - **machine-lifted** explicit specs (`fig1`, `fig2`, `fig3_*`,
//!   `g1`..`g5`) — produced by `wormserve::lift` from the paper
//!   constructions. To regenerate after an intentional change:
//!
//!   ```text
//!   UPDATE_SPECS=1 cargo test --test spec_corpus
//!   ```
//!
//!   then commit the updated files together with the change.

use std::collections::BTreeSet;
use std::path::PathBuf;

use worm_core::classify::{classify_algorithm, AlgorithmVerdict};
use worm_core::spec::options_from_spec;
use wormbench::lintcorpus::corpus;
use wormcdg::check_numbering;
use wormlint::{reports_to_json, LintConfig, LintReport, Registry};
use wormnet::spec::build_topology;
use wormroute::spec::table_from_spec;

/// The machine-lifted subset (everything else is hand-written).
const LIFTED: &[&str] = &[
    "fig1", "fig2", "fig3_a", "fig3_b", "fig3_c", "fig3_d", "fig3_e", "fig3_f", "g1", "g2", "g3",
    "g4", "g5",
];

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

fn spec_path(name: &str) -> PathBuf {
    corpus_dir().join(format!("{name}.wspec"))
}

fn maybe_regenerate() {
    if std::env::var_os("UPDATE_SPECS").is_none_or(|v| v != "1") {
        return;
    }
    for target in corpus() {
        if !LIFTED.contains(&target.name.as_str()) {
            continue;
        }
        let spec = wormserve::lift(&target.net, &target.table);
        // `to_spec` emits the header itself; splice the comment banner
        // in between so the file still has exactly one header line.
        let text = format!(
            "wormspec/1\n\n# Machine-lifted from the `{}` lint-corpus construction.\n# Regenerate with: UPDATE_SPECS=1 cargo test --test spec_corpus\n{}",
            target.name,
            wormspec::to_spec(&spec)
                .strip_prefix("wormspec/1\n")
                .expect("canonical text starts with the header")
        );
        std::fs::write(spec_path(&target.name), text).expect("write lifted spec");
    }
}

/// A committed spec, parsed and built through the resolution seams.
struct Built {
    spec: wormspec::Spec,
    topo: wormnet::spec::BuiltTopology,
    table: wormroute::TableRouting,
}

fn build_wspec(name: &str) -> Built {
    let path = spec_path(name);
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); lifted specs regenerate with UPDATE_SPECS=1 cargo test --test spec_corpus",
            path.display()
        )
    });
    let spec = wormspec::parse(&source)
        .unwrap_or_else(|e| panic!("{}", e.render(&source, &path.display().to_string())));
    let topo = build_topology(&spec.topology)
        .unwrap_or_else(|e| panic!("{}", e.render(&source, &path.display().to_string())));
    let table = table_from_spec(&spec.routing, &topo)
        .unwrap_or_else(|e| panic!("{}", e.render(&source, &path.display().to_string())));
    Built { spec, topo, table }
}

/// Build a committed spec through the resolution seams and lint it.
fn lint_from_wspec(name: &str, registry: &Registry, config: &LintConfig) -> LintReport {
    let b = build_wspec(name);
    registry.run(b.topo.network(), &b.table, config)
}

#[test]
fn wspec_corpus_reproduces_the_golden_lint_report() {
    maybe_regenerate();
    let registry = Registry::with_default_lints();
    let config = LintConfig::default();
    let targets = corpus();
    let reports: Vec<(String, LintReport)> = targets
        .iter()
        .map(|t| (t.name.clone(), lint_from_wspec(&t.name, &registry, &config)))
        .collect();
    let named: Vec<(&str, &LintReport)> = reports.iter().map(|(n, r)| (n.as_str(), r)).collect();
    let actual = reports_to_json(&named);
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("LINT_corpus.json");
    let golden = std::fs::read_to_string(&golden_path).expect("committed golden");
    assert_eq!(
        golden, actual,
        "the .wspec corpus no longer reproduces LINT_corpus.json — the \
         spec-driven build diverged from the hard-coded constructions"
    );
}

/// Every `DeadlockFreeAcyclic` verdict the classifier reaches on the
/// corpus, under each spec's own verify options, carries a numbering
/// that the independent path-walking checker accepts.
#[test]
fn every_acyclic_corpus_verdict_passes_the_numbering_check() {
    let mut acyclic = 0;
    for target in corpus() {
        let b = build_wspec(&target.name);
        let opts = options_from_spec(b.spec.verify.as_ref()).expect("verify options resolve");
        let net = b.topo.network();
        if let AlgorithmVerdict::DeadlockFreeAcyclic { numbering } =
            classify_algorithm(net, &b.table, &opts)
        {
            if let Err(e) = check_numbering(net, &b.table, &numbering) {
                panic!("{}: {e:?}", target.name);
            }
            acyclic += 1;
        }
    }
    // The five `free-acyclic` targets of LINT_corpus.json.
    assert_eq!(acyclic, 5, "acyclic corpus verdicts");
}

#[test]
fn every_target_has_a_spec_and_no_spec_is_stray() {
    let expected: BTreeSet<String> = corpus().iter().map(|t| t.name.clone()).collect();
    let committed: BTreeSet<String> = std::fs::read_dir(corpus_dir())
        .expect("corpus/ exists")
        .filter_map(Result::ok)
        .filter_map(|e| {
            let path = e.path();
            (path.extension().and_then(|x| x.to_str()) == Some("wspec"))
                .then(|| path.file_stem().unwrap().to_string_lossy().into_owned())
        })
        .collect();
    assert_eq!(expected, committed);
}

#[test]
fn committed_specs_are_round_trip_stable() {
    for target in corpus() {
        let source = std::fs::read_to_string(spec_path(&target.name)).expect("spec file");
        let spec = wormspec::parse(&source).expect("committed spec parses");
        let printed = wormspec::to_spec(&spec);
        let reparsed = wormspec::parse(&printed).expect("canonical text parses");
        assert_eq!(
            reparsed, spec,
            "{}: parse∘print must be identity",
            target.name
        );
        assert_eq!(
            wormspec::content_hash_hex(&spec),
            wormspec::content_hash_hex(&reparsed),
            "{}: hash must survive canonicalization",
            target.name
        );
    }
}

#[test]
fn lifted_specs_match_a_fresh_lift() {
    for target in corpus() {
        if !LIFTED.contains(&target.name.as_str()) {
            continue;
        }
        let source = std::fs::read_to_string(spec_path(&target.name)).expect("spec file");
        let committed = wormspec::parse(&source).expect("committed spec parses");
        let fresh = wormserve::lift(&target.net, &target.table);
        assert_eq!(
            committed, fresh,
            "{}: committed lifted spec drifted from the construction; \
             regenerate with UPDATE_SPECS=1 cargo test --test spec_corpus",
            target.name
        );
    }
}
