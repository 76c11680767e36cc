//! Differential tests for `wormlint`: every static claim the lints
//! make is cross-checked against the classifier
//! (`worm_core::classify`) and the exhaustive reachability search
//! (`wormsearch`).
//!
//! Three kinds of agreement are enforced:
//!
//! 1. **Verdict compatibility** — the lint verdict never contradicts
//!    `classify_algorithm` (which may additionally use search), on the
//!    whole corpus and on randomly generated routing tables.
//! 2. **"Provably free" means search-free** — whenever the lints
//!    declare a spec `free-acyclic`/`free-cyclic`, the exhaustive
//!    search over that spec's benchmark scenario finds no deadlock.
//! 3. **Certificates are reachable** — every Theorem 2/3/4/5
//!    reachable-deadlock certificate is confirmed by searching the
//!    certificate's own message set (sweeping small adversarial stall
//!    budgets: the paper's router can differ from this crate's
//!    conservative one by one stall on boundary geometries, see
//!    `verify_theorems_with_search` in `worm_core::classify`).
//!
//! The corpus and random-table loops also hold the service's fast
//! path to the standalone one, which stays its oracle: the lint
//! summary counted without rendering equals the one read off the
//! rendered `Registry::run`, and the classifier view over a shared
//! analysis equals standalone `classify_algorithm` — verdict, cycles,
//! every visited candidate's class and reachability, and where each
//! cycle stops — under the static options, with the search fallback,
//! and in model-exact mode.

use cyclic_wormhole::cdg::describe_candidate;
use cyclic_wormhole::core::classify::{classify_algorithm, AlgorithmVerdict, ClassifyOptions};
use cyclic_wormhole::exist::ExistOptions;
use cyclic_wormhole::net::topology::Mesh;
use cyclic_wormhole::net::Network;
use cyclic_wormhole::route::algorithms::random_table;
use cyclic_wormhole::route::TableRouting;
use cyclic_wormhole::search::{explore, SearchConfig};
use cyclic_wormhole::sim::{MessageSpec, Sim};
use proptest::prelude::*;
use rand::SeedableRng;
use wormbench::lintcorpus::corpus;
use wormbench::scenarios::search_scenarios;
use wormlint::{LintConfig, LintContext, Registry, StaticVerdict};

/// `true` when a lint verdict and a classifier verdict could describe
/// the same spec. The lint verdict is coarser (no search), so
/// `Undecided` is compatible with everything and the classifier's
/// `Unknown` contradicts nothing.
fn compatible(lint: StaticVerdict, classifier: &AlgorithmVerdict) -> bool {
    match lint {
        StaticVerdict::FreeAcyclic => {
            matches!(classifier, AlgorithmVerdict::DeadlockFreeAcyclic { .. })
        }
        StaticVerdict::FreeCyclic => matches!(
            classifier,
            AlgorithmVerdict::DeadlockFreeWithCycles { .. } | AlgorithmVerdict::Unknown { .. }
        ),
        StaticVerdict::Deadlockable => matches!(
            classifier,
            AlgorithmVerdict::Deadlockable { .. } | AlgorithmVerdict::Unknown { .. }
        ),
        StaticVerdict::Undecided => true,
    }
}

/// The static, search-assisted and model-exact classifier options, with
/// the lint configuration's enumeration budgets.
fn classify_presets() -> [ClassifyOptions; 3] {
    [
        ClassifyOptions {
            use_search: false,
            ..ClassifyOptions::default()
        },
        ClassifyOptions::default(),
        ClassifyOptions::model_exact(),
    ]
}

/// The unrendered lint summary and the classifier view over one shared
/// analysis equal what the standalone entry points produce.
fn assert_fast_path_matches_oracle(
    name: &str,
    net: &Network,
    table: &TableRouting,
    presets: &[ClassifyOptions],
) {
    let registry = Registry::with_default_lints();
    let config = LintConfig::default();
    let analysis = LintContext::build(
        net,
        table,
        config.max_cycles,
        config.max_candidates,
        &ExistOptions::default(),
    );
    assert_eq!(
        registry.summarize(&analysis, &config),
        registry.run(net, table, &config).summary(),
        "{name}: counted and rendered lint summaries differ"
    );
    for opts in presets {
        // The verdicts' debug form spells out every visited candidate
        // with its class and reachability, cycle by cycle.
        assert_eq!(
            format!("{:?}", analysis.classify(opts)),
            format!("{:?}", classify_algorithm(net, table, opts)),
            "{name}: classifier view differs from classify_algorithm under {opts:?}"
        );
    }
}

/// Search the candidate's own message set (minimum lengths) for any
/// deadlock, sweeping stall budgets `0..=2`.
fn certificate_confirmed(
    net: &Network,
    table: &TableRouting,
    ctx_candidate: &wormlint::CandidateAnalysis<'_>,
) -> bool {
    let specs: Vec<MessageSpec> = ctx_candidate
        .segments
        .iter()
        .map(|s| MessageSpec::new(s.msg.0, s.msg.1, s.len as usize))
        .collect();
    let Ok(sim) = Sim::new(net, table, specs, Some(1)) else {
        return false;
    };
    (0..=2).any(|stall_budget| {
        explore(
            &sim,
            &SearchConfig {
                stall_budget,
                ..SearchConfig::default()
            },
        )
        .verdict
        .is_deadlock()
    })
}

/// 1a. Corpus-wide verdict compatibility with the classifier, and the
/// fast path against its oracle.
///
/// The exhaustive-search fallback makes classification of the larger
/// `G(k)` instances expensive in debug builds, so those are compared
/// without search (`Unknown` then contradicts nothing).
#[test]
fn corpus_lint_verdicts_agree_with_classifier() {
    let registry = Registry::with_default_lints();
    let config = LintConfig::default();
    for t in corpus() {
        let report = t.run(&registry, &config);
        let searchable = !t.name.starts_with('g') && t.name != "fig1";
        let opts = ClassifyOptions {
            use_search: searchable,
            ..ClassifyOptions::default()
        };
        let classifier = classify_algorithm(&t.net, &t.table, &opts);
        assert!(
            compatible(report.verdict, &classifier),
            "{}: lint {} vs classifier {classifier:?}",
            t.name,
            report.verdict
        );
        let presets = classify_presets();
        let presets = if searchable {
            &presets[..]
        } else {
            &presets[..1]
        };
        assert_fast_path_matches_oracle(&t.name, &t.net, &t.table, presets);
    }
}

/// 1b. The search-assisted classifier agrees with the lint verdict on
/// the specs the theorems fully decide — including that `free-cyclic`
/// (Figure 3(a)/(b)) survives the classifier's exhaustive search.
#[test]
fn theorem_decided_corpus_verdicts_match_search_assisted_classifier() {
    let registry = Registry::with_default_lints();
    let config = LintConfig::default();
    for t in corpus() {
        let report = t.run(&registry, &config);
        if report.verdict == StaticVerdict::Undecided {
            continue;
        }
        let classifier = classify_algorithm(&t.net, &t.table, &ClassifyOptions::default());
        let matches = match report.verdict {
            StaticVerdict::FreeAcyclic => {
                matches!(classifier, AlgorithmVerdict::DeadlockFreeAcyclic { .. })
            }
            StaticVerdict::FreeCyclic => {
                matches!(classifier, AlgorithmVerdict::DeadlockFreeWithCycles { .. })
            }
            StaticVerdict::Deadlockable => {
                matches!(classifier, AlgorithmVerdict::Deadlockable { .. })
            }
            StaticVerdict::Undecided => unreachable!(),
        };
        assert!(
            matches,
            "{}: lint {} vs search-assisted classifier {classifier:?}",
            t.name, report.verdict
        );
    }
}

/// 2. "Provably deadlock-free" lint verdicts agree with the search:
///    scenarios whose corpus target the lints certify free never
///    deadlock under exhaustive search, and `Deadlockable` targets'
///    scenarios do.
#[test]
fn lint_verdicts_agree_with_search_on_scenarios() {
    let registry = Registry::with_default_lints();
    let config = LintConfig::default();
    let verdicts: std::collections::BTreeMap<String, StaticVerdict> = corpus()
        .iter()
        .map(|t| (t.name.clone(), t.run(&registry, &config).verdict))
        .collect();
    let mut checked = 0;
    for s in search_scenarios() {
        // The larger family instances are too slow for debug-mode
        // exhaustive search here; they are covered by e2e_paper.rs.
        if matches!(s.name.as_str(), "g3" | "g4" | "g5") {
            continue;
        }
        let lint = verdicts[&s.name];
        let result = explore(&s.sim, &s.config());
        match lint {
            StaticVerdict::FreeAcyclic | StaticVerdict::FreeCyclic => {
                assert!(
                    result.verdict.is_free(),
                    "{}: lint says free, search found a deadlock",
                    s.name
                );
            }
            StaticVerdict::Deadlockable => {
                assert!(
                    result.verdict.is_deadlock(),
                    "{}: lint certified a deadlock, search found none",
                    s.name
                );
            }
            StaticVerdict::Undecided => {} // no static claim to check
        }
        checked += 1;
    }
    assert!(checked >= 9, "scenario coverage collapsed ({checked})");
}

/// 3. Every Theorem 2/3/4/5 reachable-deadlock certificate in the
///    corpus is search-confirmed on the certificate's own message set.
#[test]
fn deadlock_certificates_are_search_confirmed() {
    let mut confirmed = 0;
    for t in corpus() {
        let ctx = LintContext::build(&t.net, &t.table, 10_000, 10_000, &ExistOptions::default());
        for (cy, ca) in ctx.candidates() {
            if ca.class.reachable() != Some(true) {
                continue;
            }
            assert!(
                certificate_confirmed(&t.net, &t.table, &ca),
                "{}: certificate {:?} not search-confirmed",
                t.name,
                describe_candidate(&t.net, &cy.cycle, ca.segments)
            );
            confirmed += 1;
        }
    }
    // fig2 + four reachable fig3 scenarios + the ring cycles all carry
    // certificates; if this count collapses the test went vacuous.
    assert!(confirmed >= 6, "only {confirmed} certificates confirmed");
}

/// JSON reports are byte-deterministic across repeated runs (the
/// committed `LINT_corpus.json` relies on this; `tests/lint_snapshots.rs`
/// pins the actual bytes).
#[test]
fn json_reports_are_deterministic() {
    let registry = Registry::with_default_lints();
    let config = LintConfig::default();
    let render = || {
        let targets = corpus();
        let reports: Vec<(String, wormlint::LintReport)> = targets
            .iter()
            .map(|t| (t.name.clone(), t.run(&registry, &config)))
            .collect();
        let named: Vec<(&str, &wormlint::LintReport)> =
            reports.iter().map(|(n, r)| (n.as_str(), r)).collect();
        wormlint::reports_to_json(&named)
    };
    let a = render();
    let b = render();
    assert_eq!(a, b);
    assert!(a.starts_with("{\n  \"schema\": \"wormlint/1\","));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random routing tables: the lint verdict never contradicts the
    /// search-assisted classifier, and certified-free specs really
    /// have no reachable candidate.
    #[test]
    fn random_tables_lint_agrees_with_classifier(seed in 0u64..400, detour in 0usize..3) {
        let mesh = Mesh::new(&[3, 2]);
        let net = mesh.network();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let table = random_table(net, &mut rng, detour).expect("routes");

        let report = Registry::with_default_lints().run(net, &table, &LintConfig::default());
        let classifier = classify_algorithm(net, &table, &ClassifyOptions::default());
        prop_assert!(
            compatible(report.verdict, &classifier),
            "seed {seed}: lint {} vs classifier {classifier:?}",
            report.verdict
        );

        // Structural sanity on the random spec's diagnostics: W2xx
        // diagnostics appear iff the CDG is cyclic.
        let has_cycle_diag = report.diagnostics.iter().any(|d| d.code.starts_with("W2"));
        let cyclic = !matches!(classifier, AlgorithmVerdict::DeadlockFreeAcyclic { .. });
        prop_assert_eq!(has_cycle_diag, cyclic, "seed {}", seed);

        // Model-exact mode searches every theorem-reachable candidate,
        // minutes of debug-build search over random tables; the corpus
        // loop covers it.
        assert_fast_path_matches_oracle(&format!("seed {seed}"), net, &table, &classify_presets()[..2]);
    }
}
