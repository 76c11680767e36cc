//! Three-way cross-check of the existence engine on the full 20-target
//! corpus and on ≥100 fuzzed specs: the Mendlovic–Matias verdict must
//! agree with the classifier + exhaustive-search pipeline from both
//! sides.
//!
//! * **exists** ⇒ the witness schedule materialises into a total
//!   routing of the reachable demands which the *existing* pipeline
//!   re-certifies deadlock-free: acyclic CDG, `classify_algorithm` =
//!   `DeadlockFreeAcyclic` with a numbering that passes the
//!   independent [`check_numbering`], and `wormlint` = `free-acyclic`.
//! * **impossible** ⇒ the obstruction witness is checkable in
//!   isolation ([`wormexist::check_obstruction`]) *and* the verdict is
//!   refuted empirically: every total routing the differential fuzzer
//!   proposes on that fabric has a cyclic CDG, and on the corpus
//!   instance (`ring4_clockwise`) the exhaustive search exhibits a
//!   reachable deadlock in it.
//!
//! The fuzzed sweep reuses `wormserve::specgen` (the same seeds the
//! `spec-gate` fuzzes) so disagreements reproduce exactly by seed.

use cyclic_wormhole::cdg::{check_numbering, Cdg};
use cyclic_wormhole::core::classify::{classify_algorithm, AlgorithmVerdict, ClassifyOptions};
use cyclic_wormhole::net::Network;
use cyclic_wormhole::route::algorithms::random_table;
use cyclic_wormhole::search::{explore, SearchConfig};
use cyclic_wormhole::serve::compile;
use cyclic_wormhole::serve::specgen::generate;
use cyclic_wormhole::serve::verdict::MAX_SEARCH_MESSAGES;
use cyclic_wormhole::sim::{MessageSpec, Sim};
use rand::SeedableRng;
use wormbench::lintcorpus::corpus;
use wormexist::{analyze, check_obstruction, witness_table, ExistOptions, ExistenceVerdict};
use wormlint::{LintConfig, Registry, StaticVerdict};

/// Seeds swept in the fuzzed cross-check (acceptance floor: ≥100).
const FUZZ_SWEEP: u64 = 120;

/// Random routings proposed per `impossible` fabric.
const REFUTATION_SAMPLES: u64 = 16;

/// An `exists` verdict is only as good as its witness: materialise
/// the schedule into a routing table and push it through the whole
/// pre-existing pipeline.
fn assert_witness_recertified(name: &str, net: &Network) {
    let report = analyze(net, &ExistOptions::default());
    assert_eq!(
        report.verdict,
        ExistenceVerdict::Exists,
        "{name}: expected exists"
    );
    let witness = report.witness.as_ref().expect("exists carries a witness");
    let table = witness_table(net, witness).unwrap_or_else(|e| {
        panic!("{name}: witness failed to materialise: {e}");
    });
    assert_eq!(
        table.len(),
        report.demands,
        "{name}: witness routing must cover every reachable demand"
    );
    let cdg = Cdg::build(net, &table);
    assert!(cdg.is_acyclic(), "{name}: witness CDG must be acyclic");
    let verdict = classify_algorithm(net, &table, &ClassifyOptions::default());
    let AlgorithmVerdict::DeadlockFreeAcyclic { numbering } = &verdict else {
        panic!("{name}: classifier rejected the witness: {verdict:?}");
    };
    if let Err(e) = check_numbering(net, &table, numbering) {
        panic!("{name}: the witness's numbering certificate fails its check: {e:?}");
    }
    let lint = Registry::with_default_lints().run(net, &table, &LintConfig::default());
    assert_eq!(
        lint.verdict,
        StaticVerdict::FreeAcyclic,
        "{name}: wormlint rejected the witness"
    );
}

/// An `impossible` verdict must survive isolation checking *and*
/// empirical refutation: every fuzzer-proposed total routing on the
/// fabric has a cyclic CDG (an acyclic one would be a counterexample
/// to the obstruction).
fn assert_obstruction_refutes_fuzzed_routings(name: &str, net: &Network, seed_base: u64) {
    let report = analyze(net, &ExistOptions::default());
    assert_eq!(
        report.verdict,
        ExistenceVerdict::Impossible,
        "{name}: expected impossible"
    );
    let obs = report
        .obstruction
        .as_ref()
        .expect("impossible carries an obstruction");
    assert!(
        check_obstruction(net, &[], obs),
        "{name}: obstruction failed its isolated re-check"
    );
    for s in 0..REFUTATION_SAMPLES {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed_base ^ s);
        let detour = (s % 3) as usize;
        let Ok(table) = random_table(net, &mut rng, detour) else {
            continue;
        };
        if !table.is_total(net) {
            continue;
        }
        let cdg = Cdg::build(net, &table);
        assert!(
            !cdg.is_acyclic(),
            "{name}: fuzzer routing (seed {s}, detour {detour}) has an acyclic CDG — \
             counterexample to the obstruction"
        );
    }
}

#[test]
fn corpus_existence_verdicts_are_recertified_by_the_pipeline() {
    let mut exists = 0;
    let mut impossible = 0;
    for t in corpus() {
        let report = analyze(&t.net, &ExistOptions::default());
        match report.verdict {
            ExistenceVerdict::Exists => {
                assert_witness_recertified(&t.name, &t.net);
                exists += 1;
            }
            ExistenceVerdict::Impossible => {
                assert_obstruction_refutes_fuzzed_routings(&t.name, &t.net, 0xC0FFEE);
                impossible += 1;
            }
            ExistenceVerdict::Unknown => {
                panic!("{}: the corpus must never be undecided", t.name)
            }
        }
    }
    assert_eq!(exists + impossible, 20, "the corpus has 20 targets");
    assert_eq!(
        impossible, 1,
        "exactly the single-lane ring is unroutable ({impossible} were)"
    );
}

#[test]
fn the_ring_obstruction_is_refuted_by_exhaustive_search() {
    // The one impossible corpus fabric: the engine's deficiency
    // obstruction says *every* table deadlocks. On a unidirectional
    // ring there is exactly one path per pair, so the clockwise table
    // is the only total routing — search its cyclic configuration
    // exhaustively and exhibit the deadlock.
    let t = corpus()
        .into_iter()
        .find(|t| t.name == "ring4_clockwise")
        .expect("corpus has the ring");
    let report = analyze(&t.net, &ExistOptions::default());
    assert_eq!(report.verdict, ExistenceVerdict::Impossible);

    // One message per ring hop (r0->r2, r1->r3, r2->r0, r3->r1): the
    // four two-hop messages that together occupy the whole ring.
    let specs: Vec<MessageSpec> = (0..4)
        .map(|i| {
            MessageSpec::new(
                wormnet::NodeId::from_index(i),
                wormnet::NodeId::from_index((i + 2) % 4),
                2,
            )
        })
        .collect();
    let sim = Sim::new(&t.net, &t.table, specs, Some(1)).expect("ring routes its pairs");
    let result = explore(&sim, &SearchConfig::default());
    assert!(
        result.verdict.is_deadlock(),
        "exhaustive search must exhibit the deadlock the obstruction promises"
    );
}

#[test]
fn fuzzed_specs_agree_with_the_pipeline() {
    let mut exists = 0;
    let mut impossible = 0;
    for seed in 0..FUZZ_SWEEP {
        let source = generate(seed);
        let job = compile(&source)
            .unwrap_or_else(|e| panic!("seed {seed}: {}", e.render(&source, "specgen")));
        let name = format!("fuzz seed {seed}");
        let report = analyze(job.network(), &job.exist_options);
        match report.verdict {
            ExistenceVerdict::Exists => {
                assert_witness_recertified(&name, job.network());
                exists += 1;
            }
            ExistenceVerdict::Impossible => {
                assert_obstruction_refutes_fuzzed_routings(&name, job.network(), seed);
                impossible += 1;
            }
            ExistenceVerdict::Unknown => {
                // Budgets are finite; unknown contradicts nothing. The
                // sweep assertions below keep this path from hiding a
                // regression that turns everything undecided.
            }
        }
    }
    assert!(
        exists >= 50,
        "the sweep must exercise the witness side broadly ({exists} seeds)"
    );
    assert!(
        impossible >= 1,
        "the sweep must exercise the obstruction side ({impossible} seeds)"
    );
}

#[test]
fn deadlockable_tables_on_routable_fabrics_never_contradict_exists() {
    // The sharper differential, on the corpus instance built for it:
    // fig2's table has a search-exhibitable deadlock, yet the fabric's
    // existence verdict is `exists`. Search finding the deadlock in
    // *that table* must not be mistaken for unroutability — the
    // witness routing of the same fabric stays certified.
    let c = cyclic_wormhole::core::paper::fig2::two_message_deadlock();
    let report = analyze(&c.net, &ExistOptions::default());
    assert_eq!(report.verdict, ExistenceVerdict::Exists);

    let specs = c.message_specs();
    assert!(specs.len() <= MAX_SEARCH_MESSAGES);
    let sim = Sim::new(&c.net, &c.table, specs, Some(1)).expect("fig2 routes its messages");
    assert!(
        explore(&sim, &SearchConfig::default())
            .verdict
            .is_deadlock(),
        "fig2's table must deadlock under search"
    );
    assert_witness_recertified("fig2 (witness)", &c.net);
}
