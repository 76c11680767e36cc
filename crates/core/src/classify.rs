//! The overall classification pipeline: from a routing algorithm to a
//! deadlock verdict with provenance.
//!
//! The paper's program is: an acyclic CDG proves deadlock freedom
//! (Dally–Seitz), but a cyclic CDG proves nothing by itself — each
//! cycle must be examined. Theorems 2–5 decide many cycles purely
//! structurally; what they leave open falls back to exhaustive
//! reachability search. A routing algorithm whose every cycle is
//! unreachable is deadlock-free *despite* its cyclic dependencies —
//! the paper's headline phenomenon.

use std::borrow::Borrow;

use wormcdg::sharing::CycleIndex;
use wormcdg::{enumerate_candidates, Cdg, CdgCycle, DeadlockCandidate, Witnesses};
use wormnet::Network;
use wormroute::{properties, TableRouting};
use wormsearch::{explore, explore_until, SearchConfig, Verdict};
use wormsim::{MessageId, MessageSpec, Sim};

use crate::analysis::{Analysis, CandidateAnalysis, StaticClass};
use crate::conditions::EightConditions;

/// Why a candidate was classified the way it was.
#[derive(Clone, Debug)]
pub enum CycleClass {
    /// No channel is shared outside the cycle: Theorem 2 (and its
    /// corollaries) make the deadlock reachable.
    NoOutsideSharing,
    /// A channel outside the cycle is shared by exactly two messages:
    /// Theorem 4 makes the deadlock reachable.
    TwoSharers,
    /// Minimal routing with a single shared channel used by every
    /// configuration message: Theorem 3 makes the deadlock reachable.
    MinimalAllShare,
    /// A single outside channel shared by exactly three messages:
    /// Theorem 5's eight conditions decide.
    ThreeSharers(EightConditions),
    /// Outside the theorems' scope (four or more sharers, or several
    /// shared channels): decided by exhaustive search.
    DecidedBySearch {
        /// Whether the search found a reachable deadlock.
        reachable: bool,
        /// States the search visited.
        states: usize,
    },
    /// Search budget exhausted.
    Unknown,
}

/// Verdict for one static deadlock candidate.
#[derive(Clone, Debug)]
pub struct CandidateVerdict {
    /// The candidate configuration.
    pub candidate: DeadlockCandidate,
    /// How it was decided.
    pub class: CycleClass,
    /// `Some(true)` = a deadlock is reachable; `Some(false)` = this
    /// candidate is an unreachable configuration (false resource
    /// cycle); `None` = undecided.
    pub reachable: Option<bool>,
}

/// Verdict for one CDG cycle: reachable iff any candidate is.
#[derive(Clone, Debug)]
pub struct CycleVerdict {
    /// The cycle.
    pub cycle: CdgCycle,
    /// Per-candidate verdicts. Classification short-circuits at the
    /// first reachable candidate, so this may not cover every
    /// enumerated candidate when the answer is "deadlockable".
    pub candidates: Vec<CandidateVerdict>,
    /// Whether candidate enumeration covered every static
    /// configuration (false when the enumeration budget ran out).
    pub enumeration_complete: bool,
}

impl CycleVerdict {
    /// `Some(true)` if some candidate deadlock is reachable;
    /// `Some(false)` if enumeration was complete and every candidate
    /// is unreachable (a false resource cycle); `None` if undecided.
    pub fn reachable(&self) -> Option<bool> {
        if self.candidates.iter().any(|c| c.reachable == Some(true)) {
            return Some(true);
        }
        if self.enumeration_complete && self.candidates.iter().all(|c| c.reachable == Some(false)) {
            // Covers the empty case too: no static configuration
            // exists at all.
            return Some(false);
        }
        None
    }
}

/// Whole-algorithm verdict.
#[derive(Clone, Debug)]
pub enum AlgorithmVerdict {
    /// The CDG is acyclic: deadlock-free by Dally–Seitz, with the
    /// channel numbering as certificate.
    DeadlockFreeAcyclic {
        /// The strictly-increasing channel numbering.
        numbering: Vec<usize>,
    },
    /// The CDG has cycles but every one is unreachable: deadlock-free
    /// with cyclic dependencies — the paper's phenomenon.
    DeadlockFreeWithCycles {
        /// Per-cycle verdicts (all unreachable).
        cycles: Vec<CycleVerdict>,
    },
    /// Some cycle's deadlock is reachable.
    Deadlockable {
        /// Per-cycle verdicts.
        cycles: Vec<CycleVerdict>,
    },
    /// Could not be decided within budgets.
    Unknown {
        /// Per-cycle verdicts (some undecided).
        cycles: Vec<CycleVerdict>,
    },
}

impl AlgorithmVerdict {
    /// Whether the verdict certifies deadlock freedom.
    pub fn is_deadlock_free(&self) -> Option<bool> {
        match self {
            AlgorithmVerdict::DeadlockFreeAcyclic { .. }
            | AlgorithmVerdict::DeadlockFreeWithCycles { .. } => Some(true),
            AlgorithmVerdict::Deadlockable { .. } => Some(false),
            AlgorithmVerdict::Unknown { .. } => None,
        }
    }
}

/// Budgets and switches for classification.
#[derive(Clone, Debug)]
pub struct ClassifyOptions {
    /// Cycle budget: at most this many elementary cycles are
    /// enumerated; when more exist the enumeration is incomplete.
    pub max_cycles: usize,
    /// Candidate budget per cycle: enumeration stops at the first
    /// candidate past it, so an incomplete cycle holds
    /// `max_candidates + 1` candidates.
    pub max_candidates: usize,
    /// Whether to fall back to exhaustive search for cycles the
    /// theorems don't decide.
    pub use_search: bool,
    /// State budget per search.
    pub search_max_states: usize,
    /// Re-verify theorem-decided "reachable" candidates by exhaustive
    /// search before reporting them.
    ///
    /// The Theorem 2/3/4 shortcuts follow the *paper's* router model;
    /// under this crate's conservative router a boundary instance can
    /// differ by one cycle (e.g. Theorem 4's `d1 == d2` diagonal needs
    /// one adversarial stall here, see EXPERIMENTS.md). With this flag
    /// the verdict is exact for this model: a theorem-reachable
    /// candidate that the search refutes is downgraded to
    /// [`CycleClass::DecidedBySearch`] with `reachable = false`.
    pub verify_theorems_with_search: bool,
}

impl Default for ClassifyOptions {
    fn default() -> Self {
        ClassifyOptions {
            max_cycles: 10_000,
            max_candidates: 10_000,
            use_search: true,
            search_max_states: 2_000_000,
            verify_theorems_with_search: false,
        }
    }
}

impl ClassifyOptions {
    /// Model-exact mode: every theorem-decided reachable verdict is
    /// confirmed by search.
    pub fn model_exact() -> Self {
        ClassifyOptions {
            verify_theorems_with_search: true,
            ..ClassifyOptions::default()
        }
    }
}

/// Publish classification provenance into the global [`wormtrace`]
/// recorder (`classify.*` counters, see `docs/TRACING.md`): which
/// theorem decided the candidate, or whether the search fallback —
/// the theorems' blind spot — had to run.
fn record_provenance(verdict: &CandidateVerdict) {
    if !wormtrace::enabled() {
        return;
    }
    wormtrace::counter("classify.candidates", 1);
    let name = match &verdict.class {
        CycleClass::NoOutsideSharing => "classify.theorem2",
        CycleClass::MinimalAllShare => "classify.theorem3",
        CycleClass::TwoSharers => "classify.theorem4",
        CycleClass::ThreeSharers(_) => "classify.theorem5",
        CycleClass::DecidedBySearch { .. } => "classify.search_decided",
        CycleClass::Unknown => "classify.unknown",
    };
    wormtrace::counter(name, 1);
    if verdict.reachable == Some(true) {
        wormtrace::counter("classify.reachable", 1);
    } else if verdict.reachable == Some(false) {
        wormtrace::counter("classify.unreachable", 1);
    }
}

/// Decide one analysed candidate: its theorem class, confirmed by
/// search when [`ClassifyOptions::verify_theorems_with_search`] asks,
/// or the search fallback where the theorems say nothing.
fn decide(
    net: &Network,
    table: &TableRouting,
    ca: &CandidateAnalysis,
    opts: &ClassifyOptions,
) -> CandidateVerdict {
    let verdict = |class: CycleClass, reachable: Option<bool>| CandidateVerdict {
        candidate: ca.candidate.clone(),
        class,
        reachable,
    };
    // A theorem's "reachable", optionally confirmed by search.
    let confirm = |class: CycleClass| -> CandidateVerdict {
        if opts.verify_theorems_with_search {
            if let Some((false, states)) = search_candidate(net, table, &ca.candidate, opts) {
                wormtrace::counter("classify.theorem_downgraded", 1);
                return verdict(
                    CycleClass::DecidedBySearch {
                        reachable: false,
                        states,
                    },
                    Some(false),
                );
            }
        }
        verdict(class, Some(true))
    };
    let decided = match &ca.class {
        StaticClass::NoOutsideSharing => confirm(CycleClass::NoOutsideSharing),
        StaticClass::TwoSharers => confirm(CycleClass::TwoSharers),
        StaticClass::MinimalAllShare => confirm(CycleClass::MinimalAllShare),
        StaticClass::ThreeSharers(ec) if ec.unreachable() => {
            verdict(CycleClass::ThreeSharers(ec.clone()), Some(false))
        }
        StaticClass::ThreeSharers(ec) => confirm(CycleClass::ThreeSharers(ec.clone())),
        // Fallback: exhaustive search over the candidate's messages at
        // their adversarial minimum lengths (just long enough to hold
        // their segments — Section 3's worst case).
        StaticClass::OutOfScope if opts.use_search => {
            wormtrace::counter("classify.search_fallback", 1);
            match search_candidate(net, table, &ca.candidate, opts) {
                Some((reachable, states)) => verdict(
                    CycleClass::DecidedBySearch { reachable, states },
                    Some(reachable),
                ),
                None => verdict(CycleClass::Unknown, None),
            }
        }
        StaticClass::OutOfScope => verdict(CycleClass::Unknown, None),
    };
    record_provenance(&decided);
    decided
}

/// Decide a cycle's candidates in enumeration order, stopping at the
/// first reachable one: one reachable deadlock settles the cycle.
fn decide_until_reachable<C: Borrow<CandidateAnalysis>>(
    net: &Network,
    table: &TableRouting,
    candidates: impl IntoIterator<Item = C>,
    opts: &ClassifyOptions,
) -> Vec<CandidateVerdict> {
    let mut verdicts = Vec::new();
    for ca in candidates {
        let v = decide(net, table, ca.borrow(), opts);
        let reachable = v.reachable == Some(true);
        verdicts.push(v);
        if reachable {
            break;
        }
    }
    verdicts
}

/// The messages the search fallback explores for `candidate`: one per
/// segment, in segment order, each at its adversarial minimum length
/// (just long enough to hold its segment — Section 3's worst case).
/// The fallback searches them with one-flit queues and no stalls, so a
/// [`CycleClass::DecidedBySearch`] answers `explore` over exactly
/// these messages at `capacity = 1` and stall budget 0.
pub fn candidate_messages(candidate: &DeadlockCandidate) -> Vec<MessageSpec> {
    candidate
        .segments
        .iter()
        .map(|s| MessageSpec::new(s.msg.0, s.msg.1, s.channels.len()))
        .collect()
}

/// Exhaustive search for any deadlock among the candidate's messages
/// at minimum lengths: whether one is reachable, and the states the
/// search visited; `None` = budget exhausted or unroutable.
fn search_candidate(
    net: &Network,
    table: &TableRouting,
    candidate: &DeadlockCandidate,
    opts: &ClassifyOptions,
) -> Option<(bool, usize)> {
    let sim = Sim::new(net, table, candidate_messages(candidate), Some(1)).ok()?;
    let config = SearchConfig {
        stall_budget: 0,
        max_states: opts.search_max_states,
    };
    let result = explore(&sim, &config);
    let reachable = match result.verdict {
        Verdict::DeadlockReachable(_) => true,
        Verdict::DeadlockFree => false,
        Verdict::Inconclusive { .. } => return None,
    };
    Some((reachable, result.states_explored))
}

/// The literal Definition 5 question for one static candidate: can
/// routing messages from an empty network produce **exactly this
/// configuration** (every segment's channels owned by its message)?
///
/// This is stricter than [`classify_algorithm`]'s search fallback,
/// which asks whether *any* deadlock is reachable with the candidate's
/// message set. A `Some(false)` here certifies the candidate is an
/// unreachable configuration in the paper's exact sense; `None` means
/// the search budget ran out.
pub fn candidate_reachable(
    net: &Network,
    table: &TableRouting,
    candidate: &DeadlockCandidate,
    opts: &ClassifyOptions,
) -> Option<bool> {
    let sim = Sim::new(net, table, candidate_messages(candidate), Some(1)).ok()?;
    let segments: Vec<(MessageId, Vec<wormnet::ChannelId>)> = candidate
        .segments
        .iter()
        .enumerate()
        .map(|(i, s)| (MessageId::from_index(i), s.channels.clone()))
        .collect();
    let result = explore_until(
        &sim,
        &SearchConfig {
            stall_budget: 0,
            max_states: opts.search_max_states,
        },
        move |_, state| {
            segments.iter().all(|(m, chans)| {
                chans
                    .iter()
                    .all(|c| matches!(state.channels[c.index()], Some(occ) if occ.msg == *m))
            })
        },
    );
    match result.verdict {
        Verdict::DeadlockReachable(_) => Some(true),
        Verdict::DeadlockFree => Some(false),
        Verdict::Inconclusive { .. } => None,
    }
}

/// Classify one CDG cycle by classifying its candidates in
/// enumeration order. `minimal` is the table's minimality, hoisted out
/// of the per-cycle loop; `witnesses` covers the cycle's edges, and
/// `index` is set to the cycle here. Candidates are analysed one at a
/// time, so none past the first reachable one is analysed at all.
fn classify_cycle(
    net: &Network,
    table: &TableRouting,
    witnesses: &Witnesses,
    index: &mut CycleIndex,
    cycle: CdgCycle,
    minimal: bool,
    opts: &ClassifyOptions,
) -> CycleVerdict {
    let (candidates, enumeration_complete) =
        enumerate_candidates(witnesses, &cycle, opts.max_candidates);
    index.set(&cycle);
    let analyses = candidates
        .into_iter()
        .map(|c| CandidateAnalysis::new(table, index, c, minimal));
    let candidates = decide_until_reachable(net, table, analyses, opts);
    CycleVerdict {
        cycle,
        candidates,
        enumeration_complete,
    }
}

/// Fold per-cycle verdicts into the algorithm's verdict.
fn fold(cycles: Vec<CycleVerdict>, enumeration_complete: bool) -> AlgorithmVerdict {
    if cycles.iter().any(|v| v.reachable() == Some(true)) {
        AlgorithmVerdict::Deadlockable { cycles }
    } else if enumeration_complete && cycles.iter().all(|v| v.reachable() == Some(false)) {
        AlgorithmVerdict::DeadlockFreeWithCycles { cycles }
    } else {
        AlgorithmVerdict::Unknown { cycles }
    }
}

/// Classify a whole routing algorithm.
///
/// This builds only what the verdict needs: the CDG and one Kahn pass,
/// and on a cyclic CDG the minimality predicate, a bounded prefix of
/// the cycles, and each cycle's candidates up to its first reachable
/// one. [`Analysis::classify`] reaches the same verdict from a full
/// [`Analysis`].
pub fn classify_algorithm(
    net: &Network,
    table: &TableRouting,
    opts: &ClassifyOptions,
) -> AlgorithmVerdict {
    let _span = wormtrace::span("classify.algorithm");
    classify_cdg(net, table, &Cdg::build(net, table), opts)
}

/// [`classify_algorithm`] over the already built CDG of `table`.
pub(crate) fn classify_cdg(
    net: &Network,
    table: &TableRouting,
    cdg: &Cdg,
    opts: &ClassifyOptions,
) -> AlgorithmVerdict {
    wormtrace::counter("classify.algorithms", 1);
    // Dally–Seitz: one Kahn pass over the finished CDG both decides
    // acyclicity and yields the numbering certificate.
    if let Some(numbering) = cdg.numbering() {
        wormtrace::counter("classify.acyclic", 1);
        return AlgorithmVerdict::DeadlockFreeAcyclic { numbering };
    }
    // Stream a bounded prefix of the elementary cycles: a reachable
    // deadlock among the prefix already decides "deadlockable", while
    // the free-with-cycles verdict additionally needs the enumeration
    // to have been complete.
    let (cycles, enumeration_complete) = cdg.cycles_streamed(opts.max_cycles);
    let minimal = properties::is_minimal(net, table);
    let witnesses = Witnesses::of_cycles(table, &cycles);
    let mut index = CycleIndex::new(net);
    let verdicts = cycles
        .into_iter()
        .map(|cycle| classify_cycle(net, table, &witnesses, &mut index, cycle, minimal, opts))
        .collect();
    fold(verdicts, enumeration_complete)
}

impl Analysis<'_> {
    /// The classifier's verdict, read from this analysis: the same
    /// candidates in the same order as [`classify_algorithm`], the same
    /// stop at each cycle's first reachable candidate, the same search
    /// fallback and `classify.*` counters — without rebuilding the CDG,
    /// the cycles or any candidate.
    ///
    /// Panics if `opts` carries enumeration budgets other than the ones
    /// the analysis was built with.
    pub fn classify(&self, opts: &ClassifyOptions) -> AlgorithmVerdict {
        assert_eq!(
            self.budgets,
            (opts.max_cycles, opts.max_candidates),
            "classify budgets must match the analysis budgets"
        );
        let _span = wormtrace::span("classify.algorithm");
        wormtrace::counter("classify.algorithms", 1);
        if let Some(numbering) = &self.numbering {
            wormtrace::counter("classify.acyclic", 1);
            return AlgorithmVerdict::DeadlockFreeAcyclic {
                numbering: numbering.clone(),
            };
        }
        let verdicts = self
            .cycles
            .iter()
            .map(|cy| CycleVerdict {
                cycle: cy.cycle.clone(),
                candidates: decide_until_reachable(self.net, self.table, &cy.candidates, opts),
                enumeration_complete: cy.enumeration_complete,
            })
            .collect();
        fold(verdicts, self.cycles_complete)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcdg::Cdg;
    use wormnet::topology::{ring_unidirectional, Mesh};
    use wormroute::algorithms::{clockwise_ring, xy_mesh};

    #[test]
    fn xy_mesh_is_acyclic_free() {
        let mesh = Mesh::new(&[3, 3]);
        let table = xy_mesh(&mesh).unwrap();
        let verdict = classify_algorithm(mesh.network(), &table, &ClassifyOptions::default());
        assert!(matches!(
            verdict,
            AlgorithmVerdict::DeadlockFreeAcyclic { .. }
        ));
        assert_eq!(verdict.is_deadlock_free(), Some(true));
    }

    #[test]
    fn clockwise_ring_is_deadlockable() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let verdict = classify_algorithm(&net, &table, &ClassifyOptions::default());
        let AlgorithmVerdict::Deadlockable { cycles } = &verdict else {
            panic!("expected deadlockable, got {verdict:?}");
        };
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].reachable(), Some(true));
        // Every candidate is decided by Theorem 2 (no outside sharing).
        for cand in &cycles[0].candidates {
            assert!(matches!(cand.class, CycleClass::NoOutsideSharing));
        }
        assert_eq!(verdict.is_deadlock_free(), Some(false));
    }

    #[test]
    fn definition5_certifies_fig1_candidate_unreachable() {
        // The literal paper claim: the Figure 1 configuration itself
        // is unreachable, while the ring's configuration is reachable.
        let c = crate::paper::fig1::cyclic_dependency();
        let candidate = c.canonical_candidate();
        assert_eq!(
            candidate_reachable(&c.net, &c.table, &candidate, &ClassifyOptions::default()),
            Some(false),
            "Figure 1's configuration must be unreachable (Definition 5)"
        );

        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let cycle = wormcdg::Cdg::build(&net, &table).cycles().remove(0);
        let cands = wormcdg::deadlock_candidates(&table, &cycle, 100_000).unwrap();
        let four = cands.iter().find(|c| c.segments.len() == 4).unwrap();
        assert_eq!(
            candidate_reachable(&net, &table, four, &ClassifyOptions::default()),
            Some(true),
            "the ring's configuration is reachable"
        );
    }

    #[test]
    fn figure3_scenarios_classified_with_theorem5_provenance() {
        // Scenario (a): 3 sharers, all conditions hold -> the pipeline
        // certifies freedom *via Theorem 5*, no search needed for the
        // canonical candidate.
        let s = crate::paper::fig3::scenario_a();
        let c = s.spec.build();
        let verdict = classify_algorithm(&c.net, &c.table, &ClassifyOptions::default());
        let AlgorithmVerdict::DeadlockFreeWithCycles { cycles } = &verdict else {
            panic!("scenario (a) must be free-with-cycles: {verdict:?}");
        };
        let theorem5_unreachable = cycles
            .iter()
            .flat_map(|cv| &cv.candidates)
            .any(|cand| matches!(&cand.class, CycleClass::ThreeSharers(ec) if ec.unreachable()));
        assert!(theorem5_unreachable, "Theorem 5 should decide scenario (a)");

        // Scenario (e): condition 7 fails -> Deadlockable via Theorem 5.
        let s = crate::paper::fig3::scenario_e();
        let c = s.spec.build();
        let verdict = classify_algorithm(&c.net, &c.table, &ClassifyOptions::default());
        let AlgorithmVerdict::Deadlockable { cycles } = &verdict else {
            panic!("scenario (e) must be deadlockable: {verdict:?}");
        };
        let theorem5_reachable = cycles.iter().flat_map(|cv| &cv.candidates).any(|cand| {
            matches!(&cand.class, CycleClass::ThreeSharers(ec)
                if !ec.unreachable() && cand.reachable == Some(true))
        });
        assert!(theorem5_reachable, "Theorem 5 should decide scenario (e)");
    }

    #[test]
    fn model_exact_mode_catches_theorem_boundary_cases() {
        // Theorem 4's d1 == d2 diagonal: the paper's model deadlocks
        // (footnote 1 breaks the simultaneous arrival by arbitration);
        // this crate's conservative router needs one extra stall, so
        // the instance is actually free here. Default mode reports the
        // paper verdict; model-exact mode reports this router's truth.
        let c = crate::family::SharedCycleSpec {
            messages: vec![
                crate::family::CycleMessageSpec::shared(2, 3, 1),
                crate::family::CycleMessageSpec::shared(2, 3, 1),
            ],
        }
        .build();

        let paper = classify_algorithm(&c.net, &c.table, &ClassifyOptions::default());
        assert!(
            matches!(paper, AlgorithmVerdict::Deadlockable { .. }),
            "paper-model verdict: {paper:?}"
        );

        let exact = classify_algorithm(&c.net, &c.table, &ClassifyOptions::model_exact());
        assert!(
            matches!(exact, AlgorithmVerdict::DeadlockFreeWithCycles { .. }),
            "model-exact verdict: {exact:?}"
        );

        // Off the diagonal both modes agree (really deadlocks).
        let c2 = crate::paper::fig2::two_message_deadlock();
        for opts in [ClassifyOptions::default(), ClassifyOptions::model_exact()] {
            let v = classify_algorithm(&c2.net, &c2.table, &opts);
            assert!(matches!(v, AlgorithmVerdict::Deadlockable { .. }));
        }
    }

    #[test]
    fn multiple_cycles_classified_independently() {
        // A bidirectional ring routed clockwise for "short" pairs and
        // counter-clockwise for the rest produces two disjoint CDG
        // cycles (one per direction); both must be found deadlockable.
        use wormnet::topology::ring_bidirectional;
        use wormroute::TableRouting;
        // A 5-ring gives counter-clockwise paths of length 2, which is
        // what creates dependencies (and hence a cycle) in that
        // direction too.
        let (net, nodes) = ring_bidirectional(5);
        let n = nodes.len();
        let table = TableRouting::build(&net, |path, s, d| {
            let (si, di) = (s.index(), d.index());
            let cw = (di + n - si) % n;
            path.node(s);
            let mut i = si;
            if cw <= 2 {
                while i != di {
                    i = (i + 1) % n;
                    path.node(nodes[i]);
                }
            } else {
                while i != di {
                    i = (i + n - 1) % n;
                    path.node(nodes[i]);
                }
            }
            Some(())
        })
        .unwrap();
        let cdg = Cdg::build(&net, &table);
        assert!(!cdg.is_acyclic());
        assert_eq!(cdg.cycles().len(), 2, "one cycle per direction");
        let verdict = classify_algorithm(&net, &table, &ClassifyOptions::default());
        let AlgorithmVerdict::Deadlockable { cycles } = &verdict else {
            panic!("expected deadlockable: {verdict:?}");
        };
        assert_eq!(cycles.len(), 2);
        assert!(cycles.iter().all(|cv| cv.reachable() == Some(true)));
    }

    #[test]
    fn search_decided_candidates_carry_the_search_state_count() {
        // Figure 1 has four sharers, outside the theorems: the search
        // fallback decides its candidate and records how many states
        // the search over the candidate's message set visited.
        let c = crate::paper::fig1::cyclic_dependency();
        let verdict = classify_algorithm(&c.net, &c.table, &ClassifyOptions::default());
        let AlgorithmVerdict::DeadlockFreeWithCycles { cycles } = &verdict else {
            panic!("Figure 1 must be free-with-cycles: {verdict:?}");
        };
        let decided: Vec<(&DeadlockCandidate, usize)> = cycles
            .iter()
            .flat_map(|cv| &cv.candidates)
            .filter_map(|cand| match cand.class {
                CycleClass::DecidedBySearch {
                    reachable: false,
                    states,
                } => Some((&cand.candidate, states)),
                _ => None,
            })
            .collect();
        assert!(!decided.is_empty(), "the search fallback decides Figure 1");
        for (candidate, states) in decided {
            let specs: Vec<MessageSpec> = candidate
                .segments
                .iter()
                .map(|s| MessageSpec::new(s.msg.0, s.msg.1, s.channels.len()))
                .collect();
            let sim = Sim::new(&c.net, &c.table, specs, Some(1)).unwrap();
            let search = explore(&sim, &SearchConfig::default());
            assert!(search.verdict.is_free());
            assert!(states > 1);
            assert_eq!(states, search.states_explored);
        }
    }

    #[test]
    fn search_disabled_leaves_unknowns() {
        // The fig-1-like construction has 4 sharers: without search it
        // must stay undecided.
        let c = crate::family::SharedCycleSpec {
            messages: vec![
                crate::family::CycleMessageSpec::shared(2, 3, 1),
                crate::family::CycleMessageSpec::shared(3, 4, 1),
                crate::family::CycleMessageSpec::shared(2, 3, 1),
                crate::family::CycleMessageSpec::shared(3, 4, 1),
            ],
        }
        .build();
        let opts = ClassifyOptions {
            use_search: false,
            ..ClassifyOptions::default()
        };
        let verdict = classify_algorithm(&c.net, &c.table, &opts);
        assert!(matches!(verdict, AlgorithmVerdict::Unknown { .. }));
        assert_eq!(verdict.is_deadlock_free(), None);
    }
}
