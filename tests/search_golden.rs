//! Golden exhaustive searches: the exact visited-state counts, dedup
//! counters, frontier peaks and witness schedules of the paper's
//! constructions, committed under `tests/snapshots/search_golden.txt`.
//!
//! The search engines are optimized aggressively, and their verdicts
//! alone would not notice a change in what they explore. This file
//! pins every observable of the searches the service and the
//! experiments run:
//!
//! - Figure 1, Figure 2 and Figure 3 (a)–(f) at stall budget 0;
//! - `G(1)`–`G(5)` at stall budgets 0, `k` and `k + 1` (Section 6:
//!   `k` stalls are not enough, `k + 1` are);
//! - the Definition 5 target search (`explore_until`) on the canonical
//!   candidates of Figure 1 and Figure 3 (a)–(f);
//! - and the width of each construction's search key.
//!
//! To regenerate after an intentional change to what a search
//! explores:
//!
//! ```text
//! UPDATE_SPECS=1 cargo test --test search_golden
//! ```
//!
//! then commit the updated file together with the change.

use std::fmt::Write as _;
use std::path::PathBuf;

use cyclic_wormhole::core::paper::{fig1, fig2, fig3, generalized};
use cyclic_wormhole::core::CycleConstruction;
use cyclic_wormhole::net::ChannelId;
use cyclic_wormhole::search::{explore, explore_until, SearchConfig, SearchResult, Verdict};
use cyclic_wormhole::sim::{MessageId, MessageSpec, Sim, StateCodec};

fn snapshot_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/search_golden.txt")
}

/// The named constructions with their search message sets (the
/// adversarial minimum lengths the benchmark and the service use).
fn constructions() -> Vec<(String, CycleConstruction, Vec<MessageSpec>)> {
    let mut out = Vec::new();
    let c = fig1::cyclic_dependency();
    let specs = c.message_specs();
    out.push(("fig1".to_string(), c, specs));
    let c = fig2::two_message_deadlock();
    let specs = c.message_specs();
    out.push(("fig2".to_string(), c, specs));
    for s in fig3::all_scenarios() {
        let c = s.spec.build();
        let specs = s.message_specs(&c);
        out.push((format!("fig3_{}", s.name), c, specs));
    }
    for k in 1..=5 {
        let c = generalized::generalized(k);
        let specs = generalized::minimum_length_specs(&c);
        out.push((format!("g{k}"), c, specs));
    }
    out
}

fn list<T: std::fmt::Display>(items: &[T]) -> String {
    let parts: Vec<String> = items.iter().map(ToString::to_string).collect();
    format!("[{}]", parts.join(","))
}

/// One search's observables, witness schedule included, as text.
fn render(label: &str, result: &SearchResult) -> String {
    let m = &result.metrics;
    let verdict = match &result.verdict {
        Verdict::DeadlockReachable(_) => "deadlock",
        Verdict::DeadlockFree => "free",
        Verdict::Inconclusive { .. } => "inconclusive",
    };
    let mut out = format!(
        "{label}: verdict={verdict} states={} dedup_lookups={} dedup_hits={} frontier_peak={}\n",
        result.states_explored, m.dedup_lookups, m.dedup_hits, m.frontier_peak
    );
    if let Verdict::DeadlockReachable(w) = &result.verdict {
        let _ = writeln!(out, "  members={}", list(&w.members));
        for (cycle, d) in w.decisions.iter().enumerate() {
            let winners: Vec<String> = d.winners.iter().map(|(c, m)| format!("{c}:{m}")).collect();
            let _ = writeln!(
                out,
                "  {cycle}: inject={} stalls={} winners={} frozen={}",
                list(&d.inject),
                list(&d.stalls),
                list(&winners),
                list(&d.frozen)
            );
        }
    }
    out
}

fn sim_for(c: &CycleConstruction, specs: Vec<MessageSpec>) -> Sim {
    Sim::new(&c.net, &c.table, specs, Some(1)).expect("paper constructions route")
}

/// The Definition 5 search `worm_core::candidate_reachable` runs: can
/// the construction's canonical candidate configuration be reached?
fn candidate_search(c: &CycleConstruction) -> SearchResult {
    let candidate = c.canonical_candidate();
    let specs: Vec<MessageSpec> = candidate
        .segments
        .iter()
        .map(|s| MessageSpec::new(s.msg.0, s.msg.1, s.channels.len()))
        .collect();
    let sim = sim_for(c, specs);
    let segments: Vec<(MessageId, Vec<ChannelId>)> = candidate
        .segments
        .iter()
        .enumerate()
        .map(|(i, s)| (MessageId::from_index(i), s.channels.clone()))
        .collect();
    explore_until(&sim, &SearchConfig::default(), move |_, state| {
        segments.iter().all(|(m, chans)| {
            chans
                .iter()
                .all(|c| matches!(state.channels[c.index()], Some(occ) if occ.msg == *m))
        })
    })
}

/// Every pinned search, in a fixed order. Each job is independent, so
/// the two halves run on two threads.
fn snapshot() -> String {
    type Job = Box<dyn FnOnce() -> String + Send>;
    let mut jobs: Vec<Job> = Vec::new();
    for (name, c, specs) in constructions() {
        let budgets: Vec<u32> = match name.strip_prefix('g') {
            Some(k) => {
                let k: u32 = k.parse().expect("g<k>");
                vec![0, k, k + 1]
            }
            None => vec![0],
        };
        for budget in budgets {
            let (name, sim) = (name.clone(), sim_for(&c, specs.clone()));
            jobs.push(Box::new(move || {
                render(
                    &format!("explore {name} stall={budget}"),
                    &explore(&sim, &SearchConfig::with_stalls(budget)),
                )
            }));
        }
        if name == "fig1" || name.starts_with("fig3_") {
            let c = c.clone();
            let name = name.clone();
            jobs.push(Box::new(move || {
                render(
                    &format!("explore_until {name} candidate"),
                    &candidate_search(&c),
                )
            }));
        }
    }
    // Interleave the jobs over two workers and reassemble in order.
    let mut halves: [Vec<(usize, Job)>; 2] = [Vec::new(), Vec::new()];
    for (i, job) in jobs.into_iter().enumerate() {
        halves[i % 2].push((i, job));
    }
    let mut parts: Vec<(usize, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = halves
            .into_iter()
            .map(|half| {
                scope.spawn(move || {
                    half.into_iter()
                        .map(|(i, job)| (i, job()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("search job panicked"))
            .collect()
    });
    parts.sort_by_key(|(i, _)| *i);
    parts.into_iter().map(|(_, s)| s).collect()
}

#[test]
fn searches_match_the_golden_snapshot() {
    let text = snapshot();
    let path = snapshot_path();
    if std::env::var_os("UPDATE_SPECS").is_some_and(|v| v == "1") {
        std::fs::write(&path, &text).expect("write search snapshot");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); regenerate with UPDATE_SPECS=1 cargo test --test search_golden",
            path.display()
        )
    });
    for (want, got) in golden.lines().zip(text.lines()) {
        assert_eq!(
            want, got,
            "a search drifted; if intentional, regenerate with \
             UPDATE_SPECS=1 cargo test --test search_golden"
        );
    }
    assert_eq!(golden.lines().count(), text.lines().count(), "line count");
}

/// The search key's width (`StateCodec::packed_words`) for each
/// construction at the largest stall budget it is searched with: at
/// most two words, so a layout change that widens the keys every
/// visited state stores shows here.
#[test]
fn keys_pack_into_at_most_two_words() {
    let widths: Vec<(String, usize)> = constructions()
        .into_iter()
        .map(|(name, c, specs)| {
            let budget = name
                .strip_prefix('g')
                .map_or(0, |k| k.parse::<u32>().expect("g<k>") + 1);
            let words = StateCodec::new(&sim_for(&c, specs), budget).packed_words();
            (name, words)
        })
        .collect();
    let want = [
        ("fig1", 2),
        ("fig2", 1),
        ("fig3_a", 1),
        ("fig3_b", 2),
        ("fig3_c", 2),
        ("fig3_d", 2),
        ("fig3_e", 1),
        ("fig3_f", 2),
        ("g1", 2),
        ("g2", 2),
        ("g3", 2),
        ("g4", 2),
        ("g5", 2),
    ];
    let want: Vec<(String, usize)> = want.iter().map(|&(n, w)| (n.to_string(), w)).collect();
    assert_eq!(widths, want);
}
