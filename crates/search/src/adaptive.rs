//! Exhaustive reachability search for **adaptive** routing.
//!
//! The oblivious search's nondeterminism is injection timing and
//! arbitration; adaptive routing adds the route choice itself. Each
//! cycle the explorer enumerates every conflict-free assignment of
//! movable headers to their free permitted channels — including the
//! choice to hold a header back, which subsumes injection timing and
//! arbitration losses — and memoizes visited states.
//!
//! The verdicts decide the adaptive-theory questions the paper's
//! Sections 2 and 7 discuss: fully adaptive minimal routing on a
//! single-lane mesh *deadlocks*; Duato's escape-channel construction
//! is *deadlock-free* even though its extended dependency graph is
//! cyclic.

use std::collections::HashSet;
use std::time::Instant;

use wormsim::adaptive::{AdaptiveDecisions, AdaptiveSim, AdaptiveState};
use wormsim::MessageId;

use crate::verdict::SearchMetrics;

/// Outcome of an adaptive exploration.
#[derive(Clone, Debug)]
pub enum AdaptiveVerdict {
    /// Some schedule reaches a wait-for knot; here is one, as the
    /// per-cycle decisions from the empty network.
    DeadlockReachable {
        /// The decision schedule.
        decisions: Vec<AdaptiveDecisions>,
        /// The knot members.
        members: Vec<MessageId>,
    },
    /// No schedule deadlocks (exact for this message set).
    DeadlockFree,
    /// State budget exhausted.
    Inconclusive {
        /// Distinct states visited when the search gave up.
        states_visited: usize,
    },
}

impl AdaptiveVerdict {
    /// Whether a deadlock was proven reachable.
    pub fn is_deadlock(&self) -> bool {
        matches!(self, AdaptiveVerdict::DeadlockReachable { .. })
    }

    /// Whether deadlock freedom was proven.
    pub fn is_free(&self) -> bool {
        matches!(self, AdaptiveVerdict::DeadlockFree)
    }

    /// Whether the search gave up before exhausting the space.
    pub fn is_inconclusive(&self) -> bool {
        matches!(self, AdaptiveVerdict::Inconclusive { .. })
    }
}

/// Result with statistics.
#[derive(Clone, Debug)]
pub struct AdaptiveSearchResult {
    /// The verdict.
    pub verdict: AdaptiveVerdict,
    /// Distinct states visited.
    pub states_explored: usize,
    /// Throughput and memoization statistics.
    pub metrics: SearchMetrics,
}

/// Exhaustively explore all route choices and timings of `sim`.
pub fn explore_adaptive(sim: &AdaptiveSim, max_states: usize) -> AdaptiveSearchResult {
    let start = Instant::now();
    let mut metrics = SearchMetrics::default();
    let finish = |metrics: &mut SearchMetrics, verdict: AdaptiveVerdict, states: usize| {
        metrics.elapsed = start.elapsed();
        metrics.finish(states);
        metrics.publish(states);
        AdaptiveSearchResult {
            verdict,
            states_explored: states,
            metrics: metrics.clone(),
        }
    };

    let initial = sim.initial_state();
    let mut visited: HashSet<AdaptiveState> = HashSet::new();
    visited.insert(initial.clone());

    struct Frame {
        state: AdaptiveState,
        options: Vec<AdaptiveDecisions>,
        next: usize,
    }

    let mut stack = vec![Frame {
        options: decision_options(sim, &initial),
        state: initial,
        next: 0,
    }];
    let mut path: Vec<AdaptiveDecisions> = Vec::new();

    while let Some(frame) = stack.last_mut() {
        if frame.next >= frame.options.len() {
            stack.pop();
            path.pop();
            continue;
        }
        let decision = frame.options[frame.next].clone();
        frame.next += 1;

        let mut state = frame.state.clone();
        let moved = sim.step(&mut state, &decision);
        if !moved {
            continue;
        }
        metrics.dedup_lookups += 1;
        if !visited.insert(state.clone()) {
            metrics.dedup_hits += 1;
            continue;
        }
        if visited.len() > max_states {
            let states = visited.len();
            return finish(
                &mut metrics,
                AdaptiveVerdict::Inconclusive {
                    states_visited: states,
                },
                states,
            );
        }
        path.push(decision);
        if let Some(members) = sim.find_deadlock(&state) {
            let states = visited.len();
            return finish(
                &mut metrics,
                AdaptiveVerdict::DeadlockReachable {
                    decisions: path,
                    members,
                },
                states,
            );
        }
        if sim.all_delivered(&state) {
            path.pop();
            continue;
        }
        let options = decision_options(sim, &state);
        stack.push(Frame {
            state,
            options,
            next: 0,
        });
        metrics.frontier_peak = metrics.frontier_peak.max(stack.len());
    }

    let states = visited.len();
    finish(&mut metrics, AdaptiveVerdict::DeadlockFree, states)
}

/// Replay an adaptive witness; returns the knot found at the end.
pub fn replay_adaptive(
    sim: &AdaptiveSim,
    decisions: &[AdaptiveDecisions],
) -> Option<Vec<MessageId>> {
    let mut state = sim.initial_state();
    for d in decisions {
        sim.step(&mut state, d);
    }
    sim.find_deadlock(&state)
}

/// Every conflict-free assignment of movable headers to free options,
/// where each header may also hold still. The all-hold assignment is
/// included (it is pruned by the no-movement check when it is a true
/// no-op, but data flits may still drain under it).
fn decision_options(sim: &AdaptiveSim, state: &AdaptiveState) -> Vec<AdaptiveDecisions> {
    let free = sim.free_options(state);
    let movers: Vec<(MessageId, Vec<wormnet::ChannelId>)> = free.into_iter().collect();
    assert!(movers.len() <= 12, "adaptive search is for tiny scenarios");

    let mut out = Vec::new();
    let mut current = AdaptiveDecisions::default();
    assign(&movers, 0, &mut current, &mut out);
    out
}

fn assign(
    movers: &[(MessageId, Vec<wormnet::ChannelId>)],
    idx: usize,
    current: &mut AdaptiveDecisions,
    out: &mut Vec<AdaptiveDecisions>,
) {
    if idx == movers.len() {
        out.push(current.clone());
        return;
    }
    let (m, opts) = &movers[idx];
    // Hold still.
    assign(movers, idx + 1, current, out);
    // Or take any free option not claimed by an earlier message.
    for &c in opts {
        if current.moves.values().any(|&taken| taken == c) {
            continue;
        }
        current.moves.insert(*m, c);
        assign(movers, idx + 1, current, out);
        current.moves.remove(m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormnet::topology::Mesh;
    use wormroute::adaptive::{duato_mesh, fully_adaptive_minimal};
    use wormsim::MessageSpec;

    #[test]
    fn single_lane_mesh_fully_adaptive_deadlocks() {
        // Four corner-rotation messages on a 2x2 mesh, long enough to
        // span two channels each: the classic adaptive deadlock.
        let mesh = Mesh::new(&[2, 2]);
        let routing = fully_adaptive_minimal(&mesh);
        let sim = AdaptiveSim::new(
            mesh.network(),
            routing,
            vec![
                MessageSpec::new(mesh.node(&[0, 0]), mesh.node(&[1, 1]), 3),
                MessageSpec::new(mesh.node(&[1, 0]), mesh.node(&[0, 1]), 3),
                MessageSpec::new(mesh.node(&[1, 1]), mesh.node(&[0, 0]), 3),
                MessageSpec::new(mesh.node(&[0, 1]), mesh.node(&[1, 0]), 3),
            ],
        )
        .unwrap();
        let result = explore_adaptive(&sim, 5_000_000);
        let AdaptiveVerdict::DeadlockReachable { decisions, members } = &result.verdict else {
            panic!(
                "fully adaptive 1-lane mesh must deadlock: {:?}",
                result.verdict
            );
        };
        assert_eq!(members.len(), 4);
        let replayed = replay_adaptive(&sim, decisions).expect("replays");
        assert_eq!(&replayed, members);
    }

    #[test]
    fn duato_escape_lane_is_deadlock_free() {
        // Same four messages, but with Duato's escape lane: no
        // schedule may deadlock.
        let mesh = Mesh::with_vcs(&[2, 2], 2);
        let routing = duato_mesh(&mesh);
        let sim = AdaptiveSim::new(
            mesh.network(),
            routing,
            vec![
                MessageSpec::new(mesh.node(&[0, 0]), mesh.node(&[1, 1]), 3),
                MessageSpec::new(mesh.node(&[1, 0]), mesh.node(&[0, 1]), 3),
                MessageSpec::new(mesh.node(&[1, 1]), mesh.node(&[0, 0]), 3),
                MessageSpec::new(mesh.node(&[0, 1]), mesh.node(&[1, 0]), 3),
            ],
        )
        .unwrap();
        let result = explore_adaptive(&sim, 20_000_000);
        assert!(
            result.verdict.is_free(),
            "Duato must be deadlock-free: {:?}",
            result.verdict
        );
    }

    #[test]
    fn west_first_adaptive_is_deadlock_free_exhaustively() {
        use wormroute::adaptive::west_first_adaptive;
        let mesh = Mesh::new(&[2, 2]);
        let routing = west_first_adaptive(&mesh);
        let sim = AdaptiveSim::new(
            mesh.network(),
            routing,
            vec![
                MessageSpec::new(mesh.node(&[0, 0]), mesh.node(&[1, 1]), 3),
                MessageSpec::new(mesh.node(&[1, 0]), mesh.node(&[0, 1]), 3),
                MessageSpec::new(mesh.node(&[1, 1]), mesh.node(&[0, 0]), 3),
                MessageSpec::new(mesh.node(&[0, 1]), mesh.node(&[1, 0]), 3),
            ],
        )
        .unwrap();
        let result = explore_adaptive(&sim, 20_000_000);
        assert!(result.verdict.is_free(), "{:?}", result.verdict);
    }

    #[test]
    fn two_messages_cannot_deadlock_adaptively() {
        let mesh = Mesh::new(&[2, 2]);
        let routing = fully_adaptive_minimal(&mesh);
        let sim = AdaptiveSim::new(
            mesh.network(),
            routing,
            vec![
                MessageSpec::new(mesh.node(&[0, 0]), mesh.node(&[1, 1]), 3),
                MessageSpec::new(mesh.node(&[1, 1]), mesh.node(&[0, 0]), 3),
            ],
        )
        .unwrap();
        // Two messages with two disjoint minimal routes each: the
        // adversary cannot close a knot.
        let result = explore_adaptive(&sim, 5_000_000);
        assert!(result.verdict.is_free(), "{:?}", result.verdict);
    }
}
