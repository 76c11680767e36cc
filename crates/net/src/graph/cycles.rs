//! Johnson's algorithm for enumerating elementary cycles.
//!
//! The channel-dependency-graph analysis needs *every* elementary
//! cycle (paper Section 5 reasons about each cycle individually), not
//! just a yes/no acyclicity answer, so we implement Johnson (1975)
//! with the usual SCC-based restriction.

use std::collections::HashSet;

use super::{tarjan_scc, AdjList, Digraph};

/// Enumerate all elementary cycles of `g`.
///
/// Each cycle is returned as a vertex list `[v0, v1, ..., vk]` meaning
/// edges `v0→v1→...→vk→v0`; the smallest vertex of the cycle comes
/// first, so output is canonical. Cycles are unique up to rotation.
///
/// Use [`elementary_cycles_prefix`] when the graph may contain an
/// exponential number of cycles, or [`elementary_cycles_visit`] to
/// stream cycles without materializing them.
pub fn elementary_cycles(g: &impl Digraph) -> Vec<Vec<usize>> {
    let mut cycles = Vec::new();
    elementary_cycles_visit(g, |c| {
        cycles.push(c.to_vec());
        true
    });
    canonicalize(&mut cycles);
    cycles
}

/// Enumerate up to `max_cycles` elementary cycles, reporting whether
/// the enumeration ran to completion.
///
/// Returns `(cycles, complete)`: when `complete` is `true` the list is
/// *every* elementary cycle of `g` (at most `max_cycles` of them);
/// when `false` the graph has more cycles than the budget and the list
/// is the first `max_cycles` found. A truncated prefix is still
/// useful — any reachable deadlock cycle in it certifies the verdict
/// regardless of the cycles never enumerated — which is what makes
/// static classification of ~10^6-channel CDGs tractable.
pub fn elementary_cycles_prefix(g: &impl Digraph, max_cycles: usize) -> (Vec<Vec<usize>>, bool) {
    let mut cycles = Vec::new();
    let complete = elementary_cycles_visit(g, |c| {
        if cycles.len() < max_cycles {
            cycles.push(c.to_vec());
            true
        } else {
            false
        }
    });
    canonicalize(&mut cycles);
    (cycles, complete)
}

/// Rotate each cycle so its minimum vertex is first, then sort and
/// deduplicate for deterministic output.
fn canonicalize(cycles: &mut Vec<Vec<usize>>) {
    for c in cycles.iter_mut() {
        let (min_pos, _) = c
            .iter()
            .enumerate()
            .min_by_key(|&(_, &v)| v)
            .expect("cycles are non-empty");
        c.rotate_left(min_pos);
    }
    cycles.sort();
    cycles.dedup();
}

/// Stream the elementary cycles of `g` through a visitor without
/// materializing the full set — the scale-friendly core the collecting
/// functions above are built on.
///
/// The visitor receives each cycle as a vertex slice (minimum vertex
/// first) and returns `true` to continue or `false` to stop the
/// enumeration. Returns `true` when every elementary cycle was
/// visited, `false` when the visitor stopped early. Self-loop cycles
/// (`[v]`) are visited first in vertex order; the remaining cycles
/// arrive grouped by their least vertex in increasing order.
pub fn elementary_cycles_visit(g: &impl Digraph, mut visit: impl FnMut(&[usize]) -> bool) -> bool {
    let n = g.vertex_count();

    // Self-loops are elementary cycles of length 1; the wormhole model
    // forbids them at network level but a dependency graph could
    // theoretically have them, so visit and then exclude them.
    for v in 0..n {
        if g.successors(v).contains(&v) && !visit(&[v]) {
            return false;
        }
    }

    // Johnson processes vertices in increasing order; at step `s` it
    // searches the SCC (within the subgraph induced by {s..n}) that
    // contains the smallest vertex >= s.
    let mut start = 0usize;
    while start < n {
        // Subgraph induced by vertices >= start.
        let mut sub = AdjList::new(n);
        for v in start..n {
            for w in g.successors(v) {
                if w >= start && w != v {
                    sub.add_edge(v, w);
                }
            }
        }

        // Find the SCC containing the least vertex >= start with >= 2
        // vertices (or with a real cycle).
        let comps = tarjan_scc(&sub);
        let mut least: Option<(usize, &Vec<usize>)> = None;
        for comp in &comps {
            if comp.len() < 2 {
                continue;
            }
            let m = *comp.iter().min().expect("non-empty component");
            if m >= start && least.map(|(lm, _)| m < lm).unwrap_or(true) {
                least = Some((m, comp));
            }
        }
        let Some((s, comp)) = least else {
            break;
        };
        let comp_set: HashSet<usize> = comp.iter().copied().collect();

        // Adjacency restricted to the chosen SCC.
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|v| {
                if comp_set.contains(&v) {
                    let mut su: Vec<usize> = sub
                        .successors(v)
                        .into_iter()
                        .filter(|w| comp_set.contains(w))
                        .collect();
                    su.sort_unstable();
                    su.dedup();
                    su
                } else {
                    Vec::new()
                }
            })
            .collect();

        if !circuit_iterative(s, &adj, n, &mut visit) {
            return false;
        }
        start = s + 1;
    }
    true
}

/// Johnson's CIRCUIT procedure, iterative. Returns `false` if the
/// visitor stopped the enumeration.
fn circuit_iterative(
    s: usize,
    adj: &[Vec<usize>],
    n: usize,
    visit: &mut impl FnMut(&[usize]) -> bool,
) -> bool {
    let mut blocked = vec![false; n];
    let mut b_sets: Vec<HashSet<usize>> = vec![HashSet::new(); n];
    let mut path: Vec<usize> = Vec::new();

    struct Frame {
        v: usize,
        pos: usize,
        found: bool,
    }

    let mut frames = vec![Frame {
        v: s,
        pos: 0,
        found: false,
    }];
    path.push(s);
    blocked[s] = true;

    while let Some(frame) = frames.last_mut() {
        let v = frame.v;
        if frame.pos < adj[v].len() {
            let w = adj[v][frame.pos];
            frame.pos += 1;
            if w == s {
                if !visit(&path) {
                    return false;
                }
                frame.found = true;
            } else if !blocked[w] {
                path.push(w);
                blocked[w] = true;
                frames.push(Frame {
                    v: w,
                    pos: 0,
                    found: false,
                });
            }
        } else {
            let found = frame.found;
            frames.pop();
            path.pop();
            if found {
                unblock(v, &mut blocked, &mut b_sets);
            } else {
                for &w in &adj[v] {
                    b_sets[w].insert(v);
                }
            }
            if let Some(parent) = frames.last_mut() {
                parent.found |= found;
            }
        }
    }
    true
}

fn unblock(v: usize, blocked: &mut [bool], b_sets: &mut [HashSet<usize>]) {
    let mut stack = vec![v];
    while let Some(u) = stack.pop() {
        if blocked[u] {
            blocked[u] = false;
            let waiters: Vec<usize> = b_sets[u].drain().collect();
            for w in waiters {
                stack.push(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::AdjList;
    use super::*;

    #[test]
    fn triangle_has_one_cycle() {
        let g = AdjList::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(elementary_cycles(&g), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn dag_has_no_cycles() {
        let g = AdjList::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert!(elementary_cycles(&g).is_empty());
    }

    #[test]
    fn two_vertex_cycle() {
        let g = AdjList::from_edges(2, &[(0, 1), (1, 0)]);
        assert_eq!(elementary_cycles(&g), vec![vec![0, 1]]);
    }

    #[test]
    fn figure_eight() {
        // Two triangles sharing vertex 0.
        let g = AdjList::from_edges(5, &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
        let cycles = elementary_cycles(&g);
        assert_eq!(cycles, vec![vec![0, 1, 2], vec![0, 3, 4]]);
    }

    #[test]
    fn complete_graph_k4_has_twenty_cycles() {
        // K4 (directed both ways): C(4,2)=6 2-cycles, 8 3-cycles, 6 4-cycles.
        let mut edges = Vec::new();
        for u in 0..4 {
            for v in 0..4 {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        let g = AdjList::from_edges(4, &edges);
        let cycles = elementary_cycles(&g);
        let by_len = |k: usize| cycles.iter().filter(|c| c.len() == k).count();
        assert_eq!(by_len(2), 6);
        assert_eq!(by_len(3), 8);
        assert_eq!(by_len(4), 6);
        assert_eq!(cycles.len(), 20);
    }

    #[test]
    fn parallel_edges_counted_once() {
        // The CDG layer collapses parallel dependencies itself; vertex
        // cycles are unique here even with duplicated edges.
        let g = AdjList::from_edges(2, &[(0, 1), (0, 1), (1, 0)]);
        assert_eq!(elementary_cycles(&g).len(), 1);
    }

    #[test]
    fn self_loop_is_reported() {
        let mut g = AdjList::from_edges(2, &[(0, 1), (1, 0)]);
        g.add_edge(0, 0);
        let cycles = elementary_cycles(&g);
        assert!(cycles.contains(&vec![0]));
        assert!(cycles.contains(&vec![0, 1]));
    }

    #[test]
    fn canonical_rotation() {
        // Same cycle entered from different SCC start points must
        // appear once, minimum vertex first.
        let g = AdjList::from_edges(4, &[(1, 2), (2, 3), (3, 1)]);
        assert_eq!(elementary_cycles(&g), vec![vec![1, 2, 3]]);
    }

    #[test]
    fn ring_of_rings() {
        // 3-ring where each vertex also has a 2-cycle with a satellite.
        let g = AdjList::from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (0, 3),
                (3, 0),
                (1, 4),
                (4, 1),
                (2, 5),
                (5, 2),
            ],
        );
        let cycles = elementary_cycles(&g);
        assert_eq!(cycles.len(), 4);
    }

    #[test]
    fn prefix_reports_completeness() {
        let mut edges = Vec::new();
        for u in 0..5 {
            for v in 0..5 {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        let g = AdjList::from_edges(5, &edges);
        let all = elementary_cycles(&g);
        let (complete_set, complete) = elementary_cycles_prefix(&g, all.len());
        assert!(complete);
        assert_eq!(complete_set, all);
        let (prefix, complete) = elementary_cycles_prefix(&g, 3);
        assert!(!complete);
        assert_eq!(prefix.len(), 3);
        // Every prefix cycle is a genuine cycle of the full set.
        for c in &prefix {
            assert!(all.contains(c), "{c:?} not an elementary cycle");
        }
    }

    #[test]
    fn visitor_can_stop_and_sees_min_first_rotations() {
        let g = AdjList::from_edges(4, &[(1, 2), (2, 3), (3, 1), (1, 3), (3, 2), (2, 1)]);
        let mut seen = 0usize;
        let complete = elementary_cycles_visit(&g, |c| {
            assert_eq!(
                *c.iter().min().unwrap(),
                c[0],
                "cycles arrive minimum-vertex first"
            );
            seen += 1;
            seen < 2
        });
        assert!(!complete);
        assert_eq!(seen, 2);
        let total = elementary_cycles(&g).len();
        assert!(total > 2);
        let mut streamed = 0usize;
        assert!(elementary_cycles_visit(&g, |_| {
            streamed += 1;
            true
        }));
        assert_eq!(streamed, total);
    }

    #[test]
    fn self_loops_away_from_scc_minimums_are_streamed() {
        // Self-loop at vertex 1 while the only non-trivial SCC is
        // {2, 3}: the loop must still be enumerated.
        let mut g = AdjList::from_edges(4, &[(2, 3), (3, 2), (0, 2)]);
        g.add_edge(1, 1);
        let cycles = elementary_cycles(&g);
        assert!(cycles.contains(&vec![1]));
        assert!(cycles.contains(&vec![2, 3]));
        assert_eq!(cycles.len(), 2);
    }

    #[test]
    fn random_graphs_cycle_count_matches_bruteforce() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..30 {
            let n = rng.random_range(2..7);
            let mut edges = Vec::new();
            for u in 0..n {
                for v in 0..n {
                    if u != v && rng.random_range(0..100) < 35 {
                        edges.push((u, v));
                    }
                }
            }
            let g = AdjList::from_edges(n, &edges);
            let fast = elementary_cycles(&g);
            let slow = brute_force_cycles(n, &edges);
            assert_eq!(fast, slow, "edges: {edges:?}");
        }
    }

    /// Exponential brute force: enumerate all simple paths and close them.
    fn brute_force_cycles(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
        let g = AdjList::from_edges(n, edges);
        let mut out: Vec<Vec<usize>> = Vec::new();
        fn dfs(
            g: &AdjList,
            start: usize,
            v: usize,
            path: &mut Vec<usize>,
            seen: &mut Vec<bool>,
            out: &mut Vec<Vec<usize>>,
        ) {
            for w in g.successors(v) {
                if w == start {
                    out.push(path.clone());
                } else if w > start && !seen[w] {
                    seen[w] = true;
                    path.push(w);
                    dfs(g, start, w, path, seen, out);
                    path.pop();
                    seen[w] = false;
                }
            }
        }
        for s in 0..n {
            let mut seen = vec![false; n];
            seen[s] = true;
            let mut path = vec![s];
            dfs(&g, s, s, &mut path, &mut seen, &mut out);
        }
        out.sort();
        out.dedup();
        out
    }
}
