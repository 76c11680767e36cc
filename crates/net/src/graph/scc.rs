//! Tarjan's strongly-connected-components algorithm (iterative).

use super::Digraph;

/// Compute the strongly connected components of `g`.
///
/// Returns components as vertex lists in reverse topological order of
/// the condensation (Tarjan's natural output order). Every vertex
/// appears in exactly one component; trivial (single-vertex, no
/// self-loop) components are included.
///
/// The implementation is iterative — dependency graphs of larger
/// simulated networks can be deep enough to overflow the stack with a
/// recursive formulation.
pub fn tarjan_scc(g: &impl Digraph) -> Vec<Vec<usize>> {
    let n = g.vertex_count();
    const UNVISITED: usize = usize::MAX;

    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS frame: (vertex, successor list, next successor position).
    struct Frame {
        v: usize,
        succ: Vec<usize>,
        pos: usize,
    }

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        let mut frames: Vec<Frame> = Vec::new();
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        frames.push(Frame {
            v: root,
            succ: g.successors(root),
            pos: 0,
        });

        while let Some(frame) = frames.last_mut() {
            if frame.pos < frame.succ.len() {
                let w = frame.succ[frame.pos];
                frame.pos += 1;
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push(Frame {
                        v: w,
                        succ: g.successors(w),
                        pos: 0,
                    });
                } else if on_stack[w] {
                    let v = frame.v;
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                let v = frame.v;
                frames.pop();
                if let Some(parent) = frames.last() {
                    let p = parent.v;
                    lowlink[p] = lowlink[p].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    components.push(comp);
                }
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::super::AdjList;
    use super::*;

    fn normalize(mut comps: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
        for c in &mut comps {
            c.sort_unstable();
        }
        comps.sort();
        comps
    }

    #[test]
    fn single_cycle_is_one_component() {
        let g = AdjList::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let comps = tarjan_scc(&g);
        assert_eq!(comps.len(), 1);
        assert_eq!(normalize(comps), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn dag_gives_singletons() {
        let g = AdjList::from_edges(3, &[(0, 1), (1, 2)]);
        let comps = tarjan_scc(&g);
        assert_eq!(comps.len(), 3);
    }

    #[test]
    fn two_cycles_joined_by_bridge() {
        // 0<->1 and 2<->3 with a bridge 1->2.
        let g = AdjList::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]);
        let comps = normalize(tarjan_scc(&g));
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn empty_graph() {
        let g = AdjList::new(0);
        assert!(tarjan_scc(&g).is_empty());
    }

    #[test]
    fn isolated_vertices() {
        let g = AdjList::new(3);
        assert_eq!(tarjan_scc(&g).len(), 3);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // A long path plus a back edge — recursion depth equal to n.
        let n = 200_000;
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((n - 1, 0));
        let g = AdjList::from_edges(n, &edges);
        let comps = tarjan_scc(&g);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), n);
    }
}
