//! Hub certificates: edge-disjoint in/out spanning branchings.
//!
//! If some root `r` carries both an out-branching (a spanning tree of
//! channels directed away from `r`) and an in-branching (directed
//! toward `r`) that share no channel, then the schedule *in-tree
//! channels by decreasing depth, then out-tree channels by increasing
//! depth* wins the reach game for all internal pairs: the in-block
//! establishes `(s, r)` for every `s`, the out-block then fans
//! `(s, ·)` out to every target. This subsumes the symmetric
//! topologies (any bidirectional spanning tree splits into two
//! opposed, disjoint branchings) and multi-lane unidirectional rings
//! (one lane in, one lane out).
//!
//! Finding disjoint branchings is NP-hard in general digraphs, so this
//! is a *certifier*, not the decision procedure: a greedy two-pass BFS
//! per root, each winning order re-verified by the engine's reach-game
//! replay before it is trusted.

use crate::engine::Component;

/// One BFS spanning attempt. `outward` selects direction: `true`
/// grows a tree of channels pointing away from `root` (following
/// `out_adj`), `false` toward it. Tree channels are claimed in
/// `used`; already-claimed channels are skipped, which is what makes
/// the second pass edge-disjoint from the first. Returns the tree
/// channels paired with the depth of their far endpoint, or `None` if
/// the residual channels do not span the component.
fn bfs_tree(
    comp: &Component,
    adj: &[Vec<usize>],
    root: usize,
    outward: bool,
    used: &mut [bool],
) -> Option<Vec<(usize, usize)>> {
    let n = comp.n();
    let mut depth = vec![usize::MAX; n];
    let mut tree = Vec::with_capacity(n - 1);
    let mut queue = std::collections::VecDeque::new();
    depth[root] = 0;
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        for &e in &adj[v] {
            if used[e] {
                continue;
            }
            let (src, dst) = comp.ends[e];
            let far = if outward { dst } else { src };
            if depth[far] != usize::MAX {
                continue;
            }
            depth[far] = depth[v] + 1;
            used[e] = true;
            tree.push((e, depth[far]));
            queue.push_back(far);
        }
    }
    if tree.len() == n - 1 {
        Some(tree)
    } else {
        None
    }
}

/// Roots tried for the disjoint-branchings certifier per component.
const MAX_ROOTS: usize = 8;

/// Try to certify the component via disjoint branchings, returning
/// `(local root, channel order)` over the `2(n-1)` tree channels.
///
/// Deterministic: the first [`MAX_ROOTS`] roots are tried in local
/// index order, adjacency is scanned in ascending channel order, and
/// both claim orders (out-tree first, in-tree first) are attempted per
/// root.
pub(crate) fn hub_order(comp: &Component) -> Option<(usize, Vec<usize>)> {
    let n = comp.n();
    if n < 2 {
        return None;
    }
    let out_adj = comp.out_adj();
    let in_adj = comp.in_adj();
    for root in 0..n.min(MAX_ROOTS) {
        for out_first in [true, false] {
            let mut used = vec![false; comp.m()];
            let (out_tree, in_tree) = if out_first {
                let o = bfs_tree(comp, &out_adj, root, true, &mut used);
                let i = o
                    .is_some()
                    .then(|| bfs_tree(comp, &in_adj, root, false, &mut used))
                    .flatten();
                (o, i)
            } else {
                let i = bfs_tree(comp, &in_adj, root, false, &mut used);
                let o = i
                    .is_some()
                    .then(|| bfs_tree(comp, &out_adj, root, true, &mut used))
                    .flatten();
                (o, i)
            };
            let (Some(out_tree), Some(mut in_tree)) = (out_tree, in_tree) else {
                continue;
            };
            // In-tree deepest-first: along every leaf-to-root path the
            // channels ascend, so each source's reach climbs to the
            // root. Then out-tree shallowest-first fans every source
            // out from the root. Ties broken by channel index.
            in_tree.sort_by_key(|&(e, d)| (std::cmp::Reverse(d), e));
            let mut out_tree = out_tree;
            out_tree.sort_by_key(|&(e, d)| (d, e));
            let order: Vec<usize> = in_tree
                .into_iter()
                .chain(out_tree)
                .map(|(e, _)| e)
                .collect();
            return Some((root, order));
        }
    }
    None
}
