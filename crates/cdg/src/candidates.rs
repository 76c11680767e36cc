//! Static deadlock-configuration candidates for a CDG cycle.
//!
//! Definition 6 of the paper describes a deadlock configuration: every
//! message holds a contiguous segment of the cycle's channels and
//! waits for the first channel of the next segment. This module
//! enumerates every such *static* assignment for a given cycle. A
//! cycle with no candidate can never deadlock for structural reasons;
//! a cycle with candidates may still be deadlock-free if no candidate
//! is *reachable* — the paper's false resource cycle, decided
//! dynamically by `wormsearch`.

use wormnet::{ChannelId, Network};
use wormroute::TableRouting;

use crate::graph::{CdgCycle, MsgPair};
use crate::witnesses::Witnesses;

/// A contiguous run of cycle channels held by one message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// The holding message.
    pub msg: MsgPair,
    /// The channels it holds, in cycle order. Consecutive on the
    /// message's path by construction.
    pub channels: Vec<ChannelId>,
}

/// One complete static deadlock configuration over a cycle: an
/// assignment of ≥ 2 messages to contiguous segments covering every
/// cycle channel, where each message's next required channel is the
/// head of the following segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlockCandidate {
    /// Segments in cycle order, starting from the segment containing
    /// the cycle's first channel.
    pub segments: Vec<Segment>,
}

impl DeadlockCandidate {
    /// The distinct messages of the configuration.
    pub fn messages(&self) -> Vec<MsgPair> {
        self.segments.iter().map(|s| s.msg).collect()
    }

    /// Render for reports.
    pub fn describe(&self, net: &Network) -> String {
        self.segments
            .iter()
            .map(|s| {
                format!(
                    "{}->{} holds [{}]",
                    net.node_name(s.msg.0),
                    net.node_name(s.msg.1),
                    s.channels
                        .iter()
                        .map(|&c| net.channel(c).to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })
            .collect::<Vec<_>>()
            .join("; ")
    }
}

/// Enumerate every static deadlock candidate of `cycle` when there are
/// at most `max_candidates` of them (`None` = more exist).
///
/// The witnesses of the cycle's edges are gathered from one scan of
/// `table`; to enumerate many cycles, gather them once with
/// [`Witnesses::of_cycles`] and call [`enumerate_candidates`].
pub fn deadlock_candidates(
    table: &TableRouting,
    cycle: &CdgCycle,
    max_candidates: usize,
) -> Option<Vec<DeadlockCandidate>> {
    let witnesses = Witnesses::of_cycles(table, [cycle]);
    let (candidates, complete) = enumerate_candidates(&witnesses, cycle, max_candidates);
    complete.then_some(candidates)
}

/// Like [`deadlock_candidates`], but over already gathered
/// `witnesses` (which must cover the cycle's edges), returning
/// whatever was enumerated before the budget ran out plus a
/// completeness flag. Classifiers use this so a budget overrun degrades
/// to "some candidates examined, enumeration incomplete" instead of
/// silently claiming none exist.
///
/// The enumerator keeps the candidate that crosses the budget before
/// it stops: a complete enumeration holds at most `max_candidates`
/// candidates, an incomplete one exactly `max_candidates + 1`.
pub fn enumerate_candidates(
    witnesses: &Witnesses,
    cycle: &CdgCycle,
    max_candidates: usize,
) -> (Vec<DeadlockCandidate>, bool) {
    let l = cycle.len();
    let witness_sets: Vec<&[MsgPair]> = cycle
        .edge_pairs()
        .map(|(a, b)| witnesses.get(a, b))
        .collect();
    if witness_sets.iter().any(|w| w.is_empty()) {
        // A cycle edge with no witness cannot occur for a CDG-built
        // cycle, but guard anyway: no candidate can cover it.
        return (Vec::new(), true);
    }

    let mut out: Vec<DeadlockCandidate> = Vec::new();
    let mut owners: Vec<MsgPair> = Vec::with_capacity(l);
    let complete = enumerate(&witness_sets, &mut owners, cycle, &mut out, max_candidates).is_some();
    (out, complete)
}

fn enumerate(
    witness_sets: &[&[MsgPair]],
    owners: &mut Vec<MsgPair>,
    cycle: &CdgCycle,
    out: &mut Vec<DeadlockCandidate>,
    max_candidates: usize,
) -> Option<()> {
    let l = witness_sets.len();
    let i = owners.len();
    if i == l {
        if let Some(cand) = finalize(owners, cycle) {
            out.push(cand);
            if out.len() > max_candidates {
                return None;
            }
        }
        return Some(());
    }
    for &m in witness_sets[i] {
        // Linear contiguity pruning: if m appeared before but is not
        // the immediately preceding owner, its run would be split —
        // unless the earlier run touches position 0 and could merge
        // cyclically with a final run; to keep pruning sound we only
        // reject when m appeared and was followed by a different owner
        // and m is not owners[0] (cyclic merge impossible).
        if i > 0 && owners[i - 1] != m {
            let appeared = owners.contains(&m);
            if appeared && owners[0] != m {
                continue;
            }
            // If m == owners[0], a second run at the tail can merge
            // with the head run only if it extends to the end; allow
            // and let finalize() verify.
        }
        owners.push(m);
        enumerate(witness_sets, owners, cycle, out, max_candidates)?;
        owners.pop();
    }
    Some(())
}

/// Validate cyclic contiguity and build the candidate.
fn finalize(owners: &[MsgPair], cycle: &CdgCycle) -> Option<DeadlockCandidate> {
    let l = owners.len();
    // Each message must own exactly one cyclically contiguous run.
    // Count boundaries: positions where owner changes from previous
    // (cyclically). Each message contributes exactly one boundary if
    // contiguous.
    let mut boundary_msgs: Vec<MsgPair> = Vec::new();
    for i in 0..l {
        let prev = owners[(i + l - 1) % l];
        if owners[i] != prev {
            boundary_msgs.push(owners[i]);
        }
    }
    if boundary_msgs.is_empty() {
        return None; // single message owns everything: not a deadlock
    }
    // Duplicate boundary message = split run.
    let mut sorted = boundary_msgs.clone();
    sorted.sort_unstable();
    if sorted.windows(2).any(|w| w[0] == w[1]) {
        return None;
    }
    if boundary_msgs.len() < 2 {
        return None;
    }

    // Build segments starting from the first boundary.
    let first_boundary = (0..l)
        .find(|&i| owners[i] != owners[(i + l - 1) % l])
        .expect("boundaries exist");
    let mut segments: Vec<Segment> = Vec::new();
    let mut idx = first_boundary;
    for _ in 0..l {
        let m = owners[idx];
        match segments.last_mut() {
            Some(seg) if seg.msg == m => seg.channels.push(cycle.channels[idx]),
            _ => segments.push(Segment {
                msg: m,
                channels: vec![cycle.channels[idx]],
            }),
        }
        idx = (idx + 1) % l;
    }
    Some(DeadlockCandidate { segments })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cdg;
    use wormnet::topology::ring_unidirectional;
    use wormroute::algorithms::clockwise_ring;

    fn ring_cdg(n: usize) -> (Network, TableRouting, Witnesses, CdgCycle) {
        let (net, nodes) = ring_unidirectional(n);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let cycle = Cdg::build(&net, &table).cycles().remove(0);
        let witnesses = Witnesses::of_cycles(&table, [&cycle]);
        (net, table, witnesses, cycle)
    }

    #[test]
    fn ring_cycle_has_candidates() {
        let (_net, table, _witnesses, cycle) = ring_cdg(4);
        let cands = deadlock_candidates(&table, &cycle, 10_000).unwrap();
        assert!(
            !cands.is_empty(),
            "clockwise ring must have static deadlocks"
        );
        for c in &cands {
            // Segments cover the cycle exactly.
            let total: usize = c.segments.iter().map(|s| s.channels.len()).sum();
            assert_eq!(total, cycle.len());
            assert!(c.segments.len() >= 2);
            // Each message appears once.
            let mut msgs = c.messages();
            msgs.sort_unstable();
            msgs.dedup();
            assert_eq!(msgs.len(), c.segments.len());
        }
    }

    #[test]
    fn candidate_blocking_chain_is_witnessed() {
        let (_net, table, witnesses, cycle) = ring_cdg(4);
        let cands = deadlock_candidates(&table, &cycle, 10_000).unwrap();
        for cand in &cands {
            let k = cand.segments.len();
            for i in 0..k {
                let cur = &cand.segments[i];
                let next = &cand.segments[(i + 1) % k];
                let last = *cur.channels.last().unwrap();
                let want = next.channels[0];
                assert!(
                    witnesses.get(last, want).contains(&cur.msg),
                    "segment owner must want the next segment's head"
                );
            }
        }
    }

    #[test]
    fn four_ring_candidate_counts_are_plausible() {
        // On a 4-ring each channel c_i -> c_{i+1} edge has witnesses
        // (i-?, ...) — several messages; candidates must include the
        // classic 4-message configuration where each message owns one
        // channel.
        let (net, table, _witnesses, cycle) = ring_cdg(4);
        let cands = deadlock_candidates(&table, &cycle, 100_000).unwrap();
        let four_msg = cands.iter().find(|c| c.segments.len() == 4);
        assert!(four_msg.is_some(), "4 single-channel segments expected");
        let c = four_msg.unwrap();
        let desc = c.describe(&net);
        assert!(desc.contains("holds"));
        // Each single-channel owner wants the next channel: the owner
        // of channel i must be a message whose path continues past
        // node i+1; e.g. (i, i+2) or longer.
        for seg in &c.segments {
            assert_eq!(seg.channels.len(), 1);
            assert_ne!(seg.msg.0, seg.msg.1);
        }
    }

    #[test]
    fn budget_aborts() {
        let (_net, table, _witnesses, cycle) = ring_cdg(5);
        assert!(deadlock_candidates(&table, &cycle, 0).is_none());
    }

    #[test]
    fn an_incomplete_enumeration_keeps_one_candidate_past_the_budget() {
        let (_net, _table, witnesses, cycle) = ring_cdg(5);
        let (all, complete) = enumerate_candidates(&witnesses, &cycle, usize::MAX);
        assert!(complete);
        for budget in [0, 1, 7, all.len() - 1] {
            let (prefix, complete) = enumerate_candidates(&witnesses, &cycle, budget);
            assert!(!complete, "budget {budget} of {}", all.len());
            assert_eq!(prefix.len(), budget + 1);
            assert_eq!(prefix[..], all[..budget + 1]);
        }
        let (exact, complete) = enumerate_candidates(&witnesses, &cycle, all.len());
        assert!(complete);
        assert_eq!(exact, all);
    }
}
