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

use std::ops::Index;

use wormnet::{ChannelId, Network};
use wormroute::TableRouting;

use crate::graph::{CdgCycle, MsgPair};
use crate::witnesses::Witnesses;

/// A contiguous run of cycle channels held by one message: the `len`
/// channels of the cycle from position `first` on, wrapping past the
/// cycle's end. Read them with [`Segment::channels`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// The holding message.
    pub msg: MsgPair,
    /// Position in `cycle.channels` of the first channel held.
    pub first: u32,
    /// How many channels it holds.
    pub len: u32,
}

impl Segment {
    /// The channels held, in cycle order. Consecutive on the message's
    /// path by construction.
    pub fn channels<'c>(
        &self,
        cycle: &'c CdgCycle,
    ) -> impl Iterator<Item = ChannelId> + Clone + 'c {
        let (first, end) = (self.first as usize, (self.first + self.len) as usize);
        let chans = &cycle.channels[..];
        let (head, tail) = if end <= chans.len() {
            (&chans[first..end], &chans[..0])
        } else {
            (&chans[first..], &chans[..end - chans.len()])
        };
        head.iter().chain(tail).copied()
    }
}

/// One static deadlock configuration over a cycle, owned apart from
/// the store it was enumerated into: an assignment of ≥ 2 messages to
/// contiguous segments covering every cycle channel, where each
/// message's next required channel is the head of the following
/// segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlockCandidate {
    /// Segments in cycle order, as [`Candidates`] stores them.
    pub segments: Vec<Segment>,
}

/// Render the candidate `segments` of `cycle` for reports.
pub fn describe_candidate(net: &Network, cycle: &CdgCycle, segments: &[Segment]) -> String {
    segments
        .iter()
        .map(|s| {
            format!(
                "{}->{} holds [{}]",
                net.node_name(s.msg.0),
                net.node_name(s.msg.1),
                s.channels(cycle)
                    .map(|c| net.channel(c).to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
        .collect::<Vec<_>>()
        .join("; ")
}

/// The static deadlock candidates of one cycle, stored flat: candidate
/// `i` is `segments[starts[i]..starts[i + 1]]`, so enumerating one
/// allocates nothing of its own.
///
/// A candidate's segments are in cycle order, starting from the first
/// position whose owner differs from its predecessor's: the cycle's
/// first channel when that one starts a segment, else the segment
/// after the one that wraps past the cycle's end.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Candidates {
    segments: Vec<Segment>,
    starts: Vec<u32>,
}

impl Default for Candidates {
    fn default() -> Self {
        Candidates {
            segments: Vec::new(),
            starts: vec![0],
        }
    }
}

impl Candidates {
    /// How many candidates are stored.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Whether no candidate is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every candidate's segments, in enumeration order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Segment]> + Clone + '_ {
        self.starts
            .windows(2)
            .map(|w| &self.segments[w[0] as usize..w[1] as usize])
    }
}

impl Index<usize> for Candidates {
    type Output = [Segment];

    fn index(&self, i: usize) -> &[Segment] {
        &self.segments[self.starts[i] as usize..self.starts[i + 1] as usize]
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
) -> Option<Candidates> {
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
) -> (Candidates, bool) {
    let l = cycle.len();
    let witness_sets: Vec<&[MsgPair]> = cycle
        .edge_pairs()
        .map(|(a, b)| witnesses.get(a, b))
        .collect();
    let mut out = Candidates::default();
    if witness_sets.iter().any(|w| w.is_empty()) {
        // A cycle edge with no witness cannot occur for a CDG-built
        // cycle, but guard anyway: no candidate can cover it.
        return (out, true);
    }
    let mut owners: Vec<MsgPair> = Vec::with_capacity(l);
    let complete = enumerate(&witness_sets, &mut owners, &mut out, max_candidates).is_some();
    (out, complete)
}

/// Assign an owner to each cycle position in turn, depth first, and
/// store every complete assignment that is a candidate; `None` once
/// the store holds more than `max_candidates`.
fn enumerate(
    witness_sets: &[&[MsgPair]],
    owners: &mut Vec<MsgPair>,
    out: &mut Candidates,
    max_candidates: usize,
) -> Option<()> {
    let i = owners.len();
    if i == witness_sets.len() {
        if finalize(owners, out) && out.len() > max_candidates {
            return None;
        }
        return Some(());
    }
    for &m in witness_sets[i] {
        // Linear contiguity pruning: a message that held an earlier
        // run and was followed by another owner would be split, unless
        // it is the first position's owner, whose run at position 0 a
        // final run may still join cyclically (finalize() decides).
        if i > 0 && owners[i - 1] != m && owners[0] != m && owners.contains(&m) {
            continue;
        }
        owners.push(m);
        enumerate(witness_sets, owners, out, max_candidates)?;
        owners.pop();
    }
    Some(())
}

/// Store the candidate `owners` assigns, if it is one: every message
/// must hold one cyclically contiguous run, and at least two messages
/// must hold one. The pruning keeps every message except `owners[0]`
/// in one linear run, so only that message's runs are counted: its run
/// at position 0 and at most one more, which must reach the last
/// position to join the first cyclically; with none, the last position
/// must belong to another message.
fn finalize(owners: &[MsgPair], out: &mut Candidates) -> bool {
    let l = owners.len();
    let head = owners[0];
    let wraps = owners[l - 1] == head;
    let later_runs = (1..l)
        .filter(|&i| owners[i] == head && owners[i - 1] != head)
        .count();
    if later_runs != usize::from(wraps) {
        return false;
    }
    // Segments start at the first position whose owner differs from
    // its cyclic predecessor's.
    let start = if wraps {
        owners
            .iter()
            .position(|&m| m != head)
            .expect("another message holds a run")
    } else {
        0
    };
    let mut at = 0;
    while at < l {
        let first = (start + at) % l;
        let msg = owners[first];
        let mut len = 1;
        while at + len < l && owners[(first + len) % l] == msg {
            len += 1;
        }
        out.segments.push(Segment {
            msg,
            first: first as u32,
            len: len as u32,
        });
        at += len;
    }
    out.starts.push(out.segments.len() as u32);
    true
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
        for c in cands.iter() {
            // Segments cover the cycle exactly.
            let total: u32 = c.iter().map(|s| s.len).sum();
            assert_eq!(total as usize, cycle.len());
            assert!(c.len() >= 2);
            // Each message appears once.
            let mut msgs: Vec<MsgPair> = c.iter().map(|s| s.msg).collect();
            msgs.sort_unstable();
            msgs.dedup();
            assert_eq!(msgs.len(), c.len());
        }
    }

    #[test]
    fn candidate_blocking_chain_is_witnessed() {
        let (_net, table, witnesses, cycle) = ring_cdg(4);
        let cands = deadlock_candidates(&table, &cycle, 10_000).unwrap();
        for cand in cands.iter() {
            let k = cand.len();
            for i in 0..k {
                let cur = &cand[i];
                let next = &cand[(i + 1) % k];
                let last = cur.channels(&cycle).last().unwrap();
                let want = next.channels(&cycle).next().unwrap();
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
        let four_msg = cands.iter().find(|c| c.len() == 4);
        assert!(four_msg.is_some(), "4 single-channel segments expected");
        let c = four_msg.unwrap();
        let desc = describe_candidate(&net, &cycle, c);
        assert!(desc.contains("holds"));
        // Each single-channel owner wants the next channel: the owner
        // of channel i must be a message whose path continues past
        // node i+1; e.g. (i, i+2) or longer.
        for seg in c {
            assert_eq!(seg.len, 1);
            assert_ne!(seg.msg.0, seg.msg.1);
        }
    }

    #[test]
    fn a_segment_reads_its_channels_across_the_cycle_end() {
        let (_net, _table, _witnesses, cycle) = ring_cdg(5);
        let c = &cycle.channels;
        let seg = |first, len| Segment {
            msg: (
                wormnet::NodeId::from_index(0),
                wormnet::NodeId::from_index(1),
            ),
            first,
            len,
        };
        let read = |s: Segment| s.channels(&cycle).collect::<Vec<_>>();
        assert_eq!(read(seg(1, 3)), c[1..4]);
        assert_eq!(read(seg(3, 2)), c[3..5]);
        assert_eq!(read(seg(3, 4)), [c[3], c[4], c[0], c[1]]);
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
            assert!(prefix.iter().eq(all.iter().take(budget + 1)));
        }
        let (exact, complete) = enumerate_candidates(&witnesses, &cycle, all.len());
        assert!(complete);
        assert_eq!(exact, all);
    }
}
