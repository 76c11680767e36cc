//! Shared-channel analysis over a deadlock candidate.
//!
//! Section 5 of the paper shows that an *unreachable* cyclic
//! configuration (false resource cycle) requires channel sharing: some
//! channel that at least two configuration messages must both use.
//! This module computes, for a candidate configuration:
//!
//! * every shared channel, its users, and whether it lies inside or
//!   outside the cycle (a shared channel counts as *within* the cycle
//!   only when it is within the cycle for **all** messages that use
//!   it — the paper's convention), and
//! * the per-message geometry the theorems reason about: `d_i`, the
//!   number of channels from the shared channel to the message's entry
//!   into the cycle, and `a_i`, the number of channels the message
//!   uses from its entry until its destination.
//!
//! Both test cycle membership through a [`CycleIndex`], a stamp per
//! channel that one analysis refills for each of its cycles.

use wormnet::{ChannelId, Network};
use wormroute::TableRouting;

use crate::candidates::DeadlockCandidate;
use crate::graph::{CdgCycle, MsgPair};

/// A channel needed by more than one message of a configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharedChannel {
    /// The shared channel.
    pub channel: ChannelId,
    /// The configuration messages whose paths use it, in segment order.
    pub users: Vec<MsgPair>,
    /// Whether the channel is within the cycle for all of its users
    /// (paper convention). Theorem 2: an unreachable cycle cannot have
    /// its shared channels within the cycle.
    pub inside_cycle: bool,
}

/// Per-message geometry relative to one shared channel (the paper's
/// `d_i` / `a_i` parameters from Section 6, also used by Theorem 5's
/// conditions).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MessageGeometry {
    /// The message.
    pub msg: MsgPair,
    /// Index (within the message's channel path) of its first in-cycle
    /// channel.
    pub entry_index: usize,
    /// That first in-cycle channel `c_x` — the channel at which this
    /// message blocks its predecessor in the cycle.
    pub entry_channel: ChannelId,
    /// `d`: channels strictly between the shared channel and the entry
    /// channel on this message's path. `None` if the message does not
    /// use the shared channel before entering the cycle.
    pub d: Option<usize>,
    /// `a`: channels from the entry channel (inclusive) to the
    /// destination — "the number of channels used within the cycle".
    pub a: usize,
    /// Total path length.
    pub path_len: usize,
}

/// Complete sharing analysis of a candidate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharingAnalysis {
    /// All shared channels in channel order.
    pub shared: Vec<SharedChannel>,
}

impl SharingAnalysis {
    /// Shared channels lying outside the cycle.
    pub fn outside(&self) -> impl Iterator<Item = &SharedChannel> {
        self.shared.iter().filter(|s| !s.inside_cycle)
    }

    /// Shared channels lying inside the cycle.
    pub fn inside(&self) -> impl Iterator<Item = &SharedChannel> {
        self.shared.iter().filter(|s| s.inside_cycle)
    }

    /// Render the shared channels for reports.
    pub fn describe(&self, net: &Network) -> String {
        if self.shared.is_empty() {
            return "no shared channels".to_string();
        }
        self.shared
            .iter()
            .map(|s| {
                format!(
                    "{} [{}] shared by {} message(s): {}",
                    net.channel(s.channel),
                    if s.inside_cycle { "inside" } else { "outside" },
                    s.users.len(),
                    s.users
                        .iter()
                        .map(|&(a, b)| format!("{}->{}", net.node_name(a), net.node_name(b)))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// The channels of one cycle, as a stamp per network channel, so that
/// membership is one array read. An analysis keeps one index and
/// [`CycleIndex::set`]s it to each cycle in turn; it also keeps the
/// sharing analysis's buffer.
#[derive(Clone, Debug)]
pub struct CycleIndex {
    stamp: Vec<u32>,
    /// The stamp of the current cycle's channels.
    mark: u32,
    /// The channel uses of one candidate, reused by
    /// [`CycleIndex::analyze`].
    uses: Vec<u64>,
}

impl CycleIndex {
    /// An index over `net`'s channels holding no cycle.
    pub fn new(net: &Network) -> Self {
        CycleIndex {
            stamp: vec![0; net.channel_count()],
            mark: 1,
            uses: Vec::new(),
        }
    }

    /// An index holding `cycle`.
    pub fn of(net: &Network, cycle: &CdgCycle) -> Self {
        let mut index = CycleIndex::new(net);
        index.set(cycle);
        index
    }

    /// Hold `cycle` instead of the previous cycle.
    pub fn set(&mut self, cycle: &CdgCycle) {
        if self.mark == u32::MAX {
            self.stamp.fill(0);
            self.mark = 1;
        }
        self.mark += 1;
        for c in &cycle.channels {
            self.stamp[c.index()] = self.mark;
        }
    }

    /// Whether `channel` lies on the cycle.
    #[inline]
    fn contains(&self, channel: ChannelId) -> bool {
        self.stamp[channel.index()] == self.mark
    }

    /// Index of the first channel of `chans` on the cycle.
    fn entry(&self, chans: &[ChannelId]) -> Option<usize> {
        chans.iter().position(|&c| self.contains(c))
    }

    /// The sharing analysis of `candidate` over the held cycle.
    ///
    /// Every channel use of every configuration message becomes one
    /// `(channel, segment, at or after the message's entry)` key; the
    /// keys are sorted, and each channel's group of two or more is a
    /// shared channel, its users in segment order.
    pub fn analyze(
        &mut self,
        table: &TableRouting,
        candidate: &DeadlockCandidate,
    ) -> SharingAnalysis {
        let mut uses = std::mem::take(&mut self.uses);
        uses.clear();
        for (k, seg) in candidate.segments.iter().enumerate() {
            let chans = table
                .path(seg.msg.0, seg.msg.1)
                .expect("configuration messages are routed")
                .channels();
            // A message never on the cycle has no use at or after entry.
            let entry = self.entry(chans).unwrap_or(chans.len());
            uses.extend(
                chans
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| Use::pack(c, k, i >= entry)),
            );
        }
        uses.sort_unstable();
        let mut shared = Vec::new();
        for group in uses.chunk_by(|&a, &b| Use::channel(a) == Use::channel(b)) {
            if group.len() < 2 {
                continue;
            }
            let channel = Use::channel(group[0]);
            shared.push(SharedChannel {
                channel,
                users: group
                    .iter()
                    .map(|&u| candidate.segments[Use::segment(u)].msg)
                    .collect(),
                inside_cycle: self.contains(channel)
                    && group.iter().all(|&u| Use::at_or_after_entry(u)),
            });
        }
        self.uses = uses;
        SharingAnalysis { shared }
    }

    /// Geometry of one message relative to the held cycle and
    /// (optionally) a shared channel.
    ///
    /// # Panics
    /// Panics if the message is unrouted or its path never touches the
    /// cycle — candidates guarantee both.
    pub fn geometry(
        &self,
        table: &TableRouting,
        msg: MsgPair,
        shared: Option<ChannelId>,
    ) -> MessageGeometry {
        let chans = table
            .path(msg.0, msg.1)
            .expect("message must be routed")
            .channels();
        let entry_index = self
            .entry(chans)
            .expect("configuration message must enter the cycle");
        let d = shared.and_then(|cs| {
            let cs_pos = chans.iter().position(|&c| c == cs)?;
            (cs_pos < entry_index).then(|| entry_index - cs_pos - 1)
        });
        MessageGeometry {
            msg,
            entry_index,
            entry_channel: chans[entry_index],
            d,
            a: chans.len() - entry_index,
            path_len: chans.len(),
        }
    }
}

/// One channel use of a configuration message, packed into a word that
/// sorts by channel, then segment: `channel << 32 | segment << 1 |
/// at_or_after_entry`.
struct Use;

impl Use {
    fn pack(channel: ChannelId, segment: usize, at_or_after_entry: bool) -> u64 {
        debug_assert!(segment < 1 << 31, "segment index fits 31 bits");
        (channel.index() as u64) << 32 | (segment as u64) << 1 | u64::from(at_or_after_entry)
    }

    fn channel(u: u64) -> ChannelId {
        ChannelId::from_index((u >> 32) as usize)
    }

    fn segment(u: u64) -> usize {
        ((u & 0xffff_ffff) >> 1) as usize
    }

    fn at_or_after_entry(u: u64) -> bool {
        u & 1 == 1
    }
}

/// Compute the sharing analysis for `candidate` over `cycle`
/// ([`CycleIndex::analyze`] over a fresh index).
pub fn analyze(
    net: &Network,
    table: &TableRouting,
    cycle: &CdgCycle,
    candidate: &DeadlockCandidate,
) -> SharingAnalysis {
    CycleIndex::of(net, cycle).analyze(table, candidate)
}

/// Geometry of one message relative to `cycle` and (optionally) a
/// shared channel ([`CycleIndex::geometry`] over a fresh index).
///
/// # Panics
/// Panics if the message is unrouted or its path never touches the
/// cycle — candidates guarantee both.
pub fn geometry(
    net: &Network,
    table: &TableRouting,
    cycle: &CdgCycle,
    msg: MsgPair,
    shared: Option<ChannelId>,
) -> MessageGeometry {
    CycleIndex::of(net, cycle).geometry(table, msg, shared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::deadlock_candidates;
    use crate::graph::Cdg;
    use wormnet::topology::ring_unidirectional;
    use wormroute::algorithms::clockwise_ring;

    #[test]
    fn ring_candidates_share_only_inside_the_cycle() {
        // Clockwise ring messages never leave the cycle, so whatever
        // sharing a configuration has is *within* the cycle — by
        // Theorem 2 / Corollary 1 the deadlock must be reachable.
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let cycle = Cdg::build(&net, &table).cycles().remove(0);
        let cands = deadlock_candidates(&table, &cycle, 100_000).unwrap();
        let four = cands.iter().find(|c| c.segments.len() == 4).unwrap();
        let analysis = analyze(&net, &table, &cycle, four);
        assert_eq!(
            analysis.outside().count(),
            0,
            "ring messages never share outside the cycle"
        );
        // A 4-message cover of a 4-cycle: each owner's path continues
        // into the next owner's channel, so inside sharing exists.
        assert!(analysis.inside().count() >= 1);
    }

    #[test]
    fn overlapping_long_messages_share_inside() {
        // On a 4-ring pick a 2-message candidate where each message
        // travels 3 hops: their in-cycle spans overlap, producing
        // shared channels inside the cycle.
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let cycle = Cdg::build(&net, &table).cycles().remove(0);
        let cands = deadlock_candidates(&table, &cycle, 100_000).unwrap();
        let two = cands
            .iter()
            .find(|c| {
                c.segments.len() == 2
                    && c.messages()
                        .iter()
                        .all(|&(s, d)| table.path(s, d).unwrap().len() == 3)
            })
            .expect("two 3-hop messages can cover a 4-cycle");
        let analysis = analyze(&net, &table, &cycle, two);
        assert!(analysis.inside().count() >= 1);
        for s in analysis.inside() {
            assert!(cycle.contains(s.channel));
            assert_eq!(s.users.len(), 2);
        }
    }

    #[test]
    fn describe_renders_sharing() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let cycle = Cdg::build(&net, &table).cycles().remove(0);
        let cands = deadlock_candidates(&table, &cycle, 100_000).unwrap();
        let four = cands.iter().find(|c| c.segments.len() == 4).unwrap();
        let analysis = analyze(&net, &table, &cycle, four);
        let d = analysis.describe(&net);
        assert!(d.contains("[inside]"));
        assert!(d.contains("shared by 2"));
        // Empty analysis.
        let empty = SharingAnalysis { shared: vec![] };
        assert_eq!(empty.describe(&net), "no shared channels");
    }

    #[test]
    fn geometry_of_ring_messages() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let cdg = Cdg::build(&net, &table);
        let cycle = cdg.cycles().remove(0);
        // Message 0 -> 2: both channels in the cycle; entry at index 0.
        let g = geometry(&net, &table, &cycle, (nodes[0], nodes[2]), None);
        assert_eq!(g.entry_index, 0);
        assert_eq!(g.a, 2);
        assert_eq!(g.path_len, 2);
        assert_eq!(g.d, None);
    }

    #[test]
    fn geometry_d_relative_to_shared_channel() {
        // Line into a ring: source S with a private channel into ring
        // node 0 would give d > 0; emulate by building a custom net.
        let mut net = Network::new();
        let s = net.add_node("S");
        let x = net.add_node("x");
        let r: Vec<_> = (0..3).map(|i| net.add_node(format!("r{i}"))).collect();
        let cs = net.add_labeled_channel(s, x, "cs");
        net.add_channel(x, r[0]);
        for i in 0..3 {
            net.add_channel(r[i], r[(i + 1) % 3]);
        }
        // close connectivity
        net.add_channel(r[0], s);

        let mut table = wormroute::TableBuilder::new(&net);
        let p = wormroute::Path::from_nodes(&net, &[s, x, r[0], r[1], r[2]]).unwrap();
        table.insert(s, r[2], p).unwrap();
        let table = table.finish().unwrap();
        // second message to create a cycle is unnecessary here; build
        // the "cycle" object manually from the ring channels.
        let ring_chans: Vec<ChannelId> = (0..3)
            .map(|i| net.find_channel(r[i], r[(i + 1) % 3]).unwrap())
            .collect();
        let cycle = CdgCycle {
            channels: ring_chans,
        };
        let g = geometry(&net, &table, &cycle, (s, r[2]), Some(cs));
        // Path: cs, x->r0, r0->r1, r1->r2. Entry = r0->r1 (index 2).
        // Channels strictly between cs and entry: x->r0 -> d = 1.
        assert_eq!(g.entry_index, 2);
        assert_eq!(g.d, Some(1));
        assert_eq!(g.a, 2);
    }

    #[test]
    fn geometry_d_none_when_shared_after_entry() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let cdg = Cdg::build(&net, &table);
        let cycle = cdg.cycles().remove(0);
        let c12 = net.find_channel(nodes[1], nodes[2]).unwrap();
        // Message 0 -> 3 uses c12 but after entering the cycle.
        let g = geometry(&net, &table, &cycle, (nodes[0], nodes[3]), Some(c12));
        assert_eq!(g.d, None);
    }

    /// The per-candidate ordered-map analysis this module used to run:
    /// users per channel in segment order, inside when on the cycle and
    /// at or after every user's entry.
    fn map_oracle(
        table: &TableRouting,
        cycle: &CdgCycle,
        candidate: &DeadlockCandidate,
    ) -> SharingAnalysis {
        let mut users: std::collections::BTreeMap<ChannelId, Vec<MsgPair>> = Default::default();
        for m in candidate.messages() {
            for &c in table.path(m.0, m.1).unwrap().channels() {
                users.entry(c).or_default().push(m);
            }
        }
        let shared = users
            .into_iter()
            .filter(|(_, u)| u.len() >= 2)
            .map(|(channel, u)| {
                let inside = cycle.contains(channel)
                    && u.iter().all(|&m| {
                        let chans = table.path(m.0, m.1).unwrap().channels();
                        let entry = chans.iter().position(|&c| cycle.contains(c)).unwrap();
                        chans.iter().position(|&c| c == channel).unwrap() >= entry
                    });
                SharedChannel {
                    channel,
                    users: u,
                    inside_cycle: inside,
                }
            })
            .collect();
        SharingAnalysis { shared }
    }

    #[test]
    fn one_reused_index_matches_the_map_oracle() {
        use wormnet::topology::ring_bidirectional;
        // Clockwise for short pairs, counter-clockwise otherwise: two
        // cycles whose candidates share channels inside and outside.
        let (net, nodes) = ring_bidirectional(6);
        let n = nodes.len();
        let table = TableRouting::build(&net, |path, s, d| {
            let (si, di) = (s.index(), d.index());
            let step = if (di + n - si) % n <= 3 { 1 } else { n - 1 };
            path.node(s);
            let mut i = si;
            while i != di {
                i = (i + step) % n;
                path.node(nodes[i]);
            }
            Some(())
        })
        .unwrap();
        let cycles = Cdg::build(&net, &table).cycles();
        assert!(cycles.len() >= 2);
        let witnesses = crate::Witnesses::of_cycles(&table, &cycles);
        let mut index = CycleIndex::new(&net);
        let mut seen = 0;
        for cycle in &cycles {
            index.set(cycle);
            let (cands, _) = crate::enumerate_candidates(&witnesses, cycle, 2_000);
            for cand in &cands {
                assert_eq!(index.analyze(&table, cand), map_oracle(&table, cycle, cand));
                seen += 1;
            }
        }
        assert!(seen > 0);
    }
}
