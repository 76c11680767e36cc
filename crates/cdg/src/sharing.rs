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
//! channel that one analysis refills for each of its cycles; the
//! sharing analysis counts channel uses with a second stamp per
//! channel and writes its shared channels into the flat buffers of a
//! [`SharingAnalysis`].

use std::ops::Range;

use wormnet::{ChannelId, Network, NodeId};
use wormroute::TableRouting;

use crate::candidates::Segment;
use crate::graph::{CdgCycle, MsgPair};

/// A channel needed by more than one message of a configuration, read
/// from a [`SharingAnalysis`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SharedChannel<'a> {
    /// The shared channel.
    pub channel: ChannelId,
    /// The configuration messages whose paths use it, in segment order.
    pub users: &'a [MsgPair],
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

/// One shared channel of a [`SharingAnalysis`]: its users are
/// `users[start..end]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    channel: ChannelId,
    start: u32,
    end: u32,
    inside_cycle: bool,
}

/// Shared channels stored flat: one record per shared channel and one
/// buffer of all their users. It holds one candidate's analysis, or
/// several candidates' one after another, each a range of records
/// ([`CycleIndex::analyze_into`] returns it).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SharingAnalysis {
    entries: Vec<Entry>,
    users: Vec<MsgPair>,
}

impl SharingAnalysis {
    /// Every shared channel held, in the order analysed: channel order
    /// for one candidate.
    pub fn shared(&self) -> Sharing<'_> {
        self.range(0..self.entries.len())
    }

    /// The shared channels of the records in `range`.
    pub fn range(&self, range: Range<usize>) -> Sharing<'_> {
        Sharing {
            entries: &self.entries[range],
            users: &self.users,
        }
    }

    /// Drop every record, keeping the buffers.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.users.clear();
    }
}

/// A run of shared channels of one candidate, in channel order, read
/// from a [`SharingAnalysis`].
#[derive(Clone, Copy, Debug)]
pub struct Sharing<'a> {
    entries: &'a [Entry],
    users: &'a [MsgPair],
}

impl<'a> Sharing<'a> {
    /// How many shared channels the run holds.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the run holds no shared channel.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every shared channel of the run.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = SharedChannel<'a>> + Clone + 'a {
        let users = self.users;
        self.entries.iter().map(move |e| SharedChannel {
            channel: e.channel,
            users: &users[e.start as usize..e.end as usize],
            inside_cycle: e.inside_cycle,
        })
    }

    /// Shared channels lying outside the cycle.
    pub fn outside(&self) -> impl Iterator<Item = SharedChannel<'a>> + Clone + 'a {
        self.iter().filter(|s| !s.inside_cycle)
    }

    /// Shared channels lying inside the cycle.
    pub fn inside(&self) -> impl Iterator<Item = SharedChannel<'a>> + Clone + 'a {
        self.iter().filter(|s| s.inside_cycle)
    }

    /// Render the shared channels for reports.
    pub fn describe(&self, net: &Network) -> String {
        if self.is_empty() {
            return "no shared channels".to_string();
        }
        self.iter()
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
/// sharing analysis's per-channel use counts. Both arrays are
/// allocated on first use, so an index that is never set costs
/// nothing.
#[derive(Clone, Debug)]
pub struct CycleIndex {
    /// Channels of the network.
    channels: usize,
    stamp: Vec<u32>,
    /// The stamp of the current cycle's channels.
    mark: u32,
    /// Per channel, its uses by the candidate under analysis.
    uses: Vec<Uses>,
    /// The stamp of the current candidate's channels in `uses`; one
    /// above it marks the ones it keeps.
    pass: u32,
    /// The channels the current candidate uses.
    touched: Vec<ChannelId>,
}

/// One channel's uses by the candidate under analysis: how many
/// messages use it while counting, then the next free slot of its
/// users once it is kept.
#[derive(Clone, Copy, Debug, Default)]
struct Uses {
    pass: u32,
    count: u32,
}

impl CycleIndex {
    /// An index over `net`'s channels holding no cycle.
    pub fn new(net: &Network) -> Self {
        CycleIndex {
            channels: net.channel_count(),
            stamp: Vec::new(),
            mark: 0,
            uses: Vec::new(),
            pass: 0,
            touched: Vec::new(),
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
        if self.stamp.is_empty() {
            self.stamp = vec![0; self.channels];
        }
        if self.mark == u32::MAX {
            self.stamp.fill(0);
            self.mark = 0;
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

    /// The sharing analysis of the candidate `segments` over the held
    /// cycle.
    pub fn analyze(&mut self, table: &TableRouting, segments: &[Segment]) -> SharingAnalysis {
        let mut out = SharingAnalysis::default();
        self.analyze_into(table, segments, false, &mut out);
        out
    }

    /// Append the shared channels of the candidate `segments` over the
    /// held cycle to `out` — all of them, or with `outside_only` those
    /// outside the cycle — and return the range of records they take:
    /// in channel order, each with its users in segment order.
    ///
    /// One pass counts every channel use under a fresh stamp; the
    /// channels used twice or more are sorted and given their users'
    /// slots; a second pass writes each message into the slots of the
    /// channels it uses. A path's first cycle channel is its entry, so
    /// every use of a cycle channel is at or after its user's entry: a
    /// shared channel is inside the cycle exactly when it lies on it.
    pub fn analyze_into(
        &mut self,
        table: &TableRouting,
        segments: &[Segment],
        outside_only: bool,
        out: &mut SharingAnalysis,
    ) -> Range<usize> {
        let path = |s: &Segment| {
            table
                .path(s.msg.0, s.msg.1)
                .expect("configuration messages are routed")
                .channels()
        };
        if self.uses.is_empty() {
            self.uses = vec![Uses::default(); self.channels];
        }
        if self.pass >= u32::MAX - 2 {
            self.uses.fill(Uses::default());
            self.pass = 0;
        }
        self.pass += 2;
        let (counting, kept) = (self.pass, self.pass + 1);
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        for seg in segments {
            for &c in path(seg) {
                let u = &mut self.uses[c.index()];
                if u.pass != counting {
                    *u = Uses {
                        pass: counting,
                        count: 0,
                    };
                    touched.push(c);
                }
                u.count += 1;
            }
        }
        touched.retain(|&c| self.uses[c.index()].count >= 2 && !(outside_only && self.contains(c)));
        touched.sort_unstable();
        let first = out.entries.len();
        let mut end = out.users.len() as u32;
        for &c in &touched {
            let u = &mut self.uses[c.index()];
            let start = end;
            end += u.count;
            *u = Uses {
                pass: kept,
                count: start,
            };
            out.entries.push(Entry {
                channel: c,
                start,
                end,
                inside_cycle: self.contains(c),
            });
        }
        let unset = (NodeId::from_index(0), NodeId::from_index(0));
        out.users.resize(end as usize, unset);
        for seg in segments {
            for &c in path(seg) {
                let u = &mut self.uses[c.index()];
                if u.pass == kept {
                    out.users[u.count as usize] = seg.msg;
                    u.count += 1;
                }
            }
        }
        self.touched = touched;
        first..out.entries.len()
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

/// Compute the sharing analysis of the candidate `segments` over
/// `cycle` ([`CycleIndex::analyze`] over a fresh index).
pub fn analyze(
    net: &Network,
    table: &TableRouting,
    cycle: &CdgCycle,
    segments: &[Segment],
) -> SharingAnalysis {
    CycleIndex::of(net, cycle).analyze(table, segments)
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
        let four = cands.iter().find(|c| c.len() == 4).unwrap();
        let analysis = analyze(&net, &table, &cycle, four);
        assert_eq!(
            analysis.shared().outside().count(),
            0,
            "ring messages never share outside the cycle"
        );
        // A 4-message cover of a 4-cycle: each owner's path continues
        // into the next owner's channel, so inside sharing exists.
        assert!(analysis.shared().inside().count() >= 1);
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
                c.len() == 2
                    && c.iter()
                        .all(|s| table.path(s.msg.0, s.msg.1).unwrap().len() == 3)
            })
            .expect("two 3-hop messages can cover a 4-cycle");
        let analysis = analyze(&net, &table, &cycle, two);
        assert!(analysis.shared().inside().count() >= 1);
        for s in analysis.shared().inside() {
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
        let four = cands.iter().find(|c| c.len() == 4).unwrap();
        let analysis = analyze(&net, &table, &cycle, four);
        let d = analysis.shared().describe(&net);
        assert!(d.contains("[inside]"));
        assert!(d.contains("shared by 2"));
        // Empty analysis.
        let empty = SharingAnalysis::default();
        assert_eq!(empty.shared().describe(&net), "no shared channels");
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

    /// A shared channel as plain values: channel, users, inside.
    type Owned = (ChannelId, Vec<MsgPair>, bool);

    fn owned(sharing: Sharing<'_>) -> Vec<Owned> {
        sharing
            .iter()
            .map(|s| (s.channel, s.users.to_vec(), s.inside_cycle))
            .collect()
    }

    /// The per-candidate ordered-map analysis this module used to run:
    /// users per channel in segment order, inside when on the cycle and
    /// at or after every user's entry.
    fn map_oracle(table: &TableRouting, cycle: &CdgCycle, segments: &[Segment]) -> Vec<Owned> {
        let mut users: std::collections::BTreeMap<ChannelId, Vec<MsgPair>> = Default::default();
        for m in segments.iter().map(|s| s.msg) {
            for &c in table.path(m.0, m.1).unwrap().channels() {
                users.entry(c).or_default().push(m);
            }
        }
        users
            .into_iter()
            .filter(|(_, u)| u.len() >= 2)
            .map(|(channel, u)| {
                let inside = cycle.contains(channel)
                    && u.iter().all(|&m| {
                        let chans = table.path(m.0, m.1).unwrap().channels();
                        let entry = chans.iter().position(|&c| cycle.contains(c)).unwrap();
                        chans.iter().position(|&c| c == channel).unwrap() >= entry
                    });
                (channel, u, inside)
            })
            .collect()
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
        let mut outside = SharingAnalysis::default();
        let mut seen = 0;
        for cycle in &cycles {
            index.set(cycle);
            let (cands, _) = crate::enumerate_candidates(&witnesses, cycle, 2_000);
            for cand in cands.iter() {
                let want = map_oracle(&table, cycle, cand);
                assert_eq!(owned(index.analyze(&table, cand).shared()), want);
                // The outside-only records of many candidates, appended
                // to one buffer, are the outside part of each analysis.
                let range = index.analyze_into(&table, cand, true, &mut outside);
                let want_outside: Vec<Owned> = want.into_iter().filter(|s| !s.2).collect();
                assert_eq!(owned(outside.range(range)), want_outside);
                seen += 1;
            }
        }
        assert!(seen > 0);
    }
}
