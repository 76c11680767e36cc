//! The parameterized shared-channel cycle construction.
//!
//! Every network in the paper has the same skeleton:
//!
//! ```text
//!            c_s                    access_i (d_i channels)
//!   Src ────────────▶ N* ──▶ B_i1 ──▶ ... ──▶ E_i ∈ ring
//! ```
//!
//! * a directed **ring** of channels partitioned into one segment per
//!   cycle message (message `i`'s segment has `g_i` channels starting
//!   at its entry node `E_i`);
//! * message `i` travels its whole segment and then `reach_i` channels
//!   into the next segment to its destination `D_i` — so in a deadlock
//!   configuration it holds exactly its segment while waiting for the
//!   next segment's first channel, which the next message holds;
//! * messages that `use_shared` start at the common source `Src`,
//!   traverse the shared channel `c_s = Src → N*` and then a private
//!   access path of `d_i` channels to `E_i`; messages that don't have
//!   their own private source and access path;
//! * every node also has bidirectional channels to `N*`, and all
//!   non-special traffic routes `u → N* → v`, making the algorithm
//!   total on a strongly connected network without adding any CDG
//!   cycle beyond the ring.
//!
//! The construction yields exactly one elementary CDG cycle (the
//! ring), whose canonical static deadlock candidate is the segment
//! partition — the object Theorems 1–5 reason about.

use wormcdg::{Cdg, CdgCycle, DeadlockCandidate, Segment};
use wormnet::{ChannelId, Network, NodeId};
use wormroute::{Path, TableBuilder, TableRouting};
use wormsim::MessageSpec;

/// Parameters of one cycle message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleMessageSpec {
    /// Whether the message starts at `Src` and uses the shared channel
    /// `c_s` before its access path. Messages with `false` get a
    /// private source instead (Figure 3(f)'s fourth message).
    pub uses_shared: bool,
    /// Which shared channel the message uses when `uses_shared`:
    /// messages in the same group funnel through one `Src_g → N*`
    /// channel. The paper's figures use a single group (0); multiple
    /// groups realize its Section 7 open problem of cycles with
    /// *several* shared channels.
    pub shared_group: usize,
    /// Channels from `c_s` (exclusive) to the ring entry — the paper's
    /// `d_i`. For non-sharing messages: length of the private access
    /// path. Must be ≥ 1.
    pub d: usize,
    /// Channels of the ring segment this message holds in the deadlock
    /// configuration — the paper's "channels held within the cycle".
    /// Must be ≥ 1.
    pub g: usize,
    /// How many channels into the *next* segment the destination lies
    /// (1 ≤ reach ≤ next segment's `g`). The paper's figures use 1
    /// (the destination is the node right after the next entry).
    pub reach: usize,
    /// Message length in flits; `None` = the paper's default
    /// `ℓ_i = a_i = g + reach`.
    pub length: Option<usize>,
}

impl CycleMessageSpec {
    /// A sharing message with the paper's default length (group 0).
    pub fn shared(d: usize, g: usize, reach: usize) -> Self {
        CycleMessageSpec {
            uses_shared: true,
            shared_group: 0,
            d,
            g,
            reach,
            length: None,
        }
    }

    /// A sharing message funneling through shared channel `group`.
    pub fn shared_in_group(group: usize, d: usize, g: usize, reach: usize) -> Self {
        CycleMessageSpec {
            uses_shared: true,
            shared_group: group,
            d,
            g,
            reach,
            length: None,
        }
    }

    /// A non-sharing message (private source) with default length.
    pub fn private(d: usize, g: usize, reach: usize) -> Self {
        CycleMessageSpec {
            uses_shared: false,
            shared_group: 0,
            d,
            g,
            reach,
            length: None,
        }
    }

    /// The paper's `a_i`: channels used within the cycle, entry to
    /// destination.
    pub fn a(&self) -> usize {
        self.g + self.reach
    }
}

/// Parameters of a full construction: the cycle messages in cycle
/// order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharedCycleSpec {
    /// Cycle messages in dependency order around the ring.
    pub messages: Vec<CycleMessageSpec>,
}

impl SharedCycleSpec {
    /// Validate and build the network, routing algorithm, and handles.
    ///
    /// # Panics
    /// Panics on invalid parameters (these are experiment definitions,
    /// not runtime inputs).
    pub fn build(&self) -> CycleConstruction {
        let k = self.messages.len();
        assert!(k >= 2, "a cycle needs at least two messages");
        for (i, m) in self.messages.iter().enumerate() {
            assert!(m.d >= 1, "message {i}: d must be >= 1");
            assert!(m.g >= 1, "message {i}: g must be >= 1");
            let next_g = self.messages[(i + 1) % k].g;
            assert!(
                (1..=next_g).contains(&m.reach),
                "message {i}: reach must be in 1..={next_g}"
            );
            if let Some(len) = m.length {
                assert!(len >= 1, "message {i}: zero-length message");
            }
        }

        let mut net = Network::new();
        // One source node and labeled shared channel per group in use.
        let groups: Vec<usize> = {
            let mut gs: Vec<usize> = self
                .messages
                .iter()
                .filter(|m| m.uses_shared)
                .map(|m| m.shared_group)
                .collect();
            gs.sort_unstable();
            gs.dedup();
            gs
        };
        // All-private constructions (the Theorem 2 experiments) still
        // get the default Src/c_s pair; it simply goes unused.
        let mut srcs = std::collections::BTreeMap::new();
        let first_src = net.add_node("Src");
        let nstar = net.add_node("N*");
        let cs = net.add_labeled_channel(first_src, nstar, "cs");
        net.add_channel(nstar, first_src);
        srcs.insert(groups.first().copied().unwrap_or(0), (first_src, cs));
        for &g in groups.iter().skip(1) {
            let s = net.add_node(format!("Src{g}"));
            let c = net.add_labeled_channel(s, nstar, format!("cs{g}"));
            net.add_channel(nstar, s);
            srcs.insert(g, (s, c));
        }

        // Ring nodes and channels.
        let ring_len: usize = self.messages.iter().map(|m| m.g).sum();
        let ring_nodes: Vec<NodeId> = (0..ring_len)
            .map(|i| net.add_node(format!("r{i}")))
            .collect();
        // Star links for ring nodes (totality + strong connectivity).
        for &r in &ring_nodes {
            net.add_channel(r, nstar);
            net.add_channel(nstar, r);
        }
        let ring_channels: Vec<ChannelId> = (0..ring_len)
            .map(|i| net.add_channel(ring_nodes[i], ring_nodes[(i + 1) % ring_len]))
            .collect();

        // Segment start positions.
        let mut starts = Vec::with_capacity(k);
        let mut acc = 0;
        for m in &self.messages {
            starts.push(acc);
            acc += m.g;
        }

        // Access paths and message node-walks.
        let mut built: Vec<BuiltMessage> = Vec::with_capacity(k);
        let mut special: Vec<Path> = Vec::with_capacity(k);
        for (i, m) in self.messages.iter().enumerate() {
            let entry_pos = starts[i];
            let entry = ring_nodes[entry_pos];
            // Intermediate access nodes (d-1 of them).
            let hops: Vec<NodeId> = (1..m.d)
                .map(|j| {
                    let n = net.add_node(format!("acc{i}_{j}"));
                    net.add_channel(n, nstar);
                    net.add_channel(nstar, n);
                    n
                })
                .collect();

            // Walk prefix: the group's source -> N* for sharing
            // messages, or a fresh private source node otherwise.
            let mut full_walk: Vec<NodeId> = if m.uses_shared {
                let (s, _) = srcs[&m.shared_group];
                vec![s, nstar]
            } else {
                let p = net.add_node(format!("priv{i}"));
                net.add_channel(p, nstar);
                net.add_channel(nstar, p);
                vec![p]
            };
            // Access chain: last prefix node -> hops -> entry, adding
            // channels where the star links don't already provide them
            // (N* -> first hop, and N* -> entry when d == 1, already
            // exist as star links and are reused). Every other link of
            // the chain leaves a node made for this message, so it is
            // new exactly when it does not leave N*.
            let mut prev = *full_walk.last().expect("walk non-empty");
            for &h in hops.iter().chain([&entry]) {
                if prev != nstar {
                    net.add_channel(prev, h);
                }
                prev = h;
            }
            full_walk.extend(&hops);
            full_walk.push(entry);
            let a = m.a();
            for step in 1..=a {
                full_walk.push(ring_nodes[(entry_pos + step) % ring_len]);
            }
            let dst = *full_walk.last().expect("non-empty walk");
            let pair_src = full_walk[0];
            built.push(BuiltMessage {
                pair: (pair_src, dst),
                entry_pos,
                spec: m.clone(),
            });
            special.push(
                Path::from_nodes(&net, &full_walk).expect("construction produces connected walks"),
            );
        }

        let mut table = TableBuilder::new(&net);
        for (b, path) in built.iter().zip(special) {
            table
                .insert(b.pair.0, b.pair.1, path)
                .expect("special pairs are valid");
        }
        // Default routing u -> N* -> v for every remaining pair.
        let nodes: Vec<NodeId> = net.nodes().collect();
        for &u in &nodes {
            for &v in &nodes {
                if u == v || built.iter().any(|b| b.pair == (u, v)) {
                    continue;
                }
                let walk = if u == nstar {
                    vec![nstar, v]
                } else if v == nstar {
                    vec![u, nstar]
                } else {
                    vec![u, nstar, v]
                };
                let path =
                    Path::from_nodes(&net, &walk).expect("star links make defaults connected");
                table.insert(u, v, path).expect("default paths are valid");
            }
        }
        let table = table.finish().expect("distinct special pairs");
        debug_assert!(table.is_total(&net));

        CycleConstruction {
            net,
            table,
            cs,
            ring: ring_channels,
            built,
        }
    }
}

/// A cycle message as realized in the built network.
#[derive(Clone, Debug)]
pub struct BuiltMessage {
    /// (source, destination) pair of the message.
    pub pair: (NodeId, NodeId),
    /// Ring position of its entry (index into
    /// [`CycleConstruction::ring`]).
    pub entry_pos: usize,
    /// The spec it was built from.
    pub spec: CycleMessageSpec,
}

impl BuiltMessage {
    /// Message length: explicit override or the paper's `a_i`.
    pub fn length(&self) -> usize {
        self.spec.length.unwrap_or_else(|| self.spec.a())
    }
}

/// A built shared-channel cycle network with all analysis handles.
#[derive(Clone, Debug)]
pub struct CycleConstruction {
    /// The network.
    pub net: Network,
    /// The oblivious routing algorithm.
    pub table: TableRouting,
    /// The primary shared channel `c_s` (the lowest-numbered group in
    /// use; labeled `"cs"`). Additional groups get `"cs1"`, `"cs2"`, …
    /// — see [`CycleConstruction::shared_channels`].
    pub cs: ChannelId,
    /// Ring channels in cycle order (position 0 = first message's
    /// entry channel).
    pub ring: Vec<ChannelId>,
    /// The cycle messages in ring order.
    pub built: Vec<BuiltMessage>,
}

impl CycleConstruction {
    /// Simulation specs for the cycle messages (immediate release; the
    /// search controls actual injection times).
    pub fn message_specs(&self) -> Vec<MessageSpec> {
        self.built
            .iter()
            .map(|b| MessageSpec::new(b.pair.0, b.pair.1, b.length()))
            .collect()
    }

    /// The ring as a [`CdgCycle`] in canonical rotation (matching what
    /// [`Cdg::cycles`] returns).
    pub fn cycle(&self) -> CdgCycle {
        let mut channels = self.ring.clone();
        let min_pos = channels
            .iter()
            .enumerate()
            .min_by_key(|&(_, c)| *c)
            .map(|(i, _)| i)
            .expect("ring non-empty");
        channels.rotate_left(min_pos);
        CdgCycle { channels }
    }

    /// The canonical static deadlock candidate: message `i` holds its
    /// segment.
    pub fn canonical_candidate(&self) -> DeadlockCandidate {
        let segments = self
            .built
            .iter()
            .map(|b| Segment {
                msg: b.pair,
                channels: (0..b.spec.g)
                    .map(|j| self.ring[(b.entry_pos + j) % self.ring.len()])
                    .collect(),
            })
            .collect();
        DeadlockCandidate { segments }
    }

    /// Build the CDG of the construction.
    pub fn cdg(&self) -> Cdg {
        Cdg::build(&self.net, &self.table)
    }

    /// Human-readable geometry summary for reports and the CLI.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "shared-channel cycle: ring of {} channels, {} messages, {} shared channel(s)",
            self.ring.len(),
            self.built.len(),
            self.shared_channels().len()
        );
        for (i, b) in self.built.iter().enumerate() {
            let _ = writeln!(
                out,
                "  M{}: {} -> {}  d={} g={} a={} len={}{}",
                i + 1,
                self.net.node_name(b.pair.0),
                self.net.node_name(b.pair.1),
                b.spec.d,
                b.spec.g,
                b.spec.a(),
                b.length(),
                if b.spec.uses_shared {
                    format!("  via shared group {}", b.spec.shared_group)
                } else {
                    "  private source".to_string()
                }
            );
        }
        out
    }

    /// All shared channels, in group order (group 0 first).
    pub fn shared_channels(&self) -> Vec<ChannelId> {
        let mut out = vec![self.cs];
        let mut g = 0usize;
        loop {
            g += 1;
            match self.net.channel_by_label(&format!("cs{g}")) {
                Some(c) => out.push(c),
                None => break,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormroute::properties;

    fn fig1_spec() -> SharedCycleSpec {
        SharedCycleSpec {
            messages: vec![
                CycleMessageSpec::shared(2, 3, 1),
                CycleMessageSpec::shared(3, 4, 1),
                CycleMessageSpec::shared(2, 3, 1),
                CycleMessageSpec::shared(3, 4, 1),
            ],
        }
    }

    #[test]
    fn builds_strongly_connected_total_network() {
        let c = fig1_spec().build();
        assert!(c.net.is_strongly_connected());
        assert!(c.table.is_total(&c.net));
        assert_eq!(c.ring.len(), 14);
        assert_eq!(c.built.len(), 4);
    }

    #[test]
    fn is_a_valid_oblivious_function() {
        let c = fig1_spec().build();
        assert!(c.table.compile(&c.net).is_ok());
    }

    #[test]
    fn special_paths_have_expected_shape() {
        let c = fig1_spec().build();
        let m0 = &c.built[0];
        let path = c.table.path(m0.pair.0, m0.pair.1).unwrap();
        // cs + d + a channels.
        assert_eq!(path.len(), 1 + 2 + 4);
        assert_eq!(path.channels()[0], c.cs);
        // Last a channels are ring channels.
        for j in 0..m0.spec.a() {
            assert!(c.ring.contains(&path.channels()[3 + j]));
        }
        // Entry channel is ring position 0.
        assert_eq!(path.channels()[3], c.ring[0]);
    }

    #[test]
    fn nonminimal_and_not_coherent() {
        // The special paths are long detours past N*'s direct links,
        // exactly as the paper requires (Theorem 3 rules out minimal
        // versions of this construction).
        let c = fig1_spec().build();
        let r = properties::analyze(&c.net, &c.table);
        assert!(r.total);
        assert!(!r.minimal);
        assert!(!r.suffix_closed, "Corollary 2 requires non-suffix-closure");
        assert!(!r.coherent);
    }

    #[test]
    fn cdg_has_exactly_the_ring_cycle() {
        let c = fig1_spec().build();
        let cdg = c.cdg();
        assert!(!cdg.is_acyclic());
        let cycles = cdg.cycles();
        assert_eq!(cycles.len(), 1, "only the ring cycle must exist");
        assert_eq!(cycles[0], c.cycle());
    }

    #[test]
    fn canonical_candidate_matches_enumeration() {
        let c = fig1_spec().build();
        let cycle = c.cycle();
        let cands = wormcdg::deadlock_candidates(&c.table, &cycle, 10_000).unwrap();
        // reach == 1 everywhere: the candidate is unique and equals
        // the canonical segment partition (up to rotation of segment
        // order).
        assert_eq!(cands.len(), 1);
        let canonical = c.canonical_candidate();
        let mut a: Vec<_> = cands[0].segments.clone();
        let mut b: Vec<_> = canonical.segments.clone();
        a.sort_by_key(|s| s.msg);
        b.sort_by_key(|s| s.msg);
        assert_eq!(a, b);
    }

    #[test]
    fn shared_channel_analysis_sees_cs_outside() {
        let c = fig1_spec().build();
        let cycle = c.cycle();
        let candidate = c.canonical_candidate();
        let analysis = wormcdg::sharing::analyze(&c.net, &c.table, &cycle, &candidate);
        let outside: Vec<_> = analysis.outside().collect();
        assert_eq!(outside.len(), 1);
        assert_eq!(outside[0].channel, c.cs);
        assert_eq!(outside[0].users.len(), 4);
    }

    #[test]
    fn geometry_matches_parameters() {
        let c = fig1_spec().build();
        let cycle = c.cycle();
        for b in &c.built {
            let g = wormcdg::sharing::geometry(&c.net, &c.table, &cycle, b.pair, Some(c.cs));
            assert_eq!(g.d, Some(b.spec.d), "{:?}", b.pair);
            assert_eq!(g.a, b.spec.a(), "{:?}", b.pair);
        }
    }

    #[test]
    fn private_sources_supported() {
        let spec = SharedCycleSpec {
            messages: vec![
                CycleMessageSpec::shared(1, 2, 1),
                CycleMessageSpec::private(2, 2, 1),
                CycleMessageSpec::shared(2, 2, 1),
            ],
        };
        let c = spec.build();
        assert!(c.net.is_strongly_connected());
        assert!(c.table.is_total(&c.net));
        let m1 = &c.built[1];
        assert_ne!(
            m1.pair.0, c.built[0].pair.0,
            "private source differs from Src"
        );
        let path = c.table.path(m1.pair.0, m1.pair.1).unwrap();
        assert!(!path.contains(c.cs));
        assert_eq!(path.len(), 2 + 3);
    }

    #[test]
    fn lengths_default_to_a() {
        let c = fig1_spec().build();
        let specs = c.message_specs();
        assert_eq!(specs[0].length, 4);
        assert_eq!(specs[1].length, 5);
        let spec2 = SharedCycleSpec {
            messages: vec![
                CycleMessageSpec {
                    length: Some(9),
                    ..CycleMessageSpec::shared(1, 2, 1)
                },
                CycleMessageSpec::shared(1, 2, 1),
            ],
        };
        let c2 = spec2.build();
        assert_eq!(c2.message_specs()[0].length, 9);
    }

    #[test]
    fn reach_two_creates_overlap_candidates() {
        let spec = SharedCycleSpec {
            messages: vec![
                CycleMessageSpec::shared(1, 3, 2),
                CycleMessageSpec::shared(2, 3, 2),
            ],
        };
        let c = spec.build();
        let cands = wormcdg::deadlock_candidates(&c.table, &c.cycle(), 10_000).unwrap();
        // Overlapping reach means some edges have two witnesses, so
        // multiple owner assignments exist.
        assert!(!cands.is_empty());
    }

    #[test]
    fn describe_summarizes_geometry() {
        let c = fig1_spec().build();
        let d = c.describe();
        assert!(d.contains("ring of 14 channels"));
        assert!(d.contains("M1: Src"));
        assert!(d.contains("d=2 g=3 a=4 len=4"));
        assert!(d.contains("shared group 0"));
    }

    #[test]
    fn two_shared_groups_build_two_channels() {
        let spec = SharedCycleSpec {
            messages: vec![
                CycleMessageSpec::shared_in_group(0, 2, 3, 1),
                CycleMessageSpec::shared_in_group(1, 3, 4, 1),
                CycleMessageSpec::shared_in_group(0, 2, 3, 1),
                CycleMessageSpec::shared_in_group(1, 3, 4, 1),
            ],
        };
        let c = spec.build();
        assert!(c.net.is_strongly_connected());
        assert!(c.table.is_total(&c.net));
        assert!(c.table.compile(&c.net).is_ok());
        let shared = c.shared_channels();
        assert_eq!(shared.len(), 2);
        assert_ne!(shared[0], shared[1]);
        // Messages 0 and 2 use cs; 1 and 3 use cs1.
        for (i, b) in c.built.iter().enumerate() {
            let path = c.table.path(b.pair.0, b.pair.1).unwrap();
            let expect = shared[i % 2];
            assert_eq!(path.channels()[0], expect, "message {i}");
        }
        // Sharing analysis sees both channels outside the cycle, two
        // users each.
        let cycle = c.cycle();
        let candidate = c.canonical_candidate();
        let analysis = wormcdg::sharing::analyze(&c.net, &c.table, &cycle, &candidate);
        let outside: Vec<_> = analysis.outside().collect();
        assert_eq!(outside.len(), 2);
        assert!(outside.iter().all(|s| s.users.len() == 2));
    }

    #[test]
    #[should_panic(expected = "reach must be in")]
    fn reach_beyond_next_segment_rejected() {
        SharedCycleSpec {
            messages: vec![
                CycleMessageSpec::shared(1, 2, 3),
                CycleMessageSpec::shared(1, 2, 1),
            ],
        }
        .build();
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_message_rejected() {
        SharedCycleSpec {
            messages: vec![CycleMessageSpec::shared(1, 2, 1)],
        }
        .build();
    }
}
