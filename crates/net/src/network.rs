//! The interconnection network: a strongly connected directed
//! multigraph of nodes and channels (Definition 1 of the paper).

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::channel::{Channel, ChannelId};
use crate::error::NetError;
use crate::graph::{self, Digraph};
use crate::node::NodeId;

/// Default flit-queue depth for channels.
///
/// Section 3 of the paper argues deadlock freedom must hold for *every*
/// buffer size, and that one-flit buffers together with minimum-length
/// messages are the adversarial worst case; so the network defaults to
/// one-flit queues and simulations sweep larger depths separately.
pub const DEFAULT_CAPACITY: usize = 1;

#[derive(Clone, Debug)]
struct NodeInfo {
    name: String,
}

/// A strongly connected directed multigraph of processors and channels.
///
/// Construction is incremental: add nodes, then channels. Channels are
/// unidirectional; use [`Network::add_bidi`] for the bidirectional
/// physical links of the paper's figures (each direction becomes its
/// own channel). Multiple channels between the same ordered node pair
/// model virtual channels and are distinguished by their `vc` lane.
///
/// The type is deliberately immutable-after-build in spirit: there is
/// no channel removal, so `NodeId`/`ChannelId` indices stay dense and
/// stable, which every downstream table (simulator buffers, CDG
/// vertices) relies on.
///
/// [`Network::find_channel_vc`] reads one `(src, dst, vc) → channel`
/// index, built on the first lookup after the last channel is added.
#[derive(Clone, Debug, Default)]
pub struct Network {
    nodes: Vec<NodeInfo>,
    channels: Vec<Channel>,
    out: Vec<Vec<ChannelId>>,
    inn: Vec<Vec<ChannelId>>,
    by_name: HashMap<String, NodeId>,
    lanes: OnceLock<LaneIndex>,
}

impl Network {
    /// Create an empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of channels.
    #[inline]
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Iterate over all node ids in index order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Iterate over all channels in index order.
    pub fn channels(&self) -> impl ExactSizeIterator<Item = &Channel> + '_ {
        self.channels.iter()
    }

    /// Add a node with a human-readable name. Names must be unique;
    /// they are used by the paper-figure builders (`Src`, `N*`, `D1`,
    /// ...) and in analysis reports.
    ///
    /// # Panics
    /// Panics on duplicate names — a construction bug, not a runtime
    /// condition.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let name = name.into();
        let id = NodeId::from_index(self.nodes.len());
        assert!(
            self.by_name.insert(name.clone(), id).is_none(),
            "duplicate node name {name:?}"
        );
        self.nodes.push(NodeInfo { name });
        self.out.push(Vec::new());
        self.inn.push(Vec::new());
        id
    }

    /// Add `n` anonymous nodes named `prefix0..prefix{n-1}`.
    pub fn add_nodes(&mut self, prefix: &str, n: usize) -> Vec<NodeId> {
        (0..n)
            .map(|i| self.add_node(format!("{prefix}{i}")))
            .collect()
    }

    /// Add a unidirectional channel with default capacity on VC lane 0.
    pub fn add_channel(&mut self, src: NodeId, dst: NodeId) -> ChannelId {
        self.add_channel_full(src, dst, 0, DEFAULT_CAPACITY, None)
    }

    /// Add a unidirectional channel on a specific virtual-channel lane.
    pub fn add_channel_vc(&mut self, src: NodeId, dst: NodeId, vc: u8) -> ChannelId {
        self.add_channel_full(src, dst, vc, DEFAULT_CAPACITY, None)
    }

    /// Add a unidirectional channel with a label (used when reporting
    /// on the paper's figures, e.g. the shared channel `cs`).
    pub fn add_labeled_channel(
        &mut self,
        src: NodeId,
        dst: NodeId,
        label: impl Into<String>,
    ) -> ChannelId {
        self.add_channel_full(src, dst, 0, DEFAULT_CAPACITY, Some(label.into()))
    }

    /// Add a unidirectional channel with every knob exposed.
    ///
    /// # Panics
    /// Panics on self-loops, unknown endpoints or zero capacity; these
    /// are construction bugs.
    pub fn add_channel_full(
        &mut self,
        src: NodeId,
        dst: NodeId,
        vc: u8,
        capacity: usize,
        label: Option<String>,
    ) -> ChannelId {
        assert!(src.index() < self.nodes.len(), "unknown src node {src:?}");
        assert!(dst.index() < self.nodes.len(), "unknown dst node {dst:?}");
        assert_ne!(src, dst, "self-loop channel at {src:?}");
        assert!(capacity >= 1, "channel capacity must be >= 1 flit");
        let id = ChannelId::from_index(self.channels.len());
        self.channels.push(Channel {
            id,
            src,
            dst,
            vc,
            capacity,
            label,
        });
        self.out[src.index()].push(id);
        self.inn[dst.index()].push(id);
        self.lanes.take();
        id
    }

    /// Add a bidirectional physical link: two opposed channels.
    /// Returns `(src→dst, dst→src)`.
    pub fn add_bidi(&mut self, a: NodeId, b: NodeId) -> (ChannelId, ChannelId) {
        (self.add_channel(a, b), self.add_channel(b, a))
    }

    /// Look up a channel by id.
    #[inline]
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.index()]
    }

    /// The name given to a node at construction.
    #[inline]
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.nodes[id.index()].name
    }

    /// Resolve a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Channels leaving `node`.
    #[inline]
    pub fn out_channels(&self, node: NodeId) -> &[ChannelId] {
        &self.out[node.index()]
    }

    /// Channels entering `node`.
    #[inline]
    pub fn in_channels(&self, node: NodeId) -> &[ChannelId] {
        &self.inn[node.index()]
    }

    /// The first channel from `src` to `dst` on VC lane 0, if any.
    pub fn find_channel(&self, src: NodeId, dst: NodeId) -> Option<ChannelId> {
        self.find_channel_vc(src, dst, 0)
    }

    /// The channel from `src` to `dst` on a specific VC lane, if any.
    /// When parallel channels share the lane, it is the first one in
    /// `src`'s out-list (the smallest id).
    ///
    /// One probe of the network's lane index, which the first lookup
    /// after the last [`Network::add_channel_full`] builds.
    pub fn find_channel_vc(&self, src: NodeId, dst: NodeId, vc: u8) -> Option<ChannelId> {
        self.lanes
            .get_or_init(|| LaneIndex::build(&self.channels))
            .get(&self.channels, src, dst, vc)
    }

    /// Find a channel by its label.
    pub fn channel_by_label(&self, label: &str) -> Option<ChannelId> {
        self.channels
            .iter()
            .find(|c| c.label.as_deref() == Some(label))
            .map(|c| c.id)
    }

    /// Whether the node-level graph is strongly connected
    /// (Definition 1 requires it; topology builders and the paper
    /// figures are checked in tests).
    pub fn is_strongly_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return false;
        }
        graph::tarjan_scc(&NodeGraph(self)).len() == 1
    }

    /// Validate the network against Definition 1; currently this means
    /// strong connectivity of the node graph.
    pub fn validate(&self) -> Result<(), NetError> {
        if self.nodes.is_empty() {
            return Err(NetError::NotStronglyConnected { components: 0 });
        }
        let comps = graph::tarjan_scc(&NodeGraph(self)).len();
        if comps != 1 {
            return Err(NetError::NotStronglyConnected { components: comps });
        }
        Ok(())
    }

    /// Hop distance (number of channels) between two nodes along the
    /// node graph, ignoring routing restrictions; `None` if unreachable.
    /// This is the metric against which *minimal* routing is judged
    /// (paper Section 1: "minimal routing algorithms allow only
    /// shortest paths").
    pub fn hop_distance(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        graph::bfs_distances(&NodeGraph(self), src.index())[dst.index()]
    }

    /// Hop distances from one source to every node (one BFS).
    /// `result[v.index()]` is `None` when `v` is unreachable.
    ///
    /// Analyses that judge many pairs against shortest paths (routing
    /// minimality, the W101 lint) group their queries by source and
    /// call this once per distinct source — per-pair
    /// [`Network::hop_distance`] calls repeat the BFS and do not scale
    /// to the cluster-size topologies.
    pub fn distances_from(&self, src: NodeId) -> Vec<Option<usize>> {
        graph::bfs_distances(&NodeGraph(self), src.index())
    }

    /// All-pairs hop distances via repeated BFS. `result[u][v]`.
    pub fn all_pairs_distances(&self) -> Vec<Vec<Option<usize>>> {
        (0..self.node_count())
            .map(|u| graph::bfs_distances(&NodeGraph(self), u))
            .collect()
    }

    /// Render the channel list for debugging / reports.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "network: {} nodes, {} channels",
            self.node_count(),
            self.channel_count()
        );
        for c in &self.channels {
            let _ = writeln!(
                s,
                "  {:>4} {} -> {} vc{} cap{}{}",
                format!("{}", c.id),
                self.node_name(c.src),
                self.node_name(c.dst),
                c.vc,
                c.capacity,
                c.label
                    .as_deref()
                    .map(|l| format!("  [{l}]"))
                    .unwrap_or_default()
            );
        }
        s
    }
}

/// The `(src, dst, vc) → channel` index behind
/// [`Network::find_channel_vc`]: an open-addressing table of channel
/// ids with linear probing, two slots (8 bytes) per channel. Channels
/// are inserted in id order and a lane already present keeps its
/// channel, so a lookup returns the first match of a scan of `src`'s
/// out-list, which lists channels in id order.
#[derive(Clone, Debug, Default)]
struct LaneIndex {
    slots: Box<[u32]>,
}

impl LaneIndex {
    const EMPTY: u32 = u32::MAX;

    fn build(channels: &[Channel]) -> Self {
        let mut index = LaneIndex {
            slots: vec![Self::EMPTY; 2 * channels.len()].into_boxed_slice(),
        };
        for c in channels {
            let mut i = index.home(c.src, c.dst, c.vc);
            loop {
                match index.slots[i] {
                    Self::EMPTY => {
                        index.slots[i] = c.id.0;
                        break;
                    }
                    held if Self::holds(&channels[held as usize], c.src, c.dst, c.vc) => break,
                    _ => i = index.next(i),
                }
            }
        }
        index
    }

    fn get(&self, channels: &[Channel], src: NodeId, dst: NodeId, vc: u8) -> Option<ChannelId> {
        if self.slots.is_empty() {
            return None;
        }
        let mut i = self.home(src, dst, vc);
        loop {
            match self.slots[i] {
                Self::EMPTY => return None,
                held if Self::holds(&channels[held as usize], src, dst, vc) => {
                    return Some(ChannelId(held))
                }
                _ => i = self.next(i),
            }
        }
    }

    fn holds(c: &Channel, src: NodeId, dst: NodeId, vc: u8) -> bool {
        c.src == src && c.dst == dst && c.vc == vc
    }

    /// The lane's first slot: a multiplicative hash of the key, whose
    /// high half is mapped onto the slots.
    fn home(&self, src: NodeId, dst: NodeId, vc: u8) -> usize {
        let key = u64::from(src.0) << 40 ^ u64::from(dst.0) << 8 ^ u64::from(vc);
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        ((h * self.slots.len() as u64) >> 32) as usize
    }

    fn next(&self, i: usize) -> usize {
        if i + 1 == self.slots.len() {
            0
        } else {
            i + 1
        }
    }
}

/// Adapter exposing the node-level graph of a network to the generic
/// algorithms in [`crate::graph`].
pub(crate) struct NodeGraph<'a>(pub(crate) &'a Network);

impl Digraph for NodeGraph<'_> {
    fn vertex_count(&self) -> usize {
        self.0.node_count()
    }

    fn successors(&self, v: usize) -> Vec<usize> {
        let mut succ: Vec<usize> = self.0.out[v]
            .iter()
            .map(|&c| self.0.channels[c.index()].dst.index())
            .collect();
        succ.sort_unstable();
        succ.dedup();
        succ
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Network {
        let mut net = Network::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        let c = net.add_node("c");
        net.add_channel(a, b);
        net.add_channel(b, c);
        net.add_channel(c, a);
        net
    }

    #[test]
    fn builds_and_counts() {
        let net = triangle();
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.channel_count(), 3);
        assert_eq!(net.nodes().count(), 3);
        assert_eq!(net.channels().count(), 3);
    }

    #[test]
    fn strong_connectivity() {
        let net = triangle();
        assert!(net.is_strongly_connected());
        assert!(net.validate().is_ok());

        let mut broken = Network::new();
        let a = broken.add_node("a");
        let b = broken.add_node("b");
        broken.add_channel(a, b);
        assert!(!broken.is_strongly_connected());
        assert_eq!(
            broken.validate(),
            Err(NetError::NotStronglyConnected { components: 2 })
        );
    }

    #[test]
    fn empty_network_is_not_connected() {
        let net = Network::new();
        assert!(!net.is_strongly_connected());
        assert!(net.validate().is_err());
    }

    #[test]
    fn adjacency_lists() {
        let net = triangle();
        let a = net.node_by_name("a").unwrap();
        let b = net.node_by_name("b").unwrap();
        assert_eq!(net.out_channels(a).len(), 1);
        assert_eq!(net.in_channels(a).len(), 1);
        let ab = net.find_channel(a, b).unwrap();
        assert_eq!(net.channel(ab).src(), a);
        assert_eq!(net.channel(ab).dst(), b);
        assert!(net.find_channel(b, a).is_none());
    }

    #[test]
    fn bidi_creates_two_channels() {
        let mut net = Network::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        let (f, r) = net.add_bidi(a, b);
        assert_eq!(net.channel(f).src(), a);
        assert_eq!(net.channel(r).src(), b);
        assert!(net.is_strongly_connected());
    }

    #[test]
    fn virtual_channels_are_parallel_channels() {
        let mut net = Network::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        let c0 = net.add_channel_vc(a, b, 0);
        let c1 = net.add_channel_vc(a, b, 1);
        let (ab, _) = net.add_bidi(a, b);
        assert_ne!(c0, c1);
        // vc0, vc1, and the bidi's a->b on lane 0 again: the first wins.
        assert_eq!(net.out_channels(a), &[c0, c1, ab]);
        assert_eq!(net.find_channel_vc(a, b, 0), Some(c0));
        assert_eq!(net.find_channel_vc(a, b, 1), Some(c1));
        assert_eq!(net.find_channel_vc(a, b, 2), None);
    }

    #[test]
    fn labels_resolve() {
        let mut net = Network::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        let cs = net.add_labeled_channel(a, b, "cs");
        net.add_channel(b, a);
        assert_eq!(net.channel_by_label("cs"), Some(cs));
        assert_eq!(net.channel(cs).label(), Some("cs"));
        assert!(net.channel_by_label("nope").is_none());
    }

    #[test]
    fn hop_distances() {
        let net = triangle();
        let a = net.node_by_name("a").unwrap();
        let b = net.node_by_name("b").unwrap();
        let c = net.node_by_name("c").unwrap();
        assert_eq!(net.hop_distance(a, a), Some(0));
        assert_eq!(net.hop_distance(a, b), Some(1));
        assert_eq!(net.hop_distance(a, c), Some(2));
        let d = net.all_pairs_distances();
        assert_eq!(d[a.index()][c.index()], Some(2));
        assert_eq!(d[c.index()][b.index()], Some(2));
    }

    #[test]
    fn add_nodes_prefix() {
        let mut net = Network::new();
        let ids = net.add_nodes("p", 3);
        assert_eq!(ids.len(), 3);
        assert_eq!(net.node_name(ids[2]), "p2");
        assert_eq!(net.node_by_name("p0"), Some(ids[0]));
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_names_panic() {
        let mut net = Network::new();
        net.add_node("a");
        net.add_node("a");
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_panic() {
        let mut net = Network::new();
        let a = net.add_node("a");
        net.add_channel(a, a);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let mut net = Network::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.add_channel_full(a, b, 0, 0, None);
    }

    #[test]
    fn describe_mentions_labels() {
        let mut net = Network::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.add_labeled_channel(a, b, "cs");
        net.add_channel(b, a);
        let d = net.describe();
        assert!(d.contains("[cs]"));
        assert!(d.contains("2 channels"));
    }
}
