//! Channel paths through a network.

use wormnet::{ChannelId, Network, NodeId};

use crate::error::RouteError;

/// A non-empty sequence of channels forming a connected walk.
///
/// A `Path` stores channels, not nodes, because channels are the
/// resources wormhole routing reasons about: a path may revisit a
/// *node* (the paper discusses non-coherent algorithms that do exactly
/// that) but never a *channel* — a message cannot occupy the same
/// channel queue twice under atomic buffer allocation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Path {
    channels: Vec<ChannelId>,
}

impl Path {
    /// Build a path from channels, validating connectivity against the
    /// network.
    pub fn from_channels(net: &Network, channels: Vec<ChannelId>) -> Result<Self, RouteError> {
        if channels.is_empty() {
            return Err(RouteError::EmptyPath);
        }
        for (i, w) in channels.windows(2).enumerate() {
            if net.channel(w[0]).dst() != net.channel(w[1]).src() {
                return Err(RouteError::Disconnected { at: i });
            }
        }
        let mut seen = channels.clone();
        seen.sort_unstable();
        for w in seen.windows(2) {
            if w[0] == w[1] {
                return Err(RouteError::RepeatedChannel(w[0]));
            }
        }
        Ok(Path { channels })
    }

    /// Build a path from a node walk, picking the VC-0 channel between
    /// consecutive nodes.
    pub fn from_nodes(net: &Network, nodes: &[NodeId]) -> Result<Self, RouteError> {
        Self::from_nodes_with(net, nodes, |net, a, b, _| net.find_channel(a, b))
    }

    /// Build a path from a node walk with a custom channel selector
    /// (used for virtual-channel algorithms such as dateline routing).
    /// The selector receives `(network, from, to, hop_index)`.
    pub fn from_nodes_with(
        net: &Network,
        nodes: &[NodeId],
        mut pick: impl FnMut(&Network, NodeId, NodeId, usize) -> Option<ChannelId>,
    ) -> Result<Self, RouteError> {
        if nodes.len() < 2 {
            return Err(RouteError::EmptyPath);
        }
        let mut channels = Vec::with_capacity(nodes.len() - 1);
        for (i, w) in nodes.windows(2).enumerate() {
            let c = pick(net, w[0], w[1], i).ok_or(RouteError::MissingChannel {
                from: w[0],
                to: w[1],
            })?;
            channels.push(c);
        }
        Self::from_channels(net, channels)
    }

    /// A borrowed view of the path, with the same read methods.
    #[inline]
    pub fn view(&self) -> PathRef<'_> {
        PathRef {
            channels: &self.channels,
        }
    }

    /// The channels of the path in order.
    #[inline]
    pub fn channels(&self) -> &[ChannelId] {
        &self.channels
    }

    /// Number of channels (hops).
    #[inline]
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// Paths are never empty; provided for clippy-idiomatic callers.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Source node (origin of the first channel).
    pub fn src(&self, net: &Network) -> NodeId {
        self.view().src(net)
    }

    /// Destination node (target of the last channel).
    pub fn dst(&self, net: &Network) -> NodeId {
        self.view().dst(net)
    }

    /// The node walk visited by the path (length `len() + 1`).
    pub fn nodes(&self, net: &Network) -> Vec<NodeId> {
        self.view().nodes(net)
    }

    /// Overwrite `out` with the node walk — [`Path::nodes`] into a
    /// caller-owned buffer, for passes that walk many paths.
    pub fn nodes_into(&self, net: &Network, out: &mut Vec<NodeId>) {
        self.view().nodes_into(net, out)
    }

    /// Whether the path visits every node at most once (no revisits) —
    /// part of Definition 9's coherence requirement.
    pub fn is_node_simple(&self, net: &Network) -> bool {
        self.view().is_node_simple(net)
    }

    /// Whether `channel` appears on the path.
    pub fn contains(&self, channel: ChannelId) -> bool {
        self.view().contains(channel)
    }

    /// Render as `n0 -> n1 -> ...` for reports.
    pub fn describe(&self, net: &Network) -> String {
        self.view().describe(net)
    }
}

/// A borrowed path: the channels of one [`TableRouting`] entry or of a
/// [`Path`], with `Path`'s read methods. It is `Copy`, so a table hands
/// out views of its one channel array without allocating.
///
/// [`TableRouting`]: crate::TableRouting
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PathRef<'a> {
    channels: &'a [ChannelId],
}

impl<'a> PathRef<'a> {
    /// View `channels` as a path. They must be non-empty and form a
    /// connected walk without a repeated channel.
    pub(crate) fn new(channels: &'a [ChannelId]) -> Self {
        debug_assert!(!channels.is_empty(), "paths are non-empty");
        PathRef { channels }
    }

    /// The channels of the path in order.
    #[inline]
    pub fn channels(self) -> &'a [ChannelId] {
        self.channels
    }

    /// Number of channels (hops).
    #[inline]
    pub fn len(self) -> usize {
        self.channels.len()
    }

    /// Paths are never empty; provided for clippy-idiomatic callers.
    #[inline]
    pub fn is_empty(self) -> bool {
        false
    }

    /// Source node (origin of the first channel).
    pub fn src(self, net: &Network) -> NodeId {
        net.channel(self.channels[0]).src()
    }

    /// Destination node (target of the last channel).
    pub fn dst(self, net: &Network) -> NodeId {
        net.channel(*self.channels.last().expect("paths are non-empty"))
            .dst()
    }

    /// The node walk visited by the path (length `len() + 1`).
    pub fn nodes(self, net: &Network) -> Vec<NodeId> {
        let mut nodes = Vec::with_capacity(self.channels.len() + 1);
        self.nodes_into(net, &mut nodes);
        nodes
    }

    /// Overwrite `out` with the node walk — [`PathRef::nodes`] into a
    /// caller-owned buffer, for passes that walk many paths.
    pub fn nodes_into(self, net: &Network, out: &mut Vec<NodeId>) {
        out.clear();
        out.push(self.src(net));
        out.extend(self.channels.iter().map(|&c| net.channel(c).dst()));
    }

    /// Whether the path visits every node at most once (no revisits) —
    /// part of Definition 9's coherence requirement.
    pub fn is_node_simple(self, net: &Network) -> bool {
        let mut nodes = self.nodes(net);
        nodes.sort_unstable();
        nodes.windows(2).all(|w| w[0] != w[1])
    }

    /// Whether `channel` appears on the path.
    pub fn contains(self, channel: ChannelId) -> bool {
        self.channels.contains(&channel)
    }

    /// Render as `n0 -> n1 -> ...` for reports.
    pub fn describe(self, net: &Network) -> String {
        self.nodes(net)
            .iter()
            .map(|&n| net.node_name(n).to_string())
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    /// An owned copy of the path.
    pub fn to_path(self) -> Path {
        Path {
            channels: self.channels.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> (Network, Vec<NodeId>) {
        // 0 -> 1 -> 2 -> 3 -> 0, bidirectional.
        let mut net = Network::new();
        let nodes = net.add_nodes("s", 4);
        for i in 0..4 {
            net.add_bidi(nodes[i], nodes[(i + 1) % 4]);
        }
        (net, nodes)
    }

    #[test]
    fn from_nodes_builds_connected_path() {
        let (net, n) = square();
        let p = Path::from_nodes(&net, &[n[0], n[1], n[2]]).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.src(&net), n[0]);
        assert_eq!(p.dst(&net), n[2]);
        assert_eq!(p.nodes(&net), vec![n[0], n[1], n[2]]);
        assert!(p.is_node_simple(&net));
    }

    #[test]
    fn disconnected_channels_rejected() {
        let (net, n) = square();
        let c01 = net.find_channel(n[0], n[1]).unwrap();
        let c23 = net.find_channel(n[2], n[3]).unwrap();
        assert_eq!(
            Path::from_channels(&net, vec![c01, c23]),
            Err(RouteError::Disconnected { at: 0 })
        );
    }

    #[test]
    fn missing_channel_reported() {
        let (net, n) = square();
        let err = Path::from_nodes(&net, &[n[0], n[2]]).unwrap_err();
        assert_eq!(
            err,
            RouteError::MissingChannel {
                from: n[0],
                to: n[2]
            }
        );
    }

    #[test]
    fn empty_path_rejected() {
        let (net, n) = square();
        assert_eq!(
            Path::from_channels(&net, vec![]),
            Err(RouteError::EmptyPath)
        );
        assert_eq!(Path::from_nodes(&net, &[n[0]]), Err(RouteError::EmptyPath));
    }

    #[test]
    fn repeated_channel_rejected() {
        let (net, n) = square();
        // 0 -> 1 -> 0 -> 1 repeats channel 0->1.
        let err = Path::from_nodes(&net, &[n[0], n[1], n[0], n[1]]).unwrap_err();
        assert!(matches!(err, RouteError::RepeatedChannel(_)));
    }

    #[test]
    fn node_revisit_is_allowed_but_not_simple() {
        let (net, n) = square();
        // 0 -> 1 -> 2 -> 1 revisits node 1 over distinct channels.
        let p = Path::from_nodes(&net, &[n[0], n[1], n[2], n[1]]).unwrap();
        assert!(!p.is_node_simple(&net));
    }

    #[test]
    fn nodes_into_reuses_the_buffer() {
        let (net, n) = square();
        let long = Path::from_nodes(&net, &[n[0], n[1], n[2], n[3]]).unwrap();
        let short = Path::from_nodes(&net, &[n[2], n[1]]).unwrap();
        let mut buf = Vec::new();
        long.nodes_into(&net, &mut buf);
        assert_eq!(buf, long.nodes(&net));
        short.nodes_into(&net, &mut buf);
        assert_eq!(buf, vec![n[2], n[1]]);
    }

    #[test]
    fn contains_and_describe() {
        let (net, n) = square();
        let p = Path::from_nodes(&net, &[n[0], n[1]]).unwrap();
        let c01 = net.find_channel(n[0], n[1]).unwrap();
        let c12 = net.find_channel(n[1], n[2]).unwrap();
        assert!(p.contains(c01));
        assert!(!p.contains(c12));
        assert_eq!(p.describe(&net), "s0 -> s1");
    }

    #[test]
    fn vc_selector_used() {
        let mut net = Network::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.add_channel_vc(a, b, 0);
        let c1 = net.add_channel_vc(a, b, 1);
        net.add_bidi(b, a);
        let p = Path::from_nodes_with(&net, &[a, b], |net, u, v, _| net.find_channel_vc(u, v, 1))
            .unwrap();
        assert_eq!(p.channels(), &[c1]);
    }
}
