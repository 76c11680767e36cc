//! Ring topologies.

use crate::{Network, NodeId};

/// A unidirectional ring of `n` nodes: channels `i → (i+1) mod n`.
///
/// With unrestricted routing this is the canonical deadlockable
/// network (Dally & Seitz's motivating example); with dateline virtual
/// channels it becomes deadlock-free. Returns the network and the node
/// ids in ring order.
///
/// # Panics
/// Panics if `n < 2` (Definition 1 needs strong connectivity and the
/// model forbids self-loops).
pub fn ring_unidirectional(n: usize) -> (Network, Vec<NodeId>) {
    assert!(n >= 2, "a ring needs at least two nodes");
    let mut net = Network::new();
    let nodes = net.add_nodes("r", n);
    for i in 0..n {
        net.add_channel(nodes[i], nodes[(i + 1) % n]);
    }
    (net, nodes)
}

/// A bidirectional ring: opposed channel pairs between neighbours.
pub fn ring_bidirectional(n: usize) -> (Network, Vec<NodeId>) {
    assert!(n >= 2, "a ring needs at least two nodes");
    let mut net = Network::new();
    let nodes = net.add_nodes("r", n);
    for i in 0..n {
        let j = (i + 1) % n;
        // A 2-ring's "wraparound" would duplicate the same pair.
        if n == 2 && i == 1 {
            break;
        }
        net.add_bidi(nodes[i], nodes[j]);
    }
    (net, nodes)
}

/// A unidirectional ring with `vcs` virtual channels per link, for
/// dateline routing (Dally & Seitz): messages start on lane 0 and
/// switch to lane 1 when crossing the wraparound link, which breaks
/// the dependency cycle.
pub fn ring_with_vcs(n: usize, vcs: u8) -> (Network, Vec<NodeId>) {
    assert!(n >= 2, "a ring needs at least two nodes");
    assert!(vcs >= 1, "need at least one virtual channel");
    let mut net = Network::new();
    let nodes = net.add_nodes("r", n);
    for i in 0..n {
        for vc in 0..vcs {
            net.add_channel_vc(nodes[i], nodes[(i + 1) % n], vc);
        }
    }
    (net, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unidirectional_ring_shape() {
        let (net, nodes) = ring_unidirectional(5);
        assert_eq!(net.node_count(), 5);
        assert_eq!(net.channel_count(), 5);
        assert!(net.is_strongly_connected());
        assert_eq!(net.hop_distance(nodes[0], nodes[4]), Some(4));
        assert_eq!(net.hop_distance(nodes[4], nodes[0]), Some(1));
    }

    #[test]
    fn bidirectional_ring_shape() {
        let (net, nodes) = ring_bidirectional(6);
        assert_eq!(net.channel_count(), 12);
        assert!(net.is_strongly_connected());
        assert_eq!(net.hop_distance(nodes[0], nodes[5]), Some(1));
        assert_eq!(net.hop_distance(nodes[0], nodes[3]), Some(3));
    }

    #[test]
    fn two_node_bidirectional_ring_has_two_channels() {
        let (net, _) = ring_bidirectional(2);
        assert_eq!(net.channel_count(), 2);
        assert!(net.is_strongly_connected());
    }

    #[test]
    fn vc_ring_has_parallel_lanes() {
        let (net, nodes) = ring_with_vcs(4, 2);
        assert_eq!(net.channel_count(), 8);
        let lanes: Vec<u8> = net
            .out_channels(nodes[0])
            .iter()
            .filter(|&&c| net.channel(c).dst() == nodes[1])
            .map(|&c| net.channel(c).vc())
            .collect();
        assert_eq!(lanes, [0, 1]);
        assert!(net.find_channel_vc(nodes[0], nodes[1], 1).is_some());
        assert!(net.is_strongly_connected());
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn tiny_ring_rejected() {
        ring_unidirectional(1);
    }
}
