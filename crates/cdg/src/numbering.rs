//! An independent checker for the Dally–Seitz certificate.
//!
//! [`Cdg::numbering`](crate::Cdg::numbering) derives a channel
//! numbering from the CDG it built. [`check_numbering`] re-checks that
//! numbering against the routing table alone: it walks every path's
//! consecutive channel pairs and never looks at the CDG, so a fault in
//! CDG construction or in the topological sort cannot certify itself.

use wormnet::{ChannelId, Network};
use wormroute::TableRouting;

use crate::graph::MsgPair;

/// Why a numbering is not a Dally–Seitz certificate for a table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NumberingError {
    /// The numbering does not hold exactly one number per channel.
    Length {
        /// The network's channel count.
        expected: usize,
        /// The numbering's length.
        found: usize,
    },
    /// The message `pair` uses channel `to` right after `from`, but
    /// `to`'s number is not strictly greater than `from`'s.
    NotIncreasing {
        /// The message whose path holds the dependency.
        pair: MsgPair,
        /// The channel held.
        from: ChannelId,
        /// The channel requested next.
        to: ChannelId,
    },
}

/// Check that `numbering` (indexed by [`ChannelId::index`]) is a
/// Dally–Seitz certificate for `table` on `net` (Theorem 1): it has one
/// number per channel, and the numbers strictly increase along every
/// routed path. Paths are walked in the table's deterministic order,
/// so the reported violation is the first one in that order.
pub fn check_numbering(
    net: &Network,
    table: &TableRouting,
    numbering: &[usize],
) -> Result<(), NumberingError> {
    if numbering.len() != net.channel_count() {
        return Err(NumberingError::Length {
            expected: net.channel_count(),
            found: numbering.len(),
        });
    }
    for (pair, path) in table.iter() {
        for w in path.channels().windows(2) {
            if numbering[w[0].index()] >= numbering[w[1].index()] {
                return Err(NumberingError::NotIncreasing {
                    pair,
                    from: w[0],
                    to: w[1],
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cdg;
    use wormnet::topology::ring_with_vcs;
    use wormroute::algorithms::dateline_ring;

    #[test]
    fn swapping_two_dependent_channels_is_rejected() {
        let (net, nodes) = ring_with_vcs(5, 2);
        let table = dateline_ring(&net, &nodes).unwrap();
        let cdg = Cdg::build(&net, &table);
        let mut numbering = cdg.numbering().expect("dateline CDG is acyclic");
        assert_eq!(check_numbering(&net, &table, &numbering), Ok(()));

        let (c1, c2) = cdg.edges().next().expect("the ring has dependencies");
        numbering.swap(c1.index(), c2.index());
        assert!(matches!(
            check_numbering(&net, &table, &numbering),
            Err(NumberingError::NotIncreasing { .. })
        ));
    }

    #[test]
    fn the_first_violation_names_its_message_and_channels() {
        let (net, nodes) = ring_with_vcs(5, 2);
        let table = dateline_ring(&net, &nodes).unwrap();
        // All channels numbered alike: the first multi-hop path in
        // table order is the first violation.
        let flat = vec![0; net.channel_count()];
        let (pair, path) = table
            .iter()
            .find(|(_, p)| p.channels().len() >= 2)
            .expect("some path has two hops");
        assert_eq!(
            check_numbering(&net, &table, &flat),
            Err(NumberingError::NotIncreasing {
                pair,
                from: path.channels()[0],
                to: path.channels()[1],
            })
        );
    }

    #[test]
    fn a_numbering_of_the_wrong_length_is_rejected() {
        let (net, nodes) = ring_with_vcs(5, 2);
        let table = dateline_ring(&net, &nodes).unwrap();
        let mut numbering = Cdg::build(&net, &table).numbering().unwrap();
        numbering.pop();
        assert_eq!(
            check_numbering(&net, &table, &numbering),
            Err(NumberingError::Length {
                expected: net.channel_count(),
                found: net.channel_count() - 1,
            })
        );
        // An empty table still needs one number per channel.
        assert!(check_numbering(&net, &TableRouting::new(), &[]).is_err());
    }
}
