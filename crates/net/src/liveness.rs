//! Dynamic channel-liveness overlay.
//!
//! A [`crate::Network`] is immutable after construction (dense, stable
//! [`ChannelId`]s are what every other crate indexes by), so link
//! failures are modelled as an *overlay*: a [`ChannelLiveness`] keeps
//! the sorted list of channels currently down without touching the
//! graph.
//! Fault-injection (the `wormfault` crate) mutates the overlay as its
//! plan's down/up events fire; analysis code asks for the current
//! [`ChannelLiveness::down_channels`] set to mask dependency edges or
//! freeze queues.

use crate::channel::ChannelId;
use crate::network::Network;

/// Which channels of a network are currently alive.
///
/// Freshly constructed overlays report every channel up; `set_down` /
/// `set_up` are idempotent so replaying a fault plan's events in order
/// is safe even when events repeat. The overlay is the list of down
/// channels itself, kept sorted as channels flip, so reading it costs
/// nothing per cycle however large the network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChannelLiveness {
    channel_count: usize,
    /// The channels currently down, ascending.
    down: Vec<ChannelId>,
}

impl ChannelLiveness {
    /// All-up overlay for `net`.
    pub fn new(net: &Network) -> Self {
        Self::all_up(net.channel_count())
    }

    /// All-up overlay for a network with `channel_count` channels.
    pub fn all_up(channel_count: usize) -> Self {
        ChannelLiveness {
            channel_count,
            down: Vec::new(),
        }
    }

    /// Number of channels the overlay covers.
    pub fn channel_count(&self) -> usize {
        self.channel_count
    }

    /// Mark a channel down (idempotent).
    ///
    /// # Panics
    /// Panics if `c` is not a channel of the overlay.
    pub fn set_down(&mut self, c: ChannelId) {
        assert!(c.index() < self.channel_count, "{c} is outside the overlay");
        if let Err(pos) = self.down.binary_search(&c) {
            self.down.insert(pos, c);
        }
    }

    /// Mark a channel up again (idempotent).
    ///
    /// # Panics
    /// Panics if `c` is not a channel of the overlay.
    pub fn set_up(&mut self, c: ChannelId) {
        assert!(c.index() < self.channel_count, "{c} is outside the overlay");
        if let Ok(pos) = self.down.binary_search(&c) {
            self.down.remove(pos);
        }
    }

    /// Whether the channel is currently up.
    ///
    /// # Panics
    /// Panics if `c` is not a channel of the overlay.
    pub fn is_up(&self, c: ChannelId) -> bool {
        assert!(c.index() < self.channel_count, "{c} is outside the overlay");
        self.down.binary_search(&c).is_err()
    }

    /// Whether every channel is up.
    pub fn all_channels_up(&self) -> bool {
        self.down.is_empty()
    }

    /// Number of channels currently down.
    pub fn down_count(&self) -> usize {
        self.down.len()
    }

    /// The currently-down channels, in id order.
    pub fn down_channels(&self) -> &[ChannelId] {
        &self.down
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::line;

    #[test]
    fn starts_all_up_and_tracks_transitions() {
        let (net, _) = line(4);
        let mut live = ChannelLiveness::new(&net);
        assert_eq!(live.channel_count(), net.channel_count());
        assert!(live.all_channels_up());
        assert_eq!(live.down_count(), 0);
        assert!(live.down_channels().is_empty());

        let c = ChannelId::from_index(2);
        live.set_down(c);
        live.set_down(c); // idempotent
        assert!(!live.is_up(c));
        assert!(!live.all_channels_up());
        assert_eq!(live.down_channels(), vec![c]);

        live.set_up(c);
        assert!(live.is_up(c));
        assert!(live.all_channels_up());
    }

    #[test]
    fn down_channels_are_sorted() {
        let mut live = ChannelLiveness::all_up(6);
        for i in [5usize, 1, 3] {
            live.set_down(ChannelId::from_index(i));
        }
        let down = live.down_channels();
        assert_eq!(
            down,
            vec![
                ChannelId::from_index(1),
                ChannelId::from_index(3),
                ChannelId::from_index(5)
            ]
        );
        assert_eq!(live.down_count(), 3);
    }

    #[test]
    #[should_panic(expected = "outside the overlay")]
    fn is_up_rejects_a_channel_outside_the_overlay() {
        ChannelLiveness::all_up(3).is_up(ChannelId::from_index(3));
    }
}
