//! The dynamic simulation state: channel occupancy windows and
//! per-message progress counters.
//!
//! Flits of a message are numbered `0` (header) to `length-1` (tail).
//! A worm occupies a contiguous run of its path's channels; the
//! channel nearest the destination holds the lowest-numbered flits.
//! Each channel therefore holds a contiguous *window* `[lo, hi)` of
//! flit indices of its single owner (atomic buffer allocation), with
//! `lo` the next flit to depart.
//!
//! The state also caches where each worm sits on its path (its
//! [`Worm`] ends), so the stepping core and the packed search key read
//! a worm's channels without scanning its path. The ends follow from
//! the occupancy windows; the engine keeps them in step, and
//! `Sim::check_invariants` compares them with a path scan.
//!
//! The state is deliberately tiny and `Hash`/`Eq` so the search engine
//! can memoize visited configurations.

use crate::message::MessageId;

/// Occupancy of one channel: owner plus flit window.
///
/// The owner is retained while the window is empty if more of its
/// flits are still to pass (atomic buffer allocation releases the
/// queue only after the *tail* flit departs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ChannelOcc {
    /// Owning message.
    pub msg: MessageId,
    /// First flit index present (next to depart).
    pub lo: u16,
    /// One past the last flit index present.
    pub hi: u16,
}

impl ChannelOcc {
    /// Number of flits currently queued.
    #[inline]
    pub fn occupancy(self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// Whether the queue is empty (but possibly still owned).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.lo == self.hi
    }
}

/// The ends of one message's worm, as path positions plus one: `tail`
/// is the source-nearest channel it owns, `head` the furthest. Both
/// are `0` while the message owns no channel (pending or delivered).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub(crate) struct Worm {
    pub(crate) tail: u32,
    pub(crate) head: u32,
}

impl Worm {
    /// The owned path positions, tail to head (empty for no worm).
    #[inline]
    pub(crate) fn positions(self) -> std::ops::Range<usize> {
        if self.head == 0 {
            0..0
        } else {
            self.tail as usize - 1..self.head as usize
        }
    }
}

/// Complete dynamic state of a simulation.
///
/// Time is *not* part of the state: two configurations reached at
/// different cycles are equivalent for reachability purposes, which is
/// what makes search memoization effective.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SimState {
    /// Per-channel occupancy (`None` = empty and unowned).
    pub channels: Vec<Option<ChannelOcc>>,
    /// Per-message count of flits that have left the source.
    pub injected: Vec<u16>,
    /// Per-message count of flits consumed at the destination.
    pub consumed: Vec<u16>,
    /// Per-message worm ends, kept by the stepping core.
    pub(crate) worms: Vec<Worm>,
}

impl SimState {
    /// Fresh state: empty network, nothing injected.
    pub fn new(channel_count: usize, message_count: usize) -> Self {
        SimState {
            channels: vec![None; channel_count],
            injected: vec![0; message_count],
            consumed: vec![0; message_count],
            worms: vec![Worm::default(); message_count],
        }
    }

    /// Overwrite `self` with `src`, reusing the existing allocations.
    ///
    /// Equivalent to `*self = src.clone()` but keeps the vector
    /// buffers (the derived `Clone` has no specialized `clone_from`,
    /// so plain cloning reallocates). Within one search every state
    /// has the same dimensions, so this never reallocates after the
    /// first use of a buffer.
    #[inline]
    pub fn copy_from(&mut self, src: &SimState) {
        self.channels.clone_from(&src.channels);
        self.injected.clone_from(&src.injected);
        self.consumed.clone_from(&src.consumed);
        self.worms.clone_from(&src.worms);
    }

    /// Whether message `m` has started injecting.
    #[inline]
    pub fn is_started(&self, m: MessageId) -> bool {
        self.injected[m.index()] > 0
    }

    /// Whether all of `m`'s flits have been consumed (given its length).
    #[inline]
    pub fn is_delivered(&self, m: MessageId, length: usize) -> bool {
        (self.consumed[m.index()] as usize) == length
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_window() {
        let occ = ChannelOcc {
            msg: MessageId::from_index(0),
            lo: 2,
            hi: 5,
        };
        assert_eq!(occ.occupancy(), 3);
        assert!(!occ.is_empty());
        let empty = ChannelOcc {
            msg: MessageId::from_index(0),
            lo: 5,
            hi: 5,
        };
        assert!(empty.is_empty());
    }

    #[test]
    fn fresh_state() {
        let s = SimState::new(4, 2);
        assert_eq!(s.channels.len(), 4);
        assert!(!s.is_started(MessageId::from_index(0)));
        assert!(!s.is_delivered(MessageId::from_index(1), 3));
        assert!(s.is_delivered(MessageId::from_index(1), 0));
    }

    #[test]
    fn states_hash_equal_when_equal() {
        use std::collections::HashSet;
        let a = SimState::new(3, 1);
        let b = SimState::new(3, 1);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }
}
