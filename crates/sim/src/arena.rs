//! A recycling pool of [`SimState`] values for allocation-free search.
//!
//! The reachability searches clone a parent state once per enumerated
//! decision, and in the steady state most of those children are
//! immediately discarded as duplicates of already-visited states. With
//! plain `clone`/`drop` every child costs four heap allocations and
//! four frees; a [`StateArena`] instead keeps discarded states and
//! overwrites them in place via [`SimState::copy_from`], so the hot
//! loop touches the allocator only while the pool is still warming up.
//!
//! The pool is intentionally dumb: a LIFO stack of same-shaped states.
//! All states in one search have identical dimensions, so any pooled
//! state can stand in for any other.

use crate::state::SimState;

/// A LIFO pool of reusable [`SimState`] buffers.
///
/// ```
/// use wormsim::arena::StateArena;
/// use wormsim::SimState;
///
/// let mut arena = StateArena::new();
/// let template = SimState::new(4, 2);
///
/// // First clone allocates; recycling it makes the next one free.
/// let child = arena.take_clone(&template);
/// arena.give(child);
/// assert_eq!(arena.pooled(), 1);
/// let again = arena.take_clone(&template);
/// assert_eq!(arena.pooled(), 0);
/// assert_eq!(again, template);
/// ```
#[derive(Debug, Default)]
pub struct StateArena {
    pool: Vec<SimState>,
}

impl StateArena {
    /// An empty arena.
    pub fn new() -> Self {
        StateArena::default()
    }

    /// Clone `src`, reusing a pooled buffer when one is available.
    #[inline]
    pub fn take_clone(&mut self, src: &SimState) -> SimState {
        match self.pool.pop() {
            Some(mut state) => {
                state.copy_from(src);
                state
            }
            None => src.clone(),
        }
    }

    /// Return a no-longer-needed state to the pool for reuse.
    #[inline]
    pub fn give(&mut self, state: SimState) {
        self.pool.push(state);
    }

    /// Number of states currently pooled.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageId;
    use crate::state::{ChannelOcc, Worm};

    #[test]
    fn take_clone_matches_plain_clone() {
        let mut arena = StateArena::new();
        let mut src = SimState::new(3, 2);
        src.channels[1] = Some(ChannelOcc {
            msg: MessageId::from_index(1),
            lo: 0,
            hi: 2,
        });
        src.injected[1] = 2;
        src.worms[1] = Worm { tail: 2, head: 2 };

        let a = arena.take_clone(&src);
        assert_eq!(a, src);

        // Recycle a *differently filled* state and take again: the old
        // contents must be fully overwritten.
        let mut other = SimState::new(3, 2);
        other.injected[0] = 7;
        other.worms[0] = Worm { tail: 1, head: 3 };
        other.channels[0] = Some(ChannelOcc {
            msg: MessageId::from_index(0),
            lo: 1,
            hi: 1,
        });
        arena.give(other);
        let b = arena.take_clone(&src);
        assert_eq!(b, src);
        assert_eq!(arena.pooled(), 0);
    }

    #[test]
    fn pool_is_lifo_and_counts() {
        let mut arena = StateArena::new();
        let src = SimState::new(2, 1);
        arena.give(src.clone());
        arena.give(src.clone());
        assert_eq!(arena.pooled(), 2);
        let _ = arena.take_clone(&src);
        assert_eq!(arena.pooled(), 1);
    }
}
