//! The decision options of one expanded state, enumerated in one pass.
//!
//! Every engine explores the same options in the same order:
//!
//! 1. inject subsets of the injectable messages, in ascending bitmask
//!    order over the id-ordered injectable list;
//! 2. within each, stall subsets of the stallable messages with at
//!    most `budget` members, in ascending bitmask order over the
//!    id-ordered stallable list (only the empty set at budget 0);
//! 3. within each, every arbitration outcome: the conflicted channels
//!    in ascending id, the first conflict varying slowest and each
//!    channel's requesters tried in id order.
//!
//! [`Options::fill`] computes every message's request once per state
//! ([`Sim::request_of`]) and stores each option compactly: two
//! bitmasks over the injectable and stallable lists, plus the winners
//! of its conflicted channels as a range of one flat buffer. Stepping
//! an option ([`Options::choice`]) lends those buffers to
//! [`Sim::step_with`]; only a witness rebuilds [`Decisions`] values
//! ([`Options::decisions`]).

use std::collections::BTreeMap;
use std::ops::Range;

use wormnet::ChannelId;
use wormsim::{Decisions, MessageId, Sim, SimState, StepChoice};

/// One option: inject and stall sets as bitmasks over the state's
/// injectable and stallable lists, and the range of its arbitration
/// winners in [`Options`]' flat winner buffer.
#[derive(Clone, Copy, Debug)]
struct Opt {
    inject: u32,
    stalls: u32,
    winners_start: u32,
    winners_end: u32,
}

/// The options of one state, in exploration order. Buffers are kept
/// across [`Options::fill`] calls, so a pool of these makes the
/// enumeration allocation-free once warm.
#[derive(Clone, Debug, Default)]
pub(crate) struct Options {
    injectable: Vec<MessageId>,
    stallable: Vec<MessageId>,
    opts: Vec<Opt>,
    winners: Vec<(ChannelId, MessageId)>,
    /// Per-message request of the state (see [`Sim::request_of`]).
    want: Vec<Option<ChannelId>>,
    /// Requests of the option being expanded, sorted by channel.
    requests: Vec<(ChannelId, MessageId)>,
    /// Conflicted channels of the option: ranges into `requests`.
    conflicts: Vec<Range<usize>>,
    /// Odometer over `conflicts` while expanding winners.
    pick: Vec<usize>,
}

/// The inject and stall lists of the option being stepped (filled
/// from its bitmasks by [`Options::choice`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct ChoiceBuf {
    inject: Vec<MessageId>,
    stalls: Vec<MessageId>,
}

/// Members of `list` selected by `mask`, in list order, into `out`.
fn select(list: &[MessageId], mask: u32, out: &mut Vec<MessageId>) {
    out.clear();
    out.extend(
        list.iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) != 0)
            .map(|(_, &m)| m),
    );
}

impl Options {
    /// Enumerate the options of `state` with `budget` stalls left.
    pub(crate) fn fill(&mut self, sim: &Sim, state: &SimState, budget: u32) {
        self.injectable.clear();
        self.stallable.clear();
        self.opts.clear();
        self.winners.clear();
        self.want.clear();
        for m in sim.messages() {
            let want = sim.request_of(state, m, &[]);
            self.want.push(want);
            if !state.is_started(m) {
                // Pending: injectable when its first channel is free.
                if want.is_some() {
                    self.injectable.push(m);
                }
            } else if !state.is_delivered(m, sim.length(m)) {
                self.stallable.push(m);
            }
        }
        assert!(
            self.injectable.len() <= 16 && self.stallable.len() <= 16,
            "search is meant for small scenarios"
        );
        let stall_sets: u32 = if budget == 0 {
            1
        } else {
            1 << self.stallable.len()
        };
        for inject in 0..1u32 << self.injectable.len() {
            for stalls in 0..stall_sets {
                if stalls.count_ones() <= budget {
                    self.expand(inject, stalls);
                }
            }
        }
    }

    /// Push every arbitration outcome of one inject/stall choice.
    fn expand(&mut self, inject: u32, stalls: u32) {
        self.requests.clear();
        let (mut inj, mut stl) = (0, 0);
        for (i, want) in self.want.iter().enumerate() {
            let m = MessageId::from_index(i);
            // Walk both id-ordered lists alongside the ids to find each
            // message's bit.
            let asks = if self.injectable.get(inj) == Some(&m) {
                inj += 1;
                inject & (1 << (inj - 1)) != 0
            } else if self.stallable.get(stl) == Some(&m) {
                stl += 1;
                stalls & (1 << (stl - 1)) == 0
            } else {
                true
            };
            if let (true, Some(t)) = (asks, *want) {
                self.requests.push((t, m));
            }
        }
        self.requests.sort_unstable();
        self.conflicts.clear();
        let mut start = 0;
        for group in self.requests.chunk_by(|a, b| a.0 == b.0) {
            if group.len() >= 2 {
                self.conflicts.push(start..start + group.len());
            }
            start += group.len();
        }
        self.pick.clear();
        self.pick.resize(self.conflicts.len(), 0);
        loop {
            let winners_start = self.winners.len() as u32;
            for (range, &p) in self.conflicts.iter().zip(&self.pick) {
                self.winners.push(self.requests[range.start + p]);
            }
            self.opts.push(Opt {
                inject,
                stalls,
                winners_start,
                winners_end: self.winners.len() as u32,
            });
            // Odometer step: the last conflict varies fastest.
            let mut j = self.conflicts.len();
            loop {
                if j == 0 {
                    return;
                }
                j -= 1;
                self.pick[j] += 1;
                if self.pick[j] < self.conflicts[j].len() {
                    break;
                }
                self.pick[j] = 0;
            }
        }
    }

    /// Number of options.
    pub(crate) fn len(&self) -> usize {
        self.opts.len()
    }

    /// Stalls option `i` spends.
    pub(crate) fn stall_count(&self, i: usize) -> u32 {
        self.opts[i].stalls.count_ones()
    }

    /// Option `i` as a [`StepChoice`], its inject and stall lists
    /// written into `buf`.
    pub(crate) fn choice<'a>(&'a self, i: usize, buf: &'a mut ChoiceBuf) -> StepChoice<'a> {
        let opt = self.opts[i];
        select(&self.injectable, opt.inject, &mut buf.inject);
        select(&self.stallable, opt.stalls, &mut buf.stalls);
        let buf: &'a ChoiceBuf = buf;
        StepChoice {
            inject: &buf.inject,
            stalls: &buf.stalls,
            winners: &self.winners[opt.winners_start as usize..opt.winners_end as usize],
            frozen: &[],
        }
    }

    /// Option `i` as the [`Decisions`] value a witness records: winners
    /// only for its conflicted channels, and nothing frozen.
    pub(crate) fn decisions(&self, i: usize) -> Decisions {
        let opt = self.opts[i];
        let mut inject = Vec::new();
        let mut stalls = Vec::new();
        select(&self.injectable, opt.inject, &mut inject);
        select(&self.stallable, opt.stalls, &mut stalls);
        let winners: BTreeMap<ChannelId, MessageId> = self.winners
            [opt.winners_start as usize..opt.winners_end as usize]
            .iter()
            .copied()
            .collect();
        Decisions {
            inject,
            stalls,
            winners,
            // Channel-level skew is subsumed by message stalls for
            // reachability purposes: the search freezes nothing.
            frozen: Vec::new(),
        }
    }
}
