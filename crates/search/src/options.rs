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
//! ([`Sim::request_of`]) and arbitrates each option as it enumerates
//! it, so an option is four words: its inject and stall sets and the
//! requesters it grants, as bitmasks over the injectable and stallable
//! lists, and its count of conflicted channels. Stepping an option
//! ([`Options::step`]) hands those grants to [`Sim::step_granted`]
//! without collecting, sorting or arbitrating requests again; only a
//! witness rebuilds [`Decisions`] values ([`Options::decisions`]).

use std::collections::BTreeMap;
use std::ops::Range;

use wormnet::ChannelId;
use wormsim::{Decisions, MessageId, Sim, SimState, StepScratch, StepTally};

/// Bit offset of the stallable list's members in [`Opt::grants`]; the
/// injectable list's start at bit 0. Both lists hold at most 16.
const STALLABLE_GRANTS: u32 = 16;

/// One option: inject and stall sets as bitmasks over the state's
/// injectable and stallable lists, the requesters it grants, and how
/// many channels it arbitrates.
#[derive(Clone, Copy, Debug)]
struct Opt {
    inject: u32,
    stalls: u32,
    /// Requesters whose header acquires its channel: injectable members
    /// in the low 16 bits, stallable members from [`STALLABLE_GRANTS`].
    grants: u32,
    /// Channels requested by two or more headers.
    conflicts: u32,
}

/// The options of one state, in exploration order. Buffers are kept
/// across [`Options::fill`] calls, so a pool of these makes the
/// enumeration allocation-free once warm.
#[derive(Clone, Debug, Default)]
pub(crate) struct Options {
    injectable: Vec<MessageId>,
    stallable: Vec<MessageId>,
    opts: Vec<Opt>,
    /// Per-message request of the state (see [`Sim::request_of`]).
    want: Vec<Option<ChannelId>>,
    /// Requests of the option being expanded, sorted by channel, each
    /// with its requester's grant bit.
    requests: Vec<(ChannelId, MessageId, u32)>,
    /// Conflicted channels of the option: ranges into `requests`.
    conflicts: Vec<Range<usize>>,
    /// Odometer over `conflicts` while expanding winners.
    pick: Vec<usize>,
}

/// Members of `list` selected by `mask`, in list order.
fn select(list: &[MessageId], mask: u32) -> impl Iterator<Item = (usize, MessageId)> + '_ {
    list.iter()
        .enumerate()
        .filter(move |&(i, _)| mask & (1 << i) != 0)
        .map(|(i, &m)| (i, m))
}

/// The header requests of one inject/stall choice, in list order, as
/// `(channel, message, grant bit)`: every injectable member it injects,
/// and every stallable member it does not stall whose header has a
/// channel to ask for.
fn requests<'a>(
    injectable: &'a [MessageId],
    stallable: &'a [MessageId],
    want: &'a [Option<ChannelId>],
    inject: u32,
    stalls: u32,
) -> impl Iterator<Item = (ChannelId, MessageId, u32)> + 'a {
    let injecting = select(injectable, inject).map(|(i, m)| (m, 1 << i));
    let moving = select(stallable, !stalls).map(|(i, m)| (m, 1 << (STALLABLE_GRANTS + i as u32)));
    injecting
        .chain(moving)
        .filter_map(|(m, bit)| want[m.index()].map(|t| (t, m, bit)))
}

impl Options {
    /// Enumerate the options of `state` with `budget` stalls left.
    pub(crate) fn fill(&mut self, sim: &Sim, state: &SimState, budget: u32) {
        self.injectable.clear();
        self.stallable.clear();
        self.opts.clear();
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
        self.requests.extend(requests(
            &self.injectable,
            &self.stallable,
            &self.want,
            inject,
            stalls,
        ));
        self.requests.sort_unstable();
        // Every requester of an uncontested channel is granted; each
        // conflicted channel grants the requester its odometer picks.
        let mut uncontested = self.requests.iter().fold(0, |g, r| g | r.2);
        self.conflicts.clear();
        let mut start = 0;
        for group in self.requests.chunk_by(|a, b| a.0 == b.0) {
            if group.len() >= 2 {
                self.conflicts.push(start..start + group.len());
                for r in group {
                    uncontested &= !r.2;
                }
            }
            start += group.len();
        }
        self.pick.clear();
        self.pick.resize(self.conflicts.len(), 0);
        loop {
            let grants = self
                .conflicts
                .iter()
                .zip(&self.pick)
                .fold(uncontested, |g, (range, &p)| {
                    g | self.requests[range.start + p].2
                });
            self.opts.push(Opt {
                inject,
                stalls,
                grants,
                conflicts: self.conflicts.len() as u32,
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

    /// Step `state`, a copy of the state these options were filled
    /// from, by option `i`: every stallable message it does not stall
    /// advances, and each requester it grants acquires its channel. The
    /// report lands in `scratch`; returns the step's `sim.*` tally.
    pub(crate) fn step(
        &self,
        sim: &Sim,
        i: usize,
        state: &mut SimState,
        scratch: &mut StepScratch,
    ) -> StepTally {
        let opt = self.opts[i];
        let granted = |bit: u32, m: MessageId| {
            if opt.grants & (1 << bit) != 0 {
                self.want[m.index()]
            } else {
                None
            }
        };
        let moving = select(&self.stallable, !opt.stalls)
            .map(|(j, m)| (m, granted(STALLABLE_GRANTS + j as u32, m)));
        let injecting =
            select(&self.injectable, opt.grants).map(|(_, m)| (m, self.want[m.index()]));
        let report = sim.step_granted(state, moving.chain(injecting), scratch);
        StepTally::of_step(
            report,
            opt.stalls.count_ones() as usize,
            opt.conflicts as usize,
        )
    }

    /// Option `i` as the [`Decisions`] value a witness records: winners
    /// only for its conflicted channels, and nothing frozen.
    pub(crate) fn decisions(&self, i: usize) -> Decisions {
        let opt = self.opts[i];
        let mut requests: Vec<(ChannelId, MessageId, u32)> = requests(
            &self.injectable,
            &self.stallable,
            &self.want,
            opt.inject,
            opt.stalls,
        )
        .collect();
        requests.sort_unstable();
        let winners: BTreeMap<ChannelId, MessageId> = requests
            .chunk_by(|a, b| a.0 == b.0)
            .filter(|group| group.len() >= 2)
            .map(|group| {
                let &(chan, winner, _) = group
                    .iter()
                    .find(|r| opt.grants & r.2 != 0)
                    .expect("a conflicted channel grants one requester");
                (chan, winner)
            })
            .collect();
        Decisions {
            inject: select(&self.injectable, opt.inject)
                .map(|(_, m)| m)
                .collect(),
            stalls: select(&self.stallable, opt.stalls)
                .map(|(_, m)| m)
                .collect(),
            winners,
            // Channel-level skew is subsumed by message stalls for
            // reachability purposes: the search freezes nothing.
            frozen: Vec::new(),
        }
    }
}
