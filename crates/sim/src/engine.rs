//! The cycle-synchronous simulation engine.

use std::collections::BTreeMap;

use wormnet::{ChannelId, Network};
use wormroute::TableRouting;

use crate::error::SimError;
use crate::message::{MessageId, MessageSpec};
use crate::state::{ChannelOcc, SimState, Worm};

/// Externalized nondeterminism for one simulation cycle.
///
/// * `inject` — pending messages (header not yet in the network) that
///   attempt to acquire their first channel this cycle.
/// * `stalls` — messages frozen by the adversary this cycle (none of
///   their flits move, and they issue no requests). This models the
///   paper's Section 6 "delayed even though the output channel is
///   free" scenario.
/// * `winners` — arbitration outcome for every channel requested by
///   more than one header this cycle. Channels with a single requester
///   need no entry. A missing entry for a contended channel falls back
///   to the lowest message id (deterministic), so policy runners can
///   pass only the conflicts they care about.
/// * `frozen` — channels that are inactive this cycle: they neither
///   transmit their front flit nor accept a new one. This models
///   per-router clock skew (a skewed router pauses every queue it
///   hosts, i.e. every channel whose destination it is) — the physical
///   phenomenon Section 6 of the paper is about.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Decisions {
    /// Messages attempting header injection this cycle.
    pub inject: Vec<MessageId>,
    /// Messages frozen this cycle.
    pub stalls: Vec<MessageId>,
    /// Arbitration winners for contended channels.
    pub winners: BTreeMap<ChannelId, MessageId>,
    /// Channels inactive this cycle (clock skew).
    pub frozen: Vec<ChannelId>,
}

/// Result of one engine step.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StepReport {
    /// Whether any flit moved (injection, hop, or consumption).
    pub moved: bool,
    /// Number of individual flit movements this cycle (injections,
    /// hops, and consumptions all count one).
    pub flits_moved: usize,
    /// Messages whose tail flit was consumed this cycle.
    pub delivered: Vec<MessageId>,
}

/// One cycle's decisions in the borrowed form the stepping core
/// consumes ([`Sim::step_with`]). [`Sim::step`] lends a [`Decisions`]
/// this way and the runner lends its reused per-cycle buffers, so the
/// core itself allocates nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepChoice<'a> {
    /// Pending messages attempting header injection.
    pub inject: &'a [MessageId],
    /// Messages frozen this cycle.
    pub stalls: &'a [MessageId],
    /// Arbitration winners for contended channels.
    pub winners: &'a [(ChannelId, MessageId)],
    /// Per-channel frozen mask, indexed by channel; empty means no
    /// channel is frozen.
    pub frozen: &'a [bool],
}

/// The `sim.*` trace counters of one or more steps.
///
/// [`Sim::step`] publishes each step's tally as it goes. A search
/// steps once per explored edge ([`Sim::step_granted`]), so it sums
/// the tallies instead and publishes them once when it finishes: the
/// totals are the same, without five recorder calls per edge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepTally {
    /// Steps taken (`sim.cycles`).
    pub cycles: u64,
    /// Flit movements (`sim.flits_moved`).
    pub flits_moved: u64,
    /// Messages whose tail was consumed (`sim.delivered`).
    pub delivered: u64,
    /// Stalled messages, summed over steps (`sim.stall_injections`).
    pub stall_injections: u64,
    /// Channels requested by two or more headers (`sim.arb_conflicts`).
    pub arb_conflicts: u64,
}

impl StepTally {
    /// The tally of one step that `report` describes, in which
    /// `stalls` messages were stalled and `conflicts` channels were
    /// requested by two or more headers.
    #[inline]
    pub fn of_step(report: &StepReport, stalls: usize, conflicts: usize) -> StepTally {
        StepTally {
            cycles: 1,
            flits_moved: report.flits_moved as u64,
            delivered: report.delivered.len() as u64,
            stall_injections: stalls as u64,
            arb_conflicts: conflicts as u64,
        }
    }

    /// Add another tally (usually one step's) to this one.
    #[inline]
    pub fn absorb(&mut self, other: StepTally) {
        self.cycles += other.cycles;
        self.flits_moved += other.flits_moved;
        self.delivered += other.delivered;
        self.stall_injections += other.stall_injections;
        self.arb_conflicts += other.arb_conflicts;
    }

    /// Publish the tally as the `sim.*` counters of the installed
    /// [`wormtrace`] recorder (nothing when tracing is off or no step
    /// was taken).
    pub fn publish(&self) {
        if self.cycles == 0 || !wormtrace::enabled() {
            return;
        }
        wormtrace::counter("sim.cycles", self.cycles);
        wormtrace::counter("sim.flits_moved", self.flits_moved);
        wormtrace::counter("sim.delivered", self.delivered);
        wormtrace::counter("sim.stall_injections", self.stall_injections);
        wormtrace::counter("sim.arb_conflicts", self.arb_conflicts);
    }
}

/// Reusable buffers of the stepping core and of deadlock detection, so
/// a caller stepping millions of states touches the allocator only
/// while the buffers warm up.
#[derive(Clone, Debug, Default)]
pub struct StepScratch {
    /// Header requests `(channel, message)`; sorted before granting.
    requests: Vec<(ChannelId, MessageId)>,
    /// Per-message granted channel.
    grants: Vec<Option<ChannelId>>,
    /// Per-message wait-for edge (deadlock detection).
    waits: Vec<Option<MessageId>>,
    /// Per-message walk colour and the walk (deadlock detection).
    color: Vec<u8>,
    walk: Vec<usize>,
    /// The last step's report.
    report: StepReport,
}

impl StepScratch {
    /// Empty buffers (sized on first use).
    pub fn new() -> Self {
        StepScratch::default()
    }

    /// The report of the last step ([`Sim::step_with`] or
    /// [`Sim::step_granted`]).
    pub fn report(&self) -> &StepReport {
        &self.report
    }

    /// The sorted `(channel, message)` requests of the last resolved
    /// step ([`Sim::resolve_requests`]).
    pub(crate) fn requests(&self) -> &[(ChannelId, MessageId)] {
        &self.requests
    }
}

/// Frozen-channel view for [`Sim::advance_message`]: a step with a
/// frozen channel passes its per-channel freeze mask, every other step
/// passes [`NoFreeze`], which compiles the freeze checks out of that
/// instance of the advance routine.
trait FrozenQ {
    /// Is channel `ci` frozen (transmits nothing) this cycle?
    fn is_frozen(&self, ci: usize) -> bool;
}

/// All-channels-live freeze view (the common case: no frozen channel).
#[derive(Clone, Copy)]
struct NoFreeze;

impl FrozenQ for NoFreeze {
    #[inline(always)]
    fn is_frozen(&self, _ci: usize) -> bool {
        false
    }
}

impl FrozenQ for &[bool] {
    #[inline(always)]
    fn is_frozen(&self, ci: usize) -> bool {
        self[ci]
    }
}

/// The static part of a simulation: message paths and lengths, channel
/// capacities. All dynamic state lives in [`SimState`].
#[derive(Clone, Debug)]
pub struct Sim {
    specs: Vec<MessageSpec>,
    paths: Vec<Vec<ChannelId>>,
    lengths: Vec<u16>,
    capacities: Vec<usize>,
    channel_count: usize,
}

impl Sim {
    /// Set up a simulation of `specs` routed by `table` on `net`.
    ///
    /// `capacity_override`, when set, replaces every channel's queue
    /// depth (the experiments sweep this; the paper's adversarial
    /// analysis uses depth 1).
    pub fn new(
        net: &Network,
        table: &TableRouting,
        specs: Vec<MessageSpec>,
        capacity_override: Option<usize>,
    ) -> Result<Self, SimError> {
        let mut paths = Vec::with_capacity(specs.len());
        let mut lengths = Vec::with_capacity(specs.len());
        for spec in &specs {
            if spec.length == 0 {
                return Err(SimError::ZeroLength);
            }
            let length = u16::try_from(spec.length).map_err(|_| SimError::TooLong(spec.length))?;
            let path = table
                .path(spec.src, spec.dst)
                .ok_or(SimError::Unrouted(spec.src, spec.dst))?;
            paths.push(path.channels().to_vec());
            lengths.push(length);
        }
        let capacities = net
            .channels()
            .map(|c| capacity_override.unwrap_or(c.capacity()))
            .collect();
        Ok(Sim {
            specs,
            paths,
            lengths,
            capacities,
            channel_count: net.channel_count(),
        })
    }

    /// Number of messages.
    pub fn message_count(&self) -> usize {
        self.specs.len()
    }

    /// Number of channels in the network.
    pub fn channel_count(&self) -> usize {
        self.channel_count
    }

    /// The spec of message `m`.
    pub fn spec(&self, m: MessageId) -> &MessageSpec {
        &self.specs[m.index()]
    }

    /// The channel path of message `m`.
    pub fn path(&self, m: MessageId) -> &[ChannelId] {
        &self.paths[m.index()]
    }

    /// Length of message `m` in flits.
    pub fn length(&self, m: MessageId) -> usize {
        self.lengths[m.index()] as usize
    }

    /// Queue capacity of a channel.
    pub fn capacity(&self, c: ChannelId) -> usize {
        self.capacities[c.index()]
    }

    /// All message ids.
    pub fn messages(&self) -> impl ExactSizeIterator<Item = MessageId> {
        (0..self.specs.len()).map(MessageId::from_index)
    }

    /// A fresh, empty state.
    pub fn initial_state(&self) -> SimState {
        SimState::new(self.channel_count, self.specs.len())
    }

    /// Whether every message has been fully consumed.
    pub fn all_delivered(&self, state: &SimState) -> bool {
        self.messages()
            .all(|m| state.is_delivered(m, self.length(m)))
    }

    /// Messages whose header has not entered the network yet.
    pub fn pending(&self, state: &SimState) -> Vec<MessageId> {
        self.messages()
            .filter(|&m| state.injected[m.index()] == 0)
            .collect()
    }

    /// The path index of the furthest channel owned by `m`, if any.
    #[inline]
    pub fn head_index(&self, state: &SimState, m: MessageId) -> Option<usize> {
        let head = state.worms[m.index()].head;
        head.checked_sub(1).map(|h| h as usize)
    }

    /// The channel `m`'s header needs next: `Some` while the header is
    /// in the network and not on its final channel.
    pub fn header_target(&self, state: &SimState, m: MessageId) -> Option<ChannelId> {
        if state.injected[m.index()] == 0 || state.consumed[m.index()] > 0 {
            return None;
        }
        let h = self.head_index(state, m)?;
        let path = &self.paths[m.index()];
        (h + 1 < path.len()).then(|| path[h + 1])
    }

    /// The channel `m`'s header would acquire this cycle if it asked:
    /// the first channel while `m` is pending, the next path channel
    /// while its header is in flight — but only when that channel is
    /// empty, unowned and not `frozen` at the start of the cycle
    /// (atomic buffer allocation). `None` for a delivered message, a
    /// header on its final channel, or a channel it cannot take now.
    /// `frozen` is a per-channel mask; empty means nothing is frozen.
    #[inline]
    pub fn request_of(&self, state: &SimState, m: MessageId, frozen: &[bool]) -> Option<ChannelId> {
        let mi = m.index();
        let target = if state.injected[mi] == 0 {
            self.paths[mi][0]
        } else if state.consumed[mi] > 0 {
            return None;
        } else {
            let path = &self.paths[mi];
            let h = self.head_index(state, m)?;
            *path.get(h + 1)?
        };
        let ti = target.index();
        (state.channels[ti].is_none() && !frozen.get(ti).copied().unwrap_or(false))
            .then_some(target)
    }

    /// Header-acquisition requests this cycle: channel → requesting
    /// messages (in id order). Includes injection attempts. Only
    /// channels that are empty and unowned at the start of the cycle
    /// can be requested (atomic buffer allocation).
    pub fn header_requests(
        &self,
        state: &SimState,
        inject: &[MessageId],
        stalls: &[MessageId],
    ) -> BTreeMap<ChannelId, Vec<MessageId>> {
        let mut pairs = Vec::new();
        self.collect_requests(
            state,
            &StepChoice {
                inject,
                stalls,
                ..StepChoice::default()
            },
            &mut pairs,
        );
        let mut requests: BTreeMap<ChannelId, Vec<MessageId>> = BTreeMap::new();
        for (t, m) in pairs {
            requests.entry(t).or_default().push(m);
        }
        requests
    }

    /// The per-channel mask of `channels`, as [`StepChoice::frozen`]
    /// takes it (empty when `channels` is).
    pub fn channel_mask(&self, channels: &[ChannelId]) -> Vec<bool> {
        let mut mask = Vec::new();
        if !channels.is_empty() {
            mask.resize(self.channel_count, false);
            for &c in channels {
                mask[c.index()] = true;
            }
        }
        mask
    }

    /// Fill `requests` with this cycle's header requests, in
    /// message-id order: every message neither stalled nor pending
    /// without an injection attempt asks for [`Sim::request_of`].
    fn collect_requests(
        &self,
        state: &SimState,
        choice: &StepChoice<'_>,
        requests: &mut Vec<(ChannelId, MessageId)>,
    ) {
        requests.clear();
        for m in self.messages() {
            if choice.stalls.contains(&m)
                || (state.injected[m.index()] == 0 && !choice.inject.contains(&m))
            {
                continue;
            }
            if let Some(t) = self.request_of(state, m, choice.frozen) {
                requests.push((t, m));
            }
        }
    }

    /// Advance one cycle.
    ///
    /// Winners for contended channels are taken from
    /// `decisions.winners`; a contended channel with no entry goes to
    /// the lowest requesting message id. A winner entry naming a
    /// non-requesting message is a caller bug and panics.
    pub fn step(&self, state: &mut SimState, decisions: &Decisions) -> StepReport {
        let winners: Vec<(ChannelId, MessageId)> =
            decisions.winners.iter().map(|(&c, &m)| (c, m)).collect();
        let frozen = self.channel_mask(&decisions.frozen);
        let mut scratch = StepScratch::new();
        let tally = self.step_with(
            state,
            StepChoice {
                inject: &decisions.inject,
                stalls: &decisions.stalls,
                winners: &winners,
                frozen: &frozen,
            },
            &mut scratch,
        );
        // Structured instrumentation (docs/TRACING.md, `sim.*`): one
        // relaxed atomic load when tracing is off. The searches step
        // through `step_with` and publish their summed tallies once.
        tally.publish();
        scratch.report
    }

    /// The stepping core: advance one cycle under `choice`, reusing
    /// `scratch`'s buffers (the report lands in
    /// [`StepScratch::report`]).
    ///
    /// Requests and grants are resolved in place: each requesting
    /// header is one `(channel, message)` pair, and after sorting, a
    /// channel's requesters sit together in id order. A channel with one
    /// requester grants it; a contended one goes to its `choice.winners`
    /// entry, or to the lowest requesting id when it has none. A winner
    /// entry naming a non-requesting message panics. With no frozen
    /// channel the flit moves run through the `NoFreeze` instance.
    pub fn step_with(
        &self,
        state: &mut SimState,
        choice: StepChoice<'_>,
        scratch: &mut StepScratch,
    ) -> StepTally {
        self.resolve_requests(state, &choice, scratch);
        self.step_resolved(state, choice, scratch)
    }

    /// Fill `scratch`'s request list with this cycle's header requests
    /// under `choice` (its `winners` are not read), sorted by
    /// `(channel, message)`: each channel's requesters form one group
    /// in id order. The runner reads the groups for its request ages
    /// and arbitration, then commits with [`Sim::step_resolved`].
    pub(crate) fn resolve_requests(
        &self,
        state: &SimState,
        choice: &StepChoice<'_>,
        scratch: &mut StepScratch,
    ) {
        self.collect_requests(state, choice, &mut scratch.requests);
        scratch.requests.sort_unstable();
    }

    /// [`Sim::step_with`] after [`Sim::resolve_requests`] filled
    /// `scratch` for this `state` and `choice`: grant and move without
    /// collecting the requests again.
    pub(crate) fn step_resolved(
        &self,
        state: &mut SimState,
        choice: StepChoice<'_>,
        scratch: &mut StepScratch,
    ) -> StepTally {
        let grants = &mut scratch.grants;
        grants.clear();
        grants.resize(self.specs.len(), None);
        let mut conflicts = 0;
        for group in scratch.requests.chunk_by(|a, b| a.0 == b.0) {
            let chan = group[0].0;
            let winner = if group.len() == 1 {
                group[0].1
            } else {
                conflicts += 1;
                match choice.winners.iter().find(|&&(c, _)| c == chan) {
                    Some(&(_, w)) => {
                        assert!(
                            group.iter().any(|&(_, m)| m == w),
                            "arbitration winner {w} does not request {chan}"
                        );
                        w
                    }
                    None => group[0].1,
                }
            };
            grants[winner.index()] = Some(chan);
        }

        let report = &mut scratch.report;
        let movers = self
            .messages()
            .filter(|m| !choice.stalls.contains(m))
            .map(|m| (m, grants[m.index()]));
        if choice.frozen.is_empty() {
            self.advance(state, movers, NoFreeze, report);
        } else {
            self.advance(state, movers, choice.frozen, report);
        }
        StepTally::of_step(report, choice.stalls.len(), conflicts)
    }

    /// Advance one cycle whose header requests the caller has already
    /// collected and arbitrated, as the exhaustive search does for every
    /// option when it enumerates a state's options: each of `movers`
    /// advances, its header acquiring the channel paired with it
    /// (`None`: none), and every other message stands still. The report
    /// lands in [`StepScratch::report`]; nothing is frozen.
    ///
    /// Each mover appears once. Every in-flight message the cycle does
    /// not stall must be a mover; a pending one without a grant, or a
    /// delivered one, does nothing either way. A grant must be what
    /// [`Sim::step_with`] would grant: the message's
    /// [`Sim::request_of`] channel, won against every other requester
    /// of it. Debug builds check that each grant is the message's next
    /// channel and free, and the search holds every edge it steps to
    /// `step_with` there.
    pub fn step_granted<'s>(
        &self,
        state: &mut SimState,
        movers: impl IntoIterator<Item = (MessageId, Option<ChannelId>)>,
        scratch: &'s mut StepScratch,
    ) -> &'s StepReport {
        self.advance(state, movers, NoFreeze, &mut scratch.report);
        &scratch.report
    }

    /// Advance each of `movers` that is not delivered under its grant,
    /// and report the cycle's moves: the one advance routine behind
    /// [`Sim::step_resolved`] and [`Sim::step_granted`].
    #[inline]
    fn advance<F: FrozenQ + Copy>(
        &self,
        state: &mut SimState,
        movers: impl IntoIterator<Item = (MessageId, Option<ChannelId>)>,
        frozen: F,
        report: &mut StepReport,
    ) {
        report.moved = false;
        report.flits_moved = 0;
        report.delivered.clear();
        for (m, grant) in movers {
            if !state.is_delivered(m, self.length(m)) {
                self.advance_message(state, m, grant, frozen, report);
            }
        }
    }

    /// Move one message's flits for this cycle. `grant` is the channel
    /// its header may acquire (already arbitrated); `frozen` is the
    /// cycle's freeze view (see [`FrozenQ`]).
    #[inline]
    fn advance_message<F: FrozenQ>(
        &self,
        state: &mut SimState,
        m: MessageId,
        grant: Option<ChannelId>,
        frozen: F,
        report: &mut StepReport,
    ) {
        let mi = m.index();
        let path = &self.paths[mi];
        let length = self.lengths[mi];

        // Header injection: the worm does not exist in the network yet.
        if state.injected[mi] == 0 {
            if let Some(c) = grant {
                debug_assert_eq!(c, path[0]);
                debug_assert!(state.channels[c.index()].is_none());
                state.channels[c.index()] = Some(ChannelOcc {
                    msg: m,
                    lo: 0,
                    hi: 1,
                });
                state.injected[mi] = 1;
                state.worms[mi] = Worm { tail: 1, head: 1 };
                report.moved = true;
                report.flits_moved += 1;
                // A one-flit message may have just fully injected; it
                // still needs to traverse and be consumed, nothing more
                // to do this cycle.
            }
            return;
        }

        let worm = state.worms[mi];
        let head = self
            .head_index(state, m)
            // Injected and not delivered implies flits in the network.
            .expect("in-flight message owns no channel");

        // Process owned channels from head to tail so chained advance
        // sees whether the channel ahead freed a slot this cycle.
        let mut flits = 0;
        for i in worm.positions().rev() {
            let c = path[i];
            let occ = state.channels[c.index()].expect("owned channel");
            debug_assert_eq!(occ.msg, m);
            if occ.is_empty() {
                continue; // bubble: nothing to depart
            }
            if frozen.is_frozen(c.index()) {
                continue; // skewed-out queue: no transmission this cycle
            }
            let departing_flit = occ.lo;

            let moved = if i + 1 == path.len() {
                // Front flit sinks into the destination.
                state.consumed[mi] += 1;
                true
            } else if i == head {
                // Front flit is the header (consumed == 0 whenever the
                // head channel is not the last one).
                if let Some(t) = grant {
                    debug_assert_eq!(t, path[i + 1]);
                    debug_assert!(state.channels[t.index()].is_none());
                    state.channels[t.index()] = Some(ChannelOcc {
                        msg: m,
                        lo: departing_flit,
                        hi: departing_flit + 1,
                    });
                    state.worms[mi].head += 1;
                    true
                } else {
                    false
                }
            } else {
                // Data flit follows the worm into the next channel,
                // which this message already owns.
                let t = path[i + 1];
                let t_occ = state.channels[t.index()].expect("worm contiguity");
                debug_assert_eq!(t_occ.msg, m);
                if !frozen.is_frozen(t.index()) && t_occ.occupancy() < self.capacities[t.index()] {
                    debug_assert_eq!(t_occ.hi, departing_flit);
                    state.channels[t.index()] = Some(ChannelOcc {
                        msg: m,
                        lo: t_occ.lo,
                        hi: t_occ.hi + 1,
                    });
                    true
                } else {
                    false
                }
            };

            if moved {
                flits += 1;
                let mut occ = occ;
                occ.lo += 1;
                if occ.is_empty() && departing_flit == length - 1 {
                    // Tail passed: release the queue. The worm now
                    // starts one channel further on, or is gone once
                    // its tail flit has sunk.
                    state.channels[c.index()] = None;
                    let worm = &mut state.worms[mi];
                    debug_assert_eq!(worm.tail as usize, i + 1, "only the tail releases");
                    if i + 1 == path.len() {
                        *worm = Worm::default();
                    } else {
                        worm.tail += 1;
                    }
                } else {
                    state.channels[c.index()] = Some(occ);
                }
            }
        }

        // Inject the next flit from the source if the worm is still
        // partially at the source and the first channel has room now
        // (including room freed this very cycle by the loop above).
        if state.injected[mi] < length {
            let c0 = path[0];
            if let Some(occ) = state.channels[c0.index()] {
                if occ.msg == m
                    && !frozen.is_frozen(c0.index())
                    && occ.occupancy() < self.capacities[c0.index()]
                {
                    debug_assert_eq!(occ.hi, state.injected[mi]);
                    state.channels[c0.index()] = Some(ChannelOcc {
                        msg: m,
                        lo: occ.lo,
                        hi: occ.hi + 1,
                    });
                    state.injected[mi] += 1;
                    flits += 1;
                }
            }
        }
        if flits > 0 {
            report.moved = true;
            report.flits_moved += flits;
        }

        if state.is_delivered(m, length as usize) {
            report.delivered.push(m);
        }
    }

    /// Exact deadlock detection: find a cycle in the wait-for graph
    /// where each member's header needs a channel owned by the next
    /// member. Returns the cycle's members (sorted) if one exists.
    ///
    /// For oblivious routing the header's requirement never changes
    /// and an owner inside the cycle never releases, so such a cycle
    /// is a permanent deadlock — no timeout heuristics required.
    pub fn find_deadlock(&self, state: &SimState) -> Option<Vec<MessageId>> {
        self.find_deadlock_with(state, &mut StepScratch::new())
    }

    /// [`Sim::find_deadlock`] on `scratch`'s buffers: allocates only
    /// to return a cycle it found.
    pub fn find_deadlock_with(
        &self,
        state: &SimState,
        scratch: &mut StepScratch,
    ) -> Option<Vec<MessageId>> {
        // waits[m] = owner of the channel m's header needs, if owned
        // by a different message.
        let waits = &mut scratch.waits;
        waits.clear();
        waits.extend(self.messages().map(|m| {
            let occ = state.channels[self.header_target(state, m)?.index()]?;
            (occ.msg != m).then_some(occ.msg)
        }));
        deadlock_in_waits(waits, &mut scratch.color, &mut scratch.walk)
    }

    /// Debug invariant checker used by tests and property tests:
    /// flit conservation, window contiguity along each worm, capacity
    /// bounds, and the cached worm ends against a scan of the path.
    pub fn check_invariants(&self, state: &SimState) {
        for (ci, occ) in state.channels.iter().enumerate() {
            if let Some(occ) = occ {
                assert!(occ.lo <= occ.hi, "window order on channel {ci}");
                assert!(
                    occ.occupancy() <= self.capacities[ci],
                    "capacity exceeded on channel {ci}"
                );
            }
        }
        for m in self.messages() {
            let mi = m.index();
            let length = self.lengths[mi];
            let injected = state.injected[mi];
            let consumed = state.consumed[mi];
            assert!(consumed <= injected, "{m}: consumed beyond injected");
            assert!(injected <= length, "{m}: injected beyond length");
            let in_network: usize = self.paths[mi]
                .iter()
                .filter_map(|c| state.channels[c.index()])
                .filter(|occ| occ.msg == m)
                .map(|occ| occ.occupancy())
                .sum();
            assert_eq!(
                in_network,
                (injected - consumed) as usize,
                "{m}: flit conservation"
            );
            // The worm is one run of path positions, and its cached
            // ends are that run's first and last position.
            let positions: Vec<usize> = (0..self.paths[mi].len())
                .filter(|&i| {
                    matches!(state.channels[self.paths[mi][i].index()], Some(occ) if occ.msg == m)
                })
                .collect();
            let scanned = match (positions.first(), positions.last()) {
                (Some(&tail), Some(&head)) => {
                    assert_eq!(positions.len(), head - tail + 1, "{m}: worm has a gap");
                    Worm {
                        tail: tail as u32 + 1,
                        head: head as u32 + 1,
                    }
                }
                _ => Worm::default(),
            };
            assert_eq!(state.worms[mi], scanned, "{m}: cached worm ends");
            // Windows are contiguous along the path: walking from the
            // head toward the tail, each owned channel's hi equals the
            // previous channel's lo.
            let owned: Vec<ChannelOcc> = positions
                .iter()
                .filter_map(|&i| state.channels[self.paths[mi][i].index()])
                .collect();
            for w in owned.windows(2) {
                assert_eq!(w[1].hi, w[0].lo, "{m}: window contiguity");
            }
            if !owned.is_empty() {
                // `owned` is in path order: the first element is the
                // channel nearest the source (highest flit indices),
                // the last is nearest the destination (lowest indices).
                // Lead flit (lowest index) = front of the non-empty
                // channel furthest along the path; it must be the next
                // flit to consume.
                if let Some(front) = owned.iter().rev().find(|o| !o.is_empty()) {
                    assert_eq!(front.lo, consumed, "{m}: lead flit index");
                }
                // Trailing boundary: the source-nearest channel's hi is
                // the next flit to inject.
                let back = owned.first().expect("non-empty");
                assert_eq!(back.hi, injected, "{m}: trailing flit index");
            }
        }
    }
}

/// Cycle detection over an explicit wait-for function (`waits[m]` =
/// the message `m`'s header is blocked behind, if any), on reusable
/// `color` and `walk` buffers.
///
/// color: 0 = unvisited, 1 = on current walk, 2 = done.
fn deadlock_in_waits(
    waits: &[Option<MessageId>],
    color: &mut Vec<u8>,
    walk: &mut Vec<usize>,
) -> Option<Vec<MessageId>> {
    let n = waits.len();
    color.clear();
    color.resize(n, 0);
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        walk.clear();
        let mut v = start;
        loop {
            if color[v] == 1 {
                // Found a cycle: the portion of `walk` from v.
                let pos = walk.iter().position(|&x| x == v).expect("on walk");
                let mut cycle: Vec<MessageId> = walk[pos..]
                    .iter()
                    .map(|&x| MessageId::from_index(x))
                    .collect();
                cycle.sort_unstable();
                return Some(cycle);
            }
            if color[v] == 2 {
                break;
            }
            color[v] = 1;
            walk.push(v);
            match waits[v] {
                Some(next) => v = next.index(),
                None => break,
            }
        }
        for &x in walk.iter() {
            color[x] = 2;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormnet::topology::line;
    use wormnet::{Network, NodeId};
    use wormroute::algorithms::shortest_path_table;

    /// Drive a state with default decisions (inject everything ASAP,
    /// no stalls, lowest-id arbitration) until quiescent or budget.
    fn drain(sim: &Sim, state: &mut SimState, max: usize) -> usize {
        for cycle in 0..max {
            let d = Decisions {
                inject: sim.pending(state),
                ..Decisions::default()
            };
            let r = sim.step(state, &d);
            sim.check_invariants(state);
            if sim.all_delivered(state) {
                return cycle + 1;
            }
            if !r.moved && sim.pending(state).is_empty() {
                panic!("stuck without deadlock check at cycle {cycle}");
            }
        }
        panic!("not drained within {max} cycles");
    }

    fn line_sim(n: usize, specs: Vec<MessageSpec>) -> (Network, Sim) {
        let (net, _) = line(n);
        let table = shortest_path_table(&net).unwrap();
        let sim = Sim::new(&net, &table, specs, None).unwrap();
        (net, sim)
    }

    #[test]
    fn single_message_pipeline_latency() {
        // 4-node line, message of 3 flits over 3 hops, 1-flit buffers.
        // Header: 1 cycle to inject + 2 more hops; then flits drain.
        let (net, sim) = line_sim(
            4,
            vec![MessageSpec::new(
                NodeId::from_index(0),
                NodeId::from_index(3),
                3,
            )],
        );
        let _ = net;
        let mut state = sim.initial_state();
        let cycles = drain(&sim, &mut state, 50);
        // Exact pipeline: inject header c0@1, hop c1@2, hop c2@3,
        // sink@4, sink@5, sink@6 => 6 cycles.
        assert_eq!(cycles, 6);
        assert!(sim.all_delivered(&state));
        // Network empty at the end.
        assert!(state.channels.iter().all(Option::is_none));
    }

    #[test]
    fn one_flit_message() {
        let (_, sim) = line_sim(
            3,
            vec![MessageSpec::new(
                NodeId::from_index(0),
                NodeId::from_index(1),
                1,
            )],
        );
        let mut state = sim.initial_state();
        let cycles = drain(&sim, &mut state, 10);
        assert_eq!(cycles, 2); // inject, sink
    }

    #[test]
    fn long_message_throughput_is_one_flit_per_cycle() {
        let (_, sim) = line_sim(
            3,
            vec![MessageSpec::new(
                NodeId::from_index(0),
                NodeId::from_index(2),
                10,
            )],
        );
        let mut state = sim.initial_state();
        let cycles = drain(&sim, &mut state, 100);
        // Header: inject@1, hop@2, sink@3; one flit sinks per cycle
        // afterward: total = 3 + 9 = 12.
        assert_eq!(cycles, 12);
    }

    #[test]
    fn atomic_allocation_blocks_second_header() {
        // Two messages over the same single channel: second must wait
        // for the first's tail to pass.
        let (_, sim) = line_sim(
            2,
            vec![
                MessageSpec::new(NodeId::from_index(0), NodeId::from_index(1), 3),
                MessageSpec::new(NodeId::from_index(0), NodeId::from_index(1), 3),
            ],
        );
        let m0 = MessageId::from_index(0);
        let m1 = MessageId::from_index(1);
        let mut state = sim.initial_state();

        // Cycle 1: both request injection; m0 wins (lowest id).
        let d = Decisions {
            inject: vec![m0, m1],
            ..Decisions::default()
        };
        sim.step(&mut state, &d);
        assert!(state.is_started(m0));
        assert!(!state.is_started(m1));

        // m1 keeps requesting; it must not enter until m0's tail left.
        let mut entered_at = None;
        for cycle in 2..20 {
            let d = Decisions {
                inject: sim.pending(&state),
                ..Decisions::default()
            };
            sim.step(&mut state, &d);
            sim.check_invariants(&state);
            if state.is_started(m1) {
                entered_at = Some(cycle);
                break;
            }
        }
        // m0: inject h@1, flit2@2, flit3@3 — channel still owned until
        // tail departs (sinks) at cycle 4... tail sinks when lo reaches
        // flit 2: sinks at cycles 2,3,4 => channel freed end of cycle 4,
        // m1 enters at cycle 5.
        assert_eq!(entered_at, Some(5));
    }

    #[test]
    fn arbitration_winner_respected() {
        let (_, sim) = line_sim(
            2,
            vec![
                MessageSpec::new(NodeId::from_index(0), NodeId::from_index(1), 1),
                MessageSpec::new(NodeId::from_index(0), NodeId::from_index(1), 1),
            ],
        );
        let m1 = MessageId::from_index(1);
        let mut state = sim.initial_state();
        let first_chan = sim.path(m1)[0];
        let d = Decisions {
            inject: sim.pending(&state),
            winners: [(first_chan, m1)].into_iter().collect(),
            ..Decisions::default()
        };
        sim.step(&mut state, &d);
        assert!(state.is_started(m1));
        assert!(!state.is_started(MessageId::from_index(0)));
    }

    #[test]
    #[should_panic(expected = "does not request")]
    fn bogus_winner_panics() {
        let (_, sim) = line_sim(
            3,
            vec![
                MessageSpec::new(NodeId::from_index(0), NodeId::from_index(1), 1),
                MessageSpec::new(NodeId::from_index(0), NodeId::from_index(1), 1),
                MessageSpec::new(NodeId::from_index(1), NodeId::from_index(2), 1),
            ],
        );
        let mut state = sim.initial_state();
        let c0 = sim.path(MessageId::from_index(0))[0];
        let d = Decisions {
            inject: vec![MessageId::from_index(0), MessageId::from_index(1)],
            // m2 does not request c0.
            winners: [(c0, MessageId::from_index(2))].into_iter().collect(),
            ..Decisions::default()
        };
        sim.step(&mut state, &d);
    }

    #[test]
    fn stalled_message_does_not_move() {
        let (_, sim) = line_sim(
            3,
            vec![MessageSpec::new(
                NodeId::from_index(0),
                NodeId::from_index(2),
                2,
            )],
        );
        let m0 = MessageId::from_index(0);
        let mut state = sim.initial_state();
        let d = Decisions {
            inject: vec![m0],
            ..Decisions::default()
        };
        sim.step(&mut state, &d);
        let snapshot = state.clone();
        // Stall: nothing changes.
        let d = Decisions {
            stalls: vec![m0],
            ..Decisions::default()
        };
        let r = sim.step(&mut state, &d);
        assert!(!r.moved);
        assert_eq!(state, snapshot);
    }

    #[test]
    fn header_blocked_behind_owned_channel() {
        // m0 occupies the line; m1 from node 1 to 2 cannot acquire the
        // channel 1->2 while m0 owns it.
        let (_, sim) = line_sim(
            3,
            vec![
                MessageSpec::new(NodeId::from_index(0), NodeId::from_index(2), 5),
                MessageSpec::new(NodeId::from_index(1), NodeId::from_index(2), 1),
            ],
        );
        let m0 = MessageId::from_index(0);
        let m1 = MessageId::from_index(1);
        let mut state = sim.initial_state();
        // Let m0 get going for 3 cycles (occupying both channels).
        for _ in 0..3 {
            let d = Decisions {
                inject: vec![m0],
                ..Decisions::default()
            };
            sim.step(&mut state, &d);
        }
        assert_eq!(state.worms[m0.index()], Worm { tail: 1, head: 2 });
        // m1 requests injection into channel 1->2, which m0 owns: no
        // request is even generated (atomic allocation).
        let reqs = sim.header_requests(&state, &[m1], &[]);
        assert!(reqs.is_empty());
        // No deadlock: m0 is progressing.
        assert!(sim.find_deadlock(&state).is_none());
    }

    #[test]
    fn capacity_two_buffers_fill_under_backpressure() {
        // m1 owns channel 1->2; m0's header blocks in channel 0->1 and
        // its data flits pile up behind it to the queue depth.
        let (net, _) = line(3);
        let table = shortest_path_table(&net).unwrap();
        let sim = Sim::new(
            &net,
            &table,
            vec![
                MessageSpec::new(NodeId::from_index(0), NodeId::from_index(2), 6),
                MessageSpec::new(NodeId::from_index(1), NodeId::from_index(2), 6),
            ],
            Some(2),
        )
        .unwrap();
        let mut state = sim.initial_state();
        for _ in 0..4 {
            let d = Decisions {
                inject: sim.pending(&state),
                ..Decisions::default()
            };
            sim.step(&mut state, &d);
            sim.check_invariants(&state);
        }
        // m0's first channel holds header + one data flit: full at 2.
        let c0 = sim.path(MessageId::from_index(0))[0];
        let occ = state.channels[c0.index()].unwrap();
        assert_eq!(occ.msg, MessageId::from_index(0));
        assert_eq!(occ.occupancy(), 2);
        // And with depth 1 the same scenario caps at 1.
        let sim1 = Sim::new(
            &net,
            &table,
            vec![
                MessageSpec::new(NodeId::from_index(0), NodeId::from_index(2), 6),
                MessageSpec::new(NodeId::from_index(1), NodeId::from_index(2), 6),
            ],
            Some(1),
        )
        .unwrap();
        let mut s1 = sim1.initial_state();
        for _ in 0..4 {
            let d = Decisions {
                inject: sim1.pending(&s1),
                ..Decisions::default()
            };
            sim1.step(&mut s1, &d);
            sim1.check_invariants(&s1);
        }
        let occ1 = s1.channels[c0.index()].unwrap();
        assert_eq!(occ1.occupancy(), 1);
    }

    #[test]
    fn errors_on_bad_specs() {
        let (net, _) = line(3);
        let table = shortest_path_table(&net).unwrap();
        assert_eq!(
            Sim::new(
                &net,
                &table,
                vec![MessageSpec::new(
                    NodeId::from_index(0),
                    NodeId::from_index(1),
                    0
                )],
                None
            )
            .unwrap_err(),
            SimError::ZeroLength
        );
        let empty = TableRouting::new();
        assert!(matches!(
            Sim::new(
                &net,
                &empty,
                vec![MessageSpec::new(
                    NodeId::from_index(0),
                    NodeId::from_index(1),
                    1
                )],
                None
            ),
            Err(SimError::Unrouted(_, _))
        ));
    }

    #[test]
    fn frozen_channel_halts_transmission() {
        let (_, sim) = line_sim(
            3,
            vec![MessageSpec::new(
                NodeId::from_index(0),
                NodeId::from_index(2),
                3,
            )],
        );
        let m0 = MessageId::from_index(0);
        let mut state = sim.initial_state();
        // Inject the header.
        sim.step(
            &mut state,
            &Decisions {
                inject: vec![m0],
                ..Decisions::default()
            },
        );
        let c0 = sim.path(m0)[0];
        let snapshot = state.clone();
        // Freeze the header's channel: nothing of this worm moves out
        // of it, and no new flit enters it.
        let r = sim.step(
            &mut state,
            &Decisions {
                frozen: vec![c0],
                ..Decisions::default()
            },
        );
        assert!(!r.moved);
        assert_eq!(state, snapshot);
        // Unfrozen step proceeds normally.
        let r = sim.step(&mut state, &Decisions::default());
        assert!(r.moved);
        sim.check_invariants(&state);
    }

    #[test]
    fn frozen_channel_rejects_header_acquisition() {
        let (_, sim) = line_sim(
            2,
            vec![MessageSpec::new(
                NodeId::from_index(0),
                NodeId::from_index(1),
                1,
            )],
        );
        let m0 = MessageId::from_index(0);
        let c0 = sim.path(m0)[0];
        let mut state = sim.initial_state();
        // Injection attempt into a frozen first channel: no request.
        let frozen = sim.channel_mask(&[c0]);
        let mut scratch = StepScratch::new();
        let choice = StepChoice {
            inject: &[m0],
            frozen: &frozen,
            ..StepChoice::default()
        };
        sim.resolve_requests(&state, &choice, &mut scratch);
        assert!(scratch.requests().is_empty());
        let r = sim.step(
            &mut state,
            &Decisions {
                inject: vec![m0],
                frozen: vec![c0],
                ..Decisions::default()
            },
        );
        assert!(!r.moved);
        assert!(!state.is_started(m0));
    }

    #[test]
    fn frozen_target_blocks_data_follow_but_not_the_rest() {
        // Worm spanning two channels; freeze the front channel: the
        // front flit stops, the flit behind cannot enter it, but
        // injection into the (unfrozen) first channel still proceeds
        // when space permits.
        let (_, sim) = line_sim(
            4,
            vec![MessageSpec::new(
                NodeId::from_index(0),
                NodeId::from_index(3),
                5,
            )],
        );
        let m0 = MessageId::from_index(0);
        let mut state = sim.initial_state();
        for _ in 0..3 {
            sim.step(
                &mut state,
                &Decisions {
                    inject: vec![m0],
                    ..Decisions::default()
                },
            );
        }
        // Header now in path[2]; freeze it for a few cycles.
        let front = sim.path(m0)[2];
        let head_before = sim.head_index(&state, m0);
        for _ in 0..3 {
            sim.step(
                &mut state,
                &Decisions {
                    frozen: vec![front],
                    ..Decisions::default()
                },
            );
            sim.check_invariants(&state);
        }
        assert_eq!(sim.head_index(&state, m0), head_before, "header parked");
        // Flits piled up behind (path[0] and path[1] full at depth 1).
        let occ0 = state.channels[sim.path(m0)[0].index()].unwrap();
        let occ1 = state.channels[sim.path(m0)[1].index()].unwrap();
        assert_eq!(occ0.occupancy() + occ1.occupancy(), 2);
    }

    #[test]
    fn deadlock_detected_on_ring() {
        use wormnet::topology::ring_unidirectional;
        use wormroute::algorithms::clockwise_ring;
        // Classic: four 2-hop messages on a 4-ring, all injected.
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let specs: Vec<MessageSpec> = (0..4)
            .map(|i| MessageSpec::new(nodes[i], nodes[(i + 2) % 4], 4))
            .collect();
        let sim = Sim::new(&net, &table, specs, None).unwrap();
        let mut state = sim.initial_state();
        let mut deadlock = None;
        for _ in 0..50 {
            let d = Decisions {
                inject: sim.pending(&state),
                ..Decisions::default()
            };
            sim.step(&mut state, &d);
            sim.check_invariants(&state);
            if let Some(cycle) = sim.find_deadlock(&state) {
                deadlock = Some(cycle);
                break;
            }
        }
        let cycle = deadlock.expect("unrestricted ring must deadlock");
        assert_eq!(cycle.len(), 4);
    }

    #[test]
    fn no_false_deadlock_while_draining() {
        // A message whose header arrived but whose tail still spans
        // the network must not appear in any wait cycle.
        let (_, sim) = line_sim(
            4,
            vec![
                MessageSpec::new(NodeId::from_index(0), NodeId::from_index(3), 8),
                MessageSpec::new(NodeId::from_index(1), NodeId::from_index(3), 2),
            ],
        );
        let mut state = sim.initial_state();
        for _ in 0..30 {
            let d = Decisions {
                inject: sim.pending(&state),
                ..Decisions::default()
            };
            sim.step(&mut state, &d);
            assert!(sim.find_deadlock(&state).is_none());
            if sim.all_delivered(&state) {
                return;
            }
        }
        panic!("should drain");
    }
}
