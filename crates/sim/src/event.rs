//! Event-driven simulation engine.
//!
//! The stepping engine ([`Sim::step`]) rescans every message and every
//! channel each cycle: `header_requests_frozen` walks all messages,
//! `advance_message` re-derives each worm's head/tail span by scanning
//! its path, the runner scans all channels for busy statistics, and
//! `find_deadlock` rebuilds the wait-for graph from scratch. That is
//! O(messages x path) per cycle regardless of how much actually moves,
//! which is why BENCH_sim.json collapses with topology size.
//!
//! [`EventCore`] is a discrete-event core that produces **bit-identical**
//! outcomes, final states, statistics, and `sim.*` trace counters while
//! doing work proportional to what moves:
//!
//! * a **timer wheel** (`BTreeMap` keyed by `inject_at`) releases
//!   pending messages at their earliest injection cycle;
//! * **struct-of-arrays caches** (`head`/`tail`/`target`/`waits`,
//!   mirroring the `SimState` SoA layout that `wormsim::packed` and
//!   `wormsim::arena` build on) remember each worm's span and header
//!   target so the per-message path scans disappear;
//! * a staged per-cycle pipeline — *process* (collect requests),
//!   *propagate* (arbitrate header grants), *transmit* (advance worms
//!   through the shared [`Sim::advance_message`]) — over explicit
//!   queues instead of full rescans;
//! * **parked sets**: a fully compacted worm whose header target is
//!   owned by another message cannot move until that channel is
//!   released, so it leaves the active set and is woken by the release
//!   event (the wake is exact, not heuristic — see `park` below);
//! * **incremental deadlock detection**: wait-for edges are maintained
//!   on acquisition/release events and the functional-graph walk (the
//!   exact one `find_deadlock` uses) runs only on cycles where an edge
//!   changed.
//!
//! The [`crate::hooks::DecisionHook`] seam is preserved exactly: the
//! hook sees the same tentative `inject`/`stalls`/`frozen` sets (all
//! released-but-pending messages, in id order) that the stepping
//! runner builds, so `wormfault` plans apply identically.
//!
//! The core steps every cycle it is given. Skipping idle cycles is the
//! run loop's job, shared with the stepping engine
//! ([`crate::runner::Runner`]): after a quiet cycle the loop jumps to
//! the next cycle at which an input can differ, and a hook bounds that
//! jump through [`crate::hooks::DecisionHook::quiet_until`], so a hook
//! still sees every cycle on which it may act. The core reports
//! whether each cycle was quiet; a quiet cycle leaves its caches a
//! fixed point too (worms that could not move stay inert or parked),
//! and its busy intervals accrue across the skipped cycles untouched.
//!
//! `tests/diff_sim.rs` holds the bit-identity contract against the
//! stepping oracle on random topologies and the paper's constructions.

use std::collections::BTreeMap;

use wormnet::ChannelId;

use crate::engine::{deadlock_in_waits, Decisions, NoFreeze, Sim, StepReport};
use crate::hooks::DecisionHook;
use crate::message::MessageId;
use crate::runner::{pick_winner, ArbitrationPolicy, StallPlan};
use crate::skew::SkewModel;
use crate::state::SimState;
use crate::stats::Stats;

/// Incremental state of the event engine. The authoritative dynamic
/// state stays in [`SimState`] (shared representation with the
/// stepping engine, so final-state comparisons are exact); everything
/// here is derived and maintained event-by-event.
pub(crate) struct EventCore {
    message_count: usize,
    /// Timer wheel: earliest-injection cycle -> messages released then
    /// (id order within a bucket).
    wheel: BTreeMap<u64, Vec<MessageId>>,
    /// Cached earliest wheel key, so idle cycles skip the map descent.
    next_wheel: Option<u64>,
    /// Released but not yet injected messages, id order. This is the
    /// tentative `Decisions::inject` the hook seam must see, so parked
    /// pending messages stay in it until they actually inject.
    released: Vec<MessageId>,
    /// In-flight, non-parked messages, id order.
    active: Vec<MessageId>,
    /// Cached worm span: furthest / lowest owned path index.
    head: Vec<usize>,
    tail: Vec<usize>,
    /// Cached header target (`Some` while the header is in the network
    /// and not on its final channel).
    target: Vec<Option<ChannelId>>,
    /// Per channel: in-flight messages whose header target is it.
    targeting: Vec<Vec<MessageId>>,
    /// Per channel: messages parked until it is released.
    parked: Vec<Vec<MessageId>>,
    /// waits[m] = owner of the channel m's header needs, if owned by a
    /// different message (the wait-for graph, maintained incrementally).
    waits: Vec<Option<MessageId>>,
    /// Any wait edge changed since the last deadlock walk.
    waits_dirty: bool,
    /// Messages whose wait edge changed since the last deadlock check
    /// (the only places a new cycle can run through).
    dl_changed: Vec<MessageId>,
    dl_changed_mark: Vec<bool>,
    /// Visit stamps for the incremental deadlock walk: a node stamped
    /// `>= base` this check is already known to terminate (earlier
    /// walk) or proves a loop (same walk). Monotone, so never cleared.
    dl_stamp: Vec<u64>,
    dl_stamp_next: u64,
    /// Result of the last deadlock walk (permanent once `Some`).
    deadlock: Option<Vec<MessageId>>,
    /// Per channel: released pending messages whose first path channel
    /// it is (the fast-path injection-candidate index).
    pending_bucket: Vec<Vec<MessageId>>,
    /// Channels that are unowned and have a non-empty pending bucket —
    /// exactly the channels pending messages can request this cycle.
    inj_ready: Vec<ChannelId>,
    inj_ready_pos: Vec<usize>,
    /// Channels that are unowned and have a non-empty targeting list —
    /// exactly the channels in-flight headers request this cycle. (A
    /// parked message never targets an unowned channel: the release
    /// that freed it woke the parker, so every member is active.)
    hdr_ready: Vec<ChannelId>,
    hdr_ready_pos: Vec<usize>,
    delivered_count: usize,
    /// Channels with at least one queued flit right now (for busy
    /// stats): a position-indexed swap list, so per-cycle accounting
    /// touches only busy channels instead of rescanning all of them.
    busy_list: Vec<usize>,
    busy_pos: Vec<usize>,
    /// Cycle from whose end the channel's current busy interval has
    /// been accruing (valid while the channel is in `busy_list`).
    /// Busy statistics are settled interval-at-a-time — on the
    /// transition out of busy and at run/step boundaries — so no
    /// per-cycle busy scan exists at all.
    busy_since: Vec<u64>,
    /// Busy toggles reported by this cycle's `advance_message` calls.
    busy_fx: Vec<(ChannelId, bool)>,
    /// Arbitration state, same semantics as the stepping runner's.
    waiting_since: Vec<Option<(ChannelId, u64)>>,
    last_winner: Vec<Option<MessageId>>,
    /// The tentative decisions of a cycle on the hook seam (or with
    /// stalls or freezes), reused across cycles.
    tentative: Decisions,
    // Reusable per-cycle scratch (cleared at the end of each step).
    frozen_mask: Vec<bool>,
    stall_mask: Vec<bool>,
    inject_seen: Vec<bool>,
    inject_marks: Vec<MessageId>,
    grant_of: Vec<Option<ChannelId>>,
    granted: Vec<MessageId>,
    granted_pending: Vec<MessageId>,
    /// Per-channel requester lists for this cycle, plus the list of
    /// channels that actually have one (so clearing is O(touched)).
    req_lists: Vec<Vec<MessageId>>,
    req_touched: Vec<ChannelId>,
    reqs_buf: Vec<MessageId>,
    scratch_active: Vec<MessageId>,
    retargeted: Vec<MessageId>,
    acquired: Vec<ChannelId>,
    releases_buf: Vec<ChannelId>,
    zero_moves: Vec<MessageId>,
    finished: Vec<MessageId>,
    deactivated: Vec<MessageId>,
    to_activate: Vec<MessageId>,
    affected: Vec<MessageId>,
    affected_mark: Vec<bool>,
    /// Per message: the last ungranted advance on a freeze-free cycle
    /// moved nothing, so until a grant arrives the worm provably
    /// cannot move and its advance call is skipped.
    inert: Vec<bool>,
    remove_mark: Vec<bool>,
    winners_scratch: Vec<(ChannelId, MessageId)>,
    report_buf: StepReport,
}

impl EventCore {
    /// Build the core for a fresh run of `sim`.
    pub(crate) fn new(sim: &Sim) -> Self {
        let mc = sim.message_count();
        let cc = sim.channel_count();
        let mut wheel: BTreeMap<u64, Vec<MessageId>> = BTreeMap::new();
        for m in sim.messages() {
            wheel.entry(sim.spec(m).inject_at).or_default().push(m);
        }
        let next_wheel = wheel.keys().next().copied();
        EventCore {
            message_count: mc,
            wheel,
            next_wheel,
            released: Vec::new(),
            active: Vec::new(),
            head: vec![0; mc],
            tail: vec![0; mc],
            target: vec![None; mc],
            targeting: vec![Vec::new(); cc],
            parked: vec![Vec::new(); cc],
            waits: vec![None; mc],
            waits_dirty: false,
            dl_changed: Vec::new(),
            dl_changed_mark: vec![false; mc],
            dl_stamp: vec![0; mc],
            dl_stamp_next: 1,
            deadlock: None,
            pending_bucket: vec![Vec::new(); cc],
            inj_ready: Vec::new(),
            inj_ready_pos: vec![usize::MAX; cc],
            hdr_ready: Vec::new(),
            hdr_ready_pos: vec![usize::MAX; cc],
            delivered_count: 0,
            busy_list: Vec::new(),
            busy_pos: vec![usize::MAX; cc],
            busy_since: vec![0; cc],
            busy_fx: Vec::new(),
            waiting_since: vec![None; mc],
            last_winner: vec![None; cc],
            tentative: Decisions::default(),
            frozen_mask: vec![false; cc],
            stall_mask: vec![false; mc],
            inject_seen: vec![false; mc],
            inject_marks: Vec::new(),
            grant_of: vec![None; mc],
            granted: Vec::new(),
            granted_pending: Vec::new(),
            req_lists: vec![Vec::new(); cc],
            req_touched: Vec::new(),
            reqs_buf: Vec::new(),
            scratch_active: Vec::new(),
            retargeted: Vec::new(),
            acquired: Vec::new(),
            releases_buf: Vec::new(),
            zero_moves: Vec::new(),
            finished: Vec::new(),
            deactivated: Vec::new(),
            to_activate: Vec::new(),
            affected: Vec::new(),
            affected_mark: vec![false; mc],
            inert: vec![false; mc],
            remove_mark: vec![false; mc],
            winners_scratch: Vec::new(),
            report_buf: StepReport::default(),
        }
    }

    /// How many messages have been delivered (O(1)).
    pub(crate) fn delivered_count(&self) -> usize {
        self.delivered_count
    }

    /// Deadlock check, equivalent to running the stepping walk on the
    /// current wait graph but allocation-free on the no-deadlock path.
    ///
    /// In a functional graph a *new* cycle must run through a node
    /// whose out-edge changed since the last check (unchanged edges
    /// formed no cycle then), and a wait cycle never dissolves (every
    /// member's header is blocked by the next member, so no member's
    /// channel is ever released). So it suffices to chase the chain
    /// from each changed node: revisiting a node stamped by the *same*
    /// walk means the walk looped (a cycle); reaching a node stamped
    /// by an *earlier* walk of the same check means that chain was
    /// already shown to terminate. The stamps make a whole check
    /// O(nodes newly visited). Only on a hit does the full canonical
    /// walk run — once per run at most, since its result is cached
    /// permanently.
    pub(crate) fn check_deadlock(&mut self) -> Option<Vec<MessageId>> {
        if self.waits_dirty {
            self.waits_dirty = false;
            let base = self.dl_stamp_next;
            let mut found = false;
            for idx in 0..self.dl_changed.len() {
                let u = self.dl_changed[idx].index();
                self.dl_changed_mark[u] = false;
                if found {
                    continue;
                }
                let walk = self.dl_stamp_next;
                self.dl_stamp_next += 1;
                let mut v = u;
                loop {
                    let s = self.dl_stamp[v];
                    if s >= base {
                        // Same walk: the chain revisited one of its
                        // own nodes, i.e. it entered a cycle. Earlier
                        // walk this check: that chain terminated.
                        found = s == walk;
                        break;
                    }
                    self.dl_stamp[v] = walk;
                    match self.waits[v] {
                        Some(next) => v = next.index(),
                        None => break,
                    }
                }
            }
            self.dl_changed.clear();
            if found {
                self.deadlock = deadlock_in_waits(&self.waits);
                debug_assert!(self.deadlock.is_some(), "chain found a phantom cycle");
            }
            debug_assert_eq!(
                self.deadlock,
                deadlock_in_waits(&self.waits),
                "incremental deadlock check diverged from the full walk"
            );
        }
        self.deadlock.clone()
    }

    fn set_busy(&mut self, ci: usize, want: bool, time: u64, stats: &mut Stats) {
        let pos = self.busy_pos[ci];
        if want && pos == usize::MAX {
            self.busy_pos[ci] = self.busy_list.len();
            self.busy_list.push(ci);
            self.busy_since[ci] = time;
        } else if !want && pos != usize::MAX {
            self.busy_list.swap_remove(pos);
            if pos < self.busy_list.len() {
                let moved = self.busy_list[pos];
                self.busy_pos[moved] = pos;
            }
            self.busy_pos[ci] = usize::MAX;
            stats.channel_busy[ci] += time - self.busy_since[ci];
        }
    }

    /// Settle every open busy interval up to `stats.cycles` (the end
    /// of the last completed cycle), leaving `channel_busy` exactly
    /// what the stepping runner's per-cycle occupancy scan would have
    /// accumulated. Idempotent; called at run exit and after every
    /// externally observed single step.
    pub(crate) fn settle_busy(&mut self, stats: &mut Stats) {
        let now = stats.cycles;
        for idx in 0..self.busy_list.len() {
            let ci = self.busy_list[idx];
            stats.channel_busy[ci] += now - self.busy_since[ci];
            self.busy_since[ci] = now;
        }
    }

    fn inj_ready_add(&mut self, c: ChannelId) {
        let ci = c.index();
        if self.inj_ready_pos[ci] == usize::MAX {
            self.inj_ready_pos[ci] = self.inj_ready.len();
            self.inj_ready.push(c);
        }
    }

    fn inj_ready_remove(&mut self, c: ChannelId) {
        let ci = c.index();
        let pos = self.inj_ready_pos[ci];
        if pos != usize::MAX {
            self.inj_ready.swap_remove(pos);
            if pos < self.inj_ready.len() {
                let moved = self.inj_ready[pos];
                self.inj_ready_pos[moved.index()] = pos;
            }
            self.inj_ready_pos[ci] = usize::MAX;
        }
    }

    fn hdr_ready_add(&mut self, c: ChannelId) {
        let ci = c.index();
        if self.hdr_ready_pos[ci] == usize::MAX {
            self.hdr_ready_pos[ci] = self.hdr_ready.len();
            self.hdr_ready.push(c);
        }
    }

    fn hdr_ready_remove(&mut self, c: ChannelId) {
        let ci = c.index();
        let pos = self.hdr_ready_pos[ci];
        if pos != usize::MAX {
            self.hdr_ready.swap_remove(pos);
            if pos < self.hdr_ready.len() {
                let moved = self.hdr_ready[pos];
                self.hdr_ready_pos[moved.index()] = pos;
            }
            self.hdr_ready_pos[ci] = usize::MAX;
        }
    }

    /// Arbitrate the requester group in `reqs_buf` for `chan`: update
    /// waiting ages, pick the winner, record the grant. Returns 1 if
    /// the channel was contested (the `sim.arb_conflicts` unit).
    fn arbitrate_group(
        &mut self,
        sim: &Sim,
        state: &SimState,
        policy: &ArbitrationPolicy,
        time: u64,
        chan: ChannelId,
    ) -> u64 {
        if self.reqs_buf.len() > 1 {
            self.reqs_buf.sort_unstable();
        }
        for k in 0..self.reqs_buf.len() {
            let m = self.reqs_buf[k];
            match self.waiting_since[m.index()] {
                Some((c, _)) if c == chan => {}
                _ => self.waiting_since[m.index()] = Some((chan, time)),
            }
        }
        let mut conflict = 0;
        let winner = if self.reqs_buf.len() == 1 {
            self.reqs_buf[0]
        } else {
            conflict = 1;
            let head = &self.head;
            let w = pick_winner(
                policy,
                sim,
                &self.waiting_since,
                &self.last_winner,
                time,
                chan,
                &self.reqs_buf,
                &mut |m| {
                    if state.injected[m.index()] == 0 {
                        None
                    } else {
                        Some(head[m.index()])
                    }
                },
            );
            self.winners_scratch.push((chan, w));
            w
        };
        self.grant_of[winner.index()] = Some(chan);
        self.granted.push(winner);
        if state.injected[winner.index()] == 0 {
            self.granted_pending.push(winner);
        }
        conflict
    }

    fn untarget(&mut self, m: MessageId, c: ChannelId) {
        let list = &mut self.targeting[c.index()];
        if let Some(pos) = list.iter().position(|&x| x == m) {
            list.swap_remove(pos);
            if list.is_empty() {
                self.hdr_ready_remove(c);
            }
        }
    }

    /// One cycle, bit-identical to the stepping runner's `step_inner`;
    /// whether it was quiet (no flit moved, no header request, no
    /// stalled message).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step(
        &mut self,
        sim: &Sim,
        state: &mut SimState,
        stats: &mut Stats,
        policy: &ArbitrationPolicy,
        stall_plan: &StallPlan,
        skew: Option<&SkewModel>,
        time: u64,
        mut hook: Option<&mut dyn DecisionHook>,
    ) -> bool {
        // Release newly injectable messages from the wheel, indexing
        // each under its first path channel. A message a hook already
        // injected ahead of its `inject_at` is skipped: the stepping
        // runner's `pending()` would exclude it from the tentative
        // inject list too.
        if self.next_wheel.is_some_and(|k| k <= time) {
            while let Some(entry) = self.wheel.first_entry() {
                if *entry.key() > time {
                    break;
                }
                for m in entry.remove() {
                    if state.injected[m.index()] != 0 {
                        continue;
                    }
                    self.released.push(m);
                    let c0 = sim.path(m)[0];
                    self.pending_bucket[c0.index()].push(m);
                    if state.channels[c0.index()].is_none() {
                        self.inj_ready_add(c0);
                    }
                }
            }
            self.next_wheel = self.wheel.keys().next().copied();
            self.released.sort_unstable();
        }

        let mut tentative = std::mem::take(&mut self.tentative);
        tentative.stalls.clear();
        tentative.stalls.extend(
            stall_plan
                .iter()
                .filter(|(_, cycles)| cycles.contains(&time))
                .map(|(&m, _)| m),
        );
        tentative.frozen.clear();
        if let Some(skew) = skew {
            skew.extend_frozen(time, &mut tentative.frozen);
        }
        // The hook seam and the stall/frozen masks only matter on
        // cycles where something can actually perturb the decisions;
        // on plain cycles the tentative sets are dropped unobserved,
        // so skipping their construction is invisible.
        let fast = hook.is_none() && tentative.stalls.is_empty() && tentative.frozen.is_empty();

        if fast {
            // -- Process stage (indexed): pending messages can only
            // request an unowned first channel, and `inj_ready` is
            // exactly the unowned channels with a non-empty bucket.
            for idx in 0..self.inj_ready.len() {
                let c0 = self.inj_ready[idx];
                debug_assert!(state.channels[c0.index()].is_none());
                debug_assert!(!self.pending_bucket[c0.index()].is_empty());
                debug_assert!(self.req_lists[c0.index()].is_empty());
                self.req_touched.push(c0);
                self.req_lists[c0.index()].extend_from_slice(&self.pending_bucket[c0.index()]);
            }
        } else {
            // Tentative decisions, exactly as the stepping runner
            // builds them: all released pending messages (id order),
            // plan stalls, skew freezes. The hook adjusts these before
            // any request or arbitration is derived.
            tentative.inject.clear();
            tentative.inject.extend_from_slice(&self.released);
            tentative.winners.clear();
            if let Some(h) = hook.as_deref_mut() {
                h.adjust(sim, state, time, &mut tentative);
            }

            for &c in &tentative.frozen {
                self.frozen_mask[c.index()] = true;
            }
            for &m in &tentative.stalls {
                // The stepping engine only does `stalls.contains(m)`,
                // so a hook naming an unknown id is tolerated there;
                // match that.
                if m.index() < self.message_count {
                    self.stall_mask[m.index()] = true;
                }
            }

            // -- Process stage: injection attempts from the adjusted
            // inject list.
            for &m in &tentative.inject {
                let mi = m.index();
                if mi >= self.message_count || state.injected[mi] != 0 || self.inject_seen[mi] {
                    continue;
                }
                self.inject_seen[mi] = true;
                self.inject_marks.push(m);
                if self.stall_mask[mi] {
                    continue;
                }
                let c0 = sim.path(m)[0];
                if state.channels[c0.index()].is_none() && !self.frozen_mask[c0.index()] {
                    if self.req_lists[c0.index()].is_empty() {
                        self.req_touched.push(c0);
                    }
                    self.req_lists[c0.index()].push(m);
                }
            }
        }
        let quiet = self.step_tail(
            sim,
            state,
            stats,
            policy,
            time,
            hook,
            &tentative.stalls,
            &tentative.frozen,
        );
        self.tentative = tentative;
        quiet
    }

    /// Request collection done (slow path also appends the in-flight
    /// requests here): arbitration, transmission, and bookkeeping —
    /// shared by the fast and hook-seam paths. Returns whether the
    /// cycle was quiet.
    #[allow(clippy::too_many_arguments)]
    fn step_tail(
        &mut self,
        sim: &Sim,
        state: &mut SimState,
        stats: &mut Stats,
        policy: &ArbitrationPolicy,
        time: u64,
        hook: Option<&mut dyn DecisionHook>,
        stalls: &[MessageId],
        frozen: &[ChannelId],
    ) -> bool {
        let no_stalls = stalls.is_empty();
        let unfrozen = frozen.is_empty();

        // -- Propagate stage: waiting ages, arbitration, grants.
        // In-flight header requests come straight from the `hdr_ready`
        // index (parked worms have an owned target and would generate
        // no request in the stepping engine either), so no per-cycle
        // scan of the active set happens. Channels are processed in
        // index order: grants, winner memory, and waiting ages are all
        // per-channel, so no cross-channel ordering is observable.
        // Within a channel the requesters are sorted id-ascending,
        // exactly the stepping engine's request lists.
        self.winners_scratch.clear();
        let mut conflicts = 0u64;
        self.granted.clear();
        self.granted_pending.clear();
        for h_idx in 0..self.hdr_ready.len() {
            let chan = self.hdr_ready[h_idx];
            let ci = chan.index();
            debug_assert!(state.channels[ci].is_none());
            debug_assert!(!self.targeting[ci].is_empty());
            if !unfrozen && self.frozen_mask[ci] {
                continue;
            }
            self.reqs_buf.clear();
            if no_stalls {
                self.reqs_buf.extend_from_slice(&self.targeting[ci]);
            } else {
                for &m in &self.targeting[ci] {
                    if !self.stall_mask[m.index()] {
                        self.reqs_buf.push(m);
                    }
                }
            }
            // Pending injections racing for the same first channel
            // join the group (drained here; the touched pass below
            // skips the emptied list).
            if !self.req_lists[ci].is_empty() {
                let pending = std::mem::take(&mut self.req_lists[ci]);
                self.reqs_buf.extend_from_slice(&pending);
                self.req_lists[ci] = pending;
                self.req_lists[ci].clear();
            }
            if self.reqs_buf.is_empty() {
                continue;
            }
            conflicts += self.arbitrate_group(sim, state, policy, time, chan);
        }
        for t_idx in 0..self.req_touched.len() {
            let chan = self.req_touched[t_idx];
            let ci = chan.index();
            if self.req_lists[ci].is_empty() {
                continue; // merged into a header group above
            }
            self.reqs_buf.clear();
            let pending = std::mem::take(&mut self.req_lists[ci]);
            self.reqs_buf.extend_from_slice(&pending);
            self.req_lists[ci] = pending;
            self.req_lists[ci].clear();
            conflicts += self.arbitrate_group(sim, state, policy, time, chan);
        }
        self.req_touched.clear();

        // -- Transmit stage: advance in-flight worms in id order, via
        // the same advance routine the stepping engine uses (fed the
        // cached head/tail span instead of a path scan).
        let mut report = std::mem::take(&mut self.report_buf);
        report.moved = false;
        report.flits_moved = 0;
        report.delivered.clear();
        self.retargeted.clear();
        self.acquired.clear();
        self.releases_buf.clear();
        self.zero_moves.clear();
        self.finished.clear();
        self.deactivated.clear();
        self.to_activate.clear();
        // (`active` itself is stable during this loop: additions and
        // removals are staged in `to_activate`/`finished`/`deactivated`
        // and applied below.)
        for idx in 0..self.active.len() {
            let m = self.active[idx];
            let mi = m.index();
            if !no_stalls && self.stall_mask[mi] {
                continue;
            }
            let grant = self.grant_of[mi];
            // A worm whose last ungranted advance (on a freeze-free
            // cycle) moved nothing cannot move now either: its own
            // channels' occupancy only changes through its own moves,
            // so the blocked shape is exactly as it was. Skipping the
            // advance changes no state and no report.
            if grant.is_none() && self.inert[mi] {
                continue;
            }
            let old_tail = self.tail[mi];
            let moves_before = report.flits_moved;
            let span = Some((self.head[mi], old_tail));
            let fx = if unfrozen {
                sim.advance_message(
                    state,
                    m,
                    grant,
                    NoFreeze,
                    span,
                    &mut report,
                    &mut self.busy_fx,
                )
            } else {
                sim.advance_message(
                    state,
                    m,
                    grant,
                    self.frozen_mask.as_slice(),
                    span,
                    &mut report,
                    &mut self.busy_fx,
                )
            };
            if fx.header_moved {
                self.head[mi] += 1;
                self.retargeted.push(m);
                self.acquired.push(sim.path(m)[self.head[mi]]);
            }
            if let Some(rel) = fx.released {
                self.tail[mi] = rel + 1;
                self.releases_buf.push(sim.path(m)[rel]);
            }
            if state.is_delivered(m, sim.length(m)) {
                self.delivered_count += 1;
                self.finished.push(m);
                debug_assert!(self.target[mi].is_none(), "{m}: delivered with a target");
            } else if report.flits_moved == moves_before {
                self.zero_moves.push(m);
                // Frozen channels can only block moves, never enable
                // them, so inertness proven on a freeze-free cycle
                // holds on any later ungranted cycle.
                self.inert[mi] = unfrozen && grant.is_none();
            } else {
                self.inert[mi] = false;
            }
        }
        // Granted injections (disjoint channels from every in-flight
        // advance, and a fresh worm can never deliver the same cycle,
        // so processing them after the actives preserves the stepping
        // engine's id-order `delivered` list).
        self.granted_pending.sort_unstable();
        for idx in 0..self.granted_pending.len() {
            let m = self.granted_pending[idx];
            let mi = m.index();
            let fx = sim.advance_message(
                state,
                m,
                self.grant_of[mi],
                self.frozen_mask.as_slice(),
                None,
                &mut report,
                &mut self.busy_fx,
            );
            debug_assert!(fx.started, "granted injection must start");
            self.head[mi] = 0;
            self.tail[mi] = 0;
            if let Ok(pos) = self.released.binary_search(&m) {
                self.released.remove(pos);
            }
            let b = &mut self.pending_bucket[sim.path(m)[0].index()];
            if let Some(pos) = b.iter().position(|&x| x == m) {
                b.swap_remove(pos);
            }
            self.retargeted.push(m);
            self.acquired.push(sim.path(m)[0]);
            self.to_activate.push(m);
        }

        // Apply the busy (occupancy 0 <-> nonzero) transitions the
        // advances just reported; each entry is a genuine toggle, so
        // the swap list ends the cycle matching the occupancy scan the
        // stepping runner performs.
        for idx in 0..self.busy_fx.len() {
            let (c, on) = self.busy_fx[idx];
            self.set_busy(c.index(), on, time, stats);
        }
        self.busy_fx.clear();

        // Injection-index maintenance: channels acquired this cycle
        // are no longer free; channels released this cycle re-expose
        // any pending messages indexed under them. (Within one cycle
        // the two sets are disjoint: an acquisition needs the channel
        // empty at the start of the cycle.)
        for idx in 0..self.acquired.len() {
            let c = self.acquired[idx];
            self.inj_ready_remove(c);
        }
        for idx in 0..self.releases_buf.len() {
            let c = self.releases_buf[idx];
            if !self.pending_bucket[c.index()].is_empty() {
                self.inj_ready_add(c);
            }
        }

        // Retarget: update header targets and the targeting index.
        for idx in 0..self.retargeted.len() {
            let m = self.retargeted[idx];
            let mi = m.index();
            if let Some(t_old) = self.target[mi] {
                self.untarget(m, t_old);
            }
            let path = sim.path(m);
            let h = self.head[mi];
            let t_new = (h + 1 < path.len()).then(|| path[h + 1]);
            self.target[mi] = t_new;
            if let Some(t) = t_new {
                self.targeting[t.index()].push(m);
                if state.channels[t.index()].is_none() {
                    self.hdr_ready_add(t);
                }
            }
        }
        // Header-request index maintenance, after the targeting lists
        // are current: acquired channels can no longer be requested;
        // released channels re-expose everything still targeting them
        // (including the parked worms woken below).
        for idx in 0..self.acquired.len() {
            let c = self.acquired[idx];
            self.hdr_ready_remove(c);
        }
        for idx in 0..self.releases_buf.len() {
            let c = self.releases_buf[idx];
            if !self.targeting[c.index()].is_empty() {
                self.hdr_ready_add(c);
            }
        }

        // Wait-for maintenance: an edge can only change for a message
        // whose target changed, or whose target channel was acquired
        // or released this cycle (ownership never changes owner->owner
        // within a cycle: acquisitions need start-of-cycle emptiness).
        self.affected.clear();
        for idx in 0..self.retargeted.len() {
            let m = self.retargeted[idx];
            if !self.affected_mark[m.index()] {
                self.affected_mark[m.index()] = true;
                self.affected.push(m);
            }
        }
        for list in [&self.acquired, &self.releases_buf] {
            for &c in list {
                for &m in &self.targeting[c.index()] {
                    if !self.affected_mark[m.index()] {
                        self.affected_mark[m.index()] = true;
                        self.affected.push(m);
                    }
                }
            }
        }
        for idx in 0..self.affected.len() {
            let m = self.affected[idx];
            let mi = m.index();
            self.affected_mark[mi] = false;
            let new_wait = match self.target[mi] {
                Some(t) => match state.channels[t.index()] {
                    Some(occ) if occ.msg != m => Some(occ.msg),
                    _ => None,
                },
                None => None,
            };
            if new_wait != self.waits[mi] {
                self.waits[mi] = new_wait;
                self.waits_dirty = true;
                if !self.dl_changed_mark[mi] {
                    self.dl_changed_mark[mi] = true;
                    self.dl_changed.push(m);
                }
            }
        }

        // Wake worms parked on channels released this cycle. (At the
        // start of this cycle those channels were still owned, so the
        // stepping engine would not have generated requests for these
        // messages either — they re-request next cycle.)
        for idx in 0..self.releases_buf.len() {
            let c = self.releases_buf[idx];
            let ci = c.index();
            while let Some(m) = self.parked[ci].pop() {
                self.to_activate.push(m);
            }
        }

        // Park: an unstalled worm with zero moves on a cycle with no
        // frozen channels is fully compacted behind an owned header
        // target; nothing about it can change until that channel is
        // released (space propagates only from the front flit, other
        // messages cannot touch its channels, and hooks only shrink
        // activity). Skipped conservatively on frozen cycles.
        if frozen.is_empty() {
            for idx in 0..self.zero_moves.len() {
                let m = self.zero_moves[idx];
                let mi = m.index();
                if self.stall_mask[mi] {
                    continue;
                }
                if self.waits[mi].is_some() {
                    let t = self.target[mi].expect("wait edge implies a header target");
                    self.parked[t.index()].push(m);
                    self.deactivated.push(m);
                }
            }
        }

        // Apply active-set mutations in one rebuild pass: drop
        // finished/parked worms while merging in the (small, sorted)
        // wake-ups, without re-sorting the whole list. Woken messages
        // were parked this cycle, so the two sets are disjoint.
        if !self.finished.is_empty() || !self.deactivated.is_empty() || !self.to_activate.is_empty()
        {
            for list in [&self.finished, &self.deactivated] {
                for &m in list {
                    self.remove_mark[m.index()] = true;
                }
            }
            self.to_activate.sort_unstable();
            self.scratch_active.clear();
            let marks = &self.remove_mark;
            let (a, b) = (&self.active, &self.to_activate);
            let mut j = 0;
            for &m in a {
                if marks[m.index()] {
                    continue;
                }
                while j < b.len() && b[j] < m {
                    self.scratch_active.push(b[j]);
                    j += 1;
                }
                self.scratch_active.push(m);
            }
            self.scratch_active.extend_from_slice(&b[j..]);
            std::mem::swap(&mut self.active, &mut self.scratch_active);
            for list in [&self.finished, &self.deactivated] {
                for &m in list {
                    self.remove_mark[m.index()] = false;
                }
            }
        }

        // Stats, trace counters, and policy state — identical to the
        // stepping runner's post-step bookkeeping.
        stats.cycles = time + 1;
        stats.flit_moves += report.flits_moved as u64;
        for &m in &self.granted_pending {
            stats.injected_at[m.index()] = Some(time + 1);
        }
        for &m in &report.delivered {
            stats.delivered_at[m.index()] = Some(time + 1);
        }
        // Only RoundRobin ever reads `last_winner`.
        if matches!(policy, ArbitrationPolicy::RoundRobin) {
            for &(chan, w) in &self.winners_scratch {
                self.last_winner[chan.index()] = Some(w);
            }
        }
        if wormtrace::enabled() {
            wormtrace::counter("sim.cycles", 1);
            wormtrace::counter("sim.flits_moved", report.flits_moved as u64);
            wormtrace::counter("sim.delivered", report.delivered.len() as u64);
            wormtrace::counter("sim.stall_injections", stalls.len() as u64);
            wormtrace::counter("sim.arb_conflicts", conflicts);
        }
        if let Some(h) = hook {
            h.observe(sim, state, time, &report);
        }
        let quiet = report.flits_moved == 0 && self.granted.is_empty() && stalls.is_empty();
        self.report_buf = report;

        // Clear the per-cycle scratch masks.
        for &c in frozen {
            self.frozen_mask[c.index()] = false;
        }
        for &m in stalls {
            if m.index() < self.message_count {
                self.stall_mask[m.index()] = false;
            }
        }
        for idx in 0..self.inject_marks.len() {
            let m = self.inject_marks[idx];
            self.inject_seen[m.index()] = false;
        }
        self.inject_marks.clear();
        for idx in 0..self.granted.len() {
            let m = self.granted[idx];
            self.grant_of[m.index()] = None;
        }
        quiet
    }
}

#[cfg(test)]
mod tests {
    use crate::message::MessageSpec;
    use crate::runner::{ArbitrationPolicy, EngineKind, Outcome, Runner, StallPlan};
    use crate::skew::SkewModel;
    use crate::Sim;
    use wormnet::topology::{line, ring_unidirectional};
    use wormnet::NodeId;
    use wormroute::algorithms::{clockwise_ring, shortest_path_table};

    fn both(sim: &Sim, policy: ArbitrationPolicy, max: u64) -> (Runner<'_>, Runner<'_>) {
        let mut a = Runner::new(sim, policy.clone());
        let mut b = Runner::new(sim, policy).with_engine(EngineKind::Event);
        let oa = a.run(max);
        let ob = b.run(max);
        assert_eq!(oa, ob, "outcome diverged");
        assert_eq!(a.state(), b.state(), "state diverged");
        assert_eq!(a.time(), b.time(), "time diverged");
        assert_eq!(a.stats(), b.stats(), "stats diverged");
        (a, b)
    }

    #[test]
    fn line_delivery_matches_oracle() {
        let (net, _) = line(4);
        let table = shortest_path_table(&net).unwrap();
        let sim = Sim::new(
            &net,
            &table,
            vec![
                MessageSpec::new(NodeId::from_index(0), NodeId::from_index(3), 4),
                MessageSpec::new(NodeId::from_index(3), NodeId::from_index(0), 4).at(2),
            ],
            None,
        )
        .unwrap();
        both(&sim, ArbitrationPolicy::LowestId, 100);
    }

    #[test]
    fn contended_channel_matches_oracle_under_every_policy() {
        let (net, _) = line(3);
        let table = shortest_path_table(&net).unwrap();
        let sim = Sim::new(
            &net,
            &table,
            (0..5)
                .map(|i| {
                    MessageSpec::new(NodeId::from_index(0), NodeId::from_index(2), 3).at(i / 2)
                })
                .collect(),
            Some(1),
        )
        .unwrap();
        for policy in [
            ArbitrationPolicy::LowestId,
            ArbitrationPolicy::RoundRobin,
            ArbitrationPolicy::OldestFirst,
            ArbitrationPolicy::Adversarial { favored: vec![] },
        ] {
            both(&sim, policy, 500);
        }
    }

    #[test]
    fn ring_deadlock_matches_oracle() {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let specs: Vec<MessageSpec> = (0..4)
            .map(|i| MessageSpec::new(nodes[i], nodes[(i + 2) % 4], 4))
            .collect();
        let sim = Sim::new(&net, &table, specs, None).unwrap();
        let (a, _) = both(
            &sim,
            ArbitrationPolicy::Adversarial { favored: vec![] },
            1000,
        );
        assert!(matches!(a.stats().delivered_count(), 0));
    }

    #[test]
    fn far_future_release_fast_forwards_identically() {
        let (net, _) = line(3);
        let table = shortest_path_table(&net).unwrap();
        let sim = Sim::new(
            &net,
            &table,
            vec![
                MessageSpec::new(NodeId::from_index(0), NodeId::from_index(2), 2).at(0),
                MessageSpec::new(NodeId::from_index(0), NodeId::from_index(2), 2).at(400),
            ],
            None,
        )
        .unwrap();
        let (a, _) = both(&sim, ArbitrationPolicy::OldestFirst, 10_000);
        assert!(matches!(a.stats().delivered_count(), 2));
    }

    #[test]
    fn timeout_budget_matches_oracle() {
        let (net, _) = line(4);
        let table = shortest_path_table(&net).unwrap();
        let sim = Sim::new(
            &net,
            &table,
            vec![MessageSpec::new(
                NodeId::from_index(0),
                NodeId::from_index(3),
                10,
            )],
            None,
        )
        .unwrap();
        let (a, _) = both(&sim, ArbitrationPolicy::LowestId, 3);
        assert_eq!(a.time(), 3);
    }

    #[test]
    fn stall_plan_and_skew_match_oracle() {
        let (net, nodes) = line(4);
        let table = shortest_path_table(&net).unwrap();
        let sim = Sim::new(
            &net,
            &table,
            vec![
                MessageSpec::new(NodeId::from_index(0), NodeId::from_index(3), 3),
                MessageSpec::new(NodeId::from_index(1), NodeId::from_index(3), 2).at(1),
            ],
            Some(1),
        )
        .unwrap();
        let mut plan = StallPlan::new();
        plan.insert(crate::MessageId::from_index(0), vec![1, 2, 5]);
        let skew = SkewModel::none(&net).with_pause(nodes[2], 4, 1);

        let mut a = Runner::new(&sim, ArbitrationPolicy::OldestFirst)
            .with_stalls(plan.clone())
            .with_skew(skew.clone());
        let mut b = Runner::new(&sim, ArbitrationPolicy::OldestFirst)
            .with_stalls(plan)
            .with_skew(skew)
            .with_engine(EngineKind::Event);
        let oa = a.run(200);
        let ob = b.run(200);
        assert_eq!(oa, ob);
        assert!(matches!(oa, Outcome::Delivered { .. }));
        assert_eq!(a.state(), b.state());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn lockstep_states_match_every_cycle() {
        let (net, _) = line(4);
        let table = shortest_path_table(&net).unwrap();
        let sim = Sim::new(
            &net,
            &table,
            vec![
                MessageSpec::new(NodeId::from_index(0), NodeId::from_index(3), 5),
                MessageSpec::new(NodeId::from_index(1), NodeId::from_index(3), 2).at(1),
                MessageSpec::new(NodeId::from_index(0), NodeId::from_index(2), 3).at(3),
            ],
            Some(1),
        )
        .unwrap();
        let mut a = Runner::new(&sim, ArbitrationPolicy::OldestFirst);
        let mut b =
            Runner::new(&sim, ArbitrationPolicy::OldestFirst).with_engine(EngineKind::Event);
        for cycle in 0..60 {
            a.step();
            b.step();
            assert_eq!(a.state(), b.state(), "state diverged at cycle {cycle}");
            assert_eq!(a.stats(), b.stats(), "stats diverged at cycle {cycle}");
        }
    }
}
