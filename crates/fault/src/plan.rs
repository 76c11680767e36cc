//! Fault plans: deterministic, replayable schedules of hardware
//! misbehaviour.
//!
//! A [`FaultPlan`] is a plain list of timestamped [`FaultEvent`]s —
//! no randomness, no hidden state. Randomized plans come from
//! [`FaultPlan::random`], which derives everything from an explicit
//! seed, so a plan is always reproducible from `(topology, seed,
//! parameters)` and a failing sweep can be replayed bit-for-bit.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use wormnet::{ChannelId, Network, NodeId};
use wormsim::MessageId;

/// One scheduled fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// `channel` fails at cycle `at`: from then on it neither
    /// transmits nor accepts flits and cannot be acquired, until a
    /// matching [`FaultEvent::ChannelUp`] (if any) revives it.
    ChannelDown {
        /// The failing channel.
        channel: ChannelId,
        /// Cycle the failure takes effect.
        at: u64,
    },
    /// `channel` recovers at cycle `at`. A revived channel resumes
    /// exactly where it stopped — flits parked in its queue were held,
    /// not lost (wormhole queues are stateful hardware buffers).
    ChannelUp {
        /// The recovering channel.
        channel: ChannelId,
        /// Cycle the recovery takes effect.
        at: u64,
    },
    /// Router `node` stalls for `cycles` cycles starting at `from`:
    /// every queue it hosts (channels whose destination it is) is
    /// frozen for the window, like a long clock-skew pause.
    RouterStall {
        /// The stalling router.
        node: NodeId,
        /// First stalled cycle.
        from: u64,
        /// Window length in cycles.
        cycles: u64,
    },
    /// A flit of `msg` is dropped on the wire at cycle `at` and must
    /// be retransmitted: the message loses one cycle of progress
    /// (modelled as a one-cycle stall — wormhole flow control is
    /// lossless end-to-end, so a drop costs time, not data).
    FlitDrop {
        /// The affected message.
        msg: MessageId,
        /// Cycle of the drop.
        at: u64,
    },
    /// A flit of `msg` is corrupted at cycle `at`. Corruption is
    /// *payload* damage: routing is unaffected (headers are assumed
    /// protected), so this is purely observational — the message is
    /// flagged and counted, and delivery semantics are unchanged.
    FlitCorrupt {
        /// The affected message.
        msg: MessageId,
        /// Cycle of the corruption.
        at: u64,
    },
    /// Injection jitter: `msg` may not start until `delay` cycles
    /// after its specified `inject_at` (source-side queueing noise).
    InjectDelay {
        /// The delayed message.
        msg: MessageId,
        /// Extra cycles past the spec's `inject_at`.
        delay: u64,
    },
}

impl FaultEvent {
    fn describe(&self) -> String {
        match self {
            FaultEvent::ChannelDown { channel, at } => {
                format!("c{} down @{at}", channel.index())
            }
            FaultEvent::ChannelUp { channel, at } => {
                format!("c{} up @{at}", channel.index())
            }
            FaultEvent::RouterStall { node, from, cycles } => {
                format!("n{} stall @{from}+{cycles}", node.index())
            }
            FaultEvent::FlitDrop { msg, at } => format!("m{} drop @{at}", msg.index()),
            FaultEvent::FlitCorrupt { msg, at } => {
                format!("m{} corrupt @{at}", msg.index())
            }
            FaultEvent::InjectDelay { msg, delay } => {
                format!("m{} jitter +{delay}", msg.index())
            }
        }
    }
}

/// A deterministic schedule of faults, built either explicitly or
/// from a seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: applying it is bit-identical to no fault layer
    /// at all (the conformance contract of `tests/fault_conformance.rs`).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Add an arbitrary event.
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Fail `channel` at cycle `at` (until a later
    /// [`FaultPlan::channel_up`], if any).
    pub fn channel_down(self, channel: ChannelId, at: u64) -> Self {
        self.with_event(FaultEvent::ChannelDown { channel, at })
    }

    /// Revive `channel` at cycle `at`.
    pub fn channel_up(self, channel: ChannelId, at: u64) -> Self {
        self.with_event(FaultEvent::ChannelUp { channel, at })
    }

    /// Fail `channel` during `[from, until)`: a transient outage.
    pub fn channel_outage(self, channel: ChannelId, from: u64, until: u64) -> Self {
        assert!(from < until, "outage window must be non-empty");
        self.channel_down(channel, from).channel_up(channel, until)
    }

    /// Stall router `node` for `cycles` cycles starting at `from`.
    pub fn router_stall(self, node: NodeId, from: u64, cycles: u64) -> Self {
        self.with_event(FaultEvent::RouterStall { node, from, cycles })
    }

    /// Drop a flit of `msg` at cycle `at` (costs one retransmission
    /// cycle).
    pub fn flit_drop(self, msg: MessageId, at: u64) -> Self {
        self.with_event(FaultEvent::FlitDrop { msg, at })
    }

    /// Corrupt a flit of `msg` at cycle `at` (observational only).
    pub fn flit_corrupt(self, msg: MessageId, at: u64) -> Self {
        self.with_event(FaultEvent::FlitCorrupt { msg, at })
    }

    /// Delay `msg`'s injection by `delay` cycles past its spec time.
    pub fn inject_delay(self, msg: MessageId, delay: u64) -> Self {
        self.with_event(FaultEvent::InjectDelay { msg, delay })
    }

    /// A seeded random plan: `outages` transient channel outages and
    /// `stalls` router-stall windows, all within `[0, horizon)`.
    /// Identical `(net, seed, outages, stalls, horizon)` always yields
    /// the identical plan.
    pub fn random(net: &Network, seed: u64, outages: usize, stalls: usize, horizon: u64) -> Self {
        assert!(horizon >= 2, "horizon too small for any outage window");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        for _ in 0..outages {
            let channel = ChannelId::from_index(rng.random_range(0..net.channel_count()));
            let from = rng.random_range(0..horizon - 1);
            let until = rng.random_range(from + 1..=horizon);
            plan = plan.channel_outage(channel, from, until);
        }
        for _ in 0..stalls {
            let node = NodeId::from_index(rng.random_range(0..net.node_count()));
            let from = rng.random_range(0..horizon);
            let cycles = rng.random_range(1..=4u64);
            plan = plan.router_stall(node, from, cycles);
        }
        plan
    }

    /// Channels that go down at some point and are **never** revived —
    /// the permanent topology damage a degraded-classification run
    /// should reason about. Sorted, deduplicated.
    pub fn permanent_down(&self) -> Vec<ChannelId> {
        let mut down: Vec<ChannelId> = self
            .events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::ChannelDown { channel, .. } => Some(*channel),
                _ => None,
            })
            .filter(|c| {
                !self
                    .events
                    .iter()
                    .any(|e| matches!(e, FaultEvent::ChannelUp { channel, .. } if channel == c))
            })
            .collect();
        down.sort_unstable();
        down.dedup();
        down
    }

    /// One-line human summary, e.g. `"3 events: c2 down @5; c2 up @9;
    /// n1 stall @3+2"`.
    pub fn describe(&self) -> String {
        if self.events.is_empty() {
            return "empty plan".to_string();
        }
        let parts: Vec<String> = self.events.iter().map(FaultEvent::describe).collect();
        format!("{} events: {}", self.events.len(), parts.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormnet::topology::ring_unidirectional;

    #[test]
    fn permanent_vs_transient_downs() {
        let c0 = ChannelId::from_index(0);
        let c1 = ChannelId::from_index(1);
        let plan = FaultPlan::new()
            .channel_outage(c0, 2, 6)
            .channel_down(c1, 3);
        assert_eq!(plan.permanent_down(), vec![c1]);
        assert_eq!(plan.len(), 3);
    }

    #[test]
    fn random_plans_are_reproducible_and_seed_sensitive() {
        let (net, _) = ring_unidirectional(6);
        let a = FaultPlan::random(&net, 0xC0FFEE, 3, 2, 40);
        let b = FaultPlan::random(&net, 0xC0FFEE, 3, 2, 40);
        let c = FaultPlan::random(&net, 0xBEEF, 3, 2, 40);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, c, "different seed, different plan");
        assert_eq!(a.len(), 3 * 2 + 2);
        assert!(a.permanent_down().is_empty(), "outages are transient");
    }

    #[test]
    fn describe_is_stable() {
        let plan = FaultPlan::new().channel_down(ChannelId::from_index(2), 5);
        assert_eq!(plan.describe(), "1 events: c2 down @5");
        assert_eq!(FaultPlan::new().describe(), "empty plan");
    }
}
