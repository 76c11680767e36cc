//! Simulation statistics: per-message latency, throughput, channel
//! utilization.

use crate::message::MessageId;

/// Collected statistics for one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Total flit movements (injections + hops + consumptions).
    pub flit_moves: u64,
    /// Per-message injection cycle (header entered the network).
    pub injected_at: Vec<Option<u64>>,
    /// Per-message delivery cycle (tail consumed).
    pub delivered_at: Vec<Option<u64>>,
    /// Per-channel busy-cycle counts (cycles with at least one queued
    /// flit).
    pub channel_busy: Vec<u64>,
}

impl Stats {
    /// Create a collector for `messages` messages and `channels`
    /// channels.
    pub fn new(messages: usize, channels: usize) -> Self {
        Stats {
            cycles: 0,
            flit_moves: 0,
            injected_at: vec![None; messages],
            delivered_at: vec![None; messages],
            channel_busy: vec![0; channels],
        }
    }

    /// Latency of one message: injection-to-delivery, if delivered.
    pub fn latency(&self, m: MessageId) -> Option<u64> {
        match (self.injected_at[m.index()], self.delivered_at[m.index()]) {
            (Some(i), Some(d)) => Some(d - i),
            _ => None,
        }
    }

    /// Number of delivered messages.
    pub fn delivered_count(&self) -> usize {
        self.delivered_at.iter().filter(|d| d.is_some()).count()
    }

    /// Mean latency over delivered messages (`None` if none delivered).
    pub fn mean_latency(&self) -> Option<f64> {
        let lats: Vec<u64> = (0..self.injected_at.len())
            .filter_map(|i| self.latency(MessageId::from_index(i)))
            .collect();
        if lats.is_empty() {
            return None;
        }
        Some(lats.iter().sum::<u64>() as f64 / lats.len() as f64)
    }

    /// Maximum latency over delivered messages.
    pub fn max_latency(&self) -> Option<u64> {
        (0..self.injected_at.len())
            .filter_map(|i| self.latency(MessageId::from_index(i)))
            .max()
    }

    /// Aggregate throughput in flits per cycle.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.flit_moves as f64 / self.cycles as f64
    }

    /// Mean channel utilization in `[0, 1]`.
    pub fn mean_utilization(&self) -> f64 {
        if self.cycles == 0 || self.channel_busy.is_empty() {
            return 0.0;
        }
        let busy: u64 = self.channel_busy.iter().sum();
        busy as f64 / (self.cycles as f64 * self.channel_busy.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_and_counts() {
        let mut s = Stats::new(2, 3);
        s.injected_at[0] = Some(2);
        s.delivered_at[0] = Some(10);
        assert_eq!(s.latency(MessageId::from_index(0)), Some(8));
        assert_eq!(s.latency(MessageId::from_index(1)), None);
        assert_eq!(s.delivered_count(), 1);
        assert_eq!(s.mean_latency(), Some(8.0));
        assert_eq!(s.max_latency(), Some(8));
    }

    #[test]
    fn throughput_and_utilization() {
        let mut s = Stats::new(1, 2);
        s.cycles = 10;
        s.flit_moves = 25;
        s.channel_busy = vec![10, 5];
        assert!((s.throughput() - 2.5).abs() < 1e-9);
        assert!((s.mean_utilization() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = Stats::new(0, 0);
        assert_eq!(s.mean_latency(), None);
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(s.mean_utilization(), 0.0);
    }
}
