//! The host's current speed, read from a fixed reference workload, and
//! the factor that scales measured times to the reference host's
//! nominal speed.
//!
//! The reference host's speed drifts by up to 2× over seconds to
//! minutes while an ALU loop barely moves (README.md, "Steady timing").
//! Work like the program's (allocation, ordered and hashed maps, text
//! scanning, pointer-heavy graph walks) slows with it. This file holds
//! a small workload of exactly that kind. It is the benchmark's own
//! code, so a change to the program does not move it. Every timed
//! segment of a run (0.1–0.3 s of jobs, see `run_pass` in `main.rs`) is
//! bracketed by two samples of it, and the segment's times are scaled
//! by [`NOMINAL_MS`] over the mean of the two.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// One round of the reference workload on the reference host at its
/// usual speed, in milliseconds. Scaled times read as if measured at
/// this speed.
pub const NOMINAL_MS: f64 = 4.5;

/// Rounds per sample; a sample is their median.
const ROUNDS: usize = 5;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn ordered_map() {
    let mut x = 9;
    let mut map = BTreeMap::new();
    for i in 0..8_000u64 {
        map.insert(xorshift(&mut x) % 100_000, i);
    }
    let hits: u64 = (0..8_000)
        .filter_map(|_| map.get(&(xorshift(&mut x) % 100_000)))
        .sum();
    black_box(hits);
}

fn hashed_map() {
    let mut x = 11;
    let mut map: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..8_000u64 {
        map.insert(xorshift(&mut x) % 100_000, vec![i; 2]);
    }
    let hits: usize = (0..8_000)
        .filter_map(|_| map.get(&(xorshift(&mut x) % 100_000)))
        .map(Vec::len)
        .sum();
    black_box(hits);
}

fn text() {
    let mut x = 5;
    let mut out = String::new();
    for i in 0..3_000 {
        let _ = writeln!(
            out,
            "  channel c{i} -> n{} lanes {}",
            xorshift(&mut x) % 1_000,
            xorshift(&mut x) % 4
        );
    }
    let mut sum = 0u64;
    for token in out.split_whitespace() {
        sum += match token.strip_prefix('n') {
            Some(digits) => digits.parse().unwrap_or(0),
            None => token.len() as u64,
        };
    }
    black_box(sum);
}

fn graph_walk() {
    let n = 4_000;
    let mut x = 3;
    let adjacency: Vec<Vec<u32>> = (0..n)
        .map(|_| {
            (0..4)
                .map(|_| (xorshift(&mut x) % n as u64) as u32)
                .collect()
        })
        .collect();
    let mut seen = vec![false; n];
    let mut stack = Vec::new();
    let mut reached = 0;
    for root in 0..8 {
        stack.push(root);
        while let Some(v) = stack.pop() {
            if std::mem::replace(&mut seen[v as usize], true) {
                continue;
            }
            reached += 1;
            stack.extend(adjacency[v as usize].iter().filter(|w| !seen[**w as usize]));
        }
    }
    black_box(reached);
}

/// One reference sample: the median of [`ROUNDS`] rounds, in
/// milliseconds.
pub fn sample_ms() -> f64 {
    let mut rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            ordered_map();
            hashed_map();
            text();
            graph_walk();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds[ROUNDS / 2]
}

/// The reference samples of a run, taken between its timed segments.
pub struct Pace {
    last_ms: f64,
    pub samples_ms: Vec<f64>,
}

impl Pace {
    /// Take the first sample.
    pub fn start() -> Pace {
        let first = sample_ms();
        Pace {
            last_ms: first,
            samples_ms: vec![first],
        }
    }

    /// Take a sample. Returns the factor that scales the times measured
    /// since the previous sample to nominal speed: above 1 when the host
    /// ran fast, below 1 when it ran slow.
    pub fn resample(&mut self) -> f64 {
        let before = self.last_ms;
        self.last_ms = sample_ms();
        self.samples_ms.push(self.last_ms);
        2.0 * NOMINAL_MS / (before + self.last_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_is_a_positive_time() {
        assert!(sample_ms() > 0.0);
    }

    #[test]
    fn a_segment_is_scaled_by_the_mean_of_its_samples() {
        let mut pace = Pace::start();
        let scale = pace.resample();
        let [before, after] = pace.samples_ms[..] else {
            panic!("two samples expected")
        };
        assert!((scale * (before + after) / 2.0 - NOMINAL_MS).abs() < 1e-9);
    }
}
