//! Layer-synchronized parallel reachability search with work stealing.
//!
//! The sequential explorers in [`crate::explore`] walk the state space
//! depth-first from a single thread. This module provides the shared
//! parallel core used by [`explore_parallel`] (oblivious routing) and
//! [`crate::adaptive::explore_adaptive_parallel`]: a breadth-first
//! sweep where
//!
//! * each worker owns a frontier deque per layer parity and **steals**
//!   from the back of other workers' deques when its own runs dry;
//! * the visited set is **sharded** across mutex-striped hash maps
//!   keyed by the state's packed key, each entry holding a parent
//!   pointer (predecessor key + decision) for witness reconstruction;
//! * layers are separated by a [`Barrier`]; the barrier leader decides
//!   between continuing, deadlock, deadlock-freedom, and state-budget
//!   exhaustion.
//!
//! # Determinism
//!
//! The search result — including the *witness* — is identical for
//! every thread count:
//!
//! * a layer is always **completed** before the search stops, so the
//!   set of states discovered at each depth is schedule-independent;
//! * when several same-layer predecessors generate one state, the
//!   parent record is **min-merged**: the smallest `(parent key,
//!   decision)` pair wins, whatever the discovery order;
//! * among the deadlock states of the first layer containing any, the
//!   one with the lexicographically smallest key is chosen, and its
//!   parent chain is the witness — which is therefore also a
//!   *shortest* (fewest-cycles) witness.
//!
//! Early exit is cooperative: the first worker to discover a deadlock
//! sets a flag that stops everyone from growing the next frontier, the
//! current layer drains (cheap: insertions only), and the barrier
//! leader broadcasts the stop.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use wormnet::ChannelId;
use wormsim::{
    Decisions, PackedBuildHasher, PackedState, Sim, SimState, StateArena, StateCodec, StepScratch,
    StepTally,
};

use crate::canon::{CanonScratch, Canonicalizer};
use crate::explore::{key_words, SearchConfig};
use crate::options::{ChoiceBuf, Options};
use crate::verdict::{SearchMetrics, SearchResult, Verdict, Witness};

/// A state space the parallel engine can sweep: states, canonical
/// keys, decision-labelled successors, and the two terminal tests.
pub(crate) trait Space: Sync {
    /// A full state, cheap enough to clone along the frontier.
    type State: Clone + Send;
    /// Canonical dedup key; `Ord` breaks witness ties deterministically.
    type Key: Clone + Eq + Ord + Hash + Send;
    /// Edge label, recorded for witness reconstruction.
    type Decision: Clone + Ord + Send;
    /// Per-worker scratch (state arenas, canonicalization buffers).
    type Scratch: Send;

    /// Fresh scratch for one worker.
    fn scratch(&self) -> Self::Scratch;
    /// The root state.
    fn initial(&self) -> Self::State;
    /// Canonical key of a state.
    fn key(&self, state: &Self::State, scratch: &mut Self::Scratch) -> Self::Key;
    /// All decision-labelled successors worth exploring (appended to
    /// `out`, which arrives empty).
    fn successors(
        &self,
        state: &Self::State,
        out: &mut Vec<(Self::Decision, Self::State)>,
        scratch: &mut Self::Scratch,
    );
    /// Whether the state is a deadlock (search goal).
    fn is_deadlock(&self, state: &Self::State) -> bool;
    /// Whether the state is a success terminal (never expanded).
    fn is_terminal(&self, state: &Self::State) -> bool;
    /// Hand back a state that will never be used again, so the space
    /// can pool its buffers.
    fn recycle(&self, _state: Self::State, _scratch: &mut Self::Scratch) {}
    /// A worker is done: take back its scratch (the oblivious space
    /// publishes the `sim.*` counters the worker's steps summed).
    fn retire(&self, _scratch: Self::Scratch) {}
    /// Whether keys are symmetry-orbit representatives rather than
    /// exact encodings. Disables the same-layer parent min-merge: with
    /// orbit keys, a min-merged edge could splice together decisions
    /// taken from *different* orbit members, breaking witness replay.
    /// Each key's parent edge then stays the one recorded at first
    /// discovery — whose frontier state is exactly the state the
    /// decision was applied to, so the chain still replays exactly
    /// (but is schedule-dependent; verdicts and counts are not).
    fn canonicalized(&self) -> bool {
        false
    }
}

/// A per-worker lossy, direct-mapped membership cache fronting the
/// sharded visited set: a hit means the key is definitely visited, a
/// miss means nothing, and a colliding key simply overwrites its slot.
///
/// Entries carry the BFS depth of the visited-set record; a hit is
/// honoured only while draining a layer at or past that depth, i.e.
/// only for keys whose parent record can no longer be min-merged
/// (merging happens solely at `rec.depth == drain_depth + 1`). A valid
/// hit therefore skips exactly a `dedup_hits` shard probe — the shared
/// locks are never taken, and determinism is untouched.
struct LayerCache<K> {
    slots: Vec<Option<(K, u32)>>,
    mask: u64,
}

impl<K: Hash + Eq + Clone> LayerCache<K> {
    fn new(slot_count: usize) -> Self {
        let n = slot_count.next_power_of_two().max(64);
        LayerCache {
            slots: vec![None; n],
            mask: n as u64 - 1,
        }
    }

    #[inline]
    fn slot_of(&self, key: &K) -> usize {
        (PackedBuildHasher.hash_one(key) & self.mask) as usize
    }

    /// A hit proves the key sits in the visited set at a depth that is
    /// already min-merge-stable for the layer being drained.
    #[inline]
    fn hit(&self, key: &K, drain_depth: u32) -> bool {
        match &self.slots[self.slot_of(key)] {
            Some((k, depth)) => *depth <= drain_depth && k == key,
            None => false,
        }
    }

    #[inline]
    fn remember(&mut self, key: &K, depth: u32) {
        let slot = self.slot_of(key);
        self.slots[slot] = Some((key.clone(), depth));
    }
}

/// Slots per worker in the parallel engine's [`LayerCache`].
const WORKER_CACHE_SLOTS: usize = 1 << 14;

/// Engine-level verdict, before domain-specific witness decoration.
pub(crate) enum ParallelVerdict<D> {
    /// A deadlock is reachable via this decision schedule.
    Deadlock(Vec<D>),
    /// The whole space was swept without finding a deadlock.
    Free,
    /// `max_states` exceeded at a layer boundary.
    Inconclusive,
}

/// Verdict plus statistics from one parallel sweep.
pub(crate) struct ParallelOutcome<D> {
    pub verdict: ParallelVerdict<D>,
    pub states: usize,
    pub metrics: SearchMetrics,
}

/// Visited-set entry: BFS depth plus the min-merged parent edge.
struct ParentRec<K, D> {
    depth: u32,
    parent: Option<(K, D)>,
}

/// One visited-set shard: packed key → parent record.
type Shard<S> = HashMap<<S as Space>::Key, ParentRec<<S as Space>::Key, <S as Space>::Decision>>;

/// A worker's pair of frontier deques, indexed by layer parity.
type FrontierPair<S> = [Mutex<VecDeque<(<S as Space>::Key, <S as Space>::State)>>; 2];

/// Acquire a mutex, proceeding with the data even if the lock is
/// poisoned.
///
/// Every mutex here (frontier deques, visited-set shards, the goal
/// list) guards plain data with no invariant that spans a critical
/// section, so a panic in one worker cannot leave the protected value
/// torn. Recovering instead of unwrapping keeps the other workers from
/// dying of secondary `PoisonError` panics that would bury the
/// original panic; `std::thread::scope` still re-raises it on join.
fn lock_or_poisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn shard_of<K: Hash>(key: &K, mask: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) & mask
}

/// `0` means "use all available parallelism".
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

const RUNNING: usize = 0;
const FREE: usize = 1;
const DEADLOCK: usize = 2;
const INCONCLUSIVE: usize = 3;

/// Sweep `space` breadth-first with `threads` workers (0 = all cores),
/// giving up past `max_states` visited states.
pub(crate) fn search_parallel<S: Space>(
    space: &S,
    max_states: usize,
    threads: usize,
) -> ParallelOutcome<S::Decision> {
    let threads = resolve_threads(threads);
    let start = Instant::now();

    let initial = space.initial();
    if space.is_deadlock(&initial) {
        let mut metrics = SearchMetrics {
            elapsed: start.elapsed(),
            threads,
            steals: vec![0; threads],
            ..SearchMetrics::default()
        };
        metrics.finish(1);
        metrics.publish("search.parallel", 1);
        return ParallelOutcome {
            verdict: ParallelVerdict::Deadlock(Vec::new()),
            states: 1,
            metrics,
        };
    }

    let shard_mask = (threads * 8).next_power_of_two() - 1;
    let shards: Vec<Mutex<Shard<S>>> = (0..=shard_mask)
        .map(|_| Mutex::new(HashMap::new()))
        .collect();

    let root_key = {
        let mut root_scratch = space.scratch();
        space.key(&initial, &mut root_scratch)
    };
    lock_or_poisoned(&shards[shard_of(&root_key, shard_mask)]).insert(
        root_key.clone(),
        ParentRec {
            depth: 0,
            parent: None,
        },
    );

    // Two frontier deques per worker, indexed by layer parity: workers
    // drain parity `p` while filling parity `1 - p`.
    let frontiers: Vec<FrontierPair<S>> = (0..threads)
        .map(|_| [Mutex::new(VecDeque::new()), Mutex::new(VecDeque::new())])
        .collect();
    let root_terminal = space.is_terminal(&initial);
    if !root_terminal {
        lock_or_poisoned(&frontiers[0][0]).push_back((root_key, initial));
    }

    let stop = AtomicUsize::new(RUNNING);
    let goal_seen = AtomicBool::new(false);
    let goals: Mutex<Vec<S::Key>> = Mutex::new(Vec::new());
    let visited = AtomicUsize::new(1);
    let dedup_hits = AtomicU64::new(0);
    let dedup_lookups = AtomicU64::new(0);
    let steals: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let frontier_peak = AtomicUsize::new(usize::from(!root_terminal));
    let layers = AtomicUsize::new(0);
    let barrier = Barrier::new(threads);

    // Workers record into the caller's trace recorder, if it has one.
    let recorder = wormtrace::current();
    std::thread::scope(|scope| {
        for w in 0..threads {
            let recorder = recorder.clone();
            let (shards, frontiers, steals) = (&shards, &frontiers, &steals);
            let (stop, goal_seen, goals, visited) = (&stop, &goal_seen, &goals, &visited);
            let (dedup_hits, dedup_lookups) = (&dedup_hits, &dedup_lookups);
            let (frontier_peak, layers, barrier) = (&frontier_peak, &layers, &barrier);
            scope.spawn(move || {
                if let Some(recorder) = recorder {
                    wormtrace::install(recorder);
                }
                let mut parity = 0usize;
                let mut depth = 0u32;
                let mut succ: Vec<(S::Decision, S::State)> = Vec::new();
                let mut scratch = space.scratch();
                let mut cache: LayerCache<S::Key> = LayerCache::new(WORKER_CACHE_SLOTS);
                let min_merge = !space.canonicalized();
                loop {
                    // Drain the current layer: own deque from the
                    // front, then other workers' from the back.
                    loop {
                        let mut item = lock_or_poisoned(&frontiers[w][parity]).pop_front();
                        if item.is_none() {
                            for v in 1..threads {
                                let victim = (w + v) % threads;
                                item = lock_or_poisoned(&frontiers[victim][parity]).pop_back();
                                if item.is_some() {
                                    steals[w].fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                            }
                        }
                        let Some((key, state)) = item else { break };
                        cache.remember(&key, depth);
                        succ.clear();
                        space.successors(&state, &mut succ, &mut scratch);
                        space.recycle(state, &mut scratch);
                        for (decision, child) in succ.drain(..) {
                            let child_key = space.key(&child, &mut scratch);
                            dedup_lookups.fetch_add(1, Ordering::Relaxed);
                            // Cache hit ⇒ the key is visited at a
                            // min-merge-stable depth: skip the shard
                            // lock entirely. Counters match the probe
                            // the shard would have answered.
                            if cache.hit(&child_key, depth) {
                                dedup_hits.fetch_add(1, Ordering::Relaxed);
                                space.recycle(child, &mut scratch);
                                continue;
                            }
                            let mut map =
                                lock_or_poisoned(&shards[shard_of(&child_key, shard_mask)]);
                            match map.entry(child_key.clone()) {
                                Entry::Occupied(mut seen) => {
                                    dedup_hits.fetch_add(1, Ordering::Relaxed);
                                    let rec = seen.get_mut();
                                    let rec_depth = rec.depth;
                                    // Same-layer rediscovery: min-merge
                                    // the parent edge so the stored
                                    // chain is schedule-independent
                                    // (skipped under canonicalization —
                                    // see Space::canonicalized).
                                    if min_merge && rec.depth == depth + 1 {
                                        let candidate = (key.clone(), decision);
                                        if let Some(existing) = &rec.parent {
                                            if candidate < *existing {
                                                rec.parent = Some(candidate);
                                            }
                                        }
                                    }
                                    drop(map);
                                    cache.remember(&child_key, rec_depth);
                                    space.recycle(child, &mut scratch);
                                }
                                Entry::Vacant(slot) => {
                                    slot.insert(ParentRec {
                                        depth: depth + 1,
                                        parent: Some((key.clone(), decision)),
                                    });
                                    drop(map);
                                    cache.remember(&child_key, depth + 1);
                                    visited.fetch_add(1, Ordering::Relaxed);
                                    if space.is_deadlock(&child) {
                                        goal_seen.store(true, Ordering::Relaxed);
                                        lock_or_poisoned(goals).push(child_key);
                                        space.recycle(child, &mut scratch);
                                    } else if !space.is_terminal(&child)
                                        && !goal_seen.load(Ordering::Relaxed)
                                    {
                                        // The flag check is a pure
                                        // optimization: once a goal
                                        // exists the next layer will
                                        // never run, so growing it is
                                        // wasted work. Visited-set
                                        // insertion above still happens
                                        // for every child, keeping the
                                        // state count deterministic.
                                        lock_or_poisoned(&frontiers[w][1 - parity])
                                            .push_back((child_key, child));
                                    } else {
                                        space.recycle(child, &mut scratch);
                                    }
                                }
                            }
                        }
                    }
                    if barrier.wait().is_leader() {
                        let next_total: usize = frontiers
                            .iter()
                            .map(|f| lock_or_poisoned(&f[1 - parity]).len())
                            .sum();
                        frontier_peak.fetch_max(next_total, Ordering::Relaxed);
                        layers.fetch_add(1, Ordering::Relaxed);
                        let code = if goal_seen.load(Ordering::Relaxed) {
                            DEADLOCK
                        } else if visited.load(Ordering::Relaxed) > max_states {
                            INCONCLUSIVE
                        } else if next_total == 0 {
                            FREE
                        } else {
                            RUNNING
                        };
                        stop.store(code, Ordering::SeqCst);
                    }
                    barrier.wait();
                    if stop.load(Ordering::SeqCst) != RUNNING {
                        break;
                    }
                    parity = 1 - parity;
                    depth += 1;
                }
                space.retire(scratch);
                wormtrace::uninstall();
            });
        }
    });

    let states = visited.load(Ordering::Relaxed);
    let mut metrics = SearchMetrics {
        elapsed: start.elapsed(),
        frontier_peak: frontier_peak.load(Ordering::Relaxed),
        dedup_hits: dedup_hits.load(Ordering::Relaxed),
        dedup_lookups: dedup_lookups.load(Ordering::Relaxed),
        steals: steals.iter().map(|s| s.load(Ordering::Relaxed)).collect(),
        threads,
        layers: layers.load(Ordering::Relaxed),
        ..SearchMetrics::default()
    };
    metrics.finish(states);
    metrics.publish("search.parallel", states);

    let verdict = match stop.load(Ordering::SeqCst) {
        DEADLOCK => {
            let goal = goals
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .into_iter()
                .min()
                .expect("deadlock flagged, so a goal key was recorded");
            let maps: Vec<Shard<S>> = shards
                .into_iter()
                .map(|m| {
                    m.into_inner()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                })
                .collect();
            let mut decisions = Vec::new();
            let mut cursor = goal;
            loop {
                let rec = maps[shard_of(&cursor, shard_mask)]
                    .get(&cursor)
                    .expect("parent chain reaches the root");
                match &rec.parent {
                    Some((parent_key, decision)) => {
                        decisions.push(decision.clone());
                        cursor = parent_key.clone();
                    }
                    None => break,
                }
            }
            decisions.reverse();
            ParallelVerdict::Deadlock(decisions)
        }
        INCONCLUSIVE => ParallelVerdict::Inconclusive,
        FREE => ParallelVerdict::Free,
        code => unreachable!("workers exited while running ({code})"),
    };

    ParallelOutcome {
        verdict,
        states,
        metrics,
    }
}

/// The oblivious-routing search space: states are `(SimState, budget)`
/// pairs keyed by their bit-packed encoding.
struct ObliviousSpace<'a> {
    sim: &'a Sim,
    codec: StateCodec,
    budget: u32,
    dead: Vec<ChannelId>,
    /// `dead` as a per-channel mask.
    dead_mask: Vec<bool>,
    canon: Option<Arc<dyn Canonicalizer>>,
}

/// Per-worker buffers for [`ObliviousSpace`]: a state pool,
/// canonical-key scratch, the enumerator's and the stepping core's
/// buffers, and the worker's summed `sim.*` counters.
struct ObliviousScratch {
    arena: StateArena,
    canon: CanonScratch,
    options: Options,
    choice: ChoiceBuf,
    step: StepScratch,
    tally: StepTally,
}

impl Space for ObliviousSpace<'_> {
    type State = (SimState, u32);
    type Key = PackedState;
    type Decision = Decisions;
    type Scratch = ObliviousScratch;

    fn scratch(&self) -> ObliviousScratch {
        ObliviousScratch {
            arena: StateArena::new(),
            canon: CanonScratch::new(),
            options: Options::default(),
            choice: ChoiceBuf::default(),
            step: StepScratch::new(),
            tally: StepTally::default(),
        }
    }

    fn initial(&self) -> Self::State {
        (self.sim.initial_state(), self.budget)
    }

    fn key(&self, (state, budget): &Self::State, scratch: &mut ObliviousScratch) -> PackedState {
        PackedState::from_words(key_words(
            self.canon.as_deref(),
            &self.codec,
            state,
            *budget,
            &mut scratch.canon,
        ))
    }

    fn successors(
        &self,
        (state, budget): &Self::State,
        out: &mut Vec<(Decisions, Self::State)>,
        scratch: &mut ObliviousScratch,
    ) {
        let ObliviousScratch {
            arena,
            options,
            choice,
            step,
            tally,
            ..
        } = scratch;
        options.fill(self.sim, state, *budget, &self.dead_mask);
        for i in 0..options.len() {
            let mut next = arena.take_clone(state);
            let option = options.choice(i, choice, &self.dead_mask);
            tally.absorb(self.sim.step_with(&mut next, option, step));
            if !step.report().moved {
                // Pure self-loop (possibly burning stall budget):
                // always dominated, skip — mirrors the sequential DFS.
                arena.give(next);
                continue;
            }
            // The min-merge orders parent edges by `Decisions`, so each
            // successor carries today's decision value.
            let next_budget = *budget - options.stall_count(i);
            out.push((options.decisions(i, &self.dead), (next, next_budget)));
        }
    }

    fn is_deadlock(&self, (state, _): &Self::State) -> bool {
        self.sim.find_deadlock(state).is_some()
    }

    fn is_terminal(&self, (state, _): &Self::State) -> bool {
        self.sim.all_delivered(state)
    }

    fn recycle(&self, (state, _): Self::State, scratch: &mut ObliviousScratch) {
        scratch.arena.give(state);
    }

    fn retire(&self, scratch: ObliviousScratch) {
        scratch.tally.publish();
    }

    fn canonicalized(&self) -> bool {
        self.canon.is_some()
    }
}

/// Parallel equivalent of [`crate::explore`]: identical verdicts, a
/// shortest (and thread-count-independent) witness, and populated
/// [`SearchMetrics`].
///
/// `threads = 0` uses all available cores.
pub fn explore_parallel(sim: &Sim, config: &SearchConfig, threads: usize) -> SearchResult {
    let space = ObliviousSpace {
        sim,
        codec: StateCodec::new(sim, config.stall_budget),
        budget: config.stall_budget,
        dead: config.dead_channels.clone(),
        dead_mask: sim.channel_mask(&config.dead_channels),
        canon: config.canon.clone().filter(|c| !c.is_identity()),
    };
    let outcome = search_parallel(&space, config.max_states, threads);
    let verdict = match outcome.verdict {
        ParallelVerdict::Free => Verdict::DeadlockFree,
        ParallelVerdict::Inconclusive => Verdict::Inconclusive {
            states_visited: outcome.states,
        },
        ParallelVerdict::Deadlock(decisions) => {
            let mut state = sim.initial_state();
            for d in &decisions {
                sim.step(&mut state, d);
            }
            let members = sim
                .find_deadlock(&state)
                .expect("parallel witness replays to a deadlock");
            Verdict::DeadlockReachable(Witness { decisions, members })
        }
    };
    SearchResult::new(verdict, outcome.states).with_metrics(outcome.metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use crate::replay;
    use wormnet::topology::{line, ring_unidirectional};
    use wormnet::NodeId;
    use wormroute::algorithms::{clockwise_ring, shortest_path_table};
    use wormsim::MessageSpec;

    fn ring4() -> Sim {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let specs: Vec<MessageSpec> = (0..4)
            .map(|i| MessageSpec::new(nodes[i], nodes[(i + 2) % 4], 2))
            .collect();
        Sim::new(&net, &table, specs, None).unwrap()
    }

    #[test]
    fn parallel_finds_ring_deadlock() {
        let sim = ring4();
        let result = explore_parallel(&sim, &SearchConfig::default(), 4);
        let Verdict::DeadlockReachable(witness) = &result.verdict else {
            panic!("expected deadlock, got {:?}", result.verdict);
        };
        assert_eq!(witness.members.len(), 4);
        let members = replay(&sim, witness).expect("witness must deadlock");
        assert_eq!(&members, &witness.members);
        // BFS ⇒ shortest witness: on the 4-ring the deadlock closes in
        // one cycle (all four inject simultaneously).
        assert_eq!(witness.cycles(), 1);
        assert_eq!(result.metrics.threads, 4);
        assert_eq!(result.metrics.steals.len(), 4);
    }

    #[test]
    fn witness_is_thread_count_independent() {
        let sim = ring4();
        let config = SearchConfig::with_stalls(1);
        let reference = explore_parallel(&sim, &config, 1);
        let Verdict::DeadlockReachable(ref_witness) = &reference.verdict else {
            panic!("expected deadlock");
        };
        for threads in [2, 3, 4, 8] {
            let result = explore_parallel(&sim, &config, threads);
            let Verdict::DeadlockReachable(witness) = &result.verdict else {
                panic!("expected deadlock at {threads} threads");
            };
            assert_eq!(witness, ref_witness, "witness differs at {threads} threads");
            assert_eq!(result.states_explored, reference.states_explored);
        }
    }

    #[test]
    fn parallel_agrees_with_sequential_on_freedom() {
        let (net, _) = line(4);
        let table = shortest_path_table(&net).unwrap();
        let specs = vec![
            MessageSpec::new(NodeId::from_index(0), NodeId::from_index(3), 3),
            MessageSpec::new(NodeId::from_index(3), NodeId::from_index(0), 3),
            MessageSpec::new(NodeId::from_index(1), NodeId::from_index(3), 2),
        ];
        let sim = Sim::new(&net, &table, specs, None).unwrap();
        let seq = explore(&sim, &SearchConfig::default());
        let par = explore_parallel(&sim, &SearchConfig::default(), 4);
        assert!(par.verdict.is_free(), "{:?}", par.verdict);
        // Identical deduplicated reachable set ⇒ identical count.
        assert_eq!(par.states_explored, seq.states_explored);
        assert!(par.metrics.layers > 0);
        assert!(par.metrics.dedup_lookups > 0);
    }

    #[test]
    fn parallel_inconclusive_carries_count() {
        let sim = ring4();
        let config = SearchConfig {
            stall_budget: 1,
            max_states: 2,
            ..SearchConfig::default()
        };
        let result = explore_parallel(&sim, &config, 4);
        match result.verdict {
            Verdict::Inconclusive { states_visited } => {
                assert!(states_visited > 2);
                assert_eq!(states_visited, result.states_explored);
            }
            // The first BFS layer may already contain the deadlock;
            // layer completion means that wins over the state cap.
            ref v => assert!(v.is_deadlock(), "{v:?}"),
        }
    }

    #[test]
    fn zero_threads_means_all_cores() {
        let sim = ring4();
        let result = explore_parallel(&sim, &SearchConfig::default(), 0);
        assert!(result.verdict.is_deadlock());
        assert!(result.metrics.threads >= 1);
    }
}
