//! Bit-packed canonical encoding of [`SimState`] for search memoization.
//!
//! The reachability search memoizes every visited `(state, budget)`
//! pair, so the key encoding dominates both the memory footprint and
//! the hash cost of a run. A [`StateCodec`] derives minimal field
//! widths once per scenario — ⌈log₂⌉ of each field's value count — and
//! packs the configuration message by message into a handful of `u64`
//! words:
//!
//! * the remaining stall budget;
//! * then, per message, its `consumed` count, its worm's tail and head
//!   (path positions plus one, `0` for no worm), and one occupancy
//!   field per position of its path, zero outside the worm.
//!
//! Packing reads only the channels each worm occupies, found through
//! the state's cached worm ends, never the rest of the network. The
//! key is lossless: a worm is one run of path positions, its head
//! channel's window starts at the next flit to consume and each channel
//! behind starts where the one ahead ends, and `injected` is `consumed`
//! plus the occupancies, so [`StateCodec::unpack`] rebuilds the full
//! state.
//!
//! Words per key at queue depth 1, this layout against the
//! channel-major one it replaced (an owner, `lo` and `hi` field per
//! channel on some path, then `injected` and `consumed` per message):
//!
//! | construction | channel-major | message-major |
//! |---|---:|---:|
//! | Figure 1 | 4 | 2 |
//! | Figure 2 | 2 | 1 |
//! | Figure 3 (a)–(f) | 4, 5, 4, 5, 3, 5 | 1, 2, 2, 2, 1, 2 |
//! | `G(1)`–`G(5)` | 5, 6, 6, 7, 10 | 2 each |
//!
//! (The same at every stall budget the searches use: the budget field
//! is at most three bits.)
//!
//! The searches never build a key value: they probe a flat visited set
//! with the words [`StateCodec::pack_words`] writes into a reused
//! buffer, hashed by [`hash_words`].

use crate::engine::Sim;
use crate::state::{ChannelOcc, SimState, Worm};
use crate::MessageId;

/// Bits needed to distinguish `values` distinct values.
fn bits_for(values: u64) -> u32 {
    if values <= 1 {
        0
    } else {
        64 - (values - 1).leading_zeros()
    }
}

/// OR the `bits`-wide `value` into `words` at bit offset `at`
/// (LSB-first; the field may straddle two words). The words must be
/// zero there beforehand.
#[inline]
fn put(words: &mut [u64], at: usize, value: u64, bits: u32) {
    debug_assert!(bits == 64 || value < (1u64 << bits));
    if bits == 0 {
        return;
    }
    let (word, shift) = (at / 64, (at % 64) as u32);
    words[word] |= value << shift;
    if shift + bits > 64 {
        words[word + 1] |= value >> (64 - shift);
    }
}

/// The `bits`-wide field at bit offset `at` of `words`.
#[inline]
fn get(words: &[u64], at: usize, bits: u32) -> u64 {
    if bits == 0 {
        return 0;
    }
    let (word, shift) = (at / 64, (at % 64) as u32);
    let mut value = words[word] >> shift;
    if shift + bits > 64 {
        value |= words[word + 1] << (64 - shift);
    }
    if bits == 64 {
        value
    } else {
        value & ((1u64 << bits) - 1)
    }
}

/// Where one message's fields sit in a key.
#[derive(Clone, Debug)]
struct Layout {
    /// The message's path, as channel indices.
    path: Vec<u32>,
    /// Bit offset of its `consumed` field; the tail and head fields
    /// follow it.
    at: usize,
    consumed_bits: u32,
    /// Width of the tail and head fields.
    end_bits: u32,
    /// Bit offset of the occupancy field of path position 0.
    occ_at: usize,
}

/// Field-width plan for packing one scenario's states.
///
/// Built once per search from the [`Sim`] (and the maximum stall
/// budget that will ever be encoded); [`StateCodec::pack_words`] and
/// [`StateCodec::unpack`] then convert states losslessly.
#[derive(Clone, Debug)]
pub struct StateCodec {
    layouts: Vec<Layout>,
    channel_count: usize,
    /// Width of every occupancy field.
    occ_bits: u32,
    budget_bits: u32,
    words: usize,
}

impl StateCodec {
    /// Derive the packing plan for `sim`, with budgets up to
    /// `max_budget` encodable.
    pub fn new(sim: &Sim, max_budget: u32) -> Self {
        // A queue holds at most its capacity, and a header always fits.
        let max_capacity = sim
            .messages()
            .flat_map(|m| sim.path(m).iter().map(|&c| sim.capacity(c)))
            .max()
            .unwrap_or(0)
            .max(1);
        let occ_bits = bits_for(max_capacity as u64 + 1);
        let budget_bits = bits_for(max_budget as u64 + 1);
        let mut at = budget_bits as usize;
        let layouts: Vec<Layout> = sim
            .messages()
            .map(|m| {
                let path: Vec<u32> = sim.path(m).iter().map(|c| c.index() as u32).collect();
                let consumed_bits = bits_for(sim.length(m) as u64 + 1);
                let end_bits = bits_for(path.len() as u64 + 1);
                assert!(
                    consumed_bits + 2 * end_bits <= 64,
                    "{m}: the path is too long to pack"
                );
                let occ_at = at + (consumed_bits + 2 * end_bits) as usize;
                let layout = Layout {
                    at,
                    consumed_bits,
                    end_bits,
                    occ_at,
                    path,
                };
                at = occ_at + layout.path.len() * occ_bits as usize;
                layout
            })
            .collect();
        StateCodec {
            layouts,
            channel_count: sim.channel_count(),
            occ_bits,
            budget_bits,
            words: at.div_ceil(64).max(1),
        }
    }

    /// Words per packed key for this scenario.
    pub fn packed_words(&self) -> usize {
        self.words
    }

    /// Pack `(state, budget)` into its canonical key words, written
    /// into `buf` (cleared and refilled, so a caller packing millions
    /// of states reuses one allocation) — what a visited set probes
    /// with.
    ///
    /// A message's `consumed`, tail and head fields are written as one
    /// value of their summed width; the layout is LSB-first, so these
    /// are the bits three separate fields would take. Occupancy fields
    /// are written only for the worm's positions: the rest stay zero.
    pub fn pack_words(&self, state: &SimState, budget: u32, buf: &mut Vec<u64>) {
        buf.clear();
        buf.resize(self.words, 0);
        put(buf, 0, budget as u64, self.budget_bits);
        for (mi, layout) in self.layouts.iter().enumerate() {
            let worm = state.worms[mi];
            let (cb, eb) = (layout.consumed_bits, layout.end_bits);
            let ends = state.consumed[mi] as u64
                | (worm.tail as u64) << cb
                | (worm.head as u64) << (cb + eb);
            put(buf, layout.at, ends, cb + 2 * eb);
            for p in worm.positions() {
                let occ =
                    state.channels[layout.path[p] as usize].expect("a worm owns its channels");
                let at = layout.occ_at + p * self.occ_bits as usize;
                put(buf, at, occ.occupancy() as u64, self.occ_bits);
            }
        }
    }

    /// Invert [`StateCodec::pack_words`]: reconstruct the state and
    /// budget from key `words`.
    ///
    /// Each worm is rebuilt from its head: the head channel's window
    /// starts at the next flit to consume, each channel behind starts
    /// where the one ahead ends, and the source-nearest window's end is
    /// the next flit to inject.
    pub fn unpack(&self, words: &[u64]) -> (SimState, u32) {
        let budget = get(words, 0, self.budget_bits) as u32;
        let mut state = SimState::new(self.channel_count, self.layouts.len());
        for (mi, layout) in self.layouts.iter().enumerate() {
            let msg = MessageId::from_index(mi);
            let (cb, eb) = (layout.consumed_bits, layout.end_bits);
            let consumed = get(words, layout.at, cb) as u16;
            let worm = Worm {
                tail: get(words, layout.at + cb as usize, eb) as u32,
                head: get(words, layout.at + (cb + eb) as usize, eb) as u32,
            };
            let mut lo = consumed;
            for p in worm.positions().rev() {
                let at = layout.occ_at + p * self.occ_bits as usize;
                let hi = lo + get(words, at, self.occ_bits) as u16;
                state.channels[layout.path[p] as usize] = Some(ChannelOcc { msg, lo, hi });
                lo = hi;
            }
            state.consumed[mi] = consumed;
            state.injected[mi] = lo;
            state.worms[mi] = worm;
        }
        (state, budget)
    }
}

/// Multiplier from the Firefox/rustc "fx" hash: a single odd constant
/// with well-mixed bits.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hash of a key's words, for tables that store the words
/// themselves.
///
/// Packed keys are already near-uniform bit soup (minimal-width fields
/// densely concatenated), so SipHash's flooding resistance would buy
/// nothing here while costing most of a visited-set probe. This is the
/// rustc "fx" construction: rotate, xor, multiply per word.
#[inline]
pub fn hash_words(words: &[u64]) -> u64 {
    words.iter().fold(0, |hash: u64, &word| {
        (hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Decisions, MessageSpec, Sim};
    use wormnet::topology::ring_unidirectional;
    use wormnet::ChannelId;
    use wormroute::algorithms::clockwise_ring;

    fn ring_sim() -> Sim {
        let (net, nodes) = ring_unidirectional(4);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let specs: Vec<MessageSpec> = (0..4)
            .map(|i| MessageSpec::new(nodes[i], nodes[(i + 2) % 4], 2))
            .collect();
        Sim::new(&net, &table, specs, None).unwrap()
    }

    /// The key words of `(state, budget)`.
    fn key(codec: &StateCodec, state: &SimState, budget: u32) -> Vec<u64> {
        let mut words = Vec::new();
        codec.pack_words(state, budget, &mut words);
        words
    }

    #[test]
    fn put_get_round_trip() {
        let fields: Vec<(u64, u32)> = vec![
            (3, 2),
            (0, 0),
            (129, 9),
            (u64::MAX, 64),
            (1, 1),
            ((1 << 33) - 5, 33),
            (7, 3),
        ];
        let total: u32 = fields.iter().map(|&(_, b)| b).sum();
        let mut words = vec![0; total.div_ceil(64) as usize];
        let mut at = 0;
        for &(v, b) in &fields {
            put(&mut words, at, v, b);
            at += b as usize;
        }
        at = 0;
        for &(v, b) in &fields {
            assert_eq!(get(&words, at, b), v, "field width {b}");
            at += b as usize;
        }
    }

    /// The 16-ring with eight 7-hop messages of 9 flits and queues of
    /// depth 3, whose keys span more than three words.
    fn wide_sim() -> Sim {
        let (net, nodes) = ring_unidirectional(16);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let specs: Vec<MessageSpec> = (0..8)
            .map(|i| MessageSpec::new(nodes[2 * i], nodes[(2 * i + 7) % 16], 9))
            .collect();
        Sim::new(&net, &table, specs, Some(3)).unwrap()
    }

    /// The layout one field at a time, read off a scan of each path
    /// rather than the cached worm ends: the budget, then per message
    /// `consumed`, tail, head and an occupancy per path position (zero
    /// where the message owns nothing), each pushed bit by bit.
    fn pack_field_by_field(
        sim: &Sim,
        codec: &StateCodec,
        state: &SimState,
        budget: u32,
    ) -> Vec<u64> {
        let mut bits: Vec<bool> = Vec::new();
        let mut push =
            |value: u64, width: u32| bits.extend((0..width).map(|b| value >> b & 1 == 1));
        push(budget as u64, codec.budget_bits);
        for (m, layout) in sim.messages().zip(&codec.layouts) {
            let path = sim.path(m);
            let owned =
                |c: &ChannelId| matches!(state.channels[c.index()], Some(occ) if occ.msg == m);
            let tail = path.iter().position(owned).map_or(0, |p| p + 1);
            let head = path.iter().rposition(owned).map_or(0, |p| p + 1);
            push(state.consumed[m.index()] as u64, layout.consumed_bits);
            push(tail as u64, layout.end_bits);
            push(head as u64, layout.end_bits);
            for c in path {
                let occ = match state.channels[c.index()] {
                    Some(occ) if occ.msg == m => occ.occupancy() as u64,
                    _ => 0,
                };
                push(occ, codec.occ_bits);
            }
        }
        let mut words: Vec<u64> = bits
            .chunks(64)
            .map(|chunk| chunk.iter().rev().fold(0, |w, &bit| w << 1 | bit as u64))
            .collect();
        words.resize(words.len().max(1), 0);
        words
    }

    #[test]
    fn pack_words_match_the_field_by_field_layout_and_reuse_the_buffer() {
        // A ring whose words straddle field groups, and the 16-ring
        // with deep queues whose keys span more than three words.
        for sim in [ring_sim(), wide_sim()] {
            let codec = StateCodec::new(&sim, 2);
            let mut state = sim.initial_state();
            let mut buf = Vec::new();
            for cycle in 0..24 {
                let budget = cycle % 3;
                codec.pack_words(&state, budget, &mut buf);
                assert_eq!(
                    buf,
                    pack_field_by_field(&sim, &codec, &state, budget),
                    "cycle {cycle}"
                );
                // Inject everything, stall one worm now and then, so
                // worms stretch, bubble and drain.
                let stalled = MessageId::from_index(cycle as usize % sim.message_count());
                let decisions = Decisions {
                    inject: sim.pending(&state),
                    stalls: if cycle % 4 == 3 {
                        vec![stalled]
                    } else {
                        Vec::new()
                    },
                    ..Decisions::default()
                };
                sim.step(&mut state, &decisions);
            }
            assert_eq!(buf.len(), codec.packed_words());
        }
    }

    #[test]
    fn hash_words_agrees_with_itself_and_separates_keys() {
        let sim = ring_sim();
        let codec = StateCodec::new(&sim, 3);
        let a = key(&codec, &sim.initial_state(), 3);
        let b = key(&codec, &sim.initial_state(), 2);
        assert_eq!(hash_words(&a), hash_words(&a));
        assert_ne!(
            hash_words(&a),
            hash_words(&b),
            "distinct keys should separate"
        );
    }

    #[test]
    fn bits_for_counts() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 0);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(256), 8);
        assert_eq!(bits_for(257), 9);
        assert_eq!(bits_for(u64::MAX), 64);
    }

    #[test]
    fn pack_round_trips_along_a_run() {
        let sim = ring_sim();
        let codec = StateCodec::new(&sim, 2);
        let mut state = sim.initial_state();
        let inject_all = Decisions {
            inject: sim.messages().collect(),
            ..Decisions::default()
        };
        let idle = Decisions::default();
        for cycle in 0..6 {
            let (back, budget) = codec.unpack(&key(&codec, &state, 2));
            assert_eq!(back, state, "cycle {cycle}");
            assert_eq!(budget, 2);
            sim.step(&mut state, if cycle == 0 { &inject_all } else { &idle });
        }
    }

    #[test]
    fn distinct_states_get_distinct_keys() {
        let sim = ring_sim();
        let codec = StateCodec::new(&sim, 0);
        let empty = sim.initial_state();
        let mut one_injected = sim.initial_state();
        sim.step(
            &mut one_injected,
            &Decisions {
                inject: vec![MessageId::from_index(0)],
                ..Decisions::default()
            },
        );
        assert_ne!(key(&codec, &empty, 0), key(&codec, &one_injected, 0));
    }

    #[test]
    fn budget_is_part_of_the_key() {
        let sim = ring_sim();
        let codec = StateCodec::new(&sim, 5);
        let s = sim.initial_state();
        assert_ne!(key(&codec, &s, 5), key(&codec, &s, 4));
    }

    #[test]
    fn wide_keys_round_trip() {
        // Keys of several words: a long ring, many messages, deep
        // queues.
        let sim = wide_sim();
        let codec = StateCodec::new(&sim, 7);
        assert!(codec.packed_words() > 3);
        let mut state = sim.initial_state();
        for _ in 0..6 {
            let inject = Decisions {
                inject: sim.pending(&state),
                ..Decisions::default()
            };
            sim.step(&mut state, &inject);
            let (back, budget) = codec.unpack(&key(&codec, &state, 7));
            assert_eq!(back, state);
            assert_eq!(budget, 7);
        }
    }
}
