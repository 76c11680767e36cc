//! Bit-packed canonical encoding of [`SimState`] for search memoization.
//!
//! The reachability search memoizes every visited `(state, budget)`
//! pair, so the key encoding dominates both the memory footprint and
//! the hash cost of a run. The byte encoding this replaces spent a
//! full byte (or two) per field; here a [`StateCodec`] derives the
//! minimal field widths once per scenario — ⌈log₂⌉ of each field's
//! value count — and packs the whole configuration into a handful of
//! `u64` words:
//!
//! * one *owner* field per **relevant** channel (a channel on some
//!   message's path; all others can never be occupied), with an extra
//!   sentinel value for "empty";
//! * `lo`/`hi` flit-window fields per relevant channel;
//! * `injected`/`consumed` counters per message;
//! * the remaining stall budget.
//!
//! Every paper construction but Figure 2 and Figure 3 (e) packs to
//! 4–10 words. The searches never build a key value: they probe a flat
//! visited set with the words [`StateCodec::pack_words`] writes into a
//! reused buffer, hashed by [`hash_words`].

use std::hash::Hasher;

use crate::engine::Sim;
use crate::state::{ChannelOcc, SimState};
use crate::MessageId;

/// Bits needed to distinguish `values` distinct values.
fn bits_for(values: u64) -> u32 {
    if values <= 1 {
        0
    } else {
        64 - (values - 1).leading_zeros()
    }
}

/// Bit-level writer into a caller-owned word buffer, so the hot path
/// can reuse one allocation across millions of packs.
struct BitWriter<'a> {
    words: &'a mut Vec<u64>,
    bits_used: u32,
}

impl<'a> BitWriter<'a> {
    fn new(words: &'a mut Vec<u64>) -> Self {
        words.clear();
        BitWriter {
            words,
            bits_used: 64,
        }
    }

    fn push(&mut self, value: u64, bits: u32) {
        debug_assert!(bits == 64 || value < (1u64 << bits));
        if bits == 0 {
            return;
        }
        if self.bits_used == 64 {
            self.words.push(0);
            self.bits_used = 0;
        }
        let room = 64 - self.bits_used;
        let word = self.words.last_mut().expect("word pushed above");
        *word |= value << self.bits_used;
        if bits <= room {
            self.bits_used += bits;
        } else {
            // Spill the high part into a fresh word.
            self.words.push(value >> room);
            self.bits_used = bits - room;
        }
    }
}

struct BitReader<'a> {
    words: &'a [u64],
    cursor: usize,
    bits_used: u32,
}

impl<'a> BitReader<'a> {
    fn new(words: &'a [u64]) -> Self {
        BitReader {
            words,
            cursor: 0,
            bits_used: 0,
        }
    }

    fn pull(&mut self, bits: u32) -> u64 {
        if bits == 0 {
            return 0;
        }
        let room = 64 - self.bits_used;
        let mut value = self.words[self.cursor] >> self.bits_used;
        if bits <= room {
            self.bits_used += bits;
        } else {
            self.cursor += 1;
            value |= self.words[self.cursor] << room;
            self.bits_used = bits - room;
        }
        if self.bits_used == 64 {
            self.cursor += 1;
            self.bits_used = 0;
        }
        if bits == 64 {
            value
        } else {
            value & ((1u64 << bits) - 1)
        }
    }
}

/// Field-width plan for packing one scenario's states.
///
/// Built once per search from the [`Sim`] (and the maximum stall
/// budget that will ever be encoded); [`StateCodec::pack_words`] and
/// [`StateCodec::unpack`] then convert states losslessly.
#[derive(Clone, Debug)]
pub struct StateCodec {
    /// Channel indices that can ever be occupied, sorted.
    relevant: Vec<u32>,
    channel_count: usize,
    message_count: usize,
    msg_bits: u32,
    flit_bits: u32,
    budget_bits: u32,
    words: usize,
}

impl StateCodec {
    /// Derive the packing plan for `sim`, with budgets up to
    /// `max_budget` encodable.
    pub fn new(sim: &Sim, max_budget: u32) -> Self {
        let mut relevant: Vec<u32> = sim
            .messages()
            .flat_map(|m| sim.path(m).iter().map(|c| c.index() as u32))
            .collect();
        relevant.sort_unstable();
        relevant.dedup();

        let message_count = sim.message_count();
        let max_len = sim.messages().map(|m| sim.length(m)).max().unwrap_or(0) as u64;
        // Owner field: message ids plus one sentinel for "empty".
        let msg_bits = bits_for(message_count as u64 + 1);
        // lo/hi/injected/consumed all range over 0..=max_len.
        let flit_bits = bits_for(max_len + 1);
        let budget_bits = bits_for(max_budget as u64 + 1);

        let total_bits = budget_bits as usize
            + relevant.len() * (msg_bits + 2 * flit_bits) as usize
            + message_count * 2 * flit_bits as usize;
        let words = total_bits.div_ceil(64).max(1);

        StateCodec {
            relevant,
            channel_count: sim.channel_count(),
            message_count,
            msg_bits,
            flit_bits,
            budget_bits,
            words,
        }
    }

    /// Words per packed key for this scenario.
    pub fn packed_words(&self) -> usize {
        self.words
    }

    /// Number of channels that can ever be occupied.
    pub fn relevant_channels(&self) -> usize {
        self.relevant.len()
    }

    /// Pack `(state, budget)` into its canonical key words, written
    /// into `buf` (cleared and refilled, so a caller packing millions
    /// of states reuses one allocation) — what a visited set probes
    /// with.
    ///
    /// The layout is LSB-first, so a channel's `owner`, `lo` and `hi`
    /// fields pushed as one value of their summed width land on the
    /// same bits as three separate pushes; likewise a message's
    /// `injected` and `consumed`.
    pub fn pack_words(&self, state: &SimState, budget: u32, buf: &mut Vec<u64>) {
        let empty = self.message_count as u64;
        let (msg, flit) = (self.msg_bits, self.flit_bits);
        let mut w = BitWriter::new(buf);
        w.push(budget as u64, self.budget_bits);
        for &ci in &self.relevant {
            let group = match state.channels[ci as usize] {
                None => empty,
                Some(occ) => {
                    occ.msg.index() as u64
                        | (occ.lo as u64) << msg
                        | (occ.hi as u64) << (msg + flit)
                }
            };
            w.push(group, msg + 2 * flit);
        }
        for i in 0..self.message_count {
            w.push(
                state.injected[i] as u64 | (state.consumed[i] as u64) << flit,
                2 * flit,
            );
        }
    }

    /// Invert [`StateCodec::pack_words`]: reconstruct the state and
    /// budget from key `words`.
    ///
    /// Channels outside the relevant set come back `None`, which is
    /// exact — they can never be occupied.
    pub fn unpack(&self, words: &[u64]) -> (SimState, u32) {
        let mut r = BitReader::new(words);
        let budget = r.pull(self.budget_bits) as u32;
        let empty = self.message_count as u64;
        let mut state = SimState::new(self.channel_count, self.message_count);
        for &ci in &self.relevant {
            let owner = r.pull(self.msg_bits);
            let lo = r.pull(self.flit_bits) as u16;
            let hi = r.pull(self.flit_bits) as u16;
            if owner != empty {
                state.channels[ci as usize] = Some(ChannelOcc {
                    msg: MessageId::from_index(owner as usize),
                    lo,
                    hi,
                });
            }
        }
        for i in 0..self.message_count {
            state.injected[i] = r.pull(self.flit_bits) as u16;
            state.consumed[i] = r.pull(self.flit_bits) as u16;
        }
        (state, budget)
    }
}

/// Multiplier from the Firefox/rustc "fx" hash: a single odd constant
/// with well-mixed bits.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast non-cryptographic [`Hasher`] tuned for packed key words.
///
/// Packed keys are already near-uniform bit soup (minimal-width fields
/// densely concatenated), so the default SipHash's flooding resistance
/// buys nothing here while costing most of a visited-set probe. This
/// is the rustc "fx" construction: rotate, xor, multiply per word.
#[derive(Clone, Debug, Default)]
pub struct PackedHasher {
    hash: u64,
}

impl PackedHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for PackedHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// The [`PackedHasher`] hash of a key's words, for tables that store
/// the words themselves.
#[inline]
pub fn hash_words(words: &[u64]) -> u64 {
    let mut h = PackedHasher::default();
    for &w in words {
        h.add(w);
    }
    h.hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Decisions, MessageSpec, Sim};
    use wormnet::topology::ring_unidirectional;
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
    fn bit_writer_reader_round_trip() {
        let mut buf = Vec::new();
        let mut w = BitWriter::new(&mut buf);
        let fields: Vec<(u64, u32)> = vec![
            (3, 2),
            (0, 0),
            (129, 9),
            (u64::MAX, 64),
            (1, 1),
            ((1 << 33) - 5, 33),
            (7, 3),
        ];
        for &(v, b) in &fields {
            w.push(v, b);
        }
        let mut r = BitReader::new(&buf);
        for &(v, b) in &fields {
            assert_eq!(r.pull(b), v, "field width {b}");
        }
    }

    /// The field-at-a-time layout grouped packing must reproduce: one
    /// push per field, owner/`lo`/`hi` per relevant channel, then
    /// `injected`/`consumed` per message.
    fn pack_field_by_field(codec: &StateCodec, state: &SimState, budget: u32) -> Vec<u64> {
        let mut buf = Vec::new();
        let mut w = BitWriter::new(&mut buf);
        w.push(budget as u64, codec.budget_bits);
        for &ci in &codec.relevant {
            let (owner, lo, hi) = match state.channels[ci as usize] {
                None => (codec.message_count as u64, 0, 0),
                Some(occ) => (occ.msg.index() as u64, occ.lo as u64, occ.hi as u64),
            };
            w.push(owner, codec.msg_bits);
            w.push(lo, codec.flit_bits);
            w.push(hi, codec.flit_bits);
        }
        for i in 0..codec.message_count {
            w.push(state.injected[i] as u64, codec.flit_bits);
            w.push(state.consumed[i] as u64, codec.flit_bits);
        }
        buf
    }

    #[test]
    fn pack_words_match_the_field_by_field_layout_and_reuse_the_buffer() {
        // A ring whose words straddle field groups, and the 16-ring
        // whose keys span more than three words.
        let (net, nodes) = ring_unidirectional(16);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let specs: Vec<MessageSpec> = (0..8)
            .map(|i| MessageSpec::new(nodes[2 * i], nodes[(2 * i + 7) % 16], 9))
            .collect();
        let wide = Sim::new(&net, &table, specs, None).unwrap();
        for sim in [ring_sim(), wide] {
            let codec = StateCodec::new(&sim, 2);
            let mut state = sim.initial_state();
            let inject_all = Decisions {
                inject: sim.messages().collect(),
                ..Decisions::default()
            };
            let idle = Decisions::default();
            let mut buf = Vec::new();
            for cycle in 0..8 {
                codec.pack_words(&state, 2, &mut buf);
                assert_eq!(buf, pack_field_by_field(&codec, &state, 2), "cycle {cycle}");
                sim.step(&mut state, if cycle == 0 { &inject_all } else { &idle });
            }
            assert_eq!(buf.len(), codec.packed_words());
        }
    }

    #[test]
    fn packed_hasher_agrees_with_itself_and_separates_keys() {
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
        // Keys of several words: a long ring and many messages.
        let (net, nodes) = ring_unidirectional(16);
        let table = clockwise_ring(&net, &nodes).unwrap();
        let specs: Vec<MessageSpec> = (0..8)
            .map(|i| MessageSpec::new(nodes[2 * i], nodes[(2 * i + 7) % 16], 9))
            .collect();
        let sim = Sim::new(&net, &table, specs, None).unwrap();
        let codec = StateCodec::new(&sim, 7);
        assert!(codec.packed_words() > 3);
        let mut state = sim.initial_state();
        sim.step(
            &mut state,
            &Decisions {
                inject: sim.messages().collect(),
                ..Decisions::default()
            },
        );
        let (back, budget) = codec.unpack(&key(&codec, &state, 7));
        assert_eq!(back, state);
        assert_eq!(budget, 7);
    }
}
