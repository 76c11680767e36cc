//! The sequential engines' visited set.
//!
//! Every key one search produces has the same number of `u64` words
//! ([`wormsim::StateCodec::packed_words`]), so keys need no per-key
//! allocation: they are copied inline into fixed-size chunks, and an
//! open-addressing table of `(hash tag, key index)` entries finds them.
//! A probe reads the caller's borrowed scratch words; only a new key is
//! copied. Chunks are never reallocated, so growing the set never holds
//! two copies of its keys (as a doubling `Vec` would while it moves).

use wormsim::packed::hash_words;

/// Keys per storage chunk.
const CHUNK_KEYS: usize = 1 << 12;

/// Initial table slots (a power of two).
const INITIAL_SLOTS: usize = 1 << 10;

/// A set of fixed-width word keys.
#[derive(Debug)]
pub(crate) struct VisitedSet {
    /// Words per key.
    width: usize,
    /// Key storage: key `i` is words `(i % CHUNK_KEYS) * width ..` of
    /// chunk `i / CHUNK_KEYS`.
    chunks: Vec<Vec<u64>>,
    /// Open-addressing slots, linear probing: 0 = empty, otherwise the
    /// key's 32-bit hash tag in the high half and its index + 1 in the
    /// low half. The tag also places the entry, so growing the table
    /// never rereads a key.
    table: Vec<u64>,
    len: usize,
}

impl VisitedSet {
    /// An empty set of `width`-word keys.
    pub(crate) fn new(width: usize) -> Self {
        VisitedSet {
            width,
            chunks: Vec::new(),
            table: vec![0; INITIAL_SLOTS],
            len: 0,
        }
    }

    /// Number of keys.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn key(&self, index: usize) -> &[u64] {
        let at = (index % CHUNK_KEYS) * self.width;
        &self.chunks[index / CHUNK_KEYS][at..at + self.width]
    }

    /// Insert `key`; `true` when it was not in the set yet.
    pub(crate) fn insert(&mut self, key: &[u64]) -> bool {
        assert_eq!(key.len(), self.width, "keys of one set share a width");
        if (self.len + 1) * 2 > self.table.len() {
            self.grow();
        }
        let tag = (hash_words(key) >> 32) as u32;
        let mask = self.table.len() - 1;
        let mut slot = tag as usize & mask;
        loop {
            let entry = self.table[slot];
            if entry == 0 {
                break;
            }
            if (entry >> 32) as u32 == tag && self.key((entry as u32 - 1) as usize) == key {
                return false;
            }
            slot = (slot + 1) & mask;
        }
        let index = self.len;
        assert!(
            index < u32::MAX as usize,
            "visited set holds at most 2^32 - 1 keys"
        );
        if index.is_multiple_of(CHUNK_KEYS) {
            self.chunks
                .push(Vec::with_capacity(CHUNK_KEYS * self.width));
        }
        self.chunks[index / CHUNK_KEYS].extend_from_slice(key);
        self.table[slot] = u64::from(tag) << 32 | (index as u64 + 1);
        self.len += 1;
        true
    }

    /// Double the table, placing each entry by its stored tag.
    fn grow(&mut self) {
        let slots = self.table.len() * 2;
        let old = std::mem::replace(&mut self.table, vec![0; slots]);
        let mask = self.table.len() - 1;
        for entry in old.into_iter().filter(|&e| e != 0) {
            let mut slot = (entry >> 32) as usize & mask;
            while self.table[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = entry;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn agrees_with_a_hash_set_across_growth_and_chunks() {
        let mut set = VisitedSet::new(3);
        let mut truth = HashSet::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..3 * CHUNK_KEYS {
            // xorshift draws over a small range, so keys repeat.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = [x % 5_000, x % 3, 7];
            assert_eq!(set.insert(&key), truth.insert(key), "{key:?}");
            assert_eq!(set.len(), truth.len());
        }
        assert!(set.len() > CHUNK_KEYS, "keys span several chunks");
        for key in &truth {
            assert!(!set.insert(key), "{key:?} stays a member");
        }
    }

    #[test]
    fn zero_width_keys_form_one_member() {
        let mut set = VisitedSet::new(0);
        assert!(set.insert(&[]));
        assert!(!set.insert(&[]));
        assert_eq!(set.len(), 1);
    }
}
