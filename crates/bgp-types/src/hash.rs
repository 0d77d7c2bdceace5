//! The one hasher behind every library hash map and set.
//!
//! The inference keeps its per-link tables keyed by small integers: ASNs,
//! AS pairs, `(feeder, plane, value)` triples. std's default SipHash-1-3
//! costs far more per lookup than such keys need, so every library map
//! and set is a [`FastMap`] or [`FastSet`] instead: a folded multiply per
//! word written and one more to finish, the design hashbrown uses by
//! default (foldhash).
//!
//! The seed is drawn once per process from std's [`RandomState`]. It is
//! never constant, for two reasons: a fixed iteration order would let
//! output come to depend on it without any golden noticing, and hostile
//! MRT or update input could be built to collide. So no output may
//! depend on the iteration order of these maps; sort before emitting.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` hashed by [`FastState`]. Build it with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, FastState>;

/// A `HashSet` hashed by [`FastState`]. Build it with `FastSet::default()`.
pub type FastSet<K> = HashSet<K, FastState>;

/// The multiplier of the fold: the odd 64-bit constant of the golden ratio.
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiply into 128 bits and XOR the high half into the low half, so every
/// input bit reaches the low bits a hash table indexes by.
#[inline]
fn fold(x: u64) -> u64 {
    let product = u128::from(x) * u128::from(MULTIPLIER);
    (product as u64) ^ ((product >> 64) as u64)
}

/// The [`BuildHasher`] of [`FastMap`] and [`FastSet`]: every instance in a
/// process carries the same random seed, drawn on first use.
#[derive(Debug, Clone, Copy)]
pub struct FastState {
    seed: u64,
}

impl Default for FastState {
    #[inline]
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| RandomState::new().hash_one(0u64));
        Self { seed }
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher { state: self.seed }
    }
}

/// The hasher [`FastState`] builds: `state = fold(state ^ word)` for each
/// word written, and one more fold to finish.
#[derive(Debug, Clone)]
pub struct FastHasher {
    state: u64,
}

impl Hasher for FastHasher {
    /// One fold is close to linear in the high bits of a word, so keys
    /// that differ only there (`Asn(i << 20)`) would crowd into as few as
    /// a fifth of the buckets a uniform hash fills; the second fold spreads
    /// them evenly.
    #[inline]
    fn finish(&self) -> u64 {
        fold(self.state)
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = fold(self.state ^ word);
    }

    #[inline]
    fn write_u8(&mut self, word: u8) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_u16(&mut self, word: u16) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_u128(&mut self, word: u128) {
        self.write_u64(word as u64);
        self.write_u64((word >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    /// Bytes go in as little-endian words, the last one zero-padded, then
    /// their count, so a trailing zero byte still changes the hash.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word));
        }
        self.write_usize(bytes.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Asn;
    use std::hash::Hash;

    /// Distinct values of the low 12 bits (the bucket index of a 4096-slot
    /// table) over the hashes of `keys`.
    fn low_bit_spread<K: Hash>(keys: impl Iterator<Item = K>) -> usize {
        let state = FastState::default();
        keys.map(|k| state.hash_one(k) & 0xFFF).collect::<HashSet<_>>().len()
    }

    #[test]
    fn keys_that_differ_only_in_high_bits_spread_over_the_low_bits() {
        // A uniform hash gives about 2590 distinct values of 4096 keys in
        // 4096 buckets; a plain multiply without the fold gives 1, and a
        // single fold without the finishing one about 2290.
        let spreads = [
            low_bit_spread((0..4096u32).map(|i| Asn(i << 16))),
            low_bit_spread((0..4096u32).map(|i| Asn(i << 20))),
            // The shape of asgraph's `(NodeId, NodeId)` edge key.
            low_bit_spread((0..4096u32).map(|i| (0u32, i << 20))),
        ];
        for spread in spreads {
            assert!(spread >= 2400, "only {spread} distinct low-bit values of 4096");
        }
    }

    #[test]
    fn a_trailing_zero_changes_the_hash() {
        let state = FastState::default();
        assert_ne!(
            state.hash_one(vec![Asn(1), Asn(2)]),
            state.hash_one(vec![Asn(1), Asn(2), Asn(0)])
        );
        assert_ne!(state.hash_one([1u8, 2].as_slice()), state.hash_one([1u8, 2, 0].as_slice()));
    }

    #[test]
    fn every_state_of_a_process_hashes_alike() {
        let key = (Asn(64512), Asn(3356), 7u32);
        assert_eq!(FastState::default().hash_one(key), FastState::default().hash_one(key));
        let map: FastMap<Asn, u32> = (0..1000).map(|i| (Asn(i), i)).collect();
        assert!((0..1000).all(|i| map[&Asn(i)] == i));
    }
}
