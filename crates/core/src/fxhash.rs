//! A fast, non-cryptographic hasher for the per-packet path.
//!
//! `std`'s default SipHash is keyed and DoS-resistant, which is the right
//! default for long-lived maps fed by untrusted strings — and overkill
//! for the clue table, whose keys are 5-bit-encoded prefixes of addresses
//! the router is forwarding anyway. One clue-table probe is *the*
//! mandatory memory access of every clue-routed lookup (Section 3.2), so
//! the hash function in front of it should cost a handful of cycles, not
//! a full SipHash permutation.
//!
//! This is an FxHash-style multiply-xor mix (the folklore scheme used by
//! rustc's `FxHasher`): each 8-byte word of input is xored into the
//! state, rotated, and multiplied by a large odd constant. It makes no
//! collision-resistance claims; an adversarial sender can at worst
//! degrade its own neighbor table to linear probing, which the
//! `max_learned_entries` flood guard already bounds.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// Multiplier from the 64-bit Fibonacci hashing constant (2^64 / φ),
/// forced odd so multiplication permutes the word.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
const ROTATE: u32 = 26;

/// The hasher state: one 64-bit word folded over the input.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" + "" and "a" + "b" differ.
            self.add_word(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add_word(v as u64);
        self.add_word((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // One final mix so low-entropy single-word keys still spread
        // across the high bits HashMap uses for bucket selection.
        let h = self.hash;
        (h ^ (h >> 32)).wrapping_mul(SEED)
    }
}

/// Builds [`FxHasher`]s; plugs into `HashMap`/`HashSet` as the `S`
/// parameter.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A `HashMap` keyed by the fast hasher — the per-packet-path map type.
pub(crate) type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` over the fast hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use clue_trie::{Ip4, Prefix};
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_and_discriminating() {
        let a = Prefix::<Ip4>::new(Ip4(0x0A00_0000), 8);
        let b = Prefix::<Ip4>::new(Ip4(0x0A00_0000), 9);
        assert_eq!(hash_of(&a), hash_of(&a));
        assert_ne!(hash_of(&a), hash_of(&b));
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
    }

    #[test]
    fn byte_stream_framing_matters() {
        let mut h1 = FxHasher::default();
        h1.write(b"ab");
        let mut h2 = FxHasher::default();
        h2.write(b"a");
        h2.write(b"b");
        // Chunked writes of the same bytes may legally differ (Hasher
        // contract) — but identical single writes must agree.
        let mut h3 = FxHasher::default();
        h3.write(b"ab");
        assert_eq!(h1.finish(), h3.finish());
        let _ = h2.finish();
    }

    #[test]
    fn long_inputs_cover_the_chunk_loop() {
        let long: Vec<u8> = (0..=255u8).collect();
        let mut h = FxHasher::default();
        h.write(&long);
        let full = h.finish();
        let mut h2 = FxHasher::default();
        h2.write(&long[..255]);
        assert_ne!(full, h2.finish());
    }

    #[test]
    fn map_and_set_work_end_to_end() {
        let mut m: FxHashMap<Prefix<Ip4>, u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(Prefix::new(Ip4(i << 12), 24), i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m.get(&Prefix::new(Ip4(i << 12), 24)), Some(&i));
        }
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(7);
        assert!(s.contains(&7) && !s.contains(&8));
    }

    #[test]
    fn prefix_keys_spread_over_buckets() {
        // 4096 structured prefixes must not collapse onto a few finish()
        // values (the failure mode of a bad final mix).
        let mut seen: HashSet<u64> = HashSet::new();
        for i in 0..4096u32 {
            seen.insert(hash_of(&Prefix::<Ip4>::new(Ip4(i << 8), 24)));
        }
        assert!(seen.len() > 4000, "only {} distinct hashes", seen.len());
    }
}
