//! One hasher for the keys the system chooses itself.
//!
//! std's `HashMap` defaults to SipHash with a random seed: a defence
//! against keys an adversary picks. Tids, heap and code addresses, wait
//! objects, template names and specialization keys are all chosen by the
//! kernel or the creator, and they are looked up on every block, wake and
//! synthesis. [`FoldHasher`] is what those maps use instead: each word is
//! mixed in with one rotate, xor and multiply, and [`finish`] folds the
//! product's high bits into the low ones.
//!
//! The fold is what makes it fit these keys. hashbrown picks a bucket
//! from the low bits of the hash, and vector tables and code bases are
//! aligned: a multiply alone leaves an aligned key's low bits zero (a key
//! aligned to 1024 bytes has ten), so every such key would share a bucket.
//! The rotation brings bits 26 and up of the product down; for the
//! golden-ratio multiplier those bits spread `k * stride` over at least
//! half of 1024 buckets for every power-of-two stride up to 4096, and over
//! nine tenths for strides 4 and 1024. With no seed, iteration order is
//! the same on every run.
//!
//! [`finish`]: std::hash::Hasher::finish

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier: odd, and 2^64 / φ, whose multiples are the most
/// evenly spread (Fibonacci hashing).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// How far `finish` rotates the state left: bits `64 - FOLD` and up
/// become the low bits a table indexes by.
const FOLD: u32 = 38;

/// A multiply-and-fold hasher for keys that never come from outside the
/// program. Not for anything a guest or a user can choose.
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldHasher(u64);

impl FoldHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("eight bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(FOLD)
    }
}

/// A `HashMap` keyed through [`FoldHasher`].
pub type FoldMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn low_bits<T: Hash>(key: T) -> u64 {
        BuildHasherDefault::<FoldHasher>::default().hash_one(key) & 1023
    }

    /// Aligned keys — the shape of vector tables and code bases — spread
    /// over the low bits a hash table picks its buckets from.
    #[test]
    fn aligned_keys_spread_over_the_low_bits() {
        for stride in [4u32, 1024] {
            let distinct: HashSet<u64> = (0..1024u32).map(|k| low_bits(k * stride)).collect();
            assert!(
                distinct.len() >= 900,
                "stride {stride}: {} distinct low-10-bit values",
                distinct.len()
            );
        }
        // No power-of-two stride collapses them.
        for shift in 0..=12 {
            let stride = 1u32 << shift;
            let distinct: HashSet<u64> = (0..1024u32).map(|k| low_bits(k * stride)).collect();
            assert!(distinct.len() >= 512, "stride {stride}: {}", distinct.len());
        }
    }

    /// The same keys through a multiply alone collapse: what the fold is
    /// for.
    #[test]
    fn a_multiply_alone_does_not_spread_them() {
        let distinct: HashSet<u64> = (0..1024u64)
            .map(|k| (k * 1024).wrapping_mul(K) & 1023)
            .collect();
        assert_eq!(distinct.len(), 1);
    }

    #[test]
    fn equal_keys_hash_equal_and_names_differ() {
        assert_eq!(low_bits("sw_in"), low_bits(String::from("sw_in")));
        let names = ["sw_in", "sw_out", "sw_in_mmu", "pipe_read", "pipe_write"];
        let build = BuildHasherDefault::<FoldHasher>::default();
        let hashes: HashSet<u64> = names.iter().map(|n| build.hash_one(n)).collect();
        assert_eq!(hashes.len(), names.len());
    }
}
