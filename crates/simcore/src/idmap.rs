//! Point-lookup maps keyed by program-minted ids.
//!
//! Request, ticket, TE, file and flow ids are handed out by the simulator
//! itself, so no outside party chooses them and nothing gains from a
//! per-process random seed. std's default SipHash costs several times a
//! one-multiply hash on the engine's per-sequence step, and its
//! `RandomState` seed serves only to resist hash flooding. [`IdMap`] and
//! [`IdSet`] are std's `HashMap`/`HashSet` over [`IdHasher`], an
//! FxHash-style hasher with a fixed constant and no seed.
//!
//! The hasher fixes only the bucket layout, never a result: these maps
//! are for point lookups, and detlint's `unordered-iter` rule still flags
//! any iteration over them. Keys that a client chooses (the gateway's
//! session names) stay on std's seeded hasher, where flooding matters.
//! detlint's `std-hasher` rule allows `HashMap`/`HashSet` by name only in
//! this module and behind a justified waiver.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` over [`IdHasher`]. Build with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// `HashSet` over [`IdHasher`]. Build with `IdSet::default()`.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// The odd multiplier of rustc's FxHash (2^64 / φ, rounded to odd).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Seedless FxHash-style hasher: each word is folded in as
/// `(h.rotl(5) ^ w) * K`. `finish` rotates the well-mixed high bits down,
/// since std's table picks buckets from the low bits and a plain product
/// leaves them as regular as the keys (a strided id would collide).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[derive(Hash)]
    struct Id(u64);

    #[test]
    fn hash_is_fixed_across_processes() {
        // Golden values: a per-process seed (or any change to the mixing)
        // would move them.
        let b = BuildHasherDefault::<IdHasher>::default();
        assert_eq!(b.hash_one(Id(1)), 0xdc9c_882a_5545_f306);
        assert_eq!(b.hash_one((7u32, 9u64)), 0xcd9d_5fd8_1a26_6e15);
        assert_eq!(b.hash_one(Id(1)), b.hash_one(1u64));
    }

    #[test]
    fn strided_ids_spread_over_low_bits() {
        // Ids that are multiples of 1024 still land in distinct buckets
        // of a 256-bucket table.
        let b = BuildHasherDefault::<IdHasher>::default();
        let buckets: HashSet<u64> = (0..64u64).map(|i| b.hash_one(Id(i << 10)) & 0xff).collect();
        assert!(buckets.len() > 48, "{} distinct buckets", buckets.len());
    }
}
