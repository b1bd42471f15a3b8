//! A vendored Fx-style hasher: the workspace's one non-cryptographic hash.
//!
//! The default `std::collections::HashMap` hasher (SipHash-1-3 behind a
//! per-process random seed) is a keyed cryptographic PRF — the right
//! default for untrusted keys, but pure overhead for PIER's internal maps,
//! whose keys are dense newtype ids ([`crate::ProfileId`], block/token ids)
//! or canonical id pairs produced by the pipeline itself, never by an
//! adversary, and for the token dictionary, which hashes each token's
//! lowercased bytes word-wise (`crate::tokenizer`). This module vendors the
//! multiply-rotate hash popularized by the Rust compiler's `FxHasher`
//! (firefox hash): one rotate, one xor and one multiply per word. Like
//! every external dependency in this offline build it is implemented
//! in-repo (see the `shims/` policy in the workspace manifest) rather than
//! pulled from crates.io. `pier-collections` re-exports it for the stage-A
//! maps.
//!
//! The hash is deterministic across processes and runs, which is a feature
//! here: emitter state built over these maps iterates identically on every
//! run, so equivalence tests can pin exact outputs. The token dictionary,
//! whose keys are outside input, starts it from a seed drawn per
//! dictionary ([`FxHasher::with_seed`]); its ids do not depend on the hash.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the 64-bit finalizer of FxHash: a random-looking odd
/// constant with a balanced bit pattern (⌊2^64/φ⌋ rounded to odd).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// The Fx multiply-rotate hasher. One `write_*` call per integer key is the
/// intended fast path; arbitrary byte slices fold word-wise.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    /// A hasher whose state starts at `seed` rather than zero. A table
    /// keyed by outside input draws its seed at random, so colliding keys
    /// cannot be computed offline.
    #[inline]
    pub fn with_seed(seed: u64) -> Self {
        FxHasher { hash: seed }
    }

    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut word = [0u8; 8];
            word.copy_from_slice(&bytes[..8]);
            self.add_to_hash(u64::from_le_bytes(word));
            bytes = &bytes[8..];
        }
        if !bytes.is_empty() {
            let mut word = [0u8; 8];
            word[..bytes.len()].copy_from_slice(bytes);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s (stateless, zero-sized).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`]. Drop-in for maps whose keys are
/// pipeline-internal ids; construct with `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed through [`FxHasher`]; construct with
/// `FxHashSet::default()`.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        assert_eq!(hash_of(42u32), hash_of(42u32));
        assert_eq!(hash_of((3u32, 7u32)), hash_of((3u32, 7u32)));
    }

    #[test]
    fn distinguishes_nearby_integers() {
        let hashes: Vec<u64> = (0u32..64).map(hash_of).collect();
        let distinct: std::collections::HashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(distinct.len(), hashes.len());
        // Sequential ids must not collide in the low bits either (HashMap
        // uses the top bits, but a degenerate low-bit pattern would still
        // signal a broken mix).
        let low: std::collections::HashSet<u64> = hashes.iter().map(|h| h & 0xffff).collect();
        assert!(low.len() > 60, "low 16 bits collide heavily: {}", low.len());
    }

    #[test]
    fn byte_slices_fold_word_wise() {
        // Same prefix, different tail byte -> different hash.
        assert_ne!(hash_of("progressive"), hash_of("progressivf"));
        // Length is part of the slice hash (std appends it for &str).
        assert_ne!(hash_of("ab"), hash_of("abc"));
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        assert_eq!(m.get(&1), Some(&"one"));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(9));
        assert!(!s.insert(9));
    }
}
