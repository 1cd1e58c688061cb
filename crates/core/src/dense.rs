//! Dense, `LocId`-indexed containers and a fast non-cryptographic hash.
//!
//! The hot paths of the analysis (interning, map/unmap translation,
//! worklists) key everything by [`LocId`](crate::location::LocId), which
//! is a dense index into the location table. [`LocSet`] exploits that
//! as a bitset, and [`FxBuildHasher`] is the multiply-xor hash used by
//! rustc (no SipHash overhead) for interning keys and for the small
//! per-call maps of map/unmap, which touch a handful of ids out of the
//! whole table.

use crate::location::LocId;
use std::hash::{BuildHasherDefault, Hasher};

/// The rustc/Firefox `FxHash` mixing function: one multiply and a
/// rotate per word. Not DoS-resistant — fine for interning keys that
/// come from the program under analysis, not from an adversary.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(
                c.try_into().expect("chunks_exact(8) yields 8-byte slices"),
            ));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
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

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]; plug into `HashMap::with_hasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Hashes one value with [`FxHasher`] (for hand-rolled intern buckets).
pub fn fx_hash_one<T: std::hash::Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// A dense set of `LocId`s stored as a bitset. Iteration is in
/// ascending id order, so consumers that previously walked a
/// `BTreeSet<LocId>` see the same sequence.
#[derive(Debug, Clone, Default)]
pub struct LocSet {
    bits: Vec<u64>,
    len: usize,
}

impl LocSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `id` is in the set.
    #[inline]
    pub fn contains(&self, id: LocId) -> bool {
        let (w, b) = (id.0 as usize / 64, id.0 as usize % 64);
        self.bits.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Adds `id`; returns true if it was newly added.
    #[inline]
    pub fn insert(&mut self, id: LocId) -> bool {
        let (w, b) = (id.0 as usize / 64, id.0 as usize % 64);
        if w >= self.bits.len() {
            self.bits.resize(w + 1, 0);
        }
        let fresh = self.bits[w] & (1 << b) == 0;
        self.bits[w] |= 1 << b;
        self.len += fresh as usize;
        fresh
    }

    /// Iterates the ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = LocId> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros();
                rest &= rest - 1;
                Some(LocId((w * 64) as u32 + b))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locset_insert_iter_ascending() {
        let mut s = LocSet::new();
        for &i in &[130u32, 2, 64, 2, 63] {
            s.insert(LocId(i));
        }
        assert_eq!(s.len(), 4);
        assert!(s.contains(LocId(64)));
        assert!(!s.contains(LocId(65)));
        let ids: Vec<u32> = s.iter().map(|l| l.0).collect();
        assert_eq!(ids, vec![2, 63, 64, 130]);
    }

    #[test]
    fn locset_first_insert_reports_fresh() {
        let mut s = LocSet::new();
        assert!(s.insert(LocId(5)));
        assert!(!s.insert(LocId(5)));
        assert!(!s.is_empty());
    }

    #[test]
    fn fx_hash_is_deterministic_and_spreads() {
        let a = fx_hash_one(&("alpha", 1u32));
        let b = fx_hash_one(&("alpha", 1u32));
        let c = fx_hash_one(&("alpha", 2u32));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
