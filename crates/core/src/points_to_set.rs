//! Points-to sets: the analysis abstraction of §3 of the paper.
//!
//! A points-to set is a set of triples `(x, y, D|P)`: abstract stack
//! location `x` *definitely* or *possibly* contains the address of `y`
//! (Definitions 3.1/3.2).
//!
//! # Representation
//!
//! Triples are packed into single `u64` words — source id in the high
//! 32 bits, target id in bits 1..32, the definiteness in bit 0 (set
//! for `D`) — and kept in one sorted flat array. Sorting by the word
//! is sorting by `(source, target)`, so set operations (merge, subset,
//! equality) are linear merge-joins over machine words, lookups are a
//! binary search, and per-source ranges (`targets`, `kill_from`) are
//! contiguous slices. Demoting `D → P` clears bit 0, which cannot
//! reorder the array because pair keys are unique. Sets of up to six
//! triples — the overwhelming majority of per-variable sets — live
//! inline without a heap allocation.

use crate::location::LocId;
use std::fmt;

/// Definiteness of a points-to relationship.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Def {
    /// Holds on every execution path, and both endpoints name exactly
    /// one real location.
    D,
    /// May hold on some execution path.
    P,
}

impl Def {
    /// `D ∧ D = D`, anything else `P` (used when composing hops and when
    /// merging control-flow branches).
    pub fn and(self, other: Def) -> Def {
        if self == Def::D && other == Def::D {
            Def::D
        } else {
            Def::P
        }
    }
}

impl fmt::Display for Def {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Def::D => write!(f, "D"),
            Def::P => write!(f, "P"),
        }
    }
}

/// Bit 0 of a packed triple: set for `D`, clear for `P`.
const D_BIT: u64 = 1;
/// Mask selecting the `(source, target)` pair key of a packed triple.
const KEY_MASK: u64 = !D_BIT;

#[inline]
fn pack(src: LocId, tgt: LocId, d: Def) -> u64 {
    debug_assert!(tgt.0 < 1 << 31, "LocId overflows the packed target field");
    key(src, tgt) | (d == Def::D) as u64
}

#[inline]
fn key(src: LocId, tgt: LocId) -> u64 {
    ((src.0 as u64) << 32) | ((tgt.0 as u64) << 1)
}

#[inline]
fn unpack_src(e: u64) -> LocId {
    LocId((e >> 32) as u32)
}

#[inline]
fn unpack_tgt(e: u64) -> LocId {
    LocId(((e >> 1) & 0x7FFF_FFFF) as u32)
}

#[inline]
fn unpack_def(e: u64) -> Def {
    if e & D_BIT != 0 {
        Def::D
    } else {
        Def::P
    }
}

/// Triples held inline before the set spills to the heap.
const INLINE: usize = 6;

/// Storage of the packed triples: a small inline buffer or a spilled
/// vector. Invariant: the occupied prefix is sorted and pair keys are
/// unique.
#[derive(Clone)]
enum Rep {
    Inline { len: u8, buf: [u64; INLINE] },
    Spilled(Vec<u64>),
}

impl Rep {
    #[inline]
    fn as_slice(&self) -> &[u64] {
        match self {
            Rep::Inline { len, buf } => &buf[..*len as usize],
            Rep::Spilled(v) => v,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [u64] {
        match self {
            Rep::Inline { len, buf } => &mut buf[..*len as usize],
            Rep::Spilled(v) => v,
        }
    }

    fn insert_at(&mut self, i: usize, e: u64) {
        match self {
            Rep::Inline { len, buf } => {
                let n = *len as usize;
                if n < INLINE {
                    buf.copy_within(i..n, i + 1);
                    buf[i] = e;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(n * 2);
                    v.extend_from_slice(&buf[..i]);
                    v.push(e);
                    v.extend_from_slice(&buf[i..]);
                    *self = Rep::Spilled(v);
                }
            }
            Rep::Spilled(v) => v.insert(i, e),
        }
    }

    fn remove_range(&mut self, range: std::ops::Range<usize>) {
        match self {
            Rep::Inline { len, buf } => {
                let n = *len as usize;
                buf.copy_within(range.end..n, range.start);
                *len -= (range.end - range.start) as u8;
            }
            Rep::Spilled(v) => {
                v.drain(range);
            }
        }
    }

    fn truncate(&mut self, n: usize) {
        match self {
            Rep::Inline { len, .. } => *len = (*len).min(n as u8),
            Rep::Spilled(v) => v.truncate(n),
        }
    }

    /// Appends `e`; the caller keeps the order: `e`'s pair key is above
    /// every key held.
    fn push(&mut self, e: u64) {
        match self {
            Rep::Inline { len, buf } if (*len as usize) < INLINE => {
                buf[*len as usize] = e;
                *len += 1;
            }
            Rep::Inline { buf, .. } => {
                let mut v = Vec::with_capacity(INLINE * 2);
                v.extend_from_slice(buf);
                v.push(e);
                *self = Rep::Spilled(v);
            }
            Rep::Spilled(v) => v.push(e),
        }
    }

    fn from_sorted(v: Vec<u64>) -> Self {
        if v.len() <= INLINE {
            let mut buf = [0u64; INLINE];
            buf[..v.len()].copy_from_slice(&v);
            Rep::Inline {
                len: v.len() as u8,
                buf,
            }
        } else {
            Rep::Spilled(v)
        }
    }
}

impl Default for Rep {
    fn default() -> Self {
        Rep::Inline {
            len: 0,
            buf: [0; INLINE],
        }
    }
}

/// A set of points-to triples over interned locations, stored as one
/// sorted array of packed `u64` words (see the module docs).
#[derive(Clone, Default)]
pub struct PtSet {
    rep: Rep,
}

impl PartialEq for PtSet {
    fn eq(&self, other: &Self) -> bool {
        self.rep.as_slice() == other.rep.as_slice()
    }
}

impl Eq for PtSet {}

impl fmt::Debug for PtSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set()
            .entries(self.iter().map(|(s, t, d)| (s.0, t.0, d)))
            .finish()
    }
}

impl PtSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from triples given in strictly increasing
    /// `(source, target)` order, appending each word without a search.
    /// `None` if a pair repeats or comes out of order, or a target does
    /// not fit the packed field; otherwise the set equals the one
    /// [`PtSet::insert`] builds from the same triples.
    pub fn from_sorted(triples: impl IntoIterator<Item = (LocId, LocId, Def)>) -> Option<PtSet> {
        let mut rep = Rep::default();
        let mut last = None;
        for (src, tgt, d) in triples {
            if tgt.0 >= 1 << 31 {
                return None;
            }
            let e = pack(src, tgt, d);
            if last.is_some_and(|k| e & KEY_MASK <= k) {
                return None;
            }
            last = Some(e & KEY_MASK);
            rep.push(e);
        }
        Some(PtSet { rep })
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.rep.as_slice().len()
    }

    /// True if there are no triples.
    pub fn is_empty(&self) -> bool {
        self.rep.as_slice().is_empty()
    }

    /// A content fingerprint (FNV-1a over the packed words). Equal sets
    /// hash equal; used by the trace layer as a compact input-context
    /// id for memo hit/miss events and by the store to match warm
    /// context pairs.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::fingerprint::Fnv1a::new();
        for &w in self.rep.as_slice() {
            h.write_u64(w);
        }
        h.finish()
    }

    /// Index of the pair `(src, tgt)` if present, else its insertion
    /// point.
    #[inline]
    fn pair_index(&self, src: LocId, tgt: LocId) -> Result<usize, usize> {
        let k = key(src, tgt);
        let s = self.rep.as_slice();
        let i = s.partition_point(|&e| (e & KEY_MASK) < k);
        if s.get(i).is_some_and(|&e| e & KEY_MASK == k) {
            Ok(i)
        } else {
            Err(i)
        }
    }

    /// The contiguous index range of triples whose source is `src`.
    #[inline]
    fn source_range(&self, src: LocId) -> std::ops::Range<usize> {
        let s = self.rep.as_slice();
        let lo = (src.0 as u64) << 32;
        let hi = ((src.0 as u64) + 1) << 32;
        s.partition_point(|&e| e < lo)..s.partition_point(|&e| e < hi)
    }

    /// The definiteness of `(src, tgt)` if present.
    pub fn get(&self, src: LocId, tgt: LocId) -> Option<Def> {
        self.pair_index(src, tgt)
            .ok()
            .map(|i| unpack_def(self.rep.as_slice()[i]))
    }

    /// True if the triple `(src, tgt, d)` with any definiteness exists.
    pub fn contains(&self, src: LocId, tgt: LocId) -> bool {
        self.pair_index(src, tgt).is_ok()
    }

    /// The targets of `src` with their definiteness.
    pub fn targets(&self, src: LocId) -> impl Iterator<Item = (LocId, Def)> + '_ {
        let r = self.source_range(src);
        self.rep.as_slice()[r]
            .iter()
            .map(|&e| (unpack_tgt(e), unpack_def(e)))
    }

    /// Number of targets of `src`.
    pub fn target_count(&self, src: LocId) -> usize {
        self.source_range(src).len()
    }

    /// Inserts a triple. If the pair already exists, `D` wins: an
    /// insertion is a *generated* fact at the current point, which can
    /// only sharpen what survived kill/change processing.
    pub fn insert(&mut self, src: LocId, tgt: LocId, d: Def) {
        match self.pair_index(src, tgt) {
            Ok(i) => {
                if d == Def::D {
                    self.rep.as_mut_slice()[i] |= D_BIT;
                }
            }
            Err(i) => self.rep.insert_at(i, pack(src, tgt, d)),
        }
    }

    /// Inserts a triple, weakening to `P` if the pair already exists with
    /// a different definiteness (used when accumulating from multiple
    /// contexts).
    pub fn insert_weak(&mut self, src: LocId, tgt: LocId, d: Def) {
        match self.pair_index(src, tgt) {
            Ok(i) => {
                let e = &mut self.rep.as_mut_slice()[i];
                if unpack_def(*e) != d {
                    *e &= KEY_MASK;
                }
            }
            Err(i) => self.rep.insert_at(i, pack(src, tgt, d)),
        }
    }

    /// Removes every triple whose source is `src` ("kill").
    pub fn kill_from(&mut self, src: LocId) {
        let r = self.source_range(src);
        if !r.is_empty() {
            self.rep.remove_range(r);
        }
    }

    /// Demotes every triple from `src` to `P` ("change").
    pub fn demote_from(&mut self, src: LocId) {
        let r = self.source_range(src);
        for e in &mut self.rep.as_mut_slice()[r] {
            *e &= KEY_MASK;
        }
    }

    /// Removes a specific triple.
    pub fn remove(&mut self, src: LocId, tgt: LocId) {
        if let Ok(i) = self.pair_index(src, tgt) {
            self.rep.remove_range(i..i + 1);
        }
    }

    /// Merges two flow facts at a control-flow join: a pair definite in
    /// both stays definite; a pair present in only one side, or possible
    /// in either, is possible (Definition 3.3). A sorted merge-join.
    pub fn merge(&self, other: &PtSet) -> PtSet {
        let (a, b) = (self.rep.as_slice(), other.rep.as_slice());
        let mut out = Vec::with_capacity(a.len().max(b.len()));
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (ka, kb) = (a[i] & KEY_MASK, b[j] & KEY_MASK);
            match ka.cmp(&kb) {
                std::cmp::Ordering::Equal => {
                    // D ∧ D = D: the definiteness bits AND together.
                    out.push(ka | (a[i] & b[j] & D_BIT));
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    out.push(ka); // one-sided → P
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(kb);
                    j += 1;
                }
            }
        }
        out.extend(a[i..].iter().map(|e| e & KEY_MASK));
        out.extend(b[j..].iter().map(|e| e & KEY_MASK));
        PtSet {
            rep: Rep::from_sorted(out),
        }
    }

    /// Accumulates `other` into `self` with [`PtSet::insert_weak`]
    /// semantics (union; conflicting definiteness becomes `P`). Unlike
    /// [`PtSet::merge`], pairs present on only one side keep their
    /// definiteness — used for per-statement statistics over contexts.
    /// A sorted merge-join.
    pub fn absorb(&mut self, other: &PtSet) {
        self.absorb_sorted(other.rep.as_slice());
    }

    /// Weak-unions a batch of triples in any order: the result equals
    /// calling [`PtSet::insert_weak`] on each in turn. One sort, the
    /// duplicates folded (their `D` bits AND together, as repeated
    /// weak inserts do), then one merge-join.
    pub(crate) fn weak_union(&mut self, triples: impl IntoIterator<Item = (LocId, LocId, Def)>) {
        let mut batch: Vec<u64> = triples.into_iter().map(|(s, t, d)| pack(s, t, d)).collect();
        batch.sort_unstable();
        let mut w = 0;
        for r in 0..batch.len() {
            let e = batch[r];
            if w > 0 && batch[w - 1] & KEY_MASK == e & KEY_MASK {
                batch[w - 1] &= e | KEY_MASK;
            } else {
                batch[w] = e;
                w += 1;
            }
        }
        batch.truncate(w);
        self.absorb_sorted(&batch);
    }

    /// [`PtSet::absorb`] over sorted packed words with unique keys.
    fn absorb_sorted(&mut self, b: &[u64]) {
        if b.is_empty() {
            return;
        }
        let a = self.rep.as_slice();
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (ka, kb) = (a[i] & KEY_MASK, b[j] & KEY_MASK);
            match ka.cmp(&kb) {
                std::cmp::Ordering::Equal => {
                    out.push(ka | (a[i] & b[j] & D_BIT));
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        self.rep = Rep::from_sorted(out);
    }

    /// Kills or demotes the triples of several sources in one pass:
    /// `(src, true)` removes every triple from `src` like
    /// [`PtSet::kill_from`], `(src, false)` demotes them to `P` like
    /// [`PtSet::demote_from`]. `sources` must be in strictly ascending
    /// source order.
    pub(crate) fn kill_or_demote(&mut self, sources: &[(LocId, bool)]) {
        debug_assert!(
            sources.windows(2).all(|w| w[0].0 < w[1].0),
            "sources must be strictly ascending"
        );
        let s = self.rep.as_mut_slice();
        let (mut w, mut k) = (0, 0);
        for r in 0..s.len() {
            let e = s[r];
            let src = unpack_src(e);
            while k < sources.len() && sources[k].0 < src {
                k += 1;
            }
            let e = match sources.get(k) {
                Some(&(l, kill)) if l == src => {
                    if kill {
                        continue;
                    }
                    e & KEY_MASK
                }
                _ => e,
            };
            s[w] = e;
            w += 1;
        }
        self.rep.truncate(w);
    }

    /// True if analyzing with `other` as input subsumes analyzing with
    /// `self`: every triple of `self` appears in `other`, and a
    /// possible triple in `self` is not claimed definite by `other`
    /// (a definite claim is *stronger*, so it would not be a safe
    /// generalization). A sorted two-pointer walk.
    pub fn subset_of(&self, other: &PtSet) -> bool {
        let (a, b) = (self.rep.as_slice(), other.rep.as_slice());
        let mut j = 0;
        for &ea in a {
            let ka = ea & KEY_MASK;
            while j < b.len() && (b[j] & KEY_MASK) < ka {
                j += 1;
            }
            if j >= b.len() || b[j] & KEY_MASK != ka {
                return false;
            }
            // Fails only when `other` claims D for a pair `self` has
            // as P (bit arithmetic: D = 1 > P = 0).
            if ea & D_BIT < b[j] & D_BIT {
                return false;
            }
            j += 1;
        }
        true
    }

    /// Iterates all triples in deterministic `(source, target)` order.
    pub fn iter(&self) -> impl Iterator<Item = (LocId, LocId, Def)> + '_ {
        self.rep
            .as_slice()
            .iter()
            .map(|&e| (unpack_src(e), unpack_tgt(e), unpack_def(e)))
    }

    /// Iterates all source locations (ascending, deduplicated).
    pub fn sources(&self) -> impl Iterator<Item = LocId> + '_ {
        let s = self.rep.as_slice();
        let mut i = 0;
        std::iter::from_fn(move || {
            if i >= s.len() {
                return None;
            }
            let src = unpack_src(s[i]);
            while i < s.len() && unpack_src(s[i]) == src {
                i += 1;
            }
            Some(src)
        })
    }

    /// Retains only the triples satisfying the predicate.
    pub fn retain(&mut self, mut pred: impl FnMut(LocId, LocId, Def) -> bool) {
        let s = self.rep.as_mut_slice();
        let mut w = 0;
        for r in 0..s.len() {
            let e = s[r];
            if pred(unpack_src(e), unpack_tgt(e), unpack_def(e)) {
                s[w] = e;
                w += 1;
            }
        }
        self.rep.truncate(w);
    }
}

impl FromIterator<(LocId, LocId, Def)> for PtSet {
    fn from_iter<I: IntoIterator<Item = (LocId, LocId, Def)>>(iter: I) -> Self {
        let mut s = PtSet::new();
        for (a, b, d) in iter {
            s.insert(a, b, d);
        }
        s
    }
}

impl Extend<(LocId, LocId, Def)> for PtSet {
    fn extend<I: IntoIterator<Item = (LocId, LocId, Def)>>(&mut self, iter: I) {
        for (a, b, d) in iter {
            self.insert(a, b, d);
        }
    }
}

/// A flow fact: `None` is ⊥ (program point unreachable), used as the
/// initial output estimate of recursive nodes (Figure 4) and for paths
/// cut by `break`/`return`/`exit`.
pub type Flow = Option<PtSet>;

/// Merges two flow facts (`⊥` is the identity).
pub fn merge_flow(a: Flow, b: Flow) -> Flow {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(x), Some(y)) => Some(x.merge(&y)),
    }
}

/// `a ⊆ b` on flow facts (`⊥` is below everything).
pub fn flow_subset(a: &Flow, b: &Flow) -> bool {
    match (a, b) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some(x), Some(y)) => x.subset_of(y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LocId {
        LocId(i)
    }

    #[test]
    fn insert_and_query() {
        let mut s = PtSet::new();
        s.insert(l(0), l(1), Def::D);
        s.insert(l(0), l(2), Def::P);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(l(0), l(1)), Some(Def::D));
        assert_eq!(s.target_count(l(0)), 2);
        assert_eq!(s.target_count(l(1)), 0);
    }

    #[test]
    fn insert_d_wins_over_p() {
        let mut s = PtSet::new();
        s.insert(l(0), l(1), Def::P);
        s.insert(l(0), l(1), Def::D);
        assert_eq!(s.get(l(0), l(1)), Some(Def::D));
        // And D stays D when P inserted after.
        s.insert(l(0), l(1), Def::P);
        assert_eq!(s.get(l(0), l(1)), Some(Def::D));
    }

    #[test]
    fn insert_weak_conflict_becomes_p() {
        let mut s = PtSet::new();
        s.insert_weak(l(0), l(1), Def::D);
        assert_eq!(s.get(l(0), l(1)), Some(Def::D));
        s.insert_weak(l(0), l(1), Def::P);
        assert_eq!(s.get(l(0), l(1)), Some(Def::P));
    }

    #[test]
    fn kill_and_demote() {
        let mut s = PtSet::new();
        s.insert(l(0), l(1), Def::D);
        s.insert(l(0), l(2), Def::D);
        s.insert(l(3), l(1), Def::D);
        s.demote_from(l(0));
        assert_eq!(s.get(l(0), l(1)), Some(Def::P));
        assert_eq!(s.get(l(3), l(1)), Some(Def::D));
        s.kill_from(l(0));
        assert_eq!(s.target_count(l(0)), 0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn merge_definiteness_rules() {
        let mut a = PtSet::new();
        a.insert(l(0), l(1), Def::D); // D on both sides → D
        a.insert(l(0), l(2), Def::D); // only on this side → P
        a.insert(l(0), l(3), Def::P); // P+D → P
        let mut b = PtSet::new();
        b.insert(l(0), l(1), Def::D);
        b.insert(l(0), l(3), Def::D);
        b.insert(l(4), l(5), Def::P); // only on that side → P
        let m = a.merge(&b);
        assert_eq!(m.get(l(0), l(1)), Some(Def::D));
        assert_eq!(m.get(l(0), l(2)), Some(Def::P));
        assert_eq!(m.get(l(0), l(3)), Some(Def::P));
        assert_eq!(m.get(l(4), l(5)), Some(Def::P));
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = PtSet::new();
        a.insert(l(0), l(1), Def::D);
        a.insert(l(2), l(3), Def::P);
        let mut b = PtSet::new();
        b.insert(l(0), l(1), Def::P);
        b.insert(l(5), l(6), Def::D);
        assert_eq!(a.merge(&b), b.merge(&a));
    }

    #[test]
    fn subset_semantics() {
        let mut small = PtSet::new();
        small.insert(l(0), l(1), Def::D);
        let mut big = PtSet::new();
        big.insert(l(0), l(1), Def::P);
        big.insert(l(0), l(2), Def::P);
        // D input is subsumed by a more general P input.
        assert!(small.subset_of(&big));
        assert!(!big.subset_of(&small));
        // A definite claim does NOT subsume a possible fact.
        let mut dset = PtSet::new();
        dset.insert(l(0), l(1), Def::D);
        let mut pset = PtSet::new();
        pset.insert(l(0), l(1), Def::P);
        assert!(!pset.subset_of(&dset));
        assert!(dset.subset_of(&pset));
    }

    #[test]
    fn flow_merge_bottom_is_identity() {
        let mut a = PtSet::new();
        a.insert(l(0), l(1), Def::D);
        let m = merge_flow(Some(a.clone()), None);
        assert_eq!(m, Some(a.clone()));
        let m2 = merge_flow(None, Some(a.clone()));
        assert_eq!(m2, Some(a));
        assert_eq!(merge_flow(None, None), None);
    }

    #[test]
    fn absorb_keeps_one_sided_defs() {
        let mut a = PtSet::new();
        a.insert(l(0), l(1), Def::D);
        let mut b = PtSet::new();
        b.insert(l(2), l(3), Def::D);
        a.absorb(&b);
        assert_eq!(a.get(l(2), l(3)), Some(Def::D));
        assert_eq!(a.get(l(0), l(1)), Some(Def::D));
    }

    #[test]
    fn retain_filters() {
        let mut s = PtSet::new();
        s.insert(l(0), l(1), Def::D);
        s.insert(l(2), l(3), Def::P);
        s.retain(|_, _, d| d == Def::D);
        assert_eq!(s.len(), 1);
        assert!(s.contains(l(0), l(1)));
    }

    // ---- packed-representation specifics --------------------------------

    #[test]
    fn spill_past_inline_capacity_preserves_order_and_content() {
        let mut s = PtSet::new();
        // Insert out of order, well past the inline capacity.
        for i in (0..40u32).rev() {
            s.insert(l(i % 7), l(i), if i % 3 == 0 { Def::D } else { Def::P });
        }
        assert_eq!(s.len(), 40);
        let triples: Vec<_> = s.iter().collect();
        let mut sorted = triples.clone();
        sorted.sort_by_key(|(a, b, _)| (*a, *b));
        assert_eq!(triples, sorted, "iteration is (source, target) ordered");
        for (src, tgt, d) in triples {
            assert_eq!(s.get(src, tgt), Some(d));
        }
    }

    #[test]
    fn equality_ignores_storage_mode() {
        let mut a = PtSet::new();
        for i in 0..20u32 {
            a.insert(l(0), l(i), Def::P);
        }
        for i in 1..20u32 {
            a.remove(l(0), l(i)); // spilled, then shrunk back to 1
        }
        let mut b = PtSet::new();
        b.insert(l(0), l(0), Def::P);
        assert_eq!(a, b);
    }

    #[test]
    fn from_sorted_matches_insert_on_both_storage_modes() {
        for n in [0u32, 1, 6, 7, 40] {
            let triples: Vec<_> = (0..n)
                .map(|i| (l(i / 3), l(i), if i % 2 == 0 { Def::D } else { Def::P }))
                .collect();
            let mut built = PtSet::new();
            for &(s, t, d) in triples.iter().rev() {
                built.insert(s, t, d);
            }
            assert_eq!(PtSet::from_sorted(triples), Some(built), "{n} triples");
        }
        let top = (l(u32::MAX), l((1 << 31) - 1), Def::D);
        let s = PtSet::from_sorted([(l(0), l(0), Def::P), top]).unwrap();
        assert_eq!(s.iter().last(), Some(top));
    }

    #[test]
    fn from_sorted_rejects_order_violations() {
        let (a, b) = ((l(1), l(2), Def::D), (l(1), l(3), Def::P));
        assert!(PtSet::from_sorted([a, b]).is_some());
        assert_eq!(PtSet::from_sorted([b, a]), None, "descending");
        assert_eq!(PtSet::from_sorted([a, a]), None, "repeated triple");
        assert_eq!(
            PtSet::from_sorted([a, (l(1), l(2), Def::P)]),
            None,
            "same pair, other definiteness"
        );
        assert_eq!(PtSet::from_sorted([(l(0), l(1 << 31), Def::P)]), None);
        // An order violation past the inline capacity is caught too.
        let mut long: Vec<_> = (0..9).map(|i| (l(0), l(i), Def::P)).collect();
        long.swap(7, 8);
        assert_eq!(PtSet::from_sorted(long), None);
    }

    // ---- batch operations vs their one-triple-at-a-time definitions ----

    /// A random definiteness.
    fn def(g: &mut pta_prop::Rng) -> Def {
        if g.ratio(1, 2) {
            Def::D
        } else {
            Def::P
        }
    }

    /// A set of exactly `n` distinct pairs over a small id space, so
    /// random triples collide with its pairs; `n` is drawn around the
    /// 6/7 inline boundary and well past it.
    fn random_set(g: &mut pta_prop::Rng) -> PtSet {
        let n = *g.pick(&[0usize, 1, 5, 6, 7, 8, 24, 40]);
        let mut s = PtSet::new();
        while s.len() < n {
            let (src, tgt) = (g.u32(0..8), g.u32(0..8));
            let d = def(g);
            s.insert(l(src), l(tgt), d);
        }
        s
    }

    /// Random triples over the same id space, with repeated pairs of
    /// mixed definiteness, and now and then ids at the top of the
    /// packed fields.
    fn random_triples(g: &mut pta_prop::Rng) -> Vec<(LocId, LocId, Def)> {
        let n = g.usize(0..24);
        (0..n)
            .map(|_| {
                let (src, tgt) = if g.ratio(1, 16) {
                    (l(u32::MAX), l((1 << 31) - 1))
                } else {
                    (l(g.u32(0..8)), l(g.u32(0..8)))
                };
                (src, tgt, def(g))
            })
            .collect()
    }

    #[test]
    fn prop_weak_union_equals_an_insert_weak_loop() {
        pta_prop::check("weak_union ≡ insert_weak loop", 512, |g| {
            let base = random_set(g);
            let triples = random_triples(g);
            let mut want = base.clone();
            for &(s, t, d) in &triples {
                want.insert_weak(s, t, d);
            }
            let mut got = base;
            got.weak_union(triples);
            assert_eq!(got, want);
            assert!(got.iter().is_sorted_by_key(|(s, t, _)| (s, t)));
        });
    }

    #[test]
    fn prop_kill_or_demote_equals_per_source_kill_and_demote() {
        pta_prop::check("kill_or_demote ≡ kill_from/demote_from", 512, |g| {
            let base = random_set(g);
            let mut sources = Vec::new();
            for i in 0..9u32 {
                if g.ratio(1, 2) {
                    sources.push((l(i), g.ratio(1, 2)));
                }
            }
            let mut want = base.clone();
            for &(src, kill) in &sources {
                if kill {
                    want.kill_from(src);
                } else {
                    want.demote_from(src);
                }
            }
            let mut got = base;
            got.kill_or_demote(&sources);
            assert_eq!(got, want);
        });
    }

    #[test]
    fn prop_absorb_equals_the_per_triple_loop() {
        pta_prop::check("absorb ≡ insert_weak per triple", 512, |g| {
            let (a, b) = (random_set(g), random_set(g));
            let mut want = a.clone();
            for (s, t, d) in b.iter() {
                want.insert_weak(s, t, d);
            }
            let mut got = a;
            got.absorb(&b);
            assert_eq!(got, want);
        });
    }

    #[test]
    fn kill_removes_a_contiguous_run_in_a_spilled_set() {
        let mut s = PtSet::new();
        for i in 0..10u32 {
            s.insert(l(1), l(i), Def::P);
        }
        s.insert(l(0), l(0), Def::D);
        s.insert(l(2), l(0), Def::D);
        s.kill_from(l(1));
        assert_eq!(s.len(), 2);
        assert!(s.contains(l(0), l(0)));
        assert!(s.contains(l(2), l(0)));
    }
}
