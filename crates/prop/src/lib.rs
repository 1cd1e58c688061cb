//! # pta-prop — a tiny deterministic property-testing harness
//!
//! The repository's build environment has no access to crates.io, so
//! `proptest` cannot be used. This crate provides the small slice of
//! property-based testing the PTA suites need: a fast deterministic
//! generator ([`Rng`], SplitMix64), convenience samplers, and a case
//! runner ([`check`]) that reports the failing case seed so any failure
//! can be replayed exactly.
//!
//! ```
//! pta_prop::check("addition commutes", 256, |g| {
//!     let a = g.u64(0..1_000);
//!     let b = g.u64(0..1_000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

pub mod cgen;
pub mod chaos;
pub mod load;
pub mod serve;
pub mod stress;
pub mod warm;

/// Default base seed; fixed so CI runs are reproducible.
pub const DEFAULT_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// A SplitMix64 generator: tiny, fast, and plenty for test data.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator with the given seed.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[range.start, range.end)`.
    pub fn u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end - range.start;
        range.start + self.next_u64() % span
    }

    /// A uniform `u32` in the range.
    pub fn u32(&mut self, range: std::ops::Range<u32>) -> u32 {
        self.u64(range.start as u64..range.end as u64) as u32
    }

    /// A uniform `usize` in the range.
    pub fn usize(&mut self, range: std::ops::Range<usize>) -> usize {
        self.u64(range.start as u64..range.end as u64) as usize
    }

    /// A uniform `u8`.
    pub fn u8(&mut self) -> u8 {
        self.next_u64() as u8
    }

    /// True with probability `num / den`.
    pub fn ratio(&mut self, num: u64, den: u64) -> bool {
        self.u64(0..den) < num
    }

    /// A random element of the slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.usize(0..items.len())]
    }

    /// A vector of `len ∈ [range)` elements drawn from `f`.
    pub fn vec<T>(
        &mut self,
        range: std::ops::Range<usize>,
        mut f: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        let n = self.usize(range);
        (0..n).map(|_| f(self)).collect()
    }

    /// An ASCII string of `len ∈ [range)` characters in `[' ', '~']`
    /// plus newlines.
    pub fn ascii_soup(&mut self, range: std::ops::Range<usize>) -> String {
        let n = self.usize(range);
        (0..n)
            .map(|_| {
                if self.ratio(1, 20) {
                    '\n'
                } else {
                    (b' ' + (self.next_u64() % 95) as u8) as char
                }
            })
            .collect()
    }

    /// A lowercase identifier (`[a-z_][a-z0-9_]{0,max-1}`).
    pub fn ident(&mut self, max: usize) -> String {
        const HEAD: &[u8] = b"abcdefghijklmnopqrstuvwxyz_";
        const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
        let n = self.usize(1..max.max(2));
        let mut s = String::new();
        s.push(HEAD[self.usize(0..HEAD.len())] as char);
        for _ in 1..n {
            s.push(TAIL[self.usize(0..TAIL.len())] as char);
        }
        s
    }
}

/// Runs `cases` generated test cases. Each case gets an independent,
/// deterministic generator; a failing case panics with its name, index,
/// and seed so it can be reproduced with [`replay`].
pub fn check(name: &str, cases: u32, mut f: impl FnMut(&mut Rng)) {
    check_seeded(name, DEFAULT_SEED, cases, &mut f);
}

/// [`check`] with an explicit base seed.
pub fn check_seeded(name: &str, base_seed: u64, cases: u32, f: &mut impl FnMut(&mut Rng)) {
    for case in 0..cases {
        let seed = case_seed(base_seed, case);
        let mut g = Rng::new(seed);
        let result = catch_unwind(AssertUnwindSafe(|| f(&mut g)));
        if let Err(payload) = result {
            eprintln!(
                "property `{name}` failed at case {case}/{cases} \
                 (replay with pta_prop::replay({seed:#x}, ..))"
            );
            resume_unwind(payload);
        }
    }
}

/// Re-runs a single case from the seed printed by a failing [`check`].
pub fn replay(seed: u64, mut f: impl FnMut(&mut Rng)) {
    let mut g = Rng::new(seed);
    f(&mut g);
}

/// The derived seed for `case` under `base` — the value a failing
/// [`check`] prints, and what the stress harness records per case.
pub fn case_seed(base: u64, case: u32) -> u64 {
    // One SplitMix64 step decorrelates consecutive case seeds. The mix
    // must be injective in `case`: an OR against a dense constant (as an
    // earlier version used) absorbs the case bits and hands many cases
    // the same seed.
    Rng::new(base.wrapping_add((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_are_respected() {
        let mut g = Rng::new(7);
        for _ in 0..1000 {
            let v = g.u64(10..20);
            assert!((10..20).contains(&v));
            let u = g.usize(0..3);
            assert!(u < 3);
        }
    }

    #[test]
    fn vec_and_ident_shapes() {
        let mut g = Rng::new(3);
        let v = g.vec(2..5, |g| g.u32(0..10));
        assert!((2..5).contains(&v.len()));
        for _ in 0..50 {
            let id = g.ident(8);
            assert!(!id.is_empty() && id.len() < 8);
            let first = id.as_bytes()[0];
            assert!(first == b'_' || first.is_ascii_lowercase());
        }
    }

    #[test]
    fn case_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for case in 0..4096 {
            assert!(
                seen.insert(case_seed(DEFAULT_SEED, case)),
                "seed collision at case {case}"
            );
        }
    }

    #[test]
    fn check_runs_all_cases() {
        let mut n = 0u32;
        check("counter", 25, |_| n += 1);
        assert_eq!(n, 25);
    }

    #[test]
    fn failing_case_reports_seed() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            check("always fails", 3, |_| panic!("boom"));
        }));
        assert!(caught.is_err());
    }
}
