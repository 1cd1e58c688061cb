//! Order statistics and digests.

/// The median (mean of the middle two for an even count), as Python's
/// `statistics.median`. `NaN` for no values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), the rule
/// the spread of repeated runs is judged by.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The nearest-rank percentile `p` (0–100) of sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples, in
/// integer arithmetic so that 90% of 100 is exactly 90.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000)
}

/// The tail percentiles reported, highest first.
const TAILS: [f64; 2] = [99.0, 90.0];

/// The highest of p99 and p90 with at least ten samples beyond it
/// (p50 when even p90 has fewer).
pub fn tail_percentile(samples: usize) -> f64 {
    TAILS
        .into_iter()
        .find(|&p| samples - rank(samples, p) >= 10)
        .unwrap_or(50.0)
}

/// Samples needed before `p` has ten beyond it.
pub fn samples_for(p: f64) -> usize {
    (1..).find(|&n| n - rank(n, p) >= 10).expect("p below 100")
}

/// A copy of `values` in ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 64-bit FNV-1a: a digest that is stable across builds and platforms,
/// as committed golden digests need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds in bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in one integer.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// The digest of a string.
    pub fn of(s: &str) -> u64 {
        let mut h = Fnv::default();
        h.bytes(s.as_bytes());
        h.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(34_000), 99.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(160), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(samples_for(99.0), 1000);
        assert_eq!(samples_for(90.0), 100);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
