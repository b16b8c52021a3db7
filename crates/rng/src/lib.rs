//! Tiny deterministic PRNG for the EagleEye workspace.
//!
//! The sandboxed build environment has no network access, so the
//! workspace cannot depend on the `rand` crate. Every consumer of
//! randomness in this repository — the synthetic dataset generators,
//! the analytic detector models, and the fault-injection layer — only
//! needs a seeded, reproducible, statistically-decent stream of `u64`s,
//! which [splitmix64] delivers in a dozen lines with no dependencies.
//!
//! Streams are deterministic in the seed and portable across platforms
//! (pure integer arithmetic; the `u64 → f64` conversion uses the top 53
//! bits, the standard exact mapping onto `[0, 1)`).
//!
//! [splitmix64]: https://prng.di.unimi.it/splitmix64.c
//!
//! # Example
//!
//! ```
//! use eagleeye_rng::SplitMix64;
//!
//! let mut a = SplitMix64::new(42);
//! let mut b = SplitMix64::new(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let x = a.range_f64(10.0, 20.0);
//! assert!((10.0..20.0).contains(&x));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]

/// One round of the splitmix64 output function: a bijective avalanche
/// mix of `z`. Useful on its own for stateless hashing of identifiers
/// (e.g. deriving per-entity fault rolls from `(seed, entity, time)`).
#[inline]
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded splitmix64 generator.
///
/// Not cryptographic — it is a simulation/testing PRNG with full 64-bit
/// state, period 2^64, and excellent avalanche behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derives an independent generator keyed by `salt` without
    /// disturbing this generator's stream. Two forks with different
    /// salts (or from different parent seeds) produce unrelated
    /// streams — the mechanism behind per-subsystem fault streams.
    #[must_use]
    pub fn fork(&self, salt: u64) -> SplitMix64 {
        SplitMix64 {
            state: mix64(self.state ^ mix64(salt)),
        }
    }

    /// Current internal state. `SplitMix64::new(self.state())` yields a
    /// generator that continues this exact stream — the mechanism
    /// behind `eagleeye-check`'s replayable failure seeds.
    #[inline]
    #[must_use]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `[lo, hi)`. Degenerate ranges (`hi <= lo`)
    /// return `lo`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        if !(hi > lo) {
            return lo;
        }
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer draw in `[lo, hi)`. Degenerate ranges return
    /// `lo`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        if hi <= lo {
            return lo;
        }
        let span = (hi - lo) as u64;
        // Multiply-shift mapping; the bias is < span / 2^64, irrelevant
        // for simulation use.
        lo + (((self.next_u64() as u128 * span as u128) >> 64) as u64) as usize
    }

    /// Uniform integer draw in `[lo, hi]` (inclusive).
    pub fn range_usize_inclusive(&mut self, lo: usize, hi: usize) -> usize {
        if hi < lo {
            return lo;
        }
        self.range_usize(lo, hi.saturating_add(1).max(hi))
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to
    /// `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if !(p > 0.0) {
            return false;
        }
        self.next_f64() < p
    }

    /// Standard-normal draw (Box–Muller, cosine branch).
    pub fn gaussian(&mut self) -> f64 {
        let u1 = self.range_f64(1e-12, 1.0);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn matches_reference_vector() {
        // Reference outputs of splitmix64 with seed 1234567.
        let mut r = SplitMix64::new(1234567);
        let got: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                6_457_827_717_110_365_317,
                3_203_168_211_198_807_973,
                9_817_491_932_198_370_423,
            ]
        );
    }

    #[test]
    fn f64_is_unit_interval_and_uniformish() {
        let mut r = SplitMix64::new(99);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SplitMix64::new(5);
        for _ in 0..1000 {
            let x = r.range_f64(-3.0, 8.5);
            assert!((-3.0..8.5).contains(&x));
            let i = r.range_usize(4, 9);
            assert!((4..9).contains(&i));
            let j = r.range_usize_inclusive(2, 4);
            assert!((2..=4).contains(&j));
        }
    }

    #[test]
    fn degenerate_ranges_return_lo() {
        let mut r = SplitMix64::new(5);
        assert_eq!(r.range_f64(3.0, 3.0), 3.0);
        assert_eq!(r.range_usize(7, 7), 7);
        assert_eq!(r.range_usize_inclusive(7, 6), 7);
    }

    #[test]
    fn chance_extremes_and_frequency() {
        let mut r = SplitMix64::new(11);
        assert!(r.chance(1.0));
        assert!(!r.chance(0.0));
        assert!(!r.chance(f64::NAN));
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits {hits}");
    }

    #[test]
    fn gaussian_moments() {
        let mut r = SplitMix64::new(3);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn forks_are_independent_and_reproducible() {
        let parent = SplitMix64::new(21);
        let mut f1 = parent.fork(0);
        let mut f2 = parent.fork(1);
        let mut f1b = parent.fork(0);
        assert_ne!(f1.next_u64(), f2.next_u64());
        assert_eq!(SplitMix64::new(21).fork(0).next_u64(), f1b.next_u64());
    }

    #[test]
    fn mix64_is_deterministic_and_avalanches() {
        assert_eq!(mix64(0), mix64(0));
        // Flipping one input bit flips roughly half the output bits.
        let d = (mix64(0x1234) ^ mix64(0x1235)).count_ones();
        assert!((20..=44).contains(&d), "avalanche {d}");
    }
}
