//! Named, independently seeded random-number streams.
//!
//! Every source of randomness in the workspace (cold-start jitter, branch
//! outcomes, arrival processes, random tree topology, …) draws from its own
//! [`RngStream`], derived from a master seed plus the stream's name. This
//! gives two properties the experiments rely on:
//!
//! 1. **Reproducibility** — a given master seed regenerates every figure
//!    bit-identically.
//! 2. **Isolation** — adding a new consumer of randomness (a new stream)
//!    never perturbs the draws seen by existing streams.

use crate::time::SimDuration;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV-1a hash of `bytes`: the workspace's one stable digest
/// (report digests, checkpoint manifests, tenant assignment, stream
/// derivation).
///
/// ```
/// assert_eq!(xanadu_simcore::fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(xanadu_simcore::fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a64::default();
    hash.update(bytes);
    hash.finish()
}

/// [`fnv1a64`] rendered as the `fnv1a64:<16 hex digits>` digest string
/// the CLI prints and checkpoint manifests store.
pub fn fnv1a64_digest(bytes: &[u8]) -> String {
    let mut hash = Fnv1a64::default();
    hash.update(bytes);
    hash.digest()
}

/// An incremental [`fnv1a64`]: bytes fed in pieces hash as their
/// concatenation. As a [`fmt::Write`] sink it digests a document while
/// the document is written, without holding its text.
///
/// ```
/// use std::fmt::Write;
/// let mut hash = xanadu_simcore::Fnv1a64::default();
/// write!(hash, "{}{}", "a", "bc").unwrap();
/// assert_eq!(hash.digest(), xanadu_simcore::fnv1a64_digest(b"abc"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64(FNV_OFFSET)
    }
}

impl Fnv1a64 {
    /// Hashes `bytes` after everything fed so far.
    pub fn update(&mut self, bytes: &[u8]) {
        self.0 = fnv1a64_extend(self.0, bytes);
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// [`finish`](Fnv1a64::finish) as a `fnv1a64:<16 hex digits>` string.
    pub fn digest(&self) -> String {
        format!("fnv1a64:{:016x}", self.0)
    }
}

impl fmt::Write for Fnv1a64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Continues an FNV-1a hash whose state so far is `hash`.
fn fnv1a64_extend(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// A deterministic random-number stream derived from a master seed and a
/// stream name.
///
/// # Example
///
/// ```
/// use xanadu_simcore::RngStream;
///
/// let mut a1 = RngStream::derive(42, "arrivals");
/// let mut a2 = RngStream::derive(42, "arrivals");
/// let mut b = RngStream::derive(42, "branches");
///
/// assert_eq!(a1.next_u64(), a2.next_u64()); // same seed+name → same draws
/// let _ = b.next_u64();                     // independent stream
/// ```
#[derive(Debug, Clone)]
pub struct RngStream {
    rng: SmallRng,
}

impl RngStream {
    /// Derives a stream from a master seed and a stream name.
    ///
    /// The (seed, name) pair is hashed with FNV-1a into a 64-bit sub-seed;
    /// FNV is not cryptographic but is stable across Rust versions (unlike
    /// `DefaultHasher`), which keeps recorded experiment outputs valid.
    pub fn derive(master_seed: u64, name: &str) -> Self {
        let h = fnv1a64_extend(fnv1a64(&master_seed.to_le_bytes()), name.as_bytes());
        RngStream {
            rng: SmallRng::seed_from_u64(h),
        }
    }

    /// Derives a child stream, e.g. one per simulated request or tree.
    pub fn child(&self, index: u64) -> Self {
        // Mix the parent's next state indirectly: derive from a clone so the
        // parent's own sequence is not consumed.
        let mut probe = self.clone();
        let base = probe.next_u64();
        RngStream {
            rng: SmallRng::seed_from_u64(base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "uniform_inclusive: lo {lo} > hi {hi}");
        self.rng.gen_range(lo..=hi)
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0,1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.next_f64() < p
    }

    /// Standard normal draw via Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        // Draw u1 in (0,1] to avoid ln(0).
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Exponential draw with the given mean (`mean <= 0` yields 0).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u = 1.0 - self.next_f64();
        -mean * u.ln()
    }

    /// Gaps per [`exponential_micros`](RngStream::exponential_micros)
    /// block.
    pub const EXP_BLOCK: usize = 8;

    /// The next [`EXP_BLOCK`](RngStream::EXP_BLOCK) exponential gaps of
    /// mean `mean_ms`, in whole µs. Gap `i` equals the `i`-th of as many
    /// `SimDuration::from_millis_f64(self.exponential(mean_ms)).as_micros()`
    /// calls, bit for bit, and the stream ends where those calls leave
    /// it: a mean that is not positive draws nothing and yields zeros.
    ///
    /// The uniforms are drawn first and their logarithms taken in a pass
    /// of their own, so no `ln` waits on the rounding or the caller's
    /// use of the gap before it. Each is the same scalar `f64::ln`.
    ///
    /// ```
    /// use xanadu_simcore::{RngStream, SimDuration};
    ///
    /// let mut one = RngStream::derive(7, "gaps");
    /// let mut block = one.clone();
    /// let gaps = block.exponential_micros(250.0);
    /// for gap in gaps {
    ///     assert_eq!(gap, SimDuration::from_millis_f64(one.exponential(250.0)).as_micros());
    /// }
    /// assert_eq!(block.next_u64(), one.next_u64());
    /// ```
    pub fn exponential_micros(&mut self, mean_ms: f64) -> [u64; Self::EXP_BLOCK] {
        if mean_ms <= 0.0 {
            return [0; Self::EXP_BLOCK];
        }
        let mut logs: [f64; Self::EXP_BLOCK] = std::array::from_fn(|_| 1.0 - self.next_f64());
        for x in &mut logs {
            *x = x.ln();
        }
        logs.map(|ln| SimDuration::from_millis_f64(-mean_ms * ln).as_micros())
    }

    /// Chooses an index in `[0, weights.len())` proportionally to `weights`.
    /// Non-positive weights are treated as zero; if all weights are zero the
    /// choice is uniform.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn weighted_choice(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted_choice: empty weights");
        let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
        if total <= 0.0 {
            return self.uniform_inclusive(0, weights.len() as u64 - 1) as usize;
        }
        let mut x = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            let w = w.max(0.0);
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_and_name_reproduces() {
        let mut a = RngStream::derive(7, "x");
        let mut b = RngStream::derive(7, "x");
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_names_differ() {
        let mut a = RngStream::derive(7, "x");
        let mut b = RngStream::derive(7, "y");
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should be effectively independent");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RngStream::derive(1, "x");
        let mut b = RngStream::derive(2, "x");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn child_streams_are_deterministic_and_distinct() {
        let parent = RngStream::derive(3, "trees");
        let mut c0a = parent.child(0);
        let mut c0b = parent.child(0);
        let mut c1 = parent.child(1);
        assert_eq!(c0a.next_u64(), c0b.next_u64());
        assert_ne!(c0a.next_u64(), c1.next_u64());
    }

    #[test]
    fn child_does_not_advance_parent() {
        let mut p1 = RngStream::derive(5, "p");
        let mut p2 = RngStream::derive(5, "p");
        let _ = p1.child(9);
        assert_eq!(p1.next_u64(), p2.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = RngStream::derive(11, "unit");
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bernoulli_matches_probability_roughly() {
        let mut r = RngStream::derive(13, "bern");
        let hits = (0..10_000).filter(|_| r.bernoulli(0.7)).count();
        let frac = hits as f64 / 10_000.0;
        assert!((frac - 0.7).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn bernoulli_clamps_out_of_range() {
        let mut r = RngStream::derive(13, "bern2");
        assert!(!r.bernoulli(-1.0));
        assert!(r.bernoulli(2.0));
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = RngStream::derive(17, "norm");
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = RngStream::derive(19, "exp");
        let n = 20_000;
        let mean = (0..n).map(|_| r.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean {mean}");
        assert_eq!(r.exponential(0.0), 0.0);
        assert_eq!(r.exponential(-2.0), 0.0);
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut r = RngStream::derive(23, "wc");
        let weights = [0.0, 3.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[r.weighted_choice(&weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((ratio - 3.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    fn weighted_choice_all_zero_is_uniformish() {
        let mut r = RngStream::derive(29, "wc0");
        let mut counts = [0usize; 4];
        for _ in 0..4_000 {
            counts[r.weighted_choice(&[0.0; 4])] += 1;
        }
        for c in counts {
            assert!(c > 800, "uniform fallback skewed: {counts:?}");
        }
    }

    #[test]
    fn uniform_inclusive_bounds() {
        let mut r = RngStream::derive(31, "ui");
        for _ in 0..1000 {
            let x = r.uniform_inclusive(3, 5);
            assert!((3..=5).contains(&x));
        }
        assert_eq!(r.uniform_inclusive(9, 9), 9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A block's gaps drawn one [`RngStream::exponential`] call at a time.
    fn one_at_a_time(rng: &mut RngStream, mean_ms: f64) -> [u64; RngStream::EXP_BLOCK] {
        std::array::from_fn(|_| SimDuration::from_millis_f64(rng.exponential(mean_ms)).as_micros())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Means are log-uniform from 10^-6 to 10^12 ms, plus the edges:
        /// zero (what an infinite rate gives), negative, NaN, ±∞, the
        /// smallest normal and subnormal, and `f64::MAX`, where the
        /// product overflows. Three blocks run in a row, and the stream
        /// must then be where the single draws left it.
        #[test]
        fn block_draws_equal_one_draw_at_a_time(
            seed in 0u64..u64::MAX,
            log10_mean_ms in -6.0f64..12.0,
        ) {
            let means = [
                10f64.powf(log10_mean_ms),
                0.0,
                -0.0,
                -3.5,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MIN_POSITIVE,
                5e-324,
                f64::MAX,
            ];
            for mean_ms in means {
                let mut blocks = RngStream::derive(seed, "gaps");
                let mut single = blocks.clone();
                for block in 0..3 {
                    prop_assert_eq!(
                        blocks.exponential_micros(mean_ms),
                        one_at_a_time(&mut single, mean_ms),
                        "mean {:e} ms, block {}",
                        mean_ms,
                        block
                    );
                }
                prop_assert_eq!(blocks.next_u64(), single.next_u64(), "mean {:e} ms", mean_ms);
            }
        }
    }
}
