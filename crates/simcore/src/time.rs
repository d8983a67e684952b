//! Virtual time for the discrete-event simulator.
//!
//! The paper reports latencies ranging from sub-millisecond isolate startups
//! to 20-hour keep-alive experiments; a `u64` microsecond counter covers both
//! ends comfortably (≈ 584 000 years of range) while staying `Copy`, `Ord`
//! and hashable.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, measured in microseconds since the
/// start of the simulation.
///
/// `SimTime` is an absolute instant; the span between two instants is a
/// [`SimDuration`]. The two types are deliberately distinct so that adding
/// two instants is a compile error.
///
/// # Example
///
/// ```
/// use xanadu_simcore::{SimTime, SimDuration};
///
/// let t = SimTime::from_millis(1_500);
/// let later = t + SimDuration::from_secs(2);
/// assert_eq!(later.as_millis_f64(), 3_500.0);
/// assert_eq!(later - t, SimDuration::from_secs(2));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, measured in microseconds.
///
/// # Example
///
/// ```
/// use xanadu_simcore::SimDuration;
///
/// let d = SimDuration::from_millis(250) * 4;
/// assert_eq!(d, SimDuration::from_secs(1));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinitely far"
    /// sentinel for keep-alive deadlines that are never due.
    pub const MAX: SimTime = SimTime(u64::MAX);
    /// The latest instant a request may be triggered at: half the clock,
    /// about 292,000 simulated years. Everything a request schedules
    /// after its trigger (dispatch overheads, cold starts, service times,
    /// retries, back-offs and its workers' keep-alive) spans far less
    /// than the other half, so no event time computed from a trigger can
    /// overflow the clock, which the kernel does not check. The
    /// platform's trigger calls refuse later triggers with a typed error,
    /// and so do stream sources and the CLI.
    pub const LAST_TRIGGER: SimTime = SimTime(u64::MAX / 2);

    /// Creates an instant `micros` microseconds after simulation start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after simulation start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Creates an instant `mins` minutes after simulation start.
    pub const fn from_mins(mins: u64) -> Self {
        SimTime(mins * 60_000_000)
    }

    /// Creates an instant `hours` hours after simulation start.
    pub const fn from_hours(hours: u64) -> Self {
        SimTime(hours * 3_600_000_000)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start, as a float (fractional part
    /// preserves microsecond precision).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The duration since an earlier instant, saturating to zero if
    /// `earlier` is actually later (never panics).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration (sentinel for "never").
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000_000)
    }

    /// Creates a duration of `hours` hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600_000_000)
    }

    /// Creates a duration from fractional milliseconds, rounding to the
    /// nearest microsecond (halves away from zero). Zero, negatives, NaN
    /// and ±∞ give zero; a finite input past `u64::MAX` µs saturates.
    ///
    /// This is the bridge from the statistical distributions (which work in
    /// f64 milliseconds, the paper's unit of report) back to the integer
    /// clock.
    pub fn from_millis_f64(millis: f64) -> Self {
        if !millis.is_finite() || millis <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(round_micros(millis * 1_000.0))
    }

    /// Duration in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Duration in milliseconds as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Duration in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction (never panics, floors at zero).
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies by a non-negative float factor, rounding to the nearest
    /// microsecond (halves away from zero). Negative or non-finite factors
    /// yield zero; a product past `u64::MAX` µs saturates.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        if !factor.is_finite() || factor <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(round_micros(self.0 as f64 * factor))
    }
}

/// Rounds a microsecond count that is `>= 0` (possibly `+∞`, never NaN)
/// to the nearest integer, halves away from zero, saturating at
/// `u64::MAX` — what `micros.round() as u64` gives, without the libm
/// `round` call the baseline x86-64 target makes for it, and without a
/// saturating float-to-integer cast on the common path.
///
/// Below 2^52, adding 2^52 lands in `[2^52, 2^53]`, where the `f64`
/// spacing is 1: the hardware rounds the sum to the nearest integer,
/// halves to even. That integer is the sum's bits minus those of 2^52
/// (2^53 is one exponent step, 2^52 in the bits, above), and, as a
/// float, the sum minus 2^52. Both subtractions and `micros - nearest`
/// are exact, so the difference is 0.5 exactly when a half went down to
/// even, and one more rounds it away from zero (adding 0.5 first would
/// not work: it rounds 0.49999999999999994 up). From 2^52 on every
/// `f64` is an integer, and the saturating cast is already the answer.
fn round_micros(micros: f64) -> u64 {
    const EXACT_BELOW: f64 = (1u64 << 52) as f64;
    if micros < EXACT_BELOW {
        let shifted = micros + EXACT_BELOW;
        let nearest = shifted.to_bits() - EXACT_BELOW.to_bits();
        nearest + u64::from(micros - (shifted - EXACT_BELOW) == 0.5)
    } else {
        micros as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us == u64::MAX {
            write!(f, "∞")
        } else if us >= 60_000_000 && us.is_multiple_of(60_000_000) {
            write!(f, "{}min", us / 60_000_000)
        } else if us >= 1_000_000 {
            write!(f, "{:.3}s", us as f64 / 1_000_000.0)
        } else if us >= 1_000 {
            write!(f, "{:.3}ms", us as f64 / 1_000.0)
        } else {
            write!(f, "{us}µs")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_mins(2), SimTime::from_secs(120));
        assert_eq!(SimTime::from_hours(1), SimTime::from_mins(60));
        assert_eq!(SimDuration::from_hours(2), SimDuration::from_mins(120));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(SimDuration::from_mins(1), SimDuration::from_secs(60));
    }

    #[test]
    fn instant_plus_duration_roundtrips() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_millis(5);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn saturating_since_floors_at_zero() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(9);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(8));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn from_millis_f64_rounds_and_clamps() {
        assert_eq!(
            SimDuration::from_millis_f64(1.5),
            SimDuration::from_micros(1_500)
        );
        assert_eq!(SimDuration::from_millis_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_millis_f64(0.0004),
            SimDuration::ZERO,
            "sub-microsecond rounds down to zero"
        );
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_millis(100);
        assert_eq!(d.mul_f64(2.5), SimDuration::from_micros(250_000));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn float_views_preserve_precision() {
        let t = SimTime::from_micros(1_234_567);
        assert!((t.as_millis_f64() - 1234.567).abs() < 1e-9);
        assert!((t.as_secs_f64() - 1.234567).abs() < 1e-12);
    }

    #[test]
    fn display_picks_readable_units() {
        assert_eq!(SimDuration::from_micros(15).to_string(), "15µs");
        assert_eq!(SimDuration::from_millis(15).to_string(), "15.000ms");
        assert_eq!(SimDuration::from_secs(15).to_string(), "15.000s");
        assert_eq!(SimDuration::from_mins(15).to_string(), "15min");
        assert_eq!(SimDuration::MAX.to_string(), "∞");
        assert_eq!(SimTime::from_secs(2).to_string(), "t+2.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert_eq!(SimTime::MAX.checked_add(SimDuration::from_micros(1)), None);
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_micros(7)),
            Some(SimTime::from_micros(7))
        );
    }

    #[test]
    fn ordering_is_chronological() {
        let mut times = vec![
            SimTime::from_secs(3),
            SimTime::ZERO,
            SimTime::from_millis(10),
        ];
        times.sort();
        assert_eq!(
            times,
            vec![
                SimTime::ZERO,
                SimTime::from_millis(10),
                SimTime::from_secs(3)
            ]
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// `from_millis_f64` as it was written with libm's `round`.
    fn libm_from_millis(millis: f64) -> u64 {
        if !millis.is_finite() || millis <= 0.0 {
            return 0;
        }
        (millis * 1_000.0).round() as u64
    }

    /// `mul_f64` as it was written with libm's `round`.
    fn libm_mul(micros: u64, factor: f64) -> u64 {
        if !factor.is_finite() || factor <= 0.0 {
            return 0;
        }
        (micros as f64 * factor).round() as u64
    }

    /// Checks both conversions on `x`, both as a microsecond count
    /// (`1 µs × x` is exactly `x`) and as milliseconds.
    fn agrees(x: f64) -> Result<(), TestCaseError> {
        for value in [x, x / 1_000.0] {
            prop_assert_eq!(
                SimDuration::from_millis_f64(value).as_micros(),
                libm_from_millis(value),
                "from_millis_f64({:e}) [bits {:#x}]",
                value,
                value.to_bits()
            );
        }
        for micros in [1, 3, 1_000, 86_400_000_000] {
            prop_assert_eq!(
                SimDuration::from_micros(micros).mul_f64(x).as_micros(),
                libm_mul(micros, x),
                "{} µs × {:e} [bits {:#x}]",
                micros,
                x,
                x.to_bits()
            );
        }
        Ok(())
    }

    #[test]
    fn rounding_matches_libm_on_edge_values() {
        let mut edges = vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
            5e-324,
            1e-310,
            -1e-310,
        ];
        // Halves, where libm's round and a naive `+ 0.5` part ways.
        for k in [0u64, 1, 2, 3, 999, 1_000, 12_345, (1 << 51) - 1, 1 << 51] {
            edges.push(k as f64 + 0.5);
        }
        // The powers of two where the conversion changes method (2^52),
        // where f64 stops holding every integer (2^53), and the edges of
        // the signed and unsigned 64-bit ranges.
        for p in [52, 53, 63, 64] {
            edges.push(2f64.powi(p));
        }
        let neighbours: Vec<f64> = edges
            .iter()
            .flat_map(|&x| [x, x.next_up(), x.next_down(), -x])
            .collect();
        for x in neighbours {
            if let Err(e) = agrees(x) {
                panic!("{e}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn rounding_matches_libm_on_random_bit_patterns(bits in 0u64..=u64::MAX) {
            agrees(f64::from_bits(bits))?;
        }

        /// Random bit patterns confined to the exponents where rounding
        /// has work to do: 2^-12 to 2^66.
        #[test]
        fn rounding_matches_libm_on_clock_scale_values(
            mantissa in 0u64..(1 << 52),
            exponent in 1011u64..=1089,
        ) {
            agrees(f64::from_bits(exponent << 52 | mantissa))?;
        }
    }
}
