//! Request arrival processes used by the paper's experiments.
//!
//! * [`decreasing_ap`] — Figure 5's probe schedule: inter-arrival times in
//!   a decreasing arithmetic progression, 60 min down to 10 min in 10 min
//!   steps, then to 30 min in 5 min steps, then to 1 min in 1 min steps.
//! * [`uniform_random`] — Figure 6's lightly loaded trace: inter-arrival
//!   times drawn from U(0, 60) minutes (~2 requests/hour) over a 16 h run.
//! * [`poisson`] — Poisson arrivals for load experiments.

use xanadu_simcore::{RngStream, SimDuration, SimTime};

/// Figure 5's decreasing arithmetic progression of inter-arrival times.
///
/// Returns the absolute trigger times starting at `start`: the first
/// request fires at `start`, the next after 60 min, then the gap decreases
/// by 10 min per request until it reaches 30 min, by 5 min until 10 min,
/// and by 1 min until 1 min (inclusive).
///
/// # Example
///
/// ```
/// use xanadu_simcore::SimTime;
/// use xanadu_workloads::arrivals::decreasing_ap;
///
/// let times = decreasing_ap(SimTime::ZERO);
/// assert_eq!(times[0], SimTime::ZERO);
/// assert_eq!(times[1], SimTime::from_mins(60));
/// assert_eq!(times[2], SimTime::from_mins(110)); // +50
/// ```
pub fn decreasing_ap(start: SimTime) -> Vec<SimTime> {
    let mut gaps_min = Vec::new();
    let mut gap = 60i64;
    while gap >= 1 {
        gaps_min.push(gap as u64);
        gap -= if gap > 30 {
            10
        } else if gap > 10 {
            5
        } else {
            1
        };
    }
    let mut times = vec![start];
    let mut t = start;
    for g in gaps_min {
        t += SimDuration::from_mins(g);
        times.push(t);
    }
    times
}

/// Figure 6's lightly loaded trace: inter-arrival times drawn from
/// U(0, 60) minutes until `duration` has elapsed (~2 requests/hour over
/// the paper's ~16 h experiment).
pub fn uniform_random(start: SimTime, duration: SimDuration, seed: u64) -> Vec<SimTime> {
    let mut rng = RngStream::derive(seed, "arrivals-uniform");
    let mut times = Vec::new();
    let mut t = start;
    let end = start + duration;
    loop {
        let gap_min = rng.next_f64() * 60.0;
        t += SimDuration::from_millis_f64(gap_min * 60_000.0);
        if t >= end {
            break;
        }
        times.push(t);
    }
    times
}

/// Poisson arrivals with the given rate (requests per hour) over
/// `duration`.
///
/// # Panics
///
/// Panics if `rate_per_hour` is not finite.
pub fn poisson(
    start: SimTime,
    duration: SimDuration,
    rate_per_hour: f64,
    seed: u64,
) -> Vec<SimTime> {
    let rng = RngStream::derive(seed, "arrivals-poisson");
    let mut times = Vec::new();
    extend_poisson(&mut times, rng, rate_per_hour, start, start + duration);
    times
}

/// Appends to `times` the arrivals of a Poisson process of
/// `rate_per_hour` that starts at `start` and stops before `end`: one
/// exponential gap per arrival, plus the gaps of the block that crosses
/// `end`. A finite rate that is not positive appends nothing and draws
/// nothing.
///
/// The process is a [`PoissonCursor`] with no gap floor, so each gap
/// equals a one-at-a-time draw and the arrivals do too. The stream is
/// taken by value: the gaps drawn past `end` are its last, and nothing
/// can draw after them. Arrival times saturate at the clock's last µs,
/// which ends the process, instead of wrapping.
///
/// # Panics
///
/// Panics if `rate_per_hour` is not finite: an infinite rate's gaps are
/// all 0 µs, so its arrivals would never reach `end`.
pub(crate) fn extend_poisson(
    times: &mut Vec<SimTime>,
    rng: RngStream,
    rate_per_hour: f64,
    start: SimTime,
    end: SimTime,
) {
    assert!(
        rate_per_hour.is_finite(),
        "Poisson arrival rate {rate_per_hour}/h is not finite"
    );
    if rate_per_hour > 0.0 {
        let mut process =
            PoissonCursor::new(rng, 3_600_000.0 / rate_per_hour, start.as_micros(), 0);
        process.take_before(end.as_micros(), |at| {
            times.extend(at.iter().map(|&a| SimTime::from_micros(a)));
        });
    }
}

/// A Poisson process whose gaps come [`RngStream::EXP_BLOCK`] at a time
/// from [`RngStream::exponential_micros`], resumable at any arrival.
///
/// Each block is prefix-summed into arrival times as it is drawn; the
/// cursor hands them out in runs and keeps the rest of the block for
/// the next call. Every gap after the first is raised to `floor` µs (the
/// first, from the start, never is), and arrival times saturate at the
/// clock's last µs instead of wrapping. A gap equals a one-at-a-time
/// `exponential` draw, so the arrivals do not depend on where the
/// caller stops and resumes.
#[derive(Debug, Clone)]
pub(crate) struct PoissonCursor {
    rng: RngStream,
    mean_gap_ms: f64,
    /// The least gap between two arrivals, in µs.
    floor: u64,
    /// The current block's arrival times, in µs.
    block: [u64; RngStream::EXP_BLOCK],
    /// Arrivals of `block` already handed out.
    taken: usize,
}

impl PoissonCursor {
    /// A process of mean gap `mean_gap_ms` (which must be positive)
    /// whose first arrival is one gap after `start`; its first block is
    /// drawn now.
    pub(crate) fn new(mut rng: RngStream, mean_gap_ms: f64, start: u64, floor: u64) -> Self {
        let mut block = rng.exponential_micros(mean_gap_ms);
        let mut t = start.saturating_add(block[0]);
        block[0] = t;
        for at in &mut block[1..] {
            t = t.saturating_add((*at).max(floor));
            *at = t;
        }
        PoissonCursor {
            rng,
            mean_gap_ms,
            floor,
            block,
            taken: 0,
        }
    }

    /// Hands `take` every arrival before `end` not yet handed out, in
    /// order and in runs of at most a block, and returns the first
    /// arrival at or past `end`, which stays pending for the next call.
    pub(crate) fn take_before(&mut self, end: u64, mut take: impl FnMut(&[u64])) -> u64 {
        loop {
            // Arrival times never decrease, so those before `end` are a
            // prefix, and it holds every arrival already taken: `end`
            // never moves back between calls.
            let before = self.block.partition_point(|&at| at < end);
            take(&self.block[self.taken..before]);
            if before < RngStream::EXP_BLOCK {
                self.taken = before;
                return self.block[before];
            }
            let (mut t, floor) = (self.block[RngStream::EXP_BLOCK - 1], self.floor);
            self.block = self.rng.exponential_micros(self.mean_gap_ms).map(|gap| {
                t = t.saturating_add(gap.max(floor));
                t
            });
            self.taken = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decreasing_ap_schedule_matches_paper() {
        let times = decreasing_ap(SimTime::ZERO);
        let gaps: Vec<u64> = times
            .windows(2)
            .map(|w| (w[1] - w[0]).as_micros() / 60_000_000)
            .collect();
        // 60,50,40,30 then 25,20,15,10 then 9..1.
        assert_eq!(
            gaps,
            vec![60, 50, 40, 30, 25, 20, 15, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1]
        );
        // The schedule crosses both keep-alive cliffs (10 and 20 minutes).
        assert!(gaps.contains(&10) && gaps.contains(&20));
    }

    #[test]
    fn uniform_random_rate_is_about_two_per_hour() {
        let times = uniform_random(SimTime::ZERO, SimDuration::from_mins(16 * 60), 42);
        let per_hour = times.len() as f64 / 16.0;
        assert!((1.2..3.2).contains(&per_hour), "rate {per_hour}/h");
        // Sorted and within range.
        for w in times.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn uniform_random_deterministic_in_seed() {
        let a = uniform_random(SimTime::ZERO, SimDuration::from_mins(600), 1);
        let b = uniform_random(SimTime::ZERO, SimDuration::from_mins(600), 1);
        let c = uniform_random(SimTime::ZERO, SimDuration::from_mins(600), 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_rate_and_edge_cases() {
        let times = poisson(SimTime::ZERO, SimDuration::from_mins(60 * 100), 6.0, 9);
        let per_hour = times.len() as f64 / 100.0;
        assert!((5.0..7.0).contains(&per_hour), "rate {per_hour}/h");
        assert!(poisson(SimTime::ZERO, SimDuration::from_mins(60), 0.0, 9).is_empty());
    }

    #[test]
    #[should_panic(expected = "Poisson arrival rate inf/h is not finite")]
    fn an_infinite_rate_panics_instead_of_filling_memory() {
        poisson(SimTime::ZERO, SimDuration::from_mins(60), f64::INFINITY, 9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::azure::{generate_trace, AzureTraceConfig};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The Poisson loop block draws replaced: one exponential draw per
    /// arrival, plus the one that crosses `end`.
    fn one_gap_at_a_time(
        mut rng: RngStream,
        rate_per_hour: f64,
        start: SimTime,
        end: SimTime,
    ) -> Vec<SimTime> {
        let mut times = Vec::new();
        if rate_per_hour > 0.0 {
            let mean_gap_ms = 3_600_000.0 / rate_per_hour;
            let mut t = start;
            loop {
                t += SimDuration::from_millis_f64(rng.exponential(mean_gap_ms));
                if t >= end {
                    break;
                }
                times.push(t);
            }
        }
        times
    }

    /// Each workflow of `trace` against its one-gap-at-a-time schedule;
    /// returns the arrival counts seen.
    fn fleet_equals_one_gap_at_a_time(
        config: &AzureTraceConfig,
        seed: u64,
    ) -> Result<BTreeSet<usize>, TestCaseError> {
        let trace = generate_trace(config, seed);
        prop_assert_eq!(trace.len(), config.workflows);
        let fleet = RngStream::derive(seed, "azure-trace");
        let end = SimTime::ZERO + config.duration;
        let mut counts = BTreeSet::new();
        for (i, wf) in (0u64..).zip(&trace) {
            let rate = if wf.rare {
                config.rare_rate_per_hour
            } else {
                config.popular_rate_per_hour
            };
            let expected = one_gap_at_a_time(fleet.child(i), rate, SimTime::ZERO, end);
            prop_assert_eq!(&wf.arrivals, &expected, "workflow {}", i);
            counts.insert(wf.arrivals.len());
        }
        Ok(counts)
    }

    /// The span in which a process of `rate_per_hour` expects
    /// `arrivals` arrivals.
    fn expecting(arrivals: f64, rate_per_hour: f64) -> SimDuration {
        SimDuration::from_millis_f64(arrivals / rate_per_hour * 3_600_000.0)
    }

    /// Processes that end inside their first block, on its last gap,
    /// just past it and blocks later, for both entry points: every count
    /// in `[0, 7, 8, 9, 16, 17]` occurs.
    #[test]
    fn block_boundaries_equal_one_gap_at_a_time() {
        let wanted = BTreeSet::from([0, 7, 8, 9, 16, 17]);
        let hour = SimDuration::from_hours(1);
        let mut seen = BTreeSet::new();
        for seed in 0..300 {
            for rate in [0.5, 8.0, 16.0] {
                let times = poisson(SimTime::from_mins(7), hour, rate, seed);
                let rng = RngStream::derive(seed, "arrivals-poisson");
                let end = SimTime::from_mins(67);
                assert_eq!(
                    times,
                    one_gap_at_a_time(rng, rate, SimTime::from_mins(7), end),
                    "seed {seed}, {rate}/h"
                );
                seen.insert(times.len());
            }
        }
        assert!(seen.is_superset(&wanted), "poisson counts {seen:?}");
        let config = AzureTraceConfig {
            workflows: 400,
            rare_fraction: 0.3,
            rare_rate_per_hour: 0.5,
            popular_rate_per_hour: 10.0,
            duration: hour,
        };
        let counts = fleet_equals_one_gap_at_a_time(&config, 42).unwrap();
        assert!(counts.is_superset(&wanted), "fleet counts {counts:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Rates are log-uniform from 10^-3 to 10^6 per hour, over a span
        /// that expects up to 40 arrivals (five blocks), from a start
        /// anywhere in the first 10^12 µs.
        #[test]
        fn poisson_equals_one_gap_at_a_time(
            seed in 0u64..u64::MAX,
            log10_rate_per_hour in -3.0f64..6.0,
            arrivals in 0.0f64..40.0,
            start_us in 0u64..1_000_000_000_000,
        ) {
            let rate_per_hour = 10f64.powf(log10_rate_per_hour);
            let start = SimTime::from_micros(start_us);
            let duration = expecting(arrivals, rate_per_hour);
            let rng = RngStream::derive(seed, "arrivals-poisson");
            prop_assert_eq!(
                poisson(start, duration, rate_per_hour, seed),
                one_gap_at_a_time(rng, rate_per_hour, start, start + duration)
            );
        }

        /// Both class rates are log-uniform from 10^-3 to 10^6 per hour;
        /// the faster class expects up to 40 arrivals per workflow.
        #[test]
        fn generate_trace_equals_one_gap_at_a_time(
            seed in 0u64..u64::MAX,
            workflows in 1usize..64,
            rare_fraction in 0.0f64..1.0,
            log10_rates_per_hour in (-3.0f64..6.0, -3.0f64..6.0),
            arrivals in 0.0f64..40.0,
        ) {
            let (rare, popular) = log10_rates_per_hour;
            let (rare, popular) = (10f64.powf(rare), 10f64.powf(popular));
            let config = AzureTraceConfig {
                workflows,
                rare_fraction,
                rare_rate_per_hour: rare,
                popular_rate_per_hour: popular,
                duration: expecting(arrivals, rare.max(popular)),
            };
            fleet_equals_one_gap_at_a_time(&config, seed)?;
        }
    }
}
