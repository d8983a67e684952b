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
pub fn poisson(
    start: SimTime,
    duration: SimDuration,
    rate_per_hour: f64,
    seed: u64,
) -> Vec<SimTime> {
    let mut rng = RngStream::derive(seed, "arrivals-poisson");
    let mut times = Vec::new();
    extend_poisson(&mut times, &mut rng, rate_per_hour, start, start + duration);
    times
}

/// Appends to `times` the arrivals of a Poisson process of
/// `rate_per_hour` that starts at `start` and stops before `end`: one
/// exponential gap per arrival, plus the gap that crosses `end`. A rate
/// that is not positive appends nothing and draws nothing.
pub(crate) fn extend_poisson(
    times: &mut Vec<SimTime>,
    rng: &mut RngStream,
    rate_per_hour: f64,
    start: SimTime,
    end: SimTime,
) {
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
}
