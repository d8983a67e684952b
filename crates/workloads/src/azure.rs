//! Azure-style mixed-popularity workload (the §2.3 characterization).
//!
//! The paper motivates its keep-alive analysis with the Azure functions
//! trace (Shahrad et al.): "~45% of all functions being invoked once or
//! less per hour — a significant proportion of the workload being invoked
//! infrequently", so "the request inter-arrival time … is expected to be
//! larger than a platform's keep-alive time". This module synthesizes a
//! fleet of workflows whose invocation rates follow that skew: a heavy
//! tail of rare workflows plus a small popular head.

use crate::arrivals::extend_poisson;
use serde::{Deserialize, Serialize};
use xanadu_simcore::{RngStream, SimDuration, SimTime};

/// Configuration of the synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AzureTraceConfig {
    /// Number of distinct workflows in the fleet.
    pub workflows: usize,
    /// Fraction of workflows that are *rare*: mean rate ≤ 1 invocation per
    /// hour (the paper quotes ≈45 %).
    pub rare_fraction: f64,
    /// Mean rate of rare workflows, in invocations/hour (≤ 1).
    pub rare_rate_per_hour: f64,
    /// Mean rate of popular workflows, in invocations/hour.
    pub popular_rate_per_hour: f64,
    /// Trace duration.
    pub duration: SimDuration,
}

impl Default for AzureTraceConfig {
    /// The paper's characterization: 45 % rare (≈0.7/h) against a popular
    /// head (≈30/h), over 16 hours (the Figure 6 horizon).
    fn default() -> Self {
        AzureTraceConfig {
            workflows: 20,
            rare_fraction: 0.45,
            rare_rate_per_hour: 0.7,
            popular_rate_per_hour: 30.0,
            duration: SimDuration::from_mins(16 * 60),
        }
    }
}

/// One workflow's arrival schedule within the trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowTrace {
    /// Stable identifier (`wf0`, `wf1`, …).
    pub name: String,
    /// Whether this workflow is in the rare (≤ 1/h) class.
    pub rare: bool,
    /// Absolute trigger times, ascending.
    pub arrivals: Vec<SimTime>,
}

impl WorkflowTrace {
    /// The workflow's realized invocation rate, per hour.
    pub fn rate_per_hour(&self, duration: SimDuration) -> f64 {
        self.arrivals.len() as f64 / (duration.as_secs_f64() / 3600.0)
    }
}

/// Generates the synthetic trace, deterministic in `seed`.
///
/// Each workflow's arrivals are a Poisson process at its class rate;
/// classes are assigned so that `rare_fraction` of the fleet is rare.
///
/// # Panics
///
/// Panics if a class rate the fleet uses is not finite.
///
/// # Example
///
/// ```
/// use xanadu_workloads::azure::{generate_trace, AzureTraceConfig};
///
/// let trace = generate_trace(&AzureTraceConfig::default(), 7);
/// assert_eq!(trace.len(), 20);
/// let rare = trace.iter().filter(|t| t.rare).count();
/// assert_eq!(rare, 9, "45% of 20 workflows");
/// ```
pub fn generate_trace(config: &AzureTraceConfig, seed: u64) -> Vec<WorkflowTrace> {
    let rng = RngStream::derive(seed, "azure-trace");
    let hours = config.duration.as_secs_f64() / 3600.0;
    let rare_count = (config.workflows as f64 * config.rare_fraction).round() as usize;
    (0..config.workflows)
        .map(|i| {
            let rare = i < rare_count;
            let rate = if rare {
                config.rare_rate_per_hour
            } else {
                config.popular_rate_per_hour
            };
            let mut arrivals = Vec::with_capacity(poisson_capacity(rate * hours));
            let end = SimTime::ZERO + config.duration;
            extend_poisson(&mut arrivals, rng.child(i as u64), rate, SimTime::ZERO, end);
            WorkflowTrace {
                name: format!("wf{i}"),
                rare,
                arrivals,
            }
        })
        .collect()
}

/// Room for a Poisson count of mean `mean`: four standard deviations
/// above it, which a draw exceeds with probability under 0.1%, so a
/// workflow's schedule is allocated once.
fn poisson_capacity(mean: f64) -> usize {
    (mean + 4.0 * mean.sqrt()).ceil() as usize
}

/// Expected number of invocations the whole fleet produces over the
/// trace duration: `workflows × hours × blended class rate`.
/// [`scale_to_invocations`] sizes a fleet with it before generating any
/// arrivals.
pub fn expected_invocations(config: &AzureTraceConfig) -> f64 {
    let hours = config.duration.as_secs_f64() / 3600.0;
    let blended = config.rare_fraction * config.rare_rate_per_hour
        + (1.0 - config.rare_fraction) * config.popular_rate_per_hour;
    config.workflows as f64 * hours * blended
}

/// Scales `base` up to a fleet expected to produce at least `target`
/// invocations, by growing the workflow count at fixed class rates,
/// class mix and duration (the §2.3 characterization is preserved;
/// only the fleet gets wider).
///
/// The realized count of a generated trace is Poisson around the
/// expectation, so individual seeds land within a fraction of a percent
/// of `target` at fleet scale.
///
/// # Example
///
/// ```
/// use xanadu_workloads::azure::{scale_to_invocations, expected_invocations, AzureTraceConfig};
///
/// let cfg = scale_to_invocations(&AzureTraceConfig::default(), 1_000_000);
/// assert!(expected_invocations(&cfg) >= 1_000_000.0);
/// assert_eq!(cfg.rare_rate_per_hour, 0.7, "class rates unchanged");
/// ```
pub fn scale_to_invocations(base: &AzureTraceConfig, target: u64) -> AzureTraceConfig {
    let mut scaled = *base;
    if target == 0 {
        return scaled;
    }
    let per_workflow = expected_invocations(base) / base.workflows.max(1) as f64;
    if per_workflow <= 0.0 {
        return scaled;
    }
    scaled.workflows = (target as f64 / per_workflow).ceil() as usize;
    scaled
}

/// Total realized invocations of a generated trace.
pub fn total_invocations(traces: &[WorkflowTrace]) -> u64 {
    traces.iter().map(|t| t.arrivals.len() as u64).sum()
}

/// The fraction of inter-arrival gaps (across the rare class) exceeding
/// `keep_alive` — an upper-bound predictor of the cold-start rate a
/// chain-agnostic platform will suffer on this trace (§2.3's argument).
pub fn rare_gap_exceedance(traces: &[WorkflowTrace], keep_alive: SimDuration) -> f64 {
    let mut total = 0usize;
    let mut exceeding = 0usize;
    for t in traces.iter().filter(|t| t.rare) {
        for w in t.arrivals.windows(2) {
            total += 1;
            if w[1] - w[0] > keep_alive {
                exceeding += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        exceeding as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let cfg = AzureTraceConfig::default();
        assert_eq!(generate_trace(&cfg, 1), generate_trace(&cfg, 1));
        assert_ne!(generate_trace(&cfg, 1), generate_trace(&cfg, 2));
    }

    #[test]
    fn class_split_matches_fraction() {
        let cfg = AzureTraceConfig {
            workflows: 100,
            ..Default::default()
        };
        let trace = generate_trace(&cfg, 3);
        let rare = trace.iter().filter(|t| t.rare).count();
        assert_eq!(rare, 45);
    }

    #[test]
    fn realized_rates_match_classes() {
        let cfg = AzureTraceConfig {
            workflows: 40,
            duration: SimDuration::from_mins(100 * 60), // long horizon
            ..Default::default()
        };
        let trace = generate_trace(&cfg, 5);
        let mean_rate = |rare: bool| {
            let class: Vec<&WorkflowTrace> = trace.iter().filter(|t| t.rare == rare).collect();
            class
                .iter()
                .map(|t| t.rate_per_hour(cfg.duration))
                .sum::<f64>()
                / class.len() as f64
        };
        let rare_rate = mean_rate(true);
        let popular_rate = mean_rate(false);
        assert!(
            (rare_rate - 0.7).abs() < 0.25,
            "rare ≈0.7/h, got {rare_rate}"
        );
        assert!(
            (popular_rate - 30.0).abs() < 3.0,
            "popular ≈30/h, got {popular_rate}"
        );
    }

    #[test]
    fn arrivals_sorted_and_within_duration() {
        let cfg = AzureTraceConfig::default();
        for t in generate_trace(&cfg, 9) {
            for w in t.arrivals.windows(2) {
                assert!(w[0] < w[1]);
            }
            if let Some(&last) = t.arrivals.last() {
                assert!(last < SimTime::ZERO + cfg.duration);
            }
        }
    }

    #[test]
    fn rare_gaps_mostly_exceed_ten_minute_keepalive() {
        // The paper's point: rare functions' inter-arrival times exceed
        // typical keep-alives, so they frequently suffer cold starts.
        let cfg = AzureTraceConfig {
            workflows: 60,
            duration: SimDuration::from_mins(200 * 60),
            ..Default::default()
        };
        let trace = generate_trace(&cfg, 11);
        let exceedance = rare_gap_exceedance(&trace, SimDuration::from_mins(10));
        // P(Exp(mean 86min) > 10min) = e^(-10/86) ≈ 0.89.
        assert!(exceedance > 0.8, "got {exceedance}");
        // With a multi-hour keep-alive the picture flips.
        let generous = rare_gap_exceedance(&trace, SimDuration::from_mins(6 * 60));
        assert!(generous < exceedance);
    }

    #[test]
    fn scaling_hits_invocation_targets() {
        let base = AzureTraceConfig::default();
        // Default: 20 workflows × 16 h × (0.45·0.7 + 0.55·30) ≈ 5380.
        let expected = expected_invocations(&base);
        assert!((expected - 5380.8).abs() < 1.0, "got {expected}");

        let target = 100_000;
        let scaled = scale_to_invocations(&base, target);
        assert!(expected_invocations(&scaled) >= target as f64);
        // Fixed per-workflow characterization: only the fleet grows.
        assert_eq!(scaled.rare_rate_per_hour, base.rare_rate_per_hour);
        assert_eq!(scaled.popular_rate_per_hour, base.popular_rate_per_hour);
        assert_eq!(scaled.duration, base.duration);
        // Realized arrivals are Poisson around the expectation: within
        // a few percent of the target at this scale.
        let realized = total_invocations(&generate_trace(&scaled, 7));
        assert!(
            realized as f64 >= target as f64 * 0.97,
            "realized {realized} too far below target {target}"
        );
    }

    #[test]
    fn scaling_degenerate_inputs_are_no_ops() {
        let base = AzureTraceConfig::default();
        assert_eq!(scale_to_invocations(&base, 0), base);
        let dead = AzureTraceConfig {
            rare_rate_per_hour: 0.0,
            popular_rate_per_hour: 0.0,
            ..base
        };
        assert_eq!(scale_to_invocations(&dead, 1000), dead);
        // Already large enough: one workflow is the floor.
        let tiny = scale_to_invocations(&base, 1);
        assert_eq!(tiny.workflows, 1);
    }

    #[test]
    fn empty_rare_class_handled() {
        let cfg = AzureTraceConfig {
            workflows: 4,
            rare_fraction: 0.0,
            ..Default::default()
        };
        let trace = generate_trace(&cfg, 1);
        assert_eq!(rare_gap_exceedance(&trace, SimDuration::from_mins(10)), 0.0);
    }
}
