//! Baseline platform constructors.

use crate::calibration;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;
use xanadu_core::speculation::ExecutionMode;
use xanadu_platform::{Platform, PlatformConfig};
use xanadu_sandbox::{PoolConfig, SimSandboxProvider};
use xanadu_simcore::Distribution;

/// The baseline platforms the paper measures against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BaselineKind {
    /// Knative (deployed on single-node Kubernetes in the paper, §5).
    Knative,
    /// Apache OpenWhisk in standalone mode with a Docker backend (§5).
    OpenWhisk,
    /// AWS Step Functions (§2.3).
    AwsStepFunctions,
    /// Azure Durable Functions (§2.3).
    AzureDurableFunctions,
}

impl BaselineKind {
    /// All baselines.
    pub const ALL: [BaselineKind; 4] = [
        BaselineKind::Knative,
        BaselineKind::OpenWhisk,
        BaselineKind::AwsStepFunctions,
        BaselineKind::AzureDurableFunctions,
    ];

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            BaselineKind::Knative => "knative",
            BaselineKind::OpenWhisk => "openwhisk",
            BaselineKind::AwsStepFunctions => "asf",
            BaselineKind::AzureDurableFunctions => "adf",
        }
    }
}

impl fmt::Display for BaselineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error parsing a baseline name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBaselineError(String);

impl fmt::Display for ParseBaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown baseline `{}`, expected knative/openwhisk/asf/adf",
            self.0
        )
    }
}

impl std::error::Error for ParseBaselineError {}

impl FromStr for BaselineKind {
    type Err = ParseBaselineError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "knative" => Ok(BaselineKind::Knative),
            "openwhisk" | "ow" => Ok(BaselineKind::OpenWhisk),
            "asf" | "aws" | "step-functions" => Ok(BaselineKind::AwsStepFunctions),
            "adf" | "azure" | "durable-functions" => Ok(BaselineKind::AzureDurableFunctions),
            other => Err(ParseBaselineError(other.to_string())),
        }
    }
}

/// Constructs a ready-to-use emulated baseline platform from
/// [`baseline_setup`].
///
/// # Example
///
/// ```
/// use xanadu_baselines::{baseline_platform, BaselineKind};
/// use xanadu_chain::{linear_chain, FunctionSpec};
/// use xanadu_simcore::SimTime;
///
/// let dag = linear_chain("c", 3, &FunctionSpec::new("f").service_ms(500.0))?;
/// let mut knative = baseline_platform(BaselineKind::Knative, 42);
/// knative.deploy(dag)?;
/// knative.trigger_at("c", SimTime::ZERO)?;
/// knative.run_until_idle();
/// let overhead = knative.results()[0].overhead.as_millis_f64();
/// assert!(overhead > 3.0 * 6000.0, "three cascading Knative cold starts");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn baseline_platform(kind: BaselineKind, seed: u64) -> Platform {
    let (config, provider) = baseline_setup(kind, seed);
    Platform::with_provider(config, provider)
}

/// The configuration and calibrated sandbox provider an emulated baseline
/// runs on. A caller that adjusts the configuration first (the CLI writes
/// its fault flags into it) builds the platform from both with
/// [`Platform::with_provider`].
///
/// All baselines are chain-agnostic ([`ExecutionMode::Cold`]); they differ
/// in provisioning latency profile, keep-alive, pool caps, and per-hop
/// orchestration overhead — see [`calibration`](crate::calibration) for the
/// constants and the paper sentences they come from.
pub fn baseline_setup(kind: BaselineKind, seed: u64) -> (PlatformConfig, SimSandboxProvider) {
    let mut config = PlatformConfig::for_mode(ExecutionMode::Cold, seed).labeled(kind.label());
    let profiles = match kind {
        BaselineKind::Knative => calibration::knative_profiles(),
        BaselineKind::OpenWhisk => {
            config.max_live = Some(calibration::OPENWHISK_MAX_LIVE);
            config.eviction_delay = calibration::openwhisk_eviction_delay();
            calibration::openwhisk_profiles()
        }
        BaselineKind::AwsStepFunctions => {
            config.pool = PoolConfig {
                keep_alive: calibration::ASF_KEEP_ALIVE,
                max_warm: None,
            };
            calibration::asf_profiles()
        }
        BaselineKind::AzureDurableFunctions => {
            config.pool = PoolConfig {
                keep_alive: calibration::ADF_KEEP_ALIVE,
                max_warm: None,
            };
            calibration::adf_profiles()
        }
    };
    // Cloud workflow services add visible per-state orchestration latency;
    // the OSS platforms route through a local gateway.
    config.orchestration_overhead = match kind {
        BaselineKind::AwsStepFunctions => Distribution::log_normal(25.0, 6.0).expect("valid"),
        BaselineKind::AzureDurableFunctions => Distribution::log_normal(30.0, 12.0).expect("valid"),
        _ => Distribution::log_normal(20.0, 5.0).expect("valid"),
    };
    (config, SimSandboxProvider::with_profiles(profiles, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xanadu_chain::{linear_chain, FunctionSpec};
    use xanadu_simcore::{SimDuration, SimTime};

    fn chain(n: usize) -> xanadu_chain::WorkflowDag {
        linear_chain("c", n, &FunctionSpec::new("f").service_ms(500.0)).unwrap()
    }

    fn cold_overhead(kind: BaselineKind, n: usize, seed: u64) -> f64 {
        let mut p = baseline_platform(kind, seed);
        p.deploy(chain(n)).unwrap();
        p.trigger_at("c", SimTime::ZERO).unwrap();
        p.run_until_idle();
        p.results()[0].overhead.as_millis_f64()
    }

    #[test]
    fn parse_and_labels() {
        for kind in BaselineKind::ALL {
            assert_eq!(kind.label().parse::<BaselineKind>(), Ok(kind));
        }
        assert_eq!(
            "AWS".parse::<BaselineKind>(),
            Ok(BaselineKind::AwsStepFunctions)
        );
        assert!("flink".parse::<BaselineKind>().is_err());
    }

    #[test]
    fn cascading_cold_starts_grow_linearly_everywhere() {
        for kind in BaselineKind::ALL {
            let o1 = cold_overhead(kind, 1, 7);
            let o3 = cold_overhead(kind, 3, 7);
            assert!(
                o3 > 2.2 * o1,
                "{kind}: depth-3 overhead {o3} should be ≈3× depth-1 {o1}"
            );
        }
    }

    #[test]
    fn platform_ordering_matches_paper() {
        let ov = |k| cold_overhead(k, 5, 11);
        let knative = ov(BaselineKind::Knative);
        let openwhisk = ov(BaselineKind::OpenWhisk);
        let asf = ov(BaselineKind::AwsStepFunctions);
        let adf = ov(BaselineKind::AzureDurableFunctions);
        assert!(knative > openwhisk, "fig 4: knative slowest");
        assert!(openwhisk > asf, "oss worse than cloud");
        assert!(asf > adf, "fig 3: asf cold overhead above adf");
    }

    #[test]
    fn asf_cold_fraction_matches_fig3() {
        // ~48.5% of total runtime for a depth-5 chain of 500 ms functions.
        let mut p = baseline_platform(BaselineKind::AwsStepFunctions, 3);
        p.deploy(chain(5)).unwrap();
        p.trigger_at("c", SimTime::ZERO).unwrap();
        p.run_until_idle();
        let r = &p.results()[0];
        let frac = r.overhead.as_millis_f64() / r.end_to_end.as_millis_f64();
        assert!((0.38..0.58).contains(&frac), "cold fraction {frac}");
    }

    #[test]
    fn keep_alive_cliffs() {
        // Requests 5 minutes apart stay warm on both cloud platforms;
        // 15 minutes apart is cold on ASF but warm on ADF; 25 minutes is
        // cold on both (Figure 5).
        let warm_frac = |kind, gap_min: u64| {
            let mut p = baseline_platform(kind, 13);
            p.deploy(chain(5)).unwrap();
            p.trigger_at("c", SimTime::ZERO).unwrap();
            p.trigger_at("c", SimTime::from_mins(gap_min)).unwrap();
            p.run_until_idle();
            let second = &p.results()[1];
            second.warm_starts as f64 / 5.0
        };
        assert_eq!(warm_frac(BaselineKind::AwsStepFunctions, 5), 1.0);
        assert_eq!(warm_frac(BaselineKind::AzureDurableFunctions, 5), 1.0);
        assert_eq!(warm_frac(BaselineKind::AwsStepFunctions, 15), 0.0);
        assert_eq!(warm_frac(BaselineKind::AzureDurableFunctions, 15), 1.0);
        assert_eq!(warm_frac(BaselineKind::AwsStepFunctions, 25), 0.0);
        assert_eq!(warm_frac(BaselineKind::AzureDurableFunctions, 25), 0.0);
    }

    #[test]
    fn openwhisk_pool_jump_at_depth_five() {
        // With a live cap of 4, the fifth container provisioning must evict
        // first: the per-function marginal overhead jumps at depth 5
        // (Figure 4's "sudden increase … for chain length 5").
        let seeds = 0..12u64;
        let mean = |n: usize| {
            seeds
                .clone()
                .map(|s| cold_overhead(BaselineKind::OpenWhisk, n, s))
                .sum::<f64>()
                / 12.0
        };
        let o4 = mean(4);
        let o5 = mean(5);
        let marginal_4 = o4 / 4.0;
        let marginal_5 = o5 - o4;
        assert!(
            marginal_5 > marginal_4 + 400.0,
            "depth-5 marginal {marginal_5} should exceed average {marginal_4} by the eviction delay"
        );
    }

    #[test]
    fn warm_chains_are_cheap_on_cloud_platforms() {
        let mut p = baseline_platform(BaselineKind::AwsStepFunctions, 19);
        p.deploy(chain(5)).unwrap();
        p.trigger_at("c", SimTime::ZERO).unwrap();
        p.trigger_at("c", SimTime::ZERO + SimDuration::from_mins(2))
            .unwrap();
        p.run_until_idle();
        let warm = &p.results()[1];
        let frac = warm.overhead.as_millis_f64() / warm.end_to_end.as_millis_f64();
        // Fig 3: warm overhead ≈13% of runtime.
        assert!((0.05..0.25).contains(&frac), "warm fraction {frac}");
    }
}
