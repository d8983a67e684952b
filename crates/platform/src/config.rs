//! Platform configuration.

use crate::faults::FaultConfig;
use crate::hosts::{AutoscaleConfig, HostSpec, PlacementPolicy};
use serde::{Deserialize, Serialize};
use xanadu_core::policy::{PolicyRegistry, PolicySpec};
use xanadu_core::speculation::{ExecutionMode, SpeculationConfig};
use xanadu_sandbox::PoolConfig;
use xanadu_simcore::Distribution;

/// Serde default for [`PlatformConfig::plan_cache`]: caching is on.
fn default_plan_cache() -> bool {
    true
}

/// Serde default for [`PlatformConfig::record_traces`]: recording is on.
fn default_record_traces() -> bool {
    true
}

/// The cluster the Dispatch Daemons run on: hosts plus the placement
/// policy the Dispatch Manager uses (Figure 11 of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Placement policy for new workers.
    pub policy: PlacementPolicy,
    /// The hosts; empty means "the paper's single-machine testbed".
    pub hosts: Vec<HostSpec>,
    /// Tenants sharing the cluster, `tenant-0..tenants`; each workflow
    /// belongs to one by name hash. With more than one, each tenant's
    /// speculative placements are admitted up to an equal share of live
    /// capacity. 0 means no tenants at all.
    #[serde(default)]
    pub tenants: u32,
    /// Reactive fleet autoscaling; disabled by default.
    #[serde(default)]
    pub autoscale: AutoscaleConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            policy: PlacementPolicy::LeastLoaded,
            hosts: Vec::new(),
            tenants: 0,
            autoscale: AutoscaleConfig::default(),
        }
    }
}

impl ClusterConfig {
    /// `n` identical hosts of `memory_mb` MB under `policy`. `n = 0`
    /// gives the default single-machine testbed.
    pub fn uniform(policy: PlacementPolicy, n: u32, memory_mb: u64) -> Self {
        ClusterConfig {
            policy,
            hosts: (0..n)
                .map(|i| HostSpec::new(format!("host-{i}"), memory_mb))
                .collect(),
            ..ClusterConfig::default()
        }
    }

    /// `k` tenants named `tenant-0..k`, sharing the cluster equally.
    pub fn with_tenants(mut self, k: u32) -> Self {
        self.tenants = k;
        self
    }
}

/// Configuration of a [`Platform`](crate::Platform).
///
/// Besides Xanadu's own knobs (speculation mode, aggressiveness, pool
/// policy), the config exposes the platform-shape parameters that the
/// baseline emulations in `xanadu-baselines` override: per-hop
/// orchestration overhead, a live-worker cap with eviction delay (the
/// OpenWhisk warm-pool limitation of §2.3), and whether workflow structure
/// may be consulted at all (chain-agnostic baselines).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformConfig {
    /// Human-readable platform label used in experiment output.
    pub label: String,
    /// Speculation mode / aggressiveness / miss policy. Parameterizes the
    /// default Xanadu policy; learned policies carry their own parameters
    /// in [`policy`](PlatformConfig::policy).
    pub speculation: SpeculationConfig,
    /// Which speculation policy drives planning (§11 of DESIGN.md). The
    /// default, [`PolicySpec::Xanadu`], is the paper's engine configured
    /// by [`speculation`](PlatformConfig::speculation); the field is
    /// skipped during serialization in that case so default configs keep
    /// their exact bytes.
    #[serde(default, skip_serializing_if = "PolicySpec::is_default")]
    pub policy: PolicySpec,
    /// Warm-pool keep-alive and cap policy.
    pub pool: PoolConfig,
    /// Master RNG seed; every derived stream is deterministic in it.
    pub seed: u64,
    /// Per-hop orchestration latency (request routing, signalling): added
    /// between a trigger/parent-completion and the child invocation. The
    /// paper calls these "networking and signalling delays … orders of
    /// magnitude lower" than cold starts (§1).
    pub orchestration_overhead: Distribution,
    /// Maximum number of live workers (any state), or `None` for
    /// unlimited. When at the cap, provisioning must first evict an idle
    /// warm worker, paying `eviction_delay` — this models OpenWhisk's
    /// limited container pool (§2.3).
    pub max_live: Option<usize>,
    /// Latency of evicting a warm worker when `max_live` forces it.
    pub eviction_delay: Distribution,
    /// Whether planning consults learned (detector/EMA) probabilities
    /// before falling back to the workflow's declared probabilities.
    pub use_learned_probabilities: bool,
    /// The hosts the Dispatch Daemons manage.
    pub cluster: ClusterConfig,
    /// Memoize per-workflow deployment plans in the speculation engine,
    /// invalidated whenever the profiled metrics or learned branch
    /// probabilities change. On by default; the `abl` determinism checks
    /// turn it off to prove results are unchanged either way.
    #[serde(default = "default_plan_cache")]
    pub plan_cache: bool,
    /// Pre-crafted worker pool size per function (0 = off). When set, the
    /// platform keeps this many workers warm for *every* deployed
    /// function, replenishing after use and exempting them from
    /// keep-alive reclamation — the long-running pool approach of the
    /// paper's related work (§6), used by the `abl-pool` ablation as a
    /// cost foil for JIT speculation.
    pub static_prewarm: usize,
    /// Record the orchestration timeline ([`Trace`](crate::timeline::Trace))
    /// of every request. On by default — audits, the CLI's `--trace`
    /// rendering and Chrome export all read them.
    /// Fleet-scale replays (millions of invocations) turn this off so
    /// per-request memory stays flat; aggregate results and metrics are
    /// unaffected either way. Each trace is the lifecycle fold of the
    /// request's bus events, so recording turns event emission on like an
    /// attached observer.
    #[serde(default = "default_record_traces")]
    pub record_traces: bool,
    /// Fault injection: worker and host failure rates and the fault seed.
    /// Disabled (rates 0) by default.
    #[serde(default)]
    pub faults: FaultConfig,
}

/// A [`PlatformConfigBuilder`] validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid platform config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`PlatformConfig`] with typed setters and validated
/// [`build`](PlatformConfigBuilder::build).
///
/// Preferred over poking the config's public fields in tests and
/// benchmarks: the builder keeps presets
/// ([`for_mode`](PlatformConfigBuilder::for_mode)) and overrides in one
/// expression and rejects nonsense (empty label, fault rates outside
/// `[0, 1]`) before a platform is ever constructed.
///
/// ```
/// use xanadu_core::speculation::ExecutionMode;
/// use xanadu_platform::PlatformConfig;
///
/// let config = PlatformConfig::builder()
///     .for_mode(ExecutionMode::Jit, 42)
///     .plan_cache(false)
///     .static_prewarm(2)
///     .build()?;
/// assert_eq!(config.seed, 42);
/// # Ok::<(), xanadu_platform::ConfigError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct PlatformConfigBuilder {
    config: PlatformConfig,
    /// Whether `.speculation()`/`.miss_policy()` were called explicitly —
    /// those knobs only parameterize the Xanadu policy, so combining them
    /// with a learned `.policy(...)` is rejected at `build()`.
    speculation_touched: bool,
}

impl PlatformConfigBuilder {
    /// Resets every field to the [`PlatformConfig::for_mode`] preset for
    /// `mode` and `seed`; call first, then layer overrides.
    pub fn for_mode(mut self, mode: ExecutionMode, seed: u64) -> Self {
        self.config = PlatformConfig::for_mode(mode, seed);
        self.speculation_touched = false;
        self
    }

    /// Human-readable platform label used in experiment output.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.config.label = label.into();
        self
    }

    /// Full speculation configuration (mode, aggressiveness, miss policy).
    pub fn speculation(mut self, speculation: SpeculationConfig) -> Self {
        self.config.speculation = speculation;
        self.speculation_touched = true;
        self
    }

    /// Miss policy override, keeping the rest of the speculation preset.
    pub fn miss_policy(mut self, policy: xanadu_core::speculation::MissPolicy) -> Self {
        self.config.speculation.miss_policy = policy;
        self.speculation_touched = true;
        self
    }

    /// Which speculation policy drives planning. The default
    /// [`PolicySpec::Xanadu`] reads the `speculation` knobs; learned
    /// policies ([`PolicySpec::Mpc`], [`PolicySpec::Rl`]) carry their own
    /// parameters and reject explicit `speculation`/`miss_policy`
    /// overrides.
    pub fn policy(mut self, spec: PolicySpec) -> Self {
        self.config.policy = spec;
        self
    }

    /// Warm-pool keep-alive and cap policy.
    pub fn pool(mut self, pool: PoolConfig) -> Self {
        self.config.pool = pool;
        self
    }

    /// Whether planning consults learned branch probabilities.
    pub fn use_learned_probabilities(mut self, learned: bool) -> Self {
        self.config.use_learned_probabilities = learned;
        self
    }

    /// The hosts the Dispatch Daemons manage, plus placement policy.
    pub fn cluster(mut self, cluster: ClusterConfig) -> Self {
        self.config.cluster = cluster;
        self
    }

    /// Whether deployment plans are memoized per workflow.
    pub fn plan_cache(mut self, enabled: bool) -> Self {
        self.config.plan_cache = enabled;
        self
    }

    /// Pre-crafted worker pool size per function (0 = off).
    pub fn static_prewarm(mut self, per_function: usize) -> Self {
        self.config.static_prewarm = per_function;
        self
    }

    /// Whether per-request traces are recorded.
    pub fn record_traces(mut self, record: bool) -> Self {
        self.config.record_traces = record;
        self
    }

    /// Fault injection policy.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.config.faults = faults;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<PlatformConfig, ConfigError> {
        let c = self.config;
        if c.label.trim().is_empty() {
            return Err(ConfigError("label must not be empty".into()));
        }
        if self.speculation_touched && !c.policy.is_default() {
            return Err(ConfigError(format!(
                "policy `{}` does not read the xanadu speculation knobs; \
                 configure it via its own `--policy {}:param=val` parameters",
                c.policy.name(),
                c.policy.name()
            )));
        }
        PolicyRegistry::validate(&c.policy).map_err(|e| ConfigError(e.to_string()))?;
        if !(0.0..=1.0).contains(&c.faults.rate) || !c.faults.rate.is_finite() {
            return Err(ConfigError(format!(
                "fault rate {} outside [0, 1]",
                c.faults.rate
            )));
        }
        if !(0.0..=1.0).contains(&c.faults.host_failure_rate)
            || !c.faults.host_failure_rate.is_finite()
        {
            return Err(ConfigError(format!(
                "host failure rate {} outside [0, 1]",
                c.faults.host_failure_rate
            )));
        }
        if c.cluster.autoscale.enabled() && c.cluster.autoscale.host_memory_mb == 0 {
            return Err(ConfigError("autoscaled hosts need memory".into()));
        }
        Ok(c)
    }
}

impl PlatformConfig {
    /// A copy of this configuration under a different master seed. The
    /// service tier derives one seed per checkpoint epoch, so each
    /// epoch's platform samples fresh (but reproducible) latencies while
    /// every other knob stays fixed.
    pub fn reseeded(&self, seed: u64) -> Self {
        let mut config = self.clone();
        config.seed = seed;
        config
    }

    /// Starts a [`PlatformConfigBuilder`] from the default (JIT, seed 0)
    /// preset.
    pub fn builder() -> PlatformConfigBuilder {
        PlatformConfigBuilder::default()
    }

    /// A Xanadu platform in the given execution mode with the paper's
    /// default pool policy.
    pub fn for_mode(mode: ExecutionMode, seed: u64) -> Self {
        PlatformConfig {
            label: mode.label().to_string(),
            speculation: SpeculationConfig::for_mode(mode),
            policy: PolicySpec::Xanadu,
            pool: PoolConfig::default(),
            seed,
            orchestration_overhead: Distribution::log_normal(20.0, 5.0)
                .expect("default overhead valid"),
            max_live: None,
            eviction_delay: Distribution::Constant { value_ms: 500.0 },
            use_learned_probabilities: false,
            cluster: ClusterConfig::default(),
            plan_cache: true,
            static_prewarm: 0,
            record_traces: true,
            faults: FaultConfig::default(),
        }
    }

    /// Builder-style label override.
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

impl Default for PlatformConfig {
    fn default() -> Self {
        Self::for_mode(ExecutionMode::Jit, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_mode_sets_label_and_mode() {
        let c = PlatformConfig::for_mode(ExecutionMode::Speculative, 7);
        assert_eq!(c.label, "xanadu-spec");
        assert_eq!(c.speculation.mode, ExecutionMode::Speculative);
        assert_eq!(c.seed, 7);
        assert!(c.max_live.is_none());
    }

    #[test]
    fn labeled_overrides() {
        let c = PlatformConfig::default().labeled("knative");
        assert_eq!(c.label, "knative");
    }

    #[test]
    fn default_is_jit() {
        assert_eq!(
            PlatformConfig::default().speculation.mode,
            ExecutionMode::Jit
        );
    }

    #[test]
    fn builder_matches_for_mode_preset_plus_overrides() {
        let built = PlatformConfig::builder()
            .for_mode(ExecutionMode::Speculative, 9)
            .plan_cache(false)
            .static_prewarm(2)
            .build()
            .unwrap();
        let mut poked = PlatformConfig::for_mode(ExecutionMode::Speculative, 9);
        poked.plan_cache = false;
        poked.static_prewarm = 2;
        assert_eq!(built, poked);
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        assert!(PlatformConfig::builder().label("  ").build().is_err());
        let mut bad = FaultConfig::with_rate(0.5, 1);
        bad.rate = 1.5;
        assert!(PlatformConfig::builder().faults(bad).build().is_err());
        let bad_host = FaultConfig {
            host_failure_rate: 1.5,
            ..FaultConfig::default()
        };
        assert!(PlatformConfig::builder().faults(bad_host).build().is_err());
        let bad_auto = ClusterConfig {
            autoscale: AutoscaleConfig {
                max_hosts: 2,
                host_memory_mb: 0,
            },
            ..ClusterConfig::default()
        };
        assert!(PlatformConfig::builder().cluster(bad_auto).build().is_err());
    }

    #[test]
    fn uniform_cluster_and_tenant_helpers() {
        let c = ClusterConfig::uniform(PlacementPolicy::Affinity, 4, 2048).with_tenants(2);
        assert_eq!(c.hosts.len(), 4);
        assert_eq!(c.hosts[3].name, "host-3");
        assert_eq!(c.hosts[0].memory_mb, 2048);
        assert_eq!(c.tenants, 2);
        assert!(PlatformConfig::builder().cluster(c).build().is_ok());
    }

    #[test]
    fn builder_default_builds_the_default_config() {
        assert_eq!(
            PlatformConfig::builder().build().unwrap(),
            PlatformConfig::default()
        );
    }

    #[test]
    fn policy_field_is_skipped_when_default() {
        use serde::Serialize;
        let json = PlatformConfig::default().to_json();
        assert!(json.as_object().unwrap().get("policy").is_none());
        let learned = PlatformConfig::builder()
            .policy(PolicySpec::Mpc(xanadu_core::policy::MpcConfig::default()))
            .build()
            .unwrap();
        assert!(learned
            .to_json()
            .as_object()
            .unwrap()
            .get("policy")
            .is_some());
    }

    #[test]
    fn builder_rejects_speculation_knobs_on_learned_policies() {
        use xanadu_core::policy::{MpcConfig, RlConfig};
        use xanadu_core::speculation::MissPolicy;
        // Learned policy + explicit speculation override: typed error.
        assert!(PlatformConfig::builder()
            .policy(PolicySpec::Mpc(MpcConfig::default()))
            .miss_policy(MissPolicy::ReplanAndReuse)
            .build()
            .is_err());
        assert!(PlatformConfig::builder()
            .speculation(SpeculationConfig::default())
            .policy(PolicySpec::Rl(RlConfig::default()))
            .build()
            .is_err());
        // The same knobs are fine with the default policy, and a preset
        // reset clears the conflict.
        assert!(PlatformConfig::builder()
            .miss_policy(MissPolicy::ReplanAndReuse)
            .build()
            .is_ok());
        assert!(PlatformConfig::builder()
            .miss_policy(MissPolicy::ReplanAndReuse)
            .for_mode(ExecutionMode::Jit, 3)
            .policy(PolicySpec::Mpc(MpcConfig::default()))
            .build()
            .is_ok());
        // Malformed learned-policy parameters fail validation.
        assert!(PlatformConfig::builder()
            .policy(PolicySpec::Mpc(MpcConfig {
                horizon: 0,
                ..MpcConfig::default()
            }))
            .build()
            .is_err());
    }
}
