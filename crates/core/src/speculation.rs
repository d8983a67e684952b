//! The speculation engine: the paper's planner, with its execution modes,
//! deployment aggressiveness, and prediction-miss policies.
//!
//! Xanadu runs workflows in one of three modes (§5): **Cold** (no
//! optimization, sandboxes provisioned on demand), **Speculative** (all MLP
//! sandboxes deployed when the workflow triggers, §3.1), and **JIT**
//! (sandboxes deployed per the Algorithm 2 timeline, §3.2.2).
//!
//! [`SpeculationEngine`] runs that one pipeline — MLP inference, the
//! aggressiveness horizon, Algorithm 2, and for Speculative mode every
//! deployment moved to the trigger — and is the platform's default
//! [`SpeculationPolicy`], memoizing plans per workflow. The RL policy
//! plans its chosen mode through the same uncached pipeline
//! ([`SpeculationEngine::plan_uncached`]).
//!
//! Two controls bound the cost of wrong predictions:
//!
//! * **Deployment aggressiveness** (§3.2.1) — a provider-side `[0, 1]`
//!   scale limiting how far down the MLP the pre-provisioner looks: at
//!   `a`, only functions within `ceil(a · depth)` levels of the workflow
//!   root are pre-deployed.
//! * **Miss policy** — on a prediction miss the paper's Xanadu "stops all
//!   planned proactive provisioning" ([`MissPolicy::StopSpeculation`]);
//!   the future-work extension ([`MissPolicy::ReplanAndReuse`], §7)
//!   re-runs MLP inference from the deviation point and reuses compatible
//!   already-deployed workers on the new path.

use crate::estimate::EstimateSource;
use crate::jit::{plan_jit, JitPlan};
use crate::mlp::{infer_mlp_from, infer_mlp_hedged, MlpResult};
use crate::policy::{PlanContext, ProbabilityFn, SpeculationPolicy};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::str::FromStr;
use xanadu_chain::{NodeId, WorkflowDag};
use xanadu_simcore::SimDuration;

/// Hit/miss counters of a policy's plan cache (see
/// [`SpeculationPolicy::plan_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanCacheStats {
    /// Plans served from the cache.
    pub hits: u64,
    /// Plans computed because no fresh cached plan existed.
    pub misses: u64,
}

/// A memoized planning result for one workflow, tagged with the epochs of
/// the inputs it was computed from.
#[derive(Debug, Clone)]
struct CachedPlan {
    estimates_epoch: u64,
    prob_epoch: u64,
    plan: JitPlan,
}

/// How a platform provisions sandboxes for a workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// No optimization: provision each sandbox when its function is
    /// invoked ("Xanadu Cold").
    Cold,
    /// Deploy every (aggressiveness-limited) MLP sandbox at trigger time
    /// ("Xanadu Speculative").
    Speculative,
    /// Deploy per the Algorithm 2 timeline ("Xanadu JIT").
    #[default]
    Jit,
}

impl ExecutionMode {
    /// All modes, in the order the paper's figures present them.
    pub const ALL: [ExecutionMode; 3] = [
        ExecutionMode::Cold,
        ExecutionMode::Speculative,
        ExecutionMode::Jit,
    ];

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            ExecutionMode::Cold => "xanadu-cold",
            ExecutionMode::Speculative => "xanadu-spec",
            ExecutionMode::Jit => "xanadu-jit",
        }
    }
}

/// Parses the spellings `cold`, `spec` (or `speculative`) and `jit`.
impl FromStr for ExecutionMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cold" => Ok(ExecutionMode::Cold),
            "spec" | "speculative" => Ok(ExecutionMode::Speculative),
            "jit" => Ok(ExecutionMode::Jit),
            other => Err(format!("unknown execution mode `{other}`")),
        }
    }
}

/// What to do when a planned pre-deployment fails to provision (the
/// sandbox died during startup). Returned by
/// [`SpeculationPolicy::on_deploy_failure`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DeployFailureAction {
    /// Re-submit the deployment after `delay` (exponential backoff on the
    /// node's startup estimate).
    Retry {
        /// How long to wait before re-submitting.
        delay: SimDuration,
    },
    /// Retries exhausted: drop the node from the plan so its invocation is
    /// accounted as a prediction miss, never silently counted warm.
    Drop,
}

/// What to do when the workflow deviates from the predicted path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum MissPolicy {
    /// Stop all planned proactive provisioning; the remainder of the run
    /// pays cold starts but avoids double-provisioning waste (§3.2.2).
    #[default]
    StopSpeculation,
    /// Re-infer the MLP from the deviation point and speculate on the new
    /// path, reusing deployed-but-unused workers of compatible
    /// configuration (paper future work, §7).
    ReplanAndReuse,
}

/// Parses the spellings `stop` and `replan-and-reuse`.
impl FromStr for MissPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "stop" => Ok(MissPolicy::StopSpeculation),
            "replan-and-reuse" => Ok(MissPolicy::ReplanAndReuse),
            other => Err(format!("unknown miss policy `{other}`")),
        }
    }
}

/// Configuration of the speculation engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeculationConfig {
    /// Provisioning mode.
    pub mode: ExecutionMode,
    /// Deployment aggressiveness in `[0, 1]` (§3.2.1). 1.0 pre-provisions
    /// the full MLP; 0.0 disables pre-provisioning entirely.
    pub aggressiveness: f64,
    /// Prediction-miss handling.
    pub miss_policy: MissPolicy,
    /// Hedge margin for near-tied XOR points (0.0 = the paper's strict
    /// argmax; see [`infer_mlp_hedged`]): siblings within this likelihood
    /// margin of the winner are pre-provisioned too, trading memory for
    /// immunity to coin-flip branches.
    pub hedge_margin: f64,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        SpeculationConfig {
            mode: ExecutionMode::Jit,
            aggressiveness: 1.0,
            miss_policy: MissPolicy::StopSpeculation,
            hedge_margin: 0.0,
        }
    }
}

impl SpeculationConfig {
    /// Convenience constructor for a mode with full aggressiveness and the
    /// paper's default miss policy.
    pub fn for_mode(mode: ExecutionMode) -> Self {
        SpeculationConfig {
            mode,
            ..Default::default()
        }
    }
}

/// The paper's planner, and the platform's default
/// [`SpeculationPolicy`]: MLP inference (Algorithm 1), the aggressiveness
/// horizon and the JIT timeline (Algorithm 2), run in the configured
/// [`ExecutionMode`], with plans memoized per workflow.
///
/// # Example
///
/// ```
/// use xanadu_chain::{linear_chain, FunctionSpec};
/// use xanadu_core::estimate::{StaticEstimates, NodeEstimate};
/// use xanadu_core::speculation::{SpeculationConfig, SpeculationEngine, ExecutionMode};
///
/// let dag = linear_chain("c", 5, &FunctionSpec::new("f").service_ms(5000.0))?;
/// let est = StaticEstimates::uniform(NodeEstimate {
///     cold_start_ms: 3000.0, startup_ms: 3000.0, warm_runtime_ms: 5000.0,
/// });
/// let engine = SpeculationEngine::new(SpeculationConfig::for_mode(ExecutionMode::Speculative));
/// let plan = engine.plan_uncached(&dag, &est, |_, _| None);
/// assert_eq!(plan.deployments().len(), 5);
/// // Speculative mode deploys everything at t = 0.
/// assert!(plan.deployments().iter().all(|d| d.deploy_at.as_micros() == 0));
/// # Ok::<(), xanadu_chain::ChainError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpeculationEngine {
    config: SpeculationConfig,
    /// Memoized plans per workflow name; see
    /// [`SpeculationPolicy::plan`].
    cache: HashMap<String, CachedPlan>,
    cache_enabled: bool,
    stats: PlanCacheStats,
}

impl SpeculationEngine {
    /// Creates an engine with the given configuration. The plan cache
    /// starts enabled; see [`SpeculationPolicy::set_plan_cache`].
    pub fn new(config: SpeculationConfig) -> Self {
        SpeculationEngine {
            config,
            cache: HashMap::new(),
            cache_enabled: true,
            stats: PlanCacheStats::default(),
        }
    }

    /// Computes the pre-deployment plan for one trigger of `dag`, without
    /// the cache.
    ///
    /// `rho` supplies learned probabilities (return `None` to use the
    /// DAG's ground truth, as in [`infer_mlp`](crate::mlp::infer_mlp)).
    ///
    /// In [`ExecutionMode::Cold`] the plan is empty. In
    /// [`ExecutionMode::Speculative`] all selected nodes deploy at offset
    /// zero. In [`ExecutionMode::Jit`] deployments follow Algorithm 2.
    pub fn plan_uncached(
        &self,
        dag: &WorkflowDag,
        estimates: &dyn EstimateSource,
        rho: impl FnMut(NodeId, NodeId) -> Option<f64>,
    ) -> JitPlan {
        if self.config.mode == ExecutionMode::Cold {
            return JitPlan::default();
        }
        let mlp = infer_mlp_hedged(dag, rho, self.config.hedge_margin);
        let jit = plan_jit(dag, &self.limit_by_aggressiveness(dag, mlp), estimates);
        match self.config.mode {
            ExecutionMode::Speculative => jit.deployed_earlier(SimDuration::MAX),
            _ => jit,
        }
    }

    /// Applies the aggressiveness horizon: keeps MLP nodes whose DAG level
    /// is below `ceil(aggressiveness · depth)` (§3.2.1).
    fn limit_by_aggressiveness(&self, dag: &WorkflowDag, mlp: MlpResult) -> Vec<NodeId> {
        let a = self.config.aggressiveness.clamp(0.0, 1.0);
        if a >= 1.0 {
            return mlp.path;
        }
        let levels = dag.levels();
        let horizon = (a * dag.depth() as f64).ceil() as usize;
        mlp.path
            .into_iter()
            .filter(|n| levels[n.index()] < horizon)
            .collect()
    }
}

impl SpeculationPolicy for SpeculationEngine {
    fn label(&self) -> &'static str {
        self.config.mode.label()
    }

    fn plans_at_trigger(&self) -> bool {
        self.config.mode != ExecutionMode::Cold
    }

    fn allows_retarget(&self) -> bool {
        self.config.miss_policy == MissPolicy::ReplanAndReuse
    }

    /// [`plan_uncached`](SpeculationEngine::plan_uncached), memoized per
    /// workflow: recomputing MLP inference and the Algorithm 2 timeline
    /// on every trigger is a dominant dispatch-path cost, yet the result
    /// only changes when the planning inputs do. A cached plan is reused
    /// exactly while both epochs of `ctx` still match the ones it was
    /// computed at.
    ///
    /// [`ExecutionMode::Cold`] plans are empty and bypass the cache and
    /// its counters entirely, as does a disabled cache.
    fn plan(
        &mut self,
        ctx: &PlanContext,
        dag: &WorkflowDag,
        estimates: &dyn EstimateSource,
        rho: &mut ProbabilityFn,
    ) -> JitPlan {
        if self.config.mode == ExecutionMode::Cold {
            return JitPlan::default();
        }
        if !self.cache_enabled {
            return self.plan_uncached(dag, estimates, rho);
        }
        if let Some(cached) = self.cache.get(dag.name()) {
            if cached.estimates_epoch == ctx.estimates_epoch && cached.prob_epoch == ctx.prob_epoch
            {
                self.stats.hits += 1;
                return cached.plan.clone();
            }
        }
        self.stats.misses += 1;
        let plan = self.plan_uncached(dag, estimates, rho);
        let cached = CachedPlan {
            estimates_epoch: ctx.estimates_epoch,
            prob_epoch: ctx.prob_epoch,
            plan: plan.clone(),
        };
        // A stale entry is overwritten in place: the workflow's key is
        // allocated only on its first miss.
        match self.cache.get_mut(dag.name()) {
            Some(slot) => *slot = cached,
            None => {
                self.cache.insert(dag.name().to_string(), cached);
            }
        }
        plan
    }

    /// Under [`MissPolicy::StopSpeculation`], `None`. Under
    /// [`MissPolicy::ReplanAndReuse`], the MLP below `actual` (which is
    /// taken as certain), timed by Algorithm 2 and shifted by `elapsed`.
    fn on_miss(
        &mut self,
        _ctx: &PlanContext,
        dag: &WorkflowDag,
        estimates: &dyn EstimateSource,
        actual: NodeId,
        elapsed: SimDuration,
        rho: &mut ProbabilityFn,
    ) -> Option<JitPlan> {
        match self.config.miss_policy {
            MissPolicy::StopSpeculation => None,
            MissPolicy::ReplanAndReuse => {
                let mlp = infer_mlp_from(dag, actual, rho);
                Some(plan_jit(dag, &mlp.path, estimates).shifted(elapsed))
            }
        }
    }

    /// Disabling drops all cached plans (but keeps the hit/miss counters).
    fn set_plan_cache(&mut self, enabled: bool) {
        self.cache_enabled = enabled;
        if !enabled {
            self.cache.clear();
        }
    }

    fn invalidate_plan_cache(&mut self) {
        self.cache.clear();
    }

    fn plan_cache_stats(&self) -> PlanCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{NodeEstimate, StaticEstimates};
    use xanadu_chain::{linear_chain, FunctionSpec, WorkflowBuilder};

    /// Every spelling the CLI and the policy specs accept parses, and
    /// nothing else does (the match is exact, case included).
    #[test]
    fn mode_and_miss_policy_names_parse() {
        for (name, mode) in [
            ("cold", ExecutionMode::Cold),
            ("spec", ExecutionMode::Speculative),
            ("speculative", ExecutionMode::Speculative),
            ("jit", ExecutionMode::Jit),
        ] {
            assert_eq!(name.parse(), Ok(mode));
        }
        for name in ["", "Jit", "knative", "jit "] {
            assert!(name.parse::<ExecutionMode>().is_err(), "{name:?}");
        }
        assert_eq!("stop".parse(), Ok(MissPolicy::StopSpeculation));
        assert_eq!("replan-and-reuse".parse(), Ok(MissPolicy::ReplanAndReuse));
        for name in ["", "Stop", "replan"] {
            assert!(name.parse::<MissPolicy>().is_err(), "{name:?}");
        }
    }

    fn est() -> StaticEstimates {
        StaticEstimates::uniform(NodeEstimate {
            cold_start_ms: 3000.0,
            startup_ms: 3000.0,
            warm_runtime_ms: 5000.0,
        })
    }

    fn chain(n: usize) -> xanadu_chain::WorkflowDag {
        linear_chain("c", n, &FunctionSpec::new("f").service_ms(5000.0)).unwrap()
    }

    /// A decision point at the trigger with the given input epochs.
    fn at(estimates_epoch: u64, prob_epoch: u64) -> PlanContext {
        PlanContext {
            now: xanadu_simcore::SimTime::ZERO,
            estimates_epoch,
            prob_epoch,
        }
    }

    /// The ground-truth probability source.
    fn truth(_: NodeId, _: NodeId) -> Option<f64> {
        None
    }

    #[test]
    fn cold_mode_plans_nothing() {
        let engine = SpeculationEngine::new(SpeculationConfig::for_mode(ExecutionMode::Cold));
        let plan = engine.plan_uncached(&chain(5), &est(), |_, _| None);
        assert!(plan.is_empty());
    }

    #[test]
    fn speculative_mode_deploys_all_at_zero() {
        let engine =
            SpeculationEngine::new(SpeculationConfig::for_mode(ExecutionMode::Speculative));
        let plan = engine.plan_uncached(&chain(5), &est(), |_, _| None);
        assert_eq!(plan.len(), 5);
        assert!(plan
            .deployments()
            .iter()
            .all(|d| d.deploy_at == SimDuration::ZERO));
        // Invocation expectations survive flattening (used for accounting).
        assert!(plan
            .deployments()
            .iter()
            .any(|d| d.expected_invocation > SimDuration::ZERO));
    }

    #[test]
    fn jit_mode_staggers_deployments() {
        let engine = SpeculationEngine::new(SpeculationConfig::for_mode(ExecutionMode::Jit));
        let plan = engine.plan_uncached(&chain(5), &est(), |_, _| None);
        assert_eq!(plan.len(), 5);
        let nonzero = plan
            .deployments()
            .iter()
            .filter(|d| d.deploy_at > SimDuration::ZERO)
            .count();
        assert_eq!(nonzero, 4, "all but the root deploy later");
    }

    #[test]
    fn aggressiveness_limits_horizon() {
        let cfg = SpeculationConfig {
            mode: ExecutionMode::Speculative,
            aggressiveness: 0.5,
            miss_policy: MissPolicy::StopSpeculation,
            hedge_margin: 0.0,
        };
        let plan = SpeculationEngine::new(cfg).plan_uncached(&chain(10), &est(), |_, _| None);
        assert_eq!(plan.len(), 5, "half of a depth-10 chain");

        let cfg_zero = SpeculationConfig {
            aggressiveness: 0.0,
            ..cfg
        };
        let plan = SpeculationEngine::new(cfg_zero).plan_uncached(&chain(10), &est(), |_, _| None);
        assert!(plan.is_empty());

        let cfg_full = SpeculationConfig {
            aggressiveness: 1.0,
            ..cfg
        };
        let plan = SpeculationEngine::new(cfg_full).plan_uncached(&chain(10), &est(), |_, _| None);
        assert_eq!(plan.len(), 10);
    }

    #[test]
    fn aggressiveness_out_of_range_clamped() {
        let cfg = SpeculationConfig {
            mode: ExecutionMode::Speculative,
            aggressiveness: 7.5,
            miss_policy: MissPolicy::StopSpeculation,
            hedge_margin: 0.0,
        };
        let plan = SpeculationEngine::new(cfg).plan_uncached(&chain(4), &est(), |_, _| None);
        assert_eq!(plan.len(), 4);
    }

    #[test]
    fn stop_speculation_returns_none_on_miss() {
        let mut engine = SpeculationEngine::new(SpeculationConfig::default());
        let dag = chain(3);
        let miss = engine.on_miss(
            &at(0, 0),
            &dag,
            &est(),
            dag.node_by_name("f1").unwrap(),
            SimDuration::from_secs(8),
            &mut truth,
        );
        assert!(miss.is_none());
    }

    #[test]
    fn replan_and_reuse_plans_remaining_subtree() {
        // XOR at root: predicted `hot`, actual `cold` which has a tail.
        let mut b = WorkflowBuilder::new("x");
        let a = b.add(FunctionSpec::new("a")).unwrap();
        let hot = b.add(FunctionSpec::new("hot")).unwrap();
        let cold = b.add(FunctionSpec::new("cold")).unwrap();
        let tail = b.add(FunctionSpec::new("tail")).unwrap();
        b.link_xor(a, &[(hot, 0.9), (cold, 0.1)]).unwrap();
        b.link(cold, tail).unwrap();
        let dag = b.build().unwrap();

        let cfg = SpeculationConfig {
            mode: ExecutionMode::Jit,
            aggressiveness: 1.0,
            miss_policy: MissPolicy::ReplanAndReuse,
            hedge_margin: 0.0,
        };
        let mut engine = SpeculationEngine::new(cfg);
        let elapsed = SimDuration::from_secs(8);
        let plan = engine
            .on_miss(&at(0, 0), &dag, &est(), cold, elapsed, &mut truth)
            .expect("replan produced");
        let nodes: Vec<NodeId> = plan.deployments().iter().map(|d| d.node).collect();
        assert!(nodes.contains(&cold));
        assert!(nodes.contains(&tail));
        assert!(!nodes.contains(&hot));
        assert!(!nodes.contains(&a));
        // Offsets are shifted by the elapsed time.
        assert!(plan
            .deployments()
            .iter()
            .all(|d| d.deploy_at >= SimDuration::ZERO));
        assert!(plan
            .deployments()
            .iter()
            .any(|d| d.expected_invocation >= elapsed));
    }

    #[test]
    fn plan_cache_hits_while_epochs_match() {
        let mut engine = SpeculationEngine::new(SpeculationConfig::for_mode(ExecutionMode::Jit));
        let dag = chain(5);
        let reference = engine.plan_uncached(&dag, &est(), |_, _| None);
        let first = engine.plan(&at(3, 7), &dag, &est(), &mut truth);
        let second = engine.plan(&at(3, 7), &dag, &est(), &mut truth);
        assert_eq!(first, reference, "cache must not change the plan");
        assert_eq!(second, reference);
        let stats = engine.plan_cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn plan_cache_invalidated_by_epoch_change() {
        let mut engine = SpeculationEngine::new(SpeculationConfig::for_mode(ExecutionMode::Jit));
        let dag = chain(3);
        engine.plan(&at(0, 0), &dag, &est(), &mut truth);
        // Either input epoch moving forces a recompute.
        engine.plan(&at(1, 0), &dag, &est(), &mut truth);
        engine.plan(&at(1, 2), &dag, &est(), &mut truth);
        assert_eq!(engine.plan_cache_stats().misses, 3);
        assert_eq!(engine.plan_cache_stats().hits, 0);
        // Explicit invalidation drops the stored plan too.
        engine.plan(&at(1, 2), &dag, &est(), &mut truth);
        assert_eq!(engine.plan_cache_stats().hits, 1);
        engine.invalidate_plan_cache();
        engine.plan(&at(1, 2), &dag, &est(), &mut truth);
        assert_eq!(engine.plan_cache_stats().misses, 4);
    }

    #[test]
    fn plan_cache_disabled_recomputes_without_counting() {
        let mut engine = SpeculationEngine::new(SpeculationConfig::for_mode(ExecutionMode::Jit));
        engine.set_plan_cache(false);
        let dag = chain(3);
        let plan = engine.plan(&at(0, 0), &dag, &est(), &mut truth);
        assert_eq!(plan, engine.plan_uncached(&dag, &est(), |_, _| None));
        assert_eq!(engine.plan_cache_stats(), PlanCacheStats::default());
    }

    #[test]
    fn cold_mode_bypasses_plan_cache() {
        let mut engine = SpeculationEngine::new(SpeculationConfig::for_mode(ExecutionMode::Cold));
        let dag = chain(3);
        assert!(engine.plan(&at(0, 0), &dag, &est(), &mut truth).is_empty());
        assert_eq!(engine.plan_cache_stats(), PlanCacheStats::default());
    }

    #[test]
    fn deploy_failure_backs_off_then_drops() {
        // The engine keeps the trait's default reaction.
        let mut engine = SpeculationEngine::new(SpeculationConfig::default());
        let dag = chain(2);
        let node = dag.node_by_name("f1").unwrap();
        // Attempts below the cap retry with exponential backoff on the
        // startup estimate: 3000/2 · 2^attempt.
        assert_eq!(
            engine.on_deploy_failure(node, 0, 3, 3000.0),
            DeployFailureAction::Retry {
                delay: SimDuration::from_millis_f64(1500.0)
            }
        );
        assert_eq!(
            engine.on_deploy_failure(node, 2, 3, 3000.0),
            DeployFailureAction::Retry {
                delay: SimDuration::from_millis_f64(6000.0)
            }
        );
        // At the cap the node is dropped from the plan.
        assert_eq!(
            engine.on_deploy_failure(node, 3, 3, 3000.0),
            DeployFailureAction::Drop
        );
        // A degenerate zero startup estimate still yields a nonzero delay.
        match engine.on_deploy_failure(node, 0, 3, 0.0) {
            DeployFailureAction::Retry { delay } => assert!(delay > SimDuration::ZERO),
            other => panic!("expected retry, got {other:?}"),
        }
    }

    #[test]
    fn mode_labels_are_stable() {
        assert_eq!(ExecutionMode::Cold.label(), "xanadu-cold");
        assert_eq!(ExecutionMode::Speculative.label(), "xanadu-spec");
        assert_eq!(ExecutionMode::Jit.label(), "xanadu-jit");
    }

    #[test]
    fn default_config_is_full_jit_stop_on_miss() {
        let c = SpeculationConfig::default();
        assert_eq!(c.mode, ExecutionMode::Jit);
        assert_eq!(c.aggressiveness, 1.0);
        assert_eq!(c.miss_policy, MissPolicy::StopSpeculation);
        assert_eq!(c.hedge_margin, 0.0);
    }

    #[test]
    fn hedging_expands_the_plan_on_weak_biases() {
        let mut b = WorkflowBuilder::new("h");
        let a = b.add(FunctionSpec::new("a").service_ms(500.0)).unwrap();
        let c1 = b.add(FunctionSpec::new("c1").service_ms(500.0)).unwrap();
        let c2 = b.add(FunctionSpec::new("c2").service_ms(500.0)).unwrap();
        b.link_xor(a, &[(c1, 0.51), (c2, 0.49)]).unwrap();
        let dag = b.build().unwrap();
        let strict = SpeculationEngine::new(SpeculationConfig::for_mode(ExecutionMode::Jit));
        assert_eq!(strict.plan_uncached(&dag, &est(), |_, _| None).len(), 2);
        let hedged = SpeculationEngine::new(SpeculationConfig {
            hedge_margin: 0.1,
            ..SpeculationConfig::for_mode(ExecutionMode::Jit)
        });
        assert_eq!(hedged.plan_uncached(&dag, &est(), |_, _| None).len(), 3);
    }
}
