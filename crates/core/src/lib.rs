//! # xanadu-core
//!
//! Xanadu's core contribution (§3 of the paper): the algorithms that
//! eliminate cascading cold starts in function chains.
//!
//! * [`mlp`] — **Algorithm 1**: inference of the Most Likely Path (MLP)
//!   through a workflow DAG from (ground-truth or learned) branch
//!   probabilities.
//! * [`jit`] — **Algorithm 2**: generation of the just-in-time deployment
//!   plan, timing each sandbox's provisioning so it becomes warm exactly
//!   when its function is expected to be invoked.
//! * [`speculation`] — the speculation engine: deployment aggressiveness
//!   (§3.2.1), execution modes (cold / speculative / JIT), and prediction-
//!   miss policies including the paper's future-work replan-and-reuse
//!   (§7).
//! * [`policy`] — the pluggable [`policy::SpeculationPolicy`] trait that
//!   generalizes the engine's surface, with the paper's planner as the
//!   default implementation plus MPC and tabular-RL competitors and the
//!   name-based [`policy::PolicyRegistry`].
//! * [`cost`] — the cost model of §2.4: latency overhead `C_D`, resource
//!   overheads `C_R_cpu` / `C_R_mem`, and the joint penalties `φ_cpu` /
//!   `φ_mem`.
//! * [`estimate`] — the estimate source abstraction connecting profiled
//!   metrics (from `xanadu-profiler`) to the planner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod estimate;
pub mod jit;
pub mod mlp;
pub mod policy;
pub mod speculation;

pub use cost::{PenaltyFactors, ResourceCosts, WorkflowRunCosts};
pub use estimate::{EstimateSource, NodeEstimate, StaticEstimates};
pub use jit::{JitPlan, PlannedDeployment};
pub use mlp::{infer_mlp, infer_mlp_hedged, infer_mlp_learned, MlpResult};
pub use policy::{
    CompletionObservation, ConfiguredPolicy, MpcConfig, MpcPolicy, PlanContext, PolicyParseError,
    PolicyRegistry, PolicySpec, RlConfig, RlPolicy, SpeculationPolicy, XanaduPolicy,
};
pub use speculation::{ExecutionMode, MissPolicy, SpeculationConfig, SpeculationEngine};
