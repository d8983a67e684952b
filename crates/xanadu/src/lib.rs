//! # Xanadu
//!
//! A from-scratch Rust reproduction of **Xanadu: Mitigating cascading cold
//! starts in serverless function chain deployments** (Daw, Bellur,
//! Kulkarni — Middleware '20).
//!
//! Serverless *function chains* amplify the cold-start problem: each hop of
//! a workflow can trigger a fresh sandbox provisioning, so the overhead
//! grows linearly with chain depth. Xanadu eliminates the cascade with
//! three ideas:
//!
//! 1. **Most-Likely-Path inference** — a probabilistic model over the
//!    workflow DAG predicts which functions a trigger will reach
//!    ([`xanadu_core::mlp`]).
//! 2. **Speculative provisioning** — sandboxes for the MLP are deployed
//!    before their functions are invoked, converting cascading cold starts
//!    into warm starts ([`xanadu_core::speculation`]).
//! 3. **Just-in-time deployment** — each sandbox is provisioned on a
//!    profiled timeline so it becomes warm *just* before its invocation,
//!    keeping pre-provisioning cost near zero ([`xanadu_core::jit`]).
//!
//! This facade crate re-exports the full workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`xanadu_chain`] | workflow DAG model, SDL parser |
//! | [`xanadu_sandbox`] | isolation sandboxes, warm pools, providers |
//! | [`xanadu_profiler`] | EMA metrics, branch detection, correlation |
//! | [`xanadu_core`] | MLP, JIT planner, speculation engine, cost model |
//! | [`xanadu_platform`] | the Dispatch Manager / event-driven executor |
//! | [`xanadu_baselines`] | calibrated Knative/OpenWhisk/ASF/ADF models |
//! | [`xanadu_workloads`] | paper workloads and arrival processes |
//! | [`xanadu_simcore`] | deterministic DES kernel and statistics |
//!
//! # Quickstart
//!
//! ```
//! use xanadu::prelude::*;
//!
//! // A three-function chain of 500 ms container functions.
//! let dag = linear_chain("demo", 3, &FunctionSpec::new("f").service_ms(500.0))?;
//!
//! // Run it on Xanadu with just-in-time speculative provisioning.
//! let mut platform = Platform::new(PlatformConfig::for_mode(ExecutionMode::Jit, 42));
//! platform.deploy(dag)?;
//! platform.trigger_at("demo", SimTime::ZERO)?;
//! platform.run_until_idle();
//!
//! let report = platform.finish();
//! let result = &report.results[0];
//! // Only the first function pays a cold start; the rest are pre-warmed.
//! assert_eq!(result.cold_starts, 1);
//! assert_eq!(result.warm_starts, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod serve;

pub use xanadu_baselines;
pub use xanadu_chain;
pub use xanadu_core;
pub use xanadu_platform;
pub use xanadu_profiler;
pub use xanadu_sandbox;
pub use xanadu_simcore;
pub use xanadu_workloads;

/// The most common imports for building and running workflows.
pub mod prelude {
    pub use xanadu_chain::{
        linear_chain, BranchMode, ChainError, FunctionSpec, IsolationLevel, NodeId,
        WorkflowBuilder, WorkflowDag,
    };
    pub use xanadu_core::policy::{
        ConfiguredPolicy, MpcConfig, PolicyRegistry, PolicySpec, RlConfig, SpeculationPolicy,
    };
    pub use xanadu_core::speculation::{ExecutionMode, MissPolicy, SpeculationConfig};
    pub use xanadu_platform::{
        diff_audits, diff_metrics, Audit, AuditSummary, AutoscaleConfig, BusEvent, ClusterConfig,
        ClusterReport, DiffThresholds, FaultConfig, Histogram, HostSpec, JitStats, LatencyStats,
        MetricsRegistry, MlpStats, Observer, ObserverHandle, PlacementPolicy, Platform,
        PlatformConfig, PlatformError, PlatformReport, Regression, RequestAudit, RunResult,
        TenantConfig, WasteStats,
    };
    pub use xanadu_simcore::{Distribution, SimDuration, SimTime};
}
