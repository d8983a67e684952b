//! # xanadu-platform
//!
//! The Xanadu FaaS platform (§4 of the paper): the Dispatch Manager
//! orchestration layer executing function workflows over the sandbox
//! substrate, with the speculative / just-in-time provisioning of
//! `xanadu-core` wired in.
//!
//! The architecture mirrors Figure 11 of the paper:
//!
//! * [`Platform`] — the Dispatch Manager: reverse proxy (request routing),
//!   function resource allocator (worker acquisition), speculation engine,
//!   metrics engine and branch detector, all driven by a deterministic
//!   discrete-event loop.
//! * [`PlatformConfig`] — execution mode (cold / speculative / JIT),
//!   aggressiveness, keep-alive and pool policy, plus the platform-shape
//!   knobs that the baseline emulations (`xanadu-baselines`) override.
//! * [`events`] and [`obs`] — the typed worker/request lifecycle events
//!   ([`BusEvent`]) and the synchronous [`Observer`]s that are their only
//!   consumers. The paper's Kafka traffic between the Dispatch Manager
//!   and the Dispatch Daemons is the discrete-event queue itself.
//! * [`metastore`] — the revisioned JSON document store (the paper's
//!   CouchDB substitute) persisting metrics and branch metadata.
//!
//! # Quickstart
//!
//! ```
//! use xanadu_chain::{linear_chain, FunctionSpec};
//! use xanadu_core::speculation::ExecutionMode;
//! use xanadu_platform::{Platform, PlatformConfig};
//! use xanadu_simcore::SimTime;
//!
//! let dag = linear_chain("chain", 3, &FunctionSpec::new("f").service_ms(500.0))?;
//! let mut p = Platform::new(PlatformConfig::for_mode(ExecutionMode::Jit, 42));
//! p.deploy(dag)?;
//! p.trigger_at("chain", SimTime::ZERO);
//! p.run_until_idle();
//! let report = p.finish();
//! assert_eq!(report.results.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod config;
mod estimates;
pub mod events;
pub mod export;
pub mod faults;
pub mod hosts;
pub mod metastore;
pub mod obs;
mod result;
pub mod shard;
mod sim;
pub mod stream;
pub mod timeline;

pub use analysis::{
    diff_audits, diff_metrics, Audit, AuditSummary, DiffThresholds, EdgeStats, JitSample, JitStats,
    LatencyStats, MlpStats, Regression, RequestAudit, WasteStats,
};
pub use config::{ClusterConfig, ConfigError, PlatformConfig, PlatformConfigBuilder};
pub use events::BusEvent;
pub use faults::{FaultConfig, FaultPlan};
pub use hosts::{
    AutoscaleConfig, ClusterReport, HostId, HostRegistry, HostReport, HostSpec, PlacementError,
    PlacementPolicy, PlacementRequest, TenantConfig, TenantReport,
};
pub use metastore::{LogError, Manifest, MetaStore, SegmentLog, SegmentRef};
pub use obs::{Histogram, MetricsRegistry, Observer, ObserverHandle};
pub use result::{PlatformReport, RunResult};
pub use shard::{
    replay_sharded, replay_sharded_with, KernelProfile, ShardOptions, ShardProfile, ShardTelemetry,
    ShardWorkload, ShardedRun,
};
pub use sim::{report_total_costs, Platform, PlatformError};
pub use stream::{
    AuditCheckpoint, SloAlert, SloCheckpoint, SloConfig, SloMonitor, SloReport, StreamingAudit,
    StreamingConfig, StreamingSummary,
};
