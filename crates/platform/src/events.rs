//! Typed bus events — the platform's event taxonomy.
//!
//! The paper's prototype publishes worker and request lifecycle signals
//! over Kafka (§4) and derives the whole evaluation from them. Here those
//! signals are a closed, typed vocabulary: every emission the platform
//! delivers to its [`Observer`](crate::Observer)s is a [`BusEvent`]
//! variant and every topic is a [`Topic`] constant. Untyped JSON values appear only at the
//! serialization boundary (the [`export`](crate::export) module); nothing
//! inside the dispatch path builds untyped JSON — CI greps for the type's
//! literal name to keep it that way.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The bus topics, one per [`BusEvent`] variant.
///
/// Topics are a closed enum rather than free-form strings, so a typo in
/// an observer's match is a compile error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Topic {
    /// A workflow trigger arrived at the Dispatch Manager.
    RequestTriggered,
    /// The speculation engine produced a deployment plan for a request.
    PlanComputed,
    /// The orchestrator invoked a function (its dependencies were met).
    FunctionInvoked,
    /// A sandbox finished provisioning (cold start paid).
    WorkerProvisioned,
    /// A provisioned worker reached the warm pool.
    WorkerReady,
    /// A function invocation began executing on a worker.
    ExecStarted,
    /// A function invocation finished executing.
    ExecEnded,
    /// Control flow took a branch the plan did not predict.
    PredictionMiss,
    /// A worker crashed (fault injection).
    WorkerCrashed,
    /// A speculative pre-deployment died before any invocation used it.
    DeployFailed,
    /// An invocation exceeded the per-invocation timeout.
    InvokeTimeout,
    /// A crashed or timed-out invocation was rescheduled after backoff.
    InvokeRetried,
    /// A request's last function completed; the run result is final.
    RequestCompleted,
    /// An SLO window breached its thresholds.
    SloAlert,
    /// A host came up (autoscaled boot or post-failure reboot).
    HostUp,
    /// A host failed, losing all its workers.
    HostDown,
    /// The Dispatch Manager placed a worker on a host.
    WorkerPlaced,
    /// A worker was forcibly evicted (capacity or quota pressure).
    WorkerEvicted,
    /// The speculation policy made a planning decision (trigger or replan).
    PolicyDecision,
    /// The service tier committed a checkpoint segment.
    CheckpointWritten,
    /// The service tier resumed from a checkpoint manifest.
    CheckpointRestored,
    /// A learning sketch evicted counters under capacity pressure.
    SketchEviction,
}

impl Topic {
    /// Every topic, in declaration order.
    pub const ALL: [Topic; 22] = [
        Topic::RequestTriggered,
        Topic::PlanComputed,
        Topic::FunctionInvoked,
        Topic::WorkerProvisioned,
        Topic::WorkerReady,
        Topic::ExecStarted,
        Topic::ExecEnded,
        Topic::PredictionMiss,
        Topic::WorkerCrashed,
        Topic::DeployFailed,
        Topic::InvokeTimeout,
        Topic::InvokeRetried,
        Topic::RequestCompleted,
        Topic::SloAlert,
        Topic::HostUp,
        Topic::HostDown,
        Topic::WorkerPlaced,
        Topic::WorkerEvicted,
        Topic::PolicyDecision,
        Topic::CheckpointWritten,
        Topic::CheckpointRestored,
        Topic::SketchEviction,
    ];

    /// The dotted wire name (what the Kafka topic would be called).
    pub const fn name(self) -> &'static str {
        match self {
            Topic::RequestTriggered => "request.triggered",
            Topic::PlanComputed => "plan.computed",
            Topic::FunctionInvoked => "function.invoked",
            Topic::WorkerProvisioned => "worker.provisioned",
            Topic::WorkerReady => "worker.ready",
            Topic::ExecStarted => "exec.started",
            Topic::ExecEnded => "exec.ended",
            Topic::PredictionMiss => "prediction.miss",
            Topic::WorkerCrashed => "worker.crashed",
            Topic::DeployFailed => "deploy.failed",
            Topic::InvokeTimeout => "invoke.timeout",
            Topic::InvokeRetried => "invoke.retried",
            Topic::RequestCompleted => "request.completed",
            Topic::SloAlert => "slo.alert",
            Topic::HostUp => "host.up",
            Topic::HostDown => "host.down",
            Topic::WorkerPlaced => "worker.placed",
            Topic::WorkerEvicted => "worker.evicted",
            Topic::PolicyDecision => "policy.decision",
            Topic::CheckpointWritten => "checkpoint.written",
            Topic::CheckpointRestored => "checkpoint.restored",
            Topic::SketchEviction => "sketch.eviction",
        }
    }

    /// Stable position in [`Topic::ALL`], for observers that index
    /// per-topic state by topic.
    pub const fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed platform lifecycle event.
///
/// Each variant maps to exactly one [`Topic`] (see [`BusEvent::topic`]).
/// All payload fields are plain data — durations pre-converted to
/// milliseconds, ids as integers — so events serialize deterministically
/// and observers never parse JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BusEvent {
    /// A workflow trigger arrived.
    RequestTriggered {
        /// Request id.
        request: u64,
        /// Workflow name.
        workflow: String,
    },
    /// The speculation engine planned a request's deployments.
    PlanComputed {
        /// Request id.
        request: u64,
        /// Workflow name.
        workflow: String,
        /// Number of functions the plan schedules for pre-deployment.
        planned: u64,
    },
    /// The orchestrator invoked a function (its dependencies were met).
    FunctionInvoked {
        /// Request id.
        request: u64,
        /// The invoked function.
        function: String,
        /// Node index of the invoked function in the workflow DAG.
        node: u64,
    },
    /// A sandbox finished provisioning.
    WorkerProvisioned {
        /// Worker id.
        worker: u64,
        /// Request that owns the deployment, or `u64::MAX` for
        /// pool-owned provisions (static pre-warming, replenishment).
        request: u64,
        /// Function the worker hosts.
        function: String,
        /// Sampled cold-start latency in milliseconds.
        cold_start_ms: f64,
        /// Total delay until the sandbox is ready, in milliseconds —
        /// the cold start plus any eviction/capacity stall. The sandbox
        /// is warm at the event time plus this delay.
        ready_in_ms: f64,
        /// `true` when provisioned on demand (a request is waiting),
        /// `false` for speculative pre-deployment.
        on_demand: bool,
    },
    /// A provisioned worker reached the warm pool.
    WorkerReady {
        /// Worker id.
        worker: u64,
    },
    /// An invocation began executing.
    ExecStarted {
        /// Request id.
        request: u64,
        /// Function name.
        function: String,
        /// Worker id serving the invocation.
        worker: u64,
        /// `true` when served from the warm pool (no startup wait).
        warm: bool,
        /// Time spent between invocation and execution start, in
        /// milliseconds (cold-start or provisioning wait).
        queue_wait_ms: f64,
    },
    /// An invocation finished executing.
    ExecEnded {
        /// Request id.
        request: u64,
        /// Function name.
        function: String,
        /// Worker id that served the invocation.
        worker: u64,
        /// Execution duration in milliseconds.
        exec_ms: f64,
    },
    /// Control flow took an unplanned branch.
    PredictionMiss {
        /// Request id.
        request: u64,
        /// Function that was actually invoked.
        function: String,
        /// Node index of the actual branch.
        node: u64,
    },
    /// A worker crashed.
    WorkerCrashed {
        /// Worker id.
        worker: u64,
        /// Function the worker hosted.
        function: String,
        /// The request whose invocation the crash orphaned (and which
        /// retries it), or `None` when no invocation was bound to the
        /// worker. A worker serves one invocation at a time, so a crash
        /// orphans at most one.
        request: Option<u64>,
    },
    /// A speculative pre-deployment died during startup with no
    /// invocation waiting on it; the plan retries or drops it.
    DeployFailed {
        /// Request whose plan scheduled the deployment.
        request: u64,
        /// Function being pre-deployed.
        function: String,
        /// Fault attempt count after this failure.
        attempt: u64,
    },
    /// An invocation exceeded the timeout.
    InvokeTimeout {
        /// Request id.
        request: u64,
        /// Function name.
        function: String,
        /// Fault attempt count at the time of the timeout.
        attempt: u64,
    },
    /// A faulted invocation was rescheduled after backoff.
    InvokeRetried {
        /// Request id.
        request: u64,
        /// Function name.
        function: String,
        /// Retry attempt number (1 = first retry).
        attempt: u64,
        /// Backoff delay before the retry, in milliseconds.
        backoff_ms: f64,
    },
    /// A request completed.
    RequestCompleted {
        /// Request id.
        request: u64,
        /// Workflow name.
        workflow: String,
        /// Platform-attributable overhead in milliseconds.
        overhead_ms: f64,
        /// End-to-end latency in milliseconds.
        end_to_end_ms: f64,
    },
    /// An SLO window breached its thresholds (evaluated by
    /// [`SloMonitor::evaluate_below`](crate::stream::SloMonitor::evaluate_below)
    /// and announced by the service tier).
    SloAlert {
        /// Index of the tumbling window that breached.
        window: u64,
        /// JSONPath-style pointer to the violated gate.
        path: String,
        /// Baseline-window value of the gated quantity.
        baseline: f64,
        /// Breaching-window value of the gated quantity.
        candidate: f64,
        /// Human-readable statement of the allowed envelope.
        allowed: String,
    },
    /// A host came up: an autoscaled boot or a post-failure reboot.
    HostUp {
        /// Host id.
        host: u32,
        /// The host's memory capacity, MB.
        memory_mb: u64,
    },
    /// A host failed; its workers crashed and will be re-placed.
    HostDown {
        /// Host id.
        host: u32,
        /// Workers lost with the host.
        workers_lost: u32,
    },
    /// The Dispatch Manager placed a worker on a host.
    WorkerPlaced {
        /// Worker id.
        worker: u64,
        /// Chosen host.
        host: u32,
        /// Request that owns the deployment, or `u64::MAX` for
        /// pool-owned provisions.
        request: u64,
        /// The worker's memory footprint, MB.
        memory_mb: u32,
    },
    /// A worker was forcibly evicted from its host (live-cap, capacity
    /// or quota pressure — not keep-alive reaping).
    WorkerEvicted {
        /// Worker id.
        worker: u64,
        /// Host it was evicted from.
        host: u32,
    },
    /// The speculation policy (DESIGN.md §11) committed a planning
    /// decision for a request, at trigger time or while replanning after
    /// a prediction miss.
    PolicyDecision {
        /// Request id.
        request: u64,
        /// Label of the deciding policy (e.g. `xanadu-jit`, `mpc`, `rl`).
        policy: String,
        /// Nodes in the committed plan.
        planned: u64,
        /// Why the decision was taken: `trigger` or `miss`.
        reason: String,
    },
    /// The service tier committed a checkpoint segment to the append-only
    /// metastore log (learned state + audit + cursor are durable up to
    /// `events`).
    CheckpointWritten {
        /// Checkpoint epoch just completed (0-based).
        epoch: u64,
        /// Sequence number of the segment file written.
        segment: u64,
        /// Documents captured in the segment.
        docs: u64,
        /// Stream events durable after this checkpoint.
        events: u64,
    },
    /// The service tier resumed from an existing checkpoint manifest.
    CheckpointRestored {
        /// Epoch the service resumes into.
        epoch: u64,
        /// Segments replayed from the log.
        segments: u64,
        /// Stream events already accounted for by the checkpoint.
        events: u64,
    },
    /// A learning sketch evicted counters under capacity pressure during
    /// the just-finished epoch (bounded-memory guarantee at work).
    SketchEviction {
        /// Counters displaced this epoch.
        evicted: u64,
        /// Keys tracked after the epoch.
        occupancy: u64,
        /// The sketch's fixed capacity.
        capacity: u64,
    },
}

impl BusEvent {
    /// The topic this event is published on.
    pub const fn topic(&self) -> Topic {
        match self {
            BusEvent::RequestTriggered { .. } => Topic::RequestTriggered,
            BusEvent::PlanComputed { .. } => Topic::PlanComputed,
            BusEvent::FunctionInvoked { .. } => Topic::FunctionInvoked,
            BusEvent::WorkerProvisioned { .. } => Topic::WorkerProvisioned,
            BusEvent::WorkerReady { .. } => Topic::WorkerReady,
            BusEvent::ExecStarted { .. } => Topic::ExecStarted,
            BusEvent::ExecEnded { .. } => Topic::ExecEnded,
            BusEvent::PredictionMiss { .. } => Topic::PredictionMiss,
            BusEvent::WorkerCrashed { .. } => Topic::WorkerCrashed,
            BusEvent::DeployFailed { .. } => Topic::DeployFailed,
            BusEvent::InvokeTimeout { .. } => Topic::InvokeTimeout,
            BusEvent::InvokeRetried { .. } => Topic::InvokeRetried,
            BusEvent::RequestCompleted { .. } => Topic::RequestCompleted,
            BusEvent::SloAlert { .. } => Topic::SloAlert,
            BusEvent::HostUp { .. } => Topic::HostUp,
            BusEvent::HostDown { .. } => Topic::HostDown,
            BusEvent::WorkerPlaced { .. } => Topic::WorkerPlaced,
            BusEvent::WorkerEvicted { .. } => Topic::WorkerEvicted,
            BusEvent::PolicyDecision { .. } => Topic::PolicyDecision,
            BusEvent::CheckpointWritten { .. } => Topic::CheckpointWritten,
            BusEvent::CheckpointRestored { .. } => Topic::CheckpointRestored,
            BusEvent::SketchEviction { .. } => Topic::SketchEviction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topic_indices_match_all_order() {
        for (i, t) in Topic::ALL.iter().enumerate() {
            assert_eq!(t.index(), i);
        }
    }

    #[test]
    fn topic_names_are_unique_and_dotted() {
        let mut names: Vec<&str> = Topic::ALL.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate topic name");
        for n in names {
            assert!(n.contains('.'), "topic {n} is not dotted");
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Topic::WorkerReady.to_string(), "worker.ready");
    }

    #[test]
    fn every_variant_maps_to_a_distinct_topic() {
        let events = sample_events();
        assert_eq!(events.len(), Topic::ALL.len());
        let mut topics: Vec<Topic> = events.iter().map(|e| e.topic()).collect();
        topics.sort();
        topics.dedup();
        assert_eq!(topics.len(), Topic::ALL.len());
    }

    #[test]
    fn events_roundtrip_through_serde() {
        for event in sample_events() {
            let json = serde_json::to_string(&event).unwrap();
            let back: BusEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, event, "roundtrip changed {json}");
        }
    }

    /// One instance of every variant; `every_variant_maps_to_a_distinct_topic`
    /// fails if a new variant is added without extending this list.
    fn sample_events() -> Vec<BusEvent> {
        vec![
            BusEvent::RequestTriggered {
                request: 1,
                workflow: "w".into(),
            },
            BusEvent::PlanComputed {
                request: 1,
                workflow: "w".into(),
                planned: 3,
            },
            BusEvent::FunctionInvoked {
                request: 1,
                function: "f".into(),
                node: 0,
            },
            BusEvent::WorkerProvisioned {
                worker: 7,
                request: 1,
                function: "f".into(),
                cold_start_ms: 812.5,
                ready_in_ms: 812.5,
                on_demand: false,
            },
            BusEvent::WorkerReady { worker: 7 },
            BusEvent::ExecStarted {
                request: 1,
                function: "f".into(),
                worker: 7,
                warm: true,
                queue_wait_ms: 0.0,
            },
            BusEvent::ExecEnded {
                request: 1,
                function: "f".into(),
                worker: 7,
                exec_ms: 150.0,
            },
            BusEvent::PredictionMiss {
                request: 1,
                function: "alt".into(),
                node: 2,
            },
            BusEvent::WorkerCrashed {
                worker: 7,
                function: "f".into(),
                request: Some(1),
            },
            BusEvent::DeployFailed {
                request: 1,
                function: "f".into(),
                attempt: 1,
            },
            BusEvent::InvokeTimeout {
                request: 1,
                function: "f".into(),
                attempt: 1,
            },
            BusEvent::InvokeRetried {
                request: 1,
                function: "f".into(),
                attempt: 1,
                backoff_ms: 200.0,
            },
            BusEvent::RequestCompleted {
                request: 1,
                workflow: "w".into(),
                overhead_ms: 42.0,
                end_to_end_ms: 1042.0,
            },
            BusEvent::SloAlert {
                window: 3,
                path: "$.windows[3].end_to_end_ms.p95".into(),
                baseline: 400.0,
                candidate: 1300.0,
                allowed: "+225.0% > allowed +10.0%".into(),
            },
            BusEvent::HostUp {
                host: 2,
                memory_mb: 4096,
            },
            BusEvent::HostDown {
                host: 2,
                workers_lost: 3,
            },
            BusEvent::WorkerPlaced {
                worker: 7,
                host: 2,
                request: 1,
                memory_mb: 512,
            },
            BusEvent::WorkerEvicted { worker: 7, host: 2 },
            BusEvent::PolicyDecision {
                request: 1,
                policy: "xanadu-jit".into(),
                planned: 3,
                reason: "trigger".into(),
            },
            BusEvent::CheckpointWritten {
                epoch: 4,
                segment: 4,
                docs: 6,
                events: 5000,
            },
            BusEvent::CheckpointRestored {
                epoch: 5,
                segments: 5,
                events: 5000,
            },
            BusEvent::SketchEviction {
                evicted: 12,
                occupancy: 64,
                capacity: 64,
            },
        ]
    }
}
