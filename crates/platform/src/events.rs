//! Typed bus events — the platform's event taxonomy.
//!
//! The paper's prototype publishes worker and request lifecycle signals
//! over Kafka (§4) and derives the whole evaluation from them. Here those
//! signals are a closed, typed vocabulary: every emission the platform
//! delivers to its [`Observer`](crate::Observer)s is a [`BusEvent`]
//! variant. Untyped JSON values appear only at the serialization
//! boundary (the [`export`](crate::export) module); nothing inside the
//! dispatch path builds untyped JSON — CI greps for the type's literal
//! name to keep it that way.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A typed platform lifecycle event.
///
/// All payload fields are plain data — durations pre-converted to
/// milliseconds, ids as integers — so events serialize deterministically
/// and observers never parse JSON. Names are shared `Arc<str>`s cloned
/// from the deployed DAG (and the policy label and decision reasons from
/// the platform), so building an event allocates no string; they
/// serialize exactly as the `String`s they replace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BusEvent {
    /// A workflow trigger arrived.
    RequestTriggered {
        /// Request id.
        request: u64,
        /// Workflow name.
        workflow: Arc<str>,
    },
    /// The speculation engine planned a request's deployments.
    PlanComputed {
        /// Request id.
        request: u64,
        /// Workflow name.
        workflow: Arc<str>,
        /// Number of functions the plan schedules for pre-deployment.
        planned: u64,
    },
    /// The orchestrator invoked a function (its dependencies were met).
    FunctionInvoked {
        /// Request id.
        request: u64,
        /// The invoked function.
        function: Arc<str>,
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
        function: Arc<str>,
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
        function: Arc<str>,
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
        function: Arc<str>,
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
        function: Arc<str>,
        /// Node index of the actual branch.
        node: u64,
    },
    /// A worker crashed.
    WorkerCrashed {
        /// Worker id.
        worker: u64,
        /// Function the worker hosted.
        function: Arc<str>,
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
        function: Arc<str>,
        /// Fault attempt count after this failure.
        attempt: u64,
    },
    /// An invocation exceeded the timeout.
    InvokeTimeout {
        /// Request id.
        request: u64,
        /// Function name.
        function: Arc<str>,
        /// Fault attempt count at the time of the timeout.
        attempt: u64,
    },
    /// A faulted invocation was rescheduled after backoff.
    InvokeRetried {
        /// Request id.
        request: u64,
        /// Function name.
        function: Arc<str>,
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
        workflow: Arc<str>,
        /// Platform-attributable overhead in milliseconds.
        overhead_ms: f64,
        /// End-to-end latency in milliseconds.
        end_to_end_ms: f64,
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
        policy: Arc<str>,
        /// Nodes in the committed plan.
        planned: u64,
        /// Why the decision was taken: `trigger` or `miss`.
        reason: Arc<str>,
    },
}

impl BusEvent {
    /// The request whose lifecycle this event belongs to, or `None` for
    /// an event outside every request's lifecycle: worker readiness,
    /// hosts, placements, policy decisions, and a crash that orphaned no
    /// invocation. A pool-owned provision names `u64::MAX`, a request
    /// that is never in flight. These events, exactly as emitted, are
    /// what the lifecycle fold reads into a request's
    /// [`Trace`](crate::timeline::Trace).
    pub(crate) fn lifecycle_request(&self) -> Option<u64> {
        use BusEvent as E;
        match self {
            E::RequestTriggered { request, .. }
            | E::PlanComputed { request, .. }
            | E::FunctionInvoked { request, .. }
            | E::WorkerProvisioned { request, .. }
            | E::ExecStarted { request, .. }
            | E::ExecEnded { request, .. }
            | E::PredictionMiss { request, .. }
            | E::WorkerCrashed {
                request: Some(request),
                ..
            }
            | E::DeployFailed { request, .. }
            | E::InvokeTimeout { request, .. }
            | E::InvokeRetried { request, .. }
            | E::RequestCompleted { request, .. } => Some(*request),
            E::WorkerReady { .. }
            | E::WorkerCrashed { request: None, .. }
            | E::HostUp { .. }
            | E::HostDown { .. }
            | E::WorkerPlaced { .. }
            | E::WorkerEvicted { .. }
            | E::PolicyDecision { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::mem::discriminant;

    /// `lifecycle_request` names the request for exactly the twelve
    /// request-lifecycle variants, and for nothing else: not worker
    /// readiness, hosts, placements, policy decisions, nor a crash that
    /// orphaned no invocation. A pool-owned provision keeps its
    /// `u64::MAX` owner.
    #[test]
    fn lifecycle_request_names_exactly_the_lifecycle_variants() {
        let lifecycle = [
            "RequestTriggered",
            "PlanComputed",
            "FunctionInvoked",
            "WorkerProvisioned",
            "ExecStarted",
            "ExecEnded",
            "PredictionMiss",
            "WorkerCrashed",
            "DeployFailed",
            "InvokeTimeout",
            "InvokeRetried",
            "RequestCompleted",
        ];
        let events = sample_events();
        let mut named = Vec::new();
        for event in &events {
            let variant = format!("{event:?}");
            let variant = variant.split([' ', '{']).next().unwrap().to_string();
            let expected = lifecycle.contains(&variant.as_str()).then_some(1);
            assert_eq!(event.lifecycle_request(), expected, "{variant}");
            if expected.is_some() {
                named.push(variant);
            }
        }
        assert_eq!(named, lifecycle, "one sample per lifecycle variant");

        let orphanless = BusEvent::WorkerCrashed {
            worker: 7,
            function: "f".into(),
            request: None,
        };
        assert_eq!(orphanless.lifecycle_request(), None);
        let pool_owned = BusEvent::WorkerProvisioned {
            worker: 9,
            request: u64::MAX,
            function: "f".into(),
            cold_start_ms: 10.0,
            ready_in_ms: 10.0,
            on_demand: false,
        };
        assert_eq!(pool_owned.lifecycle_request(), Some(u64::MAX));
        // The samples hold one instance of each variant.
        let variants: HashSet<_> = events.iter().map(discriminant).collect();
        assert_eq!(variants.len(), events.len());
    }

    #[test]
    fn events_roundtrip_through_serde() {
        for event in sample_events() {
            let json = serde_json::to_string(&event).unwrap();
            let back: BusEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, event, "roundtrip changed {json}");
        }
    }

    /// One instance of every variant.
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
        ]
    }
}
