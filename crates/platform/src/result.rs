//! Per-request and per-run results.

use crate::hosts::ClusterReport;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use xanadu_core::cost::{PenaltyFactors, ResourceCosts, WorkflowRunCosts};
use xanadu_sandbox::WorkerRecord;
use xanadu_simcore::{SimDuration, SimTime};

/// Outcome of one workflow request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Request id (platform-assigned, dense).
    pub request: u64,
    /// The triggered workflow's name, shared with its DAG.
    pub workflow: Arc<str>,
    /// When the trigger fired.
    pub trigger: SimTime,
    /// When the last activated function completed.
    pub end: SimTime,
    /// End-to-end latency `R_F`.
    pub end_to_end: SimDuration,
    /// Execution-time reference: the critical path of the activated
    /// subgraph using the actually drawn service times (the `Σ rᵢ` /
    /// slowest-branch baseline of Equation 1).
    pub exec_reference: SimDuration,
    /// Latency overhead `C_D = R_F − exec_reference`.
    pub overhead: SimDuration,
    /// Functions that experienced a cold start (no warm sandbox at
    /// invocation).
    pub cold_starts: u32,
    /// Functions served by an already warm sandbox.
    pub warm_starts: u32,
    /// Prediction misses (invoked functions absent from the plan).
    pub misses: u32,
    /// Workers provisioned on behalf of this request.
    pub workers_spawned: u32,
    /// Functions that executed.
    pub executed_functions: u32,
    /// Resource cost `C_R` attributed to this request's workers.
    pub resources: ResourceCosts,
    /// Injected faults that hit this request (worker crashes affecting its
    /// invocations plus invocation timeouts).
    #[serde(default)]
    pub faults: u32,
    /// Invocation attempts beyond the first (retries after crashes or
    /// timeouts).
    #[serde(default)]
    pub retries: u32,
}

impl RunResult {
    /// The request's joint penalty factors `φ = C_R · C_D`.
    pub fn penalties(&self) -> PenaltyFactors {
        WorkflowRunCosts {
            c_d: self.overhead,
            resources: self.resources,
        }
        .penalties()
    }
}

/// Final report of a platform run: every request result plus the complete
/// worker accounting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PlatformReport {
    /// Per-request outcomes, in completion order.
    pub results: Vec<RunResult>,
    /// Lifetime records of every worker the platform ever created.
    pub worker_records: Vec<WorkerRecord>,
    /// Cluster scheduling outcome (per-host utilization, tenant
    /// admission, cross-host cold attribution). Present only when the
    /// platform ran with an explicit multi-host cluster — default
    /// single-testbed reports serialize byte-identically to pre-cluster
    /// ones.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cluster: Option<ClusterReport>,
}

impl PlatformReport {
    /// Mean latency overhead `C_D` across requests (ms), 0 if empty.
    pub fn mean_overhead_ms(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.results
            .iter()
            .map(|r| r.overhead.as_millis_f64())
            .sum::<f64>()
            / self.results.len() as f64
    }

    /// Mean end-to-end latency across requests (ms), 0 if empty.
    pub fn mean_end_to_end_ms(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.results
            .iter()
            .map(|r| r.end_to_end.as_millis_f64())
            .sum::<f64>()
            / self.results.len() as f64
    }

    /// Total resource cost across requests.
    pub fn total_resources(&self) -> ResourceCosts {
        let mut total = ResourceCosts::default();
        for r in &self.results {
            total.add(r.resources);
        }
        total
    }

    /// Total cold and warm start counts.
    pub fn start_counts(&self) -> (u32, u32) {
        self.results
            .iter()
            .fold((0, 0), |(c, w), r| (c + r.cold_starts, w + r.warm_starts))
    }

    /// Total injected-fault and retry counts.
    pub fn fault_counts(&self) -> (u32, u32) {
        self.results
            .iter()
            .fold((0, 0), |(f, r), x| (f + x.faults, r + x.retries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(overhead_ms: u64, cpu: f64, mem: f64) -> RunResult {
        RunResult {
            request: 0,
            workflow: "w".into(),
            trigger: SimTime::ZERO,
            end: SimTime::from_millis(1000 + overhead_ms),
            end_to_end: SimDuration::from_millis(1000 + overhead_ms),
            exec_reference: SimDuration::from_millis(1000),
            overhead: SimDuration::from_millis(overhead_ms),
            cold_starts: 1,
            warm_starts: 2,
            misses: 0,
            workers_spawned: 3,
            executed_functions: 3,
            resources: ResourceCosts {
                cpu_s: cpu,
                mem_mbs: mem,
            },
            faults: 1,
            retries: 0,
        }
    }

    #[test]
    fn penalties_multiply() {
        let r = result(2000, 3.0, 100.0);
        let p = r.penalties();
        assert!((p.phi_cpu_s2 - 6.0).abs() < 1e-9);
        assert!((p.phi_mem_mbs2 - 200.0).abs() < 1e-9);
    }

    #[test]
    fn report_aggregates() {
        let report = PlatformReport {
            results: vec![result(1000, 1.0, 10.0), result(3000, 3.0, 30.0)],
            ..PlatformReport::default()
        };
        assert_eq!(report.mean_overhead_ms(), 2000.0);
        assert_eq!(report.mean_end_to_end_ms(), 3000.0);
        let total = report.total_resources();
        assert_eq!(total.cpu_s, 4.0);
        assert_eq!(total.mem_mbs, 40.0);
        assert_eq!(report.start_counts(), (2, 4));
        assert_eq!(report.fault_counts(), (2, 0));
    }

    #[test]
    fn absent_metrics_do_not_appear_in_serialized_reports() {
        let report = PlatformReport::default();
        let json = serde_json::to_string(&report).unwrap();
        assert!(!json.contains("metrics"), "{json}");
        assert!(!json.contains("cluster"), "{json}");
        assert_eq!(json, r#"{"results":[],"worker_records":[]}"#);
        let back: PlatformReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn empty_report_is_zero() {
        let report = PlatformReport::default();
        assert_eq!(report.mean_overhead_ms(), 0.0);
    }
}
