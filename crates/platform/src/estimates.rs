//! The platform's live estimate source: profiled EMAs with sensible
//! fallbacks.
//!
//! Planning (Algorithm 2) needs timing estimates before any profile
//! exists; the platform falls back to the sandbox provider's calibrated
//! mean cold start and the function's declared mean service time — the
//! same information a freshly booted Xanadu would have from its sandbox
//! benchmarks and deployment metadata.

use xanadu_chain::{FunctionSpec, NodeId, WorkflowDag};
use xanadu_core::estimate::{EstimateSource, NodeEstimate};
use xanadu_profiler::MetricsEngine;
use xanadu_sandbox::SimSandboxProvider;

/// Estimate source backed by the metrics engine, with provider/spec
/// fallbacks. Implicit workflows additionally expose learned invoke
/// delays, which switch the planner to the implicit-chain rule (§3.2.2).
pub(crate) struct PlatformEstimates<'a> {
    pub metrics: &'a MetricsEngine,
    pub provider: &'a SimSandboxProvider,
    pub dag: &'a WorkflowDag,
    /// Only implicit workflows use learned invoke delays; explicit chains
    /// are orchestrated on parent completion.
    pub implicit: bool,
    /// Mean per-hop orchestration latency, folded into completion
    /// estimates: the planner knows its own routing/signalling delay, so a
    /// child's expected invocation is parent completion *plus* a hop.
    pub hop_overhead_ms: f64,
}

impl EstimateSource for PlatformEstimates<'_> {
    fn estimate(&self, _node: NodeId, spec: &FunctionSpec) -> NodeEstimate {
        let cold_fallback = self.provider.mean_cold_start_ms(spec.isolation_level());
        let warm_fallback = spec.mean_service_ms();
        let hop = self.hop_overhead_ms;
        match self.metrics.profile(spec.name()) {
            Some(p) => NodeEstimate {
                cold_start_ms: p.cold_start_ms(cold_fallback),
                // The planner's `S_c` is "how long until a sandbox
                // provisioned *now* becomes warm", which is the profiled
                // provisioning duration — not the residual wait requests
                // observe, which collapses toward zero exactly when JIT
                // coverage works; planning deployments against that
                // schedules every child too late and re-introduces the
                // cascade.
                startup_ms: p.cold_start_ms(cold_fallback),
                warm_runtime_ms: p.warm_runtime_ms(warm_fallback) + hop,
            },
            None => NodeEstimate {
                cold_start_ms: cold_fallback,
                startup_ms: cold_fallback,
                warm_runtime_ms: warm_fallback + hop,
            },
        }
    }

    fn invoke_delay_ms(&self, parent: NodeId, child: NodeId) -> Option<f64> {
        if !self.implicit {
            return None;
        }
        let parent_name = self.dag.node(parent).spec().name();
        let child_name = self.dag.node(child).spec().name();
        self.metrics.invoke_delay_ms(parent_name, child_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xanadu_chain::{linear_chain, FunctionSpec, IsolationLevel};
    use xanadu_simcore::SimDuration;

    #[test]
    fn falls_back_to_provider_and_spec() {
        let metrics = MetricsEngine::new();
        let provider = SimSandboxProvider::new(1);
        let dag = linear_chain(
            "c",
            2,
            &FunctionSpec::new("f")
                .service_ms(750.0)
                .isolation(IsolationLevel::Process),
        )
        .unwrap();
        let est = PlatformEstimates {
            metrics: &metrics,
            provider: &provider,
            dag: &dag,
            implicit: false,
            hop_overhead_ms: 0.0,
        };
        let n0 = dag.node_by_name("f0").unwrap();
        let e = est.estimate(n0, dag.node(n0).spec());
        assert!((e.cold_start_ms - 1100.0).abs() < 120.0, "process mean");
        assert_eq!(e.warm_runtime_ms, 750.0);
        assert_eq!(
            est.invoke_delay_ms(n0, dag.node_by_name("f1").unwrap()),
            None
        );
    }

    #[test]
    fn profiled_values_take_precedence() {
        let mut metrics = MetricsEngine::new();
        metrics.record_cold_start("f0", SimDuration::from_millis(9000));
        metrics.record_warm_runtime("f0", SimDuration::from_millis(123));
        let provider = SimSandboxProvider::new(1);
        let dag = linear_chain("c", 1, &FunctionSpec::new("f")).unwrap();
        let est = PlatformEstimates {
            metrics: &metrics,
            provider: &provider,
            dag: &dag,
            implicit: false,
            hop_overhead_ms: 20.0,
        };
        let n0 = dag.node_by_name("f0").unwrap();
        let e = est.estimate(n0, dag.node(n0).spec());
        assert_eq!(e.cold_start_ms, 9000.0);
        assert_eq!(e.warm_runtime_ms, 143.0, "profiled runtime + hop overhead");
    }

    #[test]
    fn implicit_chains_expose_invoke_delays() {
        let mut metrics = MetricsEngine::new();
        metrics.record_invoke_delay("f0", "f1", SimDuration::from_millis(80));
        let provider = SimSandboxProvider::new(1);
        let dag = linear_chain("c", 2, &FunctionSpec::new("f")).unwrap();
        let n0 = dag.node_by_name("f0").unwrap();
        let n1 = dag.node_by_name("f1").unwrap();
        let implicit = PlatformEstimates {
            metrics: &metrics,
            provider: &provider,
            dag: &dag,
            implicit: true,
            hop_overhead_ms: 0.0,
        };
        assert_eq!(implicit.invoke_delay_ms(n0, n1), Some(80.0));
        let explicit = PlatformEstimates {
            implicit: false,
            ..implicit
        };
        assert_eq!(explicit.invoke_delay_ms(n0, n1), None);
    }
}
