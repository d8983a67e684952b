//! Just-in-time deployment planning (Algorithm 2 of the paper, §3.2.2).
//!
//! Speculative deployment provisions every MLP sandbox at workflow start,
//! which wastes resources at the tail of long chains. JIT deployment
//! instead computes, from profiled timings, *when* each sandbox should
//! start provisioning so that it becomes warm exactly when its function is
//! expected to be invoked.
//!
//! The plan follows Algorithm 2's recurrence:
//!
//! * a root is invoked immediately; its sandbox deploys at `t = 0` and the
//!   root pays the chain's single unavoidable cold start;
//! * a non-root node's expected invocation is the completion of its
//!   slowest parent (the m:1 barrier bottleneck); its deployment time is
//!   that invocation minus the node's startup time `S_c`, clamped at 0;
//! * a node's expected completion adds its warm-start runtime, which the
//!   paper uses "as a reasonable estimate of a function's lifetime";
//! * for **implicit** chains the parent cannot be observed completing —
//!   children are invoked directly by the parent runtime — so the
//!   parent→child *invocation delay* measured by the request correlator
//!   replaces the completion-based rule wherever it is available. The
//!   delay is anchored at the parent's *execution start* (when the
//!   reverse proxy forwarded the request into a warm worker), which keeps
//!   the estimate independent of how long the parent itself waited for a
//!   sandbox.
//!
//! Every transform of a plan's offsets is a [`JitPlan`] method:
//! [`shifted`](JitPlan::shifted) re-expresses a replan from the original
//! trigger, and [`deployed_earlier`](JitPlan::deployed_earlier) moves
//! deployments toward the trigger — all the way for Speculative mode, by
//! a slack for the MPC policy.

use crate::estimate::EstimateSource;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use xanadu_chain::{NodeId, WorkflowDag};
use xanadu_simcore::SimDuration;

/// One entry of a JIT plan: deploy `node`'s sandbox `deploy_at` after the
/// workflow trigger.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannedDeployment {
    /// The function to deploy.
    pub node: NodeId,
    /// Offset from workflow trigger at which to start provisioning.
    pub deploy_at: SimDuration,
    /// Expected invocation time of the function (offset from trigger).
    pub expected_invocation: SimDuration,
    /// Expected completion time of the function (offset from trigger).
    pub expected_completion: SimDuration,
}

/// A JIT deployment plan over (a prefix of) the MLP.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct JitPlan {
    deployments: Vec<PlannedDeployment>,
}

impl JitPlan {
    /// Builds a plan from raw deployments.
    ///
    /// Deployments are ordered by deployment time; at equal times, *later*
    /// expected invocations are submitted first. For a speculative
    /// all-at-zero batch this means the chain's first function — the one a
    /// waiting request needs immediately — starts its container alongside
    /// (and contending with) the whole rest of the batch, reproducing the
    /// Docker concurrent-start penalty the paper observes for Speculative
    /// deployment (§5.2).
    pub fn from_deployments(mut deployments: Vec<PlannedDeployment>) -> Self {
        deployments.sort_by_key(|d| {
            (
                d.deploy_at,
                std::cmp::Reverse(d.expected_invocation),
                d.node,
            )
        });
        JitPlan { deployments }
    }

    /// Deployments ordered by ascending deployment time (ties by node id).
    pub fn deployments(&self) -> &[PlannedDeployment] {
        &self.deployments
    }

    /// The planned deployment for `node`, if on the plan.
    pub fn deployment(&self, node: NodeId) -> Option<PlannedDeployment> {
        self.deployments.iter().copied().find(|d| d.node == node)
    }

    /// Number of planned deployments.
    pub fn len(&self) -> usize {
        self.deployments.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.deployments.is_empty()
    }

    /// The plan with every offset `elapsed` later: a replan computed
    /// from a prediction miss, re-expressed from the original trigger.
    /// A uniform shift keeps the deployment order.
    pub fn shifted(mut self, elapsed: SimDuration) -> JitPlan {
        for d in &mut self.deployments {
            d.deploy_at += elapsed;
            d.expected_invocation += elapsed;
            d.expected_completion += elapsed;
        }
        self
    }

    /// The plan with every deployment `lead` earlier, clamped at the
    /// trigger; the expected invocations and completions stay. A lead of
    /// [`SimDuration::MAX`] deploys everything at the trigger
    /// (Speculative mode, §3.1).
    pub fn deployed_earlier(self, lead: SimDuration) -> JitPlan {
        let mut deployments = self.deployments;
        for d in &mut deployments {
            d.deploy_at = d.deploy_at.saturating_sub(lead);
        }
        JitPlan::from_deployments(deployments)
    }
}

/// Generates the JIT deployment plan for the nodes of `mlp` (in topological
/// order, as produced by [`infer_mlp`](crate::mlp::infer_mlp)).
///
/// `estimates` supplies profiled timings; when it reports an invoke delay
/// for an edge the implicit-chain rule is used for that edge, otherwise the
/// explicit-chain completion rule applies.
///
/// # Example
///
/// ```
/// use xanadu_chain::{linear_chain, FunctionSpec};
/// use xanadu_core::estimate::{StaticEstimates, NodeEstimate};
/// use xanadu_core::jit::plan_jit;
/// use xanadu_core::mlp::infer_mlp;
///
/// let dag = linear_chain("c", 3, &FunctionSpec::new("f").service_ms(5000.0))?;
/// let est = StaticEstimates::uniform(NodeEstimate {
///     cold_start_ms: 3000.0, startup_ms: 3000.0, warm_runtime_ms: 5000.0,
/// });
/// let mlp = infer_mlp(&dag, |_, _| None);
/// let plan = plan_jit(&dag, &mlp.path, &est);
/// // Root deploys immediately; the second function's sandbox starts
/// // provisioning at (3000 + 5000) − 3000 = 5000 ms.
/// assert_eq!(plan.deployments()[0].deploy_at.as_millis_f64(), 0.0);
/// assert_eq!(plan.deployments()[1].deploy_at.as_millis_f64(), 5000.0);
/// # Ok::<(), xanadu_chain::ChainError>(())
/// ```
pub fn plan_jit(dag: &WorkflowDag, mlp: &[NodeId], estimates: &dyn EstimateSource) -> JitPlan {
    let on_path: HashMap<NodeId, ()> = mlp.iter().map(|&n| (n, ())).collect();
    // Expected *completion* offset per planned node (Algorithm 2's
    // `maxDelay`).
    let mut completion: HashMap<NodeId, SimDuration> = HashMap::new();
    // Expected execution-start offset, anchoring the implicit-chain rule.
    let mut exec_starts: HashMap<NodeId, SimDuration> = HashMap::new();
    let mut deployments = Vec::with_capacity(mlp.len());

    for &node in mlp {
        let spec = dag.node(node).spec();
        let est = estimates.estimate(node, spec);
        let planned_parents: Vec<NodeId> = dag
            .parents(node)
            .iter()
            .copied()
            .filter(|p| on_path.contains_key(p))
            .collect();

        let expected_invocation = if planned_parents.is_empty() {
            // Root: invoked at trigger time.
            SimDuration::ZERO
        } else {
            // Prefer the implicit-chain rule per edge where an invoke delay
            // has been learned; otherwise the parent-completion barrier.
            planned_parents
                .iter()
                .map(|&p| match estimates.invoke_delay_ms(p, node) {
                    Some(delay_ms) => {
                        exec_starts.get(&p).copied().unwrap_or(SimDuration::ZERO)
                            + SimDuration::from_millis_f64(delay_ms)
                    }
                    None => completion.get(&p).copied().unwrap_or(SimDuration::ZERO),
                })
                .max()
                .unwrap_or(SimDuration::ZERO)
        };

        let startup = SimDuration::from_millis_f64(est.startup_ms);
        let deploy_at = expected_invocation.saturating_sub(startup);

        // The function runs once both it is invoked *and* its sandbox is
        // warm. For roots (deploy_at = invocation = 0) the sandbox startup
        // delays execution — the single cold start Xanadu cannot avoid.
        let exec_start = expected_invocation.max(deploy_at + startup);
        let expected_completion = exec_start + SimDuration::from_millis_f64(est.warm_runtime_ms);

        exec_starts.insert(node, exec_start);
        completion.insert(node, expected_completion);
        deployments.push(PlannedDeployment {
            node,
            deploy_at,
            expected_invocation,
            expected_completion,
        });
    }

    JitPlan::from_deployments(deployments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{NodeEstimate, StaticEstimates};
    use crate::mlp::infer_mlp;
    use xanadu_chain::{linear_chain, FunctionSpec, WorkflowBuilder};

    fn est(cold: f64, startup: f64, warm: f64) -> StaticEstimates {
        StaticEstimates::uniform(NodeEstimate {
            cold_start_ms: cold,
            startup_ms: startup,
            warm_runtime_ms: warm,
        })
    }

    /// The planner's makespan estimate: the latest expected completion.
    fn makespan(plan: &JitPlan) -> SimDuration {
        plan.deployments()
            .iter()
            .map(|d| d.expected_completion)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    #[test]
    fn linear_chain_staggered_deployments() {
        let dag = linear_chain("c", 4, &FunctionSpec::new("f").service_ms(5000.0)).unwrap();
        let mlp = infer_mlp(&dag, |_, _| None);
        let plan = plan_jit(&dag, &mlp.path, &est(3000.0, 3000.0, 5000.0));
        let d: Vec<f64> = plan
            .deployments()
            .iter()
            .map(|p| p.deploy_at.as_millis_f64())
            .collect();
        // Root at 0; completion(root)=3000+5000=8000; child deploys at
        // 8000−3000=5000; completion(child)=8000+5000=13000; etc.
        assert_eq!(d, vec![0.0, 5000.0, 10_000.0, 15_000.0]);
        assert_eq!(makespan(&plan).as_millis_f64(), 23_000.0);
    }

    #[test]
    fn fast_chain_deploys_almost_immediately() {
        // Functions much shorter than the startup time: downstream sandboxes
        // must start provisioning almost immediately, converging toward
        // speculative deployment.
        let dag = linear_chain("c", 3, &FunctionSpec::new("f").service_ms(100.0)).unwrap();
        let mlp = infer_mlp(&dag, |_, _| None);
        let plan = plan_jit(&dag, &mlp.path, &est(3000.0, 3000.0, 100.0));
        assert_eq!(plan.deployments()[0].deploy_at, SimDuration::ZERO);
        // Root completes at 3000 (cold) + 100 (run) = 3100; the child's
        // sandbox must deploy at 3100 − 3000 = 100 ms.
        assert_eq!(
            plan.deployments()[1].deploy_at,
            SimDuration::from_millis(100)
        );
        // Completion accounts for waiting on the sandbox, not just runtime.
        let root = plan.deployment(mlp.path[0]).unwrap();
        assert_eq!(root.expected_completion.as_millis_f64(), 3100.0);
        // A chain of zero-length functions truly clamps at zero.
        let plan0 = plan_jit(&dag, &mlp.path, &est(3000.0, 3000.0, 0.0));
        assert!(plan0
            .deployments()
            .iter()
            .all(|d| d.deploy_at == SimDuration::ZERO));
    }

    #[test]
    fn barrier_uses_slowest_parent() {
        let mut b = WorkflowBuilder::new("d");
        let a = b.add(FunctionSpec::new("a").service_ms(100.0)).unwrap();
        let fast = b.add(FunctionSpec::new("fast").service_ms(100.0)).unwrap();
        let slow = b.add(FunctionSpec::new("slow").service_ms(9000.0)).unwrap();
        let j = b.add(FunctionSpec::new("j").service_ms(100.0)).unwrap();
        b.link(a, fast).unwrap();
        b.link(a, slow).unwrap();
        b.link(fast, j).unwrap();
        b.link(slow, j).unwrap();
        let dag = b.build().unwrap();
        let mlp = infer_mlp(&dag, |_, _| None);
        let mut estimates = est(1000.0, 1000.0, 100.0);
        estimates.set(
            slow,
            NodeEstimate {
                cold_start_ms: 1000.0,
                startup_ms: 1000.0,
                warm_runtime_ms: 9000.0,
            },
        );
        let plan = plan_jit(&dag, &mlp.path, &estimates);
        let join = plan.deployment(j).unwrap();
        // slow completes at 1000(root cold)+100(root run)+9000 = 10100;
        // fast completes at 1200. Barrier waits for slow.
        assert_eq!(join.expected_invocation.as_millis_f64(), 10_100.0);
        assert_eq!(join.deploy_at.as_millis_f64(), 9_100.0);
    }

    #[test]
    fn implicit_edge_uses_invoke_delay() {
        let dag = linear_chain("c", 2, &FunctionSpec::new("f").service_ms(5000.0)).unwrap();
        let a = dag.node_by_name("f0").unwrap();
        let c = dag.node_by_name("f1").unwrap();
        let mut estimates = est(3000.0, 3000.0, 5000.0);
        // Parent invokes the child 700 ms after the parent itself starts —
        // long before the parent completes.
        estimates.set_invoke_delay(a, c, 700.0);
        let mlp = infer_mlp(&dag, |_, _| None);
        let plan = plan_jit(&dag, &mlp.path, &estimates);
        let child = plan.deployment(c).unwrap();
        // Parent starts executing at 3000 (its own startup); the child is
        // invoked 700 ms after that.
        assert_eq!(child.expected_invocation.as_millis_f64(), 3700.0);
        assert_eq!(
            child.deploy_at.as_millis_f64(),
            700.0,
            "deployed startup-time before 3700"
        );
    }

    #[test]
    fn plan_covers_only_mlp_nodes() {
        let mut b = WorkflowBuilder::new("x");
        let a = b.add(FunctionSpec::new("a")).unwrap();
        let w = b.add(FunctionSpec::new("w")).unwrap();
        let l = b.add(FunctionSpec::new("l")).unwrap();
        b.link_xor(a, &[(w, 0.9), (l, 0.1)]).unwrap();
        let dag = b.build().unwrap();
        let mlp = infer_mlp(&dag, |_, _| None);
        let plan = plan_jit(&dag, &mlp.path, &est(1000.0, 1000.0, 500.0));
        assert_eq!(plan.len(), 2);
        assert!(plan.deployment(l).is_none());
    }

    #[test]
    fn off_path_parents_are_ignored() {
        // The join has two parents but only one is on the MLP (XOR pruned
        // the other); planning must not wait for a node that will not run.
        let mut b = WorkflowBuilder::new("x");
        let a = b.add(FunctionSpec::new("a").service_ms(100.0)).unwrap();
        let w = b.add(FunctionSpec::new("w").service_ms(100.0)).unwrap();
        let l = b.add(FunctionSpec::new("l").service_ms(60_000.0)).unwrap();
        let j = b.add(FunctionSpec::new("j").service_ms(100.0)).unwrap();
        b.link_xor(a, &[(w, 0.9), (l, 0.1)]).unwrap();
        b.link(w, j).unwrap();
        b.link(l, j).unwrap();
        let dag = b.build().unwrap();
        let mlp = infer_mlp(&dag, |_, _| None);
        assert!(!mlp.contains(l));
        let plan = plan_jit(&dag, &mlp.path, &est(1000.0, 1000.0, 100.0));
        let join = plan.deployment(j).unwrap();
        // Waits only for w: 1000+100 (a) + 100 (w) = 1200.
        assert_eq!(join.expected_invocation.as_millis_f64(), 1200.0);
    }

    #[test]
    fn empty_mlp_gives_empty_plan() {
        let dag = linear_chain("c", 2, &FunctionSpec::new("f")).unwrap();
        let plan = plan_jit(&dag, &[], &est(1.0, 1.0, 1.0));
        assert!(plan.is_empty());
        assert_eq!(makespan(&plan), SimDuration::ZERO);
    }

    #[test]
    fn shift_and_lead_move_only_their_offsets() {
        let dag = linear_chain("c", 3, &FunctionSpec::new("f").service_ms(2000.0)).unwrap();
        let mlp = infer_mlp(&dag, |_, _| None);
        let plan = plan_jit(&dag, &mlp.path, &est(500.0, 500.0, 2000.0));
        let second = SimDuration::from_secs(1);
        let shifted = plan.clone().shifted(second);
        for (d, s) in plan.deployments().iter().zip(shifted.deployments()) {
            assert_eq!(s.node, d.node);
            assert_eq!(s.deploy_at, d.deploy_at + second);
            assert_eq!(s.expected_invocation, d.expected_invocation + second);
            assert_eq!(s.expected_completion, d.expected_completion + second);
        }
        // Everything at the trigger: the latest expected invocation is
        // submitted first, and the expectations survive.
        let flat = plan.clone().deployed_earlier(SimDuration::MAX);
        let nodes: Vec<NodeId> = flat.deployments().iter().map(|d| d.node).collect();
        assert_eq!(nodes, vec![mlp.path[2], mlp.path[1], mlp.path[0]]);
        assert!(flat
            .deployments()
            .iter()
            .all(|d| d.deploy_at == SimDuration::ZERO));
        assert_eq!(makespan(&flat), makespan(&plan));
        // A lead shorter than an offset only moves that deployment up.
        let led = plan.clone().deployed_earlier(second);
        assert_eq!(led.deployments()[0].deploy_at, SimDuration::ZERO);
        assert_eq!(
            led.deployments()[2].deploy_at,
            plan.deployments()[2].deploy_at - second
        );
    }

    #[test]
    fn deployments_sorted_by_time() {
        let dag = linear_chain("c", 5, &FunctionSpec::new("f").service_ms(2000.0)).unwrap();
        let mlp = infer_mlp(&dag, |_, _| None);
        let plan = plan_jit(&dag, &mlp.path, &est(500.0, 500.0, 2000.0));
        let times: Vec<_> = plan.deployments().iter().map(|d| d.deploy_at).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::estimate::{NodeEstimate, StaticEstimates};
    use crate::mlp::infer_mlp;
    use proptest::prelude::*;
    use xanadu_chain::{linear_chain, FunctionSpec};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn deployment_never_after_invocation(
            n in 1usize..12,
            cold in 100.0f64..5000.0,
            warm in 10.0f64..10_000.0,
        ) {
            let dag = linear_chain("c", n, &FunctionSpec::new("f").service_ms(warm)).unwrap();
            let est = StaticEstimates::uniform(NodeEstimate {
                cold_start_ms: cold,
                startup_ms: cold,
                warm_runtime_ms: warm,
            });
            let mlp = infer_mlp(&dag, |_, _| None);
            let plan = plan_jit(&dag, &mlp.path, &est);
            for d in plan.deployments() {
                prop_assert!(d.deploy_at <= d.expected_invocation);
                prop_assert!(d.expected_invocation <= d.expected_completion);
            }
        }

        #[test]
        fn makespan_at_least_total_runtime(
            n in 1usize..12,
            warm in 10.0f64..10_000.0,
        ) {
            let dag = linear_chain("c", n, &FunctionSpec::new("f").service_ms(warm)).unwrap();
            let est = StaticEstimates::uniform(NodeEstimate {
                cold_start_ms: 1000.0,
                startup_ms: 1000.0,
                warm_runtime_ms: warm,
            });
            let mlp = infer_mlp(&dag, |_, _| None);
            let plan = plan_jit(&dag, &mlp.path, &est);
            let total_runtime = warm * n as f64;
            let makespan = plan
                .deployments()
                .iter()
                .map(|d| d.expected_completion)
                .max()
                .unwrap_or(SimDuration::ZERO);
            prop_assert!(makespan.as_millis_f64() >= total_runtime - 1e-6);
        }
    }
}
