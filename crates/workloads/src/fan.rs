//! Fan-out / fan-in (m:n) workflow generators.
//!
//! The paper's introduction motivates function chains with MapReduce-style
//! data processing, large-scale algebraic operations and video analytics —
//! all of which are fan-out/fan-in shapes: a splitter multicasts work to
//! `width` parallel workers (1:m), and a collector barriers on all of them
//! (m:1). This module generates those DAGs, including the layered m:n
//! variant where several multicast/barrier stages alternate.

use xanadu_chain::{ChainError, FunctionSpec, NodeId, WorkflowBuilder, WorkflowDag};

/// A single fan-out/fan-in: `split → w0..w(width-1) → join`.
///
/// `split`/`join` run `coordinator_ms` each; the parallel workers run
/// `worker_ms`.
///
/// # Errors
///
/// Returns [`ChainError::EmptyWorkflow`]-class errors only for `width == 0`.
///
/// # Example
///
/// ```
/// use xanadu_workloads::fan_out_fan_in;
///
/// let dag = fan_out_fan_in("mapreduce", 8, 100.0, 2000.0)?;
/// assert_eq!(dag.len(), 10);
/// assert_eq!(dag.depth(), 3);
/// // Critical path: split + slowest worker + join.
/// assert_eq!(dag.critical_path_ms(), 100.0 + 2000.0 + 100.0);
/// # Ok::<(), xanadu_chain::ChainError>(())
/// ```
pub fn fan_out_fan_in(
    name: &str,
    width: usize,
    coordinator_ms: f64,
    worker_ms: f64,
) -> Result<WorkflowDag, ChainError> {
    if width == 0 {
        return Err(ChainError::EmptyWorkflow);
    }
    let mut b = WorkflowBuilder::new(name);
    let split = b.add(FunctionSpec::new("split").service_ms(coordinator_ms))?;
    let join = b.add(FunctionSpec::new("join").service_ms(coordinator_ms))?;
    for i in 0..width {
        let w = b.add(FunctionSpec::new(format!("w{i}")).service_ms(worker_ms))?;
        b.link(split, w)?;
        b.link(w, join)?;
    }
    b.build()
}

/// A layered m:n pipeline: `stages` alternating multicast/barrier layers,
/// each `width` wide, chained through coordinator functions — the general
/// m:n relationship of the paper's Figure 2.
///
/// Total functions: `stages * (width + 1) + 1`.
///
/// # Errors
///
/// Fails for `width == 0` or `stages == 0`.
pub fn layered_fan(
    name: &str,
    stages: usize,
    width: usize,
    coordinator_ms: f64,
    worker_ms: f64,
) -> Result<WorkflowDag, ChainError> {
    if width == 0 || stages == 0 {
        return Err(ChainError::EmptyWorkflow);
    }
    let mut b = WorkflowBuilder::new(name);
    let mut coordinator: NodeId = b.add(FunctionSpec::new("c0").service_ms(coordinator_ms))?;
    for stage in 0..stages {
        let next =
            b.add(FunctionSpec::new(format!("c{}", stage + 1)).service_ms(coordinator_ms))?;
        for i in 0..width {
            let w = b.add(FunctionSpec::new(format!("s{stage}w{i}")).service_ms(worker_ms))?;
            b.link(coordinator, w)?;
            b.link(w, next)?;
        }
        coordinator = next;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_shape() {
        let dag = fan_out_fan_in("f", 4, 50.0, 500.0).unwrap();
        assert_eq!(dag.len(), 6);
        assert_eq!(dag.roots().len(), 1);
        assert_eq!(dag.sinks().len(), 1);
        let join = dag.node_by_name("join").unwrap();
        assert_eq!(dag.parents(join).len(), 4, "m:1 barrier");
        let split = dag.node_by_name("split").unwrap();
        assert_eq!(dag.children(split).len(), 4, "1:m multicast");
    }

    #[test]
    fn fan_width_one_is_a_chain() {
        let dag = fan_out_fan_in("f", 1, 10.0, 10.0).unwrap();
        assert_eq!(dag.depth(), 3);
        assert_eq!(dag.len(), 3);
    }

    #[test]
    fn fan_rejects_zero_width() {
        assert!(fan_out_fan_in("f", 0, 1.0, 1.0).is_err());
    }

    #[test]
    fn layered_shape_and_depth() {
        let dag = layered_fan("l", 3, 4, 50.0, 500.0).unwrap();
        assert_eq!(dag.len(), 3 * 5 + 1);
        // Depth: c0, w, c1, w, c2, w, c3 = 7 levels.
        assert_eq!(dag.depth(), 7);
        assert_eq!(dag.roots().len(), 1);
        assert_eq!(dag.sinks().len(), 1);
        // Each intermediate coordinator is both barrier and multicast (m:n).
        let c1 = dag.node_by_name("c1").unwrap();
        assert_eq!(dag.parents(c1).len(), 4);
        assert_eq!(dag.children(c1).len(), 4);
    }

    #[test]
    fn layered_critical_path() {
        let dag = layered_fan("l", 2, 8, 100.0, 1000.0).unwrap();
        // c0 + w + c1 + w + c2 = 3*100 + 2*1000.
        assert_eq!(dag.critical_path_ms(), 2300.0);
        assert_eq!(dag.total_service_ms(), 3.0 * 100.0 + 16.0 * 1000.0);
    }

    #[test]
    fn layered_rejects_degenerate() {
        assert!(layered_fan("l", 0, 4, 1.0, 1.0).is_err());
        assert!(layered_fan("l", 2, 0, 1.0, 1.0).is_err());
    }
}
