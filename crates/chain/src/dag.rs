//! The workflow DAG.
//!
//! A workflow is a directed acyclic graph of function nodes. Each node
//! carries its [`FunctionSpec`] and a [`BranchMode`] describing how its
//! out-edges fire on completion (§2.1, Figure 2 of the paper):
//!
//! * **Multicast** — *all* children are triggered (1:1 when there is one
//!   child, 1:m otherwise).
//! * **Xor** — exactly one child is triggered, chosen with the edge weights
//!   as probabilities (the paper's "XOR cast").
//!
//! Join semantics follow the paper's m:1 barrier: a node runs once *every
//! activated* incoming edge has delivered. An edge is activated when its
//! source completed and (for XOR) selected it. A node none of whose
//! in-edges activate never runs.
//!
//! Edge weights are the *ground-truth* conditional probabilities
//! `ρ(child | parent)` used by the simulator to draw branch outcomes; the
//! platform's *learned* estimates live in `xanadu-profiler`.

use crate::condition::Condition;
use crate::error::ChainError;
use crate::id::NodeId;
use crate::nodeset::NodeSet;
use crate::spec::FunctionSpec;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Deref;
use std::sync::Arc;

/// The workflow's declared function outputs, keyed by function name —
/// the inputs [`Condition::evaluate`] reads.
///
/// Building this map walks every node and clones its declared output
/// JSON, so callers should compute it **once per workflow registration**
/// (via [`WorkflowDag::declared_outputs`]) and reuse it across requests
/// rather than rebuilding it per trigger; it derefs to the underlying
/// map for evaluation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeclaredOutputs(HashMap<String, serde_json::Value>);

impl Deref for DeclaredOutputs {
    type Target = HashMap<String, serde_json::Value>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

/// A data-driven XOR decision attached to an XOR-cast node: when the
/// declared outputs allow the [`Condition`] to evaluate, the decision picks
/// the whole success or fail branch-entry group instead of a probability
/// draw.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct XorDecision {
    /// The condition evaluated against completed functions' outputs.
    pub condition: Condition,
    /// Branch entries activated when the condition holds.
    pub on_true: Vec<NodeId>,
    /// Branch entries activated when it does not.
    pub on_false: Vec<NodeId>,
}

/// How a node's out-edges fire when it completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BranchMode {
    /// Every out-edge fires (1:1 and 1:m multicast).
    #[default]
    Multicast,
    /// Exactly one out-edge fires, drawn with the edge weights as
    /// probabilities (XOR cast / conditional branching).
    Xor,
}

/// A weighted out-edge of a node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// The downstream node.
    pub to: NodeId,
    /// Ground-truth conditional probability `ρ(to | from)`. For multicast
    /// edges this is typically 1.0; for XOR edges the weights across the
    /// sibling group are interpreted proportionally.
    pub weight: f64,
}

/// A node of the workflow: the function spec plus its branching mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeData {
    spec: FunctionSpec,
    branch_mode: BranchMode,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    decision: Option<XorDecision>,
}

impl NodeData {
    pub(crate) fn new(spec: FunctionSpec, branch_mode: BranchMode) -> Self {
        NodeData {
            spec,
            branch_mode,
            decision: None,
        }
    }

    /// The function's deployment parameters.
    pub fn spec(&self) -> &FunctionSpec {
        &self.spec
    }

    /// How this node's out-edges fire.
    pub fn branch_mode(&self) -> BranchMode {
        self.branch_mode
    }

    pub(crate) fn set_branch_mode(&mut self, mode: BranchMode) {
        self.branch_mode = mode;
    }

    /// The node's data-driven XOR decision, if declared.
    pub fn decision(&self) -> Option<&XorDecision> {
        self.decision.as_ref()
    }

    pub(crate) fn set_decision(&mut self, decision: XorDecision) {
        self.decision = Some(decision);
    }
}

/// A validated workflow DAG.
///
/// Construct via [`WorkflowBuilder`](crate::WorkflowBuilder) or
/// [`sdl::parse`](crate::sdl::parse); both guarantee acyclicity, unique
/// function names, and valid edge weights.
///
/// # Example
///
/// ```
/// use xanadu_chain::{WorkflowBuilder, FunctionSpec};
///
/// // A 1:m multicast followed by an m:1 barrier (diamond).
/// let mut b = WorkflowBuilder::new("diamond");
/// let a = b.add(FunctionSpec::new("a"))?;
/// let l = b.add(FunctionSpec::new("left"))?;
/// let r = b.add(FunctionSpec::new("right"))?;
/// let j = b.add(FunctionSpec::new("join"))?;
/// b.link(a, l)?;
/// b.link(a, r)?;
/// b.link(l, j)?;
/// b.link(r, j)?;
/// let dag = b.build()?;
/// assert_eq!(dag.roots(), vec![a]);
/// assert_eq!(dag.depth(), 3);
/// assert_eq!(dag.parents(j).len(), 2);
/// # Ok::<(), xanadu_chain::ChainError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowDag {
    /// Shared by every result and event that names the workflow.
    name: Arc<str>,
    nodes: Vec<NodeData>,
    children: Vec<Vec<Edge>>,
    parents: Vec<Vec<NodeId>>,
}

impl WorkflowDag {
    pub(crate) fn from_parts(
        name: Arc<str>,
        nodes: Vec<NodeData>,
        children: Vec<Vec<Edge>>,
        parents: Vec<Vec<NodeId>>,
    ) -> Self {
        WorkflowDag {
            name,
            nodes,
            children,
            parents,
        }
    }

    /// The workflow's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The workflow's name as the one shared allocation every holder
    /// clones.
    pub fn shared_name(&self) -> &Arc<str> {
        &self.name
    }

    /// Number of function nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the workflow has no nodes (never true for built workflows).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over all node ids in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The node's data.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this workflow.
    pub fn node(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.index()]
    }

    /// Looks up a node by function name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.spec().name() == name)
            .map(NodeId::from_index)
    }

    /// The node's weighted out-edges.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this workflow.
    pub fn children(&self, id: NodeId) -> &[Edge] {
        &self.children[id.index()]
    }

    /// The node's parents.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this workflow.
    pub fn parents(&self, id: NodeId) -> &[NodeId] {
        &self.parents[id.index()]
    }

    /// The ground-truth probability `ρ(child | parent)`, or `None` when no
    /// such edge exists. For XOR parents the stored weights are normalized
    /// over the sibling group.
    pub fn edge_probability(&self, parent: NodeId, child: NodeId) -> Option<f64> {
        let edges = &self.children[parent.index()];
        let weight = edges.iter().find(|e| e.to == child)?.weight;
        match self.nodes[parent.index()].branch_mode() {
            BranchMode::Multicast => Some(weight.min(1.0)),
            BranchMode::Xor => {
                let total: f64 = edges.iter().map(|e| e.weight).sum();
                if total <= 0.0 {
                    Some(1.0 / edges.len() as f64)
                } else {
                    Some(weight / total)
                }
            }
        }
    }

    /// Collects every node's declared output into a [`DeclaredOutputs`]
    /// map for conditional evaluation. Compute once per registration; the
    /// result is immutable for the workflow's lifetime.
    pub fn declared_outputs(&self) -> DeclaredOutputs {
        DeclaredOutputs(
            self.nodes
                .iter()
                .filter_map(|n| {
                    n.spec()
                        .output()
                        .map(|o| (n.spec().name().to_string(), o.clone()))
                })
                .collect(),
        )
    }

    /// Nodes with no parents (entry points of the workflow).
    pub fn roots(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|id| self.parents[id.index()].is_empty())
            .collect()
    }

    /// Nodes with no children (exit points of the workflow).
    pub fn sinks(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|id| self.children[id.index()].is_empty())
            .collect()
    }

    /// A topological ordering of the nodes (Kahn's algorithm; determinate
    /// because ties pop in id order).
    pub fn topo_order(&self) -> Vec<NodeId> {
        let order = self.kahn();
        debug_assert_eq!(order.len(), self.len(), "dag invariants violated");
        order
    }

    /// Kahn's algorithm. Nodes on or below a cycle never reach in-degree
    /// zero, so a cyclic (unvalidated) DAG yields a short order.
    fn kahn(&self) -> Vec<NodeId> {
        let mut indegree: Vec<usize> = self.parents.iter().map(Vec::len).collect();
        let mut queue: VecDeque<NodeId> = self
            .node_ids()
            .filter(|id| indegree[id.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for edge in &self.children[id.index()] {
                indegree[edge.to.index()] -= 1;
                if indegree[edge.to.index()] == 0 {
                    queue.push_back(edge.to);
                }
            }
        }
        order
    }

    /// The level of every node: the length (in edges) of the longest path
    /// from any root. Roots are level 0.
    pub fn levels(&self) -> Vec<usize> {
        let mut level = vec![0usize; self.len()];
        for id in self.topo_order() {
            for edge in &self.children[id.index()] {
                let cand = level[id.index()] + 1;
                if cand > level[edge.to.index()] {
                    level[edge.to.index()] = cand;
                }
            }
        }
        level
    }

    /// The depth of the workflow: number of nodes on the longest root-to-
    /// sink path (a single function has depth 1). The paper's "chain
    /// length".
    pub fn depth(&self) -> usize {
        if self.is_empty() {
            return 0;
        }
        self.levels().into_iter().max().unwrap_or(0) + 1
    }

    /// Number of *conditional points*: XOR nodes with more than one child
    /// (the paper's unit in Figure 14b and Table 1).
    pub fn conditional_points(&self) -> usize {
        self.node_ids()
            .filter(|id| {
                self.nodes[id.index()].branch_mode() == BranchMode::Xor
                    && self.children[id.index()].len() > 1
            })
            .count()
    }

    /// Expected runtime (ms) of the critical path: the maximum over
    /// root-to-sink paths of the summed mean service times. This is the
    /// "slowest control flow branch" reference the paper's `C_D` definition
    /// subtracts (§2.3, Equation 1).
    pub fn critical_path_ms(&self) -> f64 {
        let mut best = vec![0.0f64; self.len()];
        for id in self.topo_order() {
            let own = self.nodes[id.index()].spec().mean_service_ms();
            let from_parents = self.parents[id.index()]
                .iter()
                .map(|p| best[p.index()])
                .fold(0.0f64, f64::max);
            best[id.index()] = from_parents + own;
        }
        best.into_iter().fold(0.0, f64::max)
    }

    /// Sum of mean service times over all nodes (the paper's `Σ rᵢ` for
    /// linear chains).
    pub fn total_service_ms(&self) -> f64 {
        self.nodes.iter().map(|n| n.spec().mean_service_ms()).sum()
    }

    /// Validates structural invariants. Builders already enforce these;
    /// this is a defense for deserialized workflows.
    ///
    /// # Errors
    ///
    /// Returns a [`ChainError`] describing the first violated invariant
    /// (empty workflow, dangling edge, bad weight, duplicate name, or
    /// cycle).
    pub fn validate(&self) -> Result<(), ChainError> {
        if self.is_empty() {
            return Err(ChainError::EmptyWorkflow);
        }
        let n = self.len();
        if self.children.len() != n || self.parents.len() != n {
            return Err(ChainError::Sdl(
                "adjacency tables disagree with node count".into(),
            ));
        }
        let mut names = HashSet::with_capacity(n);
        for node in &self.nodes {
            node.spec().validate()?;
            if !names.insert(node.spec().name()) {
                return Err(ChainError::DuplicateFunction(node.spec().name().into()));
            }
        }
        // One set serves every node: each clears the bits it set.
        let mut targets = NodeSet::with_capacity(n);
        for (i, edges) in self.children.iter().enumerate() {
            for e in edges {
                if e.to.index() >= n {
                    return Err(ChainError::UnknownNode(e.to));
                }
                if !e.weight.is_finite() || e.weight <= 0.0 {
                    return Err(ChainError::InvalidWeight { weight: e.weight });
                }
                if !targets.insert(e.to) {
                    return Err(ChainError::DuplicateEdge {
                        from: NodeId::from_index(i),
                        to: e.to,
                    });
                }
                if !self.parents[e.to.index()].contains(&NodeId::from_index(i)) {
                    return Err(ChainError::Sdl(format!(
                        "edge n{i} -> {} missing from parent table",
                        e.to
                    )));
                }
            }
            for e in edges {
                targets.remove(e.to);
            }
        }
        // Cycle check: Kahn must visit everything.
        if self.kahn().len() != n {
            return Err(ChainError::CycleDetected {
                from: NodeId::from_index(0),
                to: NodeId::from_index(0),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::WorkflowBuilder;

    fn linear(n: usize) -> WorkflowDag {
        let mut b = WorkflowBuilder::new("linear");
        let ids: Vec<NodeId> = (0..n)
            .map(|i| {
                b.add(FunctionSpec::new(format!("f{i}")).service_ms(500.0))
                    .unwrap()
            })
            .collect();
        for w in ids.windows(2) {
            b.link(w[0], w[1]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn linear_chain_structure() {
        let dag = linear(5);
        assert_eq!(dag.len(), 5);
        assert_eq!(dag.depth(), 5);
        assert_eq!(dag.roots().len(), 1);
        assert_eq!(dag.sinks().len(), 1);
        assert_eq!(dag.conditional_points(), 0);
        assert_eq!(dag.total_service_ms(), 2500.0);
        assert_eq!(dag.critical_path_ms(), 2500.0);
    }

    #[test]
    fn single_node_depth_one() {
        let dag = linear(1);
        assert_eq!(dag.depth(), 1);
        assert_eq!(dag.roots(), dag.sinks());
    }

    #[test]
    fn topo_order_respects_edges() {
        let dag = linear(6);
        let order = dag.topo_order();
        let pos: Vec<usize> = (0..6)
            .map(|i| {
                order
                    .iter()
                    .position(|&x| x == NodeId::from_index(i))
                    .unwrap()
            })
            .collect();
        for w in pos.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn diamond_levels_and_barrier_parents() {
        let mut b = WorkflowBuilder::new("d");
        let a = b.add(FunctionSpec::new("a").service_ms(100.0)).unwrap();
        let l = b.add(FunctionSpec::new("l").service_ms(200.0)).unwrap();
        let r = b.add(FunctionSpec::new("r").service_ms(700.0)).unwrap();
        let j = b.add(FunctionSpec::new("j").service_ms(100.0)).unwrap();
        b.link(a, l).unwrap();
        b.link(a, r).unwrap();
        b.link(l, j).unwrap();
        b.link(r, j).unwrap();
        let dag = b.build().unwrap();
        assert_eq!(dag.levels(), vec![0, 1, 1, 2]);
        assert_eq!(dag.depth(), 3);
        assert_eq!(dag.parents(j), &[l, r]);
        // Critical path goes through the slow right branch.
        assert_eq!(dag.critical_path_ms(), 100.0 + 700.0 + 100.0);
        assert_eq!(dag.total_service_ms(), 1100.0);
    }

    #[test]
    fn xor_probabilities_normalize() {
        let mut b = WorkflowBuilder::new("x");
        let a = b.add(FunctionSpec::new("a")).unwrap();
        let c1 = b.add(FunctionSpec::new("c1")).unwrap();
        let c2 = b.add(FunctionSpec::new("c2")).unwrap();
        b.link_xor(a, &[(c1, 7.0), (c2, 3.0)]).unwrap();
        let dag = b.build().unwrap();
        assert_eq!(dag.node(a).branch_mode(), BranchMode::Xor);
        assert!((dag.edge_probability(a, c1).unwrap() - 0.7).abs() < 1e-12);
        assert!((dag.edge_probability(a, c2).unwrap() - 0.3).abs() < 1e-12);
        assert_eq!(dag.edge_probability(c1, a), None);
        assert_eq!(dag.conditional_points(), 1);
    }

    #[test]
    fn multicast_probability_is_edge_weight() {
        let mut b = WorkflowBuilder::new("m");
        let a = b.add(FunctionSpec::new("a")).unwrap();
        let c = b.add(FunctionSpec::new("c")).unwrap();
        b.link(a, c).unwrap();
        let dag = b.build().unwrap();
        assert_eq!(dag.edge_probability(a, c), Some(1.0));
    }

    #[test]
    fn node_by_name_lookup() {
        let dag = linear(3);
        assert_eq!(dag.node_by_name("f1"), Some(NodeId::from_index(1)));
        assert_eq!(dag.node_by_name("nope"), None);
    }

    #[test]
    fn validate_accepts_built_dags() {
        assert!(linear(4).validate().is_ok());
    }

    #[test]
    fn validate_catches_corrupted_weight() {
        let mut dag = linear(2);
        dag.children[0][0].weight = -1.0;
        assert!(matches!(
            dag.validate(),
            Err(ChainError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn validate_catches_cycle() {
        let mut dag = linear(2);
        // Manually add a back edge n1 -> n0 and fix parent table.
        dag.children[1].push(Edge {
            to: NodeId::from_index(0),
            weight: 1.0,
        });
        dag.parents[0].push(NodeId::from_index(1));
        assert!(matches!(
            dag.validate(),
            Err(ChainError::CycleDetected { .. })
        ));
    }

    #[test]
    fn validate_catches_duplicate_edges_and_missing_parents() {
        let id = NodeId::from_index;
        let edge = |to: usize| Edge {
            to: id(to),
            weight: 1.0,
        };
        // Two nodes sharing a target is no duplicate: each node's check
        // starts from an empty set.
        let mut dag = linear(3);
        dag.children[0].push(edge(2));
        dag.parents[2].push(id(0));
        assert_eq!(dag.validate(), Ok(()));

        let mut duplicate = dag.clone();
        duplicate.children[1].push(edge(2));
        assert_eq!(
            duplicate.validate(),
            Err(ChainError::DuplicateEdge {
                from: id(1),
                to: id(2)
            })
        );

        let mut missing = linear(3);
        missing.children[0].push(edge(2));
        assert_eq!(
            missing.validate(),
            Err(ChainError::Sdl(
                "edge n0 -> n2 missing from parent table".into()
            ))
        );
    }

    #[test]
    fn validate_catches_duplicate_names() {
        let mut dag = linear(2);
        dag.nodes[1] = NodeData::new(FunctionSpec::new("f0"), BranchMode::Multicast);
        assert!(matches!(
            dag.validate(),
            Err(ChainError::DuplicateFunction(_))
        ));
    }

    #[test]
    fn xor_zero_total_weight_falls_back_to_uniform() {
        // Construct via from_parts to bypass the builder's weight checks:
        // validate() rejects it, but edge_probability must still not divide
        // by zero when queried on an unvalidated dag.
        let nodes = vec![
            NodeData::new(FunctionSpec::new("a"), BranchMode::Xor),
            NodeData::new(FunctionSpec::new("b"), BranchMode::Multicast),
            NodeData::new(FunctionSpec::new("c"), BranchMode::Multicast),
        ];
        let children = vec![
            vec![
                Edge {
                    to: NodeId::from_index(1),
                    weight: 0.0,
                },
                Edge {
                    to: NodeId::from_index(2),
                    weight: 0.0,
                },
            ],
            vec![],
            vec![],
        ];
        let parents = vec![
            vec![],
            vec![NodeId::from_index(0)],
            vec![NodeId::from_index(0)],
        ];
        let dag = WorkflowDag::from_parts("w".into(), nodes, children, parents);
        assert_eq!(
            dag.edge_probability(NodeId::from_index(0), NodeId::from_index(1)),
            Some(0.5)
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::builder::WorkflowBuilder;
    use proptest::prelude::*;

    /// Builds a random DAG by only adding forward edges i -> j with i < j,
    /// which is acyclic by construction.
    fn random_dag(n: usize, edges: &[(usize, usize)]) -> WorkflowDag {
        let mut b = WorkflowBuilder::new("prop");
        let ids: Vec<NodeId> = (0..n)
            .map(|i| b.add(FunctionSpec::new(format!("f{i}"))).unwrap())
            .collect();
        for &(i, j) in edges {
            let (i, j) = (i % n, j % n);
            if i < j {
                let _ = b.link(ids[i], ids[j]); // duplicate edges rejected, fine
            }
        }
        b.build().unwrap()
    }

    proptest! {
        #[test]
        fn topo_order_is_a_permutation_respecting_edges(
            n in 1usize..20,
            edges in proptest::collection::vec((0usize..20, 0usize..20), 0..60),
        ) {
            let dag = random_dag(n, &edges);
            let order = dag.topo_order();
            prop_assert_eq!(order.len(), dag.len());
            let mut pos = vec![0usize; dag.len()];
            for (p, id) in order.iter().enumerate() {
                pos[id.index()] = p;
            }
            for id in dag.node_ids() {
                for e in dag.children(id) {
                    prop_assert!(pos[id.index()] < pos[e.to.index()]);
                }
            }
        }

        #[test]
        fn depth_bounded_by_len_and_levels_consistent(
            n in 1usize..20,
            edges in proptest::collection::vec((0usize..20, 0usize..20), 0..60),
        ) {
            let dag = random_dag(n, &edges);
            let depth = dag.depth();
            prop_assert!(depth >= 1 && depth <= dag.len());
            let levels = dag.levels();
            for id in dag.node_ids() {
                for e in dag.children(id) {
                    prop_assert!(levels[e.to.index()] > levels[id.index()]);
                }
            }
        }

        #[test]
        fn built_dags_always_validate(
            n in 1usize..15,
            edges in proptest::collection::vec((0usize..15, 0usize..15), 0..40),
        ) {
            let dag = random_dag(n, &edges);
            prop_assert!(dag.validate().is_ok());
        }

        #[test]
        fn critical_path_between_max_node_and_total(
            n in 1usize..15,
            edges in proptest::collection::vec((0usize..15, 0usize..15), 0..40),
        ) {
            let dag = random_dag(n, &edges);
            let cp = dag.critical_path_ms();
            let max_single = (0..dag.len())
                .map(|i| dag.node(NodeId::from_index(i)).spec().mean_service_ms())
                .fold(0.0f64, f64::max);
            prop_assert!(cp >= max_single - 1e-9);
            prop_assert!(cp <= dag.total_service_ms() + 1e-9);
        }

        #[test]
        fn xor_sibling_probabilities_sum_to_one(
            weights in proptest::collection::vec(0.01f64..100.0, 2..8),
        ) {
            let mut b = WorkflowBuilder::new("xp");
            let root = b.add(FunctionSpec::new("root")).unwrap();
            let kids: Vec<(NodeId, f64)> = weights
                .iter()
                .enumerate()
                .map(|(i, &w)| (b.add(FunctionSpec::new(format!("k{i}"))).unwrap(), w))
                .collect();
            b.link_xor(root, &kids).unwrap();
            let dag = b.build().unwrap();
            let total: f64 = kids
                .iter()
                .map(|(id, _)| dag.edge_probability(root, *id).unwrap())
                .sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
        }
    }
}
