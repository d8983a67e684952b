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
use std::collections::HashMap;
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
#[derive(Debug, Clone, PartialEq)]
pub struct XorDecision {
    /// The condition evaluated against completed functions' outputs.
    pub condition: Condition,
    /// Branch entries activated when the condition holds.
    pub on_true: Vec<NodeId>,
    /// Branch entries activated when it does not.
    pub on_false: Vec<NodeId>,
}

/// How a node's out-edges fire when it completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BranchMode {
    /// Every out-edge fires (1:1 and 1:m multicast).
    #[default]
    Multicast,
    /// Exactly one out-edge fires, drawn with the edge weights as
    /// probabilities (XOR cast / conditional branching).
    Xor,
}

/// A weighted out-edge of a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// The downstream node.
    pub to: NodeId,
    /// Ground-truth conditional probability `ρ(to | from)`. For multicast
    /// edges this is typically 1.0; for XOR edges the weights across the
    /// sibling group are interpreted proportionally.
    pub weight: f64,
}

/// A node of the workflow: the function spec plus its branching mode.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeData {
    spec: FunctionSpec,
    branch_mode: BranchMode,
    /// Boxed: few nodes have one, and inline it would more than double
    /// every node's size.
    decision: Option<Box<XorDecision>>,
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
        self.decision.as_deref()
    }

    pub(crate) fn set_decision(&mut self, decision: XorDecision) {
        self.decision = Some(Box::new(decision));
    }
}

/// Where a node's out-edges and parents begin in a [`WorkflowDag`]'s
/// flat adjacency arrays. Node `i` owns `starts[i]..starts[i + 1]` of
/// each array, and the extra last entry holds both arrays' lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Starts {
    pub(crate) edges: u32,
    pub(crate) parents: u32,
}

/// A validated workflow DAG, immutable once built.
///
/// Construct via [`WorkflowBuilder`](crate::WorkflowBuilder) or
/// [`sdl::parse`](crate::sdl::parse); both guarantee acyclicity, unique
/// function names, and valid edge weights.
///
/// Building stores everything a per-request walk reads. The adjacency
/// lives in two flat arrays, every out-edge in one and every parent in
/// the other, and each node owns a range of each, in link order. The
/// Kahn order the cycle check computes is kept, with the roots as its
/// prefix, and so are every node's level and the depth. So
/// [`topo_order`](Self::topo_order), [`roots`](Self::roots) and
/// [`levels`](Self::levels) borrow, and [`depth`](Self::depth) is a
/// field read.
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
/// assert_eq!(dag.roots(), [a]);
/// assert_eq!(dag.topo_order(), [a, l, r, j]);
/// assert_eq!(dag.depth(), 3);
/// assert_eq!(dag.parents(j), [l, r]);
/// # Ok::<(), xanadu_chain::ChainError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowDag {
    /// Shared by every result and event that names the workflow.
    name: Arc<str>,
    nodes: Vec<NodeData>,
    /// Every out-edge, grouped by source node in id order.
    edges: Vec<Edge>,
    /// Every node's parents, grouped by child node in id order.
    parents: Vec<NodeId>,
    /// Each node's range of `edges` and `parents`.
    starts: Vec<Starts>,
    /// Kahn's order, ties in id order.
    order: Vec<NodeId>,
    /// How many nodes open `order` without parents.
    roots: usize,
    /// Each node's longest path, in edges, from a root.
    levels: Vec<usize>,
    depth: usize,
}

impl WorkflowDag {
    /// Assembles a DAG from its nodes and flat adjacency (see
    /// [`Starts`]), checks every invariant and stores the orders.
    ///
    /// # Errors
    ///
    /// The first invariant the parts violate (see
    /// [`validate`](Self::validate)).
    pub(crate) fn from_parts(
        name: Arc<str>,
        nodes: Vec<NodeData>,
        edges: Vec<Edge>,
        parents: Vec<NodeId>,
        starts: Vec<Starts>,
    ) -> Result<Self, ChainError> {
        let mut dag = WorkflowDag {
            name,
            nodes,
            edges,
            parents,
            starts,
            order: Vec::new(),
            roots: 0,
            levels: Vec::new(),
            depth: 0,
        };
        (dag.order, dag.levels) = dag.validate()?;
        dag.roots = dag
            .order
            .iter()
            .take_while(|id| dag.parents(**id).is_empty())
            .count();
        dag.depth = dag.levels.iter().max().map_or(0, |deepest| deepest + 1);
        Ok(dag)
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

    /// The node's weighted out-edges, in the order they were linked.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this workflow.
    pub fn children(&self, id: NodeId) -> &[Edge] {
        let (from, to) = (self.starts[id.index()], self.starts[id.index() + 1]);
        &self.edges[from.edges as usize..to.edges as usize]
    }

    /// The node's parents, in the order their edges were linked.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this workflow.
    pub fn parents(&self, id: NodeId) -> &[NodeId] {
        let (from, to) = (self.starts[id.index()], self.starts[id.index() + 1]);
        &self.parents[from.parents as usize..to.parents as usize]
    }

    /// The ground-truth probability `ρ(child | parent)`, or `None` when no
    /// such edge exists. For XOR parents the stored weights are normalized
    /// over the sibling group.
    pub fn edge_probability(&self, parent: NodeId, child: NodeId) -> Option<f64> {
        let edges = self.children(parent);
        let weight = edges.iter().find(|e| e.to == child)?.weight;
        match self.nodes[parent.index()].branch_mode() {
            BranchMode::Multicast => Some(weight.min(1.0)),
            // Every weight is positive, so the group's total is too.
            BranchMode::Xor => Some(weight / edges.iter().map(|e| e.weight).sum::<f64>()),
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

    /// Nodes with no parents (entry points of the workflow), in id order:
    /// the prefix of [`topo_order`](Self::topo_order).
    pub fn roots(&self) -> &[NodeId] {
        &self.order[..self.roots]
    }

    /// Nodes with no children (exit points of the workflow).
    pub fn sinks(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&id| self.children(id).is_empty())
            .collect()
    }

    /// A topological ordering of the nodes: Kahn's algorithm, ties
    /// popped in id order, computed once when the DAG was built.
    pub fn topo_order(&self) -> &[NodeId] {
        &self.order
    }

    /// The level of every node: the length (in edges) of the longest path
    /// from any root. Roots are level 0.
    pub fn levels(&self) -> &[usize] {
        &self.levels
    }

    /// The depth of the workflow: number of nodes on the longest root-to-
    /// sink path (a single function has depth 1). The paper's "chain
    /// length".
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of *conditional points*: XOR nodes with more than one child
    /// (the paper's unit in Figure 14b and Table 1).
    pub fn conditional_points(&self) -> usize {
        self.node_ids()
            .filter(|&id| {
                self.nodes[id.index()].branch_mode() == BranchMode::Xor
                    && self.children(id).len() > 1
            })
            .count()
    }

    /// Expected runtime (ms) of the critical path: the maximum over
    /// root-to-sink paths of the summed mean service times. This is the
    /// "slowest control flow branch" reference the paper's `C_D` definition
    /// subtracts (§2.3, Equation 1).
    pub fn critical_path_ms(&self) -> f64 {
        let mut best = vec![0.0f64; self.len()];
        for &id in &self.order {
            let own = self.nodes[id.index()].spec().mean_service_ms();
            let from_parents = self
                .parents(id)
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

    /// Checks the structural invariants of freshly assembled parts and
    /// returns the Kahn order the cycle check computes, with every node's
    /// level. Builders already enforce each invariant; this is the
    /// defense every DAG passes once.
    ///
    /// # Errors
    ///
    /// Returns a [`ChainError`] describing the first violated invariant
    /// (empty workflow, adjacency ranges that disagree with the arrays
    /// they index, invalid spec, duplicate name, dangling edge, bad
    /// weight, duplicate edge, edge missing from its child's parents, or
    /// cycle).
    fn validate(&self) -> Result<(Vec<NodeId>, Vec<usize>), ChainError> {
        if self.is_empty() {
            return Err(ChainError::EmptyWorkflow);
        }
        let n = self.len();
        // Every range must lie in its array, and the parents must number
        // the edges: with every edge found among its child's parents
        // below, each node's parents are then exactly its in-edges'
        // sources.
        let ranges_hold = self.starts.len() == n + 1
            && self.starts[0] == Starts::default()
            && self
                .starts
                .windows(2)
                .all(|w| w[0].edges <= w[1].edges && w[0].parents <= w[1].parents)
            && self.starts[n].edges as usize == self.edges.len()
            && self.starts[n].parents as usize == self.parents.len()
            && self.edges.len() == self.parents.len();
        if !ranges_hold {
            return Err(ChainError::Sdl(
                "adjacency ranges disagree with the node and edge counts".into(),
            ));
        }
        for node in &self.nodes {
            node.spec().validate()?;
        }
        // The order's buffer first sorts the ids by name, which puts any
        // two nodes of one name side by side.
        let name = |id: NodeId| self.nodes[id.index()].spec().name();
        let mut order: Vec<NodeId> = self.node_ids().collect();
        order.sort_unstable_by(|a, b| name(*a).cmp(name(*b)));
        if let Some(pair) = order.windows(2).find(|pair| name(pair[0]) == name(pair[1])) {
            return Err(ChainError::DuplicateFunction(name(pair[0]).into()));
        }
        // One set serves every node with two or more children (a single
        // child is never a duplicate): each clears the bits it set.
        let mut targets = NodeSet::default();
        for from in self.node_ids() {
            let edges = self.children(from);
            for e in edges {
                if e.to.index() >= n {
                    return Err(ChainError::UnknownNode(e.to));
                }
                if !e.weight.is_finite() || e.weight <= 0.0 {
                    return Err(ChainError::InvalidWeight { weight: e.weight });
                }
                if edges.len() > 1 && !targets.insert(e.to) {
                    return Err(ChainError::DuplicateEdge { from, to: e.to });
                }
                if !self.parents(e.to).contains(&from) {
                    return Err(ChainError::Sdl(format!(
                        "edge {from} -> {} missing from parent table",
                        e.to
                    )));
                }
            }
            if edges.len() > 1 {
                for e in edges {
                    targets.remove(e.to);
                }
            }
        }
        // Kahn's algorithm. The order doubles as its FIFO queue, and the
        // levels' buffer counts each node's unplaced parents. Nodes on or
        // below a cycle never lose their last parent, so a cycle leaves
        // the order short.
        let mut levels: Vec<usize> = self
            .starts
            .windows(2)
            .map(|w| (w[1].parents - w[0].parents) as usize)
            .collect();
        order.clear();
        order.extend(self.node_ids().filter(|id| levels[id.index()] == 0));
        let mut next = 0;
        while let Some(&id) = order.get(next) {
            next += 1;
            for edge in self.children(id) {
                levels[edge.to.index()] -= 1;
                if levels[edge.to.index()] == 0 {
                    order.push(edge.to);
                }
            }
        }
        if order.len() != n {
            return Err(ChainError::CycleDetected {
                from: NodeId::from_index(0),
                to: NodeId::from_index(0),
            });
        }
        // Every count is zero now, the level of a root. Parents precede
        // their children in the order, so each level is final before it
        // is propagated.
        for &id in &order {
            for edge in self.children(id) {
                levels[edge.to.index()] = levels[edge.to.index()].max(levels[id.index()] + 1);
            }
        }
        Ok((order, levels))
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

    /// A built DAG's nodes and per-node adjacency lists, to corrupt
    /// before reassembling them with [`assemble`].
    type Lists = (Vec<NodeData>, Vec<Vec<Edge>>, Vec<Vec<NodeId>>);

    fn lists(dag: &WorkflowDag) -> Lists {
        (
            dag.nodes.clone(),
            dag.node_ids().map(|id| dag.children(id).to_vec()).collect(),
            dag.node_ids().map(|id| dag.parents(id).to_vec()).collect(),
        )
    }

    /// Flattens per-node lists into the parts [`WorkflowDag::from_parts`]
    /// takes.
    fn assemble((nodes, children, parents): Lists) -> Result<WorkflowDag, ChainError> {
        let mut starts = vec![Starts::default()];
        for (edges, from) in children.iter().zip(&parents) {
            let last = starts[starts.len() - 1];
            starts.push(Starts {
                edges: last.edges + edges.len() as u32,
                parents: last.parents + from.len() as u32,
            });
        }
        WorkflowDag::from_parts(
            "w".into(),
            nodes,
            children.concat(),
            parents.concat(),
            starts,
        )
    }

    fn edge(to: usize, weight: f64) -> Edge {
        Edge {
            to: NodeId::from_index(to),
            weight,
        }
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
        assert_eq!(dag.levels(), [0, 1, 1, 2]);
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
        let dag = linear(4);
        let rebuilt = assemble(lists(&dag)).unwrap();
        assert_eq!(rebuilt.topo_order(), dag.topo_order());
        assert_eq!(rebuilt.levels(), dag.levels());
    }

    #[test]
    fn validate_catches_empty_workflows_and_disagreeing_ranges() {
        assert_eq!(
            assemble((Vec::new(), Vec::new(), Vec::new())),
            Err(ChainError::EmptyWorkflow)
        );
        let ranges = Err(ChainError::Sdl(
            "adjacency ranges disagree with the node and edge counts".into(),
        ));
        let dag = linear(3);
        let bad_starts = |mutate: fn(&mut Vec<Starts>)| {
            let mut starts = dag.starts.clone();
            mutate(&mut starts);
            WorkflowDag::from_parts(
                "w".into(),
                dag.nodes.clone(),
                dag.edges.clone(),
                dag.parents.clone(),
                starts,
            )
        };
        // One range short, a range past its array, a range running
        // backwards, and a table that does not start at zero.
        assert_eq!(bad_starts(|s| s.truncate(3)), ranges);
        assert_eq!(bad_starts(|s| s[3].edges += 1), ranges);
        assert_eq!(bad_starts(|s| s[1].parents = 2), ranges);
        assert_eq!(bad_starts(|s| s[0].edges = 1), ranges);
        // A parent no edge explains.
        let (nodes, children, mut parents) = lists(&dag);
        parents[2].push(NodeId::from_index(0));
        assert_eq!(assemble((nodes, children, parents)), ranges);
    }

    #[test]
    fn validate_catches_corrupted_weight() {
        let (nodes, mut children, parents) = lists(&linear(2));
        children[0][0].weight = -1.0;
        assert_eq!(
            assemble((nodes, children, parents)),
            Err(ChainError::InvalidWeight { weight: -1.0 })
        );
        // Nor can an XOR group weigh nothing, so normalizing its weights
        // never divides by zero.
        let nodes = vec![
            NodeData::new(FunctionSpec::new("a"), BranchMode::Xor),
            NodeData::new(FunctionSpec::new("b"), BranchMode::Multicast),
            NodeData::new(FunctionSpec::new("c"), BranchMode::Multicast),
        ];
        let children = vec![vec![edge(1, 0.0), edge(2, 0.0)], vec![], vec![]];
        let parents = vec![
            vec![],
            vec![NodeId::from_index(0)],
            vec![NodeId::from_index(0)],
        ];
        assert_eq!(
            assemble((nodes, children, parents)),
            Err(ChainError::InvalidWeight { weight: 0.0 })
        );
    }

    #[test]
    fn validate_catches_cycle() {
        let (nodes, mut children, mut parents) = lists(&linear(2));
        // A back edge n1 -> n0, with the parent table to match.
        children[1].push(edge(0, 1.0));
        parents[0].push(NodeId::from_index(1));
        assert!(matches!(
            assemble((nodes, children, parents)),
            Err(ChainError::CycleDetected { .. })
        ));
    }

    #[test]
    fn validate_catches_duplicate_edges_and_missing_parents() {
        let id = NodeId::from_index;
        // Two nodes sharing a target is no duplicate: each node's check
        // starts from an empty set.
        let (nodes, mut children, mut parents) = lists(&linear(3));
        children[0].push(edge(2, 1.0));
        parents[2].push(id(0));
        assert!(assemble((nodes.clone(), children.clone(), parents.clone())).is_ok());

        let mut duplicate = (nodes.clone(), children.clone(), parents.clone());
        duplicate.1[1].push(edge(2, 1.0));
        duplicate.2[2].push(id(1));
        assert_eq!(
            assemble(duplicate),
            Err(ChainError::DuplicateEdge {
                from: id(1),
                to: id(2)
            })
        );

        // The parent count still matches, but n2 names n1 where n0 is due.
        parents[2] = vec![id(1), id(1)];
        assert_eq!(
            assemble((nodes, children, parents)),
            Err(ChainError::Sdl(
                "edge n0 -> n2 missing from parent table".into()
            ))
        );
    }

    #[test]
    fn validate_catches_dangling_edges() {
        let (nodes, mut children, mut parents) = lists(&linear(2));
        children[1].push(edge(5, 1.0));
        parents[0].push(NodeId::from_index(1));
        assert_eq!(
            assemble((nodes, children, parents)),
            Err(ChainError::UnknownNode(NodeId::from_index(5)))
        );
    }

    #[test]
    fn validate_catches_duplicate_names() {
        let (mut nodes, children, parents) = lists(&linear(2));
        nodes[1] = NodeData::new(FunctionSpec::new("f0"), BranchMode::Multicast);
        assert_eq!(
            assemble((nodes, children, parents)),
            Err(ChainError::DuplicateFunction("f0".into()))
        );
    }

    #[test]
    fn validate_catches_invalid_specs() {
        let (mut nodes, children, parents) = lists(&linear(2));
        nodes[1] = NodeData::new(FunctionSpec::new("g").memory_mb(0), BranchMode::Multicast);
        assert!(matches!(
            assemble((nodes, children, parents)),
            Err(ChainError::InvalidSpec(_))
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::builder::WorkflowBuilder;
    use proptest::prelude::*;
    use std::collections::VecDeque;

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

    /// What a builder should hold after a sequence of calls: each node's
    /// out-edges and parents in link order, and its branch mode.
    struct Model {
        children: Vec<Vec<(usize, f64)>>,
        parents: Vec<Vec<usize>>,
        xor: Vec<bool>,
    }

    impl Model {
        /// Whether `to` reaches `from` (so the edge would close a cycle).
        fn closes_cycle(&self, from: usize, to: usize) -> bool {
            let mut stack = vec![to];
            let mut seen = vec![false; self.children.len()];
            while let Some(at) = stack.pop() {
                if at == from {
                    return true;
                }
                if !std::mem::replace(&mut seen[at], true) {
                    stack.extend(self.children[at].iter().map(|&(c, _)| c));
                }
            }
            false
        }

        /// Links `from -> to` unless the builder must refuse it.
        fn link(&mut self, from: usize, to: usize, weight: f64) -> bool {
            if self.children[from].iter().any(|&(c, _)| c == to) || self.closes_cycle(from, to) {
                return false;
            }
            self.children[from].push((to, weight));
            self.parents[to].push(from);
            true
        }

        /// Kahn's algorithm with a `VecDeque`, ties in id order.
        fn kahn(&self) -> Vec<NodeId> {
            let mut indegree: Vec<usize> = self.parents.iter().map(Vec::len).collect();
            let mut queue: VecDeque<usize> =
                (0..indegree.len()).filter(|&i| indegree[i] == 0).collect();
            let mut order = Vec::new();
            while let Some(i) = queue.pop_front() {
                order.push(NodeId::from_index(i));
                for &(c, _) in &self.children[i] {
                    indegree[c] -= 1;
                    if indegree[c] == 0 {
                        queue.push_back(c);
                    }
                }
            }
            order
        }

        /// Each node's longest path from a root, by recursion over its
        /// parents.
        fn level(&self, node: usize, memo: &mut [Option<usize>]) -> usize {
            if let Some(level) = memo[node] {
                return level;
            }
            let level = self.parents[node]
                .iter()
                .map(|&p| self.level(p, memo) + 1)
                .max()
                .unwrap_or(0);
            memo[node] = Some(level);
            level
        }
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
            prop_assert_eq!(
                dag.validate(),
                Ok((dag.topo_order().to_vec(), dag.levels().to_vec()))
            );
        }

        /// Random builder calls over up to 24 nodes: single links and XOR
        /// groups of two or three branches between any two nodes, so the
        /// DAGs fan out, join and keep several roots, and the builder
        /// refuses every duplicate edge and every edge that would close a
        /// cycle. The built DAG's adjacency must equal the edges in link
        /// order, and its stored orders a reference Kahn and a longest-
        /// path recursion.
        #[test]
        fn stored_orders_match_reference_walks(
            n in 1usize..24,
            calls in proptest::collection::vec(
                ((0usize..24, 0usize..24), (0usize..24, 0usize..6), 0.1f64..10.0),
                0..48,
            ),
        ) {
            let mut b = WorkflowBuilder::new("prop");
            let id = NodeId::from_index;
            for i in 0..n {
                b.add(FunctionSpec::new(format!("f{i}"))).unwrap();
            }
            let mut model = Model {
                children: vec![Vec::new(); n],
                parents: vec![Vec::new(); n],
                xor: vec![false; n],
            };
            for ((from, to), (third, kind), weight) in calls {
                let (from, to, third) = (from % n, to % n, third % n);
                match kind {
                    // XOR groups: both branches, or three when the third is
                    // distinct. The call stops at the first refused branch
                    // and keeps the branches linked before it.
                    0 | 1 => {
                        let mut branches = vec![(to, weight), (third, 2.0 * weight)];
                        if kind == 1 && third != to {
                            branches.push(((third + 1) % n, weight / 2.0));
                        }
                        let accepted = branches.iter().all(|&(c, w)| model.link(from, c, w));
                        model.xor[from] |= accepted;
                        let linked = b.link_xor(
                            id(from),
                            &branches.iter().map(|&(c, w)| (id(c), w)).collect::<Vec<_>>(),
                        );
                        prop_assert_eq!(linked.is_ok(), accepted);
                    }
                    _ => {
                        let accepted = model.link(from, to, weight);
                        prop_assert_eq!(b.link_weighted(id(from), id(to), weight).is_ok(), accepted);
                    }
                }
            }
            let dag = b.build().unwrap();
            for node in 0..n {
                let edges: Vec<(usize, f64)> =
                    dag.children(id(node)).iter().map(|e| (e.to.index(), e.weight)).collect();
                prop_assert_eq!(&edges, &model.children[node]);
                let parents: Vec<usize> = dag.parents(id(node)).iter().map(|p| p.index()).collect();
                prop_assert_eq!(&parents, &model.parents[node]);
                let mode = if model.xor[node] { BranchMode::Xor } else { BranchMode::Multicast };
                prop_assert_eq!(dag.node(id(node)).branch_mode(), mode);
            }
            let order = model.kahn();
            prop_assert_eq!(dag.topo_order(), order.as_slice());
            let roots: Vec<NodeId> =
                (0..n).filter(|&i| model.parents[i].is_empty()).map(id).collect();
            prop_assert_eq!(dag.roots(), roots.as_slice());
            let mut memo = vec![None; n];
            let levels: Vec<usize> = (0..n).map(|i| model.level(i, &mut memo)).collect();
            prop_assert_eq!(dag.levels(), levels.as_slice());
            prop_assert_eq!(dag.depth(), levels.iter().max().unwrap() + 1);
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
