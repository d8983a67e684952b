//! Programmatic workflow construction.

use crate::dag::{BranchMode, Edge, NodeData, Starts, WorkflowDag, XorDecision};
use crate::error::ChainError;
use crate::id::NodeId;
use crate::spec::FunctionSpec;
use std::collections::HashSet;
use std::fmt::Write;
use std::sync::Arc;

/// One linked edge, with its source and the source's previous link.
#[derive(Debug, Clone, Copy)]
struct Link {
    from: NodeId,
    edge: Edge,
    /// The index in the builder's `links` of `from`'s previous link.
    prev: Option<u32>,
}

/// Incremental, validating builder for [`WorkflowDag`].
///
/// Cycles are rejected at `link` time so a builder can never accumulate an
/// invalid graph; [`build`](Self::build) performs the final whole-graph
/// validation.
///
/// Edges accumulate in one flat list in link order, each chained to its
/// source's previous edge for the duplicate and cycle checks; `build`
/// sorts them into the DAG's flat adjacency. So a builder allocates per
/// workflow, not per node or edge.
///
/// # Example
///
/// ```
/// use xanadu_chain::{WorkflowBuilder, FunctionSpec};
///
/// let mut b = WorkflowBuilder::new("checkout");
/// let order = b.add(FunctionSpec::new("order").service_ms(2000.0))?;
/// let pay = b.add(FunctionSpec::new("payment").service_ms(2500.0))?;
/// let ok = b.add(FunctionSpec::new("invoice").service_ms(300.0))?;
/// let retry = b.add(FunctionSpec::new("retry").service_ms(50.0))?;
/// b.link(order, pay)?;
/// b.link_xor(pay, &[(ok, 0.9), (retry, 0.1)])?; // conditional point
/// let dag = b.build()?;
/// assert_eq!(dag.conditional_points(), 1);
/// # Ok::<(), xanadu_chain::ChainError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WorkflowBuilder {
    name: String,
    nodes: Vec<NodeData>,
    /// The specs' own shared names, so checking uniqueness copies none.
    names: HashSet<Arc<str>>,
    /// Every edge, in link order.
    links: Vec<Link>,
    /// Each node's latest link, from which its earlier ones chain back.
    last_link: Vec<Option<u32>>,
    /// The cycle check's search stack and visited flags, reused by every
    /// link that searches.
    stack: Vec<NodeId>,
    seen: Vec<bool>,
}

impl WorkflowBuilder {
    /// Starts an empty workflow with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        WorkflowBuilder {
            name: name.into(),
            nodes: Vec::new(),
            names: HashSet::new(),
            links: Vec::new(),
            last_link: Vec::new(),
            stack: Vec::new(),
            seen: Vec::new(),
        }
    }

    /// Starts an empty workflow sized for `nodes` functions and as many
    /// edges, added through [`push`](Self::push): the name set stays
    /// empty.
    ///
    /// # Errors
    ///
    /// [`ChainError::TooLarge`] when a [`NodeId`] cannot number `nodes`
    /// functions or their builder state cannot be reserved.
    pub(crate) fn with_capacity(name: impl Into<String>, nodes: usize) -> Result<Self, ChainError> {
        let mut builder = Self::new(name);
        let held = u32::try_from(nodes).is_ok()
            && builder.nodes.try_reserve_exact(nodes).is_ok()
            && builder.links.try_reserve_exact(nodes).is_ok()
            && builder.last_link.try_reserve_exact(nodes).is_ok();
        if held {
            Ok(builder)
        } else {
            Err(ChainError::TooLarge { functions: nodes })
        }
    }

    /// Adds a function node and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::DuplicateFunction`] if a function with the same
    /// name exists, or [`ChainError::InvalidSpec`] if the spec fails
    /// validation.
    pub fn add(&mut self, spec: FunctionSpec) -> Result<NodeId, ChainError> {
        spec.validate()?;
        if !self.names.insert(Arc::clone(spec.shared_name())) {
            return Err(ChainError::DuplicateFunction(spec.name().into()));
        }
        Ok(self.push(spec))
    }

    /// Adds a node without checking its spec or its name, which
    /// [`build`](Self::build) checks for every node.
    fn push(&mut self, spec: FunctionSpec) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(NodeData::new(spec, BranchMode::Multicast));
        self.last_link.push(None);
        id
    }

    /// Adds a multicast edge `from -> to` with probability 1 (the 1:1 /
    /// 1:m / m:1 relationships of §2.1).
    ///
    /// # Errors
    ///
    /// See [`link_weighted`](Self::link_weighted).
    pub fn link(&mut self, from: NodeId, to: NodeId) -> Result<(), ChainError> {
        self.link_weighted(from, to, 1.0)
    }

    /// Adds a multicast edge with an explicit ground-truth probability
    /// (useful for modelling children that fire only sometimes).
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::UnknownNode`] for ids not in this builder,
    /// [`ChainError::InvalidWeight`] for non-finite / non-positive weights,
    /// [`ChainError::DuplicateEdge`] if the edge exists, or
    /// [`ChainError::CycleDetected`] if the edge would close a cycle.
    pub fn link_weighted(
        &mut self,
        from: NodeId,
        to: NodeId,
        weight: f64,
    ) -> Result<(), ChainError> {
        self.check_node(from)?;
        self.check_node(to)?;
        if !weight.is_finite() || weight <= 0.0 {
            return Err(ChainError::InvalidWeight { weight });
        }
        if self.edges_from(from).any(|e| e.to == to) {
            return Err(ChainError::DuplicateEdge { from, to });
        }
        if from == to || self.reaches(to, from) {
            return Err(ChainError::CycleDetected { from, to });
        }
        let link = u32::try_from(self.links.len()).expect("fewer than 2^32 edges");
        let prev = self.last_link[from.index()].replace(link);
        self.links.push(Link {
            from,
            edge: Edge { to, weight },
            prev,
        });
        Ok(())
    }

    /// Marks `from` as an XOR-cast node and links it to each `(child,
    /// weight)` pair; exactly one child fires per execution, drawn with the
    /// weights as probabilities.
    ///
    /// Any edges previously added from `from` are retained and become part
    /// of the XOR group.
    ///
    /// # Errors
    ///
    /// Same conditions as [`link_weighted`](Self::link_weighted); on error,
    /// edges added earlier in the same call remain.
    pub fn link_xor(&mut self, from: NodeId, branches: &[(NodeId, f64)]) -> Result<(), ChainError> {
        self.check_node(from)?;
        for &(to, weight) in branches {
            self.link_weighted(from, to, weight)?;
        }
        self.nodes[from.index()].set_branch_mode(BranchMode::Xor);
        Ok(())
    }

    /// Sets the branch mode of an existing node directly.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::UnknownNode`] if `id` is not in this builder.
    pub fn set_branch_mode(&mut self, id: NodeId, mode: BranchMode) -> Result<(), ChainError> {
        self.check_node(id)?;
        self.nodes[id.index()].set_branch_mode(mode);
        Ok(())
    }

    /// Attaches a data-driven XOR decision to `id` (which must already be
    /// an XOR node whose edges cover every node the decision references).
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::UnknownNode`] for ids outside this builder, or
    /// [`ChainError::InvalidSpec`] when the decision references nodes that
    /// are not children of `id`.
    pub fn set_decision(&mut self, id: NodeId, decision: XorDecision) -> Result<(), ChainError> {
        self.check_node(id)?;
        for target in decision.on_true.iter().chain(&decision.on_false) {
            self.check_node(*target)?;
            if !self.edges_from(id).any(|e| e.to == *target) {
                return Err(ChainError::InvalidSpec(format!(
                    "decision on {id} references non-child {target}"
                )));
            }
        }
        self.nodes[id.index()].set_decision(decision);
        Ok(())
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Finalizes the workflow.
    ///
    /// The links are sorted by source and by target into the DAG's flat
    /// out-edges and parents. Both sorts count then place, and are
    /// stable, so each node keeps its edges and its parents in link order.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::EmptyWorkflow`] if no functions were added, or
    /// any validation error (defensive; `add`/`link` keep the graph valid).
    pub fn build(self) -> Result<WorkflowDag, ChainError> {
        if self.nodes.is_empty() {
            return Err(ChainError::EmptyWorkflow);
        }
        let n = self.nodes.len();
        let mut starts = vec![Starts::default(); n + 1];
        for link in &self.links {
            starts[link.from.index() + 1].edges += 1;
            starts[link.edge.to.index() + 1].parents += 1;
        }
        for i in 1..=n {
            starts[i].edges += starts[i - 1].edges;
            starts[i].parents += starts[i - 1].parents;
        }
        // Each node's start is its write cursor, and ends up at the next
        // node's start; shifting the table one entry restores it.
        let unset = Edge {
            to: NodeId::from_index(0),
            weight: 0.0,
        };
        let mut edges = vec![unset; self.links.len()];
        let mut parents = vec![NodeId::from_index(0); self.links.len()];
        for link in &self.links {
            let cursor = &mut starts[link.from.index()].edges;
            edges[*cursor as usize] = link.edge;
            *cursor += 1;
            let cursor = &mut starts[link.edge.to.index()].parents;
            parents[*cursor as usize] = link.from;
            *cursor += 1;
        }
        starts.copy_within(..n, 1);
        starts[0] = Starts::default();
        WorkflowDag::from_parts(Arc::from(self.name), self.nodes, edges, parents, starts)
    }

    fn check_node(&self, id: NodeId) -> Result<(), ChainError> {
        if id.index() >= self.nodes.len() {
            Err(ChainError::UnknownNode(id))
        } else {
            Ok(())
        }
    }

    /// `from`'s out-edges so far, latest first.
    fn edges_from(&self, from: NodeId) -> impl Iterator<Item = &Edge> + '_ {
        chained(&self.links, self.last_link[from.index()])
    }

    /// DFS reachability from `start` to `target` over current edges. A
    /// `start` without children (every link to a fresh node, so every
    /// link of a [`linear_chain`]) answers without a search.
    fn reaches(&mut self, start: NodeId, target: NodeId) -> bool {
        if self.last_link[start.index()].is_none() {
            return start == target;
        }
        let WorkflowBuilder {
            links,
            last_link,
            stack,
            seen,
            ..
        } = self;
        stack.clear();
        stack.push(start);
        seen.clear();
        seen.resize(last_link.len(), false);
        while let Some(id) = stack.pop() {
            if id == target {
                return true;
            }
            if !std::mem::replace(&mut seen[id.index()], true) {
                stack.extend(chained(links, last_link[id.index()]).map(|e| e.to));
            }
        }
        false
    }
}

/// The edges of the links chained back from `latest`, latest first.
fn chained(links: &[Link], mut latest: Option<u32>) -> impl Iterator<Item = &Edge> {
    std::iter::from_fn(move || {
        let link = &links[latest? as usize];
        latest = link.prev;
        Some(&link.edge)
    })
}

/// Convenience constructor for the paper's workhorse workload: a linear
/// chain `f0 -> f1 -> … -> f(n-1)` of identical functions.
///
/// Each function costs one heap allocation, its shared name; the rest of
/// the chain allocates a fixed number of times, whatever its length.
///
/// # Errors
///
/// Returns [`ChainError::EmptyWorkflow`] if `n == 0`,
/// [`ChainError::InvalidSpec`] if the template's specs fail validation,
/// or [`ChainError::TooLarge`] if `n` functions cannot be numbered or
/// their builder cannot be reserved; nothing is built then.
///
/// # Example
///
/// ```
/// use xanadu_chain::{FunctionSpec, linear_chain};
///
/// let dag = linear_chain("chain5", 5, &FunctionSpec::new("f").service_ms(5000.0))?;
/// assert_eq!(dag.depth(), 5);
/// assert_eq!(dag.total_service_ms(), 25_000.0);
/// # Ok::<(), xanadu_chain::ChainError>(())
/// ```
pub fn linear_chain(
    name: impl Into<String>,
    n: usize,
    template: &FunctionSpec,
) -> Result<WorkflowDag, ChainError> {
    let mut b = WorkflowBuilder::with_capacity(name, n)?;
    // Every name is written into one buffer and copied once, into its
    // `Arc`; 20 bytes hold any index. One stem and distinct indexes make
    // distinct names, so the nodes skip the builder's name set; an
    // invalid template fails `build`, at its first function.
    let stem = template.name().len();
    let mut fn_name = String::with_capacity(stem + 20);
    fn_name.push_str(template.name());
    let mut prev: Option<NodeId> = None;
    for i in 0..n {
        fn_name.truncate(stem);
        write!(fn_name, "{i}").expect("writing to a String cannot fail");
        let id = b.push(template.renamed(Arc::from(fn_name.as_str())));
        if let Some(p) = prev {
            b.link(p, id)?;
        }
        prev = Some(id);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_rejects_duplicate_names() {
        let mut b = WorkflowBuilder::new("w");
        b.add(FunctionSpec::new("f")).unwrap();
        assert_eq!(
            b.add(FunctionSpec::new("f")),
            Err(ChainError::DuplicateFunction("f".into()))
        );
    }

    #[test]
    fn link_rejects_unknown_and_self_and_duplicate() {
        let mut b = WorkflowBuilder::new("w");
        let a = b.add(FunctionSpec::new("a")).unwrap();
        let c = b.add(FunctionSpec::new("c")).unwrap();
        assert!(matches!(
            b.link(a, NodeId::from_index(9)),
            Err(ChainError::UnknownNode(_))
        ));
        assert!(matches!(
            b.link(a, a),
            Err(ChainError::CycleDetected { .. })
        ));
        b.link(a, c).unwrap();
        assert!(matches!(
            b.link(a, c),
            Err(ChainError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn link_rejects_cycles_transitively() {
        let mut b = WorkflowBuilder::new("w");
        let a = b.add(FunctionSpec::new("a")).unwrap();
        let c = b.add(FunctionSpec::new("c")).unwrap();
        let d = b.add(FunctionSpec::new("d")).unwrap();
        b.link(a, c).unwrap();
        b.link(c, d).unwrap();
        assert!(matches!(
            b.link(d, a),
            Err(ChainError::CycleDetected { .. })
        ));
    }

    #[test]
    fn link_rejects_bad_weights() {
        let mut b = WorkflowBuilder::new("w");
        let a = b.add(FunctionSpec::new("a")).unwrap();
        let c = b.add(FunctionSpec::new("c")).unwrap();
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                b.link_weighted(a, c, w),
                Err(ChainError::InvalidWeight { .. })
            ));
        }
    }

    #[test]
    fn empty_build_fails() {
        assert_eq!(
            WorkflowBuilder::new("w").build().unwrap_err(),
            ChainError::EmptyWorkflow
        );
    }

    #[test]
    fn xor_sets_mode() {
        let mut b = WorkflowBuilder::new("w");
        let a = b.add(FunctionSpec::new("a")).unwrap();
        let c = b.add(FunctionSpec::new("c")).unwrap();
        let d = b.add(FunctionSpec::new("d")).unwrap();
        b.link_xor(a, &[(c, 0.7), (d, 0.3)]).unwrap();
        let dag = b.build().unwrap();
        assert_eq!(dag.node(a).branch_mode(), BranchMode::Xor);
        assert_eq!(dag.children(a).len(), 2);
    }

    #[test]
    fn linear_chain_helper() {
        let dag = linear_chain("lc", 4, &FunctionSpec::new("fn").service_ms(100.0)).unwrap();
        assert_eq!(dag.len(), 4);
        assert_eq!(dag.depth(), 4);
        assert_eq!(dag.node_by_name("fn2"), Some(NodeId::from_index(2)));
        assert!(linear_chain("lc", 0, &FunctionSpec::new("fn")).is_err());
    }

    #[test]
    fn a_chain_its_node_ids_cannot_number_is_too_large() {
        // Refused before anything is reserved: node ids are 32 bits.
        for n in [1 << 32, usize::MAX] {
            assert_eq!(
                linear_chain("lc", n, &FunctionSpec::new("fn")).unwrap_err(),
                ChainError::TooLarge { functions: n }
            );
        }
    }

    #[test]
    fn len_and_is_empty() {
        let mut b = WorkflowBuilder::new("w");
        assert!(b.is_empty());
        b.add(FunctionSpec::new("a")).unwrap();
        assert_eq!(b.len(), 1);
    }
}
