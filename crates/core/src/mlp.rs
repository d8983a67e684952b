//! Most-Likely-Path inference (Algorithm 1 of the paper, §3.1).
//!
//! Given a workflow DAG and branch probabilities `ρ(child | parent)`, the
//! MLP is the set of functions expected to execute on a trigger:
//!
//! * every root executes;
//! * all children of a selected **multicast** node execute (1:1 / 1:m);
//! * of the children of a selected **XOR** node, only the sibling with the
//!   maximum likelihood factor `L_j = Σ_i ρ(C_j | P_i)` executes, where the
//!   sum ranges over the node's selected parents weighted by their own
//!   likelihood of executing.
//!
//! Probabilities may come from the DAG's ground truth (testing / explicit
//! chains with declared probabilities) or from the learned estimates of the
//! branch detector — the inference is generic over a probability lookup.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use xanadu_chain::{BranchMode, NodeId, NodeSet, WorkflowDag};
use xanadu_profiler::BranchDetector;

/// Result of MLP inference over a [`WorkflowDag`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpResult {
    /// Selected nodes, in topological order.
    pub path: Vec<NodeId>,
    /// Likelihood factor `L` of each selected node (same order as `path`).
    pub likelihood: Vec<f64>,
    /// Bitset membership view of `path`, kept in sync by [`MlpResult::new`]
    /// so [`contains`](MlpResult::contains) is O(1) on the dispatch hot
    /// path.
    members: NodeSet,
}

impl MlpResult {
    /// Creates a result from the selected path and per-node likelihoods
    /// (same order), building the O(1) membership view.
    pub fn new(path: Vec<NodeId>, likelihood: Vec<f64>) -> Self {
        let members = path.iter().copied().collect();
        MlpResult {
            path,
            likelihood,
            members,
        }
    }

    /// Whether `node` is on the MLP.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.contains(node)
    }

    /// Number of selected nodes.
    pub fn len(&self) -> usize {
        self.path.len()
    }

    /// Whether the MLP is empty (only for empty workflows).
    pub fn is_empty(&self) -> bool {
        self.path.is_empty()
    }
}

/// Infers the MLP of `dag` using the probability lookup `rho`, which maps
/// `(parent, child)` to an estimate of `ρ(child | parent)`; return `None`
/// from the lookup to fall back to the DAG's ground-truth probability
/// (useful while the learned model is still incomplete). This is
/// [`infer_mlp_hedged`] with a margin of zero.
///
/// # Example
///
/// ```
/// use xanadu_chain::{WorkflowBuilder, FunctionSpec};
/// use xanadu_core::mlp::infer_mlp;
///
/// let mut b = WorkflowBuilder::new("xor");
/// let a = b.add(FunctionSpec::new("a"))?;
/// let hot = b.add(FunctionSpec::new("hot"))?;
/// let cold = b.add(FunctionSpec::new("cold"))?;
/// b.link_xor(a, &[(hot, 0.7), (cold, 0.3)])?;
/// let dag = b.build()?;
///
/// let mlp = infer_mlp(&dag, |_, _| None); // ground-truth probabilities
/// assert!(mlp.contains(a) && mlp.contains(hot) && !mlp.contains(cold));
/// # Ok::<(), xanadu_chain::ChainError>(())
/// ```
pub fn infer_mlp(dag: &WorkflowDag, rho: impl FnMut(NodeId, NodeId) -> Option<f64>) -> MlpResult {
    walk(dag, dag.roots(), rho, 0.0)
}

/// Infers a *hedged* most-likely path: like [`infer_mlp`], but at XOR
/// points whose siblings are within `hedge_margin` of the most likely one
/// (absolute likelihood difference), **all** of those are selected.
///
/// This extends the paper: §5.3 observes that weakly biased conditional
/// points make the MLP "oscillate between equiprobable paths" and §5.4
/// shows prediction misses eroding speculation's benefit. Hedging trades a
/// bounded amount of extra pre-provisioning for immunity to exactly those
/// coin-flip branches. `hedge_margin = 0.0` is [`infer_mlp`].
///
/// # Example
///
/// ```
/// use xanadu_chain::{WorkflowBuilder, FunctionSpec};
/// use xanadu_core::mlp::infer_mlp_hedged;
///
/// let mut b = WorkflowBuilder::new("x");
/// let a = b.add(FunctionSpec::new("a"))?;
/// let c1 = b.add(FunctionSpec::new("c1"))?;
/// let c2 = b.add(FunctionSpec::new("c2"))?;
/// b.link_xor(a, &[(c1, 0.52), (c2, 0.48)])?; // near coin-flip
/// let dag = b.build()?;
///
/// let hedged = infer_mlp_hedged(&dag, |_, _| None, 0.1);
/// assert!(hedged.contains(c1) && hedged.contains(c2));
/// # Ok::<(), xanadu_chain::ChainError>(())
/// ```
pub fn infer_mlp_hedged(
    dag: &WorkflowDag,
    rho: impl FnMut(NodeId, NodeId) -> Option<f64>,
    hedge_margin: f64,
) -> MlpResult {
    walk(dag, dag.roots(), rho, hedge_margin)
}

/// MLP inference rooted at an arbitrary node: `start` is taken as certain
/// (likelihood 1) and selection proceeds only through its descendants.
pub(crate) fn infer_mlp_from(
    dag: &WorkflowDag,
    start: NodeId,
    rho: impl FnMut(NodeId, NodeId) -> Option<f64>,
) -> MlpResult {
    walk(dag, &[start], rho, 0.0)
}

/// The one MLP walk: `starts` execute with likelihood 1, and each selected
/// node, in topological order, decides which of its children join. Only a
/// node's parents write its `selected` and `likelihood`, and they precede
/// it, so both are final when the walk reaches it: the path is collected
/// in the same pass.
fn walk(
    dag: &WorkflowDag,
    starts: &[NodeId],
    mut rho: impl FnMut(NodeId, NodeId) -> Option<f64>,
    hedge_margin: f64,
) -> MlpResult {
    let n = dag.len();
    // Likelihood of each node executing, propagated along selected edges.
    let mut likelihood = vec![0.0f64; n];
    let mut selected = vec![false; n];
    for &start in starts {
        likelihood[start.index()] = 1.0;
        selected[start.index()] = true;
    }

    let mut path = Vec::new();
    let mut path_likelihood = Vec::new();
    for &id in dag.topo_order() {
        if !selected[id.index()] {
            continue;
        }
        path.push(id);
        path_likelihood.push(likelihood[id.index()]);
        let edges = dag.children(id);
        let mut prob_of = |child: NodeId| {
            rho(id, child)
                .or_else(|| dag.edge_probability(id, child))
                .unwrap_or(0.0)
                .clamp(0.0, 1.0)
        };
        match dag.node(id).branch_mode() {
            BranchMode::Multicast => {
                // Every child with nonzero firing probability fires;
                // accumulate likelihood across parents (the L_j summation,
                // §3.1 Equation 3). Zero-probability edges occur when a
                // learned model has not yet discovered an edge — those
                // children must not be speculated on.
                for e in edges {
                    let p = prob_of(e.to);
                    likelihood[e.to.index()] += likelihood[id.index()] * p;
                    if p > 0.0 {
                        selected[e.to.index()] = true;
                    }
                }
            }
            BranchMode::Xor => {
                // Exactly one sibling fires: the maximum-likelihood one.
                // Accumulate contributions first (a sibling can have other
                // parents), then mark only the argmax child selected *via
                // this decision*.
                let mut best: Option<(NodeId, f64)> = None;
                let mut top = f64::NEG_INFINITY;
                for e in edges {
                    likelihood[e.to.index()] += likelihood[id.index()] * prob_of(e.to);
                    let cand = likelihood[e.to.index()];
                    top = top.max(cand);
                    // Deterministic tie-break: earlier node id wins.
                    let better = match best {
                        None => true,
                        Some((bid, bl)) => {
                            cand > bl + 1e-15 || ((cand - bl).abs() <= 1e-15 && e.to < bid)
                        }
                    };
                    if better {
                        best = Some((e.to, cand));
                    }
                }
                let Some((winner, _)) = best else { continue };
                selected[winner.index()] = true;
                // Hedge: also select the siblings within the margin of
                // the most likely one.
                if hedge_margin > 0.0 {
                    for e in edges {
                        if top - likelihood[e.to.index()] <= hedge_margin {
                            selected[e.to.index()] = true;
                        }
                    }
                }
            }
        }
    }

    MlpResult::new(path, path_likelihood)
}

/// Infers the MLP of an *implicit* chain from the learned branch tree
/// (§3.3): names are function names, starting from `root`.
///
/// Because the detector observes only request frequencies, XOR and
/// multicast parents are distinguished heuristically: children whose
/// learned probability is at least `multicast_threshold` are considered
/// always-fired (multicast members) and all selected; if no child reaches
/// the threshold the parent is treated as an XOR point and only the most
/// probable child is selected.
///
/// Returns the selected function names in BFS order from the root.
pub fn infer_mlp_learned(
    detector: &BranchDetector,
    root: &str,
    multicast_threshold: f64,
) -> Vec<String> {
    let mut path = vec![root.to_string()];
    let mut queue = std::collections::VecDeque::from([root.to_string()]);
    let mut seen: HashMap<String, ()> = HashMap::from([(root.to_string(), ())]);
    while let Some(parent) = queue.pop_front() {
        let kids = detector.children(&parent);
        if kids.is_empty() {
            continue;
        }
        let firing: Vec<&str> = {
            let multicast: Vec<&str> = kids
                .iter()
                .filter(|k| k.probability >= multicast_threshold)
                .map(|k| k.child.as_str())
                .collect();
            if multicast.is_empty() {
                // XOR point: highest probability wins (children() sorts
                // descending with deterministic ties).
                vec![kids[0].child.as_str()]
            } else {
                multicast
            }
        };
        for child in firing {
            if seen.insert(child.to_string(), ()).is_none() {
                path.push(child.to_string());
                queue.push_back(child.to_string());
            }
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use xanadu_chain::{linear_chain, FunctionSpec, WorkflowBuilder};

    #[test]
    fn linear_chain_mlp_is_whole_chain() {
        let dag = linear_chain("lin", 5, &FunctionSpec::new("f")).unwrap();
        let mlp = infer_mlp(&dag, |_, _| None);
        assert_eq!(mlp.len(), 5);
        for l in &mlp.likelihood {
            assert!((l - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn xor_selects_most_probable_branch() {
        let mut b = WorkflowBuilder::new("x");
        let a = b.add(FunctionSpec::new("a")).unwrap();
        let hot = b.add(FunctionSpec::new("hot")).unwrap();
        let cold = b.add(FunctionSpec::new("cold")).unwrap();
        let tail = b.add(FunctionSpec::new("tail")).unwrap();
        b.link_xor(a, &[(hot, 0.7), (cold, 0.3)]).unwrap();
        b.link(hot, tail).unwrap();
        let dag = b.build().unwrap();
        let mlp = infer_mlp(&dag, |_, _| None);
        assert_eq!(mlp.path, vec![a, hot, tail]);
        // tail's likelihood inherits hot's 0.7.
        assert!((mlp.likelihood[2] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn learned_probabilities_override_ground_truth() {
        let mut b = WorkflowBuilder::new("x");
        let a = b.add(FunctionSpec::new("a")).unwrap();
        let c1 = b.add(FunctionSpec::new("c1")).unwrap();
        let c2 = b.add(FunctionSpec::new("c2")).unwrap();
        b.link_xor(a, &[(c1, 0.9), (c2, 0.1)]).unwrap();
        let dag = b.build().unwrap();
        // Learned model disagrees with ground truth: c2 actually dominates.
        let mlp = infer_mlp(&dag, |_, child| Some(if child == c2 { 0.8 } else { 0.2 }));
        assert!(mlp.contains(c2));
        assert!(!mlp.contains(c1));
    }

    #[test]
    fn multicast_selects_all_children() {
        let mut b = WorkflowBuilder::new("m");
        let a = b.add(FunctionSpec::new("a")).unwrap();
        let kids: Vec<_> = (0..4)
            .map(|i| b.add(FunctionSpec::new(format!("k{i}"))).unwrap())
            .collect();
        for &k in &kids {
            b.link(a, k).unwrap();
        }
        let dag = b.build().unwrap();
        let mlp = infer_mlp(&dag, |_, _| None);
        assert_eq!(mlp.len(), 5);
    }

    #[test]
    fn barrier_likelihood_sums_over_parents() {
        // Diamond where each arm fires with probability 1: the join's
        // likelihood factor is the sum (upper bound of 1 does not hold for
        // multicast joins, as the paper notes after Equation 3).
        let mut b = WorkflowBuilder::new("d");
        let a = b.add(FunctionSpec::new("a")).unwrap();
        let l = b.add(FunctionSpec::new("l")).unwrap();
        let r = b.add(FunctionSpec::new("r")).unwrap();
        let j = b.add(FunctionSpec::new("j")).unwrap();
        b.link(a, l).unwrap();
        b.link(a, r).unwrap();
        b.link(l, j).unwrap();
        b.link(r, j).unwrap();
        let dag = b.build().unwrap();
        let mlp = infer_mlp(&dag, |_, _| None);
        assert_eq!(mlp.len(), 4);
        let j_pos = mlp.path.iter().position(|&x| x == j).unwrap();
        assert!((mlp.likelihood[j_pos] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fig8_style_tree_selects_the_solid_path() {
        // A 3-level XOR tree where one child at each level has probability
        // 0.7 and its siblings share the rest (Figure 8 of the paper).
        let mut b = WorkflowBuilder::new("fig8");
        let root = b.add(FunctionSpec::new("A")).unwrap();
        let b1 = b.add(FunctionSpec::new("B1")).unwrap();
        let b2 = b.add(FunctionSpec::new("B2")).unwrap();
        let b3 = b.add(FunctionSpec::new("B3")).unwrap();
        b.link_xor(root, &[(b1, 0.15), (b2, 0.70), (b3, 0.15)])
            .unwrap();
        let c1 = b.add(FunctionSpec::new("C1")).unwrap();
        let c2 = b.add(FunctionSpec::new("C2")).unwrap();
        b.link_xor(b2, &[(c1, 0.30), (c2, 0.70)]).unwrap();
        let dag = b.build().unwrap();
        let mlp = infer_mlp(&dag, |_, _| None);
        assert_eq!(mlp.path, vec![root, b2, c2]);
        let c2_pos = mlp.path.iter().position(|&x| x == c2).unwrap();
        assert!((mlp.likelihood[c2_pos] - 0.49).abs() < 1e-12);
    }

    #[test]
    fn equiprobable_xor_breaks_ties_deterministically() {
        let mut b = WorkflowBuilder::new("tie");
        let a = b.add(FunctionSpec::new("a")).unwrap();
        let c1 = b.add(FunctionSpec::new("c1")).unwrap();
        let c2 = b.add(FunctionSpec::new("c2")).unwrap();
        b.link_xor(a, &[(c1, 0.5), (c2, 0.5)]).unwrap();
        let dag = b.build().unwrap();
        let m1 = infer_mlp(&dag, |_, _| None);
        let m2 = infer_mlp(&dag, |_, _| None);
        assert_eq!(m1, m2);
        assert!(m1.contains(c1), "earlier id wins ties");
    }

    #[test]
    fn unselected_subtrees_are_pruned() {
        // XOR at root; losing branch has a long tail that must not appear.
        let mut b = WorkflowBuilder::new("prune");
        let a = b.add(FunctionSpec::new("a")).unwrap();
        let w = b.add(FunctionSpec::new("win")).unwrap();
        let l0 = b.add(FunctionSpec::new("lose0")).unwrap();
        let l1 = b.add(FunctionSpec::new("lose1")).unwrap();
        b.link_xor(a, &[(w, 0.9), (l0, 0.1)]).unwrap();
        b.link(l0, l1).unwrap();
        let dag = b.build().unwrap();
        let mlp = infer_mlp(&dag, |_, _| None);
        assert_eq!(mlp.path, vec![a, w]);
    }

    #[test]
    fn hedged_mlp_selects_both_near_tied_branches() {
        let mut b = WorkflowBuilder::new("h");
        let a = b.add(FunctionSpec::new("a")).unwrap();
        let c1 = b.add(FunctionSpec::new("c1")).unwrap();
        let c2 = b.add(FunctionSpec::new("c2")).unwrap();
        let c1t = b.add(FunctionSpec::new("c1t")).unwrap();
        let c2t = b.add(FunctionSpec::new("c2t")).unwrap();
        b.link_xor(a, &[(c1, 0.52), (c2, 0.48)]).unwrap();
        b.link(c1, c1t).unwrap();
        b.link(c2, c2t).unwrap();
        let dag = b.build().unwrap();

        let strict = infer_mlp(&dag, |_, _| None);
        assert_eq!(strict.len(), 3, "strict picks one arm");

        let hedged = infer_mlp_hedged(&dag, |_, _| None, 0.1);
        assert_eq!(hedged.len(), 5, "hedged covers both arms and tails");

        // A sharp bias is not hedged.
        let mut b = WorkflowBuilder::new("sharp");
        let a = b.add(FunctionSpec::new("a")).unwrap();
        let hot = b.add(FunctionSpec::new("hot")).unwrap();
        let cold = b.add(FunctionSpec::new("cold")).unwrap();
        b.link_xor(a, &[(hot, 0.9), (cold, 0.1)]).unwrap();
        let dag = b.build().unwrap();
        let hedged = infer_mlp_hedged(&dag, |_, _| None, 0.1);
        assert!(!hedged.contains(cold));
    }

    #[test]
    fn hedged_with_zero_margin_equals_strict() {
        let mut b = WorkflowBuilder::new("z");
        let a = b.add(FunctionSpec::new("a")).unwrap();
        let c1 = b.add(FunctionSpec::new("c1")).unwrap();
        let c2 = b.add(FunctionSpec::new("c2")).unwrap();
        b.link_xor(a, &[(c1, 0.6), (c2, 0.4)]).unwrap();
        let dag = b.build().unwrap();
        assert_eq!(
            infer_mlp_hedged(&dag, |_, _| None, 0.0),
            infer_mlp(&dag, |_, _| None)
        );
    }

    #[test]
    fn learned_mlp_linear_chain() {
        let mut d = BranchDetector::new();
        for _ in 0..5 {
            d.observe_request("a", None);
            d.observe_request("b", Some("a"));
            d.observe_request("c", Some("b"));
        }
        let path = infer_mlp_learned(&d, "a", 0.95);
        assert_eq!(path, vec!["a", "b", "c"]);
    }

    #[test]
    fn learned_mlp_xor_picks_dominant() {
        let mut d = BranchDetector::new();
        for i in 0..10 {
            d.observe_request("a", None);
            if i < 7 {
                d.observe_request("hot", Some("a"));
            } else {
                d.observe_request("cold", Some("a"));
            }
        }
        let path = infer_mlp_learned(&d, "a", 0.95);
        assert_eq!(path, vec!["a", "hot"]);
    }

    #[test]
    fn learned_mlp_multicast_selects_all() {
        let mut d = BranchDetector::new();
        for _ in 0..10 {
            d.observe_request("a", None);
            d.observe_request("x", Some("a"));
            d.observe_request("y", Some("a"));
        }
        let mut path = infer_mlp_learned(&d, "a", 0.95);
        path.sort();
        assert_eq!(path, vec!["a", "x", "y"]);
    }

    #[test]
    fn learned_mlp_handles_unknown_root() {
        let d = BranchDetector::new();
        assert_eq!(infer_mlp_learned(&d, "ghost", 0.95), vec!["ghost"]);
    }
}

#[cfg(test)]
pub(crate) mod proptests {
    use super::*;
    use proptest::prelude::*;
    use xanadu_chain::{FunctionSpec, WorkflowBuilder};

    /// A layered DAG: every frontier node gets `fanout` fresh children,
    /// weighted in turn from `weights`, as an XOR point or, where the
    /// `multicast` flags (cycled over parents) say so, a multicast one.
    /// With `joins`, each node after the first on a level also links to
    /// its left neighbour's first child, which then has two parents.
    pub(crate) fn random_xor_tree(
        depth: usize,
        fanout: usize,
        weights: &[f64],
        multicast: &[bool],
        joins: bool,
    ) -> WorkflowDag {
        let mut b = WorkflowBuilder::new("pt");
        let root = b.add(FunctionSpec::new("n0")).unwrap();
        let mut frontier = vec![root];
        let mut next_name = 1usize;
        let (mut widx, mut pidx) = (0usize, 0usize);
        for _ in 0..depth {
            let mut next_frontier = Vec::new();
            for (i, &parent) in frontier.iter().enumerate() {
                let mut branches = Vec::new();
                for _ in 0..fanout {
                    let id = b.add(FunctionSpec::new(format!("n{next_name}"))).unwrap();
                    next_name += 1;
                    branches.push((id, 0.0));
                }
                if joins && i > 0 {
                    branches.push((next_frontier[(i - 1) * fanout], 0.0));
                }
                for branch in &mut branches {
                    branch.1 = weights[widx % weights.len()].max(0.01);
                    widx += 1;
                }
                let is_multicast = !multicast.is_empty() && multicast[pidx % multicast.len()];
                pidx += 1;
                if is_multicast {
                    for &(to, w) in &branches {
                        b.link_weighted(parent, to, w).unwrap();
                    }
                } else {
                    b.link_xor(parent, &branches).unwrap();
                }
                next_frontier.extend(branches.iter().take(fanout).map(|(id, _)| *id));
            }
            frontier = next_frontier;
        }
        b.build().unwrap()
    }

    /// Ground-truth `ρ(child | parent)`, clamped as the walk clamps it.
    fn truth(dag: &WorkflowDag, parent: NodeId, child: NodeId) -> f64 {
        dag.edge_probability(parent, child)
            .unwrap_or(0.0)
            .clamp(0.0, 1.0)
    }

    /// The strict walk as it stood before the hedged walk was folded into
    /// it (tolerance argmax, earlier id wins), seeded at `starts`: the
    /// former `infer_mlp` with the roots, the former replan walk with one
    /// node.
    fn strict_reference(dag: &WorkflowDag, starts: &[NodeId]) -> MlpResult {
        let n = dag.len();
        let mut likelihood = vec![0.0f64; n];
        let mut selected = vec![false; n];
        for &s in starts {
            likelihood[s.index()] = 1.0;
            selected[s.index()] = true;
        }
        for &id in dag.topo_order() {
            if !selected[id.index()] {
                continue;
            }
            let edges = dag.children(id);
            if edges.is_empty() {
                continue;
            }
            match dag.node(id).branch_mode() {
                BranchMode::Multicast => {
                    for e in edges {
                        let p = truth(dag, id, e.to);
                        likelihood[e.to.index()] += likelihood[id.index()] * p;
                        if p > 0.0 {
                            selected[e.to.index()] = true;
                        }
                    }
                }
                BranchMode::Xor => {
                    let mut best: Option<(NodeId, f64)> = None;
                    for e in edges {
                        likelihood[e.to.index()] += likelihood[id.index()] * truth(dag, id, e.to);
                        let cand = likelihood[e.to.index()];
                        let better = match best {
                            None => true,
                            Some((bid, bl)) => {
                                cand > bl + 1e-15 || ((cand - bl).abs() <= 1e-15 && e.to < bid)
                            }
                        };
                        if better {
                            best = Some((e.to, cand));
                        }
                    }
                    if let Some((winner, _)) = best {
                        selected[winner.index()] = true;
                    }
                }
            }
        }
        let path: Vec<NodeId> = dag
            .topo_order()
            .iter()
            .copied()
            .filter(|id| selected[id.index()])
            .collect();
        let like = path.iter().map(|id| likelihood[id.index()]).collect();
        MlpResult::new(path, like)
    }

    /// The sort-based hedged walk as it stood before it was folded into
    /// the strict one: siblings sorted by likelihood (descending, earlier
    /// id first), the first selected with every runner-up within
    /// `margin` of it.
    fn hedged_reference(dag: &WorkflowDag, margin: f64) -> MlpResult {
        let n = dag.len();
        let mut likelihood = vec![0.0f64; n];
        let mut selected = vec![false; n];
        for root in dag.roots() {
            likelihood[root.index()] = 1.0;
            selected[root.index()] = true;
        }
        for &id in dag.topo_order() {
            if !selected[id.index()] {
                continue;
            }
            let edges = dag.children(id);
            if edges.is_empty() {
                continue;
            }
            match dag.node(id).branch_mode() {
                BranchMode::Multicast => {
                    for e in edges {
                        let p = truth(dag, id, e.to);
                        likelihood[e.to.index()] += likelihood[id.index()] * p;
                        if p > 0.0 {
                            selected[e.to.index()] = true;
                        }
                    }
                }
                BranchMode::Xor => {
                    let mut scored: Vec<(NodeId, f64)> = Vec::new();
                    for e in edges {
                        likelihood[e.to.index()] += likelihood[id.index()] * truth(dag, id, e.to);
                        scored.push((e.to, likelihood[e.to.index()]));
                    }
                    scored.sort_by(|a, b| {
                        b.1.partial_cmp(&a.1)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then_with(|| a.0.cmp(&b.0))
                    });
                    if let Some(&(winner, best)) = scored.first() {
                        selected[winner.index()] = true;
                        for &(candidate, score) in scored.iter().skip(1) {
                            if best - score <= margin {
                                selected[candidate.index()] = true;
                            }
                        }
                    }
                }
            }
        }
        let path: Vec<NodeId> = dag
            .topo_order()
            .iter()
            .copied()
            .filter(|id| selected[id.index()])
            .collect();
        let like = path.iter().map(|id| likelihood[id.index()]).collect();
        MlpResult::new(path, like)
    }

    /// Weights from a small set, so sibling likelihoods tie exactly.
    pub(crate) const TIED_WEIGHTS: [f64; 4] = [0.125, 0.25, 0.5, 1.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn xor_tree_mlp_is_a_root_to_leaf_path(
            depth in 1usize..4,
            weights in proptest::collection::vec(0.01f64..1.0, 4..32),
        ) {
            let dag = random_xor_tree(depth, 2, &weights, &[], false);
            let mlp = infer_mlp(&dag, |_, _| None);
            // For a binary XOR tree, the MLP is exactly one node per level.
            prop_assert_eq!(mlp.len(), depth + 1);
            // Consecutive selected nodes are connected.
            for w in mlp.path.windows(2) {
                prop_assert!(dag.children(w[0]).iter().any(|e| e.to == w[1]));
            }
        }

        #[test]
        fn mlp_likelihoods_are_nonincreasing_along_xor_paths(
            depth in 1usize..4,
            weights in proptest::collection::vec(0.01f64..1.0, 4..32),
        ) {
            let dag = random_xor_tree(depth, 3, &weights, &[], false);
            let mlp = infer_mlp(&dag, |_, _| None);
            for w in mlp.likelihood.windows(2) {
                prop_assert!(w[1] <= w[0] + 1e-12);
            }
        }

        #[test]
        fn mlp_is_deterministic(
            depth in 1usize..4,
            weights in proptest::collection::vec(0.01f64..1.0, 4..16),
        ) {
            let dag = random_xor_tree(depth, 2, &weights, &[], false);
            prop_assert_eq!(infer_mlp(&dag, |_, _| None), infer_mlp(&dag, |_, _| None));
        }

        #[test]
        fn the_one_walk_equals_both_former_walks(
            depth in 1usize..5,
            fanout in 1usize..4,
            picks in proptest::collection::vec(0usize..4, 1..24),
            flags in proptest::collection::vec(0u8..3, 1..8),
            joins in 0u8..2,
            start in 0usize..1000,
        ) {
            let weights: Vec<f64> = picks.iter().map(|&i| TIED_WEIGHTS[i]).collect();
            let multicast: Vec<bool> = flags.iter().map(|&f| f == 0).collect();
            let dag = random_xor_tree(depth, fanout, &weights, &multicast, joins == 1);
            let strict = strict_reference(&dag, dag.roots());
            prop_assert_eq!(&infer_mlp(&dag, |_, _| None), &strict);
            prop_assert_eq!(&infer_mlp_hedged(&dag, |_, _| None, 0.0), &strict);
            for margin in [0.05, 0.2, 1.0] {
                prop_assert_eq!(
                    infer_mlp_hedged(&dag, |_, _| None, margin),
                    hedged_reference(&dag, margin)
                );
            }
            let start = NodeId::from_index(start % dag.len());
            prop_assert_eq!(
                infer_mlp_from(&dag, start, |_, _| None),
                strict_reference(&dag, &[start])
            );
        }
    }
}
