//! Figure 14: number of triggers for the MLP to converge, across 100
//! random biased binary trees, binned by workflow size (14a) and by the
//! number of conditional branches (14b).
//!
//! The paper reports: workflows with ≤4 functions converge in ≈2 requests
//! rising to ≈5.3 for >8 functions; ≤1 conditional branch needs ≈2
//! requests rising to >5.2 at 3 branches; high variance driven by the
//! sharpness of the biases; all but one of the 100 trees converged to the
//! true MLP (the outlier had near-0.5 probabilities).

use crate::harness::{mean, Experiment, Finding};
use xanadu_chain::{BranchMode, NodeId, WorkflowDag};
use xanadu_core::mlp::{infer_mlp, infer_mlp_learned};
use xanadu_profiler::BranchDetector;
use xanadu_simcore::report::{fmt_f64, Table};
use xanadu_simcore::RngStream;
use xanadu_workloads::{random_binary_tree, RandomTreeConfig};

const TREES: u64 = 100;
const TRIGGERS_PER_TREE: usize = 10;

/// Samples one execution of `dag` (drawing XOR outcomes from the ground
/// truth) and feeds the observed requests to `detector`, exactly as the
/// platform's dispatcher would.
fn observe_execution(dag: &WorkflowDag, detector: &mut BranchDetector, rng: &mut RngStream) {
    let mut activated = vec![false; dag.len()];
    let mut via: Vec<Option<NodeId>> = vec![None; dag.len()];
    for root in dag.roots() {
        activated[root.index()] = true;
    }
    for &id in dag.topo_order() {
        if !activated[id.index()] {
            continue;
        }
        let parent_name = via[id.index()].map(|p| dag.node(p).spec().name().to_string());
        detector.observe_request(dag.node(id).spec().name(), parent_name.as_deref());
        let edges = dag.children(id);
        if edges.is_empty() {
            continue;
        }
        match dag.node(id).branch_mode() {
            BranchMode::Multicast => {
                for e in edges {
                    activated[e.to.index()] = true;
                    via[e.to.index()] = Some(id);
                }
            }
            BranchMode::Xor => {
                let weights: Vec<f64> = edges.iter().map(|e| e.weight).collect();
                let pick = edges[rng.weighted_choice(&weights)].to;
                activated[pick.index()] = true;
                via[pick.index()] = Some(id);
            }
        }
    }
}

struct TreeOutcome {
    nodes: usize,
    conditionals: usize,
    /// Triggers until the learned MLP matched the truth and stayed there,
    /// capped at `TRIGGERS_PER_TREE + 1` when it never converged.
    convergence: usize,
    converged: bool,
}

fn evaluate_tree(seed: u64) -> TreeOutcome {
    let nodes = 1 + (seed % 10) as usize; // 1..=10 nodes, paper's range
    let cfg = RandomTreeConfig {
        nodes,
        ..Default::default()
    };
    let dag = random_binary_tree(&cfg, seed).expect("tree");
    let truth: Vec<String> = {
        let mlp = infer_mlp(&dag, |_, _| None);
        mlp.path
            .iter()
            .map(|&n| dag.node(n).spec().name().to_string())
            .collect()
    };
    let root_name = dag.node(dag.roots()[0]).spec().name().to_string();
    let mut detector = BranchDetector::new();
    let mut rng = RngStream::derive(seed, "fig14-exec");
    let mut learned_history = Vec::new();
    for _ in 0..TRIGGERS_PER_TREE {
        observe_execution(&dag, &mut detector, &mut rng);
        learned_history.push(infer_mlp_learned(&detector, &root_name, 0.95));
    }
    let convergence = (0..learned_history.len())
        .find(|&start| learned_history[start..].iter().all(|m| *m == truth))
        .map(|s| s + 1);
    TreeOutcome {
        nodes,
        conditionals: dag.conditional_points(),
        convergence: convergence.unwrap_or(TRIGGERS_PER_TREE + 1),
        converged: convergence.is_some(),
    }
}

/// Runs the experiment.
pub fn run() -> Experiment {
    let outcomes: Vec<TreeOutcome> = (0..TREES).map(evaluate_tree).collect();

    let mut output = String::new();
    let mut by_size = Table::new(
        "Figure 14a — triggers to converge vs workflow size (100 random trees)",
        &[
            "functions",
            "trees",
            "mean triggers to converge",
            "converged",
        ],
    );
    let mut small_sizes = Vec::new();
    let mut large_sizes = Vec::new();
    for bucket in [(1usize, 2usize), (3, 4), (5, 6), (7, 8), (9, 10)] {
        let in_bucket: Vec<&TreeOutcome> = outcomes
            .iter()
            .filter(|o| o.nodes >= bucket.0 && o.nodes <= bucket.1)
            .collect();
        let m = mean(in_bucket.iter().map(|o| o.convergence as f64));
        let conv = in_bucket.iter().filter(|o| o.converged).count();
        by_size.row(&[
            &format!("{}–{}", bucket.0, bucket.1),
            &in_bucket.len().to_string(),
            &fmt_f64(m, 2),
            &format!("{conv}/{}", in_bucket.len()),
        ]);
        if bucket.1 <= 4 {
            small_sizes.extend(in_bucket.iter().map(|o| o.convergence as f64));
        }
        if bucket.0 >= 9 {
            large_sizes.extend(in_bucket.iter().map(|o| o.convergence as f64));
        }
    }
    output.push_str(&by_size.render());

    let mut by_cond = Table::new(
        "Figure 14b — triggers to converge vs conditional branches",
        &["conditional points", "trees", "mean triggers", "converged"],
    );
    let mut low_cond = Vec::new();
    let mut high_cond = Vec::new();
    for c in 0..=4usize {
        let in_bucket: Vec<&TreeOutcome> =
            outcomes.iter().filter(|o| o.conditionals == c).collect();
        if in_bucket.is_empty() {
            continue;
        }
        let m = mean(in_bucket.iter().map(|o| o.convergence as f64));
        let conv = in_bucket.iter().filter(|o| o.converged).count();
        by_cond.row(&[
            &c.to_string(),
            &in_bucket.len().to_string(),
            &fmt_f64(m, 2),
            &format!("{conv}/{}", in_bucket.len()),
        ]);
        if c <= 1 {
            low_cond.extend(in_bucket.iter().map(|o| o.convergence as f64));
        }
        if c >= 3 {
            high_cond.extend(in_bucket.iter().map(|o| o.convergence as f64));
        }
    }
    output.push_str(&by_cond.render());

    let mut findings = Vec::new();
    let small = mean(small_sizes.iter().copied());
    let large = mean(large_sizes.iter().copied());
    findings.push(Finding::new(
        "≤4 functions converge in ≈2 requests; >8 functions need ≈5.3",
        format!("{} vs {}", fmt_f64(small, 2), fmt_f64(large, 2)),
        small <= 3.5 && large > small,
    ));
    let lowc = mean(low_cond.iter().copied());
    let highc = mean(high_cond.iter().copied());
    findings.push(Finding::new(
        "≤1 conditional branch ≈2 requests; 3 branches >5.2",
        format!("{} vs {}", fmt_f64(lowc, 2), fmt_f64(highc, 2)),
        lowc <= 3.5 && highc > lowc,
    ));
    let converged = outcomes.iter().filter(|o| o.converged).count();
    findings.push(Finding::new(
        "barring ≈1 outlier, the inference converges to the actual MLP          (our bias draws U(0.5, 0.99) include more near-0.5 points than the          paper's, so a few more trees oscillate)",
        format!("{converged}/100 trees converged within 10 triggers"),
        converged >= 80,
    ));

    Experiment {
        id: "fig14",
        title: "MLP convergence across 100 random biased binary trees",
        output,
        findings,
        // Detector-only study — no platform runs, nothing to audit.
        audit: None,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn findings_hold() {
        let e = super::run();
        assert!(e.all_hold(), "{}", e.render());
    }
}
