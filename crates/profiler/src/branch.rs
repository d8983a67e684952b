//! Implicit-chain branch detection (Algorithm 3 of the paper).
//!
//! Requests between functions of an implicit chain carry a *parent-function
//! header* injected by Xanadu's patched HTTP layer (§3.3). The detector
//! consumes dispatched requests and incrementally learns the workflow's
//! branch tree: for every observed parent it tracks each child's
//! conditional probability `ρ(child | parent)` as "a ratio between the
//! total requests to the child to that of the parent", updating the
//! probability of the invoked child *and of all its siblings* on every
//! request, exactly as Algorithm 3 prescribes.
//!
//! Probabilities are additionally smoothed with the paper's fixed-interval
//! exponential averaging (§3.1) when [`roll_window`](BranchDetector::roll_window)
//! is called periodically; consumers may read either the raw ratios or the
//! smoothed values.

use crate::ema::Ema;
use crate::update_named;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A learned edge of the branch tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LearnedEdge {
    /// The child function.
    pub child: String,
    /// Raw ratio estimate of `ρ(child | parent)` over all observations.
    pub probability: f64,
    /// Number of requests observed flowing into this child from the parent.
    pub hits: u64,
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct ParentEntry {
    /// Total requests observed *to the parent itself* (Algorithm 3 line 13).
    request_count: u64,
    /// Requests flowing to each child while attributed to this parent.
    child_hits: HashMap<String, u64>,
    /// Window counters for exponential averaging.
    window_parent: u64,
    window_child_hits: HashMap<String, u64>,
    /// Smoothed probability per child, updated at window boundaries.
    smoothed: HashMap<String, Ema>,
}

/// Learns the branch tree of implicit chains from dispatched requests.
///
/// # Example
///
/// ```
/// use xanadu_profiler::BranchDetector;
///
/// let mut d = BranchDetector::new();
/// // Root requests (no parent header):
/// for _ in 0..10 { d.observe_request("order", None); }
/// // 7 of them invoked `pay`, 3 invoked `cancel`:
/// for _ in 0..7 { d.observe_request("pay", Some("order")); }
/// for _ in 0..3 { d.observe_request("cancel", Some("order")); }
/// assert!((d.probability("order", "pay").unwrap() - 0.7).abs() < 1e-9);
/// assert!((d.probability("order", "cancel").unwrap() - 0.3).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BranchDetector {
    alpha: f64,
    parents: HashMap<String, ParentEntry>,
    /// Bumped on every observation / window roll; consumers (the plan
    /// cache) use it to detect that probabilities may have changed.
    #[serde(default)]
    epoch: u64,
}

impl BranchDetector {
    /// Creates a detector with the default smoothing factor.
    pub fn new() -> Self {
        Self::with_alpha(Ema::DEFAULT_ALPHA)
    }

    /// Creates a detector with a custom smoothing factor for the windowed
    /// exponential averaging.
    pub fn with_alpha(alpha: f64) -> Self {
        BranchDetector {
            alpha,
            parents: HashMap::new(),
            epoch: 0,
        }
    }

    /// Monotonic change counter: bumped by every
    /// [`observe_request`](Self::observe_request) and
    /// [`roll_window`](Self::roll_window), so a cached product of this
    /// detector's probabilities is valid exactly while the epoch it was
    /// computed at still matches.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Observes one dispatched request to `function`, with the parent
    /// function name from the request header if present (Algorithm 3).
    ///
    /// A request *with* a parent header counts as a hit for
    /// `ρ(function | parent)` and implicitly as a trigger of the edge
    /// group; a request *without* a header only bumps the function's own
    /// request count.
    pub fn observe_request(&mut self, function: &str, parent: Option<&str>) {
        self.epoch += 1;
        // Every request to `function` counts toward its own invocation
        // total (it may itself be a parent later).
        update_named(&mut self.parents, function, ParentEntry::default, |entry| {
            entry.request_count += 1;
            entry.window_parent += 1;
        });

        if let Some(parent) = parent {
            update_named(&mut self.parents, parent, ParentEntry::default, |p| {
                update_named(&mut p.child_hits, function, || 0, |n| *n += 1);
                update_named(&mut p.window_child_hits, function, || 0, |n| *n += 1);
            });
        }
    }

    /// The raw learned probability `ρ(child | parent)`: child hits divided
    /// by requests to the parent. `None` if the edge was never observed.
    pub fn probability(&self, parent: &str, child: &str) -> Option<f64> {
        let p = self.parents.get(parent)?;
        let hits = *p.child_hits.get(child)?;
        if p.request_count == 0 {
            return None;
        }
        Some(hits as f64 / p.request_count as f64)
    }

    /// The smoothed probability, if windows have been rolled; falls back to
    /// the raw ratio otherwise.
    pub fn smoothed_probability(&self, parent: &str, child: &str) -> Option<f64> {
        let p = self.parents.get(parent)?;
        if let Some(v) = p.smoothed.get(child).and_then(Ema::value) {
            return Some(v);
        }
        self.probability(parent, child)
    }

    /// All learned children of `parent`, with raw probabilities, sorted by
    /// descending probability then name (deterministic).
    pub fn children(&self, parent: &str) -> Vec<LearnedEdge> {
        let Some(p) = self.parents.get(parent) else {
            return Vec::new();
        };
        let mut edges: Vec<LearnedEdge> = p
            .child_hits
            .iter()
            .map(|(child, &hits)| LearnedEdge {
                child: child.clone(),
                probability: if p.request_count == 0 {
                    0.0
                } else {
                    hits as f64 / p.request_count as f64
                },
                hits,
            })
            .collect();
        edges.sort_by(|a, b| {
            b.probability
                .partial_cmp(&a.probability)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.child.cmp(&b.child))
        });
        edges
    }

    /// Functions that have been observed as requests but never carried a
    /// parent header pointing at them from any observed parent — the
    /// candidate workflow roots.
    pub fn roots(&self) -> Vec<String> {
        let mut is_child: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for p in self.parents.values() {
            for child in p.child_hits.keys() {
                is_child.insert(child);
            }
        }
        let mut roots: Vec<String> = self
            .parents
            .iter()
            .filter(|(name, e)| e.request_count > 0 && !is_child.contains(name.as_str()))
            .map(|(name, _)| name.clone())
            .collect();
        roots.sort();
        roots
    }

    /// Number of distinct functions observed.
    pub fn observed_functions(&self) -> usize {
        self.parents.len()
    }

    /// Closes the current observation window and folds each window's
    /// child/parent ratio into the smoothed probabilities (the paper's
    /// "metrics being updated after every fixed interval of time", §3.1).
    /// Windows with no parent requests are skipped.
    pub fn roll_window(&mut self) {
        self.epoch += 1;
        let alpha = self.alpha;
        for p in self.parents.values_mut() {
            if p.window_parent == 0 {
                continue;
            }
            // Every known child participates: unobserved-in-window children
            // record a 0 ratio (their share shrank), matching Algorithm 3's
            // sibling updates.
            for child in p.child_hits.keys() {
                let hits = p.window_child_hits.get(child).copied().unwrap_or(0);
                let ratio = hits as f64 / p.window_parent as f64;
                update_named(
                    &mut p.smoothed,
                    child,
                    || Ema::new(alpha),
                    |ema| ema.record(ratio),
                );
            }
            p.window_parent = 0;
            p.window_child_hits.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_semantics_match_algorithm3() {
        let mut d = BranchDetector::new();
        for _ in 0..4 {
            d.observe_request("p", None);
        }
        d.observe_request("a", Some("p"));
        d.observe_request("a", Some("p"));
        d.observe_request("b", Some("p"));
        assert_eq!(d.probability("p", "a"), Some(0.5));
        assert_eq!(d.probability("p", "b"), Some(0.25));
        assert_eq!(d.probability("p", "zzz"), None);
    }

    #[test]
    fn sibling_probabilities_shift_as_observations_accumulate() {
        let mut d = BranchDetector::new();
        d.observe_request("p", None);
        d.observe_request("a", Some("p"));
        assert_eq!(d.probability("p", "a"), Some(1.0));
        // Another parent trigger goes to b: a's share halves.
        d.observe_request("p", None);
        d.observe_request("b", Some("p"));
        assert_eq!(d.probability("p", "a"), Some(0.5));
        assert_eq!(d.probability("p", "b"), Some(0.5));
    }

    #[test]
    fn children_sorted_deterministically() {
        let mut d = BranchDetector::new();
        for _ in 0..10 {
            d.observe_request("p", None);
        }
        for _ in 0..6 {
            d.observe_request("big", Some("p"));
        }
        for _ in 0..2 {
            d.observe_request("small_a", Some("p"));
        }
        for _ in 0..2 {
            d.observe_request("small_b", Some("p"));
        }
        let kids = d.children("p");
        assert_eq!(kids[0].child, "big");
        assert_eq!(kids[1].child, "small_a", "ties break by name");
        assert_eq!(kids[2].child, "small_b");
        assert_eq!(kids[0].hits, 6);
    }

    #[test]
    fn roots_are_functions_never_seen_as_children() {
        let mut d = BranchDetector::new();
        d.observe_request("root", None);
        d.observe_request("mid", Some("root"));
        d.observe_request("leaf", Some("mid"));
        assert_eq!(d.roots(), vec!["root".to_string()]);
        assert_eq!(d.observed_functions(), 3);
    }

    #[test]
    fn unknown_parent_yields_empty() {
        let d = BranchDetector::new();
        assert!(d.children("ghost").is_empty());
        assert_eq!(d.probability("ghost", "x"), None);
        assert!(d.roots().is_empty());
    }

    #[test]
    fn windowed_smoothing_tracks_drift() {
        let mut d = BranchDetector::with_alpha(0.5);
        // Window 1: p -> a 100%.
        for _ in 0..10 {
            d.observe_request("p", None);
            d.observe_request("a", Some("p"));
        }
        d.roll_window();
        assert_eq!(d.smoothed_probability("p", "a"), Some(1.0));
        // Window 2: p -> b 100%; a's smoothed value decays toward 0.
        for _ in 0..10 {
            d.observe_request("p", None);
            d.observe_request("b", Some("p"));
        }
        d.roll_window();
        let a = d.smoothed_probability("p", "a").unwrap();
        let b = d.smoothed_probability("p", "b").unwrap();
        assert!((a - 0.5).abs() < 1e-9, "a decayed: {a}");
        assert!(b > 0.4, "b rising: {b}");
        // Raw ratio averages the two behaviours.
        assert_eq!(d.probability("p", "a"), Some(0.5));
    }

    #[test]
    fn smoothed_falls_back_to_raw_before_first_window() {
        let mut d = BranchDetector::new();
        d.observe_request("p", None);
        d.observe_request("a", Some("p"));
        assert_eq!(d.smoothed_probability("p", "a"), Some(1.0));
    }

    #[test]
    fn empty_window_rolls_are_noops() {
        let mut d = BranchDetector::new();
        d.roll_window();
        d.observe_request("p", None);
        d.observe_request("a", Some("p"));
        d.roll_window();
        d.roll_window(); // no new observations: must not dilute
        assert_eq!(d.smoothed_probability("p", "a"), Some(1.0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn probabilities_of_children_sum_to_at_most_one_for_xor_traffic(
            outcomes in proptest::collection::vec(0usize..4, 1..200)
        ) {
            // XOR traffic: each parent trigger invokes exactly one child.
            let mut d = BranchDetector::new();
            for &o in &outcomes {
                d.observe_request("p", None);
                d.observe_request(&format!("c{o}"), Some("p"));
            }
            let total: f64 = d.children("p").iter().map(|e| e.probability).sum();
            prop_assert!((total - 1.0).abs() < 1e-9, "sum {total}");
        }

        #[test]
        fn hits_never_exceed_parent_requests_for_xor_traffic(
            outcomes in proptest::collection::vec(0usize..3, 1..100)
        ) {
            let mut d = BranchDetector::new();
            for &o in &outcomes {
                d.observe_request("p", None);
                d.observe_request(&format!("c{o}"), Some("p"));
            }
            for edge in d.children("p") {
                prop_assert!(edge.hits <= outcomes.len() as u64);
                prop_assert!(edge.probability >= 0.0 && edge.probability <= 1.0);
            }
        }
    }
}
