//! # xanadu-profiler
//!
//! The function-profiling layer of Xanadu (§3.2.2 and §3.3 of the paper).
//!
//! Xanadu profiles the runtime characteristics of workflow functions —
//! cold-start time and warm-start runtime — with
//! exponential moving averages, and for implicit chains also measures the
//! parent→child *invocation delay*. Those profiles feed the JIT deployment
//! planner in `xanadu-core`.
//!
//! This crate provides:
//!
//! * [`Ema`] — the exponential moving average primitive, with the paper's
//!   fixed-interval update semantics (§3.1).
//! * [`MetricsEngine`] — per-function profiles (cold start, warm runtime)
//!   and per-edge invoke-delay estimates.
//! * [`BranchDetector`] — Algorithm 3: learns the workflow branch tree and
//!   its conditional probabilities from dispatched requests carrying a
//!   parent-function header.
//! * [`RequestCorrelator`] — the chronological parent↔child request
//!   matching (§3.2.2) used to infer invocation delays for implicit
//!   chains.
//!
//! Every map here is keyed by function name and probed with a borrowed
//! `&str`; a key is allocated only the first time its name is seen, so
//! steady-state observations allocate nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod correlate;
mod ema;
mod metrics;

pub use branch::{BranchDetector, LearnedEdge};
pub use correlate::RequestCorrelator;
pub use ema::Ema;
pub use metrics::{FunctionProfile, MetricsEngine};

use std::collections::HashMap;

/// Applies `update` to the value under `name`, first inserting a fresh
/// `init()` under an owned copy of `name` when there is none. A present
/// key costs one lookup and no allocation.
fn update_named<V>(
    map: &mut HashMap<String, V>,
    name: &str,
    init: impl FnOnce() -> V,
    update: impl FnOnce(&mut V),
) {
    match map.get_mut(name) {
        Some(value) => update(value),
        None => {
            let mut value = init();
            update(&mut value);
            map.insert(name.to_string(), value);
        }
    }
}
