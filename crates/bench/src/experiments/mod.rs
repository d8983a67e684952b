//! One module per paper table/figure, plus ablations.
//!
//! | id | artifact | module |
//! |----|----------|--------|
//! | `fig1` | Figure 1 — cascading cold starts, container chains | [`fig1`] |
//! | `fig3` | Figure 3 — ASF/ADF cold vs warm linear growth | [`fig3`] |
//! | `fig4` | Figure 4 — Knative/OpenWhisk cascades | [`fig4`] |
//! | `fig5` | Figure 5 — keep-alive reclamation probes | [`fig5`] |
//! | `fig6` | Figure 6 — lightly loaded workflow timeline | [`fig6`] |
//! | `fig7` | Figure 7 — isolation environment overheads | [`fig7`] |
//! | `fig9` | Figure 9 — MLP estimation stages | [`fig9`] |
//! | `tab1` | Table 1 — speculation under prediction misses | [`tab1`] |
//! | `fig12` | Figure 12 — C_D and φ vs chain length | [`fig12`] |
//! | `fig13` | Figure 13 — C_R CPU and memory cost profiles | [`fig13`] |
//! | `fig14` | Figure 14 — MLP convergence across random trees | [`fig14`] |
//! | `fig15` | Figure 15 — conditional chains scatter profiles | [`fig15`] |
//! | `fig16` | Figure 16 — sandboxing impact at depth 10 | [`fig16`] |
//! | `fig17` | Figure 17 — e-commerce & image pipeline case studies | [`fig17`] |
//! | `cluster` | placement-policy head-to-head on a multi-host cluster | [`cluster`] |
//! | `policies` | speculation-policy head-to-head (xanadu vs mpc vs rl) | [`policies`] |
//! | `abl-*` | ablations (aggressiveness, keep-alive, EMA, miss policy) | [`ablations`] |

pub mod ablations;
pub mod cluster;
pub mod fig1;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig9;
pub mod policies;
pub mod tab1;

use crate::harness::{run_indexed, Experiment};

/// A nullary experiment constructor, as listed in [`ALL_EXPERIMENTS`].
pub type ExperimentCtor = fn() -> Experiment;

/// The full suite as `(id, constructor)` pairs, papers first then
/// ablations. This single table drives [`run_by_id`], [`all`], and the
/// per-experiment timing in `xanadu-repro`.
pub const ALL_EXPERIMENTS: [(&str, ExperimentCtor); 23] = [
    ("fig1", fig1::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig9", fig9::run),
    ("tab1", tab1::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("fig15", fig15::run),
    ("fig16", fig16::run),
    ("fig17", fig17::run),
    ("cluster", cluster::run),
    ("policies", policies::run),
    ("abl-aggr", ablations::aggressiveness),
    ("abl-keepalive", ablations::keepalive),
    ("abl-ema", ablations::ema),
    ("abl-miss", ablations::miss_policy),
    ("abl-trace", ablations::fleet_trace),
    ("abl-hedge", ablations::hedging),
    ("abl-pool", ablations::pool_baseline),
];

/// Runs every experiment by id, or all of them for `"all"`. Unknown ids
/// yield `None`.
pub fn run_by_id(id: &str) -> Option<Vec<Experiment>> {
    let canonical = match id {
        "fig17a" | "fig17b" => "fig17",
        "all" => return Some(all()),
        other => other,
    };
    ALL_EXPERIMENTS
        .iter()
        .find(|(eid, _)| *eid == canonical)
        .map(|&(_, run)| vec![run()])
}

/// Every experiment, papers first then ablations.
///
/// Experiments are independent (each seeds its own platforms), so they
/// fan out across `harness::jobs()` threads; results come back in table
/// order, keeping the rendered output byte-identical to a serial run.
pub fn all() -> Vec<Experiment> {
    all_timed().into_iter().map(|(e, _)| e).collect()
}

/// Like [`all`], but pairs each experiment with the wall-clock time its
/// constructor took, in milliseconds. Timing is measured inside the
/// worker so it reflects the experiment itself, not queueing.
pub fn all_timed() -> Vec<(Experiment, f64)> {
    run_indexed(ALL_EXPERIMENTS.len(), |i| {
        let (_, run) = ALL_EXPERIMENTS[i];
        let start = std::time::Instant::now();
        let e = run();
        (e, start.elapsed().as_secs_f64() * 1000.0)
    })
}
