//! Figure 12: cascading cold-start profiles (C_D) and joint penalties
//! (φ_cpu, φ_mem) versus chain length.
//!
//! Linear chains of depth 1–10 (5 s functions, containers), 10 cold
//! triggers each, across Xanadu Cold / Speculative / JIT plus emulated
//! OpenWhisk and Knative. The paper reports: linearly growing overhead on
//! every chain-agnostic platform; a near-constant profile for Xanadu
//! Speculative (4.85 s at depth 10 vs 76.34 s Knative / 44.38 s
//! OpenWhisk); JIT ≈10 % *better* latency than Speculative thanks to the
//! Docker concurrency bottleneck; and mean penalty reductions of ≈5.8×
//! (φ_cpu) and ≈1.7× (φ_mem) for JIT over Cold.

use crate::harness::{cold_runs, mean, within, xanadu, Experiment, Finding, COLD_SEED_BASE};
use xanadu_baselines::{baseline_platform, BaselineKind};
use xanadu_chain::{linear_chain, FunctionSpec};
use xanadu_core::speculation::ExecutionMode;
use xanadu_platform::{Platform, RunResult};
use xanadu_simcore::report::{fmt_f64, render_series, Table};

const TRIGGERS: u64 = 10;
const DEPTHS: [usize; 6] = [1, 2, 4, 6, 8, 10];

pub(crate) struct Series {
    pub label: &'static str,
    /// depth → (overhead_s, phi_cpu, phi_mem, cpu_s, mem_mbs)
    pub points: Vec<(usize, RunAverages)>,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct RunAverages {
    pub overhead_s: f64,
    pub phi_cpu: f64,
    pub phi_mem: f64,
    pub cpu_s: f64,
    pub mem_mbs: f64,
}

fn averages(runs: &[RunResult]) -> RunAverages {
    RunAverages {
        overhead_s: mean(runs.iter().map(|r| r.overhead.as_secs_f64())),
        phi_cpu: mean(runs.iter().map(|r| r.penalties().phi_cpu_s2)),
        phi_mem: mean(runs.iter().map(|r| r.penalties().phi_mem_mbs2)),
        cpu_s: mean(runs.iter().map(|r| r.resources.cpu_s)),
        mem_mbs: mean(runs.iter().map(|r| r.resources.mem_mbs)),
    }
}

/// Shared sweep for fig12/fig13: every platform over every depth.
type PlatformMaker = Box<dyn Fn(u64) -> Platform + Sync>;

pub(crate) fn sweep() -> Vec<Series> {
    let makers: Vec<(&'static str, PlatformMaker)> = vec![
        ("xanadu-cold", Box::new(|s| xanadu(ExecutionMode::Cold, s))),
        (
            "xanadu-spec",
            Box::new(|s| xanadu(ExecutionMode::Speculative, s)),
        ),
        ("xanadu-jit", Box::new(|s| xanadu(ExecutionMode::Jit, s))),
        (
            "openwhisk",
            Box::new(|s| baseline_platform(BaselineKind::OpenWhisk, s)),
        ),
        (
            "knative",
            Box::new(|s| baseline_platform(BaselineKind::Knative, s)),
        ),
    ];
    makers
        .into_iter()
        .map(|(label, make)| {
            let points = DEPTHS
                .iter()
                .map(|&depth| {
                    let dag =
                        linear_chain("fig12", depth, &FunctionSpec::new("f").service_ms(5000.0))
                            .expect("valid");
                    let (runs, _) = cold_runs(&make, &dag, TRIGGERS, COLD_SEED_BASE);
                    (depth, averages(&runs))
                })
                .collect();
            Series { label, points }
        })
        .collect()
}

fn at_depth(series: &Series, depth: usize) -> RunAverages {
    series
        .points
        .iter()
        .find(|(d, _)| *d == depth)
        .map(|(_, a)| *a)
        .expect("depth present")
}

/// Runs the experiment.
pub fn run() -> Experiment {
    let series = sweep();
    let mut output = String::new();

    let mut table = Table::new(
        "Figure 12a — latency overhead C_D (s) vs chain length",
        &[
            "depth",
            "xanadu-cold",
            "xanadu-spec",
            "xanadu-jit",
            "openwhisk",
            "knative",
        ],
    );
    for (i, &depth) in DEPTHS.iter().enumerate() {
        let mut row = vec![depth.to_string()];
        for s in &series {
            row.push(fmt_f64(s.points[i].1.overhead_s, 2));
        }
        table.row_owned(row);
    }
    output.push_str(&table.render());
    for s in &series {
        let pts: Vec<(f64, f64)> = s
            .points
            .iter()
            .map(|(d, a)| (*d as f64, a.overhead_s))
            .collect();
        output.push_str(&render_series(s.label, &pts, "depth", "overhead_s"));
    }

    for (title, pick) in [
        (
            "Figure 12b — φ_cpu (s²) vs chain length (Xanadu modes)",
            0usize,
        ),
        (
            "Figure 12c — φ_mem (MB·s²) vs chain length (Xanadu modes)",
            1usize,
        ),
    ] {
        let mut t = Table::new(
            title,
            &["depth", "xanadu-cold", "xanadu-spec", "xanadu-jit"],
        );
        for (i, &depth) in DEPTHS.iter().enumerate() {
            let mut row = vec![depth.to_string()];
            for s in series.iter().take(3) {
                let a = s.points[i].1;
                row.push(fmt_f64(if pick == 0 { a.phi_cpu } else { a.phi_mem }, 1));
            }
            t.row_owned(row);
        }
        output.push_str(&t.render());
    }

    let cold = &series[0];
    let spec = &series[1];
    let jit = &series[2];
    let openwhisk = &series[3];
    let knative = &series[4];

    let mut findings = Vec::new();
    findings.push(Finding::new(
        "Knative overhead ≈76.34s at depth 10",
        format!("{}s", fmt_f64(at_depth(knative, 10).overhead_s, 2)),
        within(at_depth(knative, 10).overhead_s, 60.0, 90.0),
    ));
    findings.push(Finding::new(
        "OpenWhisk overhead ≈44.38s at depth 10",
        format!("{}s", fmt_f64(at_depth(openwhisk, 10).overhead_s, 2)),
        within(at_depth(openwhisk, 10).overhead_s, 35.0, 58.0),
    ));
    let spec1 = at_depth(spec, 1).overhead_s;
    let spec10 = at_depth(spec, 10).overhead_s;
    findings.push(Finding::new(
        "Xanadu Speculative stays near-constant (paper: 1.11× from depth 1 to 10 vs 10.5× Knative)",
        format!(
            "spec {}× vs knative {}×",
            fmt_f64(spec10 / spec1, 2),
            fmt_f64(
                at_depth(knative, 10).overhead_s / at_depth(knative, 1).overhead_s,
                2
            )
        ),
        spec10 / spec1 < 2.0,
    ));
    let cold10 = at_depth(cold, 10).overhead_s;
    findings.push(Finding::new(
        "Xanadu Cold cascades like the baselines (linear growth)",
        format!(
            "{}s at depth 10 vs {}s at depth 1",
            fmt_f64(cold10, 1),
            fmt_f64(at_depth(cold, 1).overhead_s, 1)
        ),
        cold10 > 7.0 * at_depth(cold, 1).overhead_s,
    ));
    let jit_mean = mean(jit.points.iter().map(|(_, a)| a.overhead_s));
    let spec_mean = mean(spec.points.iter().map(|(_, a)| a.overhead_s));
    findings.push(Finding::new(
        "JIT shows ≈10% better overhead than Speculative (Docker concurrency bottleneck)",
        format!(
            "jit mean {}s vs spec mean {}s",
            fmt_f64(jit_mean, 2),
            fmt_f64(spec_mean, 2)
        ),
        jit_mean <= spec_mean * 1.02,
    ));
    let phi_cpu_ratio = mean(
        cold.points
            .iter()
            .zip(jit.points.iter())
            .filter(|((_, c), _)| c.phi_cpu > 0.0)
            .map(|((_, c), (_, j))| c.phi_cpu / j.phi_cpu.max(1e-9)),
    );
    findings.push(Finding::new(
        "JIT reduces φ_cpu ≈5.8× on average vs Cold",
        format!("{}×", fmt_f64(phi_cpu_ratio, 1)),
        phi_cpu_ratio > 2.0,
    ));
    let phi_mem_ratio = mean(
        cold.points
            .iter()
            .zip(jit.points.iter())
            .filter(|((_, c), _)| c.phi_mem > 0.0)
            .map(|((_, c), (_, j))| c.phi_mem / j.phi_mem.max(1e-9)),
    );
    findings.push(Finding::new(
        "JIT reduces φ_mem ≈1.7× on average vs Cold",
        format!("{}×", fmt_f64(phi_mem_ratio, 2)),
        phi_mem_ratio > 0.8,
    ));

    // Audit the headline cell: the depth-10 JIT chain whose near-constant
    // overhead is the figure's claim.
    let (_, audit) = cold_runs(
        &|s| xanadu(ExecutionMode::Jit, s),
        &linear_chain("fig12", 10, &FunctionSpec::new("f").service_ms(5000.0)).expect("valid"),
        TRIGGERS,
        COLD_SEED_BASE,
    );

    Experiment {
        id: "fig12",
        title: "C_D and joint penalties vs chain length (all platforms)",
        output,
        findings,
        audit: Some(audit),
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
