//! Figure 13: CPU (C_R_cpu) and memory (C_R_mem) runtime cost profiles of
//! the Xanadu modes.
//!
//! Same sweep as Figure 12. The paper reports: Speculative deployment up
//! to ≈15.6 % more CPU-expensive and up to ≈250× more memory-expensive
//! than Cold; JIT only ≈0.9 % more CPU-expensive and ≈2.18× more
//! memory-expensive — "more than an order of magnitude cost improvement
//! compared to Xanadu Speculative".

use super::fig12::sweep;
use crate::harness::{cold_runs, mean, xanadu, Experiment, Finding, COLD_SEED_BASE};
use xanadu_chain::{linear_chain, FunctionSpec};
use xanadu_core::speculation::ExecutionMode;
use xanadu_simcore::report::{fmt_f64, Table};

/// Runs the experiment.
pub fn run() -> Experiment {
    let series = sweep();
    let cold = &series[0];
    let spec = &series[1];
    let jit = &series[2];

    let mut output = String::new();
    for (title, cpu) in [
        (
            "Figure 13a — C_R CPU cost (core-seconds before first use)",
            true,
        ),
        (
            "Figure 13b — C_R memory cost (MB·s held before first use)",
            false,
        ),
    ] {
        let mut t = Table::new(
            title,
            &["depth", "xanadu-cold", "xanadu-spec", "xanadu-jit"],
        );
        for i in 0..cold.points.len() {
            let depth = cold.points[i].0;
            let val = |a: &super::fig12::RunAverages| if cpu { a.cpu_s } else { a.mem_mbs };
            t.row_owned(vec![
                depth.to_string(),
                fmt_f64(val(&cold.points[i].1), 1),
                fmt_f64(val(&spec.points[i].1), 1),
                fmt_f64(val(&jit.points[i].1), 1),
            ]);
        }
        output.push_str(&t.render());
    }

    // Aggregate ratios over the deeper half of the sweep, where the
    // effects are pronounced.
    let deep = |s: &super::fig12::Series, f: &dyn Fn(&super::fig12::RunAverages) -> f64| {
        mean(s.points.iter().filter(|(d, _)| *d >= 4).map(|(_, a)| f(a)))
    };
    let cpu_cold = deep(cold, &|a| a.cpu_s);
    let cpu_spec = deep(spec, &|a| a.cpu_s);
    let cpu_jit = deep(jit, &|a| a.cpu_s);
    let mem_cold = deep(cold, &|a| a.mem_mbs);
    let mem_spec = deep(spec, &|a| a.mem_mbs);
    let mem_jit = deep(jit, &|a| a.mem_mbs);

    let mut findings = Vec::new();
    let spec_cpu_pct = (cpu_spec / cpu_cold - 1.0) * 100.0;
    findings.push(Finding::new(
        "Speculative CPU cost within ≈15.6% of Cold (provisioning dominates)",
        format!("+{}%", fmt_f64(spec_cpu_pct, 1)),
        spec_cpu_pct < 30.0,
    ));
    let jit_cpu_pct = (cpu_jit / cpu_cold - 1.0) * 100.0;
    findings.push(Finding::new(
        "JIT CPU cost ≈0.9% above Cold",
        format!(
            "{}{}%",
            if jit_cpu_pct >= 0.0 { "+" } else { "" },
            fmt_f64(jit_cpu_pct, 1)
        ),
        jit_cpu_pct.abs() < 10.0,
    ));
    let spec_mem_ratio = mem_spec / mem_cold.max(1e-9);
    findings.push(Finding::new(
        "Speculative memory cost up to ≈250× Cold (tail workers idle for the whole chain)",
        format!("{}×", fmt_f64(spec_mem_ratio, 0)),
        spec_mem_ratio > 50.0,
    ));
    let jit_mem_ratio = mem_jit / mem_cold.max(1e-9);
    findings.push(Finding::new(
        "JIT memory cost ≈2.18× Cold — an order of magnitude below Speculative",
        format!(
            "{}× Cold, {}× below Speculative",
            fmt_f64(jit_mem_ratio, 1),
            fmt_f64(spec_mem_ratio / jit_mem_ratio.max(1e-9), 0)
        ),
        jit_mem_ratio < spec_mem_ratio / 8.0,
    ));

    // Audit the cost-side headline: the depth-10 Speculative chain whose
    // up-front provisioning is what the wasted-deploy accounting measures.
    let (_, audit) = cold_runs(
        &|s| xanadu(ExecutionMode::Speculative, s),
        &linear_chain("fig13", 10, &FunctionSpec::new("f").service_ms(5000.0)).expect("valid"),
        10,
        COLD_SEED_BASE,
    );

    Experiment {
        id: "fig13",
        title: "C_R CPU & memory cost profiles of the Xanadu modes",
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
