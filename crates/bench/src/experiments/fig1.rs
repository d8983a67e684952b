//! Figure 1: cascading cold-start overheads for a linear chain of
//! functions instantiated with containers.
//!
//! The paper's motivating figure: chain length 1–6, per-function runtimes
//! of 5 s and 500 ms; cold-start latency (provisioning + library setup +
//! process startup) grows linearly with chain length, reaching ≈46 % of
//! total workflow duration for 5 s functions at depth 6 and up to ≈90 %
//! for 500 ms functions.

use crate::harness::{
    cold_runs, mean_end_to_end_ms, mean_overhead_ms, within, xanadu, Experiment, Finding,
    COLD_SEED_BASE,
};
use xanadu_chain::{linear_chain, FunctionSpec, IsolationLevel};
use xanadu_core::speculation::ExecutionMode;
use xanadu_sandbox::profile::SandboxProfiles;
use xanadu_simcore::report::{fmt_f64, render_series, Table};
use xanadu_simcore::stats::linear_regression;

const TRIGGERS: u64 = 5;

/// Runs the experiment.
pub fn run() -> Experiment {
    let mut output = String::new();
    let mut findings = Vec::new();
    let mut fractions = Vec::new();
    let mut audit = None;

    for &(service_ms, label) in &[(5000.0, "5s functions"), (500.0, "500ms functions")] {
        let mut table = Table::new(
            &format!("Figure 1 — cold start overhead vs chain length ({label})"),
            &[
                "chain length",
                "overhead (s)",
                "end-to-end (s)",
                "overhead fraction",
            ],
        );
        let mut points = Vec::new();
        let mut last_fraction = 0.0;
        for depth in 1..=6usize {
            let dag = linear_chain(
                "fig1",
                depth,
                &FunctionSpec::new("f").service_ms(service_ms),
            )
            .expect("valid chain");
            let (runs, run_audit) = cold_runs(
                &|s| xanadu(ExecutionMode::Cold, s),
                &dag,
                TRIGGERS,
                COLD_SEED_BASE,
            );
            // Keep the deepest 500ms chain's audit — the figure's headline
            // (≈90% overhead share) case.
            audit = Some(run_audit);
            let overhead = mean_overhead_ms(&runs);
            let total = mean_end_to_end_ms(&runs);
            last_fraction = overhead / total;
            points.push((depth as f64, overhead / 1000.0));
            table.row(&[
                &depth.to_string(),
                &fmt_f64(overhead / 1000.0, 2),
                &fmt_f64(total / 1000.0, 2),
                &fmt_f64(last_fraction, 3),
            ]);
        }
        output.push_str(&table.render());
        output.push_str(&render_series(
            &format!("xanadu-cold-{label}"),
            &points,
            "depth",
            "overhead_s",
        ));
        fractions.push((service_ms, last_fraction));

        let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
        let fit = linear_regression(&xs, &ys).expect("fit");
        findings.push(Finding::new(
            format!("provisioning overhead grows linearly with chain length ({label})"),
            format!("R² = {}", fmt_f64(fit.r_squared, 4)),
            fit.r_squared > 0.98,
        ));
    }

    // Component breakdown (Figure 1 stacks environment provisioning,
    // library setup and process startup per chain hop).
    let profiles = SandboxProfiles::paper_defaults();
    let container = profiles.profile(IsolationLevel::Container);
    let mut breakdown = Table::new(
        "Figure 1 (inset) — per-hop container cold-start components",
        &["component", "mean latency (ms)", "share"],
    );
    let total_ms = container.mean_cold_start_ms();
    for (name, d) in [
        ("environment provisioning", &container.env_provision),
        ("library download & setup", &container.library_setup),
        ("process startup", &container.process_startup),
    ] {
        breakdown.row(&[
            name,
            &fmt_f64(d.mean_ms(), 0),
            &format!("{}%", fmt_f64(d.mean_ms() / total_ms * 100.0, 1)),
        ]);
    }
    output.push_str(&breakdown.render());
    findings.push(Finding::new(
        "environment provisioning dominates the cold-start breakdown",
        format!(
            "{}ms of {}ms total",
            fmt_f64(container.env_provision.mean_ms(), 0),
            fmt_f64(total_ms, 0)
        ),
        container.env_provision.mean_ms() > total_ms / 2.0,
    ));

    let frac_5s = fractions[0].1;
    let frac_500ms = fractions[1].1;
    findings.push(Finding::new(
        "cascading cold start ≈46% of workflow duration at depth 6 (5s functions)",
        format!("{}%", fmt_f64(frac_5s * 100.0, 1)),
        within(frac_5s, 0.30, 0.55),
    ));
    findings.push(Finding::new(
        "overhead rises to ≈90% for 500ms functions at depth 6",
        format!("{}%", fmt_f64(frac_500ms * 100.0, 1)),
        within(frac_500ms, 0.78, 0.95),
    ));
    findings.push(Finding::new(
        "short functions suffer a larger overhead share than long ones",
        format!(
            "{}% vs {}%",
            fmt_f64(frac_500ms * 100.0, 1),
            fmt_f64(frac_5s * 100.0, 1)
        ),
        frac_500ms > frac_5s,
    ));

    Experiment {
        id: "fig1",
        title: "Cascading cold start overheads, container linear chains",
        output,
        findings,
        audit,
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
