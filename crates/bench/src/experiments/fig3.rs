//! Figure 3: cascading cold starts on AWS Step Functions and Azure
//! Durable Functions (emulated).
//!
//! Depth 1–5 linear chains of 500 ms functions, run cold and warm. The
//! paper reports strongly linear cold-overhead growth (R² = 0.993 on ASF,
//! 0.953 on ADF), cold overhead averaging 48.5 % (ASF) / 41.2 % (ADF) of
//! total runtime, and 13.2 % / 13.8 % warm.

use crate::harness::{cold_runs, mean, within, Experiment, Finding, COLD_SEED_BASE};
use xanadu_baselines::{baseline_platform, BaselineKind};
use xanadu_chain::{linear_chain, FunctionSpec, WorkflowDag};
use xanadu_simcore::report::{fmt_f64, render_series, Table};
use xanadu_simcore::stats::linear_regression;
use xanadu_simcore::{SimDuration, SimTime};

const TRIGGERS: u64 = 8;

fn chain(depth: usize) -> WorkflowDag {
    linear_chain("fig3", depth, &FunctionSpec::new("f").service_ms(500.0)).expect("valid")
}

/// Warm-condition run: trigger twice within keep-alive, measure the second.
fn warm_fraction(kind: BaselineKind, depth: usize, seed: u64) -> f64 {
    let mut p = baseline_platform(kind, seed);
    p.deploy(chain(depth)).expect("deploy");
    p.trigger_at("fig3", SimTime::ZERO).expect("trigger");
    p.trigger_at("fig3", SimTime::ZERO + SimDuration::from_mins(3))
        .expect("trigger");
    p.run_until_idle();
    let warm = &p.results()[1];
    warm.overhead.as_millis_f64() / warm.end_to_end.as_millis_f64()
}

/// Runs the experiment.
pub fn run() -> Experiment {
    let mut output = String::new();
    let mut findings = Vec::new();

    for kind in [
        BaselineKind::AwsStepFunctions,
        BaselineKind::AzureDurableFunctions,
    ] {
        let mut table = Table::new(
            &format!("Figure 3 — {kind} linear chains (500ms functions)"),
            &[
                "depth",
                "cold overhead (ms)",
                "cold fraction",
                "warm fraction",
            ],
        );
        let mut points = Vec::new();
        let mut cold_fractions = Vec::new();
        let mut warm_fractions = Vec::new();
        for depth in 1..=5usize {
            let dag = chain(depth);
            let (runs, _) = cold_runs(
                &|s| baseline_platform(kind, s),
                &dag,
                TRIGGERS,
                COLD_SEED_BASE,
            );
            let overhead = mean(runs.iter().map(|r| r.overhead.as_millis_f64()));
            let frac = mean(
                runs.iter()
                    .map(|r| r.overhead.as_millis_f64() / r.end_to_end.as_millis_f64()),
            );
            let wfrac = warm_fraction(kind, depth, 77 + depth as u64);
            cold_fractions.push(frac);
            warm_fractions.push(wfrac);
            points.push((depth as f64, overhead));
            table.row(&[
                &depth.to_string(),
                &fmt_f64(overhead, 0),
                &fmt_f64(frac, 3),
                &fmt_f64(wfrac, 3),
            ]);
        }
        output.push_str(&table.render());
        output.push_str(&render_series(
            &format!("{kind}-cold"),
            &points,
            "depth",
            "overhead_ms",
        ));

        let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
        let fit = linear_regression(&xs, &ys).expect("fit");
        let (claim_r2, claimed_cold, claimed_warm) = match kind {
            BaselineKind::AwsStepFunctions => (0.993, 48.5, 13.2),
            _ => (0.953, 41.2, 13.8),
        };
        findings.push(Finding::new(
            format!("{kind}: strong linear growth (paper R² = {claim_r2})"),
            format!("R² = {}", fmt_f64(fit.r_squared, 4)),
            fit.r_squared > 0.95,
        ));
        let mean_cold = mean(cold_fractions.iter().copied()) * 100.0;
        findings.push(Finding::new(
            format!("{kind}: cold overhead ≈{claimed_cold}% of total runtime"),
            format!("{}%", fmt_f64(mean_cold, 1)),
            within(mean_cold, claimed_cold - 15.0, claimed_cold + 15.0),
        ));
        let mean_warm = mean(warm_fractions.iter().copied()) * 100.0;
        findings.push(Finding::new(
            format!("{kind}: warm overhead ≈{claimed_warm}% of total runtime"),
            format!("{}%", fmt_f64(mean_warm, 1)),
            within(mean_warm, 5.0, 25.0),
        ));
    }

    Experiment {
        id: "fig3",
        title: "ASF & ADF cascading cold starts (emulated)",
        output,
        findings,
        // Baseline emulations only — no Xanadu speculation to audit.
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
