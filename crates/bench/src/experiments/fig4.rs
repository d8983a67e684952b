//! Figure 4: cascading cold starts with Knative and OpenWhisk (emulated).
//!
//! Depth 1–5 linear chains, cold condition. Both open-source platforms
//! show the same linearly increasing cold-start latency with even more
//! overhead than the cloud services, and OpenWhisk's limited warm pool
//! produces a "sudden increase in cold start latency for chain length 5".

use crate::harness::{cold_runs, mean, Experiment, Finding, COLD_SEED_BASE};
use xanadu_baselines::{baseline_platform, BaselineKind};
use xanadu_chain::{linear_chain, FunctionSpec};
use xanadu_simcore::report::{fmt_f64, render_series, Table};
use xanadu_simcore::stats::linear_regression;

const TRIGGERS: u64 = 10;

/// Runs the experiment.
pub fn run() -> Experiment {
    let mut output = String::new();
    let mut findings = Vec::new();
    let mut curves = Vec::new();

    for kind in [BaselineKind::Knative, BaselineKind::OpenWhisk] {
        let mut table = Table::new(
            &format!("Figure 4 — {kind} linear chains (500ms functions)"),
            &["depth", "cold overhead (s)"],
        );
        let mut points = Vec::new();
        for depth in 1..=5usize {
            let dag = linear_chain("fig4", depth, &FunctionSpec::new("f").service_ms(500.0))
                .expect("valid");
            let (runs, _) = cold_runs(
                &|s| baseline_platform(kind, s),
                &dag,
                TRIGGERS,
                COLD_SEED_BASE,
            );
            let overhead_s = mean(runs.iter().map(|r| r.overhead.as_secs_f64()));
            points.push((depth as f64, overhead_s));
            table.row(&[&depth.to_string(), &fmt_f64(overhead_s, 2)]);
        }
        output.push_str(&table.render());
        output.push_str(&render_series(kind.label(), &points, "depth", "overhead_s"));
        curves.push((kind, points));
    }

    for (kind, points) in &curves {
        let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
        let fit = linear_regression(&xs, &ys).expect("fit");
        findings.push(Finding::new(
            format!("{kind}: linearly increasing cold-start latency"),
            format!("R² = {}", fmt_f64(fit.r_squared, 4)),
            fit.r_squared > 0.97,
        ));
    }

    // OSS platforms heavier than the cloud services (compare depth-5
    // against the ASF number of fig3, re-measured here for independence).
    let (asf_runs, _) = cold_runs(
        &|s| baseline_platform(BaselineKind::AwsStepFunctions, s),
        &linear_chain("fig4", 5, &FunctionSpec::new("f").service_ms(500.0)).expect("valid"),
        TRIGGERS,
        COLD_SEED_BASE,
    );
    let asf5 = mean(asf_runs.iter().map(|r| r.overhead.as_secs_f64()));
    let knative5 = curves[0].1[4].1;
    let openwhisk5 = curves[1].1[4].1;
    findings.push(Finding::new(
        "open-source platforms show even more overhead than ASF/ADF",
        format!(
            "knative {}s, openwhisk {}s vs asf {}s at depth 5",
            fmt_f64(knative5, 1),
            fmt_f64(openwhisk5, 1),
            fmt_f64(asf5, 1)
        ),
        knative5 > asf5 * 3.0 && openwhisk5 > asf5 * 3.0,
    ));

    // OpenWhisk pool jump at depth 5: the depth-5 marginal overhead
    // exceeds the average of depths 1-4.
    let ow = &curves[1].1;
    let marginal5 = ow[4].1 - ow[3].1;
    let avg_marginal = ow[3].1 / 4.0;
    findings.push(Finding::new(
        "OpenWhisk's limited warm pool causes a sudden increase at chain length 5",
        format!(
            "marginal depth-5 overhead {}s vs {}s average per hop",
            fmt_f64(marginal5, 2),
            fmt_f64(avg_marginal, 2)
        ),
        marginal5 > avg_marginal + 0.4,
    ));

    Experiment {
        id: "fig4",
        title: "Knative & OpenWhisk cascading cold starts (emulated)",
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
