//! Figure 7: runtime overhead of different isolation environments.
//!
//! Linear chains of depth 1–5 run cold at each isolation level. The paper
//! reports container-based chains exhibiting 2.5×–2.9× the overhead of
//! process- and isolate-based chains.

use crate::harness::{cold_runs, mean, within, xanadu, Experiment, Finding, COLD_SEED_BASE};
use xanadu_chain::{linear_chain, FunctionSpec, IsolationLevel};
use xanadu_core::speculation::ExecutionMode;
use xanadu_simcore::report::{fmt_f64, render_series, Table};

const TRIGGERS: u64 = 6;

/// Runs the experiment.
pub fn run() -> Experiment {
    let mut output = String::new();
    let mut findings = Vec::new();
    let mut depth5 = std::collections::HashMap::new();

    let mut table = Table::new(
        "Figure 7 — overhead (ms) vs chain length per isolation environment",
        &["depth", "isolate", "process", "container"],
    );
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut curves: Vec<(IsolationLevel, Vec<(f64, f64)>)> = Vec::new();
    for level in IsolationLevel::ALL {
        let mut points = Vec::new();
        for depth in 1..=5usize {
            let dag = linear_chain(
                "fig7",
                depth,
                &FunctionSpec::new("f").service_ms(500.0).isolation(level),
            )
            .expect("valid");
            let (runs, _) = cold_runs(
                &|s| xanadu(ExecutionMode::Cold, s),
                &dag,
                TRIGGERS,
                COLD_SEED_BASE,
            );
            let overhead = mean(runs.iter().map(|r| r.overhead.as_millis_f64()));
            points.push((depth as f64, overhead));
            if depth == 5 {
                depth5.insert(level, overhead);
            }
        }
        curves.push((level, points));
    }
    for depth in 1..=5usize {
        let mut row = vec![depth.to_string()];
        for (_, points) in &curves {
            row.push(fmt_f64(points[depth - 1].1, 0));
        }
        rows.push(row);
    }
    for row in rows {
        table.row_owned(row);
    }
    output.push_str(&table.render());
    for (level, points) in &curves {
        output.push_str(&render_series(
            level.as_str(),
            points,
            "depth",
            "overhead_ms",
        ));
    }

    let container = depth5[&IsolationLevel::Container];
    let process = depth5[&IsolationLevel::Process];
    let isolate = depth5[&IsolationLevel::Isolate];
    findings.push(Finding::new(
        "containers exhibit 2.5×–2.9× the overhead of processes",
        format!("{}×", fmt_f64(container / process, 2)),
        within(container / process, 2.3, 3.6),
    ));
    findings.push(Finding::new(
        "containers exhibit 2.5×–2.9× the overhead of isolates",
        format!("{}×", fmt_f64(container / isolate, 2)),
        within(container / isolate, 2.3, 3.9),
    ));
    findings.push(Finding::new(
        "overheads order isolate < process < container at every depth",
        "see table",
        (0..5).all(|i| {
            let iso = curves[0].1[i].1;
            let proc = curves[1].1[i].1;
            let cont = curves[2].1[i].1;
            iso < proc && proc < cont
        }),
    ));

    Experiment {
        id: "fig7",
        title: "Isolation environment overheads (isolate / process / container)",
        output,
        findings,
        // Cold-mode sweep: nothing is speculated, so the audit says little.
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
