//! Figure 16: impact of the sandboxing environment at depth 10, with and
//! without speculative deployment.
//!
//! Linear chains of depth 10 with 5000 ms function lifetimes at each
//! isolation level. The paper highlights that isolate-based sandboxes
//! with speculative deployment show an end-to-end overhead of only
//! ≈1289 ms — "a mere 2.5 % increase in end-to-end latency" — making
//! lightweight sandboxes plus pre-deployment ideal for latency-sensitive
//! workloads.

use crate::harness::{
    cold_runs, mean, mean_end_to_end_ms, within, xanadu, Experiment, Finding, COLD_SEED_BASE,
};
use xanadu_chain::{linear_chain, FunctionSpec, IsolationLevel};
use xanadu_core::speculation::ExecutionMode;
use xanadu_simcore::report::{fmt_f64, Table};

const TRIGGERS: u64 = 8;
const DEPTH: usize = 10;

/// Runs the experiment.
pub fn run() -> Experiment {
    let mut table = Table::new(
        "Figure 16 — depth-10 chains (5000ms functions) per isolation level",
        &[
            "isolation",
            "cold overhead (ms)",
            "speculative overhead (ms)",
            "speculative overhead %",
        ],
    );
    let mut results = std::collections::HashMap::new();
    for level in IsolationLevel::ALL {
        let dag = linear_chain(
            "fig16",
            DEPTH,
            &FunctionSpec::new("f").service_ms(5000.0).isolation(level),
        )
        .expect("valid");
        let (cold, _) = cold_runs(
            &|s| xanadu(ExecutionMode::Cold, s),
            &dag,
            TRIGGERS,
            COLD_SEED_BASE,
        );
        let (spec, _) = cold_runs(
            &|s| xanadu(ExecutionMode::Speculative, s),
            &dag,
            TRIGGERS,
            COLD_SEED_BASE,
        );
        let cold_overhead = mean(cold.iter().map(|r| r.overhead.as_millis_f64()));
        let spec_overhead = mean(spec.iter().map(|r| r.overhead.as_millis_f64()));
        let spec_total = mean_end_to_end_ms(&spec);
        let pct = spec_overhead / spec_total * 100.0;
        results.insert(level, (cold_overhead, spec_overhead, pct));
        table.row(&[
            level.as_str(),
            &fmt_f64(cold_overhead, 0),
            &fmt_f64(spec_overhead, 0),
            &format!("{}%", fmt_f64(pct, 2)),
        ]);
    }
    let output = table.render();

    let (_, iso_spec, iso_pct) = results[&IsolationLevel::Isolate];
    let (cont_cold, cont_spec, _) = results[&IsolationLevel::Container];

    let mut findings = Vec::new();
    findings.push(Finding::new(
        "isolates + speculation: end-to-end overhead ≈1289ms at depth 10",
        format!("{}ms", fmt_f64(iso_spec, 0)),
        within(iso_spec, 700.0, 1800.0),
    ));
    findings.push(Finding::new(
        "that is ≈2.5% of end-to-end latency",
        format!("{}%", fmt_f64(iso_pct, 2)),
        within(iso_pct, 1.0, 4.0),
    ));
    findings.push(Finding::new(
        "speculation collapses the container cascade to ≈one cold start",
        format!("{}ms → {}ms", fmt_f64(cont_cold, 0), fmt_f64(cont_spec, 0)),
        cont_spec < cont_cold / 5.0,
    ));
    findings.push(Finding::new(
        "lightweight sandboxes + pre-deployment are best for latency-sensitive work",
        "isolate speculative overhead is the lowest cell of the table",
        IsolationLevel::ALL
            .iter()
            .all(|l| results[&IsolationLevel::Isolate].1 <= results[l].1),
    ));

    // Audit the headline cell: isolate sandboxes with speculation, where
    // pre-deploys should land on time and waste should stay near zero.
    let audit_dag = linear_chain(
        "fig16",
        DEPTH,
        &FunctionSpec::new("f")
            .service_ms(5000.0)
            .isolation(IsolationLevel::Isolate),
    )
    .expect("valid");
    let (_, audit) = cold_runs(
        &|s| xanadu(ExecutionMode::Speculative, s),
        &audit_dag,
        TRIGGERS,
        COLD_SEED_BASE,
    );

    Experiment {
        id: "fig16",
        title: "Sandboxing impact at depth 10 (cold vs speculative)",
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
