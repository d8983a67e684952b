//! Analysis-tier guarantees: the critical-path decomposition sums exactly
//! to the end-to-end latency for every audited request — even under heavy
//! fault injection — and the audit JSON meets the same determinism bar as
//! the raw exports: byte-identical across harness thread widths and
//! plan-cache settings, and valid against the checked-in schema.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use proptest::prelude::*;
use xanadu::prelude::*;
use xanadu_platform::export::{audit_json_string, validate_schema};
use xanadu_platform::timeline::Trace;

const AUDIT_SCHEMA: &str = include_str!("../docs/schemas/audit.schema.json");

/// The standard observability workload (mirrors `tests/observability.rs`):
/// a depth-4 JIT chain under heavy fault injection. Returns the audit
/// built from its traces plus the rendered audit JSON.
fn audit_probe(seed: u64, plan_cache: bool) -> (Audit, String) {
    let dag = linear_chain("probe", 4, &FunctionSpec::new("f").service_ms(1200.0)).unwrap();
    let config = PlatformConfig::builder()
        .for_mode(ExecutionMode::Jit, seed)
        .plan_cache(plan_cache)
        .faults(FaultConfig::with_rate(0.8, 0xB0B + seed))
        .build()
        .unwrap();
    let mut platform = Platform::new(config);
    platform.deploy(dag).unwrap();
    let mut requests = Vec::new();
    for i in 0..4u64 {
        let id = platform
            .trigger_at("probe", SimTime::from_secs(i * 90))
            .unwrap();
        requests.push(id);
    }
    platform.run_until_idle();
    let traces: Vec<(u64, Trace)> = requests
        .iter()
        .filter_map(|&id| platform.trace(id).map(|t| (id, t.clone())))
        .collect();
    let audit = Audit::from_traces(&traces);
    let json = audit_json_string(&audit);
    (audit, json)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant: for every request of a chaos run, the
    /// exec + cold-wait + queue-wait + stall segments partition the
    /// request's [first-event, last-event] window with no gap or overlap.
    #[test]
    fn decomposition_sums_to_end_to_end_for_every_chaos_request(
        seed in 0u64..500,
        rate in 0.0f64..0.9,
        depth in 2usize..6,
    ) {
        let dag = linear_chain("chaos", depth, &FunctionSpec::new("f").service_ms(700.0))
            .unwrap();
        let config = PlatformConfig::builder()
            .for_mode(ExecutionMode::Jit, seed)
            .faults(FaultConfig::with_rate(rate, 0xC4A0 + seed))
            .build()
            .unwrap();
        let mut platform = Platform::new(config);
        platform.deploy(dag).unwrap();
        let mut requests = Vec::new();
        for i in 0..3u64 {
            let id = platform
                .trigger_at("chaos", SimTime::from_secs(i * 60))
                .unwrap();
            requests.push(id);
        }
        platform.run_until_idle();
        let mut audited = 0usize;
        for &id in &requests {
            let Some(trace) = platform.trace(id) else { continue };
            let audit = RequestAudit::from_trace(id, trace);
            prop_assert!(
                audit.decomposition_sums_to_end_to_end(),
                "request {id}: {} + {} + {} + {} != {} (seed {seed}, rate {rate}, depth {depth})",
                audit.exec_us,
                audit.cold_start_wait_us,
                audit.queue_wait_us,
                audit.stall_us,
                audit.end_to_end_us,
            );
            audited += 1;
        }
        prop_assert!(audited > 0, "chaos run produced no auditable traces");
    }
}

#[test]
fn audits_are_byte_identical_across_jobs_widths() {
    const SEEDS: u64 = 8;
    // Serial sweep.
    let sequential: Vec<String> = (0..SEEDS).map(|i| audit_probe(100 + i, true).1).collect();
    // The same sweep raced across 8 threads pulling from a shared queue.
    let next = AtomicUsize::new(0);
    let results = Mutex::new(vec![String::new(); SEEDS as usize]);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= SEEDS as usize {
                    return;
                }
                let out = audit_probe(100 + i as u64, true).1;
                results.lock().unwrap()[i] = out;
            });
        }
    });
    let parallel = results.into_inner().unwrap();
    for (i, (seq, par)) in sequential.iter().zip(parallel.iter()).enumerate() {
        assert_eq!(
            seq,
            par,
            "audit for seed {} differs across jobs widths",
            100 + i
        );
    }
}

#[test]
fn audits_are_byte_identical_with_plan_cache_on_and_off() {
    for seed in [3u64, 17, 40] {
        let cached = audit_probe(seed, true).1;
        let uncached = audit_probe(seed, false).1;
        assert_eq!(
            cached, uncached,
            "plan cache changed the audit at seed {seed}"
        );
    }
}

#[test]
fn chaos_audit_validates_against_the_checked_in_schema() {
    let (audit, json) = audit_probe(7, true);
    assert!(audit.summary.requests > 0, "probe audited no requests");
    let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
    let schema: serde_json::Value = serde_json::from_str(AUDIT_SCHEMA).unwrap();
    validate_schema(&doc, &schema).expect("audit export matches audit.schema.json");
}

#[test]
fn injected_p95_regression_is_flagged_and_equal_audits_pass() {
    let (baseline, _) = audit_probe(7, true);
    // Equal snapshots never regress.
    assert!(
        diff_audits(&baseline, &baseline, &DiffThresholds::default()).is_empty(),
        "an audit regressed against itself"
    );
    // Inflating the candidate's p95 past the threshold must be flagged.
    let mut candidate = baseline.clone();
    candidate.summary.end_to_end_ms.p95 *= 2.0;
    let regressions = diff_audits(&baseline, &candidate, &DiffThresholds::default());
    assert!(
        regressions
            .iter()
            .any(|r| r.path == "$.summary.end_to_end_ms.p95"),
        "doubled p95 not flagged: {regressions:?}"
    );
}
