//! Observability export guarantees: byte-identical trace/metrics exports
//! across harness thread counts and plan-cache settings, unchanged report
//! bytes when no observer is attached, and schema-valid export documents
//! (the same schemas CI checks with `xanadu validate`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use xanadu::prelude::*;
use xanadu_platform::export::{chrome_trace_string, metrics_json_string, validate_schema};
use xanadu_platform::timeline::Trace;

const TRACE_SCHEMA: &str = include_str!("../docs/schemas/trace.schema.json");
const METRICS_SCHEMA: &str = include_str!("../docs/schemas/metrics.schema.json");

/// The standard observability workload: a depth-4 JIT chain under heavy
/// fault injection with a metrics registry attached. Returns the two
/// export strings `(chrome_trace, metrics_json)`.
fn probe(seed: u64, plan_cache: bool) -> (String, String) {
    let dag = linear_chain("probe", 4, &FunctionSpec::new("f").service_ms(1200.0)).unwrap();
    let config = PlatformConfig::builder()
        .for_mode(ExecutionMode::Jit, seed)
        .plan_cache(plan_cache)
        .faults(FaultConfig::with_rate(0.8, 0xB0B + seed))
        .build()
        .unwrap();
    let mut platform = Platform::new(config);
    let registry = platform.attach_observer(MetricsRegistry::new());
    platform.deploy(dag).unwrap();
    let mut requests = Vec::new();
    for i in 0..4u64 {
        let id = platform
            .trigger_at("probe", SimTime::from_secs(i * 90))
            .unwrap();
        requests.push(id);
    }
    platform.run_until_idle();
    let traces: Vec<(u64, &Trace)> = requests
        .iter()
        .filter_map(|&id| platform.trace(id).map(|t| (id, t)))
        .collect();
    (
        chrome_trace_string(&traces),
        metrics_json_string(&registry.snapshot()),
    )
}

#[test]
fn exports_are_byte_identical_across_jobs_widths() {
    const SEEDS: u64 = 8;
    // Serial sweep.
    let sequential: Vec<(String, String)> = (0..SEEDS).map(|i| probe(100 + i, true)).collect();
    // The same sweep raced across 8 threads pulling from a shared queue.
    let next = AtomicUsize::new(0);
    let results = Mutex::new(vec![(String::new(), String::new()); SEEDS as usize]);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= SEEDS as usize {
                    return;
                }
                let out = probe(100 + i as u64, true);
                results.lock().unwrap()[i] = out;
            });
        }
    });
    let parallel = results.into_inner().unwrap();
    for (i, (seq, par)) in sequential.iter().zip(parallel.iter()).enumerate() {
        assert_eq!(
            seq,
            par,
            "exports for seed {} differ across jobs widths",
            100 + i
        );
    }
}

#[test]
fn exports_are_byte_identical_with_plan_cache_on_and_off() {
    for seed in [3u64, 17, 40] {
        let cached = probe(seed, true);
        let uncached = probe(seed, false);
        assert_eq!(
            cached.0, uncached.0,
            "plan cache changed the trace export at seed {seed}"
        );
        assert_eq!(
            cached.1, uncached.1,
            "plan cache changed the metrics export at seed {seed}"
        );
    }
}

/// Metrics live only in the registry an observer handle reads back: the
/// report carries no metrics key, observed or not, and attaching the
/// registry changes no report byte.
#[test]
fn unobserved_reports_serialize_without_metrics_and_observers_only_add_them() {
    let run = |attach: bool| {
        let dag = linear_chain("r", 3, &FunctionSpec::new("f").service_ms(400.0)).unwrap();
        let mut platform = Platform::new(PlatformConfig::for_mode(ExecutionMode::Jit, 11));
        let registry = attach.then(|| platform.attach_observer(MetricsRegistry::new()));
        platform.deploy(dag).unwrap();
        platform.trigger_at("r", SimTime::ZERO).unwrap();
        platform.run_until_idle();
        let report = serde_json::to_string(&platform.finish()).unwrap();
        (report, registry.map(|r| r.snapshot()))
    };
    let (bare, none) = run(false);
    assert!(none.is_none());
    assert!(
        !bare.contains("\"metrics\""),
        "unobserved report grew a metrics key"
    );
    let (observed, registry) = run(true);
    assert_eq!(observed, bare, "observer presence changed the report");
    let registry = registry.expect("registry handle");
    assert_eq!(registry.counter("requests.completed"), 1);
}

#[test]
fn exports_validate_against_the_checked_in_schemas() {
    let (trace, metrics) = probe(7, true);
    let trace: serde_json::Value = serde_json::from_str(&trace).unwrap();
    let schema: serde_json::Value = serde_json::from_str(TRACE_SCHEMA).unwrap();
    validate_schema(&trace, &schema).expect("trace export matches trace.schema.json");
    let events = trace.get("traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty(), "trace export is empty");

    let metrics: serde_json::Value = serde_json::from_str(&metrics).unwrap();
    let schema: serde_json::Value = serde_json::from_str(METRICS_SCHEMA).unwrap();
    validate_schema(&metrics, &schema).expect("metrics export matches metrics.schema.json");
}
