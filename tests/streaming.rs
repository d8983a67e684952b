//! Streaming telemetry against ground truth: on randomized chaos runs
//! the bounded-memory [`StreamingAudit`] must agree with the exact
//! [`Audit`] — counts and integer-microsecond totals exactly (both run
//! the same per-request fold and tally), wasted CPU and means to
//! accumulation noise, quantiles within one histogram bucket — and every
//! streaming export must be byte-identical at any `--shards` width.

use xanadu::prelude::*;
use xanadu_platform::export::{
    metrics_json_string, slo_json_string, streaming_json_string, validate_schema,
};
use xanadu_platform::shard::{replay_sharded_with, ShardOptions, ShardTelemetry, ShardWorkload};
use xanadu_platform::stream::latency_bucket;
use xanadu_platform::timeline::SpanTree;
use xanadu_platform::{
    Audit, ObserverHandle, SloConfig, StreamingAudit, StreamingConfig, StreamingSummary,
};
use xanadu_simcore::RngStream;

/// Relative-epsilon float comparison for sums the two audits accumulate
/// differently (wasted CPU: integer µs versus per-request `f64` ms;
/// means: bucket order versus sorted samples).
fn close(a: f64, b: f64, what: &str) {
    let tol = 1e-6 * a.abs().max(b.abs()).max(1.0);
    assert!((a - b).abs() <= tol, "{what}: streaming {a} vs exact {b}");
}

/// Quantile agreement within the documented tolerance: the streaming
/// estimate is bucket-interpolated, so it must land in the exact
/// value's latency bucket or an adjacent one.
fn bucket_close(stream_ms: f64, exact_ms: f64, what: &str) {
    let (s, e) = (latency_bucket(stream_ms), latency_bucket(exact_ms));
    assert!(
        s.abs_diff(e) <= 1,
        "{what}: streaming {stream_ms}ms (bucket {s}) vs exact {exact_ms}ms (bucket {e})"
    );
}

/// A drained chaos run: the platform (traces on), the streaming audit
/// folded live off its bus, and the triggered request ids.
type ChaosRun = (Platform, ObserverHandle<StreamingAudit>, Vec<u64>);

/// One randomized single-platform run: chain shape, service time, gap,
/// mode and fault rate all drawn from the seed; `faults` forces the fault
/// rate on without changing any other draw.
fn chaos_run(seed: u64, faults: bool, config: StreamingConfig) -> ChaosRun {
    let mut rng = RngStream::derive(seed, "streaming-chaos");
    let depth = rng.uniform_inclusive(2, 5) as usize;
    let triggers = rng.uniform_inclusive(3, 8);
    let gap_s = rng.uniform_inclusive(10, 240);
    let service_ms = rng.uniform_inclusive(100, 2000) as f64;
    let fault_rate = if rng.bernoulli(0.5) || faults {
        0.35
    } else {
        0.0
    };
    let mode = if rng.bernoulli(0.5) {
        ExecutionMode::Jit
    } else {
        ExecutionMode::Speculative
    };

    let chain = linear_chain("wf", depth, &FunctionSpec::new("f").service_ms(service_ms)).unwrap();
    let mut builder = PlatformConfig::builder()
        .for_mode(mode, seed)
        .record_traces(true);
    if fault_rate > 0.0 {
        builder = builder.faults(FaultConfig::with_rate(fault_rate, seed ^ 0xFA17));
    }
    let mut platform = Platform::new(builder.build().unwrap());
    let streaming = platform.attach_observer(StreamingAudit::new(config));
    platform.deploy(chain).unwrap();
    let mut ids = Vec::new();
    let mut t = SimTime::ZERO;
    for _ in 0..triggers {
        ids.push(platform.trigger_at("wf", t).unwrap());
        t += SimDuration::from_secs(gap_s);
    }
    platform.run_until_idle();
    (platform, streaming, ids)
}

/// [`chaos_run`] with the seed's own fault coin. Returns the streaming
/// summary and the exact audit recomputed from full traces.
fn random_run(seed: u64) -> (StreamingSummary, Audit) {
    let (platform, streaming, ids) = chaos_run(seed, false, StreamingConfig::default());
    let traces: Vec<_> = ids
        .iter()
        .filter_map(|&id| platform.trace(id).map(|tr| (id, tr.clone())))
        .collect();
    let exact = Audit::from_traces(&traces);
    let (summary, in_flight) = streaming.with(|a| (a.summary(), a.in_flight()));
    assert_eq!(in_flight, 0, "seed {seed}: requests left open after idle");
    (summary, exact)
}

#[test]
fn streaming_matches_exact_audit_on_randomized_chaos_runs() {
    for seed in 0..16u64 {
        let (s, exact) = random_run(seed);
        let e = &exact.summary;
        let ctx = |what: &str| format!("seed {seed}: {what}");

        assert_eq!(s.requests, e.requests, "{}", ctx("requests"));
        assert_eq!(s.end_to_end.count, e.requests, "{}", ctx("e2e samples"));

        // MLP hit/miss bookkeeping is exact, down to the per-function
        // edges and the miss-depth profile.
        assert_eq!(s.mlp, e.mlp, "{}", ctx("mlp"));

        // Wasted-deploy accounting: integer deploy count exact, CPU-ms
        // to accumulation noise.
        assert_eq!(s.waste.deploys, e.waste.deploys, "{}", ctx("waste deploys"));
        close(s.waste.cpu_ms, e.waste.cpu_ms, &ctx("waste cpu_ms"));

        // Critical-path component totals: both sides sum integer µs.
        assert_eq!(s.exec_ms, e.exec_ms, "{}", ctx("exec_ms"));
        assert_eq!(
            s.cold_start_wait_ms,
            e.cold_start_wait_ms,
            "{}",
            ctx("cold_ms")
        );
        assert_eq!(s.queue_wait_ms, e.queue_wait_ms, "{}", ctx("queue_ms"));
        assert_eq!(s.stall_ms, e.stall_ms, "{}", ctx("stall_ms"));

        // JIT lateness bookkeeping.
        assert_eq!(s.jit.planned, e.jit.planned, "{}", ctx("jit planned"));
        assert_eq!(s.jit.late, e.jit.late, "{}", ctx("jit late"));
        assert_eq!(s.jit.on_time, e.jit.on_time, "{}", ctx("jit on_time"));
        assert_eq!(
            s.jit.late_ms.count,
            e.jit.late_ms.count,
            "{}",
            ctx("late n")
        );
        assert_eq!(
            s.jit.slack_ms.count,
            e.jit.slack_ms.count,
            "{}",
            ctx("slack n")
        );
        close(
            s.jit.late_ms.sum_ms,
            e.jit.late_ms.mean * e.jit.late_ms.count as f64,
            &ctx("late sum"),
        );

        // Latency quantiles agree to the documented bucket tolerance.
        close(
            s.end_to_end.mean_ms(),
            e.end_to_end_ms.mean,
            &ctx("e2e mean"),
        );
        bucket_close(
            s.end_to_end.quantile_ms(0.5),
            e.end_to_end_ms.p50,
            &ctx("p50"),
        );
        bucket_close(
            s.end_to_end.quantile_ms(0.95),
            e.end_to_end_ms.p95,
            &ctx("p95"),
        );
    }
}

/// The exemplar reservoir folds the bus as `Platform::trace` records it:
/// with a reservoir that keeps every request, each exemplar's span tree,
/// read off the trace the audit folded live, equals the one built from
/// the platform's recorded trace, crash and failed-deploy markers
/// included.
#[test]
fn exemplar_span_trees_equal_the_recorded_traces_under_faults() {
    let mut crashes = 0;
    for seed in 0..16u64 {
        let (platform, streaming, ids) = chaos_run(seed, true, StreamingConfig { exemplars: 64 });
        let exemplars = streaming.with(|a| a.exemplars().to_vec());
        assert_eq!(
            exemplars.len(),
            ids.len(),
            "seed {seed}: every request kept"
        );
        for exemplar in &exemplars {
            let request = exemplar.request;
            let trace = platform.trace(request).expect("trace recorded");
            let tree = exemplar.span_tree();
            assert_eq!(
                tree,
                SpanTree::from_trace(request, trace),
                "seed {seed}, request {request}"
            );
            crashes += tree
                .markers
                .iter()
                .filter(|m| m.label.starts_with("crash "))
                .count();
        }
    }
    assert!(crashes > 0, "no seed crashed a worker mid-invocation");
}

/// A deterministic multi-workflow fleet with staggered triggers.
fn fleet(workflows: usize, triggers: u64) -> Vec<ShardWorkload> {
    (0..workflows)
        .map(|i| {
            let name = format!("wf{i}");
            let template =
                FunctionSpec::new(format!("{name}-f")).service_ms(300.0 + 150.0 * i as f64);
            let dag = linear_chain(&name, 3, &template).unwrap();
            let triggers = (0..triggers)
                .map(|t| SimTime::from_secs(t * 90 + 11 * i as u64))
                .collect();
            ShardWorkload { dag, triggers }
        })
        .collect()
}

#[test]
fn streaming_exports_are_byte_identical_at_any_thread_width() {
    let run = |threads: usize| {
        let config = PlatformConfig::builder()
            .for_mode(ExecutionMode::Jit, 77)
            .build()
            .unwrap();
        let telemetry = ShardTelemetry {
            streaming: Some(StreamingConfig::default()),
            slo: Some(SloConfig::default()),
            metrics: true,
            progress: false,
        };
        let opts = ShardOptions {
            threads,
            window: SimDuration::from_secs(60),
        };
        let run = replay_sharded_with(&config, fleet(6, 5), &opts, &telemetry).unwrap();
        let audit = streaming_json_string(run.streaming.as_ref().unwrap());
        let slo = slo_json_string(&run.slo.as_ref().unwrap().report());
        let metrics = metrics_json_string(run.metrics.as_ref().unwrap());
        (audit, slo, metrics)
    };
    let serial = run(1);
    assert_eq!(serial, run(8), "1 vs 8 threads changed export bytes");
    assert_eq!(serial, run(3), "1 vs 3 threads changed export bytes");
    let (audit, slo, _) = &serial;
    assert!(audit.contains("\"exemplars\""), "{audit}");
    assert!(slo.contains("\"baseline_window\""), "{slo}");
}

/// The streaming audit's own schema (CI validates replay's and serve's
/// `--audit-out` against it): both checked-in streaming audits
/// validate, and a copy with one extra top-level key does not.
#[test]
fn streaming_audit_goldens_validate_against_their_schema() {
    let schema: serde_json::Value =
        serde_json::from_str(include_str!("../docs/schemas/streaming-audit.schema.json")).unwrap();
    let goldens = [
        (
            "replay.stream-audit.json",
            include_str!("../docs/golden/replay.stream-audit.json"),
        ),
        (
            "serve.audit.json",
            include_str!("../docs/golden/serve.audit.json"),
        ),
    ];
    for (name, text) in goldens {
        let mut doc: serde_json::Value = serde_json::from_str(text).unwrap();
        validate_schema(&doc, &schema).unwrap_or_else(|e| panic!("{name}: {e}"));
        doc.as_object_mut()
            .unwrap()
            .insert("summary".into(), serde_json::Value::Null);
        let err = validate_schema(&doc, &schema).expect_err(name);
        assert!(
            err.contains("unexpected property \"summary\""),
            "{name}: {err}"
        );
    }
}
