//! The replay workloads (`fleet-replay`, `chaos-cluster-replay`):
//! `xanadu replay` rebuilt from its public parts so that input
//! generation, the sharded entry call and export encoding are timed
//! apart, plus a traced per-shard drive that splits the kernel's time by
//! layer.

use xanadu::cli::ReplayArgs;
use xanadu_chain::{linear_chain, FunctionSpec, WorkflowDag};
use xanadu_core::speculation::SpeculationConfig;
use xanadu_platform::export::{metrics_json_string, streaming_json_string};
use xanadu_platform::shard::{
    replay_sharded_with, ShardOptions, ShardTelemetry, ShardWorkload, ShardedRun,
};
use xanadu_platform::stream::{SloConfig, SloMonitor, StreamingAudit, StreamingConfig};
use xanadu_platform::{
    Audit, ClusterConfig, ClusterReport, DiffThresholds, FaultConfig, MetricsRegistry,
    ObserverHandle, Platform, PlatformConfig, RunResult,
};
use xanadu_simcore::{RngStream, SimDuration, SimTime};
use xanadu_workloads::azure::{
    generate_trace, scale_to_invocations, total_invocations, AzureTraceConfig,
};

use crate::ledger::{
    fnv1a64, report_json, result_counters, sampled_setup, simulated_metrics, span, timed, Record,
    Timed,
};
use crate::probes::{self, ProbeSizes};

/// The generated fleet: one linear chain per Azure-style workflow.
struct Fleet {
    workloads: Vec<ShardWorkload>,
    invocations: u64,
}

/// Input generation and DAG build, as `xanadu replay` does them.
fn setup(args: &ReplayArgs) -> Result<Fleet, String> {
    let scaled = scale_to_invocations(&AzureTraceConfig::default(), args.invocations);
    let traces = generate_trace(&scaled, args.seed);
    let invocations = total_invocations(&traces);
    let workloads = traces
        .iter()
        .map(|t| {
            let template = FunctionSpec::new(format!("{}-f", t.name)).service_ms(400.0);
            let dag =
                linear_chain(&t.name, args.depth as usize, &template).map_err(|e| e.to_string())?;
            Ok(ShardWorkload {
                dag,
                triggers: t.arrivals.clone(),
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Fleet {
        workloads,
        invocations,
    })
}

/// The platform configuration `xanadu replay` builds from its flags.
fn config(args: &ReplayArgs) -> Result<PlatformConfig, String> {
    let mut builder = PlatformConfig::builder().for_mode(args.mode, args.seed);
    if args.policy.is_default() {
        let mut spec = SpeculationConfig::for_mode(args.mode);
        spec.aggressiveness = args.aggressiveness;
        spec.miss_policy = args.miss_policy;
        builder = builder.speculation(spec);
    } else {
        builder = builder
            .policy(args.policy.clone())
            .label(args.policy.name());
    }
    builder = builder.plan_cache(args.plan_cache).cluster(
        ClusterConfig::uniform(args.placement, args.hosts, args.host_memory_mb)
            .with_tenants(args.tenants),
    );
    if args.fault_rate > 0.0 || args.host_fail_rate > 0.0 {
        builder = builder.faults(FaultConfig {
            host_failure_rate: args.host_fail_rate,
            ..FaultConfig::with_rate(args.fault_rate, args.fault_seed)
        });
    }
    builder.build().map_err(|e| e.to_string())
}

/// The per-shard observers the flags ask for (no SLO thresholds file:
/// the benchmark never passes `--slo`).
fn telemetry(args: &ReplayArgs) -> ShardTelemetry {
    ShardTelemetry {
        streaming: args.audit_out.as_ref().map(|_| StreamingConfig::default()),
        slo: args.slo_out.as_ref().map(|_| SloConfig {
            window: SimDuration::from_secs(args.slo_window_secs),
            thresholds: DiffThresholds::default(),
        }),
        metrics: args.metrics_out.is_some(),
        progress: false,
    }
}

fn options(args: &ReplayArgs, threads: usize) -> ShardOptions {
    ShardOptions {
        threads,
        window: SimDuration::from_secs(args.window_secs),
    }
}

/// The documents the CLI encodes after the run, with their encode times.
struct Exports {
    report: String,
    audit: Option<String>,
    report_s: f64,
    audit_s: f64,
    metrics_s: f64,
    bytes: usize,
}

fn encode(run: &ShardedRun) -> Exports {
    let (report, report_s) = timed(|| report_json(&run.report));
    let (audit, audit_s) = timed(|| run.streaming.as_ref().map(streaming_json_string));
    let (metrics, metrics_s) = timed(|| {
        run.metrics.as_ref().map(|m| {
            let mut registry = m.clone();
            registry.merge_from(&run.profile.deterministic_registry());
            metrics_json_string(&registry)
        })
    });
    let bytes = report.len()
        + audit.as_ref().map_or(0, String::len)
        + metrics.as_ref().map_or(0, String::len);
    Exports {
        report,
        audit,
        report_s,
        audit_s,
        metrics_s,
        bytes,
    }
}

/// Records the run's identity and output checks: invocation counts and
/// the report (and audit) digests.
fn outputs(fleet_invocations: u64, run: &ShardedRun, exports: &Exports, out: &mut Record) {
    out.num("invocations", fleet_invocations as f64);
    out.num("completed", run.report.results.len() as f64);
    out.text("report_digest", fnv1a64(exports.report.as_bytes()));
    if let Some(audit) = &exports.audit {
        out.text("audit_digest", fnv1a64(audit.as_bytes()));
    }
    if let Some(audit) = &run.streaming {
        let summary = audit.summary();
        out.num(
            "wasted_cpu_ms_per_inv",
            summary.waste.cpu_ms / summary.requests.max(1) as f64,
        );
    }
    simulated_metrics(&run.report.results, out);
}

/// One measured repetition: setup, the timed `replay_sharded_with` call,
/// and export encoding.
pub fn rep(args: &ReplayArgs, out: &mut Record) -> Result<(), String> {
    let ((fleet, config, telemetry), setup_s, reference_s) =
        sampled_setup(|| Ok((setup(args)?, config(args)?, telemetry(args))))?;
    let invocations = fleet.invocations;
    let (run, entry_s) = timed(|| {
        replay_sharded_with(
            &config,
            fleet.workloads,
            &options(args, args.shards),
            &telemetry,
        )
    });
    let run = run.map_err(|e| e.to_string())?;
    let exports = encode(&run);
    out.nums("setup_s", &setup_s);
    out.nums("reference_s", &reference_s);
    out.num("entry_s", entry_s);
    outputs(invocations, &run, &exports, out);
    Ok(())
}

/// The once-per-invocation check: the same fleet at the other thread
/// width (1 ↔ 2) with the streaming audit attached. Its report digest
/// must equal the measured runs' (shard-count invariance, and observers
/// never perturb the report); it also supplies `wasted_cpu_ms_per_inv`
/// for workloads that run without an audit.
pub fn check(args: &ReplayArgs, out: &mut Record) -> Result<(), String> {
    let fleet = setup(args)?;
    let mut telemetry = telemetry(args);
    telemetry.streaming = Some(StreamingConfig::default());
    let threads = if args.shards > 1 { 1 } else { 2 };
    let invocations = fleet.invocations;
    let run = replay_sharded_with(
        &config(args)?,
        fleet.workloads,
        &options(args, threads),
        &telemetry,
    )
    .map_err(|e| e.to_string())?;
    let mut exports = encode(&run);
    if args.audit_out.is_none() {
        // Only compare audit digests the measured runs also produce.
        exports.audit = None;
    }
    outputs(invocations, &run, &exports, out);
    Ok(())
}

/// Wall-clock buckets of the traced drive, seconds.
#[derive(Debug, Default)]
struct Spans {
    build: f64,
    trigger: f64,
    drive: f64,
    finish: f64,
    merge: f64,
}

/// A shard under the traced drive. The workload's own observers are
/// attached as the sharded driver attaches them, each behind a timing
/// wrapper; a counting drive adds a plain registry for the bus counters.
struct TracedShard {
    name: String,
    platform: Platform,
    events: u64,
    counter: Option<ObserverHandle<MetricsRegistry>>,
    streaming: Option<ObserverHandle<Timed<StreamingAudit>>>,
    slo: Option<ObserverHandle<Timed<SloMonitor>>>,
    metrics: Option<ObserverHandle<Timed<MetricsRegistry>>>,
}

/// Everything the traced drive measured.
#[derive(Default)]
struct Traced {
    spans: Spans,
    wall_s: f64,
    observer_s: f64,
    deliveries: u64,
    shard_events: Vec<(String, u64)>,
    counters: MetricsRegistry,
    published: u64,
    plan_hits: u64,
    plan_misses: u64,
    results: Vec<RunResult>,
    unused_workers: u64,
    cluster: Option<ClusterReport>,
}

/// Drives every shard's [`Platform`] on this thread through the same
/// conservative windows the sharded driver uses, timing each public call.
/// With `count` every shard also gets a counting [`MetricsRegistry`];
/// that turns on bus publishing where the workload has no observers, so
/// a counting drive is never the timed one.
fn drive_traced(
    base: &PlatformConfig,
    mut workloads: Vec<ShardWorkload>,
    window: SimDuration,
    telemetry: &ShardTelemetry,
    count: bool,
) -> Traced {
    let start = std::time::Instant::now();
    let mut spans = Spans::default();
    workloads.sort_by(|a, b| a.dag.name().cmp(b.dag.name()));
    let mut shards: Vec<TracedShard> = workloads
        .into_iter()
        .map(|w| {
            let name = w.dag.name().to_string();
            let mut config = base.clone();
            config.seed = RngStream::derive(base.seed, &name).next_u64();
            config.faults.seed = RngStream::derive(base.faults.seed, &name).next_u64();
            let mut triggers = w.triggers;
            triggers.sort();
            let mut platform = span(&mut spans.build, || {
                let mut platform = Platform::new(config);
                platform.reserve_invocations(triggers.len());
                platform
                    .deploy(w.dag)
                    .expect("fresh platform has no deployments");
                platform
            });
            span(&mut spans.trigger, || {
                for &at in &triggers {
                    platform
                        .trigger_at(&name, at)
                        .expect("workflow was just deployed");
                }
            });
            let streaming = telemetry
                .streaming
                .map(|c| platform.attach_observer(Timed::new(StreamingAudit::new(c))));
            let slo = telemetry
                .slo
                .clone()
                .map(|c| platform.attach_observer(Timed::new(SloMonitor::collector(c))));
            let metrics = telemetry
                .metrics
                .then(|| platform.attach_observer(Timed::new(MetricsRegistry::new())));
            let counter = count.then(|| platform.attach_observer(MetricsRegistry::new()));
            TracedShard {
                name,
                platform,
                events: 0,
                counter,
                streaming,
                slo,
                metrics,
            }
        })
        .collect();

    let mut window_end = SimTime::ZERO;
    loop {
        window_end += window;
        let pending = span(&mut spans.drive, || {
            let mut pending = 0;
            for shard in &mut shards {
                shard.events += shard.platform.step_window(window_end);
                pending += shard.platform.pending_events();
            }
            pending
        });
        if pending == 0 {
            break;
        }
    }

    let mut traced = Traced::default();
    let mut audits = Vec::new();
    let mut slos = Vec::new();
    let mut registries = Vec::new();
    for shard in shards {
        let stats = shard.platform.plan_cache_stats();
        traced.plan_hits += stats.hits;
        traced.plan_misses += stats.misses;
        traced.published += shard.platform.published_events();
        let report = span(&mut spans.finish, || {
            let report = shard.platform.finish();
            audits.extend(shard.streaming.map(|h| h.snapshot()));
            slos.extend(shard.slo.map(|h| h.snapshot()));
            registries.extend(shard.metrics.map(|h| h.snapshot()));
            report
        });
        if let Some(counter) = &shard.counter {
            traced.counters.merge_from(&counter.snapshot());
        }
        traced.shard_events.push((shard.name, shard.events));
        traced.unused_workers += report
            .worker_records
            .iter()
            .filter(|w| !w.ever_used)
            .count() as u64;
        if let Some(cluster) = &report.cluster {
            match &mut traced.cluster {
                Some(merged) => merged.merge_from(cluster),
                None => traced.cluster = Some(cluster.clone()),
            }
        }
        traced.results.extend(report.results);
    }
    let costs = audits
        .iter()
        .map(|t| (t.busy_s, t.deliveries))
        .chain(slos.iter().map(|t| (t.busy_s, t.deliveries)))
        .chain(registries.iter().map(|t| (t.busy_s, t.deliveries)));
    for (busy_s, deliveries) in costs {
        traced.observer_s += busy_s;
        traced.deliveries += deliveries;
    }
    span(&mut spans.merge, || {
        let mut audit = StreamingAudit::new(StreamingConfig::default());
        for t in &audits {
            audit.merge_from(&t.inner);
        }
        let mut registry = MetricsRegistry::new();
        for t in &registries {
            registry.merge_from(&t.inner);
        }
        let mut slo = slos
            .first()
            .map(|t| SloMonitor::collector(t.inner.config().clone()));
        if let Some(merged) = &mut slo {
            for t in &slos {
                merged.merge_from(&t.inner);
            }
        }
        std::hint::black_box((audit, registry, slo));
    });
    traced.wall_s = start.elapsed().as_secs_f64();
    traced.spans = spans;
    traced
}

/// The traced run: the untraced entry call at the workload's width (for
/// the public `KernelProfile`), an untraced single-thread baseline, the
/// traced drive, its self-check, and the layer probes.
pub fn trace(args: &ReplayArgs, out: &mut Record) -> Result<(), String> {
    let mut generate_s = 0.0;
    let fleet = span(&mut generate_s, || setup(args))?;
    let config = config(args)?;
    let telemetry = telemetry(args);
    let invocations = fleet.invocations;
    let dags: Vec<WorkflowDag> = fleet.workloads.iter().map(|w| w.dag.clone()).collect();

    let (native, native_s) = timed(|| {
        replay_sharded_with(
            &config,
            fleet.workloads.clone(),
            &options(args, args.shards),
            &telemetry,
        )
    });
    let native = native.map_err(|e| e.to_string())?;
    let exports = encode(&native);
    let (_, audit_s) = timed(|| std::hint::black_box(Audit::from_traces(&native.traces)));
    let baseline_s = if native.profile.threads > 1 {
        let (run, secs) = timed(|| {
            replay_sharded_with(
                &config,
                fleet.workloads.clone(),
                &options(args, 1),
                &telemetry,
            )
        });
        run.map_err(|e| e.to_string())?;
        secs
    } else {
        native_s
    };

    let window = SimDuration::from_secs(args.window_secs);
    let traced = drive_traced(&config, fleet.workloads.clone(), window, &telemetry, false);
    let (counted, counter_s) =
        timed(|| drive_traced(&config, fleet.workloads, window, &telemetry, true));

    // Self-check: both drives must have processed exactly the events the
    // sharded driver's profile reports, shard by shard.
    let profile = &native.profile;
    let expected: Vec<(String, u64)> = profile
        .shards
        .iter()
        .map(|s| (s.workflow.clone(), s.events))
        .collect();
    if expected != traced.shard_events || expected != counted.shard_events {
        return Err("traced per-shard event counts differ from KernelProfile".into());
    }

    out.num("invocations", invocations as f64);
    out.num("completed", native.report.results.len() as f64);
    out.text("report_digest", fnv1a64(exports.report.as_bytes()));

    let events = native.events_processed as f64;
    let s = &traced.spans;
    let drive_self = s.drive - traced.observer_s;
    out.num("workloads.generate_s", generate_s);
    out.num("sim.build_s", s.build);
    out.num("sim.trigger_s", s.trigger);
    out.num("sim.drive_s", drive_self);
    out.num("sim.finish_s", s.finish);
    out.num("sim.events", events);
    out.num("sim.events_per_inv", events / invocations.max(1) as f64);
    out.num("sim.ns_per_event", drive_self * 1e9 / events.max(1.0));

    let waits: Vec<f64> = profile
        .barrier_wait_us
        .iter()
        .map(|&us| us as f64 / 1e6)
        .collect();
    let max_wait = waits.iter().copied().fold(0.0, f64::max);
    let min_wait = waits.iter().copied().fold(f64::INFINITY, f64::min);
    out.num("shard.windows", profile.windows as f64);
    out.num(
        "shard.barrier_wait_s",
        waits.iter().sum::<f64>() / waits.len().max(1) as f64,
    );
    out.num("shard.merge_s", profile.merge_us as f64 / 1e6);
    out.num(
        "shard.thread_imbalance",
        if waits.len() > 1 {
            (max_wait - min_wait) / native_s
        } else {
            0.0
        },
    );
    out.num("events.queue_peak", profile.queue_peak() as f64);

    let counters = &counted.counters;
    out.num("policy.plans", counters.counter("plans.computed") as f64);
    let lookups = traced.plan_hits + traced.plan_misses;
    out.num(
        "policy.plan_cache_hit_rate",
        traced.plan_hits as f64 / lookups.max(1) as f64,
    );
    result_counters(&traced.results, out);
    let provisioned = counters.counter("workers.provisioned");
    let on_demand = counters.counter("workers.on_demand");
    out.num("pool.workers_provisioned", provisioned as f64);
    out.num("pool.workers_on_demand", on_demand as f64);
    out.num(
        "pool.speculative_hit_ratio",
        speculative_hit_ratio(provisioned, on_demand, traced.unused_workers),
    );

    out.num(
        "hosts.placements",
        counters.counter("workers.placed") as f64,
    );
    out.num("hosts.failed", counters.counter("hosts.down") as f64);
    let (cross, same) = traced
        .cluster
        .as_ref()
        .map_or((0, 0), |c| (c.cross_host_cold, c.same_host_cold));
    out.num("hosts.cross_host_cold", cross as f64);
    out.num("hosts.same_host_cold", same as f64);
    out.num("faults.crashes", counters.counter("faults.crashes") as f64);
    out.num("faults.retries", counters.counter("retries") as f64);

    out.num("bus.events_published", counted.published as f64);
    out.num("bus.deliveries", traced.deliveries as f64);
    if traced.deliveries > 0 {
        out.num("bus.observer_s", traced.observer_s);
        out.num(
            "bus.ns_per_delivery",
            traced.observer_s * 1e9 / traced.deliveries as f64,
        );
    }
    out.num("stream.merge_s", s.merge);
    out.num(
        "stream.slo_windows",
        native.slo.as_ref().map_or(0, |m| m.report().windows.len()) as f64,
    );

    out.num("export.report_encode_s", exports.report_s);
    if exports.audit.is_some() || native.metrics.is_some() {
        out.num("export.audit_encode_s", exports.audit_s + exports.metrics_s);
    }
    out.num(
        "export.encode_s",
        exports.report_s + exports.audit_s + exports.metrics_s,
    );
    out.num("export.bytes", exports.bytes as f64);
    out.num("analysis.audit_s", audit_s);

    let attributed = s.build + s.trigger + drive_self + traced.observer_s + s.finish + s.merge;
    out.num("trace.wall_s", traced.wall_s);
    out.num("trace.untraced_s", baseline_s);
    out.num("trace.counter_s", counter_s);
    out.num("trace.overhead_s", traced.wall_s + counter_s - baseline_s);
    out.num("unattributed_s", traced.wall_s - attributed);

    probes::run(
        &ProbeSizes {
            config: &config,
            dags: &dags,
            queue_depth: profile.queue_peak() as usize,
        },
        out,
    )
}

/// Share of speculatively provisioned workers that served a request.
pub fn speculative_hit_ratio(provisioned: u64, on_demand: u64, unused: u64) -> f64 {
    let speculative = provisioned.saturating_sub(on_demand);
    if speculative == 0 {
        return 0.0;
    }
    1.0 - unused.min(speculative) as f64 / speculative as f64
}
