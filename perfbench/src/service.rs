//! The `service-stream` workload: `xanadu serve` timed in-process, and a
//! traced per-layer run built on serve's own finished checkpoint log.
//!
//! The traced run drives each checkpoint epoch's `Platform` again from
//! public calls, restoring the learned state serve wrote to the previous
//! segment. Each epoch must persist exactly the learned documents serve
//! wrote to that epoch's segment, and the merged audit must equal serve's
//! byte for byte, which proves the drive did the work the timed run did.
//! The metastore is timed by re-appending serve's segment documents to a
//! scratch log and replaying serve's log.

use std::path::Path;

use serde_json::Value;
use xanadu::serve::{run_serve, ServeArgs};
use xanadu_chain::{linear_chain, FunctionSpec, WorkflowDag};
use xanadu_platform::export::{slo_json_string, streaming_json_string};
use xanadu_platform::stream::{SloConfig, SloMonitor, StreamingAudit, StreamingConfig};
use xanadu_platform::{
    DiffThresholds, MetaStore, MetricsRegistry, Platform, PlatformConfig, RunResult, SegmentLog,
};
use xanadu_simcore::{RngStream, SimDuration};
use xanadu_workloads::stream::{GeneratedStream, StreamEvent, StreamHeader};

use crate::ledger::{
    fnv1a64, quantile, result_counters, sampled_setup, simulated_metrics, span, timed, Record,
    Timed,
};
use crate::probes::{self, ProbeSizes};
use crate::replay::speculative_hit_ratio;

/// Learned-state documents `serve` carries from one epoch to the next.
const LEARNED_DOCS: [&str; 2] = ["learned/metrics", "learned/branches"];

/// The generated stream plus the workflow population serve deploys.
fn generate(
    args: &ServeArgs,
) -> Result<(StreamHeader, Vec<StreamEvent>, Vec<WorkflowDag>), String> {
    let (header, events) = GeneratedStream::new(
        args.workflows,
        args.depth,
        args.rate_per_hour,
        args.seed,
        args.events,
    )
    .collect_events();
    let dags = (0..header.workflows)
        .map(|wf| {
            let name = header.workflow_name(wf);
            let template = FunctionSpec::new(format!("{name}-f")).service_ms(400.0);
            linear_chain(&name, header.depth as usize, &template).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok((header, events, dags))
}

fn config(args: &ServeArgs) -> Result<PlatformConfig, String> {
    PlatformConfig::builder()
        .for_mode(args.mode, args.seed)
        .record_traces(false)
        .build()
        .map_err(|e| e.to_string())
}

/// What one in-process `run_serve` call produced.
struct Served {
    stdout: String,
    audit: String,
    entry_s: f64,
}

/// Calls `run_serve` with the audit staged in memory.
fn serve(args: &ServeArgs) -> Result<Served, String> {
    let mut args = args.clone();
    args.audit_out = Some("audit.json".into());
    let mut exports = Vec::new();
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let (stdout, entry_s) = timed(|| run_serve(&args, &read, &mut exports));
    let stdout = stdout.map_err(|e| e.to_string())?;
    let audit = exports
        .into_iter()
        .find(|f| f.path == "audit.json")
        .ok_or("serve staged no audit")?
        .contents;
    Ok(Served {
        stdout,
        audit,
        entry_s,
    })
}

/// Requests and wasted CPU per request from an audit document; returns
/// the number of unused speculative deploys.
fn audit_figures(audit: &str, out: &mut Record) -> Result<f64, String> {
    let doc: Value = serde_json::from_str(audit).map_err(|e| e.to_string())?;
    let requests = doc["requests"].as_f64().ok_or("audit has no requests")?;
    let wasted = doc["waste"]["cpu_ms"]
        .as_f64()
        .ok_or("audit has no waste")?;
    out.num("completed", requests);
    out.num("wasted_cpu_ms_per_inv", wasted / requests.max(1.0));
    Ok(doc["waste"]["deploys"].as_f64().unwrap_or(0.0))
}

/// One measured repetition: setup (stream generation and DAG build),
/// then the timed `run_serve` call into a fresh checkpoint directory.
pub fn rep(args: &ServeArgs, out: &mut Record) -> Result<(), String> {
    let ((_, events, _), setup_s, reference_s) = sampled_setup(|| generate(args))?;
    let served = serve(args)?;
    let digest = fnv1a64(served.audit.as_bytes());
    if !served.stdout.contains(&format!("audit digest: {digest}")) {
        return Err("serve printed a different audit digest than it staged".into());
    }
    out.nums("setup_s", &setup_s);
    out.nums("reference_s", &reference_s);
    out.num("entry_s", served.entry_s);
    out.num("invocations", events.len() as f64);
    out.text("audit_digest", digest);
    audit_figures(&served.audit, out)?;
    Ok(())
}

/// One committed segment of serve's log: its documents in file order,
/// its manifest digest and its size on disk.
struct Segment {
    docs: Vec<(String, Value)>,
    digest: String,
    bytes: u64,
}

impl Segment {
    /// The learned-state documents the segment holds.
    fn learned(&self) -> Vec<&(String, Value)> {
        self.docs
            .iter()
            .filter(|(id, _)| LEARNED_DOCS.contains(&id.as_str()))
            .collect()
    }
}

/// Reads every segment of a checkpoint log, oldest first.
fn read_segments(dir: &Path) -> Result<Vec<Segment>, String> {
    let manifest = SegmentLog::open(dir)
        .and_then(|log| log.manifest())
        .map_err(|e| e.to_string())?;
    manifest
        .segments
        .into_iter()
        .map(|seg| {
            let text = std::fs::read_to_string(dir.join(&seg.file)).map_err(|e| e.to_string())?;
            let body: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
            let docs = body
                .as_object()
                .ok_or_else(|| format!("{}: not an object", seg.file))?
                .iter()
                .map(|(id, doc)| (id.clone(), doc.clone()))
                .collect();
            Ok(Segment {
                docs,
                digest: seg.digest,
                bytes: text.len() as u64,
            })
        })
        .collect()
}

/// Everything the epoch drive measured.
#[derive(Default)]
struct Drive {
    generate_s: f64,
    build_s: f64,
    trigger_s: f64,
    drive_s: f64,
    finish_s: f64,
    merge_s: f64,
    encode_s: f64,
    export_s: f64,
    wall_s: f64,
    rebuild_ms: Vec<f64>,
    observer_s: f64,
    deliveries: u64,
    published: u64,
    plan_hits: u64,
    plan_misses: u64,
    events: u64,
    queue_peak: u64,
    slo_windows: u64,
    counters: MetricsRegistry,
    results: Vec<RunResult>,
    audit: String,
}

/// Drives serve's checkpoint epochs again from public calls: each epoch
/// is a fresh `Platform` (`Platform::new` + `deploy_implicit` +
/// `restore_learned_state` from the previous segment) with the workload's
/// audit and SLO observers attached behind timing wrappers. With `count`
/// a plain `MetricsRegistry` is attached as well, for the bus counters.
fn drive(args: &ServeArgs, segments: &[Segment], count: bool) -> Result<Drive, String> {
    let start = std::time::Instant::now();
    let mut d = Drive::default();
    let (header, events, dags) = span(&mut d.generate_s, || generate(args))?;
    let slo_config = SloConfig {
        window: SimDuration::from_secs(args.slo_window_secs),
        thresholds: DiffThresholds::default(),
    };
    let mut audit = StreamingAudit::new(StreamingConfig::default());
    let mut slo = SloMonitor::collector(slo_config.clone());
    let config = config(args)?;
    let mut request_base = 0;

    for (epoch, (segment, slice)) in segments
        .iter()
        .zip(events.chunks(args.checkpoint_every.max(1) as usize))
        .enumerate()
    {
        let mut durable = MetaStore::new();
        if let Some(previous) = epoch.checked_sub(1).map(|e| &segments[e]) {
            for (id, doc) in previous.learned() {
                durable.put(id, doc.clone());
            }
        }
        let mut rebuild_s = 0.0;
        let mut platform = span(&mut rebuild_s, || -> Result<Platform, String> {
            let seed = RngStream::derive(args.seed, "serve-epoch")
                .child(epoch as u64)
                .next_u64();
            let mut platform = Platform::new(config.reseeded(seed));
            for dag in &dags {
                platform
                    .deploy_implicit(dag.clone())
                    .map_err(|e| e.to_string())?;
            }
            if LEARNED_DOCS.iter().all(|id| durable.get(id).is_some()) {
                platform
                    .restore_learned_state(&durable)
                    .map_err(|e| e.to_string())?;
            }
            Ok(platform)
        })?;
        d.build_s += rebuild_s;
        d.rebuild_ms.push(rebuild_s * 1000.0);
        let audit_handle =
            platform.attach_observer(Timed::new(StreamingAudit::new(StreamingConfig::default())));
        let slo_handle =
            platform.attach_observer(Timed::new(SloMonitor::collector(slo_config.clone())));
        let counter = count.then(|| platform.attach_observer(MetricsRegistry::new()));

        span(&mut d.trigger_s, || -> Result<(), String> {
            for ev in slice {
                platform
                    .trigger_at(&header.workflow_name(ev.wf), ev.at())
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;
        d.queue_peak = d.queue_peak.max(platform.pending_events() as u64);
        d.events += span(&mut d.drive_s, || platform.run_until_idle());
        let (epoch_audit, epoch_slo) = span(&mut d.finish_s, || {
            platform.roll_profile_window();
            (audit_handle.snapshot(), slo_handle.snapshot())
        });
        d.observer_s += epoch_audit.busy_s + epoch_slo.busy_s;
        d.deliveries += epoch_audit.deliveries + epoch_slo.deliveries;

        span(&mut d.merge_s, || {
            let mut epoch_audit = epoch_audit.inner;
            epoch_audit.offset_requests(request_base);
            request_base += epoch_audit.summary().requests;
            audit.merge_from(&epoch_audit);
            slo.merge_from(&epoch_slo.inner);
        });
        span(&mut d.encode_s, || -> Result<(), String> {
            platform.persist_learned_state();
            let value = |v: Result<Value, serde_json::Error>| v.map_err(|e| e.to_string());
            std::hint::black_box(value(serde_json::to_value(audit.checkpoint()))?);
            std::hint::black_box(value(serde_json::to_value(slo.checkpoint()))?);
            Ok(())
        })?;

        // Self-check: this epoch learned exactly what serve persisted.
        for (id, doc) in segment.learned() {
            if platform.metastore().get(id).map(|(d, _)| d) != Some(doc) {
                return Err(format!(
                    "epoch {epoch}: `{id}` differs from serve's segment"
                ));
            }
        }
        if let Some(counter) = counter {
            d.counters.merge_from(&counter.snapshot());
        }
        d.published += platform.published_events();
        let stats = platform.plan_cache_stats();
        d.plan_hits += stats.hits;
        d.plan_misses += stats.misses;
        d.results.extend(platform.results().iter().cloned());
    }
    let (audit_json, slo_windows) = span(&mut d.export_s, || {
        let report = slo.report();
        std::hint::black_box(slo_json_string(&report));
        (streaming_json_string(&audit), report.windows.len() as u64)
    });
    d.audit = audit_json;
    d.slo_windows = slo_windows;
    d.wall_s = start.elapsed().as_secs_f64();
    Ok(d)
}

/// Serves the stream, reads its log, and drives the epochs again; the
/// drive's audit must equal serve's.
fn served_and_driven(args: &ServeArgs) -> Result<(Served, Vec<Segment>, Drive), String> {
    let served = serve(args)?;
    let segments = read_segments(Path::new(&args.checkpoint_dir))?;
    let driven = drive(args, &segments, false)?;
    if driven.audit != served.audit {
        return Err("epoch drive's audit differs from serve's".into());
    }
    Ok((served, segments, driven))
}

/// The once-per-invocation check: the epoch drive reproduces serve's
/// learned state and audit, and yields the per-request results the
/// simulated metrics come from.
pub fn check(args: &ServeArgs, out: &mut Record) -> Result<(), String> {
    let (served, _, driven) = served_and_driven(args)?;
    out.num("invocations", args.events as f64);
    out.text("audit_digest", fnv1a64(served.audit.as_bytes()));
    audit_figures(&served.audit, out)?;
    simulated_metrics(&driven.results, out);
    Ok(())
}

/// Re-appends serve's segment documents to a scratch log in `dir`, one
/// timed `SegmentLog::append` per segment, and checks that every segment
/// comes out byte-equal (same digest). Returns the append times in ms.
fn reappend(segments: &[Segment], dir: &Path) -> Result<Vec<f64>, String> {
    let log = SegmentLog::open(dir).map_err(|e| e.to_string())?;
    let mut append_ms = Vec::with_capacity(segments.len());
    for (i, segment) in segments.iter().enumerate() {
        let (written, secs) = timed(|| log.append(&segment.docs));
        let written = written.map_err(|e| e.to_string())?;
        if written.digest != segment.digest {
            return Err(format!("re-appended segment {i} differs from serve's"));
        }
        append_ms.push(secs * 1000.0);
    }
    std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    Ok(append_ms)
}

/// The traced run: untraced `run_serve`, the timed epoch drive with its
/// self-checks, a counting drive for the bus counters, metastore timings
/// on serve's own log, and the layer probes.
pub fn trace(args: &ServeArgs, workdir: &Path, out: &mut Record) -> Result<(), String> {
    let (served, segments, d) = served_and_driven(args)?;
    let (counted, counter_s) = timed(|| drive(args, &segments, true));
    let counted = counted?;
    let log_dir = Path::new(&args.checkpoint_dir);
    let (replayed, replay_s) = timed(|| SegmentLog::open(log_dir).and_then(|l| l.replay()));
    replayed.map_err(|e| e.to_string())?;
    let mut append = reappend(&segments, &workdir.join("reappend"))?;
    let append_s = append.iter().sum::<f64>() / 1000.0;

    out.num("invocations", args.events as f64);
    let unused = audit_figures(&served.audit, out)?;
    out.text("audit_digest", fnv1a64(served.audit.as_bytes()));

    let drive_self = d.drive_s - d.observer_s;
    let events = d.events as f64;
    out.num("workloads.generate_s", d.generate_s);
    out.num("sim.build_s", d.build_s);
    out.num("sim.trigger_s", d.trigger_s);
    out.num("sim.drive_s", drive_self);
    out.num("sim.finish_s", d.finish_s);
    out.num("sim.events", events);
    out.num("sim.events_per_inv", events / args.events.max(1) as f64);
    out.num("sim.ns_per_event", drive_self * 1e9 / events.max(1.0));
    out.num("events.queue_peak", d.queue_peak as f64);

    let counters = &counted.counters;
    out.num("policy.plans", counters.counter("plans.computed") as f64);
    out.num(
        "policy.plan_cache_hit_rate",
        d.plan_hits as f64 / (d.plan_hits + d.plan_misses).max(1) as f64,
    );
    result_counters(&d.results, out);
    let provisioned = counters.counter("workers.provisioned");
    let on_demand = counters.counter("workers.on_demand");
    out.num("pool.workers_provisioned", provisioned as f64);
    out.num("pool.workers_on_demand", on_demand as f64);
    out.num(
        "pool.speculative_hit_ratio",
        speculative_hit_ratio(provisioned, on_demand, unused as u64),
    );
    out.num(
        "hosts.placements",
        counters.counter("workers.placed") as f64,
    );
    out.num("hosts.failed", counters.counter("hosts.down") as f64);
    out.num("faults.crashes", counters.counter("faults.crashes") as f64);
    out.num("faults.retries", counters.counter("retries") as f64);

    out.num("bus.events_published", d.published as f64);
    out.num("bus.deliveries", d.deliveries as f64);
    out.num("bus.observer_s", d.observer_s);
    out.num(
        "bus.ns_per_delivery",
        d.observer_s * 1e9 / d.deliveries.max(1) as f64,
    );
    out.num("stream.merge_s", d.merge_s);
    out.num("stream.slo_windows", d.slo_windows as f64);
    out.num("stream.checkpoint_encode_s", d.encode_s);

    out.num("metastore.segments", segments.len() as f64);
    out.num(
        "metastore.segment_bytes_last",
        segments.last().map_or(0, |s| s.bytes) as f64,
    );
    out.num(
        "metastore.bytes_total",
        segments.iter().map(|s| s.bytes).sum::<u64>() as f64,
    );
    append.sort_by(f64::total_cmp);
    out.num("metastore.append_ms_p50", quantile(&append, 0.5));
    out.num(
        "metastore.append_ms_max",
        append.last().copied().unwrap_or(0.0),
    );
    out.num("metastore.replay_s", replay_s);
    out.num("serve.epochs", segments.len() as f64);
    let mut rebuild = d.rebuild_ms.clone();
    rebuild.sort_by(f64::total_cmp);
    out.num("serve.epoch_rebuild_ms", quantile(&rebuild, 0.5));

    out.num("export.audit_encode_s", d.export_s);
    out.num("export.encode_s", d.export_s);
    out.num("export.bytes", d.audit.len() as f64);

    // The drive writes no segments; the re-append stands in for serve's
    // appends on both sides of the ledger.
    let traced_wall = d.wall_s + append_s;
    let attributed = d.generate_s
        + d.build_s
        + d.trigger_s
        + drive_self
        + d.observer_s
        + d.finish_s
        + d.merge_s
        + d.encode_s
        + d.export_s
        + append_s;
    out.num("trace.wall_s", traced_wall);
    out.num("trace.untraced_s", served.entry_s);
    out.num("trace.counter_s", counter_s);
    out.num("trace.overhead_s", traced_wall + counter_s - served.entry_s);
    out.num("unattributed_s", traced_wall - attributed);

    probes::run(
        &ProbeSizes {
            config: &config(args)?,
            dags: &generate(args)?.2,
            queue_depth: d.queue_peak as usize,
        },
        out,
    )
}
