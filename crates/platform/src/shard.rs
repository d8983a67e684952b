//! Sharded fleet replay: fleet-scale traces across OS threads with a
//! deterministic merge.
//!
//! # Model
//!
//! A fleet trace (e.g. the Azure-style workload of `xanadu-workloads`)
//! is a set of workflows, each with its own trigger schedule and — by
//! construction in every fleet experiment — its own function namespace,
//! so warm sandboxes are never shared across workflows and no event
//! ever passes from one workflow to another. That makes the *workflow*
//! the natural unit of parallelism: each becomes a **logical shard**
//! owning a full [`Platform`] (event queue, worker pool, host registry,
//! RNG streams).
//!
//! The logical shards wait in **one queue**, in shard-index order. Each
//! of `threads` OS threads takes the next shard, builds its platform,
//! steps it through time windows until it is idle, finishes it and
//! moves its outputs into the run-wide vectors under one lock; then it
//! takes the next. A thread keeps one platform alive at a time, and a
//! shard's events never wait on another shard's. The windows only pace
//! the deterministic samples of the [`KernelProfile`] (`queue_peak`,
//! `windows`).
//!
//! # Determinism
//!
//! The merged [`PlatformReport`] is **byte-identical for any thread
//! count** (and any window width): each logical shard's simulation is a
//! self-contained deterministic event loop seeded from
//! `(seed, workflow-name)`, and the merge is canonical —
//!
//! * global request ids are assigned before the run by ordering *all*
//!   triggers by `(time, shard, local sequence)`, shards ordered by
//!   workflow name;
//! * each finished shard's results, worker records and traces are moved
//!   into run-wide vectors, results and traces under their global
//!   request ids;
//! * worker ids keep each shard's gaps and are offset by prefix sums of
//!   each shard's (max local id + 1), in the same shard order;
//! * results, worker records and traces are then sorted in place by
//!   their unique ids.
//!
//! Thread scheduling can only change which thread runs a shard and
//! when, never which events a shard sees or in what order.
//!
//! Note that a sharded replay is a different composition than feeding
//! the same fleet into one shared [`Platform`]: the single-platform run
//! interleaves all workflows through one RNG/pool/cluster, so its
//! report is *internally* deterministic but not byte-comparable with
//! the sharded one. The legacy path remains the default; sharding is
//! opt-in for fleet-scale runs (CLI `--shards`).

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use xanadu_chain::WorkflowDag;
use xanadu_sandbox::{WorkerId, WorkerRecord};
use xanadu_simcore::{RngStream, SimDuration, SimTime};

use crate::config::PlatformConfig;
use crate::hosts::ClusterReport;
use crate::obs::{MetricsRegistry, ObserverHandle};
use crate::result::{PlatformReport, RunResult};
use crate::sim::{Platform, PlatformError};
use crate::stream::{SloConfig, SloMonitor, StreamingAudit, StreamingConfig};
use crate::timeline::Trace;

/// One logical shard's input: a workflow and its trigger schedule.
#[derive(Debug, Clone)]
pub struct ShardWorkload {
    /// The workflow to deploy on this shard.
    pub dag: WorkflowDag,
    /// Trigger times (any order; the driver sorts them ascending).
    pub triggers: Vec<SimTime>,
}

/// Driver knobs for a sharded replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOptions {
    /// OS threads to spread logical shards over. Clamped to
    /// `[1, logical shards]`; the thread count never affects report
    /// bytes, only wall-clock time.
    pub threads: usize,
    /// Width of the time windows each shard is stepped through until it
    /// is idle. Must be non-zero. It sets only where the deterministic
    /// profile samples a shard ([`ShardProfile::queue_peak`],
    /// [`KernelProfile::windows`]); report bytes are identical at any
    /// width.
    pub window: SimDuration,
}

impl Default for ShardOptions {
    /// Single thread, one-minute windows.
    fn default() -> Self {
        ShardOptions {
            threads: 1,
            window: SimDuration::from_mins(1),
        }
    }
}

/// Optional per-shard telemetry attached by the driver. Everything here
/// streams in bounded memory and merges canonically, so enabling it
/// never perturbs report bytes or the byte-identity guarantee of its own
/// exports.
#[derive(Debug, Clone, Default)]
pub struct ShardTelemetry {
    /// Attach a [`StreamingAudit`] to every shard; the merged audit lands
    /// in [`ShardedRun::streaming`].
    pub streaming: Option<StreamingConfig>,
    /// Attach a collector-mode [`SloMonitor`] to every shard; the merged
    /// monitor lands in [`ShardedRun::slo`].
    pub slo: Option<SloConfig>,
    /// Attach a [`MetricsRegistry`] to every shard; the merged registry
    /// lands in [`ShardedRun::metrics`] (the report's own `metrics` field
    /// stays `None`, keeping report bytes unchanged).
    pub metrics: bool,
    /// Print a wall-clock-gated heartbeat (share of invocations whose
    /// shard has finished, events/sec, ETA) to stderr at most once a
    /// second. Diagnostics only: never written to any export.
    pub progress: bool,
}

/// Deterministic per-shard kernel counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardProfile {
    /// The workflow this shard simulated.
    pub workflow: String,
    /// Simulation events the shard processed.
    pub events: u64,
    /// High-water mark of [`Platform::pending_events`] sampled at the end
    /// of each window the shard stepped: queued events plus the triggers
    /// not yet pulled from the shard's arrival cursor.
    pub queue_peak: u64,
}

/// The kernel self-profile of a sharded replay: deterministic per-shard
/// counters plus wall-clock driver costs.
///
/// The per-shard counters (`shards`, `windows`) depend only on the event
/// streams and are safe to include in deterministic exports via
/// [`deterministic_registry`](Self::deterministic_registry). The
/// wall-clock numbers (`barrier_wait_us`, `merge_us`) vary run to run and
/// never enter an export.
#[derive(Debug, Clone, Default)]
pub struct KernelProfile {
    /// Per-shard counters, shard-index order.
    pub shards: Vec<ShardProfile>,
    /// OS threads the fleet ran on.
    pub threads: usize,
    /// The most windows any shard stepped before it was idle.
    pub windows: u64,
    /// Wall-clock microseconds each OS thread waited at the join, from
    /// finding the shard queue empty until every thread had finished
    /// (thread-id order; nondeterministic).
    pub barrier_wait_us: Vec<u64>,
    /// Wall-clock microseconds the canonical merge took after the threads
    /// joined: the worker-id rewrite, the in-place sorts of results,
    /// worker records and traces, and the telemetry and cluster folds
    /// (nondeterministic). The hand-over of each shard's outputs when it
    /// finishes is part of the drive, not of this figure. perfbench's
    /// ledger-only `shard.merge_s` reads it.
    pub merge_us: u64,
}

impl KernelProfile {
    /// Total events processed across all shards.
    pub fn events(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
    }

    /// Largest queue high-water mark across shards.
    pub fn queue_peak(&self) -> u64 {
        self.shards.iter().map(|s| s.queue_peak).max().unwrap_or(0)
    }

    /// The deterministic subset as `kernel.*` counters, suitable for
    /// merging into a metrics export without breaking byte identity.
    pub fn deterministic_registry(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::default();
        registry.incr("kernel.shards", self.shards.len() as u64);
        registry.incr("kernel.windows", self.windows);
        registry.incr("kernel.events", self.events());
        registry.incr("kernel.queue_peak", self.queue_peak());
        registry
    }
}

/// Outcome of a sharded replay.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// The canonically merged report: results in global-request-id
    /// order, worker ids offset by shard prefix sums (each shard's id
    /// gaps kept), `metrics` always `None`. Byte-identical for any
    /// `threads`/`window`. Its vectors are the ones each shard moved its
    /// outputs into when it finished, sorted in place.
    pub report: PlatformReport,
    /// Per-request orchestration timelines keyed by global request id,
    /// ascending. Empty when the config disables
    /// [`record_traces`](PlatformConfig::record_traces).
    pub traces: Vec<(u64, Trace)>,
    /// Number of logical shards (= workflows) the fleet was split into.
    pub logical_shards: usize,
    /// Total simulation events processed across all shards.
    pub events_processed: u64,
    /// Merged streaming audit (exemplar ids remapped to global request
    /// ids), when [`ShardTelemetry::streaming`] was set.
    pub streaming: Option<StreamingAudit>,
    /// Merged SLO collector, when [`ShardTelemetry::slo`] was set. Call
    /// [`SloMonitor::report`] to evaluate it.
    pub slo: Option<SloMonitor>,
    /// Merged per-shard metrics, when [`ShardTelemetry::metrics`] was
    /// set.
    pub metrics: Option<MetricsRegistry>,
    /// Kernel self-profile (always populated).
    pub profile: KernelProfile,
}

/// Largest local worker id a shard may hand over: the shard index takes
/// the high 32 bits of a worker id until [`merge`] rewrites it.
const LOCAL_WORKER_MAX: u64 = u32::MAX as u64;

/// A shard's id translation for the hand-off.
struct ShardIds {
    /// Index in name-sorted shard order (the canonical merge order).
    shard: usize,
    /// Global request id of each local request, indexed by local id.
    global: Vec<u64>,
}

impl ShardIds {
    fn result(&self, mut result: RunResult) -> RunResult {
        result.request = self.global[result.request as usize];
        result
    }

    fn trace(&self, (local, trace): (u64, Trace)) -> (u64, Trace) {
        (self.global[local as usize], trace)
    }

    /// Puts the shard index in the id's high 32 bits.
    fn record(&self, mut record: WorkerRecord) -> WorkerRecord {
        assert!(
            record.id.0 <= LOCAL_WORKER_MAX,
            "shard {} worker id {} does not fit in 32 bits",
            self.shard,
            record.id.0
        );
        record.id = WorkerId((self.shard as u64) << 32 | record.id.0);
        record
    }
}

/// Everything a worker thread needs to build and drive one shard.
struct ShardInput {
    ids: ShardIds,
    name: String,
    dag: WorkflowDag,
    triggers: Vec<SimTime>,
}

/// What a finished shard leaves for the merge besides its results,
/// worker records and traces.
struct ShardOutput {
    index: usize,
    name: String,
    events: u64,
    queue_peak: u64,
    windows: u64,
    cluster: Option<ClusterReport>,
    streaming: Option<StreamingAudit>,
    slo: Option<SloMonitor>,
    metrics: Option<MetricsRegistry>,
}

/// The run-wide home of every output. Shard threads move each finished
/// shard's results, worker records and traces in, worker ids carrying
/// the shard index in their high 32 bits until [`merge`] rewrites them,
/// and push what else the merge reads.
#[derive(Default)]
struct Outputs {
    results: Vec<RunResult>,
    records: Vec<WorkerRecord>,
    traces: Vec<(u64, Trace)>,
    shards: Vec<ShardOutput>,
}

/// What the shard threads share: the queue of shards not yet taken, in
/// shard-index order, and the run-wide outputs.
struct Fleet<'a> {
    base: &'a PlatformConfig,
    telemetry: &'a ShardTelemetry,
    window: SimDuration,
    invocations: usize,
    start: Instant,
    queue: Mutex<std::vec::IntoIter<ShardInput>>,
    outputs: Mutex<Outputs>,
}

/// Replays a fleet of independent workflows as logical shards over
/// `opts.threads` OS threads and merges the outcome deterministically.
///
/// Each workflow runs on its own [`Platform`] cloned from `base` with
/// per-shard seeds derived from `(base.seed, workflow name)` (and
/// likewise for the fault seed), so adding, removing or renaming one
/// workflow never perturbs the others' simulations.
///
/// # Errors
///
/// [`PlatformError::AlreadyDeployed`] if two workloads share a
/// workflow name — shards are keyed by name, so duplicates would
/// collide in the merge — and [`PlatformError::LateTrigger`] if a
/// trigger falls past [`SimTime::LAST_TRIGGER`]. Both are found before
/// any shard thread starts.
///
/// # Example
///
/// ```
/// use xanadu_chain::{linear_chain, FunctionSpec};
/// use xanadu_core::speculation::ExecutionMode;
/// use xanadu_platform::shard::{replay_sharded, ShardOptions, ShardWorkload};
/// use xanadu_platform::PlatformConfig;
/// use xanadu_simcore::SimTime;
///
/// let workloads: Vec<ShardWorkload> = (0..4)
///     .map(|i| ShardWorkload {
///         dag: linear_chain(
///             &format!("wf{i}"),
///             3,
///             &FunctionSpec::new(format!("wf{i}-f")).service_ms(300.0),
///         )
///         .unwrap(),
///         triggers: vec![SimTime::from_secs(i)],
///     })
///     .collect();
/// let config = PlatformConfig::for_mode(ExecutionMode::Jit, 42);
/// let run = replay_sharded(&config, workloads, &ShardOptions::default()).unwrap();
/// assert_eq!(run.report.results.len(), 4);
/// assert_eq!(run.logical_shards, 4);
/// ```
pub fn replay_sharded(
    base: &PlatformConfig,
    workloads: Vec<ShardWorkload>,
    opts: &ShardOptions,
) -> Result<ShardedRun, PlatformError> {
    replay_sharded_with(base, workloads, opts, &ShardTelemetry::default())
}

/// [`replay_sharded`] with per-shard telemetry: streaming audits, SLO
/// collectors and metrics registries are attached to every shard's
/// platform and merged canonically into the [`ShardedRun`].
///
/// The merged report bytes are identical to a telemetry-free run — the
/// observers only *read* the event stream — and every telemetry export
/// is itself byte-identical at any `threads`/`window` width.
///
/// Every result, worker record and trace has one home: global request
/// ids are fixed before the shard threads start, each thread moves a
/// shard's outputs into the run's vectors when the shard finishes, and
/// after the threads join those vectors are sorted in place. Nothing the
/// size of the run is allocated after the drive.
pub fn replay_sharded_with(
    base: &PlatformConfig,
    workloads: Vec<ShardWorkload>,
    opts: &ShardOptions,
    telemetry: &ShardTelemetry,
) -> Result<ShardedRun, PlatformError> {
    assert!(
        opts.window > SimDuration::ZERO,
        "shard window must be non-zero"
    );
    // Canonical shard order: by workflow name. Everything downstream
    // (seeds, global ids, worker-id offsets) keys off this order, so the
    // caller's workload order is irrelevant to the output.
    let mut inputs: Vec<ShardInput> = workloads
        .into_iter()
        .map(|w| ShardInput {
            ids: ShardIds {
                shard: 0,
                global: Vec::with_capacity(w.triggers.len()),
            },
            name: w.dag.name().to_string(),
            dag: w.dag,
            triggers: {
                let mut t = w.triggers;
                t.sort();
                t
            },
        })
        .collect();
    inputs.sort_by(|a, b| a.name.cmp(&b.name));
    for pair in inputs.windows(2) {
        if pair[0].name == pair[1].name {
            return Err(PlatformError::AlreadyDeployed(pair[0].name.clone()));
        }
    }
    for input in &inputs {
        if let Some(&at) = input
            .triggers
            .last()
            .filter(|&&at| at > SimTime::LAST_TRIGGER)
        {
            return Err(PlatformError::LateTrigger {
                workflow: input.name.clone(),
                at,
            });
        }
    }
    for (i, input) in inputs.iter_mut().enumerate() {
        input.ids.shard = i;
    }
    let logical_shards = inputs.len();
    if logical_shards == 0 {
        return Ok(ShardedRun {
            report: PlatformReport::default(),
            traces: Vec::new(),
            logical_shards: 0,
            events_processed: 0,
            streaming: telemetry.streaming.map(StreamingAudit::new),
            slo: telemetry.slo.clone().map(SloMonitor::collector),
            metrics: telemetry.metrics.then(MetricsRegistry::new),
            profile: KernelProfile::default(),
        });
    }
    assign_global_ids(&mut inputs);
    let invocations = inputs.iter().map(|i| i.triggers.len()).sum();

    let threads = opts.threads.clamp(1, logical_shards);
    let fleet = Fleet {
        base,
        telemetry,
        window: opts.window,
        invocations,
        start: Instant::now(),
        queue: Mutex::new(inputs.into_iter()),
        outputs: Mutex::new(Outputs {
            results: Vec::with_capacity(invocations),
            shards: Vec::with_capacity(logical_shards),
            ..Outputs::default()
        }),
    };
    let idle_from: Vec<Instant> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let fleet = &fleet;
                scope.spawn(move || fleet.drive(tid == 0 && telemetry.progress))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });
    let joined = Instant::now();
    let outputs = fleet
        .outputs
        .into_inner()
        .expect("shard threads joined without panicking");

    let mut run = merge(outputs);
    run.profile.threads = threads;
    run.profile.barrier_wait_us = idle_from
        .iter()
        .map(|&idle| joined.duration_since(idle).as_micros() as u64)
        .collect();
    run.profile.merge_us = joined.elapsed().as_micros() as u64;
    Ok(run)
}

/// Global request ids: every trigger of the fleet ranked by `(time,
/// shard, local sequence)`. Each shard's triggers are sorted, so this is
/// a k-way merge of the shards' schedules.
fn assign_global_ids(inputs: &mut [ShardInput]) {
    let mut heads: BinaryHeap<Reverse<(SimTime, usize, usize)>> = inputs
        .iter()
        .filter_map(|i| i.triggers.first().map(|&at| Reverse((at, i.ids.shard, 0))))
        .collect();
    let mut next = 0u64;
    // A shard's next trigger replaces its head in place (one sift down);
    // its head leaves the heap only when its schedule ends.
    while let Some(mut head) = heads.peek_mut() {
        let Reverse((_, shard, local)) = *head;
        let input = &mut inputs[shard];
        input.ids.global.push(next);
        next += 1;
        match input.triggers.get(local + 1) {
            Some(&at) => *head = Reverse((at, shard, local + 1)),
            None => {
                PeekMut::pop(head);
            }
        }
    }
}

impl Fleet<'_> {
    /// Thread body: takes shards off the queue and runs each to idle
    /// until the queue is empty. Returns when it found the queue empty,
    /// where its wait at the join begins. With `heartbeat`, prints a
    /// progress line after a shard finishes, at most once a second.
    fn drive(&self, heartbeat: bool) -> Instant {
        let next = || {
            let mut queue = self
                .queue
                .lock()
                .expect("no shard thread panics taking a shard");
            queue.next()
        };
        let mut last_beat = self.start;
        while let Some(input) = next() {
            self.run(input);
            if heartbeat && last_beat.elapsed() >= Duration::from_secs(1) {
                last_beat = Instant::now();
                self.heartbeat();
            }
        }
        Instant::now()
    }

    /// Builds the shard's platform, steps it window by window until it is
    /// idle — nothing queued and no trigger left to pull, so no event can
    /// reach it again — finishes it and moves its outputs into the
    /// run-wide vectors.
    fn run(&self, input: ShardInput) {
        let ShardInput {
            ids,
            name,
            dag,
            triggers,
        } = input;
        let mut config = self.base.clone();
        // FNV-stable per-shard sub-seeds: a shard's draws depend only on
        // the master seed and its own name, never on fleet composition or
        // thread placement.
        config.seed = RngStream::derive(self.base.seed, &name).next_u64();
        config.faults.seed = RngStream::derive(self.base.faults.seed, &name).next_u64();
        let mut platform = Platform::new(config);
        platform
            .deploy(dag)
            .expect("fresh platform has no deployments");
        platform
            .trigger_arrivals(&name, triggers)
            .expect("workflow was just deployed");
        // Telemetry observers: an SLO collector (evaluation happens once,
        // post-merge), the streaming audit and the metrics registry, each
        // read back through its handle.
        let telemetry = self.telemetry;
        let streaming = telemetry
            .streaming
            .map(|cfg| platform.attach_observer(StreamingAudit::new(cfg)));
        let slo = telemetry
            .slo
            .clone()
            .map(|cfg| platform.attach_observer(SloMonitor::collector(cfg)));
        let metrics = telemetry
            .metrics
            .then(|| platform.attach_observer(MetricsRegistry::new()));

        let (mut windows, mut events, mut queue_peak) = (0, 0, 0);
        let mut window_end = SimTime::ZERO;
        loop {
            windows += 1;
            window_end += self.window;
            events += platform.step_window(window_end);
            let pending = platform.pending_events() as u64;
            queue_peak = queue_peak.max(pending);
            if pending == 0 {
                break;
            }
        }
        let traces: Vec<(u64, Trace)> = platform.drain_traces().collect();
        // `finish` prices the keep-alive teardown from the clock, which
        // stopped at the shard's last event whatever the window width.
        let report = platform.finish();
        let output = ShardOutput {
            index: ids.shard,
            name,
            events,
            queue_peak,
            windows,
            cluster: report.cluster,
            streaming: streaming.map(|h| {
                let mut audit = h.into_inner();
                audit.remap_exemplar_requests(|local| ids.global[local as usize]);
                audit
            }),
            slo: slo.map(ObserverHandle::into_inner),
            metrics: metrics.map(ObserverHandle::into_inner),
        };
        let mut outputs = self
            .outputs
            .lock()
            .expect("no shard thread panics while handing outputs over");
        outputs
            .results
            .extend(report.results.into_iter().map(|r| ids.result(r)));
        outputs
            .records
            .extend(report.worker_records.into_iter().map(|r| ids.record(r)));
        outputs
            .traces
            .extend(traces.into_iter().map(|t| ids.trace(t)));
        outputs.shards.push(output);
    }

    /// One stderr progress line. Wall-clock only — never touches exports.
    fn heartbeat(&self) {
        let (done, shards, events) = {
            let outputs = self
                .outputs
                .lock()
                .expect("no shard thread panics while handing outputs over");
            let events: u64 = outputs.shards.iter().map(|s| s.events).sum();
            (outputs.results.len(), outputs.shards.len(), events)
        };
        let elapsed = self.start.elapsed().as_secs_f64().max(1e-9);
        let frac = done as f64 / self.invocations.max(1) as f64;
        let eta = if frac > 0.0 && frac < 1.0 {
            format!(", eta ~{:.0}s", elapsed * (1.0 - frac) / frac)
        } else {
            String::new()
        };
        eprintln!(
            "replay: {:>3.0}% of invocations in finished shards ({done} of {}, {shards} shards), \
             {events} events @ {:.0}/s{eta}",
            frac * 100.0,
            self.invocations,
            events as f64 / elapsed,
        );
    }
}

/// Canonical merge of the run-wide outputs. It allocates nothing the size
/// of the run: results, records and traces are rewritten and sorted in
/// place.
fn merge(outputs: Outputs) -> ShardedRun {
    let Outputs {
        mut results,
        mut records,
        mut traces,
        mut shards,
    } = outputs;
    shards.sort_unstable_by_key(|o| o.index);
    // Worker ids are not dense: an id taken for a speculative placement
    // that tenant admission refused has no record. Each shard's ids keep
    // their gaps and are offset by the earlier shards' (max id + 1).
    let untag = |id: WorkerId| ((id.0 >> 32) as usize, id.0 & LOCAL_WORKER_MAX);
    let mut offsets = vec![0u64; shards.len()];
    for record in &records {
        let (shard, local) = untag(record.id);
        offsets[shard] = offsets[shard].max(local + 1);
    }
    let mut next = 0u64;
    for offset in &mut offsets {
        let width = *offset;
        *offset = next;
        next += width;
    }
    for record in &mut records {
        let (shard, local) = untag(record.id);
        record.id = WorkerId(offsets[shard] + local);
    }
    // Every id is unique, so unstable sorts give the canonical order.
    results.sort_unstable_by_key(|r| r.request);
    records.sort_unstable_by_key(|r| r.id);
    traces.sort_unstable_by_key(|&(gid, _)| gid);

    let logical_shards = shards.len();
    let mut events_processed = 0u64;
    let mut windows = 0u64;
    let mut shard_profiles: Vec<ShardProfile> = Vec::with_capacity(logical_shards);
    let mut streaming: Option<StreamingAudit> = None;
    let mut slo: Option<SloMonitor> = None;
    let mut metrics: Option<MetricsRegistry> = None;
    let mut cluster: Option<ClusterReport> = None;
    for out in shards {
        events_processed += out.events;
        windows = windows.max(out.windows);
        shard_profiles.push(ShardProfile {
            workflow: out.name,
            events: out.events,
            queue_peak: out.queue_peak,
        });
        // Telemetry merges in shard-index order — the same canonical
        // order as everything above, so merged telemetry is as
        // thread-invariant as the report itself. Every logical shard
        // runs its own replica of the configured cluster, so host rows
        // fold by id and counters sum.
        fold(&mut streaming, out.streaming, StreamingAudit::merge_from);
        fold(&mut slo, out.slo, SloMonitor::merge_from);
        fold(&mut metrics, out.metrics, MetricsRegistry::merge_from);
        fold(&mut cluster, out.cluster, ClusterReport::merge_from);
    }

    ShardedRun {
        report: PlatformReport {
            results,
            worker_records: records,
            cluster,
        },
        traces,
        logical_shards,
        events_processed,
        streaming,
        slo,
        metrics,
        profile: KernelProfile {
            shards: shard_profiles,
            threads: 0,
            windows,
            barrier_wait_us: Vec::new(),
            merge_us: 0,
        },
    }
}

/// Folds `next` into `acc`, or makes it the accumulator.
fn fold<T>(acc: &mut Option<T>, next: Option<T>, merge_from: impl Fn(&mut T, &T)) {
    match (acc.as_mut(), next) {
        (_, None) => {}
        (None, Some(next)) => *acc = Some(next),
        (Some(acc), Some(next)) => merge_from(acc, &next),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::faults::FaultConfig;
    use crate::hosts::PlacementPolicy;
    use xanadu_chain::{linear_chain, FunctionSpec};
    use xanadu_core::policy::{MpcConfig, PolicySpec};
    use xanadu_core::speculation::ExecutionMode;

    fn fleet(workflows: usize, triggers_each: usize) -> Vec<ShardWorkload> {
        (0..workflows)
            .map(|i| {
                let name = format!("wf{i}");
                let template = FunctionSpec::new(format!("{name}-f")).service_ms(300.0);
                ShardWorkload {
                    dag: linear_chain(&name, 4, &template).expect("valid chain"),
                    triggers: (0..triggers_each)
                        .map(|k| SimTime::from_secs((k * 40 + i) as u64))
                        .collect(),
                }
            })
            .collect()
    }

    fn run_with(threads: usize, window_secs: u64, faults: bool) -> ShardedRun {
        let mut builder = PlatformConfig::builder().for_mode(ExecutionMode::Jit, 77);
        if faults {
            builder = builder.faults(FaultConfig::with_rate(0.25, 5));
        }
        let config = builder.build().expect("valid config");
        let opts = ShardOptions {
            threads,
            window: SimDuration::from_secs(window_secs),
        };
        replay_sharded(&config, fleet(5, 6), &opts).expect("replay succeeds")
    }

    #[test]
    fn thread_count_never_changes_report_bytes() {
        let baseline = run_with(1, 60, false);
        let expected = serde_json::to_string(&baseline.report).unwrap();
        for threads in [2, 3, 5, 8] {
            let run = run_with(threads, 60, false);
            assert_eq!(
                serde_json::to_string(&run.report).unwrap(),
                expected,
                "threads={threads}"
            );
            assert_eq!(run.events_processed, baseline.events_processed);
            assert_eq!(run.traces, baseline.traces);
        }
    }

    #[test]
    fn window_width_never_changes_report_bytes() {
        let narrow = run_with(3, 1, false);
        let wide = run_with(3, 3600, false);
        assert_eq!(
            serde_json::to_string(&narrow.report).unwrap(),
            serde_json::to_string(&wide.report).unwrap()
        );
    }

    #[test]
    fn deterministic_under_faults() {
        let a = run_with(1, 60, true);
        let b = run_with(4, 60, true);
        assert_eq!(
            serde_json::to_string(&a.report).unwrap(),
            serde_json::to_string(&b.report).unwrap()
        );
        let crashed = a.report.worker_records.iter().filter(|r| r.crashed).count();
        assert!(crashed > 0, "fault rate 0.25 should crash some workers");
    }

    #[test]
    fn global_request_ids_follow_trigger_order() {
        let run = run_with(2, 60, false);
        assert_eq!(run.logical_shards, 5);
        assert_eq!(run.report.results.len(), 30);
        for (gid, r) in run.report.results.iter().enumerate() {
            assert_eq!(r.request, gid as u64);
        }
        for pair in run.report.results.windows(2) {
            assert!(pair[0].trigger <= pair[1].trigger, "sorted by trigger");
        }
    }

    #[test]
    fn worker_ids_are_dense_after_merge() {
        let run = run_with(3, 60, false);
        // Dense only without tenants (here, without any cluster): tenant
        // admission can refuse a speculative placement after its worker
        // id was taken, which leaves a gap (see `gaps_config`).
        assert!(run.report.cluster.is_none(), "precondition: no tenants");
        for (i, r) in run.report.worker_records.iter().enumerate() {
            assert_eq!(r.id.0, i as u64, "dense remapped worker ids");
        }
    }

    /// Each workload on its own platform with the shard's derived seeds
    /// and its whole schedule queued up front with `trigger_at`, in shard
    /// order. Returns each shard's name, sorted triggers and platform.
    fn up_front_platforms(
        base: &PlatformConfig,
        mut workloads: Vec<ShardWorkload>,
    ) -> Vec<(String, Vec<SimTime>, Platform)> {
        workloads.sort_by(|a, b| a.dag.name().cmp(b.dag.name()));
        workloads
            .into_iter()
            .map(|w| {
                let name = w.dag.name().to_string();
                let mut config = base.clone();
                config.seed = RngStream::derive(base.seed, &name).next_u64();
                config.faults.seed = RngStream::derive(base.faults.seed, &name).next_u64();
                let mut platform = Platform::new(config);
                platform.deploy(w.dag).unwrap();
                let mut triggers = w.triggers;
                triggers.sort();
                for &at in &triggers {
                    platform.trigger_at(&name, at).unwrap();
                }
                (name, triggers, platform)
            })
            .collect()
    }

    /// The reference the shard hand-off is checked against: the
    /// [`up_front_platforms`] run to idle and finished, then concatenated
    /// in shard order, stable-sorted by global request id (all triggers
    /// ranked by `(time, shard, local)`), with worker ids offset by
    /// prefix sums of each shard's max id + 1.
    fn reference_merge(
        base: &PlatformConfig,
        workloads: Vec<ShardWorkload>,
    ) -> (PlatformReport, Vec<(u64, Trace)>) {
        let shards: Vec<_> = up_front_platforms(base, workloads)
            .into_iter()
            .map(|(_, triggers, mut platform)| {
                platform.run_until_idle();
                let traces: Vec<(u64, Trace)> = (0..triggers.len() as u64)
                    .filter_map(|req| platform.trace(req).cloned().map(|t| (req, t)))
                    .collect();
                (triggers, platform.finish(), traces)
            })
            .collect();
        let global = global_ids(shards.iter().map(|(triggers, _, _)| triggers));

        let mut merged = PlatformReport::default();
        let mut traces = Vec::new();
        let mut offset = 0u64;
        for (shard, (_, report, shard_traces)) in shards.into_iter().enumerate() {
            let map = &global[shard];
            for mut r in report.results {
                r.request = map[r.request as usize];
                merged.results.push(r);
            }
            traces.extend(shard_traces.into_iter().map(|(l, t)| (map[l as usize], t)));
            let next = report
                .worker_records
                .last()
                .map_or(offset, |r| offset + r.id.0 + 1);
            for mut r in report.worker_records {
                r.id = WorkerId(r.id.0 + offset);
                merged.worker_records.push(r);
            }
            offset = next;
            if let Some(cluster) = report.cluster {
                match &mut merged.cluster {
                    None => merged.cluster = Some(cluster),
                    Some(acc) => acc.merge_from(&cluster),
                }
            }
        }
        merged.results.sort_by_key(|r| r.request);
        traces.sort_by_key(|&(gid, _)| gid);
        (merged, traces)
    }

    /// Each shard's local request id → global id: every trigger ranked
    /// by `(time, shard, local)`.
    fn global_ids<'a>(schedules: impl Iterator<Item = &'a Vec<SimTime>>) -> Vec<Vec<u64>> {
        let mut global: Vec<Vec<u64>> = Vec::new();
        let mut order: Vec<(SimTime, usize, usize)> = Vec::new();
        for (shard, triggers) in schedules.enumerate() {
            order.extend(triggers.iter().enumerate().map(|(l, &at)| (at, shard, l)));
            global.push(vec![0; triggers.len()]);
        }
        order.sort();
        for (gid, &(_, shard, local)) in order.iter().enumerate() {
            global[shard][local] = gid as u64;
        }
        global
    }

    /// The streaming audit and metrics registry of the
    /// [`up_front_platforms`], each observed, run to idle and finished,
    /// then folded in shard order with exemplars re-keyed to global ids:
    /// the reference for the telemetry [`replay_sharded_with`] merges.
    fn reference_telemetry(
        base: &PlatformConfig,
        workloads: Vec<ShardWorkload>,
        exemplars: usize,
    ) -> (StreamingAudit, MetricsRegistry) {
        let shards: Vec<_> = up_front_platforms(base, workloads)
            .into_iter()
            .map(|(_, triggers, mut platform)| {
                let audit =
                    platform.attach_observer(StreamingAudit::new(StreamingConfig { exemplars }));
                let metrics = platform.attach_observer(MetricsRegistry::new());
                platform.finish();
                (triggers, audit.snapshot(), metrics.snapshot())
            })
            .collect();
        let global = global_ids(shards.iter().map(|(triggers, _, _)| triggers));
        let (mut audit, mut metrics) = (None, None);
        for ((_, mut shard_audit, shard_metrics), map) in shards.into_iter().zip(&global) {
            shard_audit.remap_exemplar_requests(|local| map[local as usize]);
            fold(&mut audit, Some(shard_audit), StreamingAudit::merge_from);
            fold(
                &mut metrics,
                Some(shard_metrics),
                MetricsRegistry::merge_from,
            );
        }
        (audit.unwrap(), metrics.unwrap())
    }

    /// One 2048 MB host shared by 2 tenants: speculative placements the
    /// tenant's fair share refuses leave gaps in the worker ids.
    fn gaps_config() -> PlatformConfig {
        PlatformConfig::builder()
            .for_mode(ExecutionMode::Jit, 77)
            .cluster(ClusterConfig::uniform(PlacementPolicy::default(), 1, 2048).with_tenants(2))
            .build()
            .unwrap()
    }

    /// perfbench's chaos mix: MPC planning, affinity placement on 4
    /// hosts, 2 tenants, worker faults and host failures.
    fn chaos_config() -> PlatformConfig {
        PlatformConfig::builder()
            .for_mode(ExecutionMode::Jit, 77)
            .policy(PolicySpec::Mpc(MpcConfig::default()))
            .cluster(ClusterConfig::uniform(PlacementPolicy::Affinity, 4, 4096).with_tenants(2))
            .faults(FaultConfig {
                host_failure_rate: 0.01,
                ..FaultConfig::with_rate(0.05, 5)
            })
            .build()
            .unwrap()
    }

    #[test]
    fn handed_over_outputs_equal_the_reference_merge() {
        let configs = [
            ("jit", PlatformConfig::for_mode(ExecutionMode::Jit, 77)),
            ("chaos", chaos_config()),
            ("gaps", gaps_config()),
        ];
        for (label, config) in configs {
            let (expected, expected_traces) = reference_merge(&config, fleet(6, 8));
            let expected_json = serde_json::to_string(&expected).unwrap();
            assert_eq!(expected_traces.len(), 48, "{label}: a trace per request");
            if label == "chaos" {
                assert!(expected.worker_records.iter().any(|r| r.crashed));
            }
            if label == "gaps" {
                let max_id = expected.worker_records.last().unwrap().id.0;
                assert!(
                    max_id + 1 > expected.worker_records.len() as u64,
                    "the gaps config leaves worker-id gaps"
                );
            }
            for threads in [1, 2, 3, 5, 8] {
                for window_secs in [1, 60, 3600] {
                    let opts = ShardOptions {
                        threads,
                        window: SimDuration::from_secs(window_secs),
                    };
                    let run = replay_sharded(&config, fleet(6, 8), &opts).unwrap();
                    let at = format!("{label}, threads={threads}, window={window_secs}s");
                    assert_eq!(
                        serde_json::to_string(&run.report).unwrap(),
                        expected_json,
                        "report at {at}"
                    );
                    assert!(run.traces == expected_traces, "traces at {at}");
                }
            }
        }
    }

    /// `fleet(3, 8)`, whose triggers run to 282 s, plus a workflow
    /// triggered only at 0 and 1 s: its shard goes idle, and is finished,
    /// hundreds of one-second windows before the rest of the fleet.
    fn early_idle_fleet() -> Vec<ShardWorkload> {
        let mut workloads = fleet(3, 8);
        let template = FunctionSpec::new("early-f").service_ms(300.0);
        workloads.push(ShardWorkload {
            dag: linear_chain("early", 4, &template).expect("valid chain"),
            triggers: vec![SimTime::from_secs(0), SimTime::from_secs(1)],
        });
        workloads
    }

    #[test]
    fn shards_finished_while_the_fleet_runs_equal_the_reference_merge() {
        let configs = [
            ("jit", PlatformConfig::for_mode(ExecutionMode::Jit, 77)),
            ("chaos", chaos_config()),
        ];
        let streaming = StreamingConfig { exemplars: 3 };
        for (label, config) in configs {
            let (expected, expected_traces) = reference_merge(&config, early_idle_fleet());
            let (audit, metrics) =
                reference_telemetry(&config, early_idle_fleet(), streaming.exemplars);
            let end_of = |workflow: &str| {
                let ends = expected.results.iter().filter(|r| &*r.workflow == workflow);
                ends.map(|r| r.end).max().unwrap()
            };
            assert!(
                end_of("early") + SimDuration::from_secs(200) < end_of("wf0"),
                "{label}: the early shard idles long before the fleet"
            );
            let expected_json = serde_json::to_string(&expected).unwrap();
            let audit_json = crate::export::streaming_json_string(&audit);
            let metrics_json = crate::export::metrics_json_string(&metrics);
            for threads in [1, 2] {
                let opts = ShardOptions {
                    threads,
                    window: SimDuration::from_secs(1),
                };
                let telemetry = ShardTelemetry {
                    streaming: Some(streaming),
                    metrics: true,
                    ..ShardTelemetry::default()
                };
                let run = replay_sharded_with(&config, early_idle_fleet(), &opts, &telemetry)
                    .expect("replay succeeds");
                let at = format!("{label}, threads={threads}");
                assert_eq!(
                    serde_json::to_string(&run.report).unwrap(),
                    expected_json,
                    "report at {at}"
                );
                assert!(run.traces == expected_traces, "traces at {at}");
                assert_eq!(
                    crate::export::streaming_json_string(run.streaming.as_ref().unwrap()),
                    audit_json,
                    "audit at {at}"
                );
                assert_eq!(
                    crate::export::metrics_json_string(run.metrics.as_ref().unwrap()),
                    metrics_json,
                    "metrics at {at}"
                );
            }
        }
    }

    /// Triggers that collide: every workflow fires three requests on
    /// each of four microseconds 0.4 s apart, shorter than a request
    /// lasts, so requests overlap within and across the bursts.
    fn colliding_fleet() -> Vec<ShardWorkload> {
        (0..3)
            .map(|i| {
                let name = format!("burst{i}");
                let template = FunctionSpec::new(format!("{name}-f")).service_ms(300.0);
                ShardWorkload {
                    dag: linear_chain(&name, 4, &template).expect("valid chain"),
                    triggers: (0..12u64)
                        .map(|k| SimTime::from_micros(1_000_000 + k / 3 * 400_000))
                        .collect(),
                }
            })
            .collect()
    }

    /// Per-shard `(events, queue_peak)` of the [`up_front_platforms`]
    /// stepped window by window with `step_window` until idle, sampling
    /// pending events at each window end as the driver does, and the
    /// most windows any of them stepped.
    fn up_front_profiles(
        base: &PlatformConfig,
        workloads: Vec<ShardWorkload>,
        window: SimDuration,
    ) -> (Vec<ShardProfile>, u64) {
        let mut most_windows = 0;
        let profiles = up_front_platforms(base, workloads)
            .into_iter()
            .map(|(workflow, _, mut platform)| {
                let (mut windows, mut events, mut queue_peak) = (0, 0, 0);
                let mut window_end = SimTime::ZERO;
                loop {
                    windows += 1;
                    window_end += window;
                    events += platform.step_window(window_end);
                    let pending = platform.pending_events() as u64;
                    queue_peak = queue_peak.max(pending);
                    if pending == 0 {
                        break;
                    }
                }
                most_windows = most_windows.max(windows);
                ShardProfile {
                    workflow,
                    events,
                    queue_peak,
                }
            })
            .collect();
        (profiles, most_windows)
    }

    #[test]
    fn pulled_triggers_pop_in_the_up_front_order() {
        let configs = [
            ("jit", PlatformConfig::for_mode(ExecutionMode::Jit, 77)),
            ("chaos", chaos_config()),
        ];
        for (label, config) in configs {
            let (expected, expected_traces) = reference_merge(&config, colliding_fleet());
            let expected_json = serde_json::to_string(&expected).unwrap();
            assert_eq!(expected.results.len(), 36, "{label}: every request ends");
            for window_secs in [1, 60] {
                let window = SimDuration::from_secs(window_secs);
                let (expected_profiles, _) = up_front_profiles(&config, colliding_fleet(), window);
                for threads in [1, 2] {
                    let opts = ShardOptions { threads, window };
                    let run = replay_sharded(&config, colliding_fleet(), &opts).unwrap();
                    let at = format!("{label}, threads={threads}, window={window_secs}s");
                    assert_eq!(
                        serde_json::to_string(&run.report).unwrap(),
                        expected_json,
                        "report at {at}"
                    );
                    assert!(run.traces == expected_traces, "traces at {at}");
                    assert_eq!(run.profile.shards, expected_profiles, "profile at {at}");
                }
            }
        }
    }

    /// One shard idles hundreds of one-second windows before the rest:
    /// the queue still reports every shard's reference profile, the most
    /// windows any shard stepped, and the same `kernel.*` bytes at any
    /// thread count.
    #[test]
    fn an_early_idle_shard_keeps_the_profile_at_any_width() {
        let configs = [
            ("jit", PlatformConfig::for_mode(ExecutionMode::Jit, 77)),
            ("chaos", chaos_config()),
        ];
        for (label, config) in configs {
            for window_secs in [1, 60] {
                let window = SimDuration::from_secs(window_secs);
                let (shards, windows) = up_front_profiles(&config, early_idle_fleet(), window);
                let early = shards.iter().find(|s| s.workflow == "early").unwrap();
                assert!(early.events > 0, "{label}: the early shard runs");
                let reference = KernelProfile {
                    shards,
                    windows,
                    ..KernelProfile::default()
                };
                let registry = reference.deterministic_registry();
                let expected = crate::export::metrics_json_string(&registry);
                if window_secs == 1 {
                    assert!(windows > 200, "{label}: the fleet steps {windows} windows");
                }
                for threads in [1, 2, 3, 8] {
                    let opts = ShardOptions { threads, window };
                    let run = replay_sharded(&config, early_idle_fleet(), &opts).unwrap();
                    let at = format!("{label}, threads={threads}, window={window_secs}s");
                    assert_eq!(run.profile.shards, reference.shards, "shards at {at}");
                    assert_eq!(run.profile.windows, windows, "windows at {at}");
                    assert_eq!(
                        crate::export::metrics_json_string(&run.profile.deterministic_registry()),
                        expected,
                        "kernel counters at {at}"
                    );
                }
            }
        }
    }

    #[test]
    fn traces_cover_every_request_and_respect_the_gate() {
        let run = run_with(2, 60, false);
        let ids: Vec<u64> = run.traces.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, (0..30).collect::<Vec<u64>>());

        let config = PlatformConfig::builder()
            .for_mode(ExecutionMode::Jit, 77)
            .record_traces(false)
            .build()
            .unwrap();
        let silent =
            replay_sharded(&config, fleet(2, 3), &ShardOptions::default()).expect("replay");
        assert!(silent.traces.is_empty());
        assert_eq!(silent.report.results.len(), 6);
    }

    fn run_with_telemetry(threads: usize) -> ShardedRun {
        let config = PlatformConfig::for_mode(ExecutionMode::Jit, 77);
        let opts = ShardOptions {
            threads,
            window: SimDuration::from_secs(60),
        };
        let telemetry = ShardTelemetry {
            streaming: Some(crate::stream::StreamingConfig { exemplars: 3 }),
            slo: Some(crate::stream::SloConfig::default()),
            metrics: true,
            progress: false,
        };
        replay_sharded_with(&config, fleet(5, 6), &opts, &telemetry).expect("replay succeeds")
    }

    #[test]
    fn telemetry_is_thread_invariant() {
        let baseline = run_with_telemetry(1);
        let summary = baseline.streaming.as_ref().unwrap().summary();
        assert_eq!(summary.requests, 30);
        let slo_report = baseline.slo.as_ref().unwrap().report();
        let metrics = baseline.metrics.clone().unwrap();
        assert!(metrics.counters["requests.completed"] == 30);
        for threads in [2, 4, 8] {
            let run = run_with_telemetry(threads);
            assert_eq!(
                run.streaming.as_ref().unwrap().summary(),
                summary,
                "threads={threads}"
            );
            assert_eq!(run.slo.as_ref().unwrap().report(), slo_report);
            assert_eq!(run.metrics.clone().unwrap(), metrics);
            let a: Vec<(u64, u64)> = baseline
                .streaming
                .as_ref()
                .unwrap()
                .exemplars()
                .iter()
                .map(|e| (e.request, e.end_to_end_us))
                .collect();
            let b: Vec<(u64, u64)> = run
                .streaming
                .as_ref()
                .unwrap()
                .exemplars()
                .iter()
                .map(|e| (e.request, e.end_to_end_us))
                .collect();
            assert_eq!(a, b, "exemplar reservoir is thread-invariant");
        }
    }

    #[test]
    fn telemetry_never_perturbs_report_bytes() {
        let plain = run_with(1, 60, false);
        let observed = run_with_telemetry(4);
        assert_eq!(
            serde_json::to_string(&plain.report).unwrap(),
            serde_json::to_string(&observed.report).unwrap()
        );
    }

    #[test]
    fn kernel_profile_counts_the_fleet() {
        let run = run_with_telemetry(3);
        assert_eq!(run.profile.shards.len(), 5);
        assert_eq!(run.profile.threads, 3);
        assert!(run.profile.windows > 0);
        assert_eq!(run.profile.events(), run.events_processed);
        assert_eq!(run.profile.barrier_wait_us.len(), 3);
        let names: Vec<&str> = run
            .profile
            .shards
            .iter()
            .map(|s| s.workflow.as_str())
            .collect();
        assert_eq!(
            names,
            ["wf0", "wf1", "wf2", "wf3", "wf4"],
            "canonical order"
        );
        let registry = run.profile.deterministic_registry();
        assert_eq!(registry.counters["kernel.shards"], 5);
        assert_eq!(registry.counters["kernel.events"], run.events_processed);
        assert!(registry.counters["kernel.queue_peak"] > 0);
    }

    #[test]
    fn exemplar_requests_use_global_ids() {
        let run = run_with_telemetry(2);
        let audit = run.streaming.as_ref().unwrap();
        for e in audit.exemplars() {
            assert!(e.request < 30, "global request id in range");
            let tree = e.span_tree();
            assert!(tree.root.name.contains(&format!("request {}", e.request)));
        }
    }

    #[test]
    fn duplicate_workflow_names_are_rejected() {
        let mut workloads = fleet(2, 1);
        workloads.push(workloads[0].clone());
        let config = PlatformConfig::for_mode(ExecutionMode::Jit, 1);
        let err = replay_sharded(&config, workloads, &ShardOptions::default()).unwrap_err();
        assert!(matches!(err, PlatformError::AlreadyDeployed(name) if name == "wf0"));
    }

    /// A trigger past the last simulable time is a typed error found
    /// before any shard thread starts (a shard that met it would panic),
    /// and the same fleet without it replays.
    #[test]
    fn late_triggers_are_refused_before_any_shard_runs() {
        let config = PlatformConfig::for_mode(ExecutionMode::Jit, 1);
        let late = SimTime::LAST_TRIGGER + SimDuration::from_micros(1);
        let mut workloads = fleet(2, 2);
        workloads[1].triggers.push(late);
        let err = replay_sharded(&config, workloads, &ShardOptions::default()).unwrap_err();
        assert_eq!(
            err,
            PlatformError::LateTrigger {
                workflow: "wf1".into(),
                at: late
            }
        );
        let run = replay_sharded(&config, fleet(2, 2), &ShardOptions::default()).unwrap();
        assert_eq!(run.report.results.len(), 4);
    }

    #[test]
    fn empty_fleet_yields_empty_report() {
        let config = PlatformConfig::for_mode(ExecutionMode::Jit, 1);
        let run = replay_sharded(&config, Vec::new(), &ShardOptions::default()).unwrap();
        assert_eq!(run.logical_shards, 0);
        assert!(run.report.results.is_empty());
        assert_eq!(run.events_processed, 0);
    }
}
