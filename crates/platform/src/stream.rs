//! Streaming telemetry: bounded-memory audits and windowed SLO gates.
//!
//! The batch audit ([`analysis`](crate::analysis)) reads a recorded
//! [`Trace`] per request; a fleet-scale replay cannot afford them — a
//! 1M-invocation run would retain a million timelines. This module
//! builds the *same* per-request traces online, fed by the typed
//! [`BusEvent`] stream through the [`Observer`] trait, and keeps only
//! what each finished request adds to the aggregates:
//!
//! - Each observer owns the request tracker the trace recorder also
//!   owns: it routes every event to the fold of the request it names,
//!   skips events outside every request's lifecycle, and holds one fold
//!   per in-flight request and nothing else.
//! - [`StreamingAudit`] reads each finished request's audit row off its
//!   trace into the shared [`Tally`] with fixed-bucket [`Histogram`]s as
//!   the sample sink, plus a deterministic reservoir of the K worst
//!   requests. An exemplar keeps its request's trace, the intervals and
//!   markers its [`SpanTree`] is read off, and nothing else is retained.
//! - [`SloMonitor`] folds finished requests into tumbling windows and
//!   evaluates [`DiffThresholds`] against the first non-empty window.
//!
//! Agreement with the exact audit is by construction: both read the same
//! traces through one [`Tally`], so every count and integer-microsecond
//! total is equal. Two things differ. Wasted CPU is summed in integer
//! microseconds here and as per-request `f64` milliseconds by the exact
//! audit, so the two agree up to float rounding. Latency *quantiles* are
//! bucket-interpolated from [`LATENCY_BUCKET_BOUNDS_MS`]-shaped
//! histograms, so a streaming quantile lands in (or adjacent to, on
//! bucket-boundary ties) the fixed bucket containing the exact order
//! statistic.
//!
//! Everything here merges canonically: per-shard state is a deterministic
//! function of the shard's event stream, and the sharded replay driver
//! merges shard states in canonical (workflow-name) shard order, so
//! exports are byte-identical at any `--shards`/`--jobs` width.

use crate::analysis::{
    drop_regression, pct_regression, recall, unused_deploys, DiffThresholds, MlpStats,
    RequestAudit, SampleSink, Tally, WasteStats, ABS_FLOOR_MS,
};
use crate::events::BusEvent;
use crate::obs::{Histogram, Observer, LATENCY_BUCKET_BOUNDS_MS};
use crate::timeline::{RequestTracker, SpanTree, Trace};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::ops::RangeBounds;
use xanadu_simcore::{SimDuration, SimTime};

// ---------------------------------------------------------------------
// StreamingAudit
// ---------------------------------------------------------------------

/// Configuration of a [`StreamingAudit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingConfig {
    /// Size of the worst-request exemplar reservoir (0 keeps none).
    pub exemplars: usize,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig { exemplars: 4 }
    }
}

/// One entry of the worst-request reservoir: the trace of a completed
/// request, kept so its [`SpanTree`] can be exported. Serializable so the
/// service tier can checkpoint the reservoir.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Exemplar {
    /// Request id (global after a sharded merge).
    pub request: u64,
    /// End-to-end latency, integer microseconds — the reservoir's sort
    /// key (descending, ties broken by ascending request id).
    pub end_to_end_us: u64,
    timeline: Trace,
}

impl Exemplar {
    /// The span decomposition of the exemplar's trace.
    pub fn span_tree(&self) -> SpanTree {
        SpanTree::from_trace(self.request, &self.timeline)
    }

    /// The reservoir's order: worst first, ties by ascending request id.
    fn rank(&self) -> (Reverse<u64>, u64) {
        (Reverse(self.end_to_end_us), self.request)
    }
}

/// JIT timing aggregates with streaming (histogram) distributions.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StreamingJitStats {
    /// Planned (non-on-demand) deployments that served an invocation.
    pub planned: u64,
    /// Of those, sandboxes ready after their invocation.
    pub late: u64,
    /// Sandboxes ready at or before their invocation.
    pub on_time: u64,
    /// Distribution of positive lateness (ms), late deployments only.
    pub late_ms: Histogram,
    /// Distribution of pre-warm slack (ms), on-time deployments only.
    pub slack_ms: Histogram,
}

/// The run-level aggregates a [`StreamingAudit`] reports — the
/// bounded-memory analogue of `AuditSummary`.
///
/// Counts (`requests`, `mlp`, `waste.deploys`, `jit.planned/late/on_time`)
/// and integer-microsecond component totals equal the exact audit's;
/// `waste.cpu_ms` and histogram means agree up to float rounding of the
/// accumulation order; quantiles are bucket-interpolated and agree
/// within one [`LATENCY_BUCKET_BOUNDS_MS`] bucket.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StreamingSummary {
    /// Completed requests folded in.
    pub requests: u64,
    /// End-to-end latency distribution.
    pub end_to_end: Histogram,
    /// Per-request exec-time distribution.
    pub exec: Histogram,
    /// Per-request cold-start-wait distribution.
    pub cold_start_wait: Histogram,
    /// Per-request warm-queueing distribution.
    pub queue_wait: Histogram,
    /// Per-request stall distribution.
    pub stall: Histogram,
    /// Total milliseconds attributed to execution.
    pub exec_ms: f64,
    /// Total milliseconds attributed to cold-start waits.
    pub cold_start_wait_ms: f64,
    /// Total milliseconds attributed to warm-dispatch queueing.
    pub queue_wait_ms: f64,
    /// Total milliseconds attributed to stalls.
    pub stall_ms: f64,
    /// MLP prediction quality (exact).
    pub mlp: MlpStats,
    /// Wasted-deploy accounting (exact).
    pub waste: WasteStats,
    /// JIT timing quality with streaming distributions.
    pub jit: StreamingJitStats,
}

/// The streaming sample sink: fixed-bucket latency histograms of
/// end-to-end latency, each critical-path component, and the lateness
/// and slack of planned deployments.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub(crate) struct Buckets {
    end_to_end: Histogram,
    exec: Histogram,
    cold_start_wait: Histogram,
    queue_wait: Histogram,
    stall: Histogram,
    late_ms: Histogram,
    slack_ms: Histogram,
}

impl SampleSink for Buckets {
    fn request(&mut self, r: &RequestAudit) {
        self.end_to_end.observe(r.end_to_end_ms());
        self.exec.observe(r.exec_us as f64 / 1000.0);
        self.cold_start_wait
            .observe(r.cold_start_wait_us as f64 / 1000.0);
        self.queue_wait.observe(r.queue_wait_us as f64 / 1000.0);
        self.stall.observe(r.stall_us as f64 / 1000.0);
    }

    fn jit(&mut self, late: bool, ms: f64) {
        let histogram = if late {
            &mut self.late_ms
        } else {
            &mut self.slack_ms
        };
        histogram.observe(ms);
    }
}

impl Buckets {
    fn merge_from(&mut self, other: &Buckets) {
        self.end_to_end.merge_from(&other.end_to_end);
        self.exec.merge_from(&other.exec);
        self.cold_start_wait.merge_from(&other.cold_start_wait);
        self.queue_wait.merge_from(&other.queue_wait);
        self.stall.merge_from(&other.stall);
        self.late_ms.merge_from(&other.late_ms);
        self.slack_ms.merge_from(&other.slack_ms);
    }
}

/// Everything a drained [`StreamingAudit`] holds: its state, and the
/// service tier's `serve/audit` checkpoint document. Checkpoint → restore
/// is lossless: floats round-trip through JSON via shortest-round-trip
/// formatting, so a restored audit continues byte-identically. The
/// document is flat: the tally's and the buckets' fields sit beside the
/// rest.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AuditCheckpoint {
    /// Exemplar-reservoir capacity the audit was configured with.
    pub exemplars_cap: usize,
    /// The counters the exact audit keeps too.
    #[serde(flatten)]
    pub tally: Tally,
    /// The latency distributions.
    #[serde(flatten)]
    pub(crate) buckets: Buckets,
    /// Wasted deploy CPU, integer microseconds.
    pub wasted_us: u64,
    /// The worst-request reservoir, worst first.
    pub exemplars: Vec<Exemplar>,
}

/// Bounded-memory audit over the live event stream.
///
/// Attach with `Platform::attach_observer(StreamingAudit::new(cfg))`; per
/// logical shard the state is a deterministic function of the shard's
/// event stream, and [`merge_from`](StreamingAudit::merge_from) folds
/// shard states in canonical order.
#[derive(Debug, Clone)]
pub struct StreamingAudit {
    tracker: RequestTracker,
    state: AuditCheckpoint,
}

impl Default for StreamingAudit {
    fn default() -> Self {
        StreamingAudit::new(StreamingConfig::default())
    }
}

impl StreamingAudit {
    /// An empty audit with the given configuration.
    pub fn new(config: StreamingConfig) -> Self {
        StreamingAudit::from_checkpoint(&AuditCheckpoint {
            exemplars_cap: config.exemplars,
            ..AuditCheckpoint::default()
        })
    }

    /// The configured exemplar-reservoir size.
    pub fn config(&self) -> StreamingConfig {
        StreamingConfig {
            exemplars: self.state.exemplars_cap,
        }
    }

    /// Requests currently in flight (bounded by concurrency; 0 once the
    /// platform has drained).
    pub fn in_flight(&self) -> usize {
        self.tracker.in_flight()
    }

    fn fold(&mut self, request: u64, trace: Trace) {
        let state = &mut self.state;
        let audit = RequestAudit::from_trace(request, &trace);
        state.tally.add(&audit, &mut state.buckets);
        state.wasted_us += unused_deploys(&trace).sum::<u64>();
        let exemplar = Exemplar {
            request,
            end_to_end_us: audit.end_to_end_us,
            timeline: trace,
        };
        // The reservoir stays sorted: a request enters at its rank, if
        // that rank is inside the capacity.
        let exemplars = &mut state.exemplars;
        let at = exemplars.partition_point(|e| e.rank() < exemplar.rank());
        if at < state.exemplars_cap {
            exemplars.insert(at, exemplar);
            exemplars.truncate(state.exemplars_cap);
        }
    }

    fn sort_exemplars(&mut self) {
        let exemplars = &mut self.state.exemplars;
        exemplars.sort_unstable_by_key(Exemplar::rank);
        exemplars.truncate(self.state.exemplars_cap);
    }

    /// The worst-request reservoir, worst first.
    pub fn exemplars(&self) -> &[Exemplar] {
        &self.state.exemplars
    }

    /// Rewrites exemplar request ids (the sharded merge maps shard-local
    /// ids to global trigger-order ids), then restores the canonical
    /// reservoir order.
    pub(crate) fn remap_exemplar_requests(&mut self, mut map: impl FnMut(u64) -> u64) {
        for e in &mut self.state.exemplars {
            e.request = map(e.request);
        }
        self.sort_exemplars();
    }

    /// Shifts every exemplar's request id up by `base`. The service tier
    /// runs each checkpoint epoch on a fresh platform whose trigger ids
    /// restart at 0; offsetting by the global request count restores
    /// stream-wide ids before epochs are merged.
    pub fn offset_requests(&mut self, base: u64) {
        self.remap_exemplar_requests(|r| r + base);
    }

    /// Folds another audit's aggregates into this one. Both must be
    /// drained (no in-flight requests) — callers merge per-shard audits
    /// after the fleet is idle, in canonical shard order.
    pub fn merge_from(&mut self, other: &StreamingAudit) {
        assert!(
            self.in_flight() == 0 && other.in_flight() == 0,
            "merging streaming audits with in-flight requests"
        );
        let (state, theirs) = (&mut self.state, &other.state);
        state.tally.merge_from(&theirs.tally);
        state.buckets.merge_from(&theirs.buckets);
        state.wasted_us += theirs.wasted_us;
        state.exemplars.extend(theirs.exemplars.iter().cloned());
        self.sort_exemplars();
    }

    /// The current run-level aggregates.
    pub fn summary(&self) -> StreamingSummary {
        let AuditCheckpoint {
            tally, buckets: b, ..
        } = &self.state;
        let [exec_ms, cold_start_wait_ms, queue_wait_ms, stall_ms] = tally.component_ms();
        StreamingSummary {
            requests: tally.requests,
            end_to_end: b.end_to_end.clone(),
            exec: b.exec.clone(),
            cold_start_wait: b.cold_start_wait.clone(),
            queue_wait: b.queue_wait.clone(),
            stall: b.stall.clone(),
            exec_ms,
            cold_start_wait_ms,
            queue_wait_ms,
            stall_ms,
            mlp: tally.mlp(),
            waste: WasteStats {
                deploys: tally.waste_deploys,
                cpu_ms: self.state.wasted_us as f64 / 1000.0,
            },
            jit: StreamingJitStats {
                planned: tally.jit_planned,
                late: tally.jit_late,
                on_time: tally.jit_on_time,
                late_ms: b.late_ms.clone(),
                slack_ms: b.slack_ms.clone(),
            },
        }
    }

    /// Captures the audit as a serializable checkpoint.
    ///
    /// # Panics
    /// If requests are still in flight — the service tier checkpoints
    /// only at drained epoch boundaries.
    pub fn checkpoint(&self) -> AuditCheckpoint {
        assert!(
            self.in_flight() == 0,
            "checkpointing a streaming audit with in-flight requests"
        );
        self.state.clone()
    }

    /// Rebuilds an audit from a checkpoint, with an empty in-flight
    /// tracker — the exact state [`checkpoint`](Self::checkpoint)
    /// captured.
    pub fn from_checkpoint(c: &AuditCheckpoint) -> StreamingAudit {
        StreamingAudit {
            tracker: RequestTracker::default(),
            state: c.clone(),
        }
    }
}

impl Observer for StreamingAudit {
    fn on_event(&mut self, at: SimTime, event: &BusEvent) {
        if let Some((request, trace)) = self.tracker.on_event(at, event) {
            self.fold(request, trace);
        }
    }
}

/// Index of the bucket a millisecond value falls into under the standard
/// latency bounds (the overflow bucket is `bounds.len()`). Tests use this
/// to state the documented quantile tolerance: a streaming quantile lands
/// in the same or an adjacent bucket as the exact order statistic.
pub fn latency_bucket(ms: f64) -> usize {
    LATENCY_BUCKET_BOUNDS_MS
        .iter()
        .position(|&b| ms <= b)
        .unwrap_or(LATENCY_BUCKET_BOUNDS_MS.len())
}

// ---------------------------------------------------------------------
// SloMonitor
// ---------------------------------------------------------------------

/// Configuration of a [`SloMonitor`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Width of the tumbling evaluation windows (must be positive).
    pub window: SimDuration,
    /// The gates each window is held to, relative to the baseline (first
    /// non-empty) window.
    pub thresholds: DiffThresholds,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            window: SimDuration::from_mins(1),
            thresholds: DiffThresholds::default(),
        }
    }
}

/// One tumbling window's accumulated telemetry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloWindow {
    /// Window index (`completion time / window width`).
    pub index: u64,
    /// Requests that completed inside the window.
    pub requests: u64,
    /// End-to-end latency distribution of those requests.
    pub end_to_end: Histogram,
    /// Wasted-deploy CPU, integer microseconds.
    pub wasted_us: u64,
    /// Function invocations.
    pub invoked: u64,
    /// Prediction misses.
    pub misses: u64,
}

impl SloWindow {
    fn new(index: u64) -> Self {
        SloWindow {
            index,
            requests: 0,
            end_to_end: Histogram::latency(),
            wasted_us: 0,
            invoked: 0,
            misses: 0,
        }
    }

    /// Plan coverage inside the window (1 when nothing was invoked).
    pub fn recall(&self) -> f64 {
        recall(self.misses, self.invoked)
    }

    /// Wasted CPU-ms per completed request (0 when empty).
    pub fn waste_per_request_ms(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.wasted_us as f64 / 1000.0 / self.requests as f64
        }
    }
}

/// One SLO breach: a window whose telemetry crossed a threshold relative
/// to the baseline window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloAlert {
    /// Index of the breaching window.
    pub window: u64,
    /// JSONPath-style pointer to the violated gate.
    pub path: String,
    /// Baseline-window value.
    pub baseline: f64,
    /// Breaching-window value.
    pub candidate: f64,
    /// Human-readable statement of the exceeded limit.
    pub allowed: String,
}

/// Scalar view of one window, as exported in the SLO report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloWindowSummary {
    /// Window index.
    pub index: u64,
    /// Window start, milliseconds of simulation time.
    pub start_ms: f64,
    /// Requests completed inside the window.
    pub requests: u64,
    /// Bucket-interpolated median end-to-end latency.
    pub p50_ms: f64,
    /// Bucket-interpolated p95 end-to-end latency.
    pub p95_ms: f64,
    /// Mean end-to-end latency.
    pub mean_ms: f64,
    /// Wasted-deploy CPU-ms charged to requests completing here.
    pub wasted_cpu_ms: f64,
    /// Function invocations.
    pub invoked: u64,
    /// Prediction misses.
    pub misses: u64,
    /// Plan coverage (1 − misses/invoked; 1 when idle).
    pub recall: f64,
}

/// The windowed SLO export (`docs/schemas/slo.schema.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloReport {
    /// Tumbling-window width in milliseconds.
    pub window_ms: f64,
    /// The gates applied to every window.
    pub thresholds: DiffThresholds,
    /// Index of the baseline (first non-empty) window, if any window saw
    /// traffic.
    pub baseline_window: Option<u64>,
    /// Every non-empty window, index-ordered.
    pub windows: Vec<SloWindowSummary>,
    /// Every breach, in (window, gate) order. Empty means the stream
    /// stayed inside its envelope.
    pub alerts: Vec<SloAlert>,
}

/// Serializable snapshot of a drained [`SloMonitor`]: accumulated
/// windows plus the evaluation cursor and alerts already raised, so a
/// restored monitor neither re-raises nor skips alerts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloCheckpoint {
    /// Tumbling-window width, integer microseconds.
    pub window_us: u64,
    /// The gates every window is held to.
    pub thresholds: DiffThresholds,
    /// Accumulated windows, index-ordered.
    pub windows: Vec<SloWindow>,
    /// Baseline (first non-empty) window index, if evaluation started.
    pub baseline: Option<u64>,
    /// Highest window index already evaluated.
    pub evaluated: Option<u64>,
    /// Alerts raised so far, in emission order.
    pub alerts: Vec<SloAlert>,
}

/// Evaluates windowed telemetry against [`DiffThresholds`].
///
/// Requests are bucketed into tumbling windows by *completion* time. The
/// first non-empty window becomes the baseline; every later non-empty
/// window is gated against it with the same comparison semantics as
/// `xanadu diff` (p50/p95 relative regression, wasted-CPU-per-request
/// relative regression, absolute recall drop).
///
/// A monitor attached to a platform only collects. Per-shard or
/// per-epoch monitors merge canonically, and evaluation runs on the
/// merged windows: incrementally at serve's checkpoint cuts
/// ([`evaluate_below`](Self::evaluate_below)) or all at once after
/// replay's merge ([`report`](Self::report)). Both walk the windows
/// through one gate routine, so the alerts of successive cuts
/// concatenate to exactly the report's alert list.
#[derive(Debug, Clone)]
pub struct SloMonitor {
    tracker: RequestTracker,
    config: SloConfig,
    windows: BTreeMap<u64, SloWindow>,
    baseline: Option<u64>,
    /// Highest window index [`evaluate_below`](Self::evaluate_below) has
    /// walked.
    evaluated: Option<u64>,
    alerts: Vec<SloAlert>,
}

impl SloMonitor {
    /// A collector: accumulates windows until the caller evaluates them
    /// with [`evaluate_below`](Self::evaluate_below) or
    /// [`report`](Self::report).
    pub fn collector(config: SloConfig) -> Self {
        assert!(
            config.window > SimDuration::ZERO,
            "SLO window must be positive"
        );
        SloMonitor {
            tracker: RequestTracker::default(),
            config,
            windows: BTreeMap::new(),
            baseline: None,
            evaluated: None,
            alerts: Vec::new(),
        }
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    fn fold(&mut self, request: u64, trace: &Trace) {
        let index = trace.end.as_micros() / self.config.window.as_micros();
        let w = self
            .windows
            .entry(index)
            .or_insert_with(|| SloWindow::new(index));
        let audit = RequestAudit::from_trace(request, trace);
        w.requests += 1;
        w.end_to_end.observe(audit.end_to_end_ms());
        w.wasted_us += unused_deploys(trace).sum::<u64>();
        w.invoked += audit.invoked.len() as u64;
        w.misses += audit.missed.len() as u64;
    }

    /// Evaluates every not-yet-evaluated window strictly below `horizon`
    /// and returns the fresh alerts, in (window, gate) order.
    ///
    /// The service tier calls this at checkpoint boundaries: completions
    /// are *not* globally time-ordered across epochs (a draining epoch
    /// emits completions later than the next epoch's first trigger), so
    /// only windows below `floor(next trigger time / width)` are final —
    /// every future completion lands at or above that index. Evaluation
    /// is incremental and index-ordered against the same first-non-empty
    /// baseline as [`report`](Self::report), so the union of all
    /// `evaluate_below` results equals the report's alert list exactly.
    ///
    /// # Panics
    /// If requests are still in flight.
    pub fn evaluate_below(&mut self, horizon: u64) -> Vec<SloAlert> {
        assert!(
            self.tracker.in_flight() == 0,
            "evaluating an SLO monitor with in-flight requests"
        );
        let from = self.evaluated.map_or(0, |e| e + 1);
        let (fresh, last) = gate_windows(
            &self.windows,
            from..horizon.max(from),
            &mut self.baseline,
            &self.config.thresholds,
        );
        self.evaluated = last.or(self.evaluated);
        self.alerts.extend(fresh.iter().cloned());
        fresh
    }

    /// Every alert [`evaluate_below`](Self::evaluate_below) has raised,
    /// in emission order.
    pub fn alerts(&self) -> &[SloAlert] {
        &self.alerts
    }

    /// Folds another monitor's windows into this one (shard merge; both
    /// must be drained). Window width must match.
    pub fn merge_from(&mut self, other: &SloMonitor) {
        assert!(
            self.tracker.in_flight() == 0 && other.tracker.in_flight() == 0,
            "merging SLO monitors with in-flight requests"
        );
        assert_eq!(
            self.config.window, other.config.window,
            "merging SLO monitors with different window widths"
        );
        for (index, theirs) in &other.windows {
            let mine = self
                .windows
                .entry(*index)
                .or_insert_with(|| SloWindow::new(*index));
            mine.requests += theirs.requests;
            mine.end_to_end.merge_from(&theirs.end_to_end);
            mine.wasted_us += theirs.wasted_us;
            mine.invoked += theirs.invoked;
            mine.misses += theirs.misses;
        }
    }

    /// Captures the monitor as a serializable checkpoint (windows,
    /// baseline, evaluation cursor, and alerts raised so far).
    ///
    /// # Panics
    /// If requests are in flight.
    pub fn checkpoint(&self) -> SloCheckpoint {
        assert!(
            self.tracker.in_flight() == 0,
            "checkpointing an SLO monitor with in-flight requests"
        );
        SloCheckpoint {
            window_us: self.config.window.as_micros(),
            thresholds: self.config.thresholds.clone(),
            windows: self.windows.values().cloned().collect(),
            baseline: self.baseline,
            evaluated: self.evaluated,
            alerts: self.alerts.clone(),
        }
    }

    /// Rebuilds a monitor from a checkpoint — the exact state
    /// [`checkpoint`](Self::checkpoint) captured, ready to resume folding
    /// and incremental evaluation.
    pub fn from_checkpoint(c: &SloCheckpoint) -> SloMonitor {
        let mut monitor = SloMonitor::collector(SloConfig {
            window: SimDuration::from_micros(c.window_us),
            thresholds: c.thresholds.clone(),
        });
        monitor.windows = c.windows.iter().map(|w| (w.index, w.clone())).collect();
        monitor.baseline = c.baseline;
        monitor.evaluated = c.evaluated;
        monitor.alerts = c.alerts.clone();
        monitor
    }

    /// Builds the windowed export: every non-empty window summarized, plus
    /// the full evaluation (a pure function of the windows, so it lists
    /// exactly the alerts successive [`evaluate_below`](Self::evaluate_below)
    /// cuts raised).
    pub fn report(&self) -> SloReport {
        let window_ms = self.config.window.as_micros() as f64 / 1000.0;
        let mut baseline_window = None;
        let (alerts, _) = gate_windows(
            &self.windows,
            ..,
            &mut baseline_window,
            &self.config.thresholds,
        );
        let windows = self
            .windows
            .values()
            .filter(|w| w.requests > 0)
            .map(|w| SloWindowSummary {
                index: w.index,
                start_ms: w.index as f64 * window_ms,
                requests: w.requests,
                p50_ms: w.end_to_end.quantile_ms(0.50),
                p95_ms: w.end_to_end.quantile_ms(0.95),
                mean_ms: w.end_to_end.mean_ms(),
                wasted_cpu_ms: w.wasted_us as f64 / 1000.0,
                invoked: w.invoked,
                misses: w.misses,
                recall: w.recall(),
            })
            .collect();
        SloReport {
            window_ms,
            thresholds: self.config.thresholds.clone(),
            baseline_window,
            windows,
            alerts,
        }
    }
}

impl Observer for SloMonitor {
    fn on_event(&mut self, at: SimTime, event: &BusEvent) {
        if let Some((request, trace)) = self.tracker.on_event(at, event) {
            self.fold(request, &trace);
        }
    }
}

/// The one gate routine behind both evaluations: walks the windows of
/// `range` in index order. The first non-empty window becomes the
/// baseline unless one is already set, and every later non-empty window
/// is gated against it. Returns the alerts, in (window, gate) order, and
/// the highest window index walked.
fn gate_windows(
    windows: &BTreeMap<u64, SloWindow>,
    range: impl RangeBounds<u64>,
    baseline: &mut Option<u64>,
    thresholds: &DiffThresholds,
) -> (Vec<SloAlert>, Option<u64>) {
    let mut alerts = Vec::new();
    let mut last = None;
    for (&index, window) in windows.range(range) {
        last = Some(index);
        if window.requests == 0 {
            continue;
        }
        match *baseline {
            None => *baseline = Some(index),
            Some(b) => alerts.extend(gate_window(&windows[&b], window, thresholds)),
        }
    }
    (alerts, last)
}

/// Applies the diff gates to one window against the baseline window.
fn gate_window(baseline: &SloWindow, window: &SloWindow, t: &DiffThresholds) -> Vec<SloAlert> {
    let i = window.index;
    let mut out = Vec::new();
    out.extend(pct_regression(
        &format!("$.windows[{i}].end_to_end_ms.p50"),
        baseline.end_to_end.quantile_ms(0.50),
        window.end_to_end.quantile_ms(0.50),
        t.max_p95_regress_pct,
    ));
    out.extend(pct_regression(
        &format!("$.windows[{i}].end_to_end_ms.p95"),
        baseline.end_to_end.quantile_ms(0.95),
        window.end_to_end.quantile_ms(0.95),
        t.max_p95_regress_pct,
    ));
    // Windowed waste baselines are routinely zero (a window with no
    // speculative deploys wastes nothing), so the whole-run diff's
    // grew-from-~0 escalation would alert on every later window no
    // matter how loose the configured percentage. Flooring the baseline
    // at the noise floor keeps this gate relative: the threshold always
    // applies, measured against at least 1ms of waste per request.
    out.extend(pct_regression(
        &format!("$.windows[{i}].waste.cpu_ms_per_request"),
        baseline.waste_per_request_ms().max(ABS_FLOOR_MS),
        window.waste_per_request_ms(),
        t.max_wasted_cpu_regress_pct,
    ));
    out.extend(drop_regression(
        &format!("$.windows[{i}].mlp.recall"),
        baseline.recall(),
        window.recall(),
        t.max_recall_drop,
    ));
    out.into_iter()
        .map(|r| SloAlert {
            window: i,
            path: r.path,
            baseline: r.baseline,
            candidate: r.candidate,
            allowed: r.allowed,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn feed(obs: &mut impl Observer, events: &[(SimTime, BusEvent)]) {
        for (t, e) in events {
            obs.on_event(*t, e);
        }
    }

    /// One request with a hit, an on-demand miss, and an unused planned
    /// deploy — every accounting path in a single stream.
    fn mixed_request(request: u64, base_ms: u64) -> Vec<(SimTime, BusEvent)> {
        let t = |d: u64| at(base_ms + d);
        vec![
            (
                t(0),
                BusEvent::RequestTriggered {
                    request,
                    workflow: "wf".into(),
                },
            ),
            (
                t(0),
                BusEvent::PlanComputed {
                    request,
                    workflow: "wf".into(),
                    planned: 2,
                },
            ),
            (
                t(0),
                BusEvent::FunctionInvoked {
                    request,
                    function: "a".into(),
                    node: 0,
                },
            ),
            (
                t(0),
                BusEvent::WorkerProvisioned {
                    worker: 1,
                    request,
                    function: "a".into(),
                    cold_start_ms: 100.0,
                    ready_in_ms: 100.0,
                    on_demand: false,
                },
            ),
            (
                t(0),
                BusEvent::WorkerProvisioned {
                    worker: 3,
                    request,
                    function: "c".into(),
                    cold_start_ms: 50.0,
                    ready_in_ms: 50.0,
                    on_demand: false,
                },
            ),
            (
                t(100),
                BusEvent::ExecStarted {
                    request,
                    function: "a".into(),
                    worker: 1,
                    warm: false,
                    queue_wait_ms: 100.0,
                },
            ),
            (
                t(150),
                BusEvent::ExecEnded {
                    request,
                    function: "a".into(),
                    worker: 1,
                    exec_ms: 50.0,
                },
            ),
            (
                t(150),
                BusEvent::FunctionInvoked {
                    request,
                    function: "b".into(),
                    node: 1,
                },
            ),
            (
                t(150),
                BusEvent::PredictionMiss {
                    request,
                    function: "b".into(),
                    node: 1,
                },
            ),
            (
                t(150),
                BusEvent::WorkerProvisioned {
                    worker: 2,
                    request,
                    function: "b".into(),
                    cold_start_ms: 80.0,
                    ready_in_ms: 80.0,
                    on_demand: true,
                },
            ),
            (
                t(230),
                BusEvent::ExecStarted {
                    request,
                    function: "b".into(),
                    worker: 2,
                    warm: false,
                    queue_wait_ms: 80.0,
                },
            ),
            (
                t(280),
                BusEvent::ExecEnded {
                    request,
                    function: "b".into(),
                    worker: 2,
                    exec_ms: 50.0,
                },
            ),
            (
                t(280),
                BusEvent::RequestCompleted {
                    request,
                    workflow: "wf".into(),
                    overhead_ms: 180.0,
                    end_to_end_ms: 280.0,
                },
            ),
        ]
    }

    /// Minimal request: triggered, one exec covering `[0, e2e]`, completed.
    fn simple_request(request: u64, base_ms: u64, e2e_ms: u64) -> Vec<(SimTime, BusEvent)> {
        vec![
            (
                at(base_ms),
                BusEvent::RequestTriggered {
                    request,
                    workflow: "wf".into(),
                },
            ),
            (
                at(base_ms),
                BusEvent::FunctionInvoked {
                    request,
                    function: "a".into(),
                    node: 0,
                },
            ),
            (
                at(base_ms),
                BusEvent::ExecStarted {
                    request,
                    function: "a".into(),
                    worker: 1,
                    warm: true,
                    queue_wait_ms: 0.0,
                },
            ),
            (
                at(base_ms + e2e_ms),
                BusEvent::ExecEnded {
                    request,
                    function: "a".into(),
                    worker: 1,
                    exec_ms: e2e_ms as f64,
                },
            ),
            (
                at(base_ms + e2e_ms),
                BusEvent::RequestCompleted {
                    request,
                    workflow: "wf".into(),
                    overhead_ms: 0.0,
                    end_to_end_ms: e2e_ms as f64,
                },
            ),
        ]
    }

    #[test]
    fn streaming_audit_accounts_a_mixed_request_exactly() {
        let mut audit = StreamingAudit::default();
        feed(&mut audit, &mixed_request(1, 0));
        assert_eq!(audit.in_flight(), 0);
        let s = audit.summary();
        assert_eq!(s.requests, 1);
        assert_eq!(s.exec_ms, 100.0, "two 50ms execs");
        assert_eq!(s.cold_start_wait_ms, 180.0, "100ms hit + 80ms on-demand");
        assert_eq!(s.queue_wait_ms, 0.0);
        assert_eq!(s.stall_ms, 0.0);
        assert_eq!(
            s.exec_ms + s.cold_start_wait_ms + s.queue_wait_ms + s.stall_ms,
            280.0,
            "span-sum invariant"
        );
        assert_eq!(s.mlp.predicted, 2, "a and the unused c");
        assert_eq!(s.mlp.hits, 1);
        assert_eq!(s.mlp.invoked, 2);
        assert_eq!(s.mlp.misses, 1);
        assert_eq!(s.mlp.precision, 0.5);
        assert_eq!(s.mlp.recall, 0.5);
        assert_eq!(s.mlp.miss_depth, vec![0, 1], "b missed at depth 1");
        assert_eq!(s.mlp.per_function["b"].misses, 1);
        assert_eq!(s.waste.deploys, 1, "c never served");
        assert_eq!(s.waste.cpu_ms, 280.0, "charged to request end");
        assert_eq!(s.jit.planned, 1, "on-demand b excluded");
        assert_eq!(s.jit.late, 1, "a ready 100ms after its invoke");
        assert_eq!(s.jit.on_time, 0);
        assert_eq!(s.end_to_end.count, 1);
    }

    #[test]
    fn exemplar_reservoir_keeps_worst_requests_with_span_trees() {
        let mut audit = StreamingAudit::new(StreamingConfig { exemplars: 2 });
        feed(&mut audit, &simple_request(1, 0, 50));
        feed(&mut audit, &simple_request(2, 1_000, 400));
        feed(&mut audit, &simple_request(3, 2_000, 200));
        let ex = audit.exemplars();
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0].request, 2, "worst first");
        assert_eq!(ex[1].request, 3);
        assert_eq!(ex[0].end_to_end_us, 400_000);
        let tree = ex[0].span_tree();
        assert!(tree.root.name.contains("request 2"));
    }

    #[test]
    fn pool_owned_provisions_are_ignored() {
        let mut audit = StreamingAudit::default();
        let mut events = simple_request(1, 0, 50);
        events.insert(
            1,
            (
                at(0),
                BusEvent::WorkerProvisioned {
                    worker: 9,
                    request: u64::MAX,
                    function: "a".into(),
                    cold_start_ms: 10.0,
                    ready_in_ms: 10.0,
                    on_demand: false,
                },
            ),
        );
        feed(&mut audit, &events);
        let s = audit.summary();
        assert_eq!(s.mlp.predicted, 0);
        assert_eq!(s.waste.deploys, 0);
    }

    #[test]
    fn merged_shard_audits_equal_the_single_stream_audit() {
        let r1 = mixed_request(1, 0);
        let r2 = simple_request(2, 500, 120);
        let r3 = mixed_request(3, 1_000);

        let mut whole = StreamingAudit::default();
        feed(&mut whole, &r1);
        feed(&mut whole, &r2);
        feed(&mut whole, &r3);

        let mut shard_a = StreamingAudit::default();
        feed(&mut shard_a, &r1);
        feed(&mut shard_a, &r2);
        let mut shard_b = StreamingAudit::default();
        feed(&mut shard_b, &r3);
        shard_a.merge_from(&shard_b);

        assert_eq!(shard_a.summary(), whole.summary());
        assert_eq!(
            shard_a.exemplars().len(),
            whole.exemplars().len(),
            "reservoirs merge canonically"
        );
        for (a, b) in shard_a.exemplars().iter().zip(whole.exemplars()) {
            assert_eq!(a.request, b.request);
            assert_eq!(a.end_to_end_us, b.end_to_end_us);
        }
    }

    fn slo_config(window_secs: u64) -> SloConfig {
        SloConfig {
            window: SimDuration::from_secs(window_secs),
            thresholds: DiffThresholds::default(),
        }
    }

    #[test]
    fn clean_stream_raises_no_alerts() {
        let mut slo = SloMonitor::collector(slo_config(1));
        for (i, base) in [100u64, 1_100, 2_100, 3_100].iter().enumerate() {
            feed(&mut slo, &simple_request(i as u64 + 1, *base, 100));
            assert!(slo.evaluate_below(i as u64).is_empty());
        }
        assert!(slo.evaluate_below(u64::MAX).is_empty());
        let report = slo.report();
        assert_eq!(report.baseline_window, Some(0));
        assert_eq!(report.windows.len(), 4);
        assert!(report.alerts.is_empty());
    }

    #[test]
    fn degraded_window_raises_alert_in_the_correct_window() {
        let mut slo = SloMonitor::collector(slo_config(1));
        // Window 0: healthy baseline (100ms).
        for (req, base) in [(1u64, 100u64), (2, 300), (3, 500)] {
            feed(&mut slo, &simple_request(req, base, 100));
        }
        // Window 2: 3x p95 degradation (300ms → a different bucket).
        for (req, base) in [(4u64, 2_100u64), (5, 2_300), (6, 2_500)] {
            feed(&mut slo, &simple_request(req, base, 300));
        }
        assert!(
            slo.evaluate_below(2).is_empty(),
            "window 2 is not final yet; window 0 only sets the baseline"
        );
        // Window 3: healthy again; the cut below it makes window 2 final.
        feed(&mut slo, &simple_request(7, 3_100, 100));
        let cut = slo.evaluate_below(3);
        assert!(!cut.is_empty(), "the cut evaluates window 2");
        assert!(cut.iter().all(|a| a.window == 2));
        assert!(cut
            .iter()
            .any(|a| a.path == "$.windows[2].end_to_end_ms.p95"));
        // The final (healthy) window evaluates without alerts.
        assert!(slo.evaluate_below(u64::MAX).is_empty());
        assert_eq!(slo.alerts(), cut.as_slice());
        let report = slo.report();
        assert_eq!(report.baseline_window, Some(0));
        assert_eq!(report.alerts, cut, "the report matches the cut evaluation");
        let w2 = report.windows.iter().find(|w| w.index == 2).unwrap();
        assert!(w2.p95_ms > report.windows[0].p95_ms * 2.0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Requests complete in any order; after each one the stream may
        /// be cut at an arbitrary horizon that no later completion falls
        /// below (serve's rule). The cuts' alerts, concatenated, are
        /// exactly the report's — and so is the alert list a
        /// checkpoint round trip carries across a cut.
        #[test]
        fn cut_alerts_concatenate_to_the_report(
            requests in proptest::collection::vec((0u64..2_500, 50u64..3_000), 1..40),
            cuts in proptest::collection::vec(0u64..6, 40..41),
            strict in 0u64..2,
        ) {
            let mut config = slo_config(1);
            if strict == 1 {
                // Every non-baseline window breaches.
                config.thresholds.max_recall_drop = -1.0;
            }
            let mut base = 0;
            let completions: Vec<(u64, u64)> = requests
                .iter()
                .map(|&(gap, e2e)| {
                    base += gap;
                    (base, e2e)
                })
                .collect();
            let window_of = |&(base, e2e): &(u64, u64)| (base + e2e) / 1_000;
            let mut slo = SloMonitor::collector(config);
            let mut concatenated = Vec::new();
            for (i, request) in completions.iter().enumerate() {
                feed(&mut slo, &simple_request(i as u64, request.0, request.1));
                if cuts[i] < 3 {
                    let floor = completions[i + 1..].iter().map(window_of).min();
                    let horizon = floor.map_or(u64::MAX, |f| f.saturating_sub(cuts[i]));
                    concatenated.extend(slo.evaluate_below(horizon));
                    slo = SloMonitor::from_checkpoint(&slo.checkpoint());
                }
            }
            concatenated.extend(slo.evaluate_below(u64::MAX));
            let report = slo.report();
            proptest::prop_assert_eq!(&concatenated, &report.alerts);
            proptest::prop_assert_eq!(slo.alerts(), report.alerts.as_slice());
        }
    }

    /// Shard collectors merge into the single-stream collector's report,
    /// and that report lists exactly the alerts the single stream raised
    /// live, at its cuts.
    #[test]
    fn collector_merge_reproduces_the_live_report() {
        let streams: Vec<Vec<(SimTime, BusEvent)>> = vec![
            simple_request(1, 100, 100),
            simple_request(2, 2_100, 300),
            simple_request(3, 2_400, 320),
        ];
        let mut live = SloMonitor::collector(slo_config(1));
        let mut raised = Vec::new();
        for s in &streams {
            feed(&mut live, s);
            raised.extend(live.evaluate_below(2));
        }
        raised.extend(live.evaluate_below(u64::MAX));

        let mut shard_a = SloMonitor::collector(slo_config(1));
        feed(&mut shard_a, &streams[0]);
        feed(&mut shard_a, &streams[1]);
        let mut shard_b = SloMonitor::collector(slo_config(1));
        feed(&mut shard_b, &streams[2]);
        shard_a.merge_from(&shard_b);

        assert_eq!(shard_a.report(), live.report());
        assert!(!raised.is_empty());
        assert_eq!(live.report().alerts, raised);
    }

    /// Collects the audit of every request an observer's tracker
    /// completes.
    #[derive(Default)]
    struct BusAudits {
        tracker: RequestTracker,
        audits: Vec<RequestAudit>,
    }

    impl Observer for BusAudits {
        fn on_event(&mut self, at: SimTime, event: &BusEvent) {
            if let Some((request, trace)) = self.tracker.on_event(at, event) {
                self.audits.push(RequestAudit::from_trace(request, &trace));
            }
        }
    }

    /// An attached observer's tracker and the platform's trace recorder
    /// see the same bus events. On the randomized chaos runs of
    /// `tests/streaming.rs`, with faults on and off, the audit read off
    /// the trace an observer folds live must equal the audit of the
    /// request's recorded trace.
    #[test]
    fn bus_fed_fold_equals_the_trace_audit_for_every_request() {
        use crate::{FaultConfig, Platform, PlatformConfig};
        use xanadu_chain::{linear_chain, FunctionSpec};
        use xanadu_core::speculation::ExecutionMode;
        use xanadu_simcore::RngStream;

        for seed in 0..16u64 {
            for faults in [false, true] {
                // The same draws as the integration suite's random runs.
                let mut rng = RngStream::derive(seed, "streaming-chaos");
                let depth = rng.uniform_inclusive(2, 5) as usize;
                let triggers = rng.uniform_inclusive(3, 8);
                let gap = SimDuration::from_secs(rng.uniform_inclusive(10, 240));
                let service_ms = rng.uniform_inclusive(100, 2000) as f64;
                rng.bernoulli(0.5); // the suite's fault coin: both settings run here
                let mode = if rng.bernoulli(0.5) {
                    ExecutionMode::Jit
                } else {
                    ExecutionMode::Speculative
                };

                let template = FunctionSpec::new("f").service_ms(service_ms);
                let chain = linear_chain("wf", depth, &template).unwrap();
                let mut builder = PlatformConfig::builder()
                    .for_mode(mode, seed)
                    .record_traces(true);
                if faults {
                    builder = builder.faults(FaultConfig::with_rate(0.35, seed ^ 0xFA17));
                }
                let mut platform = Platform::new(builder.build().unwrap());
                let bus = platform.attach_observer(BusAudits::default());
                platform.deploy(chain).unwrap();
                for i in 0..triggers {
                    platform.trigger_at("wf", at(0) + gap * i).unwrap();
                }
                platform.run_until_idle();

                let audits = bus.with(|b| b.audits.clone());
                assert_eq!(audits.len() as u64, triggers, "seed {seed}");
                for audit in &audits {
                    let trace = platform.trace(audit.request).expect("trace recorded");
                    assert_eq!(
                        audit,
                        &RequestAudit::from_trace(audit.request, trace),
                        "seed {seed}, faults {faults}, request {}",
                        audit.request
                    );
                }
            }
        }
    }

    /// Every event the bus delivered, in emission order.
    #[derive(Default)]
    struct Collected(Vec<(SimTime, BusEvent)>);

    impl Observer for Collected {
        fn on_event(&mut self, at: SimTime, event: &BusEvent) {
            self.0.push((at, event.clone()));
        }
    }

    /// A recorded trace is the lifecycle fold of the request's own bus
    /// events. The workload is `tests/bus_events.rs`'s chaos run: certain
    /// faults and a two-host cluster under host failures, which emits
    /// every variant. For every completed request, the observer's events
    /// whose `lifecycle_request` names it run from its trigger to its
    /// completion, and `Platform::trace` equals `RequestFold` run over
    /// exactly those events.
    #[test]
    fn recorded_traces_are_the_requests_own_bus_events() {
        use crate::timeline::RequestFold;
        use crate::{ClusterConfig, FaultConfig, PlacementPolicy, Platform, PlatformConfig};
        use std::collections::HashSet;
        use std::mem::discriminant;
        use xanadu_chain::{linear_chain, FunctionSpec, WorkflowBuilder};
        use xanadu_core::speculation::ExecutionMode;

        let chain = linear_chain("chain", 5, &FunctionSpec::new("f").service_ms(1500.0)).unwrap();
        let mut b = WorkflowBuilder::new("branchy");
        let head = b.add(FunctionSpec::new("head").service_ms(700.0)).unwrap();
        let hot = b.add(FunctionSpec::new("hot").service_ms(900.0)).unwrap();
        let alt = b.add(FunctionSpec::new("alt").service_ms(400.0)).unwrap();
        let tail = b.add(FunctionSpec::new("tail").service_ms(600.0)).unwrap();
        b.link_xor(head, &[(hot, 0.7), (alt, 0.3)]).unwrap();
        b.link(hot, tail).unwrap();
        let branchy = b.build().unwrap();
        let faults = FaultConfig {
            host_failure_rate: 1.0,
            ..FaultConfig::with_rate(1.0, 0xC0FFEE)
        };
        let config = PlatformConfig::builder()
            .for_mode(ExecutionMode::Jit, 5)
            .faults(faults)
            .cluster(ClusterConfig::uniform(PlacementPolicy::Affinity, 2, 1024))
            .record_traces(true)
            .build()
            .unwrap();
        let mut platform = Platform::new(config);
        let bus = platform.attach_observer(Collected::default());
        platform.deploy(chain).unwrap();
        platform.deploy(branchy).unwrap();
        for i in 0..12u64 {
            let base = SimTime::from_secs(i * 120);
            platform.trigger_at("chain", base).unwrap();
            platform
                .trigger_at("branchy", base + SimDuration::from_secs(45))
                .unwrap();
        }
        platform.run_until_idle();

        let events = bus.with(|c| c.0.clone());
        let mut traced = HashSet::new();
        let mut completed = 0;
        for (_, event) in &events {
            let BusEvent::RequestCompleted { request, .. } = event else {
                continue;
            };
            let own: Vec<&(SimTime, BusEvent)> = events
                .iter()
                .filter(|(_, e)| e.lifecycle_request() == Some(*request))
                .collect();
            let (first, last) = (own[0], own[own.len() - 1]);
            assert!(
                matches!(first.1, BusEvent::RequestTriggered { .. })
                    && matches!(last.1, BusEvent::RequestCompleted { .. }),
                "request {request} runs from its trigger to its completion"
            );
            let mut fold = RequestFold::new(first.0);
            for (at, e) in &own {
                fold.apply(*at, e);
            }
            let trace = platform.trace(*request).expect("trace recorded");
            assert_eq!(trace, &fold.finish(last.0), "request {request}");
            traced.extend(own.iter().map(|(_, e)| discriminant(e)));
            completed += 1;
        }
        assert_eq!(completed, 24);
        assert_eq!(traced.len(), 12, "every lifecycle variant was traced");
        let outside: HashSet<_> = events
            .iter()
            .filter(|(_, e)| e.lifecycle_request().is_none())
            .map(|(_, e)| discriminant(e))
            .collect();
        let host_down = BusEvent::HostDown {
            host: 0,
            workers_lost: 0,
        };
        let host_up = BusEvent::HostUp {
            host: 0,
            memory_mb: 0,
        };
        assert!(
            outside.contains(&discriminant(&host_down)),
            "no host failed"
        );
        assert!(
            outside.contains(&discriminant(&host_up)),
            "no failed host rebooted"
        );
    }

    #[test]
    fn latency_bucket_indexes_the_standard_bounds() {
        assert_eq!(latency_bucket(0.5), 0);
        assert_eq!(latency_bucket(1.0), 0);
        assert_eq!(latency_bucket(75.0), 6);
        assert_eq!(latency_bucket(1e9), LATENCY_BUCKET_BOUNDS_MS.len());
    }
}
