//! Observers and the metrics registry.
//!
//! [`Observer`]s are the only consumers of platform events: the platform
//! calls [`Observer::on_event`] inline for every emitted [`BusEvent`], in
//! deterministic simulation order. Because the platform only
//! *constructs* events when trace recording is on or at least one
//! observer is attached (see `Platform::attach_observer`), an unobserved
//! platform pays nothing — not even the `Arc` reference counts a
//! payload's shared names would take.
//!
//! [`MetricsRegistry`] is an observer like any other: a deterministic set
//! of counters and fixed-bucket histograms aggregated from the event
//! stream, read back through its [`ObserverHandle`] and exportable as
//! flat JSON.

use crate::events::BusEvent;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use xanadu_simcore::SimTime;

/// A synchronous, in-order consumer of platform events.
///
/// Implementations must be deterministic functions of the event stream if
/// the surrounding experiment relies on byte-identical output across
/// harness thread counts (every built-in observer is).
pub trait Observer: Send {
    /// Called once per emitted event, at simulation time `at`, in
    /// emission order.
    fn on_event(&mut self, at: SimTime, event: &BusEvent);
}

/// Shared handle to an attached observer.
///
/// The platform keeps a type-erased clone and calls it from the dispatch
/// loop; the handle lets the caller read the observer's state back out
/// afterwards (e.g. snapshot an aggregated [`MetricsRegistry`]).
#[derive(Debug)]
pub struct ObserverHandle<T> {
    inner: Arc<Mutex<T>>,
}

impl<T> Clone for ObserverHandle<T> {
    fn clone(&self) -> Self {
        ObserverHandle {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> ObserverHandle<T> {
    /// Wraps an observer for sharing between the platform and the caller.
    pub(crate) fn new(observer: T) -> Self {
        ObserverHandle {
            inner: Arc::new(Mutex::new(observer)),
        }
    }

    /// The type-erased clone the platform dispatches to.
    pub(crate) fn shared(&self) -> Arc<Mutex<T>> {
        Arc::clone(&self.inner)
    }

    /// Runs `f` against the observer's current state.
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.inner.lock().expect("observer lock poisoned"))
    }

    /// Clones the observer's current state out of the handle.
    pub fn snapshot(&self) -> T
    where
        T: Clone,
    {
        self.with(T::clone)
    }

    /// Moves the observer's state out of the handle once the platform
    /// that fed it is gone; clones it only while another handle (a live
    /// platform's) still shares it.
    pub(crate) fn into_inner(self) -> T
    where
        T: Clone,
    {
        match Arc::try_unwrap(self.inner) {
            Ok(observer) => observer.into_inner().expect("observer lock poisoned"),
            Err(inner) => ObserverHandle { inner }.snapshot(),
        }
    }
}

/// Upper bounds (milliseconds) of the fixed latency buckets, chosen to
/// resolve both sub-millisecond queue waits and multi-second cold-start
/// cascades. The last bucket is implicit `+inf`.
pub const LATENCY_BUCKET_BOUNDS_MS: [f64; 14] = [
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 25000.0,
];

/// A fixed-bucket histogram of millisecond latencies.
///
/// Bucket bounds are fixed at construction so two histograms built from
/// the same event stream are structurally identical — a requirement for
/// the byte-identical-exports determinism guarantee.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Upper bounds of each bucket (a value `v` lands in the first bucket
    /// with `v <= bound`); one final implicit `+inf` bucket follows.
    pub bounds: Vec<f64>,
    /// Observation counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values, in milliseconds.
    pub sum_ms: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::latency()
    }
}

impl Histogram {
    /// A histogram over the standard latency buckets
    /// ([`LATENCY_BUCKET_BOUNDS_MS`]).
    pub fn latency() -> Self {
        Histogram {
            bounds: LATENCY_BUCKET_BOUNDS_MS.to_vec(),
            counts: vec![0; LATENCY_BUCKET_BOUNDS_MS.len() + 1],
            count: 0,
            sum_ms: 0.0,
        }
    }

    /// Records one observation of `ms` milliseconds.
    pub fn observe(&mut self, ms: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| ms <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum_ms += ms;
    }

    /// Mean of all observations (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ms / self.count as f64
        }
    }

    /// Bucket-interpolated quantile estimate (Prometheus-style): finds the
    /// bucket containing the `q`·count-th observation and interpolates
    /// linearly between the bucket's bounds. Observations in the implicit
    /// overflow bucket are clamped to the largest finite bound, so the
    /// estimate never invents a value beyond the histogram's range.
    /// Returns 0 for an empty histogram; `q` is clamped to `[0, 1]`.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if next as f64 >= rank {
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let Some(&upper) = self.bounds.get(i) else {
                    // Overflow bucket: clamp to the last finite bound.
                    return self.bounds.last().copied().unwrap_or(lower).max(lower);
                };
                let within = ((rank - cum as f64) / c as f64).clamp(0.0, 1.0);
                return lower + (upper - lower) * within;
            }
            cum = next;
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }

    /// Folds `other` into `self` bucket-by-bucket.
    ///
    /// Both histograms must share bucket bounds (all built-ins do — the
    /// bounds are fixed at construction); mismatched shapes panic rather
    /// than silently mis-merge. Merging is commutative on the integer
    /// counts, and the platform always merges in canonical shard order so
    /// the `sum_ms` float accumulation is reproducible too.
    pub fn merge_from(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "merging histograms with different bucket bounds"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ms += other.sum_ms;
    }
}

/// Counter and histogram names the built-in registry maintains. Keys are
/// `BTreeMap`-ordered so serialization is deterministic.
///
/// Counters: `faults.crashes`, `faults.timeouts`, `functions.invoked`,
/// `hosts.down`, `hosts.up`, `hosts.workers_lost`, `plans.computed`,
/// `policy.decisions`, `prediction.misses`, `requests.completed`,
/// `requests.triggered`, `retries`, `starts.cold`, `starts.warm`,
/// `workers.evicted`, `workers.on_demand`, `workers.placed`,
/// `workers.provisioned`, `workers.ready`.
///
/// Histograms: `cold_start_ms`, `end_to_end_ms`, `exec_ms`,
/// `overhead_ms`, `queue_wait_ms`, `retry_backoff_ms`.
///
/// Plan-cache hit/miss statistics are deliberately *not* derived here:
/// the determinism guarantee requires metrics exports to be
/// byte-identical with the cache on and off, so cache stats stay on
/// `Platform::plan_cache_stats()`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsRegistry {
    /// Monotonic event counters, keyed by dotted metric name.
    pub counters: BTreeMap<String, u64>,
    /// Fixed-bucket latency histograms, keyed by metric name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `by` to counter `name` (creating it at zero). The name is
    /// probed as `&str`; its key is allocated only when it is new.
    pub fn incr(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(count) => *count += by,
            None => {
                self.counters.insert(name.to_string(), by);
            }
        }
    }

    /// Records `ms` into histogram `name` (creating it with the standard
    /// latency buckets). Like [`incr`](Self::incr), allocates a key only
    /// for a new name.
    pub fn observe_ms(&mut self, name: &str, ms: f64) {
        match self.histograms.get_mut(name) {
            Some(histogram) => histogram.observe(ms),
            None => {
                let mut histogram = Histogram::latency();
                histogram.observe(ms);
                self.histograms.insert(name.to_string(), histogram);
            }
        }
    }

    /// Current value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram `name`, when any observation has been recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Folds `other` into `self`: counters add, histograms merge
    /// bucket-by-bucket. Used to combine per-shard registries into one
    /// fleet-wide registry; callers merge in canonical shard order so the
    /// result is byte-identical at any thread count.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, hist) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_insert_with(|| Histogram {
                    bounds: hist.bounds.clone(),
                    counts: vec![0; hist.counts.len()],
                    count: 0,
                    sum_ms: 0.0,
                })
                .merge_from(hist);
        }
    }
}

impl Observer for MetricsRegistry {
    fn on_event(&mut self, _at: SimTime, event: &BusEvent) {
        match event {
            BusEvent::RequestTriggered { .. } => self.incr("requests.triggered", 1),
            BusEvent::PlanComputed { .. } => self.incr("plans.computed", 1),
            BusEvent::FunctionInvoked { .. } => self.incr("functions.invoked", 1),
            BusEvent::WorkerProvisioned {
                cold_start_ms,
                on_demand,
                ..
            } => {
                self.incr("workers.provisioned", 1);
                if *on_demand {
                    self.incr("workers.on_demand", 1);
                }
                self.observe_ms("cold_start_ms", *cold_start_ms);
            }
            BusEvent::WorkerReady { .. } => self.incr("workers.ready", 1),
            BusEvent::ExecStarted {
                warm,
                queue_wait_ms,
                ..
            } => {
                self.incr(if *warm { "starts.warm" } else { "starts.cold" }, 1);
                self.observe_ms("queue_wait_ms", *queue_wait_ms);
            }
            BusEvent::ExecEnded { exec_ms, .. } => self.observe_ms("exec_ms", *exec_ms),
            BusEvent::PredictionMiss { .. } => self.incr("prediction.misses", 1),
            BusEvent::WorkerCrashed { .. } => self.incr("faults.crashes", 1),
            // Already counted as the `WorkerCrashed` that caused it.
            BusEvent::DeployFailed { .. } => {}
            BusEvent::InvokeTimeout { .. } => self.incr("faults.timeouts", 1),
            BusEvent::InvokeRetried { backoff_ms, .. } => {
                self.incr("retries", 1);
                self.observe_ms("retry_backoff_ms", *backoff_ms);
            }
            BusEvent::RequestCompleted {
                overhead_ms,
                end_to_end_ms,
                ..
            } => {
                self.incr("requests.completed", 1);
                self.observe_ms("overhead_ms", *overhead_ms);
                self.observe_ms("end_to_end_ms", *end_to_end_ms);
            }
            BusEvent::HostUp { .. } => self.incr("hosts.up", 1),
            BusEvent::HostDown { workers_lost, .. } => {
                self.incr("hosts.down", 1);
                self.incr("hosts.workers_lost", u64::from(*workers_lost));
            }
            BusEvent::WorkerPlaced { .. } => self.incr("workers.placed", 1),
            BusEvent::WorkerEvicted { .. } => self.incr("workers.evicted", 1),
            BusEvent::PolicyDecision { .. } => self.incr("policy.decisions", 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts how many clones stand between it and the original.
    #[derive(Debug)]
    struct Copies(u32);

    impl Clone for Copies {
        fn clone(&self) -> Self {
            Copies(self.0 + 1)
        }
    }

    #[test]
    fn into_inner_moves_a_sole_handle_and_clones_a_shared_one() {
        let handle = ObserverHandle::new(Copies(0));
        let shared = handle.clone();
        assert_eq!(handle.into_inner().0, 1, "a live clone keeps the state");
        assert_eq!(shared.into_inner().0, 0, "the last handle moves it out");
    }

    #[test]
    fn histogram_buckets_values_and_tracks_mean() {
        let mut h = Histogram::latency();
        h.observe(0.5); // bucket 0 (<= 1 ms)
        h.observe(30.0); // <= 50 ms
        h.observe(1e6); // overflow bucket
        assert_eq!(h.count, 3);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[h.counts.len() - 1], 1);
        assert!((h.mean_ms() - (0.5 + 30.0 + 1e6) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_interpolate_within_buckets_and_clamp_overflow() {
        let mut h = Histogram::latency();
        // 100 observations spread uniformly through the (100, 250] bucket.
        for i in 0..100 {
            h.observe(101.0 + i as f64);
        }
        let p50 = h.quantile_ms(0.5);
        assert!(
            (100.0..=250.0).contains(&p50) && (p50 - 175.0).abs() < 1.0,
            "p50 {p50} should interpolate to the bucket midpoint"
        );
        assert!(h.quantile_ms(0.0) >= 100.0);
        assert!(h.quantile_ms(1.0) <= 250.0);
        assert!(h.quantile_ms(0.25) < h.quantile_ms(0.75), "monotone in q");

        // Overflow observations clamp to the largest finite bound.
        let mut o = Histogram::latency();
        o.observe(1e9);
        assert_eq!(
            o.quantile_ms(0.99),
            *LATENCY_BUCKET_BOUNDS_MS.last().unwrap()
        );

        // Empty histogram reports 0.
        assert_eq!(Histogram::latency().quantile_ms(0.95), 0.0);
    }

    #[test]
    fn registry_aggregates_events() {
        let mut reg = MetricsRegistry::new();
        let events = [
            BusEvent::RequestTriggered {
                request: 0,
                workflow: "w".into(),
            },
            BusEvent::ExecStarted {
                request: 0,
                function: "f".into(),
                worker: 1,
                warm: false,
                queue_wait_ms: 812.0,
            },
            BusEvent::ExecStarted {
                request: 0,
                function: "g".into(),
                worker: 2,
                warm: true,
                queue_wait_ms: 0.0,
            },
            BusEvent::RequestCompleted {
                request: 0,
                workflow: "w".into(),
                overhead_ms: 12.0,
                end_to_end_ms: 900.0,
            },
        ];
        for e in &events {
            reg.on_event(SimTime::ZERO, e);
        }
        assert_eq!(reg.counter("requests.triggered"), 1);
        assert_eq!(reg.counter("starts.cold"), 1);
        assert_eq!(reg.counter("starts.warm"), 1);
        assert_eq!(reg.counter("requests.completed"), 1);
        assert_eq!(reg.counter("never.touched"), 0);
        assert_eq!(reg.histogram("queue_wait_ms").unwrap().count, 2);
        assert!((reg.histogram("overhead_ms").unwrap().mean_ms() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn registry_roundtrips_through_serde() {
        let mut reg = MetricsRegistry::new();
        reg.incr("retries", 3);
        reg.observe_ms("exec_ms", 150.0);
        let json = serde_json::to_string(&reg).unwrap();
        let back: MetricsRegistry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, reg);
    }

    #[test]
    fn merge_combines_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        a.incr("retries", 2);
        a.observe_ms("exec_ms", 40.0);
        let mut b = MetricsRegistry::new();
        b.incr("retries", 3);
        b.incr("faults.crashes", 1);
        b.observe_ms("exec_ms", 400.0);
        b.observe_ms("queue_wait_ms", 5.0);
        a.merge_from(&b);
        assert_eq!(a.counter("retries"), 5);
        assert_eq!(a.counter("faults.crashes"), 1);
        let exec = a.histogram("exec_ms").unwrap();
        assert_eq!(exec.count, 2);
        assert!((exec.sum_ms - 440.0).abs() < 1e-9);
        assert_eq!(a.histogram("queue_wait_ms").unwrap().count, 1);

        // Merging is order-insensitive on the integer state.
        let mut h1 = Histogram::latency();
        h1.observe(3.0);
        let mut h2 = Histogram::latency();
        h2.observe(700.0);
        let mut left = h1.clone();
        left.merge_from(&h2);
        let mut right = h2.clone();
        right.merge_from(&h1);
        assert_eq!(left.counts, right.counts);
        assert_eq!(left.count, right.count);
    }

    #[test]
    fn handle_snapshot_reflects_platform_side_mutation() {
        let handle = ObserverHandle::new(MetricsRegistry::new());
        let shared = handle.shared();
        shared.lock().unwrap().incr("retries", 2);
        assert_eq!(handle.snapshot().counter("retries"), 2);
        assert_eq!(handle.with(|r| r.counter("retries")), 2);
    }
}
