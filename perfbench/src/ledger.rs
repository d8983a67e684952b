//! Measurement plumbing shared by every workload: the flat result record
//! the harness prints, a span accumulator, and the timing wrapper that
//! measures observer (bus fan-out) cost from outside the platform.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;
use xanadu_platform::{BusEvent, Observer, PlatformReport, RunResult};
use xanadu_simcore::SimTime;

/// One harness result: metric or field name → JSON value, printed as a
/// single JSON object on stdout.
#[derive(Debug, Default)]
pub struct Record(BTreeMap<String, Value>);

impl Record {
    /// Sets a numeric field.
    pub fn num(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), serde_json::json!(value));
    }

    /// Sets a list of numbers (raw samples).
    pub fn nums(&mut self, name: &str, values: &[f64]) {
        self.0.insert(name.to_string(), serde_json::json!(values));
    }

    /// Sets a string field (digests, labels).
    pub fn text(&mut self, name: &str, value: impl Into<String>) {
        self.0.insert(name.to_string(), Value::String(value.into()));
    }

    /// Renders the record as one JSON line.
    pub fn render(&self) -> String {
        serde_json::to_value(&self.0)
            .expect("record serializes")
            .to_json_string()
    }
}

/// Runs `f`, adding its wall time in seconds to `*acc`.
pub fn span<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

/// Wall time of `f` in seconds, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Wraps an observer and accumulates the wall time spent inside its
/// `on_event` plus the number of deliveries: the bus fan-out cost of that
/// observer, measured around the public [`Observer`] trait.
#[derive(Debug, Clone)]
pub struct Timed<O> {
    /// The wrapped observer.
    pub inner: O,
    /// Seconds spent in `inner.on_event`.
    pub busy_s: f64,
    /// Events delivered.
    pub deliveries: u64,
}

impl<O> Timed<O> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: O) -> Self {
        Timed {
            inner,
            busy_s: 0.0,
            deliveries: 0,
        }
    }
}

impl<O: Observer> Observer for Timed<O> {
    fn on_event(&mut self, at: SimTime, event: &BusEvent) {
        let start = Instant::now();
        self.inner.on_event(at, event);
        self.busy_s += start.elapsed().as_secs_f64();
        self.deliveries += 1;
    }
}

/// Runs a workload's setup several times, each time between two runs of
/// [`reference_work`], and returns the last result with every setup's
/// wall time and the mean of its two reference times.
pub fn sampled_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>, Vec<f64>), String> {
    const SAMPLES: usize = 9;
    let mut secs = Vec::with_capacity(SAMPLES);
    let mut reference = Vec::with_capacity(SAMPLES);
    let mut last = None;
    for _ in 0..SAMPLES {
        let (_, before) = timed(reference_work);
        let (value, s) = timed(&mut setup);
        let (_, after) = timed(reference_work);
        secs.push(s);
        reference.push((before + after) / 2.0);
        last = Some(value?);
    }
    Ok((last.expect("at least one sample"), secs, reference))
}

/// Fixed work of the same kind as a workload's setup (random numbers,
/// allocation, sorting, string hashing, float math) that shares no code
/// with the program under test: timed next to each setup, it measures
/// how fast the machine is at that moment.
pub fn reference_work() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut values = Vec::with_capacity(4096);
    for _ in 0..4096 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        values.push(x);
    }
    values.sort_unstable();
    let mut names = std::collections::HashMap::new();
    for (i, v) in values.iter().enumerate().take(512) {
        names.insert(format!("fn-{}", v % 1000), i);
    }
    let logs: f64 = values.iter().map(|&v| ((v >> 11) as f64 + 1.0).ln()).sum();
    std::hint::black_box(names.len() as u64 + logs as u64)
}

/// FNV-1a over a byte slice, the digest the CLI prints for reports and
/// audits.
pub fn fnv1a64(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    format!("fnv1a64:{h:016x}")
}

/// The report JSON exactly as `xanadu replay` digests it.
pub fn report_json(report: &PlatformReport) -> String {
    serde_json::to_value(report)
        .expect("report serializes")
        .to_json_string_pretty()
        + "\n"
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The simulated end-to-end metrics every workload reports from its
/// per-request results: overhead `C_D` quantiles and the cold-start rate
/// from the per-request start counts.
pub fn simulated_metrics(results: &[RunResult], out: &mut Record) {
    let mut overhead: Vec<f64> = results.iter().map(|r| r.overhead.as_millis_f64()).collect();
    overhead.sort_by(f64::total_cmp);
    let (cold, warm) = results.iter().fold((0u64, 0u64), |(c, w), r| {
        (c + u64::from(r.cold_starts), w + u64::from(r.warm_starts))
    });
    out.num("sim_overhead_p50_ms", quantile(&overhead, 0.50));
    out.num("sim_overhead_p99_ms", quantile(&overhead, 0.99));
    out.num("cold_start_rate", cold as f64 / (cold + warm).max(1) as f64);
}

/// Per-request counters shared by the `policy` and `pool` layers, summed
/// over results.
pub fn result_counters(results: &[RunResult], out: &mut Record) {
    let sum = |f: fn(&RunResult) -> u32| results.iter().map(|r| u64::from(f(r))).sum::<u64>();
    let misses = sum(|r| r.misses);
    let executed = sum(|r| r.executed_functions);
    out.num("policy.mispredictions", misses as f64);
    out.num(
        "policy.mlp_recall",
        1.0 - misses as f64 / executed.max(1) as f64,
    );
    out.num("pool.functions_invoked", executed as f64);
    out.num("pool.cold_starts", sum(|r| r.cold_starts) as f64);
    out.num("pool.warm_starts", sum(|r| r.warm_starts) as f64);
}
