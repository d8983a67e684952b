//! Shared experiment infrastructure.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use xanadu_chain::{linear_chain, FunctionSpec, WorkflowDag};
use xanadu_core::speculation::ExecutionMode;
use xanadu_platform::export::{audit_json_string, chrome_trace_string, metrics_json_string};
use xanadu_platform::timeline::Trace;
use xanadu_platform::{
    Audit, FaultConfig, MetricsRegistry, Platform, PlatformConfig, RequestAudit, RunResult,
};
use xanadu_simcore::report::fmt_f64;
use xanadu_simcore::{SimDuration, SimTime};

thread_local! {
    /// Worker-thread fan-out width for this thread and its descendants.
    ///
    /// Thread-local (rather than a process global) so parallel test
    /// binaries can exercise different `--jobs` values concurrently
    /// without interfering with each other.
    static JOBS: Cell<usize> = const { Cell::new(1) };
}

/// Sets the fan-out width used by [`run_indexed`] (and therefore by
/// [`cold_runs`] and `experiments::all`) on this thread. Values below 1
/// are clamped to 1 (serial).
pub fn set_jobs(n: usize) {
    JOBS.with(|j| j.set(n.max(1)));
}

/// The fan-out width currently in effect on this thread.
pub fn jobs() -> usize {
    JOBS.with(|j| j.get())
}

/// Runs `f(0..count)` across up to [`jobs`] scoped threads and returns the
/// results **in index order**, so output is byte-identical to a serial
/// run. Each worker inherits the caller's [`jobs`] setting. Falls back to
/// a plain serial loop when `jobs() == 1` or there is only one item.
pub fn run_indexed<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let width = jobs().min(count.max(1));
    if width <= 1 {
        return (0..count).map(f).collect();
    }
    let inherited = jobs();
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..width)
            .map(|_| {
                s.spawn(|| {
                    set_jobs(inherited);
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("harness worker panicked"))
            .collect()
    });
    let mut all: Vec<(usize, T)> = parts.into_iter().flatten().collect();
    all.sort_by_key(|&(i, _)| i);
    all.into_iter().map(|(_, t)| t).collect()
}

/// One paper-claim-versus-measured comparison.
#[derive(Debug, Clone)]
pub struct Finding {
    /// What the paper reports.
    pub claim: String,
    /// What this reproduction measured.
    pub measured: String,
    /// Whether the reproduction preserves the claim's shape.
    pub holds: bool,
}

impl Finding {
    /// Creates a finding.
    pub fn new(claim: impl Into<String>, measured: impl Into<String>, holds: bool) -> Self {
        Finding {
            claim: claim.into(),
            measured: measured.into(),
            holds,
        }
    }
}

/// One regenerated experiment: rendered output plus claim checks.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Short id (`fig12`, `tab1`, `abl-aggr`, …).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Rendered tables/series.
    pub output: String,
    /// Paper-vs-measured comparisons.
    pub findings: Vec<Finding>,
    /// Speculation audit of the experiment's primary Xanadu run (`None`
    /// when the experiment has no single representative workload).
    /// `xanadu-repro` writes these behind `--audit-out` and records their
    /// summary rows in `BENCH_harness.json`.
    pub audit: Option<Audit>,
}

impl Experiment {
    /// Renders the experiment as a markdown section.
    pub fn render(&self) -> String {
        let mut out = format!("# {} — {}\n\n{}\n", self.id, self.title, self.output);
        if !self.findings.is_empty() {
            out.push_str("\n### Paper vs. measured\n\n");
            out.push_str("| paper claim | measured | holds |\n|---|---|---|\n");
            for f in &self.findings {
                out.push_str(&format!(
                    "| {} | {} | {} |\n",
                    f.claim,
                    f.measured,
                    if f.holds { "yes" } else { "NO" }
                ));
            }
        }
        out
    }

    /// Whether every finding holds.
    pub fn all_hold(&self) -> bool {
        self.findings.iter().all(|f| f.holds)
    }
}

/// Builds a Xanadu platform in the given execution mode.
pub fn xanadu(mode: ExecutionMode, seed: u64) -> Platform {
    Platform::new(PlatformConfig::for_mode(mode, seed))
}

/// Runs `triggers` independent cold-condition requests of `dag`: each
/// trigger gets a *fresh* platform (no warm state carries over), matching
/// the paper's "requests in cold start condition" methodology (§5.1).
///
/// `make(seed)` constructs the platform; trigger `i` uses seed
/// `seed_base + i`. Most experiments use [`COLD_SEED_BASE`]; those whose
/// claims depend on a specific mix of branch draws (e.g. Table 1's
/// repeated-miss worst case) pick a base whose window contains that mix.
///
/// Returns the results and the speculation [`Audit`] of the triggers,
/// with per-request audits re-keyed by *trigger index* (each fresh
/// platform numbers its own requests from zero). The independent triggers
/// fan out across [`jobs`] threads and are collected in trigger order, so
/// both are byte-identical to a serial run.
pub fn cold_runs(
    make: &(dyn Fn(u64) -> Platform + Sync),
    dag: &WorkflowDag,
    triggers: u64,
    seed_base: u64,
) -> (Vec<RunResult>, Audit) {
    let per_trigger: Vec<(Vec<RunResult>, Vec<RequestAudit>)> =
        run_indexed(triggers as usize, |i| {
            let mut p = make(seed_base + i as u64);
            p.deploy(dag.clone()).expect("deploy");
            p.trigger_at(dag.name(), SimTime::ZERO).expect("trigger");
            p.run_until_idle();
            let audits: Vec<RequestAudit> = p
                .results()
                .iter()
                .filter_map(|r| p.trace(r.request))
                .map(|t| RequestAudit::from_trace(i as u64, t))
                .collect();
            (p.finish().results, audits)
        });
    let mut runs = Vec::new();
    let mut audits = Vec::new();
    for (r, a) in per_trigger {
        runs.extend(r);
        audits.extend(a);
    }
    (runs, Audit::from_requests(audits))
}

/// The seed base [`cold_runs`] experiments share unless their claims need
/// another.
pub const COLD_SEED_BASE: u64 = 1000;

/// The speculation [`Audit`] of `requests`, in the given order; requests
/// without a recorded trace are left out.
fn audit_requests(platform: &Platform, requests: impl IntoIterator<Item = u64>) -> Audit {
    Audit::from_requests(
        requests
            .into_iter()
            .filter_map(|id| platform.trace(id).map(|t| RequestAudit::from_trace(id, t)))
            .collect(),
    )
}

/// Builds the speculation [`Audit`] of every request a platform has
/// completed so far, in request-id order.
pub fn audit_platform(platform: &Platform) -> Audit {
    audit_requests(platform, platform.results().iter().map(|r| r.request))
}

/// Runs a learning sequence on a *single* platform: `warmup` unmeasured
/// triggers followed by `measure` measured ones, all spaced `gap` apart
/// (choose `gap` larger than keep-alive to keep every request cold-
/// conditioned while the learned model persists).
pub fn learned_runs(
    platform: &mut Platform,
    workflow: &str,
    warmup: u64,
    measure: u64,
    gap: SimDuration,
) -> Vec<RunResult> {
    let mut t = SimTime::ZERO;
    for _ in 0..warmup {
        platform.trigger_at(workflow, t).expect("trigger");
        platform.run_until_idle();
        platform.roll_profile_window();
        t += gap;
    }
    let before = platform.results().len();
    for _ in 0..measure {
        platform.trigger_at(workflow, t).expect("trigger");
        platform.run_until_idle();
        platform.roll_profile_window();
        t += gap;
    }
    platform.results()[before..].to_vec()
}

/// [`learned_runs`] that also returns the speculation [`Audit`] of the
/// *measured* tail (warmup triggers are excluded from the audit exactly as
/// they are excluded from the returned results).
pub fn audited_learned_runs(
    platform: &mut Platform,
    workflow: &str,
    warmup: u64,
    measure: u64,
    gap: SimDuration,
) -> (Vec<RunResult>, Audit) {
    let runs = learned_runs(platform, workflow, warmup, measure, gap);
    let audit = audit_requests(platform, runs.iter().map(|r| r.request));
    (runs, audit)
}

/// Runs the standard observability workload — a depth-4 JIT chain under
/// heavy deterministic fault injection, metrics registry attached — and
/// returns the two export documents as `(chrome_trace, metrics_json)`
/// strings.
///
/// The probe is the harness-side consumer of the platform's exporters:
/// `xanadu-repro --trace-out/--metrics-out` writes exactly these strings,
/// and the determinism suite asserts they are byte-identical across
/// `--jobs` widths and plan-cache settings for the same seed.
pub fn observability_probe(seed: u64, plan_cache: bool) -> (String, String) {
    let (platform, requests, metrics) = probe_run(seed, plan_cache);
    let traces: Vec<(u64, &Trace)> = requests
        .iter()
        .filter_map(|&id| platform.trace(id).map(|t| (id, t)))
        .collect();
    (chrome_trace_string(&traces), metrics)
}

/// The audit JSON of the same workload [`observability_probe`] runs: the
/// chaos chain pushed through the analysis tier. Byte-identical across
/// `--jobs` widths and plan-cache settings for the same seed, like the
/// other two exports.
pub fn observability_audit(seed: u64, plan_cache: bool) -> String {
    let (platform, requests, _) = probe_run(seed, plan_cache);
    audit_json_string(&audit_requests(&platform, requests))
}

/// Runs the standard probe workload and returns the platform (traces
/// intact), the request ids in trigger order, and the rendered metrics
/// snapshot.
fn probe_run(seed: u64, plan_cache: bool) -> (Platform, Vec<u64>, String) {
    let dag =
        linear_chain("probe", 4, &FunctionSpec::new("f").service_ms(1200.0)).expect("valid chain");
    let config = PlatformConfig::builder()
        .for_mode(ExecutionMode::Jit, seed)
        .plan_cache(plan_cache)
        .faults(FaultConfig::with_rate(0.8, 0xB0B + seed))
        .build()
        .expect("valid config");
    let mut platform = Platform::new(config);
    let registry = platform.attach_observer(MetricsRegistry::new());
    platform.deploy(dag).expect("deploy");
    let mut requests = Vec::new();
    for i in 0..4u64 {
        let id = platform
            .trigger_at("probe", SimTime::from_secs(i * 90))
            .expect("trigger");
        requests.push(id);
    }
    platform.run_until_idle();
    let metrics = metrics_json_string(&registry.snapshot());
    (platform, requests, metrics)
}

/// Arithmetic mean of an iterator (0 when empty).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u64;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Mean latency overhead in milliseconds across runs.
pub fn mean_overhead_ms(runs: &[RunResult]) -> f64 {
    mean(runs.iter().map(|r| r.overhead.as_millis_f64()))
}

/// Mean end-to-end latency in milliseconds across runs.
pub fn mean_end_to_end_ms(runs: &[RunResult]) -> f64 {
    mean(runs.iter().map(|r| r.end_to_end.as_millis_f64()))
}

/// Formats milliseconds as seconds with two decimals (`"7.62"`).
pub fn ms_as_s(ms: f64) -> String {
    fmt_f64(ms / 1000.0, 2)
}

/// Checks that `measured` is within `[lo, hi]` and renders the comparison.
pub fn within(measured: f64, lo: f64, hi: f64) -> bool {
    measured >= lo && measured <= hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use xanadu_chain::{linear_chain, FunctionSpec};

    #[test]
    fn cold_runs_are_independent() {
        let dag = linear_chain("c", 2, &FunctionSpec::new("f").service_ms(100.0)).unwrap();
        let (runs, audit) = cold_runs(
            &|seed| xanadu(ExecutionMode::Cold, seed),
            &dag,
            3,
            COLD_SEED_BASE,
        );
        assert_eq!(runs.len(), 3);
        // All cold: warm reuse impossible across fresh platforms.
        assert!(runs.iter().all(|r| r.warm_starts == 0));
        assert!(runs.iter().all(|r| r.cold_starts == 2));
        assert_eq!(audit.summary.requests, 3);
    }

    #[test]
    fn learned_runs_measures_only_tail() {
        let dag = linear_chain("c", 2, &FunctionSpec::new("f").service_ms(100.0)).unwrap();
        let mut p = xanadu(ExecutionMode::Speculative, 3);
        p.deploy_implicit(dag).unwrap();
        let measured = learned_runs(&mut p, "c", 2, 3, SimDuration::from_mins(20));
        assert_eq!(measured.len(), 3);
    }

    #[test]
    fn mean_helpers() {
        assert_eq!(mean([1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(std::iter::empty::<f64>()), 0.0);
        assert_eq!(ms_as_s(7620.0), "7.62");
        assert!(within(5.0, 4.0, 6.0));
        assert!(!within(7.0, 4.0, 6.0));
    }

    #[test]
    fn experiment_render_contains_findings() {
        let e = Experiment {
            id: "x",
            title: "t",
            output: "body".into(),
            findings: vec![Finding::new("a", "b", true)],
            audit: None,
        };
        let r = e.render();
        assert!(r.contains("# x — t"));
        assert!(r.contains("| a | b | yes |"));
        assert!(e.all_hold());
    }

    #[test]
    fn observability_probe_exports_are_populated_and_deterministic() {
        let (trace, metrics) = observability_probe(7, true);
        assert!(trace.contains("traceEvents"), "{trace}");
        assert!(metrics.contains("counters"), "{metrics}");
        assert!(metrics.contains("requests.completed"), "{metrics}");
        // Same seed, plan cache off: byte-identical exports.
        let (trace_nc, metrics_nc) = observability_probe(7, false);
        assert_eq!(trace, trace_nc, "plan cache changed the trace export");
        assert_eq!(metrics, metrics_nc, "plan cache changed the metrics export");
        // Probes fanned out across threads match the serial run.
        let probes = |width: usize| {
            set_jobs(width);
            let out = run_indexed(3, |i| observability_probe(100 + i as u64, true));
            set_jobs(1);
            out
        };
        assert_eq!(
            probes(1),
            probes(8),
            "exports diverged across --jobs widths"
        );
    }

    /// The fan-out contract of the repro harness: the same seed renders
    /// byte-identical experiment reports no matter the `--jobs` width,
    /// because each trigger owns an independent platform and results are
    /// collected in index order.
    #[test]
    fn jobs_width_does_not_change_rendered_output() {
        let render_with = |width: usize| {
            set_jobs(width);
            let out = (
                crate::experiments::fig1::run().render(),
                crate::experiments::fig4::run().render(),
            );
            set_jobs(1);
            out
        };
        let serial = render_with(1);
        let parallel = render_with(8);
        assert_eq!(serial.0, parallel.0, "fig1 diverged across --jobs widths");
        assert_eq!(serial.1, parallel.1, "fig4 diverged across --jobs widths");
    }
}
