//! Speculation audit & regression analysis.
//!
//! The observability layer records *what happened*; this module
//! interprets it. From each request's lifecycle it derives the audit the
//! paper's evaluation is built on:
//!
//! * **Critical-path decomposition** — every microsecond between trigger
//!   and completion is attributed to exactly one of `exec`,
//!   `cold-start wait`, `queue wait` or `stall` (retry backoff and
//!   orchestration gaps), so the four components sum to the end-to-end
//!   latency *exactly* (the span-sum invariant,
//!   [`RequestAudit::decomposition_sums_to_end_to_end`]).
//! * **MLP prediction quality** (§3.1) — precision of the speculative
//!   pre-deployments (how many served) and recall of the plan (how many
//!   invocations it covered), overall, per function, and with prediction
//!   misses attributed to their cascade depth.
//! * **Wasted-deploy accounting** (§3.2.1) — count and CPU-ms charged to
//!   speculative sandboxes that never served an invocation.
//! * **JIT timing quality** (§3.2.2) — the distribution of
//!   sandbox-ready-time minus invoke-time: positive is *lateness* the
//!   request waited out, negative is *slack* the platform paid for early.
//!
//! There is one auditor, reading one fold. The lifecycle fold of the
//! [`timeline`](crate::timeline) module pairs a request's bus events into
//! its deploy, wait and exec intervals, and that folded [`Trace`] is what
//! the platform records; [`RequestAudit::from_trace`] reads the audit off
//! its entries, whether the trace was recorded or folded live from the
//! bus by the [`stream`](crate::stream) tier. The span tree and the Gantt
//! chart read the same intervals, so the window the audit charges an
//! unused deploy is the span tree's by construction. [`Tally`] then
//! aggregates finished requests for both the exact [`Audit`] and the
//! bounded-memory [`StreamingAudit`](crate::stream::StreamingAudit),
//! which differ only in where latency samples go (exact values or
//! fixed-bucket histograms) and in how they sum wasted CPU (per-request
//! `f64` ms or integer µs).
//!
//! [`diff_audits`] / [`diff_metrics`] compare two snapshots under
//! [`DiffThresholds`] and return the list of [`Regression`]s — the
//! machine-checkable gate behind `xanadu diff` and CI.
//!
//! Everything here is a deterministic function of the typed inputs: the
//! same traces produce byte-identical audits regardless of harness thread
//! count or plan-cache setting (plan-cache state never reaches the trace).

use crate::hosts::ClusterReport;
use crate::obs::MetricsRegistry;
use crate::timeline::{EntryKind, Trace};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use xanadu_simcore::SimTime;

/// Order statistics of a latency sample set, in milliseconds.
///
/// Quantiles are nearest-rank over the *exact* per-request samples (not
/// bucketed), so they are deterministic and reproducible to the bit.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl LatencyStats {
    /// Computes the stats of `samples` (order irrelevant).
    pub fn from_samples(mut samples: Vec<f64>) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let rank = |q: f64| samples[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
        LatencyStats {
            count: n as u64,
            mean: samples.iter().sum::<f64>() / n as f64,
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
            max: samples[n - 1],
        }
    }
}

/// One planned-or-on-demand deployment paired with its invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JitSample {
    /// The deployed function.
    pub function: Arc<str>,
    /// Whether the deployment was forced by a waiting request (on-demand
    /// provisions are late by a full cold start, by construction).
    pub on_demand: bool,
    /// Sandbox-ready-time minus invoke-time, in milliseconds. Positive:
    /// the sandbox was *late* and the request waited. Negative: the
    /// sandbox was warm early — the magnitude is the pre-warm slack paid.
    pub lateness_ms: f64,
}

/// The speculation audit of a single request, derived from its [`Trace`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestAudit {
    /// Request id (caller-assigned; harness merges re-key by trigger
    /// index).
    pub request: u64,
    /// Trigger-to-completion latency, integer microseconds.
    pub end_to_end_us: u64,
    /// Microseconds during which at least one function was executing.
    pub exec_us: u64,
    /// Microseconds waiting on an invocation that was eventually served
    /// cold (sandbox provisioning on the critical path).
    pub cold_start_wait_us: u64,
    /// Microseconds waiting on an invocation eventually served warm
    /// (dispatch/queueing overhead only).
    pub queue_wait_us: u64,
    /// Microseconds with nothing executing and nothing waiting — retry
    /// backoff windows and orchestration gaps.
    pub stall_us: u64,
    /// Functions speculatively pre-deployed for this request (first-deploy
    /// order). On-demand provisions are *not* predictions.
    pub predicted: Vec<Arc<str>>,
    /// Functions invoked, in invocation order — a function's index is its
    /// cascade depth.
    pub invoked: Vec<Arc<str>>,
    /// Invoked functions absent from the speculation plan.
    pub missed: Vec<Arc<str>>,
    /// Speculative deployments that never served an invocation.
    pub unused_deploys: u64,
    /// CPU-ms charged to those unused speculative sandboxes (deploy start
    /// to trace end, the window [`SpanTree`](crate::timeline::SpanTree)
    /// also charges).
    pub wasted_cpu_ms: f64,
    /// Ready-versus-invoke timing of every deployment that served.
    pub jit: Vec<JitSample>,
}

impl RequestAudit {
    /// Reads the audit of one request off its trace.
    pub fn from_trace(request: u64, trace: &Trace) -> RequestAudit {
        let (t0, tn) = (trace.start.as_micros(), trace.end.as_micros());
        // The critical-path intervals, ranked: exec dominates waits, cold
        // dominates warm. Intervals still open at the end run to the end:
        // an unfinished execution counts as exec, an unserved wait as
        // cold-start wait.
        let intervals: Vec<(usize, u64, u64)> = trace
            .entries
            .iter()
            .filter_map(|e| {
                let rank = match e.kind {
                    EntryKind::Exec { .. } => 0,
                    EntryKind::Wait { warm } => 1 + usize::from(warm),
                    _ => return None,
                };
                Some((rank, e.at.as_micros(), e.end.map_or(tn, SimTime::as_micros)))
            })
            .collect();

        // Partition [t0, tn] at every interval endpoint and attribute each
        // segment to exactly one category, the best-ranked interval
        // covering it (stall when none does). A partition sums to the
        // total by construction — the span-sum invariant is structural,
        // not approximate.
        let mut cuts: Vec<u64> = vec![t0, tn];
        cuts.extend(
            intervals
                .iter()
                .flat_map(|&(_, s, e)| [s.clamp(t0, tn), e.clamp(t0, tn)]),
        );
        cuts.sort_unstable();
        cuts.dedup();
        let mut components = [0u64; 4];
        for w in cuts.windows(2) {
            let covering = intervals
                .iter()
                .filter(|&&(_, s, e)| s <= w[0] && e >= w[1]);
            components[covering.map(|&(rank, ..)| rank).min().unwrap_or(3)] += w[1] - w[0];
        }
        let [exec_us, cold_start_wait_us, queue_wait_us, stall_us] = components;

        use EntryKind as K;
        let invoked = trace.functions(|k| matches!(k, K::Wait { .. }));
        // Pair each invoked function's first invocation with its first
        // deployment (replacement provisions after crashes keep their own
        // entries but the first schedule is the planner's intent).
        let jit = invoked
            .iter()
            .filter_map(|f| {
                let invoked_at = trace.first(f, |k| matches!(k, K::Wait { .. }))?.at;
                match trace.first(f, |k| matches!(k, K::Deploy { .. }))?.kind {
                    K::Deploy { ready, on_demand } => Some(JitSample {
                        function: Arc::clone(f),
                        on_demand,
                        lateness_ms: (ready.as_micros() as f64 - invoked_at.as_micros() as f64)
                            / 1000.0,
                    }),
                    _ => None,
                }
            })
            .collect();

        RequestAudit {
            request,
            end_to_end_us: tn - t0,
            exec_us,
            cold_start_wait_us,
            queue_wait_us,
            stall_us,
            predicted: trace.functions(|k| {
                matches!(
                    k,
                    K::Deploy {
                        on_demand: false,
                        ..
                    }
                )
            }),
            invoked,
            missed: trace.functions(|k| *k == K::Miss),
            unused_deploys: unused_deploys(trace).count() as u64,
            wasted_cpu_ms: unused_deploys(trace).map(|us| us as f64 / 1000.0).sum(),
            jit,
        }
    }

    /// The span-sum invariant: the four decomposition components sum to
    /// the end-to-end latency, exactly, in integer microseconds.
    pub fn decomposition_sums_to_end_to_end(&self) -> bool {
        self.exec_us + self.cold_start_wait_us + self.queue_wait_us + self.stall_us
            == self.end_to_end_us
    }

    /// End-to-end latency in milliseconds.
    pub fn end_to_end_ms(&self) -> f64 {
        self.end_to_end_us as f64 / 1000.0
    }

    /// Fraction of speculative pre-deploys that served (1 when none were
    /// made).
    pub fn precision(&self) -> f64 {
        let hits = self.predicted.iter().filter(|f| self.invoked.contains(f));
        precision(hits.count() as u64, self.predicted.len() as u64)
    }

    /// Fraction of invocations the plan covered (1 when nothing was
    /// invoked).
    pub fn recall(&self) -> f64 {
        recall(self.missed.len() as u64, self.invoked.len() as u64)
    }
}

/// The microseconds charged to each speculative sandbox the request never
/// used: from its deploy start to the request's end. The streaming tier
/// sums these; the exact audit sums the per-request `f64` CPU-ms instead.
pub(crate) fn unused_deploys(trace: &Trace) -> impl Iterator<Item = u64> + '_ {
    let end = trace.end.as_micros();
    trace
        .entries
        .iter()
        .filter(|e| {
            e.end.is_none()
                && matches!(
                    e.kind,
                    EntryKind::Deploy {
                        on_demand: false,
                        ..
                    }
                )
        })
        .map(move |e| end - e.at.as_micros())
}

/// `hits / predicted`, or 1 when nothing was predicted.
fn precision(hits: u64, predicted: u64) -> f64 {
    if predicted == 0 {
        1.0
    } else {
        hits as f64 / predicted as f64
    }
}

/// `1 − misses / invoked`, or 1 when nothing was invoked.
pub(crate) fn recall(misses: u64, invoked: u64) -> f64 {
    if invoked == 0 {
        1.0
    } else {
        1.0 - misses as f64 / invoked as f64
    }
}

/// Per-function prediction tallies aggregated across requests.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EdgeStats {
    /// Requests in which the function was speculatively pre-deployed.
    pub predicted: u64,
    /// Requests in which a pre-deploy of the function served (hit).
    pub hits: u64,
    /// Requests in which the function was invoked.
    pub invoked: u64,
    /// Requests in which its invocation was a prediction miss.
    pub misses: u64,
}

impl EdgeStats {
    /// hits / predicted (1 when never predicted).
    pub fn precision(&self) -> f64 {
        precision(self.hits, self.predicted)
    }

    /// (invoked − misses) / invoked (1 when never invoked).
    pub fn recall(&self) -> f64 {
        recall(self.misses, self.invoked)
    }
}

/// Aggregated MLP prediction quality.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MlpStats {
    /// Total speculative pre-deploys (function × request).
    pub predicted: u64,
    /// Pre-deploys that served an invocation.
    pub hits: u64,
    /// Total invocations.
    pub invoked: u64,
    /// Prediction misses.
    pub misses: u64,
    /// hits / predicted (1 when nothing was predicted).
    pub precision: f64,
    /// (invoked − misses) / invoked (1 when nothing was invoked).
    pub recall: f64,
    /// Per-function tallies, name-ordered.
    pub per_function: BTreeMap<String, EdgeStats>,
    /// Misses by cascade depth: `miss_depth[d]` counts misses whose
    /// function was the `d`-th invocation of its request.
    pub miss_depth: Vec<u64>,
}

/// Cost of speculation that never served.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WasteStats {
    /// Unused speculative deployments.
    pub deploys: u64,
    /// CPU-ms charged to them (deploy start to trace end).
    pub cpu_ms: f64,
}

/// JIT timeline quality over planned deployments that served.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct JitStats {
    /// Planned (non-on-demand) deployments that served an invocation.
    pub planned: u64,
    /// Of those, sandboxes ready after their invocation (the request
    /// waited).
    pub late: u64,
    /// Sandboxes ready at or before their invocation.
    pub on_time: u64,
    /// Distribution of positive lateness (ms), late deployments only.
    pub late_ms: LatencyStats,
    /// Distribution of pre-warm slack (ms), on-time deployments only.
    pub slack_ms: LatencyStats,
}

/// Run-level audit aggregates.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AuditSummary {
    /// Number of requests audited.
    pub requests: u64,
    /// End-to-end latency order statistics.
    pub end_to_end_ms: LatencyStats,
    /// Total milliseconds attributed to execution.
    pub exec_ms: f64,
    /// Total milliseconds attributed to cold-start waits.
    pub cold_start_wait_ms: f64,
    /// Total milliseconds attributed to warm-dispatch queueing.
    pub queue_wait_ms: f64,
    /// Total milliseconds attributed to stalls (backoff, gaps).
    pub stall_ms: f64,
    /// MLP prediction quality.
    pub mlp: MlpStats,
    /// Wasted-deploy accounting.
    pub waste: WasteStats,
    /// JIT timing quality.
    pub jit: JitStats,
}

/// A complete audit: run-level summary plus every per-request row.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Audit {
    /// Aggregates over [`Audit::requests`].
    pub summary: AuditSummary,
    /// Per-request audits, in the order given.
    pub requests: Vec<RequestAudit>,
    /// Cluster scheduling outcome (per-host utilization, tenant
    /// admission, cross-host cold attribution), attached via
    /// [`Audit::with_cluster`] when the run used an explicit multi-host
    /// cluster. Omitted from serialization otherwise, so single-testbed
    /// audits keep their pre-cluster shape.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cluster: Option<ClusterReport>,
}

/// Where [`Tally::add`] sends latency samples, in milliseconds: exact
/// values for the batch [`Audit`], fixed-bucket histograms for the
/// streaming audit.
pub(crate) trait SampleSink {
    /// A finished request's end-to-end and critical-path latencies.
    fn request(&mut self, r: &RequestAudit);
    /// A planned deployment's lateness (`late`) or pre-warm slack.
    fn jit(&mut self, late: bool, ms: f64);
}

/// The exact sink: the samples nearest-rank [`LatencyStats`] are built
/// from. The exact summary has no per-component distributions.
#[derive(Default)]
struct ExactSamples {
    end_to_end: Vec<f64>,
    late: Vec<f64>,
    slack: Vec<f64>,
}

impl SampleSink for ExactSamples {
    fn request(&mut self, r: &RequestAudit) {
        self.end_to_end.push(r.end_to_end_ms());
    }

    fn jit(&mut self, late: bool, ms: f64) {
        let samples = if late {
            &mut self.late
        } else {
            &mut self.slack
        };
        samples.push(ms);
    }
}

/// The run-level counters of the audit fold, kept identically by the
/// exact [`Audit`] and the
/// [`StreamingAudit`](crate::stream::StreamingAudit).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Tally {
    /// Requests folded in.
    pub requests: u64,
    /// Total exec microseconds.
    pub exec_us: u64,
    /// Total cold-start-wait microseconds.
    pub cold_us: u64,
    /// Total warm-queueing microseconds.
    pub queue_us: u64,
    /// Total stall microseconds.
    pub stall_us: u64,
    /// MLP hit/miss counts (precision and recall stay 0 here; the
    /// summaries derive them).
    pub mlp: MlpStats,
    /// Unused speculative deployments.
    pub waste_deploys: u64,
    /// Planned deployments that served an invocation.
    pub jit_planned: u64,
    /// Of those, sandboxes ready after their invocation.
    pub jit_late: u64,
    /// Sandboxes ready at or before their invocation.
    pub jit_on_time: u64,
}

impl Tally {
    /// Folds one finished request in, sending its latency samples to
    /// `sink`.
    pub(crate) fn add(&mut self, r: &RequestAudit, sink: &mut impl SampleSink) {
        self.requests += 1;
        self.exec_us += r.exec_us;
        self.cold_us += r.cold_start_wait_us;
        self.queue_us += r.queue_wait_us;
        self.stall_us += r.stall_us;
        sink.request(r);

        let mlp = &mut self.mlp;
        // Name keys are probed as `&str` and allocated only on a miss.
        for f in &r.predicted {
            let edge = match mlp.per_function.get_mut(&**f) {
                Some(edge) => edge,
                None => mlp.per_function.entry(f.to_string()).or_default(),
            };
            edge.predicted += 1;
            mlp.predicted += 1;
            if r.invoked.contains(f) {
                edge.hits += 1;
                mlp.hits += 1;
            }
        }
        for (depth, f) in r.invoked.iter().enumerate() {
            let edge = match mlp.per_function.get_mut(&**f) {
                Some(edge) => edge,
                None => mlp.per_function.entry(f.to_string()).or_default(),
            };
            edge.invoked += 1;
            mlp.invoked += 1;
            if r.missed.contains(f) {
                edge.misses += 1;
                mlp.misses += 1;
                if mlp.miss_depth.len() <= depth {
                    mlp.miss_depth.resize(depth + 1, 0);
                }
                mlp.miss_depth[depth] += 1;
            }
        }

        self.waste_deploys += r.unused_deploys;

        for s in r.jit.iter().filter(|s| !s.on_demand) {
            self.jit_planned += 1;
            if s.lateness_ms > 0.0 {
                self.jit_late += 1;
                sink.jit(true, s.lateness_ms);
            } else {
                self.jit_on_time += 1;
                sink.jit(false, -s.lateness_ms);
            }
        }
    }

    /// Adds another tally's counts (shard and epoch merges).
    pub(crate) fn merge_from(&mut self, other: &Tally) {
        self.requests += other.requests;
        self.exec_us += other.exec_us;
        self.cold_us += other.cold_us;
        self.queue_us += other.queue_us;
        self.stall_us += other.stall_us;
        for (name, edge) in &other.mlp.per_function {
            let mine = match self.mlp.per_function.get_mut(name) {
                Some(mine) => mine,
                None => self.mlp.per_function.entry(name.clone()).or_default(),
            };
            mine.predicted += edge.predicted;
            mine.hits += edge.hits;
            mine.invoked += edge.invoked;
            mine.misses += edge.misses;
        }
        self.mlp.predicted += other.mlp.predicted;
        self.mlp.hits += other.mlp.hits;
        self.mlp.invoked += other.mlp.invoked;
        self.mlp.misses += other.mlp.misses;
        if self.mlp.miss_depth.len() < other.mlp.miss_depth.len() {
            self.mlp.miss_depth.resize(other.mlp.miss_depth.len(), 0);
        }
        for (d, n) in other.mlp.miss_depth.iter().enumerate() {
            self.mlp.miss_depth[d] += n;
        }
        self.waste_deploys += other.waste_deploys;
        self.jit_planned += other.jit_planned;
        self.jit_late += other.jit_late;
        self.jit_on_time += other.jit_on_time;
    }

    /// The MLP statistics with precision and recall derived.
    pub(crate) fn mlp(&self) -> MlpStats {
        let mut mlp = self.mlp.clone();
        mlp.precision = precision(mlp.hits, mlp.predicted);
        mlp.recall = recall(mlp.misses, mlp.invoked);
        mlp
    }

    /// The critical-path component totals in milliseconds: exec,
    /// cold-start wait, queue wait, stall.
    pub(crate) fn component_ms(&self) -> [f64; 4] {
        [self.exec_us, self.cold_us, self.queue_us, self.stall_us].map(|us| us as f64 / 1000.0)
    }
}

impl Audit {
    /// Aggregates per-request audits into a full audit.
    pub fn from_requests(requests: Vec<RequestAudit>) -> Audit {
        let mut tally = Tally::default();
        let mut samples = ExactSamples::default();
        let mut wasted_cpu_ms = 0.0;
        for r in &requests {
            tally.add(r, &mut samples);
            wasted_cpu_ms += r.wasted_cpu_ms;
        }
        let [exec_ms, cold_start_wait_ms, queue_wait_ms, stall_ms] = tally.component_ms();
        let summary = AuditSummary {
            requests: tally.requests,
            end_to_end_ms: LatencyStats::from_samples(samples.end_to_end),
            exec_ms,
            cold_start_wait_ms,
            queue_wait_ms,
            stall_ms,
            mlp: tally.mlp(),
            waste: WasteStats {
                deploys: tally.waste_deploys,
                cpu_ms: wasted_cpu_ms,
            },
            jit: JitStats {
                planned: tally.jit_planned,
                late: tally.jit_late,
                on_time: tally.jit_on_time,
                late_ms: LatencyStats::from_samples(samples.late),
                slack_ms: LatencyStats::from_samples(samples.slack),
            },
        };
        Audit {
            summary,
            requests,
            cluster: None,
        }
    }

    /// Attaches a cluster scheduling report (see
    /// [`Platform::cluster_report`](crate::Platform::cluster_report)).
    #[must_use]
    pub fn with_cluster(mut self, cluster: Option<ClusterReport>) -> Audit {
        self.cluster = cluster;
        self
    }

    /// Builds the audit of `(request id, trace)` pairs (callers pass them
    /// in request order).
    pub fn from_traces(traces: &[(u64, Trace)]) -> Audit {
        Audit::from_requests(
            traces
                .iter()
                .map(|(id, t)| RequestAudit::from_trace(*id, t))
                .collect(),
        )
    }

    /// Renders the human-readable audit report.
    pub fn render(&self) -> String {
        let s = &self.summary;
        let mut out = String::new();
        let _ = writeln!(out, "speculation audit — {} requests", s.requests);
        let _ = writeln!(
            out,
            "  end-to-end ms: mean {:.1}  p50 {:.1}  p95 {:.1}  p99 {:.1}  max {:.1}",
            s.end_to_end_ms.mean,
            s.end_to_end_ms.p50,
            s.end_to_end_ms.p95,
            s.end_to_end_ms.p99,
            s.end_to_end_ms.max
        );
        let total = s.exec_ms + s.cold_start_wait_ms + s.queue_wait_ms + s.stall_ms;
        let pct = |part: f64| {
            if total > 0.0 {
                100.0 * part / total
            } else {
                0.0
            }
        };
        let _ = writeln!(
            out,
            "  critical path: exec {:.1}ms ({:.1}%)  cold-start wait {:.1}ms ({:.1}%)  \
             queue wait {:.1}ms ({:.1}%)  stall {:.1}ms ({:.1}%)",
            s.exec_ms,
            pct(s.exec_ms),
            s.cold_start_wait_ms,
            pct(s.cold_start_wait_ms),
            s.queue_wait_ms,
            pct(s.queue_wait_ms),
            s.stall_ms,
            pct(s.stall_ms)
        );
        let _ = writeln!(
            out,
            "  MLP: precision {:.2} ({}/{} pre-deploys served)  recall {:.2} \
             ({} misses / {} invocations)",
            s.mlp.precision, s.mlp.hits, s.mlp.predicted, s.mlp.recall, s.mlp.misses, s.mlp.invoked
        );
        if !s.mlp.miss_depth.is_empty() {
            let depths: Vec<String> = s
                .mlp
                .miss_depth
                .iter()
                .enumerate()
                .map(|(d, n)| format!("d{d}={n}"))
                .collect();
            let _ = writeln!(out, "  misses by cascade depth: {}", depths.join(" "));
        }
        let _ = writeln!(
            out,
            "  waste: {} unused pre-deploys, {:.1} CPU-ms",
            s.waste.deploys, s.waste.cpu_ms
        );
        let _ = writeln!(
            out,
            "  JIT: {} planned deploys served — {} on time (p50 slack {:.1}ms), \
             {} late (p95 lateness {:.1}ms)",
            s.jit.planned, s.jit.on_time, s.jit.slack_ms.p50, s.jit.late, s.jit.late_ms.p95
        );
        if let Some(c) = &self.cluster {
            let _ = writeln!(
                out,
                "  cluster ({} hosts, {} policy): {} placed, {} evicted, \
                 {} overcommitted, {} booted, {} failed",
                c.hosts.len(),
                c.policy.label(),
                c.hosts.iter().map(|h| h.placed).sum::<u64>(),
                c.hosts.iter().map(|h| h.evicted).sum::<u64>(),
                c.overcommitted,
                c.hosts_booted,
                c.hosts_failed
            );
            let chained = c.cross_host_cold + c.same_host_cold;
            if chained > 0 {
                let _ = writeln!(
                    out,
                    "    cold cascades: {} cross-host, {} co-located \
                     ({:.1}% locality), {} retargets co-located",
                    c.cross_host_cold,
                    c.same_host_cold,
                    100.0 * c.same_host_cold as f64 / chained as f64,
                    c.retargets_colocated
                );
            }
            for h in &c.hosts {
                let _ = writeln!(
                    out,
                    "    {}: peak {:.1}% of {} MB ({} placed, {} evicted, {} failures)",
                    h.name,
                    100.0 * h.peak_utilization(),
                    h.memory_mb,
                    h.placed,
                    h.evicted,
                    h.failures
                );
            }
            for t in &c.tenants {
                let _ = writeln!(
                    out,
                    "    tenant {}: {} placed, {} rejected, peak {} MB",
                    t.name, t.placed, t.rejected, t.peak_used_mb
                );
            }
        }
        out
    }
}

/// Regression gates for [`diff_audits`] / [`diff_metrics`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiffThresholds {
    /// Maximum tolerated relative increase of a latency quantile, percent.
    pub max_p95_regress_pct: f64,
    /// Maximum tolerated relative increase of wasted-deploy CPU-ms,
    /// percent.
    pub max_wasted_cpu_regress_pct: f64,
    /// Maximum tolerated absolute drop of MLP recall (and precision).
    pub max_recall_drop: f64,
}

impl Default for DiffThresholds {
    fn default() -> Self {
        DiffThresholds {
            max_p95_regress_pct: 10.0,
            max_wasted_cpu_regress_pct: 25.0,
            max_recall_drop: 0.05,
        }
    }
}

/// One metric that moved past its threshold, with the JSON-pointer-style
/// path of the offending field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Regression {
    /// Path of the field in the audit/metrics document (`$.summary…`).
    pub path: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// Human-readable statement of the exceeded limit.
    pub allowed: String,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: baseline {:.3} -> candidate {:.3} ({})",
            self.path, self.baseline, self.candidate, self.allowed
        )
    }
}

/// Milliseconds below which a relative latency/cost increase is ignored —
/// keeps near-zero baselines from flagging noise as an infinite-percent
/// regression.
pub(crate) const ABS_FLOOR_MS: f64 = 1.0;

pub(crate) fn pct_regression(
    path: &str,
    baseline: f64,
    candidate: f64,
    max_pct: f64,
) -> Option<Regression> {
    if candidate <= baseline || candidate < ABS_FLOOR_MS {
        return None;
    }
    let (grew, allowed) = if baseline < ABS_FLOOR_MS {
        // From ~zero any material value is an infinite-percent increase.
        (
            true,
            format!("grew from ~0 past the {ABS_FLOOR_MS}ms floor"),
        )
    } else {
        let pct = 100.0 * (candidate - baseline) / baseline;
        (
            pct > max_pct,
            format!("+{pct:.1}% > allowed +{max_pct:.1}%"),
        )
    };
    grew.then_some(Regression {
        path: path.to_string(),
        baseline,
        candidate,
        allowed,
    })
}

pub(crate) fn drop_regression(
    path: &str,
    baseline: f64,
    candidate: f64,
    max_drop: f64,
) -> Option<Regression> {
    let drop = baseline - candidate;
    (drop > max_drop).then_some(Regression {
        path: path.to_string(),
        baseline,
        candidate,
        allowed: format!("-{drop:.3} > allowed -{max_drop:.3}"),
    })
}

/// Compares two audits and returns every threshold the candidate crossed.
/// Empty means no regression.
pub fn diff_audits(
    baseline: &Audit,
    candidate: &Audit,
    thresholds: &DiffThresholds,
) -> Vec<Regression> {
    let (b, c) = (&baseline.summary, &candidate.summary);
    let mut out = Vec::new();
    out.extend(pct_regression(
        "$.summary.end_to_end_ms.p50",
        b.end_to_end_ms.p50,
        c.end_to_end_ms.p50,
        thresholds.max_p95_regress_pct,
    ));
    out.extend(pct_regression(
        "$.summary.end_to_end_ms.p95",
        b.end_to_end_ms.p95,
        c.end_to_end_ms.p95,
        thresholds.max_p95_regress_pct,
    ));
    out.extend(pct_regression(
        "$.summary.waste.cpu_ms",
        b.waste.cpu_ms,
        c.waste.cpu_ms,
        thresholds.max_wasted_cpu_regress_pct,
    ));
    out.extend(drop_regression(
        "$.summary.mlp.recall",
        b.mlp.recall,
        c.mlp.recall,
        thresholds.max_recall_drop,
    ));
    out.extend(drop_regression(
        "$.summary.mlp.precision",
        b.mlp.precision,
        c.mlp.precision,
        thresholds.max_recall_drop,
    ));
    out
}

/// Compares two metrics snapshots: every histogram present in both gates
/// on its interpolated p95, and the prediction-miss rate (misses per
/// triggered request) gates on the recall-drop threshold.
pub fn diff_metrics(
    baseline: &MetricsRegistry,
    candidate: &MetricsRegistry,
    thresholds: &DiffThresholds,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for (name, bh) in &baseline.histograms {
        let Some(ch) = candidate.histogram(name) else {
            continue;
        };
        out.extend(pct_regression(
            &format!("$.histograms.{name}.p95"),
            bh.quantile_ms(0.95),
            ch.quantile_ms(0.95),
            thresholds.max_p95_regress_pct,
        ));
    }
    let recall = |m: &MetricsRegistry| {
        recall(
            m.counter("prediction.misses"),
            m.counter("requests.triggered"),
        )
    };
    out.extend(drop_regression(
        "$.counters.prediction.misses (recall per trigger)",
        recall(baseline),
        recall(candidate),
        thresholds.max_recall_drop,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_events as ev;
    use xanadu_simcore::SimTime;

    /// a: planned, slightly late. b: miss, on-demand. spare: wasted.
    fn sample_trace() -> Trace {
        let ms = SimTime::from_millis;
        ev::trace(vec![
            (ms(0), ev::triggered()),
            (ms(0), ev::plan(2)),
            (ms(0), ev::deploy("a", false, 120.0)),
            (ms(0), ev::deploy("spare", false, 150.0)),
            (ms(100), ev::invoked("a")),
            (ms(120), ev::exec_started("a", false)),
            (ms(620), ev::exec_ended("a")),
            (ms(620), ev::miss("b")),
            (ms(620), ev::invoked("b")),
            (ms(620), ev::deploy("b", true, 780.0)),
            (ms(1400), ev::exec_started("b", false)),
            (ms(1700), ev::exec_ended("b")),
            (ms(1700), ev::completed()),
        ])
    }

    #[test]
    fn decomposition_partitions_the_timeline_exactly() {
        let audit = RequestAudit::from_trace(3, &sample_trace());
        assert_eq!(audit.request, 3);
        assert_eq!(audit.end_to_end_us, 1_700_000);
        // exec: 120–620 and 1400–1700 = 800ms.
        assert_eq!(audit.exec_us, 800_000);
        // cold waits: 100–120 (a) and 620–1400 (b) = 800ms.
        assert_eq!(audit.cold_start_wait_us, 800_000);
        assert_eq!(audit.queue_wait_us, 0);
        // Stall: 0–100 before the first invocation.
        assert_eq!(audit.stall_us, 100_000);
        assert!(audit.decomposition_sums_to_end_to_end());
    }

    #[test]
    fn prediction_waste_and_jit_are_attributed() {
        let audit = RequestAudit::from_trace(0, &sample_trace());
        assert_eq!(audit.predicted, ["a", "spare"].map(Arc::<str>::from));
        assert_eq!(audit.invoked, ["a", "b"].map(Arc::<str>::from));
        assert_eq!(audit.missed, [Arc::<str>::from("b")]);
        assert!((audit.precision() - 0.5).abs() < 1e-9, "spare never served");
        assert!((audit.recall() - 0.5).abs() < 1e-9, "b was a miss");
        assert_eq!(audit.unused_deploys, 1);
        // spare charged from deploy start (0) to trace end (1700ms).
        assert!((audit.wasted_cpu_ms - 1700.0).abs() < 1e-9);
        // a: ready 120 vs invoked 100 → 20ms late. b: on-demand, 780ms.
        assert_eq!(audit.jit.len(), 2);
        assert!(!audit.jit[0].on_demand);
        assert!((audit.jit[0].lateness_ms - 20.0).abs() < 1e-9);
        assert!(audit.jit[1].on_demand);
        assert!((audit.jit[1].lateness_ms - 780.0).abs() < 1e-9);
    }

    #[test]
    fn audit_aggregates_across_requests() {
        let traces = vec![(0, sample_trace()), (1, sample_trace())];
        let audit = Audit::from_traces(&traces);
        let s = &audit.summary;
        assert_eq!(s.requests, 2);
        assert_eq!(s.end_to_end_ms.count, 2);
        assert!((s.end_to_end_ms.p95 - 1700.0).abs() < 1e-9);
        assert_eq!(s.mlp.predicted, 4);
        assert_eq!(s.mlp.hits, 2);
        assert_eq!(s.mlp.misses, 2);
        assert!((s.mlp.precision - 0.5).abs() < 1e-9);
        assert!((s.mlp.recall - 0.5).abs() < 1e-9);
        // b misses at cascade depth 1 in both requests.
        assert_eq!(s.mlp.miss_depth, vec![0, 2]);
        let edge_b = &s.mlp.per_function["b"];
        assert_eq!((edge_b.invoked, edge_b.misses), (2, 2));
        assert_eq!(s.waste.deploys, 2);
        assert_eq!(s.jit.planned, 2);
        assert_eq!(s.jit.late, 2);
        let rendered = audit.render();
        assert!(
            rendered.contains("speculation audit — 2 requests"),
            "{rendered}"
        );
        assert!(
            rendered.contains("misses by cascade depth: d0=0 d1=2"),
            "{rendered}"
        );
    }

    #[test]
    fn latency_stats_use_nearest_rank() {
        let stats = LatencyStats::from_samples((1..=100).map(|i| i as f64).collect());
        assert_eq!(stats.count, 100);
        assert!((stats.p50 - 50.0).abs() < 1e-9);
        assert!((stats.p95 - 95.0).abs() < 1e-9);
        assert!((stats.p99 - 99.0).abs() < 1e-9);
        assert!((stats.max - 100.0).abs() < 1e-9);
        assert_eq!(
            LatencyStats::from_samples(Vec::new()),
            LatencyStats::default()
        );
    }

    #[test]
    fn diff_flags_p95_waste_and_recall_regressions() {
        let base = Audit::from_traces(&[(0, sample_trace())]);
        let thresholds = DiffThresholds::default();
        assert!(diff_audits(&base, &base, &thresholds).is_empty());

        let mut worse = base.clone();
        worse.summary.end_to_end_ms.p95 *= 1.5;
        worse.summary.waste.cpu_ms *= 2.0;
        worse.summary.mlp.recall -= 0.2;
        let regressions = diff_audits(&base, &worse, &thresholds);
        let paths: Vec<&str> = regressions.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "$.summary.end_to_end_ms.p95",
                "$.summary.waste.cpu_ms",
                "$.summary.mlp.recall"
            ]
        );
        assert!(regressions[0].to_string().contains("allowed +10.0%"));

        // Improvements and sub-floor noise never flag.
        let mut better = base.clone();
        better.summary.end_to_end_ms.p95 *= 0.5;
        better.summary.waste.cpu_ms = 0.0;
        assert!(diff_audits(&base, &better, &thresholds).is_empty());
    }

    #[test]
    fn diff_metrics_gates_on_histogram_p95_and_miss_rate() {
        let mut base = MetricsRegistry::new();
        base.incr("requests.triggered", 10);
        base.incr("prediction.misses", 1);
        for _ in 0..20 {
            base.observe_ms("end_to_end_ms", 400.0);
        }
        let mut cand = base.clone();
        assert!(diff_metrics(&base, &cand, &DiffThresholds::default()).is_empty());
        for _ in 0..20 {
            cand.observe_ms("end_to_end_ms", 9_000.0);
        }
        cand.incr("prediction.misses", 4);
        let regressions = diff_metrics(&base, &cand, &DiffThresholds::default());
        assert!(
            regressions
                .iter()
                .any(|r| r.path == "$.histograms.end_to_end_ms.p95"),
            "{regressions:?}"
        );
        assert!(
            regressions
                .iter()
                .any(|r| r.path.contains("prediction.misses")),
            "{regressions:?}"
        );
    }
}
