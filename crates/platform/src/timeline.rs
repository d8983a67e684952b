//! Per-request execution timelines.
//!
//! The platform records, for every request, the sequence of orchestration
//! events that Figure 10 of the paper narrates — planning-driven
//! deployments, function invocations, dispatches into workers, completions
//! and prediction misses — as a [`Trace`]: the request's own
//! [`BusEvent`]s, exactly as its observers received them.
//!
//! One fold reads those events. It pairs each request's provisions,
//! invocations and executions into deploy, wait and exec intervals (each
//! execution numbered by attempt) and keeps its plan, miss, crash,
//! timeout, retry and failed-deploy markers, in event order. Everything
//! else is read off that folded timeline: the request's audit row
//! ([`RequestAudit`](crate::RequestAudit)), its [`SpanTree`] and its
//! Gantt chart ([`Trace::render_gantt`]). The fold runs over a recorded
//! trace here, and over the live bus in the [`stream`](crate::stream)
//! tier, whose exemplars keep the folded timeline instead of a trace.
//! Traces power debugging, the CLI's `--trace` output, and assertions
//! about *when* things happened rather than only aggregate latencies.

use crate::events::BusEvent;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;
use xanadu_simcore::{SimDuration, SimTime};

/// A timestamped trace event: one of the request's own bus events,
/// exactly as emitted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// When the event happened.
    pub at: SimTime,
    /// What happened.
    pub event: BusEvent,
}

/// The ordered event timeline of one request.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Records an event (events arrive in simulation order).
    pub(crate) fn record(&mut self, at: SimTime, event: BusEvent) {
        self.events.push(TraceEvent { at, event });
    }

    /// The events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The fold of the trace's events (the request spans its first to
    /// its last event), or `None` for an empty trace.
    pub(crate) fn timeline(&self) -> Option<Timeline> {
        let (first, last) = (self.events.first()?, self.events.last()?);
        let mut fold = RequestFold::new(first.at);
        for e in &self.events {
            fold.apply(e.at, &e.event);
        }
        Some(fold.finish(last.at))
    }

    /// Renders the trace as an ASCII Gantt chart: one row per function,
    /// bars for provisioning-to-exec (`░`) and execution (`█`), `width`
    /// columns spanning trigger to completion.
    ///
    /// Returns an empty string for an empty trace.
    pub fn render_gantt(&self, width: usize) -> String {
        self.timeline()
            .map_or_else(String::new, |t| t.render_gantt(width))
    }
}

/// Records each request's [`Trace`] from the bus for
/// [`Platform::trace`](crate::Platform::trace), with `record_traces` on:
/// every event is filed under the request its `lifecycle_request` names,
/// as emitted. Pool-owned provisions name a request that is never in
/// flight, so they land in no trace.
#[derive(Debug, Clone, Default)]
pub(crate) struct TraceRecorder {
    /// Timelines of requests in flight, opened at their trigger.
    open: BTreeMap<u64, Trace>,
    /// Timelines of completed requests.
    done: HashMap<u64, Trace>,
}

impl TraceRecorder {
    /// Records one event at `at`, keeping the timeline it completes.
    pub(crate) fn on_event(&mut self, at: SimTime, event: &BusEvent) {
        let Some(request) = event.lifecycle_request() else {
            return;
        };
        if let BusEvent::RequestTriggered { .. } = event {
            self.open.insert(request, Trace::default());
        }
        let Some(trace) = self.open.get_mut(&request) else {
            return;
        };
        trace.record(at, event.clone());
        if let BusEvent::RequestCompleted { .. } = event {
            if let Some(trace) = self.open.remove(&request) {
                self.done.insert(request, trace);
            }
        }
    }

    /// The timeline of a completed request.
    pub(crate) fn get(&self, request: u64) -> Option<&Trace> {
        self.done.get(&request)
    }

    /// Moves out every completed timeline, in no particular order.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (u64, Trace)> + '_ {
        self.done.drain()
    }
}

/// What a timeline [`Entry`] records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum EntryKind {
    /// A sandbox provisioned for the request, warm at `ready`. It ends at
    /// the execution start that claimed it.
    Deploy { ready: SimTime, on_demand: bool },
    /// An invocation waiting for its sandbox until its execution start;
    /// `warm` when a warm sandbox served it.
    Wait { warm: bool },
    /// One execution attempt (1 for the first); `timed_out` when a
    /// timeout, not completion, ended it.
    Exec { attempt: u64, timed_out: bool },
    /// The plan scheduled `planned` deployments.
    Plan { planned: u64 },
    /// The function was invoked off the plan.
    Miss,
    /// A crash orphaned the function's invocation.
    Crash,
    /// An invocation timed out at fault attempt `attempt`.
    Timeout { attempt: u64 },
    /// A faulted invocation was retried (retry `attempt`).
    Retry { attempt: u64 },
    /// A speculative pre-deployment failed (fault attempt `attempt`).
    DeployFailed { attempt: u64 },
}

/// One interval or marker of a [`Timeline`], opened by the event at
/// `at`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Entry {
    /// The function it concerns; a plan's is its workflow.
    pub(crate) name: Arc<str>,
    pub(crate) at: SimTime,
    /// When a deploy, wait or execution closed: `None` while it is open,
    /// and for a marker.
    pub(crate) end: Option<SimTime>,
    pub(crate) kind: EntryKind,
}

/// A request's lifecycle as [`RequestFold`] pairs it: every interval and
/// marker in the order of the events that opened them. The audit row, the
/// span tree and the Gantt chart are all read off it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Timeline {
    /// The trigger.
    pub(crate) start: SimTime,
    /// The completion.
    pub(crate) end: SimTime,
    pub(crate) entries: Vec<Entry>,
}

/// The one reader of a request's lifecycle events: it turns them into the
/// request's [`Timeline`]. It holds only that request's entries, so the
/// streaming tier keeps one per in-flight request and drops it at
/// completion.
#[derive(Debug, Clone)]
pub(crate) struct RequestFold(Timeline);

impl RequestFold {
    /// An empty fold for a request triggered at `start`.
    pub(crate) fn new(start: SimTime) -> Self {
        RequestFold(Timeline {
            start,
            end: start,
            entries: Vec::new(),
        })
    }

    /// Applies one lifecycle event that happened at `at`. An execution
    /// start claims the function's first unclaimed deployment and closes
    /// its first open wait; an execution end or timeout closes its first
    /// open execution.
    pub(crate) fn apply(&mut self, at: SimTime, event: &BusEvent) {
        use BusEvent as E;
        use EntryKind as K;
        let entries = &mut self.0.entries;
        let (name, kind) = match event {
            E::WorkerProvisioned {
                function,
                on_demand,
                ready_in_ms,
                ..
            } => {
                // The platform built `ready_in_ms` from whole µs, so
                // rounding recovers them exactly.
                let ready = at + SimDuration::from_millis_f64(*ready_in_ms);
                let on_demand = *on_demand;
                (function, K::Deploy { ready, on_demand })
            }
            E::FunctionInvoked { function, .. } => (function, K::Wait { warm: false }),
            E::ExecStarted { function, warm, .. } => {
                let (mut deploy, mut wait, mut attempt) = (true, true, 1);
                for e in entries.iter_mut().filter(|e| e.name == *function) {
                    match &mut e.kind {
                        K::Deploy { .. } if deploy && e.end.is_none() => {
                            e.end = Some(at);
                            deploy = false;
                        }
                        K::Wait { warm: served_warm } if wait && e.end.is_none() => {
                            (e.end, *served_warm) = (Some(at), *warm);
                            wait = false;
                        }
                        K::Exec { .. } => attempt += 1,
                        _ => {}
                    }
                }
                (
                    function,
                    K::Exec {
                        attempt,
                        timed_out: false,
                    },
                )
            }
            E::ExecEnded { function, .. } | E::InvokeTimeout { function, .. } => {
                let timeout = match event {
                    E::InvokeTimeout { attempt, .. } => Some(*attempt),
                    _ => None,
                };
                for e in entries
                    .iter_mut()
                    .filter(|e| e.name == *function && e.end.is_none())
                {
                    if let K::Exec { timed_out, .. } = &mut e.kind {
                        (e.end, *timed_out) = (Some(at), timeout.is_some());
                        break;
                    }
                }
                let Some(attempt) = timeout else {
                    return;
                };
                (function, K::Timeout { attempt })
            }
            E::PlanComputed {
                workflow, planned, ..
            } => (workflow, K::Plan { planned: *planned }),
            E::PredictionMiss { function, .. } => (function, K::Miss),
            E::WorkerCrashed { function, .. } => (function, K::Crash),
            E::InvokeRetried {
                function, attempt, ..
            } => (function, K::Retry { attempt: *attempt }),
            E::DeployFailed {
                function, attempt, ..
            } => (function, K::DeployFailed { attempt: *attempt }),
            _ => return,
        };
        entries.push(Entry {
            name: Arc::clone(name),
            at,
            end: None,
            kind,
        });
    }

    /// Ends the request at `end` and returns its timeline.
    pub(crate) fn finish(mut self, end: SimTime) -> Timeline {
        self.0.end = end;
        self.0
    }
}

impl Timeline {
    /// The entries of function `name`.
    fn of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Entry> + 'a {
        self.entries.iter().filter(move |e| &*e.name == name)
    }

    /// The first entry of function `name` that `keep` selects.
    pub(crate) fn first(&self, name: &str, keep: fn(&EntryKind) -> bool) -> Option<&Entry> {
        self.entries
            .iter()
            .find(|e| &*e.name == name && keep(&e.kind))
    }

    /// The functions of the entries `keep` selects, in first-entry order.
    pub(crate) fn functions(&self, keep: fn(&EntryKind) -> bool) -> Vec<Arc<str>> {
        let mut out: Vec<Arc<str>> = Vec::new();
        for e in self.entries.iter().filter(|e| keep(&e.kind)) {
            if !out.contains(&e.name) {
                out.push(Arc::clone(&e.name));
            }
        }
        out
    }

    /// Renders the ASCII Gantt chart of [`Trace::render_gantt`]. A row's
    /// bars run from the function's first provision to its first
    /// execution start (`░`), and from there to its first completed
    /// execution (`█`).
    pub(crate) fn render_gantt(&self, width: usize) -> String {
        use EntryKind as K;
        let width = width.clamp(20, 200);
        let (start, end) = (self.start, self.end);
        let span = end.saturating_since(start).as_millis_f64().max(1.0);
        let col = |t: SimTime| -> usize {
            let frac = t.saturating_since(start).as_millis_f64() / span;
            ((frac * (width - 1) as f64).round() as usize).min(width - 1)
        };

        // One row per function, in first-appearance order; a plan or a
        // fault marker opens none.
        let functions = self.functions(|k| {
            matches!(
                k,
                K::Deploy { .. } | K::Wait { .. } | K::Exec { .. } | K::Miss
            )
        });
        let name_width = functions.iter().map(|f| f.len()).max().unwrap_or(4).max(4);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>name_width$} |{}| {:.1}s total",
            "",
            "-".repeat(width),
            span / 1000.0
        );
        for f in &functions {
            let deploy = self.first(f, |k| matches!(k, K::Deploy { .. }));
            let exec_start = self.first(f, |k| matches!(k, K::Exec { .. }));
            let exec_end = self
                .of(f)
                .filter(|e| {
                    matches!(
                        e.kind,
                        K::Exec {
                            timed_out: false,
                            ..
                        }
                    )
                })
                .filter_map(|e| e.end)
                .min();
            let exec = exec_start.map(|e| e.at).zip(exec_end);
            let mut row = vec![' '; width];
            if let (Some(d), Some((xs, _))) = (deploy, exec) {
                for cell in row.iter_mut().take(col(xs)).skip(col(d.at)) {
                    *cell = '░';
                }
            }
            if let Some((xs, xe)) = exec {
                for cell in row.iter_mut().take(col(xe) + 1).skip(col(xs)) {
                    *cell = '█';
                }
            }
            let missed = self.first(f, |k| *k == K::Miss).is_some();
            let marker = if missed { " (miss)" } else { "" };
            let _ = writeln!(
                out,
                "{f:>name_width$} |{}|{marker}",
                row.iter().collect::<String>()
            );
        }
        out
    }
}

/// What a [`Span`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// The whole request, trigger to completion.
    Request,
    /// A sandbox provisioning window (deploy start → first execution).
    Deploy,
    /// The wait between invocation and execution start (queueing,
    /// cold-start overlap).
    Wait,
    /// One execution attempt of a function.
    Exec,
}

/// A named interval in a request's timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Human-readable label (`"exec f"`, `"deploy f"`, …).
    pub name: String,
    /// What the span measures.
    pub kind: SpanKind,
    /// Function the span belongs to (empty for the request root).
    pub function: String,
    /// Start of the interval.
    pub start: SimTime,
    /// End of the interval.
    pub end: SimTime,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// A zero-duration annotation on the timeline (miss, crash, timeout,
/// retry markers).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanMarker {
    /// When it happened.
    pub at: SimTime,
    /// What happened (`"crash f"`, `"retry f #2"`, …).
    pub label: String,
    /// Function the marker belongs to.
    pub function: String,
}

/// The span decomposition of one request: a root request span, child
/// spans for every deploy / wait / exec interval, and instant markers for
/// faults and mispredictions.
///
/// Derived deterministically from the request's folded lifecycle — two
/// identical traces always yield identical trees, which is what makes the
/// Chrome trace export byte-reproducible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanTree {
    /// The request this tree describes.
    pub request: u64,
    /// The root request span (trigger → completion).
    pub root: Span,
    /// Child intervals, ordered by (start, end, name).
    pub children: Vec<Span>,
    /// Instant annotations, in trace order.
    pub markers: Vec<SpanMarker>,
}

impl SpanTree {
    /// Builds the span tree of `trace`, or `None` for an empty trace.
    ///
    /// Each retried execution is its own `Exec` span, numbered by
    /// attempt. Deploy spans close at the execution start that claimed
    /// the sandbox (or at trace end for workers that never served). Waits
    /// and executions still open at the end have no span.
    pub fn from_trace(request: u64, trace: &Trace) -> Option<SpanTree> {
        Some(SpanTree::from_timeline(request, &trace.timeline()?))
    }

    /// The span tree of a folded timeline.
    pub(crate) fn from_timeline(request: u64, timeline: &Timeline) -> SpanTree {
        use EntryKind as K;
        let (mut children, mut markers) = (Vec::new(), Vec::new());
        for e in &timeline.entries {
            let f = &*e.name;
            let (kind, name, end) = match (&e.kind, e.end) {
                (K::Deploy { .. }, Some(end)) => (SpanKind::Deploy, format!("deploy {f}"), end),
                // Workers that never served: their provisioning still
                // cost time.
                (K::Deploy { .. }, None) => (
                    SpanKind::Deploy,
                    format!("deploy {f} (unused)"),
                    timeline.end,
                ),
                (K::Wait { .. }, Some(end)) => (SpanKind::Wait, format!("wait {f}"), end),
                (K::Exec { attempt: 1, .. }, Some(end)) => {
                    (SpanKind::Exec, format!("exec {f}"), end)
                }
                (K::Exec { attempt, .. }, Some(end)) => {
                    (SpanKind::Exec, format!("exec {f} #{attempt}"), end)
                }
                (K::Wait { .. } | K::Exec { .. }, None) => continue,
                (marker, _) => {
                    let label = match marker {
                        K::Plan { planned } => format!("plan ({planned} deployments)"),
                        K::Crash => format!("crash {f}"),
                        K::Timeout { attempt } => format!("timeout {f} (attempt {attempt})"),
                        K::Retry { attempt } => format!("retry {f} #{attempt}"),
                        K::DeployFailed { attempt } => {
                            format!("deploy-failed {f} (attempt {attempt})")
                        }
                        // The one marker left: a prediction miss.
                        _ => format!("miss {f}"),
                    };
                    let function = match marker {
                        K::Plan { .. } => String::new(),
                        _ => f.to_string(),
                    };
                    markers.push(SpanMarker {
                        at: e.at,
                        label,
                        function,
                    });
                    continue;
                }
            };
            children.push(Span {
                name,
                kind,
                function: f.to_string(),
                start: e.at,
                end,
            });
        }
        children.sort_by(|a, b| {
            (a.start, a.end, a.name.as_str()).cmp(&(b.start, b.end, b.name.as_str()))
        });

        SpanTree {
            request,
            root: Span {
                name: format!("request {request}"),
                kind: SpanKind::Request,
                function: String::new(),
                start: timeline.start,
                end: timeline.end,
            },
            children,
            markers,
        }
    }

    /// The functions appearing in the tree, in first-appearance order —
    /// the deterministic lane assignment exporters use.
    pub fn functions(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for name in self
            .children
            .iter()
            .map(|s| s.function.as_str())
            .chain(self.markers.iter().map(|m| m.function.as_str()))
        {
            if !name.is_empty() && !out.contains(&name) {
                out.push(name);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_events as ev;

    fn sample() -> Trace {
        let mut t = Trace::default();
        let ms = SimTime::from_millis;
        t.record(ms(0), ev::triggered());
        t.record(ms(0), ev::deploy("a", false, 3000.0));
        t.record(ms(20), ev::invoked("a"));
        t.record(ms(3000), ev::exec_started("a", false));
        t.record(ms(3500), ev::exec_ended("a"));
        t.record(ms(3520), ev::miss("b"));
        t.record(ms(3520), ev::invoked("b"));
        t.record(ms(3520), ev::deploy("b", true, 3080.0));
        t.record(ms(6600), ev::exec_started("b", false));
        t.record(ms(7100), ev::exec_ended("b"));
        t.record(ms(7100), ev::completed());
        t
    }

    #[test]
    fn intervals_and_windows() {
        let t = sample();
        let timeline = t.timeline().unwrap();
        let execs = |f: &str| -> Vec<(SimTime, Option<SimTime>)> {
            timeline
                .of(f)
                .filter(|e| matches!(e.kind, EntryKind::Exec { .. }))
                .map(|e| (e.at, e.end))
                .collect()
        };
        let ms = SimTime::from_millis;
        assert_eq!(execs("a"), vec![(ms(3000), Some(ms(3500)))]);
        assert!(execs("ghost").is_empty());
        assert_eq!((timeline.start, timeline.end), (ms(0), ms(7100)));
        assert_eq!(t.len(), 11);
        assert!(!t.is_empty());
    }

    #[test]
    fn gantt_renders_rows_and_miss_markers() {
        let g = sample().render_gantt(60);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3, "header + one row per function: {g}");
        assert!(lines[1].trim_start().starts_with('a'));
        assert!(lines[2].contains("(miss)"));
        assert!(g.contains('█'), "execution bars present");
        assert!(g.contains('░'), "provisioning bars present");
        // Execution of `b` ends at the right edge (char positions — the
        // block glyphs are multi-byte).
        let b_row: Vec<char> = lines[2].chars().collect();
        let bar_end = b_row.iter().rposition(|&c| c == '█').unwrap();
        let bar_close = b_row.iter().rposition(|&c| c == '|').unwrap();
        assert!(
            bar_close - bar_end <= 1,
            "b runs to completion: {}",
            lines[2]
        );
    }

    #[test]
    fn empty_trace_renders_empty() {
        let t = Trace::default();
        assert!(t.render_gantt(60).is_empty());
        assert!(t.is_empty());
    }

    #[test]
    fn serde_roundtrip() {
        let t = sample();
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn span_tree_decomposes_the_sample_trace() {
        let tree = SpanTree::from_trace(3, &sample()).unwrap();
        assert_eq!(tree.request, 3);
        assert_eq!(tree.root.kind, SpanKind::Request);
        assert_eq!(tree.root.start, SimTime::ZERO);
        assert_eq!(tree.root.end, SimTime::from_millis(7100));
        // a: deploy + wait + exec; b: deploy + wait + exec.
        assert_eq!(tree.children.len(), 6);
        let exec_a = tree
            .children
            .iter()
            .find(|s| s.name == "exec a")
            .expect("exec a span");
        assert_eq!(exec_a.kind, SpanKind::Exec);
        assert_eq!(exec_a.duration(), SimDuration::from_millis(500));
        let deploy_b = tree
            .children
            .iter()
            .find(|s| s.name == "deploy b")
            .expect("deploy b span");
        assert_eq!(deploy_b.duration(), SimDuration::from_millis(3080));
        assert_eq!(tree.markers.len(), 1);
        assert_eq!(tree.markers[0].label, "miss b");
        assert_eq!(tree.functions(), vec!["a", "b"]);
        // Children come out start-ordered.
        for w in tree.children.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
    }

    #[test]
    fn span_tree_numbers_retried_attempts_and_keeps_fault_markers() {
        let mut t = Trace::default();
        let ms = SimTime::from_millis;
        t.record(ms(0), ev::triggered());
        t.record(ms(0), ev::plan(2));
        t.record(ms(10), ev::exec_started("f", false));
        t.record(ms(500), ev::timed_out("f", 1));
        t.record(ms(500), ev::retried("f", 1));
        t.record(ms(700), ev::exec_started("f", true));
        t.record(ms(900), ev::exec_ended("f"));
        t.record(ms(950), ev::crashed("g"));
        t.record(ms(1000), ev::completed());

        let tree = SpanTree::from_trace(0, &t).unwrap();
        let names: Vec<&str> = tree.children.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["exec f", "exec f #2"]);
        let labels: Vec<&str> = tree.markers.iter().map(|m| m.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "plan (2 deployments)",
                "timeout f (attempt 1)",
                "retry f #1",
                "crash g"
            ]
        );
    }

    #[test]
    fn span_tree_of_empty_trace_is_none() {
        assert!(SpanTree::from_trace(0, &Trace::default()).is_none());
    }

    #[test]
    fn span_tree_charges_unused_deploys_to_trace_end() {
        let mut t = Trace::default();
        t.record(SimTime::ZERO, ev::triggered());
        t.record(SimTime::from_millis(5), ev::deploy("spare", false, 35.0));
        t.record(SimTime::from_millis(100), ev::completed());
        let tree = SpanTree::from_trace(0, &t).unwrap();
        assert_eq!(tree.children.len(), 1);
        assert_eq!(tree.children[0].name, "deploy spare (unused)");
        assert_eq!(tree.children[0].end, SimTime::from_millis(100));
    }
}

#[cfg(test)]
mod proptests {
    //! The fold's span trees and Gantt charts against the event scans they
    //! replaced, on real runs.
    use super::*;
    use crate::{FaultConfig, Platform, PlatformConfig};
    use proptest::prelude::*;
    use xanadu_chain::{FunctionSpec, WorkflowBuilder, WorkflowDag};
    use xanadu_core::speculation::{ExecutionMode, MissPolicy};

    /// The span tree as its own event scan built it before the lifecycle
    /// fold: a reference copy, kept only to check the fold against.
    fn reference_span_tree(request: u64, trace: &Trace) -> Option<SpanTree> {
        let events = trace.events();
        let start = events.first()?.at;
        let end = events.last().map(|e| e.at).unwrap_or(start);

        let mut children: Vec<Span> = Vec::new();
        let mut markers: Vec<SpanMarker> = Vec::new();
        let mut open_deploys: Vec<(&str, SimTime)> = Vec::new();
        let mut open_waits: Vec<(&str, SimTime)> = Vec::new();
        let mut open_execs: Vec<(&str, SimTime, u64)> = Vec::new();
        let mut attempts: Vec<(&str, u64)> = Vec::new();

        fn take(open: &mut Vec<(&str, SimTime)>, function: &str) -> Option<SimTime> {
            let idx = open.iter().position(|&(f, _)| f == function)?;
            Some(open.remove(idx).1)
        }

        for e in events {
            match &e.event {
                BusEvent::WorkerProvisioned { function, .. } => {
                    open_deploys.push((function, e.at));
                }
                BusEvent::FunctionInvoked { function, .. } => {
                    open_waits.push((function, e.at));
                }
                BusEvent::ExecStarted { function, .. } => {
                    if let Some(at) = take(&mut open_deploys, function) {
                        children.push(Span {
                            name: format!("deploy {function}"),
                            kind: SpanKind::Deploy,
                            function: function.to_string(),
                            start: at,
                            end: e.at,
                        });
                    }
                    if let Some(at) = take(&mut open_waits, function) {
                        children.push(Span {
                            name: format!("wait {function}"),
                            kind: SpanKind::Wait,
                            function: function.to_string(),
                            start: at,
                            end: e.at,
                        });
                    }
                    let attempt = match attempts.iter_mut().find(|(f, _)| **f == **function) {
                        Some((_, n)) => {
                            *n += 1;
                            *n
                        }
                        None => {
                            attempts.push((function, 1));
                            1
                        }
                    };
                    open_execs.push((function, e.at, attempt));
                }
                BusEvent::ExecEnded { function, .. } | BusEvent::InvokeTimeout { function, .. } => {
                    if let Some(idx) = open_execs.iter().position(|&(f, _, _)| f == &**function) {
                        let (function, at, attempt) = open_execs.remove(idx);
                        let name = if attempt == 1 {
                            format!("exec {function}")
                        } else {
                            format!("exec {function} #{attempt}")
                        };
                        children.push(Span {
                            name,
                            kind: SpanKind::Exec,
                            function: function.to_string(),
                            start: at,
                            end: e.at,
                        });
                    }
                    if let BusEvent::InvokeTimeout {
                        function, attempt, ..
                    } = &e.event
                    {
                        markers.push(SpanMarker {
                            at: e.at,
                            label: format!("timeout {function} (attempt {attempt})"),
                            function: function.to_string(),
                        });
                    }
                }
                BusEvent::PredictionMiss { function, .. } => markers.push(SpanMarker {
                    at: e.at,
                    label: format!("miss {function}"),
                    function: function.to_string(),
                }),
                BusEvent::WorkerCrashed { function, .. } => markers.push(SpanMarker {
                    at: e.at,
                    label: format!("crash {function}"),
                    function: function.to_string(),
                }),
                BusEvent::InvokeRetried {
                    function, attempt, ..
                } => markers.push(SpanMarker {
                    at: e.at,
                    label: format!("retry {function} #{attempt}"),
                    function: function.to_string(),
                }),
                BusEvent::DeployFailed {
                    function, attempt, ..
                } => markers.push(SpanMarker {
                    at: e.at,
                    label: format!("deploy-failed {function} (attempt {attempt})"),
                    function: function.to_string(),
                }),
                BusEvent::PlanComputed { planned, .. } => markers.push(SpanMarker {
                    at: e.at,
                    label: format!("plan ({planned} deployments)"),
                    function: String::new(),
                }),
                _ => {}
            }
        }
        for (function, at) in open_deploys {
            children.push(Span {
                name: format!("deploy {function} (unused)"),
                kind: SpanKind::Deploy,
                function: function.to_string(),
                start: at,
                end,
            });
        }
        children.sort_by(|a, b| {
            (a.start, a.end, a.name.as_str()).cmp(&(b.start, b.end, b.name.as_str()))
        });

        Some(SpanTree {
            request,
            root: Span {
                name: format!("request {request}"),
                kind: SpanKind::Request,
                function: String::new(),
                start,
                end,
            },
            children,
            markers,
        })
    }

    /// The first execution start and the first execution end of
    /// `function`, as the Gantt chart's event scan found them.
    fn reference_exec_interval(trace: &Trace, function: &str) -> Option<(SimTime, SimTime)> {
        let start = trace.events().iter().find_map(|e| match &e.event {
            BusEvent::ExecStarted { function: f, .. } if **f == *function => Some(e.at),
            _ => None,
        })?;
        let end = trace.events().iter().find_map(|e| match &e.event {
            BusEvent::ExecEnded { function: f, .. } if **f == *function => Some(e.at),
            _ => None,
        })?;
        Some((start, end))
    }

    /// The Gantt chart as its own event scans drew it before the fold: a
    /// reference copy.
    fn reference_gantt(trace: &Trace, width: usize) -> String {
        let events = trace.events();
        let width = width.clamp(20, 200);
        let Some(start) = events.first().map(|e| e.at) else {
            return String::new();
        };
        let end = events.last().map(|e| e.at).unwrap_or(start);
        let span = end.saturating_since(start).as_millis_f64().max(1.0);
        let col = |t: SimTime| -> usize {
            let frac = t.saturating_since(start).as_millis_f64() / span;
            ((frac * (width - 1) as f64).round() as usize).min(width - 1)
        };
        let mut functions: Vec<&str> = Vec::new();
        for e in events {
            let name = match &e.event {
                BusEvent::WorkerProvisioned { function, .. }
                | BusEvent::FunctionInvoked { function, .. }
                | BusEvent::ExecStarted { function, .. }
                | BusEvent::ExecEnded { function, .. }
                | BusEvent::PredictionMiss { function, .. } => Some(function),
                _ => None,
            };
            if let Some(n) = name {
                if !functions.contains(&&**n) {
                    functions.push(n);
                }
            }
        }
        let name_width = functions.iter().map(|f| f.len()).max().unwrap_or(4).max(4);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>name_width$} |{}| {:.1}s total",
            "",
            "-".repeat(width),
            span / 1000.0
        );
        for &f in &functions {
            let deploy = events.iter().find_map(|e| match &e.event {
                BusEvent::WorkerProvisioned { function, .. } if **function == *f => Some(e.at),
                _ => None,
            });
            let exec = reference_exec_interval(trace, f);
            let mut row = vec![' '; width];
            if let (Some(d), Some((xs, _))) = (deploy, exec) {
                for cell in row.iter_mut().take(col(xs)).skip(col(d)) {
                    *cell = '░';
                }
            }
            if let Some((xs, xe)) = exec {
                for cell in row.iter_mut().take(col(xe) + 1).skip(col(xs)) {
                    *cell = '█';
                }
            }
            let missed = events.iter().any(
                |e| matches!(&e.event, BusEvent::PredictionMiss { function, .. } if **function == *f),
            );
            let marker = if missed { " (miss)" } else { "" };
            let _ = writeln!(
                out,
                "{f:>name_width$} |{}|{marker}",
                row.iter().collect::<String>()
            );
        }
        out
    }

    /// A random workflow of `links.len() + 1` functions. Function `i`
    /// hangs off an earlier function `a % i`, and joins a second earlier
    /// one `b % i` when `join` is 1. A function whose bit in `xors`
    /// is set picks one of its children (XOR, weighted by `p`); the rest
    /// fire all of theirs (multicast).
    fn random_workflow(links: &[(u64, u64, u8)], xors: u64, p: f64) -> WorkflowDag {
        let mut b = WorkflowBuilder::new("wf");
        let nodes: Vec<_> = (0..=links.len())
            .map(|i| {
                let service_ms = 300.0 + 700.0 * (i % 3) as f64;
                b.add(FunctionSpec::new(format!("f{i}")).service_ms(service_ms))
                    .unwrap()
            })
            .collect();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (i, &(a, bb, join)) in links.iter().enumerate() {
            let child = i + 1;
            let first = (a % child as u64) as usize;
            children[first].push(child);
            let second = (bb % child as u64) as usize;
            if join == 1 && second != first {
                children[second].push(child);
            }
        }
        for (parent, kids) in children.iter().enumerate() {
            if kids.len() >= 2 && xors >> parent & 1 == 1 {
                let weight = |k: usize| {
                    if k == 0 {
                        p
                    } else {
                        (1.0 - p) / kids.len() as f64
                    }
                };
                let branches: Vec<_> = kids
                    .iter()
                    .enumerate()
                    .map(|(k, &kid)| (nodes[kid], weight(k)))
                    .collect();
                b.link_xor(nodes[parent], &branches).unwrap();
            } else {
                for &kid in kids {
                    b.link(nodes[parent], nodes[kid]).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// For every request of random workflows (XOR, multicast and
        /// joins) run under worker faults and, half the time, replans
        /// after a miss, the span tree and the Gantt chart read off the
        /// lifecycle fold equal the ones the reference event scans build
        /// from the same recorded trace.
        #[test]
        fn fold_span_trees_and_gantt_charts_equal_the_reference_scans(
            links in proptest::collection::vec((0u64..64, 0u64..64, 0u8..2), 1..8),
            xors in 0u64..256,
            p in 0.2f64..0.8,
            fault_rate in 0.0f64..1.0,
            seed in 0u64..1_000,
            replan in 0u8..2,
            speculative in 0u8..2,
        ) {
            let mode = if speculative == 1 { ExecutionMode::Speculative } else { ExecutionMode::Jit };
            let miss = if replan == 1 { MissPolicy::ReplanAndReuse } else { MissPolicy::StopSpeculation };
            let config = PlatformConfig::builder()
                .for_mode(mode, seed)
                .miss_policy(miss)
                .faults(FaultConfig::with_rate(fault_rate, seed ^ 0xFA17))
                .record_traces(true)
                .build()
                .unwrap();
            let mut platform = Platform::new(config);
            platform.deploy(random_workflow(&links, xors, p)).unwrap();
            let requests: Vec<u64> = (0..6u64)
                .map(|i| platform.trigger_at("wf", SimTime::from_secs(i * 40)).unwrap())
                .collect();
            platform.run_until_idle();
            for request in requests {
                let trace = platform.trace(request).expect("trace recorded");
                prop_assert_eq!(
                    SpanTree::from_trace(request, trace),
                    reference_span_tree(request, trace)
                );
                prop_assert_eq!(trace.render_gantt(72), reference_gantt(trace, 72));
            }
        }
    }
}
