//! Per-request execution timelines.
//!
//! The platform records, for every request, the sequence of orchestration
//! events that Figure 10 of the paper narrates — planning-driven
//! deployments, function invocations, dispatches into workers, completions
//! and prediction misses — as a [`Trace`]: the request's lifecycle laid
//! out in time, trigger to completion.
//!
//! One fold builds it. `RequestFold` pairs a request's provisions,
//! invocations and executions into deploy, wait and exec intervals (each
//! execution numbered by attempt) and keeps its plan, miss, crash,
//! timeout, retry and failed-deploy markers, in event order.
//! `RequestTracker` routes the bus's lifecycle events to one fold per
//! in-flight request and hands back each request's trace at its
//! completion. The trace recorder behind
//! [`Platform::trace`](crate::Platform::trace), the streaming audit and
//! the SLO monitor each own one tracker. Everything else reads a trace's
//! entries, never the events again: the request's audit row
//! ([`RequestAudit`](crate::RequestAudit)), its [`SpanTree`] and its
//! Gantt chart ([`Trace::render_gantt`]). Traces power debugging, the
//! CLI's `--trace` output, and assertions about *when* things happened
//! rather than only aggregate latencies.

use crate::events::BusEvent;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;
use xanadu_simcore::{SimDuration, SimTime};

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

/// One interval or marker of a [`Trace`], opened by the event at `at`.
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

/// The recorded timeline of one request, as the lifecycle fold pairs its
/// events: every interval and marker in the order of the events that
/// opened them, between the request's trigger and its completion.
/// The audit row, the span tree and the Gantt chart are all read off it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// The trigger.
    pub(crate) start: SimTime,
    /// The completion.
    pub(crate) end: SimTime,
    pub(crate) entries: Vec<Entry>,
}

/// The one reader of a request's lifecycle events: it turns them into the
/// request's [`Trace`]. It holds only that request's entries.
#[derive(Debug, Clone)]
pub(crate) struct RequestFold(Trace);

impl RequestFold {
    /// An empty fold for a request triggered at `start`.
    pub(crate) fn new(start: SimTime) -> Self {
        RequestFold(Trace {
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

    /// Ends the request at `end` and returns its trace.
    pub(crate) fn finish(mut self, end: SimTime) -> Trace {
        self.0.end = end;
        self.0
    }
}

/// Routes bus events to one [`RequestFold`] per in-flight request: each
/// event goes to the request its `lifecycle_request` names. A request's
/// fold opens at its trigger and leaves as its [`Trace`] at its
/// completion, so live memory is bounded by in-flight concurrency, not by
/// run length. Pool-owned provisions name a request that is never in
/// flight, so they land in no trace.
#[derive(Debug, Clone, Default)]
pub(crate) struct RequestTracker {
    pending: BTreeMap<u64, RequestFold>,
}

impl RequestTracker {
    /// Feeds one event; returns the request it completed, with its trace.
    pub(crate) fn on_event(&mut self, at: SimTime, event: &BusEvent) -> Option<(u64, Trace)> {
        let request = event.lifecycle_request()?;
        match event {
            BusEvent::RequestTriggered { .. } => {
                self.pending.insert(request, RequestFold::new(at));
            }
            BusEvent::RequestCompleted { .. } => {
                return Some((request, self.pending.remove(&request)?.finish(at)));
            }
            _ => {
                if let Some(fold) = self.pending.get_mut(&request) {
                    fold.apply(at, event);
                }
            }
        }
        None
    }

    /// Requests triggered and not yet completed.
    pub(crate) fn in_flight(&self) -> usize {
        self.pending.len()
    }
}

/// Records each completed request's [`Trace`] for
/// [`Platform::trace`](crate::Platform::trace), with `record_traces` on.
#[derive(Debug, Clone, Default)]
pub(crate) struct TraceRecorder {
    tracker: RequestTracker,
    /// Traces of completed requests.
    done: HashMap<u64, Trace>,
}

impl TraceRecorder {
    /// Feeds one event at `at`, keeping the trace it completes.
    pub(crate) fn on_event(&mut self, at: SimTime, event: &BusEvent) {
        if let Some((request, trace)) = self.tracker.on_event(at, event) {
            self.done.insert(request, trace);
        }
    }

    /// The trace of a completed request.
    pub(crate) fn get(&self, request: u64) -> Option<&Trace> {
        self.done.get(&request)
    }

    /// Moves out every completed trace, in no particular order.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (u64, Trace)> + '_ {
        self.done.drain()
    }
}

impl Trace {
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

    /// Renders the trace as an ASCII Gantt chart: one row per function,
    /// `width` columns spanning trigger to completion. A row's bars run
    /// from the function's first provision to its first execution start
    /// (`░`), and from there to its first completed execution (`█`).
    pub fn render_gantt(&self, width: usize) -> String {
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
/// Read deterministically off the request's trace — two identical traces
/// always yield identical trees, which is what makes the Chrome trace
/// export byte-reproducible.
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
    /// Builds the span tree of `trace`.
    ///
    /// Each retried execution is its own `Exec` span, numbered by
    /// attempt. Deploy spans close at the execution start that claimed
    /// the sandbox (or at trace end for workers that never served). Waits
    /// and executions still open at the end have no span.
    pub fn from_trace(request: u64, trace: &Trace) -> SpanTree {
        use EntryKind as K;
        let (mut children, mut markers) = (Vec::new(), Vec::new());
        for e in &trace.entries {
            let f = &*e.name;
            let (kind, name, end) = match (&e.kind, e.end) {
                (K::Deploy { .. }, Some(end)) => (SpanKind::Deploy, format!("deploy {f}"), end),
                // Workers that never served: their provisioning still
                // cost time.
                (K::Deploy { .. }, None) => {
                    (SpanKind::Deploy, format!("deploy {f} (unused)"), trace.end)
                }
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
                start: trace.start,
                end: trace.end,
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
        let ms = SimTime::from_millis;
        ev::trace(vec![
            (ms(0), ev::triggered()),
            (ms(0), ev::deploy("a", false, 3000.0)),
            (ms(20), ev::invoked("a")),
            (ms(3000), ev::exec_started("a", false)),
            (ms(3500), ev::exec_ended("a")),
            (ms(3520), ev::miss("b")),
            (ms(3520), ev::invoked("b")),
            (ms(3520), ev::deploy("b", true, 3080.0)),
            (ms(6600), ev::exec_started("b", false)),
            (ms(7100), ev::exec_ended("b")),
            (ms(7100), ev::completed()),
        ])
    }

    #[test]
    fn intervals_and_windows() {
        let t = sample();
        let execs = |f: &str| -> Vec<(SimTime, Option<SimTime>)> {
            t.of(f)
                .filter(|e| matches!(e.kind, EntryKind::Exec { .. }))
                .map(|e| (e.at, e.end))
                .collect()
        };
        let ms = SimTime::from_millis;
        assert_eq!(execs("a"), vec![(ms(3000), Some(ms(3500)))]);
        assert!(execs("ghost").is_empty());
        assert_eq!((t.start, t.end), (ms(0), ms(7100)));
        // a: deploy, wait, exec; b: miss, wait, deploy, exec.
        assert_eq!(t.entries.len(), 7);
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
    fn serde_roundtrip() {
        let t = sample();
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn span_tree_decomposes_the_sample_trace() {
        let tree = SpanTree::from_trace(3, &sample());
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
        let ms = SimTime::from_millis;
        let t = ev::trace(vec![
            (ms(0), ev::triggered()),
            (ms(0), ev::plan(2)),
            (ms(10), ev::exec_started("f", false)),
            (ms(500), ev::timed_out("f", 1)),
            (ms(500), ev::retried("f", 1)),
            (ms(700), ev::exec_started("f", true)),
            (ms(900), ev::exec_ended("f")),
            (ms(950), ev::crashed("g")),
            (ms(1000), ev::completed()),
        ]);

        let tree = SpanTree::from_trace(0, &t);
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
    fn span_tree_charges_unused_deploys_to_trace_end() {
        let t = ev::trace(vec![
            (SimTime::ZERO, ev::triggered()),
            (SimTime::from_millis(5), ev::deploy("spare", false, 35.0)),
            (SimTime::from_millis(100), ev::completed()),
        ]);
        let tree = SpanTree::from_trace(0, &t);
        assert_eq!(tree.children.len(), 1);
        assert_eq!(tree.children[0].name, "deploy spare (unused)");
        assert_eq!(tree.children[0].end, SimTime::from_millis(100));
    }
}

#[cfg(test)]
mod proptests {
    //! Recorded traces' span trees and Gantt charts against the event
    //! scans the lifecycle fold replaced, on real runs: the scans read the
    //! request's own bus events, as a collecting observer received them.
    use super::*;
    use crate::{FaultConfig, Observer, Platform, PlatformConfig};
    use proptest::prelude::*;
    use xanadu_chain::{FunctionSpec, WorkflowBuilder, WorkflowDag};
    use xanadu_core::speculation::{ExecutionMode, MissPolicy};

    /// Every event the bus delivered, in emission order.
    #[derive(Default)]
    struct Collected(Vec<(SimTime, BusEvent)>);

    impl Observer for Collected {
        fn on_event(&mut self, at: SimTime, event: &BusEvent) {
            self.0.push((at, event.clone()));
        }
    }

    /// The span tree as its own event scan built it before the lifecycle
    /// fold: a reference copy, kept only to check the fold against.
    /// `events` are one request's, its trigger first and its completion
    /// last.
    fn reference_span_tree(request: u64, events: &[(SimTime, BusEvent)]) -> SpanTree {
        let start = events.first().expect("a triggered request").0;
        let end = events.last().map(|e| e.0).unwrap_or(start);

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

        for (now, event) in events {
            let now = *now;
            match event {
                BusEvent::WorkerProvisioned { function, .. } => {
                    open_deploys.push((function, now));
                }
                BusEvent::FunctionInvoked { function, .. } => {
                    open_waits.push((function, now));
                }
                BusEvent::ExecStarted { function, .. } => {
                    if let Some(at) = take(&mut open_deploys, function) {
                        children.push(Span {
                            name: format!("deploy {function}"),
                            kind: SpanKind::Deploy,
                            function: function.to_string(),
                            start: at,
                            end: now,
                        });
                    }
                    if let Some(at) = take(&mut open_waits, function) {
                        children.push(Span {
                            name: format!("wait {function}"),
                            kind: SpanKind::Wait,
                            function: function.to_string(),
                            start: at,
                            end: now,
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
                    open_execs.push((function, now, attempt));
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
                            end: now,
                        });
                    }
                    if let BusEvent::InvokeTimeout {
                        function, attempt, ..
                    } = event
                    {
                        markers.push(SpanMarker {
                            at: now,
                            label: format!("timeout {function} (attempt {attempt})"),
                            function: function.to_string(),
                        });
                    }
                }
                BusEvent::PredictionMiss { function, .. } => markers.push(SpanMarker {
                    at: now,
                    label: format!("miss {function}"),
                    function: function.to_string(),
                }),
                BusEvent::WorkerCrashed { function, .. } => markers.push(SpanMarker {
                    at: now,
                    label: format!("crash {function}"),
                    function: function.to_string(),
                }),
                BusEvent::InvokeRetried {
                    function, attempt, ..
                } => markers.push(SpanMarker {
                    at: now,
                    label: format!("retry {function} #{attempt}"),
                    function: function.to_string(),
                }),
                BusEvent::DeployFailed {
                    function, attempt, ..
                } => markers.push(SpanMarker {
                    at: now,
                    label: format!("deploy-failed {function} (attempt {attempt})"),
                    function: function.to_string(),
                }),
                BusEvent::PlanComputed { planned, .. } => markers.push(SpanMarker {
                    at: now,
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

        SpanTree {
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
        }
    }

    /// The first execution start and the first execution end of
    /// `function`, as the Gantt chart's event scan found them.
    fn reference_exec_interval(
        events: &[(SimTime, BusEvent)],
        function: &str,
    ) -> Option<(SimTime, SimTime)> {
        let start = events.iter().find_map(|(at, e)| match e {
            BusEvent::ExecStarted { function: f, .. } if **f == *function => Some(*at),
            _ => None,
        })?;
        let end = events.iter().find_map(|(at, e)| match e {
            BusEvent::ExecEnded { function: f, .. } if **f == *function => Some(*at),
            _ => None,
        })?;
        Some((start, end))
    }

    /// The Gantt chart as its own event scans drew it before the fold: a
    /// reference copy, over one request's events.
    fn reference_gantt(events: &[(SimTime, BusEvent)], width: usize) -> String {
        let width = width.clamp(20, 200);
        let Some(start) = events.first().map(|e| e.0) else {
            return String::new();
        };
        let end = events.last().map(|e| e.0).unwrap_or(start);
        let span = end.saturating_since(start).as_millis_f64().max(1.0);
        let col = |t: SimTime| -> usize {
            let frac = t.saturating_since(start).as_millis_f64() / span;
            ((frac * (width - 1) as f64).round() as usize).min(width - 1)
        };
        let mut functions: Vec<&str> = Vec::new();
        for (_, e) in events {
            let name = match e {
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
            let deploy = events.iter().find_map(|(at, e)| match e {
                BusEvent::WorkerProvisioned { function, .. } if **function == *f => Some(*at),
                _ => None,
            });
            let exec = reference_exec_interval(events, f);
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
                |(_, e)| matches!(e, BusEvent::PredictionMiss { function, .. } if **function == *f),
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
        /// recorded trace equal the ones the reference event scans build
        /// from the request's own bus events.
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
            let bus = platform.attach_observer(Collected::default());
            platform.deploy(random_workflow(&links, xors, p)).unwrap();
            let requests: Vec<u64> = (0..6u64)
                .map(|i| platform.trigger_at("wf", SimTime::from_secs(i * 40)).unwrap())
                .collect();
            platform.run_until_idle();
            let events = bus.with(|c| c.0.clone());
            for request in requests {
                let own: Vec<(SimTime, BusEvent)> = events
                    .iter()
                    .filter(|(_, e)| e.lifecycle_request() == Some(request))
                    .cloned()
                    .collect();
                let trace = platform.trace(request).expect("trace recorded");
                prop_assert_eq!(
                    SpanTree::from_trace(request, trace),
                    reference_span_tree(request, &own)
                );
                prop_assert_eq!(trace.render_gantt(72), reference_gantt(&own, 72));
            }
        }
    }
}
