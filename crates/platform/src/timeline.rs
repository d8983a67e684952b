//! Per-request execution timelines.
//!
//! The platform records, for every request, the sequence of orchestration
//! events that Figure 10 of the paper narrates — planning-driven
//! deployments, function invocations, dispatches into workers, completions
//! and prediction misses — as a [`Trace`]: the request's own
//! [`BusEvent`]s, exactly as its observers received them. The audit fold
//! ([`analysis`](crate::analysis)) and the [`SpanTree`] read those same
//! events, so the platform has one lifecycle vocabulary. Traces power
//! debugging, the CLI's `--trace` output, and assertions about *when*
//! things happened rather than only aggregate latencies.

use crate::events::BusEvent;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
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

    /// The execution interval of `function` (exec start → exec end), if it
    /// ran to completion.
    pub fn exec_interval(&self, function: &str) -> Option<(SimTime, SimTime)> {
        let start = self.events.iter().find_map(|e| match &e.event {
            BusEvent::ExecStarted { function: f, .. } if **f == *function => Some(e.at),
            _ => None,
        })?;
        let end = self.events.iter().find_map(|e| match &e.event {
            BusEvent::ExecEnded { function: f, .. } if **f == *function => Some(e.at),
            _ => None,
        })?;
        Some((start, end))
    }

    /// Renders the trace as an ASCII Gantt chart: one row per function,
    /// bars for provisioning-to-exec (`░`) and execution (`█`), `width`
    /// columns spanning trigger to completion.
    ///
    /// Returns an empty string for an empty trace.
    pub fn render_gantt(&self, width: usize) -> String {
        let width = width.clamp(20, 200);
        let Some(start) = self.events.first().map(|e| e.at) else {
            return String::new();
        };
        let end = self.events.last().map(|e| e.at).unwrap_or(start);
        let span = end.saturating_since(start).as_millis_f64().max(1.0);
        let col = |t: SimTime| -> usize {
            let frac = t.saturating_since(start).as_millis_f64() / span;
            ((frac * (width - 1) as f64).round() as usize).min(width - 1)
        };

        // Collect per-function milestones.
        let mut functions: Vec<&str> = Vec::new();
        for e in &self.events {
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
            let deploy = self.events.iter().find_map(|e| match &e.event {
                BusEvent::WorkerProvisioned { function, .. } if **function == *f => Some(e.at),
                _ => None,
            });
            let exec = self.exec_interval(f);
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
            let missed = self.events.iter().any(
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
/// Derived deterministically from a [`Trace`] — two identical traces
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
    /// Builds the span tree of `trace`, or `None` for an empty trace.
    ///
    /// Execution attempts are paired sequentially per function (an
    /// `ExecStarted` closes at the next `ExecEnded` or `InvokeTimeout` of the
    /// same function), so retried invocations produce one `Exec` span per
    /// attempt. Deploy spans close at the function's next execution start
    /// (or at trace end for workers that never served).
    pub fn from_trace(request: u64, trace: &Trace) -> Option<SpanTree> {
        let events = trace.events();
        let start = events.first()?.at;
        let end = events.last().map(|e| e.at).unwrap_or(start);

        let mut children: Vec<Span> = Vec::new();
        let mut markers: Vec<SpanMarker> = Vec::new();
        // Open intervals per function, closed as their end events arrive.
        let mut open_deploys: Vec<(&str, SimTime)> = Vec::new();
        let mut open_waits: Vec<(&str, SimTime)> = Vec::new();
        let mut open_execs: Vec<(&str, SimTime, u64)> = Vec::new();
        // Attempt numbering per function, so retried executions get
        // distinct span names.
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
        // Workers that never served: their provisioning still cost time.
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
        assert_eq!(
            t.exec_interval("a"),
            Some((SimTime::from_millis(3000), SimTime::from_millis(3500)))
        );
        assert_eq!(t.exec_interval("ghost"), None);
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
