//! Unbounded request streams for the service tier (`xanadu serve`).
//!
//! A stream is an ordered sequence of [`StreamEvent`]s — absolute trigger
//! times against a fixed workflow population described by a
//! [`StreamHeader`]. Two deterministic sources implement [`StreamSource`]:
//!
//! * [`GeneratedStream`] — a seeded merge of per-workflow Poisson
//!   processes, usable as an endless load generator.
//! * [`RecordedStream`] — replay of a stream file produced by
//!   `xanadu record`.
//!
//! # Stream file format (JSONL)
//!
//! Line 1 is the header; every following line is one event:
//!
//! ```text
//! {"version":1,"workflows":8,"depth":3,"rate_per_hour":360.0,"seed":42,"events":10000}
//! {"at_us":11520,"wf":5}
//! {"at_us":23991,"wf":0}
//! ...
//! ```
//!
//! The header carries the *population parameters*, not just the event
//! count, so `record` and `serve` rebuild identical workflow DAGs and a
//! recorded stream replays byte-identically on any machine.

use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::select_unpredictable;
use xanadu_simcore::{RngStream, SimDuration, SimTime};

/// Population and provenance metadata at the head of every stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamHeader {
    /// Stream format version (currently 1).
    pub version: u32,
    /// Number of workflows in the population (`wf0` … `wf{n-1}`).
    pub workflows: u32,
    /// Linear-chain depth of every workflow.
    pub depth: u32,
    /// Per-workflow Poisson arrival rate.
    pub rate_per_hour: f64,
    /// Master seed the generator derived the arrival processes from.
    pub seed: u64,
    /// Total events in the stream (a recorded stream is finite).
    pub events: u64,
}

impl StreamHeader {
    /// Canonical name of workflow `index` (`"wf{index}"`).
    pub fn workflow_name(&self, index: u32) -> String {
        format!("wf{index}")
    }
}

/// One stream event: trigger `workflow` at absolute time `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamEvent {
    /// Absolute trigger time, integer microseconds.
    pub at_us: u64,
    /// Workflow index into the header's population.
    pub wf: u32,
}

impl StreamEvent {
    /// The trigger time as a [`SimTime`].
    pub fn at(&self) -> SimTime {
        SimTime::from_micros(self.at_us)
    }
}

/// A deterministic, time-ordered source of stream events.
pub trait StreamSource {
    /// The fixed workflow population this stream triggers.
    fn header(&self) -> &StreamHeader;
    /// The next event, in nondecreasing `at_us` order; `None` once the
    /// stream is exhausted.
    fn next_event(&mut self) -> Option<StreamEvent>;
}

/// Errors parsing a recorded stream file.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamParseError {
    /// 1-based line the parse failed on (0 for an empty file).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for StreamParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for StreamParseError {}

/// Replay of a recorded stream file.
#[derive(Debug, Clone)]
pub struct RecordedStream {
    header: StreamHeader,
    events: Vec<StreamEvent>,
    cursor: usize,
}

impl RecordedStream {
    /// Parses the JSONL text of a stream file.
    pub fn parse(text: &str) -> Result<RecordedStream, StreamParseError> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, first) = lines.next().ok_or(StreamParseError {
            line: 0,
            message: "empty stream file (missing header line)".to_string(),
        })?;
        let header: StreamHeader = serde_json::from_str(first).map_err(|e| StreamParseError {
            line: 1,
            message: format!("bad header: {e:?}"),
        })?;
        if header.version != 1 {
            return Err(StreamParseError {
                line: 1,
                message: format!("unsupported stream version {}", header.version),
            });
        }
        if !(header.rate_per_hour > 0.0 && header.rate_per_hour.is_finite()) {
            return Err(StreamParseError {
                line: 1,
                message: format!(
                    "rate_per_hour {} is not a positive finite arrival rate",
                    header.rate_per_hour
                ),
            });
        }
        let mut events = Vec::new();
        let mut last_at = 0u64;
        for (i, line) in lines {
            let ev: StreamEvent = serde_json::from_str(line).map_err(|e| StreamParseError {
                line: i + 1,
                message: format!("bad event: {e:?}"),
            })?;
            if ev.at() > SimTime::LAST_TRIGGER {
                return Err(StreamParseError {
                    line: i + 1,
                    message: format!(
                        "trigger at {} µs is past the last simulable trigger time, {} µs",
                        ev.at_us,
                        SimTime::LAST_TRIGGER.as_micros()
                    ),
                });
            }
            if ev.at_us < last_at {
                return Err(StreamParseError {
                    line: i + 1,
                    message: format!("events out of order ({} after {})", ev.at_us, last_at),
                });
            }
            if ev.wf >= header.workflows {
                return Err(StreamParseError {
                    line: i + 1,
                    message: format!(
                        "workflow index {} out of range (population {})",
                        ev.wf, header.workflows
                    ),
                });
            }
            last_at = ev.at_us;
            events.push(ev);
        }
        if header.events != events.len() as u64 {
            return Err(StreamParseError {
                line: 1,
                message: format!(
                    "header declares {} events, file holds {}",
                    header.events,
                    events.len()
                ),
            });
        }
        Ok(RecordedStream {
            header,
            events,
            cursor: 0,
        })
    }

    /// Renders a header + events back into the JSONL file format.
    pub fn render(header: &StreamHeader, events: &[StreamEvent]) -> String {
        let mut out = String::new();
        let mut header = header.clone();
        header.events = events.len() as u64;
        out.push_str(&serde_json::to_string(&header).expect("header serializes"));
        out.push('\n');
        for ev in events {
            out.push_str(&serde_json::to_string(ev).expect("event serializes"));
            out.push('\n');
        }
        out
    }
}

impl StreamSource for RecordedStream {
    fn header(&self) -> &StreamHeader {
        &self.header
    }

    fn next_event(&mut self) -> Option<StreamEvent> {
        let ev = self.events.get(self.cursor).copied();
        if ev.is_some() {
            self.cursor += 1;
        }
        ev
    }
}

/// Workflows per merge group: eight arrival times, one cache line.
const GROUP: usize = 8;

/// Seeded merge of per-workflow Poisson processes: an endless,
/// deterministic load generator. Bounded by `header.events`.
///
/// Events come out in `(at_us, wf)` order: time, then the lower
/// workflow index. Contiguous workflows form groups of 8; a min-heap
/// holds each group's earliest `(at_us, wf)`, and an event advances its
/// workflow by a gap drawn one arrival earlier, rescans the workflow's
/// group and replaces the heap's top in place. Up to 8 workflows the
/// heap has one entry and the merge is a plain scan.
#[derive(Debug, Clone)]
pub struct GeneratedStream {
    header: StreamHeader,
    /// Each workflow's next arrival µs, in groups; the last group is
    /// padded with `u64::MAX`, which never wins a scan, because ties go
    /// to the lower index and every group's first workflow is real.
    heads: Vec<[u64; GROUP]>,
    /// The gap (µs, at least 1) after each workflow's next arrival,
    /// drawn one arrival early so its `ln` is off the merge's critical
    /// path.
    ahead: Vec<u64>,
    /// Min-heap of each group's earliest `(at_us, wf)`. Groups are
    /// disjoint, so every key is unique and the order does not depend
    /// on how the heap sifts.
    groups: BinaryHeap<Reverse<(u64, u32)>>,
    rngs: Vec<RngStream>,
    mean_gap_ms: f64,
    emitted: u64,
}

/// One exponential inter-arrival draw, in whole µs.
fn draw_us(rng: &mut RngStream, mean_gap_ms: f64) -> u64 {
    SimDuration::from_millis_f64(rng.exponential(mean_gap_ms)).as_micros()
}

/// The earliest `(at_us, wf)` of the group whose first workflow is
/// `first`. The scan selects instead of branching, so it costs the same
/// whatever the arrival times are.
fn earliest(group: &[u64; GROUP], first: usize) -> (u64, u32) {
    let (mut at_us, mut k) = (group[0], 0);
    for (i, &t) in group.iter().enumerate().skip(1) {
        let earlier = t < at_us;
        at_us = select_unpredictable(earlier, t, at_us);
        k = select_unpredictable(earlier, i, k);
    }
    (at_us, (first + k) as u32)
}

impl GeneratedStream {
    /// A generator for `workflows` linear chains of `depth` functions,
    /// each arriving as an independent Poisson process of
    /// `rate_per_hour`, emitting `events` events in total.
    ///
    /// # Panics
    /// If `workflows` is zero or `rate_per_hour` is not positive and
    /// finite: an infinite rate's gaps are all 0 µs.
    pub fn new(workflows: u32, depth: u32, rate_per_hour: f64, seed: u64, events: u64) -> Self {
        assert!(workflows > 0, "stream population must be non-empty");
        assert!(
            rate_per_hour > 0.0 && rate_per_hour.is_finite(),
            "arrival rate must be positive and finite"
        );
        let header = StreamHeader {
            version: 1,
            workflows,
            depth,
            rate_per_hour,
            seed,
            events,
        };
        GeneratedStream::from_header(header)
    }

    /// Rebuilds the generator a [`StreamHeader`] describes (used by
    /// `record` → `serve` round trips).
    pub fn from_header(header: StreamHeader) -> Self {
        let mean_gap_ms = 3_600_000.0 / header.rate_per_hour;
        let base = RngStream::derive(header.seed, "stream-arrivals");
        let n = header.workflows as usize;
        let mut heads = vec![[u64::MAX; GROUP]; n.div_ceil(GROUP)];
        let mut ahead = Vec::with_capacity(n);
        let mut rngs = Vec::with_capacity(n);
        for wf in 0..n {
            let mut rng = base.child(wf as u64);
            heads[wf / GROUP][wf % GROUP] = draw_us(&mut rng, mean_gap_ms);
            ahead.push(draw_us(&mut rng, mean_gap_ms).max(1));
            rngs.push(rng);
        }
        let groups = (0..)
            .step_by(GROUP)
            .zip(&heads)
            .map(|(first, group)| Reverse(earliest(group, first)))
            .collect();
        GeneratedStream {
            header,
            heads,
            ahead,
            groups,
            rngs,
            mean_gap_ms,
            emitted: 0,
        }
    }

    /// Materializes the whole stream (for `xanadu record`).
    pub fn collect_events(mut self) -> (StreamHeader, Vec<StreamEvent>) {
        let mut events = Vec::with_capacity(self.header.events as usize);
        while let Some(ev) = self.next_event() {
            events.push(ev);
        }
        (self.header, events)
    }
}

impl StreamSource for GeneratedStream {
    fn header(&self) -> &StreamHeader {
        &self.header
    }

    fn next_event(&mut self) -> Option<StreamEvent> {
        if self.emitted >= self.header.events {
            return None;
        }
        let mut top = self.groups.peek_mut()?;
        let Reverse((at_us, wf)) = *top;
        let i = wf as usize;
        let group = &mut self.heads[i / GROUP];
        // Saturating: past the clock's end arrivals pile up at its last
        // µs instead of wrapping back to its start.
        group[i % GROUP] = at_us.saturating_add(self.ahead[i]);
        // The group's new earliest replaces it at the top: one sift down.
        *top = Reverse(earliest(group, i - i % GROUP));
        drop(top);
        self.ahead[i] = draw_us(&mut self.rngs[i], self.mean_gap_ms).max(1);
        self.emitted += 1;
        Some(StreamEvent { at_us, wf })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_ordered() {
        let a: Vec<_> = {
            let mut s = GeneratedStream::new(4, 2, 360.0, 7, 200);
            std::iter::from_fn(|| s.next_event()).collect()
        };
        let b: Vec<_> = {
            let mut s = GeneratedStream::new(4, 2, 360.0, 7, 200);
            std::iter::from_fn(|| s.next_event()).collect()
        };
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        for w in a.windows(2) {
            assert!(w[0].at_us <= w[1].at_us);
        }
        assert!(a.iter().any(|e| e.wf != a[0].wf), "all workflows fire");
    }

    #[test]
    fn record_replay_roundtrip_is_exact() {
        let (header, events) = GeneratedStream::new(3, 2, 600.0, 11, 150).collect_events();
        let text = RecordedStream::render(&header, &events);
        let mut replay = RecordedStream::parse(&text).expect("parses");
        assert_eq!(replay.header(), &header);
        let replayed: Vec<_> = std::iter::from_fn(|| replay.next_event()).collect();
        assert_eq!(replayed, events);
        // And the rebuilt generator from the same header matches too.
        let (_, regen) = GeneratedStream::from_header(header).collect_events();
        assert_eq!(regen, events);
    }

    #[test]
    fn parse_rejects_malformed_streams() {
        assert!(RecordedStream::parse("").is_err());
        let (header, events) = GeneratedStream::new(2, 1, 120.0, 1, 10).collect_events();
        let good = RecordedStream::render(&header, &events);
        // Truncating events breaks the header count check.
        let truncated: String = good.lines().take(5).map(|l| format!("{l}\n")).collect();
        assert!(RecordedStream::parse(&truncated).is_err());
        // Out-of-order events are rejected.
        let mut lines: Vec<&str> = good.lines().collect();
        let last = lines.len() - 1;
        lines.swap(1, last);
        let swapped: String = lines.iter().map(|l| format!("{l}\n")).collect();
        assert!(RecordedStream::parse(&swapped).is_err());
        // Out-of-range workflow index is rejected.
        let bad_wf = format!(
            "{}\n{}\n",
            serde_json::to_string(&StreamHeader {
                version: 1,
                workflows: 1,
                depth: 1,
                rate_per_hour: 1.0,
                seed: 0,
                events: 1
            })
            .unwrap(),
            serde_json::to_string(&StreamEvent { at_us: 5, wf: 9 }).unwrap()
        );
        assert!(RecordedStream::parse(&bad_wf).is_err());
        // A header rate that is not positive and finite is rejected; a
        // non-finite rate serializes as `null`, which reads back as NaN.
        for rate in ["null", "0.0", "-1.0"] {
            let header = format!(
                r#"{{"depth":1,"events":0,"rate_per_hour":{rate},"seed":0,"version":1,"workflows":1}}"#
            );
            let err = RecordedStream::parse(&header).unwrap_err();
            assert_eq!(err.line, 1, "{rate}");
            assert!(
                err.message.contains("not a positive finite arrival rate"),
                "{rate}: {err}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive and finite")]
    fn an_infinite_generated_rate_panics() {
        GeneratedStream::new(1, 1, f64::INFINITY, 42, 3);
    }

    #[test]
    fn arrivals_past_the_clock_saturate_instead_of_wrapping() {
        // At 10^-15 arrivals per hour every gap is past `u64::MAX` µs.
        let (_, events) = GeneratedStream::new(2, 1, 1e-15, 42, 4).collect_events();
        let at: Vec<u64> = events.iter().map(|e| e.at_us).collect();
        assert_eq!(at, [u64::MAX; 4]);
    }

    #[test]
    fn parse_rejects_triggers_past_the_last_simulable_time() {
        let header = StreamHeader {
            version: 1,
            workflows: 1,
            depth: 1,
            rate_per_hour: 1.0,
            seed: 0,
            events: 2,
        };
        let last = SimTime::LAST_TRIGGER.as_micros();
        let stream = |late: u64| {
            let events = [
                StreamEvent { at_us: 5, wf: 0 },
                StreamEvent { at_us: late, wf: 0 },
            ];
            RecordedStream::parse(&RecordedStream::render(&header, &events))
        };
        assert!(stream(last).is_ok());
        let err = stream(last + 1).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(
            err.message.contains("past the last simulable trigger time"),
            "{err}"
        );
    }

    #[test]
    fn an_empty_population_yields_no_events() {
        let header = StreamHeader {
            version: 1,
            workflows: 0,
            depth: 1,
            rate_per_hour: 60.0,
            seed: 5,
            events: 10,
        };
        let mut stream = GeneratedStream::from_header(header);
        assert_eq!(stream.next_event(), None);
    }

    #[test]
    fn ties_break_to_the_lower_workflow_index() {
        // At 10^12 arrivals per hour every gap rounds below 1 µs, so each
        // first arrival is at 0 and each later gap is the 1 µs floor: the
        // merge must visit the workflows round-robin, across groups.
        for workflows in [1, 7, 8, 9, 20] {
            let events = u64::from(workflows) * 3;
            let (_, merged) = GeneratedStream::new(workflows, 1, 1e12, 3, events).collect_events();
            let expected: Vec<StreamEvent> = (0..3)
                .flat_map(|at_us| (0..workflows).map(move |wf| StreamEvent { at_us, wf }))
                .collect();
            assert_eq!(merged, expected, "{workflows} workflows");
        }
    }

    #[test]
    fn mean_inter_arrival_tracks_the_configured_rate() {
        let (_, events) = GeneratedStream::new(1, 1, 3600.0, 3, 2000).collect_events();
        let span_us = events.last().unwrap().at_us - events[0].at_us;
        let mean_gap_ms = span_us as f64 / 1000.0 / (events.len() - 1) as f64;
        // 3600/hour → 1s mean gap; allow generous stochastic tolerance.
        assert!((500.0..2000.0).contains(&mean_gap_ms), "mean {mean_gap_ms}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The merge `GeneratedStream` replaced: a heap of every workflow's
    /// next arrival; pop the earliest, draw its next gap, push it back.
    fn pop_push_merge(header: &StreamHeader) -> Vec<StreamEvent> {
        let mean_gap_ms = 3_600_000.0 / header.rate_per_hour;
        let base = RngStream::derive(header.seed, "stream-arrivals");
        let mut rngs: Vec<RngStream> = (0..header.workflows)
            .map(|wf| base.child(u64::from(wf)))
            .collect();
        let mut heap = BinaryHeap::new();
        for (wf, rng) in (0u32..).zip(&mut rngs) {
            let first = SimDuration::from_millis_f64(rng.exponential(mean_gap_ms));
            heap.push(Reverse((first.as_micros(), wf)));
        }
        let mut events = Vec::new();
        while (events.len() as u64) < header.events {
            let Reverse((at_us, wf)) = heap.pop().expect("a non-empty population");
            let gap = SimDuration::from_millis_f64(rngs[wf as usize].exponential(mean_gap_ms));
            heap.push(Reverse((at_us + gap.as_micros().max(1), wf)));
            events.push(StreamEvent { at_us, wf });
        }
        events
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Rates are log-uniform from 0.1 to 10^12 per hour: at the top
        /// gaps fall to the 1 µs floor and workflows tie constantly, so
        /// the lower-index tie-break is exercised within and across
        /// groups. The populations sit on the group boundaries, plus one
        /// drawn at random.
        #[test]
        fn grouped_merge_equals_the_pop_push_merge(
            workflows in 1u32..=1000,
            seed in 0u64..u64::MAX,
            log10_rate_per_hour in -1.0f64..12.0,
            events in 0u64..3000,
        ) {
            let rate_per_hour = 10f64.powf(log10_rate_per_hour);
            for workflows in [1, 7, 8, 9, 1000, workflows] {
                let (header, merged) =
                    GeneratedStream::new(workflows, 2, rate_per_hour, seed, events)
                        .collect_events();
                prop_assert_eq!(merged, pop_push_merge(&header));
            }
        }
    }
}
