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

use crate::arrivals::PoissonCursor;
use serde::{Deserialize, Serialize};
use std::collections::TryReserveError;
use std::hint::select_unpredictable;
use xanadu_simcore::{RngStream, SimTime};

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

/// Events a chunk is sized for, unless the population needs more: every
/// chunk visits every workflow, so a chunk also expects a block of
/// arrivals per workflow.
const CHUNK_EVENTS: u64 = 8192;

/// Merge cursors, each over its own time slice of a chunk. The merge
/// loop steps all four in turn, so it names them one by one.
const CURSORS: usize = 4;

/// The most groups whose chunks every cursor merges; a larger
/// population's chunk is one slice, merged by one cursor. Interleaving
/// pays while a step is a short chain, the pairwise tree and a heap of
/// at most three levels. Deeper heaps mispredict where each sift stops,
/// which discards the other cursors' work in flight too, and each
/// cursor keeps its own copy of the group state.
const INTERLEAVED_GROUPS: usize = 8;

/// Seeded merge of per-workflow Poisson processes: an endless,
/// deterministic load generator. Bounded by `header.events`.
///
/// Events come out in `(at_us, wf)` order: time, then the lower
/// workflow index. Every gap is an exponential draw rounded to whole
/// µs; a workflow's first arrival is one gap after 0 and each later gap
/// is at least 1 µs. Arrival times saturate at the clock's last µs.
///
/// The stream is generated a chunk of stream time at a time, sized for
/// 8,192 events or a block per workflow, in two passes:
///
/// 1. Each workflow's resumable Poisson cursor appends its arrivals
///    before the chunk's end, drawn 8 gaps at a time, then the first
///    arrival past it.
/// 2. Merge cursors over disjoint time slices of the chunk merge those
///    arrays into the chunk's events, drawing nothing. Up to 64
///    workflows four cursors over quarters of the chunk step in turn,
///    so their dependency chains overlap. Contiguous workflows form
///    groups of 8, whose earliest arrival a pairwise tree finds, and a
///    min-heap holds every other group's earliest `(at_us, wf)`; up to 8
///    workflows the heap is empty.
///
/// [`next_event`](StreamSource::next_event) and
/// [`collect_events`](Self::collect_events) read the one chunk buffer,
/// so memory is bounded by the chunk and the population.
#[derive(Debug, Clone)]
pub struct GeneratedStream {
    header: StreamHeader,
    /// Each workflow's arrival process, resumable at any arrival.
    arrivals: Vec<PoissonCursor>,
    /// Stream time per expected event across the population, in µs:
    /// the mean gap, at least the 1 µs floor, over the workflow count.
    us_per_event: f64,
    /// Events a chunk is sized for.
    chunk_events: u64,
    /// Time slices per chunk, each merged by its own cursor.
    slices: usize,
    /// The start of the next chunk: every arrival before it is merged.
    horizon: u64,
    /// Pass 1's output: each workflow's arrivals in the chunk, then its
    /// first arrival past the chunk, which ends its lane.
    lanes: Vec<u64>,
    /// Pass 2's cursors, kept between chunks for their buffers.
    merges: [Merge; CURSORS],
    /// The chunk's events in order, in `chunk[..filled]`. The buffer
    /// keeps its longest length, so a chunk does not zero it again.
    chunk: Vec<StreamEvent>,
    filled: usize,
    /// Events of the chunk handed out.
    read: usize,
    /// Events of the stream handed out.
    emitted: u64,
}

/// One merge cursor: every workflow's arrivals in one time slice of a
/// chunk, merged in `(at_us, wf)` order.
#[derive(Debug, Clone, Default)]
struct Merge {
    /// Each group's lanes.
    groups: Vec<Group>,
    /// Min-heap of every group's earliest `(at_us, wf)` [`key`] but the
    /// top's. Groups are disjoint, so every key is unique and the order
    /// does not depend on how the heap sifts.
    heap: Vec<u128>,
    /// The slice's next event, its group's earliest arrival. It stays
    /// out of the heap, so a group that stays earliest sifts nothing.
    top: (u64, u32),
    /// Events in the slice.
    events: usize,
}

/// Eight workflows' next arrivals in a merge cursor's slice.
#[derive(Debug, Clone, Copy)]
struct Group {
    /// Each lane's next arrival. A lane past the population holds
    /// `u64::MAX`, which never wins: every event of a slice is earlier.
    at: [u64; GROUP],
    /// Where in the lanes each lane's next arrival is.
    next: [usize; GROUP],
}

impl Group {
    const PADDING: Group = Group {
        at: [u64::MAX; GROUP],
        next: [0; GROUP],
    };
}

/// The earliest `(at_us, wf)` of the group whose first workflow is
/// `first`, found by a pairwise tree: lanes meet in pairs, then the
/// winners, so no comparison waits on more than two others. Selects
/// instead of branches keep its cost independent of the arrival times;
/// the left lane, the lower index, wins a tie.
fn earliest(at: &[u64; GROUP], first: usize) -> (u64, u32) {
    fn pick(left: (u64, usize), right: (u64, usize)) -> (u64, usize) {
        select_unpredictable(right.0 < left.0, right, left)
    }
    let pairs: [(u64, usize); GROUP / 2] =
        std::array::from_fn(|i| pick((at[2 * i], 2 * i), (at[2 * i + 1], 2 * i + 1)));
    let (at_us, k) = pick(pick(pairs[0], pairs[1]), pick(pairs[2], pairs[3]));
    (at_us, (first + k) as u32)
}

/// A heap key: `(at_us, wf)` in one integer, ordered as the pair is,
/// with `at_us` in the high word.
fn key((at_us, wf): (u64, u32)) -> u128 {
    u128::from(at_us) << 64 | u128::from(wf)
}

/// The `(at_us, wf)` of a [`key`].
fn unkey(key: u128) -> (u64, u32) {
    ((key >> 64) as u64, key as u32)
}

/// Sifts `key` down a min-heap from `hole`, whose own key is spent.
fn sift_down(heap: &mut [u128], mut hole: usize, key: u128) {
    let mut child = 2 * hole + 1;
    while child + 1 < heap.len() {
        child += usize::from(heap[child + 1] < heap[child]);
        if key < heap[child] {
            break;
        }
        heap[hole] = heap[child];
        hole = child;
        child = 2 * hole + 1;
    }
    if child + 1 == heap.len() && heap[child] < key {
        heap[hole] = heap[child];
        hole = child;
    }
    heap[hole] = key;
}

impl Merge {
    /// Heaps every group's earliest arrival and takes out the earliest
    /// as the top.
    fn seal(&mut self) {
        let heap = &mut self.heap;
        heap.clear();
        heap.extend(
            (0..)
                .step_by(GROUP)
                .zip(&self.groups)
                .map(|(first, group)| key(earliest(&group.at, first))),
        );
        for hole in (0..heap.len() / 2).rev() {
            let key = heap[hole];
            sift_down(heap, hole, key);
        }
        let last = heap.pop().expect("a slice with events has a group");
        let top = match heap.first_mut() {
            Some(root) => std::mem::replace(root, last),
            None => last,
        };
        if let Some(&root) = heap.first() {
            sift_down(heap, 0, root);
        }
        self.top = unkey(top);
    }

    /// Emits the slice's next event into `slot` and advances its lane;
    /// the lane's group's new earliest stays the top unless the heap's
    /// root is earlier, which then takes its place.
    #[inline(always)]
    fn step(&mut self, lanes: &[u64], slot: &mut StreamEvent) {
        let (at_us, wf) = self.top;
        *slot = StreamEvent { at_us, wf };
        let lane = wf as usize % GROUP;
        let group = &mut self.groups[wf as usize / GROUP];
        group.next[lane] += 1;
        group.at[lane] = lanes[group.next[lane]];
        let mut top = key(earliest(&group.at, wf as usize - lane));
        if let Some(&root) = self.heap.first() {
            if root < top {
                sift_down(&mut self.heap, 0, top);
                top = root;
            }
        }
        self.top = unkey(top);
    }
}

impl GeneratedStream {
    /// A generator for `workflows` linear chains of `depth` functions,
    /// each arriving as an independent Poisson process of
    /// `rate_per_hour`, emitting `events` events in total.
    ///
    /// # Panics
    /// If `workflows` is zero, if `rate_per_hour` is not positive and
    /// finite (an infinite rate's gaps are all 0 µs), or if the
    /// population's state cannot be held in memory.
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
        GeneratedStream::from_header(header).expect("the population fits in memory")
    }

    /// Rebuilds the generator a [`StreamHeader`] describes (used by
    /// `record` → `serve` round trips).
    ///
    /// # Errors
    ///
    /// When the per-workflow state of `header.workflows` workflows
    /// cannot be reserved; nothing is drawn then.
    pub fn from_header(header: StreamHeader) -> Result<Self, TryReserveError> {
        let mean_gap_ms = 3_600_000.0 / header.rate_per_hour;
        let base = RngStream::derive(header.seed, "stream-arrivals");
        let n = header.workflows as usize;
        let groups = n.div_ceil(GROUP);
        let slices = if groups <= INTERLEAVED_GROUPS {
            CURSORS
        } else {
            1
        };
        let mut arrivals = Vec::new();
        arrivals.try_reserve_exact(n)?;
        let mut merges: [Merge; CURSORS] = Default::default();
        for merge in &mut merges[..slices] {
            merge.groups.try_reserve_exact(groups)?;
            merge.groups.resize(groups, Group::PADDING);
        }
        arrivals.extend((0..n).map(|wf| {
            // The first gap is the only one below the 1 µs floor.
            PoissonCursor::new(base.child(wf as u64), mean_gap_ms, 0, 1)
        }));
        Ok(GeneratedStream {
            us_per_event: (mean_gap_ms * 1_000.0).max(1.0) / n.max(1) as f64,
            chunk_events: CHUNK_EVENTS.max(RngStream::EXP_BLOCK as u64 * n as u64),
            slices,
            header,
            arrivals,
            horizon: 0,
            lanes: Vec::new(),
            merges,
            chunk: Vec::new(),
            filled: 0,
            read: 0,
            emitted: 0,
        })
    }

    /// Materializes the whole stream (for `xanadu record`).
    pub fn collect_events(mut self) -> (StreamHeader, Vec<StreamEvent>) {
        let mut events = Vec::with_capacity(self.header.events as usize);
        loop {
            let left = self.unread();
            if left == 0 {
                break;
            }
            let chunk = &self.chunk[self.read..self.filled];
            // At most the chunk's length, so the cast is lossless.
            let take = left.min(chunk.len() as u64) as usize;
            events.extend_from_slice(&chunk[..take]);
            self.read += take;
            self.emitted += take as u64;
        }
        (self.header, events)
    }

    /// Events of the stream not yet handed out, refilling the chunk
    /// first when every event of it has been.
    fn unread(&mut self) -> u64 {
        let left = if self.arrivals.is_empty() {
            0
        } else {
            self.header.events - self.emitted
        };
        if left > 0 && self.read == self.filled {
            self.fill(left);
        }
        left
    }

    /// Generates chunks until one holds an event, for a stream with
    /// `left` events to go.
    fn fill(&mut self, left: u64) {
        self.read = 0;
        self.filled = 0;
        while self.filled == 0 {
            // The last chunk aims three standard deviations of its count
            // past the stream's end, so it rarely falls short.
            let events = (left + 3 * (left as f64).sqrt() as u64).min(self.chunk_events);
            if self.horizon == u64::MAX {
                // Every workflow is at the clock's last µs for good, so
                // the lowest index wins every event from here on.
                let last = StreamEvent {
                    at_us: u64::MAX,
                    wf: 0,
                };
                self.chunk.clear();
                self.chunk.resize(events as usize, last);
                self.filled = events as usize;
            } else {
                self.merge_chunk(events);
            }
        }
    }

    /// Generates the chunk that starts at the horizon and expects
    /// `events` events: pass 1 draws each workflow's arrivals before its
    /// end, pass 2 merges them.
    fn merge_chunk(&mut self, events: u64) {
        let start = self.horizon;
        // A saturating cast: a span past the clock ends the chunk there.
        let span = ((events as f64 * self.us_per_event) as u64).max(1);
        let end = start.saturating_add(span);
        self.horizon = end;
        // Cursor `k` merges the arrivals in `[cuts[k], cuts[k + 1])`; a
        // cursor past the chunk's slices gets an empty one.
        let width = (end - start) / self.slices as u64;
        let cuts: [u64; CURSORS + 1] = std::array::from_fn(|k| {
            if k < self.slices {
                start + width * k as u64
            } else {
                end
            }
        });

        for merge in &mut self.merges {
            merge.events = 0;
        }
        self.lanes.clear();
        let merges = &mut self.merges[..self.slices];
        for (wf, process) in self.arrivals.iter_mut().enumerate() {
            let first = self.lanes.len();
            let lanes = &mut self.lanes;
            let pending = process.take_before(end, |at| lanes.extend_from_slice(at));
            let last = lanes.len();
            lanes.push(pending);
            let mine = &lanes[first..last];
            let mut from = first;
            for (merge, &cut) in merges.iter_mut().zip(&cuts[1..]) {
                let to = if cut == end {
                    last
                } else {
                    first + mine.partition_point(|&at| at < cut)
                };
                let group = &mut merge.groups[wf / GROUP];
                group.at[wf % GROUP] = lanes[from];
                group.next[wf % GROUP] = from;
                merge.events += to - from;
                from = to;
            }
        }

        let total = merges.iter().map(|merge| merge.events).sum();
        if self.chunk.len() < total {
            self.chunk.resize(total, StreamEvent { at_us: 0, wf: 0 });
        }
        self.filled = total;
        let mut rest = &mut self.chunk[..total];
        let mut outs: [&mut [StreamEvent]; CURSORS] = std::array::from_fn(|k| {
            let (out, tail) = std::mem::take(&mut rest).split_at_mut(self.merges[k].events);
            rest = tail;
            out
        });
        for merge in self.merges.iter_mut().filter(|merge| merge.events > 0) {
            merge.seal();
        }
        let lanes = &self.lanes[..];
        // The cursors step in turn while each has events left, then
        // each finishes alone.
        let common = outs.iter().map(|out| out.len()).min().unwrap_or(0);
        let [m0, m1, m2, m3] = &mut self.merges;
        let [o0, o1, o2, o3] = &mut outs;
        let quads = o0[..common]
            .iter_mut()
            .zip(&mut o1[..common])
            .zip(&mut o2[..common])
            .zip(&mut o3[..common]);
        for (((e0, e1), e2), e3) in quads {
            m0.step(lanes, e0);
            m1.step(lanes, e1);
            m2.step(lanes, e2);
            m3.step(lanes, e3);
        }
        for (merge, out) in self.merges.iter_mut().zip(outs) {
            for slot in &mut out[common..] {
                merge.step(lanes, slot);
            }
        }
    }
}

impl StreamSource for GeneratedStream {
    fn header(&self) -> &StreamHeader {
        &self.header
    }

    fn next_event(&mut self) -> Option<StreamEvent> {
        if self.unread() == 0 {
            return None;
        }
        let event = self.chunk[self.read];
        self.read += 1;
        self.emitted += 1;
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::proptests::pop_push_merge;
    use super::*;

    /// The events of each chunk `stream` generates, until it ends.
    pub(super) fn chunk_sizes(mut stream: GeneratedStream) -> Vec<usize> {
        let mut sizes = Vec::new();
        loop {
            let left = stream.unread();
            if left == 0 {
                return sizes;
            }
            sizes.push(stream.filled);
            let take = left.min((stream.filled - stream.read) as u64);
            stream.read += take as usize;
            stream.emitted += take;
        }
    }

    #[test]
    fn streams_ending_on_a_chunk_edge_equal_the_pop_push_merge() {
        // At 10^12 arrivals per hour every workflow arrives at 0 µs and
        // then once a µs, so a chunk holds whole µs of the population:
        // 8,192 events over the workflows, rounded down to whole µs.
        for workflows in [1u32, 7, 8, 9, 1000] {
            let n = u64::from(workflows);
            let chunk = CHUNK_EVENTS.max(8 * n) / n * n;
            for events in [3 * chunk - 1, 3 * chunk, 3 * chunk + 1] {
                let stream = GeneratedStream::new(workflows, 1, 1e12, 5, events);
                let sizes = chunk_sizes(stream.clone());
                assert_eq!(sizes[..3], [chunk as usize; 3], "{workflows} workflows");
                assert_eq!(sizes.len(), 3 + usize::from(events > 3 * chunk));
                let (header, merged) = stream.collect_events();
                assert_eq!(merged, pop_push_merge(&header), "{workflows}: {events}");
            }
        }
    }

    #[test]
    fn a_clone_taken_mid_chunk_continues_like_the_original() {
        for workflows in [6, 1000] {
            let mut original = GeneratedStream::new(workflows, 1, 3600.0, 9, 30_000);
            let head: Vec<_> = (0..12_345).map_while(|_| original.next_event()).collect();
            assert!(
                0 < original.read && original.read < original.filled,
                "{workflows} workflows: not mid-chunk"
            );
            let (header, rest) = original.clone().collect_events();
            let tail: Vec<_> = std::iter::from_fn(|| original.next_event()).collect();
            assert_eq!(rest, tail, "{workflows} workflows");
            assert_eq!([head, tail].concat(), pop_push_merge(&header));
        }
    }

    #[test]
    fn next_event_then_collect_events_give_the_reference_events() {
        for workflows in [1, 6, 9, 1000] {
            let mut stream = GeneratedStream::new(workflows, 1, 3600.0, 4, 25_000);
            // Past the first chunk's end, into the second.
            let mut events: Vec<_> = (0..10_000).map_while(|_| stream.next_event()).collect();
            let (header, rest) = stream.collect_events();
            events.extend(rest);
            assert_eq!(events, pop_push_merge(&header), "{workflows} workflows");
        }
    }

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
        let (_, regen) = GeneratedStream::from_header(header)
            .unwrap()
            .collect_events();
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
        // At 10^-15 arrivals per hour every gap is past `u64::MAX` µs,
        // so every chunk from the first starts at the clock's end; the
        // stream must still end, over several chunks.
        let (_, events) = GeneratedStream::new(2, 1, 1e-15, 42, 20_000).collect_events();
        assert!(events.iter().all(|e| e.at_us == u64::MAX && e.wf == 0));
        assert_eq!(events.len(), 20_000);
        // At 3.6·10^-8 per hour the mean gap is 10^17 µs: the processes
        // reach the clock's end inside a chunk, and from there the lowest
        // index wins every event.
        for workflows in [1, 9] {
            let (header, events) =
                GeneratedStream::new(workflows, 1, 3.6e-8, 7, 2_000).collect_events();
            assert!(events.iter().any(|e| e.at_us < u64::MAX));
            assert_eq!(
                events.last(),
                Some(&StreamEvent {
                    at_us: u64::MAX,
                    wf: 0
                })
            );
            assert_eq!(events, pop_push_merge(&header), "{workflows} workflows");
        }
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
        let mut stream = GeneratedStream::from_header(header).unwrap();
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
    use super::tests::chunk_sizes;
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use xanadu_simcore::SimDuration;

    /// The merge `GeneratedStream` replaced: a heap of every workflow's
    /// next arrival; pop the earliest, draw its next gap, push it back.
    pub(super) fn pop_push_merge(header: &StreamHeader) -> Vec<StreamEvent> {
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
            heap.push(Reverse((at_us.saturating_add(gap.as_micros().max(1)), wf)));
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
        /// drawn at random. Each gets a stream shorter than a chunk, one
        /// that spans up to three chunks, and streams of the long one's
        /// first chunk and one event more.
        #[test]
        fn grouped_merge_equals_the_pop_push_merge(
            workflows in 1u32..=1000,
            seed in 0u64..u64::MAX,
            log10_rate_per_hour in -1.0f64..12.0,
            events in 0u64..3000,
            chunks in 1u64..=3,
        ) {
            let rate_per_hour = 10f64.powf(log10_rate_per_hour);
            for workflows in [1, 7, 8, 9, 1000, workflows] {
                let long = (chunks - 1) * CHUNK_EVENTS + events + 1;
                let stream = GeneratedStream::new(workflows, 2, rate_per_hour, seed, long);
                let first = chunk_sizes(stream)[0] as u64;
                for events in [events, long, first, first + 1] {
                    let (header, merged) =
                        GeneratedStream::new(workflows, 2, rate_per_hour, seed, events)
                            .collect_events();
                    prop_assert_eq!(merged, pop_push_merge(&header), "{} events", events);
                }
            }
        }
    }
}
