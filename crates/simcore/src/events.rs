//! Deterministic future-event list.
//!
//! A discrete-event simulation advances by repeatedly popping the earliest
//! scheduled event. Determinism requires a total order even among events
//! scheduled for the *same* instant; we break ties by a monotonically
//! increasing sequence number, so events at equal timestamps pop in the
//! order they were scheduled (FIFO), independent of the container's
//! internal layout.
//!
//! The backing store is a binary heap ordered by `(time, seq)`. A
//! platform queues only in-flight work: trace arrivals wait in the
//! platform's arrival cursor and enter the queue one at a time, under
//! sequence numbers reserved with [`EventQueue::reserve_seqs`], so an
//! arrival pops exactly where it would have had the whole trace been
//! scheduled up front. The contract — pops come out in strictly
//! increasing `(time, seq)` order — is property-tested against a
//! linear-scan model.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled on the future-event list, pairing a timestamp and a
/// tie-breaking sequence number with the payload.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Global scheduling order, used to break timestamp ties.
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

// BinaryHeap is a max-heap; reverse the ordering to pop the earliest
// (time, seq) first.
impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}
impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic priority queue of timestamped events.
///
/// Events with equal timestamps are returned in insertion order, which makes
/// every simulation in this workspace reproducible bit-for-bit from its seed.
///
/// # Example
///
/// ```
/// use xanadu_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(3), "c");
/// q.schedule(SimTime::from_millis(1), "a");
/// q.schedule(SimTime::from_millis(1), "b"); // same instant as "a"
///
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "b")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(3), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Reserves capacity for at least `additional` more scheduled events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Schedules `event` to fire at `time`. Returns the sequence number
    /// assigned to the event (useful for logging/cancellation schemes built
    /// on top).
    pub fn schedule(&mut self, time: SimTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { time, seq, event });
        seq
    }

    /// Sets aside `n` consecutive sequence numbers for events scheduled
    /// later with [`schedule_reserved`](Self::schedule_reserved), and
    /// returns the first. Every event [`schedule`](Self::schedule)d after
    /// this call orders after all of them at equal timestamps, as if the
    /// `n` events had been scheduled now.
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// Schedules `event` at `time` under `seq`, a number taken from
    /// [`reserve_seqs`](Self::reserve_seqs) and not used before, so it
    /// pops where it would have had it been scheduled when the number was
    /// reserved.
    pub fn schedule_reserved(&mut self, time: SimTime, seq: u64, event: E) {
        assert!(
            seq < self.next_seq,
            "sequence number {seq} was never reserved"
        );
        self.heap.push(ScheduledEvent { time, seq, event });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every pending event.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Removes all pending events matching `pred`, returning how many were
    /// removed. Used by JIT deployment to cancel planned provisioning when a
    /// prediction miss is detected (§3.2.2 of the paper).
    pub fn cancel_where<F: FnMut(&E) -> bool>(&mut self, mut pred: F) -> usize {
        let before = self.heap.len();
        self.heap.retain(|s| !pred(&s.event));
        before - self.heap.len()
    }

    /// Removes all pending events matching `pred` and returns them (with
    /// their scheduled times) in scheduling order. Unlike
    /// [`cancel_where`](Self::cancel_where), the caller gets the removed
    /// payloads back — fault recovery uses this to re-dispatch invocations
    /// that were waiting on a worker that just crashed.
    pub fn drain_where<F: FnMut(&E) -> bool>(&mut self, mut pred: F) -> Vec<(SimTime, E)> {
        let mut kept = std::mem::take(&mut self.heap).into_vec();
        let mut removed: Vec<_> = kept.extract_if(.., |s| pred(&s.event)).collect();
        self.heap = kept.into();
        removed.sort_unstable_by_key(|s| (s.time, s.seq));
        removed.into_iter().map(|s| (s.time, s.event)).collect()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &ms in &[50u64, 10, 30, 20, 40] {
            q.schedule(SimTime::from_millis(ms), ms);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn equal_timestamps_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        assert_eq!(q.len(), 1);
        assert!(q.pop().is_some());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn cancel_where_removes_matching_and_preserves_order() {
        let mut q = EventQueue::new();
        let t = SimTime::ZERO;
        for i in 0..10 {
            q.schedule(t + SimDuration::from_millis(i), i);
        }
        let removed = q.cancel_where(|e| e % 2 == 0);
        assert_eq!(removed, 5);
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn cancel_preserves_fifo_for_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..6 {
            q.schedule(t, i);
        }
        q.cancel_where(|e| *e == 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 4, 5]);
    }

    #[test]
    fn drain_where_returns_removed_in_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2);
        for i in 0..8 {
            // Interleave equal and distinct timestamps.
            q.schedule(t + SimDuration::from_millis(i / 2), i);
        }
        let removed = q.drain_where(|e| e % 2 == 0);
        assert_eq!(
            removed,
            vec![
                (t, 0),
                (t + SimDuration::from_millis(1), 2),
                (t + SimDuration::from_millis(2), 4),
                (t + SimDuration::from_millis(3), 6),
            ]
        );
        let kept: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(kept, vec![1, 3, 5, 7]);
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 1);
        q.schedule(SimTime::ZERO, 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn sequence_numbers_are_unique_and_increasing() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::ZERO, ());
        let b = q.schedule(SimTime::ZERO, ());
        assert!(b > a);
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        // Events hours ahead and microseconds ahead, scheduled out of
        // order, come back in time order.
        let mut q = EventQueue::new();
        let times = [
            SimTime::from_hours(5),
            SimTime::from_micros(3),
            SimTime::from_hours(1),
            SimTime::from_secs(2),
            SimTime::from_millis(900),
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut sorted: Vec<SimTime> = times.to_vec();
        sorted.sort();
        let popped: Vec<SimTime> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        // Pop some, then schedule events relative to the popped time — the
        // simulation's actual access pattern.
        let mut q = EventQueue::new();
        for i in 0..50u64 {
            q.schedule(SimTime::from_millis(i * 7), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, i)) = q.pop() {
            assert!(t >= last, "time went backwards");
            last = t;
            popped += 1;
            if i % 3 == 0 {
                q.schedule(t + SimDuration::from_micros(i * 11 + 1), 1000 + i);
            }
        }
        assert_eq!(popped, 50 + 17);
    }

    #[test]
    fn simtime_max_sentinel_is_schedulable() {
        // Keep-alive code uses SimTime::MAX as a "never due" deadline; it
        // must order after every finite time.
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, "never");
        q.schedule(SimTime::from_millis(1), "soon");
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), "soon")));
        assert_eq!(q.pop(), Some((SimTime::MAX, "never")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(1 << 16);
        q.reserve(1024);
        q.schedule(SimTime::from_millis(2), "b");
        q.schedule(SimTime::from_millis(1), "a");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), "b")));
    }

    #[test]
    fn past_events_after_pop_still_order_correctly() {
        // The API does not forbid scheduling before the last popped time;
        // such events must pop before everything later, FIFO among equals.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "late");
        assert_eq!(q.pop().unwrap().1, "late");
        q.schedule(SimTime::from_secs(1), "past");
        q.schedule(SimTime::from_secs(20), "future");
        assert_eq!(q.pop().unwrap().1, "past");
        assert_eq!(q.pop().unwrap().1, "future");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Reference model that shares no code with the heap: a plain vector
    /// of `(time, seq, payload)`, popped by a linear scan for the least
    /// `(time, seq)`, with the cancellations as `retain`.
    #[derive(Default)]
    struct ScanModel {
        events: Vec<(SimTime, u64, u32)>,
        next_seq: u64,
    }

    impl ScanModel {
        fn take_seq(&mut self) -> u64 {
            self.next_seq += 1;
            self.next_seq - 1
        }
        fn schedule(&mut self, time: SimTime, event: u32) {
            let seq = self.take_seq();
            self.events.push((time, seq, event));
        }
        fn earliest(&self) -> Option<usize> {
            (0..self.events.len()).min_by_key(|&i| (self.events[i].0, self.events[i].1))
        }
        fn pop(&mut self) -> Option<(SimTime, u32)> {
            let (time, _, event) = self.events.remove(self.earliest()?);
            Some((time, event))
        }
        fn peek_time(&self) -> Option<SimTime> {
            self.earliest().map(|i| self.events[i].0)
        }
        fn cancel_where(&mut self, pred: impl Fn(u32) -> bool) -> usize {
            let before = self.events.len();
            self.events.retain(|&(_, _, e)| !pred(e));
            before - self.events.len()
        }
        fn drain_where(&mut self, pred: impl Fn(u32) -> bool) -> Vec<(SimTime, u32)> {
            let mut removed: Vec<_> = self
                .events
                .iter()
                .copied()
                .filter(|&(_, _, e)| pred(e))
                .collect();
            self.events.retain(|&(_, _, e)| !pred(e));
            removed.sort_by_key(|&(time, seq, _)| (time, seq));
            removed.into_iter().map(|(time, _, e)| (time, e)).collect()
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Schedule(u64),
        /// Reserve a sequence number now for an event at this time that
        /// is scheduled later, by `Release`.
        Reserve(u64),
        Release,
        Pop,
        CancelMod(u32),
        DrainMod(u32),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Mix of near-future, coarse duplicate timestamps (FIFO
        // tie-breaking), far-future, reserved-then-released events, pops
        // and cancels.
        (0u32..14, 0u64..5_000_000, 2u32..5).prop_map(|(kind, t, m)| match kind {
            0..=3 => Op::Schedule(t),
            4 => Op::Schedule((t % 64) * 1_000),
            5 => Op::Schedule((t % 4) * 3_600_000_000),
            6 => Op::Reserve((t % 64) * 1_000),
            7 => Op::Release,
            8..=10 => Op::Pop,
            11 => Op::DrainMod(m),
            _ => Op::CancelMod(m),
        })
    }

    proptest! {
        #[test]
        fn pop_order_matches_linear_scan_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
            let mut q = EventQueue::new();
            let mut model = ScanModel::default();
            let mut held = std::collections::VecDeque::new();
            let mut payload = 0u32;
            for op in ops {
                match op {
                    Op::Schedule(t) => {
                        q.schedule(SimTime::from_micros(t), payload);
                        model.schedule(SimTime::from_micros(t), payload);
                        payload += 1;
                    }
                    Op::Reserve(t) => {
                        let seq = q.reserve_seqs(1);
                        prop_assert_eq!(seq, model.take_seq());
                        held.push_back((SimTime::from_micros(t), seq, payload));
                        payload += 1;
                    }
                    Op::Release => {
                        if let Some((time, seq, event)) = held.pop_front() {
                            q.schedule_reserved(time, seq, event);
                            model.events.push((time, seq, event));
                        }
                    }
                    Op::Pop => {
                        prop_assert_eq!(q.pop(), model.pop());
                    }
                    Op::CancelMod(m) => {
                        let a = q.cancel_where(|e| e % m == 0);
                        let b = model.cancel_where(|e| e % m == 0);
                        prop_assert_eq!(a, b);
                    }
                    Op::DrainMod(m) => {
                        let a = q.drain_where(|e| e % m == 1);
                        let b = model.drain_where(|e| e % m == 1);
                        prop_assert_eq!(a, b);
                    }
                }
                prop_assert_eq!(q.len(), model.events.len());
                prop_assert_eq!(q.peek_time(), model.peek_time());
            }
            // Drain both to the end: full order must agree.
            loop {
                let (a, b) = (q.pop(), model.pop());
                prop_assert_eq!(&a, &b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
