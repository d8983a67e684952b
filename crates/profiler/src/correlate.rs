//! Parent↔child request correlation for implicit chains.
//!
//! For implicit chains the platform cannot hook into function runtimes, so
//! it cannot observe *when* a parent invokes its child directly. Instead
//! (§3.2.2) Xanadu keeps the arrival timestamps of requests and assumes
//! parent-to-child requests preserve chronological order — parent requests
//! arriving earlier invoke their child functions earlier — giving a
//! one-to-one FIFO mapping between parent and child requests from which the
//! invocation delay is inferred.

use crate::update_named;
use std::collections::{HashMap, VecDeque};
use xanadu_simcore::{SimDuration, SimTime};

#[derive(Debug, Clone, Default)]
struct ArrivalLog {
    /// Timestamps of remembered arrivals, oldest first.
    times: VecDeque<SimTime>,
    /// How many older arrivals have been dropped for capacity; the absolute
    /// index of `times[0]` is `dropped`.
    dropped: u64,
}

/// FIFO matcher of parent arrivals to child arrivals, yielding invocation-
/// delay samples.
///
/// Each `(parent, child)` edge consumes the parent's arrival stream
/// independently: the k-th child request on an edge is matched to the k-th
/// parent arrival, which is the paper's chronological one-to-one mapping.
///
/// # Example
///
/// ```
/// use xanadu_profiler::RequestCorrelator;
/// use xanadu_simcore::{SimTime, SimDuration};
///
/// let mut c = RequestCorrelator::new();
/// c.observe_arrival("order", SimTime::from_millis(0));
/// let delay = c.observe_child_arrival("order", "pay", SimTime::from_millis(2100));
/// assert_eq!(delay, Some(SimDuration::from_millis(2100)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RequestCorrelator {
    arrivals: HashMap<String, ArrivalLog>,
    /// Matches consumed so far per parent, then child — the absolute
    /// index of the next parent arrival that edge will claim. Nested so
    /// both names are probed as `&str`.
    matched: HashMap<String, HashMap<String, u64>>,
    capacity: usize,
}

impl RequestCorrelator {
    /// Default bound on remembered arrivals per function.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates a correlator with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a correlator remembering at most `capacity` arrivals per
    /// function (oldest are dropped first), bounding memory on long-running
    /// platforms.
    pub fn with_capacity(capacity: usize) -> Self {
        RequestCorrelator {
            arrivals: HashMap::new(),
            matched: HashMap::new(),
            capacity: capacity.max(1),
        }
    }

    /// Records the arrival of a request to `function` at `now`.
    pub fn observe_arrival(&mut self, function: &str, now: SimTime) {
        let capacity = self.capacity;
        update_named(&mut self.arrivals, function, ArrivalLog::default, |log| {
            log.times.push_back(now);
            while log.times.len() > capacity {
                log.times.pop_front();
                log.dropped += 1;
            }
        });
    }

    /// Records the arrival of a request to `child` carrying a parent header
    /// naming `parent`, at `now`. Returns the inferred invocation delay —
    /// the time since the matching parent arrival — or `None` when no
    /// unconsumed parent arrival exists (out-of-order traffic or capacity
    /// eviction).
    pub fn observe_child_arrival(
        &mut self,
        parent: &str,
        child: &str,
        now: SimTime,
    ) -> Option<SimDuration> {
        let next = self
            .matched
            .get(parent)
            .and_then(|children| children.get(child))
            .copied()
            .unwrap_or(0);
        let log = self.arrivals.get(parent)?;
        // If the arrival this edge should match was evicted, skip forward to
        // the oldest remembered arrival rather than mismatching.
        let next = next.max(log.dropped);
        let idx = (next - log.dropped) as usize;
        let parent_arrival = *log.times.get(idx)?;
        update_named(&mut self.matched, parent, HashMap::new, |children| {
            update_named(children, child, || 0, |claimed| *claimed = next + 1);
        });
        Some(now.saturating_since(parent_arrival))
    }

    /// Number of remembered (not yet evicted) arrivals for `function`.
    pub fn remembered_arrivals(&self, function: &str) -> usize {
        self.arrivals.get(function).map_or(0, |l| l.times.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_matching_infers_delays() {
        let mut c = RequestCorrelator::new();
        c.observe_arrival("p", SimTime::from_millis(0));
        c.observe_arrival("p", SimTime::from_millis(1000));
        assert_eq!(
            c.observe_child_arrival("p", "c", SimTime::from_millis(500)),
            Some(SimDuration::from_millis(500))
        );
        // Second child request matches the second parent arrival.
        assert_eq!(
            c.observe_child_arrival("p", "c", SimTime::from_millis(1700)),
            Some(SimDuration::from_millis(700))
        );
        // No third parent arrival yet.
        assert_eq!(
            c.observe_child_arrival("p", "c", SimTime::from_millis(2000)),
            None
        );
    }

    #[test]
    fn edges_consume_parent_stream_independently() {
        let mut c = RequestCorrelator::new();
        c.observe_arrival("p", SimTime::from_millis(100));
        let a = c.observe_child_arrival("p", "a", SimTime::from_millis(300));
        let b = c.observe_child_arrival("p", "b", SimTime::from_millis(450));
        // Both children of the same parent trigger match the same arrival.
        assert_eq!(a, Some(SimDuration::from_millis(200)));
        assert_eq!(b, Some(SimDuration::from_millis(350)));
    }

    #[test]
    fn unknown_parent_returns_none() {
        let mut c = RequestCorrelator::new();
        assert_eq!(c.observe_child_arrival("ghost", "c", SimTime::ZERO), None);
    }

    #[test]
    fn capacity_evicts_oldest_and_matching_recovers() {
        let mut c = RequestCorrelator::with_capacity(2);
        c.observe_arrival("p", SimTime::from_millis(0));
        c.observe_arrival("p", SimTime::from_millis(10));
        c.observe_arrival("p", SimTime::from_millis(20)); // evicts t=0
        assert_eq!(c.remembered_arrivals("p"), 2);
        // The edge's first match should skip the evicted arrival and pair
        // with t=10, not silently misalign.
        assert_eq!(
            c.observe_child_arrival("p", "c", SimTime::from_millis(15)),
            Some(SimDuration::from_millis(5))
        );
        assert_eq!(
            c.observe_child_arrival("p", "c", SimTime::from_millis(29)),
            Some(SimDuration::from_millis(9))
        );
    }

    #[test]
    fn out_of_order_child_clamps_to_zero() {
        let mut c = RequestCorrelator::new();
        c.observe_arrival("p", SimTime::from_millis(1000));
        // Child observed "before" its matched parent (clock skew): delay 0.
        assert_eq!(
            c.observe_child_arrival("p", "c", SimTime::from_millis(900)),
            Some(SimDuration::ZERO)
        );
    }

    #[test]
    fn statistically_sound_over_many_requests() {
        // Paper: "Even though this assumption might not hold for every
        // request, it is statistically sound for a large number of
        // requests." Feed 100 parent arrivals with a constant 250 ms true
        // invoke delay and verify the mean inferred delay matches.
        let mut c = RequestCorrelator::new();
        let mut total = SimDuration::ZERO;
        for i in 0..100u64 {
            let t = SimTime::from_millis(i * 1000);
            c.observe_arrival("p", t);
            let d = c
                .observe_child_arrival("p", "c", t + SimDuration::from_millis(250))
                .unwrap();
            total += d;
        }
        assert_eq!(total / 100, SimDuration::from_millis(250));
    }
}
