//! Lifecycle events for hand-built test traces.
//!
//! Each function builds the [`BusEvent`] a running platform would emit
//! for one lifecycle moment of request 0 on worker 0, and [`trace`] folds
//! one request's events into the trace the platform would record. A
//! trace is one request's, so neither id matters to what it records, and
//! the payload fields the fold does not read (cold-start cost, queue
//! wait, exec time, backoff) are zero.

use crate::events::BusEvent;
use crate::timeline::{RequestTracker, Trace};
use xanadu_simcore::SimTime;

const REQUEST: u64 = 0;
const WORKER: u64 = 0;

/// The trace the platform records from `events`, one request's
/// lifecycle from its trigger to its completion.
pub(crate) fn trace(events: Vec<(SimTime, BusEvent)>) -> Trace {
    let mut tracker = RequestTracker::default();
    events
        .iter()
        .find_map(|(at, event)| tracker.on_event(*at, event))
        .expect("the events complete their request")
        .1
}

pub(crate) fn triggered() -> BusEvent {
    BusEvent::RequestTriggered {
        request: REQUEST,
        workflow: "wf".into(),
    }
}

pub(crate) fn plan(planned: u64) -> BusEvent {
    BusEvent::PlanComputed {
        request: REQUEST,
        workflow: "wf".into(),
        planned,
    }
}

/// A provision of `function` whose sandbox is warm `ready_in_ms` after
/// the event.
pub(crate) fn deploy(function: &str, on_demand: bool, ready_in_ms: f64) -> BusEvent {
    BusEvent::WorkerProvisioned {
        worker: WORKER,
        request: REQUEST,
        function: function.into(),
        cold_start_ms: 0.0,
        ready_in_ms,
        on_demand,
    }
}

pub(crate) fn invoked(function: &str) -> BusEvent {
    BusEvent::FunctionInvoked {
        request: REQUEST,
        function: function.into(),
        node: 0,
    }
}

pub(crate) fn exec_started(function: &str, warm: bool) -> BusEvent {
    BusEvent::ExecStarted {
        request: REQUEST,
        function: function.into(),
        worker: WORKER,
        warm,
        queue_wait_ms: 0.0,
    }
}

pub(crate) fn exec_ended(function: &str) -> BusEvent {
    BusEvent::ExecEnded {
        request: REQUEST,
        function: function.into(),
        worker: WORKER,
        exec_ms: 0.0,
    }
}

pub(crate) fn miss(function: &str) -> BusEvent {
    BusEvent::PredictionMiss {
        request: REQUEST,
        function: function.into(),
        node: 0,
    }
}

pub(crate) fn crashed(function: &str) -> BusEvent {
    BusEvent::WorkerCrashed {
        worker: WORKER,
        function: function.into(),
        request: Some(REQUEST),
    }
}

pub(crate) fn timed_out(function: &str, attempt: u64) -> BusEvent {
    BusEvent::InvokeTimeout {
        request: REQUEST,
        function: function.into(),
        attempt,
    }
}

pub(crate) fn retried(function: &str, attempt: u64) -> BusEvent {
    BusEvent::InvokeRetried {
        request: REQUEST,
        function: function.into(),
        attempt,
        backoff_ms: 0.0,
    }
}

pub(crate) fn completed() -> BusEvent {
    BusEvent::RequestCompleted {
        request: REQUEST,
        workflow: "wf".into(),
        overhead_ms: 0.0,
        end_to_end_ms: 0.0,
    }
}
