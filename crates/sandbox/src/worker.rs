//! Worker lifecycle and timeline bookkeeping.
//!
//! A *worker* is one isolation sandbox hosting one function. The paper's
//! cost model (§2.4) charges a worker for everything it consumes **before**
//! it starts executing a request — CPU burnt during provisioning and idle
//! waiting, and memory held while idle — so each worker records the
//! timestamps needed to integrate those costs after the fact.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use xanadu_chain::IsolationLevel;
use xanadu_simcore::{SimDuration, SimTime};

/// Unique identifier of a worker within one platform run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct WorkerId(pub u64);

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Lifecycle state of a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerState {
    /// Sandbox is being created; not yet able to serve.
    Provisioning,
    /// Ready and idle, counting against keep-alive.
    Warm,
    /// Currently executing a request.
    Busy,
    /// Torn down (reaped by keep-alive, killed on prediction miss, or
    /// platform shutdown).
    Dead,
}

/// A live worker tracked by the [`WorkerPool`](crate::WorkerPool).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Worker {
    id: WorkerId,
    /// The hosted function's shared name
    /// ([`FunctionSpec::shared_name`](xanadu_chain::FunctionSpec::shared_name)).
    function: Arc<str>,
    isolation: IsolationLevel,
    memory_mb: u32,
    state: WorkerState,
    provision_started: SimTime,
    ready_at: SimTime,
    /// When the worker first started executing a request, if ever.
    first_exec_at: Option<SimTime>,
    /// End of the most recent execution (basis for keep-alive expiry).
    last_active: SimTime,
    /// Total busy time accumulated.
    busy_total: SimDuration,
    /// Number of requests served.
    served: u64,
}

impl Worker {
    /// Creates a worker in the `Provisioning` state. `function` is the
    /// hosted function's name: pass its shared `Arc<str>` to clone it, or
    /// a `&str`/`String` to copy it once.
    pub fn provisioning(
        id: WorkerId,
        function: impl Into<Arc<str>>,
        isolation: IsolationLevel,
        memory_mb: u32,
        now: SimTime,
        ready_at: SimTime,
    ) -> Self {
        Worker {
            id,
            function: function.into(),
            isolation,
            memory_mb,
            state: WorkerState::Provisioning,
            provision_started: now,
            ready_at,
            first_exec_at: None,
            last_active: ready_at,
            busy_total: SimDuration::ZERO,
            served: 0,
        }
    }

    /// Worker id.
    pub fn id(&self) -> WorkerId {
        self.id
    }

    /// The function this worker hosts.
    pub fn function(&self) -> &str {
        &self.function
    }

    /// The hosted function's shared name.
    pub fn shared_function(&self) -> &Arc<str> {
        &self.function
    }

    /// The worker's isolation level.
    pub fn isolation(&self) -> IsolationLevel {
        self.isolation
    }

    /// Memory allocated to the worker, in MB.
    pub fn memory_mb(&self) -> u32 {
        self.memory_mb
    }

    /// Current lifecycle state.
    pub fn state(&self) -> WorkerState {
        self.state
    }

    /// When the sandbox became (or will become) warm.
    pub fn ready_at(&self) -> SimTime {
        self.ready_at
    }

    /// End of the most recent execution (or readiness time if never used);
    /// the keep-alive clock measures idleness from here.
    pub fn last_active(&self) -> SimTime {
        self.last_active
    }

    /// Number of requests this worker has served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Marks the provisioning as finished. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if the worker is already dead.
    pub fn mark_ready(&mut self) {
        assert_ne!(self.state, WorkerState::Dead, "worker {} is dead", self.id);
        if self.state == WorkerState::Provisioning {
            self.state = WorkerState::Warm;
        }
    }

    /// Transitions to `Busy` at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the worker is not `Warm` or `now` precedes readiness.
    pub fn begin_exec(&mut self, now: SimTime) {
        assert_eq!(
            self.state,
            WorkerState::Warm,
            "worker {} must be warm to execute",
            self.id
        );
        assert!(
            now >= self.ready_at,
            "execution at {now} precedes readiness {}",
            self.ready_at
        );
        if self.first_exec_at.is_none() {
            self.first_exec_at = Some(now);
        }
        self.state = WorkerState::Busy;
    }

    /// Transitions back to `Warm` at `now` after an execution that lasted
    /// since `begin_exec`.
    ///
    /// # Panics
    ///
    /// Panics if the worker is not `Busy`.
    pub fn end_exec(&mut self, began: SimTime, now: SimTime) {
        assert_eq!(self.state, WorkerState::Busy, "worker {} not busy", self.id);
        self.state = WorkerState::Warm;
        self.busy_total += now.saturating_since(began);
        self.last_active = now;
        self.served += 1;
    }

    /// Re-targets an unused worker to host a different function.
    ///
    /// The paper's future work (§7) proposes reusing speculatively deployed
    /// workers for functions on the alternate branch after a prediction
    /// miss, "provided they are of similar architectures" — the caller is
    /// responsible for checking isolation/memory compatibility. `function`
    /// is taken as in [`provisioning`](Self::provisioning).
    ///
    /// # Errors
    ///
    /// Returns `Err` with the unchanged worker name if the worker has
    /// already served a request (its runtime state is function-specific) or
    /// is not warm.
    pub fn retarget(&mut self, function: impl Into<Arc<str>>) -> Result<(), String> {
        if self.served > 0 || self.first_exec_at.is_some() {
            return Err(format!(
                "worker {} already served {}",
                self.id, self.function
            ));
        }
        if self.state != WorkerState::Warm {
            return Err(format!("worker {} not warm", self.id));
        }
        self.function = function.into();
        Ok(())
    }

    /// Kills the worker at `now`, producing its final accounting record.
    pub fn kill(mut self, now: SimTime) -> WorkerRecord {
        self.state = WorkerState::Dead;
        WorkerRecord::from_worker(&self, now)
    }

    /// Kills the worker at `now` because its sandbox crashed (fault
    /// injection). Identical to [`kill`](Self::kill) except the record is
    /// flagged, so fault accounting can separate crashes from orderly
    /// keep-alive/eviction reclamation.
    pub fn crash(self, now: SimTime) -> WorkerRecord {
        let mut record = self.kill(now);
        record.crashed = true;
        record
    }

    /// Aborts an in-flight execution at `now` (the invocation timed out or
    /// failed): the worker returns to `Warm` and its busy time is charged,
    /// but the request does **not** count as served — the sandbox produced
    /// no result.
    ///
    /// # Panics
    ///
    /// Panics if the worker is not `Busy`.
    pub fn abort_exec(&mut self, began: SimTime, now: SimTime) {
        assert_eq!(self.state, WorkerState::Busy, "worker {} not busy", self.id);
        self.state = WorkerState::Warm;
        self.busy_total += now.saturating_since(began);
        self.last_active = now;
    }

    /// Builds an accounting record *as of* `now` without killing the worker
    /// (used at end-of-experiment snapshots).
    pub fn snapshot(&self, now: SimTime) -> WorkerRecord {
        WorkerRecord::from_worker(self, now)
    }
}

/// Immutable accounting record of one worker's lifetime, the input to the
/// paper's `C_R` cost computations (§2.4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerRecord {
    /// Worker id.
    pub id: WorkerId,
    /// Hosted function name, shared with the worker it records.
    pub function: Arc<str>,
    /// Isolation level.
    pub isolation: IsolationLevel,
    /// Memory allocation in MB.
    pub memory_mb: u32,
    /// Provisioning duration.
    pub provision_time: SimDuration,
    /// Idle time between readiness and first execution — the paper's
    /// "time before being put to use". Workers that never execute idle
    /// until death.
    pub prestart_idle: SimDuration,
    /// Total idle (non-busy) time after readiness over the whole lifetime.
    pub total_idle: SimDuration,
    /// Total busy time.
    pub busy_total: SimDuration,
    /// Requests served.
    pub served: u64,
    /// Whether the worker ever executed a request (false = wasted
    /// speculative deployment).
    pub ever_used: bool,
    /// Whether the worker died from an injected crash rather than orderly
    /// reclamation (keep-alive reaping, eviction, end-of-run teardown).
    #[serde(default)]
    pub crashed: bool,
}

impl WorkerRecord {
    fn from_worker(w: &Worker, now: SimTime) -> Self {
        let end = now.max(w.ready_at);
        let lifetime_after_ready = end.saturating_since(w.ready_at);
        let prestart_idle = match w.first_exec_at {
            Some(t) => t.saturating_since(w.ready_at),
            None => lifetime_after_ready,
        };
        WorkerRecord {
            id: w.id,
            function: w.function.clone(),
            isolation: w.isolation,
            memory_mb: w.memory_mb,
            provision_time: w.ready_at.saturating_since(w.provision_started),
            prestart_idle,
            total_idle: lifetime_after_ready.saturating_sub(w.busy_total),
            busy_total: w.busy_total,
            served: w.served,
            ever_used: w.first_exec_at.is_some(),
            crashed: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(now_ms: u64, ready_ms: u64) -> Worker {
        Worker::provisioning(
            WorkerId(1),
            "f",
            IsolationLevel::Container,
            512,
            SimTime::from_millis(now_ms),
            SimTime::from_millis(ready_ms),
        )
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut w = mk(0, 3000);
        assert_eq!(w.state(), WorkerState::Provisioning);
        w.mark_ready();
        assert_eq!(w.state(), WorkerState::Warm);
        let t0 = SimTime::from_millis(3500);
        w.begin_exec(t0);
        assert_eq!(w.state(), WorkerState::Busy);
        let t1 = SimTime::from_millis(4000);
        w.end_exec(t0, t1);
        assert_eq!(w.state(), WorkerState::Warm);
        assert_eq!(w.served(), 1);
        assert_eq!(w.last_active(), t1);

        let rec = w.kill(SimTime::from_millis(5000));
        assert_eq!(rec.provision_time, SimDuration::from_millis(3000));
        assert_eq!(rec.prestart_idle, SimDuration::from_millis(500));
        assert_eq!(rec.busy_total, SimDuration::from_millis(500));
        // ready at 3000, dead at 5000 → 2000 after-ready, 500 busy.
        assert_eq!(rec.total_idle, SimDuration::from_millis(1500));
        assert!(rec.ever_used);
    }

    #[test]
    fn unused_worker_idles_until_death() {
        let mut w = mk(0, 1000);
        w.mark_ready();
        let rec = w.kill(SimTime::from_millis(9000));
        assert!(!rec.ever_used);
        assert_eq!(rec.prestart_idle, SimDuration::from_millis(8000));
        assert_eq!(rec.total_idle, SimDuration::from_millis(8000));
        assert_eq!(rec.served, 0);
    }

    #[test]
    fn killed_while_provisioning_has_zero_idle() {
        let w = mk(0, 3000);
        let rec = w.kill(SimTime::from_millis(1000));
        // Killed before ready: no after-ready lifetime.
        assert_eq!(rec.total_idle, SimDuration::ZERO);
        assert_eq!(rec.prestart_idle, SimDuration::ZERO);
        assert_eq!(rec.provision_time, SimDuration::from_millis(3000));
        assert!(!rec.ever_used);
    }

    #[test]
    fn first_exec_recorded_once() {
        let mut w = mk(0, 100);
        w.mark_ready();
        w.begin_exec(SimTime::from_millis(200));
        w.end_exec(SimTime::from_millis(200), SimTime::from_millis(300));
        w.begin_exec(SimTime::from_millis(400));
        w.end_exec(SimTime::from_millis(400), SimTime::from_millis(600));
        let rec = w.snapshot(SimTime::from_millis(600));
        assert_eq!(rec.prestart_idle, SimDuration::from_millis(100));
        assert_eq!(rec.busy_total, SimDuration::from_millis(300));
        assert_eq!(rec.served, 2);
    }

    #[test]
    fn mark_ready_is_idempotent() {
        let mut w = mk(0, 100);
        w.mark_ready();
        w.mark_ready();
        assert_eq!(w.state(), WorkerState::Warm);
    }

    #[test]
    #[should_panic(expected = "must be warm")]
    fn begin_exec_requires_warm() {
        let mut w = mk(0, 100);
        w.begin_exec(SimTime::from_millis(200));
    }

    #[test]
    #[should_panic(expected = "precedes readiness")]
    fn begin_exec_before_ready_panics() {
        let mut w = mk(0, 1000);
        w.mark_ready();
        w.begin_exec(SimTime::from_millis(10));
    }

    #[test]
    fn display_formats() {
        assert_eq!(WorkerId(7).to_string(), "w7");
    }

    #[test]
    fn crash_flags_record() {
        let mut w = mk(0, 100);
        w.mark_ready();
        let rec = w.crash(SimTime::from_millis(500));
        assert!(rec.crashed);
        assert!(!rec.ever_used);
        // Orderly kill is unflagged.
        let rec = mk(0, 100).kill(SimTime::from_millis(500));
        assert!(!rec.crashed);
    }

    #[test]
    fn abort_exec_returns_worker_warm_without_serving() {
        let mut w = mk(0, 100);
        w.mark_ready();
        let t0 = SimTime::from_millis(200);
        w.begin_exec(t0);
        let t1 = SimTime::from_millis(900);
        w.abort_exec(t0, t1);
        assert_eq!(w.state(), WorkerState::Warm);
        assert_eq!(w.served(), 0);
        assert_eq!(w.last_active(), t1);
        // The aborted attempt's busy time is still charged.
        let rec = w.snapshot(t1);
        assert_eq!(rec.busy_total, SimDuration::from_millis(700));
        // The worker stays usable: a later execution succeeds normally.
        w.begin_exec(SimTime::from_millis(1000));
        w.end_exec(SimTime::from_millis(1000), SimTime::from_millis(1100));
        assert_eq!(w.served(), 1);
    }

    #[test]
    #[should_panic(expected = "not busy")]
    fn abort_exec_requires_busy() {
        let mut w = mk(0, 100);
        w.mark_ready();
        w.abort_exec(SimTime::from_millis(200), SimTime::from_millis(300));
    }

    #[test]
    fn retarget_unused_warm_worker() {
        let mut w = mk(0, 100);
        w.mark_ready();
        assert!(w.retarget("other").is_ok());
        assert_eq!(w.function(), "other");
    }

    #[test]
    fn retarget_rejects_used_or_unready_workers() {
        // Still provisioning: not warm.
        let mut w = mk(0, 100);
        assert!(w.retarget("other").is_err());
        // Already served: runtime state is function-specific.
        w.mark_ready();
        w.begin_exec(SimTime::from_millis(200));
        w.end_exec(SimTime::from_millis(200), SimTime::from_millis(300));
        let err = w.retarget("other").unwrap_err();
        assert!(err.contains("already served"), "{err}");
        assert_eq!(w.function(), "f");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn accounting_identities_hold(
            provision_ms in 1u64..10_000,
            idle_gaps in proptest::collection::vec(1u64..5_000, 0..6),
            exec_ms in 1u64..5_000,
        ) {
            // Build a worker that executes after each idle gap; check the
            // record's identities: prestart idle is the first gap, total
            // idle + busy equals the after-ready lifetime.
            let ready = SimTime::from_millis(provision_ms);
            let mut w = Worker::provisioning(
                WorkerId(0),
                "f",
                IsolationLevel::Process,
                256,
                SimTime::ZERO,
                ready,
            );
            w.mark_ready();
            let mut t = ready;
            for &gap in &idle_gaps {
                t += SimDuration::from_millis(gap);
                w.begin_exec(t);
                let end = t + SimDuration::from_millis(exec_ms);
                w.end_exec(t, end);
                t = end;
            }
            let death = t + SimDuration::from_millis(50);
            let record = w.kill(death);

            prop_assert_eq!(record.provision_time, SimDuration::from_millis(provision_ms));
            prop_assert_eq!(record.served, idle_gaps.len() as u64);
            prop_assert_eq!(record.ever_used, !idle_gaps.is_empty());
            let expected_prestart = match idle_gaps.first() {
                Some(&g) => SimDuration::from_millis(g),
                None => death.saturating_since(ready),
            };
            prop_assert_eq!(record.prestart_idle, expected_prestart);
            let lifetime = death.saturating_since(ready);
            prop_assert_eq!(record.total_idle + record.busy_total, lifetime);
        }
    }
}
