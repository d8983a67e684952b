//! Warm-worker pools with keep-alive reclamation.
//!
//! FaaS platforms keep finished workers warm for a platform-specific
//! interval so subsequent triggers can reuse them (§1). The pool implements
//! that policy plus two refinements the paper studies:
//!
//! * **keep-alive** — workers idle past the keep-alive window are reaped
//!   (ASF ≈ 10 min, ADF ≈ 20 min in §2.3; Xanadu's future work proposes
//!   seconds, §7).
//! * **warm-pool cap** — OpenWhisk "keeps a limited number of containers
//!   warm, even for consecutive requests, which explains the sudden
//!   increase in cold start latency for chain length 5" (§2.3). The cap
//!   bounds the number of simultaneously warm (idle) workers; exceeding it
//!   evicts the least-recently-used warm worker.

use crate::worker::{Worker, WorkerId, WorkerRecord, WorkerState};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, HashSet};
use xanadu_simcore::{SimDuration, SimTime};

/// Configuration of a [`WorkerPool`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolConfig {
    /// How long an idle warm worker is retained before being reaped.
    pub keep_alive: SimDuration,
    /// Maximum number of simultaneously *warm idle* workers, or `None` for
    /// unlimited. Busy and provisioning workers do not count.
    pub max_warm: Option<usize>,
}

impl Default for PoolConfig {
    /// Ten minutes keep-alive (the ASF reclamation interval measured in
    /// §2.3) and no warm cap.
    fn default() -> Self {
        PoolConfig {
            keep_alive: SimDuration::from_mins(10),
            max_warm: None,
        }
    }
}

/// Per-function buckets of live worker ids, one per lifecycle state.
///
/// `BTreeSet` keeps bucket iteration in ascending id order, so every
/// selection made over a bucket is deterministic regardless of hash-map
/// seeding.
#[derive(Debug, Clone, Default)]
struct FnIndex {
    warm: BTreeSet<WorkerId>,
    provisioning: BTreeSet<WorkerId>,
    busy: BTreeSet<WorkerId>,
}

impl FnIndex {
    fn bucket(&mut self, state: WorkerState) -> &mut BTreeSet<WorkerId> {
        match state {
            WorkerState::Provisioning => &mut self.provisioning,
            WorkerState::Warm => &mut self.warm,
            WorkerState::Busy => &mut self.busy,
            WorkerState::Dead => unreachable!("dead workers are never indexed"),
        }
    }

    fn is_empty(&self) -> bool {
        self.warm.is_empty() && self.provisioning.is_empty() && self.busy.is_empty()
    }
}

/// Tracks every worker of a platform run: live workers by state, warm
/// workers indexed by function for reuse, and the accounting records of
/// dead workers.
///
/// The pool maintains two secondary indexes so the dispatch hot path never
/// scans the full worker map: per-function, per-state id buckets
/// (`FnIndex`) and a global LRU order of warm workers keyed by
/// `(last_active, id)`. Both are kept consistent by routing every state
/// transition through the pool ([`mark_ready`](Self::mark_ready),
/// [`begin_exec`](Self::begin_exec), [`end_exec`](Self::end_exec),
/// [`retarget`](Self::retarget)) — which is why the pool hands out only
/// shared borrows of its workers.
#[derive(Debug, Clone, Default)]
pub struct WorkerPool {
    config: PoolConfig,
    next_id: u64,
    live: HashMap<WorkerId, Worker>,
    dead: Vec<WorkerRecord>,
    by_function: HashMap<String, FnIndex>,
    /// Warm workers ordered by `(last_active, id)`: LRU victims and
    /// keep-alive expiry scans read an ascending prefix.
    warm_by_activity: BTreeSet<(SimTime, WorkerId)>,
}

impl WorkerPool {
    /// Creates a pool with the given configuration.
    pub fn new(config: PoolConfig) -> Self {
        WorkerPool {
            config,
            next_id: 0,
            live: HashMap::new(),
            dead: Vec::new(),
            by_function: HashMap::new(),
            warm_by_activity: BTreeSet::new(),
        }
    }

    /// The pool's configuration.
    pub fn config(&self) -> PoolConfig {
        self.config
    }

    /// Allocates a fresh worker id.
    pub fn next_worker_id(&mut self) -> WorkerId {
        let id = WorkerId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Registers a new worker, indexing it under its current state (tests
    /// and pre-warmed pools may insert already-warm workers).
    ///
    /// # Panics
    ///
    /// Panics if a worker with the same id is already tracked, or the
    /// worker is dead.
    pub fn insert(&mut self, worker: Worker) {
        let id = worker.id();
        let state = worker.state();
        assert_ne!(state, WorkerState::Dead, "cannot insert a dead worker");
        let function = worker.function().to_string();
        let last_active = worker.last_active();
        let prev = self.live.insert(id, worker);
        assert!(prev.is_none(), "worker id reused");
        self.by_function
            .entry(function)
            .or_default()
            .bucket(state)
            .insert(id);
        if state == WorkerState::Warm {
            self.warm_by_activity.insert((last_active, id));
        }
    }

    /// Borrow a live worker.
    pub fn get(&self, id: WorkerId) -> Option<&Worker> {
        self.live.get(&id)
    }

    /// Marks a provisioning worker ready (idempotent on already-warm
    /// workers), returning whether the id was live.
    pub fn mark_ready(&mut self, id: WorkerId) -> bool {
        let Some(w) = self.live.get_mut(&id) else {
            return false;
        };
        let was_provisioning = w.state() == WorkerState::Provisioning;
        w.mark_ready();
        if was_provisioning {
            let last_active = w.last_active();
            let fx = self
                .by_function
                .get_mut(w.function())
                .expect("live worker is indexed");
            fx.provisioning.remove(&id);
            fx.warm.insert(id);
            self.warm_by_activity.insert((last_active, id));
        }
        true
    }

    /// Transitions a warm worker to `Busy` at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the id is not live or the worker is not warm.
    pub fn begin_exec(&mut self, id: WorkerId, now: SimTime) {
        let w = self.live.get_mut(&id).expect("executing worker is live");
        let before = w.last_active();
        w.begin_exec(now);
        let fx = self
            .by_function
            .get_mut(w.function())
            .expect("live worker is indexed");
        fx.warm.remove(&id);
        fx.busy.insert(id);
        self.warm_by_activity.remove(&(before, id));
    }

    /// Transitions a busy worker back to `Warm` at `now` after an
    /// execution that began at `began`.
    ///
    /// # Panics
    ///
    /// Panics if the id is not live or the worker is not busy.
    pub fn end_exec(&mut self, id: WorkerId, began: SimTime, now: SimTime) {
        let w = self.live.get_mut(&id).expect("worker live");
        w.end_exec(began, now);
        let fx = self
            .by_function
            .get_mut(w.function())
            .expect("live worker is indexed");
        fx.busy.remove(&id);
        fx.warm.insert(id);
        self.warm_by_activity.insert((now, id));
    }

    /// Re-targets an unused warm worker to `function` (see
    /// [`Worker::retarget`] for the eligibility rules), moving it between
    /// function buckets on success.
    ///
    /// # Errors
    ///
    /// Propagates [`Worker::retarget`] errors; unknown ids error too.
    pub fn retarget(&mut self, id: WorkerId, function: &str) -> Result<(), String> {
        let w = self
            .live
            .get_mut(&id)
            .ok_or_else(|| format!("worker {id} not live"))?;
        let old = w.function().to_string();
        w.retarget(function)?;
        if old != function {
            if let Some(fx) = self.by_function.get_mut(&old) {
                fx.warm.remove(&id);
                if fx.is_empty() {
                    self.by_function.remove(&old);
                }
            }
            self.by_function
                .entry(function.to_string())
                .or_default()
                .warm
                .insert(id);
            // `warm_by_activity` is keyed by (last_active, id), neither of
            // which changes on retarget.
        }
        Ok(())
    }

    /// Finds a warm idle worker for `function` whose keep-alive has not
    /// expired at `now`, preferring the most recently active (best cache
    /// locality, and matches typical platform LIFO reuse). Returns its id
    /// without changing its state.
    pub fn find_warm(&self, function: &str, now: SimTime) -> Option<WorkerId> {
        self.warm_workers(function)
            .filter(|w| {
                now >= w.ready_at()
                    && now.saturating_since(w.last_active()) <= self.config.keep_alive
            })
            .max_by_key(|w| (w.last_active(), w.id()))
            .map(Worker::id)
    }

    /// Iterates the warm workers of `function` (ascending id order).
    pub fn warm_workers(&self, function: &str) -> impl Iterator<Item = &Worker> {
        self.by_function
            .get(function)
            .into_iter()
            .flat_map(|fx| fx.warm.iter())
            .map(move |id| &self.live[id])
    }

    /// Iterates the provisioning workers of `function` (ascending id
    /// order).
    pub fn provisioning_workers(&self, function: &str) -> impl Iterator<Item = &Worker> {
        self.by_function
            .get(function)
            .into_iter()
            .flat_map(|fx| fx.provisioning.iter())
            .map(move |id| &self.live[id])
    }

    /// Number of warm workers of `function` (O(1)).
    pub fn warm_count(&self, function: &str) -> usize {
        self.by_function.get(function).map_or(0, |fx| fx.warm.len())
    }

    /// Number of provisioning workers of `function` (O(1)).
    pub fn provisioning_count(&self, function: &str) -> usize {
        self.by_function
            .get(function)
            .map_or(0, |fx| fx.provisioning.len())
    }

    /// Iterates all warm workers, least recently active first (ties by
    /// ascending id): LRU eviction and keep-alive expiry order.
    pub fn warm_lru(&self) -> impl Iterator<Item = &Worker> {
        self.warm_by_activity.iter().map(|(_, id)| &self.live[id])
    }

    /// Kills a live worker at `now`, moving its record to the dead list.
    /// Returns the record, or `None` if the id is unknown.
    pub fn kill(&mut self, id: WorkerId, now: SimTime) -> Option<WorkerRecord> {
        let worker = self.live.remove(&id)?;
        self.unindex(&worker);
        let record = worker.kill(now);
        self.dead.push(record.clone());
        Some(record)
    }

    /// Kills a live worker at `now` because its sandbox crashed, repairing
    /// both secondary indexes exactly as [`kill`](Self::kill) does; the
    /// record is flagged as crashed. A crash can hit a worker in any live
    /// state — provisioning (startup failure), warm (mid-warm loss) or busy
    /// (mid-invocation loss). Returns the record, or `None` if the id is
    /// unknown (e.g. the worker was already reclaimed).
    pub fn crash(&mut self, id: WorkerId, now: SimTime) -> Option<WorkerRecord> {
        let worker = self.live.remove(&id)?;
        self.unindex(&worker);
        let record = worker.crash(now);
        self.dead.push(record.clone());
        Some(record)
    }

    /// Aborts a busy worker's in-flight execution at `now` (timeout / fault
    /// recovery): the worker returns to `Warm` without counting the request
    /// as served. See [`Worker::abort_exec`].
    ///
    /// # Panics
    ///
    /// Panics if the id is not live or the worker is not busy.
    pub fn abort_exec(&mut self, id: WorkerId, began: SimTime, now: SimTime) {
        let w = self.live.get_mut(&id).expect("worker live");
        w.abort_exec(began, now);
        let fx = self
            .by_function
            .get_mut(w.function())
            .expect("live worker is indexed");
        fx.busy.remove(&id);
        fx.warm.insert(id);
        self.warm_by_activity.insert((now, id));
    }

    /// Verifies that the secondary indexes agree exactly with the live
    /// worker map: every live worker sits in precisely the bucket of its
    /// state, warm workers (and nothing else) appear in the LRU order under
    /// their current `last_active`, and no index entry dangles. Returns a
    /// description of the first inconsistency found.
    ///
    /// This is the oracle behind the pool's property tests; the platform's
    /// chaos suite relies on every transition — including crashes — keeping
    /// it green.
    pub fn check_index_consistency(&self) -> Result<(), String> {
        let mut indexed = 0usize;
        let mut warm_live = 0usize;
        for (id, w) in &self.live {
            let fx = self
                .by_function
                .get(w.function())
                .ok_or_else(|| format!("worker {id} has no FnIndex for `{}`", w.function()))?;
            let placement = (
                fx.provisioning.contains(id),
                fx.warm.contains(id),
                fx.busy.contains(id),
            );
            let expected = match w.state() {
                WorkerState::Provisioning => (true, false, false),
                WorkerState::Warm => (false, true, false),
                WorkerState::Busy => (false, false, true),
                WorkerState::Dead => return Err(format!("worker {id} is live but dead")),
            };
            if placement != expected {
                return Err(format!(
                    "worker {id} in state {:?} has bucket placement {placement:?}",
                    w.state()
                ));
            }
            let in_lru = self.warm_by_activity.contains(&(w.last_active(), *id));
            if (w.state() == WorkerState::Warm) != in_lru {
                return Err(format!(
                    "worker {id} state {:?} vs LRU membership {in_lru}",
                    w.state()
                ));
            }
            if w.state() == WorkerState::Warm {
                warm_live += 1;
            }
        }
        for (function, fx) in &self.by_function {
            if fx.is_empty() {
                return Err(format!("empty FnIndex retained for `{function}`"));
            }
            for id in fx
                .warm
                .iter()
                .chain(fx.provisioning.iter())
                .chain(fx.busy.iter())
            {
                indexed += 1;
                match self.live.get(id) {
                    None => return Err(format!("FnIndex `{function}` references dead {id}")),
                    Some(w) if w.function() != function => {
                        return Err(format!(
                            "FnIndex `{function}` holds {id} hosting `{}`",
                            w.function()
                        ))
                    }
                    Some(_) => {}
                }
            }
        }
        if indexed != self.live.len() {
            return Err(format!(
                "{indexed} indexed ids vs {} live workers",
                self.live.len()
            ));
        }
        if self.warm_by_activity.len() != warm_live {
            return Err(format!(
                "{} LRU entries vs {warm_live} warm workers",
                self.warm_by_activity.len()
            ));
        }
        Ok(())
    }

    /// Drops a (just removed, still non-dead) worker from both secondary
    /// indexes.
    fn unindex(&mut self, worker: &Worker) {
        let state = worker.state();
        if let Some(fx) = self.by_function.get_mut(worker.function()) {
            fx.bucket(state).remove(&worker.id());
            if fx.is_empty() {
                self.by_function.remove(worker.function());
            }
        }
        if state == WorkerState::Warm {
            self.warm_by_activity
                .remove(&(worker.last_active(), worker.id()));
        }
    }

    /// Enforces the warm-pool cap at `now` by evicting least-recently-
    /// active warm workers until at most `max_warm` remain. Workers in
    /// `exempt` (e.g. claimed for an in-flight dispatch) are never
    /// evicted. Returns the evicted ids (empty when uncapped or under the
    /// cap).
    pub fn enforce_warm_cap(&mut self, now: SimTime, exempt: &HashSet<WorkerId>) -> Vec<WorkerId> {
        let Some(cap) = self.config.max_warm else {
            return Vec::new();
        };
        // LRU order already sorts by (last_active, id); only workers whose
        // readiness has arrived count toward the cap.
        let warm: Vec<WorkerId> = self
            .warm_by_activity
            .iter()
            .filter(|&&(_, id)| now >= self.live[&id].ready_at())
            .map(|&(_, id)| id)
            .collect();
        if warm.len() <= cap {
            return Vec::new();
        }
        let over = warm.len() - cap;
        // Exempt workers count toward the cap but cannot be evicted.
        let evict: Vec<WorkerId> = warm
            .into_iter()
            .filter(|id| !exempt.contains(id))
            .take(over)
            .collect();
        for &id in &evict {
            self.kill(id, now);
        }
        evict
    }

    /// Iterates over live workers.
    pub fn live_workers(&self) -> impl Iterator<Item = &Worker> {
        self.live.values()
    }

    /// Number of live workers (any state).
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Moves out the records of workers that died since the last call,
    /// in death order. [`drain`](Self::drain) returns only the records
    /// not moved out here.
    pub fn drain_dead(&mut self) -> std::vec::Drain<'_, WorkerRecord> {
        self.dead.drain(..)
    }

    /// Kills everything at `now` and returns the complete set of worker
    /// records (dead + just-killed), consuming the pool. Called at the end
    /// of an experiment to finalize accounting.
    pub fn drain(mut self, now: SimTime) -> Vec<WorkerRecord> {
        let ids: Vec<WorkerId> = self.live.keys().copied().collect();
        for id in ids {
            self.kill(id, now);
        }
        self.dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xanadu_chain::IsolationLevel;

    fn add_worker(pool: &mut WorkerPool, function: &str, ready_ms: u64) -> WorkerId {
        let id = pool.next_worker_id();
        let mut w = Worker::provisioning(
            id,
            function,
            IsolationLevel::Container,
            512,
            SimTime::ZERO,
            SimTime::from_millis(ready_ms),
        );
        w.mark_ready();
        pool.insert(w);
        id
    }

    #[test]
    fn find_warm_prefers_most_recently_active() {
        let mut pool = WorkerPool::new(PoolConfig::default());
        let a = add_worker(&mut pool, "f", 0);
        let b = add_worker(&mut pool, "f", 0);
        // Make b more recently active.
        let t0 = SimTime::from_millis(100);
        let t1 = SimTime::from_millis(200);
        pool.begin_exec(b, t0);
        pool.end_exec(b, t0, t1);
        assert_eq!(pool.find_warm("f", SimTime::from_millis(300)), Some(b));
        // Busy workers are not offered.
        pool.begin_exec(b, SimTime::from_millis(400));
        assert_eq!(pool.find_warm("f", SimTime::from_millis(500)), Some(a));
    }

    #[test]
    fn find_warm_respects_function_and_keepalive() {
        let mut pool = WorkerPool::new(PoolConfig {
            keep_alive: SimDuration::from_secs(10),
            max_warm: None,
        });
        let _g = add_worker(&mut pool, "g", 0);
        assert_eq!(pool.find_warm("f", SimTime::from_secs(1)), None);
        let f = add_worker(&mut pool, "f", 0);
        assert_eq!(pool.find_warm("f", SimTime::from_secs(5)), Some(f));
        // Past keep-alive the worker is stale (even if not yet reaped).
        assert_eq!(pool.find_warm("f", SimTime::from_secs(11)), None);
    }

    #[test]
    fn find_warm_ignores_not_yet_ready_workers() {
        let mut pool = WorkerPool::new(PoolConfig::default());
        let id = pool.next_worker_id();
        let w = Worker::provisioning(
            id,
            "f",
            IsolationLevel::Container,
            512,
            SimTime::ZERO,
            SimTime::from_secs(3),
        );
        pool.insert(w);
        assert_eq!(pool.find_warm("f", SimTime::from_secs(1)), None);
    }

    #[test]
    fn warm_cap_evicts_lru() {
        let mut pool = WorkerPool::new(PoolConfig {
            keep_alive: SimDuration::from_mins(10),
            max_warm: Some(2),
        });
        let a = add_worker(&mut pool, "f0", 0);
        let b = add_worker(&mut pool, "f1", 0);
        let c = add_worker(&mut pool, "f2", 0);
        // freshness: a oldest, then b, then c
        for (i, id) in [(1u64, b), (2, c)] {
            let t0 = SimTime::from_secs(i * 10);
            let t1 = SimTime::from_secs(i * 10 + 1);
            pool.begin_exec(id, t0);
            pool.end_exec(id, t0, t1);
        }
        let evicted = pool.enforce_warm_cap(SimTime::from_secs(100), &HashSet::new());
        assert_eq!(evicted, vec![a]);
        assert_eq!(pool.live_count(), 2);
    }

    #[test]
    fn warm_cap_ignores_busy_workers() {
        let mut pool = WorkerPool::new(PoolConfig {
            keep_alive: SimDuration::from_mins(10),
            max_warm: Some(1),
        });
        let a = add_worker(&mut pool, "f0", 0);
        let _b = add_worker(&mut pool, "f1", 0);
        pool.begin_exec(a, SimTime::from_secs(1));
        // a is busy; only b is warm → under cap, nothing evicted.
        assert!(pool
            .enforce_warm_cap(SimTime::from_secs(2), &HashSet::new())
            .is_empty());
    }

    #[test]
    fn warm_cap_respects_exemptions() {
        let mut pool = WorkerPool::new(PoolConfig {
            keep_alive: SimDuration::from_mins(10),
            max_warm: Some(1),
        });
        let a = add_worker(&mut pool, "f0", 0);
        let b = add_worker(&mut pool, "f1", 0);
        // a is the LRU victim, but it is exempt (claimed): b goes instead.
        let exempt: HashSet<WorkerId> = [a].into_iter().collect();
        let evicted = pool.enforce_warm_cap(SimTime::from_secs(100), &exempt);
        assert_eq!(evicted, vec![b]);
        assert!(pool.get(a).is_some());
    }

    #[test]
    fn uncapped_pool_never_evicts() {
        let mut pool = WorkerPool::new(PoolConfig::default());
        for i in 0..10 {
            add_worker(&mut pool, &format!("f{i}"), 0);
        }
        assert!(pool
            .enforce_warm_cap(SimTime::from_secs(1), &HashSet::new())
            .is_empty());
        assert_eq!(pool.live_count(), 10);
    }

    #[test]
    fn drain_accounts_for_everything() {
        let mut pool = WorkerPool::new(PoolConfig::default());
        add_worker(&mut pool, "f", 0);
        let b = add_worker(&mut pool, "g", 0);
        pool.kill(b, SimTime::from_secs(1));
        let records = pool.drain(SimTime::from_secs(2));
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn kill_unknown_worker_returns_none() {
        let mut pool = WorkerPool::new(PoolConfig::default());
        assert!(pool.kill(WorkerId(99), SimTime::ZERO).is_none());
    }

    #[test]
    fn ids_are_unique() {
        let mut pool = WorkerPool::new(PoolConfig::default());
        let a = pool.next_worker_id();
        let b = pool.next_worker_id();
        assert_ne!(a, b);
    }

    /// Inserts a still-provisioning worker (no `mark_ready`).
    fn add_provisioning(pool: &mut WorkerPool, function: &str, ready_ms: u64) -> WorkerId {
        let id = pool.next_worker_id();
        pool.insert(Worker::provisioning(
            id,
            function,
            IsolationLevel::Container,
            512,
            SimTime::ZERO,
            SimTime::from_millis(ready_ms),
        ));
        id
    }

    #[test]
    fn index_tracks_state_transitions() {
        let mut pool = WorkerPool::new(PoolConfig::default());
        let a = add_provisioning(&mut pool, "f", 100);
        assert_eq!(
            pool.provisioning_workers("f")
                .map(Worker::id)
                .collect::<Vec<_>>(),
            vec![a]
        );
        assert_eq!(pool.warm_count("f"), 0);

        assert!(pool.mark_ready(a));
        assert_eq!(pool.provisioning_count("f"), 0);
        assert_eq!(
            pool.warm_workers("f").map(Worker::id).collect::<Vec<_>>(),
            vec![a]
        );
        assert_eq!(pool.warm_lru().map(Worker::id).collect::<Vec<_>>(), vec![a]);
        // Idempotent on already-warm workers; unknown ids report false.
        assert!(pool.mark_ready(a));
        assert!(!pool.mark_ready(WorkerId(99)));

        let t0 = SimTime::from_millis(200);
        pool.begin_exec(a, t0);
        assert_eq!(pool.warm_count("f"), 0);
        assert_eq!(pool.warm_lru().count(), 0);

        pool.end_exec(a, t0, SimTime::from_millis(300));
        assert_eq!(pool.warm_count("f"), 1);
        assert_eq!(
            pool.warm_lru().next().map(Worker::last_active),
            Some(SimTime::from_millis(300))
        );

        pool.kill(a, SimTime::from_millis(400));
        assert_eq!(pool.warm_count("f"), 0);
        assert_eq!(pool.warm_lru().count(), 0);
        assert_eq!(pool.live_count(), 0);
    }

    #[test]
    fn warm_lru_orders_least_recently_active_first() {
        let mut pool = WorkerPool::new(PoolConfig::default());
        let a = add_worker(&mut pool, "f", 0);
        let b = add_worker(&mut pool, "g", 0);
        let c = add_worker(&mut pool, "f", 0);
        let t0 = SimTime::from_millis(100);
        pool.begin_exec(a, t0);
        pool.end_exec(a, t0, SimTime::from_millis(200));
        // b and c idle since ready (last_active 0, tie broken by id), then a.
        assert_eq!(
            pool.warm_lru().map(Worker::id).collect::<Vec<_>>(),
            vec![b, c, a]
        );
    }

    #[test]
    fn crash_repairs_indexes_in_every_state() {
        let mut pool = WorkerPool::new(PoolConfig::default());
        // Crash while provisioning.
        let a = add_provisioning(&mut pool, "f", 500);
        pool.crash(a, SimTime::from_millis(100));
        assert_eq!(pool.provisioning_count("f"), 0);
        assert!(pool.check_index_consistency().is_ok());
        // Crash while warm: FnIndex and warm-LRU must both forget it.
        let b = add_worker(&mut pool, "f", 0);
        pool.crash(b, SimTime::from_millis(200));
        assert_eq!(pool.warm_count("f"), 0);
        assert_eq!(pool.warm_lru().count(), 0);
        assert!(pool.check_index_consistency().is_ok());
        // Crash while busy.
        let c = add_worker(&mut pool, "f", 0);
        pool.begin_exec(c, SimTime::from_millis(300));
        pool.crash(c, SimTime::from_millis(400));
        assert_eq!(pool.live_count(), 0);
        assert!(pool.check_index_consistency().is_ok());
        // All three records are flagged.
        assert!(pool.drain_dead().all(|r| r.crashed));
        // Unknown ids are a no-op.
        assert!(pool.crash(WorkerId(99), SimTime::ZERO).is_none());
    }

    #[test]
    fn abort_exec_reindexes_as_warm() {
        let mut pool = WorkerPool::new(PoolConfig::default());
        let a = add_worker(&mut pool, "f", 0);
        let t0 = SimTime::from_millis(100);
        pool.begin_exec(a, t0);
        pool.abort_exec(a, t0, SimTime::from_millis(600));
        assert_eq!(pool.warm_count("f"), 1);
        assert_eq!(
            pool.warm_lru().next().map(Worker::last_active),
            Some(SimTime::from_millis(600))
        );
        assert_eq!(pool.get(a).unwrap().served(), 0);
        assert!(pool.check_index_consistency().is_ok());
        // The aborted worker is immediately reusable.
        assert_eq!(pool.find_warm("f", SimTime::from_millis(700)), Some(a));
    }

    #[test]
    fn retarget_moves_between_function_buckets() {
        let mut pool = WorkerPool::new(PoolConfig::default());
        let a = add_worker(&mut pool, "f", 0);
        assert!(pool.retarget(a, "g").is_ok());
        assert_eq!(pool.warm_count("f"), 0);
        assert_eq!(
            pool.warm_workers("g").map(Worker::id).collect::<Vec<_>>(),
            vec![a]
        );
        assert_eq!(pool.get(a).unwrap().function(), "g");
        // A served worker cannot be re-targeted, and the index is untouched.
        let t0 = SimTime::from_millis(10);
        pool.begin_exec(a, t0);
        pool.end_exec(a, t0, SimTime::from_millis(20));
        assert!(pool.retarget(a, "h").is_err());
        assert_eq!(pool.warm_count("g"), 1);
        assert!(pool.retarget(WorkerId(99), "h").is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use xanadu_chain::IsolationLevel;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Drives the pool through an arbitrary sequence of lifecycle
        /// transitions — insert, mark-ready, begin/end/abort exec, kill,
        /// crash and warm-cap eviction — and
        /// checks after every step that the FnIndex buckets and the warm-LRU
        /// agree exactly with the live worker map.
        #[test]
        fn indexes_agree_with_live_map_under_arbitrary_transitions(
            ops in proptest::collection::vec((0u8..8, 0u64..24, 1u64..2_000), 1..60),
            max_warm in 0usize..6,
        ) {
            let mut pool = WorkerPool::new(PoolConfig {
                keep_alive: SimDuration::from_secs(30),
                max_warm: if max_warm == 0 { None } else { Some(max_warm) },
            });
            let mut now = SimTime::ZERO;
            let mut ids: Vec<WorkerId> = Vec::new();
            let mut began: std::collections::HashMap<WorkerId, SimTime> =
                std::collections::HashMap::new();
            for (op, pick, advance_ms) in ops {
                now += SimDuration::from_millis(advance_ms);
                // Deterministically pick a live worker (if any) for the op.
                let target = if ids.is_empty() {
                    None
                } else {
                    Some(ids[(pick as usize) % ids.len()])
                };
                let target = target.filter(|id| pool.get(*id).is_some());
                match op {
                    0 => {
                        let id = pool.next_worker_id();
                        pool.insert(Worker::provisioning(
                            id,
                            format!("f{}", pick % 3),
                            IsolationLevel::Container,
                            512,
                            now,
                            now + SimDuration::from_millis(pick * 100),
                        ));
                        ids.push(id);
                    }
                    1 => {
                        if let Some(id) = target {
                            pool.mark_ready(id);
                        }
                    }
                    2 => {
                        if let Some(id) = target {
                            let w = pool.get(id).unwrap();
                            if w.state() == WorkerState::Warm {
                                let at = now.max(w.ready_at());
                                pool.begin_exec(id, at);
                                began.insert(id, at);
                            }
                        }
                    }
                    3 => {
                        if let Some(id) = target {
                            if pool.get(id).unwrap().state() == WorkerState::Busy {
                                let b = began.remove(&id).unwrap();
                                pool.end_exec(id, b, now.max(b));
                            }
                        }
                    }
                    4 => {
                        if let Some(id) = target {
                            if pool.get(id).unwrap().state() == WorkerState::Busy {
                                let b = began.remove(&id).unwrap();
                                pool.abort_exec(id, b, now.max(b));
                            }
                        }
                    }
                    5 => {
                        if let Some(id) = target {
                            pool.kill(id, now);
                        }
                    }
                    6 => {
                        // The new crash transition, from any live state.
                        if let Some(id) = target {
                            pool.crash(id, now);
                        }
                    }
                    _ => {
                        pool.enforce_warm_cap(now, &HashSet::new());
                    }
                }
                if let Err(e) = pool.check_index_consistency() {
                    prop_assert!(false, "after op {op}: {e}");
                }
            }
            // Final teardown accounts for every worker ever created.
            let total = ids.len();
            let records = pool.drain(now);
            prop_assert_eq!(records.len(), total);
        }
    }
}
