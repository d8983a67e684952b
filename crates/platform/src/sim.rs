//! The Dispatch Manager: a deterministic event-driven workflow executor.
//!
//! One [`Platform`] instance models one deployment of Xanadu (or, via
//! `xanadu-baselines`, of an emulated Knative / OpenWhisk / ASF / ADF):
//! workflows are deployed, triggers are scheduled, and
//! [`run_until_idle`](Platform::run_until_idle) drains the event queue,
//! executing every function of every activated path with the configured
//! provisioning policy.
//!
//! The sequence of operations matches Figure 10 of the paper: a trigger
//! starts the planning phase (MLP + JIT plan) in parallel with dispatching
//! the root function; planned deployments fire as their timeline comes due;
//! the reverse proxy routes each function invocation to a warm worker when
//! one exists and provisions otherwise; prediction misses stop (or replan)
//! outstanding speculation.

use crate::config::PlatformConfig;
use crate::estimates::PlatformEstimates;
use crate::events::BusEvent;
use crate::faults::{FaultConfig, FaultPlan};
use crate::hosts::{ClusterReport, HostId, HostRegistry, HostSpec, PlacementRequest};
use crate::metastore::MetaStore;
use crate::obs::{Observer, ObserverHandle};
use crate::result::{PlatformReport, RunResult};
use crate::stream::TraceRecorder;
use crate::timeline::Trace;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex};
use xanadu_chain::{BranchMode, ChainError, DeclaredOutputs, NodeId, NodeSet, WorkflowDag};
use xanadu_core::cost::{total_resource_cost, CpuRates, ResourceCosts};
use xanadu_core::policy::{PlanContext, PolicyRegistry, SpeculationPolicy};
use xanadu_core::speculation::{DeployFailureAction, PlanCacheStats};
use xanadu_profiler::{BranchDetector, MetricsEngine, RequestCorrelator};
use xanadu_sandbox::{
    SandboxProvider, SimSandboxProvider, Worker, WorkerId, WorkerPool, WorkerRecord, WorkerState,
};
use xanadu_simcore::{EventQueue, Interner, RngStream, SimDuration, SimTime, Sym};

/// Errors surfaced by the platform API.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformError {
    /// A workflow with the same name is already deployed.
    AlreadyDeployed(String),
    /// The named workflow is not deployed.
    UnknownWorkflow(String),
    /// Workflow construction/validation failed.
    Chain(ChainError),
    /// Restoring persisted learned state failed (missing or malformed
    /// documents in the metadata store).
    Restore(String),
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::AlreadyDeployed(name) => {
                write!(f, "workflow `{name}` is already deployed")
            }
            PlatformError::UnknownWorkflow(name) => write!(f, "unknown workflow `{name}`"),
            PlatformError::Chain(e) => write!(f, "invalid workflow: {e}"),
            PlatformError::Restore(reason) => {
                write!(f, "failed to restore learned state: {reason}")
            }
        }
    }
}

impl std::error::Error for PlatformError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlatformError::Chain(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ChainError> for PlatformError {
    fn from(e: ChainError) -> Self {
        PlatformError::Chain(e)
    }
}

/// Sentinel request id marking workers owned by the static pre-warm pool
/// rather than any request's speculation plan.
const POOL_OWNER: u64 = u64::MAX;

/// How a worker was acquired for an invocation (for start accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Acquired {
    /// An already warm worker: a warm start.
    Warm,
    /// A worker still provisioning (speculation in flight): cold-ish; the
    /// request waits the residual provisioning time.
    Pending,
    /// A fresh on-demand provision: a full cold start.
    Fresh,
}

/// A future-event-list entry. Every payload is `Copy`: workflow names are
/// interned to [`Sym`]s at deployment, so the hot path never moves or
/// allocates a `String` per event.
#[derive(Debug, Clone, Copy)]
enum Event {
    Trigger {
        req: u64,
        workflow: Sym,
    },
    Deploy {
        req: u64,
        node: NodeId,
        generation: u32,
    },
    Invoke {
        req: u64,
        node: NodeId,
        parent: Option<NodeId>,
    },
    WorkerReady {
        worker: WorkerId,
    },
    ExecStart {
        req: u64,
        node: NodeId,
        worker: WorkerId,
        acquired: Acquired,
        invoked_at: SimTime,
    },
    ExecEnd {
        req: u64,
        node: NodeId,
        worker: WorkerId,
        began: SimTime,
    },
    /// Injected fault: the worker dies. What that *means* depends on its
    /// state when the event fires: a startup failure (Provisioning), a
    /// crash mid-warm (Warm), or a crash mid-invocation (Busy).
    WorkerCrash {
        worker: WorkerId,
    },
    /// Injected fault: the invocation's effective service time exceeded
    /// the per-invocation timeout; abort and retry.
    ExecTimeout {
        req: u64,
        node: NodeId,
        worker: WorkerId,
        began: SimTime,
    },
    /// Retry of an invocation whose previous attempt crashed or timed out
    /// (worker re-acquisition only; the node counts as already invoked).
    Redispatch {
        req: u64,
        node: NodeId,
    },
    /// Injected fault: a whole host fails, losing every worker on it.
    /// `epoch` guards against staleness: the failure only applies if the
    /// host is still in the uptime epoch the crash was scheduled for.
    HostFail {
        host: u32,
        epoch: u32,
    },
    /// A host comes up: an autoscaled boot or a post-failure reboot.
    HostBoot {
        host: u32,
    },
}

#[derive(Debug, Clone)]
struct WorkflowEntry {
    dag: Arc<WorkflowDag>,
    implicit: bool,
    /// Declared-output table for data-driven conditionals, computed once at
    /// registration instead of per trigger.
    declared_outputs: Arc<DeclaredOutputs>,
    /// Owning tenant (index into the cluster's tenant table), resolved
    /// once at deploy: explicit workflow listing first, stable hash
    /// otherwise. `None` when no tenants are configured.
    tenant: Option<u32>,
}

#[derive(Debug)]
struct RunState {
    workflow: Sym,
    dag: Arc<WorkflowDag>,
    implicit: bool,
    trigger: SimTime,
    /// Chosen children per XOR node (drawn at trigger from the ground-truth
    /// probabilities, or decided by the node's data-driven condition over
    /// declared outputs; revealed on completion). Probability draws pick
    /// one child; condition decisions activate the whole branch-entry
    /// group.
    xor_choice: HashMap<NodeId, Vec<NodeId>>,
    /// Whether each node is on the actually-executing subgraph.
    activated: Vec<bool>,
    /// Activated in-edges each node waits for (barrier semantics).
    required_in: Vec<usize>,
    delivered_in: Vec<usize>,
    invoked: Vec<bool>,
    completed: Vec<bool>,
    /// Ground-truth service time drawn per node at trigger.
    service: Vec<SimDuration>,
    remaining: usize,
    planned: NodeSet,
    plan_generation: u32,
    plan_active: bool,
    spawned: Vec<WorkerId>,
    cold_starts: u32,
    warm_starts: u32,
    misses: u32,
    /// Whether a plan ever existed (misses are only meaningful then).
    had_plan: bool,
    /// StopSpeculation already fired; no further cancellations needed.
    plan_cancelled: bool,
    /// Per-node count of failed attempts (crashes, timeouts, failed
    /// pre-deployments). At `FaultConfig::max_retries` the next attempt
    /// runs shielded from injection, guaranteeing termination.
    fault_attempts: Vec<u32>,
    /// Injected faults that hit this request.
    faults: u32,
    /// Invocation attempts beyond the first.
    retries: u32,
    /// Host of the request's most recent execution start: the locality
    /// locus the affinity policy and retargeting co-locate against.
    locus: Option<HostId>,
}

impl RunState {
    /// Critical path (ms→duration) of the activated subgraph with the drawn
    /// service times: the `Σ rᵢ` / slowest-branch reference of Equation 1.
    fn exec_reference(&self) -> SimDuration {
        let dag = &self.dag;
        let mut best = vec![SimDuration::ZERO; dag.len()];
        let mut max = SimDuration::ZERO;
        for id in dag.topo_order() {
            if !self.activated[id.index()] {
                continue;
            }
            let from_parents = dag
                .parents(id)
                .iter()
                .filter(|p| self.activated[p.index()])
                .map(|p| best[p.index()])
                .max()
                .unwrap_or(SimDuration::ZERO);
            best[id.index()] = from_parents + self.service[id.index()];
            max = max.max(best[id.index()]);
        }
        max
    }
}

/// The Xanadu platform: Dispatch Manager + Dispatch Daemon over a simulated
/// sandbox substrate. See the [crate docs](crate) for a quickstart.
pub struct Platform {
    config: PlatformConfig,
    /// The speculation policy (DESIGN.md §11): the paper's engine by
    /// default, or a learned planner selected via `config.policy`.
    policy: Box<dyn SpeculationPolicy>,
    provider: SimSandboxProvider,
    pool: WorkerPool,
    metrics: MetricsEngine,
    detector: BranchDetector,
    correlator: RequestCorrelator,
    /// Workflow name → dense id; ids index [`Platform::workflows`].
    workflow_ids: Interner,
    /// Registered workflows, indexed by interned id.
    workflows: Vec<WorkflowEntry>,
    queue: EventQueue<Event>,
    now: SimTime,
    /// In-flight requests, indexed by request id (dense: ids are handed
    /// out sequentially). Boxed so the slab stays compact after a request
    /// retires.
    runs: Vec<Option<Box<RunState>>>,
    results: Vec<RunResult>,
    next_request: u64,
    rng_branch: RngStream,
    rng_service: RngStream,
    rng_overhead: RngStream,
    /// Workers chosen for an invocation but not yet executing.
    claimed: HashSet<WorkerId>,
    /// Which request spawned each worker (cost attribution), indexed by
    /// worker id (dense: ids are handed out sequentially).
    spawner: Vec<Option<u64>>,
    /// The cluster the Dispatch Daemons manage (Figure 11).
    cluster: HostRegistry,
    /// Whether an explicit multi-host cluster (or autoscaler) was
    /// configured. Gates cluster bookkeeping and report attachment so
    /// default single-testbed runs stay byte-identical to pre-cluster
    /// builds.
    cluster_enabled: bool,
    /// Cold executions whose request's previous hop ran on another host.
    cross_host_cold: u64,
    /// Cold executions co-located with the request's previous hop.
    same_host_cold: u64,
    /// Prediction-miss recoveries served by retargeting a co-located
    /// warm worker.
    retargets_colocated: u64,
    /// Workers provisioned shielded (the guaranteed final retry): exempt
    /// from injected worker crashes *and* host-failure drains, so every
    /// request terminates under any fault schedule.
    shielded_workers: HashSet<WorkerId>,
    /// Requests triggered but not yet finalized. Host reboots are only
    /// scheduled while this is non-zero, so an idle platform quiesces.
    active_runs: usize,
    metastore: MetaStore,
    /// The seeded fault schedule (inert when the configured rate is 0).
    faults: FaultPlan,
    /// Synchronous observers, called in attach order for every emitted
    /// event. Empty on an unobserved platform, in which case no event is
    /// ever constructed (see [`Platform::observing`]).
    observers: Vec<Arc<Mutex<dyn Observer>>>,
    /// Events emitted so far (see [`Platform::published_events`]).
    published: u64,
    /// Request timelines rebuilt from every emitted event; present when
    /// `config.record_traces` is on, which makes recording a form of
    /// observation.
    recorder: Option<TraceRecorder>,
}

impl Platform {
    /// Creates a platform with the paper-calibrated sandbox substrate.
    pub fn new(config: PlatformConfig) -> Self {
        let provider = SimSandboxProvider::new(config.seed);
        Self::with_provider(config, provider)
    }

    /// Creates a platform over a custom sandbox provider (used by the
    /// baseline emulations, which recalibrate the latency profiles).
    pub fn with_provider(config: PlatformConfig, provider: SimSandboxProvider) -> Self {
        let pool = WorkerPool::new(config.pool);
        let seed = config.seed;
        let cluster_enabled =
            !config.cluster.hosts.is_empty() || config.cluster.autoscale.enabled();
        let mut cluster = HostRegistry::new(config.cluster.policy);
        if config.cluster.hosts.is_empty() && !config.cluster.autoscale.enabled() {
            cluster.add_host(HostSpec::new("xeon-64c-128g", 128 * 1024));
        } else {
            for spec in &config.cluster.hosts {
                cluster.add_host(spec.clone());
            }
        }
        cluster.set_seed(seed);
        cluster.set_tenants(config.cluster.tenants.clone());
        cluster.set_autoscale(config.cluster.autoscale.clone());
        let faults = FaultPlan::new(config.faults);
        let mut queue = EventQueue::new();
        if faults.hosts_enabled() {
            for host in cluster.up_hosts() {
                if let Some(at) = faults.host_crash_time(host.0, 0, SimTime::ZERO) {
                    queue.schedule(
                        at,
                        Event::HostFail {
                            host: host.0,
                            epoch: 0,
                        },
                    );
                }
            }
        }
        let mut policy = PolicyRegistry::build(&config.policy, config.speculation);
        policy.set_plan_cache(config.plan_cache);
        Platform {
            policy,
            provider,
            pool,
            metrics: MetricsEngine::new(),
            detector: BranchDetector::new(),
            correlator: RequestCorrelator::new(),
            workflow_ids: Interner::new(),
            workflows: Vec::new(),
            queue,
            now: SimTime::ZERO,
            runs: Vec::new(),
            results: Vec::new(),
            next_request: 0,
            rng_branch: RngStream::derive(seed, "platform-branch"),
            rng_service: RngStream::derive(seed, "platform-service"),
            rng_overhead: RngStream::derive(seed, "platform-overhead"),
            claimed: HashSet::new(),
            spawner: Vec::new(),
            cluster,
            cluster_enabled,
            cross_host_cold: 0,
            same_host_cold: 0,
            retargets_colocated: 0,
            shielded_workers: HashSet::new(),
            active_runs: 0,
            metastore: MetaStore::new(),
            faults,
            observers: Vec::new(),
            published: 0,
            recorder: config.record_traces.then(TraceRecorder::default),
            config,
        }
    }

    /// Replaces the fault-injection configuration (e.g. from the CLI's
    /// `--fault-rate`/`--fault-seed` flags). Affects workers provisioned
    /// and invocations dispatched after the call.
    pub fn set_faults(&mut self, config: FaultConfig) {
        self.config.faults = config;
        self.faults = FaultPlan::new(config);
        // Invalidate any host-crash events scheduled under the old plan and
        // draw fresh crash times for every live host under the new one.
        self.cluster.bump_epochs();
        if self.faults.hosts_enabled() {
            for host in self.cluster.up_hosts() {
                let epoch = self.cluster.epoch(host);
                if let Some(at) = self.faults.host_crash_time(host.0, epoch, self.now) {
                    self.queue.schedule(
                        at,
                        Event::HostFail {
                            host: host.0,
                            epoch,
                        },
                    );
                }
            }
        }
    }

    /// The platform's configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Deploys an *explicit* workflow: the platform sees the schema and can
    /// plan from its declared structure.
    ///
    /// # Errors
    ///
    /// [`PlatformError::AlreadyDeployed`] on name collision, or a
    /// validation error from the workflow itself.
    pub fn deploy(&mut self, dag: WorkflowDag) -> Result<(), PlatformError> {
        self.deploy_entry(dag, false)
    }

    /// Deploys an *implicit* workflow: `dag` is the ground truth driving
    /// the simulated functions' chaining behaviour, but the platform plans
    /// only from what its branch detector and correlator have learned.
    ///
    /// # Errors
    ///
    /// Same conditions as [`deploy`](Self::deploy).
    pub fn deploy_implicit(&mut self, dag: WorkflowDag) -> Result<(), PlatformError> {
        self.deploy_entry(dag, true)
    }

    /// Parses and deploys an explicit workflow from a state-definition-
    /// language document (§4, Listing 1).
    ///
    /// # Errors
    ///
    /// SDL parse errors and the same conditions as [`deploy`](Self::deploy).
    pub fn deploy_sdl(&mut self, name: &str, document: &str) -> Result<(), PlatformError> {
        let dag = xanadu_chain::sdl::parse(name, document)?;
        self.deploy(dag)
    }

    fn deploy_entry(&mut self, dag: WorkflowDag, implicit: bool) -> Result<(), PlatformError> {
        dag.validate()?;
        let name = dag.name().to_string();
        if self.workflow_ids.get(&name).is_some() {
            return Err(PlatformError::AlreadyDeployed(name));
        }
        let declared_outputs = Arc::new(dag.declared_outputs());
        let dag = Arc::new(dag);
        if self.config.static_prewarm > 0 {
            for id in dag.node_ids() {
                let spec = dag.node(id).spec().clone();
                for _ in 0..self.config.static_prewarm {
                    self.provision_worker(POOL_OWNER, &spec, false, false);
                }
            }
        }
        let sym = self.workflow_ids.intern(&name);
        debug_assert_eq!(sym.index(), self.workflows.len());
        let tenant = self.cluster.tenant_for_workflow(&name);
        self.workflows.push(WorkflowEntry {
            dag,
            implicit,
            declared_outputs,
            tenant,
        });
        Ok(())
    }

    /// Schedules a trigger of `workflow` at absolute simulation time `at`,
    /// returning the request id.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownWorkflow`] if the name is not deployed.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past once
    /// [`run_until_idle`](Self::run_until_idle) has advanced beyond it.
    pub fn trigger_at(&mut self, workflow: &str, at: SimTime) -> Result<u64, PlatformError> {
        let Some(sym) = self.workflow_ids.get(workflow) else {
            return Err(PlatformError::UnknownWorkflow(workflow.to_string()));
        };
        let req = self.next_request;
        self.next_request += 1;
        self.queue
            .schedule(at, Event::Trigger { req, workflow: sym });
        Ok(req)
    }

    /// Pre-sizes the event queue and per-request tables for a workload of
    /// roughly `invocations` triggers, avoiding incremental re-allocation
    /// during fleet-scale replays. Purely an optimization: results are
    /// identical with or without the call.
    pub fn reserve_invocations(&mut self, invocations: usize) {
        self.queue.reserve(invocations.saturating_mul(2));
        self.runs.reserve(invocations);
        self.results.reserve(invocations);
    }

    /// The in-flight run for `req`, if it has not finished.
    fn run(&self, req: u64) -> Option<&RunState> {
        // `req as usize` saturates sentinel ids (POOL_OWNER) far past the
        // slab: the bounds check turns them into `None`.
        self.runs.get(req as usize).and_then(|slot| slot.as_deref())
    }

    /// Mutable access to the in-flight run for `req`.
    fn run_mut(&mut self, req: u64) -> Option<&mut RunState> {
        self.runs
            .get_mut(req as usize)
            .and_then(|slot| slot.as_deref_mut())
    }

    /// The request that spawned `worker`, if any.
    fn spawner_of(&self, worker: WorkerId) -> Option<u64> {
        self.spawner.get(worker.0 as usize).copied().flatten()
    }

    /// Records which request spawned `worker`.
    fn set_spawner(&mut self, worker: WorkerId, req: u64) {
        let idx = worker.0 as usize;
        if self.spawner.len() <= idx {
            self.spawner.resize(idx + 1, None);
        }
        self.spawner[idx] = Some(req);
    }

    /// Drains the event queue, advancing virtual time until no events
    /// remain. Returns the number of events processed.
    pub fn run_until_idle(&mut self) -> u64 {
        self.process_through(SimTime::MAX)
    }

    /// Processes events up to and including `deadline`, then stops with
    /// later events still queued, leaving the clock at the last processed
    /// event. The sharded driver ([`crate::shard`]) steps with this so the
    /// final clock value — which prices end-of-run worker teardown in
    /// [`finish`](Self::finish) — depends only on the event stream, never
    /// on the driver's barrier-window width. Returns the number of events
    /// processed.
    pub fn step_window(&mut self, deadline: SimTime) -> u64 {
        self.process_through(deadline)
    }

    /// The event loop: pops and handles every event due at or before
    /// `deadline`, in time order.
    fn process_through(&mut self, deadline: SimTime) -> u64 {
        let mut processed = 0;
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            let (t, event) = self.queue.pop().expect("peeked event exists");
            assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.handle(event);
            processed += 1;
        }
        processed
    }

    /// Completed request results so far.
    pub fn results(&self) -> &[RunResult] {
        &self.results
    }

    /// Moves out the results completed since the last call, in completion
    /// order. [`results`](Self::results) and [`finish`](Self::finish)
    /// then hold only the results not moved out. The sharded driver
    /// ([`crate::shard`]) drains every window so each result has one home.
    pub(crate) fn drain_results(&mut self) -> std::vec::Drain<'_, RunResult> {
        self.results.drain(..)
    }

    /// Moves out the records of workers that died since the last call, in
    /// death order; [`finish`](Self::finish) reports only the rest.
    pub(crate) fn drain_dead_workers(&mut self) -> std::vec::Drain<'_, WorkerRecord> {
        self.pool.drain_dead()
    }

    /// Moves out the timelines of requests completed since the last call,
    /// in no particular order; [`trace`](Self::trace) then returns `None`
    /// for them. Yields nothing with `record_traces` off.
    pub(crate) fn drain_traces(&mut self) -> impl Iterator<Item = (u64, Trace)> + '_ {
        self.recorder.iter_mut().flat_map(TraceRecorder::drain)
    }

    /// The metrics engine (profiled EMAs).
    pub fn metrics(&self) -> &MetricsEngine {
        &self.metrics
    }

    /// The implicit-chain branch detector.
    pub fn detector(&self) -> &BranchDetector {
        &self.detector
    }

    /// Hit/miss counters of the speculation policy's plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.policy.plan_cache_stats()
    }

    /// Label of the active speculation policy (e.g. `xanadu-jit`, `mpc`).
    pub fn policy_label(&self) -> &'static str {
        self.policy.label()
    }

    /// The metadata store.
    pub fn metastore(&self) -> &MetaStore {
        &self.metastore
    }

    /// Attaches a synchronous [`Observer`]: it sees every emitted event,
    /// in deterministic simulation order, for the rest of the platform's
    /// life. The returned handle reads the observer's state back out.
    ///
    /// Observers are the only consumers of platform events. Attaching one
    /// is what turns event emission on — an unobserved platform never
    /// constructs events, so observability costs nothing when unused.
    pub fn attach_observer<O: Observer + 'static>(&mut self, observer: O) -> ObserverHandle<O> {
        let handle = ObserverHandle::new(observer);
        self.observers.push(handle.shared());
        handle
    }

    /// Total events emitted so far; every attached observer received each
    /// of them once. Zero on an unobserved platform — the emission guard
    /// skips construction entirely.
    pub fn published_events(&self) -> u64 {
        self.published
    }

    /// Whether an emission would reach anyone: the trace recorder or an
    /// observer. Checked before constructing any [`BusEvent`] so the
    /// unobserved hot path pays a branch, not an allocation.
    fn observing(&self) -> bool {
        self.recorder.is_some() || !self.observers.is_empty()
    }

    /// Records `event` into the request timelines and delivers it to
    /// every observer, in attach order.
    fn emit(&mut self, event: BusEvent) {
        if let Some(recorder) = &mut self.recorder {
            recorder.on_event(self.now, &event);
        }
        for obs in &self.observers {
            obs.lock()
                .expect("observer lock poisoned")
                .on_event(self.now, &event);
        }
        self.published += 1;
    }

    /// Number of live workers (any state).
    pub fn live_workers(&self) -> usize {
        self.pool.live_count()
    }

    /// Number of events still queued. The sharded replay driver
    /// ([`crate::shard`]) polls this at every time-window barrier to
    /// detect fleet-wide quiescence.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// The cluster view: host placement and load of every live worker.
    pub fn cluster(&self) -> &HostRegistry {
        &self.cluster
    }

    /// The orchestration timeline of a completed request (Figure 10's
    /// sequence as actually executed); `None` until the request has
    /// finished, and always with `record_traces` off.
    pub fn trace(&self, request: u64) -> Option<&Trace> {
        self.recorder.as_ref()?.get(request)
    }

    /// Rolls the detector's exponential-averaging window (§3.1 "metrics
    /// being updated after every fixed interval of time").
    pub fn roll_profile_window(&mut self) {
        self.detector.roll_window();
    }

    /// Persists the learned state — function profiles and the branch
    /// model — into the metadata store, the paper's "backing everything up
    /// on the Metadata DB for persistence" (§4), as the documents
    /// `learned/metrics` and `learned/branches`.
    pub fn persist_learned_state(&mut self) {
        let metrics_doc = serde_json::to_value(&self.metrics).expect("metrics serialize");
        let detector_doc = serde_json::to_value(&self.detector).expect("detector serialize");
        self.metastore.put("learned/metrics", metrics_doc);
        self.metastore.put("learned/branches", detector_doc);
    }

    /// Restores learned state previously persisted with
    /// [`persist_learned_state`](Self::persist_learned_state) — e.g. into a
    /// freshly started platform after a restart, so speculation does not
    /// need to re-learn from scratch.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Restore`] if either document is missing or fails
    /// to deserialize.
    pub fn restore_learned_state(&mut self, store: &MetaStore) -> Result<(), PlatformError> {
        let restore = |reason: String| PlatformError::Restore(reason);
        let (metrics_doc, _) = store
            .get("learned/metrics")
            .ok_or_else(|| restore("learned/metrics document missing".into()))?;
        let (detector_doc, _) = store
            .get("learned/branches")
            .ok_or_else(|| restore("learned/branches document missing".into()))?;
        self.metrics = serde::Deserialize::from_json(metrics_doc)
            .map_err(|e| restore(format!("bad metrics document: {e}")))?;
        self.detector = serde::Deserialize::from_json(detector_doc)
            .map_err(|e| restore(format!("bad branch document: {e}")))?;
        // The restored engines restart their epoch counters, which could
        // collide with the epochs a cached plan was tagged with.
        self.policy.invalidate_plan_cache();
        Ok(())
    }

    /// Finishes the run: tears down all remaining workers and returns the
    /// complete report. Idle non-pool workers are accounted as reclaimed
    /// at their keep-alive expiry (the platform would have reaped them);
    /// pool-owned workers are charged through to the end of the run.
    pub fn finish(mut self) -> PlatformReport {
        self.run_until_idle();
        let keep_alive = self.pool.config().keep_alive;
        let ids: Vec<(WorkerId, SimTime)> = self
            .pool
            .live_workers()
            .map(|w| {
                let at = if self.spawner_of(w.id()) == Some(POOL_OWNER) {
                    self.now
                } else {
                    match w.last_active().checked_add(keep_alive) {
                        Some(expiry) => expiry.min(self.now).max(w.last_active()),
                        None => self.now,
                    }
                };
                (w.id(), at)
            })
            .collect();
        for (id, at) in ids {
            self.pool.kill(id, at);
            self.cluster.release(id);
        }
        let cluster = self.cluster_report();
        let mut records = self.pool.drain(self.now);
        // The teardown above iterates the live map (hash order): sort the
        // ledger so identical runs produce byte-identical reports.
        records.sort_by_key(|r| r.id);
        PlatformReport {
            results: self.results,
            worker_records: records,
            cluster,
        }
    }

    /// Snapshot of the cluster scheduling outcome: per-host utilization
    /// and the cold-start locality attribution tracked by the simulator.
    /// `None` unless an explicit multi-host cluster (or autoscaler) was
    /// configured, so default reports stay byte-identical.
    pub fn cluster_report(&self) -> Option<ClusterReport> {
        if !self.cluster_enabled {
            return None;
        }
        let mut report = self.cluster.report();
        report.cross_host_cold = self.cross_host_cold;
        report.same_host_cold = self.same_host_cold;
        report.retargets_colocated = self.retargets_colocated;
        Some(report)
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn handle(&mut self, event: Event) {
        match event {
            Event::Trigger { req, workflow } => self.on_trigger(req, workflow),
            Event::Deploy {
                req,
                node,
                generation,
            } => self.on_deploy(req, node, generation),
            Event::Invoke { req, node, parent } => self.on_invoke(req, node, parent),
            Event::WorkerReady { worker } => self.on_worker_ready(worker),
            Event::ExecStart {
                req,
                node,
                worker,
                acquired,
                invoked_at,
            } => self.on_exec_start(req, node, worker, acquired, invoked_at),
            Event::ExecEnd {
                req,
                node,
                worker,
                began,
            } => self.on_exec_end(req, node, worker, began),
            Event::WorkerCrash { worker } => self.on_worker_crash(worker),
            Event::ExecTimeout {
                req,
                node,
                worker,
                began,
            } => self.on_exec_timeout(req, node, worker, began),
            Event::Redispatch { req, node } => self.on_redispatch(req, node),
            Event::HostFail { host, epoch } => self.on_host_fail(host, epoch),
            Event::HostBoot { host } => self.on_host_boot(host),
        }
    }

    /// An injected host failure fires. Stale if the host already cycled
    /// into a newer uptime epoch (the fault plan was swapped, or the host
    /// was down when the crash was drawn). Every non-shielded worker on
    /// the host crashes; shielded final-retry workers survive hostless so
    /// the termination guarantee holds under any fault schedule.
    fn on_host_fail(&mut self, host: u32, epoch: u32) {
        let id = HostId(host);
        if self.cluster.epoch(id) != epoch || !self.cluster.is_up(id) {
            return;
        }
        let drained = self.cluster.fail_host(id);
        let (lost, shielded): (Vec<WorkerId>, Vec<WorkerId>) = drained
            .into_iter()
            .partition(|w| !self.shielded_workers.contains(w));
        let _ = shielded; // survive hostless: nothing to do
        if self.observing() {
            self.emit(BusEvent::HostDown {
                host,
                workers_lost: lost.len() as u32,
            });
        }
        for worker in lost {
            self.on_worker_crash(worker);
        }
        // Reboot only while requests are in flight: an idle platform must
        // quiesce, or `run_until_idle` would cycle hosts forever.
        if self.active_runs > 0 {
            let reboot = SimDuration::from_millis_f64(self.config.faults.host_reboot_ms);
            self.queue
                .schedule(self.now + reboot, Event::HostBoot { host });
        }
    }

    /// A host comes up: an autoscaled boot or a post-failure reboot. The
    /// next injected crash for its new uptime epoch is drawn here.
    fn on_host_boot(&mut self, host: u32) {
        let id = HostId(host);
        if !self.cluster.activate_host(id) {
            return;
        }
        if self.observing() {
            self.emit(BusEvent::HostUp {
                host,
                memory_mb: self.cluster.memory_mb(id),
            });
        }
        if self.faults.hosts_enabled() {
            let epoch = self.cluster.epoch(id);
            if let Some(at) = self.faults.host_crash_time(host, epoch, self.now) {
                self.queue.schedule(at, Event::HostFail { host, epoch });
            }
        }
    }

    /// Reactive scale-up: when the autoscaler is enabled and cluster free
    /// memory dips below the configured threshold, reserve one host and
    /// schedule its boot. One host boots at a time (the registry refuses
    /// to scale while a boot is pending), so reaction is gradual.
    fn maybe_scale_up(&mut self) {
        if !self.cluster.wants_scale_up() {
            return;
        }
        let spec = self.cluster.autoscale_host_spec();
        let id = self.cluster.reserve_host(spec);
        let boot = SimDuration::from_millis_f64(self.cluster.autoscale().boot_ms);
        self.queue
            .schedule(self.now + boot, Event::HostBoot { host: id.0 });
    }

    fn on_trigger(&mut self, req: u64, workflow: Sym) {
        // Lazy keep-alive reaping (the Dispatch Daemons' maintenance duty):
        // workers idle past keep-alive are torn down before new work is
        // admitted, returning their host memory. `find_warm` already
        // refuses stale workers, so this only affects accounting and
        // cluster load, never request routing.
        // The kill timestamp is backdated to the keep-alive expiry: the
        // platform reclaims at expiry, we merely *execute* the reclamation
        // lazily, and accounting must not charge the difference.
        // Expiry is monotone in `last_active`, so only an ascending prefix
        // of the pool's LRU order can be stale.
        let keep_alive = self.pool.config().keep_alive;
        let expired: Vec<(WorkerId, SimTime)> = self
            .pool
            .warm_lru()
            .take_while(|w| self.now.saturating_since(w.last_active()) > keep_alive)
            .filter(|w| !self.claimed.contains(&w.id()) && !self.is_pool_owned(w.id()))
            .map(|w| (w.id(), w.last_active() + keep_alive))
            .collect();
        for (id, at) in expired {
            self.kill_worker(id, at);
        }

        let entry = self.workflows[workflow.index()].clone();
        let dag = entry.dag.clone();

        // Draw the request's ground truth: XOR outcomes and service times.
        // A node with a data-driven decision whose condition evaluates over
        // the workflow's declared outputs follows the data; otherwise the
        // outcome is drawn from the declared branch probabilities. The
        // declared-output table was computed once at registration.
        let declared_outputs = &entry.declared_outputs;
        let mut rng = self.rng_branch.child(req);
        let mut xor_choice = HashMap::new();
        for id in dag.node_ids() {
            if dag.node(id).branch_mode() == BranchMode::Xor && !dag.children(id).is_empty() {
                let decided = dag.node(id).decision().and_then(|d| {
                    d.condition.evaluate(declared_outputs).map(|holds| {
                        if holds {
                            d.on_true.clone()
                        } else {
                            d.on_false.clone()
                        }
                    })
                });
                let chosen = match decided {
                    Some(group) => group,
                    None => {
                        let edges = dag.children(id);
                        let weights: Vec<f64> = edges.iter().map(|e| e.weight).collect();
                        vec![edges[rng.weighted_choice(&weights)].to]
                    }
                };
                xor_choice.insert(id, chosen);
            }
        }
        let mut svc_rng = self.rng_service.child(req);
        let service: Vec<SimDuration> = dag
            .node_ids()
            .map(|id| dag.node(id).spec().service_dist().sample(&mut svc_rng))
            .collect();

        // Activation: BFS from roots along actually-firing edges.
        let mut activated = vec![false; dag.len()];
        let mut required_in = vec![0usize; dag.len()];
        for root in dag.roots() {
            activated[root.index()] = true;
        }
        for id in dag.topo_order() {
            if !activated[id.index()] {
                continue;
            }
            match dag.node(id).branch_mode() {
                BranchMode::Multicast => {
                    for e in dag.children(id) {
                        activated[e.to.index()] = true;
                        required_in[e.to.index()] += 1;
                    }
                }
                BranchMode::Xor => {
                    if let Some(group) = xor_choice.get(&id) {
                        for &chosen in group {
                            activated[chosen.index()] = true;
                            required_in[chosen.index()] += 1;
                        }
                    }
                }
            }
        }
        let remaining = activated.iter().filter(|&&a| a).count();

        // Planning phase (Figure 10): runs "in parallel" with root dispatch,
        // i.e. deployments are scheduled at their plan offsets from now.
        let mut planned = NodeSet::with_capacity(dag.len());
        let mut plan_generation = 0;
        if self.policy.plans_at_trigger() {
            let plan = {
                let estimates = PlatformEstimates {
                    metrics: &self.metrics,
                    provider: &self.provider,
                    dag: &dag,
                    implicit: entry.implicit,
                    hop_overhead_ms: self.config.orchestration_overhead.mean_ms(),
                };
                let detector = &self.detector;
                let use_learned = self.config.use_learned_probabilities || entry.implicit;
                let implicit = entry.implicit;
                let dag_ref = &dag;
                // The learned-probability stream only feeds the plan when
                // `use_learned`; otherwise the plan is a pure function of
                // the (immutable) DAG, so epoch 0 keeps it cached forever.
                let estimates_epoch = self.metrics.epoch();
                let prob_epoch = if use_learned {
                    self.detector.epoch()
                } else {
                    0
                };
                let ctx = PlanContext {
                    now: self.now,
                    estimates_epoch,
                    prob_epoch,
                };
                let mut rho = |p: NodeId, c: NodeId| {
                    if !use_learned {
                        return None; // ground truth
                    }
                    let pn = dag_ref.node(p).spec().name();
                    let cn = dag_ref.node(c).spec().name();
                    match detector.smoothed_probability(pn, cn) {
                        Some(prob) => Some(prob),
                        // Implicit chains must not peek at the schema: an
                        // unlearned edge has probability zero. Explicit
                        // chains fall back to declared probabilities.
                        None if implicit => Some(0.0),
                        None => None,
                    }
                };
                self.policy.plan(&ctx, dag_ref, &estimates, &mut rho)
            };
            plan_generation = 1;
            for d in plan.deployments() {
                planned.insert(d.node);
                self.queue.schedule(
                    self.now + d.deploy_at,
                    Event::Deploy {
                        req,
                        node: d.node,
                        generation: plan_generation,
                    },
                );
            }
        }

        let plan_active = !planned.is_empty();
        let planned_count = planned.len() as u64;
        let state = RunState {
            workflow,
            dag: dag.clone(),
            implicit: entry.implicit,
            trigger: self.now,
            xor_choice,
            activated,
            required_in,
            delivered_in: vec![0; dag.len()],
            invoked: vec![false; dag.len()],
            completed: vec![false; dag.len()],
            service,
            remaining,
            planned,
            plan_generation,
            plan_active,
            spawned: Vec::new(),
            cold_starts: 0,
            warm_starts: 0,
            misses: 0,
            had_plan: plan_active,
            plan_cancelled: false,
            fault_attempts: vec![0; dag.len()],
            faults: 0,
            retries: 0,
            locus: None,
        };
        let idx = req as usize;
        if self.runs.len() <= idx {
            self.runs.resize_with(idx + 1, || None);
        }
        debug_assert!(self.runs[idx].is_none(), "request id reused");
        self.runs[idx] = Some(Box::new(state));
        self.active_runs += 1;
        if self.observing() {
            let name = self.workflow_ids.resolve(workflow).to_string();
            self.emit(BusEvent::RequestTriggered {
                request: req,
                workflow: name,
            });
        }
        if plan_active && self.observing() {
            let name = self.workflow_ids.resolve(workflow).to_string();
            self.emit(BusEvent::PlanComputed {
                request: req,
                workflow: name,
                planned: planned_count,
            });
        }
        if plan_generation != 0 && self.observing() {
            let policy = self.policy.label().to_string();
            self.emit(BusEvent::PolicyDecision {
                request: req,
                policy,
                planned: planned_count,
                reason: "trigger".to_string(),
            });
        }

        // Dispatch roots through the reverse proxy.
        for root in dag.roots() {
            let overhead = self.sample_overhead();
            self.queue.schedule(
                self.now + overhead,
                Event::Invoke {
                    req,
                    node: root,
                    parent: None,
                },
            );
        }
    }

    fn on_deploy(&mut self, req: u64, node: NodeId, generation: u32) {
        let Some(run) = self.run(req) else {
            return; // request already finished
        };
        if !run.plan_active || run.plan_generation != generation {
            return; // plan was cancelled or replaced (prediction miss)
        }
        let dag = run.dag.clone();
        let spec = dag.node(node).spec();
        // Skip when a warm or in-flight worker already covers the function
        // (e.g. kept warm from a previous request).
        if self.usable_worker_exists(spec.name()) {
            return;
        }
        let allow_retarget = self.policy.allows_retarget();
        if allow_retarget && self.try_retarget(req, spec) {
            return;
        }
        self.provision_worker(req, spec, false, false);
    }

    fn on_invoke(&mut self, req: u64, node: NodeId, parent: Option<NodeId>) {
        let Some(run) = self.run_mut(req) else {
            return;
        };
        if run.invoked[node.index()] {
            return; // defensive: barrier delivered twice
        }
        run.invoked[node.index()] = true;
        let dag = run.dag.clone();
        let function = dag.node(node).spec().name();
        let parent_name = parent.map(|p| dag.node(p).spec().name());
        if self.observing() {
            self.emit(BusEvent::FunctionInvoked {
                request: req,
                function: function.to_string(),
                node: node.index() as u64,
            });
        }

        // Branch detection + request correlation (implicit-chain learning).
        // Invoke delays are measured against the parent's *execution start*
        // (logged by the reverse proxy at dispatch time), so the learned
        // delay reflects the parent's behaviour rather than however long it
        // happened to wait for a sandbox on this particular run.
        self.detector.observe_request(function, parent_name);
        if let Some(pn) = parent_name {
            if let Some(delay) = self
                .correlator
                .observe_child_arrival(pn, function, self.now)
            {
                self.metrics.record_invoke_delay(pn, function, delay);
            }
        }

        // Prediction-miss detection. Misses keep counting after the plan
        // is cancelled (the chain keeps deviating from what was predicted);
        // the miss *policy* fires per unplanned invocation but cancellation
        // happens only once.
        let run = self.run_mut(req).expect("run exists");
        if run.had_plan && !run.planned.contains(node) {
            run.misses += 1;
            self.on_prediction_miss(req, node);
        }

        // Worker acquisition via the resource allocator.
        self.dispatch_node(req, node);
    }

    /// Routes one invocation of `node` to a worker: the resource-allocator
    /// half of [`on_invoke`](Self::on_invoke), also used to re-dispatch
    /// attempts orphaned by crashes or aborted by timeouts. Prefers a warm
    /// worker, then in-flight provisioning, then (under
    /// [`MissPolicy::ReplanAndReuse`]) retargeting a compatible co-located
    /// spare, then a fresh on-demand provision. Once the fault-retry budget
    /// is exhausted the attempt is
    /// *shielded*: a fresh worker exempt from fault injection, so every
    /// request terminates under any fault schedule.
    fn dispatch_node(&mut self, req: u64, node: NodeId) {
        let run = self.run(req).expect("run exists");
        let dag = run.dag.clone();
        let spec = dag.node(node).spec();
        let function = spec.name();
        let invoked_at = self.now;
        let shielded = (self.faults.enabled() || self.faults.hosts_enabled())
            && run.fault_attempts[node.index()] >= self.config.faults.max_retries;
        let fresh = |p: &mut Self| {
            let (worker, ready_at) = p
                .provision_worker(req, spec, true, shielded)
                .expect("on-demand provisioning always yields a worker");
            (worker, ready_at, Acquired::Fresh)
        };
        let (worker, ready_at, acquired) = if shielded {
            fresh(self)
        } else if let Some(worker) = self.find_claimable_warm(function) {
            (worker, self.now, Acquired::Warm)
        } else if let Some((worker, ready_at)) = self.find_claimable_pending(function) {
            (worker, ready_at, Acquired::Pending)
        } else if self.policy.allows_retarget() && self.try_retarget(req, spec) {
            // Future work §7: a mispredicted branch left this request a
            // compatible unused spare (co-located when running clustered).
            // Retargeting it serves the dispatch warm instead of paying an
            // on-demand cold start.
            let worker = self
                .find_claimable_warm(function)
                .expect("retargeting produced a warm worker for this function");
            (worker, self.now, Acquired::Warm)
        } else {
            fresh(self)
        };
        self.claimed.insert(worker);
        let dispatch = self.provider.warm_dispatch(spec.isolation_level());
        self.queue.schedule(
            ready_at.max(self.now) + dispatch,
            Event::ExecStart {
                req,
                node,
                worker,
                acquired,
                invoked_at,
            },
        );
    }

    fn on_redispatch(&mut self, req: u64, node: NodeId) {
        if self.run(req).is_some() {
            self.dispatch_node(req, node);
        }
    }

    fn on_worker_ready(&mut self, worker: WorkerId) {
        // The worker's provisioning burst on its host is over: it stops
        // contending with concurrent cold starts there.
        self.cluster.worker_ready(worker);
        if self.pool.mark_ready(worker) && self.observing() {
            self.emit(BusEvent::WorkerReady { worker: worker.0 });
        }
    }

    fn on_exec_start(
        &mut self,
        req: u64,
        node: NodeId,
        worker: WorkerId,
        acquired: Acquired,
        invoked_at: SimTime,
    ) {
        self.claimed.remove(&worker);
        let Some(run) = self.run_mut(req) else {
            // Request finished while we were waiting (should not happen for
            // activated nodes); release the claim.
            return;
        };
        let dag = run.dag.clone();
        let spec = dag.node(node).spec();
        let function = spec.name();
        let level = spec.isolation_level();
        // Observed startup latency: invocation to execution start.
        let startup_wait = self.now.saturating_since(invoked_at);
        // A speculated worker that was *almost* ready counts warm: if the
        // residual wait is a small fraction of a real cold start, the
        // request effectively observed a warm start (this is what a
        // latency-threshold measurement like the paper's Figure 6
        // classification would report).
        let near_ready =
            startup_wait.as_millis_f64() <= 0.2 * self.provider.mean_cold_start_ms(level);
        let warm_start = match acquired {
            Acquired::Warm => true,
            Acquired::Fresh => false,
            Acquired::Pending => near_ready,
        };
        let run = self.run_mut(req).expect("run exists");
        if warm_start {
            run.warm_starts += 1;
        } else {
            run.cold_starts += 1;
        }
        if self.cluster_enabled {
            let host = self.cluster.host_of(worker);
            let locus = self.run(req).and_then(|r| r.locus);
            if !warm_start {
                match (locus, host) {
                    (Some(locus), Some(host)) if locus != host => self.cross_host_cold += 1,
                    (Some(_), Some(_)) => self.same_host_cold += 1,
                    _ => {} // first hop of the chain, or an overcommitted worker
                }
            }
            if host.is_some() {
                self.run_mut(req).expect("run exists").locus = host;
            }
        }
        if acquired != Acquired::Warm {
            self.metrics.record_startup(function, startup_wait);
        }
        if self.observing() {
            self.emit(BusEvent::ExecStarted {
                request: req,
                function: function.to_string(),
                worker: worker.0,
                warm: acquired == Acquired::Warm,
                queue_wait_ms: startup_wait.as_millis_f64(),
            });
        }
        let run = self.run_mut(req).expect("run exists");

        let mut service = run.service[node.index()];
        let attempt = run.fault_attempts[node.index()];
        let shielded = attempt >= self.config.faults.max_retries;
        if self.faults.enabled() && !shielded {
            if let Some(factor) = self.faults.spike(req, node.index(), attempt) {
                service = service.mul_f64(factor);
            }
        }
        self.correlator.observe_arrival(function, self.now);
        self.pool.begin_exec(worker, self.now);
        if self.faults.enabled()
            && !shielded
            && service.as_millis_f64() > self.config.faults.timeout_ms
        {
            // The attempt would exceed the per-invocation timeout: abort
            // at the deadline and retry instead of completing.
            let timeout = SimDuration::from_millis_f64(self.config.faults.timeout_ms);
            self.queue.schedule(
                self.now + timeout,
                Event::ExecTimeout {
                    req,
                    node,
                    worker,
                    began: self.now,
                },
            );
        } else {
            self.queue.schedule(
                self.now + service,
                Event::ExecEnd {
                    req,
                    node,
                    worker,
                    began: self.now,
                },
            );
        }
    }

    fn on_exec_end(&mut self, req: u64, node: NodeId, worker: WorkerId, began: SimTime) {
        let exec_duration = self.now.saturating_since(began);
        self.pool.end_exec(worker, began, self.now);
        // Warm-cap eviction latency is charged to future provisions via
        // max_live, not retroactively here; only the host memory returns.
        // Claimed workers (dispatch in flight) are exempt from eviction.
        for evicted in self.pool.enforce_warm_cap(self.now, &self.claimed) {
            self.evict_worker(evicted);
        }

        let run = self.run_mut(req).expect("run exists");
        let dag = run.dag.clone();
        let spec = dag.node(node).spec();
        let function = spec.name();
        self.metrics.record_warm_runtime(function, exec_duration);
        if self.observing() {
            self.emit(BusEvent::ExecEnded {
                request: req,
                function: function.to_string(),
                worker: worker.0,
                exec_ms: exec_duration.as_millis_f64(),
            });
        }

        // Replenish the static pre-warm pool: the used worker stays warm,
        // but if churn (eviction/misses) dropped the function below its
        // pool size, provision a replacement now.
        if self.config.static_prewarm > 0 {
            let available = self.pool.warm_count(function) + self.pool.provisioning_count(function);
            if available < self.config.static_prewarm {
                self.provision_worker(POOL_OWNER, spec, false, false);
            }
        }

        let run = self.run_mut(req).expect("run exists");
        run.completed[node.index()] = true;
        run.remaining -= 1;

        // Reveal this node's outgoing activations and deliver barriers,
        // without cloning the firing set: split borrows let the barrier
        // counters update while the XOR choice is read in place.
        let mut to_invoke: Vec<NodeId> = Vec::new();
        {
            let RunState {
                xor_choice,
                delivered_in,
                required_in,
                ..
            } = run;
            let mut deliver = |child: NodeId| {
                delivered_in[child.index()] += 1;
                if delivered_in[child.index()] == required_in[child.index()] {
                    to_invoke.push(child);
                }
            };
            match dag.node(node).branch_mode() {
                BranchMode::Multicast => {
                    for e in dag.children(node) {
                        deliver(e.to);
                    }
                }
                BranchMode::Xor => {
                    if let Some(group) = xor_choice.get(&node) {
                        for &child in group {
                            deliver(child);
                        }
                    }
                }
            }
        }
        for child in to_invoke {
            let overhead = self.sample_overhead();
            self.queue.schedule(
                self.now + overhead,
                Event::Invoke {
                    req,
                    node: child,
                    parent: Some(node),
                },
            );
        }

        let run = self.run(req).expect("run exists");
        if run.remaining == 0 {
            self.finalize_run(req);
        }
    }

    fn on_worker_crash(&mut self, worker: WorkerId) {
        // The worker may have been evicted, reaped, or discarded since its
        // crash was scheduled; a crash of a dead worker is a no-op.
        let Some(w) = self.pool.get(worker) else {
            return;
        };
        let function = w.function().to_string();
        let was_provisioning = w.state() == WorkerState::Provisioning;

        // Remove every scheduled event referencing the dead worker. The
        // (req, node) payloads among them are invocations orphaned by the
        // crash — whether waiting on dispatch (ExecStart) or mid-execution
        // (ExecEnd/ExecTimeout) — and are re-dispatched below.
        let removed = self.queue.drain_where(|e| match e {
            Event::WorkerReady { worker: w } => *w == worker,
            Event::ExecStart { worker: w, .. } => *w == worker,
            Event::ExecEnd { worker: w, .. } => *w == worker,
            Event::ExecTimeout { worker: w, .. } => *w == worker,
            _ => false,
        });
        // A worker is claimed by one invocation at a time and runs at most
        // one, so the crash orphans at most one.
        let mut orphans = removed.into_iter().filter_map(|(_, e)| match e {
            Event::ExecStart { req, node, .. }
            | Event::ExecEnd { req, node, .. }
            | Event::ExecTimeout { req, node, .. } => Some((req, node)),
            _ => None,
        });
        let orphan = orphans.next();
        assert!(orphans.next().is_none(), "a crash orphaned two invocations");
        self.claimed.remove(&worker);
        self.pool.crash(worker, self.now);
        self.cluster.release(worker);
        if self.observing() {
            self.emit(BusEvent::WorkerCrashed {
                worker: worker.0,
                function: function.clone(),
                request: orphan.map(|(req, _)| req),
            });
        }

        let Some((req, node)) = orphan else {
            if was_provisioning {
                // Nothing was waiting on this sandbox: a failed speculative
                // pre-deployment. Let the speculation engine decide.
                self.on_predeploy_failure(worker, &function);
            }
            return;
        };
        self.retry_attempt(req, node, false);
    }

    /// A sandbox died during startup with no invocation waiting on it: a
    /// failed speculative pre-deployment. While the retry budget lasts the
    /// deployment is re-submitted with backoff; afterwards the node is
    /// dropped from the plan so its eventual invocation is accounted as
    /// the prediction miss it is — never silently counted warm.
    fn on_predeploy_failure(&mut self, worker: WorkerId, function: &str) {
        let Some(req) = self.spawner_of(worker) else {
            return;
        };
        if req == POOL_OWNER {
            return; // static pre-warm pool: replenished on next use
        }
        let Some(run) = self.run(req) else {
            return;
        };
        let Some(node) = run.dag.node_by_name(function) else {
            return;
        };
        if !run.plan_active || !run.planned.contains(node) || run.invoked[node.index()] {
            return;
        }
        let level = run.dag.node(node).spec().isolation_level();
        let attempt = run.fault_attempts[node.index()];
        let generation = run.plan_generation;
        let startup_ms = self.provider.mean_cold_start_ms(level);
        let action = self.policy.on_deploy_failure(
            node,
            attempt,
            self.config.faults.max_retries,
            startup_ms,
        );
        let run = self.run_mut(req).expect("run exists");
        run.fault_attempts[node.index()] += 1;
        run.faults += 1;
        if self.observing() {
            self.emit(BusEvent::DeployFailed {
                request: req,
                function: function.to_string(),
                attempt: u64::from(attempt) + 1,
            });
        }
        match action {
            DeployFailureAction::Retry { delay } => {
                self.queue.schedule(
                    self.now + delay,
                    Event::Deploy {
                        req,
                        node,
                        generation,
                    },
                );
            }
            DeployFailureAction::Drop => {
                self.run_mut(req).expect("run exists").planned.remove(node);
            }
        }
    }

    fn on_exec_timeout(&mut self, req: u64, node: NodeId, worker: WorkerId, began: SimTime) {
        // The sandbox survives — only the invocation is aborted; the
        // worker returns to the warm pool and the attempt is retried.
        self.pool.abort_exec(worker, began, self.now);
        self.retry_attempt(req, node, true);
    }

    /// Counts a failed attempt of `node` — orphaned by a crash, or timed
    /// out — and re-dispatches it after the attempt's backoff. A timeout
    /// emits [`BusEvent::InvokeTimeout`] before the retry's
    /// [`BusEvent::InvokeRetried`].
    fn retry_attempt(&mut self, req: u64, node: NodeId, timed_out: bool) {
        let Some(run) = self.run_mut(req) else {
            return;
        };
        let dag = run.dag.clone();
        let function = dag.node(node).spec().name();
        let attempt = run.fault_attempts[node.index()];
        run.fault_attempts[node.index()] += 1;
        run.faults += 1;
        run.retries += 1;
        let delay = self.config.faults.backoff(attempt);
        if self.observing() {
            let attempt = u64::from(attempt) + 1;
            if timed_out {
                self.emit(BusEvent::InvokeTimeout {
                    request: req,
                    function: function.to_string(),
                    attempt,
                });
            }
            self.emit(BusEvent::InvokeRetried {
                request: req,
                function: function.to_string(),
                attempt,
                backoff_ms: delay.as_millis_f64(),
            });
        }
        self.queue
            .schedule(self.now + delay, Event::Redispatch { req, node });
    }

    fn on_prediction_miss(&mut self, req: u64, actual: NodeId) {
        if self.observing() {
            let function = {
                let run = self.run(req).expect("run exists");
                run.dag.node(actual).spec().name().to_string()
            };
            self.emit(BusEvent::PredictionMiss {
                request: req,
                function,
                node: actual.index() as u64,
            });
        }
        let run = self.run(req).expect("run exists");
        let old_generation = run.plan_generation;
        let dag = run.dag.clone();
        let implicit = run.implicit;
        let trigger = run.trigger;

        let elapsed = self.now.saturating_since(trigger);
        let new_plan = {
            let estimates = PlatformEstimates {
                metrics: &self.metrics,
                provider: &self.provider,
                dag: &dag,
                implicit,
                hop_overhead_ms: self.config.orchestration_overhead.mean_ms(),
            };
            let ctx = PlanContext {
                now: self.now,
                estimates_epoch: self.metrics.epoch(),
                prob_epoch: 0,
            };
            let mut rho = |_: NodeId, _: NodeId| None;
            self.policy
                .on_miss(&ctx, &dag, &estimates, actual, elapsed, &mut rho)
        };
        match new_plan {
            None => {
                // "JIT deployment stops all planned proactive provisioning
                // as soon as it detects a prediction miss" (§3.2.2). Only
                // the first miss needs to cancel anything.
                let run = self.run_mut(req).expect("run exists");
                if run.plan_cancelled {
                    return;
                }
                run.plan_cancelled = true;
                run.plan_active = false;
                self.queue.cancel_where(|e| {
                    matches!(e, Event::Deploy { req: r, generation, .. }
                        if *r == req && *generation == old_generation)
                });
                // Discard speculative workers on the dead branch now.
                self.discard_wrong_path_workers(req);
            }
            Some(plan) => {
                self.queue.cancel_where(|e| {
                    matches!(e, Event::Deploy { req: r, generation, .. }
                        if *r == req && *generation == old_generation)
                });
                let run = self.run_mut(req).expect("run exists");
                run.plan_generation += 1;
                let generation = run.plan_generation;
                run.planned = plan.deployments().iter().map(|d| d.node).collect();
                // The node that caused the miss is obviously on the
                // actual path.
                run.planned.insert(actual);
                let planned_count = run.planned.len() as u64;
                for d in plan.deployments() {
                    self.queue.schedule(
                        trigger + d.deploy_at,
                        Event::Deploy {
                            req,
                            node: d.node,
                            generation,
                        },
                    );
                }
                if self.observing() {
                    let policy = self.policy.label().to_string();
                    self.emit(BusEvent::PolicyDecision {
                        request: req,
                        policy,
                        planned: planned_count,
                        reason: "miss".to_string(),
                    });
                }
            }
        }
    }

    fn finalize_run(&mut self, req: u64) {
        let run = self.runs[req as usize].take().expect("run exists");
        self.active_runs -= 1;
        let run = &run;
        // Discard speculated workers that never served (per-request
        // accounting hygiene; §3.2's discarded mispredictions).
        let mut request_costs = ResourceCosts::default();
        let rates = |provider: &SimSandboxProvider, w_iso| CpuRates {
            provision_rate: provider.provision_cpu_rate(w_iso),
            idle_rate: provider.idle_cpu_rate(w_iso),
        };
        for &wid in &run.spawned {
            let Some(w) = self.pool.get(wid) else {
                continue; // already reaped/evicted: accounted in dead records
            };
            let iso = w.isolation();
            // A worker claimed by another request's in-flight dispatch is
            // not discardable even if it has not served yet.
            let unused =
                w.served() == 0 && w.state() != WorkerState::Busy && !self.claimed.contains(&wid);
            let record = if unused && self.config.discard_unused_after_run {
                self.cluster.release(wid);
                self.pool.kill(wid, self.now)
            } else {
                self.pool.get(wid).map(|w| w.snapshot(self.now))
            };
            if let Some(r) = record {
                request_costs.add(xanadu_core::cost::worker_resource_cost(
                    &r,
                    rates(&self.provider, iso),
                ));
            }
        }

        let end_to_end = self.now.saturating_since(run.trigger);
        let exec_reference = run.exec_reference();
        let overhead = end_to_end.saturating_sub(exec_reference);
        let executed = run.completed.iter().filter(|&&c| c).count() as u32;
        let result = RunResult {
            request: req,
            workflow: self.workflow_ids.resolve(run.workflow).to_string(),
            trigger: run.trigger,
            end: self.now,
            end_to_end,
            exec_reference,
            overhead,
            cold_starts: run.cold_starts,
            warm_starts: run.warm_starts,
            misses: run.misses,
            workers_spawned: run.spawned.len() as u32,
            executed_functions: executed,
            resources: request_costs,
            faults: run.faults,
            retries: run.retries,
        };
        // Feedback for learning policies (a no-op for the default engine).
        self.policy.observe_completion(
            &result.workflow,
            &xanadu_core::policy::CompletionObservation {
                end_to_end_ms: end_to_end.as_millis_f64(),
                cold_starts: run.cold_starts,
                warm_starts: run.warm_starts,
                misses: run.misses,
                planned: run.planned.len() as u32,
                executed,
            },
        );
        if self.observing() {
            self.emit(BusEvent::RequestCompleted {
                request: req,
                workflow: result.workflow.clone(),
                overhead_ms: overhead.as_millis_f64(),
                end_to_end_ms: end_to_end.as_millis_f64(),
            });
        }
        self.results.push(result);
    }

    // ------------------------------------------------------------------
    // Worker management helpers
    // ------------------------------------------------------------------

    /// Kills a worker, releasing both its pool entry and its host memory.
    fn kill_worker(&mut self, id: WorkerId, now: SimTime) {
        self.pool.kill(id, now);
        self.cluster.release(id);
    }

    /// Forcibly evicts a worker (capacity/quota/warm-cap pressure):
    /// records the eviction against its host, emits [`BusEvent::WorkerEvicted`]
    /// for placed workers, then kills it. Emission is gated on an explicit
    /// cluster so default observed runs emit exactly the pre-cluster
    /// event stream.
    fn evict_worker(&mut self, id: WorkerId) {
        self.cluster.note_evicted(id);
        if self.cluster_enabled && self.observing() {
            if let Some(host) = self.cluster.host_of(id) {
                self.emit(BusEvent::WorkerEvicted {
                    worker: id.0,
                    host: host.0,
                });
            }
        }
        self.kill_worker(id, self.now);
    }

    fn usable_worker_exists(&self, function: &str) -> bool {
        let keep_alive = self.pool.config().keep_alive;
        self.pool.warm_workers(function).any(|w| {
            !self.claimed.contains(&w.id())
                && self.now.saturating_since(w.last_active()) <= keep_alive
        }) || self
            .pool
            .provisioning_workers(function)
            .any(|w| !self.claimed.contains(&w.id()))
    }

    fn find_claimable_warm(&self, function: &str) -> Option<WorkerId> {
        self.pool
            .warm_workers(function)
            .filter(|w| {
                !self.claimed.contains(&w.id())
                    && self.now >= w.ready_at()
                    && (self.is_pool_owned(w.id())
                        || self.now.saturating_since(w.last_active())
                            <= self.pool.config().keep_alive)
            })
            .max_by_key(|w| (w.last_active(), w.id()))
            .map(Worker::id)
    }

    fn is_pool_owned(&self, id: WorkerId) -> bool {
        self.spawner_of(id) == Some(POOL_OWNER)
    }

    fn find_claimable_pending(&self, function: &str) -> Option<(WorkerId, SimTime)> {
        self.pool
            .provisioning_workers(function)
            .filter(|w| !self.claimed.contains(&w.id()))
            .min_by_key(|w| (w.ready_at(), w.id()))
            .map(|w| (w.id(), w.ready_at()))
    }

    /// Provisions a fresh worker for `spec`, honouring the live-worker cap.
    /// Returns the worker id and its readiness time. `on_demand` marks a
    /// cold start observed by a waiting request (recorded in the profile);
    /// `shielded` exempts the worker from fault injection (the guaranteed
    /// final retry attempt).
    ///
    /// Returns `None` only for a *speculative* placement (`on_demand`
    /// false) refused by tenant admission (quota or weighted fair share)
    /// with no same-tenant warm worker to reclaim: the speculation is
    /// dropped rather than allowed to starve other tenants. On-demand
    /// provisioning always yields a worker — a saturated cluster
    /// overcommits (the worker runs unplaced) instead of failing the
    /// request.
    fn provision_worker(
        &mut self,
        req: u64,
        spec: &xanadu_chain::FunctionSpec,
        on_demand: bool,
        shielded: bool,
    ) -> Option<(WorkerId, SimTime)> {
        let mut extra = SimDuration::ZERO;
        if let Some(cap) = self.config.max_live {
            if self.pool.live_count() >= cap {
                // Evict the least recently active unclaimed warm worker to
                // make room (OpenWhisk's limited pool, §2.3).
                let victim = self
                    .pool
                    .warm_lru()
                    .find(|w| !self.claimed.contains(&w.id()))
                    .map(Worker::id);
                if let Some(v) = victim {
                    self.evict_worker(v);
                    extra = self.config.eviction_delay.sample(&mut self.rng_overhead);
                }
                // With no evictable worker the cap is soft: provisioning
                // proceeds (all workers busy implies the system is saturated
                // and the latency shows up elsewhere).
            }
        }

        let id = self.pool.next_worker_id();
        // Resolve the worker's tenant: the owner of its request's workflow
        // (pool-owned replenishments are platform-owned, tenantless).
        let tenant = match self.run(req) {
            Some(run) => {
                let workflow = run.workflow;
                self.workflows[workflow.index()].tenant
            }
            None => None,
        };
        let placement = PlacementRequest {
            worker: id,
            memory_mb: spec.memory(),
            request: (req != POOL_OWNER).then_some(req),
            tenant,
            on_demand,
        };
        // Ask the Dispatch Daemons for placement; a full cluster forces
        // warm-worker evictions first, and a cluster that stays full even
        // then overcommits (the worker runs unplaced). Quota/fair-share
        // refusals may only reclaim *same-tenant* warm workers.
        let mut placed: Option<HostId> = None;
        loop {
            match self.cluster.place_for(&placement) {
                Ok(host) => {
                    placed = Some(host);
                    break;
                }
                Err(e) => {
                    if e.is_admission() && !on_demand {
                        // Speculative placement refused by tenant admission:
                        // drop the speculation rather than evict warm state.
                        return None;
                    }
                    let victim = self
                        .pool
                        .warm_lru()
                        .find(|w| {
                            !self.claimed.contains(&w.id())
                                && (!e.is_admission() || self.cluster.tenant_of(w.id()) == tenant)
                        })
                        .map(Worker::id);
                    match victim {
                        Some(v) => {
                            self.evict_worker(v);
                            extra += self.config.eviction_delay.sample(&mut self.rng_overhead);
                            if !self.cluster_enabled {
                                // Single-testbed legacy semantics: one
                                // eviction, one retry, unplaced on failure —
                                // keeps default runs byte-identical.
                                if let Ok(host) = self.cluster.place_for(&placement) {
                                    placed = Some(host);
                                }
                                break;
                            }
                        }
                        None => {
                            self.cluster.note_overcommit();
                            break;
                        }
                    }
                }
            }
        }
        let cold = self
            .provider
            .cold_start(spec.isolation_level(), self.now + extra);
        // Provisioning contention (the host's `contention_alpha` curve):
        // concurrent cold starts on the same host inflate each other.
        // Zero on the default testbed and for unplaced workers.
        let penalty = placed.map_or(0.0, |host| self.cluster.contention_penalty(host));
        let cold_total = if penalty > 0.0 {
            cold.total().mul_f64(1.0 + penalty)
        } else {
            cold.total()
        };
        let ready_at = self.now + extra + cold_total;
        let worker = Worker::provisioning(
            id,
            spec.name(),
            spec.isolation_level(),
            spec.memory(),
            self.now,
            ready_at,
        );
        self.pool.insert(worker);
        self.set_spawner(id, req);
        if let Some(run) = self.run_mut(req) {
            run.spawned.push(id);
        }
        self.queue
            .schedule(ready_at, Event::WorkerReady { worker: id });
        if shielded {
            self.shielded_workers.insert(id);
        } else if let Some(crash_at) = self.faults.crash_time(id.0, self.now, ready_at) {
            self.queue
                .schedule(crash_at, Event::WorkerCrash { worker: id });
        }
        let total_wait = extra + cold_total;
        if let Some(host) = placed {
            if self.cluster_enabled && self.observing() {
                self.emit(BusEvent::WorkerPlaced {
                    worker: id.0,
                    host: host.0,
                    request: req,
                    memory_mb: spec.memory(),
                });
            }
        }
        if self.observing() {
            self.emit(BusEvent::WorkerProvisioned {
                worker: id.0,
                request: req,
                function: spec.name().to_string(),
                cold_start_ms: cold_total.as_millis_f64(),
                ready_in_ms: total_wait.as_millis_f64(),
                on_demand,
            });
        }
        self.metrics.record_cold_start(spec.name(), total_wait);
        self.maybe_scale_up();
        Some((id, ready_at))
    }

    /// Attempts to reuse a compatible unused warm worker for `spec` by
    /// re-targeting it (future work §7). Returns whether a worker was
    /// reused.
    fn try_retarget(&mut self, req: u64, spec: &xanadu_chain::FunctionSpec) -> bool {
        // LRU order makes the pick deterministic (oldest compatible spare
        // first); the old any-order scan depended on hash-map iteration.
        // A spare on another host is no use against a *cascading* cold
        // start — the chain's state is on the locus host — so only
        // co-located (or unplaced) spares qualify. Single-host clusters
        // always pass the gate, preserving pre-cluster behaviour.
        let locus = self.run(req).and_then(|r| r.locus);
        let candidate = self
            .pool
            .warm_lru()
            .find(|w| {
                w.served() == 0
                    && !self.claimed.contains(&w.id())
                    && w.isolation() == spec.isolation_level()
                    && w.memory_mb() == spec.memory()
                    && self.spawner_of(w.id()) == Some(req)
                    && match (locus, self.cluster.host_of(w.id())) {
                        (Some(locus), Some(host)) => locus == host,
                        _ => true,
                    }
            })
            .map(Worker::id);
        match candidate {
            Some(id) => {
                let reused = self.pool.retarget(id, spec.name()).is_ok();
                if reused && self.cluster_enabled {
                    self.retargets_colocated += 1;
                }
                reused
            }
            None => false,
        }
    }

    /// Kills speculative workers of this request whose functions are not on
    /// the actual (activated) path and have not served.
    fn discard_wrong_path_workers(&mut self, req: u64) {
        let Some(run) = self.run(req) else {
            return;
        };
        let dag = run.dag.clone();
        let activated_functions: HashSet<&str> = dag
            .node_ids()
            .filter(|n| run.activated[n.index()])
            .map(|n| dag.node(n).spec().name())
            .collect();
        let victims: Vec<WorkerId> = run
            .spawned
            .iter()
            .copied()
            .filter(|&wid| {
                !self.claimed.contains(&wid)
                    && self.pool.get(wid).is_some_and(|w| {
                        w.served() == 0
                            && w.state() != WorkerState::Busy
                            && !activated_functions.contains(w.function())
                    })
            })
            .collect();
        for wid in victims {
            self.kill_worker(wid, self.now);
        }
    }

    fn sample_overhead(&mut self) -> SimDuration {
        self.config
            .orchestration_overhead
            .sample(&mut self.rng_overhead)
    }
}

impl fmt::Debug for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Platform")
            .field("label", &self.config.label)
            .field("now", &self.now)
            .field("live_workers", &self.pool.live_count())
            .field("pending_events", &self.queue.len())
            .field("completed", &self.results.len())
            .finish()
    }
}

/// Computes the total resource cost of a full report using the calibrated
/// default CPU rates (convenience for experiments that do not need
/// per-request attribution).
pub fn report_total_costs(report: &PlatformReport) -> ResourceCosts {
    let provider = SimSandboxProvider::new(0);
    total_resource_cost(&report.worker_records, |r| CpuRates {
        provision_rate: provider.provision_cpu_rate(r.isolation),
        idle_rate: provider.idle_cpu_rate(r.isolation),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::MetricsRegistry;
    use crate::stream::{SloConfig, SloMonitor, StreamingAudit, StreamingConfig};
    use xanadu_chain::{linear_chain, FunctionSpec, WorkflowBuilder};
    use xanadu_core::speculation::{ExecutionMode, MissPolicy};
    use xanadu_sandbox::PoolConfig;

    fn chain(n: usize, service_ms: f64) -> WorkflowDag {
        linear_chain("chain", n, &FunctionSpec::new("f").service_ms(service_ms)).unwrap()
    }

    fn run_once(mode: ExecutionMode, dag: WorkflowDag) -> PlatformReport {
        let mut p = Platform::new(PlatformConfig::for_mode(mode, 42));
        p.deploy(dag).unwrap();
        p.trigger_at("chain", SimTime::ZERO).unwrap();
        p.run_until_idle();
        p.finish()
    }

    #[test]
    fn plan_cache_hits_across_identical_triggers() {
        let mut p = Platform::new(PlatformConfig::for_mode(ExecutionMode::Jit, 42));
        p.deploy(chain(4, 500.0)).unwrap();
        // Both triggers plan before any execution happens, so the metrics
        // epoch is unchanged between them: one miss, one hit.
        p.trigger_at("chain", SimTime::ZERO).unwrap();
        p.trigger_at("chain", SimTime::ZERO).unwrap();
        p.run_until_idle();
        let stats = p.plan_cache_stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.hits, 1, "{stats:?}");

        // By now the completed runs have recorded cold starts and
        // runtimes, so the profiled estimates moved: the cached plan is
        // stale and a later trigger must recompute.
        let later = p.now() + SimDuration::from_mins(10);
        p.trigger_at("chain", later).unwrap();
        p.run_until_idle();
        let stats = p.plan_cache_stats();
        assert_eq!(stats.misses, 2, "{stats:?}");
        assert_eq!(stats.hits, 1, "{stats:?}");
    }

    #[test]
    fn plan_cache_does_not_change_results() {
        let run = |cache_on: bool| {
            let cfg = PlatformConfig::builder()
                .for_mode(ExecutionMode::Jit, 42)
                .plan_cache(cache_on)
                .build()
                .unwrap();
            let mut p = Platform::new(cfg);
            p.deploy(chain(6, 1000.0)).unwrap();
            for i in 0..5u64 {
                p.trigger_at("chain", SimTime::from_secs(i * 2)).unwrap();
            }
            p.run_until_idle();
            p.finish()
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on.results, off.results);
    }

    #[test]
    fn cold_chain_overhead_grows_linearly() {
        let mut overheads = Vec::new();
        for n in [1usize, 3, 5] {
            let report = run_once(ExecutionMode::Cold, chain(n, 500.0));
            assert_eq!(report.results.len(), 1);
            let r = &report.results[0];
            assert_eq!(r.executed_functions, n as u32);
            assert_eq!(r.cold_starts, n as u32);
            assert_eq!(r.warm_starts, 0);
            overheads.push(r.overhead.as_millis_f64());
        }
        // Roughly one container cold start (~3s) per chain hop.
        assert!(
            overheads[0] > 2500.0 && overheads[0] < 4000.0,
            "{overheads:?}"
        );
        assert!(
            overheads[2] > 4.0 * overheads[0] * 0.8,
            "linear growth: {overheads:?}"
        );
    }

    #[test]
    fn speculative_chain_has_near_constant_overhead() {
        let shallow = run_once(ExecutionMode::Speculative, chain(2, 5000.0));
        let deep = run_once(ExecutionMode::Speculative, chain(8, 5000.0));
        let o2 = shallow.results[0].overhead.as_millis_f64();
        let o8 = deep.results[0].overhead.as_millis_f64();
        // Overhead must not cascade: depth 8 within 2x of depth 2 (one cold
        // start plus dispatch noise), not 4x.
        assert!(o8 < o2 * 2.0, "o2={o2} o8={o8}");
        // All but the root should be warm starts.
        assert_eq!(deep.results[0].warm_starts, 7);
        assert_eq!(deep.results[0].cold_starts, 1);
    }

    #[test]
    fn jit_matches_speculative_latency_but_cheaper_memory() {
        let spec = run_once(ExecutionMode::Speculative, chain(8, 5000.0));
        let jit = run_once(ExecutionMode::Jit, chain(8, 5000.0));
        let spec_overhead = spec.results[0].overhead.as_millis_f64();
        let jit_overhead = jit.results[0].overhead.as_millis_f64();
        assert!(
            jit_overhead < spec_overhead * 1.5,
            "jit {jit_overhead} vs spec {spec_overhead}"
        );
        let spec_mem = spec.results[0].resources.mem_mbs;
        let jit_mem = jit.results[0].resources.mem_mbs;
        assert!(
            jit_mem < spec_mem / 3.0,
            "jit mem {jit_mem} vs spec mem {spec_mem}"
        );
    }

    #[test]
    fn warm_reuse_across_requests() {
        let mut p = Platform::new(PlatformConfig::for_mode(ExecutionMode::Cold, 1));
        p.deploy(chain(3, 500.0)).unwrap();
        p.trigger_at("chain", SimTime::ZERO).unwrap();
        p.trigger_at("chain", SimTime::from_mins(1)).unwrap();
        p.run_until_idle();
        let report = p.finish();
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.results[0].cold_starts, 3);
        // Second request within keep-alive: all warm.
        assert_eq!(report.results[1].cold_starts, 0);
        assert_eq!(report.results[1].warm_starts, 3);
        // Warm overhead: 3 hops of (≈100ms container dispatch + ≈20ms
        // orchestration) — far below a single cold start.
        assert!(
            report.results[1].overhead.as_millis_f64() < 600.0,
            "warm overhead small, got {}",
            report.results[1].overhead.as_millis_f64()
        );
    }

    #[test]
    fn keep_alive_expiry_causes_cold_starts() {
        let cfg = PlatformConfig::builder()
            .for_mode(ExecutionMode::Cold, 1)
            .pool(PoolConfig {
                keep_alive: SimDuration::from_mins(10),
                max_warm: None,
            })
            .build()
            .unwrap();
        let mut p = Platform::new(cfg);
        p.deploy(chain(2, 500.0)).unwrap();
        p.trigger_at("chain", SimTime::ZERO).unwrap();
        p.trigger_at("chain", SimTime::from_mins(30)).unwrap();
        p.run_until_idle();
        let report = p.finish();
        assert_eq!(report.results[1].cold_starts, 2, "keep-alive expired");
    }

    #[test]
    fn xor_miss_detection_and_stop() {
        // Ground truth heavily favours `hot`, but force the actual draw to
        // take `cold` by seeding: try seeds until a miss occurs.
        let mut saw_miss = false;
        for seed in 0..50 {
            let mut b = WorkflowBuilder::new("chain");
            let a = b.add(FunctionSpec::new("a").service_ms(1000.0)).unwrap();
            let hot = b.add(FunctionSpec::new("hot").service_ms(1000.0)).unwrap();
            let cold = b.add(FunctionSpec::new("cold").service_ms(1000.0)).unwrap();
            b.link_xor(a, &[(hot, 0.7), (cold, 0.3)]).unwrap();
            let dag = b.build().unwrap();
            let mut p = Platform::new(PlatformConfig::for_mode(ExecutionMode::Speculative, seed));
            p.deploy(dag).unwrap();
            p.trigger_at("chain", SimTime::ZERO).unwrap();
            p.run_until_idle();
            let report = p.finish();
            let r = &report.results[0];
            assert_eq!(r.executed_functions, 2);
            if r.misses > 0 {
                saw_miss = true;
                // The hot worker was speculated but discarded unused.
                assert!(report
                    .worker_records
                    .iter()
                    .any(|w| w.function == "hot" && !w.ever_used));
                break;
            }
        }
        assert!(saw_miss, "no seed produced a prediction miss");
    }

    #[test]
    fn implicit_chain_learns_and_converges() {
        let dag = chain(3, 500.0);
        // Requests are spaced beyond the 10 min keep-alive so every request
        // starts with no warm workers: any warm start must come from
        // learned speculation.
        let cfg = PlatformConfig::for_mode(ExecutionMode::Speculative, 5);
        let mut p = Platform::new(cfg);
        p.deploy_implicit(dag).unwrap();
        // First request: nothing learned, runs cold.
        p.trigger_at("chain", SimTime::ZERO).unwrap();
        p.run_until_idle();
        assert_eq!(p.results()[0].warm_starts, 0);
        // After learning, later requests should speculate successfully.
        for i in 1..5 {
            p.trigger_at("chain", SimTime::from_mins(i * 20)).unwrap();
            p.run_until_idle();
        }
        let report = p.finish();
        let last = report.results.last().unwrap();
        assert!(
            last.warm_starts >= 2,
            "learned speculation warms the chain: {last:?}"
        );
        assert!(
            last.overhead.as_millis_f64() < report.results[0].overhead.as_millis_f64(),
            "overhead shrinks after learning"
        );
    }

    #[test]
    fn max_live_cap_adds_eviction_latency() {
        let dag = chain(5, 500.0);
        let mut capped = PlatformConfig::for_mode(ExecutionMode::Cold, 3).labeled("capped");
        capped.max_live = Some(4);
        let mut p = Platform::new(capped);
        p.deploy(dag.clone()).unwrap();
        p.trigger_at("chain", SimTime::ZERO).unwrap();
        p.run_until_idle();
        let capped_overhead = p.results()[0].overhead.as_millis_f64();

        let mut free = Platform::new(PlatformConfig::for_mode(ExecutionMode::Cold, 3));
        free.deploy(dag).unwrap();
        free.trigger_at("chain", SimTime::ZERO).unwrap();
        free.run_until_idle();
        let free_overhead = free.results()[0].overhead.as_millis_f64();
        assert!(
            capped_overhead > free_overhead + 300.0,
            "eviction penalty visible: capped {capped_overhead} vs free {free_overhead}"
        );
    }

    #[test]
    fn deploy_errors() {
        let mut p = Platform::new(PlatformConfig::default());
        p.deploy(chain(2, 100.0)).unwrap();
        assert!(matches!(
            p.deploy(chain(2, 100.0)),
            Err(PlatformError::AlreadyDeployed(_))
        ));
        assert!(matches!(
            p.trigger_at("ghost", SimTime::ZERO),
            Err(PlatformError::UnknownWorkflow(_))
        ));
    }

    #[test]
    fn declared_outputs_drive_conditionals_deterministically() {
        // The conditional says success with probability 0.9, but ingest's
        // declared output fails the `score >= 10` check — the fail branch
        // must be taken on *every* request.
        let doc = r#"{
            "ingest": {"type": "function", "wait_for": [], "service_ms": 100,
                        "conditional": "check",
                        "output": {"score": 3}},
            "check": {"type": "conditional", "wait_for": ["ingest"],
                       "condition": {"op1": "ingest.score", "op2": 10, "op": "gte"},
                       "success": "fast", "fail": "slow",
                       "success_probability": 0.9},
            "fast": {"type": "branch",
                "approve": {"type": "function", "wait_for": [], "service_ms": 50}},
            "slow": {"type": "branch",
                "review": {"type": "function", "wait_for": [], "service_ms": 500}}
        }"#;
        let mut p = Platform::new(PlatformConfig::for_mode(ExecutionMode::Cold, 3));
        p.deploy_sdl("cond", doc).unwrap();
        for i in 0..10 {
            p.trigger_at("cond", SimTime::from_mins(i * 20)).unwrap();
        }
        p.run_until_idle();
        for (req, r) in p.results().iter().enumerate() {
            assert_eq!(r.executed_functions, 2);
            let trace = p.trace(req as u64).expect("trace");
            assert!(
                trace.exec_interval("review").is_some(),
                "fail branch taken every time"
            );
            assert!(trace.exec_interval("approve").is_none());
        }

        // Without an output the probability governs: over 10 requests the
        // 0.9-success branch dominates.
        let doc_no_output =
            doc.replace(",\n                        \"output\": {\"score\": 3}", "");
        let mut p = Platform::new(PlatformConfig::for_mode(ExecutionMode::Cold, 3));
        p.deploy_sdl("cond", &doc_no_output).unwrap();
        for i in 0..10 {
            p.trigger_at("cond", SimTime::from_mins(i * 20)).unwrap();
        }
        p.run_until_idle();
        let approvals = (0..10)
            .filter(|&req| {
                p.trace(req as u64)
                    .is_some_and(|t| t.exec_interval("approve").is_some())
            })
            .count();
        assert!(
            approvals >= 6,
            "probability draw favours success: {approvals}"
        );
    }

    #[test]
    fn deploy_sdl_works_end_to_end() {
        let doc = r#"{
            "a": {"type": "function", "wait_for": [], "service_ms": 100},
            "b": {"type": "function", "wait_for": ["a"], "service_ms": 100}
        }"#;
        let mut p = Platform::new(PlatformConfig::for_mode(ExecutionMode::Jit, 9));
        p.deploy_sdl("sdl-flow", doc).unwrap();
        p.trigger_at("sdl-flow", SimTime::ZERO).unwrap();
        p.run_until_idle();
        let report = p.finish();
        assert_eq!(report.results[0].executed_functions, 2);
    }

    /// Records every delivered event with its simulation time.
    #[derive(Default)]
    struct Recording(Vec<(SimTime, BusEvent)>);

    impl Observer for Recording {
        fn on_event(&mut self, at: SimTime, event: &BusEvent) {
            self.0.push((at, event.clone()));
        }
    }

    #[test]
    fn bus_and_metastore_observe_lifecycle() {
        let mut p = Platform::new(PlatformConfig::for_mode(ExecutionMode::Cold, 2));
        let recording = p.attach_observer(Recording::default());
        p.deploy(chain(2, 100.0)).unwrap();
        p.trigger_at("chain", SimTime::ZERO).unwrap();
        p.run_until_idle();
        let events = recording.with(|r| r.0.clone());
        assert_eq!(events.len() as u64, p.published_events());
        let completions = events
            .iter()
            .filter(|(_, e)| matches!(e, BusEvent::RequestCompleted { .. }))
            .count();
        assert_eq!(completions, 1);
        let provisioned: Vec<&BusEvent> = events
            .iter()
            .map(|(_, e)| e)
            .filter(|e| matches!(e, BusEvent::WorkerProvisioned { .. }))
            .collect();
        assert_eq!(provisioned.len(), 2);
        assert!(provisioned.iter().all(|e| matches!(
            e,
            BusEvent::WorkerProvisioned {
                on_demand: true,
                ..
            }
        )));
        // Running writes no document: only persist_learned_state does.
        assert!(p.metastore().is_empty());
    }

    #[test]
    fn unobserved_platforms_emit_no_events() {
        // Trace recording is a form of observation: it reads every event.
        let config = PlatformConfig::builder()
            .for_mode(ExecutionMode::Jit, 2)
            .record_traces(false)
            .build()
            .unwrap();
        let mut p = Platform::new(config);
        p.deploy(chain(3, 100.0)).unwrap();
        p.trigger_at("chain", SimTime::ZERO).unwrap();
        p.run_until_idle();
        assert_eq!(p.published_events(), 0, "no observers ⇒ no events built");
    }

    #[test]
    fn attached_observer_turns_emission_on_and_aggregates() {
        let config = PlatformConfig::builder()
            .for_mode(ExecutionMode::Jit, 2)
            .record_traces(false)
            .build()
            .unwrap();
        let mut p = Platform::new(config);
        let metrics = p.attach_observer(MetricsRegistry::new());
        p.deploy(chain(3, 100.0)).unwrap();
        p.trigger_at("chain", SimTime::ZERO).unwrap();
        p.run_until_idle();
        assert!(p.published_events() > 0);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("requests.triggered"), 1);
        assert_eq!(snap.counter("requests.completed"), 1);
        assert_eq!(
            snap.counter("starts.cold") + snap.counter("starts.warm"),
            3,
            "every executed function started exactly once: {snap:?}"
        );
        p.finish();
        assert_eq!(metrics.snapshot(), snap, "teardown emits nothing");
    }

    /// Observers read the run; they never steer it. A run with the audit,
    /// SLO and metrics observers attached serializes to the same report
    /// bytes as one that constructs no events at all.
    #[test]
    fn observer_presence_does_not_change_results() {
        let run = |observe: bool| {
            let config = PlatformConfig::builder()
                .for_mode(ExecutionMode::Jit, 31)
                .record_traces(false)
                .faults(FaultConfig::with_rate(0.5, 0xFA17))
                .build()
                .unwrap();
            let mut p = Platform::new(config);
            if observe {
                p.attach_observer(StreamingAudit::new(StreamingConfig::default()));
                p.attach_observer(SloMonitor::collector(SloConfig::default()));
                p.attach_observer(MetricsRegistry::new());
            }
            p.deploy(chain(4, 300.0)).unwrap();
            for i in 0..3 {
                p.trigger_at("chain", SimTime::from_mins(i * 5)).unwrap();
            }
            p.run_until_idle();
            assert_eq!(p.published_events() > 0, observe);
            serde_json::to_string(&p.finish()).unwrap()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn learned_state_survives_platform_restart() {
        // Learn on one platform, persist, restore into a fresh platform:
        // the very first request on the new platform speculates correctly.
        let dag = chain(3, 500.0);
        let mut first = Platform::new(PlatformConfig::for_mode(ExecutionMode::Speculative, 5));
        first.deploy_implicit(dag.clone()).unwrap();
        for i in 0..4 {
            first
                .trigger_at("chain", SimTime::from_mins(i * 20))
                .unwrap();
            first.run_until_idle();
        }
        first.persist_learned_state();
        let store = first.metastore().clone();
        // The durable surface is exactly the two learned documents, the
        // ones serve checkpoints and resume reads.
        assert_eq!(store.len(), 2);
        assert!(store.get("learned/metrics").is_some());
        assert!(store.get("learned/branches").is_some());

        let mut second = Platform::new(PlatformConfig::for_mode(ExecutionMode::Speculative, 99));
        second.deploy_implicit(dag).unwrap();
        second.restore_learned_state(&store).unwrap();
        second.trigger_at("chain", SimTime::ZERO).unwrap();
        second.run_until_idle();
        let r = &second.results()[0];
        assert!(
            r.warm_starts >= 2,
            "restored model speculates immediately: {r:?}"
        );

        // Restoring from an empty store fails cleanly.
        let mut third = Platform::new(PlatformConfig::for_mode(ExecutionMode::Jit, 1));
        assert!(third
            .restore_learned_state(&crate::metastore::MetaStore::new())
            .is_err());
    }

    #[test]
    fn fan_out_fan_in_barrier_semantics() {
        // m:1 barrier at scale: an 8-wide fan where one worker is slow.
        let mut b = WorkflowBuilder::new("chain");
        let split = b.add(FunctionSpec::new("split").service_ms(100.0)).unwrap();
        let join = b.add(FunctionSpec::new("join").service_ms(100.0)).unwrap();
        for i in 0..8 {
            let ms = if i == 0 { 4000.0 } else { 300.0 };
            let w = b
                .add(FunctionSpec::new(format!("w{i}")).service_ms(ms))
                .unwrap();
            b.link(split, w).unwrap();
            b.link(w, join).unwrap();
        }
        let dag = b.build().unwrap();
        let report = run_once(ExecutionMode::Speculative, dag);
        let r = &report.results[0];
        assert_eq!(r.executed_functions, 10);
        // Reference is the slow branch: 100 + 4000 + 100.
        assert_eq!(r.exec_reference.as_millis_f64(), 4200.0);
        // With speculation all ten workers deploy at t=0: the whole fan
        // pays roughly one (contended) cold start.
        assert!(
            r.overhead.as_secs_f64() < 8.0,
            "no cascade across the fan: {r:?}"
        );
    }

    #[test]
    fn replan_and_reuse_retargets_compatible_workers() {
        // XOR where both arms have identical resource shape: on a miss the
        // replanner may retarget the mispredicted arm's worker.
        let mut saw_replan_benefit = false;
        for seed in 0..60 {
            let mut b = WorkflowBuilder::new("chain");
            let a = b.add(FunctionSpec::new("a").service_ms(4000.0)).unwrap();
            let hot = b.add(FunctionSpec::new("hot").service_ms(500.0)).unwrap();
            let cold = b.add(FunctionSpec::new("cold").service_ms(500.0)).unwrap();
            let tail = b.add(FunctionSpec::new("tail").service_ms(500.0)).unwrap();
            b.link_xor(a, &[(hot, 0.7), (cold, 0.3)]).unwrap();
            b.link(cold, tail).unwrap();
            let dag = b.build().unwrap();
            let cfg = PlatformConfig::builder()
                .for_mode(ExecutionMode::Jit, seed)
                .miss_policy(MissPolicy::ReplanAndReuse)
                .build()
                .unwrap();
            let mut p = Platform::new(cfg);
            p.deploy(dag).unwrap();
            p.trigger_at("chain", SimTime::ZERO).unwrap();
            p.run_until_idle();
            let report = p.finish();
            let r = &report.results[0];
            if r.misses > 0 && r.warm_starts >= 1 {
                saw_replan_benefit = true;
                break;
            }
        }
        assert!(saw_replan_benefit, "no seed exercised replan-and-reuse");
    }

    #[test]
    fn static_prewarm_pool_serves_warm_and_replenishes() {
        let cfg = PlatformConfig::builder()
            .for_mode(ExecutionMode::Cold, 9)
            .static_prewarm(1)
            .discard_unused_after_run(false) // pool workers persist
            .build()
            .unwrap();
        let mut p = Platform::new(cfg);
        p.deploy(chain(3, 300.0)).unwrap();
        // Requests spaced far past keep-alive: pool workers are exempt from
        // reclamation, so every request after warm-up is fully warm.
        for i in 0..3 {
            p.trigger_at("chain", SimTime::from_mins(5 + i * 30))
                .unwrap();
            p.run_until_idle();
        }
        for r in p.results() {
            assert_eq!(r.warm_starts, 3, "pool covers the whole chain: {r:?}");
            assert_eq!(r.cold_starts, 0);
        }
        // The pool never shrinks below one available worker per function.
        for f in ["f0", "f1", "f2"] {
            let available = p.pool.live_workers().filter(|w| w.function() == f).count();
            assert!(available >= 1, "{f} pool drained");
        }
        // And the steady-state bill is what the paper warns about: pool
        // workers idle the whole 65+ minutes between/after requests.
        let report = p.finish();
        let steady: f64 = report
            .worker_records
            .iter()
            .map(|r| {
                xanadu_core::cost::worker_steady_cost(
                    r,
                    xanadu_core::cost::CpuRates {
                        provision_rate: 1.0,
                        idle_rate: 0.01,
                    },
                )
                .mem_mbs
            })
            .sum();
        assert!(
            steady > 3.0 * 512.0 * 3000.0,
            "three 512MB workers idle for ~an hour each: {steady}"
        );
    }

    #[test]
    fn faulty_run_terminates_and_counts_faults() {
        let cfg = PlatformConfig::builder()
            .for_mode(ExecutionMode::Jit, 42)
            .faults(FaultConfig::with_rate(1.0, 7))
            .build()
            .unwrap();
        let mut p = Platform::new(cfg);
        p.deploy(chain(4, 2000.0)).unwrap();
        for i in 0..3u64 {
            p.trigger_at("chain", SimTime::from_secs(i * 60)).unwrap();
        }
        p.run_until_idle();
        let report = p.finish();
        assert_eq!(report.results.len(), 3, "every request terminates");
        for r in &report.results {
            assert_eq!(r.executed_functions, 4, "{r:?}");
        }
        let (faults, retries) = report.fault_counts();
        assert!(faults > 0, "rate 1.0 must inject");
        assert!(retries > 0);
        assert!(report.worker_records.iter().any(|w| w.crashed));
    }

    #[test]
    fn timeout_retries_until_shielded_attempt() {
        let cfg = PlatformConfig::builder()
            .for_mode(ExecutionMode::Cold, 11)
            .faults(FaultConfig {
                rate: 1.0,
                seed: 3,
                spike_factor: 100.0,
                timeout_ms: 5_000.0,
                max_retries: 2,
                backoff_ms: 100.0,
                ..FaultConfig::default()
            })
            .build()
            .unwrap();
        let mut p = Platform::new(cfg);
        p.deploy(chain(1, 1000.0)).unwrap();
        p.trigger_at("chain", SimTime::ZERO).unwrap();
        p.run_until_idle();
        let report = p.finish();
        let r = &report.results[0];
        // Every non-shielded attempt spikes 100x past the 5 s timeout (or
        // its worker crashes first); the shielded third attempt completes.
        assert_eq!(r.executed_functions, 1, "{r:?}");
        assert!(r.retries >= 2, "{r:?}");
        assert!(r.end_to_end > SimDuration::from_secs(10), "{r:?}");
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let run = || {
            let cfg = PlatformConfig::builder()
                .for_mode(ExecutionMode::Jit, 5)
                .faults(FaultConfig::with_rate(0.5, 21))
                .build()
                .unwrap();
            let mut p = Platform::new(cfg);
            p.deploy(chain(5, 1500.0)).unwrap();
            for i in 0..4u64 {
                p.trigger_at("chain", SimTime::from_secs(i * 20)).unwrap();
            }
            p.run_until_idle();
            p.finish()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_fault_rate_matches_faultless_config() {
        // An explicitly-zero fault config must not perturb any RNG stream:
        // results are identical to the default (fault-free) platform.
        let base = {
            let mut p = Platform::new(PlatformConfig::for_mode(ExecutionMode::Jit, 17));
            p.deploy(chain(4, 800.0)).unwrap();
            p.trigger_at("chain", SimTime::ZERO).unwrap();
            p.run_until_idle();
            p.finish()
        };
        let zeroed = {
            let cfg = PlatformConfig::builder()
                .for_mode(ExecutionMode::Jit, 17)
                .faults(FaultConfig::with_rate(0.0, 999))
                .build()
                .unwrap();
            let mut p = Platform::new(cfg);
            p.deploy(chain(4, 800.0)).unwrap();
            p.trigger_at("chain", SimTime::ZERO).unwrap();
            p.run_until_idle();
            p.finish()
        };
        assert_eq!(base, zeroed);
        assert_eq!(base.fault_counts(), (0, 0));
    }

    #[test]
    fn crashed_warm_worker_leaves_pool_consistent_and_forces_cold_start() {
        // Crash every worker: a second request past the first must not
        // find a (dead) warm worker, and the pool indexes stay coherent.
        let cfg = PlatformConfig::builder()
            .for_mode(ExecutionMode::Cold, 23)
            .faults(FaultConfig::with_rate(1.0, 5))
            .build()
            .unwrap();
        let mut p = Platform::new(cfg);
        p.deploy(chain(2, 500.0)).unwrap();
        p.trigger_at("chain", SimTime::ZERO).unwrap();
        p.trigger_at("chain", SimTime::from_mins(5)).unwrap();
        p.run_until_idle();
        p.pool.check_index_consistency().expect("pool coherent");
        let report = p.finish();
        assert_eq!(report.results.len(), 2);
        for r in &report.results {
            assert_eq!(r.executed_functions, 2, "{r:?}");
        }
        // Every crash is visible in the worker ledger.
        assert!(report.worker_records.iter().any(|w| w.crashed));
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let run = |seed| {
            let mut p = Platform::new(PlatformConfig::for_mode(ExecutionMode::Jit, seed));
            p.deploy(chain(4, 500.0)).unwrap();
            p.trigger_at("chain", SimTime::ZERO).unwrap();
            p.run_until_idle();
            p.finish().results
        };
        assert_eq!(run(7), run(7));
        assert_ne!(
            run(7)[0].end_to_end,
            run(8)[0].end_to_end,
            "different seeds differ"
        );
    }

    #[test]
    fn multi_host_cluster_places_and_releases_workers() {
        use crate::config::ClusterConfig;
        use crate::hosts::{HostSpec, PlacementPolicy};
        let cfg = PlatformConfig::builder()
            .for_mode(ExecutionMode::Speculative, 6)
            .cluster(ClusterConfig {
                policy: PlacementPolicy::LeastLoaded,
                hosts: vec![HostSpec::new("a", 1536), HostSpec::new("b", 1536)],
                ..ClusterConfig::default()
            })
            .build()
            .unwrap();
        let mut p = Platform::new(cfg);
        p.deploy(chain(5, 500.0)).unwrap();
        p.trigger_at("chain", SimTime::ZERO).unwrap();
        p.run_until_idle();
        assert_eq!(p.results()[0].executed_functions, 5);
        // All five used workers remain warm and placed across the two
        // hosts, within capacity.
        assert_eq!(p.cluster().total_used_mb(), 5 * 512);
        assert_eq!(p.cluster().len(), 2);
        let report = p.finish();
        assert_eq!(report.results.len(), 1);
    }

    #[test]
    fn cluster_full_forces_eviction_but_completes() {
        use crate::config::ClusterConfig;
        use crate::hosts::{HostSpec, PlacementPolicy};
        let cfg = PlatformConfig::builder()
            .for_mode(ExecutionMode::Cold, 8)
            .cluster(ClusterConfig {
                policy: PlacementPolicy::FirstFit,
                // fits two 512 MB workers
                hosts: vec![HostSpec::new("tiny", 1024)],
                ..ClusterConfig::default()
            })
            .build()
            .unwrap();
        let mut p = Platform::new(cfg);
        p.deploy(chain(4, 200.0)).unwrap();
        p.trigger_at("chain", SimTime::ZERO).unwrap();
        p.run_until_idle();
        let r = &p.results()[0];
        assert_eq!(r.executed_functions, 4, "completes despite tiny host");
        assert!(p.cluster().total_used_mb() <= 1024);
    }

    #[test]
    fn barrier_workflow_executes_all_branches() {
        let mut b = WorkflowBuilder::new("chain");
        let a = b.add(FunctionSpec::new("a").service_ms(100.0)).unwrap();
        let l = b.add(FunctionSpec::new("l").service_ms(300.0)).unwrap();
        let r = b.add(FunctionSpec::new("r").service_ms(900.0)).unwrap();
        let j = b.add(FunctionSpec::new("j").service_ms(100.0)).unwrap();
        b.link(a, l).unwrap();
        b.link(a, r).unwrap();
        b.link(l, j).unwrap();
        b.link(r, j).unwrap();
        let dag = b.build().unwrap();
        let report = run_once(ExecutionMode::Cold, dag);
        let res = &report.results[0];
        assert_eq!(res.executed_functions, 4);
        // Reference is the slow branch: 100 + 900 + 100.
        assert_eq!(res.exec_reference.as_millis_f64(), 1100.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use xanadu_chain::{FunctionSpec, WorkflowBuilder};
    use xanadu_core::speculation::ExecutionMode;

    /// A random workflow: a linear backbone with optional XOR alternates,
    /// deterministic in its inputs.
    fn random_workflow(len: usize, xors: &[(usize, f64)], service_ms: f64) -> WorkflowDag {
        let mut b = WorkflowBuilder::new("chain");
        let mut backbone = Vec::new();
        for i in 0..len {
            backbone.push(
                b.add(FunctionSpec::new(format!("f{i}")).service_ms(service_ms))
                    .unwrap(),
            );
        }
        let mut plain_link: Vec<bool> = vec![true; len.saturating_sub(1)];
        for &(pos, p) in xors {
            let pos = pos % len.saturating_sub(1).max(1);
            if len >= 2 && plain_link[pos] {
                plain_link[pos] = false;
                let alt = b
                    .add(FunctionSpec::new(format!("alt{pos}")).service_ms(service_ms))
                    .unwrap();
                let p = p.clamp(0.05, 0.95);
                b.link_xor(backbone[pos], &[(backbone[pos + 1], p), (alt, 1.0 - p)])
                    .unwrap();
            }
        }
        for (i, plain) in plain_link.iter().enumerate() {
            if *plain {
                b.link(backbone[i], backbone[i + 1]).unwrap();
            }
        }
        b.build().unwrap()
    }

    fn run_one(dag: WorkflowDag, mode: ExecutionMode, seed: u64) -> (RunResult, PlatformReport) {
        let mut p = Platform::new(PlatformConfig::for_mode(mode, seed));
        p.deploy(dag).unwrap();
        p.trigger_at("chain", SimTime::ZERO).unwrap();
        p.run_until_idle();
        let report = p.finish();
        (report.results[0].clone(), report)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn run_invariants_hold_for_every_mode(
            len in 1usize..8,
            xors in proptest::collection::vec((0usize..8, 0.05f64..0.95), 0..3),
            service_ms in 50.0f64..3000.0,
            seed in 0u64..1000,
        ) {
            for mode in ExecutionMode::ALL {
                let dag = random_workflow(len, &xors, service_ms);
                let (r, report) = run_one(dag.clone(), mode, seed);
                // Every start is either cold or warm, one per executed fn.
                prop_assert_eq!(r.cold_starts + r.warm_starts, r.executed_functions);
                // At least the root executed; never more than the workflow.
                prop_assert!(r.executed_functions >= 1);
                prop_assert!(r.executed_functions <= dag.len() as u32);
                // Latency accounting is consistent.
                prop_assert!(r.overhead <= r.end_to_end);
                prop_assert!(r.end_to_end >= r.exec_reference);
                prop_assert_eq!(r.end_to_end, r.end.saturating_since(r.trigger));
                // Resources are non-negative and every spawned worker is
                // accounted for in the final report.
                prop_assert!(r.resources.cpu_s >= 0.0);
                prop_assert!(r.resources.mem_mbs >= 0.0);
                prop_assert_eq!(
                    report.worker_records.len() as u32,
                    r.workers_spawned,
                    "single-request run: all workers belong to it"
                );
            }
        }

        #[test]
        fn speculation_never_loses_badly_on_deterministic_chains(
            len in 2usize..8,
            service_ms in 100.0f64..3000.0,
            seed in 0u64..200,
        ) {
            // Without conditional points there are no misses, so both
            // speculative modes must strictly beat Cold.
            let dag = random_workflow(len, &[], service_ms);
            let (cold, _) = run_one(dag.clone(), ExecutionMode::Cold, seed);
            let (spec, _) = run_one(dag.clone(), ExecutionMode::Speculative, seed);
            let (jit, _) = run_one(dag, ExecutionMode::Jit, seed);
            prop_assert_eq!(spec.misses, 0);
            prop_assert_eq!(jit.misses, 0);
            prop_assert!(spec.overhead < cold.overhead);
            prop_assert!(jit.overhead < cold.overhead);
        }

        #[test]
        fn stepped_run_matches_full_run(
            len in 1usize..6,
            seed in 0u64..100,
        ) {
            let dag = random_workflow(len, &[], 500.0);
            let mut stepped = Platform::new(PlatformConfig::for_mode(ExecutionMode::Jit, seed));
            stepped.deploy(dag.clone()).unwrap();
            stepped.trigger_at("chain", SimTime::ZERO).unwrap();
            // Step in 1-second increments far past completion.
            for sec in 1..=120u64 {
                stepped.step_window(SimTime::from_secs(sec));
            }
            stepped.run_until_idle();

            let mut full = Platform::new(PlatformConfig::for_mode(ExecutionMode::Jit, seed));
            full.deploy(dag).unwrap();
            full.trigger_at("chain", SimTime::ZERO).unwrap();
            full.run_until_idle();

            prop_assert_eq!(stepped.results(), full.results());
        }
    }
}
