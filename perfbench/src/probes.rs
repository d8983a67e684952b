//! Layer probes: each drives one layer's public API at the workload's
//! sizes and reports wall nanoseconds per operation. They measure a
//! layer in isolation, so they run on every workload, including those
//! whose runs bypass the layer. The `harness` probe runs the paper's
//! experiment suite and checks that every claim holds.

use std::hint::black_box;
use std::time::Instant;

use xanadu_bench::experiments::all_timed;
use xanadu_bench::harness::set_jobs;
use xanadu_bench::Experiment;
use xanadu_chain::{IsolationLevel, NodeId, WorkflowDag};
use xanadu_core::estimate::{NodeEstimate, StaticEstimates};
use xanadu_core::policy::{PlanContext, PolicyRegistry};
use xanadu_platform::hosts::{HostRegistry, HostSpec, PlacementPolicy, PlacementRequest};
use xanadu_platform::{Audit, Platform, PlatformConfig};
use xanadu_sandbox::{PoolConfig, Worker, WorkerId, WorkerPool};
use xanadu_simcore::{EventQueue, SimDuration, SimTime};

use crate::ledger::{timed, Record};

/// What the probes size themselves from.
pub struct ProbeSizes<'a> {
    /// The workload's platform configuration (policy, cluster).
    pub config: &'a PlatformConfig,
    /// The workload's workflows.
    pub dags: &'a [WorkflowDag],
    /// The workload's event-queue high-water mark.
    pub queue_depth: usize,
}

const QUEUE_OPS: u64 = 400_000;
const PLANS: u64 = 20_000;
const DISPATCH_ROUNDS: u64 = 200;
const PLACEMENTS: u64 = 200_000;
const AUDITED_REQUESTS: u64 = 2_000;

/// Runs every probe and records `<layer>.probe_ns_per_*` and the
/// `harness.*` figures; fails when the experiment suite does.
pub fn run(sizes: &ProbeSizes, out: &mut Record) -> Result<(), String> {
    out.num("events.probe_ns_per_op", queue_probe(sizes.queue_depth));
    out.num("policy.probe_ns_per_plan", policy_probe(sizes));
    out.num("pool.probe_ns_per_dispatch", pool_probe(sizes.dags));
    out.num("hosts.probe_ns_per_place", hosts_probe(sizes.config));
    out.num("analysis.probe_ns_per_request", audit_probe(sizes));
    harness_probe(out)
}

/// The experiment suite (`xanadu-repro all`) at `--jobs 1` and at the
/// machine's width capped at 2. Both must render byte-equal tables and
/// every paper claim must hold. Records the slowest experiment at
/// `--jobs 1` and the parallel efficiency, serial ÷ (width × parallel).
fn harness_probe(out: &mut Record) -> Result<(), String> {
    let width = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let render = |runs: &[(Experiment, f64)]| {
        runs.iter()
            .map(|(e, _)| e.render())
            .collect::<Vec<_>>()
            .join("\n")
    };
    set_jobs(1);
    let (serial, serial_s) = timed(all_timed);
    set_jobs(width);
    let (parallel, parallel_s) = timed(all_timed);
    set_jobs(1);
    if render(&serial) != render(&parallel) {
        return Err(format!(
            "experiment suite output differs at --jobs 1 and {width}"
        ));
    }
    if let Some((e, _)) = serial.iter().find(|(e, _)| !e.all_hold()) {
        return Err(format!("experiment `{}`: a paper claim did not hold", e.id));
    }
    let slowest_ms = serial.iter().map(|(_, ms)| *ms).fold(0.0, f64::max);
    out.num("harness.suite_s", serial_s);
    out.num("harness.experiment_max_s", slowest_ms / 1000.0);
    out.num(
        "harness.parallel_efficiency",
        serial_s / (width as f64 * parallel_s),
    );
    Ok(())
}

/// The trace-walking audit (`Audit::from_traces`) over requests of the
/// workload's first workflow, recorded on a fresh platform with the
/// workload's configuration. Requests arrive 20 s apart.
fn audit_probe(sizes: &ProbeSizes) -> f64 {
    let Some(dag) = sizes.dags.first() else {
        return 0.0;
    };
    let mut config = sizes.config.clone();
    config.record_traces = true;
    let mut platform = Platform::new(config);
    platform
        .deploy(dag.clone())
        .expect("fresh platform has no deployments");
    for i in 0..AUDITED_REQUESTS {
        platform
            .trigger_at(dag.name(), SimTime::from_secs(20 * i))
            .expect("workflow was just deployed");
    }
    platform.run_until_idle();
    let traces: Vec<_> = (0..AUDITED_REQUESTS)
        .filter_map(|r| platform.trace(r).map(|t| (r, t.clone())))
        .collect();
    let start = Instant::now();
    black_box(Audit::from_traces(&traces));
    start.elapsed().as_nanos() as f64 / traces.len().max(1) as f64
}

/// Steady-state event-queue churn at the workload's queue depth: each op
/// pops the earliest event and schedules one later event.
fn queue_probe(depth: usize) -> f64 {
    let depth = depth.max(16) as u64;
    let mut queue = EventQueue::with_capacity(depth as usize);
    for i in 0..depth {
        queue.schedule(SimTime::from_micros((i * 7919) % 1_000_000), i);
    }
    let start = Instant::now();
    let mut sum = 0u64;
    for i in 0..QUEUE_OPS {
        let (at, e) = queue.pop().expect("queue stays at depth");
        sum = sum.wrapping_add(e);
        queue.schedule(at + SimDuration::from_micros(1 + (i * 7919) % 1_000_000), i);
    }
    let ns = start.elapsed().as_nanos() as f64 / QUEUE_OPS as f64;
    black_box(sum);
    ns
}

/// Uncached plans from the workload's policy over its first workflow.
fn policy_probe(sizes: &ProbeSizes) -> f64 {
    let Some(dag) = sizes.dags.first() else {
        return 0.0;
    };
    let mut policy = PolicyRegistry::build(&sizes.config.policy, sizes.config.speculation);
    policy.set_plan_cache(false);
    let estimates = StaticEstimates::uniform(NodeEstimate {
        cold_start_ms: 3000.0,
        startup_ms: 3000.0,
        warm_runtime_ms: 400.0,
    });
    let mut rho = |_: NodeId, _: NodeId| None;
    let start = Instant::now();
    for i in 0..PLANS {
        let ctx = PlanContext {
            now: SimTime::from_secs(i),
            estimates_epoch: i,
            prob_epoch: 0,
        };
        black_box(policy.plan(&ctx, dag, &estimates, &mut rho));
    }
    start.elapsed().as_nanos() as f64 / PLANS as f64
}

/// Warm dispatch cycles (`find_warm` + `begin_exec` + `end_exec`) with
/// four warm workers resident per workload function.
fn pool_probe(dags: &[WorkflowDag]) -> f64 {
    let functions: Vec<String> = dags
        .iter()
        .flat_map(|d| {
            d.node_ids()
                .map(move |n| d.node(n).spec().name().to_string())
        })
        .collect();
    let mut pool = WorkerPool::new(PoolConfig {
        keep_alive: SimDuration::from_secs(3600),
        max_warm: None,
    });
    for name in &functions {
        for _ in 0..4 {
            let id = pool.next_worker_id();
            pool.insert(Worker::provisioning(
                id,
                name.as_str(),
                IsolationLevel::Container,
                256,
                SimTime::ZERO,
                SimTime::ZERO,
            ));
            pool.mark_ready(id);
        }
    }
    let mut now = SimTime::from_secs(1);
    let start = Instant::now();
    for _ in 0..DISPATCH_ROUNDS {
        for name in &functions {
            let id = pool.find_warm(name, now).expect("warm worker resident");
            let began = now;
            pool.begin_exec(id, began);
            now += SimDuration::from_micros(10);
            pool.end_exec(id, began, now);
        }
    }
    let dispatches = DISPATCH_ROUNDS * functions.len().max(1) as u64;
    start.elapsed().as_nanos() as f64 / dispatches as f64
}

/// Place / ready / release cycles under the workload's placement policy
/// and hosts (four 4 GiB hosts when the workload has no cluster), with a
/// rolling window of 32 live workers.
fn hosts_probe(config: &PlatformConfig) -> f64 {
    let cluster = &config.cluster;
    let (policy, hosts) = if cluster.hosts.is_empty() {
        (
            PlacementPolicy::LeastLoaded,
            (0..4)
                .map(|i| HostSpec::new(format!("host-{i}"), 4096))
                .collect(),
        )
    } else {
        (cluster.policy, cluster.hosts.clone())
    };
    let mut registry = HostRegistry::new(policy);
    for spec in hosts {
        registry.add_host(spec);
    }
    const LIVE: u64 = 32;
    let start = Instant::now();
    for i in 0..PLACEMENTS {
        let worker = WorkerId(i);
        let req = PlacementRequest {
            worker,
            memory_mb: 256,
            request: Some(i / 5),
            tenant: None,
            on_demand: false,
        };
        black_box(registry.place_for(&req).expect("rolling window fits"));
        registry.worker_ready(worker);
        if i >= LIVE {
            registry.release(WorkerId(i - LIVE));
        }
    }
    start.elapsed().as_nanos() as f64 / PLACEMENTS as f64
}
