//! Cluster chaos/property suite: the multi-host scheduler under
//! deterministic host-failure injection.
//!
//! Mirrors the discipline of `tests/chaos.rs`, one layer up the stack:
//!
//! 1. **Termination** — every triggered request completes under any
//!    placement policy and any host-failure rate, including certain
//!    failure. Draining a host costs time, never liveness.
//! 2. **Determinism** — the same seeds produce a byte-identical
//!    serialized [`PlatformReport`] whether the sweep runs on 1 or 8
//!    worker threads, and the sharded replay is byte-identical at any
//!    `--shards` width.
//! 3. **Bounded degradation** — p95 end-to-end latency grows with the
//!    host-failure rate but stays bounded.
//! 4. **One fault schedule per config** — a `--host-fail-rate` run of
//!    the CLI fails the same hosts at the same instants as a platform
//!    built directly from the same configuration.
//!
//! Plus property tests over the [`HostRegistry`] invariants: capacity
//! is never exceeded, equal-share admission bounds speculation and never
//! refuses an on-demand placement, affinity never regresses a
//! co-location opportunity least-loaded would take for free, and
//! autoscaled host-id assignment is deterministic under boot-event
//! reordering.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use proptest::prelude::*;
use xanadu::cli::{execute_with_exports, parse_args};
use xanadu::prelude::*;
use xanadu_platform::hosts::{HostId, HostRegistry, PlacementError, PlacementRequest};
use xanadu_platform::shard::{replay_sharded, ShardOptions, ShardWorkload};
use xanadu_sandbox::WorkerId;

/// Depth-5 chain: deep enough that a mid-chain host failure drains
/// workers the request still needs.
fn chain_dag() -> WorkflowDag {
    linear_chain("chain", 5, &FunctionSpec::new("f").service_ms(1500.0)).unwrap()
}

/// XOR-branching workflow so prediction misses (and their retarget
/// recoveries) stay in the failure mix.
fn branchy_dag() -> WorkflowDag {
    let mut b = WorkflowBuilder::new("branchy");
    let head = b.add(FunctionSpec::new("head").service_ms(700.0)).unwrap();
    let hot = b.add(FunctionSpec::new("hot").service_ms(900.0)).unwrap();
    let alt = b.add(FunctionSpec::new("alt").service_ms(400.0)).unwrap();
    let tail = b.add(FunctionSpec::new("tail").service_ms(600.0)).unwrap();
    b.link_xor(head, &[(hot, 0.7), (alt, 0.3)]).unwrap();
    b.link(hot, tail).unwrap();
    b.build().unwrap()
}

/// Runs the standard cluster chaos workload (3 triggers of each
/// workflow on a 3-host cluster) and asserts the liveness invariant.
fn run_cluster(
    policy: PlacementPolicy,
    platform_seed: u64,
    host_fail_rate: f64,
    fault_seed: u64,
) -> PlatformReport {
    let faults = FaultConfig {
        host_failure_rate: host_fail_rate,
        ..FaultConfig::with_rate(0.0, fault_seed)
    };
    let config = PlatformConfig::builder()
        .for_mode(ExecutionMode::Jit, platform_seed)
        .faults(faults)
        .cluster(ClusterConfig::uniform(policy, 3, 1024))
        .build()
        .unwrap();
    let mut platform = Platform::new(config);
    platform.deploy(chain_dag()).unwrap();
    platform.deploy(branchy_dag()).unwrap();
    let mut triggered = 0usize;
    for i in 0..3u64 {
        let base = SimTime::from_secs(i * 120);
        platform.trigger_at("chain", base).unwrap();
        platform
            .trigger_at("branchy", base + SimDuration::from_secs(45))
            .unwrap();
        triggered += 2;
    }
    platform.run_until_idle();
    let report = platform.finish();
    assert_eq!(
        report.results.len(),
        triggered,
        "wedged request: {policy:?} seed {platform_seed} host rate {host_fail_rate}: \
         {} of {triggered} requests terminated",
        report.results.len(),
    );
    for r in &report.results {
        assert!(
            r.executed_functions > 0,
            "request {} terminated without executing anything",
            r.request
        );
        assert!(
            r.end >= r.trigger,
            "request {} ended before it began",
            r.request
        );
    }
    report
}

/// The sweep's grid point: every placement policy crossed with light,
/// heavy and certain host-failure schedules.
fn sweep_point(i: u64) -> (PlacementPolicy, f64) {
    let policy = PlacementPolicy::ALL[(i % PlacementPolicy::ALL.len() as u64) as usize];
    let rate = [0.3, 0.7, 1.0][(i % 3) as usize];
    (policy, rate)
}

#[test]
fn every_request_terminates_across_policy_and_failure_sweep() {
    let mut reboots = 0;
    for i in 0..15u64 {
        let (policy, rate) = sweep_point(i);
        let report = run_cluster(policy, 11 + i, rate, 0xC0FFEE + i);
        let cluster = report
            .cluster
            .expect("a --hosts run always carries a cluster report");
        assert_eq!(cluster.policy, policy);
        assert_eq!(cluster.hosts.len(), 3, "no host row went missing");
        assert!(
            cluster.hosts_failed > 0 || rate < 1.0,
            "certain host failure injected nothing at sweep point {i}"
        );
        // No autoscaler runs here, so every boot is a reboot.
        reboots += cluster.hosts_booted;
    }
    assert!(reboots > 0, "no failed host rebooted during the sweep");
}

#[test]
fn cluster_reports_are_byte_identical_at_any_jobs_width() {
    const SEEDS: u64 = 15;
    let serialized = |i: u64| {
        let (policy, rate) = sweep_point(i);
        serde_json::to_string(&run_cluster(policy, 42 + i, rate, 0xC0FFEE + i)).unwrap()
    };

    // Jobs width 1: the sweep in submission order.
    let sequential: Vec<String> = (0..SEEDS).map(serialized).collect();

    // Jobs width 8: the same sweep raced across 8 worker threads pulling
    // from a shared queue, so completion order is arbitrary.
    let next = AtomicUsize::new(0);
    let results = Mutex::new(vec![String::new(); SEEDS as usize]);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= SEEDS as usize {
                    return;
                }
                let json = serialized(i as u64);
                results.lock().unwrap()[i] = json;
            });
        }
    });
    let parallel = results.into_inner().unwrap();

    for (i, (seq, par)) in sequential.iter().zip(parallel.iter()).enumerate() {
        assert_eq!(
            seq, par,
            "cluster sweep point {i} differs between --jobs 1 and --jobs 8"
        );
    }
}

#[test]
fn sharded_cluster_replay_is_byte_identical_at_any_shard_width() {
    let workloads = || -> Vec<ShardWorkload> {
        (0..8u64)
            .map(|i| {
                let dag = linear_chain(
                    format!("wf-{i}"),
                    3 + (i % 3) as usize,
                    &FunctionSpec::new("f").service_ms(400.0 + 100.0 * i as f64),
                )
                .unwrap();
                let triggers = (0..4u64)
                    .map(|t| SimTime::from_secs(t * 90 + i * 7))
                    .collect();
                ShardWorkload { dag, triggers }
            })
            .collect()
    };
    let config = PlatformConfig::builder()
        .for_mode(ExecutionMode::Jit, 77)
        .faults(FaultConfig {
            host_failure_rate: 0.8,
            ..FaultConfig::with_rate(0.0, 0xFEED)
        })
        .cluster(ClusterConfig::uniform(PlacementPolicy::Affinity, 4, 1024))
        .build()
        .unwrap();

    let run_at = |threads: usize| {
        let opts = ShardOptions {
            threads,
            window: SimDuration::from_mins(1),
        };
        replay_sharded(&config, workloads(), &opts).unwrap().report
    };

    let report = run_at(1);
    let cluster = report.cluster.as_ref().expect("a cluster report");
    assert!(cluster.hosts_failed > 0, "no host failed");
    assert!(cluster.hosts_booted > 0, "no failed host rebooted");
    let narrow = serde_json::to_string(&report).unwrap();
    assert!(
        narrow.contains("\"cluster\""),
        "merged report lost its cluster section"
    );
    for width in [4usize, 8] {
        assert_eq!(
            narrow,
            serde_json::to_string(&run_at(width)).unwrap(),
            "sharded cluster report differs between --shards 1 and --shards {width}"
        );
    }
}

#[test]
fn p95_degrades_monotonically_and_boundedly_with_host_failure_rate() {
    let p95 = |report: &PlatformReport| -> f64 {
        let mut v: Vec<f64> = report
            .results
            .iter()
            .map(|r| r.end_to_end.as_millis_f64())
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[((v.len() as f64 * 0.95).ceil() as usize).min(v.len()) - 1]
    };
    let rates = [0.0, 0.5, 1.0];
    let p95s: Vec<f64> = rates
        .iter()
        .map(|&rate| p95(&run_cluster(PlacementPolicy::LeastLoaded, 3, rate, 0xDE6)))
        .collect();
    for w in p95s.windows(2) {
        assert!(
            w[1] >= w[0] * 0.999,
            "p95 must not improve as the host-failure rate rises: {p95s:?}"
        );
    }
    // Bounded: a drain re-places every lost worker and the reboot clock
    // is finite, so even certain failure stays within two orders of
    // magnitude of the failure-free run.
    assert!(
        p95s[rates.len() - 1] <= p95s[0] * 100.0,
        "certain host failure blew past the degradation bound: {p95s:?}"
    );
    assert!(
        p95s[rates.len() - 1] > p95s[0],
        "certain host failure must cost latency: {p95s:?}"
    );
}

/// `run` and `analyze` write their fault flags into the platform
/// configuration before the platform is built, so the CLI's host-crash
/// schedule is the one a platform built directly from that configuration
/// draws: at rate 0.5 and fault seed 7, two of the four hosts fail during
/// the run, at the same instants, and the audits are byte-identical.
#[test]
fn cli_host_failures_follow_the_configured_schedule() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let source = |p: &str| std::fs::read_to_string(root.join(p)).map_err(|e| format!("{p}: {e}"));
    let command = "analyze --sdl docs/golden/cluster.json --hosts 4 --host-memory-mb 2048 \
                   --host-fail-rate 0.5 --fault-seed 7 --audit-out audit.json";
    let args: Vec<String> = command.split_whitespace().map(String::from).collect();
    let (_, exports) = execute_with_exports(&parse_args(&args).unwrap(), source).unwrap();
    let cli_audit = &exports
        .iter()
        .find(|e| e.path == "audit.json")
        .expect("--audit-out export")
        .contents;

    // The configuration those flags select, driven as `analyze` drives
    // it: one trigger at time zero.
    let config = PlatformConfig::builder()
        .for_mode(ExecutionMode::Jit, 42)
        .cluster(ClusterConfig::uniform(
            PlacementPolicy::LeastLoaded,
            4,
            2048,
        ))
        .faults(FaultConfig {
            host_failure_rate: 0.5,
            ..FaultConfig::with_rate(0.0, 7)
        })
        .build()
        .unwrap();
    let mut platform = Platform::new(config);
    platform
        .deploy_sdl("cluster", &source("docs/golden/cluster.json").unwrap())
        .unwrap();
    let request = platform.trigger_at("cluster", SimTime::ZERO).unwrap();
    platform.run_until_idle();
    platform.roll_profile_window();
    let traces = [(request, platform.trace(request).unwrap().clone())];
    let audit = Audit::from_traces(&traces).with_cluster(platform.cluster_report());
    let failed = audit.cluster.as_ref().map_or(0, |c| c.hosts_failed);
    assert!(failed > 0, "no host failed: the check would be vacuous");
    assert_eq!(
        &xanadu_platform::export::audit_json_string(&audit),
        cli_audit
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No interleaving of placements and releases ever pushes a host
    /// past its memory capacity.
    #[test]
    fn no_host_ever_exceeds_its_capacity(
        capacities in proptest::collection::vec(256u64..1024, 1..5),
        ops in proptest::collection::vec((0u64..1_000_000, 64u32..512, 0u32..2), 1..80),
    ) {
        let mut reg = HostRegistry::new(PlacementPolicy::LeastLoaded);
        for (i, mb) in capacities.iter().enumerate() {
            reg.add_host(HostSpec::new(format!("h{i}"), *mb));
        }
        let mut live: Vec<(WorkerId, u32)> = Vec::new();
        let mut next = 0u64;
        for (pick, mem, release) in ops {
            let release = release == 1;
            if release && !live.is_empty() {
                let (w, _) = live.remove(pick as usize % live.len());
                reg.release(w);
            } else {
                next += 1;
                let w = WorkerId(next);
                if reg.place(w, mem).is_ok() {
                    live.push((w, mem));
                }
            }
            let mut used_sum = 0u64;
            for h in 0..reg.len() {
                let id = HostId(h as u32);
                prop_assert!(
                    reg.free_mb(id) <= reg.memory_mb(id),
                    "host {h} over capacity"
                );
                used_sum += reg.memory_mb(id) - reg.free_mb(id);
            }
            let placed_sum: u64 = live.iter().map(|(_, m)| u64::from(*m)).sum();
            prop_assert_eq!(used_sum, placed_sum, "usage accounting drifted");
        }
    }

    /// Equal-share admission with `k` tenants: every admitted
    /// speculative placement leaves its tenant at or under
    /// `floor(live capacity / k)`, and no on-demand placement is refused
    /// for admission, whatever the interleaving of placements, releases,
    /// host failures and reboots.
    #[test]
    fn equal_share_admission_bounds_speculation_and_spares_on_demand(
        tenants in 1u32..5,
        ops in proptest::collection::vec(
            ((0u64..1_000_000, 64u32..512), (0u32..4, 0u32..2, 0u32..8)),
            1..80,
        ),
    ) {
        let mut reg = HostRegistry::new(PlacementPolicy::LeastLoaded);
        for i in 0..3 {
            reg.add_host(HostSpec::new(format!("h{i}"), 2048));
        }
        reg.set_tenants(tenants);
        let mut live: Vec<WorkerId> = Vec::new();
        let mut next = 0u64;
        for ((pick, mem), (tenant, on_demand, action)) in ops {
            let host = HostId((pick % 3) as u32);
            match action {
                0 if !live.is_empty() => {
                    let w = live.remove(pick as usize % live.len());
                    reg.release(w);
                }
                1 => {
                    let drained = reg.fail_host(host);
                    live.retain(|w| !drained.contains(w));
                }
                2 => {
                    reg.activate_host(host);
                }
                _ => {
                    next += 1;
                    let tenant = tenant % tenants;
                    let req = PlacementRequest {
                        tenant: Some(tenant),
                        on_demand: on_demand == 1,
                        ..PlacementRequest::bare(WorkerId(next), mem)
                    };
                    match reg.place_for(&req) {
                        Ok(_) => {
                            live.push(req.worker);
                            let share = reg.total_capacity_mb() / u64::from(tenants);
                            prop_assert!(
                                req.on_demand || reg.tenant_used_mb(tenant) <= share,
                                "tenant {tenant} admitted past its {share} MB share"
                            );
                        }
                        Err(e) => prop_assert!(
                            !(req.on_demand && matches!(e, PlacementError::FairShareExceeded { .. })),
                            "on-demand placement refused for admission: {e}"
                        ),
                    }
                }
            }
        }
    }

    /// Wherever least-loaded would happen to co-locate a request's next
    /// worker, affinity co-locates at least as well — it never regresses
    /// a co-location opportunity least-loaded takes for free.
    #[test]
    fn affinity_never_regresses_a_free_colocation(
        seed_placements in proptest::collection::vec(
            (0u64..6, 64u32..256),
            1..24,
        ),
        probe_request in 0u64..6,
        probe_mem in 64u32..256,
    ) {
        let mut reg = HostRegistry::new(PlacementPolicy::Affinity);
        for i in 0..3 {
            reg.add_host(HostSpec::new(format!("h{i}"), 1024));
        }
        let mut next = 0u64;
        for (request, mem) in seed_placements {
            next += 1;
            let req = PlacementRequest {
                request: Some(request),
                ..PlacementRequest::bare(WorkerId(next), mem)
            };
            let _ = reg.place_for(&req);
        }
        let probe = PlacementRequest {
            request: Some(probe_request),
            ..PlacementRequest::bare(WorkerId(next + 1), probe_mem)
        };
        if let Some(ll) = reg.peek(PlacementPolicy::LeastLoaded, &probe) {
            let af = reg.peek(PlacementPolicy::Affinity, &probe);
            prop_assert!(af.is_some(), "affinity found no host where least-loaded did");
            prop_assert!(
                reg.colocation(af.unwrap(), probe_request)
                    >= reg.colocation(ll, probe_request),
                "affinity picked {} neighbours where least-loaded had {}",
                reg.colocation(af.unwrap(), probe_request),
                reg.colocation(ll, probe_request),
            );
        }
    }

    /// Autoscaled host ids are assigned at reservation, in reservation
    /// order — delaying or reordering the boot events that follow never
    /// changes which id (or name) a host gets.
    #[test]
    fn autoscaled_host_ids_are_deterministic_under_event_reordering(
        mems in proptest::collection::vec(128u32..512, 4..40),
        boot_delay in 0usize..3,
    ) {
        let run = |boot_delay: usize| {
            let mut reg = HostRegistry::new(PlacementPolicy::LeastLoaded);
            reg.add_host(HostSpec::new("static-0", 1024));
            reg.set_autoscale(AutoscaleConfig {
                max_hosts: 8,
                host_memory_mb: 1024,
            });
            let mut pending: Vec<(HostId, usize)> = Vec::new();
            let mut names = Vec::new();
            let mut next = 0u64;
            for (step, &mem) in mems.iter().enumerate() {
                if reg.wants_scale_up() {
                    let spec = reg.autoscale_host_spec();
                    names.push(spec.name.clone());
                    pending.push((reg.reserve_host(spec), step + boot_delay));
                }
                pending.retain(|&(host, due)| {
                    if due <= step {
                        reg.activate_host(host);
                        false
                    } else {
                        true
                    }
                });
                next += 1;
                let _ = reg.place(WorkerId(next), mem);
            }
            names
        };
        let names = run(boot_delay);
        // Ids are dense and ordered: reservation k gets name `auto-{k+1}`
        // (after the one static host), whatever the boot schedule.
        for (k, name) in names.iter().enumerate() {
            prop_assert_eq!(name.clone(), format!("auto-{}", k + 1));
        }
        // And the schedule itself is reproducible run to run.
        prop_assert_eq!(names, run(boot_delay));
    }
}
