//! Chaos regression suite: the platform under deterministic fault
//! injection.
//!
//! Three guarantees are exercised across a sweep of fault seeds and
//! execution modes:
//!
//! 1. **Termination** — every triggered request completes under any fault
//!    mix (crashes during startup, warm idling and execution; latency
//!    spikes; timeouts). No request may wedge.
//! 2. **Determinism** — the same platform seed + fault seed produce a
//!    byte-identical serialized [`PlatformReport`], regardless of how many
//!    runs execute concurrently (1 vs 8 worker threads) and regardless of
//!    the plan cache setting.
//! 3. **Bounded degradation** — mean end-to-end latency grows with the
//!    fault rate, but stays bounded (retry backoff is exponential and the
//!    final attempt is shielded, so faults cost time, never liveness).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use xanadu::prelude::*;

/// Depth-5 chain whose spiked service time (1500 ms × 8) exceeds the
/// default 10 s invocation timeout, so the sweep exercises the timeout →
/// retry path as well as crash recovery.
fn chain_dag() -> WorkflowDag {
    linear_chain("chain", 5, &FunctionSpec::new("f").service_ms(1500.0)).unwrap()
}

/// XOR-branching workflow: trigger → {hot 70 % | alt 30 %}, hot → tail.
/// Keeps the misprediction / re-planning machinery in the fault mix.
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

/// Counts the events delivered to it.
struct Deliveries(u64);

impl Observer for Deliveries {
    fn on_event(&mut self, _at: SimTime, _event: &BusEvent) {
        self.0 += 1;
    }
}

/// Runs the standard chaos workload (3 triggers of each workflow) and
/// asserts the liveness invariant: every request terminates. Two
/// counting observers check that each sees every published event once.
fn run_chaos(
    mode: ExecutionMode,
    platform_seed: u64,
    faults: FaultConfig,
    plan_cache: bool,
) -> PlatformReport {
    let config = PlatformConfig::builder()
        .for_mode(mode, platform_seed)
        .plan_cache(plan_cache)
        .faults(faults)
        .build()
        .unwrap();
    let mut platform = Platform::new(config);
    let counters = [
        platform.attach_observer(Deliveries(0)),
        platform.attach_observer(Deliveries(0)),
    ];
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
    let published = platform.published_events();
    assert!(published > 0);
    for counter in &counters {
        assert_eq!(
            counter.with(|c| c.0),
            published,
            "an observer missed events: {mode:?} seed {platform_seed} faults {faults:?}"
        );
    }
    let report = platform.finish();
    assert_eq!(
        report.results.len(),
        triggered,
        "wedged request: {mode:?} seed {platform_seed} faults {faults:?}: \
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

/// The seed sweep's fault mix: rate and mode vary with the fault seed so
/// the sweep covers light, heavy and certain fault schedules across every
/// execution mode.
fn sweep_point(i: u64) -> (ExecutionMode, FaultConfig) {
    let mode = ExecutionMode::ALL[(i % ExecutionMode::ALL.len() as u64) as usize];
    let rate = [0.3, 0.6, 0.9, 1.0][(i % 4) as usize];
    (mode, FaultConfig::with_rate(rate, 0xC0FFEE + i))
}

#[test]
fn every_request_terminates_across_seed_sweep() {
    for i in 0..24u64 {
        let (mode, faults) = sweep_point(i);
        let report = run_chaos(mode, 11 + i, faults, true);
        // Heavy fault schedules must actually inject something.
        let (f, r) = report.fault_counts();
        assert!(
            f > 0 || faults.rate < 0.9,
            "rate {} seed {} injected no faults at all",
            faults.rate,
            faults.seed
        );
        assert!(r <= f * 2, "retries {r} wildly exceed faults {f}");
    }
}

#[test]
fn identical_fault_seeds_are_byte_identical_at_any_jobs_width() {
    const SEEDS: u64 = 20;
    let serialized = |i: u64| {
        let (mode, faults) = sweep_point(i);
        serde_json::to_string(&run_chaos(mode, 42 + i, faults, true)).unwrap()
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
            "seed sweep point {i} differs between --jobs 1 and --jobs 8"
        );
    }
}

#[test]
fn plan_cache_does_not_change_faulty_reports() {
    for i in [0u64, 5, 13] {
        let (mode, faults) = sweep_point(i);
        let cached = serde_json::to_string(&run_chaos(mode, 77 + i, faults, true)).unwrap();
        let uncached = serde_json::to_string(&run_chaos(mode, 77 + i, faults, false)).unwrap();
        assert_eq!(
            cached, uncached,
            "plan cache changed the faulty report at sweep point {i}"
        );
    }
}

#[test]
fn latency_degrades_monotonically_and_boundedly_with_fault_rate() {
    let rates = [0.0, 0.25, 0.5, 0.75, 1.0];
    let means: Vec<f64> = rates
        .iter()
        .map(|&rate| {
            run_chaos(
                ExecutionMode::Jit,
                3,
                FaultConfig::with_rate(rate, 0xDE6),
                true,
            )
            .mean_end_to_end_ms()
        })
        .collect();
    for w in means.windows(2) {
        assert!(
            w[1] >= w[0] * 0.999,
            "latency must not improve as the fault rate rises: {means:?}"
        );
    }
    // Bounded: spikes multiply service by 8×, retries back off
    // exponentially but the retry budget is 3 and the final attempt is
    // shielded — even a certain-fault schedule stays within two orders of
    // magnitude of the fault-free run.
    assert!(
        means[rates.len() - 1] <= means[0] * 100.0,
        "rate-1.0 latency blew past the degradation bound: {means:?}"
    );
    // And the heavy schedules genuinely hurt (the injector is not a no-op).
    assert!(
        means[rates.len() - 1] > means[0],
        "certain faults must cost latency: {means:?}"
    );
}
