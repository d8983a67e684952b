//! Allocation budget of the simulation kernel.
//!
//! Function and workflow names are allocated once, when the DAG is
//! built; every worker, record, event, trace step and result clones the
//! shared `Arc<str>`, and every name-keyed map allocates a key only the
//! first time it sees a name. So the heap allocations a request costs do
//! not include any name, observed or not.
//!
//! This binary installs a counting global allocator that counts only on
//! the thread that drives the platform (a const-initialized thread-local
//! counter, which itself never allocates), so the test harness's own
//! threads do not disturb the figures. Each request case runs the same
//! linear chain for N and then 2N triggers on a fresh platform; the
//! difference divided by N is the allocation cost of one extra request,
//! with every per-run cost (deploy, first cold starts, report) cancelled
//! out. The construction cases bound the workload every run builds
//! first: a chain's cost per function (depth N against 2N) and the
//! arrivals of the 20k-invocation fleet.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xanadu::prelude::*;
use xanadu_platform::{StreamingAudit, StreamingConfig};
use xanadu_workloads::azure::{
    generate_trace, scale_to_invocations, total_invocations, AzureTraceConfig,
};

/// Allocations one extra request may cost on an unobserved platform:
/// 35.7 measured, plus a small margin. Running Kahn's algorithm for the
/// DAG's orders at every request instead of storing them at build adds
/// 16 (51.7); copying each name where it is used instead of sharing it
/// adds about 48 more (100.1 in all).
const BUDGET_UNOBSERVED: f64 = 40.0;

/// The same with a streaming audit and a metrics registry attached: 44.9
/// measured, plus a small margin. Recording every request's trace for the
/// audit's exemplars, instead of keeping the folded timeline, made 52.5;
/// per-request DAG orders 68.5 on top of that, and a copied name in every
/// event and metric key as well 202.7.
const BUDGET_OBSERVED: f64 = 50.0;

/// The same with no observer but `record_traces` on: 38.7 measured, plus
/// a small margin. Recording each request's bus events as emitted, for
/// every reader to fold again, made 39.2.
const BUDGET_RECORDED: f64 = 43.0;

/// Allocations one more function costs `linear_chain`: its shared name,
/// 1.00 measured; the DAG's flat adjacency and stored orders allocate
/// per workflow. Per-node child and parent lists made 3.00, and copying
/// each name through `format!` into the spec and the builder's name set,
/// with two search buffers per link, made 9.02.
const BUDGET_CHAIN_FUNCTION: f64 = 1.5;

/// Allocations to generate the 20k-invocation fleet's trace (75
/// workflows): a name and an arrival vector each, and the fleet's
/// vector, 151 measured. Growing every arrival vector as it fills made
/// 502.
const BUDGET_FLEET_TRACE: u64 = 160;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every `alloc`, `alloc_zeroed` and `realloc` on the calling
/// thread, then defers to the system allocator.
struct Counting;

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell` that needs no allocation and has no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `alloc` pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`; the caller's guarantees pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Triggers of a 4-function chain in pairs: the first request of a pair
/// finds its workers reaped by keep-alive (10 min) and starts cold, the
/// second reuses them warm 20 s later.
fn schedule(triggers: u64) -> impl Iterator<Item = SimTime> {
    (0..triggers).map(|i| SimTime::from_secs(i / 2 * 900 + i % 2 * 20))
}

/// What watches a platform's requests.
#[derive(Clone, Copy)]
enum Watch {
    /// Nothing: no event is ever built.
    Nothing,
    /// A streaming audit and a metrics registry.
    Observers,
    /// The platform's own trace recorder.
    Recorder,
}

/// Allocations on this thread to build a platform, run `triggers`
/// requests through it and finish it, watched by `watch`. Trace
/// recording is on only for [`Watch::Recorder`], so the unwatched
/// platform builds no event at all.
fn run(triggers: u64, watch: Watch) -> u64 {
    let dag = linear_chain("chain", 4, &FunctionSpec::new("stage").service_ms(400.0))
        .expect("valid chain");
    let config = PlatformConfig::builder()
        .for_mode(ExecutionMode::Jit, 42)
        .record_traces(matches!(watch, Watch::Recorder))
        .build()
        .expect("valid config");
    let before = allocations();
    let mut platform = Platform::new(config);
    platform.deploy(dag).expect("fresh platform");
    let observers = matches!(watch, Watch::Observers).then(|| {
        (
            platform.attach_observer(StreamingAudit::new(StreamingConfig::default())),
            platform.attach_observer(MetricsRegistry::new()),
        )
    });
    for at in schedule(triggers) {
        platform.trigger_at("chain", at).expect("deployed");
    }
    platform.run_until_idle();
    if matches!(watch, Watch::Recorder) {
        let recorded = (0..triggers).filter(|&r| platform.trace(r).is_some());
        assert_eq!(recorded.count() as u64, triggers);
    }
    let report = platform.finish();
    assert_eq!(report.results.len() as u64, triggers);
    if let Some((audit, metrics)) = &observers {
        assert_eq!(audit.with(|a| a.summary().requests), triggers);
        assert_eq!(metrics.with(|m| m.counter("requests.completed")), triggers);
    }
    drop((report, observers));
    allocations() - before
}

/// Extra allocations per request: (allocations at 2N − at N) / N.
fn per_request(watch: Watch) -> f64 {
    const N: u64 = 200;
    let once = run(N, watch);
    let twice = run(2 * N, watch);
    (twice - once) as f64 / N as f64
}

#[test]
fn unobserved_requests_stay_within_their_allocation_budget() {
    let per_request = per_request(Watch::Nothing);
    println!("unobserved: {per_request:.2} allocations per request");
    assert!(
        per_request <= BUDGET_UNOBSERVED,
        "{per_request:.2} allocations per request, budget {BUDGET_UNOBSERVED}"
    );
}

#[test]
fn observed_requests_stay_within_their_allocation_budget() {
    let per_request = per_request(Watch::Observers);
    println!("observed: {per_request:.2} allocations per request");
    assert!(
        per_request <= BUDGET_OBSERVED,
        "{per_request:.2} allocations per request, budget {BUDGET_OBSERVED}"
    );
}

#[test]
fn recorded_requests_stay_within_their_allocation_budget() {
    let per_request = per_request(Watch::Recorder);
    println!("recorded: {per_request:.2} allocations per request");
    assert!(
        per_request <= BUDGET_RECORDED,
        "{per_request:.2} allocations per request, budget {BUDGET_RECORDED}"
    );
}

/// Allocations on this thread to build a linear chain of `depth`
/// functions.
fn chain(depth: usize) -> u64 {
    let template = FunctionSpec::new("wf0-f").service_ms(400.0);
    let before = allocations();
    let dag = linear_chain("wf0", depth, &template).expect("valid chain");
    let after = allocations();
    assert_eq!(dag.len(), depth);
    after - before
}

#[test]
fn chain_functions_stay_within_their_allocation_budget() {
    const N: usize = 256;
    let per_function = (chain(2 * N) - chain(N)) as f64 / N as f64;
    println!("linear_chain: {per_function:.2} allocations per function");
    assert!(
        per_function <= BUDGET_CHAIN_FUNCTION,
        "{per_function:.2} allocations per function, budget {BUDGET_CHAIN_FUNCTION}"
    );
}

#[test]
fn fleet_trace_stays_within_its_allocation_budget() {
    let fleet = scale_to_invocations(&AzureTraceConfig::default(), 20_000);
    let before = allocations();
    let traces = generate_trace(&fleet, 42);
    let allocated = allocations() - before;
    assert!(total_invocations(&traces) >= 19_000);
    println!(
        "generate_trace: {allocated} allocations for {} workflows",
        traces.len()
    );
    assert!(
        allocated <= BUDGET_FLEET_TRACE,
        "{allocated} allocations, budget {BUDGET_FLEET_TRACE}"
    );
}
