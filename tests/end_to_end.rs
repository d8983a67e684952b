//! End-to-end integration: SDL deployment, lifecycle messaging, metadata
//! persistence, and the full report pipeline across crate boundaries.

use xanadu::prelude::*;

/// Records every delivered event with its simulation time.
#[derive(Default)]
struct Recording(Vec<(SimTime, BusEvent)>);

impl Observer for Recording {
    fn on_event(&mut self, at: SimTime, event: &BusEvent) {
        self.0.push((at, event.clone()));
    }
}

impl Recording {
    /// The recorded events `keep` selects, in emission order.
    fn on(&self, keep: fn(&BusEvent) -> bool) -> Vec<(SimTime, BusEvent)> {
        self.0.iter().filter(|(_, e)| keep(e)).cloned().collect()
    }
}

/// Whether `event` is a request completion.
fn completed(event: &BusEvent) -> bool {
    matches!(event, BusEvent::RequestCompleted { .. })
}

const CONDITIONAL_SDL: &str = r#"{
    "ingest": {"type": "function", "memory": 512, "runtime": "container",
               "wait_for": [], "service_ms": 800, "conditional": "check"},
    "check":  {"type": "conditional", "wait_for": ["ingest"],
               "condition": {"op1": "ingest.score", "op2": 10, "op": "gte"},
               "success": "fast_path", "fail": "slow_path",
               "success_probability": 0.85},
    "fast_path": {"type": "branch",
        "approve": {"type": "function", "memory": 256, "runtime": "process",
                    "wait_for": [], "service_ms": 200}},
    "slow_path": {"type": "branch",
        "review": {"type": "function", "memory": 1024, "runtime": "container",
                   "wait_for": [], "service_ms": 3000},
        "notify": {"type": "function", "memory": 256, "runtime": "isolate",
                   "wait_for": ["review"], "service_ms": 100}}
}"#;

#[test]
fn sdl_conditional_workflow_runs_end_to_end() {
    let mut platform = Platform::new(PlatformConfig::for_mode(ExecutionMode::Jit, 9));
    let recording = platform.attach_observer(Recording::default());
    platform.deploy_sdl("approval", CONDITIONAL_SDL).unwrap();

    let n = 12u64;
    for i in 0..n {
        platform
            .trigger_at("approval", SimTime::from_mins(i * 20))
            .unwrap();
    }
    platform.run_until_idle();

    // Every request completed and was emitted.
    assert_eq!(platform.results().len(), n as usize);
    let completions = recording.with(|r| r.on(completed));
    assert_eq!(completions.len(), n as usize);

    // The XOR decision took both paths across 12 requests with p=0.85.
    let results = platform.results().to_vec();
    let lengths: std::collections::HashSet<u32> =
        results.iter().map(|r| r.executed_functions).collect();
    assert!(
        lengths.contains(&2),
        "fast path (ingest+approve) taken at least once: {lengths:?}"
    );

    let report = platform.finish();
    assert_eq!(report.results.len(), n as usize);
    assert!(!report.worker_records.is_empty());
    // Total accounting is self-consistent.
    let (cold, warm) = report.start_counts();
    let executed: u32 = report.results.iter().map(|r| r.executed_functions).sum();
    assert_eq!(cold + warm, executed, "every execution was cold or warm");
}

#[test]
fn figure10_operation_sequence_over_the_bus() {
    // Figure 10 of the paper: trigger → planning/deployments → worker
    // readiness → function dispatch → completion. Verify that ordering as
    // the platform's observers receive it for a JIT run.
    let dag = linear_chain("seq", 3, &FunctionSpec::new("f").service_ms(500.0)).unwrap();
    let mut platform = Platform::new(PlatformConfig::for_mode(ExecutionMode::Jit, 21));
    let recording = platform.attach_observer(Recording::default());
    platform.deploy(dag).unwrap();
    platform.trigger_at("seq", SimTime::ZERO).unwrap();
    platform.run_until_idle();

    let provisioned = recording.with(|r| r.on(|e| matches!(e, BusEvent::WorkerProvisioned { .. })));
    let ready = recording.with(|r| r.on(|e| matches!(e, BusEvent::WorkerReady { .. })));
    let completions = recording.with(|r| r.on(completed));
    assert_eq!(provisioned.len(), 3, "one deployment per chain hop");
    assert_eq!(ready.len(), 3);
    assert_eq!(completions.len(), 1);

    // JIT staggers the deployments across the workflow's lifetime.
    assert!(provisioned[0].0 < provisioned[2].0);
    // Each worker becomes ready after it was provisioned.
    for ((p, _), (r, _)) in provisioned.iter().zip(&ready) {
        assert!(p < r, "provisioned {p} before ready {r}");
    }
    // Completion is the last event of the run.
    assert!(completions[0].0 >= ready.last().unwrap().0);
    let last = recording.with(|r| r.0.last().cloned()).unwrap();
    assert!(completed(&last.1), "{last:?}");
    // None of the provisions were on-demand: speculation covered the chain.
    for p in &provisioned {
        assert!(
            matches!(
                p.1,
                BusEvent::WorkerProvisioned {
                    on_demand: false,
                    ..
                }
            ),
            "{p:?}"
        );
    }
}

#[test]
fn report_serializes_to_json() {
    let dag = linear_chain("j", 2, &FunctionSpec::new("f").service_ms(100.0)).unwrap();
    let mut platform = Platform::new(PlatformConfig::for_mode(ExecutionMode::Cold, 4));
    platform.deploy(dag).unwrap();
    platform.trigger_at("j", SimTime::ZERO).unwrap();
    platform.run_until_idle();
    let report = platform.finish();
    let json = serde_json::to_string(&report.results).unwrap();
    let parsed: Vec<RunResult> = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed, report.results);
}

#[test]
fn misses_are_bounded_by_executed_functions() {
    let doc = CONDITIONAL_SDL;
    let mut platform = Platform::new(PlatformConfig::for_mode(ExecutionMode::Speculative, 77));
    platform.deploy_sdl("approval", doc).unwrap();
    for i in 0..30u64 {
        platform
            .trigger_at("approval", SimTime::from_mins(i * 20))
            .unwrap();
    }
    platform.run_until_idle();
    for r in platform.results() {
        assert!(r.misses <= r.executed_functions);
        assert!(r.overhead <= r.end_to_end);
    }
}

/// A reader that closes the pipe early (`xanadu_cli replay | head -1`)
/// must not make the binary panic while it prints the report.
#[test]
fn cli_survives_a_closed_stdout() {
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_xanadu_cli"))
        .args(["replay", "--invocations", "200"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xanadu_cli");
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("wait for xanadu_cli");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(output.status.success(), "{stderr}");
}
