//! The typed event taxonomy end to end: every [`BusEvent`] variant
//! round-trips through serde and streams the bytes its tree renders, and
//! a chaos-mode run emits every variant at least once — asserted through
//! an [`Observer`], the one hook every consumer of platform events uses.

use std::collections::HashSet;
use std::mem::{discriminant, Discriminant};

use xanadu::prelude::*;

/// How many variants `BusEvent` has; every one has a producer in an
/// ordinary run.
const VARIANTS: usize = 18;

/// One sample of every `BusEvent` variant.
fn sample_events() -> Vec<BusEvent> {
    vec![
        BusEvent::RequestTriggered {
            request: 1,
            workflow: "w".into(),
        },
        BusEvent::PlanComputed {
            request: 1,
            workflow: "w".into(),
            planned: 3,
        },
        BusEvent::FunctionInvoked {
            request: 1,
            function: "f".into(),
            node: 0,
        },
        BusEvent::WorkerProvisioned {
            worker: 9,
            request: 1,
            function: "f".into(),
            cold_start_ms: 2500.0,
            ready_in_ms: 2500.0,
            on_demand: false,
        },
        BusEvent::WorkerReady { worker: 9 },
        BusEvent::ExecStarted {
            request: 1,
            function: "f".into(),
            worker: 9,
            warm: true,
            queue_wait_ms: 12.5,
        },
        BusEvent::ExecEnded {
            request: 1,
            function: "f".into(),
            worker: 9,
            exec_ms: 512.0,
        },
        BusEvent::PredictionMiss {
            request: 1,
            function: "g".into(),
            node: 4,
        },
        BusEvent::WorkerCrashed {
            worker: 9,
            function: "f".into(),
            request: Some(1),
        },
        BusEvent::DeployFailed {
            request: 1,
            function: "f".into(),
            attempt: 2,
        },
        BusEvent::InvokeTimeout {
            request: 1,
            function: "f".into(),
            attempt: 1,
        },
        BusEvent::InvokeRetried {
            request: 1,
            function: "f".into(),
            attempt: 1,
            backoff_ms: 250.0,
        },
        BusEvent::RequestCompleted {
            request: 1,
            workflow: "w".into(),
            overhead_ms: 90.0,
            end_to_end_ms: 1090.0,
        },
        BusEvent::HostUp {
            host: 2,
            memory_mb: 4096,
        },
        BusEvent::HostDown {
            host: 2,
            workers_lost: 3,
        },
        BusEvent::WorkerPlaced {
            worker: 7,
            host: 2,
            request: 1,
            memory_mb: 512,
        },
        BusEvent::WorkerEvicted { worker: 7, host: 2 },
        BusEvent::PolicyDecision {
            request: 1,
            policy: "xanadu-jit".into(),
            planned: 3,
            reason: "trigger".into(),
        },
    ]
}

#[test]
fn every_variant_roundtrips_through_serde() {
    let events = sample_events();
    let variants: HashSet<_> = events.iter().map(discriminant).collect();
    assert_eq!(events.len(), VARIANTS);
    assert_eq!(variants.len(), VARIANTS, "one sample per variant");
    for event in &events {
        let value = serde_json::to_value(event).unwrap();
        let back: BusEvent = serde_json::from_value(value.clone()).unwrap();
        assert_eq!(&back, event, "roundtrip of {value:?}");
        // Streamed text equals the tree render (tests/json_streaming.rs).
        assert_eq!(
            serde_json::to_string_pretty(event).unwrap(),
            value.to_json_string_pretty()
        );
        assert_eq!(
            serde_json::to_string(event).unwrap(),
            value.to_json_string()
        );
    }
}

/// Observer that records which variants it has seen.
#[derive(Default)]
struct VariantCoverage {
    seen: HashSet<Discriminant<BusEvent>>,
    events: u64,
}

impl Observer for VariantCoverage {
    fn on_event(&mut self, _at: SimTime, event: &BusEvent) {
        self.seen.insert(discriminant(event));
        self.events += 1;
    }
}

#[test]
fn chaos_run_emits_every_topic_at_least_once() {
    // Depth-5 chain whose spiked service time blows the invocation
    // timeout (timeout + retry events), plus an XOR workflow whose cold
    // branch forces prediction misses; certain-fault injection covers
    // crashes. A tiny two-host cluster under certain host failure covers
    // the cluster variants: placements on every provision, evictions
    // under memory pressure, `HostDown` from injected failures, `HostUp`
    // from the reboots that follow. 12 triggers of each make every
    // variant deterministic for this seed pair.
    let chain = linear_chain("chain", 5, &FunctionSpec::new("f").service_ms(1500.0)).unwrap();
    let mut b = WorkflowBuilder::new("branchy");
    let head = b.add(FunctionSpec::new("head").service_ms(700.0)).unwrap();
    let hot = b.add(FunctionSpec::new("hot").service_ms(900.0)).unwrap();
    let alt = b.add(FunctionSpec::new("alt").service_ms(400.0)).unwrap();
    let tail = b.add(FunctionSpec::new("tail").service_ms(600.0)).unwrap();
    b.link_xor(head, &[(hot, 0.7), (alt, 0.3)]).unwrap();
    b.link(hot, tail).unwrap();
    let branchy = b.build().unwrap();

    let faults = FaultConfig {
        host_failure_rate: 1.0,
        ..FaultConfig::with_rate(1.0, 0xC0FFEE)
    };
    let config = PlatformConfig::builder()
        .for_mode(ExecutionMode::Jit, 5)
        .faults(faults)
        .cluster(ClusterConfig::uniform(PlacementPolicy::Affinity, 2, 1024))
        .build()
        .unwrap();
    let mut platform = Platform::new(config);
    let coverage = platform.attach_observer(VariantCoverage::default());
    platform.deploy(chain).unwrap();
    platform.deploy(branchy).unwrap();
    for i in 0..12u64 {
        let base = SimTime::from_secs(i * 120);
        platform.trigger_at("chain", base).unwrap();
        platform
            .trigger_at("branchy", base + SimDuration::from_secs(45))
            .unwrap();
    }
    platform.run_until_idle();

    let (seen, events) = coverage.with(|c| (c.seen.clone(), c.events));
    let missing: Vec<BusEvent> = sample_events()
        .into_iter()
        .filter(|e| !seen.contains(&discriminant(e)))
        .collect();
    assert!(missing.is_empty(), "variants never emitted: {missing:?}");
    assert_eq!(seen.len(), VARIANTS);
    assert!(events > 100, "a chaos run is chatty, saw only {events}");
}

/// The SLO path serve takes: a collector attached to the platform folds
/// completions into windows, and a cut evaluates the final windows,
/// raising each breach in the window the degradation actually landed in.
/// A healthy stream raises none.
#[test]
fn slo_alerts_evaluated_at_a_cut_name_the_degraded_window() {
    use xanadu_platform::{SloConfig, SloMonitor};

    let run = |with_degradation: bool| {
        let fast = linear_chain("fast", 1, &FunctionSpec::new("fast-f").service_ms(100.0)).unwrap();
        let slow =
            linear_chain("slow", 1, &FunctionSpec::new("slow-f").service_ms(10_000.0)).unwrap();
        let config = PlatformConfig::builder()
            .for_mode(ExecutionMode::Jit, 7)
            .build()
            .unwrap();
        let mut platform = Platform::new(config);
        // 1-minute windows.
        let collector = platform.attach_observer(SloMonitor::collector(SloConfig::default()));
        platform.deploy(fast).unwrap();
        platform.deploy(slow).unwrap();
        // Window 0 is the baseline; the 10s-slower workflow lands its
        // completions in window 2; a final fast trigger lands in window 5.
        for s in [0u64, 5, 10] {
            platform.trigger_at("fast", SimTime::from_secs(s)).unwrap();
        }
        if with_degradation {
            platform
                .trigger_at("slow", SimTime::from_secs(120))
                .unwrap();
            platform
                .trigger_at("slow", SimTime::from_secs(125))
                .unwrap();
        }
        platform
            .trigger_at("fast", SimTime::from_secs(300))
            .unwrap();
        platform.run_until_idle();
        // Cut below window 5: windows 0–4 are final.
        let mut monitor = collector.snapshot();
        let alerts = monitor.evaluate_below(5);
        let tail = monitor.evaluate_below(u64::MAX);
        assert!(tail.is_empty(), "window 5 is healthy: {tail:?}");
        assert_eq!(monitor.report().alerts, alerts);
        alerts
    };

    let alerts = run(true);
    assert!(!alerts.is_empty());
    assert!(
        alerts.iter().all(|a| a.window == 2),
        "alerts outside the degraded window: {alerts:?}"
    );
    assert!(
        alerts.iter().any(|a| a.path.contains("end_to_end_ms.p95")),
        "{alerts:?}"
    );

    let alerts = run(false);
    assert!(alerts.is_empty(), "{alerts:?}");
}
