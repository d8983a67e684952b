//! The typed event taxonomy end to end: every [`BusEvent`] variant
//! round-trips through serde and streams the bytes its tree renders, and
//! a chaos-mode run emits every topic at least once — asserted through an
//! [`Observer`], the one hook every consumer of platform events uses.

use xanadu::prelude::*;
use xanadu_platform::events::Topic;

/// One sample of every `BusEvent` variant, in `Topic::ALL` order.
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
        BusEvent::SloAlert {
            window: 2,
            path: "$.windows[2].end_to_end_ms.p95".into(),
            baseline: 120.0,
            candidate: 480.0,
            allowed: "+300.0% > allowed +10.0%".into(),
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
        BusEvent::CheckpointWritten {
            epoch: 4,
            segment: 4,
            docs: 6,
            events: 1000,
        },
        BusEvent::CheckpointRestored {
            epoch: 5,
            segments: 5,
            events: 1000,
        },
        BusEvent::SketchEviction {
            evicted: 3,
            occupancy: 64,
            capacity: 64,
        },
    ]
}

#[test]
fn every_variant_roundtrips_through_serde() {
    let events = sample_events();
    assert_eq!(events.len(), Topic::ALL.len(), "one sample per topic");
    for (event, &topic) in events.iter().zip(Topic::ALL.iter()) {
        assert_eq!(event.topic(), topic, "sample order matches Topic::ALL");
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

/// Observer that records which topics it has seen, by `Topic::index()`.
struct TopicCoverage {
    seen: [bool; Topic::ALL.len()],
    events: u64,
}

impl Observer for TopicCoverage {
    fn on_event(&mut self, _at: SimTime, event: &BusEvent) {
        self.seen[event.topic().index()] = true;
        self.events += 1;
    }
}

#[test]
fn chaos_run_emits_every_topic_at_least_once() {
    // Depth-5 chain whose spiked service time blows the invocation
    // timeout (timeout + retry events), plus an XOR workflow whose cold
    // branch forces prediction misses; certain-fault injection covers
    // crashes. A tiny two-host cluster under certain host failure covers
    // the cluster topics: placements on every provision, evictions under
    // memory pressure, host.down from injected failures, host.up from
    // the reboots that follow. 12 triggers of each make every topic
    // deterministic for this seed pair.
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
        host_mtbf_ms: 90_000.0,
        host_reboot_ms: 15_000.0,
        ..FaultConfig::with_rate(1.0, 0xC0FFEE)
    };
    let config = PlatformConfig::builder()
        .for_mode(ExecutionMode::Jit, 5)
        .faults(faults)
        .cluster(ClusterConfig::uniform(PlacementPolicy::Affinity, 2, 1024))
        .build()
        .unwrap();
    let mut platform = Platform::new(config);
    let coverage = platform.attach_observer(TopicCoverage {
        seen: [false; Topic::ALL.len()],
        events: 0,
    });
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

    let (seen, events) = coverage.with(|c| (c.seen, c.events));
    // `slo.alert` and the `checkpoint.*`/`sketch.*` topics are announced
    // by the service tier (`xanadu serve`); the dedicated tests below
    // cover them.
    let service_only = [
        Topic::SloAlert,
        Topic::CheckpointWritten,
        Topic::CheckpointRestored,
        Topic::SketchEviction,
    ];
    let missing: Vec<&str> = Topic::ALL
        .iter()
        .filter(|&&t| !service_only.contains(&t) && !seen[t.index()])
        .map(|t| t.name())
        .collect();
    assert!(missing.is_empty(), "topics never emitted: {missing:?}");
    assert!(events > 100, "a chaos run is chatty, saw only {events}");
    for t in service_only {
        assert!(!seen[t.index()], "{} emitted without its tier", t.name());
    }
}

/// The service-tier topics flow through `Platform::announce` to
/// observers like any organically emitted event, and the metrics
/// registry rolls them into its counters.
#[test]
fn announced_service_events_reach_observers_and_metrics() {
    let config = PlatformConfig::builder()
        .for_mode(ExecutionMode::Jit, 3)
        .build()
        .unwrap();
    let mut platform = Platform::new(config);
    let registry = platform.attach_observer(MetricsRegistry::new());
    let coverage = platform.attach_observer(TopicCoverage {
        seen: [false; Topic::ALL.len()],
        events: 0,
    });
    platform.announce(BusEvent::CheckpointRestored {
        epoch: 2,
        segments: 2,
        events: 400,
    });
    platform.announce(BusEvent::CheckpointWritten {
        epoch: 2,
        segment: 2,
        docs: 6,
        events: 600,
    });
    platform.announce(BusEvent::CheckpointWritten {
        epoch: 3,
        segment: 3,
        docs: 6,
        events: 800,
    });
    platform.announce(BusEvent::SketchEviction {
        evicted: 5,
        occupancy: 64,
        capacity: 64,
    });

    let seen = coverage.with(|c| c.seen);
    for t in [
        Topic::CheckpointWritten,
        Topic::CheckpointRestored,
        Topic::SketchEviction,
    ] {
        assert!(seen[t.index()], "{} never delivered", t.name());
    }
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("checkpoints.written"), 2);
    assert_eq!(snapshot.counter("checkpoints.docs"), 12);
    assert_eq!(snapshot.counter("checkpoints.restored"), 1);
    assert_eq!(snapshot.counter("sketch.evictions"), 5);
}

/// The SLO path serve takes: a collector attached to the platform folds
/// completions into windows, a cut evaluates the final windows, and each
/// breach is announced as a typed [`BusEvent::SloAlert`], in the window
/// the degradation actually landed in. A healthy stream announces none.
#[test]
fn slo_alerts_evaluated_at_a_cut_reach_observers_through_announce() {
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
        let coverage = platform.attach_observer(TopicCoverage {
            seen: [false; Topic::ALL.len()],
            events: 0,
        });
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
        let published = platform.published_events();
        for alert in &alerts {
            platform.announce(alert.clone().into_event());
        }
        assert_eq!(
            platform.published_events(),
            published + alerts.len() as u64,
            "one announced event per alert"
        );
        let tail = monitor.evaluate_below(u64::MAX);
        assert!(tail.is_empty(), "window 5 is healthy: {tail:?}");
        assert_eq!(monitor.report().alerts, alerts);
        let seen = coverage.with(|c| c.seen);
        (seen[Topic::SloAlert.index()], alerts)
    };

    let (alert_seen, alerts) = run(true);
    assert!(alert_seen, "breach never reached the observers");
    assert!(!alerts.is_empty());
    assert!(
        alerts.iter().all(|a| a.window == 2),
        "alerts outside the degraded window: {alerts:?}"
    );
    assert!(
        alerts.iter().any(|a| a.path.contains("end_to_end_ms.p95")),
        "{alerts:?}"
    );

    let (alert_seen, alerts) = run(false);
    assert!(!alert_seen, "clean stream announced an alert");
    assert!(alerts.is_empty(), "{alerts:?}");
}
