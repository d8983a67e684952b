//! The service tier end to end: kill-and-restart determinism at every
//! checkpoint boundary, live-alert/offline-report equivalence, and the
//! resume guards.
//!
//! The core invariant is *mechanical restart equivalence*: a serve run
//! interrupted after any number of checkpoints and resumed produces the
//! final audit JSON, SLO evaluation JSON and alerts JSONL **byte for
//! byte** identical to the uninterrupted run. No tolerance windows —
//! `cmp`-grade equality, the same check CI's serve-soak job performs on
//! the real binary.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;
use xanadu::cli::{execute_with_exports, parse_args, CliError, Command, ExportFile};
use xanadu::serve::{run_record, run_serve, RecordArgs, ServeArgs};
use xanadu_core::speculation::ExecutionMode;
use xanadu_platform::{AuditCheckpoint, SegmentLog};

/// Stream population every test below shares: 4 workflows × depth 3 at
/// 240/h for 360 events cuts into 6 epochs of 60.
const EVENTS: u64 = 360;
const WORKFLOWS: u32 = 4;
const DEPTH: u32 = 3;
const RATE: f64 = 240.0;
const SEED: u64 = 11;
const EPOCH: u64 = 60;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xanadu-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Thresholds that breach on every non-baseline window (recall cannot
/// drop below −1 of itself), so the alert plumbing always has traffic.
const STRICT_SLO: &str = r#"{"max_p95_regress_pct": 1e9,
  "max_wasted_cpu_regress_pct": 1e9, "max_recall_drop": -1.0}"#;

fn base_args(dir: &Path, strict_slo: bool) -> ServeArgs {
    let slo = strict_slo.then(|| {
        let path = dir.join("slo.json");
        std::fs::write(&path, STRICT_SLO).unwrap();
        path.to_string_lossy().into_owned()
    });
    ServeArgs {
        stream: None,
        events: EVENTS,
        workflows: WORKFLOWS,
        depth: DEPTH,
        rate_per_hour: RATE,
        seed: SEED,
        mode: ExecutionMode::Jit,
        checkpoint_dir: dir.join("ck").to_string_lossy().into_owned(),
        checkpoint_every: EPOCH,
        alerts_out: Some(dir.join("alerts.jsonl").to_string_lossy().into_owned()),
        metrics_text: None,
        audit_out: Some("audit.json".into()),
        slo_out: Some("slo.json.out".into()),
        slo,
        slo_window_secs: 60,
        stop_after_checkpoints: 0,
        status_every: 0,
        fail_on_alert: false,
    }
}

/// Runs serve to completion (optionally pausing after `pause_after`
/// checkpoints first) and returns `(audit json, slo json, alerts jsonl)`.
fn run_to_end(dir: &Path, strict_slo: bool, pause_after: Option<u64>) -> (String, String, String) {
    let mut args = base_args(dir, strict_slo);
    if let Some(k) = pause_after {
        args.stop_after_checkpoints = k;
        let mut exports = Vec::new();
        run_serve(&args, &read_file, &mut exports).unwrap();
        args.stop_after_checkpoints = 0;
    }
    let mut exports = Vec::new();
    run_serve(&args, &read_file, &mut exports).unwrap();
    let grab = |path: &str| -> String {
        exports
            .iter()
            .find(|e: &&ExportFile| e.path == path)
            .unwrap_or_else(|| panic!("missing export {path}"))
            .contents
            .clone()
    };
    let alerts = std::fs::read_to_string(dir.join("alerts.jsonl")).unwrap();
    (grab("audit.json"), grab("slo.json.out"), alerts)
}

/// The uninterrupted reference run, computed once per test binary.
fn golden() -> &'static (String, String, String) {
    static GOLDEN: OnceLock<(String, String, String)> = OnceLock::new();
    GOLDEN.get_or_init(|| run_to_end(&scratch_dir("golden"), true, None))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Kill the service at a random checkpoint boundary, resume it, and
    /// demand byte-identical final artifacts. Boundary 6 is the
    /// degenerate "pause exactly at stream end" case.
    #[test]
    fn kill_and_restart_is_byte_identical(boundary in 1u64..=6) {
        let dir = scratch_dir(&format!("restart-{boundary}"));
        let (audit, slo, alerts) = run_to_end(&dir, true, Some(boundary));
        let (g_audit, g_slo, g_alerts) = golden();
        prop_assert_eq!(&audit, g_audit, "audit diverged at boundary {}", boundary);
        prop_assert_eq!(&slo, g_slo, "slo diverged at boundary {}", boundary);
        prop_assert_eq!(&alerts, g_alerts, "alerts diverged at boundary {}", boundary);
    }
}

/// The live alert stream (appended window-by-window as each becomes
/// final) must equal the offline report's alert list exactly — same
/// breaches, same order, same bytes modulo JSONL framing.
#[test]
fn live_alerts_equal_offline_slo_report() {
    let (_, slo_json, alerts_jsonl) = golden().clone();
    let report: serde_json::Value = serde_json::from_str(&slo_json).unwrap();
    let offline = report.get("alerts").and_then(|a| a.as_array()).unwrap();
    let live: Vec<serde_json::Value> = alerts_jsonl
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert!(!offline.is_empty(), "strict thresholds must breach");
    assert_eq!(&live, offline, "live emission drifted from the report");
}

/// Live alerts are exactly the offline verdicts even without strict
/// thresholds: a clean stream emits nothing.
#[test]
fn clean_stream_emits_no_alerts() {
    let dir = scratch_dir("clean");
    let (_, slo_json, alerts) = run_to_end(&dir, false, None);
    let report: serde_json::Value = serde_json::from_str(&slo_json).unwrap();
    assert_eq!(
        report
            .get("alerts")
            .and_then(|a| a.as_array())
            .map(Vec::len),
        Some(0)
    );
    assert!(alerts.is_empty(), "phantom alert lines: {alerts}");
}

/// Serve's own memory plane: every checkpoint proves the audit was
/// drained (`checkpoint()` panics on in-flight requests), the exemplar
/// reservoir respects its cap, and exemplar request ids are globally
/// continuous across epochs rather than restarting at each epoch's zero.
#[test]
fn serve_audit_stays_drained_and_ids_stay_global() {
    let dir = scratch_dir("drained");
    run_to_end(&dir, false, None);
    let store = SegmentLog::open(dir.join("ck")).unwrap().replay().unwrap();
    let (doc, _) = store.get("serve/audit").expect("audit checkpoint doc");
    let audit: AuditCheckpoint = serde_json::from_value(doc.clone()).unwrap();
    assert_eq!(audit.tally.requests, EVENTS, "every stream event completed");
    assert!(audit.exemplars.len() <= audit.exemplars_cap);
    assert!(!audit.exemplars.is_empty(), "reservoir captured nothing");
    // Exemplar ids are global (offset per epoch before merging), so they
    // index into 0..EVENTS without collisions. The worst requests land in
    // epoch 0 — the first-ever triggers ride the full cold-start cascade
    // before anything is learned — and the kill-and-restart proptest
    // already proves the ids survive a resume byte-for-byte.
    let mut ids: Vec<u64> = audit.exemplars.iter().map(|e| e.request).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), audit.exemplars.len(), "duplicate exemplar ids");
    assert!(ids.iter().all(|&r| r < EVENTS), "id out of range: {ids:?}");
    let (cursor, _) = store.get("serve/cursor").expect("cursor doc");
    assert_eq!(
        cursor.get("events_consumed").and_then(|v| v.as_u64()),
        Some(EVENTS)
    );
}

/// The log's write path is blind to document types: re-appending a
/// finished serve's segments, parsed back as `Value` documents, to a
/// fresh log reproduces every manifest entry and digest. perfbench's
/// re-append timing checks its segments against serve's this way.
#[test]
fn reappended_value_segments_reproduce_serve_digests() {
    let dir = scratch_dir("reappend");
    run_to_end(&dir, true, None);
    let served = SegmentLog::open(dir.join("ck")).unwrap();
    let manifest = served.manifest().unwrap();
    assert_eq!(manifest.segments.len() as u64, EVENTS / EPOCH);

    let fresh = SegmentLog::open(dir.join("reappend")).unwrap();
    for seg in &manifest.segments {
        let text = std::fs::read_to_string(served.dir().join(&seg.file)).unwrap();
        let body: serde_json::Value = serde_json::from_str(&text).unwrap();
        let docs: Vec<(String, serde_json::Value)> =
            body.as_object().unwrap().clone().into_iter().collect();
        let entry = fresh.append(&docs).unwrap();
        assert_eq!(&entry, seg, "re-appended {} differs", seg.file);
    }
    assert_eq!(
        std::fs::read(fresh.manifest_path()).unwrap(),
        std::fs::read(served.manifest_path()).unwrap()
    );
}

/// Every file of a checkpoint directory, by name.
fn log_bytes(dir: &str) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

/// Records the shared stream population to `dir/stream.jsonl`.
fn record_stream(dir: &Path) -> String {
    let path = dir.join("stream.jsonl").to_string_lossy().into_owned();
    let mut exports = Vec::new();
    run_record(
        &RecordArgs {
            out: path.clone(),
            events: EVENTS,
            workflows: WORKFLOWS,
            depth: DEPTH,
            rate_per_hour: RATE,
            seed: SEED,
        },
        &mut exports,
    )
    .unwrap();
    std::fs::write(&path, &exports[0].contents).unwrap();
    path
}

/// Resuming against anything that shaped the log — the stream, the epoch
/// cadence, the execution mode, the seed of a recorded stream's epoch
/// platforms, the SLO thresholds — is a hard error that names the
/// mismatch and the directory, not a silent divergence, and it leaves the
/// log untouched.
#[test]
fn resume_guards_reject_mismatches() {
    let dir = scratch_dir("guards");
    let mut generated = base_args(&dir, false);
    generated.stop_after_checkpoints = 1;
    run_serve(&generated, &read_file, &mut Vec::new()).unwrap();

    let mut recorded = base_args(&dir, false);
    recorded.stream = Some(record_stream(&dir));
    recorded.checkpoint_dir = dir.join("ck-recorded").to_string_lossy().into_owned();
    recorded.stop_after_checkpoints = 1;
    run_serve(&recorded, &read_file, &mut Vec::new()).unwrap();

    let cases = [
        (
            ServeArgs {
                seed: SEED + 1,
                ..generated.clone()
            },
            "different stream",
        ),
        (
            ServeArgs {
                checkpoint_every: EPOCH * 2,
                ..generated.clone()
            },
            "boundaries must match",
        ),
        (
            ServeArgs {
                mode: ExecutionMode::Cold,
                ..generated.clone()
            },
            "--mode and --seed must match",
        ),
        (
            ServeArgs {
                seed: SEED + 1,
                ..recorded.clone()
            },
            "--mode and --seed must match",
        ),
        (
            ServeArgs {
                slo: base_args(&dir, true).slo,
                ..generated.clone()
            },
            "--slo asks for",
        ),
    ];
    for (i, (args, expected)) in cases.iter().enumerate() {
        let before = log_bytes(&args.checkpoint_dir);
        let err = run_serve(args, &read_file, &mut Vec::new()).unwrap_err();
        let CliError::Workflow(message) = &err else {
            panic!("case {i}: expected a workflow error, got {err}");
        };
        assert!(message.contains(expected), "case {i}: {message}");
        assert!(
            message.contains(&args.checkpoint_dir),
            "case {i}: {message}"
        );
        assert_eq!(
            log_bytes(&args.checkpoint_dir),
            before,
            "case {i} touched the log"
        );
    }
}

/// Every checkpoint document has a reader: a finished log rewritten
/// without any one of them (each segment re-appended, so digests stay
/// valid) is refused with an error naming the missing document instead
/// of resuming from a fresh start or an unrestored epoch.
#[test]
fn resume_requires_every_checkpoint_document() {
    let dir = scratch_dir("missing-doc");
    let args = base_args(&dir, false);
    run_serve(&args, &read_file, &mut Vec::new()).unwrap();
    let served = SegmentLog::open(&args.checkpoint_dir).unwrap();
    let segments: Vec<Vec<(String, serde_json::Value)>> = served
        .manifest()
        .unwrap()
        .segments
        .iter()
        .map(|seg| {
            let text = std::fs::read_to_string(served.dir().join(&seg.file)).unwrap();
            let body: serde_json::Value = serde_json::from_str(&text).unwrap();
            body.as_object().unwrap().clone().into_iter().collect()
        })
        .collect();
    let ids: Vec<&str> = segments[0].iter().map(|(id, _)| id.as_str()).collect();
    assert_eq!(
        ids,
        [
            "learned/branches",
            "learned/metrics",
            "serve/audit",
            "serve/cursor",
            "serve/slo"
        ]
    );

    for id in ids {
        let mut copy = args.clone();
        copy.checkpoint_dir = dir
            .join(format!("without-{}", id.replace('/', "-")))
            .to_string_lossy()
            .into_owned();
        let log = SegmentLog::open(&copy.checkpoint_dir).unwrap();
        for docs in &segments {
            let kept: Vec<_> = docs.iter().filter(|(d, _)| d != id).cloned().collect();
            log.append(&kept).unwrap();
        }
        let before = log_bytes(&copy.checkpoint_dir);
        let err = run_serve(&copy, &read_file, &mut Vec::new()).unwrap_err();
        let CliError::Workflow(message) = &err else {
            panic!("without {id}: expected a workflow error, got {err}");
        };
        assert!(
            message.contains(&format!("`{id}`")),
            "without {id}: {message}"
        );
        assert_eq!(log_bytes(&copy.checkpoint_dir), before, "without {id}");
    }
}

/// A log whose cursor and SLO document disagree about how many alerts
/// were emitted is refused with a typed error naming the directory and
/// both counts, in release and debug builds alike.
#[test]
fn resume_rejects_a_cursor_that_disagrees_with_the_slo_alerts() {
    let dir = scratch_dir("alert-count");
    let mut args = base_args(&dir, true);
    args.stop_after_checkpoints = 1;
    run_serve(&args, &read_file, &mut Vec::new()).unwrap();

    let log = SegmentLog::open(&args.checkpoint_dir).unwrap();
    let store = log.replay().unwrap();
    let (cursor, _) = store.get("serve/cursor").expect("cursor doc");
    let emitted = cursor
        .get("alerts_emitted")
        .and_then(|v| v.as_u64())
        .unwrap();
    let mut forged = cursor.clone();
    let serde_json::Value::Object(fields) = &mut forged else {
        panic!("cursor is not an object: {cursor:?}");
    };
    fields.insert("alerts_emitted".into(), serde_json::json!(emitted + 1));
    log.append(&[("serve/cursor".to_string(), forged)]).unwrap();

    args.stop_after_checkpoints = 0;
    let err = run_serve(&args, &read_file, &mut Vec::new()).unwrap_err();
    let CliError::Workflow(message) = &err else {
        panic!("expected a workflow error, got {err}");
    };
    assert!(message.contains(&args.checkpoint_dir), "{message}");
    assert!(
        message.contains(&format!("counts {} emitted alerts", emitted + 1)),
        "{message}"
    );
    assert!(message.contains(&format!("holds {emitted}")), "{message}");
}

/// A log of the previous checkpoint format (version 4) is refused by its
/// cursor version, with a typed error naming the directory and both
/// versions, and the log is left byte-equal. The forged log's exemplars
/// hold recorded traces as version 4's did, which this build cannot
/// read: the version is checked before that document is parsed.
#[test]
fn resume_rejects_a_cursor_of_the_previous_version() {
    let dir = scratch_dir("cursor-version");
    let mut args = base_args(&dir, false);
    args.stop_after_checkpoints = 1;
    run_serve(&args, &read_file, &mut Vec::new()).unwrap();

    let log = SegmentLog::open(&args.checkpoint_dir).unwrap();
    let store = log.replay().unwrap();
    let (cursor, _) = store.get("serve/cursor").expect("cursor doc");
    let version = cursor.get("version").and_then(|v| v.as_u64()).unwrap();
    assert_eq!(version, 5);
    let mut forged = cursor.clone();
    let serde_json::Value::Object(fields) = &mut forged else {
        panic!("cursor is not an object: {cursor:?}");
    };
    fields.insert("version".into(), serde_json::json!(version - 1));
    // The previous version's exemplars carried a recorded trace of bus
    // events where this build's carry a folded timeline.
    let (audit, _) = store.get("serve/audit").expect("audit doc");
    let mut old_audit = audit.clone();
    let Some(serde_json::Value::Array(exemplars)) = old_audit.get_mut("exemplars") else {
        panic!("audit has no exemplars: {audit:?}");
    };
    assert!(!exemplars.is_empty());
    for exemplar in exemplars {
        let serde_json::Value::Object(fields) = exemplar else {
            panic!("exemplar is not an object: {exemplar:?}");
        };
        assert!(fields.remove("timeline").is_some(), "exemplar timeline");
        let old_trace = serde_json::json!({"events": [{"at": 0, "event": {
            "RequestTriggered": {"request": 0, "workflow": "wf"}
        }}]});
        fields.insert("trace".into(), old_trace);
    }
    log.append(&[
        ("serve/audit".to_string(), old_audit),
        ("serve/cursor".to_string(), forged),
    ])
    .unwrap();

    args.stop_after_checkpoints = 0;
    let before = log_bytes(&args.checkpoint_dir);
    let err = run_serve(&args, &read_file, &mut Vec::new()).unwrap_err();
    let CliError::Workflow(message) = &err else {
        panic!("expected a workflow error, got {err}");
    };
    assert!(message.contains(&args.checkpoint_dir), "{message}");
    assert!(
        message.contains(&format!("a cursor of version {}", version - 1)),
        "{message}"
    );
    assert!(
        message.contains(&format!("resumes only version {version}")),
        "{message}"
    );
    assert_eq!(log_bytes(&args.checkpoint_dir), before, "the log changed");
}

/// `record` → `serve --stream` replays the exact stream the generator
/// flags would produce: both paths end in byte-identical audits.
#[test]
fn recorded_and_generated_streams_are_equivalent() {
    let dir = scratch_dir("roundtrip");
    let stream_path = record_stream(&dir);

    let replay_dir = scratch_dir("roundtrip-replay");
    let mut args = base_args(&replay_dir, true);
    args.stream = Some(stream_path);
    let mut exports = Vec::new();
    run_serve(&args, &read_file, &mut exports).unwrap();
    let audit = &exports
        .iter()
        .find(|e| e.path == "audit.json")
        .unwrap()
        .contents;
    assert_eq!(
        audit,
        &golden().0,
        "recorded stream diverged from generated"
    );
}

/// `--fail-on-alert` turns raised alerts into a non-zero exit while
/// still carrying the staged exports (the evidence survives failure).
#[test]
fn fail_on_alert_raises_slo_breach_with_exports() {
    let dir = scratch_dir("breach");
    let mut args = base_args(&dir, true);
    args.fail_on_alert = true;
    let err = run_serve(&args, &read_file, &mut Vec::new()).unwrap_err();
    match err {
        CliError::SloBreach {
            details, exports, ..
        } => {
            assert!(!details.is_empty());
            assert!(exports.iter().any(|e| e.path == "audit.json"));
        }
        other => panic!("expected SloBreach, got {other}"),
    }
}

/// The serve/record CLI surface parses with its documented defaults and
/// rejects the degenerate knobs.
#[test]
fn cli_parses_serve_and_record() {
    let args: Vec<String> = ["serve", "--checkpoint-dir", "/tmp/ck"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    match parse_args(&args).unwrap() {
        Command::Serve(s) => {
            assert_eq!(s.checkpoint_every, 200);
            assert_eq!(s.workflows, 6);
            assert!(!s.fail_on_alert);
        }
        other => panic!("{other:?}"),
    }
    let args: Vec<String> = ["record", "--events", "10"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert!(matches!(
        parse_args(&args),
        Err(CliError::MissingFlag(f)) if f == "--out"
    ));
    let args: Vec<String> = ["serve", "--checkpoint-dir", "x", "--checkpoint-every", "0"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert!(matches!(parse_args(&args), Err(CliError::BadValue { .. })));
}

/// A stream too large to hold is a typed error naming `--events`, from
/// `record` and from `serve` before it opens its log, not a
/// capacity-overflow panic. `u64::MAX` events overflow the reservation's
/// size arithmetic, so the test allocates nothing.
#[test]
fn an_oversized_stream_is_a_typed_error() {
    let dir = scratch_dir("oversized");
    let log = dir.join("ck").to_string_lossy().into_owned();
    let max = u64::MAX.to_string();
    let lines: [&[&str]; 2] = [
        &["record", "--out", "stream.jsonl", "--events", &max],
        &["serve", "--checkpoint-dir", &log, "--events", &max],
    ];
    for line in lines {
        let args: Vec<String> = line.iter().map(|s| s.to_string()).collect();
        let command = parse_args(&args).unwrap();
        match execute_with_exports(&command, read_file) {
            Err(CliError::BadValue { flag, value, .. }) => {
                assert_eq!((flag.as_str(), value.as_str()), ("--events", max.as_str()));
            }
            Err(other) => panic!("{}: expected a bad --events, got {other}", line[0]),
            Ok(_) => panic!("{}: an unholdable stream was accepted", line[0]),
        }
    }
    assert!(!Path::new(&log).exists(), "serve opened its log");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A population whose chains cannot be held is refused with a typed
/// error naming `--depth` (or, for a recorded stream, its header line)
/// before serve opens its log, instead of aborting on the allocation.
/// `record` refuses it too, so it never writes a stream `serve` could
/// not run. Reserving 4·10^9 functions fails without touching memory.
#[test]
fn an_oversized_population_is_refused_before_the_log_opens() {
    let dir = scratch_dir("deep");
    let log = dir.join("ck").to_string_lossy().into_owned();
    let out = dir.join("deep.jsonl").to_string_lossy().into_owned();
    let depth = "4000000000";
    let run = |line: &[&str]| {
        let args: Vec<String> = line.iter().map(|s| s.to_string()).collect();
        execute_with_exports(&parse_args(&args).unwrap(), read_file)
    };
    let generated: [&[&str]; 2] = [
        &["record", "--out", &out, "--events", "1", "--depth", depth],
        &[
            "serve",
            "--checkpoint-dir",
            &log,
            "--events",
            "1",
            "--depth",
            depth,
        ],
    ];
    for line in generated {
        match run(line) {
            Err(CliError::BadValue { flag, value, .. }) => {
                assert_eq!((flag.as_str(), value.as_str()), ("--depth", depth));
            }
            Err(other) => panic!("{}: expected a bad --depth, got {other}", line[0]),
            Ok(_) => panic!("{}: an unholdable population was accepted", line[0]),
        }
    }
    let stream = dir.join("deep-header.jsonl").to_string_lossy().into_owned();
    std::fs::write(
        &stream,
        concat!(
            r#"{"depth":4000000000,"events":1,"rate_per_hour":60.0,"seed":1,"version":1,"workflows":2}"#,
            "\n",
            r#"{"at_us":5,"wf":0}"#,
            "\n",
        ),
    )
    .unwrap();
    match run(&["serve", "--checkpoint-dir", &log, "--stream", &stream]) {
        Err(CliError::Workflow(message)) => {
            assert!(message.contains("stream line 1"), "{message}");
            assert!(message.contains("header depth 4000000000"), "{message}");
        }
        Err(other) => panic!("expected a refused stream header, got {other}"),
        Ok(_) => panic!("a recorded header with an unholdable population was accepted"),
    }
    assert!(!Path::new(&log).exists(), "serve opened its log");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A JSON object that repeats a key is a parse error naming the key, so
/// a stream line cannot say two things at once: serve refuses it, naming
/// the line, before it opens its log.
#[test]
fn a_repeated_stream_key_is_refused_naming_its_line() {
    let dir = scratch_dir("repeated");
    let log = dir.join("ck").to_string_lossy().into_owned();
    let header =
        r#"{"depth":2,"events":1,"rate_per_hour":60.0,"seed":1,"version":1,"workflows":2}"#;
    let cases = [
        (
            format!("{header}\n{}\n", r#"{"at_us":5,"wf":0,"wf":1}"#),
            "stream line 2",
            "duplicate key `wf`",
        ),
        (
            format!(
                "{}\n{}\n",
                header.replace(r#""workflows":2"#, r#""workflows":2,"workflows":3"#),
                r#"{"at_us":5,"wf":2}"#
            ),
            "stream line 1",
            "duplicate key `workflows`",
        ),
    ];
    for (text, line, key) in cases {
        let stream = dir.join("repeated.jsonl").to_string_lossy().into_owned();
        std::fs::write(&stream, text).unwrap();
        let args: Vec<String> = ["serve", "--checkpoint-dir", &log, "--stream", &stream]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match execute_with_exports(&parse_args(&args).unwrap(), read_file) {
            Err(CliError::Workflow(message)) => {
                assert!(message.contains(line), "{message}");
                assert!(message.contains(key), "{message}");
            }
            Err(other) => panic!("expected a refused stream line, got {other}"),
            Ok(_) => panic!("a stream line repeating a key was served"),
        }
        assert!(!Path::new(&log).exists(), "serve opened its log");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Triggers past the last simulable time are refused with a typed error
/// before serve opens its log, not simulated until the clock wraps and
/// the kernel panics. A generated stream at 10^-15 arrivals per hour
/// draws every gap past the end of the clock: `record` and `serve` name
/// `--rate-per-hour`. A recorded stream's late trigger names its line.
#[test]
fn triggers_past_the_last_simulable_time_are_typed_errors() {
    let dir = scratch_dir("late");
    let log = dir.join("ck").to_string_lossy().into_owned();
    let population = [
        "--events",
        "4",
        "--workflows",
        "2",
        "--rate-per-hour",
        "1e-15",
    ];
    let record: Vec<&str> = ["record", "--out", "stream.jsonl"]
        .into_iter()
        .chain(population)
        .collect();
    let serve: Vec<&str> = ["serve", "--checkpoint-dir", &log]
        .into_iter()
        .chain(population)
        .collect();
    let run = |line: &[&str]| {
        let args: Vec<String> = line.iter().map(|s| s.to_string()).collect();
        execute_with_exports(&parse_args(&args).unwrap(), read_file)
    };
    for line in [&record, &serve] {
        match run(line) {
            Err(CliError::BadValue { flag, .. }) => assert_eq!(flag, "--rate-per-hour"),
            Err(other) => panic!("{}: expected a bad --rate-per-hour, got {other}", line[0]),
            Ok(_) => panic!("{}: a stream past the clock was accepted", line[0]),
        }
    }

    let stream = dir.join("late.jsonl").to_string_lossy().into_owned();
    std::fs::write(
        &stream,
        concat!(
            r#"{"depth":2,"events":1,"rate_per_hour":60.0,"seed":1,"version":1,"workflows":1}"#,
            "\n",
            r#"{"at_us":18446744073709551000,"wf":0}"#,
            "\n",
        ),
    )
    .unwrap();
    match run(&["serve", "--checkpoint-dir", &log, "--stream", &stream]) {
        Err(CliError::Workflow(message)) => {
            assert!(message.contains("stream line 2"), "{message}");
            assert!(message.contains("last simulable trigger time"), "{message}");
        }
        Err(other) => panic!("expected a refused stream line, got {other}"),
        Ok(_) => panic!("a recorded trigger past the clock was accepted"),
    }
    assert!(!Path::new(&log).exists(), "serve opened its log");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `validate` checks a `.jsonl` document line by line against the
/// alerts schema, failing on the first malformed or off-schema line.
#[test]
fn validate_checks_alert_streams_line_by_line() {
    let schema = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../docs/schemas/alerts.schema.json"),
    )
    .unwrap();
    let good = r#"{"allowed":"x","baseline":1.0,"candidate":2.0,"path":"$.p","window":1}
{"allowed":"y","baseline":1.0,"candidate":3.0,"path":"$.q","window":2}
"#;
    let bad = r#"{"allowed":"x","baseline":1.0,"candidate":2.0,"path":"$.p","window":1}
{"allowed":"x","baseline":1.0,"surprise":true,"path":"$.p","window":1}
"#;
    let source = move |path: &str| -> Result<String, String> {
        match path {
            "alerts.jsonl" => Ok(good.to_string()),
            "bad.jsonl" => Ok(bad.to_string()),
            "alerts.schema.json" => Ok(schema.clone()),
            other => Err(format!("unexpected read of {other}")),
        }
    };
    let cmd = Command::Validate {
        json_path: "alerts.jsonl".into(),
        schema_path: "alerts.schema.json".into(),
    };
    let (report, _) = execute_with_exports(&cmd, &source).unwrap();
    assert!(report.contains("2 line(s) valid"), "{report}");
    let cmd = Command::Validate {
        json_path: "bad.jsonl".into(),
        schema_path: "alerts.schema.json".into(),
    };
    let err = execute_with_exports(&cmd, &source).unwrap_err();
    assert!(
        matches!(&err, CliError::Workflow(m) if m.contains("bad.jsonl:2")),
        "{err}"
    );
}
