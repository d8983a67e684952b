//! Streamed JSON equals the rendered tree, byte for byte.
//!
//! `serde_json::to_string{,_pretty}` stream through
//! `Serialize::write_json`: sequences, derived named structs and newtypes
//! write their text directly, every other type renders its `Value` tree.
//! Every golden and report digest relies on the two paths agreeing, so
//! each value below is written both ways and compared, and the replay
//! report, which the CLI digests while streaming it, is checked against
//! the tree render of the same report.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use serde_json::Value;
use xanadu::cli::{execute_with_exports, parse_args};
use xanadu::prelude::*;
use xanadu_platform::{AuditCheckpoint, StreamingAudit, StreamingConfig};
use xanadu_simcore::fnv1a64_digest;

/// Asserts that the streamed compact and pretty text of `value` equal
/// the render of its tree; returns the pretty text.
fn assert_streams_like_tree<T: Serialize>(value: &T) -> String {
    let tree = serde_json::to_value(value).unwrap();
    let pretty = serde_json::to_string_pretty(value).unwrap();
    assert_eq!(pretty, tree.to_json_string_pretty());
    assert_eq!(serde_json::to_string(value).unwrap(), tree.to_json_string());
    pretty
}

/// A cluster + faults run with metrics and a streaming audit attached.
fn chaos_run() -> (PlatformReport, AuditCheckpoint, MetricsRegistry) {
    let chain = linear_chain("chain", 4, &FunctionSpec::new("f").service_ms(900.0)).unwrap();
    let config = PlatformConfig::builder()
        .for_mode(ExecutionMode::Jit, 3)
        .faults(FaultConfig {
            host_failure_rate: 0.5,
            ..FaultConfig::with_rate(0.3, 7)
        })
        .cluster(ClusterConfig::uniform(PlacementPolicy::Affinity, 2, 1024))
        .build()
        .unwrap();
    let mut platform = Platform::new(config);
    let metrics = platform.attach_observer(MetricsRegistry::new());
    let audit = platform.attach_observer(StreamingAudit::new(StreamingConfig::default()));
    platform.deploy(chain).unwrap();
    for i in 0..8u64 {
        platform
            .trigger_at("chain", SimTime::from_secs(i * 40))
            .unwrap();
    }
    let report = platform.finish();
    (report, audit.with(|a| a.checkpoint()), metrics.snapshot())
}

#[test]
fn platform_reports_stream_like_their_tree() {
    let (report, _, metrics) = chaos_run();
    assert!(report.cluster.is_some());
    assert!(!report.results.is_empty() && !report.worker_records.is_empty());
    assert_streams_like_tree(&report);
    // The metrics registry, read back through its observer handle.
    assert!(metrics.counter("requests.completed") > 0);
    assert!(metrics.histogram("end_to_end_ms").is_some());
    assert_streams_like_tree(&metrics);
    let empty = assert_streams_like_tree(&PlatformReport::default());
    assert_eq!(empty, "{\n  \"results\": [],\n  \"worker_records\": []\n}");
}

#[test]
fn flattened_audit_checkpoint_streams_and_roundtrips() {
    let (_, checkpoint, _) = chaos_run();
    assert!(!checkpoint.exemplars.is_empty());
    let text = assert_streams_like_tree(&checkpoint);
    let doc: Value = serde_json::from_str(&text).unwrap();
    // Flattened: the tally's and the buckets' members sit at top level.
    for key in ["requests", "end_to_end", "exemplars_cap"] {
        assert!(doc.get(key).is_some(), "missing {key} in {text}");
    }
    assert!(doc.get("tally").is_none() && doc.get("buckets").is_none());
    assert!(doc.get("cluster").is_none(), "no cluster counters: {text}");
    let back: AuditCheckpoint = serde_json::from_str(&text).unwrap();
    assert_eq!(back, checkpoint);
}

mod as_tagged {
    pub fn to_json(v: &u32) -> serde::Value {
        serde_json::json!({ "tag": *v })
    }
}

/// Fields declared out of byte order (`b2` < `b_c` < `ba` < `map`), a
/// `with` field, a skipped field, and the shapes that keep the tree
/// default (maps, enums) nested inside the streamed ones.
#[derive(Serialize)]
struct Mixed {
    ba: Vec<Vec<u32>>,
    map: BTreeMap<u64, &'static str>,
    b_c: Option<Box<Newtype>>,
    #[serde(with = "as_tagged")]
    tagged: u32,
    #[serde(skip_serializing_if = "Vec::is_empty")]
    skipped: Vec<u8>,
    b2: [f64; 5],
    text: String,
    mode: ExecutionMode,
}

#[derive(Serialize)]
struct Newtype(Vec<AllSkipped>);

#[derive(Serialize, Default)]
struct AllSkipped {
    #[serde(skip_serializing_if = "Option::is_none")]
    maybe: Option<u32>,
    #[serde(skip_serializing_if = "Vec::is_empty")]
    items: Vec<u32>,
}

#[test]
fn std_and_derived_shapes_stream_like_their_tree() {
    let all_skipped = assert_streams_like_tree(&AllSkipped::default());
    assert_eq!(all_skipped, "{}");
    assert_eq!(serde_json::to_string(&AllSkipped::default()).unwrap(), "{}");

    let mixed = Mixed {
        ba: vec![vec![], vec![1, 2], vec![3]],
        map: BTreeMap::from([(9, "nine"), (10, "ten")]),
        b_c: Some(Box::new(Newtype(vec![
            AllSkipped::default(),
            AllSkipped {
                maybe: Some(4),
                items: vec![5],
            },
        ]))),
        tagged: 6,
        skipped: Vec::new(),
        b2: [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 2.0, -0.5],
        text: "quote \" backslash \\ nl \n tab \t bell \u{7} nul \u{0} café 😀 ü".into(),
        mode: ExecutionMode::Jit,
    };
    let text = assert_streams_like_tree(&mixed);
    let offsets: Vec<usize> = ["\"b2\"", "\"b_c\"", "\"ba\"", "\"map\"", "\"mode\""]
        .iter()
        .map(|k| text.find(k).unwrap())
        .collect();
    assert!(offsets.windows(2).all(|w| w[0] < w[1]), "{text}");
    // Map keys render in string order: "10" before "9".
    assert!(text.find("\"10\"").unwrap() < text.find("\"9\"").unwrap());
    assert!(text.contains("null,\n    null,\n    null,\n    2.0,\n    -0.5"));
    assert!(
        text.contains(r#"bell \u0007 nul \u0000 café 😀 ü"#),
        "{text}"
    );

    assert_streams_like_tree(&Vec::<u32>::new());
    assert_streams_like_tree(&vec![Vec::<u32>::new(), vec![1]]);
    assert_streams_like_tree(&vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 2.0]);
    assert_eq!(serde_json::to_string(&2.0f64).unwrap(), "2.0");
    assert_eq!(serde_json::to_string(&f64::NAN).unwrap(), "null");
}

#[test]
fn huge_integral_floats_roundtrip_as_floats() {
    for f in [1e20, -1e20, 2e19, 1e300] {
        let text = serde_json::to_string(&f).unwrap();
        assert!(
            !text.contains(['.', 'e']),
            "renders without a point: {text}"
        );
        let back: f64 = serde_json::from_str(&text).unwrap();
        assert_eq!(back, f, "{text}");
        let value: Value = serde_json::from_str(&text).unwrap();
        assert!(
            matches!(value, Value::Number(n) if n.is_f64()),
            "{text} parsed as an integer"
        );
    }
}

/// `xanadu replay` digests its report while streaming it: at any shard
/// count, with or without `--report-out`, it prints the digest of the
/// tree render, and the file it writes is that render.
#[test]
fn replay_report_digest_and_file_equal_the_tree_render() {
    let replay = |shards: &str, report_out: bool| {
        let mut list = vec!["replay", "--invocations", "300", "--seed", "9"];
        list.extend(["--shards", shards]);
        if report_out {
            list.extend(["--report-out", "report.json"]);
        }
        let args: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        let cmd = parse_args(&args).unwrap();
        let (out, exports) = execute_with_exports(&cmd, |p: &str| Err(p.to_string())).unwrap();
        let digest = out
            .lines()
            .find_map(|l| l.strip_prefix("report digest: "))
            .expect("digest line")
            .to_string();
        let file = exports
            .into_iter()
            .find(|e| e.path == "report.json")
            .map(|e| e.contents);
        assert_eq!(file.is_some(), report_out);
        (digest, file)
    };

    let runs = [("1", false), ("1", true), ("2", false), ("2", true)]
        .map(|(shards, report_out)| (shards, replay(shards, report_out)));
    let file = runs
        .iter()
        .find_map(|(_, (_, file))| file.as_ref())
        .expect("--report-out file");
    let report: PlatformReport = serde_json::from_str(file).unwrap();
    assert!(!report.results.is_empty());
    let render = serde_json::to_value(&report)
        .unwrap()
        .to_json_string_pretty()
        + "\n";
    let expected = fnv1a64_digest(render.as_bytes());
    for (shards, (digest, file)) in &runs {
        assert_eq!(digest, &expected, "--shards {shards}");
        if let Some(file) = file {
            assert_eq!(
                file, &render,
                "--shards {shards}: --report-out is not the tree render"
            );
        }
    }
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Flat {
    id: u32,
    #[serde(flatten)]
    inner: Inner,
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Inner {
    a: u32,
    #[serde(default)]
    b: Option<String>,
}

#[test]
fn flatten_merges_members_into_the_parent() {
    let flat = Flat {
        id: 1,
        inner: Inner { a: 2, b: None },
    };
    let text = assert_streams_like_tree(&flat);
    assert_eq!(
        serde_json::to_string(&flat).unwrap(),
        r#"{"a":2,"b":null,"id":1}"#
    );
    assert_eq!(serde_json::from_str::<Flat>(&text).unwrap(), flat);
    let err = serde_json::from_str::<Flat>(r#"{"id": 1}"#).unwrap_err();
    assert!(err.to_string().contains("missing field `a`"), "{err}");
}
