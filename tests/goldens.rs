//! Every checked-in golden regenerates byte for byte.
//!
//! Each artifact under `docs/golden/` is rebuilt in-process from the
//! command line CI's `cmp` steps run (`xanadu::cli::parse_args` +
//! `execute_with_exports`, the code path of the `xanadu_cli` binary) and
//! compared with the checked-in bytes. Output paths are only names here:
//! `execute_with_exports` returns the files instead of writing them,
//! except serve's checkpoint log, which goes to a scratch directory.

use std::path::{Path, PathBuf};

use xanadu::cli::{execute_with_exports, parse_args, ExportFile};
use xanadu_simcore::fnv1a64_digest;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Runs one command line in-process; SDL paths resolve against the
/// repository root, as they do for CI. Returns the report and the
/// exports.
fn run(command: &str) -> (String, Vec<ExportFile>) {
    let args: Vec<String> = command.split_whitespace().map(String::from).collect();
    let cmd = parse_args(&args).unwrap_or_else(|e| panic!("{command}: {e}"));
    let root = repo_root();
    let source = |p: &str| std::fs::read_to_string(root.join(p)).map_err(|e| format!("{p}: {e}"));
    execute_with_exports(&cmd, source).unwrap_or_else(|e| panic!("{command}: {e}"))
}

/// What `command` prints on stdout: the report and the newline the
/// binary ends it with.
fn stdout(command: &str) -> String {
    run(command).0 + "\n"
}

/// The export `command` writes to `out`.
fn export(command: &str, out: &str) -> String {
    run(command)
        .1
        .into_iter()
        .find(|e| e.path == out)
        .unwrap_or_else(|| panic!("{command}: no export {out}"))
        .contents
}

/// Asserts `regenerated` equals `docs/golden/{name}`, naming the first
/// differing line rather than dumping both documents.
fn assert_golden(name: &str, regenerated: &str) {
    let golden = read(&repo_root().join("docs/golden").join(name));
    if golden == regenerated {
        return;
    }
    let (line, (want, got)) = golden
        .lines()
        .zip(regenerated.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .map(|(i, pair)| (i + 1, pair))
        .unwrap_or((0, ("<length differs>", "<length differs>")));
    panic!(
        "docs/golden/{name} does not regenerate byte-identically \
         ({} vs {} bytes); first difference at line {line}:\n  golden:      {want}\n  regenerated: {got}",
        golden.len(),
        regenerated.len()
    );
}

#[test]
fn flow_audit_regenerates() {
    let audit = export(
        "analyze --sdl docs/golden/flow.json --mode jit --triggers 5 --audit-out flow.audit.json",
        "flow.audit.json",
    );
    assert_golden("flow.audit.json", &audit);
}

#[test]
fn cluster_audit_regenerates() {
    let audit = export(
        "analyze --sdl docs/golden/cluster.json --mode spec --triggers 12 \
         --miss-policy replan-and-reuse --hosts 4 --host-memory-mb 2048 \
         --placement affinity --audit-out cluster.audit.json",
        "cluster.audit.json",
    );
    assert_golden("cluster.audit.json", &audit);
}

/// The certain-fault workload the three `faults.*` goldens record.
const FAULTS: &str =
    "--sdl docs/golden/faults.json --mode jit --triggers 12 --fault-rate 1.0 --fault-seed 2";

/// The certain-fault run's Chrome trace, its audit, and its `--trace`
/// stdout, whose per-request Gantt charts cross crashes, failed
/// pre-deploys, timeouts and retries.
#[test]
fn faults_trace_and_audit_regenerate() {
    let faults = FAULTS;
    assert_golden("faults.run.txt", &stdout(&format!("run {faults} --trace")));
    let trace = export(
        &format!("run {faults} --trace-out faults.trace.json"),
        "faults.trace.json",
    );
    assert_golden("faults.trace.json", &trace);
    let audit = export(
        &format!("analyze {faults} --audit-out faults.audit.json"),
        "faults.audit.json",
    );
    assert_golden("faults.audit.json", &audit);
}

/// One certain-fault `run` reads its platform's recorded traces three
/// ways at once, for its Gantt charts, its Chrome trace and its audit,
/// and reproduces all three goldens.
#[test]
fn one_faults_run_regenerates_all_three_goldens() {
    let (report, exports) = run(&format!(
        "run {FAULTS} --trace --trace-out faults.trace.json --audit-out faults.audit.json"
    ));
    assert_golden("faults.run.txt", &(report + "\n"));
    for name in ["faults.trace.json", "faults.audit.json"] {
        let export = exports.iter().find(|e| e.path == name);
        let export = export.unwrap_or_else(|| panic!("no export {name}"));
        assert_golden(name, &export.contents);
    }
}

/// The default policy spelled three ways: legacy flags, the bare policy
/// name, and the fully-parameterized spec.
#[test]
fn policies_audit_regenerates_from_every_default_spelling() {
    let base = "analyze --sdl docs/golden/policies.json --triggers 12";
    for spelling in [
        "--mode jit",
        "--policy xanadu",
        "--policy xanadu:mode=jit,aggressiveness=1.0,miss=stop",
    ] {
        let audit = export(
            &format!("{base} {spelling} --audit-out policies.audit.json"),
            "policies.audit.json",
        );
        assert_golden("policies.audit.json", &audit);
    }
}

/// `--policy xanadu:hedge=H` reaches the engine: a margin of 1.0 covers
/// both arms of the golden workload's conditional, so the hedged audit
/// records fewer prediction misses than the unhedged golden.
#[test]
fn hedged_policies_audit_misses_less_than_the_golden() {
    let misses = |audit: &str| {
        let doc: serde_json::Value = serde_json::from_str(audit).expect("an audit document");
        doc["summary"]["mlp"]["misses"]
            .as_u64()
            .expect("a miss count")
    };
    let golden = misses(&read(&repo_root().join("docs/golden/policies.audit.json")));
    let hedged = misses(&export(
        "analyze --sdl docs/golden/policies.json --triggers 12 \
         --policy xanadu:hedge=1.0 --audit-out hedged.audit.json",
        "hedged.audit.json",
    ));
    assert_eq!(golden, 6);
    assert!(hedged < golden, "hedged misses {hedged}, golden {golden}");
}

#[test]
fn replay_stream_audit_regenerates() {
    let audit = export(
        "replay --invocations 2000 --seed 7 --shards 2 --audit-out replay.stream-audit.json",
        "replay.stream-audit.json",
    );
    assert_golden("replay.stream-audit.json", &audit);
}

#[test]
fn serve_audit_and_manifest_regenerate() {
    let dir = std::env::temp_dir().join(format!("xanadu-goldens-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let audit = export(
        &format!(
            "serve --events 20000 --checkpoint-every 5000 --seed 42 \
             --checkpoint-dir {} --audit-out serve.audit.json",
            dir.display()
        ),
        "serve.audit.json",
    );
    assert_golden("serve.audit.json", &audit);
    assert_golden("serve.MANIFEST.json", &read(&dir.join("MANIFEST.json")));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `record`'s bytes stay pinned without a checked-in file: a stream of
/// several generator chunks over 9 workflows (a full group of 8 and a
/// group of one), at 10^9 arrivals per hour so gaps near the 1 µs floor
/// tie workflows often, digests as it did before the generator drew its
/// arrivals in blocks.
#[test]
fn recorded_stream_bytes_keep_their_digest() {
    let stream = export(
        "record --out stream.jsonl --events 30000 --workflows 9 --depth 2 \
         --rate-per-hour 1e9 --seed 3",
        "stream.jsonl",
    );
    assert_eq!(stream.lines().count(), 30_001);
    assert_eq!(
        fnv1a64_digest(stream.as_bytes()),
        "fnv1a64:e74bc7f90f5006ad"
    );
}
