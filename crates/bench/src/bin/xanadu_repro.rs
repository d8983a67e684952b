//! `xanadu-repro` — regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! xanadu-repro all                # every experiment (markdown to stdout)
//! xanadu-repro fig12 tab1        # a subset
//! xanadu-repro --jobs 8 all      # fan out across 8 threads
//! xanadu-repro --list            # known experiment ids
//! ```
//!
//! Experiments (and the per-trigger cold runs inside them) are seeded and
//! independent, so `--jobs N` fans them out across threads while keeping
//! the rendered tables byte-identical to a serial run. Timing goes to
//! stderr and to `BENCH_harness.json`; stdout carries only the markdown.

use std::process::ExitCode;
use std::time::Instant;
use xanadu_bench::experiments::{all_timed, run_by_id, ALL_EXPERIMENTS};
use xanadu_bench::harness::{observability_audit, observability_probe, set_jobs};
use xanadu_bench::Experiment;
use xanadu_platform::export::audit_json_string;

fn usage() {
    eprintln!(
        "usage: xanadu-repro [--list] [--jobs N] [--trace-out F] [--metrics-out F] \
         [--audit-out DIR] <experiment-id>... | all"
    );
    eprintln!(
        "known ids: {}",
        ALL_EXPERIMENTS.map(|(id, _)| id).join(", ")
    );
    eprintln!(
        "--trace-out/--metrics-out additionally run the observability probe \
         (seed 7) and write its Chrome-trace / metrics JSON exports"
    );
    eprintln!(
        "--audit-out DIR writes each experiment's speculation audit (when it \
         has a representative workload) to DIR/<id>.audit.json"
    );
}

/// Flags parsed off the `xanadu-repro` command line.
struct Flags {
    jobs: Option<usize>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    audit_out: Option<String>,
    rest: Vec<String>,
}

/// Parses `--jobs N` / `--jobs=N` / `--trace-out F` / `--metrics-out F` /
/// `--audit-out DIR` out of the argument list, returning the remaining
/// (non-flag) arguments. `None` on a malformed or missing value.
fn parse_args(args: &[String]) -> Option<Flags> {
    let mut flags = Flags {
        jobs: None,
        trace_out: None,
        metrics_out: None,
        audit_out: None,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--jobs" {
            flags.jobs = Some(it.next()?.parse().ok()?);
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            flags.jobs = Some(v.parse().ok()?);
        } else if arg == "--trace-out" {
            flags.trace_out = Some(it.next()?.clone());
        } else if arg == "--metrics-out" {
            flags.metrics_out = Some(it.next()?.clone());
        } else if arg == "--audit-out" {
            flags.audit_out = Some(it.next()?.clone());
        } else {
            flags.rest.push(arg.clone());
        }
    }
    Some(flags)
}

/// Writes each audited experiment's audit JSON to `dir/<id>.audit.json`.
/// Returns false when any write fails.
fn write_audits(dir: &str, timed: &[(Experiment, f64)]) -> bool {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("could not create {dir}: {e}");
        return false;
    }
    let mut ok = true;
    for (e, _) in timed {
        let Some(audit) = &e.audit else { continue };
        let path = format!("{dir}/{}.audit.json", e.id);
        match std::fs::write(&path, audit_json_string(audit)) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(err) => {
                eprintln!("could not write {path}: {err}");
                ok = false;
            }
        }
    }
    ok
}

fn write_bench_report(jobs: usize, timed: &[(Experiment, f64)], total_wall_ms: f64) {
    let serial_estimate_ms: f64 = timed.iter().map(|(_, ms)| ms).sum();
    let speedup = if total_wall_ms > 0.0 {
        serial_estimate_ms / total_wall_ms
    } else {
        1.0
    };
    // Per-experiment speculation-audit summary rows: the regression
    // headline numbers `xanadu diff` gates on, for experiments that carry
    // a representative audited workload.
    let audits: Vec<_> = timed
        .iter()
        .filter_map(|(e, _)| {
            e.audit.as_ref().map(|a| {
                serde_json::json!({
                    "id": e.id,
                    "requests": a.summary.requests,
                    "end_to_end_ms_p50": a.summary.end_to_end_ms.p50,
                    "end_to_end_ms_p95": a.summary.end_to_end_ms.p95,
                    "mlp_recall": a.summary.mlp.recall,
                    "wasted_cpu_ms": a.summary.waste.cpu_ms,
                })
            })
        })
        .collect();
    let report = serde_json::json!({
        "jobs": jobs,
        "experiments": timed
            .iter()
            .map(|(e, ms)| serde_json::json!({"id": e.id, "wall_ms": ms}))
            .collect::<Vec<_>>(),
        "audits": audits,
        "serial_estimate_ms": serial_estimate_ms,
        "total_wall_ms": total_wall_ms,
        "speedup_vs_serial": speedup,
    });
    let path = "BENCH_harness.json";
    match std::fs::write(path, report.to_json_string_pretty() + "\n") {
        Ok(()) => eprintln!(
            "wrote {path}: {} experiments, {:.0}ms wall ({:.0}ms serial estimate, {speedup:.2}x)",
            timed.len(),
            total_wall_ms,
            serial_estimate_ms
        ),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--list") {
        for (id, _) in ALL_EXPERIMENTS {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    let Some(flags) = parse_args(&args) else {
        usage();
        return ExitCode::FAILURE;
    };
    let ids = flags.rest;
    if flags.trace_out.is_some() || flags.metrics_out.is_some() {
        let (trace, metrics) = observability_probe(7, true);
        // With --audit-out the probe also emits its speculation audit, so
        // CI gets an analyzable artifact from this binary too.
        let probe_audit = flags.audit_out.as_ref().map(|dir| {
            (
                format!("{dir}/probe.audit.json"),
                observability_audit(7, true),
            )
        });
        if let Some(dir) = &flags.audit_out {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("could not create {dir}: {e}");
                return ExitCode::FAILURE;
            }
        }
        for (path, contents) in [
            (flags.trace_out.clone(), trace),
            (flags.metrics_out.clone(), metrics),
        ]
        .into_iter()
        .chain(probe_audit.map(|(p, c)| (Some(p), c)))
        {
            let Some(path) = path else { continue };
            match std::fs::write(&path, contents) {
                Ok(()) => eprintln!("wrote {path}"),
                Err(e) => {
                    eprintln!("could not write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if ids.is_empty() {
            return ExitCode::SUCCESS;
        }
    }
    let jobs = flags.jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    });
    set_jobs(jobs);

    let start = Instant::now();
    let mut timed: Vec<(Experiment, f64)> = Vec::new();
    for arg in &ids {
        if arg == "all" {
            timed.extend(all_timed());
            continue;
        }
        let t0 = Instant::now();
        match run_by_id(arg) {
            None => {
                eprintln!("unknown experiment id `{arg}` (try --list)");
                return ExitCode::FAILURE;
            }
            Some(experiments) => {
                let ms = t0.elapsed().as_secs_f64() * 1000.0;
                let n = experiments.len();
                timed.extend(experiments.into_iter().map(|e| (e, ms / n.max(1) as f64)));
            }
        }
    }
    let total_wall_ms = start.elapsed().as_secs_f64() * 1000.0;

    let mut all_hold = true;
    for (e, ms) in &timed {
        println!("{}", e.render());
        eprintln!("{}: {ms:.0}ms", e.id);
        all_hold &= e.all_hold();
    }
    eprintln!("total: {total_wall_ms:.0}ms at --jobs {jobs}");
    write_bench_report(jobs, &timed, total_wall_ms);
    if let Some(dir) = &flags.audit_out {
        if !write_audits(dir, &timed) {
            return ExitCode::FAILURE;
        }
    }

    if all_hold {
        ExitCode::SUCCESS
    } else {
        eprintln!("some findings did NOT hold — see the tables above");
        ExitCode::FAILURE
    }
}
