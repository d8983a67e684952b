//! The `xanadu` command-line front end.
//!
//! Lets a user run a workflow — written in the JSON state-definition
//! language (paper Listing 1) — against any platform model without
//! writing Rust:
//!
//! ```text
//! xanadu run --sdl pipeline.json --mode jit --triggers 5 --gap-min 20
//! xanadu inspect --sdl pipeline.json
//! ```
//!
//! Argument parsing is hand-rolled (no extra dependencies); the logic
//! lives here so it is unit-testable, with `src/bin/xanadu_cli.rs` as a
//! thin shell.

use crate::serve::{RecordArgs, ServeArgs};
use serde::JsonWriter;
use std::fmt;
use xanadu_baselines::BaselineKind;
use xanadu_chain::{linear_chain, sdl, FunctionSpec};
use xanadu_core::mlp::infer_mlp;
use xanadu_core::policy::{ConfiguredPolicy, PolicySpec};
use xanadu_core::speculation::{ExecutionMode, MissPolicy, SpeculationConfig};
use xanadu_platform::shard::{replay_sharded_with, ShardOptions, ShardTelemetry, ShardWorkload};
use xanadu_platform::{
    diff_audits, diff_metrics, Audit, AutoscaleConfig, ClusterConfig, DiffThresholds, FaultConfig,
    MetricsRegistry, ObserverHandle, PlacementPolicy, Platform, PlatformConfig, SloConfig,
    StreamingConfig,
};
use xanadu_simcore::{Fnv1a64, SimDuration, SimTime};
use xanadu_workloads::azure::{
    generate_trace, scale_to_invocations, total_invocations, AzureTraceConfig,
};

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run a workflow and report per-request outcomes.
    Run(RunArgs),
    /// Print a workflow's structure and predicted most-likely path.
    Inspect {
        /// Path to the SDL document.
        sdl_path: String,
        /// Emit Graphviz DOT instead of the text summary.
        dot: bool,
    },
    /// Validate a JSON document against a JSON-schema file (used by CI to
    /// check `--trace-out`/`--metrics-out`/`--audit-out` exports).
    Validate {
        /// Path to the JSON document to check.
        json_path: String,
        /// Path to the schema.
        schema_path: String,
    },
    /// Run a workload and print the speculation audit (critical-path
    /// decomposition, MLP precision/recall, waste, JIT timing).
    Analyze(RunArgs),
    /// Replay an Azure-style fleet trace over sharded event loops
    /// (`--shards` OS threads) and print throughput plus a report digest.
    Replay(ReplayArgs),
    /// Compare two audit or metrics snapshots; exit non-zero when a
    /// threshold regresses.
    Diff(DiffArgs),
    /// Record a seeded trigger stream to a JSONL file for `serve`.
    Record(RecordArgs),
    /// Run the service tier: ingest a trigger stream in checkpointed
    /// epochs with live SLO alerting and Prometheus-style metrics.
    Serve(ServeArgs),
    /// Print usage help.
    Help,
}

/// Arguments of `xanadu diff`.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffArgs {
    /// Path of the baseline snapshot (audit or metrics JSON).
    pub baseline_path: String,
    /// Path of the candidate snapshot (same kind as the baseline).
    pub candidate_path: String,
    /// Regression gates.
    pub thresholds: DiffThresholds,
}

/// Arguments of `xanadu run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Path to the SDL document.
    pub sdl_path: String,
    /// Platform to run on.
    pub platform: PlatformChoice,
    /// Number of triggers.
    pub triggers: u64,
    /// Gap between triggers, minutes.
    pub gap_min: u64,
    /// RNG seed.
    pub seed: u64,
    /// Deploy as an implicit chain (the platform must learn the workflow).
    pub implicit: bool,
    /// Print the per-request execution timeline (Gantt) after the table.
    pub trace: bool,
    /// Fault-injection rate in `[0, 1]`; 0 disables injection.
    pub fault_rate: f64,
    /// Fault RNG seed, independent of the platform seed.
    pub fault_seed: u64,
    /// Cluster width; 0 keeps the paper's single-machine testbed.
    pub hosts: u32,
    /// Memory per cluster host, MB.
    pub host_memory_mb: u64,
    /// Placement policy when `--hosts` is set.
    pub placement: PlacementPolicy,
    /// Number of equal-weight tenants sharing the cluster; 0 disables
    /// admission control.
    pub tenants: u32,
    /// Per-epoch host-failure probability in `[0, 1]`; 0 disables host
    /// faults.
    pub host_fail_rate: f64,
    /// Autoscaler fleet ceiling; 0 disables reactive autoscaling.
    pub autoscale_max: u32,
    /// Speculation look-ahead horizon in `[0, 1]` (§3.2.1); 1.0
    /// pre-provisions the whole MLP, 0.0 degenerates to Cold. Ignored by
    /// the baselines.
    pub aggressiveness: f64,
    /// Prediction-miss policy: stop all planned provisioning (the paper's
    /// §3.2.2 behaviour) or replan and retarget compatible co-located
    /// spares (§7 future work). Ignored by the baselines.
    pub miss_policy: MissPolicy,
    /// Speculation policy selected by `--policy name[:param=val,...]`.
    /// The default keeps the paper's engine; `--mode`/`--aggressiveness`/
    /// `--miss-policy` are back-compat aliases for its parameters and
    /// conflict with an explicit `--policy`.
    pub policy: PolicySpec,
    /// Write a Chrome `trace_event` JSON span export here.
    pub trace_out: Option<String>,
    /// Write the flat metrics-registry JSON export here.
    pub metrics_out: Option<String>,
    /// Write the speculation-audit JSON export here.
    pub audit_out: Option<String>,
}

impl RunArgs {
    /// Label for report headers: the policy name when a learned policy
    /// is selected, otherwise the platform's own label.
    fn label(&self) -> String {
        if self.policy.is_default() {
            self.platform.label()
        } else {
            self.policy.name().to_string()
        }
    }
}

/// Arguments of `xanadu replay`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayArgs {
    /// Target fleet size: the Azure trace is scaled (at fixed class
    /// rates and duration) until its expected invocation count reaches
    /// this.
    pub invocations: u64,
    /// OS threads the logical shards are spread over. Never affects
    /// report bytes, only wall-clock time.
    pub shards: usize,
    /// Conservative barrier-window width in simulated seconds.
    pub window_secs: u64,
    /// Master seed for the trace and every per-shard platform.
    pub seed: u64,
    /// Xanadu execution mode (baselines are not sharded).
    pub mode: ExecutionMode,
    /// Whether the speculation engine's plan cache is enabled.
    pub plan_cache: bool,
    /// Fault-injection rate in `[0, 1]`; 0 disables injection.
    pub fault_rate: f64,
    /// Fault RNG seed.
    pub fault_seed: u64,
    /// Cluster width per logical shard; 0 keeps the single testbed.
    pub hosts: u32,
    /// Memory per cluster host, MB.
    pub host_memory_mb: u64,
    /// Placement policy when `--hosts` is set.
    pub placement: PlacementPolicy,
    /// Number of equal-weight tenants sharing each shard's cluster.
    pub tenants: u32,
    /// Per-epoch host-failure probability in `[0, 1]`.
    pub host_fail_rate: f64,
    /// Prediction-miss policy (see [`RunArgs::miss_policy`]).
    pub miss_policy: MissPolicy,
    /// Speculation policy (see [`RunArgs::policy`]).
    pub policy: PolicySpec,
    /// Speculation look-ahead horizon in `[0, 1]`; settable only through
    /// a `--policy xanadu:aggressiveness=A` spec on replay.
    pub aggressiveness: f64,
    /// Depth of each workflow's linear chain.
    pub depth: u64,
    /// Write the full merged `PlatformReport` JSON here.
    pub report_out: Option<String>,
    /// Write the streaming speculation-audit JSON here. Backed by the
    /// bounded-memory [`StreamingAudit`](xanadu_platform::StreamingAudit)
    /// — no per-request trace recording, so fleet-scale replays stay flat
    /// in memory.
    pub audit_out: Option<String>,
    /// Write the merged per-shard metrics registry (plus the
    /// deterministic `kernel.*` counters) as flat JSON here.
    pub metrics_out: Option<String>,
    /// Path of a `DiffThresholds` JSON document enabling SLO gating of
    /// tumbling completion-time windows; any breach exits non-zero, like
    /// `xanadu diff`.
    pub slo: Option<String>,
    /// Write the windowed SLO evaluation JSON here
    /// (`docs/schemas/slo.schema.json`). Implies SLO monitoring with
    /// default thresholds when `--slo` is absent.
    pub slo_out: Option<String>,
    /// Tumbling SLO window width in simulated seconds.
    pub slo_window_secs: u64,
    /// Print a wall-clock heartbeat (progress, events/sec, backlog, ETA)
    /// to stderr while replaying. Never affects stdout or exports.
    pub progress: bool,
}

/// A file the CLI wants written: path plus full contents. Returned by
/// [`execute_with_exports`] so the pure command logic stays testable
/// without touching the filesystem; only the binary performs the writes.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportFile {
    /// Destination path, verbatim from the flag.
    pub path: String,
    /// Complete file contents (pretty JSON, trailing newline).
    pub contents: String,
}

/// Which platform model to run on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlatformChoice {
    /// A Xanadu mode.
    Xanadu(ExecutionMode),
    /// An emulated baseline.
    Baseline(BaselineKind),
}

impl PlatformChoice {
    fn parse(s: &str) -> Result<Self, CliError> {
        match s {
            "cold" => Ok(PlatformChoice::Xanadu(ExecutionMode::Cold)),
            "spec" | "speculative" => Ok(PlatformChoice::Xanadu(ExecutionMode::Speculative)),
            "jit" => Ok(PlatformChoice::Xanadu(ExecutionMode::Jit)),
            other => other
                .parse::<BaselineKind>()
                .map(PlatformChoice::Baseline)
                .map_err(|_| CliError::BadValue {
                    flag: "--mode".into(),
                    value: other.into(),
                    expected: "cold|spec|jit|knative|openwhisk|asf|adf".into(),
                }),
        }
    }

    fn build(
        self,
        seed: u64,
        aggressiveness: f64,
        miss_policy: MissPolicy,
        cluster: ClusterConfig,
        policy: &PolicySpec,
    ) -> Platform {
        match self {
            PlatformChoice::Xanadu(mode) => {
                let mut builder = PlatformConfig::builder().for_mode(mode, seed);
                if policy.is_default() {
                    let mut spec = SpeculationConfig::for_mode(mode);
                    spec.aggressiveness = aggressiveness;
                    spec.miss_policy = miss_policy;
                    builder = builder.speculation(spec);
                } else {
                    // Learned planners ignore the xanadu speculation knobs;
                    // their parameters arrive inside the spec itself.
                    builder = builder.policy(policy.clone()).label(policy.name());
                }
                let cfg = builder
                    .cluster(cluster)
                    .build()
                    .expect("mode defaults with a [0,1] aggressiveness are valid");
                Platform::new(cfg)
            }
            // Baselines model the paper's single-machine deployments; the
            // cluster flags are a Xanadu-mode concept and are ignored here.
            PlatformChoice::Baseline(kind) => xanadu_baselines::baseline_platform(kind, seed),
        }
    }

    fn label(self) -> String {
        match self {
            PlatformChoice::Xanadu(mode) => mode.label().to_string(),
            PlatformChoice::Baseline(kind) => kind.label().to_string(),
        }
    }
}

/// CLI errors, rendered to stderr by the binary.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// Unknown subcommand.
    UnknownCommand(String),
    /// A flag was given without a value.
    MissingValue(String),
    /// A flag value failed to parse.
    BadValue {
        /// The offending flag.
        flag: String,
        /// The value supplied.
        value: String,
        /// What would have been accepted.
        expected: String,
    },
    /// A required flag is absent.
    MissingFlag(String),
    /// A flag the subcommand does not read.
    UnknownFlag {
        /// The subcommand.
        command: String,
        /// The flag as given.
        flag: String,
    },
    /// A flag given more than once.
    RepeatedFlag {
        /// The subcommand.
        command: String,
        /// The repeated flag.
        flag: String,
    },
    /// A value that follows no flag taking one.
    StrayValue {
        /// The subcommand.
        command: String,
        /// The stray value.
        value: String,
        /// The nearest flag before it, if any.
        after: Option<String>,
    },
    /// `--policy` was combined with one of its back-compat alias flags
    /// (`--mode`, `--aggressiveness`, `--miss-policy`); the aliases only
    /// exist to desugar into a policy spec, so mixing the two spellings
    /// would silently drop one side.
    PolicyConflict {
        /// The `--policy` value given.
        policy: String,
        /// The alias flags also present.
        conflicting: Vec<String>,
    },
    /// `serve --stream` was combined with a flag that sets a generated
    /// stream's population; the recorded stream's header fixes that
    /// population, so the flag could only be ignored.
    StreamConflict {
        /// The population flag given.
        flag: String,
    },
    /// Reading or parsing the SDL document failed.
    Workflow(String),
    /// `xanadu diff` found metrics past their thresholds; each detail line
    /// names the regressed field by its JSON-pointer-style path.
    Regressions {
        /// Path of the baseline snapshot.
        baseline: String,
        /// Path of the candidate snapshot.
        candidate: String,
        /// Rendered [`Regression`](xanadu_platform::Regression) rows.
        details: Vec<String>,
    },
    /// `xanadu replay --slo` caught windows past their thresholds. The
    /// staged exports ride along so the binary still writes
    /// `--slo-out`/`--report-out` before exiting non-zero — the breach
    /// evidence must not be lost to the failure it reports.
    SloBreach {
        /// Non-empty windows the monitor evaluated.
        windows: usize,
        /// Rendered [`SloAlert`](xanadu_platform::SloAlert) rows.
        details: Vec<String>,
        /// Exports staged before the gate fired.
        exports: Vec<ExportFile>,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command `{c}` (try `xanadu help`)")
            }
            CliError::MissingValue(flag) => write!(f, "flag {flag} needs a value"),
            CliError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "bad value `{value}` for {flag}, expected {expected}"),
            CliError::MissingFlag(flag) => write!(f, "required flag {flag} is missing"),
            CliError::UnknownFlag { command, flag } => {
                write!(f, "`{command}` does not take the flag {flag}")
            }
            CliError::RepeatedFlag { command, flag } => {
                write!(f, "flag {flag} is given more than once to `{command}`")
            }
            CliError::StrayValue {
                command,
                value,
                after,
            } => {
                write!(f, "stray value `{value}` in `{command}`")?;
                match after {
                    Some(flag) => write!(f, " after {flag}"),
                    None => Ok(()),
                }
            }
            CliError::PolicyConflict {
                policy,
                conflicting,
            } => write!(
                f,
                "--policy {policy} conflicts with {}; encode them as policy parameters \
                 instead (e.g. --policy xanadu:mode=jit,aggressiveness=0.5,miss=replan-and-reuse)",
                conflicting.join(", ")
            ),
            CliError::StreamConflict { flag } => write!(
                f,
                "{flag} sets a generated stream's population, but --stream replays \
                 a recorded stream whose header fixes it; drop {flag} or --stream"
            ),
            CliError::Workflow(msg) => write!(f, "workflow error: {msg}"),
            CliError::Regressions {
                baseline,
                candidate,
                details,
            } => {
                write!(
                    f,
                    "{} regression(s) in {candidate} versus {baseline}:",
                    details.len()
                )?;
                for d in details {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            CliError::SloBreach {
                windows, details, ..
            } => {
                write!(
                    f,
                    "slo: {} alert(s) across {windows} evaluated window(s):",
                    details.len()
                )?;
                // Long-horizon replays can breach in hundreds of windows;
                // cap the stderr rendering — the full list is in --slo-out.
                const MAX_DETAIL_LINES: usize = 10;
                for d in details.iter().take(MAX_DETAIL_LINES) {
                    write!(f, "\n  {d}")?;
                }
                if details.len() > MAX_DETAIL_LINES {
                    write!(
                        f,
                        "\n  ... and {} more (full evaluation in --slo-out)",
                        details.len() - MAX_DETAIL_LINES
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CliError {}

/// Usage text printed by `xanadu help`.
pub const USAGE: &str = "\
xanadu — serverless function-chain platform (paper reproduction)

USAGE:
  xanadu run --sdl <file> [--mode cold|spec|jit|knative|openwhisk|asf|adf]
             [--policy name[:param=val,...]]
             [--triggers N] [--gap-min M] [--seed S] [--implicit] [--trace]
             [--fault-rate R] [--fault-seed F] [--aggressiveness A]
             [--miss-policy stop|replan-and-reuse]
             [--hosts N] [--host-memory-mb M] [--placement P] [--tenants K]
             [--host-fail-rate R] [--autoscale-max N]
             [--trace-out <file>] [--metrics-out <file>] [--audit-out <file>]
  xanadu analyze --sdl <file> [same flags as run]
  xanadu replay [--invocations N] [--shards S] [--window-secs W] [--seed S]
                [--mode cold|spec|jit] [--policy name[:param=val,...]]
                [--no-plan-cache] [--depth D]
                [--fault-rate R] [--fault-seed F] [--report-out <file>]
                [--miss-policy stop|replan-and-reuse]
                [--hosts N] [--host-memory-mb M] [--placement P] [--tenants K]
                [--host-fail-rate R]
                [--audit-out <file>] [--metrics-out <file>]
                [--slo <thresholds.json>] [--slo-out <file>]
                [--slo-window-secs W] [--progress]
  xanadu record --out <file> [--events N] [--workflows W] [--depth D]
                [--rate-per-hour R] [--seed S]
  xanadu serve --checkpoint-dir <dir>
               [--stream <file> | [--events N] [--workflows W] [--depth D]
                [--rate-per-hour R]] [--seed S] [--mode cold|spec|jit]
               [--checkpoint-every N] [--alerts-out <file.jsonl>]
               [--metrics-text <file>] [--audit-out <file>]
               [--slo <thresholds.json>] [--slo-out <file>]
               [--slo-window-secs W] [--stop-after-checkpoints K]
               [--status-every K] [--fail-on-alert]
  xanadu diff --baseline <file> --candidate <file>
              [--max-p95-regress-pct P] [--max-wasted-cpu-regress-pct W]
              [--max-recall-drop D]
  xanadu inspect --sdl <file> [--dot]
  xanadu validate --json <file> --schema <file>
  xanadu help

`run` deploys the workflow described by the JSON state-definition
document and fires N triggers M minutes apart, printing per-request
latency, overhead and cold/warm starts.
`--policy name[:param=val,...]` selects the speculation policy: `xanadu`
(the paper's MLP/JIT engine; params mode, aggressiveness, miss, hedge),
`mpc` (receding-horizon planner; params horizon, cold-weight,
waste-weight, slack-ms) or `rl` (tabular Q-learning; params seed,
warmup, epsilon, alpha, gamma, cold-penalty-ms, waste-penalty-ms).
`--mode`/`--aggressiveness`/`--miss-policy` are back-compat aliases for
`--policy xanadu:...` parameters and conflict with an explicit
`--policy`. A policy parameter given twice is an error, as is an
`aggressiveness` outside [0, 1] or a negative or non-finite `hedge`.
Every subcommand rejects a flag it does not take (`serve` has no
`--policy`), a repeated flag and a value that follows no flag.
`--fault-rate R` (0..1) injects deterministic worker crashes and latency
spikes at rate R, seeded by `--fault-seed` (default 0xFA17); recovery
(timeouts, bounded retry, re-planning) is reported per request.
`--trace-out` writes a Chrome trace_event JSON span export (load it in
chrome://tracing or Perfetto); `--metrics-out` writes the aggregated
counters and latency histograms as flat JSON.
`--audit-out` writes the speculation audit (critical-path decomposition,
MLP precision/recall, wasted-deploy cost, JIT slack) as JSON.
`--hosts N` schedules workers over an N-host cluster (default: the
paper's single-machine testbed) of `--host-memory-mb` MB machines,
placed by `--placement round-robin|least-loaded|first-fit|random|
affinity` (default least-loaded; affinity co-locates chain neighbours).
`--tenants K` splits the cluster between K equal-weight tenants with
weighted fair admission; `--host-fail-rate R` (0..1) injects whole-host
failures (drain, re-place, reboot) per epoch; `--autoscale-max N` lets
a reactive autoscaler grow the fleet up to N hosts. Cluster runs add a
per-host utilization and cross-host cold-cascade section to the audit.
`--miss-policy replan-and-reuse` enables the paper's §7 future-work miss
handling: on a prediction miss the plan is rebuilt for the actual path
and compatible unused spares are retargeted — on a cluster, only spares
co-located with the request's running chain qualify, which is what makes
affinity placement beat spreading policies on cold-start rate.
`analyze` runs the same workload but prints the speculation audit instead
of the per-request table.
`replay` synthesizes an Azure-style fleet (each workflow a linear chain
with its own functions), scales it to `--invocations` expected triggers
and replays it as per-workflow logical shards over `--shards` OS
threads. The merged report is byte-identical for any `--shards`; the
printed `report digest` line is the CI hook for that check.
Replay telemetry is streaming: `--audit-out` writes a bounded-memory
speculation audit (mergeable histograms, exact MLP/waste/JIT counters,
worst-request exemplars) and `--metrics-out` the merged counters, both
byte-identical at any `--shards`. `--slo <thresholds.json>` gates
tumbling `--slo-window-secs` windows (default 60) against the first
non-empty window with `diff` semantics, exits non-zero on any breach
and, with `--slo-out`, writes the windowed evaluation JSON.
`--progress` prints a stderr heartbeat (events/sec, backlog, ETA).
`diff` compares two audit or metrics snapshots and exits non-zero when
the candidate regresses past a threshold (p95 end-to-end +10%, wasted
CPU-ms +25%, MLP recall −0.05 by default), printing the JSON path of
each offending field.
`inspect` prints the parsed structure and the predicted most-likely path.
`record` writes a seeded trigger stream (JSONL: one header line, then
one `{at_us, wf}` event per line) that `serve --stream` replays
deterministically.
`serve` is the service tier: it ingests the stream in `--checkpoint-every`
event epochs, learns implicit chains online (profiled metrics and the
branch tree) and appends the learned state, the streaming audit, the SLO
windows and the stream cursor to an atomic segment log under
`--checkpoint-dir` after every epoch. Killing and rerunning the same
command resumes from the last checkpoint with byte-identical final
exports; a rerun whose stream, `--mode`, `--seed`, `--checkpoint-every`,
`--slo` or `--slo-window-secs` differs from the log's is refused. The
stream is the `--stream` file or is generated from `--events`,
`--workflows`, `--depth` and `--rate-per-hour` (with `--seed`); next to
`--stream`, whose header fixes the population, those four flags are an
error. `--alerts-out` appends one schema-validated JSON line per SLO
breach the moment its window becomes final; `--metrics-text` atomically
rewrites a Prometheus-style text exposition each flush; `--status-every
K` prints a stderr status line (uptime, events/sec, window quantiles,
open alerts, checkpoint lag) every K checkpoints.
`--stop-after-checkpoints K` pauses at an exact boundary (the restart
suites use this); `--fail-on-alert` exits non-zero when any alert was
raised.
`validate` checks a JSON document against a schema file and exits
non-zero on mismatch (CI uses it on the exports); a `.jsonl` document
(e.g. the serve alerts stream) is validated line by line.";

/// Parses raw arguments (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] describing the first problem found.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let Some(command) = args.first() else {
        return Ok(Command::Help);
    };
    let mut f = Flags::new(args);
    let parsed = match command.as_str() {
        "help" | "--help" | "-h" => return Ok(Command::Help),
        "inspect" => Command::Inspect {
            sdl_path: f.required("--sdl")?,
            dot: f.switch("--dot")?,
        },
        "run" => Command::Run(parse_run_flags(&mut f)?),
        "analyze" => Command::Analyze(parse_run_flags(&mut f)?),
        "replay" => Command::Replay(parse_replay_flags(&mut f)?),
        "record" => Command::Record(parse_record_flags(&mut f)?),
        "serve" => Command::Serve(parse_serve_flags(&mut f)?),
        "diff" => {
            let baseline_path = f.required("--baseline")?;
            let candidate_path = f.required("--candidate")?;
            let defaults = DiffThresholds::default();
            let thresholds = DiffThresholds {
                max_p95_regress_pct: parse_float(
                    &mut f,
                    "--max-p95-regress-pct",
                    defaults.max_p95_regress_pct,
                )?,
                max_wasted_cpu_regress_pct: parse_float(
                    &mut f,
                    "--max-wasted-cpu-regress-pct",
                    defaults.max_wasted_cpu_regress_pct,
                )?,
                max_recall_drop: parse_float(
                    &mut f,
                    "--max-recall-drop",
                    defaults.max_recall_drop,
                )?,
            };
            Command::Diff(DiffArgs {
                baseline_path,
                candidate_path,
                thresholds,
            })
        }
        "validate" => Command::Validate {
            json_path: f.required("--json")?,
            schema_path: f.required("--schema")?,
        },
        other => return Err(CliError::UnknownCommand(other.to_string())),
    };
    f.finish()?;
    Ok(parsed)
}

fn parse_run_flags(f: &mut Flags) -> Result<RunArgs, CliError> {
    let sdl_path = f.required("--sdl")?;
    let (platform, policy, aggressiveness, miss_policy) = match parse_policy(f)? {
        Some(configured) => {
            let knobs = configured.speculation.unwrap_or_default();
            (
                PlatformChoice::Xanadu(knobs.mode),
                configured.spec,
                knobs.aggressiveness,
                knobs.miss_policy,
            )
        }
        None => {
            let platform = match f.value("--mode")? {
                Some(v) => PlatformChoice::parse(&v)?,
                None => PlatformChoice::Xanadu(ExecutionMode::Jit),
            };
            (
                platform,
                PolicySpec::Xanadu,
                parse_fraction(f, "--aggressiveness", 1.0)?,
                parse_miss_policy(f)?,
            )
        }
    };
    let triggers: u64 = parse_num(f, "--triggers", 1)?;
    let gap_min: u64 = parse_num(f, "--gap-min", 20)?;
    // The last trigger fires (triggers − 1) × gap after the first, and
    // that instant must fit simulated time.
    let max_minutes = max_units(SimDuration::from_mins(1));
    let last_minute = triggers.saturating_sub(1).checked_mul(gap_min);
    if last_minute.is_none_or(|minute| minute > max_minutes) {
        return Err(CliError::BadValue {
            flag: "--gap-min".into(),
            value: gap_min.to_string(),
            expected: format!(
                "at most {} minutes between {triggers} triggers",
                max_minutes / (triggers - 1)
            ),
        });
    }
    Ok(RunArgs {
        sdl_path,
        platform,
        triggers,
        gap_min,
        seed: parse_num(f, "--seed", 42)?,
        implicit: f.switch("--implicit")?,
        trace: f.switch("--trace")?,
        fault_rate: parse_fraction(f, "--fault-rate", 0.0)?,
        fault_seed: parse_num(f, "--fault-seed", 0xFA17)?,
        hosts: parse_num(f, "--hosts", 0)?,
        host_memory_mb: parse_num(f, "--host-memory-mb", 4096)?,
        placement: parse_placement(f)?,
        tenants: parse_num(f, "--tenants", 0)?,
        host_fail_rate: parse_fraction(f, "--host-fail-rate", 0.0)?,
        autoscale_max: parse_num(f, "--autoscale-max", 0)?,
        aggressiveness,
        miss_policy,
        policy,
        trace_out: f.value("--trace-out")?,
        metrics_out: f.value("--metrics-out")?,
        audit_out: f.value("--audit-out")?,
    })
}

/// Flags that are back-compat aliases for `--policy xanadu:...`
/// parameters; present alongside `--policy` they are a conflict, not a
/// merge.
const POLICY_ALIAS_FLAGS: [&str; 3] = ["--mode", "--aggressiveness", "--miss-policy"];

/// Parses `--policy name[:param=val,...]`, rejecting alias-flag mixes.
fn parse_policy(f: &mut Flags) -> Result<Option<ConfiguredPolicy>, CliError> {
    let Some(value) = f.value("--policy")? else {
        return Ok(None);
    };
    let conflicting: Vec<String> = POLICY_ALIAS_FLAGS
        .iter()
        .filter(|flag| f.args.iter().any(|a| a == *flag))
        .map(|flag| (*flag).to_string())
        .collect();
    if !conflicting.is_empty() {
        return Err(CliError::PolicyConflict {
            policy: value,
            conflicting,
        });
    }
    value
        .parse::<ConfiguredPolicy>()
        .and_then(|configured| {
            xanadu_core::policy::PolicyRegistry::validate(&configured.spec)?;
            Ok(configured)
        })
        .map(Some)
        .map_err(|e| CliError::BadValue {
            flag: "--policy".into(),
            value,
            expected: format!("xanadu|mpc|rl with optional `:param=val,...` ({e})"),
        })
}

fn parse_replay_flags(f: &mut Flags) -> Result<ReplayArgs, CliError> {
    let (mode, policy, aggressiveness, miss_policy) = match parse_policy(f)? {
        Some(configured) => {
            let knobs = configured.speculation.unwrap_or_default();
            (
                knobs.mode,
                configured.spec,
                knobs.aggressiveness,
                knobs.miss_policy,
            )
        }
        None => {
            let mode = parse_xanadu_mode(f, "baselines are not sharded")?;
            (mode, PolicySpec::Xanadu, 1.0, parse_miss_policy(f)?)
        }
    };
    Ok(ReplayArgs {
        invocations: parse_num(f, "--invocations", 10_000)?,
        shards: parse_num::<usize>(f, "--shards", 1)?.max(1),
        window_secs: parse_window_secs(f, "--window-secs")?,
        seed: parse_num(f, "--seed", 42)?,
        mode,
        plan_cache: !f.switch("--no-plan-cache")?,
        fault_rate: parse_fraction(f, "--fault-rate", 0.0)?,
        fault_seed: parse_num(f, "--fault-seed", 0xFA17)?,
        hosts: parse_num(f, "--hosts", 0)?,
        host_memory_mb: parse_num(f, "--host-memory-mb", 4096)?,
        placement: parse_placement(f)?,
        tenants: parse_num(f, "--tenants", 0)?,
        host_fail_rate: parse_fraction(f, "--host-fail-rate", 0.0)?,
        miss_policy,
        policy,
        aggressiveness,
        depth: parse_positive(f, "--depth", 5, CHAIN_DEPTH)?,
        report_out: f.value("--report-out")?,
        audit_out: f.value("--audit-out")?,
        metrics_out: f.value("--metrics-out")?,
        slo: f.value("--slo")?,
        slo_out: f.value("--slo-out")?,
        slo_window_secs: parse_window_secs(f, "--slo-window-secs")?,
        progress: f.switch("--progress")?,
    })
}

/// Stream-population flags shared by `record` and `serve`:
/// `(events, workflows, depth, rate_per_hour, seed)`.
fn parse_stream_flags(f: &mut Flags) -> Result<(u64, u32, u32, f64, u64), CliError> {
    let rate = parse_float(f, "--rate-per-hour", 120.0)?;
    if rate <= 0.0 {
        return Err(CliError::BadValue {
            flag: "--rate-per-hour".into(),
            value: format!("{rate}"),
            expected: "a positive arrival rate".into(),
        });
    }
    let population = "a non-empty workflow population";
    Ok((
        parse_num(f, "--events", 600)?,
        parse_positive(f, "--workflows", 6, population)?,
        parse_positive(f, "--depth", 4, CHAIN_DEPTH)?,
        rate,
        parse_num(f, "--seed", 42)?,
    ))
}

fn parse_record_flags(f: &mut Flags) -> Result<RecordArgs, CliError> {
    let out = f.required("--out")?;
    let (events, workflows, depth, rate_per_hour, seed) = parse_stream_flags(f)?;
    Ok(RecordArgs {
        out,
        events,
        workflows,
        depth,
        rate_per_hour,
        seed,
    })
}

/// The stream-population flags a recorded `serve --stream` rejects.
const POPULATION_FLAGS: [&str; 4] = ["--events", "--workflows", "--depth", "--rate-per-hour"];

fn parse_serve_flags(f: &mut Flags) -> Result<ServeArgs, CliError> {
    let checkpoint_dir = f.required("--checkpoint-dir")?;
    let stream = f.value("--stream")?;
    if stream.is_some() {
        let given = |flag: &&str| f.args.iter().any(|a| a == flag);
        if let Some(flag) = POPULATION_FLAGS.into_iter().find(given) {
            return Err(CliError::StreamConflict {
                flag: flag.to_string(),
            });
        }
    }
    let (events, workflows, depth, rate_per_hour, seed) = parse_stream_flags(f)?;
    let mode = parse_xanadu_mode(f, "the service tier is Xanadu-only")?;
    let epoch = "a positive number of events per epoch";
    let checkpoint_every = parse_positive(f, "--checkpoint-every", 200, epoch)?;
    let slo_window_secs = parse_window_secs(f, "--slo-window-secs")?;
    Ok(ServeArgs {
        stream,
        events,
        workflows,
        depth,
        rate_per_hour,
        seed,
        mode,
        checkpoint_dir,
        checkpoint_every,
        alerts_out: f.value("--alerts-out")?,
        metrics_text: f.value("--metrics-text")?,
        audit_out: f.value("--audit-out")?,
        slo_out: f.value("--slo-out")?,
        slo: f.value("--slo")?,
        slo_window_secs,
        stop_after_checkpoints: parse_num(f, "--stop-after-checkpoints", 0)?,
        status_every: parse_num(f, "--status-every", 0)?,
        fail_on_alert: f.switch("--fail-on-alert")?,
    })
}

fn parse_miss_policy(f: &mut Flags) -> Result<MissPolicy, CliError> {
    match f.value("--miss-policy")?.as_deref() {
        None | Some("stop") => Ok(MissPolicy::StopSpeculation),
        Some("replan-and-reuse") => Ok(MissPolicy::ReplanAndReuse),
        Some(v) => Err(CliError::BadValue {
            flag: "--miss-policy".into(),
            value: v.into(),
            expected: "stop|replan-and-reuse".into(),
        }),
    }
}

/// `--mode` limited to Xanadu's own modes (JIT when absent). A baseline
/// platform is rejected; `why` completes the expected-value text.
fn parse_xanadu_mode(f: &mut Flags, why: &str) -> Result<ExecutionMode, CliError> {
    let Some(v) = f.value("--mode")? else {
        return Ok(ExecutionMode::Jit);
    };
    match PlatformChoice::parse(&v)? {
        PlatformChoice::Xanadu(mode) => Ok(mode),
        PlatformChoice::Baseline(_) => Err(CliError::BadValue {
            flag: "--mode".into(),
            value: v,
            expected: format!("cold|spec|jit ({why})"),
        }),
    }
}

/// Expected-value text shared by the depth flags.
const CHAIN_DEPTH: &str = "a positive chain depth";

/// The largest number of `unit`s that fits simulated time.
fn max_units(unit: SimDuration) -> u64 {
    SimDuration::MAX.as_micros() / unit.as_micros()
}

/// The "must be positive" rule for counts: `flag`'s integer value (or
/// `default`), rejected with `expected` when it is zero or does not fit
/// the target type.
fn parse_positive<T: TryFrom<u64>>(
    f: &mut Flags,
    flag: &str,
    default: u64,
    expected: &str,
) -> Result<T, CliError> {
    let n: u64 = parse_num(f, flag, default)?;
    match T::try_from(n) {
        Ok(value) if n > 0 => Ok(value),
        _ => Err(CliError::BadValue {
            flag: flag.into(),
            value: n.to_string(),
            expected: expected.into(),
        }),
    }
}

/// A window width in simulated seconds (60 when absent): positive, and
/// small enough that its microseconds fit simulated time.
fn parse_window_secs(f: &mut Flags, flag: &str) -> Result<u64, CliError> {
    let max = max_units(SimDuration::from_secs(1));
    let expected = format!("a positive number of simulated seconds, at most {max}");
    let secs: u64 = parse_positive(f, flag, 60, &expected)?;
    if secs > max {
        return Err(CliError::BadValue {
            flag: flag.into(),
            value: secs.to_string(),
            expected,
        });
    }
    Ok(secs)
}

fn parse_placement(f: &mut Flags) -> Result<PlacementPolicy, CliError> {
    match f.value("--placement")? {
        None => Ok(PlacementPolicy::default()),
        Some(v) => v.parse().map_err(|_| CliError::BadValue {
            flag: "--placement".into(),
            value: v,
            expected: "round-robin|least-loaded|first-fit|random|affinity".into(),
        }),
    }
}

/// One subcommand's arguments. Each read takes the flag (and its value)
/// it asks for; [`Flags::finish`] rejects every argument no read took, so
/// a subcommand accepts exactly the flags its parser reads.
struct Flags<'a> {
    args: &'a [String],
    taken: Vec<bool>,
}

impl<'a> Flags<'a> {
    /// `args[0]` is the subcommand.
    fn new(args: &'a [String]) -> Self {
        let mut taken = vec![false; args.len()];
        taken[0] = true;
        Flags { args, taken }
    }

    /// Takes `flag`, returning its position; a second occurrence is an
    /// error rather than a silent first-wins.
    fn take(&mut self, flag: &str) -> Result<Option<usize>, CliError> {
        let mut at = (1..self.args.len()).filter(|&i| self.args[i] == flag);
        let first = at.next();
        if at.next().is_some() {
            return Err(CliError::RepeatedFlag {
                command: self.args[0].clone(),
                flag: flag.into(),
            });
        }
        if let Some(i) = first {
            self.taken[i] = true;
        }
        Ok(first)
    }

    /// A flag without a value.
    fn switch(&mut self, flag: &str) -> Result<bool, CliError> {
        Ok(self.take(flag)?.is_some())
    }

    fn value(&mut self, flag: &str) -> Result<Option<String>, CliError> {
        let Some(i) = self.take(flag)? else {
            return Ok(None);
        };
        match self.args.get(i + 1) {
            Some(v) if !v.starts_with("--") => {
                self.taken[i + 1] = true;
                Ok(Some(v.clone()))
            }
            _ => Err(CliError::MissingValue(flag.to_string())),
        }
    }

    fn required(&mut self, flag: &str) -> Result<String, CliError> {
        self.value(flag)?
            .ok_or_else(|| CliError::MissingFlag(flag.into()))
    }

    /// Rejects the first argument no read took: an unknown flag, or a
    /// value that follows no flag taking one.
    fn finish(self) -> Result<(), CliError> {
        let Some(i) = self.taken.iter().position(|taken| !taken) else {
            return Ok(());
        };
        let command = self.args[0].clone();
        let arg = self.args[i].clone();
        if arg.starts_with("--") {
            return Err(CliError::UnknownFlag { command, flag: arg });
        }
        let after = self.args[1..i].iter().rev().find(|a| a.starts_with("--"));
        Err(CliError::StrayValue {
            command,
            value: arg,
            after: after.cloned(),
        })
    }
}

/// `flag`'s integer value (or `default`) in its field's type `T`. A
/// value that is not a non-negative integer, or does not fit `T`, is
/// rejected rather than truncated.
fn parse_num<T: TryFrom<u64>>(f: &mut Flags, flag: &str, default: u64) -> Result<T, CliError> {
    let value = f.value(flag)?;
    let parsed = match &value {
        None => Some(default),
        Some(v) => v.parse::<u64>().ok(),
    };
    parsed
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| CliError::BadValue {
            flag: flag.into(),
            value: value.unwrap_or_else(|| default.to_string()),
            expected: format!(
                "a non-negative integer that fits in {}",
                std::any::type_name::<T>()
            ),
        })
}

fn parse_float(f: &mut Flags, flag: &str, default: f64) -> Result<f64, CliError> {
    match f.value(flag)? {
        None => Ok(default),
        Some(v) => match v.parse::<f64>() {
            Ok(x) if x >= 0.0 => Ok(x),
            _ => Err(CliError::BadValue {
                flag: flag.into(),
                value: v,
                expected: "a non-negative number".into(),
            }),
        },
    }
}

fn parse_fraction(f: &mut Flags, flag: &str, default: f64) -> Result<f64, CliError> {
    match f.value(flag)? {
        None => Ok(default),
        Some(v) => match v.parse::<f64>() {
            Ok(x) if (0.0..=1.0).contains(&x) => Ok(x),
            _ => Err(CliError::BadValue {
                flag: flag.into(),
                value: v,
                expected: "a number in [0, 1]".into(),
            }),
        },
    }
}

/// Executes a parsed command against an SDL document's *content* (the
/// binary reads the file; tests pass strings). Returns the rendered
/// report, discarding any export files — use [`execute_with_exports`]
/// when `--trace-out`/`--metrics-out` must take effect.
///
/// # Errors
///
/// Returns [`CliError::Workflow`] for SDL or platform failures.
pub fn execute(
    command: &Command,
    sdl_source: impl Fn(&str) -> Result<String, String>,
) -> Result<String, CliError> {
    execute_with_exports(command, sdl_source).map(|(report, _)| report)
}

/// Like [`execute`], but also returns the files `--trace-out` /
/// `--metrics-out` asked for. The command logic never touches the
/// filesystem itself; the binary writes what this returns.
///
/// # Errors
///
/// Returns [`CliError::Workflow`] for SDL or platform failures.
pub fn execute_with_exports(
    command: &Command,
    sdl_source: impl Fn(&str) -> Result<String, String>,
) -> Result<(String, Vec<ExportFile>), CliError> {
    let mut exports = Vec::new();
    let report = execute_inner(command, sdl_source, &mut exports)?;
    Ok((report, exports))
}

fn execute_inner(
    command: &Command,
    sdl_source: impl Fn(&str) -> Result<String, String>,
    exports: &mut Vec<ExportFile>,
) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Validate {
            json_path,
            schema_path,
        } => {
            let doc = sdl_source(json_path).map_err(CliError::Workflow)?;
            let schema = sdl_source(schema_path).map_err(CliError::Workflow)?;
            let schema: serde_json::Value = serde_json::from_str(&schema)
                .map_err(|e| CliError::Workflow(format!("{schema_path}: {e}")))?;
            // A `.jsonl` document (e.g. the serve alerts stream) holds one
            // JSON value per line; every line must match the schema.
            if json_path.ends_with(".jsonl") {
                let mut checked = 0usize;
                for (i, line) in doc.lines().enumerate() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    let value: serde_json::Value = serde_json::from_str(line)
                        .map_err(|e| CliError::Workflow(format!("{json_path}:{}: {e}", i + 1)))?;
                    xanadu_platform::export::validate_schema(&value, &schema)
                        .map_err(|e| CliError::Workflow(format!("{json_path}:{}: {e}", i + 1)))?;
                    checked += 1;
                }
                return Ok(format!(
                    "{json_path}: {checked} line(s) valid against {schema_path}\n"
                ));
            }
            let doc: serde_json::Value = serde_json::from_str(&doc)
                .map_err(|e| CliError::Workflow(format!("{json_path}: {e}")))?;
            xanadu_platform::export::validate_schema(&doc, &schema)
                .map_err(|e| CliError::Workflow(format!("{json_path}: {e}")))?;
            Ok(format!("{json_path}: valid against {schema_path}\n"))
        }
        Command::Inspect { sdl_path, dot } => {
            let doc = sdl_source(sdl_path).map_err(CliError::Workflow)?;
            let dag = sdl::parse(workflow_name(sdl_path), &doc)
                .map_err(|e| CliError::Workflow(e.to_string()))?;
            if *dot {
                return Ok(xanadu_chain::to_dot(&dag));
            }
            let mut out = format!(
                "workflow `{}`: {} functions, depth {}, {} conditional points\n",
                dag.name(),
                dag.len(),
                dag.depth(),
                dag.conditional_points()
            );
            out.push_str(&format!(
                "expected execution (critical path): {:.2}s\n",
                dag.critical_path_ms() / 1000.0
            ));
            let mlp = infer_mlp(&dag, |_, _| None);
            let path: Vec<&str> = mlp
                .path
                .iter()
                .map(|&n| dag.node(n).spec().name())
                .collect();
            out.push_str(&format!("most likely path: {}\n", path.join(" -> ")));
            for id in dag.node_ids() {
                let node = dag.node(id);
                out.push_str(&format!(
                    "  {} [{} MB, {}, {:.0}ms]\n",
                    node.spec().name(),
                    node.spec().memory(),
                    node.spec().isolation_level(),
                    node.spec().mean_service_ms()
                ));
            }
            Ok(out)
        }
        Command::Run(run) => {
            let doc = sdl_source(&run.sdl_path).map_err(CliError::Workflow)?;
            let w = run_workload(run, &doc)?;
            let traces: Vec<(u64, String)> = if run.trace {
                w.request_ids
                    .iter()
                    .filter_map(|&id| w.platform.trace(id).map(|tr| (id, tr.render_gantt(72))))
                    .collect()
            } else {
                Vec::new()
            };
            w.push_exports(run, exports);
            let name = w.name.clone();
            let report = w.platform.finish();
            let mut out = format!(
                "platform {} — {} triggers of `{}` every {} min (seed {})\n",
                run.label(),
                run.triggers,
                name,
                run.gap_min,
                run.seed
            );
            let faulty = run.fault_rate > 0.0;
            if faulty {
                out.push_str("req  end-to-end   overhead  cold  warm  misses  faults  retries\n");
            } else {
                out.push_str("req  end-to-end   overhead  cold  warm  misses\n");
            }
            for r in &report.results {
                out.push_str(&format!(
                    "{:>3}  {:>9.2}s  {:>8.2}s  {:>4}  {:>4}  {:>6}",
                    r.request,
                    r.end_to_end.as_secs_f64(),
                    r.overhead.as_secs_f64(),
                    r.cold_starts,
                    r.warm_starts,
                    r.misses
                ));
                if faulty {
                    out.push_str(&format!("  {:>6}  {:>7}", r.faults, r.retries));
                }
                out.push('\n');
            }
            out.push_str(&format!(
                "mean overhead: {:.2}s   total resources: {:.1} core·s CPU, {:.1} MB·s memory\n",
                report.mean_overhead_ms() / 1000.0,
                report.total_resources().cpu_s,
                report.total_resources().mem_mbs
            ));
            if faulty {
                let (total_faults, total_retries) = report.fault_counts();
                out.push_str(&format!(
                    "faults injected: {total_faults}   retries: {total_retries}   \
                     (rate {}, fault seed {})\n",
                    run.fault_rate, run.fault_seed
                ));
            }
            for (id, gantt) in traces {
                out.push_str(&format!(
                    "\ntimeline of request {id} (░ provisioning/idle, █ executing):\n"
                ));
                out.push_str(&gantt);
            }
            Ok(out)
        }
        Command::Analyze(run) => {
            let doc = sdl_source(&run.sdl_path).map_err(CliError::Workflow)?;
            let w = run_workload(run, &doc)?;
            w.push_exports(run, exports);
            let mut out = format!(
                "platform {} — {} triggers of `{}` every {} min (seed {})\n",
                run.label(),
                run.triggers,
                w.name,
                run.gap_min,
                run.seed
            );
            out.push_str(&w.audit().render());
            Ok(out)
        }
        Command::Replay(replay) => execute_replay(replay, &sdl_source, exports),
        Command::Record(record) => crate::serve::run_record(record, exports),
        Command::Serve(serve) => crate::serve::run_serve(serve, &sdl_source, exports),
        Command::Diff(diff) => {
            let baseline = load_snapshot(&diff.baseline_path, &sdl_source)?;
            let candidate = load_snapshot(&diff.candidate_path, &sdl_source)?;
            let (kind, regressions) = match (&baseline, &candidate) {
                (Snapshot::Audit(b), Snapshot::Audit(c)) => {
                    ("audit", diff_audits(b, c, &diff.thresholds))
                }
                (Snapshot::Metrics(b), Snapshot::Metrics(c)) => {
                    ("metrics", diff_metrics(b, c, &diff.thresholds))
                }
                _ => {
                    return Err(CliError::Workflow(format!(
                        "snapshot kinds differ: {} and {} must both be audit or both \
                         be metrics documents",
                        diff.baseline_path, diff.candidate_path
                    )));
                }
            };
            if regressions.is_empty() {
                Ok(format!(
                    "{}: no regressions versus {} ({kind} snapshots, \
                     thresholds: p95 +{}%, wasted CPU +{}%, recall -{})\n",
                    diff.candidate_path,
                    diff.baseline_path,
                    diff.thresholds.max_p95_regress_pct,
                    diff.thresholds.max_wasted_cpu_regress_pct,
                    diff.thresholds.max_recall_drop
                ))
            } else {
                Err(CliError::Regressions {
                    baseline: diff.baseline_path.clone(),
                    candidate: diff.candidate_path.clone(),
                    details: regressions.iter().map(|r| r.to_string()).collect(),
                })
            }
        }
    }
}

/// Runs `xanadu replay`: synthesize the scaled Azure fleet, replay it
/// over sharded event loops, render the throughput summary and stage
/// the requested exports.
fn execute_replay(
    replay: &ReplayArgs,
    sdl_source: &impl Fn(&str) -> Result<String, String>,
    exports: &mut Vec<ExportFile>,
) -> Result<String, CliError> {
    let scaled = scale_to_invocations(&AzureTraceConfig::default(), replay.invocations);
    let traces = generate_trace(&scaled, replay.seed);
    let realized = total_invocations(&traces);
    let workloads: Vec<ShardWorkload> = traces
        .into_iter()
        .map(|t| {
            // Per-workflow function namespaces: no cross-workflow warm
            // sharing, the property the per-workflow sharding relies on.
            let template = FunctionSpec::new(format!("{}-f", t.name)).service_ms(400.0);
            let dag = linear_chain(&t.name, replay.depth as usize, &template)
                .map_err(|e| CliError::Workflow(e.to_string()))?;
            Ok(ShardWorkload {
                dag,
                triggers: t.arrivals,
            })
        })
        .collect::<Result<_, CliError>>()?;

    let thresholds = match &replay.slo {
        None => DiffThresholds::default(),
        Some(path) => {
            let text = sdl_source(path).map_err(CliError::Workflow)?;
            serde_json::from_str(&text).map_err(|e| {
                CliError::Workflow(format!("{path}: not a thresholds document: {e}"))
            })?
        }
    };
    let slo_wanted = replay.slo.is_some() || replay.slo_out.is_some();
    let telemetry = ShardTelemetry {
        streaming: replay
            .audit_out
            .as_ref()
            .map(|_| StreamingConfig::default()),
        slo: slo_wanted.then(|| SloConfig {
            window: SimDuration::from_secs(replay.slo_window_secs),
            thresholds,
        }),
        metrics: replay.metrics_out.is_some(),
        progress: replay.progress,
    };

    // The audit export streams (bounded memory), so per-request trace
    // recording stays off even when auditing fleet-scale replays.
    let mut builder = PlatformConfig::builder()
        .for_mode(replay.mode, replay.seed)
        .record_traces(false);
    if replay.policy.is_default() {
        let mut spec = SpeculationConfig::for_mode(replay.mode);
        spec.aggressiveness = replay.aggressiveness;
        spec.miss_policy = replay.miss_policy;
        builder = builder.speculation(spec);
    } else {
        builder = builder
            .policy(replay.policy.clone())
            .label(replay.policy.name());
    }
    builder = builder.plan_cache(replay.plan_cache).cluster(
        ClusterConfig::uniform(replay.placement, replay.hosts, replay.host_memory_mb)
            .with_tenants(replay.tenants),
    );
    if replay.fault_rate > 0.0 || replay.host_fail_rate > 0.0 {
        builder = builder.faults(FaultConfig {
            host_failure_rate: replay.host_fail_rate,
            ..FaultConfig::with_rate(replay.fault_rate, replay.fault_seed)
        });
    }
    let config = builder
        .build()
        .map_err(|e| CliError::Workflow(e.to_string()))?;

    let opts = ShardOptions {
        threads: replay.shards,
        window: SimDuration::from_secs(replay.window_secs),
    };
    let started = std::time::Instant::now();
    let run = replay_sharded_with(&config, workloads, &opts, &telemetry)
        .map_err(|e| CliError::Workflow(e.to_string()))?;
    let wall = started.elapsed().as_secs_f64();
    let events_per_sec = if wall > 0.0 {
        run.events_processed as f64 / wall
    } else {
        0.0
    };

    // The report holds one result per invocation: digest it while it is
    // written, and keep its text only when `--report-out` asks for it.
    let mut report_text = DigestingText {
        digest: Fnv1a64::default(),
        text: replay.report_out.is_some().then(String::new),
    };
    serde::Serialize::write_json(&run.report, &mut JsonWriter::new(&mut report_text, true))
        .and_then(|()| fmt::Write::write_char(&mut report_text, '\n'))
        .expect("writing the report into memory cannot fail");
    let digest = report_text.digest.digest();

    let label = if replay.policy.is_default() {
        replay.mode.label().to_string()
    } else {
        replay.policy.name().to_string()
    };
    let mut out = format!(
        "sharded replay — {} workflows, {realized} invocations ({}, seed {}, plan cache {}, \
         fault rate {})\n",
        run.logical_shards,
        label,
        replay.seed,
        if replay.plan_cache { "on" } else { "off" },
        replay.fault_rate,
    );
    out.push_str(&format!(
        "shards: {} thread(s) over {} logical shards, window {}s\n",
        replay.shards.min(run.logical_shards.max(1)),
        run.logical_shards,
        replay.window_secs
    ));
    out.push_str(&format!(
        "events: {}   wall: {wall:.2}s   events/sec: {events_per_sec:.0}\n",
        run.events_processed
    ));
    let report = &run.report;
    let (cold, warm) = report.start_counts();
    out.push_str(&format!(
        "requests: {}   mean end-to-end: {:.2}s   mean overhead: {:.2}s   cold: {cold}   \
         warm: {warm}\n",
        report.results.len(),
        report.mean_end_to_end_ms() / 1000.0,
        report.mean_overhead_ms() / 1000.0,
    ));
    if replay.fault_rate > 0.0 {
        let (faults, retries) = report.fault_counts();
        out.push_str(&format!("faults injected: {faults}   retries: {retries}\n"));
    }
    if let Some(cluster) = &report.cluster {
        out.push_str(&format!(
            "cluster: {} host(s)/shard, {} policy, cold {} cross-host / {} co-located, \
             hosts failed: {}\n",
            cluster.hosts.len(),
            cluster.policy.label(),
            cluster.cross_host_cold,
            cluster.same_host_cold,
            cluster.hosts_failed,
        ));
    }
    if let Some(audit) = &run.streaming {
        let s = audit.summary();
        out.push_str(&format!(
            "streaming audit: {} requests, p95 ~{:.0}ms (bucketed), {} exemplar(s)\n",
            s.requests,
            s.end_to_end.quantile_ms(0.95),
            audit.exemplars().len()
        ));
    }
    let slo_report = run.slo.as_ref().map(|m| m.report());
    if let Some(slo) = &slo_report {
        let baseline = match slo.baseline_window {
            Some(b) => format!("window {b}"),
            None => "none".to_string(),
        };
        out.push_str(&format!(
            "slo: {} window(s) of {}s, baseline {baseline}, {} alert(s)\n",
            slo.windows.len(),
            replay.slo_window_secs,
            slo.alerts.len()
        ));
    }
    out.push_str(&format!("report digest: {digest}\n"));

    if let (Some(path), Some(contents)) = (&replay.report_out, report_text.text) {
        exports.push(ExportFile {
            path: path.clone(),
            contents,
        });
    }
    if let Some(path) = &replay.audit_out {
        let audit = run
            .streaming
            .as_ref()
            .expect("--audit-out attaches the streaming audit");
        exports.push(ExportFile {
            path: path.clone(),
            contents: xanadu_platform::export::streaming_json_string(audit),
        });
    }
    if let Some(path) = &replay.metrics_out {
        let mut registry = run.metrics.clone().unwrap_or_default();
        registry.merge_from(&run.profile.deterministic_registry());
        exports.push(ExportFile {
            path: path.clone(),
            contents: xanadu_platform::export::metrics_json_string(&registry),
        });
    }
    if let (Some(path), Some(slo)) = (&replay.slo_out, &slo_report) {
        exports.push(ExportFile {
            path: path.clone(),
            contents: xanadu_platform::export::slo_json_string(slo),
        });
    }
    if let Some(slo) = &slo_report {
        if !slo.alerts.is_empty() {
            return Err(CliError::SloBreach {
                windows: slo.windows.len(),
                details: slo.alerts.iter().map(render_slo_alert).collect(),
                exports: std::mem::take(exports),
            });
        }
    }
    Ok(out)
}

/// A text sink that digests everything written to it and keeps a copy
/// only when `text` is `Some`.
struct DigestingText {
    digest: Fnv1a64,
    text: Option<String>,
}

impl fmt::Write for DigestingText {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.digest.update(s.as_bytes());
        if let Some(text) = &mut self.text {
            text.push_str(s);
        }
        Ok(())
    }
}

/// One human-readable line per SLO breach, mirroring how `xanadu diff`
/// renders a [`Regression`](xanadu_platform::Regression).
pub(crate) fn render_slo_alert(alert: &xanadu_platform::SloAlert) -> String {
    format!(
        "window {}: {} {:.3} -> {:.3} ({})",
        alert.window, alert.path, alert.baseline, alert.candidate, alert.allowed
    )
}

/// A finished workload run: the platform still holds per-request traces.
struct Workload {
    name: String,
    platform: Platform,
    request_ids: Vec<u64>,
    registry: Option<ObserverHandle<MetricsRegistry>>,
}

fn run_workload(run: &RunArgs, doc: &str) -> Result<Workload, CliError> {
    let name = workflow_name(&run.sdl_path).to_string();
    let dag = sdl::parse(&name, doc).map_err(|e| CliError::Workflow(e.to_string()))?;
    let mut cluster = ClusterConfig::uniform(run.placement, run.hosts, run.host_memory_mb)
        .with_tenants(run.tenants);
    if run.autoscale_max > 0 {
        cluster.autoscale = AutoscaleConfig {
            max_hosts: run.autoscale_max,
            host_memory_mb: run.host_memory_mb,
            ..AutoscaleConfig::default()
        };
    }
    let mut platform = run.platform.build(
        run.seed,
        run.aggressiveness,
        run.miss_policy,
        cluster,
        &run.policy,
    );
    if run.fault_rate > 0.0 || run.host_fail_rate > 0.0 {
        platform.set_faults(FaultConfig {
            host_failure_rate: run.host_fail_rate,
            ..FaultConfig::with_rate(run.fault_rate, run.fault_seed)
        });
    }
    let registry = run
        .metrics_out
        .as_ref()
        .map(|_| platform.attach_observer(MetricsRegistry::new()));
    let result = if run.implicit {
        platform.deploy_implicit(dag)
    } else {
        platform.deploy(dag)
    };
    result.map_err(|e| CliError::Workflow(e.to_string()))?;
    let mut request_ids = Vec::new();
    for i in 0..run.triggers {
        // Parsing bounded the last trigger's minutes so they fit.
        let at = SimTime::from_mins(i * run.gap_min);
        let id = platform
            .trigger_at(&name, at)
            .map_err(|e| CliError::Workflow(e.to_string()))?;
        request_ids.push(id);
        platform.run_until_idle();
        platform.roll_profile_window();
    }
    Ok(Workload {
        name,
        platform,
        request_ids,
        registry,
    })
}

impl Workload {
    fn traces(&self) -> Vec<(u64, xanadu_platform::timeline::Trace)> {
        self.request_ids
            .iter()
            .filter_map(|&id| self.platform.trace(id).map(|tr| (id, tr.clone())))
            .collect()
    }

    fn audit(&self) -> Audit {
        Audit::from_traces(&self.traces()).with_cluster(self.platform.cluster_report())
    }

    fn push_exports(&self, run: &RunArgs, exports: &mut Vec<ExportFile>) {
        if let Some(path) = &run.trace_out {
            exports.push(ExportFile {
                path: path.clone(),
                contents: xanadu_platform::export::chrome_trace_string(&self.traces()),
            });
        }
        if let (Some(path), Some(registry)) = (&run.metrics_out, &self.registry) {
            exports.push(ExportFile {
                path: path.clone(),
                contents: xanadu_platform::export::metrics_json_string(&registry.snapshot()),
            });
        }
        if let Some(path) = &run.audit_out {
            exports.push(ExportFile {
                path: path.clone(),
                contents: xanadu_platform::export::audit_json_string(&self.audit()),
            });
        }
    }
}

/// A parsed `xanadu diff` input: either snapshot kind, sniffed from the
/// document's top-level keys.
enum Snapshot {
    Audit(Box<Audit>),
    Metrics(Box<MetricsRegistry>),
}

fn load_snapshot(
    path: &str,
    source: impl Fn(&str) -> Result<String, String>,
) -> Result<Snapshot, CliError> {
    let text = source(path).map_err(CliError::Workflow)?;
    let value: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| CliError::Workflow(format!("{path}: {e}")))?;
    if value.get("summary").is_some() {
        let audit: Audit = serde_json::from_value(value)
            .map_err(|e| CliError::Workflow(format!("{path}: not an audit document: {e}")))?;
        Ok(Snapshot::Audit(Box::new(audit)))
    } else if value.get("counters").is_some() {
        let metrics: MetricsRegistry = serde_json::from_value(value)
            .map_err(|e| CliError::Workflow(format!("{path}: not a metrics document: {e}")))?;
        Ok(Snapshot::Metrics(Box::new(metrics)))
    } else {
        Err(CliError::Workflow(format!(
            "{path}: neither an audit (no \"summary\") nor a metrics snapshot \
             (no \"counters\")"
        )))
    }
}

fn workflow_name(path: &str) -> &str {
    std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("workflow")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    const DOC: &str = r#"{
        "a": {"type": "function", "wait_for": [], "service_ms": 200},
        "b": {"type": "function", "wait_for": ["a"], "service_ms": 300}
    }"#;

    fn source(_path: &str) -> Result<String, String> {
        Ok(DOC.to_string())
    }

    #[test]
    fn parse_help_and_empty() {
        assert_eq!(parse_args(&args(&[])).unwrap(), Command::Help);
        assert_eq!(parse_args(&args(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&args(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn parse_run_with_defaults() {
        let cmd = parse_args(&args(&["run", "--sdl", "wf.json"])).unwrap();
        let Command::Run(run) = cmd else {
            panic!("expected run")
        };
        assert_eq!(run.sdl_path, "wf.json");
        assert_eq!(run.platform, PlatformChoice::Xanadu(ExecutionMode::Jit));
        assert_eq!(run.triggers, 1);
        assert_eq!(run.gap_min, 20);
        assert!(!run.implicit);
    }

    #[test]
    fn parse_run_full_flags() {
        let cmd = parse_args(&args(&[
            "run",
            "--sdl",
            "wf.json",
            "--mode",
            "openwhisk",
            "--triggers",
            "3",
            "--gap-min",
            "5",
            "--seed",
            "7",
            "--implicit",
        ]))
        .unwrap();
        let Command::Run(run) = cmd else {
            panic!("expected run")
        };
        assert_eq!(
            run.platform,
            PlatformChoice::Baseline(BaselineKind::OpenWhisk)
        );
        assert_eq!((run.triggers, run.gap_min, run.seed), (3, 5, 7));
        assert!(run.implicit);
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            parse_args(&args(&["launch"])),
            Err(CliError::UnknownCommand(_))
        ));
        assert!(matches!(
            parse_args(&args(&["run"])),
            Err(CliError::MissingFlag(_))
        ));
        assert!(matches!(
            parse_args(&args(&["run", "--sdl"])),
            Err(CliError::MissingValue(_))
        ));
        assert!(matches!(
            parse_args(&args(&["run", "--sdl", "x", "--mode", "lambda"])),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            parse_args(&args(&["run", "--sdl", "x", "--triggers", "many"])),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn parse_policy_flag_and_desugared_aliases() {
        use xanadu_core::policy::{MpcConfig, RlConfig};

        let Command::Run(run) = parse_args(&args(&[
            "run",
            "--sdl",
            "wf.json",
            "--policy",
            "mpc:horizon=6",
        ]))
        .unwrap() else {
            panic!("expected run")
        };
        assert_eq!(
            run.policy,
            PolicySpec::Mpc(MpcConfig {
                horizon: 6,
                ..MpcConfig::default()
            })
        );
        assert_eq!(run.platform, PlatformChoice::Xanadu(ExecutionMode::Jit));

        let Command::Run(run) =
            parse_args(&args(&["run", "--sdl", "wf.json", "--policy", "rl"])).unwrap()
        else {
            panic!("expected run")
        };
        assert_eq!(run.policy, PolicySpec::Rl(RlConfig::default()));

        // A parameterized xanadu spec desugars onto the legacy fields, so
        // the platform is built exactly as the alias flags would have.
        let Command::Run(run) = parse_args(&args(&[
            "run",
            "--sdl",
            "wf.json",
            "--policy",
            "xanadu:mode=spec,aggressiveness=0.5,miss=replan-and-reuse",
        ]))
        .unwrap() else {
            panic!("expected run")
        };
        assert_eq!(run.policy, PolicySpec::Xanadu);
        assert_eq!(
            run.platform,
            PlatformChoice::Xanadu(ExecutionMode::Speculative)
        );
        assert_eq!(run.aggressiveness, 0.5);
        assert_eq!(run.miss_policy, MissPolicy::ReplanAndReuse);

        let Command::Replay(replay) =
            parse_args(&args(&["replay", "--policy", "xanadu:mode=cold"])).unwrap()
        else {
            panic!("expected replay")
        };
        assert_eq!(replay.mode, ExecutionMode::Cold);
        assert_eq!(replay.policy, PolicySpec::Xanadu);

        assert!(matches!(
            parse_args(&args(&["run", "--sdl", "x", "--policy", "dqn"])),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            parse_args(&args(&["run", "--sdl", "x", "--policy", "mpc:horizon=0"])),
            Err(CliError::BadValue { .. })
        ));
        let err =
            parse_args(&args(&["replay", "--policy", "xanadu:aggressiveness=NaN"])).unwrap_err();
        assert!(matches!(err, CliError::BadValue { .. }), "{err}");
        assert!(err.to_string().contains("`aggressiveness`"), "{err}");
    }

    #[test]
    fn policy_flag_conflicts_with_alias_flags() {
        let err = parse_args(&args(&[
            "run", "--sdl", "wf.json", "--policy", "mpc", "--mode", "jit",
        ]))
        .unwrap_err();
        let CliError::PolicyConflict {
            policy,
            conflicting,
        } = &err
        else {
            panic!("expected a policy conflict, got {err}")
        };
        assert_eq!(policy, "mpc");
        assert_eq!(conflicting, &["--mode".to_string()]);
        assert!(err.to_string().contains("--policy mpc conflicts"), "{err}");

        let err = parse_args(&args(&[
            "run",
            "--sdl",
            "wf.json",
            "--policy",
            "xanadu:mode=jit",
            "--aggressiveness",
            "0.5",
            "--miss-policy",
            "stop",
        ]))
        .unwrap_err();
        let CliError::PolicyConflict { conflicting, .. } = &err else {
            panic!("expected a policy conflict, got {err}")
        };
        assert_eq!(
            conflicting,
            &["--aggressiveness".to_string(), "--miss-policy".to_string()]
        );

        assert!(matches!(
            parse_args(&args(&[
                "replay",
                "--policy",
                "rl",
                "--miss-policy",
                "stop"
            ])),
            Err(CliError::PolicyConflict { .. })
        ));
    }

    fn rejected(list: &[&str]) -> CliError {
        parse_args(&args(list)).expect_err("the command must be rejected")
    }

    fn unknown(command: &str, flag: &str) -> CliError {
        CliError::UnknownFlag {
            command: command.into(),
            flag: flag.into(),
        }
    }

    #[test]
    fn misspelled_flag_is_rejected() {
        let err = rejected(&["replay", "--shrads", "4"]);
        assert_eq!(err, unknown("replay", "--shrads"));
        assert!(err.to_string().contains("--shrads"), "{err}");
    }

    #[test]
    fn serve_rejects_the_policy_flag() {
        assert_eq!(
            rejected(&["serve", "--checkpoint-dir", "ck", "--policy", "mpc"]),
            unknown("serve", "--policy")
        );
    }

    #[test]
    fn replay_rejects_the_aggressiveness_alias() {
        assert_eq!(
            rejected(&["replay", "--aggressiveness", "0.5"]),
            unknown("replay", "--aggressiveness")
        );
    }

    #[test]
    fn repeated_flag_is_rejected() {
        let err = rejected(&["replay", "--seed", "1", "--seed", "2"]);
        assert_eq!(
            err,
            CliError::RepeatedFlag {
                command: "replay".into(),
                flag: "--seed".into()
            }
        );
        assert!(err.to_string().contains("--seed"), "{err}");
    }

    #[test]
    fn replay_rejects_a_removed_flag() {
        assert_eq!(
            rejected(&["replay", "--bench-out", "x"]),
            unknown("replay", "--bench-out")
        );
    }

    #[test]
    fn serve_rejects_a_removed_flag() {
        for flag in ["--bench-out", "--sketch-edges"] {
            assert_eq!(
                rejected(&["serve", "--checkpoint-dir", "ck", flag, "64"]),
                unknown("serve", flag)
            );
        }
    }

    #[test]
    fn serve_rejects_population_flags_with_a_recorded_stream() {
        for (flag, value) in [
            ("--events", "5"),
            ("--workflows", "2"),
            ("--depth", "3"),
            ("--rate-per-hour", "60"),
        ] {
            let err = rejected(&[
                "serve",
                "--checkpoint-dir",
                "ck",
                "--stream",
                "s.jsonl",
                flag,
                value,
            ]);
            assert_eq!(err, CliError::StreamConflict { flag: flag.into() });
            assert!(err.to_string().contains(flag), "{err}");
            // Without --stream the same flag sets the generated stream.
            assert!(parse_args(&args(&["serve", "--checkpoint-dir", "ck", flag, value])).is_ok());
        }
        // --seed still seeds the epoch platforms of a recorded stream.
        let recorded = ["serve", "--checkpoint-dir", "ck", "--stream", "s.jsonl"];
        assert!(parse_args(&args(&[&recorded[..], &["--seed", "7"]].concat())).is_ok());
    }

    #[test]
    fn stray_values_are_rejected() {
        let stray = |value: &str, after: Option<&str>| CliError::StrayValue {
            command: "replay".into(),
            value: value.into(),
            after: after.map(String::from),
        };
        assert_eq!(rejected(&["replay", "200"]), stray("200", None));
        assert_eq!(
            rejected(&["replay", "--progress", "yes"]),
            stray("yes", Some("--progress"))
        );
        assert_eq!(
            rejected(&["replay", "--seed", "3", "4"]),
            stray("4", Some("--seed"))
        );
    }

    /// The argument lists `perfbench/run.py` passes for its three
    /// workloads, verbatim, and the fields its harness reads from them.
    #[test]
    fn benchmark_commands_parse() {
        let Command::Replay(fleet) = parse_args(&args(&[
            "replay",
            "--invocations",
            "20000",
            "--seed",
            "42",
            "--shards",
            "2",
        ]))
        .unwrap() else {
            panic!("expected replay")
        };
        assert_eq!(
            (
                fleet.invocations,
                fleet.seed,
                fleet.shards,
                fleet.window_secs
            ),
            (20_000, 42, 2, 60)
        );
        assert_eq!(
            (fleet.mode, fleet.depth, fleet.hosts),
            (ExecutionMode::Jit, 5, 0)
        );
        assert!(fleet.policy.is_default() && fleet.plan_cache);
        assert_eq!((fleet.audit_out, fleet.metrics_out), (None, None));

        let Command::Replay(chaos) = parse_args(&args(&[
            "replay",
            "--invocations",
            "20000",
            "--seed",
            "42",
            "--shards",
            "1",
            "--policy",
            "mpc",
            "--hosts",
            "4",
            "--placement",
            "affinity",
            "--tenants",
            "2",
            "--fault-rate",
            "0.05",
            "--host-fail-rate",
            "0.01",
            "--audit-out",
            "work/audit-rep.json",
            "--metrics-out",
            "work/metrics-rep.json",
        ]))
        .unwrap() else {
            panic!("expected replay")
        };
        assert_eq!(chaos.policy, "mpc".parse().unwrap());
        assert_eq!(chaos.shards, 1);
        assert_eq!(
            (
                chaos.hosts,
                chaos.placement,
                chaos.tenants,
                chaos.host_memory_mb
            ),
            (4, PlacementPolicy::Affinity, 2, 4096)
        );
        assert_eq!(
            (chaos.fault_rate, chaos.host_fail_rate, chaos.fault_seed),
            (0.05, 0.01, 0xFA17)
        );
        assert_eq!(chaos.audit_out.as_deref(), Some("work/audit-rep.json"));
        assert_eq!(chaos.metrics_out.as_deref(), Some("work/metrics-rep.json"));
        assert_eq!((chaos.slo_out, chaos.slo_window_secs), (None, 60));

        let Command::Serve(serve) = parse_args(&args(&[
            "serve",
            "--events",
            "40000",
            "--checkpoint-every",
            "5000",
            "--seed",
            "42",
            "--checkpoint-dir",
            "work/ckpt-rep",
        ]))
        .unwrap() else {
            panic!("expected serve")
        };
        assert_eq!(
            (serve.events, serve.checkpoint_every, serve.seed),
            (40_000, 5000, 42)
        );
        assert_eq!(serve.checkpoint_dir, "work/ckpt-rep");
        assert_eq!(
            (serve.workflows, serve.depth, serve.rate_per_hour),
            (6, 4, 120.0)
        );
        assert_eq!(
            (serve.mode, serve.slo_window_secs),
            (ExecutionMode::Jit, 60)
        );
        assert_eq!(serve.audit_out, None);
    }

    #[test]
    fn run_with_learned_policy_labels_and_terminates() {
        for policy in ["mpc", "rl"] {
            let cmd = parse_args(&args(&[
                "run",
                "--sdl",
                "flow.json",
                "--policy",
                policy,
                "--triggers",
                "3",
            ]))
            .unwrap();
            let out = execute(&cmd, source).unwrap();
            assert!(
                out.contains(&format!("platform {policy} — 3 triggers")),
                "{out}"
            );
            assert!(out.contains("mean overhead"), "{out}");
            assert_eq!(out, execute(&cmd, source).unwrap(), "deterministic");
        }
    }

    /// `--policy xanadu` (bare or with the default parameters spelled
    /// out) is byte-identical to the legacy alias flags.
    #[test]
    fn bare_xanadu_policy_matches_alias_flags() {
        let run = |list: &[&str]| {
            let cmd = parse_args(&args(list)).unwrap();
            execute(&cmd, source).unwrap()
        };
        let legacy = run(&[
            "run",
            "--sdl",
            "flow.json",
            "--mode",
            "jit",
            "--triggers",
            "2",
        ]);
        assert_eq!(
            legacy,
            run(&[
                "run",
                "--sdl",
                "flow.json",
                "--policy",
                "xanadu",
                "--triggers",
                "2"
            ])
        );
        assert_eq!(
            legacy,
            run(&[
                "run",
                "--sdl",
                "flow.json",
                "--policy",
                "xanadu:mode=jit,aggressiveness=1.0",
                "--triggers",
                "2"
            ])
        );
    }

    #[test]
    fn parse_replay_defaults_and_flags() {
        let Command::Replay(replay) = parse_args(&args(&["replay"])).unwrap() else {
            panic!("expected replay")
        };
        assert_eq!(replay.invocations, 10_000);
        assert_eq!(replay.shards, 1);
        assert_eq!(replay.window_secs, 60);
        assert_eq!(replay.mode, ExecutionMode::Jit);
        assert!(replay.plan_cache);
        assert_eq!(replay.depth, 5);

        let Command::Replay(replay) = parse_args(&args(&[
            "replay",
            "--invocations",
            "500",
            "--shards",
            "4",
            "--mode",
            "spec",
            "--no-plan-cache",
            "--fault-rate",
            "0.1",
        ]))
        .unwrap() else {
            panic!("expected replay")
        };
        assert_eq!(replay.invocations, 500);
        assert_eq!(replay.shards, 4);
        assert_eq!(replay.mode, ExecutionMode::Speculative);
        assert!(!replay.plan_cache);
        assert_eq!(replay.fault_rate, 0.1);

        assert!(matches!(
            parse_args(&args(&["replay", "--mode", "knative"])),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            parse_args(&args(&["replay", "--window-secs", "0"])),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn replay_digest_is_shard_count_invariant() {
        let digest_line = |shards: &str, extra: &[&str]| {
            let mut list = vec![
                "replay",
                "--invocations",
                "300",
                "--seed",
                "9",
                "--shards",
                shards,
            ];
            list.extend_from_slice(extra);
            let cmd = parse_args(&args(&list)).unwrap();
            let out = execute(&cmd, source).unwrap();
            out.lines()
                .find(|l| l.starts_with("report digest:"))
                .expect("digest line present")
                .to_string()
        };
        let serial = digest_line("1", &[]);
        assert_eq!(serial, digest_line("4", &[]), "shard count changed bytes");
        // Window width is also invisible in the digest.
        assert_eq!(serial, digest_line("2", &["--window-secs", "600"]));
        // Plan cache and faults change the workload, not the determinism.
        let faulty = digest_line("1", &["--fault-rate", "0.2"]);
        assert_eq!(faulty, digest_line("8", &["--fault-rate", "0.2"]));
        assert_ne!(serial, faulty, "faults should perturb the report");
    }

    #[test]
    fn parse_replay_telemetry_flags() {
        let Command::Replay(replay) = parse_args(&args(&["replay"])).unwrap() else {
            panic!("expected replay")
        };
        assert_eq!(replay.metrics_out, None);
        assert_eq!(replay.slo, None);
        assert_eq!(replay.slo_out, None);
        assert_eq!(replay.slo_window_secs, 60);
        assert!(!replay.progress);

        let Command::Replay(replay) = parse_args(&args(&[
            "replay",
            "--metrics-out",
            "m.json",
            "--slo",
            "thr.json",
            "--slo-out",
            "slo.json",
            "--slo-window-secs",
            "30",
            "--progress",
        ]))
        .unwrap() else {
            panic!("expected replay")
        };
        assert_eq!(replay.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(replay.slo.as_deref(), Some("thr.json"));
        assert_eq!(replay.slo_out.as_deref(), Some("slo.json"));
        assert_eq!(replay.slo_window_secs, 30);
        assert!(replay.progress);

        assert!(matches!(
            parse_args(&args(&["replay", "--slo-window-secs", "0"])),
            Err(CliError::BadValue { .. })
        ));
    }

    /// Every streaming export (audit, metrics, SLO windows) must be
    /// byte-identical at any `--shards`, and attaching them must not
    /// perturb the report digest.
    #[test]
    fn replay_streaming_exports_are_shard_invariant() {
        let loose = |_: &str| -> Result<String, String> {
            Ok(r#"{"max_p95_regress_pct": 1e9,
                    "max_wasted_cpu_regress_pct": 1e9,
                    "max_recall_drop": 1e9}"#
                .into())
        };
        let run = |shards: &str| {
            let cmd = parse_args(&args(&[
                "replay",
                "--invocations",
                "300",
                "--seed",
                "9",
                "--shards",
                shards,
                "--audit-out",
                "audit.json",
                "--metrics-out",
                "metrics.json",
                "--slo",
                "thr.json",
                "--slo-out",
                "slo.json",
            ]))
            .unwrap();
            execute_with_exports(&cmd, loose).unwrap()
        };
        let (out_one, one) = run("1");
        let (_, eight) = run("8");
        assert_eq!(one, eight, "streaming exports changed with shard count");

        let audit = &one
            .iter()
            .find(|e| e.path == "audit.json")
            .unwrap()
            .contents;
        assert!(audit.contains("\"end_to_end_ms\""), "{audit}");
        assert!(audit.contains("\"exemplars\""), "{audit}");
        let metrics = &one
            .iter()
            .find(|e| e.path == "metrics.json")
            .unwrap()
            .contents;
        assert!(metrics.contains("kernel.events"), "{metrics}");
        assert!(metrics.contains("requests.completed"), "{metrics}");
        let slo = &one.iter().find(|e| e.path == "slo.json").unwrap().contents;
        assert!(slo.contains("\"windows\""), "{slo}");

        // The telemetry run prints the same digest as a bare replay.
        let bare = parse_args(&args(&["replay", "--invocations", "300", "--seed", "9"])).unwrap();
        let bare_out = execute(&bare, source).unwrap();
        let digest = |text: &str| {
            text.lines()
                .find(|l| l.starts_with("report digest:"))
                .map(str::to_string)
                .expect("digest line")
        };
        assert_eq!(
            digest(&bare_out),
            digest(&out_one),
            "telemetry perturbed the report"
        );
        assert!(out_one.contains("streaming audit:"), "{out_one}");
        assert!(out_one.contains("slo:"), "{out_one}");
    }

    /// A breached SLO gate exits non-zero like `diff`, and the staged
    /// exports ride along on the error so the binary still writes them.
    #[test]
    fn replay_slo_breach_fails_with_exports() {
        // A negative `max_recall_drop` makes every later window a breach
        // (a zero drop already exceeds it), independent of the workload's
        // actual latency shape.
        let files = |path: &str| -> Result<String, String> {
            match path {
                "thr.json" => Ok(r#"{"max_p95_regress_pct": 1e9,
                                     "max_wasted_cpu_regress_pct": 1e9,
                                     "max_recall_drop": -1.0}"#
                    .into()),
                other => Err(format!("{other}: not found")),
            }
        };
        let cmd = parse_args(&args(&[
            "replay",
            "--invocations",
            "300",
            "--seed",
            "9",
            "--slo",
            "thr.json",
            "--slo-out",
            "slo.json",
        ]))
        .unwrap();
        let err = execute_with_exports(&cmd, files).unwrap_err();
        let CliError::SloBreach {
            details, exports, ..
        } = &err
        else {
            panic!("expected an slo breach, got {err}")
        };
        assert!(!details.is_empty());
        let slo = exports
            .iter()
            .find(|e| e.path == "slo.json")
            .expect("slo export rides the breach error");
        assert!(slo.contents.contains("\"alerts\""), "{}", slo.contents);
        assert!(err.to_string().contains("$.windows["), "{err}");
    }

    #[test]
    fn inspect_renders_structure_and_mlp() {
        let cmd = parse_args(&args(&["inspect", "--sdl", "flow.json"])).unwrap();
        let out = execute(&cmd, source).unwrap();
        assert!(out.contains("workflow `flow`: 2 functions, depth 2"));
        assert!(out.contains("most likely path: a -> b"));
        assert!(out.contains("512 MB"));
    }

    #[test]
    fn inspect_dot_emits_graphviz() {
        let cmd = parse_args(&args(&["inspect", "--sdl", "flow.json", "--dot"])).unwrap();
        let out = execute(&cmd, source).unwrap();
        assert!(out.starts_with("digraph \"flow\""));
        assert!(out.contains("\"a\" -> \"b\""));
    }

    #[test]
    fn run_prints_per_request_rows() {
        let cmd = parse_args(&args(&[
            "run",
            "--sdl",
            "flow.json",
            "--mode",
            "spec",
            "--triggers",
            "2",
        ]))
        .unwrap();
        let out = execute(&cmd, source).unwrap();
        assert!(out.contains("platform xanadu-spec — 2 triggers"), "{out}");
        // Two request rows plus summary.
        assert_eq!(
            out.matches("\n  0 ").count() + out.matches("\n  1 ").count(),
            2,
            "{out}"
        );
        assert!(out.contains("mean overhead"));
    }

    #[test]
    fn run_with_trace_prints_gantt() {
        let cmd = parse_args(&args(&[
            "run",
            "--sdl",
            "flow.json",
            "--mode",
            "jit",
            "--trace",
        ]))
        .unwrap();
        let out = execute(&cmd, source).unwrap();
        assert!(out.contains("timeline of request 0"), "{out}");
        assert!(out.contains('█'), "{out}");
    }

    #[test]
    fn parse_fault_flags() {
        let cmd = parse_args(&args(&[
            "run",
            "--sdl",
            "wf.json",
            "--fault-rate",
            "0.4",
            "--fault-seed",
            "9",
        ]))
        .unwrap();
        let Command::Run(run) = cmd else {
            panic!("expected run")
        };
        assert_eq!(run.fault_rate, 0.4);
        assert_eq!(run.fault_seed, 9);

        let Command::Run(defaults) = parse_args(&args(&["run", "--sdl", "wf.json"])).unwrap()
        else {
            panic!("expected run")
        };
        assert_eq!(defaults.fault_rate, 0.0);
        assert_eq!(defaults.fault_seed, 0xFA17);

        assert!(matches!(
            parse_args(&args(&["run", "--sdl", "x", "--fault-rate", "1.5"])),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            parse_args(&args(&["run", "--sdl", "x", "--fault-rate", "lots"])),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn parse_cluster_flags() {
        let cmd = parse_args(&args(&[
            "run",
            "--sdl",
            "wf.json",
            "--hosts",
            "4",
            "--host-memory-mb",
            "2048",
            "--placement",
            "affinity",
            "--tenants",
            "2",
            "--host-fail-rate",
            "0.2",
            "--autoscale-max",
            "8",
            "--miss-policy",
            "replan-and-reuse",
        ]))
        .unwrap();
        let Command::Run(run) = cmd else {
            panic!("expected run")
        };
        assert_eq!(run.hosts, 4);
        assert_eq!(run.host_memory_mb, 2048);
        assert_eq!(run.placement, PlacementPolicy::Affinity);
        assert_eq!(run.tenants, 2);
        assert_eq!(run.host_fail_rate, 0.2);
        assert_eq!(run.autoscale_max, 8);
        assert_eq!(run.miss_policy, MissPolicy::ReplanAndReuse);

        let Command::Run(defaults) = parse_args(&args(&["run", "--sdl", "wf.json"])).unwrap()
        else {
            panic!("expected run")
        };
        assert_eq!(defaults.hosts, 0, "single testbed by default");
        assert_eq!(defaults.host_memory_mb, 4096);
        assert_eq!(defaults.placement, PlacementPolicy::LeastLoaded);
        assert_eq!(defaults.tenants, 0);
        assert_eq!(defaults.host_fail_rate, 0.0);
        assert_eq!(defaults.autoscale_max, 0);
        assert_eq!(
            defaults.miss_policy,
            MissPolicy::StopSpeculation,
            "the paper's miss handling by default"
        );

        assert!(matches!(
            parse_args(&args(&["run", "--sdl", "x", "--placement", "nearest"])),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            parse_args(&args(&["run", "--sdl", "x", "--miss-policy", "retry"])),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            parse_args(&args(&["run", "--sdl", "x", "--host-fail-rate", "2.0"])),
            Err(CliError::BadValue { .. })
        ));

        let Command::Replay(replay) = parse_args(&args(&[
            "replay",
            "--hosts",
            "2",
            "--placement",
            "round-robin",
            "--host-fail-rate",
            "0.1",
        ]))
        .unwrap() else {
            panic!("expected replay")
        };
        assert_eq!(replay.hosts, 2);
        assert_eq!(replay.placement, PlacementPolicy::RoundRobin);
        assert_eq!(replay.host_fail_rate, 0.1);
    }

    #[test]
    fn numeric_flags_reject_values_their_field_cannot_hold() {
        // (command line before the flag, flag, largest valid value, first
        // out-of-range value). Counts are u32. A window's microseconds
        // must fit u64, and so must run's last trigger time, (triggers −
        // 1) × gap minutes.
        const U32_MAX: &str = "4294967295";
        const U32_OVER: &str = "4294967296";
        const SECS_MAX: &str = "18446744073709";
        const SECS_OVER: &str = "18446744073710";
        let run: &[&str] = &["run", "--sdl", "x"];
        let serve: &[&str] = &["serve", "--checkpoint-dir", "d"];
        let rows: [(&[&str], &str, &str, &str); 9] = [
            (run, "--hosts", U32_MAX, U32_OVER),
            (run, "--tenants", U32_MAX, U32_OVER),
            (run, "--autoscale-max", U32_MAX, U32_OVER),
            (
                &["run", "--sdl", "x", "--triggers", "3"],
                "--gap-min",
                "153722867280",
                "153722867281",
            ),
            (&["replay"], "--hosts", U32_MAX, U32_OVER),
            (&["replay"], "--tenants", U32_MAX, U32_OVER),
            (&["replay"], "--window-secs", SECS_MAX, SECS_OVER),
            (&["replay"], "--slo-window-secs", SECS_MAX, SECS_OVER),
            (serve, "--slo-window-secs", SECS_MAX, SECS_OVER),
        ];
        let mut wrong = Vec::new();
        for (before, flag, valid, over) in rows {
            let line = |value: &str| {
                let mut line = before.to_vec();
                line.extend([flag, value]);
                args(&line)
            };
            if let Err(e) = parse_args(&line(valid)) {
                wrong.push(format!("{} {flag} {valid} is rejected: {e}", before[0]));
            }
            match parse_args(&line(over)) {
                Err(CliError::BadValue {
                    flag: named, value, ..
                }) if named == flag && value == over => {}
                other => wrong.push(format!("{} {flag} {over} gives {other:?}", before[0])),
            }
        }
        assert!(wrong.is_empty(), "{wrong:#?}");
    }

    #[test]
    fn run_on_a_cluster_reports_and_audits_placement() {
        let cmd = parse_args(&args(&[
            "analyze",
            "--sdl",
            "flow.json",
            "--mode",
            "jit",
            "--triggers",
            "3",
            "--hosts",
            "2",
            "--host-memory-mb",
            "1024",
            "--placement",
            "affinity",
        ]))
        .unwrap();
        let out = execute(&cmd, source).unwrap();
        assert!(out.contains("cluster (2 hosts, affinity policy)"), "{out}");
        assert!(out.contains("host-0:"), "{out}");
        // Deterministic: the same invocation renders byte-identically.
        assert_eq!(out, execute(&cmd, source).unwrap());
    }

    #[test]
    fn run_with_faults_reports_fault_columns() {
        let cmd = parse_args(&args(&[
            "run",
            "--sdl",
            "flow.json",
            "--mode",
            "jit",
            "--triggers",
            "3",
            "--fault-rate",
            "1.0",
            "--fault-seed",
            "5",
        ]))
        .unwrap();
        let out = execute(&cmd, source).unwrap();
        assert!(out.contains("faults  retries"), "{out}");
        assert!(out.contains("faults injected:"), "{out}");
        // Every triggered request still terminates under certain faults.
        assert!(out.matches("s  ").count() >= 3, "{out}");
        // And the same invocation is reproducible.
        let again = execute(&cmd, source).unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn run_surfaces_workflow_errors() {
        let cmd = parse_args(&args(&["run", "--sdl", "bad.json"])).unwrap();
        let err = execute(&cmd, |_| Ok("not json".into())).unwrap_err();
        assert!(matches!(err, CliError::Workflow(_)));
        let err = execute(&cmd, |_| Err("no such file".into())).unwrap_err();
        assert!(matches!(err, CliError::Workflow(_)));
    }

    #[test]
    fn help_text_via_execute() {
        let out = execute(&Command::Help, source).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn parse_export_flags() {
        let cmd = parse_args(&args(&[
            "run",
            "--sdl",
            "wf.json",
            "--trace-out",
            "trace.json",
            "--metrics-out",
            "metrics.json",
        ]))
        .unwrap();
        let Command::Run(run) = cmd else {
            panic!("expected run")
        };
        assert_eq!(run.trace_out.as_deref(), Some("trace.json"));
        assert_eq!(run.metrics_out.as_deref(), Some("metrics.json"));
        let Command::Run(defaults) = parse_args(&args(&["run", "--sdl", "wf.json"])).unwrap()
        else {
            panic!("expected run")
        };
        assert_eq!(defaults.trace_out, None);
        assert_eq!(defaults.metrics_out, None);
    }

    #[test]
    fn run_returns_requested_exports() {
        let cmd = parse_args(&args(&[
            "run",
            "--sdl",
            "flow.json",
            "--mode",
            "jit",
            "--triggers",
            "2",
            "--trace-out",
            "t.json",
            "--metrics-out",
            "m.json",
        ]))
        .unwrap();
        let (report, exports) = execute_with_exports(&cmd, source).unwrap();
        assert!(report.contains("mean overhead"));
        assert_eq!(exports.len(), 2);
        assert_eq!(exports[0].path, "t.json");
        assert!(exports[0].contents.contains("traceEvents"), "trace export");
        assert_eq!(exports[1].path, "m.json");
        assert!(exports[1].contents.contains("counters"), "metrics export");
        assert!(exports[1].contents.contains("requests.completed"));
        // Without the flags, no exports and an identical report.
        let bare = parse_args(&args(&[
            "run",
            "--sdl",
            "flow.json",
            "--mode",
            "jit",
            "--triggers",
            "2",
        ]))
        .unwrap();
        let (bare_report, bare_exports) = execute_with_exports(&bare, source).unwrap();
        assert!(bare_exports.is_empty());
        assert_eq!(report, bare_report, "exports must not perturb the report");
    }

    #[test]
    fn parse_analyze_and_diff() {
        let cmd = parse_args(&args(&[
            "analyze",
            "--sdl",
            "wf.json",
            "--mode",
            "cold",
            "--triggers",
            "4",
            "--audit-out",
            "audit.json",
        ]))
        .unwrap();
        let Command::Analyze(run) = cmd else {
            panic!("expected analyze")
        };
        assert_eq!(run.platform, PlatformChoice::Xanadu(ExecutionMode::Cold));
        assert_eq!(run.triggers, 4);
        assert_eq!(run.audit_out.as_deref(), Some("audit.json"));

        let cmd = parse_args(&args(&[
            "diff",
            "--baseline",
            "a.json",
            "--candidate",
            "b.json",
            "--max-p95-regress-pct",
            "2.5",
        ]))
        .unwrap();
        let Command::Diff(diff) = cmd else {
            panic!("expected diff")
        };
        assert_eq!(diff.baseline_path, "a.json");
        assert_eq!(diff.candidate_path, "b.json");
        assert_eq!(diff.thresholds.max_p95_regress_pct, 2.5);
        assert_eq!(
            diff.thresholds.max_recall_drop,
            DiffThresholds::default().max_recall_drop
        );

        assert!(matches!(
            parse_args(&args(&["diff", "--baseline", "a.json"])),
            Err(CliError::MissingFlag(_))
        ));
        assert!(matches!(
            parse_args(&args(&[
                "diff",
                "--baseline",
                "a",
                "--candidate",
                "b",
                "--max-recall-drop",
                "-1"
            ])),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn analyze_prints_audit_summary() {
        let cmd = parse_args(&args(&[
            "analyze",
            "--sdl",
            "flow.json",
            "--mode",
            "jit",
            "--triggers",
            "2",
        ]))
        .unwrap();
        let out = execute(&cmd, source).unwrap();
        assert!(out.contains("speculation audit — 2 requests"), "{out}");
        assert!(out.contains("critical path: exec"), "{out}");
        assert!(out.contains("MLP: precision"), "{out}");
        assert!(out.contains("JIT:"), "{out}");
        assert_eq!(out, execute(&cmd, source).unwrap(), "deterministic audit");
    }

    #[test]
    fn audit_export_matches_checked_in_schema() {
        let cmd = parse_args(&args(&[
            "analyze",
            "--sdl",
            "flow.json",
            "--mode",
            "spec",
            "--triggers",
            "2",
            "--audit-out",
            "audit.json",
        ]))
        .unwrap();
        let (_, exports) = execute_with_exports(&cmd, source).unwrap();
        assert_eq!(exports.len(), 1);
        let doc: serde_json::Value = serde_json::from_str(&exports[0].contents).unwrap();
        let schema: serde_json::Value =
            serde_json::from_str(include_str!("../../../docs/schemas/audit.schema.json")).unwrap();
        xanadu_platform::export::validate_schema(&doc, &schema).unwrap();
    }

    #[test]
    fn diff_accepts_equal_audits_and_flags_injected_regression() {
        let cmd = parse_args(&args(&[
            "analyze",
            "--sdl",
            "flow.json",
            "--mode",
            "cold",
            "--triggers",
            "2",
            "--audit-out",
            "base.json",
        ]))
        .unwrap();
        let (_, exports) = execute_with_exports(&cmd, source).unwrap();
        let base_text = exports[0].contents.clone();
        let mut worse: Audit = serde_json::from_str(&base_text).unwrap();
        worse.summary.end_to_end_ms.p95 *= 2.0;
        let worse_text = xanadu_platform::export::audit_json_string(&worse);
        let files = move |path: &str| -> Result<String, String> {
            match path {
                "base.json" => Ok(base_text.clone()),
                "cand.json" => Ok(worse_text.clone()),
                other => Err(format!("{other}: not found")),
            }
        };

        let same = parse_args(&args(&[
            "diff",
            "--baseline",
            "base.json",
            "--candidate",
            "base.json",
        ]))
        .unwrap();
        assert!(execute(&same, &files).unwrap().contains("no regressions"));

        let regressed = parse_args(&args(&[
            "diff",
            "--baseline",
            "base.json",
            "--candidate",
            "cand.json",
        ]))
        .unwrap();
        let err = execute(&regressed, &files).unwrap_err();
        let CliError::Regressions { details, .. } = &err else {
            panic!("expected regressions, got {err}")
        };
        assert!(
            details
                .iter()
                .any(|d| d.contains("$.summary.end_to_end_ms.p95")),
            "{details:?}"
        );
        // The rendered message carries the JSON path for CI logs.
        assert!(err.to_string().contains("$.summary.end_to_end_ms.p95"));

        // A generous threshold lets the same pair pass.
        let loose = parse_args(&args(&[
            "diff",
            "--baseline",
            "base.json",
            "--candidate",
            "cand.json",
            "--max-p95-regress-pct",
            "400",
        ]))
        .unwrap();
        assert!(execute(&loose, &files).unwrap().contains("no regressions"));
    }

    #[test]
    fn diff_rejects_mismatched_snapshot_kinds() {
        let audit_text = xanadu_platform::export::audit_json_string(&Audit::default());
        let files = move |path: &str| -> Result<String, String> {
            match path {
                "audit.json" => Ok(audit_text.clone()),
                "metrics.json" => Ok(r#"{"counters": {}, "histograms": {}}"#.into()),
                other => Err(format!("{other}: not found")),
            }
        };
        let cmd = parse_args(&args(&[
            "diff",
            "--baseline",
            "metrics.json",
            "--candidate",
            "metrics.json",
        ]))
        .unwrap();
        assert!(execute(&cmd, &files).unwrap().contains("no regressions"));
        let cmd = parse_args(&args(&[
            "diff",
            "--baseline",
            "audit.json",
            "--candidate",
            "metrics.json",
        ]))
        .unwrap();
        let err = execute(&cmd, &files).unwrap_err();
        assert!(err.to_string().contains("snapshot kinds differ"), "{err}");
    }

    #[test]
    fn validate_accepts_and_rejects() {
        let files = |path: &str| -> Result<String, String> {
            match path {
                "doc.json" => Ok(r#"{"n": 3}"#.into()),
                "schema.json" => Ok(r#"{"type": "object", "required": ["n"],
                        "properties": {"n": {"type": "integer"}},
                        "additionalProperties": false}"#
                    .into()),
                "bad.json" => Ok(r#"{"n": "three"}"#.into()),
                other => Err(format!("{other}: not found")),
            }
        };
        let ok = parse_args(&args(&[
            "validate",
            "--json",
            "doc.json",
            "--schema",
            "schema.json",
        ]))
        .unwrap();
        assert!(execute(&ok, files).unwrap().contains("valid"));
        let bad = parse_args(&args(&[
            "validate",
            "--json",
            "bad.json",
            "--schema",
            "schema.json",
        ]))
        .unwrap();
        let err = execute(&bad, files).unwrap_err();
        assert!(matches!(err, CliError::Workflow(_)), "{err}");
        assert!(matches!(
            parse_args(&args(&["validate", "--json", "doc.json"])),
            Err(CliError::MissingFlag(_))
        ));
    }
}
