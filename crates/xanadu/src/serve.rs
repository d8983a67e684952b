//! The `xanadu serve` daemon tier: unbounded stream ingest with
//! incremental checkpointing and a live observability plane.
//!
//! `serve` turns the batch simulator into a long-running service. A
//! trigger stream (replayed from a `xanadu record` file or regenerated
//! from a seed) is consumed in fixed-size *epochs*; after each epoch the
//! full service state — streaming audit, SLO windows, learned chain
//! profiles and the stream cursor — is appended to a [`SegmentLog`] under
//! `--checkpoint-dir`. Killing the process between checkpoints loses
//! nothing that was durable: rerunning the same command replays the
//! manifest, resumes at the recorded cursor and produces
//! **byte-identical** final audit and alert exports, because every
//! epoch's platform is seeded from `derive(seed, "serve-epoch")
//! .child(epoch)` and never from wall-clock state. A rerun that differs
//! from the log in anything that shaped it is refused instead.
//!
//! Observability while running:
//!
//! * `--alerts-out` — every SLO breach appended as one schema-validated
//!   JSON line the moment its window becomes final (see
//!   [`SloMonitor::evaluate_below`] for why a window is only final once
//!   the next trigger time has passed it).
//! * `--metrics-text` — a Prometheus-style text exposition rewritten
//!   atomically (`.tmp` + rename) after every checkpoint.
//! * `--status-every K` — a human status line on stderr every K
//!   checkpoints (stream uptime, ingest rate, window quantiles, open
//!   alerts, checkpoint lag).
//!
//! Unlike the other subcommands, `serve` touches the filesystem
//! directly while running (the checkpoint log, the alerts stream and
//! the metrics text are *live* artifacts, not end-of-run exports); only
//! the final `--audit-out`/`--slo-out` documents go through the
//! staged-[`ExportFile`] path.

use std::io::Write as _;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::cli::{render_slo_alert, CliError, ExportFile};
use xanadu_chain::{linear_chain, FunctionSpec, WorkflowDag};
use xanadu_core::speculation::ExecutionMode;
use xanadu_platform::export::{
    alert_json_line, service_metrics_text, slo_json_string, streaming_json_string, ServiceStatus,
};
use xanadu_platform::{
    AuditCheckpoint, DiffThresholds, MetaStore, Platform, PlatformConfig, SegmentLog,
    SloCheckpoint, SloConfig, SloMonitor, StreamingAudit, StreamingConfig,
};
use xanadu_simcore::{fnv1a64_digest, RngStream, SimDuration, SimTime};
use xanadu_workloads::stream::{
    GeneratedStream, RecordedStream, StreamEvent, StreamHeader, StreamSource,
};

/// Arguments of `xanadu serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Path of a recorded stream file (`xanadu record`); when absent the
    /// stream is regenerated from the population fields below, which a
    /// recorded stream's header replaces (the CLI rejects their flags
    /// next to `--stream`).
    pub stream: Option<String>,
    /// Generated-stream length.
    pub events: u64,
    /// Generated-stream workflow population.
    pub workflows: u32,
    /// Linear-chain depth of every workflow.
    pub depth: u32,
    /// Per-workflow Poisson arrival rate.
    pub rate_per_hour: f64,
    /// Master seed: arrival processes and per-epoch platform seeds.
    pub seed: u64,
    /// Xanadu execution mode for every epoch platform.
    pub mode: ExecutionMode,
    /// Directory of the append-only checkpoint segment log.
    pub checkpoint_dir: String,
    /// Stream events per checkpoint epoch.
    pub checkpoint_every: u64,
    /// Append one JSON alert line here per SLO breach
    /// (`docs/schemas/alerts.schema.json`).
    pub alerts_out: Option<String>,
    /// Rewrite this Prometheus-style text file atomically each flush.
    pub metrics_text: Option<String>,
    /// Write the final streaming-audit JSON here.
    pub audit_out: Option<String>,
    /// Write the final windowed SLO evaluation JSON here.
    pub slo_out: Option<String>,
    /// Path of a `DiffThresholds` JSON document gating the SLO windows.
    pub slo: Option<String>,
    /// Tumbling SLO window width in simulated seconds.
    pub slo_window_secs: u64,
    /// Stop after this many checkpoints (0 = run to stream end). The
    /// kill-and-restart suites use this to pause at an exact boundary.
    pub stop_after_checkpoints: u64,
    /// Print a stderr status line every K checkpoints (0 = off).
    pub status_every: u64,
    /// Exit non-zero when the run ends with any SLO alert raised.
    pub fail_on_alert: bool,
}

/// Arguments of `xanadu record`.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordArgs {
    /// Destination stream file.
    pub out: String,
    /// Events to record.
    pub events: u64,
    /// Workflow population.
    pub workflows: u32,
    /// Linear-chain depth of every workflow.
    pub depth: u32,
    /// Per-workflow Poisson arrival rate.
    pub rate_per_hour: f64,
    /// Master seed.
    pub seed: u64,
}

/// Checkpoint-document ids inside the segment log. Every segment holds
/// all five, and a resume reads each of them.
const DOC_CURSOR: &str = "serve/cursor";
const DOC_AUDIT: &str = "serve/audit";
const DOC_SLO: &str = "serve/slo";
const SERVICE_DOCS: [&str; 3] = [DOC_CURSOR, DOC_AUDIT, DOC_SLO];
const LEARNED_DOCS: [&str; 2] = ["learned/metrics", "learned/branches"];

/// The [`ServeCursor`] format this build writes and resumes from. It
/// versions the whole log: version 3 is the first whose `serve/audit`
/// exemplar traces hold bus events, version 4 the first whose config
/// digest covers a [`PlatformConfig`] with a tenant count and without
/// the fault, autoscaler and discard parameters that became constants,
/// and version 5 the first whose exemplars keep the lifecycle fold's
/// timeline instead of a recorded trace, and whose config digest covers
/// fault settings without host lifetimes.
const CURSOR_VERSION: u64 = 5;

/// The resume cursor: where in the stream the durable state ends.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ServeCursor {
    /// Cursor format version ([`CURSOR_VERSION`]).
    version: u64,
    /// Digest of the stream header — resuming against a different
    /// stream (or epoch cadence) is a mechanical error, not a guess.
    header_digest: String,
    /// Digest of the resolved [`PlatformConfig`] every epoch is reseeded
    /// from, which `--mode` and `--seed` determine.
    config_digest: String,
    /// Epoch width the checkpoints were cut at.
    checkpoint_every: u64,
    /// Stream events durably consumed.
    events_consumed: u64,
    /// Requests completed across all epochs (the request-id base).
    requests: u64,
    /// Epochs completed.
    epochs: u64,
    /// Alerts emitted so far (sanity cross-check on resume).
    alerts_emitted: u64,
}

fn workflow_err(e: impl std::fmt::Display) -> CliError {
    CliError::Workflow(e.to_string())
}

/// The fnv1a64 digest of a document's compact JSON.
fn digest_of(doc: &impl Serialize) -> Result<String, CliError> {
    let json = serde_json::to_string(doc).map_err(workflow_err)?;
    Ok(fnv1a64_digest(json.as_bytes()))
}

/// Drains a stream source into its header and full event list.
///
/// # Errors
///
/// [`CliError::BadValue`] naming `--events` when the header's event
/// count cannot be held in memory.
fn drain_stream(mut src: impl StreamSource) -> Result<(StreamHeader, Vec<StreamEvent>), CliError> {
    let header = src.header().clone();
    let mut events = Vec::new();
    usize::try_from(header.events)
        .ok()
        .and_then(|n| events.try_reserve_exact(n).ok())
        .ok_or_else(|| CliError::BadValue {
            flag: "--events".into(),
            value: header.events.to_string(),
            expected: "a stream whose events fit in memory".into(),
        })?;
    while let Some(ev) = src.next_event() {
        events.push(ev);
    }
    Ok((header, events))
}

/// The seeded stream `record` writes and `serve` runs when it is given
/// no `--stream`: its header, workflow population and events. The
/// population is built first, so nothing is drawn for one that cannot
/// be held.
///
/// # Errors
///
/// [`CliError::BadValue`] naming `--workflows` or `--depth` when the
/// population cannot be held in memory, those of [`drain_stream`], and
/// one naming `--rate-per-hour` when the last trigger falls past
/// [`SimTime::LAST_TRIGGER`].
fn generated(
    events: u64,
    workflows: u32,
    depth: u32,
    rate_per_hour: f64,
    seed: u64,
) -> Result<(StreamHeader, Vec<WorkflowDag>, Vec<StreamEvent>), CliError> {
    let header = StreamHeader {
        version: 1,
        workflows,
        depth,
        rate_per_hour,
        seed,
        events,
    };
    let unbuildable = |e: PopulationError| CliError::BadValue {
        flag: format!("--{}", e.field),
        value: e.value.to_string(),
        expected: format!("a population that fits in memory ({})", e.reason),
    };
    let population = population(&header).map_err(unbuildable)?;
    let stream = GeneratedStream::from_header(header).map_err(|_| {
        unbuildable(PopulationError {
            field: "workflows",
            value: workflows.into(),
            reason: format!("the arrival processes of {workflows} workflows do not fit"),
        })
    })?;
    let (header, events) = drain_stream(stream)?;
    // Arrival times never decrease, so the last one is the latest.
    if let Some(last) = events.last().filter(|e| e.at() > SimTime::LAST_TRIGGER) {
        return Err(CliError::BadValue {
            flag: "--rate-per-hour".into(),
            value: header.rate_per_hour.to_string(),
            expected: format!(
                "a rate whose {} events end by {} µs, the last simulable trigger \
                 time (the last is drawn at {} µs)",
                events.len(),
                SimTime::LAST_TRIGGER.as_micros(),
                last.at_us
            ),
        });
    }
    Ok((header, population, events))
}

/// Runs `xanadu record`: generate the seeded stream and stage it as a
/// JSONL export.
pub fn run_record(record: &RecordArgs, exports: &mut Vec<ExportFile>) -> Result<String, CliError> {
    if record.workflows == 0 {
        return Err(CliError::BadValue {
            flag: "--workflows".into(),
            value: "0".into(),
            expected: "a non-empty workflow population".into(),
        });
    }
    // The population is built only to refuse one `serve` could not hold.
    let (header, _, events) = generated(
        record.events,
        record.workflows,
        record.depth,
        record.rate_per_hour,
        record.seed,
    )?;
    let contents = RecordedStream::render(&header, &events);
    let span_s = events.last().map_or(0.0, |e| e.at_us as f64 / 1e6);
    exports.push(ExportFile {
        path: record.out.clone(),
        contents,
    });
    Ok(format!(
        "recorded {} events — {} workflows × depth {} at {}/h each (seed {}), \
         spanning {span_s:.1}s of stream time\n",
        events.len(),
        header.workflows,
        header.depth,
        header.rate_per_hour,
        header.seed,
    ))
}

/// Everything `serve` accumulates across epochs.
struct ServiceState {
    audit: StreamingAudit,
    slo: SloMonitor,
    events_consumed: u64,
    request_base: u64,
    epoch: u64,
}

/// Checkpoint document `id` of the replayed store; a log that lacks it
/// is refused, never resumed around.
fn checkpoint_doc<'a>(durable: &'a MetaStore, dir: &str, id: &str) -> Result<&'a Value, CliError> {
    durable.get(id).map(|(doc, _)| doc).ok_or_else(|| {
        CliError::Workflow(format!(
            "checkpoint in {dir} has no `{id}` document; refusing to resume \
             from an incomplete log (point --checkpoint-dir at a fresh \
             directory to start over)"
        ))
    })
}

/// Deserializes checkpoint document `id` straight from its tree (no copy
/// of it is made).
fn parse_doc<T: Deserialize>(doc: &Value, id: &str) -> Result<T, CliError> {
    T::from_json(doc)
        .map_err(|e| CliError::Workflow(format!("checkpoint document {id} is corrupt: {e}")))
}

/// Loads the durable service state from a replayed checkpoint store of
/// `segments` segments, or builds the fresh epoch-zero state when the log
/// has none. A resume must match the log in everything that shaped it:
/// the stream and platform configuration (by digest), the epoch cadence,
/// and the SLO window and thresholds.
fn load_state(
    durable: &MetaStore,
    segments: u64,
    serve: &ServeArgs,
    slo_config: &SloConfig,
    header_digest: &str,
    config_digest: &str,
) -> Result<ServiceState, CliError> {
    if segments == 0 {
        return Ok(ServiceState {
            audit: StreamingAudit::new(StreamingConfig::default()),
            slo: SloMonitor::collector(slo_config.clone()),
            events_consumed: 0,
            request_base: 0,
            epoch: 0,
        });
    }
    let dir = &serve.checkpoint_dir;
    for id in LEARNED_DOCS {
        checkpoint_doc(durable, dir, id)?;
    }
    let cursor_doc = checkpoint_doc(durable, dir, DOC_CURSOR)?;
    let audit_doc = checkpoint_doc(durable, dir, DOC_AUDIT)?;
    let slo_doc = checkpoint_doc(durable, dir, DOC_SLO)?;
    let version = cursor_doc.get("version").and_then(Value::as_u64);
    if version != Some(CURSOR_VERSION) {
        let found = version.map_or("no version".to_string(), |v| format!("version {v}"));
        return Err(CliError::Workflow(format!(
            "checkpoint in {dir} has a cursor of {found}, but this build \
             resumes only version {CURSOR_VERSION}; point --checkpoint-dir \
             at a fresh directory"
        )));
    }
    let cursor: ServeCursor = parse_doc(cursor_doc, DOC_CURSOR)?;
    if cursor.header_digest != header_digest {
        return Err(CliError::Workflow(format!(
            "checkpoint in {dir} was recorded from a different stream \
             (header digest {} != {header_digest}); point --checkpoint-dir \
             at a fresh directory or replay the original stream",
            cursor.header_digest
        )));
    }
    if cursor.config_digest != config_digest {
        return Err(CliError::Workflow(format!(
            "checkpoint in {dir} was served under a different platform \
             configuration (config digest {} != {config_digest}); --mode \
             and --seed must match the run that wrote it",
            cursor.config_digest
        )));
    }
    if cursor.checkpoint_every != serve.checkpoint_every {
        return Err(CliError::Workflow(format!(
            "checkpoint in {dir} was cut every {} events but --checkpoint-every \
             is {}; epoch boundaries must match for a byte-identical resume",
            cursor.checkpoint_every, serve.checkpoint_every
        )));
    }
    let audit_cp: AuditCheckpoint = parse_doc(audit_doc, DOC_AUDIT)?;
    let slo_cp: SloCheckpoint = parse_doc(slo_doc, DOC_SLO)?;
    if slo_cp.window_us != slo_config.window.as_micros() {
        return Err(CliError::Workflow(format!(
            "checkpoint in {dir} has SLO windows of {}µs but --slo-window-secs \
             asks for {}µs; window widths must match to resume",
            slo_cp.window_us,
            slo_config.window.as_micros()
        )));
    }
    if slo_cp.thresholds != slo_config.thresholds {
        let render = |t: &DiffThresholds| serde_json::to_string(t).unwrap_or_default();
        return Err(CliError::Workflow(format!(
            "checkpoint in {dir} gates its SLO windows with {} but --slo \
             asks for {}; thresholds must match to resume",
            render(&slo_cp.thresholds),
            render(&slo_config.thresholds)
        )));
    }
    let slo = SloMonitor::from_checkpoint(&slo_cp);
    if slo.alerts().len() as u64 != cursor.alerts_emitted {
        return Err(CliError::Workflow(format!(
            "checkpoint in {dir} is inconsistent: its cursor counts {} emitted \
             alerts but its SLO document holds {}; refusing to resume from \
             a log whose documents disagree",
            cursor.alerts_emitted,
            slo.alerts().len()
        )));
    }
    Ok(ServiceState {
        audit: StreamingAudit::from_checkpoint(&audit_cp),
        slo,
        events_consumed: cursor.events_consumed,
        request_base: cursor.requests,
        epoch: cursor.epochs,
    })
}

/// A stream header field whose workflow population cannot be built.
struct PopulationError {
    /// `workflows` or `depth`.
    field: &'static str,
    value: u64,
    reason: String,
}

impl std::fmt::Display for PopulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "header {} {}: {}", self.field, self.value, self.reason)
    }
}

/// The stream's workflow population, built once per run: workflow `wf`
/// of the header is the linear chain `population[wf]`, named
/// `header.workflow_name(wf)`.
///
/// # Errors
///
/// A [`PopulationError`] naming `workflows` when the population cannot
/// be reserved, or `depth` when a chain cannot be built (it cannot be
/// held, or the depth is 0).
fn population(header: &StreamHeader) -> Result<Vec<WorkflowDag>, PopulationError> {
    let mut population = Vec::new();
    population
        .try_reserve_exact(header.workflows as usize)
        .map_err(|_| PopulationError {
            field: "workflows",
            value: header.workflows.into(),
            reason: format!("{} workflows do not fit in memory", header.workflows),
        })?;
    for wf in 0..header.workflows {
        let name = header.workflow_name(wf);
        let template = FunctionSpec::new(format!("{name}-f")).service_ms(400.0);
        let dag =
            linear_chain(name, header.depth as usize, &template).map_err(|e| PopulationError {
                field: "depth",
                value: header.depth.into(),
                reason: e.to_string(),
            })?;
        population.push(dag);
    }
    Ok(population)
}

/// Builds one epoch's platform: reseeded config, the full implicit
/// workflow population, and — after epoch 0 — the learned chain profiles
/// restored from the durable store.
fn epoch_platform(
    config: &PlatformConfig,
    population: &[WorkflowDag],
    durable: &MetaStore,
    epoch: u64,
    base_seed: u64,
) -> Result<Platform, CliError> {
    let epoch_seed = RngStream::derive(base_seed, "serve-epoch")
        .child(epoch)
        .next_u64();
    let mut platform = Platform::new(config.reseeded(epoch_seed));
    for dag in population {
        platform
            .deploy_implicit(dag.clone())
            .map_err(workflow_err)?;
    }
    if epoch > 0 {
        platform
            .restore_learned_state(durable)
            .map_err(workflow_err)?;
    }
    Ok(platform)
}

/// Atomically replaces `path` with `contents` (`.tmp` + rename, same
/// discipline as the checkpoint log) so scrapers never see a torn file.
fn rewrite_atomic(path: &str, contents: &str) -> Result<(), CliError> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents).map_err(|e| workflow_err(format!("{tmp}: {e}")))?;
    std::fs::rename(&tmp, path).map_err(|e| workflow_err(format!("{path}: {e}")))
}

/// Runs `xanadu serve` end to end. See the module docs for the epoch
/// protocol and which artifacts are live versus staged.
///
/// # Errors
///
/// [`CliError::Workflow`] on stream/checkpoint problems (a recorded
/// trigger past [`SimTime::LAST_TRIGGER`] names its stream line, and a
/// header whose population cannot be held names line 1),
/// [`CliError::BadValue`] naming `--rate-per-hour` when a generated
/// stream runs past that time or `--depth`/`--workflows` when its
/// population cannot be held, and [`CliError::SloBreach`] when
/// `--fail-on-alert` is set and the run ends with alerts raised. Every
/// stream error comes before the checkpoint directory is opened.
pub fn run_serve(
    serve: &ServeArgs,
    source: &impl Fn(&str) -> Result<String, String>,
    exports: &mut Vec<ExportFile>,
) -> Result<String, CliError> {
    let (header, population, events) = match &serve.stream {
        Some(path) => {
            let text = source(path).map_err(CliError::Workflow)?;
            let recorded = RecordedStream::parse(&text)
                .map_err(|e| CliError::Workflow(format!("{path}: {e}")))?;
            // The parsed events are all the run reads of the file.
            drop(text);
            let population = population(recorded.header())
                .map_err(|e| CliError::Workflow(format!("{path}: stream line 1: {e}")))?;
            let (header, events) = drain_stream(recorded)?;
            (header, population, events)
        }
        None => generated(
            serve.events,
            serve.workflows,
            serve.depth,
            serve.rate_per_hour,
            serve.seed,
        )?,
    };
    let header_digest = digest_of(&header)?;

    let thresholds: DiffThresholds = match &serve.slo {
        None => DiffThresholds::default(),
        Some(path) => {
            let text = source(path).map_err(CliError::Workflow)?;
            serde_json::from_str(&text).map_err(|e| {
                CliError::Workflow(format!("{path}: not a thresholds document: {e}"))
            })?
        }
    };
    let slo_config = SloConfig {
        window: SimDuration::from_secs(serve.slo_window_secs),
        thresholds,
    };
    let window_us = slo_config.window.as_micros();

    let config = PlatformConfig::builder()
        .for_mode(serve.mode, serve.seed)
        .record_traces(false)
        .build()
        .map_err(workflow_err)?;
    let config_digest = digest_of(&config)?;

    let log = SegmentLog::open(&serve.checkpoint_dir)
        .map_err(|e| workflow_err(format!("checkpoint log: {e}")))?;
    let mut durable = log
        .replay()
        .map_err(|e| workflow_err(format!("checkpoint log: {e}")))?;
    let mut segments = log
        .manifest()
        .map_err(|e| workflow_err(format!("checkpoint log: {e}")))?
        .segments
        .len() as u64;

    let mut state = load_state(
        &durable,
        segments,
        serve,
        &slo_config,
        &header_digest,
        &config_digest,
    )?;
    // From here on `durable` carries only the learned documents between
    // epochs; the service documents now live in `state`.
    for id in SERVICE_DOCS {
        durable.delete(id);
    }

    // The alerts stream is rewritten to exactly the durable alert list on
    // startup: a crash after an append but before the matching checkpoint
    // must not leave phantom lines behind.
    if let Some(path) = &serve.alerts_out {
        let mut text = String::new();
        for alert in state.slo.alerts() {
            text.push_str(&alert_json_line(alert));
            text.push('\n');
        }
        std::fs::write(path, text).map_err(|e| workflow_err(format!("{path}: {e}")))?;
    }

    let total = events.len() as u64;
    let started = Instant::now();
    let start_events = state.events_consumed;
    let mut checkpoints_this_run = 0u64;

    while state.events_consumed < total {
        if serve.stop_after_checkpoints > 0 && checkpoints_this_run >= serve.stop_after_checkpoints
        {
            break;
        }
        let slice_end = (state.events_consumed + serve.checkpoint_every).min(total);
        let slice = &events[state.events_consumed as usize..slice_end as usize];

        let mut platform = epoch_platform(&config, &population, &durable, state.epoch, serve.seed)?;
        let audit_handle =
            platform.attach_observer(StreamingAudit::new(StreamingConfig::default()));
        let slo_handle = platform.attach_observer(SloMonitor::collector(slo_config.clone()));

        for ev in slice {
            platform
                .trigger_at(population[ev.wf as usize].name(), ev.at())
                .map_err(workflow_err)?;
        }
        platform.run_until_idle();
        platform.roll_profile_window();

        let mut epoch_audit = audit_handle.snapshot();
        epoch_audit.offset_requests(state.request_base);
        state.request_base += epoch_audit.summary().requests;
        state.audit.merge_from(&epoch_audit);
        state.slo.merge_from(&slo_handle.snapshot());
        state.events_consumed = slice_end;
        state.epoch += 1;

        // A tumbling window is only final once every future completion
        // must land past it: the next epoch's first trigger bounds all of
        // its completions from below.
        let horizon = if state.events_consumed < total {
            events[state.events_consumed as usize].at_us / window_us
        } else {
            u64::MAX
        };
        let fresh_alerts = state.slo.evaluate_below(horizon);
        if !fresh_alerts.is_empty() {
            if let Some(path) = &serve.alerts_out {
                let mut file = std::fs::OpenOptions::new()
                    .append(true)
                    .create(true)
                    .open(path)
                    .map_err(|e| workflow_err(format!("{path}: {e}")))?;
                for alert in &fresh_alerts {
                    writeln!(file, "{}", alert_json_line(alert))
                        .map_err(|e| workflow_err(format!("{path}: {e}")))?;
                }
            }
        }

        platform.persist_learned_state();
        for id in LEARNED_DOCS {
            if let Some((doc, _)) = platform.metastore().get(id) {
                durable.put(id, doc.clone());
            }
        }
        let cursor = ServeCursor {
            version: CURSOR_VERSION,
            header_digest: header_digest.clone(),
            config_digest: config_digest.clone(),
            checkpoint_every: serve.checkpoint_every,
            events_consumed: state.events_consumed,
            requests: state.request_base,
            epochs: state.epoch,
            alerts_emitted: state.slo.alerts().len() as u64,
        };
        // The documents are borrowed as typed values and write themselves
        // straight into the segment file (`SegmentLog::append`).
        let audit_cp = state.audit.checkpoint();
        let slo_cp = state.slo.checkpoint();
        let mut docs: Vec<(String, &dyn Serialize)> = Vec::with_capacity(5);
        for id in LEARNED_DOCS {
            if let Some((doc, _)) = durable.get(id) {
                docs.push((id.to_string(), doc));
            }
        }
        docs.push((DOC_AUDIT.to_string(), &audit_cp));
        docs.push((DOC_SLO.to_string(), &slo_cp));
        docs.push((DOC_CURSOR.to_string(), &cursor));
        log.append(&docs)
            .map_err(|e| workflow_err(format!("checkpoint log: {e}")))?;
        checkpoints_this_run += 1;
        segments += 1;

        let summary = state.audit.summary();
        let wall = started.elapsed().as_secs_f64();
        let ingested = state.events_consumed - start_events;
        let status = ServiceStatus {
            uptime_ms: events[state.events_consumed as usize - 1].at_us as f64 / 1000.0,
            events: state.events_consumed,
            requests: state.request_base,
            checkpoints: state.epoch,
            alerts: state.slo.alerts().len() as u64,
            checkpoint_lag_events: total - state.events_consumed,
            events_per_sec: if wall > 0.0 {
                ingested as f64 / wall
            } else {
                0.0
            },
        };
        if serve.status_every > 0 && checkpoints_this_run.is_multiple_of(serve.status_every) {
            eprintln!(
                "serve: epoch {} | stream {:.1}s | {}/{} events | {:.0} ev/s | \
                 p50 {:.0}ms p95 {:.0}ms | alerts {} | lag {}",
                state.epoch - 1,
                status.uptime_ms / 1000.0,
                status.events,
                total,
                status.events_per_sec,
                summary.end_to_end.quantile_ms(0.5),
                summary.end_to_end.quantile_ms(0.95),
                status.alerts,
                status.checkpoint_lag_events,
            );
        }
        if let Some(path) = &serve.metrics_text {
            rewrite_atomic(path, &service_metrics_text(&status, &summary))?;
        }
    }

    let summary = state.audit.summary();
    let slo_report = state.slo.report();
    let audit_json = streaming_json_string(&state.audit);
    let audit_digest = fnv1a64_digest(audit_json.as_bytes());
    let wall = started.elapsed().as_secs_f64();
    let ingested = state.events_consumed - start_events;
    let events_per_sec = if wall > 0.0 {
        ingested as f64 / wall
    } else {
        0.0
    };

    let mut out = format!(
        "service — {} workflows × depth {}, {} stream events ({}, seed {}, \
         checkpoint every {})\n",
        header.workflows,
        header.depth,
        total,
        serve.mode.label(),
        serve.seed,
        serve.checkpoint_every,
    );
    out.push_str(&format!(
        "stream: {}\n",
        match &serve.stream {
            Some(path) => format!("recorded from {path}"),
            None => format!("generated at {}/h per workflow", header.rate_per_hour),
        }
    ));
    out.push_str(&format!(
        "ingested: {}/{} events in {} epoch(s) ({} checkpoint(s) this run), \
         wall {wall:.2}s, {events_per_sec:.0} events/sec\n",
        state.events_consumed, total, state.epoch, checkpoints_this_run,
    ));
    out.push_str(&format!(
        "requests: {}   p50 {:.0}ms   p95 {:.0}ms   p99.9 {:.0}ms\n",
        summary.requests,
        summary.end_to_end.quantile_ms(0.5),
        summary.end_to_end.quantile_ms(0.95),
        summary.end_to_end.quantile_ms(0.999),
    ));
    out.push_str(&format!(
        "slo: {} window(s) of {}s, {} alert(s)\n",
        slo_report.windows.len(),
        serve.slo_window_secs,
        state.slo.alerts().len(),
    ));
    out.push_str(&format!(
        "checkpoints: {} segment(s) in {}\n",
        segments, serve.checkpoint_dir,
    ));
    if state.events_consumed < total {
        out.push_str(&format!(
            "paused after {checkpoints_this_run} checkpoint(s): {}/{} events \
             durable — rerun the same command to resume\n",
            state.events_consumed, total,
        ));
    }
    out.push_str(&format!("audit digest: {audit_digest}\n"));

    if let Some(path) = &serve.audit_out {
        exports.push(ExportFile {
            path: path.clone(),
            contents: audit_json,
        });
    }
    if let Some(path) = &serve.slo_out {
        exports.push(ExportFile {
            path: path.clone(),
            contents: slo_json_string(&slo_report),
        });
    }

    if serve.fail_on_alert && !state.slo.alerts().is_empty() {
        return Err(CliError::SloBreach {
            windows: slo_report.windows.len(),
            details: state.slo.alerts().iter().map(render_slo_alert).collect(),
            exports: std::mem::take(exports),
        });
    }
    Ok(out)
}
