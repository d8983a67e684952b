#!/usr/bin/env python3
"""Benchmark driver for the Xanadu reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-replay --seed 42 --seconds 10 --trace 0

It builds `xanadu_cli` and the `perfbench-harness` package from source
(into $CARGO_TARGET_DIR, default `.bench_build`), then, inside a fresh
scratch directory under `.bench_work/` that it deletes afterwards:

* `--trace 0` alternates, until `--seconds` have passed, a run of the
  user-facing command (wall time, peak RSS, printed digests) with an
  in-process repetition of the same workload (setup time, entry-call
  throughput, digests). A once-per-run check adds the shard-width /
  epoch-drive comparison and the deterministic simulated metrics.
* `--trace 1` repeats the traced per-layer run and prints the ledger.

Every output check runs on every repetition; a failed check counts the
repetition's invocations as failed. The last stdout line is the JSON
result; the lines above it are a human-readable summary. See
perfbench/README.md for the metric dictionary.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREADS = min(2, len(os.sched_getaffinity(0)))
MIN_REPS = 3
# `setup_s` is reported in seconds at the machine speed where the harness's
# fixed `reference_work` takes this long (its fast-state time on the 2-vCPU
# VM the benchmark was built on).
REFERENCE_S = 125e-6

# End-to-end metrics (--trace 0): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_overhead_p50_ms": "sim-ms",
    "sim_overhead_p99_ms": "sim-ms",
    "cold_start_rate": "ratio",
}
SIMULATED = ["sim_overhead_p50_ms", "sim_overhead_p99_ms", "cold_start_rate"]
# Host-time figures printed in the summary but left out of the JSON: on a
# shared VM their medians move by up to 2x between sets of runs (see
# perfbench/README.md, "Host time").
HOST_TIME = {"wall_s": "s", "invocations_per_s": "1/s", "resume_s": "s"}

# Per-layer metrics (--trace 1): name -> unit. Times here are measured on
# every workload; counters read 0 where a workload bypasses the layer.
PER_LAYER = {
    "workloads.generate_s": "s",
    "sim.build_s": "s",
    "sim.trigger_s": "s",
    "sim.drive_s": "s",
    "sim.finish_s": "s",
    "sim.ns_per_event": "ns",
    "sim.events": "count",
    "sim.events_per_inv": "ratio",
    "shard.windows": "count",
    "shard.thread_imbalance": "ratio",
    "events.queue_peak": "count",
    "events.probe_ns_per_op": "ns",
    "policy.plans": "count",
    "policy.mispredictions": "count",
    "policy.plan_cache_hit_rate": "ratio",
    "policy.mlp_recall": "ratio",
    "policy.probe_ns_per_plan": "ns",
    "pool.functions_invoked": "count",
    "pool.cold_starts": "count",
    "pool.warm_starts": "count",
    "pool.workers_provisioned": "count",
    "pool.workers_on_demand": "count",
    "pool.speculative_hit_ratio": "ratio",
    "pool.wasted_cpu_ms_per_inv": "sim-ms",
    "pool.probe_ns_per_dispatch": "ns",
    "hosts.placements": "count",
    "hosts.failed": "count",
    "hosts.cross_host_cold": "count",
    "hosts.same_host_cold": "count",
    "hosts.probe_ns_per_place": "ns",
    "analysis.probe_ns_per_request": "ns",
    "faults.crashes": "count",
    "faults.retries": "count",
    "bus.events_published": "count",
    "bus.deliveries": "count",
    "stream.merge_s": "s",
    "stream.slo_windows": "count",
    "metastore.segments": "count",
    "metastore.segment_bytes_last": "bytes",
    "metastore.bytes_total": "bytes",
    "serve.epochs": "count",
    "export.encode_s": "s",
    "export.bytes": "bytes",
    "harness.suite_s": "s",
    "harness.experiment_max_s": "s",
    "harness.parallel_efficiency": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.counter_s": "s",
    "trace.overhead_s": "s",
    "unattributed_s": "s",
}

# Ledger-only timings: printed in the table (as "idle" on workloads that
# bypass the layer), absent from the JSON because on those workloads the
# value would be a constant 0.
LEDGER_ONLY = {
    "shard.barrier_wait_s": "s",
    "shard.merge_s": "s",
    "bus.observer_s": "s",
    "bus.ns_per_delivery": "ns",
    "stream.checkpoint_encode_s": "s",
    "serve.epoch_rebuild_ms": "ms",
    "metastore.append_ms_p50": "ms",
    "metastore.append_ms_max": "ms",
    "metastore.replay_s": "s",
    "export.report_encode_s": "s",
    "analysis.audit_s": "s",
    "export.audit_encode_s": "s",
}

# Counters that are pure functions of the seed: every traced run of one
# invocation must repeat them exactly.
DETERMINISTIC = {name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")} | {
    "sim.events_per_inv", "policy.plan_cache_hit_rate", "policy.mlp_recall",
    "pool.speculative_hit_ratio", "pool.wasted_cpu_ms_per_inv",
}


def replay_args(invocations, extra):
    def build(seed, work, tag):
        args = ["replay", "--invocations", str(invocations), "--seed", str(seed)]
        for flag in extra:
            args.append(flag.format(work=work, tag=tag, threads=THREADS))
        return args
    return build


def serve_args(seed, work, tag):
    return ["serve", "--events", "40000", "--checkpoint-every", "5000", "--seed", str(seed),
            "--checkpoint-dir", os.path.join(work, f"ckpt-{tag}")]


WORKLOADS = {
    "fleet-replay": replay_args(20000, ["--shards", "{threads}"]),
    "chaos-cluster-replay": replay_args(20000, [
        "--shards", "1", "--policy", "mpc", "--hosts", "4", "--placement", "affinity",
        "--tenants", "2", "--fault-rate", "0.05", "--host-fail-rate", "0.01",
        "--audit-out", "{work}/audit-{tag}.json", "--metrics-out", "{work}/metrics-{tag}.json",
    ]),
    "service-stream": serve_args,
}


class BenchError(Exception):
    """A build or run failure: the benchmark exits non-zero without a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"fnv1a64:{h:016x}"


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Builds the CLI and the harness; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "xanadu", "--bin", "xanadu_cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "xanadu_cli"), os.path.join(release, "perfbench-harness")


def run_cli(cli, args, work):
    """Runs the user-facing command, measuring wall time and peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen([cli] + args, cwd=work, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return {"exit": proc.returncode, "stdout": out.decode(), "wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024.0}


def harness(binary, mode, args, work):
    done = subprocess.run([binary, mode, work] + args, cwd=work, capture_output=True, text=True)
    if done.returncode != 0:
        return None, done.stderr.strip()
    return json.loads(done.stdout.strip().splitlines()[-1]), ""


def printed(stdout, prefix):
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def cli_requests(stdout):
    """Completed requests as the command printed them."""
    value = printed(stdout, "requests:")
    return int(value.split()[0]) if value else 0


class Tally:
    """Attempted/failed invocations and the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, invocations, completed, problems):
        self.attempted += invocations
        missing = max(0, invocations - completed)
        self.failed += invocations if problems else missing
        self.problems.extend(problems)


def run_check(workload, seed, binary, work, tally):
    """The once-per-run check (other shard width, or serve's epochs driven
    again); its digest is the one every later run must reproduce."""
    check, err = harness(binary, "check", WORKLOADS[workload](seed, work, "check"), work)
    if check is None:
        raise BenchError(f"check run failed: {err}")
    tally.add(int(check["invocations"]), int(check["completed"]), [])
    digest_key = "audit_digest" if workload == "service-stream" else "report_digest"
    return check, digest_key


def measure(workload, seed, seconds, cli, binary, work):
    """--trace 0: alternate the command and in-process repetitions."""
    make_args = WORKLOADS[workload]
    serve = workload == "service-stream"
    tally = Tally()
    check, digest_key = run_check(workload, seed, binary, work, tally)
    expected = check[digest_key]
    expected_audit = check.get("audit_digest")

    walls, rss, setups, raw_setups, rates, resumes = [], [], [], [], [], []
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep < MIN_REPS or time.perf_counter() < deadline:
        rep += 1
        problems = []
        args = make_args(seed, work, f"cli{rep}")
        run = run_cli(cli, args, work)
        walls.append(run["wall_s"])
        rss.append(run["rss_mb"])
        if run["exit"] != 0:
            problems.append(f"rep {rep}: command exited {run['exit']}")
        if serve:
            got = printed(run["stdout"], "audit digest:")
            resumed = run_cli(cli, args, work)
            resumes.append(resumed["wall_s"])
            if printed(resumed["stdout"], "audit digest:") != expected or \
                    "(0 checkpoint(s) this run)" not in resumed["stdout"]:
                problems.append(f"rep {rep}: resume did not reproduce the served audit")
            shutil.rmtree(args[args.index("--checkpoint-dir") + 1], ignore_errors=True)
        else:
            got = printed(run["stdout"], "report digest:")
            if expected_audit is not None:
                path = args[args.index("--audit-out") + 1]
                try:
                    with open(path, "rb") as f:
                        if fnv1a64(f.read()) != expected_audit:
                            problems.append(f"rep {rep}: --audit-out digest differs")
                except OSError as e:
                    problems.append(f"rep {rep}: --audit-out unreadable: {e}")
                for flag in ("--audit-out", "--metrics-out"):
                    with contextlib.suppress(OSError):
                        os.remove(args[args.index(flag) + 1])
        if got != expected:
            problems.append(f"rep {rep}: command digest {got} != {expected}")
        invocations = int(check["invocations"])
        tally.add(invocations, cli_requests(run["stdout"]), problems)

        problems = []
        args = make_args(seed, work, f"rep{rep}")
        result, err = harness(binary, "rep", args, work)
        if serve:
            shutil.rmtree(args[args.index("--checkpoint-dir") + 1], ignore_errors=True)
        if result is None:
            tally.add(invocations, 0, [f"rep {rep}: in-process run failed: {err}"])
            continue
        # Each set-up ran between two runs of a fixed reference workload;
        # their ratio does not change when the machine's speed does.
        setups.extend(s / r for s, r in zip(result["setup_s"], result["reference_s"]))
        raw_setups.extend(result["setup_s"])
        rates.append(result["completed"] / result["entry_s"])
        if result[digest_key] != expected:
            problems.append(f"rep {rep}: in-process digest differs")
        for name in SIMULATED:
            if name in result and result[name] != check[name]:
                problems.append(f"rep {rep}: {name} not deterministic")
        tally.add(int(result["invocations"]), int(result["completed"]), problems)

    if not rates:
        raise BenchError("every in-process repetition failed")
    values = {"setup_s": statistics.median(setups) * REFERENCE_S,
              "peak_rss_mb": statistics.median(rss)}
    for name in SIMULATED:
        values[name] = check[name]
    lines = [f"perfbench {workload}: seed {seed}, {rep} repetitions in {seconds}s, "
             f"{THREADS} thread(s) max",
             f"  {'setup_s':<24} {values['setup_s']:>14.6g} s      "
             f"(median of {len(setups)} set-ups, in reference time; raw median "
             f"{statistics.median(raw_setups):.6g} s)",
             f"  {'peak_rss_mb':<24} {values['peak_rss_mb']:>14.6g} MB     "
             f"(median of {len(rss)})"]
    for name in SIMULATED:
        lines.append(f"  {name:<24} {values[name]:>14.6g} {END_TO_END[name]:<6} (simulated)")
    lines.append(f"  {'wasted_cpu_ms_per_inv':<24} {check['wasted_cpu_ms_per_inv']:>14.6g} sim-ms "
                 "(simulated; in the traced run's JSON as pool.wasted_cpu_ms_per_inv)")
    host = {"wall_s": walls, "invocations_per_s": rates, "resume_s": resumes}
    for name, samples in host.items():
        if samples:
            lines.append(f"  {name:<24} {statistics.median(samples):>14.6g} "
                         f"{HOST_TIME[name]:<6} (host time, not in the JSON: median of "
                         f"{len(samples)}, min {min(samples):.6g}, max {max(samples):.6g})")
    return values, END_TO_END, tally, lines


def trace(workload, seed, seconds, binary, work):
    """--trace 1: repeat the traced run; medians of timings, exact counters."""
    make_args = WORKLOADS[workload]
    tally = Tally()
    check, digest_key = run_check(workload, seed, binary, work, tally)
    runs = []
    attempts = 0
    deadline = time.perf_counter() + seconds
    while attempts < 2 or time.perf_counter() < deadline:
        attempts += 1
        tag = f"trace{attempts}"
        args = make_args(seed, work, tag)
        result, err = harness(binary, "trace", args, work)
        if "--checkpoint-dir" in args:
            shutil.rmtree(args[args.index("--checkpoint-dir") + 1], ignore_errors=True)
        if result is None:
            tally.add(int(check["invocations"]), 0, [f"{tag}: traced run failed: {err}"])
            continue
        result["pool.wasted_cpu_ms_per_inv"] = check["wasted_cpu_ms_per_inv"]
        problems = []
        if result.get(digest_key) != check[digest_key]:
            problems.append(f"{tag}: {digest_key} differs from the check run")
        if runs:
            for name in DETERMINISTIC:
                if result.get(name, 0.0) != runs[0].get(name, 0.0):
                    problems.append(f"{tag}: {name} differs between traced runs")
        tally.add(int(result["invocations"]), int(result["completed"]), problems)
        runs.append(result)

    if not runs:
        raise BenchError("every traced run failed")

    def value(name):
        present = [r[name] for r in runs if name in r]
        return statistics.median(present) if present else None

    values = {name: value(name) or 0.0 for name in PER_LAYER}
    lines = [f"perfbench {workload} traced: seed {seed}, {len(runs)} traced runs "
             f"(medians), {THREADS} thread(s) max",
             f"  traced wall {values['trace.wall_s']:.4f}s vs untraced "
             f"{value('trace.untraced_s'):.4f}s: trace.overhead_s "
             f"{values['trace.overhead_s']:.4f}, unattributed_s {values['unattributed_s']:.4f}"]
    layer = None
    for name, unit in sorted({**PER_LAYER, **LEDGER_ONLY}.items()):
        head = name.split(".")[0]
        if head != layer:
            layer = head
            lines.append(f"  [{layer}]")
        v = value(name)
        shown = "idle" if v is None else f"{v:.6g}"
        note = "" if name in PER_LAYER else "  (ledger only)"
        lines.append(f"    {name:<30} {shown:>14} {unit}{note}")
    return values, PER_LAYER, tally, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    try:
        cli, binary = build()
        os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
        work = tempfile.mkdtemp(prefix=f"{opts.workload}-", dir=os.path.join(ROOT, ".bench_work"))
        try:
            if opts.trace:
                values, units, tally, lines = trace(
                    opts.workload, opts.seed, opts.seconds, binary, work)
            else:
                values, units, tally, lines = measure(
                    opts.workload, opts.seed, opts.seconds, cli, binary, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(os.path.join(ROOT, ".bench_work"))
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    for line in lines:
        print(line)
    for problem in tally.problems:
        print(f"  check failed: {problem}")
    print(f"  invocations attempted {tally.attempted}, failed {tally.failed}")
    print(json.dumps({
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
