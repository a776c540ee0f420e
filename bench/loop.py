"""The op loop of a worker, after its set-up: timed slices and traced passes.

`run` executes one slice of a timed run: ops from the plan, starting at
`first`, one in flight, until the slice's busy time reaches `seconds` and
at least `min_ops` ran, or the run's `stop_by` passes.  After each op and
its check it times the machine-speed gauge once (gauge.py).  `trace` runs the
plan's first `trace_ops` ops untraced and traced in turn.  Every op's output
is checked after its clock stopped.
"""

from __future__ import annotations

import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gauge
import load
import ops
import tracer as tracing

#: Untraced and traced passes alternate this many times in a traced run.
TRACE_ROUNDS = 3


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class OpTimeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise OpTimeout("op exceeded its time limit")


def timed_op(ctx, op, timeout: float, in_process_cli: bool = False):
    """(latency_s, ok, error) of one op; a raise or a timeout is a failure."""
    error = None
    out = None
    if "argv" in op and not in_process_cli:
        start = time.perf_counter()
        try:
            out = ops.run(ctx, op, timeout)
        except subprocess.TimeoutExpired:
            error = "timeout"
        latency = time.perf_counter() - start
    else:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        start = time.perf_counter()
        try:
            out = ops.run(ctx, op, timeout, in_process_cli)
        except Exception as exc:  # noqa: BLE001  (any raise fails the op)
            error = f"{type(exc).__name__}: {exc}"
        finally:
            latency = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    if error is None:
        try:
            ok = ops.check(ctx, op, out)
        except Exception as exc:  # noqa: BLE001
            ok, error = False, f"check raised {type(exc).__name__}: {exc}"
        if not ok and error is None:
            error = "output differs from the reference"
    return latency, error is None, error


def peak_rss_mib(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def _subprocess_ms(argv: list[str], root: str, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, cwd=root, env=ops.child_env(root), check=True,
                       capture_output=True, timeout=60)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def run(job: dict, ctx) -> dict:
    signal.signal(signal.SIGALRM, _alarm)
    op_list = ctx.plan["ops"]
    records = []
    busy = 0.0
    gauge_ms = []
    i = job["first"]
    while (busy < job["seconds"] or len(records) < job["min_ops"]) and monotonic() < job["stop_by"]:
        op = op_list[i % len(op_list)]
        latency, ok, error = timed_op(ctx, op, job["timeout"])
        gauge_ms.append(gauge.gauge_ms())
        busy += latency
        records.append([op["kind"], latency, ok, error])
        i += 1
    return {"records": records, "busy": busy, "gauge_ms": gauge_ms,
            "peak_rss_mib": peak_rss_mib(ctx.plan["workload"])}


def trace(job: dict, ctx) -> dict:
    signal.signal(signal.SIGALRM, _alarm)
    plan, root = ctx.plan, job["root"]
    chosen = plan["ops"][: job["trace_ops"]]
    in_process = plan["workload"] == "cli"
    records = []

    def one_pass(tracer=None) -> float:
        """Set-up plus op time in s; checks are not counted."""
        begin = monotonic()
        pass_ctx = load.setup(plan, root)
        busy = monotonic() - begin
        for op_id, op in enumerate(chosen):
            if tracer is not None:
                tracer.op_id = op_id
            latency, ok, error = timed_op(pass_ctx, op, job["timeout"], in_process)
            busy += latency
            records.append([op["kind"], latency, ok, error])
        return busy

    # Medians over rounds; calls and counts repeat exactly from round to round.
    untraced, traced, rounds = [], [], []
    for _ in range(TRACE_ROUNDS):
        untraced.append(one_pass())
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        traced.append(one_pass(tracer))
        uninstall()
        rounds.append(tracer.metrics())
    untraced, traced = statistics.median(untraced), statistics.median(traced)
    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    if in_process:
        python = sys.executable
        interpreter = _subprocess_ms([python, "-c", "pass"], root)
        imported = _subprocess_ms([python, "-c", "import cfkit.cli"], root)
        metrics["cli.interpreter_ms"] = interpreter
        metrics["cli.import_ms"] = imported - interpreter
    else:
        metrics["cli.interpreter_ms"] = 0.0
        metrics["cli.import_ms"] = 0.0
    metrics["trace.untraced_ms"] = untraced * 1e3
    metrics["trace.overhead_pct"] = (traced / untraced - 1) * 100
    tracing.write_spans(tracer, Path(job["spans"]))
    return {"records": records, "metrics": metrics, "spans": len(tracer.spans)}


MODES = {"run": run, "trace": trace}
