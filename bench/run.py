"""cfkit benchmark: one workload, one seed, every metric with its unit.

Run from the root of a cfkit checkout:

    python3 bench/run.py --workload fold --seed 1 --seconds 20 --trace 0

Workloads: fold, closed-form, recognize, cli (see bench/README.md).  The
plan is drawn from --seed.  Six worker processes, one after another, each
set up from it (a set-up sample) and run the next slice of its ops in a
closed loop, one op in flight, until together their busy time reaches
--seconds and at least 100 ops have run; a set-up-only worker follows each
slice (another sample).  Every op's output is checked against the
benchmark's own references, outside the timed part.  Times are reported
scaled to the machine-speed gauge's reference (gauge.py), raw values on a
line of their own.  With --trace 1 the same seed's first ops run untraced
and traced in turn, and the per-layer metrics are printed instead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (name -> value and unit).  Lines before it are the human report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gauge  # noqa: E402
import ops  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: Worker processes a timed run is split into.  Each sets up (one set-up
#: sample), runs its share of the ops, and is followed by a set-up-only
#: worker (another sample), so set-up is sampled all through the run.
SLICES = 6
#: Fewest ops in a timed run, so that 10 samples lie beyond the p90.
MIN_OPS = 100
#: Ops of the fixed prefix that a traced run executes, per workload.
TRACE_OPS = {"fold": 48, "closed-form": 32, "recognize": 32, "cli": 16}
#: Per-op time limit in s; a slower op is stopped and counts as failed.
OP_TIMEOUT = {"fold": 20, "closed-form": 20, "recognize": 20, "cli": 30}
#: No op starts this long after a timed run started, in s.
DEADLINE = 120


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn_worker(root: Path, job: dict, timeout: float) -> tuple[float, dict]:
    """Start a worker, send it the job, return (start time, its JSON result)."""
    argv = [sys.executable, str(HERE / "worker.py")]
    start = monotonic()
    proc = subprocess.Popen(argv, cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps({"root": str(root), **job}), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{job['mode']} worker did not finish within {timeout} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{job['mode']} worker exited {proc.returncode}:\n{err.strip()}")
    return start, json.loads(out.strip().splitlines()[-1])


def percentile_rank(count: int, share: float) -> int:
    """Nearest-rank index (0-based) of the `share` percentile."""
    return max(0, math.ceil(share * count) - 1)


def latency_metrics(records: list, timeout_s: float) -> tuple[float, float, int]:
    """p50 and p90 in ms, a failed op ranking above every latency.

    A failed op counts as taking the per-op limit, so a percentile that
    lands on a failure reads as that limit.
    """
    ms = sorted(lat * 1e3 if ok else math.inf for _kind, lat, ok, _err in records)
    capped = [min(x, timeout_s * 1e3) for x in ms]
    return statistics.median(capped), capped[percentile_rank(len(ms), 0.9)], len(ms)


def run_timed(args, root: Path, plan: dict, report) -> dict:
    setup_samples, records, busy, gauges, rss = [], [], 0.0, [], 0.0

    def setup_sample(job: dict, timeout: float) -> dict:
        """Spawn a worker; keep its set-up time with the gauge timed just before."""
        before = gauge.gauge_ms()
        start, res = spawn_worker(root, job, timeout)
        setup_samples.append((res["ready"] - start, before))
        return res

    stop_by = monotonic() + DEADLINE
    for left in range(SLICES, 0, -1):
        job = {"mode": "run", "plan": plan, "first": len(records),
               "seconds": (args.seconds - busy) / left,
               "min_ops": math.ceil((MIN_OPS - len(records)) / left),
               "stop_by": stop_by, "timeout": OP_TIMEOUT[args.workload]}
        res = setup_sample(job, max(stop_by - monotonic(), 0) + 60)
        records += res["records"]
        busy += res["busy"]
        gauges += res["gauge_ms"]
        rss = max(rss, res["peak_rss_mib"])
        setup_sample({"mode": "setup", "plan": plan}, 60)

    failed = [r for r in records if not r[2]]
    correct = len(records) - len(failed)
    p50, p90, n = latency_metrics(records, OP_TIMEOUT[args.workload])
    raw_setup = statistics.median(s for s, _g in setup_samples)
    # Times scaled to the gauge's reference speed (gauge.py): ops by the
    # run's mean gauge time, each set-up sample by the gauge timed next to it.
    scale = gauge.REF_MS / statistics.fmean(gauges)
    metrics = {
        "ops_per_s": correct / busy / scale,
        "op_p50_ms": p50 * scale,
        "op_p90_ms": p90 * scale,
        "setup_s": statistics.median(s * gauge.REF_MS / g for s, g in setup_samples),
        "peak_rss_mib": rss,
    }
    report(f"ops: {len(records)} attempted, {correct} correct, busy {busy:.3f} s over {SLICES} worker processes")
    report(f"percentiles over {n} samples: p50 rank {percentile_rank(n, 0.5) + 1}, "
           f"p90 rank {percentile_rank(n, 0.9) + 1} ({n - percentile_rank(n, 0.9) - 1} beyond)")
    report(f"gauge: mean {statistics.fmean(gauges):.4f} ms over {len(gauges)} samples "
           f"(reference {gauge.REF_MS} ms); times below are scaled by {scale:.4f}")
    report(f"raw wall-clock values: ops_per_s {correct / busy:.4f}, op_p50_ms {p50:.4f}, "
           f"op_p90_ms {p90:.4f}, setup_s {raw_setup:.5f}")
    report(f"setup samples (s, gauge ms), median of {len(setup_samples)}: "
           f"{', '.join(f'{s:.4f}/{g:.2f}' for s, g in setup_samples)}")
    report(f"error_rate: {len(failed)}/{len(records)} = {len(failed) / len(records):.4f} (failed/attempted)")
    by_kind = {}
    for kind, lat, ok, _err in records:
        by_kind.setdefault(kind, []).append(lat * 1e3)
    for kind, lats in sorted(by_kind.items()):
        report(f"  kind {kind:10s} n={len(lats):4d} raw median {statistics.median(lats):9.2f} ms")
    for kind, _lat, _ok, err in failed[:10]:
        report(f"  FAILED {kind}: {err}")
    return {"records": records, "failed": len(failed), "metrics": metrics,
            "units": END_TO_END}


def run_traced(args, root: Path, plan: dict, report) -> dict:
    spans = root / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    job = {"mode": "trace", "plan": plan, "trace_ops": TRACE_OPS[args.workload],
           "timeout": OP_TIMEOUT[args.workload], "spans": str(spans)}
    _start, res = spawn_worker(root, job, 170)
    records = res["records"]
    failed = [r for r in records if not r[2]]
    report(f"{len(records)} ops over untraced and traced passes; "
           f"{res['spans']} spans of the last traced pass written to {spans.relative_to(root)}")
    for kind, _lat, _ok, err in failed[:10]:
        report(f"  FAILED {kind}: {err}")
    return {"records": records, "failed": len(failed), "metrics": res["metrics"],
            "units": tracer.metric_units()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15, help="busy time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cfkit" / "__init__.py").is_file():
        print(f"error: {root} is not a cfkit checkout (no src/cfkit); run from its root",
              file=sys.stderr)
        return 2

    def report(line: str) -> None:
        print(line, flush=True)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": commit(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }
    plan = workloads.plan(args.workload, args.seed)
    try:
        if args.trace:
            result = run_traced(args, root, plan, report)
        else:
            result = run_timed(args, root, plan, report)
            if args.workload == "cli":
                known_defect_probe(root, report)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    meta["loadavg_after"] = os.getloadavg()
    report("meta: " + json.dumps(meta))
    units = result["units"]
    for name, value in result["metrics"].items():
        report(f"{name} = {value:.6g} {units[name]}")
    attempted = len(result["records"])
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


def known_defect_probe(root: Path, report) -> None:
    """Run the known-defect command once, untimed, and report what it did."""
    argv = workloads.KNOWN_DEFECT
    try:
        proc = subprocess.run([sys.executable, "-m", "cfkit", *argv], cwd=root,
                              env=ops.child_env(root), capture_output=True, text=True, timeout=20)
    except subprocess.TimeoutExpired:
        report(f"known defect (untimed, not counted): cfkit {' '.join(argv)} timed out after 20 s")
        return
    status = "still FAILS" if proc.returncode != 0 else "now exits 0"
    report(f"known defect (untimed, not counted): cfkit {' '.join(argv)} exits "
           f"{proc.returncode}, expected 0: {status}; {proc.stderr.strip()[:120]}")


if __name__ == "__main__":
    sys.exit(main())
