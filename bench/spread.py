"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workloads fold cli --seeds 1-10 [--out FILE]

Runs bench/run.py once per (workload, seed), one run at a time, and prints
for each metric the median of its values and the distance between their
first and third quartiles (statistics.quantiles, n=4) as a share of that
median, next to the metric's bound from BENCHMARK.json, and the longest
wall time of one run.  Lines named "raw ..." give the same for the
unscaled wall-clock values each run prints before its metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RAW = "raw wall-clock values:"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", default=["fold", "closed-form", "recognize", "cli"])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out", type=Path, help="write all values and spreads as JSON")
    args = parser.parse_args()

    bench = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    command = bench["command"]
    summary = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        walls = []
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run(
                [*command, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=600,
            )
            walls.append(time.monotonic() - start)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed ops", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for line in proc.stdout.splitlines():
                if line.startswith(RAW):
                    for item in line[len(RAW):].split(","):
                        name, value = item.split()
                        values.setdefault(f"raw {name}", []).append(float(value))
        summary[workload] = {"wall_s": walls}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            summary[workload][name] = {"median": statistics.median(vals), "spread": spread,
                                       "bound": bounds.get(name), "values": vals}
            print(f"{workload:12s} {name:14s} median {statistics.median(vals):12.5g}  "
                  f"IQR/median {spread:7.4f}  bound {bounds.get(name)}", flush=True)
        print(f"{workload:12s} wall per run: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s", flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
