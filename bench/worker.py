"""One workload process: set up from the job on stdin, then run its ops.

run.py writes one JSON job to stdin: the mode, the checkout root, the plan
and the limits of the run.  Modes:
  setup  import cfkit, build every spec and hypothesis, report when ready
  run    then run a slice of the plan's ops in a closed loop (loop.py)
  trace  then run the plan's first ops untraced and traced in turn

Until `ready` the worker has imported only json, load.py and what cfkit
itself loads, so the set-up time run.py reports is cfkit's own.  The rest
of the benchmark is imported after it.  Timestamps that the parent
compares with its own use CLOCK_MONOTONIC, shared by all processes.
"""

import json
import os
import sys
import time

import load


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, os.path.join(job["root"], "src"))
    ctx = load.setup(job["plan"], job["root"])
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if job["mode"] != "setup":
        import loop

        result.update(loop.MODES[job["mode"]](job, ctx))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
