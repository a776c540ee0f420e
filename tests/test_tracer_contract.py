"""The benchmark's tracer can still find every cfkit function it names.

`bench/tracer.TRACED` lists cfkit functions by module and name.  Renaming or
deleting one of them breaks `bench/run.py --trace 1`; this test makes that
a tier-1 failure too.  It only reads `bench/`.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import tracer
undo = tracer.install(tracer.Tracer())
undo()
print("installed", len(tracer.TRACED))
"""


def test_tracer_installs_every_traced_name():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "bench"), str(ROOT / "src"))))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("installed ")
