"""Machine-speed gauge: fixed work from the benchmark's own oracles.

The shared virtual machine this benchmark was built on switches between a
fast and a slow state many times a second, and the share of slow time
drifts for minutes.  An op's wall time follows that share, so raw times of
the same code, measured minutes apart, differed by up to 1.5x.  The gauge
is one fixed piece of pure-Python exact arithmetic (a small Möbius
recognition and a rational fold, 2-3 ms) that the worker runs right after
every op, so it samples the machine in the same states as the ops.  The
run's mean gauge time says how fast the machine was while the ops ran;
run.py scales the op metrics by REF_MS over that mean, and each set-up
sample by REF_MS over the gauge timed just before it.  Run to run,
the scaled times spread several times less than the raw ones.  The gauge
never calls cfkit, so a change to cfkit moves the ops and not the gauge.
"""

from __future__ import annotations

import time

import oracles

#: The gauge time, in ms, that reported times are scaled to: about what the
#: gauge took in the fast state of the machine the baseline was measured on.
REF_MS = 2.0

_LOWER, _UPPER = oracles.mobius_enclosure((1, 2, 0, 1), 20)


def gauge_ms() -> float:
    """Run the fixed work once; its wall time in ms."""
    start = time.perf_counter()
    oracles.recognize(_LOWER, _UPPER, 2, 24)
    oracles.raw_sequences(oracles.FIXTURES["e_cf1t"], 120)
    return (time.perf_counter() - start) * 1e3
