"""Execution and output checks for every op kind.

`run` makes one public-API call or starts one CLI process on the objects
that load.py built, and `check` compares the output with the oracles.
Checks run outside the timed part of each op.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import oracles
from load import Context
import workloads


def frac(ctx, name: str) -> oracles.Frac:
    """The benchmark's own description of a spec, for the oracles."""
    if name in oracles.FIXTURES:
        return oracles.FIXTURES[name]
    return workloads.frac_from_json(ctx.plan["specs"][name])


def sequences(ctx, name: str) -> tuple[list[Fraction], list[Fraction]]:
    if name not in ctx.sequences:
        ctx.sequences[name] = oracles.raw_sequences(frac(ctx, name), 260)
    return ctx.sequences[name]


# ---------------------------------------------------------------------------
# Running one op


def run(ctx: Context, op: dict, timeout: float, in_process_cli: bool = False):
    """The op's output; for a CLI op, its exit status and stdout."""
    if "argv" in op:
        return _run_cli(ctx, op["argv"], timeout, in_process_cli)
    api = ctx.api
    kind = op["kind"]
    if kind in ("tab", "long"):
        return api.convergents(ctx.specs[op["spec"]], op["n"])
    if kind == "limit":
        return api.estimate_limit(ctx.specs[op["spec"]], op["max_n"], op["digits"])
    if kind == "closed":
        hyp_spec = ctx.plan["hyps"][op["hyp"]][0]
        return api.check_closed_form(ctx.specs[hyp_spec], ctx.hyps[op["hyp"]], op["n_max"])
    if kind == "rec":
        interval = ctx.intervals[(op["lower"], op["upper"])]
        return api.recognize(interval, max_coeff=op["k"], e_digits=op["e_digits"])
    if kind == "limrec":
        est = api.estimate_limit(ctx.specs[op["spec"]], op["max_n"], op["digits"])
        interval = api.Interval.around(est.value_exact, est.error_bound)
        return est, api.recognize(interval, max_coeff=op["k"])
    if kind == "limcheck":
        target = ctx.targets[tuple(op["target"])]
        return api.check_limit_against_target(
            ctx.specs[op["spec"]], target, digits=op["digits"], max_n=op["max_n"]
        )
    raise ValueError(f"unknown op kind {kind!r}")


def child_env(root) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


def _run_cli(ctx: Context, argv: list[str], timeout: float, in_process: bool):
    if in_process:
        out = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()):
            code = ctx.api.cli.main(list(argv), out=out)
        return code, out.getvalue()
    proc = subprocess.run(
        [sys.executable, "-m", "cfkit", *argv],
        cwd=ctx.root, env=child_env(ctx.root), capture_output=True, text=True, timeout=timeout,
    )
    return proc.returncode, proc.stdout


# ---------------------------------------------------------------------------
# Checking one op's output


def check(ctx: Context, op: dict, out) -> bool:
    if "argv" in op:
        return check_cli(op["argv"], *out, root=ctx.root)
    kind = op["kind"]
    if kind in ("tab", "long"):
        return len(out) == op["n"] + 1 and oracles.check_convergents(frac(ctx, op["spec"]), out)
    if kind == "limit":
        ref = oracles.estimate(frac(ctx, op["spec"]), op["max_n"], op["digits"])
        return oracles.check_estimate(out, ref)
    if kind == "closed":
        return _check_closed(ctx, op, out)
    if kind == "rec":
        ref = oracles.recognize(Fraction(op["lower"]), Fraction(op["upper"]), op["k"], op["e_digits"])
        return _coeffs(out) == ref
    if kind == "limrec":
        est, matches = out
        ref = oracles.estimate(frac(ctx, op["spec"]), op["max_n"], op["digits"])
        if not oracles.check_estimate(est, ref):
            return False
        return _coeffs(matches) == oracles.recognize(ref.value - ref.gap, ref.value + ref.gap, op["k"], 30)
    if kind == "limcheck":
        outcome, worst = oracles.limit_check(
            frac(ctx, op["spec"]), tuple(op["target"]), op["digits"], op["max_n"]
        )
        return out.outcome.value == outcome and out.worst_case_error == worst
    raise ValueError(f"unknown op kind {kind!r}")


def _coeffs(constants) -> list[tuple[int, int, int, int]]:
    return [(c.p, c.q, c.r, c.s) for c in constants]


def _check_closed(ctx: Context, op: dict, report) -> bool:
    spec_name, side, _text, n0 = ctx.plan["hyps"][op["hyp"]]
    a_seq, b_seq = sequences(ctx, spec_name)
    seq = a_seq if side == "A" else b_seq
    base, k = op["base"], op["fail_at"]

    def formula(n):
        extra = 1 if k is not None and n == k else 0  # binom(n, k) for n <= k
        return oracles.closed_form_value(base, n) + extra

    cases = [(c.n, c.expected, c.got, c.ok) for c in report.base_cases]
    if cases != [(n, seq[n], formula(n), True) for n in (n0, n0 + 1)]:
        return False
    if report.n_max != op["n_max"] or report.residual_range != (n0 + 2, op["n_max"]):
        return False
    failure = report.first_failure
    if k is None:
        return report.verdict.value == "verifiedUpTo" and failure is None
    return (
        report.verdict.value == "failedAtResidual"
        and failure is not None
        and (failure.n, failure.lhs, failure.rhs) == (k, formula(k), seq[k])
    )


# ---------------------------------------------------------------------------
# CLI output checks: exit status and the machine-readable block


def _machine(stdout: str) -> dict[str, str]:
    lines = stdout.splitlines()
    if "---" not in lines:
        return {}
    block = lines[len(lines) - lines[::-1].index("---"):]
    return dict(line.split("=", 1) for line in block if "=" in line)


def _flag(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _int_text(value: int) -> str:
    """str() of an exact integer of any size (the reference side only)."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _decimal(value: Fraction, digits: int) -> str:
    text, exact = oracles.decimal_truncated(value, digits)
    return text if exact else text + "~"


def _recognize_expect(lower: Fraction, upper: Fraction, k: int) -> dict[str, str]:
    matches = oracles.recognize(lower, upper, k, 30)
    expect = {"status": "ok" if matches else "no_match", "match_count": str(len(matches))}
    for i, c in enumerate(matches, start=1):
        expect[f"match_{i}"] = ",".join(map(str, c))
    return expect


def _snapshot(root) -> dict[str, tuple[int, ...]]:
    text = (Path(root) / "src" / "cfkit" / "data" / "oeis_snapshot.stripped").read_text()
    out = {}
    for line in text.splitlines():
        if line.startswith("#") or " " not in line:
            continue
        ident, body = line.split(" ", 1)
        out[ident] = tuple(int(t) for t in body.strip().strip(",").split(",") if t)
    return out


@functools.cache
def expected_cli(argv: tuple[str, ...], root) -> tuple[int, dict[str, str]]:
    """Exit status and machine keys a correct cfkit prints for argv."""
    argv = list(argv)
    cmd = argv[0]
    if cmd == "selftest":
        return 0, {"status": "ok", "checks_passed": "15", "checks_failed": "0"}
    frac = oracles.FIXTURES.get(argv[1]) if len(argv) > 1 else None
    if cmd == "eval":
        terms, digits = int(argv[3]), int(_flag(argv, "--digits", "10"))
        last = list(oracles.fold(frac, terms))[-1]
        z = oracles.value_of(last)
        return 0, {
            "status": "ok",
            f"A_{terms}": _int_text(last.pa),
            f"B_{terms}": _int_text(last.pb),
            f"z_{terms}": _int_text(z.numerator) + ("" if z.denominator == 1 else f"/{_int_text(z.denominator)}"),
            f"z_{terms}_decimal": _decimal(z, digits),
        }
    if cmd == "limit":
        digits = int(_flag(argv, "--digits", "15"))
        ref = oracles.estimate(frac, int(_flag(argv, "--max-terms", "40")), digits)
        return 0, {
            "verdict": "converged",
            "n_used": str(ref.n_used),
            "value": _decimal(ref.value, digits),
            "error_bound": oracles.decimal_ceiling(ref.gap, digits + 2),
        }
    if cmd == "verify":
        n_max = _flag(argv, "--n-max", "200")
        expect = {"status": "ok"}
        for key in ("closed_a", "closed_b"):
            if "--" + key.replace("_", "-") in argv:
                expect.update({f"{key}_verdict": "verifiedUpTo", f"{key}_n_max": n_max})
        if "--target" in argv:
            outcome, _worst = oracles.limit_check(frac, (1, 0, 0, 1), 20, 40)
            expect["limit_outcome"] = outcome
        return 0, expect
    if cmd == "transform":
        return 0, {"status": "ok", "equal_through": argv[-1]}
    if cmd == "recognize":
        k = int(_flag(argv, "--max-coeff", "5"))
        if "--value" in argv:
            text = _flag(argv, "--value", "")
            digits = len(text.split(".")[1]) if "." in text else 0
            half = Fraction(1, 2 * 10**digits)
            expect = _recognize_expect(Fraction(text) - half, Fraction(text) + half, k)
        else:
            ref = oracles.estimate(frac, 40, 15)
            expect = _recognize_expect(ref.value - ref.gap, ref.value + ref.gap, k)
        return (0 if expect["status"] == "ok" else 1), expect
    if cmd == "identify":
        side, terms = _flag(argv, "--side", "A"), int(_flag(argv, "--terms", "8"))
        states = list(oracles.fold(frac, terms - 1))
        seq = tuple(st.pa if side == "A" else st.pb for st in states)
        matches = [
            f"{ident}:{shift}"
            for ident, values in sorted(_snapshot(root).items())
            for shift in range(0, min(8, len(values) - len(seq)) + 1)
            if values[shift:shift + len(seq)] == seq
        ]
        expect = {
            "status": "ok" if matches else "no_match",
            "sequence": ",".join(map(str, seq)),
            "match_count": str(len(matches)),
        }
        expect.update({f"match_{i}": m for i, m in enumerate(matches, start=1)})
        return (0 if matches else 1), expect
    raise ValueError(f"no reference for command {cmd!r}")


def check_cli(argv: list[str], code: int, stdout: str, root) -> bool:
    want_code, want = expected_cli(tuple(argv), root)
    if code != want_code:
        return False
    got = _machine(stdout)
    return all(got.get(k) == v for k, v in want.items())
