"""Command-line front end.

Each command prints a human-readable block, then a line `---`, then a
machine-readable block of unique `key=value` lines.  Exit status: 0 for
success / verified, 1 for a failed or indeterminate verification, 2 for
input or usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import expr as ex
from .engine import (
    FormulaSpec,
    LimitVerdict,
    Side,
    SpecValidationError,
    TermEvaluationError,
    convergents,
    convergents_from_terms,
    estimate_limit,
    nested_eval_oracle,
    spec_summary,
)
from .fixtures import FIXTURE_NAMES, load_fixture
from .formula_file import FormulaFileError, parse_formula_file, render_formula_text
from .numeric import decimal_string, decimal_string_ceil
from .recognize import (
    ConstantExpr,
    Interval,
    parse_constant_expr,
    recognize,
)
from .seqid import (
    NonIntegerTermError,
    QueryError,
    SnapshotError,
    bundled_snapshot,
    extract_integer_sequence,
    ingest_stripped_file,
    lookup_local,
    online_query_string,
)
from .transform import (
    ScalingError,
    apply_scaling_expr,
    apply_scaling_table,
    unitize_partial_numerators,
)
from .verify import (
    ClosedFormHypothesis,
    LimitCheckOutcome,
    check_closed_form,
    check_footnote_equivalence,
    check_limit_against_target,
    vn_simplification_check,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2

MACHINE_SEPARATOR = "---"


class UsageError(Exception):
    """Bad input or bad invocation; maps to exit status 2."""


@dataclass
class RunReport:
    human: list[str] = field(default_factory=list)
    machine: list[tuple[str, str]] = field(default_factory=list)
    exit_code: int = EXIT_OK

    def say(self, line: str = "") -> None:
        self.human.append(line)

    def record(self, key: str, value) -> None:
        self.machine.append((key, str(value)))

    def write(self, out) -> None:
        for line in self.human:
            print(line, file=out)
        print(MACHINE_SEPARATOR, file=out)
        seen = set()
        for key, value in self.machine:
            if key in seen:
                raise AssertionError(f"duplicate machine key {key!r}")
            seen.add(key)
            print(f"{key}={value}", file=out)


def _decimal(value: Fraction, digits: int) -> str:
    """Truncated decimal; a trailing '~' marks discarded digits."""
    text, exact = decimal_string(value, digits)
    return text if exact else text + "~"


def _load_spec(argument: str) -> FormulaSpec:
    """A path to a formula file, or the name of a bundled fixture."""
    path = Path(argument)
    if path.is_file():
        return parse_formula_file(path)
    name = path.name.removesuffix(".cf")
    if name not in FIXTURE_NAMES:
        raise UsageError(
            f"no such formula file {argument!r} (bundled fixtures: {', '.join(FIXTURE_NAMES)})"
        )
    return load_fixture(name)


def _parse_expr_arg(text: str, what: str) -> ex.Expr:
    try:
        return ex.parse(text)
    except ex.ParseError as exc:
        raise UsageError(f"bad {what}: {exc}") from exc


# ---------------------------------------------------------------------------
# Commands


def cmd_eval(args) -> RunReport:
    spec = _load_spec(args.formula)
    report = RunReport()
    rows = convergents(spec, args.terms)
    report.say(spec_summary(spec))
    report.say()
    report.say(f"{'n':>4}  {'A_n':>24}  {'B_n':>24}  z_n")
    for conv in rows:
        if conv.value is None:
            z_text = "(undefined: B_n = 0)"
        else:
            z_text = f"{conv.value} = {_decimal(conv.value, args.digits)}"
        report.say(f"{conv.n:>4}  {str(conv.A):>24}  {str(conv.B):>24}  {z_text}")
    last = rows[-1]
    report.record("status", "ok")
    report.record("name", spec.name)
    report.record("terms", args.terms)
    report.record("digits", args.digits)
    report.record(f"A_{last.n}", last.A)
    report.record(f"B_{last.n}", last.B)
    if last.value is not None:
        report.record(f"z_{last.n}", last.value)
        report.record(f"z_{last.n}_decimal", _decimal(last.value, args.digits))
    return report


def cmd_limit(args) -> RunReport:
    spec = _load_spec(args.formula)
    report = RunReport()
    estimate = estimate_limit(spec, args.max_terms, args.digits)
    marker = "" if estimate.value_is_exact else "~"
    report.say(spec_summary(spec))
    report.say(f"limit estimate after n = {estimate.n_used}: {estimate.value}{marker}")
    if estimate.error_bound is not None:
        bound_text = decimal_string_ceil(estimate.error_bound, args.digits + 2)
        report.say(f"last gap |z_n - z_(n-1)| <= {bound_text} (heuristic error bound)")
    report.say(f"verdict: {estimate.verdict.value}")
    report.record("status", "ok")
    report.record("name", spec.name)
    report.record("verdict", estimate.verdict.value)
    report.record("n_used", estimate.n_used)
    report.record("digits", estimate.digits)
    report.record("value", estimate.value + marker)
    if estimate.error_bound is not None:
        report.record("error_bound", decimal_string_ceil(estimate.error_bound, args.digits + 2))
    report.exit_code = (
        EXIT_OK if estimate.verdict is LimitVerdict.CONVERGED else EXIT_VERIFICATION_FAILED
    )
    return report


def cmd_verify(args) -> RunReport:
    spec = _load_spec(args.formula)
    if args.closed_a is None and args.closed_b is None and args.target is None:
        raise UsageError("nothing to verify: pass --closed-a, --closed-b and/or --target")
    report = RunReport()
    report.say(spec_summary(spec))
    all_ok = True

    jobs = []
    if args.closed_a is not None:
        jobs.append((Side.A, "closed_a", args.closed_a))
    if args.closed_b is not None:
        jobs.append((Side.B, "closed_b", args.closed_b))
    for side, key, text in jobs:
        formula = _parse_expr_arg(text, f"--{key.replace('_', '-')} expression")
        try:
            hyp = ClosedFormHypothesis(side, formula, args.valid_from)
            result = check_closed_form(spec, hyp, args.n_max)
        except (ValueError, TermEvaluationError) as exc:
            raise UsageError(str(exc)) from exc
        report.say()
        report.say(result.human_text())
        report.machine.extend(result.machine_items(prefix=f"{key}_"))
        all_ok = all_ok and result.ok()

    if args.target is not None:
        try:
            target = parse_constant_expr(args.target)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        check = check_limit_against_target(spec, target, digits=args.digits, max_n=args.max_terms)
        report.say()
        report.say(f"limit versus target {target.describe()} at 10^-{args.digits}:")
        report.say(f"  estimator verdict: {check.estimate.verdict.value} (n = {check.estimate.n_used})")
        if check.worst_case_error is not None:
            worst = decimal_string_ceil(check.worst_case_error, args.digits + 2)
            report.say(f"  worst-case |estimate - target| <= {worst}")
        report.say(f"  outcome: {check.outcome.value}")
        report.record("target", target.describe())
        report.record("limit_outcome", check.outcome.value)
        report.record("limit_digits", args.digits)
        all_ok = all_ok and check.outcome is LimitCheckOutcome.PASS

    report.record("status", "ok" if all_ok else "failed")
    report.exit_code = EXIT_OK if all_ok else EXIT_VERIFICATION_FAILED
    return report


def cmd_transform(args) -> RunReport:
    spec = _load_spec(args.formula)
    report = RunReport()
    report.say(spec_summary(spec))
    original = convergents(spec, args.terms)

    if args.scale is not None:
        scaling = _parse_expr_arg(args.scale, "--scale expression")
        try:
            scaled = apply_scaling_expr(spec, scaling)
        except ScalingError as exc:
            raise UsageError(str(exc)) from exc
        rescaled = convergents(scaled, args.terms)
        report.say()
        report.say("scaled formula:")
        for line in render_formula_text(scaled).rstrip().splitlines():
            report.say("  " + line)
        report.say()
        header = "a_n b_n a'_n b'_n".split()
        report.say(
            f"{'n':>4}  {header[0]:>12} {header[1]:>12}  {header[2]:>12} {header[3]:>12}  z equal"
        )
        equal_through = args.terms
        for n in range(1, args.terms + 1):
            a, b = spec.term(n)
            a2, b2 = scaled.term(n)
            same = original[n].value == rescaled[n].value
            if not same:
                equal_through = min(equal_through, n - 1)
            report.say(
                f"{n:>4}  {str(a):>12} {str(b):>12}  {str(a2):>12} {str(b2):>12}  {str(same).lower()}"
            )
        report.record("status", "ok" if equal_through == args.terms else "mismatch")
        report.record("mode", "scale")
        report.record("scaled_name", scaled.name)
        report.record("equal_through", equal_through)
        if equal_through != args.terms:
            report.exit_code = EXIT_VERIFICATION_FAILED
        return report

    # --unitize: table-level rescaling to unit partial numerators
    terms = spec.terms(args.terms)
    try:
        unit_terms, c_table = unitize_partial_numerators(terms)
    except ScalingError as exc:
        raise UsageError(str(exc)) from exc
    redone = convergents_from_terms(spec.b0_value(), unit_terms)
    report.say()
    header = "c_n a'_n b'_n".split()
    report.say(f"{'n':>4}  {header[0]:>12}  {header[1]:>6} {header[2]:>12}  z equal")
    equal_through = args.terms
    for n in range(1, args.terms + 1):
        a2, b2 = unit_terms[n - 1]
        same = original[n].value == redone[n].value
        if not same:
            equal_through = min(equal_through, n - 1)
        report.say(
            f"{n:>4}  {str(c_table[n - 1]):>12}  {str(a2):>6} {str(b2):>12}  {str(same).lower()}"
        )
    report.record("status", "ok" if equal_through == args.terms else "mismatch")
    report.record("mode", "unitize")
    report.record("equal_through", equal_through)
    if equal_through != args.terms:
        report.exit_code = EXIT_VERIFICATION_FAILED
    return report


_DECIMAL_VALUE = re.compile(r"^[+-]?\d+(\.\d+)?$")


def cmd_recognize(args) -> RunReport:
    report = RunReport()
    if args.value is not None and args.formula is not None:
        raise UsageError("pass either --value or a formula file, not both")
    if args.value is not None:
        if not _DECIMAL_VALUE.match(args.value):
            raise UsageError(f"--value must be a plain decimal, got {args.value!r}")
        center = Fraction(args.value)
        frac_digits = len(args.value.split(".")[1]) if "." in args.value else 0
        halfwidth = Fraction(1, 2 * 10**frac_digits)
        interval = Interval.around(center, halfwidth)
        report.say(f"input: {args.value} read as [{interval.lower}, {interval.upper}]")
    else:
        if args.formula is None:
            raise UsageError("pass either --value or a formula file")
        spec = _load_spec(args.formula)
        estimate = estimate_limit(spec, args.max_terms, args.digits)
        if estimate.verdict is not LimitVerdict.CONVERGED:
            report.say(f"{spec.name}: estimator verdict {estimate.verdict.value}; cannot recognize")
            report.record("status", "indeterminate")
            report.record("verdict", estimate.verdict.value)
            report.exit_code = EXIT_VERIFICATION_FAILED
            return report
        assert estimate.value_exact is not None and estimate.error_bound is not None
        interval = Interval.around(estimate.value_exact, estimate.error_bound)
        report.say(spec_summary(spec))
        report.say(
            f"limit estimate {estimate.value}~ with gap bound; recognizing the enclosure"
        )

    matches = recognize(interval, max_coeff=args.max_coeff)
    report.say()
    if matches:
        report.say(f"candidate constants with |coefficients| <= {args.max_coeff}, simplest first:")
        for i, m in enumerate(matches, start=1):
            report.say(f"  {i}. {m.describe()}   (p, q, r, s) = ({m.p}, {m.q}, {m.r}, {m.s})")
    else:
        report.say(f"no Mobius-of-e constant with |coefficients| <= {args.max_coeff} matches")
    report.record("status", "ok" if matches else "no_match")
    report.record("max_coeff", args.max_coeff)
    report.record("match_count", len(matches))
    for i, m in enumerate(matches, start=1):
        report.record(f"match_{i}", f"{m.p},{m.q},{m.r},{m.s}")
    report.exit_code = EXIT_OK if matches else EXIT_VERIFICATION_FAILED
    return report


def cmd_identify(args) -> RunReport:
    spec = _load_spec(args.formula)
    report = RunReport()
    side = Side(args.side)
    rows = convergents(spec, args.terms - 1)
    try:
        sequence = extract_integer_sequence(rows, side)
    except NonIntegerTermError as exc:
        raise UsageError(str(exc)) from exc
    snapshot = ingest_stripped_file(args.snapshot) if args.snapshot else bundled_snapshot()
    try:
        matches = lookup_local(sequence, snapshot, max_shift=args.max_shift)
    except QueryError as exc:
        raise UsageError(str(exc)) from exc
    url = online_query_string(sequence)

    report.say(spec_summary(spec))
    report.say(f"{side.value}-side terms (n = 0..{args.terms - 1}): {', '.join(map(str, sequence))}")
    if snapshot.malformed:
        for lineno, reason in snapshot.malformed:
            report.say(f"note: snapshot line {lineno} skipped ({reason})")
    if matches:
        for m in matches:
            report.say(f"local match: {m.identifier} at shift {m.shift} (all {m.matched_length} terms)")
    else:
        report.say("no local match in the snapshot")
    report.say(f"online query: {url}")
    report.record("status", "ok" if matches else "no_match")
    report.record("side", side.value)
    report.record("sequence", ",".join(map(str, sequence)))
    report.record("match_count", len(matches))
    for i, m in enumerate(matches, start=1):
        report.record(f"match_{i}", f"{m.identifier}:{m.shift}")
    report.record("url", url)

    if args.fetch:
        import urllib.request  # the only network path; kept out of every other command's start-up

        try:
            with urllib.request.urlopen(url, timeout=30) as response:
                body = response.read().decode("utf-8", errors="replace")
        except OSError as exc:
            report.say(f"fetch failed: {exc}")
            report.record("fetch", "failed")
            report.exit_code = EXIT_VERIFICATION_FAILED
            return report
        report.say()
        report.say(body)
        report.record("fetch", "ok")

    if not matches:
        report.exit_code = EXIT_VERIFICATION_FAILED
    return report


# ---------------------------------------------------------------------------
# Selftest: the full pipeline over the bundled fixtures, offline


def _selftest_checks():
    from math import factorial

    cf1 = load_fixture("e_cf1")
    cf1t = load_fixture("e_cf1t")
    cf2 = load_fixture("e_cf2")

    def check(condition: bool, message: str) -> None:
        if not condition:
            raise AssertionError(message)

    def spot_values():
        rows = convergents(cf2, 4)
        check([c.A for c in rows] == [3, 11, 49, 261, 1631], "A-side spot values")
        check([c.B for c in rows] == [1, 4, 18, 96, 600], "B-side spot values")
        rows_t = convergents(cf1t, 20)
        check(rows_t[2].value == Fraction(8, 3), "z_2 of the rescaled first formula")
        check(all(c.A == c.n + 2 for c in rows_t), "A_n = n + 2 spot check")

    def nested_agrees():
        for spec in (cf1, cf1t, cf2):
            rows = convergents(spec, 12)
            for depth in range(13):
                check(
                    nested_eval_oracle(spec, depth) == rows[depth].value,
                    f"nested evaluation at depth {depth} for {spec.name}",
                )

    def presentations_agree():
        left = convergents(cf1, 100)
        right = convergents(cf1t, 100)
        check(
            all(l.value == r.value for l, r in zip(left, right)),
            "prefix and rescaled presentations share every z_n",
        )

    def unit_denominator_rescaling():
        terms = cf1.terms(30)
        scaled = apply_scaling_table(terms, [1 / b for (_a, b) in terms])
        check(
            all((a, b) == (Fraction(1, n), Fraction(1)) for n, (a, b) in enumerate(scaled, start=1)),
            "scaling by 1/b_n reaches a(n) = 1/n, b(n) = 1",
        )

    def closed_form(spec, side, text, valid_from, label):
        def run():
            hyp = ClosedFormHypothesis(side, ex.parse(text), valid_from)
            result = check_closed_form(spec, hyp, 200)
            check(result.ok(), f"{label}: {result.verdict.value}")

        return run

    def auxiliary_identity():
        rows = convergents(cf1t, 198)
        for n in range(3, 201):
            lhs = rows[n - 2].B / n - rows[n - 3].B / (n - 1)
            check(
                lhs == Fraction((-1) ** n, factorial(n)),
                f"auxiliary difference identity at n = {n}",
            )

    def footnote():
        check(check_footnote_equivalence(100), "footnote sum forms diverged")

    def value_forms():
        check(vn_simplification_check(100), "z_n differs from a summation form")

    def fingerprints():
        snapshot = bundled_snapshot()
        seq_a = extract_integer_sequence(convergents(cf2, 4), Side.A)
        seq_b = extract_integer_sequence(convergents(cf2, 4), Side.B)
        match_a = lookup_local(seq_a, snapshot)
        match_b = lookup_local(seq_b, snapshot)
        check(
            any(m.identifier == "A001339" and m.shift == 1 for m in match_a),
            "A-side fingerprint A001339 shift 1",
        )
        check(
            any(m.identifier == "A001563" and m.shift == 1 for m in match_b),
            "B-side fingerprint A001563 shift 1",
        )
        try:
            extract_integer_sequence(convergents(cf1t, 4), Side.B)
        except NonIntegerTermError as exc:
            check(exc.index == 2, "non-integer index of the rescaled B sequence")
        else:
            raise AssertionError("rescaled B sequence unexpectedly integral")

    def limit_check(spec, label):
        def run():
            result = check_limit_against_target(
                spec, ConstantExpr(1, 0, 0, 1), digits=20, max_n=40
            )
            check(result.ok(), f"{label}: outcome {result.outcome.value}")

        return run

    def recognizer_tops():
        for spec in (cf1, cf1t, cf2):
            z25 = convergents(spec, 25)[25].value
            assert z25 is not None
            matches = recognize(Interval.around(z25, Fraction(1, 10**15)), max_coeff=5, e_digits=18)
            check(bool(matches), f"recognizer found no match for {spec.name}")
            check(
                matches[0] == ConstantExpr(1, 0, 0, 1),
                f"top-ranked constant for {spec.name} is {matches[0].describe()}, expected e",
            )

    return [
        ("convergent spot values", spot_values),
        ("nested evaluation oracle", nested_agrees),
        ("presentation equivalence", presentations_agree),
        ("unit-denominator rescaling", unit_denominator_rescaling),
        ("closed form A_n = n + 2", closed_form(cf1t, Side.A, "n + 2", 0, "first formula A")),
        (
            "closed form B_n alternating sum",
            closed_form(
                cf1t, Side.B, "(n + 2) * sum(i, 2, n + 2, (-1)^i / fact(i))", 0, "first formula B"
            ),
        ),
        (
            "closed form B_n = (n+1)(n+1)!",
            closed_form(cf2, Side.B, "(n + 1) * fact(n + 1)", 1, "second formula B"),
        ),
        (
            "closed form A_n combinatorial sum",
            closed_form(
                cf2, Side.A, "sum(k, 0, n + 1, fact(k + 1) * binom(n + 1, k))", 1, "second formula A"
            ),
        ),
        ("auxiliary difference identity", auxiliary_identity),
        ("footnote sum equivalence", footnote),
        ("value simplification forms", value_forms),
        ("sequence fingerprints", fingerprints),
        ("limit of e_cf1t", limit_check(cf1t, "first formula limit")),
        ("limit of e_cf2", limit_check(cf2, "second formula limit")),
        ("recognizer top match", recognizer_tops),
    ]


def cmd_selftest(_args) -> RunReport:
    report = RunReport()
    passed = failed = 0
    for label, run in _selftest_checks():
        try:
            run()
        except AssertionError as exc:
            failed += 1
            report.say(f"[FAIL] {label}: {exc}")
        else:
            passed += 1
            report.say(f"[ok]   {label}")
    report.say()
    report.say(f"{passed} passed, {failed} failed")
    report.record("status", "ok" if failed == 0 else "failed")
    report.record("checks_passed", passed)
    report.record("checks_failed", failed)
    report.exit_code = EXIT_OK if failed == 0 else EXIT_VERIFICATION_FAILED
    return report


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfkit",
        description="Evaluate, transform and verify generalized continued fraction formulae "
        "with exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="tabulate exact convergents A_n, B_n, z_n")
    p.add_argument("formula", help="formula file path or bundled fixture name")
    p.add_argument("--terms", type=int, default=10, help="highest index n (default 10)")
    p.add_argument("--digits", type=int, default=10, help="decimal digits shown (default 10)")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("limit", help="estimate the limit with a stopping rule")
    p.add_argument("formula")
    p.add_argument("--max-terms", type=int, default=40)
    p.add_argument("--digits", type=int, default=15)
    p.set_defaults(handler=cmd_limit)

    p = sub.add_parser("verify", help="check closed forms and/or the limit target")
    p.add_argument("formula")
    p.add_argument("--closed-a", metavar="EXPR", help="closed form for A_n")
    p.add_argument("--closed-b", metavar="EXPR", help="closed form for B_n")
    p.add_argument("--valid-from", type=int, default=0, metavar="N0")
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--target", metavar="CONST", help='e.g. "e", "(2*e+1)/(e+3)", "8/3"')
    p.add_argument("--digits", type=int, default=20)
    p.add_argument("--max-terms", type=int, default=40)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("transform", help="rescale terms; values z_n are preserved")
    p.add_argument("formula")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--scale", metavar="EXPR", help="scaling sequence c(n)")
    group.add_argument("--unitize", action="store_true", help="rescale so every a_n = 1")
    p.add_argument("--terms", type=int, default=10)
    p.set_defaults(handler=cmd_transform)

    p = sub.add_parser("recognize", help="match a value against Mobius forms of e")
    p.add_argument("formula", nargs="?", help="formula file (alternative to --value)")
    p.add_argument("--value", metavar="DECIMAL", help="decimal literal to recognize")
    p.add_argument("--max-coeff", type=int, default=5)
    p.add_argument("--digits", type=int, default=15)
    p.add_argument("--max-terms", type=int, default=40)
    p.set_defaults(handler=cmd_recognize)

    p = sub.add_parser("identify", help="fingerprint A_n or B_n against the OEIS snapshot")
    p.add_argument("formula")
    p.add_argument("--side", choices=("A", "B"), required=True)
    p.add_argument("--terms", type=int, default=8, help="number of leading terms (default 8)")
    p.add_argument("--snapshot", metavar="PATH", help="stripped-format snapshot file")
    p.add_argument("--max-shift", type=int, default=8)
    p.add_argument("--fetch", action="store_true", help="also fetch the online query URL")
    p.set_defaults(handler=cmd_identify)

    p = sub.add_parser("selftest", help="run the bundled end-to-end checks, offline")
    p.set_defaults(handler=cmd_selftest)

    return parser


@contextlib.contextmanager
def _any_size_int_text():
    """Lift the interpreter's cap on int-to-text digits, then restore it.

    Exact results such as A_2000 of e_cf2 run past the default 4300 digits.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # interpreters without the cap
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    with _any_size_int_text():
        try:
            report = args.handler(args)
        except (
            UsageError, FormulaFileError, SpecValidationError, TermEvaluationError, SnapshotError,
            ex.ParseError, ex.EvalError, QueryError, ValueError,
        ) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        report.write(out)
    return report.exit_code


def console_main() -> None:
    raise SystemExit(main())
