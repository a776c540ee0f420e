"""Finite-range verification of closed forms and limits.

A closed-form hypothesis for A_n or B_n is checked the way an induction
proof is structured: both base cases (the recurrence has order two), then
the inductive residual

    formula(n) - b_n * formula(n-1) - a_n * formula(n-2)

which must vanish exactly at every n in the checked range.  All arithmetic
is exact, so a pass means the hypothesis matches the recurrence values at
every checked index -- strong evidence, deliberately reported as
"verifiedUpTo(nMax)" and never as a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from . import expr as ex
from .engine import (
    Convergent,
    FormulaSpec,
    LimitEstimate,
    LimitVerdict,
    Side,
    convergents,
    estimate_limit,
)
from .recognize import ConstantExpr, Interval, e_high_precision, mobius_value


@dataclass(frozen=True)
class ClosedFormHypothesis:
    """Candidate explicit formula for one recurrence sequence.

    `formula` may reference the single free variable n and is asserted from
    index `valid_from` on.  The formula is compiled once, here.
    """

    target: Side
    formula: ex.Expr
    valid_from: int = 0
    _formula_at: ex.Compiled = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.valid_from < 0:
            raise ValueError("valid_from must be >= 0")
        extra = ex.free_vars(self.formula) - {"n"}
        if extra:
            raise ValueError(
                f"hypothesis may only use the variable n, found {sorted(extra)}"
            )
        object.__setattr__(self, "_formula_at", ex.compile(self.formula))

    def __reduce__(self):
        # Pickled by its fields and compiled again on load: closures do not pickle.
        return (type(self), (self.target, self.formula, self.valid_from))

    def at(self, n: int) -> Fraction:
        try:
            return self._formula_at({"n": n})
        except ex.EvalError as exc:
            raise ex.EvalError(f"evaluating hypothesis at n = {n}: {exc}") from exc


class VerifyVerdict(str, Enum):
    VERIFIED_UP_TO = "verifiedUpTo"
    FAILED_AT_BASE = "failedAtBase"
    FAILED_AT_RESIDUAL = "failedAtResidual"


@dataclass(frozen=True)
class BaseCaseCheck:
    n: int
    expected: Fraction  # engine recurrence value
    got: Fraction  # hypothesis value
    ok: bool


@dataclass(frozen=True)
class ResidualFailure:
    """First index where the hypothesis breaks the recurrence, with both sides."""

    n: int
    lhs: Fraction  # formula(n)
    rhs: Fraction  # b_n * formula(n-1) + a_n * formula(n-2)


@dataclass(frozen=True)
class VerificationReport:
    spec_name: str
    target: Side
    formula_text: str
    verdict: VerifyVerdict
    n_max: int
    base_cases: tuple[BaseCaseCheck, ...]
    residual_range: tuple[int, int] | None
    first_failure: ResidualFailure | None

    def ok(self) -> bool:
        return self.verdict is VerifyVerdict.VERIFIED_UP_TO

    def human_text(self) -> str:
        lines = [
            f"closed form for {self.target.value}_n of {self.spec_name}: {self.formula_text}"
        ]
        for case in self.base_cases:
            mark = "ok" if case.ok else "MISMATCH"
            lines.append(
                f"  base n={case.n}: recurrence {case.expected}, formula {case.got} [{mark}]"
            )
        if self.residual_range is not None:
            lo, hi = self.residual_range
            lines.append(f"  residual checked exactly for n = {lo}..{hi}")
        if self.first_failure is not None:
            f = self.first_failure
            lines.append(
                f"  first residual failure at n={f.n}: formula(n) = {f.lhs}, "
                f"recurrence combination = {f.rhs}"
            )
        lines.append(f"  verdict: {self.verdict.value}({self.n_max})"
                     if self.ok() else f"  verdict: {self.verdict.value}")
        lines.append(
            "  note: exhaustive exact check over a finite range; "
            "evidence for the closed form, not a proof."
        )
        return "\n".join(lines)

    def machine_items(self, prefix: str = "") -> list[tuple[str, str]]:
        items = [
            (f"{prefix}target", self.target.value),
            (f"{prefix}verdict", self.verdict.value),
            (f"{prefix}n_max", str(self.n_max)),
        ]
        for case in self.base_cases:
            items.append(
                (f"{prefix}base_{case.n}", f"{case.expected}|{case.got}|{'ok' if case.ok else 'mismatch'}")
            )
        if self.first_failure is not None:
            f = self.first_failure
            items.append((f"{prefix}first_failure", f"{f.n}|{f.lhs}|{f.rhs}"))
        return items


def _sequence_value(conv: Convergent, side: Side) -> Fraction:
    return conv.A if side is Side.A else conv.B


def check_closed_form(
    spec: FormulaSpec, hyp: ClosedFormHypothesis, n_max: int = 200
) -> VerificationReport:
    """Base cases at valid_from and valid_from + 1, residuals through n_max."""
    n0 = hyp.valid_from
    if n_max < n0 + 2:
        raise ValueError(f"n_max must be >= valid_from + 2 = {n0 + 2}")

    anchor = convergents(spec, n0 + 1)
    base_cases = []
    for n in (n0, n0 + 1):
        expected = _sequence_value(anchor[n], hyp.target)
        got = hyp.at(n)
        base_cases.append(BaseCaseCheck(n, expected, got, expected == got))

    if not all(case.ok for case in base_cases):
        return VerificationReport(
            spec_name=spec.name,
            target=hyp.target,
            formula_text=ex.render(hyp.formula),
            verdict=VerifyVerdict.FAILED_AT_BASE,
            n_max=n_max,
            base_cases=tuple(base_cases),
            residual_range=None,
            first_failure=None,
        )

    first_failure = None
    prev2 = hyp.at(n0)
    prev = hyp.at(n0 + 1)
    for n in range(n0 + 2, n_max + 1):
        a_n, b_n = spec.term(n)
        current = hyp.at(n)
        combined = b_n * prev + a_n * prev2
        if current != combined:
            first_failure = ResidualFailure(n, current, combined)
            break
        prev2, prev = prev, current

    verdict = (
        VerifyVerdict.VERIFIED_UP_TO if first_failure is None else VerifyVerdict.FAILED_AT_RESIDUAL
    )
    return VerificationReport(
        spec_name=spec.name,
        target=hyp.target,
        formula_text=ex.render(hyp.formula),
        verdict=verdict,
        n_max=n_max,
        base_cases=tuple(base_cases),
        residual_range=(n0 + 2, n_max),
        first_failure=first_failure,
    )


# ---------------------------------------------------------------------------
# Limit versus target constant


class LimitCheckOutcome(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    INDETERMINATE = "indeterminate"  # the estimator did not converge


@dataclass(frozen=True)
class LimitCheck:
    outcome: LimitCheckOutcome
    estimate: LimitEstimate
    target: ConstantExpr
    target_interval: Interval | None
    worst_case_error: Fraction | None
    tolerance: Fraction

    def ok(self) -> bool:
        return self.outcome is LimitCheckOutcome.PASS


def check_limit_against_target(
    spec: FormulaSpec,
    target: ConstantExpr,
    digits: int = 20,
    max_n: int = 40,
) -> LimitCheck:
    """Compare the estimated limit with a target constant, interval-safely.

    Passes only when the worst-case distance between the estimate interval
    (last value +- its gap bound) and the certified target interval is below
    10^-digits, so both error terms are charged against the tolerance.  A
    non-converged estimate yields INDETERMINATE, which is distinct from a
    failed comparison.
    """
    if digits < 6:
        raise ValueError("digits must be >= 6")
    tolerance = Fraction(1, 10**digits)
    estimate = estimate_limit(spec, max_n, target_digits=digits)
    target_interval = mobius_value(target, e_high_precision(digits + 2))

    if estimate.verdict is not LimitVerdict.CONVERGED:
        return LimitCheck(
            LimitCheckOutcome.INDETERMINATE, estimate, target, target_interval, None, tolerance
        )

    assert estimate.value_exact is not None and estimate.error_bound is not None
    est_interval = Interval.around(estimate.value_exact, estimate.error_bound)
    worst = max(
        target_interval.upper - est_interval.lower,
        est_interval.upper - target_interval.lower,
    )
    outcome = LimitCheckOutcome.PASS if worst < tolerance else LimitCheckOutcome.FAIL
    return LimitCheck(outcome, estimate, target, target_interval, worst, tolerance)


# ---------------------------------------------------------------------------
# Self-contained identity checks for the two bundled formulas

# Two spellings of the same combinatorial sum, related by reindexing k to
# n+1-k.  Both appear as closed-form candidates for the A-sequence of the
# negative-numerator fixture.  All four forms are compiled once, at import.
_SUM_DIRECT = ex.compile(ex.parse("sum(k, 0, n + 1, fact(k + 1) * binom(n + 1, k))"))
_SUM_REINDEXED = ex.compile(ex.parse("sum(k, 0, n + 1, fact(n + 2 - k) * binom(n + 1, n + 1 - k))"))

_VN_INVERSE_FACTORIAL = ex.compile(ex.parse("sum(k, 0, n + 1, (k + 1) / ((n + 1) * fact(n + 1 - k)))"))
_VN_DIRECT_FACTORIAL = ex.compile(ex.parse("sum(k, 0, n + 1, (n + 2 - k) / ((n + 1) * fact(k)))"))


def check_footnote_equivalence(n_max: int = 100) -> bool:
    """Both spellings of the combinatorial sum agree exactly for n = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    for n in range(1, n_max + 1):
        env = {"n": n}
        if _SUM_DIRECT(env) != _SUM_REINDEXED(env):
            return False
    return True


def vn_simplification_check(n_max: int = 100) -> bool:
    """z_n of the negative-numerator formula equals both summation forms."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    from .fixtures import load_fixture  # deferred: fixtures depends on engine

    spec = load_fixture("e_cf2")
    for conv in convergents(spec, n_max)[1:]:
        env = {"n": conv.n}
        s1 = _VN_INVERSE_FACTORIAL(env)
        s2 = _VN_DIRECT_FACTORIAL(env)
        if conv.value != s1 or conv.value != s2:
            return False
    return True
