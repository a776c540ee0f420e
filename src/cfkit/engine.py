"""Convergents of generalized continued fractions, exactly.

A fraction b0 + a1/(b1 + a2/(b2 + ...)) is described by a FormulaSpec: a
constant leading term, an optional explicit prefix of (a_i, b_i) pairs for
leading indices that do not fit the tail formulas, and tail expressions
a(n), b(n) evaluated at the literal index n beyond the prefix.

Numerators A_n and denominators B_n follow the second-order recurrence

    A_n = b_n * A_{n-1} + a_n * A_{n-2}        A_{-1} = 1, A_0 = b0
    B_n = b_n * B_{n-1} + a_n * B_{n-2}        B_{-1} = 0, B_0 = 1

and are kept as raw recurrence values (each one an exact rational, but the
A/B pair is never jointly rescaled), so closed-form checks can compare them
literally.  The convergent value z_n = A_n/B_n is reduced separately and is
absent when B_n = 0.

One evaluation is a sequential fold (each term needs its two predecessors);
FormulaSpec and Convergent values are immutable, so independent fractions
can be evaluated on separate threads freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .expr import Compiled, EvalError, Expr, free_vars, render
from .expr import compile as compile_expr  # not the builtin compile
from .numeric import decimal_string

#: How many tail indices past the prefix are probed by validate().
VALIDATION_WINDOW = 100

TermPair = tuple[Fraction, Fraction]


class Side(str, Enum):
    """Which of the two recurrence sequences an operation targets."""

    A = "A"
    B = "B"


class SpecValidationError(Exception):
    """The formula specification violates a structural invariant."""


class TermEvaluationError(EvalError):
    """A tail expression failed to evaluate at some index n."""

    def __init__(self, index: int, side: str, cause: Exception):
        super().__init__(f"evaluating {side}({index}): {cause}")
        self.index = index
        self.side = side
        self.cause = cause


@dataclass(frozen=True)
class FormulaSpec:
    """A named generalized continued fraction.

    prefix holds exact (a_i, b_i) pairs for i = 1..P; a_tail/b_tail apply for
    every n > P and may reference the single free variable n.  The three
    expressions are compiled once, here, and take no part in equality,
    hashing or repr.  Building an invalid spec raises SpecValidationError.
    """

    name: str
    b0: Expr
    a_tail: Expr
    b_tail: Expr
    prefix: tuple[TermPair, ...] = ()
    _b0_at: Compiled = field(init=False, repr=False, compare=False)
    _a_at: Compiled = field(init=False, repr=False, compare=False)
    _b_at: Compiled = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_b0_at", compile_expr(self.b0))
        object.__setattr__(self, "_a_at", compile_expr(self.a_tail))
        object.__setattr__(self, "_b_at", compile_expr(self.b_tail))
        self.validate()

    def __reduce__(self):
        # Pickled by its fields, compiled and validated again on load: closures do not pickle.
        return (type(self), (self.name, self.b0, self.a_tail, self.b_tail, self.prefix))

    def b0_value(self) -> Fraction:
        return self._b0_at()

    def term(self, n: int) -> TermPair:
        """Exact (a_n, b_n) for n >= 1."""
        if n < 1:
            raise ValueError("terms are indexed from 1")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        env = {"n": n}
        try:
            a = self._a_at(env)
        except EvalError as exc:
            raise TermEvaluationError(n, "a", exc) from exc
        try:
            b = self._b_at(env)
        except EvalError as exc:
            raise TermEvaluationError(n, "b", exc) from exc
        return a, b

    def terms(self, through: int) -> list[TermPair]:
        """(a_n, b_n) for n = 1..through."""
        return [self.term(n) for n in range(1, through + 1)]

    def validate(self) -> None:
        """Check structural invariants; raise SpecValidationError on failure.

        A zero partial numerator a_n would silently truncate the fraction, so
        prefix entries are checked exactly and the tail is probed for the
        first VALIDATION_WINDOW indices past the prefix.  (Later indices are
        still guarded during iteration.)  Run once, by __post_init__.
        """
        def invalid(reason: str) -> SpecValidationError:
            return SpecValidationError(f"invalid formula {self.name!r}: {reason}")

        if free_vars(self.b0):
            raise invalid(f"b0 must be constant, found free variables {sorted(free_vars(self.b0))}")
        for label, tail in (("a", self.a_tail), ("b", self.b_tail)):
            extra = free_vars(tail) - {"n"}
            if extra:
                raise invalid(f"{label}(n) may only use the variable n, found {sorted(extra)}")
        for i, (a, _b) in enumerate(self.prefix, start=1):
            if a == 0:
                raise invalid(f"prefix partial numerator a_{i} is zero")
        start = len(self.prefix) + 1
        for n in range(start, start + VALIDATION_WINDOW):
            try:
                a, _b = self.term(n)
            except TermEvaluationError as exc:
                raise invalid(str(exc)) from exc
            if a == 0:
                raise invalid(f"partial numerator a(n) is zero at n = {n}")


@dataclass(frozen=True)
class Convergent:
    """Index n with raw recurrence values and the reduced value A_n/B_n."""

    n: int
    A: Fraction
    B: Fraction
    value: Fraction | None  # None iff B == 0


class LimitVerdict(str, Enum):
    CONVERGED = "converged"
    MAX_TERMS_REACHED = "maxTermsReached"
    DIVERGENCE_SUSPECTED = "divergenceSuspected"
    UNDEFINED_DENOMINATORS = "undefinedDenominators"


@dataclass(frozen=True)
class LimitEstimate:
    """Decimalized limit estimate with its stopping diagnostics.

    `value` is the truncated decimal of the last convergent used, with
    `digits` fractional digits; `value_exact` keeps the underlying rational.
    `error_bound` is the exact last gap |z_n - z_{n-1}|, the (heuristic)
    error certificate behind the digit claim.
    """

    value: str
    digits: int
    value_exact: Fraction | None
    value_is_exact: bool
    error_bound: Fraction | None
    n_used: int
    verdict: LimitVerdict


def fold_terms(b0_value: Fraction, terms: Iterable[TermPair]) -> Iterator[Convergent]:
    """Run the fundamental recurrence over explicit term values.

    Yields the convergent of index 0 first, then one per consumed term.
    Raises SpecValidationError if a partial numerator is zero.
    """
    a_prev2, a_prev = Fraction(1), Fraction(b0_value)  # A_{-1}, A_0
    b_prev2, b_prev = Fraction(0), Fraction(1)  # B_{-1}, B_0
    yield Convergent(0, a_prev, b_prev, a_prev / b_prev)
    for n, (a, b) in enumerate(terms, start=1):
        if a == 0:
            raise SpecValidationError(f"partial numerator a_{n} is zero")
        a_cur = b * a_prev + a * a_prev2
        b_cur = b * b_prev + a * b_prev2
        value = a_cur / b_cur if b_cur != 0 else None
        yield Convergent(n, a_cur, b_cur, value)
        a_prev2, a_prev = a_prev, a_cur
        b_prev2, b_prev = b_prev, b_cur


def convergents_from_terms(
    b0_value: Fraction, terms: Sequence[TermPair]
) -> list[Convergent]:
    """Convergents 0..len(terms) for an explicit table of terms."""
    return list(fold_terms(b0_value, terms))


def convergents(spec: FormulaSpec, up_to: int) -> list[Convergent]:
    """Exact convergents of indices 0..up_to (one recurrence step each)."""
    if up_to < 0:
        raise ValueError("up_to must be >= 0")
    return list(fold_terms(spec.b0_value(), map(spec.term, range(1, up_to + 1))))


def nested_eval_oracle(spec: FormulaSpec, depth: int) -> Fraction | None:
    """Evaluate the depth-truncated fraction literally, innermost term first.

    Independent of the recurrence: returns the same value as
    convergents(spec, depth)[depth].value whenever every intermediate
    denominator is nonzero, and None when one of them hits zero (which is a
    different event from B_n = 0 in the recurrence).
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth == 0:
        return spec.b0_value()
    pairs = spec.terms(depth)
    acc = pairs[-1][1]  # b_depth
    for k in range(depth, 1, -1):
        a_k = pairs[k - 1][0]
        if acc == 0:
            return None
        acc = pairs[k - 2][1] + a_k / acc
    if acc == 0:
        return None
    return spec.b0_value() + pairs[0][0] / acc


def estimate_limit(spec: FormulaSpec, max_n: int, target_digits: int) -> LimitEstimate:
    """Drive the recurrence until the gap |z_n - z_{n-1}| settles.

    Converged means three consecutive gaps below 10^-(target_digits + 2).
    Otherwise, after max_n terms the verdict is a labeled heuristic:
    divergenceSuspected when the minimum gap over the last ten indices
    exceeds the minimum over the first ten, undefinedDenominators when some
    B_n = 0 occurred within the last five indices, else maxTermsReached.
    """
    if max_n < 3:
        raise ValueError("max_n must be >= 3")
    if target_digits < 1:
        raise ValueError("target_digits must be >= 1")
    threshold = Fraction(1, 10 ** (target_digits + 2))

    gaps: list[Fraction | None] = []
    zero_b_indices: list[int] = []
    prev_value: Fraction | None = None
    last_defined: Fraction | None = None
    last_index = 0
    consecutive = 0

    for conv in fold_terms(spec.b0_value(), map(spec.term, range(1, max_n + 1))):
        last_index = conv.n
        if conv.B == 0:
            zero_b_indices.append(conv.n)
        if conv.value is not None:
            last_defined = conv.value
        if conv.n >= 1:
            gap = (
                abs(conv.value - prev_value)
                if conv.value is not None and prev_value is not None
                else None
            )
            gaps.append(gap)
            if gap is not None and gap < threshold:
                consecutive += 1
            else:
                consecutive = 0
            if consecutive >= 3:
                text, exact = decimal_string(conv.value, target_digits)
                return LimitEstimate(
                    value=text,
                    digits=target_digits,
                    value_exact=conv.value,
                    value_is_exact=exact,
                    error_bound=gap,
                    n_used=conv.n,
                    verdict=LimitVerdict.CONVERGED,
                )
        prev_value = conv.value

    verdict = LimitVerdict.MAX_TERMS_REACHED
    head = [g for g in gaps[:10] if g is not None]
    tail = [g for g in gaps[-10:] if g is not None]
    if head and tail and min(tail) > min(head):
        verdict = LimitVerdict.DIVERGENCE_SUSPECTED
    elif any(i > last_index - 5 for i in zero_b_indices):
        verdict = LimitVerdict.UNDEFINED_DENOMINATORS

    defined_gaps = [g for g in gaps if g is not None]
    if last_defined is not None:
        text, exact = decimal_string(last_defined, target_digits)
    else:  # unreachable in practice: z_0 = b0 is always defined
        text, exact = "", True
    return LimitEstimate(
        value=text,
        digits=target_digits,
        value_exact=last_defined,
        value_is_exact=exact,
        error_bound=defined_gaps[-1] if defined_gaps else None,
        n_used=last_index,
        verdict=verdict,
    )


def spec_summary(spec: FormulaSpec) -> str:
    """One-line human description of a spec."""
    parts = [f"b0 = {render(spec.b0)}"]
    for i, (a, b) in enumerate(spec.prefix, start=1):
        parts.append(f"(a_{i}, b_{i}) = ({a}, {b})")
    parts.append(f"a(n) = {render(spec.a_tail)}")
    parts.append(f"b(n) = {render(spec.b_tail)} for n > {len(spec.prefix)}")
    return f"{spec.name}: " + "; ".join(parts)
