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
literally.  The fold runs on integer state: with v the denominator of b0 and
Q_n the product of the common denominators of (a_k, b_k) for k <= n,

    A_n = PA_n / (v * Q_n)        B_n = PB_n / Q_n

where PA_n and PB_n are integers following the same recurrence, so a step
costs a few integer products and no gcd; A_n and B_n are built from that
state, for free when v = Q_n = 1.  The convergent value z_n = A_n/B_n is
reduced only on its first read, and is absent when B_n = 0.  estimate_limit
never reduces it to test a gap: it uses the determinant identity

    |z_n - z_{n-1}| = |a_1 * ... * a_n| / |B_n * B_{n-1}|

and compares with its threshold by cross-multiplying integers.

One evaluation is a sequential fold (each term needs its two predecessors);
FormulaSpec values are immutable and a Convergent only ever caches its own
value, so independent fractions can be evaluated on separate threads freely.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import tee
from math import lcm
from types import EllipsisType
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
    """Index n with raw recurrence values A_n, B_n and the value z_n = A_n/B_n.

    `value` is z_n in lowest terms, None iff B_n = 0.  fold_terms leaves it
    unread: it is reduced on its first read and kept, because the reduction
    (a gcd of two numbers as large as A_n and B_n) costs far more than the
    recurrence step, and most callers read z_n at a few indices only.  A
    value passed as the fourth argument is kept as given.
    """

    n: int
    A: Fraction
    B: Fraction
    _value: Fraction | None | EllipsisType = field(default=..., repr=False, compare=False)

    @property
    def value(self) -> Fraction | None:
        if self._value is ...:
            object.__setattr__(self, "_value", self.A / self.B if self.B else None)
        return self._value


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
    value_exact: Fraction
    value_is_exact: bool
    error_bound: Fraction | None
    n_used: int
    verdict: LimitVerdict


def _over(numerator: int, denominator: int) -> Fraction:
    """numerator/denominator in lowest terms, with no gcd when the denominator is 1."""
    return Fraction(numerator) if denominator == 1 else Fraction(numerator, denominator)


def fold_terms(b0_value: Fraction, terms: Iterable[TermPair]) -> Iterator[Convergent]:
    """Run the fundamental recurrence over explicit term values.

    Yields the convergent of index 0 first, then one per consumed term.
    Raises SpecValidationError if a partial numerator is zero.
    """
    b0 = Fraction(b0_value)
    v = b0.denominator
    pa_prev2, pa_prev = v, b0.numerator  # v*A_{-1}, v*A_0
    pb_prev2, pb_prev = 0, 1  # B_{-1}, B_0
    q = delta_prev = 1  # Q_0 and its last factor
    yield Convergent(0, b0, Fraction(1), b0)
    for n, (a, b) in enumerate(terms, start=1):
        if a == 0:
            raise SpecValidationError(f"partial numerator a_{n} is zero")
        # With a_n = alpha/delta and b_n = beta/delta over delta = lcm of their
        # denominators, Q_n = delta * Q_{n-1} and Q_{n-1}/Q_{n-2} = delta_prev.
        a_den, b_den = a.denominator, b.denominator
        delta = lcm(a_den, b_den)
        beta = b.numerator * (delta // b_den)
        scale = a.numerator * (delta // a_den) * delta_prev
        pa_prev2, pa_prev = pa_prev, beta * pa_prev + scale * pa_prev2
        pb_prev2, pb_prev = pb_prev, beta * pb_prev + scale * pb_prev2
        q *= delta
        delta_prev = delta
        yield Convergent(n, _over(pa_prev, v * q), _over(pb_prev, q))


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
    Gaps come from the determinant identity and are compared without a gcd;
    only the returned value and error bound are reduced.
    """
    if max_n < 3:
        raise ValueError("max_n must be >= 3")
    if target_digits < 1:
        raise ValueError("target_digits must be >= 1")
    scale = 10 ** (target_digits + 2)

    # A gap is an unreduced (numerator, denominator > 0) pair, None where
    # z_n or z_{n-1} is undefined; it is below the threshold 10^-(digits + 2)
    # iff numerator * scale < denominator.
    head: list[tuple[int, int]] = []  # the defined gaps of n = 1..10
    tail: deque[tuple[int, int] | None] = deque(maxlen=10)  # the last ten
    last_gap: tuple[int, int] | None = None
    zero_b_indices: list[int] = []
    product_num = product_den = 1  # |a_1 * ... * a_n|
    consecutive = 0

    fold_input, term_copies = tee(map(spec.term, range(1, max_n + 1)))
    for conv in fold_terms(spec.b0_value(), fold_input):
        last_index = conv.n
        if conv.B == 0:
            zero_b_indices.append(conv.n)
        else:
            last_defined = conv  # z_0 = b0 is always defined
        if conv.n >= 1:
            a_n = next(term_copies)[0]
            product_num *= abs(a_n.numerator)
            product_den *= a_n.denominator
            gap = None
            if conv.B != 0 and prev.B != 0:
                gap = (
                    product_num * conv.B.denominator * prev.B.denominator,
                    product_den * abs(conv.B.numerator * prev.B.numerator),
                )
                last_gap = gap
            if conv.n <= 10 and gap is not None:
                head.append(gap)
            tail.append(gap)
            consecutive = consecutive + 1 if gap is not None and gap[0] * scale < gap[1] else 0
            if consecutive >= 3:
                break
        prev = conv

    if consecutive >= 3:
        verdict = LimitVerdict.CONVERGED
    else:
        verdict = LimitVerdict.MAX_TERMS_REACHED
        tail_gaps = [g for g in tail if g is not None]
        # min(tail) > min(head): every tail gap exceeds some head gap.
        if head and tail_gaps and all(
            any(h[0] * t[1] < t[0] * h[1] for h in head) for t in tail_gaps
        ):
            verdict = LimitVerdict.DIVERGENCE_SUSPECTED
        elif any(i > last_index - 5 for i in zero_b_indices):
            verdict = LimitVerdict.UNDEFINED_DENOMINATORS

    value = last_defined.value
    text, exact = decimal_string(value, target_digits)
    return LimitEstimate(
        value=text,
        digits=target_digits,
        value_exact=value,
        value_is_exact=exact,
        error_bound=Fraction(*last_gap) if last_gap is not None else None,
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
