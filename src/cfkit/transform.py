"""Equivalence transformations between presentations of the same fraction.

Rescaling the terms by a nonzero sequence c_n (with c_0 = 1) sends

    a_n  ->  c_n * c_{n-1} * a_n        b_n  ->  c_n * b_n

and leaves every convergent value z_n unchanged: A_n and B_n each pick up
the factor c_1 * ... * c_n, which cancels in the quotient.  The expression
form builds the scaled tails as unsimplified symbolic products; the table
form works on explicit exact term values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import expr as ex
from .engine import FormulaSpec, TermPair

#: Indices 1..SCALING_CHECK_WINDOW at which an expression scaling is
#: validated to be nonzero before it is applied.
SCALING_CHECK_WINDOW = 100


class ScalingError(Exception):
    """The scaling sequence is unusable (zero entry or shape mismatch)."""


def substitute(e: ex.Expr, name: str, replacement: ex.Expr) -> ex.Expr:
    """Structurally replace free occurrences of a variable.

    Pure tree construction: no simplification is performed.  A bounded sum
    whose variable shadows `name` keeps its body untouched (bounds are
    evaluated in the enclosing scope and are always rewritten).
    """
    match e:
        case ex.Variable(name=n):
            return replacement if n == name else e
        case ex.BoundedSum(var=v, lower=lo, upper=hi, body=body) if v == name:
            return ex.BoundedSum(
                v, substitute(lo, name, replacement), substitute(hi, name, replacement), body
            )
    return ex.rebuild(e, [substitute(kid, name, replacement) for kid in ex.children(e)])


def _scaling_value(c_at: ex.Compiled, n: int) -> Fraction:
    # c_0 = 1 by convention: the leading term b0 is never rescaled.
    if n == 0:
        return Fraction(1)
    return c_at({"n": n})


def apply_scaling_expr(spec: FormulaSpec, c: ex.Expr) -> FormulaSpec:
    """Scale a formula by an expression c(n); values z_n are preserved.

    The result's prefix covers indices 1..max(1, P): index 1 must be scaled
    with the conventional c_0 = 1 rather than with c evaluated at 0, so it is
    materialized as an exact pair.  Tail expressions become the literal
    symbolic products c(n) * c(n-1) * a(n) and c(n) * b(n).
    """
    extra = ex.free_vars(c) - {"n"}
    if extra:
        raise ScalingError(f"scaling may only use the variable n, found {sorted(extra)}")
    c_at = ex.compile(c)
    probe_hi = max(SCALING_CHECK_WINDOW, len(spec.prefix) + 1)
    for n in range(1, probe_hi + 1):
        try:
            value = _scaling_value(c_at, n)
        except ex.EvalError as exc:
            raise ScalingError(f"scaling undefined at n = {n}: {exc}") from exc
        if value == 0:
            raise ScalingError(f"scaling evaluates to zero at n = {n}")

    prefix_len = max(1, len(spec.prefix))
    new_prefix = []
    for i in range(1, prefix_len + 1):
        a_i, b_i = spec.term(i)
        new_prefix.append((_scaling_value(c_at, i) * _scaling_value(c_at, i - 1) * a_i,
                           _scaling_value(c_at, i) * b_i))

    c_shift = substitute(c, "n", ex.Sub(ex.Variable("n"), ex.Integer(1)))
    a_tail = ex.Mul(ex.Mul(c, c_shift), spec.a_tail)
    b_tail = ex.Mul(c, spec.b_tail)
    return FormulaSpec(
        name=f"{spec.name}_scaled",
        b0=spec.b0,
        a_tail=a_tail,
        b_tail=b_tail,
        prefix=tuple(new_prefix),
    )


def apply_scaling_table(
    terms: Sequence[TermPair], c: Sequence[Fraction]
) -> list[TermPair]:
    """Scale explicit terms (a_n, b_n), n = 1..N, by the table c_1..c_N."""
    if len(terms) != len(c):
        raise ScalingError(f"{len(terms)} terms but {len(c)} scaling entries")
    for i, value in enumerate(c, start=1):
        if value == 0:
            raise ScalingError(f"scaling entry c_{i} is zero")
    out: list[TermPair] = []
    prev = Fraction(1)  # c_0
    for (a, b), cur in zip(terms, c):
        out.append((cur * prev * a, cur * b))
        prev = cur
    return out


def unitize_partial_numerators(
    terms: Sequence[TermPair],
) -> tuple[list[TermPair], list[Fraction]]:
    """Rescale so every partial numerator becomes 1.

    Uses c_n = 1 / (a_n * c_{n-1}); returns the new terms and the c table
    for audit.  Fails when some a_n = 0 (no scaling can fix a collapsed
    fraction).
    """
    c: list[Fraction] = []
    prev = Fraction(1)
    for i, (a, _b) in enumerate(terms, start=1):
        if a == 0:
            raise ScalingError(f"partial numerator a_{i} is zero; cannot unitize")
        cur = 1 / (a * prev)
        c.append(cur)
        prev = cur
    return apply_scaling_table(terms, c), c
