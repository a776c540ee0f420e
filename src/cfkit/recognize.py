"""Certified computation of e and recognition of limits as Möbius forms of e.

Every comparison runs through closed rational intervals that provably
bracket the real value in question; no decimal is ever trusted beyond its
interval.  The constant family is (p*e + q)/(r*e + s) with integer
coefficients, which covers e itself, all rationals (p = r = 0), and the
small Möbius combinations a discovered limit is usually one of.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import expr as ex


class RecognitionError(Exception):
    """An interval operation cannot be certified (e.g. denominator spans 0)."""


@dataclass(frozen=True)
class Interval:
    """Closed interval [lower, upper] of exact rationals."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"empty interval: {self.lower} > {self.upper}")

    @staticmethod
    def point(value: Fraction | int) -> "Interval":
        v = Fraction(value)
        return Interval(v, v)

    @staticmethod
    def around(center: Fraction, halfwidth: Fraction) -> "Interval":
        if halfwidth < 0:
            raise ValueError("halfwidth must be >= 0")
        return Interval(center - halfwidth, center + halfwidth)

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def contains(self, value: Fraction) -> bool:
        return self.lower <= value <= self.upper

    def encloses(self, other: "Interval") -> bool:
        return self.lower <= other.lower and other.upper <= self.upper

    def intersects(self, other: "Interval") -> bool:
        return self.lower <= other.upper and other.lower <= self.upper

    def scale_add(self, k: int, offset: int) -> "Interval":
        """Image under x -> k*x + offset (exact)."""
        lo, hi = k * self.lower + offset, k * self.upper + offset
        return Interval(min(lo, hi), max(lo, hi))

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.lower <= 0 <= other.upper:
            raise RecognitionError("division by an interval containing zero")
        quotients = [n / d for n in (self.lower, self.upper) for d in (other.lower, other.upper)]
        return Interval(min(quotients), max(quotients))


@functools.lru_cache(maxsize=64)
def e_high_precision(digits: int) -> Interval:
    """Certified enclosure of e with width below 10^-(digits + 2).

    Uses the partial sum S_m of the reciprocal-factorial series with the
    elementary tail bound 0 < e - S_m < 2/(m+1)!, taking the smallest m that
    pushes the bound under the target.  Enclosures nest: more digits always
    give a sub-interval.  Results are cached by `digits` (an Interval is
    immutable, so every caller may share one).
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    tolerance = Fraction(1, 10 ** (digits + 2))
    m = 1
    while Fraction(2, math.factorial(m + 1)) >= tolerance:
        m += 1
    total = Fraction(0)
    term = Fraction(1)  # 1/k! for the running k
    for k in range(1, m + 1):
        total += term
        term /= k
    total += term
    return Interval(total, total + Fraction(2, math.factorial(m + 1)))


@dataclass(frozen=True)
class ConstantExpr:
    """The constant (p*e + q)/(r*e + s); rationals are (0, q, 0, s).

    Instances are normalized on construction: gcd(p, q, r, s) = 1 and the
    first nonzero coefficient is positive, so equal constants written with
    proportional coefficients compare equal.
    """

    p: int
    q: int
    r: int
    s: int

    def __post_init__(self):
        if (self.r, self.s) == (0, 0):
            raise ValueError("denominator coefficients r, s must not both be zero")
        coeffs = (self.p, self.q, self.r, self.s)
        g = math.gcd(*coeffs)
        first = next(c for c in coeffs if c != 0)
        if first < 0:
            g = -g
        if g != 1:
            object.__setattr__(self, "p", self.p // g)
            object.__setattr__(self, "q", self.q // g)
            object.__setattr__(self, "r", self.r // g)
            object.__setattr__(self, "s", self.s // g)

    @property
    def l1_norm(self) -> int:
        return abs(self.p) + abs(self.q) + abs(self.r) + abs(self.s)

    def is_rational(self) -> bool:
        return self.p == 0 and self.r == 0

    def describe(self) -> str:
        def linear(ce: int, const: int) -> str:
            if ce == 0:
                return str(const)
            e_part = "e" if ce == 1 else ("-e" if ce == -1 else f"{ce}*e")
            if const == 0:
                return e_part
            return f"{e_part} {'+' if const > 0 else '-'} {abs(const)}"

        num = linear(self.p, self.q)
        den = linear(self.r, self.s)
        if den == "1":
            return num
        return f"({num}) / ({den})"


def mobius_value(c: ConstantExpr, e_interval: Interval) -> Interval:
    """Certified enclosure of (p*e + q)/(r*e + s) given an enclosure of e."""
    numerator = e_interval.scale_add(c.p, c.q)
    denominator = e_interval.scale_add(c.r, c.s)
    if denominator.lower <= 0 <= denominator.upper:
        raise RecognitionError(
            f"denominator {c.r}*e + {c.s} cannot be certified away from zero"
        )
    return numerator / denominator


#: Largest accepted `max_coeff`.  The cost grows with the matches as well as
#: with K^3: at this limit a narrow interval takes about 50 ms, the widest
#: `cfkit recognize --value` input (halfwidth 1/2 around 0) about a second,
#: and an interval that all 21^4 candidates meet a few seconds.
MAX_COEFF_LIMIT = 10


def recognize(value: Interval, max_coeff: int = 5, e_digits: int = 30) -> list[ConstantExpr]:
    """All Möbius-of-e constants with |coefficients| <= max_coeff that the
    input interval could equal, simplest first.

    For each denominator (r, s) and each p, the q whose certified enclosure
    can meet `value` form one integer range, solved exactly (below), so the
    cost is O(K^3) plus the matches instead of (2K+1)^4 tuples.  Every q in
    the range is confirmed by the certified test: the candidate survives
    when its enclosure intersects `value`.  Candidates whose denominator
    interval cannot be separated from zero are skipped (they cannot be
    certified at this precision).  Results are deduplicated by the
    ConstantExpr normalization and ranked by L1 coefficient norm, then
    lexicographically.  `max_coeff` must lie in [1, MAX_COEFF_LIMIT].
    """
    if max_coeff < 1:
        raise ValueError("max_coeff must be >= 1")
    if max_coeff > MAX_COEFF_LIMIT:
        raise ValueError(f"max_coeff must be <= {MAX_COEFF_LIMIT}, got {max_coeff}")
    e_int = e_high_precision(e_digits)
    lo, hi = value.lower, value.upper
    span = range(-max_coeff, max_coeff + 1)
    # p*e lies in [c_lo, c_hi], so the numerator p*e + q lies in [c_lo + q, c_hi + q]
    scaled_e = [(p, *sorted((p * e_int.lower, p * e_int.upper))) for p in span]
    seen: set[ConstantExpr] = set()
    for r, s in product(span, repeat=2):
        if (r, s) == (0, 0):
            continue
        denominator = e_int.scale_add(r, s)
        d1, d2 = denominator.lower, denominator.upper
        if d1 <= 0 <= d2:
            continue
        # The quotient is monotone in the numerator, so the hull of the four
        # corner quotients meets [lo, hi] exactly when the numerator meets
        # [num_low, num_high], that is when num_low - c_hi <= q <= num_high - c_lo.
        if d1 > 0:
            num_low, num_high = min(lo * d1, lo * d2), max(hi * d1, hi * d2)
        else:
            num_low, num_high = min(hi * d1, hi * d2), max(lo * d1, lo * d2)
        for p, c_lo, c_hi in scaled_e:
            first = max(-max_coeff, math.ceil(num_low - c_hi))
            last = min(max_coeff, math.floor(num_high - c_lo))
            for q in range(first, last + 1):
                if (e_int.scale_add(p, q) / denominator).intersects(value):
                    seen.add(ConstantExpr(p, q, r, s))
    return sorted(seen, key=lambda c: (c.l1_norm, (c.p, c.q, c.r, c.s)))


def rational_reconstruct(
    value: Interval, max_denominator: int | None = None
) -> Fraction | None:
    """The smallest-denominator rational inside the interval.

    Walks the Stern-Brocot / continued fraction structure of the interval;
    among equal minimal denominators the leftmost candidate is returned.
    With `max_denominator` set, returns None when even the minimal
    denominator exceeds it (hence no rational below the bound fits).
    """
    result = _simplest_in(value.lower, value.upper)
    if max_denominator is not None and result.denominator > max_denominator:
        return None
    return result


def _simplest_in(lo: Fraction, hi: Fraction) -> Fraction:
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -_simplest_in(-hi, -lo)
    # 0 < lo <= hi
    ceil_lo = -((-lo.numerator) // lo.denominator)
    if ceil_lo <= hi:
        return Fraction(ceil_lo)
    floor_lo = lo.numerator // lo.denominator
    tail = _simplest_in(1 / (hi - floor_lo), 1 / (lo - floor_lo))
    return floor_lo + 1 / tail


# ---------------------------------------------------------------------------
# Parsing Möbius-of-e target strings ("e", "e + 1", "(2*e+1)/(e+3)", "8/3")

#: Largest exponent k accepted in a target constant's `x^k`.  The power is
#: expanded by k polynomial products, so without a limit `e^100000` or
#: `2^100000000` hangs the parser instead of failing as bad input.
MAX_TARGET_EXPONENT = 64


def parse_constant_expr(text: str) -> ConstantExpr:
    """Read a target constant written in the DSL with the single variable e.

    The expression is interpreted in the field of rational functions of e
    and must reduce to degree <= 1 over degree <= 1.
    """
    try:
        tree = ex.parse(text)
    except ex.ParseError as exc:
        raise ValueError(f"bad target constant {text!r}: {exc}") from exc
    num, den = _as_rational_function(tree)
    if len(num) > 2 or len(den) > 2:
        raise ValueError(
            f"target {text!r} is not a Mobius form of e (degree exceeds 1)"
        )
    num = num + [Fraction(0)] * (2 - len(num))
    den = den + [Fraction(0)] * (2 - len(den))
    lcm = 1
    for coeff in (*num, *den):
        lcm = lcm * coeff.denominator // math.gcd(lcm, coeff.denominator)
    p, q = int(num[1] * lcm), int(num[0] * lcm)
    r, s = int(den[1] * lcm), int(den[0] * lcm)
    if (r, s) == (0, 0):
        raise ValueError(f"target {text!r} has a zero denominator")
    return ConstantExpr(p, q, r, s)


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_add(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return _poly_trim(out)


def _poly_trim(a: list[Fraction]) -> list[Fraction]:
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


def _as_rational_function(tree: ex.Expr) -> tuple[list[Fraction], list[Fraction]]:
    """Interpret an AST as num/den polynomial pair in the formal variable e."""
    one = [Fraction(1)]
    match tree:
        case ex.Integer(value=v):
            return [Fraction(v)], one
        case ex.Variable(name="e"):
            return [Fraction(0), Fraction(1)], one
        case ex.Variable(name=name):
            raise ValueError(f"only the constant e may appear in targets, found {name!r}")
        case ex.Negate(child=c):
            n, d = _as_rational_function(c)
            return [-x for x in n], d
        case ex.Add(left=l, right=r) | ex.Sub(left=l, right=r):
            n1, d1 = _as_rational_function(l)
            n2, d2 = _as_rational_function(r)
            if isinstance(tree, ex.Sub):
                n2 = [-x for x in n2]
            return _poly_add(_poly_mul(n1, d2), _poly_mul(n2, d1)), _poly_mul(d1, d2)
        case ex.Mul(left=l, right=r):
            n1, d1 = _as_rational_function(l)
            n2, d2 = _as_rational_function(r)
            return _poly_mul(n1, n2), _poly_mul(d1, d2)
        case ex.Div(left=l, right=r):
            n1, d1 = _as_rational_function(l)
            n2, d2 = _as_rational_function(r)
            if n2 == [Fraction(0)]:
                raise ValueError("division by zero in target constant")
            return _poly_mul(n1, d2), _poly_mul(d1, n2)
        case ex.Pow(base=b, exponent=p):
            try:
                exponent = ex.evaluate(p, {})
            except ex.EvalError as exc:
                raise ValueError(f"target exponent must be constant: {exc}") from exc
            if exponent.denominator != 1 or exponent < 0:
                raise ValueError("target exponents must be nonnegative integers")
            if exponent > MAX_TARGET_EXPONENT:
                raise ValueError(f"target exponent {exponent} exceeds {MAX_TARGET_EXPONENT}")
            n, d = one, one
            nb, db = _as_rational_function(b)
            for _ in range(int(exponent)):
                n, d = _poly_mul(n, nb), _poly_mul(d, db)
            return n, d
        case _:
            # fact/binom/sum are allowed only when fully constant
            try:
                v = ex.evaluate(tree, {})
            except ex.EvalError as exc:
                raise ValueError(f"unsupported construct in target constant: {exc}") from exc
            return [v], one
