"""Reference computations for checking cfkit's outputs, independent of cfkit.

Nothing here imports cfkit.  A continued fraction is described by the
benchmark's own coefficient lists (see `Frac`), its terms are evaluated with
plain integers and `Fraction`, and the recurrence runs on integer state:

    A_n = PA_n / (v * Q_n),  B_n = PB_n / Q_n,  Q_n = delta_1 * ... * delta_n

where b0 = u / v and delta_n is a common denominator of a_n and b_n.  With
a_n = alpha_n / delta_n and b_n = beta_n / delta_n the recurrence becomes

    P_n = beta_n * P_(n-1) + alpha_n * delta_(n-1) * P_(n-2)

so no gcd is taken while folding; comparisons with cfkit's reduced
fractions are made by cross-multiplication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product


# ---------------------------------------------------------------------------
# Tail terms: a polynomial over n^k


@dataclass(frozen=True)
class Tail:
    """The term P(n) / n^shift, P given by integer coefficients, lowest first."""

    coeffs: tuple[int, ...]
    shift: int = 0

    def at(self, n: int) -> Fraction:
        value = 0
        for c in reversed(self.coeffs):
            value = value * n + c
        return Fraction(value, n**self.shift)

    def text(self) -> str:
        """The term in cfkit's DSL."""
        parts = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                var = "n" if power == 1 else f"n^{power}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        poly = " ".join(parts) if parts else "0"
        if self.shift == 0:
            return poly
        den = "n" if self.shift == 1 else f"n^{self.shift}"
        return f"({poly})/{den}"

    def has_positive_integer_root(self) -> bool:
        """True when P(n) = 0 for some integer n >= 1 (Cauchy root bound)."""
        coeffs = list(self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            return True
        bound = 2 + max((abs(c) for c in coeffs[:-1]), default=0) // abs(coeffs[-1])
        return any(Tail(tuple(coeffs)).at(n) == 0 for n in range(1, bound + 1))


@dataclass(frozen=True)
class Frac:
    """b0 + a_1/(b_1 + a_2/(b_2 + ...)) with an explicit prefix, then tails."""

    name: str
    b0: Fraction
    a: Tail
    b: Tail
    prefix: tuple[tuple[Fraction, Fraction], ...] = ()

    def term(self, n: int) -> tuple[Fraction, Fraction]:
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.a.at(n), self.b.at(n)

    def text(self) -> str:
        """The fraction in cfkit's formula-file format."""
        lines = [f'name = "{self.name}"', f'b0 = "{_q(self.b0)}"']
        lines += [f'prefix = "{a}, {b}"' for a, b in self.prefix]
        lines += [f'a = "{self.a.text()}"', f'b = "{self.b.text()}"']
        return "\n".join(lines) + "\n"


def _q(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator) if value >= 0 else f"-{-value.numerator}"
    return f"{value.numerator}/{value.denominator}"


#: The three bundled fixtures, as the benchmark's own coefficient lists.
FIXTURES = {
    "e_cf1": Frac("e_cf1", Fraction(2), Tail((-1, 1)), Tail((0, 1)), ((Fraction(1), Fraction(1)),)),
    "e_cf1t": Frac("e_cf1t", Fraction(2), Tail((1,), 1), Tail((1,))),
    "e_cf2": Frac("e_cf2", Fraction(3), Tail((0, -1)), Tail((3, 1))),
}


# ---------------------------------------------------------------------------
# The recurrence on integer state


@dataclass(frozen=True)
class State:
    """Convergent n as A_n = pa / (v q), B_n = pb / q."""

    n: int
    pa: int
    pb: int
    q: int
    v: int


def fold(frac: Frac, up_to: int):
    """Yield State for n = 0..up_to."""
    v = frac.b0.denominator
    pa2, pa1 = v, frac.b0.numerator  # v * A_{-1}, v * A_0
    pb2, pb1 = 0, 1
    q, delta_prev = 1, 1
    yield State(0, pa1, pb1, q, v)
    for n in range(1, up_to + 1):
        a, b = frac.term(n)
        delta = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
        alpha = a.numerator * (delta // a.denominator)
        beta = b.numerator * (delta // b.denominator)
        scale = alpha * delta_prev
        pa2, pa1 = pa1, beta * pa1 + scale * pa2
        pb2, pb1 = pb1, beta * pb1 + scale * pb2
        q *= delta
        delta_prev = delta
        yield State(n, pa1, pb1, q, v)


def equals(x: Fraction, num: int, den: int) -> bool:
    """x == num/den exactly, for a nonzero den.

    x is in lowest terms, so num/den equals it exactly when den = g * x's
    denominator and num = g * x's numerator for one integer g.  That costs
    a division with a small quotient instead of two products of large
    numbers.
    """
    if den < 0:
        num, den = -num, -den
    g, r = divmod(den, x.denominator)
    return r == 0 and num == x.numerator * g


def same_convergent(conv, st: State) -> bool:
    """cfkit Convergent (n, A, B, value) equals the oracle state exactly."""
    if conv.n != st.n:
        return False
    if not equals(conv.A, st.pa, st.v * st.q) or not equals(conv.B, st.pb, st.q):
        return False
    if st.pb == 0:
        return conv.value is None
    return conv.value is not None and equals(conv.value, st.pa, st.v * st.pb)


def check_convergents(frac: Frac, rows) -> bool:
    """A cfkit convergents(spec, N) list against the oracle, every row."""
    states = fold(frac, len(rows) - 1)
    return all(same_convergent(conv, st) for conv, st in zip(rows, states))


def value_of(st: State) -> Fraction | None:
    return None if st.pb == 0 else Fraction(st.pa, st.v * st.pb)


def raw_sequences(frac: Frac, up_to: int) -> tuple[list[Fraction], list[Fraction]]:
    """A_n and B_n for n = 0..up_to as exact rationals."""
    a_seq, b_seq = [], []
    for st in fold(frac, up_to):
        a_seq.append(Fraction(st.pa, st.v * st.q))
        b_seq.append(Fraction(st.pb, st.q))
    return a_seq, b_seq


# ---------------------------------------------------------------------------
# Limit estimation (the documented stopping rule, converged case only)


@dataclass(frozen=True)
class Estimate:
    n_used: int
    value: Fraction
    gap: Fraction
    digits: int


def estimate(frac: Frac, max_n: int, digits: int) -> Estimate | None:
    """Stop at the third consecutive gap below 10^-(digits + 2).

    Gaps are compared by cross-multiplication:
    |z_n - z_(n-1)| = |pa_n pb_(n-1) - pa_(n-1) pb_n| / (v |pb_n pb_(n-1)|).
    Returns None when the rule does not stop by max_n.
    """
    scale = 10 ** (digits + 2)
    prev = None
    run = 0
    for st in fold(frac, max_n):
        if st.n >= 1:
            if prev is not None and prev.pb != 0 and st.pb != 0:
                num = abs(st.pa * prev.pb - prev.pa * st.pb)
                den = st.v * abs(st.pb * prev.pb)
                run = run + 1 if num * scale < den else 0
                if run >= 3:
                    return Estimate(st.n, value_of(st), Fraction(num, den), digits)
            else:
                run = 0
        prev = st
    return None


def decimal_truncated(value: Fraction, digits: int) -> tuple[str, bool]:
    """Truncation toward zero to `digits` fractional digits, and exactness."""
    sign = "-" if value < 0 else ""
    whole, rest = divmod(abs(value.numerator) * 10**digits, value.denominator)
    if digits == 0:
        return sign + str(whole), rest == 0
    text = str(whole).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}", rest == 0


def decimal_ceiling(value: Fraction, digits: int) -> str:
    """Decimal text of a nonnegative value, rounded up at `digits` places."""
    whole = -((-value.numerator * 10**digits) // value.denominator)
    if digits == 0:
        return str(whole)
    text = str(whole).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


def check_estimate(est, ref: Estimate | None) -> bool:
    """A cfkit LimitEstimate against the oracle (converged verdict)."""
    if ref is None:
        return False
    text, exact = decimal_truncated(ref.value, ref.digits)
    return (
        est.verdict.value == "converged"
        and est.n_used == ref.n_used
        and est.value_exact == ref.value
        and est.error_bound == ref.gap
        and est.value == text
        and est.value_is_exact == exact
        and est.digits == ref.digits
    )


# ---------------------------------------------------------------------------
# Certified e and Mobius constants


def e_enclosure(digits: int) -> tuple[int, int, int]:
    """(L, U, D) with e in [L/D, U/D] and width 2/D below 10^-(digits + 2).

    S_m = sum_{k<=m} 1/k! and 0 < e - S_m < 2/(m+1)! for the smallest such m,
    written over the common denominator D = (m+1)!.
    """
    m = 1
    while 2 * 10 ** (digits + 2) >= math.factorial(m + 1):
        m += 1
    d = math.factorial(m + 1)
    low = sum(d // math.factorial(k) for k in range(m + 1))
    return low, low + 2, d


def normalize(p: int, q: int, r: int, s: int) -> tuple[int, int, int, int]:
    """Coefficients divided by their gcd, first nonzero one positive."""
    g = math.gcd(p, q, r, s)
    first = next(c for c in (p, q, r, s) if c != 0)
    if first < 0:
        g = -g
    return p // g, q // g, r // g, s // g


def mobius_enclosure(c: tuple[int, int, int, int], digits: int) -> tuple[Fraction, Fraction]:
    """Interval-arithmetic enclosure of (pe + q)/(re + s), as cfkit forms it."""
    p, q, r, s = c
    low, high, d = e_enclosure(digits)
    nums = (p * low + q * d, p * high + q * d)
    dens = (r * low + s * d, r * high + s * d)
    if min(dens) <= 0 <= max(dens):
        raise ValueError("denominator interval contains zero")
    quotients = [Fraction(x, y) for x in nums for y in dens]
    return min(quotients), max(quotients)


def recognize(lower: Fraction, upper: Fraction, max_coeff: int, e_digits: int) -> list[tuple[int, int, int, int]]:
    """Every normalized (p, q, r, s), |coefficients| <= max_coeff, whose
    interval-arithmetic enclosure meets [lower, upper], simplest first.

    Brute force on integers: a corner x/y of the quotient enclosure is
    <= upper = U1/U2 iff x*U2 <= U1*y when y > 0 (reversed when y < 0).
    """
    low, high, d = e_enclosure(e_digits)
    u1, u2 = upper.numerator, upper.denominator
    l1, l2 = lower.numerator, lower.denominator
    span = range(-max_coeff, max_coeff + 1)
    nums = [(p, q, (p * low + q * d, p * high + q * d)) for p, q in product(span, repeat=2)]
    nums = [(p, q, xs, [x * u2 for x in xs], [x * l2 for x in xs]) for p, q, xs in nums]
    found = set()
    for r, s in product(span, repeat=2):
        ys = (r * low + s * d, r * high + s * d)
        if min(ys) <= 0 <= max(ys):
            continue
        sign = 1 if ys[0] > 0 else -1
        ys_u = [sign * u1 * y for y in ys]
        ys_l = [sign * l1 * y for y in ys]
        for p, q, _xs, xs_u, xs_l in nums:
            below = any(sign * xu <= yu for xu in xs_u for yu in ys_u)
            above = any(sign * xl >= yl for xl in xs_l for yl in ys_l)
            if below and above:
                found.add(normalize(p, q, r, s))
    return sorted(found, key=lambda c: (sum(map(abs, c)), c))


def shifted_scaled_e_cf2(shift: int, scale: int) -> tuple[Frac, tuple[int, int, int, int]]:
    """e_cf2 with b0 shifted by `shift` and a_1 scaled by `scale`, and its limit.

    b0' + scale * (z - b0) with z = e and b0 = 3 gives
    scale * e + (3 + shift - 3 * scale), an affine Mobius constant of e.
    """
    base = FIXTURES["e_cf2"]
    frac = Frac(
        f"e_cf2_s{shift}_x{scale}".replace("-", "m"),
        base.b0 + shift,
        base.a,
        base.b,
        ((Fraction(-scale), Fraction(4)),),
    )
    return frac, normalize(scale, 3 + shift - 3 * scale, 0, 1)


def limit_check(frac: Frac, target: tuple[int, int, int, int], digits: int, max_n: int):
    """(outcome, worst) of comparing the limit with a target constant.

    Mirrors the documented rule: the estimate interval z +- gap against the
    certified target enclosure at digits + 2, pass iff the worst-case
    distance is below 10^-digits.
    """
    ref = estimate(frac, max_n, digits)
    if ref is None:
        return "indeterminate", None
    t_low, t_high = mobius_enclosure(target, digits + 2)
    worst = max(t_high - (ref.value - ref.gap), (ref.value + ref.gap) - t_low)
    return ("pass" if worst < Fraction(1, 10**digits) else "fail"), worst


# ---------------------------------------------------------------------------
# The paper's closed forms, as straight-line integer code


def closed_form_value(name: str, n: int) -> Fraction:
    if name == "cf1t_A":  # A_n = n + 2
        return Fraction(n + 2)
    if name == "cf1t_B":  # B_n = (n + 2) * sum_{i=2}^{n+2} (-1)^i / i!
        top = math.factorial(n + 2)
        total = sum((-1) ** i * (top // math.factorial(i)) for i in range(2, n + 3))
        return Fraction((n + 2) * total, top)
    if name == "cf2_B":  # B_n = (n + 1) (n + 1)!
        return Fraction((n + 1) * math.factorial(n + 1))
    if name == "cf2_A":  # A_n = sum_{k=0}^{n+1} (k + 1)! binom(n + 1, k)
        return Fraction(sum(math.factorial(k + 1) * math.comb(n + 1, k) for k in range(n + 2)))
    raise KeyError(name)
