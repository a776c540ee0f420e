"""Shared helpers: seeded random generators for expressions and specs."""

from __future__ import annotations

import functools
import importlib
import math
import random
from fractions import Fraction
from itertools import product

import pytest

from cfkit import ConstantExpr, FormulaSpec, Interval
from cfkit import expr as ex
from cfkit.engine import Convergent, LimitEstimate, LimitVerdict, SpecValidationError
from cfkit.numeric import decimal_string

# The module, not the function the package re-exports under the same name:
# the oracle reads e_high_precision from it at call time, as recognize does.
recognize_module = importlib.import_module("cfkit.recognize")

VAR_NAMES = ("n", "k", "i", "m", "x")


def gen_expr(rng: random.Random, depth: int) -> ex.Expr:
    """Random AST over the full node grammar, at most `depth` levels deep."""
    if depth <= 0:
        if rng.random() < 0.5:
            return ex.Integer(rng.randint(0, 12))
        return ex.Variable(rng.choice(VAR_NAMES))
    kind = rng.choice(
        ("int", "var", "neg", "add", "sub", "mul", "div", "pow", "fact", "binom", "sum")
    )
    sub = lambda: gen_expr(rng, depth - 1)  # noqa: E731
    match kind:
        case "int":
            return ex.Integer(rng.randint(0, 12))
        case "var":
            return ex.Variable(rng.choice(VAR_NAMES))
        case "neg":
            return ex.Negate(sub())
        case "add":
            return ex.Add(sub(), sub())
        case "sub":
            return ex.Sub(sub(), sub())
        case "mul":
            return ex.Mul(sub(), sub())
        case "div":
            return ex.Div(sub(), sub())
        case "pow":
            return ex.Pow(sub(), sub())
        case "fact":
            return ex.Factorial(sub())
        case "binom":
            return ex.Binomial(sub(), sub())
        case _:
            return ex.BoundedSum(rng.choice(VAR_NAMES), sub(), sub(), sub())


def gen_value_safe_expr(rng: random.Random, depth: int) -> ex.Expr:
    """Random AST kept evaluation-friendly.

    Exponents, factorial/binomial arguments and sum bounds are small literal
    leaves, so evaluating at small bindings cannot blow up.  (gen_expr has no
    such limits and is only meant for parse/render round-trips.)
    """
    if depth <= 0:
        if rng.random() < 0.5:
            return ex.Integer(rng.randint(0, 9))
        return ex.Variable(rng.choice(VAR_NAMES))
    small = lambda lo, hi: ex.Integer(rng.randint(lo, hi))  # noqa: E731
    sub = lambda: gen_value_safe_expr(rng, depth - 1)  # noqa: E731
    kind = rng.choice(("int", "var", "neg", "add", "sub", "mul", "div", "pow", "fact", "binom", "sum"))
    match kind:
        case "int":
            return small(0, 9)
        case "var":
            return ex.Variable(rng.choice(VAR_NAMES))
        case "neg":
            return ex.Negate(sub())
        case "add":
            return ex.Add(sub(), sub())
        case "sub":
            return ex.Sub(sub(), sub())
        case "mul":
            return ex.Mul(sub(), sub())
        case "div":
            return ex.Div(sub(), sub())
        case "pow":
            exponent = small(0, 4) if rng.random() < 0.7 else ex.Negate(small(1, 3))
            return ex.Pow(sub(), exponent)
        case "fact":
            return ex.Factorial(small(0, 8))
        case "binom":
            return ex.Binomial(small(0, 8), rng.choice((small(0, 8), ex.Variable("k"))))
        case _:
            return ex.BoundedSum("j", small(0, 2), small(0, 5), sub())


def oracle_evaluate(expr: ex.Expr, bindings=None) -> Fraction:
    """The tree-walking evaluator `expr.compile` replaced, kept as its oracle.

    Every intermediate value is a Fraction; the result and each EvalError
    message must equal the compiled evaluator's.
    """
    return _oracle_eval(expr, {k: Fraction(v) for k, v in (bindings or {}).items()})


def _oracle_integer(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ex.EvalError(f"{what} must be an integer, got {value}")
    return value.numerator


def _oracle_eval(expr: ex.Expr, env: dict[str, Fraction]) -> Fraction:
    go = _oracle_eval
    match expr:
        case ex.Integer(value=v):
            return Fraction(v)
        case ex.Variable(name=name):
            try:
                return env[name]
            except KeyError:
                raise ex.EvalError(f"unbound variable {name!r}") from None
        case ex.Negate(child=c):
            return -go(c, env)
        case ex.Add(left=l, right=r):
            return go(l, env) + go(r, env)
        case ex.Sub(left=l, right=r):
            return go(l, env) - go(r, env)
        case ex.Mul(left=l, right=r):
            return go(l, env) * go(r, env)
        case ex.Div(left=l, right=r):
            denom = go(r, env)
            if denom == 0:
                raise ex.EvalError("division by zero")
            return go(l, env) / denom
        case ex.Pow(base=b, exponent=e):
            exponent = _oracle_integer(go(e, env), "exponent")
            base = go(b, env)
            if base == 0 and exponent < 0:
                raise ex.EvalError("negative power of zero")
            return base**exponent
        case ex.Factorial(child=c):
            v = _oracle_integer(go(c, env), "factorial argument")
            if v < 0:
                raise ex.EvalError(f"factorial of negative integer {v}")
            return Fraction(math.factorial(v))
        case ex.Binomial(top=t, bottom=b):
            top = _oracle_integer(go(t, env), "binomial top argument")
            if top < 0:
                raise ex.EvalError(f"binomial top argument must be nonnegative, got {top}")
            bottom = _oracle_integer(go(b, env), "binomial bottom argument")
            if bottom < 0 or bottom > top:
                return Fraction(0)
            return Fraction(math.comb(top, bottom))
        case ex.BoundedSum(var=var, lower=lo, upper=hi, body=body):
            lo_v = _oracle_integer(go(lo, env), "sum lower bound")
            hi_v = _oracle_integer(go(hi, env), "sum upper bound")
            total = Fraction(0)
            inner = dict(env)
            for i in range(lo_v, hi_v + 1):
                inner[var] = Fraction(i)
                total += go(body, inner)
            return total
    raise TypeError(f"not an Expr node: {expr!r}")


def oracle_recognize(value: Interval, max_coeff: int = 5, e_digits: int = 30) -> list[ConstantExpr]:
    """The (2K+1)^4 brute force `recognize` replaced, kept as its oracle.

    Every (p, q, r, s) whose denominator enclosure excludes zero is kept
    when its certified quotient enclosure meets `value`.  The enclosures
    depend only on K and e's enclosure, so each pair computes them once.
    """
    if max_coeff < 1:
        raise ValueError("max_coeff must be >= 1")
    e_int = recognize_module.e_high_precision(e_digits)
    seen = {
        ConstantExpr(*coeffs)
        for coeffs, quotient in _oracle_quotients(max_coeff, e_int)
        if quotient.intersects(value)
    }
    return sorted(seen, key=lambda c: (c.l1_norm, (c.p, c.q, c.r, c.s)))


@functools.lru_cache(maxsize=32)
def _oracle_quotients(max_coeff: int, e_int: Interval) -> list[tuple[tuple[int, ...], Interval]]:
    span = range(-max_coeff, max_coeff + 1)
    numerators = [(p, q, e_int.scale_add(p, q)) for p, q in product(span, repeat=2)]
    quotients = []
    for r, s in product(span, repeat=2):
        if (r, s) == (0, 0):
            continue
        denominator = e_int.scale_add(r, s)
        if denominator.lower <= 0 <= denominator.upper:
            continue
        for p, q, numerator in numerators:
            quotients.append(((p, q, r, s), numerator / denominator))
    return quotients


def oracle_fold_terms(b0_value, terms):
    """The Fraction-state fold `engine.fold_terms` replaced, kept as its oracle.

    A_n and B_n are Fractions and z_n is reduced at every step.
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


def oracle_estimate_limit(spec: FormulaSpec, max_n: int, target_digits: int) -> LimitEstimate:
    """The `engine.estimate_limit` that reduced every z_n, kept as its oracle.

    Each gap is |z_n - z_{n-1}| of the reduced values, compared as a Fraction.
    """
    if max_n < 3:
        raise ValueError("max_n must be >= 3")
    if target_digits < 1:
        raise ValueError("target_digits must be >= 1")
    threshold = Fraction(1, 10 ** (target_digits + 2))

    gaps: list[Fraction | None] = []
    zero_b_indices: list[int] = []
    prev_value: Fraction | None = None
    last_defined = Fraction(spec.b0_value())  # z_0 = b0 is always defined
    last_index = 0
    consecutive = 0

    for conv in oracle_fold_terms(last_defined, map(spec.term, range(1, max_n + 1))):
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
    text, exact = decimal_string(last_defined, target_digits)
    return LimitEstimate(
        value=text,
        digits=target_digits,
        value_exact=last_defined,
        value_is_exact=exact,
        error_bound=defined_gaps[-1] if defined_gaps else None,
        n_used=last_index,
        verdict=verdict,
    )


def _nonzero_fraction(rng: random.Random, lo: int = 1, hi: int = 3) -> Fraction:
    value = Fraction(rng.randint(lo, hi), rng.randint(1, 3))
    return -value if rng.random() < 0.5 else value


def gen_positive_spec(rng: random.Random, prefix_len: int | None = None) -> FormulaSpec:
    """Random spec with strictly positive terms.

    Positive a_n and b_n keep every intermediate denominator of the nested
    evaluation positive, so the oracle is defined at every depth.
    """
    n = ex.Variable("n")
    a_choices = [
        ex.Integer(rng.randint(1, 4)),
        ex.Add(n, ex.Integer(rng.randint(0, 3))),
        ex.Div(ex.Integer(rng.randint(1, 4)), n),
        ex.Mul(ex.Integer(rng.randint(1, 3)), n),
    ]
    b_choices = [
        ex.Integer(rng.randint(1, 4)),
        ex.Add(n, ex.Integer(rng.randint(0, 3))),
        n,
        ex.Div(ex.Integer(rng.randint(1, 3)), n),
    ]
    if prefix_len is None:
        prefix_len = rng.randint(0, 2)
    prefix = tuple(
        (abs(_nonzero_fraction(rng)), Fraction(rng.randint(1, 4), rng.randint(1, 2)))
        for _ in range(prefix_len)
    )
    return FormulaSpec(
        name=f"random_{rng.randint(0, 10**6)}",
        b0=ex.Integer(rng.randint(0, 5)),
        a_tail=rng.choice(a_choices),
        b_tail=rng.choice(b_choices),
        prefix=prefix,
    )


def gen_mixed_spec(rng: random.Random) -> FormulaSpec:
    """Random spec whose terms may be negative (denominators may vanish)."""
    base = gen_positive_spec(rng)
    a_tail = ex.Negate(base.a_tail) if rng.random() < 0.5 else base.a_tail
    b_tail = ex.Negate(base.b_tail) if rng.random() < 0.5 else base.b_tail
    prefix = tuple(
        (_nonzero_fraction(rng), Fraction(rng.randint(-2, 2)))
        for _ in range(rng.randint(0, 2))
    )
    return FormulaSpec(base.name, base.b0, a_tail, b_tail, prefix)


def replace_integer_node(expr: ex.Expr, index: int, new_value: int) -> ex.Expr:
    """Rebuild the tree with the index-th Integer leaf (preorder) replaced.

    Leaves are numbered in the order `ex.walk` yields them.  Negative
    replacements become Negate(Integer(-v)) so the tree stays valid.
    """
    seen = 0

    def go(e: ex.Expr) -> ex.Expr:
        nonlocal seen
        if isinstance(e, ex.Integer):
            seen += 1
            if seen - 1 != index:
                return e
            return ex.Integer(new_value) if new_value >= 0 else ex.Negate(ex.Integer(-new_value))
        return ex.rebuild(e, [go(kid) for kid in ex.children(e)])

    return go(expr)


def count_integer_nodes(expr: ex.Expr) -> int:
    return sum(1 for node in ex.walk(expr) if isinstance(node, ex.Integer))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
