"""Seeded workload plans: the inputs each benchmark run sends to cfkit.

A plan is plain JSON: formula texts, hypothesis texts and a list of ops.
Ops come in fixed cycles of eight, shuffled within each cycle, so every run
has the same mix of op kinds whatever the seed; the seed draws the sizes,
coefficients, targets and the order.  Each op also carries what the
benchmark needs to compute its reference (coefficient lists, constants),
never anything computed by cfkit.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from oracles import FIXTURES, Frac, Tail, e_enclosure, mobius_enclosure, normalize, shifted_scaled_e_cf2

WORKLOADS = ("fold", "closed-form", "recognize", "cli")

#: Ops drawn per plan; a run that uses them all starts again from the first.
PLAN_CYCLES = 48


def plan(workload: str, seed: int) -> dict:
    """The plan of one workload for one seed; the same seed gives the same plan."""
    rng = random.Random(f"{workload}:{seed}")
    return {"fold": _fold, "closed-form": _closed_form, "recognize": _recognize,
            "cli": _cli}[workload](rng)


class Strata:
    """Integers in [lo, hi] spread evenly over a plan.

    Each run of `parts` draws visits every one of `parts` equal sub-ranges
    once, in a seeded order, at a seeded point inside it.  Op sizes drawn
    this way cover their range alike on every seed, so the cost mix of a
    run does not hinge on a few lucky draws.
    """

    def __init__(self, rng: random.Random, lo: int, hi: int, parts: int = 8):
        self.rng, self.lo, self.hi, self.parts = rng, lo, hi, parts
        self.order: list[int] = []

    def draw(self) -> int:
        if not self.order:
            self.order = list(range(self.parts))
            self.rng.shuffle(self.order)
        width = (self.hi - self.lo + 1) / self.parts
        k = self.order.pop()
        return min(self.hi, self.lo + int((k + self.rng.random()) * width))


def _cycles(rng: random.Random, kinds: list, make) -> list[dict]:
    ops = []
    for cycle in range(PLAN_CYCLES):
        order = list(kinds)
        rng.shuffle(order)
        ops.extend(make(kind, cycle) for kind in order)
    return ops


def frac_to_json(frac: Frac) -> dict:
    """Coefficient lists for the oracle and formula-file text for cfkit."""
    return {
        "text": frac.text(),
        "name": frac.name,
        "b0": str(frac.b0),
        "a": [list(frac.a.coeffs), frac.a.shift],
        "b": [list(frac.b.coeffs), frac.b.shift],
        "prefix": [[str(a), str(b)] for a, b in frac.prefix],
    }


def frac_from_json(data: dict) -> Frac:
    return Frac(
        data["name"],
        Fraction(data["b0"]),
        Tail(tuple(data["a"][0]), data["a"][1]),
        Tail(tuple(data["b"][0]), data["b"][1]),
        tuple((Fraction(a), Fraction(b)) for a, b in data["prefix"]),
    )


# ---------------------------------------------------------------------------
# fold: tabulations, long folds, limit estimates

#: Long-fold sizes per tail family, chosen so one fold takes 0.1-0.3 s.
LONG_N = {"fixture": (1000, 1300), 1: (1300, 1500), 2: (650, 850), 3: (550, 700),
          "rational": (550, 700)}
#: Families whose validate() costs about the same; tabulations use only these,
#: so the median op is one of a like-priced group.
TAB_FAMILIES = ("fixture", 1, "rational")


def random_tail(rng: random.Random, degree: int, shift: int = 0, nonvanishing: bool = False) -> Tail:
    """Every coefficient nonzero (so the DSL text has degree + 1 terms), lead +-1."""
    while True:
        coeffs = [rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)) for _ in range(degree)]
        tail = Tail(tuple(coeffs + [rng.choice((-1, 1))]), shift)
        if not nonvanishing or not tail.has_positive_integer_root():
            return tail


def random_frac(rng: random.Random, name: str, family) -> Frac:
    """A polynomial-tail fraction whose a(n) never vanishes for n >= 1.

    Families 1-3 have integer tails a(n), b(n) of that degree; "rational"
    has a(n) = (c1 n + c0)/n and a linear b(n), as e_cf1t does.  The seed
    draws the signs and coefficients, the family fixes the shape.
    """
    if family == "rational":
        a = random_tail(rng, 1, shift=1, nonvanishing=True)
        b = random_tail(rng, 1)
    else:
        a = random_tail(rng, family, nonvanishing=True)
        b = random_tail(rng, family)
    prefix = tuple(
        (Fraction(rng.choice((-3, -2, -1, 1, 2, 3))), Fraction(rng.randint(-4, 4)))
        for _ in range(rng.randint(0, 2))
    )
    return Frac(name, Fraction(rng.randint(-3, 3)), a, b, prefix)


def _fold(rng: random.Random) -> dict:
    specs = {}
    by_family = {"fixture": sorted(FIXTURES), 1: [], 2: [], 3: [], "rational": []}
    for i, family in enumerate([1, 2, 3, "rational"] * 3):
        name = f"poly{i:02d}"
        specs[name] = frac_to_json(random_frac(rng, name, family))
        by_family[family].append(name)
    families = list(by_family)
    long_family = Strata(rng, 0, len(families) - 1, len(families))
    tab_family = Strata(rng, 0, len(TAB_FAMILIES) - 1, len(TAB_FAMILIES))
    tab_n = Strata(rng, 4, 50)
    long_n = {family: Strata(rng, *LONG_N[family]) for family in families}
    digits = Strata(rng, 10, 60)

    def make(kind, cycle):
        if kind == "tab":
            name = rng.choice(by_family[TAB_FAMILIES[tab_family.draw()]])
            return {"kind": "tab", "spec": name, "n": tab_n.draw()}
        if kind == "long":
            family = families[long_family.draw()]
            name = rng.choice(by_family[family])
            return {"kind": "long", "spec": name, "n": long_n[family].draw()}
        return {"kind": "limit", "spec": rng.choice(sorted(FIXTURES)), "max_n": 400,
                "digits": digits.draw()}

    ops = _cycles(rng, ["tab"] * 5 + ["long"] * 2 + ["limit"], make)
    return {"workload": "fold", "specs": specs, "fixtures": sorted(FIXTURES), "ops": ops}


# ---------------------------------------------------------------------------
# closed-form: the paper's four hypotheses, full passes and planted failures

HYPOTHESES = {
    "cf1t_A": ("e_cf1t", "A", "n + 2", 0),
    "cf1t_B": ("e_cf1t", "B", "(n + 2) * sum(i, 2, n + 2, (-1)^i / fact(i))", 0),
    "cf2_B": ("e_cf2", "B", "(n + 1) * fact(n + 1)", 1),
    "cf2_A": ("e_cf2", "A", "sum(k, 0, n + 1, fact(k + 1) * binom(n + 1, k))", 1),
}


def planted(hyp: str, k: int) -> str:
    """A true closed form plus binom(n, k): fails exactly at residual n = k."""
    return f"({HYPOTHESES[hyp][2]}) + binom(n, {k})"


#: n_max ranges: cheap hypotheses anywhere in 50-250; the sum hypotheses at a
#: middle and a high band, so the median and p90 ops each fall inside a
#: like-priced group of every cycle.
MID, HIGH = (80, 100), (170, 200)


def _closed_form(rng: random.Random) -> dict:
    hyps = {}
    draws = {
        "cheap": Strata(rng, 50, 250),
        "mid": Strata(rng, *MID),
        "high": Strata(rng, *HIGH),
        "planted": Strata(rng, *MID),
    }

    def make(kind, cycle):
        name, band = kind
        if band != "planted":
            hyps[name] = HYPOTHESES[name]
            return {"kind": "closed", "hyp": name, "base": name, "n_max": draws[band].draw(),
                    "fail_at": None}
        spec, side, _text, valid_from = HYPOTHESES[name]
        k = draws["planted"].draw()
        hid = f"{name}+binom{k}"
        hyps[hid] = (spec, side, planted(name, k), valid_from)
        return {"kind": "closed", "hyp": hid, "base": name, "n_max": 250, "fail_at": k}

    kinds = [("cf1t_A", "cheap"), ("cf2_B", "cheap"),
             ("cf1t_B", "mid"), ("cf2_A", "mid"), ("cf1t_B", "planted"), ("cf2_A", "planted"),
             ("cf1t_B", "high"), ("cf2_A", "high")]
    ops = _cycles(rng, kinds, make)
    return {
        "workload": "closed-form",
        "specs": {},
        "fixtures": ["e_cf1t", "e_cf2"],
        "hyps": {k: list(v) for k, v in sorted(hyps.items())},
        "ops": ops,
    }


# ---------------------------------------------------------------------------
# recognize: Mobius recognition of certified enclosures and of limits


def random_constant(rng: random.Random, bound: int) -> tuple[int, int, int, int]:
    """A normalized (p, q, r, s) with a certified nonzero denominator.

    ps - qr != 0, so the constant is irrational: a rational one would give
    a point interval, which recognize() handles several times faster than
    the rest, and the median op would then hinge on how many were drawn.
    """
    span = range(-bound, bound + 1)
    while True:
        p, q, r, s = (rng.choice(span) for _ in range(4))
        if p * s == q * r:
            continue
        low, high, d = e_enclosure(10)
        ys = (r * low + s * d, r * high + s * d)
        if min(ys) <= 0 <= max(ys):
            continue
        return normalize(p, q, r, s)


def decimal_interval(c, digits: int) -> str | None:
    """c rounded to `digits` places, with halfwidth half a unit, as text.

    Returns None when the rounding cannot be certified from a narrow
    enclosure of c (the enclosure straddles a rounding boundary).
    """
    low, high = mobius_enclosure(c, digits + 12)
    scale = 10**digits
    lo_r = math.floor(low * scale + Fraction(1, 2))
    hi_r = math.floor(high * scale + Fraction(1, 2))
    if lo_r != hi_r:
        return None
    sign = "-" if lo_r < 0 else ""
    text = str(abs(lo_r)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def _recognize(rng: random.Random) -> dict:
    specs = {}

    def limit_spec():
        while True:
            shift, scale = rng.randint(-3, 3), rng.choice((-2, -1, 1, 2))
            frac, const = shifted_scaled_e_cf2(shift, scale)
            if max(map(abs, const)) <= 3:
                specs[frac.name] = frac_to_json(frac)
                return frac.name, const

    def make(kind, cycle):
        if kind.startswith("rec"):
            k = {"rec3": 3, "rec4": 4, "rec56": 5 if cycle % 2 else 6}[kind]
            const = random_constant(rng, min(k, 3))
            e_digits = rng.choice((18, 24, 30))
            op = {"kind": "rec", "const": const, "k": k, "e_digits": e_digits}
            if rng.random() < 0.5:
                lower, upper = mobius_enclosure(const, rng.randint(20, 28))
                return {**op, "lower": str(lower), "upper": str(upper)}
            text = None
            while text is None:
                digits = rng.randint(12, 16)
                text = decimal_interval(const, digits)
            half = Fraction(1, 2 * 10**digits)
            return {**op, "lower": str(Fraction(text) - half), "upper": str(Fraction(text) + half)}
        name, const = limit_spec()
        digits = rng.randint(15, 25)
        if kind == "limrec":
            return {"kind": "limrec", "spec": name, "const": const, "k": 4,
                    "digits": digits, "max_n": 60}
        wrong = cycle % 2 == 1
        target = normalize(const[0], const[1] + 1, const[2], const[3]) if wrong else const
        return {"kind": "limcheck", "spec": name, "const": const, "target": target,
                "expect": "fail" if wrong else "pass", "digits": digits, "max_n": 60}

    # Sorted by cost a cycle reads: limcheck, two K=3, four K=4 (the median),
    # then one K=5 or K=6 (the p90 op).
    kinds = ["rec3", "rec3", "rec4", "rec4", "rec56", "limrec", "limrec", "limcheck"]
    ops = _cycles(rng, kinds, make)
    return {"workload": "recognize", "specs": specs, "fixtures": [], "ops": ops}


# ---------------------------------------------------------------------------
# cli: python -m cfkit processes

SUM_A = "sum(k,0,n+1,fact(k+1)*binom(n+1,k))"

#: Long commands, in rotation, about one op in eight.
LONG_COMMANDS = (
    ["eval", "e_cf2", "--terms", "1500"],
    ["verify", "e_cf2", "--closed-a", SUM_A, "--valid-from", "1", "--n-max", "400"],
    ["selftest"],
)

#: A known defect (exit 2 on a >4300-digit result); run once per cli run, untimed.
KNOWN_DEFECT = ["eval", "e_cf2", "--terms", "2000"]


def _cli(rng: random.Random) -> dict:
    longs = itertools.cycle(LONG_COMMANDS)

    def make(kind, cycle):
        if kind == "eval":
            argv = ["eval", "e_cf2", "--terms", str(rng.randint(6, 12)), "--digits", str(rng.randint(8, 14))]
        elif kind == "limit":
            argv = ["limit", rng.choice(("e_cf1t", "e_cf2")), "--max-terms", "40",
                    "--digits", str(rng.randint(10, 18))]
        elif kind == "verify":
            argv = ["verify", "e_cf2", "--closed-b", "(n+1)*fact(n+1)", "--valid-from", "1",
                    "--n-max", str(rng.randint(40, 80)), "--target", "e"]
        elif kind == "transform":
            if cycle % 2:
                argv = ["transform", "e_cf1", "--unitize", "--terms", str(rng.randint(6, 12))]
            else:
                argv = ["transform", "e_cf1t", "--scale", rng.choice(("n", "n+1", "2*n")),
                        "--terms", str(rng.randint(6, 12))]
        elif kind == "recognize":
            if cycle % 2:
                argv = ["recognize", rng.choice(("e_cf1", "e_cf2")), "--max-coeff", "3"]
            else:
                const = random_constant(rng, 3)
                text = None
                while text is None:
                    text = decimal_interval(const, 15)
                argv = ["recognize", "--value", text, "--max-coeff", "3"]
        elif kind == "identify":
            argv = ["identify", "e_cf2", "--side", rng.choice("AB"), "--terms", str(rng.randint(5, 7))]
        else:
            argv = list(next(longs))
        return {"kind": kind, "argv": argv}

    kinds = ["eval", "limit", "verify", "transform", "recognize", "identify", "eval", "long"]
    ops = _cycles(rng, kinds, make)
    return {"workload": "cli", "specs": {}, "fixtures": [], "ops": ops}
