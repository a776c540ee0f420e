"""Certified e, interval Möbius arithmetic, recognition, reconstruction."""

import math
import random
from fractions import Fraction as F

import pytest

from cfkit import (
    ConstantExpr,
    Interval,
    RecognitionError,
    convergents,
    e_high_precision,
    load_fixture,
    mobius_value,
    rational_reconstruct,
    recognize,
)
from cfkit.recognize import MAX_COEFF_LIMIT
from conftest import oracle_recognize, recognize_module

# Partial sum of the reciprocal-factorial series through 1/35!: within 2/36!
# (about 1e-41) of the true value, an independent anchor for spot checks.
E_ANCHOR = sum(F(1, math.factorial(k)) for k in range(36))


class TestEHighPrecision:
    def test_contains_the_series_anchor(self):
        interval = e_high_precision(15)
        assert interval.contains(E_ANCHOR)

    def test_fifteen_digit_prefix(self):
        from cfkit.numeric import decimal_string

        interval = e_high_precision(15)
        lo, _ = decimal_string(interval.lower, 15)
        hi, _ = decimal_string(interval.upper, 15)
        assert lo == hi == "2.718281828459045"

    def test_width_bound(self):
        for digits in (1, 5, 10, 25):
            assert e_high_precision(digits).width <= F(1, 10 ** (digits + 2))

    def test_one_digit(self):
        interval = e_high_precision(1)
        assert interval.contains(F(27, 10) + F(1, 55))  # 2.7ish anchor inside
        assert interval.width < F(1, 1000)

    def test_nesting(self):
        wide = e_high_precision(10)
        for digits in (11, 20, 30, 40):
            assert wide.encloses(e_high_precision(digits))

    def test_precondition(self):
        for digits in (0, -1, 0):  # raised on every call, never cached
            with pytest.raises(ValueError, match="digits must be >= 1"):
                e_high_precision(digits)

    def test_cached_enclosures_equal_computed_ones(self):
        e_high_precision.cache_clear()
        for digits in range(1, 41):
            computed = e_high_precision.__wrapped__(digits)
            assert e_high_precision(digits) == computed  # computed and cached
            assert e_high_precision(digits) == computed  # read from the cache

    def test_second_call_does_not_recompute(self, monkeypatch):
        e_high_precision.cache_clear()
        factorials = 0
        factorial = math.factorial

        def counting(n):
            nonlocal factorials
            factorials += 1
            return factorial(n)

        monkeypatch.setattr(math, "factorial", counting)
        first = e_high_precision(25)
        assert factorials > 0
        factorials = 0
        assert e_high_precision(25) is first
        assert factorials == 0
        assert e_high_precision.cache_info().hits == 1


class TestConstantExpr:
    def test_normalization_gcd_and_sign(self):
        assert ConstantExpr(2, 0, 0, 2) == ConstantExpr(1, 0, 0, 1)
        assert ConstantExpr(-1, 0, 0, 1) == ConstantExpr(1, 0, 0, -1)
        assert ConstantExpr(0, -8, 0, -3) == ConstantExpr(0, 8, 0, 3)

    def test_denominator_must_not_vanish(self):
        with pytest.raises(ValueError):
            ConstantExpr(1, 1, 0, 0)

    def test_describe(self):
        assert ConstantExpr(1, 0, 0, 1).describe() == "e"
        assert ConstantExpr(0, 8, 0, 3).describe() == "(8) / (3)"
        assert ConstantExpr(2, 1, 1, 3).describe() == "(2*e + 1) / (e + 3)"


class TestMobiusValue:
    def test_identity(self):
        e_int = e_high_precision(20)
        assert mobius_value(ConstantExpr(1, 0, 0, 1), e_int) == e_int

    def test_pure_rational_is_a_point(self):
        value = mobius_value(ConstantExpr(0, 8, 0, 3), e_high_precision(10))
        assert value == Interval.point(F(8, 3))

    def test_hand_checked_combination(self):
        # (e+1)/(e-1) = 2.1639534137...: the certified enclosure must sit
        # between that truncation and its decimal successor
        value = mobius_value(ConstantExpr(1, 1, 1, -1), e_high_precision(20))
        assert F("2.1639534137") < value.lower <= value.upper < F("2.1639534138")
        assert value.width < F(1, 10**9)

    def test_straddling_denominator_rejected(self):
        # r*e + s with e in [2, 3]-ish and the line crossing zero: e - e means r=1, s=-3
        wide = Interval(F(2), F(3))
        with pytest.raises(RecognitionError):
            mobius_value(ConstantExpr(1, 0, 1, -3), wide)


class TestRecognize:
    def test_e_is_the_unique_top_match(self):
        interval = Interval.around(E_ANCHOR, F(1, 10**20))
        matches = recognize(interval, max_coeff=5)
        assert matches[0] == ConstantExpr(1, 0, 0, 1)
        assert len(matches) == 1

    def test_exact_rational(self):
        matches = recognize(Interval.point(F(8, 3)), max_coeff=8)
        assert matches[0] == ConstantExpr(0, 8, 0, 3)

    def test_wide_interval_is_ambiguous(self):
        # [2.5, 3.0] at K = 3 contains e and the rational 3 (among others)
        matches = recognize(Interval(F(5, 2), F(3)), max_coeff=3)
        assert ConstantExpr(1, 0, 0, 1) in matches
        assert ConstantExpr(0, 3, 0, 1) in matches
        assert len(matches) >= 2

    def test_narrow_interval_at_k1_matches_only_e(self):
        interval = Interval.around(E_ANCHOR, F(1, 10**12))
        assert recognize(interval, max_coeff=1) == [ConstantExpr(1, 0, 0, 1)]

    def test_soundness_every_match_intersects(self):
        interval = Interval(F(5, 2), F(3))
        e_int = e_high_precision(30)
        for match in recognize(interval, max_coeff=2):
            assert mobius_value(match, e_int).intersects(interval)

    def test_completeness_injected_tuple_is_found(self):
        injected = ConstantExpr(2, 1, 1, 3)
        value = mobius_value(injected, e_high_precision(25))
        matches = recognize(value, max_coeff=3)
        assert injected in matches

    def test_ranking_is_by_l1_then_lex(self):
        matches = recognize(Interval(F(5, 2), F(3)), max_coeff=3)
        keys = [(m.l1_norm, (m.p, m.q, m.r, m.s)) for m in matches]
        assert keys == sorted(keys)

    def test_fixture_limits_recognized(self):
        for name in ("e_cf1", "e_cf1t", "e_cf2"):
            z25 = convergents(load_fixture(name), 25)[25].value
            matches = recognize(Interval.around(z25, F(1, 10**15)), max_coeff=5, e_digits=18)
            assert matches[0] == ConstantExpr(1, 0, 0, 1)

    def test_precondition(self):
        with pytest.raises(ValueError):
            recognize(Interval.point(F(1)), max_coeff=0)


E_DIGITS = (1, 2, 5, 18, 24, 30)


def random_constant(rng: random.Random, bound: int, e_int: Interval) -> ConstantExpr:
    """A seeded (p, q, r, s) within `bound` whose denominator is certified."""
    span = range(-bound, bound + 1)
    while True:
        p, q, r, s = (rng.choice(span) for _ in range(4))
        if (r, s) == (0, 0):
            continue
        denominator = e_int.scale_add(r, s)
        if not denominator.lower <= 0 <= denominator.upper:
            return ConstantExpr(p, q, r, s)


def random_interval(rng: random.Random, kind: str, bound: int) -> Interval:
    if kind in ("enclosure", "decimal"):
        e_int = e_high_precision(rng.randint(5, 40))
        value = mobius_value(random_constant(rng, bound, e_int), e_int)
        if kind == "enclosure":
            return value if rng.random() < 0.5 else Interval.around(value.lower, F(1, 10 ** rng.randint(3, 20)))
        # the constant rounded to `digits` places, plus or minus half a unit
        digits = rng.randint(2, 15)
        center = F(round(value.lower * 10**digits), 10**digits)
        return Interval.around(center, F(1, 2 * 10**digits))
    if kind == "point":
        return Interval.point(F(rng.randint(-12, 12), rng.randint(1, 6)))
    if kind == "wide":
        lower = F(rng.randint(-40, 40), 8)
        return Interval(lower, lower + F(rng.randint(1, 4), 8))
    if kind == "negative":
        upper = -F(rng.randint(1, 400), 100)
        return Interval(upper - F(rng.randint(0, 50), 100), upper)
    assert kind == "through_zero"
    return Interval(-F(rng.randint(0, 100), 1000), F(rng.randint(0, 100), 1000))


class TestRangeSolving:
    """The range-solved `recognize` against the brute-force oracle."""

    KINDS = ("enclosure", "decimal", "point", "wide", "negative", "through_zero")

    def test_equals_brute_force_on_seeded_intervals(self):
        rng = random.Random(20190913)
        for case in range(2100):
            kind = self.KINDS[case % len(self.KINDS)]
            max_coeff = rng.randint(1, 4)
            e_digits = rng.choice(E_DIGITS)
            value = random_interval(rng, kind, max_coeff + 1)
            got = recognize(value, max_coeff=max_coeff, e_digits=e_digits)
            want = oracle_recognize(value, max_coeff=max_coeff, e_digits=e_digits)
            assert got == want, (kind, value, max_coeff, e_digits)  # same (p, q, r, s), same order

    @pytest.mark.parametrize("e_int", [Interval(F(5, 2), F(3)), Interval(F(27, 10), F(11, 4))])
    def test_straddling_denominators_skipped_like_brute_force(self, monkeypatch, e_int):
        # Coarse enclosures of e make r*e + s straddle 0 whenever -s/r lies in
        # them, for example (1, -3), (2, -5) and (4, -11) in [5/2, 3], and
        # (4, -11) in [27/10, 11/4].  (At K <= 4 the real enclosures never
        # do.)  Both sides must skip exactly those denominators.
        monkeypatch.setattr(recognize_module, "e_high_precision", lambda digits: e_int)
        rng = random.Random(7)
        for case in range(120):
            kind = self.KINDS[case % len(self.KINDS)]
            max_coeff = rng.randint(1, 4)
            value = random_interval(rng, kind, max_coeff + 1)
            assert recognize(value, max_coeff=max_coeff) == oracle_recognize(value, max_coeff=max_coeff)

    # Candidates with a positive and a negative denominator, point and not
    @pytest.mark.parametrize(
        "planted",
        [(2, 1, 1, 3), (2, 1, -1, -3), (1, 0, -1, 2), (0, 1, 1, -3), (3, -1, 2, 1), (1, -2, 0, 1), (0, 3, 0, -1)],
    )
    def test_boundary_touching_a_corner_is_found(self, planted):
        # An interval that touches the candidate's enclosure in one exact
        # point puts an integer bound of the q range right on q, so an
        # off-by-one in its ceil or floor drops the candidate.
        candidate = ConstantExpr(*planted)
        max_coeff = max(map(abs, planted))
        for e_digits in (1, 5, 18, 30):
            enclosure = mobius_value(candidate, e_high_precision(e_digits))
            tiny = F(1, 10**30)
            for value in (
                Interval(enclosure.lower - tiny, enclosure.lower),
                Interval.point(enclosure.lower),
                Interval(enclosure.upper, enclosure.upper + tiny),
                Interval.point(enclosure.upper),
            ):
                matches = recognize(value, max_coeff=max_coeff, e_digits=e_digits)
                assert candidate in matches, (value, e_digits)
                assert matches == oracle_recognize(value, max_coeff=max_coeff, e_digits=e_digits)

    def test_divisions_grow_as_k_cubed(self, monkeypatch):
        # Each certified quotient is one Interval division; the range solving
        # must try at most one q per (p, r, s) here, the brute force tried
        # every (p, q, r, s).
        max_coeff = 6
        planted = ConstantExpr(2, 1, 1, 3)
        value = Interval.around(mobius_value(planted, e_high_precision(40)).lower, F(1, 10**25))
        divisions = 0
        true_divide = Interval.__truediv__

        def counting(self, other):
            nonlocal divisions
            divisions += 1
            return true_divide(self, other)

        monkeypatch.setattr(Interval, "__truediv__", counting)
        assert recognize(value, max_coeff=max_coeff) == [planted]
        assert 0 < divisions <= (2 * max_coeff + 1) ** 3

    def test_max_coeff_limit(self):
        value = Interval(F(53, 20), F(11, 4))
        assert recognize(value, max_coeff=MAX_COEFF_LIMIT)
        with pytest.raises(ValueError, match=f"max_coeff must be <= {MAX_COEFF_LIMIT}"):
            recognize(value, max_coeff=MAX_COEFF_LIMIT + 1)


class TestRationalReconstruct:
    def test_point_interval(self):
        assert rational_reconstruct(Interval.point(F(8, 3))) == F(8, 3)

    def test_third_from_truncated_decimal(self):
        center = F("0.333333333")
        result = rational_reconstruct(Interval.around(center, F(1, 10**9)))
        assert result == F(1, 3)

    def test_no_small_denominator_near_e(self):
        interval = Interval.around(E_ANCHOR, F(1, 10**15))
        assert rational_reconstruct(interval, max_denominator=10**6) is None
        unbounded = rational_reconstruct(interval)
        assert unbounded is not None and unbounded.denominator > 10**6

    def test_negative_interval(self):
        assert rational_reconstruct(Interval(F(-7, 2), F(-10, 3))) == F(-7, 2)

    def test_interval_through_zero(self):
        assert rational_reconstruct(Interval(F(-1, 5), F(1, 7))) == 0

    def test_minimality_by_exhaustive_scan(self, rng):
        for _ in range(40):
            center = F(rng.randint(-50, 50), rng.randint(1, 40))
            interval = Interval.around(center, F(1, rng.randint(500, 5000)))
            result = rational_reconstruct(interval)
            assert result is not None and interval.contains(result)
            # a fraction with denominator d fits iff ceil(lo*d) <= floor(hi*d)
            for d in range(1, result.denominator):
                lo_scaled = interval.lower * d
                hi_scaled = interval.upper * d
                ceil_lo = -((-lo_scaled.numerator) // lo_scaled.denominator)
                floor_hi = hi_scaled.numerator // hi_scaled.denominator
                assert ceil_lo > floor_hi

    def test_result_never_outside(self):
        interval = Interval(F(10, 7), F(3, 2))
        result = rational_reconstruct(interval)
        assert result is not None
        assert interval.contains(result)
