"""Convergent recurrence, nested-evaluation oracle, and limit estimation."""

import math
import random
from fractions import Fraction as F

import pytest

from cfkit import (
    ClosedFormHypothesis,
    Convergent,
    FormulaSpec,
    LimitVerdict,
    Side,
    SpecValidationError,
    TermEvaluationError,
    apply_scaling_expr,
    check_closed_form,
    convergents,
    convergents_from_terms,
    estimate_limit,
    load_fixture,
    nested_eval_oracle,
    parse,
)
from cfkit.expr import Div, Integer
from conftest import gen_mixed_spec, gen_positive_spec, oracle_estimate_limit, oracle_fold_terms


@pytest.fixture(scope="module")
def cf1():
    return load_fixture("e_cf1")


@pytest.fixture(scope="module")
def cf1t():
    return load_fixture("e_cf1t")


@pytest.fixture(scope="module")
def cf2():
    return load_fixture("e_cf2")


class TestConvergents:
    def test_second_formula_first_step(self, cf2):
        # A_1 = 4*3 - 1*1, B_1 = 4*1 - 1*0, checked by hand
        row = convergents(cf2, 1)[1]
        assert (row.A, row.B, row.value) == (11, 4, F(11, 4))

    def test_second_formula_denominators(self, cf2):
        rows = convergents(cf2, 5)
        assert [r.B for r in rows[1:]] == [4, 18, 96, 600, 4320]

    def test_first_formula_numerators_linear(self, cf1t):
        rows = convergents(cf1t, 20)
        assert all(r.A == r.n + 2 for r in rows)

    def test_index_zero_is_b0(self, cf1t, cf2):
        for spec in (cf1t, cf2):
            only = convergents(spec, 0)
            assert len(only) == 1
            assert only[0].value == spec.b0_value()

    def test_values_are_reduced(self, cf2):
        row = convergents(cf2, 2)[2]
        assert row.value == F(49, 18)
        assert row.value.denominator == 18

    def test_raw_values_keep_rational_denominators(self, cf1t):
        rows = convergents(cf1t, 3)
        assert [r.B for r in rows] == [1, 1, F(3, 2), F(11, 6)]

    def test_zero_denominator_mid_stream(self):
        # a=1, b=0: B_n vanishes at every odd index but the recurrence goes on
        spec = FormulaSpec("osc", parse("1"), parse("1"), parse("0"))
        rows = convergents(spec, 6)
        assert [r.value is None for r in rows] == [False, True, False, True, False, True, False]
        assert all(r.value == 1 for r in rows if r.value is not None)

    def test_term_eval_error_carries_index(self):
        spec = FormulaSpec("bad", parse("0"), parse("1"), parse("1 / (n - 150)"))
        with pytest.raises(TermEvaluationError) as err:
            convergents(spec, 160)
        assert err.value.index == 150

    def test_validation_rejects_zero_tail_numerator(self):
        with pytest.raises(SpecValidationError, match="n = 3"):
            FormulaSpec("zero_a", parse("1"), parse("n - 3"), parse("1"))

    def test_validation_rejects_zero_prefix_numerator(self):
        with pytest.raises(SpecValidationError, match="a_1"):
            FormulaSpec("zero_p", parse("1"), parse("n"), parse("1"), prefix=((F(0), F(1)),))

    def test_validation_rejects_unexpected_variables(self):
        with pytest.raises(SpecValidationError, match="m"):
            FormulaSpec("loose", parse("1"), parse("n + m"), parse("1"))

    def test_validation_rejects_non_constant_b0(self):
        with pytest.raises(SpecValidationError, match="b0"):
            FormulaSpec("freeb0", parse("n"), parse("n"), parse("1"))

    def test_exactly_one_term_evaluation_per_index(self, cf2):
        class CountingSpec:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def b0_value(self):
                return self.inner.b0_value()

            def term(self, n):
                self.calls += 1
                return self.inner.term(n)

        counting = CountingSpec(cf2)
        convergents(counting, 30)
        assert counting.calls == 30


class TestValidateOnce:
    def test_operations_do_not_revalidate(self, monkeypatch):
        calls = []
        original = FormulaSpec.validate

        def counting_validate(self):
            calls.append(self.name)
            original(self)

        monkeypatch.setattr(FormulaSpec, "validate", counting_validate)
        spec = load_fixture("e_cf2")
        assert calls == ["e_cf2"]
        convergents(spec, 10)
        estimate_limit(spec, 40, 10)
        nested_eval_oracle(spec, 10)
        hyp = ClosedFormHypothesis(Side.B, parse("(n + 1) * fact(n + 1)"), 1)
        assert check_closed_form(spec, hyp, 20).ok()
        assert calls == ["e_cf2"]
        scaled = apply_scaling_expr(spec, parse("n + 1"))
        assert calls == ["e_cf2", scaled.name]

    def test_error_names_the_formula(self):
        with pytest.raises(SpecValidationError) as err:
            FormulaSpec("x", parse("1"), parse("n - 3"), parse("1"))
        assert str(err.value) == "invalid formula 'x': partial numerator a(n) is zero at n = 3"


class TestRecurrenceIdentities:
    def test_determinant_identity_random_specs(self, rng):
        for _ in range(30):
            spec = gen_mixed_spec(rng)
            rows = convergents(spec, 50)
            product = F(1)
            for n in range(1, 51):
                product *= spec.term(n)[0]
                det = rows[n].A * rows[n - 1].B - rows[n - 1].A * rows[n].B
                assert det == (-1) ** (n - 1) * product

    def test_eq10_denominator_closed_form(self, cf1t):
        rows = convergents(cf1t, 200)
        for n in range(1, 201):
            total = sum(
                (F((-1) ** i, math.factorial(i)) for i in range(2, n + 3)), start=F(0)
            )
            assert rows[n].B == (n + 2) * total

    def test_auxiliary_difference_identity(self, cf1t):
        rows = convergents(cf1t, 198)
        for n in range(3, 201):
            lhs = rows[n - 2].B / n - rows[n - 3].B / (n - 1)
            assert lhs == F((-1) ** n, math.factorial(n))


class TestNestedEvalOracle:
    def test_depth_two_transformed(self, cf1t):
        assert nested_eval_oracle(cf1t, 2) == F(8, 3)

    def test_depth_two_prefix_form(self, cf1):
        assert nested_eval_oracle(cf1, 2) == F(8, 3)

    def test_depth_zero(self, cf1, cf1t, cf2):
        for spec in (cf1, cf1t, cf2):
            assert nested_eval_oracle(spec, 0) == spec.b0_value()

    def test_matches_recurrence_on_random_positive_specs(self, rng):
        for _ in range(25):
            spec = gen_positive_spec(rng)
            rows = convergents(spec, 25)
            for depth in range(26):
                assert nested_eval_oracle(spec, depth) == rows[depth].value

    def test_reports_undefined_on_zero_nested_denominator(self):
        # innermost b is zero at depth 1: 1 + 1/0 is undefined nested, but the
        # recurrence value z_1 = (0*1 + 1*1)/(0*1 + 1*0) is undefined too (B=0)
        spec = FormulaSpec("osc", parse("1"), parse("1"), parse("0"))
        assert nested_eval_oracle(spec, 1) is None

    def test_table_convergents_match_spec_convergents(self, cf2):
        rows = convergents(cf2, 12)
        table = convergents_from_terms(cf2.b0_value(), cf2.terms(12))
        assert rows == table


class TestEstimateLimit:
    def test_first_formula_digits(self, cf1t):
        est = estimate_limit(cf1t, 40, 15)
        assert est.verdict is LimitVerdict.CONVERGED
        assert est.value.startswith("2.718281828459045")

    def test_second_formula_digits(self, cf2):
        est = estimate_limit(cf2, 40, 15)
        assert est.verdict is LimitVerdict.CONVERGED
        assert est.value.startswith("2.718281828459045")

    def test_error_bound_is_the_last_gap(self, cf2):
        est = estimate_limit(cf2, 40, 10)
        rows = convergents(cf2, est.n_used)
        gap = abs(rows[est.n_used].value - rows[est.n_used - 1].value)
        assert est.error_bound == gap
        assert est.error_bound >= gap  # invariant as stated

    def test_convergence_needs_three_small_gaps(self, cf1t):
        est = estimate_limit(cf1t, 40, 15)
        rows = convergents(cf1t, est.n_used)
        threshold = F(1, 10**17)
        gaps = [
            abs(rows[n].value - rows[n - 1].value)
            for n in (est.n_used - 2, est.n_used - 1, est.n_used)
        ]
        assert all(g < threshold for g in gaps)
        before = abs(rows[est.n_used - 3].value - rows[est.n_used - 4].value)
        assert before >= threshold  # stopping index is minimal

    def test_undefined_denominators_verdict(self):
        spec = FormulaSpec("osc", parse("1"), parse("1"), parse("0"))
        assert estimate_limit(spec, 40, 10).verdict is LimitVerdict.UNDEFINED_DENOMINATORS

    def test_divergence_suspected_verdict(self):
        # complex fixed points: z_n oscillates with growing gaps
        spec = FormulaSpec("div", parse("0"), parse("-2"), parse("1"))
        assert estimate_limit(spec, 40, 10).verdict is LimitVerdict.DIVERGENCE_SUSPECTED

    def test_max_terms_reached_verdict(self):
        golden = FormulaSpec("golden", parse("1"), parse("1"), parse("1"))
        assert estimate_limit(golden, 10, 30).verdict is LimitVerdict.MAX_TERMS_REACHED

    def test_preconditions(self, cf2):
        with pytest.raises(ValueError):
            estimate_limit(cf2, 2, 10)
        with pytest.raises(ValueError):
            estimate_limit(cf2, 10, 0)


@pytest.fixture(scope="module")
def corpus() -> list[FormulaSpec]:
    """300 seeded random specs (every fifth with b0 = k/3), plus B_n = 0, gaps at the threshold and zeta(3)."""
    rng = random.Random(6)
    specs = []
    for i in range(300):
        spec = gen_positive_spec(rng) if i % 2 else gen_mixed_spec(rng)
        if i % 5 == 0:
            spec = FormulaSpec(spec.name, Div(spec.b0, Integer(3)), spec.a_tail, spec.b_tail, spec.prefix)
        specs.append(spec)
    specs.append(FormulaSpec("osc", parse("1"), parse("1"), parse("0")))  # B_n = 0 at odd n
    # z_n = n / 10^8: every gap equals the threshold at digits = 6, which is not below it.
    specs.append(FormulaSpec(
        "edge", parse("0"), parse("-1"), parse("2"), prefix=((F(1), F(10**8)), (F(-(10**8)), F(2)))
    ))
    specs.append(FormulaSpec(
        "zeta3", parse("0"), parse("-(n-1)^3/n^3"), parse("1 + (n-1)^3/n^3"), prefix=((F(1), F(1)),)
    ))
    return specs


class TestIntegerStateFold:
    """The integer-state fold and gap test against the Fraction-state oracles."""

    def test_rows_equal_the_fraction_fold(self, corpus, cf1, cf1t, cf2):
        cases = [(spec, 60) for spec in corpus] + [(spec, 300) for spec in (cf1, cf1t, cf2)]
        for spec, depth in cases:
            rows = convergents(spec, depth)
            expected = oracle_fold_terms(spec.b0_value(), spec.terms(depth))
            for row, ref in zip(rows, expected, strict=True):
                assert (row.n, row.A, row.B, row.value) == (ref.n, ref.A, ref.B, ref.value), spec.name
                assert type(row.A) is F and type(row.B) is F

    @pytest.mark.parametrize("max_n, digits", [(40, 6), (400, 12), (1000, 6)])
    def test_estimates_equal_the_oracle(self, corpus, max_n, digits):
        verdicts = set()
        for spec in corpus:
            estimate = estimate_limit(spec, max_n, digits)
            assert estimate == oracle_estimate_limit(spec, max_n, digits), spec.name
            verdicts.add(estimate.verdict)
        assert verdicts == set(LimitVerdict)

    def test_fold_reduces_no_value_until_one_is_read(self, cf2, monkeypatch):
        calls = []
        divide = F.__truediv__

        def counting_divide(self, other):
            calls.append((self, other))
            return divide(self, other)

        monkeypatch.setattr(F, "__truediv__", counting_divide)
        rows = convergents(cf2, 500)
        assert calls == []
        first = rows[250].value
        assert rows[250].value is first
        assert calls == [(rows[250].A, rows[250].B)]

    def test_a_given_value_is_kept(self):
        row = Convergent(3, F(1), F(2), F(5))
        assert row.value == F(5)
        assert Convergent(3, F(1), F(0)).value is None


class TestFixtureFiles:
    def test_prefix_fixture_shape(self, cf1):
        assert cf1.prefix == ((F(1), F(1)),)
        assert cf1.term(1) == (F(1), F(1))
        assert cf1.term(2) == (F(1), F(2))  # tail at the literal index n

    def test_fixture_names(self, cf1, cf1t, cf2):
        assert (cf1.name, cf1t.name, cf2.name) == ("e_cf1", "e_cf1t", "e_cf2")
