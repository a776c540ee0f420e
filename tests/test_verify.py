"""Closed-form checking, the footnote identity, and limit-versus-target."""

import time
from fractions import Fraction as F

import pytest

from cfkit import (
    ClosedFormHypothesis,
    ConstantExpr,
    LimitCheckOutcome,
    Side,
    VerifyVerdict,
    check_closed_form,
    check_footnote_equivalence,
    check_limit_against_target,
    convergents,
    load_fixture,
    parse,
    parse_constant_expr,
    vn_simplification_check,
)
from cfkit.recognize import MAX_TARGET_DEGREE, MAX_TARGET_EXPONENT

PAPER_HYPOTHESES = [
    ("e_cf1t", Side.A, "n + 2", 0),
    ("e_cf1t", Side.B, "(n + 2) * sum(i, 2, n + 2, (-1)^i / fact(i))", 0),
    ("e_cf2", Side.B, "(n + 1) * fact(n + 1)", 1),
    ("e_cf2", Side.A, "sum(k, 0, n + 1, fact(k + 1) * binom(n + 1, k))", 1),
]


@pytest.fixture(scope="module")
def specs():
    return {name: load_fixture(name) for name in ("e_cf1", "e_cf1t", "e_cf2")}


class TestCheckClosedForm:
    @pytest.mark.parametrize("spec_name,side,formula,valid_from", PAPER_HYPOTHESES)
    def test_bundled_hypotheses_verify(self, specs, spec_name, side, formula, valid_from):
        hyp = ClosedFormHypothesis(side, parse(formula), valid_from)
        report = check_closed_form(specs[spec_name], hyp, 200)
        assert report.verdict is VerifyVerdict.VERIFIED_UP_TO
        assert report.residual_range == (valid_from + 2, 200)
        assert report.first_failure is None
        assert all(case.ok for case in report.base_cases)

    def test_wrong_hypothesis_fails_at_base(self, specs):
        hyp = ClosedFormHypothesis(Side.A, parse("n + 3"), 0)
        report = check_closed_form(specs["e_cf1t"], hyp, 200)
        assert report.verdict is VerifyVerdict.FAILED_AT_BASE
        first = report.base_cases[0]
        assert (first.n, first.expected, first.got) == (0, 2, 3)
        assert report.first_failure is None  # verdict/first_failure invariant

    def test_residual_failure_is_located_with_both_sides(self, specs):
        # matches the recurrence values at n = 0 and 1 but not beyond
        hyp = ClosedFormHypothesis(Side.B, parse("1"), 0)
        report = check_closed_form(specs["e_cf1t"], hyp, 200)
        assert report.verdict is VerifyVerdict.FAILED_AT_RESIDUAL
        assert all(case.ok for case in report.base_cases)
        failure = report.first_failure
        assert failure is not None
        assert failure.n == 2
        assert failure.lhs == 1  # formula(2)
        assert failure.rhs == F(3, 2)  # b_2 * 1 + a_2 * 1

    def test_verdict_matches_pointwise_agreement(self, specs):
        """Base+residual checking is equivalent to pointwise comparison."""
        for spec_name, side, formula, valid_from in PAPER_HYPOTHESES:
            spec = specs[spec_name]
            hyp = ClosedFormHypothesis(side, parse(formula), valid_from)
            rows = convergents(spec, 60)
            pointwise = all(
                hyp.at(n) == (rows[n].A if side is Side.A else rows[n].B)
                for n in range(valid_from, 61)
            )
            report = check_closed_form(spec, hyp, 60)
            assert report.ok() == pointwise

    def test_n_max_too_small(self, specs):
        hyp = ClosedFormHypothesis(Side.A, parse("n + 2"), 5)
        with pytest.raises(ValueError, match="valid_from"):
            check_closed_form(specs["e_cf1t"], hyp, 6)

    def test_hypothesis_rejects_foreign_variables(self):
        with pytest.raises(ValueError, match="m"):
            ClosedFormHypothesis(Side.A, parse("n + m"), 0)

    def test_report_text_admits_finite_range_only(self, specs):
        hyp = ClosedFormHypothesis(Side.A, parse("n + 2"), 0)
        report = check_closed_form(specs["e_cf1t"], hyp, 50)
        text = report.human_text()
        assert "verifiedUpTo(50)" in text
        assert "not a proof" in text

    def test_machine_items_unique_keys(self, specs):
        hyp = ClosedFormHypothesis(Side.A, parse("n + 2"), 0)
        report = check_closed_form(specs["e_cf1t"], hyp, 50)
        keys = [k for k, _v in report.machine_items(prefix="a_")]
        assert len(keys) == len(set(keys))


class TestFootnoteEquivalence:
    def test_holds_up_to_100(self):
        assert check_footnote_equivalence(100) is True

    def test_hand_value_at_one(self):
        # both sums expand to 1 + 4 + 6 at n = 1
        env = {"n": F(1)}
        direct = parse("sum(k, 0, n + 1, fact(k + 1) * binom(n + 1, k))")
        reindexed = parse("sum(k, 0, n + 1, fact(n + 2 - k) * binom(n + 1, n + 1 - k))")
        from cfkit import evaluate

        assert evaluate(direct, env) == evaluate(reindexed, env) == 11

    def test_sabotaged_variant_fails_quickly(self):
        from cfkit import evaluate

        wrong = parse("sum(k, 0, n + 1, fact(n + 1 - k) * binom(n + 1, n + 1 - k))")
        direct = parse("sum(k, 0, n + 1, fact(k + 1) * binom(n + 1, k))")
        env = {"n": F(1)}
        assert evaluate(wrong, env) != evaluate(direct, env)


class TestVnSimplification:
    def test_holds_up_to_100(self):
        assert vn_simplification_check(100) is True

    def test_hand_value_at_one(self, specs):
        # z_1 = 11/4; the inverse-factorial form expands to 1/4 + 2/2 + 3/2
        z1 = convergents(specs["e_cf2"], 1)[1].value
        by_hand = F(1, 4) + F(2, 2) + F(3, 2)
        assert z1 == F(11, 4) == by_hand

    def test_sabotaged_numerator_fails(self, specs):
        from cfkit import evaluate

        wrong = parse("sum(k, 0, n + 1, (k + 2) / ((n + 1) * fact(n + 1 - k)))")
        z1 = convergents(specs["e_cf2"], 1)[1].value
        assert evaluate(wrong, {"n": F(1)}) != z1


class TestLimitAgainstTarget:
    def test_both_formulas_hit_e(self, specs):
        e = ConstantExpr(1, 0, 0, 1)
        for name in ("e_cf1t", "e_cf2"):
            result = check_limit_against_target(specs[name], e, digits=20, max_n=40)
            assert result.outcome is LimitCheckOutcome.PASS
            assert result.worst_case_error is not None
            assert result.worst_case_error < F(1, 10**20)

    def test_wrong_target_fails(self, specs):
        e_plus_one = ConstantExpr(1, 1, 0, 1)
        result = check_limit_against_target(specs["e_cf2"], e_plus_one, digits=6, max_n=40)
        assert result.outcome is LimitCheckOutcome.FAIL

    def test_non_converged_is_indeterminate(self):
        from cfkit import FormulaSpec

        oscillating = FormulaSpec("div", parse("0"), parse("-2"), parse("1"))
        result = check_limit_against_target(
            oscillating, ConstantExpr(1, 0, 0, 1), digits=10, max_n=40
        )
        assert result.outcome is LimitCheckOutcome.INDETERMINATE

    def test_digits_precondition(self, specs):
        with pytest.raises(ValueError):
            check_limit_against_target(specs["e_cf2"], ConstantExpr(1, 0, 0, 1), digits=3)


class TestTargetParsing:
    def test_plain_e(self):
        assert parse_constant_expr("e") == ConstantExpr(1, 0, 0, 1)

    def test_mobius_form(self):
        assert parse_constant_expr("(2*e + 1) / (e + 3)") == ConstantExpr(2, 1, 1, 3)

    def test_rational(self):
        assert parse_constant_expr("8/3") == ConstantExpr(0, 8, 0, 3)

    def test_affine(self):
        assert parse_constant_expr("e + 1") == ConstantExpr(1, 1, 0, 1)
        assert parse_constant_expr("2 - e") == ConstantExpr(-1, 2, 0, 1)

    def test_normalization_collapses_scaling(self):
        assert parse_constant_expr("(2*e) / 2") == ConstantExpr(1, 0, 0, 1)

    def test_rejects_higher_degree(self):
        with pytest.raises(ValueError, match="degree"):
            parse_constant_expr("e * e")

    def test_rejects_other_variables(self):
        with pytest.raises(ValueError, match="pi"):
            parse_constant_expr("pi + 1")

    def test_exponent_at_the_limit_is_accepted(self):
        k = MAX_TARGET_EXPONENT
        assert parse_constant_expr(f"2^{k} * e / 2^{k}") == ConstantExpr(1, 0, 0, 1)

    @pytest.mark.parametrize("text", ["e^100000", "2^100000000", f"e^{MAX_TARGET_EXPONENT + 1}"])
    def test_huge_exponent_is_rejected_at_once(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds"):
            parse_constant_expr(text)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("text", ["(e^64)^64", "((e + 1)^64)^64", "e^64 * e^64", "(e^33)^2 / e^65"])
    def test_huge_degree_is_rejected_at_once(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"polynomial degree \d+ exceeds {MAX_TARGET_DEGREE}"):
            parse_constant_expr(text)
        assert time.perf_counter() - start < 1.0

    def test_degree_at_the_limit_is_accepted(self):
        k = MAX_TARGET_DEGREE
        assert parse_constant_expr(f"e^{k} - e^{k} + e") == ConstantExpr(1, 0, 0, 1)
        with pytest.raises(ValueError, match=f"degree {k + 1} exceeds {k}"):
            parse_constant_expr(f"e^{k} * e - e^{k} * e + e")
