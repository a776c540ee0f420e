"""Equivalence transformations: scaling expressions, tables, unitization."""

from fractions import Fraction as F

import pytest

from cfkit import (
    ScalingError,
    apply_scaling_expr,
    apply_scaling_table,
    convergents,
    convergents_from_terms,
    load_fixture,
    parse,
    unitize_partial_numerators,
)
from cfkit import expr as ex
from cfkit.transform import substitute
from conftest import gen_positive_spec


@pytest.fixture(scope="module")
def cf1():
    return load_fixture("e_cf1")


@pytest.fixture(scope="module")
def cf1t():
    return load_fixture("e_cf1t")


class TestSubstitute:
    def test_simple(self):
        shifted = substitute(parse("n^2 + n"), "n", parse("n - 1"))
        assert ex.render(shifted) == "(n - 1)^2 + (n - 1)"

    def test_sum_variable_shadowing(self):
        tree = parse("sum(n, 1, n, n)")
        shifted = substitute(tree, "n", parse("m"))
        # bounds are rewritten, the shadowed body is not
        assert shifted == parse("sum(n, 1, m, n)")


class TestApplyScalingExpr:
    def test_identity_scaling_preserves_term_values(self, cf1t):
        scaled = apply_scaling_expr(cf1t, parse("1"))
        for n in range(1, 30):
            assert scaled.term(n) == cf1t.term(n)

    def test_scaling_by_n_recovers_integer_terms(self, cf1t):
        # hand-computed: a' = 1, 1, 2, 3 and b' = 1, 2, 3, 4 for n = 1..4
        scaled = apply_scaling_expr(cf1t, parse("n"))
        values = [scaled.term(n) for n in range(1, 5)]
        assert values == [(F(1), F(1)), (F(1), F(2)), (F(2), F(3)), (F(3), F(4))]

    def test_scaling_by_n_matches_prefix_fixture(self, cf1, cf1t):
        scaled = apply_scaling_expr(cf1t, parse("n"))
        for n in range(1, 60):
            assert scaled.term(n) == cf1.term(n)

    def test_scale_then_inverse_restores_term_values(self, cf1t):
        once = apply_scaling_expr(cf1t, parse("n + 1"))
        back = apply_scaling_expr(once, parse("1 / (n + 1)"))
        for n in range(1, 51):
            assert back.term(n) == cf1t.term(n)

    def test_convergent_invariance(self, rng, cf1t):
        scalings = [parse("1"), parse("n"), parse("1/n"), parse("(n + 1) / 2")]
        specs = [cf1t] + [gen_positive_spec(rng, prefix_len=0) for _ in range(4)]
        for spec in specs:
            base = [c.value for c in convergents(spec, 100)]
            for c in scalings:
                scaled = apply_scaling_expr(spec, c)
                assert [c2.value for c2 in convergents(scaled, 100)] == base

    def test_composition_matches_pointwise_product(self, cf1t):
        c, d = parse("n"), parse("n + 1")
        twice = apply_scaling_expr(apply_scaling_expr(cf1t, c), d)
        product = apply_scaling_expr(cf1t, ex.Mul(c, d))
        for n in range(1, 51):
            assert twice.term(n) == product.term(n)

    def test_tails_stay_symbolic_products(self, cf1t):
        scaled = apply_scaling_expr(cf1t, parse("n"))
        assert ex.render(scaled.a_tail) == "n * (n - 1) * (1 / n)"
        assert ex.render(scaled.b_tail) == "n * 1"

    def test_zero_scaling_rejected(self, cf1t):
        with pytest.raises(ScalingError, match="zero at n = 3"):
            apply_scaling_expr(cf1t, parse("n - 3"))

    def test_foreign_variable_rejected(self, cf1t):
        with pytest.raises(ScalingError, match="m"):
            apply_scaling_expr(cf1t, parse("m"))

    @pytest.mark.parametrize(
        "text, index",
        [
            # c vanishes or is undefined at the last index the scaled formula validates
            ("n - 101", "zero at n = 101"),
            ("1/(n - 101)", "a(101)"),
            ("n - 1", "a_1"),  # the materialized prefix pair
            ("1/(n - 3)", "a(3)"),
            ("1/(n - 1)", "c(1)"),
        ],
    )
    def test_failing_scaling_names_c_and_index(self, cf1t, text, index):
        c = parse(text)
        with pytest.raises(ScalingError) as caught:
            apply_scaling_expr(cf1t, c)
        message = str(caught.value)
        assert f"c(n) = {ex.render(c)}" in message
        assert index in message


class TestApplyScalingTable:
    def test_paper_table_reaches_unit_denominators(self, cf1):
        # original terms a = 1, 1, 2, 3, ...; b = 1, 2, 3, ... with c_n = 1/b_n
        terms = cf1.terms(50)
        c = [1 / b for (_a, b) in terms]
        scaled = apply_scaling_table(terms, c)
        for n, (a, b) in enumerate(scaled, start=1):
            assert a == F(1, n)
            assert b == 1

    def test_all_ones_is_identity(self, cf1):
        terms = cf1.terms(10)
        assert apply_scaling_table(terms, [F(1)] * 10) == terms

    def test_zero_entry_rejected(self, cf1):
        with pytest.raises(ScalingError, match="c_2"):
            apply_scaling_table(cf1.terms(3), [F(1), F(0), F(1)])

    def test_length_mismatch_rejected(self, cf1):
        with pytest.raises(ScalingError, match="entries"):
            apply_scaling_table(cf1.terms(3), [F(1)] * 2)

    def test_composition_at_value_level(self, rng):
        spec = gen_positive_spec(rng)
        terms = spec.terms(50)
        c = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(50)]
        d = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(50)]
        two_steps = apply_scaling_table(apply_scaling_table(terms, c), d)
        one_step = apply_scaling_table(terms, [x * y for x, y in zip(c, d)])
        assert two_steps == one_step

    def test_convergent_invariance_of_tables(self, rng):
        spec = gen_positive_spec(rng)
        terms = spec.terms(60)
        base = convergents_from_terms(spec.b0_value(), terms)
        c = [F(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(60)]
        scaled = convergents_from_terms(spec.b0_value(), apply_scaling_table(terms, c))
        assert [x.value for x in scaled] == [x.value for x in base]


class TestUnitize:
    def test_first_formula_audit_table(self, cf1t):
        # c_n = 1/(a_n c_{n-1}), hand-checked: 1, 2, 3/2, 8/3
        new_terms, c = unitize_partial_numerators(cf1t.terms(5))
        assert c[:4] == [F(1), F(2), F(3, 2), F(8, 3)]
        assert all(a == 1 for a, _b in new_terms)

    def test_already_unit_numerators(self):
        terms = [(F(1), F(3)), (F(1), F(5)), (F(1), F(7))]
        new_terms, c = unitize_partial_numerators(terms)
        assert c == [F(1), F(1), F(1)]
        assert new_terms == terms

    def test_zero_numerator_rejected(self):
        with pytest.raises(ScalingError, match="a_2"):
            unitize_partial_numerators([(F(1), F(1)), (F(0), F(1))])

    def test_unitized_convergents_reproduce_values(self, rng):
        for _ in range(5):
            spec = gen_positive_spec(rng)
            terms = spec.terms(50)
            base = convergents_from_terms(spec.b0_value(), terms)
            unit_terms, _c = unitize_partial_numerators(terms)
            redone = convergents_from_terms(spec.b0_value(), unit_terms)
            assert [x.value for x in redone] == [x.value for x in base]
