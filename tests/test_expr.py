"""Lexer, parser, compiler and renderer of the term DSL."""

import pickle
import random
import time
from fractions import Fraction as F

import pytest

from cfkit import FormulaSpec, Side
from cfkit import expr as ex
from cfkit.transform import substitute
from cfkit.verify import ClosedFormHypothesis
from conftest import VAR_NAMES, gen_expr, gen_value_safe_expr, oracle_evaluate


class TestParse:
    def test_addition(self):
        assert ex.parse("n + 3") == ex.Add(ex.Variable("n"), ex.Integer(3))

    def test_unary_minus(self):
        assert ex.parse("-n") == ex.Negate(ex.Variable("n"))

    def test_division(self):
        assert ex.parse("1/n") == ex.Div(ex.Integer(1), ex.Variable("n"))

    def test_bounded_sum_call(self):
        tree = ex.parse("sum(k, 0, n+1, fact(k+1)*binom(n+1, k))")
        assert tree == ex.BoundedSum(
            "k",
            ex.Integer(0),
            ex.Add(ex.Variable("n"), ex.Integer(1)),
            ex.Mul(
                ex.Factorial(ex.Add(ex.Variable("k"), ex.Integer(1))),
                ex.Binomial(ex.Add(ex.Variable("n"), ex.Integer(1)), ex.Variable("k")),
            ),
        )

    def test_incomplete_input_offset(self):
        with pytest.raises(ex.ParseError) as err:
            ex.parse("n +")
        assert err.value.offset == 3
        assert "expected" in err.value.reason

    def test_precedence_mul_over_add(self):
        assert ex.parse("1 + 2 * n") == ex.Add(
            ex.Integer(1), ex.Mul(ex.Integer(2), ex.Variable("n"))
        )

    def test_left_associative_subtraction(self):
        assert ex.parse("5 - 2 - 1") == ex.Sub(
            ex.Sub(ex.Integer(5), ex.Integer(2)), ex.Integer(1)
        )

    def test_power_right_associative(self):
        assert ex.parse("2^3^2") == ex.Pow(
            ex.Integer(2), ex.Pow(ex.Integer(3), ex.Integer(2))
        )

    def test_power_binds_tighter_than_unary_minus(self):
        assert ex.parse("-2^2") == ex.Negate(ex.Pow(ex.Integer(2), ex.Integer(2)))

    def test_negated_base_via_parens(self):
        assert ex.parse("(-1)^i") == ex.Pow(
            ex.Negate(ex.Integer(1)), ex.Variable("i")
        )

    def test_unary_minus_binds_tighter_than_mul(self):
        assert ex.parse("-n * 3") == ex.Mul(
            ex.Negate(ex.Variable("n")), ex.Integer(3)
        )

    def test_unknown_function(self):
        with pytest.raises(ex.ParseError, match="unknown function 'foo'"):
            ex.parse("foo(3)")

    def test_wrong_arity(self):
        with pytest.raises(ex.ParseError, match="takes 2 arguments"):
            ex.parse("binom(3)")

    def test_sum_needs_variable_first(self):
        with pytest.raises(ex.ParseError, match="variable name"):
            ex.parse("sum(1, 0, 3, 1)")

    def test_trailing_garbage(self):
        with pytest.raises(ex.ParseError, match="end of input"):
            ex.parse("n 3")

    def test_bad_character(self):
        with pytest.raises(ex.ParseError) as err:
            ex.parse("n ? 3")
        assert err.value.offset == 2

    def test_function_name_usable_as_variable(self):
        assert ex.parse("fact + 1") == ex.Add(ex.Variable("fact"), ex.Integer(1))

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ex.ParseError):
            ex.parse("2 n")


class TestEvaluate:
    def test_linear(self):
        assert ex.evaluate(ex.parse("n + 3"), {"n": 1}) == 4

    def test_reciprocal(self):
        assert ex.evaluate(ex.parse("1/n"), {"n": 4}) == F(1, 4)

    def test_alternating_factorial_sum(self):
        # 1/2 - 1/6 + 1/24 expanded by hand
        assert ex.evaluate(ex.parse("sum(i, 2, 4, (-1)^i / fact(i))"), {}) == F(3, 8)

    def test_empty_sum(self):
        assert ex.evaluate(ex.parse("sum(i, 5, 4, i)"), {}) == 0

    def test_sum_at_the_span_limit_is_evaluated(self):
        assert ex.evaluate(ex.parse(f"sum(i, 1, {ex.MAX_SUM_SPAN}, 1)"), {}) == ex.MAX_SUM_SPAN

    def test_sum_past_the_span_limit_is_rejected_at_once(self):
        span = ex.MAX_SUM_SPAN + 1
        start = time.perf_counter()
        with pytest.raises(ex.EvalError, match=f"sum span {span} exceeds {ex.MAX_SUM_SPAN}"):
            ex.evaluate(ex.parse(f"sum(k, n, n + {span - 1}, k)"), {"n": -7})
        assert time.perf_counter() - start < 1.0

    def test_division_by_zero(self):
        with pytest.raises(ex.EvalError, match="division by zero"):
            ex.evaluate(ex.parse("1 / (n - 1)"), {"n": 1})

    def test_factorial_of_negative(self):
        with pytest.raises(ex.EvalError, match="negative"):
            ex.evaluate(ex.parse("fact(n)"), {"n": -2})

    def test_factorial_of_non_integer(self):
        with pytest.raises(ex.EvalError, match="integer"):
            ex.evaluate(ex.parse("fact(1/2)"), {})

    def test_binomial_convention_out_of_range(self):
        assert ex.evaluate(ex.parse("binom(3, 5)"), {}) == 0
        assert ex.evaluate(ex.parse("binom(3, -1)"), {}) == 0
        assert ex.evaluate(ex.parse("binom(4, 2)"), {}) == 6

    def test_binomial_negative_top_rejected(self):
        with pytest.raises(ex.EvalError, match="nonnegative"):
            ex.evaluate(ex.parse("binom(-1, 0)"), {})

    def test_non_integer_exponent(self):
        with pytest.raises(ex.EvalError, match="exponent"):
            ex.evaluate(ex.parse("2^(1/2)"), {})

    def test_negative_exponent(self):
        assert ex.evaluate(ex.parse("2^-2"), {}) == F(1, 4)

    def test_negative_exponent_of_zero(self):
        with pytest.raises(ex.EvalError, match="zero"):
            ex.evaluate(ex.parse("0^-1"), {})

    def test_non_integer_sum_bound(self):
        with pytest.raises(ex.EvalError, match="bound"):
            ex.evaluate(ex.parse("sum(i, 0, 1/2, i)"), {})

    def test_unbound_variable(self):
        with pytest.raises(ex.EvalError, match="unbound variable 'n'"):
            ex.evaluate(ex.parse("n + 1"), {})

    def test_sum_variable_shadows_outer_binding(self):
        # the bound k shadows the outer k inside the body; bounds see the outer k
        tree = ex.parse("sum(k, 0, k, k)")
        assert ex.evaluate(tree, {"k": 3}) == 0 + 1 + 2 + 3

    def test_purity(self):
        tree = ex.parse("sum(i, 0, n, i^2) / fact(n)")
        first = ex.evaluate(tree, {"n": 6})
        assert all(ex.evaluate(tree, {"n": 6}) == first for _ in range(5))


class TestRender:
    def test_simple_forms(self):
        assert ex.render(ex.parse("n + 3")) == "n + 3"
        assert ex.render(ex.parse("-n")) == "-n"

    def test_subtraction_grouping_is_preserved(self):
        left = ex.Sub(ex.Sub(ex.Variable("a"), ex.Variable("b")), ex.Variable("c"))
        right = ex.Sub(ex.Variable("a"), ex.Sub(ex.Variable("b"), ex.Variable("c")))
        assert ex.render(left) == "a - b - c"
        assert ex.render(right) == "a - (b - c)"
        assert ex.parse(ex.render(left)) == left
        assert ex.parse(ex.render(right)) == right

    def test_power_of_negated_base(self):
        tree = ex.Pow(ex.Negate(ex.Integer(1)), ex.Variable("i"))
        assert ex.render(tree) == "(-1)^i"

    def test_roundtrip_sum(self):
        text = "sum(k, 0, n + 1, fact(k + 1) * binom(n + 1, k))"
        assert ex.render(ex.parse(text)) == text

    def test_roundtrip_generated_asts(self):
        rng = random.Random(20240811)
        for _ in range(300):
            tree = gen_expr(rng, rng.randint(0, 6))
            assert ex.parse(ex.render(tree)) == tree

    def test_integer_nodes_are_nonnegative(self):
        with pytest.raises(ValueError):
            ex.Integer(-1)


class TestFreeVars:
    def test_sum_binds_its_variable(self):
        tree = ex.parse("sum(k, 0, n, k + m)")
        assert ex.free_vars(tree) == {"n", "m"}

    def test_bounds_are_outside_the_binding(self):
        tree = ex.parse("sum(k, k, k + 1, k)")
        assert ex.free_vars(tree) == {"k"}

    def test_closed_expression(self):
        assert ex.free_vars(ex.parse("fact(3) + binom(4, 2)")) == frozenset()


class TestTraversal:
    def test_walk_is_preorder_left_to_right(self):
        tree = ex.parse("sum(k, 0, n, k * 2) - fact(3)")
        assert [ex.render(node) for node in ex.walk(tree)] == [
            "sum(k, 0, n, k * 2) - fact(3)",
            "sum(k, 0, n, k * 2)", "0", "n", "k * 2", "k", "2",
            "fact(3)", "3",
        ]

    def test_rebuild_inverts_children(self):
        rng = random.Random(0x7EE)
        for _ in range(600):
            for node in ex.walk(gen_expr(rng, rng.randint(0, 6))):
                assert ex.rebuild(node, ex.children(node)) == node

    def test_substitute_is_a_shift_of_the_binding(self):
        rng = random.Random(0x5B57)
        shift = ex.parse("t + 1")
        assert "t" not in VAR_NAMES
        compared = 0
        for _ in range(1000):
            tree = gen_value_safe_expr(rng, rng.randint(0, 5))
            others = {name: rng.randint(-3, 6) for name in VAR_NAMES if name != "n"}
            k = rng.randint(-3, 6)
            got = _outcome(lambda: ex.compile(substitute(tree, "n", shift))({**others, "t": k}))
            want = _outcome(lambda: ex.compile(tree)({**others, "n": k + 1}))
            assert got == want, ex.render(tree)
            compared += want[0] == "value"
        assert compared > 500

    @pytest.mark.parametrize("call", [
        ex.children, ex.free_vars, ex.compile, ex.render,
        lambda e: list(ex.walk(e)),
        lambda e: substitute(e, "n", ex.Integer(1)),
    ])
    def test_non_expr_is_a_type_error(self, call):
        with pytest.raises(TypeError, match="not an Expr node"):
            call(3)


def test_bounded_sum_matches_naive_loop(rng):
    """Sum node versus an explicit re-evaluation loop, 100 random cases."""
    for _ in range(100):
        lo = rng.randint(-3, 4)
        hi = rng.randint(-3, 8)
        body = gen_value_safe_expr(rng, 2)
        # keep the body total: divisions and factorials may fail on random input
        try:
            expected = sum(
                (ex.evaluate(body, {"k": i, "n": 2, "i": 1, "m": 3, "x": 5}) for i in range(lo, hi + 1)),
            start=F(0))
        except ex.EvalError:
            continue
        tree = ex.BoundedSum("k", _int_expr(lo), _int_expr(hi), body)
        got = ex.evaluate(tree, {"n": 2, "i": 1, "m": 3, "x": 5})
        assert got == expected


def _int_expr(value: int) -> ex.Expr:
    return ex.Integer(value) if value >= 0 else ex.Negate(ex.Integer(-value))


def _outcome(run):
    """("value", v, type(v)) or ("error", message) for a zero-argument call."""
    try:
        value = run()
    except ex.EvalError as exc:
        return ("error", str(exc))
    return ("value", value, type(value))


class TestCompile:
    def test_matches_oracle_on_seeded_corpus(self):
        rng = random.Random(0x5EED)
        errors = 0
        for _ in range(3000):
            tree = gen_value_safe_expr(rng, rng.randint(0, 5))
            bindings = {name: rng.randint(-3, 6) for name in VAR_NAMES}
            got = _outcome(lambda: ex.compile(tree)(bindings))
            want = _outcome(lambda: oracle_evaluate(tree, bindings))
            assert got == want, ex.render(tree)
            assert want[0] == "error" or want[2] is F
            errors += want[0] == "error"
        assert 0 < errors < 3000  # both outcomes are exercised

    def test_compiled_callable_is_reusable(self):
        tree = ex.parse("sum(i, 0, n, i^2) / fact(n)")
        run = ex.compile(tree)
        assert [run({"n": n}) for n in range(6)] == [oracle_evaluate(tree, {"n": n}) for n in range(6)]

    def test_fraction_bindings_are_accepted(self):
        run = ex.compile(ex.parse("2 * n"))
        assert run({"n": F(3, 4)}) == F(3, 2)
        assert run({"n": F(6, 2)}) == 6

    def test_inexact_integer_division_falls_back_to_fraction(self):
        assert ex.compile(ex.parse("7 / n"))({"n": 2}) == F(7, 2)
        exact = ex.compile(ex.parse("8 / n"))({"n": -2})
        assert exact == -4 and type(exact) is F

    def test_rational_sum(self):
        tree = ex.parse("sum(i, 2, 30, (-1)^i / fact(i))")
        got = ex.compile(tree)()
        assert got == oracle_evaluate(tree) and type(got) is F
        # partial sums of the series for 1/e
        assert abs(got - F(367879441171442, 10**15)) < F(1, 10**15)

    def test_rational_sum_that_reduces_to_an_integer(self):
        got = ex.compile(ex.parse("sum(i, 1, 4, 1/2)"))()
        assert got == 2 and type(got) is F

    def test_empty_sum(self):
        got = ex.compile(ex.parse("sum(i, n, 1, 1/i)"))({"n": 2})
        assert got == 0 and type(got) is F

    def test_division_evaluates_its_denominator_first(self):
        with pytest.raises(ex.EvalError, match="^division by zero$"):
            ex.compile(ex.parse("fact(0 - 1) / (n - n)"))({"n": 4})
        with pytest.raises(ex.EvalError, match="factorial of negative integer -1"):
            ex.compile(ex.parse("fact(0 - 1) / n"))({"n": 4})

    def test_power_evaluates_its_exponent_first(self):
        with pytest.raises(ex.EvalError, match="exponent must be an integer, got 1/2"):
            ex.compile(ex.parse("fact(0 - 1) ^ (1/2)"))()
        with pytest.raises(ex.EvalError, match="factorial of negative integer -1"):
            ex.compile(ex.parse("fact(0 - 1) ^ 2"))()

    def test_unbound_variable_is_reported_when_called(self):
        run = ex.compile(ex.parse("n + m"))
        with pytest.raises(ex.EvalError, match="unbound variable 'm'"):
            run({"n": 1})

    def test_evaluate_is_compile_then_call(self):
        tree = ex.parse("binom(n, 2) - 1/n")
        assert ex.evaluate(tree, {"n": 5}) == ex.compile(tree)({"n": 5}) == F(49, 5)


class TestCompiledFieldsAreHidden:
    def test_formula_spec_equality_hash_and_repr(self):
        def build():
            return FormulaSpec("s", ex.parse("1"), ex.parse("n"), ex.parse("n + 1"), ((F(2), F(1)),))

        first, second = build(), build()
        assert first == second
        assert hash(first) == hash(second)
        assert repr(first) == (
            "FormulaSpec(name='s', b0=Integer(value=1), a_tail=Variable(name='n'), "
            "b_tail=Add(left=Variable(name='n'), right=Integer(value=1)), "
            "prefix=((Fraction(2, 1), Fraction(1, 1)),))"
        )
        assert first != FormulaSpec("s", ex.parse("1"), ex.parse("n"), ex.parse("n + 2"))

    def test_hypothesis_equality_hash_and_repr(self):
        first = ClosedFormHypothesis(Side.A, ex.parse("n + 2"), 1)
        second = ClosedFormHypothesis(Side.A, ex.parse("n + 2"), 1)
        assert first == second and hash(first) == hash(second)
        assert "_at" not in repr(first)
        assert first.at(3) == 5

    def test_pickle_round_trip_recompiles(self):
        spec = FormulaSpec("s", ex.parse("2"), ex.parse("0 - n"), ex.parse("n + 3"), ((F(1, 2), F(1)),))
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and copy.term(4) == spec.term(4) == (F(-4), F(7))
        hyp = ClosedFormHypothesis(Side.B, ex.parse("fact(n)"), 2)
        hyp_copy = pickle.loads(pickle.dumps(hyp))
        assert hyp_copy == hyp and hyp_copy.at(5) == 120
