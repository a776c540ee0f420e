"""The key = "value" formula file format."""

from fractions import Fraction as F

import pytest

from cfkit import (
    FormulaFileError,
    SpecValidationError,
    load_fixture,
    parse_formula_text,
    render_formula_text,
)
from cfkit import expr as ex

GOOD = '''
# a comment
name = "demo"
b0 = "3"
a = "-n"
b = "n + 3"
'''


class TestParse:
    def test_minimal_file(self):
        spec = parse_formula_text(GOOD)
        assert spec.name == "demo"
        assert spec.b0 == ex.Integer(3)
        assert spec.a_tail == ex.Negate(ex.Variable("n"))
        assert spec.prefix == ()

    def test_prefix_lines_in_order(self):
        spec = parse_formula_text(
            'name = "p"\nb0 = "2"\nprefix = "1, 1"\nprefix = "1/2, 3"\na = "n"\nb = "1"\n'
        )
        assert spec.prefix == ((F(1), F(1)), (F(1, 2), F(3)))

    def test_missing_key_names_it(self):
        with pytest.raises(FormulaFileError, match="'a'"):
            parse_formula_text('name = "x"\nb0 = "1"\nb = "1"\n')

    def test_duplicate_key_rejected(self):
        with pytest.raises(FormulaFileError, match="duplicate"):
            parse_formula_text('name = "x"\nname = "y"\nb0 = "1"\na = "1"\nb = "1"\n')

    def test_unknown_key_rejected(self):
        with pytest.raises(FormulaFileError, match="unknown key"):
            parse_formula_text(GOOD + 'extra = "1"\n')

    def test_unquoted_value_rejected(self):
        with pytest.raises(FormulaFileError, match="double quotes"):
            parse_formula_text('name = demo\nb0 = "1"\na = "1"\nb = "1"\n')

    def test_bad_expression_carries_line(self):
        with pytest.raises(FormulaFileError, match="line 3"):
            parse_formula_text('name = "x"\nb0 = "1"\na = "n +"\nb = "1"\n')

    def test_bad_prefix_rational(self):
        with pytest.raises(FormulaFileError, match="prefix"):
            parse_formula_text('name = "x"\nb0 = "1"\nprefix = "one, 1"\na = "n"\nb = "1"\n')

    def test_prefix_needs_two_entries(self):
        with pytest.raises(FormulaFileError, match="a_i, b_i"):
            parse_formula_text('name = "x"\nb0 = "1"\nprefix = "1"\na = "n"\nb = "1"\n')

    def test_zero_numerator_is_rejected_on_load(self):
        with pytest.raises(SpecValidationError, match="'x'.*n = 3"):
            parse_formula_text('name = "x"\nb0 = "1"\na = "n - 3"\nb = "1"\n')


class TestRender:
    def test_roundtrip_fixtures(self):
        for name in ("e_cf1", "e_cf1t", "e_cf2"):
            spec = load_fixture(name)
            assert parse_formula_text(render_formula_text(spec)) == spec

    def test_rendered_text_is_plain_lines(self):
        text = render_formula_text(load_fixture("e_cf1"))
        assert 'prefix = "1, 1"' in text.splitlines()
