"""Tests of the benchmark's own oracles, generators and checks.

    python3 -m pytest bench -q      (from the repository root)

The oracles never import cfkit; where a test compares them with cfkit it
is a cross-check of two independent implementations.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import cfkit  # noqa: E402
import cfkit.cli  # noqa: E402
import load  # noqa: E402
import ops  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _states(name: str, up_to: int):
    return list(oracles.fold(oracles.FIXTURES[name], up_to))


def test_fixture_known_values():
    a_seq, b_seq = oracles.raw_sequences(oracles.FIXTURES["e_cf2"], 30)
    assert a_seq[:5] == [3, 11, 49, 261, 1631]
    assert b_seq == [(n + 1) * math.factorial(n + 1) for n in range(31)]
    a_seq, _ = oracles.raw_sequences(oracles.FIXTURES["e_cf1t"], 30)
    assert a_seq == [n + 2 for n in range(31)]
    # e_cf1 and its rescaled form share every convergent value
    left, right = _states("e_cf1", 40), _states("e_cf1t", 40)
    assert [oracles.value_of(s) for s in left] == [oracles.value_of(s) for s in right]


@pytest.mark.parametrize("name", sorted(workloads.HYPOTHESES))
def test_closed_forms_follow_the_recurrence(name):
    spec, side, _text, n0 = workloads.HYPOTHESES[name]
    a_seq, b_seq = oracles.raw_sequences(oracles.FIXTURES[spec], 80)
    seq = a_seq if side == "A" else b_seq
    assert [oracles.closed_form_value(name, n) for n in range(n0, 81)] == seq[n0:]


@pytest.mark.parametrize("name", sorted(workloads.HYPOTHESES))
def test_planted_failure_is_at_k(name):
    spec_name, side, _text, n0 = workloads.HYPOTHESES[name]
    spec = cfkit.load_fixture(spec_name)
    for k in (n0 + 2, n0 + 7, 40):
        hyp = cfkit.ClosedFormHypothesis(cfkit.Side(side), cfkit.parse(workloads.planted(name, k)), n0)
        report = cfkit.check_closed_form(spec, hyp, 60)
        assert report.first_failure is not None and report.first_failure.n == k
        op = {"kind": "closed", "hyp": "h", "base": name, "n_max": 60, "fail_at": k}
        ctx = _context({"hyps": {"h": [spec_name, side, workloads.planted(name, k), n0]}})
        assert ops.check(ctx, op, report)
        assert not ops.check(ctx, {**op, "fail_at": k + 1}, report)


def _context(extra: dict):
    plan = {"workload": "closed-form", "specs": {}, "fixtures": ["e_cf1t", "e_cf2"], "ops": [], **extra}
    return load.Context(cfkit, plan, str(ROOT))


def test_tail_roots_and_generated_numerators_never_vanish():
    assert oracles.Tail((-2, 1)).has_positive_integer_root()  # n - 2
    assert oracles.Tail((-6, 1), 1).has_positive_integer_root()  # (n - 6)/n
    assert not oracles.Tail((3, 1)).has_positive_integer_root()  # n + 3
    assert not oracles.Tail((1, 0, 1)).has_positive_integer_root()  # n^2 + 1
    rng = random.Random(7)
    for i in range(300):
        frac = workloads.random_frac(rng, f"t{i}", [1, 2, 3, "rational"][i % 4])
        assert all(frac.a.at(n) != 0 for n in range(1, 400))
        assert all(a != 0 for a, _b in frac.prefix)


def test_random_specs_agree_with_cfkit():
    plan = workloads.plan("fold", 3)
    for name, data in plan["specs"].items():
        frac = workloads.frac_from_json(data)
        rows = cfkit.convergents(cfkit.parse_formula_text(data["text"]), 60)
        assert oracles.check_convergents(frac, rows), name


def test_equals_agrees_with_fraction_equality():
    rng = random.Random(3)
    for _ in range(500):
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        g = rng.choice((1, -1)) * rng.randint(1, 10**9)
        num, den = x.numerator * g, x.denominator * g
        assert oracles.equals(x, num, den)
        for n, d in ((num + 1, den), (num, den + rng.choice((1, -1))), (rng.randint(-99, 99), rng.randint(1, 99))):
            if d:
                assert oracles.equals(x, n, d) == (Fraction(n, d) == x)


def test_convergent_check_rejects_a_changed_value():
    rows = cfkit.convergents(cfkit.load_fixture("e_cf2"), 20)
    frac = oracles.FIXTURES["e_cf2"]
    assert oracles.check_convergents(frac, rows)
    bad = list(rows)
    bad[13] = cfkit.Convergent(13, rows[13].A + 1, rows[13].B, rows[13].value)
    assert not oracles.check_convergents(frac, bad)


def test_limit_oracle_matches_cfkit():
    for name in oracles.FIXTURES:
        for digits in (10, 25, 60):
            est = cfkit.estimate_limit(cfkit.load_fixture(name), 400, digits)
            assert oracles.check_estimate(est, oracles.estimate(oracles.FIXTURES[name], 400, digits))


def test_decimals_match_cfkit_formatting():
    rng = random.Random(5)
    for _ in range(200):
        value = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        digits = rng.randint(0, 12)
        assert oracles.decimal_truncated(value, digits) == cfkit.numeric.decimal_string(value, digits)
        assert oracles.decimal_ceiling(abs(value), digits) == cfkit.numeric.decimal_string_ceil(abs(value), digits)


def test_e_enclosure_matches_the_documented_construction():
    for digits in (1, 18, 30, 60):
        low, high, d = oracles.e_enclosure(digits)
        interval = cfkit.e_high_precision(digits)
        assert (Fraction(low, d), Fraction(high, d)) == (interval.lower, interval.upper)


@pytest.mark.parametrize("shift,scale", [(0, 1), (2, -1), (-3, 2), (1, -2)])
def test_constructed_mobius_targets(shift, scale):
    frac, const = oracles.shifted_scaled_e_cf2(shift, scale)
    ref = oracles.estimate(frac, 60, 20)
    low, high = oracles.mobius_enclosure(const, 30)
    assert ref is not None and ref.value - ref.gap <= high and low <= ref.value + ref.gap
    assert oracles.limit_check(frac, const, 20, 60)[0] == "pass"
    wrong = oracles.normalize(const[0], const[1] + 1, const[2], const[3])
    assert oracles.limit_check(frac, wrong, 20, 60)[0] == "fail"
    k = max(map(abs, const))
    assert const in oracles.recognize(ref.value - ref.gap, ref.value + ref.gap, k, 30)


def test_recognition_oracle_matches_cfkit():
    rng = random.Random(11)
    for _ in range(6):
        const = workloads.random_constant(rng, 3)
        lower, upper = oracles.mobius_enclosure(const, rng.choice((4, 8, 20)))
        for k in (2, 3):
            got = cfkit.recognize(cfkit.Interval(lower, upper), max_coeff=k, e_digits=18)
            assert [(c.p, c.q, c.r, c.s) for c in got] == oracles.recognize(lower, upper, k, 18)


def test_recognize_plan_targets():
    plan = workloads.plan("recognize", 9)
    for op in plan["ops"][:40]:
        const = tuple(op["const"])
        if op["kind"] == "rec":
            lower, upper = Fraction(op["lower"]), Fraction(op["upper"])
            assert const in oracles.recognize(lower, upper, op["k"], op["e_digits"])
        elif op["kind"] == "limcheck":
            frac = workloads.frac_from_json(plan["specs"][op["spec"]])
            outcome, _worst = oracles.limit_check(frac, tuple(op["target"]), op["digits"], op["max_n"])
            assert outcome == op["expect"]


def test_decimal_interval_contains_the_constant():
    rng = random.Random(2)
    for _ in range(50):
        const = workloads.random_constant(rng, 3)
        text = workloads.decimal_interval(const, 15)
        if text is None:
            continue
        low, high = oracles.mobius_enclosure(const, 30)
        half = Fraction(1, 2 * 10**15)
        assert Fraction(text) - half <= low and high <= Fraction(text) + half


def test_plans_are_seeded():
    for workload in workloads.WORKLOADS:
        assert workloads.plan(workload, 4) == workloads.plan(workload, 4)
        assert workloads.plan(workload, 4) != workloads.plan(workload, 5)
        assert json.loads(json.dumps(workloads.plan(workload, 4)))


def test_strata_visit_every_part():
    draw = workloads.Strata(random.Random(1), 0, 79, 8)
    values = [draw.draw() for _ in range(16)]
    assert sorted(v // 10 for v in values) == sorted(list(range(8)) * 2)


def test_cli_references():
    root = ROOT
    assert ops.check_cli(["selftest"], 0, "x\n---\nstatus=ok\nchecks_passed=15\nchecks_failed=0\n", root)
    assert not ops.check_cli(["selftest"], 1, "x\n---\nstatus=ok\nchecks_passed=15\nchecks_failed=0\n", root)
    code, want = ops.expected_cli(("identify", "e_cf2", "--side", "A", "--terms", "5"), root)
    assert code == 0 and want["sequence"] == "3,11,49,261,1631"
    assert "A001339:1" in [want[f"match_{i}"] for i in range(1, int(want["match_count"]) + 1)]
    for argv in (["eval", "e_cf2", "--terms", "9", "--digits", "12"],
                 ["limit", "e_cf1t", "--max-terms", "40", "--digits", "15"],
                 ["recognize", "--value", "2.718281828459045", "--max-coeff", "3"],
                 ["transform", "e_cf1", "--unitize", "--terms", "8"]):
        out = io.StringIO()
        code = cfkit.cli.main(argv, out=out)
        assert ops.check_cli(argv, code, out.getvalue(), root), argv
        changed = out.getvalue().rstrip("\n") + "9\n"  # the last machine value
        assert not ops.check_cli(argv, code, changed, root), argv


def test_known_defect_fails_its_check():
    # a correct cfkit would print A_2000 and exit 0; the defect exits 2
    assert not ops.check_cli(workloads.KNOWN_DEFECT, 2, "", ROOT)


@pytest.mark.parametrize("workload", ["recognize", "cli"])
def test_setup_loads_only_what_cfkit_loads(workload):
    """Set-up time is cfkit's own: load.py brings in no module of its own."""
    import subprocess

    def modules(body: str) -> set[str]:
        code = (f"import sys, json; sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]; {body}; "
                "print(json.dumps(sorted(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], input=json.dumps(workloads.plan(workload, 1)),
                             capture_output=True, text=True, check=True).stdout
        return set(json.loads(out))

    plain = modules("import cfkit.cli" if workload == "cli" else "import cfkit")
    loaded = modules(f"import load; load.setup(json.loads(sys.stdin.read()), {str(ROOT)!r})")
    assert loaded - plain == {"load"}


def test_gauge_never_loads_cfkit():
    """A change to cfkit moves the ops but not the gauge that scales them."""
    import subprocess

    code = (f"import sys; sys.path[:0] = [{str(HERE)!r}]; import gauge; gauge.gauge_ms(); "
            "print(sorted(m for m in sys.modules if m.startswith('cfkit')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.metric_units()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
