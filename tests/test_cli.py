"""Command line behavior through real spawned processes."""

import subprocess
import sys
import time

import pytest

from cfkit.recognize import MAX_COEFF_LIMIT, MAX_TARGET_EXPONENT

BAD_FILE = 'name = "broken"\nb0 = "1"\nb = "1"\n'  # missing the "a" key


def run_cli(*args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "cfkit", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def machine_block(stdout: str) -> dict[str, str]:
    lines = stdout.splitlines()
    assert "---" in lines, f"no machine separator in output:\n{stdout}"
    block = lines[len(lines) - 1 - lines[::-1].index("---") :]
    pairs = {}
    for line in block[1:]:
        key, _, value = line.partition("=")
        assert key not in pairs, f"duplicate machine key {key}"
        pairs[key] = value
    return pairs


class TestEval:
    def test_table_values(self):
        result = run_cli("eval", "e_cf2", "--terms", "2", "--digits", "6")
        assert result.returncode == 0
        block = machine_block(result.stdout)
        assert block["A_2"] == "49"
        assert block["B_2"] == "18"
        assert block["z_2"] == "49/18"
        assert block["z_2_decimal"] == "2.722222~"
        assert "11/4" in result.stdout  # n = 1 row

    def test_single_row_at_zero(self):
        result = run_cli("eval", "e_cf1t", "--terms", "0")
        assert result.returncode == 0
        assert machine_block(result.stdout)["z_0"] == "2"

    def test_missing_key_is_usage_error(self, tmp_path):
        path = tmp_path / "broken.cf"
        path.write_text(BAD_FILE)
        result = run_cli("eval", str(path))
        assert result.returncode == 2
        assert "'a'" in result.stderr

    def test_invalid_formula_is_usage_error_naming_it(self, tmp_path):
        path = tmp_path / "x.cf"
        path.write_text('name = "x"\nb0 = "1"\na = "n - 3"\nb = "1"\n')
        result = run_cli("eval", str(path))
        assert result.returncode == 2
        assert "'x'" in result.stderr and "n = 3" in result.stderr

    def test_unknown_file_is_usage_error(self):
        result = run_cli("eval", "no_such_file.cf")
        assert result.returncode == 2

    def test_unknown_flag_is_usage_error(self):
        result = run_cli("eval", "e_cf2", "--frobnicate")
        assert result.returncode == 2


    def test_results_past_the_int_text_cap_print(self):
        # A_2000 and B_2000 of e_cf2 run past Python's default 4300-digit
        # cap on int-to-text conversion; main lifts it and puts it back.
        import io
        from math import factorial

        from cfkit.cli import main

        limit = sys.get_int_max_str_digits()
        out = io.StringIO()
        assert main(["eval", "e_cf2", "--terms", "2000"], out=out) == 0
        assert sys.get_int_max_str_digits() == limit
        text = machine_block(out.getvalue())["B_2000"]
        assert len(text) > 4300
        sys.set_int_max_str_digits(0)
        try:
            assert int(text) == 2001 * factorial(2001)
        finally:
            sys.set_int_max_str_digits(limit)


class TestLimit:
    def test_converged_exit_zero(self):
        result = run_cli("limit", "e_cf1t", "--max-terms", "40", "--digits", "15")
        assert result.returncode == 0
        block = machine_block(result.stdout)
        assert block["verdict"] == "converged"
        assert block["value"].startswith("2.718281828459045")

    def test_not_converged_exit_one(self, tmp_path):
        path = tmp_path / "golden.cf"
        path.write_text('name = "golden"\nb0 = "1"\na = "1"\nb = "1"\n')
        result = run_cli("limit", str(path), "--max-terms", "10", "--digits", "30")
        assert result.returncode == 1
        assert machine_block(result.stdout)["verdict"] == "maxTermsReached"


class TestVerify:
    def test_paper_section_two_two(self):
        result = run_cli(
            "verify",
            "e_cf2",
            "--closed-b", "(n+1)*fact(n+1)",
            "--closed-a", "sum(k,0,n+1,fact(k+1)*binom(n+1,k))",
            "--valid-from", "1",
            "--target", "e",
        )
        assert result.returncode == 0
        block = machine_block(result.stdout)
        assert block["closed_a_verdict"] == "verifiedUpTo"
        assert block["closed_b_verdict"] == "verifiedUpTo"
        assert block["limit_outcome"] == "pass"

    def test_paper_section_two_one(self):
        result = run_cli(
            "verify",
            "e_cf1t",
            "--closed-a", "n+2",
            "--closed-b", "(n+2) * sum(i,2,n+2,(-1)^i/fact(i))",
            "--target", "e",
        )
        assert result.returncode == 0

    def test_wrong_closed_form_exits_one(self):
        result = run_cli("verify", "e_cf1t", "--closed-a", "n+3")
        assert result.returncode == 1
        assert machine_block(result.stdout)["closed_a_verdict"] == "failedAtBase"

    def test_nothing_to_verify_is_usage_error(self):
        result = run_cli("verify", "e_cf1t")
        assert result.returncode == 2

    def test_bad_target_is_usage_error(self):
        result = run_cli("verify", "e_cf1t", "--target", "e*e")
        assert result.returncode == 2

    @pytest.mark.parametrize("target", ["e^100000", "2^100000000"])
    def test_huge_target_exponent_is_usage_error(self, target):
        result = run_cli("verify", "e_cf2", "--target", target, timeout=10)
        assert result.returncode == 2
        exponent = target.split("^")[1]
        assert result.stderr == f"error: target exponent {exponent} exceeds {MAX_TARGET_EXPONENT}\n"


class TestTransform:
    def test_scale_preserves_values(self):
        result = run_cli("transform", "e_cf1t", "--scale", "n", "--terms", "8")
        assert result.returncode == 0
        assert machine_block(result.stdout)["equal_through"] == "8"

    def test_unitize(self):
        result = run_cli("transform", "e_cf1", "--unitize", "--terms", "8")
        assert result.returncode == 0
        assert machine_block(result.stdout)["equal_through"] == "8"

    def test_zero_scaling_is_usage_error(self):
        result = run_cli("transform", "e_cf1t", "--scale", "n - 2")
        assert result.returncode == 2

    def test_scaling_failing_past_the_old_probe_is_usage_error(self):
        result = run_cli("transform", "e_cf1t", "--scale", "1/(n - 101)")
        assert result.returncode == 2
        assert result.stderr.startswith("error: scaling c(n) = 1 / (n - 101): ")
        assert "a(101)" in result.stderr


class TestRecognize:
    def test_decimal_value(self):
        result = run_cli("recognize", "--value", "2.718281828459045")
        assert result.returncode == 0
        assert machine_block(result.stdout)["match_1"] == "1,0,0,1"

    def test_formula_limit(self):
        result = run_cli("recognize", "e_cf2", "--max-coeff", "3", "--digits", "12")
        assert result.returncode == 0
        assert machine_block(result.stdout)["match_1"] == "1,0,0,1"

    def test_no_match_exits_one(self):
        result = run_cli("recognize", "--value", "1.23456789012345678", "--max-coeff", "2")
        assert result.returncode == 1
        assert machine_block(result.stdout)["match_count"] == "0"

    def test_bad_value_is_usage_error(self):
        result = run_cli("recognize", "--value", "2.718e0")
        assert result.returncode == 2

    def test_max_coeff_above_the_limit_is_usage_error(self):
        # fails fast instead of enumerating (2*100000 + 1)^3 candidates
        result = run_cli("recognize", "--value", "2.7", "--max-coeff", "100000", timeout=30)
        assert result.returncode == 2
        assert f"max_coeff must be <= {MAX_COEFF_LIMIT}" in result.stderr


class TestIdentify:
    def test_a_side_fingerprint(self):
        result = run_cli("identify", "e_cf2", "--side", "A", "--terms", "5")
        assert result.returncode == 0
        block = machine_block(result.stdout)
        assert block["match_1"] == "A001339:1"
        assert block["url"] == "https://oeis.org/search?q=3,11,49,261,1631&fmt=json"

    def test_b_side_fingerprint(self):
        result = run_cli("identify", "e_cf2", "--side", "B", "--terms", "5")
        assert result.returncode == 0
        assert machine_block(result.stdout)["match_1"] == "A001563:1"

    def test_non_integer_side_is_usage_error(self):
        result = run_cli("identify", "e_cf1t", "--side", "B", "--terms", "5")
        assert result.returncode == 2
        assert "3/2" in result.stderr

    def test_short_query_is_usage_error(self):
        result = run_cli("identify", "e_cf2", "--side", "A", "--terms", "3")
        assert result.returncode == 2
        assert "too short" in result.stderr

    def test_custom_snapshot(self, tmp_path):
        path = tmp_path / "snap.stripped"
        path.write_text("A999999 ,3,11,49,261,1631,\n")
        result = run_cli("identify", "e_cf2", "--side", "A", "--terms", "5", "--snapshot", str(path))
        assert result.returncode == 0
        assert machine_block(result.stdout)["match_1"] == "A999999:0"


class TestStartup:
    def test_network_module_is_not_imported(self):
        # urllib.request is loaded only by `identify --fetch`
        probe = "import cfkit.cli; import sys; print('urllib.request' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class TestSelftest:
    def test_runs_green_offline_and_fast(self):
        start = time.perf_counter()
        result = run_cli("selftest")
        elapsed = time.perf_counter() - start
        assert result.returncode == 0
        assert elapsed < 5.0
        block = machine_block(result.stdout)
        assert block["checks_failed"] == "0"
        assert "[FAIL]" not in result.stdout

    def test_a_failing_check_is_reported_and_exits_one(self, monkeypatch):
        import io

        from cfkit import cli

        monkeypatch.setattr(cli, "vn_simplification_check", lambda n_max: False)
        out = io.StringIO()
        assert cli.main(["selftest"], out=out) == 1
        lines = out.getvalue().splitlines()
        expected = [
            "[FAIL] value simplification forms: z_n differs from a summation form"
            if label == "value simplification forms"
            else f"[ok]   {label}"
            for label, _run in cli._selftest_checks()
        ]
        assert len(expected) == 15
        assert lines[:15] == expected
        assert lines[15:18] == ["", "14 passed, 1 failed", "---"]
        block = machine_block(out.getvalue())
        assert block == {"status": "failed", "checks_passed": "14", "checks_failed": "1"}


class TestMachineBlocks:
    @pytest.mark.parametrize(
        "args",
        [
            ("eval", "e_cf2", "--terms", "3"),
            ("limit", "e_cf2"),
            ("verify", "e_cf2", "--closed-b", "(n+1)*fact(n+1)", "--valid-from", "1"),
            ("transform", "e_cf2", "--unitize", "--terms", "5"),
            ("identify", "e_cf2", "--side", "A", "--terms", "5"),
            ("selftest",),
        ],
    )
    def test_every_command_emits_parseable_block(self, args):
        result = run_cli(*args)
        block = machine_block(result.stdout)
        assert "status" in block
