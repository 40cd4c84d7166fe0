"""CLI contract: exit codes, output formats, input files, determinism."""

import argparse
import http.server
import os
import re
import socketserver
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import streamres
from streamres import analytics, cli, registry
from streamres.cli import _LEAST, CheckResult, build_parser, main, run_verify
from streamres.simulator import MonotonicityConfig, run_depletion, run_monotonicity
from streamres.viability import Rng


# `verify --format records` at the defaults.  The Monte Carlo actuals pin the
# sampling schemes: exact-law antithetic pairs for depletion (T1.1-T1.5), one
# substream of uniforms inverted to round counts for the speedup estimate
# (T2.4).
DEFAULT_RECORDS = (
    "T1.1\t10\t10.19\t0.3\tpass\n"
    "T1.2\t91.4\t91.6768\t1.5\tpass\n"
    "T1.3\t9.15\t8.996741904\t0.2\tpass\n"
    "T1.4\t1.833333333\t8.996741904\t0\tpass\n"
    "T1.5\t15.45354445\t15.41229647\t0.5\tpass\n"
    "T2.1\t4.27\t4.273432576\t0.01\tpass\n"
    "T2.2\t4.01\t4.009743677\t0.01\tpass\n"
    "T2.3\t5.31\t5.3125\t0.01\tpass\n"
    # Per-trial substreams gave 4.26892, per-block geometric() draws 4.271557284.
    "T2.4\t4.273432576\t4.270914582\t0.05\tpass\n"
    "T2.5\t0\t0\t0\tpass\n"
    "T3.1\t0\t0\t0\tpass\n"
    "T3.2\t2160\t2160\t0\tpass\n"
    "T3.3\t15\t0.17\t5\tpass\n"
    "T3.4\t45\t0.1\t12\tpass\n"
    "T4.1\t2.25\t2.25\t0.001\tpass\n"
    "T4.2\t0.0553\t0.05526613675\t0.0005\tpass\n"
    "T4.3\t0.4206\t0.4206393543\t0.0005\tpass\n"
    "T4.4\t0.9116\t0.9115837526\t0.0005\tpass\n"
    "T4.5\t-0.01\t-0.009688299389\t0.002\tpass\n"
    "T4.6\t0.055\t0.05542386568\t0.002\tpass\n"
    "T4.7\t0.079\t0.07849025522\t0.002\tpass\n"
    "T4.8\t-0.12\t-0.12\t1e-06\tpass\n"
    "T4.9\t-0.097\t-0.09720453375\t0.002\tpass\n"
    "T4.10\t2\t0\t0\tpass\n"
)

# `verify --format records --seed 7 --trials 300`: a second seed for every
# sampling scheme; the rows run at --trials widen by sqrt(5000 / 300).
SEED7_RECORDS = (
    "T1.1\t10\t9.98\t1.224744871\tpass\n"
    "T1.2\t91.4\t91.75333333\t6.123724357\tpass\n"
    "T1.3\t9.15\t9.193720775\t0.8164965809\tpass\n"
    "T1.4\t1.833333333\t9.193720775\t0\tpass\n"
    "T1.5\t15.45354445\t14.68565786\t2.041241452\tpass\n"
    "T2.1\t4.27\t4.273432576\t0.01\tpass\n"
    "T2.2\t4.01\t4.009743677\t0.01\tpass\n"
    "T2.3\t5.31\t5.3125\t0.01\tpass\n"
    "T2.4\t4.273432576\t4.297333333\t0.2041241452\tpass\n"
    "T2.5\t0\t0\t0\tpass\n"
    "T3.1\t0\t0\t0\tpass\n"
    "T3.2\t2160\t2160\t0\tpass\n"
    "T3.3\t15\t0.07\t5\tpass\n"
    "T3.4\t45\t0.21\t12\tpass\n"
    "T4.1\t2.25\t2.25\t0.001\tpass\n"
    "T4.2\t0.0553\t0.05526613675\t0.0005\tpass\n"
    "T4.3\t0.4206\t0.4206393543\t0.0005\tpass\n"
    "T4.4\t0.9116\t0.9115837526\t0.0005\tpass\n"
    "T4.5\t-0.01\t-0.009688299389\t0.002\tpass\n"
    "T4.6\t0.055\t0.05542386568\t0.002\tpass\n"
    "T4.7\t0.079\t0.07849025522\t0.002\tpass\n"
    "T4.8\t-0.12\t-0.12\t1e-06\tpass\n"
    "T4.9\t-0.097\t-0.09720453375\t0.002\tpass\n"
    "T4.10\t2\t0\t0\tpass\n"
)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, err = run_cli(["verify", "--trials", "100"], capsys)
        assert code == 0
        assert "24 checks: 24 passed, 0 failed" in out

    def test_records_format(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--trials", "100", "--format", "records"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 24
        for line in lines:
            fields = line.split("\t")
            assert len(fields) == 5
            assert fields[4] in ("pass", "fail")
        assert lines[0].startswith("T1.1\t")
        assert lines[-1].startswith("T4.10\t")

    def test_records_are_deterministic(self):
        a = run_verify(seed=42, trials=200).records()
        b = run_verify(seed=42, trials=200).records()
        assert a == b

    def test_records_identical_across_worker_counts(self):
        serial = run_verify(seed=42, trials=300, workers=1).records()
        threaded = run_verify(seed=42, trials=300, workers=4).records()
        assert serial == threaded

    def test_seed_changes_monte_carlo_actuals(self):
        a = run_verify(seed=1, trials=200).records()
        b = run_verify(seed=2, trials=200).records()
        assert a != b

    def test_default_records(self, capsys):
        code, out, _ = run_cli(["verify", "--format", "records"], capsys)
        assert code == 0
        assert out == DEFAULT_RECORDS

    def test_seed7_records(self, capsys):
        argv = ["verify", "--format", "records", "--seed", "7", "--trials", "300"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out == SEED7_RECORDS

    def test_below_minimum_trials_is_usage_error(self, capsys):
        code, _, err = run_cli(["verify", "--trials", "50"], capsys)
        assert code == 2
        assert "trials" in err

    def test_report_shape(self):
        report = run_verify(seed=42, trials=200)
        assert len(report.checks) == 24
        assert report.all_passed
        ids = [result.check.id for result in report.checks]
        assert ids == sorted(ids, key=lambda s: (s.split(".")[0], int(s.split(".")[1])))
        for result in report.checks:
            assert result.check.provenance in ("closed-form", "monte-carlo", "deterministic")

    def test_soft_checks_warn_but_pass(self):
        report = run_verify(seed=42, trials=200)
        soft = [result for result in report.checks if result.check.soft]
        assert {result.check.id for result in soft} == {"T3.3", "T3.4"}
        for result in soft:
            assert result.passed

    def test_claims_table_names_every_check_once(self):
        # README "Claims": the Rows column of each line, as comma-separated
        # ids or a dash.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Claims\n", 1)[1].split("\n## ", 1)[0]
        lines = [line for line in section.splitlines() if line.startswith("| ")]
        assert lines[0].startswith("| Claim | Rows |")
        named = []
        for line in lines[1:]:
            rows = line.split("|")[2].strip()
            if rows != "—":
                named.extend(row.strip() for row in rows.split(","))
        assert sorted(named) == sorted(check.id for check in registry.CHECKS)

    def test_run_verify_validation(self):
        with pytest.raises(ValueError):
            run_verify(trials=10)
        with pytest.raises(ValueError):
            run_verify(workers=0)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["speedup", "12", "3", "0.4", "--empirical", "--seed", "-3"],
            ["verify", "--trials", "100", "--seed", "-1"],
        ],
    )
    def test_negative_seed_fails_before_output(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "seed must be >= 0" in err

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as info:
            main(["explode"])
        assert info.value.code == 2

    def test_unknown_simulate_kind(self):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "weather"])
        assert info.value.code == 2

    def test_bad_rate_list(self, capsys):
        code, _, err = run_cli(
            ["simulate", "depletion", "--lambdas", "0.1,zebra"], capsys
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "rate, refill",
        [("nan", "--refill"), ("nan", "--no-refill"), ("inf", "--no-refill")],
    )
    def test_non_finite_rate_is_usage_error(self, capsys, rate, refill):
        argv = ["simulate", "depletion", "--lambdas", rate, refill]
        code, out, err = run_cli([*argv, "--trials", "100"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: failure rates must be finite\n"

    # 10**15 float64 draws are 8 PB, beyond any user address space, so the
    # allocation fails at once without touching memory.
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify"],
            ["simulate", "depletion"],
            ["speedup", "12", "3", "0.4", "--empirical"],
        ],
    )
    def test_trials_too_large_to_allocate_is_usage_error(self, capsys, argv):
        code, out, err = run_cli([*argv, "--trials", str(10**15)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    # Integers past the largest float overflow where they meet float arithmetic.
    @pytest.mark.parametrize(
        "argv",
        [
            ["speedup", str(10**400), "3", "0.4"],
            ["simulate", "depletion", "--horizon", str(10**400), "--trials", "100"],
            ["simulate", "thrash", "--levels", f"{10**400},720"],
        ],
    )
    def test_integer_too_large_for_a_float_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    # An integer option past the largest machine index is named before the
    # handler runs: these two once printed Python's and numpy's messages,
    # and a --steps that large never finished.
    @pytest.mark.parametrize(
        "argv, dest",
        [
            (["simulate", "depletion", "--horizon", str(10**400)], "horizon"),
            (["speedup", "12", "3", "0.4", "--empirical", "--trials", str(10**400)], "trials"),
            (["simulate", "thrash", "--steps", str(sys.maxsize + 1)], "steps"),
        ],
        ids=["horizon", "trials", "steps"],
    )
    def test_integer_past_machine_index_names_the_option(self, capsys, argv, dest):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {dest} must be <= {sys.maxsize}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["simulate", "thrash", "--levels", f"{10**400},720"],
                f"--levels: expected comma-separated positive integers, got '{10**400},720'",
            ),
            (
                ["simulate", "monotonicity", "--providers", f"{10**400}:0.9"],
                "--providers: expected comma-separated quality:availability "
                f"pairs, got '{10**400}:0.9'",
            ),
        ],
        ids=["levels", "providers"],
    )
    def test_quality_past_machine_index_names_the_option(self, capsys, argv, message):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_seed_has_no_upper_bound(self, capsys):
        argv = ["speedup", "12", "3", "0.4", "--empirical", "--trials", "100"]
        code, out, _ = run_cli([*argv, "--seed", str(10**400)], capsys)
        assert code == 0
        assert out.endswith("(100 trials)\n")

    @pytest.mark.parametrize("quality", ["72Op", "0"])
    def test_bad_url_quality_names_file_and_line(self, capsys, tmp_path, quality):
        urls = tmp_path / "urls.txt"
        urls.write_text(f"http://127.0.0.1:1/a.m3u8 720\nhttp://127.0.0.1:1/b.m3u8 {quality}\n")
        code, out, err = run_cli(["probe", "--urls", str(urls)], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"error: {urls}:2: quality must be a positive integer, got {quality!r}\n"
        )

    def test_url_quality_past_machine_index_names_file_and_line(
        self, capsys, tmp_path, monkeypatch
    ):
        # An integer past the largest float once became a candidate.
        def probe_all(*args, **kwargs):
            raise AssertionError("probed")

        monkeypatch.setattr(cli, "probe_all", probe_all)
        quality = str(10**400)
        urls = tmp_path / "urls.txt"
        urls.write_text(f"http://127.0.0.1:1/a.m3u8 720\nhttp://127.0.0.1:1/b.m3u8 {quality}\n")
        code, out, err = run_cli(["probe", "--urls", str(urls)], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"error: {urls}:2: quality must be a positive integer, got {quality!r}\n"
        )

    # int() alone takes underscores, surrounding spaces and non-ASCII digits:
    # each of these once probed or ran as 720.
    @pytest.mark.parametrize("quality", ["7_20", "٧٢٠", "+720"])
    def test_url_quality_takes_ascii_digits_only(self, capsys, tmp_path, quality):
        urls = tmp_path / "urls.txt"
        urls.write_text(f"http://127.0.0.1:1/a 720\nhttp://127.0.0.1:1/b {quality}\n")
        code, out, err = run_cli(["probe", "--urls", str(urls)], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"error: {urls}:2: quality must be a positive integer, got {quality!r}\n"
        )

    @pytest.mark.parametrize("levels", ["1_080,720", "1080, 720", "١٠٨٠,720"])
    def test_levels_take_ascii_digits_only(self, capsys, levels):
        code, out, err = run_cli(["simulate", "thrash", "--levels", levels], capsys)
        assert (code, out) == (2, "")
        assert err == (
            "error: --levels: expected comma-separated positive integers, "
            f"got {levels!r}\n"
        )

    @pytest.mark.parametrize("steps", ["1_000", " 100", "١٠٠", "+100"])
    def test_integer_option_takes_ascii_digits_only(self, capsys, steps):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "thrash", "--steps", steps])
        captured = capsys.readouterr()
        assert (info.value.code, captured.out) == (2, "")
        assert captured.err.endswith(
            f"error: argument --steps: invalid int value: {steps!r}\n"
        )

    def test_negative_integer_option_reaches_its_bound(self, capsys):
        code, out, err = run_cli(["simulate", "monotonicity", "--sweep", "-1"], capsys)
        assert (code, out, err) == (2, "", "error: sweep must be >= 1\n")

    # float() alone takes underscores, surrounding spaces and non-ASCII
    # digits: each of these once ran with the number it spells without them.
    # A list entry's error names its option; an option's or a positional's
    # comes from argparse.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["simulate", "depletion", "--lambdas", "0.1_0,0.12"],
                "error: --lambdas: expected comma-separated numbers, "
                "got '0.1_0,0.12'",
            ),
            (
                ["simulate", "depletion", "--lambdas", "0.1, 0.12"],
                "error: --lambdas: expected comma-separated numbers, "
                "got '0.1, 0.12'",
            ),
            (
                ["simulate", "monotonicity", "--providers", "720:0.9,1080:٠.٥"],
                "error: --providers: expected comma-separated quality:availability "
                "pairs, got '720:0.9,1080:٠.٥'",
            ),
            (
                ["simulate", "monotonicity", "--tau", "0.3_0"],
                "error: argument --tau: invalid float value: '0.3_0'",
            ),
            (
                ["curves", "uptime", "--failure-rate", " 0.1"],
                "error: argument --failure-rate: invalid float value: ' 0.1'",
            ),
            (
                ["probe", "--urls", "urls.txt", "--timeout-ms", "1_000"],
                "error: argument --timeout-ms: invalid float value: '1_000'",
            ),
            (
                ["speedup", "12", "3", "0.4 "],
                "error: argument f: invalid float value: '0.4 '",
            ),
            (
                ["score", "7_20", "1080"],
                "error: argument quality_active: invalid float value: '7_20'",
            ),
            (
                ["score", "720", "1080\n"],
                "error: argument quality_candidate: invalid float value: '1080\\n'",
            ),
            (
                ["score", "720", "1080", "--alpha", "0.8_8"],
                "error: argument --alpha: invalid float value: '0.8_8'",
            ),
        ],
        ids=[
            "lambdas-underscore", "lambdas-space", "providers", "tau",
            "failure-rate", "timeout-ms", "speedup-f", "score-active",
            "score-candidate", "prospect-override",
        ],
    )
    def test_float_takes_ascii_without_underscores_or_spaces(
        self, capsys, argv, message
    ):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.endswith(message + "\n")

    def test_hash_inside_a_url_is_not_a_comment(self, tmp_path):
        # A fragment was once cut off as a comment, and its quality with it.
        urls = tmp_path / "urls.txt"
        urls.write_text(
            "http://127.0.0.1:9/a#t=10 1080\n"
            "http://127.0.0.1:9/b 1080 # note\n"
            "# whole line\n"
            "  # indented\n"
            "http://127.0.0.1:9/c\t#tab 2160\n"
        )
        assert [(c.id, c.locator, c.quality) for c in cli._read_url_file(str(urls))] == [
            ("http://127.0.0.1:9/a#t=10", "http://127.0.0.1:9/a#t=10", 1080),
            ("http://127.0.0.1:9/b", "http://127.0.0.1:9/b", 1080),
            ("http://127.0.0.1:9/c", "http://127.0.0.1:9/c", 720),
        ]

    def test_url_line_with_extra_fields_is_usage_error(self, capsys, tmp_path):
        # A second quality was once dropped without a word.
        urls = tmp_path / "urls.txt"
        urls.write_text("http://127.0.0.1:1/a 720\nhttp://127.0.0.1:1/b 720 1080\n")
        code, out, err = run_cli(["probe", "--urls", str(urls)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {urls}:2: expected 'url [quality]', got 3 fields\n"

    @pytest.mark.parametrize("levels", ["720,nan", "720,,1080", "abc", "720,0"])
    def test_bad_thrash_levels_name_the_option(self, capsys, levels):
        argv = ["simulate", "thrash", "--levels", levels]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == (
            "error: --levels: expected comma-separated positive integers, "
            f"got {levels!r}\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["simulate", "depletion", "--lambdas", "0.1,zebra"],
                "--lambdas: expected comma-separated numbers, got '0.1,zebra'",
            ),
            (
                ["simulate", "monotonicity", "--providers", "720:0.9,1080"],
                "--providers: expected comma-separated quality:availability "
                "pairs, got '720:0.9,1080'",
            ),
            (
                ["simulate", "monotonicity", "--providers", "720:0.9,x:0.5"],
                "--providers: expected comma-separated quality:availability "
                "pairs, got '720:0.9,x:0.5'",
            ),
        ],
        ids=["lambdas", "providers-pair", "providers-quality"],
    )
    def test_bad_list_names_the_option(self, capsys, argv, message):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


class TestConfigFile:
    @pytest.mark.parametrize("command, flag", [("probe", "--urls")])
    @pytest.mark.parametrize(
        "name, reason", [("nope.txt", "No such file or directory"), ("", "Is a directory")]
    )
    def test_unreadable_file_is_usage_error(
        self, capsys, tmp_path, command, flag, name, reason
    ):
        path = tmp_path / name if name else tmp_path
        code, out, err = run_cli([command, flag, str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: {reason}\n"

    def test_file_that_is_not_utf8_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "urls.txt"
        path.write_bytes(b"http://127.0.0.1:9/a.m3u8\n\xff\n")
        code, out, err = run_cli(["probe", "--urls", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 26: "
            "invalid start byte\n"
        )


class TestScore:
    def test_switch_verdict(self, capsys):
        code, out, _ = run_cli(["score", "720", "1080", "--n", "3"], capsys)
        assert code == 0
        assert out == "0.055 SWITCH\n"

    def test_hold_verdicts(self, capsys):
        _, out, _ = run_cli(["score", "720", "720", "--n", "9"], capsys)
        assert out == "-0.120 HOLD\n"
        _, out, _ = run_cli(["score", "720", "1080", "--n", "1"], capsys)
        assert out == "-0.010 HOLD\n"

    def test_param_overrides(self, capsys):
        _, out, _ = run_cli(
            ["score", "720", "780", "--switch-cost", "0.0"], capsys
        )
        value, verdict = out.split()
        assert verdict == "SWITCH"
        assert float(value) > 0.0

    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--loss-aversion", "nan"),
            ("--switch-cost", "inf"),
            ("--quality-ceiling", "inf"),
        ],
    )
    def test_non_finite_param_is_usage_error(self, capsys, flag, text):
        code, out, err = run_cli(["score", "1080", "720", flag, text], capsys)
        assert code == 2
        assert out == ""
        assert "must be finite" in err

    def test_quality_ceiling_below_one_is_usage_error(self, capsys):
        argv = ["score", "720", "1080", "--quality-ceiling", "0.5"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == "error: quality_ceiling must be >= 1\n"

    def test_bad_quality_is_usage_error(self, capsys):
        code, _, err = run_cli(["score", "0", "1080"], capsys)
        assert code == 2


class TestSpeedup:
    def test_table_row(self, capsys):
        code, out, _ = run_cli(["speedup", "12", "3", "0.4"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("concurrent 1.0000")
        assert lines[1].startswith("batched 4.273")
        assert lines[2] == "speedup 4.27x"

    def test_whole_fleet_batch(self, capsys):
        _, out, _ = run_cli(["speedup", "10", "10", "0.3"], capsys)
        assert out.strip().split("\n")[2] == "speedup 1.00x"

    def test_empirical_close_to_closed_form(self, capsys):
        _, out, _ = run_cli(
            ["speedup", "12", "3", "0.4", "--empirical", "--trials", "20000"], capsys
        )
        empirical_line = out.strip().split("\n")[3]
        empirical = float(empirical_line.split()[1])
        assert empirical == pytest.approx(4.2734, abs=0.05)

    def test_invalid_scenario(self, capsys):
        code, _, err = run_cli(["speedup", "3", "5", "0.4"], capsys)
        assert code == 2

    def test_empirical_usage_error_prints_nothing(self, capsys):
        code, out, err = run_cli(["speedup", "12", "3", "0.9995", "--empirical"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: failure_prob must lie in [0, 0.999)\n"


class TestSimulate:
    def test_depletion_output_shape(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate",
                "depletion",
                "--lambdas",
                "0.10",
                "--trials",
                "2000",
            ],
            capsys,
        )
        assert code == 0
        assert out.startswith("mean ")
        assert "(2000 trials)" in out
        mean = float(out.split()[1])
        assert mean == pytest.approx(10.0, abs=0.6)

    def test_depletion_takes_one_slot_per_rate(self, capsys, monkeypatch):
        # Two rates are two slots: no slot count to pass, and the substream
        # is keyed by the rate count.
        paths = []
        substream = Rng.substream

        def recording(self, *path):
            paths.append(path)
            return substream(self, *path)

        monkeypatch.setattr(Rng, "substream", recording)
        code, out, _ = run_cli(
            ["simulate", "depletion", "--lambdas", "0.2,0.3", "--trials", "100"],
            capsys,
        )
        assert code == 0 and out.startswith("mean ")
        assert paths == [(1, 2)]

    def test_depletion_matches_registry_numbers(self, capsys):
        # Same flags as the registry run reproduce T1.2's actual.
        _, out, _ = run_cli(
            ["simulate", "depletion", "--lambdas", "0.10,0.12,0.15"],
            capsys,
        )
        mean = float(out.split()[1])
        report = run_verify(seed=42, trials=5000)
        t12 = next(result for result in report.checks if result.check.id == "T1.2")
        assert mean == pytest.approx(t12.actual, abs=0.05)

    # The simulate flags of each registry depletion run.
    DEPLETION_FLAGS = {
        "T1.1": ["--lambdas", "0.10"],
        "T1.2": ["--lambdas", "0.10,0.12,0.15"],
        "T1.5": ["--no-refill"],
    }

    @pytest.mark.parametrize("check", list(DEPLETION_FLAGS))
    def test_depletion_reproduces_registry_record(self, capsys, check):
        # README "Determinism": each registry depletion run is a simulate run.
        _, records, _ = run_cli(["verify", "--format", "records"], capsys)
        line = next(line for line in records.splitlines() if line.startswith(check + "\t"))
        code, out, _ = run_cli(["simulate", "depletion", *self.DEPLETION_FLAGS[check]], capsys)
        assert code == 0
        assert out.split()[1] == f"{float(line.split()[2]):.1f}"

    def test_registry_depletion_runs_never_share_a_substream(self, monkeypatch):
        # One substream per run, keyed by its shape.
        runs = []
        substream = Rng.substream

        def recorded(config, rng):
            paths = []
            runs.append(paths)

            def recording(self, *path):
                paths.append(self.path + path)
                return substream(self, *path)

            with monkeypatch.context() as patch:
                patch.setattr(Rng, "substream", recording)
                return run_depletion(config, rng)

        monkeypatch.setattr(registry, "run_depletion", recorded)
        run_verify(seed=42, trials=300)
        assert runs == [[(1, 1)], [(1, 3)], [(0, 3)]]

    def test_thrash_defaults(self, capsys):
        code, out, _ = run_cli(["simulate", "thrash"], capsys)
        assert code == 0
        assert out.startswith("switches 0 ")

    def test_thrash_trace(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "thrash", "--levels", "360,2160", "--trace"], capsys
        )
        assert code == 0
        assert "switches 1" in out
        assert "\tupgrade\t" in out

    def test_monotonicity_sweep(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "monotonicity", "--sweep", "10", "--steps", "50"], capsys
        )
        assert code == 0
        assert "violations 0" in out
        assert "min-final-quality 2160" in out

    def test_monotonicity_trace_follows_the_summary(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "monotonicity", "--steps", "30", "--trace"], capsys
        )
        config = MonotonicityConfig(registry.REFERENCE_PROVIDERS, steps=30)
        trace: list[str] = []
        run_monotonicity(config, Rng(registry.DEFAULT_SEED), 0, trace_sink=trace)
        assert code == 0
        assert out.splitlines() == [
            "violations 0",
            "min-final-quality 2160",
            "mean-convergence-step 0.00",
            "mean-switches 0.00",
            *trace,
        ]
        assert trace[0] == "0\tfilled\tp3-2160p\t-"

    @pytest.mark.parametrize("sweep", ["0", "-1"])
    def test_empty_monotonicity_sweep_is_usage_error(self, capsys, sweep):
        code, out, err = run_cli(["simulate", "monotonicity", "--sweep", sweep], capsys)
        assert code == 2
        assert out == ""
        assert "sweep must be >= 1" in err


class TestCurves:
    def test_uptime_matches_plotted_points(self, capsys):
        code, out, _ = run_cli(["curves", "uptime"], capsys)
        assert code == 0
        points = [line.split("\t") for line in out.strip().split("\n")]
        assert len(points) == 8
        plotted = [10.0, 15.0, 18.3, 20.8, 22.8, 24.5, 25.9, 27.2]
        for (k, y), expected in zip(points, plotted):
            assert float(y) == pytest.approx(expected, abs=0.05)

    def test_uptime_prints_utility_estimate_per_slot_count(self, capsys):
        # The harmonic sum is accumulated across lines; each line still
        # prints what utility_estimate gives for its slot count.
        code, out, _ = run_cli(
            ["curves", "uptime", "--slots", "500", "--failure-rate", "0.37"], capsys
        )
        assert code == 0
        assert out == "".join(
            f"{k}\t{analytics.utility_estimate(k, 0.37):.6g}\n" for k in range(1, 501)
        )

    def test_value_curve_passes_through_origin(self, capsys):
        _, out, _ = run_cli(["curves", "value", "--samples", "101"], capsys)
        rows = [line.split("\t") for line in out.strip().split("\n")]
        assert len(rows) == 101
        mid = rows[50]
        assert float(mid[0]) == 0.0
        assert float(mid[1]) == 0.0

    def test_weight_curve_midpoint(self, capsys):
        _, out, _ = run_cli(["curves", "weight", "--samples", "101"], capsys)
        rows = [line.split("\t") for line in out.strip().split("\n")]
        p, w = rows[50]
        assert float(p) == 0.5
        assert float(w) == pytest.approx(0.4206, abs=5e-4)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--slots", "0"], "slots must be >= 1"),
            (["--slots", "-2"], "slots must be >= 1"),
            (["--failure-rate", "nan"], "mean failure rate"),
            (["--failure-rate", "inf"], "mean failure rate"),
        ],
    )
    def test_bad_uptime_input_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(["curves", "uptime", *argv], capsys)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("curve", ["value", "weight"])
    @pytest.mark.parametrize("samples", ["1", "0"])
    def test_too_few_samples_is_usage_error(self, capsys, curve, samples):
        code, out, err = run_cli(["curves", curve, "--samples", samples], capsys)
        assert code == 2
        assert "samples" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["curves", "value", "--slots", "3"],
            ["curves", "value", "--failure-rate", "-5"],
            ["curves", "uptime", "--samples", "3"],
        ],
    )
    def test_option_of_another_curve_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


class _Handler(http.server.BaseHTTPRequestHandler):
    def do_HEAD(self):
        self.send_response(404 if self.path == "/missing" else 200)
        self.end_headers()

    def log_message(self, *args):
        pass


# One server for the module, as in test_probe.py, polling every 10 ms:
# shutdown() waits out a poll, 0.5 s at serve_forever's default.
@pytest.fixture(scope="module")
def local_server():
    with socketserver.TCPServer(("127.0.0.1", 0), _Handler) as server:
        threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()
        yield f"http://127.0.0.1:{server.server_address[1]}"
        server.shutdown()


class TestProbe:
    def test_probe_builds_reservoir(self, capsys, tmp_path, local_server):
        urls = tmp_path / "urls.txt"
        urls.write_text(
            f"{local_server}/a 1080\n{local_server}/b 720\n{local_server}/missing\n"
        )
        code, out, _ = run_cli(
            ["probe", "--urls", str(urls), "--k", "2", "--timeout-ms", "2000"], capsys
        )
        assert code == 0
        assert f"active {local_server}/a" in out
        assert f"standby {local_server}/b" in out
        assert "dead" in out

    def test_probe_all_dead_exits_one(self, capsys, tmp_path, local_server):
        urls = tmp_path / "urls.txt"
        urls.write_text(f"{local_server}/missing 720\n")
        code, out, _ = run_cli(["probe", "--urls", str(urls)], capsys)
        assert code == 1
        assert "acquisition failed" in out

    def test_repeated_url_is_admitted_once(self, capsys, tmp_path, local_server):
        urls = tmp_path / "urls.txt"
        line = f"{local_server}/a 1080\n"
        urls.write_text(f"{line}{line}{local_server}/b\n")
        code, out, _ = run_cli(["probe", "--urls", str(urls), "--k", "3"], capsys)
        assert code == 0
        assert f"active {local_server}/a" in out
        assert f"standby {local_server}/a" not in out
        assert f"standby {local_server}/b" in out

    def test_leading_bom_is_not_part_of_the_first_url(
        self, capsys, tmp_path, local_server
    ):
        # The BOM once stayed on the first URL, which then probed dead.
        urls = tmp_path / "urls.txt"
        urls.write_bytes(f"\ufeff{local_server}/a 720\n".encode("utf-8"))
        code, out, _ = run_cli(["probe", "--urls", str(urls)], capsys)
        assert code == 0
        assert out.endswith(f"active {local_server}/a\n")

    def test_malformed_bracketed_host_is_probed_dead(
        self, capsys, tmp_path, local_server
    ):
        # urlparse raises on an unclosed '[', which once aborted the probe.
        urls = tmp_path / "urls.txt"
        urls.write_text(f"http://[::1/a 720\n{local_server}/b 720\n")
        code, out, _ = run_cli(["probe", "--urls", str(urls)], capsys)
        assert code == 0
        assert re.search(r"^dead .* http://\[::1/a$", out, re.MULTILINE)
        assert re.search(rf"^ok .* {re.escape(local_server)}/b$", out, re.MULTILINE)
        assert out.endswith(f"active {local_server}/b\n")

    def test_zero_max_in_flight_is_usage_error(self, capsys, tmp_path, local_server):
        urls = tmp_path / "urls.txt"
        urls.write_text(f"{local_server}/a 1080\n")
        code, out, err = run_cli(
            ["probe", "--urls", str(urls), "--max-in-flight", "0"], capsys
        )
        assert code == 2
        assert "max_in_flight" in err
        assert out == ""

    def test_empty_url_file_is_usage_error(self, capsys, tmp_path):
        urls = tmp_path / "urls.txt"
        urls.write_text("# nothing here\n")
        code, _, err = run_cli(["probe", "--urls", str(urls)], capsys)
        assert code == 2

    @pytest.mark.parametrize("timeout", ["inf", "nan", "-inf"])
    def test_non_finite_timeout_is_usage_error(
        self, capsys, tmp_path, local_server, timeout
    ):
        urls = tmp_path / "urls.txt"
        urls.write_text(f"{local_server}/a 1080\n")
        code, out, err = run_cli(
            ["probe", "--urls", str(urls), f"--timeout-ms={timeout}"], capsys
        )
        assert (code, out) == (2, "")
        assert err == "error: timeout must be finite\n"

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_capacity_below_one_fails_before_probing(
        self, capsys, tmp_path, local_server, k
    ):
        urls = tmp_path / "urls.txt"
        urls.write_text(f"{local_server}/a 1080\n")
        code, out, err = run_cli(["probe", "--urls", str(urls), f"--k={k}"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: k must be >= 1\n"


# Every (subcommand, option, least value) that main checks before the handler
# runs.  Written out, so an entry dropped from cli._LEAST fails below.
BOUNDED_OPTIONS = [
    ("verify", "seed", 0),
    ("verify", "trials", 100),
    ("simulate depletion", "seed", 0),
    ("simulate depletion", "trials", 100),
    ("simulate monotonicity", "seed", 0),
    ("simulate monotonicity", "k", 1),
    ("simulate monotonicity", "sweep", 1),
    ("speedup", "seed", 0),
    ("speedup", "trials", 100),
    ("probe", "k", 1),
    ("curves value", "samples", 2),
    ("curves weight", "samples", 2),
    ("curves uptime", "slots", 1),
]


def test_bounds_table_covers_exactly_the_listed_options():
    bounded = {
        (command, option[2:], _LEAST[option[2:]])
        for command, options in subcommand_options(build_parser())
        for option in options
        if option[2:] in _LEAST
    }
    assert bounded == set(BOUNDED_OPTIONS)


# Probing 127.0.0.1:1 is refused at once, so a bound checked only after the
# probe round shows up as output, not as a hang.
@pytest.mark.parametrize("command, dest, least", BOUNDED_OPTIONS)
def test_option_below_its_bound_fails_before_output(
    capsys, tmp_path, command, dest, least
):
    urls = tmp_path / "urls.txt"
    urls.write_text("http://127.0.0.1:1/a 720\n")
    required = {"speedup": ["12", "3", "0.4"], "probe": ["--urls", str(urls)]}
    argv = [*command.split(), *required.get(command, []), f"--{dest}={least - 1}"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {dest} must be >= {least}\n"


class TestCheckResult:
    def test_comparison_modes(self):
        within = CheckResult(registry.Check("x", "d", 1.0, 0.1, "deterministic"), 1.05, 0.1, True)
        assert within.check.comparison == "within"

    def test_parser_exists_for_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for name in ("verify", "simulate", "score", "speedup", "probe", "curves"):
            assert name in text

    def test_verify_help_counts_the_registry_rows(self):
        text = build_parser().format_help()
        assert f"run the {len(registry.CHECKS)}-check registry" in text


def subcommand_options(parser, command=()):
    """(command, option strings) of every leaf subcommand under parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from subcommand_options(child, (*command, name))
            return
    options = {o for a in parser._actions for o in a.option_strings}
    yield " ".join(command), options - {"-h", "--help"}


def test_each_subcommand_takes_only_the_options_it_reads():
    prospect = {
        "--alpha", "--beta", "--loss-aversion", "--gamma", "--switch-cost",
        "--quality-ceiling", "--confidence-base",
    }
    assert dict(subcommand_options(build_parser())) == {
        "verify": {"--seed", "--trials", "--format"},
        "simulate depletion": {
            "--seed", "--trials", "--lambdas", "--horizon", "--refill",
            "--no-refill",
        },
        "simulate monotonicity": {
            "--seed", "--providers", "--steps", "--tau", "--k", "--sweep", "--trace",
        },
        "simulate thrash": {"--levels", "--steps", "--trace"},
        "score": {"--n", *prospect},
        "speedup": {"--seed", "--trials", "--empirical"},
        "probe": {"--urls", "--timeout-ms", "--k", "--max-in-flight"},
        "curves value": {"--samples"},
        "curves weight": {"--samples"},
        "curves uptime": {"--slots", "--failure-rate"},
    }


class TestPackageEntry:
    @staticmethod
    def python(*args):
        src = str(Path(streamres.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True
        )

    def test_import_leaves_cli_out(self):
        code = "import sys, streamres; sys.exit('streamres.cli' in sys.modules)"
        assert self.python("-c", code).returncode == 0

    def test_registry_needs_no_argument_parsing(self):
        code = (
            "import sys, streamres.registry; "
            "sys.exit('streamres.cli' in sys.modules or 'argparse' in sys.modules)"
        )
        assert self.python("-c", code).returncode == 0

    def test_cli_names_resolve_lazily(self):
        import streamres.cli

        for name in ("CheckResult", "VerifyReport", "main", "run_verify"):
            assert getattr(streamres, name) is getattr(streamres.cli, name)
        with pytest.raises(AttributeError):
            streamres.no_such_name

    def test_package_exports_every_module_name_once(self):
        from streamres import (
            analytics, probe, prospect, reservoir, simulator, viability,
        )

        home = {
            name: module
            for module in (analytics, probe, prospect, reservoir, simulator, viability)
            for name in module.__all__
        }
        home.update(dict.fromkeys(("CheckResult", "VerifyReport", "run_verify"), registry))
        home.update(main=cli, __version__=streamres)
        assert len(streamres.__all__) == len(set(streamres.__all__))
        assert set(streamres.__all__) == set(home)
        for name, module in home.items():
            assert getattr(streamres, name) is getattr(module, name)

    @pytest.mark.parametrize("module", ["streamres", "streamres.cli"])
    def test_run_as_module(self, module):
        done = self.python("-m", module, "verify", "--trials", "100")
        assert done.returncode == 0
        assert "24 checks: 24 passed" in done.stdout
        assert "RuntimeWarning" not in done.stderr

    def test_reader_that_closes_early_gets_no_traceback(self):
        # The first trial's 2000-step trace is about 114 KB, more than a pipe
        # holds, so the command is still writing when its reader goes.
        src = str(Path(streamres.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "streamres", "simulate", "monotonicity",
                "--providers", "360:0.95,720:0.6,1080:0.6,2160:0.35",
                "--tau", "0.3", "--sweep", "1", "--steps", "2000", "--trace",
            ],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"violations 0\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert stderr == b""
