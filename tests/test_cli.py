"""Tests for the command-line interface.

Covers exit codes, the all-strings JSON schema, text/JSON parity, scan
determinism across worker counts, and the built-in verification fixtures.
Most tests drive ``main()`` in-process.  The process-level behaviour tests
run ``python -m trinogen`` on the same source as the test process, so they
need no installation; only ``test_installed_entry_point`` needs an installed
``trinogen`` console script.
"""

import ast
import concurrent.futures
import dataclasses
import functools
import importlib
import inspect
import json
import math
import os
import pkgutil
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

import trinogen
from trinogen import cli, exactnum, ffactor, monogenity, newton, ore
from trinogen.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_UNCERTIFIED,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    SCAN_COLUMNS,
    _digest,
    _glue_range_values,
    _parse_range,
    build_report,
    main,
    render_text,
)
from trinogen.monogenity import InternalContradiction, Trinomial, verdict
from trinogen.newton import MalformedInput


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def analyze_json(capsys, *argv):
    code, out, err = run_cli(capsys, "analyze", "--json", *argv)
    return code, json.loads(out), err


# -- serialization units ---------------------------------------------------------


class TestDigest:
    def test_small_values(self):
        assert _digest(0) == "0"
        assert _digest(1) == "1"
        assert _digest(-1) == "-1"
        assert _digest(7) == "7"
        assert _digest(720) == "2^4 * 3^2 * 5"
        assert _digest(-12) == "-2^2 * 3"

    def test_known_discriminant(self):
        assert _digest(2**24 * 1273609) == "2^24 * 1273609"

    def test_unfactored_cofactor_shown_as_decimal(self):
        # Two primes above the bound, and their product above its square.
        p, q = 10**7 + 19, 10**7 + 79
        assert _digest(2 * p * q) == f"2 * {p * q}"


class TestParseRange:
    def test_basic(self):
        assert _parse_range("2:5", "r-range") == range(2, 6)
        assert _parse_range("-3:4", "a-range") == range(-3, 5)
        assert _parse_range("7:7", "b-range") == range(7, 8)

    @pytest.mark.parametrize("bad", ["5", "1:2:3x", "a:b", "5:1", ""])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            _parse_range(bad, "r-range")


class TestGlueRangeValues:
    def test_glues_separated_values(self):
        argv = ["scan", "--r-range", "3:3", "--b-range", "-2:8", "--out", "-"]
        assert _glue_range_values(argv) == [
            "scan",
            "--r-range=3:3",
            "--b-range=-2:8",
            "--out",
            "-",
        ]

    def test_leaves_other_tokens_alone(self):
        argv = ["analyze", "--n", "8", "--a-range=1:2"]
        assert _glue_range_values(argv) == argv

    def test_flag_at_end_unchanged(self):
        assert _glue_range_values(["--b-range"]) == ["--b-range"]


# -- analyze ---------------------------------------------------------------------


def walk_ints(node, path=()):
    """Yield (path, value) for every raw JSON int in the tree."""
    if isinstance(node, bool):
        return
    if isinstance(node, int):
        yield path, node
    elif isinstance(node, dict):
        for k, v in node.items():
            yield from walk_ints(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from walk_ints(v, path + (i,))


class TestAnalyzeJson:
    def test_report_shape_and_exit(self, capsys):
        code, report, _ = analyze_json(capsys, "--n", "8", "--a", "8", "--b", "8")
        assert code == EXIT_OK
        assert report["schema"] == 1
        assert report["tool"]["name"] == "trinogen"
        assert report["trinomial"] == "x^8 + 8*x + 8"
        assert report["input"] == {"n": "8", "m": "1", "a": "8", "b": "8", "r": "3"}
        assert report["discriminant"]["value"] == str(2**24 * 1273609)
        assert report["discriminant"]["digest"] == "2^24 * 1273609"
        assert report["verdict"]["kind"] == "PolyNotMonogenicFieldMonogenic"
        assert report["verdict"]["alpha"]["alpha"] == "theta^3 / 2^1"

    def test_only_raw_int_is_schema_version(self, capsys):
        for argv in (
            ("--n", "8", "--a", "8", "--b", "8"),
            ("--n", "8", "--a", "12", "--b", "3"),
            ("--r", "4", "--a", "8", "--b", "56"),
            ("--n", "64", "--a", "0", "--b", "-65"),
        ):
            _, report, _ = analyze_json(capsys, *argv)
            ints = list(walk_ints(report))
            assert ints == [(("schema",), 1)], argv

    def test_r_flag_equivalent_to_n(self, capsys):
        _, via_n, _ = analyze_json(capsys, "--n", "8", "--a", "8", "--b", "8")
        _, via_r, _ = analyze_json(capsys, "--r", "3", "--a", "8", "--b", "8")
        assert via_n == via_r

    def test_non_power_of_two_has_null_r(self, capsys):
        code, report, _ = analyze_json(capsys, "--n", "12", "--m", "5", "--a", "3", "--b", "3")
        assert report["input"]["r"] is None

    def test_only_p_restricts_evidence(self, capsys):
        _, report, _ = analyze_json(capsys, "--n", "8", "--a", "8", "--b", "8", "--p", "3")
        assert [e["p"] for e in report["evidence"]] == ["3"]
        assert [d["p"] for d in report["discriminant"]["primes"]] == ["3"]

    def test_engine_error_reported_not_crashed(self, capsys):
        # x^4 - 1 is divisible by x - 1: the engine reports that as
        # evidence-level data instead of crashing the report.
        code, report, _ = analyze_json(capsys, "--n", "4", "--a", "0", "--b", "-1")
        assert code == EXIT_UNCERTIFIED
        errors = [e for e in report["evidence"] if "error" in e]
        assert errors and "reducible" in errors[0]["error"]

    def test_splitting_evidence_content(self, capsys):
        _, report, _ = analyze_json(capsys, "--n", "8", "--a", "12", "--b", "3")
        ev = [e for e in report["evidence"] if e.get("p") == "2" and "error" not in e]
        assert len(ev) == 1
        fact = ev[0]
        assert fact["regular"] is True
        shapes = sorted((int(f["e"]), int(f["f"])) for f in fact["factors"])
        assert shapes == [(1, 1), (3, 1), (4, 1)]
        labels = [tuple(f["label"]) for f in fact["factors"]]
        assert len(set(labels)) == len(labels)

    def test_assume_irreducible_recorded(self, capsys):
        code, report, _ = analyze_json(
            capsys, "--n", "2", "--a", "1", "--b", "-1", "--assume-irreducible"
        )
        assert code == EXIT_OK
        assert report["verdict"]["irreducibility"] is None
        assert report["verdict"]["irreducibility_assumed"] is True

    def test_assumption_contradicted_at_every_square_prime(self, capsys):
        # x^4 + 2x - 3 has the root 1, which the engine finds at both square
        # primes of its discriminant, so no index bound is left to list.
        argv = ("--n", "4", "--a", "2", "--b", "-3", "--assume-irreducible")
        code, report, _ = analyze_json(capsys, *argv)
        assert code == EXIT_OK
        v = report["verdict"]
        assert v["trail"] == ["irreducible(assumed)", "assumption-contradicted"]
        assert v["reason"] == ("irreducibility was assumed but could not hold: "
                               "input is divisible by x - 1, hence reducible")
        assert "index_bounds" not in v
        code, text, _ = run_cli(capsys, "analyze", *argv)
        assert code == EXIT_OK
        for p in (2, 3):
            assert f"prime {p}: input is divisible by x - 1, hence reducible\n" in text

    def test_assumption_contradicted_at_the_screen_lists_other_bounds(self, capsys):
        # x^16 - 12x + 11 matches the mod-8 screen and has the root 1, found
        # at 2; the other square prime, 7, still has its index bound listed.
        argv = ("--n", "16", "--a", "-12", "--b", "11", "--assume-irreducible")
        code, report, _ = analyze_json(capsys, *argv)
        assert code == EXIT_OK
        v = report["verdict"]
        assert v["trail"] == [
            "irreducible(assumed)", "congruence-screen(mod8)", "assumption-contradicted"
        ]
        assert v["index_bounds"] == [{"p": "7", "bound": "1", "exact": True}]
        code, text, _ = run_cli(capsys, "analyze", *argv)
        assert code == EXIT_OK
        assert "  index at 7: 1 (exact)\n" in text

    def test_zero_discriminant_with_only_p(self, capsys):
        # x^2 + 2x + 1 = (x + 1)^2: no discriminant prime to list at --p 2.
        code, report, _ = analyze_json(capsys, "--n", "2", "--a", "2", "--b", "1", "--p", "2")
        assert code == EXIT_UNCERTIFIED
        assert report["discriminant"]["primes"] == []
        assert [e["p"] for e in report["evidence"]] == ["2"]
        assert report["verdict"]["trail"] == ["zero-discriminant"]


class TestAnalyzeText:
    def test_text_is_default_and_projection_of_json(self, capsys):
        code, text, _ = run_cli(capsys, "analyze", "--n", "8", "--a", "8", "--b", "8")
        assert code == EXIT_OK
        report = build_report(verdict(Trinomial(8, 1, 8, 8)))
        assert text == render_text(report)
        assert str(2**24 * 1273609) in text
        assert "2^24 * 1273609" in text
        assert "verdict: PolyNotMonogenicFieldMonogenic" in text
        assert "alpha = theta^3 / 2^1" in text
        assert "trail: " in text and " -> " in text

    def test_text_flag_matches_default(self, capsys):
        _, default_out, _ = run_cli(capsys, "analyze", "--n", "8", "--a", "12", "--b", "3")
        _, text_out, _ = run_cli(
            capsys, "analyze", "--text", "--n", "8", "--a", "12", "--b", "3"
        )
        assert default_out == text_out

    def test_polygon_table_rendered(self, capsys):
        _, text, _ = run_cli(capsys, "analyze", "--n", "8", "--a", "12", "--b", "3")
        assert "vertices: (0,4) (1,2) (4,1) (8,0)" in text
        assert "side |  s  | u_s |  l  |  h  |  e  |  d  | slope" in text
        assert "congruence pattern mod8" in text
        assert "common index divisor: 3 primes of residue degree 1 > 2 available" in text

    def test_uncertified_message(self, capsys):
        code, text, _ = run_cli(capsys, "analyze", "--n", "2", "--a", "1", "--b", "-1")
        assert code == EXIT_UNCERTIFIED
        assert "irreducibility: NOT certified" in text


class TestAnalyzeExitCodes:
    def test_usage_errors(self, capsys):
        # invalid trinomial shapes
        assert run_cli(capsys, "analyze", "--n", "4", "--m", "4", "--a", "1", "--b", "1")[0] == EXIT_USAGE
        assert run_cli(capsys, "analyze", "--n", "4", "--a", "1", "--b", "0")[0] == EXIT_USAGE
        assert run_cli(capsys, "analyze", "--n", "1", "--a", "1", "--b", "1")[0] == EXIT_USAGE
        assert run_cli(capsys, "analyze", "--r", "0", "--a", "1", "--b", "1")[0] == EXIT_USAGE
        # composite --p
        assert run_cli(capsys, "analyze", "--n", "8", "--a", "8", "--b", "8", "--p", "6")[0] == EXIT_USAGE

    def test_usage_error_messages_on_stderr(self, capsys):
        _, out, err = run_cli(capsys, "analyze", "--n", "4", "--a", "1", "--b", "0")
        assert out == ""
        assert "error:" in err

    def test_argparse_rejects_n_and_r_together(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--n", "8", "--r", "3", "--a", "1", "--b", "1"])
        assert exc.value.code == EXIT_USAGE

    def test_argparse_requires_degree(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--a", "1", "--b", "1"])
        assert exc.value.code == EXIT_USAGE

    def test_uncertified_exit(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--n", "2", "--a", "1", "--b", "-1")
        assert code == EXIT_UNCERTIFIED

    def test_unconfirmed_screen_exits_ok(self, capsys):
        # x^16 + 48x + 303 is certified irreducible and matches a screen that
        # its irregular polygon data at 2 cannot confirm.
        code, out, _ = run_cli(capsys, "analyze", "--n", "16", "--a", "48", "--b", "303")
        assert code == EXIT_OK
        assert "verdict: Inconclusive\n" in out
        assert "  index at 2: 15 (lower bound)\n  index at 3: 0 (exact)\n" in out

    def test_assume_flag_flips_exit(self, capsys):
        code, _, _ = run_cli(
            capsys, "analyze", "--n", "2", "--a", "1", "--b", "-1", "--assume-irreducible"
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize("degree", [("--n", "1025"), ("--r", "11"), ("--r", str(10**9))])
    def test_degree_above_cap(self, capsys, degree):
        code, out, err = run_cli(capsys, "analyze", *degree, "--a", "3", "--b", "5")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(cli.MAX_DEGREE) in err

    def test_cap_boundary(self):
        assert cli.MAX_DEGREE == 1024
        assert not cli._pow2_over_cap(10)
        assert cli._pow2_over_cap(11)

    @pytest.mark.parametrize("n,a,b", [(600, 10**6, 10**6), (1024, 100, 100)])
    def test_unprintable_discriminant_refused_before_verdict(self, capsys, monkeypatch, n, a, b):
        def no_verdict(*args, **kwargs):
            raise AssertionError("verdict was called")

        monkeypatch.setattr(cli, "verdict", no_verdict)
        code, out, err = run_cli(capsys, "analyze", "--n", str(n), "--a", str(a), "--b", str(b))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: the discriminant of ") and err.count("\n") == 1
        bits = abs(cli.disc_trinomial(Trinomial(n, 1, a, b))).bit_length()
        assert f"{bits} bits" in err and str(sys.get_int_max_str_digits()) in err

    def test_discriminant_at_the_digit_limit_is_analyzed(self, capsys, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(cli, "verdict", reached)
        argv = ("analyze", "--n", "3", "--a", str(10**215), "--b", str(10**215))
        digits = len(str(abs(cli.disc_trinomial(Trinomial(3, 1, 10**215, 10**215)))))
        assert digits >= 640  # the least limit Python accepts
        default = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(digits)
            with pytest.raises(Reached):
                main(list(argv))
            sys.set_int_max_str_digits(digits - 1)
            code, _, err = run_cli(capsys, *argv)
        finally:
            sys.set_int_max_str_digits(default)
        assert code == EXIT_USAGE and f"the {digits - 1} decimal digits" in err


# -- scan ------------------------------------------------------------------------


def scan_rows(capsys, tmp_path, *extra):
    out = tmp_path / "rows.jsonl"
    code = main(
        [
            "scan",
            "--r-range",
            "3:3",
            "--a-range",
            "7:12",
            "--b-range",
            "-2:8",
            "--out",
            str(out),
            *extra,
        ]
    )
    capsys.readouterr()
    assert code == EXIT_OK
    return [json.loads(line) for line in out.read_text().splitlines()]


def mask_runtime(rows):
    return [{k: v for k, v in row.items() if k != "runtime_micros"} for row in rows]


class TestScan:
    def test_rows_cover_box_in_lexicographic_order(self, capsys, tmp_path):
        rows = scan_rows(capsys, tmp_path)
        assert len(rows) == 6 * 11
        keys = [(int(r["r"]), int(r["a"]), int(r["b"])) for r in rows]
        assert keys == sorted(keys)
        assert keys == [(3, a, b) for a in range(7, 13) for b in range(-2, 9)]

    def test_row_schema(self, capsys, tmp_path):
        for row in scan_rows(capsys, tmp_path):
            assert list(row) == SCAN_COLUMNS
            assert isinstance(row["runtime_micros"], int)
            for col in SCAN_COLUMNS[:-1]:
                assert row[col] is None or isinstance(row[col], str)

    def test_known_rows(self, capsys, tmp_path):
        rows = {(r["a"], r["b"]): r for r in scan_rows(capsys, tmp_path)}
        hit = rows[("12", "3")]
        assert hit["kind"] == "FieldNotMonogenic"
        assert hit["witness_p"] == "2" and hit["witness_d"] == "1"
        alpha = rows[("8", "8")]
        assert alpha["kind"] == "PolyNotMonogenicFieldMonogenic"
        assert alpha["witness_p"] == "2" and alpha["witness_d"] is None
        assert alpha["index_lower_bound_2"] == "7"
        skipped = rows[("7", "5")]  # gcd(7, 5) = 1: no certificate route
        assert skipped["kind"] == "skipped"
        assert skipped["witness_p"] is None
        invalid = rows[("7", "0")]  # b = 0 is not a trinomial
        assert invalid["kind"] == "skipped"
        assert invalid["index_lower_bound_2"] is None

    def test_parallel_rows_identical(self, capsys, tmp_path):
        serial = mask_runtime(scan_rows(capsys, tmp_path))
        parallel = mask_runtime(scan_rows(capsys, tmp_path, "--jobs", "3"))
        assert serial == parallel

    def test_csv_format(self, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(
            [
                "scan",
                "--r-range", "3:3",
                "--a-range", "8:8",
                "--b-range", "-1:8",
                "--format", "csv",
                "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SCAN_COLUMNS)
        assert len(lines) == 1 + 10
        row = dict(zip(SCAN_COLUMNS, lines[-1].split(",")))
        assert (row["r"], row["a"], row["b"]) == ("3", "8", "8")
        assert row["kind"] == "PolyNotMonogenicFieldMonogenic"
        zero_b = dict(zip(SCAN_COLUMNS, lines[2].split(",")))
        assert zero_b["b"] == "0" and zero_b["kind"] == "skipped"
        assert zero_b["witness_p"] == ""  # nulls are empty CSV cells

    def test_csv_format_on_a_pool(self, capsys, tmp_path):
        def csv_lines(*extra):
            out = tmp_path / "rows.csv"
            code = main(["scan", "--r-range", "3:3", "--a-range", "7:12", "--b-range", "-2:8",
                         "--format", "csv", "--out", str(out), *extra])
            assert code == EXIT_OK
            # runtime_micros is the last column
            return [line.rsplit(",", 1)[0] for line in out.read_text().splitlines()]

        serial = csv_lines()
        assert len(serial) == 1 + 66 > cli.SCAN_CHUNK  # the pool takes two chunks
        assert csv_lines("--jobs", "2") == serial

    def test_stdout_output(self, capsys):
        code = main(
            [
                "scan",
                "--r-range", "3:3",
                "--a-range", "8:8",
                "--b-range", "8:8",
                "--out", "-",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 1 and rows[0]["kind"] == "PolyNotMonogenicFieldMonogenic"

    def test_usage_errors(self, capsys, tmp_path):
        out = str(tmp_path / "x.jsonl")
        bad = [
            ["scan", "--r-range", "3", "--a-range", "1:2", "--b-range", "1:2", "--out", out],
            ["scan", "--r-range", "5:3", "--a-range", "1:2", "--b-range", "1:2", "--out", out],
            ["scan", "--r-range", "0:1", "--a-range", "1:2", "--b-range", "1:2", "--out", out],
            ["scan", "--r-range", "1:1", "--a-range", "1:2", "--b-range", "1:2",
             "--m", "2", "--out", out],
            ["scan", "--r-range", "3:3", "--a-range", "1:2", "--b-range", "1:2",
             "--jobs", "0", "--out", out],
        ]
        for argv in bad:
            code = main(argv)
            err = capsys.readouterr().err
            assert code == EXIT_USAGE, argv
            assert "error:" in err

    def test_r_range_above_degree_cap(self, capsys, tmp_path):
        out = tmp_path / "rows.jsonl"
        argv = ["scan", "--r-range", "3:11", "--a-range", "1:2", "--b-range", "1:2",
                "--out", str(out)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err == "error: --r-range reaches r=11, a degree above the cap 1024\n"
        assert not out.exists()

    def test_middle_exponent_checked_against_least_r(self, capsys, tmp_path):
        out = tmp_path / "rows.jsonl"
        argv = ["scan", "--r-range", "2:4", "--a-range", "1:2", "--b-range", "1:2",
                "--m", "4", "--out", str(out)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err == "error: m=4 is out of range for r=2\n"
        assert not out.exists()

    def test_unwritable_output_path(self, capsys, tmp_path):
        code = main(
            [
                "scan",
                "--r-range", "3:3",
                "--a-range", "8:8",
                "--b-range", "8:8",
                "--out", str(tmp_path / "no" / "such" / "dir.jsonl"),
            ]
        )
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "cannot open" in err

    def test_unwritable_output_path_starts_no_pool(self, capsys, tmp_path, recording_pools):
        code = main(
            [
                "scan",
                "--r-range", "3:3",
                "--a-range", "8:8",
                "--b-range", "8:8",
                "--jobs", "2",
                "--out", str(tmp_path / "no" / "such" / "dir.jsonl"),
            ]
        )
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "cannot open" in err
        assert recording_pools == [], "a pool was started for an output that cannot be opened"

    def test_jobs_above_cap_starts_no_pool(self, capsys, tmp_path, recording_pools):
        out = tmp_path / "rows.jsonl"
        jobs = cli.MAX_JOBS + 1
        code = main(["scan", "--r-range", "3:3", "--a-range", "8:8", "--b-range", "8:8",
                     "--jobs", str(jobs), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err == f"error: --jobs must be between 1 and {cli.MAX_JOBS}, got {jobs}\n"
        assert not out.exists()
        assert recording_pools == []

    def test_pool_window_is_bounded(self, capsys, tmp_path, recording_pools):
        box = ("--a-range", "7:58")  # 572 rows, 9 chunks
        serial = mask_runtime(scan_rows(capsys, tmp_path, *box))
        parallel = mask_runtime(scan_rows(capsys, tmp_path, *box, "--jobs", "2"))
        assert parallel == serial
        (pool,) = recording_pools
        assert pool.submitted == math.ceil(len(serial) / cli.SCAN_CHUNK)
        assert pool.peak == cli.POOL_WINDOW * 2 < pool.submitted


class RecordingPool:
    """Stands in for ProcessPoolExecutor: runs each task when it is submitted,
    in this process, and records how many results are not yet taken."""

    def __init__(self, max_workers, initializer=None):
        self.submitted = self.in_flight = self.peak = 0

    def submit(self, fn, *args):
        self.submitted += 1
        self.in_flight += 1
        self.peak = max(self.peak, self.in_flight)
        return _Done(self, fn(*args))

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _Done:
    def __init__(self, pool, value):
        self.pool, self.value = pool, value

    def result(self):
        self.pool.in_flight -= 1
        return self.value


@pytest.fixture
def recording_pools(monkeypatch):
    """Every RecordingPool that cli creates while the test runs."""
    pools = []

    def make(*args, **kwargs):
        # This process is the pool's one worker.  _start_worker would also
        # ignore Ctrl-C here, so only the worker's class table is made.
        monkeypatch.setattr(cli, "_WORKER_CLASSES", {})
        pools.append(RecordingPool(*args, **kwargs))
        return pools[-1]

    # cmd_scan imports ProcessPoolExecutor from concurrent.futures when it
    # starts a pool, so that is where the name is looked up.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", make)
    return pools


# -- each fact once ----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "8", "--a", "8", "--b", "8"),  # alpha generator
        ("--n", "8", "--a", "12", "--b", "3"),  # common index divisor at 2
        ("--n", "4", "--a", "4", "--b", "4", "--assume-irreducible"),  # index bounds
        ("--n", "8", "--a", "4", "--b", "-5", "--assume-irreducible"),  # x - 1 divides
    ],
)
def test_report_computes_each_fact_once(capsys, monkeypatch, argv):
    divided, analysed, computed, discs = Counter(), Counter(), Counter(), Counter()
    gates = Counter()
    trial_factor, factor_p, fq_factor = exactnum.trial_factor, ore.factor_p, ffactor._factor
    disc_trinomial = monogenity.disc_trinomial
    one_sided_primes = monogenity._one_sided_primes

    def counting_trial_factor(t, bound):
        divided[abs(t), bound] += 1
        return trial_factor(t, bound)

    def counting_factor_p(F, p):
        analysed[F, p] += 1
        return factor_p(F, p)

    def counting_fq_factor(f, seed):
        computed[f] += 1
        return fq_factor(f, seed)

    def counting_disc_trinomial(T):
        discs[T] += 1
        return disc_trinomial(T)

    def counting_one_sided_primes(T):
        gates[T] += 1
        return one_sided_primes(T)

    counting = {
        id(trial_factor): counting_trial_factor,
        id(factor_p): counting_factor_p,
        id(fq_factor): counting_fq_factor,
        id(disc_trinomial): counting_disc_trinomial,
        id(one_sided_primes): counting_one_sided_primes,
    }

    # Replace each function under every name a trinogen module holds it by.
    for name, module in list(sys.modules.items()):
        if name.startswith("trinogen"):
            for attr, value in list(vars(module).items()):
                if id(value) in counting:
                    monkeypatch.setattr(module, attr, counting[id(value)])
    # A second run of the same command computes the same facts again, once.
    for run in (1, 2):
        code, _, _ = run_cli(capsys, "analyze", "--json", *argv)
        assert code == EXIT_OK
        assert divided and set(divided.values()) == {run}, divided
        assert analysed and set(analysed.values()) == {run}, analysed
        assert computed and set(computed.values()) == {run}, computed
        assert len(discs) == 1 and set(discs.values()) == {run}, discs
        assert len(gates) == 1 and set(gates.values()) == {run}, gates


def test_scan_factors_each_polynomial_once(capsys, tmp_path, monkeypatch):
    computed = Counter()
    fq_factor = ffactor._factor

    def counting_fq_factor(f, seed):
        computed[f] += 1
        return fq_factor(f, seed)

    monkeypatch.setattr(ffactor, "_factor", counting_fq_factor)
    rows = mask_runtime(scan_rows(capsys, tmp_path))
    assert computed and set(computed.values()) == {1}
    # A memo of size 0 forgets each result at once: every call computes.
    monkeypatch.setattr(ffactor, "FACTORIZATIONS", exactnum.Memo(0))
    computed.clear()
    assert mask_runtime(scan_rows(capsys, tmp_path)) == rows
    assert max(computed.values()) > 1


def test_scan_divides_each_integer_once(capsys, tmp_path, monkeypatch):
    # A scan divides gcd(a, b), which recurs on many rows, and the
    # discriminant of each alpha row.  For even n, disc(x^n + a*x + b) =
    # disc(x^n - a*x + b), and the row (-a, b) comes up to 33 * 32 rows after
    # the row (a, b), so the integer memo must still hold it then.
    divided = Counter()
    trial_factor = exactnum.trial_factor

    def counting_trial_factor(t, bound):
        divided[abs(t), bound] += 1
        return trial_factor(t, bound)

    monkeypatch.setattr(exactnum, "trial_factor", counting_trial_factor)
    out = tmp_path / "rows.jsonl"
    code = main(["scan", "--r-range", "3:3", "--a-range", "-16:16", "--b-range", "-16:16",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert len(out.read_text().splitlines()) == 33 * 33
    assert divided and [key for key, count in divided.items() if count > 1] == []


# The box the ROADMAP baseline scans.
ROADMAP_BOX = ("--r-range", "3:4", "--a-range", "-16:16", "--b-range", "-16:16")


def test_skipped_rows_build_no_residual_polynomials(monkeypatch):
    built = Counter()
    for module, name in ((newton, "residual_poly"), (ffactor, "is_separable")):
        def counting(*args, _real=getattr(module, name), _name=name):
            built[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counting)
    kinds = Counter()
    for r in (3, 4):
        for a in range(-16, 17):
            for b in range(-16, 17):
                before = built.total()
                kind = cli._scan_row((r, 1, a, b), {})["kind"]
                kinds[kind] += 1
                if kind == "skipped":
                    assert built.total() == before, (r, a, b)
    # The other rows still analyse their splittings, through the same spies.
    assert kinds["skipped"] > 1000 and built["residual_poly"] and built["is_separable"]


# Boxes of m = 3 and m = 6 over r = 3..5, whose trinomials are not of the
# paper's m = 1 family.
M3_R35_BOX = ("--m", "3", "--r-range", "3:5", "--a-range", "-8:8", "--b-range", "-8:8")
M6_R35_BOX = ("--m", "6", "--r-range", "3:5", "--a-range", "-8:8", "--b-range", "-8:8")


def full_analysis_index(row: dict) -> str | None:
    """The row's index column, computed from ``ore.factor_p`` at 2."""
    r, m, a, b = (int(row[c]) for c in ("r", "m", "a", "b"))
    if b == 0:  # not a Trinomial
        return None
    try:
        return str(ore.factor_p(Trinomial(2**r, m, a, b).poly(), 2).index_lower_bound)
    except MalformedInput:
        return None


@pytest.mark.parametrize("box", [ROADMAP_BOX, M3_R35_BOX, M6_R35_BOX])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_index_column_matches_full_analysis(capsys, tmp_path, box, jobs):
    # A row answered by a stored class never calls ore.polygon_index, so
    # the reference is each row's own full analysis.
    rows = scan_rows(capsys, tmp_path, *box, "--jobs", jobs)
    column = [row["index_lower_bound_2"] for row in rows]
    assert column == [full_analysis_index(row) for row in rows]
    assert any(bound not in (None, "0") for bound in column) and None in column


def test_screen_row_index_equals_its_verdicts_splitting():
    # A congruence-screen row's verdict holds the splitting at 2; the row's
    # column, read off the class table, is that splitting's index.
    for item in ((3, 1, 12, 3), (4, 1, 24, 39), (4, 1, 48, 303)):
        r, m, a, b = item
        fact = verdict(Trinomial(2**r, m, a, b)).splittings[2]
        assert cli._scan_row(item, {})["index_lower_bound_2"] == str(fact.index_lower_bound)


def test_class_table_answers_members_and_stores_no_failure(monkeypatch):
    calls = []
    polygon_index = ore.polygon_index
    monkeypatch.setattr(ore, "polygon_index",
                        lambda F, p: calls.append(p) or polygon_index(F, p))
    # x^8 - 8x + 7 has the root 1: polygon_index raises, the column is
    # empty and no class is stored.
    classes: dict = {}
    assert cli._scan_row((3, 1, -8, 7), classes)["index_lower_bound_2"] is None
    assert calls == [2] and not any(classes.values())
    # x^8 + 8x + 8 stores its class mod 2^k, which then answers for the
    # members (8 + 2^k s, 8 + 2^k t) without building a polygon.
    index, k = polygon_index(Trinomial(8, 1, 8, 8).poly(), 2)
    assert cli._scan_row((3, 1, 8, 8), classes)["index_lower_bound_2"] == str(index)
    assert classes == {(8, 1): {k: {(8 % 2**k, 8 % 2**k): index}}}
    for s, t in ((1, 0), (-1, 2), (3, -3)):
        row = cli._scan_row((3, 1, 8 + s * 2**k, 8 + t * 2**k), classes)
        assert row["index_lower_bound_2"] == str(index)
    assert calls == [2, 2]


# A box with m = 3, whose trinomials are not of the paper's m = 1 family.
M3_BOX = ("--m", "3", "--a-range", "-8:8", "--b-range", "-8:8")


def test_scan_rows_compute_no_index_bounds(monkeypatch):
    calls = Counter()
    for module, name in ((monogenity, "square_primes"), (ore, "index_bound"),
                         (ore, "factor_p"), (newton, "residual_poly")):
        def counting(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    items = [(r, 1, a, b) for r in (3, 4) for a in range(-16, 17) for b in range(-16, 17)]
    items += [(3, 3, a, b) for a in range(-8, 9) for b in range(-8, 9)]
    kinds = Counter()
    for item in items:
        before = calls.copy()
        kind = cli._scan_row(item, {})["kind"]
        kinds[kind] += 1
        if kind == "Inconclusive":
            assert calls == before, item
    assert calls["square_primes"] == calls["index_bound"] == 0
    # The common-index-divisor rows still build their splittings at 2.
    assert kinds["Inconclusive"] >= 540 and kinds["FieldNotMonogenic"]
    assert calls["factor_p"] and calls["residual_poly"]


@pytest.mark.parametrize("box", [ROADMAP_BOX, M3_BOX])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_rows_match_rows_with_bounds_forced(capsys, tmp_path, monkeypatch, box, jobs):
    def forcing_verdict(T, _real=cli.verdict, **kwargs):
        v = _real(T, **kwargs)
        if v.irreducibility is not None:
            build_report(v)  # what a report on each certified row computes
        return v

    monkeypatch.setattr(cli, "verdict", forcing_verdict)
    forced = mask_runtime(scan_rows(capsys, tmp_path, *box, "--jobs", jobs))
    monkeypatch.undo()

    # Pool workers are forked from this process, so they raise here too.
    def forbidden(*args, **kwargs):
        raise AssertionError("a scan row computed index bounds")

    monkeypatch.setattr(monogenity, "square_primes", forbidden)
    monkeypatch.setattr(ore, "index_bound", forbidden)
    assert mask_runtime(scan_rows(capsys, tmp_path, *box, "--jobs", jobs)) == forced


def certified_inconclusive(rng, degrees, coprime_m, count=6):
    """``count`` seeded certified-irreducible trinomials that no criterion
    covers, each with its verdict."""
    found = []
    while len(found) < count:
        n = rng.choice(degrees)
        m = rng.choice([m for m in range(1, n) if not coprime_m or math.gcd(m, n) == 1])
        p = rng.choice((2, 3, 5, 7))
        a, b = p * rng.randint(-30, 30), p * rng.choice((-1, 1)) * rng.randint(1, 30)
        T = Trinomial(n, m, a, b)
        v = verdict(T)
        if v.irreducibility is not None and v.trail[-1] == "no-criterion-applied":
            found.append((T, v))
    return found


@pytest.mark.parametrize("degrees, coprime_m", [(range(2, 17), False), (range(16, 49), True)])
def test_report_bounds_equal_eager_bounds(rng, degrees, coprime_m):
    reported = 0
    for T, v in certified_inconclusive(rng, degrees, coprime_m):
        # The verdict left the bounds to the report.
        assert v.splittings == {}
        lazy = build_report(v)
        square = monogenity.square_primes(v.disc)
        eager = build_report(v._replace(
            splittings={p: ore.factor_p(T.poly(), p) for p in square}))
        assert json.dumps(lazy, indent=2) == json.dumps(eager, indent=2)
        assert render_text(lazy) == render_text(eager)
        expected = [{"p": str(p), "bound": str(bound), "exact": exact}
                    for p in square for bound, exact in [ore.index_bound(T.poly(), p)]]
        assert lazy["verdict"].get("index_bounds", []) == expected
        reported += bool(expected)
    assert reported


def test_bounds_contradiction_raised_by_report_not_scan_row(capsys, monkeypatch):
    # Eisenstein at 2, and 3^2 divides the discriminant, so 3 is an evidence prime.
    T = Trinomial(8, 1, -16, 10)
    v = verdict(T)
    assert v.irreducibility is not None and v.trail[-1] == "no-criterion-applied"
    assert 3 in monogenity.square_primes(v.disc)
    row = mask_runtime([cli._scan_row((3, 1, -16, 10), {})])
    factor_p = ore.factor_p

    def planted(F, p):
        if p == 3:
            raise MalformedInput("planted rational factor")
        return factor_p(F, p)

    monkeypatch.setattr(ore, "factor_p", planted)
    assert mask_runtime([cli._scan_row((3, 1, -16, 10), {})]) == row
    v = verdict(T)
    with pytest.raises(InternalContradiction, match="planted rational factor"):
        build_report(v)
    # main lets it propagate; only the console entry point turns it into an exit code.
    with pytest.raises(InternalContradiction, match="planted rational factor"):
        main(["analyze", "--n", "8", "--a", "-16", "--b", "10"])
    assert capsys.readouterr().out == ""


def module_memos():
    """``("module.NAME", memo)`` for every module-level ``exactnum.Memo``."""
    memos = []
    for info in pkgutil.iter_modules(trinogen.__path__):
        module = importlib.import_module(f"trinogen.{info.name}")
        memos += [(f"{info.name}.{attr}", value) for attr, value in vars(module).items()
                  if isinstance(value, exactnum.Memo)]
    return memos


def test_facts_live_in_the_verdict_and_two_memos():
    # Each fact about one trinomial is kept on its verdict, built per call;
    # only the memos that share work across trinomials are module-level.
    package = Path(trinogen.__file__).parent
    assert [path.name for path in sorted(package.glob("*.py"))
            if "cached_property" in path.read_text(encoding="utf-8")] == []
    assert sorted(name for name, _ in module_memos()) == [
        "exactnum.FACTORIZATIONS", "ffactor.FACTORIZATIONS"]


def test_one_exponent_loop():
    # Every power in the package goes through polyring._power.
    package = Path(trinogen.__file__).parent
    loops = []
    for path in sorted(package.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, ast.FunctionDef):
                loops += [f"{path.stem}.{func.name}" for node in ast.walk(func)
                          if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.RShift)
                          and getattr(node.value, "value", None) == 1]
    assert loops == ["polyring._power"]


def test_the_squarefree_bound_is_one_constant():
    # The program reads no environment, and monogenity.SF_BOUND is the one
    # bound of trial division: no function of monogenity or cli takes one,
    # and no verdict carries one.
    package = Path(trinogen.__file__).parent
    readers, constants, takers = [], [], []
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        readers += [f"{path.stem}: {word}" for word in ("os.environ", "getenv", "TRINOGEN_")
                    if word in text]
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Constant) and node.value == 10**6
                    or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                    and getattr(node.left, "value", None) == 10
                    and getattr(node.right, "value", None) == 6):
                constants.append(path.stem)
            if isinstance(node, ast.FunctionDef) and path.stem in ("monogenity", "cli"):
                takers += [f"{path.stem}.{node.name}" for arg in ast.walk(node.args)
                           if isinstance(arg, ast.arg) and arg.arg == "bound"]
    assert readers == []
    assert constants == ["monogenity"]
    assert takers == []
    assert monogenity.SF_BOUND == monogenity._sf_bound() == 10**6
    assert "sf_bound" not in monogenity.MonogenityVerdict._fields


def test_index_table_lives_for_one_scan(capsys, tmp_path, monkeypatch):
    # Most rows of a serial scan read their index column off a class, and a
    # second scan in the same process starts from an empty table.
    calls = []
    polygon_index = ore.polygon_index
    monkeypatch.setattr(ore, "polygon_index",
                        lambda F, p: calls.append(p) or polygon_index(F, p))
    first = mask_runtime(scan_rows(capsys, tmp_path, *ROADMAP_BOX, "--jobs", "1"))
    count = len(calls)
    assert len(first) == 2178 and 0 < count <= 200
    assert mask_runtime(scan_rows(capsys, tmp_path, *ROADMAP_BOX, "--jobs", "1")) == first
    assert len(calls) == 2 * count
    assert sorted(name for name, _ in module_memos()) == [
        "exactnum.FACTORIZATIONS", "ffactor.FACTORIZATIONS"]


def test_pool_workers_keep_one_table_per_scan(capsys, tmp_path, monkeypatch):
    # Each worker's table serves every chunk the worker computes in one
    # scan.  Two tables stand in for two workers that take the box's chunks
    # in turn, in this process: _start_worker would also ignore Ctrl-C here.
    serial = mask_runtime(scan_rows(capsys, tmp_path, *ROADMAP_BOX, "--jobs", "1"))
    calls = []
    polygon_index = ore.polygon_index
    items = iter([(r, 1, a, b) for r in (3, 4) for a in range(-16, 17) for b in range(-16, 17)])
    tables: list[dict] = [{}, {}]
    rows = []
    with monkeypatch.context() as patch:
        patch.setattr(ore, "polygon_index", lambda F, p: calls.append(p) or polygon_index(F, p))
        for i, chunk in enumerate(iter(lambda: list(islice(items, cli.SCAN_CHUNK)), [])):
            patch.setattr(cli, "_WORKER_CLASSES", tables[i % 2])
            text = cli._scan_chunk(chunk, "jsonl")
            rows += [json.loads(line) for line in text.splitlines()]
    assert mask_runtime(rows) == serial
    assert all(tables) and 0 < len(calls) <= 200
    # The parent of a pool makes no table.
    assert mask_runtime(scan_rows(capsys, tmp_path, *ROADMAP_BOX, "--jobs", "2")) == serial
    assert cli._WORKER_CLASSES is None


def test_main_empties_every_memo(capsys):
    memos = module_memos()
    assert len(memos) == 2, memos
    stale = object()
    for _, memo in memos:
        memo.put(stale, "stale")
    code, _, _ = run_cli(capsys, "analyze", "--n", "3", "--a", "1", "--b", "0")  # b = 0
    assert code == EXIT_USAGE
    assert [name for name, memo in memos if memo.get(stale) is not None] == []


def test_command_looked_up_at_each_call(capsys, monkeypatch):
    # The parser is built once, but each call runs the command the module
    # holds then, so a rebound cmd_verify is honoured by the next call.
    assert run_cli(capsys, "verify")[0] == EXIT_OK
    calls = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: calls.append(args.command) or 7)
    assert run_cli(capsys, "verify")[0] == 7
    assert calls == ["verify"]
    assert cli._parser() is cli._parser()


# -- cold start --------------------------------------------------------------------


def test_cold_analyze_builds_no_sieve_and_loads_no_pool():
    # The discriminant of x^3 + 2x + 2 is -140, factored inside the first
    # block of primes, and only a scan on a pool needs the process pool.
    code = (
        "import contextlib, io, sys\n"
        "from trinogen import cli, exactnum\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(sys.argv[1:])\n"
        "print(rc, exactnum.primes_below.cache_info().misses,\n"
        "      exactnum._block_products.cache_info().misses,\n"
        "      'concurrent.futures.process' in sys.modules)\n"
    )
    _, env = module_command()
    proc = subprocess.run(
        [sys.executable, "-c", code, "analyze", "--n", "3", "--a", "2", "--b", "2"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.stderr == ""
    assert proc.stdout == f"{EXIT_OK} 0 0 False\n"


# Seven discriminants whose cofactors are composites above the squarefree
# bound's square, of seven bit lengths (44 to 87), so each report divides by
# every block of primes and then runs perfect_power on the cofactor.
SIEVE_BATCH = [
    (4, 4278410, 969953),
    (3, 7563104, 2225660),
    (3, 129777, 189139),
    (4, 1192863, 5667594),
    (5, 5768968, 1207672),
    (4, 6061806, 5234906),
    (4, 5398129, 3199980),
]


def test_sieve_built_once_per_process(capsys, monkeypatch):
    built, powers = Counter(), Counter()
    sieve, perfect_power = exactnum.primes_below.__wrapped__, monogenity.perfect_power

    def counting_sieve(bound):
        built[bound] += 1
        return sieve(bound)

    def counting_perfect_power(t):
        powers[t.bit_length()] += 1
        return perfect_power(t)

    # Caches of the same size as the package's, empty as in a new process.
    monkeypatch.setattr(exactnum, "primes_below", functools.lru_cache(maxsize=4)(counting_sieve))
    monkeypatch.setattr(exactnum, "_block_products",
                        functools.lru_cache(maxsize=4)(exactnum._block_products.__wrapped__))
    monkeypatch.setattr(monogenity, "perfect_power", counting_perfect_power)
    for n, a, b in SIEVE_BATCH:
        code, _, _ = run_cli(capsys, "analyze", "--n", str(n), "--a", str(a), "--b", str(b))
        assert code in (EXIT_OK, EXIT_UNCERTIFIED)
    assert len(powers) >= 5, powers
    assert built[monogenity.SF_BOUND] == 1, built


# -- verify ----------------------------------------------------------------------


class TestVerify:
    def test_all_fixtures_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == EXIT_OK
        assert "FAIL" not in out
        lines = out.strip().splitlines()
        assert lines[-1].startswith("summary: ")
        total = lines[-1].split()[1]
        passed, _, count = total.partition("/")
        assert passed == count and int(count) >= 30

    def test_each_fixture_is_built_once(self, capsys, monkeypatch):
        # Every row reads its fixture's record: one verdict per trinomial.
        calls = []
        original = monogenity.verdict

        def counting(T, *args, **kwargs):
            calls.append(str(T))
            return original(T, *args, **kwargs)

        monkeypatch.setattr(monogenity, "verdict", counting)
        monkeypatch.setattr(cli, "verdict", counting)
        assert run_cli(capsys, "verify")[0] == EXIT_OK
        assert calls == ["x^8 + 8*x + 8", "x^8 + 12*x + 3", "x^16 + 24*x^15 + 8", "x^64 - 65"]
        assert set(cli.FIXTURES) == {row[0] for row in cli.KNOWN_ANSWERS}


def test_one_alpha_route():
    # check_alpha_generator is the one search that builds alpha certificates.
    package = Path(trinogen.__file__).parent
    builders = []
    for path in sorted(package.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, ast.FunctionDef):
                builders += [f"{path.stem}.{func.name}" for node in ast.walk(func)
                             if isinstance(node, ast.Name) and node.id == "_build_alpha_cert"]
    assert builders == ["monogenity.check_alpha_generator"]
    assert not hasattr(monogenity, "check_alpha_generator_pow2")
    assert "polygon_index" not in {f.name for f in dataclasses.fields(monogenity.AlphaCert)}


def test_one_contradiction_exit():
    # A contradicted assumption leaves verdict by one exit, and the report
    # reads everything, the trinomial included, off the verdict's record.
    package = Path(trinogen.__file__).parent
    assert [path.name for path in sorted(package.glob("*.py"))
            if "reached_bounds" in path.read_text(encoding="utf-8")] == []
    source = inspect.getsource(monogenity.verdict)
    assert source.count('trail.append("assumption-contradicted")') == 1
    first = next(iter(inspect.signature(build_report).parameters.values()))
    assert first.annotation == "monogenity.MonogenityVerdict"


def test_one_pigeonhole_rule():
    # common_index_divisor is the one comparison against the irreducible
    # count, and every FieldNotMonogenic number is read from it.
    package = Path(trinogen.__file__).parent
    callers = []
    sources = {}
    for path in sorted(package.glob("*.py")):
        sources[path.name] = source = path.read_text(encoding="utf-8")
        for func in ast.walk(ast.parse(source)):
            if isinstance(func, ast.FunctionDef):
                callers += [f"{path.stem}.{func.name}" for node in ast.walk(func)
                            if isinstance(node, ast.Name) and node.id == "count_monic_irreducibles"]
    assert callers == ["monogenity.common_index_divisor"]
    for name in ("CongruenceCase", "CongruenceWitness", "cid_degree", "cid_count",
                 "cid_available", "_degree_one"):
        assert not [f for f, source in sources.items() if name in source], name


# -- console script ----------------------------------------------------------------


@pytest.fixture
def sigterm_restored():
    """Put back this process's SIGTERM handler, which ``entry`` replaces."""
    handler = signal.getsignal(signal.SIGTERM)
    yield
    signal.signal(signal.SIGTERM, handler)


@pytest.mark.parametrize(
    "interrupt, code",
    [(KeyboardInterrupt(), 130), (KeyboardInterrupt(signal.SIGTERM), 143)],
)
def test_entry_exit_code_when_interrupted(monkeypatch, capsys, sigterm_restored,
                                          interrupt, code):
    def interrupted():
        raise interrupt

    monkeypatch.setattr(cli, "main", interrupted)
    with pytest.raises(SystemExit) as exit_info:
        cli.entry()
    assert exit_info.value.code == code
    assert capsys.readouterr() == ("", "")


def test_entry_reports_internal_contradiction(monkeypatch, capsys, sigterm_restored):
    def contradicted():
        raise InternalContradiction("theory says no")

    monkeypatch.setattr(cli, "main", contradicted)
    with pytest.raises(SystemExit) as exit_info:
        cli.entry()
    assert exit_info.value.code == EXIT_INTERNAL
    assert capsys.readouterr() == ("", "error: internal contradiction: theory says no\n")


def module_command(*argv):
    """Return the argv and environment that run ``python -m trinogen`` on the
    ``trinogen`` package this process imported."""
    src = str(Path(trinogen.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return [sys.executable, "-m", "trinogen", *argv], env


def child_pids(parent: int) -> list[int]:
    """The pids whose parent is ``parent``, read from /proc."""
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == parent:
            pids.append(int(entry))
    return pids


def is_running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


class TestConsoleScript:
    def test_installed_entry_point(self):
        exe = shutil.which("trinogen")
        assert exe is not None, "console script was not installed"
        proc = subprocess.run(
            [exe, "analyze", "--n", "8", "--a", "8", "--b", "8", "--json"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == EXIT_OK
        report = json.loads(proc.stdout)
        assert report["verdict"]["kind"] == "PolyNotMonogenicFieldMonogenic"

    def test_version(self):
        cmd, env = module_command("--version")
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
        # argparse --version exits 0 after printing
        assert "trinogen 0.1.0" in proc.stdout

    def test_verify_exit_zero(self):
        cmd, env = module_command("verify")
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_OK

    def test_uncertified_exit_via_subprocess(self):
        cmd, env = module_command("analyze", "--n", "2", "--a", "1", "--b", "-1")
        proc = subprocess.run(
            cmd,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == EXIT_UNCERTIFIED

    # No input meets a contradiction, so this child plants one: a rational
    # factor of x^8 - 16x + 10, which is certified irreducible.
    PLANTED = "\n".join([
        "import sys",
        "from trinogen import cli, ore",
        "from trinogen.newton import MalformedInput",
        "def planted(F, p):",
        "    raise MalformedInput('planted rational factor')",
        "ore.factor_p = planted",
        "sys.argv = ['trinogen', 'analyze', '--n', '8', '--a', '-16', '--b', '10']",
        "cli.entry()",
    ])

    def test_internal_contradiction_is_one_line(self):
        _, env = module_command()
        proc = subprocess.run([sys.executable, "-c", self.PLANTED], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_INTERNAL
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: internal contradiction: ")
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv, code", [
        (["-m", "trinogen", "analyze", "--n", "99999", "--a", "1", "--b", "1"], EXIT_USAGE),
        (["-m", "trinogen", "scan", "--r-range", "0:1", "--a-range", "1:1", "--b-range", "1:1",
          "--out", "-"], EXIT_USAGE),
        (["-m", "trinogen", "scan", "--r-range", "3:3", "--a-range", "1:1", "--b-range", "1:1",
          "--out", "/nonexistent/dir/rows.jsonl"], EXIT_USAGE),
        (["-c", PLANTED], EXIT_INTERNAL),
    ])
    def test_closed_stderr_keeps_error_lines_off_stdout(self, argv, code):
        # With file descriptor 2 closed, Python starts with sys.stderr None,
        # and a print() to it would land on stdout.  The interpreter is run
        # directly, so no launcher holds its own stderr open.
        _, env = module_command()
        proc = subprocess.run(["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, *argv],
                              env=env, stdout=subprocess.PIPE, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (code, "")

    def test_closed_stdout_exits_quietly(self):
        cmd, env = module_command("analyze", "--n", "8", "--a", "8", "--b", "8", "--json")
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to stdout now fails with EPIPE
        try:
            proc = subprocess.run(
                cmd, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120
            )
        finally:
            os.close(write_end)
        assert proc.returncode != EXIT_OK
        assert proc.stderr == ""

    @pytest.mark.parametrize("argv", [
        ("verify",),
        ("analyze", "--n", "8", "--a", "8", "--b", "8"),
        ("scan", "--r-range", "3:3", "--a-range", "8:8", "--b-range", "8:9", "--out", "-"),
        ("scan", "--r-range", "3:3", "--a-range", "8:8", "--b-range", "8:9", "--out", "-",
         "--jobs", "2"),
    ])
    def test_stdout_closed_at_start_is_one_line(self, argv):
        # With file descriptor 1 closed, Python starts with sys.stdout None.
        cmd, env = module_command(*argv)
        proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *cmd], env=env,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == EXIT_VERIFY_FAILED
        assert proc.stderr == "error: stdout is closed\n"
        # With stderr closed as well, the exit status alone tells.
        proc = subprocess.run(["sh", "-c", 'exec "$@" >&- 2>&-', "sh", *cmd], env=env,
                              timeout=120)
        assert proc.returncode == EXIT_VERIFY_FAILED

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_scan_to_a_file_needs_no_stdout(self, tmp_path, jobs):
        out = tmp_path / "rows.csv"
        cmd, env = module_command("scan", "--r-range", "3:3", "--a-range", "8:8",
                                  "--b-range", "8:9", "--format", "csv", "--jobs", jobs,
                                  "--out", str(out))
        proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *cmd], env=env,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        rows = out.read_text(encoding="utf-8").splitlines()
        assert [row.rsplit(",", 1)[0] for row in rows] == [
            ",".join(SCAN_COLUMNS[:-1]),
            "3,1,8,8,PolyNotMonogenicFieldMonogenic,2,,7",
            "3,1,8,9,skipped,,,0",
        ]

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="lists child processes by /proc")
    def test_sigterm_stops_scan_workers(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        cmd, env = module_command("scan", "--r-range", "3:3", "--a-range", "-300:299",
                                  "--b-range", "-300:299", "--jobs", "2", "--out", str(out))
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        workers = []
        try:
            deadline = time.monotonic() + 60
            while not (out.exists() and out.stat().st_size):  # the first rows are written
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            workers = child_pids(proc.pid)
            assert workers
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=10)
            assert proc.returncode == 143
            assert err == ""
            deadline = time.monotonic() + 5
            while [pid for pid in workers if is_running(pid)] and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in workers if is_running(pid)] == []
        finally:
            if proc.poll() is None:
                proc.kill()
            for pid in filter(is_running, workers):
                os.kill(pid, signal.SIGKILL)
            proc.wait()

    def test_negative_b_range_parses(self):
        cmd, env = module_command("scan", "--r-range", "3:3", "--a-range", "8:8",
                                  "--b-range", "-2:-1", "--out", "-")
        proc = subprocess.run(
            cmd,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == EXIT_OK
        assert len(proc.stdout.splitlines()) == 2
