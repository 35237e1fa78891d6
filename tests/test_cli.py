"""Tests for the command-line interface.

Covers exit codes, the all-strings JSON schema, text/JSON parity, scan
determinism across worker counts, and the built-in verification fixtures.
Most tests drive ``main()`` in-process.  The process-level behaviour tests
run ``python -m trinogen`` on the same source as the test process, so they
need no installation; only ``test_installed_entry_point`` needs an installed
``trinogen`` console script.
"""

import importlib
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
from pathlib import Path

import pytest

import trinogen
from trinogen import cli, exactnum, ffactor, ore
from trinogen.cli import (
    EXIT_OK,
    EXIT_UNCERTIFIED,
    EXIT_USAGE,
    SCAN_COLUMNS,
    _digest,
    _glue_range_values,
    _parse_range,
    build_report,
    main,
    render_text,
)
from trinogen.monogenity import Trinomial, verdict


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
        p, q = 10**7 + 19, 10**7 + 79
        assert _digest(2 * p * q, bound=100) == f"2 * {p * q}"


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


class TestAnalyzeText:
    def test_text_is_default_and_projection_of_json(self, capsys):
        code, text, _ = run_cli(capsys, "analyze", "--n", "8", "--a", "8", "--b", "8")
        assert code == EXIT_OK
        report = build_report(
            Trinomial(8, 1, 8, 8), verdict(Trinomial(8, 1, 8, 8))
        )
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

    def test_invalid_squarefree_bound_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("TRINOGEN_SF_BOUND", "abc")
        code, out, err = run_cli(capsys, "analyze", "--n", "8", "--a", "12", "--b", "3")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:")
        assert "TRINOGEN_SF_BOUND" in err


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

    def test_pool_window_is_bounded(self, capsys, tmp_path, recording_pools):
        box = ("--a-range", "7:18")  # 132 rows, 17 chunks
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
        pools.append(RecordingPool(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(cli, "ProcessPoolExecutor", make)
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
    divided, analysed, computed = Counter(), Counter(), Counter()
    trial_factor, factor_p, fq_factor = exactnum.trial_factor, ore.factor_p, ffactor._factor

    def counting_trial_factor(t, bound):
        divided[abs(t), bound] += 1
        return trial_factor(t, bound)

    def counting_factor_p(F, p):
        analysed[F, p] += 1
        return factor_p(F, p)

    def counting_fq_factor(f, seed):
        computed[f] += 1
        return fq_factor(f, seed)

    # Replace each function under every name a trinogen module holds it by.
    for name, module in list(sys.modules.items()):
        if name.startswith("trinogen"):
            for attr, value in list(vars(module).items()):
                if value is trial_factor:
                    monkeypatch.setattr(module, attr, counting_trial_factor)
                elif value is factor_p:
                    monkeypatch.setattr(module, attr, counting_factor_p)
                elif value is fq_factor:
                    monkeypatch.setattr(module, attr, counting_fq_factor)
    # A second run of the same command computes the same facts again, once.
    for run in (1, 2):
        code, _, _ = run_cli(capsys, "analyze", "--json", *argv)
        assert code == EXIT_OK
        assert divided and set(divided.values()) == {run}, divided
        assert analysed and set(analysed.values()) == {run}, analysed
        assert computed and set(computed.values()) == {run}, computed


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


def test_main_empties_every_memo(capsys):
    memos = []
    for info in pkgutil.iter_modules(trinogen.__path__):
        module = importlib.import_module(f"trinogen.{info.name}")
        memos += [(f"{info.name}.{attr}", value) for attr, value in vars(module).items()
                  if isinstance(value, exactnum.Memo)]
    assert len(memos) >= 3, memos
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
