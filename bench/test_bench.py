"""Self-tests of the benchmark harness: ``python3 -m pytest bench``."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import harness  # noqa: E402
from tracer import Tracer  # noqa: E402
from trinogen import cli, exactnum, monogenity  # noqa: E402
from trinogen.monogenity import Trinomial  # noqa: E402
from trinogen.polyring import PolyZ  # noqa: E402
from workloads import WORKLOADS, Item, item_stream  # noqa: E402

ANALYZE = [name for name, w in WORKLOADS.items() if not w.is_scan]


def _first(workload: str, seed: int, count: int):
    return list(itertools.islice(item_stream(workload, seed), count))


def test_generators_are_deterministic_per_seed():
    for name in ANALYZE:
        assert _first(name, 7, 60) == _first(name, 7, 60)
        assert _first(name, 7, 60) != _first(name, 8, 60)


def test_generators_emit_only_valid_inputs():
    for name in ANALYZE:
        for seed in range(20):
            for item in _first(name, seed, 90):
                assert item.b != 0 and 1 <= item.m < item.n
                Trinomial(item.n, item.m, item.a, item.b)


def test_analyze_batches_cover_the_digest_items():
    for name in ANALYZE:
        assert WORKLOADS[name].batch_items >= WORKLOADS[name].digest_items > 0


def test_a_changed_repeat_fails_its_item_once():
    assert harness.differing(["a", "b", "c"], ["a", "x"]) == {1, 2}
    call = harness.analyze_call(Item(3, 1, 2, 2, as_json=False))
    assert harness.check_calls([call, call]).failed == 0
    tally = harness.check_calls([call, call], {1})
    assert (tally.attempted, tally.failed) == (2, 1) and tally.problems
    assert list(tally.reasons) == [harness.REPEAT_DIFFERS]
    broken = harness.Call(call.item, None, "ValueError: x", 1, "")
    assert harness.check_calls([broken], {0}).failed == 1


def test_highdeg_rotates_its_three_input_kinds():
    for i, item in enumerate(_first("analyze-highdeg", 3, 60)):
        assert 16 <= item.n <= 64
        if i % 3 == 0:
            assert item.n & (item.n - 1) == 0 and item.m == 1


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == harness.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _report(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()


def test_text_and_json_reports_give_the_same_facts():
    for n, m, a, b in [(8, 1, 12, 3), (8, 1, 8, 8), (16, 1, 24, 35), (17, 3, 9, -99), (3, 1, 2, 2)]:
        argv = ["analyze", "--n", str(n), "--m", str(m), "--a", str(a), "--b", str(b)]
        assert checks.facts_from_text(_report(argv)) == checks.facts_from_json(_report(argv + ["--json"]))


def test_parse_polyz_inverts_str():
    rng = random.Random(0)
    for _ in range(200):
        coeffs = [rng.choice((0, rng.randint(-99, 99))) for _ in range(rng.randint(1, 9))] + [1]
        poly = PolyZ(coeffs)
        assert checks.parse_polyz(str(poly)) == poly


def test_alpha_refuter_finds_the_roadmap_counterexample():
    cert = monogenity.check_alpha_generator(Trinomial(8, 1, 8, 8))
    assert cert.H == PolyZ([2, 4, 0, -6, 0, 0, 0, 0, 1])
    assert checks.alpha_refuter(cert.H, 2) == 7
    row = {"r": "3", "m": "1", "a": "8", "b": "8", "kind": "PolyNotMonogenicFieldMonogenic",
           "witness_p": "2", "witness_d": None}
    assert "refuted at q=7" in checks.check_scan_row(row)


def test_preflight_passes():
    assert checks.preflight() == []


def test_tracer_rebinds_aliases_and_restores_them():
    original = exactnum.trial_factor
    tracer = Tracer()
    tracer.install()
    try:
        assert monogenity.trial_factor is not original
        assert cli.trial_factor is monogenity.trial_factor is exactnum.trial_factor
        _report(["analyze", "--n", "8", "--a", "12", "--b", "3"])
    finally:
        tracer.uninstall()
    assert monogenity.trial_factor is original and cli.trial_factor is original
    assert tracer.calls("exactnum.trial_factor") > 0
    assert tracer.calls("ore.factor_p") > 0
    assert tracer.incl_s("monogenity.verdict") >= tracer.self_s("monogenity.verdict") > 0
