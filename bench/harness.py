"""Measure one workload in-process through ``trinogen.cli.main``.

Untraced runs (``trace=False``) give the end-to-end metrics.  The scan
workloads repeat the whole box, and the analyze workloads repeat a fixed
seeded batch of report requests, one after another (a closed loop with one
caller); both repeat whole passes, as many as fit in the run time.  Each pass
runs in a fresh interpreter (``bench/one_pass.py``), so nothing the program
caches survives from one pass to the next.  Every distinct input is checked
once, and every repeat must print exactly what the first pass printed, so
``attempted`` and ``failed`` count distinct inputs and do not depend on how
many passes fit in the run.

Traced runs give the per-layer metrics: they run a fixed amount of work once
untraced and once under the tracer, in this process, so counts repeat exactly
for a given seed and the two walls give the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks
from trinogen import cli
from trinogen.monogenity import Trinomial
from tracer import Tracer
from workloads import SCAN_ARGV, SCAN_ROWS, WARMUP_ARGV, WORKLOADS, Item, Workload, item_stream

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
SETUP_SPAWNS = 9

# Ready means: trinogen.cli imported and one call made, which fills the lazy
# caches (the prime sieve up to the squarefree bound among them).
_SETUP_CODE = """\
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from trinogen import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[2:])
print("ready", flush=True)
"""


# -- calling the program -----------------------------------------------------------


class _FirstWrite(io.StringIO):
    """Captures scan output and the time its first row arrived."""

    first_ns: int | None = None

    def write(self, s: str) -> int:
        if self.first_ns is None:
            self.first_ns = time.perf_counter_ns()
        return super().write(s)


def _invoke(argv, out: io.StringIO) -> tuple[int | None, str | None]:
    """(exit code, exception text) of one ``cli.main`` call."""
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(list(argv)), None
    except SystemExit as exc:  # argparse rejects its input this way
        return (exc.code if isinstance(exc.code, int) else 2), None
    except Exception as exc:  # an item that raises is a failed item, not a crash
        return None, f"{type(exc).__name__}: {exc}"


@dataclass
class ScanPass:
    rc: int | None
    error: str | None
    wall_ns: int
    first_row_ns: int
    rows: list[dict]
    digest: str
    micros: list[int]

    @property
    def complete(self) -> bool:
        return self.error is None and self.rc == cli.EXIT_OK and len(self.micros) == SCAN_ROWS


def row_content(row: dict) -> str:
    """The deterministic part of a scan row: all of it but ``runtime_micros``."""
    return json.dumps({k: v for k, v in row.items() if k != "runtime_micros"})


def rows_digest(rows: list[dict]) -> str:
    """sha256 of the rows' deterministic content."""
    h = hashlib.sha256()
    for row in rows:
        h.update((row_content(row) + "\n").encode())
    return h.hexdigest()


def differing(first: list, again: list) -> set[int]:
    """Positions where a repeat printed something else, or nothing."""
    return {i for i, x in enumerate(first) if i >= len(again) or again[i] != x}


def scan_pass(jobs: int) -> ScanPass:
    sink = _FirstWrite()
    start = time.perf_counter_ns()
    rc, error = _invoke([*SCAN_ARGV, "--jobs", str(jobs)], sink)
    wall = time.perf_counter_ns() - start
    first = wall if sink.first_ns is None else sink.first_ns - start
    rows = [json.loads(line) for line in sink.getvalue().splitlines()]
    return ScanPass(rc, error, wall, first, rows, rows_digest(rows),
                    [row["runtime_micros"] for row in rows])


@dataclass
class Call:
    item: Item
    rc: int | None
    error: str | None
    elapsed_ns: int
    output: str


def analyze_call(item: Item) -> Call:
    out = io.StringIO()
    start = time.perf_counter_ns()
    rc, error = _invoke(item.argv(), out)
    elapsed = time.perf_counter_ns() - start
    return Call(item, rc, error, elapsed, out.getvalue())


def analyze_digest(calls: list[Call]) -> str:
    h = hashlib.sha256()
    for c in calls:
        h.update(f"{' '.join(c.item.argv())}\n{c.rc}\n{c.output}".encode())
    return h.hexdigest()


def batch(w: Workload, seed: int) -> list[Item]:
    """The distinct inputs of an analyze workload's untraced run."""
    return list(itertools.islice(item_stream(w.name, seed), w.batch_items))


def fresh_pass(w: Workload, seed: int) -> ScanPass | list[Call]:
    """One pass of ``w`` in a new interpreter, timed there after its own warm-up."""
    with tempfile.TemporaryDirectory(prefix=".bench_spool_", dir=ROOT) as tmp:
        out = Path(tmp) / "pass.pickle"
        proc = subprocess.Popen([sys.executable, str(HERE / "one_pass.py"), w.name, str(seed), str(out)],
                                cwd=ROOT)
        try:
            rc = proc.wait()
        except BaseException:
            proc.terminate()  # one_pass.py then stops its scan's pool workers
            proc.wait()
            raise
        if rc != 0:
            raise RuntimeError(f"a pass of {w.name} exited with code {rc}")
        return pickle.loads(out.read_bytes())


def warm_up() -> None:
    rc, error = _invoke(WARMUP_ARGV, io.StringIO())
    if rc != cli.EXIT_OK:
        raise RuntimeError(f"warm-up call failed: exit {rc}, {error}")


# -- checking ------------------------------------------------------------------------


@dataclass
class Tally:
    """Correctness of a run: failed items by reason, plus run-level problems.

    Reasons are grouped on their text before " refuted at", so certificates
    refuted at different primes count under one reason.
    """

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    examples: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, reason: str, what: str, times: int = 1) -> None:
        reason = reason.split(" refuted at")[0]
        self.failed += times
        self.reasons[reason] += times
        self.examples.setdefault(reason, what)


REPEAT_DIFFERS = "a repeat printed different output"


def check_scan(first: ScanPass, repeat_differs: set[int] = frozenset()) -> tuple[Tally, str]:
    """Check the rows of one scan of the box; ``repeat_differs`` are rows a repeat changed."""
    v = Tally(attempted=SCAN_ROWS)
    if not first.complete:
        v.fail(first.error or f"scan exit {first.rc} with {len(first.micros)} rows",
               "whole box", SCAN_ROWS)
        return v, first.digest
    if repeat_differs:
        v.problems.append(f"repeated scans of the box printed {len(repeat_differs)} rows differently")
    for i, row in enumerate(first.rows):
        reason = checks.check_scan_row(row)
        if reason is None and i in repeat_differs:
            reason = REPEAT_DIFFERS
        if reason is not None:
            v.fail(reason, "r={r} m={m} a={a} b={b} kind={kind}".format(**row))
    return v, first.digest


def check_calls(calls: list[Call], repeat_differs: set[int] = frozenset()) -> Tally:
    """Check distinct analyze calls; ``repeat_differs`` are positions a repeat changed."""
    v = Tally(attempted=len(calls))
    if repeat_differs:
        v.problems.append(f"repeated reports differed for {len(repeat_differs)} inputs")
    for i, c in enumerate(calls):
        if c.error is not None:
            v.fail(f"raised {c.error.split(':')[0]}", c.error)
            continue
        T = Trinomial(c.item.n, c.item.m, c.item.a, c.item.b)
        reason = checks.check_report(T, c.item.as_json, c.rc, c.output)
        if reason is None and i in repeat_differs:
            reason = REPEAT_DIFFERS
        if reason is not None:
            v.fail(reason, f"{' '.join(c.item.argv())}: {reason}")
    return v


def reference_digest(workload: Workload, seed: int) -> str | None:
    """Recorded digest; both scan workloads must print the scan-box rows."""
    table = json.loads(DIGESTS.read_text())
    if workload.is_scan:
        return table.get("scan-box")
    return table.get(workload.name, {}).get(str(seed))


# -- statistics -------------------------------------------------------------------------


def percentile(values: list[float], pct: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its waited-for children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def setup_seconds(spawns: int = SETUP_SPAWNS) -> float:
    """Median time from starting a fresh interpreter to ready."""
    times = []
    for _ in range(spawns):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _SETUP_CODE, str(ROOT / "src"), *WARMUP_ARGV],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process did not get ready (exit {proc.returncode})")
    return statistics.median(times)


def machine_line() -> str:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "?"
    return (
        f"machine: {platform.python_implementation()} {platform.python_version()}, "
        f"{platform.system()} {platform.machine()}, nproc {os.cpu_count()}, "
        f"usable cpus {affinity}; no CPU pinning, no frequency control"
    )


# -- the two kinds of run ------------------------------------------------------------------


@dataclass
class Run:
    tally: Tally
    digest: str
    metrics: dict[str, tuple[float, str]]
    notes: list[str]


def _tail(values: list[float], pct: float, what: str) -> tuple[float, str]:
    tail = percentile(values, pct)
    beyond = sum(1 for x in values if x > tail)
    note = f"item_tail_ms is p{pct:g} of {len(values)} {what}, {beyond} beyond it"
    if beyond < 10:
        note += " (fewer than 10: a shorter tail than intended)"
    return tail, note


def untraced_run(w: Workload, seed: int, seconds: float) -> Run:
    """Whole passes over the same inputs, as many as fit in ``seconds`` (at least one)."""
    start = time.perf_counter()
    first = fresh_pass(w, seed)
    passes = 1
    if w.is_scan:
        def content(p: ScanPass) -> list[str]:
            return [row_content(row) for row in p.rows]

        def item_ns(p: ScanPass) -> list[int]:
            return [us * 1000 for us in p.micros]
    else:
        def content(calls: list[Call]) -> list[tuple]:
            return [(c.rc, c.error, c.output) for c in calls]

        def item_ns(calls: list[Call]) -> list[int]:
            return [c.elapsed_ns for c in calls]

    def pass_wall_ns(p, ns: list[int]) -> int:
        # One analyze caller waits for each report, so its throughput is
        # 1 / mean latency, which leaves the input generator's time out.
        return p.wall_ns if w.is_scan else sum(ns)

    expected, repeat_differs = content(first), set()
    elapsed_ns = item_ns(first)
    wall_ns = pass_wall_ns(first, elapsed_ns)
    while (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        again = fresh_pass(w, seed)
        repeat_differs |= differing(expected, content(again))
        ns = item_ns(again)
        elapsed_ns += ns
        wall_ns += pass_wall_ns(again, ns)
        passes += 1
    if w.is_scan:
        tally, digest = check_scan(first, repeat_differs)
        what = f"rows of {passes} scans of the box"
    else:
        tally, digest = check_calls(first, repeat_differs), analyze_digest(first[: w.digest_items])
        what = f"reports of {passes} passes over {len(first)} inputs"
    rss = peak_rss_mb()  # before the set-up processes become children too
    item_ms = [ns / 1e6 for ns in elapsed_ns]
    tail, note = _tail(item_ms, w.tail_pct, what)
    metrics = {
        "setup_s": (setup_seconds(), "s"),
        "items_per_s": (len(item_ms) / (wall_ns / 1e9), "1/s"),
        "item_p50_ms": (statistics.median(item_ms), "ms"),
        "item_tail_ms": (tail, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return Run(tally, digest, metrics, [note])


def traced_run(w: Workload, seed: int) -> Run:
    spool = tempfile.mkdtemp(prefix=".bench_spool_", dir=ROOT)
    try:
        if w.is_scan:
            untraced = scan_pass(w.jobs)
            tracer, traced = _under_tracer(spool, lambda: scan_pass(w.jobs))
            tally, digest = check_scan(traced)
            if untraced.digest != digest:
                tally.problems.append("traced and untraced scans printed different rows")
            wall_u, wall_t = untraced.wall_ns / 1e9, traced.wall_ns / 1e9
            busy_s = sum(traced.micros) / 1e6
            scan_metrics = {
                "cli.scan.first_row_s": (traced.first_row_ns / 1e9, "s"),
                "cli.scan.worker_busy_ratio": (busy_s / (w.jobs * wall_t), "ratio"),
            }
        else:
            stream = item_stream(w.name, seed)
            items = [next(stream) for _ in range(w.digest_items)]
            start = time.perf_counter()
            untraced = [analyze_call(item) for item in items]
            wall_u = time.perf_counter() - start
            tracer, (traced, wall_t) = _under_tracer(spool, lambda: _timed_calls(items))
            tally = check_calls(traced)
            digest = analyze_digest(traced)
            if analyze_digest(untraced) != digest:
                tally.problems.append("traced and untraced reports differ")
            scan_metrics = {"cli.scan.first_row_s": (0.0, "s"), "cli.scan.worker_busy_ratio": (0.0, "ratio")}
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    missing = [name for name in w.expected_layers if tracer.calls(name) == 0]
    if missing:
        raise SystemExit(f"error: expected layers recorded no calls on {w.name}: {', '.join(missing)}")
    metrics = layer_metrics(tracer)
    metrics.update(scan_metrics)
    metrics["trace.untraced_wall_s"] = (wall_u, "s")
    metrics["trace.traced_wall_s"] = (wall_t, "s")
    note = (f"tracing overhead: traced {wall_t:.3f} s against untraced {wall_u:.3f} s "
            f"for the same work ({(wall_t / wall_u - 1) * 100:+.1f}%)")
    return Run(tally, digest, metrics, [note])


def _timed_calls(items: list[Item]) -> tuple[list[Call], float]:
    start = time.perf_counter()
    calls = [analyze_call(item) for item in items]
    return calls, time.perf_counter() - start


def _under_tracer(spool: str, work):
    """Run ``work`` traced from a cold sieve; the warm-up is traced, not timed."""
    tracer = Tracer(spool)
    tracer.originals["exactnum.primes_below"].cache_clear()
    tracer.install()
    try:
        warm_up()
        result = work()
    finally:
        tracer.uninstall()
    tracer.merge_spool()
    return tracer, result


# -- per-layer metrics ------------------------------------------------------------------------

# layer -> extra metrics beyond calls and self_s.  "incl" marks layers that
# call other public functions, so their inclusive time differs from self time.
LAYERS = {
    "ffactor.factor": ("p2", "p_odd", "ext", "deg_le4", "deg_5_16", "deg_gt16"),
    "ffactor.is_separable": (),
    "exactnum.trial_factor": ("incl", "distinct_ratio", "exhausted_ratio"),
    "exactnum.primes_below": (),
    "exactnum.is_probable_prime": (),
    "exactnum.perfect_power": ("incl",),
    "ore.factor_p": ("incl", "distinct_ratio", "regular_ratio"),
    "polyring.power_charpoly": ("incl",),
    "polyring.phi_expand": ("incl",),
    "polyring.reduce_mod": ("incl",),
    "newton.principal_polygon": (),
    "newton.residual_poly": ("incl",),
    "monogenity.verdict": ("incl",),
    "monogenity.irreducibility_certificate": ("incl", "certified_ratio"),
    "monogenity.check_alpha_generator": ("incl",),
    "monogenity.squarefree_status": ("incl", "unknown_ratio"),
    "cli.build_report": ("incl",),
    "cli.render_text": (),
}
_RATIOS = {
    "exhausted_ratio": ("exactnum.trial_factor.exhausted", "exactnum.trial_factor.returned"),
    "regular_ratio": ("ore.factor_p.regular", "ore.factor_p.returned"),
    "certified_ratio": ("monogenity.irreducibility_certificate.certified",
                        "monogenity.irreducibility_certificate.returned"),
    "unknown_ratio": ("monogenity.squarefree_status.unknown", "monogenity.squarefree_status.returned"),
}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    for layer, extras in LAYERS.items():
        out[f"{layer}.calls"] = (tracer.calls(layer), "count")
        out[f"{layer}.self_s"] = (tracer.self_s(layer), "s")
        for extra in extras:
            if extra == "incl":
                out[f"{layer}.incl_s"] = (tracer.incl_s(layer), "s")
            elif extra == "distinct_ratio":
                out[f"{layer}.distinct_ratio"] = (tracer.distinct_ratio(layer), "ratio")
            elif extra in _RATIOS:
                out[f"{layer}.{extra}"] = (tracer.ratio(*_RATIOS[extra]), "ratio")
            else:
                out[f"{layer}.self_s.{extra}"] = (tracer.counter_s(f"{layer}.self_ns.{extra}"), "s")
    return out


END_TO_END = ("setup_s", "items_per_s", "item_p50_ms", "item_tail_ms", "peak_rss_mb")
RUN_LEVEL = ("cli.scan.first_row_s", "cli.scan.worker_busy_ratio",
             "trace.untraced_wall_s", "trace.traced_wall_s")


def per_layer_names() -> list[str]:
    """Names a traced run prints, in order."""
    return [*layer_metrics(Tracer()), *RUN_LEVEL]


# -- one benchmark invocation ------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    w = WORKLOADS[workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    print(machine_line())
    print(f"workload {w.name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    problems = checks.preflight()
    print(f"preflight: {'all known-answer facts hold' if not problems else '; '.join(problems)}")
    warm_up()
    result = traced_run(w, seed) if trace else untraced_run(w, seed, seconds)
    v = result.tally

    reference = reference_digest(w, seed)
    if reference is None:
        print(f"output digest {result.digest} (no reference recorded for this seed)")
    elif reference != result.digest:
        print(f"output changed: digest {result.digest}, reference {reference}")
    else:
        print(f"output digest {result.digest} matches the reference")
    for note in result.notes + v.problems:
        print(note)
    print(f"failed_ratio = {v.failed}/{v.attempted} = {v.failed / v.attempted:.6f} ratio")
    for reason, count in v.reasons.most_common():
        print(f"  failed x{count}: {reason} (e.g. {v.examples[reason]})")
    for name, (value, unit) in result.metrics.items():
        print(f"{name} = {value} {unit}")

    printed = list(result.metrics)
    if printed != declared:
        raise SystemExit(f"error: printed metrics {printed} differ from BENCHMARK.json {declared}")
    summary = {
        "correct": not problems and not v.problems,
        "attempted": v.attempted,
        "failed": v.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }
    print(json.dumps(summary))
    return 0
