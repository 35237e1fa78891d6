"""Command-line front end: analyze one trinomial, scan a parameter box,
or verify the built-in known-answer fixtures.

Reports are JSON-first: every mathematical integer is serialized as a
decimal string so arbitrarily large values survive any JSON consumer, and
the text renderer is a pure projection of the same dict.  Scan output is
deterministic row content in lexicographic (r, a, b) order regardless of
worker count; only the runtime_micros measurement varies between runs.

Degrees above MAX_DEGREE and more than MAX_JOBS scan workers are refused as
usage errors before any arithmetic.
A scan on a worker pool keeps only a few chunks of rows in flight, so its
memory stays bounded on a box of any size.

Exit codes: 0 success, 1 verification mismatch (or stdout closed early),
2 usage or input error, 3 irreducibility not certified (and
--assume-irreducible absent), 70 internal contradiction (a result the
theory guarantees failed to verify: a bug), 130 interrupted by Ctrl-C
(SIGINT), 143 stopped by SIGTERM.  An interrupted or stopped scan cancels
its pending rows and waits for its workers before it exits.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import sys
import time
from collections import deque
from itertools import islice
from operator import attrgetter

from . import __version__, exactnum, ffactor, monogenity, newton, ore
from .exactnum import factored, is_probable_prime, strip_factored, strip_p, valp
from .exactnum import trial_factor  # noqa: F401 - bench/test_bench.py reaches it here
from .monogenity import Trinomial, VerdictKind, disc_trinomial, squarefree_status, verdict
from .newton import MalformedInput
from .polyring import PolyZ

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_UNCERTIFIED = 3
EXIT_INTERNAL = 70

# The largest degree n accepted.  Past it, power_charpoly and the F_p
# factoring grow slow (n = 65536 runs for over a minute), and from n = 2048
# the discriminant has more digits than Python converts to a string.  At the
# cap, x^1024 + 2x + 2 takes about 2 s.
MAX_DEGREE = 1024

# The most scan workers accepted.  The rows are CPU-bound, so more workers
# than cores gain nothing, and the pool forks a worker for each chunk it is
# handed while none is idle.
MAX_JOBS = 64


# -- serialization helpers -----------------------------------------------------


def _digest(value: int) -> str:
    """Bounded factorization digest like ``2^24 * 1273609``.

    Factors are found by trial division up to ``monogenity.SF_BOUND``; an
    unfactored composite cofactor simply appears as its decimal value.
    """
    if value == 0:
        return "0"
    sign = "-" if value < 0 else ""
    t = abs(value)
    if t == 1:
        return sign + "1"
    small, cofactor = factored(t, monogenity.SF_BOUND)
    parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in small]
    if cofactor > 1:
        parts.append(str(cofactor))
    return sign + " * ".join(parts)


def _poly_str_coeffs(f: PolyZ) -> list[str]:
    return [str(c) for c in f.coeffs]


def _side_dict(side: newton.Side) -> dict:
    return {
        "s": str(side.start[0]),
        "u_s": str(side.start[1]),
        "l": str(side.length),
        "h": str(side.h),
        "e": str(side.e),
        "d": str(side.d),
        "slope": f"-{side.h}/{side.e}",
    }


def _polygon_dict(polygon: newton.PrincipalPolygon) -> dict:
    out = {
        "vertices": [[str(x), str(y)] for x, y in polygon.vertices],
        "sides": [_side_dict(s) for s in polygon.sides],
        "length": str(polygon.length),
    }
    if polygon.discarded:
        out["discarded_vertices"] = [[str(x), str(y)] for x, y in polygon.discarded]
        out["note"] = polygon.note
    return out


def _phi_evidence_dict(pd: ore.PhiData) -> dict:
    out: dict = {
        "phi": _poly_str_coeffs(pd.phi),
        "phi_str": str(pd.phi),
        "multiplicity": str(pd.multiplicity),
        "ind": str(pd.index),
    }
    if pd.polygon is None:
        out["polygon"] = None
        out["sides"] = []
        return out
    out["polygon"] = _polygon_dict(pd.polygon)
    sides = []
    for sd in pd.sides:
        field = sd.residual.field
        sides.append(
            {
                "side": _side_dict(sd.side),
                "residual_coeffs": [str(field.to_int(c)) for c in sd.residual.coeffs],
                "residual_str": str(sd.residual),
                "separable": sd.separable,
                "residual_factors": [
                    {"poly": str(g), "multiplicity": str(m)}
                    for g, m in sd.factorization.factors
                ],
            }
        )
    out["sides"] = sides
    return out


def _splitting_dict(fact: ore.OreFactorization) -> dict:
    return {
        "p": str(fact.p),
        "regular": fact.regular,
        "index_lower_bound": str(fact.index_lower_bound),
        "factors": [
            {
                "label": [
                    str(fac.label[0]),
                    None if fac.label[1] is None else str(fac.label[1]),
                    None if fac.label[2] is None else str(fac.label[2]),
                ],
                "e": str(fac.e),
                "f": str(fac.f),
            }
            for fac in fact.factors
        ],
        "evidence": [_phi_evidence_dict(pd) for pd in fact.evidence],
    }


def _alpha_dict(cert: monogenity.AlphaCert, n: int) -> dict:
    return {
        "p": str(cert.p),
        "k": str(cert.k),
        "x": str(cert.x),
        "y": str(cert.y),
        "alpha": f"theta^{cert.x} / {cert.p}^{cert.y}",
        "min_poly_coeffs": _poly_str_coeffs(cert.H),
        "min_poly_str": str(cert.H),
        # No certificate is built unless H is p-Eisenstein.
        "eisenstein_ok": True,
        "stripped_disc_status": cert.deltap_status.value,
        # The certificate is built only where the one-sided polygon's index
        # is this closed form.
        "polygon_index": str((n - 1) * (cert.k - 1) // 2),
    }


def _verdict_dict(v: monogenity.MonogenityVerdict, bounds: list[dict]) -> dict:
    out: dict = {
        "kind": v.kind.value,
        "trail": list(v.trail),
        "p": None if v.p is None else str(v.p),
        "reason": v.reason,
        "irreducibility": None
        if v.irreducibility is None
        else {"route": v.irreducibility.route, "p": str(v.irreducibility.p)},
        "irreducibility_assumed": v.irreducibility_assumed,
    }
    if v.alpha is not None:
        out["alpha"] = _alpha_dict(v.alpha, v.trinomial.n)
    if v.congruence is not None:
        mod, T = v.congruence, v.trinomial
        out["congruence"] = {
            "case": f"mod{mod}",
            "modulus": str(mod),
            "a_residue": str(T.a % mod),
            "b_residue": str(T.b % mod),
        }
    if v.kind is VerdictKind.FIELD_NOT_MONOGENIC:
        d, count, available = monogenity.common_index_divisor(v.splitting)
        out["common_index_divisor"] = {
            "d": str(d),
            "primes_with_f_d": str(count),
            "available_irreducibles": str(available),
        }
    if bounds:
        out["index_bounds"] = bounds
    return out


def build_report(
    T: Trinomial, v: monogenity.MonogenityVerdict, only_p: int | None = None
) -> dict:
    """The full analysis report as a JSON-ready dict (all math ints as strings).

    The discriminant and the splittings the verdict built are read off the
    verdict; each splitting it lacks is built here once, and both the
    evidence and the index bounds are read from them.
    """
    disc = v.disc
    square = monogenity.square_primes(disc)
    if only_p is not None:
        primes = [only_p]
    else:
        primes = set(square)
        if v.p is not None:
            primes.add(v.p)
        primes = sorted(primes)

    disc_primes = []
    for p in primes:
        if disc == 0:
            break
        stripped = strip_factored(p, disc, monogenity.SF_BOUND)
        disc_primes.append(
            {
                "p": str(p),
                "nu": str(stripped.nu),
                "stripped_digest": _digest(stripped.unit_part),
                "stripped_status": squarefree_status(stripped.unit_part).value,
            }
        )

    F = T.poly()
    splittings = dict(v.splittings)

    def splitting(p: int) -> ore.OreFactorization | str:
        if p not in splittings:
            splittings[p] = monogenity._splitting(F, p)
        return splittings[p]

    evidence = []
    for p in primes:
        fact = splitting(p)
        evidence.append(
            {"p": str(p), "error": fact} if isinstance(fact, str) else _splitting_dict(fact)
        )

    bounds = []
    for p in square if v.reached_bounds else ():
        fact = splitting(p)
        if isinstance(fact, str):
            # An assumed input's verdict already answered with this
            # contradiction; a certified one cannot have a rational factor.
            if v.irreducibility is not None:
                raise monogenity.InternalContradiction(
                    "irreducibility was certified but the engine found "
                    f"a rational factor: {fact}"
                )
            continue
        bounds.append(
            {"p": str(p), "bound": str(fact.index_lower_bound), "exact": fact.regular}
        )

    return {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "trinogen", "version": __version__},
        "input": {
            "n": str(T.n),
            "m": str(T.m),
            "a": str(T.a),
            "b": str(T.b),
            "r": None if T.r is None else str(T.r),
        },
        "trinomial": str(T),
        "discriminant": {
            "value": str(disc),
            "digest": _digest(disc),
            "primes": disc_primes,
        },
        "evidence": evidence,
        "verdict": _verdict_dict(v, bounds),
    }


# -- text projection -----------------------------------------------------------


def render_text(report: dict) -> str:
    """Human-readable projection of a report dict (its only data source)."""
    lines: list[str] = []
    add = lines.append
    add(f"trinogen {report['tool']['version']}: {report['trinomial']}")
    inp = report["input"]
    extra = f", r={inp['r']}" if inp["r"] is not None else ""
    add(f"  n={inp['n']} m={inp['m']} a={inp['a']} b={inp['b']}{extra}")
    disc = report["discriminant"]
    add(f"discriminant = {disc['value']}")
    add(f"            = {disc['digest']}")
    for entry in disc["primes"]:
        add(
            f"  nu_{entry['p']} = {entry['nu']}; stripped part "
            f"{entry['stripped_digest']} [{entry['stripped_status']}]"
        )
    for fact in report["evidence"]:
        if "error" in fact:
            add(f"prime {fact['p']}: {fact['error']}")
            continue
        add(
            f"prime {fact['p']}: regular={'yes' if fact['regular'] else 'no'} "
            f"index_lower_bound={fact['index_lower_bound']}"
        )
        for pd in fact["evidence"]:
            add(f"  phi = {pd['phi_str']}  multiplicity={pd['multiplicity']}  ind={pd['ind']}")
            if pd["polygon"] is None:
                add("    (multiplicity 1: prime read off directly, no polygon)")
                continue
            poly = pd["polygon"]
            verts = " ".join(f"({x},{y})" for x, y in poly["vertices"])
            add(f"    vertices: {verts}")
            add("    side |  s  | u_s |  l  |  h  |  e  |  d  | slope")
            for i, sd in enumerate(pd["sides"]):
                s = sd["side"]
                add(
                    f"    {i:4d} | {s['s']:>3} | {s['u_s']:>3} | {s['l']:>3} |"
                    f" {s['h']:>3} | {s['e']:>3} | {s['d']:>3} | {s['slope']}"
                )
            for i, sd in enumerate(pd["sides"]):
                sep = "separable" if sd["separable"] else "NOT separable"
                facs = ", ".join(
                    f"({f['poly']})^{f['multiplicity']}" for f in sd["residual_factors"]
                )
                add(f"    residual[{i}] = {sd['residual_str']}  [{sep}]  factors: {facs}")
            if "note" in poly:
                add(f"    note: {poly['note']}")
        if fact["regular"]:
            shapes = ", ".join(f"(e={f['e']}, f={f['f']})" for f in fact["factors"])
            add(f"  shapes: {shapes}")
    v = report["verdict"]
    add(f"verdict: {v['kind']}")
    if v.get("reason"):
        add(f"  reason: {v['reason']}")
    if "alpha" in v:
        a = v["alpha"]
        add(
            f"  alpha = {a['alpha']}  (min poly {a['min_poly_str']}; "
            f"{a['p']}-Eisenstein: {'yes' if a['eisenstein_ok'] else 'no'}; "
            f"stripped disc {a['stripped_disc_status']})"
        )
    if "congruence" in v:
        c = v["congruence"]
        add(
            f"  congruence pattern {c['case']}: "
            f"a = {c['a_residue']}, b = {c['b_residue']} (mod {c['modulus']})"
        )
    if "common_index_divisor" in v:
        c = v["common_index_divisor"]
        add(
            f"  common index divisor: {c['primes_with_f_d']} primes of residue "
            f"degree {c['d']} > {c['available_irreducibles']} available"
        )
    if "index_bounds" in v:
        for e in v["index_bounds"]:
            exact = "exact" if e["exact"] else "lower bound"
            add(f"  index at {e['p']}: {e['bound']} ({exact})")
    irr = v["irreducibility"]
    if irr is not None:
        add(f"  irreducible: {irr['route']} at p={irr['p']}")
    elif v["irreducibility_assumed"]:
        add("  irreducibility: assumed by flag, not certified")
    else:
        add("  irreducibility: NOT certified")
    add("trail: " + " -> ".join(v["trail"]))
    return "\n".join(lines) + "\n"


# -- analyze -------------------------------------------------------------------


def _add_analyze_args(sp: argparse.ArgumentParser) -> None:
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="degree n of x^n + a*x^m + b")
    group.add_argument("--r", type=int, help="degree exponent: n = 2^r")
    sp.add_argument("--m", type=int, default=1, help="middle exponent m (default 1)")
    sp.add_argument("--a", type=int, required=True, help="coefficient a")
    sp.add_argument("--b", type=int, required=True, help="coefficient b")
    sp.add_argument(
        "--p", type=int, default=None, help="restrict engine evidence to this prime"
    )
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--json", action="store_true", help="emit the JSON report")
    mode.add_argument(
        "--text", action="store_true", help="emit the text projection (default)"
    )
    sp.add_argument(
        "--assume-irreducible",
        action="store_true",
        help="proceed without an irreducibility certificate (recorded in the report)",
    )


def _pow2_over_cap(r: int) -> bool:
    """Whether 2**r exceeds MAX_DEGREE, decided without computing 2**r."""
    return r >= MAX_DEGREE.bit_length()


def cmd_analyze(args) -> int:
    if args.r is not None:
        if args.r < 1:
            raise ValueError("--r must be >= 1")
        if _pow2_over_cap(args.r):
            raise ValueError(f"--r {args.r} gives a degree above the cap {MAX_DEGREE}")
        n = 2**args.r
    else:
        n = args.n
        if n > MAX_DEGREE:
            raise ValueError(f"--n {n} is above the degree cap {MAX_DEGREE}")
    T = Trinomial(n=n, m=args.m, a=args.a, b=args.b)
    if args.p is not None and not is_probable_prime(args.p):
        raise ValueError(f"--p {args.p} is not prime")
    # The report prints the discriminant in decimal, so one with more digits
    # than Python converts to a string is refused before the verdict's work.
    disc = disc_trinomial(T)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and abs(disc) >= 10**limit:
        raise ValueError(f"the discriminant of {T} has {abs(disc).bit_length()} bits, more "
                         f"than the {limit} decimal digits a report can print")
    v = verdict(T, assume_irreducible=args.assume_irreducible, disc=disc)
    report = build_report(T, v, only_p=args.p)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_text(report), end="")
    if v.irreducibility is None and not args.assume_irreducible:
        return EXIT_UNCERTIFIED
    return EXIT_OK


# -- scan ----------------------------------------------------------------------


def _parse_range(text: str, name: str) -> range:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"--{name} must look like LO:HI, got {text!r}")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise ValueError(f"--{name} bounds must be integers, got {text!r}") from exc
    if lo_i > hi_i:
        raise ValueError(f"--{name} is empty: {lo_i} > {hi_i}")
    return range(lo_i, hi_i + 1)


SCAN_COLUMNS = [
    "r",
    "m",
    "a",
    "b",
    "kind",
    "witness_p",
    "witness_d",
    "index_lower_bound_2",
    "runtime_micros",
]


def _class_index(T: Trinomial, classes: dict) -> int | None:
    """``ore.polygon_index(F, 2)``'s index (None where it raises), read off a
    class in ``classes``: (n, m) -> k -> {(a mod 2^k, b mod 2^k): index}.  A
    row in no stored class builds its polygons and stores its own class."""
    by_k = classes.setdefault((T.n, T.m), {})
    for k, table in by_k.items():
        index = table.get((T.a % (1 << k), T.b % (1 << k)))
        if index is not None:
            return index
    try:
        index, k = ore.polygon_index(T.poly(), 2)
    except MalformedInput:
        return None
    by_k.setdefault(k, {})[T.a % (1 << k), T.b % (1 << k)] = index
    return index


def _scan_row(item: tuple[int, int, int, int], classes: dict) -> dict:
    r, m, a, b = item
    start = time.perf_counter_ns()
    row: dict = {"r": str(r), "m": str(m), "a": str(a), "b": str(b)}
    kind = "skipped"
    witness_p = witness_d = bound2 = None
    try:
        T = Trinomial(n=2**r, m=m, a=a, b=b)
    except ValueError:
        pass
    else:
        v = verdict(T)
        if v.irreducibility is None:
            kind = "skipped"
        else:
            kind = v.kind.value
            witness_p = v.p
            if v.kind is VerdictKind.FIELD_NOT_MONOGENIC:
                witness_d = monogenity.common_index_divisor(v.splitting)[0]
        bound2 = _class_index(T, classes)
    row["kind"] = kind
    row["witness_p"] = None if witness_p is None else str(witness_p)
    row["witness_d"] = None if witness_d is None else str(witness_d)
    row["index_lower_bound_2"] = None if bound2 is None else str(bound2)
    row["runtime_micros"] = (time.perf_counter_ns() - start) // 1000
    return row


# A pool worker computes rows in chunks of SCAN_CHUNK, and at most
# POOL_WINDOW chunks per worker are submitted and not yet written.  A chunk
# costs a round trip through the parent's queue threads, so it holds enough
# rows (about 5 ms of work on the ROADMAP box) that the workers stay busy
# while the parent waits to be scheduled.
SCAN_CHUNK = 64
POOL_WINDOW = 4


def _row_line(row: dict, fmt: str) -> str:
    if fmt == "csv":
        return ",".join("" if row[c] is None else str(row[c]) for c in SCAN_COLUMNS) + "\n"
    return json.dumps(row) + "\n"


# A pool worker's class table, made by _start_worker.  A pool lives for one
# scan, so the table serves every chunk of that scan the worker computes.
_WORKER_CLASSES: dict | None = None


def _scan_chunk(items: list[tuple[int, int, int, int]], fmt: str) -> str:
    """The output lines of ``items``' rows: a worker formats them, so the
    parent only writes.  The rows read and fill the worker's class table,
    ``_WORKER_CLASSES``."""
    return "".join(_row_line(_scan_row(item, _WORKER_CLASSES), fmt) for item in items)


def _start_worker() -> None:
    global _WORKER_CLASSES
    _WORKER_CLASSES = {}
    # Ctrl-C reaches the whole process group; the parent alone answers it by
    # cancelling the pending chunks, so a worker neither stops nor prints.
    # A forked worker would inherit entry's SIGTERM handler; a SIGTERM sent
    # to a worker ends it instead.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _pool_text(pool, items, jobs: int, fmt: str):
    """The output of ``items``' rows in order, one chunk at a time, computed
    on ``pool`` through a window of POOL_WINDOW chunks per worker, refilled
    as each chunk is taken."""
    chunks = iter(lambda: list(islice(items, SCAN_CHUNK)), [])
    window = deque(pool.submit(_scan_chunk, c, fmt)
                   for c in islice(chunks, POOL_WINDOW * jobs))
    while window:
        text = window.popleft().result()
        for chunk in islice(chunks, 1):
            window.append(pool.submit(_scan_chunk, chunk, fmt))
        yield text


def _add_scan_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--r-range", required=True, help="LO:HI inclusive range for r")
    sp.add_argument("--a-range", required=True, help="LO:HI inclusive range for a")
    sp.add_argument("--b-range", required=True, help="LO:HI inclusive range for b")
    sp.add_argument("--m", type=int, default=1, help="middle exponent (default 1)")
    sp.add_argument("--out", required=True, help="output file path ('-' for stdout)")
    sp.add_argument(
        "--format",
        choices=("jsonl", "csv"),
        default="jsonl",
        help="jsonl: one object per row; csv: columns "
        + ",".join(SCAN_COLUMNS),
    )
    sp.add_argument(
        "--jobs", type=int, default=1, help=f"parallel workers, 1 to {MAX_JOBS} (default 1)"
    )


def cmd_scan(args) -> int:
    r_range = _parse_range(args.r_range, "r-range")
    a_range = _parse_range(args.a_range, "a-range")
    b_range = _parse_range(args.b_range, "b-range")
    r0 = r_range.start
    if r0 < 1:
        raise ValueError("--r-range must start at 1 or above")
    # Checked here, because a row applies no cap: it analyzes any degree.
    if _pow2_over_cap(r_range[-1]):
        raise ValueError(f"--r-range reaches r={r_range[-1]}, a degree above the cap "
                         f"{MAX_DEGREE}")
    if not 1 <= args.jobs <= MAX_JOBS:
        raise ValueError(f"--jobs must be between 1 and {MAX_JOBS}, got {args.jobs}")
    # 1 <= m < 2^r holds for every r in the range once it holds for the least.
    if not 1 <= args.m < 2**r0:
        raise ValueError(f"m={args.m} is out of range for r={r0}")
    items = ((r, args.m, a, b) for r in r_range for a in a_range for b in b_range)
    try:
        out = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot open {args.out}: {exc}") from exc
    pool = None
    try:
        if args.format == "csv":
            out.write(",".join(SCAN_COLUMNS) + "\n")
        if args.jobs == 1:
            classes: dict = {}
            for item in items:
                out.write(_row_line(_scan_row(item, classes), args.format))
        else:
            # Imported here: it loads multiprocessing, which no other
            # command needs.
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=args.jobs, initializer=_start_worker)
            for text in _pool_text(pool, items, args.jobs, args.format):
                out.write(text)
    finally:
        if out is not sys.stdout:
            out.close()
        if pool is not None:
            # Rows not yet computed are not needed once writing has failed
            # or the command was interrupted.
            pool.shutdown(cancel_futures=True)
    return EXIT_OK


# -- verify ----------------------------------------------------------------------


# The paper's worked examples and two engine-level fixtures, each built once:
# a trinomial's record is its verdict, a bare polynomial's is its splitting
# at 2.  Each row of KNOWN_ANSWERS, (fixture, check, expected, read), reads
# its value off the fixture's record.  `verify` prints the rows in this order
# and tests/test_acceptance.py runs the same rows.
FIXTURES = {
    # non-monogenic polynomial in a monogenic field
    "x^8+8x+8": lambda: verdict(Trinomial(8, 1, 8, 8)),
    # no generator at all: 2 is a common index divisor
    "x^8+12x+3": lambda: verdict(Trinomial(8, 1, 12, 3)),
    # alpha = theta^11 / 4
    "x^16+24x^15+8": lambda: verdict(Trinomial(16, 15, 24, 8)),
    # pure field, not monogenic
    "x^64-65": lambda: verdict(Trinomial(64, 1, 0, -65)),
    # reducible over Q: shape data only
    "x^16+8x+7": lambda: ore.factor_p(PolyZ([7, 8] + [0] * 14 + [1]), 2),
    # Dedekind's cubic: 2 splits completely
    "x^3+x^2-2x+8": lambda: ore.factor_p(PolyZ([8, -2, 1, 1]), 2),
}


def _shapes(fact: ore.OreFactorization) -> list[tuple[int, int]]:
    return sorted((f.e, f.f) for f in fact.factors)


def _sum_ef(fact: ore.OreFactorization) -> int:
    return sum(f.e * f.f for f in fact.factors)


def _pow2_criterion(v: monogenity.MonogenityVerdict) -> bool:
    """The paper's hypotheses for n = 2^r, read off an alpha certificate:
    k = nu_p(b) >= 3 is odd and nu_p(a) >= k."""
    T, cert = v.trinomial, v.alpha
    return T.r is not None and cert.k >= 3 and cert.k % 2 == 1 and valp(cert.p, T.a) >= cert.k


# fmt: off
KNOWN_ANSWERS = (
    ("x^8+8x+8", "discriminant", 2**24 * 1273609, attrgetter("disc")),
    ("x^8+8x+8", "disc digest", "2^24 * 1273609", lambda v: _digest(v.disc)),
    ("x^8+8x+8", "verdict", "PolyNotMonogenicFieldMonogenic", attrgetter("kind.value")),
    ("x^8+8x+8", "alpha (p, x, y)", (2, 3, 1), attrgetter("alpha.p", "alpha.x", "alpha.y")),
    ("x^8+8x+8", "alpha min poly 2-Eisenstein", True,
     lambda v: monogenity._is_eisenstein(v.alpha.H, 2)),
    ("x^8+8x+8", "min poly of theta^3/2", (2, 4, 0, -6, 0, 0, 0, 0, 1),
     attrgetter("alpha.H.coeffs")),
    ("x^8+8x+8", "index bound at 2", (7, True),
     lambda v: ore.index_bound(v.trinomial.poly(), 2)),
    ("x^8+12x+3", "irreducibility", ("eisenstein", 3),
     attrgetter("irreducibility.route", "irreducibility.p")),
    ("x^8+12x+3", "congruence case", "mod8", lambda v: f"mod{v.congruence}"),
    ("x^8+12x+3", "regular at 2", True, attrgetter("splitting.regular")),
    ("x^8+12x+3", "shapes", [(1, 1), (3, 1), (4, 1)], lambda v: _shapes(v.splitting)),
    ("x^8+12x+3", "sum e*f", 8, lambda v: _sum_ef(v.splitting)),
    ("x^8+12x+3", "degree-1 primes vs available", (3, 2),
     lambda v: monogenity.common_index_divisor(v.splitting)[1:]),
    ("x^8+12x+3", "verdict", ("FieldNotMonogenic", 2), attrgetter("kind.value", "p")),
    ("x^16+24x^15+8", "nu_2(disc)", 90, lambda v: strip_p(2, v.disc).nu),
    ("x^16+24x^15+8", "odd part of disc", 2**19 - 3**31 * 5**15,
     lambda v: strip_p(2, v.disc).unit_part),
    ("x^16+24x^15+8", "power-of-two criterion applies", True, _pow2_criterion),
    ("x^16+24x^15+8", "alpha (p, x, y)", (2, 11, 2),
     attrgetter("alpha.p", "alpha.x", "alpha.y")),
    ("x^16+24x^15+8", "alpha min poly 2-Eisenstein", True,
     lambda v: monogenity._is_eisenstein(v.alpha.H, 2)),
    ("x^16+24x^15+8", "verdict", "PolyNotMonogenicFieldMonogenic", attrgetter("kind.value")),
    ("x^64-65", "pure-field screen", "mod32", lambda v: f"mod{v.congruence}"),
    ("x^64-65", "regular at 2", True, attrgetter("splitting.regular")),
    # Over F_2, degree 1 offends exactly when there are at least 3 such primes.
    ("x^64-65", "at least 3 degree-1 primes", True,
     lambda v: monogenity.common_index_divisor(v.splitting)[0] == 1),
    ("x^64-65", "exponents include 8, 16, 32", True,
     lambda v: {8, 16, 32} <= {f.e for f in v.splitting.factors}),
    ("x^64-65", "verdict", ("FieldNotMonogenic", 2), attrgetter("kind.value", "p")),
    ("x^16+8x+7", "polygon vertices", ((0, 4), (1, 3), (4, 2), (8, 1), (16, 0)),
     lambda f: f.evidence[0].polygon.vertices),
    ("x^16+8x+7", "four degree-1 sides", [1, 1, 1, 1],
     lambda f: [s.d for s in f.evidence[0].polygon.sides]),
    ("x^16+8x+7", "sum e*f", 16, _sum_ef),
    ("x^16+8x+7", "four degree-1 primes", 4,
     lambda f: monogenity.common_index_divisor(f)[1]),
    ("x^16+8x+7", "common index divisor witness", (1, 4, 2), monogenity.common_index_divisor),
    ("x^3+x^2-2x+8", "2 splits completely", [(1, 1), (1, 1), (1, 1)], _shapes),
    ("x^3+x^2-2x+8", "common index divisor witness", (1, 3, 2),
     monogenity.common_index_divisor),
)
# fmt: on


def cmd_verify(_args) -> int:
    records = {fixture: build() for fixture, build in FIXTURES.items()}
    passed = 0
    for fixture, check, expected, read in KNOWN_ANSWERS:
        got = read(records[fixture])
        line = f"{fixture} | {check} | expected {expected!r}"
        if got == expected:
            passed += 1
            print(f"[PASS] {line}")
        else:
            print(f"[FAIL] {line} | got {got!r}")
    print(f"summary: {passed}/{len(KNOWN_ANSWERS)} checks passed")
    return EXIT_OK if passed == len(KNOWN_ANSWERS) else EXIT_VERIFY_FAILED


# -- entry ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trinogen",
        description="Exact Newton-polygon certificates of (non-)monogenity "
        "for trinomials x^n + a*x^m + b.",
    )
    parser.add_argument("--version", action="version", version=f"trinogen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="analyze a single trinomial")
    _add_analyze_args(sp)

    sp = sub.add_parser(
        "scan",
        help="analyze a whole (r, a, b) box of degree-2^r trinomials",
    )
    _add_scan_args(sp)

    sub.add_parser("verify", help="run the built-in known-answer fixtures")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One per process: building the parser takes longer than parsing with it.
    return build_parser()


_RANGE_FLAGS = ("--r-range", "--a-range", "--b-range")


def _glue_range_values(argv: list[str]) -> list[str]:
    """Join each range flag with its value so ``--b-range -2:8`` parses.

    argparse treats a following token that starts with ``-`` as a new option
    unless it looks like a bare negative number, which ``-2:8`` does not.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _RANGE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _error(text: str) -> None:
    """Print ``error: text`` to stderr.  With file descriptor 2 closed,
    Python sets ``sys.stderr`` to None, and print() would write the line to
    stdout instead, among the output; then nothing is printed."""
    if sys.stderr is not None:
        print(f"error: {text}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_glue_range_values(list(argv)))
    # Facts are shared within one command, not across commands, so what a
    # command computes does not depend on what ran before it in this process.
    # Pool workers start from these emptied memos and fill their own.
    exactnum.FACTORIZATIONS.clear()
    ffactor.FACTORIZATIONS.clear()
    # Looked up when called, so a command rebound in this module (by a test
    # or a tracer) is the one that runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except ValueError as exc:
        # Validation errors raised below the argument parser are user input
        # errors, not crashes.
        _error(str(exc))
        return EXIT_USAGE


class _StdoutClosed(Exception):
    """A command wrote to a stdout that was closed when the process started."""


class _ClosedStdout:
    """Stands in for ``sys.stdout``, which Python sets to None when file
    descriptor 1 is closed at start.  The first write raises, so a command
    that prints stops there; one that writes only to a file runs as usual."""

    def write(self, text: str) -> int:
        raise _StdoutClosed

    def flush(self) -> None:
        pass


def _interrupt(signum, frame):
    # Unwinds like Ctrl-C, so a scan cancels its pending rows on the way out.
    raise KeyboardInterrupt(signum)


def entry() -> None:
    """Console entry point: ``main`` with its exit code.

    When the reader of stdout goes away (``trinogen analyze ... | head -1``),
    exit quietly with status 1 instead of printing a traceback.  Ctrl-C and
    SIGTERM unwind the command and exit quietly with 128 plus the signal
    number: 130 and 143.  An ``InternalContradiction`` is a bug, not an
    answer: it prints one line to stderr and exits with EXIT_INTERNAL.
    ``main`` itself lets it propagate.  A command that writes to a stdout
    closed from the start prints one line to stderr and exits with status 1.
    Every ``error:`` line goes through ``_error``, so a closed stderr drops
    it rather than sending it to stdout.
    """
    signal.signal(signal.SIGTERM, _interrupt)
    if sys.stdout is None:
        sys.stdout = _ClosedStdout()
    try:
        code = main()
        sys.stdout.flush()
    except KeyboardInterrupt as exc:
        signum = exc.args[0] if exc.args else signal.SIGINT
        sys.exit(128 + signum)
    except monogenity.InternalContradiction as exc:
        _error(f"internal contradiction: {exc}")
        sys.exit(EXIT_INTERNAL)
    except _StdoutClosed:
        _error("stdout is closed")
        sys.exit(EXIT_VERIFY_FAILED)
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # flush cannot fail a second time (the recipe in the signal docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
