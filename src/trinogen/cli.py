"""Command-line front end: analyze one trinomial, scan a parameter box,
or verify the built-in known-answer fixtures.

Reports are JSON-first: every mathematical integer is serialized as a
decimal string so arbitrarily large values survive any JSON consumer, and
the text renderer is a pure projection of the same dict.  Scan output is
deterministic row content in lexicographic (r, a, b) order regardless of
worker count; only the runtime_micros measurement varies between runs.

Degrees above MAX_DEGREE are refused as usage errors before any arithmetic.
A scan on a worker pool keeps only a few chunks of rows in flight, so its
memory stays bounded on a box of any size.

Exit codes: 0 success, 1 verification mismatch (or stdout closed early),
2 usage or input error, 3 irreducibility not certified (and
--assume-irreducible absent), 130 interrupted by Ctrl-C (SIGINT), 143
stopped by SIGTERM.  An interrupted or stopped scan cancels its pending
rows and waits for its workers before it exits.
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
from concurrent.futures import ProcessPoolExecutor
from itertools import islice
from operator import attrgetter

from . import __version__, exactnum, ffactor, monogenity, newton, ore
from .exactnum import factored, is_probable_prime, strip_factored, strip_p
from .exactnum import trial_factor  # noqa: F401 - bench/test_bench.py reaches it here
from .monogenity import (
    Trinomial,
    check_pure_field_obstruction,
    disc_trinomial,
    squarefree_status,
    verdict,
)
from .newton import MalformedInput
from .polyring import PolyZ

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_UNCERTIFIED = 3

# The largest degree n accepted.  Past it, power_charpoly and the F_p
# factoring grow slow (n = 65536 runs for over a minute), and from n = 2048
# the discriminant has more digits than Python converts to a string.  At the
# cap, x^1024 + 2x + 2 takes about 2 s.
MAX_DEGREE = 1024


# -- serialization helpers -----------------------------------------------------


def _digest(value: int, bound: int | None = None) -> str:
    """Bounded factorization digest like ``2^24 * 1273609``.

    Factors are found by trial division up to the squarefree bound; an
    unfactored composite cofactor simply appears as its decimal value.
    """
    if value == 0:
        return "0"
    sign = "-" if value < 0 else ""
    t = abs(value)
    if t == 1:
        return sign + "1"
    if bound is None:
        bound = monogenity._sf_bound()
    small, cofactor = factored(t, bound)
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
                "residual_str": str(sd.residual.poly),
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


def _alpha_dict(cert: monogenity.AlphaCert) -> dict:
    return {
        "p": str(cert.p),
        "k": str(cert.k),
        "x": str(cert.x),
        "y": str(cert.y),
        "alpha": f"theta^{cert.x} / {cert.p}^{cert.y}",
        "min_poly_coeffs": _poly_str_coeffs(cert.H),
        "min_poly_str": str(cert.H),
        "eisenstein_ok": cert.eisenstein_ok,
        "stripped_disc_status": cert.deltap_status.value,
        "polygon_index": str(cert.polygon_index),
    }


def _verdict_dict(v: monogenity.MonogenityVerdict) -> dict:
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
        out["alpha"] = _alpha_dict(v.alpha)
    if v.congruence is not None:
        out["congruence"] = {
            "case": v.congruence.case.value,
            "modulus": str(v.congruence.modulus),
            "a_residue": str(v.congruence.a_residue),
            "b_residue": str(v.congruence.b_residue),
        }
    if v.cid_degree is not None:
        out["common_index_divisor"] = {
            "d": str(v.cid_degree),
            "primes_with_f_d": str(v.cid_count),
            "available_irreducibles": str(v.cid_available),
        }
    if v.index_bounds:
        out["index_bounds"] = [
            {"p": str(e.p), "bound": str(e.bound), "exact": e.exact}
            for e in v.index_bounds
        ]
    return out


def build_report(
    T: Trinomial, v: monogenity.MonogenityVerdict, only_p: int | None = None
) -> dict:
    """The full analysis report as a JSON-ready dict (all math ints as strings)."""
    disc = v.disc
    bound = monogenity._sf_bound()
    if only_p is not None:
        primes = [only_p]
    else:
        primes = set()
        if disc != 0:
            small, _ = factored(disc, bound)
            primes |= {p for p, e in small if e >= 2}
        if v.p is not None:
            primes.add(v.p)
        if v.alpha is not None:
            primes.add(v.alpha.p)
        primes = sorted(primes)

    disc_primes = []
    for p in primes:
        if disc == 0:
            break
        stripped = strip_factored(p, disc, bound)
        disc_primes.append(
            {
                "p": str(p),
                "nu": str(stripped.nu),
                "stripped_digest": _digest(stripped.unit_part, bound),
                "stripped_status": squarefree_status(stripped.unit_part, bound).value,
            }
        )

    evidence = []
    for p in primes:
        try:
            fact = ore.shared_factor_p(T.poly(), p)
        except MalformedInput as exc:
            evidence.append({"p": str(p), "error": str(exc)})
            continue
        evidence.append(_splitting_dict(fact))

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
            "digest": _digest(disc, bound),
            "primes": disc_primes,
        },
        "evidence": evidence,
        "verdict": _verdict_dict(v),
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
            print("error: --r must be >= 1", file=sys.stderr)
            return EXIT_USAGE
        if _pow2_over_cap(args.r):
            print(f"error: --r {args.r} gives a degree above the cap {MAX_DEGREE}",
                  file=sys.stderr)
            return EXIT_USAGE
        n = 2**args.r
    else:
        n = args.n
        if n > MAX_DEGREE:
            print(f"error: --n {n} is above the degree cap {MAX_DEGREE}", file=sys.stderr)
            return EXIT_USAGE
    try:
        T = Trinomial(n=n, m=args.m, a=args.a, b=args.b)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.p is not None and not is_probable_prime(args.p):
        print(f"error: --p {args.p} is not prime", file=sys.stderr)
        return EXIT_USAGE
    # The report prints the discriminant in decimal, so one with more digits
    # than Python converts to a string is refused before the verdict's work.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    disc = disc_trinomial(T)
    if limit and abs(disc) >= 10**limit:
        print(f"error: the discriminant of {T} has {abs(disc).bit_length()} bits, more "
              f"than the {limit} decimal digits a report can print", file=sys.stderr)
        return EXIT_USAGE
    v = verdict(T, assume_irreducible=args.assume_irreducible)
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


def _scan_row(item: tuple[int, int, int, int]) -> dict:
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
            witness_d = v.cid_degree
        try:
            bound2 = ore.index_bound(T.poly(), 2)[0]
        except MalformedInput:
            bound2 = None
    row["kind"] = kind
    row["witness_p"] = None if witness_p is None else str(witness_p)
    row["witness_d"] = None if witness_d is None else str(witness_d)
    row["index_lower_bound_2"] = None if bound2 is None else str(bound2)
    row["runtime_micros"] = (time.perf_counter_ns() - start) // 1000
    return row


# A pool worker computes rows in chunks of SCAN_CHUNK, and at most
# POOL_WINDOW chunks per worker are submitted and not yet written.
SCAN_CHUNK = 8
POOL_WINDOW = 4


def _scan_chunk(items: list[tuple[int, int, int, int]]) -> list[dict]:
    return [_scan_row(item) for item in items]


def _start_worker() -> None:
    # Ctrl-C reaches the whole process group; the parent alone answers it by
    # cancelling the pending chunks, so a worker neither stops nor prints.
    # A forked worker would inherit entry's SIGTERM handler; a SIGTERM sent
    # to a worker ends it instead.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _pool_rows(pool: ProcessPoolExecutor, items, jobs: int):
    """The rows of ``items`` in order, computed on ``pool`` through a window
    of POOL_WINDOW chunks per worker, refilled as each chunk is taken."""
    chunks = iter(lambda: list(islice(items, SCAN_CHUNK)), [])
    window = deque(pool.submit(_scan_chunk, c) for c in islice(chunks, POOL_WINDOW * jobs))
    while window:
        rows = window.popleft().result()
        for chunk in islice(chunks, 1):
            window.append(pool.submit(_scan_chunk, chunk))
        yield from rows


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
    sp.add_argument("--jobs", type=int, default=1, help="parallel workers (default 1)")


def cmd_scan(args) -> int:
    try:
        r_range = _parse_range(args.r_range, "r-range")
        a_range = _parse_range(args.a_range, "a-range")
        b_range = _parse_range(args.b_range, "b-range")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    r0 = r_range.start
    if r0 < 1:
        print("error: --r-range must start at 1 or above", file=sys.stderr)
        return EXIT_USAGE
    # Checked here, because a row refuses a degree past the cap as "skipped".
    if _pow2_over_cap(r_range[-1]):
        print(f"error: --r-range reaches r={r_range[-1]}, a degree above the cap "
              f"{MAX_DEGREE}", file=sys.stderr)
        return EXIT_USAGE
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    # 1 <= m < 2^r holds for every r in the range once it holds for the least.
    if not 1 <= args.m < 2**r0:
        print(f"error: m={args.m} is out of range for r={r0}", file=sys.stderr)
        return EXIT_USAGE
    items = ((r, args.m, a, b) for r in r_range for a in a_range for b in b_range)

    try:
        out = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot open {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    pool = None
    try:
        if args.jobs == 1:
            rows = map(_scan_row, items)
        else:
            pool = ProcessPoolExecutor(max_workers=args.jobs, initializer=_start_worker)
            rows = _pool_rows(pool, items, args.jobs)
        if args.format == "csv":
            out.write(",".join(SCAN_COLUMNS) + "\n")
            for row in rows:
                out.write(
                    ",".join(
                        "" if row[c] is None else str(row[c]) for c in SCAN_COLUMNS
                    )
                    + "\n"
                )
        else:
            for row in rows:
                out.write(json.dumps(row) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
        if pool is not None:
            # Rows not yet computed are not needed once writing has failed
            # or the command was interrupted.
            pool.shutdown(cancel_futures=True)
    return EXIT_OK


# -- verify ----------------------------------------------------------------------


# The paper's worked examples and two engine-level fixtures, one row per check:
# (fixture, check, expected, how to compute it).  `verify` prints the rows in
# this order and tests/test_acceptance.py runs the same rows.

_ALPHA8 = Trinomial(8, 1, 8, 8)  # non-monogenic polynomial in a monogenic field
_CID8 = Trinomial(8, 1, 12, 3)  # no generator at all: 2 is a common index divisor
_ALPHA16 = Trinomial(16, 15, 24, 8)  # alpha = theta^11 / 4
_PURE64 = Trinomial(64, 1, 0, -65)  # pure field, not monogenic
_FOUR_SIDES = PolyZ([7, 8] + [0] * 14 + [1])  # reducible over Q: shape data only
_DEDEKIND = PolyZ([8, -2, 1, 1])  # Dedekind's cubic: 2 splits completely


def _pow2_16():
    return monogenity.check_alpha_generator_pow2(4, 15, 24, 8)


def _at_2(F: PolyZ) -> ore.OreFactorization:
    return ore.shared_factor_p(F, 2)


def _shapes(fact: ore.OreFactorization) -> list[tuple[int, int]]:
    return sorted((f.e, f.f) for f in fact.factors)


def _sum_ef(fact: ore.OreFactorization) -> int:
    return sum(f.e * f.f for f in fact.factors)


def _degree_one(fact: ore.OreFactorization) -> int:
    return sum(1 for f in fact.factors if f.f == 1)


# fmt: off
KNOWN_ANSWERS = (
    ("x^8+8x+8", "discriminant", 2**24 * 1273609,
     lambda: disc_trinomial(_ALPHA8)),
    ("x^8+8x+8", "disc digest", "2^24 * 1273609",
     lambda: _digest(disc_trinomial(_ALPHA8))),
    ("x^8+8x+8", "verdict", "PolyNotMonogenicFieldMonogenic",
     lambda: verdict(_ALPHA8).kind.value),
    ("x^8+8x+8", "alpha (p, x, y)", (2, 3, 1),
     lambda: attrgetter("p", "x", "y")(verdict(_ALPHA8).alpha)),
    ("x^8+8x+8", "alpha min poly 2-Eisenstein", True,
     lambda: verdict(_ALPHA8).alpha.eisenstein_ok),
    ("x^8+8x+8", "min poly of theta^3/2", (2, 4, 0, -6, 0, 0, 0, 0, 1),
     lambda: verdict(_ALPHA8).alpha.H.coeffs),
    ("x^8+8x+8", "index bound at 2", (7, True),
     lambda: ore.index_bound(_ALPHA8.poly(), 2)),
    ("x^8+12x+3", "irreducibility", ("eisenstein", 3),
     lambda: attrgetter("route", "p")(verdict(_CID8).irreducibility)),
    ("x^8+12x+3", "congruence case", "mod8",
     lambda: verdict(_CID8).congruence.case.value),
    ("x^8+12x+3", "regular at 2", True,
     lambda: verdict(_CID8).splitting.regular),
    ("x^8+12x+3", "shapes", [(1, 1), (3, 1), (4, 1)],
     lambda: _shapes(verdict(_CID8).splitting)),
    ("x^8+12x+3", "sum e*f", 8,
     lambda: _sum_ef(verdict(_CID8).splitting)),
    ("x^8+12x+3", "degree-1 primes vs available", (3, 2),
     lambda: attrgetter("cid_count", "cid_available")(verdict(_CID8))),
    ("x^8+12x+3", "verdict", ("FieldNotMonogenic", 2),
     lambda: attrgetter("kind.value", "p")(verdict(_CID8))),
    ("x^16+24x^15+8", "nu_2(disc)", 90,
     lambda: strip_p(2, disc_trinomial(_ALPHA16)).nu),
    ("x^16+24x^15+8", "odd part of disc", 2**19 - 3**31 * 5**15,
     lambda: strip_p(2, disc_trinomial(_ALPHA16)).unit_part),
    ("x^16+24x^15+8", "power-of-two criterion applies", True,
     lambda: _pow2_16()[0]),
    ("x^16+24x^15+8", "alpha (p, x, y)", (2, 11, 2),
     lambda: attrgetter("p", "x", "y")(_pow2_16()[1])),
    ("x^16+24x^15+8", "alpha min poly 2-Eisenstein", True,
     lambda: _pow2_16()[1].eisenstein_ok),
    ("x^16+24x^15+8", "verdict", "PolyNotMonogenicFieldMonogenic",
     lambda: verdict(_ALPHA16).kind.value),
    ("x^64-65", "pure-field screen", True,
     lambda: check_pure_field_obstruction(6, -65)),
    ("x^64-65", "regular at 2", True,
     lambda: verdict(_PURE64).splitting.regular),
    ("x^64-65", "at least 3 degree-1 primes", True,
     lambda: _degree_one(verdict(_PURE64).splitting) >= 3),
    ("x^64-65", "exponents include 8, 16, 32", True,
     lambda: {8, 16, 32} <= {f.e for f in verdict(_PURE64).splitting.factors}),
    ("x^64-65", "verdict", ("FieldNotMonogenic", 2),
     lambda: attrgetter("kind.value", "p")(verdict(_PURE64))),
    ("x^16+8x+7", "polygon vertices", ((0, 4), (1, 3), (4, 2), (8, 1), (16, 0)),
     lambda: _at_2(_FOUR_SIDES).evidence[0].polygon.vertices),
    ("x^16+8x+7", "four degree-1 sides", [1, 1, 1, 1],
     lambda: [s.d for s in _at_2(_FOUR_SIDES).evidence[0].polygon.sides]),
    ("x^16+8x+7", "sum e*f", 16,
     lambda: _sum_ef(_at_2(_FOUR_SIDES))),
    ("x^16+8x+7", "four degree-1 primes", 4,
     lambda: _degree_one(_at_2(_FOUR_SIDES))),
    ("x^16+8x+7", "common index divisor witness", (True, 1),
     lambda: monogenity.common_index_divisor(_at_2(_FOUR_SIDES), 16)),
    ("x^3+x^2-2x+8", "2 splits completely", [(1, 1), (1, 1), (1, 1)],
     lambda: _shapes(_at_2(_DEDEKIND))),
    ("x^3+x^2-2x+8", "common index divisor witness", (True, 1),
     lambda: monogenity.common_index_divisor(_at_2(_DEDEKIND), 3)),
)
# fmt: on


def cmd_verify(_args) -> int:
    passed = 0
    for fixture, check, expected, compute in KNOWN_ANSWERS:
        got = compute()
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


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_glue_range_values(list(argv)))
    # Facts are shared within one command, not across commands, so what a
    # command computes does not depend on what ran before it in this process.
    # Pool workers start from these emptied memos and fill their own.
    exactnum.FACTORIZATIONS.clear()
    ffactor.FACTORIZATIONS.clear()
    ore.SPLITTINGS.clear()
    # Looked up when called, so a command rebound in this module (by a test
    # or a tracer) is the one that runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except ValueError as exc:
        # Validation errors raised below the argument parser (for example a
        # malformed TRINOGEN_SF_BOUND) are user input errors, not crashes.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _interrupt(signum, frame):
    # Unwinds like Ctrl-C, so a scan cancels its pending rows on the way out.
    raise KeyboardInterrupt(signum)


def entry() -> None:
    """Console entry point: ``main`` with its exit code.

    When the reader of stdout goes away (``trinogen analyze ... | head -1``),
    exit quietly with status 1 instead of printing a traceback.  Ctrl-C and
    SIGTERM unwind the command and exit quietly with 128 plus the signal
    number: 130 and 143.
    """
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        code = main()
        sys.stdout.flush()
    except KeyboardInterrupt as exc:
        signum = exc.args[0] if exc.args else signal.SIGINT
        sys.exit(128 + signum)
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # flush cannot fail a second time (the recipe in the signal docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
