"""Correctness checks that run outside the timed region.

Each check re-derives a claim from the evidence the output carries:

* a regular splitting has sum(e*f) == n;
* a FieldNotMonogenic count re-derives from its splitting against
  ``count_monic_irreducibles``;
* the printed discriminant equals the closed form, and for n <= 16 the closed
  form equals the resultant ``polyring.discriminant``;
* an alpha certificate has no prime q != p below the squarefree bound with
  q^2 | disc(H) and ``ore.index_bound(H, q)[0] >= 1``.  Such a q proves that
  Z[alpha] is not the maximal order, so the certificate is refuted.

Text reports are parsed back into the same facts as JSON reports, so both
output modes are checked against the same rules.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from trinogen import monogenity, ore, polyring
from trinogen.exactnum import count_monic_irreducibles, trial_factor
from trinogen.monogenity import Trinomial, disc_trinomial
from trinogen.newton import MalformedInput
from trinogen.polyring import PolyZ

SMALL_N = 16
FIELD_NOT_MONOGENIC = "FieldNotMonogenic"
ALPHA_KINDS = ("PolyNotMonogenicFieldMonogenic", "PolyNotMonogenicFieldConditional")


@dataclass
class Facts:
    """What a report claims, whichever format it was printed in."""

    disc: int
    kind: str
    splittings: dict[int, tuple[bool, list[tuple[int, int]]]] = field(default_factory=dict)
    cid: tuple[int, int, int, int] | None = None  # (p, d, count, available)
    alpha: tuple[int, PolyZ] | None = None  # (p, H)


def facts_from_json(text: str) -> Facts:
    report = json.loads(text)
    v = report["verdict"]
    facts = Facts(disc=int(report["discriminant"]["value"]), kind=v["kind"])
    for ev in report["evidence"]:
        if "error" not in ev:
            shapes = [(int(f["e"]), int(f["f"])) for f in ev["factors"]]
            facts.splittings[int(ev["p"])] = (ev["regular"], shapes)
    if "common_index_divisor" in v:
        c = v["common_index_divisor"]
        facts.cid = (int(v["p"]), int(c["d"]), int(c["primes_with_f_d"]),
                     int(c["available_irreducibles"]))
    if "alpha" in v:
        a = v["alpha"]
        facts.alpha = (int(a["p"]), PolyZ(int(c) for c in a["min_poly_coeffs"]))
    return facts


_PRIME = re.compile(r"prime (\d+): regular=(yes|no) ")
_SHAPE = re.compile(r"\(e=(\d+), f=(\d+)\)")
_CID = re.compile(r"  common index divisor: (\d+) primes of residue degree (\d+) > (\d+) available")
_CID_TRAIL = re.compile(r"common-index-divisor\(p=(\d+),")
_ALPHA = re.compile(r"  alpha = theta\^\d+ / (\d+)\^\d+  \(min poly (.+?); ")
_TERM = re.compile(r"^(?:(\d+)\*)?x(?:\^(\d+))?$|^(\d+)$")


def parse_polyz(text: str) -> PolyZ:
    """Inverse of ``str(PolyZ)``, e.g. ``x^8 - 6*x^3 + 4*x + 2``."""
    coeffs: dict[int, int] = {}
    for token in text.replace(" - ", " + -").split(" + "):
        sign = -1 if token.startswith("-") else 1
        match = _TERM.match(token.lstrip("-"))
        if match is None:
            raise ValueError(f"cannot parse polynomial term {token!r}")
        scale, power, const = match.groups()
        if const is not None:
            coeffs[0] = sign * int(const)
        else:
            coeffs[int(power or 1)] = sign * int(scale or 1)
    return PolyZ([coeffs.get(i, 0) for i in range(max(coeffs) + 1)])


def facts_from_text(text: str) -> Facts:
    disc = kind = None
    facts = Facts(disc=0, kind="")  # disc and kind are filled in at the end
    current = None
    for line in text.splitlines():
        if line.startswith("discriminant = "):
            disc = int(line.split(" = ", 1)[1])
        elif match := _PRIME.match(line):
            current = int(match[1])
            facts.splittings[current] = (match[2] == "yes", [])
        elif line.startswith("prime "):
            current = None  # "prime p: <engine error>" carries no splitting
        elif line.startswith("  shapes: ") and current is not None:
            facts.splittings[current][1].extend(
                (int(e), int(f)) for e, f in _SHAPE.findall(line)
            )
        elif line.startswith("verdict: "):
            kind = line.split(": ", 1)[1]
        elif match := _CID.match(line):
            count, d, available = (int(g) for g in match.groups())
            p = _CID_TRAIL.search(text)
            facts.cid = (int(p[1]) if p else 0, d, count, available)
        elif match := _ALPHA.match(line):
            facts.alpha = (int(match[1]), parse_polyz(match[2]))
    if disc is None or kind is None:
        raise ValueError("report has no discriminant or verdict line")
    facts.disc, facts.kind = disc, kind
    return facts


def alpha_refuter(H: PolyZ, p: int) -> int | None:
    """The least prime q != p (below the squarefree bound) refuting Z[alpha] = Z_K."""
    small, _ = trial_factor(abs(polyring.discriminant(H)), monogenity._sf_bound())
    for q, e in small:
        if q != p and e >= 2 and ore.index_bound(H, q)[0] >= 1:
            return q
    return None


def _check_splitting(n: int, p: int, shapes: list[tuple[int, int]]) -> str | None:
    total = sum(e * f for e, f in shapes)
    if total != n:
        return f"splitting at {p} has sum(e*f) = {total}, not {n}"
    return None


def _check_cid(shapes: list[tuple[int, int]], p: int, d: int,
               count: int, available: int) -> str | None:
    derived = sum(1 for _, f in shapes if f == d)
    expect = count_monic_irreducibles(p, d)
    if derived != count or available != expect or count <= expect:
        return (f"common index divisor at {p}: {count} primes of degree {d} vs "
                f"{derived} in the splitting, {available} vs {expect} irreducibles")
    return None


def _check_disc(T: Trinomial, printed: int | None) -> str | None:
    closed = disc_trinomial(T)
    if printed is not None and printed != closed:
        return f"printed discriminant {printed} differs from the closed form {closed}"
    if T.n <= SMALL_N and polyring.discriminant(T.poly()) != closed:
        return "closed-form discriminant differs from the resultant"
    return None


def check_facts(T: Trinomial, facts: Facts) -> str | None:
    """None when every claim re-checks, else the first failure."""
    problem = _check_disc(T, facts.disc)
    if problem:
        return problem
    for p, (regular, shapes) in sorted(facts.splittings.items()):
        if regular and (problem := _check_splitting(T.n, p, shapes)):
            return problem
    if facts.kind == FIELD_NOT_MONOGENIC:
        if facts.cid is None:
            return "FieldNotMonogenic without a common index divisor"
        p, d, count, available = facts.cid
        regular, shapes = facts.splittings.get(p, (False, []))
        if not regular:
            return f"FieldNotMonogenic without a regular splitting at {p}"
        if problem := _check_cid(shapes, p, d, count, available):
            return problem
    if facts.alpha is not None:
        p, H = facts.alpha
        if (q := alpha_refuter(H, p)) is not None:
            return f"alpha certificate at {p} refuted at q={q}"
    return None


def check_report(T: Trinomial, as_json: bool, rc: int, output: str) -> str | None:
    """Check one analyze call; exit 3 (irreducibility uncertified) is an answer."""
    if rc not in (0, 3):
        return f"exit code {rc}"
    try:
        facts = facts_from_json(output) if as_json else facts_from_text(output)
    except (ValueError, KeyError) as exc:
        return f"unreadable report: {exc}"
    return check_facts(T, facts)


def check_scan_row(row: dict) -> str | None:
    """Re-check one scan row; rows carry no evidence, so it is re-derived."""
    r, m, a, b = (int(row[k]) for k in ("r", "m", "a", "b"))
    kind = row["kind"]
    try:
        T = Trinomial(n=2**r, m=m, a=a, b=b)
    except ValueError:
        return None if kind == "skipped" else f"invalid input reported as {kind}"
    if problem := _check_disc(T, None):
        return problem
    if kind == FIELD_NOT_MONOGENIC:
        p, d = int(row["witness_p"]), int(row["witness_d"])
        try:
            fact = ore.factor_p(T.poly(), p)
        except MalformedInput as exc:
            return f"FieldNotMonogenic but factor_p failed: {exc}"
        shapes = [(f.e, f.f) for f in fact.factors]
        if not fact.regular:
            return f"FieldNotMonogenic without a regular splitting at {p}"
        if problem := _check_splitting(T.n, p, shapes):
            return problem
        count = sum(1 for _, f in shapes if f == d)
        return _check_cid(shapes, p, d, count, count_monic_irreducibles(p, d))
    if kind in ALPHA_KINDS:
        cert = monogenity.check_alpha_generator(T)
        if cert is None or str(cert.p) != row["witness_p"]:
            return f"{kind} row without a matching alpha certificate"
        if (q := alpha_refuter(cert.H, cert.p)) is not None:
            return f"alpha certificate at {cert.p} refuted at q={q}"
    return None


def preflight() -> list[str]:
    """Known-answer facts; the two alpha fixtures are refuted, so left out."""
    failures = []

    def expect(name: str, want, got) -> None:
        if want != got:
            failures.append(f"{name}: expected {want!r}, got {got!r}")

    T = Trinomial(8, 1, 8, 8)
    expect("disc(x^8+8x+8)", 2**24 * 1273609, disc_trinomial(T))
    expect("resultant disc(x^8+8x+8)", 2**24 * 1273609, polyring.discriminant(T.poly()))

    v = monogenity.verdict(Trinomial(8, 1, 12, 3))
    expect("x^8+12x+3 verdict", (FIELD_NOT_MONOGENIC, 2), (v.kind.value, v.p))
    shapes = sorted((f.e, f.f) for f in v.splitting.factors) if v.splitting else None
    expect("x^8+12x+3 shapes at 2", [(1, 1), (3, 1), (4, 1)], shapes)

    v = monogenity.verdict(Trinomial(64, 1, 0, -65))
    expect("x^64-65 verdict", (FIELD_NOT_MONOGENIC, 2), (v.kind.value, v.p))

    fact = ore.factor_p(PolyZ([7, 8] + [0] * 14 + [1]), 2)
    expect("x^16+8x+7 vertices", ((0, 4), (1, 3), (4, 2), (8, 1), (16, 0)),
           fact.evidence[0].polygon.vertices)

    fact = ore.factor_p(PolyZ([8, -2, 1, 1]), 2)
    expect("x^3+x^2-2x+8 shapes at 2", [(1, 1)] * 3, sorted((f.e, f.f) for f in fact.factors))
    return failures
