"""The benchmark's workloads and their seeded input generators.

Every generator draws from ``random.Random(f"{workload}:{seed}")``, so the
same seed always yields the same stream of ``(n, m, a, b)`` inputs, and the
program under test sees only those inputs.  The scan workloads run one fixed
parameter box and take no seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

SCAN_ARGV = (
    "scan", "--r-range", "3:4", "--a-range", "-16:16", "--b-range", "-16:16",
    "--m", "1", "--format", "jsonl", "--out", "-",
)
SCAN_ROWS = 2 * 33 * 33

WARMUP_ARGV = ("analyze", "--n", "3", "--m", "1", "--a", "2", "--b", "2")


@dataclass(frozen=True)
class Item:
    """One analyze request: x^n + a*x^m + b, reported as JSON or as text."""

    n: int
    m: int
    a: int
    b: int
    as_json: bool

    def argv(self) -> list[str]:
        out = ["analyze", "--n", str(self.n), "--m", str(self.m),
               "--a", str(self.a), "--b", str(self.b)]
        if self.as_json:
            out.append("--json")
        return out


def _sign(rng: random.Random) -> int:
    return rng.choice((-1, 1))


def _coprime_unit(rng: random.Random, p: int, hi: int) -> int:
    while True:
        u = rng.randint(1, hi)
        if u % p:
            return u


def bigcoef_item(rng: random.Random, i: int) -> Item:
    """n cycles through 3..12; a, b = +-p^e * u with p in {2,3,5,7}, e <= 8, |u| < 10^9."""
    n = 3 + i % 10
    m = rng.randint(1, n - 1)
    p = rng.choice((2, 3, 5, 7))
    a = _sign(rng) * p ** rng.randint(0, 8) * rng.randrange(1, 10**9)
    b = _sign(rng) * p ** rng.randint(0, 8) * rng.randrange(1, 10**9)
    return Item(n, m, a, b, as_json=i % 2 == 0)


# The congruence patterns (modulus, a residue, b residue) that predict a
# common index divisor at 2 for x^(2^r) + a*x + b.
_PATTERNS = ((8, 4, 3), (16, 8, 7), (32, 0, 31), (32, 16, 15))

# Degrees cycle in a fixed scattered order, so every seed gets the same
# degree mix and so does every batch of a few dozen items; the seed draws the
# coefficients.
_HIGH = tuple(range(16, 49))
_ALPHA_DEGREES = tuple(n for n in _HIGH if n % 6)  # k = 2 or 3 coprime to n
_STRIDE = 7  # coprime to len(_HIGH) and len(_ALPHA_DEGREES)


def _scattered(degrees: tuple[int, ...], j: int) -> int:
    return degrees[(j * _STRIDE) % len(degrees)]


_MID_PRIMES = tuple(q for q in range(11, 10**4) if all(q % d for d in range(2, math.isqrt(q) + 1)))


def discriminant(n: int, m: int, a: int, b: int) -> int:
    """Closed form of disc(x^n + a*x^m + b).

    Written out here so that the inputs do not depend on the code measured.
    """
    d0 = math.gcd(n, m)
    n1, m1 = n // d0, m // d0
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    inner = n**n1 * b ** (n1 - m1) - (-1) ** m1 * m**m1 * (m - n) ** (n1 - m1) * a**n1
    return sign * b ** (m - 1) * inner**d0


def small_evidence_primes(n: int, m: int, a: int, b: int) -> bool:
    """No prime 11 <= q < 10^4 has q^2 | disc.

    A report factors F mod every prime whose square divides the
    discriminant.  For n >= 40 and such a q that one factorization takes
    seconds, and about one draw in fifteen has one, so a few draws would
    decide a run's throughput.  Above 10^4 such primes are too rare to matter.
    """
    d = discriminant(n, m, a, b)
    return d != 0 and all(d % (q * q) for q in _MID_PRIMES)


def _design_m(n: int, j: int) -> int:
    """The middle exponent of the j-th draw of degree n: coprime to n.

    When d0 = gcd(n, m) > 1 the discriminant carries the d0-th power of a
    large random factor, so random primes up to the squarefree bound become
    evidence primes and a single report can take many seconds.  m runs over
    the residues coprime to n in a fixed scattered order, the same for every
    seed, because the cost of a report depends on m far more than on a and b.
    """
    coprime = [m for m in range(1, n) if math.gcd(n, m) == 1]
    return coprime[(j * 7919) % len(coprime)]


def _pattern_item(rng: random.Random, j: int, as_json: bool) -> Item:
    """n = 2^r for r = 4..6, m = 1, a mod-8/16/32 pattern, Eisenstein at q <= 7.

    With q | a and q || b the irreducibility certificate exists, so the
    pipeline reaches the FieldNotMonogenic confirmation by factor_p at 2.
    """
    n = 2 ** (4 + j % 3)
    while True:
        q = rng.choice((3, 5, 7))
        mod, ar, br = rng.choice(_PATTERNS)
        qinv = pow(q, -1, mod)
        a = q * ((ar * qinv) % mod + mod * rng.randint(0, 3))
        v = (br * qinv) % mod + mod * rng.randint(0, 3)
        if v % q and small_evidence_primes(n, 1, a, q * v):
            return Item(n, 1, a, q * v, as_json)


def _alpha_item(rng: random.Random, j: int, as_json: bool) -> Item:
    """p^k || b with k >= 2 coprime to n and p^k | a: the alpha hypotheses."""
    n = _scattered(_ALPHA_DEGREES, j)
    m = _design_m(n, j)
    p = (2, 3, 5)[j % 3]
    ks = [k for k in (2, 3) if math.gcd(n, k) == 1]
    k = ks[j // 3 % len(ks)]
    while True:
        b = _sign(rng) * p**k * _coprime_unit(rng, p, 30)
        a = _sign(rng) * p ** (k + rng.randint(0, 1)) * rng.randint(1, 9)
        if small_evidence_primes(n, m, a, b):
            return Item(n, m, a, b, as_json)


def _random_m_item(rng: random.Random, j: int, as_json: bool) -> Item:
    n = _scattered(_HIGH, j)
    m = _design_m(n, j)
    while True:
        a, b = rng.randint(-99, 99), _sign(rng) * rng.randint(1, 99)
        if small_evidence_primes(n, m, a, b):
            return Item(n, m, a, b, as_json)


_HIGHDEG_KINDS = (_pattern_item, _alpha_item, _random_m_item)


def highdeg_item(rng: random.Random, i: int) -> Item:
    """The three input kinds in rotation, so every run has the same mix."""
    j, kind = divmod(i, len(_HIGHDEG_KINDS))
    return _HIGHDEG_KINDS[kind](rng, j, as_json=i % 2 == 0)


def item_stream(workload: str, seed: int) -> Iterator[Item]:
    make = WORKLOADS[workload].item
    rng = random.Random(f"{workload}:{seed}")
    i = 0
    while True:
        yield make(rng, i)
        i += 1


# Layers that must record calls on each workload's traced run; a zero means
# the tracer lost a binding or the workload stopped exercising the layer.
_ENGINE_LAYERS = (
    "exactnum.trial_factor", "exactnum.is_probable_prime",
    "polyring.reduce_mod", "polyring.phi_expand", "newton.principal_polygon",
    "newton.residual_poly", "ffactor.factor", "ffactor.is_separable",
    "ore.factor_p", "monogenity.verdict", "monogenity.irreducibility_certificate",
    "monogenity.check_alpha_generator", "monogenity.squarefree_status",
)
_SCAN_LAYERS = _ENGINE_LAYERS + ("polyring.power_charpoly", "cli.cmd_scan")
_ANALYZE_LAYERS = _ENGINE_LAYERS + ("cli.build_report", "cli.render_text")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: int = 0  # scan workers; 0 marks an analyze workload
    item: Callable[[random.Random, int], Item] | None = None
    digest_items: int = 0  # analyze items covered by the digest and traced run
    batch_items: int = 0  # distinct analyze items an untraced run cycles through
    tail_pct: float = 99.0
    expected_layers: tuple[str, ...] = ()

    @property
    def is_scan(self) -> bool:
        return self.jobs > 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scan-box",
            "the ROADMAP baseline box, 2178 cheap rows, 74% skipped; F_2 "
            "factoring of degree <= 16 and trial division dominate",
            jobs=1,
            expected_layers=_SCAN_LAYERS,
        ),
        Workload(
            "scan-box-jobs2",
            "the same box on a 2-worker pool: the only workload that runs the "
            "pool, its chunking and ordered output",
            jobs=2,
            expected_layers=_SCAN_LAYERS,
        ),
        Workload(
            "analyze-bigcoef",
            "closed-loop reports for n <= 12 with huge coefficients: trial "
            "division of large discriminants dominates",
            item=bigcoef_item,
            digest_items=40,
            batch_items=80,
            tail_pct=90.0,
            expected_layers=_ANALYZE_LAYERS,
        ),
        Workload(
            "analyze-highdeg",
            "closed-loop reports for n in 16..64: factoring high-degree "
            "polynomials over small F_p and F_p^k, and power_charpoly",
            item=highdeg_item,
            digest_items=30,
            batch_items=100,
            tail_pct=90.0,
            expected_layers=_ANALYZE_LAYERS + ("polyring.power_charpoly",),
        ),
    )
}
