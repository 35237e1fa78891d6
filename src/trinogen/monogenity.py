"""Monogenity certificates for monic integer trinomials x**n + a*x**m + b.

The analysis pipeline produces one of four typed verdicts, each carrying
machine-checkable evidence:

* ``FieldNotMonogenic``: a prime p is a common index divisor of the field
  K = Q[x]/(F) — more primes of residue degree d above p than F_p has monic
  irreducibles of degree d — so no generator of Z_K exists at all.  The
  congruence screens only predict this; the verdict is emitted only after
  the polygon engine re-derives the splitting at 2 and
  ``common_index_divisor`` confirms the count on it.  Where the polygon
  data at 2 is not regular it can do neither, and the verdict is
  Inconclusive.
* ``PolyNotMonogenicFieldMonogenic``: F itself is not monogenic (its polygon
  index is positive) but an explicit alpha = theta**x / p**y is proved to
  generate Z_K via a p-Eisenstein minimal polynomial, with the stripped
  discriminant certified squarefree.
* ``PolyNotMonogenicFieldConditional``: same alpha construction, but the
  squarefree test on the stripped discriminant was inconclusive.
* ``Inconclusive``: no criterion applied; exact polygon index bounds for
  the small primes with nu_p(disc) >= 2 are attached as partial data.  For
  a certified-irreducible input they cannot change the verdict, so the
  verdict leaves them to the report, which builds the splittings they are
  read from; a scan row builds none.

A verdict is the one record of what was learnt about its trinomial: the
discriminant and every splitting the verdict itself built, each computed
once.  Trial division stops at the fixed bound SF_BOUND = 10**6.

Everything is exact integer arithmetic; nothing is sampled or approximated.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from . import newton, ore
from .newton import MalformedInput
from .exactnum import (
    count_monic_irreducibles,
    dioph_solve,
    factored,
    is_certified_prime,
    perfect_power,
    strip_factored,
    trial_factor,  # noqa: F401 - bench/test_bench.py reaches it through this module
    valp,
)
from .ore import OreFactorization
from .polyring import PolyZ, phi_expand, power_charpoly


class InternalContradiction(RuntimeError):
    """A result the supporting theory guarantees failed to verify.

    This always signals an implementation bug (or an unsound input sneaked
    past a precondition), never a legitimate mathematical outcome, so it is
    an exception rather than a verdict.
    """


# The trial-division bound of every squarefree test, factorization digest
# and candidate-prime search.
SF_BOUND = 10**6


def _sf_bound() -> int:  # bench/checks.py reads the bound through this function
    return SF_BOUND


@dataclass(frozen=True)
class Trinomial:
    """x**n + a*x**m + b with n > m >= 1 and b != 0."""

    n: int
    m: int
    a: int
    b: int

    def __post_init__(self):
        if self.n < 2 or not 1 <= self.m < self.n:
            raise ValueError(f"need n >= 2 and 1 <= m < n, got n={self.n}, m={self.m}")
        if self.b == 0:
            raise ValueError("b must be nonzero")

    @property
    def r(self) -> int | None:
        """r with n = 2**r, or None when n is not a power of two."""
        n = self.n
        if n & (n - 1) == 0:
            return n.bit_length() - 1
        return None

    def poly(self) -> PolyZ:
        coeffs = [0] * (self.n + 1)
        coeffs[0] = self.b
        coeffs[self.m] += self.a
        coeffs[self.n] += 1
        return PolyZ(coeffs)

    def __str__(self) -> str:
        return str(self.poly())


def disc_trinomial(T: Trinomial) -> int:
    """Discriminant of the trinomial, in closed form:

        (-1)^(n*(n-1)/2) * b^(m-1)
            * (n^n1 * b^(n1-m1) - (-1)^m1 * m^m1 * (m-n)^(n1-m1) * a^n1)^d0

    with d0 = gcd(n, m), n1 = n/d0 and m1 = m/d0.  This is the reading of
    the closed form that agrees with the resultant definition (verified
    against polyring.discriminant): the bases of the inner powers are n and
    m themselves, with exponents n1 and m1.
    """
    n, m, a, b = T.n, T.m, T.a, T.b
    d0 = math.gcd(n, m)
    n1, m1 = n // d0, m // d0
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    inner = n**n1 * b ** (n1 - m1) - (-1) ** m1 * m**m1 * (m - n) ** (n1 - m1) * a**n1
    return sign * b ** (m - 1) * inner**d0


class SquarefreeStatus(enum.Enum):
    SQUARE_FREE = "SquareFree"
    NOT_SQUARE_FREE = "NotSquareFree"
    UNKNOWN = "Unknown"


def squarefree_status(t: int) -> SquarefreeStatus:
    """Best-effort squarefree certificate for a nonzero integer.

    Trial division up to SF_BOUND (the factorization is shared through
    ``exactnum.factored``), then a primality test and a perfect-power check
    on the cofactor.  SquareFree is returned only when the factorization
    into distinct primes is fully certified; a probable prime
    above the deterministic-test range yields Unknown, as does an
    unfactored composite cofactor.
    """
    if t == 0:
        raise ValueError("squarefree status of 0 is undefined")
    small, cofactor = factored(t, SF_BOUND)
    if any(e >= 2 for _, e in small):
        return SquarefreeStatus.NOT_SQUARE_FREE
    if cofactor == 1:
        return SquarefreeStatus.SQUARE_FREE
    if is_certified_prime(cofactor):  # a prime is never a perfect power
        return SquarefreeStatus.SQUARE_FREE
    if perfect_power(cofactor) is not None:
        return SquarefreeStatus.NOT_SQUARE_FREE
    return SquarefreeStatus.UNKNOWN


# -- irreducibility certificates -------------------------------------------------


@dataclass(frozen=True)
class IrreducibilityCertificate:
    """Why F is irreducible over Q.

    route = "eisenstein": p divides a and b, p**2 does not divide b.
    route = "one_sided_polygon": the phi = x polygon at p is a single side
    of degree 1 (gcd(n, nu_p(b)) = 1 and n*nu_p(a) > (n-m)*nu_p(b)), which
    forces irreducibility over the p-adic numbers already.
    """

    route: str
    p: int


def _candidate_primes(T: Trinomial) -> list[int]:
    """Primes dividing both a and b (or just b when a = 0), ascending.

    The scan is bounded: primes found by trial division up to SF_BOUND
    plus a fully certified prime cofactor, so very large prime divisors
    beyond the bound may be missed (the verdict then degrades gracefully).
    """
    base = abs(T.b) if T.a == 0 else math.gcd(abs(T.a), abs(T.b))
    if base <= 1:
        return []
    small, cofactor = factored(base, SF_BOUND)
    out = [p for p, _ in small]
    if cofactor > 1 and is_certified_prime(cofactor):
        out.append(cofactor)
    return out


def _one_sided_primes(T: Trinomial) -> list[tuple[int, int]]:
    """The one-sided gate: (p, k = nu_p(b)) at candidate primes, ascending.

    A prime passes where the phi = x polygon of F at p is one side of
    degree 1: gcd(n, k) = 1 and n*nu_p(a) > (n-m)*k, automatic when a = 0.
    Such a polygon makes F irreducible over the p-adic numbers.  Every
    candidate divides a, so k = 1 always passes, and there the gate is
    exactly Eisenstein's criterion.
    """
    n, m, a = T.n, T.m, T.a
    out = []
    for p in _candidate_primes(T):
        k = valp(p, T.b)
        if math.gcd(n, k) == 1 and (a == 0 or n * valp(p, a) > (n - m) * k):
            out.append((p, k))
    return out


def _one_sided_polygon(F: PolyZ, p: int) -> newton.PrincipalPolygon:
    """The phi = x polygon of F at p, rechecked to be one side of degree 1."""
    dev = phi_expand(F, PolyZ((0, 1)), p)
    polygon = newton.principal_polygon(newton.point_cloud(dev))
    if len(polygon.sides) != 1 or polygon.sides[0].d != 1:
        raise InternalContradiction(
            "one-sided degree-1 polygon hypothesis failed recheck"
        )
    return polygon


def irreducibility_certificate(
    T: Trinomial, gate: list[tuple[int, int]] | None = None
) -> IrreducibilityCertificate | None:
    """Certify irreducibility over Q, or return None (never claims reducibility).

    The certificate is the first prime of the one-sided gate
    (``_one_sided_primes``, computed here unless passed in): "eisenstein"
    when nu_p(b) = 1, else "one_sided_polygon".  Either claim is re-verified
    on the actual polynomial before returning.
    """
    if gate is None:
        gate = _one_sided_primes(T)
    if not gate:
        return None
    p, k = gate[0]
    F = T.poly()
    if k == 1:
        if not _is_eisenstein(F, p):  # pragma: no cover - direct check
            raise InternalContradiction("Eisenstein conditions failed recheck")
        return IrreducibilityCertificate(route="eisenstein", p=p)
    _one_sided_polygon(F, p)
    return IrreducibilityCertificate(route="one_sided_polygon", p=p)


def _is_eisenstein(F: PolyZ, p: int) -> bool:
    if not F.is_monic() or F.degree < 1:
        return False
    if valp(p, F[0]) != 1:
        return False
    return all(F[i] % p == 0 for i in range(1, F.degree))


# -- the alpha = theta**x / p**y generator construction ---------------------------


@dataclass(frozen=True)
class AlphaCert:
    """Certificate that alpha = theta**x / p**y generates the ring of integers.

    H is the exact minimal polynomial of alpha over Q: the characteristic
    polynomial of theta**x with its coefficients rescaled by powers of p.
    H is p-Eisenstein, or no certificate is built; that proves H irreducible
    (hence minimal) and nu_p-integrality at once.
    ``deltap_status`` is the squarefree status of disc(F) with its p-part
    removed; SquareFree upgrades the verdict to an unconditional one.
    """

    p: int
    k: int
    x: int
    y: int
    H: PolyZ
    deltap_status: SquarefreeStatus


def _build_alpha_cert(T: Trinomial, p: int, k: int, disc: int) -> AlphaCert:
    n = T.n
    F = T.poly()

    # The one-sided polygon's lattice index must be (n-1)(k-1)/2 >= 1;
    # verified, not assumed.
    polygon = _one_sided_polygon(F, p)
    expected = (n - 1) * (k - 1) // 2
    if newton.phi_index(polygon, 1) != expected or expected < 1:
        raise InternalContradiction("alpha-generator polygon index failed recheck")

    x, y = dioph_solve(k, n)
    G = power_charpoly(F, x)
    coeffs = []
    for i, c in enumerate(G.coeffs):
        scale = p ** (y * (n - i))
        q, rem = divmod(c, scale)
        if rem:
            raise InternalContradiction(
                "alpha minimal-polynomial rescaling was not integral"
            )
        coeffs.append(q)
    H = PolyZ(coeffs)
    if H.degree != n or not H.is_monic():
        raise InternalContradiction("alpha minimal polynomial has wrong shape")
    if not _is_eisenstein(H, p):
        raise InternalContradiction("alpha minimal polynomial is not p-Eisenstein")
    status = squarefree_status(strip_factored(p, disc, SF_BOUND).unit_part)
    return AlphaCert(p=p, k=k, x=x, y=y, H=H, deltap_status=status)


def check_alpha_generator(
    T: Trinomial,
    gate: list[tuple[int, int]] | None = None,
    disc: int | None = None,
) -> AlphaCert | None:
    """Find a prime p where alpha = theta**x / p**y provably generates Z_K.

    The primes tried are those of the one-sided gate (``_one_sided_primes``)
    with k = nu_p(b) >= 2, in increasing order; at k = 1, F itself is
    p-Eisenstein.  The first whose stripped discriminant is certified
    squarefree wins; failing that, the first with an Unknown status.  A
    prime whose stripped discriminant has a square factor certifies nothing,
    so where every prime is such, the answer is None.
    ``verdict`` passes in the gate and the discriminant it already holds;
    whatever is omitted is computed here.
    """
    if gate is None:
        gate = _one_sided_primes(T)
    gate = [(p, k) for p, k in gate if k >= 2]
    if not gate:
        return None
    if disc is None:
        disc = disc_trinomial(T)
    if disc == 0:
        return None
    unknown: AlphaCert | None = None
    for p, k in gate:
        cert = _build_alpha_cert(T, p, k, disc)
        if cert.deltap_status is SquarefreeStatus.SQUARE_FREE:
            return cert
        if unknown is None and cert.deltap_status is SquarefreeStatus.UNKNOWN:
            unknown = cert
    return unknown


# -- congruence obstructions for n = 2**r, m = 1 ----------------------------------


def check_congruence_obstruction(r: int, a: int, b: int) -> int | None:
    """Screen x**(2**r) + a*x + b for a mod-2 common-index-divisor pattern.

    Three mutually exclusive residue patterns force (when F is irreducible)
    at least three primes of residue degree 1 above 2, which exceeds the
    two monic linear polynomials over F_2.  Returns the matched modulus (8,
    16 or 32), or None.  This is only the prediction; callers must confirm
    it with the polygon engine before emitting a field-level verdict.
    """
    if r >= 3 and a % 8 == 4 and b % 8 == 3:
        return 8
    if r >= 4 and a % 16 == 8 and b % 16 == 7:
        return 16
    if r >= 4 and (a % 32, b % 32) in {(0, 31), (16, 15)}:
        return 32
    return None


# -- common index divisors ---------------------------------------------------------


def common_index_divisor(fact: OreFactorization) -> tuple[int, int, int] | None:
    """Does p divide the index of every generator of the field?

    Compares, for each residue degree d, the number P_d of primes above p
    with f = d against the number of monic irreducible degree-d polynomials
    over F_p.  Pigeonhole: a generator's minimal polynomial mod p needs P_d
    distinct such factors.  Returns (d, P_d, irreducibles of degree d) for
    the least offending d, or None.
    """
    if not fact.regular:
        raise ValueError("common index divisor needs a complete (regular) splitting")
    counts: dict[int, int] = {}
    for factor in fact.factors:
        counts[factor.f] = counts.get(factor.f, 0) + 1
    for d in sorted(counts):
        available = count_monic_irreducibles(fact.p, d)
        if counts[d] > available:
            return d, counts[d], available
    return None


# -- the verdict pipeline ----------------------------------------------------------


class VerdictKind(enum.Enum):
    FIELD_NOT_MONOGENIC = "FieldNotMonogenic"
    POLY_NOT_MONOGENIC_FIELD_MONOGENIC = "PolyNotMonogenicFieldMonogenic"
    POLY_NOT_MONOGENIC_FIELD_CONDITIONAL = "PolyNotMonogenicFieldConditional"
    INCONCLUSIVE = "Inconclusive"


class MonogenityVerdict(NamedTuple):
    """Typed outcome with every piece of evidence needed to re-check it.

    It is also the one record of what the verdict computed about its
    trinomial, so a report reads these facts instead of computing them
    again: ``disc`` is disc(F).  ``splittings`` maps each prime at which
    the verdict built the splitting to ``ore.factor_p``'s result, or to the
    message of the ``MalformedInput`` it raised.  Those primes are 2 for a
    congruence screen, and ``square_primes`` too when irreducibility is
    only assumed and no criterion applied.  ``congruence`` is the modulus
    the screen matched; a FieldNotMonogenic verdict's counts are
    ``common_index_divisor(splitting)``.  An Inconclusive verdict past the
    irreducibility stage has its index bounds read at ``square_primes``;
    for a certified input the report builds them.
    """

    trinomial: Trinomial
    kind: VerdictKind
    irreducibility: IrreducibilityCertificate | None
    irreducibility_assumed: bool
    trail: tuple[str, ...]
    disc: int
    splittings: dict[int, OreFactorization | str]
    p: int | None = None
    alpha: AlphaCert | None = None
    congruence: int | None = None
    splitting: OreFactorization | None = None
    reason: str | None = None


def square_primes(disc: int) -> list[int]:
    """The primes p below SF_BOUND with p**2 | disc, ascending; none when
    disc = 0.  A report's evidence and index bounds are read at these."""
    if disc == 0:
        return []
    small, _ = factored(disc, SF_BOUND)
    return [p for p, e in small if e >= 2]


def _splitting(F: PolyZ, p: int) -> OreFactorization | str:
    """``ore.factor_p(F, p)``, or the message of the ``MalformedInput`` it
    raised: a rational factor found on the way is evidence, not a crash."""
    try:
        return ore.factor_p(F, p)
    except MalformedInput as exc:
        return str(exc)


def verdict(
    T: Trinomial, assume_irreducible: bool = False, *, disc: int | None = None
) -> MonogenityVerdict:
    """Run the full certificate pipeline on one trinomial.

    Congruence screens are confirmed by the polygon engine before any
    field-level claim, and one it cannot confirm, for want of a 2-regular
    splitting, ends Inconclusive; the alpha construction downgrades to a
    conditional verdict when the squarefree test is inconclusive; everything
    else falls through to Inconclusive with partial index data attached.  When
    irreducibility is only assumed, the splittings behind the index bounds
    are built here, since a rational factor found on the way contradicts
    the assumption.  A certified input's bounds cannot change the verdict,
    so they are left to the report.

    The discriminant and the one-sided gate are each computed once and
    handed to the criteria.  ``disc`` is for a caller that already computed
    ``disc_trinomial(T)``.
    """
    if disc is None:
        disc = disc_trinomial(T)
    trail: list[str] = []
    splittings: dict[int, OreFactorization | str] = {}
    irr: IrreducibilityCertificate | None = None

    def result(kind: VerdictKind, **evidence) -> MonogenityVerdict:
        return MonogenityVerdict(
            trinomial=T,
            kind=kind,
            irreducibility=irr,
            irreducibility_assumed=assume_irreducible and irr is None,
            trail=tuple(trail),
            disc=disc,
            splittings=splittings,
            **evidence,
        )

    if disc == 0:
        trail.append("zero-discriminant")
        return result(
            VerdictKind.INCONCLUSIVE,
            reason="discriminant is zero: the trinomial has repeated roots",
        )
    gate = _one_sided_primes(T)
    irr = irreducibility_certificate(T, gate)
    if irr is not None:
        trail.append(f"irreducible({irr.route}, p={irr.p})")
    elif assume_irreducible:
        trail.append("irreducible(assumed)")
    else:
        trail.append("irreducibility-not-certified")
        return result(
            VerdictKind.INCONCLUSIVE,
            reason="irreducibility could not be certified; "
            "rerun with the assume-irreducible flag to proceed anyway",
        )

    r = T.r
    modulus = None
    if r is not None and T.m == 1:
        modulus = check_congruence_obstruction(r, T.a, T.b)
    reason = "no implemented criterion covers this trinomial"
    problem = None
    if modulus is not None:
        trail.append(f"congruence-screen(mod{modulus})")
        fact = splittings[2] = _splitting(T.poly(), 2)
        if isinstance(fact, str):
            problem = fact
        elif not fact.regular:
            # The polygons at 2 neither confirm nor refute the prediction.
            trail.append("screen-unconfirmed(p=2, not regular)")
            reason = (
                f"congruence pattern mod{modulus} matched, but the polygon "
                "data at 2 is not regular, so 2 is not confirmed as a common index "
                f"divisor; the order-1 index lower bound at 2 is {fact.index_lower_bound}"
            )
        elif (cid := common_index_divisor(fact)) is None:
            problem = "no common index divisor was found at 2"
        else:
            d, count, available = cid
            trail.append(f"common-index-divisor(p=2, d={d}, primes={count} > {available})")
            return result(
                VerdictKind.FIELD_NOT_MONOGENIC, p=2, congruence=modulus, splitting=fact
            )
        # A certified-irreducible input failing engine confirmation means the
        # code is wrong; a merely assumed one means the assumption was wrong,
        # which is the user's honest answer.
        if problem is not None and irr is not None:
            raise InternalContradiction(f"congruence screen matched but {problem}")
    else:
        alpha = check_alpha_generator(T, gate, disc)
        if alpha is not None:
            trail.append(f"alpha-generator(p={alpha.p}, x={alpha.x}, y={alpha.y})")
            if alpha.deltap_status is SquarefreeStatus.SQUARE_FREE:
                kind = VerdictKind.POLY_NOT_MONOGENIC_FIELD_MONOGENIC
                trail.append(f"stripped-discriminant-squarefree(p={alpha.p})")
            else:
                kind = VerdictKind.POLY_NOT_MONOGENIC_FIELD_CONDITIONAL
                trail.append(f"stripped-discriminant-unresolved(p={alpha.p})")
            return result(kind, p=alpha.p, alpha=alpha)

    if irr is None:
        F = T.poly()
        for p in square_primes(disc):
            if p not in splittings:
                splittings[p] = _splitting(F, p)
        errors = [s for s in splittings.values() if isinstance(s, str)]
        problem = problem or (errors[-1] if errors else None)
    if problem is not None:
        trail.append("assumption-contradicted")
        reason = "irreducibility was assumed but could not hold: " + problem
    elif modulus is None:
        trail.append("no-criterion-applied")
    return result(VerdictKind.INCONCLUSIVE, congruence=modulus, reason=reason)
