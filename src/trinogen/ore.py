"""Prime-ideal shape data and index bounds from Newton polygons.

For a monic irreducible F and a prime p, every monic irreducible factor
phi of F mod p contributes its polygon's lattice-point index to a lower
bound on nu_p([Z_K : Z[theta]]).  When every residual polynomial of every
side is separable (the p-regular case) the bound is exact and the polygon
data determines the complete splitting of p: one prime ideal per
irreducible factor of each residual polynomial, with ramification index e
from the side's slope and residue degree deg(phi) * deg(residual factor).

The polygons alone give the bound (Ore's theorem of the index); the
residual polynomials decide whether it is exact and how p splits.
``polygon_index`` computes only the former, and a class mod p^k it is constant on.

Results are canonical: factors of F mod p arrive in the factorization
module's sort order, sides in slope order, residual factors again in sort
order, so repeated runs produce identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ffactor, newton
from .exactnum import INFINITY, is_probable_prime
from .ffactor import FqFactorization
from .newton import MalformedInput, PrincipalPolygon, Side
from .polyring import FqPoly, PolyZ, phi_expand, reduce_mod


@dataclass(frozen=True)
class PrimeIdealFactor:
    """One prime of Z_K above p, labeled by its derivation path.

    ``label`` is (phi index, side index, residual-factor index); the last
    two are None for factors read off directly from a multiplicity-one phi.
    """

    label: tuple[int, int | None, int | None]
    e: int
    f: int


@dataclass(frozen=True)
class SideData:
    """Evidence for one side: its residual polynomial and factorization."""

    side: Side
    residual: FqPoly
    separable: bool
    factorization: FqFactorization


@dataclass(frozen=True)
class PhiData:
    """Evidence for one mod-p irreducible factor phi of F.

    ``polygon`` is None when multiplicity is 1 and the polygon was skipped;
    the prime ideal (e=1, f=deg phi) is then immediate.
    """

    phi: PolyZ
    multiplicity: int
    index: int
    polygon: PrincipalPolygon | None
    sides: tuple[SideData, ...]


@dataclass(frozen=True)
class OreFactorization:
    """Outcome of the polygon method at p.

    When ``regular`` is false the method cannot certify the splitting, so
    ``factors`` is empty, but ``index_lower_bound`` and the full evidence
    remain valid.
    """

    p: int
    regular: bool
    index_lower_bound: int
    factors: tuple[PrimeIdealFactor, ...]
    evidence: tuple[PhiData, ...]


def _factors_mod_p(F: PolyZ, p: int):
    """The (factor, multiplicity) pairs of F mod p, after factor_p's checks."""
    if not F.is_monic() or F.degree < 1:
        raise MalformedInput("factor_p requires a monic polynomial of degree >= 1")
    if not is_probable_prime(p):
        raise MalformedInput(f"modulus {p} is not prime")
    fbar = reduce_mod(F, p)
    if fbar.is_zero():  # pragma: no cover - impossible for monic F
        raise MalformedInput("polynomial vanishes mod p")
    return ffactor.factor(fbar).factors


def _polygon_stage(F: PolyZ, p: int, phibar, multiplicity: int):
    """(phi, phi-adic development, principal polygon, polygon index) for a
    factor phibar of F mod p of multiplicity above 1."""
    phi = newton.lift_balanced(phibar)
    dev = phi_expand(F, phi, p)
    if dev.vals[0] is INFINITY:
        # F = phi * (...) exactly over Z, so F is reducible and the caller
        # broke the irreducibility precondition in a detectable way.
        raise MalformedInput(f"input is divisible by {phi}, hence reducible")
    polygon = newton.principal_polygon(newton.point_cloud(dev))
    if polygon.length != multiplicity:  # pragma: no cover - internal cross-check
        raise ArithmeticError("polygon length disagrees with mod-p multiplicity")
    return phi, dev, polygon, newton.phi_index(polygon, phi.degree)


def _analyze_factor(F: PolyZ, p: int, phibar, multiplicity: int) -> PhiData:
    if multiplicity == 1:
        phi = newton.lift_balanced(phibar)
        return PhiData(phi=phi, multiplicity=1, index=0, polygon=None, sides=())
    phi, dev, polygon, ind = _polygon_stage(F, p, phibar, multiplicity)
    # The residual stage: each side's residual polynomial and its factors.
    sides = []
    for j in range(len(polygon.sides)):
        res = newton.residual_poly(dev, polygon, j)
        sides.append(
            SideData(
                side=polygon.sides[j],
                residual=res,
                separable=ffactor.is_separable(res),
                factorization=ffactor.factor(res),
            )
        )
    return PhiData(
        phi=phi, multiplicity=multiplicity, index=ind, polygon=polygon, sides=tuple(sides)
    )


def factor_p(F: PolyZ, p: int) -> OreFactorization:
    """Polygon analysis of the prime p for a monic irreducible F.

    The caller is responsible for irreducibility of F over Q; the shape
    data is meaningful only under that hypothesis.
    """
    data = [_analyze_factor(F, p, phibar, mult) for phibar, mult in _factors_mod_p(F, p)]
    regular = all(sd.separable for pd in data for sd in pd.sides)
    bound = sum(pd.index for pd in data)
    factors: list[PrimeIdealFactor] = []
    if regular:
        for i, pd in enumerate(data):
            if pd.multiplicity == 1:
                factors.append(
                    PrimeIdealFactor(label=(i, None, None), e=1, f=pd.phi.degree)
                )
                continue
            for j, sd in enumerate(pd.sides):
                for s, (psi, psi_mult) in enumerate(sd.factorization.factors):
                    if psi_mult != 1:  # pragma: no cover - separable residual
                        raise ArithmeticError("repeated factor in separable residual")
                    factors.append(
                        PrimeIdealFactor(
                            label=(i, j, s), e=sd.side.e, f=pd.phi.degree * psi.degree
                        )
                    )
        total = sum(fac.e * fac.f for fac in factors)
        if total != F.degree:
            raise ArithmeticError(
                f"prime shapes at p={p} sum to {total}, expected degree {F.degree}"
            )
    return OreFactorization(
        p=p,
        regular=regular,
        index_lower_bound=bound,
        factors=tuple(factors),
        evidence=tuple(data),
    )


def index_bound(F: PolyZ, p: int) -> tuple[int, bool]:
    """(sum of polygon indices at p, whether the bound is exact).

    The bound is exact precisely when F is p-regular.
    """
    result = factor_p(F, p)
    return result.index_lower_bound, result.regular


def polygon_index(F: PolyZ, p: int) -> tuple[int, int]:
    """(``factor_p(F, p).index_lower_bound``, k), read from the polygons alone.

    The index is Ore's sum of ind_phi(F) over the factors phi of F mod p; no
    residual polynomial is built.  k = 1 + max v_p(a_0(phi)) over the repeated
    factors phi, a_0 being term 0 of the phi-adic development (k = 1 when F mod
    p is squarefree).  Lemma: every F + p^k * G, G in Z[x] with deg G < deg F,
    has the same index and raises nothing.  F mod p, its factors and their
    lifts are unchanged, and each term moves by a multiple of p^k: one of
    valuation below k (a_0 among them) keeps it, and one of valuation k or
    more lies strictly above the polygon, which starts at (0, v_p(a_0) < k)
    and falls.  Raises the ``MalformedInput`` that ``factor_p`` would raise.
    """
    index, k = 0, 1
    for phibar, mult in _factors_mod_p(F, p):
        if mult > 1:
            _, dev, _, ind = _polygon_stage(F, p, phibar, mult)
            index += ind
            k = max(k, dev.vals[0] + 1)
    return index, k
