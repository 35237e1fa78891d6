"""Factorization of polynomials over finite fields.

Cantor-Zassenhaus with the usual three stages: squarefree decomposition
(with p-th-root recursion in characteristic p), distinct-degree splitting,
and randomized equal-degree splitting.  Randomness is drawn from a seeded
``random.Random`` so runs are reproducible, and the returned factorization
is sorted canonically, so the output is identical for every seed.
``factor`` remembers its most recent results (see FACTORIZATIONS).

Also provides Rabin's irreducibility test and a separability check; both
are deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .exactnum import Memo, trial_factor
from .polyring import FqField, FqPoly


def is_separable(f: FqPoly) -> bool:
    """True when f has no repeated roots in any extension (gcd(f, f') = 1)."""
    if f.is_zero():
        raise ValueError("separability of the zero polynomial is undefined")
    if f.degree == 0:
        return True
    return f.gcd(f.derivative()).degree == 0


def is_irreducible(f: FqPoly) -> bool:
    """Rabin's test: x**(q**n) == x mod f and gcd(x**(q**(n/t)) - x, f) = 1."""
    if f.is_zero():
        return False
    n = f.degree
    if n == 0:
        return False
    f = f.monic()
    if n == 1:
        return True
    field = f.field
    q = field.order
    x = field.poly([0, 1])
    for t, _ in trial_factor(n, n + 1)[0]:
        h = x.pow_mod(q ** (n // t), f) - x
        if h.is_zero() or f.gcd(h).degree != 0:
            return False
    return x.pow_mod(q**n, f) == x % f


@dataclass(frozen=True)
class FqFactorization:
    """factors are (monic irreducible, multiplicity), canonically sorted.

    ``unit`` is the leading coefficient of the input, so the input equals
    unit * prod(g**m for g, m in factors).
    """

    field: FqField
    unit: int | tuple[int, ...]
    factors: tuple[tuple[FqPoly, int], ...]

    def product(self) -> FqPoly:
        out = self.field.poly([self.unit])
        for g, m in self.factors:
            out = out * g**m
        return out


def _pth_root(f: FqPoly) -> FqPoly:
    """p-th root of a polynomial that is a p-th power (only x**(p*i) terms)."""
    field = f.field
    p = field.p
    root_exp = p ** (field.deg - 1)  # Frobenius inverse on elements
    out = []
    for i in range(0, f.degree + 1, p):
        out.append(field.pow(f[i], root_exp))
    for i in range(f.degree + 1):
        if i % p and f[i] != field.zero:  # pragma: no cover - caller guarantees p-th power
            raise ArithmeticError("polynomial is not a p-th power")
    return FqPoly(field, out)


def _squarefree_parts(f: FqPoly) -> list[tuple[FqPoly, int]]:
    """[(g, m)] with f = prod g**m, each g monic squarefree, m distinct."""
    p = f.field.p
    out: dict[FqPoly, int] = {}
    f = f.monic()
    deriv = f.derivative()
    c = f if deriv.is_zero() else f.gcd(deriv)
    w = (f // c).monic()
    i = 1
    while w.degree > 0:
        y = w.gcd(c)
        part = (w // y).monic()
        if part.degree > 0:
            out[part] = out.get(part, 0) + i
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        for g, m in _squarefree_parts(_pth_root(c)):
            out[g] = out.get(g, 0) + m * p
    return sorted(out.items(), key=lambda gm: gm[0].sort_key())


def _distinct_degree(f: FqPoly) -> list[tuple[FqPoly, int]]:
    """[(g, d)]: g collects all irreducible factors of degree d of squarefree f."""
    field = f.field
    q = field.order
    x = field.poly([0, 1])
    out = []
    h = x
    d = 0
    rest = f.monic()
    while rest.degree >= 2 * (d + 1):
        d += 1
        h = h.pow_mod(q, rest)
        g = rest.gcd(h - x)
        if g.degree > 0:
            out.append((g, d))
            rest = (rest // g).monic()
            if rest.degree > 0:
                h = h % rest
    if rest.degree > 0:
        out.append((rest, rest.degree))
    return out


def _random_poly(field: FqField, max_deg: int, rng: random.Random) -> FqPoly:
    deg = rng.randrange(1, max_deg + 1)
    coeffs = [field.from_int(rng.randrange(field.order)) for _ in range(deg)]
    coeffs.append(field.from_int(rng.randrange(1, field.order)))
    return FqPoly(field, coeffs)


def _equal_degree(f: FqPoly, d: int, rng: random.Random) -> list[FqPoly]:
    """Split squarefree f whose irreducible factors all have degree d."""
    if f.degree == d:
        return [f.monic()]
    field = f.field
    q = field.order
    one = field.poly([1])
    while True:
        u = _random_poly(field, f.degree - 1, rng)
        if q % 2 == 1:
            w = u.pow_mod((q**d - 1) // 2, f) - one
        else:
            # trace map for characteristic 2: sum of u**(2**i) over the F_2-degree
            k = field.deg * d
            acc = u % f
            term = u % f
            for _ in range(k - 1):
                term = (term * term) % f
                acc = acc + term
            w = acc
        if w.is_zero():
            continue
        g = f.gcd(w)
        if 0 < g.degree < f.degree:
            return _equal_degree(g, d, rng) + _equal_degree((f // g).monic(), d, rng)


# Factorizations keyed by the input FqPoly, whose hash and equality cover the
# field (p and modulus) and the coefficients.  A scan factors the same few
# residual and mod-p polynomials over and over; one box of 2178 rows asks
# 4594 times about 183 distinct inputs.
FACTORIZATIONS = Memo(256)


def factor(f: FqPoly, seed: int = 0) -> FqFactorization:
    """Full factorization into monic irreducibles with multiplicities.

    The seed only steers the internal random splitting; the result is the
    same canonical factorization for every seed.  So the result is shared
    through FACTORIZATIONS, keyed by ``f`` alone, whatever seed computed it.
    """
    hit = FACTORIZATIONS.get(f)
    if hit is None:
        hit = FACTORIZATIONS.put(f, _factor(f, seed))
    return hit


def _factor(f: FqPoly, seed: int) -> FqFactorization:
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    field = f.field
    unit = f.leading
    if f.degree == 0:
        return FqFactorization(field=field, unit=unit, factors=())
    rng = random.Random(seed)
    work = f.monic()
    found: list[tuple[FqPoly, int]] = []
    # Mod a prime dividing b, a trinomial is x^m * (x^(n-m) + a) or x^n, and
    # the squarefree loop would run once per power of x.  x is monic and
    # irreducible and does not divide what is left, so it is split off here.
    v = 0
    while work.coeffs[v] == field.zero:
        v += 1
    if v:
        found.append((field.poly([0, 1]), v))
        work = FqPoly(field, work.coeffs[v:])
    if work.degree > 0:
        for part, mult in _squarefree_parts(work):
            for bunch, d in _distinct_degree(part):
                for irr in _equal_degree(bunch, d, rng):
                    found.append((irr, mult))
    found.sort(key=lambda gm: gm[0].sort_key())
    result = FqFactorization(field=field, unit=unit, factors=tuple(found))
    if result.product() != f:  # internal consistency guard
        raise ArithmeticError("factorization failed to reconstruct its input")
    return result
