"""Shared test helpers: seeded generators and independent oracles.

Oracles here are deliberately written against third-party code (sympy) or
from-scratch brute force so they share no logic with the package under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from trinogen.cli import KNOWN_ANSWERS
from trinogen.monogenity import Trinomial
from trinogen.polyring import PolyZ


def known_answer(fixture: str, check: str):
    """The expected value of one ``trinogen verify`` row, so a test that
    builds the same fact another way compares it with the table's answer
    instead of writing the answer again."""
    (expected,) = [e for f, c, e, _ in KNOWN_ANSWERS if (f, c) == (fixture, check)]
    return expected


def random_trinomial(rng: random.Random, max_n: int = 64) -> Trinomial:
    """A random valid trinomial x^n + a*x^m + b with n <= max_n."""
    while True:
        n = rng.randint(2, max_n)
        m = rng.randint(1, n - 1)
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        if b != 0:
            return Trinomial(n=n, m=m, a=a, b=b)


def trinomial_polyz(n: int, m: int, a: int, b: int) -> PolyZ:
    """x^n + a*x^m + b as a PolyZ; unlike Trinomial, b = 0 is allowed."""
    coeffs = [0] * (n + 1)
    coeffs[0] = b
    coeffs[m] += a
    coeffs[n] += 1
    return PolyZ(coeffs)


def random_polyz(rng: random.Random, max_deg: int = 8, span: int = 30) -> PolyZ:
    """A random nonzero integer polynomial."""
    while True:
        deg = rng.randint(0, max_deg)
        coeffs = [rng.randint(-span, span) for _ in range(deg + 1)]
        f = PolyZ(coeffs)
        if not f.is_zero():
            return f


def random_monic_polyz(rng: random.Random, deg: int, span: int = 30) -> PolyZ:
    coeffs = [rng.randint(-span, span) for _ in range(deg)] + [1]
    return PolyZ(coeffs)


def random_cloud(rng: random.Random, max_pts=10, max_x=24, max_y=12):
    """Lattice points with distinct abscissas and at least one zero ordinate."""
    xs = sorted(rng.sample(range(max_x + 1), rng.randint(1, max_pts)))
    pts = [(x, rng.randint(0, max_y)) for x in xs]
    inx = rng.randrange(len(pts))
    pts[inx] = (pts[inx][0], 0)
    return pts


def polygon_height(polygon, x) -> Fraction:
    """Height of a principal polygon at abscissa x, from each side's start,
    h and e; 0 at the end of a polygon without sides."""
    for side in polygon.sides:
        if side.start[0] <= x <= side.end[0]:
            s, us = side.start
            return us - Fraction(side.h * (x - s), side.e)
    if x == polygon.length:
        return Fraction(0)
    raise AssertionError(f"abscissa {x} not covered by any side")


@pytest.fixture
def rng() -> random.Random:
    """Fresh deterministic generator per test."""
    return random.Random(0xC0FFEE)


def sympy_poly(f: PolyZ):
    """The same polynomial as a sympy Poly in x over ZZ."""
    import sympy

    x = sympy.Symbol("x")
    return sympy.Poly(list(reversed(f.coeffs)), x, domain="ZZ")
