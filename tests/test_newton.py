"""Polygon geometry, residue data and lifts.

The hull oracle here is completely independent of the implementation: the
lower envelope value at each abscissa is the minimum over all chords between
cloud points, computed with ``fractions.Fraction``.
"""

import random
from fractions import Fraction

import pytest

from trinogen.exactnum import INFINITY
from trinogen.ffactor import factor
from trinogen.newton import (
    MalformedInput,
    PrincipalPolygon,
    lift_balanced,
    phi_index,
    point_cloud,
    principal_polygon,
    residual_poly,
    residue_coefficient,
    residue_field,
)
from trinogen.polyring import PolyZ, get_field, phi_expand, reduce_mod


def envelope_value(points, x) -> Fraction:
    """Lower convex envelope of the cloud at abscissa x, by brute force."""
    best = None
    for px, py in points:
        for qx, qy in points:
            if not px <= x <= qx:
                continue
            if px == qx:
                val = Fraction(min(py, qy))
            else:
                val = Fraction(py) + Fraction(qy - py, qx - px) * (x - px)
            if best is None or val < best:
                best = val
    assert best is not None
    return best


def polygon_value(polygon: PrincipalPolygon, x) -> Fraction:
    for side in polygon.sides:
        if side.start[0] <= x <= side.end[0]:
            num, den = side.ordinate_num(x)
            return Fraction(num, den)
    if x == polygon.length:
        return Fraction(0)
    raise AssertionError(f"abscissa {x} not covered by any side")


def random_cloud(rng, max_pts=10, max_x=24, max_y=12):
    xs = sorted(rng.sample(range(max_x + 1), rng.randint(1, max_pts)))
    pts = [(x, rng.randint(0, max_y)) for x in xs]
    # guarantee a zero ordinate somewhere
    inx = rng.randrange(len(pts))
    pts[inx] = (pts[inx][0], 0)
    return pts


def trinomial_polyz(n, m, a, b) -> PolyZ:
    coeffs = [0] * (n + 1)
    coeffs[0] = b
    coeffs[m] += a
    coeffs[n] += 1
    return PolyZ(coeffs)


class TestPrincipalPolygonFixtures:
    def test_one_sided_polygon(self):
        # x^8 + 8x + 8 at p = 2 around phi = x
        F = trinomial_polyz(8, 1, 8, 8)
        dev = phi_expand(F, PolyZ([0, 1]), 2)
        cloud = point_cloud(dev)
        assert cloud == ((0, 3), (1, 3), (8, 0))
        poly = principal_polygon(cloud, PolyZ([0, 1]), 2)
        assert poly.vertices == ((0, 3), (8, 0))
        assert len(poly.sides) == 1
        side = poly.sides[0]
        assert (side.h, side.e, side.d) == (3, 8, 1)
        assert side.slope == Fraction(-3, 8)
        assert side.length == 8
        assert poly.length == 8
        assert poly.discarded == ()
        assert poly.note is None

    def test_three_sided_polygon(self):
        # x^8 + 12x + 3 at p = 2 around the balanced lift x - 1
        F = trinomial_polyz(8, 1, 12, 3)
        dev = phi_expand(F, PolyZ([-1, 1]), 2)
        poly = principal_polygon(point_cloud(dev), PolyZ([-1, 1]), 2)
        assert poly.vertices == ((0, 4), (1, 2), (4, 1), (8, 0))
        assert [(s.h, s.e, s.d) for s in poly.sides] == [(2, 1, 1), (1, 3, 1), (1, 4, 1)]
        assert [s.slope for s in poly.sides] == [
            Fraction(-2),
            Fraction(-1, 3),
            Fraction(-1, 4),
        ]

    def test_five_vertex_polygon(self):
        # x^16 + 8x + 7 at p = 2 around x - 1
        F = trinomial_polyz(16, 1, 8, 7)
        dev = phi_expand(F, PolyZ([-1, 1]), 2)
        poly = principal_polygon(point_cloud(dev), PolyZ([-1, 1]), 2)
        assert poly.vertices == ((0, 4), (1, 3), (4, 2), (8, 1), (16, 0))
        assert all(s.d == 1 for s in poly.sides)

    def test_zero_length_when_first_ordinate_is_zero(self):
        poly = principal_polygon([(0, 0), (3, 2), (5, 0)])
        assert poly.length == 0
        assert poly.sides == ()
        assert poly.vertices == ((0, 0),)

    def test_discarded_tail_is_reported(self):
        # envelope descends to (2, 0) then would rise again
        poly = principal_polygon([(0, 2), (2, 0), (4, 0), (6, 3)])
        assert poly.length == 2
        assert poly.discarded != ()
        assert "discarded" in poly.note

    def test_collinear_points_fuse_into_one_side(self):
        poly = principal_polygon([(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)])
        assert len(poly.sides) == 1
        assert poly.sides[0].d == 4
        assert poly.vertices == ((0, 4), (4, 0))


class TestPrincipalPolygonValidation:
    def test_empty_cloud(self):
        with pytest.raises(MalformedInput):
            principal_polygon([])

    def test_duplicate_abscissa(self):
        with pytest.raises(MalformedInput):
            principal_polygon([(0, 1), (0, 2), (3, 0)])

    def test_negative_ordinate(self):
        with pytest.raises(MalformedInput):
            principal_polygon([(0, 1), (2, -1), (3, 0)])

    def test_no_zero_ordinate(self):
        with pytest.raises(MalformedInput):
            principal_polygon([(0, 3), (2, 1)])


class TestHullOracle:
    def test_random_clouds_match_envelope(self):
        rng = random.Random(20240817)
        for _ in range(400):
            pts = random_cloud(rng)
            poly = principal_polygon(pts)
            start = poly.vertices[0][0]
            # pointwise equality with the chord envelope on the principal range
            for x in range(start, poly.length + 1):
                assert polygon_value(poly, x) == envelope_value(pts, x)
            # every vertex is a cloud point; every cloud point is on/above
            ptset = set(pts)
            for v in poly.vertices:
                assert v in ptset
            for x, y in pts:
                if start <= x <= poly.length:
                    assert Fraction(y) >= polygon_value(poly, x)
            # slopes strictly increase and stay negative
            slopes = [s.slope for s in poly.sides]
            assert all(sl < 0 for sl in slopes)
            assert all(a < b for a, b in zip(slopes, slopes[1:]))
            # sides tile the principal range
            if poly.sides:
                assert poly.sides[0].start == poly.vertices[0]
                assert poly.sides[-1].end[0] == poly.length
                for s0, s1 in zip(poly.sides, poly.sides[1:]):
                    assert s0.end == s1.start


class TestLengthLaw:
    def test_polygon_length_equals_residual_multiplicity(self):
        # polygon length == multiplicity of (phi mod p) inside (F mod p)
        rng = random.Random(424242)
        checked = 0
        while checked < 120:
            p = rng.choice((2, 3, 5))
            deg = rng.randint(2, 9)
            F = PolyZ([rng.randint(-40, 40) for _ in range(deg)] + [1])
            fbar = reduce_mod(F, p)
            if fbar.degree < 1:
                continue
            for phibar, mult in factor(fbar).factors:
                phi = lift_balanced(phibar)
                dev = phi_expand(F, phi, p)
                cloud = point_cloud(dev)
                poly = principal_polygon(cloud, phi, p)
                assert poly.length == mult
                checked += 1


class TestResidueData:
    def test_residual_polys_of_known_case(self):
        F = trinomial_polyz(8, 1, 12, 3)
        phi = PolyZ([-1, 1])
        dev = phi_expand(F, phi, 2)
        poly = principal_polygon(point_cloud(dev), phi, 2)
        F2 = get_field(2)
        for k in range(3):
            res = residual_poly(dev, poly, k)
            assert res.poly == F2.poly([1, 1])  # y + 1 on every side
            assert res.poly.degree == poly.sides[k].d

    def test_residue_coefficient_off_polygon_is_zero(self):
        # (1, 3) sits strictly above the single side of x^8 + 8x + 8 at x
        F = trinomial_polyz(8, 1, 8, 8)
        dev = phi_expand(F, PolyZ([0, 1]), 2)
        poly = principal_polygon(point_cloud(dev), PolyZ([0, 1]), 2)
        field = get_field(2)
        assert residue_coefficient(dev, poly, 1) == field.zero
        assert residue_coefficient(dev, poly, 0) == field.one
        assert residue_coefficient(dev, poly, 8) == field.one

    def test_residue_coefficient_out_of_range(self):
        F = trinomial_polyz(8, 1, 8, 8)
        dev = phi_expand(F, PolyZ([0, 1]), 2)
        poly = principal_polygon(point_cloud(dev), PolyZ([0, 1]), 2)
        with pytest.raises(MalformedInput):
            residue_coefficient(dev, poly, 9)
        with pytest.raises(MalformedInput):
            residue_coefficient(dev, poly, -1)

    def test_residual_degree_and_endpoints(self):
        rng = random.Random(31337)
        checked = 0
        while checked < 80:
            p = rng.choice((2, 3))
            deg = rng.randint(2, 8)
            F = PolyZ([rng.randint(-30, 30) for _ in range(deg)] + [1])
            fbar = reduce_mod(F, p)
            if fbar.degree < 1:
                continue
            for phibar, mult in factor(fbar).factors:
                if mult < 2:
                    continue
                phi = lift_balanced(phibar)
                dev = phi_expand(F, phi, p)
                if dev.vals[0] is INFINITY:
                    continue
                poly = principal_polygon(point_cloud(dev), phi, p)
                for k in range(len(poly.sides)):
                    res = residual_poly(dev, poly, k)
                    side = poly.sides[k]
                    assert res.poly.degree == side.d
                    assert res.field.zero not in (res.coeffs[0], res.coeffs[-1])
                    checked += 1

    def test_residue_field_degrees(self):
        assert residue_field(PolyZ([-1, 1]), 2) is get_field(2)
        f4 = residue_field(PolyZ([1, 1, 1]), 2)
        assert f4.order == 4
        f9 = residue_field(PolyZ([1, 0, 1]), 3)
        assert f9.order == 9


class TestPhiIndex:
    def test_known_value(self):
        F = trinomial_polyz(8, 1, 8, 8)
        dev = phi_expand(F, PolyZ([0, 1]), 2)
        poly = principal_polygon(point_cloud(dev), PolyZ([0, 1]), 2)
        assert phi_index(poly, 1) == 7

    def test_lattice_count_oracle(self):
        rng = random.Random(555)
        for _ in range(200):
            pts = random_cloud(rng, max_pts=8, max_x=16, max_y=10)
            poly = principal_polygon(pts)
            expected = 0
            start = poly.vertices[0][0]
            for x in range(max(1, start), poly.length + 1):
                val = polygon_value(poly, x)
                # lattice points (x, y) with 1 <= y <= polygon height
                expected += max(0, int(val))  # floor of a non-negative Fraction
            for deg_phi in (1, 2, 3):
                assert phi_index(poly, deg_phi) == expected * deg_phi

    def test_deg_phi_multiplies(self):
        poly = principal_polygon([(0, 4), (1, 2), (4, 1), (8, 0)])
        base = phi_index(poly, 1)
        assert phi_index(poly, 3) == 3 * base

    def test_rejects_bad_degree(self):
        poly = principal_polygon([(0, 0)])
        with pytest.raises(MalformedInput):
            phi_index(poly, 0)


class TestLiftBalanced:
    def test_balanced_lift_at_2(self):
        F2 = get_field(2)
        assert lift_balanced(F2.poly([1, 1])) == PolyZ([-1, 1])
        assert lift_balanced(F2.poly([0, 1])) == PolyZ([0, 1])
        assert lift_balanced(F2.poly([1, 1, 1])) == PolyZ([-1, -1, 1])

    def test_balanced_lift_odd_p(self):
        F5 = get_field(5)
        assert lift_balanced(F5.poly([3, 2, 1])) == PolyZ([-2, 2, 1])
        F3 = get_field(3)
        assert lift_balanced(F3.poly([2, 1])) == PolyZ([-1, 1])

    def test_lift_is_monic_and_reduces_back(self):
        rng = random.Random(17)
        for p in (2, 3, 5):
            field = get_field(p)
            for _ in range(50):
                deg = rng.randint(1, 6)
                fbar = field.poly(
                    [rng.randrange(p) for _ in range(deg)] + [1]
                )
                lift = lift_balanced(fbar)
                assert lift.is_monic()
                assert reduce_mod(lift, p) == fbar
                # balanced: coefficients lie in (-p/2, p/2]
                assert all(2 * abs(c) <= p for c in lift.coeffs[:-1])

    def test_rejects_non_monic(self):
        F3 = get_field(3)
        with pytest.raises(ValueError):
            lift_balanced(F3.poly([1, 2]))
