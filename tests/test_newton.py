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
    lift_balanced,
    phi_index,
    point_cloud,
    principal_polygon,
    residual_poly,
    residue_field,
)
from trinogen.polyring import PolyZ, get_field, phi_expand, reduce_mod

from conftest import polygon_height, random_cloud, trinomial_polyz


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


class TestPrincipalPolygonFixtures:
    def test_one_sided_polygon(self):
        # x^8 + 8x + 8 at p = 2 around phi = x
        F = trinomial_polyz(8, 1, 8, 8)
        dev = phi_expand(F, PolyZ([0, 1]), 2)
        cloud = point_cloud(dev)
        assert cloud == ((0, 3), (1, 3), (8, 0))
        poly = principal_polygon(cloud)
        assert poly.vertices == ((0, 3), (8, 0))
        assert len(poly.sides) == 1
        side = poly.sides[0]
        assert (side.h, side.e, side.d) == (3, 8, 1)
        assert Fraction(-side.h, side.e) == Fraction(-3, 8)
        assert side.length == 8
        assert poly.length == 8
        assert poly.discarded == ()
        assert poly.note is None

    def test_three_sided_polygon(self):
        # x^8 + 12x + 3 at p = 2 around the balanced lift x - 1
        F = trinomial_polyz(8, 1, 12, 3)
        dev = phi_expand(F, PolyZ([-1, 1]), 2)
        poly = principal_polygon(point_cloud(dev))
        assert poly.vertices == ((0, 4), (1, 2), (4, 1), (8, 0))
        assert [(s.h, s.e, s.d) for s in poly.sides] == [(2, 1, 1), (1, 3, 1), (1, 4, 1)]
        assert [Fraction(-s.h, s.e) for s in poly.sides] == [
            Fraction(-2),
            Fraction(-1, 3),
            Fraction(-1, 4),
        ]

    def test_five_vertex_polygon(self):
        # x^16 + 8x + 7 at p = 2 around x - 1
        F = trinomial_polyz(16, 1, 8, 7)
        dev = phi_expand(F, PolyZ([-1, 1]), 2)
        poly = principal_polygon(point_cloud(dev))
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
    # Each check is pinned to its exact message, and a cloud breaking
    # several rules gets the message of the first check in this order.
    def test_empty_cloud(self):
        with pytest.raises(MalformedInput, match="^empty point cloud$"):
            principal_polygon([])

    def test_duplicate_abscissa(self):
        with pytest.raises(MalformedInput, match="^duplicate abscissa 0 in point cloud$"):
            principal_polygon([(0, 1), (0, 2), (3, 0)])
        # the smallest duplicated abscissa is named, ahead of the other faults
        with pytest.raises(MalformedInput, match="^duplicate abscissa 2 in point cloud$"):
            principal_polygon([(5, 1), (2, -1), (5, 3), (2, 4)])

    def test_negative_ordinate(self):
        with pytest.raises(MalformedInput, match="^negative ordinate in point cloud$"):
            principal_polygon([(0, 1), (2, -1), (3, 0)])
        with pytest.raises(MalformedInput, match="^negative ordinate in point cloud$"):
            principal_polygon([(0, 3), (2, 1), (4, -2)])  # and no zero ordinate

    def test_no_zero_ordinate(self):
        with pytest.raises(MalformedInput, match="^point cloud has no zero-ordinate point$"):
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
                assert polygon_height(poly, x) == envelope_value(pts, x)
            # every vertex is a cloud point; every cloud point is on/above
            ptset = set(pts)
            for v in poly.vertices:
                assert v in ptset
            for x, y in pts:
                if start <= x <= poly.length:
                    assert Fraction(y) >= polygon_height(poly, x)
            # slopes strictly increase and stay negative
            slopes = [Fraction(-s.h, s.e) for s in poly.sides]
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
                poly = principal_polygon(cloud)
                assert poly.length == mult
                checked += 1


class TestResidueData:
    def test_residual_polys_of_known_case(self):
        F = trinomial_polyz(8, 1, 12, 3)
        phi = PolyZ([-1, 1])
        dev = phi_expand(F, phi, 2)
        poly = principal_polygon(point_cloud(dev))
        F2 = get_field(2)
        for k in range(3):
            res = residual_poly(dev, poly, k)
            assert res == F2.poly([1, 1])  # y + 1 on every side
            assert res.degree == poly.sides[k].d

    def test_point_above_the_side_gives_a_zero_coefficient(self):
        # x^4 + 4x^2 + 4 at p = 2 around x: one side from (0, 2) to (4, 0)
        # with e = 2 and d = 2, and (2, 2) lies above it.
        dev = phi_expand(PolyZ([4, 0, 4, 0, 1]), PolyZ([0, 1]), 2)
        poly = principal_polygon(point_cloud(dev))
        (side,) = poly.sides
        assert (side.start, side.end, side.e, side.d) == ((0, 2), (4, 0), 2, 2)
        res = residual_poly(dev, poly, 0)
        assert res.coeffs == (1, 0, 1)
        assert str(res) == "y^2 + 1"

    def test_residual_over_an_extension_field(self):
        # x^4 + 2x^3 + 3x^2 + 2x + 5 = (x^2 + x + 1)^2 mod 2
        F = PolyZ([5, 2, 3, 2, 1])
        ((phibar, mult),) = factor(reduce_mod(F, 2)).factors
        assert mult == 2
        dev = phi_expand(F, lift_balanced(phibar), 2)
        res = residual_poly(dev, principal_polygon(point_cloud(dev)), 0)
        assert res.field.modulus == (1, 1, 1)
        assert str(res) == "y^2 + t+1"

    def test_residual_matches_a_direct_reading(self):
        # F = phi^k + (multiples of powers of p), around phi of degree 1 or
        # 2.  Each coefficient is read here from dev.vals and dev.terms: the
        # lattice abscissas s, s+e, ..., s+de of the side, and a nonzero
        # residue exactly where the point lies on the polygon.
        phis = {2: [(0, 1), (1, 1), (1, 1, 1)],
                3: [(0, 1), (1, 1), (2, 1), (1, 0, 1), (2, 1, 1), (2, 2, 1)]}
        rng = random.Random(0x5E1D)
        seen = {"deg2": 0, "d>1": 0, "inner zero": 0}
        for _ in range(300):
            p = rng.choice((2, 3))
            phi = lift_balanced(get_field(p).poly(list(rng.choice(phis[p]))))
            k = rng.randint(1, 6)
            F = phi**k
            F = F + PolyZ([rng.randint(-4, 4) * p ** rng.randint(1, 4)
                           for _ in range(F.degree)])
            dev = phi_expand(F, phi, p)
            poly = principal_polygon(point_cloud(dev))
            field = residue_field(phi, p)
            for idx, side in enumerate(poly.sides):
                s = side.start[0]
                expected = []
                for i in range(s, side.end[0] + 1, side.e):
                    u = dev.vals[i]
                    if u is INFINITY or u != polygon_height(poly, i):
                        expected.append(field.zero)
                        continue
                    assert all(c % p**u == 0 for c in dev.terms[i])
                    expected.append(field.elem([c // p**u % p for c in dev.terms[i]]))
                res = residual_poly(dev, poly, idx)
                assert (res.field, res.coeffs) == (field, tuple(expected))
                seen["deg2"] += phi.degree == 2
                seen["d>1"] += side.d > 1
                seen["inner zero"] += field.zero in expected[1:-1]
        assert min(seen.values()) > 0, seen

    def test_rejects_a_missing_side(self):
        dev = phi_expand(PolyZ([4, 0, 4, 0, 1]), PolyZ([0, 1]), 2)
        poly = principal_polygon(point_cloud(dev))
        with pytest.raises(MalformedInput):
            residual_poly(dev, poly, 1)

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
                poly = principal_polygon(point_cloud(dev))
                for k in range(len(poly.sides)):
                    res = residual_poly(dev, poly, k)
                    side = poly.sides[k]
                    assert res.degree == side.d
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
        poly = principal_polygon(point_cloud(dev))
        assert phi_index(poly, 1) == 7

    def test_lattice_count_oracle(self):
        rng = random.Random(555)
        for _ in range(200):
            pts = random_cloud(rng, max_pts=8, max_x=16, max_y=10)
            poly = principal_polygon(pts)
            expected = 0
            start = poly.vertices[0][0]
            for x in range(max(1, start), poly.length + 1):
                val = polygon_height(poly, x)
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
