"""Acceptance suite: the known answers, plus randomized identities.

The known answers are the rows of ``trinogen.cli.KNOWN_ANSWERS``, the table
that ``trinogen verify`` prints; ``test_known_answer`` runs every row on the
records of ``trinogen.cli.FIXTURES``, built once for this module, so a
corrected answer is edited in one place.  The fixture classes keep only the
checks that have no row in that table.

Every assertion is exact integer arithmetic with zero tolerance.  The known
answers were frozen from independent computations — sympy resultants and
factorizations, Fraction-arithmetic chord envelopes, exhaustive finite-field
enumerations, and direct binomial/companion-matrix recomputations — never from
the code under test.  Randomized identities run on fixed seeds so the suite is
fully deterministic.

One sub-assertion is expected to fail and marked strict-xfail: a recorded
factorization digest for the degree-16 fixture's odd discriminant part that
direct modular arithmetic refutes (see the test's reason string).  The true
value is the table's "odd part of disc" row, which passes.
"""

import math
import random
from fractions import Fraction

import pytest

from trinogen import ffactor
from trinogen.cli import FIXTURES, KNOWN_ANSWERS, build_report
from trinogen.exactnum import count_monic_irreducibles, strip_p, valp
from trinogen.ffactor import factor as fq_factor
from trinogen.ffactor import is_irreducible as fq_is_irreducible
from trinogen.monogenity import (
    SquarefreeStatus,
    Trinomial,
    check_alpha_generator,
    common_index_divisor,
    disc_trinomial,
    irreducibility_certificate,
    verdict,
)
from trinogen.newton import phi_index, principal_polygon
from trinogen.ore import factor_p, index_bound
from trinogen.polyring import PolyZ, discriminant, get_field, phi_expand

from conftest import known_answer, polygon_height, random_cloud, sympy_poly


@pytest.fixture(scope="module")
def records():
    return {fixture: build() for fixture, build in FIXTURES.items()}


@pytest.mark.parametrize(
    "fixture, check, expected, read",
    KNOWN_ANSWERS,
    ids=[f"{f}:{c}".replace(" ", "_") for f, c, _, _ in KNOWN_ANSWERS],
)
def test_known_answer(records, fixture, check, expected, read):
    assert read(records[fixture]) == expected


# -- checks beyond the table --------------------------------------------------------


def assert_2_eisenstein(H, n):
    assert H.is_monic() and H.degree == n
    assert H[0] % 2 == 0 and H[0] % 4 != 0
    assert all(H[i] % 2 == 0 for i in range(1, n))


class TestDegree8AlphaGenerator:
    T = Trinomial(8, 1, 8, 8)

    def test_alpha_min_poly_is_2_eisenstein(self):
        assert_2_eisenstein(check_alpha_generator(self.T).H, 8)


class TestDegree8CommonIndexDivisor:
    T = Trinomial(8, 1, 12, 3)

    def test_common_index_divisor_by_pigeonhole(self):
        # The table's counts, re-derived from a splitting built apart from
        # the verdict.
        fact = factor_p(self.T.poly(), 2)
        count, available = known_answer("x^8+12x+3", "degree-1 primes vs available")
        assert common_index_divisor(fact) == (1, count, available)
        assert sum(1 for f in fact.factors if f.f == 1) == count
        assert available == count_monic_irreducibles(2, 1) < count


class TestDegree16HighMiddleAlphaGenerator:
    T = Trinomial(16, 15, 24, 8)

    @pytest.mark.xfail(
        strict=True,
        reason="recorded digest 2^90 * 7 * 43 for this discriminant is wrong: "
        "the odd part of disc(x^16 + 24x^15 + 8) equals 2^19 - 3^31 * 5^15 = "
        "-18849896126829437255335087, which is 5 mod 7 and 26 mod 43, so it is "
        "divisible by neither 7 nor 43; kept as a strict expected failure so "
        "any change in the exact arithmetic is noticed",
    )
    def test_odd_part_recorded_digest(self):
        odd = strip_p(2, disc_trinomial(self.T)).unit_part
        assert odd % 7 == 0 and odd % 43 == 0

    def test_alpha_min_poly_is_2_eisenstein(self):
        assert_2_eisenstein(verdict(self.T).alpha.H, 16)


class TestDegree64PureField:
    T = Trinomial(64, 1, 0, -65)

    def test_engine_confirmation_at_2(self):
        fact = factor_p(self.T.poly(), 2)
        assert sum(f.e * f.f for f in fact.factors) == 64


class TestDedekindCubic:
    F = PolyZ([8, -2, 1, 1])

    def test_two_splits_completely(self):
        # F = x^2 (x + 1) mod 2, so the splitting in the table's
        # "2 splits completely" row is read off polygons that must be regular.
        assert factor_p(self.F, 2).regular


# -- randomized identities (fixed seeds, exact arithmetic) -------------------------


def random_trinomial_any(rng, max_n=64, span=50):
    n = rng.randrange(2, max_n + 1)
    m = rng.randrange(1, n)
    a = rng.randrange(-span, span + 1)
    b = rng.choice([x for x in range(-span, span + 1) if x != 0])
    return Trinomial(n, m, a, b)


def random_certified_trinomial(rng):
    """Random trinomial biased so an irreducibility certificate exists."""
    while True:
        p0 = rng.choice((2, 3, 5))
        n = rng.choice((2, 3, 4, 5, 6, 8, 9, 12, 16))
        m = rng.randrange(1, n)
        u = rng.choice([x for x in range(-9, 10) if x % p0 != 0])
        if rng.random() < 0.5:
            # Eisenstein shape: nu_p0(b) = 1, p0 | a (or a = 0)
            b = p0 * u
            a = p0 * rng.randrange(-9, 10)
        else:
            # one-sided polygon shape: gcd(n, nu_p0(b)) = 1, deep a
            k = rng.choice([k for k in (1, 2, 3, 5) if math.gcd(n, k) == 1])
            b = p0**k * u
            a = 0 if rng.random() < 0.5 else p0 ** (k + 3) * rng.randrange(-4, 5)
        T = Trinomial(n, m, a, b)
        if irreducibility_certificate(T) is not None:
            return T


class TestDiscriminantIdentity:
    def test_closed_form_matches_resultant_oracle(self):
        rng = random.Random(0xD15C)
        for i in range(500):
            T = random_trinomial_any(rng)
            assert disc_trinomial(T) == discriminant(T.poly()), (i, T)

    def test_closed_form_matches_sympy(self):
        rng = random.Random(0xD15C + 1)
        for _ in range(100):
            T = random_trinomial_any(rng, max_n=12, span=30)
            assert disc_trinomial(T) == int(sympy_poly(T.poly()).discriminant())


class TestSplittingShapeIdentity:
    def test_shape_sums_and_index_bounds(self):
        # >= 500 certified-irreducible inputs; at each of p = 2, 3, 5 the
        # regular splittings must satisfy sum(e*f) = deg F, and the polygon
        # index bound must stay within half the discriminant valuation.
        rng = random.Random(0x5E55)
        regular_checks = 0
        for i in range(500):
            T = random_certified_trinomial(rng)
            disc = disc_trinomial(T)
            assert disc != 0
            for p in (2, 3, 5):
                fact = factor_p(T.poly(), p)
                if fact.regular:
                    regular_checks += 1
                    assert sum(f.e * f.f for f in fact.factors) == T.n, (i, T, p)
                bound, exact = index_bound(T.poly(), p)
                assert valp(p, disc) >= 2 * bound, (i, T, p)
        assert regular_checks >= 500


class TestIndexBoundWithinDiscValuation:
    def test_holds_for_arbitrary_inputs(self):
        # Unbiased inputs, including reducible ones: whenever the engine
        # completes, nu_p(disc) >= 2 * (polygon index bound).
        rng = random.Random(0xB0B0)
        checked = 0
        for _ in range(400):
            T = random_trinomial_any(rng, max_n=20, span=30)
            disc = disc_trinomial(T)
            if disc == 0:
                continue
            for p in (2, 3, 5):
                try:
                    bound, _ = index_bound(T.poly(), p)
                except ValueError:
                    continue  # exact rational factor detected: engine declines
                checked += 1
                assert valp(p, disc) >= 2 * bound, (T, p)
        assert checked >= 500


def chord_envelope(points, x) -> Fraction:
    """Lower convex envelope at abscissa x: minimum over all chords."""
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


class TestHullOracle:
    def test_polygon_equals_chord_envelope(self):
        # The principal polygon is computed with integer cross products;
        # the oracle recomputes the envelope with Fraction chords.
        rng = random.Random(0x41D5)
        for i in range(1000):
            pts = random_cloud(rng)
            poly = principal_polygon(pts)
            if not poly.sides:
                # zero-length polygon: the first cloud point already has
                # ordinate 0, so there is no negative-slope part at all
                assert min(y for _, y in pts) == 0
                assert chord_envelope(pts, poly.vertices[0][0]) == 0
                continue
            start = poly.vertices[0][0]
            end = poly.vertices[-1][0]
            for x in range(start, end + 1):
                assert polygon_height(poly, x) == chord_envelope(pts, x), (i, pts, x)
            # structural invariants: vertices are cloud points, slopes
            # strictly increase and stay negative, sides tile the range
            cloud = set(pts)
            assert all(v in cloud for v in poly.vertices)
            slopes = [Fraction(-s.h, s.e) for s in poly.sides]
            assert all(s < 0 for s in slopes)
            assert all(a < b for a, b in zip(slopes, slopes[1:]))
            assert all(
                poly.sides[j].end == poly.sides[j + 1].start
                for j in range(len(poly.sides) - 1)
            )


class TestPolygonIndexOracle:
    def test_matches_lattice_point_count(self):
        # phi-index = deg(phi) times the number of lattice points (x, y)
        # with x >= 1, 1 <= y <= envelope(x); counted here via Fraction floor.
        rng = random.Random(0x1A77)
        for _ in range(300):
            pts = random_cloud(rng, max_pts=8, max_x=16, max_y=10)
            poly = principal_polygon(pts)
            expected = 0
            start = poly.vertices[0][0]
            for x in range(max(1, start), poly.length + 1):
                expected += max(0, int(polygon_height(poly, x)))
            for deg_phi in (1, 2, 3):
                assert phi_index(poly, deg_phi) == expected * deg_phi


class TestClosedFormDevelopment:
    def test_matches_generic_expansion_for_all_small_degrees(self):
        # Around x - 1, x^(2^r) + a*x + b develops as
        # [1 + a + b, 2^r + a, C(2^r, 2), ..., C(2^r, 2^r)], and by Kummer
        # nu_2(C(2^r, j)) = r - nu_2(j).
        rng = random.Random(0xDEF)
        pairs = [(rng.randrange(-60, 61), rng.choice([x for x in range(-60, 61) if x != 0]))
                 for _ in range(200)]
        for r in range(1, 7):
            n = 2**r
            for a, b in pairs:
                terms = [1 + a + b, n + a] + [math.comb(n, j) for j in range(2, n + 1)]
                vals = [valp(2, 1 + a + b), valp(2, n + a)]
                vals += [r - valp(2, j) for j in range(2, n + 1)]
                coeffs = [0] * (n + 1)
                coeffs[0] = b
                coeffs[1] += a
                coeffs[n] += 1
                dev = phi_expand(PolyZ(coeffs), PolyZ((-1, 1)), 2)
                assert dev.terms == tuple((t,) for t in terms), (r, a, b)
                assert dev.vals == tuple(vals), (r, a, b)


def enumerate_monic(field, d):
    from itertools import product

    for combo in product(range(field.order), repeat=d):
        yield field.poly([field.from_int(c) for c in combo] + [field.one])


def brute_irreducible(field, f) -> bool:
    if f.degree < 1:
        return False
    for e in range(1, f.degree // 2 + 1):
        for g in enumerate_monic(field, e):
            if (f % g).is_zero():
                return False
    return True


class TestIrreducibleCountIdentity:
    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_exhaustive_enumeration(self, p):
        field = get_field(p)
        for d in range(1, 5):
            enumerated = sum(
                1 for f in enumerate_monic(field, d) if brute_irreducible(field, f)
            )
            assert count_monic_irreducibles(p, d) == enumerated, (p, d)


class TestFiniteFieldFactorization:
    FIELDS = [(2, None), (3, None), (5, None), (2, (1, 1, 1)), (3, (1, 0, 1))]

    def test_reconstruction_and_seed_independence(self):
        rng = random.Random(0xFAC7)
        total = 0
        for p, modulus in self.FIELDS:
            field = get_field(p, modulus)
            for _ in range(100):
                deg = rng.randint(1, 8)
                coeffs = [rng.randrange(field.order) for _ in range(deg)]
                coeffs.append(rng.randrange(1, field.order))
                f = field.poly([field.from_int(c) for c in coeffs])
                fact = fq_factor(f)
                total += 1
                assert fact.product() == f
                assert fact.unit == f.leading
                for g, mult in fact.factors:
                    assert g.is_monic() and mult >= 1 and fq_is_irreducible(g)
                for seed in (1, 7, 12345):
                    ffactor.FACTORIZATIONS.clear()  # compute again with this seed
                    assert fq_factor(f, seed=seed) == fact
        assert total >= 500


# -- exact field invariants are out of scope by design -----------------------------


class TestScopeBoundary:
    def test_no_exact_field_invariant_api(self):
        # The library proves divisibility witnesses and index *bounds*; it
        # deliberately does not compute the exact field index, the field
        # discriminant, integral bases, or index-form equations, which need
        # machinery far beyond trinomial certificates.  Guard the surface so
        # nothing starts pretending otherwise.
        import trinogen
        from trinogen import monogenity, ore

        for name in (
            "field_index",
            "exact_field_index",
            "field_discriminant",
            "integral_basis",
            "index_form",
            "index_form_equation",
        ):
            assert not hasattr(trinogen, name)
            assert not hasattr(monogenity, name)
            assert not hasattr(ore, name)

    def test_substitute_witnesses_are_reported(self):
        # In place of exact invariants the pipeline emits: a common-index-
        # divisor witness (divisibility of every generator's index) ...
        T = Trinomial(8, 1, 12, 3)
        count, available = known_answer("x^8+12x+3", "degree-1 primes vs available")
        assert build_report(verdict(T))["verdict"]["common_index_divisor"] == {
            "d": "1", "primes_with_f_d": str(count), "available_irreducibles": str(available)
        }
        # ... exact-or-lower index bounds at the bad primes ...
        T = Trinomial(4, 1, 4, 4)
        bounds = build_report(verdict(T, assume_irreducible=True))["verdict"]["index_bounds"]
        assert bounds and all(int(e["bound"]) >= 1 for e in bounds)
        # ... and squarefree statuses that admit honest uncertainty.
        v = verdict(Trinomial(16, 1, 8, 56))
        assert v.alpha.deltap_status is SquarefreeStatus.UNKNOWN
