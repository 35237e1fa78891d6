"""Prime-splitting engine: shapes, index bounds, determinism, reducibility."""

import random

import pytest
import sympy

from trinogen import ffactor
from trinogen.exactnum import valp
from trinogen.newton import MalformedInput
from trinogen.ore import OreFactorization, PhiData, factor_p, index_bound, polygon_index
from trinogen.polyring import PolyZ, discriminant, reduce_mod

from conftest import trinomial_polyz


def sympy_irreducible(f: PolyZ) -> bool:
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(f.coeffs)), x, domain="ZZ")
    fl = poly.factor_list()
    return len(fl[1]) == 1 and fl[1][0][1] == 1 and fl[1][0][0].degree() == f.degree


class TestFactorPFixtures:
    def test_three_primes_above_2(self):
        fact = factor_p(trinomial_polyz(8, 1, 12, 3), 2)
        assert isinstance(fact, OreFactorization)
        assert fact.p == 2
        assert fact.regular
        assert sorted((f.e, f.f) for f in fact.factors) == [(1, 1), (3, 1), (4, 1)]
        assert fact.index_lower_bound == 5

    def test_one_sided_case(self):
        fact = factor_p(trinomial_polyz(8, 1, 8, 8), 2)
        assert fact.regular
        assert [(f.e, f.f) for f in fact.factors] == [(8, 1)]
        assert fact.index_lower_bound == 7

    def test_pure_field_at_2(self):
        fact = factor_p(trinomial_polyz(64, 1, 0, -65), 2)
        assert fact.regular
        shapes = sorted((f.e, f.f) for f in fact.factors)
        exps = {e for e, _ in shapes}
        assert {8, 16, 32} <= exps
        assert sum(1 for _, f in shapes if f == 1) >= 3
        assert sum(e * f for e, f in shapes) == 64

    def test_dedekind_cubic_splits_completely(self):
        fact = factor_p(PolyZ([8, -2, 1, 1]), 2)
        assert fact.regular
        assert sorted((f.e, f.f) for f in fact.factors) == [(1, 1)] * 3
        assert fact.index_lower_bound == 1

    def test_labels_are_unique_and_structured(self):
        fact = factor_p(trinomial_polyz(8, 1, 12, 3), 2)
        labels = [f.label for f in fact.factors]
        assert len(set(labels)) == len(labels)
        for i, j, s in labels:
            assert isinstance(i, int)
            assert (j is None) == (s is None)

    def test_evidence_is_attached(self):
        fact = factor_p(trinomial_polyz(8, 1, 12, 3), 2)
        assert len(fact.evidence) == 1
        pd = fact.evidence[0]
        assert isinstance(pd, PhiData)
        assert pd.multiplicity == 8
        assert pd.polygon is not None
        assert pd.polygon.length == 8
        assert len(pd.sides) == 3
        assert pd.index == 5

    def test_multiplicity_one_bypasses_polygon(self):
        # x^2 + 1 is irreducible mod 3: single prime, e = 1, f = 2
        fact = factor_p(PolyZ([1, 0, 1]), 3)
        assert fact.regular
        assert [(f.e, f.f) for f in fact.factors] == [(1, 2)]
        assert fact.index_lower_bound == 0
        assert fact.evidence[0].polygon is None

    def test_unramified_split_case(self):
        # x^2 - 1 mod 3: two distinct linear factors
        fact = factor_p(PolyZ([-1, 0, 1]), 3)
        assert sorted((f.e, f.f) for f in fact.factors) == [(1, 1), (1, 1)]


class TestFactorPValidation:
    def test_requires_monic(self):
        with pytest.raises(MalformedInput):
            factor_p(PolyZ([1, 2]), 2)

    def test_requires_positive_degree(self):
        with pytest.raises(MalformedInput):
            factor_p(PolyZ([5]), 2)

    def test_requires_prime_modulus(self):
        with pytest.raises(MalformedInput):
            factor_p(PolyZ([1, 0, 1]), 6)

    def test_detects_exact_rational_factor(self):
        # x^4 - 1 is divisible by the balanced lift x - 1 itself
        with pytest.raises(MalformedInput, match="reducible"):
            factor_p(PolyZ([-1, 0, 0, 0, 1]), 2)


class TestShapeIdentity:
    def test_sum_ef_equals_degree_random(self):
        # On irreducible inputs every regular factorization satisfies
        # sum of e*f == deg F; irreducibility established by a sympy oracle
        # completely independent of the package.
        rng = random.Random(271828)
        checked = 0
        while checked < 200:
            n = rng.randint(2, 10)
            F = PolyZ([rng.randint(-20, 20) for _ in range(n)] + [1])
            if not sympy_irreducible(F):
                continue
            for p in (2, 3, 5):
                fact = factor_p(F, p)
                if fact.regular:
                    assert sum(f.e * f.f for f in fact.factors) == F.degree
                    checked += 1

    def test_index_bound_within_discriminant_valuation(self):
        # nu_p(disc) >= 2 * index bound, always (exact or not)
        rng = random.Random(161803)
        checked = 0
        while checked < 200:
            n = rng.randint(2, 9)
            F = PolyZ([rng.randint(-15, 15) for _ in range(n)] + [1])
            disc = discriminant(F)
            if disc == 0:
                continue
            for p in (2, 3, 5):
                try:
                    bound, _exact = index_bound(F, p)
                except MalformedInput:
                    continue  # engine proved F reducible; identity not claimed
                assert valp(p, disc) >= 2 * bound
                checked += 1

    def test_ramification_matches_disc_valuation_for_eisenstein(self):
        # p-Eisenstein polynomials are totally ramified: one prime, e = n
        for p, n in ((2, 4), (3, 5), (5, 3)):
            F = trinomial_polyz(n, 1, p, p)
            fact = factor_p(F, p)
            assert fact.regular
            assert [(f.e, f.f) for f in fact.factors] == [(n, 1)]
            assert fact.index_lower_bound == 0


class TestDeterminism:
    def test_repeat_runs_are_identical(self):
        rng = random.Random(99991)
        for _ in range(40):
            n = rng.randint(2, 8)
            F = PolyZ([rng.randint(-12, 12) for _ in range(n)] + [1])
            for p in (2, 3):
                try:
                    first = factor_p(F, p)
                    second = factor_p(F, p)
                except MalformedInput:
                    continue
                assert first.regular == second.regular
                assert [
                    (f.label, f.e, f.f) for f in first.factors
                ] == [(f.label, f.e, f.f) for f in second.factors]
                assert first.index_lower_bound == second.index_lower_bound


class TestIndexBound:
    def test_known_values(self):
        assert index_bound(trinomial_polyz(8, 1, 8, 8), 2) == (7, True)
        assert index_bound(trinomial_polyz(8, 1, 12, 3), 2) == (5, True)

    def test_non_regular_bound_is_marked_inexact(self):
        # (x + 2)^2 + 8 = x^2 + 4x + 12: residual (y+1)^2 over F_2
        F = PolyZ([12, 4, 1])
        bound, exact = index_bound(F, 2)
        assert not exact
        assert bound >= 1
        fact = factor_p(F, 2)
        assert not fact.regular
        assert fact.factors == ()


def _outcome(fn, F, p):
    """fn(F, p), or the message of the MalformedInput it raised."""
    try:
        return fn(F, p)
    except MalformedInput as exc:
        return f"MalformedInput: {exc}"


def _bound(F, p):
    return factor_p(F, p).index_lower_bound


def _index(F, p):
    return polygon_index(F, p)[0]


class TestPolygonIndex:
    """polygon_index(F, p)[0] == factor_p(F, p).index_lower_bound, errors included."""

    def test_agrees_on_trinomials(self):
        rng = random.Random(314159)
        nonzero = {p: 0 for p in (2, 3, 5, 7, 13)}
        for i in range(80):
            n = rng.randint(2, 48)
            m = rng.randrange(1 + i % 2, n, 2) if n > 2 else 1  # odd and even m
            for p in nonzero:
                # Coefficients divisible by p make repeated factors mod p.
                a = rng.randint(-6, 6) * p ** rng.randint(0, 3)
                b = rng.choice((1, -1)) * rng.randint(1, 6) * p ** rng.randint(0, 2)
                F = trinomial_polyz(n, m, a, b)
                got = _outcome(_index, F, p)
                assert got == _outcome(_bound, F, p), (n, m, a, b, p)
                nonzero[p] += isinstance(got, int) and got > 0
        assert all(nonzero.values()), nonzero

    def test_agrees_when_repeated_factors_have_degree_above_one(self):
        # F = g^k + p*h with g irreducible mod p of degree 2 or 3, so g is
        # a factor of F mod p with multiplicity k.
        rng = random.Random(271)
        cases = {
            2: ([1, 1, 1], [1, 1, 0, 1]),
            3: ([1, 0, 1], [-1, -1, 0, 1]),
            5: ([2, 0, 1], [1, 1, 0, 1]),
            7: ([1, 0, 1], [2, 0, 0, 1]),
        }
        seen = 0
        for p, gs in cases.items():
            for g in map(PolyZ, gs):
                for k in (2, 3, 4):
                    for _ in range(4):
                        h = PolyZ([rng.randint(-9, 9) for _ in range(k * g.degree)])
                        F = g**k + h.scale(p * rng.choice((1, p)))
                        repeated = [
                            f for f, e in ffactor.factor(reduce_mod(F, p)).factors if e > 1
                        ]
                        seen += any(f.degree >= 2 for f in repeated)
                        assert _outcome(_index, F, p) == _outcome(_bound, F, p), (
                            F, p)
        assert seen >= 40

    def test_raises_what_factor_p_raises(self):
        # x^n + a*x + b with 1 + a + b = 0 has the root 1; when n + a is even
        # x + 1 is a repeated factor mod 2 and the polygon stage finds x - 1.
        cases = [(trinomial_polyz(n, 1, a, -1 - a), 2)
                 for n in (4, 8, 16) for a in range(-12, 13, 2)]
        cases += [(trinomial_polyz(8, 2, 0, 0), 3),  # x^2 divides
                  (PolyZ([1, 2]), 2), (PolyZ([5]), 2), (PolyZ([1, 0, 1]), 6)]
        raised = 0
        for F, p in cases:
            got = _outcome(_index, F, p)
            assert got == _outcome(_bound, F, p), (F, p)
            raised += isinstance(got, str)
        assert raised == len(cases)


class TestIndexClassConstancy:
    """polygon_index(F, p) = (index, k) holds on the whole class of (a, b) mod p^k."""

    def test_members_share_index_and_k(self):
        rng = random.Random(2718)
        cases = []
        for i in range(120):
            p = (2, 3, 5, 7)[i % 4]
            n = rng.randint(3, 24)
            m = rng.randrange(1 + i % 2, n, 2)  # odd and even m
            a = rng.randint(-6, 6) * p ** rng.randint(0, 3)
            b = rng.choice((1, -1)) * rng.randint(1, 6) * p ** rng.randint(0, 3)
            cases.append((n, m, a, b, p))
        # x^(2m) + a*x^m + b with m a power of 2 and a, b odd is
        # (x^2 + x + 1)^m mod 2: a repeated factor of degree 2.
        cases += [(2 * m, m, a, b, 2) for m in (1, 2, 4, 8) for a, b in ((1, 1), (3, -5), (-7, 9))]
        k_at_least_3 = repeated_degree_2 = 0
        for n, m, a, b, p in cases:
            F = trinomial_polyz(n, m, a, b)
            try:
                index, k = polygon_index(F, p)
            except MalformedInput:
                continue
            for s in range(-3, 4):
                for t in range(-3, 4):
                    member = trinomial_polyz(n, m, a + s * p**k, b + t * p**k)
                    assert polygon_index(member, p) == (index, k), (n, m, a, b, p, s, t)
            k_at_least_3 += k >= 3
            repeated_degree_2 += any(
                f.degree >= 2 and e > 1 for f, e in ffactor.factor(reduce_mod(F, p)).factors)
        assert k_at_least_3 and repeated_degree_2, (k_at_least_3, repeated_degree_2)

    def test_k_is_one_when_squarefree_mod_p(self):
        # x^8 + x + 1 is squarefree mod 2: no polygon, so k = 1.
        assert polygon_index(trinomial_polyz(8, 1, 1, 1), 2) == (0, 1)
        # x^8 + 8x + 8: phi = x, a_0 = 8, so k = 1 + v_2(8) = 4.
        assert polygon_index(trinomial_polyz(8, 1, 8, 8), 2) == (7, 4)
