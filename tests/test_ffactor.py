"""Finite-field factorization: reconstruction, irreducibility, determinism."""

import random

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor

from trinogen import ffactor
from trinogen.ffactor import factor, is_irreducible, is_separable
from trinogen.polyring import get_field


def brute_force_irreducible(field, f) -> bool:
    """Degree-bounded trial division against every lower-degree monic poly."""
    if f.degree < 1:
        return False
    half = f.degree // 2
    for deg in range(1, half + 1):
        for packed in range(field.order**deg):
            digits = []
            k = packed
            for _ in range(deg):
                k, r = divmod(k, field.order)
                digits.append(field.from_int(r))
            cand = field.poly(digits + [field.one])
            if (f % cand).is_zero():
                return False
    return True


def random_fq_poly(field, rng, max_deg=8):
    while True:
        deg = rng.randint(0, max_deg)
        f = field.poly(
            [field.from_int(rng.randrange(field.order)) for _ in range(deg + 1)]
        )
        if not f.is_zero():
            return f


FIELDS = [
    (2, None),
    (3, None),
    (5, None),
    (2, (1, 1, 1)),  # F_4
    (3, (1, 0, 1)),  # F_9
]


class TestSeparable:
    def test_known_cases(self):
        F2 = get_field(2)
        assert is_separable(F2.poly([1, 1]))  # x + 1
        assert is_separable(F2.poly([1, 1, 1]))  # x^2 + x + 1
        assert not is_separable(F2.poly([1, 0, 1]))  # (x+1)^2
        assert not is_separable(F2.poly([0, 0, 1]))  # x^2

    def test_square_times_linear(self):
        F3 = get_field(3)
        f = F3.poly([1, 1]) * F3.poly([1, 1]) * F3.poly([2, 1])
        assert not is_separable(f)
        assert is_separable(F3.poly([1, 1]) * F3.poly([2, 1]))


class TestIsIrreducible:
    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_brute_force(self, p):
        field = get_field(p)
        for deg in range(1, 5):
            for packed in range(p**deg):
                digits = []
                k = packed
                for _ in range(deg):
                    k, r = divmod(k, p)
                    digits.append((r,))
                f = field.poly(list(digits) + [field.one])
                assert is_irreducible(f) == brute_force_irreducible(field, f)

    def test_extension_field(self):
        F4 = get_field(2, (1, 1, 1))
        # y^2 + y + t is irreducible over F_4 iff t has absolute trace 1
        t = F4.elem([0, 1])
        f = F4.poly([t, F4.one, F4.one])
        assert is_irreducible(f) == brute_force_irreducible(F4, f)

    def test_uses_every_prime_divisor_of_the_degree(self):
        # Degree 6 = 2 * 3 over F_3.  Only the gcd at q^(6/3) sees three
        # distinct quadratics, and only the gcd at q^(6/2) sees two cubics;
        # x^(q^6) = x mod f holds for both products.
        F3 = get_field(3)
        quadratics = F3.poly([1, 0, 1]) * F3.poly([2, 1, 1]) * F3.poly([2, 2, 1])
        cubics = F3.poly([1, 2, 0, 1]) * F3.poly([2, 2, 0, 1])
        for f in (quadratics, cubics):
            assert f.degree == 6
            assert not is_irreducible(f)
            assert not brute_force_irreducible(F3, f)

    def test_constants_are_not_irreducible(self):
        F = get_field(5)
        assert not is_irreducible(F.poly([3]))


class TestFactor:
    @pytest.mark.parametrize("p,modulus", FIELDS)
    def test_reconstruction_random(self, p, modulus):
        field = get_field(p, modulus)
        rng = random.Random(1000 * p + field.order)
        for _ in range(120):
            f = random_fq_poly(field, rng)
            fact = factor(f)
            assert fact.product() == f
            assert fact.unit == f.leading
            for g, mult in fact.factors:
                assert g.is_monic()
                assert mult >= 1
                assert is_irreducible(g)

    @pytest.mark.parametrize("p,modulus", FIELDS)
    def test_determinism_across_seeds(self, p, modulus):
        field = get_field(p, modulus)
        rng = random.Random(7 * p + field.order)
        for _ in range(40):
            f = random_fq_poly(field, rng)
            base = factor(f, seed=0)
            for seed in (1, 17, 986543):
                ffactor.FACTORIZATIONS.clear()  # compute again with this seed
                again = factor(f, seed=seed)
                assert again.factors == base.factors
                assert again.unit == base.unit

    def test_memo_keys_on_the_field(self):
        # The same digit tuples over F_2, F_3 and two models of F_9 are four
        # different polynomials, each with its own entry and factorization.
        ffactor.FACTORIZATIONS.clear()
        one, zero = (1,), (0,)
        polys = [
            get_field(2).poly([one, zero, one]),
            get_field(3).poly([one, zero, one]),
            get_field(3, (1, 0, 1)).poly([(1, 0), (0, 0), (1, 0)]),
            get_field(3, (2, 1, 1)).poly([(1, 0), (0, 0), (1, 0)]),
        ]
        results = [factor(f) for f in polys]
        for f, fact in zip(polys, results):
            assert fact.field == f.field and fact.product() == f
            assert ffactor.FACTORIZATIONS.get(f) is fact
        assert [[m for _, m in fact.factors] for fact in results] == [[2], [1], [1, 1], [1, 1]]
        assert results[2].factors != results[3].factors

    def test_factors_are_sorted_and_deduplicated(self):
        F = get_field(3)
        f = F.poly([1, 1]) ** 2 * F.poly([2, 1]) * F.poly([1, 0, 1])
        fact = factor(f)
        keys = [g.sort_key() for g, _ in fact.factors]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        assert [(g.coeffs, m) for g, m in fact.factors] == [
            ((1, 1), 2),
            ((2, 1), 1),
            ((1, 0, 1), 1),
        ]

    def test_reconstruction_guard_catches_a_lost_factor(self, monkeypatch):
        # An equal-degree split that loses a factor no longer multiplies back
        # to the input, so factor raises instead of returning it.
        F5 = get_field(5)
        f = F5.poly([1, 1]) * F5.poly([2, 1]) * F5.poly([3, 1]) ** 2
        real = ffactor._equal_degree
        monkeypatch.setattr(ffactor, "_equal_degree", lambda g, d, rng: real(g, d, rng)[:-1])
        ffactor.FACTORIZATIONS.clear()
        with pytest.raises(ArithmeticError):
            factor(f)
        assert ffactor.FACTORIZATIONS.get(f) is None
        monkeypatch.undo()
        assert factor(f).product() == f

    def test_pth_power_multiplicities(self):
        # multiplicities divisible by p exercise the p-th-root descent
        F2 = get_field(2)
        f = F2.poly([1, 1]) ** 4 * F2.poly([1, 1, 1]) ** 2
        fact = factor(f)
        assert {(str(g), m) for g, m in fact.factors} == {
            ("y + 1", 4),
            ("y^2 + y + 1", 2),
        }
        F9 = get_field(3, (1, 0, 1))
        g = F9.poly([(1, 1), (0, 0), (1, 0)]) ** 3
        fact9 = factor(g)
        assert len(fact9.factors) >= 1
        assert fact9.product() == g
        assert all(m % 3 == 0 for _, m in fact9.factors)

    def test_unit_preserved_for_nonmonic(self):
        F5 = get_field(5)
        f = F5.poly([1, 1]).cmul(F5.elem([3]))  # 3y + 3
        fact = factor(f)
        assert fact.unit == F5.elem([3])
        assert [(str(g), m) for g, m in fact.factors] == [("y + 1", 1)]

    def test_constant_polynomial(self):
        F5 = get_field(5)
        fact = factor(F5.poly([3]))
        assert fact.factors == ()
        assert fact.unit == F5.elem([3])
        assert fact.product() == F5.poly([3])

    def test_zero_rejected(self):
        F2 = get_field(2)
        with pytest.raises(ValueError):
            factor(F2.poly([]))

    def test_big_product_stress(self):
        F2 = get_field(2)
        irreducibles = []
        for packed in range(2, 64):
            coeffs = []
            k = packed
            while k:
                k, r = divmod(k, 2)
                coeffs.append(r)
            f = F2.poly(coeffs)
            if f.degree >= 1 and is_irreducible(f):
                irreducibles.append(f)
        prod = F2.poly([1])
        expected = {}
        rng = random.Random(99)
        for g in irreducibles:
            mult = rng.randint(0, 2)
            if mult:
                expected[tuple(g.coeffs)] = mult
                for _ in range(mult):
                    prod = prod * g
        fact = factor(prod)
        assert {tuple(g.coeffs): m for g, m in fact.factors} == expected


def gf_factor_oracle(f):
    """sympy's factorization of a prime-field FqPoly, in ascending coefficients."""
    p = f.field.p
    lc, factors = gf_factor([ZZ(c) for c in reversed(f.coeffs)], p, ZZ)
    return int(lc), sorted((tuple(int(c) for c in reversed(g)), m) for g, m in factors)


class TestPowerOfX:
    """factor splits off x^v before the squarefree loop; results are unchanged."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 257])
    def test_matches_sympy_on_x_power_times_g(self, p):
        field = get_field(p)
        rng = random.Random(4242 + p)
        x = field.poly([0, 1])
        for v in range(1, 41):
            g = random_fq_poly(field, rng, max_deg=10)
            f = x**v * g
            fact = factor(f)
            lc, expected = gf_factor_oracle(f)
            assert fact.unit == lc
            assert sorted((h.coeffs, m) for h, m in fact.factors) == expected
            assert fact.product() == f

    def test_x_power_alone(self):
        for p, n in ((2, 27), (3, 1), (5, 64)):
            field = get_field(p)
            fact = factor(field.poly([0] * n + [1]))
            assert fact.unit == 1
            assert [(g.coeffs, m) for g, m in fact.factors] == [((0, 1), n)]

    def test_leading_coefficient_kept(self):
        F5 = get_field(5)
        f = (F5.poly([0, 1]) ** 4 * F5.poly([1, 1]) ** 2).cmul(3)
        fact = factor(f)
        assert fact.unit == 3
        assert [(g.coeffs, m) for g, m in fact.factors] == [((0, 1), 4), ((1, 1), 2)]
        assert fact.product() == f

    def test_cofactor_is_a_pth_power(self):
        F3 = get_field(3)
        f = F3.poly([0, 1]) ** 3 * F3.poly([1, 1]) ** 9
        fact = factor(f)
        assert [(g.coeffs, m) for g, m in fact.factors] == [((0, 1), 3), ((1, 1), 9)]
        assert gf_factor_oracle(f) == (1, [((0, 1), 3), ((1, 1), 9)])

    def test_extension_field(self):
        F9 = get_field(3, (1, 0, 1))
        t = F9.elem([0, 1])
        g = F9.poly([t, F9.one, F9.one]) * F9.poly([F9.one, t]) ** 3
        f = F9.poly([F9.zero] * 5 + [F9.one]) * g.cmul(t)
        fact = factor(f)
        assert fact.product() == f
        assert fact.unit == f.leading
        assert all(is_irreducible(h) and h.is_monic() for h, _ in fact.factors)
        assert (F9.poly([0, 1]), 5) in fact.factors
        assert sum(h.degree * m for h, m in fact.factors) == f.degree

    def test_squarefree_loop_never_sees_x(self, monkeypatch):
        seen = []
        real = ffactor._squarefree_parts

        def spy(f):
            seen.append(f)
            return real(f)

        monkeypatch.setattr(ffactor, "_squarefree_parts", spy)
        ffactor.FACTORIZATIONS.clear()
        rng = random.Random(77)
        for p, modulus in FIELDS:
            field = get_field(p, modulus)
            x = field.poly([0, 1])
            for v in (1, 2, 9, 27):
                f = x**v * random_fq_poly(field, rng) ** rng.randint(1, p + 1)
                assert factor(f).product() == f
        assert seen
        assert all(f[0] != f.field.zero for f in seen)
