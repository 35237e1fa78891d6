"""Integer and finite-field polynomial layers, checked against sympy oracles."""

import math
import random

import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_div, gf_gcd, gf_mul, gf_pow_mod

from conftest import random_monic_polyz, random_polyz, sympy_poly
from trinogen.exactnum import INFINITY
from trinogen.polyring import (
    FqField,
    FqPoly,
    PhiDevelopment,
    PolyZ,
    _digits_mul,
    discriminant,
    get_field,
    phi_expand,
    power_charpoly,
    power_sums,
    reduce_mod,
    resultant,
    term_valuation,
)


class TestPolyZBasics:
    def test_normalization_and_degree(self):
        assert PolyZ([1, 2, 0, 0]).coeffs == (1, 2)
        assert PolyZ([]).degree == -1
        assert PolyZ([0, 0]).is_zero()
        assert PolyZ([5]).degree == 0
        assert PolyZ([0, 0, 3]).degree == 2

    def test_immutability(self):
        f = PolyZ([1, 2])
        with pytest.raises(AttributeError):
            f.coeffs = (9,)

    def test_indexing_out_of_range_is_zero(self):
        f = PolyZ([1, 2])
        assert f[0] == 1 and f[1] == 2 and f[5] == 0

    def test_str(self):
        assert str(PolyZ([8, 8, 0, 0, 0, 0, 0, 0, 1])) == "x^8 + 8*x + 8"
        assert str(PolyZ([-65] + [0] * 63 + [1])) == "x^64 - 65"
        assert str(PolyZ([8, -2, 1, 1])) == "x^3 + x^2 - 2*x + 8"
        assert str(PolyZ([])) == "0"
        assert str(PolyZ([-3])) == "-3"

    def test_ring_axioms_random(self, rng):
        for _ in range(100):
            f = random_polyz(rng)
            g = random_polyz(rng)
            h = random_polyz(rng)
            assert f + g == g + f
            assert f * g == g * f
            assert (f + g) * h == f * h + g * h
            assert f - f == PolyZ()

    def test_evaluation_hom(self, rng):
        for _ in range(100):
            f = random_polyz(rng)
            g = random_polyz(rng)
            t = rng.randint(-10, 10)
            assert (f * g)(t) == f(t) * g(t)
            assert (f + g)(t) == f(t) + g(t)

    def test_pow_matches_repeated_mul(self):
        f = PolyZ([1, 1])
        assert f**0 == PolyZ([1])
        assert f**3 == f * f * f
        assert f**5 == PolyZ([math.comb(5, i) for i in range(6)])

    def test_shift_scale_const_xpower(self):
        f = PolyZ([1, 2])
        assert f.shift(2) == PolyZ([0, 0, 1, 2])
        assert f.scale(-3) == PolyZ([-3, -6])
        assert PolyZ([7]).degree == 0
        assert PolyZ([1]).shift(3) == PolyZ([0, 0, 0, 1])
        assert PolyZ([1]).shift(2).scale(5) == PolyZ([0, 0, 5])

    def test_derivative(self):
        assert PolyZ([3, 2, 5]).derivative() == PolyZ([2, 10])
        assert PolyZ([4]).derivative().is_zero()

    def test_content_primitive(self):
        f = PolyZ([6, -9, 12])
        c, prim = f.primitive()
        assert c == 3 and prim == PolyZ([2, -3, 4])
        assert prim.scale(c) == f
        with pytest.raises(ValueError):
            PolyZ().primitive()


class TestDivrem:
    def test_requires_monic(self):
        with pytest.raises(ValueError):
            PolyZ([1, 1]).divrem(PolyZ([1, 2]))

    def test_identity_random(self, rng):
        for _ in range(200):
            den = random_monic_polyz(rng, rng.randint(1, 5))
            num = random_polyz(rng, max_deg=9)
            q, r = num.divrem(den)
            assert q * den + r == num
            assert r.degree < den.degree


class TestResultantDiscriminant:
    def test_resultant_oracle_random(self, rng):
        # Convention note: resultant(f, g) here is lc(f)^deg(g) * prod of
        # g over the roots of f.  sympy computes the same quantity except
        # that when deg f < deg g it swaps the arguments internally without
        # the (-1)^(deg f * deg g) correction, so we reapply it.
        for _ in range(150):
            f = random_polyz(rng, max_deg=6, span=12)
            g = random_polyz(rng, max_deg=6, span=12)
            if f.degree < 1 or g.degree < 1:
                continue
            raw = int(sympy.resultant(sympy_poly(f), sympy_poly(g)))
            sign = -1 if f.degree < g.degree and (f.degree * g.degree) % 2 else 1
            assert resultant(f, g) == sign * raw

    def test_resultant_root_product_convention(self):
        # f = x - 2 (single root 2), g = x^3: lc(f)^3 * g(2) = 8
        assert resultant(PolyZ([-2, 1]), PolyZ([0, 0, 0, 1])) == 8
        # swapping arguments picks up (-1)^(deg f * deg g)
        assert resultant(PolyZ([0, 0, 0, 1]), PolyZ([-2, 1])) == -8

    def test_resultant_of_shared_root(self):
        f = PolyZ([-1, 1]) * PolyZ([2, 1])  # (x-1)(x+2)
        g = PolyZ([-1, 1]) * PolyZ([5, 1])  # (x-1)(x+5)
        assert resultant(f, g) == 0

    def test_resultant_multiplicativity(self, rng):
        for _ in range(60):
            f = random_polyz(rng, max_deg=4, span=8)
            g = random_polyz(rng, max_deg=3, span=8)
            h = random_polyz(rng, max_deg=3, span=8)
            if min(f.degree, g.degree, h.degree) < 1:
                continue
            assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)

    def test_discriminant_oracle_random(self, rng):
        for _ in range(150):
            f = random_monic_polyz(rng, rng.randint(1, 7), span=9)
            expected = int(sympy.discriminant(sympy_poly(f).as_expr()))
            assert discriminant(f) == expected

    def test_discriminant_known_values(self):
        # monic quadratic x^2 + bx + c: disc = b^2 - 4c
        assert discriminant(PolyZ([3, 5, 1])) == 25 - 12
        # depressed cubic x^3 + px + q: disc = -4p^3 - 27q^2
        assert discriminant(PolyZ([2, -1, 0, 1])) == -4 * (-1) ** 3 - 27 * 4
        assert discriminant(PolyZ([7, 1])) == 1

    def test_discriminant_requires_monic(self):
        with pytest.raises(ValueError):
            discriminant(PolyZ([1, 2]))

    def test_discriminant_zero_for_repeated_root(self):
        f = PolyZ([-1, 1]) ** 2 * PolyZ([3, 1])
        assert discriminant(f) == 0


class TestPowerSumsCharpoly:
    def test_power_sums_against_roots(self):
        # power_sums returns [t_1, ..., t_count]; roots here are 2, 3, -1
        f = PolyZ([-2, 1]) * PolyZ([-3, 1]) * PolyZ([1, 1])
        sums = power_sums(f, 7)
        for k in range(1, 8):
            assert sums[k - 1] == 2**k + 3**k + (-1) ** k

    def test_power_sums_match_dense_newton_loop(self, rng):
        # The Newton identities summed over every coefficient, zero or not.
        def dense(f, count):
            n, c = f.degree, f.coeffs
            t = [0] * (count + 1)
            for k in range(1, count + 1):
                acc = -k * c[n - k] if k <= n else 0
                for i in range(1, min(k - 1, n) + 1):
                    acc -= c[n - i] * t[k - i]
                t[k] = acc
            return t[1:]

        polys = [PolyZ([-2, 1]) * PolyZ([-3, 1]) * PolyZ([1, 1]), PolyZ([5, 0, 0, 0, 0, 1])]
        polys += [random_monic_polyz(rng, rng.randint(1, 9), span=40) for _ in range(20)]
        for n, m, a, b in ((16, 1, -93, 7), (24, 7, 5, -20), (48, 7, -93, -20), (7, 6, 3, 0)):
            polys.append(PolyZ([b] + [0] * (m - 1) + [a] + [0] * (n - m - 1) + [1]))
        for f in polys:
            n = f.degree
            for count in (0, 1, n - 1, n, n + 1, 3 * n + 2):
                if count >= 0:
                    assert power_sums(f, count) == dense(f, count), (f, count)

    def test_power_charpoly_oracle(self, rng):
        # Convention-free oracle: the characteristic polynomial of the k-th
        # power of the companion matrix of f is exactly prod (x - theta^k).
        for _ in range(40):
            deg = rng.randint(1, 5)
            f = random_monic_polyz(rng, deg, span=6)
            k = rng.randint(1, 4)
            got = power_charpoly(f, k)
            companion = sympy.Matrix(
                deg,
                deg,
                lambda i, j: (
                    1 if j == i - 1 else (-f.coeffs[i] if j == deg - 1 else 0)
                ),
            )
            expected = (companion**k).charpoly()
            assert list(reversed(got.coeffs)) == [
                int(c) for c in expected.all_coeffs()
            ]

    def test_power_charpoly_k1_is_identity(self, rng):
        for _ in range(20):
            f = random_monic_polyz(rng, rng.randint(1, 6))
            assert power_charpoly(f, 1) == f

    def test_power_charpoly_explicit(self):
        # theta^2 for x^2 - 2: both roots square to 2, charpoly (x-2)^2
        assert power_charpoly(PolyZ([-2, 0, 1]), 2) == PolyZ([4, -4, 1])


class TestPhiExpand:
    def test_reconstruction_and_shape(self, rng):
        for _ in range(150):
            F = random_monic_polyz(rng, rng.randint(1, 10), span=20)
            dphi = rng.randint(1, max(1, F.degree))
            phi = random_monic_polyz(rng, dphi, span=6)
            p = rng.choice((2, 3, 5))
            dev = phi_expand(F, phi, p)
            assert isinstance(dev, PhiDevelopment)
            assert len(dev.terms) == F.degree // phi.degree + 1
            total = PolyZ()
            for i, term in enumerate(dev.terms):
                assert term.degree < phi.degree
                total = total + term * phi**i
            assert total == F
            for term, v in zip(dev.terms, dev.vals):
                assert v == term_valuation(p, term)

    def test_term_valuation(self):
        assert term_valuation(2, PolyZ([4, 6])) == 1
        assert term_valuation(2, PolyZ()) is INFINITY
        assert term_valuation(3, PolyZ([9, 27, 18])) == 2

    def test_known_development(self):
        # x^4 + 1 around phi = x^2: terms 1, 0, 1
        dev = phi_expand(PolyZ([1, 0, 0, 0, 1]), PolyZ([0, 0, 1]), 2)
        assert dev.terms == (PolyZ([1]), PolyZ(), PolyZ([1]))
        assert dev.vals == (0, INFINITY, 0)


class TestFqField:
    def test_prime_field_basics(self):
        F = get_field(5)
        assert F.order == 5 and F.deg == 1
        assert (F.zero, F.one) == (0, 1)
        assert F.elem([7]) == F.elem(7) == F.elem([2, 3]) == 2
        assert F.add(3, 4) == 2
        assert F.sub(3, 4) == 4
        assert F.mul(3, 4) == 2
        assert F.inv(3) == 2
        assert F.neg(1) == 4
        assert F.smul(7, 3) == 1
        assert F.pow(3, 2) == 4 and F.pow(3, -1) == 2 and F.pow(0, 0) == 1
        assert F.from_int(12) == 2 and F.to_int(4) == 4
        for e in (F.elem([7]), F.add(3, 4), F.mul(3, 4), F.inv(3), F.from_int(12)):
            assert type(e) is int

    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            FqField(6)

    def test_rejects_reducible_modulus(self):
        with pytest.raises(ValueError):
            FqField(2, (1, 0, 1))  # t^2 + 1 = (t+1)^2 over F_2

    def test_f4_structure(self):
        F = get_field(2, (1, 1, 1))  # t^2 + t + 1
        assert F.order == 4
        els = [F.from_int(k) for k in range(F.order)]
        assert len(els) == 4 and len(set(els)) == 4
        t = F.elem([0, 1])
        assert F.mul(t, t) == F.add(t, F.one)  # t^2 = t + 1
        # multiplicative group has order 3
        for e in els:
            if any(e):
                assert F.pow(e, 3) == F.one

    def test_field_axioms_f9(self):
        F = get_field(3, (1, 0, 1))  # t^2 + 1 irreducible over F_3
        els = [F.from_int(k) for k in range(F.order)]
        assert len(els) == 9
        for a in els:
            assert F.add(a, F.neg(a)) == F.zero
            if any(a):
                assert F.mul(a, F.inv(a)) == F.one
            assert F.pow(a, F.order) == a  # Frobenius fixed by q-power
        rng = random.Random(7)
        for _ in range(100):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.mul(a, b) == F.mul(b, a)

    def test_packed_int_round_trip(self):
        F = get_field(3, (1, 0, 1))
        for k in range(F.order):
            assert F.to_int(F.from_int(k)) == k

    def test_inverse_of_zero_raises(self):
        F = get_field(7)
        with pytest.raises(ZeroDivisionError):
            F.inv(F.zero)

    def test_elem_reduces_long_digit_strings(self):
        F = get_field(2, (1, 1, 1))
        # t^2 -> t + 1 under the modulus
        assert F.elem([0, 0, 1]) == (1, 1)

    def test_get_field_caches(self):
        assert get_field(5) is get_field(5)
        assert get_field(2, (1, 1, 1)) is get_field(2, (1, 1, 1))

    def test_elem_str(self):
        F = get_field(2, (1, 1, 1))
        assert F.elem_str(F.elem([1, 1])) == "t+1"
        assert F.elem_str(F.zero) == "0"
        assert get_field(5).elem_str(3) == "3"
        assert get_field(5).elem_str(get_field(5).zero) == "0"


class TestFqPoly:
    def test_divrem_identity_random(self, rng):
        F = get_field(3, (1, 0, 1))
        els = [F.from_int(k) for k in range(F.order)]
        for _ in range(100):
            num = F.poly([rng.choice(els) for _ in range(rng.randint(1, 8))])
            den = F.poly([rng.choice(els) for _ in range(rng.randint(1, 4))])
            if den.is_zero():
                continue
            q, r = num.divrem(den)
            assert q * den + r == num
            assert r.is_zero() or r.degree < den.degree

    def test_gcd_monic_and_divides(self, rng):
        F = get_field(2)
        for _ in range(100):
            f = F.poly([rng.randint(0, 1) for _ in range(rng.randint(1, 7))])
            g = F.poly([rng.randint(0, 1) for _ in range(rng.randint(1, 7))])
            if f.is_zero() and g.is_zero():
                continue
            d = f.gcd(g)
            assert d.is_monic()
            if not f.is_zero():
                assert (f % d).is_zero()
            if not g.is_zero():
                assert (g % d).is_zero()

    def test_gcd_of_zeros_raises(self):
        F = get_field(2)
        z = F.poly([])
        with pytest.raises(ValueError):
            z.gcd(z)

    def test_pow_mod(self, rng):
        F = get_field(5)
        f = F.poly([1, 1])  # x + 1
        mod = F.poly([1, 0, 0, 1])  # x^3 + 1
        direct = f
        for e in range(2, 12):
            direct = (direct * f) % mod
            assert f.pow_mod(e, mod) == direct % mod

    def test_eval_and_derivative(self):
        F = get_field(7)
        f = F.poly([3, 2, 5])  # 5x^2 + 2x + 3
        assert f(F.elem([2])) == F.elem([5 * 4 + 2 * 2 + 3])
        assert f.derivative() == F.poly([2, 10])

    def test_str_rendering(self):
        F2 = get_field(2)
        assert str(F2.poly([1, 1])) == "y + 1"
        F4 = get_field(2, (1, 1, 1))
        assert str(F4.poly([(1, 1), (1, 0)])) == "y + t+1"

    def test_sort_key_orders_by_degree_then_coeffs(self):
        F = get_field(3)
        polys = [F.poly([2, 1]), F.poly([1, 1]), F.poly([0, 0, 1])]
        ordered = sorted(polys, key=lambda g: g.sort_key())
        assert ordered[0] == F.poly([1, 1])
        assert ordered[-1] == F.poly([0, 0, 1])

    def test_reduce_mod(self):
        f = PolyZ([7, 8] + [0] * 14 + [1])
        fbar = reduce_mod(f, 2)
        F = get_field(2)
        assert fbar == F.poly([1] + [0] * 15 + [1])
        assert reduce_mod(PolyZ([4, 6]), 2).is_zero()

    def test_cmul_and_monic(self):
        F = get_field(5)
        f = F.poly([1, 2, 3])
        assert f.cmul(F.elem([2])) == F.poly([2, 4, 6])
        m = f.monic()
        assert m.is_monic()
        assert m.cmul(f.leading) == f


# The least prime above 2^32: even a product of two digits needs a slot wider
# than 8 bytes.
BIG_PRIME = 2**32 + 15


def _schoolbook_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out]


class TestDigitsMul:
    """_digits_mul packs 1-, 2-, 4- and 8-byte slots as arrays, wider ones as bytes."""

    @staticmethod
    def _operands(bits: int):
        # A prime p and a length whose all-(p-1) product has a coefficient of
        # exactly ``bits`` bits, the most a slot has to hold.
        for length in (1, 2, 3, 5, 7):
            p = math.isqrt((1 << (bits - 1)) // length) + 1
            while not sympy.isprime(p):
                p += 1
            if ((p - 1) ** 2 * length).bit_length() == bits:
                return p, length
        raise AssertionError(f"no operands for {bits} bits")  # pragma: no cover

    @pytest.mark.parametrize("bits", [8, 9, 16, 17, 32, 33, 64, 65])
    def test_every_slot_width_against_schoolbook(self, bits, rng):
        p, length = self._operands(bits)
        top = [p - 1] * length
        for la, lb in ((length, length), (length, length + 4), (length + 9, length)):
            a = top + [rng.randrange(p) for _ in range(la - length)]
            b = top + [rng.randrange(p) for _ in range(lb - length)]
            rng.shuffle(a)
            assert _digits_mul(a, b, p) == _schoolbook_mul(a, b, p)
            assert _digits_mul(b, a, p) == _schoolbook_mul(b, a, p)

    def test_prime_above_two_to_the_32(self, rng):
        p = BIG_PRIME
        assert sympy.isprime(p)
        for la, lb in ((1, 1), (3, 8), (20, 17)):
            a = [rng.randrange(p) for _ in range(la)]
            b = [rng.randrange(p) for _ in range(lb)]
            assert _digits_mul(a, b, p) == _schoolbook_mul(a, b, p)
            assert _digits_mul([p - 1] * la, [p - 1] * lb, p) == _schoolbook_mul(
                [p - 1] * la, [p - 1] * lb, p
            )

    def test_small_primes_and_zero_digits(self, rng):
        for p in (2, 3, 5, 7, 251, 257):
            for _ in range(30):
                a = [rng.randrange(p) for _ in range(rng.randint(1, 60))]
                b = [rng.choice((0, p - 1, rng.randrange(p))) for _ in range(rng.randint(1, 60))]
                assert _digits_mul(a, b, p) == _schoolbook_mul(a, b, p)
        assert _digits_mul([], [1, 2], 3) == [] and _digits_mul([1], [], 3) == []


def _gf(f: FqPoly) -> list[int]:
    """A prime-field FqPoly as a sympy galoistools list (descending, ints)."""
    assert all(type(c) is int and 0 <= c < f.field.p for c in f.coeffs)
    return list(reversed(f.coeffs))


class TestPrimeFieldDigitArithmetic:
    """Over F_p, FqPoly's product, division and pow_mod run on packed digit lists."""

    PRIMES = (2, 3, 5, 7, 257, 10007, 999983, BIG_PRIME)

    def _poly(self, F, rng, length, top=None):
        digits = [rng.randrange(F.p) for _ in range(length)]
        if top is not None and length:
            digits[-1] = top
        return F.poly(digits)

    def test_mul_and_divrem_against_sympy(self, rng):
        for p in self.PRIMES:
            F = get_field(p)
            for _ in range(40):
                f = self._poly(F, rng, rng.randint(0, 70))
                g = self._poly(F, rng, rng.randint(1, 40), top=rng.randrange(1, p))
                assert _gf(f * g) == gf_mul(_gf(f), _gf(g), p, ZZ)
                q, r = f.divrem(g)
                assert (_gf(q), _gf(r)) == gf_div(_gf(f), _gf(g), p, ZZ)

    def test_product_of_largest_digits(self):
        # Every coefficient of the product over Z reaches min(len)*(p-1)^2,
        # the most a packed slot has to hold.
        for p in self.PRIMES:
            F = get_field(p)
            for la, lb in ((1, 1), (1, 64), (64, 64), (200, 3)):
                f, g = F.poly([p - 1] * la), F.poly([p - 1] * lb)
                assert _gf(f * g) == gf_mul(_gf(f), _gf(g), p, ZZ)

    def test_pow_mod_against_sympy(self, rng):
        for p in self.PRIMES:
            F = get_field(p)
            for _ in range(6):
                mod = self._poly(F, rng, rng.randint(1, 50), top=rng.randrange(1, p))
                f = self._poly(F, rng, rng.randint(0, 80))
                d = rng.randint(1, 6)
                for e in (0, 1, 2, p, (p**d - 1) // 2, rng.getrandbits(32)):
                    expected = gf_pow_mod(_gf(f), e, _gf(mod), p, ZZ)
                    if e == 0:
                        expected = [1]  # pow_mod(0, mod) is 1, unreduced
                    assert _gf(f.pow_mod(e, mod)) == expected

    def test_gcd_against_sympy(self, rng):
        for p in self.PRIMES + (BIG_PRIME,):
            F = get_field(p)
            common = self._poly(F, rng, rng.randint(1, 6), top=1)
            for _ in range(20):
                f = self._poly(F, rng, rng.randint(0, 30))
                g = self._poly(F, rng, rng.randint(0, 30))
                if rng.random() < 0.5:
                    f, g = f * common, g * common
                if f.is_zero() and g.is_zero():
                    continue
                got = f.gcd(g)
                assert _gf(got) == gf_gcd(_gf(f), _gf(g), p, ZZ)
                assert got.is_monic()

    def test_zero_operands(self):
        F = get_field(5)
        zero, f = F.poly([]), F.poly([1, 2, 3])
        assert (zero * f).is_zero() and (f * zero).is_zero()
        assert f.divrem(f) == (F.poly([1]), zero)
        assert zero.pow_mod(3, f).is_zero()
        with pytest.raises(ZeroDivisionError):
            f.divrem(zero)
        with pytest.raises(ZeroDivisionError):
            f.pow_mod(2, zero)
