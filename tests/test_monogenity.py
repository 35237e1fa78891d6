"""Tests for the monogenity certificate pipeline.

Fixture expectations were frozen from independent computations: discriminants
against the resultant-based implementation and sympy, irreducibility against
sympy's factorization, alpha minimal polynomials against a direct
companion-matrix + rescaling recomputation, and congruence screens against
exhaustive residue enumeration.
"""

import math
import random

import pytest
import sympy

from trinogen import monogenity, newton, ore
from trinogen.cli import build_report
from trinogen.exactnum import count_monic_irreducibles, strip_p, valp
from trinogen.monogenity import (
    AlphaCert,
    MonogenityVerdict,
    SquarefreeStatus,
    Trinomial,
    VerdictKind,
    check_alpha_generator,
    check_congruence_obstruction,
    common_index_divisor,
    disc_trinomial,
    irreducibility_certificate,
    squarefree_status,
    verdict,
)
from trinogen.ore import factor_p
from trinogen.polyring import PolyZ, discriminant, phi_expand, power_charpoly

from conftest import known_answer, sympy_poly


def sympy_irreducible(f: PolyZ) -> bool:
    poly = sympy_poly(f)
    if poly.degree() < 1:
        return False
    _, factors = poly.factor_list()
    return len(factors) == 1 and factors[0][1] == 1 and factors[0][0].degree() == f.degree


# -- the trinomial container -------------------------------------------------------


class TestTrinomial:
    def test_fields(self):
        T = Trinomial(8, 1, 12, 3)
        assert (T.n, T.m, T.a, T.b) == (8, 1, 12, 3)

    @pytest.mark.parametrize(
        "n, m, b",
        [(1, 1, 3), (0, 1, 3), (4, 0, 3), (4, 4, 3), (4, 5, 3), (4, 1, 0)],
    )
    def test_rejects_bad_shape(self, n, m, b):
        with pytest.raises(ValueError):
            Trinomial(n, m, 1, b)

    def test_power_of_two_exponent(self):
        assert Trinomial(2, 1, 1, 1).r == 1
        assert Trinomial(8, 1, 1, 1).r == 3
        assert Trinomial(64, 1, 1, 1).r == 6
        assert Trinomial(12, 1, 1, 1).r is None
        assert Trinomial(6, 1, 1, 1).r is None

    def test_poly(self):
        assert Trinomial(8, 1, 8, 8).poly() == PolyZ((8, 8, 0, 0, 0, 0, 0, 0, 1))
        assert Trinomial(4, 2, -3, 5).poly() == PolyZ((5, 0, -3, 0, 1))
        assert Trinomial(2, 1, 0, -1).poly() == PolyZ((-1, 0, 1))

    def test_str(self):
        assert str(Trinomial(8, 1, 8, 8)) == "x^8 + 8*x + 8"
        assert str(Trinomial(8, 1, -1, 3)) == "x^8 - x + 3"
        assert str(Trinomial(64, 1, 0, -65)) == "x^64 - 65"
        assert str(Trinomial(16, 15, 24, 8)) == "x^16 + 24*x^15 + 8"
        assert str(Trinomial(2, 1, 1, -1)) == "x^2 + x - 1"
        assert str(Trinomial(16, 15, -1, 1)) == "x^16 - x^15 + 1"
        assert str(Trinomial(8, 3, 1, -1)) == "x^8 + x^3 - 1"
        assert str(Trinomial(8, 1, 0, 5)) == "x^8 + 5"

    def test_frozen(self):
        T = Trinomial(4, 1, 1, 1)
        with pytest.raises(AttributeError):
            T.n = 5


# -- discriminants ------------------------------------------------------------------


class TestDiscTrinomial:
    def test_quadratic_closed_form(self):
        for a in range(-6, 7):
            for b in range(-6, 7):
                if b == 0:
                    continue
                assert disc_trinomial(Trinomial(2, 1, a, b)) == a * a - 4 * b

    def test_depressed_cubic_closed_form(self):
        for a in range(-5, 6):
            for b in range(-5, 6):
                if b == 0:
                    continue
                expected = -4 * a**3 - 27 * b**2
                assert disc_trinomial(Trinomial(3, 1, a, b)) == expected

    def test_known_values(self):
        assert disc_trinomial(Trinomial(8, 1, 8, 8)) == 2**24 * 1273609
        assert valp(2, disc_trinomial(Trinomial(16, 15, 24, 8))) == 90

    def test_matches_resultant_implementation(self, rng):
        for _ in range(200):
            n = rng.randrange(2, 13)
            m = rng.randrange(1, n)
            a = rng.randrange(-30, 31)
            b = rng.choice([x for x in range(-30, 31) if x != 0])
            T = Trinomial(n, m, a, b)
            assert disc_trinomial(T) == discriminant(T.poly()), (n, m, a, b)

    def test_zero_exactly_at_repeated_roots(self):
        # x^2 + 2x + 1 = (x + 1)^2
        assert disc_trinomial(Trinomial(2, 1, 2, 1)) == 0
        # x^4 + 4x + 3 has the repeated root -1
        assert disc_trinomial(Trinomial(4, 1, 4, 3)) == 0


# -- squarefree statuses -------------------------------------------------------------


class TestSquarefreeStatus:
    def test_enum_wire_values(self):
        assert SquarefreeStatus.SQUARE_FREE.value == "SquareFree"
        assert SquarefreeStatus.NOT_SQUARE_FREE.value == "NotSquareFree"
        assert SquarefreeStatus.UNKNOWN.value == "Unknown"

    def test_units_and_signs(self):
        assert squarefree_status(1) is SquarefreeStatus.SQUARE_FREE
        assert squarefree_status(-1) is SquarefreeStatus.SQUARE_FREE
        assert squarefree_status(-30) is SquarefreeStatus.SQUARE_FREE

    def test_small_composites(self):
        assert squarefree_status(12) is SquarefreeStatus.NOT_SQUARE_FREE
        assert squarefree_status(30) is SquarefreeStatus.SQUARE_FREE
        assert squarefree_status(49) is SquarefreeStatus.NOT_SQUARE_FREE
        assert squarefree_status(2 * 3 * 5 * 7 * 11 * 13) is SquarefreeStatus.SQUARE_FREE

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_status(0)

    def test_bound_controls_certainty(self):
        # 221 = 13 * 17 is fully factored below the bound; a product of the
        # two primes just above 10**6 is left whole, so nothing is proved.
        assert squarefree_status(221) is SquarefreeStatus.SQUARE_FREE
        assert squarefree_status(1000003 * 1000033) is SquarefreeStatus.UNKNOWN

    def test_perfect_power_cofactor_detected_past_bound(self):
        # Squares of the first prime past the bound and of one ten times as large.
        for p in (1000003, 10**7 + 19):
            assert squarefree_status(p * p) is SquarefreeStatus.NOT_SQUARE_FREE

    def test_certified_prime_cofactor_past_bound(self):
        # 10^12 + 39 is prime, above the bound's square, and small enough for
        # the deterministic test.
        assert squarefree_status(10**12 + 39) is SquarefreeStatus.SQUARE_FREE
        assert squarefree_status(6 * (10**12 + 39)) is SquarefreeStatus.SQUARE_FREE

    def test_certified_prime_cofactor_needs_no_perfect_power(self, monkeypatch):
        def no_perfect_power(t):
            raise AssertionError(f"perfect_power({t}) called on a certified prime")

        monkeypatch.setattr(monogenity, "perfect_power", no_perfect_power)
        assert squarefree_status(10**12 + 39) is SquarefreeStatus.SQUARE_FREE

    @pytest.mark.parametrize(
        "t,expected",
        [
            (1273609, SquarefreeStatus.SQUARE_FREE),  # a prime between the bound and its square
            (1273609**2, SquarefreeStatus.NOT_SQUARE_FREE),  # its square
            (1000003 * 1000033, SquarefreeStatus.UNKNOWN),  # two primes above the bound
            (2**89 - 1, SquarefreeStatus.UNKNOWN),  # prime above MR_CERTIFIED_BOUND
        ],
    )
    def test_cofactor_statuses(self, t, expected):
        assert squarefree_status(t) is expected

    def test_uncertifiable_prime_is_unknown(self):
        # 2^89 - 1 is prime but beyond the deterministic-certificate range,
        # so claiming SquareFree would overstate what was proved.
        assert squarefree_status(2**89 - 1) is SquarefreeStatus.UNKNOWN

    def test_squarefull_by_construction(self, rng):
        primes = (2, 3, 5, 7, 11, 13, 97)
        for _ in range(100):
            s = rng.choice(primes)
            u = rng.randrange(1, 10**4)
            assert squarefree_status(s * s * u) is SquarefreeStatus.NOT_SQUARE_FREE


# -- irreducibility certificates ------------------------------------------------------


class TestIrreducibilityCertificate:
    def test_eisenstein_route(self):
        cert = irreducibility_certificate(Trinomial(8, 1, 12, 3))
        assert cert is not None
        assert (cert.route, cert.p) == ("eisenstein", 3)

    def test_eisenstein_route_zero_middle(self):
        cert = irreducibility_certificate(Trinomial(64, 1, 0, -65))
        assert cert is not None
        assert (cert.route, cert.p) == ("eisenstein", 5)

    def test_one_sided_polygon_route(self):
        cert = irreducibility_certificate(Trinomial(8, 1, 8, 8))
        assert cert is not None
        assert (cert.route, cert.p) == ("one_sided_polygon", 2)

    def test_one_sided_polygon_route_high_m(self):
        cert = irreducibility_certificate(Trinomial(16, 15, 24, 8))
        assert cert is not None
        assert (cert.route, cert.p) == ("one_sided_polygon", 2)

    def test_none_when_no_shared_prime(self):
        # x^2 + x - 1 is irreducible, but no certificate route applies:
        # the answer is honestly None, never a reducibility claim.
        assert irreducibility_certificate(Trinomial(2, 1, 1, -1)) is None
        assert irreducibility_certificate(Trinomial(16, 1, 8, 7)) is None

    def test_none_on_reducible_inputs(self):
        assert irreducibility_certificate(Trinomial(4, 1, 0, -1)) is None
        assert irreducibility_certificate(Trinomial(2, 1, 3, 2)) is None

    def test_rejects_when_hypotheses_fail(self):
        # nu_2(b) = 2 shares a factor with n = 8 and is not 1: no route.
        assert irreducibility_certificate(Trinomial(8, 1, 4, 4)) is None

    def test_certificates_are_sound(self, rng):
        checked = 0
        for _ in range(150):
            n = rng.randrange(2, 11)
            m = rng.randrange(1, n)
            a = rng.randrange(-40, 41)
            b = rng.choice([x for x in range(-40, 41) if x != 0])
            T = Trinomial(n, m, a, b)
            cert = irreducibility_certificate(T)
            if cert is None:
                continue
            checked += 1
            assert sympy_irreducible(T.poly()), (n, m, a, b, cert)
            if cert.route == "eisenstein":
                assert valp(cert.p, b) == 1
                assert a == 0 or valp(cert.p, a) >= 1
            else:
                assert math.gcd(n, valp(cert.p, b)) == 1
        assert checked >= 10


# -- the alpha = theta**x / p**y construction -----------------------------------------


ALPHA_H_8_1_8_8 = PolyZ((2, 4, 0, -6, 0, 0, 0, 0, 1))
ALPHA_H_16_1_8_56 = PolyZ(
    (3954653486, 8, 105644, 126825622, 0, -308, 1109262, 0, 0, 2156, 0, 0, 0, 0, 0, 0, 1)
)


def recompute_alpha_min_poly(T: Trinomial, cert: AlphaCert) -> PolyZ:
    """Independent reconstruction: char poly of theta**x, rescaled by p**y."""
    G = power_charpoly(T.poly(), cert.x)
    coeffs = []
    for i, c in enumerate(G.coeffs):
        scale = cert.p ** (cert.y * (T.n - i))
        q, rem = divmod(c, scale)
        assert rem == 0
        coeffs.append(q)
    return PolyZ(coeffs)


def one_sided_index(T: Trinomial, p: int) -> int:
    """The lattice index of T's phi = x polygon at p, built here."""
    dev = phi_expand(T.poly(), PolyZ((0, 1)), p)
    return newton.phi_index(newton.principal_polygon(newton.point_cloud(dev)), 1)


class TestCheckAlphaGenerator:
    def test_full_certificate(self):
        T = Trinomial(8, 1, 8, 8)
        cert = check_alpha_generator(T)
        assert cert is not None
        assert (cert.p, cert.k, cert.x, cert.y) == (2, 3, 3, 1)
        assert one_sided_index(T, cert.p) == 7
        assert monogenity._is_eisenstein(cert.H, cert.p)
        assert cert.deltap_status is SquarefreeStatus.SQUARE_FREE
        assert cert.H == ALPHA_H_8_1_8_8

    def test_certificate_with_unresolved_squarefreeness(self):
        T = Trinomial(16, 1, 8, 56)
        cert = check_alpha_generator(T)
        assert cert is not None
        assert (cert.p, cert.k, cert.x, cert.y) == (2, 3, 11, 2)
        assert one_sided_index(T, cert.p) == 15
        assert cert.deltap_status is SquarefreeStatus.UNKNOWN
        assert cert.H == ALPHA_H_16_1_8_56

    def test_min_poly_matches_independent_reconstruction(self):
        for T in (Trinomial(8, 1, 8, 8), Trinomial(16, 1, 8, 56), Trinomial(4, 2, 8, 8)):
            cert = check_alpha_generator(T)
            assert cert is not None
            assert cert.H == recompute_alpha_min_poly(T, cert)

    def test_min_poly_is_eisenstein(self):
        for T in (Trinomial(8, 1, 8, 8), Trinomial(16, 1, 8, 56)):
            cert = check_alpha_generator(T)
            H, p = cert.H, cert.p
            assert H.is_monic() and H.degree == T.n
            assert valp(p, H[0]) == 1
            assert all(H[i] % p == 0 for i in range(1, H.degree))

    def test_polygon_index_closed_form(self):
        # The report writes the closed form; the polygon built here agrees.
        for T in (Trinomial(8, 1, 8, 8), Trinomial(16, 1, 8, 56), Trinomial(4, 2, 8, 8)):
            cert = check_alpha_generator(T)
            closed_form = (T.n - 1) * (cert.k - 1) // 2
            assert one_sided_index(T, cert.p) == closed_form
            alpha = build_report(T, verdict(T))["verdict"]["alpha"]
            assert alpha["polygon_index"] == str(closed_form)

    def test_exponent_identity(self):
        # k*x = 1 + n*y is what makes theta**x / p**y work.
        for T in (Trinomial(8, 1, 8, 8), Trinomial(16, 1, 8, 56)):
            cert = check_alpha_generator(T)
            assert cert.k * cert.x == 1 + T.n * cert.y

    def test_hypotheses_rejections(self):
        # nu_2(b) = 1 < 2
        assert check_alpha_generator(Trinomial(8, 1, 2, 2)) is None
        # gcd(n, nu_2(b)) = 2
        assert check_alpha_generator(Trinomial(8, 1, 4, 4)) is None
        # n*nu_2(a) = 8 is not > (n-m)*k = 21
        assert check_alpha_generator(Trinomial(8, 1, 2, 8)) is None
        # no prime divides both a and b
        assert check_alpha_generator(Trinomial(8, 1, 3, 8)) is None

    def test_zero_discriminant_returns_none(self):
        assert check_alpha_generator(Trinomial(2, 1, 2, 1)) is None

    def test_square_factor_certifies_nothing(self):
        # x^8 + 27 passes the gate at p = 3 with k = 3, but disc with its
        # 3-part removed is 2^24, so no certificate is returned.
        T = Trinomial(8, 1, 0, 27)
        assert strip_p(3, disc_trinomial(T)).unit_part == 2**24
        assert check_alpha_generator(T) is None
        v = verdict(T)
        assert v.kind is VerdictKind.INCONCLUSIVE and v.alpha is None


def alpha_index(T: Trinomial) -> tuple[int, int]:
    """(p, D) for T's alpha certificate, with D = [Z[theta] : Z[theta**x]]
    read off D**2 = disc(G) / disc(F) for G = power_charpoly(F, x)."""
    cert = check_alpha_generator(T)
    G = power_charpoly(T.poly(), cert.x)
    square, rem = divmod(discriminant(G), disc_trinomial(T))
    D = math.isqrt(square)
    assert rem == 0 and D * D == square
    return cert.p, D


def is_power_of(p: int, D: int) -> bool:
    while D % p == 0:
        D //= p
    return D == 1


class TestAlphaIndexRule:
    """Z[alpha] = Z_K needs D = p**j: a prime q != p dividing D makes
    Z_(q)[alpha] = Z_(q)[theta**x] a proper subring of Z_(q)[theta]."""

    def test_sound_certificate(self):
        # x = 7 here, and D is a power of b = 2**7.
        assert alpha_index(Trinomial(8, 1, 128, 128)) == (2, 2**147)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 1: the alpha route does not test D; for x^8+8x+8 "
        "D = 7 * 2^21, refuted at q = 7",
    )
    def test_refuted_at_7(self):
        p, D = alpha_index(Trinomial(8, 1, 8, 8))
        assert is_power_of(p, D)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 1: the alpha route does not test D; for "
        "x^16+24x^15+8 it is refuted at q = 23, 43, 89, 241 and 2333",
    )
    def test_refuted_at_five_primes(self):
        p, D = alpha_index(Trinomial(16, 15, 24, 8))
        assert is_power_of(p, D)


class TestCheckAlphaGeneratorPow2:
    """The paper's power-of-two criterion, checked against
    ``check_alpha_generator`` and ``verdict``: for n = 2**r and a prime p with
    nu_p(a) >= nu_p(b) = k >= 3 and k odd, where disc with its p-part removed
    has no proved square factor, alpha = theta**x / p**y generates Z_K.
    ``TestPerPrimeGates.expected_pow2`` states those hypotheses."""

    ALPHA_KINDS = (
        VerdictKind.POLY_NOT_MONOGENIC_FIELD_MONOGENIC,
        VerdictKind.POLY_NOT_MONOGENIC_FIELD_CONDITIONAL,
    )

    def certified(self, T):
        """The certificate the criterion predicts, which the verdict carries."""
        ok, fields = TestPerPrimeGates.expected_pow2(T)
        cert = check_alpha_generator(T)
        assert ok and TestPerPrimeGates.fields(cert) == fields
        v = verdict(T)
        assert v.kind in self.ALPHA_KINDS and v.alpha == cert
        return cert

    def rejected(self, T):
        assert TestPerPrimeGates.expected_pow2(T) == (False, None)
        assert check_alpha_generator(T) is None
        assert verdict(T).kind not in self.ALPHA_KINDS

    def test_applies(self):
        cert = self.certified(Trinomial(8, 1, 8, 8))
        assert (cert.p, cert.x, cert.y) == (2, 3, 1)

    def test_applies_high_m(self):
        cert = self.certified(Trinomial(16, 15, 24, 8))
        assert (cert.x, cert.y) == (11, 2)

    def test_applies_zero_a(self):
        cert = self.certified(Trinomial(8, 1, 0, 8))
        assert cert.p == 2 and cert.k == 3

    def test_rejects_shallow_a(self):
        # nu_2(a) = 2 < nu_2(b) = 3
        self.rejected(Trinomial(8, 1, 4, 8))

    def test_rejects_even_or_small_k(self):
        self.rejected(Trinomial(8, 1, 16, 16))  # k = 4 even
        self.rejected(Trinomial(8, 1, 4, 4))  # k = 2
        self.rejected(Trinomial(8, 1, 2, 2))  # k = 1

    def test_success_invariants(self):
        cert = self.certified(Trinomial(16, 1, 32, 32))
        assert cert.k >= 3 and cert.k % 2 == 1
        assert cert.deltap_status is not SquarefreeStatus.NOT_SQUARE_FREE


class TestPerPrimeGates:
    """The three criteria against their per-prime gates, written out here.

    Each gate is stated as its own hypotheses at one prime p dividing
    gcd(a, b) (or b when a = 0), and the certificate fields are rebuilt
    from the characteristic polynomial of theta**x, so the test shares no
    gate or selection code with the module.
    """

    @staticmethod
    def sample(count=3000, seed=20261019):
        rng = random.Random(seed)
        degrees = list(range(2, 13)) + [16, 32]
        # Cofactors with squares and cubes give a second prime a k >= 2.
        units = (1, 2, 3, 5, 7, 9, 25, 27, 125)
        for _ in range(count):
            n = rng.choice(degrees)
            m = rng.randrange(1, n)
            p = rng.choice((2, 3, 5))
            b = rng.choice((-1, 1)) * p ** rng.randint(1, 6) * rng.choice(units)
            if rng.random() < 0.15:
                a = 0
            else:
                a = rng.choice((-1, 1)) * p ** rng.randint(0, 7) * rng.choice(units)
            yield Trinomial(n, m, a, b)

    @staticmethod
    def primes(T):
        return sympy.primefactors(T.b if T.a == 0 else math.gcd(T.a, T.b))

    @staticmethod
    def one_sided(T, p):
        k = valp(p, T.b)
        if math.gcd(T.n, k) != 1:
            return False
        return T.a == 0 or T.n * valp(p, T.a) > (T.n - T.m) * k

    @classmethod
    def alpha_fields(cls, T, p):
        k = valp(p, T.b)
        x = pow(k, -1, T.n)
        y = (k * x - 1) // T.n
        G = power_charpoly(T.poly(), x)
        H = PolyZ(c // p ** (y * (T.n - i)) for i, c in enumerate(G.coeffs))
        status = squarefree_status(strip_p(p, disc_trinomial(T)).unit_part)
        return (p, k, x, y, H, status)

    @classmethod
    def expected_irreducibility(cls, T):
        for p in cls.primes(T):
            if valp(p, T.b) == 1 and T.a % p == 0:
                return ("eisenstein", p)
            if cls.one_sided(T, p):
                return ("one_sided_polygon", p)
        return None

    @classmethod
    def alpha_primes(cls, T):
        return [
            p
            for p in cls.primes(T)
            if valp(p, T.b) >= 2
            and math.gcd(T.n, valp(p, T.b)) == 1
            and cls.one_sided(T, p)
        ]

    @classmethod
    def expected_alpha(cls, T):
        if disc_trinomial(T) == 0:
            return None
        found = [cls.alpha_fields(T, p) for p in cls.alpha_primes(T)]
        for status in (SquarefreeStatus.SQUARE_FREE, SquarefreeStatus.UNKNOWN):
            for fields in found:
                if fields[-1] is status:
                    return fields
        return None

    @classmethod
    def expected_pow2(cls, T):
        if T.r is None:
            return False, None
        for p in cls.primes(T):
            k = valp(p, T.b)
            if k < 3 or k % 2 == 0 or (T.a != 0 and valp(p, T.a) < k):
                continue
            assert cls.one_sided(T, p)
            fields = cls.alpha_fields(T, p)
            if fields[-1] is not SquarefreeStatus.NOT_SQUARE_FREE:
                return True, fields
        return False, None

    @staticmethod
    def fields(cert):
        if cert is None:
            return None
        return (cert.p, cert.k, cert.x, cert.y, cert.H, cert.deltap_status)

    def test_criteria_match_their_gates(self):
        kinds = ("a=0", "a<0", "b<0", "k=1", "even k", "gcd(n,k)>1")
        seen = dict.fromkeys(kinds + ("alpha", "two alpha primes", "pow2"), 0)
        for T in self.sample():
            cert = irreducibility_certificate(T)
            got = None if cert is None else (cert.route, cert.p)
            assert got == self.expected_irreducibility(T), T
            alpha = self.fields(check_alpha_generator(T))
            assert alpha == self.expected_alpha(T), T
            seen["two alpha primes"] += len(self.alpha_primes(T)) >= 2
            ok, fields = self.expected_pow2(T)
            if ok:
                # The paper's claim: its hypotheses give an alpha certificate,
                # an unconditional one where its own prime's status is
                # SquareFree, and the verdict carries it unless a congruence
                # screen comes first.
                assert alpha is not None, T
                if fields[-1] is SquarefreeStatus.SQUARE_FREE:
                    assert alpha[-1] is SquarefreeStatus.SQUARE_FREE, T
                v = verdict(T)
                if v.congruence is None:
                    assert self.fields(v.alpha) == alpha, T
                seen["pow2"] += 1
            ks = [valp(p, T.b) for p in self.primes(T)]
            seen["a=0"] += T.a == 0
            seen["a<0"] += T.a < 0
            seen["b<0"] += T.b < 0
            seen["k=1"] += 1 in ks
            seen["even k"] += any(k % 2 == 0 for k in ks)
            seen["gcd(n,k)>1"] += any(math.gcd(T.n, k) > 1 for k in ks)
            seen["alpha"] += alpha is not None
        assert min(seen.values()) >= 50, seen


# -- congruence screens ----------------------------------------------------------------


class TestCongruenceObstruction:
    def test_mod8_pattern(self):
        assert check_congruence_obstruction(3, 12, 3) == 8

    def test_mod16_pattern(self):
        assert check_congruence_obstruction(4, 8, 7) == 16

    def test_mod32_patterns(self):
        assert check_congruence_obstruction(6, 0, -65) == 32
        assert check_congruence_obstruction(4, 16, 15) == 32
        assert check_congruence_obstruction(4, 48, 47) == 32

    def test_negative_inputs_reduce_to_canonical_residues(self):
        assert check_congruence_obstruction(3, -4, -5) == 8
        # The report derives the residues from the trinomial and the modulus;
        # x^8 - 20x - 5 is 5-Eisenstein.
        T = Trinomial(8, 1, -20, -5)
        assert build_report(T, verdict(T))["verdict"]["congruence"] == {
            "case": "mod8", "modulus": "8", "a_residue": "4", "b_residue": "3"
        }

    def test_r_thresholds(self):
        assert check_congruence_obstruction(2, 4, 3) is None
        assert check_congruence_obstruction(3, 4, 3) == 8
        assert check_congruence_obstruction(3, 8, 7) is None
        assert check_congruence_obstruction(4, 8, 7) == 16
        assert check_congruence_obstruction(3, 0, 31) is None
        assert check_congruence_obstruction(4, 0, 31) == 32

    def test_non_matching_residues(self):
        assert check_congruence_obstruction(5, 4, 5) is None
        assert check_congruence_obstruction(5, 2, 3) is None
        assert check_congruence_obstruction(5, 0, 15) is None
        assert check_congruence_obstruction(5, 8, 15) is None

    def test_patterns_are_mutually_exclusive(self):
        # For every residue pair mod 32 at most one pattern can fire, and
        # the returned modulus is exactly the raw condition that matched.
        for a in range(32):
            for b in range(1, 33):
                fired = {
                    8: a % 8 == 4 and b % 8 == 3,
                    16: a % 16 == 8 and b % 16 == 7,
                    32: (a % 32, b % 32) in {(0, 31), (16, 15)},
                }
                assert sum(fired.values()) <= 1, (a, b)
                modulus = check_congruence_obstruction(5, a, b)
                if modulus is None:
                    assert not any(fired.values()), (a, b)
                else:
                    assert fired[modulus], (a, b)


# -- common index divisors ---------------------------------------------------------------


class TestCommonIndexDivisor:
    def test_classic_cubic(self):
        # x^3 + x^2 - 2x + 8 splits completely at 2: three residue-degree-1
        # primes versus only two monic linear polynomials over F_2.
        fact = factor_p(PolyZ((8, -2, 1, 1)), 2)
        assert sorted((f.e, f.f) for f in fact.factors) == [(1, 1), (1, 1), (1, 1)]
        assert common_index_divisor(fact) == known_answer(
            "x^3+x^2-2x+8", "common index divisor witness"
        )

    def test_degree_eight_fixture(self):
        fact = factor_p(Trinomial(8, 1, 12, 3).poly(), 2)
        count, available = known_answer("x^8+12x+3", "degree-1 primes vs available")
        assert common_index_divisor(fact) == (1, count, available)

    def test_negative_case(self):
        fact = factor_p(Trinomial(8, 1, 8, 8).poly(), 2)
        assert common_index_divisor(fact) is None
        fact = factor_p(PolyZ((1, 3, 1)), 2)
        assert common_index_divisor(fact) is None

    def test_degree_two_witness(self):
        # (x^2 - x - 1)^2 + 2(x^2 - x - 1) + 4: two primes of residue
        # degree 2 above 2, but F_2 has only one monic irreducible quadratic.
        F = PolyZ((3, 0, 1, -2, 1))
        fact = factor_p(F, 2)
        assert fact.regular
        assert sorted((f.e, f.f) for f in fact.factors) == [(1, 2), (1, 2)]
        assert count_monic_irreducibles(2, 2) == 1
        assert common_index_divisor(fact) == (2, 2, 1)

    def test_requires_regular_splitting(self):
        fact = factor_p(PolyZ((4, 4, 1)), 2)
        assert not fact.regular
        with pytest.raises(ValueError):
            common_index_divisor(fact)

    def test_pigeonhole_recount(self):
        # Re-derive the witness from raw counts for each fixture.
        for coeffs in [(8, -2, 1, 1), (3, 0, 1, -2, 1), (8, 8, 0, 0, 0, 0, 0, 0, 1)]:
            fact = factor_p(PolyZ(coeffs), 2)
            counts = {}
            for f in fact.factors:
                counts[f.f] = counts.get(f.f, 0) + 1
            expected = None
            for d in sorted(counts):
                if counts[d] > count_monic_irreducibles(2, d):
                    expected = (d, counts[d], count_monic_irreducibles(2, d))
                    break
            assert common_index_divisor(fact) == expected


# -- the full verdict pipeline --------------------------------------------------------------


class TestVerdictPipeline:
    def test_poly_not_monogenic_field_monogenic(self):
        v = verdict(Trinomial(8, 1, 8, 8))
        assert v.kind is VerdictKind.POLY_NOT_MONOGENIC_FIELD_MONOGENIC
        assert v.trail == (
            "irreducible(one_sided_polygon, p=2)",
            "alpha-generator(p=2, x=3, y=1)",
            "stripped-discriminant-squarefree(p=2)",
        )
        assert v.p == 2
        assert v.alpha is not None and v.alpha.H == ALPHA_H_8_1_8_8
        assert v.congruence is None and v.splitting is None
        assert v.disc == 2**24 * 1273609
        assert not v.irreducibility_assumed

    def test_poly_not_monogenic_high_m(self):
        v = verdict(Trinomial(16, 15, 24, 8))
        assert v.kind is VerdictKind.POLY_NOT_MONOGENIC_FIELD_MONOGENIC
        assert v.trail == (
            "irreducible(one_sided_polygon, p=2)",
            "alpha-generator(p=2, x=11, y=2)",
            "stripped-discriminant-squarefree(p=2)",
        )
        assert (v.alpha.x, v.alpha.y) == (11, 2)
        assert valp(2, v.disc) == 90
        assert strip_p(2, v.disc).unit_part == -18849896126829437255335087

    def test_conditional_verdict(self):
        v = verdict(Trinomial(16, 1, 8, 56))
        assert v.kind is VerdictKind.POLY_NOT_MONOGENIC_FIELD_CONDITIONAL
        assert v.trail == (
            "irreducible(one_sided_polygon, p=2)",
            "alpha-generator(p=2, x=11, y=2)",
            "stripped-discriminant-unresolved(p=2)",
        )
        assert v.alpha.deltap_status is SquarefreeStatus.UNKNOWN
        assert v.alpha.H == ALPHA_H_16_1_8_56

    def test_field_not_monogenic_mod8(self):
        v = verdict(Trinomial(8, 1, 12, 3))
        assert v.kind is VerdictKind.FIELD_NOT_MONOGENIC
        assert v.trail == (
            "irreducible(eisenstein, p=3)",
            "congruence-screen(mod8)",
            "common-index-divisor(p=2, d=1, primes=3 > 2)",
        )
        count, available = known_answer("x^8+12x+3", "degree-1 primes vs available")
        assert (v.p, v.congruence) == (2, 8)
        assert v.splitting is not None and v.splitting.regular
        assert common_index_divisor(v.splitting) == (1, count, available)
        assert sorted((f.e, f.f) for f in v.splitting.factors) == [(1, 1), (3, 1), (4, 1)]

    def test_field_not_monogenic_mod32_pure(self):
        v = verdict(Trinomial(64, 1, 0, -65))
        assert v.kind is VerdictKind.FIELD_NOT_MONOGENIC
        assert v.trail == (
            "irreducible(eisenstein, p=5)",
            "congruence-screen(mod32)",
            "common-index-divisor(p=2, d=1, primes=4 > 2)",
        )
        assert v.congruence == 32
        assert common_index_divisor(v.splitting) == (1, 4, 2)

    # A screen whose polygon data at 2 is not regular: the order-1 index
    # bound at 2 is 15, and no splitting of 2 is known.
    UNCONFIRMED_REASON = (
        "congruence pattern mod32 matched, but the polygon data at 2 is not "
        "regular, so 2 is not confirmed as a common index divisor; the order-1 "
        "index lower bound at 2 is 15"
    )

    def test_certified_screen_not_2_regular_is_inconclusive(self):
        # x^16 + 48x + 303 is 3-Eisenstein and matches the mod-32 pattern.
        v = verdict(Trinomial(16, 1, 48, 303))
        assert v.kind is VerdictKind.INCONCLUSIVE
        assert v.trail == (
            "irreducible(eisenstein, p=3)",
            "congruence-screen(mod32)",
            "screen-unconfirmed(p=2, not regular)",
        )
        assert v.reason == self.UNCONFIRMED_REASON
        assert v.congruence == 32 and v.reached_bounds
        assert [(p, s.regular, s.index_lower_bound) for p, s in v.splittings.items()] == [
            (2, False, 15)
        ]
        assert v.p is None and v.splitting is None

    def test_assumed_screen_not_2_regular_is_inconclusive(self):
        # x^16 - 176x + 15 carries no certificate; under the assumption the
        # unconfirmed screen is no evidence against it.
        v = verdict(Trinomial(16, 1, -176, 15), assume_irreducible=True)
        assert v.kind is VerdictKind.INCONCLUSIVE
        assert v.trail == (
            "irreducible(assumed)",
            "congruence-screen(mod32)",
            "screen-unconfirmed(p=2, not regular)",
        )
        assert v.reason == self.UNCONFIRMED_REASON
        assert v.irreducibility_assumed and v.reached_bounds
        assert [(p, s.regular, s.index_lower_bound) for p, s in v.splittings.items()] == [
            (2, False, 15), (3, True, 0), (5, True, 0)
        ]

    def test_mod16_pattern_needs_assumption(self):
        # x^16 + 8x + 7 matches the mod-16 residue pattern but carries no
        # irreducibility certificate (it is in fact divisible by x + 1),
        # so without an assumption the pipeline stops honestly.
        T = Trinomial(16, 1, 8, 7)
        v = verdict(T)
        assert v.kind is VerdictKind.INCONCLUSIVE
        assert v.trail == ("irreducibility-not-certified",)
        assert "assume-irreducible" in v.reason
        v = verdict(T, assume_irreducible=True)
        assert v.kind is VerdictKind.FIELD_NOT_MONOGENIC
        assert v.trail == (
            "irreducible(assumed)",
            "congruence-screen(mod16)",
            "common-index-divisor(p=2, d=1, primes=4 > 2)",
        )
        assert v.irreducibility_assumed
        assert sorted((f.e, f.f) for f in v.splitting.factors) == [
            (1, 1),
            (3, 1),
            (4, 1),
            (8, 1),
        ]

    def test_zero_discriminant(self):
        v = verdict(Trinomial(2, 1, 2, 1))
        assert v.kind is VerdictKind.INCONCLUSIVE
        assert v.trail == ("zero-discriminant",)
        assert v.disc == 0
        assert "repeated roots" in v.reason

    def test_uncertified_stops_early(self):
        v = verdict(Trinomial(2, 1, 1, -1))
        assert v.kind is VerdictKind.INCONCLUSIVE
        assert v.trail == ("irreducibility-not-certified",)
        assert v.disc == 5

    def test_assumed_inconclusive_with_bounds(self):
        v = verdict(Trinomial(4, 1, 4, 4), assume_irreducible=True)
        assert v.kind is VerdictKind.INCONCLUSIVE
        assert v.trail == ("irreducible(assumed)", "no-criterion-applied")
        assert v.irreducibility_assumed and v.reached_bounds
        assert [(p, s.index_lower_bound, s.regular) for p, s in v.splittings.items()] == [
            (2, 2, False)
        ]

    def test_assumption_contradicted_by_engine(self):
        # x^8 + 4x - 5 has the root 1; the screen fires, but the engine's
        # divisibility check exposes the false assumption instead of
        # emitting a bogus field-level verdict.
        v = verdict(Trinomial(8, 1, 4, -5), assume_irreducible=True)
        assert v.kind is VerdictKind.INCONCLUSIVE
        assert v.trail == (
            "irreducible(assumed)",
            "congruence-screen(mod8)",
            "assumption-contradicted",
        )
        assert v.reason == (
            "irreducibility was assumed but could not hold: "
            "input is divisible by x - 1, hence reducible"
        )
        assert v.congruence == 8

    def test_screen_decides_at_the_least_offending_degree(self, monkeypatch):
        # A regular splitting at 2 with no degree-1 excess but two primes of
        # residue degree 2 (one irreducible quadratic over F_2) still makes
        # 2 a common index divisor.  No screen input tried reaches this, so
        # the splitting at 2 is that of (x^2 - x - 1)^2 + 2(x^2 - x - 1) + 4.
        fact = factor_p(PolyZ((3, 0, 1, -2, 1)), 2)
        monkeypatch.setattr(monogenity, "_splitting", lambda F, p: fact)
        v = verdict(Trinomial(8, 1, 12, 3))
        assert v.kind is VerdictKind.FIELD_NOT_MONOGENIC
        assert v.trail[-1] == "common-index-divisor(p=2, d=2, primes=2 > 1)"
        assert (v.p, v.splitting) == (2, fact)

    @pytest.fixture
    def split_calls(self, monkeypatch):
        """The prime of each ``ore.factor_p`` call."""
        calls = []
        real = ore.factor_p

        def counting(F, p):
            calls.append(p)
            return real(F, p)

        monkeypatch.setattr(ore, "factor_p", counting)
        return calls

    def test_certified_bounds_computed_on_first_read(self, split_calls):
        # The verdict leaves the bounds to the report, which builds each
        # splitting once for both its evidence and its bounds.
        T = Trinomial(8, 1, -16, 10)
        v = verdict(T)
        assert v.trail == ("irreducible(eisenstein, p=2)", "no-criterion-applied")
        assert v.reached_bounds and v.splittings == {} and split_calls == []
        assert build_report(T, v)["verdict"]["index_bounds"] == [
            {"p": "2", "bound": "0", "exact": True},
            {"p": "3", "bound": "1", "exact": True},
        ]
        assert split_calls == [2, 3]

    def test_assumed_bounds_computed_by_the_verdict(self, split_calls):
        T = Trinomial(4, 1, 4, 4)
        v = verdict(T, assume_irreducible=True)
        assert split_calls == [2]
        report = build_report(T, v)
        assert report["verdict"]["index_bounds"] == [{"p": "2", "bound": "2", "exact": False}]
        assert report["evidence"][0]["index_lower_bound"] == "2"
        assert split_calls == [2]

    @pytest.mark.parametrize(
        "T", [Trinomial(8, 1, 8, 8), Trinomial(8, 1, 12, 3), Trinomial(2, 1, 1, -1)]
    )
    def test_no_bounds_before_the_bound_stage(self, T):
        v = verdict(T)
        assert not v.reached_bounds
        assert "index_bounds" not in build_report(T, v)["verdict"]

    def test_index_bounds_bound_valuation(self):
        v = verdict(Trinomial(4, 1, 4, 4), assume_irreducible=True)
        assert v.splittings
        for p, fact in v.splittings.items():
            assert valp(p, v.disc) >= 2 * fact.index_lower_bound

    def test_determinism(self):
        T = Trinomial(8, 1, 12, 3)
        v1, v2 = verdict(T), verdict(T)
        assert v1.kind is v2.kind and v1.trail == v2.trail
        assert v1.alpha == v2.alpha and v1.disc == v2.disc

    def test_every_verdict_carries_disc_and_trail(self, rng):
        kinds = set()
        for _ in range(60):
            n = rng.choice([2, 4, 8, 16])
            m = rng.randrange(1, n)
            a = rng.randrange(-20, 21)
            b = rng.choice([x for x in range(-20, 21) if x != 0])
            T = Trinomial(n, m, a, b)
            v = verdict(T)
            kinds.add(v.kind)
            assert v.trinomial == T
            assert v.disc == disc_trinomial(T)
            assert len(v.trail) >= 1
            if v.kind is not VerdictKind.INCONCLUSIVE:
                assert v.irreducibility is not None or v.irreducibility_assumed
        assert VerdictKind.INCONCLUSIVE in kinds


# -- the verdict record ----------------------------------------------------------------


class TestVerdictRecord:
    def test_fields_cannot_be_assigned(self):
        v = verdict(Trinomial(8, 1, 12, 3))
        for name in MonogenityVerdict._fields:
            with pytest.raises(AttributeError):
                setattr(v, name, None)
        with pytest.raises(AttributeError):
            v.extra = None

    def test_no_field_shadows_a_tuple_method(self):
        assert set(MonogenityVerdict._fields).isdisjoint(dir(tuple))
