"""Integer-arithmetic bedrock: valuations, primality, counting, Diophantine."""

import math

import pytest

from trinogen.exactnum import (
    INFINITY,
    MR_CERTIFIED_BOUND,
    Infinity,
    Memo,
    NotCoprime,
    StrippedInt,
    count_monic_irreducibles,
    dioph_solve,
    factored,
    iroot,
    is_certified_prime,
    is_probable_prime,
    perfect_power,
    primes_below,
    strip_factored,
    strip_p,
    trial_factor,
    valp,
)
from trinogen import exactnum


class TestInfinity:
    def test_singleton(self):
        assert Infinity() is INFINITY

    def test_compares_equal_to_itself_only(self):
        assert INFINITY == INFINITY
        for t in (-10, 0, 7, 10**100):
            assert INFINITY != t and t != INFINITY


class TestValp:
    def test_known_values(self):
        assert valp(2, 12) == 2
        assert valp(3, 12) == 1
        assert valp(5, 12) == 0
        assert valp(2, -40) == 3
        assert valp(7, 7**9) == 9

    def test_zero_has_infinite_valuation(self):
        assert valp(2, 0) is INFINITY

    def test_rejects_modulus_below_two(self):
        with pytest.raises(ValueError):
            valp(1, 10)

    def test_multiplicativity(self, rng):
        for _ in range(200):
            p = rng.choice((2, 3, 5, 7, 11))
            s = rng.randint(1, 10**6)
            t = rng.randint(1, 10**6)
            assert valp(p, s * t) == valp(p, s) + valp(p, t)


class TestStripP:
    def test_known_value(self):
        assert strip_p(3, -18) == StrippedInt(nu=2, unit_part=-2)

    def test_reconstruction(self, rng):
        for _ in range(300):
            p = rng.choice((2, 3, 5, 13))
            t = rng.randint(-(10**9), 10**9)
            if t == 0:
                continue
            s = strip_p(p, t)
            assert p**s.nu * s.unit_part == t
            assert s.unit_part % p != 0
            assert s.nu == valp(p, t)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            strip_p(2, 0)

    @pytest.mark.parametrize("p", [1, 0, -1])
    def test_rejects_a_modulus_below_two(self, p):
        # p = +-1 divides every integer, so stripping would never end.
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            strip_p(p, 12)
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            strip_p(p, 0)  # the modulus is checked before t
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            strip_factored(p, 12, 100)


class TestCountMonicIrreducibles:
    def test_known_values(self):
        assert count_monic_irreducibles(2, 1) == 2
        assert count_monic_irreducibles(2, 2) == 1
        assert count_monic_irreducibles(2, 3) == 2
        assert count_monic_irreducibles(2, 4) == 3
        assert count_monic_irreducibles(3, 1) == 3
        assert count_monic_irreducibles(3, 2) == 3
        assert count_monic_irreducibles(5, 1) == 5

    def test_necklace_identity(self):
        # sum over d | n of d * N_p(d) recovers p^n
        # n = 12 and 30 have divisors with two and three distinct primes.
        for p in (2, 3, 5, 7):
            for n in [*range(1, 9), *((12, 30) if p in (2, 3) else ())]:
                total = sum(
                    d * count_monic_irreducibles(p, d)
                    for d in range(1, n + 1)
                    if n % d == 0
                )
                assert total == p**n

    def test_rejects_nonpositive_degree(self):
        with pytest.raises(ValueError):
            count_monic_irreducibles(2, 0)


class TestDiophSolve:
    def test_known_values(self):
        assert dioph_solve(3, 8) == (3, 1)
        assert dioph_solve(3, 16) == (11, 2)
        assert dioph_solve(1, 5) == (1, 0)

    def test_defining_identity(self, rng):
        for _ in range(300):
            n = rng.randint(1, 10**6)
            k = rng.randint(1, 10**6)
            if math.gcd(k, n) != 1:
                continue
            x, y = dioph_solve(k, n)
            assert k * x - n * y == 1
            assert 0 <= x < n or n == 1

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            dioph_solve(6, 8)

    def test_not_coprime_is_a_value_error(self):
        assert issubclass(NotCoprime, ValueError)


class TestPrimality:
    def test_small_values(self):
        expected = set(primes_below(200))
        for n in range(-5, 200):
            assert is_probable_prime(n) == (n in expected)

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911):
            assert not is_probable_prime(n)

    def test_large_known_prime_and_composite(self):
        assert is_probable_prime(2**89 - 1)  # Mersenne prime
        assert not is_probable_prime(2**89 + 1)  # divisible by 179

    def test_certified_range(self):
        assert is_certified_prime(10**9 + 7)
        assert not is_certified_prime(561)
        # Beyond the exhaustive-base bound nothing is "certified", prime or not.
        big = MR_CERTIFIED_BOUND * 10 + 1
        assert not is_certified_prime(big)

    def test_strong_pseudoprime_to_base_2(self):
        assert not is_probable_prime(2047)  # 23 * 89, fools base 2 alone


class TestPrimesBelow:
    def test_small_sieve(self):
        assert primes_below(2) == ()
        assert primes_below(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

    def test_count_below_10000(self):
        assert len(primes_below(10000)) == 1229

    def test_matches_plain_sieve_for_every_bound_to_2000(self):
        for bound in range(2001):
            assert primes_below(bound) == plain_sieve(bound), bound

    @pytest.mark.parametrize("bound", [10**6, 10**6 + 1])
    def test_matches_plain_sieve_at_the_default_bound(self, bound):
        assert primes_below(bound) == plain_sieve(bound)


def plain_sieve(bound):
    """Eratosthenes over every integer below ``bound``, one byte each."""
    if bound <= 2:
        return ()
    sieve = bytearray([1]) * bound
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, bound, i)))
    return tuple(i for i in range(bound) if sieve[i])


class TestTrialFactor:
    def test_complete_factorization(self):
        assert trial_factor(720, 10) == ([(2, 4), (3, 2), (5, 1)], 1)
        assert trial_factor(-720, 10) == ([(2, 4), (3, 2), (5, 1)], 1)

    def test_prime_cofactor_below_bound_squared_is_claimed(self):
        # 9973 is prime; untouched by primes < 100 but < 100^2, hence proven prime.
        factors, cofactor = trial_factor(2 * 9973, 100)
        assert factors == [(2, 1), (9973, 1)]
        assert cofactor == 1

    def test_composite_cofactor_is_returned_unfactored(self):
        t = 4 * 10007 * 10009
        factors, cofactor = trial_factor(t, 100)
        assert factors == [(2, 2)]
        assert cofactor == 10007 * 10009

    def test_reconstruction(self, rng):
        for _ in range(200):
            t = rng.randint(2, 10**12)
            factors, cofactor = trial_factor(t, 1000)
            prod = cofactor
            for p, e in factors:
                prod *= p**e
            assert prod == t
            for p, e in factors:
                assert is_probable_prime(p)
                assert t % p**e == 0 and t % p ** (e + 1) != 0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            trial_factor(0, 10)


def reference_trial_factor(t, bound):
    """Trial division by every prime below the bound, one at a time."""
    t = abs(t)
    out = []
    for p in primes_below(bound):
        if p * p > t:
            break
        if t % p == 0:
            nu = 0
            while t % p == 0:
                t //= p
                nu += 1
            out.append((p, nu))
    if 1 < t < bound * bound:
        out.append((t, 1))
        t = 1
    return out, t


def next_prime(n):
    while not is_probable_prime(n):
        n += 1
    return n


# 2, 3 and 10 hold no full block; 1619 stops one prime short of the first
# block of 256 primes (the 256th is 1619); 1620 and 1621 hold exactly that
# block; 1622 adds one prime (1621) in a second block; the others end in the
# middle of a later block.
BLOCK_BOUNDS = (2, 3, 10, 1619, 1620, 1621, 1622, 1700, 5003, 40000, 10**6)


def counting_blocks(monkeypatch):
    """The 1-based numbers of the later blocks trial_factor takes, in order."""
    taken = []
    products = exactnum._block_products

    def counted(bound):
        for k, product in enumerate(products(bound), 1):
            taken.append(k)
            yield product

    monkeypatch.setattr(exactnum, "_block_products", counted)
    return taken


def seeded_cases(rng, bound):
    """Integers whose factors straddle the blocks below ``bound`` and beyond it."""
    primes = primes_below(bound)
    top = primes[-1] if primes else None
    beyond = next_prime(bound)
    cases = [1, -1, 2, -2, 3 * beyond, beyond * next_prime(beyond + 1), beyond**2]
    if top is not None:
        cases += [top, -top, top * top, 4 * top * top * beyond]
    # The first and the last prime of every block of 256.
    edges = [primes[i] for k in range(256, len(primes), 256) for i in (k - 1, k)]
    for _ in range(30):
        t = rng.choice((1, -1))
        for _ in range(rng.randint(0, 5)):
            if edges and rng.random() < 0.3:
                p = rng.choice(edges)
            elif primes and rng.random() < 0.8:
                p = rng.choice(primes[: rng.choice((8, 256, len(primes)))])
            else:
                p = next_prime(rng.randint(bound, 3 * bound))
            t *= p ** rng.randint(1, 3)
        if rng.random() < 0.3:
            t *= rng.getrandbits(rng.choice((20, 64, 400))) | 1
        cases.append(t)
    return cases


class TestBlockTrialFactor:
    """trial_factor and the stripped-part derivation against per-prime division."""

    @pytest.mark.parametrize("bound", BLOCK_BOUNDS)
    def test_matches_reference(self, rng, bound):
        for t in seeded_cases(rng, bound):
            assert trial_factor(t, bound) == reference_trial_factor(t, bound), t

    def test_cofactor_between_bound_and_its_square(self):
        bound = 40000
        q = next_prime(bound + 1)
        assert trial_factor(-8 * q, bound) == ([(2, 3), (q, 1)], 1)
        r = next_prime(q + 1)
        assert trial_factor(8 * q * r, bound) == ([(2, 3)], q * r)

    def test_largest_prime_below_bound_and_its_square(self):
        bound = 5003
        top = primes_below(bound)[-1]
        assert trial_factor(top, bound) == ([(top, 1)], 1)
        assert trial_factor(top * top, bound) == ([(top, 2)], 1)
        assert trial_factor(top * top * next_prime(bound), bound) == (
            [(top, 2), (next_prime(bound), 1)],
            1,
        )

    @pytest.mark.parametrize("bound", [1619, 1620, 1621, 1622])
    def test_first_block_edge(self, bound):
        cases = [1619, 1621, 1619**2, 1621**2, 1619 * 1621, 1621 * 1627,
                 2 * 1619**2 * 1621, 1619**2 - 2, 1619**2 + 2, 1621**2 * 1627**2]
        for t in cases:
            assert trial_factor(t, bound) == reference_trial_factor(t, bound), t

    # The prime-cofactor stop: what is left after the first block, or after a
    # block that divided t, is a certified prime, so no later block is tried.

    def test_prime_after_first_block_builds_no_sieve(self, monkeypatch):
        def no_sieve(_bound):
            raise AssertionError("a sieve was built for a certified-prime rest")

        bound = 10**6
        below = next_prime(1619**2)  # outlives the first block, below the bound
        between = next_prime(bound + 1)  # between the bound and its square
        above = next_prime(bound**2 + 1)  # above the bound's square
        cases = [below, 2 * 3 * below, 8 * between, -5 * between, 7**3 * above]
        expected = [reference_trial_factor(t, bound) for t in cases]
        monkeypatch.setattr(exactnum, "primes_below", no_sieve)
        monkeypatch.setattr(exactnum, "_block_products", no_sieve)
        for t, want in zip(cases, expected):
            assert trial_factor(t, bound) == want, t
        assert expected[0] == ([(below, 1)], 1)
        assert expected[2] == ([(2, 3), (between, 1)], 1)
        assert expected[4] == ([(7, 3)], above)

    def test_prime_after_a_block_hit_stops(self, monkeypatch):
        bound = 10**6
        primes = primes_below(bound)
        hit = primes[3 * 256 + 5]  # a prime of the fourth block
        above = next_prime(bound**2 + 1)
        taken = counting_blocks(monkeypatch)
        for rest, cofactor in [
            (above, above),  # above the bound's square: the cofactor
            (next_prime(bound + 1), 1),  # between the bound and its square: claimed
            (primes[-1], 1),  # below the bound, in the last block
        ]:
            t = 4 * hit * rest
            taken.clear()
            got = trial_factor(t, bound)
            assert got == reference_trial_factor(t, bound), t
            assert got[1] == cofactor
            assert taken == [1, 2, 3], "a block after the hit was tried"

    def test_one_left_after_a_block_hit(self, monkeypatch):
        bound = 10**6
        hit = primes_below(bound)[2 * 256]  # the first prime of the third block
        taken = counting_blocks(monkeypatch)
        t = 12 * hit**2
        got = trial_factor(t, bound)
        assert got == reference_trial_factor(t, bound)
        assert got == ([(2, 2), (3, 1), (hit, 2)], 1)
        # The next block is taken only to see that its first prime's square
        # exceeds what is left.
        assert taken == [1, 2, 3]

    def test_no_stop_above_the_certified_bound(self, monkeypatch):
        bound = 10**6
        primes = primes_below(bound)
        big = next_prime(MR_CERTIFIED_BOUND + 1)  # prime, but not certified
        assert is_probable_prime(big) and not is_certified_prime(big)
        blocks = list(range(1, len(exactnum._block_products(bound)) + 1))
        taken = counting_blocks(monkeypatch)
        for t in (big, 9 * big, primes[5 * 256] * big):
            taken.clear()
            got = trial_factor(t, bound)
            assert got == reference_trial_factor(t, bound), t
            assert got[1] == big
            assert taken == blocks, "the stop fired on an uncertified prime"

    def test_factored_is_frozen(self):
        assert factored(-720, 10) == (((2, 4), (3, 2), (5, 1)), 1)

    def test_memo_drops_the_least_recent_key(self):
        memo = Memo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # "a" is now more recent than "b"
        memo.put("c", 3)
        assert (memo.get("b"), memo.get("a"), memo.get("c")) == (None, 1, 3)

    @pytest.mark.parametrize("bound", BLOCK_BOUNDS)
    def test_stripped_part_derived_exactly(self, rng, monkeypatch, bound):
        for t in seeded_cases(rng, bound):
            small, cofactor = reference_trial_factor(t, bound)
            primes = [p for p, _ in small] + [2, 3, next_prime(bound)]
            if cofactor > 1:
                primes.append(next_prime(rng.randint(2, 100)))
            for p in rng.sample(primes, min(3, len(primes))):
                stripped = strip_factored(p, t, bound)
                assert stripped == strip_p(p, t)
                expected = reference_trial_factor(stripped.unit_part, bound)

                def no_division(*_args):
                    raise AssertionError("the stripped part was divided again")

                with monkeypatch.context() as m:
                    m.setattr(exactnum, "trial_factor", no_division)
                    got = factored(stripped.unit_part, bound)
                assert got == (tuple(expected[0]), expected[1]), (t, p)

    def test_prime_past_bound_stripped_from_cofactor(self):
        bound = 100
        q, r = next_prime(101), next_prime(1000)
        assert factored(4 * q * q * r, bound) == (((2, 2),), q * q * r)
        stripped = strip_factored(q, 4 * q * q * r, bound)
        assert stripped == StrippedInt(2, 4 * r)
        # r < bound**2 is now claimed as prime, as trial_factor claims it.
        assert factored(4 * r, bound) == (((2, 2), (r, 1)), 1)


class TestIrootPerfectPower:
    def test_iroot_exact_and_floor(self, rng):
        for _ in range(300):
            base = rng.randint(0, 10**6)
            k = rng.randint(1, 9)
            t = base**k + rng.randint(0, max(0, base - 1))
            r = iroot(t, k)
            assert r**k <= t < (r + 1) ** k

    def test_iroot_rejects_bad_args(self):
        with pytest.raises(ValueError):
            iroot(-1, 2)
        with pytest.raises(ValueError):
            iroot(5, 0)

    def test_perfect_power_hits(self):
        assert perfect_power(8) == (2, 3)
        assert perfect_power(64) == (2, 6)  # deepest decomposition
        assert perfect_power(36) == (6, 2)
        assert perfect_power(3**10) == (3, 10)

    def test_perfect_power_misses(self):
        for t in (2, 3, 5, 6, 7, 10, 12, 100000007):
            assert perfect_power(t) is None

    def test_perfect_power_builds_no_sieve(self, monkeypatch):
        # The exponents of an integer of up to 1619 bits come from the first
        # block of primes, so perfect_power takes no slot of the primes_below
        # cache, where integers of many bit lengths would evict the sieve.
        inputs = [3**k * 7 + j for k in (1, 27, 39, 54, 300, 1015) for j in (0, 1)]
        inputs += [2**1618, 5**697, 10**60 * 3]
        expected = [perfect_power(t) for t in inputs]

        def no_sieve(bound):
            raise AssertionError(f"primes_below({bound}) called")

        monkeypatch.setattr(exactnum, "primes_below", no_sieve)
        assert [perfect_power(t) for t in inputs] == expected
        assert expected[-3:] == [(2, 1618), (5, 697), None]

    def test_perfect_power_random(self, rng):
        for _ in range(100):
            base = rng.randint(2, 500)
            k = rng.randint(2, 6)
            got = perfect_power(base**k)
            assert got is not None
            b, e = got
            assert b**e == base**k
            # the reported base is never itself a perfect power
            assert b < 4 or perfect_power(b) is None
