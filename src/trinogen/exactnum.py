"""Exact integer arithmetic helpers.

Everything here is plain ``int`` arithmetic: p-adic valuations, stripping
prime powers, deterministic primality testing, bounded trial division,
counting monic irreducible polynomials over a prime field, and the linear
Diophantine solver used to build power-quotient generators.  No floats are
used anywhere; the valuation of zero is the distinguished :data:`INFINITY`
object rather than a sentinel integer.

Trial division tries the first block of primes one by one and every later
block at once, by a gcd with the block's product (Bernstein, *How to find
smooth parts of integers*, 2004), and stops early once what is left is a
certified prime.  :func:`factored` shares the result among
the callers that ask about the same integer, and :func:`strip_factored`
derives the factorization of ``t / p**nu`` from that of ``t`` without
dividing again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress


class NotCoprime(ValueError):
    """Raised when a modular inverse required by dioph_solve does not exist."""


class Infinity:
    """The valuation of zero.

    The package tests a valuation with ``is INFINITY`` and never orders or
    adds it; INFINITY equals only itself, no integer.  A single shared
    instance is exposed as :data:`INFINITY`.
    """

    _instance = None

    def __new__(cls) -> "Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = Infinity()


def valp(p: int, t: int):
    """p-adic valuation of ``t``; INFINITY iff t == 0.

    ``p`` must be at least 2 (and prime for the result to be a valuation;
    the engine only ever calls this with verified primes).
    """
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    if t == 0:
        return INFINITY
    v = 0
    while t % p == 0:
        t //= p
        v += 1
    return v


@dataclass(frozen=True)
class StrippedInt:
    """t = p**nu * unit_part with p not dividing unit_part."""

    nu: int
    unit_part: int


def strip_p(p: int, t: int) -> StrippedInt:
    """Strip all factors of ``p`` out of the nonzero integer ``t``."""
    nu = valp(p, t)
    if nu is INFINITY:
        raise ValueError("cannot strip a prime out of zero")
    return StrippedInt(nu, t // p**nu)


def count_monic_irreducibles(p: int, d: int) -> int:
    """Number of monic irreducible degree-d polynomials over F_p.

    Moebius inversion of sum_{e | d} e * N_p(e) = p**d.  The Moebius
    function vanishes off the squarefree divisors, so d * N_p(d) is the sum
    of (-1)**|S| * p**(d / prod(S)) over the subsets S of the distinct
    primes of d, which ``factored(d, d + 1)`` lists.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    terms = [(1, 1)]  # (sign, product) for each subset of the primes so far
    for q, _ in factored(d, d + 1)[0]:
        terms += [(-sign, prod * q) for sign, prod in terms]
    total = sum(sign * p ** (d // prod) for sign, prod in terms)
    count, rem = divmod(total, d)
    if rem:  # pragma: no cover - would contradict the inversion identity
        raise ArithmeticError("necklace count was not divisible by d")
    return count


def dioph_solve(k: int, n: int) -> tuple[int, int]:
    """The unique (x, y) with k*x - n*y == 1 and 0 <= x < n.

    Raises NotCoprime when gcd(k, n) != 1.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    if math.gcd(k, n) != 1:
        raise NotCoprime(f"gcd({k}, {n}) != 1")
    x = pow(k, -1, n)
    y = (k * x - 1) // n
    return x, y


# Below this bound the fixed Miller-Rabin base set is known to be exhaustive,
# so a pass is a primality certificate rather than a probabilistic claim.
MR_CERTIFIED_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXTRA_BASES = (43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _mr_witness(a: int, n: int, d: int, s: int) -> bool:
    """True iff ``a`` witnesses that ``n`` is composite."""
    t = pow(a, d, n)
    if t == 1 or t == n - 1:
        return False
    for _ in range(s - 1):
        t = t * t % n
        if t == n - 1:
            return False
    return True


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a fixed base set.

    Deterministic (a genuine certificate) for n < MR_CERTIFIED_BOUND; above
    that the verdict is "probable prime" and callers that need certainty
    must check is_certified_prime as well.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    s = valp(2, n - 1)
    d = (n - 1) >> s
    bases = _MR_BASES if n < MR_CERTIFIED_BOUND else _MR_BASES + _MR_EXTRA_BASES
    return not any(_mr_witness(a % n, n, d, s) for a in bases)


def is_certified_prime(n: int) -> bool:
    """True iff ``n`` is prime and small enough for the test to be exhaustive."""
    return n < MR_CERTIFIED_BOUND and is_probable_prime(n)


@lru_cache(maxsize=4)
def primes_below(bound: int) -> tuple[int, ...]:
    """All primes < bound, by a sieve of the odd numbers.  Cached; bounds in
    use are few."""
    if bound <= 2:
        return ()
    # odd[i] stands for 2*i + 1; p*p is the first odd multiple of p to strike.
    odd = bytearray([1]) * (bound // 2)
    odd[0] = 0
    for i in range(1, (math.isqrt(bound - 1) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            start = p * p // 2
            odd[start::p] = bytes(len(range(start, len(odd), p)))
    return (2, *compress(range(1, bound, 2), odd))


# Primes are tried in blocks of this many: the first block one by one, each
# later block by one gcd with the product of its primes.
_BLOCK = 256

# The first block: the primes below 1620, the 256th being 1619.  Kept out of
# the primes_below cache, so a trial division that ends inside it builds no
# sieve and takes no slot there.
_FIRST_BLOCK = primes_below.__wrapped__(1620)


@lru_cache(maxsize=4)
def _block_products(bound: int) -> tuple[int, ...]:
    """Products of the blocks of primes < bound after the first block.

    Cached beside ``primes_below``; about 180 KB for bound 10**6.
    """
    primes = primes_below(bound)
    return tuple(
        math.prod(primes[i : i + _BLOCK]) for i in range(_BLOCK, len(primes), _BLOCK)
    )


def trial_factor(t: int, bound: int) -> tuple[list[tuple[int, int]], int]:
    """Factor |t| by trial division with primes < bound.

    Returns (factors, cofactor) where factors is a list of (p, multiplicity)
    pairs in increasing p and cofactor is the unfactored remainder (1 when
    the factorization is complete).  t must be nonzero.

    The first block of primes is tried one by one.  Each later block is
    tried at once: gcd(t, product of the block) is 1 unless some prime of the
    block divides t, and only then are that block's primes tried one by one.
    The sieve and the block products are built the first time some t
    outlives the first block.  Division stops once the square of the next
    prime exceeds what is left of t, which is then 1 or a prime, or once
    what is left is a certified prime, which no later block can split.  That
    is checked after the first block and after each block that divided t.
    """
    if t == 0:
        raise ValueError("cannot factor zero")
    t = abs(t)
    out: list[tuple[int, int]] = []

    def divide_out(p: int) -> None:
        nonlocal t
        nu = valp(p, t)
        t //= p**nu
        out.append((p, nu))

    for p in _FIRST_BLOCK:
        if p >= bound or p * p > t:
            break
        if t % p == 0:
            divide_out(p)
    else:  # t outlived the first block
        if not is_certified_prime(t):
            primes = primes_below(bound)
            for k, product in enumerate(_block_products(bound), 1):
                lo = k * _BLOCK
                if primes[lo] * primes[lo] > t:
                    break
                g = math.gcd(t, product)
                if g == 1:
                    continue
                for p in primes[lo : lo + _BLOCK]:
                    if g % p == 0:
                        divide_out(p)
                        g //= p
                        if g == 1:
                            break
                if is_certified_prime(t):
                    break
    if 1 < t < bound * bound:
        # t is prime when division stopped at p*p > t (all smaller primes
        # were tried) or at a certified prime.  Otherwise every prime below
        # the bound was tried, so all factors of t are >= bound and a
        # composite t would be >= bound**2.
        out.append((t, 1))
        t = 1
    return out, t


class Memo:
    """The results of a pure function for its ``size`` most recent keys.

    Values must be immutable and never None: every caller shares them.
    """

    def __init__(self, size: int):
        self.size = size
        self._items: dict = {}

    def get(self, key):
        """The value remembered for ``key``, now the most recent, or None."""
        value = self._items.pop(key, None)
        if value is not None:
            self._items[key] = value
        return value

    def put(self, key, value):
        """Remember ``value`` for ``key``, dropping the least recent key if full."""
        self._items.pop(key, None)
        self._items[key] = value
        if len(self._items) > self.size:
            del self._items[next(iter(self._items))]
        return value

    def clear(self) -> None:
        self._items.clear()


# (factors, cofactor) as trial_factor returns them, frozen into tuples.
Factorization = tuple[tuple[tuple[int, int], ...], int]

# Factorizations keyed by (|t|, bound).  A report asks about the same few
# integers several times (the discriminant, its stripped parts, gcd(a, b));
# this keeps each to one trial division.  A scan divides only gcd(a, b), which
# takes few values on a box and recurs row after row, and the discriminants of
# its alpha rows: 25 integers for r in 3..4 and |a|, |b| <= 16.
FACTORIZATIONS = Memo(256)


def factored(t: int, bound: int) -> Factorization:
    """``trial_factor(t, bound)`` as tuples, shared through FACTORIZATIONS.

    t must be nonzero.
    """
    key = (abs(t), bound)
    hit = FACTORIZATIONS.get(key)
    if hit is None:
        small, cofactor = trial_factor(t, bound)
        hit = FACTORIZATIONS.put(key, (tuple(small), cofactor))
    return hit


def strip_factored(p: int, t: int, bound: int) -> StrippedInt:
    """``strip_p(p, t)``, with the stripped part's factorization derived.

    The factorization of the unit part is that of t without p, exactly what
    ``trial_factor`` returns for it: no integer is divided again.  A p at or
    above the bound can only divide an unfactored cofactor; what is left of
    that cofactor is claimed as a prime when it is below bound**2, by the
    rule of ``trial_factor``.  The result is remembered, so a later
    ``factored`` call on the unit part shares it.
    """
    stripped = strip_p(p, t)
    small, cofactor = factored(t, bound)
    kept = tuple(fe for fe in small if fe[0] != p)
    cofactor //= p ** valp(p, cofactor)
    if 1 < cofactor < bound * bound:
        kept += ((cofactor, 1),)
        cofactor = 1
    FACTORIZATIONS.put((abs(stripped.unit_part), bound), (kept, cofactor))
    return stripped


def iroot(t: int, k: int) -> int:
    """Floor of the k-th root of the non-negative integer ``t``."""
    if t < 0 or k < 1:
        raise ValueError("iroot needs t >= 0 and k >= 1")
    if k == 1 or t < 2:
        return t
    if k == 2:
        return math.isqrt(t)
    x = 1 << (t.bit_length() + k - 1) // k  # upper-ish start for Newton
    while True:
        y = ((k - 1) * x + t // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > t:
        x -= 1
    return x


def perfect_power(t: int) -> tuple[int, int] | None:
    """(base, k) with base**k == t and k >= 2, or None.  Requires t >= 2."""
    if t < 2:
        raise ValueError("perfect_power needs t >= 2")
    bits = t.bit_length()
    # The exponents are the primes k <= bits.  The first-block table holds
    # them for t of up to 1619 bits, which leaves the primes_below cache to
    # the trial-division sieve.
    for k in _FIRST_BLOCK if bits <= _FIRST_BLOCK[-1] else primes_below(bits + 1):
        if k > bits:
            break
        r = iroot(t, k)
        if r**k == t:
            deeper = perfect_power(r) if r >= 2 else None
            if deeper is not None:
                return deeper[0], deeper[1] * k
            return r, k
    return None
