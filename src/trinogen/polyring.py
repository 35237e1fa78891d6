"""Exact univariate polynomial arithmetic over Z and over finite fields.

Two polynomial types live here.  :class:`PolyZ` is a dense integer
polynomial (coefficient index = power of x) with exact division against
monic denominators, subresultant resultants and discriminants, phi-adic
expansion, and characteristic polynomials of root powers via Newton's
identities.  :class:`FqField` / :class:`FqPoly` model F_q = F_p[t]/(modulus)
and dense polynomials over it.  Prime-field elements are ints in [0, p) and
extension-field elements are fixed-length tuples of base-p digits, so every
value has exactly one representation and sorting, hashing and serialization
are canonical.

All computation is exact big-integer arithmetic.  There are no floats and
no precision knobs anywhere in this module.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Sequence

from .exactnum import INFINITY, is_probable_prime, valp


class PolyZ:
    """Dense polynomial over Z; ``coeffs[i]`` is the coefficient of x**i.

    Instances are immutable and normalized (no trailing zero coefficients).
    The zero polynomial has ``coeffs == ()`` and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("PolyZ is immutable")

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PolyZ) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("PolyZ", self.coeffs))

    def __repr__(self) -> str:
        return f"PolyZ({self})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                body = xs if mag == 1 else f"{mag}*{xs}"
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> "PolyZ":
        return PolyZ(-c for c in self.coeffs)

    def __add__(self, other: "PolyZ") -> "PolyZ":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolyZ(out)

    def __sub__(self, other: "PolyZ") -> "PolyZ":
        return self + (-other)

    def __mul__(self, other: "PolyZ") -> "PolyZ":
        if self.is_zero() or other.is_zero():
            return PolyZ()
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return PolyZ(out)

    def __pow__(self, e: int) -> "PolyZ":
        if e < 0:
            raise ValueError("negative power")
        out = PolyZ((1,))
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def scale(self, c: int) -> "PolyZ":
        return PolyZ(c * a for a in self.coeffs)

    def shift(self, k: int) -> "PolyZ":
        """Multiply by x**k."""
        if self.is_zero():
            return self
        return PolyZ((0,) * k + self.coeffs)

    def divrem(self, den: "PolyZ") -> tuple["PolyZ", "PolyZ"]:
        """Exact division by a monic denominator: self = q*den + r, deg r < deg den."""
        if not den.is_monic():
            raise ValueError("divrem requires a monic denominator")
        d = den.degree
        rem = list(self.coeffs)
        if len(rem) < d + 1:
            return PolyZ(), self
        q = [0] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c:
                q[i - d] = c
                for j, dc in enumerate(den.coeffs):
                    rem[i - d + j] -= c * dc
        return PolyZ(q), PolyZ(rem[:d])

    def derivative(self) -> "PolyZ":
        return PolyZ(i * self.coeffs[i] for i in range(1, len(self.coeffs)))

    def __call__(self, t: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * t + c
        return out

    def content(self) -> int:
        """Positive gcd of the coefficients (0 for the zero polynomial)."""
        import math

        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
        return g

    def primitive(self) -> tuple[int, "PolyZ"]:
        """(content, self/content); signs stay with the polynomial part."""
        g = self.content()
        if g == 0:
            raise ValueError("zero polynomial has no primitive part")
        return g, PolyZ(c // g for c in self.coeffs)


# -- resultants ---------------------------------------------------------------


def _prem(a: PolyZ, b: PolyZ) -> PolyZ:
    """Pseudo-remainder: lc(b)**(deg a - deg b + 1) * a reduced by b."""
    db = b.degree
    lb = b.leading
    r = a
    owed = a.degree - db + 1
    while not r.is_zero() and r.degree >= db:
        k = r.degree - db
        r = r.scale(lb) - b.shift(k).scale(r.leading)
        owed -= 1
    if owed > 0:
        r = r.scale(lb**owed)
    return r


def _exact_coeff_div(poly: PolyZ, d: int) -> PolyZ:
    out = []
    for c in poly.coeffs:
        q, rem = divmod(c, d)
        if rem:  # pragma: no cover - subresultant divisions are exact
            raise ArithmeticError("inexact division in subresultant sequence")
        out.append(q)
    return PolyZ(out)


def resultant(a: PolyZ, b: PolyZ) -> int:
    """Resultant of two nonzero integer polynomials (subresultant PRS).

    With the usual convention Res(a, b) = lc(a)**deg(b) * prod b(alpha) over
    the roots of a, so Res(x**2 - 1, x - 2) == 3.
    """
    if a.is_zero() or b.is_zero():
        raise ValueError("resultant requires nonzero polynomials")
    s = 1
    if a.degree < b.degree:
        if (a.degree * b.degree) % 2:
            s = -s
        a, b = b, a
    if b.degree == 0:
        return s * b.leading**a.degree
    ca, a = a.primitive()
    cb, b = b.primitive()
    scale = ca**b.degree * cb**a.degree
    g = h = 1
    while True:
        da, db = a.degree, b.degree
        delta = da - db
        if (da & 1) and (db & 1):
            s = -s
        r = _prem(a, b)
        if r.is_zero():
            return 0
        a, b = b, _exact_coeff_div(r, g * h**delta)
        g = a.leading
        if delta:
            num, rem = divmod(g**delta, h ** (delta - 1))
            if rem:  # pragma: no cover
                raise ArithmeticError("inexact h update in subresultant sequence")
            h = num
        if b.degree == 0:
            break
    da = a.degree
    num, rem = divmod(b.leading**da, h ** (da - 1))
    if rem:  # pragma: no cover
        raise ArithmeticError("inexact final division in subresultant sequence")
    return s * scale * num


def discriminant(f: PolyZ) -> int:
    """Discriminant of a monic integer polynomial.

    disc(f) = (-1)**(n*(n-1)/2) * Res(f, f') for monic f of degree n.
    """
    if not f.is_monic():
        raise ValueError("discriminant is implemented for monic polynomials")
    n = f.degree
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    if n == 1:
        return 1
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative())


# -- power sums and characteristic polynomials of root powers -----------------


def power_sums(f: PolyZ, count: int) -> list[int]:
    """[t_1, ..., t_count] where t_j is the sum of j-th powers of the roots.

    Newton's identities on a monic f; exact integer arithmetic throughout.
    The sums run over the nonzero coefficients only, three for a trinomial.
    """
    if not f.is_monic():
        raise ValueError("power_sums requires a monic polynomial")
    n = f.degree
    c = f.coeffs
    # (i, c[n - i]) for the nonzero coefficients below the leading one, by i.
    terms = [(i, c[n - i]) for i in range(1, n + 1) if c[n - i]]
    t: list[int] = [0] * (count + 1)
    for k in range(1, count + 1):
        acc = -k * c[n - k] if k <= n else 0
        for i, ci in terms:
            if i >= k:
                break
            acc -= ci * t[k - i]
        t[k] = acc
    return t[1:]


def power_charpoly(f: PolyZ, k: int) -> PolyZ:
    """Characteristic polynomial of theta**k over Q, where f(theta) = 0.

    Monic of the same degree as f, with integer coefficients.  Computed from
    the power sums t_{k*j} of f via Newton's identities; each division by j
    is checked to be exact.
    """
    if k < 1:
        raise ValueError("power must be positive")
    n = f.degree
    t = power_sums(f, k * n)
    p = [t[k * j - 1] for j in range(1, n + 1)]
    e = [1] + [0] * n
    for j in range(1, n + 1):
        acc = 0
        for i in range(1, j + 1):
            term = e[j - i] * p[i - 1]
            acc += term if (i - 1) % 2 == 0 else -term
        q, rem = divmod(acc, j)
        if rem:  # pragma: no cover - e_j is integral for integer f
            raise ArithmeticError("Newton identity division was not exact")
        e[j] = q
    coeffs = [0] * (n + 1)
    for j in range(n + 1):
        coeffs[n - j] = e[j] if j % 2 == 0 else -e[j]
    return PolyZ(coeffs)


# -- phi-adic development ------------------------------------------------------


@dataclass(frozen=True)
class PhiDevelopment:
    """F = sum terms[i] * phi**i with deg(terms[i]) < deg(phi).

    ``vals[i]`` is the minimum p-adic valuation of the coefficients of
    ``terms[i]`` (INFINITY exactly when the term is the zero polynomial).
    """

    phi: PolyZ
    p: int
    terms: tuple[PolyZ, ...]
    vals: tuple

    def __len__(self) -> int:
        return len(self.terms)


def term_valuation(p: int, a: PolyZ):
    """min p-adic valuation over the coefficients of ``a``; INFINITY for 0."""
    if a.is_zero():
        return INFINITY
    return min(valp(p, c) for c in a.coeffs if c != 0)


def phi_expand(f: PolyZ, phi: PolyZ, p: int) -> PhiDevelopment:
    """phi-adic development of f, with exactly deg(f)//deg(phi) + 1 terms."""
    if not phi.is_monic() or phi.degree < 1:
        raise ValueError("phi must be monic of degree >= 1")
    if f.is_zero():
        raise ValueError("cannot develop the zero polynomial")
    if p < 2:
        raise ValueError("p must be >= 2")
    count = f.degree // phi.degree + 1
    terms = []
    q = f
    for _ in range(count):
        q, rem = q.divrem(phi)
        terms.append(rem)
    if not q.is_zero():  # pragma: no cover - impossible by degree count
        raise ArithmeticError("development did not terminate")
    vals = tuple(term_valuation(p, a) for a in terms)
    return PhiDevelopment(phi=phi, p=p, terms=tuple(terms), vals=vals)


# -- finite fields -------------------------------------------------------------


def _digits_divmod(num: Sequence[int], den: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Division of F_p[t] digit lists with digits in [0, p).

    ``den`` need not be monic (its leading digit is inverted mod p), and
    either list may end in zeros.  Quotient and remainder come back without
    trailing zeros.
    """
    dd = len(den) - 1
    while dd >= 0 and den[dd] == 0:
        dd -= 1
    if dd < 0:
        raise ZeroDivisionError("division by zero polynomial")
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    if len(num) <= dd:
        return [], num
    inv_lead = pow(den[dd], -1, p)
    low = den[:dd]
    q = [0] * (len(num) - dd)
    for k in range(len(num) - dd - 1, -1, -1):
        c = num[k + dd] * inv_lead % p
        if c:
            q[k] = c
            num[k : k + dd] = [(x - c * y) % p for x, y in zip(num[k : k + dd], low)]
    del num[dd:]
    while num and num[-1] == 0:
        num.pop()
    return q, num


# array typecodes by item size in bytes: the machine-word Kronecker slots.
_SLOT_TYPECODES = {array(tc).itemsize: tc for tc in "BHILQ"}


def _digits_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Product of F_p[t] digit lists with digits in [0, p), reduced mod p.

    Kronecker substitution: each list is packed into one integer, in slots
    wide enough for any coefficient of the product over Z, so the whole
    product is one big-integer multiplication.  Slots of 1, 2, 4 or 8 bytes
    are packed and unpacked as machine arrays in native byte order (on a
    big-endian host both integers hold their digits in reverse, and so does
    their product); wider slots are joined byte string by byte string.
    """
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    bits = ((p - 1) ** 2 * min(len(a), len(b))).bit_length()
    for size in (1, 2, 4, 8):
        if bits <= 8 * size:
            tc, order = _SLOT_TYPECODES[size], sys.byteorder
            x = int.from_bytes(array(tc, a).tobytes(), order)
            y = int.from_bytes(array(tc, b).tobytes(), order)
            out = array(tc)
            out.frombytes((x * y).to_bytes(size * n, order))
            return [c % p for c in out]
    width = (bits + 7) // 8
    x = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in a), "little")
    y = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in b), "little")
    raw = (x * y).to_bytes(width * n, "little")
    return [int.from_bytes(raw[i : i + width], "little") % p for i in range(0, len(raw), width)]


class FqField:
    """The finite field F_p[t]/(modulus).

    ``modulus`` is a monic irreducible polynomial over F_p given as an
    ascending digit tuple; the prime field is the default ``modulus = t``.
    Prime-field elements are plain ints in [0, p).  Extension-field elements
    are tuples of exactly ``deg`` digits in [0, p), least significant first.
    Either way each element has one canonical representation.
    """

    __slots__ = ("p", "modulus", "deg", "zero", "one")

    def __init__(self, p: int, modulus: Sequence[int] | None = None):
        if not is_probable_prime(p):
            raise ValueError(f"field characteristic {p} is not prime")
        object.__setattr__(self, "p", p)
        if modulus is None:
            modulus = (0, 1)
        mod = tuple(c % p for c in modulus)
        while mod and mod[-1] == 0:
            mod = mod[:-1]
        if len(mod) < 2 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        deg = len(mod) - 1
        object.__setattr__(self, "modulus", mod)
        object.__setattr__(self, "deg", deg)
        if deg == 1:
            object.__setattr__(self, "zero", 0)
            object.__setattr__(self, "one", 1)
            return
        object.__setattr__(self, "zero", (0,) * deg)
        object.__setattr__(self, "one", (1,) + (0,) * (deg - 1))
        from . import ffactor  # deferred: ffactor works over prime fields

        if not ffactor.is_irreducible(get_field(p).poly(mod)):
            raise ValueError(f"modulus {mod} is reducible over F_{p}")

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("FqField is immutable")

    @property
    def order(self) -> int:
        return self.p**self.deg

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FqField) and (self.p, self.modulus) == (other.p, other.modulus)

    def __hash__(self) -> int:
        return hash(("FqField", self.p, self.modulus))

    def __repr__(self) -> str:
        if self.deg == 1:
            return f"FqField(p={self.p})"
        return f"FqField(p={self.p}, modulus={self.modulus})"

    # -- elements ------------------------------------------------------------

    def elem(self, digits: int | Sequence[int]):
        """Canonical element from an int (a constant) or any digit sequence
        (reduced mod p, then mod the modulus)."""
        p = self.p
        if isinstance(digits, int):
            digits = (digits,)
        if self.deg == 1:
            return digits[0] % p if digits else 0
        ds = [c % p for c in digits]
        if len(ds) > self.deg:
            _, ds = _digits_divmod(ds, self.modulus, p)
        ds += [0] * (self.deg - len(ds))
        return tuple(ds)

    def from_int(self, k: int):
        """Element from its base-p packed integer form (inverse of to_int)."""
        if not 0 <= k < self.order:
            k %= self.order
        if self.deg == 1:
            return k
        ds = []
        for _ in range(self.deg):
            k, r = divmod(k, self.p)
            ds.append(r)
        return tuple(ds)

    def to_int(self, e) -> int:
        """Base-p packed integer form: sum e[i] * p**i."""
        if self.deg == 1:
            return e
        out = 0
        for d in reversed(e):
            out = out * self.p + d
        return out

    def elem_str(self, e) -> str:
        """Human form: a digit for the prime field, a t-polynomial otherwise."""
        if self.deg == 1:
            return str(e)
        parts = []
        for i in range(self.deg - 1, -1, -1):
            c = e[i]
            if c == 0:
                continue
            ts = "1" if i == 0 else ("t" if i == 1 else f"t^{i}")
            if i > 0 and c > 1:
                ts = f"{c}*{ts}"
            parts.append(ts)
        return "+".join(parts) if parts else "0"

    # -- element arithmetic ----------------------------------------------------

    def add(self, a, b):
        p = self.p
        if self.deg == 1:
            return (a + b) % p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        if self.deg == 1:
            return (a - b) % p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        if self.deg == 1:
            return -a % p
        return tuple(-x % p for x in a)

    def smul(self, k: int, a):
        """Integer scalar multiple (used by derivatives)."""
        p = self.p
        if self.deg == 1:
            return k * a % p
        k %= p
        return tuple(x * k % p for x in a)

    def mul(self, a, b):
        p = self.p
        if self.deg == 1:
            return a * b % p
        conv = [0] * (2 * self.deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        _, rem = _digits_divmod([c % p for c in conv], self.modulus, p)
        rem += [0] * (self.deg - len(rem))
        return tuple(rem)

    def inv(self, a):
        p = self.p
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero field element")
        if self.deg == 1:
            return pow(a, -1, p)
        # extended Euclid in F_p[t] against the modulus
        r0, r1 = list(self.modulus), list(a)
        s0, s1 = [0], [1]
        while any(r1):
            q, r2 = _digits_divmod(r0, r1, p)
            # s2 = s0 - q*s1
            prod = [0] * (len(q) + len(s1))
            for i, x in enumerate(q):
                if x:
                    for j, y in enumerate(s1):
                        prod[i + j] = (prod[i + j] + x * y) % p
            s2 = [(s0[i] if i < len(s0) else 0) - (prod[i] if i < len(prod) else 0) for i in range(max(len(s0), len(prod)))]
            s2 = [c % p for c in s2]
            r0, r1 = r1, r2
            s0, s1 = s1, s2
        while r0 and r0[-1] == 0:
            r0.pop()
        if len(r0) != 1:  # pragma: no cover - modulus is irreducible
            raise ArithmeticError("gcd with irreducible modulus was not constant")
        c = pow(r0[0], -1, p)
        return self.elem([x * c for x in s0])

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.deg == 1:
            return pow(a, e, self.p)
        out = self.one
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    # -- polynomials over the field ---------------------------------------------

    def poly(self, coeffs: Sequence) -> "FqPoly":
        """FqPoly from a sequence of elements, digit tuples, or plain ints."""
        return FqPoly(self, [self.elem(c) for c in coeffs])


_FIELD_CACHE: dict[tuple[int, tuple[int, ...] | None], FqField] = {}


def get_field(p: int, modulus: Sequence[int] | None = None) -> FqField:
    """Construct-or-reuse an FqField (irreducibility is verified once)."""
    key = (p, tuple(modulus) if modulus is not None else None)
    field = _FIELD_CACHE.get(key)
    if field is None:
        field = FqField(p, modulus)
        _FIELD_CACHE[key] = field
    return field


class FqPoly:
    """Dense polynomial over an FqField; ``coeffs[i]`` multiplies y**i.

    Immutable and normalized (no leading zero elements).  Coefficients are
    canonical field elements.  The canonical sort key used everywhere for
    deterministic factor ordering is (degree, coefficient sequence).
    Over a prime field the coefficients are plain ints, so products,
    division, gcd and ``pow_mod`` run the digit-list kernels on them
    directly, and a product takes one big-integer multiplication.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FqField, coeffs: Sequence):
        cs = list(coeffs)
        zero = field.zero
        while cs and cs[-1] == zero:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("FqPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def __getitem__(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FqPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(("FqPoly", self.field, self.coeffs))

    def sort_key(self):
        return (self.degree, self.coeffs)

    def __repr__(self) -> str:
        return f"FqPoly({self.field!r}, {self})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        fld = self.field
        parts = []
        for i in range(self.degree, -1, -1):
            e = self[i]
            if e == fld.zero:
                continue
            es = fld.elem_str(e)
            if i == 0:
                body = es
            else:
                ys = "y" if i == 1 else f"y^{i}"
                if es == "1":
                    body = ys
                elif "+" in es or "*" in es:
                    body = f"({es})*{ys}"
                else:
                    body = f"{es}*{ys}"
            parts.append(body)
        return " + ".join(parts)

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other: "FqPoly") -> None:
        if self.field != other.field:
            raise ValueError("mixed-field polynomial arithmetic")

    def __add__(self, other: "FqPoly") -> "FqPoly":
        self._check(other)
        fld = self.field
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=fld.zero)
        if fld.deg == 1:
            p = fld.p
            return FqPoly(fld, [(x + y) % p for x, y in pairs])
        return FqPoly(fld, [fld.add(x, y) for x, y in pairs])

    def __sub__(self, other: "FqPoly") -> "FqPoly":
        self._check(other)
        fld = self.field
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=fld.zero)
        if fld.deg == 1:
            p = fld.p
            return FqPoly(fld, [(x - y) % p for x, y in pairs])
        return FqPoly(fld, [fld.sub(x, y) for x, y in pairs])

    def __neg__(self) -> "FqPoly":
        fld = self.field
        return FqPoly(fld, [fld.neg(c) for c in self.coeffs])

    def __mul__(self, other: "FqPoly") -> "FqPoly":
        self._check(other)
        fld = self.field
        if fld.deg == 1:
            return FqPoly(fld, _digits_mul(self.coeffs, other.coeffs, fld.p))
        if self.is_zero() or other.is_zero():
            return FqPoly(fld, ())
        zero = fld.zero
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a != zero:
                for j, b in enumerate(other.coeffs):
                    if b != zero:
                        out[i + j] = fld.add(out[i + j], fld.mul(a, b))
        return FqPoly(fld, out)

    def cmul(self, c) -> "FqPoly":
        """Multiply by a field element."""
        fld = self.field
        if fld.deg == 1:
            p = fld.p
            return FqPoly(fld, [c * a % p for a in self.coeffs])
        return FqPoly(fld, [fld.mul(c, a) for a in self.coeffs])

    def __pow__(self, e: int) -> "FqPoly":
        if e < 0:
            raise ValueError("negative power")
        out = self.field.poly([1])
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def divrem(self, den: "FqPoly") -> tuple["FqPoly", "FqPoly"]:
        self._check(den)
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        fld = self.field
        if fld.deg == 1:
            q, r = _digits_divmod(self.coeffs, den.coeffs, fld.p)
            return FqPoly(fld, q), FqPoly(fld, r)
        inv_lead = fld.inv(den.leading)
        rem = list(self.coeffs)
        dd = den.degree
        if len(rem) < dd + 1:
            return FqPoly(fld, ()), self
        q = [fld.zero] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c != fld.zero:
                c = fld.mul(c, inv_lead)
                q[i - dd] = c
                for j, dc in enumerate(den.coeffs):
                    rem[i - dd + j] = fld.sub(rem[i - dd + j], fld.mul(c, dc))
        return FqPoly(fld, q), FqPoly(fld, rem[:dd])

    def __mod__(self, den: "FqPoly") -> "FqPoly":
        return self.divrem(den)[1]

    def __floordiv__(self, den: "FqPoly") -> "FqPoly":
        return self.divrem(den)[0]

    def monic(self) -> "FqPoly":
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        if self.is_monic():
            return self
        return self.cmul(self.field.inv(self.leading))

    def gcd(self, other: "FqPoly") -> "FqPoly":
        """Monic gcd; gcd(0, 0) is an error."""
        self._check(other)
        if self.is_zero() and other.is_zero():
            raise ValueError("gcd(0, 0) is undefined")
        fld = self.field
        if fld.deg == 1:
            p = fld.p
            a, b = self.coeffs, other.coeffs
            while b:
                a, b = b, _digits_divmod(a, b, p)[1]
            inv_lead = pow(a[-1], -1, p)
            return FqPoly(fld, [c * inv_lead % p for c in a])
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def pow_mod(self, e: int, mod: "FqPoly") -> "FqPoly":
        if e < 0:
            raise ValueError("negative exponent")
        fld = self.field
        if fld.deg == 1 and e:
            # Over the prime field the whole loop runs on digit lists.
            p, m = fld.p, mod.coeffs
            base = _digits_divmod(self.coeffs, m, p)[1]
            acc = [1]
            while e:
                if e & 1:
                    acc = _digits_divmod(_digits_mul(acc, base, p), m, p)[1]
                base = _digits_divmod(_digits_mul(base, base, p), m, p)[1]
                e >>= 1
            return FqPoly(fld, acc)
        out = fld.poly([1])
        base = self % mod
        while e:
            if e & 1:
                out = (out * base) % mod
            base = (base * base) % mod
            e >>= 1
        return out

    def derivative(self) -> "FqPoly":
        fld = self.field
        coeffs = enumerate(self.coeffs[1:], 1)
        if fld.deg == 1:
            p = fld.p
            return FqPoly(fld, [i * c % p for i, c in coeffs])
        return FqPoly(fld, [fld.smul(i, c) for i, c in coeffs])

    def __call__(self, e):
        fld = self.field
        out = fld.zero
        for c in reversed(self.coeffs):
            out = fld.add(fld.mul(out, e), c)
        return out


def reduce_mod(f: PolyZ, p: int) -> FqPoly:
    """Reduce an integer polynomial modulo p (coefficients into [0, p))."""
    return FqPoly(get_field(p), [c % p for c in f.coeffs])
