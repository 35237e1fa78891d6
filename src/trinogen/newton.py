"""phi-adic Newton polygons with exact integer geometry.

Given a development F = sum a_i(x) * phi(x)**i and a prime p, the point
cloud is {(i, u_i) : a_i != 0} where u_i is the minimum p-adic valuation
of the coefficients of a_i.  The principal polygon is the negative-slope
part of the lower convex envelope of that cloud; its sides carry exact
coprime slope data (h, e), and each side has a residual polynomial over
the residue field F_phi = F_p[t]/(phi mod p), read off the side itself: its
coefficients are the residues of the development's terms at the lattice
points of the side.

Everything here is exact: hulls use big-integer cross products, slopes are
coprime integer pairs, and lattice-point counts are closed-form integer
sums.  No floats appear anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .exactnum import INFINITY
from .polyring import FqField, FqPoly, PhiDevelopment, PolyZ, get_field


class MalformedInput(ValueError):
    """Raised when a cloud or query does not satisfy the documented preconditions."""


@dataclass(frozen=True)
class Side:
    """One negative-slope side of a principal polygon.

    start = (s, u_s) is the left endpoint; the side spans ``length`` = d*e
    abscissas with slope -h/e in lowest terms, so the right endpoint is
    (s + length, u_s - d*h).  d counts the lattice subdivisions of the side.
    """

    start: tuple[int, int]
    length: int
    h: int
    e: int
    d: int

    @property
    def end(self) -> tuple[int, int]:
        return (self.start[0] + self.length, self.start[1] - self.d * self.h)


@dataclass(frozen=True)
class PrincipalPolygon:
    """Negative-slope part of the lower convex envelope of a point cloud.

    ``length`` is the abscissa where the polygon meets the horizontal axis,
    which equals the multiplicity of (phi mod p) in (F mod p).  Vertices of
    the envelope that start the non-negative-slope tail are kept in
    ``discarded`` so that the flat part of the cloud stays visible in
    evidence instead of vanishing silently.
    """

    sides: tuple[Side, ...]
    length: int
    vertices: tuple[tuple[int, int], ...]
    discarded: tuple[tuple[int, int], ...]

    @property
    def note(self) -> str | None:
        if not self.discarded:
            return None
        return "non-negative-slope envelope tail discarded: vertices " + ", ".join(
            f"({x}, {y})" for x, y in self.discarded
        )


def point_cloud(dev: PhiDevelopment) -> tuple[tuple[int, int], ...]:
    """Finite points (i, u_i) of the development, zero terms omitted."""
    return tuple((i, v) for i, v in enumerate(dev.vals) if v is not INFINITY)


def principal_polygon(cloud) -> PrincipalPolygon:
    """Lower convex hull of the cloud restricted to its negative-slope sides.

    The cloud must be a set of lattice points with distinct abscissas,
    non-negative ordinates, and at least one point on the horizontal axis
    (for a monic development the leading term guarantees one).
    """
    points = sorted(cloud)
    if not points:
        raise MalformedInput("empty point cloud")
    # One pass validates the cloud and builds its lower hull (Andrew's
    # monotone chain): each point pops the vertices it does not turn left of,
    # and the point before it is always the last vertex.
    hull: list[tuple[int, int]] = []
    low = points[0][1]
    for pt in points:
        x, y = pt
        if hull and hull[-1][0] == x:
            raise MalformedInput(f"duplicate abscissa {x} in point cloud")
        if y < low:
            low = y
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (y - oy) > (ay - oy) * (x - ox):
                break
            hull.pop()
        hull.append(pt)
    if low < 0:
        raise MalformedInput("negative ordinate in point cloud")
    if low > 0:
        raise MalformedInput("point cloud has no zero-ordinate point")

    vertices: list[tuple[int, int]] = [hull[0]]
    sides: list[Side] = []
    cut = len(hull)
    for idx in range(1, len(hull)):
        (x0, y0), (x1, y1) = hull[idx - 1], hull[idx]
        if y1 >= y0:
            cut = idx - 1
            break
        rise, run = y0 - y1, x1 - x0
        d = gcd(rise, run)
        sides.append(Side(start=(x0, y0), length=run, h=rise // d, e=run // d, d=d))
        vertices.append((x1, y1))
    discarded = tuple(hull[cut:]) if cut < len(hull) else ()

    # The descent ends at the leftmost lowest point, which every lower hull
    # keeps and the checks above put on the axis: this guards the hull code.
    if vertices[-1][1] != 0:  # pragma: no cover
        raise MalformedInput("principal part does not terminate on the horizontal axis")
    return PrincipalPolygon(
        sides=tuple(sides),
        length=vertices[-1][0],
        vertices=tuple(vertices),
        discarded=discarded,
    )


def residue_field(phi: PolyZ, p: int) -> FqField:
    """F_phi = F_p[t]/(phi mod p); plain F_p when phi has degree 1."""
    if phi.degree == 1:
        return get_field(p)
    return get_field(p, tuple(c % p for c in phi.coeffs))


def residual_poly(
    dev: PhiDevelopment, polygon: PrincipalPolygon, side_index: int
) -> FqPoly:
    """Residual polynomial c_0 + c_1 y + ... + c_d y^d of polygon.sides[side_index].

    c_j belongs to the abscissa i = s + j*e of the side.  It is
    a_i / p^{u_i} mod (p, phi) in F_phi when the point (i, u_i) lies on the
    side, that is u_i = u_s - j*h, and zero otherwise (a_i = 0 included).
    Both endpoints of the side are vertices, so the degree is d exactly.
    """
    if not 0 <= side_index < len(polygon.sides):
        raise MalformedInput(f"no side with index {side_index}")
    side = polygon.sides[side_index]
    p = dev.p
    field = residue_field(dev.phi, p)
    s, us = side.start
    coeffs = []
    for j in range(side.d + 1):
        i, u = s + j * side.e, us - j * side.h
        if dev.vals[i] != u:  # INFINITY equals no integer
            coeffs.append(field.zero)
            continue
        scale = p**u
        digits = []
        for c in dev.terms[i]:
            q, r = divmod(c, scale)
            if r:  # pragma: no cover - u is the minimum valuation
                raise ArithmeticError("residue scaling division was not exact")
            digits.append(q)
        coeffs.append(field.elem(digits))
    if coeffs[0] == field.zero or coeffs[-1] == field.zero:  # pragma: no cover - vertices lie on
        raise ArithmeticError("residual endpoints must be nonzero")
    return FqPoly(field, coeffs)


def phi_index(polygon: PrincipalPolygon, deg_phi: int) -> int:
    """deg(phi) times the number of lattice points (x, y), x >= 1, y >= 1,
    on or below the polygon's sides."""
    if deg_phi < 1:
        raise MalformedInput("deg_phi must be positive")
    count = 0
    if polygon.sides:
        # Lattice points directly under the polygon's first vertex.  For a
        # development of a genuine factor the polygon starts at abscissa 0
        # and this adds nothing; it matters only for free-standing clouds
        # whose leftmost point sits at a positive abscissa.
        x0, y0 = polygon.sides[0].start
        if x0 >= 1:
            count += y0
    for side in polygon.sides:
        x0, y0 = side.start
        run = side.length
        for t in range(1, run + 1):
            x = x0 + t
            if x < 1:
                continue
            height = y0 - (side.h * t + side.e - 1) // side.e
            if height > 0:
                count += height
    return count * deg_phi


def lift_balanced(fbar: FqPoly) -> PolyZ:
    """Monic integer lift with lower coefficients in [-p/2, p/2).

    Sends x+1 to x-1 for p = 2, which keeps polygon data aligned with the
    value of the polynomial at +1 rather than -1.
    """
    p = fbar.field.p
    if fbar.field.deg != 1:
        raise ValueError("lift is defined for prime-field polynomials")
    if not fbar.is_monic():
        raise ValueError("lift is defined for monic polynomials")
    out = [c - p if 2 * c >= p else c for c in fbar.coeffs[:-1]]
    out.append(1)
    return PolyZ(out)
