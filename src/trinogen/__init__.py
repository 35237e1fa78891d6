"""trinogen: exact-arithmetic monogenity certificates for integer trinomials.

The library analyzes monic trinomials x^n + a*x^m + b through prime-by-prime
Newton polygons, residual polynomial factorizations, and index bounds, and
emits machine-checkable evidence for every verdict.  All computation is exact
integer arithmetic; nothing is floating point and nothing is probabilistic
except explicitly labeled primality pre-screens backed by deterministic
witness sets in the certified range.

Command line: ``trinogen analyze``, ``trinogen scan``, ``trinogen verify``.
"""

from .exactnum import INFINITY, Infinity, strip_p, valp
from .monogenity import (
    SquarefreeStatus,
    Trinomial,
    VerdictKind,
    disc_trinomial,
    verdict,
)
from .newton import MalformedInput, PrincipalPolygon, principal_polygon
from .ore import OreFactorization, factor_p, index_bound
from .polyring import PolyZ

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "Infinity",
    "MalformedInput",
    "OreFactorization",
    "PolyZ",
    "PrincipalPolygon",
    "SquarefreeStatus",
    "Trinomial",
    "VerdictKind",
    "disc_trinomial",
    "factor_p",
    "index_bound",
    "principal_polygon",
    "strip_p",
    "valp",
    "verdict",
    "__version__",
]
