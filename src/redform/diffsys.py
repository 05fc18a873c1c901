"""Linear differential systems Y' = A Y over Q(i)(x).

Gauge transformations, singular points, the canonical truncated fundamental
series matrix normalized to the identity at an ordinary point, and the power
substitution x = t^k.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .field import GaussRational, UniPoly, RatFunc, RF_RING, QI_RING, Q
from .linalg import Mat, solve
from .parsing import parse_ratfunc, format_ratfunc
from .factor import irreducible_factors

__all__ = [
    "LinearDiffSystem", "SeriesFundamentalMatrix", "gauge_transform",
    "singular_points", "pick_ordinary_point", "series_solution",
    "substitute_power",
]

DEFAULT_SERIES_ORDER = 8


@dataclass(frozen=True)
class LinearDiffSystem:
    matrix: Mat
    var: str = "x"

    def __post_init__(self):
        if not self.matrix.is_square():
            raise ValueError("system matrix must be square")
        if self.var == "i":
            raise ValueError("variable name 'i' is reserved for the imaginary unit")

    @property
    def size(self):
        return self.matrix.rows

    def to_json_dict(self):
        return {
            "var": self.var,
            "matrix": [[format_ratfunc(e, self.var) for e in row]
                       for row in self.matrix.entries],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, d):
        var = d["var"]
        rows = [[parse_ratfunc(s, var) for s in row] for row in d["matrix"]]
        return cls(Mat(RF_RING, rows), var)

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))

    @classmethod
    def from_strings(cls, rows, var="x"):
        return cls(Mat(RF_RING, [[parse_ratfunc(s, var) for s in row]
                                 for row in rows]), var)


@dataclass(frozen=True)
class SeriesFundamentalMatrix:
    """Truncated series solution U_0 + U_1 (x-z0) + ... with U_0 = identity."""

    z0: GaussRational
    order: int
    coeffs: tuple  # constant matrices U_0..U_order


def matrix_derivative(m: Mat) -> Mat:
    return m.map(lambda e: e.derivative())


def gauge_transform(P: Mat, sys: LinearDiffSystem) -> LinearDiffSystem:
    """P[A] = P^-1 (A P - P'), solved from P X = A P - P' without inverting P.

    Raises SingularMatrixError on a singular P and ValueError on a mis-shaped one.
    """
    return LinearDiffSystem(solve(P, sys.matrix * P - matrix_derivative(P)),
                            sys.var)


def singular_points(sys: LinearDiffSystem):
    """Irreducible denominator factors with maximal pole order across entries.

    Returns a list of (UniPoly, order), order >= 1.
    """
    dens = [e.den for row in sys.matrix.entries for e in row]
    lcm = UniPoly([1])
    for d in dens:
        lcm = lcm.lcm(d)
    # one factorization; the orders are exact divisibility counts
    return [(p, max(d.multiplicity(p) for d in dens))
            for p, _ in irreducible_factors(lcm)]


def pick_ordinary_point(sys: LinearDiffSystem) -> GaussRational:
    """Smallest nonnegative integer that is a pole of no entry."""
    n = 0
    while True:
        z = GaussRational(n)
        if all(e.den.eval(z) for row in sys.matrix.entries for e in row):
            return z
        n += 1


def series_solution(sys: LinearDiffSystem, z0: GaussRational,
                    order: int = DEFAULT_SERIES_ORDER) -> SeriesFundamentalMatrix:
    """Truncated fundamental matrix at z0 with U(z0) = identity.

    Recursion: (k+1) U_{k+1} = sum_{j<=k} A_j U_{k-j}, A_j the Taylor
    coefficients of A at z0.  Raises at a singular z0.
    """
    if order < 0:
        raise ValueError(f"series order must be nonnegative, got {order}")
    n = sys.size
    p = UniPoly([-z0, 1])
    try:
        digits = [[e.digits(p, order + 1) for e in row]
                  for row in sys.matrix.entries]
    except ZeroDivisionError:
        raise ValueError(f"series expansion at a singular point {z0!r}") from None
    # a digit at x - z0 is a constant polynomial: a Taylor coefficient
    A = [Mat(QI_RING, [[digits[i][j][k].eval(z0) for j in range(n)]
                       for i in range(n)]) for k in range(order + 1)]
    U = [Mat.identity(QI_RING, n)]
    for k in range(order):
        acc = Mat.zeros(QI_RING, n, n)
        for j in range(k + 1):
            acc = acc + A[j] * U[k - j]
        U.append(acc.scale(GaussRational(Q(1, k + 1))))
    return SeriesFundamentalMatrix(z0, order, tuple(U))


def substitute_power(sys: LinearDiffSystem, kexp: int,
                     new_var: str | None = None) -> LinearDiffSystem:
    """Rational substitution x = t^kexp; solutions correspond via composition.

    The substituted system has matrix kexp * t^(kexp-1) * A(t^kexp).
    """
    if kexp < 1:
        raise ValueError("substitution exponent must be >= 1")
    var = new_var if new_var is not None else ("t" if kexp > 1 else sys.var)
    factor = RatFunc(UniPoly([0] * (kexp - 1) + [kexp]))
    B = sys.matrix.map(lambda e: e.compose_power(kexp) * factor)
    return LinearDiffSystem(B, var)
