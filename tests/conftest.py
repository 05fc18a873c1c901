"""Shared helpers for the test suite."""

import random
from math import isqrt

import pytest

from redform.field import (GaussRational, UniPoly, RatFunc, Ring, Q, QI_RING,
                           RF_RING)
from redform.linalg import Mat, rref, _clear_denominators
from redform.factor import irreducible_factors
from redform.diffsys import LinearDiffSystem
from redform.parsing import parse_ratfunc


def rf(text, var="x"):
    return parse_ratfunc(text, var)


def mat(rows, var="x"):
    return Mat(RF_RING, [[parse_ratfunc(s, var) for s in row] for row in rows])


def const_mat(rows):
    return Mat(QI_RING, [[GaussRational(c) if not isinstance(c, GaussRational)
                          else c for c in row] for row in rows])


def random_gauss(rng, lo=-3, hi=3):
    return GaussRational(rng.randint(lo, hi))


def random_const_mat(rng, n, lo=-3, hi=3):
    return Mat(QI_RING, [[random_gauss(rng, lo, hi) for _ in range(n)]
                         for _ in range(n)])


def random_invertible_const_mat(rng, n, lo=-3, hi=3):
    while True:
        m = random_const_mat(rng, n, lo, hi)
        if m.det() != GaussRational(0):
            return m


def random_poly(rng, max_deg=2, lo=-3, hi=3):
    return UniPoly([GaussRational(rng.randint(lo, hi))
                    for _ in range(max_deg + 1)])


def random_poly_mat(rng, n, max_deg=2):
    return Mat(RF_RING, [[RatFunc(random_poly(rng, max_deg))
                          for _ in range(n)] for _ in range(n)])


def random_invertible_poly_mat(rng, n, max_deg=2):
    while True:
        m = random_poly_mat(rng, n, max_deg)
        if not m.det().is_zero():
            return m


def span_matrix(vectors):
    """Stack rational-function vectors as Q(i) coefficient rows (for span tests)."""
    return Mat(QI_RING, _clear_denominators(vectors)[2])


def same_span(vecs_a, vecs_b):
    """Whether two sets of rational-function vectors span the same Q(i)-space."""
    if not vecs_a and not vecs_b:
        return True
    if bool(vecs_a) != bool(vecs_b):
        return False
    both = span_matrix(list(vecs_a) + list(vecs_b))
    only_a = span_matrix(list(vecs_a))
    only_b = span_matrix(list(vecs_b))
    ra = len(rref(only_a)[1])
    rb = len(rref(only_b)[1])
    rab = len(rref(both)[1])
    return ra == rb == rab


# ---------------------------------------------------------------------------
# test-only views of library values


def gauss_conjugate(z: GaussRational):
    return GaussRational(z.re, -z.im)


def gauss_is_rational(z: GaussRational):
    return z.im == 0


def taylor(f: RatFunc, z0, order):
    """Taylor coefficients c_0..c_order of f at z0; ZeroDivisionError at a pole."""
    return [d.eval(z0) for d in f.digits(UniPoly([-z0, 1]), order + 1)]


def series_polynomial_matrix(ser, ring=RF_RING):
    """A truncated series solution U_0 + U_1 (x-z0) + ... as a matrix of
    polynomials in x."""
    n = ser.coeffs[0].rows
    shift = RatFunc.x() - RatFunc.const(ser.z0)
    out = Mat.zeros(ring, n, n)
    power = RatFunc.const(1)
    for U in ser.coeffs:
        out = out + U.map(lambda c: RatFunc.const(c), ring).scale(power)
        power = power * shift
    return out


def series_at_base(ser):
    """The value U_0 of a truncated series solution at its base point."""
    return ser.coeffs[0]


def wei_norman_reconstruct(deco, ring) -> Mat:
    """sum f_i M_i of a Wei-Norman decomposition."""
    n = deco.mats[0].rows if deco.mats else 0
    acc = Mat.zeros(ring, n, n)
    for f, M in zip(deco.coeffs, deco.mats):
        acc = acc + M.map(lambda c: RatFunc.const(c) * f, ring)
    return acc


# ---------------------------------------------------------------------------
# dual numbers a + eps b with eps^2 = 0, over an arbitrary base ring: the
# functor-law tests check Const(I + eps N) = I + eps const(N) with them


class DualNum:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __add__(self, other):
        return DualNum(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return DualNum(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return DualNum(-self.a, -self.b)

    def __mul__(self, other):
        return DualNum(self.a * other.a, self.a * other.b + self.b * other.a)

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        ainv = self.a.inverse()
        return DualNum(ainv, -(ainv * self.b * ainv))

    def __eq__(self, other):
        if not isinstance(other, DualNum):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"DualNum({self.a!r}, {self.b!r})"


def dual_ring(base: Ring) -> Ring:
    return Ring(DualNum(base.zero, base.zero), DualNum(base.one, base.zero),
                base.has_division, f"dual({base.name})")


def dual_matrix(a: Mat, b: Mat) -> Mat:
    """Matrix a + eps b over the dual-number ring of a's ring."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("dual matrix parts must share a shape")
    ring = dual_ring(a.ring)
    return Mat(ring, [[DualNum(x, y) for x, y in zip(ra, rb)]
                      for ra, rb in zip(a.entries, b.entries)])


def split_dual_matrix(m: Mat, base: Ring):
    a = Mat(base, [[e.a for e in row] for row in m.entries])
    b = Mat(base, [[e.b for e in row] for row in m.entries])
    return a, b


# ---------------------------------------------------------------------------
# square detection in Q(i) and Q(i)(x)


def _rat_sqrt(q):
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    n, d = int(q.numerator), int(q.denominator)
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Q(rn, rd)
    return None


def gauss_sqrt(z: GaussRational):
    """A square root of z in Q(i) if one exists, else None."""
    if not z:
        return GaussRational(0)
    n = _rat_sqrt(z.norm())
    if n is None:
        return None
    p2 = (z.re + n) / 2
    p = _rat_sqrt(p2)
    if p is None:
        return None
    if p == 0:
        q = _rat_sqrt(-z.re)
        if q is None:
            return None
        return GaussRational(0, q)
    return GaussRational(p, z.im / (2 * p))


def _poly_sqrt(p: UniPoly):
    """g with g^2 = p, or None."""
    if p.is_zero():
        return UniPoly()
    if p.degree % 2:
        return None
    lead = gauss_sqrt(p.leading())
    if lead is None:
        return None
    unit = (p.coeffs[0] if p.degree == 0 else None)
    factors = irreducible_factors(p)
    root = UniPoly.const(lead) if p.degree > 0 else None
    if p.degree == 0:
        s = gauss_sqrt(unit)
        return None if s is None else UniPoly.const(s)
    for f, mult in factors:
        if mult % 2:
            return None
        root = root * f ** (mult // 2)
    return root if root * root == p else None


def is_square_ratfunc(f: RatFunc) -> bool:
    """Whether f is the square of some element of Q(i)(x)."""
    if f.is_zero():
        return True
    return _poly_sqrt(f.num) is not None and _poly_sqrt(f.den) is not None


# ---------------------------------------------------------------------------


@pytest.fixture
def dihedral():
    return LinearDiffSystem.from_strings([["0", "1"], ["x", "1/(2*x)"]], "x")


@pytest.fixture
def so3():
    from redform.gallery import builtin_system
    return builtin_system("so3")


@pytest.fixture
def rng():
    return random.Random(20240817)
