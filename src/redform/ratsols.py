"""Rational solutions of first-order linear systems over Q(i)(x).

Strategy: at every singular irreducible factor p of the system, and at
infinity, compute the integer exponents a formal Laurent solution can have:
the integer roots of the indicial polynomial of the local recurrence, reached
by EG elimination (S. A. Abramov, "EG-eliminations", J. Difference Equations
Appl. 5, 1999; M. A. Barkatou, "On rational solutions of systems of linear
differential equations", J. Symbolic Comput. 28, 1999).  They bound the
denominator and the numerator degree exactly, with no window.  One exact
linear system over the constants then yields every rational solution, and
each returned vector is also verified by substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .field import (GaussRational, UniPoly, RatFunc, QI_RING, RF_RING,
                    GR_ZERO, UP_ZERO, UP_ONE)
from .linalg import Mat, rref, nullspace, mat_vec, _clear_denominators
from .diffsys import LinearDiffSystem, singular_points
from .factor import irreducible_factors

__all__ = ["RationalSolutionBasis", "rational_solutions",
           "log_derivative_rational"]


@dataclass(frozen=True)
class RationalSolutionBasis:
    vectors: tuple   # tuples of RatFunc, each an exact solution

    @property
    def dim(self):
        return len(self.vectors)


# ---------------------------------------------------------------------------
# local exponents at an irreducible factor p
#
# Let d = deg p and write p^q B = sum_k B_k p^k with digit matrices B_k of
# degree < d.  A solution Y = sum_m y_m p^m, whose digit y_m in Q(i)^(nd)
# holds the d coefficients of each of the n components, satisfies for all m
#     sum_{k>=0} T_k(m) y_{m-k} = 0,
#     T_k(m) = Lo(B_k) + Hi(B_{k-1}) - [k=q-1] (m-q+1) Lo(p')
#              - [k=q] ((m-q) Hi(p') + Dm),
# the coefficient of p^m in p^q (B Y - Y').  Lo(b) and Hi(b) are the matrices
# of y -> b y mod p and y -> (b y) div p, and Dm differentiates a digit.  At
# the lowest index v of a solution, T_0(v) y_v = 0.  EG elimination replaces
# rows until T_0 is nonsingular over Q(i)(m); every new row is implied by the
# relations for all m, so v is an integer root of det T_0.


def _lo_hi(c: UniPoly, p: UniPoly):
    """Lo(c) and Hi(c) by columns: entry [b][a] is the x^a coefficient of
    (c x^b) mod p, respectively of (c x^b) div p."""
    d = p.degree
    lo, hi = [], []
    for b in range(d):
        quo, rem = (c * UniPoly([0] * b + [1])).divmod(p)
        lo.append(rem.coeffs + (GR_ZERO,) * (d - len(rem.coeffs)))
        hi.append(quo.coeffs + (GR_ZERO,) * (d - len(quo.coeffs)))
    return lo, hi


def _local_recurrence(B: Mat, p: UniPoly, q: int, K: int):
    """rows[r][k] is row r of T_k(m), k = 0..K, with entries in Q(i)[m]."""
    n, d = B.rows, p.degree
    pq = RatFunc(p ** q)
    rows = [[[UP_ZERO] * (n * d) for _ in range(K + 1)] for _ in range(n * d)]
    for i, brow in enumerate(B.entries):
        for j, e in enumerate(brow):
            lohi = [_lo_hi(c, p) for c in (e * pq).digits(p, K + 1)]
            for k in range(K + 1):
                for a in range(d):
                    for b in range(d):
                        v = lohi[k][0][b][a]
                        if k:
                            v = v + lohi[k - 1][1][b][a]
                        rows[i * d + a][k][j * d + b] = UniPoly([v])
    lo, hi = _lo_hi(p.derivative(), p)
    for i in range(n):
        for a in range(d):
            r = rows[i * d + a]
            for b in range(d):
                c = i * d + b
                dm = b if a == b - 1 else 0
                r[q - 1][c] = r[q - 1][c] - UniPoly([(1 - q) * lo[b][a],
                                                     lo[b][a]])
                r[q][c] = r[q][c] - UniPoly([dm - q * hi[b][a], hi[b][a]])
    return rows


def _eg_eliminate(rows):
    """T_0 over Q(i)(m) once it is nonsingular, or None when a combined row
    needs a block beyond the expanded ones.

    Each left kernel vector of T_0, cleared to polynomials in m, combines the
    rows into one whose T_0 block is zero; that block is dropped and m -> m+1
    substituted.  The combination replaces the row at the vector's last
    nonzero coefficient, its free index, which no other kernel vector uses.
    """
    while True:
        T0 = Mat(RF_RING, [[RatFunc(e) for e in row[0]] for row in rows])
        kernel = nullspace(T0.transpose())
        if not kernel:
            return T0
        for u in kernel:
            _, width, (flat,) = _clear_denominators([u])
            coeffs = [UniPoly(flat[r * width:(r + 1) * width])
                      for r in range(len(u))]
            support = [r for r, c in enumerate(coeffs) if not c.is_zero()]
            length = min(len(rows[r]) for r in support) - 1
            if length == 0:
                return None
            rows[support[-1]] = [
                [sum((coeffs[r] * rows[r][k][col] for r in support),
                     UP_ZERO).shift(GaussRational(1))
                 for col in range(len(u))]
                for k in range(1, length + 1)]


def _local_exponents(B: Mat, p: UniPoly, q: int):
    """Sorted integers v such that Y' = B Y may have a formal solution
    sum_{m>=v} y_m p^m with y_v != 0, at the irreducible factor p, where
    q >= 1 and p^q B has no pole at p."""
    K = q + 1
    while (T0 := _eg_eliminate(_local_recurrence(B, p, q, K))) is None:
        K *= 2
    return sorted(int(-f.coeffs[0].re)
                  for f, _ in irreducible_factors(T0.det().num)
                  if f.degree == 1 and f.coeffs[0].is_integer())


# ---------------------------------------------------------------------------


def _substitute_reciprocal(f: RatFunc) -> RatFunc:
    """f(1/t) as a rational function of t."""
    d = max(f.num.degree, f.den.degree)
    if d < 0:
        return f
    return RatFunc(f.num.reverse(d), f.den.reverse(d))


def _infinity_system(B: Mat) -> Mat:
    """Matrix of the system satisfied by phi(1/t): C(t) = -t^-2 B(1/t)."""
    t2 = RatFunc(UniPoly([0, 0, 1]))
    return B.map(lambda e: -_substitute_reciprocal(e) / t2)


@lru_cache(maxsize=16)
def rational_solutions(sys: LinearDiffSystem) -> RationalSolutionBasis:
    """Basis of all rational solutions of Y' = B Y.

    Solutions are normalized to reduced echelon form over the constants;
    every vector is verified by exact substitution before being returned.
    The last 16 results are memoized per system (a certificate's check and
    verify steps solve the same systems); the returned basis is immutable,
    so sharing is safe.
    """
    B = sys.matrix
    n = B.rows

    # a solution has a pole of order at most -min(exponents) at p
    den = UP_ONE
    for p, order in singular_points(sys):
        den = den * p ** max(0, -min(_local_exponents(B, p, order), default=0))

    # deg psi - deg den is at most -min(exponents at t = 1/x)
    C = _infinity_system(B)
    t = UniPoly.x()
    inf_order = max((e.den.multiplicity(t) for row in C.entries
                     for e in row if not e.is_zero()), default=0)
    E = den.degree + max(0, -min(_local_exponents(C, t, max(inf_order, 1)),
                                 default=0))

    # reduced echelon basis of the (independent) kernel rows; block j is psi_j
    red, _ = rref(Mat(QI_RING, _solve_ansatz(B, den, E)))
    vectors = [[RatFunc(UniPoly(row[j * (E + 1):(j + 1) * (E + 1)]), den)
                for j in range(n)] for row in red.entries]

    # exact verification; the construction is exact so this must hold
    for vec in vectors:
        lhs = [e.derivative() for e in vec]
        rhs = mat_vec(B, list(vec))
        if lhs != rhs:
            raise AssertionError("solver produced a non-solution (internal error)")
    return RationalSolutionBasis(tuple(tuple(v) for v in vectors))


def _solve_ansatz(B: Mat, den: UniPoly, E: int):
    """Kernel rows for all phi = psi/den with polynomial psi, deg <= E, solving
    phi' = B phi; row block j holds the coefficients of psi_j.

    The system is built with equations and unknowns interleaved by degree
    (equation k*n + i is the x^k coefficient of component i, unknown d*n + j
    the x^d coefficient of psi_j), which makes it banded and keeps the fill
    of the elimination small."""
    n = B.rows
    dlog = RatFunc(den.derivative()) / RatFunc(den)  # den'/den, reduced
    mult, width, (cleared,) = _clear_denominators(
        [[dlog] + [e for row in B.entries for e in row]])
    r_poly, *flat = [UniPoly(cleared[k * width:(k + 1) * width])
                     for k in range(n * n + 1)]
    Bpoly = [flat[i * n:(i + 1) * n] for i in range(n)]

    max_deg = E + max([mult.degree, r_poly.degree if not r_poly.is_zero() else 0]
                      + [p.degree for row in Bpoly for p in row if not p.is_zero()])
    nrows_per_comp = max_deg + 1
    ncols = n * (E + 1)
    rows = [[GR_ZERO] * ncols for _ in range(n * nrows_per_comp)]

    def add_poly(comp, col, poly: UniPoly, sign=1):
        for k, c in enumerate(poly.coeffs):
            if c:
                r = k * n + comp
                rows[r][col] = rows[r][col] + (c if sign > 0 else -c)

    xsh = UniPoly.x()
    for j in range(n):
        for d in range(E + 1):
            col = d * n + j
            xd = xsh ** d
            # - B_ij * mult * x^d  in the equations of component i
            for i in range(n):
                if not Bpoly[i][j].is_zero():
                    add_poly(i, col, Bpoly[i][j] * xd, sign=-1)
            # derivative and logarithmic-derivative terms in component j
            if d > 0:
                add_poly(j, col, mult * (xsh ** (d - 1)) * GaussRational(d))
            add_poly(j, col, r_poly * xd, sign=-1)

    return [[v[d * n + j] for j in range(n) for d in range(E + 1)]
            for v in nullspace(Mat(QI_RING, rows))]


def log_derivative_rational(f: RatFunc):
    """u in k with u'/u = f, when such a rational u exists; otherwise None."""
    if f.is_zero():
        return RatFunc.const(1)
    if f.num.degree >= f.den.degree:
        return None
    u = RatFunc.const(1)
    for p, mult in irreducible_factors(f.den):
        if mult > 1:
            return None
        # residue of f at p: the first p-adic digit of p f / p'
        res = (f * RatFunc(p) / RatFunc(p.derivative())).digits(p, 1)[0]
        if res.degree > 0:
            return None
        c = res.coeffs[0] if res.coeffs else GR_ZERO
        if not c.is_integer():
            return None
        u = u * RatFunc(p) ** int(c.re)
    if u.derivative() / u == f:
        return u
    return None
