"""Rational solutions of first-order linear systems over Q(i)(x).

Strategy: bound the denominator exponent at every singular irreducible factor
(via local exponent analysis), bound the numerator degree via the analysis at
infinity, then solve one exact linear system for the ansatz coefficients over
the constants.  Every returned vector is verified by substitution, so the
solver never returns a wrong solution; completeness holds whenever the
configured windows cover the true local exponents (a warning is attached when
a window may bind).
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import (GaussRational, UniPoly, RatFunc, Ring, QI_RING, GR_ZERO,
                    UP_ONE)
from .linalg import Mat, rref, nullspace, mat_vec, _clear_denominators
from .diffsys import LinearDiffSystem, singular_points
from .factor import irreducible_factors

__all__ = ["BoundConfig", "RationalSolutionBasis", "rational_solutions",
           "log_derivative_rational"]


@dataclass(frozen=True)
class BoundConfig:
    pole_exponent_window: int = 20
    extra_denominator_slack: int = 2
    numerator_degree_cap: int = 60

    def __post_init__(self):
        if min(self.pole_exponent_window, self.extra_denominator_slack,
               self.numerator_degree_cap) < 0:
            raise ValueError("bound parameters must be nonnegative")


@dataclass(frozen=True)
class RationalSolutionBasis:
    vectors: tuple   # tuples of RatFunc, each an exact solution
    warnings: tuple = ()

    @property
    def dim(self):
        return len(self.vectors)


# ---------------------------------------------------------------------------
# arithmetic in the residue field Q(i)[x]/(p)


class QuotRing:
    def __init__(self, p: UniPoly):
        self.p = p
        zero = QuotElem(self, UniPoly())
        one = QuotElem(self, UniPoly([1]))
        self.ring = Ring(zero, one, True, f"Q(i)[x]/({p!r})")

    def elem(self, poly: UniPoly):
        return QuotElem(self, poly % self.p)


class QuotElem:
    __slots__ = ("qr", "poly")

    def __init__(self, qr, poly):
        self.qr = qr
        self.poly = poly

    def __add__(self, other):
        return QuotElem(self.qr, self.poly + other.poly)

    def __sub__(self, other):
        return QuotElem(self.qr, self.poly - other.poly)

    def __neg__(self):
        return QuotElem(self.qr, -self.poly)

    def __mul__(self, other):
        return QuotElem(self.qr, (self.poly * other.poly) % self.qr.p)

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        # extended Euclid in Q(i)[x]
        a, b = self.qr.p, self.poly
        if b.is_zero():
            raise ZeroDivisionError("inverse of zero residue")
        s0, s1 = UniPoly(), UniPoly([1])
        while not b.is_zero():
            q, r = a.divmod(b)
            a, b = b, r
            s0, s1 = s1, s0 - q * s1
        # a = gcd = unit since p irreducible and b nonzero mod p
        if a.degree != 0:
            raise ZeroDivisionError("non-invertible residue (reducible modulus?)")
        inv_unit = a.coeffs[0].inverse()
        return QuotElem(self.qr, (s0 * inv_unit) % self.qr.p)

    def __eq__(self, other):
        if isinstance(other, QuotElem):
            return self.poly == other.poly
        return NotImplemented

    def __hash__(self):
        return hash(self.poly)

    def is_zero(self):
        return self.poly.is_zero()

    def __repr__(self):
        return f"QuotElem({self.poly!r})"


def _reduce_ratfunc_mod(f: RatFunc, qr: QuotRing) -> QuotElem:
    """Image of f in Q(i)[x]/(p); f must have no pole at p."""
    den = qr.elem(f.den)
    if den.is_zero():
        raise ZeroDivisionError("reduction of a function with a pole at the modulus")
    return qr.elem(f.num) * den.inverse()


def residue_matrix(B: Mat, p: UniPoly) -> Mat:
    """Residue of B at a simple-pole factor p, over the residue field."""
    qr = QuotRing(p)
    pf = RatFunc(p)
    dp_inv = qr.elem(p.derivative()).inverse()
    entries = [[_reduce_ratfunc_mod(e * pf, qr) * dp_inv for e in row]
               for row in B.entries]
    return Mat(qr.ring, entries)


def _integer_eigen_scan(R: Mat, lo: int, hi: int):
    """Integers lam in [lo, hi] with det(R - lam I) = 0 over the residue field."""
    found = []
    ring = R.ring
    for lam in range(lo, hi + 1):
        shift = Mat(ring, [[R.entries[i][j] - (ring.one * _qi_in_quot(ring, lam)
                                               if i == j else ring.zero)
                            for j in range(R.cols)] for i in range(R.rows)])
        if shift.det().is_zero():
            found.append(lam)
    return found


def _qi_in_quot(ring, k: int):
    return QuotElem(ring.one.qr, UniPoly.const(GaussRational(k)))


# ---------------------------------------------------------------------------
# local exponent scan at a linear factor with pole order >= 2
#
# Plugging a Laurent ansatz sum_{m>=v} c_m s^m into Y' = B Y gives, for each
# power s^w, the necessary relation
#     (w+1) c_{w+1} = sum_{j=-q}^{w-v} B_j c_{w-j}
# with B_j the Laurent coefficients of B.  Truncating to a finite block of
# relations yields a necessary condition for a solution with exact valuation v
# (a kernel vector with nonzero leading block); scanning v downward gives a
# sound lower bound on attainable valuations within the window.


def _laurent_valuation_candidates(B: Mat, a: GaussRational, q: int,
                                  window: int, depth_extra: int = 4):
    n = B.rows
    depth = q + depth_extra
    # Taylor coefficients of (x-a)^q * B at a, indices 0..depth (Laurent -q..)
    shift_pow = RatFunc(UniPoly([-a, GaussRational(1)])) ** q
    series = [[(e * shift_pow).series(a, depth) for e in row] for row in B.entries]
    Bj = [Mat(QI_RING, [[series[i][jj][t] for jj in range(n)] for i in range(n)])
          for t in range(depth + 1)]  # Bj[t] is the coefficient of order t-q

    candidates = []
    for v in range(-(window + q), 1):
        nb = depth + 1  # unknown blocks c_v .. c_{v+depth}
        rows = []
        for t in range(nb):  # relation for power w = v - q + t
            w = v - q + t
            row = [[GR_ZERO] * (n * nb) for _ in range(n)]
            for j in range(-q, t - q + 1):
                blk = t - q - j
                M = Bj[j + q]
                for i in range(n):
                    for jj in range(n):
                        row[i][blk * n + jj] = row[i][blk * n + jj] - M.entries[i][jj]
            blk_d = t + 1 - q
            if 0 <= blk_d < nb:
                c = GaussRational(w + 1)
                for i in range(n):
                    row[i][blk_d * n + i] = row[i][blk_d * n + i] + c
            rows.extend(row)
        kern = nullspace(Mat(QI_RING, rows))
        if any(any(vec[i] for i in range(n)) for vec in kern):
            candidates.append(v)
    return candidates


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


def _linear_root(p: UniPoly):
    """Root of a degree-1 monic polynomial."""
    return -p.coeffs[0]


def _denominator_bound(B: Mat, p: UniPoly, order: int, cfg: BoundConfig,
                       warnings: list, label: str):
    """Local exponent bound at one irreducible factor: returns D_p >= 0."""
    w, slack = cfg.pole_exponent_window, cfg.extra_denominator_slack
    if order == 1:
        R = residue_matrix(B, p)
        roots = _integer_eigen_scan(R, -w, 0)
        lam_min = min(roots) if roots else 0
        if roots and min(roots) == -w:
            warnings.append(
                f"integer exponent scan at {label} hit the window edge -{w}; "
                f"increase pole_exponent_window if solutions look incomplete")
        return max(0, -lam_min) + slack
    if p.degree == 1:
        a = _linear_root(p)
        cands = _laurent_valuation_candidates(B, a, order, w)
        v_min = min(cands) if cands else 0
        warnings.append(
            f"higher-order pole (order {order}) at {label}: windowed local "
            f"exponent scan used (window {w}, slack {slack})")
        return max(0, -v_min) + slack
    warnings.append(
        f"higher-order pole (order {order}) at non-linear factor {label}: "
        f"bound analysis inconclusive, using order + window ({order} + {w})")
    return order + w


def _factor_label(p: UniPoly, var: str) -> str:
    from .parsing import format_poly
    return format_poly(p, var)


_solution_cache: dict = {}


def rational_solutions(sys: LinearDiffSystem,
                       cfg: BoundConfig = BoundConfig()) -> RationalSolutionBasis:
    """Basis of rational solutions of Y' = B Y within the configured bounds.

    Solutions are normalized to reduced echelon form over the constants;
    every vector is verified by exact substitution before being returned.
    Results are memoized per (system, bounds); the returned basis is
    immutable, so sharing is safe.
    """
    key = (sys.var, tuple(tuple(r) for r in sys.matrix.entries), cfg)
    cached = _solution_cache.get(key)
    if cached is not None:
        return cached
    result = _rational_solutions(sys, cfg)
    _solution_cache[key] = result
    return result


def _rational_solutions(sys: LinearDiffSystem,
                        cfg: BoundConfig) -> RationalSolutionBasis:
    B = sys.matrix
    n = B.rows
    warnings: list = []

    # denominator bound per singular factor
    den = UP_ONE
    for p, order in singular_points(sys):
        dp = _denominator_bound(B, p, order, cfg, warnings,
                                _factor_label(p, sys.var))
        den = den * p ** dp

    # numerator degree bound from the analysis at infinity
    C = _infinity_system(B)
    t_poly = UniPoly.x()
    inf_order = max((e.den.multiplicity(t_poly) for row in C.entries
                     for e in row if not e.is_zero()), default=0)
    w, slack, cap = (cfg.pole_exponent_window, cfg.extra_denominator_slack,
                     cfg.numerator_degree_cap)
    if inf_order == 0:
        growth = 0
    elif inf_order == 1:
        R = residue_matrix(C, t_poly)
        roots = _integer_eigen_scan(R, -w, 0)
        growth = max(0, -min(roots)) if roots else 0
    else:
        cands = _laurent_valuation_candidates(C, GR_ZERO, inf_order, w)
        growth = max(0, -min(cands)) if cands else 0
        warnings.append(
            f"higher-order behavior at infinity (order {inf_order}): windowed "
            f"local exponent scan used (window {w}, slack {slack})")
    E = min(den.degree + growth + slack, cap)
    if den.degree + growth + slack > cap:
        warnings.append(
            f"numerator degree bound capped at {cap} "
            f"(analysis suggested {den.degree + growth + slack})")

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
    return RationalSolutionBasis(tuple(tuple(v) for v in vectors),
                                 tuple(warnings))


def _solve_ansatz(B: Mat, den: UniPoly, E: int):
    """Kernel rows for all phi = psi/den with polynomial psi, deg <= E, solving
    phi' = B phi; row block j holds the coefficients of psi_j."""
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
        base = comp * nrows_per_comp
        for k, c in enumerate(poly.coeffs):
            if c:
                rows[base + k][col] = rows[base + k][col] + (c if sign > 0 else -c)

    xsh = UniPoly.x()
    for j in range(n):
        for d in range(E + 1):
            col = j * (E + 1) + d
            xd = xsh ** d
            # - B_ij * mult * x^d  on equation block i
            for i in range(n):
                if not Bpoly[i][j].is_zero():
                    add_poly(i, col, Bpoly[i][j] * xd, sign=-1)
            # derivative and logarithmic-derivative terms on block j
            if d > 0:
                add_poly(j, col, mult * (xsh ** (d - 1)) * GaussRational(d))
            add_poly(j, col, r_poly * xd, sign=-1)

    return nullspace(Mat(QI_RING, rows))


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
        qr = QuotRing(p)
        res = _reduce_ratfunc_mod(f * RatFunc(p), qr) * \
            qr.elem(p.derivative()).inverse()
        if res.poly.degree > 0:
            return None
        c = res.poly.coeffs[0] if res.poly.coeffs else GR_ZERO
        if not c.is_integer():
            return None
        u = u * RatFunc(p) ** int(c.re)
    if u.derivative() / u == f:
        return u
    return None
