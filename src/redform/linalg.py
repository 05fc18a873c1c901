"""Dense matrices over an arbitrary coefficient ring, with exact kernels.

The ring is described by a `Ring` object (zero, one, has_division).  Matrices
are immutable; elimination works on copies.  Construction matrices stay at
desk scale, so everything is dense.
"""

from __future__ import annotations

from .field import Ring, GaussRational, GR_ZERO, UP_ONE

__all__ = ["Mat", "SingularMatrixError", "rref", "nullspace", "solve",
           "mat_vec"]


class SingularMatrixError(ValueError):
    """A linear solve met a singular coefficient matrix."""


class Mat:
    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: Ring, entries):
        entries = [list(row) for row in entries]
        if entries:
            w = len(entries[0])
            if any(len(r) != w for r in entries):
                raise ValueError("ragged matrix")
        self.ring = ring
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        self.entries = entries

    @classmethod
    def identity(cls, ring, n):
        return cls(ring, [[ring.one if i == j else ring.zero for j in range(n)]
                          for i in range(n)])

    @classmethod
    def zeros(cls, ring, r, c):
        return cls(ring, [[ring.zero] * c for _ in range(r)])

    def is_square(self):
        return self.rows == self.cols

    def __add__(self, other):
        return Mat(self.ring, [[a + b for a, b in zip(ra, rb)]
                               for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return Mat(self.ring, [[a - b for a, b in zip(ra, rb)]
                               for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self):
        return Mat(self.ring, [[-a for a in r] for r in self.entries])

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in matrix product")
            ot = other.entries
            out = []
            for ra in self.entries:
                row = []
                for j in range(other.cols):
                    acc = self.ring.zero
                    for k, a in enumerate(ra):
                        acc = acc + a * ot[k][j]
                    row.append(acc)
                out.append(row)
            return Mat(self.ring, out)
        return self.scale(other)

    def scale(self, s):
        return Mat(self.ring, [[a * s for a in r] for r in self.entries])

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and \
            all(a == b for ra, rb in zip(self.entries, other.entries)
                for a, b in zip(ra, rb))

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.entries))

    def transpose(self):
        return Mat(self.ring, [list(c) for c in zip(*self.entries)]) if self.rows \
            else Mat(self.ring, [[] for _ in range(self.cols)])

    def map(self, fn, ring=None):
        return Mat(ring or self.ring, [[fn(a) for a in r] for r in self.entries])

    def trace(self):
        acc = self.ring.zero
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def det(self):
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        if self.ring.has_division:
            return _det_elimination(self)
        return _det_cofactor(self.ring, self.entries)

    def inverse(self):
        """M^-1, solved from M X = I."""
        return solve(self, Mat.identity(self.ring, self.rows))

    def is_zero(self):
        return all(a == self.ring.zero for r in self.entries for a in r)

    def __repr__(self):
        return f"Mat({self.ring.name}, {self.entries!r})"


def _det_elimination(m: Mat):
    ring = m.ring
    n = m.rows
    work = [list(r) for r in m.entries]
    det = ring.one
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != ring.zero), None)
        if piv is None:
            return ring.zero
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        pv = work[col][col]
        det = det * pv
        inv = ring.one / pv
        for r in range(col + 1, n):
            if work[r][col] != ring.zero:
                f = work[r][col] * inv
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return det


def _det_cofactor(ring, rows):
    n = len(rows)
    if n == 0:
        return ring.one
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = ring.zero
    for j in range(n):
        c = rows[0][j]
        if c == ring.zero:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = c * _det_cofactor(ring, minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def rref(m: Mat):
    """Reduced row echelon form; returns (Mat, pivot column list).

    Row updates only touch the nonzero support of the pivot row, which keeps
    elimination fast on the banded systems the solvers produce.
    """
    ring = m.ring
    zero = ring.zero
    work = [list(r) for r in m.entries]
    pivots = []
    prow = 0
    for col in range(m.cols):
        if prow >= m.rows:
            break
        piv = next((r for r in range(prow, m.rows) if work[r][col] != zero), None)
        if piv is None:
            continue
        work[prow], work[piv] = work[piv], work[prow]
        inv = ring.one / work[prow][col]
        prow_vals = work[prow]
        for k in range(col, m.cols):
            if prow_vals[k] != zero:
                prow_vals[k] = prow_vals[k] * inv
        support = [k for k in range(col, m.cols) if prow_vals[k] != zero]
        gauss = type(zero) is GaussRational
        for r in range(m.rows):
            if r == prow:
                continue
            rv = work[r]
            f = rv[col]
            if f == zero:
                continue
            # a cancelled entry is stored as the shared `zero`, not a new object
            if gauss:
                # fused a - f*b over Q(i), avoiding per-op dispatch
                fre, fim = f.re, f.im
                new = GaussRational.__new__
                if fim:
                    for k in support:
                        a, b = rv[k], prow_vals[k]
                        re = a.re - (fre * b.re - fim * b.im)
                        im = a.im - (fre * b.im + fim * b.re)
                        if re or im:
                            rv[k] = out = new(GaussRational)
                            out.re, out.im = re, im
                        else:
                            rv[k] = zero
                else:
                    for k in support:
                        a, b = rv[k], prow_vals[k]
                        re = a.re - fre * b.re
                        im = a.im - fre * b.im
                        if re or im:
                            rv[k] = out = new(GaussRational)
                            out.re, out.im = re, im
                        else:
                            rv[k] = zero
            else:
                for k in support:
                    v = rv[k] - f * prow_vals[k]
                    rv[k] = v if v else zero
        pivots.append(col)
        prow += 1
    return Mat(ring, work), pivots


def solve(m: Mat, b: Mat) -> Mat:
    """X with m X = b for a square invertible m, read off rref([m | b])."""
    if not m.is_square() or m.rows != b.rows:
        raise ValueError("shape mismatch in linear solve")
    n = m.rows
    red, pivots = rref(Mat(m.ring, [r + s for r, s in zip(m.entries, b.entries)]))
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("singular matrix")
    return Mat(m.ring, [r[n:] for r in red.entries])


def nullspace(m: Mat):
    """Basis of the right kernel, in reduced echelon normalization.

    Each vector is a list of scalars; the entry at its lowest free column is 1.
    """
    ring = m.ring
    red, pivots = rref(m)
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    basis = []
    for fc in free:
        vec = [ring.zero] * m.cols
        vec[fc] = ring.one
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -red.entries[prow][fc]
        basis.append(vec)
    return basis


def mat_vec(m: Mat, v):
    if m.cols != len(v):
        raise ValueError("shape mismatch in matrix-vector product")
    out = []
    for row in m.entries:
        acc = m.ring.zero
        for a, b in zip(row, v):
            acc = acc + a * b
        out.append(acc)
    return out


def _clear_denominators(vectors):
    """Q(i) coefficient rows of vectors of rational functions.

    Returns (den, width, rows): den is the monic lcm of all denominators, and
    row k lists, entry by entry, the `width` coefficients (lowest degree
    first, zero-padded) of the polynomials f * den for f in vectors[k].
    """
    den = UP_ONE
    for vec in vectors:
        for f in vec:
            den = den.lcm(f.den)
    nums = [[f.num * (den // f.den) for f in vec] for vec in vectors]
    width = max((len(p.coeffs) for vec in nums for p in vec), default=0)
    rows = [[c for p in vec
             for c in p.coeffs + (GR_ZERO,) * (width - len(p.coeffs))]
            for vec in nums]
    return den, width, rows
