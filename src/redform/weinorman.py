"""Wei-Norman decomposition A = sum f_i M_i over the constants."""

from __future__ import annotations

from dataclasses import dataclass

from .field import QI_RING
from .linalg import Mat, rref, mat_vec, _clear_denominators
from .diffsys import LinearDiffSystem

__all__ = ["WeiNormanDecomposition", "decompose"]


@dataclass(frozen=True)
class WeiNormanDecomposition:
    coeffs: tuple   # f_1..f_r in k, linearly independent over constants
    mats: tuple     # constant matrices M_1..M_r with A = sum f_i M_i

    @property
    def rank(self):
        return len(self.coeffs)


def decompose(sys: LinearDiffSystem) -> WeiNormanDecomposition:
    """Greedy Wei-Norman decomposition in row-major entry reading order.

    Basis functions are the first entries (over a common denominator) that are
    linearly independent over constants; A = sum f_i M_i exactly.  One rref of
    the matrix whose columns are the entries' coefficient vectors gives both:
    its pivot columns are the basis entries, and its column j holds entry j's
    coordinates in that basis.
    """
    A = sys.matrix
    n = A.rows
    cells = [(i, j) for i in range(n) for j in range(n)
             if not A.entries[i][j].is_zero()]
    if not cells:
        return WeiNormanDecomposition((), ())
    _, _, vecs = _clear_denominators([[A.entries[i][j]] for i, j in cells])
    red, pivots = rref(Mat(QI_RING, vecs).transpose())

    basis = Mat(QI_RING, [vecs[k] for k in pivots]).transpose()
    mats = [Mat.zeros(QI_RING, n, n).entries for _ in pivots]
    for k, (i, j) in enumerate(cells):
        coords = [red.entries[p][k] for p in range(len(pivots))]
        if mat_vec(basis, coords) != vecs[k]:
            raise ValueError("inconsistent linear system in decomposition")
        for M, c in zip(mats, coords):
            M[i][j] = c
    return WeiNormanDecomposition(
        tuple(A.entries[cells[k][0]][cells[k][1]] for k in pivots),
        tuple(Mat(QI_RING, M) for M in mats))
