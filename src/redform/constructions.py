"""Tensor-construction functors in the group sense and the Lie-algebra sense.

A construction expression is an AST over Id | Sym | Ext | Tensor | Dual |
DSum.  `apply_group` gives the induced action of an invertible matrix on the
constructed space; `apply_algebra` its linearization, characterized by
Const(I + eps N) = I + eps const(N) with eps^2 = 0.

Basis conventions: monomials of a symmetric power are ordered graded-lex with
X_1 > X_2 > ... (index 0 is X_1^m); wedge basis vectors are the r-element
index subsets in lexicographic order.  Column convention: the image of X_j is
sum_i M[i][j] X_i.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import combinations
from math import comb

from .linalg import Mat, _det_cofactor
from .parsing import ParseError, _tokenize

__all__ = [
    "Id", "Sym", "Ext", "Tensor", "Dual", "DSum",
    "dimension", "apply_group", "apply_algebra", "sym_monomials",
    "parse_construction", "format_construction", "ConstructionError",
]


class ConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class Id:
    pass


@dataclass(frozen=True)
class Sym:
    m: int
    inner: object

    def __post_init__(self):
        if self.m < 1:
            raise ConstructionError("symmetric power degree must be >= 1")


@dataclass(frozen=True)
class Ext:
    r: int
    inner: object

    def __post_init__(self):
        if self.r < 1:
            raise ConstructionError("exterior power degree must be >= 1")


@dataclass(frozen=True)
class Tensor:
    left: object
    right: object


@dataclass(frozen=True)
class Dual:
    inner: object


@dataclass(frozen=True)
class DSum:
    inner: object
    copies: int

    def __post_init__(self):
        if self.copies < 1:
            raise ConstructionError("direct-sum copy count must be >= 1")


def dimension(expr, n: int) -> int:
    if isinstance(expr, Id):
        return n
    if isinstance(expr, Sym):
        d = dimension(expr.inner, n)
        return comb(d + expr.m - 1, expr.m)
    if isinstance(expr, Ext):
        d = dimension(expr.inner, n)
        if expr.r > d:
            raise ConstructionError(
                f"exterior power degree {expr.r} exceeds operand dimension {d}")
        return comb(d, expr.r)
    if isinstance(expr, Tensor):
        return dimension(expr.left, n) * dimension(expr.right, n)
    if isinstance(expr, Dual):
        return dimension(expr.inner, n)
    if isinstance(expr, DSum):
        return expr.copies * dimension(expr.inner, n)
    raise ConstructionError(f"unknown construction node {expr!r}")


@lru_cache(maxsize=None)
def sym_monomials(nvars: int, deg: int):
    """Exponent multi-indices of total degree deg, graded-lex, X_1 > ... > X_n."""
    if nvars == 0:
        return (() if deg else ((),))
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), deg, nvars)
    return tuple(out)


def _mono_index(nvars, deg):
    return {mono: k for k, mono in enumerate(sym_monomials(nvars, deg))}


@lru_cache(maxsize=None)
def _wedge_basis(nvars: int, r: int):
    if r > nvars:
        raise ConstructionError(
            f"exterior power degree {r} exceeds operand dimension {nvars}")
    return tuple(combinations(range(nvars), r))


def _sym_group(m: int, G: Mat) -> Mat:
    ring = G.ring
    d = G.rows
    monos = sym_monomials(d, m)
    index = _mono_index(d, m)
    # image of X_j as a dict {exponent: coeff}
    images = []
    for j in range(d):
        images.append({tuple(1 if i == t else 0 for t in range(d)): G.entries[i][j]
                       for i in range(d) if G.entries[i][j] != ring.zero})
    out = Mat.zeros(ring, len(monos), len(monos)).entries
    for col, beta in enumerate(monos):
        poly = {tuple([0] * d): ring.one}
        for j, e in enumerate(beta):
            for _ in range(e):
                poly = _poly_mul(poly, images[j], ring)
        for mono, c in poly.items():
            out[index[mono]][col] = c
    return Mat(ring, out)


def _poly_mul(a, b, ring):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            cur = out.get(k)
            out[k] = va * vb if cur is None else cur + va * vb
    return out


def _sym_algebra(m: int, N: Mat) -> Mat:
    ring = N.ring
    d = N.rows
    monos = sym_monomials(d, m)
    index = _mono_index(d, m)
    out = Mat.zeros(ring, len(monos), len(monos)).entries
    for col, beta in enumerate(monos):
        for j, e in enumerate(beta):
            if e == 0:
                continue
            for i in range(d):
                c = N.entries[i][j]
                if c == ring.zero:
                    continue
                target = list(beta)
                target[j] -= 1
                target[i] += 1
                row = index[tuple(target)]
                # add e * c as a sum, which any coefficient ring has
                out[row][col] = sum([c] * e, out[row][col])
    return Mat(ring, out)


def _ext_group(r: int, G: Mat) -> Mat:
    ring = G.ring
    basis = _wedge_basis(G.rows, r)
    out = []
    for S in basis:
        row = []
        for T in basis:
            sub = [[G.entries[i][j] for j in T] for i in S]
            row.append(_det_cofactor(ring, sub))
        out.append(row)
    return Mat(ring, out)


def _ext_algebra(r: int, N: Mat) -> Mat:
    ring = N.ring
    d = N.rows
    basis = _wedge_basis(d, r)
    index = {S: k for k, S in enumerate(basis)}
    out = Mat.zeros(ring, len(basis), len(basis)).entries
    for col, T in enumerate(basis):
        for pos, t in enumerate(T):
            for i in range(d):
                c = N.entries[i][t]
                if c == ring.zero:
                    continue
                replaced = list(T)
                replaced[pos] = i
                if len(set(replaced)) < r:
                    continue
                sign = _sort_sign(replaced)
                key = tuple(sorted(replaced))
                row = index[key]
                out[row][col] = out[row][col] + (c if sign > 0 else -c)
    return Mat(ring, out)


def _sort_sign(seq):
    """The sign of the permutation that sorts seq (distinct entries)."""
    return -1 if sum(a > b for a, b in combinations(seq, 2)) % 2 else 1


def _kron(A: Mat, B: Mat) -> Mat:
    ring = A.ring
    out = []
    for ia in range(A.rows):
        for ib in range(B.rows):
            row = []
            for ja in range(A.cols):
                a = A.entries[ia][ja]
                row.extend(a * b for b in B.entries[ib])
            out.append(row)
    return Mat(ring, out)


def _block_diag(blocks):
    ring = blocks[0].ring
    n = sum(b.rows for b in blocks)
    out = Mat.zeros(ring, n, n).entries
    off = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out[off + i][off + j] = b.entries[i][j]
        off += b.rows
    return Mat(ring, out)


def apply_group(expr, M: Mat) -> Mat:
    """Matrix of the induced action on the construction; functorial in M."""
    if not M.is_square():
        raise ConstructionError("construction operand must be square")
    if isinstance(expr, Id):
        return M
    if isinstance(expr, Sym):
        return _sym_group(expr.m, apply_group(expr.inner, M))
    if isinstance(expr, Ext):
        return _ext_group(expr.r, apply_group(expr.inner, M))
    if isinstance(expr, Tensor):
        return _kron(apply_group(expr.left, M), apply_group(expr.right, M))
    if isinstance(expr, Dual):
        G = apply_group(expr.inner, M)
        if not G.ring.has_division:
            raise ConstructionError(
                "dual construction needs an invertible operand over a field")
        try:
            return G.inverse().transpose()
        except ValueError:
            raise ConstructionError("singular matrix under a dual construction")
    if isinstance(expr, DSum):
        B = apply_group(expr.inner, M)
        return _block_diag([B] * expr.copies)
    raise ConstructionError(f"unknown construction node {expr!r}")


def apply_algebra(expr, N: Mat) -> Mat:
    """Linearized action: apply_group(e, I + eps N) = I + eps apply_algebra(e, N)."""
    if not N.is_square():
        raise ConstructionError("construction operand must be square")
    if isinstance(expr, Id):
        return N
    if isinstance(expr, Sym):
        return _sym_algebra(expr.m, apply_algebra(expr.inner, N))
    if isinstance(expr, Ext):
        return _ext_algebra(expr.r, apply_algebra(expr.inner, N))
    if isinstance(expr, Tensor):
        L = apply_algebra(expr.left, N)
        R = apply_algebra(expr.right, N)
        return _kron(L, Mat.identity(R.ring, R.rows)) + \
            _kron(Mat.identity(L.ring, L.rows), R)
    if isinstance(expr, Dual):
        return -apply_algebra(expr.inner, N).transpose()
    if isinstance(expr, DSum):
        A = apply_algebra(expr.inner, N)
        return _block_diag([A] * expr.copies)
    raise ConstructionError(f"unknown construction node {expr!r}")


# ---------------------------------------------------------------------------
# construction DSL: id, sym(m,e), ext(r,e), tensor(e1,e2), dual(e), dsum(e,n)


# constructor name -> (node class, argument kinds in the dataclass's field order)
_SYNTAX = {
    "id": (Id, ()),
    "sym": (Sym, ("int", "node")),
    "ext": (Ext, ("int", "node")),
    "tensor": (Tensor, ("node", "node")),
    "dual": (Dual, ("node",)),
    "dsum": (DSum, ("node", "int")),
}
_NAMES = {cls: name for name, (cls, _) in _SYNTAX.items()}
_EXPECTED = {"name": "a constructor", "int": "an integer", "end": "end of input"}


def parse_construction(text: str):
    """The construction a DSL string names.

    Syntax errors raise ParseError with a line and column; invalid nodes such
    as sym(0,id) raise ConstructionError.
    """
    toks = iter(_tokenize(text))

    def take(kind):
        tok = next(toks)
        if tok[0] != kind:
            got = _EXPECTED["end"] if tok[0] == "end" else repr(tok[1])
            raise ParseError(f"expected {_EXPECTED.get(kind, repr(kind))}, "
                             f"got {got}", tok[2], tok[3])
        return tok

    def node():
        _, word, line, col = take("name")
        if word not in _SYNTAX:
            raise ParseError(f"unknown constructor {word!r}", line, col)
        cls, kinds = _SYNTAX[word]
        args = []
        for k, kind in enumerate(kinds):
            take("," if k else "(")
            args.append(node() if kind == "node" else int(take("int")[1]))
        if kinds:
            take(")")
        return cls(*args)

    result = node()
    take("end")
    return result


def _operands(expr):
    """The construction nodes among the arguments of expr, in field order."""
    kinds = _SYNTAX[_NAMES[type(expr)]][1]
    return [getattr(expr, f.name) for kind, f in zip(kinds, fields(expr))
            if kind == "node"]


def format_construction(expr) -> str:
    """The DSL string of a construction; it parses back to the same node."""
    name = _NAMES.get(type(expr))
    if name is None:
        raise ConstructionError(f"unknown construction node {expr!r}")
    args = [format_construction(getattr(expr, f.name)) if kind == "node"
            else str(getattr(expr, f.name))
            for kind, f in zip(_SYNTAX[name][1], fields(expr))]
    return f"{name}({','.join(args)})" if args else name
