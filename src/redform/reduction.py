"""Reduced-form certificates, trace normalization, quadratic forms, and the
polynomial system whose solutions are reduction matrices.

The certificate side is fully automatic: given a list of constructions, we
compute the rational solutions of each constructed system, test whether their
coefficients are constant, and record the witness identities against the
Wei-Norman matrices.  The reduction matrix itself is not solved for; instead
`build_system_S` exports the defining polynomial system and
`verify_reduction` checks a candidate matrix exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import (GaussRational, RatFunc, Ring, Q, GR_ZERO, RF_ZERO,
                    RF_ONE, RF_RING)
from .linalg import Mat, mat_vec, solve
from .diffsys import (LinearDiffSystem, gauge_transform, matrix_derivative,
                      pick_ordinary_point)
from .constructions import (apply_algebra, apply_group, sym_monomials,
                            format_construction, Dual, ConstructionError,
                            _operands)
from .weinorman import decompose, WeiNormanDecomposition
from .ratsols import rational_solutions, log_derivative_rational
from .parsing import format_ratfunc, format_gauss

__all__ = ["InvariantSolution", "ReductionCertificate", "PolySystemExport",
           "VerificationReport", "MultiPoly", "is_reduced", "normalize_trace",
           "quadform_from_invariant", "gauss_diagonalize", "build_system_S",
           "verify_reduction"]


@dataclass(frozen=True)
class InvariantSolution:
    """One rational solution of a constructed system, with its evaluation."""
    construction: object
    phi: tuple          # RatFunc vector solving Y' = const(A) Y
    v: tuple            # phi(z0), a constant vector
    z0: GaussRational

    def is_constant(self):
        return all(f.is_constant() for f in self.phi)

    def to_json_dict(self, var):
        return {
            "construction": format_construction(self.construction),
            "phi": [format_ratfunc(f, var) for f in self.phi],
            "v": [format_gauss(c) for c in self.v],
            "z0": format_gauss(self.z0),
            "constant": self.is_constant(),
        }


@dataclass(frozen=True)
class ReductionCertificate:
    """Verdict of the constant-invariant criterion, relative to the checked
    constructions, together with the Wei-Norman witness vectors."""
    decomposition: WeiNormanDecomposition
    invariants: tuple       # InvariantSolution list
    verdict: bool
    witnesses: tuple        # witnesses[k][i] = const_k(M_i) . v_k
    constructions: tuple

    def to_json_dict(self, var):
        return {
            "verdict": self.verdict,
            "constructions": [format_construction(e) for e in self.constructions],
            "wei_norman_rank": self.decomposition.rank,
            "invariants": [inv.to_json_dict(var) for inv in self.invariants],
            "witnesses": [[[format_gauss(c) for c in w] for w in per_inv]
                          for per_inv in self.witnesses],
        }


# ---------------------------------------------------------------------------
# multivariate polynomials over k, for the exported system


class MultiPoly:
    """Polynomial in several unknowns with RatFunc coefficients.

    Stored as {exponent tuple: coefficient}; zero coefficients are dropped.
    Supports just enough arithmetic to serve as a construction coefficient
    ring (no division).
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {k: v for k, v in (terms or {}).items() if not v.is_zero()}

    @classmethod
    def const(cls, nvars, c: RatFunc):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars, idx):
        e = tuple(1 if t == idx else 0 for t in range(nvars))
        return cls(nvars, {e: RF_ONE})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            cur = out.get(k)
            out[k] = v if cur is None else cur + v
        return MultiPoly(self.nvars, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            cur = out.get(k)
            out[k] = -v if cur is None else cur - v
        return MultiPoly(self.nvars, out)

    def __neg__(self):
        return MultiPoly(self.nvars, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                k = tuple(a + b for a, b in zip(ka, kb))
                prod = va * vb
                cur = out.get(k)
                out[k] = prod if cur is None else cur + prod
        return MultiPoly(self.nvars, out)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.terms!r})"


def poly_ring(nvars) -> Ring:
    return Ring(MultiPoly.const(nvars, RF_ZERO),
                MultiPoly.const(nvars, RF_ONE), False,
                f"k[{nvars} unknowns]")


def _format_multipoly(p: MultiPoly, names, var) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for expo in sorted(p.terms, key=lambda k: (-sum(k), tuple(-e for e in k))):
        coeff = p.terms[expo]
        mono = "*".join(names[t] if e == 1 else f"{names[t]}^{e}"
                        for t, e in enumerate(expo) if e)
        if coeff.is_constant():
            cs = format_gauss(coeff.constant_value())
        else:
            cs = format_ratfunc(coeff, var)
        if mono:
            if cs == "1":
                s = mono
            elif cs == "-1":
                s = "-" + mono
            else:
                if any(op in cs[1:] for op in "+-") or "/" in cs or "*" in cs:
                    cs = f"({cs})"
                s = f"{cs}*{mono}"
        else:
            s = cs
        if parts and not s.startswith("-"):
            parts.append("+" + s)
        else:
            parts.append(s)
    return "".join(parts)


@dataclass(frozen=True)
class PolySystemExport:
    """Polynomial system whose solutions P (with det P invertible) transform
    the computed invariants into their constant evaluations."""
    unknowns: tuple     # variable names, last one the determinant reciprocal
    equations: tuple    # MultiPoly list, implicitly "= 0"
    var: str            # name of the base-field variable

    def to_text(self) -> str:
        lines = [_format_multipoly(eq, self.unknowns, self.var)
                 for eq in self.equations]
        return "\n".join(lines) + "\n"

    def sidecar_dict(self):
        return {
            "unknowns": list(self.unknowns),
            "base_field": f"Q(i)({self.var})",
            "equations": len(self.equations),
        }


def _contains_dual(expr) -> bool:
    return isinstance(expr, Dual) or any(map(_contains_dual, _operands(expr)))


# ---------------------------------------------------------------------------


def _collect_invariants(sys: LinearDiffSystem, constructions, z0):
    """Rational solutions of each Y' = const_e(A) Y, evaluated at z0.

    A pole of an invariant at z0 raises ZeroDivisionError.
    """
    invariants = []
    for e in constructions:
        B = apply_algebra(e, sys.matrix)
        basis = rational_solutions(LinearDiffSystem(B, sys.var))
        invariants.extend(InvariantSolution(e, phi, tuple(f.eval(z0) for f in phi),
                                            z0) for phi in basis.vectors)
    return invariants


def is_reduced(sys: LinearDiffSystem, constructions) -> ReductionCertificate:
    """Constant-invariant criterion relative to the supplied constructions.

    For each construction e the rational solutions of Y' = const_e(A) Y are
    computed and evaluated at an ordinary point z0.  The verdict is true when
    every solution has constant coefficients; the certificate records, for
    each invariant and each Wei-Norman matrix M_i, the witness vector
    const_e(M_i) . v.
    """
    constructions = tuple(constructions)
    if not constructions:
        raise ValueError("at least one construction is required")
    z0 = pick_ordinary_point(sys)
    deco = decompose(sys)
    invariants = _collect_invariants(sys, constructions, z0)

    witnesses = []
    witnesses_zero = True
    for inv in invariants:
        per_inv = []
        for M in deco.mats:
            cm = apply_algebra(inv.construction, M)
            w = tuple(mat_vec(cm, list(inv.v)))
            per_inv.append(w)
            if any(c != GR_ZERO for c in w):
                witnesses_zero = False
        witnesses.append(tuple(per_inv))

    constant = all(inv.is_constant() for inv in invariants)
    return ReductionCertificate(deco, tuple(invariants),
                                constant and witnesses_zero,
                                tuple(witnesses), constructions)


def normalize_trace(sys: LinearDiffSystem):
    """Gauge by diag(u,1,...,1) with u'/u = Tr(A), making the trace zero.

    Returns (P, new system); P is the identity when the trace already
    vanishes, and None (with the system unchanged) when no rational u exists.
    """
    n = sys.size
    tr = sys.matrix.trace()
    if tr.is_zero():
        return Mat.identity(RF_RING, n), sys
    u = log_derivative_rational(tr)
    if u is None:
        return None, sys
    entries = [[u if i == 0 and j == 0 else
                (RF_ONE if i == j else RF_ZERO) for j in range(n)]
               for i in range(n)]
    P = Mat(RF_RING, entries)
    return P, gauge_transform(P, sys)


def quadform_from_invariant(phi, n: int) -> Mat:
    """Symmetric matrix S of the quadratic form with graded-lex coefficients phi."""
    monos = sym_monomials(n, 2)
    phi = list(phi)
    if len(phi) != len(monos):
        raise ValueError(
            f"expected {len(monos)} coefficients for a quadratic form in "
            f"{n} variables, got {len(phi)}")
    half = RatFunc.const(GaussRational(Q(1, 2)))
    S = [[RF_ZERO] * n for _ in range(n)]
    for coeff, mono in zip(phi, monos):
        nz = [t for t, e in enumerate(mono) if e]
        if len(nz) == 1:
            S[nz[0]][nz[0]] = coeff
        else:
            i, j = nz
            S[i][j] = coeff * half
            S[j][i] = coeff * half
    return Mat(RF_RING, S)


def gauss_diagonalize(S: Mat):
    """Congruence diagonalization: returns (Q, D) with Q^T S Q = D, det Q != 0.

    Q is a product of elementary matrices.  The factors A[i][j] / A[i][i]
    that clear row i all come from the same A = Q^T S Q, so one elementary
    matrix clears the whole row.
    """
    ring = S.ring
    n = S.rows
    if S != S.transpose():
        raise ValueError("matrix is not symmetric")
    Qm = Mat.identity(ring, n)

    def congruence(changes):
        # Q <- Q E, E the identity but for {(row, col): entry}; returns Q^T S Q
        nonlocal Qm
        Qm = Qm * Mat(ring, [[changes.get((r, c), ring.one if r == c
                                           else ring.zero) for c in range(n)]
                             for r in range(n)])
        return (Qm.transpose() * S * Qm).entries

    A = S.entries
    for i in range(n):
        if A[i][i] == ring.zero:
            j = next((j for j in range(i + 1, n) if A[j][j] != ring.zero), None)
            if j is not None:
                # swap basis vectors i and j
                A = congruence({(i, i): ring.zero, (j, j): ring.zero,
                                (i, j): ring.one, (j, i): ring.one})
            else:
                j = next((j for j in range(i + 1, n)
                          if A[i][j] != ring.zero), None)
                if j is None:
                    continue
                # col_i += col_j (and mirrored), making A[i][i] = 2 A[i][j]
                A = congruence({(j, i): ring.one})
        A = congruence({(i, j): -(A[i][j] / A[i][i]) for j in range(i + 1, n)
                        if A[i][j] != ring.zero})
    D = Mat(ring, [[A[i][j] if i == j else ring.zero for j in range(n)]
                   for i in range(n)])
    return Qm, D


def build_system_S(invariants, n: int, var: str = "x") -> PolySystemExport:
    """Polynomial system for a reduction matrix P.

    One block of equations per invariant: Const(P) applied to the constant
    evaluation v, minus the rational solution phi.  A final equation
    det(P) * w - 1 makes the determinant invertible.
    """
    invariants = list(invariants)
    if not invariants:
        raise ValueError("at least one invariant is required")
    names = tuple(f"p_{i + 1}_{j + 1}" for i in range(n) for j in range(n)) + ("w",)
    nv = n * n + 1
    ring = poly_ring(nv)
    P = Mat(ring, [[MultiPoly.var(nv, i * n + j) for j in range(n)]
                   for i in range(n)])
    eqs = []
    for inv in invariants:
        if _contains_dual(inv.construction):
            raise ConstructionError(
                "dual constructions are not supported in the exported system")
        G = apply_group(inv.construction, P)
        v = [MultiPoly.const(nv, RatFunc.const(c)) for c in inv.v]
        img = mat_vec(G, v)
        for comp, f in zip(img, inv.phi):
            eqs.append(comp - MultiPoly.const(nv, f))
    det = P.det()
    w = MultiPoly.var(nv, nv - 1)
    eqs.append(det * w - MultiPoly.const(nv, RF_ONE))
    return PolySystemExport(names, tuple(eqs), var)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a candidate reduction matrix."""
    gauged: LinearDiffSystem
    certificate: ReductionCertificate
    invariant_checks: tuple     # (construction, phi, holds) per original invariant
    ok: bool

    def to_json_dict(self):
        var = self.gauged.var
        return {
            "ok": self.ok,
            "gauged": self.gauged.to_json_dict(),
            "certificate": self.certificate.to_json_dict(var),
            "invariant_checks": [
                {"construction": format_construction(e),
                 "phi": [format_ratfunc(f, var) for f in phi],
                 "holds": holds}
                for e, phi, holds in self.invariant_checks],
        }


def verify_reduction(sys: LinearDiffSystem, P: Mat,
                     constructions) -> VerificationReport:
    """Gauge by P, certify the result, and check the invariant identities.

    Besides running the constant-invariant criterion on P[A], this checks that
    N := P' P^{-1} - A annihilates every computed invariant of the original
    system (const(N) . phi = 0), which is exactly the property a reduction
    matrix must have.  P' P^{-1} is solved from X P = P', transposed, without
    inverting P.
    """
    gauged = gauge_transform(P, sys)
    cert = is_reduced(gauged, constructions)
    N = solve(P.transpose(),
              matrix_derivative(P).transpose()).transpose() - sys.matrix
    checks = []
    all_hold = True
    for e in constructions:
        B = apply_algebra(e, sys.matrix)
        basis = rational_solutions(LinearDiffSystem(B, sys.var))
        cn = apply_algebra(e, N)
        for phi in basis.vectors:
            w = mat_vec(cn, list(phi))
            holds = all(c.is_zero() for c in w)
            checks.append((e, tuple(phi), holds))
            all_hold = all_hold and holds
    return VerificationReport(gauged, cert, tuple(checks),
                              cert.verdict and all_hold)
