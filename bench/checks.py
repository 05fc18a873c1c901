"""Independent checks of the program's outputs, computed with sympy.

Nothing here uses ``redform``'s arithmetic: inputs are rebuilt from the
workloads' plain data, outputs are read coefficient by coefficient (API
results) or parsed from the JSON reports (CLI results), and all algebra runs
in sympy's rational function field ``QQ_I(x)`` with ``DomainMatrix``.  Each
check returns ``None`` when the output is right and otherwise the name of the
first check it failed.
"""

from __future__ import annotations

import json
from math import comb

import sympy
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix


class Algebra:
    """QQ_I(var) from sympy, with conversions from every output format.

    Zero tests are ``not f``: sympy compares a field element with a plain
    integer through its denominator, which is ``1 + 0*I`` here, not ``1``."""

    def __init__(self, var):
        self.sym = sympy.Symbol(var)
        self.dom = QQ_I.frac_field(self.sym)
        self.K = self.dom.field
        self.x = self.K.gens[0]
        self._X = self.K.ring.gens[0]

    def const(self, c):
        return self.K(QQ_I(c, 0))

    def _poly(self, coeffs):
        """A field element from QQ_I coefficients in ascending degree."""
        return self.K.ring.from_dict(
            {(k,): c for k, c in enumerate(coeffs) if c})

    def poly(self, pairs):
        """Plain-data polynomial: (re, im) integer pairs, ascending degree."""
        return self.K.raw_new(self._poly(QQ_I(re, im) for re, im in pairs))

    def matrix(self, rows):
        return self.from_rows([[self.poly(p) for p in row] for row in rows])

    def from_rows(self, rows):
        return DomainMatrix(rows, (len(rows), len(rows[0])), self.dom)

    def column(self, entries):
        return DomainMatrix([[e] for e in entries], (len(entries), 1), self.dom)

    def from_program(self, f):
        """A program ``RatFunc``, read through its coefficient tuples.  It is
        taken as it is, uncancelled: every result below is a difference,
        which sympy cancels, so a zero test never depends on the program
        having reduced its fraction."""
        def conv(p):
            return self._poly(QQ_I(QQ(c.re.numerator, c.re.denominator),
                                   QQ(c.im.numerator, c.im.denominator))
                              for c in p.coeffs)
        return self.K.raw_new(conv(f.num), conv(f.den))

    def from_text(self, text):
        """A rational function as printed in a report (``^``, ``i``)."""
        expr = sympy.parse_expr(text.replace("^", "**"),
                                local_dict={"i": sympy.I, str(self.sym): self.sym})
        return self.dom.from_sympy(expr)

    def diff(self, f):
        """d/dx; sympy's own ``FracElement.diff`` rejects this field's
        generator for the same ``1 + 0*I`` reason."""
        n, d, X = f.numer, f.denom, self._X
        return self.K.new(n.diff(X) * d - n * d.diff(X), d * d)

    def mat_diff(self, M):
        return M.applyfunc(self.diff)

    def is_constant(self, f):
        return not self.diff(f)

    def at(self, f, z):
        return f.numer.evaluate(self._X, z) / f.denom.evaluate(self._X, z)


def gauge(P, A, alg):
    """P[A] = P^-1 (A P - P')."""
    return P.inv() * (A * P - alg.mat_diff(P))


def monomials(n, m):
    """Exponents of degree m in n variables, graded-lex with X_1 first."""
    if n == 1:
        return [(m,)]
    return [(e,) + rest for e in range(m, -1, -1)
            for rest in monomials(n - 1, m - e)]


def sym_algebra(N, m, alg):
    """Matrix of the derivation induced by N on degree-m forms: the column of
    X^b collects b_j * N[i][j] at X^(b - e_j + e_i)."""
    N = N.to_list()
    n = len(N)
    monos = monomials(n, m)
    index = {b: k for k, b in enumerate(monos)}
    out = [[alg.K.zero for _ in monos] for _ in monos]
    for col, b in enumerate(monos):
        for j in range(n):
            if not b[j]:
                continue
            for i in range(n):
                t = list(b)
                t[j] -= 1
                t[i] += 1
                row = index[tuple(t)]
                out[row][col] += b[j] * N[i][j]
    return alg.from_rows(out)


def diagonal(exps, alg):
    n = len(exps)
    return alg.from_rows([[alg.const(e) / alg.x if i == j else alg.K.zero
                           for j, e in enumerate(exps)] for i in range(n)])


# ---------------------------------------------------------------------------
# solution-space checks


def solves(B, phi, alg):
    v = alg.column(phi)
    return (alg.mat_diff(v) - B * v).is_zero_matrix


def independent(vectors, alg):
    """Rank over Q(i)(x) equals the count, shown by full rank at one of a few
    points (a rank drop at a single point would not disprove independence)."""
    if not vectors:
        return True
    for z in (QQ_I(7, 3), QQ_I(-5, 11), QQ_I(13, 2)):
        try:
            rows = [[alg.at(f, z) for f in v] for v in vectors]
        except ZeroDivisionError:
            continue
        if DomainMatrix(rows, (len(rows), len(rows[0])), QQ_I).rank() == len(vectors):
            return True
    return False


def check_basis(vectors, B, expected, alg, prefix):
    if len(vectors) != expected:
        return f"{prefix}-count"
    for phi in vectors:
        if len(phi) != B.shape[0] or not solves(B, phi, alg):
            return f"{prefix}-solves"
    if not independent(vectors, alg):
        return f"{prefix}-independent"
    return None


# ---------------------------------------------------------------------------
# per-workload checks


def check_invariants(inp, basis):
    alg = Algebra("x")
    A = gauge(alg.matrix(inp.P), diagonal(inp.exps, alg), alg)
    B = sym_algebra(A, inp.m, alg)
    vectors = [[alg.from_program(f) for f in vec] for vec in basis.vectors]
    n = len(inp.exps)
    return check_basis(vectors, B, comb(n + inp.m - 1, inp.m), alg, "invariants")


def check_gauge(inp, output):
    gauged, lhs, rhs, same = output
    alg = Algebra("x")
    A, P = alg.matrix(inp.A), alg.matrix(inp.P)

    def read(M):
        return alg.from_rows([[alg.from_program(e) for e in row]
                              for row in M.entries])
    B = read(gauged)
    if not (P * B - A * P + alg.mat_diff(P)).is_zero_matrix:
        return "gauge-identity"
    lhs_s, rhs_s = read(lhs), read(rhs)
    if not (same and (lhs_s - rhs_s).is_zero_matrix
            and (sym_algebra(B, 2, alg) - rhs_s).is_zero_matrix):
        return "gauge-sym2-compat"
    return None


def _report(result, name):
    rc, out, _err = result
    if rc != 0:
        return None, f"{name}-exit-code"
    try:
        return json.loads(out), None
    except json.JSONDecodeError:
        return None, f"{name}-report"


def check_certify(inp, output):
    if inp.kind == "defect":
        return _check_defect(inp, output)
    alg = Algebra("t")
    Q = alg.matrix(inp.Q)
    ct2 = alg.const(inp.c) * alg.x ** 2
    R = alg.from_rows([[alg.K.zero, ct2], [ct2, alg.K.zero]])
    # A = Q^-1[R] = (Q R + Q') Q^-1, so that Q[A] = R
    A = (Q * R + alg.mat_diff(Q)) * Q.inv()

    check, err = _report(output[0], "check")
    if err:
        return err
    invs = check["invariants"]
    if len(invs) != 1:
        return "check-invariant-count"
    phi = [alg.from_text(s) for s in invs[0]["phi"]]
    if not solves(sym_algebra(A, 2, alg), phi, alg):
        return "check-invariant-solves"
    if check["verdict"] != all(alg.is_constant(f) for f in phi):
        return "check-verdict"

    verify, err = _report(output[1], "verify")
    if err:
        return err
    if verify["ok"] is not True:
        return "verify-ok"
    gauged = alg.from_rows([[alg.from_text(s) for s in row]
                            for row in verify["gauged"]["matrix"]])
    if verify["gauged"]["var"] != "t" or not (gauged - R).is_zero_matrix:
        return "verify-gauged"
    cinvs = verify["certificate"]["invariants"]
    if len(cinvs) != 1:
        return "verify-certificate"
    v = [alg.from_text(s) for s in cinvs[0]["phi"]]
    # constant and proportional to the paper's (1, 0, -1)
    if not all(alg.is_constant(f) for f in v) or not v[0] or \
            any(f - v[0] * p for f, p in zip(v, (1, 0, -1))):
        return "verify-certificate"
    return None


def _check_defect(inp, output):
    """Gauged diag(k_i/x): n invariants, the gauge images of the x^(k_i)."""
    alg = Algebra("x")
    A = gauge(alg.matrix(inp.Q), diagonal(inp.exps, alg), alg)
    report, err = _report(output[0], "defect")
    if err:
        return err
    vectors = [[alg.from_text(s) for s in inv["phi"]]
               for inv in report["invariants"]]
    bad = check_basis(vectors, A, len(inp.exps), alg, "defect-invariant")
    if bad:
        return bad
    if report["verdict"] is not False:
        return "defect-verdict"
    return None


def check(workload, op):
    if workload == "invariants":
        return check_invariants(op.inp, op.output)
    if workload == "gauge":
        return check_gauge(op.inp, op.output)
    return check_certify(op.inp, op.output)
