"""Built-in worked examples: the dihedral 2x2 system and the so(3) 3x3 system.

Each example runs the full pipeline (invariants, exported system or
diagonalization, gauge by the stored reduction matrix, certification) and
produces a deterministic report that the CLI diffs against a stored golden.
"""

from __future__ import annotations

import json
from importlib import resources

from .field import GaussRational, RF_RING
from .linalg import Mat
from .parsing import parse_ratfunc, format_ratfunc
from .diffsys import LinearDiffSystem, gauge_transform, substitute_power
from .constructions import Sym, Ext, Id, apply_algebra, format_construction
from .ratsols import rational_solutions
from .reduction import (is_reduced, build_system_S, normalize_trace,
                        quadform_from_invariant, gauss_diagonalize,
                        verify_reduction, _collect_invariants)
from .weinorman import decompose

__all__ = ["EXAMPLE_NAMES", "builtin_system", "builtin_reduction_matrices",
           "run_example", "load_golden"]

EXAMPLE_NAMES = ("dihedral", "so3")

_DIHEDRAL_ROWS = [["0", "1"],
                  ["x", "1/(2*x)"]]

_SO3_ROWS = [
    ["(2*x^2-2*x+1)/(x*(x^2-1))",
     "(5*x-3*x^3+2*x^5-1+x^2-x^4)/((x-1)*x)",
     "-(2*x^4-3*x^3+x+2)/(x^2*(x-1)^2)"],
    ["-(x*(2*x-1))/((x+1)*(x^2-1))",
     "-(x^5-x^4-x^3+x^2+4*x-1)/(x^2-1)",
     "(x^4-2*x^3+2*x^2+1)/(x*(x+1)*(x-1)^2)"],
    ["-(x^2*(x-1))/(x+1)",
     "-x*(x-1)*(1-x^2+x^4)",
     "(x^5-2*x^4+x^3+2*x-1)/(x*(x-1))"],
]

# Reduction matrices.  The dihedral ones live in t-coordinates (x = t^2),
# where the algebraic entries i and sqrt(x) of the original derivation become
# rational.  The so(3) matrix acts on columns; the matching source states the
# transformation on row vectors, which corresponds to the inverse matrix.
_DIHEDRAL_P1 = [["0", "i"],
                ["i*t", "0"]]
_DIHEDRAL_P2 = [["1", "-1"],
                ["1", "1"]]
_SO3_P = [["(x+1)/x", "(-1)/(x^2-x)", "(-1)/x"],
          ["0", "1/(x^2-1)", "1/(x+1)"],
          ["0", "0", "x^2-x"]]


def _matrix(rows, var):
    return Mat(RF_RING, [[parse_ratfunc(s, var) for s in row] for row in rows])


def _fmt_matrix(m: Mat, var):
    return [[format_ratfunc(e, var) for e in row] for row in m.entries]


def builtin_system(name: str) -> LinearDiffSystem:
    if name == "dihedral":
        return LinearDiffSystem.from_strings(_DIHEDRAL_ROWS, "x")
    if name == "so3":
        return LinearDiffSystem.from_strings(_SO3_ROWS, "x")
    raise KeyError(f"unknown example {name!r}")


def builtin_reduction_matrices(name: str):
    """Stored reduction matrices for an example, with their variable name."""
    if name == "dihedral":
        return [(_matrix(_DIHEDRAL_P1, "t"), "t"),
                (_matrix(_DIHEDRAL_P2, "t"), "t")]
    if name == "so3":
        return [(_matrix(_SO3_P, "x"), "x")]
    raise KeyError(f"unknown example {name!r}")


def _basis_strings(sys, construction, var):
    B = apply_algebra(construction, sys.matrix)
    basis = rational_solutions(LinearDiffSystem(B, var))
    return basis, [[format_ratfunc(f, var) for f in vec]
                   for vec in basis.vectors]


def _run_dihedral():
    sys = builtin_system("dihedral")
    sym2 = Sym(2, Id())
    sym2ext = Sym(2, Ext(2, Id()))
    invariants = _collect_invariants(sys, (sym2, sym2ext), GaussRational(1))
    export = build_system_S(invariants, sys.size, sys.var)

    subst = substitute_power(sys, 2)
    P1, _ = builtin_reduction_matrices("dihedral")[0]
    P2, _ = builtin_reduction_matrices("dihedral")[1]
    g1 = gauge_transform(P1, subst)
    c1 = is_reduced(g1, [sym2])
    g2 = gauge_transform(P2, g1)
    c2 = is_reduced(g2, [sym2])

    return {
        "name": "dihedral",
        "system": sys.to_json_dict(),
        "invariants": {
            format_construction(e): [[format_ratfunc(f, "x") for f in inv.phi]
                                     for inv in invariants
                                     if inv.construction == e]
            for e in (sym2, sym2ext)},
        "system_S": {
            "z0": "1",
            "unknowns": list(export.unknowns),
            "equations": export.to_text().splitlines(),
        },
        "substituted": subst.to_json_dict(),
        "stages": [
            {"gauge": _fmt_matrix(P1, "t"),
             "result": g1.to_json_dict(),
             "verdict": c1.verdict,
             "invariants": [[format_ratfunc(f, "t") for f in inv.phi]
                            for inv in c1.invariants]},
            {"gauge": _fmt_matrix(P2, "t"),
             "result": g2.to_json_dict(),
             "verdict": c2.verdict,
             "invariants": [[format_ratfunc(f, "t") for f in inv.phi]
                            for inv in c2.invariants]},
        ],
    }


def _run_so3():
    sys = builtin_system("so3")
    Pn, _ = normalize_trace(sys)
    sym2 = Sym(2, Id())
    basis, basis_strs = _basis_strings(sys, sym2, "x")

    S = quadform_from_invariant(list(basis.vectors[0]), sys.size)
    _, D = gauss_diagonalize(S)
    P, _ = builtin_reduction_matrices("so3")[0]
    report = verify_reduction(sys, P, [sym2])
    deco = decompose(report.gauged)

    return {
        "name": "so3",
        "system": sys.to_json_dict(),
        "trace_normalization_identity": Pn == Mat.identity(RF_RING, sys.size),
        "invariants": {"sym(2,id)": basis_strs},
        "quadratic_form": _fmt_matrix(S, "x"),
        "gauss_diagonal": [format_ratfunc(D.entries[i][i], "x")
                           for i in range(sys.size)],
        "reduction_matrix": _fmt_matrix(P, "x"),
        "reduced": report.gauged.to_json_dict(),
        "wei_norman": {
            "rank": deco.rank,
            "antisymmetric": all((M + M.transpose()).is_zero()
                                 for M in deco.mats),
            "traceless": all(not M.trace() for M in deco.mats),
        },
        "certificate": {
            "verdict": report.certificate.verdict,
            "invariants": [[format_ratfunc(f, "x") for f in inv.phi]
                           for inv in report.certificate.invariants],
        },
        "verified": report.ok,
    }


def run_example(name: str) -> dict:
    if name == "dihedral":
        return _run_dihedral()
    if name == "so3":
        return _run_so3()
    raise KeyError(f"unknown example {name!r}")


def load_golden(name: str) -> dict:
    if name not in EXAMPLE_NAMES:
        raise KeyError(f"unknown example {name!r}")
    text = resources.files("redform.data").joinpath(f"{name}_golden.json") \
        .read_text()
    return json.loads(text)
