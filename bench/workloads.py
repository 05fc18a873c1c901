"""Seeded inputs and operations of the three benchmark workloads.

Every input is made from ``random.Random`` streams keyed by the workload, the
seed and the operation index, so one seed always gives the same inputs and no
two operations of a run share an input.  Operations go through the public API
(``invariants``, ``gauge``) or the CLI (``certify``) of ``redform`` and return
the program's raw outputs; ``checks.py`` judges them afterwards.

The program is always imported from the ``src`` directory next to this one,
never from an installed copy, so that the benchmark measures the checkout it
sits in.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# ``certify``: one round is ROUND_NORMAL seeded decisions followed by one
# window-defect decision, so failed/attempted is the same in every run.
ROUND_NORMAL = 9

# ``invariants``: n = 2, sym^2; exponents (-a, 10 - a) keep every local
# exponent of sym^2 (the pair sums, -2a .. 20 - 2a) inside the solver's
# [-20, 20] window while the total spread, and with it the ansatz size, is
# the same for every seed.
INV_M = 2
INV_SPREAD = 10


class MissingProgram(RuntimeError):
    pass


def import_redform():
    """Import ``redform`` from ``<root>/src`` and return the package."""
    if not (SRC / "redform" / "__init__.py").is_file():
        raise MissingProgram(f"no redform package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("redform")
    if Path(pkg.__file__).resolve().parent != SRC / "redform":
        raise MissingProgram(f"redform imported from {pkg.__file__}, not {SRC}")
    for name in ("cli", "constructions", "diffsys", "factor", "field",
                 "linalg", "parsing", "ratsols", "reduction", "weinorman"):
        importlib.import_module("redform." + name)
    return pkg


# ---------------------------------------------------------------------------
# plain-data inputs: integer (or Gaussian-integer) coefficient lists, shared
# by the program side and the sympy side of the checks.
#
# A polynomial is a list of (re, im) integer pairs in ascending degree; a
# matrix is a list of rows of polynomials.


def _nonzero(rng, bound, least=1):
    return rng.choice([k for k in range(least, bound + 1)]) * rng.choice((-1, 1))


def _ldu_gauge(rng, n, gaussian=False, least=1):
    """P = L diag(x - a_1, ..., x - a_n) U with unit triangular integer L, U
    (Gaussian-integer L when ``gaussian``) and distinct nonzero integer roots
    a_i.  det P = prod (x - a_i): simple apparent singularities off 0, a
    regular point at infinity, and the same factor structure for every seed,
    so that operations cost about the same.  Off-diagonal entries have
    absolute value in [least, least + 1]."""
    roots = rng.sample([a for a in range(-4, 5) if a], n)
    L = [[(1, 0) if i == j else
          (_nonzero(rng, least + 1, least),
           rng.choice((-1, 1)) if gaussian else 0) if i > j
          else (0, 0) for j in range(n)] for i in range(n)]
    U = [[1 if i == j else _nonzero(rng, least + 1, least) if i < j else 0
          for j in range(n)] for i in range(n)]
    P = []
    for i in range(n):
        row = []
        for j in range(n):
            # sum_k L[i][k] (x - a_k) U[k][j], as (re, im) pairs by degree
            c0 = [0, 0]
            c1 = [0, 0]
            for k in range(n):
                for part in (0, 1):
                    v = L[i][k][part] * U[k][j]
                    c1[part] += v
                    c0[part] -= roots[k] * v
            row.append([tuple(c0), tuple(c1)])
        P.append(row)
    return P


@dataclass(frozen=True)
class InvariantsInput:
    exps: tuple        # (e_1, e_2): the diagonal system is diag(e_i / x)
    P: list            # gauge matrix, plain data
    m: int = INV_M


@dataclass(frozen=True)
class GaugeInput:
    A: list            # 3x3 polynomial system matrix, plain data
    P: list            # 3x3 polynomial gauge matrix, plain data


@dataclass(frozen=True)
class CertifyInput:
    kind: str          # "decide" or "defect"
    c: int             # R_c = [[0, c t^2], [c t^2, 0]] (decide)
    Q: list            # reduction matrix (decide) or gauge matrix (defect)
    exps: tuple = ()   # diag(k_i / x) exponents (defect)


def invariants_input(seed, index):
    rng = random.Random(f"invariants:{seed}:{index}")
    a = rng.randint(INV_SPREAD - 20 // INV_M, 20 // INV_M)
    exps = [-a, INV_SPREAD - a]
    rng.shuffle(exps)
    return InvariantsInput(tuple(exps), _ldu_gauge(rng, 2))


def gauge_input(seed, index):
    rng = random.Random(f"gauge:{seed}:{index}")
    A = [[[(_nonzero(rng, 2), 0), (_nonzero(rng, 2), 0)] for _ in range(3)]
         for _ in range(3)]
    return GaugeInput(A, _ldu_gauge(rng, 3, gaussian=True))


def certify_c_values(seed):
    """Distinct scalings c of R_c, one per decision of a run."""
    values = list(range(1, 401))
    random.Random(f"certify-c:{seed}").shuffle(values)
    return values


def certify_input(seed, index, c_values):
    rng = random.Random(f"certify:{seed}:{index}")
    # |Q_12| = |Q_11| (an entry of U of absolute value 1) makes the X_1^2
    # coefficient of the invariant vanish and the decision about 30% cheaper;
    # entries of absolute value 2 and 3 keep every decision generic
    return CertifyInput("decide", c_values[index % len(c_values)],
                        _ldu_gauge(rng, 2, least=2))


def defect_input(round_index):
    """Window-defect decision of a round.  It does not depend on the seed:
    the program fails it every time, so it must be the same in every run."""
    rng = random.Random(f"defect:{round_index}")
    ks = rng.sample([k for k in range(-30, 31) if abs(k) >= 21], 2)
    return CertifyInput("defect", 0, _ldu_gauge(rng, 2), tuple(ks))


# ---------------------------------------------------------------------------
# conversion of plain data to the program's types


class Program:
    """The imported ``redform`` modules and conversions into their types."""

    def __init__(self, pkg):
        self.field = pkg.field
        self.linalg = pkg.linalg
        self.diffsys = pkg.diffsys
        self.constructions = pkg.constructions
        self.ratsols = pkg.ratsols
        self.parsing = pkg.parsing
        self.cli = pkg.cli

    def poly(self, p):
        f = self.field
        return f.UniPoly([f.GaussRational(re, im) for re, im in p])

    def ratfunc(self, num, den=((1, 0),)):
        return self.field.RatFunc(self.poly(num), self.poly(list(den)))

    def matrix(self, rows):
        return self.linalg.Mat(self.field.RF_RING,
                               [[self.ratfunc(p) for p in row] for row in rows])

    def diagonal_system(self, exps, var):
        f = self.field
        n = len(exps)
        xpoly = [(0, 0), (1, 0)]
        rows = [[self.ratfunc([(e, 0)], xpoly) if i == j else f.RF_ZERO
                 for j, e in enumerate(exps)] for i in range(n)]
        return self.diffsys.LinearDiffSystem(
            self.linalg.Mat(f.RF_RING, rows), var)

    def dihedral_form(self, c):
        f = self.field
        entry = self.ratfunc([(0, 0), (0, 0), (c, 0)])
        return self.diffsys.LinearDiffSystem(
            self.linalg.Mat(f.RF_RING, [[f.RF_ZERO, entry], [entry, f.RF_ZERO]]),
            "t")


# ---------------------------------------------------------------------------
# prepared operations: ``prepare`` does the untimed input work, ``run`` is
# the timed operation, ``output`` is what the checks need afterwards.


class InvariantsOp:
    """rational_solutions of sym^m(P[diag(e_i/x)])."""

    def __init__(self, prog, inp: InvariantsInput):
        self.inp = inp
        self.prog = prog
        D = prog.diagonal_system(inp.exps, "x")
        self.system = prog.diffsys.gauge_transform(prog.matrix(inp.P), D)
        self.output = None

    def run(self):
        c = self.prog.constructions
        B = c.apply_algebra(c.Sym(self.inp.m, c.Id()), self.system.matrix)
        basis = self.prog.ratsols.rational_solutions(
            self.prog.diffsys.LinearDiffSystem(B, "x"))
        self.output = basis


class GaugeOp:
    """P[A] and the sym^2 compatibility sym2(P[A]) = Sym2(P)[sym2(A)]."""

    def __init__(self, prog, inp: GaugeInput):
        self.inp = inp
        self.prog = prog
        self.A = prog.diffsys.LinearDiffSystem(prog.matrix(inp.A), "x")
        self.P = prog.matrix(inp.P)
        self.output = None

    def run(self):
        d, c = self.prog.diffsys, self.prog.constructions
        sym2 = c.Sym(2, c.Id())
        gauged = d.gauge_transform(self.P, self.A)
        lhs = c.apply_algebra(sym2, gauged.matrix)
        rhs = d.gauge_transform(
            c.apply_group(sym2, self.P),
            d.LinearDiffSystem(c.apply_algebra(sym2, self.A.matrix), "x"))
        self.output = (gauged.matrix, lhs, rhs.matrix, lhs == rhs.matrix)


class CertifyOp:
    """One decision through ``cli.main``: check-reduced, then
    verify-reduction --p Q (decide), or check-reduced --construction id on
    a gauged diag(k_i/x) (defect)."""

    def __init__(self, prog, inp: CertifyInput, workdir: Path, tag: str):
        self.inp = inp
        self.prog = prog
        sys_path = workdir / f"{tag}-sys.json"
        if inp.kind == "decide":
            Q = prog.matrix(inp.Q)
            A = prog.diffsys.gauge_transform(Q.inverse(),
                                             prog.dihedral_form(inp.c))
            q_path = workdir / f"{tag}-q.json"
            _write_matrix(q_path, Q, "t", prog)
            self.argvs = [["check-reduced", str(sys_path)],
                          ["verify-reduction", "--p", str(q_path),
                           str(sys_path)]]
        else:
            A = prog.diffsys.gauge_transform(
                prog.matrix(inp.Q), prog.diagonal_system(inp.exps, "x"))
            self.argvs = [["check-reduced", "--construction", "id",
                           str(sys_path)]]
        sys_path.write_text(A.to_json())
        self.output = None

    def run(self):
        results = []
        for argv in self.argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.prog.cli.main(argv)
            results.append((rc, out.getvalue(), err.getvalue()))
        self.output = results


def _write_matrix(path, M, var, prog):
    fmt = prog.parsing.format_ratfunc
    path.write_text(json.dumps(
        {"var": var, "matrix": [[fmt(e, var) for e in row] for row in M.entries]}))


class Workload:
    """Round structure and operation factory of one workload."""

    def __init__(self, name, prog, seed, workdir: Path):
        self.name = name
        self.prog = prog
        self.seed = seed
        self.workdir = workdir
        self.c_values = certify_c_values(seed) if name == "certify" else None

    def round_ops(self, round_index):
        """The operations of one round; round -1 is the untimed warm-up.

        Seeded operation 0 is the warm-up and each round takes the next
        ROUND_NORMAL (certify) or one seeded indices, so no input repeats."""
        if round_index < 0:
            return [self._seeded_op(0)]
        if self.name != "certify":
            return [self._seeded_op(round_index + 1)]
        first = 1 + round_index * ROUND_NORMAL
        ops = [self._seeded_op(first + k) for k in range(ROUND_NORMAL)]
        ops.append(CertifyOp(self.prog, defect_input(round_index),
                             self.workdir, f"r{round_index}-defect"))
        return ops

    def _seeded_op(self, index):
        if self.name == "invariants":
            return InvariantsOp(self.prog, invariants_input(self.seed, index))
        if self.name == "gauge":
            return GaugeOp(self.prog, gauge_input(self.seed, index))
        return CertifyOp(self.prog,
                         certify_input(self.seed, index, self.c_values),
                         self.workdir, f"op{index}")


WORKLOADS = ("invariants", "gauge", "certify")


def make_workdir(root: Path) -> Path:
    path = root / "bench" / "out" / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path
