"""Command-line front end.

Every subcommand reads a system file ({"var": ..., "matrix": [[expr, ...]]}),
runs one pipeline stage, and emits a JSON report (to --out if given, else to
standard output, with a one-line human summary either way).

Exit codes: 0 success, 1 mathematical failure (a verdict contradicting
--expect-reduced, or a golden mismatch in `example`), 2 input error,
3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
import traceback

from .field import GaussRational
from .linalg import Mat, SingularMatrixError
from .parsing import (ParseError, parse_ratfunc, degree_bound, format_ratfunc,
                      format_gauss)
from .diffsys import (LinearDiffSystem, gauge_transform, series_solution,
                      substitute_power, pick_ordinary_point,
                      DEFAULT_SERIES_ORDER)
from .constructions import (parse_construction, format_construction,
                            apply_algebra, apply_group, dimension,
                            ConstructionError, _operands)
from .ratsols import rational_solutions
from .weinorman import decompose
from .reduction import (is_reduced, build_system_S, verify_reduction,
                        _collect_invariants)
from .gallery import EXAMPLE_NAMES, run_example, load_golden, _fmt_matrix

__all__ = ["main"]

# Largest construction dimension the CLI accepts.  Solving a constructed
# system grows faster than the cube of its dimension: sym(64,id) of the 2x2
# dihedral system (dimension 65) takes 161 s and 215 MB on 2 cores.
MAX_CONSTRUCTION_DIM = 100

# Largest system the CLI accepts.  Gauging a system with degree-1 entries
# takes 0.2 s at 4x4, 4.7 s at 8x8 and 157 s at 12x12 on 2 cores.
MAX_SYSTEM_SIZE = 12

# Largest degree of an entry's numerator or denominator, as written.
# check-reduced of [[0, 1], [x^d, 1/(x^d-2)]] takes 0.8 s at d = 16, 4.2 s at
# 32, 15.6 s at 48 and 50 s at 64 on 2 cores, growing about as d^3.3.  The
# entry degrees also bound the degrees of the polynomials the factorizer sees,
# and so the number of modular factors its subset recombination tries.
MAX_ENTRY_DEGREE = 64

# Largest `series --order`: the dihedral system's series takes 1.8 s to
# order 200, 3.6 s to 300 and 176 s to 1000 on 2 cores.
MAX_SERIES_ORDER = 300


class InputError(Exception):
    pass


class MathFailure(Exception):
    pass


def _load_system(path) -> LinearDiffSystem:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    try:
        d = json.loads(text)
        _check_system_size(d, path)
        return LinearDiffSystem.from_json_dict(d)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON: {e}") from None
    except ParseError as e:
        raise InputError(f"{path}: {e}") from None
    except (KeyError, ValueError, TypeError) as e:
        raise InputError(f"{path}: malformed system file: {e}") from None


def _check_system_size(d, path):
    """Refuse a system above MAX_SYSTEM_SIZE or with an entry of degree above
    MAX_ENTRY_DEGREE, before any entry is evaluated."""
    rows = d["matrix"]
    size = max([len(rows)] + [len(row) for row in rows])
    if size > MAX_SYSTEM_SIZE:
        raise InputError(f"{path}: a system of size {size} is above the "
                         f"limit {MAX_SYSTEM_SIZE}")
    for r, row in enumerate(rows):
        for c, entry in enumerate(row):
            deg = degree_bound(entry, d["var"])
            if deg > MAX_ENTRY_DEGREE:
                raise InputError(f"{path}: entry ({r + 1}, {c + 1}) has degree "
                                 f"up to {deg}, above the limit "
                                 f"{MAX_ENTRY_DEGREE}")


def _load_matrix(path, sys: LinearDiffSystem) -> Mat:
    """A square matrix of the system's size and variable, e.g. a gauge matrix."""
    sys_like = _load_system(path)
    if sys_like.var != sys.var:
        raise InputError(f"{path}: matrix uses variable {sys_like.var!r}, "
                         f"system uses {sys.var!r}")
    if sys_like.size != sys.size:
        raise InputError(f"{path}: {sys_like.size}x{sys_like.size} matrix "
                         f"for a {sys.size}x{sys.size} system")
    return sys_like.matrix


def _parse_constructions(args, n, default=None):
    """The --construction expressions for an n x n system, none of them (nor
    any of their parts) above MAX_CONSTRUCTION_DIM."""
    texts = args.construction or ([default] if default else None)
    if not texts:
        raise InputError("at least one --construction is required")

    def check_size(e):
        # parts first, so that dimension() only ever sees small operands
        for part in _operands(e):
            check_size(part)
        d = dimension(e, n)
        if d > MAX_CONSTRUCTION_DIM:
            raise InputError(
                f"construction {format_construction(e)} has dimension {d} on "
                f"a {n}x{n} system, above the limit {MAX_CONSTRUCTION_DIM}")

    out = []
    for t in texts:
        try:
            out.append(parse_construction(t))
            check_size(out[-1])
        except ValueError as e:  # ParseError, ConstructionError
            raise InputError(f"bad construction {t!r}: {e}") from None
    return out


def _parse_point(text, var) -> GaussRational:
    """A constant of Q(i) written in the expression syntax, e.g. 1+i or 1/2."""
    try:
        f = parse_ratfunc(text, var)
    except (ParseError, ZeroDivisionError) as e:
        raise InputError(f"bad point {text!r}: {e}") from None
    if not f.is_constant():
        raise InputError(f"bad point {text!r}: not a constant")
    return f.constant_value()


def _emit(report: dict, args, summary: str):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(summary)
    else:
        print(text, end="")
        print(summary, file=_sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_wei_norman(args):
    sys = _load_system(args.system)
    deco = decompose(sys)
    report = {
        "var": sys.var,
        "rank": deco.rank,
        "coeffs": [format_ratfunc(f, sys.var) for f in deco.coeffs],
        "mats": [[[format_gauss(c) for c in row] for row in M.entries]
                 for M in deco.mats],
    }
    _emit(report, args, f"wei-norman rank {deco.rank}")
    return 0


def _cmd_construct(args):
    sys = _load_system(args.system)
    exprs = _parse_constructions(args, sys.size)
    entries = []
    for e in exprs:
        alg = apply_algebra(e, sys.matrix)
        entry = {"construction": format_construction(e),
                 "algebra": _fmt_matrix(alg, sys.var)}
        try:
            grp = apply_group(e, sys.matrix)
            entry["group"] = _fmt_matrix(grp, sys.var)
        except ConstructionError as err:
            entry["group_error"] = str(err)
        entries.append(entry)
    _emit({"var": sys.var, "constructions": entries}, args,
          f"constructed {len(entries)} matrix pair(s)")
    return 0


def _cmd_ratsols(args):
    sys = _load_system(args.system)
    exprs = _parse_constructions(args, sys.size, default="id")
    out = []
    for e in exprs:
        B = apply_algebra(e, sys.matrix)
        basis = rational_solutions(LinearDiffSystem(B, sys.var))
        out.append({
            "construction": format_construction(e),
            "basis": [[format_ratfunc(f, sys.var) for f in vec]
                      for vec in basis.vectors],
        })
    total = sum(len(b["basis"]) for b in out)
    _emit({"var": sys.var, "solutions": out}, args,
          f"{total} rational solution(s)")
    return 0


def _cmd_check_reduced(args):
    sys = _load_system(args.system)
    exprs = _parse_constructions(args, sys.size, default="sym(2,id)")
    cert = is_reduced(sys, exprs)
    _emit(cert.to_json_dict(sys.var), args,
          f"verdict: {'reduced' if cert.verdict else 'not reduced'} "
          f"(relative to {len(exprs)} construction(s))")
    if args.expect_reduced and not cert.verdict:
        raise MathFailure("expected a reduced system, verdict is false")
    return 0


def _cmd_gauge(args):
    sys = _load_system(args.system)
    P = _load_matrix(args.p, sys)
    try:
        gauged = gauge_transform(P, sys)
    except SingularMatrixError:
        raise InputError("singular gauge matrix (det = 0)") from None
    _emit(gauged.to_json_dict(), args, "gauged system computed")
    return 0


def _cmd_series(args):
    if args.order is not None and args.order > MAX_SERIES_ORDER:
        raise InputError(f"--order {args.order} is above the limit "
                         f"{MAX_SERIES_ORDER}")
    sys = _load_system(args.system)
    z0 = _parse_point(args.z0, sys.var) if args.z0 else pick_ordinary_point(sys)
    order = args.order if args.order is not None else DEFAULT_SERIES_ORDER
    try:
        ser = series_solution(sys, z0, order)
    except ValueError as e:
        raise InputError(str(e)) from None
    report = {
        "var": sys.var,
        "z0": format_gauss(z0),
        "order": ser.order,
        "coeffs": [[[format_gauss(c) for c in row] for row in U.entries]
                   for U in ser.coeffs],
    }
    _emit(report, args, f"series to order {ser.order} at z0={format_gauss(z0)}")
    return 0


def _cmd_subst(args):
    if args.subst is None or args.subst < 1:
        raise InputError("--subst requires a positive integer exponent")
    # x = t^k gives every nonzero polynomial entry a degree of at least k - 1,
    # so a k above MAX_ENTRY_DEGREE only makes systems no subcommand accepts
    if args.subst > MAX_ENTRY_DEGREE:
        raise InputError(f"--subst {args.subst} is above the limit "
                         f"{MAX_ENTRY_DEGREE}")
    sys = _load_system(args.system)
    _emit(substitute_power(sys, args.subst).to_json_dict(), args,
          f"substituted {sys.var} = t^{args.subst}")
    return 0


def _cmd_export_s(args):
    sys = _load_system(args.system)
    exprs = _parse_constructions(args, sys.size, default="sym(2,id)")
    z0 = _parse_point(args.z0, sys.var) if args.z0 else pick_ordinary_point(sys)
    try:
        invariants = _collect_invariants(sys, exprs, z0)
    except ZeroDivisionError:
        raise InputError(
            f"z0 = {format_gauss(z0)} is a pole of an invariant") from None
    if not invariants:
        raise MathFailure("no invariants found; nothing to export")
    export = build_system_S(invariants, sys.size, sys.var)
    text = export.to_text()
    sidecar = export.sidecar_dict()
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        with open(args.out + ".meta.json", "w") as f:
            json.dump(sidecar, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"exported {len(export.equations)} equation(s) to {args.out}")
    else:
        print(text, end="")
        print(json.dumps(sidecar, indent=2, sort_keys=True))
    return 0


def _cmd_verify_reduction(args):
    sys = _load_system(args.system)
    exprs = _parse_constructions(args, sys.size, default="sym(2,id)")
    P = _load_matrix(args.p, sys)
    try:
        report = verify_reduction(sys, P, exprs)
    except SingularMatrixError:
        raise InputError("singular candidate matrix (det = 0)") from None
    _emit(report.to_json_dict(), args,
          f"verification {'passed' if report.ok else 'failed'}")
    if args.expect_reduced and not report.ok:
        raise MathFailure("expected a valid reduction, verification failed")
    return 0


def _cmd_example(args):
    if args.name not in EXAMPLE_NAMES:
        raise InputError(f"unknown example {args.name!r}; "
                         f"choose from {', '.join(EXAMPLE_NAMES)}")
    report = run_example(args.name)
    golden = load_golden(args.name)
    _emit(report, args, f"example {args.name}: "
          f"{'matches golden' if report == golden else 'DIFFERS from golden'}")
    if report != golden:
        got = json.dumps(report, indent=2, sort_keys=True).splitlines()
        want = json.dumps(golden, indent=2, sort_keys=True).splitlines()
        import difflib
        for line in difflib.unified_diff(want, got, "golden", "computed",
                                         lineterm=""):
            print(line, file=_sys.stderr)
        raise MathFailure(f"example {args.name} diverged from the golden report")
    return 0


# ---------------------------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(
        prog="redform",
        description="Reduced forms of linear differential systems over Q(i)(x)")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, system=True):
        if system:
            sp.add_argument("system", help="system JSON file")
        sp.add_argument("--out", help="write the JSON report here")

    def constructions(sp):
        sp.add_argument("--construction", action="append",
                        help="construction DSL, e.g. sym(2,id); repeatable")

    sp = sub.add_parser("wei-norman", help="decompose A = sum f_i M_i")
    common(sp)
    sp.set_defaults(fn=_cmd_wei_norman)

    sp = sub.add_parser("construct",
                        help="apply a construction to the system matrix")
    common(sp)
    sp.add_argument("--construction", action="append", required=True)
    sp.set_defaults(fn=_cmd_construct)

    sp = sub.add_parser("ratsols", help="rational solutions of a constructed system")
    common(sp)
    constructions(sp)
    sp.set_defaults(fn=_cmd_ratsols)

    sp = sub.add_parser("check-reduced",
                        help="constant-invariant reduced-form certificate")
    common(sp)
    constructions(sp)
    sp.add_argument("--expect-reduced", action="store_true")
    sp.set_defaults(fn=_cmd_check_reduced)

    sp = sub.add_parser("gauge", help="apply a gauge transformation P[A]")
    common(sp)
    sp.add_argument("--p", required=True, help="gauge matrix JSON file")
    sp.set_defaults(fn=_cmd_gauge)

    sp = sub.add_parser("series",
                        help="truncated fundamental matrix at an ordinary point")
    common(sp)
    sp.add_argument("--z0", help="expansion point, e.g. 1 or 1+i")
    sp.add_argument("--order", type=int)
    sp.set_defaults(fn=_cmd_series)

    sp = sub.add_parser("subst", help="substitute x = t^k")
    common(sp)
    sp.add_argument("--subst", type=int, required=True, metavar="K")
    sp.set_defaults(fn=_cmd_subst)

    sp = sub.add_parser("export-s",
                        help="export the polynomial system for a reduction matrix")
    common(sp)
    constructions(sp)
    sp.add_argument("--z0", help="evaluation point, e.g. 1 or 1+i")
    sp.set_defaults(fn=_cmd_export_s)

    sp = sub.add_parser("verify-reduction",
                        help="check a candidate reduction matrix")
    common(sp)
    constructions(sp)
    sp.add_argument("--p", required=True, help="candidate matrix JSON file")
    sp.add_argument("--expect-reduced", action="store_true")
    sp.set_defaults(fn=_cmd_verify_reduction)

    sp = sub.add_parser("example", help="run a built-in worked example")
    sp.add_argument("name", choices=list(EXAMPLE_NAMES))
    sp.add_argument("--out", help="write the JSON report here")
    sp.set_defaults(fn=_cmd_example)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except MathFailure as e:
        print(f"failure: {e}", file=_sys.stderr)
        return 1
    except (InputError, ParseError, ConstructionError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return 2
    except Exception as e:
        # a fault of the program, not of its input: keep the traceback
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
