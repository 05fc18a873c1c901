"""Span recorder and call counter for the traced benchmark run.

Spans wrap the public functions of each ``redform`` layer at every
``redform`` module that holds a reference to them, so calls between layers
and calls from the benchmark are recorded alike.  A span stores its name,
its calling span, its start and end, and one size (the matrix cells of a
``nullspace``).  Per-layer metrics are read off the span tree by position
(for example, the last nullspace under a ``rational_solutions`` span is the
ansatz solve), never by the program's private names.

Field-level counts come from a separate pass under ``cProfile``; only its
call counts are used, because profiling distorts times.

Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import pstats
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute); "Mat.det" means a method of linalg.Mat.
SPANNED = (
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.det", "linalg", "Mat.det"),
    ("linalg.inverse", "linalg", "Mat.inverse"),
    ("factor.irreducible_factors", "factor", "irreducible_factors"),
    ("diffsys.gauge_transform", "diffsys", "gauge_transform"),
    ("diffsys.singular_points", "diffsys", "singular_points"),
    ("constructions.apply_algebra", "constructions", "apply_algebra"),
    ("constructions.apply_group", "constructions", "apply_group"),
    ("weinorman.decompose", "weinorman", "decompose"),
    ("ratsols.rational_solutions", "ratsols", "rational_solutions"),
    ("reduction.is_reduced", "reduction", "is_reduced"),
    ("reduction.verify_reduction", "reduction", "verify_reduction"),
    ("parsing.parse_ratfunc", "parsing", "parse_ratfunc"),
    ("parsing.format_ratfunc", "parsing", "format_ratfunc"),
    ("parsing.format_gauss", "parsing", "format_gauss"),
    ("cli.main", "cli", "main"),
)

# field-level functions counted by cProfile: metric -> (class, method)
COUNTED = (
    ("field.ratfunc_normalizations", "RatFunc", "__init__"),
    ("field.poly_divmod_calls", "UniPoly", "divmod"),
    ("field.gauss_mul_calls", "GaussRational", "__mul__"),
)

# per-layer metrics in report order, with units
PER_LAYER = (
    ("linalg.nullspace_calls", "calls/op"),
    ("linalg.nullspace_s", "s/op"),
    ("linalg.ansatz_cells", "cells"),
    ("ratsols.ansatz_s", "s/op"),
    ("ratsols.solve_s", "s/op"),
    ("ratsols.solve_calls", "calls/op"),
    ("ratsols.scan_nullspace_calls", "calls/op"),
    ("ratsols.scan_s", "s/op"),
    ("ratsols.eigen_dets", "calls/op"),
    ("ratsols.cache_hit_ratio", "ratio"),
    ("diffsys.gauge_calls", "calls/op"),
    ("diffsys.gauge_s", "s/op"),
    ("linalg.inverse_s", "s/op"),
    ("linalg.det_calls", "calls/op"),
    ("field.ratfunc_normalizations", "calls/op"),
    ("field.poly_divmod_calls", "calls/op"),
    ("field.gauss_mul_calls", "calls/op"),
    ("factor.calls", "calls/op"),
    ("factor.s", "s/op"),
    ("diffsys.singular_points_s", "s/op"),
    ("constructions.algebra_s", "s/op"),
    ("constructions.group_s", "s/op"),
    ("weinorman.decompose_s", "s/op"),
    ("reduction.is_reduced_s", "s/op"),
    ("reduction.verify_s", "s/op"),
    ("parsing.parse_s", "s/op"),
    ("parsing.format_s", "s/op"),
    ("cli.report_bytes", "bytes/op"),
    ("trace.overhead_ratio", "ratio"),
)

# span fields
NAME, PARENT, START, END, SIZE = range(5)


class SpanRecorder:
    """In-memory span tree; spans of one operation hang off one root span."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def begin_op(self, index):
        self._push("op", index)

    def end_op(self):
        self._pop()

    def _push(self, name, size):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, parent, perf_counter(), 0.0, size])

    def _pop(self):
        self.spans[self._stack.pop()][END] = perf_counter()

    def _wrap(self, name, fn):
        push, pop = self._push, self._pop
        sized = name == "linalg.nullspace"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            push(name, args[0].rows * args[0].cols if sized else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()
        return wrapper

    def install(self, pkg):
        """Wrap every SPANNED function wherever a redform module refers to it."""
        modules = [m for k, m in sys.modules.items()
                   if k == pkg.__name__ or k.startswith(pkg.__name__ + ".")]
        for name, mod, attr in SPANNED:
            owner = getattr(pkg, mod)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore = []


def read_counts(pkg, profile):
    """Call counts of the COUNTED field functions recorded by ``profile``."""
    codes = {}
    for metric, cls_name, meth in COUNTED:
        code = getattr(getattr(pkg.field, cls_name), meth).__code__
        codes[(code.co_filename, code.co_firstlineno, code.co_name)] = metric
    counts = {metric: 0 for metric, _, _ in COUNTED}
    for key, (_cc, nc, _tt, _ct, _callers) in pstats.Stats(profile).stats.items():
        if key in codes:
            counts[codes[key]] += nc
    return counts


def report_bytes(records):
    """Mean bytes the CLI wrote to standard output per operation; operations
    through the API (their output is not a list of CLI results) count 0."""
    return sum(sum(len(out) for _rc, out, _err in r.op.output)
               for r in records if isinstance(r.op.output, list)) / len(records)


# ---------------------------------------------------------------------------
# reading the span tree


def _children(spans):
    kids = defaultdict(list)
    for i, s in enumerate(spans):
        kids[s[PARENT]].append(i)
    return kids


def _op_of(spans):
    """Index of the root ("op") span above each span."""
    root = [-1] * len(spans)
    for i, s in enumerate(spans):
        root[i] = i if s[PARENT] < 0 else root[s[PARENT]]
    return root


def _outermost(spans, names):
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    inside = [False] * len(spans)
    out = []
    for i, s in enumerate(spans):
        p = s[PARENT]
        parent_in = p >= 0 and (inside[p] or spans[p][NAME] in names)
        inside[i] = parent_in
        if s[NAME] in names and not parent_in:
            out.append(i)
    return out


def _has_ancestor(spans, i, name):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans, op_factor):
    """Per-operation layer metrics from a span tree.

    ``op_factor`` maps each root span index to the factor that turns its wall
    time into reference time (see run.py); every duration is scaled by the
    factor of its operation.  Returns sums per traced operation, except for
    the ratios and ``linalg.ansatz_cells`` (mean over solves).
    """
    roots = [i for i, s in enumerate(spans) if s[PARENT] < 0]
    nops = max(1, len(roots))
    op_of = _op_of(spans)
    kids = _children(spans)

    def dur(i):
        s = spans[i]
        return (s[END] - s[START]) * op_factor[op_of[i]]

    def total(names):
        return sum(dur(i) for i in _outermost(spans, set(names))) / nops

    def count(name):
        return sum(1 for s in spans if s[NAME] == name) / nops

    solves = [i for i, s in enumerate(spans)
              if s[NAME] == "ratsols.rational_solutions"]
    ansatz_s = scan_s = 0.0
    scan_calls = hits = 0
    cells = []
    for sv in solves:
        if not kids[sv]:
            hits += 1
            continue
        under = [i for i in _descendants(kids, sv)
                 if spans[i][NAME] == "linalg.nullspace"]
        under.sort(key=lambda i: spans[i][START])
        if under:
            last = under[-1]
            ansatz_s += dur(last)
            cells.append(spans[last][SIZE])
            scan_calls += len(under) - 1
            scan_s += sum(dur(i) for i in under[:-1])
    eigen_dets = sum(1 for i, s in enumerate(spans)
                     if s[NAME] == "linalg.det"
                     and _has_ancestor(spans, i, "ratsols.rational_solutions"))
    return {
        "linalg.nullspace_calls": count("linalg.nullspace"),
        "linalg.nullspace_s": total(["linalg.nullspace"]),
        "linalg.ansatz_cells": sum(cells) / len(cells) if cells else 0,
        "ratsols.ansatz_s": ansatz_s / nops,
        "ratsols.solve_s": total(["ratsols.rational_solutions"]),
        "ratsols.solve_calls": len(solves) / nops,
        "ratsols.scan_nullspace_calls": scan_calls / nops,
        "ratsols.scan_s": scan_s / nops,
        "ratsols.eigen_dets": eigen_dets / nops,
        "ratsols.cache_hit_ratio": hits / len(solves) if solves else 0.0,
        "diffsys.gauge_calls": count("diffsys.gauge_transform"),
        "diffsys.gauge_s": total(["diffsys.gauge_transform"]),
        "linalg.inverse_s": total(["linalg.inverse"]),
        "linalg.det_calls": count("linalg.det"),
        "factor.calls": count("factor.irreducible_factors"),
        "factor.s": total(["factor.irreducible_factors"]),
        "diffsys.singular_points_s": total(["diffsys.singular_points"]),
        "constructions.algebra_s": total(["constructions.apply_algebra"]),
        "constructions.group_s": total(["constructions.apply_group"]),
        "weinorman.decompose_s": total(["weinorman.decompose"]),
        "reduction.is_reduced_s": total(["reduction.is_reduced"]),
        "reduction.verify_s": total(["reduction.verify_reduction"]),
        "parsing.parse_s": total(["parsing.parse_ratfunc"]),
        "parsing.format_s": total(["parsing.format_ratfunc",
                                   "parsing.format_gauss"]),
    }


def _descendants(kids, i):
    stack = list(kids[i])
    while stack:
        j = stack.pop()
        yield j
        stack.extend(kids[j])


def breakdown(spans, op_factor):
    """Inclusive (outermost) and self time per span name, per operation."""
    roots = [i for i, s in enumerate(spans) if s[PARENT] < 0]
    nops = max(1, len(roots))
    op_of = _op_of(spans)
    kids = _children(spans)
    names = sorted({s[NAME] for s in spans})
    op_time = sum((spans[r][END] - spans[r][START]) * op_factor[r]
                  for r in roots) / nops
    rows = {}
    for name in names:
        incl = sum((spans[i][END] - spans[i][START]) * op_factor[op_of[i]]
                   for i in _outermost(spans, {name})) / nops
        self_t = 0.0
        for i, s in enumerate(spans):
            if s[NAME] != name:
                continue
            child = sum(spans[k][END] - spans[k][START] for k in kids[i])
            self_t += (s[END] - s[START] - child) * op_factor[op_of[i]]
        rows[name] = {"inclusive_s": incl, "self_s": self_t / nops,
                      "inclusive_share": incl / op_time if op_time else 0.0,
                      "calls": sum(1 for s in spans if s[NAME] == name) / nops}
    return {"op_s": op_time, "spans": rows}
