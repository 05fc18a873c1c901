"""Tests of the benchmark itself: every workload at a tiny size with all
checks on, and every check rejecting a wrong answer.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
import sympy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def prog():
    return wl.Program(wl.import_redform())


def _run(op):
    op.run()
    return op


def _tiny_invariants(prog):
    rng = random.Random("tiny-invariants")
    return _run(wl.InvariantsOp(prog, wl.InvariantsInput(
        (-1, 2), wl._ldu_gauge(rng, 2))))


def _tiny_gauge(prog):
    rng = random.Random("tiny-gauge")
    A = [[[(wl._nonzero(rng, 2), 0), (wl._nonzero(rng, 2), 0)]
          for _ in range(2)] for _ in range(2)]
    return _run(wl.GaugeOp(prog, wl.GaugeInput(A, wl._ldu_gauge(rng, 2, True))))


def _decide(prog, tmp_path):
    c_values = wl.certify_c_values(0)
    return _run(wl.CertifyOp(prog, wl.certify_input(0, 1, c_values),
                             tmp_path, "decide"))


def _with_report(op, k, edit):
    """A copy of a CLI op whose k-th JSON report is changed by ``edit``."""
    rc, out, err = op.output[k]
    report = json.loads(out)
    edit(report)
    output = list(op.output)
    output[k] = (rc, json.dumps(report), err)
    return SimpleNamespace(inp=op.inp, output=output)


# ---------------------------------------------------------------------------
# every workload once, checks on


def test_generated_inputs_are_seeded_and_distinct():
    assert wl.invariants_input(3, 5) == wl.invariants_input(3, 5)
    assert wl.gauge_input(3, 5) == wl.gauge_input(3, 5)
    ins = [wl.invariants_input(3, k) for k in range(20)]
    assert len({repr(i) for i in ins}) == 20
    c = wl.certify_c_values(3)
    assert len(set(c[:100])) == 100
    # the window-defect inputs do not depend on the seed and are all outside
    # the solver's [-20, 20] exponent window
    for r in range(5):
        d = wl.defect_input(r)
        assert all(21 <= abs(k) <= 30 for k in d.exps)


def test_invariants_tiny_passes(prog):
    op = _tiny_invariants(prog)
    assert checks.check("invariants", op) is None


def test_invariants_seeded_input_passes(prog):
    op = _run(wl.InvariantsOp(prog, wl.invariants_input(0, 1)))
    assert op.output.dim == 3
    assert checks.check("invariants", op) is None


def test_gauge_tiny_passes(prog):
    assert checks.check("gauge", _tiny_gauge(prog)) is None


def test_certify_decision_passes(prog, tmp_path):
    op = _decide(prog, tmp_path)
    assert checks.check("certify", op) is None


def test_certify_window_defect_fails_today(prog, tmp_path):
    op = _run(wl.CertifyOp(prog, wl.defect_input(0), tmp_path, "defect"))
    assert checks.check("certify", op) == "defect-invariant-count"


# ---------------------------------------------------------------------------
# each check rejects a wrong answer


def test_invariants_rejects_dropped_vector(prog):
    op = _tiny_invariants(prog)
    bad = SimpleNamespace(inp=op.inp, output=SimpleNamespace(
        vectors=op.output.vectors[1:]))
    assert checks.check("invariants", bad) == "invariants-count"


def test_invariants_rejects_perturbed_coefficient(prog):
    op = _tiny_invariants(prog)
    vecs = [list(v) for v in op.output.vectors]
    vecs[0][0] = vecs[0][0] + 1
    bad = SimpleNamespace(inp=op.inp, output=SimpleNamespace(vectors=vecs))
    assert checks.check("invariants", bad) == "invariants-solves"


def test_invariants_rejects_dependent_vectors(prog):
    op = _tiny_invariants(prog)
    vecs = list(op.output.vectors)
    vecs[1] = vecs[0]
    bad = SimpleNamespace(inp=op.inp, output=SimpleNamespace(vectors=vecs))
    assert checks.check("invariants", bad) == "invariants-independent"


def test_gauge_rejects_perturbed_entry(prog):
    op = _tiny_gauge(prog)
    gauged, lhs, rhs, same = op.output
    entries = [list(r) for r in gauged.entries]
    entries[0][1] = entries[0][1] + 1
    wrong = prog.linalg.Mat(gauged.ring, entries)
    bad = SimpleNamespace(inp=op.inp, output=(wrong, lhs, rhs, same))
    assert checks.check("gauge", bad) == "gauge-identity"


def test_gauge_rejects_false_compatibility(prog):
    op = _tiny_gauge(prog)
    gauged, lhs, rhs, _ = op.output
    bad = SimpleNamespace(inp=op.inp, output=(gauged, lhs, rhs, False))
    assert checks.check("gauge", bad) == "gauge-sym2-compat"
    wrong_rhs = rhs.map(lambda e: e * 2)
    bad = SimpleNamespace(inp=op.inp, output=(gauged, wrong_rhs, wrong_rhs, True))
    assert checks.check("gauge", bad) == "gauge-sym2-compat"


def test_certify_rejects_flipped_verdict(prog, tmp_path):
    op = _decide(prog, tmp_path)
    bad = _with_report(op, 0, lambda r: r.update(verdict=not r["verdict"]))
    assert checks.check("certify", bad) == "check-verdict"


def test_certify_rejects_dropped_invariant(prog, tmp_path):
    op = _decide(prog, tmp_path)
    bad = _with_report(op, 0, lambda r: r.update(invariants=[]))
    assert checks.check("certify", bad) == "check-invariant-count"


def test_certify_rejects_perturbed_invariant(prog, tmp_path):
    op = _decide(prog, tmp_path)

    def edit(r):
        r["invariants"][0]["phi"][0] += "+1"
    assert checks.check("certify", _with_report(op, 0, edit)) == \
        "check-invariant-solves"


def test_certify_rejects_wrong_gauged_system(prog, tmp_path):
    op = _decide(prog, tmp_path)

    def edit(r):
        r["gauged"]["matrix"][0][1] += "+t"
    assert checks.check("certify", _with_report(op, 1, edit)) == "verify-gauged"


def test_certify_rejects_wrong_certificate(prog, tmp_path):
    op = _decide(prog, tmp_path)

    def edit(r):
        r["certificate"]["invariants"][0]["phi"] = ["1", "0", "1"]
    assert checks.check("certify", _with_report(op, 1, edit)) == \
        "verify-certificate"


def test_certify_rejects_failed_verification(prog, tmp_path):
    op = _decide(prog, tmp_path)
    bad = _with_report(op, 1, lambda r: r.update(ok=False))
    assert checks.check("certify", bad) == "verify-ok"


def _true_defect_report(inp, verdict):
    """The right answer for a window-defect input, made with sympy."""
    x = sympy.Symbol("x")
    Q = sympy.Matrix([[sum(sympy.Integer(re) * x ** k
                           for k, (re, _im) in enumerate(p)) for p in row]
                      for row in inp.Q])
    invariants = []
    for i, k in enumerate(inp.exps):
        y = sympy.zeros(len(inp.exps), 1)
        y[i] = x ** k
        phi = Q.inv() * y
        invariants.append({"phi": [str(sympy.cancel(f)) for f in phi]})
    return json.dumps({"verdict": verdict, "invariants": invariants})


def test_defect_check_accepts_the_right_answer_only():
    inp = wl.defect_input(1)
    good = SimpleNamespace(inp=inp, output=[(0, _true_defect_report(inp, False), "")])
    assert checks.check("certify", good) is None
    flipped = SimpleNamespace(inp=inp, output=[(0, _true_defect_report(inp, True), "")])
    assert checks.check("certify", flipped) == "defect-verdict"


# ---------------------------------------------------------------------------
# the command


def test_run_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "gauge",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gauge", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
