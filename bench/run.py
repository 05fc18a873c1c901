"""Benchmark of redform: seeded workloads, independent checks, one result line.

    python3 bench/run.py --workload invariants --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports ``redform`` from ``src/``.
Workloads (see README.md): ``invariants``, ``gauge``, ``certify``.

``--trace 0`` times operations with nothing installed in the program and
reports the end-to-end metrics; ``--trace 1`` wraps the layers' public
functions in spans, counts field calls under cProfile, and reports the
per-layer metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are in reference seconds.  On the 2-core machine this benchmark was
tuned on, the CPU speed of a single process switches between states about
1.9x apart for 5-40 s at a time, so a raw wall time says more about the state
than about the program.  Each
operation is therefore bracketed by a fixed pure-Python reference kernel
(``reference_kernel``, independent of redform), and its wall time is scaled
by REF_NOMINAL / (median kernel time around it).  The kernel runs with the
garbage collector off, so its time does not depend on the program's heap or
gc settings; a change to the program then moves the scaled time as it moves
wall time at a fixed CPU speed, up to how closely the kernel follows the CPU
states (see README.md).  Raw wall figures are printed on standard
error for comparison.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads as wl  # bench/ is the script's directory

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Kernel time that defines the reference scale (about the kernel's wall time
# in the usual CPU state of the tuning machine, so reference and wall seconds
# are close there).
REF_NOMINAL = 0.053
SETUP_SAMPLES = 3


def _reference_heap():
    """50 000 Fractions, listed in an order unrelated to their allocation."""
    rng = random.Random(0)
    heap = [Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            for _ in range(50000)]
    rng.shuffle(heap)
    return heap


REFERENCE_HEAP = _reference_heap()


def reference_kernel():
    """Fixed exact-arithmetic work: Fraction elimination on a 15x16 matrix
    whose entries grow, list and dict churn, and a walk through a heap of
    several MB in an order unrelated to its layout in memory."""
    n = 15
    rows = [[Fraction((3 * i + 5 * j) % 13 + 1, (i * j) % 7 + 2)
             for j in range(n + 1)] for i in range(n)]
    for col in range(n):
        inv = 1 / rows[col][col]
        pivot = [v * inv for v in rows[col]]
        rows[col] = pivot
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], pivot)]
    table = {}
    for k in range(12000):
        table[(k * 7919) % 1009] = table.get((k * 7919) % 1009, 0) + k
    heap = REFERENCE_HEAP
    walk = 0
    for f in heap:
        walk += f.numerator & 7
    for k in range(0, 6000, 2):
        walk += (heap[k] * heap[k + 1]).denominator & 7
    return rows[0][n] + len(table) + walk


def reference_time():
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def stable_reference_time():
    """Median of three kernel runs, robust to a single hiccup (and to the
    slower first run in a fresh interpreter)."""
    return statistics.median(reference_time() for _ in range(3))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up (import, inputs, warm-up) and print the "
                        "set-up time; used for the fresh-interpreter samples")
    return p.parse_args(argv)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Setup:
    """Import, input generation and one untimed warm-up operation."""

    def __init__(self, workload, seed):
        ref_before = stable_reference_time()
        t0 = time.perf_counter()
        self.pkg = wl.import_redform()
        self.workdir = wl.make_workdir(ROOT)
        self.workload = wl.Workload(workload, wl.Program(self.pkg), seed,
                                    self.workdir)
        for op in self.workload.round_ops(-1):
            op.run()
        self.wall = time.perf_counter() - t0
        ref_after = stable_reference_time()
        self.scaled = self.wall * REF_NOMINAL / ((ref_before + ref_after) / 2)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def setup_samples(args, first):
    """Set-up time of this process plus fresh-interpreter samples."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class OpRecord:
    __slots__ = ("op", "round", "mode", "wall", "factor", "failure", "span_root")

    def __init__(self, op, round_index, mode):
        self.op = op
        self.round = round_index
        self.mode = mode
        self.wall = 0.0
        self.factor = 1.0
        self.failure = None
        self.span_root = -1

    @property
    def scaled(self):
        return self.wall * self.factor


def timed_rounds(setup, seconds, modes, hooks=None):
    """Run whole rounds until the next one would end past ``seconds`` of
    measured operation time, and every mode in ``modes`` has had a round.

    Rounds cycle through ``modes``; ``hooks[mode]`` has ``enter(record)``
    and ``exit(record)``, called just outside each operation's timer.
    Returns the OpRecords in order, with their reference factors set.
    """
    hooks = hooks or {}
    records = []
    refs = [stable_reference_time()]
    work = 0.0
    r = 0
    while True:
        mode = modes[r % len(modes)]
        hook = hooks.get(mode)
        round_records = [OpRecord(op, r, mode)
                         for op in setup.workload.round_ops(r)]
        for rec in round_records:
            # start every operation from the same collector state, so that a
            # full collection the previous one left due does not land in it
            gc.collect()
            if hook:
                hook.enter(rec)
            t0 = time.perf_counter()
            try:
                rec.op.run()
            except Exception as exc:  # the op failed; the run goes on
                rec.failure = f"raised-{type(exc).__name__}: {exc}"
            rec.wall = time.perf_counter() - t0
            if hook:
                hook.exit(rec)
            refs.append(stable_reference_time())
        records.extend(round_records)
        work += sum(rec.wall for rec in round_records)
        r += 1
        if r >= len(modes) and work + work / r / 2 > seconds:
            break
    # refs[k] and refs[k + 1] bracket operation k; the median over the two
    # gaps on either side follows a change of CPU state within seconds yet
    # ignores a single slow kernel run
    for k, rec in enumerate(records):
        rec.factor = REF_NOMINAL / statistics.median(refs[max(0, k - 1):k + 3])
    return records


def check_records(workload, records):
    import checks
    for rec in records:
        if rec.failure is None:
            try:
                rec.failure = checks.check(workload, rec.op)
            except Exception as exc:  # a malformed output fails its check
                rec.failure = f"check-raised-{type(exc).__name__}: {exc}"


def expected_failure(rec):
    """The program's known fault: exponent windows miss |k| > 20."""
    return getattr(rec.op.inp, "kind", None) == "defect"


def describe(rec):
    inp = rec.op.inp
    if getattr(inp, "kind", None) == "defect":
        return f"round {rec.round} window-defect diag{tuple(inp.exps)}/x"
    return f"round {rec.round} {type(inp).__name__}"


def end_to_end(records, setup_s):
    scaled = [rec.scaled for rec in records]
    walls = [rec.wall for rec in records]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    deciles = statistics.quantiles(scaled, n=10) if len(scaled) > 1 else scaled
    log(f"ops {len(records)}; wall p50 {statistics.median(walls):.4f} s; "
        f"reference factor p50 {statistics.median(r.factor for r in records):.3f}; "
        f"scaled p10 {deciles[0]:.3f} p90 {deciles[-1]:.3f} s")
    return {
        "latency_p50_s": {"value": statistics.median(scaled), "unit": "s"},
        "throughput_ops_s": {"value": len(scaled) / sum(scaled), "unit": "ops/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        setup = Setup(args.workload, args.seed)
    except wl.MissingProgram as exc:
        log(f"error: {exc}")
        return 2
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup.scaled}))
            return 0
        if args.trace:
            import traced
            records, metrics = traced.run(setup, args)
        else:
            samples = setup_samples(args, setup.scaled)
            log("setup samples " + " ".join(f"{s:.3f}" for s in samples)
                + f" (this process, wall {setup.wall:.3f} s)")
            records = timed_rounds(setup, args.seconds, ["plain"])
            metrics = end_to_end(records, statistics.median(samples))
        check_records(args.workload, records)
    finally:
        setup.close()
    failed = [rec for rec in records if rec.failure]
    for rec in failed:
        log(f"failed: {describe(rec)}: {rec.failure}")
    correct = all(expected_failure(rec) for rec in failed)
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
