"""The traced run: spans and call counts around the same operations.

Rounds cycle through three modes.  ``plain`` rounds run as in an untraced
run and give the base for the tracing overhead; ``spans`` rounds run with the
span recorder installed; ``counts`` rounds run under cProfile for the field
call counts.  Per-layer metrics are per operation of the mode they come from.
At the end the spans, the metrics and a per-span breakdown are written to
``bench/out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import cProfile
import json
import statistics

import run as bench
import tracing


class SpanHook:
    def __init__(self, pkg, recorder):
        self.pkg = pkg
        self.recorder = recorder

    def enter(self, rec):
        self.recorder.install(self.pkg)
        rec.span_root = len(self.recorder.spans)
        self.recorder.begin_op(rec.round)

    def exit(self, rec):
        self.recorder.end_op()
        self.recorder.uninstall()


class CountHook:
    def __init__(self):
        self.profile = cProfile.Profile()

    def enter(self, rec):
        self.profile.enable()

    def exit(self, rec):
        self.profile.disable()


def run(setup, args):
    recorder = tracing.SpanRecorder()
    counter = CountHook()
    records = bench.timed_rounds(
        setup, args.seconds, ["plain", "spans", "counts"],
        {"spans": SpanHook(setup.pkg, recorder), "counts": counter})

    by_mode = {m: [r for r in records if r.mode == m]
               for m in ("plain", "spans", "counts")}
    op_factor = {r.span_root: r.factor for r in by_mode["spans"]}
    metrics = tracing.layer_metrics(recorder.spans, op_factor)
    counts = tracing.read_counts(setup.pkg, counter.profile)
    for name, value in counts.items():
        metrics[name] = value / len(by_mode["counts"])
    metrics["cli.report_bytes"] = tracing.report_bytes(by_mode["spans"])
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.scaled for r in by_mode["spans"])
        / statistics.median(r.scaled for r in by_mode["plain"]))

    out_dir = bench.ROOT / "bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{args.workload}-{args.seed}.json"
    table = tracing.breakdown(recorder.spans, op_factor)
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "ops": {m: len(v) for m, v in by_mode.items()},
        "metrics": metrics, "breakdown": table, "spans": recorder.spans,
    }))
    bench.log(f"traced op {table['op_s']:.3f} s; span: inclusive share, "
              f"self s/op, calls/op")
    for name, row in sorted(table["spans"].items(),
                            key=lambda kv: -kv[1]["inclusive_s"]):
        bench.log(f"  {name:32s} {row['inclusive_share']:6.1%} "
                  f"{row['self_s']:8.4f} {row['calls']:8.1f}")
    bench.log(f"trace written to {path}")
    units = dict(tracing.PER_LAYER)
    return records, {name: {"value": metrics[name], "unit": units[name]}
                     for name, _ in tracing.PER_LAYER}
