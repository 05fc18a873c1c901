"""Steadiness mode: run every workload of BENCHMARK.json with ten seeds and
report, for every end-to-end metric, the median, the quartiles and the
quartile spread as a share of the median (the figure compared with the
metric's bound).

    python3 bench/steady.py --first-seed 101 --label set1

Each run lasts BENCHMARK.json's ``run_seconds``.  Runs are sequential, one
process at a time.  Results go to
``bench/out/steady-<label>.json`` and a markdown table to standard output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


RUNS = 10


def run_once(workload, seed, seconds):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def summarize(results, bounds):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else float("inf"),
                     "bound": bounds.get(name), "values": values}
    shares = {r["failed"] / r["attempted"] for r in results}
    return out, sorted(shares), all(r["correct"] for r in results)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--label", default="steady")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    report = {"seconds": seconds, "runs": RUNS,
              "first_seed": args.first_seed, "workloads": {}}
    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for w in (w["name"] for w in spec["workloads"]):
        results = []
        for k in range(RUNS):
            results.append(run_once(w, args.first_seed + k, seconds))
            print(f"{w} seed {args.first_seed + k}: "
                  f"{results[-1]['wall_s']:.1f} s", file=sys.stderr, flush=True)
        metrics, shares, correct = summarize(results, bounds)
        report["workloads"][w] = {
            "metrics": metrics, "failed_shares": shares, "correct": correct,
            "attempted": [r["attempted"] for r in results],
            "run_wall_s": [r["wall_s"] for r in results]}
        for name, m in metrics.items():
            print(f"| {w} | {name} | {m['median']:.4g} | {m['q1']:.4g} | "
                  f"{m['q3']:.4g} | {m['spread']:.3f} | {m['bound']} |",
                  flush=True)
        print(f"| {w} | failed share | {shares} | | | | |", flush=True)
    out = ROOT / "bench" / "out" / f"steady-{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"written to {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
