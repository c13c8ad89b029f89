"""Steadiness report: run workloads N times each in fresh processes, each
run with its own seed, and print for every end-to-end metric the median and
the spread (interquartile range / median) next to its bound.

    python3 bench/steady.py --workload serve-drift --runs 10
    python3 bench/steady.py --runs 10 --first-seed 101

Without ``--workload`` every workload in ``BENCHMARK.json`` runs.  A spread
below a third of the bound is marked ``steady``; one above the bound is
``NOISY``.  ``setup_s`` has no spread limit, only its bound on the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def report(workload: str, results: list[dict], spec: dict) -> list[str]:
    lines = [f"{workload}: {len(results)} runs, "
             f"{sum(r['correct'] for r in results)} correct, "
             f"{sum(r['failed'] for r in results)} failed ops",
             f"  {'metric':<16} {'unit':<9} {'median':>12} {'IQR/med':>8} "
             f"{'bound':>6}  verdict"]
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        if m["name"] == "setup_s":
            verdict = "(median bound only)"
        elif spread <= m["bound"] / 3:
            verdict = "steady"
        elif spread <= m["bound"]:
            verdict = "within bound"
        else:
            verdict = "NOISY"
        lines.append(f"  {m['name']:<16} {m['unit']:<9} {med:>12.4f} "
                     f"{spread:>8.4f} {m['bound']:>6.3f}  {verdict}")
    return lines


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]],
                   help="repeatable; default: every workload")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)

    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            results.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in results[-1]["metrics"].items()),
                  file=sys.stderr, flush=True)
        print("\n".join(report(workload, results, spec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
