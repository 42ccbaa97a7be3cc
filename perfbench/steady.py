#!/usr/bin/env python3
"""Steadiness check for the benchmark's end-to-end metrics.

    python3 perfbench/steady.py [--runs 10] [--seed0 1] [--workloads a,b]

Runs perfbench/run.py --trace 0 once per seed (seed0, seed0+1, ...) on each
workload and prints, per end-to-end metric, the median of the runs and the
spread: the distance between the first and third quartile as a share of the
median. A spread above a third of the metric's bound in BENCHMARK.json is
flagged; setup_s is exempt because only its median is gated. Exits non-zero
when a run fails or a gated spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.seed0, args.seed0 + args.runs):
            p = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if p.returncode != 0:
                sys.stderr.write(p.stdout + p.stderr)
                print(f"{workload} seed {seed}: run failed")
                ok = False
                continue
            result = json.loads(p.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        for m in bench["end_to_end"]:
            xs = values[m["name"]]
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            gated = m["name"] != "setup_s"
            flag = ""
            if gated and spread > m["bound"]:
                flag, ok = "  OVER BOUND", False
            elif gated and spread > m["bound"] / 3:
                flag = "  over a third of the bound"
            print(f"{workload:18s} {m['name']:12s} median {med:10.5g} "
                  f"{m['unit']:3s} spread {spread:6.1%} (bound "
                  f"{m['bound']:.0%}, n={len(xs)}){flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
