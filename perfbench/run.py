#!/usr/bin/env python3
"""Benchmark entry point: builds perfbench/ from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Prints a report (every metric by name with
its unit, plus the environment, stats digest and model outputs) and, as
the last line of stdout, the result object
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics named in BENCHMARK.json, --trace 1 the per-layer ones.

Exits non-zero, without a result line, when the build fails or a
simulator escape hatch is set; exits non-zero after the result line when
an output is wrong or a run did not reproduce an earlier run of the same
binary and seed.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"

# End-to-end times are scaled to a host on which the reference loop in
# perfbench.cpp takes this long (about its time on an uncontended
# 4-vCPU Xeon VM), using the loop timed beside each measurement.
REFERENCE_MS = 40.0

# Each one selects a different simulator program than the default.
ESCAPE_HATCHES = ("ACCESYS_NO_BATCH", "ACCESYS_EAGER_CREDITS",
                  "ACCESYS_NO_HOP_FUSION", "ACCESYS_FAULTS")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def env_guard():
    """The ACCESYS_* environment, refusing any escape hatch."""
    env = {k: v for k, v in sorted(os.environ.items())
           if k.startswith("ACCESYS_")}
    bad = [k for k in ESCAPE_HATCHES if k in env]
    if env.get("ACCESYS_THREADS", "1") != "1":
        bad.append("ACCESYS_THREADS")
    if bad:
        fail("refusing to measure with " + ", ".join(
            f"{k}={env[k]}" for k in bad) + " set")
    return env


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(SRC), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=850)
        if p.returncode != 0:
            sys.stderr.write(p.stdout + p.stderr)
            fail("build failed: " + " ".join(cmd))


def declared():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def end_to_end(raw):
    """Metrics, and (quartiles, n) of the timings behind them.

    A run call is scaled by the mean of the reference loop timed before and
    after its repetition, a set-up by the loop timed just before it.
    """
    reps = raw["reps"]
    refs = [r["reference_ms"] for r in reps] + [raw["reference_after_ms"]]
    wall = [r["run_ms"] * 2 * REFERENCE_MS / (refs[i] + refs[i + 1])
            for i, r in enumerate(reps)]
    setup = [ms * REFERENCE_MS / ref / 1e3 for ms, ref in raw["setup"]]
    raw_wall = [r["run_ms"] for r in reps]
    raw_setup = [ms / 1e3 for ms, _ in raw["setup"]]
    return {
        "wall_ms": statistics.median(wall),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": raw["peak_rss_mb"],
    }, {"wall_ms": (quartiles(wall), len(wall)),
        "setup_s": (quartiles(setup), len(setup)),
        "unscaled wall_ms": (quartiles(raw_wall), len(raw_wall)),
        "unscaled setup_s": (quartiles(raw_setup), len(raw_setup))}


def per_layer(raw, problems):
    traced = [r for r in raw["reps"] if r["traced"]]
    plain = [r for r in raw["reps"] if not r["traced"]]
    med = statistics.median
    m = {
        "sim.events": raw["events"],
        "sim.raw_wall_ms": med(r["run_ms"] for r in plain),
        "sim.pool_allocs": raw["pool_allocs"],
        "core.build_ms": med(r["build_ms"] for r in traced),
        "core.dispatch_ms": med(r["dispatch_ms"] for r in traced),
        "workload.requestgen_ms": med(r["requestgen_ms"] for r in traced),
    }
    m["sim.host_ns_per_event"] = m["sim.raw_wall_ms"] * 1e6 / raw["events"]
    layers = traced[0]["layers"]
    for layer in layers:
        counts = {r["layers"][layer][0] for r in traced}
        if len(counts) != 1:
            problems.append(f"{layer} event count varies: {sorted(counts)}")
        m[f"{layer}.events"] = counts.pop()
        m[f"{layer}.host_ms"] = med(r["layers"][layer][1] for r in traced)
    attributed = []
    for r in traced:
        charged = sum(ms for _, ms in r["layers"].values())
        if charged > r["run_ms"] * (1 + 1e-9):
            problems.append(f"layer host time {charged:.3f} ms exceeds the "
                            f"traced run's {r['run_ms']:.3f} ms")
        attributed.append((charged, r["run_ms"]))
    m["core.runner.host_ms"] = med(w - c for c, w in attributed)
    m["trace.wall_ms"] = med(r["run_ms"] for r in traced)
    m["trace.overhead_pct"] = (
        m["trace.wall_ms"] / m["sim.raw_wall_ms"] - 1) * 100
    m["trace.attributed_pct"] = med(c / w * 100 for c, w in attributed)
    if sum(m[f"{layer}.events"] for layer in layers) != raw["events"]:
        problems.append("traced dispatch counts do not sum to sim.events")
    m.update(raw["model"])
    return m


def binary_id():
    h = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def check_reproducible(raw, problems):
    """Compare with earlier runs of this binary on the same seed."""
    path = BUILD / "digests.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    key = f"{binary_id()}/{raw['workload']}/{raw['seed']}"
    now = {"digest": raw["digest"], "events": raw["events"],
           "model": raw["model"]}
    if key in seen and seen[key] != now:
        problems.append(f"run does not reproduce an earlier run of the same "
                        f"binary and seed ({key})")
        return
    seen[key] = now
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    env = env_guard()
    e2e_units, layer_units = declared()
    build()

    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.trace:
        spans = BUILD / "trace" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=160)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within 160 s")
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if not lines:
        fail(f"workload printed no result (exit {p.returncode})")
    raw = json.loads(lines[-1])

    problems = list(raw["errors"])
    if raw["failed"] or not raw["reps"]:
        metrics, units, spread = {}, {}, {}
    elif args.trace:
        metrics, units, spread = per_layer(raw, problems), layer_units, {}
    else:
        (metrics, spread), units = end_to_end(raw), e2e_units
    if set(metrics) != set(units):
        fail("metrics differ from BENCHMARK.json: " + ", ".join(
            sorted(set(metrics) ^ set(units))))
    check_reproducible(raw, problems)

    correct = raw["failed"] == 0 and not problems and p.returncode == 0
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    raw["env"].update(nproc=os.cpu_count(), accesys_env=env)
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, env=raw["env"], digest=raw["digest"],
                  problems=problems, raw=raw)
    out = BUILD / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(raw["env"], sort_keys=True))
    print(f"stats digest {raw['digest']}  events {raw['events']}  " +
          "  ".join(f"{k}={v:.9g}" for k, v in sorted(raw["model"].items())
                    if k.startswith("model.")))
    print(f"failed_ratio {raw['failed'] / max(raw['attempted'], 1):.6g} "
          f"({raw['failed']} of {raw['attempted']} operations)")
    for name in units:
        print(f"  {name:32s} {metrics[name]:.6g} {units[name]}")
    for name, ((q1, q2, q3), n) in spread.items():
        print(f"  {name:32s} median {q2:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, "
              f"n={n}")
    for msg in problems[:20]:
        print(f"PROBLEM {msg}")
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
