#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs the benchmark command from BENCHMARK.json several times per workload,
each run with another seed, and reports for every (workload, end-to-end
metric) the median, the quartiles (statistics.quantiles(values, n=4)), the
spread (Q3 - Q1) / median, and that spread as a fraction of the metric's
bound. A second set of runs can be compared with a first: the report then
also gives how far each median moved in the metric's "worse" direction, as
a fraction of the bound.

Run it from the repository root:

    python3 perfbench/steady.py --runs 10 --save .bench_build/set1.json
    python3 perfbench/steady.py --runs 10 --save .bench_build/set2.json \
        --compare .bench_build/set1.json

Every set runs every workload of BENCHMARK.json at its run_seconds, the
workloads interleaved within a seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    took = time.time() - start
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    res["wall_s"] = took
    return res


def stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(spec, runs, base=None):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worst = 0.0
    print(f"| workload | metric | n | median | Q1 | Q3 | spread | spread/bound |"
          + (" median move/bound |" if base else ""))
    print("|---|---|---|---|---|---|---|---|" + ("---|" if base else ""))
    for workload in sorted(runs):
        rs = runs[workload]
        bad = [r for r in rs if not r["correct"] or r["failed"]]
        for name, m in bounds.items():
            vals = [r["metrics"][name]["value"] for r in rs]
            med, q1, q3, spread = stats(vals)
            frac = spread / m["bound"]
            if name != "setup_s":
                worst = max(worst, frac)
            row = (f"| {workload} | {name} | {len(vals)} | {med:.6g} | {q1:.6g} | "
                   f"{q3:.6g} | {spread:.4f} | {frac:.2f} |")
            if base:
                bmed = statistics.median(r["metrics"][name]["value"] for r in base[workload])
                move = (med - bmed) / bmed if bmed else 0.0
                if m["better"] == "higher":
                    move = -move
                row += f" {move / m['bound']:+.2f} |"
            print(row)
        if bad:
            print(f"\n{workload}: {len(bad)} run(s) incorrect or with failed ops\n")
    print(f"\nlargest spread/bound (setup_s excluded): {worst:.2f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save", help="write the raw results here")
    ap.add_argument("--compare", help="saved raw results of an earlier set")
    a = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in names}
    for i in range(a.runs):
        for w in names:
            seed = a.first_seed + i
            r = run_once(spec, w, seed)
            runs[w].append(r)
            print(f"{w} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"wall={r['wall_s']:.1f}s", file=sys.stderr)
    if a.save:
        with open(a.save, "w") as f:
            json.dump(runs, f)
    base = None
    if a.compare:
        with open(a.compare) as f:
            base = json.load(f)
    report(spec, runs, base)


if __name__ == "__main__":
    main()
