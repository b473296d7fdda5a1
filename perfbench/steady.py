#!/usr/bin/env python3
"""Steadiness check: two alternated sets of runs of one build.

    python3 perfbench/steady.py [--runs 10] [--workloads predict,replay]

For every workload in BENCHMARK.json (or the ones named), runs the
benchmark `--runs` times for set A and `--runs` times for set B,
alternating A, B, A, B, ... Set A uses seeds 1..runs, set B the next
`runs` seeds. For each end-to-end metric it prints each set's median
and quartiles, the quartile spread as a share of the median, and how
far B's median moved from A's in either direction, then whether the
sets agree: both spreads within the metric's bound, the move within
the bound, and the same share of failed ops in both sets.
Exits 0 when everything agrees, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seeds_a = [1 + i for i in range(args.runs)]
    seeds_b = [s + args.runs for s in seeds_a]

    ok = True
    for w in names:
        sets = {"A": [], "B": []}
        for sa, sb in zip(seeds_a, seeds_b):
            for name, seed in (("A", sa), ("B", sb)):
                result, wall = run_once(spec, w, seed)
                sets[name].append(result)
                values = " ".join(f"{k}={v['value']:.4g}"
                                  for k, v in result["metrics"].items())
                print(f"  {w} {name} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      f"wall={wall:.1f}s {values}", file=sys.stderr, flush=True)
        print(f"== {w}")
        for name in "AB":
            bad = [r for r in sets[name] if not r["correct"]]
            if bad:
                ok = False
                print(f"  set {name}: {len(bad)} runs with failed checks")
        shares = {name: {r["failed"] / r["attempted"] for r in sets[name]} for name in "AB"}
        same_share = len(shares["A"] | shares["B"]) == 1
        ok &= same_share
        print(f"  failed share: A {sorted(shares['A'])} B {sorted(shares['B'])} "
              f"{'same' if same_share else 'DIFFERENT'}")
        print(f"  {'metric':22} {'set':3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6} {'moved':>7}  verdict")
        for m in spec["end_to_end"]:
            key, bound = m["name"], m["bound"]
            stats = {}
            for name in "AB":
                stats[name] = spread([r["metrics"][key]["value"] for r in sets[name]])
            med_a, med_b = stats["A"][0], stats["B"][0]
            moved = abs(med_b - med_a) / med_a if med_a else float("inf")
            agree = moved <= bound and all(stats[n][3] <= bound for n in "AB")
            ok &= agree
            for name in "AB":
                med, q1, q3, sp = stats[name]
                tail = (f"{moved:7.3f}  {'agree' if agree else 'DISAGREE'}"
                        if name == "B" else "")
                print(f"  {key:22} {name:3} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{sp:7.3f} {bound:6.2f} {tail}")
        sys.stdout.flush()
    print("all sets agree" if ok else "sets DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
