#!/usr/bin/env python3
"""Repeat the perf benchmark and summarise it.

One checkout: run every workload RUNS times, each with another seed,
and print each end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median) next to the
metric's bound from BENCHMARK.json.

    python3 bench/perf/compare.py --runs 10 .

Two checkouts, PARENT then CHANGE: run RUNS pairs per workload, the
same seed on both sides of a pair, alternating which side runs first.
Per metric it prints both sides' medians and quartiles, how many pairs
the change won, and one of: "gain" (the change won at least 9 in 10
pairs and the medians differ by more than the parent's quartile
spread), "regression" (the change's median is worse than the parent's
by more than the bound), "unresolved" (the parent's own spread is wider
than the bound) or "same".

    python3 bench/perf/compare.py --runs 10 ../parent .

Each checkout runs the command named in its own BENCHMARK.json from
its root, so both sides build from their own sources. --trace 1
summarises the per-layer metrics instead (no bounds, no verdicts).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.exit(f"{root}: {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{root}: {workload} seed {seed} reported wrong outputs")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="write every sample to this JSON file")
    ap.add_argument("roots", nargs="+", metavar="CHECKOUT")
    args = ap.parse_args()
    if len(args.roots) > 2 or args.runs < 2:
        ap.error("one or two checkouts, at least 2 runs")
    specs = [load_spec(r) for r in args.roots]
    spec = specs[-1]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    samples = {}
    for w in workloads:
        sides = [{m["name"]: [] for m in metrics} for _ in args.roots]
        for k in range(args.runs):
            seed = args.first_seed + k
            order = list(range(len(args.roots)))
            if k % 2:
                order.reverse()
            for side in order:
                values = run_once(args.roots[side], specs[side], w, seed, args.trace)
                for m in metrics:
                    sides[side][m["name"]].append(values[m["name"]])
        samples[w] = [dict(s) for s in sides]
        for m in metrics:
            name = m["name"]
            cols = [summary(s[name]) for s in sides]
            line = f"{w:10} {name:32}" + "".join(
                f" med {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {sp:.4f} |" for med, q1, q3, sp in cols
            )
            if "bound" in m:
                line += f" bound {m['bound']}"
            if len(sides) == 2 and "bound" in m:
                lower = m["better"] == "lower"
                parent, change = sides[0][name], sides[1][name]
                wins = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
                pmed, pq1, pq3, pspread = cols[0]
                cmed = cols[1][0]
                worse = (cmed - pmed if lower else pmed - cmed) / pmed if pmed else 0.0
                if worse > m["bound"]:
                    verdict = "regression"
                elif wins >= 0.9 * args.runs and abs(cmed - pmed) > pq3 - pq1:
                    verdict = "gain"
                elif pspread > m["bound"]:
                    verdict = "unresolved"
                else:
                    verdict = "same"
                line += f" change wins {wins}/{args.runs} {verdict}"
            print(line, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"roots": args.roots, "runs": args.runs, "samples": samples}, f, indent=1)


if __name__ == "__main__":
    main()
