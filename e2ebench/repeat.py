#!/usr/bin/env python3
"""Run one benchmark workload N times and summarise each metric.

With one checkout, runs use seeds --seed, --seed+1, ... and the report
gives each end-to-end metric's median, quartiles and run-to-run spread
(interquartile distance over the median) against its bound from
BENCHMARK.json.

With two checkouts (parent first, change second), run i plays seed
--seed+i on both, alternating which side goes first, and the report
adds the change's median against the parent's, the share of pairs the
change won, and a verdict: REGRESSION when it got worse by more than
the bound, UNRESOLVED when either side's spread is wider than the
bound (unless every change run beats every parent run), ok otherwise.
Any bounded metric whose spread exceeds its bound is marked WIDE.

    python3 e2ebench/repeat.py --workload small-lake --runs 10
    python3 e2ebench/repeat.py --workload large-lake --runs 10 \\
        --checkout ../parent --checkout .

Each checkout must hold BENCHMARK.json; the command it names is run
from the checkout's root. Quartiles are those of
statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, bench, workload, seed, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: seed {seed} failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{checkout}: seed {seed} reported incorrect output")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def worse_by(parent, change, better):
    """How much worse the change is, as a share of the parent."""
    if parent == 0:
        return 0.0
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first run")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--checkout", action="append", help="repository root; give twice for parent and change")
    args = ap.parse_args()
    checkouts = [os.path.abspath(c) for c in (args.checkout or ["."])]
    if len(checkouts) > 2:
        sys.exit("give at most two checkouts")
    if args.runs < 2:
        sys.exit("quartiles need at least two runs")
    benches = []
    for c in checkouts:
        with open(os.path.join(c, "BENCHMARK.json")) as f:
            benches.append(json.load(f))
    specs = benches[0]["per_layer" if args.trace else "end_to_end"]

    values = [dict() for _ in checkouts]
    for i in range(args.runs):
        seed = args.seed + i
        order = range(len(checkouts)) if i % 2 == 0 else reversed(range(len(checkouts)))
        for side in order:
            got = run_once(checkouts[side], benches[side], args.workload, seed, args.trace)
            for name, v in got.items():
                values[side].setdefault(name, []).append(v)
            print(f"run {i + 1}/{args.runs} seed {seed} {checkouts[side]}: done", file=sys.stderr)

    print(f"workload {args.workload}, {args.runs} runs per side")
    header = f"{'metric':<28}{'unit':>7}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>8}{'bound':>7}"
    if len(checkouts) == 2:
        header += f"{'change':>12}{'worse':>8}{'wins':>6}"
    print(header)
    for spec in specs:
        name = spec["name"]
        base = values[0].get(name)
        if not base:
            print(f"{name:<28} missing")
            continue
        q1, med, q3, sp = spread(base)
        bound = spec.get("bound")
        line = f"{name:<28}{spec['unit']:>7}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{sp:>8.3f}"
        line += f"{bound:>7}" if bound is not None else f"{'-':>7}"
        if len(checkouts) == 2:
            change = values[1].get(name, [])
            cmed = statistics.median(change)
            worse = worse_by(med, cmed, spec["better"])
            better = [
                (c < p) if spec["better"] == "lower" else (c > p)
                for p, c in zip(base, change)
                if c != p
            ]
            line += f"{cmed:>12.5g}{worse:>8.3f}{sum(better):>3}/{len(base)}"
            if bound is not None:
                wide = sp > bound or spread(change)[3] > bound
                if spec["better"] == "lower":
                    beats_all = max(change) < min(base)
                else:
                    beats_all = min(change) > max(base)
                if wide and not beats_all:
                    line += "  UNRESOLVED"
                elif worse > bound:
                    line += "  REGRESSION"
                else:
                    line += "  ok"
        if bound is not None and sp > bound:
            line += "  WIDE"
        print(line)


if __name__ == "__main__":
    main()
