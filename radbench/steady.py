#!/usr/bin/env python3
"""Steadiness and comparison tool for the radbench benchmark.

Runs every workload of BENCHMARK.json repeatedly, one seed per run, and
prints each end-to-end metric's median, quartiles and spread (the distance
between the first and third quartile as a share of the median, quartiles as
``statistics.quantiles(values, n=4)`` gives them) against the metric's
bound. A spread wider than its bound is flagged ``WIDE``, for every metric
``setup_s`` included; one wider than a third of it is flagged ``near``.

  python3 radbench/steady.py [--runs 10] [--first-seed 1]
                             [--save runs.json] [--compare base.json]

``--save`` writes the raw readings; ``--compare`` reads such a file (for
instance from the parent commit) and flags every metric whose median is
worse than the saved median by more than its bound. Run from the root of
the checkout. Exits 1 when a run fails its output checks, a spread is wider
than its bound, or a comparison finds a regression.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed):
    """The run's result and its manifest."""
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("manifest "))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def worse_by(metric, base, new):
    """Relative amount by which `new` is worse than `base`."""
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    base = {}
    if args.compare:
        with open(args.compare) as f:
            base = json.load(f)

    ok = True
    readings = {}
    for name in names:
        runs, scales = [], []
        for i in range(args.runs):
            result, manifest = run_once(bench, name, args.first_seed + i)
            scales.append(manifest["time_scale"])
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{name} seed {args.first_seed + i}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
            runs.append(result)
        readings[name] = {m["name"]: [r["metrics"][m["name"]]["value"] for r in runs]
                          for m in bench["end_to_end"]}
        print(f"\n{name} ({args.runs} runs, time_scale {min(scales):.3f}–{max(scales):.3f})")
        print(f"  {'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            values = readings[name][m["name"]]
            q1, med, q3, s = spread(values)
            flag = ""
            if s > m["bound"]:
                flag, ok = "WIDE", False
            elif s > m["bound"] / 3:
                flag = "near"
            print(f"  {m['name']:28} {med:14.6g} {q1:14.6g} {q3:14.6g} {s:8.4f} {m['bound']:6.3f} {flag}")
            if name in base and m["name"] in base[name]:
                old = statistics.median(base[name][m["name"]])
                w = worse_by(m, old, med)
                verdict = "REGRESSION" if w > m["bound"] else "ok"
                if w > m["bound"]:
                    ok = False
                print(f"  {'':28} vs saved median {old:.6g}: worse by {w:+.4f} {verdict}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(readings, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
