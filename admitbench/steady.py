#!/usr/bin/env python3
"""Steadiness check for the admission benchmark.

Run from the repository root.

    python3 admitbench/steady.py run --workload commit-large --runs 10 \
        --seed-base 100 --out a.json
    python3 admitbench/steady.py compare a.json b.json

`run` executes the command in BENCHMARK.json K times on one workload, each
time with the next seed and for `run_seconds`, and prints each end-to-end
metric's median, first and third quartile (as
`statistics.quantiles(values, n=4)` gives them) and the spread
(Q3 - Q1) / median against the metric's bound. It fails if a run is not
correct or if a spread exceeds its bound.

`compare` takes two saved sets of runs of the same code and fails if a
spread exceeds its bound in either set, or if the second set's median of
any metric is worse than the first's by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_spec():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def run(args):
    spec, metrics = load_spec()
    samples = {name: [] for name in metrics}
    for k in range(args.runs):
        seed = args.seed_base + k
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.monotonic() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: run not correct")
        for name in metrics:
            samples[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: {wall:.1f} s", flush=True)
    ok = report(args.workload, samples, metrics)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "samples": samples}, f, indent=1)
    sys.exit(0 if ok else 1)


def report(workload, samples, metrics):
    ok = True
    print(f"{workload}: {len(next(iter(samples.values())))} runs")
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for name, m in metrics.items():
        med, q1, q3, spread = summary(samples[name])
        verdict = "ok"
        if spread > m["bound"]:
            verdict, ok = "TOO WIDE", False
        elif spread > m["bound"] / 3:
            verdict = "wide"
        print(f"{name:<16} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>7.3f} {m['bound']:>6} {verdict}")
    return ok


def compare(args):
    _, metrics = load_spec()
    sets = []
    for path in (args.first, args.second):
        with open(path) as f:
            sets.append(json.load(f))
    ok = all(report(s["workload"], s["samples"], metrics) for s in sets)
    print(f"{'metric':<16} {'first':>12} {'second':>12} {'worse by':>9} {'bound':>6}")
    for name, m in metrics.items():
        a = statistics.median(sets[0]["samples"][name])
        b = statistics.median(sets[1]["samples"][name])
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        verdict = "ok"
        if worse > m["bound"]:
            verdict, ok = "WORSE", False
        print(f"{name:<16} {a:>12.4f} {b:>12.4f} {worse:>9.3f} {m['bound']:>6} {verdict}")
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run one workload K times")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed-base", type=int, default=1)
    r.add_argument("--out", help="save the samples here")
    r.set_defaults(func=run)
    c = sub.add_parser("compare", help="compare two saved sets of runs")
    c.add_argument("first")
    c.add_argument("second")
    c.set_defaults(func=compare)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
