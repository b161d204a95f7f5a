#!/usr/bin/env python3
"""Repeat runner: runs the benchmark N times per workload and summarises.

Usage (from the repository root):

    python3 perfbench/repeat.py [--runs 10] [--sets 1] [--trace 0|1]
        [--fixed-seed] [workload ...]

Every run measures BENCHMARK.json's run_seconds. Runs alternate the
workload order (forward, then reversed) so slow drift of the host does
not land on one workload. Run i of set s gets seed pins.json seed +
s * runs + i, or pins.json's seed every time with --fixed-seed. For every
workload and metric it prints the median, the quartiles
(statistics.quantiles, n=4), min/max and the spread (Q3 - Q1) / median,
and compares the spread with the metric's bound in BENCHMARK.json (the
target is below a third of the bound). With --sets 2 it runs two
independent sets and checks that their medians differ by no more than
the bound, either way. With --fixed-seed --trace 1 it checks that the
exact counts listed in perfbench/pins.json repeat exactly and equal the
recorded values. Exit status 1 when any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed={seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise RuntimeError(f"{workload} seed={seed}: correctness gate failed")
    return result


def run_set(workloads, args, seconds, seed_base, set_index):
    values = {w: {} for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        seed = seed_base if args.fixed_seed else (
            seed_base + set_index * args.runs + i)
        for w in order:
            result = run_once(w, seed, seconds, args.trace)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"  set {set_index} run {i} {w} seed={seed} done",
                  file=sys.stderr)
    return values


def summarise(values, bounds):
    """Prints one row per metric; returns the failed spread checks."""
    failures = []
    for w, metrics in values.items():
        print(f"\n{w}")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'min':>14} {'max':>14} {'spread':>8}  bound")
        for name, vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], vals[0], vals[0]))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = f"{bound:.2f} {'ok' if spread < bound / 3 else 'WIDE'}"
                if spread > bound:
                    failures.append(f"{w} {name}: spread {spread:.3f} > {bound}")
            print(f"  {name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{min(vals):14.6g} {max(vals):14.6g} {spread:8.4f}  "
                  f"{verdict}")
    return failures


def compare_sets(first, second, bench):
    failures = []
    print("\nset agreement (second median vs first)")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for w in first:
            if name not in first[w]:
                continue
            a = statistics.median(first[w][name])
            b = statistics.median(second[w][name])
            change = (b - a) / a
            ok = abs(change) <= bound
            print(f"  {w:9} {name:22} {a:14.6g} {b:14.6g} "
                  f"{100 * change:+7.2f}%  {'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(f"{w} {name}: sets differ by {change:+.3f}")
    return failures


def check_pins(values, pins):
    """Exact counts must repeat across runs and equal the recorded
    values."""
    failures = []
    for w, metrics in values.items():
        recorded = pins["values"].get(w, {})
        for name in pins["exact_per_layer"]:
            vals = metrics.get(name, [])
            if len(set(vals)) > 1:
                failures.append(f"{w} {name}: not exact across runs {vals}")
            elif name in recorded and vals and vals[0] != recorded[name]:
                failures.append(f"{w} {name}: {vals[0]} != recorded "
                                f"{recorded[name]}")
    print(f"\nexact counts: {len(pins['exact_per_layer'])} metrics checked")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixed-seed", action="store_true")
    args = parser.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    pins = load_json(os.path.join(HERE, "pins.json"))
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    sets = [run_set(workloads, args, bench["run_seconds"], pins["seed"], s)
            for s in range(args.sets)]
    failures = []
    for s, values in enumerate(sets):
        print(f"\n=== set {s} ({args.runs} runs, trace={args.trace}) ===")
        failures += summarise(values, bounds)
        if args.fixed_seed and args.trace == 1:
            failures += check_pins(values, pins)
    if args.sets == 2:
        failures += compare_sets(sets[0], sets[1], bench)
    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
