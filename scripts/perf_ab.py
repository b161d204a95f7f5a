#!/usr/bin/env python3
"""Interleaved A/B runs of perfbench: a parent revision against this tree.

Usage (from anywhere inside the repository):

    python3 scripts/perf_ab.py --parent REV --workload steady|overload|serving \
        [--pairs N]

The parent is REV exported with `git archive` into a temporary directory;
the change is the working tree the script sits in. Each tree is built by
its own perfbench/run.py with its own CARGO_TARGET_DIR inside that
temporary directory. Then N pairs run (default 10) with seeds 1..N,
alternating which side goes first; each run lasts BENCHMARK.json's
run_seconds.

For every end-to-end metric in BENCHMARK.json the report gives both
sides' median and quartiles, the median and range of the pairwise
change/parent ratios, the change's wins (ties count for neither) and the
parent's IQR/median. It then says whether the claim rule holds (the
change wins at least nine tenths of the pairs and the medians differ, in
its favour, by more than the parent's IQR) and whether the metric stays
within its bound; a metric whose run-to-run spread exceeds its bound is
"unresolved" unless every change run beats every parent run. Failed
operations and per-seed digest equality are reported too.

The script only reads BENCHMARK.json, writes nothing into the repository,
and removes the temporary directory on exit. Exit status: 0 when every
run succeeded and passed perfbench's correctness gate, 1 otherwise.
"""
import argparse
import importlib.util
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("steady", "overload", "serving")
SIDES = ("parent", "change")


def export_tree(rev, dest):
    """Writes the files of `rev` under `dest`, leaving .git untouched;
    returns the abbreviated commit id."""
    git = ["git", "-C", REPO]
    sha = subprocess.run(git + ["rev-parse", "--short", rev + "^{commit}"],
                         check=True, capture_output=True, text=True)
    archive = subprocess.run(git + ["archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return sha.stdout.strip()


def build(tree, target_dir):
    """Builds `tree`'s perfbench through that tree's own run.py."""
    sys.dont_write_bytecode = True  # no __pycache__ inside either tree
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(tree, "perfbench", "run.py"))
    run_py = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_py)
    if run_py.build(os.path.join(target_dir, "perfbench")) is None:
        sys.exit(f"perf_ab: building perfbench in {tree} failed")


def run_once(tree, target_dir, workload, seed, seconds):
    """One perfbench run; returns (result dict or None, digest lines)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    digests = [l.split(None, 1)[1] for l in lines
               if l.strip().startswith("digest ")]
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write(proc.stderr[-2000:])
        return None, digests
    return result, digests


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def better(a, b, lower_is_better):
    return a < b if lower_is_better else a > b


def judge(metric, parent, change):
    """One report row for one metric over paired runs."""
    lower = metric["better"] == "lower"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    ratios = [c / p for p, c in zip(parent, change) if p != 0]
    wins = sum(better(c, p, lower) for p, c in zip(parent, change))
    p_spread = (p_q3 - p_q1) / abs(p_med) if p_med else math.inf
    c_spread = (c_q3 - c_q1) / abs(c_med) if c_med else math.inf
    claim = (wins * 10 >= 9 * len(parent) and better(c_med, p_med, lower)
             and abs(c_med - p_med) > p_q3 - p_q1)
    worse_by = ((c_med - p_med) if lower else (p_med - c_med)) / abs(p_med) \
        if p_med else 0.0
    all_better = (max(change) < min(parent) if lower
                  else min(change) > max(parent))
    if worse_by > metric["bound"]:
        bound = "VIOLATED"
    elif max(p_spread, c_spread) > metric["bound"] and not all_better:
        bound = "unresolved"
    else:
        bound = "holds"
    return (f"{metric['name']} ({metric['unit']}, {metric['better']})",
            f"{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]",
            f"{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]",
            (f"{statistics.median(ratios):.3f} "
             f"[{min(ratios):.3f}, {max(ratios):.3f}]" if ratios else "n/a"),
            f"{wins}/{len(parent)}",
            f"{p_spread:.3f}",
            "yes" if claim else "no",
            f"{bound} (median worse by {worse_by:+.3f}, "
            f"bound {metric['bound']:.2f})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare against")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = float(bench["run_seconds"])
    metrics = bench["end_to_end"]

    with tempfile.TemporaryDirectory(prefix="perf_ab.") as tmp:
        trees = {"parent": os.path.join(tmp, "parent"), "change": REPO}
        targets = {side: os.path.join(tmp, f"{side}-target") for side in SIDES}
        parent_sha = export_tree(args.parent, trees["parent"])
        for side in SIDES:
            print(f"perf_ab: building {side}", file=sys.stderr)
            build(trees[side], targets[side])

        values = {side: {m["name"]: [] for m in metrics} for side in SIDES}
        fail_share = {side: [] for side in SIDES}
        digests_equal = 0
        ok = True
        for seed in range(1, args.pairs + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            digests = {}
            for side in order:
                result, digests[side] = run_once(trees[side], targets[side],
                                                 args.workload, seed, seconds)
                if result is None:
                    print(f"perf_ab: {side} run at seed {seed} failed",
                          file=sys.stderr)
                    ok = False
                    continue
                for m in metrics:
                    values[side][m["name"]].append(
                        result["metrics"][m["name"]]["value"])
                attempted = max(result.get("attempted", 0), 1)
                fail_share[side].append(result.get("failed", 0) / attempted)
            if digests["parent"] and digests["parent"] == digests["change"]:
                digests_equal += 1
            print(f"perf_ab: pair {seed}/{args.pairs} done ({order[0]} first)",
                  file=sys.stderr)

    if not ok:
        print("perf_ab: some runs failed; no report", file=sys.stderr)
        return 1
    print(f"perf_ab: workload={args.workload} parent={args.parent} "
          f"({parent_sha}) change=working tree pairs={args.pairs} "
          f"run_seconds={seconds:g}")
    header = ("metric", "parent med [q1, q3]", "change med [q1, q3]",
              "change/parent med [min, max]", "wins", "parent IQR/med",
              "claim", "bound")
    rows = [header] + [judge(m, values["parent"][m["name"]],
                             values["change"][m["name"]]) for m in metrics]
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    print(f"fail share: parent max {max(fail_share['parent']):.4f}, "
          f"change max {max(fail_share['change']):.4f}")
    print(f"digests equal on {digests_equal}/{args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
