#!/usr/bin/env python3
"""Interleaved A/B run of the repository benchmark.

Run from the repository root (or through `make bench-ab`):

    python3 scripts/bench_ab.py --base HEAD --rounds 5 --seconds 10

It checks the base commit out into a git worktree under
.bench_build/ab-base, then runs perfbench/run.py on the base and on the
working tree in turns — round r runs both, in an order that alternates
from round to round, so a slow or fast phase of the host lands on both
sides — for every workload BENCHMARK.json lists (or those named with
--workload). Records go to .bench_build/ab-results/, never under
perfbench/. It prints, per workload and end-to-end metric, the median
and the interquartile range of each side, the change of the medians,
and in how many rounds the working tree beat the base. The worktree is
removed when the run ends.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BASE_TREE = os.path.join(BUILD, "ab-base")
RESULTS = os.path.join(BUILD, "ab-results")


def fail(msg):
    print("bench_ab: " + msg, file=sys.stderr)
    sys.exit(2)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def run_once(tree, side, workload, seed, seconds):
    """One perfbench run; returns its metrics, or None if it failed."""
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0",
         "--results", os.path.join(RESULTS, side)],
        cwd=tree, capture_output=True, text=True, timeout=1200)
    lines = out.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        res = None
    if out.returncode != 0 or res is None or not res.get("correct"):
        print(f"  {side}: run failed (exit {out.returncode})\n{out.stderr[-2000:]}", file=sys.stderr)
        return None
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(xs):
    """(median, first quartile, third quartile) of xs."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q2, q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="commit to compare the working tree against")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--seconds", type=int, default=10, help="measured seconds per run")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", help="workload to run (default: BENCHMARK.json's)")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("run from the repository root (BENCHMARK.json must exist)")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    rev = git("rev-parse", "--verify", args.base + "^{commit}")
    if rev.returncode != 0:
        fail(f"unknown base commit {args.base!r}")
    base = rev.stdout.strip()
    git("worktree", "remove", "--force", BASE_TREE)
    shutil.rmtree(BASE_TREE, ignore_errors=True)
    git("worktree", "prune")
    add = git("worktree", "add", "--detach", BASE_TREE, base)
    if add.returncode != 0:
        fail("git worktree add failed: " + add.stderr.strip())
    try:
        sides = {"base": BASE_TREE, "change": ROOT}
        vals = {(w, s): [] for w in workloads for s in sides}
        for r in range(args.rounds):
            order = ["base", "change"] if r % 2 == 0 else ["change", "base"]
            for w in workloads:
                for s in order:
                    print(f"round {r + 1}/{args.rounds}: {w} on {s}", file=sys.stderr)
                    vals[(w, s)].append(run_once(sides[s], s, w, args.seed, args.seconds))
    finally:
        git("worktree", "remove", "--force", BASE_TREE)
        git("worktree", "prune")

    print(f"base {base[:12]} vs working tree: {args.rounds} interleaved rounds of {args.seconds} s")
    for w in workloads:
        pairs = [(b, c) for b, c in zip(vals[(w, "base")], vals[(w, "change")]) if b and c]
        print(f"\n{w}: {len(pairs)} of {args.rounds} rounds completed on both sides")
        if not pairs:
            continue
        print(f"  {'metric':<16} {'base':>10} {'IQR':>21} {'change':>10} {'IQR':>21} {'Δ median':>9} {'wins':>6}")
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            b = [p[0][name] for p in pairs if name in p[0] and name in p[1]]
            c = [p[1][name] for p in pairs if name in p[0] and name in p[1]]
            if not b:
                continue
            bm, bq1, bq3 = spread(b)
            cm, cq1, cq3 = spread(c)
            wins = sum(1 for x, y in zip(b, c) if (y > x if higher else y < x))
            delta = (cm - bm) / bm * 100 if bm else float("nan")
            print(f"  {name:<16} {bm:>10.4g} {f'[{bq1:.4g}, {bq3:.4g}]':>21} "
                  f"{cm:>10.4g} {f'[{cq1:.4g}, {cq3:.4g}]':>21} {delta:>+8.1f}% {wins:>3}/{len(b)}")

if __name__ == "__main__":
    main()
