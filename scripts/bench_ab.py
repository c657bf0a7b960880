#!/usr/bin/env python3
"""Interleaved A/B run of the repository benchmark.

Run from the repository root (or through `make bench-ab`):

    python3 scripts/bench_ab.py --base HEAD --rounds 10 --seconds 10 --seed 1

It checks the base commit out into a git worktree under
.bench_build/ab-base, then runs perfbench/run.py on the base and on the
working tree in turns — round r runs both, in an order that alternates
from round to round, so a slow or fast phase of the host lands on both
sides — for every workload BENCHMARK.json lists (or those named with
--workload). Records go to .bench_build/ab-results/, never under
perfbench/. It prints, per workload and end-to-end metric, the median
and the interquartile range of each side, the change of the medians,
in how many rounds the working tree beat the base, and a verdict from
the metric's BENCHMARK.json `bound` and `better`:

    ok          the change's median is within the bound of the base's
    worse       the change's median is past the bound (worse side)
    unresolved  the base's IQR is wider than the bound and the change
                does not win every round, so the runs cannot tell

and a claim column from the gain rule:

    gain        the change wins at least 9 of every 10 completed pairs
                and its median beats the base's by more than the
                base's IQR
    -           otherwise

A side with more failed runs than the other is flagged. The worktree is
removed when the run ends. The exit code is 1 when any verdict is
`worse`, 2 on a usage or setup error, else 0.

--trace 1 runs perfbench's traced mode instead and reports, for every
per-layer metric BENCHMARK.json lists (the `planner.packed.*` probes,
per-layer CPU and allocations, ...), the same median, IQR, change of
the medians and win count, with no verdict or claim: the layer metrics
carry no bounds, and a traced run measures where time goes rather than
the end-to-end rates. Its exit code is 0 unless a setup error occurs.

--base-tree DIR compares against an existing checkout of the base (for
example a `git clone` of it) instead of a worktree; --base is then
ignored and DIR is left in place.
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


def run_once(tree, side, workload, seed, seconds, trace):
    """One perfbench run; returns its metrics, or None if it failed."""
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
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


def won(b, c, higher):
    """Number of pairs in which the change beat the base."""
    return sum(1 for x, y in zip(b, c) if (y > x if higher else y < x))


def verdict(b, c, bound, higher):
    """ok / worse / unresolved for base values b and change values c."""
    bm, bq1, bq3 = spread(b)
    cm = spread(c)[0]
    if (cm < bm * (1 - bound)) if higher else (cm > bm * (1 + bound)):
        return "worse"
    wins = won(b, c, higher)
    if bm and (bq3 - bq1) / abs(bm) > bound and wins < len(b):
        return "unresolved"
    return "ok"


def claim(b, c, higher):
    """gain / - for base values b and change values c."""
    bm, bq1, bq3 = spread(b)
    cm = spread(c)[0]
    wins = won(b, c, higher)
    beat = (cm - bm) if higher else (bm - cm)
    return "gain" if wins * 10 >= len(b) * 9 and beat > bq3 - bq1 else "-"


def report(vals, workloads, metrics, rounds, judge):
    """Prints the per-workload tables; returns the number of worse verdicts.

    Without judge (the traced layer metrics) the verdict and claim columns
    are left out."""
    worse = 0
    for w in workloads:
        fails = {s: sum(1 for v in vals[(w, s)] if v is None) for s in ("base", "change")}
        pairs = [(b, c) for b, c in zip(vals[(w, "base")], vals[(w, "change")]) if b and c]
        print(f"\n{w}: {len(pairs)} of {rounds} rounds completed on both sides")
        if fails["base"] != fails["change"]:
            side = max(fails, key=fails.get)
            print(f"  FLAG: {side} had more failed runs (base {fails['base']}, change {fails['change']})")
        if not pairs:
            continue
        width = max(16, *(len(m["name"]) for m in metrics))
        print(f"  {'metric':<{width}} {'base':>10} {'IQR':>21} {'change':>10} {'IQR':>21} {'Δ median':>9} "
              f"{'wins':>6}" + (f" {'bound':>6}  {'verdict':<10}  claim" if judge else ""))
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            b = [p[0][name] for p in pairs if name in p[0] and name in p[1]]
            c = [p[1][name] for p in pairs if name in p[0] and name in p[1]]
            if not b:
                continue
            bm, bq1, bq3 = spread(b)
            cm, cq1, cq3 = spread(c)
            wins = won(b, c, higher)
            delta = (cm - bm) / bm * 100 if bm else float("nan")
            row = (f"  {name:<{width}} {bm:>10.4g} {f'[{bq1:.4g}, {bq3:.4g}]':>21} "
                   f"{cm:>10.4g} {f'[{cq1:.4g}, {cq3:.4g}]':>21} {delta:>+8.1f}% {wins:>3}/{len(b)}")
            if judge:
                v = verdict(b, c, m["bound"], higher)
                worse += v == "worse"
                row += f" {m['bound']:>6.2f}  {v:<10}  {claim(b, c, higher)}"
            print(row)
    return worse


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="commit to compare the working tree against")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10, help="measured seconds per run")
    ap.add_argument("--seed", type=int, default=1, help="workload seed of every run")
    ap.add_argument("--workload", action="append", help="workload to run (default: BENCHMARK.json's)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1 compares the traced per-layer metrics, without verdicts")
    ap.add_argument("--base-tree", help="existing checkout of the base to use instead of a worktree")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("run from the repository root (BENCHMARK.json must exist)")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer" if args.trace else "end_to_end"]

    if args.base_tree:
        tree = os.path.abspath(args.base_tree)
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            fail(f"{tree} is not a checkout of the repository")
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True)
        base = rev.stdout.strip() or tree
    else:
        tree = BASE_TREE
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
        sides = {"base": tree, "change": ROOT}
        vals = {(w, s): [] for w in workloads for s in sides}
        for r in range(args.rounds):
            order = ["base", "change"] if r % 2 == 0 else ["change", "base"]
            for w in workloads:
                for s in order:
                    print(f"round {r + 1}/{args.rounds}: {w} on {s}", file=sys.stderr)
                    vals[(w, s)].append(run_once(sides[s], s, w, args.seed, args.seconds, args.trace))
    finally:
        if not args.base_tree:
            git("worktree", "remove", "--force", BASE_TREE)
            git("worktree", "prune")

    print(f"base {base[:12]} vs working tree: {args.rounds} interleaved rounds of {args.seconds} s, "
          f"seed {args.seed}" + (", traced" if args.trace else ""))
    if report(vals, workloads, metrics, args.rounds, judge=not args.trace):
        sys.exit(1)


if __name__ == "__main__":
    main()
