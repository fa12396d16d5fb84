#!/usr/bin/env python3
"""Compare the working tree with a base revision on one spinbench workload,
in alternating pairs of runs.

    scripts/bench_pairs.py --base <rev> --workload W [--pairs 10]
                           [--seed 11] [--seconds 10]

The wall clock of one host drifts by several percent within minutes, so
one run a side says little about a wall-clock metric. The script exports
`<rev>` with `git archive` into a temporary directory (as
`same_behaviour.py` does), builds spinbench once for each side into its
own target directory, then runs `spinbench --workload W --trace 0` N
times a side, one pair after another, alternating which side runs first.
Per end-to-end metric of `BENCHMARK.json` it prints each side's median
and quartiles and in how many of the N pairs the tree was better than the
base (equal counts as neither), then every run's `failed` count. It exits
1 if any run was incorrect.

Building spinbench in the checkout rewrites its stale
`spinbench/Cargo.lock`; the script puts the lock's bytes back when it is
done.
"""

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

from same_behaviour import ROOT, build, export

LOCK = ROOT / "spinbench" / "Cargo.lock"
SPINBENCH = ("--manifest-path", "spinbench/Cargo.toml")


def run(target, workload, seed, seconds, out):
    """One timed spinbench run; its result line (the last line of stdout)."""
    cmd = [str(target / "release" / "spinbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--out", str(out)]
    stdout = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(stdout.strip().splitlines()[-1])


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(results, metrics):
    """Print one line per metric, and return True when a run was incorrect."""
    pairs = len(results["base"])
    print(f"{'metric':16} {'base median [q1, q3]':>34} {'tree median [q1, q3]':>34}  better")
    for name, better in metrics:
        sides = {side: [r["metrics"][name]["value"] for r in runs]
                 for side, runs in results.items()
                 if all(name in r["metrics"] for r in runs)}
        if len(sides) < 2:
            continue
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (t - b) > 0 for b, t in zip(sides["base"], sides["tree"]))
        cells = []
        for side in ("base", "tree"):
            q1, q2, q3 = quartiles(sides[side])
            cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}]")
        print(f"{name:16} {cells[0]:>34} {cells[1]:>34}  {wins} of {pairs}")
    incorrect = False
    for side, runs in results.items():
        correct = all(r["correct"] for r in runs)
        incorrect |= not correct
        print(f"{side}: failed {[r['failed'] for r in runs]} of attempted "
              f"{[r['attempted'] for r in runs]}, all correct: {correct}")
    return incorrect


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="revision to compare against")
    ap.add_argument("--workload", required=True, help="spinbench workload")
    ap.add_argument("--pairs", type=int, default=10, help="pairs of runs (default 10)")
    ap.add_argument("--seed", type=int, default=11, help="spinbench seed (default 11)")
    ap.add_argument("--seconds", type=float, default=10, help="--seconds a run (default 10)")
    args = ap.parse_args()

    rev = subprocess.run(["git", "rev-parse", "--verify", args.base + "^{commit}"],
                         cwd=ROOT, check=True, stdout=subprocess.PIPE,
                         text=True).stdout.strip()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    base_src = tmp / "base-src"
    export(rev, base_src)
    targets = {"base": tmp / "base-target", "tree": tmp / "tree-target"}
    lock = LOCK.read_bytes()
    try:
        build(base_src, targets["base"], SPINBENCH)
        build(ROOT, targets["tree"], SPINBENCH)
    finally:
        LOCK.write_bytes(lock)

    results = {"base": [], "tree": []}
    for i in range(args.pairs):
        order = ("base", "tree") if i % 2 == 0 else ("tree", "base")
        for side in order:
            results[side].append(run(targets[side], args.workload, args.seed,
                                     args.seconds, tmp / f"{side}-out"))
        print(f"pair {i + 1} of {args.pairs} done ({order[0]} first)", flush=True)
    print(f"{args.workload}: base {rev[:7]} against the working tree, "
          f"{args.pairs} pairs, seed {args.seed}, --seconds {args.seconds}")
    incorrect = report(results, metrics)
    shutil.rmtree(tmp)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
