#!/usr/bin/env python3
"""The exact-metric gate over the committed benchmark results.

`BENCH_<workload>.json` at the repository root holds the result lines of
`spinbench --workload <w> --seed 11 --seconds 10`, timed (`--trace 0`) and
traced (`--trace 1`). Virtual-clock metrics and `allocs_per_op` are exact
functions of the seed, so a short rerun must reproduce them digit for
digit; anything else means a byte on disk, a charged size, an event order
or an allocation changed, and the change must either explain it and
refresh the files (`--update`) or be fixed.

    scripts/bench_gate.py            # rerun at --seconds 1, compare, exit 1 on drift
    scripts/bench_gate.py --update   # rewrite the BENCH files from --seconds 10 runs

`failover` is reported but never fails the gate: its numbers are medians
over as many scenarios as fit the time budget.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 11
STEADY = ["write-sat", "read-uniform", "mixed-zipf"]
INFORMATIONAL = ["failover"]
EXACT = ["v_ops_per_s", "v_lat_p50_ms", "v_lat_p99_ms", "v_stall_ms", "allocs_per_op"]


def run(workload, seconds, trace):
    """One spinbench run; its result line (the last line of stdout), parsed."""
    cmd = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", "spinbench/Cargo.toml", "--",
           "--workload", workload, "--seed", str(SEED), "--seconds", str(seconds),
           "--trace", str(trace), "--out", "target/bench-gate"]
    out = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload}: run incorrect or operations failed: {result}")
    return result


def bench_file(workload):
    return ROOT / f"BENCH_{workload}.json"


def update():
    for workload in STEADY + INFORMATIONAL:
        doc = {"workload": workload, "seed": SEED, "seconds": 10,
               "timed": run(workload, 10, 0), "traced": run(workload, 10, 1)}
        bench_file(workload).write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {bench_file(workload).name}")


def check():
    drifted = False
    for workload in STEADY + INFORMATIONAL:
        committed = json.loads(bench_file(workload).read_text())["timed"]["metrics"]
        measured = run(workload, 1, 0)["metrics"]
        for name in EXACT:
            want, got = committed[name]["value"], measured[name]["value"]
            gate = workload in STEADY
            verdict = "ok" if want == got else ("DRIFT" if gate else "differs (informational)")
            print(f"{workload:13} {name:14} committed {want!r:>20} measured {got!r:>20}  {verdict}")
            drifted |= gate and want != got
    if drifted:
        sys.exit("exact metrics drifted from the committed BENCH_*.json; "
                 "explain the change and rerun with --update, or fix it")


if __name__ == "__main__":
    update() if sys.argv[1:] == ["--update"] else check()
