#!/usr/bin/env python3
"""The exact-metric gate over the committed benchmark results.

`BENCH_<workload>.json` at the repository root holds the result lines of
`spinbench --workload <w> --seed 11 --seconds 10`, timed (`--trace 0`) and
traced (`--trace 1`). Virtual-clock metrics and `allocs_per_op` are exact
functions of the seed, so a short rerun must reproduce them digit for
digit; anything else means a byte on disk, a charged size, an event order
or an allocation changed, and the change must either explain it and
refresh the files (`--update`) or be fixed.

    scripts/bench_gate.py                    # rerun at --seconds 1, compare, exit 1 on drift
    scripts/bench_gate.py --update           # rewrite the BENCH files from --seconds 10 runs
    scripts/bench_gate.py --update failover  # ... only the named ones

The steady workloads are rerun a second time with `--trace 1`, and the
per-layer metrics that are counts (or ratios of counts) must equal the
committed `traced` object just as exactly: compactions run, bytes they
moved, block reads, cache hits, bloom verdicts, messages, forces. A
storage or protocol refactor that "moves no counter" is checked here, not
taken on trust. The wall-clock readings of a traced run (`*_ns`, `*_ms`,
GB/s, process shares) differ from run to run and are not compared.

`failover` reports medians over as many scenarios as fit its time budget,
so its ten-second `timed` / `traced` objects are a record, not a gate: a
faster machine fits more scenarios and reads other medians. It is gated
at a fixed scenario count instead. `--seconds 0.01` always runs the
minimum (three scenarios timed, two traced), and at equal count the
virtual metrics and `allocs_per_op` repeat to the digit; the file's
`gate` object holds that run's five end-to-end metrics and the three
`core.recovery.*` readings (virtual milliseconds and a count), and the
check reruns it and compares.

Building spinbench rewrites its stale `spinbench/Cargo.lock`, a file
that must stay as committed; the gate puts the lock's bytes back when it
is done, whether the runs passed, drifted or failed.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
LOCK = ROOT / "spinbench" / "Cargo.lock"
SEED = 11
STEADY = ["write-sat", "read-uniform", "mixed-zipf"]
FAILOVER = "failover"
# The budget that fits no scenario: spinbench then runs its minimum count.
FAILOVER_GATE_SECONDS = 0.01
RECOVERY = ["core.recovery.takeover_ms", "core.recovery.catchup_ms",
            "core.recovery.leader_changes"]
EXACT = ["v_ops_per_s", "v_lat_p50_ms", "v_lat_p99_ms", "v_stall_ms", "allocs_per_op"]
# The per-layer metrics of a `--trace 1` run that do not read a wall clock:
# exactly the names whose one-second rerun reproduced the committed
# ten-second value on all three steady workloads when this check was added
# (37 of the 62; the other 25 are ns / ms / GB/s / process-share readings),
# less the three `core.recovery.*`: a steady workload's traced run takes
# them from one failover scenario it runs as a probe, so they say nothing
# about that workload, and they are compared where they are the subject —
# in `failover`'s fixed-count gate.
EXACT_TRACED = [
    "sim.kernel.events_per_op", "sim.net.msgs_per_op",
    "sim.disk.syncs_per_op", "sim.disk.reqs_per_sync",
    "core.client.put_ops_per_s", "core.client.get_ops_per_s",
    "core.client.cond_ops_per_s", "core.client.scan_ops_per_s",
    "core.client.retries_per_kop", "core.client.ring_refreshes",
    "core.client.cond_mismatch_share", "core.node.follower_page_share",
    "core.node.allocs_per_put", "wal.bytes_per_op", "wal.segments_end",
    "storage.store.point_gets", "storage.store.compactions",
    "storage.store.compacted_bytes_per_user_byte", "storage.store.space_amp",
    "storage.store.levels", "storage.store.l0_tables_max",
    "storage.store.span_skips_per_get", "storage.bloom.negatives_per_get",
    "storage.bloom.fp_share", "storage.cache.hit_share",
    "storage.sstable.block_reads_per_get", "common.codec.allocs_per_decode",
    "common.vfs.wal_syncs_per_op", "common.vfs.sst_read_bytes_per_get",
    "common.vfs.sst_write_bytes_per_user_byte", "process.alloc_bytes_per_op",
    "process.window_ops", "process.window_samples", "process.direct_host_ops",
]


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


def values(result, names):
    return {name: result["metrics"][name]["value"] for name in names}


def failover_gate():
    """The fixed-count failover run: the values the gate compares."""
    return {"seconds": FAILOVER_GATE_SECONDS,
            **values(run(FAILOVER, FAILOVER_GATE_SECONDS, 0), EXACT),
            **values(run(FAILOVER, FAILOVER_GATE_SECONDS, 1), RECOVERY)}


def update(workloads):
    for workload in workloads or STEADY + [FAILOVER]:
        doc = {"workload": workload, "seed": SEED, "seconds": 10,
               "timed": run(workload, 10, 0), "traced": run(workload, 10, 1)}
        if workload == FAILOVER:
            doc["gate"] = failover_gate()
        bench_file(workload).write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {bench_file(workload).name}")


def compare(workload, committed, measured, names):
    """Print one line per metric; True when any differs."""
    for name in names:
        verdict = "ok" if committed[name] == measured[name] else "DRIFT"
        print(f"{workload:13} {name:29} committed {committed[name]!r:>20} "
              f"measured {measured[name]!r:>20}  {verdict}")
    return any(committed[name] != measured[name] for name in names)


def check():
    drifted = False
    for workload in STEADY:
        committed = values(json.loads(bench_file(workload).read_text())["timed"], EXACT)
        drifted |= compare(workload, committed, values(run(workload, 1, 0), EXACT), EXACT)
    committed = json.loads(bench_file(FAILOVER).read_text())["gate"]
    drifted |= compare(FAILOVER, committed, failover_gate(), EXACT + RECOVERY)
    for workload in STEADY:
        committed = json.loads(bench_file(workload).read_text())["traced"]["metrics"]
        measured = run(workload, 1, 1)["metrics"]
        moved = [n for n in EXACT_TRACED if committed[n]["value"] != measured[n]["value"]]
        for name in moved:
            print(f"{workload:13} {name} committed {committed[name]['value']!r} "
                  f"measured {measured[name]['value']!r}  DRIFT")
        print(f"{workload:13} traced counters: {len(EXACT_TRACED) - len(moved)} of "
              f"{len(EXACT_TRACED)} equal the committed values")
        drifted |= bool(moved)
    if drifted:
        sys.exit("exact metrics drifted from the committed BENCH_*.json; "
                 "explain the change and rerun with --update, or fix it")


if __name__ == "__main__":
    lock = LOCK.read_bytes()
    try:
        if sys.argv[1:2] == ["--update"]:
            update(sys.argv[2:])
        else:
            check()
    finally:
        LOCK.write_bytes(lock)
