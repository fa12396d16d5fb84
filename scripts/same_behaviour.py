#!/usr/bin/env python3
"""Show that the working tree behaves exactly as a base revision does.

    scripts/same_behaviour.py --base <rev> [--seeds 246] [--start-seed 1]

Every figure and every nemesis history is a pure function of the code and
its seeds, so a change that claims "no behaviour change" must reproduce
them byte for byte. The script exports `<rev>` with `git archive` into a
temporary directory (no worktree, nothing written in the repository),
builds the export and the working tree into separate target directories,
and runs on each side:

- `SPINNAKER_QUICK=1 figs` — every figure and table — in a directory of
  its own, so the CSVs land in that directory's `target/experiments/`;
- `spinnaker-nemesis --history-crc --start-seed S --seeds N`, which prints
  the CRC-32C of every seed's serialized history and the failing seeds.

It prints `identical` and exits 0. Otherwise it names every CSV that
differs, with how many of its lines differ, and, when the nemesis outputs
differ, how many seeds' history CRCs differ, which seeds, and both sides'
`failing seeds:` lines; it keeps the temporary directory for inspection
and exits 1.
The two sides run at the same time, one process each; at 246 seeds that
takes about ten minutes on two cores, builds included. A base older than
the `--history-crc` flag gets the working tree's nemesis command-line
front end (`crates/nemesis/src/bin/nemesis.rs`) copied into its export.
"""

import argparse
import concurrent.futures
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
NEMESIS_BIN = pathlib.Path("crates/nemesis/src/bin/nemesis.rs")


def export(rev, dest):
    """Unpack `rev`'s tree into `dest`."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    if "--history-crc" not in (dest / NEMESIS_BIN).read_text():
        shutil.copyfile(ROOT / NEMESIS_BIN, dest / NEMESIS_BIN)


def build(src, target, what=("-p", "spinnaker-bench", "-p", "spinnaker-nemesis")):
    """Release-build `what` (cargo arguments; by default the figure runner
    and the nemesis) of the tree at `src` into the target directory
    `target`."""
    print(f"building {src} into {target}", flush=True)
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", *what],
                   cwd=src, env={**os.environ, "CARGO_TARGET_DIR": str(target)},
                   check=True)


def run_side(target, work, start_seed, seeds):
    """Run the figures and the nemesis sweep with `work` as the working
    directory; return the nemesis output lines and exit status."""
    work.mkdir()
    release = target / "release"
    with open(work / "figs.log", "w") as log:
        subprocess.run([str(release / "figs")], cwd=work, check=True, stdout=log,
                       stderr=subprocess.STDOUT,
                       env={**os.environ, "SPINNAKER_QUICK": "1"})
    nemesis = subprocess.run(
        [str(release / "spinnaker-nemesis"), "--history-crc",
         "--start-seed", str(start_seed), "--seeds", str(seeds)],
        cwd=work, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    (work / "nemesis.txt").write_text(nemesis.stdout)
    return nemesis.stdout.splitlines(), nemesis.returncode


def csv_differences(base_dir, tree_dir):
    """One line per CSV that differs: its name and how many of its lines
    differ (a line present on one side only counts), or which side lacks
    it."""
    names = sorted({p.name for d in (base_dir, tree_dir) for p in d.glob("*.csv")})
    if not names:
        return ["no CSV written"]
    out = []
    for name in names:
        a, b = base_dir / name, tree_dir / name
        if not a.exists() or not b.exists():
            out.append(f"{name} (only in {'tree' if b.exists() else 'base'})")
        elif a.read_bytes() != b.read_bytes():
            la, lb = a.read_bytes().splitlines(), b.read_bytes().splitlines()
            differing = sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))
            out.append(f"{name} ({differing} of {max(len(la), len(lb))} lines differ)")
    return out


def crcs(lines):
    """Map each seed to its history CRC, from `seed <n> crc32c <hex>` lines."""
    out = {}
    for line in lines:
        words = line.split()
        if len(words) == 4 and words[0] == "seed" and words[2] == "crc32c":
            out[int(words[1])] = words[3]
    return out


def failing_line(lines):
    return next((l for l in reversed(lines) if l.startswith("failing seeds:")),
                "no `failing seeds:` line")


def nemesis_difference(base, tree):
    """Describe how two `--history-crc` outputs differ, or return None."""
    (base_lines, base_status), (tree_lines, tree_status) = base, tree
    if base_lines == tree_lines and base_status == tree_status:
        return None
    a, b = crcs(base_lines), crcs(tree_lines)
    seeds = sorted(s for s in a.keys() | b.keys() if a.get(s) != b.get(s))
    return (f"{len(seeds)} seeds' history CRCs differ: {' '.join(map(str, seeds))}\n"
            f"  base (exit {base_status}): {failing_line(base_lines)}\n"
            f"  tree (exit {tree_status}): {failing_line(tree_lines)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="revision to compare against")
    ap.add_argument("--seeds", type=int, default=246, help="nemesis seeds (default 246)")
    ap.add_argument("--start-seed", type=int, default=1, help="first nemesis seed (default 1)")
    args = ap.parse_args()

    rev = subprocess.run(["git", "rev-parse", "--verify", args.base + "^{commit}"],
                         cwd=ROOT, check=True, stdout=subprocess.PIPE,
                         text=True).stdout.strip()
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="same-behaviour-"))
    base_src = tmp / "base-src"
    export(rev, base_src)
    sides = {"base": (base_src, tmp / "base-target"), "tree": (ROOT, tmp / "tree-target")}
    for src, target in sides.values():
        build(src, target)

    print(f"running figs and {args.seeds} nemesis seeds on both sides", flush=True)
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        futures = {name: pool.submit(run_side, target, tmp / f"{name}-run",
                                     args.start_seed, args.seeds)
                   for name, (_, target) in sides.items()}
        results = {name: f.result() for name, f in futures.items()}

    experiments = [tmp / f"{name}-run" / "target" / "experiments" for name in sides]
    csv_diff = csv_differences(*experiments)
    nemesis_diff = nemesis_difference(results["base"], results["tree"])
    for line in csv_diff:
        print(f"differs: {line}")
    if nemesis_diff:
        print(f"differs: nemesis, {nemesis_diff}")
    if csv_diff or nemesis_diff:
        print(f"outputs kept in {tmp}")
        return 1
    csvs = len(list(experiments[0].glob("*.csv")))
    shutil.rmtree(tmp)
    tree_lines = results["tree"][0]
    last = tree_lines[-1] if tree_lines else "no output"
    print(f"identical: {csvs} CSVs, {len(tree_lines)} nemesis lines "
          f"(base {rev[:7]}, seeds {args.start_seed}..{args.start_seed + args.seeds - 1}; "
          f"last line: {last})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
