#!/usr/bin/env python3
"""Where a spinbench workload's allocations come from, by call site.

    scripts/alloc_sites.py --workload read-uniform [--seed 11] [--seconds 2] [--depth 3]
    scripts/alloc_sites.py --workload write-sat mixed-zipf    # several, one build
    scripts/alloc_sites.py --workload mixed-zipf --under merge_into flush
    scripts/alloc_sites.py --workload failover --base HEAD~1    # beside a base revision

`allocs_per_op` says how many allocator calls an operation costs; this
says which code makes them. It copies the repository (without `target/`
and `.git/`) to a temporary directory, gives the copy's counting
allocator (`spinbench/src/alloc.rs`) a sampler, builds the copy with
debug info into its own target directory, runs each workload timed
(`--trace 0`), and prints one line per call site:

    share   allocs/op   site

A site is the first `--depth` frames of a sampled allocation's stack,
innermost first, once the allocator's own frames (`std::`, `core::`,
`alloc::`, `__rust*`, `spinbench::alloc`) are skipped. `allocs/op` is the
share times the run's `allocs_per_op`. With `--under FRAME...` the
sampler keeps whole stacks, and after the table the script prints, per
FRAME, the share and allocations per op of the samples with a frame
whose name contains FRAME anywhere on the stack: everything a function
allocates, with all it calls (`--under merge_into` is what compaction's
merge costs per op). The sampler takes a stack on a
random 1 in 128 of the allocations made inside `Meter::run` (random gaps,
not every 128th call: an operation's allocations repeat with a period and
would alias), and it does not count the allocations it makes itself, so
the `allocs_per_op` the patched run prints is the unsampled count; for a
steady workload at the committed seed the script notes when it differs
from `BENCH_<workload>.json` (it does when the tree is not the one the
file was made from). Nothing in the repository is
modified. A build takes a few minutes; `--seconds 2` of `write-sat`
gives about 30 k samples.

With `--base <rev>` the script also exports `<rev>` (`git archive`, as
`same_behaviour.py` does), instruments and builds it the same way, runs
each workload on both sides, and prints per site the base's and the
tree's allocations per op and the change, largest change first: where an
allocation cut sits, and that nothing else moved. Sites under the share
threshold on both sides are summed into one line; `--under` is not
compared. Both sides are sampled, so a site's two readings differ by
sampling noise (a site of 0.05 allocations per op is about 1 % of the
samples) even where the code did not change.
"""

import argparse
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

from same_behaviour import export

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ["write-sat", "read-uniform", "mixed-zipf", "failover"]
# Sites with a smaller share are summed into one line.
MIN_SHARE = 0.005

# Appended to the copy's `spinbench/src/alloc.rs`. `DEPTH` is filled in.
SAMPLER = r"""
/// Allocation-site sampler (added by `scripts/alloc_sites.py`).
pub mod sampler {
    use std::backtrace::Backtrace;
    use std::cell::Cell;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// How many `Meter::run`s are on the stack.
    pub static ACTIVE: AtomicUsize = AtomicUsize::new(0);
    static SAMPLES: Mutex<Vec<Backtrace>> = Mutex::new(Vec::new());
    const DEPTH: usize = @DEPTH@;

    thread_local! {
        /// Set while the sampler runs: its own allocations are neither
        /// counted nor sampled.
        static BUSY: Cell<bool> = const { Cell::new(false) };
        static RNG: Cell<u64> = const { Cell::new(0x9e37_79b9_7f4a_7c15) };
    }

    /// Whether the sampler is running on this thread.
    pub fn busy() -> bool {
        BUSY.with(Cell::get)
    }

    /// Called for every counted allocation.
    pub fn maybe_sample() {
        if ACTIVE.load(Ordering::Relaxed) == 0 {
            return;
        }
        let draw = RNG.with(|r| {
            let mut x = r.get();
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            r.set(x);
            x >> 57
        });
        if draw != 0 {
            return;
        }
        BUSY.with(|b| b.set(true));
        let bt = Backtrace::force_capture();
        SAMPLES.lock().unwrap().push(bt);
        BUSY.with(|b| b.set(false));
    }

    fn skipped(frame: &str) -> bool {
        let name = frame.trim_start_matches('<');
        ["std::", "core::", "alloc::", "__rust", "spinbench::alloc"]
            .iter()
            .any(|p| name.starts_with(p))
    }

    /// Print `# site <count> <frame> <- <frame> ...` per site, then
    /// `# samples <n>`.
    pub fn report() {
        BUSY.with(|b| b.set(true));
        let samples = std::mem::take(&mut *SAMPLES.lock().unwrap());
        let mut sites: BTreeMap<String, usize> = BTreeMap::new();
        for bt in &samples {
            let text = format!("{bt}");
            let frames: Vec<&str> = text
                .lines()
                .filter_map(|l| l.trim_start().split_once(": "))
                .filter(|(n, _)| n.chars().all(|c| c.is_ascii_digit()))
                .map(|(_, f)| f)
                .filter(|f| !skipped(f))
                .take(DEPTH)
                .collect();
            *sites.entry(frames.join(" <- ")).or_default() += 1;
        }
        for (site, n) in &sites {
            println!("# site {n} {site}");
        }
        println!("# samples {}", samples.len());
        BUSY.with(|b| b.set(false));
    }
}
"""


def patch(path, old, new, count):
    text = path.read_text()
    if text.count(old) != count:
        sys.exit(f"{path}: expected {count} of {old!r}; the sampler needs updating")
    path.write_text(text.replace(old, new))


def instrument(copy, depth):
    """Give the copy's spinbench the sampler and a release build with debug info."""
    src = copy / "spinbench" / "src"
    alloc = src / "alloc.rs"
    for sig, call in [("unsafe fn alloc(&self, layout: Layout) -> *mut u8 {",
                       "System.alloc(layout)"),
                      ("unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {",
                       "System.alloc_zeroed(layout)"),
                      ("unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize)"
                       " -> *mut u8 {", "System.realloc(ptr, layout, new_size)")]:
        patch(alloc, sig, sig + f"""
        if sampler::busy() {{
            return unsafe {{ {call} }};
        }}
        sampler::maybe_sample();""", 1)
    patch(alloc, "        let out = f();\n",
          "        sampler::ACTIVE.fetch_add(1, Ordering::Relaxed);\n"
          "        let out = f();\n"
          "        sampler::ACTIVE.fetch_sub(1, Ordering::Relaxed);\n", 1)
    alloc.write_text(alloc.read_text() + SAMPLER.replace("@DEPTH@", str(depth)))
    patch(src / "main.rs", "    print!(\"{}\", result.table(catalogue));\n",
          "    spinbench::alloc::sampler::report();\n"
          "    print!(\"{}\", result.table(catalogue));\n", 1)
    manifest = copy / "spinbench" / "Cargo.toml"
    if "[profile.release]" in manifest.read_text():
        sys.exit(f"{manifest} has a [profile.release] already; the sampler needs updating")
    manifest.write_text(manifest.read_text() + "\n[profile.release]\ndebug = true\n")


def committed_allocs(workload, seed):
    """`allocs_per_op` of the committed timed run, when it is at `seed`
    and, like a steady workload's, does not depend on the run's length."""
    path = ROOT / f"BENCH_{workload}.json"
    if workload == "failover" or not path.exists():
        return None
    doc = json.loads(path.read_text())
    if doc["seed"] != seed:
        return None
    return doc["timed"]["metrics"]["allocs_per_op"]["value"]


def sample(exe, workload, seed, seconds):
    """Run `workload` on the instrumented `exe`; its `allocs_per_op` and
    sampled stacks, as (count, frames) pairs."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload}: run incorrect or operations failed")
    per_op = result["metrics"]["allocs_per_op"]["value"]
    stacks = []
    for line in lines:
        if line.startswith("# site "):
            n, site = line[len("# site "):].split(" ", 1)
            stacks.append((int(n), site.split(" <- ") if site else []))
    return per_op, stacks


def by_site(stacks, depth):
    """Samples per site: the first `depth` frames of a stack (the sampler
    kept whole ones when `--under` is given)."""
    out = {}
    for n, frames in stacks:
        site = " <- ".join(frames[:depth])
        out[site] = out.get(site, 0) + n
    return out


def sites(exe, workload, seed, seconds, depth, under):
    per_op, stacks = sample(exe, workload, seed, seconds)
    counts = [(n, site) for site, n in by_site(stacks, depth).items()]
    total = sum(n for n, _ in counts)
    print(f"== {workload}: seed {seed}, {seconds} s, allocs_per_op {per_op}, "
          f"{total} samples")
    expected = committed_allocs(workload, seed)
    if expected is not None and expected != per_op:
        print(f"   (committed BENCH_{workload}.json reads {expected}: the tree differs)")
    print(f"{'share':>7} {'allocs/op':>9}  site")
    rest = 0
    for n, site in sorted(counts, key=lambda c: (-c[0], c[1])):
        if n < total * MIN_SHARE:
            rest += n
            continue
        print(f"{100 * n / total:6.1f}% {n / total * per_op:9.3f}  {site or '(no frame left)'}")
    if rest:
        print(f"{100 * rest / total:6.1f}% {rest / total * per_op:9.3f}  "
              f"(sites under {100 * MIN_SHARE:g} % each)")
    for frame in under:
        n = sum(n for n, frames in stacks if any(frame in f for f in frames))
        print(f"{100 * n / max(total, 1):6.1f}% {n / max(total, 1) * per_op:9.3f}  "
              f"under {frame}")


def compare(exes, workload, seed, seconds, depth):
    """Print each site's allocations per op on the base and on the tree."""
    sides = []
    for side in ("base", "tree"):
        per_op, stacks = sample(exes[side], workload, seed, seconds)
        counts = by_site(stacks, depth)
        sides.append((per_op, max(sum(counts.values()), 1), counts))
    (base_op, base_n, base), (tree_op, tree_n, tree) = sides
    print(f"== {workload}: seed {seed}, {seconds} s, allocs_per_op {base_op:.4f} -> "
          f"{tree_op:.4f} ({tree_op - base_op:+.4f}); {base_n} and {tree_n} samples")
    print(f"{'base/op':>9} {'tree/op':>9} {'change':>9}  site")
    rows, rest = [], [0.0, 0.0]
    for site in base.keys() | tree.keys():
        shares = (base.get(site, 0) / base_n, tree.get(site, 0) / tree_n)
        a, b = shares[0] * base_op, shares[1] * tree_op
        if max(shares) < MIN_SHARE:
            rest = [rest[0] + a, rest[1] + b]
        else:
            rows.append((a, b, site))
    for a, b, site in sorted(rows, key=lambda r: (-abs(r[1] - r[0]), r[2])):
        print(f"{a:9.3f} {b:9.3f} {b - a:+9.3f}  {site or '(no frame left)'}")
    if any(rest):
        print(f"{rest[0]:9.3f} {rest[1]:9.3f} {rest[1] - rest[0]:+9.3f}  "
              f"(sites under {100 * MIN_SHARE:g} % each on both sides)")


def build_copy(src, target):
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                    "--manifest-path", str(src / "spinbench" / "Cargo.toml"),
                    "--target-dir", str(target)], check=True)
    return target / "release" / "spinbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="+", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=2)
    ap.add_argument("--depth", type=int, default=3)
    ap.add_argument("--under", nargs="+", default=[], metavar="FRAME",
                    help="also print the allocations per op under each FRAME "
                         "(a substring of a frame's name), from whole stacks")
    ap.add_argument("--base", metavar="REV",
                    help="also sample REV and print both sides' allocations per op per site")
    args = ap.parse_args()
    if args.base and args.under:
        sys.exit("--under is not compared with --base")
    # Whole stacks when a frame is to be looked for anywhere on them.
    kept = 1 << 16 if args.under else args.depth
    with tempfile.TemporaryDirectory(prefix="alloc-sites-") as tmp:
        tmp = pathlib.Path(tmp)
        copy = tmp / "tree"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns("target", ".git"))
        instrument(copy, kept)
        exes = {"tree": build_copy(copy, tmp / "target")}
        if args.base:
            export(args.base, tmp / "base")
            instrument(tmp / "base", kept)
            exes["base"] = build_copy(tmp / "base", tmp / "base-target")
        for workload in args.workload:
            if args.base:
                compare(exes, workload, args.seed, args.seconds, args.depth)
            else:
                sites(exes["tree"], workload, args.seed, args.seconds, args.depth, args.under)


if __name__ == "__main__":
    main()
