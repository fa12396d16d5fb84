//! The `spinbench` command line.
//!
//! ```text
//! spinbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! spinbench --all [--seed <n>] [--seconds <s>] [--smoke] [--out <dir>]
//! spinbench --compare <baseline.jsonl> <candidate.jsonl>
//! ```
//!
//! A single run prints the injected physics, every metric by name and
//! unit, any failed check, and — as the last line of standard output —
//! one JSON object `{correct, attempted, failed, metrics}`. It exits
//! non-zero if an output check failed.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use spinbench::alloc::CountingAlloc;
use spinbench::compare::{compare, result_line, RunSet};
use spinbench::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use spinbench::workloads::{spec, Scale};
use spinbench::{failover, steady, traced};

// Counts every allocation of this process for `allocs_per_op` and
// `process.alloc_bytes_per_op`; only this binary installs it.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: Option<String>,
    all: bool,
    compare: Option<(String, String)>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        compare: None,
        seed: 11,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value("0 or 1")? != "0",
            "--smoke" => args.smoke = true,
            "--all" => args.all = true,
            "--out" => args.out = Some(PathBuf::from(value("a directory")?)),
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn run_one(workload: &str, args: &Args, out: &std::path::Path) -> ExitCode {
    let scale = if args.smoke { Scale::Smoke } else { Scale::Full };
    println!(
        "# spinbench {workload}: seed {}, {} s, {}, {scale:?} scale, one OS thread",
        args.seed,
        args.seconds,
        if args.trace { "traced run (per-layer metrics)" } else { "timed run (tracing off)" },
    );
    let (result, catalogue) = if args.trace {
        (traced::run(workload, args.seed, args.seconds, scale, out), &PER_LAYER[..])
    } else if workload == "failover" {
        (failover::run_timed(args.seed, args.seconds, scale), &END_TO_END[..])
    } else {
        (steady::run_timed(&spec(workload, scale), args.seed, args.seconds, scale), &END_TO_END[..])
    };
    print!("{}", result.table(catalogue));
    for p in &result.problems {
        println!("# CHECK FAILED: {p}");
    }
    match result.to_json(catalogue) {
        Ok(json) => {
            println!("{json}");
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            }
        }
        Err(e) => {
            eprintln!("spinbench: {e}");
            ExitCode::from(3)
        }
    }
}

/// Every workload, timed then traced, each in its own process (so
/// `peak_rss_mb` is per workload); result lines are appended to
/// `<out>/results.jsonl`.
fn run_all(args: &Args, out: &std::path::Path) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("spinbench: cannot find my own executable: {e}");
            return ExitCode::from(3);
        }
    };
    let mut lines = String::new();
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args([
                    "--seconds",
                    &args.seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .arg("--out")
                .arg(out);
            if args.smoke {
                cmd.arg("--smoke");
            }
            // `output` waits for the child to end.
            let output = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("spinbench: cannot run {workload}: {e}");
                    return ExitCode::from(3);
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            ok &= output.status.success();
            if let Some(last) = stdout.lines().last().filter(|l| l.starts_with('{')) {
                lines.push_str(&result_line(workload, args.seed, trace, last));
                lines.push('\n');
            }
        }
    }
    let path = out.join("results.jsonl");
    let appended = std::fs::create_dir_all(out).and_then(|()| {
        use std::io::Write;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?
            .write_all(lines.as_bytes())
    });
    match appended {
        Ok(()) => println!("# results appended to {}", path.display()),
        Err(e) => {
            eprintln!("spinbench: cannot write {}: {e}", path.display());
            return ExitCode::from(3);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn run_compare(a: &str, b: &str) -> ExitCode {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| RunSet::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let (table, regressed) = compare(&a, &b);
            print!("{table}");
            if regressed {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("spinbench: {e}");
            ExitCode::from(3)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spinbench: {e}");
            return ExitCode::from(64);
        }
    };
    let out = args.out.clone().unwrap_or_else(traced::out_dir);
    if let Some((a, b)) = &args.compare {
        return run_compare(a, b);
    }
    if args.all {
        return run_all(&args, &out);
    }
    match args.workload.as_deref() {
        Some(w) if WORKLOADS.iter().any(|(name, _)| *name == w) => run_one(w, &args, &out),
        Some(w) => {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.0).collect();
            eprintln!("spinbench: no workload named {w}; the workloads are {names:?}");
            ExitCode::from(64)
        }
        None => {
            eprintln!("spinbench: give --workload <name>, --all, or --compare <a> <b>");
            ExitCode::from(64)
        }
    }
}
