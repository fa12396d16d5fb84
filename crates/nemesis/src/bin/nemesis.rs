//! Seed-sweep driver for nemesis campaigns.
//!
//! ```text
//! spinnaker-nemesis [--seeds N] [--start-seed S]   # CI: N seeds, exit 1 on failure
//! spinnaker-nemesis --seed X [--shrink]            # replay one seed
//! spinnaker-nemesis --soak [--start-seed S]        # unbounded local soak
//! spinnaker-nemesis --artifact-dir DIR ...         # dump failing histories
//! spinnaker-nemesis --history-crc [--seeds N] [--start-seed S]
//! ```
//!
//! Every failure prints the seed; the seed alone reproduces the run.
//! `--history-crc` prints `seed <n> crc32c <hex>` per seed instead, the
//! checksum of the seed's serialized history, and sweeps on past a
//! failure: two builds ran the same histories exactly when the two
//! outputs `diff` equal.

use std::process::ExitCode;

use spinnaker_core::DissolveCoverage;
use spinnaker_nemesis::{campaign, schedule, shrink, RunReport};

struct Args {
    seeds: u64,
    start_seed: u64,
    one_seed: Option<u64>,
    soak: bool,
    shrink: bool,
    artifact_dir: Option<String>,
    history_crc: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 20,
        start_seed: 1,
        one_seed: None,
        soak: false,
        shrink: false,
        artifact_dir: None,
        history_crc: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--seeds" => args.seeds = value("--seeds")?.parse().map_err(|e| format!("{e}"))?,
            "--start-seed" => {
                args.start_seed = value("--start-seed")?.parse().map_err(|e| format!("{e}"))?
            }
            "--seed" => args.one_seed = Some(value("--seed")?.parse().map_err(|e| format!("{e}"))?),
            "--soak" => args.soak = true,
            "--shrink" => args.shrink = true,
            "--artifact-dir" => args.artifact_dir = Some(value("--artifact-dir")?),
            "--history-crc" => args.history_crc = true,
            "--help" | "-h" => {
                println!(
                    "usage: spinnaker-nemesis [--seeds N] [--start-seed S] [--seed X] \
                     [--soak] [--shrink] [--artifact-dir DIR] [--history-crc]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn report_failure(report: &RunReport, args: &Args) {
    println!("FAIL seed={}", report.seed);
    if report.stalled {
        println!(
            "  stalled: {}/{} ops completed after heal + drain (ranges_led={})",
            report.ops_completed, report.ops_issued, report.ranges_led
        );
        for line in &report.health {
            println!("    {line}");
        }
        use spinnaker_common::HEventKind;
        use std::collections::BTreeMap;
        let mut open: BTreeMap<(u32, u32), String> = BTreeMap::new();
        for e in &report.history.events {
            match &e.kind {
                HEventKind::Invoke(op) => {
                    open.insert((e.client, e.op), format!("@{} {op:?}", e.at));
                }
                HEventKind::Ok(_) | HEventKind::Fail(_) => {
                    open.remove(&(e.client, e.op));
                }
                HEventKind::Retry => {}
            }
        }
        for ((client, op), line) in open {
            println!("    open c{client}#{op} {line}");
        }
    }
    for v in &report.violations {
        println!("  violation [{}] {}", v.kind, v.detail);
        for line in &v.subhistory {
            println!("    | {line}");
        }
    }
    if let Some(dir) = &args.artifact_dir {
        let _ = std::fs::create_dir_all(dir);
        let path = format!("{dir}/seed-{}.history", report.seed);
        match std::fs::write(&path, report.history.serialize()) {
            Ok(()) => println!("  history written to {path}"),
            Err(e) => println!("  could not write {path}: {e}"),
        }
    }
    println!("  reproduce with: spinnaker-nemesis --seed {} --shrink", report.seed);
}

fn run_one(seed: u64, args: &Args, dissolves: &mut DissolveCoverage) -> bool {
    let report = campaign::run_seed(seed);
    dissolves.add(&report.dissolves);
    if report.failed() {
        report_failure(&report, args);
        if args.shrink {
            let cfg = campaign::CampaignConfig::from_seed(seed);
            let full = schedule::generate(seed, cfg.nodes, cfg.warmup, cfg.warmup + cfg.duration);
            match shrink::shrink(seed, &cfg, &full, 200) {
                Some(shrunk) => {
                    println!(
                        "  shrunk to {} fault events (from {}) in {} runs:",
                        shrunk.schedule.events.len(),
                        full.events.len(),
                        shrunk.runs
                    );
                    for line in shrunk.schedule.describe() {
                        println!("    {line}");
                    }
                }
                None => println!("  shrink: failure did not reproduce on re-run"),
            }
        }
        false
    } else {
        println!(
            "ok   seed={seed} ops={}/{} faults={} history_events={}",
            report.ops_completed,
            report.ops_issued,
            report.faults_applied,
            report.history.events.len()
        );
        true
    }
}

/// The `--history-crc` sweep: one checksum line per seed, failing or
/// not, then the failing seeds.
fn print_history_crcs(args: &Args) -> ExitCode {
    let mut failing = Vec::new();
    for seed in args.start_seed..args.start_seed + args.seeds {
        let report = campaign::run_seed(seed);
        let crc = spinnaker_common::crc32c::crc32c(report.history.serialize().as_bytes());
        println!("seed {seed} crc32c {crc:08x}");
        if report.failed() {
            failing.push(seed.to_string());
        }
    }
    println!("failing seeds: [{}]", failing.join(" "));
    if failing.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.history_crc {
        return print_history_crcs(&args);
    }

    // Successors built per dissolve entry point / claim over the sweep, as
    // `Entry/Claim n`: what the reshard paths saw.
    let mut dissolves = DissolveCoverage::default();
    if let Some(seed) = args.one_seed {
        let ok = run_one(seed, &args, &mut dissolves);
        println!("dissolve coverage: {dissolves}");
        return if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let mut seed = args.start_seed;
    let mut failures = 0u64;
    let mut ran = 0u64;
    loop {
        if !args.soak && ran >= args.seeds {
            break;
        }
        if !run_one(seed, &args, &mut dissolves) {
            failures += 1;
            if !args.soak {
                break;
            }
        }
        seed += 1;
        ran += 1;
    }
    println!("{ran} seed(s) run, {failures} failure(s)");
    println!("dissolve coverage: {dissolves}");
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
