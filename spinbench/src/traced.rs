//! The traced run: every per-layer metric of one workload.
//!
//! Source **C** values are public counters read off the same simulated
//! run the timed mode measures (tracing inside the crates does not
//! exist, so that run is itself untraced). Source **P** values come from
//! the benchmark's own instrumentation: the direct host's spans, the
//! layer probes, and one failover scenario as the recovery probe.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use spinnaker_common::Key;
use spinnaker_core::node::NodeConfig;
use spinnaker_core::session::SessionCall;

use crate::counters::ratio;
use crate::direct_host::{self, Script};
use crate::gen::{sub_seed, value_of, OpGen, Role};
use crate::metrics::{RunResult, Values};
use crate::workloads::{cluster_for, physics_line, spec, Scale, Spec};
use crate::{failover, probes, steady};

/// Sizes of the direct-host script and the probe input.
struct Sizes {
    keys: u64,
    load_b8: usize,
    load_b1: usize,
    mix_ops: usize,
    gets: usize,
    scans: usize,
    probe_ops: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            keys: 8_000,
            load_b8: 8_000,
            load_b1: 2_000,
            mix_ops: 8_000,
            gets: 2_000,
            scans: 100,
            probe_ops: 20_000,
        },
        Scale::Smoke => Sizes {
            keys: 400,
            load_b8: 400,
            load_b1: 100,
            mix_ops: 300,
            gets: 100,
            scans: 10,
            probe_ops: 800,
        },
    }
}

/// The generators a traced run replays: the stream that loads the store
/// and the measured fleet's stream, over a scaled-down key space.
struct Streams {
    node: NodeConfig,
    value_size: usize,
    seed: u64,
    /// The steady workload over the small key space; `None` = `failover`.
    small: Option<Spec>,
}

fn streams(workload: &str, seed: u64, keys: u64) -> Streams {
    if workload == "failover" {
        let node = failover::cluster_config(seed).node;
        return Streams { node, value_size: 1024, seed, small: None };
    }
    let small = Spec { keys, ..spec(workload, Scale::Full) };
    Streams {
        node: cluster_for(workload, seed).node,
        value_size: small.value_size,
        seed,
        small: Some(small),
    }
}

impl Streams {
    /// The measured fleet's generators (`failover`: its eight writers).
    fn mix(&self) -> Vec<OpGen> {
        match &self.small {
            Some(small) => small.generators(self.seed).into_iter().map(|(g, _)| g).collect(),
            None => (0..8u64)
                .map(|i| {
                    let s = sub_seed(self.seed, 2000 + i);
                    OpGen::new(Role::RangeZeroWrites, s, 4096, value_of(1024), None)
                })
                .collect(),
        }
    }

    /// The generators that fill the store: the preload where the
    /// workload has one, else the fleet itself.
    fn load(&self) -> Vec<OpGen> {
        match &self.small {
            Some(small) if small.preload => small.preload_generators(1),
            _ => self.mix(),
        }
    }
}

fn script(s: &Streams, z: &Sizes, seed: u64) -> Script {
    Script {
        node: s.node.clone(),
        value_size: s.value_size,
        load_b8: s.load(),
        load_b8_ops: z.load_b8,
        load_b1: s.load(),
        load_b1_ops: z.load_b1,
        mix: s.mix(),
        mix_ops: z.mix_ops,
        gets: z.gets,
        scans: z.scans,
        seed: sub_seed(seed, 0xd1ec),
    }
}

/// Keys put by the load stream and keys the fleet touches (all of which
/// the load stream, or the fleet itself, writes).
fn probe_input(s: &Streams, z: &Sizes) -> probes::Input {
    let key_of = |call: &SessionCall| -> Option<Key> {
        match call {
            SessionCall::Put { key, .. }
            | SessionCall::Get { key, .. }
            | SessionCall::ConditionalPut { key, .. }
            | SessionCall::Delete { key, .. }
            | SessionCall::ConditionalDelete { key, .. } => Some(key.clone()),
            SessionCall::Scan { start, .. } => Some(start.clone()),
        }
    };
    let drain = |mut gens: Vec<OpGen>, n: usize| -> Vec<Key> {
        let mut out = Vec::with_capacity(n);
        let mut dry = 0;
        let mut turn = 0;
        while out.len() < n && dry < gens.len() {
            let g = turn % gens.len();
            turn += 1;
            match gens[g].next_op() {
                Some(op) => {
                    dry = 0;
                    out.extend(key_of(&op.call));
                }
                None => dry += 1,
            }
        }
        out
    };
    let mut puts = drain(s.load(), z.probe_ops);
    let reads = drain(s.mix(), z.probe_ops);
    // A write-only fleet reads nothing it did not write; a preloaded
    // one reads only preloaded keys. Either way make sure of it.
    let written: std::collections::BTreeSet<&Key> = puts.iter().collect();
    let missing: Vec<Key> = reads.iter().filter(|k| !written.contains(k)).cloned().collect();
    puts.extend(missing);
    probes::Input { puts, reads, value: value_of(s.value_size), node: s.node.clone() }
}

/// `<target dir>/spinbench-out`, next to the running executable's
/// profile directory; `spinbench-out` under the current directory when
/// the executable's path is unknown.
pub fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("spinbench-out")))
        .unwrap_or_else(|| PathBuf::from("spinbench-out"))
}

fn write_trace(dir: &Path, workload: &str, json: &str) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// The source-P values every workload shares: direct host (traced and
/// untraced), layer probes. Writes the trace file into `out`.
fn instrumented(
    workload: &str,
    seed: u64,
    scale: Scale,
    out: &Path,
    problems: &mut Vec<String>,
) -> Values {
    let z = sizes(scale);
    let s = streams(workload, seed, z.keys);
    let mut v = Values::new();
    match (
        direct_host::pass(script(&s, &z, seed), true),
        direct_host::pass(script(&s, &z, seed), false),
    ) {
        (Ok(traced), Ok(untraced)) => {
            if traced.bad + untraced.bad > 0 {
                problems.push(format!("direct host: {} wrong outcomes", traced.bad + untraced.bad));
            }
            if traced.done != untraced.done {
                problems.push("direct host: traced and untraced passes differ".into());
            }
            v.extend(direct_host::values(&traced, &untraced, s.value_size));
            let share = v["process.trace_self_sum_share"];
            if (share - 1.0).abs() > 0.05 {
                problems.push(format!("span self times sum to {share:.3} of the host's wall time"));
            }
            match write_trace(out, workload, &traced.tracer.chrome_json()) {
                Ok(path) => println!(
                    "# trace: {} ({} spans, {} kinds)",
                    path.display(),
                    traced.tracer.spans().len(),
                    traced.all.len()
                ),
                Err(e) => problems.push(e),
            }
            for (kind, t) in &traced.all {
                println!(
                    "#   span {kind:<14} n={:<8} self {:>10.3} ms  {:>8.0} ns/span",
                    t.count,
                    t.self_ns as f64 / 1e6,
                    ratio(t.self_ns as f64, t.count as f64)
                );
            }
        }
        (Err(e), _) | (_, Err(e)) => problems.push(e),
    }
    match probes::run(&probe_input(&s, &z)) {
        Ok(p) => v.extend(p),
        Err(e) => problems.push(e),
    }
    v
}

/// The traced run of `workload`: every per-layer metric.
pub fn run(workload: &str, seed: u64, seconds: f64, scale: Scale, out: &Path) -> RunResult {
    let mut problems = Vec::new();
    let budget = seconds / 2.0;
    let cpu0 = steady::cpu_ns();
    let t0 = Instant::now();
    let (mut values, attempted, failed);
    if workload == "failover" {
        println!("# physics: {}", physics_line(&failover::cluster_config(seed)));
        let runs = failover::scenarios(seed, Duration::from_secs_f64(budget), 2, scale);
        let cpu_share = ratio((steady::cpu_ns() - cpu0) as f64 / 1e9, t0.elapsed().as_secs_f64());
        problems.extend(runs.iter().flat_map(|r| r.problems.clone()));
        attempted = runs.iter().map(|r| r.attempted).sum();
        failed = runs.iter().map(|r| r.failed).sum();
        values = failover::layer_counter_values(&runs, cpu_share);
    } else {
        let spec = spec(workload, scale);
        println!("# physics: {}", physics_line(&cluster_for(workload, seed)));
        let (reps, live, rep_problems) = steady::reps_for(&spec, seed, budget, 2, true);
        let cpu_share = ratio((steady::cpu_ns() - cpu0) as f64 / 1e9, t0.elapsed().as_secs_f64());
        problems.extend(rep_problems);
        let Some(live) = live else {
            return RunResult::aborted(problems);
        };
        let w = &reps[0].window;
        if scale == Scale::Full {
            problems.extend(steady::separation_problems(&spec, w));
        }
        attempted = w.ops() + w.failed;
        failed = w.failed;
        values = steady::layer_counter_values(&spec, &reps, &live, cpu_share);
        // The recovery probe: one failover scenario at this seed.
        let probe = [failover::scenario(seed, scale)];
        problems.extend(probe[0].problems.clone());
        values.extend(failover::recovery_values(&probe));
    }
    values.extend(instrumented(workload, seed, scale, out, &mut problems));
    RunResult { correct: problems.is_empty(), attempted, failed, values, problems }
}
