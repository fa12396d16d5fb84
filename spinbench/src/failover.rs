//! The `failover` workload: kill range 0's leader under closed-loop
//! writers, restart it, and check that every acknowledged write
//! survived.
//!
//! One *scenario* is one seeded cluster taken through the whole fault
//! schedule; a run repeats scenarios with seeds derived from its own until its
//! wall budget is spent and reports medians over them. The kill expires
//! the leader's coordination session at once (Table 1's convention), so
//! the numbers exclude the 2 s failure-detection timeout.

use std::time::{Duration, Instant};

use spinnaker_common::{Key, RangeId};
use spinnaker_core::cluster::SimCluster;
use spinnaker_core::node::Role as NodeRole;
use spinnaker_core::partition::u64_to_key;
use spinnaker_sim::{Time, MILLIS, SECS};

use crate::alloc::Meter;
use crate::client::{read_back, Fleet};
use crate::counters::{ratio, Counters};
use crate::gen::{sub_seed, value_of, Class, OpGen, Role};
use crate::metrics::{RunResult, Values};
use crate::stats::{median, percentile_sorted, spread};
use crate::steady::peak_rss_mb;
use crate::workloads::{base_cluster, physics_line, Scale};

const VALUE_SIZE: usize = 1024;
const RANGE0: RangeId = RangeId(0);
const POLL: Time = MILLIS;

/// The fault schedule, in virtual time from cluster start.
struct Schedule {
    writers: usize,
    /// Writers start (end of boot).
    start: Time,
    /// The measured window opens (end of warm-up, end of set-up).
    open: Time,
    /// Kill range 0's leader: 50 ms before a commit tick.
    kill: Time,
    /// Restart the killed node.
    restart: Time,
    /// The window closes.
    end: Time,
}

fn schedule(scale: Scale) -> Schedule {
    match scale {
        Scale::Full => Schedule {
            writers: 8,
            start: SECS,
            open: 2 * SECS,
            kill: 3 * SECS - 50 * MILLIS,
            restart: 5 * SECS - 50 * MILLIS,
            end: 8 * SECS - 50 * MILLIS,
        },
        Scale::Smoke => Schedule {
            writers: 4,
            start: SECS,
            open: SECS + 200 * MILLIS,
            kill: 2 * SECS - 50 * MILLIS,
            restart: 3 * SECS,
            end: 4 * SECS + 500 * MILLIS,
        },
    }
}

/// The failover cluster: the shared physics with a 1 s commit period.
pub fn cluster_config(seed: u64) -> spinnaker_core::cluster::ClusterConfig {
    let mut cfg = base_cluster(seed);
    cfg.node.commit_period = SECS;
    cfg
}

/// What one scenario measured.
#[derive(Default)]
pub struct Scenario {
    /// The scenario's seed.
    pub seed: u64,
    /// Wall seconds of boot plus warm-up.
    pub setup_s: f64,
    /// The process's resident-set high-water mark at the scenario's end, MB.
    pub peak_rss_mb: f64,
    /// Wall seconds inside `run_until` over the window.
    pub wall_s: f64,
    /// Virtual length of the window.
    pub v_ns: Time,
    /// Puts acknowledged in the window.
    pub ops: u64,
    /// Their latencies (ns), ascending.
    pub lat: Vec<u64>,
    /// Longest gap between write completions after the kill.
    pub unavail_ns: Time,
    /// Kill to a new open leader of range 0 (5 ms polling).
    pub takeover_ns: Time,
    /// Restart to the restarted node being a follower committed through
    /// the leader's commit point at restart time.
    pub catchup_ns: Time,
    /// Times range 0's observed leader changed.
    pub leader_changes: u64,
    /// Client resends (timeouts, redirects, backoffs) in the window.
    pub retries: u64,
    /// Operations attempted (window puts, stuck ones, read-backs).
    pub attempted: u64,
    /// Wrong outcomes, operations never completed, keys lost.
    pub failed: u64,
    /// Allocator calls and bytes inside `run_until` over the window.
    pub allocs: (u64, u64),
    /// Counter deltas over the window.
    pub counters: Counters,
    /// Fault-handling checks that did not hold.
    pub problems: Vec<String>,
}

/// Run one failover scenario.
pub fn scenario(seed: u64, scale: Scale) -> Scenario {
    let plan = schedule(scale);
    let mut problems = Vec::new();
    let t_setup = Instant::now();
    let mut cluster = SimCluster::new(cluster_config(seed));
    cluster.run_until(plan.start);
    let fleet = Fleet::new(4096);
    for i in 0..plan.writers {
        let stream = sub_seed(seed, 2000 + i as u64);
        let gen = OpGen::new(Role::RangeZeroWrites, stream, 4096, value_of(VALUE_SIZE), None);
        fleet.add_client(&mut cluster, gen, 1, plan.start + i as Time * 1000);
    }
    cluster.run_until(plan.open);
    let setup_s = t_setup.elapsed().as_secs_f64();

    fleet.rec.borrow_mut().reset_window(plan.open);
    let before = Counters::read(&cluster);
    let mut meter = Meter::default();
    meter.run(|| cluster.run_until(plan.kill));
    let killed = cluster.leader_of(RANGE0);
    let Some(killed) = killed else {
        problems.push("range 0 had no leader at the kill time".to_string());
        return Scenario {
            seed,
            setup_s,
            v_ns: 1,
            attempted: 1,
            failed: 1,
            problems,
            ..Default::default()
        };
    };
    cluster.crash_node(plan.kill, killed, true);
    fleet.rec.borrow_mut().start_gap_watch(plan.kill);

    let (mut takeover_ns, mut catchup_ns) = (None, None);
    let (mut last_leader, mut leader_changes) = (Some(killed), 0u64);
    let mut leader_cmt_at_restart = None;
    let mut now = plan.kill;
    while now < plan.end {
        if now == plan.restart {
            cluster.restart_node(now, killed);
            leader_cmt_at_restart = cluster
                .leader_of(RANGE0)
                .and_then(|l| cluster.with_node(l, |n| n.last_committed(RANGE0)));
        }
        now += POLL;
        meter.run(|| cluster.run_until(now));
        let leader = cluster.leader_of(RANGE0);
        if leader.is_some() && leader != last_leader {
            leader_changes += 1;
            last_leader = leader;
        }
        if takeover_ns.is_none() && leader.is_some_and(|l| l != killed) {
            takeover_ns = Some(now - plan.kill);
        }
        if catchup_ns.is_none() && now > plan.restart {
            let caught_up = cluster
                .with_node(killed, |n| {
                    n.role(RANGE0) == NodeRole::Follower
                        && leader_cmt_at_restart.is_some_and(|cmt| n.last_committed(RANGE0) >= cmt)
                })
                .unwrap_or(false);
            if caught_up {
                catchup_ns = Some(now - plan.restart);
            }
        }
    }
    let unavail_ns = fleet.rec.borrow_mut().close_gap_watch(plan.end);
    let after = Counters::read(&cluster);
    if takeover_ns.is_none() {
        problems.push(format!("seed {seed}: no new leader of range 0 after killing node {killed}"));
    }
    if catchup_ns.is_none() {
        problems.push(format!("seed {seed}: restarted node {killed} did not catch up"));
    }

    let (ops, window_failed, retries, mut lat) = {
        let mut rec = fleet.rec.borrow_mut();
        (
            rec.total_done(),
            rec.failed,
            rec.retries,
            std::mem::take(&mut rec.lat[Class::Put as usize]),
        )
    };
    lat.sort_unstable();

    // Drain, then the durability check: every key with an acknowledged
    // put must be readable (the crash discarded all unsynced bytes).
    fleet.stop.set(true);
    now += 2 * SECS;
    cluster.run_until(now);
    let stuck = fleet.rec.borrow().in_flight;
    let acked: Vec<Key> = {
        let rec = fleet.rec.borrow();
        (0..4096u64).filter(|i| rec.written[*i as usize]).map(u64_to_key).collect()
    };
    let want = acked.len() as u64;
    let lost = want - read_back(&mut cluster, &mut now, &acked, VALUE_SIZE);
    if window_failed + stuck + lost > 0 {
        problems.push(format!(
            "seed {seed}: {window_failed} wrong outcomes, {stuck} puts never completed, \
             {lost} of {want} acknowledged keys unreadable"
        ));
    }
    Scenario {
        seed,
        setup_s,
        peak_rss_mb: peak_rss_mb(),
        wall_s: meter.wall.as_secs_f64(),
        v_ns: plan.end - plan.open,
        ops,
        lat,
        unavail_ns,
        takeover_ns: takeover_ns.unwrap_or(0),
        catchup_ns: catchup_ns.unwrap_or(0),
        leader_changes,
        retries,
        attempted: ops + window_failed + stuck + want,
        failed: window_failed + stuck + lost,
        allocs: (meter.calls, meter.bytes),
        counters: after.since(&before),
        problems,
    }
}

/// Seed of a run's `k`-th scenario. Mixed rather than `seed + k`: runs
/// with consecutive seeds would share most of their scenarios, and ten
/// runs would not be ten independent samples.
pub fn scenario_seed(seed: u64, k: u64) -> u64 {
    sub_seed(seed, 0xfa11 + k)
}

/// Scenarios of a run until `budget` is spent (at least `min`).
pub fn scenarios(seed: u64, budget: Duration, min: usize, scale: Scale) -> Vec<Scenario> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || started.elapsed() < budget {
        out.push(scenario(scenario_seed(seed, out.len() as u64), scale));
    }
    out
}

fn med(runs: &[Scenario], f: impl Fn(&Scenario) -> f64) -> f64 {
    median(&runs.iter().map(f).collect::<Vec<_>>())
}

/// The timed run: medians over the scenarios.
pub fn run_timed(seed: u64, seconds: f64, scale: Scale) -> RunResult {
    println!("# physics: {}", physics_line(&cluster_config(seed)));
    let runs = scenarios(seed, Duration::from_secs_f64(seconds), 3, scale);
    let problems: Vec<String> = runs.iter().flat_map(|r| r.problems.clone()).collect();
    let mut v = Values::new();
    v.insert("v_ops_per_s", med(&runs, |r| r.ops as f64 / (r.v_ns as f64 / 1e9)));
    v.insert("v_lat_p50_ms", med(&runs, |r| percentile_sorted(&r.lat, 50.0) as f64 / 1e6));
    v.insert("v_lat_p99_ms", med(&runs, |r| percentile_sorted(&r.lat, 99.0) as f64 / 1e6));
    v.insert("v_stall_ms", med(&runs, |r| r.unavail_ns as f64 / 1e6));
    v.insert("wall_ops_per_s", med(&runs, |r| ratio(r.ops as f64, r.wall_s)));
    v.insert("allocs_per_op", med(&runs, |r| ratio(r.allocs.0 as f64, r.ops as f64)));
    // The first scenario ran in a fresh process; each later one runs on a
    // heap the earlier ones fragmented and reads up to a fifth higher.
    v.insert("peak_rss_mb", runs[0].peak_rss_mb);
    v.insert("setup_s", med(&runs, |r| r.setup_s));
    println!(
        "# {} scenarios (seeds {:?}), {} puts and {} latency samples in all",
        runs.len(),
        runs.iter().map(|r| r.seed).collect::<Vec<_>>(),
        runs.iter().map(|r| r.ops).sum::<u64>(),
        runs.iter().map(|r| r.lat.len()).sum::<usize>()
    );
    RunResult {
        correct: problems.is_empty(),
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.failed).sum(),
        values: v,
        problems,
    }
}

/// The source-C layer values of a set of scenarios (medians).
pub fn layer_counter_values(runs: &[Scenario], cpu_share: f64) -> Values {
    let per_op =
        |f: fn(&Counters) -> u64| med(runs, |r| ratio(f(&r.counters) as f64, r.ops as f64));
    let row_bytes = (8 + 1 + VALUE_SIZE) as f64;
    let mut v = Values::new();
    v.insert("sim.kernel.events_per_op", per_op(|c| c.events));
    v.insert(
        "sim.kernel.ns_per_event",
        med(runs, |r| ratio(r.wall_s * 1e9, r.counters.events as f64)),
    );
    v.insert("sim.net.msgs_per_op", per_op(|c| c.msgs));
    v.insert("sim.disk.syncs_per_op", per_op(|c| c.syncs));
    v.insert(
        "sim.disk.reqs_per_sync",
        med(runs, |r| ratio(r.counters.sync_reqs as f64, r.counters.syncs as f64)),
    );
    v.insert("core.client.put_ops_per_s", med(runs, |r| r.ops as f64 / (r.v_ns as f64 / 1e9)));
    v.insert(
        "core.client.retries_per_kop",
        med(runs, |r| ratio(r.retries as f64 * 1000.0, r.ops as f64)),
    );
    for name in [
        "core.client.get_ops_per_s",
        "core.client.cond_ops_per_s",
        "core.client.scan_ops_per_s",
        "core.client.ring_refreshes",
        "core.client.cond_mismatch_share",
        "core.node.follower_page_share",
        "storage.store.span_skips_per_get",
        "storage.bloom.negatives_per_get",
        "storage.bloom.fp_share",
        "storage.cache.hit_share",
        "storage.sstable.block_reads_per_get",
    ] {
        v.insert(name, 0.0);
    }
    v.insert("wal.segments_end", med(runs, |r| r.counters.wal_segments as f64));
    v.insert("storage.store.point_gets", med(runs, |r| r.counters.store.point_gets as f64));
    v.insert("storage.store.compactions", med(runs, |r| r.counters.store.compactions as f64));
    v.insert(
        "storage.store.compacted_bytes_per_user_byte",
        med(runs, |r| ratio(r.counters.store.bytes_compacted as f64, r.ops as f64 * row_bytes)),
    );
    v.insert(
        "storage.store.space_amp",
        med(runs, |r| ratio(r.counters.vfs_bytes as f64, r.ops.min(4096) as f64 * row_bytes * 3.0)),
    );
    v.insert("storage.store.levels", med(runs, |r| r.counters.levels as f64));
    v.insert("storage.store.l0_tables_max", med(runs, |r| r.counters.l0_tables as f64));
    v.insert("process.alloc_bytes_per_op", med(runs, |r| ratio(r.allocs.1 as f64, r.ops as f64)));
    let rates: Vec<f64> = runs.iter().map(|r| ratio(r.ops as f64, r.wall_s)).collect();
    v.insert("process.wall_spread_pct", spread(&rates) * 100.0);
    v.insert("process.cpu_share", cpu_share);
    v.insert("process.window_ops", runs.iter().map(|r| r.ops).sum::<u64>() as f64);
    v.insert("process.window_samples", runs.iter().map(|r| r.lat.len()).sum::<usize>() as f64);
    v.extend(recovery_values(runs));
    v
}

/// `core.recovery.*` over a set of scenarios (medians).
pub fn recovery_values(runs: &[Scenario]) -> Values {
    let mut v = Values::new();
    v.insert("core.recovery.takeover_ms", med(runs, |r| r.takeover_ns as f64 / 1e6));
    v.insert("core.recovery.catchup_ms", med(runs, |r| r.catchup_ns as f64 / 1e6));
    v.insert("core.recovery.leader_changes", med(runs, |r| r.leader_changes as f64));
    v
}
