//! The steady-state runner: `write-sat`, `read-uniform`, `mixed-zipf`.
//!
//! A *repetition* is: build a cluster, preload it, warm up, measure a
//! window of fixed virtual length. A run repeats one seed until its wall
//! budget is spent (at least three times) and requires every repetition
//! to agree counter for counter and percentile for percentile — the
//! determinism check. Virtual-clock and count metrics are therefore
//! exact for a seed; wall-clock metrics are medians over repetitions.
//! The last repetition is drained and sampled keys are read back.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use spinnaker_core::cluster::SimCluster;
use spinnaker_sim::{Time, MILLIS, SECS};

use crate::alloc::Meter;
use crate::client::{read_back, Fleet};
use crate::counters::{ratio, Counters};
use crate::gen::{key_for_index, sub_seed, Class, CLASSES};
use crate::metrics::{RunResult, Values};
use crate::stats::{median, percentile_sorted, spread};
use crate::workloads::{cluster_for, physics_line, Scale, Spec};

/// A cluster that has been booted, preloaded and warmed up.
pub struct Live {
    /// The cluster.
    pub cluster: SimCluster,
    /// The measured fleet's handles.
    pub fleet: Fleet,
    /// Current virtual time.
    pub now: Time,
}

/// What the measured window saw.
pub struct Window {
    /// Operations finished correctly, by class.
    pub done: [u64; CLASSES],
    /// Operations that ended wrong in the window.
    pub failed: u64,
    /// Every latency sample (ns), ascending.
    pub lat: Vec<u64>,
    /// Virtual length of the window.
    pub v_ns: Time,
    /// Wall seconds spent inside `run_until`.
    pub wall_s: f64,
    /// Longest gap between consecutive completions, per slice.
    pub slice_stalls: Vec<Time>,
    /// Allocator calls and bytes inside `run_until`.
    pub allocs: (u64, u64),
    /// Counter deltas over the window (gauges: end of window).
    pub counters: Counters,
    /// Largest L0 table count seen at a slice end (traced runs only).
    pub l0_tables_max: u64,
    /// Client-side retry counters.
    pub retries: u64,
    /// Range-table refreshes.
    pub ring_refreshes: u64,
    /// Conditional puts that lost their version check.
    pub cond_mismatches: u64,
    /// Conditional puts sent.
    pub cond_attempts: u64,
}

impl Window {
    /// Operations finished correctly.
    pub fn ops(&self) -> u64 {
        self.done.iter().sum()
    }

    /// The typical worst stall: the mean over slices of the longest gap
    /// between consecutive completions (a mean of maxima is steadier
    /// across seeds than one maximum).
    pub fn stall_ns(&self) -> Time {
        self.slice_stalls.iter().sum::<Time>() / self.slice_stalls.len().max(1) as Time
    }
}

/// Boot a cluster for `spec`, preload it, start the fleet and warm up.
pub fn set_up(spec: &Spec, seed: u64) -> Result<Live, String> {
    let mut cluster = SimCluster::new(cluster_for(spec.name, seed));
    let mut now = SECS;
    cluster.run_until(now);
    if !cluster.all_ranges_led() {
        return Err("not every range elected a leader within 1 s".into());
    }
    let fleet = Fleet::new(spec.keys);
    if spec.preload {
        for gen in spec.preload_generators(32) {
            fleet.add_client(&mut cluster, gen, 4, now);
        }
        let deadline = now + 120 * SECS;
        while fleet.rec.borrow().done[Class::Put as usize] < spec.keys {
            if now >= deadline || fleet.rec.borrow().failed > 0 {
                return Err(format!(
                    "preload stalled at {} of {} keys",
                    fleet.rec.borrow().total_done(),
                    spec.keys
                ));
            }
            now += 50 * MILLIS;
            cluster.run_until(now);
        }
        // Let commit messages reach the followers and maintenance
        // ticks flush and compact what the preload left behind.
        now += SECS;
        cluster.run_until(now);
    }
    for (i, (gen, pipeline)) in spec.generators(seed).into_iter().enumerate() {
        // Stagger starts by a microsecond so clients do not move in lockstep.
        fleet.add_client(&mut cluster, gen, pipeline, now + i as Time * 1000);
    }
    now += spec.warmup;
    cluster.run_until(now);
    Ok(Live { cluster, fleet, now })
}

/// Measure `live` over the workload's fixed virtual window, in slices
/// of `spec.slice`. `sample_gauges` reads the store gauges at every
/// slice end (traced runs).
pub fn measure(live: &mut Live, spec: &Spec, sample_gauges: bool) -> Window {
    let Live { cluster, fleet, now } = live;
    fleet.rec.borrow_mut().reset_window(*now);
    let before = Counters::read(cluster);
    let end = *now + spec.window;
    let (mut meter, mut l0_tables_max) = (Meter::default(), 0u64);
    let mut slice_stalls = Vec::new();
    while *now < end {
        *now = (*now + spec.slice).min(end);
        meter.run(|| cluster.run_until(*now));
        let mut rec = fleet.rec.borrow_mut();
        slice_stalls.push(rec.close_gap_watch(*now));
        rec.start_gap_watch(*now);
        drop(rec);
        if sample_gauges {
            l0_tables_max = l0_tables_max.max(Counters::read(cluster).l0_tables);
        }
    }
    let after = Counters::read(cluster);
    let mut rec = fleet.rec.borrow_mut();
    let mut lat: Vec<u64> = std::mem::take(&mut rec.lat).into_iter().flatten().collect();
    lat.sort_unstable();
    Window {
        done: rec.done,
        failed: rec.failed,
        lat,
        v_ns: spec.window,
        wall_s: meter.wall.as_secs_f64(),
        slice_stalls,
        allocs: (meter.calls, meter.bytes),
        counters: after.since(&before),
        l0_tables_max: l0_tables_max.max(after.l0_tables),
        retries: rec.retries,
        ring_refreshes: rec.ring_refreshes,
        cond_mismatches: rec.cond_mismatches,
        cond_attempts: rec.cond_attempts,
    }
}

/// Stop the fleet, let in-flight operations finish, then read back
/// `spec.readback` sampled keys with strong gets. Returns
/// `(operations that never completed, read-backs attempted, read-backs
/// that failed)`.
pub fn drain_and_verify(live: &mut Live, spec: &Spec, seed: u64) -> (u64, u64, u64) {
    let Live { cluster, fleet, now } = live;
    fleet.stop.set(true);
    // Longer than the 1 s client retry timer.
    *now += 2 * SECS;
    cluster.run_until(*now);
    let stuck = fleet.rec.borrow().in_flight;

    // Sample among the keys known written (all of them after a preload).
    let written: Vec<u64> = {
        let rec = fleet.rec.borrow();
        (0..spec.keys).filter(|i| rec.written[*i as usize]).collect()
    };
    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, 0x7ead));
    let sample: Vec<_> = (0..spec.readback.min(written.len()))
        .map(|_| key_for_index(spec.keys, written[rng.gen_range(0..written.len())]))
        .collect();
    let want = sample.len() as u64;
    let good = read_back(cluster, now, &sample, spec.value_size);
    (stuck, want, want - good)
}

/// `VmHWM` of this process in MB (0 when `/proc` is unreadable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The layer-separation properties each workload was designed to have;
/// a violated one makes the run incorrect. Full scale only.
pub fn separation_problems(spec: &Spec, w: &Window) -> Vec<String> {
    let c = &w.counters;
    let s = &c.store;
    let ops = w.ops() as f64;
    let hit_share = ratio(s.cache_hits as f64, (s.cache_hits + s.cache_misses) as f64);
    let mut problems = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            problems.push(format!("{}: {what}", spec.name));
        }
    };
    match spec.name {
        "write-sat" => {
            require(
                s.point_gets == 0,
                format!("{} point gets in a write-only window", s.point_gets),
            );
        }
        "read-uniform" => {
            let syncs = ratio(c.syncs as f64, ops);
            require(syncs < 0.01, format!("{syncs:.4} log syncs per get"));
            require(hit_share <= 0.3, format!("cache hit share {hit_share:.3} > 0.3"));
            require(c.levels >= 3, format!("{} populated levels < 3", c.levels));
        }
        "mixed-zipf" => {
            require(hit_share >= 0.6, format!("cache hit share {hit_share:.3} < 0.6"));
            require(s.compactions >= 10, format!("{} compactions < 10", s.compactions));
            require(c.levels >= 3, format!("{} populated levels < 3", c.levels));
            require(c.follower_pages > 0, "no snapshot page served by a follower".into());
        }
        _ => {}
    }
    problems
}

/// One repetition: a fresh cluster set up and measured over the
/// workload's window.
pub struct Rep {
    /// Wall seconds of boot, preload and warm-up.
    pub setup_s: f64,
    /// The process's resident-set high-water mark at the window's end, MB.
    pub peak_rss_mb: f64,
    /// The measured window.
    pub window: Window,
}

impl Rep {
    /// Everything about the window that must repeat exactly for one
    /// seed: counters, counts, and the virtual-clock percentiles.
    pub fn fingerprint(&self) -> Vec<u64> {
        let w = &self.window;
        let mut print = w.counters.fingerprint();
        print.extend(w.done);
        print.extend([
            w.failed,
            w.retries,
            w.cond_mismatches,
            w.stall_ns(),
            percentile_sorted(&w.lat, 50.0),
            percentile_sorted(&w.lat, 99.0),
        ]);
        print
    }
}

/// Set up a fresh cluster and measure one window on it.
pub fn rep(spec: &Spec, seed: u64, sample_gauges: bool) -> Result<(Rep, Live), String> {
    let t = Instant::now();
    let mut live = set_up(spec, seed)?;
    let setup_s = t.elapsed().as_secs_f64();
    let window = measure(&mut live, spec, sample_gauges);
    Ok((Rep { setup_s, peak_rss_mb: peak_rss_mb(), window }, live))
}

/// The end-to-end values of a set of identical repetitions: virtual-clock
/// and count values from the (identical) windows, wall-clock values as
/// medians over the repetitions.
pub fn end_to_end_values(reps: &[Rep]) -> Values {
    let w = &reps[0].window;
    let ops = w.ops() as f64;
    let over_reps = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let mut v = Values::new();
    v.insert("v_ops_per_s", ops / (w.v_ns as f64 / 1e9));
    v.insert("v_lat_p50_ms", percentile_sorted(&w.lat, 50.0) as f64 / 1e6);
    v.insert("v_lat_p99_ms", percentile_sorted(&w.lat, 99.0) as f64 / 1e6);
    v.insert("v_stall_ms", w.stall_ns() as f64 / 1e6);
    v.insert("wall_ops_per_s", over_reps(&|r| ratio(r.window.ops() as f64, r.window.wall_s)));
    v.insert(
        "allocs_per_op",
        over_reps(&|r| ratio(r.window.allocs.0 as f64, r.window.ops() as f64)),
    );
    // The first repetition ran in a fresh process; later ones run on a
    // heap the earlier ones fragmented and read up to a tenth higher.
    v.insert("peak_rss_mb", reps[0].peak_rss_mb);
    v.insert("setup_s", over_reps(&|r| r.setup_s));
    v
}

/// The source-C layer values of a measured window.
pub fn layer_counter_values(spec: &Spec, reps: &[Rep], live: &Live, cpu_share: f64) -> Values {
    let w = &reps[0].window;
    let c = &w.counters;
    let s = &c.store;
    let ops = w.ops() as f64;
    let v_s = w.v_ns as f64 / 1e9;
    let gets = s.point_gets as f64;
    let row_bytes = (8 + 1 + spec.value_size) as f64;
    let user_bytes_written =
        (w.done[Class::Put as usize] + w.done[Class::Cond as usize]) as f64 * row_bytes;
    let live_bytes = live.fleet.rec.borrow().distinct_written() as f64 * row_bytes;
    let mut v = Values::new();
    v.insert("sim.kernel.events_per_op", ratio(c.events as f64, ops));
    v.insert("sim.kernel.ns_per_event", ratio(w.wall_s * 1e9, c.events as f64));
    v.insert("sim.net.msgs_per_op", ratio(c.msgs as f64, ops));
    v.insert("sim.disk.syncs_per_op", ratio(c.syncs as f64, ops));
    v.insert("sim.disk.reqs_per_sync", ratio(c.sync_reqs as f64, c.syncs as f64));
    v.insert("core.client.put_ops_per_s", w.done[Class::Put as usize] as f64 / v_s);
    v.insert("core.client.get_ops_per_s", w.done[Class::Get as usize] as f64 / v_s);
    v.insert("core.client.cond_ops_per_s", w.done[Class::Cond as usize] as f64 / v_s);
    v.insert("core.client.scan_ops_per_s", w.done[Class::Scan as usize] as f64 / v_s);
    v.insert("core.client.retries_per_kop", ratio(w.retries as f64 * 1000.0, ops));
    v.insert("core.client.ring_refreshes", w.ring_refreshes as f64);
    v.insert(
        "core.client.cond_mismatch_share",
        ratio(w.cond_mismatches as f64, w.cond_attempts as f64),
    );
    v.insert(
        "core.node.follower_page_share",
        ratio(c.follower_pages as f64, (c.follower_pages + c.leader_pages) as f64),
    );
    v.insert("wal.segments_end", c.wal_segments as f64);
    v.insert("storage.store.point_gets", gets);
    v.insert("storage.store.compactions", s.compactions as f64);
    v.insert(
        "storage.store.compacted_bytes_per_user_byte",
        ratio(s.bytes_compacted as f64, user_bytes_written),
    );
    v.insert("storage.store.space_amp", ratio(c.vfs_bytes as f64, live_bytes * 3.0));
    v.insert("storage.store.levels", c.levels as f64);
    v.insert("storage.store.l0_tables_max", w.l0_tables_max as f64);
    v.insert("storage.store.span_skips_per_get", ratio(s.span_skips as f64, gets));
    v.insert("storage.bloom.negatives_per_get", ratio(s.bloom_negatives as f64, gets));
    v.insert(
        "storage.bloom.fp_share",
        ratio(
            s.bloom_false_positives as f64,
            (s.bloom_false_positives + s.bloom_true_positives) as f64,
        ),
    );
    v.insert(
        "storage.cache.hit_share",
        ratio(s.cache_hits as f64, (s.cache_hits + s.cache_misses) as f64),
    );
    v.insert("storage.sstable.block_reads_per_get", ratio(s.block_reads as f64, gets));
    v.insert("process.alloc_bytes_per_op", ratio(w.allocs.1 as f64, ops));
    let rates: Vec<f64> =
        reps.iter().map(|r| ratio(r.window.ops() as f64, r.window.wall_s)).collect();
    v.insert("process.wall_spread_pct", spread(&rates) * 100.0);
    v.insert("process.cpu_share", cpu_share);
    v.insert("process.window_ops", ops);
    v.insert("process.window_samples", w.lat.len() as f64);
    v
}

/// CPU nanoseconds this process has run, from `/proc/self/schedstat`.
pub fn cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Repetitions of one seed until `seconds` of measured wall time have
/// accumulated (at least `min_reps`). Returns them with the last
/// repetition's live cluster and the problems found on the way.
pub fn reps_for(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    min_reps: usize,
    sample_gauges: bool,
) -> (Vec<Rep>, Option<Live>, Vec<String>) {
    let (mut reps, mut live, mut problems) = (Vec::<Rep>::new(), None, Vec::new());
    while reps.len() < min_reps || reps.iter().map(|r| r.window.wall_s).sum::<f64>() < seconds {
        // Drop the previous repetition's cluster first, so the peak
        // resident set is one cluster's, not two.
        drop(live.take());
        match rep(spec, seed, sample_gauges) {
            Ok((r, l)) => {
                reps.push(r);
                live = Some(l);
            }
            Err(e) => {
                problems.push(format!("set-up failed: {e}"));
                break;
            }
        }
    }
    if reps.windows(2).any(|p| p[0].fingerprint() != p[1].fingerprint()) {
        let prints: Vec<_> = reps.iter().map(Rep::fingerprint).collect();
        problems.push(format!("seed {seed} did not repeat exactly across repetitions: {prints:?}"));
    }
    (reps, live, problems)
}

/// The timed run of a steady workload: tracing off, every end-to-end
/// metric, all output checks.
pub fn run_timed(spec: &Spec, seed: u64, seconds: f64, scale: Scale) -> RunResult {
    println!("# physics: {}", physics_line(&cluster_for(spec.name, seed)));
    let (reps, live, mut problems) = reps_for(spec, seed, seconds, 3, false);
    let Some(mut live) = live else {
        return RunResult::aborted(problems);
    };
    let w = &reps[0].window;
    let (stuck, read_back, read_bad) = drain_and_verify(&mut live, spec, seed);
    if w.failed + stuck + read_bad > 0 {
        problems.push(format!(
            "{} wrong outcomes, {stuck} operations never completed, {read_bad} of {read_back} read-backs failed",
            w.failed
        ));
    }
    if scale == Scale::Full {
        problems.extend(separation_problems(spec, w));
        if w.lat.len() < 10_000 {
            problems.push(format!("only {} latency samples; p99 needs 10 000", w.lat.len()));
        }
    }
    let values = end_to_end_values(&reps);
    println!(
        "# {} repetitions of seed {seed}, each {} ops ({} latency samples) in {:.3} virtual s; \
         measured wall {:.3} s; read-back {read_back} keys",
        reps.len(),
        w.ops(),
        w.lat.len(),
        w.v_ns as f64 / 1e9,
        reps.iter().map(|r| r.window.wall_s).sum::<f64>(),
    );
    RunResult {
        correct: problems.is_empty(),
        attempted: w.ops() + w.failed + stuck + read_back,
        failed: w.failed + stuck + read_bad,
        values,
        problems,
    }
}
