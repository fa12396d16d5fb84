//! Figures beyond the paper: elastic ranges (`fig17`, `fig18`), the typed
//! client API (`fig19`), snapshot scans (`fig20`), and group proposes with
//! closed timestamps (`fig21`). Each asserts its claim, so a run that
//! prints is a run that held it.

use std::io;

use spinnaker_common::{Consistency, RangeId};
use spinnaker_core::client::{SharedStats, Workload};
use spinnaker_core::cluster::{ClusterConfig, SimCluster};
use spinnaker_core::partition::u64_to_key;
use spinnaker_sim::{DiskProfile, Time, MICROS, MILLIS, SECS};

use crate::{banner, fleet, merged_latency, rate, save, throughput, Window};

/// The extensions' base: `nodes` nodes on an SSD log, committing every
/// 200 ms.
fn ssd(nodes: usize, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig { nodes, seed, disk: DiskProfile::Ssd, ..Default::default() };
    cfg.node.commit_period = 200 * MILLIS;
    cfg
}

/// `cfg` with a leader-bound CPU model. A hot range's split or move pays
/// off only when its bottleneck is the *leader's* request handling (the
/// whole cohort still sees every propose), so model the real
/// leader/follower asymmetry: leader RPC handling (OCC check, reply
/// marshalling) is expensive, the follower's append+ack is cheap, and
/// nodes have few cores to saturate.
fn leader_bound(mut cfg: ClusterConfig) -> ClusterConfig {
    cfg.perf.cpu_cores = 2;
    cfg.perf.write_service = 600 * MICROS;
    cfg.perf.propose_service = Some(60 * MICROS);
    cfg
}

/// The window of the fleet figures (fig19–fig21).
fn fleet_window(quick: bool) -> Window {
    (3 * SECS, if quick { 8 * SECS } else { 15 * SECS })
}

/// Writes/s of `writers` clients on a fresh `cfg` cluster, each keeping
/// `pipeline` of `writes` in flight.
fn write_rate(
    cfg: ClusterConfig,
    writers: usize,
    writes: &Workload,
    pipeline: usize,
    window: Window,
) -> f64 {
    let mut cluster = SimCluster::new(cfg);
    let stats = fleet(&mut cluster, writers, writes, pipeline, SECS, window);
    cluster.run_until(window.1);
    rate(&stats, window)
}

/// `stats` with every completion traced.
fn traced(stats: Vec<SharedStats>) -> Vec<SharedStats> {
    for s in &stats {
        s.borrow_mut().trace = Some(Vec::new());
    }
    stats
}

/// Figure 17: elastic scale-out by dynamic range splitting. A
/// closed-loop write workload hammers one hot range; mid-run the leader
/// splits it at the median hot key. The right child's leadership
/// preference moves to the next cohort member, so after the split two
/// nodes share the leader-side work that one node did before.
///
/// Reported series: hot-range write throughput before, during, and after
/// the split. The "during" window absorbs the right child's election; the
/// "after" window should exceed "before" — that is the scale-out claim.
pub fn fig17(quick: bool) -> io::Result<()> {
    let clients = if quick { 48 } else { 96 };
    let split_at = 6 * SECS;
    let phases: [(&str, Time, Time); 3] = [
        ("before split", 3 * SECS, 6 * SECS),
        ("during split", 6 * SECS, 8 * SECS),
        ("after split", 9 * SECS, if quick { 13 * SECS } else { 17 * SECS }),
    ];
    let end = phases[2].2;

    let mut cluster = SimCluster::new(leader_bound(ssd(5, 1717)));
    let hot = Workload::SpanWrites { value_size: 512, lo: 0, hi: 4096 };
    let stats = traced(fleet(&mut cluster, clients, &hot, 1, SECS, (SECS, end)));
    // Split the hot range at the median hot key (the writers span key
    // indexes [0, 4096)).
    cluster.split_range(split_at, RangeId(0), u64_to_key(2048));
    cluster.run_until(end);

    let ring = cluster.current_ring();
    assert_eq!(ring.version(), 2, "the split must have completed");
    let children = ring.children_of(RangeId(0));
    let leaders: Vec<_> = children.iter().map(|d| cluster.leader_of(d.id)).collect();
    let refreshes: u64 = stats.iter().map(|s| s.borrow().ring_refreshes).sum();

    banner("Figure 17 — Hot-range write throughput across a dynamic split");
    println!("({clients} closed-loop writers on one range; split at t=6s)");
    let mut rows = Vec::new();
    let mut tputs = Vec::new();
    for (name, from, to) in phases {
        let tput = throughput(&stats, (from, to));
        println!("  {name:<14} [{:>2}s..{:>2}s)  {tput:>9.0} writes/s", from / SECS, to / SECS);
        rows.push(format!("{name},{tput:.1}"));
        tputs.push(tput);
    }
    println!(
        "  child leaders: {leaders:?} (distinct nodes = leader-side work split), {refreshes} client table refreshes"
    );
    let (before, after) = (tputs[0], tputs[2]);
    println!("  scale-out factor: {:.2}x", after / before.max(1.0));
    assert!(
        after > before,
        "post-split throughput ({after:.0}/s) must exceed pre-split ({before:.0}/s)"
    );
    save("fig17", "phase,throughput_writes_s", &rows)
}

/// Figure 18: elastic **rebalancing** by cohort movement and range
/// merge, on top of fig17's dynamic splits.
///
/// A hot range is split mid-run; the right child's leadership lands on
/// another original cohort member (fig17's scale-out). Then that child's
/// *leader replica moves to a fresh node* that was never part of the
/// range's replica set — the joiner catches up from empty, CAS cohort swap,
/// direct leadership hand-off — and a *cold pair* of split siblings is
/// merged back into one range (the inverse of the split).
///
/// Reported series: the moved range's write throughput before and after
/// the movement. The claim under test: once the fresh node leads, the
/// moved range serves within 20% of its pre-movement leader-local
/// throughput — i.e. cohort movement relocates load without degrading
/// the range, which is what makes scale-out to *new* nodes real.
pub fn fig18(quick: bool) -> io::Result<()> {
    let clients_per_side = if quick { 24 } else { 48 };
    let split_at = 4 * SECS;
    let move_at = 9 * SECS;
    let merge_at = 12 * SECS;
    let end: Time = if quick { 16 * SECS } else { 22 * SECS };
    let pre_window = (6 * SECS, 9 * SECS);
    let post_window = (12 * SECS, end - SECS);

    // Six nodes, so node 3 is *outside* the hot range's cohort {0, 1, 2}.
    let mut cluster = SimCluster::new(leader_bound(ssd(6, 1818)));
    // Left-side and right-side writers: both hammer range 0 before the
    // split; afterwards each group is confined to one child, so the
    // moved (right) child's throughput is measurable on its own.
    let mut side = |lo, hi| {
        let span = Workload::SpanWrites { value_size: 512, lo, hi };
        traced(fleet(&mut cluster, clients_per_side, &span, 1, SECS, (SECS, end)))
    };
    let left_stats = side(0, 2048);
    let right_stats = side(2048, 4096);

    // Split the hot range at the median hot key, and split the (cold,
    // trafficless) range 1 to manufacture the cold pair for the merge.
    let step = u64::MAX / 6;
    cluster.split_range(split_at, RangeId(0), u64_to_key(2048));
    cluster.split_range(split_at, RangeId(1), u64_to_key(step + step / 2));

    cluster.run_until(move_at);
    let ring = cluster.current_ring();
    let hot_children = ring.children_of(RangeId(0));
    assert_eq!(hot_children.len(), 2, "the hot split must have completed");
    let moved = hot_children[1].id;
    let old_leader = cluster.leader_of(moved).expect("right child led");
    let cold_children = ring.children_of(RangeId(1));
    assert_eq!(cold_children.len(), 2, "the cold split must have completed");
    let (cold_left, cold_right) = (cold_children[0].id, cold_children[1].id);

    // Move the right child's leader replica to node 3 — a node that was
    // never in the range's replica set — and merge the cold pair.
    cluster.move_replica(move_at, moved, old_leader, 3);
    cluster.merge_ranges(merge_at, cold_left, cold_right);
    cluster.run_until(end);

    let pre_move = throughput(&right_stats, pre_window);
    let post_move = throughput(&right_stats, post_window);
    let left_post = throughput(&left_stats, post_window);

    let ring = cluster.current_ring();
    let new_leader = cluster.leader_of(moved);
    let moved_def = ring.def(moved).expect("moved range live").clone();

    banner("Figure 18 — Cohort movement + range merge (elastic rebalance)");
    println!(
        "({clients_per_side} writers/side; split t=4s, move {old_leader}->3 t=9s, merge t=12s)"
    );
    println!(
        "  moved range {moved}: {pre_move:>8.0} writes/s before movement (leader {old_leader})"
    );
    println!(
        "  moved range {moved}: {post_move:>8.0} writes/s after movement  (leader {new_leader:?})"
    );
    println!("  left sibling     : {left_post:>8.0} writes/s after movement");
    println!(
        "  recovery: {:.0}% of pre-movement leader-local throughput",
        100.0 * post_move / pre_move.max(1.0)
    );

    assert!(moved_def.cohort.contains(&3), "node 3 joined the moved range's replica set");
    assert!(!moved_def.cohort.contains(&old_leader), "the departing replica left the replica set");
    assert_eq!(new_leader, Some(3), "the fresh node leads the moved range");
    assert!(
        post_move >= 0.8 * pre_move,
        "post-movement throughput ({post_move:.0}/s) within 20% of pre-movement ({pre_move:.0}/s)"
    );
    // The cold pair merged back into a single range covering range 1's
    // original span.
    assert!(
        ring.def(cold_left).is_none() && ring.def(cold_right).is_none(),
        "cold siblings dissolved"
    );
    let merged = ring.range_of(&u64_to_key(step + 1));
    let merged_def = ring.def(merged).expect("merged range live");
    assert_eq!(merged_def.start, u64_to_key(step), "merge restored the left bound");
    assert_eq!(merged_def.end, Some(u64_to_key(2 * step)), "merge restored the right bound");
    assert!(cluster.all_ranges_led(), "every range in the final table has an open leader");

    let rows = [
        format!("moved range pre-movement,{pre_move:.1}"),
        format!("moved range post-movement,{post_move:.1}"),
        format!("left sibling post-movement,{left_post:.1}"),
    ];
    save("fig18", "series,throughput_writes_s", &rows)
}

/// `writers` closed-loop writers plus `scanners` clients scanning 64 rows
/// in pages of 16 at `consistency`, on [`ssd`] with six nodes. Returns
/// (writes/s, scans/s, mean scan latency ms).
fn scan_fleet(
    writers: usize,
    scanners: usize,
    consistency: Consistency,
    seed: u64,
    window: Window,
) -> (f64, f64, f64) {
    let mut cluster = SimCluster::new(ssd(6, seed));
    let writes = Workload::Writes { keys: 10_000, value_size: 256 };
    let writer_stats = fleet(&mut cluster, writers, &writes, 1, SECS, window);
    let scans = Workload::Scans { keys: 10_000, rows: 64, page: 16, consistency };
    let scan_stats = fleet(&mut cluster, scanners, &scans, 1, 2 * SECS, window);
    cluster.run_until(window.1);
    let scan_lat = merged_latency(&scan_stats).mean_ms();
    (rate(&writer_stats, window), rate(&scan_stats, window), scan_lat)
}

/// Figure 19: the typed client API under load — multi-range **scans**
/// and **pipelined** clients.
///
/// Two claims under test:
///
/// 1. **Scans work at load.** A mixed fleet (writers + strong scanners)
///    sustains non-trivial scan throughput, with each logical scan
///    paged across every range it crosses.
/// 2. **Pipelining raises per-client throughput.** At an equal client
///    count, clients keeping a window of N ops outstanding complete at
///    least as many writes per second as single-outstanding clients —
///    the extra in-flight ops keep the leader's group commit busy
///    instead of idling on round trips.
///
/// Reported series: write throughput single vs. pipelined (same client
/// count), and scan/write throughput of the mixed fleet.
pub fn fig19(quick: bool) -> io::Result<()> {
    let window = fleet_window(quick);
    let clients = if quick { 4 } else { 8 };
    let depth = 8;

    let writes = Workload::Writes { keys: 20_000, value_size: 512 };
    let single = write_rate(ssd(6, 1919), clients, &writes, 1, window);
    let pipelined = write_rate(ssd(6, 1919), clients, &writes, depth, window);

    let (mixed_writes, scans, scan_lat_ms) =
        scan_fleet(clients, 2, Consistency::Strong, 1920, window);

    banner("Figure 19 — Typed client API: scans + pipelined batches");
    println!("({clients} writers; window {depth}; 2 scanners @ 64 rows/scan, 16 rows/page)");
    println!("  writes, single-outstanding : {single:>8.0} writes/s");
    println!("  writes, pipelined (w={depth})   : {pipelined:>8.0} writes/s");
    println!("  pipelining gain            : {:>8.2}x", pipelined / single.max(1.0));
    println!("  mixed fleet writes         : {mixed_writes:>8.0} writes/s");
    println!("  mixed fleet scans          : {scans:>8.1} scans/s @ {scan_lat_ms:.2} ms");

    assert!(scans > 0.0, "scan throughput must be non-zero");
    assert!(
        pipelined >= single,
        "pipelined throughput ({pipelined:.0}/s) must be at least single-outstanding \
         ({single:.0}/s) at equal client count"
    );

    let rows = [
        format!("writes single-outstanding,{single:.1}"),
        format!("writes pipelined w={depth},{pipelined:.1}"),
        format!("mixed writes,{mixed_writes:.1}"),
        format!("mixed scans,{scans:.1}"),
    ];
    save("fig19", "series,throughput_per_s", &rows)
}

/// Figure 20: **snapshot scans** under a concurrent writer fleet.
///
/// Three claims under test:
///
/// 1. **Snapshot scans flow.** A fleet of writers plus snapshot
///    scanners sustains non-zero scan throughput; every logical scan
///    pins a read timestamp on its first page and replays that cut
///    across all the ranges it crosses.
/// 2. **Snapshot scans do not throttle writers.** MVCC reads take no
///    locks and hold no leases; writers keep committing at (nearly)
///    their no-scanner rate. The reproduction target asserts writer
///    throughput under snapshot scanners within 20% of the no-scanner
///    baseline.
/// 3. **Snapshot scans relieve leaders.** Pinned pages may be served by
///    any caught-up replica, where strong scan pages are leader-only —
///    reported side by side for comparison.
pub fn fig20(quick: bool) -> io::Result<()> {
    let window = fleet_window(quick);
    let writers = if quick { 4 } else { 8 };
    let scanners = 2;

    // The same seed everywhere: identical writer fleets, so the only
    // variable is the scanner consistency level.
    let (baseline, _, _) = scan_fleet(writers, 0, Consistency::Strong, 2020, window);
    let (w_strong, s_strong, l_strong) =
        scan_fleet(writers, scanners, Consistency::Strong, 2020, window);
    let (w_snap, s_snap, l_snap) =
        scan_fleet(writers, scanners, Consistency::SNAPSHOT_PIN, 2020, window);

    banner("Figure 20 — Snapshot scans vs. strong scans under writers");
    println!("({writers} writers; {scanners} scanners @ 64 rows/scan, 16 rows/page)");
    println!("  writers, no scanners       : {baseline:>8.0} writes/s");
    println!(
        "  writers + strong scanners  : {w_strong:>8.0} writes/s | {s_strong:>6.1} scans/s @ {l_strong:.2} ms"
    );
    println!(
        "  writers + snapshot scanners: {w_snap:>8.0} writes/s | {s_snap:>6.1} scans/s @ {l_snap:.2} ms"
    );
    println!(
        "  snapshot writer impact     : {:>7.1}% of baseline",
        100.0 * w_snap / baseline.max(1.0)
    );

    assert!(s_snap > 0.0, "snapshot scan throughput must be non-zero");
    assert!(
        w_snap >= 0.8 * baseline,
        "snapshot scanners must not throttle writers: {w_snap:.0}/s vs {baseline:.0}/s baseline"
    );

    let rows = [
        format!("no scanners,{baseline:.1},0,0"),
        format!("strong scanners,{w_strong:.1},{s_strong:.1},{l_strong:.3}"),
        format!("snapshot scanners,{w_snap:.1},{s_snap:.1},{l_snap:.3}"),
    ];
    save("fig20", "series,writes_per_s,scans_per_s,scan_mean_ms", &rows)
}

/// Figure 21: **group proposes** and **closed timestamps**.
///
/// Two claims under test:
///
/// 1. **One consensus round per batch.** With pipelined clients keeping
///    8 writes outstanding, a leader that coalesces its queued writes
///    into one batch record / one force / one propose round sustains at
///    least 2x the write throughput of the classic one-round-per-write
///    protocol. Per-propose handling cost is set explicitly (900 µs) so
///    the unbatched run is propose-bound — the overhead group proposes
///    exist to amortize.
/// 2. **Every follower a read server.** With the leader's closed
///    timestamp piggy-backed on commit traffic, caught-up followers
///    serve pinned snapshot pages locally; under a saturating writer
///    fleet the followers, not the leaders, serve the majority of
///    snapshot pages.
pub fn fig21(quick: bool) -> io::Result<()> {
    let window = fleet_window(quick);
    let writers = if quick { 12 } else { 24 };
    let writes = Workload::Writes { keys: 10_000, value_size: 256 };
    let mut base = ssd(5, 2121);
    // Make propose handling the explicit bottleneck: the real asymmetry
    // this figure studies is per-round protocol overhead, not row work.
    base.perf.propose_service = Some(900 * MICROS);

    // Writer fleet at a given batch cap.
    let write_tput = |propose_batch| {
        let mut cfg = base.clone();
        cfg.node.propose_batch = propose_batch;
        write_rate(cfg, writers, &writes, 8, window)
    };
    let unbatched = write_tput(1);
    let batched = write_tput(8);
    let speedup = batched / unbatched.max(1.0);

    // Saturating writers plus pinned snapshot scanners with closed
    // timestamps on.
    let mut cfg = base;
    cfg.node.piggyback_commits = true;
    let mut cluster = SimCluster::new(cfg);
    fleet(&mut cluster, writers, &writes, 8, SECS, window);
    let pinned =
        Workload::Scans { keys: 10_000, rows: 64, page: 8, consistency: Consistency::SNAPSHOT_PIN };
    let scan_stats = fleet(&mut cluster, 4, &pinned, 1, 2 * SECS, window);
    cluster.run_until(window.1);
    let scans = rate(&scan_stats, window);
    let (mut follower_pages, mut leader_pages) = (0, 0);
    for range in cluster.ring.ranges() {
        let leader = cluster.leader_of(range);
        for n in cluster.ring.cohort(range) {
            let pages = cluster.with_node(n, |node| node.snapshot_pages(range)).unwrap_or(0);
            *if Some(n) == leader { &mut leader_pages } else { &mut follower_pages } += pages;
        }
    }
    let follower_share = follower_pages as f64 / ((follower_pages + leader_pages) as f64).max(1.0);

    banner("Figure 21 — Group proposes + closed timestamps");
    println!("({writers} writers @ 8 outstanding; propose handling 900 us)");
    println!("  one round per write (batch=1): {unbatched:>8.0} writes/s");
    println!("  one round per batch  (batch=8): {batched:>8.0} writes/s");
    println!("  batching speedup              : {speedup:>8.2}x");
    println!(
        "  snapshot pages, followers     : {follower_pages:>8} ({:.0}%)",
        100.0 * follower_share
    );
    println!("  snapshot pages, leaders       : {leader_pages:>8}");
    println!("  snapshot scans                : {scans:>8.1} scans/s");

    assert!(
        batched >= 2.0 * unbatched,
        "group proposes must at least double propose-bound write throughput: \
         {batched:.0}/s vs {unbatched:.0}/s"
    );
    assert!(
        follower_pages > leader_pages,
        "closed timestamps must let followers serve the majority of snapshot \
         pages: followers {follower_pages} vs leaders {leader_pages}"
    );
    assert!(scans > 0.0, "snapshot scans must flow under the writer fleet");

    let rows = [
        format!("unbatched_writes_per_s,{unbatched:.1}"),
        format!("batched_writes_per_s,{batched:.1}"),
        format!("batching_speedup,{speedup:.3}"),
        format!("snapshot_pages_followers,{follower_pages}"),
        format!("snapshot_pages_leaders,{leader_pages}"),
        format!("follower_page_share,{follower_share:.3}"),
        format!("snapshot_scans_per_s,{scans:.1}"),
    ];
    save("fig21", "metric,value", &rows)
}
