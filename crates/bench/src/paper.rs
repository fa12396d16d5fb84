//! The paper's own figures and table (§9, Appendix D): every comparison
//! runs Spinnaker and the Cassandra-style baseline through the same
//! `sweep`, on the default 10-node configs unless a figure says
//! otherwise.

use std::io;

use spinnaker_common::{Consistency, RangeId};
use spinnaker_core::client::Workload;
use spinnaker_core::cluster::{ClusterConfig, SimCluster};
use spinnaker_core::node::Node;
use spinnaker_eventual::cluster::{EClusterConfig, EWorkload};
use spinnaker_eventual::node::ReadLevel;
use spinnaker_eventual::node::WriteLevel::{self, Quorum, Weak};
use spinnaker_eventual::{FailoverPolicy, MasterSlavePair};
use spinnaker_sim::DiskProfile::{self, Ec2Cached, Hdd, Memory, Ssd};
use spinnaker_sim::{MILLIS, SECS};

use crate::{banner, figure, save, sweep, Axis, Load};

const KEYS: u64 = 100_000;

/// Client counts of the read-heavy sweeps.
fn read_counts(quick: bool) -> Axis {
    Axis::Clients(if quick { vec![4, 32, 128] } else { vec![1, 4, 16, 48, 96, 160, 256, 384] })
}

/// Client counts of the write sweeps.
fn write_counts(quick: bool) -> Axis {
    Axis::Clients(if quick { vec![2, 16, 64] } else { vec![1, 4, 8, 16, 32, 64, 128, 192] })
}

/// The default Spinnaker cluster, logging to `disk`.
fn spin(disk: DiskProfile, workload: Workload) -> Load {
    Load::Spinnaker(ClusterConfig { disk, ..Default::default() }, workload)
}

/// The default baseline cluster, logging to `disk`.
fn ev(disk: DiskProfile, workload: EWorkload) -> Load {
    Load::Eventual(EClusterConfig { disk, ..Default::default() }, workload)
}

fn writes(keys: u64) -> Workload {
    Workload::Writes { keys, value_size: 4096 }
}

fn ev_writes(level: WriteLevel) -> EWorkload {
    EWorkload::Writes { keys: KEYS, value_size: 4096, level }
}

/// Figure 1: the master-slave availability trap, replayed step by step.
pub fn fig1(_quick: bool) -> io::Result<()> {
    println!("Figure 1 — master-slave replication losing availability with one node down");
    let mut pair = MasterSlavePair::new(10, FailoverPolicy::ContinueWithoutPeer);
    println!("(a) master LSN=10, slave LSN=10          available={}", pair.available_for_writes());
    pair.fail_slave();
    for _ in 0..10 {
        pair.write().expect("the master alone takes writes");
    }
    let (m, s) = pair.lsns();
    println!("(b) slave down; master continues to LSN={m} (slave stuck at {s})");
    pair.fail_master();
    println!("(c) master down too                      available={}", pair.available_for_writes());
    pair.recover_slave();
    println!(
        "(d) slave back, master still down        available={} (stale slave cannot serve!)",
        pair.available_for_writes()
    );
    if let Some((lo, hi)) = pair.at_risk_window() {
        println!("    committed writes LSN {lo}..={hi} are LOST if the master never returns");
    }
    println!();
    println!("With Paxos/3-way replication (Spinnaker), the cohort stays available for");
    println!("reads and writes as long as any majority is alive — regardless of the");
    println!("failure sequence. See `cargo run --example failover`.");
    Ok(())
}

/// Figure 8: average read latency vs load — Spinnaker consistent and
/// timeline reads vs Cassandra quorum and weak reads.
pub fn fig8(quick: bool) -> io::Result<()> {
    let counts = read_counts(quick);
    let spin_reads = |consistency| spin(Hdd, Workload::Reads { keys: KEYS, consistency });
    let ev_reads = |level| ev(Hdd, EWorkload::Reads { keys: KEYS, level });
    let series = [
        sweep("Spinnaker Consistent Reads", &spin_reads(Consistency::Strong), &counts, quick),
        sweep("Spinnaker Timeline Reads", &spin_reads(Consistency::Timeline), &counts, quick),
        sweep("Cassandra Quorum Reads", &ev_reads(ReadLevel::Quorum), &counts, quick),
        sweep("Cassandra Weak Reads", &ev_reads(ReadLevel::Weak), &counts, quick),
    ];
    figure("fig8", "Figure 8 — Average read latency vs load", &series)
}

/// Figure 9: average write latency vs load — Spinnaker writes vs
/// Cassandra quorum writes, 4 KB values, magnetic-disk log.
pub fn fig9(quick: bool) -> io::Result<()> {
    let counts = write_counts(quick);
    let series = [
        sweep("Spinnaker Writes", &spin(Hdd, writes(KEYS)), &counts, quick),
        sweep("Cassandra Quorum Writes", &ev(Hdd, ev_writes(Quorum)), &counts, quick),
    ];
    figure("fig9", "Figure 9 — Average write latency vs load (HDD log)", &series)
}

/// Figure 11: write latency vs cluster size with fixed per-node load on
/// EC2-like hardware (§D.2). Expectation: roughly flat.
pub fn fig11(quick: bool) -> io::Result<()> {
    let nodes = Axis::Nodes(if quick { vec![20, 40] } else { vec![20, 40, 80] });
    let series = [
        sweep("Spinnaker Writes", &spin(Ec2Cached, writes(KEYS)), &nodes, quick),
        sweep("Cassandra Quorum Writes", &ev(Ec2Cached, ev_writes(Quorum)), &nodes, quick),
    ];
    let title = "Figure 11 — Write latency vs cluster size, fixed per-node load (x = nodes)";
    figure("fig11", title, &series)
}

/// Figure 12: average latency on a mixed read/write workload as the
/// write percentage grows (load fixed at 2 client threads, §D.3).
pub fn fig12(quick: bool) -> io::Result<()> {
    let pcts = Axis::WritePct(if quick { vec![10, 50] } else { vec![0, 10, 20, 30, 40, 50, 60] });
    let (keys, value_size, write_pct) = (KEYS, 4096, 0);
    let spin_mixed =
        |consistency| spin(Hdd, Workload::Mixed { keys, value_size, write_pct, consistency });
    let ev_mixed = |read_level| {
        ev(Hdd, EWorkload::Mixed { keys, value_size, write_pct, read_level, write_level: Quorum })
    };
    let series = [
        sweep("Spinnaker Consistent Reads", &spin_mixed(Consistency::Strong), &pcts, quick),
        sweep("Spinnaker Timeline Reads", &spin_mixed(Consistency::Timeline), &pcts, quick),
        sweep("Cassandra Quorum Reads", &ev_mixed(ReadLevel::Quorum), &pcts, quick),
        sweep("Cassandra Weak Reads", &ev_mixed(ReadLevel::Weak), &pcts, quick),
    ];
    let title = "Figure 12 — Mixed workload latency vs write percentage (x = write %)";
    figure("fig12", title, &series)
}

/// Figure 13: average write latency with an SSD logging device (§D.4).
pub fn fig13(quick: bool) -> io::Result<()> {
    let counts = write_counts(quick);
    let series = [
        sweep("Spinnaker Writes (SSD Log)", &spin(Ssd, writes(KEYS)), &counts, quick),
        sweep("Cassandra Quorum Writes (SSD Log)", &ev(Ssd, ev_writes(Quorum)), &counts, quick),
    ];
    figure("fig13", "Figure 13 — Average write latency with an SSD log", &series)
}

/// Figure 14: conditional put vs regular put in Spinnaker (§D.5).
pub fn fig14(quick: bool) -> io::Result<()> {
    let counts = write_counts(quick);
    let cond = spin(Hdd, Workload::ConditionalPuts { keys: 4096, value_size: 4096 });
    let series = [
        sweep("Spinnaker Conditional Put", &cond, &counts, quick),
        sweep("Spinnaker Regular Put", &spin(Hdd, writes(4096)), &counts, quick),
    ];
    figure("fig14", "Figure 14 — Conditional put vs regular put", &series)
}

/// Figure 15: weak vs quorum writes in Cassandra (§D.6.1).
pub fn fig15(quick: bool) -> io::Result<()> {
    let counts = write_counts(quick);
    let series = [
        sweep("Cassandra Weak Writes", &ev(Hdd, ev_writes(Weak)), &counts, quick),
        sweep("Cassandra Quorum Writes", &ev(Hdd, ev_writes(Quorum)), &counts, quick),
    ];
    figure("fig15", "Figure 15 — Weak vs quorum writes in Cassandra", &series)
}

/// Figure 16: Spinnaker write latency committing to 2/3 main-memory logs
/// (§D.6.2) — strong consistency with weak durability.
pub fn fig16(quick: bool) -> io::Result<()> {
    let load = spin(Memory, writes(KEYS));
    let series = [sweep("Spinnaker Writes (Main-Memory Log)", &load, &write_counts(quick), quick)];
    figure("fig16", "Figure 16 — Average write latency with a main-memory log", &series)
}

/// Table 1: cohort recovery time vs commit period (§D.1). A single client
/// writes to one cohort; the leader is killed (session expiry immediate,
/// matching the paper's exclusion of the 2 s detection timeout); recovery
/// time = first post-kill commit minus kill time.
///
/// The paper's table grows with the commit period because the unresolved
/// tail `(l.cmt, l.lst]` the new leader must re-propose does (its third
/// column here). How steeply depends on what resolving it costs. The
/// paper's system, and this one until takeover moved the tail in
/// groups, re-proposed write by write: one follower log force (~12 ms on
/// the simulated disk of this table) per write. Groups of up to 64
/// writes pay that force once per group, at 1/64 of the slope. A
/// follower that already holds the tail now vouches for it in its
/// catch-up confirmation — one force, one round — and the leader commits
/// it on that word, so recovery no longer follows the tail at all; the
/// proportionality is left in the tail column. A follower that has
/// committed what the new leader has vouches on the leader's hello, with
/// no catch-up round before it. On record, all four ways (the full
/// sweep, default physics, seed 42):
///
/// | commit period | tail (writes) | per-write re-propose | grouped | vouched | on the hello |
/// |---|---|---|---|---|---|
/// | 1 s  |  36 | 0.45 s | 0.05 s | 0.05 s | 0.04 s |
/// | 5 s  | 185 | 2.27 s | 0.06 s | 0.04 s | 0.04 s |
/// | 10 s | 371 | 4.44 s | 0.13 s | 0.04 s | 0.05 s |
/// | 15 s | 559 | 6.79 s | 0.15 s | 0.04 s | 0.06 s |
///
/// (The vouched runs' tails are 35, 185 or 187, 369 or 371, and 559
/// writes: their timings differ by a few writes.) The run asserts that
/// claim: no commit period recovers more than one 5 ms step slower than
/// the shortest. Once the tail is vouched for, what is left of recovery
/// is mostly one log force at the follower, which the simulated disk
/// draws at 12 to 36 ms, so that margin is narrower than the spread
/// (ROADMAP item 10): over cluster seeds 1 to 1000 each period recovers
/// in 38 to 41 ms on average, with no trend in the tail, with or without
/// the catch-up round.
pub fn tab1(quick: bool) -> io::Result<()> {
    let periods: Vec<u64> = if quick { vec![1, 5] } else { vec![1, 5, 10, 15] };
    banner("Table 1 — Cohort recovery time vs commit period");
    println!(
        "{:>18} {:>18} {:>24}",
        "Commit Period (s)", "Recovery Time (s)", "Re-proposed tail (writes)"
    );
    let mut rows = Vec::new();
    let mut recoveries = Vec::new();
    for &period in &periods {
        let mut cfg = ClusterConfig { nodes: 5, ..Default::default() };
        cfg.node.commit_period = period * SECS;
        let mut cluster = SimCluster::new(cfg);
        let horizon = (25 + 4 * period) * SECS;
        cluster.add_client(Workload::SingleRangeWrites { value_size: 4096 }, SECS, 0, horizon);
        // Kill just before the next periodic commit message fires, so a
        // full commit period's worth of writes sits uncommitted at the
        // followers — the worst case the paper's table characterizes.
        // (Commit timers fire at multiples of the period from node start.)
        let kill_at = 3 * period * SECS - SECS / 20;
        cluster.run_until(kill_at);
        let range0 = RangeId(0);
        let leader = cluster.leader_of(range0).expect("led");
        // What each survivor would have to re-propose as the new leader:
        // its log past its committed watermark, `(f.cmt, f.lst]`.
        let tail = |node: &Node| node.last_lsn(range0).seq() - node.last_committed(range0).seq();
        let tails: Vec<(u32, u64)> = cluster
            .ring
            .cohort(range0)
            .into_iter()
            .filter(|&n| n != leader)
            .map(|n| (n, cluster.with_node(n, tail).expect("up")))
            .collect();
        cluster.crash_node(kill_at, leader, true);
        // Step in 5 ms increments until the cohort is open for writes
        // again (a new leader finished takeover) — the paper's metric.
        let step = 5 * MILLIS;
        let open_at =
            (1..).map(|k| kill_at + k * step).take_while(|t| t - step < horizon).find_map(|t| {
                cluster.run_until(t);
                cluster.leader_of(range0).filter(|&l| l != leader).map(|l| (t, l))
            });
        cluster.run_until(horizon);
        let (t, new_leader) = open_at
            .unwrap_or_else(|| panic!("commit period {period} s: the cohort never reopened"));
        recoveries.push(t - kill_at);
        let recovery = (t - kill_at) as f64 / 1e9;
        let tail = tails.iter().find(|(n, _)| *n == new_leader).map_or(0, |(_, tail)| *tail);
        println!("{:>18} {:>18.2} {:>24}", period, recovery, tail);
        rows.push(format!("{period},{recovery:.3},{tail}"));
    }
    save("tab1", "commit_period_s,recovery_s,reproposed_writes", &rows)?;
    let shortest = recoveries[0];
    assert!(
        recoveries.iter().all(|&r| r <= shortest + 5 * MILLIS),
        "recovery grew with the tail: {recoveries:?} ns for commit periods {periods:?} s"
    );
    Ok(())
}
