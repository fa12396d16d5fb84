//! Table 1: cohort recovery time vs commit period (§D.1). A single client
//! writes to one cohort; the leader is killed (session expiry immediate,
//! matching the paper's exclusion of the 2 s detection timeout); recovery
//! time = first post-kill commit minus kill time.
//!
//! The paper's table grows with the commit period because the unresolved
//! tail `(l.cmt, l.lst]` the new leader must re-propose does (its third
//! column here). How steeply depends on what one re-proposal round
//! carries. The paper's system, and this one until takeover moved the
//! tail in groups, re-proposed write by write: one follower log force
//! (~12 ms on the simulated disk of this table) per write. Groups of up
//! to 64 writes pay that force once per group, and the table flattens —
//! the proportionality is still there, in the tail column and in the
//! number of rounds, at 1/64 of the slope. On record, both ways (the
//! full sweep, `spin_base` physics, seed 42):
//!
//! | commit period | tail (writes) | per-write re-propose | grouped |
//! |---|---|---|---|
//! | 1 s  |  36 | 0.45 s | 0.05 s |
//! | 5 s  | 185 | 2.27 s | 0.06 s |
//! | 10 s | 371 | 4.44 s | 0.13 s |
//! | 15 s | 559 | 6.79 s | 0.15 s |

use spinnaker_bench as b;
use spinnaker_core::client::Workload;
use spinnaker_core::cluster::SimCluster;
use spinnaker_sim::SECS;

fn main() {
    let periods: Vec<u64> = if b::quick() { vec![1, 5] } else { vec![1, 5, 10, 15] };
    println!("==============================================================");
    println!("Table 1 — Cohort recovery time vs commit period");
    println!("==============================================================");
    println!(
        "{:>18} {:>18} {:>24}",
        "Commit Period (s)", "Recovery Time (s)", "Re-proposed tail (writes)"
    );
    let mut rows = Vec::new();
    for &period in &periods {
        let mut cfg = b::spin_base();
        cfg.nodes = 5;
        cfg.node.commit_period = period * SECS;
        let mut cluster = SimCluster::new(cfg);
        let horizon = (25 + 4 * period) * SECS;
        let stats =
            cluster.add_client(Workload::SingleRangeWrites { value_size: 4096 }, SECS, 0, horizon);
        stats.borrow_mut().trace = Some(Vec::new());
        // Kill just before the next periodic commit message fires, so a
        // full commit period's worth of writes sits uncommitted at the
        // followers — the worst case the paper's table characterizes.
        // (Commit timers fire at multiples of the period from node start.)
        let kill_at = 3 * period * SECS - SECS / 20;
        cluster.run_until(kill_at);
        let range0 = spinnaker_common::RangeId(0);
        let leader = cluster.leader_of(range0).expect("led");
        // What each survivor would have to re-propose as the new leader:
        // its log past its committed watermark, `(f.cmt, f.lst]`.
        let tails: Vec<(u32, u64)> = cluster
            .ring
            .cohort(range0)
            .into_iter()
            .filter(|&n| n != leader)
            .map(|n| {
                let tail = |node: &spinnaker_core::node::Node| {
                    node.last_lsn(range0).seq() - node.last_committed(range0).seq()
                };
                (n, cluster.with_node(n, tail).expect("up"))
            })
            .collect();
        cluster.crash_node(kill_at, leader, true);
        // Step in 5 ms increments until the cohort is open for writes
        // again (a new leader finished takeover) — the paper's metric.
        let mut open_at = None;
        let mut t = kill_at;
        while t < horizon {
            t += 5_000_000;
            cluster.run_until(t);
            if let Some(new_leader) = cluster.leader_of(range0) {
                if new_leader != leader {
                    open_at = Some((t, new_leader));
                    break;
                }
            }
        }
        cluster.run_until(horizon);
        let (recovery, tail) = match open_at {
            Some((t, new_leader)) => (
                (t - kill_at) as f64 / 1e9,
                tails.iter().find(|(n, _)| *n == new_leader).map_or(0, |(_, tail)| *tail),
            ),
            None => (f64::NAN, 0),
        };
        println!("{:>18} {:>18.2} {:>24}", period, recovery, tail);
        rows.push((period, recovery, tail));
    }
    // CSV
    let _ = std::fs::create_dir_all("target/experiments");
    let csv: String = std::iter::once("commit_period_s,recovery_s,reproposed_writes".to_string())
        .chain(rows.iter().map(|(p, r, tail)| format!("{p},{r:.3},{tail}")))
        .collect::<Vec<_>>()
        .join("\n");
    let _ = std::fs::write("target/experiments/tab1.csv", csv);
    println!("(csv written to target/experiments/tab1.csv)");
}
