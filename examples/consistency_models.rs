//! Consistency models compared: Spinnaker's serialized conditional puts vs
//! the eventually consistent baseline's lost update (§9's caveat).
//!
//! Run with `cargo run --release --example consistency_models`.

use spinnaker::core::client::Workload;
use spinnaker::core::cluster::{ClusterConfig, SimCluster};
use spinnaker::core::partition::u64_to_key;
use spinnaker::eventual::cluster::{EClusterConfig, EventualCluster};
use spinnaker::eventual::node::{ENodeInput, EventualNode, WriteLevel};
use spinnaker::sim::{DiskProfile, SECS};

fn main() {
    println!("--- Spinnaker: optimistic concurrency via conditional put (§3) ---");
    let mut cluster =
        SimCluster::new(ClusterConfig { nodes: 5, disk: DiskProfile::Ssd, ..Default::default() });
    // Four writers fighting over the SAME key with conditional puts.
    let writers: Vec<_> = (0..4)
        .map(|_| {
            cluster.add_client(
                Workload::ConditionalPuts { keys: 1, value_size: 64 },
                2 * SECS,
                2 * SECS,
                12 * SECS,
            )
        })
        .collect();
    cluster.run_until(12 * SECS);
    let (mut ok, mut conflicts) = (0u64, 0u64);
    for w in &writers {
        let w = w.borrow();
        ok += w.completed;
        conflicts += w.cond_mismatches;
    }
    println!("  4 writers, 1 key: {ok} committed conditional puts, {conflicts} version conflicts");
    println!("  every success observed the previous version — no update was ever lost");

    println!();
    println!("--- Eventually consistent baseline: concurrent writes, one silently lost ---");
    let mut ev = EventualCluster::new(EClusterConfig {
        nodes: 5,
        disk: DiskProfile::Ssd,
        ..Default::default()
    });
    let key = u64_to_key(777);
    let range = ev.ring.range_of(&key);
    let cohort = ev.ring.cohort(range);
    // Two coordinators accept conflicting quorum writes at the same instant.
    for (i, val) in [(0usize, "from-A"), (1, "from-B")] {
        ev.inject(
            SECS,
            cohort[i],
            ENodeInput::Write {
                from: 100,
                req: i as u64 + 1,
                key: key.clone(),
                value: bytes::Bytes::copy_from_slice(val.as_bytes()),
                level: WriteLevel::Quorum,
            },
        );
    }
    ev.run_until(4 * SECS);
    let final_vals: Vec<String> = cohort
        .iter()
        .map(|&n| {
            ev.with_node(n, |node: &EventualNode| {
                node.store(range)
                    .and_then(|s| s.get_column(&key, b"c").ok().flatten())
                    .map(|cv| String::from_utf8_lossy(&cv.value).into_owned())
                    .unwrap_or_default()
            })
        })
        .collect();
    println!("  both writes were acknowledged; replicas now hold: {final_vals:?}");
    println!("  last-writer-wins converged — but the losing acknowledged write is gone.");
    println!();
    println!("This is the trade the paper quantifies: ~5-10% write latency for");
    println!("consistency you can program against.");
}
