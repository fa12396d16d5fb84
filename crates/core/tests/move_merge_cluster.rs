//! End-to-end tests of cohort movement and range merging on the
//! simulated cluster: a replica moves to a node outside the range's
//! original replica set (snapshot + log-tail handoff, CAS cohort swap)
//! while client traffic continues, a departing leader hands leadership
//! to the joining node, split children merge back into one range under
//! live conditional-put chains, load/size statistics trigger resharding
//! without an admin RPC, and dissolved ranges' local state is garbage
//! collected after the quiesce period.

use spinnaker_common::vfs::Vfs;
use spinnaker_common::RangeId;
use spinnaker_core::client::Workload;
use spinnaker_core::cluster::{ClusterConfig, SimCluster};
use spinnaker_core::node::{ReshardPolicy, Role};
use spinnaker_core::partition::u64_to_key;
use spinnaker_sim::{DiskProfile, MILLIS, SECS};

fn quick_cluster(nodes: usize, seed: u64) -> SimCluster {
    let mut cfg = ClusterConfig { nodes, seed, disk: DiskProfile::Ssd, ..Default::default() };
    cfg.node.commit_period = 200 * MILLIS;
    SimCluster::new(cfg)
}

/// `SingleRangeWrites` / the conditional chains put several keys inside
/// range 0's span `[0, 4096)`.
const HOT_SPLIT: u64 = 2048;

#[test]
fn replica_moves_to_a_node_outside_the_original_ring_under_live_chains() {
    // Range 0's cohort in the 5-node ring is {0, 1, 2}; node 4 was never
    // part of that replica set ("ring") — the move must stream it a
    // snapshot, catch it up, and CAS it into the cohort while
    // conditional-put chains observe zero lost or duplicated acks.
    let mut cluster = quick_cluster(5, 41);
    let cond = cluster.add_client(
        Workload::ConditionalPuts { keys: 40, value_size: 64 },
        2 * SECS,
        2 * SECS,
        24 * SECS,
    );
    cluster.run_until(5 * SECS);
    let before = cluster.current_ring();
    assert_eq!(before.cohort(RangeId(0)), vec![0, 1, 2]);
    assert_eq!(before.def(RangeId(0)).unwrap().gen, 0);

    cluster.move_replica(5 * SECS, RangeId(0), 2, 4);
    cluster.run_until(24 * SECS);

    // The table committed the swap: same range id, new replica set, two
    // generation bumps (begin + commit), no marker left behind.
    let ring = cluster.current_ring();
    let def = ring.def(RangeId(0)).expect("range 0 still live").clone();
    assert_eq!(def.cohort, vec![0, 1, 4], "node 4 replaced node 2 in place");
    assert_eq!(def.gen, 2, "begin + commit each bumped the generation");
    assert_eq!(def.moving, None, "no move marker left behind");

    // The joining node serves the range; the departing node detached.
    let role4 = cluster.with_node(4, |n| n.role(RangeId(0))).unwrap();
    assert!(matches!(role4, Role::Leader | Role::Follower), "node 4 serves range 0: {role4:?}");
    assert!(
        !cluster.with_node(2, |n| n.served_ranges().contains(&RangeId(0))).unwrap(),
        "node 2 detached its range-0 replica"
    );
    assert!(cluster.all_ranges_led());

    // Zero lost or duplicated committed writes across the movement, and
    // clients re-routed through the table-version bumps.
    let c = cond.borrow();
    assert!(c.completed > 200, "conditional puts flowed: {}", c.completed);
    assert_eq!(c.cond_mismatches, 0, "no write was lost or applied twice");
    assert!(c.ring_refreshes >= 1, "clients refreshed the table after WrongRange");
}

#[test]
fn moved_replica_holds_committed_data_and_serves_after_leader_crash() {
    // After the move, crash the leader: the cohort {0, 1, 4} must
    // re-elect among its *current* members and keep every committed
    // write — which proves the snapshot + log-tail handoff really gave
    // node 4 the data, not just a table entry.
    let mut cluster = quick_cluster(5, 43);
    let cond = cluster.add_client(
        Workload::ConditionalPuts { keys: 40, value_size: 64 },
        2 * SECS,
        2 * SECS,
        30 * SECS,
    );
    cluster.run_until(5 * SECS);
    cluster.move_replica(5 * SECS, RangeId(0), 2, 4);
    cluster.run_until(14 * SECS);
    assert_eq!(cluster.current_ring().cohort(RangeId(0)), vec![0, 1, 4]);

    let leader = cluster.leader_of(RangeId(0)).expect("range 0 led");
    cluster.crash_node(14 * SECS, leader, true);
    cluster.run_until(30 * SECS);

    let new_leader = cluster.leader_of(RangeId(0)).expect("re-elected after crash");
    assert_ne!(new_leader, leader);
    assert!(
        cluster.current_ring().cohort(RangeId(0)).contains(&new_leader),
        "the new leader is a current cohort member"
    );
    let c = cond.borrow();
    assert!(c.completed > 200, "writes kept flowing: {}", c.completed);
    assert_eq!(c.cond_mismatches, 0, "no committed write lost across move + crash");
}

#[test]
fn leader_replica_move_hands_leadership_to_the_joining_node() {
    // Moving the *leader's own* replica: the leader drains its queue,
    // commits the swap, releases the leader znode, and the election's
    // home preference (retargeted by the commit CAS) steers leadership
    // to the joining node.
    let mut cluster = quick_cluster(5, 42);
    let writes = cluster.add_client(
        Workload::SingleRangeWrites { value_size: 64 },
        2 * SECS,
        2 * SECS,
        24 * SECS,
    );
    writes.borrow_mut().trace = Some(Vec::new());
    cluster.run_until(5 * SECS);
    assert_eq!(cluster.leader_of(RangeId(0)), Some(0), "home node leads initially");

    cluster.move_replica(5 * SECS, RangeId(0), 0, 3);
    cluster.run_until(24 * SECS);

    let ring = cluster.current_ring();
    let def = ring.def(RangeId(0)).unwrap();
    assert_eq!(def.cohort, vec![3, 1, 2], "node 3 took node 0's slot");
    assert_eq!(def.home, 3, "preferred leadership followed the departing leader");
    assert_eq!(cluster.leader_of(RangeId(0)), Some(3), "the joining node leads");
    assert!(
        !cluster.with_node(0, |n| n.served_ranges().contains(&RangeId(0))).unwrap(),
        "node 0 detached"
    );
    let s = writes.borrow();
    let after = s.trace.as_ref().unwrap().iter().filter(|(t, _)| *t > 12 * SECS).count();
    assert!(after > 100, "writes kept flowing under the new leader: {after}");
}

#[test]
fn split_children_merge_back_under_live_chains() {
    // The full round trip: split the hot range (leadership of the right
    // child moves to node 1), then merge the children back. The left
    // child's leader coordinates, the right child's leader barriers on
    // request — and the conditional chains must never observe a lost or
    // duplicated committed write.
    let mut cluster = quick_cluster(5, 44);
    let cond = cluster.add_client(
        Workload::ConditionalPuts { keys: 40, value_size: 64 },
        2 * SECS,
        2 * SECS,
        30 * SECS,
    );
    cluster.run_until(5 * SECS);
    cluster.split_range(5 * SECS, RangeId(0), u64_to_key(HOT_SPLIT));
    cluster.run_until(12 * SECS);
    let ring = cluster.current_ring();
    assert_eq!(ring.version(), 2, "split completed");
    let children = ring.children_of(RangeId(0));
    let (left, right) = (children[0].id, children[1].id);
    assert_ne!(
        cluster.leader_of(left),
        cluster.leader_of(right),
        "the split spread leadership — the merge must pull it back together"
    );

    cluster.merge_ranges(12 * SECS, left, right);
    cluster.run_until(30 * SECS);

    let ring = cluster.current_ring();
    assert_eq!(ring.version(), 3, "exactly one merge happened");
    assert!(ring.def(left).is_none() && ring.def(right).is_none(), "children dissolved");
    let merged = ring.range_of(&u64_to_key(0));
    let def = ring.def(merged).unwrap();
    assert_eq!(def.start, spinnaker_common::Key::default());
    assert_eq!(def.end.as_ref(), Some(&u64_to_key(u64::MAX / 5)), "original span restored");
    assert_eq!(ring.range_of(&u64_to_key(HOT_SPLIT)), merged, "both sides route to the merge");
    assert!(cluster.all_ranges_led(), "the merged range elected a leader");

    {
        let c = cond.borrow();
        assert!(c.completed > 200, "conditional puts flowed: {}", c.completed);
        assert_eq!(c.cond_mismatches, 0, "no write was lost or applied twice");
    }

    // Replicas of the merged range converge on the same committed
    // prefix (catch-up worked across the merge).
    cluster.run_until(32 * SECS);
    let members = cluster.current_ring().cohort(merged);
    let committed: Vec<_> = members
        .iter()
        .map(|&n| cluster.with_node(n, |node| node.last_committed(merged)).unwrap())
        .collect();
    let max = *committed.iter().max().unwrap();
    for (i, &c) in committed.iter().enumerate() {
        assert!(
            max.as_u64() - c.as_u64() < 1 << 16,
            "member {} of {merged} lags: {c} vs {max}",
            members[i]
        );
    }
}

#[test]
fn merge_completes_when_one_node_leads_both_siblings() {
    // Regression: when the coordinator leads *both* siblings, the right
    // sibling's barrier must still be announced even though its commit
    // queue is already empty — no acks or forces ever arrive on an idle
    // range to trigger it. (This seed deterministically re-elects the
    // crashed right child's leadership onto node 0, which already leads
    // the left child.) The merge also runs with one replica down, and
    // that replica must reconcile into the merged range from the table
    // alone when it restarts.
    let mut cluster = quick_cluster(5, 51);
    cluster.run_until(3 * SECS);
    cluster.split_range(3 * SECS, RangeId(0), u64_to_key(HOT_SPLIT));
    cluster.run_until(5 * SECS);
    let ring = cluster.current_ring();
    let children = ring.children_of(RangeId(0));
    let (left, right) = (children[0].id, children[1].id);
    let right_leader = cluster.leader_of(right).expect("right child led");
    cluster.crash_node(5 * SECS, right_leader, true);
    cluster.run_until(8 * SECS);
    assert_eq!(
        cluster.leader_of(left),
        cluster.leader_of(right),
        "precondition: one node leads both siblings (seed-dependent re-election)"
    );

    cluster.merge_ranges(8 * SECS, left, right);
    // Well within the merge timeout (`MERGE_TIMEOUT`, 10 s): an
    // un-announced local barrier used to wedge until the timeout aborted
    // it.
    cluster.run_until(11 * SECS);
    let ring = cluster.current_ring();
    assert_eq!(ring.version(), 3, "the merge completed promptly, no timeout-abort cycle");
    let merged = ring.range_of(&u64_to_key(0));
    assert!(ring.def(left).is_none() && ring.def(right).is_none());
    assert!(cluster.all_ranges_led());

    // The downed replica slept through the merge: on restart it must
    // serve the merged range, rebuilt from the table + catch-up.
    cluster.restart_node(11 * SECS, right_leader);
    cluster.run_until(24 * SECS);
    let role = cluster.with_node(right_leader, |n| n.role(merged)).unwrap();
    assert!(
        matches!(role, Role::Leader | Role::Follower),
        "restarted replica serves the merged range (role {role:?})"
    );
}

#[test]
fn load_and_size_statistics_trigger_resharding_without_admin_rpcs() {
    // Auto-split: a tiny size threshold makes the hot range split on its
    // own once enough bytes accumulate. Auto-merge: thresholds that mark
    // everything cold-and-small pull split children back together. Both
    // run purely off the maintenance-tick statistics.
    let mut cfg =
        ClusterConfig { nodes: 5, seed: 45, disk: DiskProfile::Ssd, ..Default::default() };
    cfg.node.commit_period = 200 * MILLIS;
    cfg.node.reshard = Some(ReshardPolicy {
        split_ops_per_sec: f64::INFINITY, // size-triggered only
        split_bytes: 96 << 10,
        merge_ops_per_sec: -1.0, // merges disabled in this phase
        merge_bytes: 0,
    });
    let mut cluster = SimCluster::new(cfg);
    let writes =
        cluster.add_client(Workload::SingleRangeWrites { value_size: 512 }, SECS, SECS, 20 * SECS);
    cluster.run_until(20 * SECS);
    let ring = cluster.current_ring();
    assert!(ring.version() > 1, "the size statistic split the growing range without an admin RPC");
    assert!(ring.def(RangeId(0)).is_none(), "the hot base range was the one split");
    assert!(cluster.all_ranges_led());
    assert!(writes.borrow().completed > 500, "writes flowed throughout");

    // Auto-merge: a fresh cluster where everything is cold and small;
    // manually split a quiet range, then let the statistics merge it
    // back (the left child's leader replicates both sides).
    let mut cfg =
        ClusterConfig { nodes: 5, seed: 46, disk: DiskProfile::Ssd, ..Default::default() };
    cfg.node.commit_period = 200 * MILLIS;
    cfg.node.reshard = Some(ReshardPolicy {
        split_ops_per_sec: f64::INFINITY,
        split_bytes: u64::MAX,
        merge_ops_per_sec: 5.0,
        merge_bytes: 1 << 20,
    });
    let mut cluster = SimCluster::new(cfg);
    cluster.run_until(3 * SECS);
    cluster.split_range(3 * SECS, RangeId(0), u64_to_key(HOT_SPLIT));
    // The statistics notice the cold, small children within a few
    // maintenance ticks of the split and merge them straight back.
    cluster.run_until(20 * SECS);
    let ring = cluster.current_ring();
    assert_eq!(ring.version(), 3, "the cold children auto-merged");
    let merged = ring.range_of(&u64_to_key(0));
    assert_eq!(ring.range_of(&u64_to_key(HOT_SPLIT)), merged);
    assert_eq!(
        ring.def(merged).unwrap().end.as_ref(),
        Some(&u64_to_key(u64::MAX / 5)),
        "original span restored"
    );
    assert!(cluster.all_ranges_led());
}

#[test]
fn dissolved_parents_are_garbage_collected_after_the_quiesce_period() {
    let mut cluster = quick_cluster(5, 47);
    let writes =
        cluster.add_client(Workload::SingleRangeWrites { value_size: 64 }, SECS, SECS, 16 * SECS);
    cluster.run_until(3 * SECS);
    cluster.split_range(3 * SECS, RangeId(0), u64_to_key(HOT_SPLIT));
    cluster.run_until(5 * SECS);
    assert_eq!(cluster.current_ring().version(), 2, "split completed");
    // The parent's election state survives the split itself (watch
    // ordering), and its store directory is still on disk.
    assert!(
        cluster.world.coord.borrow_mut().get_data("/r0/epoch", None).is_ok(),
        "parent znodes linger until the quiesce period passes"
    );

    // Default gc_quiesce is 5 s; run well past it.
    cluster.run_until(16 * SECS);
    assert!(
        cluster.world.coord.borrow_mut().exists("/r0", None).unwrap().is_none(),
        "the dissolved parent's /r0 subtree was deleted"
    );
    for node in cluster.current_ring().cohort(cluster.current_ring().range_of(&u64_to_key(0))) {
        let files = cluster.node_vfs(node).list("store-r0/").unwrap();
        assert!(files.is_empty(), "node {node} still holds parent store files: {files:?}");
        let indexed = cluster.with_node(node, |n| n.wal().indexed_records(RangeId(0))).unwrap_or(0);
        assert_eq!(indexed, 0, "node {node} still indexes the parent's WAL stream");
    }
    assert!(writes.borrow().completed > 200, "writes flowed throughout the GC");
}
