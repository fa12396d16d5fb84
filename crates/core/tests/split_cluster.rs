//! End-to-end tests of dynamic range splitting on the simulated cluster:
//! a leader splits a live range at a barrier LSN, the children inherit the
//! replicas, clients transparently re-route after `WrongRange`, and the
//! whole dance survives a concurrently crashing leader.

use spinnaker_common::RangeId;
use spinnaker_core::client::Workload;
use spinnaker_core::cluster::{ClusterConfig, SimCluster};
use spinnaker_core::node::Role;
use spinnaker_core::partition::u64_to_key;
use spinnaker_sim::{DiskProfile, MILLIS, SECS};

fn quick_cluster(nodes: usize, seed: u64) -> SimCluster {
    let mut cfg = ClusterConfig { nodes, seed, disk: DiskProfile::Ssd, ..Default::default() };
    cfg.node.commit_period = 200 * MILLIS;
    SimCluster::new(cfg)
}

/// The range-0 span is the hot one: `SingleRangeWrites` keys live in
/// `[0, 4096)`, so splitting at 2048 halves the hot keys.
const HOT_SPLIT: u64 = 2048;

#[test]
fn split_under_live_writes_loses_and_duplicates_nothing() {
    let mut cluster = quick_cluster(5, 11);
    // Conditional-put chains are a loss/duplication detector: each write's
    // expected version is the version the previous `WriteOk` returned, so
    // with one writer per key *any* lost committed write or duplicated
    // apply surfaces as a VersionMismatch. (The chain must own its keys
    // exclusively — a second writer on a shared key would trip the
    // detector for mundane reasons.) Its 40 keys spread over the whole
    // space, so several live inside the range being split.
    let cond = cluster.add_client(
        Workload::ConditionalPuts { keys: 40, value_size: 64 },
        2 * SECS,
        2 * SECS,
        24 * SECS,
    );
    // Extra traffic, read-only so it cannot disturb the chains.
    let reads = cluster.add_client(
        Workload::Reads { keys: 10_000, consistency: spinnaker_common::Consistency::Strong },
        2 * SECS,
        2 * SECS,
        24 * SECS,
    );

    cluster.run_until(6 * SECS);
    assert_eq!(cluster.current_ring().version(), 1, "not split yet");
    cluster.split_range(6 * SECS, RangeId(0), u64_to_key(HOT_SPLIT));
    cluster.run_until(24 * SECS);

    // The table advanced and range 0 dissolved into two led children.
    let ring = cluster.current_ring();
    assert_eq!(ring.version(), 2, "exactly one split happened");
    assert!(ring.def(RangeId(0)).is_none(), "parent removed from the table");
    let children = ring.children_of(RangeId(0));
    assert_eq!(children.len(), 2);
    let (left, right) = (children[0].id, children[1].id);
    assert_eq!(ring.range_of(&u64_to_key(0)), left);
    assert_eq!(ring.range_of(&u64_to_key(HOT_SPLIT)), right);
    assert!(cluster.all_ranges_led(), "every current range has an open leader");

    // Zero lost or duplicated committed writes across the split.
    let c = cond.borrow();
    assert!(c.completed > 200, "conditional puts flowed: {}", c.completed);
    assert_eq!(c.cond_mismatches, 0, "no write was lost or applied twice");
    let refreshes = c.ring_refreshes + reads.borrow().ring_refreshes;
    assert!(refreshes >= 1, "clients refreshed their table after WrongRange");
    drop(c);

    // Both children elected leaders and — by design — on *different*
    // nodes: the right child's preference moved to the next replica.
    let ll = cluster.leader_of(left).expect("left child led");
    let rl = cluster.leader_of(right).expect("right child led");
    assert_ne!(ll, rl, "the split spread leadership across the cohort");

    // Replicas of each child converge on the same committed prefix.
    cluster.run_until(26 * SECS);
    for child in [left, right] {
        let members = cluster.current_ring().cohort(child);
        let committed: Vec<_> = members
            .iter()
            .map(|&n| cluster.with_node(n, |node| node.last_committed(child)).unwrap())
            .collect();
        let max = *committed.iter().max().unwrap();
        for (i, &c) in committed.iter().enumerate() {
            assert!(
                max.as_u64() - c.as_u64() < 1 << 16,
                "member {} of {child} lags: {c} vs {max}",
                members[i]
            );
        }
    }
}

#[test]
fn hot_range_writes_keep_flowing_through_a_split() {
    let mut cluster = quick_cluster(5, 13);
    let hot = cluster.add_client(
        Workload::SpanWrites { value_size: 64, lo: 0, hi: 4096 },
        2 * SECS,
        2 * SECS,
        20 * SECS,
    );
    hot.borrow_mut().trace = Some(Vec::new());
    cluster.run_until(6 * SECS);
    cluster.split_range(6 * SECS, RangeId(0), u64_to_key(HOT_SPLIT));
    cluster.run_until(20 * SECS);

    assert_eq!(cluster.current_ring().version(), 2);
    let h = hot.borrow();
    assert!(h.ring_refreshes >= 1, "hot writer re-routed via WrongRange");
    let trace = h.trace.as_ref().unwrap();
    let after = trace.iter().filter(|(t, _)| *t > 8 * SECS).count();
    assert!(after > 200, "writes kept flowing after the split: {after}");
}

#[test]
fn late_client_rejoins_via_wrong_range_refresh() {
    let mut cluster = quick_cluster(5, 12);
    cluster.run_until(3 * SECS);
    cluster.split_range(3 * SECS, RangeId(0), u64_to_key(HOT_SPLIT));
    cluster.run_until(5 * SECS);
    assert_eq!(cluster.current_ring().version(), 2);

    // This client is built from the *initial* table (version 1), so its
    // first hot-range write must bounce with WrongRange, refresh, and
    // then flow.
    let stats = cluster.add_client(
        Workload::SingleRangeWrites { value_size: 64 },
        5 * SECS,
        5 * SECS,
        10 * SECS,
    );
    cluster.run_until(10 * SECS);
    let s = stats.borrow();
    assert!(s.ring_refreshes >= 1, "stale client refreshed its table");
    assert!(s.completed > 100, "writes flowed after the refresh: {}", s.completed);
}

#[test]
fn chained_splits_with_a_replica_down_across_both() {
    // A replica that misses *two* successive splits of its range (the
    // second splits a child of the first) must still rejoin: the range
    // table is several versions ahead, so recovery cannot assume a
    // one-split lineage.
    let mut cluster = quick_cluster(5, 31);
    let cond = cluster.add_client(
        Workload::ConditionalPuts { keys: 40, value_size: 64 },
        2 * SECS,
        2 * SECS,
        30 * SECS,
    );
    cluster.run_until(4 * SECS);
    let leader = cluster.leader_of(RangeId(0)).expect("range 0 led");
    let follower =
        cluster.current_ring().cohort(RangeId(0)).into_iter().find(|&n| n != leader).unwrap();

    // The follower sleeps through both splits.
    cluster.crash_node(4 * SECS, follower, true);
    cluster.run_until(5 * SECS);
    cluster.split_range(5 * SECS, RangeId(0), u64_to_key(HOT_SPLIT));
    cluster.run_until(8 * SECS);
    let ring = cluster.current_ring();
    assert_eq!(ring.version(), 2, "first split completed on the live majority");
    let left = ring.children_of(RangeId(0))[0].id;
    cluster.split_range(8 * SECS, left, u64_to_key(HOT_SPLIT / 2));
    cluster.run_until(11 * SECS);
    assert_eq!(cluster.current_ring().version(), 3, "chained split completed");

    cluster.restart_node(11 * SECS, follower);
    cluster.run_until(26 * SECS);

    // The restarted replica serves every range the final table assigns it.
    let ring = cluster.current_ring();
    assert!(cluster.all_ranges_led());
    for range in ring.ranges_of(follower) {
        let role = cluster.with_node(follower, |n| n.role(range)).unwrap();
        assert!(
            matches!(role, Role::Leader | Role::Follower),
            "restarted replica serves {range} (role {role:?})"
        );
    }
    // And the conditional chains never observed a lost or duplicated
    // committed write through the whole dance.
    let c = cond.borrow();
    assert!(c.completed > 200, "conditional puts flowed: {}", c.completed);
    assert_eq!(c.cond_mismatches, 0, "no write was lost or applied twice");
}

#[test]
fn split_concurrent_with_leader_failure_completes_or_aborts() {
    // Crash the splitting leader at increasing delays after the split
    // request: early crashes abort the split (the request dies with the
    // leader), later ones complete it (metadata already published). Either
    // way the cluster must converge: every range in the *current* table
    // gets a leader and writes resume.
    for (seed, crash_after) in [(21u64, 0u64), (22, 5), (23, 25), (24, 250)] {
        let mut cluster = quick_cluster(5, seed);
        let stats = cluster.add_client(
            Workload::SingleRangeWrites { value_size: 64 },
            SECS,
            SECS,
            30 * SECS,
        );
        stats.borrow_mut().trace = Some(Vec::new());
        cluster.run_until(4 * SECS);
        let leader = cluster.leader_of(RangeId(0)).expect("range 0 led");

        cluster.split_range(4 * SECS, RangeId(0), u64_to_key(HOT_SPLIT));
        cluster.crash_node(4 * SECS + crash_after * MILLIS, leader, true);
        cluster.run_until(20 * SECS);

        let ring = cluster.current_ring();
        let version = ring.version();
        assert!(
            version == 1 || version == 2,
            "seed {seed}: split either aborted or completed once, version {version}"
        );
        if version == 1 {
            assert!(ring.def(RangeId(0)).is_some(), "aborted split keeps the parent");
        } else {
            assert!(ring.def(RangeId(0)).is_none(), "completed split removes the parent");
            assert_eq!(ring.children_of(RangeId(0)).len(), 2);
        }
        assert!(
            cluster.all_ranges_led(),
            "seed {seed} (crash +{crash_after}ms): every live range re-elected a leader"
        );
        let s = stats.borrow();
        let trace = s.trace.as_ref().unwrap();
        let after = trace.iter().filter(|(t, _)| *t > 12 * SECS).count();
        assert!(after > 20, "seed {seed} (crash +{crash_after}ms): writes resumed, got {after}");
        drop(s);

        // The crashed leader restarts and rejoins whatever the table now
        // says — including bootstrapping child stores from its local
        // parent state when the split completed while it was down.
        cluster.restart_node(20 * SECS, leader);
        cluster.run_until(28 * SECS);
        for range in cluster.current_ring().ranges_of(leader) {
            let role = cluster.with_node(leader, |n| n.role(range)).unwrap();
            assert!(
                matches!(role, Role::Leader | Role::Follower),
                "seed {seed}: restarted node serves {range} (role {role:?})"
            );
        }
    }
}
