//! End-to-end tests of cohort movement and range merging on the
//! simulated cluster: a replica moves to a node outside the range's
//! original replica set (the joiner catches up from empty, CAS cohort
//! swap) while client traffic continues, the joiner serves a snapshot
//! pinned before it joined, a departing leader hands leadership
//! to the joining node, split children merge back into one range under
//! live conditional-put chains, and dissolved ranges' local state is
//! garbage collected after the quiesce period.

use std::collections::BTreeMap;

use bytes::Bytes;
use spinnaker_common::vfs::Vfs;
use spinnaker_common::{Consistency, RangeId};
use spinnaker_core::client::Workload;
use spinnaker_core::cluster::{ClusterConfig, SimCluster};
use spinnaker_core::messages::{ClientReply, ColumnSelect};
use spinnaker_core::node::{get_request, Role};
use spinnaker_core::partition::u64_to_key;
use spinnaker_core::session::{CallOutcome, SessionCall};
use spinnaker_sim::{DiskProfile, MILLIS, SECS};

#[path = "support/probe.rs"]
mod probe;

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
    // part of that replica set ("ring") — the move must catch it up
    // from empty and CAS it into the cohort while
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
    // write — which proves the catch-up from empty really gave
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

/// The joiner starts empty and is sent the leader's store, version
/// chains and GC floor included, so it serves history from before it
/// joined. A get pinned between two writes of one key is answered by the
/// joiner, after the move commits, with the first value. The leader's
/// pin lease holds its floor at the pin (the other nodes of the range
/// retain 1 s), and the joiner's floor is the leader's.
#[test]
fn a_joiner_serves_a_snapshot_pinned_before_it_joined() {
    let mut cfg =
        ClusterConfig { nodes: 5, seed: 44, disk: DiskProfile::Ssd, ..Default::default() };
    cfg.node.commit_period = 100 * MILLIS;
    let mut cluster = SimCluster::new(cfg);
    for node in 0..4 {
        cluster.set_retention(0, node, SECS);
    }
    let key = u64_to_key(5);
    let put = |v: &str| SessionCall::Put {
        key: u64_to_key(5),
        cells: vec![(Bytes::from_static(b"c"), Bytes::copy_from_slice(v.as_bytes()))],
    };
    let pin = SessionCall::Get {
        key: key.clone(),
        columns: ColumnSelect::One(Bytes::from_static(b"c")),
        consistency: Consistency::SNAPSHOT_PIN,
    };
    let calls = cluster.add_session(vec![put("v1"), pin, put("v2")], 2 * SECS);
    cluster.run_until(5 * SECS);
    let pinned = match &calls.borrow().outcomes[..] {
        [CallOutcome::Written { .. }, CallOutcome::Row { at_ts, .. }, CallOutcome::Written { ts, .. }] =>
        {
            assert!(at_ts < ts, "the pin precedes the overwrite");
            *at_ts
        }
        other => panic!("put, pin, put: {other:?}"),
    };

    cluster.move_replica(5 * SECS, RangeId(0), 2, 4);
    cluster.run_until(9 * SECS);
    assert_eq!(cluster.current_ring().cohort(RangeId(0)), vec![0, 1, 4], "the move committed");
    let leader = cluster.leader_of(RangeId(0)).expect("range 0 led");
    assert_ne!(leader, 4, "the joiner follows");
    let floor = |n: &spinnaker_core::node::Node| n.store(RangeId(0)).unwrap().gc_floor();
    let leader_floor = cluster.with_node(leader, floor).unwrap();
    assert_eq!(leader_floor, pinned, "the lease holds the leader's floor at the pin");
    assert_eq!(cluster.with_node(4, floor), Some(leader_floor), "the joiner's floor");

    let req = get_request(1, key, "c", Consistency::snapshot_at(pinned));
    let replies = probe::ask(&mut cluster, 9 * SECS, 4, req);
    cluster.run_until(10 * SECS);
    match &replies.borrow()[..] {
        [ClientReply::Row { cells, .. }] => {
            assert_eq!(
                cells[0].value.as_deref(),
                Some(&b"v1"[..]),
                "the value before the overwrite"
            );
        }
        other => panic!("the joiner's answer: {other:?}"),
    };
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
    // that replica must dissolve into the merged range from the table
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
fn merges_of_ineligible_pairs_are_refused_and_writes_keep_flowing() {
    // Range 0 split twice gives three adjacent children `a | b | c` with
    // range 0's cohort; range 1 (the next span) has a different cohort.
    // A merge request is refused when the pair is not adjacent (`a`,
    // `c`), when the cohorts differ (`c`, range 1), and when a move is in
    // flight (`a`, `b` while `b` moves to a node that is down, so the
    // move never finishes before the check). A refusal leaves the table
    // as it was, and writes to both ranges of the pair keep completing.
    // (The table's own `Ring::merge` refuses these pairs too, so this
    // checks what a client sees, whichever of the two refuses first.)
    let mut cluster = quick_cluster(5, 52);
    cluster.run_until(3 * SECS);
    cluster.split_range(3 * SECS, RangeId(0), u64_to_key(1000));
    cluster.run_until(5 * SECS);
    let right = cluster.current_ring().children_of(RangeId(0))[1].id;
    cluster.split_range(5 * SECS, right, u64_to_key(3000));
    cluster.run_until(7 * SECS);
    let ring = cluster.current_ring();
    let [a, b, c] = [0, 1000, 3000].map(|k| ring.range_of(&u64_to_key(k)));
    let r1 = ring.range_of(&u64_to_key(u64::MAX / 5));
    assert_eq!(r1, RangeId(1));
    assert_eq!(ring.children_of(right).len(), 2, "both splits completed");
    for r in [a, b, c] {
        assert_eq!(ring.def(r).unwrap().cohort, vec![0, 1, 2], "{r} keeps range 0's cohort");
    }
    assert_ne!(ring.cohort(c), ring.cohort(r1));

    let spans =
        [(a, 0, 1000), (b, 1000, 3000), (c, 3000, 4000), (r1, u64::MAX / 5, u64::MAX / 5 + 1000)];
    let clients: BTreeMap<RangeId, _> = spans
        .into_iter()
        .map(|(r, lo, hi)| {
            let w = cluster.add_client(
                Workload::SpanWrites { value_size: 64, lo, hi },
                7 * SECS,
                7 * SECS,
                30 * SECS,
            );
            w.borrow_mut().trace = Some(Vec::new());
            (r, w)
        })
        .collect();
    cluster.run_until(8 * SECS);

    // Ask to merge `left` and `right` at `at`; over the next three
    // seconds the table must not move and both ranges must take writes.
    let refused = |cluster: &mut SimCluster, at: u64, left: RangeId, right: RangeId| {
        let version = cluster.current_ring().version();
        cluster.merge_ranges(at, left, right);
        cluster.run_until(at + 3 * SECS);
        let ring = cluster.current_ring();
        assert_eq!(ring.version(), version, "merge of {left} and {right} refused");
        assert!(ring.def(left).is_some() && ring.def(right).is_some());
        for r in [left, right] {
            let stats = clients[&r].borrow();
            let trace = stats.trace.as_ref().unwrap();
            let done = trace.iter().filter(|(t, _)| *t > at + SECS).count();
            assert!(done > 20, "writes to {r} kept completing: {done}");
        }
    };
    refused(&mut cluster, 8 * SECS, a, c);
    refused(&mut cluster, 11 * SECS, c, r1);
    cluster.crash_node(14 * SECS, 4, true);
    cluster.move_replica(14 * SECS + 500 * MILLIS, b, 2, 4);
    cluster.run_until(15 * SECS);
    assert!(cluster.current_ring().def(b).unwrap().moving.is_some(), "the move is in flight");
    refused(&mut cluster, 15 * SECS, a, b);
    assert!(cluster.current_ring().def(b).unwrap().moving.is_some(), "still in flight");
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
