//! Recovery paths driven by hand on the shared pump (`support/pump.rs`):
//! takeover, catch-up, fail-stop on a refused or unreadable device, and
//! dissolves with a record in the log tail.

use spinnaker_common::api::{ClientOp, ClientRequest};
use spinnaker_common::vfs::{FaultPlan, Vfs};
use spinnaker_common::{Consistency, Lsn};
use spinnaker_coord::WatchEvent;
use spinnaker_core::messages::{NodeInput, PeerMsg};
use spinnaker_core::node::{CohortPaths, NodeConfig, Role};
use spinnaker_core::partition::{u64_to_key, TABLE_PATH};
use spinnaker_core::{ClaimKind, DissolveEntry, TailCounts};

#[path = "support/pump.rs"]
mod pump;
use pump::{Pump, CLIENT, R0, R1};

fn lsn(epoch: u16, seq: u64) -> Lsn {
    Lsn::new(epoch, seq)
}

/// Takeover re-proposes the unresolved tail in groups that break at an
/// epoch boundary and at a logically truncated LSN, a follower that
/// already holds a whole group acknowledges it without logging it again,
/// and afterwards every acknowledged write is readable on every replica
/// — from its memory and from a replay of its log.
///
/// The tail is built the way a real cohort builds one: commit messages
/// lost to one follower (node 2) leave its committed watermark at 1.4
/// while it keeps logging through two epochs; an orphan (1.7, logged by
/// node 2 alone before the first leader died) is truncated by a catch-up
/// whose own commit note is lost in a crash. Node 2 then wins the third
/// election with `(1.4, 2.8]` unresolved: 1.5, 1.6, a hole where 1.7
/// was, 2.7, 2.8.
#[test]
fn takeover_groups_break_at_epoch_boundary_and_truncated_lsn() {
    let mut p = Pump::new();
    // Epoch 1, leader 0: keys 1-4 committed everywhere; 5 and 6 logged
    // everywhere and committed at the leader only; 7 reaches node 2 alone
    // and the leader dies before its own force.
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.put_all(0, 5..=6);
    p.hold_forces[0] = true;
    p.lose = Box::new(|_, to, m| to == 1 && matches!(m, PeerMsg::Propose { range: R0, .. }));
    let orphan = p.put(0, 7);
    p.run();
    assert_eq!(p.node(2).last_lsn(R0), lsn(1, 7));
    assert_eq!(p.node(1).last_lsn(R0), lsn(1, 6));

    // Epoch 2: node 2 hears of the death late (its 1.7 would win it the
    // election), so node 1 takes over. Node 2 catches up and
    // acknowledges [1.5, 1.6]; every commit message to it is lost.
    p.hold_events[2] = true;
    p.lose = Box::new(|_, to, m| to == 2 && matches!(m, PeerMsg::Commit { range: R0, .. }));
    p.crash(0);
    p.hold_forces[0] = false;
    p.run();
    assert_eq!(p.role(1), Role::Leader);
    assert_eq!(p.node(1).epoch_of(R0), 2);
    assert_eq!(p.role(2), Role::Follower);
    assert_eq!(p.node(2).last_committed(R0), lsn(1, 4), "node 2 never saw a commit past 1.4");
    p.boot(0);
    p.run();
    // 2.7 and 2.8: node 2 logs them over its orphan, vouched for by the
    // re-proposals still in its queue. Node 0 misses 2.8.
    let asked = p.node(2).catchup_requests(R0);
    p.put_all(1, 8..=8);
    p.lose = Box::new(|_, to, m| {
        (to == 2 && matches!(m, PeerMsg::Commit { range: R0, .. }))
            || (to == 0 && matches!(m, PeerMsg::Propose { range: R0, .. }))
    });
    p.put_all(1, 9..=9);
    assert_eq!(p.node(2).last_lsn(R0), lsn(2, 8));
    assert_eq!(p.node(0).last_lsn(R0), lsn(2, 7));
    assert_eq!(p.node(2).catchup_requests(R0), asked, "no catch-up across the epoch boundary");

    // Node 2 restarts and catches up through 2.8, which truncates 1.7 —
    // and crashes before the catch-up's commit note is durable: on disk
    // its committed watermark is still 1.4.
    p.crash(2);
    p.hold_events[2] = false;
    p.hold_forces[2] = true;
    p.boot(2);
    p.run();
    assert_eq!(p.node(2).wal().skipped_lsns(R0), vec![lsn(1, 7)]);
    assert_eq!(p.node(2).last_committed(R0), lsn(2, 8));
    p.crash(2);
    p.hold_forces[2] = false;

    // Epoch 3: node 1 dies while node 2 is down. Node 2 comes back to a
    // cohort without a leader, stands with what its disk says, and wins
    // on 2.8 against node 0's 2.7.
    p.lose = Box::new(|_, _, _| false);
    let takeover_from = p.sent.len();
    p.crash(1);
    p.boot(2);
    p.run();
    assert_eq!(p.role(2), Role::Leader);
    assert_eq!(p.node(2).epoch_of(R0), 3);
    assert_eq!(
        p.proposes(takeover_from, 2, 0),
        vec![(lsn(1, 5), 2), (lsn(2, 7), 2)],
        "one group per epoch, cut at the truncated 1.7"
    );
    assert_eq!(p.node(2).last_committed(R0), lsn(2, 8));
    assert_eq!(
        p.count_sent(takeover_from, 2, |m| matches!(m, PeerMsg::Commit { range: R0, .. })),
        1,
        "the opening commit, to node 0"
    );
    assert_eq!(p.node(0).last_committed(R0), lsn(2, 8));

    // Every acknowledged write is readable at the new leader and, after
    // a commit period, at the followers; the orphan was never
    // acknowledged and is gone.
    assert!(!p.written.contains(&orphan));
    p.boot(1);
    p.run();
    p.put_all(2, 10..=10);
    p.commit_tick(2);
    let acked = || (1..=6).chain(8..=10);
    for node in [2, 1, 0] {
        for k in acked() {
            assert_eq!(p.read(node, k), Some(format!("v{k}").into_bytes()), "node {node} key {k}");
        }
        assert_eq!(p.read(node, 7), None, "node {node}: the orphan is gone");
    }
    // The followers' logs replay to the same store (one more put first:
    // its force makes their commit notes durable).
    p.put_all(2, 11..=11);
    for node in [1, 0] {
        p.crash(node);
        p.boot(node);
        p.run();
        for k in acked() {
            assert_eq!(p.read(node, k), Some(format!("v{k}").into_bytes()), "replayed {node}/{k}");
        }
        assert_eq!(p.read(node, 7), None);
    }
}

/// ROADMAP 7d. A follower whose log refuses an append must not
/// acknowledge the group: the force it requests next succeeds, and at
/// the parent commit its ack let the leader commit — and acknowledge to
/// the client — a write only the leader held. The follower fail-stops
/// instead; the write commits once a replica that really logged it
/// acknowledges, and survives the leader.
#[test]
fn follower_that_cannot_log_a_group_fail_stops_instead_of_acking() {
    let mut p = Pump::new();
    p.put_all(0, 1..=2);
    // Node 2 is cut off: the leader and node 1 are the quorum.
    p.lose = Box::new(|from, to, _| from == 2 || to == 2);
    p.faults[1].fail_append_after(1);
    let since = p.sent.len();
    let req = p.put(0, 3);
    p.run();
    assert_eq!(p.faults[1].injected(), 1);
    assert!(p.nodes[1].is_none(), "node 1 fail-stopped");
    assert_eq!(
        p.count_sent(since, 1, |m| matches!(m, PeerMsg::Ack { range: R0, .. })),
        0,
        "and acknowledged nothing"
    );
    assert!(!p.written.contains(&req), "so the write is not acknowledged");
    assert_eq!(p.node(0).last_committed(R0), lsn(1, 2));

    // Node 1 restarts with a healthy device, catches up, is re-sent the
    // pending write, logs it — now the ack counts.
    p.boot(1);
    p.run();
    assert!(p.written.contains(&req));
    assert_eq!(p.node(1).last_lsn(R0), lsn(1, 3));
    // The leader dies; the acknowledged write outlives it.
    p.lose = Box::new(|_, _, _| false);
    p.crash(0);
    p.run();
    let leader = (1..3).find(|&i| p.role(i) == Role::Leader).expect("a new leader");
    assert_eq!(p.read(leader, 3), Some(b"v3".to_vec()));
}

/// The new leader dies mid-re-propose and a follower's log is torn
/// inside a re-proposed group's frame: the frame is all-or-nothing (the
/// follower comes back with the first group whole and none of the
/// second), and the next takeover re-proposes the tail again and
/// finishes.
#[test]
fn torn_reproposed_group_frame_is_all_or_nothing_and_next_takeover_finishes() {
    const N: u64 = 100; // two groups: 64 + 36
    let mut p = Pump::new();
    // Node 2 is cut off while the writes happen; no commit period
    // passes, so node 1 holds all N unresolved and node 2 none of them.
    p.lose = Box::new(|from, to, _| from == 2 || to == 2);
    p.put_all(0, 1..=N);
    p.crash(0);
    // The new leader's re-proposals reach the follower, are logged and
    // forced there — and no ack ever arrives.
    p.lose = Box::new(|_, _, m| matches!(m, PeerMsg::Ack { range: R0, .. }));
    let since = p.sent.len();
    p.run();
    let w = (1..3).find(|&i| p.role(i) == Role::LeaderTakeover).expect("a takeover under way");
    let f = 3 - w;
    assert_eq!(p.proposes(since, w, f), vec![(lsn(1, 1), 64), (lsn(1, 65), 36)]);
    assert_eq!(p.node(w).last_committed(R0), Lsn::ZERO, "nothing re-committed yet");
    p.crash(w);
    p.crash(f);
    // Tear the follower's newest segment ten bytes into the last frame's
    // tail: the second re-proposed group.
    let disk = &p.disks[f];
    let seg = disk.list("wal/seg-").unwrap().into_iter().max().expect("a segment");
    let bytes = disk.read_all(&seg).unwrap();
    disk.write_atomic(&seg, &bytes[..bytes.len() - 10]).unwrap();

    p.lose = Box::new(|_, _, _| false);
    p.boot(f);
    assert_eq!(p.node(f).last_lsn(R0), lsn(1, 64), "the torn group left none of its 36 writes");
    p.boot(0);
    p.run();
    assert_eq!(p.role(0), Role::Leader, "the old leader holds the longest log and takes over");
    assert_eq!(p.node(0).epoch_of(R0), 3);
    assert_eq!(p.node(0).last_committed(R0), lsn(1, N));
    p.commit_tick(0);
    for node in [0, f] {
        for k in 1..=N {
            assert_eq!(p.read(node, k), Some(format!("v{k}").into_bytes()), "node {node} key {k}");
        }
    }
}

/// A new leader that cannot read its unresolved tail back must not open
/// the cohort without it. 1.5 is acknowledged by the leader and node 1
/// (node 2 missed it) and committed nowhere else; the leader dies, and
/// node 1, holding the longest log, takes over with its log failing to
/// read back. At the parent commit the read error became an empty tail:
/// node 1 opened without 1.5 and a strong read of key 5 answered absent.
/// It fail-stops instead, and once restarted takes over with the tail.
#[test]
fn a_takeover_that_cannot_read_its_tail_fail_stops() {
    let mut p = Pump::new();
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.lose = Box::new(|_, to, m| to == 2 && matches!(m, PeerMsg::Propose { range: R0, .. }));
    p.put_all(0, 5..=5);
    p.lose = Box::new(|_, _, _| false);
    assert_eq!(p.node(1).last_committed(R0), lsn(1, 4));
    assert_eq!(p.node(1).last_lsn(R0), lsn(1, 5));
    assert_eq!(p.node(2).last_lsn(R0), lsn(1, 4));

    p.faults[1].fail_read_after(1);
    p.crash(0);
    p.run();
    assert_eq!(p.faults[1].injected(), 1, "node 1's read of its tail failed");
    let fail_stopped = p.nodes[1].is_none();
    if fail_stopped {
        p.boot(1);
        p.run();
    }
    assert_eq!(p.leader_of(R0), 1, "1.5 wins the election");
    for k in 1..=5 {
        assert_eq!(p.read(1, k), acked(k), "key {k}");
    }
    assert!(fail_stopped, "node 1 opened the cohort without its tail");
}

/// A leader that cannot read its pending writes back cannot bring a
/// catching-up follower level with them. Keys 1-4 are committed
/// everywhere; 1.5 is logged everywhere but sits in the leader's commit
/// queue (every ack is lost) when node 2 restarts and asks to catch up
/// from 1.4, and the leader's log fails the read of 1.5. At the parent
/// commit the read error became "nothing pending" and the leader carried
/// on; it fail-stops instead, and the cohort's next leader serves what
/// was acknowledged.
#[test]
fn a_leader_that_cannot_read_its_pending_writes_fail_stops() {
    let mut p = Pump::new();
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.lose = Box::new(|_, _, m| matches!(m, PeerMsg::Ack { range: R0, .. }));
    let pending = p.put(0, 5);
    p.run();
    assert!(!p.written.contains(&pending));
    assert_eq!(p.node(0).last_committed(R0), lsn(1, 4));
    assert_eq!(p.node(0).last_lsn(R0), lsn(1, 5), "1.5 is in the leader's commit queue");

    // 1.5's force made node 2's commit note for 1.4 durable, so its
    // catch-up asks for nothing committed: the one log read is of 1.5.
    p.crash(2);
    p.lose = Box::new(|_, _, _| false);
    p.faults[0].fail_read_after(1);
    p.boot(2);
    p.run();
    assert_eq!(p.faults[0].injected(), 1, "the leader's read of 1.5 failed");
    assert!(p.nodes[0].is_none(), "the leader carried on without its pending writes");

    let leader = p.leader_of(R0);
    for k in 1..=4 {
        assert_eq!(p.read(leader, k), acked(k), "key {k} at node {leader}");
    }
}

// =====================================================================
// dissolves with a record in the tail
// =====================================================================

/// Collects what a node dissolved at once, so a retired stream shows.
fn eager_gc() -> NodeConfig {
    NodeConfig { gc_quiesce: 0, ..NodeConfig::default() }
}

/// Keys 1-5 committed everywhere (watermark 1.5 on the followers), 6-8
/// acknowledged to the client with both followers' logged acks but no
/// commit message since: their tail past the watermark is 1.6-1.8.
fn with_acked_tail(cfg: NodeConfig) -> Pump {
    let mut p = Pump::with_cfg(cfg);
    p.put_all(0, 1..=5);
    p.commit_tick(0);
    p.put_all(0, 6..=8);
    for f in [1, 2] {
        assert_eq!(p.node(f).last_committed(R0), lsn(1, 5));
        assert_eq!(p.node(f).last_lsn(R0), lsn(1, 8));
    }
    p
}

fn acked(k: u64) -> Option<Vec<u8>> {
    Some(format!("v{k}").into_bytes())
}

/// (i) The split leader dies between the table CAS and the `Split`
/// fan-out: the followers learn of the split from the table alone and
/// build the children at their own watermark. Their acknowledged tail
/// moves into the child streams by key, under its LSNs, where the child
/// elections see it — and whoever wins them serves every write the
/// client was told succeeded.
#[test]
fn acked_tail_follows_its_keys_into_the_children_of_a_split_nobody_announced() {
    let mut p = with_acked_tail(eager_gc());
    p.lose = Box::new(|_, _, m| matches!(m, PeerMsg::Split { .. }));
    p.feed(0, NodeInput::SplitRange { range: R0, at: u64_to_key(7) });
    p.crash(0);
    p.run();
    let (left, right) = (p.range_of(1, 6), p.range_of(1, 7));
    assert!(left != R0 && right != R0 && left != right);
    for f in [1, 2] {
        assert_eq!(p.stream(f, left, lsn(1, 5)), vec![(lsn(1, 6), u64_to_key(6))]);
        assert_eq!(
            p.stream(f, right, lsn(1, 5)),
            vec![(lsn(1, 7), u64_to_key(7)), (lsn(1, 8), u64_to_key(8))]
        );
        assert_eq!(p.node(f).last_lsn(left), lsn(1, 6), "n.lst advertises the tail");
        assert_eq!(p.node(f).last_lsn(right), lsn(1, 8));
        // Each child claimed the follower's own watermark and got a tail.
        let coverage = p.node(f).dissolve_coverage();
        assert_eq!(
            coverage.get(DissolveEntry::Table, ClaimKind::Own),
            TailCounts { empty: 0, rehomed: 2, records: 3 }
        );
        assert_eq!(coverage.stranded(), 0);
        // Every record found a home, so the parent stream is retired.
        assert_eq!(p.node(f).wal().indexed_records(R0), 3);
        p.maintenance(f);
        assert_eq!(p.node(f).wal().indexed_records(R0), 0);
    }
    for k in 1..=8 {
        let leader = p.leader_of(p.range_of(1, k));
        assert_eq!(p.read(leader, k), acked(k), "key {k} at node {leader}");
    }
}

/// The same split, but node 1's log refuses one copy (its third append:
/// two checkpoint saves, then 1.6). The record is missing from the left
/// child's stream there, so node 1 must not retire the stream that still
/// holds it — and the left child's election goes to the replica that
/// advertises 1.6.
#[test]
fn a_refused_tail_copy_leaves_the_predecessor_stream_unretired() {
    let mut p = with_acked_tail(eager_gc());
    p.lose = Box::new(|_, _, m| matches!(m, PeerMsg::Split { .. }));
    p.feed(0, NodeInput::SplitRange { range: R0, at: u64_to_key(7) });
    p.faults[1].fail_append_after(3);
    p.crash(0);
    p.run();
    assert_eq!(p.faults[1].injected(), 1);
    assert!(p.nodes[1].is_some(), "a refused copy is not a fail-stop");
    // The left child got nothing on node 1, the right child its two.
    let coverage = p.node(1).dissolve_coverage();
    assert_eq!(
        coverage.get(DissolveEntry::Table, ClaimKind::Own),
        TailCounts { empty: 1, rehomed: 1, records: 2 }
    );
    assert_eq!(coverage.stranded(), 1);
    for f in [1, 2] {
        p.maintenance(f);
    }
    assert_eq!(p.node(1).wal().indexed_records(R0), 8, "node 1 keeps the stream, whole");
    assert_eq!(p.node(2).wal().indexed_records(R0), 0, "node 2 retired it");
    assert_eq!(p.leader_of(p.range_of(1, 6)), 2, "1.6 beats 1.5");
    for k in 1..=8 {
        let leader = p.leader_of(p.range_of(2, k));
        assert_eq!(p.read(leader, k), acked(k), "key {k} at node {leader}");
    }
}

/// (ii) Node 2 is down while ranges 0 and 1 merge and comes back under
/// a table that has neither: its replica of range 0 contributes to a
/// merged range it can vouch for nothing of (claim zero — range 1's half
/// it rebuilds from nothing), yet the tail it acknowledged is in the
/// merged stream before range 0's is retired.
#[test]
fn acked_tail_moves_into_the_merged_stream_of_a_merge_slept_through() {
    let mut p = with_acked_tail(eager_gc());
    p.crash(2);
    p.feed(0, NodeInput::MergeRanges { left: R0, right: R1 });
    p.run();
    let merged = p.range_of(0, 1);
    assert!(merged != R0 && p.range_of(0, u64::MAX / 2) == merged, "ranges 0 and 1 merged");
    assert_eq!(p.role(0), Role::Offline);
    assert_eq!(p.node(0).role(merged), Role::Leader);
    // Hold node 2 short of catching up, to see what it rebuilt alone.
    p.lose = Box::new(|_, to, m| to == 2 && matches!(m, PeerMsg::CatchupRecords { .. }));
    p.boot(2);
    p.run();
    assert_eq!(p.node(2).role(merged), Role::CatchingUp);
    assert_eq!(p.node(2).last_committed(merged), Lsn::ZERO, "it vouches for nothing");
    let tail: Vec<_> = (6..=8).map(|k| (lsn(1, k), u64_to_key(k))).collect();
    assert_eq!(p.stream(2, merged, Lsn::ZERO), tail);
    assert_eq!(p.node(2).last_lsn(merged), lsn(1, 8));
    assert_eq!(
        p.node(2).dissolve_coverage().get(DissolveEntry::Table, ClaimKind::Zero),
        TailCounts { empty: 0, rehomed: 1, records: 3 }
    );
    p.maintenance(2);
    assert_eq!(p.node(2).wal().indexed_records(R0), 0, "range 0's stream is retired");
    // The merged range's leader dies; whoever follows it serves it all.
    p.lose = Box::new(|_, _, _| false);
    p.crash(0);
    p.run();
    let leader = p.leader_of(merged);
    for k in 1..=8 {
        assert_eq!(p.read(leader, k), acked(k), "key {k} at node {leader}");
    }
}

/// (iii) Node 2 misses the propose of 1.7 and the catch-up that would
/// have closed the gap, so when the `Merge` message arrives its queue
/// for range 0 stops at 1.6, short of the barrier 1.8: it under-claims
/// the merged range, and the 1.6 it acknowledged is in the merged stream.
#[test]
fn a_gap_before_the_merge_barrier_under_claims_and_keeps_the_acked_tail() {
    let mut p = Pump::with_cfg(eager_gc());
    p.put_all(0, 1..=5);
    p.commit_tick(0);
    p.put_all(0, 6..=6);
    p.lose = Box::new(|_, to, m| {
        let lost_propose = matches!(m, PeerMsg::Propose { lsn, .. } if lsn.seq() == 7);
        to == 2 && (lost_propose || matches!(m, PeerMsg::CatchupRecords { .. }))
    });
    p.put_all(0, 7..=8);
    assert_eq!(p.node(2).last_lsn(R0), lsn(1, 6), "1.8 is parked, not logged over the hole");
    p.feed(0, NodeInput::MergeRanges { left: R0, right: R1 });
    p.run();
    let merged = p.range_of(2, 1);
    assert!(merged != R0 && p.node(0).role(merged) == Role::Leader);
    assert_eq!(p.node(2).last_committed(merged), Lsn::ZERO, "under-claimed");
    assert_eq!(p.stream(2, merged, Lsn::ZERO), vec![(lsn(1, 6), u64_to_key(6))]);
    assert_eq!(p.node(2).last_lsn(merged), lsn(1, 6));
    assert_eq!(
        p.node(2).dissolve_coverage().get(DissolveEntry::MergeMsg, ClaimKind::Zero),
        TailCounts { empty: 0, rehomed: 1, records: 1 }
    );
    assert_eq!(p.node(1).last_committed(merged), lsn(2, 8), "node 1 drained cleanly");
    p.maintenance(2);
    assert_eq!(p.node(2).wal().indexed_records(R0), 0);
    p.lose = Box::new(|_, _, _| false);
    p.crash(0);
    p.run();
    let leader = p.leader_of(merged);
    for k in 1..=8 {
        assert_eq!(p.read(leader, k), acked(k), "key {k} at node {leader}");
    }
}

/// A catch-up served from the leader's tables (its log has rolled over)
/// exists only in the follower's memtable until the follower flushes. If
/// that flush fails, the follower must not checkpoint past the rows, log
/// the commit note or confirm `CaughtUp` — at the parent commit it did
/// all three, and after a crash claimed a watermark it did not hold: as
/// the next leader it served keys 1-4 as absent. It fail-stops instead
/// and catches up again on a healthy device.
#[test]
fn a_table_catch_up_whose_flush_fails_claims_nothing() {
    let mut p = Pump::with_cfg(NodeConfig { memtable_flush_bytes: 1, ..NodeConfig::default() });
    p.crash(1);
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.maintenance(0);
    assert_eq!(p.node(0).wal().checkpoint(R0), lsn(1, 4), "the leader's log rolled over");
    p.boot(1);
    p.store_faults[1].fail_sync_after(1);
    p.run();
    assert_eq!(p.store_faults[1].injected(), 1, "the flush of the shipped rows failed");
    // Fail-stopped already, or (at the parent) carrying on: either way
    // what node 1 has is what its disk has.
    if p.nodes[1].is_some() {
        p.crash(1);
    }
    p.boot(1);
    p.run();
    assert_eq!(p.node(1).last_committed(R0), lsn(1, 4));
    // Node 1 becomes the only follower holding 1.5, so it wins the next
    // election — and must hold what its watermark says.
    p.lose = Box::new(|_, to, m| to == 2 && matches!(m, PeerMsg::Propose { range: R0, .. }));
    p.put_all(0, 5..=5);
    p.lose = Box::new(|_, _, _| false);
    p.crash(0);
    p.run();
    assert_eq!(p.role(1), Role::Leader);
    for k in 1..=5 {
        assert_eq!(p.read(1, k), acked(k), "key {k}");
    }
}

/// A catch-up the leader cannot read from its tables (its log has rolled
/// over) is not an empty one. At the parent commit the read error became
/// an empty reply up to the leader's watermark: node 1 claimed 1.4 holding
/// none of keys 1-4, and as the next leader served them as absent. The
/// leader fail-stops instead, and node 1 catches up from the cohort's
/// next leader.
#[test]
fn a_table_catch_up_the_leader_cannot_read_claims_nothing() {
    let mut p = Pump::with_cfg(NodeConfig { memtable_flush_bytes: 1, ..NodeConfig::default() });
    p.crash(1);
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.maintenance(0);
    assert_eq!(p.node(0).wal().checkpoint(R0), lsn(1, 4), "the leader's log rolled over");
    // Sticky: the table stays unreadable for as long as node 0 is up.
    p.store_faults[0].fail_read_after(1);
    p.store_faults[0].set_sticky(true);
    p.boot(1);
    p.run();
    assert!(p.store_faults[0].injected() >= 1, "the leader's table read failed");
    let fail_stopped = p.nodes[0].is_none();
    if fail_stopped {
        p.boot(0);
        p.run();
    }
    // Node 1 becomes the only follower holding the next write, so it wins
    // the next election — and must hold what its watermark says.
    let leader = p.leader_of(R0);
    let other = (0..3).find(|&i| i != leader && i != 1).expect("a third node");
    p.lose =
        Box::new(move |_, to, m| to == other && matches!(m, PeerMsg::Propose { range: R0, .. }));
    p.put_all(leader, 5..=5);
    p.lose = Box::new(|_, _, _| false);
    p.crash(leader);
    p.run();
    assert_eq!(p.role(1), Role::Leader);
    for k in 1..=5 {
        assert_eq!(p.read(1, k), acked(k), "key {k}");
    }
    assert!(fail_stopped, "the leader answered a catch-up it could not read");
}

/// Node 2 holds an orphan past its committed watermark 1.4 — 1.5, logged
/// by it alone before the epoch-1 leader died unforced — while the other
/// two commit 2.5 and 2.6 in epoch 2 without it. Returns the pump with
/// node 2 booted and catching up, and the `CatchupRecords` that would
/// truncate the orphan held back from it.
fn orphan_awaiting_truncation() -> (Pump, PeerMsg) {
    let mut p = Pump::new();
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.hold_forces[0] = true;
    p.lose = Box::new(|_, to, m| to == 1 && matches!(m, PeerMsg::Propose { range: R0, .. }));
    let orphan = p.put(0, 5);
    p.run();
    assert_eq!(p.node(2).last_lsn(R0), lsn(1, 5));
    assert_eq!(p.node(2).last_committed(R0), lsn(1, 4));
    // Node 2 goes down with it; node 0 comes back without it (never
    // forced), and nodes 0 and 1 elect a leader of epoch 2.
    p.crash(2);
    p.crash(0);
    p.hold_forces[0] = false;
    p.lose = Box::new(|_, _, _| false);
    p.boot(0);
    p.run();
    let leader = p.leader_of(R0);
    assert_eq!(p.node(leader).epoch_of(R0), 2);
    p.put_all(leader, 6..=7);
    p.commit_tick(leader);
    assert_eq!(p.node(leader).last_committed(R0), lsn(2, 6));
    assert!(!p.written.contains(&orphan));

    let catch_up = |m: &PeerMsg| matches!(m, PeerMsg::CatchupRecords { range: R0, .. });
    p.lose = Box::new(move |_, to, m| to == 2 && catch_up(m));
    let since = p.sent.len();
    p.boot(2);
    p.run();
    assert_eq!(p.role(2), Role::CatchingUp);
    let reply = p.sent[since..]
        .iter()
        .find(|(from, to, m)| (*from, *to) == (leader, 2) && catch_up(m))
        .map(|(_, _, m)| m.clone())
        .expect("the leader answered node 2's catch-up");
    p.lose = Box::new(|_, _, _| false);
    (p, reply)
}

/// Deliver the held-back catch-up to node 2 with its log device failing
/// as `arm` sets it up, restart node 2 from what its disk kept, and check
/// that it serves what was committed and not the orphan.
fn catch_up_over_a_fault(arm: impl FnOnce(&FaultPlan)) {
    let (mut p, reply) = orphan_awaiting_truncation();
    let leader = p.leader_of(R0);
    arm(&p.faults[2]);
    p.feed(2, NodeInput::Peer { from: leader as u32, msg: reply });
    p.run();
    assert_eq!(p.faults[2].injected(), 1, "the fault fired");
    let fail_stopped = p.nodes[2].is_none();
    if !fail_stopped {
        p.crash(2);
    }
    p.boot(2);
    p.run();
    assert_eq!(p.role(2), Role::Follower);
    assert_eq!(p.node(2).last_committed(R0), lsn(2, 6));
    for k in (1..=4).chain(6..=7) {
        assert_eq!(p.read(2, k), acked(k), "key {k}");
    }
    assert_eq!(p.read(2, 5), None, "the orphan was replayed");
    assert!(fail_stopped, "node 2 confirmed a catch-up it could not make durable");
}

/// A catch-up whose logical truncation (§6.1.1) fails to save the skipped
/// list must not be confirmed. At the parent commit the error was dropped:
/// the follower logged and confirmed the catch-up, and after a restart its
/// local recovery replayed the orphan up to the new watermark — serving a
/// value no leader committed. It fail-stops instead, and truncates on the
/// next catch-up.
#[test]
fn a_catch_up_whose_truncation_fails_to_save_fail_stops() {
    // The skipped list's save is the first sync; the catch-up's force is
    // the next, and succeeds.
    catch_up_over_a_fault(|plan| plan.fail_sync_after(1));
}

/// A catch-up that cannot read its own log past the watermark cannot tell
/// which records to truncate. At the parent commit it truncated nothing
/// and carried on, and after a restart served the orphan; it fail-stops
/// instead.
#[test]
fn a_catch_up_that_cannot_read_its_log_fail_stops() {
    catch_up_over_a_fault(|plan| plan.fail_read_after(1));
}

/// A block the leader cannot read is not an absent row. Keys 1-4 live in
/// one flushed table of node 0 and nowhere else (memtable flushed, block
/// cache cold), and that file stops reading back. At the parent
/// commit the strong get was answered with an empty row, the scan page
/// with no rows, and `ConditionalPut { expected: 0 }` — "only if never
/// written" — was accepted over the acknowledged value it could not see.
/// The leader fail-stops instead, answering nothing, and the cohort's
/// next leader serves what was acknowledged.
#[test]
fn a_store_read_error_is_not_an_absent_row() {
    let key = u64_to_key(2);
    let ops = [
        ClientOp::Get {
            key: key.clone(),
            columns: spinnaker_common::api::ColumnSelect::All,
            consistency: Consistency::Strong,
        },
        ClientOp::Scan {
            start: u64_to_key(1),
            end: None,
            limit: 8,
            consistency: Consistency::Strong,
        },
        ClientOp::ConditionalPut { key, col: "c".into(), value: "clobbered".into(), expected: 0 },
    ];
    for op in ops {
        let what = format!("{op:?}");
        let mut p = Pump::with_cfg(NodeConfig { memtable_flush_bytes: 1, ..NodeConfig::default() });
        p.put_all(0, 1..=4);
        p.commit_tick(0);
        p.maintenance(0);
        assert_eq!(p.node(0).wal().checkpoint(R0), lsn(1, 4), "keys 1-4 are in a table");

        // Sticky: a sector that stays unreadable (a scan asks twice).
        p.store_faults[0].fail_read_after(1);
        p.store_faults[0].set_sticky(true);
        let req = ClientRequest { req: p.next_req, ring_version: 0, op };
        p.next_req += 1;
        p.feed(0, NodeInput::Client { from: CLIENT, req: req.clone() });
        p.run();
        assert!(p.store_faults[0].injected() >= 1, "{what}: the block read failed");
        assert_eq!(p.reads_answered, 0, "{what}: answered without the block");
        assert!(!p.written.contains(&req.req), "{what}: accepted without the block");
        assert!(p.nodes[0].is_none(), "{what}: the leader did not fail-stop");

        let leader = p.leader_of(R0);
        for k in 1..=4 {
            assert_eq!(p.read(leader, k), acked(k), "{what}: key {k} at node {leader}");
        }
    }
}

/// A flush that fails hides nothing it was handed. Keys 1-4 are
/// acknowledged and sit in node 0's memtable alone when the maintenance
/// tick's flush fails: at the table's sync, or at the read-back of the
/// finished table. At the parent commit the memtable was already drained
/// and the error dropped, so the leader stayed up and answered strong gets
/// of all four keys with an absent row. The leader fail-stops instead
/// (its log checkpoint never moved), and the cohort's next leader serves
/// what was acknowledged.
#[test]
fn a_failed_flush_hides_no_acknowledged_row() {
    for fault in ["sync", "read"] {
        let mut p = Pump::with_cfg(NodeConfig { memtable_flush_bytes: 1, ..NodeConfig::default() });
        p.put_all(0, 1..=4);
        p.commit_tick(0);
        match fault {
            "sync" => p.store_faults[0].fail_sync_after(1),
            _ => p.store_faults[0].fail_read_after(1),
        }
        p.maintenance(0);
        assert_eq!(p.store_faults[0].injected(), 1, "{fault}: the flush failed");

        let leader = p.leader_of(R0);
        for k in 1..=4 {
            assert_eq!(p.read(leader, k), acked(k), "{fault}: key {k} at node {leader}");
        }
        assert!(p.nodes[0].is_none(), "{fault}: the leader did not fail-stop");
    }
}

/// Two gone ranges in one reconcile, each with its own log stream: range
/// 0 (epoch 1, watermark 1.5) and the left child of range 1 (epoch 2,
/// watermark 2.3, flushed and checkpointed there — past range 0's
/// watermark). Node 2's table watch fires late: it has already seen both
/// leaders vanish and stands in both elections when the table tells it
/// that both ranges were split. Each predecessor's tail is read from its
/// *own* watermark (an LSN of one stream says nothing about another), so
/// the records only node 2 still holds reach the grandchildren's streams
/// and win their elections.
#[test]
fn two_gone_ranges_in_one_reconcile_each_keep_their_own_tail() {
    let cfg = NodeConfig { gc_quiesce: 0, memtable_flush_bytes: 1, ..NodeConfig::default() };
    let mut p = Pump::with_cfg(cfg);
    let base = u64::MAX / 2; // routes to range 1, which node 1 leads
    p.put_all(0, 1..=5);
    p.commit_tick(0);
    // An ordinary split of range 1: node 1 leads the left child in epoch 2.
    p.feed(1, NodeInput::SplitRange { range: R1, at: u64_to_key(base + 100) });
    p.run();
    let a = p.range_of(2, base + 1);
    assert!(a != R1 && p.node(1).role(a) == Role::Leader && p.node(1).epoch_of(a) == 2);
    p.put_all(1, base + 1..=base + 3);
    p.commit_tick(1);
    p.maintenance(2);
    assert_eq!(p.node(2).wal().checkpoint(R0), lsn(1, 5));
    assert_eq!(p.node(2).wal().checkpoint(a), lsn(2, 3), "past range 0's watermark");
    // The acknowledged tails: 1.6-1.8 on every replica of range 0; 2.4
    // and 2.5 on the leader and node 2 alone.
    p.put_all(0, 6..=8);
    p.lose = Box::new(|_, to, m| to == 0 && matches!(m, PeerMsg::Propose { .. }));
    p.put_all(1, base + 4..=base + 5);
    assert_eq!(p.node(2).last_committed(a), lsn(2, 3));
    assert_eq!(p.node(2).last_lsn(a), lsn(2, 5));
    assert_eq!(p.node(0).last_lsn(a), lsn(2, 3));

    // Both leaders split, tell everyone but node 2, and die. Node 2 hears
    // nothing from the coordination service meanwhile.
    p.hold_events[2] = true;
    p.lose = Box::new(|_, to, m| to == 2 && matches!(m, PeerMsg::Split { .. }));
    p.feed(0, NodeInput::SplitRange { range: R0, at: u64_to_key(7) });
    p.feed(1, NodeInput::SplitRange { range: a, at: u64_to_key(base + 4) });
    p.run();
    p.crash(0);
    p.crash(1);
    p.run();
    // The deliveries it missed, the table's last.
    p.hold_events[2] = false;
    p.lose = Box::new(|_, _, _| false);
    for gone in [R0, a] {
        let leader = CohortPaths::new(gone).leader;
        p.feed(2, NodeInput::Coord(WatchEvent::Deleted(leader)));
        assert_eq!(p.node(2).role(gone), Role::Electing);
    }
    p.feed(2, NodeInput::Coord(WatchEvent::DataChanged(TABLE_PATH.to_string())));
    p.run();

    let children = [(6, lsn(1, 5)), (7, lsn(1, 5)), (base + 3, lsn(2, 3)), (base + 4, lsn(2, 3))];
    let tails = [
        vec![(lsn(1, 6), u64_to_key(6))],
        vec![(lsn(1, 7), u64_to_key(7)), (lsn(1, 8), u64_to_key(8))],
        vec![],
        vec![(lsn(2, 4), u64_to_key(base + 4)), (lsn(2, 5), u64_to_key(base + 5))],
    ];
    for ((k, watermark), tail) in children.into_iter().zip(tails) {
        let child = p.range_of(2, k);
        assert_eq!(p.node(2).last_committed(child), watermark, "{child} claims its parent's");
        let last = tail.last().map_or(watermark, |(lsn, _)| *lsn);
        assert_eq!(p.node(2).last_lsn(child), last, "{child} advertises its tail");
        assert_eq!(p.stream(2, child, watermark), tail, "{child}");
    }
    let coverage = p.node(2).dissolve_coverage();
    assert_eq!(
        coverage.get(DissolveEntry::Table, ClaimKind::Own),
        TailCounts { empty: 1, rehomed: 3, records: 5 }
    );
    assert_eq!((coverage.stranded(), coverage.unreadable()), (0, 0));
    p.maintenance(2);
    assert_eq!(p.node(2).wal().indexed_records(R0), 0);
    assert_eq!(p.node(2).wal().indexed_records(a), 0);

    // Node 0 returns (under the current table, as a host boots it)
    // without 2.4 and 2.5: node 2 holds the only copies, wins that
    // election on them and serves them.
    p.ring = p.node(2).ring().clone();
    p.boot(0);
    p.run();
    assert_eq!(p.leader_of(p.range_of(2, base + 4)), 2);
    for k in (1..=8).chain(base + 1..=base + 5) {
        let leader = p.leader_of(p.range_of(2, k));
        assert_eq!(p.read(leader, k), acked(k), "key {k} at node {leader}");
    }
}
