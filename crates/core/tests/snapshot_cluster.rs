//! Cluster tests of MVCC snapshot reads (`Consistency::Snapshot`).
//!
//! The centerpiece: a snapshot whole-space scan pins its read timestamp
//! on the first page and then returns **exactly** the model-map cut at
//! that timestamp — zero lost, duplicated, or torn rows — while a fleet
//! of writers overwrites and deletes rows mid-scan AND a range split and
//! a range merge both land mid-scan. Every acked write carries its
//! commit timestamp (piggybacked on `WriteOk`), so the model can decide
//! membership in the cut exactly: a write belongs iff `ts <= pinned`.

use std::collections::BTreeMap;

use bytes::Bytes;
use spinnaker_common::{ClientError, Consistency, Key, RangeId};
use spinnaker_core::cluster::{ClusterConfig, SimCluster};
use spinnaker_core::messages::{ClientReply, ColumnSelect};
use spinnaker_core::node::get_request;
use spinnaker_core::partition::u64_to_key;
use spinnaker_core::session::{CallOutcome, SessionCall};
use spinnaker_sim::{DiskProfile, MILLIS, SECS};

#[path = "support/probe.rs"]
mod probe;

fn quick_cluster(nodes: usize, seed: u64) -> SimCluster {
    let mut cfg = ClusterConfig { nodes, seed, ..Default::default() };
    cfg.disk = DiskProfile::Ssd;
    cfg.node.commit_period = 100 * MILLIS;
    SimCluster::new(cfg)
}

fn col(name: &str) -> Bytes {
    Bytes::copy_from_slice(name.as_bytes())
}

fn val(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

fn put(key: Key, v: &str) -> SessionCall {
    SessionCall::Put { key, cells: vec![(col("c"), val(v))] }
}

/// The centerpiece: a snapshot scan is *exactly* a model-map cut while
/// concurrent writes, a split, and a merge land mid-scan.
#[test]
fn snapshot_scan_is_an_exact_cut_under_writes_split_and_merge() {
    const ROWS: u64 = 120;
    let mut cluster = quick_cluster(5, 47);
    let step = u64::MAX / ROWS;
    let key_of = |i: u64| u64_to_key(i * step);

    // --- seed every row, recording each write's commit timestamp ---
    let seeds: Vec<SessionCall> = (0..ROWS).map(|i| put(key_of(i), &format!("seed{i}"))).collect();
    let seed_stats = cluster.add_session(seeds, 2 * SECS);
    cluster.run_until(12 * SECS);

    // Per-key history of (commit_ts, Some(value) | None-for-delete).
    let mut history: BTreeMap<Key, Vec<(u64, Option<String>)>> = BTreeMap::new();
    {
        let s = seed_stats.borrow();
        assert_eq!(s.outcomes.len() as u64, ROWS, "seed writes all committed");
        for (i, o) in s.outcomes.iter().enumerate() {
            match o {
                CallOutcome::Written { ts, .. } => {
                    assert!(*ts > 0, "commit timestamps are stamped");
                    history
                        .entry(key_of(i as u64))
                        .or_default()
                        .push((*ts, Some(format!("seed{i}"))));
                }
                other => panic!("seed {i}: {other:?}"),
            }
        }
    }

    // Manufacture a cold adjacent same-cohort pair (children of range 1)
    // for the mid-scan merge.
    let range1_mid = u64_to_key(u64::MAX / 5 + u64::MAX / 10);
    cluster.split_range(12 * SECS, RangeId(1), range1_mid);
    cluster.run_until(14 * SECS);
    let ring = cluster.current_ring();
    let pre_scan_version = ring.version();
    let cold = ring.children_of(RangeId(1));
    assert_eq!(cold.len(), 2, "cold split completed");
    let (cold_left, cold_right) = (cold[0].id, cold[1].id);

    // --- the snapshot scan: page=2, so ~60+ round trips in flight while
    // everything below lands ---
    let scan_stats = cluster.add_session(
        vec![SessionCall::Scan {
            start: Key::default(),
            end: None,
            page: 2,
            consistency: Consistency::SNAPSHOT_PIN,
        }],
        14 * SECS,
    );

    // --- a writer fleet overwriting and deleting rows mid-scan ---
    // Each scripted session walks a slice of the key space in order;
    // some writes commit before the pin, most after — the commit
    // timestamp on each ack decides cut membership exactly.
    let mut writer_stats = Vec::new();
    let mut writer_calls: Vec<Vec<SessionCall>> = Vec::new();
    for w in 0..4u64 {
        let mut calls = Vec::new();
        for i in (w..ROWS).step_by(4) {
            if i % 10 == 3 {
                calls.push(SessionCall::Delete { key: key_of(i), columns: vec![col("c")] });
            } else {
                calls.push(put(key_of(i), &format!("w{w}-{i}")));
            }
        }
        writer_calls.push(calls.clone());
        // Stagger the writers *around* the scan start (two begin just
        // before it, two just after), so the pinned cut genuinely mixes
        // seed values, pre-pin overwrites/deletes, and excluded post-pin
        // writes.
        writer_stats.push(cluster.add_session(calls, 13 * SECS + 900 * MILLIS + w * 40 * MILLIS));
    }

    // --- the mid-scan reconfigurations ---
    let range2_mid = u64_to_key(2 * (u64::MAX / 5) + u64::MAX / 10);
    cluster.split_range(14 * SECS + 60 * MILLIS, RangeId(2), range2_mid);
    cluster.merge_ranges(14 * SECS + 140 * MILLIS, cold_left, cold_right);
    cluster.run_until(24 * SECS);

    // Both reconfigurations really happened.
    let final_ring = cluster.current_ring();
    assert!(final_ring.version() >= pre_scan_version + 2, "split + merge both landed");
    assert_eq!(final_ring.children_of(RangeId(2)).len(), 2, "range 2 split");
    assert!(
        final_ring.def(cold_left).is_none() && final_ring.def(cold_right).is_none(),
        "cold pair dissolved into the merged range"
    );

    // Fold the writers' acked ops (each ack carries its commit ts) into
    // the history.
    for (w, stats) in writer_stats.iter().enumerate() {
        let s = stats.borrow();
        assert_eq!(
            s.outcomes.len(),
            writer_calls[w].len(),
            "writer {w} finished: {:?}",
            s.outcomes
        );
        for (call, outcome) in writer_calls[w].iter().zip(&s.outcomes) {
            let ts = match outcome {
                CallOutcome::Written { ts, .. } => *ts,
                other => panic!("writer {w}: {other:?}"),
            };
            match call {
                SessionCall::Put { key, cells } => {
                    let v = String::from_utf8(cells[0].1.to_vec()).unwrap();
                    history.entry(key.clone()).or_default().push((ts, Some(v)));
                }
                SessionCall::Delete { key, .. } => {
                    history.entry(key.clone()).or_default().push((ts, None));
                }
                other => panic!("unexpected writer call {other:?}"),
            }
        }
    }

    // --- the verdict: the scan equals the model cut at its pinned ts ---
    let s = scan_stats.borrow();
    assert_eq!(s.outcomes.len(), 1, "scan completed: {:?}", s.outcomes);
    let (rows, pinned) = match &s.outcomes[0] {
        CallOutcome::Rows { rows, at_ts } => (rows, *at_ts),
        other => panic!("scan: {other:?}"),
    };
    assert!(pinned > 0, "the scan pinned a snapshot timestamp");

    // Model cut: per key, the newest write with ts <= pinned.
    let mut expected: BTreeMap<Key, String> = BTreeMap::new();
    for (key, hist) in &mut history {
        hist.sort_by_key(|(ts, _)| *ts);
        if let Some((_, Some(v))) = hist.iter().rev().find(|(ts, _)| *ts <= pinned) {
            expected.insert(key.clone(), v.clone());
        }
    }
    // Sanity: the cut is non-trivial — the writers really raced the scan
    // (some of their ops are inside the cut, some outside), so the cut
    // matches neither the pure seed state nor the final state.
    let writer_ts: Vec<u64> = history
        .values()
        .flatten()
        .filter(|(_, v)| v.as_deref().is_none_or(|s| s.starts_with('w')))
        .map(|(ts, _)| *ts)
        .collect();
    assert!(writer_ts.iter().any(|ts| *ts > pinned), "some writer ops landed after the pin");
    assert!(writer_ts.iter().any(|ts| *ts <= pinned), "some writer ops landed before the pin");
    assert!(expected.values().any(|v| v.starts_with('w')), "the cut includes pre-pin overwrites");
    assert!(
        expected.values().any(|v| v.starts_with("seed")),
        "the cut includes untouched seed rows"
    );

    assert_eq!(rows.len(), expected.len(), "no lost or duplicated rows");
    let mut want = expected.iter();
    for row in rows {
        let (key, value) = want.next().expect("model row");
        assert_eq!(&row.key, key, "rows in key order, none skipped");
        assert_eq!(row.cells.len(), 1, "no torn rows");
        assert_eq!(
            row.cells[0].value.as_ref().unwrap().as_ref(),
            value.as_bytes(),
            "key {key:?} reads its snapshot value"
        );
    }
    assert!(
        s.ring_refreshes >= 2,
        "the scan re-routed through WrongRange refreshes mid-flight (got {})",
        s.ring_refreshes
    );
}

/// `Consistency::Snapshot` on `get`: an explicit read timestamp replays
/// history — reading at an old write's commit timestamp returns that
/// write's value even after the column was overwritten and deleted.
#[test]
fn snapshot_get_reads_history_at_an_explicit_timestamp() {
    let mut cluster = quick_cluster(3, 48);
    let key = u64_to_key(5);
    let stats = cluster.add_session(
        vec![
            put(key.clone(), "v1"),
            put(key.clone(), "v2"),
            SessionCall::Delete { key: key.clone(), columns: vec![col("c")] },
        ],
        2 * SECS,
    );
    cluster.run_until(8 * SECS);
    let (ts1, ts2, ts3) = {
        let s = stats.borrow();
        assert_eq!(s.outcomes.len(), 3, "all writes committed: {:?}", s.outcomes);
        let ts_of = |o: &CallOutcome| match o {
            CallOutcome::Written { ts, .. } => *ts,
            other => panic!("write: {other:?}"),
        };
        (ts_of(&s.outcomes[0]), ts_of(&s.outcomes[1]), ts_of(&s.outcomes[2]))
    };
    assert!(ts1 < ts2 && ts2 < ts3, "commit timestamps are strictly increasing");

    let reads = cluster.add_session(
        vec![
            SessionCall::Get {
                key: key.clone(),
                columns: ColumnSelect::One(col("c")),
                consistency: Consistency::snapshot_at(ts1),
            },
            SessionCall::Get {
                key: key.clone(),
                columns: ColumnSelect::One(col("c")),
                consistency: Consistency::snapshot_at(ts2),
            },
            SessionCall::Get {
                key: key.clone(),
                columns: ColumnSelect::One(col("c")),
                consistency: Consistency::snapshot_at(ts3),
            },
            // Pinning get (ts = 0): the leader chooses "now" — sees the
            // latest state (the tombstone).
            SessionCall::Get {
                key,
                columns: ColumnSelect::One(col("c")),
                consistency: Consistency::SNAPSHOT_PIN,
            },
        ],
        9 * SECS,
    );
    cluster.run_until(14 * SECS);
    let r = reads.borrow();
    assert_eq!(r.outcomes.len(), 4, "all reads completed: {:?}", r.outcomes);
    match &r.outcomes[0] {
        CallOutcome::Row { cells, .. } => {
            assert_eq!(cells[0].value.as_ref().unwrap().as_ref(), b"v1", "read at ts1 sees v1");
        }
        other => panic!("get@ts1: {other:?}"),
    }
    match &r.outcomes[1] {
        CallOutcome::Row { cells, .. } => {
            assert_eq!(cells[0].value.as_ref().unwrap().as_ref(), b"v2", "read at ts2 sees v2");
        }
        other => panic!("get@ts2: {other:?}"),
    }
    for (i, name) in [(2usize, "ts3"), (3, "pin")] {
        match &r.outcomes[i] {
            CallOutcome::Row { cells, .. } => {
                assert!(
                    cells.is_empty() || cells[0].value.is_none(),
                    "read at {name} sees the delete: {cells:?}"
                );
            }
            other => panic!("get@{name}: {other:?}"),
        }
    }
    // The pinning get reports the timestamp it was served at, and the
    // explicit-timestamp reads echo theirs — a client can reuse either
    // to replay the same cut later.
    match &r.outcomes[3] {
        CallOutcome::Row { at_ts, .. } => {
            assert!(*at_ts >= ts3, "the pin covers every acked write: {at_ts} vs {ts3}")
        }
        other => panic!("pin get: {other:?}"),
    }
    match &r.outcomes[0] {
        CallOutcome::Row { at_ts, .. } => assert_eq!(*at_ts, ts1, "explicit ts echoed"),
        other => panic!("get@ts1: {other:?}"),
    }
}

/// An actively-read snapshot holds the GC floor via its pin lease:
/// with a tiny retention window, a client that keeps re-reading at its
/// pinned timestamp stays servable far past `snapshot_retain`, and the
/// same pattern with `pin_lease = 0` is rejected once the blanket
/// window passes.
#[test]
fn pin_lease_holds_the_gc_floor_for_active_snapshots() {
    let build = |pin_lease: u64| {
        let mut cfg = ClusterConfig { nodes: 3, seed: 50, ..Default::default() };
        cfg.disk = DiskProfile::Ssd;
        cfg.node.commit_period = 100 * MILLIS;
        // Blanket retention of 500ms: without a lease, any snapshot
        // older than that is unservable.
        cfg.node.snapshot_retain = 500 * MILLIS;
        cfg.node.pin_lease = pin_lease;
        SimCluster::new(cfg)
    };
    let key = u64_to_key(5);
    let get_at = |ts: u64| SessionCall::Get {
        key: u64_to_key(5),
        columns: ColumnSelect::One(col("c")),
        consistency: Consistency::snapshot_at(ts),
    };

    for (lease, expect_live) in [(5 * SECS, true), (0, false)] {
        let mut cluster = build(lease);
        let stats = cluster.add_session(vec![put(key.clone(), "v1")], 2 * SECS);
        // Pin a snapshot right after the write commits.
        let pin = cluster.add_session(
            vec![SessionCall::Get {
                key: key.clone(),
                columns: ColumnSelect::One(col("c")),
                consistency: Consistency::SNAPSHOT_PIN,
            }],
            3 * SECS,
        );
        cluster.run_until(4 * SECS);
        assert!(matches!(&stats.borrow().outcomes[..], [CallOutcome::Written { .. }]));
        let pinned = match &pin.borrow().outcomes[..] {
            [CallOutcome::Row { at_ts, .. }] => *at_ts,
            other => panic!("pin get: {other:?}"),
        };

        // Keep re-reading the pinned cut every second — each page
        // renews the lease — until the snapshot is ~8s old, 16x the
        // blanket retention window.
        let mut rereads = Vec::new();
        for i in 0..8u64 {
            rereads.push(cluster.add_session(vec![get_at(pinned)], (4 + i) * SECS));
        }
        cluster.run_until(13 * SECS);
        let last = rereads.last().unwrap().borrow();
        if expect_live {
            match &last.outcomes[..] {
                [CallOutcome::Row { cells, at_ts }] => {
                    assert_eq!(*at_ts, pinned);
                    assert_eq!(cells[0].value.as_ref().unwrap().as_ref(), b"v1");
                }
                other => panic!("leased snapshot read: {other:?}"),
            }
            // The lease is not a leak: once the reader goes away, the
            // floor resumes advancing and the old pin ages out.
            let late = cluster.add_session(vec![get_at(pinned)], 25 * SECS);
            cluster.run_until(30 * SECS);
            match &late.borrow().outcomes[..] {
                [CallOutcome::Failed(ClientError::SnapshotTooOld { floor })] => {
                    assert!(*floor > pinned, "floor advanced past the abandoned pin");
                }
                other => panic!("abandoned pin must age out, got {other:?}"),
            };
        } else {
            match &last.outcomes[..] {
                [CallOutcome::Failed(ClientError::SnapshotTooOld { floor })] => {
                    assert!(*floor > pinned);
                }
                other => panic!("unleased stale read must fail, got {other:?}"),
            }
        }
    }
}

/// A snapshot read whose timestamp fell below the MVCC
/// garbage-collection floor is **failed**, never silently served from
/// possibly-pruned history.
#[test]
fn snapshot_reads_below_the_gc_floor_fail_cleanly() {
    let mut cluster = {
        let mut cfg = ClusterConfig { nodes: 3, seed: 49, ..Default::default() };
        cfg.disk = DiskProfile::Ssd;
        cfg.node.commit_period = 100 * MILLIS;
        // A deliberately tiny retention window: the floor trails the
        // clock by 500ms, so a 2s-old snapshot is already unservable.
        cfg.node.snapshot_retain = 500 * MILLIS;
        SimCluster::new(cfg)
    };
    let key = u64_to_key(5);
    let stats = cluster.add_session(vec![put(key.clone(), "v1")], 2 * SECS);
    cluster.run_until(10 * SECS);
    let ts1 = match &stats.borrow().outcomes[..] {
        [CallOutcome::Written { ts, .. }] => *ts,
        other => panic!("seed write: {other:?}"),
    };

    let reads = cluster.add_session(
        vec![
            // ~8s old with 500ms retention: must be rejected.
            SessionCall::Get {
                key: key.clone(),
                columns: ColumnSelect::One(col("c")),
                consistency: Consistency::snapshot_at(ts1),
            },
            // A fresh pin still works fine.
            SessionCall::Get {
                key,
                columns: ColumnSelect::One(col("c")),
                consistency: Consistency::SNAPSHOT_PIN,
            },
        ],
        10 * SECS,
    );
    cluster.run_until(14 * SECS);
    let r = reads.borrow();
    assert_eq!(r.outcomes.len(), 2, "both reads resolved: {:?}", r.outcomes);
    match &r.outcomes[0] {
        CallOutcome::Failed(ClientError::SnapshotTooOld { floor }) => {
            assert!(*floor > ts1, "the reported floor is above the stale pin");
        }
        other => panic!("stale snapshot read must fail, got {other:?}"),
    }
    match &r.outcomes[1] {
        CallOutcome::Row { cells, at_ts } => {
            assert_eq!(cells[0].value.as_ref().unwrap().as_ref(), b"v1");
            assert!(*at_ts > ts1, "fresh pin");
        }
        other => panic!("fresh pin get: {other:?}"),
    }
}

/// A follower brought level from the leader's *store* (the leader's log
/// no longer reaches back to the follower's watermark) is sent row
/// chains the leader's compaction pruned at its GC floor. It must take
/// that floor with them: a follower that kept its own, lower floor
/// would hold `v1` from before its crash and `v3` from the leader, with
/// the pruned `v2` gone, and serve `v1` to a read pinned between `v2`
/// and `v3`. Every maintenance tick flushes (so the leader's checkpoint
/// passes the follower's watermark), and the leader alone retains
/// 100 ms of history.
#[test]
fn a_store_catch_up_carries_the_leaders_gc_floor() {
    let mut cfg = ClusterConfig { nodes: 3, seed: 51, ..Default::default() };
    cfg.disk = DiskProfile::Ssd;
    cfg.node.commit_period = 100 * MILLIS;
    cfg.node.memtable_flush_bytes = 1;
    let mut cluster = SimCluster::new(cfg);
    let key = u64_to_key(5);
    let first = cluster.add_session(vec![put(key.clone(), "v1")], 2 * SECS);
    cluster.run_until(3 * SECS);
    assert!(matches!(&first.borrow().outcomes[..], [CallOutcome::Written { .. }]));
    let leader = cluster.leader_of(RangeId(0)).expect("range 0 led");
    let cohort = cluster.current_ring().cohort(RangeId(0));
    let follower = cohort.into_iter().find(|&n| n != leader).expect("a follower");
    let committed = cluster.with_node(follower, |n| n.last_committed(RangeId(0))).unwrap();
    assert!(!committed.is_zero(), "the follower committed v1 before it went down");

    // The follower sleeps through v2, v3 and one write per maintenance
    // tick after them, enough flushes for a compaction.
    cluster.set_retention(3 * SECS, leader, 100 * MILLIS);
    cluster.crash_node(3 * SECS, follower, true);
    let later = cluster.add_session(vec![put(key.clone(), "v2"), put(key.clone(), "v3")], 3 * SECS);
    for i in 0..8 {
        cluster.add_session(
            vec![put(u64_to_key(100 + i), "filler")],
            3 * SECS + (i + 2) * 250 * MILLIS,
        );
    }
    cluster.run_until(6 * SECS);
    let ts2 = match &later.borrow().outcomes[..] {
        [CallOutcome::Written { ts: ts2, .. }, CallOutcome::Written { ts: ts3, .. }] => {
            assert!(ts2 < ts3);
            *ts2
        }
        other => panic!("v2 and v3: {other:?}"),
    };
    let (leader_floor, at_ts2) = cluster
        .with_node(leader, |n| {
            let store = n.store(RangeId(0)).expect("the leader's store");
            (store.gc_floor(), store.get_at(&key, ts2).unwrap())
        })
        .unwrap();
    assert!(leader_floor != u64::MAX && leader_floor > ts2, "floor {leader_floor}");
    assert_eq!(at_ts2, None, "the leader's compaction pruned v2");

    cluster.restart_node(6 * SECS, follower);
    cluster.run_until(8 * SECS);
    let floor = cluster.with_node(follower, |n| n.store(RangeId(0)).unwrap().gc_floor()).unwrap();
    assert!(floor != u64::MAX && floor >= leader_floor, "follower floor {floor}");

    let req = get_request(1, key, "c", Consistency::snapshot_at(ts2));
    let replies = probe::ask(&mut cluster, 8 * SECS, follower, req);
    cluster.run_until(9 * SECS);
    match &replies.borrow()[..] {
        [ClientReply::Err { error: ClientError::Unavailable, .. }] => {}
        other => panic!("a read below the follower's floor must be refused: {other:?}"),
    };
}
