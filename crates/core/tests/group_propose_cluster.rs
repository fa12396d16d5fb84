//! Group-propose integration tests: batched consensus rounds survive a
//! leader crash atomically, and piggy-backed closed timestamps let
//! followers serve pinned snapshot pages while the leader is saturated
//! with writes.

use std::collections::BTreeMap;

use bytes::Bytes;
use spinnaker_common::{Consistency, Key, RangeId};
use spinnaker_core::client::Workload;
use spinnaker_core::cluster::{ClusterConfig, SimCluster};
use spinnaker_core::messages::ColumnSelect;
use spinnaker_core::partition::u64_to_key;
use spinnaker_core::session::{CallOutcome, SessionCall};
use spinnaker_sim::{DiskProfile, MILLIS, SECS};

fn col(name: &str) -> Bytes {
    Bytes::copy_from_slice(name.as_bytes())
}

fn put(key: Key, v: &str) -> SessionCall {
    SessionCall::Put { key, cells: vec![(col("c"), Bytes::copy_from_slice(v.as_bytes()))] }
}

/// A pipelined writer keeps the leader's unproposed queue full, so the
/// log becomes a stream of multi-op batch records. Crashing the leader
/// at increasing offsets tears that stream at arbitrary points — before
/// a batch's force, between force and quorum, after commit. Whatever
/// the tear point, recovery must honour batch atomicity: every write
/// the client saw acked survives the takeover, writes resume under the
/// new leader, and the cohort reconverges (including the restarted
/// crashed leader).
#[test]
fn leader_crash_mid_group_propose_keeps_acked_writes_and_reconverges() {
    for (seed, crash_after) in [(31u64, 0u64), (32, 3), (33, 17), (34, 140)] {
        let mut cfg =
            ClusterConfig { nodes: 5, seed, disk: DiskProfile::Ssd, ..Default::default() };
        cfg.node.commit_period = 200 * MILLIS;
        let mut cluster = SimCluster::new(cfg);
        let stats = cluster.add_client_pipelined(
            Workload::SingleRangeWrites { value_size: 64 },
            8,
            SECS,
            SECS,
            30 * SECS,
        );
        stats.borrow_mut().trace = Some(Vec::new());
        cluster.run_until(4 * SECS);
        let old_leader = cluster.leader_of(RangeId(0)).expect("range 0 led");
        let acked_before = stats.borrow().completed;
        assert!(acked_before > 50, "seed {seed}: pipelined writes flowed: {acked_before}");
        // The batching premise: with 8 calls outstanding, commits vastly
        // outnumber force requests. Unbatched, every write costs one
        // force request on the leader plus one on each follower.
        let (_, force_reqs) = cluster.disk_counters();
        assert!(
            force_reqs < 2 * acked_before,
            "seed {seed}: group proposes coalesce forces: {force_reqs} requests \
             for {acked_before} acked writes"
        );

        cluster.crash_node(4 * SECS + crash_after * MILLIS, old_leader, true);
        cluster.run_until(16 * SECS);
        let new_leader = cluster.leader_of(RangeId(0)).expect("a new leader exists");
        assert_ne!(new_leader, old_leader, "seed {seed}: leadership moved");
        {
            let s = stats.borrow();
            let trace = s.trace.as_ref().unwrap();
            let after = trace.iter().filter(|(t, _)| *t > 8 * SECS).count();
            assert!(
                after > 20,
                "seed {seed} (crash +{crash_after}ms): writes resumed, got {after}"
            );
        }

        // Durability across the tear: `SingleRangeWrites` keys advance
        // sequentially, so after `n` acks keys `0..n` are all present —
        // any hole would mean part of an acked batch was lost.
        let checked = acked_before.min(4096);
        let reads: Vec<SessionCall> = (0..checked)
            .map(|i| SessionCall::Get {
                key: u64_to_key(i),
                columns: ColumnSelect::All,
                consistency: Consistency::Strong,
            })
            .collect();
        let read_stats = cluster.add_session(reads, 16 * SECS);
        cluster.restart_node(16 * SECS, old_leader);
        cluster.run_until(30 * SECS);
        {
            let r = read_stats.borrow();
            assert_eq!(r.outcomes.len() as u64, checked, "seed {seed}: all reads resolved");
            for (i, o) in r.outcomes.iter().enumerate() {
                match o {
                    CallOutcome::Row { cells, .. } => {
                        assert!(
                            !cells.is_empty(),
                            "seed {seed} (crash +{crash_after}ms): acked key {i} lost"
                        );
                    }
                    other => panic!("seed {seed}: key {i} read failed: {other:?}"),
                }
            }
        }

        // The restarted leader rejoins as a follower and the cohort
        // tracks one committed watermark (the writer never stops, so
        // followers may trail by up to a commit period — same bound the
        // steady-state convergence test uses).
        cluster.run_until(34 * SECS);
        let role = cluster.with_node(old_leader, |n| n.role(RangeId(0))).unwrap();
        assert!(
            matches!(
                role,
                spinnaker_core::node::Role::Follower | spinnaker_core::node::Role::Leader
            ),
            "seed {seed}: crashed leader rejoined (role {role:?})"
        );
        let committed: Vec<_> = cluster
            .ring
            .cohort(RangeId(0))
            .into_iter()
            .map(|n| cluster.with_node(n, |node| node.last_committed(RangeId(0))).unwrap())
            .collect();
        let max = *committed.iter().max().unwrap();
        for &c in &committed {
            assert!(
                max.as_u64() - c.as_u64() < 1 << 20,
                "seed {seed}: cohort member lags: {c} vs {max}"
            );
        }
    }
}

/// The tear-offset test one failure deeper: the *new* leader dies while
/// it is re-proposing the tail in groups — some groups re-committed,
/// some in flight, some not yet sent — and its followers keep whatever
/// re-proposed frames their logs had forced. The crash lands just
/// before a commit tick, so the tail is a commit period long (a dozen
/// groups). One follower was down while the tail was written and comes
/// back as the leader dies, and the other one takes over: the tail is
/// re-proposed to the one that lacks it (a follower that holds it only
/// vouches for it) and commits group by group. The old leader comes back,
/// the cohort elects a third time, and that takeover must finish: every
/// write a client saw acknowledged under the first leader is readable,
/// and writes resume.
#[test]
fn new_leader_crash_mid_repropose_keeps_acked_writes_and_next_takeover_finishes() {
    const R0: RangeId = RangeId(0);
    for seed in [41u64, 42] {
        let mut cfg =
            ClusterConfig { nodes: 5, seed, disk: DiskProfile::Ssd, ..Default::default() };
        cfg.node.commit_period = 200 * MILLIS;
        let mut cluster = SimCluster::new(cfg);
        let stats = cluster.add_client_pipelined(
            Workload::SingleRangeWrites { value_size: 64 },
            8,
            SECS,
            SECS,
            30 * SECS,
        );
        stats.borrow_mut().trace = Some(Vec::new());
        let kill = 4 * SECS - 10 * MILLIS;
        let asleep = kill - 300 * MILLIS;
        cluster.run_until(asleep);
        let first = cluster.leader_of(R0).expect("range 0 led");
        let cohort = cluster.ring.cohort(R0);
        let sleeper = *cohort.iter().rfind(|&&n| n != first).expect("a follower");
        cluster.crash_node(asleep, sleeper, true);
        cluster.run_until(kill);
        assert_eq!(cluster.leader_of(R0), Some(first), "the leader outlived the sleeper");
        let acked_before = stats.borrow().completed;
        cluster.crash_node(kill, first, true);
        cluster.restart_node(kill, sleeper);

        // Step until a successor has re-committed part of the tail and is
        // still taking over; kill it there.
        let mut now = kill;
        let mut taking_over: Option<(u32, spinnaker_common::Lsn)> = None;
        let second = loop {
            now += 100 * spinnaker_sim::MICROS;
            assert!(now < kill + SECS, "seed {seed}: no takeover caught mid-re-propose");
            cluster.run_until(now);
            let Some(&n) = cohort.iter().find(|&&n| {
                cluster.role_of(R0, n) == Some(spinnaker_core::node::Role::LeaderTakeover)
            }) else {
                assert!(cluster.leader_of(R0).is_none(), "seed {seed}: takeover finished unseen");
                continue;
            };
            let cmt = cluster.with_node(n, |node| node.last_committed(R0)).unwrap();
            match taking_over {
                Some((m, at_start)) if m == n && cmt > at_start => break n,
                Some((m, _)) if m == n => {}
                _ => taking_over = Some((n, cmt)),
            }
        };
        let tail = cluster.with_node(second, |n| n.last_lsn(R0).seq()).unwrap()
            - taking_over.unwrap().1.seq();
        assert!(tail > 128, "seed {seed}: the tail spans several groups ({tail} writes)");
        cluster.crash_node(now, second, true);
        cluster.restart_node(now + 100 * MILLIS, first);
        cluster.run_until(12 * SECS);

        let third = cluster.leader_of(R0).expect("the next takeover finished");
        assert_ne!(third, second);
        let resumed =
            stats.borrow().trace.as_ref().unwrap().iter().filter(|(t, _)| *t > 6 * SECS).count();
        assert!(resumed > 20, "seed {seed}: writes resumed, got {resumed}");
        let checked = acked_before.min(4096);
        let reads: Vec<SessionCall> = (0..checked)
            .map(|i| SessionCall::Get {
                key: u64_to_key(i),
                columns: ColumnSelect::All,
                consistency: Consistency::Strong,
            })
            .collect();
        let read_stats = cluster.add_session(reads, 12 * SECS);
        cluster.restart_node(12 * SECS, second);
        cluster.run_until(22 * SECS);
        let r = read_stats.borrow();
        assert_eq!(r.outcomes.len() as u64, checked, "seed {seed}: all reads resolved");
        for (i, o) in r.outcomes.iter().enumerate() {
            assert!(
                matches!(o, CallOutcome::Row { cells, .. } if !cells.is_empty()),
                "seed {seed}: acked key {i}: {o:?}"
            );
        }
        let role = cluster.role_of(R0, second);
        assert!(
            matches!(
                role,
                Some(spinnaker_core::node::Role::Follower | spinnaker_core::node::Role::Leader)
            ),
            "seed {seed}: the second casualty rejoined (role {role:?})"
        );
    }
}

/// With `piggyback_commits` on, every propose and commit carries the
/// leader's closed timestamp, so caught-up followers can serve pinned
/// snapshot pages themselves. Under a saturating pipelined writer the
/// follower-served scan must still be an exact cut — and the followers,
/// not the leader, must serve the majority of its pages.
#[test]
fn followers_serve_exact_pinned_cut_under_saturating_writer() {
    const ROWS: u64 = 80;
    let mut cfg =
        ClusterConfig { nodes: 5, seed: 61, disk: DiskProfile::Ssd, ..Default::default() };
    cfg.node.commit_period = 100 * MILLIS;
    cfg.node.piggyback_commits = true;
    let mut cluster = SimCluster::new(cfg);

    // Known rows strictly inside range 0 (span `[0, u64::MAX/5)`), well
    // above the saturator's key indexes (0..4096) so the scan window
    // `[key_of(0), range end)` never meets saturator rows.
    let step = (u64::MAX / 5) / (ROWS + 2);
    let key_of = |i: u64| u64_to_key((i + 1) * step);
    let seeds: Vec<SessionCall> = (0..ROWS).map(|i| put(key_of(i), &format!("seed{i}"))).collect();
    let seed_stats = cluster.add_session(seeds, SECS);
    cluster.run_until(8 * SECS);

    // Per-key history of (commit_ts, value) — the model the cut is
    // checked against.
    let mut history: BTreeMap<Key, Vec<(u64, String)>> = BTreeMap::new();
    {
        let s = seed_stats.borrow();
        assert_eq!(s.outcomes.len() as u64, ROWS, "seed writes all committed: {:?}", s.outcomes);
        for (i, o) in s.outcomes.iter().enumerate() {
            match o {
                CallOutcome::Written { ts, .. } => {
                    history.entry(key_of(i as u64)).or_default().push((*ts, format!("seed{i}")));
                }
                other => panic!("seed {i}: {other:?}"),
            }
        }
    }

    // The saturating writer: 8 writes outstanding against range 0's
    // leader for the whole scan window.
    let sat = cluster.add_client_pipelined(
        Workload::SingleRangeWrites { value_size: 256 },
        8,
        8 * SECS,
        9 * SECS,
        20 * SECS,
    );

    // Two scripted overwriters race the scan across the pin, so the cut
    // genuinely mixes pre-pin overwrites with excluded post-pin ones.
    let mut writer_stats = Vec::new();
    let mut writer_calls: Vec<Vec<SessionCall>> = Vec::new();
    for w in 0..2u64 {
        let calls: Vec<SessionCall> =
            (w..ROWS).step_by(2).map(|i| put(key_of(i), &format!("w{w}-{i}"))).collect();
        writer_calls.push(calls.clone());
        writer_stats.push(cluster.add_session(calls, 9 * SECS + 800 * MILLIS + w * 300 * MILLIS));
    }

    // The pinned scan: page=1, so every row is its own page request,
    // load-balanced across the cohort's replicas.
    let scan_stats = cluster.add_session(
        vec![SessionCall::Scan {
            start: key_of(0),
            end: Some(u64_to_key(u64::MAX / 5)),
            page: 1,
            consistency: Consistency::SNAPSHOT_PIN,
        }],
        10 * SECS,
    );
    cluster.run_until(22 * SECS);

    assert!(sat.borrow().completed > 200, "the writer saturated the leader throughout");

    // Fold the racing overwrites into the model.
    for (w, stats) in writer_stats.iter().enumerate() {
        let s = stats.borrow();
        assert_eq!(s.outcomes.len(), writer_calls[w].len(), "writer {w} finished");
        for (call, outcome) in writer_calls[w].iter().zip(&s.outcomes) {
            let (SessionCall::Put { key, cells }, CallOutcome::Written { ts, .. }) =
                (call, outcome)
            else {
                panic!("writer {w}: {call:?} -> {outcome:?}");
            };
            let v = String::from_utf8(cells[0].1.to_vec()).unwrap();
            history.entry(key.clone()).or_default().push((*ts, v));
        }
    }

    let s = scan_stats.borrow();
    let (rows, pinned) = match &s.outcomes[..] {
        [CallOutcome::Rows { rows, at_ts }] => (rows, *at_ts),
        other => panic!("scan: {other:?}"),
    };
    assert!(pinned > 0, "the scan pinned a snapshot timestamp");

    // The cut is exact: per key, the newest write with ts <= pinned.
    let mut expected: BTreeMap<Key, String> = BTreeMap::new();
    for (key, hist) in &mut history {
        hist.sort_by_key(|(ts, _)| *ts);
        if let Some((_, v)) = hist.iter().rev().find(|(ts, _)| *ts <= pinned) {
            expected.insert(key.clone(), v.clone());
        }
    }
    let writer_ts: Vec<u64> =
        history.values().flatten().filter(|(_, v)| v.starts_with('w')).map(|(ts, _)| *ts).collect();
    assert!(writer_ts.iter().any(|ts| *ts > pinned), "some overwrites landed after the pin");
    assert!(writer_ts.iter().any(|ts| *ts <= pinned), "some overwrites landed before the pin");

    assert_eq!(rows.len(), expected.len(), "no lost or duplicated rows");
    for (row, (key, value)) in rows.iter().zip(expected.iter()) {
        assert_eq!(&row.key, key, "rows in key order, none skipped");
        assert_eq!(
            row.cells[0].value.as_ref().unwrap().as_ref(),
            value.as_bytes(),
            "key {key:?} reads its snapshot value"
        );
    }

    // The read-scaling claim: the followers, not the write-saturated
    // leader, served the majority of the pages.
    let leader = cluster.leader_of(RangeId(0)).expect("range 0 led");
    let mut leader_pages = 0;
    let mut follower_pages = 0;
    for n in cluster.ring.cohort(RangeId(0)) {
        let pages = cluster.with_node(n, |node| node.snapshot_pages(RangeId(0))).unwrap();
        if n == leader {
            leader_pages += pages;
        } else {
            follower_pages += pages;
        }
    }
    assert!(
        follower_pages > leader_pages,
        "followers served the majority of snapshot pages: \
         followers {follower_pages} vs leader {leader_pages}"
    );
    assert!(
        follower_pages + leader_pages >= ROWS,
        "every row was a served page: {follower_pages} + {leader_pages}"
    );

    // The followers really learned the cut from closed timestamps.
    for n in cluster.ring.cohort(RangeId(0)) {
        if n != leader {
            let closed = cluster.with_node(n, |node| node.closed_ts(RangeId(0))).unwrap();
            assert!(closed >= pinned, "follower {n} closed past the pin: {closed} vs {pinned}");
        }
    }
}
