//! Cluster tests of the typed `Session` API: every §3 verb end to end,
//! tombstone-version semantics for conditional ops, pipelined clients,
//! and — the centerpiece — a strongly consistent logical scan that stays
//! exact (no lost, duplicated, or torn rows) while a range **split and a
//! range merge both land mid-scan**, with the client resuming from the
//! continuation key after each `WrongRange`.

use std::collections::BTreeMap;

use bytes::Bytes;
use spinnaker_common::{ClientError, Consistency, Key, RangeId};
use spinnaker_core::client::Workload;
use spinnaker_core::cluster::{ClusterConfig, SimCluster};
use spinnaker_core::messages::ColumnSelect;
use spinnaker_core::partition::u64_to_key;
use spinnaker_core::session::{CallOutcome, SessionCall};
use spinnaker_sim::{DiskProfile, MILLIS, SECS};

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

/// §3 `put` + `get` in all three selection shapes (one column, a column
/// set, the whole row), at both consistency levels. The timeline read
/// runs in a second session a second after the first starts, ten commit
/// periods after the put committed: whichever replica serves it has
/// applied the put. Several seeds, so the check does not rest on which
/// replica one seed's draw picks.
#[test]
fn put_and_get_cover_the_selection_shapes() {
    for seed in 41..=47 {
        let mut cluster = quick_cluster(3, seed);
        let stats = cluster.add_session(
            vec![
                SessionCall::Put {
                    key: u64_to_key(7),
                    cells: vec![(col("a"), val("v-a")), (col("b"), val("v-b"))],
                },
                SessionCall::Get {
                    key: u64_to_key(7),
                    columns: ColumnSelect::All,
                    consistency: Consistency::Strong,
                },
                SessionCall::Get {
                    key: u64_to_key(7),
                    columns: ColumnSelect::One(col("a")),
                    consistency: Consistency::Strong,
                },
                SessionCall::Get {
                    key: u64_to_key(999),
                    columns: ColumnSelect::All,
                    consistency: Consistency::Strong,
                },
            ],
            2 * SECS,
        );
        let timeline = cluster.add_session(
            vec![SessionCall::Get {
                key: u64_to_key(7),
                columns: ColumnSelect::Set(vec![col("a"), col("b"), col("nope")]),
                consistency: Consistency::Timeline,
            }],
            3 * SECS,
        );
        cluster.run_until(8 * SECS);
        let s = stats.borrow();
        assert_eq!(s.outcomes.len(), 4, "seed {seed}: all calls completed: {:?}", s.outcomes);
        let put_version = match &s.outcomes[0] {
            CallOutcome::Written { version, .. } => *version,
            other => panic!("seed {seed}: put: {other:?}"),
        };
        match &s.outcomes[1] {
            CallOutcome::Row { cells, .. } => {
                assert_eq!(cells.len(), 2, "seed {seed}: whole-row get sees both columns");
                assert_eq!(cells[0].value.as_ref().unwrap().as_ref(), b"v-a");
                assert_eq!(cells[1].value.as_ref().unwrap().as_ref(), b"v-b");
                assert!(cells.iter().all(|c| c.version == put_version), "one write, one version");
            }
            other => panic!("seed {seed}: get all: {other:?}"),
        }
        match &s.outcomes[2] {
            CallOutcome::Row { cells, .. } => {
                assert_eq!(cells.len(), 1, "seed {seed}");
                assert_eq!(cells[0].col.as_ref(), b"a");
            }
            other => panic!("seed {seed}: get one: {other:?}"),
        }
        match &s.outcomes[3] {
            CallOutcome::Row { cells, .. } => {
                assert!(cells.is_empty(), "seed {seed}: absent row reads empty")
            }
            other => panic!("seed {seed}: get absent: {other:?}"),
        }
        let t = timeline.borrow();
        match t.outcomes.as_slice() {
            [CallOutcome::Row { cells, .. }] => {
                assert_eq!(
                    cells.len(),
                    2,
                    "seed {seed}: never-written column omitted from the set"
                );
            }
            other => panic!("seed {seed}: get set: {other:?}"),
        }
    }
}

/// §3 `delete` + §5.1: a deleted column is distinguishable from one that
/// was never written — the read surfaces the tombstone's version, and a
/// conditional put with `expected = 0` ("must never have been written")
/// is rejected against the tombstone.
#[test]
fn delete_surfaces_tombstone_version_for_conditionals() {
    let mut cluster = quick_cluster(3, 42);
    let key = u64_to_key(11);
    let stats = cluster.add_session(
        vec![
            SessionCall::Put { key: key.clone(), cells: vec![(col("c"), val("v1"))] },
            SessionCall::Delete { key: key.clone(), columns: vec![col("c")] },
            SessionCall::Get {
                key: key.clone(),
                columns: ColumnSelect::One(col("c")),
                consistency: Consistency::Strong,
            },
            // Deleted ≠ never written: expected=0 must fail...
            SessionCall::ConditionalPut {
                key: key.clone(),
                col: col("c"),
                value: val("v2"),
                expected: 0,
            },
        ],
        2 * SECS,
    );
    cluster.run_until(8 * SECS);
    let (delete_version, tombstone_actual) = {
        let s = stats.borrow();
        assert_eq!(s.outcomes.len(), 4, "all calls completed: {:?}", s.outcomes);
        let delete_version = match &s.outcomes[1] {
            CallOutcome::Written { version, .. } => *version,
            other => panic!("delete: {other:?}"),
        };
        match &s.outcomes[2] {
            CallOutcome::Row { cells, .. } => {
                assert_eq!(cells.len(), 1, "deleted column still surfaces a cell");
                assert!(cells[0].value.is_none(), "…with no value (tombstone)");
                assert_eq!(cells[0].version, delete_version, "…at the tombstone's version");
            }
            other => panic!("get deleted: {other:?}"),
        }
        let actual = match &s.outcomes[3] {
            CallOutcome::Failed(ClientError::VersionMismatch { actual }) => *actual,
            other => panic!("cond put expected=0 against tombstone: {other:?}"),
        };
        (delete_version, actual)
    };
    assert_eq!(tombstone_actual, delete_version, "mismatch reports the tombstone version");

    // ...while expecting the tombstone's version succeeds (§5.1
    // "recreate only if still deleted as I observed").
    let stats2 = cluster.add_session(
        vec![
            SessionCall::ConditionalPut {
                key: key.clone(),
                col: col("c"),
                value: val("v2"),
                expected: delete_version,
            },
            SessionCall::Get {
                key,
                columns: ColumnSelect::One(col("c")),
                consistency: Consistency::Strong,
            },
        ],
        9 * SECS,
    );
    cluster.run_until(14 * SECS);
    let s2 = stats2.borrow();
    assert_eq!(s2.outcomes.len(), 2, "all calls completed: {:?}", s2.outcomes);
    assert!(matches!(&s2.outcomes[0], CallOutcome::Written { .. }));
    match &s2.outcomes[1] {
        CallOutcome::Row { cells, .. } => {
            assert_eq!(cells[0].value.as_ref().unwrap().as_ref(), b"v2");
        }
        other => panic!("get recreated: {other:?}"),
    }
}

/// §3 `conditionalPut` + `conditionalDelete`: success, mismatch, and the
/// version chain between them.
#[test]
fn conditional_put_and_delete_chain_versions() {
    let mut cluster = quick_cluster(3, 43);
    let key = u64_to_key(23);
    let stats = cluster.add_session(
        vec![
            SessionCall::ConditionalPut {
                key: key.clone(),
                col: col("c"),
                value: val("v1"),
                expected: 0,
            },
            // Wrong expected version: rejected with the stored version.
            SessionCall::ConditionalPut {
                key: key.clone(),
                col: col("c"),
                value: val("bad"),
                expected: 12345,
            },
            // A conditional delete against a bogus version is rejected…
            SessionCall::ConditionalDelete { key: key.clone(), col: col("c"), expected: 54321 },
        ],
        2 * SECS,
    );
    cluster.run_until(8 * SECS);
    let v1 = {
        let s = stats.borrow();
        assert_eq!(s.outcomes.len(), 3, "all calls completed: {:?}", s.outcomes);
        let v1 = match &s.outcomes[0] {
            CallOutcome::Written { version, .. } => *version,
            other => panic!("cond put: {other:?}"),
        };
        assert_eq!(s.outcomes[1], CallOutcome::Failed(ClientError::VersionMismatch { actual: v1 }));
        assert_eq!(s.outcomes[2], CallOutcome::Failed(ClientError::VersionMismatch { actual: v1 }));
        v1
    };
    // …while the observed version deletes cleanly, and the value is gone.
    let stats2 = cluster.add_session(
        vec![
            SessionCall::ConditionalDelete { key: key.clone(), col: col("c"), expected: v1 },
            SessionCall::Get {
                key,
                columns: ColumnSelect::One(col("c")),
                consistency: Consistency::Strong,
            },
        ],
        9 * SECS,
    );
    cluster.run_until(14 * SECS);
    let s2 = stats2.borrow();
    assert_eq!(s2.outcomes.len(), 2, "all calls completed: {:?}", s2.outcomes);
    assert!(matches!(&s2.outcomes[0], CallOutcome::Written { .. }));
    match &s2.outcomes[1] {
        CallOutcome::Row { cells, .. } => assert!(cells[0].value.is_none(), "deleted"),
        other => panic!("get after cond delete: {other:?}"),
    }
}

/// The centerpiece: a strongly consistent logical scan over the whole
/// key space (≥ 5 ranges) returns *exactly* the committed rows — no
/// lost, duplicated, or torn rows against a model map — while a range
/// **split and a range merge both land mid-scan**. The client's table
/// goes stale twice; each `WrongRange` refresh resumes the scan from the
/// continuation key under the new table.
#[test]
fn strong_scan_exact_across_live_split_and_merge() {
    const ROWS: u64 = 150;
    let mut cluster = quick_cluster(5, 44);
    let step = u64::MAX / ROWS;

    // Seed: ROWS two-column rows spread across every range, written
    // through the typed session (the model map mirrors them).
    let mut model: BTreeMap<Key, (String, String)> = BTreeMap::new();
    let mut seeds = Vec::new();
    for i in 0..ROWS {
        let key = u64_to_key(i * step);
        let (a, b) = (format!("a{i}"), format!("b{i}"));
        seeds.push(SessionCall::Put {
            key: key.clone(),
            cells: vec![(col("a"), val(&a)), (col("b"), val(&b))],
        });
        model.insert(key, (a, b));
    }
    let seed_stats = cluster.add_session(seeds, 2 * SECS);
    cluster.run_until(12 * SECS);
    {
        let s = seed_stats.borrow();
        assert_eq!(s.outcomes.len() as u64, ROWS, "seed writes all committed");
        assert!(s.outcomes.iter().all(|o| matches!(o, CallOutcome::Written { .. })));
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

    // The scan starts at t=14s with a deliberately small page (2 rows):
    // ~75 round trips, so both reconfigurations land while it is in
    // flight. Split range 2 at +60ms, merge the cold pair at +140ms.
    let scan_stats = cluster.add_session(
        vec![SessionCall::Scan {
            start: Key::default(),
            end: None,
            page: 2,
            consistency: Consistency::Strong,
        }],
        14 * SECS,
    );
    let range2_mid = u64_to_key(2 * (u64::MAX / 5) + u64::MAX / 10);
    cluster.split_range(14 * SECS + 60 * MILLIS, RangeId(2), range2_mid);
    cluster.merge_ranges(14 * SECS + 140 * MILLIS, cold_left, cold_right);
    cluster.run_until(20 * SECS);

    // Both reconfigurations really happened.
    let final_ring = cluster.current_ring();
    assert!(final_ring.version() >= pre_scan_version + 2, "split + merge both landed");
    assert_eq!(final_ring.children_of(RangeId(2)).len(), 2, "range 2 split");
    assert!(
        final_ring.def(cold_left).is_none() && final_ring.def(cold_right).is_none(),
        "cold pair dissolved into the merged range"
    );

    // The scan is exact against the model: every committed row, exactly
    // once, both columns intact.
    let s = scan_stats.borrow();
    assert_eq!(s.outcomes.len(), 1, "scan completed: {:?}", s.outcomes);
    let rows = match &s.outcomes[0] {
        CallOutcome::Rows { rows, .. } => rows,
        other => panic!("scan: {other:?}"),
    };
    assert_eq!(rows.len() as u64, ROWS, "no lost or duplicated rows");
    let mut expected = model.iter();
    for row in rows {
        let (key, (a, b)) = expected.next().expect("model row");
        assert_eq!(&row.key, key, "rows in key order, none skipped");
        assert_eq!(row.cells.len(), 2, "no torn rows (both columns present)");
        assert_eq!(row.cells[0].value.as_ref().unwrap().as_ref(), a.as_bytes());
        assert_eq!(row.cells[1].value.as_ref().unwrap().as_ref(), b.as_bytes());
    }
    assert!(
        s.ring_refreshes >= 2,
        "the scan re-routed through WrongRange refreshes mid-flight (got {})",
        s.ring_refreshes
    );
}

/// Pipelined clients: N outstanding ops complete, persist, and beat
/// nothing — correctness only here (the throughput claim is fig19's).
#[test]
fn pipelined_writes_complete_and_persist() {
    let mut cluster = quick_cluster(3, 45);
    let stats = cluster.add_client_pipelined(
        Workload::SingleRangeWrites { value_size: 64 },
        8,
        SECS,
        SECS,
        10 * SECS,
    );
    cluster.run_until(10 * SECS);
    let completed = stats.borrow().total_completed;
    assert!(completed > 100, "pipelined writes flowed: {completed}");

    // Read back a prefix of the written keys through a typed session:
    // with a window of 8, everything issued before the last 8
    // completions is durably acked.
    let check = (completed as usize).saturating_sub(16).min(32) as u64;
    let calls: Vec<SessionCall> = (0..check)
        .map(|i| SessionCall::Get {
            key: u64_to_key(i),
            columns: ColumnSelect::One(col("c")),
            consistency: Consistency::Strong,
        })
        .collect();
    let reads = cluster.add_session(calls, 11 * SECS);
    cluster.run_until(16 * SECS);
    let r = reads.borrow();
    assert_eq!(r.outcomes.len() as u64, check);
    for (i, o) in r.outcomes.iter().enumerate() {
        match o {
            CallOutcome::Row { cells, .. } if cells.len() == 1 && cells[0].value.is_some() => {}
            other => panic!("key {i} missing after pipelined writes: {other:?}"),
        }
    }
}

/// Timeline scans are served without leader round-trips and still page
/// across ranges.
#[test]
fn timeline_scan_pages_across_ranges() {
    let mut cluster = quick_cluster(4, 46);
    let step = u64::MAX / 40;
    let seeds: Vec<SessionCall> = (0..40u64)
        .map(|i| SessionCall::Put {
            key: u64_to_key(i * step),
            cells: vec![(col("c"), val(&format!("v{i}")))],
        })
        .collect();
    let seed_stats = cluster.add_session(seeds, 2 * SECS);
    cluster.run_until(8 * SECS);
    assert_eq!(seed_stats.borrow().outcomes.len(), 40);

    // Commit messages propagate within the 100ms commit period; by now
    // every follower has applied the full history.
    let scan = cluster.add_session(
        vec![SessionCall::Scan {
            start: Key::default(),
            end: None,
            page: 7,
            consistency: Consistency::Timeline,
        }],
        9 * SECS,
    );
    cluster.run_until(12 * SECS);
    let s = scan.borrow();
    match &s.outcomes[..] {
        [CallOutcome::Rows { rows, .. }] => {
            assert_eq!(rows.len(), 40, "timeline scan sees the settled history");
        }
        other => panic!("timeline scan: {other:?}"),
    }
}
