//! MVCC visibility property test: for **any** interleaving of puts,
//! deletes, flushes, compactions, and GC-floor raises, a snapshot read
//! at every *retained* timestamp (above the floor the store was last
//! garbage-collected at) returns exactly the model cut — never a torn
//! cell (a value from the wrong side of the cut) and never a
//! resurrected one (a deleted column coming back, or a pruned version
//! reappearing). And the point read, which takes each fragment's visible
//! version and never builds a chain, returns at every such timestamp the
//! heads of the reference read that does: the row a scan collapses with
//! `merge_newer`, then `visible_at`.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use spinnaker_common::vfs::MemVfs;
use spinnaker_common::{CellOp, Key, Lsn, Row, WriteOp};
use spinnaker_storage::{RangeStore, StoreOptions};

/// One step of the interleaving.
#[derive(Clone, Debug)]
enum Step {
    /// Write `key.c = value` (the commit timestamp is assigned by the
    /// driver, monotonically).
    Put { key: u8, value: u16 },
    /// Delete `key.c` (a tombstone at the next commit timestamp).
    Delete { key: u8 },
    /// Flush the memtable to an SSTable.
    Flush,
    /// Run a full compaction (tombstone + version GC at the floor).
    CompactAll,
    /// Run the size-tiered compaction heuristic.
    MaybeCompact,
    /// Raise the GC floor to `lag` timestamps below the newest commit.
    RaiseFloor { lag: u8 },
}

fn step_strat() -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => (any::<u8>(), any::<u16>()).prop_map(|(key, value)| Step::Put { key: key % 12, value }),
        2 => any::<u8>().prop_map(|key| Step::Delete { key: key % 12 }),
        2 => Just(Step::Flush),
        1 => Just(Step::CompactAll),
        1 => Just(Step::MaybeCompact),
        1 => any::<u8>().prop_map(|lag| Step::RaiseFloor { lag: lag % 32 }),
    ]
}

fn key_of(i: u8) -> Key {
    Key::from(format!("key{i:03}").as_str())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn snapshot_reads_match_the_model_at_every_retained_timestamp(
        steps in proptest::collection::vec(step_strat(), 1..96),
    ) {
        let vfs = MemVfs::new();
        let mut store = RangeStore::open(
            Arc::new(vfs),
            StoreOptions { compaction_fanin: 2, ..Default::default() },
        ).unwrap();
        // Arm MVCC retention: the default floor (`u64::MAX`) keeps only
        // the latest version, exactly like a node that never enables
        // snapshot reads. This test models a node whose maintenance tick
        // governs the floor, starting at "retain everything".
        store.set_gc_floor(0);

        // Model: per key, the full history of `c` as (ts, Some(value) |
        // None-for-tombstone), in commit order.
        let mut history: BTreeMap<Key, Vec<(u64, Option<u16>)>> = BTreeMap::new();
        let mut ts = 0u64;
        let mut seq = 0u64;
        // The highest floor ever applied: visibility below it is forfeit.
        let mut floor = 0u64;

        for step in steps {
            match step {
                Step::Put { key, value } => {
                    ts += 1;
                    seq += 1;
                    let op = WriteOp::put(
                        key_of(key),
                        bytes::Bytes::from_static(b"c"),
                        bytes::Bytes::copy_from_slice(&value.to_be_bytes()),
                        ts,
                    );
                    store.apply(&op, Lsn::new(1, seq));
                    history.entry(key_of(key)).or_default().push((ts, Some(value)));
                }
                Step::Delete { key } => {
                    ts += 1;
                    seq += 1;
                    let op = WriteOp::delete(key_of(key), bytes::Bytes::from_static(b"c"), ts);
                    store.apply(&op, Lsn::new(1, seq));
                    history.entry(key_of(key)).or_default().push((ts, None));
                }
                Step::Flush => { store.flush().unwrap(); }
                Step::CompactAll => { store.compact_all().unwrap(); }
                Step::MaybeCompact => { store.maybe_compact().unwrap(); }
                Step::RaiseFloor { lag } => {
                    let f = ts.saturating_sub(lag as u64);
                    store.set_gc_floor(f);
                    floor = floor.max(f);
                }
            }

            // Check every retained timestamp (floor..=ts, plus one past
            // the end) against the model cut for every key ever touched.
            for read_ts in floor..=ts + 1 {
                for (key, hist) in &history {
                    let expect = hist.iter().rev().find(|(t, _)| *t <= read_ts);
                    let got = store.get_at(key, read_ts).unwrap();
                    let got_live = got
                        .as_ref()
                        .and_then(|row| row.get_live(b"c"))
                        .map(|cv| cv.value.clone());
                    match expect {
                        None | Some((_, None)) => prop_assert!(
                            got_live.is_none(),
                            "ts {read_ts} {key:?}: expected absent/deleted, got {got_live:?} \
                             (floor {floor}, now {ts})"
                        ),
                        Some((wrote_at, Some(v))) => {
                            let want = bytes::Bytes::copy_from_slice(&v.to_be_bytes());
                            prop_assert_eq!(
                                got_live.clone(), Some(want),
                                "ts {} {:?}: torn cell (wrote at {}, floor {}, now {})",
                                read_ts, key, wrote_at, floor, ts
                            );
                        }
                    }
                }
            }
        }

        // A survivor check after everything settled: flush + full
        // compaction at the final floor still preserves the retained cut.
        store.flush().unwrap();
        store.compact_all().unwrap();
        for read_ts in floor..=ts + 1 {
            for (key, hist) in &history {
                let expect = hist.iter().rev().find(|(t, _)| *t <= read_ts).and_then(|(_, v)| *v);
                let got = store
                    .get_at(key, read_ts)
                    .unwrap()
                    .and_then(|row| row.get_live(b"c").map(|cv| cv.value.clone()));
                let want = expect.map(|v| bytes::Bytes::copy_from_slice(&v.to_be_bytes()));
                prop_assert_eq!(got, want, "post-settle ts {} {:?}", read_ts, key);
            }
        }
    }
}

/// A write to up to three of the columns `a`, `b`, `c` of one row, or a
/// step that moves the data without changing it.
#[derive(Clone, Debug)]
enum WideStep {
    /// `(column, Some(value) | None-for-delete)` per cell.
    Write {
        key: u8,
        cells: Vec<(u8, Option<u16>)>,
    },
    Flush,
    CompactAll,
    MaybeCompact,
    /// Raise the GC floor to `lag` timestamps below the newest commit.
    RaiseFloor {
        lag: u8,
    },
}

fn wide_step_strat() -> impl Strategy<Value = WideStep> {
    let cell = (0u8..3, prop_oneof![3 => any::<u16>().prop_map(Some), 1 => Just(None)]);
    prop_oneof![
        8 => (any::<u8>(), proptest::collection::vec(cell, 1..4))
            .prop_map(|(key, cells)| WideStep::Write { key: key % 6, cells }),
        2 => Just(WideStep::Flush),
        1 => Just(WideStep::CompactAll),
        1 => Just(WideStep::MaybeCompact),
        1 => any::<u8>().prop_map(|lag| WideStep::RaiseFloor { lag: lag % 32 }),
    ]
}

/// The cell mutations of one wide write.
fn cells_of(cells: &[(u8, Option<u16>)]) -> Vec<CellOp> {
    cells
        .iter()
        .map(|&(col, value)| {
            let col = bytes::Bytes::copy_from_slice(&[b'a' + col]);
            match value {
                Some(v) => {
                    CellOp::Put { col, value: bytes::Bytes::copy_from_slice(&v.to_be_bytes()) }
                }
                None => CellOp::Delete { col },
            }
        })
        .collect()
}

/// Hold `get`, `get_at` and `get_column` of keys 0..=6 against the
/// reference read at every timestamp in `floor..=now + 1` and at the
/// latest. Returns how many of the reads saw a stored row with nothing
/// visible yet, and how many tombstone heads they returned.
fn check_point_reads(store: &RangeStore, floor: u64, now: u64) -> (usize, usize) {
    // The reference: every row with its chains, as a scan merges them.
    let full: BTreeMap<Key, Row> = store.scan(&Key::default(), None).unwrap().into_iter().collect();
    let (mut nothing_visible, mut tombstone_heads) = (0, 0);
    for key in (0..=6).map(key_of) {
        for read_ts in (floor..=now + 1).chain([u64::MAX]) {
            let want = full.get(&key).map(|row| row.visible_at(read_ts)).filter(|r| !r.is_empty());
            let got = store.get_at(&key, read_ts).unwrap();
            assert_eq!(got, want, "{key:?} at {read_ts} (floor {floor}, now {now})");
            nothing_visible += usize::from(want.is_none() && full.contains_key(&key));
            tombstone_heads +=
                want.iter().flat_map(|r| r.columns.values()).filter(|cv| cv.tombstone).count();
        }
        assert_eq!(store.get(&key).unwrap(), store.get_at(&key, u64::MAX).unwrap());
        for col in [b"a", b"b", b"c"] {
            let want = full.get(&key).and_then(|row| row.get(col)).map(|cv| cv.flattened());
            assert_eq!(store.get_column(&key, col).unwrap(), want, "{key:?}.{col:?}");
        }
    }
    (nothing_visible, tombstone_heads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn point_reads_equal_the_heads_of_the_merged_chains_at_every_retained_timestamp(
        steps in proptest::collection::vec(wide_step_strat(), 1..80),
    ) {
        let mut store = RangeStore::open(
            Arc::new(MemVfs::new()),
            StoreOptions { compaction_fanin: 2, ..Default::default() },
        ).unwrap();
        store.set_gc_floor(0);
        // Key 6 is written here and never again: a put and a delete at
        // timestamp 1, so the first check reads a stored row at 0, where
        // nothing of it is visible, and a tombstone head from 1 on.
        let (mut ts, mut floor) = (1u64, 0u64);
        let prelude = WriteOp { key: key_of(6), cells: cells_of(&[(0, Some(7)), (1, None)]), timestamp: 1, origin: None };
        store.apply(&prelude, Lsn::new(1, 1));
        let (nothing_visible, tombstone_heads) = check_point_reads(&store, floor, ts);
        prop_assert!(nothing_visible > 0 && tombstone_heads > 0);

        for step in steps {
            match step {
                WideStep::Write { key, cells } => {
                    ts += 1;
                    let op = WriteOp { key: key_of(key), cells: cells_of(&cells), timestamp: ts, origin: None };
                    store.apply(&op, Lsn::new(1, ts));
                }
                WideStep::Flush => { store.flush().unwrap(); }
                WideStep::CompactAll => { store.compact_all().unwrap(); }
                WideStep::MaybeCompact => { store.maybe_compact().unwrap(); }
                WideStep::RaiseFloor { lag } => {
                    let f = ts.saturating_sub(lag as u64);
                    store.set_gc_floor(f);
                    floor = floor.max(f);
                }
            }
            check_point_reads(&store, floor, ts);
        }
    }
}
