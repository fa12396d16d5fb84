//! Compaction writes the files decode-everything compaction wrote: for
//! arbitrary input tables, `RangeStore`'s streaming merge — which copies
//! the rows it can prove it need not change and merges the others in
//! their encoded form — must produce, byte for byte and table for table,
//! the output of a reference that decodes every input row, merges in a
//! `BTreeMap` with `Row::merge_newer`, prunes with [`prune`] (the
//! pruning rule, which lives here and nowhere in the store), and feeds
//! `TableBuilder::add`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use spinnaker_common::vfs::{MemVfs, SharedVfs, Vfs};
use spinnaker_common::{ColumnValue, Key, Lsn, Row, Timestamp};
use spinnaker_storage::{RangeStore, StoreOptions, Table, TableBuilder, TableOptions};

#[path = "support/store_dir.rs"]
mod store_dir;

/// Garbage-collect a row's version chains against a snapshot `floor`:
/// every version with `timestamp > floor` is retained, plus the newest
/// version at or below the floor (it is what a read pinned exactly at
/// the floor sees). When `drop_tombstones` is set (nothing older survives
/// the merge to resurrect) a column whose newest version is a tombstone
/// at or below the floor is dropped outright. Returns the pruned row
/// (possibly empty).
fn prune(row: &Row, floor: Timestamp, drop_tombstones: bool) -> Row {
    let mut pruned = Row::with_capacity(row.len());
    for (col, cv) in &row.columns {
        if drop_tombstones && cv.tombstone && cv.timestamp <= floor {
            // No retained reader can see anything else of this column.
            continue;
        }
        let mut head = cv.flattened();
        if cv.timestamp > floor {
            for v in &cv.older {
                head.older.push(v.flattened());
                if v.timestamp <= floor {
                    // The newest version at or below the floor closes the
                    // chain: everything beneath it is invisible to every
                    // retained timestamp.
                    break;
                }
            }
        }
        pruned.set(col.clone(), head);
    }
    pruned
}

fn ts_cv(version: u64, ts: u64, val: &str) -> ColumnValue {
    ColumnValue::live(Bytes::copy_from_slice(val.as_bytes()), Lsn::from_u64(version), ts)
}

#[test]
fn prune_keeps_floor_visibility() {
    let mut row = Row::new();
    let c = Bytes::from_static(b"c");
    for (v, ts) in [(1, 10), (2, 20), (3, 30), (4, 40)] {
        row.apply_version(c.clone(), ts_cv(v, ts, &format!("v{v}")));
    }
    // Floor 25: versions 4 and 3 are above; version 2 is the newest
    // at/below and must survive; version 1 is invisible to every
    // retained timestamp.
    let pruned = prune(&row, 25, false);
    let versions: Vec<u64> = pruned.get(b"c").unwrap().versions().map(|v| v.version).collect();
    assert_eq!(versions, vec![4, 3, 2]);
    for ts in [25u64, 30, 39, 40, 100] {
        assert_eq!(pruned.visible_at(ts), row.visible_at(ts), "visibility at {ts} preserved");
    }
    // Floor above everything: only the head survives.
    let latest_only = prune(&row, 1000, false);
    assert_eq!(latest_only.get(b"c").unwrap().versions().count(), 1);
}

#[test]
fn prune_drops_floored_tombstones_only_on_full_merges() {
    let mut row = Row::new();
    let c = Bytes::from_static(b"c");
    row.apply_version(c.clone(), ts_cv(1, 10, "v1"));
    row.apply_version(c.clone(), ColumnValue::deleted(Lsn::from_u64(2), 20));
    row.set(Bytes::from_static(b"live"), ts_cv(3, 5, "kept"));
    // Partial merge keeps the tombstone (older tables could resurrect).
    assert!(prune(&row, 100, false).get(b"c").unwrap().tombstone);
    // Full merge at a floor above the tombstone drops the column, and
    // keeps the live one.
    let full = prune(&row, 100, true);
    assert!(full.get(b"c").is_none());
    assert_eq!(full.get(b"live").unwrap().value.as_ref(), b"kept");
    // Full merge with the tombstone above the floor keeps it (a pinned
    // reader between 10 and 20 still needs v1).
    let kept = prune(&row, 15, true);
    assert!(kept.get(b"c").unwrap().tombstone);
    assert_eq!(kept.visible_at(15).get(b"c").unwrap().value.as_ref(), b"v1");
}

/// One version: tombstone, value length, and whether it is a *replayed*
/// record — one whose version does not depend on the table, so another
/// input holding the same position holds the same version (a record
/// replayed from the log after a flush), its bytes possibly different.
type VersionSpec = (bool, u8, bool);
/// Per column: its versions oldest first.
type ColumnSpec = Vec<VersionSpec>;
/// One row: columns by column number.
type RowSpec = BTreeMap<u8, ColumnSpec>;
/// One input table: key → row.
type TableSpec = BTreeMap<Vec<u8>, RowSpec>;

/// Keys over a three-letter alphabet: tables overlap on some keys and
/// not on others.
fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(97u8..100, 1..4)
}

fn row_strategy(columns: std::ops::Range<usize>) -> impl Strategy<Value = RowSpec> {
    // Mostly single-version live columns (the rows the byte path moves),
    // with chains, tombstones and replayed versions mixed in.
    let version = || {
        prop_oneof![
            6 => (Just(false), any::<u8>(), prop_oneof![3 => Just(false), 1 => Just(true)]),
            1 => (Just(true), Just(0u8), any::<bool>()),
        ]
    };
    let column = prop_oneof![
        5 => proptest::collection::vec(version(), 1..2),
        1 => proptest::collection::vec(version(), 2..4),
    ];
    proptest::collection::btree_map(0u8..3, column, columns)
}

fn table_strategy() -> impl Strategy<Value = TableSpec> {
    proptest::collection::btree_map(key_strategy(), row_strategy(1..4), 1..25)
}

/// Rows of two or three columns stored under one key in every input —
/// in each its own versions, its own chains, its own tombstones — so
/// that collisions across three inputs and more are common.
fn shared_strategy() -> impl Strategy<Value = BTreeMap<Vec<u8>, Vec<RowSpec>>> {
    proptest::collection::btree_map(
        key_strategy(),
        proptest::collection::vec(row_strategy(2..4), MAX_TABLES),
        0..6,
    )
}

/// Inputs per compaction, at most.
const MAX_TABLES: usize = 5;

/// Commit timestamps (= LSN sequence numbers) are unique per version and
/// rise with the version's position in its chain; table `t` of `n` takes
/// the residue class `t mod n`, so fragments of one column interleave
/// across tables, and a replayed version takes class 0 whatever its
/// table. All of them land in `1..MAX_TS`.
const MAX_TS: u64 = 3 * 3 * 3 * 8 * 4 * 8;

fn build_row(key: &[u8], cols: &RowSpec, t: u64, n: u64) -> Row {
    let key_no = key.iter().fold(0u64, |acc, b| acc * 3 + u64::from(b - 97));
    let mut row = Row::new();
    for (col, versions) in cols {
        for (v, &(tombstone, len, replayed)) in versions.iter().enumerate() {
            let class = if replayed { 0 } else { t };
            let seq = ((key_no * 4 + u64::from(*col)) * 4 + v as u64) * n + class + 1;
            let lsn = Lsn::new(1, seq);
            let cv = if tombstone {
                ColumnValue::deleted(lsn, seq)
            } else {
                ColumnValue::live(Bytes::from(vec![*col + v as u8; usize::from(len)]), lsn, seq)
            };
            row.apply_version(Bytes::from(vec![b'c', *col]), cv);
        }
    }
    row
}

fn table_image(spec: &TableSpec, t: u64, n: u64, block_bytes: usize) -> Vec<u8> {
    let vfs = MemVfs::new();
    let opts = TableOptions { block_bytes, bloom_bits_per_key: 10 };
    let mut b = TableBuilder::new(Arc::new(vfs.clone()), "in", opts).unwrap();
    for (key, cols) in spec {
        b.add(&Key::from(key.clone()), &build_row(key, cols, t, n)).unwrap();
    }
    b.finish().unwrap();
    vfs.read_all("in").unwrap()
}

/// What decoding everything writes: every input row decoded, fragments
/// merged in input order with `Row::merge_newer` (of an equal version,
/// the lower input's is kept), pruned with [`prune`], re-encoded; a table
/// closed once its rows reach `target` bytes.
fn reference(
    inputs: &[Vec<u8>],
    floor: Timestamp,
    drop_tombstones: bool,
    opts: TableOptions,
    target: usize,
) -> Vec<Vec<u8>> {
    let vfs = MemVfs::new();
    let shared: SharedVfs = Arc::new(vfs.clone());
    let mut merged: BTreeMap<Key, Row> = BTreeMap::new();
    for image in inputs {
        vfs.write_atomic("ref/in", image).unwrap();
        for item in Table::open(shared.clone(), "ref/in").unwrap().iter() {
            let (key, row) = item.unwrap();
            match merged.get_mut(&key) {
                Some(have) => have.merge_newer(&row),
                None => {
                    merged.insert(key, row);
                }
            }
        }
    }
    let rows: Vec<(Key, Row)> = merged
        .into_iter()
        .map(|(key, row)| (key, prune(&row, floor, drop_tombstones)))
        .filter(|(_, row)| !row.is_empty())
        .collect();
    let mut files = Vec::new();
    let mut open: Option<TableBuilder> = None;
    let mut acc = 0usize;
    for (i, (key, row)) in rows.iter().enumerate() {
        let b = open.get_or_insert_with(|| {
            TableBuilder::new(shared.clone(), "ref/out", opts.clone()).unwrap()
        });
        b.add(key, row).unwrap();
        acc += key.len() + row.approx_size();
        if acc >= target || i + 1 == rows.len() {
            open.take().unwrap().finish().unwrap();
            files.push(vfs.read_all("ref/out").unwrap());
            acc = 0;
        }
    }
    files
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compaction_writes_the_files_the_decoded_merge_writes(
        mut specs in proptest::collection::vec(table_strategy(), 1..=MAX_TABLES),
        shared in shared_strategy(),
        // Unarmed (compaction keeps heads only), or armed below, inside
        // and above the data's timestamps.
        // Or exactly on a stored version's timestamp (the `n`-th of them,
        // modulo their count), where the chain is cut.
        (floor, on_version) in (
            prop_oneof![
                1 => Just(Timestamp::MAX),
                1 => Just(0u64),
                4 => 0..MAX_TS,
                1 => Just(MAX_TS + 1),
            ],
            prop_oneof![2 => Just(None), 1 => any::<usize>().prop_map(Some)],
        ),
        // A table below the output level keeps tombstones alive.
        deeper_data in any::<bool>(),
        // From one row per table to everything in one.
        target in prop_oneof![2 => 1u64..400, 1 => Just(1u64 << 20)],
        block_bytes in 48usize..600,
    ) {
        for (key, rows) in shared {
            for (spec, row) in specs.iter_mut().zip(rows) {
                spec.insert(key.clone(), row);
            }
        }
        let n = specs.len() as u64;
        let inputs: Vec<Vec<u8>> = specs
            .iter()
            .enumerate()
            .map(|(t, spec)| table_image(spec, t as u64, n, block_bytes))
            .collect();
        let floor = match on_version {
            Some(pick) => {
                let stamps: Vec<Timestamp> = (0u64..)
                    .zip(&specs)
                    .flat_map(|(t, spec)| spec.iter().map(move |(key, cols)| build_row(key, cols, t, n)))
                    .flat_map(|row| {
                        let versions = row.columns.values().flat_map(ColumnValue::versions);
                        versions.map(|v| v.timestamp).collect::<Vec<_>>()
                    })
                    .collect();
                stamps[pick % stamps.len()]
            }
            None => floor,
        };

        // The store under test: every input in L0 (overlap allowed), and
        // optionally an unrelated table at L2, which is not an input of
        // the L0 -> L1 compaction but forbids dropping tombstones.
        let mut tables = inputs.clone();
        let mut levels = vec![0u64; inputs.len()];
        if deeper_data {
            let mut far = TableSpec::new();
            far.insert(b"zzzz".to_vec(), BTreeMap::from([(0u8, vec![(false, 3u8, false)])]));
            tables.push(table_image(&far, 0, 1, block_bytes));
            levels.push(2);
        }
        let vfs = MemVfs::new();
        let opts = StoreOptions {
            compaction_fanin: 1,
            level_table_target_bytes: target,
            table: TableOptions { block_bytes, bloom_bits_per_key: 10 },
            ..Default::default()
        };
        store_dir::write_store(&vfs, "store", &tables, &levels, floor);
        let mut store = RangeStore::open(Arc::new(vfs.clone()), opts).unwrap();
        let before: BTreeSet<String> = vfs.list("store/sst-").unwrap().into_iter().collect();
        prop_assert!(store.maybe_compact().unwrap(), "L0 is at its fan-in");

        // The output run, in table order (ids ascend, names are padded).
        let mut written: Vec<String> = vfs
            .list("store/sst-")
            .unwrap()
            .into_iter()
            .filter(|path| !before.contains(path))
            .collect();
        written.sort();
        let got: Vec<Vec<u8>> = written.iter().map(|p| vfs.read_all(p).unwrap()).collect();

        // Level 1 tables get one step of extra bloom bits.
        let level1 = TableOptions { block_bytes, bloom_bits_per_key: 12 };
        let want = reference(
            &inputs,
            floor,
            !deeper_data,
            level1,
            usize::try_from(target).unwrap(),
        );
        prop_assert_eq!(got.len(), want.len(), "tables in the run");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!(g == w, "table {} of {} differs from the reference", i, want.len());
        }
        // And the store installed exactly that run as its L1.
        let per_level = store.tables_per_level();
        prop_assert_eq!(per_level.first().copied(), Some(0), "L0 was consumed");
        prop_assert_eq!(per_level.get(1).copied().unwrap_or(0), want.len());
    }
}
