//! Byte-moving compaction writes the files decode-everything compaction
//! wrote: for arbitrary input tables, `RangeStore`'s streaming merge —
//! which copies the rows it can prove it need not change — must produce,
//! byte for byte and table for table, the output of a reference that
//! decodes every input row, merges in a `BTreeMap`, prunes, and feeds
//! `TableBuilder::add`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use spinnaker_common::vfs::{MemVfs, SharedVfs, Vfs};
use spinnaker_common::{ColumnValue, Key, Lsn, Row, Timestamp};
use spinnaker_storage::{
    RangeStore, StoreOptions, StoreSnapshot, Table, TableBuilder, TableOptions,
};

/// Per column: its versions oldest first, each `(tombstone, value length)`.
type ColumnSpec = Vec<(bool, u8)>;
/// One input table: key → columns (by column number).
type TableSpec = BTreeMap<Vec<u8>, BTreeMap<u8, ColumnSpec>>;

/// Keys over a three-letter alphabet: tables overlap on some keys and
/// not on others.
fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(97u8..100, 1..4)
}

fn table_strategy() -> impl Strategy<Value = TableSpec> {
    // Mostly single-version live columns (the rows the byte path moves),
    // with chains and tombstones mixed in.
    let version = || prop_oneof![6 => (Just(false), any::<u8>()), 1 => (Just(true), Just(0u8))];
    let column = prop_oneof![
        5 => proptest::collection::vec(version(), 1..2),
        1 => proptest::collection::vec(version(), 2..4),
    ];
    let row = proptest::collection::btree_map(0u8..3, column, 1..4);
    proptest::collection::btree_map(key_strategy(), row, 1..25)
}

/// Commit timestamps (= LSN sequence numbers) are unique per version and
/// rise with the version's position in its chain; table `t` of `n` takes
/// the residue class `t mod n`, so fragments of one column interleave
/// across tables. All of them land in `1..MAX_TS`.
const MAX_TS: u64 = 3 * 3 * 3 * 8 * 4 * 8;

fn build_row(key: &[u8], cols: &BTreeMap<u8, ColumnSpec>, t: u64, n: u64) -> Row {
    let key_no = key.iter().fold(0u64, |acc, b| acc * 3 + u64::from(b - 97));
    let mut row = Row::new();
    for (col, versions) in cols {
        for (v, &(tombstone, len)) in versions.iter().enumerate() {
            let seq = ((key_no * 4 + u64::from(*col)) * 4 + v as u64) * n + t + 1;
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

/// What compaction wrote before this change: every input row decoded,
/// fragments merged in input order, pruned, re-encoded; a table closed
/// once its rows reach `target` bytes.
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
        .map(|(key, row)| (key, row.prune(floor, drop_tombstones)))
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
        specs in proptest::collection::vec(table_strategy(), 1..5),
        // Unarmed (compaction keeps heads only), or armed below, inside
        // and above the data's timestamps.
        floor in prop_oneof![
            1 => Just(Timestamp::MAX),
            1 => Just(0u64),
            4 => 0..MAX_TS,
            1 => Just(MAX_TS + 1),
        ],
        // A table below the output level keeps tombstones alive.
        deeper_data in any::<bool>(),
        // From one row per table to everything in one.
        target in prop_oneof![2 => 1u64..400, 1 => Just(1u64 << 20)],
        block_bytes in 48usize..600,
    ) {
        let n = specs.len() as u64;
        let inputs: Vec<Vec<u8>> = specs
            .iter()
            .enumerate()
            .map(|(t, spec)| table_image(spec, t as u64, n, block_bytes))
            .collect();

        // The store under test: every input in L0 (overlap allowed), and
        // optionally an unrelated table at L2, which is not an input of
        // the L0 -> L1 compaction but forbids dropping tombstones.
        let mut tables = inputs.clone();
        let mut levels = vec![0u32; inputs.len()];
        if deeper_data {
            let mut far = TableSpec::new();
            far.insert(b"zzzz".to_vec(), BTreeMap::from([(0u8, vec![(false, 3u8)])]));
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
        let mut store = RangeStore::recreate(Arc::new(vfs.clone()), opts).unwrap();
        store
            .import_snapshot(&StoreSnapshot {
                tables,
                levels,
                mem_rows: Vec::new(),
                max_lsn: Lsn::ZERO,
                gc_floor: floor,
            })
            .unwrap();
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
