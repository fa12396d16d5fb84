//! The raw-block read path: SSTable files keep the bytes they always
//! had, and every read API over CRC-verified raw blocks answers exactly
//! what a `BTreeMap` model answers, with and without a block cache.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use spinnaker_common::crc32c::crc32c;
use spinnaker_common::vfs::{MemVfs, SharedVfs, Vfs};
use spinnaker_common::{ColumnValue, Key, Lsn, Row, Timestamp};
use spinnaker_storage::{BlockCache, Table, TableBuilder, TableCtx, TableOptions};

/// The stored fragment of `key`, version chains and all: the entry
/// `iter_from` seeks to, if it is `key`'s.
fn fragment(table: &Table, key: &Key) -> Option<Row> {
    let (at, row) = table.iter_from(key).next()?.unwrap();
    (at == *key).then_some(row)
}

/// What `table` shows of `key` at `ts`; `None` when it holds no such key.
fn visible(table: &Table, key: &Key, ts: Timestamp) -> Option<Row> {
    let mut row = Row::new();
    table.fold_visible(key, ts, &mut row).unwrap().then_some(row)
}

/// Row `i` of the pinned table: two columns, an MVCC chain of `i % 4`
/// superseded versions on the first, a tombstone on every fifth row.
fn pinned_row(i: u64) -> Row {
    let mut row = Row::new();
    for v in 0..=(i % 4) {
        row.apply_version(
            Bytes::from_static(b"body"),
            ColumnValue::live(
                Bytes::from(format!("value-{i}-{v}-{}", "x".repeat((i % 37) as usize))),
                Lsn::new(1, i * 8 + v + 1),
                1_000 + i * 10 + v,
            ),
        );
    }
    let flag = Bytes::from_static(b"flag");
    let live = ColumnValue::live(Bytes::from(vec![(i % 251) as u8; 3]), Lsn::new(2, 2 * i + 1), i);
    row.apply_version(flag.clone(), live);
    if i % 5 == 0 {
        row.apply_version(flag, ColumnValue::deleted(Lsn::new(2, 2 * i + 2), 50_000 + i));
    }
    row
}

/// The on-disk format is pinned: these constants were taken from the
/// eager-decode implementation this read path replaced, so any byte the
/// builder writes differently — and any table the old code wrote that
/// the new code could not read — shows up here.
#[test]
fn sstable_bytes_are_pinned() {
    let vfs = MemVfs::new();
    let shared: SharedVfs = Arc::new(vfs.clone());
    let mut b = TableBuilder::new(shared, "pin/sst", TableOptions::default()).unwrap();
    for i in 0..1000u64 {
        b.add(&Key::from(format!("pin{i:05}").as_str()), &pinned_row(i)).unwrap();
    }
    let table = b.finish().unwrap();
    let bytes = vfs.read_all("pin/sst").unwrap();
    assert_eq!(bytes.len(), PINNED_LEN, "file length");
    assert_eq!(crc32c(&bytes), PINNED_CRC, "CRC-32C of the file bytes");
    assert_eq!(table.meta().file_bytes, PINNED_LEN as u64);

    // And it reads back: every row, by iteration, by seek and by point
    // read at timestamps before, between and after its versions.
    for (i, item) in table.iter().enumerate() {
        let (key, row) = item.unwrap();
        assert_eq!(key, Key::from(format!("pin{i:05}").as_str()));
        assert_eq!(row, pinned_row(i as u64));
        assert_eq!(fragment(&table, &key).as_ref(), Some(&row));
        for ts in [0, 500, 1_005, 5_000, 50_500, Timestamp::MAX] {
            assert_eq!(visible(&table, &key, ts), Some(row.visible_at(ts)), "{key:?} at {ts}");
        }
    }
}

const PINNED_LEN: usize = 168_610;
const PINNED_CRC: u32 = 0x9C94_2C71;

/// Keys over a three-letter alphabet, so arbitrary cursors land on,
/// between, before and after stored keys.
fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(97u8..100, 0..5)
}

/// (value length, chained older versions, tombstone head).
fn model_row(seq: u64, (value_len, chain, tombstone): (u8, u8, bool)) -> Row {
    let col = Bytes::from_static(b"c");
    let mut row = Row::new();
    for v in 0..u64::from(chain % 3) {
        let value = Bytes::from(vec![v as u8; usize::from(value_len)]);
        row.apply_version(col.clone(), ColumnValue::live(value, Lsn::new(1, seq * 4 + v + 1), v));
    }
    let head = if tombstone {
        ColumnValue::deleted(Lsn::new(1, seq * 4 + 4), 9)
    } else {
        ColumnValue::live(
            Bytes::from(vec![0xab; usize::from(value_len)]),
            Lsn::new(1, seq * 4 + 4),
            9,
        )
    };
    row.apply_version(col, head);
    row
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reads_over_raw_blocks_match_a_btreemap(
        rows in proptest::collection::btree_map(
            key_strategy(), (any::<u8>(), any::<u8>(), any::<bool>()), 1..60),
        cursors in proptest::collection::vec((key_strategy(), key_strategy()), 1..12),
        block_bytes in 32usize..400,
    ) {
        let model: BTreeMap<Key, Row> = rows
            .into_iter()
            .enumerate()
            .map(|(seq, (k, spec))| (Key::from(k), model_row(seq as u64, spec)))
            .collect();
        let all: Vec<(Key, Row)> = model.iter().map(|(k, r)| (k.clone(), r.clone())).collect();

        // No cache; a cache too small to hold the table (every pass
        // evicts); a cache that holds it all (second pass is all hits).
        let caches = [None, Some(8 * 512), Some(1 << 20)];
        for (n, cache_bytes) in caches.into_iter().enumerate() {
            let ctx = TableCtx {
                cache: cache_bytes.map(|b| Arc::new(BlockCache::new(b))),
                ..Default::default()
            };
            let vfs: SharedVfs = Arc::new(MemVfs::new());
            let opts = TableOptions { block_bytes, bloom_bits_per_key: 10 };
            let path = format!("prop/sst-{n}");
            let mut b = TableBuilder::new_with(vfs.clone(), &path, opts, ctx.clone()).unwrap();
            for (k, row) in &all {
                b.add(k, row).unwrap();
            }
            drop(b.finish().unwrap());
            // Reopen: what is read is what is on disk.
            let table = Table::open_with(vfs, &path, ctx).unwrap();

            for pass in 0..2 {
                let got: Vec<(Key, Row)> = table.iter().map(|r| r.unwrap()).collect();
                prop_assert_eq!(&got, &all, "iter, cache {:?}, pass {}", cache_bytes, pass);
                for (k, _) in &all {
                    // The store's filters never turn a held key away.
                    prop_assert!(table.span_contains(k) && table.bloom_may_contain(k));
                }
                // Point reads of every held key and of every cursor.
                let probes = all.iter().map(|(k, _)| k.clone());
                for a in probes.chain(cursors.iter().map(|(a, _)| Key::from(a.clone()))) {
                    prop_assert_eq!(fragment(&table, &a).as_ref(), model.get(&a));
                    // Before, between and after a model row's versions.
                    for ts in [0, 1, 9, Timestamp::MAX] {
                        let want = model.get(&a).map(|row| row.visible_at(ts));
                        prop_assert_eq!(visible(&table, &a, ts), want, "{:?} at {}", a, ts);
                    }
                }
                for (a, z) in &cursors {
                    let (a, z) = (Key::from(a.clone()), Key::from(z.clone()));
                    let want: Vec<(Key, Row)> =
                        model.range(a.clone()..).map(|(k, r)| (k.clone(), r.clone())).collect();
                    let got: Vec<(Key, Row)> = table.iter_from(&a).map(|r| r.unwrap()).collect();
                    prop_assert_eq!(&got, &want, "iter_from {:?}", a);
                    prop_assert_eq!(&table.scan(&a, None).unwrap(), &want, "open scan {:?}", a);
                    let want: Vec<(Key, Row)> =
                        want.into_iter().take_while(|(k, _)| k < &z).collect();
                    prop_assert_eq!(&table.scan(&a, Some(&z)).unwrap(), &want, "scan {:?}..{:?}", a, z);
                }
            }
        }
    }
}
