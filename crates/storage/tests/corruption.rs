//! Crash-safety regression tests for SSTable/manifest loading (rule C1).
//!
//! A bit-flipped table file or manifest must be rejected with a typed
//! [`Error`] — `Table::open`, `RangeStore::open`, and the read path must
//! never panic on hostile bytes, and a corrupt length prefix must never
//! drive a huge allocation.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use spinnaker_common::codec::{self, Decode};
use spinnaker_common::vfs::{MemVfs, Vfs};
use spinnaker_common::{crc32c, op, Key, Lsn, Row};
use spinnaker_storage::{
    BlockCache, RangeStore, StoreOptions, StoreSnapshot, Table, TableBuilder, TableCtx,
    TableOptions,
};

fn small_table(vfs: &MemVfs, path: &str) -> Vec<Key> {
    // Tiny blocks so the table has several data blocks + index + bloom.
    let opts = TableOptions { block_bytes: 128, bloom_bits_per_key: 10 };
    let mut b = TableBuilder::new(Arc::new(vfs.clone()), path, opts).unwrap();
    let mut keys = Vec::new();
    for i in 0..24u64 {
        let key = Key::from(format!("user{i:04}").as_str());
        let mut row = Row::new();
        op::put(&format!("user{i:04}"), "col", &format!("value-{i}"))
            .apply_to_row(&mut row, Lsn::new(1, i + 1));
        b.add(&key, &row).unwrap();
        keys.push(key);
    }
    b.finish().unwrap();
    keys
}

#[test]
fn every_single_byte_flip_is_rejected_or_survived_never_a_panic() {
    let vfs = MemVfs::new();
    let keys = small_table(&vfs, "t/sst-a");
    let pristine = vfs.read_all("t/sst-a").unwrap();

    let mut opened_ok = 0usize;
    let mut rejected = 0usize;
    for off in 0..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[off] ^= 0x01;
        vfs.write_atomic("t/sst-a", &bytes).unwrap();

        let vfs2 = vfs.clone();
        let keys = keys.clone();
        let outcome = catch_unwind(AssertUnwindSafe(move || {
            match Table::open(Arc::new(vfs2.clone()), "t/sst-a") {
                // Flips inside a data block are only detectable when the
                // block is read: every lookup must still return cleanly.
                Ok(table) => {
                    for key in &keys {
                        let _ = table.fold_visible(key, u64::MAX, &mut Row::new());
                        let _ = table.iter_from(key).next();
                    }
                    let _ = table.scan(&keys[0], None);
                    true
                }
                Err(_) => false,
            }
        }));
        match outcome {
            Ok(true) => opened_ok += 1,
            Ok(false) => rejected += 1,
            Err(_) => panic!("byte flip at offset {off} caused a panic"),
        }
    }
    // The trailer and footer are always load-bearing, so a healthy share
    // of flips must be caught right at open.
    assert!(rejected > 0, "no flip was ever rejected ({opened_ok} opened)");
}

/// Length of the body of the (single) data block of a one-block table:
/// the index chunk starts right after it, and the footer says where.
fn single_block_body_len(file: &[u8]) -> usize {
    let trailer = &file[file.len() - 16..];
    let footer_off = codec::get_u64(&mut &trailer[..8]).unwrap() as usize;
    let mut footer = &file[footer_off..];
    Key::decode(&mut footer).unwrap();
    Key::decode(&mut footer).unwrap();
    Lsn::decode(&mut footer).unwrap();
    Lsn::decode(&mut footer).unwrap();
    codec::get_u64(&mut footer).unwrap(); // max_ts
    codec::get_u64(&mut footer).unwrap(); // row_count
    let index_off = codec::get_u64(&mut footer).unwrap() as usize;
    index_off - 4
}

/// The checksum guards against rot, not against a writer bug or a forged
/// file: a block whose CRC is *valid* over a body that is not a run of
/// `(key, row)` entries must come back as `Error::Corruption` from every
/// read API — raw blocks are indexed by a validating pass at load, so
/// nothing downstream ever sees the bad offsets — and must never be
/// cached.
#[test]
fn a_valid_crc_over_a_malformed_block_body_is_corruption_not_a_panic() {
    let vfs = MemVfs::new();
    let mut b =
        TableBuilder::new(Arc::new(vfs.clone()), "t/sst-m", TableOptions::default()).unwrap();
    let mut keys = Vec::new();
    for i in 0..6u64 {
        let key = Key::from(format!("k{i}").as_str());
        let mut row = Row::new();
        op::put(&format!("k{i}"), "c", &format!("value-{i}"))
            .apply_to_row(&mut row, Lsn::new(1, i + 1));
        b.add(&key, &row).unwrap();
        keys.push(key);
    }
    b.finish().unwrap();
    let pristine = vfs.read_all("t/sst-m").unwrap();
    let body_len = single_block_body_len(&pristine);

    // Entry layout: key `[2]k0`, row `[1 column][1]c [flag] [version u64]
    // [timestamp u64] [7]value-0 [0 older]`.
    let malformations: [(&str, usize, u8); 5] = [
        ("key length runs past the block", 0, 0x7f),
        ("column count the bytes cannot back", 3, 0x7f),
        ("tombstone flag that is neither 0 nor 1", 6, 7),
        ("chain length the bytes cannot back", body_len - 1, 0x7f),
        ("last value one byte longer than the block", body_len - 9, 8),
    ];
    for (what, at, byte) in malformations {
        let mut bytes = pristine.clone();
        assert_ne!(bytes[at], byte, "{what}: mutation is a no-op");
        bytes[at] = byte;
        let crc = crc32c::masked(crc32c::crc32c(&bytes[..body_len]));
        bytes[body_len..body_len + 4].copy_from_slice(&crc.to_le_bytes());
        vfs.write_atomic("t/sst-m", &bytes).unwrap();

        for cache in [None, Some(Arc::new(BlockCache::new(1 << 20)))] {
            let ctx = TableCtx { cache: cache.clone(), ..Default::default() };
            let table = Table::open_with(Arc::new(vfs.clone()), "t/sst-m", ctx)
                .unwrap_or_else(|e| panic!("{what}: index, bloom and footer are intact: {e}"));
            let is_corruption = |r: spinnaker_common::Result<()>| match r {
                Err(e) => e.is_corruption(),
                Ok(()) => false,
            };
            for key in &keys {
                let got = table.fold_visible(key, u64::MAX, &mut Row::new());
                assert!(is_corruption(got.map(drop)), "{what}: fold_visible({key:?})");
                let seeked = table.iter_from(key).next().expect("an error item");
                assert!(is_corruption(seeked.map(drop)), "{what}: iter_from({key:?})");
            }
            let first = table.iter().next().expect("an error item, not an empty iterator");
            assert!(is_corruption(first.map(drop)), "{what}: iter");
            assert!(is_corruption(table.scan(&keys[0], None).map(drop)), "{what}: scan");
            if let Some(cache) = cache {
                assert_eq!(cache.stats().entries, 0, "{what}: a malformed block was cached");
            }
        }
    }
}

/// Length of the body of the first data block, and the first key of the
/// second: the index, which the footer locates, gives both.
fn first_block(file: &[u8]) -> (usize, Key) {
    let trailer = &file[file.len() - 16..];
    let footer_off = codec::get_u64(&mut &trailer[..8]).unwrap() as usize;
    let mut footer = &file[footer_off..];
    Key::decode(&mut footer).unwrap();
    Key::decode(&mut footer).unwrap();
    Lsn::decode(&mut footer).unwrap();
    Lsn::decode(&mut footer).unwrap();
    codec::get_u64(&mut footer).unwrap(); // max_ts
    codec::get_u64(&mut footer).unwrap(); // row_count
    let mut index = &file[codec::get_u64(&mut footer).unwrap() as usize..];
    codec::get_varint(&mut index).unwrap(); // entries
    Key::decode(&mut index).unwrap(); // first key
    assert_eq!(codec::get_u64(&mut index).unwrap(), 0, "the first block starts the file");
    let body_len = codec::get_u32(&mut index).unwrap() as usize - 4;
    (body_len, Key::decode(&mut index).unwrap())
}

/// As above, on a block with far more entries than the room its read
/// leaves for their offsets: a hundred and twenty short rows and a long
/// one (121 entries, against room for 68), in a table whose other blocks
/// hold four long rows each. The
/// bad row is the block's last, so the walk that finds it is the one
/// that also counts past the room; the block must still be
/// `Error::Corruption` from every read API and never cached.
#[test]
fn a_valid_crc_over_a_malformed_overflowing_block_is_corruption() {
    let vfs = MemVfs::new();
    let mut b =
        TableBuilder::new(Arc::new(vfs.clone()), "t/sst-o", TableOptions::default()).unwrap();
    let mut keys = Vec::new();
    for i in 0..160u64 {
        let key = Key::from(format!("k{i:03}").as_str());
        let value = if i < 120 { "v".to_string() } else { "v".repeat(1024) };
        let mut row = Row::new();
        op::put(&format!("k{i:03}"), "c", &value).apply_to_row(&mut row, Lsn::new(1, i + 1));
        b.add(&key, &row).unwrap();
        keys.push(key);
    }
    b.finish().unwrap();
    let pristine = vfs.read_all("t/sst-o").unwrap();
    let (body_len, next) = first_block(&pristine);
    let in_block = keys.iter().take_while(|&k| k < &next).count();
    assert_eq!(in_block, 121);
    // The last byte of the block is its last row's chain length.
    let mut bytes = pristine.clone();
    assert_eq!(bytes[body_len - 1], 0);
    bytes[body_len - 1] = 0x7f;
    let crc = crc32c::masked(crc32c::crc32c(&bytes[..body_len]));
    bytes[body_len..body_len + 4].copy_from_slice(&crc.to_le_bytes());
    vfs.write_atomic("t/sst-o", &bytes).unwrap();

    let cache = Arc::new(BlockCache::new(1 << 20));
    let ctx = TableCtx { cache: Some(cache.clone()), ..Default::default() };
    let table = Table::open_with(Arc::new(vfs.clone()), "t/sst-o", ctx).unwrap();
    let is_corruption = |r: spinnaker_common::Result<()>| r.is_err_and(|e| e.is_corruption());
    for key in &keys[..in_block] {
        let got = table.fold_visible(key, u64::MAX, &mut Row::new());
        assert!(is_corruption(got.map(drop)), "fold_visible({key:?})");
        let seeked = table.iter_from(key).next().expect("an error item");
        assert!(is_corruption(seeked.map(drop)), "iter_from({key:?})");
    }
    let first = table.iter().next().expect("an error item, not an empty iterator");
    assert!(is_corruption(first.map(drop)), "iter");
    assert!(is_corruption(table.scan(&keys[0], None).map(drop)), "scan");
    assert_eq!(cache.stats().entries, 0, "a malformed block was cached");
    // The blocks after it are intact.
    assert!(table.fold_visible(&next, u64::MAX, &mut Row::new()).unwrap());
}

#[test]
fn trailer_flips_fail_table_open_with_a_typed_error() {
    let vfs = MemVfs::new();
    small_table(&vfs, "t/sst-b");
    let pristine = vfs.read_all("t/sst-b").unwrap();

    // The last 16 bytes are the trailer: footer offset + magic. Any
    // damage there must be caught at open, not deferred to a read.
    for back in 0..16 {
        let mut bytes = pristine.clone();
        let off = bytes.len() - 1 - back;
        bytes[off] ^= 0x80;
        vfs.write_atomic("t/sst-b", &bytes).unwrap();
        let res = Table::open(Arc::new(vfs.clone()), "t/sst-b");
        assert!(res.is_err(), "trailer flip {back} bytes from the end was accepted");
    }
}

#[test]
fn truncated_table_is_rejected() {
    let vfs = MemVfs::new();
    small_table(&vfs, "t/sst-c");
    let pristine = vfs.read_all("t/sst-c").unwrap();
    for keep in [0, 1, 15, pristine.len() / 2, pristine.len() - 1] {
        vfs.write_atomic("t/sst-c", &pristine[..keep]).unwrap();
        assert!(
            Table::open(Arc::new(vfs.clone()), "t/sst-c").is_err(),
            "table truncated to {keep} bytes was accepted"
        );
    }
}

fn store_opts() -> StoreOptions {
    StoreOptions { memtable_flush_bytes: 1, ..Default::default() }
}

/// A store directory with one flushed table and a manifest naming it.
fn seeded_store_vfs() -> MemVfs {
    let vfs = MemVfs::new();
    let mut store = RangeStore::open(Arc::new(vfs.clone()), store_opts()).unwrap();
    for i in 0..8u64 {
        store.apply(&op::put(&format!("k{i}"), "c", "v"), Lsn::new(1, i + 1));
    }
    store.flush().unwrap();
    vfs
}

#[test]
fn manifest_byte_flips_never_panic_the_store_open() {
    let vfs = seeded_store_vfs();
    let pristine = vfs.read_all("store/MANIFEST").unwrap();
    for off in 0..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[off] ^= 0xff;
        vfs.write_atomic("store/MANIFEST", &bytes).unwrap();
        let vfs2 = vfs.clone();
        let outcome = catch_unwind(AssertUnwindSafe(move || {
            RangeStore::open(Arc::new(vfs2), store_opts()).is_ok()
        }));
        assert!(outcome.is_ok(), "manifest flip at offset {off} caused a panic");
    }
}

#[test]
fn absurd_manifest_table_count_is_a_typed_error_not_an_allocation() {
    let vfs = seeded_store_vfs();
    // Behind the real magic, next_id + gc_floor pass as garbage u64s,
    // then the table-count varint decodes to an enormous value the
    // remaining input cannot possibly back — get_varint_len must refuse
    // before allocating.
    let mut bytes = vfs.read_all("store/MANIFEST").unwrap();
    bytes.truncate(8);
    bytes.extend([0xff; 32]);
    vfs.write_atomic("store/MANIFEST", &bytes).unwrap();
    let res = RangeStore::open(Arc::new(vfs.clone()), store_opts());
    assert!(res.is_err(), "32 bytes of 0xff accepted as a manifest body");
}

/// Every file under `store/`, by path.
fn store_dir(vfs: &MemVfs) -> Vec<(String, Vec<u8>)> {
    let mut paths = vfs.list("store/").unwrap();
    paths.sort();
    paths.into_iter().map(|p| (p.clone(), vfs.read_all(&p).unwrap())).collect()
}

/// There is one manifest format. The pre-leveling layout — `next_id`,
/// `gc_floor`, a count, bare table ids — names real tables here, and is
/// still refused as corruption, with nothing in the directory rewritten.
#[test]
fn a_v1_manifest_is_corruption_and_the_directory_is_left_alone() {
    let vfs = seeded_store_vfs();
    let mut v1 = Vec::new();
    codec::put_u64(&mut v1, 2); // next_id
    codec::put_u64(&mut v1, u64::MAX); // gc_floor
    codec::put_varint(&mut v1, 1);
    codec::put_u64(&mut v1, 1); // the flushed table's id
    vfs.write_atomic("store/MANIFEST", &v1).unwrap();
    let before = store_dir(&vfs);
    assert_eq!(before.len(), 2, "the manifest and the table it names");
    match RangeStore::open(Arc::new(vfs.clone()), store_opts()) {
        Err(e) => assert!(e.is_corruption(), "{e}"),
        Ok(_) => panic!("a v1 manifest was opened"),
    }
    assert_eq!(store_dir(&vfs), before);
}

/// The format is decided by comparing the first eight bytes with the
/// magic, so every single-bit flip in them is corruption — not a parse
/// of the rest under some other layout that happens to fail later.
#[test]
fn every_bit_flip_of_the_manifest_magic_is_corruption() {
    let vfs = seeded_store_vfs();
    let pristine = vfs.read_all("store/MANIFEST").unwrap();
    for bit in 0..64 {
        let mut bytes = pristine.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        vfs.write_atomic("store/MANIFEST", &bytes).unwrap();
        match RangeStore::open(Arc::new(vfs.clone()), store_opts()) {
            Err(e) => assert!(e.is_corruption(), "bit {bit}: {e}"),
            Ok(_) => panic!("bit {bit}: a garbled magic was accepted"),
        }
    }
}

/// The file image of a table holding `keys`, each with one live column.
fn table_image(keys: &[&str]) -> Vec<u8> {
    let vfs = MemVfs::new();
    let mut b = TableBuilder::new(Arc::new(vfs.clone()), "t", TableOptions::default()).unwrap();
    for (i, key) in keys.iter().enumerate() {
        let mut row = Row::new();
        op::put(key, "c", "v").apply_to_row(&mut row, Lsn::new(1, i as u64 + 1));
        b.add(&Key::from(*key), &row).unwrap();
    }
    b.finish().unwrap();
    vfs.read_all("t").unwrap()
}

fn snapshot_of(tables: Vec<Vec<u8>>, levels: Vec<u32>) -> StoreSnapshot {
    StoreSnapshot { tables, levels, mem_rows: Vec::new(), max_lsn: Lsn::new(1, 2), gc_floor: 0 }
}

/// A snapshot comes from another node, and the level it assigns a table
/// is a claim. Two tables whose spans overlap, both claimed for L1, must
/// not be served as a sorted run: the per-level binary search would look
/// for `z` in `[m, n]` only. The import heals the level like `open` does.
#[test]
fn an_imported_snapshot_with_overlapping_level_peers_is_healed_before_any_read() {
    let snap = snapshot_of(vec![table_image(&["a", "z"]), table_image(&["m", "n"])], vec![1, 1]);
    let vfs = MemVfs::new();
    let mut store = RangeStore::recreate(Arc::new(vfs.clone()), store_opts()).unwrap();
    store.import_snapshot(&snap).unwrap();
    for key in ["a", "m", "n", "z"] {
        assert!(store.get(&Key::from(key)).unwrap().is_some(), "{key} is in the store");
    }
    assert_eq!(store.scan(&Key::default(), None).unwrap().len(), 4);
    assert_eq!(store.tables_per_level(), vec![1, 1], "the overlapping table went to L0");
    // The healed placement is what was persisted.
    let reopened = RangeStore::open(Arc::new(vfs.crash_clone()), store_opts()).unwrap();
    assert_eq!(reopened.tables_per_level(), vec![1, 1]);
    assert!(reopened.get(&Key::from("z")).unwrap().is_some());
}

/// A level past the bound would size the level structure: it is refused
/// with a typed error before a single file is written.
#[test]
fn an_imported_snapshot_with_an_absurd_level_is_refused_before_anything_is_written() {
    let vfs = MemVfs::new();
    let mut store = RangeStore::recreate(Arc::new(vfs.clone()), store_opts()).unwrap();
    let before = store_dir(&vfs);
    for level in [63, u32::MAX] {
        let snap = snapshot_of(vec![table_image(&["a"]), table_image(&["b"])], vec![0, level]);
        let err = store.import_snapshot(&snap).expect_err("implausible level");
        assert!(err.is_corruption(), "level {level}: {err}");
        assert_eq!(store.table_count(), 0, "level {level}");
        assert_eq!(store_dir(&vfs), before, "level {level}: directory untouched");
    }
}

#[test]
fn manifest_referencing_a_missing_table_is_a_typed_error() {
    let vfs = seeded_store_vfs();
    for path in vfs.list("store/sst-").unwrap() {
        vfs.delete(&path).unwrap();
    }
    assert!(RangeStore::open(Arc::new(vfs.clone()), store_opts()).is_err());
}

#[test]
fn flipped_sstable_magic_fails_the_store_open() {
    let vfs = seeded_store_vfs();
    let tables = vfs.list("store/sst-").unwrap();
    assert!(!tables.is_empty(), "flush produced no table");
    let mut bytes = vfs.read_all(&tables[0]).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    vfs.write_atomic(&tables[0], &bytes).unwrap();
    assert!(RangeStore::open(Arc::new(vfs.clone()), store_opts()).is_err());
}

/// `(offset, length)` of every data-block chunk (body + CRC) of a table
/// file, read off its index.
fn data_blocks(file: &[u8]) -> Vec<(usize, usize)> {
    let trailer = &file[file.len() - 16..];
    let footer_off = codec::get_u64(&mut &trailer[..8]).unwrap() as usize;
    let mut footer = &file[footer_off..];
    Key::decode(&mut footer).unwrap();
    Key::decode(&mut footer).unwrap();
    Lsn::decode(&mut footer).unwrap();
    Lsn::decode(&mut footer).unwrap();
    codec::get_u64(&mut footer).unwrap(); // max_ts
    codec::get_u64(&mut footer).unwrap(); // row_count
    let index_off = codec::get_u64(&mut footer).unwrap() as usize;
    let mut index = &file[index_off..];
    (0..codec::get_varint(&mut index).unwrap())
        .map(|_| {
            Key::decode(&mut index).unwrap();
            let offset = codec::get_u64(&mut index).unwrap() as usize;
            (offset, codec::get_u32(&mut index).unwrap() as usize)
        })
        .collect()
}

/// Compaction streams: output tables are being written while inputs are
/// still being read. An input block that is malformed under a valid CRC —
/// met after part of the run is already on disk — must surface as
/// `Error::Corruption` and leave the store exactly as it was: same
/// manifest, same levels, every input file in place, no output left over.
#[test]
fn a_malformed_block_met_mid_compaction_leaves_the_store_untouched() {
    let vfs = MemVfs::new();
    let opts = || StoreOptions {
        table: TableOptions { block_bytes: 64, bloom_bits_per_key: 10 },
        level_table_target_bytes: 96,
        ..Default::default()
    };
    let mut store = RangeStore::open(Arc::new(vfs.clone()), opts()).unwrap();
    for round in 0..2u64 {
        for i in 0..24u64 {
            // Interleaved keys: both tables feed the merge throughout.
            let key = format!("k{:03}", i * 2 + round);
            store.apply(&op::put(&key, "c", "value"), Lsn::new(1, round * 24 + i + 1));
        }
        store.flush().unwrap();
    }
    let tables = vfs.list("store/sst-").unwrap();
    assert_eq!(tables.len(), 2);

    // Last block of the older table. Its first entry is `[4]kNNN`, then
    // the row `[1 column] [1]c [flag] ..`: the flag sits 8 bytes in.
    let mut bytes = vfs.read_all(&tables[0]).unwrap();
    let blocks = data_blocks(&bytes);
    assert!(blocks.len() > 2, "several blocks, so the bad one is met late");
    let (offset, len) = *blocks.last().unwrap();
    assert_eq!(bytes[offset + 8], 0, "a live column's flag");
    bytes[offset + 8] = 7;
    let crc = crc32c::masked(crc32c::crc32c(&bytes[offset..offset + len - 4]));
    bytes[offset + len - 4..offset + len].copy_from_slice(&crc.to_le_bytes());
    vfs.write_atomic(&tables[0], &bytes).unwrap();
    // A table reads through the handle it opened, which — as on a disk —
    // still sees the file that was replaced: open the store over the new
    // one.
    drop(store);
    let mut store = RangeStore::open(Arc::new(vfs.clone()), opts()).unwrap();

    let manifest = vfs.read_all("store/MANIFEST").unwrap();
    let levels = store.tables_per_level();
    let err = store.compact_all().expect_err("the merge read a malformed block");
    assert!(err.is_corruption(), "{err}");
    assert_eq!(vfs.read_all("store/MANIFEST").unwrap(), manifest, "manifest untouched");
    assert_eq!(store.tables_per_level(), levels, "levels untouched");
    assert_eq!(vfs.list("store/sst-").unwrap(), tables, "inputs kept, partial outputs removed");

    // Healthy blocks are still served; the bad one still says what it is.
    assert!(store.get(&Key::from("k000")).unwrap().is_some());
    assert!(store.get(&Key::from("k046")).expect_err("in the bad block").is_corruption());
}
