//! A block cache that recycles evicted blocks' buffers reads exactly
//! what no cache reads: two stores with different block sizes share one
//! tiny cache (every few reads evict, and a miss reads into a buffer an
//! evicted block of either store left), and every get, scan page and
//! catch-up feed must equal the one from the same stores without a
//! cache. Some rows handed out stay held across later evictions and
//! must still read the same at the end: a buffer something still views
//! is never read into again.

use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use spinnaker_common::vfs::MemVfs;
use spinnaker_common::{Key, Lsn, Row, WriteOp};
use spinnaker_storage::{BlockCache, RangeStore, StoreOptions, TableOptions};

fn key(i: u16) -> Key {
    Key::from(format!("k{i:04}").as_str())
}

/// The value of a write: one byte, forty, or seven hundred — a block of
/// the last holds one row and outgrows its block size.
fn value(class: u8, seq: u64) -> Bytes {
    let len = [1, 40, 700][usize::from(class % 3)];
    Bytes::from(vec![(seq % 251) as u8; len])
}

/// `n` stores, one per block size, all on `cache`.
fn stores(block_bytes: &[usize], cache: Option<Arc<BlockCache>>) -> Vec<RangeStore> {
    block_bytes
        .iter()
        .map(|&block_bytes| {
            let opts = StoreOptions {
                memtable_flush_bytes: usize::MAX,
                table: TableOptions { block_bytes, bloom_bits_per_key: 10 },
                cache: cache.clone(),
                ..Default::default()
            };
            RangeStore::open(Arc::new(MemVfs::new()), opts).unwrap()
        })
        .collect()
}

/// Apply `op` at `seq` to every store.
fn apply(stores: &mut [RangeStore], op: &WriteOp, seq: u64) {
    for store in stores {
        store.apply(op, Lsn::new(1, seq));
    }
}

/// Everything a reader is handed back, in one comparable value.
#[derive(Debug, PartialEq)]
enum Read {
    Get(Option<Row>),
    Page(Vec<(Key, Row)>, Option<Key>),
    Since(Vec<(Key, Row)>),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_tiny_recycling_cache_reads_what_no_cache_reads(
        writes in proptest::collection::vec((0u16..300, any::<u8>(), 0u8..8), 1..300),
        flush_every in 16usize..96,
        probes in proptest::collection::vec((0u16..320, 1usize..24, any::<u64>()), 1..40),
        small in 48usize..512,
        large in 512usize..4096,
    ) {
        let block_bytes = [small, large];
        // A shard holds about two kilobytes: a few small blocks, one
        // large one, and a block of a seven-hundred-byte row in a table
        // of large blocks is not cached at all.
        let cache = Arc::new(BlockCache::new(8 * 2048));
        let mut cached = stores(&block_bytes, Some(cache.clone()));
        let mut plain = stores(&block_bytes, None);
        let mut seq = 0;
        // First, one table whose first blocks hold forty one-byte rows
        // each and whose last ten hold one long row: the mean row count
        // a block is read with room for is far below the short rows'.
        for i in 0..50u16 {
            seq += 1;
            let class = if i < 40 { 0 } else { 2 };
            let op = WriteOp::put(key(1000 + i), Bytes::from_static(b"c"), value(class, seq), seq);
            apply(&mut cached, &op, seq);
            apply(&mut plain, &op, seq);
        }
        for sides in [&mut cached, &mut plain] {
            for store in sides.iter_mut() {
                store.flush().unwrap();
            }
        }
        for (n, &(k, class, kind)) in writes.iter().enumerate() {
            seq += 1;
            let op = match kind {
                0 => WriteOp::delete(key(k), Bytes::from_static(b"c"), seq),
                1 => WriteOp::put(key(k), Bytes::from_static(b"d"), value(class, seq), seq),
                _ => WriteOp::put(key(k), Bytes::from_static(b"c"), value(class, seq), seq),
            };
            apply(&mut cached, &op, seq);
            apply(&mut plain, &op, seq);
            if (n + 1) % flush_every == 0 {
                for sides in [&mut cached, &mut plain] {
                    for store in sides.iter_mut() {
                        store.flush().unwrap();
                    }
                }
            }
        }
        // Every fourth read of the cached stores, with what the plain ones
        // read then, is held to the end, across every eviction after it;
        // the rest are dropped at once, so their blocks' buffers can be
        // recycled.
        let mut held: Vec<(Read, Read)> = Vec::new();
        let mut reads_done = 0;
        for pass in 0..2 {
            for &(k, limit, at) in &probes {
                let k = if k >= 300 { key(1000 + k - 300) } else { key(k) };
                let at = at % (seq + 1);
                for (c, p) in cached.iter().zip(&plain) {
                    let reads = |s: &RangeStore| {
                        let (rows, resume) = s.scan_page(&k, None, limit).unwrap();
                        [
                            Read::Get(s.get(&k).unwrap()),
                            Read::Get(s.get_at(&k, at).unwrap()),
                            Read::Page(rows, resume),
                            Read::Since(s.rows_since(Lsn::new(1, at)).unwrap()),
                        ]
                    };
                    for (got, want) in reads(c).into_iter().zip(reads(p)) {
                        prop_assert_eq!(&got, &want, "{:?}, limit {}, at {}", k, limit, at);
                        reads_done += 1;
                        if reads_done % 4 == 0 {
                            held.push((got, want));
                        }
                    }
                }
            }
            if pass == 0 {
                // Compaction retires every table: their blocks leave the
                // cache at once.
                for sides in [&mut cached, &mut plain] {
                    for store in sides.iter_mut() {
                        store.compact_all().unwrap();
                    }
                }
            }
        }
        let stats = cache.stats();
        prop_assert!(stats.evictions > 0, "{:?}", stats);
        for (got, want) in &held {
            prop_assert_eq!(got, want, "a row held across evictions");
        }
    }
}
