//! Criterion microbenchmarks over the core data structures and protocol
//! paths, plus a smoke-scale end-to-end cluster simulation so
//! `cargo bench` exercises the full stack.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use spinnaker_common::vfs::MemVfs;
use spinnaker_common::{crc32c, op, Key, Lsn, RangeId};
use spinnaker_core::client::Workload;
use spinnaker_core::cluster::{ClusterConfig, SimCluster};
use spinnaker_eventual::merkle::MerkleTree;
use spinnaker_sim::{DiskProfile, SECS};
use spinnaker_storage::{
    BlockCache, Memtable, RangeStore, StoreOptions, Table, TableBuilder, TableCtx, TableOptions,
};
use spinnaker_wal::{LogRecord, Wal, WalOptions};

fn bench_crc32c(c: &mut Criterion) {
    // A WAL frame of one small put, an SSTable block, a catch-up read.
    let mut g = c.benchmark_group("crc32c");
    for (name, len) in [("64b_frame", 64usize), ("4k_block", 4096), ("64k_chunk", 65536)] {
        let data = vec![0xabu8; len];
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(name, |b| b.iter(|| crc32c::crc32c(std::hint::black_box(&data))));
    }
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    use spinnaker_common::codec::{Decode, Encode};
    let w = op::put("user123456", "profile", &"x".repeat(256));
    let enc = w.encode_to_vec();
    c.bench_function("codec/writeop_encode", |b| b.iter(|| w.encode_to_vec()));
    c.bench_function("codec/writeop_decode", |b| {
        b.iter(|| spinnaker_common::WriteOp::decode(&mut enc.as_slice()).unwrap())
    });
}

fn bench_memtable(c: &mut Criterion) {
    c.bench_function("memtable/apply_1k", |b| {
        b.iter_batched(
            Memtable::new,
            |mut mt| {
                for i in 0..1000u64 {
                    mt.apply(&op::put(&format!("key{i:05}"), "c", "value"), Lsn::new(1, i + 1));
                }
                mt
            },
            BatchSize::SmallInput,
        )
    });
    let mut mt = Memtable::new();
    for i in 0..10_000u64 {
        mt.apply(&op::put(&format!("key{i:05}"), "c", "value"), Lsn::new(1, i + 1));
    }
    c.bench_function("memtable/get", |b| {
        let key = Key::from("key05000");
        b.iter(|| mt.get(std::hint::black_box(&key)).is_some())
    });
}

fn bench_sstable(c: &mut Criterion) {
    let vfs: spinnaker_common::vfs::SharedVfs = Arc::new(MemVfs::new());
    let mut builder = TableBuilder::new(vfs.clone(), "bench-sst", TableOptions::default()).unwrap();
    for i in 0..10_000u64 {
        let mut row = spinnaker_common::Row::new();
        op::put("x", "c", "some value bytes").apply_to_row(&mut row, Lsn::new(1, i + 1));
        builder.add(&Key::from(format!("key{i:06}").into_bytes()), &row).unwrap();
    }
    let table = builder.finish().unwrap();
    let key = Key::from("key005000");
    // No cache: every get reads, checksums and indexes its block.
    c.bench_function("sstable/get_cold", |b| {
        b.iter(|| table.get(std::hint::black_box(&key)).unwrap().is_some())
    });
    // Cached block: a lookup, a binary search, a clone of the row the
    // first get decoded and the block kept.
    let ctx = TableCtx { cache: Some(Arc::new(BlockCache::new(1 << 20))), ..Default::default() };
    let cached = Table::open_with(vfs, "bench-sst", ctx).unwrap();
    c.bench_function("sstable/get_hit", |b| {
        b.iter(|| cached.get(std::hint::black_box(&key)).unwrap().is_some())
    });
    c.bench_function("sstable/point_get_bloom_miss", |b| {
        let key = Key::from("missing-key");
        b.iter(|| table.get(std::hint::black_box(&key)).unwrap().is_none())
    });
}

fn bench_wal(c: &mut Criterion) {
    c.bench_function("wal/append_sync_100", |b| {
        b.iter_batched(
            || Wal::open(Arc::new(MemVfs::new()), WalOptions::default()).unwrap(),
            |mut wal| {
                for i in 0..100u64 {
                    wal.append(&LogRecord::write(
                        RangeId(0),
                        Lsn::new(1, i + 1),
                        op::put("key", "c", "value-bytes"),
                    ))
                    .unwrap();
                }
                wal.sync().unwrap();
                wal
            },
            BatchSize::SmallInput,
        )
    });
}

/// `n` puts of 100-byte values as 8-op group-propose records.
fn batch8_records(n: u64) -> Vec<LogRecord> {
    (0..n / 8)
        .map(|b| {
            let ops: Vec<_> = (b * 8..b * 8 + 8)
                .map(|i| op::put(&format!("key{i:06}"), "c", &"x".repeat(100)))
                .collect();
            LogRecord::batch(RangeId(0), Lsn::new(1, b * 8 + 1), ops)
        })
        .collect()
}

fn bench_wal_batches(c: &mut Criterion) {
    let records = batch8_records(1024);
    let mut g = c.benchmark_group("wal");
    g.throughput(Throughput::Elements(1024));
    // Framing in place into the log's own buffer.
    g.bench_function("append_batch8", |b| {
        b.iter_batched(
            || Wal::open(Arc::new(MemVfs::new()), WalOptions::default()).unwrap(),
            |mut wal| {
                wal.append_many(&records).unwrap();
                wal
            },
            BatchSize::SmallInput,
        )
    });
    // One frame read, checksummed and decoded per batch, not per op.
    let mut wal = Wal::open(Arc::new(MemVfs::new()), WalOptions::default()).unwrap();
    wal.append_many(&records).unwrap();
    g.bench_function("replay_batch8", |b| {
        b.iter(|| wal.replay(RangeId(0), Lsn::ZERO, Lsn::MAX, |_, _| {}).unwrap())
    });
    g.finish();
}

/// Four flushed tables of `rows` single-version rows in all; with
/// `overlap` every key is in all four (each write superseding the last),
/// otherwise in exactly one.
fn store_to_compact(rows: u64, overlap: bool) -> RangeStore {
    let opts = StoreOptions { memtable_flush_bytes: usize::MAX, ..Default::default() };
    let mut store = RangeStore::open(Arc::new(MemVfs::new()), opts).unwrap();
    let mut lsn = 0;
    for table in 0..4u64 {
        for i in 0..rows / 4 {
            let key = if overlap { i } else { i * 4 + table };
            lsn += 1;
            store.apply(&op::put(&format!("key{key:06}"), "c", &"x".repeat(100)), Lsn::new(1, lsn));
        }
        store.flush().unwrap();
    }
    store
}

fn bench_compaction(c: &mut Criterion) {
    let mut g = c.benchmark_group("compaction");
    g.sample_size(10);
    g.throughput(Throughput::Elements(20_000));
    // Every row in one input: moved as bytes.
    // Every key in four inputs: decoded, merged, pruned, re-encoded.
    for (name, overlap) in [("plain_rows", false), ("overlapping_rows", true)] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || store_to_compact(20_000, overlap),
                |mut store| {
                    store.compact_all().unwrap();
                    store
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_store(c: &mut Criterion) {
    let vfs: spinnaker_common::vfs::SharedVfs = Arc::new(MemVfs::new());
    let mut store = RangeStore::open(vfs, StoreOptions::default()).unwrap();
    for i in 0..20_000u64 {
        store.apply(&op::put(&format!("key{i:06}"), "c", "v"), Lsn::new(1, i + 1));
        if i % 5000 == 4999 {
            store.flush().unwrap();
        }
    }
    c.bench_function("store/merged_get_across_tables", |b| {
        let key = Key::from("key010000");
        b.iter(|| store.get(std::hint::black_box(&key)).unwrap().is_some())
    });
}

fn bench_paxos(c: &mut Criterion) {
    use spinnaker_paxos::{Acceptor, Action, Msg, Proposer};
    c.bench_function("paxos/single_decree_round", |b| {
        b.iter(|| {
            let mut acceptors: Vec<Acceptor<u64>> = (0..3).map(|_| Acceptor::new()).collect();
            let mut p = Proposer::new(0, 3, 42u64);
            let Action::Broadcast(Msg::Prepare { n }) = p.start() else { unreachable!() };
            let mut accept = None;
            for (i, a) in acceptors.iter_mut().enumerate() {
                let reply = a.on_prepare(n);
                if let Some(Action::Broadcast(m)) = p.on_msg(i as u32, reply) {
                    accept = Some(m);
                }
            }
            let Some(Msg::Accept { n, value }) = accept else { unreachable!() };
            let mut chosen = None;
            for (i, a) in acceptors.iter_mut().enumerate() {
                if let Some(ok) = a.on_accept(n, value) {
                    if let Some(Action::Chosen(v)) = p.on_msg(i as u32, ok) {
                        chosen = Some(v);
                    }
                }
            }
            chosen
        })
    });
}

fn bench_merkle(c: &mut Criterion) {
    let rows: Vec<(Key, u64)> =
        (0..10_000u64).map(|i| (Key::from(format!("key{i:06}").into_bytes()), i * 7)).collect();
    c.bench_function("merkle/build_10k", |b| {
        b.iter(|| MerkleTree::build(rows.iter().map(|(k, h)| (k, *h))))
    });
    let a = MerkleTree::build(rows.iter().map(|(k, h)| (k, *h)));
    let mut rows2 = rows.clone();
    rows2[5000].1 = 1;
    let b2 = MerkleTree::build(rows2.iter().map(|(k, h)| (k, *h)));
    c.bench_function("merkle/diff", |b| b.iter(|| a.diff(&b2)));
}

fn bench_cluster_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster_sim");
    g.sample_size(10);
    g.bench_function("5node_ssd_1s_mixed", |b| {
        b.iter(|| {
            let mut cluster = SimCluster::new(ClusterConfig {
                nodes: 5,
                seed: 1,
                disk: DiskProfile::Ssd,
                ..Default::default()
            });
            cluster.add_client(
                Workload::Mixed {
                    keys: 1000,
                    value_size: 512,
                    write_pct: 20,
                    consistency: spinnaker_common::Consistency::Strong,
                },
                SECS,
                SECS,
                3 * SECS,
            );
            cluster.run_until(3 * SECS);
            cluster.sim.events_processed()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_crc32c,
    bench_codec,
    bench_memtable,
    bench_sstable,
    bench_wal,
    bench_wal_batches,
    bench_compaction,
    bench_store,
    bench_paxos,
    bench_merkle,
    bench_cluster_sim,
);
criterion_main!(benches);
