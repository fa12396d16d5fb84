//! Layer probes: a workload's generated operations replayed against each
//! layer's public functions in isolation, with `Instant` around the
//! calls. They replace what `benches/micro.rs` guesses at with the
//! workloads' real keys, value sizes and store sizing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spinnaker_common::codec::{Decode, Encode};
use spinnaker_common::crc32c::crc32c;
use spinnaker_common::vfs::{MemVfs, SharedVfs};
use spinnaker_common::{ClientOp, ClientRequest, Key, Lsn, RangeId, Value, WriteOp};
use spinnaker_core::node::NodeConfig;
use spinnaker_storage::{BlockCache, RangeStore, StoreOptions};
use spinnaker_wal::{LogRecord, Wal, WalOptions};

use crate::alloc;
use crate::counters::ratio;
use crate::gen::col;
use crate::metrics::Values;

const RANGE: RangeId = RangeId(0);
const BATCH: usize = 8;

/// What the probes replay.
pub struct Input {
    /// Keys the workload puts, in generation order (repeats allowed).
    pub puts: Vec<Key>,
    /// Keys the workload reads, in generation order; all were put.
    pub reads: Vec<Key>,
    /// The value every put writes.
    pub value: Value,
    /// The workload's store sizing.
    pub node: NodeConfig,
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

fn write_ops(input: &Input) -> Vec<WriteOp> {
    input
        .puts
        .iter()
        .enumerate()
        .map(|(i, k)| WriteOp::put(k.clone(), col(), input.value.clone(), 1 + i as u64))
        .collect()
}

/// `common.codec.*`: the three encodings a put goes through — the
/// client request, the write op inside a propose, and the WAL batch
/// record (8 ops per record).
fn codec(ops: &[WriteOp], v: &mut Values) {
    let requests: Vec<ClientRequest> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| ClientRequest {
            req: i as u64,
            ring_version: 1,
            op: ClientOp::Put { key: op.key.clone(), cells: vec![(col(), value_of_op(op))] },
        })
        .collect();
    let records: Vec<LogRecord> = ops
        .chunks_exact(BATCH)
        .enumerate()
        .map(|(i, c)| LogRecord::batch(RANGE, Lsn::new(1, 1 + (i * BATCH) as u64), c.to_vec()))
        .collect();
    let n = (records.len() * BATCH).max(1) as f64;

    let t = Instant::now();
    let enc_req: Vec<Vec<u8>> = requests.iter().map(Encode::encode_to_vec).collect();
    let enc_op: Vec<Vec<u8>> = ops.iter().map(Encode::encode_to_vec).collect();
    let enc_rec: Vec<Vec<u8>> = records.iter().map(Encode::encode_to_vec).collect();
    let encode = t.elapsed();

    let a0 = alloc::snapshot().0;
    let t = Instant::now();
    let mut decoded = 0usize;
    for buf in &enc_req {
        decoded += usize::from(ClientRequest::decode(&mut buf.as_slice()).is_ok());
    }
    for buf in &enc_op {
        decoded += usize::from(WriteOp::decode(&mut buf.as_slice()).is_ok());
    }
    for buf in &enc_rec {
        decoded += usize::from(LogRecord::decode(&mut buf.as_slice()).is_ok());
    }
    let decode = t.elapsed();
    let allocs = alloc::snapshot().0 - a0;
    assert_eq!(decoded, enc_req.len() + enc_op.len() + enc_rec.len(), "codec round trip failed");
    v.insert("common.codec.encode_ns_per_op", ns(encode) / n);
    v.insert("common.codec.decode_ns_per_op", ns(decode) / n);
    v.insert("common.codec.allocs_per_decode", allocs as f64 / n);
}

fn value_of_op(op: &WriteOp) -> Value {
    match &op.cells[0] {
        spinnaker_common::CellOp::Put { value, .. } => value.clone(),
        spinnaker_common::CellOp::Delete { .. } => Value::new(),
    }
}

/// `wal.*` (all but `segments_end`): batch records of 8 ops appended and
/// forced one at a time, then the whole stream replayed.
fn wal(ops: &[WriteOp], v: &mut Values) -> Result<(), String> {
    let err = |e| format!("wal probe: {e}");
    let vfs = MemVfs::new();
    let mut wal = Wal::open(Arc::new(vfs.clone()), WalOptions::default()).map_err(err)?;
    let (mut append, mut sync) = (Duration::ZERO, Duration::ZERO);
    let (mut batches, mut last) = (0u64, Lsn::ZERO);
    for (i, chunk) in ops.chunks_exact(BATCH).enumerate() {
        let rec = LogRecord::batch(RANGE, Lsn::new(1, 1 + (i * BATCH) as u64), chunk.to_vec());
        last = rec.last_lsn();
        let t = Instant::now();
        wal.append_many(std::slice::from_ref(&rec)).map_err(err)?;
        append += t.elapsed();
        let t = Instant::now();
        wal.sync().map_err(err)?;
        sync += t.elapsed();
        batches += 1;
    }
    let n = (batches * BATCH as u64) as f64;
    let t = Instant::now();
    let replayed = wal.replay(RANGE, Lsn::ZERO, last, |_, _| {}).map_err(err)?;
    let replay = t.elapsed();
    if replayed as f64 != n {
        return Err(format!("wal probe: replayed {replayed} of {n} records"));
    }
    v.insert("wal.append_ns_per_op", ratio(ns(append), n));
    v.insert("wal.sync_ns_per_batch", ratio(ns(sync), batches as f64));
    v.insert("wal.bytes_per_op", ratio(vfs.total_bytes() as f64, n));
    v.insert("wal.replay_ms_per_100k", ratio(ns(replay) / 1e6 * 100_000.0, n));
    Ok(())
}

fn store_options(node: &NodeConfig, cache: Option<Arc<BlockCache>>) -> StoreOptions {
    StoreOptions {
        dir: "store-r0".into(),
        memtable_flush_bytes: node.memtable_flush_bytes,
        level_fanout: node.level_fanout,
        level_base_bytes: node.level_base_bytes,
        cache,
        ..Default::default()
    }
}

/// `storage.memtable.*` and `storage.store.*` (the timed ones): build a
/// store the way a replica's maintenance tick would, then read it with
/// the cache off, warm, and for keys that are absent.
fn store(input: &Input, ops: &[WriteOp], v: &mut Values) -> Result<(), String> {
    let err = |e| format!("store probe: {e}");
    let vfs: SharedVfs = Arc::new(MemVfs::new());
    let mut store = RangeStore::open(vfs.clone(), store_options(&input.node, None)).map_err(err)?;
    let row_bytes = (8 + 1 + input.value.len()) as f64;
    let (mut apply, mut flush, mut compact) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut flushed_ops = 0usize;
    let mut pending = 0usize;
    for (i, op) in ops.iter().enumerate() {
        let t = Instant::now();
        store.apply(op, Lsn::new(1, 1 + i as u64));
        apply += t.elapsed();
        pending += 1;
        if store.needs_flush() || i + 1 == ops.len() {
            let t = Instant::now();
            store.flush().map_err(err)?;
            flush += t.elapsed();
            flushed_ops += std::mem::take(&mut pending);
            let t = Instant::now();
            while store.maybe_compact().map_err(err)? {}
            compact += t.elapsed();
        }
    }
    let compacted_mb = store.stats().bytes_compacted as f64 / (1 << 20) as f64;
    v.insert("storage.memtable.apply_ns_per_op", ratio(ns(apply), ops.len() as f64));
    v.insert(
        "storage.store.flush_ms_per_mb",
        ratio(ns(flush) / 1e6, flushed_ops as f64 * row_bytes / (1 << 20) as f64),
    );
    v.insert("storage.store.compact_ms_per_mb", ratio(ns(compact) / 1e6, compacted_mb));

    let read = |store: &RangeStore, keys: &[Key], present: bool| -> Result<Duration, String> {
        let t = Instant::now();
        for key in keys {
            let row = store.get(key).map_err(err)?;
            if std::hint::black_box(row).is_some() != present {
                return Err(format!("store probe: key {key:?} present != {present}"));
            }
        }
        Ok(t.elapsed())
    };
    let n = input.reads.len().max(1) as f64;
    v.insert("storage.store.get_cold_ns", ns(read(&store, &input.reads, true)?) / n);
    // Absent keys that still fall inside the tables' spans: a present
    // key with one byte appended sorts right after it.
    let absent: Vec<Key> = input
        .reads
        .iter()
        .map(|k| Key::new(k.as_bytes().iter().copied().chain([1u8]).collect::<Vec<u8>>()))
        .collect();
    v.insert("storage.store.get_absent_ns", ns(read(&store, &absent, false)?) / n);

    let t = Instant::now();
    let mut rows = 0usize;
    for key in input.reads.iter().step_by(16) {
        rows += std::hint::black_box(store.scan_page(key, None, 32).map_err(err)?).0.len();
    }
    v.insert("storage.store.scan_row_ns", ratio(ns(t.elapsed()), rows as f64));
    drop(store);

    // The same files behind a cache large enough to hold every block.
    let cache = Arc::new(BlockCache::new(256 << 20));
    let warm = RangeStore::open(vfs, store_options(&input.node, Some(cache))).map_err(err)?;
    read(&warm, &input.reads, true)?;
    v.insert("storage.store.get_hit_ns", ns(read(&warm, &input.reads, true)?) / n);
    Ok(())
}

/// `common.crc32c.gb_per_s` over 64 KB buffers.
fn crc(v: &mut Values) {
    let buf: Vec<u8> = (0..65_536u32).map(|i| (i.wrapping_mul(31) >> 3) as u8).collect();
    let rounds = 2_000;
    let t = Instant::now();
    let mut acc = 0u32;
    for _ in 0..rounds {
        acc ^= crc32c(std::hint::black_box(&buf));
    }
    std::hint::black_box(acc);
    let gb = (buf.len() * rounds) as f64 / 1e9;
    v.insert("common.crc32c.gb_per_s", gb / t.elapsed().as_secs_f64());
}

/// Run every probe over `input`.
pub fn run(input: &Input) -> Result<Values, String> {
    let ops = write_ops(input);
    let mut v = Values::new();
    codec(&ops, &mut v);
    wal(&ops, &mut v)?;
    store(input, &ops, &mut v)?;
    crc(&mut v);
    Ok(v)
}
