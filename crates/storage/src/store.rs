//! The per-key-range LSM store: memtable + leveled SSTables + compaction.
//!
//! Each Spinnaker node hosts one [`RangeStore`] per cohort it participates
//! in (three by default). The store handles:
//!
//! * applying committed writes to the memtable,
//! * flushing the memtable to LSN-tagged SSTables (which advances the WAL
//!   checkpoint — the caller wires that up),
//! * merged reads across memtable + tables (newest version per column),
//! * **leveled compaction**: flushes land in an L0 tier (overlapping,
//!   newest first) feeding size-ratio levels L1..Ln whose tables are
//!   non-overlapping within a level, each level's capacity growing by a
//!   configurable fanout. Compaction garbage-collects superseded versions
//!   at the MVCC GC floor and, when the output is the deepest populated
//!   level, tombstones (paper §4.1: "in the background, smaller SSTables
//!   are merged into larger ones"). It is a streaming merge over the
//!   inputs' raw block entries into the output tables (`merge_into`): a
//!   row stored in one input only, with no tombstone, no version chain
//!   and its columns in canonical order, is **moved as bytes**; only the
//!   rows compaction has to change are decoded — and the files written
//!   are byte for byte those of decoding everything,
//! * `rows_since` — the SSTable-backed catch-up feed used by recovery when
//!   the leader's log has rolled over (§6.1).
//!
//! Point reads probe each L0 table (span check, then bloom) but
//! binary-search the **single** candidate table per deeper level, so read
//! amplification is O(L0 + depth) instead of O(total tables). Deeper
//! levels get tighter bloom budgets (more bits per key), and all block
//! reads flow through the optional shared [`crate::BlockCache`].
//!
//! The pre-leveling flat set (size-tiered, fanin-4) survives behind
//! `StoreOptions::leveled = false` — the equivalence oracle for tests and
//! the baseline for the fig22 benchmark. It keeps the decoding
//! [`MergeIter`] merge, which is what makes it an independent oracle.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spinnaker_common::codec::{self, Decode, Encode, RowScan};
use spinnaker_common::vfs::SharedVfs;
use spinnaker_common::{Error, Key, Lsn, Result, Row, Timestamp, WriteOp};

use crate::cache::{CacheMetrics, SharedBlockCache};
use crate::memtable::Memtable;
use crate::merge::{vec_stream, MergeIter, RowStream};
use crate::sstable::{RawCursor, Table, TableBuilder, TableCtx, TableOptions};

/// `"SPINMF02"` little-endian: the v2 (leveled) manifest magic. A v1
/// manifest starts with its `next_id` field instead, which can never
/// collide with this value in practice.
const MANIFEST_MAGIC: u64 = 0x3230_464d_4e49_5053;

/// Deepest level a manifest may assign (a sanity bound on decode).
const MAX_LEVEL: u64 = 62;

/// Store tuning knobs.
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// Directory for SSTables and the manifest.
    pub dir: String,
    /// Flush the memtable once it exceeds this size.
    pub memtable_flush_bytes: usize,
    /// SSTable block/bloom parameters (the bloom budget is the L0
    /// baseline; deeper levels add `bloom_bits_step_per_level`).
    pub table: TableOptions,
    /// Leveled mode: compact L0 once it holds this many tables. Flat
    /// mode: merge a size tier once it accumulates this many tables.
    pub compaction_fanin: usize,
    /// Leveled compaction on (the default). `false` restores the
    /// pre-leveling flat set: one overlapping tier, size-tiered merges.
    pub leveled: bool,
    /// Capacity ratio between consecutive levels (L(n+1) = fanout * Ln).
    pub level_fanout: u64,
    /// L1 capacity in bytes; level n holds `base * fanout^(n-1)`.
    pub level_base_bytes: u64,
    /// Target size for individual tables written by leveled compaction
    /// (a level is a sorted run of tables about this big).
    pub level_table_target_bytes: u64,
    /// Extra bloom bits per key granted per level of depth — deeper
    /// levels hold more data and absorb more probes, so their filters
    /// get tighter false-positive budgets.
    pub bloom_bits_step_per_level: usize,
    /// Upper bound on the per-level bloom budget.
    pub bloom_bits_max: usize,
    /// Shared cache of loaded data blocks (`None` = none).
    pub cache: Option<SharedBlockCache>,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            dir: "store".into(),
            memtable_flush_bytes: 4 << 20,
            table: TableOptions::default(),
            compaction_fanin: 4,
            leveled: true,
            level_fanout: 4,
            level_base_bytes: 4 << 20,
            level_table_target_bytes: 1 << 20,
            bloom_bits_step_per_level: 2,
            bloom_bits_max: 16,
            cache: None,
        }
    }
}

/// One page of a bounded scan: the rows returned plus the first key
/// *not* returned (the caller's resume cursor), or `None` when the
/// bounds were exhausted.
pub type ScanPage = (Vec<(Key, Row)>, Option<Key>);

/// A consistent full-store snapshot, streamed to a node joining a cohort
/// (replica movement): raw SSTable file images (L0 newest first, then
/// deeper levels in key order, matching the exporter's placement) plus
/// unflushed memtable rows.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StoreSnapshot {
    /// Raw SSTable file contents (L0 newest first, then L1.., matching
    /// `levels`).
    pub tables: Vec<Vec<u8>>,
    /// Level assignment for each entry of `tables` (parallel array), so
    /// the importer reproduces the exporter's leveled placement instead
    /// of flattening everything into L0.
    pub levels: Vec<u32>,
    /// Memtable row fragments (versions embedded).
    pub mem_rows: Vec<(Key, Row)>,
    /// Highest LSN captured anywhere in the snapshot.
    pub max_lsn: Lsn,
    /// The exporter's MVCC garbage-collection floor: the shipped tables
    /// were pruned at it, so the importer must not serve snapshot reads
    /// below it (`u64::MAX` = the exporter never pruned).
    pub gc_floor: Timestamp,
}

impl StoreSnapshot {
    /// Approximate wire size, for the network model.
    pub fn approx_size(&self) -> usize {
        self.tables.iter().map(Vec::len).sum::<usize>()
            + self.mem_rows.iter().map(|(k, r)| k.len() + r.approx_size()).sum::<usize>()
    }
}

/// Read/compaction observables for one store, surfaced through the
/// node's store-stats path (the same feed auto-reshard samples).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live tables per level, L0 first (trailing empty levels trimmed).
    pub tables_per_level: Vec<usize>,
    /// Point lookups served.
    pub point_gets: u64,
    /// Table probes skipped because the key fell outside the table's
    /// `[min_key, max_key]` span (no bloom work, no IO).
    pub span_skips: u64,
    /// Table probes rejected by the bloom filter (no IO).
    pub bloom_negatives: u64,
    /// Bloom passes where the key was present (useful IO).
    pub bloom_true_positives: u64,
    /// Bloom passes where the key was absent (wasted IO — the filter's
    /// false-positive cost).
    pub bloom_false_positives: u64,
    /// Compactions run.
    pub compactions: u64,
    /// Total input bytes consumed by compactions.
    pub bytes_compacted: u64,
    /// Block-cache hits attributed to this store's tables.
    pub cache_hits: u64,
    /// Block-cache misses attributed to this store's tables.
    pub cache_misses: u64,
    /// Blocks actually read and checksummed through the VFS.
    pub block_reads: u64,
}

#[derive(Debug, Default)]
struct StatsInner {
    point_gets: AtomicU64,
    span_skips: AtomicU64,
    bloom_negatives: AtomicU64,
    bloom_true_positives: AtomicU64,
    bloom_false_positives: AtomicU64,
    compactions: AtomicU64,
    bytes_compacted: AtomicU64,
}

struct Manifest {
    /// `(table id, level)` pairs in placement order: L0 entries newest
    /// first, deeper levels in key order.
    tables: Vec<(u64, u32)>,
    next_id: u64,
    /// The MVCC garbage-collection floor (see [`RangeStore::set_gc_floor`]).
    /// Persisted so that a store whose tables were pruned at some floor
    /// never re-opens claiming it can still serve below it — the
    /// `SnapshotTooOld` guard must survive restarts and store forks.
    /// `u64::MAX` = never armed (nothing has ever been pruned).
    gc_floor: Timestamp,
}

impl Encode for Manifest {
    fn encode(&self, buf: &mut Vec<u8>) {
        codec::put_u64(buf, MANIFEST_MAGIC);
        codec::put_u64(buf, self.next_id);
        codec::put_u64(buf, self.gc_floor);
        codec::put_varint(buf, self.tables.len() as u64);
        for (id, level) in &self.tables {
            codec::put_u64(buf, *id);
            codec::put_varint(buf, u64::from(*level));
        }
    }
}

impl Decode for Manifest {
    fn decode(buf: &mut &[u8]) -> Result<Manifest> {
        let first = codec::get_u64(buf)?;
        if first != MANIFEST_MAGIC {
            // v1 (pre-leveling) manifest: `first` is its `next_id`, the
            // table list is bare ids, newest first. Assigning them all to
            // L0 reproduces the flat set's semantics exactly; the next
            // compactions migrate them down the ladder.
            let gc_floor = codec::get_u64(buf)?;
            let n = codec::get_varint_len(buf, "manifest tables", 8)?;
            let mut tables = Vec::with_capacity(n);
            for _ in 0..n {
                tables.push((codec::get_u64(buf)?, 0));
            }
            return Ok(Manifest { tables, next_id: first, gc_floor });
        }
        let next_id = codec::get_u64(buf)?;
        let gc_floor = codec::get_u64(buf)?;
        // Each entry is an 8-byte id plus a >=1-byte level varint; a
        // corrupt count fails here instead of driving a huge allocation.
        let n = codec::get_varint_len(buf, "manifest tables", 9)?;
        let mut tables = Vec::with_capacity(n);
        for _ in 0..n {
            let id = codec::get_u64(buf)?;
            let level = codec::get_varint(buf)?;
            if level > MAX_LEVEL {
                return Err(Error::Corruption(format!("implausible manifest level {level}")));
            }
            let level = u32::try_from(level)
                .map_err(|_| Error::Corruption(format!("implausible manifest level {level}")))?;
            tables.push((id, level));
        }
        Ok(Manifest { tables, next_id, gc_floor })
    }
}

/// One open table plus its manifest id.
struct Slot {
    id: u64,
    table: Table,
}

fn min_key(slot: &Slot) -> &Key {
    &slot.table.meta().min_key
}

fn max_key(slot: &Slot) -> &Key {
    &slot.table.meta().max_key
}

fn sort_level(level: &mut [Slot]) {
    level.sort_by(|a, b| min_key(a).cmp(min_key(b)));
}

/// Which inputs a compaction consumes and where the output lands.
struct CompactionPlan {
    /// Manifest ids of every input table.
    input_ids: Vec<u64>,
    /// Output position as a `deeper` index (0 = L1).
    out_deeper: usize,
    /// Whether pruned tombstones may be dropped: true only when nothing
    /// deeper than the output level holds data, so no older version
    /// outside the merge can resurrect a deleted column.
    drop_tombstones: bool,
}

/// Streams key-ordered rows into a sorted run: tables of one level,
/// each closed once the rows added to it reach `target` bytes (by
/// `key.len() + Row::approx_size()`), so no table of the run is ever
/// held in memory. Borrows the store's fields one by one — compaction
/// reads its input tables out of the level vectors while this writes.
struct RunWriter<'a> {
    vfs: &'a SharedVfs,
    dir: &'a str,
    ctx: &'a TableCtx,
    next_id: &'a mut u64,
    table_opts: TableOptions,
    target: usize,
    /// The table being written: its id, its builder, its rows' bytes.
    open: Option<(u64, TableBuilder, usize)>,
    made: Vec<Slot>,
}

impl<'a> RunWriter<'a> {
    fn new(
        vfs: &'a SharedVfs,
        dir: &'a str,
        ctx: &'a TableCtx,
        next_id: &'a mut u64,
        table_opts: TableOptions,
        target: usize,
    ) -> RunWriter<'a> {
        RunWriter { vfs, dir, ctx, next_id, table_opts, target, open: None, made: Vec::new() }
    }

    /// Hand `write` the open table's builder (opening a table if none
    /// is), then close the table if `size` more bytes filled it.
    fn entry(
        &mut self,
        size: usize,
        write: impl FnOnce(&mut TableBuilder) -> Result<()>,
    ) -> Result<()> {
        if self.open.is_none() {
            let id = *self.next_id;
            *self.next_id += 1;
            let builder = TableBuilder::new_with(
                self.vfs.clone(),
                &RangeStore::table_path(self.dir, id),
                self.table_opts.clone(),
                self.ctx.clone(),
            )?;
            self.open = Some((id, builder, 0));
        }
        if let Some((_, builder, bytes)) = self.open.as_mut() {
            write(builder)?;
            *bytes = bytes.saturating_add(size);
            if *bytes >= self.target {
                self.close()?;
            }
        }
        Ok(())
    }

    fn close(&mut self) -> Result<()> {
        if let Some((id, builder, _)) = self.open.take() {
            self.made.push(Slot { id, table: builder.finish()? });
        }
        Ok(())
    }

    /// Append a decoded row (empty rows are skipped).
    fn add(&mut self, key: &Key, row: &Row) -> Result<()> {
        if row.is_empty() {
            return Ok(());
        }
        self.entry(key.len() + row.approx_size(), |b| b.add(key, row))
    }

    /// Append a row as the bytes `scan` was taken from.
    fn add_raw(&mut self, key: &[u8], row: &[u8], scan: &RowScan) -> Result<()> {
        self.entry(key.len() + scan.approx_size, |b| b.add_raw(key, row, scan))
    }

    /// Close the last table and hand over the run.
    fn finish(&mut self) -> Result<Vec<Slot>> {
        self.close()?;
        Ok(std::mem::take(&mut self.made))
    }

    /// Remove what a run that will not be installed has written so far.
    /// Best effort: the caller is already reporting the error that
    /// matters, and a table id is never listed twice, so a file left
    /// behind is only ever dead weight.
    fn abandon(mut self) {
        if let Some((id, builder, _)) = self.open.take() {
            drop(builder);
            let _ = self.vfs.delete(&RangeStore::table_path(self.dir, id));
        }
        for slot in self.made {
            let _ = slot.table.delete();
        }
    }
}

/// One compaction input in the merge heap: a cursor parked on an entry,
/// ordered by that entry's key and then by input position — smallest
/// first out of the (max-)heap.
struct MergeSource<'a> {
    cursor: RawCursor<'a>,
    input: usize,
}

impl MergeSource<'_> {
    fn key(&self) -> &[u8] {
        // Only cursors parked on an entry are ever in the heap.
        self.cursor.raw().map_or(&[], |(key, _)| key)
    }
}

impl PartialEq for MergeSource<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for MergeSource<'_> {}
impl PartialOrd for MergeSource<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeSource<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key().cmp(self.key()).then_with(|| other.input.cmp(&self.input))
    }
}

/// The compaction merge: a streaming k-way merge of `inputs`' raw
/// entries into `out`, in key order.
///
/// A key stored in exactly one input whose row is *plain*
/// ([`RowScan::plain`]: no tombstone, no version chain, column names
/// strictly ascending) is **moved as bytes** — pruning could not change
/// such a row and re-encoding it would reproduce it, so neither happens;
/// its LSN/timestamp bounds and size come from the scan. Every other key
/// is decoded, its fragments collapsed with [`Row::merge_newer`], and
/// pruned: superseded versions at or below the snapshot `floor` are
/// dropped (the newest at-or-below survives for floor-pinned readers),
/// tombstones below the floor only when `drop_tombstones` says the output
/// is the deepest populated level, where nothing older survives to
/// resurrect. The files written are, byte for byte, those of decoding
/// everything (`tests/compaction_raw.rs` holds the reference).
fn merge_into(
    inputs: &[&Table],
    floor: Timestamp,
    drop_tombstones: bool,
    out: &mut RunWriter<'_>,
) -> Result<()> {
    let mut heap = BinaryHeap::with_capacity(inputs.len());
    for (input, table) in inputs.iter().enumerate() {
        park(&mut heap, MergeSource { cursor: RawCursor::new(table)?, input });
    }
    while let Some(mut head) = heap.pop() {
        let alone = heap.peek().is_none_or(|next| next.key() != head.key());
        if alone {
            if let Some((key, mut rest)) = head.cursor.raw() {
                let row = rest;
                let scan = codec::scan_row(&mut rest)?;
                if scan.plain {
                    out.add_raw(key, &row[..row.len() - rest.len()], &scan)?;
                    head.cursor.advance()?;
                    park(&mut heap, head);
                    continue;
                }
            }
        }
        let Some(entry) = head.cursor.decode() else { continue };
        let (key, mut row) = entry?;
        head.cursor.advance()?;
        park(&mut heap, head);
        while heap.peek().is_some_and(|next| next.key() == key.as_bytes()) {
            let Some(mut dup) = heap.pop() else { break };
            if let Some(fragment) = dup.cursor.decode() {
                row.merge_newer(&fragment?.1);
            }
            dup.cursor.advance()?;
            park(&mut heap, dup);
        }
        out.add(&key, &row.prune(floor, drop_tombstones))?;
    }
    Ok(())
}

/// Put a source back into the merge heap unless its table is exhausted.
fn park<'a>(heap: &mut BinaryHeap<MergeSource<'a>>, source: MergeSource<'a>) {
    if source.cursor.raw().is_some() {
        heap.push(source);
    }
}

/// A leveled LSM store for one replicated key range.
pub struct RangeStore {
    vfs: SharedVfs,
    opts: StoreOptions,
    memtable: Memtable,
    /// L0: overlapping flush tier, newest first.
    l0: Vec<Slot>,
    /// `deeper[k]` is level k+1: tables non-overlapping, in key order.
    deeper: Vec<Vec<Slot>>,
    next_id: u64,
    gc_floor: Timestamp,
    /// Per-`deeper`-level round-robin compaction cursors: the max key of
    /// the last table compacted out of the level, so picking rotates
    /// through the key space instead of starving its tail.
    cursors: Vec<Key>,
    ctx: TableCtx,
    stats: StatsInner,
}

impl RangeStore {
    fn manifest_path(dir: &str) -> String {
        format!("{dir}/MANIFEST")
    }

    fn table_path(dir: &str, id: u64) -> String {
        format!("{dir}/sst-{id:010}")
    }

    /// Open the store, loading tables listed in the manifest. Level
    /// assignments are restored from a v2 manifest; a v1 manifest (the
    /// pre-leveling flat set) upgrades compatibly with every table in L0.
    pub fn open(vfs: SharedVfs, opts: StoreOptions) -> Result<RangeStore> {
        let mpath = Self::manifest_path(&opts.dir);
        let manifest = if vfs.exists(&mpath)? {
            let data = vfs.read_all(&mpath)?;
            Manifest::decode(&mut data.as_slice())?
        } else {
            Manifest { tables: Vec::new(), next_id: 1, gc_floor: Timestamp::MAX }
        };
        let ctx =
            TableCtx { cache: opts.cache.clone(), metrics: Arc::new(CacheMetrics::default()) };
        let mut l0: Vec<Slot> = Vec::new();
        let mut deeper: Vec<Vec<Slot>> = Vec::new();
        for &(id, level) in &manifest.tables {
            let table =
                Table::open_with(vfs.clone(), &Self::table_path(&opts.dir, id), ctx.clone())?;
            let slot = Slot { id, table };
            // Flat mode ignores levels: everything lives in the one tier.
            if level == 0 || !opts.leveled {
                l0.push(slot);
            } else {
                let k = level as usize - 1;
                while deeper.len() <= k {
                    deeper.push(Vec::new());
                }
                deeper[k].push(slot);
            }
        }
        // Restore each level's key order, then self-heal: a table that
        // overlaps its level peers (a manifest from a torn upgrade or a
        // bit flip that survived decode) is demoted to L0, where overlap
        // is legal. Reads are version-driven, so placement is a pure
        // performance property — demotion can never change results.
        for level in &mut deeper {
            sort_level(level);
            let mut i = 1;
            while i < level.len() {
                if min_key(&level[i]) <= max_key(&level[i - 1]) {
                    let slot = level.remove(i);
                    l0.push(slot);
                } else {
                    i += 1;
                }
            }
        }
        Ok(RangeStore {
            vfs,
            opts,
            memtable: Memtable::new(),
            l0,
            deeper,
            next_id: manifest.next_id,
            gc_floor: manifest.gc_floor,
            cursors: Vec::new(),
            ctx,
            stats: StatsInner::default(),
        })
    }

    fn manifest(&self) -> Manifest {
        let mut tables = Vec::with_capacity(self.table_count());
        for s in &self.l0 {
            tables.push((s.id, 0));
        }
        for (k, level) in self.deeper.iter().enumerate() {
            for s in level {
                tables.push((s.id, k as u32 + 1));
            }
        }
        Manifest { tables, next_id: self.next_id, gc_floor: self.gc_floor }
    }

    fn save_manifest(&self) -> Result<()> {
        self.vfs
            .write_atomic(&Self::manifest_path(&self.opts.dir), &self.manifest().encode_to_vec())
    }

    /// Apply a committed write at `lsn` (idempotent under replay).
    pub fn apply(&mut self, op: &WriteOp, lsn: Lsn) {
        self.memtable.apply(op, lsn);
    }

    /// Ingest a catch-up row fragment (versions embedded in the fragment).
    pub fn ingest_fragment(&mut self, key: &Key, fragment: &Row) {
        self.memtable.merge_row(key, fragment);
    }

    /// Probe one table for `key`, folding any fragment into `merged` and
    /// crediting the span/bloom statistics.
    fn probe(&self, slot: &Slot, key: &Key, merged: &mut Option<Row>) -> Result<()> {
        if !slot.table.span_contains(key) {
            self.stats.span_skips.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        if !slot.table.bloom_may_contain(key) {
            self.stats.bloom_negatives.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        match slot.table.get_unfiltered(key)? {
            Some(frag) => {
                self.stats.bloom_true_positives.fetch_add(1, Ordering::Relaxed);
                match merged.as_mut() {
                    Some(row) => row.merge_newer(&frag),
                    None => *merged = Some(frag),
                }
            }
            None => {
                self.stats.bloom_false_positives.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Merged read of a whole row (tombstones retained; callers filter).
    /// Every L0 table is span/bloom-probed; each deeper level contributes
    /// at most the **one** table whose span can contain the key, found by
    /// binary search — the leveled read-amplification win.
    pub fn get(&self, key: &Key) -> Result<Option<Row>> {
        self.stats.point_gets.fetch_add(1, Ordering::Relaxed);
        let mut merged: Option<Row> = self.memtable.get(key).cloned();
        for slot in &self.l0 {
            self.probe(slot, key, &mut merged)?;
        }
        for level in &self.deeper {
            // Last table whose min_key <= key is the only candidate in a
            // non-overlapping, key-ordered level.
            let i = level.partition_point(|s| min_key(s) <= key);
            if i > 0 {
                self.probe(&level[i - 1], key, &mut merged)?;
            }
        }
        Ok(merged)
    }

    /// Merged read of one column (tombstones retained).
    pub fn get_column(
        &self,
        key: &Key,
        col: &[u8],
    ) -> Result<Option<spinnaker_common::ColumnValue>> {
        Ok(self.get(key)?.and_then(|row| row.get(col).cloned()))
    }

    /// MVCC read: the row state **visible at** commit timestamp `ts` —
    /// per column, the newest retained version with `timestamp <= ts`
    /// (tombstones included; callers filter). `None` when nothing of the
    /// row is visible at `ts`.
    pub fn get_at(&self, key: &Key, ts: Timestamp) -> Result<Option<Row>> {
        Ok(self.get(key)?.map(|row| row.visible_at(ts)).filter(|r| !r.is_empty()))
    }

    /// Set the MVCC garbage-collection floor: subsequent compactions
    /// prune version-chain entries whose commit timestamp is at or
    /// below it (keeping the newest such entry, so reads pinned exactly
    /// at the floor still resolve). `u64::MAX` — the default for a
    /// fresh store — retains only the latest version, the pre-MVCC
    /// behaviour; the hosting replica lowers it to `now -
    /// snapshot_retain` on its maintenance tick. Floors only move
    /// forward — a lagging caller cannot resurrect pruned history, so
    /// regressions are ignored. The floor is persisted with the
    /// manifest (on the next flush/compaction) and inherited by
    /// split/merge/extract children and snapshot importers, so a store
    /// whose tables were pruned at some floor never claims it can
    /// serve below it. Passing `u64::MAX` (the "unarmed" sentinel) is a
    /// no-op: an armed floor can never be disarmed.
    pub fn set_gc_floor(&mut self, floor: Timestamp) {
        if floor == Timestamp::MAX {
            return;
        }
        if self.gc_floor == Timestamp::MAX || floor > self.gc_floor {
            self.gc_floor = floor;
        }
    }

    /// The current MVCC garbage-collection floor (`u64::MAX` = never
    /// armed: no version has ever been pruned, every timestamp is
    /// servable).
    pub fn gc_floor(&self) -> Timestamp {
        self.gc_floor
    }

    fn all_slots(&self) -> impl Iterator<Item = &Slot> {
        self.l0.iter().chain(self.deeper.iter().flatten())
    }

    /// Highest commit timestamp stored anywhere (memtable + SSTables):
    /// everything committed at or below this is applied here, which makes
    /// it the replica's snapshot-read safe point.
    pub fn max_ts(&self) -> Timestamp {
        let mut max = self.memtable.max_ts();
        for s in self.all_slots() {
            max = max.max(s.table.meta().max_ts);
        }
        max
    }

    /// True when the memtable has outgrown its budget.
    pub fn needs_flush(&self) -> bool {
        self.memtable.approx_bytes() >= self.opts.memtable_flush_bytes
    }

    /// Bloom/block options for a table written at `level`: deeper levels
    /// get progressively tighter false-positive budgets.
    fn table_opts(&self, level: u32) -> TableOptions {
        let mut t = self.opts.table.clone();
        let ceiling = self.opts.bloom_bits_max.max(t.bloom_bits_per_key);
        let extra = (level as usize).saturating_mul(self.opts.bloom_bits_step_per_level);
        t.bloom_bits_per_key = t.bloom_bits_per_key.saturating_add(extra).min(ceiling);
        t
    }

    /// Target size of the tables of a sorted run.
    fn run_target(&self) -> usize {
        usize::try_from(self.opts.level_table_target_bytes).unwrap_or(usize::MAX).max(1)
    }

    /// Build one table at `level` from already-sorted rows.
    fn build_table(&mut self, rows: &[(Key, Row)], level: u32) -> Result<Slot> {
        let mut made = self.build_run(rows, level, usize::MAX)?;
        made.pop().ok_or_else(|| Error::InvalidArgument("cannot build an empty SSTable".into()))
    }

    /// Build a sorted run at `level`: the rows split into tables of
    /// roughly `target` bytes each. Key-ordered input makes the output
    /// tables non-overlapping by construction.
    fn build_run(&mut self, rows: &[(Key, Row)], level: u32, target: usize) -> Result<Vec<Slot>> {
        let table_opts = self.table_opts(level);
        let mut writer = RunWriter::new(
            &self.vfs,
            &self.opts.dir,
            &self.ctx,
            &mut self.next_id,
            table_opts,
            target,
        );
        for (key, row) in rows {
            writer.add(key, row)?;
        }
        writer.finish()
    }

    /// Flush the memtable into a new L0 SSTable. Returns the highest LSN
    /// captured (the caller advances the WAL checkpoint to it), or `None`
    /// when the memtable was empty.
    pub fn flush(&mut self) -> Result<Option<Lsn>> {
        if self.memtable.is_empty() {
            return Ok(None);
        }
        let max_lsn = self.memtable.max_lsn();
        let rows = self.memtable.take_sorted();
        let slot = self.build_table(&rows, 0)?;
        self.l0.insert(0, slot);
        self.save_manifest()?;
        Ok(Some(max_lsn))
    }

    /// Capacity of `deeper[k]` (level k+1): `level_base_bytes * fanout^k`.
    fn level_capacity(&self, k: usize) -> u64 {
        let fanout = self.opts.level_fanout.max(2);
        let mut cap = self.opts.level_base_bytes.max(1);
        for _ in 0..k {
            cap = cap.saturating_mul(fanout);
        }
        cap
    }

    fn level_bytes(&self, k: usize) -> u64 {
        self.deeper[k].iter().map(|s| s.table.meta().file_bytes).sum()
    }

    /// Run at most one compaction if one is due. Returns `true` when a
    /// compaction ran.
    ///
    /// Leveled mode: when L0 has accumulated `compaction_fanin` tables,
    /// all of L0 plus every overlapping L1 table merges into L1;
    /// otherwise the shallowest over-capacity level contributes one
    /// table (round-robin through its key space) plus the overlapping
    /// next-level tables. Flat mode: the seed size-tiered heuristic.
    pub fn maybe_compact(&mut self) -> Result<bool> {
        if !self.opts.leveled {
            return self.maybe_compact_flat();
        }
        let fanin = self.opts.compaction_fanin.max(1);
        if self.l0.len() >= fanin {
            let plan = self.plan_l0();
            self.run_compaction(plan)?;
            return Ok(true);
        }
        for k in 0..self.deeper.len() {
            if !self.deeper[k].is_empty() && self.level_bytes(k) > self.level_capacity(k) {
                let plan = self.plan_level(k);
                self.run_compaction(plan)?;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Plan the L0 -> L1 compaction: every L0 table plus every L1 table
    /// overlapping L0's combined span.
    fn plan_l0(&self) -> CompactionPlan {
        let mut input_ids: Vec<u64> = self.l0.iter().map(|s| s.id).collect();
        let span_min = self.l0.iter().map(min_key).min().cloned();
        let span_max = self.l0.iter().map(max_key).max().cloned();
        if let (Some(min), Some(max), Some(l1)) = (span_min, span_max, self.deeper.first()) {
            for s in l1 {
                if min_key(s) <= &max && max_key(s) >= &min {
                    input_ids.push(s.id);
                }
            }
        }
        let drop_tombstones = self.deeper.iter().skip(1).all(Vec::is_empty);
        CompactionPlan { input_ids, out_deeper: 0, drop_tombstones }
    }

    /// Plan one level-k+1 -> level-k+2 compaction: the cursor-picked
    /// table of `deeper[k]` plus the overlapping `deeper[k+1]` tables.
    fn plan_level(&mut self, k: usize) -> CompactionPlan {
        while self.cursors.len() <= k {
            self.cursors.push(Key::default());
        }
        let cursor = self.cursors[k].clone();
        let pick = self.deeper[k].iter().position(|s| min_key(s) > &cursor).unwrap_or(0);
        let picked = &self.deeper[k][pick];
        self.cursors[k] = max_key(picked).clone();
        let (min, max) = (min_key(picked).clone(), max_key(picked).clone());
        let mut input_ids = vec![picked.id];
        if let Some(next) = self.deeper.get(k + 1) {
            for s in next {
                if min_key(s) <= &max && max_key(s) >= &min {
                    input_ids.push(s.id);
                }
            }
        }
        let drop_tombstones = self.deeper.iter().skip(k + 2).all(Vec::is_empty);
        CompactionPlan { input_ids, out_deeper: k + 1, drop_tombstones }
    }

    /// Execute a compaction plan: merge the inputs (pruning versions at
    /// the GC floor) into the output run, swap it into the level
    /// structure, persist the manifest, and only then delete the input
    /// files. A crash between manifest write and deletion leaks input
    /// files (harmless: ids are never re-listed and `create` truncates
    /// on reuse); a crash before the manifest write leaves the old,
    /// fully consistent level assignment in force, and so does an input
    /// that fails to read — the outputs written so far are removed and
    /// nothing else has changed.
    fn run_compaction(&mut self, plan: CompactionPlan) -> Result<()> {
        let floor = self.gc_floor;
        let table_opts = self.table_opts(plan.out_deeper as u32 + 1);
        let target = self.run_target();
        let (l0, deeper) = (&self.l0, &self.deeper);
        let inputs: Vec<&Table> = plan
            .input_ids
            .iter()
            .filter_map(|&id| l0.iter().chain(deeper.iter().flatten()).find(|s| s.id == id))
            .map(|s| &s.table)
            .collect();
        let in_bytes: u64 = inputs.iter().map(|t| t.meta().file_bytes).sum();
        let mut writer = RunWriter::new(
            &self.vfs,
            &self.opts.dir,
            &self.ctx,
            &mut self.next_id,
            table_opts,
            target,
        );
        let merged = merge_into(&inputs, floor, plan.drop_tombstones, &mut writer)
            .and_then(|()| writer.finish());
        let mut made = match merged {
            Ok(made) => made,
            Err(e) => {
                writer.abandon();
                return Err(e);
            }
        };
        while self.deeper.len() <= plan.out_deeper {
            self.deeper.push(Vec::new());
        }
        let mut removed = Vec::new();
        for id in &plan.input_ids {
            if let Some(pos) = self.l0.iter().position(|s| s.id == *id) {
                removed.push(self.l0.remove(pos));
                continue;
            }
            for level in &mut self.deeper {
                if let Some(pos) = level.iter().position(|s| s.id == *id) {
                    removed.push(level.remove(pos));
                    break;
                }
            }
        }
        self.deeper[plan.out_deeper].append(&mut made);
        sort_level(&mut self.deeper[plan.out_deeper]);
        self.stats.compactions.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_compacted.fetch_add(in_bytes, Ordering::Relaxed);
        self.save_manifest()?;
        for s in removed {
            s.table.delete()?;
        }
        Ok(())
    }

    /// Merge every table into the deepest populated level (dropping
    /// tombstones — nothing older can survive a total merge). Used by
    /// tests and by the catch-up path to bound the number of tables.
    pub fn compact_all(&mut self) -> Result<()> {
        if self.table_count() < 2 {
            return Ok(());
        }
        if !self.opts.leveled {
            let all: Vec<usize> = (0..self.l0.len()).collect();
            return self.compact_flat_indexes(&all, true);
        }
        let out_deeper = self.deeper.iter().rposition(|l| !l.is_empty()).unwrap_or(0);
        let input_ids = self.all_slots().map(|s| s.id).collect();
        self.run_compaction(CompactionPlan { input_ids, out_deeper, drop_tombstones: true })
    }

    /// Flat-mode (pre-leveling) compaction: when enough similarly-sized
    /// tables accumulate, merge them into one. Tombstones are dropped
    /// only when *all* tables take part.
    fn maybe_compact_flat(&mut self) -> Result<bool> {
        let fanin = self.opts.compaction_fanin;
        if fanin == 0 || self.l0.len() < fanin {
            return Ok(false);
        }
        // Order candidate indexes by file size ascending; pick the first
        // tier: the `fanin` smallest tables where the largest is within 4x
        // of the smallest (size-tiered heuristic).
        let mut by_size: Vec<usize> = (0..self.l0.len()).collect();
        by_size.sort_by_key(|&i| self.l0[i].table.meta().file_bytes);
        let group: Vec<usize> = by_size
            .windows(fanin)
            .find(|w| {
                let lo = self.l0[w[0]].table.meta().file_bytes;
                let hi = self.l0[w[fanin - 1]].table.meta().file_bytes;
                hi <= lo.saturating_mul(4).max(lo + (64 << 10))
            })
            .map(|w| w.to_vec())
            .unwrap_or_default();
        if group.is_empty() {
            return Ok(false);
        }
        let full_merge = group.len() == self.l0.len();
        self.compact_flat_indexes(&group, full_merge)?;
        Ok(true)
    }

    fn compact_flat_indexes(&mut self, picked: &[usize], drop_tombstones: bool) -> Result<()> {
        let floor = self.gc_floor;
        let (rows, in_bytes) = {
            let inputs: Vec<&Table> = picked.iter().map(|&i| &self.l0[i].table).collect();
            let in_bytes: u64 = inputs.iter().map(|t| t.meta().file_bytes).sum();
            let streams: Vec<RowStream<'_>> =
                inputs.iter().map(|t| Box::new(t.iter()) as RowStream<'_>).collect();
            let mut rows: Vec<(Key, Row)> = Vec::new();
            for item in MergeIter::new(streams)? {
                let (key, row) = item?;
                let row = row.prune(floor, drop_tombstones);
                if !row.is_empty() {
                    rows.push((key, row));
                }
            }
            (rows, in_bytes)
        };
        let new_slot = if rows.is_empty() { None } else { Some(self.build_table(&rows, 0)?) };
        // Replace the picked tables with the merged one, preserving overall
        // newest-first order: insert at the position of the newest input.
        let Some(&insert_at) = picked.iter().min() else {
            return Ok(()); // nothing picked: the merge is a no-op
        };
        let mut picked_sorted = picked.to_vec();
        picked_sorted.sort_unstable_by(|a, b| b.cmp(a));
        let mut removed = Vec::new();
        for i in picked_sorted {
            removed.push(self.l0.remove(i));
        }
        if let Some(slot) = new_slot {
            self.l0.insert(insert_at.min(self.l0.len()), slot);
        }
        self.stats.compactions.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_compacted.fetch_add(in_bytes, Ordering::Relaxed);
        self.save_manifest()?;
        for s in removed {
            s.table.delete()?;
        }
        Ok(())
    }

    /// Every row fragment containing at least one column written after
    /// `lsn`, in key order — the catch-up feed (§6.1). Fragments are
    /// trimmed to columns with `version > lsn` so only missing writes are
    /// shipped.
    pub fn rows_since(&self, lsn: Lsn) -> Result<Vec<(Key, Row)>> {
        let mut streams: Vec<RowStream<'_>> = Vec::new();
        if !self.memtable.is_empty() && self.memtable.max_lsn() > lsn {
            let rows: Vec<(Key, Row)> =
                self.memtable.iter().map(|(k, r)| (k.clone(), r.clone())).collect();
            streams.push(vec_stream(rows));
        }
        for slot in self.all_slots() {
            if slot.table.meta().max_lsn > lsn {
                streams.push(Box::new(slot.table.iter()));
            }
        }
        let mut out = Vec::new();
        for item in MergeIter::new(streams)? {
            let (key, row) = item?;
            let mut trimmed = Row::new();
            for (col, cv) in &row.columns {
                if Lsn::from_u64(cv.version) > lsn {
                    trimmed.set(col.clone(), cv.clone());
                }
            }
            if !trimmed.is_empty() {
                out.push((key, trimmed));
            }
        }
        Ok(out)
    }

    /// Fork the store at `at` into two children (dynamic range splitting):
    /// the memtable is cloned in halves, and every SSTable is assigned
    /// wholly to one side **at its own level** when its key bounds allow —
    /// a cheap file copy — or re-partitioned into per-side tables (still
    /// at its level) when it straddles the split key. Clipping preserves
    /// each level's non-overlap, since each side receives a disjoint
    /// sub-run. `self` is left untouched; the caller dissolves the parent
    /// once both children are durable.
    pub fn split(
        &self,
        at: &Key,
        left_opts: StoreOptions,
        right_opts: StoreOptions,
    ) -> Result<(RangeStore, RangeStore)> {
        let mut left = RangeStore::create(self.vfs.clone(), left_opts)?;
        let mut right = RangeStore::create(self.vfs.clone(), right_opts)?;
        // The children adopt tables pruned at the parent's floor; they
        // must not claim they can serve below it.
        left.gc_floor = self.gc_floor;
        right.gc_floor = self.gc_floor;
        for (key, row) in self.memtable.iter() {
            let side = if key < at { &mut left } else { &mut right };
            side.memtable.merge_row(key, row);
        }
        // L0 oldest first, inserting at the front, so each child's L0
        // ends newest-first like its parent (merges are version-driven,
        // but the invariant keeps compaction heuristics honest).
        for slot in self.l0.iter().rev() {
            Self::split_one(slot, at, 0, &mut left, &mut right)?;
        }
        for (k, level) in self.deeper.iter().enumerate() {
            for slot in level {
                Self::split_one(slot, at, k as u32 + 1, &mut left, &mut right)?;
            }
        }
        left.save_manifest()?;
        right.save_manifest()?;
        Ok((left, right))
    }

    fn split_one(
        slot: &Slot,
        at: &Key,
        level: u32,
        left: &mut RangeStore,
        right: &mut RangeStore,
    ) -> Result<()> {
        let meta = slot.table.meta();
        if &meta.max_key < at {
            left.adopt_table_file(slot.table.path(), level)
        } else if &meta.min_key >= at {
            right.adopt_table_file(slot.table.path(), level)
        } else {
            left.adopt_rows(slot.table.scan(&Key::default(), Some(at))?, level)?;
            right.adopt_rows(slot.table.scan(at, None)?, level)
        }
    }

    /// Extract the slice `[start, end)` into a fresh child store (the
    /// generic, bounds-driven fork used by table-only split recovery,
    /// where the exact split lineage may span several chained splits).
    /// Unlike [`RangeStore::split`] this always re-partitions rows; it is
    /// the rare-path variant, so simplicity wins over file reuse. The
    /// merged scan yields one sorted, duplicate-free run, which lands as
    /// non-overlapping L1 tables.
    pub fn extract(
        &self,
        start: &Key,
        end: Option<&Key>,
        opts: StoreOptions,
    ) -> Result<RangeStore> {
        let mut child = RangeStore::create(self.vfs.clone(), opts)?;
        child.gc_floor = self.gc_floor;
        child.adopt_rows(self.scan(start, end)?, 1)?;
        child.save_manifest()?;
        Ok(child)
    }

    /// Merge two sibling stores with *disjoint* key spans into one child
    /// (dynamic range merging — the inverse of [`RangeStore::split`]).
    /// Because no key can live on both sides, every SSTable is adopted
    /// wholesale as a cheap file copy **at its own level** (disjoint
    /// parents keep every level non-overlapping) and the memtables are
    /// unioned; no row-level merge is ever needed. The parents are left
    /// untouched; the caller dissolves them once the merged child is
    /// durable.
    pub fn merge(left: &RangeStore, right: &RangeStore, opts: StoreOptions) -> Result<RangeStore> {
        let mut merged = RangeStore::create(left.vfs.clone(), opts)?;
        // Adopt the stricter of the parents' floors (MAX inputs are
        // no-ops, so an armed floor always wins over an unarmed one).
        merged.set_gc_floor(left.gc_floor());
        merged.set_gc_floor(right.gc_floor());
        for parent in [left, right] {
            // L0 oldest first, inserting at the front, preserving each
            // side's newest-first order (the sides are disjoint, so their
            // relative interleaving carries no version semantics).
            for slot in parent.l0.iter().rev() {
                merged.adopt_table_file(slot.table.path(), 0)?;
            }
            for (k, level) in parent.deeper.iter().enumerate() {
                for slot in level {
                    merged.adopt_table_file(slot.table.path(), k as u32 + 1)?;
                }
            }
            for (key, row) in parent.memtable.iter() {
                merged.memtable.merge_row(key, row);
            }
        }
        merged.save_manifest()?;
        Ok(merged)
    }

    /// Export a consistent snapshot of the whole store: raw SSTable file
    /// images (with their level assignments) plus the memtable rows that
    /// have not been flushed yet. Used to stream a range's data to a node
    /// joining its cohort (replica movement); everything the store holds
    /// at call time is captured, so the snapshot is consistent up to
    /// [`RangeStore::max_lsn`].
    pub fn export_snapshot(&self) -> Result<StoreSnapshot> {
        let mut tables = Vec::with_capacity(self.table_count());
        let mut levels = Vec::with_capacity(self.table_count());
        for slot in &self.l0 {
            tables.push(self.vfs.read_all(slot.table.path())?);
            levels.push(0);
        }
        for (k, level) in self.deeper.iter().enumerate() {
            for slot in level {
                tables.push(self.vfs.read_all(slot.table.path())?);
                levels.push(k as u32 + 1);
            }
        }
        let mem_rows: Vec<(Key, Row)> =
            self.memtable.iter().map(|(k, r)| (k.clone(), r.clone())).collect();
        Ok(StoreSnapshot {
            tables,
            levels,
            mem_rows,
            max_lsn: self.max_lsn(),
            gc_floor: self.gc_floor,
        })
    }

    /// Import a snapshot into this (expected-fresh) store: the table
    /// images are written and synced as local SSTables at the exporter's
    /// level assignments, and the row fragments land in the memtable. The
    /// caller flushes and advances its WAL checkpoint to make the handoff
    /// durable.
    pub fn import_snapshot(&mut self, snap: &StoreSnapshot) -> Result<()> {
        // The imported tables were pruned at the exporter's floor; adopt
        // it so this store never serves snapshot reads below it.
        self.set_gc_floor(snap.gc_floor);
        // Reverse order, inserting L0 images at the front, so this store's
        // L0 ends newest-first exactly like the exporter's.
        for i in (0..snap.tables.len()).rev() {
            let level = snap.levels.get(i).copied().unwrap_or(0);
            let id = self.next_id;
            self.next_id += 1;
            let dst = Self::table_path(&self.opts.dir, id);
            let mut f = self.vfs.create(&dst)?;
            f.append(&snap.tables[i])?;
            f.sync()?;
            let table = Table::open_with(self.vfs.clone(), &dst, self.ctx.clone())?;
            self.place(Slot { id, table }, level);
        }
        for (key, row) in &snap.mem_rows {
            self.memtable.merge_row(key, row);
        }
        self.save_manifest()
    }

    /// Open a store on a fresh manifest, discarding any leftovers in the
    /// directory (stale state from a replica that departed earlier, or a
    /// fork that crashed before completing). The public entry point for a
    /// node about to receive a snapshot.
    pub fn recreate(vfs: SharedVfs, opts: StoreOptions) -> Result<RangeStore> {
        RangeStore::create(vfs, opts)
    }

    /// Open a store on a *fresh* manifest, ignoring any leftovers in the
    /// directory (e.g. from a fork that crashed before completing).
    fn create(vfs: SharedVfs, opts: StoreOptions) -> Result<RangeStore> {
        let ctx =
            TableCtx { cache: opts.cache.clone(), metrics: Arc::new(CacheMetrics::default()) };
        let store = RangeStore {
            vfs,
            opts,
            memtable: Memtable::new(),
            l0: Vec::new(),
            deeper: Vec::new(),
            next_id: 1,
            gc_floor: Timestamp::MAX,
            cursors: Vec::new(),
            ctx,
            stats: StatsInner::default(),
        };
        store.save_manifest()?;
        Ok(store)
    }

    /// Place an adopted slot at `level` (flat mode collapses everything
    /// into the one overlapping tier). L0 inserts at the front; deeper
    /// levels re-sort by min key.
    fn place(&mut self, slot: Slot, level: u32) {
        let level = if self.opts.leveled { level } else { 0 };
        if level == 0 {
            self.l0.insert(0, slot);
            return;
        }
        let k = level as usize - 1;
        while self.deeper.len() <= k {
            self.deeper.push(Vec::new());
        }
        self.deeper[k].push(slot);
        sort_level(&mut self.deeper[k]);
    }

    /// Adopt a whole SSTable from another store by copying its file,
    /// placing it at `level`.
    fn adopt_table_file(&mut self, src: &str, level: u32) -> Result<()> {
        let id = self.next_id;
        self.next_id += 1;
        let dst = Self::table_path(&self.opts.dir, id);
        let data = self.vfs.read_all(src)?;
        let mut f = self.vfs.create(&dst)?;
        f.append(&data)?;
        f.sync()?;
        let table = Table::open_with(self.vfs.clone(), &dst, self.ctx.clone())?;
        self.place(Slot { id, table }, level);
        Ok(())
    }

    /// Build SSTables from already-sorted rows and adopt them at `level`
    /// (L0 gets a single table; deeper levels a target-sized run).
    fn adopt_rows(&mut self, rows: Vec<(Key, Row)>, level: u32) -> Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        if level == 0 || !self.opts.leveled {
            let slot = self.build_table(&rows, 0)?;
            self.place(slot, 0);
            return Ok(());
        }
        let made = self.build_run(&rows, level, self.run_target())?;
        for slot in made {
            self.place(slot, level);
        }
        Ok(())
    }

    /// Merged scan of `[start, end)` across memtable and all tables.
    pub fn scan(&self, start: &Key, end: Option<&Key>) -> Result<Vec<(Key, Row)>> {
        Ok(self.scan_page(start, end, usize::MAX)?.0)
    }

    /// One page of a merged scan: up to `limit` rows of `[start, end)`
    /// across memtable and all tables, plus the first key **not**
    /// returned when more rows remain inside the bounds — the caller's
    /// resume cursor. `None` means the bounds are exhausted. This is the
    /// replica-side engine of the client `Scan` op: each request drains
    /// one page, and the continuation key lets a logical scan resume
    /// exactly where it stopped (even across range splits and merges,
    /// because the cursor is a plain key that re-routes through the
    /// range table).
    pub fn scan_page(&self, start: &Key, end: Option<&Key>, limit: usize) -> Result<ScanPage> {
        // Producing `limit` merged rows plus the resume key touches at
        // most the first `limit + 1` in-bounds entries of each stream
        // (streams are sorted and duplicate-free per key), so each
        // stream is truncated there. SSTable streams *seek* to the
        // cursor through the block index ([`Table::iter_from`]) and
        // decode one block at a time, so a page's memory and work are
        // bounded by the page limit and the block size — not by the
        // range size or by how far into the range the cursor sits.
        // Each deeper level is one stream: its tables are disjoint and
        // key-ordered, so chaining their seeked iterators stays sorted.
        let cap = limit.saturating_add(1);
        let mut streams: Vec<RowStream<'_>> = Vec::new();
        streams.push(Box::new(
            self.memtable
                .range_from(start)
                .filter(move |(k, _)| end.is_none_or(|e| *k < e))
                .take(cap)
                .map(|(k, r)| Ok((k.clone(), r.clone()))),
        ));
        for slot in &self.l0 {
            let hi = end.cloned();
            streams.push(Box::new(
                slot.table
                    .iter_from(start)
                    .take_while(move |item| match (item, &hi) {
                        (Ok((k, _)), Some(e)) => k < e,
                        _ => true, // unbounded, or an error to surface
                    })
                    .take(cap),
            ));
        }
        for level in &self.deeper {
            let tables: Vec<&Table> = level
                .iter()
                .map(|s| &s.table)
                .filter(|t| &t.meta().max_key >= start && end.is_none_or(|e| &t.meta().min_key < e))
                .collect();
            if tables.is_empty() {
                continue;
            }
            let from = start.clone();
            let hi = end.cloned();
            streams.push(Box::new(
                tables
                    .into_iter()
                    .flat_map(move |t| t.iter_from(&from))
                    .take_while(move |item| match (item, &hi) {
                        (Ok((k, _)), Some(e)) => k < e,
                        _ => true,
                    })
                    .take(cap),
            ));
        }
        let mut rows = Vec::new();
        for item in MergeIter::new(streams)? {
            let (key, row) = item?;
            if rows.len() >= limit {
                return Ok((rows, Some(key)));
            }
            rows.push((key, row));
        }
        Ok((rows, None))
    }

    /// One page of an **MVCC snapshot scan**: like [`RangeStore::scan_page`]
    /// but every returned row is the state visible at commit timestamp
    /// `ts` (newest version `<= ts` per column, tombstones retained for
    /// the caller to filter). Rows with nothing visible at `ts` — e.g.
    /// created after the snapshot was pinned — are omitted, but still
    /// consume page slots so the continuation cursor stays exact.
    pub fn scan_page_at(
        &self,
        start: &Key,
        end: Option<&Key>,
        limit: usize,
        ts: Timestamp,
    ) -> Result<ScanPage> {
        let (raw, resume) = self.scan_page(start, end, limit)?;
        let rows = raw
            .into_iter()
            .filter_map(|(key, row)| {
                let visible = row.visible_at(ts);
                (!visible.is_empty()).then_some((key, visible))
            })
            .collect();
        Ok((rows, resume))
    }

    /// Approximate total bytes held (memtable estimate + SSTable file
    /// sizes) — the size statistic behind automatic split triggers.
    pub fn approx_total_bytes(&self) -> u64 {
        self.memtable.approx_bytes() as u64
            + self.all_slots().map(|s| s.table.meta().file_bytes).sum::<u64>()
    }

    /// An approximate median key: the middle key of a merged scan. Costs a
    /// full scan, so callers invoke it only when a size/load trigger has
    /// already decided to split. `None` when the store holds no rows.
    pub fn mid_key(&self) -> Option<Key> {
        let rows = self.scan(&Key::default(), None).ok()?;
        if rows.len() < 2 {
            return None;
        }
        Some(rows[rows.len() / 2].0.clone())
    }

    /// Highest LSN applied to the memtable (`Lsn::ZERO` when clean).
    pub fn memtable_max_lsn(&self) -> Lsn {
        self.memtable.max_lsn()
    }

    /// Rows currently buffered in the memtable.
    pub fn memtable_len(&self) -> usize {
        self.memtable.len()
    }

    /// Number of live SSTables across every level.
    pub fn table_count(&self) -> usize {
        self.l0.len() + self.deeper.iter().map(Vec::len).sum::<usize>()
    }

    /// Live tables per level, L0 first, trailing empty levels trimmed.
    pub fn tables_per_level(&self) -> Vec<usize> {
        let mut v = vec![self.l0.len()];
        for level in &self.deeper {
            v.push(level.len());
        }
        while v.len() > 1 && v.last() == Some(&0) {
            v.pop();
        }
        v
    }

    /// Key spans `(min, max)` of the tables at `level` (0 = L0), in
    /// placement order. Test/debug introspection for the per-level
    /// non-overlap invariant.
    pub fn level_spans(&self, level: usize) -> Vec<(Key, Key)> {
        let slots: &[Slot] = if level == 0 {
            &self.l0
        } else {
            match self.deeper.get(level - 1) {
                Some(v) => v,
                None => return Vec::new(),
            }
        };
        slots.iter().map(|s| (min_key(s).clone(), max_key(s).clone())).collect()
    }

    /// Block-cache registration ids of every live table (`None` entries
    /// omitted). Test/debug introspection for the cache-retirement
    /// invariant.
    pub fn live_cache_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.all_slots().filter_map(|s| s.table.cache_id()).collect();
        ids.sort_unstable();
        ids
    }

    /// Read/compaction statistics since this store was opened.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            tables_per_level: self.tables_per_level(),
            point_gets: self.stats.point_gets.load(Ordering::Relaxed),
            span_skips: self.stats.span_skips.load(Ordering::Relaxed),
            bloom_negatives: self.stats.bloom_negatives.load(Ordering::Relaxed),
            bloom_true_positives: self.stats.bloom_true_positives.load(Ordering::Relaxed),
            bloom_false_positives: self.stats.bloom_false_positives.load(Ordering::Relaxed),
            compactions: self.stats.compactions.load(Ordering::Relaxed),
            bytes_compacted: self.stats.bytes_compacted.load(Ordering::Relaxed),
            cache_hits: self.ctx.metrics.hits(),
            cache_misses: self.ctx.metrics.misses(),
            block_reads: self.ctx.metrics.block_reads(),
        }
    }

    /// Highest column version stored anywhere in this store.
    pub fn max_lsn(&self) -> Lsn {
        let mut max = self.memtable.max_lsn();
        for s in self.all_slots() {
            max = max.max(s.table.meta().max_lsn);
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use spinnaker_common::op;
    use spinnaker_common::vfs::MemVfs;

    use super::*;

    fn store_on(vfs: &MemVfs) -> RangeStore {
        RangeStore::open(
            Arc::new(vfs.clone()),
            StoreOptions { memtable_flush_bytes: 1 << 20, ..Default::default() },
        )
        .unwrap()
    }

    #[test]
    fn read_your_writes_through_memtable() {
        let vfs = MemVfs::new();
        let mut s = store_on(&vfs);
        s.apply(&op::put("k", "c", "v1"), Lsn::new(1, 1));
        let row = s.get(&Key::from("k")).unwrap().unwrap();
        assert_eq!(row.get_live(b"c").unwrap().value.as_ref(), b"v1");
    }

    #[test]
    fn reads_merge_memtable_over_tables() {
        let vfs = MemVfs::new();
        let mut s = store_on(&vfs);
        s.apply(&op::put("k", "c", "old"), Lsn::new(1, 1));
        s.apply(&op::put("k", "d", "keep"), Lsn::new(1, 2));
        s.flush().unwrap();
        s.apply(&op::put("k", "c", "new"), Lsn::new(1, 3));
        let row = s.get(&Key::from("k")).unwrap().unwrap();
        assert_eq!(row.get_live(b"c").unwrap().value.as_ref(), b"new");
        assert_eq!(row.get_live(b"d").unwrap().value.as_ref(), b"keep");
    }

    #[test]
    fn flush_returns_checkpoint_lsn_and_persists() {
        let vfs = MemVfs::new();
        let mut s = store_on(&vfs);
        for i in 1..=100u64 {
            s.apply(&op::put(&format!("k{i:03}"), "c", &format!("v{i}")), Lsn::new(1, i));
        }
        let cp = s.flush().unwrap().unwrap();
        assert_eq!(cp, Lsn::new(1, 100));
        assert_eq!(s.memtable_len(), 0);
        assert_eq!(s.table_count(), 1);

        // Restart from the crash image: manifest + table survive.
        let s2 = store_on(&vfs.crash_clone());
        assert_eq!(s2.table_count(), 1);
        let row = s2.get(&Key::from("k050")).unwrap().unwrap();
        assert_eq!(row.get_live(b"c").unwrap().value.as_ref(), b"v50");
    }

    #[test]
    fn scan_page_limits_and_resumes() {
        let vfs = MemVfs::new();
        let mut s = store_on(&vfs);
        for i in 1..=20u64 {
            s.apply(&op::put(&format!("k{i:03}"), "c", &format!("v{i}")), Lsn::new(1, i));
            if i == 10 {
                s.flush().unwrap(); // straddle memtable and an SSTable
            }
        }
        // Page through the whole store at 7 rows per page.
        let mut cursor = Key::default();
        let mut seen = Vec::new();
        loop {
            let (rows, resume) = s.scan_page(&cursor, None, 7).unwrap();
            assert!(rows.len() <= 7);
            seen.extend(rows.into_iter().map(|(k, _)| k));
            match resume {
                Some(next) => {
                    assert!(seen.last().unwrap() < &next, "resume key advances");
                    cursor = next;
                }
                None => break,
            }
        }
        let all: Vec<Key> =
            s.scan(&Key::default(), None).unwrap().into_iter().map(|(k, _)| k).collect();
        assert_eq!(seen, all, "paged scan equals one-shot scan");
        assert_eq!(seen.len(), 20);

        // Bounds are respected and an exhausted page reports no resume.
        let (rows, resume) =
            s.scan_page(&Key::from("k005"), Some(&Key::from("k010")), 100).unwrap();
        assert_eq!(rows.len(), 5);
        assert!(resume.is_none());
    }

    /// A put of `key.c = val` whose commit timestamp is `ts`.
    fn put_at(key: &str, val: &str, ts: u64) -> WriteOp {
        WriteOp::put(
            Key::from(key),
            bytes::Bytes::from_static(b"c"),
            bytes::Bytes::copy_from_slice(val.as_bytes()),
            ts,
        )
    }

    #[test]
    fn get_at_reads_the_version_chain_across_flushes() {
        let vfs = MemVfs::new();
        let mut s = store_on(&vfs);
        s.apply(&put_at("k", "v1", 10), Lsn::new(1, 1));
        s.flush().unwrap();
        s.apply(&put_at("k", "v2", 20), Lsn::new(1, 2));
        s.flush().unwrap();
        s.apply(&put_at("k", "v3", 30), Lsn::new(1, 3)); // memtable
        let k = Key::from("k");
        assert!(s.get_at(&k, 9).unwrap().is_none(), "before the first write");
        for (ts, want) in [(10u64, "v1"), (15, "v1"), (20, "v2"), (29, "v2"), (30, "v3")] {
            let row = s.get_at(&k, ts).unwrap().unwrap();
            assert_eq!(row.get_live(b"c").unwrap().value.as_ref(), want.as_bytes(), "ts {ts}");
        }
        assert_eq!(s.max_ts(), 30);
    }

    #[test]
    fn scan_page_at_serves_a_fixed_cut() {
        let vfs = MemVfs::new();
        let mut s = store_on(&vfs);
        for i in 0..10u64 {
            s.apply(&put_at(&format!("k{i}"), &format!("old{i}"), 100 + i), Lsn::new(1, i + 1));
        }
        s.flush().unwrap();
        // Overwrite half the keys, delete one, and add a new one — all
        // after the cut at ts=109.
        for i in 0..5u64 {
            s.apply(&put_at(&format!("k{i}"), &format!("new{i}"), 200 + i), Lsn::new(1, 20 + i));
        }
        s.apply(
            &WriteOp::delete(Key::from("k7"), bytes::Bytes::from_static(b"c"), 210),
            Lsn::new(1, 30),
        );
        s.apply(&put_at("k99", "born-late", 220), Lsn::new(1, 31));

        // Page through at the cut; every row reads its pre-overwrite
        // state, the deleted row is still live, the late row is absent.
        let mut cursor = Key::default();
        let mut seen = Vec::new();
        loop {
            let (rows, resume) = s.scan_page_at(&cursor, None, 3, 109).unwrap();
            seen.extend(rows);
            match resume {
                Some(next) => cursor = next,
                None => break,
            }
        }
        assert_eq!(seen.len(), 10, "exactly the ten rows of the cut");
        for (key, row) in &seen {
            let i: u64 = std::str::from_utf8(&key.as_bytes()[1..]).unwrap().parse().unwrap();
            assert_eq!(
                row.get_live(b"c").unwrap().value.as_ref(),
                format!("old{i}").as_bytes(),
                "row {i} reads the snapshot value"
            );
        }
        // The latest cut sees the overwrites, the delete, and the late row.
        let (now_rows, _) = s.scan_page_at(&Key::default(), None, 100, u64::MAX).unwrap();
        let live: Vec<&(Key, Row)> =
            now_rows.iter().filter(|(_, r)| r.get_live(b"c").is_some()).collect();
        assert_eq!(live.len(), 10, "10 old - 1 deleted + 1 late");
        assert!(s.get_at(&Key::from("k0"), u64::MAX).unwrap().is_some());
    }

    #[test]
    fn gc_floor_prunes_only_invisible_versions() {
        let vfs = MemVfs::new();
        let mut s = store_on(&vfs);
        for (i, ts) in [(1u64, 10u64), (2, 20), (3, 30), (4, 40)] {
            s.apply(&put_at("k", &format!("v{i}"), ts), Lsn::new(1, i));
            s.flush().unwrap();
        }
        // Floor at 25: compaction must keep versions 40, 30 and the
        // newest at-or-below (20); only 10 is prunable.
        s.set_gc_floor(25);
        s.compact_all().unwrap();
        let k = Key::from("k");
        let head = s.get(&k).unwrap().unwrap();
        let retained: Vec<u64> = head.get(b"c").unwrap().versions().map(|v| v.timestamp).collect();
        assert_eq!(retained, vec![40, 30, 20]);
        for (ts, want) in [(25u64, "v2"), (30, "v3"), (45, "v4")] {
            let row = s.get_at(&k, ts).unwrap().unwrap();
            assert_eq!(row.get_live(b"c").unwrap().value.as_ref(), want.as_bytes(), "ts {ts}");
        }
        // Without a floor (the default), compaction keeps only the head.
        let mut s2 = store_on(&vfs.crash_clone());
        s2.apply(&put_at("j", "x", 5), Lsn::new(2, 1));
        s2.apply(&put_at("j", "y", 6), Lsn::new(2, 2));
        s2.flush().unwrap();
        s2.compact_all().unwrap();
        assert_eq!(s2.get(&Key::from("j")).unwrap().unwrap().get(b"c").unwrap().older.len(), 0);
    }

    #[test]
    fn gc_floor_survives_restart_and_store_forks() {
        let vfs = MemVfs::new();
        let mut s = store_on(&vfs);
        for (i, ts) in [(1u64, 10u64), (2, 20), (3, 30)] {
            s.apply(&put_at("k", &format!("v{i}"), ts), Lsn::new(1, i));
            s.flush().unwrap();
        }
        s.set_gc_floor(25);
        s.compact_all().unwrap(); // prunes ts=10 and persists the floor
        assert_eq!(s.gc_floor(), 25);
        s.set_gc_floor(u64::MAX);
        assert_eq!(s.gc_floor(), 25, "an armed floor can never be disarmed");
        s.set_gc_floor(5);
        assert_eq!(s.gc_floor(), 25, "floors only move forward");

        // Restart: the floor must come back — the pruned history is gone,
        // so the store must keep refusing to claim it can serve below 25.
        let reopened = store_on(&vfs.crash_clone());
        assert_eq!(reopened.gc_floor(), 25, "floor persisted with the manifest");

        // Split children, an extracted child, a merged store, and a
        // snapshot importer all inherit it.
        let (left, right) = s
            .split(
                &Key::from("m"),
                StoreOptions { dir: "left".into(), ..Default::default() },
                StoreOptions { dir: "right".into(), ..Default::default() },
            )
            .unwrap();
        assert_eq!((left.gc_floor(), right.gc_floor()), (25, 25));
        let merged = RangeStore::merge(
            &left,
            &right,
            StoreOptions { dir: "merged".into(), ..Default::default() },
        )
        .unwrap();
        assert_eq!(merged.gc_floor(), 25);
        let extracted = s
            .extract(
                &Key::default(),
                None,
                StoreOptions { dir: "extracted".into(), ..Default::default() },
            )
            .unwrap();
        assert_eq!(extracted.gc_floor(), 25);
        let snap = s.export_snapshot().unwrap();
        assert_eq!(snap.gc_floor, 25);
        let mut joiner = RangeStore::recreate(
            Arc::new(MemVfs::new()),
            StoreOptions { dir: "joined".into(), ..Default::default() },
        )
        .unwrap();
        assert_eq!(joiner.gc_floor(), u64::MAX, "fresh store: unarmed");
        joiner.import_snapshot(&snap).unwrap();
        assert_eq!(joiner.gc_floor(), 25, "importer adopts the exporter's floor");
    }

    #[test]
    fn empty_flush_is_a_noop() {
        let vfs = MemVfs::new();
        let mut s = store_on(&vfs);
        assert!(s.flush().unwrap().is_none());
        assert_eq!(s.table_count(), 0);
    }

    #[test]
    fn compaction_reduces_tables_and_preserves_data() {
        let vfs = MemVfs::new();
        let mut s = store_on(&vfs);
        for batch in 0..5u64 {
            for i in 0..50u64 {
                let seq = batch * 50 + i + 1;
                s.apply(
                    &op::put(&format!("k{:03}", i), "c", &format!("b{batch}")),
                    Lsn::new(1, seq),
                );
            }
            s.flush().unwrap();
        }
        assert_eq!(s.table_count(), 5);
        assert!(s.maybe_compact().unwrap());
        assert!(s.table_count() < 5);
        assert_eq!(s.tables_per_level()[0], 0, "L0 drained into the ladder");
        // Latest batch value must win for every key.
        for i in 0..50u64 {
            let row = s.get(&Key::from(format!("k{:03}", i).as_str())).unwrap().unwrap();
            assert_eq!(row.get_live(b"c").unwrap().value.as_ref(), b"b4", "key k{i:03}");
        }
    }

    #[test]
    fn full_compaction_drops_tombstones() {
        let vfs = MemVfs::new();
        let mut s = store_on(&vfs);
        s.apply(&op::put("k", "c", "v"), Lsn::new(1, 1));
        s.flush().unwrap();
        s.apply(&op::delete("k", "c"), Lsn::new(1, 2));
        s.flush().unwrap();
        // Before GC the tombstone is still readable (raw).
        assert!(s.get(&Key::from("k")).unwrap().unwrap().get(b"c").unwrap().tombstone);
        s.compact_all().unwrap();
        // After a full merge the deleted column is gone entirely.
        assert!(s.get(&Key::from("k")).unwrap().is_none());
        assert_eq!(s.table_count(), 0, "everything was deleted");
    }

    #[test]
    fn shallow_compaction_keeps_tombstones_until_the_bottom() {
        // The leveled analogue of "partial merges must not drop
        // tombstones": a tombstone compacted into a level above data
        // survives; once it reaches the deepest populated level it goes.
        let vfs = MemVfs::new();
        let mut s = RangeStore::open(
            Arc::new(vfs.clone()),
            StoreOptions {
                compaction_fanin: 1,
                level_base_bytes: 1, // every level always over capacity
                ..Default::default()
            },
        )
        .unwrap();
        // Seed the bottom: value lands in L1, then is pushed to L2.
        s.apply(&op::put("k", "c", "v"), Lsn::new(1, 1));
        s.apply(&op::put("other", "c", "x"), Lsn::new(1, 2));
        s.flush().unwrap();
        assert!(s.maybe_compact().unwrap(), "L0 -> L1");
        assert!(s.maybe_compact().unwrap(), "L1 -> L2 (over tiny capacity)");
        assert_eq!(s.tables_per_level(), vec![0, 0, 1], "value now at L2");
        // Tombstone flushes to L0, then compacts to L1 — with L2
        // populated below, it must be retained.
        s.apply(&op::delete("k", "c"), Lsn::new(1, 3));
        s.flush().unwrap();
        assert!(s.maybe_compact().unwrap(), "tombstone L0 -> L1");
        let row = s.get(&Key::from("k")).unwrap().unwrap();
        assert!(row.get(b"c").unwrap().tombstone, "tombstone retained above live data");
        assert!(row.get_live(b"c").is_none(), "the old value stays dead");
        // A total merge reaches the bottom and finally drops it.
        s.compact_all().unwrap();
        assert!(s.get(&Key::from("k")).unwrap().is_none());
    }

    #[test]
    fn flat_mode_partial_compaction_keeps_tombstones() {
        // The pre-leveling behaviour, pinned under `leveled: false`: a
        // size-tiered partial merge must retain tombstones because the
        // old value may live in a table outside the merge.
        let vfs = MemVfs::new();
        let mut s = RangeStore::open(
            Arc::new(vfs.clone()),
            StoreOptions { compaction_fanin: 2, leveled: false, ..Default::default() },
        )
        .unwrap();
        // Oldest table holds the value...
        s.apply(&op::put("k", "c", "v"), Lsn::new(1, 1));
        // ...plus enough bulk that it lands in a bigger size tier.
        for i in 0..200u64 {
            s.apply(&op::put(&format!("pad{i:05}"), "c", &"x".repeat(64)), Lsn::new(1, 2 + i));
        }
        s.flush().unwrap();
        // Two small tables: the tombstone and another small write.
        s.apply(&op::delete("k", "c"), Lsn::new(1, 300));
        s.flush().unwrap();
        s.apply(&op::put("other", "c", "y"), Lsn::new(1, 301));
        s.flush().unwrap();
        assert!(s.maybe_compact().unwrap());
        // The tombstone must survive the partial merge: the old value still
        // exists in the big table and would otherwise resurrect.
        let row = s.get(&Key::from("k")).unwrap().unwrap();
        assert!(row.get(b"c").unwrap().tombstone, "tombstone retained in partial merge");
        assert!(row.get_live(b"c").is_none());
    }

    #[test]
    fn leveled_ladder_grows_and_stays_disjoint() {
        let vfs = MemVfs::new();
        let mut s = RangeStore::open(
            Arc::new(vfs.clone()),
            StoreOptions {
                compaction_fanin: 2,
                level_base_bytes: 8 << 10,
                level_table_target_bytes: 4 << 10,
                ..Default::default()
            },
        )
        .unwrap();
        let mut lsn = 0u64;
        for round in 0..12u64 {
            for i in 0..120u64 {
                lsn += 1;
                s.apply(
                    &op::put(&format!("key{:04}", (i * 7 + round) % 600), "c", &"v".repeat(40)),
                    Lsn::new(1, lsn),
                );
            }
            s.flush().unwrap();
            while s.maybe_compact().unwrap() {}
        }
        let per_level = s.tables_per_level();
        assert!(per_level.len() >= 3, "ladder grew levels: {per_level:?}");
        // L1+ spans are sorted and pairwise disjoint.
        for level in 1..per_level.len() {
            let spans = s.level_spans(level);
            for w in spans.windows(2) {
                assert!(w[0].1 < w[1].0, "level {level} tables overlap: {spans:?}");
            }
        }
        // Every key still reads its latest value.
        for key in 0..600u64 {
            let k = Key::from(format!("key{key:04}").as_str());
            assert!(s.get(&k).unwrap().is_some(), "key {key} lost in the ladder");
        }
        // And a restart restores the exact level assignment.
        let s2 = RangeStore::open(
            Arc::new(vfs.crash_clone()),
            StoreOptions {
                compaction_fanin: 2,
                level_base_bytes: 8 << 10,
                level_table_target_bytes: 4 << 10,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(s2.tables_per_level(), per_level, "levels survive restart");
    }

    #[test]
    fn v1_manifest_upgrades_to_l0() {
        // Hand-encode a v1 (pre-leveling) manifest over real table files
        // and verify the store opens with every table in L0, reads
        // intact, and the next save rewrites it as v2.
        let vfs = MemVfs::new();
        let mut s = store_on(&vfs);
        s.apply(&op::put("a", "c", "old"), Lsn::new(1, 1));
        s.flush().unwrap();
        s.apply(&op::put("a", "c", "new"), Lsn::new(1, 2));
        s.apply(&op::put("b", "c", "x"), Lsn::new(1, 3));
        s.flush().unwrap();
        s.set_gc_floor(7);
        s.compact_all().unwrap(); // persists the floor
                                  // Rewrite the manifest in v1 format: next_id, gc_floor, ids.
        let m = s.manifest();
        let mut v1 = Vec::new();
        codec::put_u64(&mut v1, m.next_id);
        codec::put_u64(&mut v1, m.gc_floor);
        codec::put_varint(&mut v1, m.tables.len() as u64);
        for (id, _) in &m.tables {
            codec::put_u64(&mut v1, *id);
        }
        use spinnaker_common::vfs::Vfs;
        vfs.write_atomic("store/MANIFEST", &v1).unwrap();

        let image = vfs.crash_clone();
        let mut reopened = store_on(&image);
        assert_eq!(reopened.tables_per_level(), vec![m.tables.len()], "v1 tables all land in L0");
        assert_eq!(reopened.gc_floor(), 7, "floor survives the upgrade");
        let row = reopened.get(&Key::from("a")).unwrap().unwrap();
        assert_eq!(row.get_live(b"c").unwrap().value.as_ref(), b"new");
        // The next manifest write is v2 and round-trips levels.
        reopened.apply(&op::put("z", "c", "1"), Lsn::new(1, 9));
        reopened.flush().unwrap();
        let reread = store_on(&image.crash_clone());
        assert_eq!(reread.table_count(), reopened.table_count());
    }

    #[test]
    fn rows_since_trims_to_new_columns() {
        let vfs = MemVfs::new();
        let mut s = store_on(&vfs);
        s.apply(&op::put("a", "c", "1"), Lsn::new(1, 1));
        s.apply(&op::put("b", "c", "2"), Lsn::new(1, 2));
        s.flush().unwrap();
        s.apply(&op::put("c", "c", "3"), Lsn::new(1, 3));

        let since = s.rows_since(Lsn::new(1, 1)).unwrap();
        let keys: Vec<_> = since.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec![Key::from("b"), Key::from("c")]);
        // Catch-up from zero ships everything.
        assert_eq!(s.rows_since(Lsn::ZERO).unwrap().len(), 3);
        // Catch-up from the max ships nothing.
        assert_eq!(s.rows_since(Lsn::new(1, 3)).unwrap().len(), 0);
    }

    #[test]
    fn ingest_fragment_feeds_reads_and_flush() {
        let vfs = MemVfs::new();
        let mut src = store_on(&vfs);
        src.apply(&op::put("k", "c", "v"), Lsn::new(2, 9));
        let frags = src.rows_since(Lsn::ZERO).unwrap();

        let vfs2 = MemVfs::new();
        let mut dst = store_on(&vfs2);
        for (k, frag) in &frags {
            dst.ingest_fragment(k, frag);
        }
        let row = dst.get(&Key::from("k")).unwrap().unwrap();
        assert_eq!(row.get_live(b"c").unwrap().version, Lsn::new(2, 9).as_u64());
        assert_eq!(dst.flush().unwrap().unwrap(), Lsn::new(2, 9));
    }

    #[test]
    fn scan_is_merged_and_bounded() {
        let vfs = MemVfs::new();
        let mut s = store_on(&vfs);
        s.apply(&op::put("a", "c", "1"), Lsn::new(1, 1));
        s.apply(&op::put("b", "c", "2"), Lsn::new(1, 2));
        s.flush().unwrap();
        s.apply(&op::put("b", "c", "2new"), Lsn::new(1, 3));
        s.apply(&op::put("d", "c", "4"), Lsn::new(1, 4));
        let got = s.scan(&Key::from("a"), Some(&Key::from("c"))).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].1.get_live(b"c").unwrap().value.as_ref(), b"2new");
    }

    #[test]
    fn split_partitions_memtable_and_tables_by_key() {
        let vfs = MemVfs::new();
        let mut s = store_on(&vfs);
        // One table entirely left of the split, one straddling it, plus
        // live memtable rows on both sides.
        s.apply(&op::put("a1", "c", "t1"), Lsn::new(1, 1));
        s.apply(&op::put("a2", "c", "t1"), Lsn::new(1, 2));
        s.flush().unwrap();
        s.apply(&op::put("a3", "c", "t2"), Lsn::new(1, 3));
        s.apply(&op::put("z1", "c", "t2"), Lsn::new(1, 4));
        s.flush().unwrap();
        s.apply(&op::put("a2", "c", "mem"), Lsn::new(1, 5)); // newer version
        s.apply(&op::put("z2", "c", "mem"), Lsn::new(1, 6));

        let at = Key::from("m");
        let (left, right) = s
            .split(
                &at,
                StoreOptions { dir: "left".into(), ..Default::default() },
                StoreOptions { dir: "right".into(), ..Default::default() },
            )
            .unwrap();

        // Every key reads identically from the child owning its side.
        for key in ["a1", "a2", "a3", "z1", "z2"] {
            let k = Key::from(key);
            let child = if k < at { &left } else { &right };
            assert_eq!(child.get(&k).unwrap(), s.get(&k).unwrap(), "child read differs for {key}");
        }
        // And nothing crossed the boundary.
        assert!(left.get(&Key::from("z1")).unwrap().is_none());
        assert!(right.get(&Key::from("a1")).unwrap().is_none());
        // The newest version won through the memtable clone.
        let row = left.get(&Key::from("a2")).unwrap().unwrap();
        assert_eq!(row.get_live(b"c").unwrap().value.as_ref(), b"mem");
        // The parent is untouched.
        assert_eq!(s.get(&Key::from("a1")).unwrap().unwrap().len(), 1);
    }

    #[test]
    fn split_preserves_levels_and_disjointness() {
        let vfs = MemVfs::new();
        let mut s = RangeStore::open(
            Arc::new(vfs.clone()),
            StoreOptions {
                compaction_fanin: 2,
                level_table_target_bytes: 2 << 10,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..200u64 {
            s.apply(&op::put(&format!("k{i:04}"), "c", &"v".repeat(50)), Lsn::new(1, i + 1));
        }
        s.flush().unwrap();
        s.apply(&op::put("k0500", "c", "late"), Lsn::new(1, 900));
        s.flush().unwrap();
        while s.maybe_compact().unwrap() {}
        assert!(s.tables_per_level().len() > 1, "parent has deeper levels");

        let at = Key::from("k0100");
        let (left, right) = s
            .split(
                &at,
                StoreOptions { dir: "left".into(), ..Default::default() },
                StoreOptions { dir: "right".into(), ..Default::default() },
            )
            .unwrap();
        for child in [&left, &right] {
            let per_level = child.tables_per_level();
            for level in 1..per_level.len() {
                let spans = child.level_spans(level);
                for w in spans.windows(2) {
                    assert!(w[0].1 < w[1].0, "child level {level} overlaps: {spans:?}");
                }
            }
        }
        assert!(left.tables_per_level().len() > 1, "left kept its deep placement");
        for i in 0..200u64 {
            let k = Key::from(format!("k{i:04}").as_str());
            let child = if k < at { &left } else { &right };
            assert_eq!(child.get(&k).unwrap(), s.get(&k).unwrap(), "key k{i:04}");
        }
    }

    #[test]
    fn split_children_survive_restart() {
        let vfs = MemVfs::new();
        let mut s = store_on(&vfs);
        for i in 0..40u64 {
            s.apply(&op::put(&format!("k{i:02}"), "c", &format!("v{i}")), Lsn::new(1, i + 1));
        }
        s.flush().unwrap();
        s.apply(&op::put("k99", "c", "late"), Lsn::new(1, 100));
        let (mut left, mut right) = s
            .split(
                &Key::from("k20"),
                StoreOptions { dir: "left".into(), ..Default::default() },
                StoreOptions { dir: "right".into(), ..Default::default() },
            )
            .unwrap();
        left.flush().unwrap();
        right.flush().unwrap();

        // Crash: only synced state survives; both children reopen intact.
        let image = vfs.crash_clone();
        let left2 = RangeStore::open(
            Arc::new(image.clone()),
            StoreOptions { dir: "left".into(), ..Default::default() },
        )
        .unwrap();
        let right2 = RangeStore::open(
            Arc::new(image),
            StoreOptions { dir: "right".into(), ..Default::default() },
        )
        .unwrap();
        assert_eq!(
            left2.get(&Key::from("k07")).unwrap().unwrap().get_live(b"c").unwrap().value.as_ref(),
            b"v7"
        );
        assert!(left2.get(&Key::from("k20")).unwrap().is_none(), "boundary key went right");
        assert_eq!(
            right2.get(&Key::from("k99")).unwrap().unwrap().get_live(b"c").unwrap().value.as_ref(),
            b"late"
        );
    }

    #[test]
    fn merge_rejoins_split_children_losslessly() {
        let vfs = MemVfs::new();
        let mut s = store_on(&vfs);
        for i in 0..30u64 {
            s.apply(&op::put(&format!("k{i:02}"), "c", &format!("v{i}")), Lsn::new(1, i + 1));
            if i % 7 == 0 {
                s.flush().unwrap();
            }
        }
        s.apply(&op::delete("k05", "c"), Lsn::new(1, 100));
        let at = Key::from("k15");
        let (left, right) = s
            .split(
                &at,
                StoreOptions { dir: "left".into(), ..Default::default() },
                StoreOptions { dir: "right".into(), ..Default::default() },
            )
            .unwrap();
        let merged = RangeStore::merge(
            &left,
            &right,
            StoreOptions { dir: "merged".into(), ..Default::default() },
        )
        .unwrap();
        for i in 0..30u64 {
            let k = Key::from(format!("k{i:02}").as_str());
            assert_eq!(merged.get(&k).unwrap(), s.get(&k).unwrap(), "key k{i:02}");
        }
        assert_eq!(
            merged.scan(&Key::default(), None).unwrap(),
            s.scan(&Key::default(), None).unwrap(),
            "merged scan equals the original"
        );
    }

    #[test]
    fn merged_store_survives_restart() {
        let vfs = MemVfs::new();
        let mut s = store_on(&vfs);
        for i in 0..20u64 {
            s.apply(&op::put(&format!("k{i:02}"), "c", &format!("v{i}")), Lsn::new(1, i + 1));
        }
        s.flush().unwrap();
        let (left, right) = s
            .split(
                &Key::from("k10"),
                StoreOptions { dir: "left".into(), ..Default::default() },
                StoreOptions { dir: "right".into(), ..Default::default() },
            )
            .unwrap();
        let mut merged = RangeStore::merge(
            &left,
            &right,
            StoreOptions { dir: "merged".into(), ..Default::default() },
        )
        .unwrap();
        merged.flush().unwrap();
        let merged2 = RangeStore::open(
            Arc::new(vfs.crash_clone()),
            StoreOptions { dir: "merged".into(), ..Default::default() },
        )
        .unwrap();
        for i in 0..20u64 {
            let k = Key::from(format!("k{i:02}").as_str());
            assert_eq!(merged2.get(&k).unwrap(), s.get(&k).unwrap());
        }
    }

    #[test]
    fn snapshot_export_import_roundtrip() {
        let vfs = MemVfs::new();
        let mut src = store_on(&vfs);
        for i in 0..25u64 {
            src.apply(&op::put(&format!("k{i:02}"), "c", &format!("v{i}")), Lsn::new(2, i + 1));
            if i == 10 {
                src.flush().unwrap();
            }
        }
        src.apply(&op::delete("k03", "c"), Lsn::new(2, 90));
        let snap = src.export_snapshot().unwrap();
        assert_eq!(snap.max_lsn, Lsn::new(2, 90));
        assert!(snap.approx_size() > 0);
        assert_eq!(snap.tables.len(), snap.levels.len(), "levels parallel the images");

        // Import on a different node's (fresh) filesystem.
        let vfs2 = MemVfs::new();
        let mut dst = RangeStore::recreate(
            Arc::new(vfs2.clone()),
            StoreOptions { dir: "joined".into(), ..Default::default() },
        )
        .unwrap();
        dst.import_snapshot(&snap).unwrap();
        for i in 0..25u64 {
            let k = Key::from(format!("k{i:02}").as_str());
            assert_eq!(dst.get(&k).unwrap(), src.get(&k).unwrap(), "key k{i:02}");
        }
        assert_eq!(dst.max_lsn(), src.max_lsn());

        // The imported tables are durable; memtable rows need a flush.
        dst.flush().unwrap();
        let dst2 = RangeStore::open(
            Arc::new(vfs2.crash_clone()),
            StoreOptions { dir: "joined".into(), ..Default::default() },
        )
        .unwrap();
        assert_eq!(
            dst2.scan(&Key::default(), None).unwrap(),
            src.scan(&Key::default(), None).unwrap()
        );
    }

    #[test]
    fn snapshot_preserves_leveled_placement() {
        let vfs = MemVfs::new();
        let mut src = RangeStore::open(
            Arc::new(vfs.clone()),
            StoreOptions { compaction_fanin: 2, ..Default::default() },
        )
        .unwrap();
        for i in 0..100u64 {
            src.apply(&op::put(&format!("k{i:03}"), "c", &"v".repeat(30)), Lsn::new(1, i + 1));
        }
        src.flush().unwrap();
        src.apply(&op::put("k999", "c", "x"), Lsn::new(1, 500));
        src.flush().unwrap();
        while src.maybe_compact().unwrap() {}
        src.apply(&op::put("k000", "c", "newest"), Lsn::new(1, 600));
        src.flush().unwrap();
        let per_level = src.tables_per_level();
        assert!(per_level.len() > 1, "source has a ladder: {per_level:?}");

        let snap = src.export_snapshot().unwrap();
        let mut dst = RangeStore::recreate(
            Arc::new(MemVfs::new()),
            StoreOptions { dir: "joined".into(), ..Default::default() },
        )
        .unwrap();
        dst.import_snapshot(&snap).unwrap();
        assert_eq!(dst.tables_per_level(), per_level, "importer mirrors the exporter's levels");
        for i in 0..100u64 {
            let k = Key::from(format!("k{i:03}").as_str());
            assert_eq!(dst.get(&k).unwrap(), src.get(&k).unwrap(), "key k{i:03}");
        }
    }

    #[test]
    fn recreate_discards_stale_state() {
        let vfs = MemVfs::new();
        let mut s = store_on(&vfs);
        s.apply(&op::put("old", "c", "stale"), Lsn::new(1, 1));
        s.flush().unwrap();
        let fresh = RangeStore::recreate(Arc::new(vfs.clone()), StoreOptions::default()).unwrap();
        assert!(fresh.get(&Key::from("old")).unwrap().is_none(), "leftovers discarded");
        assert_eq!(fresh.table_count(), 0);
    }

    #[test]
    fn size_and_mid_key_statistics() {
        let vfs = MemVfs::new();
        let mut s = store_on(&vfs);
        assert_eq!(s.approx_total_bytes(), 0);
        assert!(s.mid_key().is_none());
        for i in 0..40u64 {
            s.apply(&op::put(&format!("k{i:02}"), "c", &"x".repeat(32)), Lsn::new(1, i + 1));
        }
        let mem_only = s.approx_total_bytes();
        assert!(mem_only > 0);
        s.flush().unwrap();
        assert!(s.approx_total_bytes() > 0, "flushed bytes counted via file sizes");
        let mid = s.mid_key().unwrap();
        // The midpoint splits the keys roughly in half.
        let below = (0..40u64).filter(|i| Key::from(format!("k{i:02}").as_str()) < mid).count();
        assert!((10..=30).contains(&below), "mid key is central: {below} below");
    }

    #[test]
    fn max_lsn_spans_memtable_and_tables() {
        let vfs = MemVfs::new();
        let mut s = store_on(&vfs);
        assert_eq!(s.max_lsn(), Lsn::ZERO);
        s.apply(&op::put("a", "c", "1"), Lsn::new(1, 5));
        s.flush().unwrap();
        s.apply(&op::put("b", "c", "2"), Lsn::new(1, 3));
        assert_eq!(s.max_lsn(), Lsn::new(1, 5));
    }

    #[test]
    fn stats_track_reads_compactions_and_cache() {
        let cache = Arc::new(crate::BlockCache::new(1 << 20));
        let vfs = MemVfs::new();
        let mut s = RangeStore::open(
            Arc::new(vfs.clone()),
            StoreOptions { cache: Some(cache.clone()), ..Default::default() },
        )
        .unwrap();
        for i in 0..50u64 {
            s.apply(&op::put(&format!("k{i:02}"), "c", &format!("v{i}")), Lsn::new(1, i + 1));
        }
        s.flush().unwrap();
        s.apply(&op::put("zz", "c", "solo"), Lsn::new(1, 99));
        s.flush().unwrap();
        // A present key: one bloom true positive; the first block read is
        // a cache miss, a repeat is a hit.
        s.get(&Key::from("k10")).unwrap().unwrap();
        s.get(&Key::from("k10")).unwrap().unwrap();
        // A key outside the solo table's span: a span skip somewhere.
        s.get(&Key::from("a-absent")).unwrap();
        let st = s.stats();
        assert_eq!(st.point_gets, 3);
        assert!(st.bloom_true_positives >= 2, "{st:?}");
        assert!(st.span_skips >= 1, "{st:?}");
        assert!(st.cache_hits >= 1, "repeat read hits the cache: {st:?}");
        assert!(st.cache_misses >= 1, "{st:?}");
        assert_eq!(st.tables_per_level, s.tables_per_level());
        s.compact_all().unwrap();
        let st = s.stats();
        assert_eq!(st.compactions, 1);
        assert!(st.bytes_compacted > 0);
    }
}
