//! The per-key-range LSM store: a memtable over a ladder of SSTables.
//!
//! Each Spinnaker node hosts one [`RangeStore`] per cohort it participates
//! in (three by default). Three modules each own one decision:
//!
//! * this one — what a store *is*: applying committed writes to the
//!   memtable, flushing it to LSN-tagged SSTables (which advances the WAL
//!   checkpoint — the caller wires that up), merged reads across memtable
//!   and tables (newest version per column), `rows_since` — the
//!   SSTable-backed catch-up feed a leader ships when its log has rolled
//!   over or the follower vouches for nothing (§6.1), which is also how a
//!   move's joiner gets its data — and the lifecycle of whole stores: one
//!   constructor, [`RangeStore::assemble`], builds every successor of a
//!   split, merge or rebuild from clipped local stores;
//! * `manifest.rs` — the bytes of `MANIFEST`, and the check that
//!   level assignments read from the file are safe to serve from;
//! * `compaction.rs` — when tables are merged, which ones, and how
//!   the output is written.
//!
//! Flushes land in L0 (overlapping, newest first); L1..Ln are sorted runs
//! of non-overlapping tables. Point reads probe each L0 table (span
//! check, then bloom) but binary-search the **single** candidate table
//! per deeper level, so read amplification is O(L0 + depth) instead of
//! O(total tables). Deeper levels get tighter bloom budgets (more bits
//! per key), and all block reads flow through the optional shared
//! [`crate::BlockCache`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spinnaker_common::vfs::SharedVfs;
use spinnaker_common::{Key, Lsn, Result, Row, Timestamp, WriteOp};

use crate::cache::{CacheMetrics, SharedBlockCache};
use crate::manifest::{heal_levels, max_key, min_key, sort_level, table_path, Manifest, Slot};
use crate::memtable::Memtable;
use crate::merge::{vec_stream, MergeIter, RowStream};
use crate::sstable::{Table, TableCtx, TableOptions};

/// Store tuning knobs.
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// Directory for SSTables and the manifest.
    pub dir: String,
    /// Flush the memtable once it exceeds this size.
    pub memtable_flush_bytes: usize,
    /// SSTable block/bloom parameters (the bloom budget is the L0
    /// baseline; each level of depth adds two bits per key, up to 16).
    pub table: TableOptions,
    /// Compact L0 into L1 once it holds this many tables.
    pub compaction_fanin: usize,
    /// Capacity ratio between consecutive levels (L(n+1) = fanout * Ln).
    pub level_fanout: u64,
    /// L1 capacity in bytes; level n holds `base * fanout^(n-1)`.
    pub level_base_bytes: u64,
    /// Target size for individual tables written by leveled compaction
    /// (a level is a sorted run of tables about this big).
    pub level_table_target_bytes: u64,
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
            level_fanout: 4,
            level_base_bytes: 4 << 20,
            level_table_target_bytes: 1 << 20,
            cache: None,
        }
    }
}

/// One page of a bounded scan: the rows returned plus the first key
/// *not* returned (the caller's resume cursor), or `None` when the
/// bounds were exhausted.
pub type ScanPage = (Vec<(Key, Row)>, Option<Key>);

/// Read/compaction observables for one store, surfaced through the
/// node's store-stats path.
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
pub(crate) struct StatsInner {
    point_gets: AtomicU64,
    span_skips: AtomicU64,
    bloom_negatives: AtomicU64,
    bloom_true_positives: AtomicU64,
    bloom_false_positives: AtomicU64,
    pub(crate) compactions: AtomicU64,
    pub(crate) bytes_compacted: AtomicU64,
}

/// A leveled LSM store for one replicated key range.
pub struct RangeStore {
    pub(crate) vfs: SharedVfs,
    pub(crate) opts: StoreOptions,
    memtable: Memtable,
    /// L0: overlapping flush tier, newest first.
    pub(crate) l0: Vec<Slot>,
    /// `deeper[k]` is level k+1: tables non-overlapping, in key order.
    pub(crate) deeper: Vec<Vec<Slot>>,
    pub(crate) next_id: u64,
    pub(crate) gc_floor: Timestamp,
    /// Per-`deeper`-level round-robin compaction cursors: the max key of
    /// the last table compacted out of the level, so picking rotates
    /// through the key space instead of starving its tail.
    pub(crate) cursors: Vec<Key>,
    pub(crate) ctx: TableCtx,
    pub(crate) stats: StatsInner,
}

impl RangeStore {
    /// A store over `opts.dir` that holds nothing (and has written
    /// nothing) yet.
    fn empty(vfs: SharedVfs, opts: StoreOptions) -> RangeStore {
        let ctx =
            TableCtx { cache: opts.cache.clone(), metrics: Arc::new(CacheMetrics::default()) };
        RangeStore {
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
        }
    }

    /// Open the store, loading the tables its manifest lists at the
    /// levels it assigns them.
    pub fn open(vfs: SharedVfs, opts: StoreOptions) -> Result<RangeStore> {
        let manifest = Manifest::load(&vfs, &opts.dir)?;
        let mut store = RangeStore::empty(vfs, opts);
        store.next_id = manifest.next_id;
        store.gc_floor = manifest.gc_floor;
        for &(id, level) in &manifest.tables {
            let path = table_path(&store.opts.dir, id);
            let table = Table::open_with(store.vfs.clone(), &path, store.ctx.clone())?;
            let slot = Slot { id, table };
            if level == 0 {
                store.l0.push(slot);
            } else {
                let k = level as usize - 1;
                while store.deeper.len() <= k {
                    store.deeper.push(Vec::new());
                }
                store.deeper[k].push(slot);
            }
        }
        heal_levels(&mut store.l0, &mut store.deeper);
        Ok(store)
    }

    /// Open a store on a *fresh* manifest, discarding any leftovers in
    /// the directory: stale state from a replica that departed earlier,
    /// or an assembly that crashed before completing. What a move's
    /// joiner starts from before catch-up fills it, and what
    /// [`RangeStore::assemble`] starts from.
    pub fn recreate(vfs: SharedVfs, opts: StoreOptions) -> Result<RangeStore> {
        let store = RangeStore::empty(vfs, opts);
        store.save_manifest()?;
        Ok(store)
    }

    pub(crate) fn save_manifest(&self) -> Result<()> {
        Manifest::of(&self.l0, &self.deeper, self.next_id, self.gc_floor)
            .save(&self.vfs, &self.opts.dir)
    }

    /// Apply a committed write at `lsn` (idempotent under replay).
    pub fn apply(&mut self, op: &WriteOp, lsn: Lsn) {
        self.memtable.apply(op, lsn);
    }

    /// Ingest a catch-up row fragment (versions embedded in the fragment).
    pub fn ingest_fragment(&mut self, key: &Key, fragment: &Row) {
        self.memtable.merge_row(key, fragment);
    }

    /// Probe one table for `key`, folding what its fragment shows at `ts`
    /// into `row` and crediting the span/bloom statistics.
    fn probe(&self, slot: &Slot, key: &Key, ts: Timestamp, row: &mut Row) -> Result<()> {
        if !slot.table.span_contains(key) {
            self.stats.span_skips.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        if !slot.table.bloom_may_contain(key) {
            self.stats.bloom_negatives.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let verdict = match slot.table.fold_visible(key, ts, row)? {
            true => &self.stats.bloom_true_positives,
            false => &self.stats.bloom_false_positives,
        };
        verdict.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Point read of a whole row at the latest commit: per column the
    /// newest version stored, **heads only** — `older` is empty on every
    /// column returned (tombstones retained; callers filter). This is
    /// [`RangeStore::get_at`] at `u64::MAX`. A row's retained history is
    /// read with [`RangeStore::scan`] / [`RangeStore::scan_page`], which
    /// keep the version chains.
    pub fn get(&self, key: &Key) -> Result<Option<Row>> {
        self.get_at(key, Timestamp::MAX)
    }

    /// Point read of one column at the latest commit (its head alone;
    /// tombstones retained).
    pub fn get_column(
        &self,
        key: &Key,
        col: &[u8],
    ) -> Result<Option<spinnaker_common::ColumnValue>> {
        Ok(self.get(key)?.and_then(|mut row| row.columns.remove(col)))
    }

    /// MVCC point read — the one point-read path: the row state **visible
    /// at** commit timestamp `ts`, i.e. per column the newest retained
    /// version with `timestamp <= ts`, heads only (`older` empty;
    /// tombstones included, callers filter). `None` when nothing of the
    /// row is visible at `ts`.
    ///
    /// No version chain is built on the way. The memtable and every
    /// table that may hold the key each show their own newest version at
    /// or below `ts` per column — a table straight out of the encoded row
    /// in its cached block — and the highest version wins
    /// ([`Row::admits`]). Every L0 table is span/bloom-probed; each
    /// deeper level contributes at most the **one** table whose span can
    /// contain the key, found by binary search — the leveled
    /// read-amplification win. The cells returned are views of the blocks
    /// they were read from.
    pub fn get_at(&self, key: &Key, ts: Timestamp) -> Result<Option<Row>> {
        self.stats.point_gets.fetch_add(1, Ordering::Relaxed);
        let mut row = Row::new();
        self.memtable.fold_visible(key, ts, &mut row);
        for slot in &self.l0 {
            self.probe(slot, key, ts, &mut row)?;
        }
        for level in &self.deeper {
            // Last table whose min_key <= key is the only candidate in a
            // non-overlapping, key-ordered level.
            let i = level.partition_point(|s| min_key(s) <= key);
            if i > 0 {
                self.probe(&level[i - 1], key, ts, &mut row)?;
            }
        }
        Ok((!row.is_empty()).then_some(row))
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
    /// manifest (on the next flush/compaction), inherited by assembled
    /// successors and raised to the leader's by a follower that ingests
    /// a store catch-up, so a store holding rows pruned at some floor
    /// never claims it can serve below it. Passing `u64::MAX` (the "unarmed" sentinel) is a
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

    pub(crate) fn all_slots(&self) -> impl Iterator<Item = &Slot> {
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

    /// Flush the memtable into a new L0 SSTable. Returns the highest LSN
    /// captured (the caller advances the WAL checkpoint to it), or `None`
    /// when the memtable was empty.
    ///
    /// A flush that fails changes nothing a reader sees: the rows go back
    /// into the memtable, and a table written but not listed in a saved
    /// manifest leaves the level structure (its file stays behind as dead
    /// weight, like an abandoned compaction output).
    pub fn flush(&mut self) -> Result<Option<Lsn>> {
        if self.memtable.is_empty() {
            return Ok(None);
        }
        let max_lsn = self.memtable.max_lsn();
        let rows = self.memtable.take_sorted();
        let flushed = self.adopt_rows(&rows, 0).and_then(|()| {
            let saved = self.save_manifest();
            if saved.is_err() {
                // `place` put the unlisted table first in L0.
                self.l0.remove(0);
            }
            saved
        });
        if let Err(e) = flushed {
            self.memtable.restore(&rows);
            return Err(e);
        }
        Ok(Some(max_lsn))
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

    /// Build a fresh store in `opts.dir` from `parts`, each a source store
    /// clipped to the keys `[lo, hi)` — the one recipe for every successor
    /// of a range split or merge, on whichever node builds it. Per part:
    /// the store adopts the stricter GC floor (its tables were pruned at
    /// the source's), takes the memtable rows in the clip, and walks the
    /// tables — L0 oldest first, inserting at the front so L0 stays
    /// newest first, then the deeper levels. A table wholly inside the
    /// clip is copied as a file **at its own level**; one that straddles
    /// the clip is re-partitioned into tables at that level
    /// holding only the clipped rows (none if the clip holds no key of
    /// it); a disjoint one is skipped. Parts are meant to be disjoint, and
    /// clipping a sub-run of a level keeps it non-overlapping; should two
    /// parts overlap, their overlapping tables are demoted to L0, where
    /// reads stay version-driven. The sources are left untouched; the
    /// caller dissolves them once the successor is durable.
    pub fn assemble(
        vfs: SharedVfs,
        opts: StoreOptions,
        parts: &[(&RangeStore, &Key, Option<&Key>)],
    ) -> Result<RangeStore> {
        let mut store = RangeStore::recreate(vfs, opts)?;
        for &(src, lo, hi) in parts {
            let below_hi = |k: &Key| hi.is_none_or(|h| k < h);
            store.set_gc_floor(src.gc_floor);
            for (key, row) in src.memtable.range_from(lo).take_while(|(k, _)| below_hi(k)) {
                store.memtable.merge_row(key, row);
            }
            let l0 = src.l0.iter().rev().map(|slot| (slot, 0));
            let deeper =
                src.deeper.iter().zip(1u32..).flat_map(|(v, l)| v.iter().map(move |s| (s, l)));
            for (slot, level) in l0.chain(deeper) {
                let meta = slot.table.meta();
                if &meta.max_key < lo || !below_hi(&meta.min_key) {
                    continue;
                }
                if &meta.min_key >= lo && below_hi(&meta.max_key) {
                    store.adopt_image(&src.vfs.read_all(slot.table.path())?, level)?;
                } else {
                    store.adopt_rows(&slot.table.scan(lo, hi)?, level)?;
                }
            }
        }
        heal_levels(&mut store.l0, &mut store.deeper);
        store.save_manifest()?;
        Ok(store)
    }

    /// Place an adopted slot at `level`. L0 inserts at the front; deeper
    /// levels re-sort by min key.
    pub(crate) fn place(&mut self, slot: Slot, level: u32) {
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

    /// Write `image` — the bytes of a whole SSTable — as a table of this
    /// store, synced, and place it at `level`.
    fn adopt_image(&mut self, image: &[u8], level: u32) -> Result<()> {
        let id = self.next_id;
        self.next_id += 1;
        let dst = table_path(&self.opts.dir, id);
        let mut f = self.vfs.create(&dst)?;
        f.append(image)?;
        f.sync()?;
        let table = Table::open_with(self.vfs.clone(), &dst, self.ctx.clone())?;
        self.place(Slot { id, table }, level);
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
    /// sizes).
    pub fn approx_total_bytes(&self) -> u64 {
        self.memtable.approx_bytes() as u64
            + self.all_slots().map(|s| s.table.meta().file_bytes).sum::<u64>()
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
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use spinnaker_common::op;
    use spinnaker_common::vfs::{FaultPlan, FaultVfs, MemVfs};

    use super::*;

    fn store_on(vfs: &MemVfs) -> RangeStore {
        RangeStore::open(
            Arc::new(vfs.clone()),
            StoreOptions { memtable_flush_bytes: 1 << 20, ..Default::default() },
        )
        .unwrap()
    }

    fn in_dir(dir: &str) -> StoreOptions {
        StoreOptions { dir: dir.into(), ..Default::default() }
    }

    /// `s` split at `at`: the stores assembled in `left` and `right` from
    /// the parent clipped to either side.
    fn split(s: &RangeStore, at: &Key) -> (RangeStore, RangeStore) {
        let child = |dir: &str, lo: &Key, hi: Option<&Key>| {
            RangeStore::assemble(s.vfs.clone(), in_dir(dir), &[(s, lo, hi)]).unwrap()
        };
        (child("left", &Key::default(), Some(at)), child("right", at, None))
    }

    /// The children of a split at `at`, assembled back into `merged`.
    fn merge(left: &RangeStore, right: &RangeStore, at: &Key) -> RangeStore {
        let parts = [(left, &Key::default(), Some(at)), (right, at, None)];
        RangeStore::assemble(left.vfs.clone(), in_dir("merged"), &parts).unwrap()
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

    /// A flush that fails — at any sync it makes (the table's, the
    /// manifest's) or at the read-back of the finished table — takes
    /// nothing from a reader: the rows stay in the memtable, no table is
    /// listed, and the retry on a device that recovered flushes them all.
    #[test]
    fn a_failed_flush_keeps_the_memtable_and_a_retry_succeeds() {
        let key = |i: u64| Key::from(format!("k{i:03}").as_str());
        let value_of = |s: &RangeStore, i: u64| {
            let row = s.get(&key(i)).unwrap()?;
            Some(row.get_live(b"c")?.value.to_vec())
        };
        let faults = [("sync", 1), ("sync", 2), ("read", 1)];
        for (fault, n) in faults {
            let mem = MemVfs::new();
            let plan = FaultPlan::new();
            let faulty: SharedVfs = Arc::new(FaultVfs::new(Arc::new(mem.clone()), plan.clone()));
            let mut s = RangeStore::open(faulty, StoreOptions::default()).unwrap();
            // An older table, so the one a failed flush unlists is the right one.
            for i in 1..=4u64 {
                s.apply(&op::put(&format!("k{i:03}"), "c", &format!("v{i}")), Lsn::new(1, i));
                if i == 1 {
                    s.flush().unwrap();
                }
            }
            match fault {
                "sync" => plan.fail_sync_after(n),
                _ => plan.fail_read_after(n),
            }
            assert!(s.flush().is_err(), "{fault} {n}: the flush failed");
            assert_eq!(plan.injected(), 1, "{fault} {n}");
            assert_eq!((s.table_count(), s.memtable_len()), (1, 3), "{fault} {n}");
            for i in 1..=4u64 {
                assert_eq!(value_of(&s, i), Some(format!("v{i}").into_bytes()), "{fault} {n}");
            }

            assert_eq!(s.flush().unwrap(), Some(Lsn::new(1, 4)), "{fault} {n}: the retry");
            assert_eq!((s.table_count(), s.memtable_len()), (2, 0));
            let reopened = store_on(&mem.crash_clone());
            assert_eq!(reopened.table_count(), 2, "{fault} {n}: the manifest lists both");
            for i in 1..=4u64 {
                assert_eq!(value_of(&reopened, i), Some(format!("v{i}").into_bytes()));
            }
        }
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
        // A scan keeps the chains; a get returns heads.
        let chain_of = |s: &RangeStore, key: &Key| -> Vec<u64> {
            let rows = s.scan(key, None).unwrap();
            assert_eq!(&rows[0].0, key);
            rows[0].1.get(b"c").unwrap().versions().map(|v| v.timestamp).collect()
        };
        assert_eq!(chain_of(&s, &k), vec![40, 30, 20]);
        assert!(s.get(&k).unwrap().unwrap().get(b"c").unwrap().older.is_empty());
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
        assert_eq!(chain_of(&s2, &Key::from("j")), vec![6]);
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

        // Split children, a merged store and a store assembled from a
        // clip bounded on both sides all inherit it.
        let at = Key::from("m");
        let (left, right) = split(&s, &at);
        assert_eq!((left.gc_floor(), right.gc_floor()), (25, 25));
        assert_eq!(merge(&left, &right, &at).gc_floor(), 25);
        let (lo, hi) = (Key::from("a"), Key::from("z"));
        let clipped = RangeStore::assemble(s.vfs.clone(), in_dir("clip"), &[(&s, &lo, Some(&hi))]);
        assert_eq!(clipped.unwrap().gc_floor(), 25);
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
        // Partial merges must not drop tombstones: a tombstone compacted
        // into a level above data survives; once it reaches the deepest
        // populated level it goes.
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
        let (left, right) = split(&s, &at);

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
        let (left, right) = split(&s, &at);
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

        // A parent table wholly inside a child's clip is copied as a file:
        // the child holds its exact bytes, at the same level.
        let tables = |st: &RangeStore| -> Vec<(u32, Vec<u8>, Key, Key)> {
            let l0 = st.l0.iter().map(|slot| (0, slot));
            let deeper =
                st.deeper.iter().zip(1u32..).flat_map(|(v, l)| v.iter().map(move |s| (l, s)));
            l0.chain(deeper)
                .map(|(l, slot)| {
                    let (min, max) = (min_key(slot).clone(), max_key(slot).clone());
                    (l, st.vfs.read_all(slot.table.path()).unwrap(), min, max)
                })
                .collect()
        };
        let parent = tables(&s);
        let mut copied = 0;
        for (child, lo, hi) in [(&left, Key::default(), Some(&at)), (&right, at.clone(), None)] {
            let held = tables(child);
            let inside =
                parent.iter().filter(|(_, _, min, max)| *min >= lo && hi.is_none_or(|h| max < h));
            for (level, image, min, _) in inside {
                let twin = held.iter().any(|(l, im, _, _)| l == level && im == image);
                assert!(twin, "the table at level {level} from {min:?} is copied byte for byte");
                copied += 1;
            }
        }
        assert!(copied > 1, "both children copy tables: {copied}");
    }

    #[test]
    fn a_straddled_clip_that_holds_no_key_writes_no_table() {
        let vfs = MemVfs::new();
        let mut s = store_on(&vfs);
        s.apply(&op::put("a", "c", "1"), Lsn::new(1, 1));
        s.apply(&op::put("z", "c", "2"), Lsn::new(1, 2));
        s.flush().unwrap();
        // The one table spans [a, z]; the clip [m, n) falls between its keys.
        let (lo, hi) = (Key::from("m"), Key::from("n"));
        let clip = RangeStore::assemble(s.vfs.clone(), in_dir("clip"), &[(&s, &lo, Some(&hi))]);
        let clip = clip.unwrap();
        assert_eq!((clip.table_count(), clip.memtable_len()), (0, 0));
        assert_eq!(clip.vfs.list("clip/").unwrap(), vec!["clip/MANIFEST".to_string()]);
    }

    /// Overlapping parts break no read: where their tables would overlap
    /// within a level, the later ones are demoted to L0, and the newest
    /// version of each column wins.
    #[test]
    fn overlapping_parts_read_by_version() {
        let vfs = MemVfs::new();
        // Each source ends as one L1 table; the older one starts higher,
        // so a level search for a key both hold would find only it.
        let source = |dir: &str, keys: std::ops::Range<u64>, value: &str, base: u64| {
            let mut s = RangeStore::open(Arc::new(vfs.clone()), in_dir(dir)).unwrap();
            for i in keys {
                s.apply(&op::put(&format!("k{i:02}"), "c", value), Lsn::new(1, base + i));
                s.flush().unwrap();
            }
            s.compact_all().unwrap();
            assert_eq!(s.tables_per_level(), vec![0, 1]);
            s
        };
        let (old, new) = (source("old", 10..30, "old", 0), source("new", 0..20, "new", 100));
        let parts = [(&old, &Key::default(), None), (&new, &Key::default(), None)];
        let both = RangeStore::assemble(Arc::new(vfs.clone()), in_dir("both"), &parts).unwrap();
        assert_eq!(both.tables_per_level(), vec![1, 1], "the overlapping table went to L0");
        for i in 0..30u64 {
            let row = both.get(&Key::from(format!("k{i:02}").as_str())).unwrap().unwrap();
            let want: &[u8] = if i < 20 { b"new" } else { b"old" };
            assert_eq!(row.get_live(b"c").unwrap().value.as_ref(), want, "k{i:02}");
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
        let (mut left, mut right) = split(&s, &Key::from("k20"));
        left.flush().unwrap();
        right.flush().unwrap();

        // Crash: only synced state survives; both children reopen intact.
        let image = vfs.crash_clone();
        let left2 = RangeStore::open(Arc::new(image.clone()), in_dir("left")).unwrap();
        let right2 = RangeStore::open(Arc::new(image), in_dir("right")).unwrap();
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
        let (left, right) = split(&s, &at);
        let merged = merge(&left, &right, &at);
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
        let at = Key::from("k10");
        let (left, right) = split(&s, &at);
        let mut merged = merge(&left, &right, &at);
        merged.flush().unwrap();
        let merged2 = RangeStore::open(Arc::new(vfs.crash_clone()), in_dir("merged")).unwrap();
        for i in 0..20u64 {
            let k = Key::from(format!("k{i:02}").as_str());
            assert_eq!(merged2.get(&k).unwrap(), s.get(&k).unwrap());
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
    fn size_statistics() {
        let vfs = MemVfs::new();
        let mut s = store_on(&vfs);
        assert_eq!(s.approx_total_bytes(), 0);
        for i in 0..40u64 {
            s.apply(&op::put(&format!("k{i:02}"), "c", &"x".repeat(32)), Lsn::new(1, i + 1));
        }
        let mem_only = s.approx_total_bytes();
        assert!(mem_only > 0);
        s.flush().unwrap();
        assert!(s.approx_total_bytes() > 0, "flushed bytes counted via file sizes");
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
