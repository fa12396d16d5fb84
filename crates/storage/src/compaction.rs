//! Compaction: when tables are merged, which ones, and how the output is
//! written (paper §4.1: "in the background, smaller SSTables are merged
//! into larger ones").
//!
//! *When and what* is [`RangeStore::maybe_compact`]: L0 at its fan-in
//! merges into L1, else the shallowest level over its capacity sends one
//! table a level down. *How* is [`merge_into`] feeding a [`RunWriter`]: a
//! streaming merge over the inputs' raw entries, read in file order by
//! [`CompactionCursor`]s outside the block cache, that decodes no row. It
//! moves unchanged rows as bytes, and merges the others in their encoded
//! form with [`RowMerge`] — versions pruned at the MVCC GC floor,
//! tombstones dropped at the bottom of the ladder. Flushed and adopted
//! tables go through the same writer, so every table of a level gets that
//! level's bloom budget.

use std::collections::BinaryHeap;
use std::sync::atomic::Ordering;

use spinnaker_common::codec::{RowMerge, RowScan};
use spinnaker_common::vfs::SharedVfs;
use spinnaker_common::{Key, Result, Row, Timestamp};

use crate::manifest::{max_key, min_key, sort_level, table_path, Slot};
use crate::sstable::{CompactionCursor, Table, TableBuilder, TableCtx, TableOptions};
use crate::store::RangeStore;

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
                &table_path(self.dir, id),
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
            let _ = self.vfs.delete(&table_path(self.dir, id));
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
    cursor: CompactionCursor<'a>,
    input: usize,
}

impl MergeSource<'_> {
    fn key(&self) -> &[u8] {
        // Only cursors parked on an entry are ever in the heap.
        self.cursor.entry().map_or(&[], |(key, _, _)| key)
    }
}

/// The encoded row under the cursor: a fragment for [`RowMerge`].
impl AsRef<[u8]> for MergeSource<'_> {
    fn as_ref(&self) -> &[u8] {
        self.cursor.entry().map_or(&[], |(_, row, _)| row)
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

/// The compaction merge: a streaming k-way merge of `inputs`' entries
/// into `out`, in key order, no row of which is ever decoded.
///
/// Each input is read by a [`CompactionCursor`] (file order, one reused
/// buffer, outside the block cache). A key stored in exactly one input
/// whose row is *plain* ([`RowScan::plain`]: no tombstone, no version
/// chain) is **moved as bytes** — pruning could not change such a row
/// and re-encoding it would reproduce it, so neither happens; its
/// LSN/timestamp bounds and size come from the cursor's scan. Every other
/// key's fragments, in input order, go through [`RowMerge`]: their
/// versions merged newest first (the lower input's of an equal version
/// kept), superseded versions at or below the snapshot `floor` dropped
/// (the newest at-or-below survives for floor-pinned readers), tombstones
/// below the floor dropped only when `drop_tombstones` says the output is
/// the deepest populated level, where nothing older survives to
/// resurrect — written into one reused buffer and appended from it. The
/// files written are, byte for byte, those of decoding everything
/// (`tests/compaction_raw.rs` holds the reference).
fn merge_into(
    inputs: &[&Table],
    floor: Timestamp,
    drop_tombstones: bool,
    out: &mut RunWriter<'_>,
) -> Result<()> {
    let mut heap = BinaryHeap::with_capacity(inputs.len());
    for (input, table) in inputs.iter().enumerate() {
        park(&mut heap, MergeSource { cursor: table.compaction_cursor()?, input });
    }
    let mut group: Vec<MergeSource<'_>> = Vec::with_capacity(inputs.len());
    let mut merge = RowMerge::new();
    while let Some(mut head) = heap.pop() {
        let alone = heap.peek().is_none_or(|next| next.key() != head.key());
        if alone && head.cursor.entry().is_some_and(|(_, _, scan)| scan.plain) {
            if let Some((key, row, scan)) = head.cursor.entry() {
                out.add_raw(key, row, scan)?;
            }
            head.cursor.advance()?;
            park(&mut heap, head);
            continue;
        }
        group.push(head);
        while heap.peek().is_some_and(|next| next.key() == group[0].key()) {
            group.extend(heap.pop());
        }
        if let Some(scan) = merge.merge(&group, floor, drop_tombstones)? {
            out.add_raw(group[0].key(), merge.row(), &scan)?;
        }
        for mut source in group.drain(..) {
            source.cursor.advance()?;
            park(&mut heap, source);
        }
    }
    Ok(())
}

/// Put a source back into the merge heap unless its table is exhausted.
fn park<'a>(heap: &mut BinaryHeap<MergeSource<'a>>, source: MergeSource<'a>) {
    if source.cursor.entry().is_some() {
        heap.push(source);
    }
}

/// Extra bloom bits per key granted per level of depth: deeper levels
/// hold more data and absorb more probes, so their filters get tighter
/// false-positive budgets.
const BLOOM_BITS_STEP_PER_LEVEL: usize = 2;

/// Upper bound on the per-level bloom budget.
const BLOOM_BITS_MAX: usize = 16;

impl RangeStore {
    /// Bloom/block options for a table written at `level`: deeper levels
    /// get progressively tighter false-positive budgets.
    fn table_opts(&self, level: u32) -> TableOptions {
        let mut t = self.opts.table.clone();
        let ceiling = BLOOM_BITS_MAX.max(t.bloom_bits_per_key);
        let extra = (level as usize).saturating_mul(BLOOM_BITS_STEP_PER_LEVEL);
        t.bloom_bits_per_key = t.bloom_bits_per_key.saturating_add(extra).min(ceiling);
        t
    }

    /// Target size of the tables of a sorted run.
    fn run_target(&self) -> usize {
        usize::try_from(self.opts.level_table_target_bytes).unwrap_or(usize::MAX).max(1)
    }

    /// Build SSTables from already-sorted rows and adopt them at `level`:
    /// L0 gets a single table, deeper levels a run of target-sized ones
    /// (non-overlapping by construction, the input being key-ordered).
    pub(crate) fn adopt_rows(&mut self, rows: &[(Key, Row)], level: u32) -> Result<()> {
        let target = if level == 0 { usize::MAX } else { self.run_target() };
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
        for slot in writer.finish()? {
            self.place(slot, level);
        }
        Ok(())
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
    /// When L0 has accumulated `compaction_fanin` tables, all of L0 plus
    /// every overlapping L1 table merges into L1; otherwise the
    /// shallowest over-capacity level contributes one table (round-robin
    /// through its key space) plus the overlapping next-level tables.
    pub fn maybe_compact(&mut self) -> Result<bool> {
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
        let out_deeper = self.deeper.iter().rposition(|l| !l.is_empty()).unwrap_or(0);
        let input_ids = self.all_slots().map(|s| s.id).collect();
        self.run_compaction(CompactionPlan { input_ids, out_deeper, drop_tombstones: true })
    }
}
