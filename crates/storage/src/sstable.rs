//! SSTables: immutable, sorted, indexed on-disk runs (paper §4.1, after
//! Bigtable's design).
//!
//! Layout:
//!
//! ```text
//! [data block | crc32c]*        entries: (key, row), ~4 KiB per block
//! [index block | crc32c]        (first_key, offset, len) per data block
//! [bloom block | crc32c]        bloom filter over row keys
//! [footer | crc32c]             key range, LSN range, row count, offsets
//! [footer_offset u64][magic u64]  fixed 16-byte trailer
//! ```
//!
//! Every SSTable is tagged with the **min and max LSN** of the writes it
//! contains (§6.1): when a catch-up request cannot be served from the
//! leader's log because it rolled over, the appropriate SSTables are
//! located by LSN range and their rows shipped to the follower.
//!
//! Reads go two ways. Gets, scans and catch-up read a data block through
//! `Table::read_block` — the block cache, or the file, CRC check and an
//! indexing walk into a [`Block`] the cache then keeps — and decode what
//! they return from it ([`TableIter`]). Compaction reads every block of
//! its inputs once, in file order, and keeps none: a
//! `CompactionCursor` reads each chunk into one buffer it reuses, checks
//! it as a block load does, hands out the raw entries, and never touches
//! the cache.

use std::ops::Range;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use spinnaker_common::codec::{self, Decode, Encode, RowScan, Source};
use spinnaker_common::types::DisplayBytes;
use spinnaker_common::vfs::{SharedVfs, VfsFile};
use spinnaker_common::{Error, Key, Lsn, Result, Row, Timestamp};

use crate::block::{Block, SLOT};
use crate::bloom::{Bloom, KeyHash};
use crate::cache::{CacheMetrics, SharedBlockCache};

/// `"SPINSST1"` little-endian.
const MAGIC: u64 = 0x3154_5353_4e49_5053;

/// Ambient context a table is opened under: the node-wide block cache
/// (if any) and the owning store's cache observables. Cloned into every
/// table a store opens, so hits and misses stay attributable per range
/// while the cached bytes are shared node-wide.
#[derive(Clone, Default)]
pub struct TableCtx {
    /// Shared cache of loaded data blocks; `None` = read through.
    pub cache: Option<SharedBlockCache>,
    /// Per-store hit/miss/read counters.
    pub metrics: Arc<CacheMetrics>,
}

impl std::fmt::Debug for TableCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableCtx").field("cached", &self.cache.is_some()).finish()
    }
}

/// Build-time options.
#[derive(Clone, Debug)]
pub struct TableOptions {
    /// Target uncompressed data-block size.
    pub block_bytes: usize,
    /// Bloom filter budget.
    pub bloom_bits_per_key: usize,
}

impl Default for TableOptions {
    fn default() -> TableOptions {
        TableOptions { block_bytes: 4096, bloom_bits_per_key: 10 }
    }
}

/// Summary of a finished table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableMeta {
    /// Smallest row key.
    pub min_key: Key,
    /// Largest row key.
    pub max_key: Key,
    /// Smallest column version (packed LSN) stored.
    pub min_lsn: Lsn,
    /// Largest column version (packed LSN) stored.
    pub max_lsn: Lsn,
    /// Largest commit timestamp stored (over every version chain entry):
    /// the table's contribution to the store's snapshot-read safe point.
    pub max_ts: Timestamp,
    /// Number of rows.
    pub row_count: u64,
    /// File size in bytes.
    pub file_bytes: u64,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct IndexEntry {
    first_key: Key,
    offset: u64,
    len: u32,
}

fn row_lsn_bounds(row: &Row) -> (Lsn, Lsn, Timestamp) {
    let mut lo = Lsn::MAX;
    let mut hi = Lsn::ZERO;
    let mut ts = 0;
    for cv in row.columns.values() {
        for v in cv.versions() {
            let lsn = Lsn::from_u64(v.version);
            lo = lo.min(lsn);
            hi = hi.max(lsn);
            ts = ts.max(v.timestamp);
        }
    }
    (lo, hi, ts)
}

/// Streaming SSTable writer. Keys must be added in strictly ascending
/// order; rows carry their column versions (packed LSNs). Per row it
/// keeps the key's bloom hashes and overwrites one last-key buffer, so
/// what it allocates grows with blocks written, not with rows.
pub struct TableBuilder {
    vfs: SharedVfs,
    path: String,
    opts: TableOptions,
    ctx: TableCtx,
    file: Box<dyn VfsFile>,
    offset: u64,
    block: Vec<u8>,
    block_first_key: Option<Key>,
    index: Vec<IndexEntry>,
    hashes: Vec<KeyHash>,
    /// The largest key so far (meaningful once `row_count > 0`).
    last_key: Vec<u8>,
    min_lsn: Lsn,
    max_lsn: Lsn,
    max_ts: Timestamp,
    row_count: u64,
}

impl TableBuilder {
    /// Start building at `path` (no block cache attached).
    pub fn new(vfs: SharedVfs, path: &str, opts: TableOptions) -> Result<TableBuilder> {
        TableBuilder::new_with(vfs, path, opts, TableCtx::default())
    }

    /// Start building at `path`; the finished table opens under `ctx`.
    pub fn new_with(
        vfs: SharedVfs,
        path: &str,
        opts: TableOptions,
        ctx: TableCtx,
    ) -> Result<TableBuilder> {
        let file = vfs.create(path)?;
        Ok(TableBuilder {
            vfs,
            path: path.to_string(),
            opts,
            ctx,
            file,
            offset: 0,
            block: Vec::new(),
            block_first_key: None,
            index: Vec::new(),
            hashes: Vec::new(),
            last_key: Vec::new(),
            min_lsn: Lsn::MAX,
            max_lsn: Lsn::ZERO,
            max_ts: 0,
            row_count: 0,
        })
    }

    /// Append one row. Empty rows are skipped.
    pub fn add(&mut self, key: &Key, row: &Row) -> Result<()> {
        if row.is_empty() {
            return Ok(());
        }
        self.begin_entry(key.as_bytes())?;
        row.encode(&mut self.block);
        let (lo, hi, ts) = row_lsn_bounds(row);
        self.end_entry(lo, hi, ts)
    }

    /// Append one row already in its encoded form: `row` is exactly the
    /// bytes [`codec::scan_row`] walked to produce `scan`. Writes what
    /// [`TableBuilder::add`] writes for the decoded row.
    pub(crate) fn add_raw(&mut self, key: &[u8], row: &[u8], scan: &RowScan) -> Result<()> {
        self.begin_entry(key)?;
        self.block.extend_from_slice(row);
        self.end_entry(
            Lsn::from_u64(scan.min_version),
            Lsn::from_u64(scan.max_version),
            scan.max_ts,
        )
    }

    /// Check key order, note the key, and write it into the block.
    fn begin_entry(&mut self, key: &[u8]) -> Result<()> {
        if self.row_count > 0 && key <= self.last_key.as_slice() {
            return Err(Error::InvalidArgument(format!(
                "keys out of order: {} after {}",
                DisplayBytes(key),
                DisplayBytes(&self.last_key)
            )));
        }
        if self.block_first_key.is_none() {
            self.block_first_key = Some(Key::from(key));
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.hashes.push(Bloom::hash(key));
        codec::put_bytes(&mut self.block, key);
        Ok(())
    }

    /// Fold the row just written into the table's bounds; seal the block
    /// once it is full.
    fn end_entry(&mut self, lo: Lsn, hi: Lsn, ts: Timestamp) -> Result<()> {
        self.min_lsn = self.min_lsn.min(lo);
        self.max_lsn = self.max_lsn.max(hi);
        self.max_ts = self.max_ts.max(ts);
        self.row_count += 1;
        if self.block.len() >= self.opts.block_bytes {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Seal `chunk` with its masked CRC and append both in one write.
    fn write_chunk(&mut self, chunk: &mut Vec<u8>) -> Result<(u64, u32)> {
        let crc = spinnaker_common::crc32c::masked(spinnaker_common::crc32c::crc32c(chunk));
        codec::put_u32(chunk, crc);
        let len = u32::try_from(chunk.len())
            .map_err(|_| Error::Codec(format!("chunk of {} bytes overflows u32", chunk.len())))?;
        let start = self.offset;
        self.file.append(chunk)?;
        self.offset += u64::from(len);
        Ok((start, len))
    }

    fn flush_block(&mut self) -> Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let Some(first_key) = self.block_first_key.take() else {
            return Err(Error::InvalidArgument("block buffer without a first key".into()));
        };
        // The buffer goes back for the next block to fill.
        let mut body = std::mem::take(&mut self.block);
        let (offset, len) = self.write_chunk(&mut body)?;
        body.clear();
        self.block = body;
        self.index.push(IndexEntry { first_key, offset, len });
        Ok(())
    }

    /// Finish: write index, bloom, footer, trailer; fsync; return the
    /// opened [`Table`].
    pub fn finish(mut self) -> Result<Table> {
        if self.row_count == 0 {
            return Err(Error::InvalidArgument("cannot build an empty SSTable".into()));
        }
        self.flush_block()?;

        let mut index_body = Vec::new();
        codec::put_varint(&mut index_body, self.index.len() as u64);
        for e in &self.index {
            e.first_key.encode(&mut index_body);
            codec::put_u64(&mut index_body, e.offset);
            codec::put_u32(&mut index_body, e.len);
        }
        let (index_off, index_len) = self.write_chunk(&mut index_body)?;

        let bloom = Bloom::from_hashes(
            self.hashes.iter().copied(),
            self.hashes.len(),
            self.opts.bloom_bits_per_key,
        );
        let (bloom_off, bloom_len) = self.write_chunk(&mut bloom.encode_to_vec())?;

        // The first block's first key is the table's smallest.
        let Some(first) = self.index.first() else {
            return Err(Error::InvalidArgument("non-empty table is missing key bounds".into()));
        };
        let mut footer = Vec::new();
        first.first_key.encode(&mut footer);
        codec::put_bytes(&mut footer, &self.last_key);
        self.min_lsn.encode(&mut footer);
        self.max_lsn.encode(&mut footer);
        codec::put_u64(&mut footer, self.max_ts);
        codec::put_u64(&mut footer, self.row_count);
        codec::put_u64(&mut footer, index_off);
        codec::put_u32(&mut footer, index_len);
        codec::put_u64(&mut footer, bloom_off);
        codec::put_u32(&mut footer, bloom_len);
        let (footer_off, _) = self.write_chunk(&mut footer)?;

        let mut trailer = Vec::with_capacity(16);
        codec::put_u64(&mut trailer, footer_off);
        codec::put_u64(&mut trailer, MAGIC);
        self.file.append(&trailer)?;
        self.offset += 16;
        self.file.sync()?;
        drop(self.file);

        Table::open_with(self.vfs, &self.path, self.ctx)
    }
}

/// An open, immutable SSTable.
pub struct Table {
    vfs: SharedVfs,
    path: String,
    /// The one handle every block read goes through, opened with the
    /// table. It outlives the path: a table deleted or renamed under a
    /// live handle is still readable through it, as on a POSIX disk.
    file: Box<dyn VfsFile>,
    meta: TableMeta,
    index: Vec<IndexEntry>,
    bloom: Bloom,
    /// Five quarters of the footer's mean rows per block, plus one: the
    /// entry slots a data block is read with room for, unless its body
    /// asks for more (`spare_slots`).
    slots_per_block: usize,
    ctx: TableCtx,
    /// Cache-unique id, assigned at open when a cache is attached. Ids
    /// are never reused, so stale entries can never alias a new table.
    cache_id: Option<u64>,
}

impl Table {
    /// Open and validate an existing table file (no block cache).
    pub fn open(vfs: SharedVfs, path: &str) -> Result<Table> {
        Table::open_with(vfs, path, TableCtx::default())
    }

    /// Open and validate an existing table file under `ctx`.
    pub fn open_with(vfs: SharedVfs, path: &str, ctx: TableCtx) -> Result<Table> {
        let file = vfs.open(path)?;
        let file_bytes = file.len()?;
        if file_bytes < 16 {
            return Err(Error::Corruption(format!("{path}: too small for a trailer")));
        }
        let mut trailer = [0u8; 16];
        file.read_exact_at(file_bytes - 16, &mut trailer)?;
        let mut cur: &[u8] = &trailer;
        let footer_off = codec::get_u64(&mut cur)?;
        let magic = codec::get_u64(&mut cur)?;
        if magic != MAGIC {
            return Err(Error::Corruption(format!("{path}: bad magic")));
        }
        // A bit-flipped trailer can point the footer anywhere; checked
        // arithmetic turns that into a corruption error instead of an
        // underflow (or a huge read below).
        let footer_len = (file_bytes - 16).checked_sub(footer_off).ok_or_else(|| {
            Error::Corruption(format!("{path}: footer offset {footer_off} past the trailer"))
        })?;
        let footer_len = u32::try_from(footer_len).map_err(|_| {
            Error::Corruption(format!("{path}: implausible footer length {footer_len}"))
        })?;
        // Keys below are views of the chunk they were read in: the footer
        // and the index stay in memory for as long as the table is open,
        // once, instead of once more per key.
        let footer = read_chunk(file.as_ref(), footer_off, footer_len, file_bytes, path)?;
        let mut cur = Source::shared(&footer, &footer);
        let min_key = Key::decode_from(&mut cur)?;
        let max_key = Key::decode_from(&mut cur)?;
        let min_lsn = Lsn::decode_from(&mut cur)?;
        let max_lsn = Lsn::decode_from(&mut cur)?;
        let max_ts = codec::get_u64(&mut cur)?;
        let row_count = codec::get_u64(&mut cur)?;
        let index_off = codec::get_u64(&mut cur)?;
        let index_len = codec::get_u32(&mut cur)?;
        let bloom_off = codec::get_u64(&mut cur)?;
        let bloom_len = codec::get_u32(&mut cur)?;

        let index_body = read_chunk(file.as_ref(), index_off, index_len, file_bytes, path)?;
        let mut cur = Source::shared(&index_body, &index_body);
        // Each entry is at least a key's length byte (the empty key is a
        // legal first key), an 8-byte offset, and a 4-byte length.
        let n = codec::get_varint_len(&mut cur, "sstable index entries", 13)?;
        let mut index = Vec::with_capacity(n);
        for _ in 0..n {
            let first_key = Key::decode_from(&mut cur)?;
            let offset = codec::get_u64(&mut cur)?;
            let len = codec::get_u32(&mut cur)?;
            index.push(IndexEntry { first_key, offset, len });
        }

        let bloom_body = read_chunk(file.as_ref(), bloom_off, bloom_len, file_bytes, path)?;
        let bloom = Bloom::decode(&mut &bloom_body[..])?;

        let blocks = (index.len() as u64).max(1);
        let slots_per_block = usize::try_from(row_count.saturating_mul(5) / (4 * blocks))
            .map_or(usize::MAX, |slots| slots.saturating_add(1));
        let cache_id = ctx.cache.as_ref().map(|c| c.register_table());
        Ok(Table {
            vfs,
            path: path.to_string(),
            file,
            meta: TableMeta { min_key, max_key, min_lsn, max_lsn, max_ts, row_count, file_bytes },
            index,
            bloom,
            slots_per_block,
            ctx,
            cache_id,
        })
    }

    /// Table metadata (key range, LSN range, size).
    pub fn meta(&self) -> &TableMeta {
        &self.meta
    }

    /// File path within the VFS.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Whether `key` falls inside this table's `[min_key, max_key]` span.
    pub fn span_contains(&self, key: &Key) -> bool {
        key >= &self.meta.min_key && key <= &self.meta.max_key
    }

    /// Probe the bloom filter alone (no IO). False positives possible,
    /// false negatives impossible. Callers that track bloom efficacy
    /// pair this with [`Table::fold_visible`].
    pub fn bloom_may_contain(&self, key: &Key) -> bool {
        self.bloom.may_contain(key.as_bytes())
    }

    /// Point lookup: what the stored fragment of `key`'s row shows at
    /// `ts` — per column the newest version with `timestamp <= ts` —
    /// folded into `into` ([`Row::admits`]); `false` when the table does
    /// not hold the key. No span/bloom pre-checks — the store does them
    /// itself so it can count skips and bloom true/false positives. A
    /// fragment's whole version chains are what [`Table::iter_from`]
    /// yields.
    pub fn fold_visible(&self, key: &Key, ts: Timestamp, into: &mut Row) -> Result<bool> {
        match self.block_of(key)? {
            Some(block) => block.fold_visible(key.as_bytes(), ts, into),
            None => Ok(false),
        }
    }

    /// The one block that can hold `key`: the last whose first key is
    /// `<= key`.
    fn block_of(&self, key: &Key) -> Result<Option<Block>> {
        match self.index.partition_point(|e| e.first_key <= *key) {
            0 => Ok(None),
            n => self.read_block(n - 1).map(Some),
        }
    }

    /// Read (or fetch from the block cache) the data block at index
    /// position `idx`: checksum-verified and indexed, no row decoded.
    /// The chunk is read with room after it for its entries' offsets, so
    /// a block is one allocation (two when it has more entries than
    /// `spare_slots` made room for) — none when the cache has a spare
    /// buffer that fits, one an evicted block left behind.
    fn read_block(&self, idx: usize) -> Result<Block> {
        let e = &self.index[idx];
        if let (Some(cache), Some(id)) = (self.ctx.cache.as_ref(), self.cache_id) {
            if let Some(block) = cache.get(id, e.offset) {
                self.ctx.metrics.hit();
                return Ok(block);
            }
            self.ctx.metrics.miss();
        }
        self.ctx.metrics.block_read();
        let chunk_len = chunk_len(e.offset, e.len, self.meta.file_bytes, &self.path)?;
        let body_len = chunk_len - 4;
        let len = chunk_len + self.spare_slots(body_len) * SLOT;
        let recycled = match (self.ctx.cache.as_ref(), self.cache_id) {
            (Some(cache), Some(id)) => cache.spare(id, len),
            _ => None,
        };
        let mut buf = recycled.unwrap_or_else(|| BytesMut::zeroed(len));
        read_verified_into(self.file.as_ref(), e.offset, &mut buf[..chunk_len], &self.path)?;
        // The checksum held, so a body that does not parse was written
        // wrong or forged: corruption all the same, not a codec error.
        let block = Block::load(buf, body_len, chunk_len).map_err(|err| {
            Error::Corruption(format!("{}: malformed block at {}: {err}", self.path, e.offset))
        })?;
        if let (Some(cache), Some(id)) = (self.ctx.cache.as_ref(), self.cache_id) {
            // Charge the on-disk chunk size: it is what a miss costs.
            cache.insert(id, e.offset, block.clone(), u64::from(e.len));
        }
        Ok(block)
    }

    /// Entry slots the read buffer of a block with a `body_len`-byte
    /// body leaves room for: one per 64 body bytes or `slots_per_block`,
    /// whichever is more. An entry takes two bytes at the least, so a
    /// footer row count that is off cannot ask for more than the body
    /// could hold.
    fn spare_slots(&self, body_len: usize) -> usize {
        self.slots_per_block.max(body_len / 64).min(body_len / 2)
    }

    /// A [`CompactionCursor`] on the table's first entry.
    pub(crate) fn compaction_cursor(&self) -> Result<CompactionCursor<'_>> {
        let mut cursor = CompactionCursor {
            table: self,
            next_block: 0,
            buf: Vec::new(),
            body_len: 0,
            block_offset: 0,
            at: 0,
            entry: None,
        };
        cursor.advance()?;
        Ok(cursor)
    }

    /// Iterate every row in key order.
    pub fn iter(&self) -> TableIter<'_> {
        TableIter { table: self, next_block: 0, block: None, pos: 0 }
    }

    /// Iterate rows in key order starting at the first key `>= start`,
    /// **seeking** via the block index: only the block containing `start`
    /// and those after it are ever read. This is what keeps a
    /// scan page's cost proportional to the page, not to the table prefix
    /// before the cursor.
    pub fn iter_from(&self, start: &Key) -> TableIter<'_> {
        // First candidate block: the last one whose first key <= start
        // (an earlier block cannot contain keys >= start... its keys are
        // all < its successor's first key <= start — except the block
        // *at* the partition point, which may straddle `start`).
        let block = match self.index.partition_point(|e| e.first_key <= *start) {
            0 => 0,
            n => n - 1,
        };
        let mut it = TableIter { table: self, next_block: block, block: None, pos: 0 };
        // Skip the entries below `start` inside the candidate block;
        // later blocks begin at or after `start` by construction, so one
        // positioning suffices. On a read error the iterator is left
        // before the block, so the first `next()` surfaces the corruption.
        if it.load().is_ok() {
            it.pos = it.block.as_ref().map_or(0, |b| b.lower_bound(start.as_bytes()));
        }
        it
    }

    /// Collect rows within `[start, end)` (end `None` = unbounded).
    pub fn scan(&self, start: &Key, end: Option<&Key>) -> Result<Vec<(Key, Row)>> {
        let mut out = Vec::new();
        for item in self.iter_from(start) {
            let (k, row) = item?;
            if let Some(end) = end {
                if &k >= end {
                    break;
                }
            }
            out.push((k, row));
        }
        Ok(out)
    }

    /// Delete the backing file, evicting any cached blocks first so a
    /// retired table's data can never be served again.
    pub fn delete(self) -> Result<()> {
        if let (Some(cache), Some(id)) = (self.ctx.cache.as_ref(), self.cache_id) {
            cache.evict_table(id);
        }
        self.vfs.delete(&self.path)
    }

    /// The id this table is registered under in the block cache
    /// (`None` when opened without a cache). Test/debug introspection.
    pub fn cache_id(&self) -> Option<u64> {
        self.cache_id
    }
}

/// The length of the `len`-byte chunk at `offset`, once it is known to
/// lie inside the `file_bytes`-long file and to hold its checksum: what
/// bounds a buffer sized by a length that may come from a corrupt footer
/// or index.
fn chunk_len(offset: u64, len: u32, file_bytes: u64, path: &str) -> Result<usize> {
    if len < 4 {
        return Err(Error::Corruption(format!("{path}: chunk shorter than its checksum")));
    }
    if u64::from(len) > file_bytes || offset > file_bytes - u64::from(len) {
        return Err(Error::Corruption(format!(
            "{path}: chunk [{offset}, +{len}) outside the {file_bytes}-byte file"
        )));
    }
    Ok(codec::usize_from(len))
}

/// Read the chunk at `offset` into `chunk`, which is as long as the
/// chunk ([`chunk_len`]), and verify its checksum.
fn read_verified_into(file: &dyn VfsFile, offset: u64, chunk: &mut [u8], path: &str) -> Result<()> {
    file.read_exact_at(offset, chunk)?;
    let (body, stored) = chunk.split_at(chunk.len() - 4);
    let actual = spinnaker_common::crc32c::masked(spinnaker_common::crc32c::crc32c(body));
    if stored != actual.to_le_bytes() {
        return Err(Error::Corruption(format!("{path}: chunk checksum mismatch at {offset}")));
    }
    Ok(())
}

/// Read the `len`-byte chunk at `offset` and return its body, checksum
/// verified and stripped: a view of the buffer the file was read into.
fn read_chunk(
    file: &dyn VfsFile,
    offset: u64,
    len: u32,
    file_bytes: u64,
    path: &str,
) -> Result<Bytes> {
    let len = chunk_len(offset, len, file_bytes, path)?;
    let mut buf = BytesMut::zeroed(len);
    read_verified_into(file, offset, &mut buf, path)?;
    Ok(buf.freeze().slice(..len - 4))
}

/// A table's entries in key order, one block held at a time (so its
/// memory footprint is one block, regardless of table size). Blocks come
/// through the same `read_block` as every other read. It decodes each row
/// once, as it is yielded, and loads the next block only when asked for
/// an entry past the current one — a page that ends on a block's last
/// row never reads the block after it. What scans and catch-up reads
/// walk; compaction walks a `CompactionCursor`.
pub struct TableIter<'a> {
    table: &'a Table,
    /// Index position of the next block to load.
    next_block: usize,
    /// The block under the cursor; `None` before the first load and once
    /// the table is exhausted.
    block: Option<Block>,
    pos: usize,
}

impl TableIter<'_> {
    /// Load blocks until one has an entry under the cursor (or none is
    /// left).
    fn load(&mut self) -> Result<()> {
        while self.block.as_ref().is_none_or(|b| self.pos >= b.len()) {
            if self.next_block >= self.table.index.len() {
                self.block = None;
                return Ok(());
            }
            self.block = Some(self.table.read_block(self.next_block)?);
            self.next_block += 1;
            self.pos = 0;
        }
        Ok(())
    }
}

impl Iterator for TableIter<'_> {
    type Item = Result<(Key, Row)>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Err(e) = self.load() {
            // Yielded once; the iteration ends here.
            self.next_block = self.table.index.len();
            return Some(Err(e));
        }
        let item = self.block.as_ref()?.entry(self.pos)?;
        self.pos += 1;
        Some(item)
    }
}

/// A table's entries in file order, as stored, for compaction alone.
///
/// Each data block is read through the table's own file handle into one
/// buffer the cursor keeps (it only grows, to the largest block met), its
/// checksum verified, and its entries walked with [`codec::scan_row`] as
/// the cursor reaches them — what `Block::load` validates, the canonical
/// row order included, and a body that fails it is `Error::Corruption`.
/// No [`Block`] is built, no entry offsets are written, and the block
/// cache is neither looked up nor filled: a merge counts no hit, miss or
/// block read against its store, and the blocks of tables it is about to
/// retire never displace hot ones.
pub(crate) struct CompactionCursor<'a> {
    table: &'a Table,
    /// Index position of the next block to read.
    next_block: usize,
    /// The block being walked — its chunk, body then checksum — at the
    /// front of the reused buffer.
    buf: Vec<u8>,
    body_len: usize,
    /// File offset of the block being walked, for error messages.
    block_offset: u64,
    /// Offset in the body of the entry after the current one.
    at: usize,
    /// The entry under the cursor; `None` past the last.
    entry: Option<CursorEntry>,
}

/// Where a [`CompactionCursor`]'s entry lies in its buffer, and what
/// scanning its row found.
struct CursorEntry {
    key: Range<usize>,
    row: Range<usize>,
    scan: RowScan,
}

impl CompactionCursor<'_> {
    /// The entry under the cursor — its key, its encoded row (exactly:
    /// the row's end was found by the scan) and the scan — or `None` past
    /// the last entry.
    pub(crate) fn entry(&self) -> Option<(&[u8], &[u8], &RowScan)> {
        let entry = self.entry.as_ref()?;
        Some((&self.buf[entry.key.clone()], &self.buf[entry.row.clone()], &entry.scan))
    }

    /// Step to the next entry, reading blocks until one has it (or none
    /// is left).
    pub(crate) fn advance(&mut self) -> Result<()> {
        while self.at >= self.body_len {
            let Some(e) = self.table.index.get(self.next_block) else {
                self.entry = None;
                return Ok(());
            };
            let t = self.table;
            let len = chunk_len(e.offset, e.len, t.meta.file_bytes, &t.path)?;
            if self.buf.len() < len {
                self.buf.resize(len, 0);
            }
            read_verified_into(t.file.as_ref(), e.offset, &mut self.buf[..len], &t.path)?;
            self.next_block += 1;
            self.body_len = len - 4;
            self.block_offset = e.offset;
            self.at = 0;
        }
        let body = &self.buf[..self.body_len];
        let mut rest = &body[self.at..];
        let mut scan_entry = || -> Result<_> {
            let key_len = codec::get_byte_slice(&mut rest)?.len();
            let row = body.len() - rest.len();
            let scan = codec::scan_row(&mut rest)?;
            let end = body.len() - rest.len();
            Ok(CursorEntry { key: row - key_len..row, row: row..end, scan })
        };
        // The checksum held, so a body that does not parse was written
        // wrong or forged: corruption, as `Table::read_block` says.
        let entry = scan_entry().map_err(|err| {
            let (path, offset) = (&self.table.path, self.block_offset);
            Error::Corruption(format!("{path}: malformed block at {offset}: {err}"))
        })?;
        self.at = entry.row.end;
        self.entry = Some(entry);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use spinnaker_common::vfs::MemVfs;
    use spinnaker_common::{op, ColumnValue, WriteOp};

    use super::*;

    fn build(n: usize) -> (MemVfs, Table) {
        let vfs = MemVfs::new();
        let shared: SharedVfs = Arc::new(vfs.clone());
        let mut b = TableBuilder::new(shared, "sst/t1", TableOptions::default()).unwrap();
        for i in 0..n {
            let key = Key::from(format!("key{i:06}").into_bytes());
            let mut row = Row::new();
            op::put("x", "c", &format!("value-{i}"))
                .apply_to_row(&mut row, Lsn::new(1, i as u64 + 1));
            b.add(&key, &row).unwrap();
        }
        let t = b.finish().unwrap();
        (vfs, t)
    }

    /// What `t` shows of `key` at the latest timestamp; `None` when it
    /// holds no such key.
    fn latest(t: &Table, key: &Key) -> Option<Row> {
        let mut row = Row::new();
        t.fold_visible(key, Timestamp::MAX, &mut row).unwrap().then_some(row)
    }

    #[test]
    fn point_lookups_hit_and_miss() {
        let (_vfs, t) = build(1000);
        for i in [0usize, 1, 499, 998, 999] {
            let key = Key::from(format!("key{i:06}").into_bytes());
            let row = latest(&t, &key).unwrap();
            assert_eq!(row.get_live(b"c").unwrap().value.as_ref(), format!("value-{i}").as_bytes());
        }
        assert!(latest(&t, &Key::from("absent")).is_none());
        assert!(latest(&t, &Key::from("key9999999")).is_none());
        assert!(latest(&t, &Key::from("")).is_none());
    }

    #[test]
    fn meta_records_key_and_lsn_ranges() {
        let (_vfs, t) = build(100);
        let m = t.meta();
        assert_eq!(m.min_key, Key::from("key000000"));
        assert_eq!(m.max_key, Key::from("key000099"));
        assert_eq!(m.min_lsn, Lsn::new(1, 1));
        assert_eq!(m.max_lsn, Lsn::new(1, 100));
        assert_eq!(m.row_count, 100);
    }

    #[test]
    fn iter_returns_all_rows_in_order() {
        let (_vfs, t) = build(500);
        let rows: Vec<_> = t.iter().map(|r| r.unwrap()).collect();
        assert_eq!(rows.len(), 500);
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn iter_from_seeks_to_the_cursor() {
        let (_vfs, t) = build(1000);
        // Mid-table seek: first yielded key is exactly the cursor.
        let rows: Vec<_> = t.iter_from(&Key::from("key000500")).map(|r| r.unwrap()).collect();
        assert_eq!(rows.len(), 500);
        assert_eq!(rows[0].0, Key::from("key000500"));
        // A cursor between keys lands on the next one.
        let rows: Vec<_> = t.iter_from(&Key::from("key000500a")).map(|r| r.unwrap()).collect();
        assert_eq!(rows[0].0, Key::from("key000501"));
        // Before the table: everything; past the end: nothing.
        assert_eq!(t.iter_from(&Key::from("a")).count(), 1000);
        assert_eq!(t.iter_from(&Key::from("z")).count(), 0);
        // Equivalent to filtering the full iterator, for every block edge.
        for i in [0usize, 1, 37, 499, 998, 999] {
            let start = Key::from(format!("key{i:06}").into_bytes());
            let seeked: Vec<_> = t.iter_from(&start).map(|r| r.unwrap().0).collect();
            let filtered: Vec<_> = t.iter().map(|r| r.unwrap().0).filter(|k| k >= &start).collect();
            assert_eq!(seeked, filtered, "seek at {i}");
        }
    }

    #[test]
    fn meta_records_max_commit_timestamp() {
        let vfs: SharedVfs = Arc::new(MemVfs::new());
        let mut b = TableBuilder::new(vfs, "sst/ts", TableOptions::default()).unwrap();
        for (i, ts) in [(1u64, 50u64), (2, 90), (3, 70)] {
            let key = Key::from(format!("k{i}").as_str());
            let mut row = Row::new();
            spinnaker_common::WriteOp::put(
                key.clone(),
                bytes::Bytes::from_static(b"c"),
                bytes::Bytes::from_static(b"v"),
                ts,
            )
            .apply_to_row(&mut row, Lsn::new(1, i));
            b.add(&key, &row).unwrap();
        }
        let t = b.finish().unwrap();
        assert_eq!(t.meta().max_ts, 90, "footer records the highest commit timestamp");
    }

    #[test]
    fn scan_respects_bounds() {
        let (_vfs, t) = build(100);
        let got = t.scan(&Key::from("key000010"), Some(&Key::from("key000013"))).unwrap();
        let keys: Vec<_> = got.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(
            keys,
            vec![Key::from("key000010"), Key::from("key000011"), Key::from("key000012")]
        );
    }

    #[test]
    fn out_of_order_keys_rejected() {
        let vfs: SharedVfs = Arc::new(MemVfs::new());
        let mut b = TableBuilder::new(vfs, "sst/bad", TableOptions::default()).unwrap();
        let mut row = Row::new();
        row.set(bytes::Bytes::from_static(b"c"), ColumnValue::live("v".into(), Lsn::new(1, 1), 0));
        b.add(&Key::from("b"), &row).unwrap();
        assert!(b.add(&Key::from("a"), &row).is_err());
        assert!(b.add(&Key::from("b"), &row).is_err(), "duplicates rejected too");
    }

    #[test]
    fn empty_table_rejected() {
        let vfs: SharedVfs = Arc::new(MemVfs::new());
        let b = TableBuilder::new(vfs, "sst/empty", TableOptions::default()).unwrap();
        assert!(b.finish().is_err());
    }

    #[test]
    fn corruption_detected_on_open_and_read() {
        let (vfs, t) = build(200);
        let path = t.path().to_string();
        drop(t);
        // Flip a byte in the middle of the file (some data block).
        let data = vfs.read_all(&path).unwrap();
        use spinnaker_common::vfs::Vfs;
        let mut f = vfs.create(&path).unwrap();
        let mut corrupted = data.clone();
        corrupted[data.len() / 3] ^= 0xff;
        f.append(&corrupted).unwrap();
        f.sync().unwrap();
        let shared: SharedVfs = Arc::new(vfs.clone());
        // Open may succeed (footer intact) but reads must detect corruption.
        match Table::open(shared, &path) {
            Ok(t) => {
                let err = t.iter().collect::<Result<Vec<_>>>();
                assert!(err.is_err(), "corrupted block must fail the scan");
            }
            Err(e) => assert!(e.is_corruption()),
        }
    }

    #[test]
    fn survives_crash_after_finish() {
        let (vfs, t) = build(50);
        let path = t.path().to_string();
        drop(t);
        let after = vfs.crash_clone();
        let t = Table::open(Arc::new(after), &path).unwrap();
        assert_eq!(t.meta().row_count, 50);
    }

    #[test]
    fn delete_and_crash_clone_under_a_live_handle() {
        use spinnaker_common::vfs::Vfs;
        let (vfs, t) = build(200);
        let path = t.path().to_string();
        let shared: SharedVfs = Arc::new(vfs.clone());
        let first = Key::from("key000000");
        // The handle has served a read: it is live.
        assert!(latest(&t, &first).is_some());

        // A crash image taken under the open table holds the whole
        // (synced) file and opens on its own; the table goes on reading
        // its file, whatever happens to the image.
        let image = vfs.crash_clone();
        let reopened = Table::open(Arc::new(image.clone()), &path).unwrap();
        assert_eq!(reopened.meta(), t.meta());
        reopened.delete().unwrap();
        assert!(!image.exists(&path).unwrap());
        assert_eq!(t.iter().count(), 200);

        // A second handle on the same file, then the first table is
        // deleted: the path is gone for good, and — as on a disk — the
        // handle still open reads what it opened.
        let other = Table::open(shared.clone(), &path).unwrap();
        t.delete().unwrap();
        assert!(!vfs.exists(&path).unwrap());
        assert!(Table::open(shared, &path).is_err());
        assert!(latest(&other, &first).is_some());
        assert!(other.delete().is_err(), "nothing left to delete");
    }

    /// Row `i` of a table of very uneven rows: 1 KiB values, four to a
    /// block, then a run of 1-byte values, a hundred and more to a block.
    fn uneven_put(i: u64) -> WriteOp {
        let len = if i < 400 { 1024 } else { 1 };
        op::put(&format!("key{i:06}"), "c", &"v".repeat(len))
    }

    /// Blocks of `t` with more entries than their read left room for.
    fn overflowed(t: &Table) -> usize {
        (0..t.index.len())
            .filter(|&i| {
                let body_len = t.index[i].len as usize - 4;
                t.read_block(i).unwrap().len() > t.spare_slots(body_len)
            })
            .count()
    }

    #[test]
    fn a_block_with_more_entries_than_its_spare_reads_like_any_other() {
        const ROWS: u64 = 600;
        let rows: Vec<(Key, Row)> = (0..ROWS)
            .map(|i| {
                let put = uneven_put(i);
                let mut row = Row::new();
                put.apply_to_row(&mut row, Lsn::new(1, i + 1));
                (put.key, row)
            })
            .collect();
        // The same rows in 4 KiB blocks, and one to a block.
        let table = |path: &str, block_bytes: usize| {
            let vfs: SharedVfs = Arc::new(MemVfs::new());
            let opts = TableOptions { block_bytes, ..TableOptions::default() };
            let ctx = TableCtx {
                cache: Some(Arc::new(crate::BlockCache::new(1 << 20))),
                ..TableCtx::default()
            };
            let mut b = TableBuilder::new_with(vfs, path, opts, ctx).unwrap();
            for (key, row) in &rows {
                b.add(key, row).unwrap();
            }
            b.finish().unwrap()
        };
        let uneven = table("sst/uneven", 4096);
        let even = table("sst/even", 1);
        assert!(overflowed(&uneven) > 0, "no block outgrew its spare room");
        assert_eq!(overflowed(&even), 0);

        for t in [&uneven, &even] {
            for (i, (key, row)) in rows.iter().enumerate() {
                assert_eq!(latest(t, key).as_ref(), Some(row), "fold_visible({key:?})");
                let from: Vec<_> = t.iter_from(key).take(3).map(|r| r.unwrap()).collect();
                assert_eq!(from, rows[i..(i + 3).min(rows.len())], "iter_from({key:?})");
            }
            assert!(latest(t, &Key::from("key000450a")).is_none());
            assert_eq!(t.iter_from(&Key::from("key000450a")).count(), 149);
            let (lo, hi) = (&rows[390].0, &rows[520].0);
            assert_eq!(t.scan(lo, Some(hi)).unwrap(), rows[390..520]);
            assert_eq!(t.scan(&Key::from(""), None).unwrap(), rows);
        }

        // Compaction moves the rows of an overflowed block like any other:
        // two flushes — the uneven rows, then a newer version of every
        // tenth — merged into one table, in 4 KiB blocks and one to a block.
        let compacted = |block_bytes: usize| {
            let mut newer = rows.clone();
            let table = TableOptions { block_bytes, ..TableOptions::default() };
            let opts = crate::StoreOptions {
                memtable_flush_bytes: usize::MAX,
                table,
                ..Default::default()
            };
            let mut store = crate::RangeStore::open(Arc::new(MemVfs::new()), opts).unwrap();
            for i in 0..ROWS {
                store.apply(&uneven_put(i), Lsn::new(1, i + 1));
            }
            store.flush().unwrap();
            let overflowed = store.all_slots().map(|s| overflowed(&s.table)).sum::<usize>();
            for i in (0..ROWS).step_by(10) {
                let put = op::put(&format!("key{i:06}"), "c", &format!("new-{i}"));
                store.apply(&put, Lsn::new(2, i + 1));
                put.apply_to_row(&mut newer[i as usize].1, Lsn::new(2, i + 1));
            }
            store.flush().unwrap();
            assert_eq!(store.scan(&Key::from(""), None).unwrap(), newer);
            store.compact_all().unwrap();
            assert_eq!(store.table_count(), 1);
            (overflowed, store.scan(&Key::from(""), None).unwrap())
        };
        let (uneven_overflowed, uneven_rows) = compacted(4096);
        let (even_overflowed, even_rows) = compacted(1);
        assert!(uneven_overflowed > 0 && even_overflowed == 0);
        assert_eq!(uneven_rows, even_rows);
        assert_eq!(uneven_rows.len(), rows.len());
    }

    #[test]
    fn single_row_table() {
        let vfs: SharedVfs = Arc::new(MemVfs::new());
        let mut b = TableBuilder::new(vfs, "sst/one", TableOptions::default()).unwrap();
        let mut row = Row::new();
        op::put("x", "c", "v").apply_to_row(&mut row, Lsn::new(2, 7));
        b.add(&Key::from("only"), &row).unwrap();
        let t = b.finish().unwrap();
        assert_eq!(t.meta().min_lsn, Lsn::new(2, 7));
        assert_eq!(t.meta().max_lsn, Lsn::new(2, 7));
        let only = Key::from("only");
        assert_eq!(t.iter_from(&only).next().unwrap().unwrap(), (only.clone(), row.clone()));
        assert_eq!(latest(&t, &only).unwrap(), row);
    }
}
