//! A loaded SSTable data block: the CRC-verified raw body and the
//! offsets of its entries.
//!
//! A block is `(key, row)*` in key order, each key a length-prefixed byte
//! string and each row in the [`spinnaker_common::codec`] encoding.
//! Loading a block walks the body once with `codec::skip_row` — no
//! allocation per entry, every length and flag validated — and records
//! where each key and row starts. Lookups then compare keys in place; a
//! block nobody reads a row from is never decoded at all. A point read
//! decodes no row: it takes each column's version visible at its
//! timestamp out of the encoded row (`Block::fold_visible`), whatever the
//! length of the chains around it. Iteration decodes each row as it is
//! yielded (`Block::entry`). Compaction reads entries as stored
//! (`Block::raw_entry`) and moves the rows it need not change as bytes.
//!
//! The body is a [`Bytes`], and a decoded key, column name or value is a
//! view of it: decoding a row allocates a vector per version chain, and
//! one for its columns when it has two or more (one column is held inline
//! in the row), and bumps the body's reference count per cell, whatever
//! the cells' sizes. A row handed out keeps the body alive — past its
//! eviction from the cache, if it comes to that — until the row is
//! dropped.

use bytes::Bytes;
use spinnaker_common::codec::{self, Decode, Source};
use spinnaker_common::{Error, Key, Result, Row, Timestamp};

/// Where one entry sits in the body: its key is `body[key..row]`, its
/// encoded row starts at `row`.
#[derive(Clone, Copy)]
struct Entry {
    key: u32,
    row: u32,
}

/// One data block, as cached and as read.
pub struct Block {
    body: Bytes,
    entries: Vec<Entry>,
}

impl Block {
    /// Index `body` (already checksum-verified). A body that is not a
    /// well-formed run of entries is a typed error, so every offset
    /// recorded here is in bounds and every row decodes.
    pub(crate) fn parse(body: Bytes) -> Result<Block> {
        let offset = |n: usize| {
            u32::try_from(n).map_err(|_| Error::Codec(format!("block offset {n} overflows u32")))
        };
        // Sized for rows of 64 encoded bytes or more (the common case:
        // one allocation); smaller rows grow it.
        let mut entries = Vec::with_capacity(body.len() / 64 + 1);
        let mut cur: &[u8] = &body;
        while !cur.is_empty() {
            let key_len = codec::get_byte_slice(&mut cur)?.len();
            let row = body.len() - cur.len();
            entries.push(Entry { key: offset(row - key_len)?, row: offset(row)? });
            codec::skip_row(&mut cur)?;
        }
        Ok(Block { body, entries })
    }

    fn key_at(&self, e: Entry) -> &[u8] {
        &self.body[e.key as usize..e.row as usize]
    }

    /// Position of the first entry whose key is `>= key`.
    pub(crate) fn lower_bound(&self, key: &[u8]) -> usize {
        self.entries.partition_point(|&e| self.key_at(e) < key)
    }

    /// The entry stored under exactly `key`.
    fn find(&self, key: &[u8]) -> Option<Entry> {
        let e = *self.entries.get(self.lower_bound(key))?;
        (self.key_at(e) == key).then_some(e)
    }

    /// What the row stored under exactly `key` shows at `ts`, folded into
    /// `into` ([`codec::fold_visible`]); `false` when the block has no
    /// such key. No row is decoded and no chain built.
    pub(crate) fn fold_visible(&self, key: &[u8], ts: Timestamp, into: &mut Row) -> Result<bool> {
        let Some(e) = self.find(key) else { return Ok(false) };
        let mut src = Source::shared(&self.body, &self.body[e.row as usize..]);
        codec::fold_visible(&mut src, ts, into).map(|()| true)
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The entry at `pos` as stored: its key, and the body from the start
    /// of its encoded row on (the row's own encoding says where it ends;
    /// `codec::scan_row` finds out). What compaction moves.
    pub(crate) fn raw_entry(&self, pos: usize) -> Option<(&[u8], &[u8])> {
        let e = *self.entries.get(pos)?;
        Some((self.key_at(e), &self.body[e.row as usize..]))
    }

    /// The entry at `pos` decoded, key and cells views of the body.
    pub(crate) fn entry(&self, pos: usize) -> Option<Result<(Key, Row)>> {
        let e = *self.entries.get(pos)?;
        let key = Key(self.body.slice(e.key as usize..e.row as usize));
        let row = Row::decode_from(&mut Source::shared(&self.body, &self.body[e.row as usize..]));
        Some(row.map(|row| (key, row)))
    }
}
