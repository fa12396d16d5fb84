//! A loaded SSTable data block: the CRC-verified raw body, the offsets of
//! its entries, and the rows point gets have asked it for.
//!
//! A block is `(key, row)*` in key order, each key a length-prefixed byte
//! string and each row in the [`spinnaker_common::codec`] encoding.
//! Loading a block walks the body once with `codec::skip_row` — no
//! allocation per entry, every length and flag validated — and records
//! where each key and row starts. Lookups then compare keys in place and
//! decode only the row they return; a block nobody reads a row from is
//! never decoded at all. Compaction reads entries as stored
//! (`Block::raw_entry`) and moves the rows it need not change as bytes.
//!
//! A row a point get returns is also **kept**, decoded, beside the body:
//! the next get of that key clones it (reference-count bumps on its
//! values) instead of decoding it again. Hot rows are the ones with long
//! MVCC chains — they are rewritten most — so without this a cache hit on
//! one would cost an allocation per retained version, every time.

use std::sync::OnceLock;

use spinnaker_common::codec::{self, Decode};
use spinnaker_common::{Error, Key, Result, Row};

/// Where one entry sits in the body: its key is `body[key..row]`, its
/// encoded row starts at `row`.
#[derive(Clone, Copy)]
struct Entry {
    key: u32,
    row: u32,
}

/// One data block, as cached and as read.
pub struct Block {
    body: Vec<u8>,
    entries: Vec<Entry>,
    /// Per entry (same length as `entries`): the decoded row, once a
    /// point get has returned it.
    kept: Vec<OnceLock<Row>>,
}

impl Block {
    /// Index `body` (already checksum-verified). A body that is not a
    /// well-formed run of entries is a typed error, so every offset
    /// recorded here is in bounds and every row decodes.
    pub(crate) fn parse(body: Vec<u8>) -> Result<Block> {
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
        let kept = entries.iter().map(|_| OnceLock::new()).collect();
        Ok(Block { body, entries, kept })
    }

    fn key_at(&self, e: Entry) -> &[u8] {
        &self.body[e.key as usize..e.row as usize]
    }

    fn decode_row(&self, e: Entry) -> Result<Row> {
        Row::decode(&mut &self.body[e.row as usize..])
    }

    /// Position of the first entry whose key is `>= key`.
    pub(crate) fn lower_bound(&self, key: &[u8]) -> usize {
        self.entries.partition_point(|&e| self.key_at(e) < key)
    }

    /// The row stored under exactly `key`; no other row is decoded.
    pub(crate) fn get(&self, key: &[u8]) -> Result<Option<Row>> {
        let pos = self.lower_bound(key);
        let Some(&e) = self.entries.get(pos).filter(|&&e| self.key_at(e) == key) else {
            return Ok(None);
        };
        let kept = &self.kept[pos];
        if let Some(row) = kept.get() {
            return Ok(Some(row.clone()));
        }
        let row = self.decode_row(e)?;
        // Losing a race to another reader is fine: it kept the same row.
        let _ = kept.set(row.clone());
        Ok(Some(row))
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

    /// The entry at `pos` as owned values, decoded once — iteration
    /// (scans, compaction, catch-up) reads most rows a single time, so it
    /// keeps nothing, but reuses a row a get already kept.
    pub(crate) fn entry(&self, pos: usize) -> Option<Result<(Key, Row)>> {
        let e = *self.entries.get(pos)?;
        let row = match self.kept[pos].get() {
            Some(row) => Ok(row.clone()),
            None => self.decode_row(e),
        };
        Some(row.map(|row| (Key::from(self.key_at(e)), row)))
    }
}
