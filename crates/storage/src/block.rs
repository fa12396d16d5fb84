//! A loaded SSTable data block: one buffer holding the CRC-verified raw
//! body and, after it, the offsets of its entries.
//!
//! A block is `(key, row)*` in key order, each key a length-prefixed byte
//! string and each row in the [`spinnaker_common::codec`] encoding.
//! Loading a block walks the body once with `codec::skip_row` — no
//! allocation per entry, every length and flag validated — and writes
//! where each key and row starts into the spare room the block was read
//! into, past the chunk's checksum: a loaded block is one allocation.
//! Lookups then binary-search those offsets and compare keys in place; a
//! block nobody reads a row from is never decoded at all. A point read
//! decodes no row: it takes each column's version visible at its
//! timestamp out of the encoded row (`Block::fold_visible`), whatever the
//! length of the chains around it. Iteration decodes each row as it is
//! yielded (`Block::entry`). Compaction reads entries as stored
//! (`Block::raw_entry`) and moves the rows it need not change as bytes.
//!
//! The buffer is a [`Bytes`], so a [`Block`] is a handle: cloning one
//! (what the block cache hands out) bumps a reference count. A decoded
//! key, column name or value is a view of the same buffer: decoding a row
//! allocates a vector per version chain, and one for its columns when it
//! has two or more (one column is held inline in the row), and bumps the
//! buffer's reference count per cell, whatever the cells' sizes. A row
//! handed out keeps the buffer alive — past its block's eviction from the
//! cache, if it comes to that — until the row is dropped.

use bytes::{Bytes, BytesMut};
use spinnaker_common::codec::{self, Decode, Source};
use spinnaker_common::{Error, Key, Result, Row, Timestamp};

/// Bytes per entry slot: the little-endian `u32` offsets of its key and
/// of its encoded row in the body (one little-endian `u64`, the key's
/// offset in its low half). The key is `body[key..row]`.
pub(crate) const SLOT: usize = 8;

/// One data block, as cached and as read: `buf[..body_len]` is the body,
/// and the `n` slots from `buf[slots..]` locate its entries.
#[derive(Clone)]
pub struct Block {
    buf: Bytes,
    body_len: u32,
    slots: u32,
    n: u32,
}

/// Walk the body `buf[..body_len]` once, validating every entry, and
/// write each entry's slot into `buf[slots..]` while there is room.
/// Returns the number of entries, written or not.
fn walk(buf: &mut [u8], body_len: usize, slots: usize) -> Result<usize> {
    let (head, spare) = buf.split_at_mut(slots);
    let body = &head[..body_len];
    let mut out = spare.chunks_exact_mut(SLOT);
    let mut cur = body;
    let mut n = 0;
    while !cur.is_empty() {
        let key_len = codec::get_byte_slice(&mut cur)?.len();
        let row = body_len - cur.len();
        if let Some(slot) = out.next() {
            // In range: `Block::load` checked that the buffer fits a u32.
            let (key, row) = ((row - key_len) as u64, row as u64);
            slot.copy_from_slice(&(key | row << 32).to_le_bytes());
        }
        codec::skip_row(&mut cur)?;
        n += 1;
    }
    Ok(n)
}

impl Block {
    /// Index a block read into `buf`: its first `body_len` bytes are the
    /// body (already checksum-verified), and the room from `slots` on
    /// takes the entries' offsets. A body with more entries than that
    /// room holds is copied once into a buffer sized exactly. A body that
    /// is not a well-formed run of entries is a typed error, so every
    /// offset recorded here is in bounds and every row decodes.
    pub(crate) fn load(mut buf: BytesMut, body_len: usize, slots: usize) -> Result<Block> {
        let narrow = |n: usize| {
            u32::try_from(n).map_err(|_| Error::Codec(format!("block of {n} bytes overflows u32")))
        };
        narrow(buf.len())?;
        let n = walk(&mut buf, body_len, slots)?;
        let exact = n * SLOT + slots;
        if exact > buf.len() {
            let mut grown = BytesMut::zeroed(narrow(exact)? as usize);
            grown[..slots].copy_from_slice(&buf[..slots]);
            walk(&mut grown, body_len, slots)?;
            buf = grown;
        }
        Ok(Block {
            buf: buf.freeze(),
            body_len: narrow(body_len)?,
            slots: narrow(slots)?,
            n: narrow(n)?,
        })
    }

    /// Where entry `pos` (`< n`) sits in `buf`, the block's buffer: its
    /// key is `buf[key..row]`, its encoded row starts at `row`. Callers
    /// dereference the buffer once and pass it in.
    fn offsets(&self, buf: &[u8], pos: usize) -> (usize, usize) {
        let at = self.slots as usize + pos * SLOT;
        let mut slot = [0; SLOT];
        slot.copy_from_slice(&buf[at..at + SLOT]);
        let slot = u64::from_le_bytes(slot);
        (slot as u32 as usize, (slot >> 32) as usize)
    }

    /// Position of the first entry whose key is `>= key`.
    pub(crate) fn lower_bound(&self, key: &[u8]) -> usize {
        let buf: &[u8] = &self.buf;
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let (at, row) = self.offsets(buf, mid);
            if &buf[at..row] < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// What the row stored under exactly `key` shows at `ts`, folded into
    /// `into` ([`codec::fold_visible`]); `false` when the block has no
    /// such key. No row is decoded and no chain built.
    pub(crate) fn fold_visible(&self, key: &[u8], ts: Timestamp, into: &mut Row) -> Result<bool> {
        match self.raw_entry(self.lower_bound(key)) {
            Some((found, row)) if found == key => {
                codec::fold_visible(&mut Source::shared(&self.buf, row), ts, into).map(|()| true)
            }
            _ => Ok(false),
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.n as usize
    }

    /// The entry at `pos` as stored: its key, and the body from the start
    /// of its encoded row on (the row's own encoding says where it ends;
    /// `codec::scan_row` finds out). What compaction moves.
    pub(crate) fn raw_entry(&self, pos: usize) -> Option<(&[u8], &[u8])> {
        if pos >= self.len() {
            return None;
        }
        let buf: &[u8] = &self.buf;
        let (key, row) = self.offsets(buf, pos);
        Some((&buf[key..row], &buf[row..self.body_len as usize]))
    }

    /// The entry at `pos` decoded, key and cells views of the buffer.
    pub(crate) fn entry(&self, pos: usize) -> Option<Result<(Key, Row)>> {
        let (key, row) = self.raw_entry(pos)?;
        let key = Key(self.buf.slice_ref(key));
        let row = Row::decode_from(&mut Source::shared(&self.buf, row));
        Some(row.map(|row| (key, row)))
    }
}
