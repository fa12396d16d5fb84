//! Hand-written binary encoding used by the WAL and SSTable formats.
//!
//! Conventions (little-endian throughout):
//! * fixed-width `u32`/`u64` for offsets and checksums,
//! * LEB128 varints for lengths and counts,
//! * byte strings as `varint(len) || bytes`.
//!
//! The [`Encode`]/[`Decode`] traits are implemented for the common types so
//! record structs can be composed field by field.
//!
//! Decoding runs over a [`Source`]: the bytes still to read, plus —
//! optionally — the [`Bytes`] buffer they are a part of. Every decoder
//! has one body, [`Decode::decode_from`]; what differs between sources is
//! only what [`Source::bytes`] hands back for a byte string. Over a plain
//! slice ([`Decode::decode`]) it is a copy. Over a shared buffer
//! ([`Source::shared`]) it is a view of that buffer — a reference-count
//! bump — so a row decoded out of a cached block or an op decoded out of
//! a log frame allocates for its containers only, and keeps the buffer
//! alive for as long as any of its keys, names or values is held.
//!
//! An encoded [`Row`] has **one canonical form**: column names strictly
//! ascending, and each column's versions (head, then chain) strictly
//! descending. It is what [`Row::encode`](Encode::encode) writes, and it
//! is checked wherever a row is read — [`Row::decode`], [`skip_row`] and
//! [`scan_row`] (so an SSTable block at load) and [`fold_visible`] — with
//! the same error at the same byte. So every reader of a row sees the
//! same columns and versions, and [`RowMerge`] can merge rows without
//! decoding them: the encoded form is already the order the merge walks.

use bytes::Bytes;

use crate::error::{Error, Result};
use crate::lsn::Lsn;
use crate::types::{ColumnValue, DisplayBytes, Key, Row, Timestamp};

/// Types that can serialize themselves onto a byte buffer.
pub trait Encode {
    /// Append the encoded form to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Convenience: encode into a fresh buffer.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }
}

/// Types that can deserialize themselves from the front of a byte
/// source, consuming what they read.
pub trait Decode: Sized {
    /// Decode from the front of `src`, advancing it past the consumed
    /// bytes. Byte strings the value keeps come from [`Source::bytes`]
    /// (nested values from their own `decode_from`), so they are views
    /// when `src` is shared and copies when it is not; everything else
    /// reads through the `get_*` functions, which take a `&mut Source` as
    /// the `&mut &[u8]` it dereferences to.
    fn decode_from(src: &mut Source<'_>) -> Result<Self>;

    /// Decode from the front of `buf`, advancing it past the consumed
    /// bytes. The value owns copies of the byte strings it keeps.
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let mut src = Source::copying(buf);
        let value = Self::decode_from(&mut src)?;
        *buf = src.rest;
        Ok(value)
    }
}

/// What a decoder reads from: a cursor over the bytes still to read and,
/// when they are part of a [`Bytes`] buffer, that buffer — so byte
/// strings can be cut out of it as views instead of copied.
///
/// Dereferences to the cursor (`&[u8]`): `src.len()`, `src.is_empty()`
/// and every `get_*` function of this module work on a `Source` directly.
pub struct Source<'a> {
    rest: &'a [u8],
    owner: Option<&'a Bytes>,
}

impl<'a> Source<'a> {
    /// Read `buf`; byte strings are copied out of it.
    pub fn copying(buf: &'a [u8]) -> Source<'a> {
        Source { rest: buf, owner: None }
    }

    /// Read `part`, a slice **of `owner`** (all of it, or what is left of
    /// it after a header); byte strings are views of `owner`.
    ///
    /// # Panics
    /// [`Source::bytes`] panics, as [`Bytes::slice_ref`] does, when
    /// `part` is not inside `owner`: a bug in the caller, never a
    /// property of the bytes read.
    pub fn shared(owner: &'a Bytes, part: &'a [u8]) -> Source<'a> {
        Source { rest: part, owner: Some(owner) }
    }

    /// Read a length-prefixed byte string as an owned `Bytes`: a view of
    /// the shared buffer, or a copy when there is none.
    pub fn bytes(&mut self) -> Result<Bytes> {
        get_byte_slice(&mut self.rest).map(|s| self.keep(s))
    }

    /// `s`, a slice read from this source, as an owned `Bytes`.
    pub fn keep(&self, s: &[u8]) -> Bytes {
        match self.owner {
            Some(owner) => owner.slice_ref(s),
            None => Bytes::copy_from_slice(s),
        }
    }

    /// The bytes not yet read.
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// Cut the next `n` bytes off as a source of their own (shared the
    /// way this one is), or `None` — nothing consumed — when fewer are
    /// left: how a length-framed body is handed to its decoder.
    pub fn take(&mut self, n: usize) -> Option<Source<'a>> {
        let (head, rest) = self.rest.split_at_checked(n)?;
        self.rest = rest;
        Some(Source { rest: head, owner: self.owner })
    }
}

impl<'a> std::ops::Deref for Source<'a> {
    type Target = &'a [u8];

    fn deref(&self) -> &&'a [u8] {
        &self.rest
    }
}

impl std::ops::DerefMut for Source<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.rest
    }
}

fn eof(what: &str) -> Error {
    Error::Codec(format!("unexpected end of input reading {what}"))
}

// ---------------------------------------------------------------- varints

/// Append a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8; // spinlint: allow(C2) -- masked to 7 bits, cannot truncate
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read a LEB128 varint from the front of `buf`.
pub fn get_varint(buf: &mut &[u8]) -> Result<u64> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = buf.split_first().ok_or_else(|| eof("varint"))?;
        *buf = rest;
        if shift == 63 && byte > 1 {
            return Err(Error::Codec("varint overflows u64".into()));
        }
        result |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(result);
        }
        shift += 7;
        if shift > 63 {
            return Err(Error::Codec("varint too long".into()));
        }
    }
}

/// Encoded size of a varint without encoding it.
pub fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// A stored `u32` (a length, an offset, a count) as an in-memory size.
/// `usize` is at least 32 bits on every target this builds for (checked
/// below), so the conversion widens and cannot truncate.
#[inline]
pub fn usize_from(n: u32) -> usize {
    const _: () = assert!(usize::BITS >= u32::BITS);
    // spinlint: allow(C2) -- u32 into usize widens; the assertion above holds the bound
    n as usize
}

/// Read a varint that must fit in `u32` (ids, small offsets). Overflow
/// is a typed codec error, never a silent truncation.
pub fn get_varint_u32(buf: &mut &[u8]) -> Result<u32> {
    let v = get_varint(buf)?;
    u32::try_from(v).map_err(|_| Error::Codec(format!("varint {v} overflows u32")))
}

/// Read a varint used as an element count or in-memory length.
///
/// Corrupt inputs can claim absurd counts; beyond the checked
/// `usize` conversion, the count is validated against the remaining
/// input under the invariant that every element occupies at least
/// `min_bytes` encoded bytes — so a bit-flipped count fails decoding
/// with a typed error instead of driving a huge allocation.
pub fn get_varint_len(buf: &mut &[u8], what: &str, min_bytes: usize) -> Result<usize> {
    let v = get_varint(buf)?;
    let n = usize::try_from(v)
        .map_err(|_| Error::Codec(format!("{what} count {v} overflows usize")))?;
    if n.saturating_mul(min_bytes.max(1)) > buf.len() {
        return Err(Error::Codec(format!(
            "{what} count {n} exceeds the {} bytes remaining",
            buf.len()
        )));
    }
    Ok(n)
}

// ------------------------------------------------------------ fixed width

/// Append a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Read a little-endian `u32`.
pub fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    if buf.len() < 4 {
        return Err(eof("u32"));
    }
    let (head, rest) = buf.split_at(4);
    *buf = rest;
    Ok(u32::from_le_bytes(head.try_into().expect("4 bytes")))
}

/// Append a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Read a little-endian `u64`.
pub fn get_u64(buf: &mut &[u8]) -> Result<u64> {
    if buf.len() < 8 {
        return Err(eof("u64"));
    }
    let (head, rest) = buf.split_at(8);
    *buf = rest;
    Ok(u64::from_le_bytes(head.try_into().expect("8 bytes")))
}

/// Append a single byte.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Read a single byte.
pub fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    let (&byte, rest) = buf.split_first().ok_or_else(|| eof("u8"))?;
    *buf = rest;
    Ok(byte)
}

// ------------------------------------------------------------ byte strings

/// Append `varint(len) || bytes`.
pub fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_varint(buf, b.len() as u64);
    buf.extend_from_slice(b);
}

/// Read a length-prefixed byte string, borrowed from the input.
pub fn get_byte_slice<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8]> {
    let len = get_varint_len(buf, "byte string", 1)?;
    if buf.len() < len {
        return Err(eof("byte string body"));
    }
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    Ok(head)
}

/// Read a length-prefixed byte string as an owned `Bytes` (a copy; a
/// decoder wants [`Source::bytes`]).
pub fn get_bytes(buf: &mut &[u8]) -> Result<Bytes> {
    get_byte_slice(buf).map(Bytes::copy_from_slice)
}

// --------------------------------------------------- impls for core types

impl Encode for Lsn {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.as_u64());
    }
}

impl Decode for Lsn {
    fn decode_from(buf: &mut Source<'_>) -> Result<Lsn> {
        Ok(Lsn::from_u64(get_u64(buf)?))
    }
}

impl Encode for Key {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self.as_bytes());
    }
}

impl Decode for Key {
    fn decode_from(buf: &mut Source<'_>) -> Result<Key> {
        Ok(Key(buf.bytes()?))
    }
}

fn put_cv_fields(buf: &mut Vec<u8>, cv: &ColumnValue) {
    put_cv_parts(buf, cv.tombstone, cv.version, cv.timestamp, &cv.value);
}

/// One version's fields: what [`get_cv_parts`] reads back.
fn put_cv_parts(buf: &mut Vec<u8>, tombstone: bool, version: u64, timestamp: u64, value: &[u8]) {
    put_u8(buf, u8::from(tombstone));
    put_u64(buf, version);
    put_u64(buf, timestamp);
    put_bytes(buf, value);
}

/// One version's fields with the value still borrowed: the single parse
/// both [`ColumnValue::decode`] and [`skip_column_value`] run, so the two
/// accept and reject exactly the same bytes.
fn get_cv_parts<'a>(buf: &mut &'a [u8]) -> Result<(bool, u64, u64, &'a [u8])> {
    let tombstone = match get_u8(buf)? {
        0 => false,
        1 => true,
        other => return Err(Error::Codec(format!("bad tombstone flag {other}"))),
    };
    Ok((tombstone, get_u64(buf)?, get_u64(buf)?, get_byte_slice(buf)?))
}

fn get_cv_fields(buf: &mut Source<'_>) -> Result<ColumnValue> {
    let (tombstone, version, timestamp, value) = get_cv_parts(buf)?;
    let value = buf.keep(value);
    Ok(ColumnValue { value, version, timestamp, tombstone, older: Vec::new() })
}

/// Each chained version is at least flag + version + timestamp + value
/// length: 18 bytes.
fn get_chain_len(buf: &mut &[u8]) -> Result<usize> {
    get_varint_len(buf, "column version chain", 18)
}

/// A column is at least a 1-byte name length plus 18 bytes of version
/// fields.
fn get_column_count(buf: &mut &[u8]) -> Result<usize> {
    get_varint_len(buf, "row columns", 19)
}

/// The canonical column order: `name`, read after `previous`, must sort
/// strictly after it. Checked by every reader right after it reads a
/// name, so all of them fail at the same byte with the same error.
fn check_name_order(previous: Option<&[u8]>, name: &[u8]) -> Result<()> {
    match previous {
        Some(previous) if previous >= name => Err(Error::Codec(format!(
            "column {} after {}: names out of order",
            DisplayBytes(name),
            DisplayBytes(previous)
        ))),
        _ => Ok(()),
    }
}

/// The canonical chain order: a version read after `newer` in the same
/// column must be strictly lower. Checked right after the version's
/// fields are read.
fn check_version_order(newer: u64, version: u64) -> Result<()> {
    if version >= newer {
        return Err(Error::Codec(format!(
            "column version {version} after {newer}: chain out of order"
        )));
    }
    Ok(())
}

/// Advance `buf` past one encoded [`ColumnValue`] (head and MVCC chain)
/// without allocating. Validates everything [`ColumnValue::decode`]
/// validates: it succeeds on, and consumes, exactly the same bytes.
pub fn skip_column_value(buf: &mut &[u8]) -> Result<()> {
    let (_, mut newer, _, _) = get_cv_parts(buf)?;
    for _ in 0..get_chain_len(buf)? {
        let (_, version, _, _) = get_cv_parts(buf)?;
        check_version_order(newer, version)?;
        newer = version;
    }
    Ok(())
}

/// Advance `buf` past one encoded [`Row`] without allocating — the
/// structure-validating pass that lets an SSTable block be indexed in
/// place and only the row a read returns be decoded. Succeeds on, and
/// consumes, exactly the bytes [`Row::decode`] does.
pub fn skip_row(buf: &mut &[u8]) -> Result<()> {
    scan_row(buf).map(drop)
}

/// What [`scan_row`] learned about one encoded [`Row`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RowScan {
    /// The row has at least one column, no tombstone and no version
    /// chain. Decoding such a row, pruning it at any GC floor and
    /// encoding it again writes the bytes that were scanned — the bytes
    /// being canonical, which the scan checked — so compaction may move
    /// them instead.
    pub plain: bool,
    /// Smallest column version (packed LSN) over every version stored;
    /// `u64::MAX` for a row without columns.
    pub min_version: u64,
    /// Largest column version over every version stored.
    pub max_version: u64,
    /// Largest commit timestamp over every version stored.
    pub max_ts: u64,
    /// [`Row::approx_size`] of the decoded row.
    pub approx_size: usize,
}

impl Default for RowScan {
    /// What a row without columns scans as.
    fn default() -> RowScan {
        RowScan { plain: false, min_version: u64::MAX, max_version: 0, max_ts: 0, approx_size: 0 }
    }
}

/// [`skip_row`] that also reports what it walked over: advance `buf`
/// past one encoded [`Row`] without allocating, validating and consuming
/// exactly what [`Row::decode`] does — the canonical order included —
/// and return the row's version and timestamp bounds, its size estimate,
/// and whether it is *plain* (see [`RowScan::plain`]).
pub fn scan_row(buf: &mut &[u8]) -> Result<RowScan> {
    let columns = get_column_count(buf)?;
    let mut scan = RowScan { plain: columns > 0, ..RowScan::default() };
    let mut previous: Option<&[u8]> = None;
    for _ in 0..columns {
        let name = get_byte_slice(buf)?;
        check_name_order(previous, name)?;
        previous = Some(name);
        scan.approx_size += name.len();
        let (tombstone, mut newer, timestamp, value) = get_cv_parts(buf)?;
        scan.plain &= !tombstone;
        scan.note_version(newer, timestamp, value);
        let older = get_chain_len(buf)?;
        scan.plain &= older == 0;
        for _ in 0..older {
            let (_, version, timestamp, value) = get_cv_parts(buf)?;
            check_version_order(newer, version)?;
            newer = version;
            scan.note_version(version, timestamp, value);
        }
    }
    Ok(scan)
}

/// Read the encoded [`Row`] at the front of `src` for a point read at
/// commit timestamp `ts`: of each column, the newest version with
/// `timestamp <= ts` — the first such in its chain, which is stored
/// newest first — is set in `into` where `into` [admits](Row::admits)
/// it, its name and value views of the source's buffer. A column with
/// nothing visible at `ts` leaves `into` alone. Versions passed on the
/// way are walked over where they lie; the only allocation is the one
/// vector an empty `into` reserves for a row of two or more columns (one
/// column is held inline).
///
/// **It stops at the version that resolves the last column**: what is
/// left of that column's chain is not read, so a read at the latest
/// commit of a one-column row touches the head and nothing else, however
/// long the chain, and `src` is left inside the row. A reader that wants
/// the row's end wants [`skip_row`].
///
/// Every field up to there goes through the parser [`Row::decode`] and
/// `skip_row` use, and the canonical order is checked at the same bytes.
/// So on bytes `Row::decode` accepts — every row of a block, which was
/// walked whole when the block was loaded — this succeeds and, `into`
/// empty, leaves in `into` what [`Row::decode`] then [`Row::visible_at`]
/// shows; and where this fails, `Row::decode` fails with the same error.
/// On an error `into` keeps what was folded before.
pub fn fold_visible(src: &mut Source<'_>, ts: Timestamp, into: &mut Row) -> Result<()> {
    let columns = get_column_count(src)?;
    if into.is_empty() {
        into.columns.reserve(columns);
    }
    let mut previous: Option<&[u8]> = None;
    for i in 0..columns {
        let last = i + 1 == columns;
        let name = get_byte_slice(src)?;
        check_name_order(previous, name)?;
        previous = Some(name);
        let head = get_cv_parts(src)?;
        let mut visible = (head.2 <= ts).then_some(head);
        if !(last && visible.is_some()) {
            let mut newer = head.1;
            for _ in 0..get_chain_len(src)? {
                let older = get_cv_parts(src)?;
                check_version_order(newer, older.1)?;
                newer = older.1;
                if visible.is_none() && older.2 <= ts {
                    visible = Some(older);
                    if last {
                        break;
                    }
                }
            }
        }
        if let Some((tombstone, version, timestamp, value)) = visible {
            if into.admits(name, version) {
                let value = src.keep(value);
                let cv = ColumnValue { value, version, timestamp, tombstone, older: Vec::new() };
                into.set(src.keep(name), cv);
            }
        }
    }
    Ok(())
}

/// Merges the encoded fragments of one row — the rows compaction finds
/// stored under one key in several input tables, or one row that may
/// need pruning — into the encoded row the decode-everything merge
/// writes, without decoding any of them: no [`Row`] is built, no chain
/// threaded, and what it allocates is its scratch, which it keeps and
/// reuses from one row to the next.
///
/// The fragments are canonical (see the module docs), which is what lets
/// them be walked as they lie: columns in name order, each column's
/// versions newest first. The order is checked on the way, and a
/// fragment out of it, or cut short, is the error [`Row::decode`] would
/// return. The merged row is,
/// byte for byte, what decoding every fragment, folding them in order
/// with [`Row::merge_newer`], pruning at the GC floor and encoding writes:
///
/// * a column's versions are the union of its fragments', newest first;
///   of two with the same version the earlier fragment's is kept (what
///   `merge_newer` keeps when it meets a version it holds);
/// * every version with a commit timestamp above `floor` is kept, and
///   the newest at or below it, which closes the chain (what a read
///   pinned at the floor sees); a head at or below the floor has no
///   chain;
/// * with `drop_tombstones` (nothing older survives below the output), a
///   column whose newest version is a tombstone at or below the floor
///   is dropped.
#[derive(Default)]
pub struct RowMerge {
    cursors: Vec<FragmentCursor>,
    row: Vec<u8>,
}

/// One version of a column as [`RowMerge`] reads it: its fields, and
/// where its value lies in its fragment.
#[derive(Clone, Copy)]
struct MergeVersion {
    tombstone: bool,
    version: u64,
    timestamp: u64,
    value: (usize, usize),
}

/// Where [`RowMerge`] is in one fragment.
#[derive(Clone, Copy)]
struct FragmentCursor {
    /// Offset of the next byte not read.
    at: usize,
    /// Columns not opened yet.
    columns: usize,
    /// The open column's name, as a range of the fragment; `None` once
    /// every column has been merged.
    name: Option<(usize, usize)>,
    /// Whether the open column is the one being merged.
    merging: bool,
    /// The open column's next version, `None` once it is used up.
    next: Option<MergeVersion>,
    /// Versions of the open column after `next`.
    older: usize,
}

impl MergeVersion {
    /// Read one version's fields off the front of `rest`, a suffix of
    /// the fragment `row`.
    fn read(row: &[u8], rest: &mut &[u8]) -> Result<MergeVersion> {
        let (tombstone, version, timestamp, value) = get_cv_parts(rest)?;
        let end = row.len() - rest.len();
        Ok(MergeVersion { tombstone, version, timestamp, value: (end - value.len(), end) })
    }
}

impl FragmentCursor {
    /// Read the next version of the open column into `next`.
    fn step(&mut self, row: &[u8]) -> Result<()> {
        if self.older == 0 {
            self.next = None;
            return Ok(());
        }
        self.older -= 1;
        let mut rest = &row[self.at..];
        let v = MergeVersion::read(row, &mut rest)?;
        if let Some(newer) = self.next {
            check_version_order(newer.version, v.version)?;
        }
        self.at = row.len() - rest.len();
        self.next = Some(v);
        Ok(())
    }

    /// Walk past what is left of the open column and open the next one:
    /// its name, its head in `next`, its chain's length in `older`.
    fn open_next(&mut self, row: &[u8]) -> Result<()> {
        while self.next.is_some() {
            self.step(row)?;
        }
        if self.columns == 0 {
            self.name = None;
            return Ok(());
        }
        self.columns -= 1;
        let mut rest = &row[self.at..];
        let name = get_byte_slice(&mut rest)?;
        let start = row.len() - rest.len() - name.len();
        check_name_order(self.name.map(|(from, to)| &row[from..to]), name)?;
        self.name = Some((start, start + name.len()));
        self.next = Some(MergeVersion::read(row, &mut rest)?);
        self.older = get_chain_len(&mut rest)?;
        self.at = row.len() - rest.len();
        Ok(())
    }
}

impl RowMerge {
    /// A merge with no scratch yet: it grows to the widest row merged.
    pub fn new() -> RowMerge {
        RowMerge::default()
    }

    /// Merge `fragments` (see [`RowMerge`]) and return what
    /// [`scan_row`] would report of the merged row, which [`row`]
    /// then holds — or `None` when pruning left no column, and there is
    /// no row to write.
    ///
    /// [`row`]: RowMerge::row
    pub fn merge<R: AsRef<[u8]>>(
        &mut self,
        fragments: &[R],
        floor: Timestamp,
        drop_tombstones: bool,
    ) -> Result<Option<RowScan>> {
        let cursors = &mut self.cursors;
        cursors.clear();
        for fragment in fragments {
            let row = fragment.as_ref();
            let mut rest = row;
            let columns = get_column_count(&mut rest)?;
            let mut cursor = FragmentCursor {
                at: row.len() - rest.len(),
                columns,
                name: None,
                merging: false,
                next: None,
                older: 0,
            };
            cursor.open_next(row)?;
            cursors.push(cursor);
        }
        let out = &mut self.row;
        out.clear();
        out.push(0); // the column count, patched in once known
        let mut columns = 0;
        let mut scan = RowScan { plain: true, ..RowScan::default() };
        let name_of = |i: usize, c: &FragmentCursor| {
            c.name.map(|(from, to)| &fragments[i].as_ref()[from..to])
        };
        // Column by column, least name first.
        while let Some(name) = cursors.iter().enumerate().filter_map(|(i, c)| name_of(i, c)).min() {
            for (i, c) in cursors.iter_mut().enumerate() {
                c.merging = name_of(i, c) == Some(name);
            }
            let Some((from, head)) = next_version(cursors, fragments)? else { break };
            if !(drop_tombstones && head.tombstone && head.timestamp <= floor) {
                columns += 1;
                put_bytes(out, name);
                scan.approx_size += name.len();
                scan.plain &= !head.tombstone;
                put_version(out, &mut scan, fragments[from].as_ref(), head);
                let chain_at = out.len();
                out.push(0); // the chain's length, patched in once known
                let mut chain = 0;
                if head.timestamp > floor {
                    while let Some((from, v)) = next_version(cursors, fragments)? {
                        put_version(out, &mut scan, fragments[from].as_ref(), v);
                        chain += 1;
                        if v.timestamp <= floor {
                            break;
                        }
                    }
                }
                scan.plain &= chain == 0;
                patch_varint(out, chain_at, chain);
            }
            for (i, c) in cursors.iter_mut().enumerate() {
                if c.merging {
                    c.open_next(fragments[i].as_ref())?;
                }
            }
        }
        if columns == 0 {
            return Ok(None);
        }
        patch_varint(out, 0, columns);
        Ok(Some(scan))
    }

    /// The row the last [`merge`](RowMerge::merge) that returned a scan
    /// wrote, encoded.
    pub fn row(&self) -> &[u8] {
        &self.row
    }
}

/// The newest next version of the column being merged over every
/// fragment merging it, and the fragment it is read from (the first, of
/// equal versions); every fragment holding that version steps past it.
fn next_version<R: AsRef<[u8]>>(
    cursors: &mut [FragmentCursor],
    fragments: &[R],
) -> Result<Option<(usize, MergeVersion)>> {
    let mut newest: Option<(usize, MergeVersion)> = None;
    for (i, c) in cursors.iter().enumerate() {
        if let (true, Some(v)) = (c.merging, c.next) {
            if newest.is_none_or(|(_, n)| v.version > n.version) {
                newest = Some((i, v));
            }
        }
    }
    if let Some((_, n)) = newest {
        for (c, fragment) in cursors.iter_mut().zip(fragments) {
            if c.merging && c.next.is_some_and(|v| v.version == n.version) {
                c.step(fragment.as_ref())?;
            }
        }
    }
    Ok(newest)
}

/// Append one version's fields, its value read out of `fragment`, and
/// count it into `scan`.
fn put_version(out: &mut Vec<u8>, scan: &mut RowScan, fragment: &[u8], v: MergeVersion) {
    let value = &fragment[v.value.0..v.value.1];
    put_cv_parts(out, v.tombstone, v.version, v.timestamp, value);
    scan.note_version(v.version, v.timestamp, value);
}

/// Overwrite the one-byte placeholder at `buf[at]` with `varint(v)`,
/// moving what follows it up when the varint is longer.
fn patch_varint(buf: &mut Vec<u8>, at: usize, mut v: u64) {
    let len = varint_len(v);
    if len > 1 {
        let end = buf.len();
        buf.resize(end + len - 1, 0);
        buf.copy_within(at + 1..end, at + len);
    }
    for byte in &mut buf[at..at + len] {
        *byte = (v & 0x7f) as u8 | 0x80; // spinlint: allow(C2) -- masked to 7 bits, cannot truncate
        v >>= 7;
    }
    buf[at + len - 1] &= 0x7f;
}

impl RowScan {
    fn note_version(&mut self, version: u64, timestamp: u64, value: &[u8]) {
        self.min_version = self.min_version.min(version);
        self.max_version = self.max_version.max(version);
        self.max_ts = self.max_ts.max(timestamp);
        // Mirrors `ColumnValue::approx_size`: value + version + timestamp + flag.
        self.approx_size += value.len() + 8 + 8 + 1;
    }
}

impl Encode for ColumnValue {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_cv_fields(buf, self);
        // The MVCC chain: superseded versions, newest first. Chain
        // entries never nest further, so their encoding is flat.
        put_varint(buf, self.older.len() as u64);
        for cv in &self.older {
            put_cv_fields(buf, cv);
        }
    }
}

impl Decode for ColumnValue {
    fn decode_from(buf: &mut Source<'_>) -> Result<ColumnValue> {
        let mut head = get_cv_fields(buf)?;
        // Sized exactly: `get_chain_len` has bounded `n` by the input
        // left, and a hot row's chain — decoded on every read of it —
        // runs to hundreds of versions.
        let n = get_chain_len(buf)?;
        let mut older = Vec::with_capacity(n);
        let mut newer = head.version;
        for _ in 0..n {
            let cv = get_cv_fields(buf)?;
            check_version_order(newer, cv.version)?;
            newer = cv.version;
            older.push(cv);
        }
        head.older = older;
        Ok(head)
    }
}

impl Encode for Row {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.columns.len() as u64);
        for (name, cv) in &self.columns {
            put_bytes(buf, name);
            cv.encode(buf);
        }
    }
}

impl Decode for Row {
    fn decode_from(buf: &mut Source<'_>) -> Result<Row> {
        let n = get_column_count(buf)?;
        let mut row = Row::with_capacity(n);
        let mut previous: Option<&[u8]> = None;
        for _ in 0..n {
            let name = get_byte_slice(buf)?;
            check_name_order(previous, name)?;
            previous = Some(name);
            let name = buf.keep(name);
            let cv = ColumnValue::decode_from(buf)?;
            row.set(name, cv);
        }
        Ok(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "length of {v}");
            let mut slice = buf.as_slice();
            assert_eq!(get_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn varint_rejects_overflow() {
        // 10 bytes of continuation encoding 2^64 exactly overflows.
        let buf = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        assert!(get_varint(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_inputs_error_cleanly() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"hello");
        for cut in 0..buf.len() {
            let mut slice = &buf[..cut];
            assert!(get_bytes(&mut slice).is_err(), "cut at {cut}");
        }
        assert!(get_u32(&mut [0u8, 1, 2].as_slice()).is_err());
        assert!(get_u64(&mut [0u8; 7].as_slice()).is_err());
        assert!(get_u8(&mut [].as_slice()).is_err());
    }

    #[test]
    fn row_roundtrip_with_tombstone() {
        let mut row = Row::new();
        row.set(
            Bytes::from_static(b"a"),
            ColumnValue::live(Bytes::from_static(b"v1"), Lsn::new(1, 5), 42),
        );
        row.set(Bytes::from_static(b"b"), ColumnValue::deleted(Lsn::new(1, 6), 43));
        let enc = row.encode_to_vec();
        let decoded = Row::decode(&mut enc.as_slice()).unwrap();
        assert_eq!(decoded, row);
    }

    #[test]
    fn column_value_chain_roundtrips() {
        let mut row = Row::new();
        let col = Bytes::from_static(b"c");
        for (v, ts) in [(1u64, 10u64), (2, 20), (3, 30)] {
            row.apply_version(
                col.clone(),
                ColumnValue::live(Bytes::from(format!("v{v}")), Lsn::new(1, v), ts),
            );
        }
        assert_eq!(row.get(b"c").unwrap().older.len(), 2, "chain built");
        let enc = row.encode_to_vec();
        let decoded = Row::decode(&mut enc.as_slice()).unwrap();
        assert_eq!(decoded, row, "the MVCC chain survives the codec");
        assert_eq!(decoded.visible_at(20).get(b"c").unwrap().value.as_ref(), b"v2");
    }

    #[test]
    fn a_shared_source_hands_out_views_and_a_plain_one_copies() {
        let mut row = Row::new();
        for (col, v) in [("a", 1u64), ("a", 2), ("bb", 3)] {
            row.apply_version(
                Bytes::from(col),
                ColumnValue::live(Bytes::from(format!("value-{v}")), Lsn::new(1, v), v),
            );
        }
        // The row sits behind a header, as it does in a block or a frame.
        let mut buf = b"header".to_vec();
        row.encode(&mut buf);
        let buf = Bytes::from(buf);
        let inside = |b: &Bytes| buf.as_ptr_range().contains(&b.as_ptr());
        let cells = |row: &Row| -> Vec<Bytes> {
            let values = row.columns.values().flat_map(|cv| cv.versions().map(|v| v.value.clone()));
            row.columns.keys().cloned().chain(values).collect()
        };

        let mut src = Source::shared(&buf, &buf[6..]);
        let shared = Row::decode_from(&mut src).unwrap();
        assert!(src.is_empty());
        assert_eq!(shared, row);
        assert_eq!(cells(&shared).len(), 5);
        assert!(cells(&shared).iter().all(inside), "names and values are views of the buffer");

        let copied = Row::decode(&mut &buf[6..]).unwrap();
        assert_eq!(copied, row);
        assert!(!cells(&copied).iter().any(inside), "a plain slice is copied from");
    }

    #[test]
    fn take_cuts_a_framed_body_off_the_front() {
        // Longer than an inline `Bytes`: a buffer with storage to share.
        let buf = Bytes::from([&b"abcd"[..], &[b'e'; 32]].concat());
        let mut src = Source::shared(&buf, &buf);
        assert!(src.take(37).is_none(), "not that many left");
        assert_eq!(src.len(), 36, "and nothing consumed");
        let head = src.take(4).unwrap();
        assert_eq!((head.rest(), src.rest()), (&b"abcd"[..], &[b'e'; 32][..]));
        assert_eq!(
            head.keep(&head.rest()[1..3]).as_ptr(),
            buf[1..].as_ptr(),
            "shared like its parent"
        );
        assert!(src.take(0).unwrap().is_empty());
    }

    #[test]
    fn bad_tombstone_flag_is_rejected() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u64(&mut buf, 1);
        put_u64(&mut buf, 2);
        put_bytes(&mut buf, b"");
        assert!(ColumnValue::decode(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn skip_rejects_what_decode_rejects() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u64(&mut buf, 1);
        put_u64(&mut buf, 2);
        put_bytes(&mut buf, b"");
        put_varint(&mut buf, 0);
        assert!(skip_column_value(&mut buf.as_slice()).is_err(), "bad tombstone flag");
        // A column count the remaining bytes cannot back.
        assert!(skip_row(&mut [0xffu8, 0xff, 0x03, 0, 0].as_slice()).is_err());
    }

    type Version = (u64, u64, bool, Vec<u8>);

    /// `[n] ([name] [head] [chain length] [chain]*)*`, columns and
    /// versions in the order given — the encoder itself cannot write
    /// them out of order.
    fn hand_encoded(cols: &[(Vec<u8>, Vec<Version>)]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(&mut buf, cols.len() as u64);
        for (name, versions) in cols {
            put_bytes(&mut buf, name);
            for (i, (version, timestamp, tombstone, value)) in versions.iter().enumerate() {
                put_cv_parts(&mut buf, *tombstone, *version, *timestamp, value);
                if i == 0 {
                    put_varint(&mut buf, versions.len() as u64 - 1);
                }
            }
        }
        buf
    }

    /// Live single versions, `10 + i` at `20 + i`, under `names`.
    fn hand_built_row(names: &[&[u8]]) -> Vec<u8> {
        let cols: Vec<(Vec<u8>, Vec<Version>)> = (0u64..)
            .zip(names)
            .map(|(i, name)| (name.to_vec(), vec![(10 + i, 20 + i, false, b"value".to_vec())]))
            .collect();
        hand_encoded(&cols)
    }

    /// Every reader of a row — decode, skip, scan, the point read's fold —
    /// rejects it, with the same error.
    fn assert_rejected_by_all(enc: &[u8], what: &str) {
        let decoded = Row::decode(&mut &enc[..]).expect_err(what).to_string();
        assert!(decoded.contains("out of order"), "{what}: {decoded}");
        assert_eq!(skip_row(&mut &enc[..]).unwrap_err().to_string(), decoded, "{what}");
        assert_eq!(scan_row(&mut &enc[..]).unwrap_err().to_string(), decoded, "{what}");
        let folded = fold_visible(&mut Source::copying(enc), 0, &mut Row::new());
        assert_eq!(folded.unwrap_err().to_string(), decoded, "{what}");
    }

    #[test]
    fn rows_out_of_canonical_order_are_rejected_by_every_reader() {
        let plain = hand_built_row(&[b"a", b"b", b"c"]);
        let scan = scan_row(&mut plain.as_slice()).unwrap();
        assert!(scan.plain);
        assert_eq!((scan.min_version, scan.max_version, scan.max_ts), (10, 12, 22));
        assert_eq!(Row::decode(&mut plain.as_slice()).unwrap().encode_to_vec(), plain);

        // Names unsorted or repeated: decoding once sorted them, the last
        // of a repeated name winning, while a point read kept the highest
        // version — two readings of one row.
        for names in [&[b"b" as &[u8], b"a"][..], &[b"a", b"a"], &[b"a", b"c", b"b"]] {
            assert_rejected_by_all(&hand_built_row(names), &format!("names {names:?}"));
        }
        // A chain not strictly descending, at its head or further down.
        let v = |version: u64| (version, version, false, b"v".to_vec());
        for chain in [vec![v(5), v(7)], vec![v(5), v(5)], vec![v(9), v(5), v(6)]] {
            let versions: Vec<u64> = chain.iter().map(|c| c.0).collect();
            let enc = hand_encoded(&[(b"c".to_vec(), chain)]);
            assert_rejected_by_all(&enc, &format!("versions {versions:?}"));
            let mut cv = &enc[3..];
            assert!(skip_column_value(&mut cv).is_err(), "versions {versions:?}");
            assert!(ColumnValue::decode(&mut &enc[3..]).is_err(), "versions {versions:?}");
        }
        let empty = hand_built_row(&[]);
        assert!(!scan_row(&mut empty.as_slice()).unwrap().plain, "nothing to move");
    }

    /// Long rows take the varint path [`RowMerge`] patches lengths in by:
    /// 150 columns, each a chain of 200 versions split over three
    /// fragments. With nothing at or below the floor the merge keeps
    /// every version, and writes what `merge_newer` builds.
    #[test]
    fn row_merge_writes_what_merge_newer_writes_for_long_rows() {
        let fragments: Vec<Row> = (0..3u64)
            .map(|f| {
                let mut row = Row::new();
                for col in 0..150u64 {
                    for v in (1..=200u64).filter(|v| v % 3 == f) {
                        let value = Bytes::from(format!("{col}@{v}"));
                        let cv = ColumnValue::live(value, Lsn::from_u64(v), v);
                        row.apply_version(Bytes::from(format!("col{col:03}")), cv);
                    }
                }
                row
            })
            .collect();
        let mut want = fragments[0].clone();
        for newer in &fragments[1..] {
            want.merge_newer(newer);
        }
        let encoded: Vec<Vec<u8>> = fragments.iter().map(Encode::encode_to_vec).collect();
        let mut merge = RowMerge::new();
        let scan = merge.merge(&encoded, 0, true).unwrap().unwrap();
        assert_eq!(merge.row(), &want.encode_to_vec()[..]);
        assert_eq!(scan, scan_row(&mut merge.row()).unwrap());
        assert_eq!(Row::decode(&mut merge.row()).unwrap(), want);
    }

    /// Columns as a store writes them (`canonical`: names sorted and
    /// distinct, versions strictly descending) or as it never does.
    fn columns_strategy() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<Version>)>> {
        let version =
            (0u64..8, any::<u64>(), any::<bool>(), proptest::collection::vec(any::<u8>(), 0..40));
        let column =
            (proptest::collection::vec(0u8..3, 0..3), proptest::collection::vec(version, 1..5));
        (proptest::collection::vec(column, 0..6), any::<bool>()).prop_map(
            |(mut cols, canonical)| {
                if canonical {
                    cols.sort_by(|a, b| a.0.cmp(&b.0));
                    cols.dedup_by(|a, b| a.0 == b.0);
                    for (_, versions) in &mut cols {
                        versions.sort_by_key(|v| std::cmp::Reverse(v.0));
                        versions.dedup_by(|a, b| a.0 == b.0);
                    }
                }
                cols
            },
        )
    }

    proptest! {
        #[test]
        fn prop_skip_row_mirrors_decode(
            cols in columns_strategy(),
            trailing in proptest::collection::vec(any::<u8>(), 0..8),
        ) {
            let mut enc = hand_encoded(&cols);
            let row_len = enc.len();
            enc.extend_from_slice(&trailing);
            let canonical = cols.windows(2).all(|w| w[0].0 < w[1].0)
                && cols.iter().all(|(_, vs)| vs.windows(2).all(|w| w[0].0 > w[1].0));

            // Whole input: the three accept exactly the canonical rows, and
            // stop at the end of the row, not of the buffer.
            let mut d = enc.as_slice();
            let mut s = enc.as_slice();
            let mut c = enc.as_slice();
            let decoded = Row::decode(&mut d);
            let skipped = skip_row(&mut s);
            let scanned = scan_row(&mut c);
            prop_assert_eq!(decoded.is_ok(), canonical);
            prop_assert_eq!(skipped.is_ok(), canonical);
            prop_assert_eq!(scanned.is_ok(), canonical);
            let (Ok(row), Ok(scan)) = (decoded, scanned) else {
                return;
            };
            prop_assert_eq!(d.len(), trailing.len());
            prop_assert_eq!(s.len(), trailing.len());
            prop_assert_eq!(c.len(), trailing.len());
            // The bytes accepted are the one encoding of what they decode to.
            prop_assert_eq!(&row.encode_to_vec()[..], &enc[..row_len]);

            // The scan reports what the decoded row holds.
            let versions = || row.columns.values().flat_map(ColumnValue::versions);
            prop_assert_eq!(scan.min_version, versions().map(|v| v.version).min().unwrap_or(u64::MAX));
            prop_assert_eq!(scan.max_version, versions().map(|v| v.version).max().unwrap_or(0));
            prop_assert_eq!(scan.max_ts, versions().map(|v| v.timestamp).max().unwrap_or(0));
            prop_assert_eq!(scan.approx_size, row.approx_size());
            let plain = !row.is_empty()
                && row.columns.values().all(|cv| !cv.tombstone && cv.older.is_empty());
            prop_assert_eq!(scan.plain, plain);

            // Every truncation point: same verdict, same bytes consumed.
            for cut in 0..row_len {
                let mut d = &enc[..cut];
                let mut s = &enc[..cut];
                let mut c = &enc[..cut];
                let decoded = Row::decode(&mut d);
                let skipped = skip_row(&mut s);
                let scanned = scan_row(&mut c);
                prop_assert_eq!(decoded.is_err(), skipped.is_err(), "cut at {}", cut);
                prop_assert_eq!(decoded.is_err(), scanned.is_err(), "cut at {}", cut);
                if decoded.is_ok() {
                    prop_assert_eq!(d.len(), s.len(), "cut at {}", cut);
                    prop_assert_eq!(d.len(), c.len(), "cut at {}", cut);
                }
            }
        }

        #[test]
        fn prop_varint_roundtrip(v: u64) {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut s = buf.as_slice();
            prop_assert_eq!(get_varint(&mut s).unwrap(), v);
            prop_assert!(s.is_empty());
        }

        #[test]
        fn prop_bytes_roundtrip(data: Vec<u8>) {
            let mut buf = Vec::new();
            put_bytes(&mut buf, &data);
            let mut s = buf.as_slice();
            let got = get_bytes(&mut s).unwrap();
            prop_assert_eq!(got.as_ref(), data.as_slice());
        }

        #[test]
        fn prop_row_roundtrip(cols in proptest::collection::btree_map(
            proptest::collection::vec(any::<u8>(), 0..16),
            (any::<u64>(), any::<u64>(), any::<bool>(), proptest::collection::vec(any::<u8>(), 0..64)),
            0..8,
        )) {
            let mut row = Row::new();
            for (name, (version, timestamp, tombstone, value)) in cols {
                row.set(Bytes::from(name), ColumnValue {
                    value: Bytes::from(value), version, timestamp, tombstone,
                    older: Vec::new(),
                });
            }
            let enc = row.encode_to_vec();
            prop_assert_eq!(Row::decode(&mut enc.as_slice()).unwrap(), row);
        }
    }
}
