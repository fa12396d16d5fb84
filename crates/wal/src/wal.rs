//! The shared write-ahead log.
//!
//! One physical log per node, shared by every cohort the node belongs to
//! (paper §4.1): "In order to share the same log, each cohort on a node
//! uses its own logical LSNs." Records are framed with length + CRC32C;
//! recovery scans all segments, tolerates a torn tail in the newest
//! segment, and rebuilds a per-cohort index used for replay and catch-up
//! reads. The index keeps one entry per frame — a run of the frame's
//! consecutive LSNs, split or trimmed where a logically truncated LSN or
//! the checkpoint cuts it — not one per write, so indexing a group
//! propose of any size costs one entry, and a warmed-up log appends
//! without allocating (`index.rs`). Replay, truncation and checkpoints
//! still work per LSN, and each segment counts one reference per LSN
//! indexed in it: it is deleted once sealed and the last of them is gone.
//! An LSN logged again moves to its new frame, but the old frame keeps
//! its reference until the new one is forced, so a crash in between
//! still finds a copy.
//!
//! Everything the log knows about one cohort is one `Cohort` entry:
//! its checkpoint, where local recovery starts replaying (§6.1), and its
//! skipped-LSN list, the records a new leader discarded that no replay
//! may see (logical truncation, §6.1.1). Both are kept durable in one
//! sidecar, `<dir>/cohorts`, which every change replaces whole, so a
//! checkpoint and its skipped list are always saved together.
//!
//! Force policy is the caller's: [`Wal::append`] buffers in the OS file,
//! [`Wal::sync`] forces everything appended so far — group commit batches
//! multiple appends under one sync (§5 "group commit is also used").

use std::collections::BTreeMap;
use std::sync::Arc;

use spinnaker_common::codec::{self, Decode, Encode, Source};
use spinnaker_common::vfs::{SharedVfs, VfsFile};
use spinnaker_common::{Error, Lsn, RangeId, Result, WriteOp};

use crate::index::{RecordLoc, RunIndex};
use crate::record::{
    encode_frame_into, read_frame, scan_frame, FrameRead, LogRecord, Payload, RecordHeader,
};

/// Tuning knobs for the log.
#[derive(Clone, Debug)]
pub struct WalOptions {
    /// Directory (within the VFS namespace) holding segments and the
    /// cohorts sidecar.
    pub dir: String,
    /// Rollover threshold: a segment is sealed once it exceeds this size.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> WalOptions {
        WalOptions { dir: "wal".into(), segment_bytes: 8 << 20 }
    }
}

/// Durable log positions of one cohort, as seen after recovery or during
/// operation. In the paper's notation, `last_lsn` is `f.lst` and
/// `last_committed` is `f.cmt`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CohortLogState {
    /// Highest write LSN present in the log (after logical truncation).
    pub last_lsn: Lsn,
    /// Highest LSN known committed (from commit notes and checkpoints).
    pub last_committed: Lsn,
}

/// What the log knows about one cohort's logical stream.
#[derive(Default)]
struct Cohort {
    /// Every write at or below it is flushed to an SSTable: local
    /// recovery replays from here, the index keeps nothing at or below
    /// it, and a replay starting below it must fall back to SSTable-based
    /// catch-up. Durable; never moves back.
    checkpoint: Lsn,
    /// Logically truncated LSNs, sorted: invisible to every replay. "Since
    /// this list is expected to be small, it is loaded into memory before
    /// recovery." Durable; entries at or below the checkpoint are dropped.
    skipped: Vec<Lsn>,
    /// Non-truncated write records above the checkpoint, for replay:
    /// one entry per run of them in one frame.
    records: RunIndex,
    /// Highest write LSN seen, never below the checkpoint.
    last_lsn: Lsn,
    last_commit_note: Lsn,
}

struct OpenSegment {
    id: u64,
    file: Box<dyn VfsFile>,
    bytes: u64,
}

/// The shared write-ahead log of one node.
pub struct Wal {
    vfs: SharedVfs,
    opts: WalOptions,
    sealed: Vec<u64>,
    current: OpenSegment,
    cohorts: BTreeMap<RangeId, Cohort>,
    /// Live index references per segment, one per indexed LSN; a sealed
    /// segment with zero references is garbage.
    seg_refs: BTreeMap<u64, u64>,
    /// References of frames that an LSN logged again left since the last
    /// force, as `(segment, count)`: released once the new frame is
    /// durable, so a crash before then still finds the old one.
    moved: Vec<(u64, u64)>,
    appended_since_sync: bool,
    /// The frame being appended, encoded in place; reused by every
    /// append, so a warmed-up log frames records without allocating.
    frame: Vec<u8>,
}

impl Wal {
    fn seg_path(dir: &str, id: u64) -> String {
        format!("{dir}/seg-{id:010}.log")
    }

    fn cohorts_path(dir: &str) -> String {
        format!("{dir}/cohorts")
    }

    /// Open the log, running the recovery scan over existing segments.
    ///
    /// A torn tail in the newest segment is tolerated (records after it are
    /// lost, which is correct: they were never acknowledged); a bad frame in
    /// any older segment is reported as corruption, and so is a cohorts
    /// sidecar that does not decode. Appends always go to a fresh segment
    /// so a torn tail is never overwritten — and the torn segment is first
    /// rewritten to its valid prefix, because the fresh segment seals it:
    /// left as it was, the next open would find the damage in a sealed
    /// segment and refuse to start.
    pub fn open(vfs: SharedVfs, opts: WalOptions) -> Result<Wal> {
        let sidecar = Self::cohorts_path(&opts.dir);
        let mut cohorts = if vfs.exists(&sidecar)? {
            decode_cohorts(&vfs.read_all(&sidecar)?)?
        } else {
            BTreeMap::new()
        };

        let mut seg_ids: Vec<u64> = Vec::new();
        for path in vfs.list(&format!("{}/seg-", opts.dir))? {
            let name = path.rsplit('/').next().unwrap_or(&path);
            if let Some(id) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                seg_ids.push(id);
            }
        }
        seg_ids.sort_unstable();

        let mut seg_refs: BTreeMap<u64, u64> = BTreeMap::new();
        let mut moved = Vec::new();
        let last = seg_ids.last().copied();
        for &id in &seg_ids {
            let path = Self::seg_path(&opts.dir, id);
            let file = vfs.open(&path)?;
            let len = usize::try_from(file.len()?).map_err(|_| {
                Error::Corruption(format!("segment {id} is larger than the address space"))
            })?;
            let data = file.read_bytes_at(0, len)?;
            let mut offset = 0usize;
            while offset < data.len() {
                match scan_frame(&data[offset..])? {
                    FrameRead::Record(header, n) => {
                        let loc = RecordLoc { segment: id, offset: offset as u64, frame_len: n };
                        Self::index_record(&mut cohorts, &mut seg_refs, &mut moved, header, loc);
                        offset += n;
                    }
                    FrameRead::Torn(why) => {
                        if Some(id) == last {
                            // Torn tail of the newest segment: data past the
                            // last complete frame was never acknowledged. Cut
                            // it off before the fresh segment seals this one.
                            vfs.write_atomic(&path, &data[..offset])?;
                            break;
                        }
                        return Err(Error::Corruption(format!(
                            "bad frame in sealed segment {id} at offset {offset}: {why}"
                        )));
                    }
                }
            }
        }

        let next_id = seg_ids.last().map_or(1, |m| m + 1);
        let file = vfs.create(&Self::seg_path(&opts.dir, next_id))?;
        let mut wal = Wal {
            vfs,
            sealed: seg_ids,
            current: OpenSegment { id: next_id, file, bytes: 0 },
            cohorts,
            seg_refs,
            moved,
            appended_since_sync: false,
            frame: Vec::new(),
            opts,
        };
        // Every frame scanned is on disk: an LSN's older frames go at once.
        wal.release_moved();
        Ok(wal)
    }

    fn index_record(
        cohorts: &mut BTreeMap<RangeId, Cohort>,
        seg_refs: &mut BTreeMap<u64, u64>,
        moved: &mut Vec<(u64, u64)>,
        header: RecordHeader,
        loc: RecordLoc,
    ) {
        let RecordHeader { cohort, lsn: first, ops } = header;
        let entry = cohorts.entry(cohort).or_default();
        if ops == 0 {
            // A commit note.
            if first > entry.last_commit_note {
                entry.last_commit_note = first;
            }
            return;
        }
        // One index entry per run of the frame's replayable LSNs: the
        // whole frame unless a truncated LSN or the checkpoint cuts it.
        // The segment gets one reference per indexed LSN, so a partial
        // checkpoint releases it correctly. An LSN logged again (a
        // follower re-logs a takeover's re-proposal) moves to the new
        // frame, and its old frame's reference goes to `moved`.
        for i in 0..ops as u64 {
            let lsn = Lsn::new(first.epoch(), first.seq() + i);
            if entry.skipped.binary_search(&lsn).is_ok() {
                continue; // logically truncated: invisible to recovery
            }
            if lsn > entry.last_lsn {
                entry.last_lsn = lsn;
            }
            if lsn > entry.checkpoint {
                entry.records.insert(lsn, loc, |old, n| match moved.last_mut() {
                    Some((segment, m)) if *segment == old.segment => *m += n,
                    _ => moved.push((old.segment, n)),
                });
                *seg_refs.entry(loc.segment).or_insert(0) += 1;
            }
        }
    }

    /// Append one record (not forced). Returns the segment id it landed in.
    pub fn append(&mut self, rec: &LogRecord) -> Result<u64> {
        self.frame.clear();
        encode_frame_into(rec, &mut self.frame)?;
        let frame_len = self.frame.len() as u64;
        if self.current.bytes > 0 && self.current.bytes + frame_len > self.opts.segment_bytes {
            self.roll_segment()?;
        }
        let loc = RecordLoc {
            segment: self.current.id,
            offset: self.current.bytes,
            frame_len: self.frame.len(),
        };
        self.current.file.append(&self.frame)?;
        self.current.bytes += frame_len;
        self.appended_since_sync = true;
        // Index updates mirror the recovery scan so a running node and a
        // restarted node agree exactly.
        Self::index_record(
            &mut self.cohorts,
            &mut self.seg_refs,
            &mut self.moved,
            rec.header(),
            loc,
        );
        Ok(loc.segment)
    }

    /// Append several records back to back (one frame each).
    pub fn append_many(&mut self, recs: &[LogRecord]) -> Result<()> {
        for rec in recs {
            self.append(rec)?;
        }
        Ok(())
    }

    /// Force everything appended so far to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        if self.appended_since_sync {
            self.current.file.sync()?;
            self.appended_since_sync = false;
            self.release_moved();
        }
        Ok(())
    }

    /// Release the references [`Wal::index_record`] set aside in
    /// `moved`, once everything appended is durable.
    fn release_moved(&mut self) {
        for (segment, n) in self.moved.drain(..) {
            release(&mut self.seg_refs, segment, n);
        }
    }

    fn roll_segment(&mut self) -> Result<()> {
        self.current.file.sync()?;
        self.release_moved();
        self.sealed.push(self.current.id);
        let id = self.current.id + 1;
        let file = self.vfs.create(&Self::seg_path(&self.opts.dir, id))?;
        self.current = OpenSegment { id, file, bytes: 0 };
        self.appended_since_sync = false;
        self.maybe_gc()?;
        Ok(())
    }

    /// Durable state of a cohort (paper's `f.lst` / `f.cmt`).
    pub fn state(&self, cohort: RangeId) -> CohortLogState {
        match self.cohorts.get(&cohort) {
            Some(e) => CohortLogState {
                last_lsn: e.last_lsn,
                last_committed: e.last_commit_note.max(e.checkpoint),
            },
            None => CohortLogState { last_lsn: Lsn::ZERO, last_committed: Lsn::ZERO },
        }
    }

    /// The index entries of `cohort` with LSN in `(from, to]`, in LSN
    /// order: the rules [`Wal::replay`] and [`Wal::indexed_lsns`] share.
    /// An empty interval is legal during takeover races where a follower
    /// has committed past the new leader's watermark (its catch-up
    /// request then covers nothing).
    fn indexed(
        &self,
        cohort: RangeId,
        from: Lsn,
        to: Lsn,
    ) -> Result<impl Iterator<Item = (Lsn, &RecordLoc)>> {
        let entry = self.cohorts.get(&cohort).filter(|_| to > from);
        if let Some(e) = entry.filter(|e| from < e.checkpoint) {
            return Err(Error::NotFound(format!(
                "log for {cohort} starts above {from} (checkpoint {})",
                e.checkpoint
            )));
        }
        Ok(entry.into_iter().flat_map(move |e| e.records.range(from, to)))
    }

    /// The LSNs of `cohort`'s replayable writes in `(from, to]`, in LSN
    /// order: the LSNs [`Wal::replay`] would visit, read off the index
    /// without reading the log. Fails where `replay` fails for lack of
    /// records: with [`Error::NotFound`] when `from` precedes the
    /// checkpoint.
    pub fn indexed_lsns(
        &self,
        cohort: RangeId,
        from: Lsn,
        to: Lsn,
    ) -> Result<impl Iterator<Item = Lsn> + '_> {
        Ok(self.indexed(cohort, from, to)?.map(|(lsn, _)| lsn))
    }

    /// Replay the write records of `cohort` with LSN in `(from, to]`, in
    /// LSN order. Fails with [`Error::NotFound`] when `from` precedes the
    /// checkpoint (flushed and possibly garbage-collected territory) —
    /// callers then serve catch-up from SSTables instead (§6.1).
    pub fn replay(
        &self,
        cohort: RangeId,
        from: Lsn,
        to: Lsn,
        mut f: impl FnMut(Lsn, &WriteOp),
    ) -> Result<usize> {
        self.replay_batches(cohort, from, to, |lsn, batch, index| f(lsn, &batch[index]))
    }

    /// [`Wal::replay`], handing each write as its place in the batch it
    /// was logged in: `batch[index]` is the write at the LSN. The batch
    /// is decoded once per frame, so a caller that keeps writes shares
    /// it instead of copying them.
    pub fn replay_batches(
        &self,
        cohort: RangeId,
        from: Lsn,
        to: Lsn,
        mut f: impl FnMut(Lsn, &Arc<[WriteOp]>, usize),
    ) -> Result<usize> {
        // The ops of a group propose are one run of the index, all in
        // one frame: read, checksum and decode it once and serve every
        // op of the run from it. Frames of one sealed
        // segment are read through one handle, opened at the first.
        let mut held: Option<(RecordLoc, LogRecord)> = None;
        let mut sealed: Option<(u64, Box<dyn VfsFile>)> = None;
        let mut count = 0;
        for (lsn, loc) in self.indexed(cohort, from, to)? {
            let rec = match &held {
                Some((at, rec)) if (at.segment, at.offset) == (loc.segment, loc.offset) => rec,
                _ => &held.insert((*loc, self.read_at(loc, &mut sealed)?)).1,
            };
            debug_assert_eq!(rec.lsn.epoch(), lsn.epoch());
            // The indexed LSN selects its op out of the frame by its
            // offset from the record's first LSN.
            let batch = match &rec.payload {
                Payload::Writes(batch) => Some(batch),
                Payload::CommitNote => None,
            };
            let found = lsn
                .seq()
                .checked_sub(rec.lsn.seq())
                .and_then(|i| usize::try_from(i).ok())
                .and_then(|i| batch.filter(|b| i < b.len()).map(|b| (b, i)));
            let (batch, index) = found.ok_or_else(|| {
                Error::Corruption(format!("lsn {lsn} outside the record at {}", rec.lsn))
            })?;
            f(lsn, batch, index);
            count += 1;
        }
        Ok(count)
    }

    /// Collect the records of `cohort` in `(from, to]` as owned pairs.
    pub fn read_range(&self, cohort: RangeId, from: Lsn, to: Lsn) -> Result<Vec<(Lsn, WriteOp)>> {
        let mut out = Vec::new();
        self.replay(cohort, from, to, |lsn, op| out.push((lsn, op.clone())))?;
        Ok(out)
    }

    /// Read and decode the frame at `loc`. The record's ops are views of
    /// the buffer the frame is read into here, so whoever keeps one keeps
    /// that frame. `sealed` is the caller's open handle on a sealed
    /// segment, replaced when `loc` is in another.
    fn read_at(
        &self,
        loc: &RecordLoc,
        sealed: &mut Option<(u64, Box<dyn VfsFile>)>,
    ) -> Result<LogRecord> {
        let file = if loc.segment == self.current.id {
            &self.current.file
        } else {
            match sealed {
                Some((id, file)) if *id == loc.segment => file,
                _ => {
                    let file = self.vfs.open(&Self::seg_path(&self.opts.dir, loc.segment))?;
                    &sealed.insert((loc.segment, file)).1
                }
            }
        };
        let frame = file.read_bytes_at(loc.offset, loc.frame_len)?;
        match read_frame(Source::shared(&frame, &frame))? {
            FrameRead::Record(rec, _) => Ok(rec),
            FrameRead::Torn(why) => Err(Error::Corruption(format!(
                "indexed record unreadable at segment {} offset {}: {why}",
                loc.segment, loc.offset
            ))),
        }
    }

    /// Logically truncate `lsns` from `cohort`'s log (paper §6.1.1): the
    /// records stay on disk (other cohorts share the segments) but are
    /// remembered in the skipped-LSN list, excluded from the index, and
    /// will be skipped by every future local recovery.
    pub fn truncate_logically(&mut self, cohort: RangeId, lsns: &[Lsn]) -> Result<()> {
        if lsns.is_empty() {
            return Ok(());
        }
        let entry = self.cohorts.entry(cohort).or_default();
        for &lsn in lsns {
            if let Err(pos) = entry.skipped.binary_search(&lsn) {
                entry.skipped.insert(pos, lsn);
            }
            entry.records.remove(lsn, lsn, |loc, n| release(&mut self.seg_refs, loc.segment, n));
        }
        entry.last_lsn = entry.records.last().unwrap_or(Lsn::ZERO).max(entry.checkpoint);
        self.save_cohorts()
    }

    /// The logically truncated LSNs currently remembered for `cohort`.
    pub fn skipped_lsns(&self, cohort: RangeId) -> Vec<Lsn> {
        self.cohorts.get(&cohort).map(|e| e.skipped.clone()).unwrap_or_default()
    }

    /// Advance `cohort`'s checkpoint to `lsn` after its writes were flushed
    /// to an SSTable; a checkpoint never moves back. Forgets skipped LSNs
    /// at or below it and saves the sidecar; then drops the index entries
    /// at or below it and deletes sealed segments no cohort still needs.
    /// A failed save returns before the index is touched, so the records
    /// stay on disk for the recovery that replays from the old checkpoint.
    pub fn set_checkpoint(&mut self, cohort: RangeId, lsn: Lsn) -> Result<()> {
        let entry = self.cohorts.entry(cohort).or_default();
        let lsn = lsn.max(entry.checkpoint);
        entry.checkpoint = lsn;
        entry.last_lsn = entry.last_lsn.max(lsn);
        entry.skipped.retain(|&l| l > lsn);
        self.save_cohorts()?;
        let entry = self.cohorts.entry(cohort).or_default();
        entry.records.remove(Lsn::ZERO, lsn, |loc, n| release(&mut self.seg_refs, loc.segment, n));
        self.maybe_gc()
    }

    /// The checkpoint of `cohort` (`Lsn::ZERO` when never flushed).
    pub fn checkpoint(&self, cohort: RangeId) -> Lsn {
        self.cohorts.get(&cohort).map_or(Lsn::ZERO, |e| e.checkpoint)
    }

    fn maybe_gc(&mut self) -> Result<()> {
        let mut kept = Vec::with_capacity(self.sealed.len());
        for &id in &self.sealed {
            if self.seg_refs.get(&id).copied().unwrap_or(0) == 0 {
                self.vfs.delete(&Self::seg_path(&self.opts.dir, id))?;
                self.seg_refs.remove(&id);
            } else {
                kept.push(id);
            }
        }
        self.sealed = kept;
        Ok(())
    }

    /// Retire `cohort`'s logical stream: its range was dissolved (split or
    /// merge) or its replica departed this node, and another stream — or
    /// another node — now owns the data. Drops the replay index, the
    /// skipped-LSN list and the checkpoint, releasing the stream's
    /// segment references so shared segments become collectable. The
    /// stream afterwards reads as pristine, which is exactly what a later
    /// re-handoff (the replica moving back) expects.
    pub fn retire_stream(&mut self, cohort: RangeId) -> Result<()> {
        if let Some(mut entry) = self.cohorts.remove(&cohort) {
            entry
                .records
                .remove(Lsn::ZERO, Lsn::MAX, |loc, n| release(&mut self.seg_refs, loc.segment, n));
        }
        self.save_cohorts()?;
        self.maybe_gc()
    }

    /// Replace the sidecar with every cohort that has a checkpoint or a
    /// skipped LSN: its id, its checkpoint, then its skipped LSNs.
    fn save_cohorts(&self) -> Result<()> {
        let listed = || {
            self.cohorts.iter().filter(|(_, e)| e.checkpoint != Lsn::ZERO || !e.skipped.is_empty())
        };
        let mut buf = Vec::new();
        codec::put_varint(&mut buf, listed().count() as u64);
        for (id, e) in listed() {
            codec::put_varint(&mut buf, u64::from(id.0));
            e.checkpoint.encode(&mut buf);
            codec::put_varint(&mut buf, e.skipped.len() as u64);
            for lsn in &e.skipped {
                lsn.encode(&mut buf);
            }
        }
        self.vfs.write_atomic(&Self::cohorts_path(&self.opts.dir), &buf)
    }

    /// Number of on-disk segments (sealed + current), for tests.
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    /// Writes currently indexed for `cohort` (replayable LSNs).
    pub fn indexed_records(&self, cohort: RangeId) -> usize {
        self.cohorts
            .get(&cohort)
            .map_or(0, |e| usize::try_from(e.records.len()).unwrap_or(usize::MAX))
    }
}

/// Drop `n` index references to `segment`.
fn release(seg_refs: &mut BTreeMap<u64, u64>, segment: u64, n: u64) {
    if let Some(refs) = seg_refs.get_mut(&segment) {
        *refs = refs.saturating_sub(n);
    }
}

/// Decode the cohorts sidecar that [`Wal::save_cohorts`] writes. Each
/// listed cohort starts its replay at its checkpoint.
fn decode_cohorts(data: &[u8]) -> Result<BTreeMap<RangeId, Cohort>> {
    let buf = &mut Source::copying(data);
    // A cohort is at least a one-byte id, its checkpoint and a count.
    let n = codec::get_varint_len(buf, "cohort", 10)?;
    let mut cohorts = BTreeMap::new();
    for _ in 0..n {
        let id = RangeId(codec::get_varint_u32(buf)?);
        let checkpoint = Lsn::decode_from(buf)?;
        let len = codec::get_varint_len(buf, "skipped LSN", 8)?;
        let skipped = (0..len).map(|_| Lsn::decode_from(buf)).collect::<Result<Vec<_>>>()?;
        if !skipped.windows(2).all(|w| w[0] < w[1]) {
            return Err(Error::Corruption(format!("skipped LSNs of {id} out of order")));
        }
        let entry = Cohort { checkpoint, skipped, last_lsn: checkpoint, ..Cohort::default() };
        if cohorts.insert(id, entry).is_some() {
            return Err(Error::Corruption(format!("cohort {id} listed twice")));
        }
    }
    if !buf.is_empty() {
        return Err(Error::Corruption(format!("{} bytes after the last cohort", buf.len())));
    }
    Ok(cohorts)
}

#[cfg(test)]
mod tests {
    use spinnaker_common::op;
    use spinnaker_common::vfs::{MemVfs, Vfs};

    use super::*;

    fn opts() -> WalOptions {
        WalOptions { dir: "wal".into(), segment_bytes: 8 << 20 }
    }

    fn wal_on(vfs: &MemVfs) -> Wal {
        Wal::open(Arc::new(vfs.clone()), opts()).unwrap()
    }

    fn wr(cohort: u32, epoch: u16, seq: u64) -> LogRecord {
        LogRecord::write(
            RangeId(cohort),
            Lsn::new(epoch, seq),
            op::put(&format!("k{seq}"), "c", &format!("v{seq}")),
        )
    }

    #[test]
    fn append_sync_reopen_roundtrip() {
        let vfs = MemVfs::new();
        let mut wal = wal_on(&vfs);
        for seq in 1..=5 {
            wal.append(&wr(0, 1, seq)).unwrap();
        }
        wal.append(&LogRecord::commit_note(RangeId(0), Lsn::new(1, 3))).unwrap();
        wal.sync().unwrap();

        let reopened = wal_on(&vfs.crash_clone());
        let st = reopened.state(RangeId(0));
        assert_eq!(st.last_lsn, Lsn::new(1, 5));
        assert_eq!(st.last_committed, Lsn::new(1, 3));
        let replayed = reopened.read_range(RangeId(0), Lsn::ZERO, Lsn::MAX).unwrap();
        assert_eq!(replayed.len(), 5);
        assert_eq!(replayed[0].0, Lsn::new(1, 1));
        assert_eq!(replayed[4].0, Lsn::new(1, 5));
    }

    #[test]
    fn unsynced_tail_lost_on_crash() {
        let vfs = MemVfs::new();
        let mut wal = wal_on(&vfs);
        wal.append(&wr(0, 1, 1)).unwrap();
        wal.sync().unwrap();
        wal.append(&wr(0, 1, 2)).unwrap(); // never forced

        let reopened = wal_on(&vfs.crash_clone());
        assert_eq!(reopened.state(RangeId(0)).last_lsn, Lsn::new(1, 1));
    }

    #[test]
    fn torn_tail_mid_frame_is_tolerated() {
        let vfs = MemVfs::new();
        let mut wal = wal_on(&vfs);
        wal.append(&wr(0, 1, 1)).unwrap();
        wal.sync().unwrap();
        // Simulate a torn write: append garbage directly to the segment.
        let mut f = Vfs::open(&vfs, "wal/seg-0000000001.log").unwrap();
        f.append(&[0xde, 0xad, 0xbe]).unwrap();
        f.sync().unwrap();

        let reopened = wal_on(&vfs.crash_clone());
        assert_eq!(reopened.state(RangeId(0)).last_lsn, Lsn::new(1, 1));
    }

    #[test]
    fn cohorts_share_the_log_but_keep_logical_lsns() {
        let vfs = MemVfs::new();
        let mut wal = wal_on(&vfs);
        // Interleave three cohorts with overlapping LSNs, as on a real node.
        for seq in 1..=4 {
            for cohort in 0..3u32 {
                wal.append(&wr(cohort, 1, seq)).unwrap();
            }
        }
        wal.sync().unwrap();
        for cohort in 0..3u32 {
            let got = wal.read_range(RangeId(cohort), Lsn::ZERO, Lsn::MAX).unwrap();
            assert_eq!(got.len(), 4, "cohort {cohort}");
            assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "LSN order");
        }
        assert_eq!(wal.segment_count(), 1, "one shared physical log");
    }

    #[test]
    fn replay_range_is_exclusive_inclusive() {
        let vfs = MemVfs::new();
        let mut wal = wal_on(&vfs);
        for seq in 1..=10 {
            wal.append(&wr(0, 1, seq)).unwrap();
        }
        let got = wal.read_range(RangeId(0), Lsn::new(1, 3), Lsn::new(1, 7)).unwrap();
        let lsns: Vec<u64> = got.iter().map(|(l, _)| l.seq()).collect();
        assert_eq!(lsns, vec![4, 5, 6, 7]);
    }

    #[test]
    fn logical_truncation_hides_records_across_restart() {
        let vfs = MemVfs::new();
        let mut wal = wal_on(&vfs);
        for seq in 1..=5 {
            wal.append(&wr(0, 1, seq)).unwrap();
        }
        wal.sync().unwrap();
        // Fig. 10: LSN 1.22-style orphan — here 1.4 and 1.5 get truncated.
        wal.truncate_logically(RangeId(0), &[Lsn::new(1, 4), Lsn::new(1, 5)]).unwrap();
        assert_eq!(wal.state(RangeId(0)).last_lsn, Lsn::new(1, 3));
        let got = wal.read_range(RangeId(0), Lsn::ZERO, Lsn::MAX).unwrap();
        assert_eq!(got.len(), 3);

        // The list survives a crash and is honoured by the recovery scan.
        let reopened = wal_on(&vfs.crash_clone());
        assert_eq!(reopened.state(RangeId(0)).last_lsn, Lsn::new(1, 3));
        assert_eq!(reopened.read_range(RangeId(0), Lsn::ZERO, Lsn::MAX).unwrap().len(), 3);
        assert_eq!(reopened.skipped_lsns(RangeId(0)), vec![Lsn::new(1, 4), Lsn::new(1, 5)]);
    }

    #[test]
    fn truncation_does_not_disturb_other_cohorts() {
        let vfs = MemVfs::new();
        let mut wal = wal_on(&vfs);
        wal.append(&wr(0, 1, 1)).unwrap();
        wal.append(&wr(1, 1, 1)).unwrap();
        wal.sync().unwrap();
        wal.truncate_logically(RangeId(0), &[Lsn::new(1, 1)]).unwrap();
        assert_eq!(wal.read_range(RangeId(1), Lsn::ZERO, Lsn::MAX).unwrap().len(), 1);
        assert_eq!(wal.read_range(RangeId(0), Lsn::ZERO, Lsn::MAX).unwrap().len(), 0);
    }

    #[test]
    fn segment_rollover_and_gc() {
        let vfs = MemVfs::new();
        let mut wal =
            Wal::open(Arc::new(vfs.clone()), WalOptions { dir: "wal".into(), segment_bytes: 256 })
                .unwrap();
        for seq in 1..=50 {
            wal.append(&wr(0, 1, seq)).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.segment_count() > 1, "rollover must have happened");
        let before = wal.segment_count();

        // Checkpointing everything makes old segments collectable.
        wal.set_checkpoint(RangeId(0), Lsn::new(1, 50)).unwrap();
        // GC happens on the next rollover; force one.
        for seq in 51..=80 {
            wal.append(&wr(0, 1, seq)).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.segment_count() < before + 3, "old segments collected");
        // Replay below the checkpoint is refused (callers use SSTables).
        assert!(wal.read_range(RangeId(0), Lsn::ZERO, Lsn::new(1, 50)).is_err());
        // Replay above still works.
        assert_eq!(wal.read_range(RangeId(0), Lsn::new(1, 50), Lsn::MAX).unwrap().len(), 30);
    }

    #[test]
    fn an_lsn_logged_again_releases_its_old_segment() {
        let vfs = MemVfs::new();
        let mut wal =
            Wal::open(Arc::new(vfs.clone()), WalOptions { dir: "wal".into(), segment_bytes: 256 })
                .unwrap();
        for seq in 1..=20 {
            wal.append(&wr(0, 1, seq)).unwrap();
        }
        assert!(wal.segment_count() > 2, "rollover must have happened");
        // A follower logs 1.1 again (a takeover's re-proposal), in the
        // current segment, far past the first.
        let again = op::put("k1", "c", "again");
        wal.append(&LogRecord::write(RangeId(0), Lsn::new(1, 1), again.clone())).unwrap();
        wal.sync().unwrap();
        let first = wal.read_range(RangeId(0), Lsn::ZERO, Lsn::new(1, 1)).unwrap();
        assert_eq!(first, [(Lsn::new(1, 1), again)], "the new frame is the one indexed");
        // Past every LSN: no index entry is left, so no segment but the
        // current one is either.
        wal.set_checkpoint(RangeId(0), Lsn::new(1, 20)).unwrap();
        assert_eq!(wal.segment_count(), 1, "every sealed segment collected");
        assert!(!Vfs::exists(&vfs, "wal/seg-0000000001.log").unwrap(), "the first one too");
    }

    /// A tail logged again is not durable until the next force: until
    /// then its old segments stay, even when a checkpoint of another
    /// cohort collects around them, so a crash loses neither copy.
    #[test]
    fn an_lsn_logged_again_keeps_its_old_segment_until_forced() {
        let vfs = MemVfs::new();
        let mut wal =
            Wal::open(Arc::new(vfs.clone()), WalOptions { dir: "wal".into(), segment_bytes: 256 })
                .unwrap();
        for seq in 1..=3 {
            wal.append(&wr(0, 1, seq)).unwrap();
        }
        for seq in 1..=20 {
            wal.append(&wr(1, 1, seq)).unwrap();
        }
        wal.sync().unwrap();
        let segments = wal.segment_count();
        assert!(segments > 2, "rollover must have happened");
        // A follower logs cohort 0's tail again (a takeover's
        // re-proposal), not yet forced, in the current segment.
        for seq in 1..=3 {
            wal.append(&wr(0, 1, seq)).unwrap();
        }
        assert_eq!(wal.segment_count(), segments, "the tail is logged again unsealed");
        // Cohort 1 flushes: only its own segments go.
        wal.set_checkpoint(RangeId(1), Lsn::new(1, 20)).unwrap();
        assert!(Vfs::exists(&vfs, "wal/seg-0000000001.log").unwrap(), "the tail's old segment");
        let want: Vec<_> =
            (1..=3).map(|seq| (Lsn::new(1, seq), wr(0, 1, seq).ops()[0].clone())).collect();
        let reopened = wal_on(&vfs.crash_clone());
        assert_eq!(reopened.read_range(RangeId(0), Lsn::ZERO, Lsn::MAX).unwrap(), want);
        // Once forced, the old segment is free to go.
        wal.sync().unwrap();
        wal.set_checkpoint(RangeId(1), Lsn::new(1, 20)).unwrap();
        assert!(!Vfs::exists(&vfs, "wal/seg-0000000001.log").unwrap(), "collected once forced");
        assert_eq!(wal.read_range(RangeId(0), Lsn::ZERO, Lsn::MAX).unwrap(), want);
    }

    #[test]
    fn checkpoint_survives_restart_and_sets_floor() {
        let vfs = MemVfs::new();
        let mut wal = wal_on(&vfs);
        for seq in 1..=10 {
            wal.append(&wr(0, 1, seq)).unwrap();
        }
        wal.sync().unwrap();
        wal.set_checkpoint(RangeId(0), Lsn::new(1, 6)).unwrap();

        let reopened = wal_on(&vfs.crash_clone());
        assert_eq!(reopened.checkpoint(RangeId(0)), Lsn::new(1, 6));
        assert!(reopened.read_range(RangeId(0), Lsn::ZERO, Lsn::MAX).is_err());
        let tail = reopened.read_range(RangeId(0), Lsn::new(1, 6), Lsn::MAX).unwrap();
        assert_eq!(tail.len(), 4);
        let st = reopened.state(RangeId(0));
        assert_eq!(st.last_lsn, Lsn::new(1, 10));
        assert_eq!(st.last_committed, Lsn::new(1, 6), "checkpoint implies committed");
    }

    #[test]
    fn commit_notes_do_not_consume_write_lsns() {
        let vfs = MemVfs::new();
        let mut wal = wal_on(&vfs);
        wal.append(&wr(0, 1, 1)).unwrap();
        wal.append(&LogRecord::commit_note(RangeId(0), Lsn::new(1, 1))).unwrap();
        wal.append(&wr(0, 1, 2)).unwrap();
        wal.sync().unwrap();
        let got = wal.read_range(RangeId(0), Lsn::ZERO, Lsn::MAX).unwrap();
        assert_eq!(got.len(), 2, "notes are not write records");
        assert_eq!(wal.state(RangeId(0)).last_committed, Lsn::new(1, 1));
    }

    #[test]
    fn epochs_interleave_correctly() {
        // Fig. 10: records from epoch 1 and epoch 2 coexist; ordering and
        // state must follow (epoch, seq).
        let vfs = MemVfs::new();
        let mut wal = wal_on(&vfs);
        for seq in 20..=21 {
            wal.append(&wr(0, 1, seq)).unwrap();
        }
        for seq in 22..=30 {
            wal.append(&wr(0, 2, seq)).unwrap();
        }
        wal.sync().unwrap();
        let st = wal.state(RangeId(0));
        assert_eq!(st.last_lsn, Lsn::new(2, 30));
        let got = wal.read_range(RangeId(0), Lsn::new(1, 20), Lsn::MAX).unwrap();
        assert_eq!(got.len(), 10);
        assert_eq!(got[0].0, Lsn::new(1, 21));
        assert_eq!(got[1].0, Lsn::new(2, 22));
    }

    #[test]
    fn retire_stream_forgets_the_cohort_and_frees_segments() {
        let vfs = MemVfs::new();
        let mut wal =
            Wal::open(Arc::new(vfs.clone()), WalOptions { dir: "wal".into(), segment_bytes: 256 })
                .unwrap();
        // Cohort 0 fills several segments; cohort 1 stays small and live.
        for seq in 1..=40 {
            wal.append(&wr(0, 1, seq)).unwrap();
        }
        wal.append(&wr(1, 1, 1)).unwrap();
        wal.truncate_logically(RangeId(0), &[Lsn::new(1, 40)]).unwrap();
        wal.set_checkpoint(RangeId(0), Lsn::new(1, 10)).unwrap();
        wal.sync().unwrap();
        let before = wal.segment_count();

        wal.retire_stream(RangeId(0)).unwrap();
        let st = wal.state(RangeId(0));
        assert_eq!(st.last_lsn, Lsn::ZERO, "stream reads as pristine");
        assert_eq!(wal.checkpoint(RangeId(0)), Lsn::ZERO);
        assert_eq!(wal.indexed_records(RangeId(0)), 0);
        assert!(wal.skipped_lsns(RangeId(0)).is_empty());
        // Rolling the segment makes the retired stream's segments garbage.
        for seq in 2..=20 {
            wal.append(&wr(1, 1, seq)).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.segment_count() <= before, "retired segments collected");
        // The other cohort is untouched.
        assert_eq!(wal.read_range(RangeId(1), Lsn::ZERO, Lsn::MAX).unwrap().len(), 20);

        // And the retirement is durable across restart.
        let reopened = Wal::open(
            Arc::new(vfs.crash_clone()),
            WalOptions { dir: "wal".into(), segment_bytes: 256 },
        );
        // Old cohort-0 records may still sit in surviving segments, but
        // the cohorts sidecar no longer lists the cohort.
        assert_eq!(reopened.unwrap().checkpoint(RangeId(0)), Lsn::ZERO);
    }

    /// A checkpoint never moves back, in memory or across a reopen.
    #[test]
    fn a_checkpoint_never_moves_back() {
        let vfs = MemVfs::new();
        let mut wal = wal_on(&vfs);
        assert_eq!(wal.checkpoint(RangeId(0)), Lsn::ZERO);
        wal.set_checkpoint(RangeId(0), Lsn::new(1, 10)).unwrap();
        wal.set_checkpoint(RangeId(0), Lsn::new(1, 5)).unwrap(); // ignored: would move back
        assert_eq!(wal.checkpoint(RangeId(0)), Lsn::new(1, 10));

        let after = vfs.crash_clone();
        let mut wal = wal_on(&after);
        assert_eq!(wal.checkpoint(RangeId(0)), Lsn::new(1, 10));
        wal.set_checkpoint(RangeId(0), Lsn::new(1, 5)).unwrap();
        assert_eq!(wal_on(&after.crash_clone()).checkpoint(RangeId(0)), Lsn::new(1, 10));
        wal.set_checkpoint(RangeId(0), Lsn::new(2, 11)).unwrap();
        assert_eq!(wal_on(&after.crash_clone()).checkpoint(RangeId(0)), Lsn::new(2, 11));
    }

    /// Truncated LSNs at or below a new checkpoint can never be replayed
    /// again: they are forgotten, and stay forgotten after a reopen.
    #[test]
    fn skipped_lsns_at_or_below_a_checkpoint_are_dropped() {
        let vfs = MemVfs::new();
        let mut wal = wal_on(&vfs);
        let lsns = [Lsn::new(1, 5), Lsn::new(1, 22), Lsn::new(2, 3)];
        wal.truncate_logically(RangeId(0), &lsns).unwrap();
        wal.set_checkpoint(RangeId(0), Lsn::new(1, 22)).unwrap();
        assert_eq!(wal.skipped_lsns(RangeId(0)), vec![Lsn::new(2, 3)]);
        assert_eq!(wal_on(&vfs.crash_clone()).skipped_lsns(RangeId(0)), vec![Lsn::new(2, 3)]);
    }

    /// A log without a sidecar (a fresh node) has no checkpoint and no
    /// skipped LSN for any cohort, and replays from the beginning.
    #[test]
    fn a_log_without_a_sidecar_opens_pristine() {
        let vfs = MemVfs::new();
        let mut wal = wal_on(&vfs);
        wal.append(&wr(0, 1, 1)).unwrap();
        wal.sync().unwrap();
        assert!(!vfs.exists("wal/cohorts").unwrap(), "nothing to list, nothing written");
        let reopened = wal_on(&vfs.crash_clone());
        assert_eq!(reopened.checkpoint(RangeId(0)), Lsn::ZERO);
        assert!(reopened.skipped_lsns(RangeId(0)).is_empty());
        assert_eq!(reopened.read_range(RangeId(0), Lsn::ZERO, Lsn::MAX).unwrap().len(), 1);
    }

    /// The sidecar is replaced whole and atomically: a crash right after
    /// a logical truncation, and right after a checkpoint, reopens with
    /// both the checkpoint and the skipped LSNs.
    #[test]
    fn the_sidecar_survives_a_crash_after_each_save() {
        let vfs = MemVfs::new();
        let mut wal = wal_on(&vfs);
        for seq in 1..=5 {
            wal.append(&wr(0, 1, seq)).unwrap();
        }
        wal.sync().unwrap();
        wal.set_checkpoint(RangeId(0), Lsn::new(1, 2)).unwrap();
        wal.truncate_logically(RangeId(0), &[Lsn::new(1, 5)]).unwrap();
        let reopened = wal_on(&vfs.crash_clone());
        assert_eq!(reopened.checkpoint(RangeId(0)), Lsn::new(1, 2));
        assert_eq!(reopened.skipped_lsns(RangeId(0)), vec![Lsn::new(1, 5)]);
        assert_eq!(reopened.state(RangeId(0)).last_lsn, Lsn::new(1, 4));

        wal.set_checkpoint(RangeId(0), Lsn::new(1, 3)).unwrap();
        let reopened = wal_on(&vfs.crash_clone());
        assert_eq!(reopened.checkpoint(RangeId(0)), Lsn::new(1, 3));
        assert_eq!(reopened.skipped_lsns(RangeId(0)), vec![Lsn::new(1, 5)]);
        let tail = reopened.read_range(RangeId(0), Lsn::new(1, 3), Lsn::MAX).unwrap();
        assert_eq!(tail.iter().map(|(l, _)| l.seq()).collect::<Vec<_>>(), vec![4]);
    }

    /// Every cohort's checkpoint comes back from the one sidecar under
    /// its own id; a cohort it does not list has none.
    #[test]
    fn checkpoints_of_several_cohorts_survive_a_reopen() {
        let vfs = MemVfs::new();
        let mut wal = wal_on(&vfs);
        wal.set_checkpoint(RangeId(0), Lsn::new(1, 3)).unwrap();
        wal.set_checkpoint(RangeId(7), Lsn::new(4, 9)).unwrap();
        let reopened = wal_on(&vfs.crash_clone());
        assert_eq!(reopened.checkpoint(RangeId(0)), Lsn::new(1, 3));
        assert_eq!(reopened.checkpoint(RangeId(7)), Lsn::new(4, 9));
        assert_eq!(reopened.checkpoint(RangeId(1)), Lsn::ZERO);
    }

    /// Every cohort's skipped LSNs come back under its own id too, with
    /// no checkpoint where none was set.
    #[test]
    fn skipped_lsns_of_several_cohorts_survive_a_reopen() {
        let vfs = MemVfs::new();
        let mut wal = wal_on(&vfs);
        wal.truncate_logically(RangeId(0), &[Lsn::new(1, 22)]).unwrap();
        wal.truncate_logically(RangeId(2), &[Lsn::new(3, 7)]).unwrap();
        let reopened = wal_on(&vfs.crash_clone());
        assert_eq!(reopened.skipped_lsns(RangeId(0)), vec![Lsn::new(1, 22)]);
        assert_eq!(reopened.skipped_lsns(RangeId(2)), vec![Lsn::new(3, 7)]);
        assert_eq!(reopened.checkpoint(RangeId(2)), Lsn::ZERO);
        assert!(reopened.skipped_lsns(RangeId(1)).is_empty());
    }

    /// Truncating an LSN twice remembers it once, and the list is kept in
    /// LSN order whatever order the truncations came in.
    #[test]
    fn truncating_an_lsn_twice_remembers_it_once() {
        let vfs = MemVfs::new();
        let mut wal = wal_on(&vfs);
        wal.truncate_logically(RangeId(0), &[Lsn::new(1, 22), Lsn::new(1, 22)]).unwrap();
        wal.truncate_logically(RangeId(0), &[Lsn::new(1, 5), Lsn::new(1, 22)]).unwrap();
        let want = vec![Lsn::new(1, 5), Lsn::new(1, 22)];
        assert_eq!(wal.skipped_lsns(RangeId(0)), want);
        assert_eq!(wal_on(&vfs.crash_clone()).skipped_lsns(RangeId(0)), want);
    }

    fn batch_rec(cohort: u32, epoch: u16, first: u64, n: u64) -> LogRecord {
        let ops: Vec<WriteOp> = (first..first + n)
            .map(|seq| op::put(&format!("k{seq}"), "c", &format!("v{seq}")))
            .collect();
        LogRecord::batch(RangeId(cohort), Lsn::new(epoch, first), ops)
    }

    #[test]
    fn batch_decomposes_into_per_lsn_replay() {
        let vfs = MemVfs::new();
        let mut wal = wal_on(&vfs);
        wal.append(&wr(0, 1, 1)).unwrap();
        wal.append(&batch_rec(0, 1, 2, 4)).unwrap(); // LSNs 1.2 .. 1.5
        wal.append(&wr(0, 1, 6)).unwrap();
        wal.sync().unwrap();
        let st = wal.state(RangeId(0));
        assert_eq!(st.last_lsn, Lsn::new(1, 6));
        let got = wal.read_range(RangeId(0), Lsn::ZERO, Lsn::MAX).unwrap();
        let lsns: Vec<u64> = got.iter().map(|(l, _)| l.seq()).collect();
        assert_eq!(lsns, vec![1, 2, 3, 4, 5, 6]);
        // Each decomposed op is the right one out of the frame.
        for (lsn, op) in &got {
            assert_eq!(op.key.as_bytes(), format!("k{}", lsn.seq()).as_bytes());
        }
        // A sub-range cutting through the batch still resolves per-LSN.
        let mid = wal.read_range(RangeId(0), Lsn::new(1, 2), Lsn::new(1, 4)).unwrap();
        assert_eq!(mid.iter().map(|(l, _)| l.seq()).collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn batch_survives_crash_recovery_whole() {
        let vfs = MemVfs::new();
        let mut wal = wal_on(&vfs);
        wal.append(&batch_rec(0, 1, 1, 3)).unwrap();
        wal.sync().unwrap();
        let reopened = wal_on(&vfs.crash_clone());
        assert_eq!(reopened.state(RangeId(0)).last_lsn, Lsn::new(1, 3));
        assert_eq!(reopened.read_range(RangeId(0), Lsn::ZERO, Lsn::MAX).unwrap().len(), 3);
        assert_eq!(reopened.indexed_records(RangeId(0)), 3);
    }

    #[test]
    fn unsynced_batch_is_all_or_nothing_on_crash() {
        let vfs = MemVfs::new();
        let mut wal = wal_on(&vfs);
        wal.append(&wr(0, 1, 1)).unwrap();
        wal.sync().unwrap();
        wal.append(&batch_rec(0, 1, 2, 5)).unwrap(); // never forced
        let reopened = wal_on(&vfs.crash_clone());
        // The frame checksum guards the whole batch: no op of it survives.
        assert_eq!(reopened.state(RangeId(0)).last_lsn, Lsn::new(1, 1));
        assert_eq!(reopened.read_range(RangeId(0), Lsn::ZERO, Lsn::MAX).unwrap().len(), 1);
    }

    #[test]
    fn checkpoint_through_middle_of_batch() {
        let vfs = MemVfs::new();
        let mut wal = wal_on(&vfs);
        wal.append(&batch_rec(0, 1, 1, 4)).unwrap();
        wal.sync().unwrap();
        wal.set_checkpoint(RangeId(0), Lsn::new(1, 2)).unwrap();
        // Ops above the checkpoint stay replayable; below are dropped.
        let tail = wal.read_range(RangeId(0), Lsn::new(1, 2), Lsn::MAX).unwrap();
        assert_eq!(tail.iter().map(|(l, _)| l.seq()).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(wal.indexed_records(RangeId(0)), 2);
        // And the same view is rebuilt after a crash.
        let reopened = wal_on(&vfs.crash_clone());
        assert_eq!(reopened.indexed_records(RangeId(0)), 2);
        assert_eq!(reopened.state(RangeId(0)).last_lsn, Lsn::new(1, 4));
    }

    #[test]
    fn logical_truncation_inside_a_batch() {
        let vfs = MemVfs::new();
        let mut wal = wal_on(&vfs);
        wal.append(&batch_rec(0, 1, 1, 3)).unwrap();
        wal.sync().unwrap();
        wal.truncate_logically(RangeId(0), &[Lsn::new(1, 3)]).unwrap();
        assert_eq!(wal.state(RangeId(0)).last_lsn, Lsn::new(1, 2));
        let got = wal.read_range(RangeId(0), Lsn::ZERO, Lsn::MAX).unwrap();
        assert_eq!(got.iter().map(|(l, _)| l.seq()).collect::<Vec<_>>(), vec![1, 2]);
        // Honoured by recovery too.
        let reopened = wal_on(&vfs.crash_clone());
        assert_eq!(reopened.read_range(RangeId(0), Lsn::ZERO, Lsn::MAX).unwrap().len(), 2);
    }

    #[test]
    fn reopen_after_rollover_reads_sealed_segments() {
        let vfs = MemVfs::new();
        {
            let mut wal = Wal::open(
                Arc::new(vfs.clone()),
                WalOptions { dir: "wal".into(), segment_bytes: 200 },
            )
            .unwrap();
            for seq in 1..=20 {
                wal.append(&wr(0, 1, seq)).unwrap();
            }
            wal.sync().unwrap();
        }
        let wal = Wal::open(
            Arc::new(vfs.crash_clone()),
            WalOptions { dir: "wal".into(), segment_bytes: 200 },
        )
        .unwrap();
        assert_eq!(wal.read_range(RangeId(0), Lsn::ZERO, Lsn::MAX).unwrap().len(), 20);
    }
}
