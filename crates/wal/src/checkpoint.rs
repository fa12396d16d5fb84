//! Per-cohort checkpoints: the replay start position of local recovery.
//!
//! When a cohort's memtable is flushed to an SSTable, every write at or
//! below the flush LSN is durable in the LSM tree and never needs to be
//! replayed again. The checkpoint records that LSN; local recovery replays
//! `checkpoint → f.cmt` (paper §6.1) and log segments entirely below all
//! checkpoints become garbage-collectable.

use std::collections::BTreeMap;

use spinnaker_common::codec::{self, Decode, Encode, Source};
use spinnaker_common::vfs::Vfs;
use spinnaker_common::{Lsn, RangeId, Result};

/// Durable per-cohort checkpoint LSNs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Checkpoints {
    by_cohort: BTreeMap<RangeId, Lsn>,
}

impl Checkpoints {
    /// Empty set (all cohorts replay from the beginning).
    pub fn new() -> Checkpoints {
        Checkpoints::default()
    }

    /// The checkpoint of `cohort` (`Lsn::ZERO` when never flushed).
    pub fn get(&self, cohort: RangeId) -> Lsn {
        self.by_cohort.get(&cohort).copied().unwrap_or(Lsn::ZERO)
    }

    /// Advance the checkpoint of `cohort`. Checkpoints never move backwards.
    pub fn advance(&mut self, cohort: RangeId, lsn: Lsn) {
        let entry = self.by_cohort.entry(cohort).or_insert(Lsn::ZERO);
        if lsn > *entry {
            *entry = lsn;
        }
    }

    /// Forget `cohort` entirely (its range was dissolved or its replica
    /// departed this node): the stream will never be replayed again, so
    /// its entry stops occupying the sidecar file.
    pub fn remove(&mut self, cohort: RangeId) {
        self.by_cohort.remove(&cohort);
    }

    /// Iterate `(cohort, checkpoint)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RangeId, Lsn)> + '_ {
        self.by_cohort.iter().map(|(&c, &l)| (c, l))
    }

    /// Load from `path`, returning an empty set when absent.
    pub fn load(vfs: &dyn Vfs, path: &str) -> Result<Checkpoints> {
        if !vfs.exists(path)? {
            return Ok(Checkpoints::default());
        }
        let data = vfs.read_all(path)?;
        Checkpoints::decode(&mut data.as_slice())
    }

    /// Persist durably (write sideways + rename).
    pub fn save(&self, vfs: &dyn Vfs, path: &str) -> Result<()> {
        vfs.write_atomic(path, &self.encode_to_vec())
    }
}

impl Encode for Checkpoints {
    fn encode(&self, buf: &mut Vec<u8>) {
        codec::put_varint(buf, self.by_cohort.len() as u64);
        for (cohort, lsn) in &self.by_cohort {
            codec::put_varint(buf, cohort.0 as u64);
            lsn.encode(buf);
        }
    }
}

impl Decode for Checkpoints {
    fn decode_from(buf: &mut Source<'_>) -> Result<Checkpoints> {
        let n = codec::get_varint(buf)? as usize;
        let mut out = Checkpoints::default();
        for _ in 0..n {
            let cohort = RangeId(codec::get_varint(buf)? as u32);
            out.by_cohort.insert(cohort, Lsn::decode_from(buf)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinnaker_common::vfs::MemVfs;

    #[test]
    fn advance_is_monotonic() {
        let mut cp = Checkpoints::new();
        assert_eq!(cp.get(RangeId(0)), Lsn::ZERO);
        cp.advance(RangeId(0), Lsn::new(1, 10));
        cp.advance(RangeId(0), Lsn::new(1, 5)); // ignored: would move back
        assert_eq!(cp.get(RangeId(0)), Lsn::new(1, 10));
        cp.advance(RangeId(0), Lsn::new(2, 11));
        assert_eq!(cp.get(RangeId(0)), Lsn::new(2, 11));
    }

    #[test]
    fn roundtrip_and_missing() {
        let vfs = MemVfs::new();
        assert_eq!(Checkpoints::load(&vfs, "wal/cp").unwrap(), Checkpoints::new());
        let mut cp = Checkpoints::new();
        cp.advance(RangeId(0), Lsn::new(1, 3));
        cp.advance(RangeId(7), Lsn::new(4, 9));
        cp.save(&vfs, "wal/cp").unwrap();
        assert_eq!(Checkpoints::load(&vfs, "wal/cp").unwrap(), cp);
    }
}
