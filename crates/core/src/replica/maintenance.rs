//! The maintenance tick: the MVCC garbage-collection floor, memtable
//! flush and compaction.

use super::{RangeReplica, Runtime};

impl RangeReplica {
    /// Memtable flush / compaction check. Also advances the MVCC
    /// garbage-collection floor: version chains older than
    /// `snapshot_retain` fall out at the next compaction, so a snapshot
    /// pinned within the retention window never loses its cut.
    pub(crate) fn maintenance_tick(&mut self, rt: &mut Runtime<'_>, now: u64) {
        // The floor chases `now - snapshot_retain` but never passes the
        // oldest live pin lease: an active reader holds its cut open by
        // renewing (every page served renews), an abandoned one lets the
        // lease lapse and the cut is reclaimed here.
        self.pins.retain(|_, expiry| *expiry > now);
        let mut floor = now.saturating_sub(rt.cfg.snapshot_retain);
        if let Some((&oldest, _)) = self.pins.iter().next() {
            floor = floor.min(oldest);
        }
        self.store.set_gc_floor(floor);
        if self.store.needs_flush() {
            // A flush or compaction that fails leaves a device this node
            // cannot trust: fail-stop (a failed flush stops before the
            // checkpoint moves, so a restart replays the rows from the
            // log), and the cohort's next leader serves its own copy.
            let Some(flushed) = rt.fail_stop(self.store.flush()) else {
                return;
            };
            if let Some(flushed) = flushed {
                // Safe to ignore: the rows are in a table the saved
                // manifest lists, and a checkpoint that fails to save
                // makes recovery replay more of the log, never less.
                // spinlint: allow(E1) -- a lost checkpoint only replays more
                let _ = rt.wal.set_checkpoint(self.range, flushed);
            }
            rt.fail_stop(self.store.maybe_compact());
        }
    }
}
