//! The maintenance tick: the MVCC garbage-collection floor, memtable
//! flush and compaction, and the load/size sample behind automatic
//! splits and merges.

use super::{RangeReplica, Role, Runtime};

/// What the load/size statistics recommend for a range (sampled on the
/// maintenance tick when a reshard policy is configured).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ReshardAdvice {
    /// Nothing to do.
    None,
    /// Hot or oversized: split at the store's median key.
    Split,
    /// Cold and small: merge with the right-hand neighbour if eligible.
    MergeRight,
}

impl RangeReplica {
    /// Memtable flush / compaction check, plus the load/size sample
    /// behind automatic split/merge triggers. Also advances the MVCC
    /// garbage-collection floor: version chains older than
    /// `snapshot_retain` fall out at the next compaction, so a snapshot
    /// pinned within the retention window never loses its cut.
    pub(crate) fn maintenance_tick(&mut self, rt: &mut Runtime<'_>, now: u64) -> ReshardAdvice {
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
                return ReshardAdvice::None;
            };
            if let Some(flushed) = flushed {
                // Safe to ignore: the rows are in a table the saved
                // manifest lists, and a checkpoint that fails to save
                // makes recovery replay more of the log, never less.
                // spinlint: allow(E1) -- a lost checkpoint only replays more
                let _ = rt.wal.set_checkpoint(self.range, flushed);
            }
            if rt.fail_stop(self.store.maybe_compact()).is_none() {
                return ReshardAdvice::None;
            }
        }

        let elapsed = now.saturating_sub(self.last_sample_at);
        let ops = std::mem::take(&mut self.ops_since_sample);
        self.last_sample_at = now;
        self.samples += 1;
        let Some(policy) = rt.cfg.reshard.as_ref() else { return ReshardAdvice::None };
        // Hysteresis: let the statistics settle after attach, and never
        // trigger while another reconfiguration is already running.
        if self.samples < 3
            || self.role != Role::Leader
            || self.barrier_pending()
            || self.moving.is_some()
            || self.takeover.is_some()
            || elapsed == 0
        {
            return ReshardAdvice::None;
        }
        let ops_per_sec = ops as f64 * 1e9 / elapsed as f64;
        let bytes = self.store.approx_total_bytes();
        if ops_per_sec > policy.split_ops_per_sec || bytes > policy.split_bytes {
            return ReshardAdvice::Split;
        }
        if ops_per_sec < policy.merge_ops_per_sec && bytes < policy.merge_bytes {
            return ReshardAdvice::MergeRight;
        }
        ReshardAdvice::None
    }
}
