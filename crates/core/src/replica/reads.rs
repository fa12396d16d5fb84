//! Reads (§5, §3): the consistency gate every get and scan page passes,
//! the snapshot safe point and the closed-timestamp promise that bound
//! which replica may serve a cut, the pin leases that hold a cut open
//! against garbage collection, and the gets and scan pages themselves.

use spinnaker_common::{ColumnName, ColumnValue, Consistency, Key, SnapshotTs};

use super::{RangeReplica, Role, Runtime};
use crate::messages::{
    Addr, ClientError, ClientReply, ColumnSelect, Outbox, ReadCell, RequestId, ScanRow,
};

/// A column of a row read as a client sees it: a tombstone keeps its
/// version and loses its value.
fn read_cell(col: &ColumnName, cv: &ColumnValue) -> ReadCell {
    ReadCell {
        col: col.clone(),
        value: (!cv.tombstone).then(|| cv.value.clone()),
        version: cv.version,
    }
}

impl RangeReplica {
    /// Snapshot pages this replica has served so far (any role).
    pub fn snapshot_pages(&self) -> u64 {
        self.snapshot_pages
    }

    /// Register (or renew) a pin lease on snapshot timestamp `ts`: the
    /// GC floor will not pass `ts` until the lease expires un-renewed.
    fn note_pin(&mut self, rt: &Runtime<'_>, ts: u64) {
        if rt.cfg.pin_lease == 0 {
            return;
        }
        let expiry = rt.now.saturating_add(rt.cfg.pin_lease);
        let e = self.pins.entry(ts).or_insert(expiry);
        *e = (*e).max(expiry);
    }

    /// The closed timestamp the leader advertises on commit traffic: a
    /// promise that nothing will ever commit at or below it again.
    ///
    /// With writes in flight the promise stops just under the oldest
    /// pending commit timestamp. Idle, it **rides the clock**: the next
    /// write is stamped `max(last_ts + 1, served_ts + 1, now)`, and
    /// `served_ts` is fenced up to every promise made here, so a promise
    /// at `now` can never be violated by a later write. Riding the clock
    /// is what keeps pins on write-quiet ranges serveable by followers —
    /// a promise capped at the last applied write would leave any fresher
    /// pin chained to the leader forever.
    ///
    /// The promise survives failover: a follower folds its adopted
    /// `closed_ts` into `last_ts`/`served_ts` on takeover, and even an
    /// elected successor that missed the heartbeat stamps at or above the
    /// (monotone) clock that produced the promise. `0` (commit
    /// piggy-backing off — followers cannot judge caught-up-ness without
    /// the watermark) disables.
    pub(super) fn advertised_closed_ts(&mut self, rt: &Runtime<'_>) -> u64 {
        if !rt.cfg.piggyback_commits {
            return 0;
        }
        let closed = match self.cq.min_pending_ts() {
            Some(ts) => ts.saturating_sub(1),
            None => self.last_ts.max(self.store.max_ts()).max(rt.now),
        };
        self.served_ts = self.served_ts.max(closed);
        closed
    }

    /// Consistency gate shared by reads and scans: strong ops only at
    /// the leader, timeline ops at any live replica, snapshot ops at any
    /// replica whose applied history covers the read timestamp (with
    /// pinning — `ts == 0` — reserved for the leader). Returns the
    /// timestamp to read at (`u64::MAX` = latest, for strong and
    /// timeline), or the redirect to answer with.
    fn admit_read(
        &mut self,
        rt: &Runtime<'_>,
        consistency: Consistency,
    ) -> Result<u64, ClientError> {
        match consistency {
            Consistency::Strong => {
                // Strongly consistent reads are always routed to the
                // cohort's leader (§5).
                if self.role != Role::Leader {
                    return Err(ClientError::NotLeader { hint: self.leader });
                }
                Ok(u64::MAX)
            }
            Consistency::Timeline => {
                // Any live replica may answer, possibly stale.
                if self.role == Role::Offline {
                    return Err(ClientError::Unavailable);
                }
                Ok(u64::MAX)
            }
            Consistency::Snapshot(SnapshotTs::Pin) => {
                // Pinning read: the leader chooses the snapshot
                // timestamp — its safe point covers every write it has
                // acknowledged, so the pinned cut is as fresh as a
                // strong read.
                if self.role != Role::Leader {
                    return Err(ClientError::NotLeader { hint: self.leader });
                }
                self.snapshot_pages += 1;
                let pin = self.snapshot_safe_ts(rt);
                // Fence the clock: no later write may commit at or
                // below the pinned timestamp.
                self.served_ts = self.served_ts.max(pin);
                // Lease the cut: GC must not reclaim it while the scan
                // that just pinned it is still walking pages.
                self.note_pin(rt, pin);
                Ok(pin)
            }
            Consistency::Snapshot(SnapshotTs::At(ts)) => {
                // A pinned page: any replica whose *snapshot bound* —
                // applied watermark, or the leader's closed-timestamp
                // promise — covers `ts` may serve it. One that cannot
                // answers `Unavailable`; the client backs off and
                // retries (the leader always converges on coverage, so
                // the scan makes progress).
                if self.role == Role::Offline {
                    return Err(ClientError::Unavailable);
                }
                // A pin below the MVCC garbage-collection floor may
                // reference versions compaction already pruned; serving
                // it could silently return a corrupted cut. The floor is
                // replica-local, though, and pin leases are tracked
                // where pages are admitted — so only the leader (whose
                // floor is held back by every live lease) declares the
                // snapshot dead for good. A follower that already
                // pruned answers `Unavailable`; the session redirects
                // the page to the leader, which serves it *and renews
                // the lease*. (`u64::MAX` = the floor was never armed:
                // everything is still retained.)
                let floor = self.store.gc_floor();
                if floor != u64::MAX && ts < floor {
                    return Err(if self.role == Role::Leader {
                        ClientError::SnapshotTooOld { floor }
                    } else {
                        ClientError::Unavailable
                    });
                }
                if ts > self.snapshot_safe_ts(rt) {
                    return Err(ClientError::Unavailable);
                }
                if self.role == Role::Leader {
                    self.served_ts = self.served_ts.max(ts);
                }
                self.snapshot_pages += 1;
                // Every page renews the cut's lease, so a scan making
                // progress — however slowly — never outlives retention.
                self.note_pin(rt, ts);
                Ok(ts)
            }
        }
    }

    /// The highest snapshot timestamp this replica can serve: everything
    /// committed at or below it is applied locally, and — on the leader —
    /// nothing can commit at or below it afterwards.
    ///
    /// * Leader with writes in flight: just below the oldest pending
    ///   commit timestamp (everything older is applied, the pending ones
    ///   are not yet readable).
    /// * Idle leader with closed timestamps on: the frontier of the last
    ///   promise (`served_ts` is fenced to every closed timestamp
    ///   advertised, at most one commit period stale). Deliberately
    ///   **not** the raw clock — a pin above the advertised promise could
    ///   not be served by any follower until the next heartbeat, chaining
    ///   the first page of every scan on a write-quiet range to the
    ///   leader. Without closed timestamps there is no promise to track
    ///   and no follower serving to protect, so the pin rides the clock
    ///   for freshness (a stale pin risks outliving the GC floor
    ///   mid-scan).
    /// * Follower: its applied watermark (commit order equals timestamp
    ///   order, so "applied through ts T" means "nothing ≤ T missing"),
    ///   extended by the leader's closed-timestamp promise — the leader
    ///   vouched that nothing else will ever commit at or below
    ///   `closed_ts`, and the adoption rule made sure we had applied
    ///   everything the promise covers.
    fn snapshot_safe_ts(&self, rt: &Runtime<'_>) -> u64 {
        if matches!(self.role, Role::Leader) {
            match self.cq.min_pending_ts() {
                Some(ts) => ts.saturating_sub(1),
                None if rt.cfg.piggyback_commits => self.last_ts.max(self.served_ts),
                None => self.last_ts.max(self.served_ts).max(rt.now),
            }
        } else {
            self.store.max_ts().max(self.closed_ts)
        }
    }

    /// §3 `get`: one column, a column set, or the whole row. Deleted
    /// columns come back as [`ReadCell`]s with `value: None` and the
    /// tombstone's version; never-written columns are simply absent.
    /// Under [`Consistency::Snapshot`] the row state is the one visible
    /// at the read timestamp ([`spinnaker_storage::RangeStore::get_at`]).
    /// A row the store cannot read fail-stops the node, unanswered.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_get(
        &mut self,
        rt: &mut Runtime<'_>,
        from: Addr,
        req: RequestId,
        key: &Key,
        columns: &ColumnSelect,
        consistency: Consistency,
        out: &mut Outbox,
    ) {
        let read_ts = match self.admit_read(rt, consistency) {
            Ok(ts) => ts,
            Err(err) => return out.reply(from, ClientReply::err(req, err)),
        };
        let Some(row) = rt.fail_stop(self.store.get_at(key, read_ts)) else { return };
        let row = row.unwrap_or_default();
        let cell_of = |col: &ColumnName| row.get(col).map(|cv| read_cell(col, cv));
        let cells = match columns {
            ColumnSelect::All => row.columns.iter().map(|(col, cv)| read_cell(col, cv)).collect(),
            ColumnSelect::One(col) => cell_of(col).into_iter().collect(),
            ColumnSelect::Set(cols) => cols.iter().filter_map(cell_of).collect(),
        };
        // Piggyback the read timestamp: a pinning get learns the
        // timestamp the leader chose and can replay the same cut in
        // later snapshot reads.
        let at_ts = if read_ts == u64::MAX { 0 } else { read_ts };
        out.reply(from, ClientReply::Row { req, cells, at_ts });
    }

    /// One page of a range scan, clamped to this replica's key span. The
    /// reply carries the rows plus a continuation key: the in-range
    /// resume point when the page limit was hit, or this range's end
    /// when the scan extends past it (the client re-routes the cursor
    /// through the range table — which is exactly what keeps a logical
    /// scan correct across live splits, merges, and cohort moves).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_scan(
        &mut self,
        rt: &mut Runtime<'_>,
        from: Addr,
        req: RequestId,
        start: &Key,
        end: Option<&Key>,
        limit: u32,
        consistency: Consistency,
        out: &mut Outbox,
        ring_version: u64,
    ) {
        // The cursor must lie inside our span; a mismatch means routing
        // raced a reconfiguration — the client refreshes and re-sends.
        let inside = start >= &self.span.0 && self.span.1.as_ref().is_none_or(|se| start < se);
        if !inside {
            let err = ClientError::WrongRange { version: ring_version };
            return out.reply(from, ClientReply::err(req, err));
        }
        let read_ts = match self.admit_read(rt, consistency) {
            Ok(ts) => ts,
            Err(err) => return out.reply(from, ClientReply::err(req, err)),
        };
        // Clamp the scan bounds to the span this replica owns.
        let hi: Option<&Key> = match (end, self.span.1.as_ref()) {
            (Some(e), Some(se)) => Some(if e < se { e } else { se }),
            (Some(e), None) => Some(e),
            (None, se) => se,
        };
        let limit = (limit.max(1) as usize).min(4096);
        let page = match read_ts {
            u64::MAX => self.store.scan_page(start, hi, limit),
            ts => self.store.scan_page_at(start, hi, limit, ts),
        };
        let Some((raw, next)) = rt.fail_stop(page) else { return };
        let rows: Vec<ScanRow> = raw
            .into_iter()
            .filter_map(|(key, row)| {
                let cells: Vec<ReadCell> = row
                    .columns
                    .iter()
                    .filter(|(_, cv)| !cv.tombstone)
                    .map(|(col, cv)| read_cell(col, cv))
                    .collect();
                // Fully-deleted rows are omitted: a scan enumerates what
                // exists (the page still consumed the slot, but the
                // continuation key keeps the cursor exact).
                (!cells.is_empty()).then_some(ScanRow { key, cells })
            })
            .collect();
        // Where the logical scan continues: inside our span (page limit
        // hit), at our span's end (scan extends past this range), or
        // nowhere (done).
        let resume = next.or_else(|| match (self.span.1.as_ref(), end) {
            (None, _) => None,
            (Some(se), None) => Some(se.clone()),
            (Some(se), Some(e)) if se < e => Some(se.clone()),
            (Some(_), Some(_)) => None,
        });
        // Piggyback the read timestamp: for a snapshot page this is the
        // pinned (or just-pinned) cut the client carries forward.
        let at_ts = if read_ts == u64::MAX { 0 } else { read_ts };
        out.reply(from, ClientReply::Rows { req, rows, resume, at_ts });
    }
}
