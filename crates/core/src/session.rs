//! Typed client sessions: the full §3 op surface over the unified
//! [`ClientRequest`]/[`ClientReply`] protocol.
//!
//! A [`Session`] is the sans-IO client runtime. Callers submit typed
//! [`SessionCall`]s (`get`, `put`, `delete`, `conditional_put`,
//! `conditional_delete`, and multi-range `scan`); the session owns
//! everything between a call and its [`CallOutcome`]:
//!
//! * **routing** — keys route through the session's cached range table;
//!   strong ops (and snapshot pins) go to the cached cohort leader,
//!   timeline reads and pinned snapshot pages to a random replica;
//! * **redirects** — `NotLeader` hints are learned, and so is the
//!   leader every `WriteOk` names (after a failover, the successor that
//!   answered for its predecessor); `WrongRange` refreshes the table
//!   (splits, merges, and cohort moves re-route live traffic), leader
//!   guesses rotate modulo the range's **actual cohort size**. A
//!   successor's [`ClientReply::Leader`] notice is learned too, and
//!   re-sends at once a strong op whose last attempt went to another
//!   node — a write the dead leader took but never proposed — which the
//!   retry timer would otherwise re-send only when it fires;
//! * **scan continuation** — a logical scan fans across every range it
//!   crosses: each reply's continuation key becomes the next page's
//!   cursor, re-routed through the (possibly refreshed) table, so the
//!   scan stays exact across live re-sharding;
//! * **snapshot pinning** — a [`Consistency::Snapshot`] scan submitted
//!   with [`SnapshotTs::Pin`] lets the first page's leader choose the
//!   read timestamp; the session rewrites the call to
//!   [`SnapshotTs::At`] that timestamp for every subsequent page, so
//!   the assembled result is one consistent cut of the whole key space
//!   no matter what commits, splits, or merges land mid-scan;
//! * **pipelining** — up to `window` calls are outstanding at once,
//!   each with its own retry/redirect state. A window of one is the
//!   classic closed loop; larger windows give the leader real batches
//!   to group-commit.
//!
//! Every transmission gets a fresh [`RequestId`], so a straggler reply
//! from a superseded attempt can never complete (or corrupt the scan
//! accumulator of) the current one.
//!
//! # Quick start
//!
//! The session is sans-IO: [`Session::wire`] tells the host *what* to
//! send *where*, and [`Session::on_reply`] digests whatever comes back.
//! A minimal host loop:
//!
//! ```
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use spinnaker_core::messages::ClientReply;
//! use spinnaker_core::partition::Ring;
//! use spinnaker_core::session::{CallOutcome, Session, SessionCall, SessionStep};
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let mut session = Session::new(Ring::with_nodes(3), 1);
//!
//! // Submit a typed call and launch it into the window.
//! let call = session.submit(SessionCall::Put {
//!     key: spinnaker_common::Key::from("user:42"),
//!     cells: vec![(bytes::Bytes::from_static(b"email"), bytes::Bytes::from_static(b"x@y.z"))],
//! });
//! let req = session.launch().start;
//!
//! // The session picks the target node and builds the wire request;
//! // a real host hands `wire` to its transport.
//! let (node, wire) = session.wire(req, &mut rng).unwrap();
//! assert_eq!(wire.req, req);
//!
//! // ... the leader commits and replies; the session resolves the call.
//! let reply = ClientReply::WriteOk { req, version: 99, ts: 1234, leader: node };
//! match session.on_reply(reply, || None) {
//!     SessionStep::Done { call: done, outcome: CallOutcome::Written { version, ts } } => {
//!         assert_eq!((done, version, ts), (call, 99, 1234));
//!     }
//!     other => panic!("unexpected step: {other:?}"),
//! }
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

use rand::Rng;

use spinnaker_common::{ColumnName, Consistency, Key, RangeId, SnapshotTs, Value, Version};

use crate::messages::{
    ClientError, ClientOp, ClientReply, ClientRequest, ColumnSelect, ReadCell, RequestId, ScanRow,
};
use crate::partition::Ring;

/// Session-assigned identifier of one typed call.
pub type CallId = u64;

/// One typed call of the §3 client API (plus logical `Scan`).
#[derive(Clone, Debug)]
pub enum SessionCall {
    /// `get(key, columns, consistent)`.
    Get {
        /// Target row.
        key: Key,
        /// Columns to return.
        columns: ColumnSelect,
        /// Strong (leader), timeline (any replica), or snapshot (a fixed
        /// commit-timestamp cut).
        consistency: Consistency,
    },
    /// `put(key, cols, values)`.
    Put {
        /// Target row.
        key: Key,
        /// `(column, value)` pairs; never empty.
        cells: Vec<(ColumnName, Value)>,
    },
    /// `delete(key, cols)`.
    Delete {
        /// Target row.
        key: Key,
        /// Columns to delete; never empty.
        columns: Vec<ColumnName>,
    },
    /// `conditionalPut(key, col, value, v)` (§5.1).
    ConditionalPut {
        /// Target row.
        key: Key,
        /// Column to write.
        col: ColumnName,
        /// New value.
        value: Value,
        /// Version the column must currently have (0 = never written).
        expected: Version,
    },
    /// `conditionalDelete(key, col, v)` (§5.1).
    ConditionalDelete {
        /// Target row.
        key: Key,
        /// Column to delete.
        col: ColumnName,
        /// Version the column must currently have.
        expected: Version,
    },
    /// Logical range scan over `[start, end)`, assembled from per-range
    /// pages of up to `page` rows each.
    Scan {
        /// First key (inclusive).
        start: Key,
        /// End key (exclusive); `None` scans to the end of the space.
        end: Option<Key>,
        /// Rows per page request.
        page: u32,
        /// Strong (leader), timeline (any replica), or snapshot (a fixed
        /// commit-timestamp cut).
        consistency: Consistency,
    },
}

/// How a call ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CallOutcome {
    /// The write committed at this version.
    Written {
        /// Version assigned to the written cells (packed LSN).
        version: Version,
        /// Commit timestamp the leader stamped on the write: the write
        /// is part of every snapshot cut pinned at or above this.
        ts: u64,
    },
    /// `get` result: the selected columns that exist (deleted columns
    /// surface `value: None` + the tombstone's version).
    Row {
        /// Cell states in column order.
        cells: Vec<ReadCell>,
        /// The snapshot timestamp the row was served at — echoed for an
        /// explicit [`SnapshotTs::At`] read, freshly pinned for a
        /// [`SnapshotTs::Pin`] one (reusable in later snapshot reads to
        /// observe the same cut). `0` for strong and timeline reads.
        at_ts: u64,
    },
    /// Fully assembled logical scan result, in key order.
    Rows {
        /// Every live row of `[start, end)`. For a snapshot scan this is
        /// a *consistent cut*: exactly the rows visible at `at_ts`, no
        /// matter how many pages, ranges, or reconfigurations the scan
        /// crossed. For strong/timeline scans, each page reflects its
        /// own serve time.
        rows: Vec<ScanRow>,
        /// The pinned snapshot timestamp the whole scan was served at
        /// (`0` for strong and timeline scans).
        at_ts: u64,
    },
    /// The call failed with a terminal error the session does not retry
    /// on the caller's behalf: [`ClientError::VersionMismatch`] (a
    /// conditional op lost its version check, §5.1 — re-read and retry
    /// with the current version) or [`ClientError::SnapshotTooOld`] (the
    /// pinned cut fell below a replica's MVCC garbage-collection floor —
    /// any accumulated scan rows are discarded; retry with a fresh pin).
    /// Retryable routing errors never surface here; the session absorbs
    /// them ([`ClientError::is_retryable`] is the dividing line).
    Failed(ClientError),
}

/// What the session wants its host to do after processing a reply or a
/// timeout.
#[derive(Debug)]
pub enum SessionStep {
    /// Nothing (stale reply from a superseded attempt).
    None,
    /// Send the request again under this fresh id — a redirect, refresh,
    /// or rotation happened. Counts as a retry.
    Retransmit {
        /// The fresh request id to transmit.
        req: RequestId,
        /// Whether a newer range table was adopted on the way.
        refreshed_ring: bool,
    },
    /// A scan page completed and the next page is ready to go. Not a
    /// retry — the logical call is making progress.
    Continue {
        /// The fresh request id of the next page.
        req: RequestId,
    },
    /// The cohort answered `Unavailable`: back off briefly, then fire a
    /// timeout for this id to rotate and re-send.
    Backoff {
        /// The (still pending) request id to retry after the backoff.
        req: RequestId,
    },
    /// A call finished.
    Done {
        /// The finished call.
        call: CallId,
        /// Its outcome.
        outcome: CallOutcome,
    },
}

/// One outstanding wire request and the call state behind it.
struct InFlight {
    call: CallId,
    op: SessionCall,
    /// Scan only: the resume cursor (the next page's start key).
    cursor: Key,
    /// Scan only: rows accumulated across pages.
    acc: Vec<ScanRow>,
    /// Snapshot scan only: the pinned read timestamp, learned from the
    /// first page's reply and carried into every subsequent page (0 =
    /// not pinned / not a snapshot).
    pinned_ts: u64,
    /// Pinned snapshot ops only: route the next attempt to the cached
    /// leader. Set when a randomly chosen replica answered
    /// `Unavailable` (it has not applied through the pin yet) — the
    /// leader always covers the pin, so one immediate redirect beats a
    /// backoff. Cleared once a page succeeds, so later pages try the
    /// cheaper replica-balanced route again.
    prefer_leader: bool,
    /// The node the current attempt went to, when it was routed to the
    /// range's leader (`None` for a replica-balanced read): a leader
    /// notice naming another node re-sends it.
    sent_to: Option<u32>,
}

/// The typed client session runtime (sans-IO).
pub struct Session {
    ring: Ring,
    window: usize,
    next_req: RequestId,
    next_call: CallId,
    /// Cached cohort-member index believed to lead each range.
    leader_cache: BTreeMap<RangeId, usize>,
    queue: VecDeque<(CallId, SessionCall)>,
    pending: BTreeMap<RequestId, InFlight>,
}

impl Session {
    /// A session routing with `ring`, keeping up to `window` calls
    /// outstanding.
    pub fn new(ring: Ring, window: usize) -> Session {
        Session {
            ring,
            window: window.max(1),
            next_req: 1,
            next_call: 1,
            leader_cache: BTreeMap::new(),
            queue: VecDeque::new(),
            pending: BTreeMap::new(),
        }
    }

    /// The range table this session currently routes with.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Outstanding wire requests.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Calls submitted but not yet launched.
    pub fn queued_len(&self) -> usize {
        self.queue.len()
    }

    /// Calls in flight or waiting: the closed-loop occupancy.
    pub fn occupancy(&self) -> usize {
        self.pending.len() + self.queue.len()
    }

    /// The call a pending wire request belongs to (`None` once the
    /// request id is stale — completed or superseded by a
    /// retransmission). History recorders use it to attribute timeouts
    /// and retries to the right call.
    pub fn call_of(&self, req: RequestId) -> Option<CallId> {
        self.pending.get(&req).map(|inf| inf.call)
    }

    /// Enqueue a typed call; it launches when a window slot frees up.
    pub fn submit(&mut self, call: SessionCall) -> CallId {
        let id = self.next_call;
        self.next_call += 1;
        self.queue.push_back((id, call));
        id
    }

    /// Move queued calls into the window. Returns the request ids to
    /// transmit (empty when the window is full or the queue is empty):
    /// they are minted consecutively, so a range holds them all.
    pub fn launch(&mut self) -> Range<RequestId> {
        let first = self.next_req;
        while self.pending.len() < self.window {
            let Some((call, op)) = self.queue.pop_front() else { break };
            let cursor = match &op {
                SessionCall::Scan { start, .. } => start.clone(),
                _ => Key::default(),
            };
            let req = self.fresh_req();
            self.pending.insert(
                req,
                InFlight {
                    call,
                    op,
                    cursor,
                    acc: Vec::new(),
                    pinned_ts: 0,
                    prefer_leader: false,
                    sent_to: None,
                },
            );
        }
        first..self.next_req
    }

    fn fresh_req(&mut self) -> RequestId {
        let req = self.next_req;
        self.next_req += 1;
        req
    }

    /// The cohort of `range` in the session's table, borrowed (empty when
    /// the range is gone).
    fn cohort(&self, range: RangeId) -> &[u32] {
        self.ring.def(range).map_or(&[], |d| &d.cohort)
    }

    /// Rotate the leader guess for `range` — modulo the range's
    /// **actual cohort length** (cohort movement can change membership
    /// size/order, so `ring.replication()` would skew the rotation).
    fn rotate_leader(&mut self, range: RangeId) {
        let len = self.cohort(range).len().max(1);
        let e = self.leader_cache.entry(range).or_insert(0);
        *e = (*e + 1) % len;
    }

    /// Route `range`'s strong ops to `node` from now on; a node outside
    /// the cached cohort changes nothing.
    fn learn_leader(&mut self, range: RangeId, node: u32) {
        if let Some(idx) = self.cohort(range).iter().position(|&n| n == node) {
            self.leader_cache.insert(range, idx);
        }
    }

    /// Build the wire request for an outstanding id and pick its target
    /// node.
    pub fn wire(
        &mut self,
        req: RequestId,
        rng: &mut rand::rngs::SmallRng,
    ) -> Option<(u32, ClientRequest)> {
        let inf = self.pending.get_mut(&req)?;
        // Leader-routed: strong reads, writes, and *pinning* snapshot
        // reads (`ts == 0` — the leader chooses the cut, so it is as
        // fresh as a strong read). Pinned snapshot pages (`ts > 0`) go
        // to a random replica like timeline reads: any replica that has
        // applied through the pin may serve them.
        let prefer_leader = inf.prefer_leader;
        let leader_routed = move |c: &Consistency| match c {
            Consistency::Strong | Consistency::Snapshot(SnapshotTs::Pin) => true,
            // A pinned page normally load-balances across replicas;
            // after an `Unavailable` (the replica lags the pin) it
            // redirects to the leader, which always covers the pin.
            Consistency::Snapshot(SnapshotTs::At(_)) => prefer_leader,
            Consistency::Timeline => false,
        };
        let (key, strong, op) = match &inf.op {
            SessionCall::Get { key, columns, consistency } => (
                key.clone(),
                leader_routed(consistency),
                ClientOp::Get {
                    key: key.clone(),
                    columns: columns.clone(),
                    consistency: *consistency,
                },
            ),
            SessionCall::Put { key, cells } => {
                (key.clone(), true, ClientOp::Put { key: key.clone(), cells: cells.clone() })
            }
            SessionCall::Delete { key, columns } => {
                (key.clone(), true, ClientOp::Delete { key: key.clone(), columns: columns.clone() })
            }
            SessionCall::ConditionalPut { key, col, value, expected } => (
                key.clone(),
                true,
                ClientOp::ConditionalPut {
                    key: key.clone(),
                    col: col.clone(),
                    value: value.clone(),
                    expected: *expected,
                },
            ),
            SessionCall::ConditionalDelete { key, col, expected } => (
                key.clone(),
                true,
                ClientOp::ConditionalDelete {
                    key: key.clone(),
                    col: col.clone(),
                    expected: *expected,
                },
            ),
            SessionCall::Scan { end, page, consistency, .. } => (
                inf.cursor.clone(),
                leader_routed(consistency),
                ClientOp::Scan {
                    start: inf.cursor.clone(),
                    end: end.clone(),
                    limit: *page,
                    consistency: *consistency,
                },
            ),
        };
        // The cohort member we believe leads the range, or any replica.
        let range = self.ring.range_of(&key);
        let cohort = self.ring.def(range).map_or(&[][..], |d| &d.cohort);
        let to = if strong {
            let idx = *self.leader_cache.entry(range).or_insert(0);
            cohort[idx % cohort.len()]
        } else {
            cohort[rng.gen_range(0..cohort.len())]
        };
        inf.sent_to = strong.then_some(to);
        Some((to, ClientRequest { req, ring_version: self.ring.version(), op }))
    }

    /// Process a reply. `refresh` is consulted on `WrongRange`: it
    /// should return the freshest range table available (the session
    /// adopts it only when strictly newer than its own).
    ///
    /// A [`ClientReply::Leader`] notice re-sends at most one request: a
    /// host wires that re-send, then offers the notice again until it
    /// answers [`SessionStep::None`].
    pub fn on_reply(
        &mut self,
        reply: ClientReply,
        refresh: impl FnOnce() -> Option<Ring>,
    ) -> SessionStep {
        if let ClientReply::Leader { range, leader } = reply {
            return self.on_leader(range, leader);
        }
        let req = reply.req();
        let Some(mut inf) = self.pending.remove(&req) else {
            return SessionStep::None; // superseded attempt
        };
        match reply {
            ClientReply::WriteOk { version, ts, leader, .. } => {
                // The committing leader: after a failover, the successor
                // that answered for its predecessor.
                let key = self.key_of(&inf);
                self.learn_leader(self.ring.range_of(&key), leader);
                SessionStep::Done { call: inf.call, outcome: CallOutcome::Written { version, ts } }
            }
            ClientReply::Row { cells, at_ts, .. } => {
                SessionStep::Done { call: inf.call, outcome: CallOutcome::Row { cells, at_ts } }
            }
            ClientReply::Rows { rows, resume, at_ts, .. } => {
                inf.acc.extend(rows);
                // Snapshot pinning: the first page of a
                // `Snapshot(Pin)` scan comes back stamped with the
                // timestamp the leader chose. Pin it into the call so
                // every subsequent page — wherever routing sends it,
                // across splits, merges, and moves — reads the very
                // same cut.
                if at_ts != 0 {
                    inf.pinned_ts = at_ts;
                    if let SessionCall::Scan {
                        consistency: Consistency::Snapshot(pin @ SnapshotTs::Pin),
                        ..
                    } = &mut inf.op
                    {
                        *pin = SnapshotTs::At(at_ts);
                    }
                }
                let scan_end = match &inf.op {
                    SessionCall::Scan { end, .. } => end.clone(),
                    _ => None,
                };
                match resume {
                    // The continuation key must make progress and stay
                    // inside the logical bounds; anything else ends the
                    // scan (a defensive guard — replicas never emit a
                    // non-advancing cursor).
                    Some(k) if k > inf.cursor && scan_end.as_ref().is_none_or(|e| &k < e) => {
                        inf.cursor = k;
                        // This page succeeded; give the next one the
                        // replica-balanced route again.
                        inf.prefer_leader = false;
                        let next = self.fresh_req();
                        self.pending.insert(next, inf);
                        SessionStep::Continue { req: next }
                    }
                    _ => SessionStep::Done {
                        call: inf.call,
                        outcome: CallOutcome::Rows { rows: inf.acc, at_ts: inf.pinned_ts },
                    },
                }
            }
            // Every error travels as one typed `ClientError`; the split
            // between what the session absorbs (routing errors) and what
            // it surfaces (terminal outcomes) is `is_retryable`.
            ClientReply::Err { error: ClientError::NotLeader { hint }, .. } => {
                let key = self.key_of(&inf);
                let range = self.ring.range_of(&key);
                match hint {
                    Some(node) => self.learn_leader(range, node),
                    None => self.rotate_leader(range),
                }
                let next = self.fresh_req();
                self.pending.insert(next, inf);
                SessionStep::Retransmit { req: next, refreshed_ring: false }
            }
            ClientReply::Err { error: ClientError::Unavailable, .. } => {
                // A pinned snapshot page on a lagging replica: redirect
                // straight to the leader (it always covers the pin)
                // instead of backing off. Everything else — and a leader
                // that itself answered `Unavailable` (election, or
                // in-flight writes below the pin) — backs off and lets
                // the timeout rotate.
                let pinned =
                    |c: &Consistency| matches!(c, Consistency::Snapshot(SnapshotTs::At(_)));
                let pinned_snapshot = matches!(
                    &inf.op,
                    SessionCall::Scan { consistency, .. }
                        | SessionCall::Get { consistency, .. } if pinned(consistency)
                );
                if pinned_snapshot && !inf.prefer_leader {
                    inf.prefer_leader = true;
                    let next = self.fresh_req();
                    self.pending.insert(next, inf);
                    SessionStep::Retransmit { req: next, refreshed_ring: false }
                } else {
                    self.pending.insert(req, inf);
                    SessionStep::Backoff { req }
                }
            }
            ClientReply::Err { error: ClientError::WrongRange { .. }, .. } => {
                // A range was split/merged/moved since we fetched our
                // table: refresh and transparently re-route. If no newer
                // table exists (we were the fresher side of a version
                // skew), rotate the leader guess so the retry does not
                // hammer the same node.
                let refreshed = match refresh() {
                    Some(t) if t.version() > self.ring.version() => {
                        self.ring = t;
                        true
                    }
                    _ => false,
                };
                if !refreshed {
                    let key = self.key_of(&inf);
                    let range = self.ring.range_of(&key);
                    self.rotate_leader(range);
                }
                let next = self.fresh_req();
                self.pending.insert(next, inf);
                SessionStep::Retransmit { req: next, refreshed_ring: refreshed }
            }
            ClientReply::Err { error, .. } => {
                debug_assert!(!error.is_retryable(), "routing errors are handled above");
                SessionStep::Done { call: inf.call, outcome: CallOutcome::Failed(error) }
            }
            ClientReply::Leader { .. } => unreachable!("a notice answers no request"),
        }
    }

    /// A successor's notice that `leader` leads `range`: learn it, and
    /// re-send under a fresh id the oldest leader-routed request on
    /// `range` whose last attempt went to another node. That attempt may
    /// sit unproposed at a dead leader; its retry timer would re-send it
    /// anyway, only later. `None` when no such request is left, or when
    /// `leader` is not in the range's cached cohort.
    fn on_leader(&mut self, range: RangeId, leader: u32) -> SessionStep {
        if !self.cohort(range).contains(&leader) {
            return SessionStep::None;
        }
        self.learn_leader(range, leader);
        let stranded = self.pending.iter().find(|(_, inf)| {
            inf.sent_to.is_some_and(|to| to != leader)
                && self.ring.range_of(&self.key_of(inf)) == range
        });
        let Some(req) = stranded.map(|(&req, _)| req) else {
            return SessionStep::None;
        };
        let inf = self.pending.remove(&req).expect("found above");
        let next = self.fresh_req();
        self.pending.insert(next, inf);
        SessionStep::Retransmit { req: next, refreshed_ring: false }
    }

    fn key_of(&self, inf: &InFlight) -> Key {
        match &inf.op {
            SessionCall::Get { key, .. }
            | SessionCall::Put { key, .. }
            | SessionCall::Delete { key, .. }
            | SessionCall::ConditionalPut { key, .. }
            | SessionCall::ConditionalDelete { key, .. } => key.clone(),
            SessionCall::Scan { .. } => inf.cursor.clone(),
        }
    }

    /// A request timed out (or its backoff elapsed): rotate the leader
    /// guess for its range and hand back a fresh id to re-send, or
    /// `None` when the id is no longer outstanding.
    pub fn on_timeout(&mut self, req: RequestId) -> Option<RequestId> {
        let inf = self.pending.remove(&req)?;
        let key = self.key_of(&inf);
        let range = self.ring.range_of(&key);
        self.rotate_leader(range);
        let next = self.fresh_req();
        self.pending.insert(next, inf);
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_bounds_outstanding_requests() {
        let mut s = Session::new(Ring::with_nodes(3), 2);
        for i in 0..5u64 {
            s.submit(SessionCall::Put {
                key: Key::from(format!("k{i}").as_str()),
                cells: vec![(bytes::Bytes::from_static(b"c"), bytes::Bytes::from_static(b"v"))],
            });
        }
        let launched = s.launch();
        assert_eq!(launched.clone().count(), 2, "window of 2 admits 2");
        assert_eq!(s.pending_len(), 2);
        assert_eq!(s.queued_len(), 3);
        // Completing one frees one slot.
        let step = s.on_reply(
            ClientReply::WriteOk { req: launched.start, version: 1, ts: 1, leader: 0 },
            || None,
        );
        assert!(matches!(step, SessionStep::Done { .. }));
        assert_eq!(s.launch().count(), 1);
    }

    /// `launch` gives every non-scan call `Key::default()` as its cursor.
    /// That costs nothing: an empty key has no storage of its own — all
    /// of them are views of one static empty buffer (the count itself is
    /// pinned in `tests/alloc_budget.rs`, which has the allocator for it).
    #[test]
    fn the_cursor_of_a_point_call_is_the_storage_less_empty_key() {
        let (a, b) = (Key::default(), Key::default());
        assert!(a.is_empty() && b.is_empty());
        assert_eq!(a.as_bytes().as_ptr(), b.as_bytes().as_ptr(), "one shared empty buffer");
        let mut s = Session::new(Ring::with_nodes(3), 4);
        s.submit(SessionCall::Get {
            key: Key::from("k"),
            columns: ColumnSelect::All,
            consistency: Consistency::Strong,
        });
        let req = s.launch().start;
        let cursor = &s.pending[&req].cursor;
        assert_eq!(cursor.as_bytes().as_ptr(), a.as_bytes().as_ptr());
    }

    #[test]
    fn stale_replies_are_ignored_after_retransmit() {
        let mut s = Session::new(Ring::with_nodes(3), 1);
        s.submit(SessionCall::Put {
            key: Key::from("k"),
            cells: vec![(bytes::Bytes::from_static(b"c"), bytes::Bytes::from_static(b"v"))],
        });
        let old = s.launch().start;
        let fresh = s.on_timeout(old).expect("still pending");
        assert_ne!(old, fresh);
        // The superseded id completes nothing.
        assert!(matches!(
            s.on_reply(ClientReply::WriteOk { req: old, version: 1, ts: 1, leader: 0 }, || None),
            SessionStep::None
        ));
        // The fresh one does.
        assert!(matches!(
            s.on_reply(ClientReply::WriteOk { req: fresh, version: 1, ts: 1, leader: 0 }, || None),
            SessionStep::Done { .. }
        ));
    }

    /// The leader a `WriteOk` names — after a failover, the successor
    /// that answered for its predecessor — takes the next strong op; a
    /// node outside the cached cohort changes nothing.
    #[test]
    fn a_write_ok_routes_the_next_strong_op_to_the_leader_it_names() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let mut s = Session::new(Ring::with_nodes(3), 1);
        let mut put_and_route = |s: &mut Session| {
            s.submit(SessionCall::Put {
                key: Key::from("k"),
                cells: vec![(bytes::Bytes::from_static(b"c"), bytes::Bytes::from_static(b"v"))],
            });
            let req = s.launch().start;
            (req, s.wire(req, &mut rng).expect("pending").0)
        };
        let (req, first) = put_and_route(&mut s);
        let cohort = s.ring.cohort(s.ring.range_of(&Key::from("k"))).to_vec();
        let successor = *cohort.iter().find(|&&n| n != first).expect("a second member");
        let reply = ClientReply::WriteOk { req, version: 1, ts: 1, leader: successor };
        assert!(matches!(s.on_reply(reply, || None), SessionStep::Done { .. }));
        let (req, to) = put_and_route(&mut s);
        assert_eq!(to, successor, "the named leader takes the next write");
        let stranger = 99;
        assert!(!cohort.contains(&stranger));
        let reply = ClientReply::WriteOk { req, version: 2, ts: 2, leader: stranger };
        assert!(matches!(s.on_reply(reply, || None), SessionStep::Done { .. }));
        assert_eq!(put_and_route(&mut s).1, successor, "a node outside the cohort is ignored");
    }

    fn put(key: &Key) -> SessionCall {
        let cells = vec![(bytes::Bytes::from_static(b"c"), bytes::Bytes::from_static(b"v"))];
        SessionCall::Put { key: key.clone(), cells }
    }

    fn get(key: &Key, consistency: Consistency) -> SessionCall {
        SessionCall::Get { key: key.clone(), columns: ColumnSelect::All, consistency }
    }

    /// A pipelined session with every call of `calls` launched and wired:
    /// each call's request id and the node it went to.
    fn wired(
        s: &mut Session,
        calls: Vec<SessionCall>,
        rng: &mut rand::rngs::SmallRng,
    ) -> Vec<(RequestId, u32)> {
        for call in calls {
            s.submit(call);
        }
        s.launch().map(|req| (req, s.wire(req, rng).expect("pending").0)).collect()
    }

    /// A successor's notice re-sends, one per offer and oldest first, each
    /// strong op on its range whose attempt went to another node, under
    /// a fresh id, to the named leader. A timeline read and an op on
    /// another range are left alone, the superseded ids' late replies
    /// complete nothing, and the next strong op goes to the named leader.
    #[test]
    fn a_leader_notice_resends_the_strong_ops_sent_elsewhere_under_fresh_ids() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let mut s = Session::new(Ring::with_nodes(3), 8);
        let (here, there) = (crate::partition::u64_to_key(0), crate::partition::u64_to_key(!0));
        let range = s.ring.range_of(&here);
        assert_ne!(s.ring.range_of(&there), range, "two ranges");
        let calls = vec![
            put(&here),
            get(&here, Consistency::Strong),
            get(&here, Consistency::Timeline),
            put(&there),
        ];
        let sent = wired(&mut s, calls, &mut rng);
        let dead = s.ring.cohort(range)[0];
        assert_eq!((sent[0].1, sent[1].1), (dead, dead), "strong ops start at the first member");
        let successor = s.ring.cohort(range)[1];
        let notice = ClientReply::Leader { range, leader: successor };
        let mut resent = Vec::new();
        while let SessionStep::Retransmit { req, refreshed_ring } =
            s.on_reply(notice.clone(), || None)
        {
            assert!(!refreshed_ring);
            let (to, wire) = s.wire(req, &mut rng).expect("pending");
            assert_eq!(to, successor, "the re-send goes to the named leader");
            resent.push((s.call_of(req).expect("pending"), wire.req));
        }
        let (put_call, strong_call) = (s.call_of(sent[0].0), s.call_of(sent[1].0));
        assert_eq!((put_call, strong_call), (None, None), "both old ids are superseded");
        assert_eq!(resent.iter().map(|r| r.0).collect::<Vec<_>>(), [1, 2], "oldest first");
        assert!(resent.iter().all(|&(_, req)| req > sent[3].0), "under fresh ids");
        assert_eq!(s.call_of(sent[2].0), Some(3), "the timeline read is left alone");
        assert_eq!(s.call_of(sent[3].0), Some(4), "the other range's put is left alone");
        assert_eq!(s.pending_len(), 4);
        let late = ClientReply::WriteOk { req: sent[0].0, version: 1, ts: 1, leader: dead };
        assert!(matches!(s.on_reply(late, || None), SessionStep::None), "a stale id");
        let ok = ClientReply::WriteOk { req: resent[0].1, version: 1, ts: 1, leader: successor };
        assert!(matches!(s.on_reply(ok, || None), SessionStep::Done { call: 1, .. }));
        let next = wired(&mut s, vec![put(&here)], &mut rng);
        assert_eq!(next[0].1, successor, "the next strong op goes to the named leader");
    }

    /// A notice naming the node a request already went to re-sends
    /// nothing, and neither does one naming a node outside the range's
    /// cohort (nothing could route there).
    #[test]
    fn a_leader_notice_leaves_a_request_sent_to_that_leader_alone() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let mut s = Session::new(Ring::with_nodes(3), 4);
        let key = crate::partition::u64_to_key(0);
        let range = s.ring.range_of(&key);
        let sent = wired(&mut s, vec![put(&key), put(&key)], &mut rng);
        let leader = sent[0].1;
        for leader in [leader, 99] {
            let notice = ClientReply::Leader { range, leader };
            assert!(matches!(s.on_reply(notice, || None), SessionStep::None), "{leader}");
        }
        assert_eq!(
            sent.iter().map(|&(req, _)| s.call_of(req)).collect::<Vec<_>>(),
            [Some(1), Some(2)]
        );
    }

    #[test]
    fn rotation_wraps_at_cohort_length() {
        let mut s = Session::new(Ring::with_nodes(3), 1);
        let range = RangeId(0);
        let len = s.ring.cohort(range).len();
        for _ in 0..len {
            s.rotate_leader(range);
        }
        assert_eq!(s.leader_cache[&range], 0, "full rotation returns to the first member");
    }

    #[test]
    fn scan_accumulates_pages_until_resume_is_exhausted() {
        let mut s = Session::new(Ring::with_nodes(3), 1);
        s.submit(SessionCall::Scan {
            start: Key::default(),
            end: None,
            page: 2,
            consistency: Consistency::Strong,
        });
        let r1 = s.launch().start;
        let row = |k: &str| ScanRow { key: Key::from(k), cells: Vec::new() };
        let step = s.on_reply(
            ClientReply::Rows {
                req: r1,
                rows: vec![row("a"), row("b")],
                resume: Some(Key::from("c")),
                at_ts: 0,
            },
            || None,
        );
        let SessionStep::Continue { req: r2 } = step else {
            panic!("expected Continue, got {step:?}")
        };
        let step = s.on_reply(
            ClientReply::Rows { req: r2, rows: vec![row("c")], resume: None, at_ts: 0 },
            || None,
        );
        match step {
            SessionStep::Done { outcome: CallOutcome::Rows { rows, .. }, .. } => {
                let keys: Vec<Key> = rows.into_iter().map(|r| r.key).collect();
                assert_eq!(keys, vec![Key::from("a"), Key::from("b"), Key::from("c")]);
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }
}
