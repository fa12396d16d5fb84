//! Closed-loop workload clients (Appendix C: load is generated by client
//! threads that issue the next operation as soon as the previous one
//! completes; sweeping the thread count sweeps the offered load).
//!
//! A [`ClientHost`] drives a typed [`Session`] inside the simulator: the
//! session owns routing, redirects, scan continuation, and the
//! outstanding-op window; the host generates operations from its
//! [`Workload`], times completions, and records statistics. With
//! `pipeline > 1` the host keeps that many calls in flight at once —
//! cheaper to sweep at high offered load, and the leader sees real
//! batches to group-commit.
//!
//! The session's transport — sending, retry timers, backoff, re-sends —
//! is one [`SessionDriver`], shared with the nemesis client: each owner
//! keeps only which calls it generates and what it records.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::Rng;

use spinnaker_common::{Consistency, Key, Version};
use spinnaker_sim::{Actor, Ctx, LatencyStats, ProcId, Time, MILLIS, SECS};

use crate::cluster::{read_table, Ev, World};
use crate::messages::{ClientError, ClientReply, ColumnSelect, NodeInput, RequestId};
use crate::partition::{u64_to_key, Ring};
use crate::session::{CallId, CallOutcome, Session, SessionCall, SessionStep};

/// Client-side events.
#[derive(Debug)]
pub enum ClientEv {
    /// Begin the closed loop.
    Start,
    /// A reply from a node.
    Reply(ClientReply),
    /// Retry trigger: the request timed out or was backed off.
    Timeout(RequestId),
}

/// Measured results of one client.
#[derive(Default)]
pub struct ClientStats {
    /// Latency of operations completing inside the measurement window.
    pub latency: LatencyStats,
    /// Operations completed inside the window (throughput numerator).
    pub completed: u64,
    /// Operations completed overall.
    pub total_completed: u64,
    /// Resends due to redirects, retries, or timeouts.
    pub retries: u64,
    /// Range-table refreshes triggered by `WrongRange` replies (dynamic
    /// splits/merges/moves re-routing this client).
    pub ring_refreshes: u64,
    /// Conditional puts rejected with `VersionMismatch`. With one writer
    /// per key this counts protocol anomalies: a lost committed write or a
    /// duplicated apply both surface as an unexpected stored version.
    pub cond_mismatches: u64,
    /// When enabled, every completion as `(completion_time, latency)` —
    /// used by the availability experiment to find the outage window.
    pub trace: Option<Vec<(Time, Time)>>,
    /// Scripted sessions only: each call's outcome, in submission order.
    pub outcomes: Vec<CallOutcome>,
}

impl ClientStats {
    /// Record one completed operation that started at `started` and
    /// finished at `now`; only completions inside `window` count towards
    /// latency and throughput.
    pub fn record_completion(&mut self, now: Time, started: Time, window: (Time, Time)) {
        let latency = now - started;
        self.total_completed += 1;
        if now >= window.0 && now <= window.1 {
            self.latency.record(latency);
            self.completed += 1;
        }
        if let Some(trace) = self.trace.as_mut() {
            trace.push((now, latency));
        }
    }
}

/// Shared handle to client statistics.
pub type SharedStats = Rc<RefCell<ClientStats>>;

/// What the client does in its loop.
#[derive(Clone, Debug)]
pub enum Workload {
    /// Read random rows (Fig. 8): `get(key, "c", consistency)`.
    Reads {
        /// Number of distinct keys.
        keys: u64,
        /// Strong (leader) or timeline (any replica).
        consistency: Consistency,
    },
    /// Write rows with consecutive per-client key indexes (Fig. 9).
    Writes {
        /// Number of distinct keys.
        keys: u64,
        /// Value size (the paper uses 4 KB).
        value_size: usize,
    },
    /// Mixed reads and writes (Fig. 12).
    Mixed {
        /// Number of distinct keys.
        keys: u64,
        /// Value size.
        value_size: usize,
        /// Percentage of operations that are writes (0-100).
        write_pct: u8,
        /// Read consistency.
        consistency: Consistency,
    },
    /// Conditional put cycle (Fig. 14): replace values using the version
    /// returned by the previous write.
    ConditionalPuts {
        /// Number of distinct keys.
        keys: u64,
        /// Value size.
        value_size: usize,
    },
    /// Writes confined to range 0's key span, so every write hits one
    /// cohort leader (Table 1's workload). Keys advance sequentially, so
    /// after `n` acked writes keys `0..n` are guaranteed present
    /// (durability tests rely on this).
    SingleRangeWrites {
        /// Value size.
        value_size: usize,
    },
    /// Uniformly random writes over key indexes `[lo, hi)` — traffic
    /// confined to one slice of the space, so per-range throughput can
    /// be measured across splits, merges, and replica movements (fig18).
    /// With `lo: 0` it is a hot range under contention (fig17): after the
    /// hot range splits, each operation independently lands on one of
    /// the children.
    SpanWrites {
        /// Value size.
        value_size: usize,
        /// First key index of the span (inclusive).
        lo: u64,
        /// Last key index of the span (exclusive).
        hi: u64,
    },
    /// Range scans (fig19): each operation scans a random window of
    /// `rows` consecutive key indexes, paged `page` rows per request and
    /// transparently fanned across every range the window crosses.
    Scans {
        /// Number of distinct key indexes in the space.
        keys: u64,
        /// Key indexes per scan window.
        rows: u64,
        /// Rows per page request.
        page: u32,
        /// Strong (leader) or timeline (any replica).
        consistency: Consistency,
    },
    /// A fixed list of typed calls, run strictly one at a time in order,
    /// with every outcome recorded in [`ClientStats::outcomes`]. The
    /// harness for cluster tests exercising the full §3 surface.
    Script(Rc<Vec<SessionCall>>),
}

/// How long a request waits for its reply before it is re-sent.
const RETRY_TIMEOUT: Time = SECS;

/// How long a request pauses after an `Unavailable` reply before it is
/// re-sent.
const BACKOFF: Time = 20 * MILLIS;

/// The session transport of one simulated client process: every closed
/// loop ([`ClientHost`], the nemesis client) reaches the cluster through
/// one.
///
/// It owns the process id, the [`Session`], the [`World`] whose network
/// carries the requests, and the set of requests whose next timer is a
/// backoff. It transmits (`Session::wire`, then network delivery, then a
/// 1 s retry timer), digests replies (re-sends redirects and scan pages,
/// refreshing the range table on `WrongRange`; waits 20 ms after
/// `Unavailable`; re-sends what a leader notice strands) and fires timers
/// (rotates the leader guess, re-sends under a fresh id).
///
/// Its owner routes [`ClientEv::Reply`] and [`ClientEv::Timeout`] here
/// and hears back only what owners treat differently — a [`DriverReport`]
/// — then drains [`SessionDriver::next_resend`].
pub struct SessionDriver {
    proc: ProcId,
    session: Session,
    /// Calls the owner keeps in flight or waiting at most.
    window: usize,
    world: World,
    /// Requests whose next `Timeout` event ends a backoff: a re-send that
    /// follows a definitive rejection, not a possibly-applied attempt.
    backoff: BTreeSet<RequestId>,
    /// A successor's leader notice whose re-sends are not all made yet
    /// ([`SessionDriver::next_resend`] makes them).
    notice: Option<ClientReply>,
}

/// What a [`SessionDriver`] reports after a reply or a timer.
#[derive(Debug)]
pub enum DriverReport {
    /// Nothing to record: a stale reply or timer, or the next page of a
    /// scan went out.
    Quiet,
    /// A call finished.
    Done {
        /// The finished call.
        call: CallId,
        /// Its outcome.
        outcome: CallOutcome,
    },
    /// A redirect (`NotLeader`, `WrongRange`, a pinned snapshot page sent
    /// on to the leader) re-sent the request under a fresh id.
    Redirect {
        /// Whether a newer range table was adopted on the way.
        refreshed_ring: bool,
    },
    /// The cohort answered `Unavailable`; the request is re-sent after a
    /// 20 ms pause.
    Backoff,
    /// A timer re-sent a request of `call` under a fresh id.
    Timeout {
        /// The call the re-sent request belongs to.
        call: CallId,
        /// The timer ended a backoff: the previous attempt was rejected,
        /// so it cannot have applied. Otherwise a true timeout — the lost
        /// attempt may have applied.
        benign: bool,
    },
}

impl SessionDriver {
    /// A driver for process `proc`, routing with `ring` and keeping up to
    /// `window` calls outstanding.
    pub fn new(proc: ProcId, ring: Ring, window: usize, world: World) -> SessionDriver {
        let window = window.max(1);
        let session = Session::new(ring, window);
        SessionDriver { proc, session, window, world, backoff: BTreeSet::new(), notice: None }
    }

    /// True while fewer than `window` calls are in flight or waiting.
    pub fn has_room(&self) -> bool {
        self.session.occupancy() < self.window
    }

    /// Enqueue a call; it goes out at the next [`SessionDriver::launch`].
    pub fn submit(&mut self, call: SessionCall) -> CallId {
        self.session.submit(call)
    }

    /// Move queued calls into the window and transmit them.
    pub fn launch(&mut self, now: Time, ctx: &mut Ctx<'_, Ev>) {
        for req in self.session.launch() {
            self.transmit(now, req, ctx);
        }
    }

    /// Send (or re-send) the outstanding request `req`.
    fn transmit(&mut self, now: Time, req: RequestId, ctx: &mut Ctx<'_, Ev>) {
        // Every id sent was just minted by `launch`, `on_reply` or
        // `on_timeout`, so it is pending.
        let (to, wire) = self.session.wire(req, ctx.rng()).expect("a freshly minted request");
        let bytes = wire.wire_size();
        let ev = Ev::Input(NodeInput::Client { from: self.proc, req: wire });
        self.world.net.borrow_mut().send(ctx, now, self.proc, to, bytes, ev);
        // Arm (another) retry timer; stale ones are ignored on fire.
        ctx.schedule(RETRY_TIMEOUT, self.proc, Ev::Client(ClientEv::Timeout(req)));
    }

    /// Digest a node's reply. A leader notice reports its first re-send,
    /// as [`SessionDriver::next_resend`] does the rest.
    pub fn on_reply(
        &mut self,
        now: Time,
        reply: ClientReply,
        ctx: &mut Ctx<'_, Ev>,
    ) -> DriverReport {
        if let ClientReply::Leader { .. } = reply {
            self.notice = Some(reply);
            return self.next_resend(now, ctx).unwrap_or(DriverReport::Quiet);
        }
        let world = &self.world;
        match self.session.on_reply(reply, || read_table(world)) {
            SessionStep::None => DriverReport::Quiet,
            SessionStep::Retransmit { req, refreshed_ring } => {
                self.transmit(now, req, ctx);
                DriverReport::Redirect { refreshed_ring }
            }
            SessionStep::Continue { req } => {
                self.transmit(now, req, ctx);
                DriverReport::Quiet
            }
            SessionStep::Backoff { req } => {
                // The Timeout event rotates and re-sends.
                self.backoff.insert(req);
                ctx.schedule(BACKOFF, self.proc, Ev::Client(ClientEv::Timeout(req)));
                DriverReport::Backoff
            }
            SessionStep::Done { call, outcome } => DriverReport::Done { call, outcome },
        }
    }

    /// Make the next re-send the last leader notice calls for: one
    /// request on the notice's range whose last attempt went to another
    /// node, sent to the leader under a fresh id. It reports a true
    /// timeout — the attempt stranded at the dead leader may have applied
    /// — and is the re-send that request's retry timer would make, only
    /// sooner. `None` once the notice strands nothing more; an owner calls
    /// it after every report until then, so a pipelined client re-sends
    /// every stranded request.
    pub fn next_resend(&mut self, now: Time, ctx: &mut Ctx<'_, Ev>) -> Option<DriverReport> {
        let notice = self.notice.take()?;
        let SessionStep::Retransmit { req, .. } = self.session.on_reply(notice.clone(), || None)
        else {
            return None;
        };
        self.notice = Some(notice);
        let call = self.session.call_of(req).expect("a freshly minted request");
        self.transmit(now, req, ctx);
        Some(DriverReport::Timeout { call, benign: false })
    }

    /// A retry or backoff timer fired for `req`: the target may be dead,
    /// so rotate the leader guess and re-send under a fresh id. A stale id
    /// (its call completed, or a later attempt superseded it) sends
    /// nothing.
    pub fn on_timeout(&mut self, now: Time, req: RequestId, ctx: &mut Ctx<'_, Ev>) -> DriverReport {
        let benign = self.backoff.remove(&req);
        let (Some(call), Some(next)) = (self.session.call_of(req), self.session.on_timeout(req))
        else {
            return DriverReport::Quiet;
        };
        self.transmit(now, next, ctx);
        DriverReport::Timeout { call, benign }
    }
}

/// A simulated closed-loop client.
pub struct ClientHost {
    driver: SessionDriver,
    workload: Workload,
    stats: SharedStats,
    window: (Time, Time),
    value: Bytes,
    write_index: u64,
    start_index: Option<u64>,
    versions: BTreeMap<u64, Version>,
    /// When each in-flight call was started (for latency accounting; a
    /// conditional-put redo inherits the original start time).
    started: BTreeMap<CallId, Time>,
    /// Conditional-put calls' key indexes (version adoption on reply).
    cond_keys: BTreeMap<CallId, u64>,
    /// Scripted workloads: next call to run.
    script_pos: usize,
    record_outcomes: bool,
}

impl ClientHost {
    /// Build a client keeping up to `pipeline` calls outstanding (1 = the
    /// classic closed loop). `window` is `(measure_from, measure_to)`.
    pub fn new(
        proc: ProcId,
        ring: Ring,
        workload: Workload,
        world: World,
        stats: SharedStats,
        window: (Time, Time),
        pipeline: usize,
    ) -> ClientHost {
        let value_size = match &workload {
            Workload::Writes { value_size, .. }
            | Workload::Mixed { value_size, .. }
            | Workload::ConditionalPuts { value_size, .. }
            | Workload::SingleRangeWrites { value_size }
            | Workload::SpanWrites { value_size, .. } => *value_size,
            Workload::Reads { .. } | Workload::Scans { .. } | Workload::Script(_) => 0,
        };
        let record_outcomes = matches!(workload, Workload::Script(_));
        // Scripts run strictly sequentially regardless of the pipeline
        // knob: their calls often depend on earlier effects.
        let pipeline = if record_outcomes { 1 } else { pipeline.max(1) };
        ClientHost {
            driver: SessionDriver::new(proc, ring, pipeline, world),
            workload,
            stats,
            window,
            value: Bytes::from(vec![0x5au8; value_size.max(1)]),
            write_index: 0,
            start_index: None,
            versions: BTreeMap::new(),
            started: BTreeMap::new(),
            cond_keys: BTreeMap::new(),
            script_pos: 0,
            record_outcomes,
        }
    }

    /// The key of key index `index` in a space of `keys` indexes. Indexes
    /// spread across the whole key space (and therefore across all
    /// cohorts) while per-client sequences stay deterministic.
    pub fn key_for_index(keys: u64, index: u64) -> Key {
        u64_to_key((index % keys.max(1)).wrapping_mul(u64::MAX / keys.max(1)))
    }

    fn put_call(&self, key: Key) -> SessionCall {
        SessionCall::Put { key, cells: vec![(Bytes::from_static(b"c"), self.value.clone())] }
    }

    /// A put of the next key index of this client's sequence.
    fn sequential_put(&mut self, keys: u64, start: u64) -> SessionCall {
        let index = start.wrapping_add(self.write_index);
        self.write_index += 1;
        self.put_call(Self::key_for_index(keys, index))
    }

    fn get_call(keys: u64, consistency: Consistency, rng: &mut SmallRng) -> SessionCall {
        SessionCall::Get {
            key: Self::key_for_index(keys, rng.gen_range(0..keys)),
            columns: ColumnSelect::One(Bytes::from_static(b"c")),
            consistency,
        }
    }

    /// A conditional put of key index `key_index` expecting `expected`.
    fn cond_put_call(&self, key_index: u64, expected: Version) -> SessionCall {
        let keys = match self.workload {
            Workload::ConditionalPuts { keys, .. } => keys,
            _ => 1,
        };
        SessionCall::ConditionalPut {
            key: Self::key_for_index(keys, key_index),
            col: Bytes::from_static(b"c"),
            value: self.value.clone(),
            expected,
        }
    }

    /// Generate the next operation — with its key index when it is a
    /// conditional put — or `None` when the workload is exhausted
    /// (scripts).
    fn next_call(&mut self, rng: &mut SmallRng) -> Option<(SessionCall, Option<u64>)> {
        let start = *self.start_index.get_or_insert_with(|| rng.gen());
        let call = match self.workload.clone() {
            Workload::Reads { keys, consistency } => Self::get_call(keys, consistency, rng),
            Workload::Writes { keys, .. } => self.sequential_put(keys, start),
            Workload::Mixed { keys, write_pct, consistency, .. } => {
                if rng.gen_range(0..100u8) < write_pct {
                    self.sequential_put(keys, start)
                } else {
                    Self::get_call(keys, consistency, rng)
                }
            }
            Workload::ConditionalPuts { keys, .. } => {
                let key_index = (start.wrapping_add(self.write_index)) % keys.max(1);
                self.write_index += 1;
                let expected = self.versions.get(&key_index).copied().unwrap_or(0);
                return Some((self.cond_put_call(key_index, expected), Some(key_index)));
            }
            Workload::SingleRangeWrites { .. } => {
                // Keys strictly inside range 0: low end of the space.
                let index = self.write_index % 4096;
                self.write_index += 1;
                self.put_call(u64_to_key(index))
            }
            Workload::SpanWrites { lo, hi, .. } => {
                self.put_call(u64_to_key(rng.gen_range(lo..hi.max(lo + 1))))
            }
            Workload::Scans { keys, rows, page, consistency } => {
                let lo = rng.gen_range(0..keys.max(1));
                let hi = lo.saturating_add(rows);
                let step = u64::MAX / keys.max(1);
                let end = if hi >= keys { None } else { Some(u64_to_key(hi.wrapping_mul(step))) };
                SessionCall::Scan {
                    start: u64_to_key(lo.wrapping_mul(step)),
                    end,
                    page: page.max(1),
                    consistency,
                }
            }
            Workload::Script(calls) => {
                let call = calls.get(self.script_pos)?.clone();
                self.script_pos += 1;
                call
            }
        };
        Some((call, None))
    }

    /// Keep the window full: submit new calls until `pipeline` are in
    /// flight, then transmit everything the session launches.
    fn fill(&mut self, now: Time, ctx: &mut Ctx<'_, Ev>) {
        while self.driver.has_room() {
            let Some((call, key_index)) = self.next_call(ctx.rng()) else { break };
            let id = self.driver.submit(call);
            self.started.insert(id, now);
            if let Some(key_index) = key_index {
                self.cond_keys.insert(id, key_index);
            }
        }
        self.driver.launch(now, ctx);
    }

    fn complete(&mut self, now: Time, call: CallId, outcome: CallOutcome, ctx: &mut Ctx<'_, Ev>) {
        let started = self.started.remove(&call).unwrap_or(now);
        // A conditional-put workload treats a mismatch as §3 prescribes:
        // adopt the observed version and retry the increment — the call
        // is not complete yet (the redo keeps the original start time).
        if let Some(key_index) = self.cond_keys.remove(&call) {
            match outcome {
                CallOutcome::Written { version, .. } => {
                    self.versions.insert(key_index, version);
                }
                CallOutcome::Failed(ClientError::VersionMismatch { actual }) => {
                    self.versions.insert(key_index, actual);
                    let mut stats = self.stats.borrow_mut();
                    stats.retries += 1;
                    stats.cond_mismatches += 1;
                    drop(stats);
                    let id = self.driver.submit(self.cond_put_call(key_index, actual));
                    self.started.insert(id, started);
                    self.cond_keys.insert(id, key_index);
                    self.driver.launch(now, ctx);
                    return;
                }
                _ => {}
            }
        } else if self.record_outcomes {
            self.stats.borrow_mut().outcomes.push(outcome);
        }
        self.stats.borrow_mut().record_completion(now, started, self.window);
        self.fill(now, ctx);
    }

    /// Count, or complete, what the driver reported.
    fn record(&mut self, now: Time, report: DriverReport, ctx: &mut Ctx<'_, Ev>) {
        match report {
            DriverReport::Quiet => {}
            DriverReport::Done { call, outcome } => self.complete(now, call, outcome, ctx),
            DriverReport::Redirect { refreshed_ring } => {
                let mut stats = self.stats.borrow_mut();
                stats.retries += 1;
                stats.ring_refreshes += u64::from(refreshed_ring);
            }
            DriverReport::Backoff | DriverReport::Timeout { .. } => {
                self.stats.borrow_mut().retries += 1;
            }
        }
    }
}

impl Actor<Ev> for ClientHost {
    fn on_event(&mut self, now: Time, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        let Ev::Client(cev) = ev else { return };
        let report = match cev {
            ClientEv::Start => return self.fill(now, ctx),
            ClientEv::Reply(reply) => self.driver.on_reply(now, reply, ctx),
            ClientEv::Timeout(req) => self.driver.on_timeout(now, req, ctx),
        };
        self.record(now, report, ctx);
        while let Some(report) = self.driver.next_resend(now, ctx) {
            self.record(now, report, ctx);
        }
    }
}
