//! The Spinnaker node: a thin per-node runtime hosting one
//! [`RangeReplica`] per cohort the node participates in.
//!
//! The node owns what is genuinely node-wide — the shared WAL, the
//! coordination-service session, the routing table, force-token
//! bookkeeping — plus a `RangeId → RangeReplica` registry with an
//! explicit **attach/detach lifecycle**. Every per-range protocol
//! transition (election Fig. 7, takeover Fig. 6, replication Fig. 4,
//! catch-up §6.1) lives on [`RangeReplica`]; the node routes inputs to
//! the right replica and performs the cross-replica lifecycle
//! operations that create and dissolve replicas:
//!
//! * **range split** — barrier at a drained commit queue, CAS the table,
//!   fork the store, attach the children, detach the parent;
//! * **range merge** — barrier *both* siblings (the left leader
//!   coordinates, the right leader drains on request), CAS a merged
//!   `RangeDef`, merge the stores, attach the merged range, detach both;
//! * **cohort movement** — CAS a `moving` marker, stream a snapshot plus
//!   the WAL tail to the joining node, wait for its durable catch-up
//!   ack, CAS the new replica set, detach the departing replica;
//! * **dissolved-range GC** — after a quiesce period, delete dissolved
//!   ranges' store directories, WAL streams, and `/r{N}` znodes.
//!
//! The node is a sans-IO state machine: it consumes [`NodeInput`]s and
//! emits [`Effect`]s into an [`Outbox`]. Log *content* is written
//! synchronously into the embedded [`Wal`]; log *durability* is an
//! explicit `ForceLog` effect whose completion arrives later.
//!
//! [`Effect`]: crate::messages::Effect

use std::collections::BTreeMap;

use spinnaker_common::codec::{Decode, Encode};
use spinnaker_common::vfs::SharedVfs;
use spinnaker_common::{Consistency, Key, Lsn, NodeId, RangeId, Result};
use spinnaker_coord::WatchEvent;
use spinnaker_storage::{
    BlockCache, RangeStore, SharedBlockCache, StoreOptions, StoreSnapshot, StoreStats,
};
use spinnaker_wal::{LogRecord, Wal, WalOptions};

use crate::coordcli::CoordClient;
use crate::messages::{
    Addr, ClientError, ClientOp, ClientReply, ClientRequest, ColumnSelect, NodeInput, Outbox,
    PeerMsg, TimerKind,
};
use crate::partition::{RangeDef, Ring, TABLE_PATH};
use crate::replica::{
    parse_node, FollowUp, ForceTracker, Merging, MoveState, RangeReplica, ReshardAdvice, Runtime,
    Waiter,
};

pub use crate::replica::Role;

/// Thresholds for automatic split/merge decisions, sampled on the
/// maintenance tick from per-range load (ops/sec) and size (store bytes)
/// statistics.
#[derive(Clone, Debug)]
pub struct ReshardPolicy {
    /// Split a range whose leader serves more than this many ops/sec.
    pub split_ops_per_sec: f64,
    /// Split a range whose store exceeds this many bytes.
    pub split_bytes: u64,
    /// Merge a range (with its right neighbour) when both run below this
    /// many ops/sec...
    pub merge_ops_per_sec: f64,
    /// ...and both stores are smaller than this many bytes.
    pub merge_bytes: u64,
}

/// Node tuning knobs.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Interval between asynchronous commit messages (§5). The paper's
    /// Table 1 sweeps this between 1 and 15 seconds.
    pub commit_period: u64,
    /// Coordination-service session heartbeat interval.
    pub heartbeat_interval: u64,
    /// Election progress re-check interval (safety net for watch races).
    pub election_retry: u64,
    /// Memtable flush / compaction check interval.
    pub maintenance_interval: u64,
    /// Flush the memtable beyond this size.
    pub memtable_flush_bytes: usize,
    /// Size ratio between adjacent LSM levels: level `k` holds
    /// `level_base_bytes * level_fanout^k` bytes before compaction
    /// pushes a table down.
    pub level_fanout: u64,
    /// Capacity of L1, the first sorted level of each range's store.
    pub level_base_bytes: u64,
    /// Node-wide block cache budget shared by every range's store
    /// (raw SSTable blocks, charged by on-disk size). `0` disables
    /// the cache.
    pub block_cache_bytes: u64,
    /// Piggy-back the committed watermark on propose messages (§D.1
    /// suggests this as an optimization; off by default to match the
    /// measured system, whose recovery time scales with the commit
    /// period — Table 1). Also gates closed-timestamp advertisement:
    /// followers can only adopt a closed bound together with the
    /// committed watermark it was computed against.
    pub piggyback_commits: bool,
    /// Maximum writes coalesced into one **group propose** (one log
    /// record, one force, one propose/ack round). Writes accumulate only
    /// while a previous flush's force is in flight, so batching never
    /// adds latency on an idle range; `1` restores the classic
    /// propose-per-write protocol.
    pub propose_batch: usize,
    /// Automatic split/merge triggers from load + size statistics.
    /// `None` (the default) leaves resharding to administrative RPCs.
    pub reshard: Option<ReshardPolicy>,
    /// Cool-down after an automatic split/merge: while the range's table
    /// entry keeps the generation recorded when the action was taken, no
    /// further automatic resharding of that range is proposed for this
    /// long — the damper that keeps split/merge from oscillating on a
    /// load level that sits near both thresholds.
    pub reshard_cooldown: u64,
    /// Abort a cohort movement whose joining node has not confirmed
    /// durable catch-up within this long.
    pub move_timeout: u64,
    /// Abort a range merge whose barriers have not both drained within
    /// this long.
    pub merge_timeout: u64,
    /// How long a dissolved range (split parent, merged sibling,
    /// departed replica) rests before its store directory, WAL stream,
    /// and `/r{N}` znodes are garbage collected.
    pub gc_quiesce: u64,
    /// MVCC version retention: superseded column versions younger than
    /// this survive compaction, so a snapshot scan pinned within the
    /// window always finds its cut. The maintenance tick advances each
    /// store's GC floor to `now - snapshot_retain` (held back by active
    /// pin leases, below).
    pub snapshot_retain: u64,
    /// Pin lease: serving a snapshot read registers its timestamp as an
    /// *active pin* for this long, and every page served at that
    /// timestamp renews the lease. The GC floor never advances past the
    /// oldest live pin, so a long scan keeps its cut alive by reading —
    /// however slowly — instead of racing the blanket retention window
    /// into `SnapshotTooOld`. An abandoned scan stops renewing and its
    /// cut is reclaimed one lease later. `0` disables pin tracking
    /// (blanket window only).
    pub pin_lease: u64,
}

impl Default for NodeConfig {
    fn default() -> NodeConfig {
        NodeConfig {
            commit_period: 1_000_000_000,
            heartbeat_interval: 500_000_000,
            election_retry: 100_000_000,
            maintenance_interval: 250_000_000,
            memtable_flush_bytes: 8 << 20,
            level_fanout: 4,
            level_base_bytes: 4 << 20,
            block_cache_bytes: 32 << 20,
            piggyback_commits: false,
            propose_batch: 8,
            reshard: None,
            reshard_cooldown: 10_000_000_000,
            move_timeout: 10_000_000_000,
            merge_timeout: 10_000_000_000,
            gc_quiesce: 5_000_000_000,
            snapshot_retain: 30_000_000_000,
            pin_lease: 10_000_000_000,
        }
    }
}

/// Coordination-service paths of one cohort ("information needed for
/// leader election is stored under /r", §7.2).
pub struct CohortPaths {
    /// `/r{N}`.
    pub base: String,
    /// `/r{N}/candidates`.
    pub candidates: String,
    /// `/r{N}/leader`.
    pub leader: String,
    /// `/r{N}/epoch`.
    pub epoch: String,
}

impl CohortPaths {
    /// Paths for `range`.
    pub fn new(range: RangeId) -> CohortPaths {
        let base = format!("/r{}", range.0);
        CohortPaths {
            candidates: format!("{base}/candidates"),
            leader: format!("{base}/leader"),
            epoch: format!("{base}/epoch"),
            base,
        }
    }

    /// Extract the range id back out of a znode path.
    pub fn range_of_path(path: &str) -> Option<RangeId> {
        let rest = path.strip_prefix("/r")?;
        let end = rest.find('/').unwrap_or(rest.len());
        rest[..end].parse::<u32>().ok().map(RangeId)
    }
}

/// How this node relates to a range in the current table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ServeStatus {
    /// In the table and we are a cohort member.
    Member,
    /// In the table; we are the joining learner of an in-flight move.
    MoveTarget,
    /// In the table but we are neither member nor move target.
    NotMember,
    /// No longer in the table (split or merged away).
    Gone,
}

/// A range whose local state awaits garbage collection after a quiesce
/// period.
struct Dissolved {
    range: RangeId,
    at: u64,
    /// Also delete the `/r{N}` znode subtree (true for ranges removed
    /// from the table; false for a replica that merely departed this
    /// node — the range lives on elsewhere).
    gc_znodes: bool,
}

/// Constructs the split borrow of node-wide facilities that replica
/// methods run against, carrying the current input's virtual time.
macro_rules! runtime {
    ($node:expr, $now:expr) => {
        Runtime {
            id: $node.id,
            now: $now,
            cfg: &$node.cfg,
            ring: &$node.ring,
            wal: &mut $node.wal,
            coord: &$node.coord,
            forces: &mut $node.forces,
            poisoned: &mut $node.poisoned,
        }
    };
}

/// The Spinnaker node.
pub struct Node {
    id: NodeId,
    ring: Ring,
    cfg: NodeConfig,
    vfs: SharedVfs,
    wal: Wal,
    coord: CoordClient,
    /// Node-wide block cache shared by every replica's store (`None`
    /// when `cfg.block_cache_bytes` is 0).
    cache: Option<SharedBlockCache>,
    replicas: BTreeMap<RangeId, RangeReplica>,
    forces: ForceTracker,
    dissolved: Vec<Dissolved>,
    started: bool,
    /// Fail-stop latch: set when the log device refused an append or a
    /// force, meaning durability promises can no longer be kept. The
    /// host observes it and crashes the node; the synced log prefix it
    /// restarts from is exactly what was acknowledged.
    poisoned: bool,
    /// Automatic-reshard cool-down marks: range → (table generation when
    /// the last auto split/merge was initiated, virtual time it was
    /// initiated). Advice for a range whose entry still carries the
    /// marked generation is suppressed until the cool-down elapses.
    reshard_marks: BTreeMap<RangeId, (u64, u64)>,
}

impl Node {
    /// Construct the node and run **local recovery** (§6.1): open the
    /// shared log, open each cohort's LSM store, and re-apply log records
    /// from the checkpoint through `f.cmt` idempotently. State past
    /// `f.cmt` stays ambiguous until catch-up.
    pub fn new(
        id: NodeId,
        ring: Ring,
        cfg: NodeConfig,
        vfs: SharedVfs,
        coord: CoordClient,
    ) -> Result<Node> {
        let mut wal = Wal::open(vfs.clone(), WalOptions::default())?;
        let cache = (cfg.block_cache_bytes > 0)
            .then(|| std::sync::Arc::new(BlockCache::new(cfg.block_cache_bytes)));
        let mut replicas = BTreeMap::new();
        for range in ring.ranges_of(id) {
            let mut store =
                RangeStore::open(vfs.clone(), store_options(range, &cfg, cache.as_ref()))?;
            let st = wal.state(range);
            let mut last_committed = st.last_committed;
            // A child range with no local state at all: this node crashed
            // between the split's metadata update and its local store
            // fork (or missed the split entirely). Rebuild the child from
            // the parent's surviving local state where possible;
            // otherwise the child starts empty and catch-up fills it in.
            let fresh = wal.checkpoint(range).is_zero()
                && st.last_lsn.is_zero()
                && store.table_count() == 0
                && store.memtable_len() == 0;
            if fresh {
                if let Some(def) = ring.def(range).filter(|d| d.parent.is_some()) {
                    if let Some(parent_cmt) =
                        bootstrap_child_from_parent(&vfs, &wal, &cfg, def, &mut store)?
                    {
                        let _ = wal.set_checkpoint(range, parent_cmt);
                        last_committed = parent_cmt;
                    }
                }
            }
            let span = ring
                .def(range)
                .map(|d| (d.start.clone(), d.end.clone()))
                .unwrap_or((Key::default(), None));
            let peers = ring.cohort(range).into_iter().filter(|&n| n != id).collect();
            let mut rep = RangeReplica::new(range, store, peers, span);
            // Idempotent replay of committed records (checkpoint, f.cmt].
            wal.replay(range, wal.checkpoint(range), st.last_committed, |lsn, op| {
                rep.store.apply(op, lsn);
            })?;
            rep.last_committed = last_committed;
            rep.last_note = last_committed;
            rep.epoch = st.last_lsn.epoch();
            replicas.insert(range, rep);
        }
        // Leftovers from dissolutions interrupted by a restart: the
        // in-memory GC bookkeeping does not survive a crash, so any
        // store directory for a range this node no longer serves
        // re-enters the quiesced GC pipeline here. (Parent stores a
        // split child just bootstrapped from are done being read.)
        let mut dissolved = Vec::new();
        if let Ok(files) = vfs.list("store-r") {
            let mut seen = std::collections::BTreeSet::new();
            for f in &files {
                if let Some(rest) = f.strip_prefix("store-r") {
                    if let Some(slash) = rest.find('/') {
                        if let Ok(n) = rest[..slash].parse::<u32>() {
                            seen.insert(RangeId(n));
                        }
                    }
                }
            }
            for range in seen {
                if !replicas.contains_key(&range) {
                    dissolved.push(Dissolved {
                        range,
                        at: 0,
                        gc_znodes: ring.def(range).is_none(),
                    });
                }
            }
        }
        Ok(Node {
            id,
            ring,
            cfg,
            vfs,
            wal,
            coord,
            cache,
            replicas,
            forces: ForceTracker::new(),
            dissolved,
            started: false,
            poisoned: false,
            reshard_marks: BTreeMap::new(),
        })
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// True once the log device refused an append or a force. A poisoned
    /// node must be crashed by its host: it can no longer make the
    /// durability promises the protocol's acknowledgements stand for.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Override the MVCC retention window at runtime (fault injection:
    /// a GC-floor squeeze). Takes effect on the next maintenance tick.
    pub fn set_snapshot_retain(&mut self, retain: u64) {
        self.cfg.snapshot_retain = retain;
    }

    /// Sync the WAL, poisoning the node on refusal — shared by every
    /// durability point outside the force path.
    fn sync_wal(&mut self) {
        if self.wal.sync().is_err() {
            self.poisoned = true;
        }
    }

    /// Current role for a range (diagnostics, tests, harnesses).
    pub fn role(&self, range: RangeId) -> Role {
        self.replicas.get(&range).map_or(Role::Offline, |r| r.role)
    }

    /// The range table this node currently routes with.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The ranges this node currently serves (its attached replicas).
    pub fn served_ranges(&self) -> Vec<RangeId> {
        self.replicas.keys().copied().collect()
    }

    /// The leader this node believes serves `range`.
    pub fn leader_of(&self, range: RangeId) -> Option<NodeId> {
        self.replicas.get(&range).and_then(|r| r.leader)
    }

    /// Current epoch of a cohort.
    pub fn epoch_of(&self, range: RangeId) -> spinnaker_common::Epoch {
        self.replicas.get(&range).map_or(0, |r| r.epoch)
    }

    /// Last committed LSN of a cohort (`f.cmt` / `l.cmt`).
    pub fn last_committed(&self, range: RangeId) -> Lsn {
        self.replicas.get(&range).map_or(Lsn::ZERO, |r| r.last_committed)
    }

    /// Last LSN in this node's log for a cohort (`f.lst` / `l.lst`).
    pub fn last_lsn(&self, range: RangeId) -> Lsn {
        self.wal.state(range).last_lsn
    }

    /// Direct (test) access to a replica's store.
    pub fn store(&self, range: RangeId) -> Option<&RangeStore> {
        self.replicas.get(&range).map(|r| &r.store)
    }

    /// Access the node's WAL (tests, harness checkpoints).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Snapshot pages served by this node's replica of `range` so far,
    /// in any role (benchmarks attribute read load to leaders vs.
    /// followers with it).
    pub fn snapshot_pages(&self, range: RangeId) -> u64 {
        self.replicas.get(&range).map_or(0, |r| r.snapshot_pages())
    }

    /// Read/compaction statistics for this node's replica of `range`:
    /// tables per level, bloom true/false positives, block-cache hit
    /// rates, bytes compacted. The same store the auto-reshard
    /// maintenance tick samples for size; benchmarks and operators read
    /// the multipliers from here.
    pub fn store_stats(&self, range: RangeId) -> Option<StoreStats> {
        self.replicas.get(&range).map(|r| r.store.stats())
    }

    /// The closed timestamp this node's replica of `range` has adopted
    /// from its leader (0 = none yet).
    pub fn closed_ts(&self, range: RangeId) -> u64 {
        self.replicas.get(&range).map_or(0, |r| r.closed_ts)
    }

    /// Catch-up requests this node's replica of `range` has sent since
    /// it was attached (a restart starts the count over).
    pub fn catchup_requests(&self, range: RangeId) -> u64 {
        self.replicas.get(&range).map_or(0, |r| r.catchup_requests)
    }

    // =================================================================
    // input dispatch
    // =================================================================

    /// Feed one input; effects accumulate into `out`.
    pub fn on_input(&mut self, now: u64, input: NodeInput, out: &mut Outbox) {
        match input {
            NodeInput::Start => self.on_start(now, out),
            NodeInput::Peer { from, msg } => self.on_peer(now, from, msg, out),
            NodeInput::Client { from, req } => self.on_client(now, from, req, out),
            NodeInput::LogForced { tokens } => self.on_forced(now, tokens, out),
            NodeInput::Timer(kind) => self.on_timer(now, kind, out),
            NodeInput::Coord(ev) => self.on_coord_event(now, ev, out),
            NodeInput::SplitRange { range, at } => self.on_split_request(now, range, at, out),
            NodeInput::MoveReplica { range, from, to } => {
                self.on_move_request(now, range, from, to, out)
            }
            NodeInput::MergeRanges { left, right } => self.on_merge_request(now, left, right, out),
        }
    }

    fn on_start(&mut self, now: u64, out: &mut Outbox) {
        if self.started {
            return;
        }
        self.started = true;
        out.set_timer(TimerKind::Heartbeat, self.cfg.heartbeat_interval);
        out.set_timer(TimerKind::CommitPeriod, self.cfg.commit_period);
        out.set_timer(TimerKind::Maintenance, self.cfg.maintenance_interval);
        // Watch the shared range table so splits/merges/moves performed
        // elsewhere re-route us — and *adopt* it if it is already newer
        // than the one we were constructed with. Fall back to an
        // exists-watch when the deployment never published a table (unit
        // harnesses).
        match self.coord.get_data_watch(TABLE_PATH) {
            Ok(data) => {
                if let Ok(t) = Ring::decode(&mut data.as_slice()) {
                    if t.version() > self.ring.version() {
                        self.ring = t;
                    }
                }
            }
            Err(_) => {
                let _ = self.coord.exists_watch(TABLE_PATH);
            }
        }
        let ranges: Vec<RangeId> = self.replicas.keys().copied().collect();
        for range in ranges {
            self.join_cohort(now, range, out);
        }
    }

    /// How this node relates to `range` under the current table.
    fn serve_status(&self, range: RangeId) -> ServeStatus {
        match self.ring.def(range) {
            None => ServeStatus::Gone,
            Some(def) if def.cohort.contains(&self.id) => ServeStatus::Member,
            Some(def) if def.moving.is_some_and(|(_, to)| to == self.id) => ServeStatus::MoveTarget,
            Some(_) => ServeStatus::NotMember,
        }
    }

    /// On startup (or rejoin): if the cohort already has a leader, go
    /// straight to catch-up as a follower; otherwise run election.
    fn join_cohort(&mut self, now: u64, range: RangeId, out: &mut Outbox) {
        match self.serve_status(range) {
            // A range the table no longer contains must not be joined
            // (its leader znode, if any, is a leftover): reconcile it
            // against the table instead.
            ServeStatus::Gone => {
                self.reconcile_gone_ranges(now, vec![range], out);
                return;
            }
            // Not ours (any more): a departed replica's leftovers.
            ServeStatus::NotMember => {
                self.retire_replica(now, range, false, out);
                return;
            }
            ServeStatus::Member | ServeStatus::MoveTarget => {}
        }
        let is_member = self.serve_status(range) == ServeStatus::Member;
        let paths = CohortPaths::new(range);
        self.coord.ensure_path(&paths.base);
        self.coord.ensure_path(&paths.candidates);
        match self.coord.get_data_watch(&paths.leader) {
            Ok(data) => {
                let leader: NodeId = parse_node(&data);
                if leader == self.id {
                    // A stale leader znode from our previous incarnation;
                    // our old session must have expired for us to be
                    // here.
                    self.try_start_election(now, range, out);
                } else {
                    let mut rt = runtime!(self, now);
                    if let Some(rep) = self.replicas.get_mut(&range) {
                        rep.become_follower(&mut rt, leader, out);
                    }
                }
            }
            Err(_) => {
                if is_member {
                    self.try_start_election(now, range, out);
                }
                // A move target without a leader znode just waits: the
                // exists-watch (set by get_data_watch's failure path
                // below) wakes it when a leader appears.
                let _ = self.coord.exists_watch(&paths.leader);
            }
        }
    }

    /// Run an election for `range` after re-validating that the table
    /// still names us: gone ranges reconcile, departed replicas retire,
    /// move targets wait for the members to elect among themselves.
    fn try_start_election(&mut self, now: u64, range: RangeId, out: &mut Outbox) {
        match self.serve_status(range) {
            ServeStatus::Gone => self.reconcile_gone_ranges(now, vec![range], out),
            ServeStatus::NotMember => self.retire_replica(now, range, false, out),
            ServeStatus::MoveTarget => {
                // Learners never stand for election — they hold data they
                // have not been voted responsible for. Wait for the
                // members' election and relearn the leader via the watch.
                let paths = CohortPaths::new(range);
                let _ = self.coord.exists_watch(&paths.leader);
            }
            ServeStatus::Member => {
                let mut rt = runtime!(self, now);
                if let Some(rep) = self.replicas.get_mut(&range) {
                    rep.start_election(&mut rt, out);
                }
            }
        }
    }

    // =================================================================
    // client requests
    // =================================================================

    /// True when the request was routed with a table older than ours —
    /// the client must refresh before we serve it.
    fn stale_routing(&self, ring_version: u64) -> bool {
        ring_version != 0 && ring_version < self.ring.version()
    }

    /// Route one client RPC to the replica serving its key (a scan
    /// routes by its cursor). Every §3 verb and `Scan` enters here.
    fn on_client(&mut self, now: u64, from: Addr, req: ClientRequest, out: &mut Outbox) {
        if self.stale_routing(req.ring_version) {
            let version = self.ring.version();
            out.reply(from, ClientReply::err(req.req, ClientError::WrongRange { version }));
            return;
        }
        let range = self.ring.range_of(req.op.routing_key());
        let ring_version = self.ring.version();
        let mut rt = runtime!(self, now);
        let Some(rep) = self.replicas.get_mut(&range) else {
            let version = rt.ring.version();
            out.reply(from, ClientReply::err(req.req, ClientError::WrongRange { version }));
            return;
        };
        match &req.op {
            ClientOp::Get { key, columns, consistency } => {
                rep.on_get(&rt, from, req.req, key, columns, *consistency, out);
            }
            ClientOp::Scan { start, end, limit, consistency } => {
                rep.on_scan(
                    &rt,
                    from,
                    req.req,
                    start,
                    end.as_ref(),
                    *limit,
                    *consistency,
                    out,
                    ring_version,
                );
            }
            ClientOp::Put { .. }
            | ClientOp::Delete { .. }
            | ClientOp::ConditionalPut { .. }
            | ClientOp::ConditionalDelete { .. } => rep.on_write(&mut rt, from, req, out),
        }
    }

    // =================================================================
    // peer messages
    // =================================================================

    fn on_peer(&mut self, now: u64, from: NodeId, msg: PeerMsg, out: &mut Outbox) {
        // Lifecycle messages attach, detach, or span multiple replicas;
        // the node handles them with their own guards.
        match msg {
            PeerMsg::Split { range, epoch, split_key, left, right, barrier } => {
                if self.replicas.contains_key(&range) {
                    self.on_split_msg(
                        now, range, from, epoch, split_key, left, right, barrier, out,
                    );
                }
                return;
            }
            PeerMsg::JoinRange { range, epoch, at, snapshot } => {
                self.on_join_range(now, from, range, epoch, at, &snapshot, out);
                return;
            }
            PeerMsg::CohortChange { range, epoch, cohort, departing, joining, .. } => {
                self.on_cohort_change(now, range, epoch, cohort, departing, joining, out);
                return;
            }
            PeerMsg::MergeProposal { range, left, epoch, token } => {
                self.on_merge_proposal(now, from, range, left, epoch, token, out);
                return;
            }
            PeerMsg::MergeReady { range, right, barrier, token, .. } => {
                self.on_merge_ready(now, range, right, barrier, token, out);
                return;
            }
            PeerMsg::MergeAbort { range, .. } => {
                self.on_merge_abort(now, range, out);
                return;
            }
            PeerMsg::Merge { range, right, merged, epoch, right_epoch, barrier, right_barrier } => {
                self.on_merge_msg(
                    now,
                    from,
                    range,
                    right,
                    merged,
                    epoch,
                    right_epoch,
                    barrier,
                    right_barrier,
                    out,
                );
                return;
            }
            // Per-replica protocol traffic: routed to the owning replica
            // by the dispatch below.
            PeerMsg::Propose { .. }
            | PeerMsg::Ack { .. }
            | PeerMsg::Commit { .. }
            | PeerMsg::LeaderHello { .. }
            | PeerMsg::CatchupReq { .. }
            | PeerMsg::CatchupRecords { .. }
            | PeerMsg::CaughtUp { .. } => {}
        }
        let range = msg.range();
        let mut rt = runtime!(self, now);
        let Some(rep) = self.replicas.get_mut(&range) else {
            return;
        };
        let fu = match msg {
            PeerMsg::Propose { epoch, lsn, ops, committed, closed_ts, .. } => {
                rep.on_propose(&mut rt, from, epoch, lsn, ops, committed, closed_ts, out);
                FollowUp::default()
            }
            PeerMsg::Ack { epoch, lsn, .. } => rep.on_ack(&mut rt, from, epoch, lsn, out),
            PeerMsg::Commit { epoch, lsn, closed_ts, .. } => {
                rep.on_commit_msg(&mut rt, from, epoch, lsn, closed_ts, out);
                FollowUp::default()
            }
            PeerMsg::LeaderHello { epoch, leader, .. } => {
                rep.on_leader_hello(&mut rt, epoch, leader, out);
                FollowUp::default()
            }
            PeerMsg::CatchupReq { from: f_cmt, .. } => {
                rep.on_catchup_req(&mut rt, from, f_cmt, out);
                FollowUp::default()
            }
            PeerMsg::CatchupRecords { epoch, records, fragments, up_to, .. } => {
                rep.on_catchup_records(&mut rt, from, epoch, records, fragments, up_to, out);
                FollowUp::default()
            }
            PeerMsg::CaughtUp { .. } => rep.on_caught_up(&mut rt, from, out),
            // Handled above.
            PeerMsg::Split { .. }
            | PeerMsg::JoinRange { .. }
            | PeerMsg::CohortChange { .. }
            | PeerMsg::MergeProposal { .. }
            | PeerMsg::MergeReady { .. }
            | PeerMsg::MergeAbort { .. }
            | PeerMsg::Merge { .. } => FollowUp::default(),
        };
        self.follow_up(now, range, fu, out);
    }

    /// Carry out the cross-replica consequences a replica transition
    /// reported: re-dispatch released writes, execute a drained barrier,
    /// commit a caught-up cohort move.
    fn follow_up(&mut self, now: u64, range: RangeId, fu: FollowUp, out: &mut Outbox) {
        for (from, req) in fu.redispatch {
            self.on_client(now, from, req, out);
        }
        if fu.move_target_caught_up {
            self.finish_move(now, range, out);
        }
        if fu.barrier_ready {
            let (split, merge_coord_on, handoff) = match self.replicas.get(&range) {
                Some(rep) => (
                    rep.splitting.is_some(),
                    match &rep.merging {
                        Some(m) if m.coordinator => Some(range),
                        Some(m) => Some(m.sibling),
                        None => None,
                    },
                    rep.moving.as_ref().is_some_and(|m| m.draining),
                ),
                None => (false, None, false),
            };
            if split {
                self.execute_split(now, range, out);
            } else if let Some(left) = merge_coord_on {
                self.advance_merge(now, left, out);
            } else if handoff {
                self.finish_move(now, range, out);
            }
        }
    }

    // =================================================================
    // force completions & timers
    // =================================================================

    fn on_forced(&mut self, now: u64, tokens: Vec<u64>, out: &mut Outbox) {
        // Content-level sync: everything appended so far is durable (the
        // runtime's disk model decided *when*). If the device refuses,
        // nothing covered by these tokens is durable — resolving the
        // waiters would acknowledge un-synced writes, a lost update the
        // moment the node crashes. Fail-stop instead: poison, leave the
        // waiters unresolved (clients time out and retry elsewhere), and
        // let the host crash us back to the synced prefix.
        if self.wal.sync().is_err() {
            self.poisoned = true;
            return;
        }
        for token in tokens {
            match self.forces.take(token) {
                Some(Waiter::LeaderWrite { range, lsn }) => {
                    // The range may have been dissolved between the force
                    // request and its completion.
                    let mut rt = runtime!(self, now);
                    let fu = match self.replicas.get_mut(&range) {
                        Some(rep) => rep.on_self_forced(&mut rt, lsn, out),
                        None => FollowUp::default(),
                    };
                    self.follow_up(now, range, fu, out);
                }
                Some(Waiter::FollowerWrite { range, lsn, leader }) => {
                    let epoch = self.replicas.get(&range).map_or(0, |r| r.epoch);
                    out.send(leader, PeerMsg::Ack { range, epoch, lsn });
                }
                Some(Waiter::CatchupDone { range, up_to, leader }) => {
                    let epoch = self.replicas.get(&range).map_or(0, |r| r.epoch);
                    out.send(leader, PeerMsg::CaughtUp { range, epoch, at: up_to });
                }
                None => {}
            }
        }
    }

    fn on_timer(&mut self, now: u64, kind: TimerKind, out: &mut Outbox) {
        match kind {
            TimerKind::Heartbeat => {
                self.coord.heartbeat(now);
                out.set_timer(TimerKind::Heartbeat, self.cfg.heartbeat_interval);
            }
            TimerKind::CommitPeriod => {
                let ranges: Vec<RangeId> = self.replicas.keys().copied().collect();
                for range in ranges {
                    let mut rt = runtime!(self, now);
                    if let Some(rep) = self.replicas.get_mut(&range) {
                        rep.commit_tick(&mut rt, out);
                    }
                }
                out.set_timer(TimerKind::CommitPeriod, self.cfg.commit_period);
            }
            TimerKind::ElectionRetry => {
                let electing: Vec<RangeId> = self
                    .replicas
                    .iter()
                    .filter(|(_, r)| r.role == Role::Electing)
                    .map(|(&r, _)| r)
                    .collect();
                for range in &electing {
                    // An observer (deferred candidacy after a split) or a
                    // node whose candidate creation failed upgrades to a
                    // full candidate; everyone else just re-checks.
                    if self.replicas[range].candidate_path.is_none() {
                        self.try_start_election(now, *range, out);
                    } else {
                        let mut rt = runtime!(self, now);
                        if let Some(rep) = self.replicas.get_mut(range) {
                            rep.check_election(&mut rt, out);
                        }
                    }
                }
                // Takeovers stall the same way elections do when their
                // one-shot messages are lost; re-drive them here too.
                let taking_over: Vec<RangeId> = self
                    .replicas
                    .iter()
                    .filter(|(_, r)| r.role == Role::LeaderTakeover)
                    .map(|(&r, _)| r)
                    .collect();
                for range in &taking_over {
                    let mut rt = runtime!(self, now);
                    let fu = match self.replicas.get_mut(range) {
                        Some(rep) => rep.retry_takeover(&mut rt, out),
                        None => FollowUp::default(),
                    };
                    self.follow_up(now, *range, fu, out);
                }
                if !electing.is_empty() || !taking_over.is_empty() {
                    out.set_timer(TimerKind::ElectionRetry, self.cfg.election_retry);
                }
            }
            TimerKind::Maintenance => self.on_maintenance(now, out),
        }
    }

    /// The maintenance tick: per-replica flush/compaction + load
    /// sampling, automatic reshard triggers, move/merge timeouts, stale
    /// move-marker repair, and dissolved-range GC.
    fn on_maintenance(&mut self, now: u64, out: &mut Outbox) {
        let ranges: Vec<RangeId> = self.replicas.keys().copied().collect();
        let mut advices: Vec<(RangeId, ReshardAdvice)> = Vec::new();
        for range in ranges {
            let mut rt = runtime!(self, now);
            if let Some(rep) = self.replicas.get_mut(&range) {
                let advice = rep.maintenance_tick(&mut rt, now);
                if advice != ReshardAdvice::None {
                    advices.push((range, advice));
                }
            }
        }
        for (range, advice) in advices {
            // Cool-down, keyed to the table generation: after an auto
            // split/merge is initiated for a range, further advice is
            // suppressed while its table entry still carries the marked
            // generation and the cool-down has not elapsed. A genuine
            // reconfiguration bumps the generation and re-arms
            // immediately; a failed attempt re-arms when the clock runs
            // out. This is what keeps borderline load from flapping a
            // range between split and merge.
            let gen = self.ring.def(range).map_or(0, |d| d.gen);
            if let Some(&(marked_gen, at)) = self.reshard_marks.get(&range) {
                if marked_gen == gen && now < at.saturating_add(self.cfg.reshard_cooldown) {
                    continue;
                }
            }
            match advice {
                ReshardAdvice::Split => {
                    let at = self.replicas.get(&range).and_then(|r| r.store.mid_key());
                    if let Some(at) = at {
                        self.reshard_marks.insert(range, (gen, now));
                        self.on_split_request(now, range, at, out);
                    }
                }
                ReshardAdvice::MergeRight => {
                    if let Some(right) = self.mergeable_right_sibling(range) {
                        self.reshard_marks.insert(range, (gen, now));
                        self.on_merge_request(now, range, right, out);
                    }
                }
                ReshardAdvice::None => {}
            }
        }

        // In-flight reconfiguration upkeep: abort a move whose learner
        // went silent, a merge whose barriers never drained, and CAS away
        // a `moving` marker orphaned by a dead predecessor leader.
        let mut move_aborts = Vec::new();
        let mut stale_markers = Vec::new();
        let mut merge_timeouts = Vec::new();
        for (&range, rep) in &self.replicas {
            match &rep.moving {
                Some(m) if now.saturating_sub(m.since) > self.cfg.move_timeout && !m.draining => {
                    move_aborts.push(range);
                }
                Some(_) => {}
                None => {
                    if rep.role == Role::Leader
                        && self.ring.def(range).is_some_and(|d| d.moving.is_some())
                    {
                        stale_markers.push(range);
                    }
                }
            }
            if let Some(m) = &rep.merging {
                if now.saturating_sub(m.since) > self.cfg.merge_timeout {
                    merge_timeouts.push((range, m.coordinator));
                }
            }
        }
        for range in move_aborts {
            self.abort_move(now, range, out);
        }
        for range in stale_markers {
            self.cas_table(|t| t.abort_move(range).is_ok());
        }
        for (range, coordinator) in merge_timeouts {
            if coordinator {
                self.abort_merge(now, range, out);
            } else if let Some(rep) = self.replicas.get_mut(&range) {
                // Subordinate self-release: the coordinator is gone or
                // wedged; unblock held writes and forget the barrier.
                rep.merging = None;
                self.unblock_writes(now, range, out);
            }
        }

        // Hand-off fallback: a leader znode we still own for a range we
        // departed means the joining node never claimed (it may have
        // died). Release it so the members can elect. Split/merge
        // parents' znodes are deliberately excluded — they stand until
        // the subtree GC to preserve watch ordering.
        let stale_leaderships: Vec<RangeId> = self
            .dissolved
            .iter()
            .filter(|d| !d.gc_znodes && !self.replicas.contains_key(&d.range))
            .map(|d| d.range)
            .collect();
        for range in stale_leaderships {
            let paths = CohortPaths::new(range);
            if let Ok((data, _)) = self.coord.get_data(&paths.leader) {
                if parse_node(&data) == self.id {
                    let _ = self.coord.delete(&paths.leader);
                }
            }
        }

        self.gc_dissolved(now);
        out.set_timer(TimerKind::Maintenance, self.cfg.maintenance_interval);
    }

    /// The right-hand neighbour of `range` if the pair is merge-eligible
    /// (adjacent, same replica set, no move in flight, and we replicate
    /// both sides locally).
    fn mergeable_right_sibling(&self, range: RangeId) -> Option<RangeId> {
        let def = self.ring.def(range)?;
        let end = def.end.as_ref()?;
        let neighbour = self.ring.defs().find(|d| &d.start == end)?;
        let mut a = def.cohort.clone();
        let mut b = neighbour.cohort.clone();
        a.sort_unstable();
        b.sort_unstable();
        if a != b || def.moving.is_some() || neighbour.moving.is_some() {
            return None;
        }
        self.replicas.contains_key(&neighbour.id).then_some(neighbour.id)
    }

    /// Read-modify-CAS the shared range table; adopts the new table on
    /// success and returns it. `mutate` returns false to abandon.
    fn cas_table(&mut self, mutate: impl FnOnce(&mut Ring) -> bool) -> Option<Ring> {
        let (data, stat) = self.coord.get_data(TABLE_PATH).ok()?;
        let mut t = Ring::decode(&mut data.as_slice()).ok()?;
        if !mutate(&mut t) {
            return None;
        }
        self.coord.set_data_cas(TABLE_PATH, t.encode_to_vec(), stat.version).ok()?;
        self.ring = t.clone();
        Some(t)
    }

    // =================================================================
    // attach/detach lifecycle
    // =================================================================

    /// Attach a replica to the registry (it joins its cohort separately).
    fn attach_replica(&mut self, rep: RangeReplica) {
        self.replicas.insert(rep.range, rep);
    }

    /// Release and re-dispatch a replica's buffered writes: they
    /// re-route under the current table (abort paths of splits, merges,
    /// and moves).
    fn unblock_writes(&mut self, now: u64, range: RangeId, out: &mut Outbox) {
        let blocked = match self.replicas.get_mut(&range) {
            Some(rep) => std::mem::take(&mut rep.blocked_writes),
            None => return,
        };
        for (from, req) in blocked {
            self.on_client(now, from, req, out);
        }
    }

    /// Detach `range`'s replica: answer its buffered writes with
    /// `WrongRange` (the client refreshes and re-routes), drop its
    /// candidate znode, and queue its local state for quiesced GC.
    fn retire_replica(&mut self, now: u64, range: RangeId, gc_znodes: bool, out: &mut Outbox) {
        let Some(rep) = self.replicas.remove(&range) else { return };
        for (from, req) in rep.blocked_writes {
            let version = self.ring.version();
            out.reply(from, ClientReply::err(req.req, ClientError::WrongRange { version }));
        }
        if let Some(path) = rep.candidate_path {
            let _ = self.coord.delete(&path);
        }
        self.dissolved.push(Dissolved { range, at: now, gc_znodes });
    }

    /// Quiesced garbage collection of dissolved ranges: store directory,
    /// WAL stream, and (for ranges gone from the table) the `/r{N}`
    /// znode subtree.
    fn gc_dissolved(&mut self, now: u64) {
        let quiesce = self.cfg.gc_quiesce;
        let due: Vec<Dissolved> = {
            let (due, rest) = std::mem::take(&mut self.dissolved)
                .into_iter()
                .partition(|d| now.saturating_sub(d.at) >= quiesce);
            self.dissolved = rest;
            due
        };
        for d in due {
            // Re-attached meanwhile (e.g. the replica moved back): spare.
            if self.replicas.contains_key(&d.range) {
                continue;
            }
            // Never GC the znodes of a range the table still serves.
            if d.gc_znodes && self.ring.def(d.range).is_some() {
                continue;
            }
            if let Ok(files) = self.vfs.list(&format!("store-r{}/", d.range.0)) {
                for f in files {
                    let _ = self.vfs.delete(&f);
                }
            }
            let _ = self.wal.retire_stream(d.range);
            if d.gc_znodes {
                let _ = self.coord.delete_recursive(&CohortPaths::new(d.range).base);
            }
        }
    }

    // =================================================================
    // dynamic range splitting (elastic re-sharding)
    // =================================================================

    /// Administrative entry point: the range's leader accepts the split,
    /// stops admitting new writes, and waits for the commit queue to
    /// drain — its `last_committed` at that point is the **barrier LSN**.
    /// Every other node (and a leader with an invalid split key) ignores
    /// the request, so harnesses may broadcast it.
    fn on_split_request(&mut self, now: u64, range: RangeId, at: Key, out: &mut Outbox) {
        let inside = match self.ring.def(range) {
            Some(def) => {
                def.moving.is_none()
                    && def.start.as_bytes() < at.as_bytes()
                    && def.end.as_ref().is_none_or(|e| at.as_bytes() < e.as_bytes())
            }
            None => false,
        };
        let Some(rep) = self.replicas.get_mut(&range) else { return };
        if !inside || rep.role != Role::Leader || rep.barrier_pending() || rep.moving.is_some() {
            return;
        }
        rep.splitting = Some(at);
        if rep.cq.is_empty() {
            self.execute_split(now, range, out);
        }
    }

    /// The barrier has drained: perform the split. The authoritative
    /// range table in the coordination service is updated first
    /// (conditional on its version, so a racing update aborts us
    /// cleanly); only then is the local store forked and the replica
    /// dissolved into the two children. The left child keeps this leader
    /// under a bumped epoch; the right child runs a fresh election whose
    /// tie-break prefers the *next* cohort member, moving half the hot
    /// range's load to another node.
    fn execute_split(&mut self, now: u64, range: RangeId, out: &mut Outbox) {
        let Some(at) = self.replicas.get_mut(&range).and_then(|r| r.splitting.take()) else {
            return;
        };
        let mut children = None;
        let updated = self
            .cas_table(|t| match t.split(range, &at) {
                Ok(lr) => {
                    children = Some(lr);
                    true
                }
                Err(_) => false,
            })
            .is_some();
        if !updated {
            // Clean abort (no table, decode failure, range already gone,
            // or a lost CAS race): unblock the buffered writes — the old
            // routing is still whatever the table says it is.
            self.unblock_writes(now, range, out);
            return;
        }
        let (left, right) = children.expect("cas succeeded");
        let rep = self.replicas.remove(&range).expect("own range");
        let barrier = rep.last_committed;
        let pe = rep.epoch;
        let peers = rep.peers.clone();

        // Children's election state: the left child inherits this leader
        // at `pe + 1` (epochs only move forward, Appendix B); the right
        // child's epoch znode is seeded with `pe` so its first election
        // lands on `pe + 1` too — every child LSN exceeds the barrier.
        let lp = CohortPaths::new(left);
        let rp = CohortPaths::new(right);
        for p in [&lp, &rp] {
            self.coord.ensure_path(&p.base);
            self.coord.ensure_path(&p.candidates);
        }
        self.coord.write_epoch(&lp.epoch, pe + 1);
        self.coord.write_epoch(&rp.epoch, pe);
        let _ = self.coord.create_ephemeral(&lp.leader, self.id.to_string().into_bytes());
        // The parent's leader znode is deliberately left standing:
        // deleting it would fire the followers' leader-watches *before*
        // the Split message works through their (FIFO) request queues,
        // pushing them onto the conservative fork path for no reason.
        // The quiesced GC removes the whole `/r{N}` subtree later.

        let (lstore, rstore) = self.fork_store(range, &rep.store, &at, left, right, barrier);

        let mut lc =
            RangeReplica::new(left, lstore, peers.clone(), (rep.span.0.clone(), Some(at.clone())));
        lc.role = Role::Leader;
        lc.epoch = pe + 1;
        lc.leader = Some(self.id);
        lc.last_assigned = Lsn::new(pe + 1, barrier.seq());
        lc.last_committed = barrier;
        lc.last_note = barrier;
        // The children inherit the parent's commit-timestamp clock so
        // their future stamps stay above everything the parent assigned
        // (ts-order == LSN-order survives the split).
        lc.last_ts = rep.last_ts;
        lc.served_ts = rep.served_ts;
        self.attach_replica(lc);

        let mut rc =
            RangeReplica::new(right, rstore, peers.clone(), (at.clone(), rep.span.1.clone()));
        rc.epoch = pe;
        rc.last_committed = barrier;
        rc.last_note = barrier;
        rc.last_ts = rep.last_ts;
        rc.served_ts = rep.served_ts;
        self.attach_replica(rc);

        for peer in peers {
            out.send(
                peer,
                PeerMsg::Split { range, epoch: pe, split_key: at.clone(), left, right, barrier },
            );
        }
        self.dissolved.push(Dissolved { range, at: now, gc_znodes: true });
        {
            // Enter the right child's election as an observer so the
            // followers — who tie with us at the barrier — decide among
            // themselves and the home preference moves leadership to the
            // next cohort member.
            let rp = CohortPaths::new(right);
            self.coord.ensure_path(&rp.base);
            self.coord.ensure_path(&rp.candidates);
            let mut rt = runtime!(self, now);
            if let Some(rc) = self.replicas.get_mut(&right) {
                rc.observe_election(&mut rt, out);
            }
        }
        // Buffered writes re-dispatch under the new table; clients that
        // routed with the old one get `WrongRange` and refresh.
        for (from, req) in rep.blocked_writes {
            self.on_client(now, from, req, out);
        }
    }

    /// Follower side of a split: the leader's table update is already in
    /// the coordination service. Apply the commit queue up to the barrier
    /// (the in-order link guarantees every propose `<= barrier` preceded
    /// this message when we are a same-epoch follower), fork the store,
    /// and join both child cohorts.
    #[allow(clippy::too_many_arguments)]
    fn on_split_msg(
        &mut self,
        now: u64,
        range: RangeId,
        from: NodeId,
        epoch: spinnaker_common::Epoch,
        split_key: Key,
        left: RangeId,
        right: RangeId,
        barrier: Lsn,
        out: &mut Outbox,
    ) {
        {
            let rep = self.replicas.get_mut(&range).expect("checked");
            if epoch < rep.epoch {
                return; // a deposed leader's split; the table CAS stopped it too
            }
            if epoch == rep.epoch
                && matches!(rep.role, Role::Leader | Role::LeaderTakeover)
                && from != self.id
            {
                return; // two leaders in one epoch cannot happen; drop
            }
        }
        let full_prefix = {
            let rep = &self.replicas[&range];
            rep.role == Role::Follower && rep.epoch == epoch
        };
        if full_prefix {
            let mut rt = runtime!(self, now);
            if let Some(rep) = self.replicas.get_mut(&range) {
                rep.apply_commit(&mut rt, barrier);
            }
        }
        self.adopt_table_from_coord();
        let rep = self.replicas.remove(&range).expect("checked");
        // A catching-up replica may hold a queue with holes; fork at its
        // own committed watermark and let child catch-up fill the rest.
        let watermark = rep.last_committed.min(barrier);
        let (lstore, rstore) =
            self.fork_store(range, &rep.store, &split_key, left, right, watermark);
        self.install_children(rep, &split_key, left, lstore, right, rstore, watermark, epoch, out);
        self.dissolved.push(Dissolved { range, at: now, gc_znodes: true });
        self.join_cohort(now, left, out);
        self.join_cohort(now, right, out);
    }

    /// Watch-driven table refresh. When a range this node serves
    /// vanished from the table, its split/merge metadata is
    /// authoritative even though the leader's message never arrived (it
    /// may have crashed between the table update and the fan-out):
    /// reconcile locally at our own committed watermark — the
    /// conservative path. A live def that no longer names us (a
    /// committed departure we slept through) retires the local replica.
    fn refresh_table(&mut self, now: u64, out: &mut Outbox) {
        let data = match self.coord.get_data_watch(TABLE_PATH) {
            Ok(d) => d,
            Err(_) => {
                let _ = self.coord.exists_watch(TABLE_PATH);
                return;
            }
        };
        let Ok(new_ring) = Ring::decode(&mut data.as_slice()) else { return };
        if new_ring.version() <= self.ring.version() {
            return;
        }
        self.ring = new_ring;
        let mut gone = Vec::new();
        let mut departed = Vec::new();
        for &range in self.replicas.keys() {
            match self.serve_status(range) {
                ServeStatus::Gone => gone.push(range),
                ServeStatus::NotMember => departed.push(range),
                ServeStatus::Member | ServeStatus::MoveTarget => {}
            }
        }
        for range in departed {
            self.retire_replica(now, range, false, out);
        }
        let gone: Vec<RangeId> = gone
            .into_iter()
            .filter(|&range| {
                // A follower with a live remote leader defers: the
                // leader's Split/Merge message is queued behind every
                // outstanding propose on the in-order link, so
                // reconciling on the (out-of-band) watch would drop
                // writes we already acked. If the leader is actually
                // dead, its leader-znode deletion reaches us and the
                // election path redirects to the conservative
                // reconcile.
                let r = &self.replicas[&range];
                let defer = matches!(r.role, Role::Follower | Role::CatchingUp)
                    && r.leader.is_some_and(|l| l != self.id);
                !defer
            })
            .collect();
        if !gone.is_empty() {
            self.reconcile_gone_ranges(now, gone, out);
        }
    }

    /// Conservative, table-driven reconciliation of ranges that vanished
    /// from the table while this replica lagged (crashed leader mid
    /// fan-out, slept-through splits/merges, chained either way). The
    /// targets are all current ranges that name us a replica and
    /// intersect a gone replica's recorded span:
    ///
    /// * a target **contained** in a single gone span is the split case:
    ///   rebuild it at that replica's committed watermark (the watermark
    ///   vouches for the whole target);
    /// * any other intersection (merges, mixed chains) rebuilds from all
    ///   intersecting spans at watermark **zero** — under-claiming, so an
    ///   election can never pick a leader missing committed writes —
    ///   and catch-up fills the gaps.
    ///
    /// Either way the gone streams' **tails** (records beyond the
    /// watermark that we may already have acked toward a quorum) are
    /// migrated into the target streams so their durability — and their
    /// visibility to elections via `n.lst` — survives the handoff.
    fn reconcile_gone_ranges(&mut self, now: u64, gone: Vec<RangeId>, out: &mut Outbox) {
        let mut parents: Vec<RangeReplica> = Vec::new();
        for range in gone {
            if let Some(rep) = self.replicas.remove(&range) {
                for (from, req) in &rep.blocked_writes {
                    let version = self.ring.version();
                    out.reply(
                        *from,
                        ClientReply::err(req.req, ClientError::WrongRange { version }),
                    );
                }
                if let Some(path) = &rep.candidate_path {
                    let _ = self.coord.delete(path);
                }
                parents.push(rep);
            }
        }
        if parents.is_empty() {
            return;
        }
        let targets: Vec<RangeDef> = self
            .ring
            .defs()
            .filter(|d| {
                d.cohort.contains(&self.id)
                    && !self.replicas.contains_key(&d.id)
                    && parents.iter().any(|p| spans_intersect(&p.span, d))
            })
            .cloned()
            .collect();
        let mut built = Vec::new();
        for def in &targets {
            let contributors: Vec<&RangeReplica> =
                parents.iter().filter(|p| spans_intersect(&p.span, def)).collect();
            let contained = contributors.len() == 1 && span_contains(&contributors[0].span, def);
            let Ok(mut store) = RangeStore::recreate(
                self.vfs.clone(),
                store_options(def.id, &self.cfg, self.cache.as_ref()),
            ) else {
                continue;
            };
            for p in &contributors {
                let (lo, hi) = span_clip(&p.span, def);
                if let Ok(rows) = p.store.scan(&lo, hi.as_ref()) {
                    for (key, row) in rows {
                        store.ingest_fragment(&key, &row);
                    }
                }
                // The contributors' rows were pruned at their floors;
                // the rebuilt store must not serve snapshots below them.
                store.set_gc_floor(p.store.gc_floor());
            }
            let _ = store.flush();
            let watermark = if contained { contributors[0].last_committed } else { Lsn::ZERO };
            if !watermark.is_zero() {
                let _ = self.wal.set_checkpoint(def.id, watermark);
            }
            let epoch = contributors.iter().map(|p| p.epoch).max().unwrap_or(0);
            let mut rep = RangeReplica::new(
                def.id,
                store,
                def.cohort.iter().copied().filter(|&n| n != self.id).collect(),
                (def.start.clone(), def.end.clone()),
            );
            rep.epoch = epoch;
            rep.last_committed = watermark;
            rep.last_note = watermark;
            self.attach_replica(rep);
            built.push(def.id);
        }
        // Migrate each gone stream's tail — acked records must keep their
        // durable home and stay visible to elections. Only retire a
        // parent stream once every tail record found a target stream.
        for p in &parents {
            let watermark = p.last_committed;
            let tail = self
                .wal
                .read_range(p.range, watermark, self.wal.state(p.range).last_lsn)
                .unwrap_or_default();
            let mut migrated = true;
            for (lsn, op) in tail {
                let target = targets
                    .iter()
                    .find(|d| built.contains(&d.id) && key_in_def(&op.key, d))
                    .map(|d| d.id);
                match target {
                    Some(t) => {
                        if self.wal.append(&LogRecord::write(t, lsn, op)).is_err() {
                            migrated = false;
                        }
                    }
                    None => migrated = false,
                }
            }
            if migrated {
                let _ = self.wal.set_checkpoint(p.range, watermark);
                self.dissolved.push(Dissolved { range: p.range, at: now, gc_znodes: true });
            }
        }
        self.sync_wal();
        for range in built {
            self.join_cohort(now, range, out);
        }
    }

    /// Fork `store` at `at` into the two children, persist both halves,
    /// and advance the WAL checkpoints: the children's logical LSN
    /// streams begin just above `watermark`, and the parent's stream
    /// below it becomes garbage-collectable.
    ///
    /// The parent's log *tail* — records beyond the watermark that this
    /// replica holds and may already have **acked** toward a quorum — is
    /// migrated into the child streams, keyed by side. Without this, a
    /// replica forking at a lagging watermark (the conservative path)
    /// would advertise a log position below writes it vouched for, and a
    /// child election could pick a leader missing committed writes.
    fn fork_store(
        &mut self,
        parent: RangeId,
        store: &RangeStore,
        at: &Key,
        left: RangeId,
        right: RangeId,
        watermark: Lsn,
    ) -> (RangeStore, RangeStore) {
        let (mut ls, mut rs) = store
            .split(
                at,
                store_options(left, &self.cfg, self.cache.as_ref()),
                store_options(right, &self.cfg, self.cache.as_ref()),
            )
            .expect("store fork");
        let _ = ls.flush();
        let _ = rs.flush();
        let _ = self.wal.set_checkpoint(left, watermark);
        let _ = self.wal.set_checkpoint(right, watermark);
        let tail = self
            .wal
            .read_range(parent, watermark, self.wal.state(parent).last_lsn)
            .unwrap_or_default();
        let mut migrated = true;
        for (lsn, op) in tail {
            let child = if op.key.as_bytes() < at.as_bytes() { left } else { right };
            if self.wal.append(&LogRecord::write(child, lsn, op)).is_err() {
                migrated = false;
            }
        }
        // Retire the parent stream only if every tail record found a home
        // in a child stream; otherwise the parent copy stays replayable.
        if migrated {
            let _ = self.wal.set_checkpoint(parent, watermark);
        }
        // The tail copies must be as durable as the acked originals.
        self.sync_wal();
        (ls, rs)
    }

    /// Register the two child replicas of a dissolved parent (split at
    /// `at`) and redirect anything the parent still buffered.
    #[allow(clippy::too_many_arguments)]
    fn install_children(
        &mut self,
        parent: RangeReplica,
        at: &Key,
        left: RangeId,
        lstore: RangeStore,
        right: RangeId,
        rstore: RangeStore,
        watermark: Lsn,
        epoch: spinnaker_common::Epoch,
        out: &mut Outbox,
    ) {
        let lspan = (parent.span.0.clone(), Some(at.clone()));
        let rspan = (at.clone(), parent.span.1.clone());
        for (range, store, span) in [(left, lstore, lspan), (right, rstore, rspan)] {
            let peers =
                self.ring.cohort(range).into_iter().filter(|&n| n != self.id).collect::<Vec<_>>();
            let peers = if peers.is_empty() { parent.peers.clone() } else { peers };
            let mut rep = RangeReplica::new(range, store, peers, span);
            rep.epoch = epoch;
            rep.last_committed = watermark;
            rep.last_note = watermark;
            self.attach_replica(rep);
        }
        for (from, req) in parent.blocked_writes {
            let version = self.ring.version();
            out.reply(from, ClientReply::err(req.req, ClientError::WrongRange { version }));
        }
    }

    /// Pull the freshest table from the coordination service (used when
    /// a lifecycle message outruns our table watch delivery).
    fn adopt_table_from_coord(&mut self) {
        if let Ok((data, _)) = self.coord.get_data(TABLE_PATH) {
            if let Ok(t) = Ring::decode(&mut data.as_slice()) {
                if t.version() > self.ring.version() {
                    self.ring = t;
                }
            }
        }
    }

    // =================================================================
    // cohort movement (replica rebalancing)
    // =================================================================

    /// Administrative entry point: the range's leader CAS-publishes the
    /// move intent, streams a consistent snapshot to the joining node,
    /// and keeps proposing to it as a **learner** until it confirms
    /// durable catch-up. Every other node ignores the request, so
    /// harnesses may broadcast it.
    fn on_move_request(
        &mut self,
        now: u64,
        range: RangeId,
        from: NodeId,
        to: NodeId,
        out: &mut Outbox,
    ) {
        let eligible = self.ring.def(range).is_some_and(|d| {
            d.moving.is_none() && d.cohort.contains(&from) && !d.cohort.contains(&to)
        });
        let Some(rep) = self.replicas.get(&range) else { return };
        if !eligible
            || rep.role != Role::Leader
            || rep.barrier_pending()
            || rep.moving.is_some()
            || rep.takeover.is_some()
        {
            return;
        }
        if self.cas_table(|t| t.begin_move(range, from, to).is_ok()).is_none() {
            return; // lost a table race; the admin can retry
        }
        let rep = self.replicas.get_mut(&range).expect("own range");
        rep.moving = Some(MoveState { from, to, since: now, draining: false });
        // The learner receives every subsequent propose (its acks are
        // excluded from the quorum until the commit CAS).
        if !rep.peers.contains(&to) {
            rep.peers.push(to);
        }
        let at = rep.last_committed;
        let epoch = rep.epoch;
        match rep.store.export_snapshot() {
            Ok(snapshot) => {
                out.send(to, PeerMsg::JoinRange { range, epoch, at, snapshot });
            }
            Err(_) => self.abort_move(now, range, out),
        }
    }

    /// Joining-node side: seed a fresh replica from the snapshot, hand
    /// the WAL stream its starting checkpoint, and catch up from the
    /// leader's log tail through the normal follower path. The final
    /// `CaughtUp` confirmation is sent only after the appended tail is
    /// durable, which is exactly the leader's commit gate.
    #[allow(clippy::too_many_arguments)]
    fn on_join_range(
        &mut self,
        now: u64,
        leader: NodeId,
        range: RangeId,
        epoch: spinnaker_common::Epoch,
        at: Lsn,
        snapshot: &StoreSnapshot,
        out: &mut Outbox,
    ) {
        if self.replicas.contains_key(&range) {
            return; // duplicate handoff
        }
        self.adopt_table_from_coord();
        let Some(def) = self.ring.def(range).cloned() else { return };
        let expected =
            def.moving.is_some_and(|(_, to)| to == self.id) || def.cohort.contains(&self.id);
        if !expected {
            return; // stale or aborted handoff
        }
        let Ok(mut store) = RangeStore::recreate(
            self.vfs.clone(),
            store_options(range, &self.cfg, self.cache.as_ref()),
        ) else {
            return;
        };
        if store.import_snapshot(snapshot).is_err() {
            return;
        }
        let _ = store.flush();
        // Per-stream checkpoint handoff: the snapshot vouches for
        // everything at or below `at`; catch-up and live proposes cover
        // the rest.
        let _ = self.wal.retire_stream(range);
        let _ = self.wal.set_checkpoint(range, at);
        let mut rep = RangeReplica::new(
            range,
            store,
            def.cohort.iter().copied().filter(|&n| n != self.id).collect(),
            (def.start.clone(), def.end.clone()),
        );
        rep.epoch = epoch;
        rep.last_committed = at;
        rep.last_note = at;
        self.attach_replica(rep);
        let paths = CohortPaths::new(range);
        self.coord.ensure_path(&paths.base);
        self.coord.ensure_path(&paths.candidates);
        let _ = self.coord.get_data_watch(&paths.leader);
        let mut rt = runtime!(self, now);
        if let Some(rep) = self.replicas.get_mut(&range) {
            rep.become_follower(&mut rt, leader, out);
        }
        let _ = now;
    }

    /// The learner confirmed durable catch-up: commit the new replica
    /// set. A departing leader first drains its commit queue (a barrier,
    /// like a split's) so no client ack is ever owed by a replica that
    /// just left.
    fn finish_move(&mut self, now: u64, range: RangeId, out: &mut Outbox) {
        let Some(rep) = self.replicas.get_mut(&range) else { return };
        let Some(m) = rep.moving.as_mut() else { return };
        let (from, to) = (m.from, m.to);
        if from == self.id && !rep.cq.is_empty() {
            m.draining = true; // barrier: try_commit re-triggers when drained
            return;
        }
        if self.cas_table(|t| t.commit_move(range, from, to).is_ok()).is_none() {
            self.abort_move(now, range, out);
            return;
        }
        let def = self.ring.def(range).cloned().expect("just committed");
        let rep = self.replicas.get_mut(&range).expect("own range");
        rep.moving = None;
        rep.peers = def.cohort.iter().copied().filter(|&n| n != self.id).collect();
        let epoch = rep.epoch;
        let change = PeerMsg::CohortChange {
            range,
            epoch,
            gen: def.gen,
            cohort: def.cohort.clone(),
            departing: from,
            joining: to,
        };
        let mut recipients: Vec<NodeId> =
            def.cohort.iter().copied().filter(|&n| n != self.id).collect();
        if from != self.id && !recipients.contains(&from) {
            recipients.push(from);
        }
        for peer in recipients {
            out.send(peer, change.clone());
        }
        if from == self.id {
            // Leader hand-off: the joining node claims leadership
            // directly on receiving the cohort change (atomic znode
            // swap, so member elections cannot race it). Our own leader
            // znode stays standing until the swap — the maintenance
            // sweep deletes it as a fallback should the joiner die
            // first, so the members can elect.
            self.retire_replica(now, range, false, out);
        }
    }

    /// Abandon an in-flight move: CAS the marker away and drop the
    /// learner from the propose fan-out.
    fn abort_move(&mut self, now: u64, range: RangeId, out: &mut Outbox) {
        let _ = self.cas_table(|t| t.abort_move(range).is_ok());
        let Some(rep) = self.replicas.get_mut(&range) else { return };
        if let Some(m) = rep.moving.take() {
            rep.peers.retain(|&n| n != m.to);
        }
        self.unblock_writes(now, range, out);
    }

    /// The committed cohort change reached a member (or the departing
    /// replica): refresh the peer set, or detach.
    #[allow(clippy::too_many_arguments)]
    fn on_cohort_change(
        &mut self,
        now: u64,
        range: RangeId,
        epoch: spinnaker_common::Epoch,
        cohort: Vec<NodeId>,
        departing: NodeId,
        joining: NodeId,
        out: &mut Outbox,
    ) {
        self.adopt_table_from_coord();
        if departing == self.id {
            self.retire_replica(now, range, false, out);
            return;
        }
        let mut rt = runtime!(self, now);
        let Some(rep) = self.replicas.get_mut(&range) else { return };
        if epoch < rep.epoch {
            return;
        }
        let claim = joining == self.id && rep.leader == Some(departing);
        rep.peers = cohort.into_iter().filter(|&n| n != self.id).collect();
        if claim {
            // The departing replica was the leader and named us its
            // successor: take over directly (we are fully caught up —
            // that is what gated the commit CAS).
            rep.claim_leadership(&mut rt, out);
        }
    }

    // =================================================================
    // range merge (the inverse of split)
    // =================================================================

    /// Administrative entry point: the **left** sibling's leader
    /// coordinates. Both siblings barrier (drain their commit queues),
    /// then the coordinator CAS-publishes the merged `RangeDef`, merges
    /// the local stores, and leads the merged range.
    fn on_merge_request(&mut self, now: u64, left: RangeId, right: RangeId, out: &mut Outbox) {
        let eligible = {
            let (ld, rd) = (self.ring.def(left), self.ring.def(right));
            match (ld, rd) {
                (Some(ld), Some(rd)) => {
                    let mut a = ld.cohort.clone();
                    let mut b = rd.cohort.clone();
                    a.sort_unstable();
                    b.sort_unstable();
                    ld.end.as_ref() == Some(&rd.start)
                        && a == b
                        && ld.moving.is_none()
                        && rd.moving.is_none()
                }
                _ => false,
            }
        };
        if !eligible || !self.replicas.contains_key(&right) {
            return;
        }
        {
            let Some(lrep) = self.replicas.get_mut(&left) else { return };
            if lrep.role != Role::Leader
                || lrep.barrier_pending()
                || lrep.moving.is_some()
                || lrep.takeover.is_some()
            {
                return;
            }
            lrep.merging = Some(Merging {
                sibling: right,
                coordinator: true,
                sibling_barrier: None,
                requester: self.id,
                announced: false,
                since: now,
                token: now,
            });
        }
        // Subordinate barrier: locally when we lead the right sibling
        // too, by proposal to its leader otherwise.
        let (rrole, rleader, repoch) = {
            let r = &self.replicas[&right];
            (r.role, r.leader, r.epoch)
        };
        let mut local_subordinate = false;
        match rrole {
            Role::Leader => {
                let rrep = self.replicas.get_mut(&right).expect("checked");
                if rrep.barrier_pending() || rrep.moving.is_some() {
                    self.abort_merge(now, left, out);
                    return;
                }
                rrep.merging = Some(Merging {
                    sibling: left,
                    coordinator: false,
                    sibling_barrier: None,
                    requester: self.id,
                    announced: false,
                    since: now,
                    token: now,
                });
                local_subordinate = true;
            }
            _ => match rleader {
                Some(leader) if leader != self.id => {
                    out.send(
                        leader,
                        PeerMsg::MergeProposal { range: right, left, epoch: repoch, token: now },
                    );
                }
                _ => {
                    self.abort_merge(now, left, out);
                    return;
                }
            },
        }
        if local_subordinate {
            // An idle right sibling is already drained: its try_commit
            // must announce the barrier now, or nothing ever would (no
            // acks or forces arrive on an idle range).
            let mut rt = runtime!(self, now);
            let fu = self.replicas.get_mut(&right).expect("checked").try_commit(&mut rt, out);
            self.follow_up(now, right, fu, out);
        }
        self.advance_merge(now, left, out);
    }

    /// Right sibling's leader: barrier on request. Once the queue
    /// drains, a commit message up to the barrier goes to the cohort
    /// (same FIFO links as the proposes it covers) and `MergeReady` to
    /// the coordinator — both from [`RangeReplica::try_commit`].
    #[allow(clippy::too_many_arguments)]
    fn on_merge_proposal(
        &mut self,
        now: u64,
        from: NodeId,
        right: RangeId,
        left: RangeId,
        _epoch: spinnaker_common::Epoch,
        token: u64,
        out: &mut Outbox,
    ) {
        {
            let Some(rep) = self.replicas.get_mut(&right) else { return };
            if rep.role != Role::Leader
                || rep.barrier_pending()
                || rep.moving.is_some()
                || rep.takeover.is_some()
            {
                return;
            }
            rep.merging = Some(Merging {
                sibling: left,
                coordinator: false,
                sibling_barrier: None,
                requester: from,
                announced: false,
                since: now,
                token,
            });
        }
        // Already drained? Announce immediately.
        let mut rt = runtime!(self, now);
        let fu = self.replicas.get_mut(&right).expect("checked").try_commit(&mut rt, out);
        self.follow_up(now, right, fu, out);
    }

    /// Coordinator: the right sibling's barrier is known.
    fn on_merge_ready(
        &mut self,
        now: u64,
        left: RangeId,
        right: RangeId,
        barrier: Lsn,
        token: u64,
        out: &mut Outbox,
    ) {
        {
            let Some(lrep) = self.replicas.get_mut(&left) else { return };
            match lrep.merging.as_mut() {
                // The token ties the readiness to *this* attempt: a
                // delayed MergeReady from an earlier aborted attempt
                // would otherwise supply a stale barrier.
                Some(m) if m.coordinator && m.sibling == right && m.token == token => {
                    m.sibling_barrier = Some(barrier);
                }
                _ => return,
            }
        }
        self.advance_merge(now, left, out);
    }

    /// Coordinator: execute the merge once (a) our own queue drained,
    /// and (b) the right sibling's barrier is known **and** our local
    /// right replica has committed through it (the subordinate's commit
    /// message precedes `MergeReady` on the same FIFO link, so this
    /// resolves promptly; a wedged catch-up falls to the merge timeout).
    fn advance_merge(&mut self, now: u64, left: RangeId, out: &mut Outbox) {
        let (right, sibling_barrier) = {
            let Some(lrep) = self.replicas.get(&left) else { return };
            let Some(m) = lrep.merging.as_ref().filter(|m| m.coordinator) else { return };
            if lrep.role != Role::Leader || !lrep.cq.is_empty() {
                return;
            }
            (m.sibling, m.sibling_barrier)
        };
        let right_barrier = match sibling_barrier {
            Some(b) => {
                match self.replicas.get(&right) {
                    Some(r) if r.last_committed >= b => b,
                    Some(_) => return, // commit still in flight
                    None => {
                        self.abort_merge(now, left, out);
                        return;
                    }
                }
            }
            None => {
                // Local subordinate: we lead the right sibling too.
                let Some(rrep) = self.replicas.get(&right) else {
                    self.abort_merge(now, left, out);
                    return;
                };
                let drained = rrep.role == Role::Leader
                    && rrep.merging.as_ref().is_some_and(|m| !m.coordinator && m.announced);
                if !drained {
                    return; // its try_commit will re-poke us when drained
                }
                rrep.last_committed
            }
        };
        self.execute_merge(now, left, right, right_barrier, out);
    }

    /// Both barriers drained: CAS the merged `RangeDef`, merge the local
    /// stores, lead the merged range, fan the `Merge` message to the
    /// cohort, and detach both siblings.
    fn execute_merge(
        &mut self,
        now: u64,
        left: RangeId,
        right: RangeId,
        right_barrier: Lsn,
        out: &mut Outbox,
    ) {
        if !self.replicas.contains_key(&left) || !self.replicas.contains_key(&right) {
            self.abort_merge(now, left, out);
            return;
        }
        let mut merged_id = None;
        if self
            .cas_table(|t| match t.merge(left, right) {
                Ok(id) => {
                    merged_id = Some(id);
                    true
                }
                Err(_) => false,
            })
            .is_none()
        {
            self.abort_merge(now, left, out);
            return;
        }
        let merged = merged_id.expect("cas succeeded");
        let lrep = self.replicas.remove(&left).expect("coordinator owns left");
        let rrep = self.replicas.remove(&right).expect("same cohort owns right");
        let barrier = lrep.last_committed;
        let (le, re) = (lrep.epoch, rrep.epoch);
        let merged_epoch = le.max(re) + 1;
        let base = Lsn::new(merged_epoch, barrier.seq().max(right_barrier.seq()));

        // Election state of the merged range: this leader continues at
        // `max(epochs) + 1`, so every merged-range LSN exceeds every LSN
        // either sibling ever used.
        let mp = CohortPaths::new(merged);
        self.coord.ensure_path(&mp.base);
        self.coord.ensure_path(&mp.candidates);
        self.coord.write_epoch(&mp.epoch, merged_epoch);
        let _ = self.coord.create_ephemeral(&mp.leader, self.id.to_string().into_bytes());
        // Both siblings' leader znodes stay standing until GC, exactly
        // like a split parent's (watch-ordering: peers must process the
        // Merge message first).

        let mut mstore = RangeStore::merge(
            &lrep.store,
            &rrep.store,
            store_options(merged, &self.cfg, self.cache.as_ref()),
        )
        .expect("store merge");
        let _ = mstore.flush();
        let _ = self.wal.set_checkpoint(left, barrier);
        let _ = self.wal.set_checkpoint(right, right_barrier);
        let _ = self.wal.set_checkpoint(merged, base);
        self.sync_wal();

        let peers = lrep.peers.clone();
        let mut mrep = RangeReplica::new(
            merged,
            mstore,
            peers.clone(),
            (lrep.span.0.clone(), rrep.span.1.clone()),
        );
        mrep.role = Role::Leader;
        mrep.epoch = merged_epoch;
        mrep.leader = Some(self.id);
        mrep.last_assigned = base;
        mrep.last_committed = base;
        mrep.last_note = base;
        // Continue the merged clock above both siblings' stamps.
        mrep.last_ts = lrep.last_ts.max(rrep.last_ts);
        mrep.served_ts = lrep.served_ts.max(rrep.served_ts);
        self.attach_replica(mrep);

        for peer in peers {
            out.send(
                peer,
                PeerMsg::Merge {
                    range: left,
                    right,
                    merged,
                    epoch: le,
                    right_epoch: re,
                    barrier,
                    right_barrier,
                },
            );
        }
        self.dissolved.push(Dissolved { range: left, at: now, gc_znodes: true });
        self.dissolved.push(Dissolved { range: right, at: now, gc_znodes: true });
        for (from, req) in lrep.blocked_writes.into_iter().chain(rrep.blocked_writes) {
            self.on_client(now, from, req, out);
        }
    }

    /// Abandon an in-flight merge: unblock both siblings' held writes
    /// and release a remote subordinate barrier.
    fn abort_merge(&mut self, now: u64, left: RangeId, out: &mut Outbox) {
        let (right, epoch) = {
            let Some(lrep) = self.replicas.get_mut(&left) else { return };
            let Some(m) = lrep.merging.take() else { return };
            (m.sibling, lrep.epoch)
        };
        self.unblock_writes(now, left, out);
        let rleader = match self.replicas.get_mut(&right) {
            Some(rrep) => {
                if rrep.merging.as_ref().is_some_and(|m| !m.coordinator)
                    && rrep.role == Role::Leader
                {
                    rrep.merging = None;
                    self.unblock_writes(now, right, out);
                    None
                } else {
                    self.replicas.get(&right).and_then(|r| r.leader).filter(|&l| l != self.id)
                }
            }
            None => None,
        };
        if let Some(leader) = rleader {
            out.send(leader, PeerMsg::MergeAbort { range: right, epoch });
        }
    }

    /// Remote subordinate: the coordinator abandoned the merge.
    fn on_merge_abort(&mut self, now: u64, right: RangeId, out: &mut Outbox) {
        let Some(rep) = self.replicas.get_mut(&right) else { return };
        if rep.merging.as_ref().is_none_or(|m| m.coordinator) {
            return;
        }
        rep.merging = None;
        self.unblock_writes(now, right, out);
    }

    /// Follower side of a merge: both barriers are committed history.
    /// Drain both queues through their barriers; a gap-free drain keeps
    /// the merged stream's full watermark, anything else under-claims
    /// (watermark zero, WAL tails migrated) and lets catch-up fill the
    /// gaps — an election must never see a watermark the local state
    /// cannot back.
    #[allow(clippy::too_many_arguments)]
    fn on_merge_msg(
        &mut self,
        now: u64,
        from: NodeId,
        left: RangeId,
        right: RangeId,
        merged: RangeId,
        epoch: spinnaker_common::Epoch,
        right_epoch: spinnaker_common::Epoch,
        barrier: Lsn,
        right_barrier: Lsn,
        out: &mut Outbox,
    ) {
        if let Some(lrep) = self.replicas.get(&left) {
            if epoch < lrep.epoch {
                return; // a deposed coordinator's merge
            }
            if epoch == lrep.epoch
                && matches!(lrep.role, Role::Leader | Role::LeaderTakeover)
                && from != self.id
            {
                return;
            }
        }
        self.adopt_table_from_coord();
        if !self.replicas.contains_key(&left) || !self.replicas.contains_key(&right) {
            // Missing one side entirely: fall back to the conservative
            // table-driven reconcile over whatever we do hold.
            let gone: Vec<RangeId> = [left, right]
                .into_iter()
                .filter(|r| self.replicas.contains_key(r) && self.ring.def(*r).is_none())
                .collect();
            if !gone.is_empty() {
                self.reconcile_gone_ranges(now, gone, out);
            }
            return;
        }
        let mut clean = true;
        for (range, e, b) in [(left, epoch, barrier), (right, right_epoch, right_barrier)] {
            let mut rt = runtime!(self, now);
            let rep = self.replicas.get_mut(&range).expect("checked");
            let pre = matches!(rep.role, Role::Follower | Role::Leader) && rep.epoch == e;
            let drained = rep.commit_through_barrier(&mut rt, b);
            clean &= pre && drained;
        }
        let lrep = self.replicas.remove(&left).expect("checked");
        let rrep = self.replicas.remove(&right).expect("checked");
        let merged_epoch = epoch.max(right_epoch) + 1;
        let base = Lsn::new(merged_epoch, barrier.seq().max(right_barrier.seq()));
        let mut mstore = RangeStore::merge(
            &lrep.store,
            &rrep.store,
            store_options(merged, &self.cfg, self.cache.as_ref()),
        )
        .expect("store merge");
        let _ = mstore.flush();
        let watermark = if clean {
            let _ = self.wal.set_checkpoint(left, barrier);
            let _ = self.wal.set_checkpoint(right, right_barrier);
            let _ = self.wal.set_checkpoint(merged, base);
            self.dissolved.push(Dissolved { range: left, at: now, gc_znodes: true });
            self.dissolved.push(Dissolved { range: right, at: now, gc_znodes: true });
            base
        } else {
            // Under-claim: migrate both streams' tails into the merged
            // stream so acked records keep their durability and their
            // election visibility; catch-up rebuilds the rest.
            for (range, rep) in [(left, &lrep), (right, &rrep)] {
                let w = rep.last_committed;
                let tail = self
                    .wal
                    .read_range(range, w, self.wal.state(range).last_lsn)
                    .unwrap_or_default();
                let mut migrated = true;
                for (lsn, op) in tail {
                    if self.wal.append(&LogRecord::write(merged, lsn, op)).is_err() {
                        migrated = false;
                    }
                }
                if migrated {
                    let _ = self.wal.set_checkpoint(range, w);
                    self.dissolved.push(Dissolved { range, at: now, gc_znodes: true });
                }
            }
            Lsn::ZERO
        };
        self.sync_wal();
        let peers = {
            let p: Vec<NodeId> =
                self.ring.cohort(merged).into_iter().filter(|&n| n != self.id).collect();
            if p.is_empty() {
                lrep.peers.clone()
            } else {
                p
            }
        };
        let mut mrep =
            RangeReplica::new(merged, mstore, peers, (lrep.span.0.clone(), rrep.span.1.clone()));
        mrep.epoch = if clean { merged_epoch } else { lrep.epoch.max(rrep.epoch) };
        mrep.last_committed = watermark;
        mrep.last_note = watermark;
        self.attach_replica(mrep);
        for (from, req) in lrep.blocked_writes.into_iter().chain(rrep.blocked_writes) {
            let version = self.ring.version();
            out.reply(from, ClientReply::err(req.req, ClientError::WrongRange { version }));
        }
        self.join_cohort(now, merged, out);
    }

    // =================================================================
    // coordination events
    // =================================================================

    fn on_coord_event(&mut self, now: u64, ev: WatchEvent, out: &mut Outbox) {
        match ev {
            WatchEvent::ChildrenChanged(path) => {
                if let Some(range) = CohortPaths::range_of_path(&path) {
                    if path.ends_with("/candidates") && self.replicas.contains_key(&range) {
                        let mut rt = runtime!(self, now);
                        if let Some(rep) = self.replicas.get_mut(&range) {
                            rep.check_election(&mut rt, out);
                        }
                    }
                }
            }
            WatchEvent::Created(path) | WatchEvent::DataChanged(path) => {
                if path == TABLE_PATH {
                    self.refresh_table(now, out);
                    return;
                }
                if let Some(range) = CohortPaths::range_of_path(&path) {
                    if path.ends_with("/leader") && self.replicas.contains_key(&range) {
                        if self.replicas[&range].role == Role::Electing {
                            let paths = CohortPaths::new(range);
                            if let Ok(data) = self.coord.get_data_watch(&paths.leader) {
                                let leader = parse_node(&data);
                                if leader != self.id {
                                    let mut rt = runtime!(self, now);
                                    if let Some(rep) = self.replicas.get_mut(&range) {
                                        rep.become_follower(&mut rt, leader, out);
                                    }
                                }
                            }
                        } else {
                            // Keep watching the leader znode.
                            let paths = CohortPaths::new(range);
                            let _ = self.coord.get_data_watch(&paths.leader);
                        }
                    }
                }
            }
            WatchEvent::Deleted(path) => {
                if let Some(range) = CohortPaths::range_of_path(&path) {
                    if path.ends_with("/leader") && self.replicas.contains_key(&range) {
                        if self.replicas[&range].role == Role::Offline {
                            return;
                        }
                        // Re-read before electing: a cohort-movement
                        // hand-off deletes and re-creates the znode in
                        // one step, so the deletion event may be stale —
                        // electing over a live claimant (or over our own
                        // freshly-claimed leadership) would wedge the
                        // cohort.
                        let paths = CohortPaths::new(range);
                        match self.coord.get_data_watch(&paths.leader) {
                            Ok(data) => {
                                let leader = parse_node(&data);
                                if leader != self.id {
                                    let mut rt = runtime!(self, now);
                                    if let Some(rep) = self.replicas.get_mut(&range) {
                                        rep.become_follower(&mut rt, leader, out);
                                    }
                                }
                            }
                            // Truly gone: elect a new leader (§7).
                            Err(_) => self.try_start_election(now, range, out),
                        }
                    }
                }
            }
            WatchEvent::SessionExpired => {
                // Our session is gone: we are effectively partitioned
                // from the cluster. Step down everywhere; the hosting
                // runtime restarts us with a fresh session.
                for rep in self.replicas.values_mut() {
                    rep.role = Role::Offline;
                    rep.leader = None;
                }
            }
        }
    }
}

/// Store layout and tuning for a range's LSM tree. The block cache is
/// the node-wide one; each store registers its own tables in it.
fn store_options(
    range: RangeId,
    cfg: &NodeConfig,
    cache: Option<&SharedBlockCache>,
) -> StoreOptions {
    StoreOptions {
        dir: format!("store-r{}", range.0),
        memtable_flush_bytes: cfg.memtable_flush_bytes,
        level_fanout: cfg.level_fanout,
        level_base_bytes: cfg.level_base_bytes,
        cache: cache.cloned(),
        ..Default::default()
    }
}

/// True when the replica span `(start, end)` and `def`'s bounds overlap.
fn spans_intersect(span: &(Key, Option<Key>), def: &RangeDef) -> bool {
    let below = match (&def.end, &span.0) {
        (Some(de), s) => de.as_bytes() > s.as_bytes(),
        (None, _) => true,
    };
    let above = match (&span.1, &def.start) {
        (Some(se), ds) => se.as_bytes() > ds.as_bytes(),
        (None, _) => true,
    };
    below && above
}

/// True when `def`'s bounds lie entirely inside the replica span.
fn span_contains(span: &(Key, Option<Key>), def: &RangeDef) -> bool {
    def.start.as_bytes() >= span.0.as_bytes()
        && match (&def.end, &span.1) {
            (_, None) => true,
            (Some(de), Some(se)) => de.as_bytes() <= se.as_bytes(),
            (None, Some(_)) => false,
        }
}

/// Clip `def`'s bounds to the replica span: `[lo, hi)`.
fn span_clip(span: &(Key, Option<Key>), def: &RangeDef) -> (Key, Option<Key>) {
    let lo =
        if def.start.as_bytes() >= span.0.as_bytes() { def.start.clone() } else { span.0.clone() };
    let hi = match (&def.end, &span.1) {
        (Some(de), Some(se)) => {
            Some(if de.as_bytes() <= se.as_bytes() { de.clone() } else { se.clone() })
        }
        (Some(de), None) => Some(de.clone()),
        (None, Some(se)) => Some(se.clone()),
        (None, None) => None,
    };
    (lo, hi)
}

/// True when `key` routes inside `def`'s bounds.
fn key_in_def(key: &Key, def: &RangeDef) -> bool {
    key.as_bytes() >= def.start.as_bytes()
        && def.end.as_ref().is_none_or(|e| key.as_bytes() < e.as_bytes())
}

/// Local-recovery path for a split child with no state of its own:
/// rebuild it from the parent's surviving local store + log, returning
/// the parent's committed watermark (the child's starting `f.cmt`).
/// Returns `Ok(None)` when no parent state survives locally — the child
/// then starts empty and relies on cohort catch-up.
fn bootstrap_child_from_parent(
    vfs: &SharedVfs,
    wal: &Wal,
    cfg: &NodeConfig,
    def: &RangeDef,
    child: &mut RangeStore,
) -> Result<Option<Lsn>> {
    let parent = def.parent.expect("caller checked");
    let pst = wal.state(parent);
    let have_store = vfs.exists(&format!("store-r{}/MANIFEST", parent.0))?;
    if !have_store && pst.last_lsn.is_zero() {
        return Ok(None);
    }
    let mut pstore = RangeStore::open(vfs.clone(), store_options(parent, cfg, None))?;
    wal.replay(parent, wal.checkpoint(parent), pst.last_committed, |lsn, op| {
        pstore.apply(op, lsn);
    })?;
    for (key, row) in pstore.scan(&def.start, def.end.as_ref())? {
        child.ingest_fragment(&key, &row);
    }
    // The parent's rows were pruned at its floor; the bootstrapped
    // child must not serve snapshots below it.
    child.set_gc_floor(pstore.gc_floor());
    child.flush()?;
    Ok(Some(pst.last_committed))
}

/// Build a [`ClientRequest`] for a plain single-column put (helper for
/// tests and harnesses). Leaves `ring_version` at 0 (unversioned);
/// routing clients stamp their table version before sending.
pub fn put_request(req: u64, key: Key, col: &str, value: &[u8]) -> ClientRequest {
    ClientRequest {
        req,
        ring_version: 0,
        op: ClientOp::Put {
            key,
            cells: vec![(
                bytes::Bytes::copy_from_slice(col.as_bytes()),
                bytes::Bytes::copy_from_slice(value),
            )],
        },
    }
}

/// Build a single-column [`ClientRequest`] `get` (helper for tests and
/// harnesses).
pub fn get_request(req: u64, key: Key, col: &str, consistency: Consistency) -> ClientRequest {
    ClientRequest {
        req,
        ring_version: 0,
        op: ClientOp::Get {
            key,
            columns: ColumnSelect::One(bytes::Bytes::copy_from_slice(col.as_bytes())),
            consistency,
        },
    }
}
