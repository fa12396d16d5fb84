//! The Spinnaker node: a thin per-node runtime hosting one
//! [`RangeReplica`] per cohort the node participates in.
//!
//! The node owns what is genuinely node-wide — the shared WAL, the
//! coordination-service session, the routing table, force-token
//! bookkeeping — plus a `RangeId → RangeReplica` registry. Every
//! per-range protocol transition (election Fig. 7, takeover Fig. 6,
//! replication Fig. 4, catch-up §6.1) lives on [`RangeReplica`]. This
//! file is the node's steady half: local recovery, input dispatch to the
//! right replica, force completions and timers, the maintenance tick
//! (flush, automatic reshard triggers, move/merge timeouts), retiring a
//! replica that left this node, and the quiesced GC of dissolved ranges'
//! store directories, WAL streams and `/r{N}` znodes. The operations
//! that replace replicas by other replicas — split, merge, cohort
//! movement, table-driven reconcile — are [`crate::reconfig`].
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
use spinnaker_common::{Consistency, Error, Key, Lsn, NodeId, RangeId, Result};
use spinnaker_coord::WatchEvent;
use spinnaker_storage::{BlockCache, RangeStore, SharedBlockCache, StoreOptions, StoreStats};
use spinnaker_wal::{Wal, WalOptions};

use crate::coordcli::CoordClient;
use crate::messages::{
    Addr, ClientError, ClientOp, ClientReply, ClientRequest, ColumnSelect, NodeInput, Outbox,
    PeerMsg, TimerKind,
};
use crate::partition::{Ring, TABLE_PATH};
use crate::reconfig::{
    ingest_span, span_of, Claim, DissolveCoverage, DissolveEntry, Successor, Then,
};
use crate::replica::{
    parse_node, FollowUp, ForceTracker, RangeReplica, ReshardAdvice, Runtime, Waiter,
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

/// Coordination-service session heartbeat interval.
pub(crate) const HEARTBEAT_INTERVAL: u64 = 500_000_000;
/// Election progress re-check interval (safety net for watch races).
pub(crate) const ELECTION_RETRY: u64 = 100_000_000;
/// Cool-down after an automatic split/merge: while the range's table
/// entry keeps the generation recorded when the action was taken, no
/// further automatic resharding of that range is proposed for this long —
/// the damper that keeps split/merge from oscillating on a load level
/// that sits near both thresholds.
pub(crate) const RESHARD_COOLDOWN: u64 = 10_000_000_000;
/// Abort a cohort movement whose joining node has not confirmed durable
/// catch-up within this long.
pub(crate) const MOVE_TIMEOUT: u64 = 10_000_000_000;

/// Node tuning knobs.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Interval between asynchronous commit messages (§5). The paper's
    /// Table 1 sweeps this between 1 and 15 seconds.
    pub commit_period: u64,
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
            maintenance_interval: 250_000_000,
            memtable_flush_bytes: 8 << 20,
            level_fanout: 4,
            level_base_bytes: 4 << 20,
            block_cache_bytes: 32 << 20,
            piggyback_commits: false,
            propose_batch: 8,
            reshard: None,
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
pub(crate) enum ServeStatus {
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
pub(crate) struct Dissolved {
    pub(crate) range: RangeId,
    pub(crate) at: u64,
    /// Also delete the `/r{N}` znode subtree (true for ranges removed
    /// from the table; false for a replica that merely departed this
    /// node — the range lives on elsewhere).
    pub(crate) gc_znodes: bool,
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
pub(crate) use runtime;

/// The Spinnaker node.
pub struct Node {
    pub(crate) id: NodeId,
    pub(crate) ring: Ring,
    pub(crate) cfg: NodeConfig,
    pub(crate) vfs: SharedVfs,
    pub(crate) wal: Wal,
    pub(crate) coord: CoordClient,
    /// Node-wide block cache shared by every replica's store (`None`
    /// when `cfg.block_cache_bytes` is 0).
    cache: Option<SharedBlockCache>,
    pub(crate) replicas: BTreeMap<RangeId, RangeReplica>,
    pub(crate) forces: ForceTracker,
    pub(crate) dissolved: Vec<Dissolved>,
    started: bool,
    /// Fail-stop latch: set when the log device refused an append or a
    /// force, meaning durability promises can no longer be kept. The
    /// host observes it and crashes the node; the synced log prefix it
    /// restarts from is exactly what was acknowledged.
    pub(crate) poisoned: bool,
    /// Automatic-reshard cool-down marks: range → (table generation when
    /// the last auto split/merge was initiated, virtual time it was
    /// initiated). Advice for a range whose entry still carries the
    /// marked generation is suppressed until the cool-down elapses.
    reshard_marks: BTreeMap<RangeId, (u64, u64)>,
    /// Dissolves executed, by entry point and claim (coverage only).
    pub(crate) dissolves: DissolveCoverage,
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
        let wal = Wal::open(vfs.clone(), WalOptions::default())?;
        let cache = (cfg.block_cache_bytes > 0)
            .then(|| std::sync::Arc::new(BlockCache::new(cfg.block_cache_bytes)));
        let mut node = Node {
            id,
            ring,
            cfg,
            vfs,
            wal,
            coord,
            cache,
            replicas: BTreeMap::new(),
            forces: ForceTracker::new(),
            dissolved: Vec::new(),
            started: false,
            poisoned: false,
            reshard_marks: BTreeMap::new(),
            dissolves: DissolveCoverage::default(),
        };
        for range in node.ring.ranges_of(id) {
            node.recover_range(range)?;
        }
        // Leftovers from dissolutions interrupted by a restart: the
        // in-memory GC bookkeeping does not survive a crash, so any
        // store directory for a range this node no longer serves
        // re-enters the quiesced GC pipeline here. (Parent stores a
        // split child just bootstrapped from are done being read.)
        if let Ok(files) = node.vfs.list("store-r") {
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
                if !node.replicas.contains_key(&range) {
                    let gc_znodes = node.ring.def(range).is_none();
                    node.dissolved.push(Dissolved { range, at: 0, gc_znodes });
                }
            }
        }
        Ok(node)
    }

    /// Local recovery of one range: open its store and re-apply the log
    /// from the checkpoint through `f.cmt`.
    fn recover_range(&mut self, range: RangeId) -> Result<()> {
        let mut store = RangeStore::open(self.vfs.clone(), self.store_opts(range))?;
        let st = self.wal.state(range);
        let def = self.ring.def(range);
        let span = def.map(span_of).unwrap_or_default();
        let peers = self.peers_of(range, &[]);
        // A range with no local state at all may be a split child whose
        // fork this node never performed: rebuild it from the parent's
        // surviving local state where there is any.
        let fresh = self.wal.checkpoint(range).is_zero()
            && st.last_lsn.is_zero()
            && store.table_count() == 0
            && store.memtable_len() == 0;
        let parent = match def {
            Some(def) if fresh => self.surviving_parent(def)?,
            _ => None,
        };
        if let Some((pstore, parent_cmt)) = parent {
            ingest_span(&mut store, &pstore, &span.0, span.1.as_ref())?;
            let (claim, then) = (Claim::Own(parent_cmt), Then::Wait);
            let child = Successor { id: range, span, peers, store, claim, epoch: 0, then };
            self.dissolve(0, DissolveEntry::Boot, &[], vec![child], &mut Outbox::default());
            if self.poisoned {
                return Err(Error::Unavailable(format!("could not flush bootstrapped {range}")));
            }
            return Ok(());
        }
        let mut rep = RangeReplica::new(range, store, peers, span);
        // Idempotent replay of committed records (checkpoint, f.cmt].
        self.wal.replay(range, self.wal.checkpoint(range), st.last_committed, |lsn, op| {
            rep.store.apply(op, lsn);
        })?;
        rep.last_committed = st.last_committed;
        rep.last_note = st.last_committed;
        rep.epoch = st.last_lsn.epoch();
        self.replicas.insert(range, rep);
        Ok(())
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

    /// `range`'s store options under this node's configuration and cache.
    pub(crate) fn store_opts(&self, range: RangeId) -> StoreOptions {
        store_options(range, &self.cfg, self.cache.as_ref())
    }

    /// Sync the WAL, poisoning the node on refusal — shared by every
    /// durability point outside the force path.
    pub(crate) fn sync_wal(&mut self) {
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
        out.set_timer(TimerKind::Heartbeat, HEARTBEAT_INTERVAL);
        out.set_timer(TimerKind::CommitPeriod, self.cfg.commit_period);
        out.set_timer(TimerKind::Maintenance, self.cfg.maintenance_interval);
        // Watch the shared range table so splits/merges/moves performed
        // elsewhere re-route us — and *adopt* it if it is already newer
        // than the one we were constructed with. Fall back to an
        // exists-watch when the deployment never published a table (unit
        // harnesses).
        match self.coord.get_data_watch(TABLE_PATH) {
            Ok(data) => {
                self.adopt_table(&data);
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
    pub(crate) fn serve_status(&self, range: RangeId) -> ServeStatus {
        match self.ring.def(range) {
            None => ServeStatus::Gone,
            Some(def) if def.cohort.contains(&self.id) => ServeStatus::Member,
            Some(def) if def.moving.is_some_and(|(_, to)| to == self.id) => ServeStatus::MoveTarget,
            Some(_) => ServeStatus::NotMember,
        }
    }

    /// On startup (or rejoin): if the cohort already has a leader, go
    /// straight to catch-up as a follower; otherwise run election.
    pub(crate) fn join_cohort(&mut self, now: u64, range: RangeId, out: &mut Outbox) {
        let status = self.serve_status(range);
        match status {
            // A range the table no longer contains must not be joined
            // (its leader znode, if any, is a leftover): reconcile it
            // against the table instead.
            ServeStatus::Gone => return self.reconcile_gone_ranges(now, vec![range], out),
            // Not ours (any more): a departed replica's leftovers.
            ServeStatus::NotMember => return self.retire_replica(now, range, out),
            ServeStatus::Member | ServeStatus::MoveTarget => {}
        }
        let paths = CohortPaths::new(range);
        self.coord.ensure_path(&paths.base);
        self.coord.ensure_path(&paths.candidates);
        match self.follow_leader_znode(now, range, &paths, out) {
            // A stale leader znode from our previous incarnation; our old
            // session must have expired for us to be here.
            Some(leader) if leader == self.id => self.try_start_election(now, range, out),
            Some(_) => {}
            None => {
                if status == ServeStatus::Member {
                    self.try_start_election(now, range, out);
                }
                // A move target without a leader znode just waits: the
                // exists-watch wakes it when a leader appears.
                let _ = self.coord.exists_watch(&paths.leader);
            }
        }
    }

    /// Read `range`'s leader znode, leaving a watch on it, and follow the
    /// leader it names unless that is this node. `None`: no such znode.
    fn follow_leader_znode(
        &mut self,
        now: u64,
        range: RangeId,
        paths: &CohortPaths,
        out: &mut Outbox,
    ) -> Option<NodeId> {
        let data = self.coord.get_data_watch(&paths.leader).ok()?;
        let leader = parse_node(&data);
        if leader != self.id {
            let mut rt = runtime!(self, now);
            if let Some(rep) = self.replicas.get_mut(&range) {
                rep.become_follower(&mut rt, leader, out);
            }
        }
        Some(leader)
    }

    /// Run an election for `range` after re-validating that the table
    /// still names us: gone ranges reconcile, departed replicas retire,
    /// move targets wait for the members to elect among themselves.
    fn try_start_election(&mut self, now: u64, range: RangeId, out: &mut Outbox) {
        match self.serve_status(range) {
            ServeStatus::Gone => self.reconcile_gone_ranges(now, vec![range], out),
            ServeStatus::NotMember => self.retire_replica(now, range, out),
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
    pub(crate) fn on_client(&mut self, now: u64, from: Addr, req: ClientRequest, out: &mut Outbox) {
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
                rep.on_get(&mut rt, from, req.req, key, columns, *consistency, out);
            }
            ClientOp::Scan { start, end, limit, consistency } => {
                rep.on_scan(
                    &mut rt,
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
                self.on_split_msg(now, range, from, epoch, split_key, left, right, barrier, out);
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
            PeerMsg::MergeProposal { range, left, token, .. } => {
                self.on_merge_proposal(now, from, range, left, token, out);
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
    pub(crate) fn follow_up(&mut self, now: u64, range: RangeId, fu: FollowUp, out: &mut Outbox) {
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
                out.set_timer(TimerKind::Heartbeat, HEARTBEAT_INTERVAL);
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
                    out.set_timer(TimerKind::ElectionRetry, ELECTION_RETRY);
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
                if marked_gen == gen && now < at.saturating_add(RESHARD_COOLDOWN) {
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
                Some(m) if now.saturating_sub(m.since) > MOVE_TIMEOUT && !m.draining => {
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
    pub(crate) fn mergeable_right_sibling(&self, range: RangeId) -> Option<RangeId> {
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
    pub(crate) fn cas_table(&mut self, mutate: impl FnOnce(&mut Ring) -> bool) -> Option<Ring> {
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
    // retiring replicas, dissolved-range GC
    // =================================================================

    /// Release and re-dispatch a replica's buffered writes: they
    /// re-route under the current table (abort paths of splits, merges,
    /// and moves).
    pub(crate) fn unblock_writes(&mut self, now: u64, range: RangeId, out: &mut Outbox) {
        let blocked = match self.replicas.get_mut(&range) {
            Some(rep) => std::mem::take(&mut rep.blocked_writes),
            None => return,
        };
        for (from, req) in blocked {
            self.on_client(now, from, req, out);
        }
    }

    /// Detach the replica of a range that lives on without this node:
    /// answer its buffered writes with `WrongRange` (the client
    /// refreshes and re-routes), drop its candidate znode, and queue its
    /// local state — not the range's znodes — for quiesced GC.
    pub(crate) fn retire_replica(&mut self, now: u64, range: RangeId, out: &mut Outbox) {
        let Some(rep) = self.replicas.remove(&range) else { return };
        for (from, req) in rep.blocked_writes {
            let version = self.ring.version();
            out.reply(from, ClientReply::err(req.req, ClientError::WrongRange { version }));
        }
        if let Some(path) = rep.candidate_path {
            let _ = self.coord.delete(&path);
        }
        self.dissolved.push(Dissolved { range, at: now, gc_znodes: false });
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
    // coordination events
    // =================================================================

    /// The attached replica a `/r{N}/leader` znode path belongs to, and
    /// its role.
    fn leader_path_replica(&self, path: &str) -> Option<(RangeId, Role)> {
        let range = CohortPaths::range_of_path(path).filter(|_| path.ends_with("/leader"))?;
        Some((range, self.replicas.get(&range)?.role))
    }

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
                if let Some((range, role)) = self.leader_path_replica(&path) {
                    let paths = CohortPaths::new(range);
                    if role == Role::Electing {
                        self.follow_leader_znode(now, range, &paths, out);
                    } else {
                        let _ = self.coord.get_data_watch(&paths.leader); // keep watching
                    }
                }
            }
            WatchEvent::Deleted(path) => {
                // Re-read before electing: a cohort-movement hand-off
                // deletes and re-creates the znode in one step, so the
                // deletion event may be stale — electing over a live
                // claimant (or over our own freshly-claimed leadership)
                // would wedge the cohort. Truly gone: elect (§7).
                match self.leader_path_replica(&path) {
                    Some((range, role)) if role != Role::Offline => {
                        let paths = CohortPaths::new(range);
                        if self.follow_leader_znode(now, range, &paths, out).is_none() {
                            self.try_start_election(now, range, out);
                        }
                    }
                    _ => {}
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
pub(crate) fn store_options(
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
