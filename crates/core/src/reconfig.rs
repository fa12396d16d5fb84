//! Reconfiguration: the node-level operations that replace replicas by
//! other replicas — range split, cohort movement, range merge, and the
//! table-driven reconcile of a change this node slept through.
//!
//! Every one of them ends the same way: the table replaced ranges `P…` by
//! `T…`, and this node must build its replicas of `T` from its replicas
//! of `P` without losing anything it acknowledged. That shared end is
//! `Node::dissolve`. An entry point keeps what is its own — the barrier,
//! the table CAS, the znodes, the peer message, the epoch guard — then
//! states, per successor, what it may `Claim` and how it `Then` enters its
//! cohort. The successor *stores* have one recipe, `Node::assemble`: every
//! local predecessor replica whose span overlaps the successor's, clipped
//! to it, through `RangeStore::assemble`. Only a move's joiner differs:
//! its predecessor is on another node, so it starts empty, claims
//! nothing, and catch-up ships it the sender's store:
//!
//! | entry point | store assembled from | may claim | leads |
//! |---|---|---|---|
//! | `execute_split` | the parent | the barrier | left child; observes the right |
//! | `on_split_msg` | the parent | the barrier, or its own watermark when it lags | joins both |
//! | `reconcile_gone_ranges` | every gone replica it overlaps | own watermark if one gone span contains the target, else zero | joins |
//! | `execute_merge` | both siblings | the merged base | the merged range |
//! | `on_merge_msg` | both siblings | the merged base after two gap-free drains, else zero | joins |
//! | `on_join_range` | nothing (empty; catch-up ships the sender's) | zero | follows the sender |
//! | `Node::new` (child with no state) | the surviving parent | the parent's watermark | joins on `Start` |
//!
//! The log tail always goes to the same place: every predecessor record
//! past that predecessor's committed watermark (or past the claim of a
//! successor taking over its keys, where that is lower) is appended, under
//! its original LSN, to the stream of the successor whose span holds its
//! key.

use std::collections::BTreeMap;
use std::fmt;

use spinnaker_common::codec::Decode;
use spinnaker_common::{Epoch, Key, Lsn, NodeId, RangeId, Result};
use spinnaker_storage::RangeStore;
use spinnaker_wal::LogRecord;

use crate::messages::{ClientError, ClientReply, Outbox, PeerMsg};
use crate::node::{runtime, store_options, CohortPaths, Dissolved, Node, ServeStatus};
use crate::partition::{RangeDef, Ring, TABLE_PATH};
use crate::replica::{Merging, MoveState, RangeReplica, Role, Runtime};

/// Key bounds `[start, end)` of a replica; `None` is unbounded above.
pub(crate) type Span = (Key, Option<Key>);

/// The committed watermark a successor replica starts from — what an
/// election may take its log to vouch for.
#[derive(Clone, Copy)]
pub(crate) enum Claim {
    /// Everything the dissolve's barrier covers.
    Full(Lsn),
    /// This replica's own watermark, short of the barrier.
    Own(Lsn),
    /// Nothing (under-claim): catch-up rebuilds the rest, so an election
    /// can never pick a leader whose state cannot back its watermark.
    Zero,
}

impl Claim {
    fn lsn(self) -> Lsn {
        match self {
            Claim::Full(lsn) | Claim::Own(lsn) => lsn,
            Claim::Zero => Lsn::ZERO,
        }
    }

    fn kind(self) -> ClaimKind {
        match self {
            Claim::Full(_) => ClaimKind::Full,
            Claim::Own(_) => ClaimKind::Own,
            Claim::Zero => ClaimKind::Zero,
        }
    }
}

/// How a successor enters its cohort once attached.
pub(crate) enum Then {
    /// This node leads it, assigning LSNs after `from`.
    Lead { from: Lsn },
    /// Watch its election without standing (a split leader's right child:
    /// the followers decide, and the home preference moves leadership).
    Observe,
    /// Follow its leader if the coordination service names one, else
    /// stand for election.
    Join,
    /// The caller brings it in (the move's joiner follows the sender; a
    /// booting node joins everything on `Start`).
    Wait,
}

/// One replica [`Node::dissolve`] is to build.
pub(crate) struct Successor {
    pub id: RangeId,
    pub span: Span,
    pub peers: Vec<NodeId>,
    /// Built by the entry point's own recipe; may still hold a memtable.
    pub store: RangeStore,
    pub claim: Claim,
    pub epoch: Epoch,
    pub then: Then,
}

/// The entry point a dissolve came from.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum DissolveEntry {
    /// The split leader's own fork.
    Split,
    /// A follower applying the `Split` message.
    SplitMsg,
    /// The table-driven reconcile of ranges that left the table unseen.
    Table,
    /// The merge coordinator.
    Merge,
    /// A follower applying the `Merge` message.
    MergeMsg,
    /// A cohort movement's joining node.
    Join,
    /// Local recovery of a split child from its surviving parent.
    Boot,
}

/// What a successor was allowed to claim (see the module table).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ClaimKind {
    /// The dissolve's barrier.
    Full,
    /// The replica's own committed watermark.
    Own,
    /// Nothing.
    Zero,
}

/// Successors counted for one (entry point, claim).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct TailCounts {
    /// Successors no predecessor tail record was re-homed into.
    pub empty: u64,
    /// Successors that received at least one.
    pub rehomed: u64,
    /// Records re-homed in all.
    pub records: u64,
}

/// Which dissolves a node (or a sweep of campaigns) has executed, by
/// entry point and claim. Coverage only: nothing decides anything by it.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct DissolveCoverage {
    cases: BTreeMap<(DissolveEntry, ClaimKind), TailCounts>,
    stranded: u64,
    unreadable: u64,
}

impl DissolveCoverage {
    fn record(&mut self, entry: DissolveEntry, claim: ClaimKind, records: u64) {
        let c = self.cases.entry((entry, claim)).or_default();
        if records == 0 {
            c.empty += 1;
        } else {
            c.rehomed += 1;
            c.records += records;
        }
    }

    /// The counts for one (entry point, claim).
    pub fn get(&self, entry: DissolveEntry, claim: ClaimKind) -> TailCounts {
        self.cases.get(&(entry, claim)).copied().unwrap_or_default()
    }

    /// Tail records that found no home: no successor built here held
    /// their key, or the log refused the copy. Their predecessor stream
    /// was left unretired.
    pub fn stranded(&self) -> u64 {
        self.stranded
    }

    /// Predecessor tails the log could not read back: nothing of them was
    /// re-homed, and their stream was left unretired.
    pub fn unreadable(&self) -> u64 {
        self.unreadable
    }

    /// Add `other`'s counts to these.
    pub fn add(&mut self, other: &DissolveCoverage) {
        self.stranded += other.stranded;
        self.unreadable += other.unreadable;
        for (&case, c) in &other.cases {
            let sum = self.cases.entry(case).or_default();
            sum.empty += c.empty;
            sum.rehomed += c.rehomed;
            sum.records += c.records;
        }
    }
}

/// One line: `Entry/Claim empty+rehomed(records)` per case reached, then
/// the stranded records and the unreadable tails.
impl fmt::Display for DissolveCoverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for ((entry, claim), c) in &self.cases {
            write!(f, "{entry:?}/{claim:?} {}+{}({}) ", c.empty, c.rehomed, c.records)?;
        }
        write!(f, "stranded {} unreadable {}", self.stranded, self.unreadable)
    }
}

impl Node {
    /// Which dissolves this incarnation has executed (a restart starts
    /// the count over).
    pub fn dissolve_coverage(&self) -> &DissolveCoverage {
        &self.dissolves
    }

    /// Fail-stop on a storage error a dissolve cannot work around: the
    /// host crashes the node back to its synced prefix, and local
    /// recovery rebuilds from what is durable.
    fn fail_stop<T>(&mut self, result: Result<T>) -> Option<T> {
        if result.is_err() {
            self.poisoned = true;
        }
        result.ok()
    }

    /// `range`'s cohort minus this node under the current table, or
    /// `fallback` when the table has already moved past `range`.
    pub(crate) fn peers_of(&self, range: RangeId, fallback: &[NodeId]) -> Vec<NodeId> {
        let peers: Vec<NodeId> =
            self.ring.cohort(range).into_iter().filter(|&n| n != self.id).collect();
        if peers.is_empty() {
            fallback.to_vec()
        } else {
            peers
        }
    }

    /// The store of successor `id` over `span`: every replica of `preds`
    /// whose span overlaps it, clipped to `span`, assembled into one.
    fn assemble(&self, id: RangeId, span: &Span, preds: &[RangeId]) -> Result<RangeStore> {
        let clips: Vec<(&RangeStore, Span)> = preds
            .iter()
            .filter_map(|r| self.replicas.get(r))
            .filter(|p| spans_overlap(&p.span, span))
            .map(|p| (&p.store, span_clip(&p.span, span)))
            .collect();
        let parts: Vec<_> =
            clips.iter().map(|(store, (lo, hi))| (*store, lo, hi.as_ref())).collect();
        RangeStore::assemble(self.vfs.clone(), self.store_opts(id), &parts)
    }

    /// Replace the replicas of `preds` by `succs` — the one end of every
    /// reconfiguration (see the module docs for who calls it with what).
    ///
    /// In order: flush the successor stores (a claim is backed by tables,
    /// never by a memtable; a failed flush fail-stops before anything is
    /// claimed); checkpoint each successor stream at its claim; re-home
    /// every predecessor record past that predecessor's watermark —
    /// which this replica may have **acknowledged** toward a quorum —
    /// into the successor whose span holds its key, under its original
    /// LSN, so it stays durable and visible to elections as `n.lst`;
    /// retire a predecessor stream only if its tail was readable and every
    /// record of it found a home (otherwise its copy stays replayable
    /// until a restart);
    /// sync the log once; attach the successors with the inherited epoch,
    /// watermark, commit note and timestamp clocks (every successor, led
    /// or not, stamps above everything a predecessor assigned or served:
    /// ts-order == LSN-order survives); answer the predecessors' buffered
    /// writes; enter the cohorts.
    pub(crate) fn dissolve(
        &mut self,
        now: u64,
        entry: DissolveEntry,
        preds: &[RangeId],
        mut succs: Vec<Successor>,
        out: &mut Outbox,
    ) {
        for s in &mut succs {
            let flushed = s.store.flush();
            if self.fail_stop(flushed).is_none() {
                return;
            }
        }
        let preds: Vec<RangeReplica> =
            preds.iter().filter_map(|r| self.replicas.remove(r)).collect();
        for s in &succs {
            if !s.claim.lsn().is_zero() {
                // A checkpoint that fails to save replays more after a
                // crash, never less.
                // spinlint: allow(E1) -- a lost checkpoint only replays more
                let _ = self.wal.set_checkpoint(s.id, s.claim.lsn());
            }
        }
        let mut rehomed = vec![0u64; succs.len()];
        for p in &preds {
            // The tail starts at the predecessor's own watermark — or
            // lower, where a successor taking over its keys claims less
            // than it committed (a split follower ahead of the barrier):
            // what no successor claims must be in a successor's log. Only
            // the successors of *this* predecessor count: LSNs of unrelated
            // streams do not compare.
            let start = succs
                .iter()
                .filter(|s| spans_overlap(&s.span, &p.span))
                .map(|s| s.claim.lsn())
                .filter(|claim| !claim.is_zero())
                .fold(p.last_committed, Lsn::min);
            let tail = self.wal.read_range(p.range, start, self.wal.state(p.range).last_lsn);
            let mut homed = tail.is_ok();
            if !homed {
                self.dissolves.unreadable += 1;
            }
            for (lsn, op) in tail.unwrap_or_default() {
                let home = succs.iter().position(|s| span_holds(&s.span, &op.key));
                match home {
                    Some(i) if self.wal.append(&LogRecord::write(succs[i].id, lsn, op)).is_ok() => {
                        rehomed[i] += 1;
                    }
                    _ => {
                        homed = false;
                        self.dissolves.stranded += 1;
                    }
                }
            }
            if homed {
                // As above: a lost save only replays more.
                // spinlint: allow(E1) -- a lost checkpoint only replays more
                let _ = self.wal.set_checkpoint(p.range, start);
                self.dissolved.push(Dissolved { range: p.range, at: now, gc_znodes: true });
            }
        }
        if !preds.is_empty() {
            // The copies must be as durable as the acked originals.
            self.sync_wal();
        }
        let last_ts = preds.iter().map(|p| p.last_ts).max().unwrap_or(0);
        let served_ts = preds.iter().map(|p| p.served_ts).max().unwrap_or(0);
        let leads = succs.iter().any(|s| matches!(s.then, Then::Lead { .. }));
        let mut entering = Vec::with_capacity(succs.len());
        for (s, records) in succs.into_iter().zip(rehomed) {
            self.dissolves.record(entry, s.claim.kind(), records);
            let claim = s.claim.lsn();
            let mut rep = RangeReplica::new(s.id, s.store, s.peers, s.span);
            rep.epoch = s.epoch;
            rep.last_committed = claim;
            rep.last_note = claim;
            rep.last_ts = last_ts;
            rep.served_ts = served_ts;
            if let Then::Lead { from } = s.then {
                rep.role = Role::Leader;
                rep.leader = Some(self.id);
                rep.last_assigned = from;
            }
            self.replicas.insert(s.id, rep);
            entering.push((s.id, s.then));
        }
        // The predecessors' buffered writes: a node that leads a
        // successor re-dispatches them under the new table (last, once
        // every successor can take them); any other sends the client to
        // refresh and re-route.
        let blocked: Vec<_> = preds.into_iter().flat_map(|p| p.blocked_writes).collect();
        if !leads {
            for (from, req) in &blocked {
                let version = self.ring.version();
                out.reply(*from, ClientReply::err(req.req, ClientError::WrongRange { version }));
            }
        }
        for (range, then) in entering {
            match then {
                Then::Lead { .. } | Then::Wait => {}
                Then::Observe => {
                    let mut rt = runtime!(self, now);
                    if let Some(rep) = self.replicas.get_mut(&range) {
                        rep.observe_election(&mut rt, out);
                    }
                }
                Then::Join => self.join_cohort(now, range, out),
            }
        }
        if leads {
            for (from, req) in blocked {
                self.on_client(now, from, req, out);
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
    pub(crate) fn on_split_request(&mut self, now: u64, range: RangeId, at: Key, out: &mut Outbox) {
        let inside = self.ring.def(range).is_some_and(|def| {
            def.moving.is_none() && def.start < at && def.end.as_ref().is_none_or(|e| at < *e)
        });
        let Some(rep) = self.replicas.get_mut(&range) else { return };
        if !inside || !rep.may_barrier() {
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
    pub(crate) fn execute_split(&mut self, now: u64, range: RangeId, out: &mut Outbox) {
        let Some(at) = self.replicas.get_mut(&range).and_then(|r| r.splitting.take()) else {
            return;
        };
        let mut children = None;
        let updated = self.cas_table(|t| {
            children = t.split(range, &at).ok();
            children.is_some()
        });
        let (Some(_), Some((left, right)), Some(rep)) =
            (updated, children, self.replicas.get(&range))
        else {
            // Clean abort (no table, decode failure, range already gone,
            // or a lost CAS race): unblock the buffered writes — the old
            // routing is still whatever the table says it is.
            self.unblock_writes(now, range, out);
            return;
        };
        let (barrier, pe, clock) = (rep.last_committed, rep.epoch, rep.clock());
        let peers = rep.peers.clone();
        let (start, end) = rep.span.clone();
        let lead = Then::Lead { from: Lsn::new(pe + 1, barrier.seq()) };
        let children = [
            (left, (start, Some(at.clone())), pe + 1, lead),
            (right, (at.clone(), end), pe, Then::Observe),
        ];

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
        // spinlint: allow(E1) -- created this step: only an expired session fails it
        let _ = self.coord.create_ephemeral(&lp.leader, self.id.to_string().into_bytes());
        // The parent's leader znode is deliberately left standing:
        // deleting it would fire the followers' leader-watches *before*
        // the Split message works through their (FIFO) request queues,
        // pushing them onto the conservative reconcile for no reason.
        // The quiesced GC removes the whole `/r{N}` subtree later.

        let built: Result<Vec<Successor>> = children
            .into_iter()
            .map(|(id, span, epoch, then)| {
                let store = self.assemble(id, &span, &[range])?;
                let (peers, claim) = (peers.clone(), Claim::Full(barrier));
                Ok(Successor { id, span, peers, store, claim, epoch, then })
            })
            .collect();
        let Some(successors) = self.fail_stop(built) else { return };
        for &peer in &peers {
            let split_key = at.clone();
            out.send(
                peer,
                PeerMsg::Split { range, epoch: pe, split_key, left, right, barrier, clock },
            );
        }
        self.dissolve(now, DissolveEntry::Split, &[range], successors, out);
    }

    /// Follower side of a split: the leader's table update is already in
    /// the coordination service. Apply the commit queue up to the barrier
    /// (the in-order link guarantees every propose `<= barrier` preceded
    /// this message when we are a same-epoch follower), fork the store,
    /// and join both child cohorts.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_split_msg(
        &mut self,
        now: u64,
        range: RangeId,
        from: NodeId,
        epoch: Epoch,
        split_key: Key,
        left: RangeId,
        right: RangeId,
        barrier: Lsn,
        clock: u64,
        out: &mut Outbox,
    ) {
        let mut rt = runtime!(self, now);
        let Some(rep) = self.replicas.get_mut(&range) else { return };
        if epoch < rep.epoch {
            return; // a deposed leader's split; the table CAS stopped it too
        }
        if epoch == rep.epoch && rep.role.leads() && from != rt.id {
            return; // two leaders in one epoch cannot happen; drop
        }
        rep.adopt_clock(clock);
        if rep.role == Role::Follower && rep.epoch == epoch {
            rep.apply_commit(&mut rt, barrier);
        }
        self.adopt_table_from_coord();
        let Some(rep) = self.replicas.get(&range) else { return };
        // A catching-up replica may hold a queue with holes: it claims
        // its own committed watermark and child catch-up fills the rest.
        let claim = if rep.last_committed >= barrier {
            Claim::Full(barrier)
        } else {
            Claim::Own(rep.last_committed)
        };
        let parent_peers = rep.peers.clone();
        let (start, end) = rep.span.clone();
        let children = [(left, (start, Some(split_key.clone()))), (right, (split_key, end))];
        let built: Result<Vec<Successor>> = children
            .into_iter()
            .map(|(id, span)| {
                let store = self.assemble(id, &span, &[range])?;
                let peers = self.peers_of(id, &parent_peers);
                Ok(Successor { id, span, peers, store, claim, epoch, then: Then::Join })
            })
            .collect();
        let Some(successors) = self.fail_stop(built) else { return };
        self.dissolve(now, DissolveEntry::SplitMsg, &[range], successors, out);
    }

    /// Watch-driven table refresh. When a range this node serves
    /// vanished from the table, its split/merge metadata is
    /// authoritative even though the leader's message never arrived (it
    /// may have crashed between the table update and the fan-out):
    /// reconcile locally at our own committed watermark — the
    /// conservative path. A live def that no longer names us (a
    /// committed departure we slept through) retires the local replica.
    pub(crate) fn refresh_table(&mut self, now: u64, out: &mut Outbox) {
        let data = match self.coord.get_data_watch(TABLE_PATH) {
            Ok(d) => d,
            Err(_) => {
                // spinlint: allow(E1) -- exists fails only on a malformed path
                let _ = self.coord.exists_watch(TABLE_PATH);
                return;
            }
        };
        if !self.adopt_table(&data) {
            return;
        }
        let mut gone = Vec::new();
        let mut departed = Vec::new();
        for (&range, r) in &self.replicas {
            match self.serve_status(range) {
                // A follower with a live remote leader defers: the
                // leader's Split/Merge message is queued behind every
                // outstanding propose on the in-order link, so
                // reconciling on the (out-of-band) watch would drop
                // writes we already acked. If the leader is actually
                // dead, its leader-znode deletion reaches us and the
                // election path redirects to the conservative
                // reconcile.
                ServeStatus::Gone => {
                    let defer = matches!(r.role, Role::Follower | Role::CatchingUp)
                        && r.leader.is_some_and(|l| l != self.id);
                    if !defer {
                        gone.push(range);
                    }
                }
                ServeStatus::NotMember => departed.push(range),
                ServeStatus::Member | ServeStatus::MoveTarget => {}
            }
        }
        for range in departed {
            self.retire_replica(now, range, out);
        }
        self.reconcile_gone_ranges(now, gone, out);
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
    ///   intersecting spans at watermark **zero**, and catch-up fills
    ///   the gaps.
    pub(crate) fn reconcile_gone_ranges(&mut self, now: u64, gone: Vec<RangeId>, out: &mut Outbox) {
        let gone: Vec<RangeId> =
            gone.into_iter().filter(|r| self.replicas.contains_key(r)).collect();
        if gone.is_empty() {
            return;
        }
        let parents: Vec<&RangeReplica> = gone.iter().map(|r| &self.replicas[r]).collect();
        for p in &parents {
            // This path is reached from elections: withdraw a candidacy
            // for a range nobody will elect again.
            if let Some(path) = &p.candidate_path {
                // spinlint: allow(E1) -- gone already, or our expired session took it
                let _ = self.coord.delete(path);
            }
        }
        let built: Result<Vec<Successor>> = self
            .ring
            .defs()
            .filter(|d| {
                d.cohort.contains(&self.id)
                    && !self.replicas.contains_key(&d.id)
                    && parents.iter().any(|p| spans_overlap(&p.span, &span_of(d)))
            })
            .map(|def| {
                let span = span_of(def);
                let contributors: Vec<&RangeReplica> =
                    parents.iter().copied().filter(|p| spans_overlap(&p.span, &span)).collect();
                let store = self.assemble(def.id, &span, &gone)?;
                let contained =
                    contributors.len() == 1 && span_contains(&contributors[0].span, &span);
                Ok(Successor {
                    id: def.id,
                    span,
                    peers: self.peers_of(def.id, &[]),
                    store,
                    claim: if contained {
                        Claim::Own(contributors[0].last_committed)
                    } else {
                        Claim::Zero
                    },
                    epoch: contributors.iter().map(|p| p.epoch).max().unwrap_or(0),
                    then: Then::Join,
                })
            })
            .collect();
        let Some(successors) = self.fail_stop(built) else { return };
        self.dissolve(now, DissolveEntry::Table, &gone, successors, out);
    }

    /// Pull the freshest table from the coordination service (used when
    /// a lifecycle message outruns our table watch delivery).
    fn adopt_table_from_coord(&mut self) {
        if let Ok((data, _)) = self.coord.get_data(TABLE_PATH) {
            self.adopt_table(&data);
        }
    }

    /// Route with the encoded table `data` if it is newer than ours.
    pub(crate) fn adopt_table(&mut self, mut data: &[u8]) -> bool {
        match Ring::decode(&mut data) {
            Ok(table) if table.version() > self.ring.version() => {
                self.ring = table;
                true
            }
            _ => false,
        }
    }

    // =================================================================
    // cohort movement (replica rebalancing)
    // =================================================================

    /// Administrative entry point: the range's leader CAS-publishes the
    /// move intent, tells the joining node to attach an empty replica,
    /// and keeps proposing to it as a **learner** until it confirms
    /// durable catch-up. Every other node ignores the request, so
    /// harnesses may broadcast it.
    pub(crate) fn on_move_request(
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
        if !eligible || !rep.may_barrier() {
            return;
        }
        if self.cas_table(|t| t.begin_move(range, from, to).is_ok()).is_none() {
            return; // lost a table race; the admin can retry
        }
        let Some(rep) = self.replicas.get_mut(&range) else { return };
        rep.moving = Some(MoveState { from, to, since: now, draining: false });
        // The learner receives every subsequent propose (its acks are
        // excluded from the quorum until the commit CAS).
        if !rep.peers.contains(&to) {
            rep.peers.push(to);
        }
        out.send(to, PeerMsg::JoinRange { range, epoch: rep.epoch });
    }

    /// Joining-node side: attach an empty replica that claims nothing and
    /// catch up through the normal follower path. Its request starts at
    /// zero, so the sender ships its whole store (see `serve_catchup`).
    /// The final `CaughtUp` confirmation is sent only once what it
    /// ingested is durable, which is exactly the leader's commit gate.
    pub(crate) fn on_join_range(
        &mut self,
        now: u64,
        leader: NodeId,
        range: RangeId,
        epoch: Epoch,
        out: &mut Outbox,
    ) {
        if self.replicas.contains_key(&range) {
            return; // duplicate handoff
        }
        self.adopt_table_from_coord();
        let Some(def) = self.ring.def(range) else { return };
        let expected =
            def.moving.is_some_and(|(_, to)| to == self.id) || def.cohort.contains(&self.id);
        if !expected {
            return; // stale or aborted handoff
        }
        // A store that cannot be made leaves the move to time out and
        // abort.
        let Ok(store) = RangeStore::recreate(self.vfs.clone(), self.store_opts(range)) else {
            return;
        };
        // What an earlier stay on this node left in the stream must not
        // outlive it: catch-up and live proposes bring everything back.
        // The stream is reset in memory even when saving that fails, and
        // the next checkpoint (catch-up's) saves the same file.
        // spinlint: allow(E1) -- reset in memory anyway; the next checkpoint saves it
        let _ = self.wal.retire_stream(range);
        let joiner = Successor {
            id: range,
            span: span_of(def),
            peers: self.peers_of(range, &[]),
            store,
            claim: Claim::Zero,
            epoch,
            then: Then::Wait,
        };
        self.dissolve(now, DissolveEntry::Join, &[], vec![joiner], out);
        let paths = CohortPaths::new(range);
        self.coord.ensure_path(&paths.base);
        self.coord.ensure_path(&paths.candidates);
        let mut rt = runtime!(self, now);
        if let Some(rep) = self.replicas.get_mut(&range) {
            rep.become_follower(&mut rt, leader, out);
        }
        self.watch_leader(now, range, out);
    }

    /// The learner confirmed durable catch-up: commit the new replica
    /// set. A departing leader first drains its commit queue (a barrier,
    /// like a split's) so no client ack is ever owed by a replica that
    /// just left.
    pub(crate) fn finish_move(&mut self, now: u64, range: RangeId, out: &mut Outbox) {
        let Some(rep) = self.replicas.get_mut(&range) else { return };
        let Some(m) = rep.moving.as_mut() else { return };
        let (from, to) = (m.from, m.to);
        if from == self.id && !rep.cq.is_empty() {
            m.draining = true; // barrier: try_commit re-triggers when drained
            return;
        }
        let committed = self.cas_table(|t| t.commit_move(range, from, to).is_ok());
        let def = committed.as_ref().and_then(|t| t.def(range));
        let (Some(def), Some(rep)) = (def, self.replicas.get_mut(&range)) else {
            self.abort_move(now, range, out);
            return;
        };
        rep.moving = None;
        rep.peers = def.cohort.iter().copied().filter(|&n| n != self.id).collect();
        let change = PeerMsg::CohortChange {
            range,
            epoch: rep.epoch,
            gen: def.gen,
            cohort: def.cohort.clone(),
            departing: from,
            joining: to,
            clock: rep.clock(),
        };
        let mut recipients = rep.peers.clone();
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
            self.retire_replica(now, range, out);
        }
    }

    /// Abandon an in-flight move: CAS the marker away and drop the
    /// learner from the propose fan-out.
    pub(crate) fn abort_move(&mut self, now: u64, range: RangeId, out: &mut Outbox) {
        // A lost CAS leaves the `moving` marker; the leader's maintenance
        // tick CASes a marker with no move behind it away.
        let _ = self.cas_table(|t| t.abort_move(range).is_ok());
        let Some(rep) = self.replicas.get_mut(&range) else { return };
        if let Some(m) = rep.moving.take() {
            rep.peers.retain(|&n| n != m.to);
        }
        self.unblock_writes(now, range, out);
    }

    /// The committed cohort change reached a member (or the departing
    /// replica): refresh the peer set and take in the sending leader's
    /// clock (whoever leads next stamps above it), or detach.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_cohort_change(
        &mut self,
        now: u64,
        range: RangeId,
        epoch: Epoch,
        cohort: Vec<NodeId>,
        departing: NodeId,
        joining: NodeId,
        clock: u64,
        out: &mut Outbox,
    ) {
        self.adopt_table_from_coord();
        if departing == self.id {
            self.retire_replica(now, range, out);
            return;
        }
        let mut rt = runtime!(self, now);
        let Some(rep) = self.replicas.get_mut(&range) else { return };
        if epoch < rep.epoch {
            return;
        }
        let claim = joining == self.id && rep.leader == Some(departing);
        rep.peers = cohort.into_iter().filter(|&n| n != self.id).collect();
        rep.adopt_clock(clock);
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
    pub(crate) fn on_merge_request(
        &mut self,
        now: u64,
        left: RangeId,
        right: RangeId,
        out: &mut Outbox,
    ) {
        if self.mergeable_right_sibling(left) != Some(right) {
            return;
        }
        {
            let Some(lrep) = self.replicas.get_mut(&left) else { return };
            if !lrep.may_barrier() {
                return;
            }
            lrep.merging = Some(merging(right, true, self.id, now, now));
        }
        // Subordinate barrier: locally when we lead the right sibling
        // too, by proposal to its leader otherwise.
        let Some(rrep) = self.replicas.get_mut(&right) else { return };
        match (rrep.role, rrep.leader) {
            (Role::Leader, _) if rrep.barrier_pending() || rrep.moving.is_some() => {
                self.abort_merge(now, left, out);
                return;
            }
            (Role::Leader, _) => {
                rrep.merging = Some(merging(left, false, self.id, now, now));
                // An idle right sibling is already drained: its try_commit
                // must announce the barrier now, or nothing ever would (no
                // acks or forces arrive on an idle range).
                let mut rt = runtime!(self, now);
                let fu = rrep.try_commit(&mut rt, out);
                self.follow_up(now, right, fu, out);
            }
            (_, Some(leader)) if leader != self.id => {
                let epoch = rrep.epoch;
                out.send(leader, PeerMsg::MergeProposal { range: right, left, epoch, token: now });
            }
            _ => {
                self.abort_merge(now, left, out);
                return;
            }
        }
        self.advance_merge(now, left, out);
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

    /// Right sibling's leader: barrier on request. Once the queue
    /// drains, a commit message up to the barrier goes to the cohort
    /// (same FIFO links as the proposes it covers) and `MergeReady` to
    /// the coordinator — both from [`RangeReplica::try_commit`].
    pub(crate) fn on_merge_proposal(
        &mut self,
        now: u64,
        from: NodeId,
        right: RangeId,
        left: RangeId,
        token: u64,
        out: &mut Outbox,
    ) {
        let mut rt = runtime!(self, now);
        let Some(rep) = self.replicas.get_mut(&right) else { return };
        if !rep.may_barrier() {
            return;
        }
        rep.merging = Some(merging(left, false, from, now, token));
        // Already drained? Announce immediately.
        let fu = rep.try_commit(&mut rt, out);
        self.follow_up(now, right, fu, out);
    }

    /// Coordinator: the right sibling's barrier is known.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_merge_ready(
        &mut self,
        now: u64,
        left: RangeId,
        right: RangeId,
        barrier: Lsn,
        token: u64,
        clock: u64,
        out: &mut Outbox,
    ) {
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
        // The merged range, which we are about to lead, stamps above
        // whatever the right sibling's leader stamped or served.
        if let Some(rrep) = self.replicas.get_mut(&right) {
            rrep.adopt_clock(clock);
        }
        self.advance_merge(now, left, out);
    }

    /// Coordinator: execute the merge once (a) our own queue drained,
    /// and (b) the right sibling's barrier is known **and** our local
    /// right replica has committed through it (the subordinate's commit
    /// message precedes `MergeReady` on the same FIFO link, so this
    /// resolves promptly; a wedged catch-up falls to the merge timeout).
    pub(crate) fn advance_merge(&mut self, now: u64, left: RangeId, out: &mut Outbox) {
        let (right, sibling_barrier) = {
            let Some(lrep) = self.replicas.get(&left) else { return };
            let Some(m) = lrep.merging.as_ref().filter(|m| m.coordinator) else { return };
            if lrep.role != Role::Leader || !lrep.cq.is_empty() {
                return;
            }
            (m.sibling, m.sibling_barrier)
        };
        let Some(rrep) = self.replicas.get(&right) else {
            self.abort_merge(now, left, out);
            return;
        };
        let right_barrier = match sibling_barrier {
            Some(b) if rrep.last_committed >= b => b,
            Some(_) => return, // commit still in flight
            None => {
                // Local subordinate: we lead the right sibling too.
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
    /// cohort, and dissolve both siblings.
    fn execute_merge(
        &mut self,
        now: u64,
        left: RangeId,
        right: RangeId,
        right_barrier: Lsn,
        out: &mut Outbox,
    ) {
        let mut merged = None;
        let updated = self.replicas.contains_key(&left)
            && self.replicas.contains_key(&right)
            && self
                .cas_table(|t| {
                    merged = t.merge(left, right).ok();
                    merged.is_some()
                })
                .is_some();
        let (true, Some(merged)) = (updated, merged) else {
            self.abort_merge(now, left, out);
            return;
        };
        let (lrep, rrep) = (&self.replicas[&left], &self.replicas[&right]);
        let barrier = lrep.last_committed;
        let (le, re) = (lrep.epoch, rrep.epoch);
        let clock = lrep.clock().max(rrep.clock());
        let merged_epoch = le.max(re) + 1;
        let base = Lsn::new(merged_epoch, barrier.seq().max(right_barrier.seq()));
        let peers = lrep.peers.clone();
        let span = (lrep.span.0.clone(), rrep.span.1.clone());

        // Election state of the merged range: this leader continues at
        // `max(epochs) + 1`, so every merged-range LSN exceeds every LSN
        // either sibling ever used.
        let mp = CohortPaths::new(merged);
        self.coord.ensure_path(&mp.base);
        self.coord.ensure_path(&mp.candidates);
        self.coord.write_epoch(&mp.epoch, merged_epoch);
        // spinlint: allow(E1) -- created this step: only an expired session fails it
        let _ = self.coord.create_ephemeral(&mp.leader, self.id.to_string().into_bytes());
        // Both siblings' leader znodes stay standing until GC, exactly
        // like a split parent's (watch-ordering: peers must process the
        // Merge message first).

        let built = self.assemble(merged, &span, &[left, right]);
        let Some(store) = self.fail_stop(built) else { return };
        for &peer in &peers {
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
                    clock,
                },
            );
        }
        let successor = Successor {
            id: merged,
            span,
            peers,
            store,
            claim: Claim::Full(base),
            epoch: merged_epoch,
            then: Then::Lead { from: base },
        };
        self.dissolve(now, DissolveEntry::Merge, &[left, right], vec![successor], out);
    }

    /// Abandon an in-flight merge: unblock both siblings' held writes
    /// and release a remote subordinate barrier.
    pub(crate) fn abort_merge(&mut self, now: u64, left: RangeId, out: &mut Outbox) {
        let (right, epoch) = {
            let Some(lrep) = self.replicas.get_mut(&left) else { return };
            let Some(m) = lrep.merging.take() else { return };
            (m.sibling, lrep.epoch)
        };
        self.unblock_writes(now, left, out);
        let Some(rrep) = self.replicas.get_mut(&right) else { return };
        if rrep.merging.as_ref().is_some_and(|m| !m.coordinator) && rrep.role == Role::Leader {
            rrep.merging = None;
            self.unblock_writes(now, right, out);
        } else if let Some(leader) = rrep.leader.filter(|&l| l != self.id) {
            out.send(leader, PeerMsg::MergeAbort { range: right, epoch });
        }
    }

    /// Remote subordinate: the coordinator abandoned the merge.
    pub(crate) fn on_merge_abort(&mut self, now: u64, right: RangeId, out: &mut Outbox) {
        let Some(rep) = self.replicas.get_mut(&right) else { return };
        if rep.merging.as_ref().is_none_or(|m| m.coordinator) {
            return;
        }
        rep.merging = None;
        self.unblock_writes(now, right, out);
    }

    /// Follower side of a merge: both barriers are committed history.
    /// Drain both queues through their barriers; two gap-free drains keep
    /// the merged stream's full watermark, anything else under-claims and
    /// lets catch-up fill the gaps — an election must never see a
    /// watermark the local state cannot back.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_merge_msg(
        &mut self,
        now: u64,
        from: NodeId,
        left: RangeId,
        right: RangeId,
        merged: RangeId,
        epoch: Epoch,
        right_epoch: Epoch,
        barrier: Lsn,
        right_barrier: Lsn,
        clock: u64,
        out: &mut Outbox,
    ) {
        if let Some(lrep) = self.replicas.get_mut(&left) {
            if epoch < lrep.epoch {
                return; // a deposed coordinator's merge
            }
            if epoch == lrep.epoch && lrep.role.leads() && from != self.id {
                return;
            }
            lrep.adopt_clock(clock);
        }
        self.adopt_table_from_coord();
        if !self.replicas.contains_key(&left) || !self.replicas.contains_key(&right) {
            // Missing one side entirely: fall back to the conservative
            // table-driven reconcile over whatever we do hold.
            let gone = [left, right].into_iter().filter(|r| self.ring.def(*r).is_none()).collect();
            self.reconcile_gone_ranges(now, gone, out);
            return;
        }
        let mut clean = true;
        for (range, e, b) in [(left, epoch, barrier), (right, right_epoch, right_barrier)] {
            let mut rt = runtime!(self, now);
            let Some(rep) = self.replicas.get_mut(&range) else { return };
            let pre = matches!(rep.role, Role::Follower | Role::Leader) && rep.epoch == e;
            clean &= rep.commit_through_barrier(&mut rt, b) && pre;
        }
        let (lrep, rrep) = (&self.replicas[&left], &self.replicas[&right]);
        let merged_epoch = epoch.max(right_epoch) + 1;
        let (claim, epoch) = if clean {
            let base = Lsn::new(merged_epoch, barrier.seq().max(right_barrier.seq()));
            (Claim::Full(base), merged_epoch)
        } else {
            (Claim::Zero, lrep.epoch.max(rrep.epoch))
        };
        let peers = self.peers_of(merged, &lrep.peers);
        let span = (lrep.span.0.clone(), rrep.span.1.clone());
        let built = self.assemble(merged, &span, &[left, right]);
        let Some(store) = self.fail_stop(built) else { return };
        let successor =
            Successor { id: merged, span, peers, store, claim, epoch, then: Then::Join };
        self.dissolve(now, DissolveEntry::MergeMsg, &[left, right], vec![successor], out);
    }

    /// Local recovery of a split child that has no state of its own
    /// (this node crashed between the split's table update and its local
    /// fork, or missed the split entirely): the parent's surviving store,
    /// replayed through the parent's committed watermark, and that
    /// watermark — the most the child may claim. `None` when nothing of
    /// the parent survives here; the child then starts empty and cohort
    /// catch-up fills it in.
    pub(crate) fn surviving_parent(&self, def: &RangeDef) -> Result<Option<(RangeStore, Lsn)>> {
        let Some(parent) = def.parent else { return Ok(None) };
        let pst = self.wal.state(parent);
        let have_store = self.vfs.exists(&format!("store-r{}/MANIFEST", parent.0))?;
        if !have_store && pst.last_lsn.is_zero() {
            return Ok(None);
        }
        let mut pstore =
            RangeStore::open(self.vfs.clone(), store_options(parent, &self.cfg, None))?;
        self.wal.replay(parent, self.wal.checkpoint(parent), pst.last_committed, |lsn, op| {
            pstore.apply(op, lsn);
        })?;
        Ok(Some((pstore, pst.last_committed)))
    }
}

/// A fresh barrier record for one sibling of a merge.
fn merging(
    sibling: RangeId,
    coordinator: bool,
    requester: NodeId,
    now: u64,
    token: u64,
) -> Merging {
    Merging {
        sibling,
        coordinator,
        sibling_barrier: None,
        requester,
        announced: false,
        since: now,
        token,
    }
}

/// `def`'s key bounds.
pub(crate) fn span_of(def: &RangeDef) -> Span {
    (def.start.clone(), def.end.clone())
}

/// True when `key` routes inside `span`.
fn span_holds(span: &Span, key: &Key) -> bool {
    *key >= span.0 && span.1.as_ref().is_none_or(|end| key < end)
}

/// True when the two spans share a key.
fn spans_overlap(a: &Span, b: &Span) -> bool {
    b.1.as_ref().is_none_or(|be| *be > a.0) && a.1.as_ref().is_none_or(|ae| *ae > b.0)
}

/// True when `inner` lies entirely inside `outer`.
fn span_contains(outer: &Span, inner: &Span) -> bool {
    inner.0 >= outer.0
        && match (&inner.1, &outer.1) {
            (_, None) => true,
            (Some(ie), Some(oe)) => ie <= oe,
            (None, Some(_)) => false,
        }
}

/// The keys both spans hold: `[lo, hi)`.
fn span_clip(a: &Span, b: &Span) -> Span {
    let lo = a.0.clone().max(b.0.clone());
    let hi = match (&a.1, &b.1) {
        (Some(ae), Some(be)) => Some(ae.min(be).clone()),
        (ae, be) => ae.clone().or_else(|| be.clone()),
    };
    (lo, hi)
}
