//! Reconfiguration: the node-level operations that replace replicas by
//! other replicas — range split, range merge and cohort movement.
//!
//! Every one of them ends the same way: the table replaced ranges `P…` by
//! `T…`, and this node must build its replicas of `T` from its replicas
//! of `P` without losing anything it acknowledged. That shared end is
//! `Node::dissolve`. The CAS that retires a range runs after its barrier
//! drained, and writes that barrier — the last LSN the range committed,
//! its leader's epoch and clock — and the successors into the table
//! (`Ring::retired`). So a replica that got the `Split` or `Merge` nudge
//! and one that read the table (its watch, an election, a boot) dissolve
//! the same way, through `Node::dissolve_retired`: same claim, same clock.
//! The successor *stores* have one recipe, `Node::assemble`: every local
//! predecessor replica whose span overlaps the successor's, clipped to
//! it, through `RangeStore::assemble`. Only a move's joiner differs: its
//! predecessor is on another node, so it starts empty, claims nothing,
//! and catch-up ships it the sender's store:
//!
//! | entry point | store assembled from | may claim | leads |
//! |---|---|---|---|
//! | `execute_split` | the parent | the barrier | left child; observes the right |
//! | `execute_merge` | both siblings | the merged base | the merged range |
//! | `dissolve_retired` | every local predecessor of the successor | split: the barrier, or its own gap-free tip below it; merge: the merged base, or zero when one side is short | joins |
//! | `on_join_range` | nothing (empty; catch-up ships the sender's) | zero | follows the sender |
//!
//! What a predecessor logged is never carried over: at or below its
//! barrier it is committed — in the successor stores, or on the replicas
//! that claim the barrier — and past the barrier nothing was, since the
//! barrier drained the queue and the leader accepted no write behind it.

use std::collections::BTreeMap;
use std::fmt;

use spinnaker_common::codec::Decode;
use spinnaker_common::{Epoch, Key, Lsn, NodeId, RangeId, Result};
use spinnaker_storage::RangeStore;

use crate::messages::{ClientError, ClientReply, Outbox, PeerMsg};
use crate::node::{runtime, CohortPaths, Dissolved, Node, ServeStatus};
use crate::partition::{Barrier, Retired, Ring, TABLE_PATH};
use crate::replica::{Merging, MoveState, RangeReplica, Role, Runtime};

/// Key bounds `[start, end)` of a replica; `None` is unbounded above.
pub(crate) type Span = (Key, Option<Key>);

/// The committed watermark a successor replica starts from — what an
/// election may take its log to vouch for.
#[derive(Clone, Copy)]
pub(crate) enum Claim {
    /// Everything the dissolve's barrier covers.
    Full(Lsn),
    /// This replica's own gap-free tip, short of a split's barrier.
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
    /// The caller brings it in (the move's joiner follows the sender).
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
    /// The merge coordinator.
    Merge,
    /// A cohort movement's joining node.
    Join,
    /// Any other replica of a range the table retired: on its leader's
    /// nudge, on the table watch, in an election, or at boot.
    Follower,
}

/// What a successor was allowed to claim (see the module table).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ClaimKind {
    /// The dissolve's barrier.
    Full,
    /// The replica's own gap-free tip.
    Own,
    /// Nothing.
    Zero,
}

/// Which dissolves a node (or a sweep of campaigns) has executed, by
/// entry point and claim. Coverage only: nothing decides anything by it.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct DissolveCoverage {
    cases: BTreeMap<(DissolveEntry, ClaimKind), u64>,
    stranded: u64,
    unreadable: u64,
}

impl DissolveCoverage {
    /// The successors built for one (entry point, claim).
    pub fn get(&self, entry: DissolveEntry, claim: ClaimKind) -> u64 {
        self.cases.get(&(entry, claim)).copied().unwrap_or_default()
    }

    /// Committed records a dissolve dropped: a predecessor's watermark
    /// stood past the barrier the table names, so the range was retired
    /// by a leader one committed write short. Zero unless a hand-off
    /// makes such a leader again.
    pub fn stranded(&self) -> u64 {
        self.stranded
    }

    /// Predecessor logs the commit through a barrier could not read:
    /// their successors claim only what the queue committed.
    pub fn unreadable(&self) -> u64 {
        self.unreadable
    }

    /// Add `other`'s counts to these.
    pub fn add(&mut self, other: &DissolveCoverage) {
        self.stranded += other.stranded;
        self.unreadable += other.unreadable;
        for (&case, n) in &other.cases {
            *self.cases.entry(case).or_default() += n;
        }
    }
}

/// One line: `Entry/Claim successors` per case reached, then the stranded
/// records and the unreadable logs.
impl fmt::Display for DissolveCoverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for ((entry, claim), n) in &self.cases {
            write!(f, "{entry:?}/{claim:?} {n} ")?;
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
    /// never by a memtable) and checkpoint each successor stream at its
    /// claim, fail-stopping before anything is attached if either fails;
    /// queue the
    /// predecessors' streams and stores for GC (nothing of their logs is
    /// carried over, see the module docs); attach the successors with the
    /// inherited epoch, watermark, commit note and timestamp clocks
    /// (every successor, led or not, stamps above everything a
    /// predecessor assigned or served: ts-order == LSN-order survives);
    /// answer the predecessors' buffered writes; enter the cohorts.
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
            // The claim lives only in the successor stream's checkpoint:
            // a restart that lost it would advertise nothing over a store
            // that holds everything. Local recovery rebuilds a successor
            // with no checkpoint from predecessors it still holds.
            if !s.claim.lsn().is_zero() {
                let saved = self.wal.set_checkpoint(s.id, s.claim.lsn());
                if self.fail_stop(saved).is_none() {
                    return;
                }
            }
        }
        let preds: Vec<RangeReplica> =
            preds.iter().filter_map(|r| self.replicas.remove(r)).collect();
        for p in &preds {
            self.dissolved.push(Dissolved { range: p.range, at: now, gc_znodes: true });
        }
        let last_ts = preds.iter().map(|p| p.last_ts).max().unwrap_or(0);
        let served_ts = preds.iter().map(|p| p.served_ts).max().unwrap_or(0);
        let leads = succs.iter().any(|s| matches!(s.then, Then::Lead { .. }));
        let mut entering = Vec::with_capacity(succs.len());
        for s in succs {
            *self.dissolves.cases.entry((entry, s.claim.kind())).or_default() += 1;
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
    /// cleanly), retiring the parent at its barrier; only then is the
    /// local store forked and the replica dissolved into the two
    /// children. The left child keeps this leader under a bumped epoch;
    /// the right child runs a fresh election whose tie-break prefers the
    /// *next* cohort member, moving half the hot range's load to another
    /// node.
    pub(crate) fn execute_split(&mut self, now: u64, range: RangeId, out: &mut Outbox) {
        let Some(rep) = self.replicas.get_mut(&range) else { return };
        let Some(at) = rep.splitting.take() else { return };
        let barrier = Barrier { epoch: rep.epoch, lsn: rep.last_committed, clock: rep.clock() };
        let mut children = None;
        let updated = self.cas_table(|t| {
            children = t.split(range, &at, barrier).ok();
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
        let pe = barrier.epoch;
        let peers = rep.peers.clone();
        let (start, end) = rep.span.clone();
        let lead = Then::Lead { from: Lsn::new(pe + 1, barrier.lsn.seq()) };
        let children = [
            (left, (start, Some(at.clone())), pe + 1, lead),
            (right, (at, end), pe, Then::Observe),
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
        // the Split nudge works through their (FIFO) request queues,
        // pulling them into an election for no reason. The quiesced GC
        // removes the whole `/r{N}` subtree later.

        let built: Result<Vec<Successor>> = children
            .into_iter()
            .map(|(id, span, epoch, then)| {
                let store = self.assemble(id, &span, &[range])?;
                let (peers, claim) = (peers.clone(), Claim::Full(barrier.lsn));
                Ok(Successor { id, span, peers, store, claim, epoch, then })
            })
            .collect();
        let Some(successors) = self.fail_stop(built) else { return };
        for &peer in &peers {
            out.send(peer, PeerMsg::Split { range });
        }
        self.dissolve(now, DissolveEntry::Split, &[range], successors, out);
    }

    /// A `Split` or `Merge` nudge: the sender's proposes for `range`
    /// precede it on this link, so this replica's queue holds what the
    /// range committed. Dissolve it as the table says.
    pub(crate) fn on_reshard_msg(&mut self, now: u64, range: RangeId, out: &mut Outbox) {
        self.adopt_table_from_coord();
        if self.serve_status(range) == ServeStatus::Gone {
            self.dissolve_retired(now, range, false, out);
        }
    }

    /// Watch-driven table refresh: dissolve every local replica of a
    /// range the table retired, and retire one whose live def no longer
    /// names us (a committed departure we slept through).
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
        for &range in self.replicas.keys() {
            match self.serve_status(range) {
                ServeStatus::Gone => gone.push(range),
                ServeStatus::NotMember => departed.push(range),
                ServeStatus::Member | ServeStatus::MoveTarget => {}
            }
        }
        for range in departed {
            self.retire_replica(now, range, out);
        }
        for range in gone {
            self.dissolve_retired(now, range, true, out);
        }
    }

    /// The one follower-side dissolve: replace this node's replica of
    /// `range`, which the table retired, by the successors this node does
    /// not hold yet — each built from *all* of its local predecessors at
    /// once, so every other local replica that shares a successor with
    /// `range` dissolves in the same step.
    ///
    /// Each predecessor first commits through its table barrier
    /// (`RangeReplica::commit_to_barrier`) and takes in its leader's
    /// clock. A split child then claims its parent's barrier, or the
    /// parent's own gap-free tip below it; a merged range claims the
    /// merged base when every sibling is here and committed through its
    /// barrier, and nothing otherwise. A successor the table retired too
    /// (a chain slept through) is built as well, and its own cohort entry
    /// dissolves it in turn.
    ///
    /// `defer` (the table watch) leaves the group alone while one of its
    /// replicas follows a live leader of another node: that leader's
    /// nudge is queued behind every propose it covers, and if the leader
    /// dies instead, its leader znode's deletion brings the replica here
    /// through an election.
    pub(crate) fn dissolve_retired(
        &mut self,
        now: u64,
        range: RangeId,
        defer: bool,
        out: &mut Outbox,
    ) {
        if !self.replicas.contains_key(&range) {
            return;
        }
        let named = self.ring.retired(range).map_or(&[][..], |r| &r.successors[..]);
        let succs: Vec<RangeId> =
            named.iter().copied().filter(|s| !self.replicas.contains_key(s)).collect();
        let mut preds = vec![range];
        for &s in &succs {
            for p in self.ring.predecessors(s) {
                if self.replicas.contains_key(&p.id) && !preds.contains(&p.id) {
                    preds.push(p.id);
                }
            }
        }
        let waits = |r: &RangeReplica| {
            matches!(r.role, Role::Follower | Role::CatchingUp)
                && r.leader.is_some_and(|l| l != self.id)
        };
        if defer && preds.iter().any(|p| waits(&self.replicas[p])) {
            return;
        }
        for &p in &preds {
            let Some(barrier) = self.ring.retired(p).map(|r| r.barrier) else { continue };
            let mut rt = runtime!(self, now);
            let Some(rep) = self.replicas.get_mut(&p) else { continue };
            // Reached from elections too: withdraw a candidacy for a
            // range nobody will elect again.
            if let Some(path) = rep.candidate_path.take() {
                // spinlint: allow(E1) -- gone already, or our expired session took it
                let _ = rt.coord.delete(&path);
            }
            rep.adopt_clock(barrier.clock);
            if rep.commit_to_barrier(&mut rt, barrier).is_err() {
                self.dissolves.unreadable += 1;
            }
            if rep.last_committed > barrier.lsn {
                // A watermark of another epoch may sit past the barrier
                // at a lower sequence number: it still counts.
                let past = rep.last_committed.seq().saturating_sub(barrier.lsn.seq());
                self.dissolves.stranded += past.max(1);
            }
        }
        let built: Result<Vec<Successor>> =
            succs.iter().filter_map(|&id| self.table_successor(id, &preds)).collect();
        let Some(successors) = self.fail_stop(built) else { return };
        self.dissolve(now, DissolveEntry::Follower, &preds, successors, out);
    }

    /// Successor `id` of the local replicas `preds`, as the table
    /// describes it (`None` when it names no such range).
    fn table_successor(&self, id: RangeId, preds: &[RangeId]) -> Option<Result<Successor>> {
        let span = span_in(&self.ring, id)?;
        let table_preds: Vec<&Retired> = self.ring.predecessors(id).collect();
        let committed = |p: &Retired| self.replicas.get(&p.id).map(|r| r.last_committed);
        let (claim, epoch) = match table_preds.as_slice() {
            [p] => match committed(p).unwrap_or(Lsn::ZERO) {
                own if own >= p.barrier.lsn => (Claim::Full(p.barrier.lsn), p.barrier.epoch),
                own => (Claim::Own(own), p.barrier.epoch),
            },
            siblings => {
                let (epoch, base) = merged_base(siblings.iter().map(|p| p.barrier));
                let clean =
                    siblings.iter().all(|p| committed(p).is_some_and(|c| c >= p.barrier.lsn));
                (if clean { Claim::Full(base) } else { Claim::Zero }, epoch)
            }
        };
        let fallback = preds.iter().find_map(|p| self.replicas.get(p)).map(|r| r.peers.clone());
        let peers = self.peers_of(id, &fallback.unwrap_or_default());
        Some(self.assemble(id, &span, preds).map(|store| Successor {
            id,
            span,
            peers,
            store,
            claim,
            epoch,
            then: Then::Join,
        }))
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
        rep.moving = Some(MoveState { from, to, since: now, draining: false, held: Lsn::ZERO });
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
            span: (def.start.clone(), def.end.clone()),
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
    /// just left, and then waits for the learner to confirm it holds
    /// that barrier (its acks, or the catch-up a commit message naming a
    /// write it missed sends it into): the learner takes the range over.
    pub(crate) fn finish_move(&mut self, now: u64, range: RangeId, out: &mut Outbox) {
        let Some(rep) = self.replicas.get_mut(&range) else { return };
        let Some(m) = rep.moving.as_mut() else { return };
        let (from, to) = (m.from, m.to);
        if from == self.id && (!rep.cq.is_empty() || m.held < rep.last_committed) {
            // Barrier: try_commit or the learner re-triggers, and the
            // move timeout counts from here.
            if !m.draining {
                m.draining = true;
                m.since = now;
            }
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

    /// Both barriers drained: CAS the merged `RangeDef` (retiring both
    /// siblings at their barriers), merge the local stores, lead the
    /// merged range, nudge the cohort with `Merge`, and dissolve both
    /// siblings.
    fn execute_merge(
        &mut self,
        now: u64,
        left: RangeId,
        right: RangeId,
        right_barrier: Lsn,
        out: &mut Outbox,
    ) {
        let (Some(lrep), Some(rrep)) = (self.replicas.get(&left), self.replicas.get(&right)) else {
            self.abort_merge(now, left, out);
            return;
        };
        let clock = lrep.clock().max(rrep.clock());
        let barriers = [
            Barrier { epoch: lrep.epoch, lsn: lrep.last_committed, clock },
            Barrier { epoch: rrep.epoch, lsn: right_barrier, clock },
        ];
        let (merged_epoch, base) = merged_base(barriers);
        let peers = lrep.peers.clone();
        let span = (lrep.span.0.clone(), rrep.span.1.clone());
        let mut merged = None;
        let updated = self.cas_table(|t| {
            merged = t.merge(left, right, barriers).ok();
            merged.is_some()
        });
        let (Some(_), Some(merged)) = (updated, merged) else {
            self.abort_merge(now, left, out);
            return;
        };

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
        // Merge nudge first).

        let built = self.assemble(merged, &span, &[left, right]);
        let Some(store) = self.fail_stop(built) else { return };
        for &peer in &peers {
            out.send(peer, PeerMsg::Merge { range: left });
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

/// The key bounds of `range`, live or retired.
pub(crate) fn span_in(ring: &Ring, range: RangeId) -> Option<Span> {
    match (ring.def(range), ring.retired(range)) {
        (Some(d), _) => Some((d.start.clone(), d.end.clone())),
        (None, Some(r)) => Some((r.start.clone(), r.end.clone())),
        (None, None) => None,
    }
}

/// The epoch and base LSN of a range merged from ranges retired at
/// `barriers`: every LSN it assigns exceeds every LSN either sibling used.
fn merged_base(barriers: impl IntoIterator<Item = Barrier>) -> (Epoch, Lsn) {
    let (epoch, seq) =
        barriers.into_iter().fold((0, 0), |(e, s), b| (e.max(b.epoch), s.max(b.lsn.seq())));
    (epoch + 1, Lsn::new(epoch + 1, seq))
}

/// True when the two spans share a key.
fn spans_overlap(a: &Span, b: &Span) -> bool {
    b.1.as_ref().is_none_or(|be| *be > a.0) && a.1.as_ref().is_none_or(|ae| *ae > b.0)
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
