//! A Dynamo/Cassandra-style replica node (paper §2.3, §9).
//!
//! No leaders: any node coordinates a request. Writes carry
//! coordinator-assigned timestamps and go to **all** replicas of the key's
//! range; the coordinator acknowledges after `W` replica acks (weak `W=1`,
//! quorum `W=2`). Reads fan out to `R` replicas (weak `R=1`, quorum
//! `R=2`); the newest timestamp wins and divergent replicas receive
//! read-repair writes.
//!
//! As the paper stresses (§9), even quorum reads/writes do **not** give
//! Spinnaker's consistency: there is no leader serializing writes and no
//! quorum recovery — the tests demonstrate both caveats.

use std::collections::BTreeMap;

use bytes::Bytes;

use spinnaker_common::vfs::SharedVfs;
use spinnaker_common::{ColumnValue, Key, Lsn, NodeId, RangeId, Result, Row, Timestamp, WriteOp};
use spinnaker_storage::{RangeStore, StoreOptions};

use spinnaker_core::partition::Ring;

/// Merge a write into a store with last-writer-wins semantics.
///
/// Unlike Spinnaker (where LSN order is guaranteed by the leader and a
/// blind apply is correct), replicas here receive writes in **different
/// orders**; merging by timestamp-derived version is what makes
/// last-writer-wins convergent.
fn lww_apply(store: &mut RangeStore, op: &WriteOp) {
    let mut frag = Row::new();
    op.apply_to_row(&mut frag, Lsn::from_u64(op.timestamp));
    store.ingest_fragment(&op.key, &frag);
}

/// Client-visible durability level of a write (§9: "a weak write waits
/// for an ack from just 1 replica, whereas a quorum write waits for acks
/// from 2").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteLevel {
    /// Ack after 1 replica has logged the write.
    Weak,
    /// Ack after 2 replicas have logged the write.
    Quorum,
}

impl WriteLevel {
    /// Acks required.
    pub fn required(self) -> usize {
        match self {
            WriteLevel::Weak => 1,
            WriteLevel::Quorum => 2,
        }
    }
}

/// Read consistency level (§9: weak reads access 1 replica, quorum reads
/// access 2 and check for conflicts).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadLevel {
    /// One replica.
    Weak,
    /// Two replicas + conflict resolution + read repair.
    Quorum,
}

impl ReadLevel {
    /// Responses required.
    pub fn required(self) -> usize {
        match self {
            ReadLevel::Weak => 1,
            ReadLevel::Quorum => 2,
        }
    }
}

/// Node-to-node messages.
#[derive(Clone, Debug)]
pub enum EPeerMsg {
    /// Coordinator → replica: store this cell.
    ReplicaWrite {
        /// Coordinator-side correlation id (0 = repair, no ack expected).
        id: u64,
        /// The write (timestamp already assigned).
        op: WriteOp,
    },
    /// Replica → coordinator: the write is durable here.
    WriteAck {
        /// Correlation id.
        id: u64,
    },
    /// Coordinator → replica: read a cell.
    ReplicaRead {
        /// Correlation id.
        id: u64,
        /// Row key.
        key: Key,
        /// Column.
        col: Bytes,
    },
    /// Replica → coordinator: the cell's state here.
    ReadResp {
        /// Correlation id.
        id: u64,
        /// Responding replica.
        from: NodeId,
        /// Stored state (None = absent).
        cv: Option<ColumnValue>,
    },
}

impl EPeerMsg {
    /// Approximate wire size for the network model.
    pub fn wire_size(&self) -> usize {
        match self {
            EPeerMsg::ReplicaWrite { op, .. } => 48 + op.approx_size(),
            EPeerMsg::ReadResp { cv, .. } => 48 + cv.as_ref().map_or(0, |c| c.value.len()),
            _ => 48,
        }
    }
}

/// Replies to clients.
#[derive(Clone, Debug)]
pub enum EReply {
    /// Write acknowledged at the requested level.
    WriteOk {
        /// Request id.
        req: u64,
    },
    /// Read result.
    Value {
        /// Request id.
        req: u64,
        /// `(value, timestamp)` when present.
        value: Option<(Bytes, Timestamp)>,
    },
}

impl EReply {
    /// The request this reply answers.
    pub fn req(&self) -> u64 {
        match self {
            EReply::WriteOk { req } | EReply::Value { req, .. } => *req,
        }
    }
}

/// Inputs to the node.
#[derive(Clone, Debug)]
pub enum ENodeInput {
    /// A peer message.
    Peer {
        /// Sender.
        from: NodeId,
        /// Message.
        msg: EPeerMsg,
    },
    /// Client write RPC (this node coordinates).
    Write {
        /// Reply address.
        from: u32,
        /// Request id.
        req: u64,
        /// Row key.
        key: Key,
        /// Value (column is fixed to `"c"` as in the experiments).
        value: Bytes,
        /// Durability level.
        level: WriteLevel,
    },
    /// Client read RPC (this node coordinates).
    Read {
        /// Reply address.
        from: u32,
        /// Request id.
        req: u64,
        /// Row key.
        key: Key,
        /// Consistency level.
        level: ReadLevel,
    },
    /// The log device finished a sync covering these tokens.
    LogForced {
        /// Completed force tokens.
        tokens: Vec<u64>,
    },
}

/// Effects requested of the hosting runtime.
#[derive(Clone, Debug)]
pub enum EEffect {
    /// Send a peer message.
    Send {
        /// Destination node.
        to: NodeId,
        /// Message.
        msg: EPeerMsg,
    },
    /// Reply to a client.
    Reply {
        /// Client address.
        to: u32,
        /// Reply.
        reply: EReply,
    },
    /// Request a log force (completion → [`ENodeInput::LogForced`]).
    ForceLog {
        /// Completion token.
        token: u64,
        /// Bytes covered.
        bytes: u64,
    },
}

struct PendingWrite {
    client: u32,
    req: u64,
    needed: usize,
    acks: usize,
    done: bool,
}

struct PendingRead {
    client: u32,
    req: u64,
    needed: usize,
    key: Key,
    col: Bytes,
    resps: Vec<(NodeId, Option<ColumnValue>)>,
    done: bool,
}

/// One eventually consistent node.
pub struct EventualNode {
    id: NodeId,
    ring: Ring,
    stores: BTreeMap<RangeId, RangeStore>,
    pending_writes: BTreeMap<u64, PendingWrite>,
    pending_reads: BTreeMap<u64, PendingRead>,
    /// Force token → (ack target, correlation id); repair writes have no
    /// entry.
    force_waiters: BTreeMap<u64, (NodeId, u64)>,
    next_id: u64,
    next_token: u64,
}

impl EventualNode {
    /// Open the node's stores (one per range it replicates).
    pub fn new(id: NodeId, ring: Ring, vfs: SharedVfs) -> Result<EventualNode> {
        let mut stores = BTreeMap::new();
        for range in ring.ranges_of(id) {
            stores.insert(
                range,
                RangeStore::open(
                    vfs.clone(),
                    StoreOptions { dir: format!("estore-r{}", range.0), ..Default::default() },
                )?,
            );
        }
        Ok(EventualNode {
            id,
            ring,
            stores,
            pending_writes: BTreeMap::new(),
            pending_reads: BTreeMap::new(),
            force_waiters: BTreeMap::new(),
            next_id: 1,
            next_token: 1,
        })
    }

    /// Unique, node-disambiguated timestamp (ties across coordinators
    /// would otherwise let replicas diverge under last-writer-wins).
    fn timestamp(&self, now: u64) -> Timestamp {
        now * 16 + (self.id as u64 % 16)
    }

    /// Handle an input, pushing effects.
    pub fn on_input(&mut self, now: u64, input: ENodeInput, out: &mut Vec<EEffect>) {
        match input {
            ENodeInput::Write { from, req, key, value, level } => {
                let range = self.ring.range_of(&key);
                let ts = self.timestamp(now);
                let op = WriteOp::put(key, Bytes::from_static(b"c"), value, ts);
                let id = self.next_id;
                self.next_id += 1;
                self.pending_writes.insert(
                    id,
                    PendingWrite {
                        client: from,
                        req,
                        needed: level.required(),
                        acks: 0,
                        done: false,
                    },
                );
                // "Both are sent to all 3 replicas" (§9).
                for replica in self.ring.cohort(range) {
                    if replica == self.id {
                        self.local_write(range, &op, id, out);
                    } else {
                        out.push(EEffect::Send {
                            to: replica,
                            msg: EPeerMsg::ReplicaWrite { id, op: op.clone() },
                        });
                    }
                }
            }
            ENodeInput::Read { from, req, key, level } => {
                let range = self.ring.range_of(&key);
                let id = self.next_id;
                self.next_id += 1;
                let col = Bytes::from_static(b"c");
                let mut pending = PendingRead {
                    client: from,
                    req,
                    needed: level.required(),
                    key: key.clone(),
                    col: col.clone(),
                    resps: Vec::new(),
                    done: false,
                };
                // Prefer local data + the nearest peers: first R cohort
                // members, self included when we are one of them.
                let members = self.ring.cohort(range);
                for replica in members.into_iter().take(level.required()) {
                    if replica == self.id {
                        let cv = self.read_local(range, &key, &col);
                        pending.resps.push((self.id, cv));
                    } else {
                        out.push(EEffect::Send {
                            to: replica,
                            msg: EPeerMsg::ReplicaRead { id, key: key.clone(), col: col.clone() },
                        });
                    }
                }
                self.pending_reads.insert(id, pending);
                self.maybe_finish_read(id, out);
            }
            ENodeInput::Peer { from, msg } => self.on_peer(now, from, msg, out),
            ENodeInput::LogForced { mut tokens } => self.on_forced(&mut tokens, out),
        }
    }

    /// The log device finished a sync covering `tokens`: resolve their
    /// waiters. The list is left empty, for the host to hand back to its
    /// device.
    pub fn on_forced(&mut self, tokens: &mut Vec<u64>, out: &mut Vec<EEffect>) {
        for token in tokens.drain(..) {
            if let Some((target, id)) = self.force_waiters.remove(&token) {
                if target == self.id {
                    self.on_write_ack(id, out);
                } else {
                    out.push(EEffect::Send { to: target, msg: EPeerMsg::WriteAck { id } });
                }
            }
        }
    }

    fn on_peer(&mut self, _now: u64, from: NodeId, msg: EPeerMsg, out: &mut Vec<EEffect>) {
        match msg {
            EPeerMsg::ReplicaWrite { id, op } => {
                let range = self.ring.range_of(&op.key);
                if let Some(store) = self.stores.get_mut(&range) {
                    lww_apply(store, &op);
                }
                if id != 0 {
                    // Durable before ack: force the (modeled) commit log.
                    let token = self.next_token;
                    self.next_token += 1;
                    self.force_waiters.insert(token, (from, id));
                    out.push(EEffect::ForceLog { token, bytes: op.approx_size() as u64 + 32 });
                }
            }
            EPeerMsg::WriteAck { id } => self.on_write_ack(id, out),
            EPeerMsg::ReplicaRead { id, key, col } => {
                let range = self.ring.range_of(&key);
                let cv = self.read_local(range, &key, &col);
                out.push(EEffect::Send {
                    to: from,
                    msg: EPeerMsg::ReadResp { id, from: self.id, cv },
                });
            }
            EPeerMsg::ReadResp { id, from: replica, cv } => {
                if let Some(p) = self.pending_reads.get_mut(&id) {
                    p.resps.push((replica, cv));
                }
                self.maybe_finish_read(id, out);
            }
        }
    }

    fn local_write(&mut self, range: RangeId, op: &WriteOp, id: u64, out: &mut Vec<EEffect>) {
        if let Some(store) = self.stores.get_mut(&range) {
            lww_apply(store, op);
        }
        let token = self.next_token;
        self.next_token += 1;
        self.force_waiters.insert(token, (self.id, id));
        out.push(EEffect::ForceLog { token, bytes: op.approx_size() as u64 + 32 });
    }

    fn on_write_ack(&mut self, id: u64, out: &mut Vec<EEffect>) {
        let Some(p) = self.pending_writes.get_mut(&id) else { return };
        p.acks += 1;
        if !p.done && p.acks >= p.needed {
            p.done = true;
            out.push(EEffect::Reply { to: p.client, reply: EReply::WriteOk { req: p.req } });
        }
        if p.acks >= self.ring.replication() {
            self.pending_writes.remove(&id);
        }
    }

    fn read_local(&self, range: RangeId, key: &Key, col: &[u8]) -> Option<ColumnValue> {
        self.stores.get(&range)?.get_column(key, col).ok().flatten().filter(|cv| !cv.tombstone)
    }

    fn maybe_finish_read(&mut self, id: u64, out: &mut Vec<EEffect>) {
        let Some(p) = self.pending_reads.get_mut(&id) else { return };
        if p.done || p.resps.len() < p.needed {
            return;
        }
        p.done = true;
        // Conflict resolution: newest timestamp wins (§9).
        let winner: Option<ColumnValue> = p
            .resps
            .iter()
            .filter_map(|(_, cv)| cv.clone())
            .max_by_key(|cv| (cv.timestamp, cv.version));
        let reply = EReply::Value {
            req: p.req,
            value: winner.as_ref().map(|cv| (cv.value.clone(), cv.timestamp)),
        };
        out.push(EEffect::Reply { to: p.client, reply });
        // Read repair: stale responders get the winning state.
        if let Some(w) = winner {
            let repairs: Vec<NodeId> = p
                .resps
                .iter()
                .filter(|(_, cv)| cv.as_ref().is_none_or(|c| c.timestamp < w.timestamp))
                .map(|(n, _)| *n)
                .collect();
            let op = WriteOp {
                key: p.key.clone(),
                cells: vec![spinnaker_common::CellOp::Put {
                    col: p.col.clone(),
                    value: w.value.clone(),
                }],
                timestamp: w.timestamp,
                origin: None,
            };
            let me = self.id;
            for target in repairs {
                if target == me {
                    let range = self.ring.range_of(&op.key);
                    if let Some(store) = self.stores.get_mut(&range) {
                        lww_apply(store, &op);
                    }
                } else {
                    out.push(EEffect::Send {
                        to: target,
                        msg: EPeerMsg::ReplicaWrite { id: 0, op: op.clone() },
                    });
                }
            }
        }
        self.pending_reads.remove(&id);
    }

    /// Direct store access for tests.
    pub fn store(&self, range: RangeId) -> Option<&RangeStore> {
        self.stores.get(&range)
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }
}
