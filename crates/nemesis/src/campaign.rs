//! Campaign driver: one seed in, one checked run out.
//!
//! A campaign builds a simulated cluster, registers a fleet of
//! history-recording [`NemesisClient`]s, replays the seed's fault
//! [`Schedule`] against the live cluster (resolving each intent —
//! which node, which range, which key — against the state at apply
//! time), then heals everything, drains the clients, and hands the
//! recorded [`History`] to the [`checker`].
//!
//! Everything — cluster config, client mix, fault schedule — derives
//! from the one seed, so a failing run is replayable (and shrinkable)
//! from the seed alone, and two runs of the same seed produce
//! byte-identical history artifacts.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use spinnaker_common::{History, Key, NodeId};
use spinnaker_core::client::ClientEv;
use spinnaker_core::cluster::{ClusterConfig, Ev, SimCluster};
use spinnaker_core::partition::{key_to_u64, u64_to_key};
use spinnaker_core::DissolveCoverage;
use spinnaker_sim::{DiskProfile, Idle, ProcId, Time, MILLIS, SECS};

use crate::checker::{self, Violation};
use crate::client::{ClientProgress, NemesisClient};
use crate::schedule::{generate, FaultEvent, FaultKind, Schedule};

/// Campaign sizing, all derived from the seed (or pinned by tests).
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Cluster size.
    pub nodes: usize,
    /// Number of concurrent clients.
    pub clients: u32,
    /// Calls each client keeps in flight.
    pub pipeline: usize,
    /// Calls each client issues in total.
    pub ops_per_client: u64,
    /// Size of the shared key universe (small, so ops collide).
    pub keys: usize,
    /// Quiet period for boot and elections before traffic and faults.
    pub warmup: Time,
    /// Length of the fault window.
    pub duration: Time,
    /// Maximum post-heal drain before declaring a stall.
    pub drain: Time,
    /// MVCC retention window (`NodeConfig::snapshot_retain`).
    pub snapshot_retain: Time,
    /// Snapshot pin lease (`NodeConfig::pin_lease`; 0 disables).
    pub pin_lease: Time,
    /// The leaders' commit-message period (`NodeConfig::commit_period`;
    /// no campaign sets `piggyback_commits`, so nothing else rides it).
    pub commit_period: Time,
}

/// Domain separator for config derivation (distinct from the schedule
/// and simulator streams).
const CONFIG_STREAM: u64 = 0x434f_4e46_4947; // "CONFIG"

impl CampaignConfig {
    /// Derive a campaign shape from the seed.
    pub fn from_seed(seed: u64) -> CampaignConfig {
        let mut rng = SmallRng::seed_from_u64(seed ^ CONFIG_STREAM);
        CampaignConfig {
            nodes: if rng.gen_bool(0.7) { 5 } else { 3 },
            clients: rng.gen_range(3..=5),
            pipeline: rng.gen_range(1..=2),
            ops_per_client: rng.gen_range(25..=50),
            keys: rng.gen_range(8..=16),
            warmup: 3 * SECS,
            duration: rng.gen_range(8 * SECS..=14 * SECS),
            drain: 30 * SECS,
            snapshot_retain: rng.gen_range(SECS..=5 * SECS),
            pin_lease: match rng.gen_range(0u32..10) {
                0 => 0,
                1..=4 => 5 * SECS,
                _ => 10 * SECS,
            },
            commit_period: if rng.gen_bool(0.5) { 50 * MILLIS } else { 100 * MILLIS },
        }
    }
}

/// Everything one campaign run produced.
#[derive(Debug)]
pub struct RunReport {
    /// The seed that generated the run.
    pub seed: u64,
    /// The complete recorded op history.
    pub history: History,
    /// Checker verdict (empty = consistent).
    pub violations: Vec<Violation>,
    /// Calls issued across all clients.
    pub ops_issued: u64,
    /// Calls that resolved (ok or terminal failure).
    pub ops_completed: u64,
    /// True when clients failed to drain after every fault was healed —
    /// a liveness failure.
    pub stalled: bool,
    /// Fault intents actually applied (guards skip inapplicable ones).
    pub faults_applied: usize,
    /// Whether every range had an elected leader when the run ended
    /// (diagnostic for stalls: `false` points at an election wedge, not
    /// a client bug).
    pub ranges_led: bool,
    /// End-of-run cluster health lines (populated on a stall): each
    /// node's liveness and the state of every replica it holds
    /// ([`spinnaker_core::node::Node::replica_states`]), then each
    /// range's cohort and roles.
    pub health: Vec<String>,
    /// Which reconfiguration paths the run reached: successors built per
    /// dissolve entry point and claim.
    pub dissolves: DissolveCoverage,
}

impl RunReport {
    /// True when the run found a safety or liveness problem.
    pub fn failed(&self) -> bool {
        !self.violations.is_empty() || self.stalled
    }
}

/// Run one seed end to end: derived config, derived schedule.
pub fn run_seed(seed: u64) -> RunReport {
    let cfg = CampaignConfig::from_seed(seed);
    let schedule = generate(seed, cfg.nodes, cfg.warmup, cfg.warmup + cfg.duration);
    run(seed, &cfg, &schedule)
}

/// Run a campaign with an explicit schedule (the shrinker re-runs with
/// event subsets; tests pin schedules directly).
pub fn run(seed: u64, cfg: &CampaignConfig, schedule: &Schedule) -> RunReport {
    let mut cluster = {
        let mut cc = ClusterConfig { nodes: cfg.nodes, seed, ..Default::default() };
        cc.disk = DiskProfile::Ssd;
        cc.node.commit_period = cfg.commit_period;
        cc.node.snapshot_retain = cfg.snapshot_retain;
        cc.node.pin_lease = cfg.pin_lease;
        SimCluster::new(cc)
    };

    // Boot and elect. Extend the quiet period if elections are slow —
    // fault injection into a cluster that never got live says nothing.
    let mut t = cfg.warmup;
    cluster.run_until(t);
    for _ in 0..20 {
        if cluster.all_ranges_led() {
            break;
        }
        t += 500 * MILLIS;
        cluster.run_until(t);
    }

    // The shared key universe, evenly spread over the space (and so
    // over every range).
    let step = u64::MAX / cfg.keys as u64;
    let keys: Rc<Vec<Key>> =
        Rc::new((0..cfg.keys as u64).map(|i| u64_to_key(i.wrapping_mul(step))).collect());

    let mut history = History::new();
    history.meta("seed", seed);
    history.meta("nodes", cfg.nodes);
    history.meta("clients", cfg.clients);
    history.meta("keys", cfg.keys);
    history.meta("ops_per_client", cfg.ops_per_client);
    history.meta("schedule_events", schedule.events.len());
    let history = Rc::new(RefCell::new(history));

    // Register the client fleet (two-phase: reserve the proc id, then
    // swap in the client that knows it).
    let mut progresses: Vec<Rc<RefCell<ClientProgress>>> = Vec::new();
    let mut client_procs: Vec<ProcId> = Vec::new();
    // Mean think time spreading each client's op budget across the
    // fault window (ops that race ahead of the faults test nothing).
    let think = (cfg.duration / cfg.ops_per_client.max(1)).max(MILLIS);
    for id in 0..cfg.clients {
        let proc = cluster.sim.add_actor(Box::new(Idle));
        let (client, progress) = NemesisClient::new(
            proc,
            id,
            cluster.ring.clone(),
            cluster.world.clone(),
            history.clone(),
            keys.clone(),
            cfg.ops_per_client,
            cfg.pipeline,
            think,
        );
        cluster.sim.replace_actor(proc, Box::new(client));
        cluster.sim.schedule(t + u64::from(id) * 10 * MILLIS, proc, Ev::Client(ClientEv::Start));
        progresses.push(progress);
        client_procs.push(proc);
    }

    // Replay the fault schedule against the live cluster.
    let mut injector = Injector {
        nodes: cfg.nodes,
        minority_max: (cfg.nodes - 1) / 2,
        crashed: Vec::new(),
        ticker: cfg.nodes as ProcId,
        client_procs,
        applied: 0,
    };
    for ev in &schedule.events {
        cluster.run_until(ev.at.max(t));
        injector.apply(&mut cluster, ev);
    }

    // Heal the world and drain the clients.
    let fault_end = (cfg.warmup + cfg.duration).max(t);
    cluster.run_until(fault_end);
    cluster.world.net.borrow_mut().heal_all();
    let deadline = fault_end + cfg.drain;
    let mut now = fault_end;
    while now < deadline {
        // Revive anything that is (or just went) down: crash events
        // from the schedule, and fail-stop poisonings from armed disk
        // faults that fired after their injection point.
        for id in 0..cfg.nodes as NodeId {
            if !cluster.is_up(id) {
                cluster.restart_node(now, id);
            }
        }
        now += SECS;
        cluster.run_until(now);
        if progresses.iter().all(|p| p.borrow().done()) {
            break;
        }
    }

    let stalled = !progresses.iter().all(|p| p.borrow().done());
    let ranges_led = cluster.all_ranges_led();
    let mut health = Vec::new();
    if stalled {
        for id in 0..cfg.nodes as NodeId {
            health.push(format!("node {id}: up={}", cluster.is_up(id)));
            let replicas = cluster.with_node(id, |n| n.replica_states()).unwrap_or_default();
            health.extend(replicas.into_iter().map(|line| format!("  {line}")));
        }
        let ring = cluster.current_ring();
        for def in ring.defs() {
            let roles: Vec<String> = def
                .cohort
                .iter()
                .map(|&m| format!("{m}:{:?}", cluster.role_of(def.id, m)))
                .collect();
            health.push(format!(
                "range {}: cohort={:?} leader={:?} roles=[{}] moving={:?}",
                def.id,
                def.cohort,
                cluster.leader_of(def.id),
                roles.join(" "),
                def.moving
            ));
        }
    }
    let (mut issued, mut completed) = (0, 0);
    for p in &progresses {
        let p = p.borrow();
        issued += p.issued;
        completed += p.completed;
    }
    let history = Rc::try_unwrap(history).map(RefCell::into_inner).unwrap_or_else(|rc| {
        // Client actors still hold handles; clone the contents out.
        rc.borrow().clone()
    });
    let violations = checker::check(&history);
    RunReport {
        seed,
        history,
        violations,
        ops_issued: issued,
        ops_completed: completed,
        stalled,
        faults_applied: injector.applied,
        ranges_led,
        health,
        dissolves: cluster.dissolve_coverage(),
    }
}

/// Resolves fault intents against live cluster state and applies them.
struct Injector {
    nodes: usize,
    minority_max: usize,
    /// Crash order (restart pops the longest-crashed first).
    crashed: Vec<NodeId>,
    ticker: ProcId,
    client_procs: Vec<ProcId>,
    applied: usize,
}

impl Injector {
    fn apply(&mut self, cluster: &mut SimCluster, ev: &FaultEvent) {
        let at = ev.at;
        let n = self.nodes as u64;
        match &ev.kind {
            FaultKind::Crash { node } => {
                // Keep a majority of nodes up so the cluster stays able
                // to make progress between faults.
                if self.crashed.len() >= self.minority_max {
                    return;
                }
                let mut id = (*node % n) as NodeId;
                for _ in 0..self.nodes {
                    if !self.crashed.contains(&id) && cluster.is_up(id) {
                        cluster.crash_node(at, id, false);
                        self.crashed.push(id);
                        self.applied += 1;
                        return;
                    }
                    id = (id + 1) % self.nodes as NodeId;
                }
            }
            FaultKind::Restart => {
                if self.crashed.is_empty() {
                    return;
                }
                let id = self.crashed.remove(0);
                cluster.restart_node(at, id);
                self.applied += 1;
            }
            FaultKind::Partition { pick, size } => {
                let size = (*size as usize).clamp(1, self.minority_max.max(1));
                let start = (*pick % n) as usize;
                let minority: Vec<ProcId> =
                    (0..size).map(|i| ((start + i) % self.nodes) as ProcId).collect();
                let mut rest: Vec<ProcId> =
                    (0..self.nodes as ProcId).filter(|p| !minority.contains(p)).collect();
                rest.push(self.ticker);
                rest.extend(&self.client_procs);
                cluster.run_until(at);
                cluster.world.net.borrow_mut().partition(&minority, &rest);
                self.applied += 1;
            }
            FaultKind::Heal => {
                cluster.run_until(at);
                cluster.world.net.borrow_mut().heal_all();
                self.applied += 1;
            }
            FaultKind::DiskFault { node, sync_after, append_after, sticky } => {
                let id = (*node % n) as NodeId;
                if !cluster.is_up(id) || (*sync_after == 0 && *append_after == 0) {
                    return;
                }
                cluster.inject_disk_fault(at, id, *sync_after, *append_after, *sticky);
                self.applied += 1;
            }
            FaultKind::ClockSkew { node, offset } => {
                cluster.set_clock_skew(at, (*node % n) as NodeId, *offset);
                self.applied += 1;
            }
            FaultKind::Split { pick } => {
                let ring = cluster.current_ring();
                let defs: Vec<_> = ring.defs().collect();
                let def = &defs[(*pick % defs.len() as u64) as usize];
                let lo = key_to_u64(&def.start);
                let hi = def.end.as_ref().map_or(u64::MAX, key_to_u64);
                if hi.saturating_sub(lo) < 2 {
                    return;
                }
                let mid = lo + (hi - lo) / 2;
                cluster.split_range(at, def.id, u64_to_key(mid));
                self.applied += 1;
            }
            FaultKind::Merge { pick } => {
                let ring = cluster.current_ring();
                let defs: Vec<_> = ring.defs().collect();
                let mergeable: Vec<_> = defs
                    .windows(2)
                    .filter(|w| {
                        let mut a = w[0].cohort.clone();
                        let mut b = w[1].cohort.clone();
                        a.sort_unstable();
                        b.sort_unstable();
                        a == b && w[0].moving.is_none() && w[1].moving.is_none()
                    })
                    .collect();
                if mergeable.is_empty() {
                    return;
                }
                let pair = &mergeable[(*pick % mergeable.len() as u64) as usize];
                cluster.merge_ranges(at, pair[0].id, pair[1].id);
                self.applied += 1;
            }
            FaultKind::Move { pick } => {
                let ring = cluster.current_ring();
                let defs: Vec<_> = ring.defs().collect();
                let def = &defs[(*pick % defs.len() as u64) as usize];
                if def.moving.is_some() {
                    return;
                }
                let from = def.cohort[(*pick / 7 % def.cohort.len() as u64) as usize];
                let outside: Vec<NodeId> =
                    (0..self.nodes as NodeId).filter(|id| !def.cohort.contains(id)).collect();
                if outside.is_empty() {
                    return;
                }
                let to = outside[(*pick / 11 % outside.len() as u64) as usize];
                cluster.move_replica(at, def.id, from, to);
                self.applied += 1;
            }
            FaultKind::GcSqueeze { node, retain } => {
                cluster.set_retention(at, (*node % n) as NodeId, *retain);
                self.applied += 1;
            }
        }
    }
}
