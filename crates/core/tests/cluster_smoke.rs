//! End-to-end tests of the simulated Spinnaker cluster: elections,
//! replication, strong/timeline reads, conditional puts, failover, and
//! recovery — the behaviours §5–§8 of the paper promise.

use std::cell::RefCell;
use std::rc::Rc;

use spinnaker_common::{Consistency, RangeId};
use spinnaker_core::client::{ClientStats, Workload};
use spinnaker_core::cluster::{ClusterConfig, SimCluster};
use spinnaker_core::node::Role;
use spinnaker_sim::{DiskProfile, MILLIS, SECS};

fn quick_cluster(nodes: usize, seed: u64) -> SimCluster {
    let mut cfg = ClusterConfig { nodes, seed, disk: DiskProfile::Ssd, ..Default::default() };
    cfg.node.commit_period = 200 * MILLIS;
    SimCluster::new(cfg)
}

#[test]
fn cluster_elects_a_leader_for_every_range() {
    let mut cluster = quick_cluster(5, 1);
    cluster.run_until(3 * SECS);
    assert!(cluster.all_ranges_led(), "every range must have an open leader");
    // Exactly one leader per range.
    for range in cluster.ring.ranges() {
        let leaders: Vec<_> = cluster
            .ring
            .cohort(range)
            .into_iter()
            .filter(|&n| {
                cluster.with_node(n, |node| node.role(range) == Role::Leader).unwrap_or(false)
            })
            .collect();
        assert_eq!(leaders.len(), 1, "range {range} has leaders {leaders:?}");
    }
}

#[test]
fn writes_commit_and_reads_see_them() {
    let mut cluster = quick_cluster(5, 2);
    let stats = cluster.add_client(
        Workload::Writes { keys: 500, value_size: 128 },
        2 * SECS,
        2 * SECS,
        10 * SECS,
    );
    cluster.run_until(10 * SECS);
    let s = stats.borrow();
    assert!(s.completed > 100, "writes must flow: {} completed", s.completed);
    drop(s);

    // Strong reads afterwards observe the written values.
    let read_stats = cluster.add_client(
        Workload::Reads { keys: 500, consistency: Consistency::Strong },
        10 * SECS,
        10 * SECS,
        14 * SECS,
    );
    cluster.run_until(14 * SECS);
    let r = read_stats.borrow();
    assert!(r.completed > 100, "strong reads must flow: {}", r.completed);
}

#[test]
fn replicas_converge_to_identical_committed_state() {
    let mut cluster = quick_cluster(5, 3);
    cluster.add_client(Workload::Writes { keys: 300, value_size: 64 }, SECS, SECS, 8 * SECS);
    cluster.run_until(8 * SECS);
    // Let commit messages propagate (commit period 200 ms).
    cluster.run_until(10 * SECS);

    for range in cluster.ring.ranges() {
        let members = cluster.ring.cohort(range);
        let committed: Vec<_> = members
            .iter()
            .map(|&n| cluster.with_node(n, |node| node.last_committed(range)).unwrap())
            .collect();
        let max = *committed.iter().max().unwrap();
        for (i, &c) in committed.iter().enumerate() {
            assert!(
                max.as_u64() - c.as_u64() < 1 << 20,
                "member {} of {range} lags: {c} vs {max}",
                members[i]
            );
        }
    }
}

#[test]
fn timeline_reads_work_on_any_replica() {
    let mut cluster = quick_cluster(5, 4);
    cluster.add_client(Workload::Writes { keys: 100, value_size: 64 }, SECS, SECS, 6 * SECS);
    let tl = cluster.add_client(
        Workload::Reads { keys: 100, consistency: Consistency::Timeline },
        3 * SECS,
        3 * SECS,
        6 * SECS,
    );
    cluster.run_until(6 * SECS);
    assert!(tl.borrow().completed > 100, "timeline reads flow");
}

#[test]
fn conditional_puts_return_increasing_versions() {
    let mut cluster = quick_cluster(5, 5);
    let stats = cluster.add_client(
        Workload::ConditionalPuts { keys: 20, value_size: 64 },
        2 * SECS,
        2 * SECS,
        10 * SECS,
    );
    cluster.run_until(10 * SECS);
    let s = stats.borrow();
    assert!(s.completed > 50, "conditional puts flow: {}", s.completed);
    // Conflicts are impossible with a single writer per key: no retries
    // besides initial leader discovery.
    assert!(s.retries < 20, "unexpected retry storm: {}", s.retries);
}

#[test]
fn leader_failure_triggers_failover_and_writes_resume() {
    let mut cluster = quick_cluster(5, 6);
    let stats =
        cluster.add_client(Workload::SingleRangeWrites { value_size: 64 }, SECS, SECS, 30 * SECS);
    stats.borrow_mut().trace = Some(Vec::new());
    cluster.run_until(4 * SECS);
    let old_leader = cluster.leader_of(RangeId(0)).expect("range 0 led");

    // Kill the leader; session expiry is immediate (watches fire now).
    cluster.crash_node(4 * SECS, old_leader, true);
    cluster.run_until(12 * SECS);

    let new_leader = cluster.leader_of(RangeId(0)).expect("a new leader exists");
    assert_ne!(new_leader, old_leader, "leadership moved");

    // Writes kept flowing after the outage window.
    let trace = stats.borrow();
    let trace = trace.trace.as_ref().unwrap();
    let after = trace.iter().filter(|(t, _)| *t > 5 * SECS).count();
    assert!(after > 20, "writes resumed after failover: {after}");
}

#[test]
fn crashed_follower_recovers_and_catches_up() {
    let mut cluster = quick_cluster(5, 7);
    cluster.add_client(Workload::SingleRangeWrites { value_size: 64 }, SECS, SECS, 30 * SECS);
    cluster.run_until(3 * SECS);
    let leader = cluster.leader_of(RangeId(0)).unwrap();
    let follower = cluster.ring.cohort(RangeId(0)).into_iter().find(|&n| n != leader).unwrap();

    cluster.crash_node(3 * SECS, follower, false);
    // Writes continue on the remaining majority.
    cluster.run_until(8 * SECS);
    let committed_during_outage =
        cluster.with_node(leader, |n| n.last_committed(RangeId(0))).unwrap();
    assert!(!committed_during_outage.is_zero(), "majority kept committing");

    cluster.restart_node(8 * SECS, follower);
    cluster.run_until(15 * SECS);
    let follower_role = cluster.with_node(follower, |n| n.role(RangeId(0))).unwrap();
    assert_eq!(follower_role, Role::Follower, "rejoined as follower");
    let follower_cmt = cluster.with_node(follower, |n| n.last_committed(RangeId(0))).unwrap();
    assert!(
        follower_cmt >= committed_during_outage,
        "caught up past the outage: {follower_cmt} vs {committed_during_outage}"
    );
}

#[test]
fn majority_loss_blocks_writes_until_recovery() {
    let mut cluster = quick_cluster(5, 8);
    let stats: Rc<RefCell<ClientStats>> =
        cluster.add_client(Workload::SingleRangeWrites { value_size: 64 }, SECS, SECS, 40 * SECS);
    stats.borrow_mut().trace = Some(Vec::new());
    cluster.run_until(3 * SECS);
    let cohort = cluster.ring.cohort(RangeId(0));
    // Kill two of three replicas: no majority, no writes (CAP's C+A within
    // the partition-free case — availability requires a majority, §8.1).
    cluster.crash_node(3 * SECS, cohort[0], true);
    cluster.crash_node(3 * SECS + MILLIS, cohort[1], true);
    cluster.run_until(10 * SECS);
    {
        let s = stats.borrow();
        let trace = s.trace.as_ref().unwrap();
        let during = trace.iter().filter(|(t, _)| *t > 4 * SECS && *t < 10 * SECS).count();
        assert_eq!(during, 0, "no commits without a majority: {during}");
    }
    // One replica returns: majority restored, writes resume.
    cluster.restart_node(10 * SECS, cohort[0]);
    cluster.run_until(25 * SECS);
    let s = stats.borrow();
    let trace = s.trace.as_ref().unwrap();
    let after = trace.iter().filter(|(t, _)| *t > 11 * SECS).count();
    assert!(after > 5, "writes resumed once majority restored: {after}");
}

#[test]
fn deterministic_given_same_seed() {
    let run = |seed: u64| {
        let mut cluster = quick_cluster(5, seed);
        let stats = cluster.add_client(
            Workload::Mixed {
                keys: 200,
                value_size: 64,
                write_pct: 30,
                consistency: Consistency::Strong,
            },
            SECS,
            SECS,
            6 * SECS,
        );
        cluster.run_until(6 * SECS);
        let s = stats.borrow();
        (s.completed, s.latency.mean() as u64, cluster.sim.events_processed())
    };
    assert_eq!(run(99), run(99), "same seed, same universe");
    assert_ne!(run(99).2, run(100).2, "different seeds diverge");
}

#[test]
fn piggybacked_commits_shrink_follower_lag() {
    // Ablation of the §D.1 optimization: with the committed watermark
    // piggy-backed on proposes, followers track the leader closely even
    // with a long commit period — which is exactly why Table 1's recovery
    // backlog collapses when it is enabled.
    let lag_with = |piggyback: bool| -> u64 {
        let mut cfg =
            ClusterConfig { nodes: 5, seed: 77, disk: DiskProfile::Ssd, ..Default::default() };
        cfg.node.commit_period = 5 * SECS; // long period: lag source
        cfg.node.piggyback_commits = piggyback;
        let mut cluster = SimCluster::new(cfg);
        cluster.add_client(Workload::SingleRangeWrites { value_size: 256 }, SECS, 0, 9 * SECS);
        cluster.run_until(9 * SECS);
        let leader = cluster.leader_of(RangeId(0)).unwrap();
        let follower = cluster.ring.cohort(RangeId(0)).into_iter().find(|&n| n != leader).unwrap();
        let l = cluster.with_node(leader, |n| n.last_committed(RangeId(0))).unwrap();
        let f = cluster.with_node(follower, |n| n.last_committed(RangeId(0))).unwrap();
        l.seq() - f.seq()
    };
    let without = lag_with(false);
    let with = lag_with(true);
    assert!(with <= 2, "piggyback keeps followers current: lag {with}");
    assert!(without > 10 * with.max(1), "without piggyback the lag is large: {without}");
}

/// The catch-up request storm. A follower restarted under eight
/// closed-loop writers starts up to two seconds of history behind, and while
/// its one catch-up reply (some 8 MB) is on the wire the leader keeps
/// proposing past its log tip. It must ask once (a second request is allowed: a propose
/// can reach the booting node before it has joined the cohort), park
/// what it cannot log yet, be a follower within 100 ms — and *stay* one,
/// with its acks counting: its committed watermark trails the leader's
/// by no more than a commit period. Before requests were rationed and
/// proposes parked, every gapped propose sent another request, each
/// answered with the whole history again, and the follower fell back
/// into catch-up for as long as the writers kept going.
#[test]
fn restarted_follower_asks_once_and_stays_caught_up_under_load() {
    const R0: RangeId = RangeId(0);
    let mut cfg =
        ClusterConfig { nodes: 5, seed: 23, disk: DiskProfile::Ssd, ..Default::default() };
    cfg.node.commit_period = SECS;
    let mut cluster = SimCluster::new(cfg);
    for i in 0..8 {
        cluster.add_client(
            Workload::SingleRangeWrites { value_size: 1024 },
            SECS + i * 1000,
            SECS,
            20 * SECS,
        );
    }
    cluster.run_until(2 * SECS);
    let leader = cluster.leader_of(R0).expect("range 0 led");
    let follower = cluster.ring.cohort(R0).into_iter().find(|&n| n != leader).unwrap();
    cluster.crash_node(2 * SECS, follower, true);
    let restart = 3 * SECS;
    cluster.restart_node(restart, follower);
    cluster.run_until(restart);

    let role = |c: &SimCluster| c.role_of(R0, follower);
    let cmt = |c: &SimCluster, n| c.with_node(n, |node| node.last_committed(R0)).unwrap();
    let mut now = restart;
    while role(&cluster) != Some(Role::Follower) {
        now += MILLIS;
        assert!(now <= restart + 100 * MILLIS, "still {:?} 100 ms after restart", role(&cluster));
        cluster.run_until(now);
    }
    // From here on it follows: never back into catch-up, and never more
    // than a commit period behind what the leader had committed.
    let mut leader_cmt_a_period_ago = std::collections::VecDeque::new();
    while now < restart + 2500 * MILLIS {
        leader_cmt_a_period_ago.push_back(cmt(&cluster, leader));
        now += 10 * MILLIS;
        cluster.run_until(now);
        assert_eq!(role(&cluster), Some(Role::Follower), "fell out of following at {now}");
        // 110 samples of 10 ms: one commit period plus its delivery.
        if leader_cmt_a_period_ago.len() > 110 {
            let then = leader_cmt_a_period_ago.pop_front().unwrap();
            assert!(cmt(&cluster, follower) >= then, "trails by more than a commit period");
        }
    }
    assert_eq!(cluster.leader_of(R0), Some(leader), "the leader never changed");
    let asked = cluster.with_node(follower, |n| n.catchup_requests(R0)).unwrap();
    assert!(asked <= 2, "{asked} catch-up requests after one restart");
}
