//! End-to-end behaviour of the eventually consistent baseline, including
//! the consistency caveats §9 spells out.

use spinnaker_core::partition::u64_to_key;
use spinnaker_eventual::cluster::{EClusterConfig, EWorkload, EventualCluster};
use spinnaker_eventual::node::{ENodeInput, ReadLevel, WriteLevel};
use spinnaker_eventual::EventualNode;
use spinnaker_sim::{DiskProfile, SECS};

fn quick(seed: u64) -> EventualCluster {
    EventualCluster::new(EClusterConfig {
        nodes: 5,
        seed,
        disk: DiskProfile::Ssd,
        ..Default::default()
    })
}

#[test]
fn quorum_writes_then_quorum_reads_flow() {
    let mut c = quick(1);
    let w = c.add_client(
        EWorkload::Writes { keys: 200, value_size: 128, level: WriteLevel::Quorum },
        0,
        0,
        5 * SECS,
    );
    c.run_until(5 * SECS);
    assert!(w.borrow().completed > 100, "writes flow: {}", w.borrow().completed);
    let r = c.add_client(
        EWorkload::Reads { keys: 200, level: ReadLevel::Quorum },
        5 * SECS,
        5 * SECS,
        8 * SECS,
    );
    c.run_until(8 * SECS);
    assert!(r.borrow().completed > 200, "reads flow: {}", r.borrow().completed);
}

#[test]
fn weak_writes_are_faster_than_quorum_writes() {
    // Fig. 15's shape at a single load point.
    let measure = |level| {
        let mut c = EventualCluster::new(EClusterConfig {
            nodes: 5,
            seed: 7,
            disk: DiskProfile::Hdd,
            ..Default::default()
        });
        let s = c.add_client(
            EWorkload::Writes { keys: 500, value_size: 4096, level },
            0,
            2 * SECS,
            20 * SECS,
        );
        c.run_until(20 * SECS);
        let stats = s.borrow();
        stats.latency.mean_ms()
    };
    let weak = measure(WriteLevel::Weak);
    let quorum = measure(WriteLevel::Quorum);
    // At a single-client load point the gap is modest (the paper's 40-50%
    // figure is measured under load where queueing amplifies it — the
    // fig15 benchmark sweeps that); here we assert the ordering holds.
    assert!(
        quorum > weak * 1.05,
        "quorum ({quorum:.1} ms) must be slower than weak ({weak:.1} ms)"
    );
}

#[test]
fn weak_write_propagates_to_all_replicas_eventually() {
    let mut c = quick(3);
    let key = u64_to_key(12345);
    let range = c.ring.range_of(&key);
    let cohort = c.ring.cohort(range);
    c.inject(
        SECS,
        cohort[0],
        ENodeInput::Write {
            from: 200,
            req: 1,
            key: key.clone(),
            value: bytes::Bytes::from_static(b"new"),
            level: WriteLevel::Weak,
        },
    );
    // Shortly after the write is issued only a subset holds it...
    c.run_until(SECS + 350 * spinnaker_sim::MICROS);
    let have = |c: &EventualCluster, n: u32| {
        c.with_node(n, |node: &EventualNode| {
            node.store(range).and_then(|s| s.get_column(&key, b"c").ok().flatten()).is_some()
        })
    };
    // ...eventually all replicas converge.
    c.run_until(2 * SECS);
    for &n in &cohort {
        assert!(have(&c, n), "replica {n} converged");
    }
}

#[test]
fn concurrent_writes_resolve_by_last_writer_wins() {
    // §9: "conflicts can still occur if there are concurrent writes to
    // different replicas" — two coordinators accept writes for the same
    // key; timestamps decide, one acknowledged update is silently lost.
    let mut c = quick(4);
    let key = u64_to_key(777);
    let range = c.ring.range_of(&key);
    let cohort = c.ring.cohort(range);
    c.inject(
        SECS,
        cohort[0],
        ENodeInput::Write {
            from: 200,
            req: 1,
            key: key.clone(),
            value: bytes::Bytes::from_static(b"from-A"),
            level: WriteLevel::Quorum,
        },
    );
    c.inject(
        SECS, // same instant, different coordinator
        cohort[1],
        ENodeInput::Write {
            from: 200,
            req: 2,
            key: key.clone(),
            value: bytes::Bytes::from_static(b"from-B"),
            level: WriteLevel::Quorum,
        },
    );
    c.run_until(3 * SECS);
    // All replicas agree on ONE winner (LWW converges)...
    let values: Vec<Vec<u8>> = cohort
        .iter()
        .map(|&n| {
            c.with_node(n, |node: &EventualNode| {
                node.store(range)
                    .and_then(|s| s.get_column(&key, b"c").ok().flatten())
                    .map(|cv| cv.value.to_vec())
                    .unwrap_or_default()
            })
        })
        .collect();
    assert!(values.windows(2).all(|w| w[0] == w[1]), "replicas converge: {values:?}");
    // ...which means the other acknowledged write was lost.
    assert!(values[0] == b"from-A" || values[0] == b"from-B");
}

#[test]
fn read_repair_heals_a_stale_replica() {
    let mut c = quick(6);
    let key = u64_to_key(31337);
    let range = c.ring.range_of(&key);
    let cohort = c.ring.cohort(range);
    // Divergence: newer value exists only on cohort[0].
    use spinnaker_common::op;
    let mut w = op::put("x", "c", "fresh");
    w.key = key.clone();
    w.timestamp = 5_000_000_000;
    c.inject(
        SECS,
        cohort[0],
        ENodeInput::Peer {
            from: cohort[1],
            msg: spinnaker_eventual::node::EPeerMsg::ReplicaWrite { id: 0, op: w },
        },
    );
    // Quorum read coordinated by cohort[0] touches itself + cohort[1]:
    // detects the conflict and repairs cohort[1].
    c.inject(
        2 * SECS,
        cohort[0],
        ENodeInput::Read { from: 200, req: 9, key: key.clone(), level: ReadLevel::Quorum },
    );
    c.run_until(4 * SECS);
    let fresh_at = |c: &EventualCluster, n: u32| {
        c.with_node(n, |node: &EventualNode| {
            node.store(range)
                .and_then(|s| s.get_column(&key, b"c").ok().flatten())
                .map(|cv| cv.value.as_ref() == b"fresh")
                .unwrap_or(false)
        })
    };
    assert!(fresh_at(&c, cohort[0]));
    assert!(fresh_at(&c, cohort[1]), "read repair healed the stale replica");
}
