//! Network model: reliable, in-order, point-to-point links.
//!
//! Spinnaker "uses reliable in-order messages based on TCP sockets to
//! simplify its replication protocol" (Appendix A.1). The model delivers
//! every message on an un-partitioned link exactly once, in send order per
//! directed pair, after `base + jitter + size/bandwidth` — the shape of a
//! rack-level 1-GbE switch (Appendix C). Partitions model broken
//! connections: messages are silently dropped, exactly what a failed node
//! looks like to its peers until the coordination service times it out.

use std::collections::{HashMap, HashSet};

use rand::rngs::SmallRng;
use rand::Rng;

use crate::kernel::{Ctx, ProcId, Time};

/// Link parameters.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Fixed one-way latency floor (propagation + kernel + switch).
    pub base_latency: Time,
    /// Uniform extra latency in `[0, jitter)`.
    pub jitter: Time,
    /// Serialization bandwidth in bytes/second (1 GbE ≈ 125 MB/s).
    pub bytes_per_sec: u64,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            base_latency: 120 * crate::kernel::MICROS,
            jitter: 60 * crate::kernel::MICROS,
            bytes_per_sec: 125_000_000,
        }
    }
}

/// The shared network state.
pub struct NetModel {
    config: NetConfig,
    /// Last scheduled delivery per directed pair, for FIFO ordering.
    last_delivery: HashMap<(ProcId, ProcId), Time>,
    /// Endpoints currently unreachable (crashed or partitioned off).
    down: HashSet<ProcId>,
    /// Directed pairs explicitly cut (asymmetric partitions possible).
    cut: HashSet<(ProcId, ProcId)>,
    sent: u64,
    dropped: u64,
}

impl NetModel {
    /// A network with the given link parameters.
    pub fn new(config: NetConfig) -> NetModel {
        NetModel {
            config,
            last_delivery: HashMap::new(),
            down: HashSet::new(),
            cut: HashSet::new(),
            sent: 0,
            dropped: 0,
        }
    }

    /// Compute the delivery time for a `bytes`-sized message from `src` to
    /// `dst` sent at `now`; `None` when the link is down (message lost).
    pub fn delivery_time(
        &mut self,
        now: Time,
        src: ProcId,
        dst: ProcId,
        bytes: usize,
        rng: &mut SmallRng,
    ) -> Option<Time> {
        if self.down.contains(&src) || self.down.contains(&dst) || self.cut.contains(&(src, dst)) {
            self.dropped += 1;
            return None;
        }
        self.sent += 1;
        if src == dst {
            // Loopback: negligible, but still ordered.
            let at = (now + 1).max(self.last_delivery.get(&(src, dst)).copied().unwrap_or(0) + 1);
            self.last_delivery.insert((src, dst), at);
            return Some(at);
        }
        let jitter = if self.config.jitter > 0 { rng.gen_range(0..self.config.jitter) } else { 0 };
        let wire = bytes as u64 * crate::kernel::SECS / self.config.bytes_per_sec.max(1);
        let raw = now + self.config.base_latency + jitter + wire;
        // TCP in-order: never deliver before an earlier message on the
        // same directed link.
        let at = raw.max(self.last_delivery.get(&(src, dst)).copied().unwrap_or(0) + 1);
        self.last_delivery.insert((src, dst), at);
        Some(at)
    }

    /// Send `ev`, a `bytes`-sized message, from `src` to `dst` at `now`:
    /// schedule it at its [`NetModel::delivery_time`], or drop it when
    /// the link is down. The one way every simulated actor reaches the
    /// network.
    pub fn send<M>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        now: Time,
        src: ProcId,
        dst: ProcId,
        bytes: usize,
        ev: M,
    ) {
        if let Some(at) = self.delivery_time(now, src, dst, bytes, ctx.rng()) {
            ctx.schedule_at(at, dst, ev);
        }
    }

    /// Take `node` off the network (crash). In-flight messages already
    /// scheduled still arrive; the owner decides whether to ignore them.
    pub fn take_down(&mut self, node: ProcId) {
        self.down.insert(node);
    }

    /// Bring `node` back.
    pub fn bring_up(&mut self, node: ProcId) {
        self.down.remove(&node);
    }

    /// Cut the directed link `src → dst`.
    pub fn cut_link(&mut self, src: ProcId, dst: ProcId) {
        self.cut.insert((src, dst));
    }

    /// Partition the cluster into two sides (no traffic across).
    pub fn partition(&mut self, side_a: &[ProcId], side_b: &[ProcId]) {
        for &a in side_a {
            for &b in side_b {
                self.cut_link(a, b);
                self.cut_link(b, a);
            }
        }
    }

    /// Heal every cut link and downed endpoint.
    pub fn heal_all(&mut self) {
        self.cut.clear();
        self.down.clear();
    }

    /// (messages delivered, messages dropped) so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.sent, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;

    use crate::kernel::{MICROS, MILLIS};

    use super::*;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(99)
    }

    fn net() -> NetModel {
        NetModel::new(NetConfig {
            base_latency: 100 * MICROS,
            jitter: 0,
            bytes_per_sec: 125_000_000,
        })
    }

    #[test]
    fn latency_includes_serialization() {
        let mut n = net();
        let mut r = rng();
        let t_small = n.delivery_time(0, 1, 2, 64, &mut r).unwrap();
        let t_big = n.delivery_time(0, 1, 3, 4096, &mut r).unwrap();
        assert!(t_big > t_small, "4 KB must take longer than 64 B");
        // 4096 bytes over 125 MB/s ≈ 32.8 µs on top of 100 µs base.
        assert_eq!(t_big, 100 * MICROS + 4096 * 1_000_000_000 / 125_000_000);
    }

    #[test]
    fn fifo_per_directed_link() {
        let mut n = NetModel::new(NetConfig {
            base_latency: 100 * MICROS,
            jitter: 90 * MICROS,
            bytes_per_sec: 125_000_000,
        });
        let mut r = rng();
        let mut last = 0;
        for i in 0..200 {
            let t = n.delivery_time(i, 1, 2, 512, &mut r).unwrap();
            assert!(t > last, "delivery {i} reordered: {t} <= {last}");
            last = t;
        }
    }

    #[test]
    fn down_node_drops_messages() {
        let mut n = net();
        let mut r = rng();
        n.take_down(2);
        assert!(n.delivery_time(0, 1, 2, 64, &mut r).is_none());
        assert!(n.delivery_time(0, 2, 1, 64, &mut r).is_none());
        n.bring_up(2);
        assert!(n.delivery_time(0, 1, 2, 64, &mut r).is_some());
        assert_eq!(n.counters().1, 2);
    }

    #[test]
    fn partition_is_bidirectional_and_heals() {
        let mut n = net();
        let mut r = rng();
        n.partition(&[1, 2], &[3]);
        assert!(n.delivery_time(0, 1, 3, 64, &mut r).is_none());
        assert!(n.delivery_time(0, 3, 2, 64, &mut r).is_none());
        assert!(n.delivery_time(0, 1, 2, 64, &mut r).is_some(), "same side still talks");
        n.heal_all();
        assert!(n.delivery_time(0, 1, 3, 64, &mut r).is_some());
    }

    #[test]
    fn loopback_is_fast_but_ordered() {
        let mut n = net();
        let mut r = rng();
        let t1 = n.delivery_time(1000 * MILLIS, 5, 5, 64, &mut r).unwrap();
        let t2 = n.delivery_time(1000 * MILLIS, 5, 5, 64, &mut r).unwrap();
        assert!(t1 < t2);
        assert!(t2 - 1000 * MILLIS < MILLIS, "loopback under a millisecond");
    }
}
