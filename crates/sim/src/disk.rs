//! Logging-device model with group commit.
//!
//! The device executes *syncs* serially. A force request that arrives
//! while a sync is in flight joins the next batch: one following sync
//! covers every request that queued up — group commit, exactly the
//! behaviour of the log manager described in §5/Appendix C. Under load the
//! batch size grows, which is why write throughput scales past
//! `1/force_latency` while latency climbs: the source of the knee in the
//! paper's write curves.
//!
//! Profiles reproduce the hardware of the evaluation: a SATA disk with the
//! write cache off and a primitive log manager whose file growth causes
//! extra metadata seeks (§9.2, Appendix C), a FusionIO SSD (§D.4), EC2
//! instance storage with the write cache stuck on (§D.2), and a main
//! memory "log" (§D.6.2).

use rand::rngs::SmallRng;
use rand::Rng;

use crate::kernel::{Time, MICROS, MILLIS};

/// Force-latency profile of a logging device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskProfile {
    /// Magnetic disk, write cache off, primitive log manager: every force
    /// pays seek + rotation, and file-growth metadata updates add more
    /// seeks (the paper blames these for the "rather poor" write latency).
    Hdd,
    /// Flash log device: no seek penalty, sub-millisecond forces.
    Ssd,
    /// EC2 instance disk with an un-disableable write cache: cheap
    /// acknowledgement, moderate variance (§D.2).
    Ec2Cached,
    /// Main-memory log: a force is a memcpy (§D.6.2).
    Memory,
}

impl DiskProfile {
    /// Sample the duration of one physical sync covering `bytes` of
    /// batched log data.
    pub fn force_latency(self, bytes: u64, rng: &mut SmallRng) -> Time {
        match self {
            DiskProfile::Hdd => {
                // 1.5-3.5 seeks (data + file-growth metadata) at ~8 ms,
                // plus up to one full rotation (~8 ms at 7200 rpm), plus
                // transfer at ~100 MB/s sequential. The wide spread is the
                // point: Appendix C blames the primitive log manager's
                // unpredictable extra seeks for the poor write latency.
                let seeks = rng.gen_range(1.5..3.5f64);
                let seek = (seeks * 8.0 * MILLIS as f64) as Time;
                let rotation = rng.gen_range(0..8 * MILLIS);
                let transfer = bytes * 10; // 10 ns per byte ≈ 100 MB/s
                seek + rotation + transfer
            }
            DiskProfile::Ssd => {
                // ~250 µs program latency with small variance.
                250 * MICROS + rng.gen_range(0..200 * MICROS) + bytes / 2
            }
            DiskProfile::Ec2Cached => {
                // Cache hit most of the time, occasional destage stall.
                let base = 400 * MICROS + rng.gen_range(0..400 * MICROS) + bytes / 2;
                if rng.gen_bool(0.02) {
                    base + rng.gen_range(0..20 * MILLIS)
                } else {
                    base
                }
            }
            DiskProfile::Memory => 5 * MICROS + bytes / 50,
        }
    }
}

/// Token identifying a force request; returned to the owner on completion.
pub type ForceToken = u64;

/// Outcome of feeding the device model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiskOutcome {
    /// A sync was started; the owner must schedule [`LogDevice::complete_sync`]
    /// to run at the given time.
    SyncScheduled {
        /// Virtual time at which the sync finishes.
        done_at: Time,
    },
    /// The request joined the pending batch; it will be covered by the
    /// sync issued when the in-flight one completes.
    Queued,
}

/// The per-node logging device with group commit.
///
/// Token lists are recycled: a sync's list goes to the owner with
/// [`LogDevice::complete_sync`] and comes back through
/// [`LogDevice::recycle`], to hold the requests of a later sync. Once
/// warm, a device whose owner hands every list back allocates nothing
/// per force.
pub struct LogDevice {
    profile: DiskProfile,
    in_flight: Option<(Time, Vec<ForceToken>)>,
    pending: Vec<ForceToken>,
    /// An emptied list, the next sync's pending one.
    spare: Vec<ForceToken>,
    pending_bytes: u64,
    total_syncs: u64,
    total_requests: u64,
}

impl LogDevice {
    /// A device with the given profile.
    pub fn new(profile: DiskProfile) -> LogDevice {
        LogDevice {
            profile,
            in_flight: None,
            pending: Vec::new(),
            spare: Vec::new(),
            pending_bytes: 0,
            total_syncs: 0,
            total_requests: 0,
        }
    }

    /// Request a force for `bytes` of appended data identified by `token`.
    pub fn request_force(
        &mut self,
        now: Time,
        token: ForceToken,
        bytes: u64,
        rng: &mut SmallRng,
    ) -> DiskOutcome {
        self.total_requests += 1;
        self.pending.push(token);
        self.pending_bytes += bytes;
        if self.in_flight.is_some() {
            DiskOutcome::Queued
        } else {
            self.start_sync(now, rng)
        }
    }

    fn start_sync(&mut self, now: Time, rng: &mut SmallRng) -> DiskOutcome {
        let batch = std::mem::replace(&mut self.pending, std::mem::take(&mut self.spare));
        let bytes = std::mem::take(&mut self.pending_bytes);
        let done_at = now + self.profile.force_latency(bytes, rng);
        self.in_flight = Some((done_at, batch));
        self.total_syncs += 1;
        DiskOutcome::SyncScheduled { done_at }
    }

    /// The in-flight sync finished: returns the tokens it covered, plus
    /// the next sync's completion time when more requests queued up. Hand
    /// the list back with [`LogDevice::recycle`] once it is read.
    pub fn complete_sync(
        &mut self,
        now: Time,
        rng: &mut SmallRng,
    ) -> (Vec<ForceToken>, Option<Time>) {
        let (done_at, batch) = self.in_flight.take().expect("no sync in flight");
        debug_assert!(now >= done_at);
        let next = if self.pending.is_empty() {
            None
        } else {
            match self.start_sync(now, rng) {
                DiskOutcome::SyncScheduled { done_at } => Some(done_at),
                DiskOutcome::Queued => unreachable!("device was idle"),
            }
        };
        (batch, next)
    }

    /// Take back a token list [`LogDevice::complete_sync`] returned, to
    /// hold a later sync's requests; its tokens are dropped. A sync that
    /// `complete_sync` started took the spare for its pending list, so an
    /// empty pending list smaller than this one is swapped for it first;
    /// of two spare lists the larger is kept.
    pub fn recycle(&mut self, mut tokens: Vec<ForceToken>) {
        tokens.clear();
        if self.pending.is_empty() && self.pending.capacity() < tokens.capacity() {
            std::mem::swap(&mut self.pending, &mut tokens);
        }
        if self.spare.capacity() < tokens.capacity() {
            self.spare = tokens;
        }
    }

    /// Group-commit effectiveness: (physical syncs, force requests).
    pub fn counters(&self) -> (u64, u64) {
        (self.total_syncs, self.total_requests)
    }

    /// The device profile.
    pub fn profile(&self) -> DiskProfile {
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;

    use super::*;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(17)
    }

    #[test]
    fn profiles_are_ordered_as_expected() {
        let mut r = rng();
        let avg = |p: DiskProfile, r: &mut SmallRng| -> f64 {
            (0..200).map(|_| p.force_latency(4096, r) as f64).sum::<f64>() / 200.0
        };
        let hdd = avg(DiskProfile::Hdd, &mut r);
        let ssd = avg(DiskProfile::Ssd, &mut r);
        let ec2 = avg(DiskProfile::Ec2Cached, &mut r);
        let mem = avg(DiskProfile::Memory, &mut r);
        assert!(hdd > 10.0 * ssd, "hdd {hdd} vs ssd {ssd}");
        assert!(ssd < 2.0 * MILLIS as f64);
        assert!(mem < ssd, "memory log fastest");
        assert!(ec2 < hdd, "cached ec2 faster than raw hdd");
        assert!(
            hdd > 15.0 * MILLIS as f64 && hdd < 50.0 * MILLIS as f64,
            "hdd in paper range: {hdd}"
        );
    }

    #[test]
    fn idle_device_starts_sync_immediately() {
        let mut d = LogDevice::new(DiskProfile::Ssd);
        let mut r = rng();
        match d.request_force(1000, 1, 4096, &mut r) {
            DiskOutcome::SyncScheduled { done_at } => assert!(done_at > 1000),
            DiskOutcome::Queued => panic!("device was idle"),
        }
    }

    #[test]
    fn group_commit_batches_queued_requests() {
        let mut d = LogDevice::new(DiskProfile::Hdd);
        let mut r = rng();
        let DiskOutcome::SyncScheduled { done_at } = d.request_force(0, 1, 4096, &mut r) else {
            panic!()
        };
        // Five more arrive while the first sync is spinning.
        for t in 2..=6 {
            assert_eq!(d.request_force(100 * t, t, 4096, &mut r), DiskOutcome::Queued);
        }
        let (batch1, next) = d.complete_sync(done_at, &mut r);
        assert_eq!(batch1, vec![1]);
        let next_at = next.expect("queued requests trigger a follow-up sync");
        let (batch2, next2) = d.complete_sync(next_at, &mut r);
        assert_eq!(batch2, vec![2, 3, 4, 5, 6], "one sync covers the whole batch");
        assert!(next2.is_none());
        assert_eq!(d.counters(), (2, 6), "2 physical syncs for 6 requests");
    }

    #[test]
    fn recycled_lists_batch_as_fresh_ones_do() {
        let mut d = LogDevice::new(DiskProfile::Hdd);
        let mut r = rng();
        let mut batches = Vec::new();
        for round in 0..4u64 {
            let DiskOutcome::SyncScheduled { mut done_at } =
                d.request_force(0, 10 * round, 4096, &mut r)
            else {
                panic!("device was idle")
            };
            for t in 1..=round {
                assert_eq!(d.request_force(0, 10 * round + t, 4096, &mut r), DiskOutcome::Queued);
            }
            loop {
                let (batch, next) = d.complete_sync(done_at, &mut r);
                batches.push(batch.clone());
                d.recycle(batch);
                match next {
                    Some(t) => done_at = t,
                    None => break,
                }
            }
        }
        let want: Vec<Vec<u64>> = vec![vec![0], vec![10], vec![11], vec![20], vec![21, 22]];
        assert_eq!(batches[..5], want[..]);
        assert_eq!(batches[5..], [vec![30], vec![31, 32, 33]]);
        assert_eq!(d.counters(), (7, 10));
    }

    #[test]
    fn throughput_exceeds_one_over_latency_under_load() {
        // Feed requests far faster than the device syncs; group commit must
        // keep the completion rate equal to the arrival rate.
        let mut d = LogDevice::new(DiskProfile::Hdd);
        let mut r = rng();
        let mut completed = 0u64;
        let mut next_done: Option<Time> = None;
        for i in 0..1000u64 {
            let t = i * MILLIS; // 1000 req/s arrival
            if let Some(done) = next_done {
                if done <= t {
                    let (batch, n) = d.complete_sync(done, &mut r);
                    completed += batch.len() as u64;
                    next_done = n;
                }
            }
            match d.request_force(t, i, 4096, &mut r) {
                DiskOutcome::SyncScheduled { done_at } => next_done = Some(done_at),
                DiskOutcome::Queued => {}
            }
        }
        // Drain.
        while let Some(done) = next_done {
            let (batch, n) = d.complete_sync(done, &mut r);
            completed += batch.len() as u64;
            next_done = n;
        }
        assert_eq!(completed, 1000);
        let (syncs, reqs) = d.counters();
        assert!(syncs < reqs / 5, "strong batching expected: {syncs} syncs / {reqs} reqs");
    }
}
