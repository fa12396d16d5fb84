//! Allocation budget for the log device's group commit, as an exact
//! count: once its token lists have grown to the batches they carry, a
//! force request, the sync that covers it and the hand-back of the
//! sync's list allocate nothing.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use spinnaker_sim::{DiskOutcome, DiskProfile, LogDevice, Time};

#[path = "../../common/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// An idle device gets one force, then `queued` more while its sync is
/// in flight; every sync is completed in turn and, when `recycle`, its
/// list handed back. Returns the tokens the syncs covered.
fn round(d: &mut LogDevice, rng: &mut SmallRng, now: &mut Time, queued: u64, recycle: bool) -> u64 {
    let DiskOutcome::SyncScheduled { mut done_at } = d.request_force(*now, 0, 4096, rng) else {
        panic!("the device is idle between rounds");
    };
    for token in 1..=queued {
        assert_eq!(d.request_force(*now, token, 4096, rng), DiskOutcome::Queued);
    }
    let mut covered = 0;
    loop {
        *now = done_at;
        let (tokens, next) = d.complete_sync(*now, rng);
        covered += tokens.len() as u64;
        if recycle {
            d.recycle(tokens);
        }
        match next {
            Some(at) => done_at = at,
            None => return covered,
        }
    }
}

/// Rounds of one to twelve queued forces after a warm-up at twelve.
fn rounds(recycle: bool) -> u64 {
    let mut d = LogDevice::new(DiskProfile::Ssd);
    let mut rng = SmallRng::seed_from_u64(5);
    let mut now = 0;
    for _ in 0..4 {
        round(&mut d, &mut rng, &mut now, 12, recycle);
    }
    let (allocs, covered) = allocations(|| {
        (0..96).map(|i| round(&mut d, &mut rng, &mut now, 1 + i % 12, recycle)).sum::<u64>()
    });
    assert_eq!(covered, (0..96).map(|i| 2 + i % 12).sum::<u64>(), "every force covered once");
    assert_eq!(d.counters().0, 2 * 100, "two syncs a round");
    allocs
}

#[test]
fn a_warm_force_cycle_allocates_nothing() {
    assert_eq!(rounds(true), 0, "request, complete_sync and recycle, warm");
    // A list that is not handed back leaves the next sync's requests an
    // empty one to grow: a round allocates for each of its two syncs.
    assert!(rounds(false) >= 2 * 96, "without recycling");
}
