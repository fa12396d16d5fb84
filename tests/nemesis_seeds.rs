//! Pinned nemesis regression seeds.
//!
//! Each seed here either caught a real bug once or exercises a fault
//! mix worth keeping under permanent regression. A seed is a complete
//! reproduction (campaigns are pure functions of the seed), so pinning
//! the seed pins the exact interleaving that found the bug.
//!
//! When a nemesis sweep fails in CI, add the failing seed here after
//! fixing the bug.

use spinnaker_core::{ClaimKind, DissolveCoverage, DissolveEntry};
use spinnaker_nemesis::run_seed;

#[test]
fn pinned_seeds_stay_clean() {
    // 10: a partition dropped proposes to a follower, leaving a hole in
    //     its log; the next election elected it anyway (its last-LSN
    //     matched the complete replica's) and acknowledged writes
    //     vanished. Fixed by refusing to append over a gap — the
    //     election's max-lst rule is only sound over gap-free logs.
    // 29: a conditional put was rejected against a *pending* version and
    //     the failure reply escaped before that write committed — the
    //     client observed uncommitted state that strong reads could not
    //     yet see. Fixed by holding such rejections until the observed
    //     LSN commits.
    // 1, 7: high-fault-count mixes (splits/merges/moves under partitions
    //     and disk faults) kept as general coverage.
    // 119, 155: a propose lost to a partition reached neither follower,
    //     and nothing proposed after it revealed the hole (a split
    //     barrier in 119, conditional puts held on the lost write in
    //     155), so it was never re-sent and the range stalled. Fixed by
    //     naming the leader's newest proposed LSN in its commit
    //     messages: a follower short of it asks for catch-up.
    // 428: the same hole on a range whose first propose was lost to
    //     every follower: a leader with nothing committed sent no commit
    //     message, so nothing named what it had proposed. Fixed by
    //     staying quiet only while nothing is committed, proposed or
    //     closed.
    // 1510, 1887: a move's joiner took over without the departing
    //     leader's clock and stamped a write below a pin that leader had
    //     served (snapshot-cut; 1887 shrinks to two clock skews and a
    //     move). Fixed by `CohortChange` carrying the leader's clock. 340
    //     and 354 reach the same hole once a takeover's hello carries the
    //     catch-up verdict, and pass with the clock handed over.
    // 2850: on the same timings, both followers' acks of a write were
    //     lost while a split barrier held every later write back, so no
    //     cumulative ack ever covered it and the range stalled. Fixed by
    //     a follower acknowledging again what a commit message names as
    //     proposed a period earlier, past the leader's watermark.
    // The reconfiguration branches the 30-seed sweep does not reach with
    // a record in hand (`Node::dissolve`'s coverage, asserted below):
    // 49:  a follower whose drain to a merge barrier had a gap
    //      under-claimed the merged range (`on_merge_msg`, claim zero)
    //      until lost proposes were re-sent (119); the gap is closed
    //      before the merge now, and the seed stays as coverage.
    // 2904: the same under-claiming merge, the lost propose within the
    //      two commit periods before the barrier that a follower needs
    //      to notice it.
    // 151: the table-driven reconcile finds a tail record with no
    //      successor left to take it (the merged range was already
    //      rebuilt from the other sibling) and strands it — a known
    //      defect (CHANGES, PR 23 finding ii), so nothing below requires
    //      it; the seed is its reproduction and must stay clean.
    // 166: a split follower whose watermark was *ahead* of the barrier (a
    //      move's hand-off made a leader of a joiner one write short)
    //      re-homed the record past the barrier into the children, until
    //      lost proposes were re-sent: the joiner catches up now. No seed
    //      in 1..9000 reaches that re-home any more, so the pump test
    //      `a_split_follower_ahead_of_the_barrier_rehomes_what_it_committed_past_it`
    //      (crates/core/tests/recovery_pump.rs) asserts it instead of the
    //      check below; the seed stays as coverage.
    // 167: the table-driven reconcile re-homes a tail record into a
    //      child it claims at its own watermark.
    // 171, 172: since a takeover's follower vouches for the tail it holds
    //      and asks for catch-up once, every campaign runs on other
    //      timings, and 49, 167 and 2904 reach neither branch below any
    //      more (they stay as coverage): 171 has a follower under-claim a
    //      merged range, 172 has the table-driven reconcile re-home a tail
    //      record at its own watermark.
    // 113, 181: since a takeover's hello carries the catch-up verdict (a
    //      follower holding the committed history vouches on it, and a
    //      candidate waits for it instead of asking), 171 and 172 reach
    //      neither branch any more (they stay as coverage). A per-seed
    //      scan of 1..2000 found 113, whose table-driven reconcile
    //      re-homes a tail record at its own watermark, and 181, whose
    //      follower under-claims a merged range.
    let mut dissolves = DissolveCoverage::default();
    let seeds = [
        1u64, 7, 10, 29, 49, 113, 119, 151, 155, 166, 167, 171, 172, 181, 340, 354, 428, 1510,
        1887, 2850, 2904,
    ];
    for seed in seeds {
        let r = run_seed(seed);
        assert!(r.violations.is_empty(), "seed {seed} inconsistent: {:#?}", r.violations);
        assert!(!r.stalled, "seed {seed} stalled after heal: {:?}", r.health);
        assert_eq!(
            r.ops_issued,
            r.ops_completed,
            "seed {seed}: {} of {} ops never resolved",
            r.ops_issued - r.ops_completed,
            r.ops_issued
        );
        dissolves.add(&r.dissolves);
    }
    // A schedule change that stops reaching these fails here instead of
    // going unnoticed.
    assert!(
        dissolves.get(DissolveEntry::Table, ClaimKind::Own).rehomed > 0,
        "no re-homed tail on the table-driven entry: {dissolves}"
    );
    let under_claimed = dissolves.get(DissolveEntry::MergeMsg, ClaimKind::Zero);
    assert!(under_claimed.empty + under_claimed.rehomed > 0, "no under-claiming merge");
    // A move's joiner attaches an empty replica that claims nothing and
    // is brought level by catch-up alone.
    let joined = dissolves.get(DissolveEntry::Join, ClaimKind::Zero);
    assert!(joined.empty + joined.rehomed > 0, "no move's joiner attached: {dissolves}");
}
