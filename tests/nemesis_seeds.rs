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
    // 62, 142, 481: a node that missed a merge rebuilt the merged range
    //      from the range table alone at claim zero, one sibling at a
    //      time, and stranded acknowledged tail records (62 one, 142
    //      two; 481 re-homed one and stranded another). Fixed by the
    //      table carrying each retired range's barrier and clock: every
    //      replica that missed the nudge commits through the barrier and
    //      builds each successor from all its local predecessors at once,
    //      so nothing past a watermark is left to re-home.
    // The follower-side dissolve's branches the 30-seed sweep does not
    // reach (`Node::dissolve`'s coverage, asserted below):
    // 49, 171, 181, 2904: a follower whose drain to a merge barrier had a
    //      gap under-claimed the merged range (claim zero); since the
    //      table carries the barriers, 181 alone of them still does.
    // 151: the table-driven rebuild of a merge once found a tail record
    //      with no successor left to take it (the merged range was already
    //      rebuilt from the other sibling) and stranded it (CHANGES, PR 23
    //      finding ii). The merged range is built from both siblings at
    //      once now; the seed stays as coverage.
    // 166: a split follower whose watermark was *ahead* of the barrier (a
    //      move's hand-off made a leader of a joiner one write short)
    //      re-homed the record past the barrier into the children, until
    //      lost proposes were re-sent. A departing leader now hands off
    //      only to a joiner that holds its drained barrier: the pump test
    //      `a_move_hands_off_only_to_a_joiner_that_holds_the_drained_barrier`
    //      (crates/core/tests/recovery_pump.rs) asserts it; the seed
    //      stays as coverage.
    // 113, 167, 172: the table-driven rebuild of a split at the
    //      follower's own watermark; 113 still claims its own gap-free tip
    //      below a split's barrier (claim `Own`).
    // 481 reaches both follower branches below.
    let mut dissolves = DissolveCoverage::default();
    let seeds = [
        1u64, 7, 10, 29, 49, 62, 113, 119, 142, 151, 155, 166, 167, 171, 172, 181, 340, 354, 428,
        481, 1510, 1887, 2850, 2904,
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
        assert!(
            r.dissolves.stranded() == 0 && r.dissolves.unreadable() == 0,
            "seed {seed} dropped or could not read a committed record: {}",
            r.dissolves
        );
        dissolves.add(&r.dissolves);
    }
    // A schedule change that stops reaching these fails here instead of
    // going unnoticed.
    let own = dissolves.get(DissolveEntry::Follower, ClaimKind::Own);
    assert!(own > 0, "no split child claimed below its barrier: {dissolves}");
    let under_claimed = dissolves.get(DissolveEntry::Follower, ClaimKind::Zero);
    assert!(under_claimed > 0, "no under-claiming merge: {dissolves}");
    // A move's joiner attaches an empty replica that claims nothing and
    // is brought level by catch-up alone.
    let joined = dissolves.get(DissolveEntry::Join, ClaimKind::Zero);
    assert!(joined > 0, "no move's joiner attached: {dissolves}");
}
