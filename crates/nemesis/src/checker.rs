//! The consistency checker: validates a recorded [`History`] against the
//! register model.
//!
//! Checks, in order of depth:
//!
//! 1. **Linearizability of strong operations** — writes, conditional
//!    ops, strong gets, and strong scans (decomposed per key: each key a
//!    scan returns is one strong point read somewhere inside the scan's
//!    window). Checked per key with a Wing & Gong style search over the
//!    register state machine; per-key decomposition is sound because
//!    every operation here touches a single key.
//! 2. **Snapshot reads are exact cuts** — a read at timestamp `T` must
//!    observe, for each key, the acked write with the largest commit
//!    timestamp `≤ T` (writes whose commit timestamp is unknown — lost
//!    acks, duplicate applies — act as wildcards). Two observations of
//!    the same key at the same `T` must agree exactly (a torn cut).
//! 3. **Pin freshness** — a leader-pinned point read must cover every
//!    write to the same key acked before the read was invoked.
//! 4. **Scan shape** — rows strictly sorted, in bounds, no phantoms.
//! 5. **Timeline sanity** — a timeline read may be stale but must
//!    return a value some client actually wrote.
//!
//! ## At-least-once semantics
//!
//! A call marked [`HEventKind::Retry`] was retransmitted after a
//! timeout: an earlier attempt may have applied without its ack. The
//! checker therefore models, per retry, one *optional ghost* apply with
//! an open window — a duplicate apply lands at an unknown later moment.
//! Conditional ops self-deduplicate (the version precondition can only
//! match once), so a retried conditional that *failed* collapses to
//! "may or may not have applied" and a retried conditional that
//! succeeded stays exact. A blind put applied twice stores its value
//! under two versions, so a conditional op refused against that value
//! (it read the other version) constrains nothing; against a value
//! written once, a refusal still means the state was not that value.

use std::collections::{BTreeMap, BTreeSet};

use spinnaker_common::{HCons, HErr, HEventKind, HOp, HResult, HState, History, Key, Value};

/// The end-of-time sentinel for operations whose completion was never
/// observed.
const OPEN: u64 = u64::MAX;

/// One confirmed consistency violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Violation class (stable string for tests and triage).
    pub kind: &'static str,
    /// Key the violation anchors to, if any.
    pub key: Option<Key>,
    /// Human-readable description.
    pub detail: String,
    /// Minimal violating subhistory: the smallest op set the checker
    /// still rejects, one line per op.
    pub subhistory: Vec<String>,
}

/// A call reassembled from its history lines.
struct Call {
    client: u32,
    op_no: u32,
    op: HOp,
    inv: u64,
    /// Timeout retransmissions observed (each one is a potential
    /// duplicate apply).
    retries: u32,
    /// Completion time and payload, if the call completed.
    res: Option<(u64, Result<HResult, HErr>)>,
}

impl Call {
    fn label(&self) -> String {
        let outcome = match &self.res {
            None => "…open".to_string(),
            Some((t, Ok(r))) => format!("ok@{t} {r:?}"),
            Some((t, Err(e))) => format!("fail@{t} {e:?}"),
        };
        let retried = if self.retries > 0 { " [retried]" } else { "" };
        format!("c{}#{} @{} {:?}{retried} -> {outcome}", self.client, self.op_no, self.inv, self.op)
    }
}

/// Register-model semantics of one linearization candidate.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Sem {
    /// Blind write: set the state unconditionally.
    Apply(HState),
    /// Conditional write: requires `state == expect`, then sets `to`.
    Cas { expect: HState, to: HState },
    /// A definitively failed conditional: requires `state != expect`.
    CasFail { expect: HState },
    /// Strong read observing exactly this state.
    Read(HState),
    /// Strong-scan absence: the key was not returned, so its state is
    /// `Never` or `Tomb` at the read point.
    Absent,
}

/// One operation in a per-key linearizability instance.
#[derive(Clone, Debug)]
struct LinOp {
    inv: u64,
    res: u64,
    mandatory: bool,
    sem: Sem,
    /// Index into the call table (ghosts share their origin's label).
    src: usize,
}

/// Check a history; returns every violation found (empty = consistent).
pub fn check(history: &History) -> Vec<Violation> {
    let calls = assemble(history);
    let mut violations = Vec::new();
    let universe = universe_of(&calls);

    check_scan_shape(&calls, &universe, &mut violations);
    check_linearizable(&calls, &universe, &mut violations);
    check_snapshots(&calls, &universe, &mut violations);
    check_pin_freshness(&calls, &mut violations);
    check_timeline(&calls, &mut violations);
    check_write_timestamps(&calls, &mut violations);
    violations
}

/// Reassemble history lines into calls, keyed `(client, op_no)`.
fn assemble(history: &History) -> Vec<Call> {
    let mut by_id: BTreeMap<(u32, u32), Call> = BTreeMap::new();
    for e in &history.events {
        let id = (e.client, e.op);
        match &e.kind {
            HEventKind::Invoke(op) => {
                by_id.entry(id).or_insert(Call {
                    client: e.client,
                    op_no: e.op,
                    op: op.clone(),
                    inv: e.at,
                    retries: 0,
                    res: None,
                });
            }
            HEventKind::Retry => {
                if let Some(c) = by_id.get_mut(&id) {
                    c.retries += 1;
                }
            }
            HEventKind::Ok(r) => {
                if let Some(c) = by_id.get_mut(&id) {
                    c.res = Some((e.at, Ok(r.clone())));
                }
            }
            HEventKind::Fail(err) => {
                if let Some(c) = by_id.get_mut(&id) {
                    c.res = Some((e.at, Err(*err)));
                }
            }
        }
    }
    by_id.into_values().collect()
}

/// Every key any operation ever named (point targets and scan rows).
fn universe_of(calls: &[Call]) -> BTreeSet<Key> {
    let mut keys = BTreeSet::new();
    for c in calls {
        match &c.op {
            HOp::Put { key, .. }
            | HOp::Delete { key }
            | HOp::CondPut { key, .. }
            | HOp::CondDelete { key, .. }
            | HOp::Get { key, .. } => {
                keys.insert(key.clone());
            }
            HOp::Scan { .. } => {
                if let Some((_, Ok(HResult::Rows { rows, .. }))) = &c.res {
                    for (k, _) in rows {
                        keys.insert(k.clone());
                    }
                }
            }
        }
    }
    keys
}

/// `key ∈ [start, end)`?
fn in_bounds(key: &Key, start: &Key, end: &Option<Key>) -> bool {
    key >= start && end.as_ref().is_none_or(|e| key < e)
}

/// The state a write op establishes when it applies.
fn write_effect(op: &HOp) -> Option<HState> {
    match op {
        HOp::Put { value, .. } | HOp::CondPut { value, .. } => Some(HState::Val(value.clone())),
        HOp::Delete { .. } | HOp::CondDelete { .. } => Some(HState::Tomb),
        HOp::Get { .. } | HOp::Scan { .. } => None,
    }
}

fn key_of(op: &HOp) -> Option<&Key> {
    match op {
        HOp::Put { key, .. }
        | HOp::Delete { key }
        | HOp::CondPut { key, .. }
        | HOp::CondDelete { key, .. }
        | HOp::Get { key, .. } => Some(key),
        HOp::Scan { .. } => None,
    }
}

// ---------------------------------------------------------------------
// 1. Linearizability of strong operations (per-key WGL)
// ---------------------------------------------------------------------

fn check_linearizable(calls: &[Call], universe: &BTreeSet<Key>, violations: &mut Vec<Violation>) {
    let mut per_key: BTreeMap<Key, Vec<LinOp>> = BTreeMap::new();
    let mut add = |key: &Key, op: LinOp| per_key.entry(key.clone()).or_default().push(op);
    // The values a retried blind put wrote: each application stores the
    // value under a version of its own, so it may stand under a version
    // other than the one a conditional op read.
    let rewritten: BTreeSet<(&Key, &Value)> = calls
        .iter()
        .filter(|c| c.retries > 0)
        .filter_map(|c| match &c.op {
            HOp::Put { key, value } => Some((key, value)),
            _ => None,
        })
        .collect();

    for (idx, c) in calls.iter().enumerate() {
        match &c.op {
            HOp::Put { key, .. } | HOp::Delete { key } => {
                let effect = write_effect(&c.op).expect("write op");
                match &c.res {
                    Some((t, Ok(_))) => {
                        // Acked: applied at least once before the ack.
                        add(
                            key,
                            LinOp {
                                inv: c.inv,
                                res: *t,
                                mandatory: true,
                                sem: Sem::Apply(effect.clone()),
                                src: idx,
                            },
                        );
                        // Each timeout retransmit may have applied the
                        // same blind write again, at an unknown moment.
                        for _ in 0..c.retries {
                            add(
                                key,
                                LinOp {
                                    inv: c.inv,
                                    res: OPEN,
                                    mandatory: false,
                                    sem: Sem::Apply(effect.clone()),
                                    src: idx,
                                },
                            );
                        }
                    }
                    // Never acked (open or failed): may have applied.
                    _ => add(
                        key,
                        LinOp {
                            inv: c.inv,
                            res: OPEN,
                            mandatory: false,
                            sem: Sem::Apply(effect.clone()),
                            src: idx,
                        },
                    ),
                }
            }
            HOp::CondPut { key, expect, .. } | HOp::CondDelete { key, expect } => {
                let to = write_effect(&c.op).expect("write op");
                let cas = Sem::Cas { expect: expect.clone(), to };
                match &c.res {
                    // The version precondition can match at most once
                    // across retransmits, so an acked conditional is
                    // exact even when retried.
                    Some((t, Ok(_))) => {
                        add(key, LinOp { inv: c.inv, res: *t, mandatory: true, sem: cas, src: idx })
                    }
                    Some((t, Err(HErr::VersionMismatch))) if c.retries == 0 => {
                        // Definitively rejected. Only a `Val` expectation
                        // maps version inequality to state inequality:
                        // values are unique, unless a retried put wrote
                        // one twice, and tombstones are not. Against such
                        // a value the refusal says only that the version
                        // moved, which the register cannot see.
                        let once = |v: &Value| !rewritten.contains(&(key, v));
                        if matches!(expect, HState::Val(v) if once(v)) {
                            add(
                                key,
                                LinOp {
                                    inv: c.inv,
                                    res: *t,
                                    mandatory: true,
                                    sem: Sem::CasFail { expect: expect.clone() },
                                    src: idx,
                                },
                            );
                        }
                    }
                    // Retried-then-mismatched: an earlier attempt may
                    // have applied (its ack lost). Open/other failures
                    // likewise.
                    _ => add(
                        key,
                        LinOp { inv: c.inv, res: OPEN, mandatory: false, sem: cas, src: idx },
                    ),
                }
            }
            HOp::Get { key, cons: HCons::Strong } => {
                if let Some((t, Ok(HResult::Read { state, .. }))) = &c.res {
                    add(
                        key,
                        LinOp {
                            inv: c.inv,
                            res: *t,
                            mandatory: true,
                            sem: Sem::Read(state.clone()),
                            src: idx,
                        },
                    );
                }
            }
            HOp::Scan { start, end, cons: HCons::Strong } => {
                // Per-key decomposition: each universe key the scan
                // covers is one strong point read inside the window.
                if let Some((t, Ok(HResult::Rows { rows, .. }))) = &c.res {
                    let returned: BTreeMap<&Key, &Value> =
                        rows.iter().map(|(k, v)| (k, v)).collect();
                    for key in universe.iter().filter(|k| in_bounds(k, start, end)) {
                        let sem = match returned.get(key) {
                            Some(v) => Sem::Read(HState::Val((*v).clone())),
                            None => Sem::Absent,
                        };
                        add(key, LinOp { inv: c.inv, res: *t, mandatory: true, sem, src: idx });
                    }
                }
            }
            HOp::Get { .. } | HOp::Scan { .. } => {}
        }
    }

    for (key, ops) in per_key {
        if linearizable(&ops) {
            continue;
        }
        let sub = minimal_failing(&ops);
        violations.push(Violation {
            kind: "linearizability",
            key: Some(key.clone()),
            detail: format!(
                "no linearization of {} ops explains key {key:?} ({} in minimal subhistory)",
                ops.len(),
                sub.len(),
            ),
            subhistory: sub
                .iter()
                .map(|o| format!("{:?} win=[{},{}] {}", o.sem, o.inv, o.res, calls[o.src].label()))
                .collect(),
        });
    }
}

/// Wing & Gong style search: does any linearization of the mandatory
/// ops (plus any subset of the optional ones) drive the register
/// legally?
fn linearizable(ops: &[LinOp]) -> bool {
    // Remaining-set bitmask words + state, memoized to prune re-entry.
    let words = ops.len().div_ceil(64);
    let full: Vec<u64> = (0..words)
        .map(|w| {
            let bits = (ops.len() - w * 64).min(64);
            if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            }
        })
        .collect();
    let mut memo: BTreeSet<(Vec<u64>, HState)> = BTreeSet::new();
    search(ops, &full, HState::Never, &mut memo)
}

/// True when `a` and `b` are two optional applications of one call
/// with the same window and effect: swapping them changes nothing.
fn same_ghost(a: &LinOp, b: &LinOp) -> bool {
    !a.mandatory && !b.mandatory && (a.src, a.inv, a.res) == (b.src, b.inv, b.res) && a.sem == b.sem
}

fn has(mask: &[u64], i: usize) -> bool {
    mask[i / 64] & (1u64 << (i % 64)) != 0
}

fn without(mask: &[u64], i: usize) -> Vec<u64> {
    let mut m = mask.to_vec();
    m[i / 64] &= !(1u64 << (i % 64));
    m
}

fn search(
    ops: &[LinOp],
    remaining: &[u64],
    state: HState,
    memo: &mut BTreeSet<(Vec<u64>, HState)>,
) -> bool {
    let mandatory_left: Vec<usize> =
        (0..ops.len()).filter(|&i| has(remaining, i) && ops[i].mandatory).collect();
    if mandatory_left.is_empty() {
        return true;
    }
    if !memo.insert((remaining.to_vec(), state.clone())) {
        return false;
    }
    for i in (0..ops.len()).filter(|&i| has(remaining, i)) {
        let o = &ops[i];
        // A retried write's ghosts are interchangeable: take them in
        // index order, so the search tries how many of them apply, not
        // every order of the same ones (2^k remaining sets become k + 1).
        if i > 0 && has(remaining, i - 1) && same_ghost(&ops[i - 1], o) {
            continue;
        }
        // Real-time order: `o` cannot linearize while another mandatory
        // op that *completed before `o` was invoked* is still pending.
        if mandatory_left.iter().any(|&m| m != i && ops[m].res < o.inv) {
            continue;
        }
        let next = match &o.sem {
            Sem::Apply(s) => s.clone(),
            Sem::Cas { expect, to } => {
                if state != *expect {
                    continue;
                }
                to.clone()
            }
            Sem::CasFail { expect } => {
                if state == *expect {
                    continue;
                }
                state.clone()
            }
            Sem::Read(s) => {
                if state != *s {
                    continue;
                }
                state.clone()
            }
            Sem::Absent => {
                if matches!(state, HState::Val(_)) {
                    continue;
                }
                state.clone()
            }
        };
        if search(ops, &without(remaining, i), next, memo) {
            return true;
        }
    }
    false
}

/// Shrink a failing per-key instance: add ops in completion order until
/// the search first fails — that prefix is the reported subhistory.
fn minimal_failing(ops: &[LinOp]) -> Vec<LinOp> {
    let mut order: Vec<usize> = (0..ops.len()).collect();
    order.sort_by_key(|&i| (ops[i].res, ops[i].inv));
    let mut subset: Vec<LinOp> = Vec::new();
    for &i in &order {
        subset.push(ops[i].clone());
        if !linearizable(&subset) {
            // Greedy second pass: drop ops the failure does not need.
            let mut j = 0;
            while j < subset.len() {
                let mut trial = subset.clone();
                trial.remove(j);
                if linearizable(&trial) {
                    j += 1;
                } else {
                    subset = trial;
                }
            }
            return subset;
        }
    }
    ops.to_vec()
}

// ---------------------------------------------------------------------
// 2. Snapshot reads are exact cuts
// ---------------------------------------------------------------------

/// What one snapshot observation claims about one key at one timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Obs {
    Exact(HState),
    /// Scan absence: `Never` or `Tomb`, indistinguishable.
    Absent,
}

fn snapshot_cons(cons: &HCons) -> bool {
    matches!(cons, HCons::Pin | HCons::At(_))
}

fn check_snapshots(calls: &[Call], universe: &BTreeSet<Key>, violations: &mut Vec<Violation>) {
    // Known committed writes per key: (commit ts, state, call idx).
    let mut known: BTreeMap<&Key, Vec<(u64, HState, usize)>> = BTreeMap::new();
    // Wildcard states per key: writes that may have applied with an
    // unknown commit timestamp (lost acks, duplicate applies).
    let mut wild: BTreeMap<&Key, Vec<HState>> = BTreeMap::new();
    for (idx, c) in calls.iter().enumerate() {
        let Some(effect) = write_effect(&c.op) else { continue };
        let key = key_of(&c.op).expect("write ops are point ops");
        match &c.res {
            Some((_, Ok(HResult::Write { ts, .. }))) => {
                known.entry(key).or_default().push((*ts, effect.clone(), idx));
                let blind = matches!(c.op, HOp::Put { .. } | HOp::Delete { .. });
                if blind && c.retries > 0 {
                    // A duplicate apply commits again at a fresh,
                    // unreported timestamp.
                    wild.entry(key).or_default().push(effect);
                }
            }
            Some((_, Err(HErr::VersionMismatch))) if c.retries == 0 => {}
            // Open, retried-then-failed, or failed otherwise: the write
            // may have applied with an unknown timestamp.
            _ => wild.entry(key).or_default().push(effect),
        }
    }
    for v in known.values_mut() {
        v.sort_by_key(|(ts, _, _)| *ts);
    }

    // Gather observations: (at_ts, key) -> list of (Obs, call idx).
    let mut by_cut: BTreeMap<(u64, &Key), Vec<(Obs, usize)>> = BTreeMap::new();
    for (idx, c) in calls.iter().enumerate() {
        match &c.op {
            HOp::Get { key, cons } if snapshot_cons(cons) => {
                if let Some((_, Ok(HResult::Read { state, at_ts }))) = &c.res {
                    if *at_ts > 0 {
                        by_cut
                            .entry((*at_ts, key))
                            .or_default()
                            .push((Obs::Exact(state.clone()), idx));
                    }
                }
            }
            HOp::Scan { start, end, cons } if snapshot_cons(cons) => {
                if let Some((_, Ok(HResult::Rows { rows, at_ts }))) = &c.res {
                    if *at_ts == 0 {
                        continue;
                    }
                    let returned: BTreeMap<&Key, &Value> =
                        rows.iter().map(|(k, v)| (k, v)).collect();
                    for key in universe.iter().filter(|k| in_bounds(k, start, end)) {
                        let obs = match returned.get(key) {
                            Some(v) => Obs::Exact(HState::Val((*v).clone())),
                            None => Obs::Absent,
                        };
                        by_cut.entry((*at_ts, key)).or_default().push((obs, idx));
                    }
                }
            }
            _ => {}
        }
    }

    let empty_known = Vec::new();
    let empty_wild = Vec::new();
    for ((at_ts, key), obs) in &by_cut {
        let kn = known.get(key).unwrap_or(&empty_known);
        let wl = wild.get(key).unwrap_or(&empty_wild);
        // The state the known-timestamp writes pin at this cut.
        let cut = kn.iter().rev().find(|(ts, _, _)| *ts <= *at_ts);
        let cut_state = cut.map_or(HState::Never, |(_, s, _)| s.clone());

        for (o, idx) in obs {
            let valid = match o {
                Obs::Exact(s) => *s == cut_state || wl.contains(s),
                Obs::Absent => !matches!(cut_state, HState::Val(_)) || wl.contains(&HState::Tomb),
            };
            if !valid {
                let mut sub: Vec<String> = vec![calls[*idx].label()];
                sub.extend(kn.iter().map(|(_, _, i)| calls[*i].label()));
                violations.push(Violation {
                    kind: "snapshot-cut",
                    key: Some((*key).clone()),
                    detail: format!(
                        "cut at ts={at_ts} must show {cut_state:?} for key {key:?} \
                         (wildcards {wl:?}), but a read observed {o:?}"
                    ),
                    subhistory: sub,
                });
            }
        }

        // Torn cut: all exact observations at one (ts, key) must agree,
        // and a `Val` observation contradicts any absence.
        let exacts: Vec<&(Obs, usize)> =
            obs.iter().filter(|(o, _)| matches!(o, Obs::Exact(_))).collect();
        let disagree = exacts.windows(2).any(|w| w[0].0 != w[1].0)
            || (obs.iter().any(|(o, _)| matches!(o, Obs::Absent))
                && exacts.iter().any(|(o, _)| matches!(o, Obs::Exact(HState::Val(_)))));
        if disagree {
            violations.push(Violation {
                kind: "torn-snapshot-cut",
                key: Some((*key).clone()),
                detail: format!("observations of key {key:?} at ts={at_ts} disagree"),
                subhistory: obs
                    .iter()
                    .map(|(o, i)| format!("{o:?} {}", calls[*i].label()))
                    .collect(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// 3. Pin freshness
// ---------------------------------------------------------------------

/// A leader-pinned point read covers every write to the same key that
/// was acknowledged before the read was invoked (same key ⇒ same range,
/// so clock skew across ranges cannot excuse a stale pin).
fn check_pin_freshness(calls: &[Call], violations: &mut Vec<Violation>) {
    for c in calls {
        let HOp::Get { key, cons: HCons::Pin } = &c.op else { continue };
        let Some((_, Ok(HResult::Read { at_ts, .. }))) = &c.res else { continue };
        if *at_ts == 0 {
            continue;
        }
        for w in calls {
            if key_of(&w.op) != Some(key) || write_effect(&w.op).is_none() {
                continue;
            }
            if let Some((wt, Ok(HResult::Write { ts, .. }))) = &w.res {
                if *wt < c.inv && *ts > *at_ts {
                    violations.push(Violation {
                        kind: "stale-pin",
                        key: Some(key.clone()),
                        detail: format!(
                            "pin at ts={at_ts} excludes a write acked at {wt} (ts={ts}) \
                             before the read began at {}",
                            c.inv
                        ),
                        subhistory: vec![c.label(), w.label()],
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// 4. Scan shape
// ---------------------------------------------------------------------

fn check_scan_shape(calls: &[Call], universe: &BTreeSet<Key>, violations: &mut Vec<Violation>) {
    for c in calls {
        let HOp::Scan { start, end, .. } = &c.op else { continue };
        let Some((_, Ok(HResult::Rows { rows, .. }))) = &c.res else { continue };
        let mut bad = Vec::new();
        for w in rows.windows(2) {
            if w[0].0 >= w[1].0 {
                bad.push(format!("rows out of order / duplicated: {:?} !< {:?}", w[0].0, w[1].0));
            }
        }
        for (k, _) in rows {
            if !in_bounds(k, start, end) {
                bad.push(format!("row {k:?} outside [{start:?}, {end:?})"));
            }
            if !universe.contains(k) {
                bad.push(format!("phantom row {k:?}: no client ever wrote this key"));
            }
        }
        for detail in bad {
            violations.push(Violation {
                kind: "scan-shape",
                key: None,
                detail,
                subhistory: vec![c.label()],
            });
        }
    }
}

// ---------------------------------------------------------------------
// 5. Timeline sanity
// ---------------------------------------------------------------------

/// Timeline reads may be stale, but can only return states some write
/// could have produced.
fn check_timeline(calls: &[Call], violations: &mut Vec<Violation>) {
    let mut values: BTreeMap<&Key, BTreeSet<&Value>> = BTreeMap::new();
    let mut deleted: BTreeSet<&Key> = BTreeSet::new();
    for c in calls {
        match &c.op {
            HOp::Put { key, value } | HOp::CondPut { key, value, .. } => {
                values.entry(key).or_default().insert(value);
            }
            HOp::Delete { key } | HOp::CondDelete { key, .. } => {
                deleted.insert(key);
            }
            _ => {}
        }
    }
    for c in calls {
        let HOp::Get { key, cons: HCons::Timeline } = &c.op else { continue };
        let Some((_, Ok(HResult::Read { state, .. }))) = &c.res else { continue };
        let ok = match state {
            HState::Never => true,
            HState::Tomb => deleted.contains(key),
            HState::Val(v) => values.get(key).is_some_and(|vs| vs.contains(v)),
        };
        if !ok {
            violations.push(Violation {
                kind: "timeline-phantom",
                key: Some(key.clone()),
                detail: format!("timeline read observed {state:?}, which no client ever wrote"),
                subhistory: vec![c.label()],
            });
        }
    }
}

// ---------------------------------------------------------------------
// 6. Commit-timestamp sanity
// ---------------------------------------------------------------------

/// Two acked writes to one key can never share a commit timestamp (the
/// key lives in one range at a time and the range's commit clock is
/// strictly monotone).
fn check_write_timestamps(calls: &[Call], violations: &mut Vec<Violation>) {
    let mut seen: BTreeMap<(&Key, u64), usize> = BTreeMap::new();
    for (idx, c) in calls.iter().enumerate() {
        if write_effect(&c.op).is_none() {
            continue;
        }
        let key = key_of(&c.op).expect("write ops are point ops");
        let Some((_, Ok(HResult::Write { ts, .. }))) = &c.res else { continue };
        if let Some(prev) = seen.insert((key, *ts), idx) {
            violations.push(Violation {
                kind: "duplicate-commit-ts",
                key: Some(key.clone()),
                detail: format!("two acked writes to {key:?} share commit ts {ts}"),
                subhistory: vec![calls[prev].label(), calls[idx].label()],
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// The search without the ghost ordering: every remaining op is
    /// tried at every step.
    fn plain(
        ops: &[LinOp],
        remaining: Vec<bool>,
        state: HState,
        seen: &mut BTreeSet<(Vec<bool>, HState)>,
    ) -> bool {
        let mandatory_left: Vec<usize> =
            (0..ops.len()).filter(|&i| remaining[i] && ops[i].mandatory).collect();
        if mandatory_left.is_empty() {
            return true;
        }
        if !seen.insert((remaining.clone(), state.clone())) {
            return false;
        }
        (0..ops.len()).filter(|&i| remaining[i]).any(|i| {
            let o = &ops[i];
            if mandatory_left.iter().any(|&m| m != i && ops[m].res < o.inv) {
                return false;
            }
            let next = match &o.sem {
                Sem::Apply(s) => s.clone(),
                Sem::Cas { expect, to } if state == *expect => to.clone(),
                Sem::CasFail { expect } if state != *expect => state.clone(),
                Sem::Read(s) if state == *s => state.clone(),
                Sem::Absent if !matches!(state, HState::Val(_)) => state.clone(),
                _ => return false,
            };
            let mut rest = remaining.clone();
            rest[i] = false;
            plain(ops, rest, next, seen)
        })
    }

    /// Taking a retried write's ghosts in one order decides exactly what
    /// trying every order decides, on random small registers: writes
    /// with zero to three ghosts, conditional writes and reads.
    #[test]
    fn ordered_ghosts_decide_what_every_order_decides() {
        let mut rng = SmallRng::seed_from_u64(42);
        let state = |v: u32| match v {
            0 => HState::Never,
            v => HState::Val(Value::from(format!("v{v}").into_bytes())),
        };
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..3000 {
            let mut ops = Vec::new();
            for src in 0..rng.gen_range(2..6usize) {
                let inv = rng.gen_range(0..40u64);
                let res = inv + rng.gen_range(1..20u64);
                let v = rng.gen_range(0..4u32);
                let sem = match rng.gen_range(0..4u32) {
                    0 | 1 => Sem::Apply(state(v)),
                    2 => Sem::Cas { expect: state(rng.gen_range(0..4)), to: state(v) },
                    _ => Sem::Read(state(v)),
                };
                let ghosts = if matches!(sem, Sem::Apply(_)) { rng.gen_range(0..4) } else { 0 };
                ops.push(LinOp { inv, res, mandatory: true, sem: sem.clone(), src });
                for _ in 0..ghosts {
                    ops.push(LinOp { inv, res: OPEN, mandatory: false, sem: sem.clone(), src });
                }
            }
            let all = vec![true; ops.len()];
            let expected = plain(&ops, all, HState::Never, &mut BTreeSet::new());
            assert_eq!(linearizable(&ops), expected, "{ops:#?}");
            if expected {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(accepted > 100 && rejected > 100, "both verdicts covered: {accepted}/{rejected}");
    }
}
