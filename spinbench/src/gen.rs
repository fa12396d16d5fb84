//! Seeded input generators: key streams, Zipf draws, and the op streams
//! of every client role.
//!
//! Everything here is a pure function of the seed it is given. The
//! program under test receives only the generated [`SessionCall`]s.

use std::rc::Rc;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use spinnaker_common::{ClientError, Consistency, Key, Value};
use spinnaker_core::messages::ColumnSelect;
use spinnaker_core::partition::u64_to_key;
use spinnaker_core::session::{CallOutcome, SessionCall};

/// The single column every workload reads and writes.
pub fn col() -> Bytes {
    Bytes::from_static(b"c")
}

/// The key of `index` in a space of `keys` keys — the mapping of
/// `ClientHost::key_for_index`, so keys this benchmark preloads are the
/// keys the built-in `Workload::Reads`/`Writes` touch.
pub fn key_for_index(keys: u64, index: u64) -> Key {
    let keys = keys.max(1);
    u64_to_key((index % keys).wrapping_mul(u64::MAX / keys))
}

/// The value every put of one workload writes: `size` bytes of `0x5a`.
pub fn value_of(size: usize) -> Value {
    Bytes::from(vec![0x5au8; size.max(1)])
}

/// Mixes a stream id into a seed (splitmix64 finalizer), so every
/// generator of one run draws from its own stream.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Zipfian ranks over `n` items with exponent `theta`, scrambled over
/// the index space so that hot items do not share SSTable blocks.
pub struct Zipf {
    /// `cdf[r]` = probability of drawing a rank `<= r`.
    cdf: Vec<f64>,
    offset: u64,
}

/// A prime above any key count the benchmark uses, hence coprime to it:
/// `rank -> rank * PRIME + offset (mod n)` is a bijection.
const SCRAMBLE_PRIME: u64 = 2_654_435_761;

impl Zipf {
    /// Exact inverse-CDF sampler; `seed` picks the scramble offset.
    pub fn new(n: u64, theta: f64, seed: u64) -> Zipf {
        let n = n.max(1);
        assert!(n < SCRAMBLE_PRIME, "key space too large for the scramble");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        cdf.iter_mut().for_each(|c| *c /= total);
        Zipf { cdf, offset: sub_seed(seed, 0x21bf) % n }
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// Draw a rank (0 = hottest).
    pub fn rank(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.gen();
        (self.cdf.partition_point(|&c| c < u) as u64).min(self.n() - 1)
    }

    /// The index a rank is scrambled to.
    pub fn index_of_rank(&self, rank: u64) -> u64 {
        let n = u128::from(self.n());
        ((u128::from(rank) * u128::from(SCRAMBLE_PRIME) + u128::from(self.offset)) % n) as u64
    }

    /// Draw a scrambled index.
    pub fn index(&self, rng: &mut SmallRng) -> u64 {
        self.index_of_rank(self.rank(rng))
    }
}

/// Operation class, for per-class accounting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// Blind put.
    Put = 0,
    /// Point get.
    Get = 1,
    /// Read-then-conditional-put cycle.
    Cond = 2,
    /// Logical multi-page scan.
    Scan = 3,
}

/// Number of [`Class`] values.
pub const CLASSES: usize = 4;

/// One generated operation plus what its checker needs.
#[derive(Clone, Debug)]
pub struct Op {
    /// The typed call handed to the session.
    pub call: SessionCall,
    /// Accounting class.
    pub class: Class,
    /// Key index written (puts, cond cycles), for live-byte accounting.
    pub index: u64,
    /// Scans: rows the result must hold.
    pub rows: usize,
}

/// What a client does in its closed loop.
#[derive(Clone, Debug)]
pub enum Role {
    /// Put key indexes `next..end` once each, then stop (preload slice).
    Preload {
        /// Next index to write.
        next: u64,
        /// One past the last index.
        end: u64,
    },
    /// Puts over consecutive key indexes from `start`
    /// (`Workload::Writes`, with the fleet's starts spread evenly so
    /// every seed sees the same overlap between writers).
    Writes {
        /// First key index.
        start: u64,
    },
    /// Gets of uniformly random keys (`Workload::Reads`).
    UniformGets(Consistency),
    /// Gets of Zipf-distributed keys.
    ZipfGets(Consistency),
    /// Puts of Zipf-distributed keys.
    ZipfPuts,
    /// Read a Zipf key's version, then `ConditionalPut` on it, retrying
    /// on `VersionMismatch` with the version the reply carried.
    ZipfCond,
    /// Pinned snapshot scans of `rows` consecutive key indexes.
    SnapshotScans {
        /// Key indexes per scan window.
        rows: u64,
        /// Rows per page request.
        page: u32,
    },
    /// Puts of keys `u64_to_key(i % 4096)`, `i = 0, 1, ..` — confined to
    /// range 0 (`Workload::SingleRangeWrites`). After `n` acknowledged
    /// puts, keys `0..min(n, 4096)` are present.
    RangeZeroWrites,
    /// Strong gets of the listed keys, once each, then stop (read-back).
    ReadBack {
        /// Keys to read.
        keys: Rc<Vec<Key>>,
        /// Next position in `keys`.
        pos: usize,
    },
}

/// Verdict of [`OpGen::check`].
#[derive(Debug)]
pub enum Check {
    /// The logical operation finished correctly.
    Done,
    /// The logical operation continues with this call (cond cycle);
    /// `mismatch` is true when a `VersionMismatch` caused it.
    Redo {
        /// The follow-up call.
        op: Op,
        /// A conditional put lost its version check.
        mismatch: bool,
    },
    /// The outcome is wrong for this operation.
    Bad,
}

/// A seeded op stream for one client role.
pub struct OpGen {
    role: Role,
    rng: SmallRng,
    keys: u64,
    value: Value,
    zipf: Option<Rc<Zipf>>,
    /// Operations generated so far.
    issued: u64,
}

impl OpGen {
    /// A generator for `role` over `keys` keys writing `value`; `zipf`
    /// is required by the Zipf roles.
    pub fn new(role: Role, seed: u64, keys: u64, value: Value, zipf: Option<Rc<Zipf>>) -> OpGen {
        let rng = SmallRng::seed_from_u64(seed);
        OpGen { role, rng, keys: keys.max(1), value, zipf, issued: 0 }
    }

    fn zipf_index(&mut self) -> u64 {
        let zipf = self.zipf.clone().expect("Zipf role built without a Zipf table");
        zipf.index(&mut self.rng)
    }

    fn put(&self, key: Key, index: u64) -> Op {
        let call = SessionCall::Put { key, cells: vec![(col(), self.value.clone())] };
        Op { call, class: Class::Put, index, rows: 0 }
    }

    fn get(&self, key: Key, consistency: Consistency, class: Class, index: u64) -> Op {
        let call = SessionCall::Get { key, columns: ColumnSelect::One(col()), consistency };
        Op { call, class, index, rows: 0 }
    }

    /// The next operation, or `None` when a finite role is exhausted.
    pub fn next_op(&mut self) -> Option<Op> {
        let keys = self.keys;
        let n = self.issued;
        self.issued += 1;
        Some(match &mut self.role {
            Role::Preload { next, end } => {
                if *next >= *end {
                    return None;
                }
                let index = *next;
                *next += 1;
                self.put(key_for_index(keys, index), index)
            }
            Role::Writes { start } => {
                let index = start.wrapping_add(n) % keys;
                self.put(key_for_index(keys, index), index)
            }
            Role::UniformGets(c) => {
                let c = *c;
                let index = self.rng.gen_range(0..keys);
                self.get(key_for_index(keys, index), c, Class::Get, index)
            }
            Role::ZipfGets(c) => {
                let c = *c;
                let index = self.zipf_index();
                self.get(key_for_index(keys, index), c, Class::Get, index)
            }
            Role::ZipfPuts => {
                let index = self.zipf_index();
                self.put(key_for_index(keys, index), index)
            }
            Role::ZipfCond => {
                let index = self.zipf_index();
                self.get(key_for_index(keys, index), Consistency::Strong, Class::Cond, index)
            }
            Role::SnapshotScans { rows, page } => {
                let (rows, page) = (*rows, *page);
                let lo = self.rng.gen_range(0..keys);
                let hi = lo.saturating_add(rows).min(keys);
                let end = (hi < keys).then(|| key_for_index(keys, hi));
                let call = SessionCall::Scan {
                    start: key_for_index(keys, lo),
                    end,
                    page: page.max(1),
                    consistency: Consistency::SNAPSHOT_PIN,
                };
                Op { call, class: Class::Scan, index: lo, rows: (hi - lo) as usize }
            }
            Role::RangeZeroWrites => {
                let index = n % 4096;
                self.put(u64_to_key(index), index)
            }
            Role::ReadBack { keys: list, pos } => {
                let key = list.get(*pos)?.clone();
                *pos += 1;
                self.get(key, Consistency::Strong, Class::Get, 0)
            }
        })
    }

    fn value_ok(&self, v: Option<&Value>) -> bool {
        v.is_some_and(|v| {
            v.len() == self.value.len() && v.first() == Some(&0x5a) && v.last() == Some(&0x5a)
        })
    }

    /// Judge `outcome` against the operation that produced it.
    pub fn check(&mut self, op: &Op, outcome: &CallOutcome) -> Check {
        match (op.class, outcome) {
            (Class::Put, CallOutcome::Written { .. }) => Check::Done,
            (Class::Get, CallOutcome::Row { cells, .. })
                if cells.len() == 1 && self.value_ok(cells[0].value.as_ref()) =>
            {
                Check::Done
            }
            (Class::Scan, CallOutcome::Rows { rows, .. })
                if rows.len() == op.rows
                    && rows.iter().all(|r| {
                        r.cells.len() == 1 && self.value_ok(r.cells[0].value.as_ref())
                    }) =>
            {
                Check::Done
            }
            (Class::Cond, CallOutcome::Written { .. }) => Check::Done,
            // The read half of the cycle: every key is preloaded, so the
            // column exists and carries the version to condition on.
            (Class::Cond, CallOutcome::Row { cells, .. }) if cells.len() == 1 => {
                Check::Redo { op: self.cond_put(op, cells[0].version), mismatch: false }
            }
            (Class::Cond, CallOutcome::Failed(ClientError::VersionMismatch { actual })) => {
                Check::Redo { op: self.cond_put(op, *actual), mismatch: true }
            }
            _ => Check::Bad,
        }
    }

    fn cond_put(&self, op: &Op, expected: u64) -> Op {
        let call = SessionCall::ConditionalPut {
            key: key_for_index(self.keys, op.index),
            col: col(),
            value: self.value.clone(),
            expected,
        };
        Op { call, class: Class::Cond, index: op.index, rows: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinnaker_core::partition::key_to_u64;

    fn stream(role: Role, seed: u64, zipf: Option<Rc<Zipf>>, n: usize) -> Vec<String> {
        let mut g = OpGen::new(role, seed, 1000, value_of(16), zipf);
        (0..n).map_while(|_| g.next_op()).map(|op| format!("{:?}", op.call)).collect()
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let z = Rc::new(Zipf::new(1000, 0.99, 3));
        for role in [
            Role::UniformGets(Consistency::Strong),
            Role::ZipfGets(Consistency::Timeline),
            Role::ZipfPuts,
            Role::ZipfCond,
            Role::SnapshotScans { rows: 32, page: 8 },
        ] {
            let a = stream(role.clone(), 7, Some(z.clone()), 200);
            let b = stream(role.clone(), 7, Some(z.clone()), 200);
            let c = stream(role.clone(), 8, Some(z.clone()), 200);
            assert_eq!(a, b, "{role:?}");
            assert_ne!(a, c, "{role:?}");
        }
    }

    #[test]
    fn zipf_mass_concentrates_on_the_top_ranks() {
        // Exact mass of the top 1 % at N = 200 000, theta = 0.99 is 62 %.
        let z = Zipf::new(200_000, 0.99, 1);
        let mut rng = SmallRng::seed_from_u64(5);
        let draws = 200_000;
        let top = (0..draws).filter(|_| z.rank(&mut rng) < 2_000).count();
        let share = top as f64 / draws as f64;
        assert!((0.55..0.70).contains(&share), "top-1% share {share}");
    }

    #[test]
    fn zipf_scramble_is_a_bijection_that_separates_hot_ranks() {
        let n = 60_000;
        let z = Zipf::new(n, 0.99, 9);
        let mut seen = vec![false; n as usize];
        for rank in 0..n {
            let i = z.index_of_rank(rank) as usize;
            assert!(!seen[i], "rank {rank} collides");
            seen[i] = true;
        }
        // The ten hottest ranks land far apart (a 4 KB block holds
        // about fifteen 256-byte rows).
        let mut hot: Vec<u64> = (0..10).map(|r| z.index_of_rank(r)).collect();
        hot.sort_unstable();
        assert!(hot.windows(2).all(|w| w[1] - w[0] > 100), "{hot:?}");
        assert_ne!(z.index_of_rank(0), Zipf::new(n, 0.99, 10).index_of_rank(0));
    }

    #[test]
    fn key_mapping_is_the_built_in_one_and_preload_covers_it() {
        // `ClientHost::key_for_index`: u64_to_key((i % keys) * (u64::MAX / keys)).
        let keys = 1000u64;
        let step = u64::MAX / keys;
        for i in [0, 1, 999, 1000, 12_345] {
            assert_eq!(key_to_u64(&key_for_index(keys, i)), (i % keys) * step);
        }
        // Every key `Workload::Reads { keys }` can draw is preloaded.
        let mut g = OpGen::new(Role::Preload { next: 0, end: keys }, 1, keys, value_of(16), None);
        let mut written = std::collections::BTreeSet::new();
        while let Some(op) = g.next_op() {
            let SessionCall::Put { key, .. } = op.call else { panic!("preload issues puts") };
            written.insert(key);
        }
        assert_eq!(written.len() as u64, keys);
        assert!((0..keys).all(|i| written.contains(&key_for_index(keys, i))));
    }

    #[test]
    fn cond_cycle_reads_then_conditions_and_retries_on_mismatch() {
        let z = Rc::new(Zipf::new(1000, 0.99, 3));
        let mut g = OpGen::new(Role::ZipfCond, 4, 1000, value_of(16), Some(z));
        let read = g.next_op().unwrap();
        assert!(matches!(read.call, SessionCall::Get { consistency: Consistency::Strong, .. }));
        let cell =
            spinnaker_common::ReadCell { col: col(), value: Some(value_of(16)), version: 77 };
        let row = CallOutcome::Row { cells: vec![cell], at_ts: 0 };
        let Check::Redo { op: put, mismatch: false } = g.check(&read, &row) else {
            panic!("a row continues the cycle")
        };
        assert!(matches!(put.call, SessionCall::ConditionalPut { expected: 77, .. }));
        let lost = CallOutcome::Failed(ClientError::VersionMismatch { actual: 78 });
        let Check::Redo { op: retry, mismatch: true } = g.check(&put, &lost) else {
            panic!("a mismatch retries")
        };
        assert!(matches!(retry.call, SessionCall::ConditionalPut { expected: 78, .. }));
        assert!(matches!(
            g.check(&retry, &CallOutcome::Written { version: 79, ts: 1 }),
            Check::Done
        ));
        // A wrong-length value fails a get.
        let short = spinnaker_common::ReadCell { col: col(), value: Some(value_of(3)), version: 1 };
        let mut gets =
            OpGen::new(Role::UniformGets(Consistency::Strong), 1, 10, value_of(16), None);
        let op = gets.next_op().unwrap();
        let bad = CallOutcome::Row { cells: vec![short], at_ts: 0 };
        assert!(matches!(gets.check(&op, &bad), Check::Bad));
    }
}
