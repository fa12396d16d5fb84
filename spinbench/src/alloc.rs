//! Counting global allocator.
//!
//! The `spinbench` binary installs [`CountingAlloc`] as its
//! `#[global_allocator]`; the library only reads the counters. In a
//! process that did not install it (unit tests) the counters stay at
//! zero, and every metric derived from them reads zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

// Statistics only: nothing is published through these, so `Relaxed`.
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two counters: calls to `alloc`/`realloc`
/// and bytes requested by them.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System::alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocation calls, bytes requested)` since process start.
pub fn snapshot() -> (u64, u64) {
    (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// Wall time and allocator traffic of everything run through it.
#[derive(Default)]
pub struct Meter {
    /// Wall time spent inside [`Meter::run`].
    pub wall: Duration,
    /// Allocation calls made inside it.
    pub calls: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
}

impl Meter {
    /// Run `f`, adding its wall time and allocations to the totals.
    pub fn run<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (calls, bytes) = snapshot();
        let t = Instant::now();
        let out = f();
        self.wall += t.elapsed();
        let after = snapshot();
        self.calls += after.0 - calls;
        self.bytes += after.1 - bytes;
        out
    }
}
