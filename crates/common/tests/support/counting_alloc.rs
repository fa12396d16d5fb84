//! A counting global allocator for allocation-budget tests, shared by
//! path (`#[path = ".../counting_alloc.rs"] mod counting_alloc;`) between
//! the crates' integration tests. Each including test binary installs it
//! with `#[global_allocator]`.
//!
//! Counts are **per thread**, so tests running in parallel in one binary
//! (and the harness's own threads) cannot pollute one another's numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor: touching it from
    // inside the allocator can neither allocate nor observe a torn-down
    // slot.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // A thread being torn down may allocate after its locals are gone.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
    let _ = BYTES.try_with(|total| total.set(total.get() + bytes as u64));
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// calls per thread (what spinbench's `allocs_per_op` counts) and the
/// bytes they asked for (its `alloc_bytes_per_op`).
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are exactly `System::alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` and return how many allocations this thread made inside it.
pub fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let (calls, _, out) = allocated(f);
    (calls, out)
}

/// Run `f` and return how many allocations this thread made inside it
/// and how many bytes they asked for in all.
pub fn allocated<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let before = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (CALLS.with(Cell::get) - before.0, BYTES.with(Cell::get) - before.1, out)
}
