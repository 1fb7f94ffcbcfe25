//! A counting global allocator for allocation-regression tests.
//!
//! The engine's allocation diet (no per-event action clones on the pick
//! path, interned node names, entry-API duplicate tracking) is easy to
//! regress silently: a stray `clone()` in the hot loop costs one heap
//! allocation per event and no test fails. Installing [`CountingAlloc`]
//! as the `#[global_allocator]` of a test binary makes the cost visible:
//! the test runs a deterministic workload, divides the observed
//! allocation count by the event count, and pins the quotient against
//! the pre-diet baseline.
//!
//! The count is kept per thread: each thread's allocations land in its
//! own counter, and [`CountingAlloc::count`] reads the calling thread's.
//! A test harness runs tests on parallel threads, and the allocator is
//! global to the process, so a process-wide count would add every
//! concurrently running test's allocations to the measured region.

// The one sanctioned use of `unsafe` in this crate: `GlobalAlloc` is an
// unsafe trait, and this impl delegates verbatim to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const`-initialized and free of `Drop`, so reaching it from inside
    // the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// A `#[global_allocator]` that delegates to [`System`] and counts each
/// thread's allocation calls (`alloc` + `realloc`; frees are not counted
/// — the diet is about how often we *ask* for memory).
pub struct CountingAlloc;

impl CountingAlloc {
    /// A fresh counter, usable in `static` position.
    #[must_use]
    pub const fn new() -> CountingAlloc {
        CountingAlloc
    }

    /// Allocation calls the calling thread has made so far.
    #[must_use]
    pub fn allocations(&self) -> u64 {
        ALLOCS.with(Cell::get)
    }

    /// Allocation calls performed by `f` on the calling thread, measured
    /// as a before/after difference on its counter.
    pub fn count<T>(&self, f: impl FnOnce() -> T) -> (T, u64) {
        let before = self.allocations();
        let out = f();
        (out, self.allocations() - before)
    }
}

fn note_allocation() {
    // A thread being torn down has no counter left; its allocations are
    // not part of any measured region.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

impl Default for CountingAlloc {
    fn default() -> CountingAlloc {
        CountingAlloc::new()
    }
}

// SAFETY: delegates verbatim to `System`; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
