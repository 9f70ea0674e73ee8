//! `perf-trace` — the traced run: same job lists and command line as
//! `perf`, plus a counting global allocator so `alloc.*` are measured.
//!
//! This file holds the package's only `unsafe`: the `GlobalAlloc` impl,
//! which forwards every call to the system allocator unchanged and only
//! counts. The counters themselves are safe code in `dsm_perf::layers`.

use std::alloc::{GlobalAlloc, Layout, System};

use dsm_perf::layers::AllocCounters;

static COUNTERS: AllocCounters = AllocCounters::new();

struct Counting;

// SAFETY: every method forwards its arguments untouched to `System`, which
// upholds the `GlobalAlloc` contract; the counter updates touch only
// atomics, never allocate, and cannot unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNTERS.on_alloc(layout.size());
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        COUNTERS.on_dealloc(layout.size());
        // SAFETY: `ptr` came from `System` with this `layout` (every
        // allocation path above forwards to it).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        COUNTERS.on_alloc(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNTERS.on_dealloc(layout.size());
        COUNTERS.on_alloc(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, all passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn main() -> std::process::ExitCode {
    dsm_perf::cli::main(Some(&COUNTERS))
}
