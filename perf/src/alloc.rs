//! Counting allocator: `System` plus allocation counts behind a flag.
//!
//! Only the traced run sets the flag, and only around its timed passes, so
//! the untraced run pays one relaxed load per allocation and nothing else.
//!
//! While the flag is set each thread counts in its own cells and adds them to
//! the shared totals when it exits (or, for the calling thread, when
//! [`counted`] is read). Shared atomic adds on every allocation were measured
//! first: at `serve`'s twenty million allocations a pass they alone slowed the
//! traced run by a tenth, twice what tracing is allowed to cost. The totals
//! publish no other data, hence `Relaxed` throughout.
//!
//! [`pin_malloc_policy`] fixes the thresholds of the `malloc` underneath.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// One thread's not yet published counts.
struct Local {
    calls: Cell<u64>,
    bytes: Cell<u64>,
}

impl Local {
    fn publish(&self) {
        CALLS.fetch_add(self.calls.replace(0), Relaxed);
        BYTES.fetch_add(self.bytes.replace(0), Relaxed);
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.publish();
    }
}

thread_local! {
    // Const-initialised: first use allocates nothing, so the allocator may
    // touch it.
    static LOCAL: Local = const {
        Local {
            calls: Cell::new(0),
            bytes: Cell::new(0),
        }
    };
}

/// `System` with allocation counting that [`set_counting`] switches on.
pub struct CountingAlloc;

#[inline]
fn note(size: usize) {
    if COUNTING.load(Relaxed) {
        // An allocation made while the thread's locals are being torn down
        // goes uncounted.
        let _ = LOCAL.try_with(|l| {
            l.calls.set(l.calls.get() + 1);
            l.bytes.set(l.bytes.get() + size as u64);
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations for `alloc` are `System`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, i.e. from
        // `System`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switch counting on or off, process-wide.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// `(allocation calls, bytes requested)` counted so far by this thread and by
/// every thread that has exited. The harness reads it between passes, when
/// the program's worker pools have been joined.
pub fn counted() -> (u64, u64) {
    let _ = LOCAL.try_with(Local::publish);
    (CALLS.load(Relaxed), BYTES.load(Relaxed))
}

/// Pin glibc's `malloc` to one policy for the whole run: blocks up to 32 MB
/// (the most `mallopt` takes) come from the heap, and freed heap is kept.
///
/// Left alone, glibc moves its `mmap` threshold up to the size of the first
/// large block freed, so whether a pass's 10–30 MB matrices are reused heap
/// or a fresh `mmap`, page faults and `munmap` each depends on what was freed
/// before it. That was measured to hang on the length of an environment
/// variable: the same `train_sampling` pass took 3.1 s or 5.0 s, 9 s of it in
/// the kernel. Setting a threshold switches the moving one off. Allocation
/// churn still shows in `alloc.kb_per_item` and in the time `malloc` and the
/// first touch of a block take. Returns whether the policy was set.
pub fn pin_malloc_policy() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: `mallopt` is glibc's, which `std` links on this target; it
        // takes two ints, returns one and only stores the new setting.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_thread_and_joined_threads_only_while_switched_on() {
        // Other tests of this binary allocate concurrently, so assert lower
        // bounds while counting and nothing while it is off for this thread.
        let before = counted();
        set_counting(true);
        let here = std::hint::black_box(vec![0u8; 4096]);
        std::thread::spawn(|| drop(std::hint::black_box(vec![0u8; 8192])))
            .join()
            .unwrap();
        set_counting(false);
        let after = counted();
        drop(here);
        assert!(after.0 - before.0 >= 2, "{before:?} -> {after:?}");
        assert!(after.1 - before.1 >= 4096 + 8192, "{before:?} -> {after:?}");
    }

    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn glibc_accepts_the_pinned_policy() {
        assert!(pin_malloc_policy());
    }
}
