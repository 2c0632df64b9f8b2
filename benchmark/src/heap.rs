//! A counting allocator: the peak of live heap bytes in this process.
//!
//! `VmHWM` of a 7 to 100 MiB process moves by 15 to 20 % from run to run
//! with the system allocator's thresholds and arenas. The bytes the
//! program asked for do not: at one seed they repeat to a fraction of a
//! percent, so a change in memory use can be claimed on them. Both are
//! reported.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator and keeps two counters.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// The counters publish no other data, so relaxed ordering suffices.
fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrank(by: usize) {
    LIVE.fetch_sub(by, Ordering::Relaxed);
}

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what `System` returns, so each of `GlobalAlloc`'s contracts
// holds exactly when it holds for `System`; the counters are touched
// only after the call and never influence it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

/// Peak of live heap bytes since the process started, in MiB.
pub fn peak_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_follows_a_large_allocation_and_survives_its_release() {
        let before = peak_mib();
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        let during = peak_mib();
        drop(block);
        assert!(
            during >= before.max(64.0),
            "peak {during} MiB after a 64 MiB block"
        );
        assert!(peak_mib() >= during, "the peak never falls");
    }
}
