//! Checkpointed cells reuse their buffers, as a test.
//!
//! A checkpoint of a `vc64-t16` cell (16×16 VC64 torus) is a ~2 MB
//! image framed into a ~2 MB file. The run loop keeps one buffer for
//! the image and the [`CheckpointHook`] one for the framed file (lent
//! to its writer thread and handed back), so once both have grown to
//! size — by the second checkpoint — capturing, encoding and writing a
//! checkpoint makes no large allocation at all.
//!
//! This is its own test binary so it can install a counting
//! `#[global_allocator]`; the library crates keep `forbid(unsafe_code)`.
//! One `#[test]` only: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use orion_ckpt::CheckpointHook;
use orion_core::{Experiment, RunCheckpoint, RunControl, RunHook, RunResult};
use orion_exp::spec::preset_config;

/// What counts as a large allocation: well under one image or file.
const LARGE: usize = 1 << 20;

struct Counting;

static LARGE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// atomic increment with no effect on the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc`/`realloc` with
        // this `layout` (the caller's obligation, forwarded).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE {
            LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

const EVERY: u64 = 50;

/// Counts checkpoints and starts the large-allocation window once the
/// second one has been handed to the inner hook.
struct Window {
    inner: CheckpointHook,
    seen: u64,
    largest_image: usize,
    start: Option<u64>,
}

impl RunHook for Window {
    fn every(&self) -> u64 {
        self.inner.every()
    }

    fn on_checkpoint(&mut self, ck: &RunCheckpoint) -> RunControl {
        let control = self.inner.on_checkpoint(ck);
        self.seen += 1;
        self.largest_image = self.largest_image.max(ck.net.len());
        if self.seen == 2 {
            self.start = Some(LARGE_ALLOCATIONS.load(Ordering::Relaxed));
        }
        control
    }
}

#[test]
fn steady_state_checkpoints_make_no_large_allocation() {
    let dir = std::env::temp_dir().join(format!("orion-exp-ckpt-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("cell.ckpt");
    let config = preset_config("vc64-t16").expect("a design-grammar preset");
    let mut hook = Window {
        inner: CheckpointHook::new(&path, 16, EVERY, None),
        seen: 0,
        largest_image: 0,
        start: None,
    };
    let result = Experiment::new(config)
        .injection_rate(0.02)
        .seed(5)
        .warmup(300)
        .sample_packets(300)
        .run_with_hook(&mut hook, None)
        .expect("the cell is valid");
    let large = LARGE_ALLOCATIONS.load(Ordering::Relaxed) - hook.start.expect("two checkpoints");
    assert!(matches!(result, RunResult::Finished(_)));
    assert!(hook.seen >= 6, "only {} checkpoints taken", hook.seen);
    assert!(
        hook.largest_image >= LARGE,
        "a {} B image cannot show a large allocation",
        hook.largest_image
    );
    assert_eq!(hook.inner.written(), hook.seen);
    assert_eq!(
        large, 0,
        "{large} allocations of >= 1 MiB across checkpoints 3..={}",
        hook.seen
    );
    let _ = std::fs::remove_dir_all(&dir);
}
