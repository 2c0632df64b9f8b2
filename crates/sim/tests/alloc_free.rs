//! The allocation-free steady state, as a test (docs/PERFORMANCE.md).
//!
//! After warm-up — source queues, flit arena, event wheels, sink table,
//! route cache and latency sample vector grown to their working size —
//! `inject + step` may allocate only for amortised container growth.
//! In particular the count must not scale with traffic: the credit
//! return path once resolved its upstream router through a freshly
//! collected coordinate `Vec`, two allocator calls per credit.
//!
//! This is its own test binary so it can install a counting
//! `#[global_allocator]`; the library crates keep `forbid(unsafe_code)`.
//! One `#[test]` only: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use orion_net::{DimensionOrder, Topology};
use orion_sim::{CentralRouterSpec, Network, NetworkSpec, RouterKind, VcRouterSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::{models, uniform_cycle, FLIT_BITS};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// atomic increment with no effect on the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc`/`realloc` with
        // this `layout` (the caller's obligation, forwarded).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

const PACKET_LEN: u32 = 5;
const WARMUP_CYCLES: u64 = 5_000;
const MEASURED_CYCLES: u64 = 2_000;
/// Packets per node per cycle: 0.10 flits/cycle/node, well below
/// saturation for all three routers.
const RATE: f64 = 0.02;
/// Amortised growth (a doubling sample vector, a late route-cache
/// entry) — nothing proportional to the thousands of flit-hops and
/// credits in the measured window.
const MAX_ALLOCATIONS: u64 = 64;

/// Uniform-random traffic for `cycles` cycles; returns flits delivered.
fn drive(net: &mut Network, rng: &mut StdRng, cycles: u64) -> u64 {
    let before = net.stats().flits_delivered;
    for _ in 0..cycles {
        uniform_cycle(net, rng, RATE);
    }
    net.stats().flits_delivered - before
}

#[test]
fn steady_state_cycles_do_not_allocate_per_flit_or_credit() {
    let routers = [
        (
            "vc64",
            RouterKind::Vc(VcRouterSpec::virtual_channel(5, 8, 8, FLIT_BITS)),
        ),
        (
            "wh64",
            RouterKind::Vc(VcRouterSpec::wormhole(5, 64, FLIT_BITS)),
        ),
        (
            "central",
            RouterKind::Central(CentralRouterSpec {
                ports: 5,
                input_depth: 8,
                capacity: 4 * 64,
                write_ports: 2,
                read_ports: 2,
                flit_bits: FLIT_BITS,
            }),
        ),
    ];
    for (name, router) in routers {
        let central = matches!(router, RouterKind::Central(_));
        let mut net = Network::new(
            NetworkSpec {
                topology: Topology::torus(&[4, 4]).expect("4x4 torus is valid"),
                router,
                packet_len: PACKET_LEN,
                dim_order: DimensionOrder::YFirst,
            },
            models(central),
        );
        let mut rng = StdRng::seed_from_u64(7);
        drive(&mut net, &mut rng, WARMUP_CYCLES);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let delivered = drive(&mut net, &mut rng, MEASURED_CYCLES);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert!(
            delivered > 1_000,
            "{name}: only {delivered} flits delivered — the window measured nothing"
        );
        assert!(
            allocations <= MAX_ALLOCATIONS,
            "{name}: {allocations} allocations across {MEASURED_CYCLES} steady-state cycles \
             ({delivered} flits delivered); the hot loop must not allocate per flit or credit"
        );
    }
}
