//! The allocation-free steady state and the construction footprint,
//! as tests (docs/PERFORMANCE.md).
//!
//! After warm-up — source queues, flit arena, event wheels, sink table,
//! step-output scratch and latency sample vector grown to their working
//! size — `inject + step` may allocate only for amortised container
//! growth. In particular the count must not scale with traffic: the
//! credit return path once resolved its upstream router through a
//! freshly collected coordinate `Vec`, two allocator calls per credit.
//!
//! Construction lays a router out as a few slabs (docs/PERFORMANCE.md
//! § Router state layout): a bounded number of allocations per router
//! and a bounded heap per router on a 32×32 network.
//!
//! This is its own test binary so it can install a counting
//! `#[global_allocator]`; the library crates keep `forbid(unsafe_code)`.
//! The counters are per thread, so each test (on its own thread) sees
//! only its own allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use orion_net::{DimensionOrder, Topology};
use orion_sim::{CentralRouterSpec, Network, NetworkSpec, RouterKind, VcRouter, VcRouterSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::{models, uniform_cycle, FLIT_BITS};

struct Counting;

thread_local! {
    /// Allocator calls (`alloc` and `realloc`) made on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Records one allocator call that changes this thread's live heap by
/// `delta` bytes. Const-initialised thread locals without destructors
/// never allocate, so this cannot recurse into the allocator.
fn record(calls: u64, delta: i64) {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + calls));
    let _ = LIVE_BYTES.try_with(|b| b.set(b.get() + delta));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are
// thread-local integers with no effect on the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64);
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as i64));
        // SAFETY: `ptr` was returned by `System.alloc`/`realloc` with
        // this `layout` (the caller's obligation, forwarded).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size as i64 - layout.size() as i64);
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
/// Amortised growth (a doubling sample vector, a late sink-table
/// rehash) — nothing proportional to the thousands of flit-hops and
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
        let before = allocations();
        let delivered = drive(&mut net, &mut rng, MEASURED_CYCLES);
        let allocations = allocations() - before;
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

/// A VC64 router (5 ports × 8 VCs × 8 flits) is a handful of slabs,
/// not an allocation per input-VC FIFO.
const MAX_ROUTER_ALLOCATIONS: u64 = 16;
/// Heap per router of a 32×32 VC64 network, engine rows included.
const MAX_HEAP_PER_ROUTER: i64 = 11 * 1024;

#[test]
fn construction_lays_routers_out_as_a_few_slabs() {
    let vc64 = VcRouterSpec::virtual_channel(5, 8, 8, FLIT_BITS);
    let before = allocations();
    let router = VcRouter::new(0, vc64.clone());
    let made = allocations() - before;
    drop(router);
    assert!(
        made <= MAX_ROUTER_ALLOCATIONS,
        "VcRouter::new made {made} allocations for VC64 (at most {MAX_ROUTER_ALLOCATIONS})"
    );

    let spec = NetworkSpec {
        topology: Topology::torus(&[32, 32]).expect("32x32 torus is valid"),
        router: RouterKind::Vc(vc64),
        packet_len: PACKET_LEN,
        dim_order: DimensionOrder::YFirst,
    };
    let models = models(false);
    let before = live_bytes();
    let net = Network::new(spec, models);
    let per_router = (live_bytes() - before) / 1024;
    drop(net);
    assert!(
        per_router <= MAX_HEAP_PER_ROUTER,
        "a 32x32 VC64 network holds {per_router} B of heap per router \
         (at most {MAX_HEAP_PER_ROUTER})"
    );
}
