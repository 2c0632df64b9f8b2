//! Golden fingerprints for the router geometries at the edges of the
//! state layout: the widest VC routers the 128-bit request masks admit
//! (125 and 126 input VCs), the deepest preset buffer (`xb`, 16 VCs ×
//! 268 flits), the 64-flit wormhole router and a central-buffered
//! router.
//!
//! Each configuration runs a few hundred cycles of uniform traffic.
//! Its line in `golden_edge_geometry.txt` holds two digests: one of
//! the `snapshot()` bytes taken at a mid-run cycle, and one folding
//! the latency samples in delivery order and every node's
//! per-component energy bits and operation counts. A change to the
//! router's state layout that moves a grant or an energy bit moves the
//! second; a change to the image format moves only the first.
//!
//! Regenerate (only when a result or the snapshot format is *meant* to
//! change) with
//! `cargo test -p orion-sim --test edge_geometry_golden -- --ignored bless`.

use std::fmt::Write as _;

use orion_net::{DimensionOrder, Topology};
use orion_sim::{CentralRouterSpec, Component, Network, NetworkSpec, RouterKind, VcRouterSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::{models, uniform_cycle, FLIT_BITS};

const GOLDEN: &str = include_str!("golden_edge_geometry.txt");
const PACKET_LEN: u32 = 5;
const CYCLES: u64 = 400;
/// The cycle whose `snapshot()` bytes enter the digest.
const SNAPSHOT_AT: u64 = 200;

/// `(name, topology, router, packets per node per cycle)` for every
/// configuration under test.
fn configurations() -> Vec<(&'static str, Topology, RouterKind, f64)> {
    let torus2 = || Topology::torus(&[4, 4]).expect("4x4 torus is valid");
    let torus3 = Topology::torus(&[3, 3, 3]).expect("3x3x3 torus is valid");
    vec![
        (
            "vc25x2-t4x4",
            torus2(),
            RouterKind::Vc(VcRouterSpec::virtual_channel(5, 25, 2, FLIT_BITS)),
            0.2,
        ),
        (
            "vc18x2-t3x3x3",
            torus3,
            RouterKind::Vc(VcRouterSpec::virtual_channel(7, 18, 2, FLIT_BITS)),
            0.2,
        ),
        (
            "xb16x268-t4x4",
            torus2(),
            RouterKind::Vc(VcRouterSpec::virtual_channel(5, 16, 268, 32)),
            0.3,
        ),
        (
            "wh64-t4x4",
            torus2(),
            RouterKind::Vc(VcRouterSpec::wormhole(5, 64, FLIT_BITS)),
            0.2,
        ),
        (
            "central-t4x4",
            torus2(),
            RouterKind::Central(CentralRouterSpec {
                ports: 5,
                input_depth: 8,
                capacity: 4 * 64,
                write_ports: 2,
                read_ports: 2,
                flit_bits: FLIT_BITS,
            }),
            0.2,
        ),
    ]
}

fn fnv1a64(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Runs one configuration and renders its golden line:
/// `name;injected;delivered;flits;snapshot_len;snapshot_digest;digest`.
fn run(name: &str, topology: Topology, router: RouterKind, rate: f64) -> String {
    let nodes = topology.num_nodes();
    let central = matches!(router, RouterKind::Central(_));
    let mut net = Network::new(
        NetworkSpec {
            topology,
            router,
            packet_len: PACKET_LEN,
            dim_order: DimensionOrder::YFirst,
        },
        models(central),
    );
    let mut rng = StdRng::seed_from_u64(0xed6e_6e0d);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut snapshot_digest = digest;
    let mut snapshot_len = 0;
    for cycle in 0..CYCLES {
        if cycle == SNAPSHOT_AT {
            let image = net.snapshot();
            snapshot_len = image.len();
            fnv1a64(&mut snapshot_digest, &image);
        }
        uniform_cycle(&mut net, &mut rng, rate);
    }
    let stats = net.stats();
    for &latency in stats.latencies() {
        fnv1a64(&mut digest, &latency.to_le_bytes());
    }
    for node in 0..nodes {
        for component in Component::ALL {
            let ledger = net.ledger();
            fnv1a64(
                &mut digest,
                &ledger.energy(node, component).0.to_bits().to_le_bytes(),
            );
            fnv1a64(&mut digest, &ledger.op_count(node, component).to_le_bytes());
        }
    }
    format!(
        "{name};{};{};{};{snapshot_len};{snapshot_digest:016x};{digest:016x}",
        stats.packets_injected, stats.packets_delivered, stats.flits_delivered,
    )
}

fn render() -> String {
    let mut text = String::new();
    for (name, topology, router, rate) in configurations() {
        writeln!(text, "{}", run(name, topology, router, rate)).expect("writing to a String");
    }
    text
}

#[test]
fn edge_geometries_reproduce_golden_fingerprints() {
    let actual = render();
    for (want, got) in GOLDEN.lines().zip(actual.lines()) {
        assert_eq!(got, want, "edge-geometry fingerprint moved");
    }
    assert_eq!(actual.lines().count(), GOLDEN.lines().count());
}

#[test]
#[ignore = "rewrites golden_edge_geometry.txt from the current code"]
fn bless() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden_edge_geometry.txt"
    );
    std::fs::write(path, render()).expect("golden file is writable");
}
