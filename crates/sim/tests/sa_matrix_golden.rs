//! Golden fingerprints for the switch/VC allocator configurations the
//! committed grids never run (they use only `sa_iterations` = 3 (VC) /
//! 1 (wormhole), `Unrestricted`, `FlitLevel`).
//!
//! Every valid combination of `sa_iterations` ∈ {1, 2, 3} ×
//! {`Unrestricted`, `Dateline`, `Escape`} × {`FlitLevel`, `CutThrough`,
//! `Bubble`} on an 8-VC router (with 4 VCs a third iteration never
//! found a bid), plus the wormhole router under each flow control, is
//! driven past saturation on a 4×4 torus; the run's latency
//! samples, per-node per-component energy bits and operation counts are
//! folded into one line of `golden_sa_matrix.txt`. Any change to the
//! matcher that moves a single grant moves a digest.
//!
//! Regenerate (only when a statistic is *meant* to change) with
//! `cargo test -p orion-sim --test sa_matrix_golden -- --ignored bless`.

use std::fmt::Write as _;

use orion_net::{DimensionOrder, Topology};
use orion_sim::{
    Component, FlowControl, Network, NetworkSpec, RouterKind, VcDiscipline, VcRouterSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::{models, uniform_cycle, FLIT_BITS};

const GOLDEN: &str = include_str!("golden_sa_matrix.txt");
const PACKET_LEN: u32 = 5;
/// Deep enough for a bubble-flow-control head (`2 * PACKET_LEN`).
const DEPTH: usize = 10;
const CYCLES: u64 = 1_200;
/// Packets per node per cycle: 1.5 flits/cycle/node offered, several
/// times what a 4×4 torus accepts.
const RATE: f64 = 0.3;

/// `(name, router spec)` for every configuration under test.
fn matrix() -> Vec<(String, VcRouterSpec)> {
    let flows = [
        ("flit", FlowControl::FlitLevel),
        ("cut", FlowControl::CutThrough),
        ("bubble", FlowControl::Bubble),
    ];
    let disciplines = [
        ("unrestricted", VcDiscipline::Unrestricted),
        ("dateline", VcDiscipline::Dateline),
        ("escape", VcDiscipline::Escape),
    ];
    let mut out = Vec::new();
    for sa_iterations in 1..=3 {
        for (dname, discipline) in disciplines {
            for (fname, flow) in flows {
                let mut spec = VcRouterSpec::virtual_channel(5, 8, DEPTH, FLIT_BITS)
                    .with_discipline(discipline)
                    .with_flow_control(flow);
                spec.sa_iterations = sa_iterations;
                out.push((format!("vc8-sa{sa_iterations}-{dname}-{fname}"), spec));
            }
        }
        // A wormhole router has one VC, hence no dateline/escape split.
        for (fname, flow) in flows {
            let mut spec = VcRouterSpec::wormhole(5, DEPTH, FLIT_BITS).with_flow_control(flow);
            spec.sa_iterations = sa_iterations;
            out.push((format!("wh-sa{sa_iterations}-unrestricted-{fname}"), spec));
        }
    }
    out
}

fn fnv1a64(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Runs one configuration and renders its golden line:
/// `name;injected;delivered;flits;latency_sum;digest`, the digest
/// covering the latency samples in delivery order and every node's
/// per-component energy bits and operation counts.
fn run(name: &str, router: VcRouterSpec) -> String {
    let topology = Topology::torus(&[4, 4]).expect("4x4 torus is valid");
    let nodes = topology.num_nodes();
    let mut net = Network::new(
        NetworkSpec {
            topology,
            router: RouterKind::Vc(router),
            packet_len: PACKET_LEN,
            dim_order: DimensionOrder::YFirst,
        },
        models(false),
    );
    let mut rng = StdRng::seed_from_u64(0x5a17_c0de);
    for _ in 0..CYCLES {
        uniform_cycle(&mut net, &mut rng, RATE);
    }
    let stats = net.stats();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for &latency in stats.latencies() {
        fnv1a64(&mut digest, latency);
    }
    for node in 0..nodes {
        for component in Component::ALL {
            fnv1a64(
                &mut digest,
                net.ledger().energy(node, component).0.to_bits(),
            );
            fnv1a64(&mut digest, net.ledger().op_count(node, component));
        }
    }
    format!(
        "{name};{};{};{};{};{digest:016x}",
        stats.packets_injected,
        stats.packets_delivered,
        stats.flits_delivered,
        stats.latencies().iter().sum::<u64>(),
    )
}

fn render() -> String {
    let mut text = String::new();
    for (name, spec) in matrix() {
        writeln!(text, "{}", run(&name, spec)).expect("writing to a String");
    }
    text
}

#[test]
fn allocator_matrix_reproduces_golden_fingerprints() {
    let actual = render();
    for (want, got) in GOLDEN.lines().zip(actual.lines()) {
        assert_eq!(got, want, "allocator fingerprint moved");
    }
    assert_eq!(actual.lines().count(), GOLDEN.lines().count());
}

#[test]
#[ignore = "rewrites golden_sa_matrix.txt from the current code"]
fn bless() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_sa_matrix.txt");
    std::fs::write(path, render()).expect("golden file is writable");
}
