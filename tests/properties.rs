//! Property-based tests (proptest) on the core data structures and
//! model invariants.

use orion::net::{dor_route, DimensionOrder, NodeId, Port, Topology};
use orion::power::{
    ArbiterKind, ArbiterParams, ArbiterPower, Bits, BufferParams, BufferPower, CrossbarKind,
    CrossbarParams, CrossbarPower, WriteActivity,
};
use orion::sim::{scaled_hamming, MatrixArbiter, RoundRobinArbiter};
use orion::tech::{switch_energy, Farads, ProcessNode, Technology, Volts};
use proptest::prelude::*;

fn tech() -> Technology {
    Technology::new(ProcessNode::Nm100)
}

/// Builds a small network for the end-to-end delivery property.
fn mini_network(kx: u32, ky: u32, vcs: usize, wormhole: bool) -> orion::sim::Network {
    use orion::power::*;
    use orion::sim::{Network, NetworkSpec, RouterKind, VcRouterSpec};
    let topo = Topology::torus(&[kx, ky]).expect("valid radices");
    let t = tech();
    let crossbar =
        CrossbarPower::new(&CrossbarParams::new(CrossbarKind::Matrix, 5, 5, 64), t).expect("valid");
    let arbiter = ArbiterPower::new(&ArbiterParams::new(ArbiterKind::Matrix, 5), t).expect("valid");
    let models = orion::sim::PowerModels {
        flit_bits: 64,
        buffer: BufferPower::new(&BufferParams::new(8, 64), t).expect("valid"),
        crossbar,
        arbiter,
        link: LinkPower::on_chip(orion::tech::Microns::from_mm(1.0), 64, t),
        central: None,
    };
    let spec = if wormhole {
        VcRouterSpec::wormhole(5, 8, 64)
    } else {
        VcRouterSpec::virtual_channel(5, vcs, 4, 64)
    };
    Network::new(
        NetworkSpec {
            topology: topo,
            router: RouterKind::Vc(spec),
            packet_len: 3,
            dim_order: DimensionOrder::YFirst,
        },
        models,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ----- Bits / activity -----

    #[test]
    fn bits_set_get_roundtrip(width in 1u32..300, bits in proptest::collection::vec(0u32..300, 0..20)) {
        let mut b = Bits::zero(width);
        let mut expect = std::collections::HashSet::new();
        for raw in bits {
            let i = raw % width;
            b.set(i, true);
            expect.insert(i);
        }
        for i in 0..width {
            prop_assert_eq!(b.get(i), expect.contains(&i));
        }
        prop_assert_eq!(b.count_ones() as usize, expect.len());
    }

    #[test]
    fn hamming_is_a_metric(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let w = 64;
        let (ba, bb, bc) = (Bits::from_u64(a, w), Bits::from_u64(b, w), Bits::from_u64(c, w));
        prop_assert_eq!(ba.hamming(&bb), bb.hamming(&ba));
        prop_assert_eq!(ba.hamming(&ba), 0);
        // Triangle inequality.
        prop_assert!(ba.hamming(&bc) <= ba.hamming(&bb) + bb.hamming(&bc));
    }

    #[test]
    fn scaled_hamming_bounds(a in any::<u64>(), b in any::<u64>(), width in 1u32..512) {
        let h = scaled_hamming(a, b, width);
        prop_assert!(h >= 0.0);
        prop_assert!(h <= width as f64);
        prop_assert_eq!(scaled_hamming(a, a, width), 0.0);
    }

    // ----- Routing -----

    #[test]
    fn dor_routes_reach_and_are_minimal(
        kx in 2u32..6, ky in 2u32..6, src in 0usize..36, dst in 0usize..36,
        y_first in any::<bool>(),
    ) {
        let topo = Topology::torus(&[kx, ky]).expect("valid radices");
        let n = topo.num_nodes();
        let (src, dst) = (NodeId(src % n), NodeId(dst % n));
        let order = if y_first { DimensionOrder::YFirst } else { DimensionOrder::XFirst };
        let route = dor_route(&topo, src, dst, order);
        // Walk the route.
        let mut at = src;
        for hop in route.hops() {
            match hop {
                Port::Local => break,
                Port::Dir { dim, dir } => {
                    at = topo.neighbor(at, *dim as usize, *dir).expect("torus has all links");
                }
            }
        }
        prop_assert_eq!(at, dst);
        prop_assert_eq!(route.network_hops() as u32, topo.distance(src, dst));
    }

    #[test]
    fn mesh_routes_never_leave_grid(
        kx in 2u32..6, ky in 2u32..6, src in 0usize..36, dst in 0usize..36,
    ) {
        let topo = Topology::mesh(&[kx, ky]).expect("valid radices");
        let n = topo.num_nodes();
        let (src, dst) = (NodeId(src % n), NodeId(dst % n));
        let route = dor_route(&topo, src, dst, DimensionOrder::XFirst);
        let mut at = src;
        for hop in route.hops() {
            match hop {
                Port::Local => break,
                Port::Dir { dim, dir } => {
                    let next = topo.neighbor(at, *dim as usize, *dir);
                    prop_assert!(next.is_some(), "route fell off the mesh at {at}");
                    at = next.expect("checked");
                }
            }
        }
        prop_assert_eq!(at, dst);
    }

    #[test]
    fn distance_satisfies_triangle_inequality(
        k in 2u32..5, a in 0usize..25, b in 0usize..25, c in 0usize..25,
    ) {
        let topo = Topology::torus(&[k, k]).expect("valid");
        let n = topo.num_nodes();
        let (a, b, c) = (NodeId(a % n), NodeId(b % n), NodeId(c % n));
        prop_assert!(topo.distance(a, c) <= topo.distance(a, b) + topo.distance(b, c));
    }

    // ----- Arbiters -----

    #[test]
    fn matrix_arbiter_grants_requesters_only(
        r in 2usize..16, masks in proptest::collection::vec(any::<u16>(), 1..40),
    ) {
        let mut arb = MatrixArbiter::new(r);
        for m in masks {
            let mask = (m as u128) & ((1u128 << r) - 1);
            let g = arb.arbitrate(mask);
            match g.winner {
                Some(w) => prop_assert!(mask & (1 << w) != 0),
                None => prop_assert_eq!(mask, 0),
            }
        }
    }

    #[test]
    fn matrix_arbiter_is_starvation_free(r in 2usize..10) {
        // Under a persistent all-request load, every requester is
        // granted within r rounds.
        let mut arb = MatrixArbiter::new(r);
        let all = (1u128 << r) - 1;
        let mut seen = vec![false; r];
        for _ in 0..r {
            let w = arb.arbitrate(all).winner.expect("requests pending");
            seen[w] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "grants {seen:?}");
    }

    #[test]
    fn round_robin_is_fair_under_full_load(r in 2usize..12, rounds in 1usize..4) {
        let mut arb = RoundRobinArbiter::new(r);
        let all = (1u128 << r) - 1;
        let mut counts = vec![0u32; r];
        for _ in 0..r * rounds {
            let w = arb.arbitrate(all).winner.expect("requests pending");
            counts[w] += 1;
        }
        for &c in &counts {
            prop_assert_eq!(c, rounds as u32);
        }
    }

    // ----- End-to-end delivery -----

    #[test]
    fn random_packet_sets_always_delivered(
        kx in 2u32..5, ky in 2u32..5, wormhole in any::<bool>(), vcs in 1usize..4,
        pairs in proptest::collection::vec((0usize..25, 0usize..25), 1..24),
    ) {
        let vcs = if wormhole { 1 } else { vcs.max(2) };
        let mut net = mini_network(kx, ky, vcs, wormhole);
        let n = (kx * ky) as usize;
        let expected = pairs.len() as u64;
        for (a, b) in pairs {
            net.enqueue_packet(NodeId(a % n), NodeId(b % n), true);
        }
        while !net.is_drained() && net.cycle() < 10_000 {
            net.step();
        }
        prop_assert!(net.is_drained(), "undelivered flits after 10k cycles");
        prop_assert_eq!(net.stats().packets_delivered, expected);
        prop_assert_eq!(net.stats().flits_delivered, expected * 3);
        // Energy consistency: node sums equal component sums.
        let by_node: f64 = (0..n).map(|i| net.ledger().node_energy(i).0).sum();
        prop_assert!((net.ledger().total_energy().0 - by_node).abs() < 1e-18);
    }

    // ----- Power model monotonicity -----

    #[test]
    fn buffer_energy_monotone_in_depth(b1 in 1u32..256, b2 in 1u32..256, f in 1u32..256) {
        let (lo, hi) = (b1.min(b2), b1.max(b2));
        prop_assume!(lo != hi);
        let small = BufferPower::new(&BufferParams::new(lo, f), tech()).expect("valid");
        let large = BufferPower::new(&BufferParams::new(hi, f), tech()).expect("valid");
        prop_assert!(large.read_energy().0 > small.read_energy().0);
        prop_assert!(large.write_energy_uniform().0 >= small.write_energy_uniform().0);
    }

    #[test]
    fn buffer_energy_monotone_in_width(b in 1u32..128, f1 in 1u32..256, f2 in 1u32..256) {
        let (lo, hi) = (f1.min(f2), f1.max(f2));
        prop_assume!(lo != hi);
        let narrow = BufferPower::new(&BufferParams::new(b, lo), tech()).expect("valid");
        let wide = BufferPower::new(&BufferParams::new(b, hi), tech()).expect("valid");
        prop_assert!(wide.read_energy().0 > narrow.read_energy().0);
    }

    #[test]
    fn write_energy_linear_in_activity(b in 1u32..64, f in 8u32..256, frac in 0.0f64..1.0) {
        let buf = BufferPower::new(&BufferParams::new(b, f), tech()).expect("valid");
        let zero = buf.write_energy(&WriteActivity::NONE).0;
        let full = buf.write_energy(&WriteActivity::worst_case(f)).0;
        let mid = buf
            .write_energy(&WriteActivity {
                switching_bitlines: frac * f as f64,
                switching_cells: frac * f as f64,
            })
            .0;
        let expect = zero + frac * (full - zero);
        prop_assert!((mid - expect).abs() <= 1e-12 * full.max(1e-30));
    }

    #[test]
    fn crossbar_energy_monotone_in_ports(p1 in 2u32..12, p2 in 2u32..12, w in 8u32..128) {
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        prop_assume!(lo != hi);
        let small = CrossbarPower::new(&CrossbarParams::new(CrossbarKind::Matrix, lo, lo, w), tech())
            .expect("valid");
        let large = CrossbarPower::new(&CrossbarParams::new(CrossbarKind::Matrix, hi, hi, w), tech())
            .expect("valid");
        prop_assert!(large.traversal_energy_uniform().0 > small.traversal_energy_uniform().0);
    }

    #[test]
    fn arbiter_energy_monotone_in_requesters(r1 in 2u32..32, r2 in 2u32..32) {
        let (lo, hi) = (r1.min(r2), r1.max(r2));
        prop_assume!(lo != hi);
        let small = ArbiterPower::new(&ArbiterParams::new(ArbiterKind::Matrix, lo), tech())
            .expect("valid");
        let large = ArbiterPower::new(&ArbiterParams::new(ArbiterKind::Matrix, hi), tech())
            .expect("valid");
        // Same activity on a bigger arbiter costs at least as much.
        let lo_mask = (1u64 << lo) - 1;
        prop_assert!(
            large.arbitration_energy(lo_mask, 0, lo).0
                >= small.arbitration_energy(lo_mask, 0, lo).0
        );
    }

    #[test]
    fn energy_quadratic_in_vdd(cap_ff in 0.1f64..1000.0, v1 in 0.5f64..3.0, scale in 1.01f64..3.0) {
        let c = Farads::from_ff(cap_ff);
        let e1 = switch_energy(c, Volts(v1));
        let e2 = switch_energy(c, Volts(v1 * scale));
        let ratio = e2.0 / e1.0;
        prop_assert!((ratio - scale * scale).abs() < 1e-9 * scale * scale);
    }

    #[test]
    fn all_energies_are_finite_and_nonnegative(
        b in 1u32..512, f in 1u32..512, ports in 1u32..4,
    ) {
        let buf = BufferPower::new(
            &BufferParams::new(b, f).with_ports(ports, ports),
            tech(),
        )
        .expect("valid");
        for e in [buf.read_energy().0, buf.write_energy_uniform().0, buf.write_energy_max().0] {
            prop_assert!(e.is_finite() && e >= 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The invariant auditor, run at its tightest cadence, never fires
    /// on a healthy simulator: across presets, pre-saturation rates
    /// and arbitrary seeds, no run classifies as `Corrupted`. (The
    /// sibling tests in `orion-sim` prove the auditor *does* fire on
    /// deliberately corrupted state — together they pin both error
    /// directions.)
    #[test]
    fn healthy_runs_audit_clean(
        preset_idx in 0usize..4,
        rate in 0.01f64..0.08,
        seed in any::<u64>(),
    ) {
        use orion::core::{presets, Experiment, RunOutcome};
        let config = [
            presets::wh64_onchip(),
            presets::vc16_onchip(),
            presets::vc64_onchip(),
            presets::vc128_onchip(),
        ][preset_idx]
            .clone();
        let report = Experiment::new(config)
            .injection_rate(rate)
            .seed(seed)
            .warmup(50)
            .sample_packets(60)
            .max_cycles(20_000)
            .watchdog_cycles(400)
            .audit_every(1)
            .run()
            .expect("valid configuration");
        prop_assert!(
            !matches!(report.outcome(), RunOutcome::Corrupted { .. }),
            "auditor fired on a healthy run: {}",
            report.outcome()
        );
    }
}
