//! Cross-crate invariant tests: conservation, determinism and
//! consistency properties that must hold for any workload and router.

use orion::core::{presets, Experiment, LinkConfig, NetworkConfig, Report, RouterConfig};
use orion::net::{DimensionOrder, NodeId, Topology, TrafficPattern};
use orion::sim::{
    Component, Network, NetworkSpec, PowerModels, RouterKind, VcDiscipline, VcRouterSpec,
};
use orion::tech::{Hertz, Microns, ProcessNode, Technology, Watts};

fn models(flit_bits: u32) -> PowerModels {
    use orion::power::*;
    let tech = Technology::new(ProcessNode::Nm100);
    let crossbar = CrossbarPower::new(
        &CrossbarParams::new(CrossbarKind::Matrix, 5, 5, flit_bits),
        tech,
    )
    .expect("valid");
    let arbiter = ArbiterPower::new(&ArbiterParams::new(ArbiterKind::Matrix, 5), tech)
        .expect("valid")
        .with_control_energy(crossbar.control_energy());
    PowerModels {
        flit_bits,
        buffer: BufferPower::new(&BufferParams::new(16, flit_bits), tech).expect("valid"),
        crossbar,
        arbiter,
        link: LinkPower::on_chip(Microns::from_mm(3.0), flit_bits, tech),
        central: None,
    }
}

fn vc_network(vcs: usize, depth: usize, discipline: VcDiscipline) -> Network {
    Network::new(
        NetworkSpec {
            topology: Topology::torus(&[4, 4]).expect("valid"),
            router: RouterKind::Vc(
                VcRouterSpec::virtual_channel(5, vcs, depth, 64).with_discipline(discipline),
            ),
            packet_len: 5,
            dim_order: DimensionOrder::YFirst,
        },
        models(64),
    )
}

#[test]
fn every_packet_delivered_exactly_once_all_pairs() {
    for discipline in [
        VcDiscipline::Unrestricted,
        VcDiscipline::Dateline,
        VcDiscipline::Escape,
    ] {
        let mut net = vc_network(4, 4, discipline);
        let topo = Topology::torus(&[4, 4]).expect("valid");
        let mut expected = 0;
        for a in topo.nodes() {
            for b in topo.nodes() {
                net.enqueue_packet(a, b, true);
                expected += 1;
            }
        }
        while !net.is_drained() && net.cycle() < 20_000 {
            net.step();
        }
        assert!(net.is_drained(), "{discipline:?} failed to drain");
        assert_eq!(net.stats().packets_delivered, expected);
        assert_eq!(net.stats().flits_delivered, expected * 5);
        assert_eq!(net.stats().sample_count(), expected as usize);
    }
}

#[test]
fn mesh_networks_also_deliver() {
    let topo = Topology::mesh(&[3, 3]).expect("valid");
    let mut net = Network::new(
        NetworkSpec {
            topology: topo.clone(),
            router: RouterKind::Vc(VcRouterSpec::wormhole(5, 8, 64)),
            packet_len: 3,
            dim_order: DimensionOrder::XFirst,
        },
        models(64),
    );
    for a in topo.nodes() {
        for b in topo.nodes() {
            net.enqueue_packet(a, b, true);
        }
    }
    while !net.is_drained() && net.cycle() < 20_000 {
        net.step();
    }
    assert!(net.is_drained());
    assert_eq!(net.stats().packets_delivered, 81);
}

#[test]
fn dateline_discipline_survives_deep_saturation() {
    // The whole point of dateline classes: no deadlock even far past
    // saturation.
    use rand::{rngs::StdRng, SeedableRng};
    let mut net = vc_network(2, 8, VcDiscipline::Dateline);
    let topo = Topology::torus(&[4, 4]).expect("valid");
    let mut pattern = TrafficPattern::uniform(&topo, 0.5).expect("valid rate");
    let mut rng = StdRng::seed_from_u64(13);
    for _ in 0..3000 {
        for node in topo.nodes() {
            if pattern.should_inject(node, &mut rng) {
                let dst = pattern.destination(node, &mut rng).expect("uniform");
                net.enqueue_packet(node, dst, false);
            }
        }
        net.step();
        assert!(
            !net.is_deadlocked(1500),
            "dateline network deadlocked at cycle {}",
            net.cycle()
        );
    }
    assert!(net.stats().packets_delivered > 1000);
}

#[test]
fn escape_discipline_survives_deep_saturation() {
    use rand::{rngs::StdRng, SeedableRng};
    let mut net = vc_network(4, 4, VcDiscipline::Escape);
    let topo = Topology::torus(&[4, 4]).expect("valid");
    let mut pattern = TrafficPattern::uniform(&topo, 0.5).expect("valid rate");
    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..3000 {
        for node in topo.nodes() {
            if pattern.should_inject(node, &mut rng) {
                let dst = pattern.destination(node, &mut rng).expect("uniform");
                net.enqueue_packet(node, dst, false);
            }
        }
        net.step();
        assert!(
            !net.is_deadlocked(1500),
            "escape network deadlocked at cycle {}",
            net.cycle()
        );
    }
}

#[test]
fn report_totals_equal_component_sums() {
    let report = Experiment::new(presets::vc16_onchip())
        .injection_rate(0.05)
        .warmup(200)
        .sample_packets(300)
        .max_cycles(50_000)
        .run()
        .expect("valid");
    let by_component: f64 = Component::ALL
        .iter()
        .map(|&c| report.component_power(c).0)
        .sum();
    let by_node: f64 = report.power_map().iter().map(|w| w.0).sum();
    assert!((report.total_power().0 - by_component).abs() < 1e-9);
    assert!((report.total_power().0 - by_node).abs() < 1e-9);
}

#[test]
fn experiments_are_deterministic_per_seed() {
    let run = |seed: u64| -> (f64, f64, u64) {
        let r = Experiment::new(presets::vc64_onchip())
            .injection_rate(0.07)
            .seed(seed)
            .warmup(200)
            .sample_packets(300)
            .max_cycles(50_000)
            .run()
            .expect("valid");
        (r.avg_latency(), r.total_power().0, r.measured_cycles())
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

#[test]
fn chip_to_chip_static_power_floor_is_exact() {
    // 16 nodes × 4 links × 3 W = 192 W even at zero dynamic activity.
    let report = Experiment::new(presets::xb_chip_to_chip())
        .injection_rate(0.0)
        .warmup(100)
        .run()
        .expect("valid");
    assert!((report.total_power().0 - 192.0).abs() < 1e-9);
    assert_eq!(report.component_power(Component::Link), Watts(192.0));
}

#[test]
fn zero_load_latency_analytic_model_matches_measurement() {
    // At a very low rate the measured average approaches the analytic
    // zero-load latency for every router family.
    for (cfg, tolerance) in [
        (presets::wh64_onchip(), 0.08),
        (presets::vc16_onchip(), 0.08),
        (presets::cb_chip_to_chip(), 0.08),
    ] {
        let t0 = cfg.zero_load_latency();
        let r = Experiment::new(cfg)
            .injection_rate(0.005)
            .warmup(200)
            .sample_packets(300)
            .max_cycles(200_000)
            .run()
            .expect("valid");
        let rel = (r.avg_latency() - t0).abs() / t0;
        assert!(
            rel < tolerance,
            "measured {} vs analytic {t0} (rel {rel:.3})",
            r.avg_latency()
        );
    }
}

#[test]
fn energy_scales_with_activity_not_just_operations() {
    // Two runs with the same op counts but different data would differ;
    // here: zero traffic has exactly zero dynamic energy.
    let report = Experiment::new(presets::vc16_onchip())
        .injection_rate(0.0)
        .warmup(100)
        .run()
        .expect("valid");
    for c in Component::ALL {
        assert_eq!(report.component_power(c).0, 0.0, "{c}");
    }
}

#[test]
fn wider_flits_cost_more_energy() {
    let run_width = |bits: u32| {
        let cfg = NetworkConfig::new(
            Topology::torus(&[4, 4]).expect("valid"),
            RouterConfig::VirtualChannel { vcs: 2, depth: 8 },
            bits,
        )
        .clock(Hertz::from_ghz(2.0))
        .link(LinkConfig::OnChip {
            length: Microns::from_mm(3.0),
        });
        Experiment::new(cfg)
            .injection_rate(0.05)
            .seed(3)
            .warmup(200)
            .sample_packets(300)
            .max_cycles(50_000)
            .run()
            .expect("valid")
            .total_power()
            .0
    };
    let narrow = run_width(64);
    let wide = run_width(256);
    assert!(wide > 2.0 * narrow, "wide {wide} vs narrow {narrow}");
}

#[test]
fn self_traffic_consumes_no_link_energy() {
    let topo = Topology::torus(&[4, 4]).expect("valid");
    let mut net = Network::new(
        NetworkSpec {
            topology: topo.clone(),
            router: RouterKind::Vc(VcRouterSpec::wormhole(5, 8, 64)),
            packet_len: 5,
            dim_order: DimensionOrder::YFirst,
        },
        models(64),
    );
    for n in topo.nodes() {
        net.enqueue_packet(n, n, true);
    }
    while !net.is_drained() && net.cycle() < 5_000 {
        net.step();
    }
    assert!(net.is_drained());
    assert_eq!(net.ledger().total_ops(Component::Link), 0);
    assert_eq!(net.ledger().component_energy(Component::Link).0, 0.0);
}

#[test]
fn report_breakdown_fractions_sum_to_one() {
    let report: Report = Experiment::new(presets::cb_chip_to_chip())
        .injection_rate(0.06)
        .warmup(200)
        .sample_packets(300)
        .max_cycles(50_000)
        .run()
        .expect("valid");
    let total: f64 = report.breakdown().iter().map(|(_, _, f)| f).sum();
    assert!((total - 1.0).abs() < 1e-9);
}

#[test]
fn deep_saturation_terminates_early_via_watchdog() {
    // A wormhole torus without dateline VCs driven deep past
    // saturation must not wait out its million-cycle budget: the
    // watchdog (or the backlog-divergence check) classifies the run
    // and stops it. Acceptance criterion of the robustness tentpole.
    use orion::core::RunOutcome;
    const BUDGET: u64 = 1_000_000;
    let report = Experiment::new(presets::wh64_onchip())
        .injection_rate(0.5)
        .seed(11)
        .warmup(100)
        .sample_packets(5_000)
        .max_cycles(BUDGET)
        .watchdog_cycles(500)
        .run()
        .expect("valid config");
    match report.outcome() {
        RunOutcome::Deadlocked(diag) => {
            assert!(!diag.is_empty(), "diagnostics must name stalled VCs");
            assert!(
                diag.blocked_head_flits() > 0,
                "a deadlock blocks head flits"
            );
            assert!(
                diag.cycle < BUDGET / 2,
                "watchdog fired at {} — not 'well under' the {BUDGET} budget",
                diag.cycle
            );
            assert!(diag.flits_in_network > 0);
        }
        RunOutcome::Saturated => {
            assert!(
                report.measured_cycles() < BUDGET / 2,
                "divergence check must stop the run early"
            );
        }
        other => panic!("expected Deadlocked or Saturated, got {other:?}"),
    }
    assert!(report.is_saturated());
}

#[test]
fn sweep_isolates_the_deadlock_prone_point() {
    // An injection sweep containing a deadlock-prone rate still
    // returns results for every other rate, and the degraded point
    // carries its outcome instead of poisoning the sweep.
    use orion::core::RunOutcome;
    let points: Vec<_> = [0.02, 0.5]
        .into_iter()
        .map(|rate| {
            Experiment::new(presets::wh64_onchip())
                .injection_rate(rate)
                .seed(3)
                .warmup(200)
                .sample_packets(300)
                .max_cycles(100_000)
                .run()
                .expect("sweep must not abort")
        })
        .collect();
    assert_eq!(points.len(), 2, "every rate reported");
    assert_eq!(points[0].outcome(), &RunOutcome::Completed);
    assert!(
        matches!(
            points[1].outcome(),
            RunOutcome::Deadlocked(_) | RunOutcome::Saturated | RunOutcome::BudgetExhausted
        ),
        "0.5 is deep past saturation: {:?}",
        points[1].outcome()
    );
    assert!(points[1].is_saturated());
}

#[test]
fn trace_replay_matches_live_pattern_statistics() {
    use orion::net::TraceTraffic;
    use rand::{rngs::StdRng, SeedableRng};
    let topo = Topology::torus(&[4, 4]).expect("valid");
    let mut pattern = TrafficPattern::uniform(&topo, 0.1).expect("valid rate");
    let mut rng = StdRng::seed_from_u64(21);
    let mut trace = TraceTraffic::record(&mut pattern, 2_000, &mut rng);
    let events = trace.events().len();
    assert!((2_400..4_000).contains(&events), "{events} events");

    // Replay the trace through a network; every traced packet arrives.
    let mut net = vc_network(2, 8, VcDiscipline::Unrestricted);
    let mut cycle = 0u64;
    while !(trace.is_exhausted() && net.is_drained()) && cycle < 40_000 {
        let pairs: Vec<(NodeId, NodeId)> = trace.injections_at(cycle).collect();
        for (src, dst) in pairs {
            net.enqueue_packet(src, dst, true);
        }
        net.step();
        cycle += 1;
    }
    assert!(net.is_drained());
    assert_eq!(net.stats().packets_delivered as usize, events);
}
