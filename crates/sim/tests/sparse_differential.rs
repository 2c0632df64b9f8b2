//! Sparse-vs-dense differential harness (see docs/PERFORMANCE.md,
//! "Sparse activity-driven stepping").
//!
//! The activity-driven sparse engine is the default; the exhaustive
//! dense stepper survives as [`EngineMode::DenseReference`] precisely
//! so this suite can hold the two against each other on randomized
//! workloads and demand **bit identity**: same latency samples, same
//! delivered packet ids in the same order, same per-node per-component
//! energy down to `f64::to_bits`, and byte-identical snapshot images.
//!
//! The matrix proptest fuzzes all four router families (wormhole,
//! VC-unrestricted, VC-dateline, central-buffered) on meshes and tori,
//! with and without observability sinks, and watchdog polling; separate
//! tests add mid-run cross-engine checkpoint restore
//! and the sharded engine at 1/2/8 shards. Alongside the identity
//! checks, every audited cycle asserts the active-set invariant: the
//! activity bitsets name exactly the routers and sources with work (no
//! stale actives, no lost wakeups), fuzzed over random specs and
//! traffic — the [`InvariantAuditor`] reports any divergence as an
//! `active-set-mismatch` / `source-set-mismatch` violation.

use orion_net::{DimensionOrder, NodeId, Topology};
use orion_power::{
    ArbiterKind, ArbiterParams, ArbiterPower, BufferParams, BufferPower, CentralBufferParams,
    CentralBufferPower, CrossbarKind, CrossbarParams, CrossbarPower, LinkPower,
};
use orion_shard::ShardedNetwork;
use orion_sim::{
    CentralRouterSpec, Component, EngineMode, Network, NetworkSpec, ObsSink, PowerModels,
    RouterKind, SimStats, VcDiscipline, VcRouterSpec,
};
use orion_tech::{Microns, ProcessNode, Technology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FLIT_BITS: u32 = 64;
const PACKET_LEN: u32 = 5;

fn models(central: bool) -> PowerModels {
    let tech = Technology::new(ProcessNode::Nm100);
    let crossbar = CrossbarPower::new(
        &CrossbarParams::new(CrossbarKind::Matrix, 5, 5, FLIT_BITS),
        tech,
    )
    .expect("valid crossbar");
    let arbiter = ArbiterPower::new(&ArbiterParams::new(ArbiterKind::Matrix, 5), tech)
        .expect("valid arbiter")
        .with_control_energy(crossbar.control_energy());
    PowerModels {
        flit_bits: FLIT_BITS,
        buffer: BufferPower::new(&BufferParams::new(16, FLIT_BITS), tech).expect("valid buffer"),
        crossbar,
        arbiter,
        link: LinkPower::on_chip(Microns::from_mm(3.0), FLIT_BITS, tech),
        central: central.then(|| {
            CentralBufferPower::new(
                &CentralBufferParams::new(4, 64, FLIT_BITS).with_ports(2, 2),
                tech,
            )
            .expect("valid central buffer")
        }),
    }
}

/// One of the four router families under test, by index.
fn router_family(family: u8) -> RouterKind {
    match family % 4 {
        0 => RouterKind::Vc(VcRouterSpec::wormhole(5, 16, FLIT_BITS)),
        1 => RouterKind::Vc(VcRouterSpec::virtual_channel(5, 2, 8, FLIT_BITS)),
        2 => RouterKind::Vc(
            VcRouterSpec::virtual_channel(5, 4, 8, FLIT_BITS)
                .with_discipline(VcDiscipline::Dateline),
        ),
        _ => RouterKind::Central(CentralRouterSpec {
            ports: 5,
            input_depth: 8,
            capacity: 4 * 64,
            write_ports: 2,
            read_ports: 2,
            flit_bits: FLIT_BITS,
        }),
    }
}

fn spec(family: u8, mesh: bool) -> NetworkSpec {
    let topology = if mesh {
        Topology::mesh(&[4, 4]).expect("4x4 mesh is valid")
    } else {
        Topology::torus(&[4, 4]).expect("4x4 torus is valid")
    };
    NetworkSpec {
        topology,
        router: router_family(family),
        packet_len: PACKET_LEN,
        dim_order: DimensionOrder::YFirst,
    }
}

/// A deterministic workload: `(cycle, src, dst)` injections drawn once
/// from `seed` and replayed identically into every engine under test.
fn workload(seed: u64, nodes: usize, cycles: u64, rate_millis: u64) -> Vec<(u64, NodeId, NodeId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::new();
    for cycle in 0..cycles {
        for src in 0..nodes {
            if rng.gen_bool(rate_millis as f64 / 1000.0) {
                let dst = rng.gen_range(0..nodes - 1);
                let dst = if dst >= src { dst + 1 } else { dst };
                events.push((cycle, NodeId(src), NodeId(dst)));
            }
        }
    }
    events
}

/// Every bit-sensitive observable of a run, for exact comparison.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    cycle: u64,
    packets_injected: u64,
    packets_delivered: u64,
    flits_delivered: u64,
    latencies: Vec<u64>,
    delivery_log: Vec<u64>,
    energy_bits: Vec<u64>,
}

fn energy_bits(nodes: usize, energy: impl Fn(usize, Component) -> f64) -> Vec<u64> {
    let mut bits = Vec::with_capacity(nodes * Component::ALL.len());
    for node in 0..nodes {
        for component in Component::ALL {
            bits.push(energy(node, component).to_bits());
        }
    }
    bits
}

fn stats_part(stats: &SimStats) -> (u64, u64, u64, Vec<u64>) {
    (
        stats.packets_injected,
        stats.packets_delivered,
        stats.flits_delivered,
        stats.latencies().to_vec(),
    )
}

fn fingerprint(net: &Network) -> Fingerprint {
    let nodes = net.spec().topology.num_nodes();
    let (packets_injected, packets_delivered, flits_delivered, latencies) = stats_part(net.stats());
    Fingerprint {
        cycle: net.cycle(),
        packets_injected,
        packets_delivered,
        flits_delivered,
        latencies,
        delivery_log: net.delivery_log().to_vec(),
        energy_bits: energy_bits(nodes, |node, c| net.ledger().energy(node, c).0),
    }
}

fn fingerprint_sharded(net: &ShardedNetwork) -> Fingerprint {
    let nodes = net.spec().topology.num_nodes();
    let stats = net.stats_merged();
    let (packets_injected, packets_delivered, flits_delivered, latencies) = stats_part(&stats);
    Fingerprint {
        cycle: net.cycle(),
        packets_injected,
        packets_delivered,
        flits_delivered,
        latencies,
        delivery_log: Vec::new(), // per-packet ids compared via mono engines
        energy_bits: energy_bits(nodes, |node, c| net.node_energy(node, c).0),
    }
}

/// Asserts the activity bitsets agree with reality on `net`: the audit
/// must contain no active-set or source-set mismatch (other violation
/// kinds — none are expected either — would fail the engine equality
/// checks separately).
fn assert_active_set_invariant(
    net: &Network,
    cycle: u64,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let violations = net.audit();
    prop_assert!(
        violations
            .iter()
            .all(|v| v.kind() != "active-set-mismatch" && v.kind() != "source-set-mismatch"),
        "active-set invariant broken at cycle {cycle}: {violations:?}"
    );
    Ok(())
}

struct EnginePair {
    sparse: Network,
    dense: Network,
}

impl EnginePair {
    fn new(spec: &NetworkSpec, obs_on: bool) -> EnginePair {
        let central = matches!(spec.router, RouterKind::Central(_));
        let build = |mode: EngineMode| {
            let mut net = Network::new(spec.clone(), models(central));
            net.set_engine_mode(mode);
            if obs_on {
                net.set_obs(ObsSink::new());
            }
            net
        };
        EnginePair {
            sparse: build(EngineMode::Sparse),
            dense: build(EngineMode::DenseReference),
        }
    }

    /// Replays `events` into both engines for `total` cycles (stopping
    /// early once both drain), comparing watchdog verdicts every cycle
    /// and audits every `audit_every` cycles.
    fn drive(
        &mut self,
        events: &[(u64, NodeId, NodeId)],
        total: u64,
        window: u64,
        audit_every: u64,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let mut cursor = 0;
        while self.sparse.cycle() < total {
            let cycle = self.sparse.cycle();
            while cursor < events.len() && events[cursor].0 == cycle {
                let (_, src, dst) = events[cursor];
                let a = self.sparse.enqueue_packet(src, dst, true);
                let b = self.dense.enqueue_packet(src, dst, true);
                prop_assert_eq!(a, b);
                cursor += 1;
            }
            self.sparse.step();
            self.dense.step();
            prop_assert_eq!(
                self.sparse.check_stall(window),
                self.dense.check_stall(window)
            );
            if (cycle + 1).is_multiple_of(audit_every) {
                assert_active_set_invariant(&self.sparse, cycle + 1)?;
                prop_assert_eq!(self.sparse.audit(), self.dense.audit());
            }
            if cursor >= events.len() && self.sparse.is_drained() && self.dense.is_drained() {
                break;
            }
        }
        Ok(())
    }

    fn assert_identical(&self) -> Result<(), proptest::test_runner::TestCaseError> {
        prop_assert_eq!(fingerprint(&self.sparse), fingerprint(&self.dense));
        prop_assert_eq!(self.sparse.snapshot(), self.dense.snapshot());
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full randomized matrix: four router families × mesh/torus ×
    /// obs on/off × watchdog polling. Sparse and
    /// dense must agree on every observable, bit for bit, and the
    /// active set must match reality at every audited cycle.
    #[test]
    fn sparse_matches_dense_on_randomized_specs(
        family in 0u8..4,
        mesh in any::<bool>(),
        seed in any::<u64>(),
        rate_millis in 5u64..120,
        inject_cycles in 40u64..160,
        obs_on in any::<bool>(),
        window in 20u64..400,
    ) {
        let spec = spec(family, mesh);
        let events = workload(seed, spec.topology.num_nodes(), inject_cycles, rate_millis);
        let mut pair = EnginePair::new(&spec, obs_on);
        pair.drive(&events, inject_cycles + 800, window, 8)?;
        pair.assert_identical()?;
    }

    /// Mid-run cross-engine checkpoint restore: a snapshot captured
    /// from the sparse engine restores into a dense-reference network
    /// (and vice versa) and both continuations stay bit-identical —
    /// checkpoint images carry no engine-mode state, and restore
    /// recomputes the activity sets from restored router/source state.
    #[test]
    fn checkpoint_restore_crosses_engines_bit_identically(
        family in 0u8..4,
        mesh in any::<bool>(),
        seed in any::<u64>(),
        rate_millis in 20u64..120,
    ) {
        let inject_cycles = 120u64;
        let spec = spec(family, mesh);
        let events = workload(seed, spec.topology.num_nodes(), inject_cycles, rate_millis);
        let mut pair = EnginePair::new(&spec, false);

        // First half on both engines, then snapshot mid-flight.
        pair.drive(&events, inject_cycles / 2, 200, 8)?;
        let image = pair.sparse.snapshot();
        prop_assert_eq!(&image, &pair.dense.snapshot());

        // Restore the sparse image into a *dense* engine and the dense
        // image into a *sparse* engine; run all four to completion on
        // the identical tail workload.
        let mut crossed = EnginePair::new(&spec, false);
        crossed.sparse.restore(&image).expect("restore into sparse engine");
        crossed.dense.restore(&image).expect("restore into dense engine");
        let tail: Vec<_> = events
            .iter()
            .copied()
            .filter(|(c, _, _)| *c >= pair.sparse.cycle())
            .collect();
        pair.drive(&tail, inject_cycles + 800, 200, 8)?;
        crossed.drive(&tail, inject_cycles + 800, 200, 8)?;
        pair.assert_identical()?;
        crossed.assert_identical()?;
        prop_assert_eq!(fingerprint(&pair.sparse), fingerprint(&crossed.sparse));
        prop_assert_eq!(pair.sparse.snapshot(), crossed.sparse.snapshot());
    }

    /// Sharded engines at 1/2/8 shards, sparse vs dense vs the mono
    /// engine: merged stats and per-node energy identical to the bit,
    /// and the sharded sparse/dense snapshot images byte-identical.
    #[test]
    fn sharded_sparse_matches_dense_at_every_shard_count(
        family in 0u8..4,
        mesh in any::<bool>(),
        seed in any::<u64>(),
        rate_millis in 10u64..100,
    ) {
        let inject_cycles = 80u64;
        let total = inject_cycles + 800;
        let spec = spec(family, mesh);
        let central = matches!(spec.router, RouterKind::Central(_));
        let events = workload(seed, spec.topology.num_nodes(), inject_cycles, rate_millis);

        let mut mono = EnginePair::new(&spec, false);
        mono.drive(&events, total, 200, 16)?;
        mono.assert_identical()?;
        let reference = fingerprint(&mono.sparse);

        for shards in [1usize, 2, 8] {
            let run = |mode: EngineMode| {
                let mut net = ShardedNetwork::new(spec.clone(), models(central), shards);
                net.set_engine_mode(mode);
                let mut cursor = 0;
                while net.cycle() < total {
                    let cycle = net.cycle();
                    while cursor < events.len() && events[cursor].0 == cycle {
                        let (_, src, dst) = events[cursor];
                        net.enqueue_packet(src, dst, true);
                        cursor += 1;
                    }
                    net.step();
                    if cursor >= events.len() && net.is_drained() {
                        break;
                    }
                }
                (fingerprint_sharded(&net), net.snapshot(), net.audit())
            };
            let (sparse_fp, sparse_image, sparse_audit) = run(EngineMode::Sparse);
            let (dense_fp, dense_image, dense_audit) = run(EngineMode::DenseReference);
            prop_assert_eq!(&sparse_fp, &dense_fp);
            prop_assert_eq!(sparse_image, dense_image);
            prop_assert!(sparse_audit.is_empty(), "{}-shard audit: {:?}", shards, sparse_audit);
            prop_assert!(dense_audit.is_empty(), "{}-shard audit: {:?}", shards, dense_audit);
            // The sharded run must also equal the mono run on every
            // shared observable (delivery_log is mono-only).
            prop_assert_eq!(&sparse_fp.latencies, &reference.latencies);
            prop_assert_eq!(&sparse_fp.energy_bits, &reference.energy_bits);
            prop_assert_eq!(sparse_fp.packets_delivered, reference.packets_delivered);
        }
    }

    /// Idle-cycle skipping against dead-stepping: on a drained network
    /// the skip must land on the same cycle with the same snapshot
    /// image as stepping through the gap one cycle at a time, and
    /// traffic resumed after the gap must stay bit-identical.
    #[test]
    fn idle_skip_is_bit_identical_to_dead_stepping(
        family in 0u8..4,
        mesh in any::<bool>(),
        seed in any::<u64>(),
        gap in 1u64..5000,
    ) {
        let spec = spec(family, mesh);
        let events = workload(seed, spec.topology.num_nodes(), 40, 60);
        let mut skipper = EnginePair::new(&spec, false);
        // Drain both engines completely first.
        skipper.drive(&events, 2000, 500, 16)?;
        prop_assert!(skipper.sparse.is_drained());

        let target = skipper.sparse.cycle() + gap;
        let reached = skipper.sparse.skip_idle_cycles(target);
        while skipper.dense.cycle() < reached {
            skipper.dense.step();
        }
        prop_assert_eq!(reached, skipper.dense.cycle());
        skipper.assert_identical()?;

        // Post-gap traffic behaves as if the gap had been stepped.
        let resume = skipper.sparse.cycle();
        let tail: Vec<_> = workload(seed.wrapping_add(1), spec.topology.num_nodes(), 20, 80)
            .into_iter()
            .map(|(c, s, d)| (c + resume, s, d))
            .collect();
        skipper.drive(&tail, resume + 1000, 500, 16)?;
        skipper.assert_identical()?;
    }
}
