//! The tentpole guarantee, proven by direct comparison: a
//! [`ShardedNetwork`] at any shard count produces *bit-identical*
//! results to a single [`Network`] built from the same spec — same
//! packet ids, same latency sample in the same order, same per-node
//! per-component energies (exact f64 equality, not tolerance), same
//! link-flit counts, same observability output, and matching
//! audits. Sequential and threaded stepping are also compared against
//! each other.

use orion_net::{DimensionOrder, NodeId, Topology};
use orion_obs::{keys, ObsSink};
use orion_power::{
    ArbiterKind, ArbiterParams, ArbiterPower, BufferParams, BufferPower, CrossbarKind,
    CrossbarParams, CrossbarPower, LinkPower,
};
use orion_shard::ShardedNetwork;
use orion_sim::energy::Component;
use orion_sim::snapshot::ByteWriter;
use orion_sim::{Network, NetworkSpec, PowerModels, RouterKind, StallKind, VcRouterSpec};
use orion_tech::{Microns, ProcessNode, Technology};

fn models(ports: u32) -> PowerModels {
    let tech = Technology::new(ProcessNode::Nm100);
    let crossbar = CrossbarPower::new(
        &CrossbarParams::new(CrossbarKind::Matrix, ports, ports, 64),
        tech,
    )
    .expect("valid");
    let arbiter = ArbiterPower::new(&ArbiterParams::new(ArbiterKind::Matrix, ports), tech)
        .expect("valid")
        .with_control_energy(crossbar.control_energy());
    PowerModels {
        flit_bits: 64,
        buffer: BufferPower::new(&BufferParams::new(16, 64), tech).expect("valid"),
        crossbar,
        arbiter,
        link: LinkPower::on_chip(Microns::from_mm(3.0), 64, tech),
        central: None,
    }
}

fn spec(radices: &[u32], vcs: usize) -> NetworkSpec {
    let topology = Topology::torus(radices).expect("valid");
    let ports = topology.ports_per_router();
    let router = if vcs > 1 {
        RouterKind::Vc(VcRouterSpec::virtual_channel(ports, vcs, 4, 64))
    } else {
        RouterKind::Vc(VcRouterSpec::wormhole(ports, 16, 64))
    };
    NetworkSpec {
        topology,
        router,
        packet_len: 5,
        dim_order: DimensionOrder::YFirst,
    }
}

/// Deterministic traffic: a fixed multiplicative stream drives
/// src/dst/tag choices identically on every network under comparison.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Drives `inject_cycles` cycles of random traffic plus a drain tail,
/// returning only after both networks ran the same schedule.
fn drive<E: Engine>(net: &mut E, radices: &[u32], inject_cycles: u64, seed: u64) {
    let n = radices.iter().product::<u32>() as usize;
    let mut rng = Lcg(seed);
    for cycle in 0..inject_cycles {
        // Two packets per cycle keeps several flits crossing shard
        // boundaries at all times without saturating a small torus.
        for _ in 0..2 {
            let src = (rng.next() as usize) % n;
            let dst = (rng.next() as usize) % n;
            let tag = cycle >= inject_cycles / 4;
            net.enqueue(NodeId(src), NodeId(dst), tag);
        }
        net.step_once();
    }
    let mut guard = 0;
    while !net.drained() {
        net.step_once();
        guard += 1;
        assert!(guard < 20_000, "drain did not converge");
    }
}

/// The minimal uniform surface the comparisons need over both network
/// forms.
trait Engine {
    fn enqueue(&mut self, src: NodeId, dst: NodeId, tag: bool) -> u64;
    fn step_once(&mut self);
    fn drained(&self) -> bool;
    fn skip_to(&mut self, target: u64);
    fn stall(&self, window: u64) -> Option<StallKind>;
}

impl Engine for Network {
    fn enqueue(&mut self, src: NodeId, dst: NodeId, tag: bool) -> u64 {
        self.enqueue_packet(src, dst, tag).0
    }
    fn step_once(&mut self) {
        self.step();
    }
    fn drained(&self) -> bool {
        self.is_drained()
    }
    fn skip_to(&mut self, target: u64) {
        assert_eq!(self.skip_idle_cycles(target), target);
    }
    fn stall(&self, window: u64) -> Option<StallKind> {
        self.check_stall(window)
    }
}

impl Engine for ShardedNetwork {
    fn enqueue(&mut self, src: NodeId, dst: NodeId, tag: bool) -> u64 {
        self.enqueue_packet(src, dst, tag).0
    }
    fn step_once(&mut self) {
        self.step();
    }
    fn drained(&self) -> bool {
        self.is_drained()
    }
    fn skip_to(&mut self, target: u64) {
        assert_eq!(self.skip_idle_cycles(target), target);
    }
    fn stall(&self, window: u64) -> Option<StallKind> {
        self.check_stall(window)
    }
}

fn assert_identical(mono: &Network, sharded: &ShardedNetwork) {
    let n = mono.spec().topology.num_nodes();
    let ports = mono.spec().topology.ports_per_router();
    let ms = mono.stats();
    let ss = sharded.stats_merged();
    assert_eq!(ms.packets_injected, ss.packets_injected);
    assert_eq!(ms.packets_delivered, ss.packets_delivered);
    assert_eq!(ms.flits_delivered, ss.flits_delivered);
    assert_eq!(ms.tagged_injected, ss.tagged_injected);
    assert_eq!(ms.tagged_delivered, ss.tagged_delivered);
    assert_eq!(
        ms.latencies(),
        ss.latencies(),
        "latency sample differs (count {} vs {})",
        ms.sample_count(),
        ss.sample_count()
    );
    for node in 0..n {
        for &c in Component::ALL.iter() {
            assert_eq!(
                mono.ledger().energy(node, c).0.to_bits(),
                sharded.node_energy(node, c).0.to_bits(),
                "energy differs at n{node} {c:?}"
            );
        }
        for port in 0..ports {
            assert_eq!(
                mono.link_flits(node, port),
                sharded.link_flits(node, port),
                "link flits differ at n{node} p{port}"
            );
        }
    }
    assert_eq!(mono.cycle(), sharded.cycle());
    assert!(mono.audit().is_empty());
    assert!(sharded.audit().is_empty(), "{:?}", sharded.audit());
}

fn run_identity(radices: &[u32], vcs: usize, shards: usize, parallel: bool) {
    let ports = Topology::torus(radices).expect("valid").ports_per_router();
    let mut mono = Network::new(spec(radices, vcs), models(ports as u32));
    let mut sharded = ShardedNetwork::new(spec(radices, vcs), models(ports as u32), shards);
    sharded.set_parallel(parallel);
    drive(&mut mono, radices, 400, 7);
    drive(&mut sharded, radices, 400, 7);
    assert_identical(&mono, &sharded);
}

#[test]
fn two_shards_match_mono_wormhole_4x4() {
    run_identity(&[4, 4], 1, 2, false);
}

#[test]
fn eight_shards_match_mono_vc_4x4() {
    run_identity(&[4, 4], 4, 8, false);
}

#[test]
fn three_uneven_shards_match_mono_vc_4x4() {
    // 16 nodes / 3 shards: bounds {0,5,10,16} — uneven ranges.
    run_identity(&[4, 4], 2, 3, false);
}

#[test]
fn threaded_stepping_matches_mono() {
    run_identity(&[4, 4], 2, 4, true);
}

#[test]
fn shards_match_mono_on_8x8() {
    run_identity(&[8, 8], 2, 4, false);
}

/// Bursts separated by silences many watchdog windows long, with a
/// window shorter than a packet's flight: every cycle's verdict.
fn watchdog_verdicts<E: Engine>(net: &mut E, starts: &[u64]) -> Vec<Option<StallKind>> {
    let mut verdicts = Vec::new();
    for &start in starts {
        net.skip_to(start);
        // Corner to corner both ways: crosses every shard boundary.
        net.enqueue(NodeId(0), NodeId(15), true);
        net.enqueue(NodeId(15), NodeId(0), true);
        while !net.drained() {
            net.step_once();
            verdicts.push(net.stall(4));
        }
    }
    verdicts
}

#[test]
fn watchdog_verdicts_match_mono_across_gaps_and_restores() {
    let radices = [4u32, 4];
    let mut mono = Network::new(spec(&radices, 2), models(5));
    let expected = watchdog_verdicts(&mut mono, &[0, 300, 900]);
    assert!(expected.contains(&Some(StallKind::Livelock)));
    // No burst inherits the previous one's clock: all three read alike.
    let third = expected.len() / 3;
    assert_eq!(expected[..third], expected[third..2 * third]);
    for shards in [1usize, 2, 4] {
        let mut sharded = ShardedNetwork::new(spec(&radices, 2), models(5), shards);
        sharded.set_parallel(false);
        let mut verdicts = watchdog_verdicts(&mut sharded, &[0, 300]);
        // The livelock clock travels in the image: restore in the gap.
        let mut restored = ShardedNetwork::new(spec(&radices, 2), models(5), shards);
        restored.set_parallel(false);
        restored.restore(&sharded.snapshot()).expect("restore");
        verdicts.extend(watchdog_verdicts(&mut restored, &[900]));
        assert_eq!(verdicts, expected, "{shards} shard(s)");
    }
}

#[test]
fn packet_ids_match_mono() {
    let radices = [4u32, 4];
    let ports = 5u32;
    let mut mono = Network::new(spec(&radices, 2), models(ports));
    let mut sharded = ShardedNetwork::new(spec(&radices, 2), models(ports), 4);
    sharded.set_parallel(false);
    let mut rng = Lcg(11);
    for _ in 0..100 {
        let src = (rng.next() as usize) % 16;
        let dst = (rng.next() as usize) % 16;
        let a = mono.enqueue(NodeId(src), NodeId(dst), true);
        let b = sharded.enqueue(NodeId(src), NodeId(dst), true);
        assert_eq!(a, b, "packet ids diverged");
        mono.step();
        sharded.step();
    }
}

#[test]
fn observability_output_is_identical() {
    let radices = [4u32, 4];
    let mut mono = Network::new(spec(&radices, 2), models(5));
    let mut sharded = ShardedNetwork::new(spec(&radices, 2), models(5), 4);
    sharded.set_parallel(false);
    mono.set_obs(ObsSink::new().with_tracer(32));
    sharded.set_obs(ObsSink::new().with_tracer(32));
    drive(&mut mono, &radices, 300, 23);
    drive(&mut sharded, &radices, 300, 23);
    let mo = mono.take_obs().expect("sink").into_observations(10);
    let so = sharded.take_obs().expect("sink").into_observations(10);
    assert_eq!(mo.metrics, so.metrics, "metrics snapshots differ");
    assert_eq!(mo.spans, so.spans, "trace spans differ");
}

#[test]
fn observed_run_matches_unobserved_run() {
    // Attaching an observer must not perturb the simulation itself.
    let radices = [4u32, 4];
    let mut plain = ShardedNetwork::new(spec(&radices, 2), models(5), 4);
    let mut observed = ShardedNetwork::new(spec(&radices, 2), models(5), 4);
    plain.set_parallel(false);
    observed.set_parallel(false);
    observed.set_obs(ObsSink::new());
    drive(&mut plain, &radices, 300, 5);
    drive(&mut observed, &radices, 300, 5);
    let (ps, os) = (plain.stats_merged(), observed.stats_merged());
    assert_eq!(ps.latencies(), os.latencies());
    assert_eq!(ps.packets_delivered, os.packets_delivered);
    let obs = observed.take_obs().expect("sink");
    assert_eq!(
        obs.metrics.counter(keys::PACKETS_DELIVERED),
        os.packets_delivered
    );
}

#[test]
fn snapshot_round_trips_through_fresh_network() {
    let radices = [4u32, 4];
    let mut original = ShardedNetwork::new(spec(&radices, 2), models(5), 4);
    original.set_parallel(false);
    let mut rng = Lcg(3);
    // Stop mid-flight so boundary mailboxes are non-empty.
    for _ in 0..50 {
        let src = (rng.next() as usize) % 16;
        let dst = (rng.next() as usize) % 16;
        original.enqueue_packet(NodeId(src), NodeId(dst), true);
        original.step();
    }
    assert!(!original.is_drained());
    let image = original.snapshot();

    let mut restored = ShardedNetwork::new(spec(&radices, 2), models(5), 4);
    restored.set_parallel(false);
    restored.restore(&image).expect("restore");
    // Both copies must now evolve identically to the end.
    let mut guard = 0;
    while !original.is_drained() {
        original.step();
        restored.step();
        guard += 1;
        assert!(guard < 20_000, "drain did not converge");
    }
    assert!(restored.is_drained());
    assert_eq!(
        original.stats_merged().latencies(),
        restored.stats_merged().latencies()
    );
    assert_eq!(original.snapshot(), restored.snapshot());
}

#[test]
fn snapshot_into_a_used_writer_appends_exactly_the_snapshot() {
    let radices = [4u32, 4];
    for shards in [1, 2, 4] {
        let mut net = ShardedNetwork::new(spec(&radices, 2), models(5), shards);
        net.set_parallel(false);
        let mut rng = Lcg(5);
        for _ in 0..40 {
            let src = (rng.next() as usize) % 16;
            let dst = (rng.next() as usize) % 16;
            net.enqueue_packet(NodeId(src), NodeId(dst), true);
            net.step();
        }
        let image = net.snapshot();
        // A buffer that held a longer image, then a prefix: the shard
        // length prefixes are patched relative to where each shard
        // image starts, not to the start of the buffer.
        let mut w = ByteWriter::from_vec(vec![0xA5; image.len() + 100]);
        w.bytes(b"prefix");
        net.snapshot_into(&mut w);
        assert_eq!(&w.as_slice()[6..], &image[..], "{shards} shards");

        let mut restored = ShardedNetwork::new(spec(&radices, 2), models(5), shards);
        restored.restore(&w.as_slice()[6..]).expect("restore");
        assert_eq!(restored.snapshot(), image, "{shards} shards");
    }
}

#[test]
fn snapshot_from_other_shard_count_is_typed_mismatch() {
    let radices = [4u32, 4];
    let mut four = ShardedNetwork::new(spec(&radices, 2), models(5), 4);
    four.set_parallel(false);
    four.enqueue_packet(NodeId(0), NodeId(9), true);
    four.step();
    let image = four.snapshot();
    let mut two = ShardedNetwork::new(spec(&radices, 2), models(5), 2);
    match two.restore(&image) {
        Err(orion_sim::SnapshotError::Mismatch(what)) => {
            assert!(what.contains("shard"), "unexpected mismatch field: {what}");
        }
        other => panic!("expected shard-count mismatch, got {other:?}"),
    }
}
