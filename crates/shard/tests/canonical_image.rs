//! One canonical state image: a [`ShardedNetwork`] at any shard count,
//! stepped sequentially or on worker threads, writes the bytes a
//! single [`Network`] writes at the same cycle, and an image written at
//! any shard count restores at any other and continues bit-identically.

mod common;

use common::{models, spec_on, Lcg};
use orion_net::{DimensionOrder, NodeId, Topology};
use orion_shard::ShardedNetwork;
use orion_sim::{Network, NetworkSpec, SnapshotError};

const COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

/// 2-D and 3-D tori and meshes, with radix-2 dimensions among them.
fn topologies() -> Vec<Topology> {
    vec![
        Topology::torus(&[4, 4]).expect("valid"),
        Topology::mesh(&[5, 4]).expect("valid"),
        Topology::torus(&[5, 2]).expect("valid"),
        Topology::torus(&[2, 3, 3]).expect("valid"),
        Topology::mesh(&[3, 2, 3]).expect("valid"),
    ]
}

fn spec(topology: &Topology) -> NetworkSpec {
    spec_on(topology.clone(), 2, DimensionOrder::YFirst)
}

fn sharded(topology: &Topology, shards: usize, threaded: bool) -> ShardedNetwork {
    let ports = topology.ports_per_router() as u32;
    let mut net = ShardedNetwork::new(spec(topology), models(ports), shards);
    net.set_parallel(threaded);
    net
}

fn mono(topology: &Topology) -> Network {
    let ports = topology.ports_per_router() as u32;
    Network::new(spec(topology), models(ports))
}

/// The surface the comparisons drive on both network forms.
trait Drive {
    fn enqueue(&mut self, src: usize, dst: usize);
    fn tick(&mut self);
    fn image(&self) -> Vec<u8>;
    fn drained(&self) -> bool;
}

impl Drive for Network {
    fn enqueue(&mut self, src: usize, dst: usize) {
        self.enqueue_packet(NodeId(src), NodeId(dst), true);
    }
    fn tick(&mut self) {
        self.step();
    }
    fn image(&self) -> Vec<u8> {
        self.snapshot()
    }
    fn drained(&self) -> bool {
        self.is_drained()
    }
}

impl Drive for ShardedNetwork {
    fn enqueue(&mut self, src: usize, dst: usize) {
        self.enqueue_packet(NodeId(src), NodeId(dst), true);
    }
    fn tick(&mut self) {
        self.step();
    }
    fn image(&self) -> Vec<u8> {
        self.snapshot()
    }
    fn drained(&self) -> bool {
        self.is_drained()
    }
}

/// Two random packets per cycle from cycle `from` to `to`, the stream
/// seeded by `seed` and the starting cycle.
fn traffic(net: &mut impl Drive, n: usize, from: u64, to: u64, seed: u64) {
    for cycle in from..to {
        let mut rng = Lcg(seed ^ cycle);
        for _ in 0..2 {
            let src = (rng.next() as usize) % n;
            let dst = (rng.next() as usize) % n;
            net.enqueue(src, dst);
        }
        net.tick();
    }
}

/// Mid-flight images at cycles 20, 40 and 60.
fn images(net: &mut impl Drive, n: usize) -> Vec<Vec<u8>> {
    (0..3)
        .map(|i| {
            traffic(net, n, 20 * i, 20 * (i + 1), 9);
            assert!(!net.drained(), "the images must be mid-flight");
            net.image()
        })
        .collect()
}

fn drain(net: &mut impl Drive) {
    let mut guard = 0;
    while !net.drained() {
        net.tick();
        guard += 1;
        assert!(guard < 20_000, "drain did not converge");
    }
}

#[test]
fn every_shard_count_writes_the_single_engines_bytes() {
    for topology in topologies() {
        let n = topology.num_nodes();
        let expected = images(&mut mono(&topology), n);
        for shards in COUNTS {
            for threaded in [false, true] {
                let got = images(&mut sharded(&topology, shards, threaded), n);
                assert!(
                    got == expected,
                    "{topology:?}, {shards} shards, threaded {threaded}"
                );
            }
        }
    }
}

#[test]
fn an_image_restores_at_every_shard_count_to_the_same_bytes() {
    for topology in topologies() {
        let n = topology.num_nodes();
        for image in images(&mut mono(&topology), n) {
            for shards in COUNTS {
                let mut net = sharded(&topology, shards, false);
                net.restore(&image).expect("restores");
                assert!(net.snapshot() == image, "{topology:?}, {shards} shards");
            }
            let mut net = mono(&topology);
            net.restore(&image).expect("restores");
            assert!(net.snapshot() == image, "{topology:?}, one engine");
        }
    }
}

#[test]
fn a_restore_at_another_shard_count_continues_bit_identically() {
    let topology = Topology::torus(&[5, 5]).expect("valid");
    let n = topology.num_nodes();
    // The uninterrupted run, and its image at cycle 60.
    let mut reference = mono(&topology);
    traffic(&mut reference, n, 0, 60, 3);
    let midway = reference.snapshot();
    traffic(&mut reference, n, 60, 200, 3);
    drain(&mut reference);
    let end = reference.snapshot();
    for written in COUNTS {
        let mut writer = sharded(&topology, written, true);
        traffic(&mut writer, n, 0, 60, 3);
        let image = writer.snapshot();
        assert!(image == midway, "written at {written} shards");
        for resumed in COUNTS {
            let mut net = sharded(&topology, resumed, true);
            net.restore(&image).expect("restores");
            traffic(&mut net, n, 60, 200, 3);
            drain(&mut net);
            assert!(
                net.snapshot() == end,
                "written at {written} shards, resumed at {resumed}"
            );
        }
    }
}

#[test]
fn total_energy_has_the_single_engines_bits_at_every_shard_count() {
    let topology = Topology::torus(&[8, 8]).expect("valid");
    let n = topology.num_nodes();
    let mut reference = mono(&topology);
    let mut nets: Vec<ShardedNetwork> = COUNTS
        .iter()
        .map(|&k| sharded(&topology, k, false))
        .collect();
    let mut rng = Lcg(29);
    for cycle in 0..600 {
        for _ in 0..4 {
            let (src, dst) = ((rng.next() as usize) % n, (rng.next() as usize) % n);
            reference.enqueue(src, dst);
            nets.iter_mut().for_each(|net| net.enqueue(src, dst));
        }
        reference.step();
        let expected = reference.ledger().total_energy().0.to_bits();
        for (net, k) in nets.iter_mut().zip(COUNTS) {
            net.step();
            assert_eq!(
                net.total_energy_j().to_bits(),
                expected,
                "cycle {cycle}, {k} shards"
            );
        }
    }
}

#[test]
fn a_torus_image_restored_into_a_same_size_mesh_is_a_typed_mismatch() {
    let torus = Topology::torus(&[4, 4]).expect("valid");
    let mesh = Topology::mesh(&[4, 4]).expect("valid");
    let mut net = mono(&torus);
    traffic(&mut net, 16, 0, 20, 5);
    let image = net.snapshot();
    let kind = Err(SnapshotError::Mismatch("topology kind"));
    assert_eq!(mono(&mesh).restore(&image), kind);
    for shards in [1, 2, 4] {
        assert_eq!(sharded(&mesh, shards, false).restore(&image), kind);
    }
    // A same-kind image of another shape is one too.
    let small = Topology::torus(&[4, 2, 2]).expect("valid");
    let err = Err(SnapshotError::Mismatch("topology dimensions"));
    assert_eq!(sharded(&small, 2, false).restore(&image), err);
}
