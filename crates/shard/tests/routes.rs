//! Route-free flits take `dor_route`'s ports. A flit carries no route
//! object: its output port at each router comes from a fixed-size path
//! built from the topology and its endpoints. For every (src, dst) pair
//! on 2-D and 3-D tori and meshes — odd and even radices, so half-ring
//! ties on even tori, radix 2 where both directions reach the same
//! neighbour — and both dimension orders, a lone packet sent through a
//! two-shard network must load exactly the channels `dor_route(..)`
//! names hop by hop, boundary-crossing pairs included.

mod common;

use common::{models, spec_on};
use orion_net::{dor_route, DimensionOrder, NodeId, Port, Topology};
use orion_shard::ShardedNetwork;

/// Flits carried per (node, out_port) so far.
fn link_table(net: &ShardedNetwork) -> Vec<u64> {
    let t = &net.spec().topology;
    let ports = t.ports_per_router();
    (0..t.num_nodes() * ports)
        .map(|i| net.link_flits(i / ports, i % ports))
        .collect()
}

/// The channels `dor_route` loads, `len` flits each.
fn reference_loads(
    t: &Topology,
    src: NodeId,
    dst: NodeId,
    order: &DimensionOrder,
    len: u64,
) -> Vec<u64> {
    let ports = t.ports_per_router();
    let mut loads = vec![0; t.num_nodes() * ports];
    let mut at = src;
    for &hop in dor_route(t, src, dst, order.clone()).hops() {
        let Port::Dir { dim, dir } = hop else {
            assert_eq!(at, dst, "the route ejects at its destination");
            break;
        };
        loads[at.0 * ports + hop.index()] += len;
        at = t
            .neighbor(at, dim as usize, dir)
            .expect("the route stays inside");
    }
    loads
}

#[test]
fn every_pair_takes_the_reference_ports() {
    let topologies = [
        Topology::torus(&[4, 5]).expect("valid"),
        Topology::mesh(&[3, 4]).expect("valid"),
        Topology::torus(&[3, 2, 4]).expect("valid"),
        Topology::mesh(&[2, 3, 3]).expect("valid"),
    ];
    let mut crossings = 0;
    for topology in topologies {
        for order in [DimensionOrder::XFirst, DimensionOrder::YFirst] {
            let n = topology.num_nodes();
            let ports = topology.ports_per_router() as u32;
            let spec = spec_on(topology.clone(), 2, order.clone());
            let len = u64::from(spec.packet_len);
            let mut net = ShardedNetwork::new(spec, models(ports), 2);
            let boundary = net.plan().bounds()[1];
            for src in 0..n {
                for dst in 0..n {
                    let before = link_table(&net);
                    net.enqueue_packet(NodeId(src), NodeId(dst), false);
                    while !net.is_drained() {
                        net.step();
                    }
                    let loads: Vec<u64> = link_table(&net)
                        .iter()
                        .zip(&before)
                        .map(|(after, before)| after - before)
                        .collect();
                    let expected =
                        reference_loads(&topology, NodeId(src), NodeId(dst), &order, len);
                    assert_eq!(loads, expected, "{topology} {order:?} n{src}->n{dst}");
                    crossings += usize::from((src < boundary) != (dst < boundary));
                }
            }
            assert!(net.audit().is_empty());
        }
    }
    assert!(crossings > 0, "some pairs cross the shard boundary");
}
