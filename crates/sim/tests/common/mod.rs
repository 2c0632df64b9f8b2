//! Fixtures shared by the standalone test binaries: the paper's
//! on-chip power models and uniform-random injection.

use orion_net::NodeId;
use orion_power::{
    ArbiterKind, ArbiterParams, ArbiterPower, BufferParams, BufferPower, CentralBufferParams,
    CentralBufferPower, CrossbarKind, CrossbarParams, CrossbarPower, LinkPower,
};
use orion_sim::{Network, PowerModels};
use orion_tech::{Microns, ProcessNode, Technology};
use rand::rngs::StdRng;
use rand::Rng;

pub const FLIT_BITS: u32 = 64;

/// 0.1 µm on-chip models for a 5-port router; `central` adds the
/// central-buffer model a `CentralRouter` charges.
pub fn models(central: bool) -> PowerModels {
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

/// One cycle of uniform-random traffic: every node enqueues a tagged
/// packet to a random other node with probability `rate`, then the
/// network steps.
pub fn uniform_cycle(net: &mut Network, rng: &mut StdRng, rate: f64) {
    let nodes = net.spec().topology.num_nodes();
    for src in 0..nodes {
        if rng.gen_bool(rate) {
            let dst = rng.gen_range(0..nodes - 1);
            let dst = if dst >= src { dst + 1 } else { dst };
            net.enqueue_packet(NodeId(src), NodeId(dst), true);
        }
    }
    net.step();
}
