//! Fixtures shared by this crate's integration tests.

#![allow(dead_code)]

use orion_net::{DimensionOrder, Topology};
use orion_power::{
    ArbiterKind, ArbiterParams, ArbiterPower, BufferParams, BufferPower, CrossbarKind,
    CrossbarParams, CrossbarPower, LinkPower,
};
use orion_sim::{NetworkSpec, PowerModels, RouterKind, VcRouterSpec};
use orion_tech::{Microns, ProcessNode, Technology};

/// 100 nm on-chip power models for `ports`-port routers.
pub fn models(ports: u32) -> PowerModels {
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

/// 5-flit packets over `topology` on virtual-channel routers (`vcs`
/// VCs of depth 4) or, for `vcs == 1`, wormhole routers.
pub fn spec_on(topology: Topology, vcs: usize, dim_order: DimensionOrder) -> NetworkSpec {
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
        dim_order,
    }
}

/// Deterministic traffic: a fixed multiplicative stream drives
/// src/dst/tag choices identically on every network under comparison.
pub struct Lcg(pub u64);

impl Lcg {
    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}
