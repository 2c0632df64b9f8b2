//! The paper's experimental configurations, ready to run.
//!
//! §4.2 (on-chip, Figure 5): a 4×4 torus on a 12 mm × 12 mm chip —
//! 3 mm links — with 256-bit flits, clocked at 2 GHz, `V_dd` = 1.2 V,
//! 0.1 µm technology:
//!
//! * [`wh64_onchip`] — wormhole, 64-flit input buffer per port,
//! * [`vc16_onchip`] — 2 VCs × 8 flits,
//! * [`vc64_onchip`] — 8 VCs × 8 flits,
//! * [`vc128_onchip`] — 8 VCs × 16 flits.
//!
//! §4.4 (chip-to-chip, Figure 7): a 4×4 torus with 32-bit flits at
//! 1 GHz and 3 W traffic-insensitive links:
//!
//! * [`xb_chip_to_chip`] — input-buffered crossbar router, 16 VCs ×
//!   268 flits,
//! * [`cb_chip_to_chip`] — central-buffered router: 4-bank 2560-row
//!   central buffer (2R/2W) + 64-flit input buffers.

use orion_net::Topology;
use orion_tech::{Hertz, Microns, Watts};

use crate::config::{LinkConfig, NetworkConfig, RouterConfig};

fn torus_4x4() -> Topology {
    Topology::torus(&[4, 4]).expect("4x4 torus is valid")
}

/// The §4.2 on-chip platform over `topology`: 256-bit flits, 2 GHz,
/// 3 mm links.
pub fn onchip(topology: Topology, router: RouterConfig) -> NetworkConfig {
    NetworkConfig::new(topology, router, 256)
        .clock(Hertz::from_ghz(2.0))
        .link(LinkConfig::OnChip {
            length: Microns::from_mm(3.0),
        })
}

/// The §4.4 chip-to-chip platform over `topology`: 32-bit flits,
/// 1 GHz, 3 W traffic-insensitive links.
pub fn chip_to_chip(topology: Topology, router: RouterConfig) -> NetworkConfig {
    NetworkConfig::new(topology, router, 32)
        .clock(Hertz::from_ghz(1.0))
        .link(LinkConfig::ChipToChip { power: Watts(3.0) })
}

/// WH64: wormhole router with a 64-flit input buffer per port (§4.2).
pub fn wh64_onchip() -> NetworkConfig {
    onchip(torus_4x4(), RouterConfig::Wormhole { buffer_flits: 64 })
}

/// VC16: virtual-channel router, 2 VCs × 8 flits per port (§4.2).
pub fn vc16_onchip() -> NetworkConfig {
    onchip(
        torus_4x4(),
        RouterConfig::VirtualChannel { vcs: 2, depth: 8 },
    )
}

/// VC64: virtual-channel router, 8 VCs × 8 flits per port (§4.2).
pub fn vc64_onchip() -> NetworkConfig {
    onchip(
        torus_4x4(),
        RouterConfig::VirtualChannel { vcs: 8, depth: 8 },
    )
}

/// VC128: virtual-channel router, 8 VCs × 16 flits per port (§4.2).
pub fn vc128_onchip() -> NetworkConfig {
    onchip(
        torus_4x4(),
        RouterConfig::VirtualChannel { vcs: 8, depth: 16 },
    )
}

/// XB: the input-buffered crossbar router of the Figure 7 comparison —
/// 16 VCs with 268-flit buffers per VC, 5×5 crossbar, 32-bit flits,
/// 1 GHz, 3 W chip-to-chip links (§4.4).
pub fn xb_chip_to_chip() -> NetworkConfig {
    chip_to_chip(
        torus_4x4(),
        RouterConfig::VirtualChannel {
            vcs: 16,
            depth: 268,
        },
    )
}

/// CB: the central-buffered router of the Figure 7 comparison — 4-bank
/// central buffer, each bank one flit wide, 2560 rows, 2 read + 2 write
/// ports, 64-flit input buffers (§4.4).
pub fn cb_chip_to_chip() -> NetworkConfig {
    chip_to_chip(
        torus_4x4(),
        RouterConfig::CentralBuffer {
            input_depth: 64,
            banks: 4,
            rows: 2560,
            read_ports: 2,
            write_ports: 2,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn onchip_presets_share_platform() {
        for cfg in [wh64_onchip(), vc16_onchip(), vc64_onchip(), vc128_onchip()] {
            assert_eq!(cfg.flit_bits, 256);
            assert_eq!(cfg.f_clk, Hertz::from_ghz(2.0));
            assert_eq!(cfg.tech.vdd().0, 1.2);
            assert!(matches!(cfg.link, LinkConfig::OnChip { .. }));
            assert_eq!(cfg.topology.num_nodes(), 16);
        }
    }

    #[test]
    fn buffering_matches_names() {
        assert_eq!(wh64_onchip().router.buffering_per_port(), 64);
        assert_eq!(vc16_onchip().router.buffering_per_port(), 16);
        assert_eq!(vc64_onchip().router.buffering_per_port(), 64);
        assert_eq!(vc128_onchip().router.buffering_per_port(), 128);
    }

    #[test]
    fn chip_to_chip_presets_share_platform() {
        for cfg in [xb_chip_to_chip(), cb_chip_to_chip()] {
            assert_eq!(cfg.flit_bits, 32);
            assert_eq!(cfg.f_clk, Hertz::from_ghz(1.0));
            assert!(matches!(
                cfg.link,
                LinkConfig::ChipToChip { power } if power == Watts(3.0)
            ));
        }
    }

    #[test]
    fn all_presets_build() {
        for cfg in [
            wh64_onchip(),
            vc16_onchip(),
            vc64_onchip(),
            vc128_onchip(),
            xb_chip_to_chip(),
            cb_chip_to_chip(),
        ] {
            cfg.build().expect("preset builds");
        }
    }

    #[test]
    fn cb_and_xb_areas_comparable() {
        // §4.4: "two router configurations of XB and CB routers that
        // take up roughly the same area".
        let cb = cb_chip_to_chip().router_area().unwrap().total().0;
        let xb = xb_chip_to_chip().router_area().unwrap().total().0;
        let ratio = xb / cb;
        assert!((0.2..5.0).contains(&ratio), "area ratio {ratio}");
    }
}
