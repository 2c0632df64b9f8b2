//! Link power models.
//!
//! The paper uses two link styles (§3.2 "Link power modeling", §4.2,
//! §4.4):
//!
//! * **On-chip links** — power is switching power on the wire
//!   capacitance: `E = ½ α C_w(L) V²` per bit line. §4.2 gives the
//!   calibration point: 1.08 pF per 3 mm at 0.1 µm.
//! * **Chip-to-chip links** — high-speed differential signalling whose
//!   power is *traffic-insensitive*: the paper plugs in datasheet
//!   constants (3 W for a 32 Gb/s IBM InfiniBand-style 12X link, §4.4),
//!   dissipated regardless of activity.
//!
//! [`LinkPower::traversal_energy`] charges per-flit switching energy
//! (zero for chip-to-chip links); [`LinkPower::static_power`] reports the
//! always-on power (zero for on-chip links). Callers account both.

use orion_tech::{switch_energy, Capacitor, Farads, Joules, Microns, Technology, Volts, Watts};

/// The style of a link, capturing how its power depends on traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum LinkKind {
    /// On-chip full-swing wires: activity-dependent switching power.
    OnChip {
        /// Physical length of the link.
        length: Microns,
        /// Capacitance of one bit line.
        wire_cap: Farads,
        /// Supply voltage.
        vdd: Volts,
    },
    /// Chip-to-chip differential link: constant datasheet power.
    ChipToChip {
        /// Always-on power of the link.
        power: Watts,
    },
}

/// Link power model.
///
/// ```
/// use orion_power::LinkPower;
/// use orion_tech::{Microns, ProcessNode, Technology, Watts};
///
/// let tech = Technology::new(ProcessNode::Nm100);
/// // The paper's on-chip link: 3 mm at 0.1 µm = 1.08 pF per wire.
/// let on_chip = LinkPower::on_chip(Microns::from_mm(3.0), 256, tech);
/// assert!(on_chip.traversal_energy(128.0).0 > 0.0);
/// assert_eq!(on_chip.static_power(), Watts::ZERO);
///
/// // The paper's chip-to-chip link: 3 W regardless of traffic (§4.4).
/// let c2c = LinkPower::chip_to_chip(Watts(3.0), 32);
/// assert_eq!(c2c.traversal_energy(16.0).0, 0.0);
/// assert_eq!(c2c.static_power(), Watts(3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPower {
    kind: LinkKind,
    width: u32,
}

impl LinkPower {
    /// An on-chip link of physical `length` carrying `width` bit lines at
    /// `tech`'s wire capacitance and supply.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or `length` is negative.
    pub fn on_chip(length: Microns, width: u32, tech: Technology) -> LinkPower {
        assert!(width > 0, "link width must be positive");
        assert!(length.0 >= 0.0, "link length must be non-negative");
        let cap = Capacitor::new(tech);
        LinkPower {
            kind: LinkKind::OnChip {
                length,
                wire_cap: cap.wire_cap(length),
                vdd: tech.vdd(),
            },
            width,
        }
    }

    /// An on-chip link with an explicitly-specified per-wire capacitance
    /// (e.g. from a datasheet or extraction) instead of the technology
    /// estimate.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or `wire_cap` is negative.
    pub fn on_chip_with_cap(wire_cap: Farads, width: u32, vdd: Volts) -> LinkPower {
        assert!(width > 0, "link width must be positive");
        assert!(wire_cap.0 >= 0.0, "wire capacitance must be non-negative");
        LinkPower {
            kind: LinkKind::OnChip {
                length: Microns::ZERO,
                wire_cap,
                vdd,
            },
            width,
        }
    }

    /// A chip-to-chip link consuming constant `power`, carrying `width`
    /// logical bit lanes.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or `power` is negative.
    pub fn chip_to_chip(power: Watts, width: u32) -> LinkPower {
        assert!(width > 0, "link width must be positive");
        assert!(power.0 >= 0.0, "link power must be non-negative");
        LinkPower {
            kind: LinkKind::ChipToChip { power },
            width,
        }
    }

    /// The link style.
    pub fn kind(&self) -> LinkKind {
        self.kind
    }

    /// Number of bit lanes.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Per-wire capacitance (zero for chip-to-chip links).
    pub fn wire_cap(&self) -> Farads {
        match self.kind {
            LinkKind::OnChip { wire_cap, .. } => wire_cap,
            LinkKind::ChipToChip { .. } => Farads::ZERO,
        }
    }

    /// Energy of one flit traversal with `switching_bits` lines toggling.
    ///
    /// Chip-to-chip links return zero — their cost is [`static_power`]
    /// (the paper: differential links "consume almost the same power
    /// regardless of link activity").
    ///
    /// [`static_power`]: LinkPower::static_power
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `switching_bits` is negative.
    pub fn traversal_energy(&self, switching_bits: f64) -> Joules {
        debug_assert!(switching_bits >= 0.0, "switching bits must be non-negative");
        match self.kind {
            LinkKind::OnChip { wire_cap, vdd, .. } => switching_bits * switch_energy(wire_cap, vdd),
            LinkKind::ChipToChip { .. } => Joules::ZERO,
        }
    }

    /// Expected traversal energy under uniform random data.
    pub fn traversal_energy_uniform(&self) -> Joules {
        self.traversal_energy(self.width as f64 / 2.0)
    }

    /// Always-on power (zero for on-chip links).
    pub fn static_power(&self) -> Watts {
        match self.kind {
            LinkKind::OnChip { .. } => Watts::ZERO,
            LinkKind::ChipToChip { power } => power,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_tech::ProcessNode;

    fn tech() -> Technology {
        Technology::new(ProcessNode::Nm100)
    }

    #[test]
    fn paper_wire_cap_anchor() {
        // §4.2: 1.08 pF per 3 mm at 0.1 µm.
        let link = LinkPower::on_chip(Microns::from_mm(3.0), 256, tech());
        assert!((link.wire_cap().as_pf() - 1.08).abs() / 1.08 < 0.01);
    }

    #[test]
    fn on_chip_energy_linear_in_activity() {
        let link = LinkPower::on_chip(Microns::from_mm(3.0), 256, tech());
        let half = link.traversal_energy_uniform();
        let full = link.traversal_energy(256.0);
        assert!((full.0 - 2.0 * half.0).abs() < 1e-24);
        assert_eq!(link.traversal_energy(0.0), Joules::ZERO);
    }

    #[test]
    fn on_chip_energy_hand_computed() {
        // E per wire = ½·1.08pF·1.2² = 0.7776 pJ.
        let link = LinkPower::on_chip(Microns::from_mm(3.0), 256, tech());
        let e = link.traversal_energy(1.0);
        assert!((e.as_pj() - 0.7776).abs() < 0.01, "{} pJ", e.as_pj());
    }

    #[test]
    fn chip_to_chip_is_traffic_insensitive() {
        let link = LinkPower::chip_to_chip(Watts(3.0), 32);
        assert_eq!(link.traversal_energy(32.0), Joules::ZERO);
        assert_eq!(link.traversal_energy(0.0), Joules::ZERO);
        assert_eq!(link.static_power(), Watts(3.0));
    }

    #[test]
    fn on_chip_has_no_static_power() {
        let link = LinkPower::on_chip(Microns::from_mm(1.0), 32, tech());
        assert_eq!(link.static_power(), Watts::ZERO);
    }

    #[test]
    fn explicit_cap_constructor() {
        let link = LinkPower::on_chip_with_cap(Farads::from_pf(2.0), 8, Volts(1.0));
        let e = link.traversal_energy(1.0);
        assert!((e.0 - 0.5 * 2.0e-12).abs() < 1e-24);
    }

    #[test]
    fn longer_links_cost_more() {
        let short = LinkPower::on_chip(Microns::from_mm(1.0), 32, tech());
        let long = LinkPower::on_chip(Microns::from_mm(3.0), 32, tech());
        assert!(long.traversal_energy(16.0).0 > short.traversal_energy(16.0).0);
    }

    #[test]
    #[should_panic(expected = "link width must be positive")]
    fn rejects_zero_width() {
        let _ = LinkPower::chip_to_chip(Watts(1.0), 0);
    }
}
