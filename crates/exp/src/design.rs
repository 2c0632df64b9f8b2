//! Parametric design points: the named microarchitecture space the
//! explorer (and grid specs) can reference beyond the paper's six
//! presets.
//!
//! A [`DesignPoint`] is a router family plus its sizing knobs, a
//! topology and a process node. Every point has a single *canonical
//! name* — [`DesignPoint::name`] — and the codec guarantees
//! `parse(name).name() == name`. Crucially, a point whose parameters
//! coincide with one of the paper's configurations canonicalises to the
//! paper's preset name (`vc8x8` on the default platform renders as
//! `vc64`), so explorer-generated cells share cell keys — and therefore
//! cache fingerprints — with hand-written grid cells.
//!
//! # Name grammar
//!
//! ```text
//! point    := base suffix*
//! base     := "wh" TOTAL            wormhole, TOTAL flits of input
//!                                   buffering per port
//!           | "vc" V "x" D          virtual-channel, V VCs × D flits
//!           | "vc16"|"vc64"|"vc128" paper aliases for 2x8, 8x8, 8x16
//!           | "xb" V "x" D          input-buffered crossbar (VC router
//!                                   on the chip-to-chip platform)
//!           | "xb"                  paper alias for xb16x268
//!           | "cb" TOTAL            central buffer, TOTAL flits of
//!                                   input buffering per port
//!           | "cb"                  paper alias for cb64
//! suffix   := "-t" K                K×K torus (default: -t4, omitted)
//!           | "-m" K                K×K mesh
//!           | "-n" NM               process node in nm: 800|350|250|
//!                                   180|130|100|70 (default: -n100,
//!                                   omitted)
//! ```
//!
//! `wh` and `cb` take *total* per-port buffering so that explorer
//! candidates compare router families at matched storage, exactly the
//! paper's §4.2 methodology (WH64 vs VC64 vs VC128 all name their total
//! buffering).
//!
//! Platform follows family: `wh`/`vc` use the on-chip §4.2 platform
//! (256-bit flits, 2 GHz, 3 mm links); `xb`/`cb` use the chip-to-chip
//! §4.4 platform (32-bit flits, 1 GHz, 3 W links).

use std::fmt;

use orion_core::{presets, NetworkConfig, RouterConfig};
use orion_net::Topology;
use orion_tech::{ProcessNode, Technology};

/// Router microarchitecture families the paper compares (§4.2, §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RouterFamily {
    /// Wormhole router with per-port input FIFOs.
    Wormhole,
    /// Virtual-channel router (on-chip platform).
    VirtualChannel,
    /// Input-buffered crossbar router (VC router on the chip-to-chip
    /// platform).
    Crossbar,
    /// Central-buffered router (chip-to-chip platform).
    CentralBuffer,
}

impl RouterFamily {
    /// Stable spec/name token of the family.
    pub fn as_str(self) -> &'static str {
        match self {
            RouterFamily::Wormhole => "wh",
            RouterFamily::VirtualChannel => "vc",
            RouterFamily::Crossbar => "xb",
            RouterFamily::CentralBuffer => "cb",
        }
    }

    /// Parses a family token (`wh|vc|xb|cb`).
    pub fn parse(name: &str) -> Option<RouterFamily> {
        match name {
            "wh" => Some(RouterFamily::Wormhole),
            "vc" => Some(RouterFamily::VirtualChannel),
            "xb" => Some(RouterFamily::Crossbar),
            "cb" => Some(RouterFamily::CentralBuffer),
            _ => None,
        }
    }

    /// Whether the family runs on the chip-to-chip (§4.4) platform.
    pub fn chip_to_chip(self) -> bool {
        matches!(self, RouterFamily::Crossbar | RouterFamily::CentralBuffer)
    }
}

impl fmt::Display for RouterFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Bounds of the name grammar: keep names short and the implied
/// simulations finite. (Radix is also bounded below by the topology
/// crate's `radix >= 2` rule.)
const MAX_RADIX: u32 = 64;
const MAX_VCS: u32 = 1024;
const MAX_DEPTH: u32 = 65_536;
/// Bound for the total-form (`wh`/`cb`) names: they encode the
/// *product* `vcs * depth`, so any factorisation of in-bounds `vcs`
/// and `depth` values must round-trip through the codec. (The `vc`
/// form already reaches the same per-port storage at `vc1024x65536`,
/// so this admits no simulation the V×D form could not name.)
const MAX_TOTAL: u32 = MAX_VCS * MAX_DEPTH;

/// One candidate microarchitecture: family, sizing, topology, node.
///
/// For `Wormhole` and `CentralBuffer` the per-port storage is
/// `vcs * depth` total flits (matched-buffering comparisons); for
/// `VirtualChannel` and `Crossbar` it is `vcs` channels of `depth`
/// flits each.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DesignPoint {
    /// Router family.
    pub family: RouterFamily,
    /// Virtual channels per port (1 for `wh`/`cb`, where only the
    /// product matters).
    pub vcs: u32,
    /// Flit depth per VC (per-port total for `wh`/`cb` when `vcs`=1).
    pub depth: u32,
    /// Per-dimension radix of the k×k network.
    pub radix: u32,
    /// Mesh instead of torus.
    pub mesh: bool,
    /// Process technology node.
    pub node: ProcessNode,
}

/// Process node ↔ nanometre tag used in the `-n` suffix.
const NODE_NM: [(ProcessNode, u32); 7] = [
    (ProcessNode::Um800, 800),
    (ProcessNode::Um350, 350),
    (ProcessNode::Um250, 250),
    (ProcessNode::Um180, 180),
    (ProcessNode::Um130, 130),
    (ProcessNode::Nm100, 100),
    (ProcessNode::Nm70, 70),
];

/// The node's feature size in nanometres (the `-n` suffix value).
pub fn node_nm(node: ProcessNode) -> u32 {
    NODE_NM
        .iter()
        .find(|(n, _)| *n == node)
        .map(|(_, nm)| *nm)
        .unwrap_or_else(|| (node.feature_size().0 * 1000.0).round() as u32)
}

fn node_from_nm(nm: u32) -> Option<ProcessNode> {
    NODE_NM.iter().find(|(_, v)| *v == nm).map(|(n, _)| *n)
}

fn parse_u32(s: &str) -> Option<u32> {
    if s.is_empty() || s.len() > 9 || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

impl DesignPoint {
    /// Total flits of buffering per input port.
    pub fn buffering_per_port(&self) -> u32 {
        self.vcs.saturating_mul(self.depth)
    }

    /// The canonical name: parsing it back yields an equal
    /// configuration, and paper-preset-equivalent points render as the
    /// paper names (`wh64`, `vc16`, `vc64`, `vc128`, `xb`, `cb`).
    pub fn name(&self) -> String {
        let total = self.buffering_per_port();
        let mut out = match self.family {
            RouterFamily::Wormhole => format!("wh{total}"),
            RouterFamily::CentralBuffer => {
                if total == 64 {
                    "cb".to_string()
                } else {
                    format!("cb{total}")
                }
            }
            RouterFamily::VirtualChannel => match (self.vcs, self.depth) {
                (2, 8) => "vc16".to_string(),
                (8, 8) => "vc64".to_string(),
                (8, 16) => "vc128".to_string(),
                (v, d) => format!("vc{v}x{d}"),
            },
            RouterFamily::Crossbar => {
                if (self.vcs, self.depth) == (16, 268) {
                    "xb".to_string()
                } else {
                    format!("xb{}x{}", self.vcs, self.depth)
                }
            }
        };
        if self.mesh {
            out.push_str(&format!("-m{}", self.radix));
        } else if self.radix != 4 {
            out.push_str(&format!("-t{}", self.radix));
        }
        let nm = node_nm(self.node);
        if nm != 100 {
            out.push_str(&format!("-n{nm}"));
        }
        out
    }

    /// Parses a design-point name (paper preset or parametric form).
    ///
    /// Returns `None` for anything outside the grammar or its bounds;
    /// never panics, whatever the input.
    pub fn parse(name: &str) -> Option<DesignPoint> {
        let mut parts = name.split('-');
        let base = parts.next()?;

        let (family, vcs, depth) = if let Some(rest) = base.strip_prefix("wh") {
            let total = parse_u32(rest)?;
            if total == 0 || total > MAX_TOTAL {
                return None;
            }
            (RouterFamily::Wormhole, 1, total)
        } else if let Some(rest) = base.strip_prefix("vc") {
            match rest {
                "16" => (RouterFamily::VirtualChannel, 2, 8),
                "64" => (RouterFamily::VirtualChannel, 8, 8),
                "128" => (RouterFamily::VirtualChannel, 8, 16),
                _ => {
                    let (v, d) = parse_vcs_x_depth(rest)?;
                    (RouterFamily::VirtualChannel, v, d)
                }
            }
        } else if let Some(rest) = base.strip_prefix("xb") {
            if rest.is_empty() {
                (RouterFamily::Crossbar, 16, 268)
            } else {
                let (v, d) = parse_vcs_x_depth(rest)?;
                (RouterFamily::Crossbar, v, d)
            }
        } else if let Some(rest) = base.strip_prefix("cb") {
            if rest.is_empty() {
                (RouterFamily::CentralBuffer, 1, 64)
            } else {
                let total = parse_u32(rest)?;
                if total == 0 || total > MAX_TOTAL {
                    return None;
                }
                (RouterFamily::CentralBuffer, 1, total)
            }
        } else {
            return None;
        };

        let mut radix = 4u32;
        let mut mesh = false;
        let mut node = ProcessNode::Nm100;
        let mut seen_topo = false;
        let mut seen_node = false;
        for suffix in parts {
            if let Some(rest) = suffix.strip_prefix('t') {
                let k = parse_u32(rest)?;
                if seen_topo || !(2..=MAX_RADIX).contains(&k) {
                    return None;
                }
                radix = k;
                mesh = false;
                seen_topo = true;
            } else if let Some(rest) = suffix.strip_prefix('m') {
                let k = parse_u32(rest)?;
                if seen_topo || !(2..=MAX_RADIX).contains(&k) {
                    return None;
                }
                radix = k;
                mesh = true;
                seen_topo = true;
            } else if let Some(rest) = suffix.strip_prefix('n') {
                let nm = parse_u32(rest)?;
                if seen_node {
                    return None;
                }
                node = node_from_nm(nm)?;
                seen_node = true;
            } else {
                return None;
            }
        }
        // `-t4` is redundant (the default) but accepted on input; the
        // canonical name simply omits it.
        Some(DesignPoint {
            family,
            vcs,
            depth,
            radix,
            mesh,
            node,
        })
    }

    /// The point's topology.
    pub fn topology(&self) -> Topology {
        let dims = [self.radix, self.radix];
        if self.mesh {
            Topology::mesh(&dims).expect("radix validated by the name grammar")
        } else {
            Topology::torus(&dims).expect("radix validated by the name grammar")
        }
    }

    /// Lowers the point to a network configuration on its family's
    /// platform ([`presets::onchip`] or [`presets::chip_to_chip`]), so
    /// a point equal to a paper preset is that preset's configuration.
    pub fn config(&self) -> NetworkConfig {
        let router = match self.family {
            RouterFamily::Wormhole => RouterConfig::Wormhole {
                buffer_flits: self.buffering_per_port(),
            },
            RouterFamily::VirtualChannel | RouterFamily::Crossbar => RouterConfig::VirtualChannel {
                vcs: self.vcs,
                depth: self.depth,
            },
            RouterFamily::CentralBuffer => RouterConfig::CentralBuffer {
                input_depth: self.buffering_per_port(),
                banks: 4,
                rows: 2560,
                read_ports: 2,
                write_ports: 2,
            },
        };
        let platform = match self.family.chip_to_chip() {
            true => presets::chip_to_chip,
            false => presets::onchip,
        };
        platform(self.topology(), router).technology(Technology::new(self.node))
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

fn parse_vcs_x_depth(s: &str) -> Option<(u32, u32)> {
    let (v, d) = s.split_once('x')?;
    let v = parse_u32(v)?;
    let d = parse_u32(d)?;
    if v == 0 || v > MAX_VCS || d == 0 || d > MAX_DEPTH {
        return None;
    }
    Some((v, d))
}

/// Canonicalises any design-point name (preset or parametric); `None`
/// for names outside the grammar. Spec validation maps every preset
/// axis entry through this, so `vc8x8` and `vc64` address the same
/// cache entries.
pub fn canonical_design_name(name: &str) -> Option<String> {
    DesignPoint::parse(name).map(|p| p.name())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_names_round_trip() {
        for name in ["wh64", "vc16", "vc64", "vc128", "xb", "cb"] {
            let p = DesignPoint::parse(name).unwrap();
            assert_eq!(p.name(), name, "canonical form of a paper preset");
            assert!(!p.mesh);
            assert_eq!(p.radix, 4);
            assert_eq!(p.node, ProcessNode::Nm100);
        }
    }

    #[test]
    fn parametric_aliases_canonicalise_to_paper_names() {
        assert_eq!(canonical_design_name("vc2x8").unwrap(), "vc16");
        assert_eq!(canonical_design_name("vc8x8").unwrap(), "vc64");
        assert_eq!(canonical_design_name("vc8x16").unwrap(), "vc128");
        assert_eq!(canonical_design_name("xb16x268").unwrap(), "xb");
        assert_eq!(canonical_design_name("cb64").unwrap(), "cb");
        assert_eq!(canonical_design_name("vc64-t4").unwrap(), "vc64");
        assert_eq!(canonical_design_name("vc64-n100").unwrap(), "vc64");
    }

    #[test]
    fn parametric_names_round_trip() {
        for name in [
            "wh16",
            "vc4x4",
            "vc2x8-m8",
            "xb4x64",
            "cb128",
            "wh64-t8",
            "vc64-n70",
            "cb-m4-n180",
            "vc1x1",
        ] {
            let p = DesignPoint::parse(name).unwrap();
            let canon = p.name();
            let q = DesignPoint::parse(&canon).unwrap();
            assert_eq!(p, q, "{name} -> {canon}");
            assert_eq!(q.name(), canon, "canonical form is a fixed point");
        }
        // "cb-m4-n180" canonicalises with the alias base kept.
        assert_eq!(canonical_design_name("cb64-m4-n180").unwrap(), "cb-m4-n180");
    }

    #[test]
    fn rejects_garbage() {
        for name in [
            "",
            "wh",
            "wh0",
            "vc",
            "vc4",
            "vcx8",
            "vc4x",
            "vc0x8",
            "vc4x0",
            "xb0x1",
            "cb0",
            "zz4x4",
            "vc4x4-",
            "vc4x4-q8",
            "vc4x4-t1",
            "vc4x4-t65",
            "vc4x4-n90",
            "vc4x4-t4-t8",
            "vc4x4-n70-n70",
            "wh999999999999",
            "vc4x4-m0",
            "wh64 ",
            " wh64",
            "vc-4x4",
            "vc4X4",
        ] {
            assert!(
                DesignPoint::parse(name).is_none(),
                "{name:?} must parse to None"
            );
        }
    }

    #[test]
    fn total_forms_round_trip_any_in_bounds_factorisation() {
        // wh/cb names encode vcs*depth, which can exceed MAX_DEPTH even
        // when both factors are in bounds (the explorer builds such
        // points from validated axes). The codec invariant
        // `parse(name).name() == name` must hold for every one.
        for family in [RouterFamily::Wormhole, RouterFamily::CentralBuffer] {
            for (vcs, depth) in [
                (8, 16_384),    // names "wh131072": product above MAX_DEPTH
                (2, 65_536),    // depth at its own bound
                (1024, 1),      // vcs at its own bound
                (1024, 65_536), // maximal product
                (1024, 65_535), // odd product, no small factorisation
            ] {
                let p = DesignPoint {
                    family,
                    vcs,
                    depth,
                    radix: 4,
                    mesh: false,
                    node: ProcessNode::Nm100,
                };
                let name = p.name();
                let q =
                    DesignPoint::parse(&name).unwrap_or_else(|| panic!("{name} must parse back"));
                assert_eq!(q.name(), name, "canonical form is a fixed point");
                assert_eq!(
                    q.buffering_per_port(),
                    p.buffering_per_port(),
                    "{name} preserves total storage"
                );
            }
        }
        // The product bound itself still holds.
        assert!(DesignPoint::parse("wh67108864").is_some());
        assert!(DesignPoint::parse("cb67108864").is_some());
        assert!(DesignPoint::parse("wh67108865").is_none());
        assert!(DesignPoint::parse("cb67108865").is_none());
    }

    #[test]
    fn matched_buffering_collapses_wh_and_cb_splits() {
        // wh/cb only care about total storage; any (vcs, depth)
        // factorisation of 64 names the same point.
        let a = DesignPoint {
            family: RouterFamily::Wormhole,
            vcs: 8,
            depth: 8,
            radix: 4,
            mesh: false,
            node: ProcessNode::Nm100,
        };
        assert_eq!(a.name(), "wh64");
        let b = DesignPoint {
            family: RouterFamily::CentralBuffer,
            vcs: 4,
            depth: 16,
            radix: 4,
            mesh: false,
            node: ProcessNode::Nm100,
        };
        assert_eq!(b.name(), "cb");
    }

    #[test]
    fn configs_build_and_match_platform() {
        let p = DesignPoint::parse("vc4x4-t8-n70").unwrap();
        let cfg = p.config();
        assert_eq!(cfg.flit_bits, 256);
        assert_eq!(cfg.topology.num_nodes(), 64);
        assert_eq!(cfg.tech.node(), ProcessNode::Nm70);
        cfg.build().expect("parametric on-chip point builds");

        let p = DesignPoint::parse("cb128-m4").unwrap();
        let cfg = p.config();
        assert_eq!(cfg.flit_bits, 32);
        cfg.build().expect("parametric chip-to-chip point builds");
    }

    #[test]
    fn paper_equivalent_config_goes_through_preset_constructors() {
        let paper = [
            presets::wh64_onchip(),
            presets::vc16_onchip(),
            presets::vc64_onchip(),
            presets::vc128_onchip(),
            presets::xb_chip_to_chip(),
            presets::cb_chip_to_chip(),
        ];
        for (name, preset) in crate::spec::PRESET_NAMES.iter().zip(paper) {
            let via_design = DesignPoint::parse(name).unwrap().config();
            assert_eq!(format!("{via_design:?}"), format!("{preset:?}"), "{name}");
        }
        let alias = DesignPoint::parse("vc8x8").unwrap().config();
        assert_eq!(
            format!("{alias:?}"),
            format!("{:?}", presets::vc64_onchip())
        );
    }
}
