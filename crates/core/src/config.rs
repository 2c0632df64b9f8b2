//! Network configuration: the user-facing "pick, plug and play"
//! surface (§6 of the paper) that assembles router modules and their
//! power models into a simulatable network.

use orion_net::{DimensionOrder, Topology};
use orion_power::{
    router_area, ArbiterKind, ArbiterParams, ArbiterPower, AreaEstimate, BufferParams, BufferPower,
    CentralBufferParams, CentralBufferPower, CrossbarKind, CrossbarParams, CrossbarPower,
    LinkPower, ModelError,
};
use orion_sim::fifo::MAX_CAPACITY;
use orion_sim::{
    CentralRouterSpec, FlowControl, NetworkSpec, PowerModels, RouterKind, VcDiscipline,
    VcRouterSpec, MAX_INPUT_VCS,
};
use orion_tech::{Hertz, Microns, Technology, Watts};

/// A configuration the runner cannot simulate, reported as a typed
/// error instead of a panic deep inside workload or route construction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// Injection rate outside `[0, 1]` packets/cycle/node.
    InvalidRate(f64),
    /// Packets must carry at least one flit.
    ZeroPacketLength,
    /// A custom dimension order that is not a permutation of
    /// `0..dims` for the configured topology.
    BadDimensionOrder {
        /// Number of topology dimensions.
        dims: u8,
        /// The rejected order.
        order: Vec<u8>,
    },
    /// A power-model parameter out of range (wraps
    /// [`ModelError`]).
    Model(ModelError),
    /// A shard count the topology cannot host: zero, or more shards
    /// than nodes (every shard must own at least one router).
    InvalidShards {
        /// The rejected shard count.
        shards: usize,
        /// Nodes in the configured topology.
        nodes: usize,
    },
    /// A router larger than the simulator's state layout holds: more
    /// than [`MAX_INPUT_VCS`] input VCs (ports × VCs), or a per-VC
    /// buffer deeper than [`MAX_CAPACITY`] flits.
    RouterTooLarge {
        /// Ports per router (set by the topology).
        ports: usize,
        /// Virtual channels per port.
        vcs: usize,
        /// Buffer depth per VC, in flits.
        depth: usize,
    },
    /// A per-VC buffer too shallow for the flow control: cut-through
    /// needs a whole packet, bubble two.
    BufferTooShallow {
        /// Buffer depth per VC, in flits.
        depth: usize,
        /// The configured flow control.
        flow_control: FlowControl,
        /// Packet length in flits.
        packet_len: u32,
    },
    /// Dateline or escape VC allocation on a virtual-channel router
    /// with a single VC: both split the VCs into two classes.
    DisciplineNeedsTwoVcs(VcDiscipline),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InvalidRate(rate) => {
                write!(f, "injection rate {rate} outside [0, 1] packets/cycle/node")
            }
            ConfigError::ZeroPacketLength => write!(f, "packet length must be at least 1 flit"),
            ConfigError::BadDimensionOrder { dims, order } => write!(
                f,
                "dimension order {order:?} is not a permutation of 0..{dims}"
            ),
            ConfigError::Model(e) => write!(f, "{e}"),
            ConfigError::InvalidShards { shards, nodes } => write!(
                f,
                "shard count {shards} invalid for a {nodes}-node topology \
                 (expected 1..={nodes})"
            ),
            ConfigError::RouterTooLarge { ports, vcs, depth } => {
                if ports * vcs > MAX_INPUT_VCS {
                    write!(
                        f,
                        "router has {ports} ports x {vcs} VCs = {} input VCs; \
                         the simulator supports at most {MAX_INPUT_VCS}",
                        ports * vcs
                    )
                } else {
                    write!(
                        f,
                        "buffer depth {depth} flits exceeds the simulator's limit \
                         of {MAX_CAPACITY} flits per buffer"
                    )
                }
            }
            ConfigError::BufferTooShallow {
                depth,
                flow_control,
                packet_len,
            } => write!(
                f,
                "buffer depth {depth} flits too small for {flow_control:?} flow control \
                 with {packet_len}-flit packets (needs {})",
                flow_control.min_depth(*packet_len)
            ),
            ConfigError::DisciplineNeedsTwoVcs(discipline) => write!(
                f,
                "{discipline:?} VC allocation needs at least 2 VCs per port"
            ),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for ConfigError {
    fn from(e: ModelError) -> ConfigError {
        ConfigError::Model(e)
    }
}

/// Router microarchitecture choice and sizing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouterConfig {
    /// Wormhole router: a single `buffer_flits`-deep queue per input
    /// port, 2-stage pipeline.
    Wormhole {
        /// Input buffer depth per port, in flits.
        buffer_flits: u32,
    },
    /// Virtual-channel router: `vcs` VCs of `depth` flits per input
    /// port, 3-stage pipeline.
    VirtualChannel {
        /// Virtual channels per port.
        vcs: u32,
        /// Buffer depth per VC, in flits.
        depth: u32,
    },
    /// Central-buffered router (§4.4).
    CentralBuffer {
        /// Input FIFO depth per port, in flits.
        input_depth: u32,
        /// Central-buffer banks (each one flit wide).
        banks: u32,
        /// Rows ("chunks") per bank.
        rows: u32,
        /// Memory read ports.
        read_ports: u32,
        /// Memory write ports.
        write_ports: u32,
    },
}

impl RouterConfig {
    /// Total input buffering per port in flits (the naming scheme of the
    /// paper's configurations: WH64, VC16, VC64, VC128).
    pub fn buffering_per_port(&self) -> u32 {
        match self {
            RouterConfig::Wormhole { buffer_flits } => *buffer_flits,
            RouterConfig::VirtualChannel { vcs, depth } => vcs * depth,
            RouterConfig::CentralBuffer { input_depth, .. } => *input_depth,
        }
    }
}

/// Link technology choice.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum LinkConfig {
    /// On-chip wires of the given physical length; switching power only
    /// (§4.2).
    OnChip {
        /// Link length (the paper's 4×4 torus on a 12 mm × 12 mm chip
        /// has 3 mm links).
        length: Microns,
    },
    /// Chip-to-chip differential link with constant datasheet power
    /// (§4.4).
    ChipToChip {
        /// Always-on power per directional link.
        power: Watts,
    },
}

/// A complete network configuration: topology, router, technology,
/// clock and link choices.
///
/// ```
/// use orion_core::{LinkConfig, NetworkConfig, RouterConfig};
/// use orion_net::Topology;
/// use orion_tech::{Hertz, Microns, ProcessNode, Technology};
///
/// let cfg = NetworkConfig::new(
///     Topology::torus(&[4, 4])?,
///     RouterConfig::VirtualChannel { vcs: 2, depth: 8 },
///     256,
/// )
/// .clock(Hertz::from_ghz(2.0))
/// .link(LinkConfig::OnChip { length: Microns::from_mm(3.0) });
/// assert_eq!(cfg.router.buffering_per_port(), 16);
/// # Ok::<(), orion_net::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// The topology.
    pub topology: Topology,
    /// Router microarchitecture.
    pub router: RouterConfig,
    /// Flit width in bits.
    pub flit_bits: u32,
    /// Flits per packet (paper default: 5).
    pub packet_len: u32,
    /// Process technology.
    pub tech: Technology,
    /// Clock frequency.
    pub f_clk: Hertz,
    /// Link technology.
    pub link: LinkConfig,
    /// Dimension order for source routing (paper: y first).
    pub dim_order: DimensionOrder,
    /// Arbiter style (paper: matrix).
    pub arbiter_kind: ArbiterKind,
    /// Crossbar style (paper: matrix).
    pub crossbar_kind: CrossbarKind,
    /// VC allocation discipline for virtual-channel routers (paper
    /// behaviour: unrestricted; see [`VcDiscipline`]).
    pub vc_discipline: VcDiscipline,
    /// Buffer-claim granularity for head flits (paper behaviour:
    /// flit-level; see [`FlowControl`]).
    pub flow_control: FlowControl,
}

impl NetworkConfig {
    /// Creates a configuration with the paper's defaults: 5-flit
    /// packets, y-first dimension-ordered routing, matrix arbiters and
    /// crossbars, 0.1 µm technology, 2 GHz clock, 3 mm on-chip links.
    pub fn new(topology: Topology, router: RouterConfig, flit_bits: u32) -> NetworkConfig {
        NetworkConfig {
            topology,
            router,
            flit_bits,
            packet_len: 5,
            tech: Technology::new(orion_tech::ProcessNode::Nm100),
            f_clk: Hertz::from_ghz(2.0),
            link: LinkConfig::OnChip {
                length: Microns::from_mm(3.0),
            },
            dim_order: DimensionOrder::YFirst,
            arbiter_kind: ArbiterKind::Matrix,
            crossbar_kind: CrossbarKind::Matrix,
            vc_discipline: VcDiscipline::Unrestricted,
            flow_control: FlowControl::FlitLevel,
        }
    }

    /// Sets the clock frequency.
    pub fn clock(mut self, f_clk: Hertz) -> NetworkConfig {
        self.f_clk = f_clk;
        self
    }

    /// Sets the link technology.
    pub fn link(mut self, link: LinkConfig) -> NetworkConfig {
        self.link = link;
        self
    }

    /// Sets the process technology.
    pub fn technology(mut self, tech: Technology) -> NetworkConfig {
        self.tech = tech;
        self
    }

    /// Sets the packet length in flits.
    pub fn packet_len(mut self, len: u32) -> NetworkConfig {
        self.packet_len = len;
        self
    }

    /// Sets the arbiter style.
    pub fn arbiter(mut self, kind: ArbiterKind) -> NetworkConfig {
        self.arbiter_kind = kind;
        self
    }

    /// Sets the crossbar style.
    pub fn crossbar(mut self, kind: CrossbarKind) -> NetworkConfig {
        self.crossbar_kind = kind;
        self
    }

    /// Sets the routing dimension order.
    pub fn dimension_order(mut self, order: DimensionOrder) -> NetworkConfig {
        self.dim_order = order;
        self
    }

    /// Sets the VC allocation discipline for virtual-channel routers
    /// (ignored by wormhole and central-buffered routers).
    pub fn vc_discipline(mut self, discipline: VcDiscipline) -> NetworkConfig {
        self.vc_discipline = discipline;
        self
    }

    /// Sets the flow-control granularity for crossbar routers (ignored
    /// by central-buffered routers).
    pub fn flow_control(mut self, flow_control: FlowControl) -> NetworkConfig {
        self.flow_control = flow_control;
        self
    }

    /// Validates the parts of the configuration that the simulator
    /// would otherwise reject with a panic: packet length, custom
    /// dimension orders, the router's size limits, the buffer depth
    /// its flow control needs and the VCs its discipline needs.
    /// (Power-model
    /// parameters are validated by [`build`](NetworkConfig::build),
    /// which returns [`ModelError`] wrapped in [`ConfigError::Model`]
    /// via the runner.)
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroPacketLength`],
    /// [`ConfigError::BadDimensionOrder`],
    /// [`ConfigError::RouterTooLarge`],
    /// [`ConfigError::BufferTooShallow`] or
    /// [`ConfigError::DisciplineNeedsTwoVcs`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.packet_len == 0 {
            return Err(ConfigError::ZeroPacketLength);
        }
        let (vcs, depth) = match self.router {
            RouterConfig::Wormhole { buffer_flits } => (1, buffer_flits),
            RouterConfig::VirtualChannel { vcs, depth } => (vcs, depth),
            RouterConfig::CentralBuffer { input_depth, .. } => (1, input_depth),
        };
        let (ports, vcs, depth) = (self.ports(), vcs as usize, depth as usize);
        if ports * vcs > MAX_INPUT_VCS || depth > MAX_CAPACITY {
            return Err(ConfigError::RouterTooLarge { ports, vcs, depth });
        }
        let vc_router = matches!(self.router, RouterConfig::VirtualChannel { .. });
        if vc_router && vcs < 2 && self.vc_discipline != VcDiscipline::Unrestricted {
            return Err(ConfigError::DisciplineNeedsTwoVcs(self.vc_discipline));
        }
        // Central-buffered routers ignore the flow control.
        let flow_controlled = !matches!(self.router, RouterConfig::CentralBuffer { .. });
        if flow_controlled && depth < self.flow_control.min_depth(self.packet_len) {
            return Err(ConfigError::BufferTooShallow {
                depth,
                flow_control: self.flow_control,
                packet_len: self.packet_len,
            });
        }
        if let DimensionOrder::Custom(order) = &self.dim_order {
            let dims = self.topology.dims() as u8;
            let mut seen = vec![false; dims as usize];
            let is_permutation = order.len() == dims as usize
                && order.iter().all(|&d| {
                    (d as usize) < seen.len() && !std::mem::replace(&mut seen[d as usize], true)
                });
            if !is_permutation {
                return Err(ConfigError::BadDimensionOrder {
                    dims,
                    order: order.clone(),
                });
            }
        }
        Ok(())
    }

    /// Number of ports per router implied by the topology.
    pub fn ports(&self) -> usize {
        self.topology.ports_per_router()
    }

    /// Outgoing directional network links per node (no link on the
    /// local port).
    pub fn links_per_node(&self) -> usize {
        self.ports() - 1
    }

    /// The link power model.
    pub fn link_model(&self) -> LinkPower {
        match self.link {
            LinkConfig::OnChip { length } => LinkPower::on_chip(length, self.flit_bits, self.tech),
            LinkConfig::ChipToChip { power } => LinkPower::chip_to_chip(power, self.flit_bits),
        }
    }

    /// Builds the simulator spec and the power models.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if any model parameter
    /// is out of range (e.g. zero buffers).
    pub fn build(&self) -> Result<(NetworkSpec, PowerModels), ModelError> {
        let ports = self.ports() as u32;
        // One SRAM per input port: rows = total flits of buffering per
        // port (VC partitioning is a logical overlay; see DESIGN.md).
        let buffer = BufferPower::new(
            &BufferParams::new(self.router.buffering_per_port(), self.flit_bits),
            self.tech,
        )?;
        let crossbar = CrossbarPower::new(
            &CrossbarParams::new(self.crossbar_kind, ports, ports, self.flit_bits),
            self.tech,
        )?;
        let arbiter = ArbiterPower::new(&ArbiterParams::new(self.arbiter_kind, ports), self.tech)?
            .with_control_energy(crossbar.control_energy());
        let link = self.link_model();

        let (router, central) = match &self.router {
            RouterConfig::Wormhole { buffer_flits } => (
                RouterKind::Vc(
                    VcRouterSpec::wormhole(ports as usize, *buffer_flits as usize, self.flit_bits)
                        .with_flow_control(self.flow_control),
                ),
                None,
            ),
            RouterConfig::VirtualChannel { vcs, depth } => (
                RouterKind::Vc(
                    VcRouterSpec::virtual_channel(
                        ports as usize,
                        *vcs as usize,
                        *depth as usize,
                        self.flit_bits,
                    )
                    .with_discipline(self.vc_discipline)
                    .with_flow_control(self.flow_control),
                ),
                None,
            ),
            RouterConfig::CentralBuffer {
                input_depth,
                banks,
                rows,
                read_ports,
                write_ports,
            } => {
                let model = CentralBufferPower::new(
                    &CentralBufferParams::new(*banks, *rows, self.flit_bits)
                        .with_ports(*read_ports, *write_ports),
                    self.tech,
                )?;
                (
                    RouterKind::Central(CentralRouterSpec {
                        ports: ports as usize,
                        input_depth: *input_depth as usize,
                        capacity: (*banks as usize) * (*rows as usize),
                        write_ports: *write_ports as usize,
                        read_ports: *read_ports as usize,
                        flit_bits: self.flit_bits,
                    }),
                    Some(model),
                )
            }
        };

        Ok((
            NetworkSpec {
                topology: self.topology.clone(),
                router,
                packet_len: self.packet_len,
                dim_order: self.dim_order.clone(),
            },
            PowerModels {
                flit_bits: self.flit_bits,
                buffer,
                crossbar,
                arbiter,
                link,
                central,
            },
        ))
    }

    /// Estimated router area for this configuration (§4.4's
    /// matched-area methodology).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for out-of-range model
    /// parameters.
    pub fn router_area(&self) -> Result<AreaEstimate, ModelError> {
        let ports = self.ports() as u32;
        let buffer = BufferPower::new(
            &BufferParams::new(self.router.buffering_per_port(), self.flit_bits),
            self.tech,
        )?;
        let buffers: Vec<&BufferPower> = (0..ports).map(|_| &buffer).collect();
        match &self.router {
            RouterConfig::CentralBuffer {
                banks,
                rows,
                read_ports,
                write_ports,
                ..
            } => {
                let cb = CentralBufferPower::new(
                    &CentralBufferParams::new(*banks, *rows, self.flit_bits)
                        .with_ports(*read_ports, *write_ports),
                    self.tech,
                )?;
                Ok(router_area(&buffers, None, Some(&cb)))
            }
            _ => {
                let xb = CrossbarPower::new(
                    &CrossbarParams::new(self.crossbar_kind, ports, ports, self.flit_bits),
                    self.tech,
                )?;
                Ok(router_area(&buffers, Some(&xb), None))
            }
        }
    }

    /// Head-flit pipeline stages of the configured router (for the
    /// zero-load latency model).
    pub fn head_stages(&self) -> u32 {
        match self.router {
            RouterConfig::Wormhole { .. } => 1,
            RouterConfig::VirtualChannel { .. } => 2,
            RouterConfig::CentralBuffer { .. } => 2,
        }
    }

    /// Analytic zero-load latency of this configuration under uniform
    /// traffic.
    pub fn zero_load_latency(&self) -> f64 {
        orion_sim::zero_load_latency(
            self.topology.average_distance(),
            self.head_stages(),
            self.packet_len,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_net::NodeId;

    fn base() -> NetworkConfig {
        NetworkConfig::new(
            Topology::torus(&[4, 4]).unwrap(),
            RouterConfig::VirtualChannel { vcs: 2, depth: 8 },
            256,
        )
    }

    #[test]
    fn defaults_match_paper() {
        let cfg = base();
        assert_eq!(cfg.packet_len, 5);
        assert_eq!(cfg.f_clk, Hertz::from_ghz(2.0));
        assert_eq!(cfg.tech.vdd().0, 1.2);
        assert_eq!(cfg.ports(), 5);
        assert_eq!(cfg.links_per_node(), 4);
    }

    #[test]
    fn buffering_names_match_paper_conventions() {
        assert_eq!(
            RouterConfig::Wormhole { buffer_flits: 64 }.buffering_per_port(),
            64
        );
        assert_eq!(
            RouterConfig::VirtualChannel { vcs: 2, depth: 8 }.buffering_per_port(),
            16
        );
        assert_eq!(
            RouterConfig::VirtualChannel { vcs: 8, depth: 16 }.buffering_per_port(),
            128
        );
    }

    #[test]
    fn build_produces_consistent_spec() {
        let (spec, models) = base().build().unwrap();
        assert_eq!(spec.packet_len, 5);
        assert_eq!(models.flit_bits, 256);
        assert_eq!(models.buffer.flits(), 16);
        assert!(models.central.is_none());
        match spec.router {
            RouterKind::Vc(s) => {
                assert_eq!(s.vcs, 2);
                assert_eq!(s.depth, 8);
                assert!(s.has_va_stage);
                assert_eq!(s.discipline, orion_sim::VcDiscipline::Unrestricted);
            }
            _ => panic!("expected VC router"),
        }
    }

    #[test]
    fn central_buffer_build() {
        let cfg = NetworkConfig::new(
            Topology::torus(&[4, 4]).unwrap(),
            RouterConfig::CentralBuffer {
                input_depth: 64,
                banks: 4,
                rows: 2560,
                read_ports: 2,
                write_ports: 2,
            },
            32,
        );
        let (spec, models) = cfg.build().unwrap();
        assert!(models.central.is_some());
        match spec.router {
            RouterKind::Central(s) => {
                assert_eq!(s.capacity, 4 * 2560);
                assert_eq!(s.read_ports, 2);
            }
            _ => panic!("expected CB router"),
        }
    }

    #[test]
    fn zero_load_latency_ordering() {
        let wh = NetworkConfig::new(
            Topology::torus(&[4, 4]).unwrap(),
            RouterConfig::Wormhole { buffer_flits: 64 },
            256,
        );
        let vc = base();
        assert!(wh.zero_load_latency() < vc.zero_load_latency());
    }

    #[test]
    fn area_bigger_with_more_buffering() {
        let small = base();
        let big = NetworkConfig::new(
            Topology::torus(&[4, 4]).unwrap(),
            RouterConfig::VirtualChannel { vcs: 8, depth: 16 },
            256,
        );
        assert!(big.router_area().unwrap().total().0 > small.router_area().unwrap().total().0);
    }

    #[test]
    fn link_model_follows_config() {
        let on = base();
        assert_eq!(on.link_model().static_power(), Watts::ZERO);
        let c2c = base().link(LinkConfig::ChipToChip { power: Watts(3.0) });
        assert_eq!(c2c.link_model().static_power(), Watts(3.0));
    }

    #[test]
    fn invalid_config_errors() {
        let cfg = NetworkConfig::new(
            Topology::torus(&[4, 4]).unwrap(),
            RouterConfig::Wormhole { buffer_flits: 0 },
            256,
        );
        assert!(cfg.build().is_err());
        assert!(cfg.router_area().is_err());
    }

    #[test]
    fn validate_accepts_defaults_and_good_custom_orders() {
        assert_eq!(base().validate(), Ok(()));
        let custom = base().dimension_order(DimensionOrder::Custom(vec![1, 0]));
        assert_eq!(custom.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_configs_with_typed_errors() {
        let zero_len = base().packet_len(0);
        assert_eq!(zero_len.validate(), Err(ConfigError::ZeroPacketLength));

        for bad in [vec![0u8, 0], vec![0], vec![0, 2], vec![0, 1, 2]] {
            let cfg = base().dimension_order(DimensionOrder::Custom(bad.clone()));
            match cfg.validate() {
                Err(ConfigError::BadDimensionOrder { dims: 2, order }) => {
                    assert_eq!(order, bad);
                }
                other => panic!("expected BadDimensionOrder for {bad:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn validate_rejects_routers_beyond_the_state_layout() {
        let router = |router| NetworkConfig::new(Topology::torus(&[4, 4]).unwrap(), router, 256);
        // 5 ports x 25 VCs = 125 input VCs fit; 5 x 26 = 130 do not.
        let widest = router(RouterConfig::VirtualChannel { vcs: 25, depth: 2 });
        assert_eq!(widest.validate(), Ok(()));
        let too_wide = router(RouterConfig::VirtualChannel { vcs: 26, depth: 2 });
        let err = too_wide.validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::RouterTooLarge {
                ports: 5,
                vcs: 26,
                depth: 2
            }
        );
        assert!(err.to_string().contains("130 input VCs"), "{err}");
        let deepest = router(RouterConfig::Wormhole {
            buffer_flits: MAX_CAPACITY as u32,
        });
        assert_eq!(deepest.validate(), Ok(()));
        let too_deep = router(RouterConfig::Wormhole {
            buffer_flits: MAX_CAPACITY as u32 + 1,
        });
        let err = too_deep.validate().unwrap_err();
        assert!(matches!(err, ConfigError::RouterTooLarge { vcs: 1, .. }));
        assert!(err.to_string().contains("buffer depth 65536"), "{err}");
    }

    #[test]
    fn validate_rejects_buffers_too_shallow_for_the_flow_control() {
        // vc16: 2 VCs x 8 flits, 5-flit packets.
        let vc16 = || {
            NetworkConfig::new(
                Topology::torus(&[4, 4]).unwrap(),
                RouterConfig::VirtualChannel { vcs: 2, depth: 8 },
                256,
            )
            .packet_len(5)
        };
        assert_eq!(
            vc16().flow_control(FlowControl::CutThrough).validate(),
            Ok(())
        );
        let bubble = vc16().flow_control(FlowControl::Bubble);
        let err = bubble.validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::BufferTooShallow {
                depth: 8,
                flow_control: FlowControl::Bubble,
                packet_len: 5
            }
        );
        assert!(err.to_string().contains("(needs 10)"), "{err}");
        assert_eq!(bubble.packet_len(4).validate(), Ok(()));
        let cut = vc16().flow_control(FlowControl::CutThrough).packet_len(9);
        assert!(matches!(
            cut.validate(),
            Err(ConfigError::BufferTooShallow { depth: 8, .. })
        ));
        // Flit-level credits run on one flit of buffering.
        let one = NetworkConfig::new(
            Topology::torus(&[4, 4]).unwrap(),
            RouterConfig::Wormhole { buffer_flits: 1 },
            256,
        )
        .packet_len(5);
        assert_eq!(one.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_dateline_and_escape_on_one_vc() {
        let vcs = |vcs| {
            NetworkConfig::new(
                Topology::torus(&[4, 4]).unwrap(),
                RouterConfig::VirtualChannel { vcs, depth: 8 },
                256,
            )
        };
        for discipline in [VcDiscipline::Dateline, VcDiscipline::Escape] {
            let err = vcs(1).vc_discipline(discipline).validate().unwrap_err();
            assert_eq!(err, ConfigError::DisciplineNeedsTwoVcs(discipline));
            assert!(err.to_string().contains("at least 2 VCs"), "{err}");
            assert_eq!(vcs(2).vc_discipline(discipline).validate(), Ok(()));
        }
        assert_eq!(vcs(1).validate(), Ok(()));
    }

    #[test]
    fn config_error_display_and_conversion() {
        let e = ConfigError::InvalidRate(1.5);
        assert!(e.to_string().contains("1.5"));
        assert!(ConfigError::ZeroPacketLength.to_string().contains("1 flit"));
        let bad = NetworkConfig::new(
            Topology::torus(&[4, 4]).unwrap(),
            RouterConfig::Wormhole { buffer_flits: 0 },
            256,
        );
        let wrapped: ConfigError = bad.build().unwrap_err().into();
        assert!(matches!(wrapped, ConfigError::Model(_)));
        assert!(std::error::Error::source(&wrapped).is_some());
    }

    #[test]
    fn topology_nodes_addressable() {
        let cfg = base();
        assert_eq!(cfg.topology.num_nodes(), 16);
        assert_eq!(cfg.topology.node_at(&[1, 2]), NodeId(9));
    }
}
