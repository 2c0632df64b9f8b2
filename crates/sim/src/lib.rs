//! Cycle-accurate interconnection-network simulator with per-event
//! energy accounting — the simulation half of the Orion reproduction.
//!
//! The paper builds its simulator from a small library of parameterized
//! modules (§2.2): sources, sinks, buffers, arbiters, crossbars and
//! links, where "wormhole and virtual-channel networks share exactly the
//! same modules but with differently configured functional and timing
//! behavior". This crate mirrors that decomposition:
//!
//! * [`flit`] — flits, packets and deterministic payloads,
//! * [`arena`] — the generational flit arena backing the
//!   allocation-free scheduler hot path,
//! * [`fifo`] — flit FIFOs that report exact SRAM switching activity,
//! * [`arb`] — functional matrix / round-robin arbiters that report
//!   the switching statistics their power models charge,
//! * [`energy`] — the [`EnergyLedger`]: the event→power-model hook
//!   replacing LSE's event subsystem,
//! * [`router`] — wormhole, virtual-channel and central-buffered router
//!   microarchitectures, with selectable VC disciplines
//!   ([`VcDiscipline`]) and flow-control granularity ([`FlowControl`]),
//! * [`network`] — the whole-network engine with credit-based flow
//!   control and single-cycle channels,
//! * [`stats`] — latency statistics and the zero-load latency model,
//! * [`watchdog`] — stall classification ([`StallKind`]) and the
//!   [`StallDiagnostics`] snapshot the network captures when progress
//!   stops, instead of waiting out the cycle budget,
//! * [`audit`] — the opt-in invariant auditor: flit conservation,
//!   credit/occupancy bounds and energy-ledger sanity, reported as
//!   typed [`AuditViolation`]s instead of silently wrong numbers,
//! * [`snapshot`] — the byte primitives behind [`Network::snapshot`] /
//!   [`Network::restore`], whose one image codec
//!   ([`network::image`]) serialises the complete simulation state
//!   canonically — the same bytes at every shard count — for mid-run
//!   checkpointing, with a resume path bit-identical to an
//!   uninterrupted run.
//!
//! Observability hangs off [`Network::set_obs`]: with an
//! [`orion_obs::ObsSink`] attached, the engine publishes injection,
//! VA/SA-grant, link-traversal, ejection and credit events into its
//! metrics registry and (optionally) flit tracer, and
//! [`Network::node_states`] exposes per-node probe samples. With no
//! sink attached every event site is a single `None` check and runs are
//! bit-identical to an uninstrumented build.
//!
//! # Example
//!
//! ```
//! use orion_net::{DimensionOrder, NodeId, Topology};
//! use orion_power::{
//!     ArbiterKind, ArbiterParams, ArbiterPower, BufferParams, BufferPower,
//!     CrossbarKind, CrossbarParams, CrossbarPower, LinkPower,
//! };
//! use orion_sim::network::{Network, NetworkSpec, RouterKind};
//! use orion_sim::router::vc::VcRouterSpec;
//! use orion_sim::energy::PowerModels;
//! use orion_tech::{Microns, ProcessNode, Technology};
//!
//! let tech = Technology::new(ProcessNode::Nm100);
//! let crossbar = CrossbarPower::new(
//!     &CrossbarParams::new(CrossbarKind::Matrix, 5, 5, 64), tech)?;
//! let arbiter = ArbiterPower::new(
//!     &ArbiterParams::new(ArbiterKind::Matrix, 5), tech)?
//!     .with_control_energy(crossbar.control_energy());
//! let models = PowerModels {
//!     flit_bits: 64,
//!     buffer: BufferPower::new(&BufferParams::new(16, 64), tech)?,
//!     crossbar,
//!     arbiter,
//!     link: LinkPower::on_chip(Microns::from_mm(3.0), 64, tech),
//!     central: None,
//! };
//! let mut net = Network::new(
//!     NetworkSpec {
//!         topology: Topology::torus(&[4, 4]).unwrap(),
//!         router: RouterKind::Vc(VcRouterSpec::wormhole(5, 16, 64)),
//!         packet_len: 5,
//!         dim_order: DimensionOrder::YFirst,
//!     },
//!     models,
//! );
//! net.enqueue_packet(NodeId(0), NodeId(5), true);
//! while !net.is_drained() {
//!     net.step();
//! }
//! assert_eq!(net.stats().packets_delivered, 1);
//! assert!(net.ledger().total_energy().0 > 0.0);
//! # Ok::<(), orion_power::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arb;
pub mod arena;
pub mod audit;
pub mod boundary;
pub mod energy;
pub mod fifo;
pub mod flit;
pub mod network;
pub mod router;
pub mod snapshot;
pub mod stats;
pub mod watchdog;

pub use arb::{FunctionalArbiter, Grant, MatrixArbiter, RoundRobinArbiter};
pub use arena::{FlitArena, FlitRef};
pub use audit::{AuditViolation, InvariantAuditor};
pub use boundary::{CreditMsg, FlitMsg, NullIo, ShardIo};
pub use energy::{scaled_hamming, Component, EnergyLedger, PowerModels};
pub use fifo::FlitFifo;
pub use flit::{Flit, PacketId};
pub use network::{EngineMode, Network, NetworkSpec, RouterKind, WheelHorizonError};
pub use router::central::{CentralRouter, CentralRouterSpec};
pub use router::vc::{FlowControl, VcDiscipline, VcRouter, VcRouterSpec, MAX_INPUT_VCS};
pub use snapshot::SnapshotError;
pub use stats::{zero_load_latency, SimStats};
pub use watchdog::{StallDiagnostics, StallKind, StalledVc};

pub use orion_obs::{NodeState, ObsSink};
