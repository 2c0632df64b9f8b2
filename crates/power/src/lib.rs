//! Architectural-level parameterized power models for interconnection
//! network building blocks — the primary contribution of *Orion* (Wang,
//! Zhu, Peh, Malik, MICRO 2002).
//!
//! The paper derives switch-capacitance equations for the major router
//! components — these "occupy about 90% of the area of the Alpha 21364
//! router" — and charges energy per architectural operation:
//!
//! | Component | Paper | Module |
//! |---|---|---|
//! | FIFO buffer (SRAM array) | Table 2 | [`buffer`] |
//! | Matrix & multiplexer-tree crossbar | Table 3, Appendix | [`crossbar`] |
//! | Matrix, round-robin & queuing arbiter | Table 4, Appendix | [`arbiter`] |
//! | Flip-flop subcomponent | §3.2 | [`flipflop`] |
//! | On-chip & chip-to-chip links | §3.2, §4.2, §4.4 | [`link`] |
//! | Central buffer (hierarchical model) | §3.2, §4.4 | [`central_buffer`] |
//! | Router area estimation | §4.4 | [`area`] |
//! | Switching-activity tracking | §3 | [`activity`] |
//!
//! Every model follows the same pattern: a `*Params` struct of
//! architectural parameters, a `*Power` struct that precomputes the
//! parameterized capacitances at construction, per-operation
//! `*_energy(...)` methods that combine those capacitances with switching
//! activity (`E_x = ½ C_x V²`), and accessors exposing the intermediate
//! capacitances so users can extend the models hierarchically (§3.2
//! "Model hierarchy and reusability").
//!
//! # Example: per-flit router energy (§3.3 walkthrough)
//!
//! ```
//! use orion_power::{
//!     ArbiterKind, ArbiterParams, ArbiterPower, BufferParams, BufferPower,
//!     CrossbarKind, CrossbarParams, CrossbarPower, LinkPower,
//!     WriteActivity,
//! };
//! use orion_tech::{Microns, ProcessNode, Technology};
//!
//! let tech = Technology::new(ProcessNode::Nm100);
//! let buf = BufferPower::new(&BufferParams::new(4, 32), tech)?;
//! let arb = ArbiterPower::new(
//!     &ArbiterParams::new(ArbiterKind::Matrix, 4),
//!     tech,
//! )?;
//! let xb = CrossbarPower::new(
//!     &CrossbarParams::new(CrossbarKind::Matrix, 5, 5, 32),
//!     tech,
//! )?;
//! let link = LinkPower::on_chip(Microns::from_mm(3.0), 32, tech);
//!
//! let e_flit = buf.write_energy(&WriteActivity::uniform_random(32)).0
//!     + arb.arbitration_energy(0b0011, 0b0001, 2).0
//!     + buf.read_energy().0
//!     + xb.traversal_energy(16.0).0
//!     + link.traversal_energy(16.0).0;
//! assert!(e_flit > 0.0);
//! # Ok::<(), orion_power::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod arbiter;
pub mod area;
pub mod buffer;
pub mod central_buffer;
pub mod crossbar;
pub mod decoder;
pub mod error;
pub mod flipflop;
pub mod link;

pub use activity::{hamming, Bits, WriteActivity};
pub use arbiter::{ArbiterKind, ArbiterParams, ArbiterPower};
pub use area::{
    buffer_area, central_buffer_area, crossbar_area, router_area, AreaEstimate, SquareMicrons,
};
pub use buffer::{BufferParams, BufferPower};
pub use central_buffer::{CentralBufferParams, CentralBufferPower};
pub use crossbar::{CrossbarKind, CrossbarParams, CrossbarPower};
pub use decoder::DecoderPower;
pub use error::ModelError;
pub use flipflop::FlipFlopPower;
pub use link::{LinkKind, LinkPower};
