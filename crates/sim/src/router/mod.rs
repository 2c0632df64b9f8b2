//! Router microarchitectures.
//!
//! * [`vc`] — the input-buffered crossbar router, covering both the
//!   paper's wormhole configuration (1 VC, 2-stage pipeline of switch
//!   arbitration + crossbar traversal) and virtual-channel
//!   configurations (3-stage pipeline of VC allocation, switch
//!   allocation, crossbar traversal), per the Peh–Dally router delay
//!   model the paper adopts (§4.2).
//! * [`central`] — the central-buffered router of §4.4, where a shared
//!   pipelined memory forwards flits between input and output ports.

pub mod central;
pub mod vc;

use crate::arena::FlitRef;

/// A flit leaving a router this cycle through `out_port`.
#[derive(Debug, Clone, Copy)]
pub struct Departure {
    /// Output port index (0 = local ejection).
    pub out_port: usize,
    /// Arena handle of the departing flit, with `target_vc` set to its
    /// downstream input VC.
    pub flit: FlitRef,
}

/// A credit returned upstream: one slot freed in input `(port, vc)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreditReturn {
    /// The input port whose buffer freed a slot.
    pub in_port: usize,
    /// The virtual channel within that port.
    pub vc: usize,
}

/// Everything a router produces in one cycle.
#[derive(Debug, Clone, Default)]
pub struct StepOutput {
    /// Flits sent to output links / ejection.
    pub departures: Vec<Departure>,
    /// Credits to return to upstream routers.
    pub credits: Vec<CreditReturn>,
    /// The VC router's VA/SA scratch: dead between steps, so one set
    /// serves every router the engine steps with this output.
    pub(crate) scratch: vc::Scratch,
}

impl StepOutput {
    /// An empty output.
    pub fn new() -> StepOutput {
        StepOutput::default()
    }

    /// Empties both lists, keeping their allocations (and the scratch)
    /// for reuse — the network engine holds one `StepOutput` and clears
    /// it per router per cycle instead of allocating fresh vectors.
    pub fn clear(&mut self) {
        self.departures.clear();
        self.credits.clear();
    }
}
