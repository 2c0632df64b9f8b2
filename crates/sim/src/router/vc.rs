//! Input-buffered crossbar router with virtual channels.
//!
//! One implementation covers the paper's two flow-control disciplines —
//! "wormhole and virtual-channel networks share exactly the same modules
//! but with differently configured functional and timing behavior"
//! (§2.2):
//!
//! * **Virtual-channel router** ([`VcRouterSpec::virtual_channel`]): the
//!   3-stage pipeline of §4.2 — virtual-channel allocation (VA), switch
//!   allocation (SA), crossbar traversal (ST). Head flits spend a cycle
//!   in VA; every flit spends a cycle in the buffer before SA and a
//!   cycle in ST.
//! * **Wormhole router** ([`VcRouterSpec::wormhole`]): the 2-stage
//!   pipeline — switch arbitration, crossbar traversal. There is a
//!   single queue per input port and the output port is held by a packet
//!   from head grant to tail traversal.
//!
//! Timing convention (shared with [`Network`](crate::network::Network)):
//! a flit written into an input buffer at cycle `t` may compete for SA
//! (wormhole) or VA (virtual-channel) from `t+1`; a VA grant at `u`
//! allows SA from `u+1`; an SA grant at `v` reads the buffer and the
//! flit reaches the neighbouring router at `v+2` (one cycle of crossbar
//! traversal + one cycle of link propagation, §4.1) or the local sink at
//! `v+1` ("immediate ejection").
//!
//! Torus deadlock freedom is governed by [`VcDiscipline`]: unrestricted
//! allocation (the paper's behaviour), Dally's dateline classes, or
//! Duato-style escape VCs.

use orion_power::ArbiterKind;

/// When a head flit may claim downstream buffer space.
///
/// The paper's routers use flit-level (wormhole / virtual-channel) flow
/// control; the alternatives model store-bigger units:
///
/// * **Cut-through**: a head advances only when the downstream buffer
///   can hold the *whole packet* (IBM SP2-class switches).
/// * **Bubble**: cut-through plus the bubble condition of Puente/Carrión
///   (as in the BlueGene/L torus): entering a new dimension (or
///   injecting) additionally requires one spare packet-sized bubble in
///   the target channel, which makes dimension-ordered routing on a
///   torus deadlock-free *without* dateline VC classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FlowControl {
    /// Flit-level credits (the paper's wormhole / VC routers).
    #[default]
    FlitLevel,
    /// Whole-packet buffer reservation at the head.
    CutThrough,
    /// Cut-through + bubble condition on dimension entry
    /// (deadlock-free on tori).
    Bubble,
}

/// How output virtual channels may be allocated on a torus.
///
/// Dimension-ordered routing on a torus has cyclic channel dependencies
/// (Dally & Seitz), so unrestricted VC allocation admits deadlock deep
/// past saturation. The paper's experiments behave as if allocation were
/// unrestricted; the alternatives below trade a little throughput for
/// provable deadlock freedom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VcDiscipline {
    /// Any free VC may be allocated (the paper's behaviour). Deadlock
    /// is possible deep past saturation; the experiment runner detects
    /// and reports it.
    #[default]
    Unrestricted,
    /// Dally's dateline scheme: VCs split into two classes; packets
    /// move to class 1 after crossing the wrap-around link of the
    /// dimension they are traversing. Provably deadlock-free; halves
    /// the VCs available to any one packet.
    Dateline,
    /// Duato-style escape VCs: VC 0 and VC 1 form a dateline-restricted
    /// escape pair; all remaining VCs are freely allocatable. Provably
    /// deadlock-free with nearly full VC utilisation when `vcs > 2`
    /// (needs `vcs >= 2`).
    Escape,
}

use orion_obs::ObsSink;

use crate::arb::{FunctionalArbiter, RoundRobinArbiter};
use crate::arena::{FlitArena, FlitRef};
use crate::energy::EnergyLedger;
use crate::fifo::FlitFifo;
use crate::flit::Flit;
use crate::router::{CreditReturn, Departure, StepOutput};
use crate::snapshot::{ByteReader, ByteWriter, SnapshotError};

/// Configuration of a [`VcRouter`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcRouterSpec {
    /// Ports including the local injection/ejection port (index 0).
    pub ports: usize,
    /// Virtual channels per port.
    pub vcs: usize,
    /// Buffer depth per VC, in flits.
    pub depth: usize,
    /// Flit width in bits.
    pub flit_bits: u32,
    /// Whether the pipeline has a VC-allocation stage (3-stage VC router
    /// vs. 2-stage wormhole router).
    pub has_va_stage: bool,
    /// VC allocation discipline (torus deadlock avoidance).
    pub discipline: VcDiscipline,
    /// Arbiter discipline for switch allocation (the paper's routers use
    /// matrix arbiters).
    pub arbiter_kind: ArbiterKind,
    /// Switch-allocation matching iterations per cycle (iSLIP-style);
    /// extra iterations only help routers with multiple VCs.
    pub sa_iterations: usize,
    /// Buffer-claim granularity for head flits.
    pub flow_control: FlowControl,
}

impl VcRouterSpec {
    /// The paper's wormhole router: one queue of `depth` flits per port,
    /// 2-stage pipeline.
    pub fn wormhole(ports: usize, depth: usize, flit_bits: u32) -> VcRouterSpec {
        VcRouterSpec {
            ports,
            vcs: 1,
            depth,
            flit_bits,
            has_va_stage: false,
            discipline: VcDiscipline::Unrestricted,
            arbiter_kind: ArbiterKind::Matrix,
            sa_iterations: 1,
            flow_control: FlowControl::FlitLevel,
        }
    }

    /// The paper's virtual-channel router: `vcs` VCs of `depth` flits
    /// per port, 3-stage pipeline.
    ///
    /// All VCs are freely allocatable, as in the paper's experiments —
    /// on a torus this admits (rare, deep-past-saturation) deadlock,
    /// which the experiment runner detects and reports. Use
    /// [`with_discipline`](VcRouterSpec::with_discipline) for the
    /// provably deadlock-free alternatives at some throughput cost.
    pub fn virtual_channel(ports: usize, vcs: usize, depth: usize, flit_bits: u32) -> VcRouterSpec {
        VcRouterSpec {
            ports,
            vcs,
            depth,
            flit_bits,
            has_va_stage: true,
            discipline: VcDiscipline::Unrestricted,
            arbiter_kind: ArbiterKind::Matrix,
            sa_iterations: 3,
            flow_control: FlowControl::FlitLevel,
        }
    }

    /// Selects the buffer-claim granularity for head flits.
    pub fn with_flow_control(mut self, flow_control: FlowControl) -> VcRouterSpec {
        self.flow_control = flow_control;
        self
    }

    /// Selects the VC allocation discipline (torus deadlock avoidance).
    ///
    /// # Panics
    ///
    /// The resulting spec fails validation if the discipline needs more
    /// VCs than configured (`vcs >= 2` for dateline/escape).
    pub fn with_discipline(mut self, discipline: VcDiscipline) -> VcRouterSpec {
        self.discipline = discipline;
        self
    }

    /// Total buffering per input port in flits.
    pub fn buffering_per_port(&self) -> usize {
        self.vcs * self.depth
    }

    fn validate(&self) {
        assert!(self.ports >= 2, "need at least 2 ports");
        assert!(self.vcs >= 1, "need at least 1 VC");
        assert!(self.depth >= 1, "need at least 1 flit of buffering");
        assert!(self.flit_bits >= 1, "flit width must be positive");
        assert!(
            self.discipline == VcDiscipline::Unrestricted || self.vcs >= 2,
            "dateline/escape deadlock avoidance needs >= 2 VCs"
        );
        assert!(
            self.has_va_stage || self.vcs == 1,
            "a wormhole (no-VA) router has a single VC"
        );
        assert!(
            self.ports * self.vcs <= 128,
            "at most 128 input VCs per router"
        );
        assert!(self.sa_iterations >= 1, "need at least one SA iteration");
    }

    /// Whether a packet of dateline class `class` may be allocated
    /// output VC `vc` under the configured discipline.
    fn vc_allowed(&self, class: u8, vc: usize) -> bool {
        match self.discipline {
            VcDiscipline::Unrestricted => true,
            VcDiscipline::Dateline => {
                let half = self.vcs / 2;
                if class == 0 {
                    vc < half
                } else {
                    vc >= half
                }
            }
            VcDiscipline::Escape => vc >= 2 || vc == class as usize,
        }
    }

    /// Downstream credits a flit must see before its switch request is
    /// eligible: body flits always need one slot; heads need more under
    /// cut-through (the whole packet) and bubble flow control (the whole
    /// packet, plus a packet-sized bubble when entering a new dimension
    /// or injecting — the condition that breaks torus deadlock cycles).
    fn required_credits(
        &self,
        is_head: bool,
        packet_len: u32,
        in_port: usize,
        out_port: usize,
    ) -> u32 {
        if !is_head {
            return 1;
        }
        match self.flow_control {
            FlowControl::FlitLevel => 1,
            FlowControl::CutThrough => packet_len,
            FlowControl::Bubble => {
                // Same-dimension continuation keeps the ring's bubble
                // intact; any dimension entry must leave one behind.
                let same_dim =
                    in_port != 0 && out_port != 0 && (in_port - 1) / 2 == (out_port - 1) / 2;
                if same_dim {
                    packet_len
                } else {
                    2 * packet_len
                }
            }
        }
    }
}

/// Per-input-VC packet state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VcState {
    /// No packet at the head of this VC.
    Idle,
    /// Head flit waiting for an output VC (VA) or, for wormhole, a free
    /// output port.
    Routing,
    /// Packet holds output `(port, vc)` until its tail passes.
    Active { out_port: usize, out_vc: usize },
}

#[derive(Debug, Clone)]
struct InputVc {
    /// The input port this VC belongs to (`r / vcs`, fixed at
    /// construction so the per-cycle scans never divide).
    port: u8,
    fifo: FlitFifo<FlitRef>,
    state: VcState,
    /// Earliest cycle the head flit may compete for SA (set by VA).
    sa_ready: u64,
    /// Cached fields of the head flit, refreshed whenever the head
    /// changes (accept into an empty FIFO, or pop exposing a successor).
    /// Valid only while the FIFO is non-empty. A flit's routing fields
    /// are immutable while it sits buffered, so the cache lets the
    /// per-cycle VA/SA scans skip the arena lookup and the route
    /// indirection entirely.
    head_ready: u64,
    head_out_port: u8,
    head_vc_class: u8,
    head_is_head: bool,
    head_len: u32,
}

impl InputVc {
    /// Re-caches the head flit's fields from the arena. No-op when the
    /// FIFO is empty.
    fn refresh_head(&mut self, arena: &FlitArena) {
        if let Some(&h) = self.fifo.head() {
            let f = arena.get(h);
            self.head_ready = f.ready;
            self.head_out_port = f.out_port().index() as u8;
            self.head_vc_class = f.vc_class;
            self.head_is_head = f.is_head();
            self.head_len = f.packet_len;
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct OutputVc {
    /// The input VC (flat index `port * vcs + vc`) whose packet
    /// currently holds this output VC.
    owner: Option<usize>,
    /// Free buffer slots in the downstream input VC.
    credits: u32,
}

/// An input VC's switch request: the output it bids for, and whether a
/// grant also claims that output (wormhole late binding).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SwitchRequest {
    out_port: u8,
    out_vc: u8,
    claims: bool,
}

/// Pre-sized scratch buffers for the VA/SA stages, owned by the router
/// so the per-cycle hot path never allocates (stages borrow them beside
/// the router state by destructuring `self`). Input VCs are addressed
/// by flat index `r = port * vcs + vc` throughout.
#[derive(Debug, Clone)]
struct Scratch {
    /// VA: requesting input VCs binned by output port.
    requests_per_out: Vec<u128>,
    /// VA: dateline class per requesting input VC (only entries whose
    /// request bit is set this cycle are ever read).
    classes: Vec<u8>,
    /// SA: each input VC's request (only entries whose bit is set in
    /// this cycle's `live` mask are ever read).
    cand: Vec<SwitchRequest>,
    /// SA: requesting input VCs binned by output port.
    targets: Vec<u128>,
    /// SA stage 1: the input VC each input port nominated, and the
    /// nominating input ports binned by output port — stage 2's masks.
    nominee: Vec<usize>,
    nom_by_out: Vec<u128>,
}

impl Scratch {
    fn new(ports: usize, vcs: usize) -> Scratch {
        Scratch {
            requests_per_out: vec![0; ports],
            classes: vec![0; ports * vcs],
            cand: vec![SwitchRequest::default(); ports * vcs],
            targets: vec![0; ports],
            nominee: vec![0; ports],
            nom_by_out: vec![0; ports],
        }
    }
}

/// The switch request of input VC `ivc`'s head flit at `cycle`, if it
/// may bid.
fn sa_candidate(
    spec: &VcRouterSpec,
    ivc: &InputVc,
    outputs: &[OutputVc],
    cycle: u64,
) -> Option<SwitchRequest> {
    if ivc.fifo.is_empty() || cycle < ivc.head_ready {
        return None;
    }
    let (out_port, out_vc, claims) = match ivc.state {
        VcState::Idle => return None,
        // Wormhole only: heads bid for a free output port directly in SA.
        VcState::Routing if spec.has_va_stage => return None,
        VcState::Routing => (ivc.head_out_port as usize, 0, true),
        VcState::Active { out_port, out_vc } => (out_port, out_vc, false),
    };
    let slot = &outputs[out_port * spec.vcs + out_vc];
    if claims {
        debug_assert!(ivc.head_is_head);
        if slot.owner.is_some() {
            return None;
        }
    } else if ivc.head_is_head && spec.has_va_stage && cycle < ivc.sa_ready {
        return None;
    }
    let in_port = ivc.port as usize;
    if out_port != 0
        && slot.credits < spec.required_credits(ivc.head_is_head, ivc.head_len, in_port, out_port)
    {
        return None;
    }
    Some(SwitchRequest {
        out_port: out_port as u8,
        out_vc: out_vc as u8,
        claims,
    })
}

/// The input-buffered crossbar router.
#[derive(Debug, Clone)]
pub struct VcRouter {
    node: usize,
    spec: VcRouterSpec,
    /// Input VCs, flat: index `r = port * vcs + vc` (the bit numbering
    /// of `occupied` and of every VA/SA mask).
    inputs: Vec<InputVc>,
    /// Output VCs, flat: index `out_port * vcs + out_vc`.
    outputs: Vec<OutputVc>,
    /// Flits across all input VCs (kept in sync with the FIFOs so the
    /// per-cycle empty check is O(1) instead of an O(P·V) scan).
    buffered: usize,
    /// Bit `port * vcs + vc` set while that input VC holds any flit
    /// (the spec validates `ports * vcs <= 128`). Lets the per-cycle
    /// stages walk only occupied VCs instead of scanning all P·V.
    occupied: u128,
    /// VA: one multi-grant arbiter per output port over input VCs.
    va_arbiters: Vec<RoundRobinArbiter>,
    /// SA stage 1: per input port, over its VCs (only used when vcs > 1).
    sa_input_arbiters: Vec<RoundRobinArbiter>,
    /// SA stage 2: per output port, over input ports.
    sa_output_arbiters: Vec<FunctionalArbiter>,
    /// Last payload observed on each crossbar input / output line.
    xb_in_last: Vec<u64>,
    xb_out_last: Vec<u64>,
    scratch: Scratch,
}

impl VcRouter {
    /// Builds a router for node index `node`.
    ///
    /// # Panics
    ///
    /// Panics if the spec is inconsistent (see [`VcRouterSpec`] field
    /// docs).
    pub fn new(node: usize, spec: VcRouterSpec) -> VcRouter {
        spec.validate();
        let inputs = (0..spec.ports * spec.vcs)
            .map(|r| InputVc {
                port: (r / spec.vcs) as u8,
                fifo: FlitFifo::new(spec.depth, spec.flit_bits),
                state: VcState::Idle,
                sa_ready: 0,
                head_ready: 0,
                head_out_port: 0,
                head_vc_class: 0,
                head_is_head: false,
                head_len: 0,
            })
            .collect();
        let outputs = vec![
            OutputVc {
                owner: None,
                credits: spec.depth as u32,
            };
            spec.ports * spec.vcs
        ];
        let va_arbiters = (0..spec.ports)
            .map(|_| RoundRobinArbiter::new((spec.ports * spec.vcs).max(2)))
            .collect();
        let sa_input_arbiters = (0..spec.ports)
            .map(|_| RoundRobinArbiter::new(spec.vcs.max(2)))
            .collect();
        let sa_output_arbiters = (0..spec.ports)
            .map(|_| FunctionalArbiter::new(spec.arbiter_kind, spec.ports))
            .collect();
        let ports = spec.ports;
        let vcs = spec.vcs;
        VcRouter {
            node,
            spec,
            inputs,
            outputs,
            buffered: 0,
            occupied: 0,
            va_arbiters,
            sa_input_arbiters,
            sa_output_arbiters,
            xb_in_last: vec![0; ports],
            xb_out_last: vec![0; ports],
            scratch: Scratch::new(ports, vcs),
        }
    }

    /// The router's node index.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The configuration.
    pub fn spec(&self) -> &VcRouterSpec {
        &self.spec
    }

    /// Flat index of `(port, vc)` into `inputs` / `outputs`.
    fn flat(&self, port: usize, vc: usize) -> usize {
        port * self.spec.vcs + vc
    }

    /// Free slots in input `(port, vc)` — used by the local source,
    /// which sees its own router's buffer occupancy directly.
    pub fn input_free(&self, port: usize, vc: usize) -> usize {
        self.inputs[self.flat(port, vc)].fifo.free()
    }

    /// Total flits buffered in the router (for drain detection).
    pub fn buffered_flits(&self) -> usize {
        debug_assert_eq!(
            self.buffered,
            self.inputs.iter().map(|vc| vc.fifo.len()).sum::<usize>(),
            "buffered counter out of sync with FIFO occupancy"
        );
        #[cfg(debug_assertions)]
        {
            let mut expect = 0u128;
            for (r, ivc) in self.inputs.iter().enumerate() {
                if !ivc.fifo.is_empty() {
                    expect |= 1 << r;
                }
            }
            debug_assert_eq!(self.occupied, expect, "occupied bitmask out of sync");
        }
        self.buffered
    }

    /// Snapshot of every occupied input VC, for stall diagnostics:
    /// `(port, vc, occupancy, head flit, waiting)`, where `waiting` is
    /// `true` while the VC's packet has not yet been allocated an
    /// output — a blocked head still negotiating VA/SA rather than a
    /// body flit trailing an established path.
    pub fn occupied_vcs<'a>(
        &'a self,
        arena: &'a FlitArena,
    ) -> impl Iterator<Item = (usize, usize, usize, &'a Flit, bool)> + 'a {
        let vcs = self.spec.vcs;
        self.inputs.iter().enumerate().filter_map(move |(r, ivc)| {
            ivc.fifo.head().map(|&head| {
                let waiting = !matches!(ivc.state, VcState::Active { .. });
                (r / vcs, r % vcs, ivc.fifo.len(), arena.get(head), waiting)
            })
        })
    }

    /// Accepts a flit into input `(port, vc)` at `cycle`. A buffer-write
    /// event is charged only when the flit is physically stored (flits
    /// streaming through an empty queue bypass the SRAM — §4.4's
    /// fabric-vs-buffer access ratio).
    ///
    /// # Panics
    ///
    /// Panics if the target FIFO is full (a flow-control violation).
    pub fn accept(
        &mut self,
        flit: FlitRef,
        port: usize,
        vc: usize,
        cycle: u64,
        ledger: &mut EnergyLedger,
        arena: &mut FlitArena,
    ) {
        let f = arena.get_mut(flit);
        f.ready = cycle + 1;
        let payload = f.payload;
        let meta = (
            f.out_port().index() as u8,
            f.vc_class,
            f.is_head(),
            f.packet_len,
        );
        let r = self.flat(port, vc);
        self.buffered += 1;
        self.occupied |= 1 << r;
        let ivc = &mut self.inputs[r];
        let becomes_head = ivc.fifo.is_empty();
        if let Some(activity) = ivc.fifo.push(flit, payload) {
            ledger.buffer_write(self.node, &activity);
        }
        if becomes_head {
            ivc.head_ready = cycle + 1;
            (
                ivc.head_out_port,
                ivc.head_vc_class,
                ivc.head_is_head,
                ivc.head_len,
            ) = meta;
        }
    }

    /// Adds one downstream credit to output `(port, vc)`.
    pub fn credit(&mut self, port: usize, vc: usize) {
        let o = self.flat(port, vc);
        self.outputs[o].credits += 1;
    }

    /// Downstream credits currently available at output `(port, vc)`.
    pub fn output_credits(&self, port: usize, vc: usize) -> u32 {
        self.outputs[self.flat(port, vc)].credits
    }

    /// One pass over the occupied input VCs (an empty VC is by
    /// definition `Idle` with nothing to do), in ascending `r` order:
    /// starts packets (`Idle → Routing`), bins VA requests by output
    /// port, and computes every switch request **once** — a request
    /// depends only on the VC's own head/state and on its target output
    /// VC, and a grant changes those only at the granted input port and
    /// the granted output port, both of which leave the matching for the
    /// rest of the cycle; VA touches only `Routing` VCs, which cannot
    /// bid before the next cycle. Returns whether any VC requested VA,
    /// and the `live` mask of VCs bidding for the switch.
    fn collect_requests(&mut self, cycle: u64) -> (bool, u128) {
        let Self {
            spec,
            inputs,
            outputs,
            scratch,
            ..
        } = self;
        scratch.requests_per_out.fill(0);
        scratch.targets.fill(0);
        let (mut va_any, mut live) = (false, 0u128);
        let mut bits = self.occupied;
        while bits != 0 {
            let r = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let ivc = &mut inputs[r];
            if ivc.state == VcState::Idle {
                debug_assert!(
                    ivc.head_is_head,
                    "queue head in Idle state must be a head flit"
                );
                ivc.state = VcState::Routing;
            }
            if spec.has_va_stage && ivc.state == VcState::Routing {
                if cycle >= ivc.head_ready {
                    scratch.requests_per_out[ivc.head_out_port as usize] |= 1 << r;
                    scratch.classes[r] = ivc.head_vc_class.min(1);
                    va_any = true;
                }
            } else if let Some(req) = sa_candidate(spec, ivc, outputs, cycle) {
                scratch.cand[r] = req;
                scratch.targets[req.out_port as usize] |= 1 << r;
                live |= 1 << r;
            }
        }
        (va_any, live)
    }

    /// Virtual-channel allocation stage: for each output port, walk its
    /// free VCs and grant each to one eligible requesting head (classes
    /// may overlap under the escape discipline, so allocation is
    /// per-VC rather than per-class).
    fn va_stage(
        &mut self,
        cycle: u64,
        ledger: &mut EnergyLedger,
        mut obs: Option<&mut ObsSink>,
        arena: &FlitArena,
    ) {
        let Self {
            spec,
            inputs,
            outputs,
            va_arbiters,
            scratch,
            ..
        } = self;
        let node = self.node;
        let vcs = spec.vcs;
        let classes = &scratch.classes;
        for (out_port, &requested) in scratch.requests_per_out.iter().enumerate() {
            let mut requesters = requested;
            for out_vc in 0..vcs {
                // Every requester granted: the remaining free VCs would
                // all see an empty eligibility mask.
                if requesters == 0 {
                    break;
                }
                let slot = &mut outputs[out_port * vcs + out_vc];
                if slot.owner.is_some() {
                    continue;
                }
                // Unrestricted allocation admits every requester, so the
                // eligibility mask IS the request mask — skip the per-VC
                // class filter entirely (the dominant hot-path case; the
                // filtered path walks set bits only).
                let eligible = if spec.discipline == VcDiscipline::Unrestricted {
                    requesters
                } else {
                    let mut eligible = 0u128;
                    let mut bits = requesters;
                    while bits != 0 {
                        let r = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        if spec.vc_allowed(classes[r], out_vc) {
                            eligible |= 1 << r;
                        }
                    }
                    eligible
                };
                if eligible == 0 {
                    continue;
                }
                let grant = va_arbiters[out_port].arbitrate(eligible);
                ledger.arbitration(node, &grant.activity);
                let Some(w) = grant.winner else { continue };
                requesters &= !(1 << w);
                let ivc = &mut inputs[w];
                if let Some(o) = obs.as_deref_mut() {
                    if let Some(&head) = ivc.fifo.head() {
                        o.va_grant(node, arena.get(head).packet.0, cycle);
                    }
                }
                slot.owner = Some(w);
                ivc.state = VcState::Active { out_port, out_vc };
                ivc.sa_ready = cycle + 1;
            }
        }
    }

    /// Switch allocation + crossbar traversal: iterative separable
    /// matching (iSLIP-style) over the `live` request mask. Each
    /// iteration, every input port with a live VC nominates one (stage
    /// 1), and every output port grants one nominating input (stage 2);
    /// a grant retires the input port's VCs and every request for the
    /// output port from `live`. Additional iterations let an input that
    /// lost an output re-bid a different VC — this is what gives
    /// virtual-channel routers their higher switch utilisation relative
    /// to wormhole routers (Fig. 5a).
    #[allow(clippy::needless_range_loop)] // indices double as port numbers
    fn sa_stage(
        &mut self,
        mut live: u128,
        cycle: u64,
        ledger: &mut EnergyLedger,
        out: &mut StepOutput,
        mut obs: Option<&mut ObsSink>,
        arena: &mut FlitArena,
    ) {
        let Self {
            spec,
            inputs,
            outputs,
            sa_input_arbiters,
            sa_output_arbiters,
            xb_in_last,
            xb_out_last,
            scratch,
            ..
        } = self;
        let node = self.node;
        let (ports, vcs) = (spec.ports, spec.vcs);
        let vc_mask = (1u128 << vcs) - 1;
        #[cfg(debug_assertions)]
        let (mut granted_in, mut granted_out) = (0u32, 0u32);
        for _ in 0..spec.sa_iterations {
            if live == 0 {
                break;
            }
            // The executable half of the invariance argument: a request
            // re-derived now is unchanged if it is live, and sits at a
            // granted input or output port if it is not.
            #[cfg(debug_assertions)]
            for (r, ivc) in inputs.iter().enumerate() {
                let now = sa_candidate(spec, ivc, outputs, cycle);
                if live >> r & 1 == 1 {
                    assert_eq!(now, Some(scratch.cand[r]), "switch request {r} moved");
                } else if let Some(req) = now {
                    let retired = granted_in >> ivc.port | granted_out >> req.out_port;
                    assert!(retired & 1 == 1, "switch request {r} appeared");
                }
            }

            // Stage 1: each input port nominates one of its live VCs.
            scratch.nom_by_out.fill(0);
            for in_port in 0..ports {
                let mask = (live >> (in_port * vcs)) & vc_mask;
                if mask == 0 {
                    continue;
                }
                let in_vc = if vcs == 1 {
                    0
                } else {
                    let grant = sa_input_arbiters[in_port].arbitrate(mask);
                    ledger.arbitration(node, &grant.activity);
                    grant.winner.expect("nonzero mask yields a winner")
                };
                let r = in_port * vcs + in_vc;
                scratch.nominee[in_port] = r;
                scratch.nom_by_out[scratch.cand[r].out_port as usize] |= 1 << in_port;
            }

            // Stage 2: each nominated output port grants one input port.
            for out_port in 0..ports {
                let mask = scratch.nom_by_out[out_port];
                if mask == 0 {
                    continue;
                }
                let grant = sa_output_arbiters[out_port].arbitrate(mask);
                ledger.arbitration(node, &grant.activity);
                let in_port = grant.winner.expect("nonzero mask yields a winner");
                let r = scratch.nominee[in_port];
                let SwitchRequest { out_vc, claims, .. } = scratch.cand[r];
                let out_vc = out_vc as usize;
                live &= !(vc_mask << (in_port * vcs) | scratch.targets[out_port]);
                #[cfg(debug_assertions)]
                {
                    granted_in |= 1 << in_port;
                    granted_out |= 1 << out_port;
                }

                let ivc = &mut inputs[r];
                let ovc = &mut outputs[out_port * vcs + out_vc];
                // Wormhole late binding: claim the output port at first grant.
                if claims {
                    ovc.owner = Some(r);
                    ivc.state = VcState::Active { out_port, out_vc };
                }

                let (flit, stored) = ivc.fifo.pop().expect("granted VC has a flit");
                self.buffered -= 1;
                if ivc.fifo.is_empty() {
                    self.occupied &= !(1u128 << r);
                } else {
                    ivc.refresh_head(arena);
                }
                if stored {
                    ledger.buffer_read(node);
                }
                let f = arena.get_mut(flit);
                f.target_vc = out_vc as u8;
                let payload = f.payload;
                let packet = f.packet;
                let is_tail = f.is_tail();
                if let Some(o) = obs.as_deref_mut() {
                    o.sa_grant(node, packet.0, cycle);
                }

                // Crossbar traversal with exact line-switching activity.
                ledger.crossbar_traversal(
                    node,
                    xb_in_last[in_port],
                    xb_out_last[out_port],
                    payload,
                );
                xb_in_last[in_port] = payload;
                xb_out_last[out_port] = payload;

                // Credit back upstream for the freed slot (the network skips
                // this for the local injection port).
                out.credits.push(CreditReturn {
                    in_port,
                    vc: r - in_port * vcs,
                });

                // Consume a downstream credit, except on ejection.
                if out_port != 0 {
                    debug_assert!(ovc.credits > 0, "SA granted without credit");
                    ovc.credits -= 1;
                }

                if is_tail {
                    ovc.owner = None;
                    ivc.state = VcState::Idle;
                }

                out.departures.push(Departure { out_port, flit });
            }
        }
    }

    /// Advances the router one cycle: VA (if configured) then SA/ST.
    pub fn step(
        &mut self,
        cycle: u64,
        ledger: &mut EnergyLedger,
        arena: &mut FlitArena,
    ) -> StepOutput {
        self.step_observed(cycle, ledger, None, arena)
    }

    /// [`VcRouter::step`] with an optional observer receiving VA/SA
    /// grant events. `step` is exactly `step_observed(.., None)`; the
    /// split keeps the common unobserved call sites untouched.
    pub fn step_observed(
        &mut self,
        cycle: u64,
        ledger: &mut EnergyLedger,
        obs: Option<&mut ObsSink>,
        arena: &mut FlitArena,
    ) -> StepOutput {
        let mut out = StepOutput::new();
        self.step_into(cycle, ledger, obs, &mut out, arena);
        out
    }

    /// Allocation-free variant of [`VcRouter::step_observed`]: clears
    /// and fills a caller-owned [`StepOutput`] instead of returning a
    /// fresh one, so the network engine can reuse one output buffer
    /// across all routers and cycles. Flits are addressed through the
    /// shared [`FlitArena`] — the router moves 8-byte handles, never
    /// whole `Flit` values.
    pub fn step_into(
        &mut self,
        cycle: u64,
        ledger: &mut EnergyLedger,
        mut obs: Option<&mut ObsSink>,
        out: &mut StepOutput,
        arena: &mut FlitArena,
    ) {
        out.clear();
        if self.buffered_flits() == 0 {
            return;
        }
        let (va_any, live) = self.collect_requests(cycle);
        if va_any {
            self.va_stage(cycle, ledger, obs.as_deref_mut(), arena);
        }
        self.sa_stage(live, cycle, ledger, out, obs, arena);
    }

    /// Encodes the full router state (input VCs, output VC owners and
    /// credits, arbiter state, crossbar line history) for a snapshot.
    /// The per-cycle [`Scratch`] buffers are excluded — they are dead
    /// outside a `step` call, which is the only place snapshots are not
    /// taken.
    pub(crate) fn encode(
        &self,
        w: &mut ByteWriter,
        encode_ref: &mut dyn FnMut(&FlitRef, &mut ByteWriter),
    ) {
        w.usize(self.buffered);
        w.u128(self.occupied);
        // Flat order is port-major, the order the nested layout wrote.
        for ivc in &self.inputs {
            ivc.fifo.encode_with(w, encode_ref);
            match ivc.state {
                VcState::Idle => w.u8(0),
                VcState::Routing => w.u8(1),
                VcState::Active { out_port, out_vc } => {
                    w.u8(2);
                    w.usize(out_port);
                    w.usize(out_vc);
                }
            }
            w.u64(ivc.sa_ready);
            w.u64(ivc.head_ready);
            w.u8(ivc.head_out_port);
            w.u8(ivc.head_vc_class);
            w.bool(ivc.head_is_head);
            w.u32(ivc.head_len);
        }
        for ovc in &self.outputs {
            match ovc.owner {
                Some(r) => {
                    w.bool(true);
                    w.usize(r / self.spec.vcs);
                    w.usize(r % self.spec.vcs);
                }
                None => w.bool(false),
            }
            w.u32(ovc.credits);
        }
        for a in &self.va_arbiters {
            a.encode(w);
        }
        for a in &self.sa_input_arbiters {
            a.encode(w);
        }
        for a in &self.sa_output_arbiters {
            a.encode(w);
        }
        for &x in &self.xb_in_last {
            w.u64(x);
        }
        for &x in &self.xb_out_last {
            w.u64(x);
        }
    }

    /// Restores state encoded by [`VcRouter::encode`] into this router,
    /// which must have the same spec (shape is validated per field).
    pub(crate) fn decode_into(
        &mut self,
        r: &mut ByteReader<'_>,
        decode_ref: &mut dyn FnMut(&mut ByteReader<'_>) -> Result<FlitRef, SnapshotError>,
    ) -> Result<(), SnapshotError> {
        let ports = self.spec.ports;
        let vcs = self.spec.vcs;
        let buffered = r.usize()?;
        let occupied = r.u128()?;
        for ivc in self.inputs.iter_mut() {
            ivc.fifo.decode_into_with(r, decode_ref)?;
            ivc.state = match r.u8()? {
                0 => VcState::Idle,
                1 => VcState::Routing,
                2 => {
                    let out_port = r.usize()?;
                    let out_vc = r.usize()?;
                    if out_port >= ports || out_vc >= vcs {
                        return Err(SnapshotError::Invalid("vc state output"));
                    }
                    VcState::Active { out_port, out_vc }
                }
                _ => return Err(SnapshotError::Invalid("vc state tag")),
            };
            ivc.sa_ready = r.u64()?;
            ivc.head_ready = r.u64()?;
            ivc.head_out_port = r.u8()?;
            ivc.head_vc_class = r.u8()?;
            ivc.head_is_head = r.bool()?;
            ivc.head_len = r.u32()?;
        }
        for ovc in self.outputs.iter_mut() {
            ovc.owner = if r.bool()? {
                let p = r.usize()?;
                let v = r.usize()?;
                if p >= ports || v >= vcs {
                    return Err(SnapshotError::Invalid("output vc owner"));
                }
                Some(p * vcs + v)
            } else {
                None
            };
            let credits = r.u32()?;
            if credits as usize > self.spec.depth {
                return Err(SnapshotError::Invalid("output vc credits"));
            }
            ovc.credits = credits;
        }
        for a in self.va_arbiters.iter_mut() {
            a.decode_into(r)?;
        }
        for a in self.sa_input_arbiters.iter_mut() {
            a.decode_into(r)?;
        }
        for a in self.sa_output_arbiters.iter_mut() {
            a.decode_into(r)?;
        }
        for x in self.xb_in_last.iter_mut() {
            *x = r.u64()?;
        }
        for x in self.xb_out_last.iter_mut() {
            *x = r.u64()?;
        }
        self.buffered = buffered;
        self.occupied = occupied;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::{Component, EnergyLedger, PowerModels};
    use crate::flit::{make_packet, PacketId};

    /// Accept an owned flit by allocating it into the test arena first
    /// (the pre-arena API shape, used throughout these tests).
    fn accept(
        r: &mut VcRouter,
        arena: &mut FlitArena,
        flit: Flit,
        port: usize,
        vc: usize,
        cycle: u64,
        ledger: &mut EnergyLedger,
    ) {
        let handle = arena.alloc(flit);
        r.accept(handle, port, vc, cycle, ledger, arena);
    }
    use orion_net::{dor_route, DimensionOrder, NodeId, Topology};
    use orion_power::{
        ArbiterParams, ArbiterPower, BufferParams, BufferPower, CrossbarKind, CrossbarParams,
        CrossbarPower, LinkPower,
    };
    use orion_tech::{Microns, ProcessNode, Technology};
    use std::sync::Arc;

    fn ledger(nodes: usize) -> EnergyLedger {
        let tech = Technology::new(ProcessNode::Nm100);
        let crossbar =
            CrossbarPower::new(&CrossbarParams::new(CrossbarKind::Matrix, 5, 5, 64), tech).unwrap();
        let arbiter = ArbiterPower::new(&ArbiterParams::new(ArbiterKind::Matrix, 5), tech)
            .unwrap()
            .with_control_energy(crossbar.control_energy());
        EnergyLedger::new(
            PowerModels {
                flit_bits: 64,
                buffer: BufferPower::new(&BufferParams::new(16, 64), tech).unwrap(),
                crossbar,
                arbiter,
                link: LinkPower::on_chip(Microns::from_mm(3.0), 64, tech),
                central: None,
            },
            nodes,
        )
    }

    /// A packet routed 0 -> 5 on the 4x4 torus (y-first: d1+, d0+, eject).
    fn packet(len: u32) -> Vec<Flit> {
        let t = Topology::torus(&[4, 4]).unwrap();
        let r = Arc::new(dor_route(&t, NodeId(0), NodeId(5), DimensionOrder::YFirst));
        make_packet(PacketId(1), NodeId(0), NodeId(5), r, len, 0, true)
    }

    #[test]
    fn wormhole_head_departs_after_two_stages() {
        let mut r = VcRouter::new(0, VcRouterSpec::wormhole(5, 4, 64));
        let mut led = ledger(1);
        let mut arena = FlitArena::new();
        let flits = packet(1);
        accept(&mut r, &mut arena, flits[0].clone(), 0, 0, 10, &mut led);
        // Cycle 10: just written, not ready.
        assert!(r.step(10, &mut led, &mut arena).departures.is_empty());
        // Cycle 11: SA grant; flit departs (ST+link handled by network).
        let out = r.step(11, &mut led, &mut arena);
        assert_eq!(out.departures.len(), 1);
        assert_eq!(out.departures[0].out_port, 3); // d1+ port index = 3
                                                   // The lone flit streamed through an empty queue: buffer bypass,
                                                   // no SRAM write or read charged (§4.4 access-ratio behaviour).
        assert_eq!(led.op_count(0, Component::Buffer), 0);
        assert!(led.op_count(0, Component::Arbiter) >= 1);
        assert_eq!(led.op_count(0, Component::Crossbar), 1);
    }

    #[test]
    fn vc_router_head_takes_va_then_sa() {
        let mut r = VcRouter::new(0, VcRouterSpec::virtual_channel(5, 2, 8, 64));
        let mut led = ledger(1);
        let mut arena = FlitArena::new();
        let flits = packet(1);
        accept(&mut r, &mut arena, flits[0].clone(), 0, 0, 10, &mut led);
        assert!(r.step(10, &mut led, &mut arena).departures.is_empty()); // pipeline reg
        assert!(r.step(11, &mut led, &mut arena).departures.is_empty()); // VA
        let out = r.step(12, &mut led, &mut arena); // SA
        assert_eq!(out.departures.len(), 1);
    }

    #[test]
    fn body_flits_stream_one_per_cycle() {
        let mut r = VcRouter::new(0, VcRouterSpec::wormhole(5, 8, 64));
        let mut led = ledger(1);
        let mut arena = FlitArena::new();
        for (i, f) in packet(5).into_iter().enumerate() {
            accept(&mut r, &mut arena, f, 0, 0, 10 + i as u64, &mut led);
        }
        let mut departed = 0;
        for cycle in 10..20 {
            departed += r.step(cycle, &mut led, &mut arena).departures.len();
        }
        assert_eq!(departed, 5);
    }

    #[test]
    fn credits_gate_departures() {
        let mut r = VcRouter::new(0, VcRouterSpec::wormhole(5, 4, 64));
        let mut led = ledger(1);
        let mut arena = FlitArena::new();
        // Drain all credits of output port 3 (depth 4).
        for f in packet(4) {
            accept(&mut r, &mut arena, f, 0, 0, 0, &mut led);
        }
        // Extra packet that must stall once credits are gone.
        let mut total = 0;
        for cycle in 1..10 {
            total += r.step(cycle, &mut led, &mut arena).departures.len();
        }
        assert_eq!(total, 4, "only as many flits as credits may leave");
        assert_eq!(r.output_credits(3, 0), 0);
        // A credit arrives: one more flit may go... but the packet of 4
        // already left entirely. Push another packet.
        for f in packet(2) {
            accept(&mut r, &mut arena, f, 0, 0, 10, &mut led);
        }
        assert!(
            r.step(11, &mut led, &mut arena).departures.is_empty(),
            "no credits"
        );
        r.credit(3, 0);
        let out = r.step(12, &mut led, &mut arena);
        assert_eq!(out.departures.len(), 1);
    }

    #[test]
    fn wormhole_output_port_held_until_tail() {
        let mut r = VcRouter::new(0, VcRouterSpec::wormhole(5, 8, 64));
        let mut led = ledger(1);
        let mut arena = FlitArena::new();
        // Two 2-flit packets from different input ports to the same
        // output port. Ports 1 and 2 both route d1+ ... build routes by
        // hand through accept: reuse the same packet (route d1+) on both
        // input ports.
        for f in packet(2) {
            accept(&mut r, &mut arena, f, 1, 0, 0, &mut led);
        }
        for f in packet(2) {
            accept(&mut r, &mut arena, f, 2, 0, 0, &mut led);
        }
        let mut order = Vec::new();
        for cycle in 1..10 {
            for d in r.step(cycle, &mut led, &mut arena).departures {
                let f = arena.get(d.flit);
                order.push((f.packet, f.seq));
            }
        }
        assert_eq!(order.len(), 4);
        // No interleaving: the first packet's two flits are consecutive.
        assert_eq!(
            order[0].0, order[1].0,
            "head and body of first packet together"
        );
        assert_eq!(order[2].0, order[3].0);
    }

    #[test]
    fn vc_router_interleaves_packets_from_different_vcs() {
        let mut r = VcRouter::new(0, VcRouterSpec::virtual_channel(5, 4, 8, 64));
        let mut led = ledger(1);
        let mut arena = FlitArena::new();
        // Two packets on different input ports, same output port: both
        // get class-0 output VCs quickly and share the switch.
        for f in packet(3) {
            accept(&mut r, &mut arena, f, 1, 0, 0, &mut led);
        }
        for f in packet(3) {
            accept(&mut r, &mut arena, f, 2, 1, 0, &mut led);
        }
        let mut departures = Vec::new();
        for cycle in 1..12 {
            departures.extend(r.step(cycle, &mut led, &mut arena).departures);
        }
        assert_eq!(departures.len(), 6);
        // Both packets must have received distinct output VCs.
        let vcs: std::collections::HashSet<u8> = departures
            .iter()
            .map(|d| arena.get(d.flit).target_vc)
            .collect();
        assert_eq!(vcs.len(), 2);
    }

    #[test]
    fn ejection_ignores_credits() {
        // A route that ejects right here (hop = Local).
        let t = Topology::torus(&[4, 4]).unwrap();
        let route = Arc::new(dor_route(&t, NodeId(0), NodeId(0), DimensionOrder::YFirst));
        let flits = make_packet(PacketId(2), NodeId(0), NodeId(0), route, 1, 0, false);
        let mut r = VcRouter::new(0, VcRouterSpec::wormhole(5, 4, 64));
        let mut led = ledger(1);
        let mut arena = FlitArena::new();
        accept(&mut r, &mut arena, flits[0].clone(), 1, 0, 0, &mut led);
        let out = r.step(1, &mut led, &mut arena);
        assert_eq!(out.departures.len(), 1);
        assert_eq!(out.departures[0].out_port, 0);
    }

    #[test]
    fn credit_returns_reported_per_departure() {
        let mut r = VcRouter::new(0, VcRouterSpec::wormhole(5, 4, 64));
        let mut led = ledger(1);
        let mut arena = FlitArena::new();
        for f in packet(2) {
            accept(&mut r, &mut arena, f, 2, 0, 0, &mut led);
        }
        let mut credits = Vec::new();
        for cycle in 1..6 {
            credits.extend(r.step(cycle, &mut led, &mut arena).credits);
        }
        assert_eq!(
            credits,
            vec![
                CreditReturn { in_port: 2, vc: 0 },
                CreditReturn { in_port: 2, vc: 0 }
            ]
        );
    }

    #[test]
    fn dateline_partitions_output_vcs() {
        let mut r = VcRouter::new(
            0,
            VcRouterSpec::virtual_channel(5, 2, 8, 64).with_discipline(VcDiscipline::Dateline),
        );
        let mut led = ledger(1);
        let mut arena = FlitArena::new();
        // A class-1 packet may only get VC 1.
        let mut flits = packet(1);
        flits[0].vc_class = 1;
        accept(&mut r, &mut arena, flits[0].clone(), 1, 1, 0, &mut led);
        let mut seen = None;
        for cycle in 1..6 {
            for d in r.step(cycle, &mut led, &mut arena).departures {
                seen = Some(arena.get(d.flit).target_vc);
            }
        }
        assert_eq!(seen, Some(1), "class-1 packets use the upper VC half");
    }

    #[test]
    fn cut_through_head_waits_for_whole_packet_space() {
        let spec = VcRouterSpec::wormhole(5, 8, 64).with_flow_control(FlowControl::CutThrough);
        let mut r = VcRouter::new(0, spec);
        let mut led = ledger(1);
        let mut arena = FlitArena::new();
        // Drain output credits down to 3 (packet needs 5).
        for _ in 0..5 {
            let g = r.output_credits(3, 0);
            if g > 3 {
                // Simulate credit consumption by sending another packet.
                break;
            }
        }
        // Simpler: deliver a 5-flit packet while only 3 credits remain.
        // First consume 5 credits with one packet...
        for f in packet(5) {
            accept(&mut r, &mut arena, f, 1, 0, 0, &mut led);
        }
        let mut sent = 0;
        for cycle in 1..10 {
            sent += r.step(cycle, &mut led, &mut arena).departures.len();
        }
        assert_eq!(sent, 5, "first packet fits exactly");
        assert_eq!(r.output_credits(3, 0), 3);
        // Next packet: head must stall with only 3 < 5 credits.
        for f in packet(5) {
            accept(&mut r, &mut arena, f, 2, 0, 20, &mut led);
        }
        assert!(r.step(21, &mut led, &mut arena).departures.is_empty());
        r.credit(3, 0);
        assert!(
            r.step(22, &mut led, &mut arena).departures.is_empty(),
            "4 < 5 credits"
        );
        r.credit(3, 0);
        let out = r.step(23, &mut led, &mut arena);
        assert_eq!(out.departures.len(), 1, "whole-packet space available");
    }

    #[test]
    fn bubble_requires_spare_packet_on_injection() {
        // Injection (in_port 0) is a dimension entry: a 5-flit packet
        // needs 10 credits. Depth 12: after one packet (7 credits
        // left... 12-5=7), the next head needs 10 and stalls until
        // credits return.
        let spec = VcRouterSpec::wormhole(5, 12, 64).with_flow_control(FlowControl::Bubble);
        let mut r = VcRouter::new(0, spec);
        let mut led = ledger(1);
        let mut arena = FlitArena::new();
        for f in packet(5) {
            accept(&mut r, &mut arena, f, 0, 0, 0, &mut led); // injected at the local port
        }
        let mut sent = 0;
        for cycle in 1..12 {
            sent += r.step(cycle, &mut led, &mut arena).departures.len();
        }
        assert_eq!(sent, 5, "12 >= 10 credits: first packet goes");
        assert_eq!(r.output_credits(3, 0), 7);
        for f in packet(5) {
            accept(&mut r, &mut arena, f, 0, 0, 20, &mut led);
        }
        assert!(
            r.step(21, &mut led, &mut arena).departures.is_empty(),
            "7 < 10"
        );
        for _ in 0..3 {
            r.credit(3, 0);
        }
        let out = r.step(22, &mut led, &mut arena);
        assert_eq!(out.departures.len(), 1, "bubble restored");
    }

    #[test]
    fn bubble_same_dimension_needs_only_packet_space() {
        // Arriving on d1- (in_port 4) and continuing d1+ (out 3) is a
        // same-dimension continuation: only packet_len credits needed.
        let spec = VcRouterSpec::wormhole(5, 12, 64).with_flow_control(FlowControl::Bubble);
        let mut r = VcRouter::new(0, spec);
        let mut led = ledger(1);
        let mut arena = FlitArena::new();
        // Drain credits to 6 via an injected packet... instead set up
        // directly: consume 6 credits by sending one packet and getting
        // one credit back.
        for f in packet(5) {
            accept(&mut r, &mut arena, f, 4, 0, 0, &mut led); // from the south: same dim
        }
        let mut sent = 0;
        for cycle in 1..12 {
            sent += r.step(cycle, &mut led, &mut arena).departures.len();
        }
        assert_eq!(sent, 5, "same-dim continuation needs 5 <= 12 credits");
        // With only 7 credits left, another same-dim packet still goes
        // (7 >= 5) where an injection would stall (7 < 10).
        for f in packet(5) {
            accept(&mut r, &mut arena, f, 4, 0, 20, &mut led);
        }
        let mut sent = 0;
        for cycle in 21..32 {
            sent += r.step(cycle, &mut led, &mut arena).departures.len();
        }
        assert_eq!(sent, 5);
    }

    #[test]
    #[should_panic(expected = "deadlock avoidance needs >= 2 VCs")]
    fn dateline_requires_two_vcs() {
        let spec = VcRouterSpec {
            ports: 5,
            vcs: 1,
            depth: 4,
            flit_bits: 64,
            has_va_stage: true,
            discipline: VcDiscipline::Dateline,
            arbiter_kind: ArbiterKind::Matrix,
            sa_iterations: 1,
            flow_control: FlowControl::FlitLevel,
        };
        let _ = VcRouter::new(0, spec);
    }
}
