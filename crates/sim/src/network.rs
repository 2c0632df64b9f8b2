//! The whole-network simulation engine.
//!
//! [`Network`] assembles routers on a [`Topology`], wires their ports
//! with single-cycle data and credit channels (§4.1: "propagation delay
//! across data and credit channels is assumed to take a single cycle"),
//! applies credit-based flow control, injects packets through per-node
//! source queues and ejects them at sinks, while the [`EnergyLedger`]
//! accumulates per-event energy.
//!
//! The engine is synchronous and two-phase: all deliveries scheduled for
//! cycle `t` land before any router computes at `t`, and everything a
//! router emits at `t` is scheduled for `t+1` (credits, ejection) or
//! `t+2` (crossbar traversal + link), so module evaluation order within
//! a cycle cannot change results.

use std::collections::HashMap;
use std::sync::Arc;

use orion_net::{dor_route, DimensionOrder, NodeId, Port, Topology, TopologyKind};
use orion_obs::{NodeState, ObsSink};

use crate::arena::{FlitArena, FlitRef};
use crate::audit::AuditViolation;
use crate::boundary::{CreditMsg, FlitMsg, NullIo, ShardIo};
use crate::energy::{EnergyLedger, PowerModels};
use crate::flit::{make_packet_each, Flit, PacketId};
use crate::router::central::{CentralRouter, CentralRouterSpec};
use crate::router::vc::{VcRouter, VcRouterSpec};
use crate::router::StepOutput;
use crate::snapshot::{ByteReader, ByteWriter, SnapshotError, SNAPSHOT_VERSION};
use crate::stats::SimStats;
use crate::watchdog::{StallDiagnostics, StallKind, StalledVc};

/// Which router microarchitecture populates the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterKind {
    /// Input-buffered crossbar router (wormhole or virtual-channel).
    Vc(VcRouterSpec),
    /// Central-buffered router (§4.4).
    Central(CentralRouterSpec),
}

impl RouterKind {
    /// Pipeline stages a head flit spends in the router before the
    /// crossbar (1 = wormhole SA; 2 = VC router VA+SA; CB routers take
    /// 2: write allocation + read allocation).
    pub fn head_stages(&self) -> u32 {
        match self {
            RouterKind::Vc(s) if s.has_va_stage => 2,
            RouterKind::Vc(_) => 1,
            RouterKind::Central(_) => 2,
        }
    }
}

/// Full specification of a simulated network.
#[derive(Debug, Clone)]
pub struct NetworkSpec {
    /// The topology (the paper's case studies use a 4×4 torus).
    pub topology: Topology,
    /// Router microarchitecture.
    pub router: RouterKind,
    /// Flits per packet (the paper uses 5: a head flit leading 4 data
    /// flits).
    pub packet_len: u32,
    /// Dimension order for source routing (the paper routes y first).
    pub dim_order: DimensionOrder,
}

enum AnyRouter {
    Vc(VcRouter),
    Central(CentralRouter),
}

impl AnyRouter {
    #[allow(clippy::too_many_arguments)]
    fn accept(
        &mut self,
        flit: FlitRef,
        port: usize,
        vc: usize,
        cycle: u64,
        ledger: &mut EnergyLedger,
        arena: &mut FlitArena,
    ) {
        match self {
            AnyRouter::Vc(r) => r.accept(flit, port, vc, cycle, ledger, arena),
            AnyRouter::Central(r) => r.accept(flit, port, vc, cycle, ledger, arena),
        }
    }

    fn credit(&mut self, port: usize, vc: usize) {
        match self {
            AnyRouter::Vc(r) => r.credit(port, vc),
            AnyRouter::Central(r) => r.credit(port, vc),
        }
    }

    fn step_into(
        &mut self,
        cycle: u64,
        ledger: &mut EnergyLedger,
        obs: Option<&mut ObsSink>,
        out: &mut StepOutput,
        arena: &mut FlitArena,
    ) {
        match self {
            AnyRouter::Vc(r) => r.step_into(cycle, ledger, obs, out, arena),
            AnyRouter::Central(r) => r.step_into(cycle, ledger, obs, out, arena),
        }
    }

    fn buffered_flits(&self) -> usize {
        match self {
            AnyRouter::Vc(r) => r.buffered_flits(),
            AnyRouter::Central(r) => r.buffered_flits(),
        }
    }

    /// Downstream flow-control credits summed over all output ports
    /// (and VCs), as sampled by the probe scheduler.
    fn free_credits(&self) -> usize {
        match self {
            AnyRouter::Vc(r) => {
                let spec = r.spec();
                (0..spec.ports)
                    .flat_map(|p| (0..spec.vcs).map(move |v| (p, v)))
                    .map(|(p, v)| r.output_credits(p, v) as usize)
                    .sum()
            }
            AnyRouter::Central(r) => (0..r.spec().ports)
                .map(|p| r.output_credits(p) as usize)
                .sum(),
        }
    }

    fn input_free(&self, port: usize, vc: usize) -> usize {
        match self {
            AnyRouter::Vc(r) => r.input_free(port, vc),
            AnyRouter::Central(r) => r.input_free(port),
        }
    }

    fn vcs(&self) -> usize {
        match self {
            AnyRouter::Vc(r) => r.spec().vcs,
            AnyRouter::Central(_) => 1,
        }
    }
}

/// A flit in flight on a link (or to the local sink). Carries an arena
/// handle, not the flit itself — only 8 bytes of payload move through
/// the scheduler.
#[derive(Debug, Clone, Copy)]
struct FlitArrival {
    dest: usize,
    in_port: usize,
    /// Dimension of the link just crossed (None for ejection).
    crossed_dim: Option<u8>,
    wraparound: bool,
    to_sink: bool,
    flit: FlitRef,
}

/// A credit in flight back to an upstream router.
#[derive(Debug, Clone, Copy)]
struct CreditArrival {
    dest: usize,
    out_port: usize,
    vc: usize,
}

/// How the engine visits per-node state each cycle.
///
/// Both modes are bit-identical by construction: a router whose
/// buffers are empty is a provable no-op in every router family (its
/// `step_into` returns before touching the ledger, the arbiters or the
/// observer), so visiting or skipping it cannot change any observable.
/// The differential harness in `tests/sparse_differential.rs` enforces
/// this across families, topologies and checkpoint-resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Activity-driven stepping: only routers holding buffered flits
    /// and sources with queued packets are visited, steered by
    /// per-index activity bitsets; a fully idle engine detects itself in
    /// O(nodes/64) and can jump the clock over dead cycles (see
    /// [`Network::skip_idle_cycles`]). The default.
    #[default]
    Sparse,
    /// The pre-sparse stepper: every router and source is visited
    /// every cycle. Kept as the reference engine the differential
    /// tests compare against.
    DenseReference,
}

/// An event was scheduled outside its wheel's fixed horizon — either
/// past the last covered slot or before the wheel's base cycle. The
/// wheels cover 4 cycles because the engine only ever schedules at
/// `cycle + 1` (credits, ejections) and `cycle + 2` (link
/// traversals); this error escaping [`Network::try_step`] means the
/// engine state is corrupt and the step did not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WheelHorizonError {
    /// The cycle the event was scheduled for.
    pub cycle: u64,
    /// The wheel's base (current) cycle.
    pub base: u64,
    /// How many cycles from `base` the wheel covers.
    pub horizon: usize,
}

impl std::fmt::Display for WheelHorizonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "event at cycle {} outside wheel horizon [{}, {})",
            self.cycle,
            self.base,
            self.base + self.horizon as u64
        )
    }
}

impl std::error::Error for WheelHorizonError {}

/// A fixed-horizon event wheel.
#[derive(Debug)]
struct Wheel<T> {
    slots: Vec<Vec<T>>,
    base: u64,
}

impl<T> Wheel<T> {
    fn new(horizon: usize) -> Wheel<T> {
        Wheel {
            slots: (0..horizon).map(|_| Vec::new()).collect(),
            base: 0,
        }
    }

    fn schedule(&mut self, cycle: u64, item: T) -> Result<(), WheelHorizonError> {
        let len = self.slots.len();
        if cycle < self.base || (cycle - self.base) as usize >= len {
            return Err(WheelHorizonError {
                cycle,
                base: self.base,
                horizon: len,
            });
        }
        self.slots[(cycle as usize) % len].push(item);
        Ok(())
    }

    /// The earliest cycle ≥ `base` holding a scheduled event, if any.
    fn next_occupied(&self) -> Option<u64> {
        let len = self.slots.len();
        (self.base..self.base + len as u64).find(|&c| !self.slots[(c as usize) % len].is_empty())
    }

    /// Jumps the wheel base to `cycle` without draining. Callers must
    /// have proven the skipped slots empty (`next_occupied` ≥ `cycle`).
    fn advance_to(&mut self, cycle: u64) {
        debug_assert!(cycle >= self.base, "wheel cannot rewind");
        debug_assert!(
            self.next_occupied().is_none_or(|c| c >= cycle),
            "cannot skip over scheduled events"
        );
        self.base = cycle;
    }

    /// Moves all events due at `cycle` into `out` (cleared first) and
    /// advances the wheel base. The slot and `out` swap backing
    /// buffers, so draining every cycle with the same scratch vector
    /// ping-pongs two allocations forever instead of allocating fresh
    /// ones (the old `mem::take` scheduler's per-cycle cost).
    fn drain_into(&mut self, cycle: u64, out: &mut Vec<T>) {
        debug_assert_eq!(cycle, self.base, "wheel must be drained in order");
        self.base = cycle + 1;
        let len = self.slots.len();
        out.clear();
        std::mem::swap(&mut self.slots[(cycle as usize) % len], out);
    }

    fn len(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    /// Encodes the wheel (base + every slot in physical index order)
    /// with `encode_item` serialising each scheduled event.
    fn encode_with(&self, w: &mut ByteWriter, encode_item: &mut dyn FnMut(&T, &mut ByteWriter)) {
        w.u64(self.base);
        w.usize(self.slots.len());
        for slot in &self.slots {
            w.usize(slot.len());
            for item in slot {
                encode_item(item, w);
            }
        }
    }

    /// Decodes a wheel encoded by [`Wheel::encode_with`] into `self`,
    /// which must have the same horizon.
    fn decode_into_with(
        &mut self,
        r: &mut ByteReader<'_>,
        decode_item: &mut dyn FnMut(&mut ByteReader<'_>) -> Result<T, SnapshotError>,
    ) -> Result<(), SnapshotError> {
        let base = r.u64()?;
        let horizon = r.usize()?;
        if horizon != self.slots.len() {
            return Err(SnapshotError::Mismatch("wheel horizon"));
        }
        for slot in self.slots.iter_mut() {
            slot.clear();
            let n = r.count(8)?;
            for _ in 0..n {
                slot.push(decode_item(r)?);
            }
        }
        self.base = base;
        Ok(())
    }
}

/// Structure-of-arrays activity state for the sparse stepper: one bit
/// per owned router (set iff it holds buffered flits) and one bit per
/// source (set iff its packet queue is non-empty), packed into `u64`
/// words. The hot loop reads these dense words instead of chasing
/// per-router structs, visits only set bits, and detects a fully idle
/// engine in O(nodes/64).
///
/// The sets are maintained in *both* engine modes from the same four
/// sites — wake on flit acceptance and packet enqueue, sleep when a
/// router steps itself empty or a source queue drains — so the dense
/// reference engine audits the exact bookkeeping the sparse engine
/// steers by, and switching modes never needs a rebuild. They are
/// deliberately **not** serialised: a checkpoint image fully
/// determines them, so [`Network::restore`] recomputes both sets and
/// sparse/dense snapshots stay byte-identical (the CI identity jobs
/// `cmp` checkpoint files across engines).
#[derive(Debug, Clone)]
struct Activity {
    /// Bit `li` set iff router `lo + li` holds buffered flits.
    routers: Vec<u64>,
    /// Bit `li` set iff source `lo + li` has queued packets.
    sources: Vec<u64>,
}

impl Activity {
    fn new(n: usize) -> Activity {
        let words = n.div_ceil(64);
        Activity {
            routers: vec![0; words],
            sources: vec![0; words],
        }
    }

    #[inline]
    fn wake_router(&mut self, li: usize) {
        self.routers[li >> 6] |= 1 << (li & 63);
    }

    #[inline]
    fn sleep_router(&mut self, li: usize) {
        self.routers[li >> 6] &= !(1 << (li & 63));
    }

    #[inline]
    fn router_active(&self, li: usize) -> bool {
        self.routers[li >> 6] & (1 << (li & 63)) != 0
    }

    #[inline]
    fn wake_source(&mut self, li: usize) {
        self.sources[li >> 6] |= 1 << (li & 63);
    }

    #[inline]
    fn sleep_source(&mut self, li: usize) {
        self.sources[li >> 6] &= !(1 << (li & 63));
    }

    #[inline]
    fn source_active(&self, li: usize) -> bool {
        self.sources[li >> 6] & (1 << (li & 63)) != 0
    }

    /// True when no router and no source has work — the per-cycle
    /// step is a no-op apart from scheduled wheel events.
    fn all_idle(&self) -> bool {
        self.routers.iter().chain(&self.sources).all(|&w| w == 0)
    }

    /// Rebuilds both sets from the ground truth, as after a restore.
    fn recompute(&mut self, routers: &[AnyRouter], sources: &[Source]) {
        self.routers.iter_mut().for_each(|w| *w = 0);
        self.sources.iter_mut().for_each(|w| *w = 0);
        for (li, r) in routers.iter().enumerate() {
            if r.buffered_flits() > 0 {
                self.wake_router(li);
            }
        }
        for (li, s) in sources.iter().enumerate() {
            if !s.queue.is_empty() {
                self.wake_source(li);
            }
        }
    }
}

/// Per-node source state: an unbounded packet queue (of arena handles)
/// feeding the injection port.
#[derive(Debug, Default)]
struct Source {
    queue: std::collections::VecDeque<FlitRef>,
    /// The input VC the current packet streams into.
    current_vc: usize,
    /// Flits of the current packet still to transfer.
    remaining: u32,
}

/// Reassembly progress of a packet at its destination sink.
#[derive(Debug, Clone, Copy)]
struct Progress {
    received: u32,
    len: u32,
    created: u64,
    tagged: bool,
}

/// Wiring of one router output port.
#[derive(Debug, Clone, Copy)]
struct Wire {
    dest: usize,
    dest_in_port: usize,
    dim: u8,
    wraparound: bool,
}

/// A complete simulated network — or, in a sharded run, the engine for
/// one contiguous node range of it: routers, links, sources, sinks,
/// energy ledger and statistics.
///
/// The whole-network form ([`Network::new`]) owns every node. The
/// shard form ([`Network::new_shard`]) owns `[lo, hi)`: its router and
/// source arrays cover only that range, flits whose next link leaves
/// the range are handed to a [`ShardIo`] instead of the local event
/// wheel, and inbound boundary messages are interleaved into the
/// delivery order at their source shard's position so the combined
/// execution is bit-identical to the whole-network engine.
pub struct Network {
    spec: NetworkSpec,
    /// Routers for the owned range only, indexed `node - lo`.
    routers: Vec<AnyRouter>,
    /// First owned node.
    lo: usize,
    /// One past the last owned node.
    hi: usize,
    /// This engine's shard index within `shard_bounds`.
    shard_id: usize,
    /// Partition bounds over all shards: `shard_bounds[s]..shard_bounds
    /// [s + 1]` is shard `s`'s range. `[0, n]` for a whole network.
    shard_bounds: Vec<usize>,
    /// Delivery cycles parallel to the tagged-latency sample, recorded
    /// only in sharded runs so the coordinator can merge per-shard
    /// latency vectors back into the whole-network order.
    delivery_log: Vec<u64>,
    ledger: EnergyLedger,
    /// Backing store for every flit in a source queue or on the wire
    /// (routers hold their buffered flits in fixed-capacity ring
    /// FIFOs). Slots recycle through a free list, so after warm-up the
    /// steady-state loop allocates nothing.
    arena: FlitArena,
    flit_wheel: Wheel<FlitArrival>,
    credit_wheel: Wheel<CreditArrival>,
    /// Persistent drain buffers for the wheels and a reusable router
    /// output — the scratch half of the allocation-free hot loop.
    flit_scratch: Vec<FlitArrival>,
    credit_scratch: Vec<CreditArrival>,
    step_out: StepOutput,
    /// Last payload per (node, out_port) for link switching activity.
    link_last: Vec<u64>,
    /// Flits carried per (node, out_port) since the last measurement
    /// reset — the per-channel load behind hot-spot analysis.
    link_flits: Vec<u64>,
    sources: Vec<Source>,
    sinks: HashMap<PacketId, Progress>,
    route_cache: HashMap<(usize, usize), Arc<orion_net::Route>>,
    stats: SimStats,
    cycle: u64,
    next_packet: u64,
    /// Last cycle at which any flit moved (departed a router or was
    /// injected/ejected) — used for deadlock detection.
    last_progress: u64,
    /// Last cycle at which a packet completed delivery — used to tell
    /// livelock (movement without completion) from deadlock.
    last_delivery: u64,
    /// Last cycle at which a credit returned upstream.
    last_credit: u64,
    /// Cycle of the last enqueue that found the engine empty — where
    /// the livelock clock restarts after a quiet gap (see
    /// [`StallKind::classify`]).
    busy_since: u64,
    /// wires[node * ports + out_port]; None for the local port.
    wires: Vec<Option<Wire>>,
    /// Monotone audit counters, never reset (unlike [`SimStats`], which
    /// rewinds at the warm-up boundary): flits ever handed to a source
    /// queue and ever ejected at a sink. Flit conservation demands
    /// `enqueued == ejected + in_flight` at every cycle of a run's
    /// lifetime.
    audit_enqueued: u64,
    audit_ejected: u64,
    /// Optional observer. `None` (the default) keeps every event site a
    /// single branch; the unobserved path is pinned bit-identical by
    /// `orion-core`'s `sweep_identity` test.
    obs: Option<Box<ObsSink>>,
    /// Which stepper visits routers and sources (see [`EngineMode`]).
    engine: EngineMode,
    /// The activity bitsets steering the sparse stepper; maintained in
    /// both modes, recomputed (never serialised) on restore.
    activity: Activity,
}

impl Network {
    /// Builds a network of identical routers over `spec.topology`,
    /// accounting energy with `models`.
    ///
    /// # Panics
    ///
    /// Panics if the router spec's port count disagrees with the
    /// topology's `ports_per_router`.
    pub fn new(spec: NetworkSpec, models: PowerModels) -> Network {
        let n = spec.topology.num_nodes();
        Network::new_shard(spec, models, 0, &[0, n])
    }

    /// Builds the engine for one shard of a partitioned network: it
    /// owns nodes `bounds[shard_id]..bounds[shard_id + 1]` and routes
    /// boundary traffic through the [`ShardIo`] passed to
    /// [`Network::step_with_io`]. `bounds` must start at 0, end at the
    /// node count and be strictly increasing. `Network::new` is the
    /// single-shard special case `bounds == [0, n]`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid partition or a router spec whose port
    /// count disagrees with the topology.
    pub fn new_shard(
        spec: NetworkSpec,
        models: PowerModels,
        shard_id: usize,
        bounds: &[usize],
    ) -> Network {
        let ports = spec.topology.ports_per_router();
        let n = spec.topology.num_nodes();
        assert!(
            bounds.len() >= 2 && bounds[0] == 0 && *bounds.last().expect("nonempty") == n,
            "shard bounds must cover 0..{n}"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "shard bounds must be strictly increasing"
        );
        assert!(shard_id + 1 < bounds.len(), "shard id outside partition");
        let (lo, hi) = (bounds[shard_id], bounds[shard_id + 1]);
        let routers: Vec<AnyRouter> = (lo..hi)
            .map(|node| match &spec.router {
                RouterKind::Vc(s) => {
                    assert_eq!(s.ports, ports, "router ports must match topology");
                    let needed = match s.flow_control {
                        crate::router::vc::FlowControl::FlitLevel => 1,
                        crate::router::vc::FlowControl::CutThrough => spec.packet_len as usize,
                        crate::router::vc::FlowControl::Bubble => 2 * spec.packet_len as usize,
                    };
                    assert!(
                        s.depth >= needed,
                        "buffer depth {} too small for {:?} flow control with {}-flit packets",
                        s.depth,
                        s.flow_control,
                        spec.packet_len
                    );
                    AnyRouter::Vc(VcRouter::new(node, s.clone()))
                }
                RouterKind::Central(s) => {
                    assert_eq!(s.ports, ports, "router ports must match topology");
                    AnyRouter::Central(CentralRouter::new(node, s.clone(), s.input_depth))
                }
            })
            .collect();
        let mut wires = vec![None; n * ports];
        for node in spec.topology.nodes() {
            for idx in 1..ports {
                let port = Port::from_index(idx, spec.topology.dims() as u8);
                let Port::Dir { dim, dir } = port else {
                    unreachable!("non-zero port indices are directional")
                };
                if let Some(nb) = spec.topology.neighbor(node, dim as usize, dir) {
                    let dest_in_port = Port::Dir {
                        dim,
                        dir: dir.opposite(),
                    }
                    .index();
                    let k = spec.topology.radix(dim as usize);
                    let c = spec.topology.coords(node)[dim as usize];
                    let wraparound = spec.topology.kind() == TopologyKind::Torus
                        && ((dir == orion_net::Direction::Plus && c == k - 1)
                            || (dir == orion_net::Direction::Minus && c == 0));
                    wires[node.0 * ports + idx] = Some(Wire {
                        dest: nb.0,
                        dest_in_port,
                        dim,
                        wraparound,
                    });
                }
            }
        }
        Network {
            // The ledger and link tables stay whole-network sized and
            // globally indexed (a shard only ever charges its own
            // nodes, so remote rows stay zero); the per-node memory is
            // a few machine words, and keeping global indices means
            // the energy event sites are identical in both forms.
            ledger: EnergyLedger::new(models, n),
            routers,
            lo,
            hi,
            shard_id,
            shard_bounds: bounds.to_vec(),
            delivery_log: Vec::new(),
            arena: FlitArena::new(),
            flit_wheel: Wheel::new(4),
            credit_wheel: Wheel::new(4),
            flit_scratch: Vec::new(),
            credit_scratch: Vec::new(),
            step_out: StepOutput::new(),
            link_last: vec![0; n * ports],
            link_flits: vec![0; n * ports],
            sources: (lo..hi).map(|_| Source::default()).collect(),
            sinks: HashMap::new(),
            route_cache: HashMap::new(),
            stats: SimStats::new(),
            cycle: 0,
            next_packet: 0,
            last_progress: 0,
            last_delivery: 0,
            last_credit: 0,
            busy_since: 0,
            wires,
            audit_enqueued: 0,
            audit_ejected: 0,
            obs: None,
            engine: EngineMode::default(),
            activity: Activity::new(hi - lo),
            spec,
        }
    }

    /// Selects the stepper (sparse by default; the dense reference for
    /// differential testing). Both are bit-identical — see
    /// [`EngineMode`] — so this may be switched at any cycle boundary.
    pub fn set_engine_mode(&mut self, mode: EngineMode) {
        self.engine = mode;
    }

    /// Attaches an observer. Events (injections, VA/SA grants, link
    /// traversals, ejections, credits) flow into it from the next
    /// [`Network::step`] on.
    pub fn set_obs(&mut self, obs: ObsSink) {
        self.obs = Some(Box::new(obs));
    }

    /// The attached observer, if any.
    pub fn obs(&self) -> Option<&ObsSink> {
        self.obs.as_deref()
    }

    /// Mutable access to the attached observer (e.g. to set gauges).
    pub fn obs_mut(&mut self) -> Option<&mut ObsSink> {
        self.obs.as_deref_mut()
    }

    /// Detaches and returns the observer.
    pub fn take_obs(&mut self) -> Option<ObsSink> {
        self.obs.take().map(|b| *b)
    }

    /// Samples every node's probe-visible state: buffered flits, free
    /// flow-control credits, cumulative link flits out of the node, and
    /// cumulative per-component energy in `Component::ALL` order
    /// (which a test pins against [`orion_obs::COMPONENTS`]).
    pub fn node_states(&self) -> Vec<NodeState> {
        let ports = self.spec.topology.ports_per_router();
        self.routers
            .iter()
            .enumerate()
            .map(|(li, router)| {
                let node = self.lo + li;
                let mut energy = [0.0; 5];
                for (i, c) in crate::energy::Component::ALL.iter().enumerate() {
                    energy[i] = self.ledger.energy(node, *c).0;
                }
                NodeState {
                    buffered_flits: router.buffered_flits(),
                    free_credits: router.free_credits(),
                    link_flits: (0..ports).map(|p| self.link_flits[node * ports + p]).sum(),
                    energy_j: energy,
                }
            })
            .collect()
    }

    /// The network specification.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Performance statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The energy ledger.
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// Clears accumulated energy (the paper's warm-up exclusion, §4.1).
    pub fn reset_energy(&mut self) {
        self.ledger.reset();
    }

    /// Clears accumulated energy *and* performance counters at the
    /// warm-up boundary, so throughput and delivery counts cover only
    /// the measurement window. Packets in flight stay in flight; their
    /// later deliveries count toward the new window.
    pub fn reset_measurement(&mut self) {
        self.ledger.reset();
        self.stats = SimStats::new();
        self.delivery_log.clear();
        self.link_flits.fill(0);
    }

    /// Delivery cycles parallel to [`SimStats::latencies`], recorded
    /// only by shard engines so a coordinator can merge per-shard
    /// latency samples back into whole-network order.
    pub fn delivery_log(&self) -> &[u64] {
        &self.delivery_log
    }

    /// The cycle at which a credit last returned upstream.
    pub fn last_credit_cycle(&self) -> u64 {
        self.last_credit
    }

    /// The monotone audit counters `(enqueued, ejected)` — flit
    /// conservation across a whole partitioned network is checked by
    /// summing these over every shard (plus boundary flits still in
    /// transit between shards).
    pub fn audit_counters(&self) -> (u64, u64) {
        (self.audit_enqueued, self.audit_ejected)
    }

    /// Overrides the next packet id to allocate. A shard coordinator
    /// threads one global id sequence through per-shard engines by
    /// setting this before each enqueue and reading
    /// [`Network::next_packet_id`] back after.
    pub fn set_next_packet(&mut self, id: u64) {
        self.next_packet = id;
    }

    /// The next packet id this engine would allocate.
    pub fn next_packet_id(&self) -> u64 {
        self.next_packet
    }

    /// Flits carried by the directional channel leaving `node` through
    /// `out_port` since the last measurement reset.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `out_port` is out of range.
    pub fn link_flits(&self, node: usize, out_port: usize) -> u64 {
        let ports = self.spec.topology.ports_per_router();
        assert!(out_port < ports, "port out of range");
        self.link_flits[node * ports + out_port]
    }

    /// The cycle at which a flit last moved.
    pub fn last_progress_cycle(&self) -> u64 {
        self.last_progress
    }

    /// The cycle at which a packet last completed delivery.
    pub fn last_delivery_cycle(&self) -> u64 {
        self.last_delivery
    }

    /// Queues a `packet_len`-flit packet at `src`'s source queue,
    /// returning its id. `tagged` marks it as part of the measured
    /// sample.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is outside the topology.
    pub fn enqueue_packet(&mut self, src: NodeId, dst: NodeId, tagged: bool) -> PacketId {
        self.enqueue_packet_len(src, dst, self.spec.packet_len, tagged)
    }

    /// Queues a packet of an explicit length (e.g. short control vs
    /// long data packets in a bimodal SoC workload).
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is outside the topology, `len` is zero,
    /// or the routers' flow control could never forward a packet this
    /// long (cut-through needs `len` buffer slots; bubble needs
    /// `2·len` for dimension entries).
    pub fn enqueue_packet_len(
        &mut self,
        src: NodeId,
        dst: NodeId,
        len: u32,
        tagged: bool,
    ) -> PacketId {
        if let RouterKind::Vc(s) = &self.spec.router {
            let needed = match s.flow_control {
                crate::router::vc::FlowControl::FlitLevel => 1,
                crate::router::vc::FlowControl::CutThrough => len as usize,
                crate::router::vc::FlowControl::Bubble => 2 * len as usize,
            };
            assert!(
                s.depth >= needed,
                "a {len}-flit packet can never advance under {:?} flow control \
                 with {}-flit buffers",
                s.flow_control,
                s.depth
            );
        }
        if self.audit_enqueued == self.audit_ejected {
            self.busy_since = self.cycle;
        }
        let id = PacketId(self.next_packet);
        self.next_packet += 1;
        self.stats.packets_injected += 1;
        if tagged {
            self.stats.tagged_injected += 1;
        }
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.packet_injected(id.0, src.0, dst.0, len as usize, self.cycle);
        }
        let route = self
            .route_cache
            .entry((src.0, dst.0))
            .or_insert_with(|| {
                Arc::new(dor_route(
                    &self.spec.topology,
                    src,
                    dst,
                    self.spec.dim_order.clone(),
                ))
            })
            .clone();
        assert!(
            src.0 >= self.lo && src.0 < self.hi,
            "packet source n{} outside owned range {}..{}",
            src.0,
            self.lo,
            self.hi
        );
        let arena = &mut self.arena;
        let queue = &mut self.sources[src.0 - self.lo].queue;
        make_packet_each(id, src, dst, &route, len, self.cycle, tagged, |flit| {
            queue.push_back(arena.alloc(flit));
        });
        self.activity.wake_source(src.0 - self.lo);
        self.audit_enqueued += len as u64;
        id
    }

    /// Flits currently anywhere in the system (source queues, routers,
    /// links).
    pub fn flits_in_flight(&self) -> usize {
        self.sources.iter().map(|s| s.queue.len()).sum::<usize>()
            + self
                .routers
                .iter()
                .map(AnyRouter::buffered_flits)
                .sum::<usize>()
            + self.flit_wheel.len()
    }

    /// `true` when no flits remain anywhere.
    pub fn is_drained(&self) -> bool {
        self.flits_in_flight() == 0
    }

    /// Cycles since any flit last moved. A large value while flits are
    /// in flight indicates a deadlock — possible on a torus under
    /// dimension-ordered routing without dateline VC classes, deep past
    /// saturation (see [`VcRouterSpec::virtual_channel`]).
    pub fn cycles_since_progress(&self) -> u64 {
        self.cycle - self.last_progress
    }

    /// `true` when flits are in flight but none has moved for
    /// `threshold` cycles.
    pub fn is_deadlocked(&self, threshold: u64) -> bool {
        !self.is_drained() && self.cycles_since_progress() >= threshold
    }

    /// Flits still waiting in per-node source queues.
    pub fn source_backlog(&self) -> usize {
        self.sources.iter().map(|s| s.queue.len()).sum()
    }

    /// Watchdog check: whether the network has gone a full `window` of
    /// cycles without progress, and if so which failure it looks like.
    ///
    /// * [`StallKind::Deadlock`] — flits in flight, none moved for
    ///   `window` cycles (a resource cycle; §4.1's wormhole-torus
    ///   warning).
    /// * [`StallKind::Livelock`] — flits still move, but no packet has
    ///   completed delivery for `window` cycles, counted from the later
    ///   of the last delivery and the last enqueue into an empty
    ///   network (so the first packet after a long silence is not
    ///   mistaken for a window without deliveries).
    ///
    /// [`StallKind::Saturation`] is never returned here: saturation is
    /// a *divergence* (deliveries continue while source backlog grows
    /// without bound), which the experiment runner detects by watching
    /// [`Network::source_backlog`] across windows.
    pub fn check_stall(&self, window: u64) -> Option<StallKind> {
        if window == 0 || self.is_drained() {
            return None;
        }
        let undelivered = self.stats.packets_injected > self.stats.packets_delivered;
        StallKind::classify(
            window,
            self.cycle - self.last_progress,
            undelivered.then(|| self.cycle - self.last_delivery.max(self.busy_since)),
        )
    }

    /// Captures a [`StallDiagnostics`] snapshot: the progress clocks
    /// plus every occupied input VC with its blocked head packet. Call
    /// when [`Network::check_stall`] fires (or at saturation early-exit
    /// with [`StallKind::Saturation`]).
    pub fn stall_diagnostics(&self, kind: StallKind, window: u64) -> StallDiagnostics {
        let mut stalled_vcs = Vec::new();
        for (li, router) in self.routers.iter().enumerate() {
            let node = self.lo + li;
            match router {
                AnyRouter::Vc(r) => {
                    for (port, vc, occupancy, head, waiting) in r.occupied_vcs(&self.arena) {
                        stalled_vcs.push(StalledVc {
                            node,
                            port,
                            vc,
                            occupancy,
                            packet: head.packet,
                            src: head.src,
                            dst: head.dst,
                            hop: head.hop,
                            head_blocked: head.is_head() && waiting,
                        });
                    }
                }
                AnyRouter::Central(r) => {
                    for (port, occupancy, head) in r.occupied_inputs(&self.arena) {
                        stalled_vcs.push(StalledVc {
                            node,
                            port,
                            vc: 0,
                            occupancy,
                            packet: head.packet,
                            src: head.src,
                            dst: head.dst,
                            hop: head.hop,
                            head_blocked: head.is_head(),
                        });
                    }
                }
            }
        }
        let source_backlog = self.source_backlog();
        StallDiagnostics {
            kind,
            cycle: self.cycle,
            window,
            cycles_since_flit_movement: self.cycles_since_progress(),
            cycles_since_delivery: self.cycle - self.last_delivery,
            cycles_since_credit: self.cycle - self.last_credit,
            flits_in_network: self.flits_in_flight() - source_backlog,
            source_backlog,
            packets_delivered: self.stats.packets_delivered,
            stalled_vcs,
        }
    }

    /// Runs every *stateless* invariant check against the current
    /// state, returning all violations found (see [`crate::audit`]).
    /// Healthy networks return an empty vector at every cycle; the
    /// check is read-only, so auditing never perturbs a run.
    ///
    /// Energy monotonicity needs memory across audits — use
    /// [`crate::audit::InvariantAuditor`] for the full set.
    pub fn audit(&self) -> Vec<AuditViolation> {
        let mut violations = Vec::new();

        // Flit conservation over the run's whole lifetime: the audit
        // counters are never reset, so a flit leaked at any point —
        // even before a measurement reset — stays visible forever.
        let in_flight = self.flits_in_flight() as u64;
        if self.audit_enqueued != self.audit_ejected + in_flight {
            violations.push(AuditViolation::FlitConservation {
                enqueued: self.audit_enqueued,
                ejected: self.audit_ejected,
                in_flight,
            });
        }

        self.audit_local_into(&mut violations);
        violations
    }

    /// The subset of [`Network::audit`] that is valid for one shard in
    /// isolation: arena accounting, credit/occupancy bounds and
    /// energy-ledger sanity. Whole-network flit conservation is *not*
    /// checked — a flit injected in one shard and delivered in another
    /// splits its enqueued/ejected accounting across engines, so the
    /// shard coordinator re-checks it globally by summing
    /// [`Network::audit_counters`] over every shard plus boundary
    /// flits still in transit.
    pub fn audit_local(&self) -> Vec<AuditViolation> {
        let mut violations = Vec::new();
        self.audit_local_into(&mut violations);
        violations
    }

    fn audit_local_into(&self, violations: &mut Vec<AuditViolation>) {
        // Arena accounting: the arena backs every flit in the system —
        // source queues, router buffers (which store arena handles, not
        // flits), and the flit wheel. A mismatch means a slot leaked or
        // was recycled twice without tripping a generation check. The
        // equation holds per shard: a boundary flit leaves the arena
        // when it is shipped and re-homes on arrival.
        let expected = self.flits_in_flight() as u64;
        if self.arena.live() as u64 != expected {
            violations.push(AuditViolation::ArenaAccounting {
                live: self.arena.live() as u64,
                expected,
            });
        }

        for (li, router) in self.routers.iter().enumerate() {
            let node = self.lo + li;
            match router {
                AnyRouter::Vc(r) => {
                    let spec = r.spec();
                    for port in 0..spec.ports {
                        for vc in 0..spec.vcs {
                            let credits = r.output_credits(port, vc);
                            if credits as usize > spec.depth {
                                violations.push(AuditViolation::CreditOverflow {
                                    node,
                                    port,
                                    vc,
                                    credits,
                                    depth: spec.depth,
                                });
                            }
                        }
                    }
                    for (port, vc, occupancy, _, _) in r.occupied_vcs(&self.arena) {
                        if occupancy > spec.depth {
                            violations.push(AuditViolation::OccupancyOverflow {
                                node,
                                port,
                                vc,
                                occupancy,
                                depth: spec.depth,
                            });
                        }
                    }
                }
                AnyRouter::Central(r) => {
                    let depth = r.spec().input_depth;
                    for (port, occupancy, _) in r.occupied_inputs(&self.arena) {
                        if occupancy > depth {
                            violations.push(AuditViolation::OccupancyOverflow {
                                node,
                                port,
                                vc: 0,
                                occupancy,
                                depth,
                            });
                        }
                    }
                }
            }
        }

        // Activity bookkeeping: at every cycle boundary the active
        // sets must agree exactly with the routers and sources that
        // hold work. A stale active bit only wastes a visit, but a
        // lost wakeup (work without a bit) makes the sparse engine
        // silently freeze a router — so both directions are audited,
        // in both engine modes.
        for (li, router) in self.routers.iter().enumerate() {
            let node = self.lo + li;
            let buffered = router.buffered_flits();
            let active = self.activity.router_active(li);
            if active != (buffered > 0) {
                violations.push(AuditViolation::ActiveSetMismatch {
                    node,
                    active,
                    buffered,
                });
            }
            let queued = self.sources[li].queue.len();
            let pending = self.activity.source_active(li);
            if pending != (queued > 0) {
                violations.push(AuditViolation::SourceSetMismatch {
                    node,
                    active: pending,
                    queued,
                });
            }
        }

        let total = self.ledger.total_energy().0;
        if !total.is_finite() {
            violations.push(AuditViolation::EnergyNotFinite { energy: total });
        }
    }

    /// Test hook: fabricate a phantom flit in the conservation books
    /// (as if one was enqueued but never entered a queue). Exists so
    /// auditor tests can prove a leak is detected; never called by the
    /// engine.
    #[cfg(test)]
    fn debug_leak_flit(&mut self) {
        self.audit_enqueued += 1;
    }

    /// Test hook: return a spurious credit to an output VC, as a
    /// corrupted flow-control channel would. On an idle network this
    /// pushes the credit count past the downstream depth, which the
    /// auditor must flag. Never called by the engine.
    #[cfg(test)]
    fn debug_spurious_credit(&mut self, node: usize, port: usize, vc: usize) {
        self.routers[node - self.lo].credit(port, vc);
    }

    /// Test hook: flip `node`'s router activity bit, fabricating a
    /// stale active (if idle) or a lost wakeup (if busy). Exists so
    /// auditor tests can prove both directions of the active-set
    /// invariant are detected. Never called by the engine.
    #[cfg(test)]
    fn debug_corrupt_router_activity(&mut self, node: usize) {
        let li = node - self.lo;
        if self.activity.router_active(li) {
            self.activity.sleep_router(li);
        } else {
            self.activity.wake_router(li);
        }
    }

    /// Test hook: flip `node`'s source activity bit (see
    /// [`Network::debug_corrupt_router_activity`]).
    #[cfg(test)]
    fn debug_corrupt_source_activity(&mut self, node: usize) {
        let li = node - self.lo;
        if self.activity.source_active(li) {
            self.activity.sleep_source(li);
        } else {
            self.activity.wake_source(li);
        }
    }

    /// Advances the network by one cycle.
    ///
    /// # Panics
    ///
    /// Panics (in the [`NullIo`]) if this engine is a shard of a
    /// partitioned network — shards must step through
    /// [`Network::step_with_io`] so boundary traffic has somewhere to
    /// go — or on a [`WheelHorizonError`] (see [`Network::try_step`]).
    pub fn step(&mut self) {
        self.step_with_io(&mut NullIo, &mut [], &mut []);
    }

    /// [`Network::step`] with the wheel-horizon failure as a typed
    /// error instead of a panic. The horizon can only be exceeded by a
    /// corrupted engine (every schedule site uses `cycle + 1` or
    /// `cycle + 2` against 4-slot wheels), so on `Err` the step did
    /// not complete and the network must be discarded or restored
    /// from a snapshot.
    pub fn try_step(&mut self) -> Result<(), WheelHorizonError> {
        self.try_step_with_io(&mut NullIo, &mut [], &mut [])
    }

    /// Advances the engine by one cycle, exchanging boundary traffic
    /// through `io`. `inbound_flits[s]` / `inbound_credits[s]` hold the
    /// messages shard `s` shipped here for delivery this cycle (both
    /// drained; the slot at this shard's own index is ignored — local
    /// traffic arrives on the event wheel). A whole-network engine may
    /// pass empty slices.
    ///
    /// All shards of a partition must step in lockstep: every boundary
    /// message lands at least one cycle after it was sent, so a single
    /// barrier between cycles is the only synchronisation required.
    ///
    /// # Panics
    ///
    /// Panics on a [`WheelHorizonError`] (see [`Network::try_step`]).
    pub fn step_with_io(
        &mut self,
        io: &mut dyn ShardIo,
        inbound_flits: &mut [Vec<FlitMsg>],
        inbound_credits: &mut [Vec<CreditMsg>],
    ) {
        if let Err(e) = self.try_step_with_io(io, inbound_flits, inbound_credits) {
            panic!("{e}");
        }
    }

    /// [`Network::step_with_io`] with the wheel-horizon failure as a
    /// typed error (see [`Network::try_step`]).
    pub fn try_step_with_io(
        &mut self,
        io: &mut dyn ShardIo,
        inbound_flits: &mut [Vec<FlitMsg>],
        inbound_credits: &mut [Vec<CreditMsg>],
    ) -> Result<(), WheelHorizonError> {
        let cycle = self.cycle;
        self.deliver_flits(cycle, inbound_flits);
        self.deliver_credits(cycle, inbound_credits);
        self.inject(cycle);
        self.run_routers(cycle, io)?;
        self.cycle += 1;
        Ok(())
    }

    /// True when no router holds flits and no source has queued
    /// packets: the only work left, if any, sits on the event wheels.
    /// O(nodes/64) — this is the guard the run loop checks before
    /// attempting [`Network::skip_idle_cycles`].
    pub fn is_idle(&self) -> bool {
        self.activity.all_idle()
    }

    /// The earliest future cycle with a scheduled wheel event (flit
    /// arrival, ejection or credit return), if any.
    pub fn next_event_cycle(&self) -> Option<u64> {
        match (
            self.flit_wheel.next_occupied(),
            self.credit_wheel.next_occupied(),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Jumps the clock toward `target` over cycles that are provably
    /// dead: while the engine [is idle](Network::is_idle), every cycle
    /// before the next scheduled wheel event delivers nothing, injects
    /// nothing and steps no router, so skipping it is bit-identical to
    /// stepping through it. The clock stops at `min(target, next
    /// wheel event)`; if the engine is not idle or `target` is not in
    /// the future, nothing happens. Returns the new current cycle.
    ///
    /// The caller owns every clock the engine cannot see: injection
    /// processes must have nothing due before `target` (synthetic
    /// traffic draws its RNG *every* cycle, so only replay-style
    /// workloads with an inspectable next-injection cycle can skip),
    /// and observation/audit/checkpoint strides must clamp `target`
    /// to their next boundary. See `docs/PERFORMANCE.md`.
    pub fn skip_idle_cycles(&mut self, target: u64) -> u64 {
        if target <= self.cycle || !self.is_idle() {
            return self.cycle;
        }
        let stop = match self.next_event_cycle() {
            Some(event) => target.min(event),
            None => target,
        };
        if stop > self.cycle {
            self.flit_wheel.advance_to(stop);
            self.credit_wheel.advance_to(stop);
            self.cycle = stop;
        }
        self.cycle
    }

    fn deliver_flits(&mut self, cycle: u64, inbound: &mut [Vec<FlitMsg>]) {
        let mut arrivals = std::mem::take(&mut self.flit_scratch);
        self.flit_wheel.drain_into(cycle, &mut arrivals);
        // The local slot is [link arrivals pushed at cycle-2, ascending
        // source node] then [ejections pushed at cycle-1, ascending
        // node]: ejections always form a suffix. The whole-network
        // engine pushes in ascending global node order, so the sharded
        // delivery order — each shard's link arrivals at its position
        // in ascending shard order (ranges are contiguous and
        // ascending), local ejections last — reproduces it exactly.
        let split = arrivals
            .iter()
            .position(|a| a.to_sink)
            .unwrap_or(arrivals.len());
        let shards = self.shard_bounds.len() - 1;
        for s in 0..shards {
            if s == self.shard_id {
                for &arrival in &arrivals[..split] {
                    self.handle_arrival(arrival, cycle);
                }
            } else if let Some(msgs) = inbound.get_mut(s) {
                for msg in msgs.drain(..) {
                    let flit = self.arena.alloc(msg.flit);
                    self.handle_arrival(
                        FlitArrival {
                            dest: msg.dest,
                            in_port: msg.in_port,
                            crossed_dim: Some(msg.crossed_dim),
                            wraparound: msg.wraparound,
                            to_sink: false,
                            flit,
                        },
                        cycle,
                    );
                }
            }
        }
        for &arrival in &arrivals[split..] {
            self.handle_arrival(arrival, cycle);
        }
        arrivals.clear();
        self.flit_scratch = arrivals;
    }

    fn handle_arrival(&mut self, arrival: FlitArrival, cycle: u64) {
        if arrival.to_sink {
            self.eject(arrival.flit, cycle);
            return;
        }
        let flit = self.arena.get_mut(arrival.flit);
        flit.hop += 1;
        // Dateline class update for torus deadlock avoidance.
        if let Some(crossed) = arrival.crossed_dim {
            match flit.out_port() {
                Port::Local => flit.vc_class = 0,
                Port::Dir { dim, .. } => {
                    if dim != crossed {
                        flit.vc_class = 0;
                    } else if arrival.wraparound {
                        flit.vc_class = 1;
                    }
                }
            }
        }
        let vc = flit.target_vc as usize;
        self.routers[arrival.dest - self.lo].accept(
            arrival.flit,
            arrival.in_port,
            vc,
            cycle,
            &mut self.ledger,
            &mut self.arena,
        );
        // Wake the receiving router. This site also covers sharded
        // runs: boundary flits drained from the mailbox grid arrive
        // here through `step_with_io`'s inbound slices.
        self.activity.wake_router(arrival.dest - self.lo);
    }

    fn deliver_credits(&mut self, cycle: u64, inbound: &mut [Vec<CreditMsg>]) {
        let mut credits = std::mem::take(&mut self.credit_scratch);
        self.credit_wheel.drain_into(cycle, &mut credits);
        let shards = self.shard_bounds.len() - 1;
        for s in 0..shards {
            if s == self.shard_id {
                for c in credits.drain(..) {
                    self.last_credit = cycle;
                    self.routers[c.dest - self.lo].credit(c.out_port, c.vc);
                }
            } else if let Some(msgs) = inbound.get_mut(s) {
                for m in msgs.drain(..) {
                    self.last_credit = cycle;
                    self.routers[m.dest - self.lo].credit(m.out_port, m.vc);
                }
            }
        }
        self.credit_scratch = credits;
    }

    fn eject(&mut self, flit: FlitRef, cycle: u64) {
        let flit = self.arena.take(flit);
        self.stats.flits_delivered += 1;
        self.audit_ejected += 1;
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.flit_ejected();
        }
        let progress = self.sinks.entry(flit.packet).or_insert(Progress {
            received: 0,
            len: flit.packet_len,
            created: flit.created,
            tagged: flit.tagged,
        });
        progress.received += 1;
        if progress.received == progress.len {
            let latency = cycle - progress.created;
            let tagged = progress.tagged;
            self.sinks.remove(&flit.packet);
            self.stats.record_delivery(latency, tagged);
            // Sharded runs keep the delivery cycle alongside each
            // latency sample so the coordinator can restore the
            // whole-network sample order by a (cycle, shard) merge.
            if tagged && self.shard_bounds.len() > 2 {
                self.delivery_log.push(cycle);
            }
            self.last_delivery = cycle;
            if let Some(obs) = self.obs.as_deref_mut() {
                obs.packet_delivered(flit.packet.0, cycle, latency);
            }
        }
    }

    /// Moves flits from each node's source queue into the injection
    /// input buffer while space remains — the source is local to the
    /// node, so the transfer is limited only by buffer capacity; the
    /// router's switch fabric is what meters entry into the network
    /// proper.
    ///
    /// A source with an empty queue is a no-op, so the sparse engine
    /// visits only the set bits of the source activity word — in the
    /// same ascending-node order the dense loop produces.
    fn inject(&mut self, cycle: u64) {
        match self.engine {
            EngineMode::DenseReference => {
                for li in 0..self.routers.len() {
                    self.inject_node(li, cycle);
                }
            }
            EngineMode::Sparse => {
                // Per-word copies are safe: injection never wakes
                // another source, so no bit is set mid-iteration.
                for wi in 0..self.activity.sources.len() {
                    let mut word = self.activity.sources[wi];
                    while word != 0 {
                        let li = (wi << 6) | word.trailing_zeros() as usize;
                        word &= word - 1;
                        self.inject_node(li, cycle);
                    }
                }
            }
        }
    }

    #[allow(clippy::while_let_loop)] // the loop body has several exits
    fn inject_node(&mut self, li: usize, cycle: u64) {
        let vcs = self.routers[li].vcs();
        let mut moved = false;
        loop {
            let Some(&front) = self.sources[li].queue.front() else {
                break;
            };
            if self.sources[li].remaining == 0 {
                // Start of a new packet: pick the injection VC with
                // the most free space.
                let head = self.arena.get(front);
                debug_assert!(head.is_head(), "source queue starts at a head flit");
                let len = head.packet_len;
                let best = (0..vcs)
                    .max_by_key(|&v| self.routers[li].input_free(0, v))
                    .unwrap_or(0);
                if self.routers[li].input_free(0, best) == 0 {
                    break;
                }
                self.sources[li].current_vc = best;
                self.sources[li].remaining = len;
            } else if self.routers[li].input_free(0, self.sources[li].current_vc) == 0 {
                break;
            }
            let handle = self.sources[li].queue.pop_front().expect("checked front");
            let vc = self.sources[li].current_vc;
            self.sources[li].remaining -= 1;
            self.last_progress = cycle;
            self.routers[li].accept(handle, 0, vc, cycle, &mut self.ledger, &mut self.arena);
            moved = true;
        }
        if moved {
            self.activity.wake_router(li);
        }
        if self.sources[li].queue.is_empty() {
            self.activity.sleep_source(li);
        }
    }

    /// Steps every router with work. An empty router's `step_into` is
    /// a pure no-op in every family (it returns before touching the
    /// ledger, arbiters or observer), so the sparse engine visits only
    /// the set bits of the router activity word — in the dense loop's
    /// ascending-node order, which the wheel push order (and therefore
    /// the sharded delivery interleave) depends on.
    fn run_routers(&mut self, cycle: u64, io: &mut dyn ShardIo) -> Result<(), WheelHorizonError> {
        // One StepOutput is reused across every router and cycle (the
        // take/put-back dance frees `self` for the loop body).
        let mut out = std::mem::take(&mut self.step_out);
        let result = match self.engine {
            EngineMode::DenseReference => (0..self.routers.len())
                .try_for_each(|li| self.run_router_at(li, cycle, io, &mut out)),
            EngineMode::Sparse => (0..self.activity.routers.len()).try_for_each(|wi| {
                // Stepping never wakes another router (departures land
                // on future wheel slots), so a per-word copy sees
                // every bit that can matter this cycle.
                let mut word = self.activity.routers[wi];
                while word != 0 {
                    let li = (wi << 6) | word.trailing_zeros() as usize;
                    word &= word - 1;
                    self.run_router_at(li, cycle, io, &mut out)?;
                }
                Ok(())
            }),
        };
        self.step_out = out;
        result
    }

    fn run_router_at(
        &mut self,
        li: usize,
        cycle: u64,
        io: &mut dyn ShardIo,
        out: &mut StepOutput,
    ) -> Result<(), WheelHorizonError> {
        let ports = self.spec.topology.ports_per_router();
        {
            let node = self.lo + li;
            self.routers[li].step_into(
                cycle,
                &mut self.ledger,
                self.obs.as_deref_mut(),
                out,
                &mut self.arena,
            );
            if !out.departures.is_empty() {
                self.last_progress = cycle;
            }
            for dep in out.departures.drain(..) {
                if dep.out_port == 0 {
                    // Ejection: one crossbar-traversal cycle, then the
                    // sink ("immediate ejection"). The departing flit
                    // keeps its arena slot until the sink consumes it.
                    self.flit_wheel.schedule(
                        cycle + 1,
                        FlitArrival {
                            dest: node,
                            in_port: 0,
                            crossed_dim: None,
                            wraparound: false,
                            to_sink: true,
                            flit: dep.flit,
                        },
                    )?;
                    continue;
                }
                let wire = self.wires[node * ports + dep.out_port]
                    .expect("departures only on wired ports");
                let key = node * ports + dep.out_port;
                let f = self.arena.get(dep.flit);
                let payload = f.payload;
                let packet = f.packet;
                self.ledger
                    .link_traversal(node, self.link_last[key], payload);
                self.link_last[key] = payload;
                self.link_flits[key] += 1;
                if let Some(obs) = self.obs.as_deref_mut() {
                    obs.link_traversal(node, packet.0, cycle);
                }
                if wire.dest < self.lo || wire.dest >= self.hi {
                    // Boundary link: link energy and switching state
                    // were charged at this (owning) node above; the
                    // flit itself leaves our arena and re-homes in the
                    // destination shard on delivery.
                    let flit = self.arena.take(dep.flit);
                    io.send_flit(
                        self.shard_of(wire.dest),
                        cycle + 2,
                        FlitMsg {
                            dest: wire.dest,
                            in_port: wire.dest_in_port,
                            crossed_dim: wire.dim,
                            wraparound: wire.wraparound,
                            flit,
                        },
                    );
                    continue;
                }
                self.flit_wheel.schedule(
                    cycle + 2,
                    FlitArrival {
                        dest: wire.dest,
                        in_port: wire.dest_in_port,
                        crossed_dim: Some(wire.dim),
                        wraparound: wire.wraparound,
                        to_sink: false,
                        flit: dep.flit,
                    },
                )?;
            }
            for credit in out.credits.drain(..) {
                if credit.in_port == 0 {
                    // The local source observes buffer occupancy
                    // directly; no credit channel exists.
                    continue;
                }
                if let Some(obs) = self.obs.as_deref_mut() {
                    obs.credit_returned();
                }
                // Links are symmetric: the wire leaving through this
                // input port's direction ends at the upstream router,
                // on the very port that router sends to us from.
                let Wire {
                    dest: upstream,
                    dest_in_port: out_port,
                    ..
                } = self.wires[node * ports + credit.in_port]
                    .expect("torus/mesh wiring exists for used ports");
                if upstream < self.lo || upstream >= self.hi {
                    io.send_credit(
                        self.shard_of(upstream),
                        cycle + 1,
                        CreditMsg {
                            dest: upstream,
                            out_port,
                            vc: credit.vc,
                        },
                    );
                    continue;
                }
                self.credit_wheel.schedule(
                    cycle + 1,
                    CreditArrival {
                        dest: upstream,
                        out_port,
                        vc: credit.vc,
                    },
                )?;
            }
        }
        // Buffer counts only decrease here (departures) and increase
        // in `accept` (which wakes), so this is the single sleep site:
        // a router that stepped itself empty goes inactive until the
        // next arrival or injection.
        if self.routers[li].buffered_flits() == 0 {
            self.activity.sleep_router(li);
        }
        Ok(())
    }

    /// The shard owning `node` under this engine's partition bounds.
    fn shard_of(&self, node: usize) -> usize {
        self.shard_bounds.partition_point(|&b| b <= node) - 1
    }

    /// Serialises the complete deterministic state of the network —
    /// flit arena, event wheels, per-router buffers and arbiters,
    /// sources, sinks, energy ledger, statistics and cycle counter —
    /// into a versioned byte image.
    ///
    /// A network built from the same [`NetworkSpec`] and
    /// [`PowerModels`] and then [restored](Network::restore) from this
    /// image continues the simulation **bit-identically** to the
    /// original: every subsequent [`Network::step`] produces the same
    /// latencies, energies and statistics. Configuration (topology,
    /// router specs, power models, observers) is *not*
    /// stored — it must be rebuilt from the spec before restoring.
    ///
    /// Snapshots must be taken at a cycle boundary (between `step`
    /// calls), which is the only time the engine's state is observable
    /// anyway.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.snapshot_into(&mut w);
        w.into_vec()
    }

    /// Appends exactly [`Network::snapshot`]'s bytes to `w`, so a
    /// caller that checkpoints repeatedly can reuse one buffer.
    pub fn snapshot_into(&self, w: &mut ByteWriter) {
        w.u32(SNAPSHOT_VERSION);
        let n = self.routers.len();
        let ports = self.spec.topology.ports_per_router();
        w.usize(n);
        w.usize(ports);
        w.usize(self.lo);
        w.usize(self.hi);
        w.u64(self.cycle);
        w.u64(self.next_packet);
        w.u64(self.last_progress);
        w.u64(self.last_delivery);
        w.u64(self.last_credit);
        w.u64(self.busy_since);
        w.u64(self.audit_enqueued);
        w.u64(self.audit_ejected);
        w.usize(self.delivery_log.len());
        for &c in &self.delivery_log {
            w.u64(c);
        }
        w.usize(self.link_last.len());
        for &v in &self.link_last {
            w.u64(v);
        }
        w.usize(self.link_flits.len());
        for &v in &self.link_flits {
            w.u64(v);
        }
        self.stats.encode(w);
        self.ledger.encode(w);

        // Route table: every distinct Arc<Route> reachable from a live
        // flit, in first-seen slot order (deterministic).
        let mut table: Vec<Arc<orion_net::Route>> = Vec::new();
        let mut route_index: HashMap<*const orion_net::Route, u32> = HashMap::new();
        for flit in self.arena.iter_live() {
            route_index
                .entry(Arc::as_ptr(&flit.route))
                .or_insert_with(|| {
                    table.push(Arc::clone(&flit.route));
                    (table.len() - 1) as u32
                });
        }
        w.usize(table.len());
        for route in &table {
            w.usize(route.hops().len());
            for hop in route.hops() {
                w.u8(hop.index() as u8);
            }
        }

        self.arena.encode_with(w, &mut |f, w| {
            w.u64(f.packet.0);
            w.u32(f.seq);
            w.u32(f.packet_len);
            w.usize(f.src.0);
            w.usize(f.dst.0);
            w.u32(route_index[&Arc::as_ptr(&f.route)]);
            w.u16(f.hop);
            w.u64(f.payload);
            w.u64(f.created);
            w.u64(f.ready);
            w.u8(f.vc_class);
            w.u8(f.target_vc);
            w.bool(f.tagged);
        });

        let mut enc_ref = |h: &FlitRef, w: &mut ByteWriter| {
            let (index, generation) = h.raw();
            w.u32(index);
            w.u32(generation);
        };
        self.flit_wheel.encode_with(w, &mut |a, w| {
            w.usize(a.dest);
            w.usize(a.in_port);
            match a.crossed_dim {
                Some(d) => {
                    w.bool(true);
                    w.u8(d);
                }
                None => w.bool(false),
            }
            w.bool(a.wraparound);
            w.bool(a.to_sink);
            enc_ref(&a.flit, w);
        });
        self.credit_wheel.encode_with(w, &mut |c, w| {
            w.usize(c.dest);
            w.usize(c.out_port);
            w.usize(c.vc);
        });

        w.usize(self.sources.len());
        for s in &self.sources {
            w.usize(s.queue.len());
            for h in &s.queue {
                enc_ref(h, w);
            }
            w.usize(s.current_vc);
            w.u32(s.remaining);
        }

        // Sinks in PacketId order: HashMap iteration order must not
        // leak into the byte image.
        let mut sinks: Vec<(&PacketId, &Progress)> = self.sinks.iter().collect();
        sinks.sort_by_key(|(id, _)| id.0);
        w.usize(sinks.len());
        for (id, p) in sinks {
            w.u64(id.0);
            w.u32(p.received);
            w.u32(p.len);
            w.u64(p.created);
            w.bool(p.tagged);
        }

        w.usize(self.routers.len());
        for router in &self.routers {
            match router {
                AnyRouter::Vc(r) => {
                    w.u8(0);
                    r.encode(w, &mut enc_ref);
                }
                AnyRouter::Central(r) => {
                    w.u8(1);
                    r.encode(w, &mut enc_ref);
                }
            }
        }
    }

    /// Restores state captured by [`Network::snapshot`] into this
    /// network, which must have been freshly built from the same
    /// [`NetworkSpec`] and [`PowerModels`].
    ///
    /// Corrupted, truncated or mismatched images return a typed
    /// [`SnapshotError`]; this method never panics on bad bytes. On
    /// error the network is left in an unspecified (but memory-safe)
    /// state and must be discarded — rebuild from the spec before
    /// retrying.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = ByteReader::new(bytes);
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::WrongVersion(version));
        }
        let n = self.routers.len();
        let n_total = self.spec.topology.num_nodes();
        let ports = self.spec.topology.ports_per_router();
        if r.usize()? != n {
            return Err(SnapshotError::Mismatch("router count"));
        }
        if r.usize()? != ports {
            return Err(SnapshotError::Mismatch("ports per router"));
        }
        if r.usize()? != self.lo || r.usize()? != self.hi {
            return Err(SnapshotError::Mismatch("owned node range"));
        }
        let cycle = r.u64()?;
        let next_packet = r.u64()?;
        let last_progress = r.u64()?;
        let last_delivery = r.u64()?;
        let last_credit = r.u64()?;
        let busy_since = r.u64()?;
        let audit_enqueued = r.u64()?;
        let audit_ejected = r.u64()?;
        let log_count = r.count(8)?;
        let mut delivery_log = Vec::with_capacity(log_count);
        for _ in 0..log_count {
            delivery_log.push(r.u64()?);
        }
        let mut link_last = vec![0u64; n_total * ports];
        if r.count(8)? != link_last.len() {
            return Err(SnapshotError::Mismatch("link table length"));
        }
        for v in link_last.iter_mut() {
            *v = r.u64()?;
        }
        let mut link_flits = vec![0u64; n_total * ports];
        if r.count(8)? != link_flits.len() {
            return Err(SnapshotError::Mismatch("link table length"));
        }
        for v in link_flits.iter_mut() {
            *v = r.u64()?;
        }
        let stats = SimStats::decode(&mut r)?;
        self.ledger.decode_into(&mut r)?;

        let dims = self.spec.topology.dims();
        let route_count = r.count(9)?;
        let mut routes: Vec<Arc<orion_net::Route>> = Vec::with_capacity(route_count);
        for _ in 0..route_count {
            let hop_count = r.count(1)?;
            if hop_count == 0 {
                return Err(SnapshotError::Invalid("empty route"));
            }
            let mut hops = Vec::with_capacity(hop_count);
            for _ in 0..hop_count {
                let idx = r.u8()? as usize;
                if idx != 0 && (idx - 1) / 2 >= dims {
                    return Err(SnapshotError::Invalid("route port index"));
                }
                hops.push(Port::from_index(idx, dims as u8));
            }
            if *hops.last().expect("nonempty") != Port::Local {
                return Err(SnapshotError::Invalid("route does not end locally"));
            }
            routes.push(Arc::new(orion_net::Route::new(hops)));
        }

        let arena = FlitArena::decode_with(&mut r, &mut |r| {
            let packet = PacketId(r.u64()?);
            let seq = r.u32()?;
            let packet_len = r.u32()?;
            if seq >= packet_len {
                return Err(SnapshotError::Invalid("flit sequence"));
            }
            let src = r.usize()?;
            let dst = r.usize()?;
            if src >= n_total || dst >= n_total {
                return Err(SnapshotError::Invalid("flit endpoint"));
            }
            let route = routes
                .get(r.u32()? as usize)
                .ok_or(SnapshotError::Invalid("flit route index"))?;
            let hop = r.u16()?;
            if hop as usize >= route.hops().len() {
                return Err(SnapshotError::Invalid("flit hop index"));
            }
            Ok(Flit {
                packet,
                seq,
                packet_len,
                src: NodeId(src),
                dst: NodeId(dst),
                route: Arc::clone(route),
                hop,
                payload: r.u64()?,
                created: r.u64()?,
                ready: r.u64()?,
                vc_class: r.u8()?,
                target_vc: r.u8()?,
                tagged: r.bool()?,
            })
        })?;

        // Every live flit is referenced by exactly one owner (a source
        // queue, a wheel slot, or a router buffer). Decoded handles
        // must be live and unique, or a later `take` would panic.
        let mut claimed = vec![false; arena.capacity()];
        let mut claims = 0usize;
        let mut dec_ref = |r: &mut ByteReader<'_>| -> Result<FlitRef, SnapshotError> {
            let index = r.u32()?;
            let generation = r.u32()?;
            let h = FlitRef::from_raw(index, generation);
            if !arena.is_live(h) || claimed[index as usize] {
                return Err(SnapshotError::Invalid("flit handle"));
            }
            claimed[index as usize] = true;
            claims += 1;
            Ok(h)
        };

        let mut flit_wheel: Wheel<FlitArrival> = Wheel::new(self.flit_wheel.slots.len());
        flit_wheel.decode_into_with(&mut r, &mut |r| {
            let dest = r.usize()?;
            let in_port = r.usize()?;
            if dest < self.lo || dest >= self.hi || in_port >= ports {
                return Err(SnapshotError::Invalid("flit arrival port"));
            }
            let crossed_dim = if r.bool()? {
                let d = r.u8()?;
                if (d as usize) >= dims {
                    return Err(SnapshotError::Invalid("flit arrival dimension"));
                }
                Some(d)
            } else {
                None
            };
            Ok(FlitArrival {
                dest,
                in_port,
                crossed_dim,
                wraparound: r.bool()?,
                to_sink: r.bool()?,
                flit: dec_ref(r)?,
            })
        })?;
        if flit_wheel.base != cycle {
            return Err(SnapshotError::Invalid("flit wheel base"));
        }
        let mut credit_wheel: Wheel<CreditArrival> = Wheel::new(self.credit_wheel.slots.len());
        credit_wheel.decode_into_with(&mut r, &mut |r| {
            let dest = r.usize()?;
            let out_port = r.usize()?;
            let vc = r.usize()?;
            if dest < self.lo || dest >= self.hi || out_port >= ports {
                return Err(SnapshotError::Invalid("credit arrival port"));
            }
            Ok(CreditArrival { dest, out_port, vc })
        })?;
        if credit_wheel.base != cycle {
            return Err(SnapshotError::Invalid("credit wheel base"));
        }

        if r.count(8)? != n {
            return Err(SnapshotError::Mismatch("source count"));
        }
        let mut sources = Vec::with_capacity(n);
        for node in 0..n {
            let queued = r.count(8)?;
            let mut queue = std::collections::VecDeque::with_capacity(queued);
            for _ in 0..queued {
                queue.push_back(dec_ref(&mut r)?);
            }
            let current_vc = r.usize()?;
            if current_vc >= self.routers[node].vcs() {
                return Err(SnapshotError::Invalid("source virtual channel"));
            }
            let remaining = r.u32()?;
            sources.push(Source {
                queue,
                current_vc,
                remaining,
            });
        }

        let sink_count = r.count(25)?;
        let mut sinks = HashMap::with_capacity(sink_count);
        for _ in 0..sink_count {
            let id = PacketId(r.u64()?);
            let received = r.u32()?;
            let len = r.u32()?;
            if received >= len {
                return Err(SnapshotError::Invalid("sink progress"));
            }
            let progress = Progress {
                received,
                len,
                created: r.u64()?,
                tagged: r.bool()?,
            };
            if sinks.insert(id, progress).is_some() {
                return Err(SnapshotError::Invalid("duplicate sink"));
            }
        }

        if r.count(1)? != n {
            return Err(SnapshotError::Mismatch("router count"));
        }
        for router in self.routers.iter_mut() {
            let tag = r.u8()?;
            match (tag, router) {
                (0, AnyRouter::Vc(router)) => router.decode_into(&mut r, &mut dec_ref)?,
                (1, AnyRouter::Central(router)) => router.decode_into(&mut r, &mut dec_ref)?,
                (0 | 1, _) => return Err(SnapshotError::Mismatch("router kind")),
                _ => return Err(SnapshotError::Invalid("router tag")),
            }
        }

        if claims != arena.live() {
            return Err(SnapshotError::Invalid("unreferenced flit"));
        }
        if !r.is_empty() {
            return Err(SnapshotError::Invalid("trailing bytes"));
        }

        self.arena = arena;
        self.flit_wheel = flit_wheel;
        self.credit_wheel = credit_wheel;
        self.flit_scratch.clear();
        self.credit_scratch.clear();
        self.sources = sources;
        self.sinks = sinks;
        self.route_cache.clear();
        self.stats = stats;
        self.delivery_log = delivery_log;
        self.link_last = link_last;
        self.link_flits = link_flits;
        self.cycle = cycle;
        self.next_packet = next_packet;
        self.last_progress = last_progress;
        self.last_delivery = last_delivery;
        self.last_credit = last_credit;
        self.busy_since = busy_since;
        self.audit_enqueued = audit_enqueued;
        self.audit_ejected = audit_ejected;
        // The activity sets are not serialised (so sparse and dense
        // engines write byte-identical images); the restored routers
        // and sources fully determine them.
        self.activity.recompute(&self.routers, &self.sources);
        Ok(())
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("topology", &self.spec.topology)
            .field("cycle", &self.cycle)
            .field("flits_in_flight", &self.flits_in_flight())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::Component;
    use orion_power::{
        ArbiterKind, ArbiterParams, ArbiterPower, BufferParams, BufferPower, CrossbarKind,
        CrossbarParams, CrossbarPower, LinkPower,
    };
    use orion_tech::{Microns, ProcessNode, Technology};

    fn models(flit_bits: u32) -> PowerModels {
        let tech = Technology::new(ProcessNode::Nm100);
        let crossbar = CrossbarPower::new(
            &CrossbarParams::new(CrossbarKind::Matrix, 5, 5, flit_bits),
            tech,
        )
        .unwrap();
        let arbiter = ArbiterPower::new(&ArbiterParams::new(ArbiterKind::Matrix, 5), tech)
            .unwrap()
            .with_control_energy(crossbar.control_energy());
        PowerModels {
            flit_bits,
            buffer: BufferPower::new(&BufferParams::new(16, flit_bits), tech).unwrap(),
            crossbar,
            arbiter,
            link: LinkPower::on_chip(Microns::from_mm(3.0), flit_bits, tech),
            central: None,
        }
    }

    fn wormhole_net() -> Network {
        let topology = Topology::torus(&[4, 4]).unwrap();
        Network::new(
            NetworkSpec {
                topology,
                router: RouterKind::Vc(VcRouterSpec::wormhole(5, 16, 64)),
                packet_len: 5,
                dim_order: DimensionOrder::YFirst,
            },
            models(64),
        )
    }

    fn vc_net(vcs: usize, depth: usize) -> Network {
        let topology = Topology::torus(&[4, 4]).unwrap();
        Network::new(
            NetworkSpec {
                topology,
                router: RouterKind::Vc(VcRouterSpec::virtual_channel(5, vcs, depth, 64)),
                packet_len: 5,
                dim_order: DimensionOrder::YFirst,
            },
            models(64),
        )
    }

    fn run_until_drained(net: &mut Network, max_cycles: u64) {
        while !net.is_drained() && net.cycle() < max_cycles {
            net.step();
        }
        assert!(
            net.is_drained(),
            "network failed to drain in {max_cycles} cycles"
        );
    }

    #[test]
    fn single_packet_delivered_wormhole() {
        let mut net = wormhole_net();
        net.enqueue_packet(NodeId(0), NodeId(5), true);
        run_until_drained(&mut net, 200);
        assert_eq!(net.stats().packets_delivered, 1);
        assert_eq!(net.stats().flits_delivered, 5);
        assert_eq!(net.stats().sample_count(), 1);
    }

    #[test]
    fn wormhole_zero_load_latency_matches_model() {
        // 0 -> 5 is 2 hops. Wormhole: h·3 + 2 + (len−1).
        let mut net = wormhole_net();
        net.enqueue_packet(NodeId(0), NodeId(5), true);
        run_until_drained(&mut net, 200);
        let expect = crate::stats::zero_load_latency(2.0, 1, 5);
        assert_eq!(net.stats().avg_latency(), expect);
    }

    #[test]
    fn vc_zero_load_latency_matches_model() {
        // VC router adds a VA stage per hop router.
        let mut net = vc_net(2, 8);
        net.enqueue_packet(NodeId(0), NodeId(5), true);
        run_until_drained(&mut net, 200);
        let expect = crate::stats::zero_load_latency(2.0, 2, 5);
        assert_eq!(net.stats().avg_latency(), expect);
    }

    #[test]
    fn self_addressed_packet_ejects_locally() {
        let mut net = wormhole_net();
        net.enqueue_packet(NodeId(7), NodeId(7), true);
        run_until_drained(&mut net, 100);
        assert_eq!(net.stats().packets_delivered, 1);
        // No link traversals at all.
        assert_eq!(net.ledger().total_ops(Component::Link), 0);
    }

    #[test]
    fn all_pairs_delivered() {
        let mut net = vc_net(2, 8);
        for src in 0..16 {
            for dst in 0..16 {
                if src != dst {
                    net.enqueue_packet(NodeId(src), NodeId(dst), true);
                }
            }
        }
        run_until_drained(&mut net, 5000);
        assert_eq!(net.stats().packets_delivered, 240);
        assert_eq!(net.stats().flits_delivered, 240 * 5);
    }

    #[test]
    fn energy_events_fire_along_the_path() {
        let mut net = wormhole_net();
        net.enqueue_packet(NodeId(0), NodeId(5), false);
        run_until_drained(&mut net, 200);
        let led = net.ledger();
        // 2-hop route, single packet at zero load: the head flit
        // bypasses every empty queue; trailing flits queue behind it
        // while it arbitrates, so some buffer accesses are charged —
        // but far fewer than the 30 a bypass-free model would count
        // (the paper's §4.4 fabric-vs-buffer access ratio).
        let buffer_ops = led.total_ops(Component::Buffer);
        assert!(
            buffer_ops < 30,
            "bypass must elide accesses, got {buffer_ops}"
        );
        // Crossbar traversals: 3 per flit (one per router).
        assert_eq!(led.total_ops(Component::Crossbar), 15);
        // Link traversals: 2 per flit.
        assert_eq!(led.total_ops(Component::Link), 10);
        assert!(led.total_ops(Component::Arbiter) > 0);
        assert!(led.total_energy().0 > 0.0);
    }

    #[test]
    fn reset_energy_models_warmup_exclusion() {
        let mut net = wormhole_net();
        net.enqueue_packet(NodeId(0), NodeId(5), false);
        run_until_drained(&mut net, 200);
        assert!(net.ledger().total_energy().0 > 0.0);
        net.reset_energy();
        assert_eq!(net.ledger().total_energy().0, 0.0);
    }

    #[test]
    fn heavy_uniform_load_drains_vc() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut net = vc_net(2, 8);
        let topo = Topology::torus(&[4, 4]).unwrap();
        let mut pattern = orion_net::TrafficPattern::uniform(&topo, 0.10).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..500 {
            for node in topo.nodes() {
                if pattern.should_inject(node, &mut rng) {
                    let dst = pattern.destination(node, &mut rng).unwrap();
                    net.enqueue_packet(node, dst, true);
                }
            }
            net.step();
        }
        run_until_drained(&mut net, 20_000);
        let s = net.stats();
        assert_eq!(s.packets_delivered, s.packets_injected);
        assert!(s.avg_latency() > 10.0);
    }

    #[test]
    fn central_router_network_delivers() {
        let topology = Topology::torus(&[4, 4]).unwrap();
        let tech = Technology::new(ProcessNode::Nm100);
        let mut m = models(32);
        m.central = Some(
            orion_power::CentralBufferPower::new(
                &orion_power::CentralBufferParams::new(4, 256, 32),
                tech,
            )
            .unwrap(),
        );
        let mut net = Network::new(
            NetworkSpec {
                topology,
                router: RouterKind::Central(CentralRouterSpec {
                    ports: 5,
                    input_depth: 16,
                    capacity: 256,
                    write_ports: 2,
                    read_ports: 2,
                    flit_bits: 32,
                }),
                packet_len: 5,
                dim_order: DimensionOrder::YFirst,
            },
            m,
        );
        for src in 0..16 {
            net.enqueue_packet(NodeId(src), NodeId((src + 5) % 16), true);
        }
        while !net.is_drained() && net.cycle() < 5000 {
            net.step();
        }
        assert!(net.is_drained());
        assert_eq!(net.stats().packets_delivered, 16);
        assert!(net.ledger().total_ops(Component::CentralBuffer) >= 16 * 5 * 2);
    }

    #[test]
    #[should_panic(expected = "can never advance")]
    fn oversized_packet_rejected_under_cut_through() {
        let topology = Topology::torus(&[4, 4]).unwrap();
        let mut net = Network::new(
            NetworkSpec {
                topology,
                router: RouterKind::Vc(
                    VcRouterSpec::wormhole(5, 8, 64)
                        .with_flow_control(crate::router::vc::FlowControl::CutThrough),
                ),
                packet_len: 5,
                dim_order: DimensionOrder::YFirst,
            },
            models(64),
        );
        // 9 flits can never fit an 8-deep buffer whole.
        net.enqueue_packet_len(NodeId(0), NodeId(5), 9, false);
    }

    #[test]
    fn bimodal_packet_lengths_deliver() {
        // Short control packets (1 flit) interleaved with long data
        // packets (8 flits) — the classic SoC bimodal mix.
        let mut net = vc_net(2, 8);
        for src in 0..16usize {
            let len = if src % 2 == 0 { 1 } else { 8 };
            net.enqueue_packet_len(NodeId(src), NodeId((src + 7) % 16), len, true);
        }
        while !net.is_drained() && net.cycle() < 5000 {
            net.step();
        }
        assert!(net.is_drained());
        assert_eq!(net.stats().packets_delivered, 16);
        // 8 single-flit + 8 eight-flit packets.
        assert_eq!(net.stats().flits_delivered, 8 + 64);
    }

    /// Drives `net` under deterministic uniform load for `cycles`.
    fn drive_uniform(net: &mut Network, cycles: u64, seed: u64) {
        use rand::{rngs::StdRng, SeedableRng};
        let topo = Topology::torus(&[4, 4]).unwrap();
        let mut pattern = orion_net::TrafficPattern::uniform(&topo, 0.15).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..cycles {
            for node in topo.nodes() {
                if pattern.should_inject(node, &mut rng) {
                    let dst = pattern.destination(node, &mut rng).unwrap();
                    net.enqueue_packet(node, dst, true);
                }
            }
            net.step();
        }
    }

    fn finish(net: &mut Network) -> (f64, f64, u64, u64) {
        run_until_drained(net, 50_000);
        (
            net.stats().avg_latency(),
            net.ledger().total_energy().0,
            net.stats().packets_delivered,
            net.cycle(),
        )
    }

    #[test]
    fn snapshot_restore_is_bit_identical_mid_flight() {
        // Run a loaded VC network to a mid-flight cycle (flits in
        // buffers, on wheels, in source queues, partial packets at
        // sinks), snapshot, restore into a fresh network, and demand
        // the continuation is bit-identical to the uninterrupted run.
        let mut original = vc_net(2, 8);
        drive_uniform(&mut original, 60, 42);
        assert!(original.flits_in_flight() > 0, "test needs a busy network");
        let image = original.snapshot();

        let mut restored = vc_net(2, 8);
        restored.restore(&image).expect("snapshot restores");
        // Re-snapshotting the restored network reproduces the image.
        assert_eq!(restored.snapshot(), image, "snapshot∘restore is identity");

        assert_eq!(finish(&mut original), finish(&mut restored));
    }

    #[test]
    fn wheel_schedule_outside_horizon_is_typed_error() {
        let mut w: Wheel<u32> = Wheel::new(4);
        assert!(w.schedule(3, 7).is_ok());
        let err = w.schedule(4, 9).unwrap_err();
        assert_eq!(
            err,
            WheelHorizonError {
                cycle: 4,
                base: 0,
                horizon: 4
            }
        );
        assert!(err.to_string().contains("wheel horizon"));
        // Scheduling before the base is typed too (the old release
        // assert would have wrapped the offset and landed the event in
        // a stale slot).
        let mut w: Wheel<u32> = Wheel::new(4);
        w.advance_to(2);
        assert!(w.schedule(1, 0).is_err());
    }

    #[test]
    fn sparse_and_dense_steppers_are_bit_identical() {
        let mut sparse = vc_net(2, 8);
        sparse.set_engine_mode(EngineMode::Sparse);
        let mut dense = vc_net(2, 8);
        dense.set_engine_mode(EngineMode::DenseReference);
        drive_uniform(&mut sparse, 80, 42);
        drive_uniform(&mut dense, 80, 42);
        // Mid-flight state (buffers, wheels, ledger, stats) must match
        // byte for byte, not merely summary statistics.
        assert_eq!(sparse.snapshot(), dense.snapshot());
        assert_eq!(finish(&mut sparse), finish(&mut dense));
        assert_eq!(sparse.snapshot(), dense.snapshot());
    }

    #[test]
    fn skip_idle_cycles_is_bit_identical_to_stepping() {
        let mut stepped = vc_net(2, 8);
        let mut skipped = vc_net(2, 8);
        drive_uniform(&mut stepped, 40, 7);
        drive_uniform(&mut skipped, 40, 7);
        run_until_drained(&mut stepped, 50_000);
        run_until_drained(&mut skipped, 50_000);
        // A busy engine refuses to skip.
        let mut busy = vc_net(2, 8);
        busy.enqueue_packet(NodeId(0), NodeId(5), false);
        assert_eq!(busy.skip_idle_cycles(busy.cycle() + 100), busy.cycle());

        // Drained: one engine steps 100 dead cycles, the other jumps.
        let target = stepped.cycle() + 100;
        while stepped.cycle() < target {
            stepped.step();
        }
        assert_eq!(skipped.skip_idle_cycles(target), target);
        assert_eq!(skipped.snapshot(), stepped.snapshot());

        // Identical traffic after the gap stays identical.
        stepped.enqueue_packet(NodeId(1), NodeId(14), true);
        skipped.enqueue_packet(NodeId(1), NodeId(14), true);
        assert_eq!(finish(&mut stepped), finish(&mut skipped));
        assert_eq!(skipped.snapshot(), stepped.snapshot());
    }

    #[test]
    fn skip_clamps_to_pending_wheel_events() {
        // Catch an engine in the staged-ejection window: routers and
        // sources empty (idle) but a to-sink flit still on the wheel.
        let mut net = wormhole_net();
        let mut reference = wormhole_net();
        net.enqueue_packet(NodeId(0), NodeId(1), true);
        reference.enqueue_packet(NodeId(0), NodeId(1), true);
        while (!net.is_idle() || net.is_drained()) && net.cycle() < 100 {
            net.step();
            reference.step();
        }
        assert!(net.is_idle() && !net.is_drained(), "no staged window hit");
        let event = net.next_event_cycle().expect("flit still on the wheel");
        assert_eq!(net.skip_idle_cycles(net.cycle() + 1000), event);
        while reference.cycle() < event {
            reference.step();
        }
        assert_eq!(net.snapshot(), reference.snapshot());
        assert_eq!(finish(&mut net), finish(&mut reference));
    }

    #[test]
    fn activity_corruption_is_detected_in_both_directions() {
        let mut net = vc_net(2, 8);
        assert!(net.audit().is_empty());
        // Stale active: an idle router marked active.
        net.debug_corrupt_router_activity(3);
        let v = net.audit_local();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind(), "active-set-mismatch");
        assert!(v[0].to_string().contains("stale active"));
        net.debug_corrupt_router_activity(3);
        assert!(net.audit().is_empty());

        // Lost wakeup: a queued source with its bit cleared.
        net.enqueue_packet(NodeId(5), NodeId(9), false);
        assert!(net.audit().is_empty());
        net.debug_corrupt_source_activity(5);
        let v = net.audit_local();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind(), "source-set-mismatch");
        assert!(v[0].to_string().contains("lost wakeup"));
    }

    #[test]
    fn restore_recomputes_activity_and_cross_engine_images_match() {
        // Snapshot a busy sparse run; restore into a dense-mode net.
        // The images carry no activity bits, the restore rebuilds
        // them, and the continuation is identical either way.
        let mut original = vc_net(2, 8);
        drive_uniform(&mut original, 60, 42);
        let image = original.snapshot();

        let mut dense = vc_net(2, 8);
        dense.set_engine_mode(EngineMode::DenseReference);
        dense.restore(&image).expect("snapshot restores");
        assert!(dense.audit_local().is_empty(), "activity sets rebuilt");
        assert_eq!(dense.snapshot(), image, "images are engine-agnostic");

        let mut sparse = vc_net(2, 8);
        sparse.restore(&image).expect("snapshot restores");
        assert_eq!(finish(&mut sparse), finish(&mut dense));
        assert_eq!(sparse.snapshot(), dense.snapshot());
    }

    #[test]
    fn snapshot_restore_round_trips_central_router() {
        let build = || {
            let topology = Topology::torus(&[4, 4]).unwrap();
            let tech = Technology::new(ProcessNode::Nm100);
            let mut m = models(32);
            m.central = Some(
                orion_power::CentralBufferPower::new(
                    &orion_power::CentralBufferParams::new(4, 256, 32),
                    tech,
                )
                .unwrap(),
            );
            Network::new(
                NetworkSpec {
                    topology,
                    router: RouterKind::Central(CentralRouterSpec {
                        ports: 5,
                        input_depth: 16,
                        capacity: 256,
                        write_ports: 2,
                        read_ports: 2,
                        flit_bits: 32,
                    }),
                    packet_len: 5,
                    dim_order: DimensionOrder::YFirst,
                },
                m,
            )
        };
        let mut original = build();
        drive_uniform(&mut original, 40, 9);
        assert!(original.flits_in_flight() > 0);
        let image = original.snapshot();
        let mut restored = build();
        restored.restore(&image).expect("snapshot restores");
        assert_eq!(restored.snapshot(), image);
        assert_eq!(finish(&mut original), finish(&mut restored));
    }

    #[test]
    fn snapshot_of_fresh_network_restores() {
        let net = vc_net(2, 8);
        let image = net.snapshot();
        let mut restored = vc_net(2, 8);
        restored.restore(&image).expect("empty state restores");
        assert_eq!(restored.snapshot(), image);
    }

    #[test]
    fn restore_rejects_wrong_version() {
        let net = vc_net(2, 8);
        let mut image = net.snapshot();
        image[0] ^= 0xFF; // version field is first
        let err = vc_net(2, 8).restore(&image).unwrap_err();
        assert!(matches!(
            err,
            crate::snapshot::SnapshotError::WrongVersion(_)
        ));
    }

    #[test]
    fn restore_rejects_every_truncation_without_panicking() {
        let mut net = vc_net(2, 8);
        drive_uniform(&mut net, 30, 7);
        let image = net.snapshot();
        // Every proper prefix must fail with a typed error. Stride to
        // keep the test fast; boundaries near the end are covered.
        for cut in (0..image.len())
            .step_by(97)
            .chain(image.len() - 5..image.len())
        {
            let err = vc_net(2, 8).restore(&image[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes must be rejected");
        }
    }

    #[test]
    fn restore_rejects_spec_mismatch() {
        let mut net = vc_net(2, 8);
        drive_uniform(&mut net, 30, 7);
        let image = net.snapshot();
        // Different VC count / depth: same topology shape, different
        // router internals.
        let err = vc_net(4, 8).restore(&image).unwrap_err();
        assert!(matches!(err, crate::snapshot::SnapshotError::Mismatch(_)));
        let err = vc_net(2, 4).restore(&image).unwrap_err();
        assert!(matches!(err, crate::snapshot::SnapshotError::Mismatch(_)));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut net = vc_net(2, 8);
            for src in 0..16 {
                net.enqueue_packet(NodeId(src), NodeId(15 - src), true);
            }
            while !net.is_drained() && net.cycle() < 2000 {
                net.step();
            }
            (
                net.stats().avg_latency(),
                net.ledger().total_energy().0,
                net.cycle(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ejection_port_caps_at_one_flit_per_cycle() {
        // Four neighbours all send to node 5: its ejection port can
        // deliver at most 1 flit/cycle, so 4 packets of 5 flits need at
        // least 20 cycles of ejection.
        let mut net = vc_net(2, 8);
        for src in [1usize, 4, 6, 9] {
            net.enqueue_packet(NodeId(src), NodeId(5), true);
        }
        let start = net.cycle();
        run_until_drained(&mut net, 2000);
        let elapsed = net.cycle() - start;
        assert!(
            elapsed >= 20 + 3,
            "{elapsed} cycles is too fast for 20 flits"
        );
        assert_eq!(net.stats().flits_delivered, 20);
    }

    #[test]
    fn link_flit_counters_track_traffic() {
        let mut net = wormhole_net();
        // 0 -> 5 routes d1+ (port 3) then d0+ (port 1): 5 flits each.
        net.enqueue_packet(NodeId(0), NodeId(5), false);
        run_until_drained(&mut net, 200);
        assert_eq!(net.link_flits(0, 3), 5, "first hop");
        assert_eq!(net.link_flits(4, 1), 5, "second hop from (0,1)");
        assert_eq!(net.link_flits(0, 1), 0, "unused channel");
        net.reset_measurement();
        assert_eq!(net.link_flits(0, 3), 0, "counters reset with measurement");
    }

    #[test]
    fn credits_conserved_after_drain() {
        // After draining, every output VC must have its full credit
        // complement back.
        let mut net = vc_net(2, 4);
        for src in 0..16 {
            net.enqueue_packet(NodeId(src), NodeId((src + 3) % 16), false);
        }
        run_until_drained(&mut net, 5000);
        // Step a few more cycles so in-flight credits land.
        for _ in 0..4 {
            net.step();
        }
        for r in &net.routers {
            if let AnyRouter::Vc(router) = r {
                for port in 1..5 {
                    for vc in 0..2 {
                        assert_eq!(
                            router.output_credits(port, vc),
                            4,
                            "credits must return to full"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn watchdog_classifies_wormhole_torus_deadlock() {
        use crate::watchdog::StallKind;
        use rand::{rngs::StdRng, SeedableRng};
        // A wormhole torus without VC deadlock avoidance, flooded far
        // past saturation — §4.1 warns exactly this "may even deadlock".
        let mut net = wormhole_net();
        let topo = Topology::torus(&[4, 4]).unwrap();
        let mut pattern = orion_net::TrafficPattern::uniform(&topo, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        const WINDOW: u64 = 500;
        const BUDGET: u64 = 100_000;
        let mut fired = None;
        while net.cycle() < BUDGET {
            if net.cycle() < 2000 {
                for node in topo.nodes() {
                    if pattern.should_inject(node, &mut rng) {
                        if let Some(dst) = pattern.destination(node, &mut rng) {
                            net.enqueue_packet(node, dst, false);
                        }
                    }
                }
            }
            net.step();
            if let Some(kind) = net.check_stall(WINDOW) {
                fired = Some((kind, net.cycle()));
                break;
            }
        }
        let (kind, cycle) = fired.expect("watchdog must fire on a deadlocked torus");
        assert_eq!(kind, StallKind::Deadlock);
        assert!(
            cycle < BUDGET / 2,
            "fired at {cycle}, not well under budget"
        );
        let diag = net.stall_diagnostics(kind, WINDOW);
        assert!(!diag.is_empty(), "deadlock must pin occupied VCs");
        assert!(diag.flits_in_network > 0);
        assert!(diag.cycles_since_flit_movement >= WINDOW);
        assert!(diag.blocked_head_flits() > 0, "some head must be stuck");
    }

    #[test]
    fn healthy_run_never_trips_watchdog() {
        let mut net = vc_net(2, 8);
        for src in 0..16 {
            net.enqueue_packet(NodeId(src), NodeId(15 - src), true);
        }
        while !net.is_drained() && net.cycle() < 2000 {
            net.step();
            assert_eq!(net.check_stall(500), None);
        }
        assert!(net.is_drained());
        assert_eq!(net.check_stall(500), None, "drained network never stalls");
    }

    #[test]
    fn livelock_clock_restarts_after_a_quiet_gap_but_still_trips() {
        // A window shorter than one packet's flight time: movement
        // without a delivery for a full window is the livelock shape.
        const WINDOW: u64 = 4;
        let mut verdicts = Vec::new();
        let mut net = vc_net(2, 8);
        for start in [0, 500] {
            // The second packet arrives after a silence of many windows
            // (stepped halfway, skipped the rest): its first cycles
            // must read exactly like the first packet's.
            while net.cycle() < start / 2 {
                net.step();
            }
            net.skip_idle_cycles(start);
            assert_eq!(net.cycle(), start);
            net.enqueue_packet(NodeId(0), NodeId(10), true);
            loop {
                net.step();
                if net.is_drained() {
                    break;
                }
                verdicts.push((net.cycle() - start, net.check_stall(WINDOW)));
            }
        }
        let (first, second) = verdicts.split_at(verdicts.len() / 2);
        assert_eq!(first, second, "the gap changed the verdicts");
        for &(age, verdict) in first {
            let expected = (age >= WINDOW).then_some(StallKind::Livelock);
            assert_eq!(verdict, expected, "{age} cycles after the enqueue");
        }
        assert!(
            first.len() as u64 > WINDOW,
            "the fixture outlives the window"
        );
    }

    #[test]
    fn audit_is_clean_every_cycle_of_a_healthy_run() {
        let mut auditor = crate::audit::InvariantAuditor::new();
        let mut net = vc_net(2, 8);
        for src in 0..16 {
            net.enqueue_packet(NodeId(src), NodeId(15 - src), true);
        }
        while !net.is_drained() && net.cycle() < 2000 {
            net.step();
            let violations = auditor.check(&net);
            assert!(
                violations.is_empty(),
                "cycle {}: {violations:?}",
                net.cycle()
            );
        }
        assert!(net.is_drained());
    }

    #[test]
    fn audit_survives_measurement_reset_and_drops() {
        // A mid-run stats reset must not fake a conservation violation:
        // the audit counters are independent of SimStats.
        let mut net = vc_net(2, 8);
        net.enqueue_packet(NodeId(0), NodeId(5), true);
        net.enqueue_packet(NodeId(0), NodeId(2), true);
        for _ in 0..10 {
            net.step();
        }
        net.reset_measurement();
        run_until_drained(&mut net, 500);
        assert!(net.audit().is_empty(), "{:?}", net.audit());
    }

    #[test]
    fn audit_detects_leaked_flit() {
        let mut net = vc_net(2, 8);
        net.enqueue_packet(NodeId(0), NodeId(5), true);
        run_until_drained(&mut net, 200);
        net.debug_leak_flit();
        let violations = net.audit();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind(), "flit-conservation");
        assert!(
            matches!(
                violations[0],
                crate::audit::AuditViolation::FlitConservation {
                    enqueued: 6,
                    ejected: 5,
                    in_flight: 0,
                }
            ),
            "{:?}",
            violations[0]
        );
    }

    #[test]
    fn audit_detects_spurious_credit() {
        let mut net = vc_net(2, 8);
        run_until_drained(&mut net, 10);
        // All credits are at full complement on an idle network; one
        // more overflows the downstream depth.
        net.debug_spurious_credit(3, 1, 0);
        let violations = net.audit();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].kind(), "credit-overflow");
        assert!(
            matches!(
                violations[0],
                crate::audit::AuditViolation::CreditOverflow {
                    node: 3,
                    port: 1,
                    vc: 0,
                    credits: 9,
                    depth: 8,
                }
            ),
            "{:?}",
            violations[0]
        );
    }

    #[test]
    fn component_order_matches_obs_labels() {
        // Probe rows label energy columns with orion_obs::COMPONENTS;
        // the ledger indexes them with Component::ALL. The two must
        // agree position by position forever.
        let labels: Vec<&str> = Component::ALL
            .iter()
            .map(|c| match c {
                Component::Buffer => "buffer",
                Component::CentralBuffer => "central_buffer",
                Component::Crossbar => "crossbar",
                Component::Arbiter => "arbiter",
                Component::Link => "link",
            })
            .collect();
        assert_eq!(labels, orion_obs::COMPONENTS);
    }

    #[test]
    fn observed_run_matches_unobserved_and_counts_events() {
        let run = |observe: bool| {
            let mut net = vc_net(2, 8);
            if observe {
                net.set_obs(orion_obs::ObsSink::new());
            }
            for src in 0..16 {
                net.enqueue_packet(NodeId(src), NodeId(15 - src), true);
            }
            run_until_drained(&mut net, 2000);
            net
        };
        let mut observed = run(true);
        let unobserved = run(false);
        assert_eq!(
            observed.stats().avg_latency(),
            unobserved.stats().avg_latency(),
            "observation must not perturb the simulation"
        );
        assert_eq!(
            observed.ledger().total_energy().0,
            unobserved.ledger().total_energy().0
        );
        let stats_delivered = observed.stats().packets_delivered;
        let stats_flits = observed.stats().flits_delivered;
        let link_total: u64 = (0..16)
            .flat_map(|n| (0..5).map(move |p| (n, p)))
            .map(|(n, p)| observed.link_flits(n, p))
            .sum();
        let obs = observed.take_obs().expect("observer attached");
        use orion_obs::keys;
        assert_eq!(obs.metrics.counter(keys::PACKETS_INJECTED), 16);
        assert_eq!(
            obs.metrics.counter(keys::PACKETS_DELIVERED),
            stats_delivered
        );
        assert_eq!(obs.metrics.counter(keys::FLITS_EJECTED), stats_flits);
        assert_eq!(obs.metrics.counter(keys::LINK_FLITS), link_total);
        assert!(obs.metrics.counter(keys::VA_GRANTS) > 0, "VC router has VA");
        assert!(obs.metrics.counter(keys::SA_GRANTS) >= stats_flits);
        assert!(obs.metrics.counter(keys::CREDITS_RETURNED) > 0);
        let lat = obs
            .metrics
            .histogram(keys::PACKET_LATENCY)
            .expect("latency");
        assert_eq!(lat.count(), stats_delivered);
    }

    #[test]
    fn tracer_records_packet_lifecycle() {
        let mut net = wormhole_net();
        net.set_obs(orion_obs::ObsSink::new().with_tracer(8));
        net.enqueue_packet(NodeId(0), NodeId(5), false);
        run_until_drained(&mut net, 200);
        let obs = net.take_obs().expect("observer attached");
        let observations = obs.into_observations(1);
        assert_eq!(observations.spans.len(), 1);
        let span = &observations.spans[0];
        assert_eq!((span.src, span.dst, span.len), (0, 5, 5));
        assert!(span.ejected_at.is_some());
        use orion_obs::HopStage;
        assert!(
            span.hops
                .iter()
                .any(|h| h.node == 0 && h.stage == HopStage::SaGrant),
            "source SA grant recorded: {:?}",
            span.hops
        );
        assert!(
            span.hops
                .iter()
                .any(|h| h.node == 4 && h.stage == HopStage::LinkTraversal),
            "second-hop link traversal recorded: {:?}",
            span.hops
        );
        assert!(span.queuing_cycles().unwrap() < span.latency().unwrap());
    }

    #[test]
    fn node_states_expose_probe_fields() {
        let mut net = wormhole_net();
        net.enqueue_packet(NodeId(0), NodeId(5), false);
        run_until_drained(&mut net, 200);
        let states = net.node_states();
        assert_eq!(states.len(), 16);
        assert_eq!(states[0].link_flits, 5, "node 0 sent 5 flits on d1+");
        assert_eq!(states[4].link_flits, 5, "node 4 forwarded 5 flits");
        assert_eq!(states[1].link_flits, 0);
        let total: f64 = states.iter().map(|s| s.energy_j.iter().sum::<f64>()).sum();
        assert!(
            (total - net.ledger().total_energy().0).abs() <= 1e-15 * total.abs(),
            "per-node probe energy sums to the ledger total"
        );
        assert!(states.iter().all(|s| s.buffered_flits == 0), "drained");
    }
}
