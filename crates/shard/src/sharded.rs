//! The sharded network facade.
//!
//! [`ShardedNetwork`] presents the same surface as a single
//! [`Network`] — enqueue, step, stats, energies, audits, snapshots —
//! while running one engine per contiguous node range. Each cycle,
//! every shard drains its inbound mailboxes for the cycle, runs the
//! engine's normal compute/commit phases, and deposits boundary
//! traffic for future cycles; the end of the cycle is the only
//! synchronisation barrier. Threaded stepping runs shards `1..` on
//! persistent worker threads and shard 0 on the caller. Results are
//! bit-identical to the single-engine simulator for any shard count
//! (see `docs/SCALING.md` for the argument, and this crate's tests for
//! the proof by comparison).

use std::sync::Arc;

use orion_net::NodeId;
use orion_obs::{NodeState, ObsEvent, ObsSink};
use orion_sim::energy::Component;
use orion_sim::network::image::{self, merge_stats, Coordinator};
use orion_sim::network::{EngineMode, Network, NetworkSpec};
use orion_sim::snapshot::{ByteWriter, SnapshotError};
use orion_sim::{AuditViolation, PacketId, PowerModels, SimStats, StallDiagnostics, StallKind};
use orion_tech::Joules;

use crate::mailbox::{MailGrid, MailboxIo};
use crate::plan::ShardPlan;
use crate::workers::Workers;

/// One shard: its engine plus reusable per-cycle scratch.
#[derive(Debug)]
pub(crate) struct ShardCell {
    net: Network,
    /// Inbound boundary flits, indexed by source shard (own index
    /// unused). Refilled from the grid each cycle.
    inbound_flits: Vec<Vec<orion_sim::FlitMsg>>,
    inbound_credits: Vec<Vec<orion_sim::CreditMsg>>,
    /// Recorded observability events drained after each cycle.
    events: Vec<ObsEvent>,
}

impl ShardCell {
    /// Drains this cycle's inbound mail and runs one engine cycle,
    /// sending boundary traffic through `grid`.
    pub(crate) fn step(&mut self, me: usize, grid: &MailGrid, cycle: u64) {
        for src in 0..grid.shards() {
            if src == me {
                continue;
            }
            grid.drain_flits(src, me, cycle, &mut self.inbound_flits[src]);
            grid.drain_credits(src, me, cycle, &mut self.inbound_credits[src]);
        }
        let mut io = MailboxIo::new(grid, me);
        self.net
            .step_with_io(&mut io, &mut self.inbound_flits, &mut self.inbound_credits);
    }
}

/// A network partitioned across shard engines, bit-identical to a
/// single [`Network`] built from the same spec.
#[derive(Debug)]
pub struct ShardedNetwork {
    cells: Vec<ShardCell>,
    grid: Arc<MailGrid>,
    plan: ShardPlan,
    spec: NetworkSpec,
    /// The single global packet-id sequence, threaded through
    /// whichever shard injects next.
    next_packet: u64,
    /// Cycle of the last enqueue that found the whole network empty —
    /// where the livelock clock restarts after a quiet gap. Kept here,
    /// from network-wide counts, because a shard's own counters cannot
    /// tell (a boundary packet is enqueued in one shard and ejected in
    /// another).
    busy_since: u64,
    /// The master observer of a multi-shard network; shard engines
    /// carry recorder sinks whose events are replayed into it in
    /// canonical order. (A lone engine holds the master sink itself.)
    obs: Option<Box<ObsSink>>,
    parallel: bool,
    /// The persistent workers, started by the first threaded step.
    workers: Option<Workers>,
}

impl ShardedNetwork {
    /// Builds a network evenly partitioned into `shards` contiguous
    /// ranges.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds the node count.
    pub fn new(spec: NetworkSpec, models: PowerModels, shards: usize) -> ShardedNetwork {
        let plan = ShardPlan::contiguous(spec.topology.num_nodes(), shards);
        ShardedNetwork::with_plan(spec, models, plan)
    }

    /// Builds a network partitioned by an explicit [`ShardPlan`]
    /// (property tests exercise uneven plans).
    ///
    /// # Panics
    ///
    /// Panics if the plan's node count differs from the topology's.
    pub fn with_plan(spec: NetworkSpec, models: PowerModels, plan: ShardPlan) -> ShardedNetwork {
        assert_eq!(
            plan.num_nodes(),
            spec.topology.num_nodes(),
            "plan does not cover the topology"
        );
        let shards = plan.shards();
        let cells = (0..shards)
            .map(|i| ShardCell {
                net: Network::new_shard(spec.clone(), models.clone(), i, plan.bounds()),
                inbound_flits: (0..shards).map(|_| Vec::new()).collect(),
                inbound_credits: (0..shards).map(|_| Vec::new()).collect(),
                events: Vec::new(),
            })
            .collect();
        ShardedNetwork {
            cells,
            grid: Arc::new(MailGrid::new(shards)),
            plan,
            spec,
            next_packet: 0,
            busy_since: 0,
            obs: None,
            parallel: std::thread::available_parallelism()
                .map(|n| n.get() > 1)
                .unwrap_or(false),
            workers: None,
        }
    }

    /// The partitioning plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.cells.len()
    }

    /// The network specification.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Whether [`ShardedNetwork::step`] runs shards on worker threads.
    /// Either mode is bit-identical; threading only changes wall-clock
    /// time. Defaults to `true` when the host has more than one CPU.
    /// The `shards − 1` workers start at the first threaded step and
    /// live until the network is dropped.
    pub fn parallel(&self) -> bool {
        self.parallel
    }

    /// Forces threaded or sequential stepping (see
    /// [`ShardedNetwork::parallel`]).
    pub fn set_parallel(&mut self, on: bool) {
        self.parallel = on;
    }

    /// Selects the stepper for every shard engine (see
    /// [`EngineMode`]). Sparse and dense are bit-identical; the wake
    /// path for boundary traffic needs no extra plumbing because
    /// drained mailbox messages flow through each engine's ordinary
    /// arrival and credit sites.
    pub fn set_engine_mode(&mut self, mode: EngineMode) {
        for cell in &mut self.cells {
            cell.net.set_engine_mode(mode);
        }
    }

    /// True when every shard engine is idle *and* the boundary
    /// mailboxes hold no flit or credit — the only remaining work, if
    /// any, sits on per-shard event wheels. Only meaningful at the
    /// cycle barrier (between [`ShardedNetwork::step`] calls).
    pub fn is_idle(&self) -> bool {
        self.cells.iter().all(|c| c.net.is_idle()) && self.grid.is_empty()
    }

    /// The earliest future cycle with a scheduled event on any
    /// shard's wheels, if any.
    pub fn next_event_cycle(&self) -> Option<u64> {
        self.cells
            .iter()
            .filter_map(|c| c.net.next_event_cycle())
            .min()
    }

    /// Jumps every shard's clock in lockstep over provably dead
    /// cycles (see [`Network::skip_idle_cycles`]); the mailbox-empty
    /// condition in [`ShardedNetwork::is_idle`] guarantees no
    /// boundary message is due in the gap. Returns the new cycle.
    pub fn skip_idle_cycles(&mut self, target: u64) -> u64 {
        let cycle = self.cycle();
        if target <= cycle || !self.is_idle() {
            return cycle;
        }
        let stop = self.next_event_cycle().map_or(target, |e| target.min(e));
        if stop > cycle {
            for cell in &mut self.cells {
                let reached = cell.net.skip_idle_cycles(stop);
                debug_assert_eq!(reached, stop, "shards must skip in lockstep");
            }
        }
        self.cycle()
    }

    /// Current simulation cycle (identical across shards).
    pub fn cycle(&self) -> u64 {
        self.cells[0].net.cycle()
    }

    /// Advances every shard one cycle and replays observability
    /// events. The return from this method is the inter-shard barrier:
    /// all boundary traffic produced this cycle sits in the mailboxes,
    /// due at `cycle + 1` (credits) or `cycle + 2` (flits).
    ///
    /// # Panics
    ///
    /// Resumes the panic of any shard's step (the lowest shard's if
    /// several panic), after every worker has finished the cycle; the
    /// network must then be discarded.
    pub fn step(&mut self) {
        let cycle = self.cycle();
        let grid = &self.grid;
        if self.parallel && self.cells.len() > 1 {
            let workers = self
                .workers
                .get_or_insert_with(|| Workers::start(self.cells.len() - 1, Arc::clone(grid)));
            workers.step(&mut self.cells, cycle, |cell| cell.step(0, grid, cycle));
        } else {
            for (me, cell) in self.cells.iter_mut().enumerate() {
                cell.step(me, grid, cycle);
            }
        }
        self.replay_obs();
    }

    /// Replays each shard's recorded events into the master sink in
    /// canonical order: phase by phase ([`ObsEvent::phase`]), shards
    /// ascending within a phase — the order a single engine would have
    /// emitted them.
    fn replay_obs(&mut self) {
        let Some(master) = self.obs.as_deref_mut() else {
            return;
        };
        for cell in &mut self.cells {
            if let Some(rec) = cell.net.obs_mut() {
                let mut events = std::mem::take(&mut cell.events);
                rec.take_events(&mut events);
                cell.events = events;
            }
        }
        for phase in 0..3u8 {
            for cell in &self.cells {
                for e in &cell.events {
                    if e.phase() == phase {
                        master.apply(e);
                    }
                }
            }
        }
    }

    /// Queues a packet at `src`'s shard, allocating from the global
    /// packet-id sequence — ids match a single-engine run injecting in
    /// the same order.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is outside the topology.
    pub fn enqueue_packet(&mut self, src: NodeId, dst: NodeId, tagged: bool) -> PacketId {
        self.enqueue_packet_len(src, dst, self.spec.packet_len, tagged)
    }

    /// Queues a packet of explicit length (see
    /// [`Network::enqueue_packet_len`]).
    pub fn enqueue_packet_len(
        &mut self,
        src: NodeId,
        dst: NodeId,
        len: u32,
        tagged: bool,
    ) -> PacketId {
        let (enqueued, ejected) = self.audit_counters();
        if enqueued == ejected {
            self.busy_since = self.cycle();
        }
        let s = self.plan.shard_of(src.0);
        let cell = &mut self.cells[s];
        cell.net.set_next_packet(self.next_packet);
        let id = cell.net.enqueue_packet_len(src, dst, len, tagged);
        self.next_packet = cell.net.next_packet_id();
        // Injection-time events reach the master sink immediately, in
        // call order — the same order a single engine applies them.
        if let Some(master) = self.obs.as_deref_mut() {
            if let Some(rec) = cell.net.obs_mut() {
                let mut events = std::mem::take(&mut cell.events);
                rec.take_events(&mut events);
                for e in &events {
                    master.apply(e);
                }
                cell.events = events;
            }
        }
        id
    }

    /// Attaches the master observer. Shard engines get recorder sinks
    /// feeding it; a lone engine already emits events in canonical
    /// order, so it carries the master sink itself and nothing is
    /// recorded or replayed.
    pub fn set_obs(&mut self, obs: ObsSink) {
        if let [solo] = &mut self.cells[..] {
            return solo.net.set_obs(obs);
        }
        self.obs = Some(Box::new(obs));
        for cell in &mut self.cells {
            cell.net.set_obs(ObsSink::recorder());
        }
    }

    /// The attached master observer, if any.
    pub fn obs(&self) -> Option<&ObsSink> {
        match &self.cells[..] {
            [solo] => solo.net.obs(),
            _ => self.obs.as_deref(),
        }
    }

    /// Mutable access to the master observer.
    pub fn obs_mut(&mut self) -> Option<&mut ObsSink> {
        match &mut self.cells[..] {
            [solo] => solo.net.obs_mut(),
            _ => self.obs.as_deref_mut(),
        }
    }

    /// Detaches and returns the master observer, dropping the shard
    /// recorders.
    pub fn take_obs(&mut self) -> Option<ObsSink> {
        if let [solo] = &mut self.cells[..] {
            return solo.net.take_obs();
        }
        self.replay_obs();
        for cell in &mut self.cells {
            cell.net.take_obs();
        }
        self.obs.take().map(|b| *b)
    }

    /// Merged performance statistics: counters summed, the latency
    /// sample re-interleaved into whole-network delivery order (cycle,
    /// then ascending shard — which is ascending destination node).
    pub fn stats_merged(&self) -> SimStats {
        merge_stats(&self.engines())
    }

    /// The shard engines in shard order.
    fn engines(&self) -> Vec<&Network> {
        self.cells.iter().map(|c| &c.net).collect()
    }

    /// Tagged packets still in flight. A boundary packet is injected
    /// in its source shard but delivered in its destination shard, so
    /// per-shard `tagged_outstanding` can underflow; the counters must
    /// be summed network-wide *before* subtracting.
    pub fn tagged_outstanding(&self) -> u64 {
        let (injected, delivered) = self.cells.iter().fold((0u64, 0u64), |acc, c| {
            let s = c.net.stats();
            (acc.0 + s.tagged_injected, acc.1 + s.tagged_delivered)
        });
        injected - delivered
    }

    /// Packets delivered, summed over shards.
    pub fn packets_delivered(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.net.stats().packets_delivered)
            .sum()
    }

    /// Flits anywhere in the system — shard engines plus boundary
    /// mailboxes — in O(shards): network-wide enqueues minus ejections.
    /// [`ShardedNetwork::audit`] re-counts them structurally.
    pub fn flits_in_flight(&self) -> usize {
        let (enqueued, ejected) = self.audit_counters();
        let n = (enqueued - ejected) as usize;
        debug_assert_eq!(
            n,
            self.flits_held(),
            "flit counters disagree with the shards"
        );
        n
    }

    /// Flits held by the shard engines and the mailboxes, counted
    /// structurally (O(nodes)).
    fn flits_held(&self) -> usize {
        self.cells.iter().map(|c| c.net.flits_held()).sum::<usize>()
            + self.grid.in_transit() as usize
    }

    /// `true` when no flits remain in any shard or mailbox (O(shards)).
    pub fn is_drained(&self) -> bool {
        self.flits_in_flight() == 0
    }

    /// Flits waiting in source queues, summed over shards.
    pub fn source_backlog(&self) -> usize {
        self.cells.iter().map(|c| c.net.source_backlog()).sum()
    }

    /// The cycle at which a flit last moved anywhere.
    pub fn last_progress_cycle(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.net.last_progress_cycle())
            .max()
            .expect("at least one shard")
    }

    fn last_delivery_cycle(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.net.last_delivery_cycle())
            .max()
            .expect("at least one shard")
    }

    fn last_credit_cycle(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.net.last_credit_cycle())
            .max()
            .expect("at least one shard")
    }

    /// Whole-network watchdog check: [`Network::check_stall`] over the
    /// merged progress clocks and network-wide packet counts, so the
    /// verdict is the same at every shard count.
    pub fn check_stall(&self, window: u64) -> Option<StallKind> {
        if window == 0 || self.is_drained() {
            return None;
        }
        let cycle = self.cycle();
        let injected: u64 = self
            .cells
            .iter()
            .map(|c| c.net.stats().packets_injected)
            .sum();
        let undelivered = injected > self.packets_delivered();
        StallKind::classify(
            window,
            cycle - self.last_progress_cycle(),
            undelivered.then(|| cycle - self.last_delivery_cycle().max(self.busy_since)),
        )
    }

    /// Whole-network stall diagnostics: merged progress clocks plus
    /// every shard's occupied VCs (ascending shard = ascending node).
    pub fn stall_diagnostics(&self, kind: StallKind, window: u64) -> StallDiagnostics {
        let cycle = self.cycle();
        let mut stalled_vcs = Vec::new();
        for cell in &self.cells {
            stalled_vcs.extend(cell.net.stall_diagnostics(kind, window).stalled_vcs);
        }
        let source_backlog = self.source_backlog();
        StallDiagnostics {
            kind,
            cycle,
            window,
            cycles_since_flit_movement: cycle - self.last_progress_cycle(),
            cycles_since_delivery: cycle - self.last_delivery_cycle(),
            cycles_since_credit: cycle - self.last_credit_cycle(),
            flits_in_network: self.flits_held() - source_backlog,
            source_backlog,
            packets_delivered: self.packets_delivered(),
            stalled_vcs,
        }
    }

    /// The monotone flit counters `(enqueued, ejected)` summed over
    /// shards (see [`Network::audit_counters`]).
    fn audit_counters(&self) -> (u64, u64) {
        self.cells.iter().fold((0, 0), |acc, cell| {
            let (e, j) = cell.net.audit_counters();
            (acc.0 + e, acc.1 + j)
        })
    }

    /// Runs every stateless invariant check: whole-network flit
    /// conservation (boundary flits in transit count as in flight),
    /// then each shard's local checks in shard order.
    pub fn audit(&self) -> Vec<AuditViolation> {
        let mut violations = Vec::new();
        let (enqueued, ejected) = self.audit_counters();
        let in_flight = self.flits_held() as u64;
        if enqueued != ejected + in_flight {
            violations.push(AuditViolation::FlitConservation {
                enqueued,
                ejected,
                in_flight,
            });
        }
        for cell in &self.cells {
            violations.extend(cell.net.audit_local());
        }
        violations
    }

    /// Accumulated energy at `node` for `component` — exact, read from
    /// the owning shard's ledger (only the owner ever charges a node).
    pub fn node_energy(&self, node: usize, component: Component) -> Joules {
        let s = self.plan.shard_of(node);
        self.cells[s].net.ledger().energy(node, component)
    }

    /// Total accumulated energy: each component summed over the nodes
    /// in node order from the owners' rows, then over components — the
    /// summation [`EnergyLedger::total_energy`](orion_sim::EnergyLedger::total_energy)
    /// does on one engine, so the bits are the same at every shard
    /// count.
    pub fn total_energy_j(&self) -> f64 {
        let nodes = 0..self.plan.num_nodes();
        Component::ALL
            .iter()
            .map(|&c| {
                nodes
                    .clone()
                    .map(|n| self.node_energy(n, c))
                    .sum::<Joules>()
            })
            .sum::<Joules>()
            .0
    }

    /// Flits carried by the channel leaving `node` through `out_port`
    /// since the last measurement reset (owner-exact).
    pub fn link_flits(&self, node: usize, out_port: usize) -> u64 {
        let s = self.plan.shard_of(node);
        self.cells[s].net.link_flits(node, out_port)
    }

    /// Every node's probe-visible state in global node order.
    pub fn node_states(&self) -> Vec<NodeState> {
        let mut out = Vec::with_capacity(self.plan.num_nodes());
        for cell in &self.cells {
            out.extend(cell.net.node_states());
        }
        out
    }

    /// Clears energy and performance counters on every shard at the
    /// warm-up boundary (see [`Network::reset_measurement`]).
    pub fn reset_measurement(&mut self) {
        for cell in &mut self.cells {
            cell.net.reset_measurement();
        }
    }

    /// Serialises the network's state into the canonical image (see
    /// [`orion_sim::network::image`]): the bytes a single [`Network`]
    /// at this cycle writes, whatever the shard count. Boundary flits
    /// and credits in the mailboxes are written as the wheel entries
    /// the single engine holds for them.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.snapshot_into(&mut w);
        w.into_vec()
    }

    /// Appends exactly [`ShardedNetwork::snapshot`]'s bytes to `w`, so
    /// a run that reuses one buffer stops allocating for the image.
    pub fn snapshot_into(&self, w: &mut ByteWriter) {
        let (flits, credits) = self.grid.contents(self.cycle());
        let coord = Coordinator {
            next_packet: self.next_packet,
            busy_since: self.busy_since,
            flits,
            credits,
        };
        image::write_image(&self.engines(), &coord, w);
    }

    /// Restores a canonical image — written by a [`Network`] or by a
    /// sharded network at any shard count — into this network, which
    /// must have been built from the same spec and models. The image
    /// is split over this network's shards; messages whose link
    /// crosses this partition go into the mailboxes. A topology,
    /// router or corruption mismatch is a typed [`SnapshotError`]; on
    /// error the network must be discarded.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut engines: Vec<&mut Network> = self.cells.iter_mut().map(|c| &mut c.net).collect();
        let coord = image::restore_image(&mut engines, bytes)?;
        self.grid.clear();
        for m in coord.flits {
            self.grid.send_flit(m.from, m.to, m.cycle, m.msg);
        }
        for m in coord.credits {
            self.grid.send_credit(m.from, m.to, m.cycle, m.msg);
        }
        self.next_packet = coord.next_packet;
        self.busy_since = coord.busy_since;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use orion_net::{DimensionOrder, Topology};
    use orion_power::{
        ArbiterKind, ArbiterParams, ArbiterPower, BufferParams, BufferPower, CrossbarKind,
        CrossbarParams, CrossbarPower, LinkPower,
    };
    use orion_sim::{CreditMsg, RouterKind, VcRouterSpec};
    use orion_tech::{Microns, ProcessNode, Technology};

    use super::*;

    fn two_shards() -> ShardedNetwork {
        let tech = Technology::new(ProcessNode::Nm100);
        let crossbar =
            CrossbarPower::new(&CrossbarParams::new(CrossbarKind::Matrix, 5, 5, 64), tech)
                .expect("valid");
        let arbiter = ArbiterPower::new(&ArbiterParams::new(ArbiterKind::Matrix, 5), tech)
            .expect("valid")
            .with_control_energy(crossbar.control_energy());
        let models = PowerModels {
            flit_bits: 64,
            buffer: BufferPower::new(&BufferParams::new(16, 64), tech).expect("valid"),
            crossbar,
            arbiter,
            link: LinkPower::on_chip(Microns::from_mm(3.0), 64, tech),
            central: None,
        };
        let spec = NetworkSpec {
            topology: Topology::torus(&[4, 4]).expect("valid"),
            router: RouterKind::Vc(VcRouterSpec::virtual_channel(5, 2, 4, 64)),
            packet_len: 5,
            dim_order: DimensionOrder::YFirst,
        };
        let mut net = ShardedNetwork::new(spec, models, 2);
        net.set_parallel(true);
        net
    }

    #[test]
    fn a_panicking_worker_step_panics_step_and_the_network_still_drops() {
        let mut net = two_shards();
        net.step();
        assert!(
            net.workers.is_some(),
            "the first threaded step starts the workers"
        );
        // A credit for a VC shard 1's router lacks, due at shard 1's
        // next step: indexing it panics on the worker thread.
        let node = net.plan.bounds()[1];
        let credit = CreditMsg {
            dest: node,
            out_port: 1,
            vc: 99,
        };
        net.grid.send_credit(0, 1, net.cycle(), credit);
        let caught = catch_unwind(AssertUnwindSafe(|| net.step()));
        assert!(caught.is_err(), "the worker's panic reaches the caller");
        assert_eq!(net.cells.len(), 2, "every shard came back");
        drop(net);
    }

    #[test]
    fn a_mailbox_credit_for_a_missing_vc_fails_restore_with_a_typed_error() {
        let source = two_shards();
        // A 2-VC router has no VC 99: the image's mailbox is
        // checksum-clean but inconsistent with the spec.
        let credit = CreditMsg {
            dest: source.plan.bounds()[1],
            out_port: 1,
            vc: 99,
        };
        source.grid.send_credit(0, 1, source.cycle() + 1, credit);
        let image = source.snapshot();
        let mut target = two_shards();
        assert!(matches!(
            target.restore(&image),
            Err(SnapshotError::Invalid("credit arrival vc"))
        ));
    }

    #[test]
    fn boundary_mail_is_written_as_the_single_engines_wheel_entries() {
        let mut net = two_shards();
        net.set_parallel(false);
        let mut mono = Network::new(net.spec.clone(), net.cells[0].net.ledger().models().clone());
        let mut seen = 0;
        for cycle in 0..80u64 {
            let (src, dst) = ((cycle * 5) as usize % 16, (cycle * 11 + 3) as usize % 16);
            net.enqueue_packet(NodeId(src), NodeId(dst), true);
            mono.enqueue_packet(NodeId(src), NodeId(dst), true);
            net.step();
            mono.step();
            let (flits, credits) = net.grid.contents(net.cycle());
            if !flits.is_empty() && !credits.is_empty() {
                seen += 1;
                assert_eq!(net.snapshot(), mono.snapshot(), "cycle {cycle}");
            }
        }
        assert!(seen >= 3, "boundary flits and credits were in transit");
    }

    #[test]
    fn a_panicking_caller_step_waits_for_the_workers() {
        let mut net = two_shards();
        net.step();
        let credit = CreditMsg {
            dest: 0,
            out_port: 1,
            vc: 99,
        };
        net.grid.send_credit(1, 0, net.cycle(), credit);
        let caught = catch_unwind(AssertUnwindSafe(|| net.step()));
        assert!(caught.is_err(), "shard 0's panic reaches the caller");
        assert_eq!(net.cells.len(), 2, "every shard came back");
    }
}
