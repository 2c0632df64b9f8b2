//! The experiment runner, reproducing the paper's measurement
//! discipline (§4.1):
//!
//! *"Each simulation is run for a warm-up phase of 1000 cycles with
//! 10,000 packets injected thereafter and the simulation continued at
//! the prescribed packet injection rate till these packets in the
//! sample space have all been received, and their average latency
//! calculated."*
//!
//! Energy is recorded "over the entire simulation excluding the first
//! 1000 cycles". A cycle budget still bounds every run, but the runner
//! does not merely wait it out: a watchdog
//! ([`Network::check_stall`](orion_sim::Network::check_stall)) detects
//! no-progress windows and classifies them (deadlock vs livelock), a
//! backlog-divergence check detects saturation early, and fault-aware
//! routing accounts for dropped packets — each reported as a structured
//! [`RunOutcome`] on the [`Report`].

use rand::rngs::StdRng;
use rand::SeedableRng;

use orion_net::{FaultSchedule, NodeId, TraceTraffic, TrafficPattern};
use orion_obs::{ObsSink, Prober};
use orion_shard::ShardedNetwork;
use orion_sim::snapshot::ByteWriter;
use orion_sim::{AuditViolation, Component, EngineMode, InvariantAuditor, SnapshotError};
use orion_tech::Joules;

use crate::checkpoint::{RunCheckpoint, RunControl, RunError, RunHook, RunPhase, RunResult};
use crate::config::{ConfigError, NetworkConfig};
use crate::report::{Report, RunOutcome};

/// What an observed run collects (see
/// [`Experiment::observe`]): per-node probe samples on a cycle stride,
/// and optionally flit-lifecycle spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObserveOptions {
    /// Probe sampling period in cycles (clamped to at least 1). Each
    /// sample records every node's buffer occupancy, free credits,
    /// link flits and per-component energy — the paper's Fig. 6
    /// per-node power map as a time series.
    pub sample_every: u64,
    /// Completed flit-span ring capacity; `0` disables tracing.
    pub trace_packets: usize,
}

impl Default for ObserveOptions {
    /// 100-cycle sampling, no tracing.
    fn default() -> ObserveOptions {
        ObserveOptions {
            sample_every: 100,
            trace_packets: 0,
        }
    }
}

/// A configured simulation experiment.
///
/// ```no_run
/// use orion_core::{presets, Experiment};
///
/// let report = Experiment::new(presets::vc16_onchip())
///     .injection_rate(0.05)
///     .seed(7)
///     .run()
///     .expect("valid configuration");
/// println!("{:.1} cycles, {:.3} W", report.avg_latency(), report.total_power().0);
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    config: NetworkConfig,
    workload: Option<TrafficPattern>,
    trace: Option<TraceTraffic>,
    rate: f64,
    seed: u64,
    warmup: u64,
    sample_packets: u64,
    max_cycles: u64,
    fault_schedule: Option<FaultSchedule>,
    watchdog: u64,
    audit_every: u64,
    observe: Option<ObserveOptions>,
    shards: usize,
    engine: EngineMode,
}

/// Default watchdog window: a full millennium of cycles with no flit
/// movement (or no delivery) means the run is wedged, not slow.
const DEFAULT_WATCHDOG: u64 = 1000;

/// Consecutive growing backlog samples (one per watchdog window)
/// required before the runner declares saturation divergence.
const BACKLOG_SAMPLES: usize = 4;

impl Experiment {
    /// Creates an experiment with the paper's measurement defaults:
    /// uniform random traffic at 0.05 packets/cycle/node, 1000 warm-up
    /// cycles, a 10 000-packet sample and a 1 000 000-cycle budget.
    pub fn new(config: NetworkConfig) -> Experiment {
        Experiment {
            config,
            workload: None,
            trace: None,
            rate: 0.05,
            seed: 1,
            warmup: 1000,
            sample_packets: 10_000,
            max_cycles: 1_000_000,
            fault_schedule: None,
            watchdog: DEFAULT_WATCHDOG,
            audit_every: 0,
            observe: None,
            shards: 1,
            engine: EngineMode::Sparse,
        }
    }

    /// Sets the uniform-random injection rate in packets/cycle/node
    /// (ignored when an explicit [`workload`](Experiment::workload) is
    /// set).
    pub fn injection_rate(mut self, rate: f64) -> Experiment {
        self.rate = rate;
        self
    }

    /// Replaces the default uniform workload with an explicit traffic
    /// pattern (e.g. broadcast, §4.3).
    pub fn workload(mut self, pattern: TrafficPattern) -> Experiment {
        self.workload = Some(pattern);
        self
    }

    /// Replays a recorded communication trace instead of a synthetic
    /// pattern (§4.3: "Orion can be interfaced with actual
    /// communication traces"). Trace cycles are absolute, so the
    /// warm-up phase is skipped: the whole replay is measured, and the
    /// run ends when the trace is exhausted and the network drains.
    /// Takes precedence over [`workload`](Experiment::workload).
    pub fn trace(mut self, trace: TraceTraffic) -> Experiment {
        self.trace = Some(trace);
        self
    }

    /// Seeds the workload's random process; equal seeds give identical
    /// runs.
    pub fn seed(mut self, seed: u64) -> Experiment {
        self.seed = seed;
        self
    }

    /// Overrides the warm-up length in cycles (paper: 1000).
    pub fn warmup(mut self, cycles: u64) -> Experiment {
        self.warmup = cycles;
        self
    }

    /// Overrides the measured-sample size in packets (paper: 10 000).
    pub fn sample_packets(mut self, packets: u64) -> Experiment {
        self.sample_packets = packets;
        self
    }

    /// Overrides the total cycle budget.
    pub fn max_cycles(mut self, cycles: u64) -> Experiment {
        self.max_cycles = cycles;
        self
    }

    /// Installs a deterministic fault schedule: routing consults it at
    /// every injection, detouring around dead links and dropping (with
    /// accounting) packets that no surviving path can carry. A run with
    /// drops ends as [`RunOutcome::Faulted`].
    pub fn fault_schedule(mut self, schedule: FaultSchedule) -> Experiment {
        self.fault_schedule = Some(schedule);
        self
    }

    /// Overrides the watchdog's no-progress window in cycles
    /// (default 1000). The same window paces the saturation
    /// backlog-divergence check; `0` disables both, restoring
    /// budget-only termination.
    pub fn watchdog_cycles(mut self, window: u64) -> Experiment {
        self.watchdog = window;
        self
    }

    /// Enables the invariant auditor
    /// ([`Network::audit`](orion_sim::Network::audit)): every `n`
    /// cycles of the measured phase — and once more at run end — flit
    /// conservation, credit/occupancy bounds and energy-ledger sanity
    /// are re-checked from independent state. Any violation aborts the
    /// run as [`RunOutcome::Corrupted`] instead of reporting numbers
    /// the simulator itself cannot account for. `0` (the default)
    /// disables auditing. The checks are read-only: a healthy audited
    /// run is bit-identical to the same run unaudited.
    pub fn audit_every(mut self, n: u64) -> Experiment {
        self.audit_every = n;
        self
    }

    /// Attaches an observer to the run: the engine publishes event
    /// metrics (and, if `trace_packets > 0`, flit-lifecycle spans) into
    /// an [`ObsSink`], and a probe scheduler samples every node's state
    /// each `sample_every` cycles of the measured phase. The collected
    /// [`orion_obs::Observations`] land on
    /// [`Report::observations`](crate::Report::observations).
    /// Observation is read-only: the simulated numbers are bit-identical
    /// with or without it.
    pub fn observe(mut self, options: ObserveOptions) -> Experiment {
        self.observe = Some(options);
        self
    }

    /// Partitions the network across `n` shards (see `orion-shard`
    /// and `docs/SCALING.md`): contiguous node ranges each run their
    /// own engine, exchanging boundary flits through deterministic
    /// mailboxes. Results are **bit-identical** for every shard count;
    /// `1` (the default) *is* the monolithic engine — one shard owning
    /// every node, no second code path. Counts outside `1..=num_nodes`
    /// are rejected as [`ConfigError::InvalidShards`].
    pub fn shards(mut self, n: usize) -> Experiment {
        self.shards = n;
        self
    }

    /// Pins the cycle stepper: [`EngineMode::Sparse`] (activity-driven,
    /// the default) or [`EngineMode::DenseReference`] (every router
    /// visited every cycle). The two are **bit-identical** — the dense
    /// engine exists for differential testing and the CI
    /// `sparse-identity` job.
    pub fn engine(mut self, mode: EngineMode) -> Experiment {
        self.engine = mode;
        self
    }

    /// The configuration under test.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Runs the experiment to completion, early stall or saturation
    /// detection, or budget exhaustion — the distinction is recorded in
    /// [`Report::outcome`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError`]: an out-of-range injection rate
    /// or invalid dimension order is rejected here, and power-model
    /// parameter errors are wrapped as [`ConfigError::Model`]. No
    /// configuration input panics.
    pub fn run(self) -> Result<Report, ConfigError> {
        match self.run_inner(None, None) {
            Ok(RunResult::Finished(report)) => Ok(*report),
            Ok(RunResult::Aborted(_)) => unreachable!("no hook to abort the run"),
            Err(RunError::Config(e)) => Err(e),
            Err(e) => unreachable!("no checkpoint to resume: {e}"),
        }
    }

    /// Runs the experiment with a checkpoint hook, optionally resuming
    /// from a prior [`RunCheckpoint`].
    ///
    /// Every `hook.every()` cycles the runner captures the complete
    /// resumable state and offers it to the hook; returning
    /// [`RunControl::Stop`] ends the run gracefully as
    /// [`RunResult::Aborted`] carrying that checkpoint. A run resumed
    /// from a checkpoint produces **bit-identical** results to the
    /// uninterrupted run — the property the round-trip tests in this
    /// module pin.
    ///
    /// # Errors
    ///
    /// [`RunError::Config`] for invalid configurations,
    /// [`RunError::Resume`] when the checkpoint is corrupt or belongs
    /// to a different experiment, and [`RunError::Unsupported`] when
    /// combined with [`observe`](Experiment::observe) (observer state
    /// is not snapshotted).
    pub fn run_with_hook(
        self,
        hook: &mut dyn RunHook,
        resume: Option<RunCheckpoint>,
    ) -> Result<RunResult, RunError> {
        self.run_inner(Some(hook), resume)
    }

    fn run_inner(
        self,
        mut hook: Option<&mut dyn RunHook>,
        resume: Option<RunCheckpoint>,
    ) -> Result<RunResult, RunError> {
        self.config.validate()?;
        let nodes: Vec<NodeId> = self.config.topology.nodes().collect();
        if self.shards == 0 || self.shards > nodes.len() {
            return Err(ConfigError::InvalidShards {
                shards: self.shards,
                nodes: nodes.len(),
            }
            .into());
        }
        if (hook.is_some() || resume.is_some()) && self.observe.is_some() {
            return Err(RunError::Unsupported(
                "checkpointing an observed run (observer state is not snapshotted)",
            ));
        }
        let (spec, models) = self.config.build().map_err(ConfigError::from)?;
        let ports = self.config.ports();
        let router_leakage = orion_tech::Watts(
            ports as f64 * models.buffer.leakage_power().0
                + models.crossbar.leakage_power().0
                + ports as f64 * models.arbiter.leakage_power().0
                + models.central.as_ref().map_or(0.0, |c| c.leakage_power().0),
        );
        // One engine type at every shard count: a 1-shard
        // `ShardedNetwork` *is* the monolithic engine.
        let mut net = ShardedNetwork::new(spec, models, self.shards);
        net.set_engine_mode(self.engine);
        if let Some(schedule) = &self.fault_schedule {
            net.set_fault_schedule(schedule.clone());
        }

        // Observability (opt-in): the sink is attached at the start of
        // the *measured* phase so its metrics cover the same window as
        // SimStats, and the prober samples node state on its stride.
        // Everything here is read-only with respect to the simulation.
        let mut pending_sink = self.observe.as_ref().map(|o| {
            let sink = ObsSink::new();
            if o.trace_packets > 0 {
                sink.with_tracer(o.trace_packets)
            } else {
                sink
            }
        });
        let mut prober = self.observe.as_ref().map(|o| Prober::new(o.sample_every));

        // Trace cycles are absolute, so a replay is a zero-length
        // warm-up: the whole of it is measured.
        let (mut workload, warmup) = match self.trace {
            Some(trace) => (Workload::Trace(trace), 0),
            None => {
                let pattern = match self.workload {
                    Some(p) => p,
                    None => {
                        if !(0.0..=1.0).contains(&self.rate) {
                            return Err(ConfigError::InvalidRate(self.rate).into());
                        }
                        TrafficPattern::uniform(&self.config.topology, self.rate)
                            .expect("rate validated above")
                    }
                };
                let rng = StdRng::seed_from_u64(self.seed);
                (Workload::Synthetic { pattern, rng }, self.warmup)
            }
        };
        let offered_rate = workload.offered_rate(nodes.len());

        // The watchdog window: no flit movement (deadlock) or no
        // delivery (livelock) for a full window stops the run with
        // diagnostics instead of burning the cycle budget. The same
        // window paces source-backlog sampling for the saturation
        // divergence check (synthetic traffic only: a trace offers a
        // fixed packet set, its backlog cannot diverge).
        let mut strides = [0; 4];
        strides[Periodic::Probe as usize] = prober.as_ref().map_or(0, Prober::sample_every);
        strides[Periodic::Audit as usize] = self.audit_every;
        strides[Periodic::Checkpoint as usize] = hook.as_ref().map_or(0, |h| h.every());
        if matches!(workload, Workload::Synthetic { .. }) {
            strides[Periodic::Backlog as usize] = self.watchdog;
        }
        let bounds = Boundaries {
            strides,
            max_cycles: self.max_cycles,
        };

        let mut phase = RunPhase::Warmup { done: 0 };
        let mut tagged_budget = self.sample_packets;
        let mut measure_start = 0;
        let mut backlog_samples: Vec<usize> = Vec::new();
        // Invariant auditing (opt-in): checked on a cycle stride during
        // the measured phase, plus once at run end. The first failing
        // audit stops the run — numbers past that point are garbage.
        let mut auditor = InvariantAuditor::new();
        // One network-image buffer for the whole run: each checkpoint
        // lends it to `RunCheckpoint::net` and takes it back after the
        // hook, so a steady-state capture allocates nothing large.
        let mut image = Vec::new();

        // Resume: re-hydrate every piece of run state the checkpoint carries.
        if let Some(ck) = resume {
            net.restore(&ck.net).map_err(RunError::Resume)?;
            if matches!(ck.phase, RunPhase::Warmup { done } if done > warmup) {
                return Err(RunError::Resume(SnapshotError::Mismatch("warm-up length")));
            }
            workload.restore(&ck).map_err(RunError::Resume)?;
            phase = ck.phase;
            tagged_budget = ck.tagged_budget;
            measure_start = ck.measure_start;
            backlog_samples = ck.backlog_samples;
            auditor = InvariantAuditor::with_baseline(ck.auditor_energy);
        }

        // The one run loop: every cycle is `skip? → inject → step →
        // periodic actions`, whatever the workload and phase. It breaks
        // with the outcome as far as the loop can tell it.
        let mut outcome = loop {
            if phase == (RunPhase::Warmup { done: warmup }) {
                // Warm-up energy and counters are discarded; packets in
                // flight stay in flight.
                net.reset_measurement();
                measure_start = net.cycle();
                phase = RunPhase::Measure;
                if let Some(sink) = pending_sink.take() {
                    net.set_obs(sink);
                }
            }
            let measuring = phase == RunPhase::Measure;
            let mut drained = false;
            if measuring {
                // A synthetic run measures until its tagged sample has
                // all ejected or dropped (injection continues); a replay
                // until the trace is exhausted and the network drains.
                // `is_drained` is O(nodes): once per iteration, replays only.
                let work_left = match &workload {
                    Workload::Synthetic { pattern, .. } => {
                        pattern.total_injection_rate() > 0.0
                            && (tagged_budget > 0 || net.tagged_outstanding() > 0)
                    }
                    Workload::Trace(trace) => {
                        drained = net.is_drained();
                        !trace.is_exhausted() || !drained
                    }
                };
                if !work_left {
                    break RunOutcome::Completed;
                }
                if net.cycle() >= bounds.max_cycles {
                    break RunOutcome::BudgetExhausted;
                }
            }

            // Dead-air fast-forward: a drained engine stepping toward
            // the next trace burst does provably nothing per cycle
            // (replay uses no RNG), so jump the clock — as far as the
            // engine's next wheel event and `Boundaries::next_after`
            // allow, which keeps the skip bit-identical to stepping.
            if let (true, Workload::Trace(trace)) = (drained, &workload) {
                if let Some(next) = trace.next_cycle() {
                    net.skip_idle_cycles(bounds.next_after(net.cycle(), next));
                }
            }

            let mut untagged = 0;
            let budget = if measuring {
                &mut tagged_budget
            } else {
                &mut untagged
            };
            workload.inject(&mut net, &nodes, budget);
            net.step();
            let cycle = net.cycle();

            if let RunPhase::Warmup { done } = &mut phase {
                *done += 1;
            } else {
                if let Some(p) = prober.as_mut() {
                    if bounds.due(Periodic::Probe, cycle) {
                        p.record(cycle, &net.node_states());
                    }
                }
                if let Some(kind) = net.check_stall(self.watchdog) {
                    break RunOutcome::Deadlocked(net.stall_diagnostics(kind, self.watchdog));
                }
                if bounds.due(Periodic::Backlog, cycle) {
                    backlog_samples.push(net.source_backlog());
                    if diverging(&backlog_samples, nodes.len()) {
                        break RunOutcome::Saturated;
                    }
                }
                if bounds.due(Periodic::Audit, cycle) {
                    let violations = audit(&net, &mut auditor);
                    if !violations.is_empty() {
                        break RunOutcome::Corrupted { violations, cycle };
                    }
                }
            }
            if bounds.due(Periodic::Checkpoint, cycle) {
                let (rng, traffic_cursors, trace_cursor) = workload.cursors();
                let mut w = ByteWriter::from_vec(std::mem::take(&mut image));
                net.snapshot_into(&mut w);
                let ck = RunCheckpoint {
                    phase,
                    cycle,
                    measure_start,
                    tagged_budget,
                    backlog_samples: backlog_samples.clone(),
                    rng,
                    traffic_cursors,
                    trace_cursor,
                    auditor_energy: auditor.baseline(),
                    net: w.into_vec(),
                };
                if let Some(h) = hook.as_mut() {
                    if h.on_checkpoint(&ck) == RunControl::Stop {
                        return Ok(RunResult::Aborted(Box::new(ck)));
                    }
                }
                image = ck.net;
            }
        };

        // One final audit at run end, whatever the cycle stride: a
        // corruption that appeared after the last periodic check must
        // not escape into a published record.
        if self.audit_every > 0 && !matches!(outcome, RunOutcome::Corrupted { .. }) {
            let violations = audit(&net, &mut auditor);
            if !violations.is_empty() {
                let cycle = net.cycle();
                outcome = RunOutcome::Corrupted { violations, cycle };
            }
        }
        if outcome == RunOutcome::Completed && net.packets_dropped() > 0 {
            outcome = RunOutcome::Faulted {
                delivered: net.packets_delivered(),
                dropped: net.packets_dropped(),
            };
        }

        // For a deadlocked run, average power over the live portion of
        // the window (a frozen network dissipates no dynamic power and
        // would dilute the plateau the paper reports past saturation).
        let measured_cycles = if matches!(outcome, RunOutcome::Deadlocked(_)) {
            net.last_progress_cycle()
                .saturating_sub(measure_start)
                .max(1)
        } else {
            net.cycle() - measure_start
        };

        let energy: Vec<[Joules; 5]> = (0..nodes.len())
            .map(|n| Component::ALL.map(|c| net.node_energy(n, c)))
            .collect();
        let link_static_per_node =
            self.config.link_model().static_power() * self.config.links_per_node() as f64;
        let link_flits: Vec<Vec<u64>> = (0..nodes.len())
            .map(|n| (0..ports).map(|p| net.link_flits(n, p)).collect())
            .collect();

        // Freeze what the observer collected: one final probe sample at
        // run end (whatever the stride), then the metrics snapshot,
        // probe rows and completed spans travel on the report.
        let observations = net.take_obs().zip(prober).map(|(obs, mut p)| {
            let mut observations = obs.into_observations(p.sample_every());
            p.record(net.cycle(), &net.node_states());
            observations.probes = p.into_rows();
            observations
        });

        let mut report = Report::new(
            net.stats_merged(),
            energy,
            measured_cycles.max(1),
            self.config.f_clk,
            link_static_per_node,
            self.config.zero_load_latency(),
            outcome,
            offered_rate,
        )
        .with_link_flits(link_flits)
        .with_router_leakage(router_leakage);
        if let Some(observations) = observations {
            report = report.with_observations(observations);
        }
        Ok(RunResult::Finished(Box::new(report)))
    }
}

/// What feeds packets into a run each cycle.
enum Workload {
    /// A seeded synthetic pattern drawing its RNG every cycle.
    Synthetic {
        pattern: TrafficPattern,
        rng: StdRng,
    },
    /// A recorded trace replayed at its absolute cycles.
    Trace(TraceTraffic),
}

impl Workload {
    /// Offered load in packets/cycle/node.
    fn offered_rate(&self, nodes: usize) -> f64 {
        match self {
            Workload::Synthetic { pattern, .. } => pattern.total_injection_rate() / nodes as f64,
            Workload::Trace(trace) => {
                let span = trace.events().last().map(|e| e.cycle + 1).unwrap_or(1);
                trace.events().len() as f64 / (span as f64 * nodes as f64)
            }
        }
    }

    /// Enqueues this cycle's packets, tagging them while
    /// `tagged_budget` lasts.
    fn inject(&mut self, net: &mut ShardedNetwork, nodes: &[NodeId], tagged_budget: &mut u64) {
        let cycle = net.cycle();
        let mut enqueue = |src, dst| {
            let tag = *tagged_budget > 0;
            if tag {
                *tagged_budget -= 1;
            }
            net.enqueue_packet(src, dst, tag);
        };
        match self {
            Workload::Synthetic { pattern, rng } => {
                for &node in nodes {
                    if pattern.should_inject(node, rng) {
                        if let Some(dst) = pattern.destination(node, rng) {
                            enqueue(node, dst);
                        }
                    }
                }
            }
            Workload::Trace(trace) => {
                for (src, dst) in trace.injections_at(cycle) {
                    enqueue(src, dst);
                }
            }
        }
    }

    /// The resumable position as `RunCheckpoint`'s `(rng,
    /// traffic_cursors, trace_cursor)`; the fields the other workload
    /// kind owns stay zero/empty.
    fn cursors(&self) -> ([u64; 4], Vec<usize>, usize) {
        match self {
            Workload::Synthetic { pattern, rng } => (rng.state(), pattern.cursors().to_vec(), 0),
            Workload::Trace(trace) => ([0; 4], Vec::new(), trace.position()),
        }
    }

    /// Moves this workload to the position `ck` recorded.
    fn restore(&mut self, ck: &RunCheckpoint) -> Result<(), SnapshotError> {
        match self {
            Workload::Synthetic { pattern, rng } => {
                if !pattern.restore_cursors(&ck.traffic_cursors) {
                    return Err(SnapshotError::Mismatch("traffic cursors"));
                }
                *rng = StdRng::from_state(ck.rng);
            }
            Workload::Trace(trace) => {
                if ck.phase != RunPhase::Measure {
                    return Err(SnapshotError::Mismatch("trace checkpoint phase"));
                }
                if !trace.seek(ck.trace_cursor) {
                    return Err(SnapshotError::Mismatch("trace cursor"));
                }
            }
        }
        Ok(())
    }
}

/// The periodic actions of a run, each on its own cycle stride.
#[derive(Debug, Clone, Copy)]
enum Periodic {
    /// Observer probe sample.
    Probe,
    /// Invariant audit.
    Audit,
    /// Checkpoint capture offered to the hook.
    Checkpoint,
    /// Source-backlog sample for saturation divergence (the watchdog
    /// window).
    Backlog,
}

/// Every cycle boundary a run must not step or skip past: the stride
/// of each [`Periodic`] action (`0` = off) and the cycle budget.
#[derive(Debug, Clone, Copy)]
struct Boundaries {
    /// Indexed by `Periodic as usize`.
    strides: [u64; 4],
    max_cycles: u64,
}

impl Boundaries {
    /// Whether `kind` fires at (post-step) `cycle`.
    fn due(&self, kind: Periodic, cycle: u64) -> bool {
        let stride = self.strides[kind as usize];
        stride > 0 && cycle.is_multiple_of(stride)
    }

    /// The farthest an idle skip from `cycle` toward the workload's
    /// next event at `event` may jump: never past the budget, and never
    /// eliding a firing stepping would have produced — the post-step
    /// cycles in the gap are `cycle + 1 ..= target`, so each active
    /// stride clamps the target to the last cycle before its next
    /// multiple strictly after `cycle`.
    fn next_after(&self, cycle: u64, event: u64) -> u64 {
        self.strides
            .iter()
            .filter(|&&s| s > 0)
            .map(|&s| (cycle + 1).div_ceil(s) * s - 1)
            .fold(event.min(self.max_cycles), u64::min)
    }
}

/// True when the last [`BACKLOG_SAMPLES`] window samples grow strictly
/// and by at least two packets per node overall: the offered load is
/// above capacity and the backlog diverges.
fn diverging(samples: &[usize], nodes: usize) -> bool {
    samples.len() >= BACKLOG_SAMPLES && {
        let recent = &samples[samples.len() - BACKLOG_SAMPLES..];
        recent.windows(2).all(|w| w[1] > w[0])
            && recent[BACKLOG_SAMPLES - 1] - recent[0] >= 2 * nodes
    }
}

/// Every shard's local invariants plus whole-network flit conservation
/// (mailbox flits included), with the energy-monotonicity check applied
/// to the deterministically summed total.
fn audit(net: &ShardedNetwork, auditor: &mut InvariantAuditor) -> Vec<AuditViolation> {
    let mut violations = net.audit();
    auditor.check_energy(net.total_energy_j(), &mut violations);
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use orion_net::Topology;

    fn quick(e: Experiment) -> Report {
        e.warmup(200)
            .sample_packets(300)
            .max_cycles(100_000)
            .run()
            .expect("valid config")
    }

    #[test]
    fn low_load_run_completes_near_zero_load_latency() {
        let r = quick(Experiment::new(presets::vc16_onchip()).injection_rate(0.02));
        assert_eq!(r.outcome(), &RunOutcome::Completed);
        assert!(!r.is_saturated());
        let t0 = r.zero_load_latency();
        assert!(
            r.avg_latency() < 1.5 * t0,
            "latency {} vs zero-load {t0}",
            r.avg_latency()
        );
        assert!(r.total_power().0 > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let r = quick(
                Experiment::new(presets::vc16_onchip())
                    .injection_rate(0.05)
                    .seed(seed),
            );
            (r.avg_latency(), r.total_power().0)
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn power_rises_with_load() {
        let lo = quick(Experiment::new(presets::vc16_onchip()).injection_rate(0.02));
        let hi = quick(Experiment::new(presets::vc16_onchip()).injection_rate(0.08));
        assert!(hi.total_power().0 > lo.total_power().0);
    }

    #[test]
    fn broadcast_workload_runs() {
        let topo = Topology::torus(&[4, 4]).unwrap();
        let src = topo.node_at(&[1, 2]);
        let pattern = TrafficPattern::broadcast(&topo, src, 0.2).unwrap();
        let r = quick(Experiment::new(presets::vc16_onchip()).workload(pattern));
        assert_eq!(r.outcome(), &RunOutcome::Completed);
        // Source node burns the most power (Fig. 6b).
        let map = r.power_map();
        let max_node = (0..16).max_by(|&a, &b| map[a].0.partial_cmp(&map[b].0).unwrap());
        assert_eq!(max_node, Some(src.0));
    }

    #[test]
    fn zero_rate_returns_empty_sample() {
        let r = Experiment::new(presets::vc16_onchip())
            .injection_rate(0.0)
            .warmup(50)
            .run()
            .unwrap();
        assert_eq!(r.outcome(), &RunOutcome::Completed);
        assert_eq!(r.stats().sample_count(), 0);
    }

    #[test]
    #[allow(deprecated)]
    fn cycle_budget_bounds_saturated_runs() {
        // Far beyond saturation with a tiny budget: must return, marked
        // incomplete/saturated. With the watchdog disabled this is the
        // legacy budget-only path and must classify as BudgetExhausted.
        let r = Experiment::new(presets::wh64_onchip())
            .injection_rate(0.5)
            .warmup(100)
            .sample_packets(5000)
            .max_cycles(2000)
            .watchdog_cycles(0)
            .run()
            .unwrap();
        assert!(!r.completed(), "deprecated shim still reports unfinished");
        assert!(r.is_saturated());
        assert_eq!(r.outcome(), &RunOutcome::BudgetExhausted);
    }

    #[test]
    fn watchdog_classifies_wormhole_deadlock_with_diagnostics() {
        // The same deep-saturation wormhole torus with the watchdog on:
        // the run ends as Deadlocked (or Saturated if detection races),
        // never by waiting out the budget.
        let r = Experiment::new(presets::wh64_onchip())
            .injection_rate(0.5)
            .warmup(100)
            .sample_packets(5000)
            .max_cycles(1_000_000)
            .watchdog_cycles(500)
            .run()
            .unwrap();
        match r.outcome() {
            RunOutcome::Deadlocked(diag) => {
                assert!(!diag.is_empty(), "diagnostics must list stalled VCs");
                assert!(diag.cycle < 100_000, "fired at {}", diag.cycle);
                assert!(diag.flits_in_network > 0);
            }
            RunOutcome::Saturated => {}
            other => panic!("expected early termination, got {other:?}"),
        }
        assert!(r.is_saturated());
    }

    #[test]
    fn backlog_divergence_reports_saturation_without_deadlock() {
        // Dateline VC classes remove the deadlock cycle, so deep
        // overload shows up as pure saturation: backlog divergence.
        let cfg = presets::vc16_onchip().vc_discipline(orion_sim::VcDiscipline::Dateline);
        let r = Experiment::new(cfg)
            .injection_rate(0.4)
            .warmup(100)
            .sample_packets(5000)
            .max_cycles(200_000)
            .watchdog_cycles(500)
            .run()
            .unwrap();
        assert_eq!(r.outcome(), &RunOutcome::Saturated);
        assert!(r.is_saturated());
        assert!(
            r.measured_cycles() < 100_000,
            "diverging backlog must stop the run early, ran {}",
            r.measured_cycles()
        );
    }

    #[test]
    fn faulted_run_accounts_drops_and_detours() {
        use orion_net::{FaultConfig, FaultSchedule};
        let cfg = presets::vc16_onchip();
        let schedule = FaultSchedule::generate(
            &cfg.topology,
            &FaultConfig {
                seed: 9,
                permanent_links: 6,
                // Tiny horizon: every permanent fault starts at cycle 0,
                // so even this short run routes around dead links.
                horizon: 1,
                ..FaultConfig::default()
            },
        );
        let r = Experiment::new(cfg)
            .injection_rate(0.03)
            .fault_schedule(schedule)
            .warmup(200)
            .sample_packets(300)
            .max_cycles(100_000)
            .run()
            .unwrap();
        match r.outcome() {
            RunOutcome::Faulted { delivered, dropped } => {
                assert_eq!(*dropped, r.stats().packets_dropped);
                assert_eq!(*delivered, r.stats().packets_delivered);
                assert!(*dropped > 0 && *delivered > 0);
            }
            RunOutcome::Completed => {
                // Legal when every injected packet found a detour.
                assert_eq!(r.stats().packets_dropped, 0);
                assert!(r.stats().packets_detoured > 0, "6 dead links must detour");
            }
            other => panic!("fault run must degrade gracefully, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_rate_is_a_typed_error_not_a_panic() {
        for rate in [-0.5, 1.5] {
            match Experiment::new(presets::vc16_onchip())
                .injection_rate(rate)
                .run()
            {
                Err(crate::ConfigError::InvalidRate(r)) => assert_eq!(r, rate),
                other => panic!("expected InvalidRate({rate}), got {other:?}"),
            }
        }
    }

    #[test]
    fn channel_loads_identify_broadcast_hot_links() {
        use orion_net::{Topology, TrafficPattern};
        let topo = Topology::torus(&[4, 4]).unwrap();
        let src = topo.node_at(&[1, 2]);
        let r = quick(
            Experiment::new(presets::vc16_onchip())
                .workload(TrafficPattern::broadcast(&topo, src, 0.2).unwrap()),
        );
        let (node, port, load) = r.max_channel_load().expect("stats collected");
        assert!(load > 0.0);
        // The hottest channel leaves the broadcasting node (port 3 =
        // d1+, the y-first first hop).
        assert_eq!(node, src.0, "hot channel at the source");
        assert!(port >= 1, "a network port, not ejection");
        // Local port never carries link flits.
        assert_eq!(r.channel_load(src.0, 0), 0.0);
    }

    #[test]
    fn trace_driven_experiment_measures_whole_replay() {
        use orion_net::{TraceEvent, TraceTraffic};
        let events: Vec<TraceEvent> = (0..200u64)
            .map(|i| TraceEvent {
                cycle: i * 2,
                src: orion_net::NodeId((i % 16) as usize),
                dst: orion_net::NodeId(((i + 5) % 16) as usize),
            })
            .collect();
        let r = Experiment::new(presets::vc16_onchip())
            .trace(TraceTraffic::new(events))
            .max_cycles(50_000)
            .run()
            .expect("valid config");
        assert_eq!(r.outcome(), &RunOutcome::Completed);
        assert_eq!(r.stats().packets_delivered, 200);
        assert!(r.total_power().0 > 0.0);
        assert!(r.offered_rate() > 0.0);
    }

    #[test]
    fn leakage_reported_separately_from_dynamic_power() {
        let r = quick(Experiment::new(presets::vc16_onchip()).injection_rate(0.05));
        assert!(r.router_leakage_per_node().0 > 0.0);
        let with = r.total_power_with_leakage().0;
        let without = r.total_power().0;
        assert!((with - without - 16.0 * r.router_leakage_per_node().0).abs() < 1e-9);
    }

    #[test]
    fn audited_run_is_bit_identical_to_unaudited() {
        let run = |audit_every: u64| {
            let r = quick(
                Experiment::new(presets::vc16_onchip())
                    .injection_rate(0.05)
                    .seed(11)
                    .audit_every(audit_every),
            );
            (
                r.avg_latency().to_bits(),
                r.total_power().0.to_bits(),
                r.measured_cycles(),
                r.stats().packets_delivered,
            )
        };
        let unaudited = run(0);
        assert_eq!(run(1), unaudited, "auditing every cycle changes nothing");
        assert_eq!(run(100), unaudited);
    }

    #[test]
    fn audited_healthy_run_reports_completed_not_corrupted() {
        let r = quick(
            Experiment::new(presets::vc16_onchip())
                .injection_rate(0.05)
                .audit_every(50),
        );
        assert_eq!(r.outcome(), &RunOutcome::Completed);
        assert_eq!(r.outcome().audit_violations(), None);
    }

    #[test]
    fn audited_faulted_run_keeps_its_classification() {
        // Drops are legitimate accounting, not corruption: the auditor
        // must not misread fault-dropped flits as a conservation leak.
        use orion_net::{FaultConfig, FaultSchedule};
        let cfg = presets::vc16_onchip();
        let schedule = FaultSchedule::generate(
            &cfg.topology,
            &FaultConfig {
                seed: 9,
                permanent_links: 6,
                horizon: 1,
                ..FaultConfig::default()
            },
        );
        let r = Experiment::new(cfg)
            .injection_rate(0.03)
            .fault_schedule(schedule)
            .warmup(200)
            .sample_packets(300)
            .max_cycles(100_000)
            .audit_every(25)
            .run()
            .unwrap();
        assert!(
            matches!(
                r.outcome(),
                RunOutcome::Faulted { .. } | RunOutcome::Completed
            ),
            "got {:?}",
            r.outcome()
        );
    }

    #[test]
    fn offered_rate_reported() {
        let r = quick(Experiment::new(presets::vc16_onchip()).injection_rate(0.07));
        assert!((r.offered_rate() - 0.07).abs() < 1e-12);
    }

    #[test]
    fn observed_run_is_bit_identical_to_unobserved() {
        let run = |observe: bool| {
            let mut e = Experiment::new(presets::vc16_onchip())
                .injection_rate(0.05)
                .seed(11);
            if observe {
                e = e.observe(ObserveOptions {
                    sample_every: 10,
                    trace_packets: 32,
                });
            }
            let r = quick(e);
            (
                r.avg_latency().to_bits(),
                r.total_power().0.to_bits(),
                r.measured_cycles(),
                r.stats().packets_delivered,
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn observations_land_on_the_report() {
        let r = quick(
            Experiment::new(presets::vc16_onchip())
                .injection_rate(0.05)
                .observe(ObserveOptions {
                    sample_every: 25,
                    trace_packets: 16,
                }),
        );
        let obs = r.observations().expect("observer was attached");
        assert_eq!(obs.sample_every, 25);
        // Metrics mirror the run's own statistics.
        let delivered = obs
            .metrics
            .counters
            .iter()
            .find(|(k, _)| k == orion_obs::keys::PACKETS_DELIVERED)
            .map(|(_, v)| *v);
        assert_eq!(delivered, Some(r.stats().packets_delivered));
        // Probe rows: one per node per sample, cycles on the stride,
        // final cumulative energy summing to the report's total.
        assert!(!obs.probes.is_empty());
        assert!(obs.probes.len().is_multiple_of(16), "16 nodes per sample");
        let last_cycle = obs.probes.last().unwrap().cycle;
        let final_energy: f64 = obs
            .probes
            .iter()
            .filter(|p| p.cycle == last_cycle)
            .map(|p| p.total_energy_j())
            .sum();
        let ledger_energy: f64 = (0..16)
            .flat_map(|n| Component::ALL.iter().map(move |&c| (n, c)))
            .map(|(n, c)| r.node_component_energy(n, c).0)
            .sum();
        assert!((final_energy - ledger_energy).abs() <= 1e-12 * ledger_energy.abs());
        // Spans: bounded by the ring, complete, with latency breakdown.
        assert!(!obs.spans.is_empty());
        assert!(obs.spans.len() <= 16);
        for span in &obs.spans {
            assert!(span.ejected_at.is_some());
            assert!(span.queuing_cycles().is_some());
        }
        // An unobserved run reports no observations.
        let plain = quick(Experiment::new(presets::vc16_onchip()).injection_rate(0.05));
        assert!(plain.observations().is_none());
    }

    #[test]
    fn broadcast_probe_identifies_the_fig6b_hotspot() {
        // The acceptance shape of the observability subsystem: a VC64
        // broadcast from (1,2) at 0.2 pkt/cycle, probed per node, must
        // show the source node strictly above the mean per-node energy
        // (the Fig. 6b asymmetry).
        let topo = Topology::torus(&[4, 4]).unwrap();
        let src = topo.node_at(&[1, 2]);
        let pattern = TrafficPattern::broadcast(&topo, src, 0.2).unwrap();
        let r = quick(
            Experiment::new(presets::vc64_onchip())
                .workload(pattern)
                .observe(ObserveOptions::default()),
        );
        let obs = r.observations().expect("observer attached");
        let last_cycle = obs.probes.last().expect("probe rows").cycle;
        let energies: Vec<f64> = obs
            .probes
            .iter()
            .filter(|p| p.cycle == last_cycle)
            .map(|p| p.total_energy_j())
            .collect();
        assert_eq!(energies.len(), 16);
        let mean = energies.iter().sum::<f64>() / energies.len() as f64;
        assert!(
            energies[src.0] > mean,
            "source node energy {} must exceed the mean {mean}",
            energies[src.0]
        );
    }

    /// Test hook: records every checkpoint, optionally stopping the
    /// run at the first checkpoint taken at or past `stop_at`.
    struct CollectHook {
        every: u64,
        stop_at: Option<u64>,
        checkpoints: Vec<RunCheckpoint>,
    }

    impl CollectHook {
        fn new(every: u64, stop_at: Option<u64>) -> CollectHook {
            CollectHook {
                every,
                stop_at,
                checkpoints: Vec::new(),
            }
        }
    }

    impl RunHook for CollectHook {
        fn every(&self) -> u64 {
            self.every
        }
        fn on_checkpoint(&mut self, ck: &RunCheckpoint) -> RunControl {
            self.checkpoints.push(ck.clone());
            match self.stop_at {
                Some(c) if ck.cycle >= c => RunControl::Stop,
                _ => RunControl::Continue,
            }
        }
    }

    fn fingerprint(r: &Report) -> (u64, u64, u64, u64, Vec<u64>) {
        (
            r.avg_latency().to_bits(),
            r.total_power().0.to_bits(),
            r.measured_cycles(),
            r.stats().packets_delivered,
            r.stats().latencies().to_vec(),
        )
    }

    fn ckpt_experiment() -> Experiment {
        Experiment::new(presets::vc16_onchip())
            .injection_rate(0.05)
            .seed(11)
            .warmup(200)
            .sample_packets(300)
            .max_cycles(100_000)
    }

    #[test]
    fn hooked_run_is_bit_identical_to_plain_run() {
        let baseline = ckpt_experiment().run().unwrap();
        let mut hook = CollectHook::new(50, None);
        let RunResult::Finished(hooked) = ckpt_experiment().run_with_hook(&mut hook, None).unwrap()
        else {
            panic!("hook never stops, run must finish")
        };
        assert_eq!(fingerprint(&hooked), fingerprint(&baseline));
        assert!(
            hook.checkpoints.len() > 5,
            "a ~{}-cycle run on a 50-cycle stride takes checkpoints",
            hooked.measured_cycles()
        );

        // Every boundary kind at once on a replay with an idle hole:
        // audit and checkpoint strides clamp the skip, and a budget
        // that divides by neither ends it either past the trace (7777)
        // or inside the hole (2503). The report must not notice.
        for max_cycles in [7777, 2503] {
            let replay = || gapped_trace_experiment(5000).max_cycles(max_cycles);
            let plain = replay().run().unwrap();
            let mut hook = CollectHook::new(53, None);
            let RunResult::Finished(busy) = replay()
                .audit_every(37)
                .run_with_hook(&mut hook, None)
                .unwrap()
            else {
                panic!("hook never stops, run must finish")
            };
            assert_eq!(fingerprint(&busy), fingerprint(&plain));
            assert_eq!(busy.outcome(), plain.outcome());
            assert_eq!(
                hook.checkpoints.len() as u64,
                plain.measured_cycles() / 53,
                "one checkpoint per stride boundary, skipped or stepped"
            );
        }
    }

    /// Two 40-packet bursts `hole` cycles apart: the network drains
    /// and sits idle in between, far longer than the watchdog window.
    fn gapped_trace_experiment(hole: u64) -> Experiment {
        use orion_net::{TraceEvent, TraceTraffic};
        let events: Vec<TraceEvent> = (0..80u64)
            .map(|i| TraceEvent {
                cycle: if i < 40 { i * 2 } else { hole + i * 2 },
                src: NodeId((i % 16) as usize),
                dst: NodeId(((i + 5) % 16) as usize),
            })
            .collect();
        Experiment::new(presets::vc16_onchip())
            .trace(TraceTraffic::new(events))
            .max_cycles(50_000)
    }

    #[test]
    fn first_packet_after_a_quiet_gap_is_not_a_livelock() {
        // About one packet per 6000 cycles network-wide: every packet
        // arrives after a silence longer than the default window.
        let r = Experiment::new(presets::vc64_onchip())
            .injection_rate(1e-5)
            .seed(7)
            .warmup(0)
            .sample_packets(5)
            .run()
            .unwrap();
        assert_eq!(r.outcome(), &RunOutcome::Completed);
        assert_eq!(r.stats().sample_count(), 5);
    }

    #[test]
    fn trace_with_a_long_hole_completes_at_any_shard_count_and_across_resume() {
        let baseline = gapped_trace_experiment(5000).run().unwrap();
        assert_eq!(baseline.outcome(), &RunOutcome::Completed);
        assert_eq!(baseline.stats().packets_delivered, 80);
        let sharded = gapped_trace_experiment(5000).shards(2).run().unwrap();
        assert_eq!(fingerprint(&sharded), fingerprint(&baseline));
        assert_eq!(sharded.outcome(), &RunOutcome::Completed);
        // Stop in the middle of the hole (drained, mid-skip) and resume:
        // the livelock clock travels in the network image.
        for shards in [1, 2] {
            let mut hook = CollectHook::new(1000, Some(3000));
            let RunResult::Aborted(ck) = gapped_trace_experiment(5000)
                .shards(shards)
                .run_with_hook(&mut hook, None)
                .unwrap()
            else {
                panic!("the replay reaches cycle 3000")
            };
            assert_eq!(ck.cycle, 3000);
            let ck = RunCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
            let mut quiet = CollectHook::new(1000, None);
            let RunResult::Finished(resumed) = gapped_trace_experiment(5000)
                .shards(shards)
                .run_with_hook(&mut quiet, Some(ck))
                .unwrap()
            else {
                panic!("resume runs to completion")
            };
            assert_eq!(fingerprint(&resumed), fingerprint(&baseline));
            assert_eq!(resumed.outcome(), &RunOutcome::Completed);
        }
    }

    #[test]
    fn boundaries_never_skip_past_a_due_stride() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..2000 {
            let mut strides = [0u64; 4];
            for s in &mut strides {
                // Off about a third of the time, else small or large.
                *s = match rng.gen_range(0..3u32) {
                    0 => 0,
                    1 => rng.gen_range(1..8u64),
                    _ => rng.gen_range(1..5000u64),
                };
            }
            let bounds = Boundaries {
                strides,
                max_cycles: rng.gen_range(1..20_000u64),
            };
            let cycle = rng.gen_range(0..10_000u64);
            let event = cycle + rng.gen_range(0..10_000u64);

            // `due` is `is_multiple_of` on the kind's own stride.
            for (kind, stride) in [
                Periodic::Probe,
                Periodic::Audit,
                Periodic::Checkpoint,
                Periodic::Backlog,
            ]
            .into_iter()
            .zip(strides)
            {
                assert_eq!(
                    bounds.due(kind, cycle),
                    stride > 0 && cycle.is_multiple_of(stride)
                );
            }

            // `next_after` is the minimum the run loop used to compute
            // by hand: event, budget, and one clamp per active stride.
            let target = bounds.next_after(cycle, event);
            let mut by_hand = event.min(bounds.max_cycles);
            for s in strides.into_iter().filter(|&s| s > 0) {
                by_hand = by_hand.min((cycle + 1).div_ceil(s) * s - 1);
            }
            assert_eq!(target, by_hand);
            // Skipping to `target` steps over no post-step cycle at
            // which anything is due...
            for post in cycle + 1..=target {
                for s in strides.into_iter().filter(|&s| s > 0) {
                    assert!(!post.is_multiple_of(s), "{post} elided (stride {s})");
                }
            }
            // ...and stops for a reason: the event, the budget, or a
            // stride due right after the next step.
            assert!(
                target == event
                    || target == bounds.max_cycles
                    || strides
                        .iter()
                        .any(|&s| s > 0 && (target + 1).is_multiple_of(s))
            );
        }
    }

    #[test]
    fn resumed_run_is_bit_identical_to_uninterrupted() {
        let baseline = ckpt_experiment().run().unwrap();
        // Kill the run mid-warm-up (cycle 100) and mid-measure (250,
        // 500) and resume each; every continuation must reproduce the
        // uninterrupted run byte for byte.
        for stop in [100u64, 250, 500] {
            let mut hook = CollectHook::new(50, Some(stop));
            match ckpt_experiment().run_with_hook(&mut hook, None).unwrap() {
                RunResult::Aborted(ck) => {
                    // Round-trip through bytes, as a persisted
                    // checkpoint would.
                    let ck = RunCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
                    let mut quiet = CollectHook::new(50, None);
                    let RunResult::Finished(resumed) = ckpt_experiment()
                        .run_with_hook(&mut quiet, Some(ck))
                        .unwrap()
                    else {
                        panic!("resume runs to completion")
                    };
                    assert_eq!(
                        fingerprint(&resumed),
                        fingerprint(&baseline),
                        "stopped at cycle {stop}"
                    );
                }
                RunResult::Finished(r) => {
                    // The run ended before reaching `stop`; still
                    // bit-identical.
                    assert_eq!(fingerprint(&r), fingerprint(&baseline));
                }
            }
        }
    }

    #[test]
    fn trace_replay_resumes_bit_identically() {
        use orion_net::{TraceEvent, TraceTraffic};
        let events: Vec<TraceEvent> = (0..200u64)
            .map(|i| TraceEvent {
                cycle: i * 2,
                src: NodeId((i % 16) as usize),
                dst: NodeId(((i + 5) % 16) as usize),
            })
            .collect();
        let exp = || {
            Experiment::new(presets::vc16_onchip())
                .trace(TraceTraffic::new(events.clone()))
                .max_cycles(50_000)
        };
        let baseline = exp().run().unwrap();
        let mut hook = CollectHook::new(40, Some(120));
        let RunResult::Aborted(ck) = exp().run_with_hook(&mut hook, None).unwrap() else {
            panic!("a 400-cycle replay reaches cycle 120")
        };
        assert!(ck.trace_cursor > 0, "mid-replay cursor captured");
        let ck = RunCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        let mut quiet = CollectHook::new(40, None);
        let RunResult::Finished(resumed) = exp().run_with_hook(&mut quiet, Some(ck)).unwrap()
        else {
            panic!("resume runs to completion")
        };
        assert_eq!(fingerprint(&resumed), fingerprint(&baseline));
    }

    #[test]
    fn corrupt_checkpoint_resume_is_a_typed_error() {
        let mut hook = CollectHook::new(50, Some(250));
        let RunResult::Aborted(ck) = ckpt_experiment().run_with_hook(&mut hook, None).unwrap()
        else {
            panic!("run reaches cycle 250")
        };
        // Tear the network image in half, as a crash mid-write would.
        // (Bit flips in raw data fields are the checkpoint *file*
        // checksum's job to catch; restore validates structure.)
        let mut bad = (*ck).clone();
        let mid = bad.net.len() / 2;
        bad.net.truncate(mid);
        let mut quiet = CollectHook::new(0, None);
        let err = ckpt_experiment()
            .run_with_hook(&mut quiet, Some(bad))
            .unwrap_err();
        assert!(matches!(err, RunError::Resume(_)), "got {err}");
        // An image behind a leading engine-kind tag, as 0.8.0 framed
        // it, reads as an unknown version — never as a shifted image.
        let mut old_frame = (*ck).clone();
        old_frame.net.insert(0, 1);
        let mut quiet = CollectHook::new(0, None);
        let err = ckpt_experiment()
            .run_with_hook(&mut quiet, Some(old_frame))
            .unwrap_err();
        assert!(
            matches!(err, RunError::Resume(SnapshotError::WrongVersion(_))),
            "got {err}"
        );
        // A checkpoint from a different experiment shape too.
        let mut quiet = CollectHook::new(0, None);
        let err = Experiment::new(presets::wh64_onchip())
            .run_with_hook(&mut quiet, Some((*ck).clone()))
            .unwrap_err();
        assert!(matches!(err, RunError::Resume(_)), "got {err}");
    }

    #[test]
    fn observed_checkpointing_is_rejected() {
        let mut hook = CollectHook::new(50, None);
        let err = ckpt_experiment()
            .observe(ObserveOptions::default())
            .run_with_hook(&mut hook, None)
            .unwrap_err();
        assert!(matches!(err, RunError::Unsupported(_)));
    }

    #[test]
    fn trace_replay_collects_observations_too() {
        use orion_net::{TraceEvent, TraceTraffic};
        let events: Vec<TraceEvent> = (0..50u64)
            .map(|i| TraceEvent {
                cycle: i * 3,
                src: NodeId((i % 16) as usize),
                dst: NodeId(((i + 5) % 16) as usize),
            })
            .collect();
        let r = Experiment::new(presets::vc16_onchip())
            .trace(TraceTraffic::new(events))
            .max_cycles(50_000)
            .observe(ObserveOptions {
                sample_every: 50,
                trace_packets: 8,
            })
            .run()
            .expect("valid config");
        let obs = r.observations().expect("observer attached");
        assert!(!obs.probes.is_empty());
        assert_eq!(obs.spans.len(), 8, "ring keeps the most recent spans");
    }
}
