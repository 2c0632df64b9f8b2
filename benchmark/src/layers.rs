//! Hand-driven, span-instrumented replicas of the library's run loops.
//!
//! The untraced workloads call the entry points a user calls
//! (`run_spec`, `Experiment::run`, ...). To see where that time goes
//! without touching the program, the traced run repeats the same work
//! through the public calls those entry points make — build, `new`,
//! inject, enqueue, step, skip — with a timer around each. Every
//! replica reports the simulated outcome so the caller can prove it
//! walked the same trajectory as the untraced run.

use std::time::{Duration, Instant};

use orion_core::NetworkConfig;
use orion_exp::Cell;
use orion_net::{NodeId, TraceTraffic};
use orion_sim::Network;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::span::{Busy, Tracer};

/// Consecutive growing backlog samples before the run loop declares
/// saturation (mirrors `orion_core::run`).
const BACKLOG_SAMPLES: usize = 4;

/// What a decomposed synthetic-traffic cell did and where its time went.
#[derive(Debug, Clone)]
pub struct CellTrace {
    pub build: Duration,
    pub new: Duration,
    /// Traffic generation alone (`should_inject` + `destination`).
    pub inject: Busy,
    pub enqueue: Busy,
    pub step: Busy,
    pub measured_cycles: u64,
    pub flits_delivered: u64,
    /// Flit-hops over links during the measured phase.
    pub link_flits: u64,
}

impl CellTrace {
    /// Time inside the timed library calls.
    pub fn accounted(&self) -> Duration {
        self.build + self.new + self.inject.total + self.enqueue.total + self.step.total
    }
}

fn total_link_flits(net: &Network, nodes: usize, ports: usize) -> u64 {
    (0..nodes)
        .flat_map(|n| (0..ports).map(move |p| (n, p)))
        .map(|(n, p)| net.link_flits(n, p))
        .sum()
}

/// Replays one grid cell through the calls `Experiment::run` makes:
/// warm-up, measurement reset, tagged sample, watchdog and
/// backlog-divergence exits included.
pub fn run_cell_decomposed(cell: &Cell, tracer: &mut Tracer) -> CellTrace {
    tracer.scope("core.cell", |t| {
        let config = cell.config();
        let build_start = Instant::now();
        let (spec, models) = t.scope("power.build", |_| {
            config.validate().expect("grid cells are valid");
            config.build().expect("grid cells build")
        });
        let build = build_start.elapsed();
        let new_start = Instant::now();
        let mut net = t.scope("sim.new", |_| Network::new(spec, models));
        let new = new_start.elapsed();

        let nodes: Vec<NodeId> = config.topology.nodes().collect();
        let mut pattern = cell
            .traffic
            .pattern(&config.topology, cell.rate)
            .expect("grid cells have valid rates");
        let mut rng = StdRng::seed_from_u64(cell.derived_seed());
        let (mut inject_all, mut enqueue, mut step) =
            (Busy::default(), Busy::default(), Busy::default());

        let mut inject = |net: &mut Network, rng: &mut StdRng, budget: &mut u64| {
            let begin = Instant::now();
            for &node in &nodes {
                if pattern.should_inject(node, rng) {
                    if let Some(dst) = pattern.destination(node, rng) {
                        let tag = *budget > 0;
                        if tag {
                            *budget -= 1;
                        }
                        enqueue.time(|| net.enqueue_packet(node, dst, tag));
                    }
                }
            }
            inject_all.add(begin, begin.elapsed());
        };

        let mut no_tags = 0u64;
        for _ in 0..cell.measure.warmup {
            inject(&mut net, &mut rng, &mut no_tags);
            step.time(|| net.step());
        }
        net.reset_measurement();
        let measure_start = net.cycle();

        let window = cell.measure.watchdog_cycles;
        let mut tagged_budget = cell.measure.sample_packets;
        let mut backlog: Vec<usize> = Vec::new();
        let mut stalled = false;
        while (tagged_budget > 0 || net.stats().tagged_outstanding() > 0)
            && net.cycle() < cell.measure.max_cycles
        {
            inject(&mut net, &mut rng, &mut tagged_budget);
            step.time(|| net.step());
            if window > 0 {
                if net.check_stall(window).is_some() {
                    stalled = true;
                    break;
                }
                if net.cycle().is_multiple_of(window) {
                    backlog.push(net.source_backlog());
                    if backlog.len() >= BACKLOG_SAMPLES {
                        let recent = &backlog[backlog.len() - BACKLOG_SAMPLES..];
                        if recent.windows(2).all(|w| w[1] > w[0])
                            && recent[BACKLOG_SAMPLES - 1] - recent[0] >= 2 * nodes.len()
                        {
                            break;
                        }
                    }
                }
            }
        }

        // Generation alone: the inject loop minus the enqueues inside it.
        let mut generation = inject_all;
        generation.total = inject_all.total.saturating_sub(enqueue.total);
        t.busy("net.inject", &generation);
        t.busy("sim.enqueue", &enqueue);
        t.busy("sim.step", &step);
        CellTrace {
            build,
            new,
            inject: generation,
            enqueue,
            step,
            // A stalled run is measured up to its last progress, as
            // the run loop reports it.
            measured_cycles: if stalled {
                net.last_progress_cycle()
                    .saturating_sub(measure_start)
                    .max(1)
            } else {
                net.cycle() - measure_start
            },
            flits_delivered: net.stats().flits_delivered,
            link_flits: total_link_flits(&net, nodes.len(), config.ports()),
        }
    })
}

/// What a decomposed trace replay did and where its time went.
#[derive(Debug, Clone)]
pub struct ReplayTrace {
    /// `next_cycle` + `injections_at`.
    pub events: Busy,
    pub step: Busy,
    pub skip: Busy,
    pub cycles: u64,
    pub cycles_skipped: u64,
    pub packets: u64,
    pub flits_delivered: u64,
    pub link_flits: u64,
    pub drained: bool,
}

/// Knobs `Experiment::trace` runs with unless told otherwise.
pub const REPLAY_TAGGED: u64 = 10_000;

/// Replays a trace through the calls `Experiment::run` makes in replay
/// mode: skip dead air while drained, inject what is due, step.
pub fn replay_decomposed(
    config: &NetworkConfig,
    mut trace: TraceTraffic,
    max_cycles: u64,
    watchdog: u64,
    tracer: &mut Tracer,
) -> ReplayTrace {
    tracer.scope("core.cell", |t| {
        let (spec, models) = t.scope("power.build", |_| {
            config.validate().expect("replay configuration is valid");
            config.build().expect("replay configuration builds")
        });
        let mut net = t.scope("sim.new", |_| Network::new(spec, models));

        let (mut events, mut enqueue, mut step, mut skip) = (
            Busy::default(),
            Busy::default(),
            Busy::default(),
            Busy::default(),
        );
        let mut tagged_budget = REPLAY_TAGGED;
        let (mut cycles_skipped, mut packets) = (0u64, 0u64);
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        while (!trace.is_exhausted() || !net.is_drained()) && net.cycle() < max_cycles {
            if net.is_drained() {
                if let Some(next) = events.time(|| trace.next_cycle()) {
                    let before = net.cycle();
                    skip.time(|| net.skip_idle_cycles(next.min(max_cycles)));
                    cycles_skipped += net.cycle() - before;
                }
            }
            events.time(|| {
                pairs.clear();
                pairs.extend(trace.injections_at(net.cycle()));
            });
            for &(src, dst) in &pairs {
                let tag = tagged_budget > 0;
                if tag {
                    tagged_budget -= 1;
                }
                enqueue.time(|| net.enqueue_packet(src, dst, tag));
                packets += 1;
            }
            step.time(|| net.step());
            if watchdog > 0 && net.check_stall(watchdog).is_some() {
                break;
            }
        }

        t.busy("net.trace_events", &events);
        t.busy("sim.enqueue", &enqueue);
        t.busy("sim.step", &step);
        t.busy("sim.skip", &skip);
        let nodes = config.topology.num_nodes();
        ReplayTrace {
            events,
            step,
            skip,
            cycles: net.cycle(),
            cycles_skipped,
            packets,
            flits_delivered: net.stats().flits_delivered,
            link_flits: total_link_flits(&net, nodes, config.ports()),
            drained: trace.is_exhausted() && net.is_drained(),
        }
    })
}
