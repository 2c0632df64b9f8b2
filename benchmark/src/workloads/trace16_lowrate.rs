//! `trace16_lowrate`: a bursty trace replayed on a 16x16 torus.
//!
//! The benchmark generates the trace from `--seed` (69 bursts of 2 000
//! cycles of uniform 0.002 packets/cycle/node between 5-20 k-cycle
//! silences: a million cycles and 70 656 packets at every seed), writes
//! it with
//! `TraceTraffic::write_to`, reads it back with `read_from`, and replays
//! it on a VC64 16x16 torus through `Experiment::trace`. The network is
//! idle most of the time, so this is the sparse-stepping and
//! idle-skipping workload: the opposite use of `sim` from `fig5_sweep`.

use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use orion_core::{presets, Experiment, NetworkConfig, Report};
use orion_net::{Topology, TraceTraffic};

use super::{Env, Pass, Traced, Workload};
use crate::catalog::Metric;
use crate::digest::report_digest;
use crate::gen::{bursty_trace, BurstShape};
use crate::layers::{replay_decomposed, ReplayTrace};
use crate::span::Tracer;

pub struct Trace16LowRate;

pub struct Ready {
    config: NetworkConfig,
    trace: TraceTraffic,
}

const SHAPE: BurstShape = BurstShape {
    nodes: 256,
    rate: 0.002,
    bursts: 69,
    burst_cycles: 2_000,
    silence: (5_000, 20_000),
    span_cycles: 1_000_000,
};

/// Room for the trace plus its drain.
const MAX_CYCLES: u64 = 4_000_000;

/// The replay watchdog stays off: the livelock clock measures cycles
/// since the last delivery and would fire on the first packet after
/// every silence longer than its window.
const WATCHDOG: u64 = 0;

pub fn torus16_vc64() -> NetworkConfig {
    let mut config = presets::vc64_onchip();
    config.topology = Topology::torus(&[16, 16]).expect("16x16 torus is valid");
    config
}

/// Writes `trace` to `path` and reads it back, as a user with a trace
/// file on disk would.
pub fn through_a_file(trace: &TraceTraffic, path: &Path) -> TraceTraffic {
    let file = std::fs::File::create(path).expect("scratch is writable");
    let mut writer = BufWriter::new(file);
    trace.write_to(&mut writer).expect("scratch is writable");
    writer.flush().expect("scratch is writable");
    drop(writer);
    let file = std::fs::File::open(path).expect("the trace was just written");
    TraceTraffic::read_from(BufReader::new(file)).expect("write_to output parses")
}

fn replay(ready: &Ready) -> Report {
    Experiment::new(ready.config.clone())
        .trace(ready.trace.clone())
        .max_cycles(MAX_CYCLES)
        .watchdog_cycles(WATCHDOG)
        .run()
        .expect("the replay configuration is valid")
}

/// The per-layer metrics a decomposed replay yields, whatever its size.
pub fn replay_metrics(r: &ReplayTrace) -> Vec<Metric> {
    let stepped = r.step.count;
    vec![
        Metric::new(
            "net.trace_event_ns",
            r.events.total.as_nanos() as f64 / r.packets.max(1) as f64,
            r.packets as usize,
        ),
        Metric::new(
            "sim.step_ns.trace16",
            r.step.ns_per_call(),
            stepped as usize,
        ),
        Metric::new(
            "sim.step_ns_per_hop.trace16",
            r.step.total.as_nanos() as f64 / r.link_flits.max(1) as f64,
            r.link_flits as usize,
        ),
        Metric::new(
            "sim.skip_frac",
            r.cycles_skipped as f64 / r.cycles.max(1) as f64,
            r.cycles as usize,
        ),
        Metric::new("sim.skip_calls", r.skip.count as f64, r.skip.count as usize),
        Metric::new(
            "sim.cycles_skipped",
            r.cycles_skipped as f64,
            r.skip.count as usize,
        ),
    ]
}

impl Workload for Trace16LowRate {
    const NAME: &'static str = "trace16_lowrate";
    type Ready = Ready;

    fn setup(env: &Env, round: usize) -> Ready {
        let generated = bursty_trace(env.seed, &SHAPE);
        let path = env.scratch.join(format!("trace16-{round}.trace"));
        let trace = through_a_file(&generated, &path);
        assert_eq!(trace, generated, "the trace file round-trips");
        let config = torus16_vc64();
        config
            .validate()
            .expect("the replay configuration is valid");
        Ready { config, trace }
    }

    fn pass(_env: &Env, ready: &mut Ready) -> Pass {
        let start = Instant::now();
        let report = replay(ready);
        let wall = start.elapsed();
        let mut pass = Pass {
            wall,
            sim_cycles: report.measured_cycles(),
            flits: report.stats().flits_delivered,
            cells: 1,
            ops_ms: vec![wall.as_secs_f64() * 1e3],
            attempted: 1,
            digest: report_digest(&report),
            ..Pass::default()
        };
        let delivered_all = report.stats().packets_delivered == ready.trace.events().len() as u64;
        if !report.outcome().is_completed() || !delivered_all {
            pass.fail(format!(
                "replay ended {} with {} of {} packets delivered",
                report.outcome(),
                report.stats().packets_delivered,
                ready.trace.events().len()
            ));
        }
        pass
    }

    fn traced(_env: &Env, ready: &mut Ready, tracer: &mut Tracer) -> Traced {
        let mut out = Traced::default();
        let reference_start = Instant::now();
        let report = replay(ready);
        out.untraced = reference_start.elapsed();

        let traced_start = Instant::now();
        let (root, replayed) = tracer.scope_id("bench.pass", |t| {
            replay_decomposed(&ready.config, ready.trace.clone(), MAX_CYCLES, WATCHDOG, t)
        });
        out.traced = traced_start.elapsed();
        out.roots.push(root);
        out.check(
            replayed.drained
                && replayed.cycles == report.measured_cycles()
                && replayed.flits_delivered == report.stats().flits_delivered,
            || {
                format!(
                    "the decomposed replay diverged: {} cycles / {} flits vs {} / {}",
                    replayed.cycles,
                    replayed.flits_delivered,
                    report.measured_cycles(),
                    report.stats().flits_delivered
                )
            },
        );
        out.metrics = replay_metrics(&replayed);
        out
    }
}
