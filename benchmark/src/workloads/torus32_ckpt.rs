//! `torus32_ckpt`: one big sharded cell with durable checkpoints.
//!
//! A VC64 32x32 torus under uniform 0.02 packets/cycle/node, warm-up
//! 500, 60 000 sample packets, `shards = min(nproc, 4)`, run through
//! `orion_ckpt::run_checkpointed` every 200 cycles. The only workload
//! where shard mailboxes and barriers, multi-megabyte snapshot encodes
//! with fsync'd atomic writes, and a working set larger than the cache
//! do most of the work.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use orion_ckpt::{run_checkpointed, CheckpointHook, CheckpointOptions};
use orion_core::{
    presets, Experiment, NetworkConfig, Report, RunCheckpoint, RunControl, RunHook, RunResult,
};
use orion_net::Topology;
use orion_shard::ShardedNetwork;

use super::{Env, Pass, Traced, Workload};
use crate::catalog::Metric;
use crate::digest::report_digest;
use crate::span::{Busy, Tracer};

pub struct Torus32Ckpt;

pub struct Ready {
    config: NetworkConfig,
    shards: usize,
    seed: u64,
    ckpt: PathBuf,
}

pub const RATE: f64 = 0.02;
pub const WARMUP: u64 = 500;
const SAMPLE_PACKETS: u64 = 60_000;
pub const EVERY: u64 = 200;
/// Owner stamp of the checkpoint files this workload writes.
const FINGERPRINT: u64 = 0x0074_3332_636b_7074;

pub fn torus32_vc64() -> NetworkConfig {
    let mut config = presets::vc64_onchip();
    config.topology = Topology::torus(&[32, 32]).expect("32x32 torus is valid");
    config
}

pub fn shard_count(nproc: usize) -> usize {
    nproc.clamp(1, 4)
}

/// The cell, sized by its tagged sample.
pub fn experiment(config: &NetworkConfig, seed: u64, shards: usize, sample: u64) -> Experiment {
    Experiment::new(config.clone())
        .injection_rate(RATE)
        .seed(seed)
        .warmup(WARMUP)
        .sample_packets(sample)
        .shards(shards)
}

/// A `RunHook` that times the checkpoint hook it wraps.
pub struct TimedHook {
    pub inner: CheckpointHook,
    pub busy: Busy,
}

impl RunHook for TimedHook {
    fn every(&self) -> u64 {
        self.inner.every()
    }

    fn on_checkpoint(&mut self, ck: &RunCheckpoint) -> RunControl {
        let start = Instant::now();
        let control = self.inner.on_checkpoint(ck);
        self.busy.add(start, start.elapsed());
        control
    }
}

/// What a checkpointed run, decomposed around its hook, measured.
pub struct CkptTrace {
    pub report: Report,
    pub wall: Duration,
    pub hook: Busy,
    pub writes: u64,
    pub write_errors: u64,
}

/// The same run `run_checkpointed` makes from a clean path, with the
/// persistence hook wrapped in a timer.
pub fn run_hooked(exp: Experiment, path: &std::path::Path, tracer: &mut Tracer) -> CkptTrace {
    let _ = std::fs::remove_file(path);
    tracer.scope("core.run", |t| {
        let start = Instant::now();
        let mut hook = TimedHook {
            inner: CheckpointHook::new(path, FINGERPRINT, EVERY, None),
            busy: Busy::default(),
        };
        let result = exp
            .run_with_hook(&mut hook, None)
            .expect("the cell is valid and resumes nothing");
        let _ = std::fs::remove_file(path);
        let wall = start.elapsed();
        t.busy("ckpt.hook", &hook.busy);
        let RunResult::Finished(report) = result else {
            panic!("nothing cancels this run");
        };
        CkptTrace {
            report: *report,
            wall,
            writes: hook.inner.written(),
            write_errors: hook.busy.count - hook.inner.written(),
            hook: hook.busy,
        }
    })
}

/// The checkpoint metrics of one hooked run beside the same run
/// without checkpoints.
pub fn ckpt_metrics(hooked: &CkptTrace, with_ckpt: Duration, without: Duration) -> Vec<Metric> {
    let n = hooked.hook.count as usize;
    vec![
        Metric::new(
            "ckpt.hook_frac",
            hooked.hook.total.as_secs_f64() / hooked.wall.as_secs_f64(),
            n,
        ),
        Metric::new(
            "ckpt.run_overhead_frac",
            (with_ckpt.as_secs_f64() - without.as_secs_f64()) / without.as_secs_f64(),
            1,
        ),
        Metric::new("ckpt.writes", hooked.writes as f64, n),
        Metric::new("ckpt.write_errors", hooked.write_errors as f64, n),
    ]
}

fn run(ready: &Ready) -> (Report, u64, Option<String>) {
    let options = CheckpointOptions {
        path: ready.ckpt.clone(),
        fingerprint: FINGERPRINT,
        every: EVERY,
        cancel: None,
    };
    let exp = experiment(&ready.config, ready.seed, ready.shards, SAMPLE_PACKETS);
    let out = run_checkpointed(exp, &options).expect("the cell is valid");
    let RunResult::Finished(report) = out.result else {
        panic!("nothing cancels this run");
    };
    (*report, out.checkpoints_written, out.ckpt_error)
}

impl Workload for Torus32Ckpt {
    const NAME: &'static str = "torus32_ckpt";
    type Ready = Ready;

    fn setup(env: &Env, round: usize) -> Ready {
        let config = torus32_vc64();
        config.validate().expect("the cell configuration is valid");
        let dir = env.scratch.join(format!("torus32-ckpt-{round}"));
        std::fs::create_dir_all(&dir).expect("scratch is writable");
        let shards = shard_count(env.nproc);
        // Build the sharded engine once and step it briefly, so the
        // first timed pass does not pay first-touch page faults alone.
        let (spec, models) = config.build().expect("the cell configuration builds");
        let mut net = ShardedNetwork::new(spec, models, shards);
        for _ in 0..20 {
            net.step();
        }
        std::hint::black_box(net.cycle());
        Ready {
            config,
            shards,
            seed: env.seed,
            ckpt: dir.join("cell.ckpt"),
        }
    }

    fn pass(_env: &Env, ready: &mut Ready) -> Pass {
        let _ = std::fs::remove_file(&ready.ckpt);
        let start = Instant::now();
        let (report, written, ckpt_error) = run(ready);
        let wall = start.elapsed();
        let mut pass = Pass {
            wall,
            sim_cycles: report.measured_cycles() + WARMUP,
            flits: report.stats().flits_delivered,
            cells: 1,
            ops_ms: vec![wall.as_secs_f64() * 1e3],
            attempted: 1,
            digest: report_digest(&report),
            ..Pass::default()
        };
        let expected = (report.measured_cycles() + WARMUP) / EVERY;
        if !report.outcome().is_completed() || ckpt_error.is_some() || written != expected {
            pass.fail(format!(
                "run ended {} with {written} of {expected} checkpoints written ({ckpt_error:?})",
                report.outcome()
            ));
        }
        pass
    }

    fn traced(_env: &Env, ready: &mut Ready, tracer: &mut Tracer) -> Traced {
        let mut out = Traced::default();
        let _ = std::fs::remove_file(&ready.ckpt);
        let reference_start = Instant::now();
        let (report, _, _) = run(ready);
        out.untraced = reference_start.elapsed();

        let traced_start = Instant::now();
        let (root, hooked) = tracer.scope_id("bench.pass", |t| {
            let exp = experiment(&ready.config, ready.seed, ready.shards, SAMPLE_PACKETS);
            run_hooked(exp, &ready.ckpt, t)
        });
        out.traced = traced_start.elapsed();
        out.roots.push(root);
        out.check(
            report_digest(&hooked.report) == report_digest(&report),
            || "the hooked run diverged from run_checkpointed".to_string(),
        );

        let plain_start = Instant::now();
        let plain = experiment(&ready.config, ready.seed, ready.shards, SAMPLE_PACKETS)
            .run()
            .expect("the cell is valid");
        let without = plain_start.elapsed();
        out.check(report_digest(&plain) == report_digest(&report), || {
            "checkpointing changed the run's statistics".to_string()
        });
        out.metrics = ckpt_metrics(&hooked, out.untraced, without);
        out
    }
}
