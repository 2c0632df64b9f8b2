//! Durable-checkpoint behavior across shard counts. The owner
//! fingerprint is the first line of defense, but fingerprints collide
//! by design when a caller reuses one across engine settings — so the
//! network image's own identity (topology shape + shard
//! count) must catch a shard-count change, and [`run_checkpointed`]
//! must degrade that typed mismatch into a clean cycle-0 replay
//! rather than an error or silent corruption.

use orion_ckpt::{run_checkpointed, save_checkpoint, CheckpointOptions};
use orion_core::{presets, Experiment, RunCheckpoint, RunControl, RunHook, RunResult};
use std::fs;
use std::path::PathBuf;

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "orion-shard-fallback-{}-{tag}.ckpt",
        std::process::id()
    ))
}

fn quick(shards: usize) -> Experiment {
    Experiment::new(presets::vc16_onchip())
        .injection_rate(0.05)
        .seed(3)
        .warmup(150)
        .sample_packets(150)
        .max_cycles(100_000)
        .shards(shards)
}

fn fingerprint_of(result: &RunResult) -> (u64, u64, u64) {
    match result {
        RunResult::Finished(r) => (
            r.avg_latency().to_bits(),
            r.total_power().0.to_bits(),
            r.stats().packets_delivered,
        ),
        RunResult::Aborted(_) => panic!("expected a finished run"),
    }
}

struct StopAtFirst {
    taken: Option<RunCheckpoint>,
}

impl RunHook for StopAtFirst {
    fn every(&self) -> u64 {
        100
    }
    fn on_checkpoint(&mut self, checkpoint: &RunCheckpoint) -> RunControl {
        self.taken = Some(checkpoint.clone());
        RunControl::Stop
    }
}

/// A checkpoint captured at `--shards 4` restored at `--shards 1`
/// (same owner fingerprint, simulating a caller that changed engine
/// settings between process runs): the run must fall back to a clean
/// cycle-0 replay and still produce the exact single-engine report.
#[test]
fn foreign_shard_checkpoint_degrades_to_cycle_zero_replay() {
    let path = temp("foreign-shards");
    let _ = fs::remove_file(&path);

    // Persist a genuine mid-run 4-shard checkpoint under fingerprint 7.
    let mut stopper = StopAtFirst { taken: None };
    quick(4).run_with_hook(&mut stopper, None).expect("valid");
    let foreign = stopper.taken.expect("hook captured a checkpoint");
    save_checkpoint(&path, 7, &foreign).expect("save");

    let baseline = quick(1).run().expect("valid");
    let out = run_checkpointed(
        quick(1),
        &CheckpointOptions {
            path: path.clone(),
            fingerprint: 7,
            every: 0,
            cancel: None,
        },
    )
    .expect("fallback must not surface a resume error");
    assert_eq!(
        out.resumed_from_cycle, None,
        "a discarded foreign checkpoint must not report as a resume"
    );
    let got = fingerprint_of(&out.result);
    assert_eq!(
        got,
        (
            baseline.avg_latency().to_bits(),
            baseline.total_power().0.to_bits(),
            baseline.stats().packets_delivered,
        ),
        "cycle-0 fallback diverged from the plain run"
    );
    assert!(
        !path.exists(),
        "the mismatched checkpoint file must be discarded"
    );
}

/// The mirror-image restore: a single-engine checkpoint offered to a
/// sharded run likewise replays from cycle 0 and matches the plain
/// sharded report (which itself is bit-identical to the mono report).
#[test]
fn mono_checkpoint_degrades_under_sharded_run() {
    let path = temp("mono-into-sharded");
    let _ = fs::remove_file(&path);

    let mut stopper = StopAtFirst { taken: None };
    quick(1).run_with_hook(&mut stopper, None).expect("valid");
    save_checkpoint(&path, 9, &stopper.taken.expect("checkpoint")).expect("save");

    let baseline = quick(2).run().expect("valid");
    let out = run_checkpointed(
        quick(2),
        &CheckpointOptions {
            path,
            fingerprint: 9,
            every: 0,
            cancel: None,
        },
    )
    .expect("fallback must not surface a resume error");
    assert_eq!(out.resumed_from_cycle, None);
    assert_eq!(
        fingerprint_of(&out.result),
        (
            baseline.avg_latency().to_bits(),
            baseline.total_power().0.to_bits(),
            baseline.stats().packets_delivered,
        )
    );
}

/// Sharded runs themselves checkpoint and resume durably: a cancel
/// mid-run leaves a file behind, and a second [`run_checkpointed`]
/// resumes from it to a bit-identical finish.
#[test]
fn sharded_run_checkpoints_and_resumes_durably() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let path = temp("sharded-durable");
    let _ = fs::remove_file(&path);
    let baseline = quick(2).run().expect("valid");

    let cancel = Arc::new(AtomicBool::new(true));
    let out = run_checkpointed(
        quick(2),
        &CheckpointOptions {
            path: path.clone(),
            fingerprint: 21,
            every: 80,
            cancel: Some(cancel),
        },
    )
    .expect("valid");
    assert!(matches!(out.result, RunResult::Aborted(_)));
    assert!(path.exists(), "drain leaves the checkpoint behind");

    let out = run_checkpointed(
        quick(2),
        &CheckpointOptions {
            path: path.clone(),
            fingerprint: 21,
            every: 80,
            cancel: None,
        },
    )
    .expect("valid");
    assert_eq!(out.resumed_from_cycle, Some(80));
    assert_eq!(
        fingerprint_of(&out.result),
        (
            baseline.avg_latency().to_bits(),
            baseline.total_power().0.to_bits(),
            baseline.stats().packets_delivered,
        ),
        "sharded resume diverged from the uninterrupted run"
    );
    assert!(!path.exists(), "a finished run must GC its checkpoint");
}
