//! Durable-checkpoint behavior across shard counts. The owner
//! fingerprint is shard-agnostic, and so is the network image: a
//! checkpoint file written at one shard count resumes through
//! [`run_checkpointed`] at any other, from its own cycle, to the report
//! of the uninterrupted run — with invariant auditing on or off.

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
        // Past the 150-cycle warm-up, so an audited run has an energy
        // baseline to carry.
        200
    }
    fn on_checkpoint(&mut self, checkpoint: &RunCheckpoint) -> RunControl {
        self.taken = Some(checkpoint.clone());
        RunControl::Stop
    }
}

/// Saves the first checkpoint of a `written`-shard run under owner
/// `fingerprint`, resumes it through [`run_checkpointed`] at `resumed`
/// shards, and asserts a resume from the checkpoint's cycle to the
/// plain `resumed`-shard report, with auditing off and on.
fn assert_file_resumes_across_counts(written: usize, resumed: usize, fingerprint: u64) {
    for audit in [0, 40] {
        let path = temp(&format!("{written}-to-{resumed}-audit-{audit}"));
        let _ = fs::remove_file(&path);
        let mut stopper = StopAtFirst { taken: None };
        quick(written)
            .audit_every(audit)
            .run_with_hook(&mut stopper, None)
            .expect("valid");
        let ck = stopper.taken.expect("hook captured a checkpoint");
        save_checkpoint(&path, fingerprint, &ck).expect("save");

        let baseline = quick(resumed).audit_every(audit).run().expect("valid");
        let out = run_checkpointed(
            quick(resumed).audit_every(audit),
            &CheckpointOptions {
                path: path.clone(),
                fingerprint,
                every: 0,
                cancel: None,
            },
        )
        .expect("valid");
        let case = format!("written at {written}, resumed at {resumed}, audit {audit}");
        assert_eq!(out.resumed_from_cycle, Some(ck.cycle), "{case}");
        assert_eq!(out.resume_error, None, "{case}");
        assert_eq!(
            fingerprint_of(&out.result),
            (
                baseline.avg_latency().to_bits(),
                baseline.total_power().0.to_bits(),
                baseline.stats().packets_delivered,
            ),
            "{case}"
        );
        assert!(!path.exists(), "a finished run must GC its checkpoint");
    }
}

/// A checkpoint captured at `--shards 4` resumes at `--shards 1` and
/// `--shards 2` (this once asserted a cycle-0 replay: the image named
/// its shard count).
#[test]
fn foreign_shard_checkpoint_degrades_to_cycle_zero_replay() {
    assert_file_resumes_across_counts(4, 1, 7);
    assert_file_resumes_across_counts(4, 2, 7);
}

/// The mirror image: a single-engine checkpoint resumes under a
/// 4-shard run (this once asserted a cycle-0 replay too).
#[test]
fn mono_checkpoint_degrades_under_sharded_run() {
    assert_file_resumes_across_counts(1, 4, 9);
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
