//! The checkpoint *policy*: periodic persistence, graceful-drain
//! cancellation, resume-or-replay, and garbage collection.
//!
//! [`run_checkpointed`] is what every execution layer (the cell
//! runner behind grids, searches and the daemon; `simulate` in the
//! CLI) calls instead of hand-rolling resume logic. Its contract:
//!
//! 1. A valid checkpoint at the given path resumes the run from its
//!    cycle — bit-identically, per the `orion-core` guarantee.
//! 2. *Any* defect in that file — torn write, bit flip, version skew,
//!    wrong owner, shape mismatch — degrades to a cycle-0 replay. A
//!    checkpoint can make a rerun faster; it can never make it wrong
//!    or make it fail.
//! 3. Each finished run deletes its checkpoint (GC); an aborted run
//!    (drain) leaves the latest one behind for the next process.
//! 4. Checkpoint-write failures are recorded, not fatal: losing a
//!    checkpoint loses restart time, not results.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use orion_core::{Experiment, RunCheckpoint, RunControl, RunError, RunHook, RunResult};

use crate::file::{load_checkpoint, save_checkpoint, CkptError};

/// A [`RunHook`] that persists each checkpoint to one file (atomic
/// replace, newest wins) and stops the run when a shared cancel flag
/// is raised — the mechanism behind graceful daemon drains.
#[derive(Debug)]
pub struct CheckpointHook {
    every: u64,
    path: PathBuf,
    fingerprint: u64,
    cancel: Option<Arc<AtomicBool>>,
    written: u64,
    last_error: Option<CkptError>,
}

impl CheckpointHook {
    /// Creates a hook persisting to `path` every `every` cycles,
    /// stamping files with `fingerprint`. A `cancel` flag, when
    /// provided and raised, stops the run at the next checkpoint
    /// boundary (after persisting it).
    pub fn new(
        path: &Path,
        fingerprint: u64,
        every: u64,
        cancel: Option<Arc<AtomicBool>>,
    ) -> CheckpointHook {
        CheckpointHook {
            every,
            path: path.to_path_buf(),
            fingerprint,
            cancel,
            written: 0,
            last_error: None,
        }
    }

    /// Checkpoints successfully persisted so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The most recent persistence failure, if any. Failures do not
    /// stop the run — they only cost restart time after a crash.
    pub fn last_error(&self) -> Option<&CkptError> {
        self.last_error.as_ref()
    }
}

impl RunHook for CheckpointHook {
    fn every(&self) -> u64 {
        self.every
    }

    fn on_checkpoint(&mut self, ck: &RunCheckpoint) -> RunControl {
        match save_checkpoint(&self.path, self.fingerprint, ck) {
            Ok(()) => self.written += 1,
            Err(e) => self.last_error = Some(e),
        }
        match &self.cancel {
            Some(flag) if flag.load(Ordering::SeqCst) => RunControl::Stop,
            _ => RunControl::Continue,
        }
    }
}

/// Knobs for [`run_checkpointed`].
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Where the checkpoint file lives (see
    /// [`checkpoint_path`](crate::file::checkpoint_path) for the
    /// cache-directory convention).
    pub path: PathBuf,
    /// Owner stamp — typically the cell fingerprint, or a hash of the
    /// experiment debug form for ad-hoc runs.
    pub fingerprint: u64,
    /// Cycle stride between checkpoints (0 = never persist; resume
    /// still works if a file exists).
    pub every: u64,
    /// Raised by a supervisor to stop the run at the next boundary.
    pub cancel: Option<Arc<AtomicBool>>,
}

/// What [`run_checkpointed`] did, beyond the run result itself.
#[derive(Debug)]
pub struct CheckpointedRun {
    /// How the run ended (finished report, or the drain checkpoint).
    pub result: RunResult,
    /// The cycle a valid checkpoint resumed from; `None` for a
    /// cycle-0 run (no file, or a corrupt one that was discarded).
    pub resumed_from_cycle: Option<u64>,
    /// Checkpoints successfully persisted during this run.
    pub checkpoints_written: u64,
    /// The last checkpoint-write failure, rendered (`None` when every
    /// write succeeded).
    pub ckpt_error: Option<String>,
    /// Why a file found at the path was not resumed — it failed to
    /// load, or the run rejected its contents — rendered. `None` when
    /// the resume succeeded or there was no file to resume.
    pub resume_error: Option<String>,
}

/// Runs `experiment` with durable checkpointing: resume from a valid
/// snapshot at `opts.path`, fall back to cycle 0 on any corruption or
/// mismatch, persist every `opts.every` cycles, delete the file once
/// the run finishes.
///
/// # Errors
///
/// [`RunError::Config`] for invalid experiments and
/// [`RunError::Unsupported`] for observed runs — the same conditions
/// a plain hooked run rejects. [`RunError::Resume`] never escapes: a
/// bad checkpoint triggers the cycle-0 fallback instead.
pub fn run_checkpointed(
    experiment: Experiment,
    opts: &CheckpointOptions,
) -> Result<CheckpointedRun, RunError> {
    let (resume, mut resume_error) = match load_checkpoint(&opts.path, opts.fingerprint) {
        Ok(ck) => (Some(ck), None),
        Err(CkptError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => (None, None),
        Err(e) => (None, Some(e.to_string())),
    };
    let resumed_from_cycle = resume.as_ref().map(|ck| ck.cycle);
    let mut hook = CheckpointHook::new(
        &opts.path,
        opts.fingerprint,
        opts.every,
        opts.cancel.clone(),
    );
    let attempt = experiment.clone().run_with_hook(&mut hook, resume);
    let (result, resumed_from_cycle, hook) = match attempt {
        // The file validated but the run rejected it (e.g. a stale
        // snapshot after the experiment shape changed under the same
        // fingerprint): discard and replay from cycle 0.
        Err(RunError::Resume(e)) if resumed_from_cycle.is_some() => {
            resume_error = Some(format!("checkpoint rejected ({e})"));
            let _ = std::fs::remove_file(&opts.path);
            let mut fresh = CheckpointHook::new(
                &opts.path,
                opts.fingerprint,
                opts.every,
                opts.cancel.clone(),
            );
            (experiment.run_with_hook(&mut fresh, None)?, None, fresh)
        }
        other => (other?, resumed_from_cycle, hook),
    };
    if matches!(result, RunResult::Finished(_)) {
        // GC: a finished run's checkpoint is debris. Best-effort — a
        // leftover is healed by the next cache compaction.
        let _ = std::fs::remove_file(&opts.path);
    }
    Ok(CheckpointedRun {
        result,
        resumed_from_cycle,
        checkpoints_written: hook.written(),
        ckpt_error: hook.last_error().map(|e| e.to_string()),
        resume_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_core::{presets, Experiment};
    use std::fs;

    fn temp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("orion-ckpt-hook-{}-{tag}.ckpt", std::process::id()))
    }

    fn quick() -> Experiment {
        Experiment::new(presets::vc16_onchip())
            .injection_rate(0.05)
            .seed(3)
            .warmup(200)
            .sample_packets(200)
            .max_cycles(100_000)
    }

    fn report_fingerprint(result: &RunResult) -> (u64, u64, u64) {
        match result {
            RunResult::Finished(r) => (
                r.avg_latency().to_bits(),
                r.total_power().0.to_bits(),
                r.stats().packets_delivered,
            ),
            RunResult::Aborted(_) => panic!("expected a finished run"),
        }
    }

    #[test]
    fn cancel_persists_then_resume_is_bit_identical() {
        let path = temp("drain");
        let _ = fs::remove_file(&path);
        let baseline = quick().run().unwrap();

        // Drain almost immediately: the first checkpoint stops the run.
        let cancel = Arc::new(AtomicBool::new(true));
        let out = run_checkpointed(
            quick(),
            &CheckpointOptions {
                path: path.clone(),
                fingerprint: 11,
                every: 64,
                cancel: Some(cancel),
            },
        )
        .unwrap();
        assert!(matches!(out.result, RunResult::Aborted(_)));
        assert_eq!(out.resume_error, None, "a missing file is not an error");
        assert_eq!(out.checkpoints_written, 1);
        assert!(path.exists(), "drain leaves the checkpoint behind");

        // A new "process" resumes and must agree with the baseline.
        let out = run_checkpointed(
            quick(),
            &CheckpointOptions {
                path: path.clone(),
                fingerprint: 11,
                every: 64,
                cancel: None,
            },
        )
        .unwrap();
        assert_eq!(out.resumed_from_cycle, Some(64));
        let got = report_fingerprint(&out.result);
        assert_eq!(
            got,
            (
                baseline.avg_latency().to_bits(),
                baseline.total_power().0.to_bits(),
                baseline.stats().packets_delivered
            )
        );
        assert!(!path.exists(), "finished run garbage-collects its file");
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_cycle_zero() {
        let path = temp("corrupt");
        let baseline = quick().run().unwrap();
        for corruption in ["garbage bytes", ""] {
            fs::write(&path, corruption).unwrap();
            let out = run_checkpointed(
                quick(),
                &CheckpointOptions {
                    path: path.clone(),
                    fingerprint: 11,
                    every: 0,
                    cancel: None,
                },
            )
            .unwrap();
            assert_eq!(out.resumed_from_cycle, None, "corrupt file is discarded");
            assert!(out.resume_error.is_some(), "and the reason is reported");
            let got = report_fingerprint(&out.result);
            assert_eq!(got.2, baseline.stats().packets_delivered);
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn foreign_checkpoint_falls_back_to_cycle_zero() {
        // A checkpoint owned by a different fingerprint is rejected at
        // the framing layer, before any payload parsing.
        let path = temp("foreign");
        let cancel = Arc::new(AtomicBool::new(true));
        run_checkpointed(
            quick(),
            &CheckpointOptions {
                path: path.clone(),
                fingerprint: 1,
                every: 64,
                cancel: Some(cancel),
            },
        )
        .unwrap();
        assert!(path.exists());
        let out = run_checkpointed(
            quick(),
            &CheckpointOptions {
                path: path.clone(),
                fingerprint: 2,
                every: 0,
                cancel: None,
            },
        )
        .unwrap();
        assert_eq!(out.resumed_from_cycle, None);
        assert!(matches!(out.result, RunResult::Finished(_)));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn mismatched_experiment_checkpoint_replays_from_zero() {
        // Same fingerprint, different network shape: framing validates,
        // restore rejects, and the fallback replays from cycle 0.
        let path = temp("mismatch");
        let cancel = Arc::new(AtomicBool::new(true));
        run_checkpointed(
            quick(),
            &CheckpointOptions {
                path: path.clone(),
                fingerprint: 5,
                every: 64,
                cancel: Some(cancel),
            },
        )
        .unwrap();
        let out = run_checkpointed(
            Experiment::new(presets::wh64_onchip())
                .injection_rate(0.03)
                .warmup(100)
                .sample_packets(100)
                .max_cycles(100_000),
            &CheckpointOptions {
                path: path.clone(),
                fingerprint: 5,
                every: 0,
                cancel: None,
            },
        )
        .unwrap();
        assert_eq!(out.resumed_from_cycle, None, "fallback replay");
        let why = out.resume_error.expect("the rejection is reported");
        assert!(why.starts_with("checkpoint rejected"), "{why}");
        assert!(matches!(out.result, RunResult::Finished(_)));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn write_failures_are_recorded_not_fatal() {
        // An unwritable path (a parent component is a regular file, so
        // even a privileged process cannot create the directory): the
        // run must still finish correctly.
        let blocker = temp("write-blocker");
        fs::write(&blocker, b"not a directory").unwrap();
        let path = blocker.join("orion").join("ck.ckpt");
        let out = run_checkpointed(
            quick(),
            &CheckpointOptions {
                path,
                fingerprint: 3,
                every: 64,
                cancel: None,
            },
        )
        .unwrap();
        assert!(matches!(out.result, RunResult::Finished(_)));
        assert_eq!(out.checkpoints_written, 0);
        assert!(out.ckpt_error.is_some(), "failure surfaced, not swallowed");
        let _ = fs::remove_file(&blocker);
    }
}
