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
//! 5. A checkpoint is durable by the next checkpoint boundary or when
//!    the run returns, whichever comes first; a drain's checkpoint is
//!    durable before the run returns [`RunResult::Aborted`].

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use orion_core::exec::panic_message;
use orion_core::{failpoint, Experiment, RunCheckpoint, RunControl, RunError, RunHook, RunResult};

use crate::file::{encode_checkpoint_into, load_checkpoint, persist, CkptError};

/// A checkpoint file write running on its own thread; it hands the
/// framed-file buffer back with the outcome.
type Write = JoinHandle<(Vec<u8>, Result<(), CkptError>)>;

/// A [`RunHook`] that persists each checkpoint to one file (atomic
/// replace, newest wins) and stops the run when a shared cancel flag
/// is raised — the mechanism behind graceful daemon drains.
///
/// The simulating thread only captures and encodes: the write, fsync
/// and rename of each file run on a thread of their own while the
/// simulation keeps stepping, and are settled (joined, counted) at the
/// next checkpoint, by [`written`](Self::written) /
/// [`last_error`](Self::last_error), and on drop.
#[derive(Debug)]
pub struct CheckpointHook {
    every: u64,
    path: PathBuf,
    fingerprint: u64,
    cancel: Option<Arc<AtomicBool>>,
    written: u64,
    last_error: Option<CkptError>,
    /// The framed-file buffer, reused across checkpoints; lent to the
    /// write in flight.
    buf: Vec<u8>,
    in_flight: Option<Write>,
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
            buf: Vec::new(),
            in_flight: None,
        }
    }

    /// Checkpoints successfully persisted so far (waits for the write
    /// in flight, if any).
    pub fn written(&mut self) -> u64 {
        self.settle();
        self.written
    }

    /// The most recent persistence failure, if any (waits for the write
    /// in flight, if any). Failures do not stop the run — they only
    /// cost restart time after a crash.
    pub fn last_error(&mut self) -> Option<&CkptError> {
        self.settle();
        self.last_error.as_ref()
    }

    /// Waits for the write in flight, takes its buffer back and counts
    /// its outcome. A writer that panicked is a failed write.
    fn settle(&mut self) {
        let Some(write) = self.in_flight.take() else {
            return;
        };
        let result = match write.join() {
            Ok((buf, result)) => {
                self.buf = buf;
                result
            }
            Err(panic) => Err(CkptError::Io(std::io::Error::other(format!(
                "checkpoint writer panicked: {}",
                panic_message(panic)
            )))),
        };
        match result {
            Ok(()) => self.written += 1,
            Err(e) => self.last_error = Some(e),
        }
    }
}

impl RunHook for CheckpointHook {
    fn every(&self) -> u64 {
        self.every
    }

    fn on_checkpoint(&mut self, ck: &RunCheckpoint) -> RunControl {
        // The previous file is durable before this one is started, so
        // a `ckpt.write=kill@n` leaves writes 1..n-1 on disk.
        self.settle();
        match failpoint::hit("ckpt.write") {
            Err(e) => self.last_error = Some(CkptError::Injected(e)),
            Ok(()) => {
                let mut buf = std::mem::take(&mut self.buf);
                encode_checkpoint_into(&mut buf, self.fingerprint, ck);
                let path = self.path.clone();
                let spawned = std::thread::Builder::new()
                    .name("orion-ckpt-writer".into())
                    .spawn(move || {
                        let result = persist(&path, &buf);
                        (buf, result)
                    });
                match spawned {
                    Ok(write) => self.in_flight = Some(write),
                    Err(e) => self.last_error = Some(CkptError::Io(e)),
                }
            }
        }
        match &self.cancel {
            Some(flag) if flag.load(Ordering::SeqCst) => {
                // Drain: the run returns next, with this file durable.
                self.settle();
                RunControl::Stop
            }
            _ => RunControl::Continue,
        }
    }
}

impl Drop for CheckpointHook {
    fn drop(&mut self) {
        self.settle();
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
    let (result, resumed_from_cycle, mut hook) = match attempt {
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
    // Settles the last write before the GC below, so it cannot land
    // after the delete.
    let checkpoints_written = hook.written();
    let ckpt_error = hook.last_error().map(|e| e.to_string());
    if matches!(result, RunResult::Finished(_)) {
        // GC: a finished run's checkpoint is debris. Best-effort — a
        // leftover is healed by the next cache compaction.
        let _ = std::fs::remove_file(&opts.path);
    }
    Ok(CheckpointedRun {
        result,
        resumed_from_cycle,
        checkpoints_written,
        ckpt_error,
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
    fn a_previous_snapshot_version_replays_from_zero() {
        // A checkpoint an older build wrote (one file version back,
        // whose network image is not the canonical one) is rejected
        // by the frame with the typed `WrongVersion` before its
        // payload is parsed, and the run replays from cycle 0 to the
        // baseline's result.
        let path = temp("old-snapshot");
        let baseline = quick().run().unwrap();
        let cancel = Arc::new(AtomicBool::new(true));
        run_checkpointed(
            quick(),
            &CheckpointOptions {
                path: path.clone(),
                fingerprint: 7,
                every: 64,
                cancel: Some(cancel),
            },
        )
        .unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let old = crate::file::CKPT_SCHEMA_VERSION - 1;
        let end = bytes.len() - 8;
        bytes[4..8].copy_from_slice(&old.to_le_bytes());
        let sum = crate::hash::fnv1a64_words(&bytes[..end]);
        bytes[end..].copy_from_slice(&sum.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let out = run_checkpointed(
            quick(),
            &CheckpointOptions {
                path: path.clone(),
                fingerprint: 7,
                every: 0,
                cancel: None,
            },
        )
        .unwrap();
        assert_eq!(out.resumed_from_cycle, None, "fallback replay");
        let why = out.resume_error.expect("the rejection is reported");
        assert_eq!(why, CkptError::WrongVersion(old).to_string());
        assert_eq!(
            report_fingerprint(&out.result),
            report_fingerprint(&RunResult::Finished(Box::new(baseline)))
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_reused_buffer_leaves_no_stale_tail() {
        use crate::file::encode_checkpoint;
        let path = temp("shrink");
        let sized = |len: usize| RunCheckpoint {
            phase: orion_core::RunPhase::Measure,
            cycle: len as u64,
            measure_start: 0,
            tagged_budget: 0,
            backlog_samples: vec![len; 3],
            rng: [1, 2, 3, 4],
            traffic_cursors: Vec::new(),
            trace_cursor: 0,
            auditor_energy: 0.0,
            net: (0..len).map(|i| i as u8).collect(),
        };
        let mut hook = CheckpointHook::new(&path, 9, 1, None);
        for len in [100_000, 10, 5_000] {
            let ck = sized(len);
            assert_eq!(hook.on_checkpoint(&ck), RunControl::Continue);
            hook.settle();
            assert_eq!(fs::read(&path).unwrap(), encode_checkpoint(9, &ck), "{len}");
        }
        assert_eq!(hook.written(), 3);
        assert!(hook.last_error().is_none());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn the_last_write_is_settled_before_counts_and_gc() {
        // The final checkpoint's write is usually still in flight when
        // the run finishes: the count must include it and the GC must
        // not race it.
        let dir = temp("settle-dir");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("ck.ckpt");
        let out = run_checkpointed(
            quick(),
            &CheckpointOptions {
                path: path.clone(),
                fingerprint: 4,
                every: 64,
                cancel: None,
            },
        )
        .unwrap();
        let RunResult::Finished(report) = &out.result else {
            panic!("nothing cancels this run");
        };
        let last_cycle = 200 + report.measured_cycles();
        assert_eq!(out.checkpoints_written, last_cycle / 64);
        assert_eq!(out.ckpt_error, None);
        let left: Vec<_> = fs::read_dir(&dir).unwrap().flatten().collect();
        assert!(left.is_empty(), "no .ckpt or .tmp left: {left:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_drained_run_returns_with_its_checkpoint_durable() {
        let path = temp("drain-durable");
        let _ = fs::remove_file(&path);
        let cancel = Arc::new(AtomicBool::new(true));
        let mut hook = CheckpointHook::new(&path, 6, 64, Some(cancel));
        let RunResult::Aborted(ck) = quick().run_with_hook(&mut hook, None).unwrap() else {
            panic!("the raised flag stops the run at its first checkpoint");
        };
        // Read before anything settles the hook again.
        let on_disk = load_checkpoint(&path, 6).expect("durable when the run returns");
        assert_eq!(on_disk, *ck);
        assert_eq!(hook.written(), 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_panicking_writer_is_a_recorded_write_failure() {
        let mut hook = CheckpointHook::new(&temp("panic"), 1, 64, None);
        hook.in_flight = Some(std::thread::spawn(|| panic!("disk on fire")));
        assert_eq!(hook.written(), 0);
        let err = hook.last_error().expect("recorded").to_string();
        assert!(err.contains("panicked: disk on fire"), "{err}");
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
