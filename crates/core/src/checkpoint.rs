//! Mid-run checkpoints of an [`Experiment`](crate::Experiment).
//!
//! A [`RunCheckpoint`] captures *everything* a run needs to continue
//! bit-identically: the network snapshot (including the watchdog's
//! livelock clock), the workload
//! RNG stream, traffic-pattern and trace cursors, the measurement
//! phase and tagged-packet budget, backlog samples and the invariant
//! auditor's energy baseline. The contract — pinned by tests in
//! [`run`](crate::run) — is:
//!
//! > resume(checkpoint(run at cycle C)) ≡ the uninterrupted run,
//! > byte for byte, in every reported number.
//!
//! Checkpoints are captured through a [`RunHook`] passed to
//! [`Experiment::run_with_hook`](crate::Experiment::run_with_hook);
//! the hook fires on a cycle stride and may also stop the run
//! gracefully ([`RunControl::Stop`]), which is how supervisors drain.
//! Persistence (file format, checksums, atomic writes) lives one layer
//! up in `orion-ckpt`; this module only defines the in-memory state
//! and its byte codec.

use orion_sim::snapshot::{ByteReader, ByteWriter};
use orion_sim::SnapshotError;

use crate::config::ConfigError;
use crate::report::Report;

/// Which phase of the §4.1 measurement discipline a checkpoint was
/// taken in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunPhase {
    /// Mid-warm-up: `done` warm-up cycles already simulated.
    Warmup {
        /// Warm-up cycles completed before the checkpoint.
        done: u64,
    },
    /// The measured phase (tagged packets in flight). Trace replays
    /// are always in this phase — they have no warm-up.
    Measure,
}

/// Complete resumable state of a run, captured at a cycle boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCheckpoint {
    /// Phase at capture time.
    pub phase: RunPhase,
    /// Simulation cycle at capture time (redundant with the network
    /// image, duplicated for cheap display and bookkeeping).
    pub cycle: u64,
    /// Cycle at which the measured phase began (meaningful in
    /// [`RunPhase::Measure`]).
    pub measure_start: u64,
    /// Tagged packets still to inject.
    pub tagged_budget: u64,
    /// Source-backlog samples feeding saturation divergence detection.
    pub backlog_samples: Vec<usize>,
    /// Workload RNG state ([`rand::rngs::StdRng`] xoshiro256++ words).
    pub rng: [u64; 4],
    /// Traffic-pattern destination cursors (empty for trace replays).
    pub traffic_cursors: Vec<usize>,
    /// Trace replay position (0 for synthetic workloads).
    pub trace_cursor: usize,
    /// The invariant auditor's energy-monotonicity baseline.
    pub auditor_energy: f64,
    /// The network state image: the canonical bytes of
    /// [`orion_sim::network::image`], which
    /// [`orion_sim::Network::snapshot`] and
    /// `orion_shard::ShardedNetwork::snapshot` write alike, so it
    /// restores at any shard count.
    pub net: Vec<u8>,
}

impl RunCheckpoint {
    /// Serialises the checkpoint. The encoding carries no version of
    /// its own (the checkpoint file frame versions it) and round-trips
    /// exactly through [`RunCheckpoint::from_bytes`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode(&mut w);
        w.into_vec()
    }

    /// Appends exactly [`RunCheckpoint::to_bytes`]'s bytes to `w`, so
    /// the checkpoint file codec frames the payload without a copy.
    pub fn encode(&self, w: &mut ByteWriter) {
        match self.phase {
            RunPhase::Warmup { done } => {
                w.u8(0);
                w.u64(done);
            }
            RunPhase::Measure => w.u8(1),
        }
        w.u64(self.cycle);
        w.u64(self.measure_start);
        w.u64(self.tagged_budget);
        w.usize(self.backlog_samples.len());
        for &s in &self.backlog_samples {
            w.usize(s);
        }
        for &word in &self.rng {
            w.u64(word);
        }
        w.usize(self.traffic_cursors.len());
        for &c in &self.traffic_cursors {
            w.usize(c);
        }
        w.usize(self.trace_cursor);
        w.f64(self.auditor_energy);
        w.usize(self.net.len());
        w.bytes(&self.net);
    }

    /// Decodes a checkpoint serialised by [`RunCheckpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// Truncated or corrupted input returns a typed [`SnapshotError`];
    /// no byte sequence panics. (Consistency against a particular
    /// experiment — network shape, warm-up length — is checked at
    /// resume time.)
    pub fn from_bytes(bytes: &[u8]) -> Result<RunCheckpoint, SnapshotError> {
        let mut r = ByteReader::new(bytes);
        let phase = match r.u8()? {
            0 => RunPhase::Warmup { done: r.u64()? },
            1 => RunPhase::Measure,
            _ => return Err(SnapshotError::Invalid("run phase tag")),
        };
        let cycle = r.u64()?;
        let measure_start = r.u64()?;
        let tagged_budget = r.u64()?;
        let n = r.count(8)?;
        let mut backlog_samples = Vec::with_capacity(n);
        for _ in 0..n {
            backlog_samples.push(r.usize()?);
        }
        let mut rng = [0u64; 4];
        for word in rng.iter_mut() {
            *word = r.u64()?;
        }
        let n = r.count(8)?;
        let mut traffic_cursors = Vec::with_capacity(n);
        for _ in 0..n {
            traffic_cursors.push(r.usize()?);
        }
        let trace_cursor = r.usize()?;
        let auditor_energy = r.f64()?;
        let net_len = r.count(1)?;
        let net = r.take_bytes(net_len)?.to_vec();
        if !r.is_empty() {
            return Err(SnapshotError::Invalid("trailing bytes"));
        }
        Ok(RunCheckpoint {
            phase,
            cycle,
            measure_start,
            tagged_budget,
            backlog_samples,
            rng,
            traffic_cursors,
            trace_cursor,
            auditor_energy,
            net,
        })
    }
}

/// What a [`RunHook`] tells the runner after each checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunControl {
    /// Keep simulating.
    Continue,
    /// Stop now; the run returns [`RunResult::Aborted`] carrying the
    /// checkpoint just offered (graceful drain).
    Stop,
}

/// Periodic checkpoint observer for
/// [`Experiment::run_with_hook`](crate::Experiment::run_with_hook).
pub trait RunHook {
    /// Cycle stride between checkpoints (`0` disables them; the run
    /// then behaves exactly like [`Experiment::run`](crate::Experiment::run)).
    fn every(&self) -> u64;

    /// Called on the stride with a freshly captured checkpoint.
    /// Persist it, ignore it, or return [`RunControl::Stop`] to end
    /// the run gracefully.
    fn on_checkpoint(&mut self, checkpoint: &RunCheckpoint) -> RunControl;
}

/// How a hooked run ended.
#[derive(Debug)]
pub enum RunResult {
    /// The run reached a terminal outcome; the report is final.
    Finished(Box<Report>),
    /// The hook stopped the run; resume later from this checkpoint.
    Aborted(Box<RunCheckpoint>),
}

/// Why a hooked or resumed run could not proceed.
#[derive(Debug)]
pub enum RunError {
    /// The experiment configuration is invalid.
    Config(ConfigError),
    /// The resume checkpoint is corrupt or belongs to a different
    /// experiment (network shape, traffic topology or warm-up length
    /// disagree).
    Resume(SnapshotError),
    /// The requested combination is not supported.
    Unsupported(&'static str),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Config(e) => write!(f, "invalid configuration: {e}"),
            RunError::Resume(e) => write!(f, "cannot resume from checkpoint: {e}"),
            RunError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Config(e) => Some(e),
            RunError::Resume(e) => Some(e),
            RunError::Unsupported(_) => None,
        }
    }
}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> RunError {
        RunError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunCheckpoint {
        RunCheckpoint {
            phase: RunPhase::Warmup { done: 512 },
            cycle: 512,
            measure_start: 0,
            tagged_budget: 10_000,
            backlog_samples: vec![3, 7, 12],
            rng: [1, 2, 3, u64::MAX],
            traffic_cursors: vec![0, 5, 0, 2],
            trace_cursor: 0,
            auditor_energy: 1.25e-9,
            net: vec![9, 8, 7, 6, 5],
        }
    }

    #[test]
    fn byte_codec_round_trips() {
        let ck = sample();
        assert_eq!(RunCheckpoint::from_bytes(&ck.to_bytes()).unwrap(), ck);
        let measure = RunCheckpoint {
            phase: RunPhase::Measure,
            measure_start: 1000,
            trace_cursor: 42,
            ..sample()
        };
        assert_eq!(
            RunCheckpoint::from_bytes(&measure.to_bytes()).unwrap(),
            measure
        );
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                RunCheckpoint::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn bad_phase_tag_and_trailing_bytes_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = 2; // the phase tag leads
        assert_eq!(
            RunCheckpoint::from_bytes(&bytes),
            Err(SnapshotError::Invalid("run phase tag"))
        );
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(RunCheckpoint::from_bytes(&bytes).is_err());
    }
}
