//! The five workloads and what they share.
//!
//! Each workload drives one library entry point from generated input
//! to checked output. `setup` is everything before the first timed
//! pass; `pass` is one complete spec/trace/request-mix in, records and
//! artifacts out; `traced` repeats a pass decomposed into spans and
//! returns the per-layer metrics it could measure at full size.

use std::path::PathBuf;
use std::time::Duration;

use crate::catalog::Metric;
use crate::span::{SpanId, Tracer};

pub mod explore_evo;
pub mod fig5_sweep;
pub mod serve_mixed;
pub mod torus32_ckpt;
pub mod trace16_lowrate;

/// Inputs every workload receives.
#[derive(Debug, Clone)]
pub struct Env {
    pub seed: u64,
    /// A directory of this run's own, removed when the run ends.
    pub scratch: PathBuf,
    pub nproc: usize,
}

/// What one timed pass did.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// The timed part of the pass.
    pub wall: Duration,
    /// Simulated cycles stepped (warm-up included) by cells that ran.
    pub sim_cycles: u64,
    pub flits: u64,
    /// Cells completed, cache hits included.
    pub cells: u64,
    /// Completion time of each operation the caller waited on, in ms.
    pub ops_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, for the log.
    pub failures: Vec<String>,
    pub digest: u64,
}

impl Pass {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// What the traced repetition of a pass found.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Wall time of the same work through the untraced entry point.
    pub untraced: Duration,
    /// Wall time of the decomposed, span-instrumented repetition.
    pub traced: Duration,
    /// The root spans of the traced repetition.
    pub roots: Vec<SpanId>,
    /// Per-layer metrics measured at this workload's full size.
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Traced {
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
    }
}

pub trait Workload {
    const NAME: &'static str;
    type Ready;

    /// Everything before the first timed pass. Called several times
    /// (`round` tells the calls apart); the last result is used.
    fn setup(env: &Env, round: usize) -> Self::Ready;

    fn pass(env: &Env, ready: &mut Self::Ready) -> Pass;

    fn traced(env: &Env, ready: &mut Self::Ready, tracer: &mut Tracer) -> Traced;

    /// The name golden digests are filed under: the workload's own,
    /// unless its records depend on the host.
    fn golden_name(_env: &Env) -> String {
        Self::NAME.to_string()
    }
}
