//! Deterministic parallel experiment orchestration for the Orion
//! reproduction.
//!
//! The paper's case studies are grids: configurations × traffic ×
//! injection rates (Figures 5 and 7 are exactly such sweeps). This
//! crate turns those grids into *declarative specs* and runs them
//! through an engine with properties a hand-written sweep loop does not
//! have:
//!
//! 1. **Determinism under parallelism** — every grid cell's RNG seed
//!    is derived from a stable hash of its parameter point, and
//!    results are merged in cell-key order, so an N-thread run is
//!    bit-identical to a 1-thread run ([`engine`], [`fingerprint`]).
//! 2. **Content-addressed caching** — each cell's result is stored
//!    under a fingerprint of the resolved configuration, measurement
//!    discipline and code-model version; re-running a spec simulates
//!    only new or invalidated cells ([`cache`]).
//! 3. **Versioned artifacts** — results land as JSONL and CSV with an
//!    explicit `schema_version`, sorted by cell key so repeated runs
//!    produce byte-identical files, written atomically so a killed run
//!    never leaves a torn file ([`record`], [`artifact`]).
//! 4. **Supervised execution** — a panicking cell is isolated and
//!    quarantined as one `crashed` record instead of killing the grid;
//!    the cache directory is guarded by an exclusive lock and heals
//!    its own torn lines. One executor ([`runner`]) does this for
//!    grids, searches and the serving daemon alike ([`cache`]).
//! 5. **Mid-run checkpoints** — with `checkpoint_every` set, each
//!    in-flight cell persists a versioned, checksummed snapshot every
//!    N cycles under `<cache_dir>/ckpt/`; a killed run resumes the
//!    cell from its last interval instead of cycle 0, bit-identically
//!    (`orion-ckpt`; compaction garbage-collects completed cells'
//!    checkpoints).
//!
//! # Example
//!
//! ```no_run
//! use orion_exp::{run_spec, EngineOptions, ExperimentSpec};
//!
//! let spec = ExperimentSpec::parse(r#"
//! [experiment]
//! name = "fig5-mini"
//!
//! [grid]
//! presets = ["wh64", "vc64"]
//! rates = [0.02, 0.06, 0.10]
//! "#)?;
//! let (records, summary) = run_spec(&spec, &EngineOptions {
//!     threads: 4,
//!     cache_dir: Some("cache".into()),
//!     progress: true,
//!     ..EngineOptions::default()
//! })?;
//! println!("{} cells, {} cached", summary.total, summary.cache_hits);
//! for r in &records {
//!     println!("{}: {:.1} cycles, {:.3} W", r.cell, r.avg_latency, r.total_power_w);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The spec format, fingerprinting and resume semantics are documented
//! in `docs/ORCHESTRATION.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod cache;
mod cores;
pub mod design;
pub mod engine;
pub mod fingerprint;
pub mod frontier;
pub mod inflight;
pub mod record;
pub mod runner;
pub mod spec;
pub mod toml;

pub use orion_core::failpoint;

pub use artifact::{write_artifacts, write_atomic, Artifacts};
pub use cache::{
    CacheAppender, CacheLock, Manifest, ResultCache, CACHE_FILE, LOCK_FILE, MANIFEST_FILE,
};
pub use design::{canonical_design_name, DesignPoint, RouterFamily};
pub use engine::{run_cell, run_spec, EngineOptions, RunSummary};
pub use frontier::{FrontMember, InsertOutcome, Objectives, ParetoFront};
pub use inflight::{Claim, InflightMap, LeaderGuard};
pub use record::{CellRecord, SCHEMA_VERSION};
pub use runner::{CellRunner, RunnerStats, Supervision};
pub use spec::{Cell, ExperimentSpec, MeasureSpec, SpecError, TrafficKind};
