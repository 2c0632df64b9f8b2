//! The batch driver: expand a spec's grid → map it over the one
//! supervised executor ([`CellRunner`]) → sorted merge and summary.
//!
//! Determinism contract: the record set produced by [`run_spec`] is a
//! pure function of the spec (and the code-model version). Worker
//! count, scheduling order and cache state change only *wall-clock
//! time and hit counts*, never results — each cell's RNG is seeded
//! from a hash of its parameter point, and the merged output is sorted
//! by cell key before it is returned or written. How one cell becomes
//! a record — caching, quarantine, checkpoints, the append
//! sink — is the runner's business ([`crate::runner`]), not this
//! module's.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use orion_core::exec::par_map;

use crate::cache::{CacheLock, Manifest, ResultCache};
use crate::record::CellRecord;
use crate::runner::{simulate, CellRunner, Supervision};
use crate::spec::{Cell, ExperimentSpec};

/// Execution options for [`run_spec`].
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Worker threads (0 or 1 = run inline).
    pub threads: usize,
    /// Cache directory; `None` disables caching entirely.
    pub cache_dir: Option<PathBuf>,
    /// Emit a live progress line to stderr.
    pub progress: bool,
    /// Checkpoint and shard knobs applied to every cell of the grid.
    pub supervision: Supervision,
}

/// Accounting for one engine invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Cells in the expanded grid.
    pub total: usize,
    /// Cells actually simulated this run.
    pub simulated: usize,
    /// Cells served from the cache.
    pub cache_hits: usize,
    /// Cells whose configuration was rejected (outcome `"error"`).
    pub failed: usize,
    /// Cells quarantined after panicking.
    pub crashed: usize,
    /// Cells whose runtime invariant audit failed (`corrupted`).
    pub corrupted: usize,
    /// Unparseable cache lines skipped at load.
    pub corrupt_cache_lines: usize,
    /// Records that could not be appended to the cache because the
    /// sink broke mid-run (appending stops at the first failure; every
    /// subsequently skipped record is counted here too).
    pub append_failures: usize,
    /// First cache-append error message, when any append failed.
    pub append_error: Option<String>,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl RunSummary {
    /// Whether any cell was quarantined or failed, or the cache sink
    /// broke (the results are complete but the cache cannot replay
    /// them) — the condition the CLI maps to its degraded exit code.
    pub fn is_degraded(&self) -> bool {
        self.failed > 0 || self.crashed > 0 || self.corrupted > 0 || self.append_failures > 0
    }
}

/// Runs one cell to a record; never panics on configuration or
/// workload errors — they become `outcome: "error"` records.
pub fn run_cell(cell: &Cell) -> CellRecord {
    simulate(cell, 1, None)
}

/// Expands the spec's grid, runs every cell through one
/// [`CellRunner`] (cached cells are served, the rest simulate in
/// parallel under per-cell supervision), and returns all records
/// **sorted by cell key** together with hit/miss and quarantine
/// accounting.
///
/// # Errors
///
/// Returns an I/O error only for cache *setup* problems: a held lock
/// ([`std::io::ErrorKind::AlreadyExists`]), or an unreadable existing
/// cache. Simulation-level failures are data, not errors (`"error"`,
/// `"crashed"` records counted in the summary), and a
/// cache append that fails mid-run degrades to
/// [`RunSummary::append_failures`] rather than aborting the grid.
pub fn run_spec(
    spec: &ExperimentSpec,
    opts: &EngineOptions,
) -> std::io::Result<(Vec<CellRecord>, RunSummary)> {
    let start = Instant::now();
    let cells = spec.expand();
    let total = cells.len();
    let progress = |done: usize, hits: usize| {
        if opts.progress {
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            let rate = (done - hits) as f64 / secs;
            let name = &spec.name;
            eprint!("\r[{name}] {done}/{total} cells ({hits} cached), {rate:.1} cells/s   ");
        }
    };

    // A fully cached, already-healed grid only *reads*, so it takes a
    // shared lock and proceeds beside other readers (concurrent clients
    // replaying a finished grid). Anything that must write — fresh
    // cells, torn-line compaction — goes through the runner, which
    // takes the exclusive writer lock and re-opens the cache because
    // entries may have changed between the two acquisitions.
    if let Some(dir) = &opts.cache_dir {
        let _shared = CacheLock::acquire_shared(dir)?;
        let cache = ResultCache::open(dir)?;
        if !cache.needs_compaction() {
            let hits: Option<Vec<CellRecord>> = cells
                .iter()
                .map(|cell| cache.get(cell.fingerprint()).cloned())
                .collect();
            if let Some(records) = hits {
                progress(total, total);
                return Ok(summarise(spec, opts, start, records, (0, 0, None)));
            }
        }
    }

    let runner = CellRunner::open(opts.cache_dir.as_deref())?;
    let (done, hits) = (AtomicUsize::new(0), AtomicUsize::new(0));
    progress(0, 0);
    let records = par_map(opts.threads, cells, |cell| {
        let record = runner.run(&cell, &opts.supervision);
        let hit = usize::from(record.cached);
        progress(
            done.fetch_add(1, Ordering::Relaxed) + 1,
            hits.fetch_add(hit, Ordering::Relaxed) + hit,
        );
        record
    });
    // Healing is best-effort: a failed compaction leaves the file as
    // the next open tolerates it, and the records are already in hand.
    let heal_error = runner.flush().err().map(|e| e.to_string());
    let sink = (
        runner.corrupt_cache_lines(),
        runner.stats().append_failures as usize,
        runner.append_error().or(heal_error),
    );
    Ok(summarise(spec, opts, start, records, sink))
}

/// Sorts the grid's records by cell key, counts them into a
/// [`RunSummary`] and leaves the progress manifest. `sink` is the
/// cache's side of the story: corrupt lines skipped at load, append
/// failures, first append error.
fn summarise(
    spec: &ExperimentSpec,
    opts: &EngineOptions,
    start: Instant,
    mut records: Vec<CellRecord>,
    (corrupt_cache_lines, append_failures, append_error): (usize, usize, Option<String>),
) -> (Vec<CellRecord>, RunSummary) {
    if opts.progress {
        eprintln!();
    }
    records.sort_by(|a, b| a.cell.cmp(&b.cell));
    let count = |pred: fn(&CellRecord) -> bool| records.iter().filter(|r| pred(r)).count();
    let total = records.len();
    let cache_hits = count(|r| r.cached);
    let crashed = count(CellRecord::is_crashed);
    if let Some(dir) = &opts.cache_dir {
        // Reporting-only progress marker; the cache contents, not the
        // manifest, decide what a resumed run re-simulates.
        let _ = Manifest {
            spec_name: spec.name.clone(),
            total_cells: total,
            completed_cells: total - crashed,
        }
        .write(dir);
    }
    let summary = RunSummary {
        total,
        simulated: total - cache_hits,
        cache_hits,
        failed: count(CellRecord::is_error),
        crashed,
        corrupted: count(|r| r.outcome == "corrupted"),
        corrupt_cache_lines,
        append_failures,
        append_error,
        elapsed: start.elapsed(),
    };
    (records, summary)
}
