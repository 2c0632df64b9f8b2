//! A re-entrant, shareable cell executor: the serving counterpart of
//! the batch engine in [`crate::engine`].
//!
//! [`run_spec`](crate::run_spec) owns a whole grid from start to
//! finish; a long-lived daemon instead receives cells continuously
//! from many concurrent clients. [`CellRunner`] serves that shape:
//!
//! * **One writer, many callers** — the runner holds the cache
//!   directory's exclusive writer lock for its whole lifetime and is
//!   safe to call from any number of threads.
//! * **Content-addressed memory** — results load from the on-disk
//!   cache at open and accumulate in memory; every later request for
//!   the same fingerprint is a hit.
//! * **In-flight dedup** — concurrent requests for the same
//!   fingerprint collapse into one execution via [`InflightMap`]:
//!   one leader simulates, every follower shares the record.
//! * **Supervision** — panicking cells retry with deterministically
//!   reseeded RNGs and quarantine as `crashed` records; wall-clock
//!   overruns classify as `timed-out`. Quarantine verdicts are never
//!   cached, matching the batch engine.
//!
//! Determinism: records are a pure function of the cell (seeds derive
//! from the cell key), so a runner shared by N racing clients yields
//! byte-identical records to N sequential `run_spec` calls — with the
//! overlap simulated exactly once.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use crate::cache::{CacheAppender, CacheLock, ResultCache};
use crate::engine::{poison_matches, retry_seed, run_cell_checkpointed, run_cell_seeded};
use orion_core::exec::panic_message;

use crate::inflight::{lock_unpoisoned, Claim, InflightMap};
use crate::record::CellRecord;
use crate::spec::Cell;

/// Per-request supervision knobs, mirroring the batch engine's
/// `--retries` / `--cell-timeout-ms` semantics.
#[derive(Debug, Clone, Default)]
pub struct Supervision {
    /// Extra attempts granted to a panicking cell (0 = fail fast).
    pub max_retries: u32,
    /// Wall-clock budget per attempt; overruns classify `timed-out`
    /// post-hoc. `None` disables the budget.
    pub cell_timeout: Option<Duration>,
    /// Fault-injection hook (tests/CI only): cells whose key contains
    /// this substring panic; a `once:` prefix restricts the injection
    /// to attempt 0, exercising the retry path.
    pub poison: Option<String>,
    /// Persist a mid-run checkpoint of each executing cell every this
    /// many cycles (0 = off). Requires the runner to have a cache
    /// directory. Besides crash durability, this is what makes a
    /// graceful drain ([`CellRunner::request_drain`]) able to stop
    /// in-flight cells at a resumable boundary.
    pub checkpoint_every: u64,
    /// Shards per cell engine (`orion-shard`; 0 or 1 = monolithic).
    /// Bit-identical results at every count, so records and
    /// fingerprints are shard-agnostic.
    pub shards: usize,
}

/// Monotonic accounting over a runner's lifetime. Snapshot via
/// [`CellRunner::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunnerStats {
    /// Requests answered from memory (disk cache or earlier run).
    pub cache_hits: u64,
    /// Cells actually simulated (each distinct execution counts once,
    /// however many requesters shared it).
    pub executed: u64,
    /// Requests that shared a concurrent in-flight execution.
    pub deduped: u64,
    /// Executions quarantined after panicking on every attempt.
    pub crashed: u64,
    /// Executions that exceeded their wall-clock budget.
    pub timed_out: u64,
    /// Executions that succeeded only after at least one retry.
    pub retried: u64,
    /// Executions whose configuration was rejected (`"error"`).
    pub failed: u64,
    /// Records that could not be appended to the disk cache.
    pub append_failures: u64,
    /// Executions stopped at a checkpoint boundary by a drain.
    pub drained: u64,
    /// Executions that resumed from a persisted checkpoint.
    pub resumed: u64,
    /// Mid-run checkpoints persisted across all executions.
    pub checkpoints_written: u64,
}

#[derive(Debug, Default)]
struct Counters {
    cache_hits: AtomicU64,
    executed: AtomicU64,
    deduped: AtomicU64,
    crashed: AtomicU64,
    timed_out: AtomicU64,
    retried: AtomicU64,
    failed: AtomicU64,
    append_failures: AtomicU64,
    drained: AtomicU64,
    resumed: AtomicU64,
    checkpoints_written: AtomicU64,
}

/// The shared executor. See the module docs for the contract.
#[derive(Debug)]
pub struct CellRunner {
    /// Held from open until [`flush`](Self::flush) or drop; `None`
    /// without a cache directory (pure in-memory dedup).
    lock: Mutex<Option<CacheLock>>,
    cache_dir: Option<PathBuf>,
    entries: RwLock<HashMap<u64, CellRecord>>,
    appender: Mutex<Option<CacheAppender>>,
    append_error: Mutex<Option<String>>,
    inflight: InflightMap,
    counters: Counters,
    /// Raised by [`request_drain`](Self::request_drain); checkpointed
    /// executions observe it at their next checkpoint boundary.
    draining: Arc<AtomicBool>,
}

impl CellRunner {
    /// Opens a runner over `cache_dir` (or a cache-less one for
    /// `None`): acquires the exclusive writer lock, loads and heals
    /// the cache, and readies the append sink.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::AlreadyExists`] when another live run
    /// holds the directory; other I/O errors from reading or healing
    /// the cache.
    pub fn open(cache_dir: Option<&Path>) -> std::io::Result<CellRunner> {
        let (lock, entries, appender) = match cache_dir {
            Some(dir) => {
                let lock = CacheLock::acquire(dir)?;
                let cache = ResultCache::open(dir)?;
                cache.compact()?;
                let appender = cache.appender()?;
                let map = cache.entries().map(|(fp, rec)| (fp, rec.clone())).collect();
                (Some(lock), map, Some(appender))
            }
            None => (None, HashMap::new(), None),
        };
        Ok(CellRunner {
            lock: Mutex::new(lock),
            cache_dir: cache_dir.map(Path::to_path_buf),
            entries: RwLock::new(entries),
            appender: Mutex::new(appender),
            append_error: Mutex::new(None),
            inflight: InflightMap::new(),
            counters: Counters::default(),
            draining: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Asks in-flight checkpointed executions to stop at their next
    /// checkpoint boundary (they come back as `drained` records, never
    /// cached, each leaving a persisted checkpoint the next runner
    /// over the same cache directory resumes). Cells running without
    /// checkpointing finish normally. Idempotent.
    pub fn request_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Produces the record for `cell`: from memory, from a concurrent
    /// in-flight execution, or by simulating under supervision. Safe
    /// to call from any number of threads; never panics on simulation
    /// failures (they become quarantine records).
    pub fn run(&self, cell: &Cell, sup: &Supervision) -> CellRecord {
        let fp = cell.fingerprint();
        if let Some(hit) = self.lookup(fp) {
            self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        // `claim` resolves aborted flights internally, so exactly one
        // arm runs per call.
        match self.inflight.claim(fp) {
            Claim::Shared(record) => {
                self.counters.deduped.fetch_add(1, Ordering::Relaxed);
                *record
            }
            Claim::Lead(guard) => {
                // Double-check under leadership: an earlier leader
                // may have published and closed its flight between
                // our lookup and our claim.
                if let Some(hit) = self.lookup(fp) {
                    self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                    guard.publish(&hit);
                    return hit;
                }
                let record = self.execute(cell, sup);
                // Quarantine verdicts are wall-clock-dependent and
                // drained cells are incomplete — neither is
                // remembered (a fixed build, a calmer machine or the
                // next daemon retries/resumes them); genuine results
                // are made durable and shared.
                if !record.is_crashed() && !record.is_timed_out() && !record.is_drained() {
                    self.remember(fp, &record);
                }
                guard.publish(&record);
                record
            }
        }
    }

    /// A point-in-time copy of the accounting counters.
    pub fn stats(&self) -> RunnerStats {
        RunnerStats {
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            executed: self.counters.executed.load(Ordering::Relaxed),
            deduped: self.counters.deduped.load(Ordering::Relaxed),
            crashed: self.counters.crashed.load(Ordering::Relaxed),
            timed_out: self.counters.timed_out.load(Ordering::Relaxed),
            retried: self.counters.retried.load(Ordering::Relaxed),
            failed: self.counters.failed.load(Ordering::Relaxed),
            append_failures: self.counters.append_failures.load(Ordering::Relaxed),
            drained: self.counters.drained.load(Ordering::Relaxed),
            resumed: self.counters.resumed.load(Ordering::Relaxed),
            checkpoints_written: self.counters.checkpoints_written.load(Ordering::Relaxed),
        }
    }

    /// First cache-append error, when any append failed.
    pub fn append_error(&self) -> Option<String> {
        lock_unpoisoned(&self.append_error).clone()
    }

    /// Number of records held in memory (disk cache + fresh results).
    pub fn known_records(&self) -> usize {
        match self.entries.read() {
            Ok(e) => e.len(),
            Err(poisoned) => poisoned.into_inner().len(),
        }
    }

    /// Closes the append sink, heals the on-disk cache (compacting
    /// superseded or torn lines) and **releases the cache lock** — the
    /// flush step of a graceful drain. Afterwards a fresh
    /// `experiment run` over the same directory resumes
    /// byte-identically; this runner stays usable but serves from
    /// memory only, persisting nothing further.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; the append sink is closed and
    /// the lock released either way.
    pub fn flush(&self) -> std::io::Result<()> {
        // Drop the append handle first: compaction replaces the file
        // by rename, and a surviving handle would keep appending to
        // the unlinked inode.
        *lock_unpoisoned(&self.appender) = None;
        let result = match &self.cache_dir {
            Some(dir) => ResultCache::open(dir).and_then(|c| c.compact()).map(|_| ()),
            None => Ok(()),
        };
        // Release the lock only after compaction: the heal must happen
        // under exclusivity.
        *lock_unpoisoned(&self.lock) = None;
        result
    }

    /// [`flush`](Self::flush), consuming the runner.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; the lock is released either
    /// way (the runner is consumed).
    pub fn finalize(self) -> std::io::Result<()> {
        self.flush()
    }

    fn lookup(&self, fp: u64) -> Option<CellRecord> {
        let entries = match self.entries.read() {
            Ok(e) => e,
            Err(poisoned) => poisoned.into_inner(),
        };
        entries.get(&fp).map(|rec| {
            let mut rec = rec.clone();
            rec.cached = true;
            rec
        })
    }

    fn remember(&self, fp: u64, record: &CellRecord) {
        {
            let mut entries = match self.entries.write() {
                Ok(e) => e,
                Err(poisoned) => poisoned.into_inner(),
            };
            entries.insert(fp, record.clone());
        }
        let mut appender = lock_unpoisoned(&self.appender);
        if let Some(app) = appender.as_mut() {
            if let Err(e) = app.append(record) {
                self.counters
                    .append_failures
                    .fetch_add(1, Ordering::Relaxed);
                lock_unpoisoned(&self.append_error).get_or_insert(e.to_string());
            }
        }
    }

    /// Supervised execution of one cell: bounded deterministic retries
    /// on panic, post-hoc wall-clock classification, quarantine as a
    /// `crashed` record when every attempt dies.
    fn execute(&self, cell: &Cell, sup: &Supervision) -> CellRecord {
        self.counters.executed.fetch_add(1, Ordering::Relaxed);
        let mut last_panic = String::new();
        for attempt in 0..=sup.max_retries {
            let started = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if poison_matches(sup.poison.as_deref(), cell, attempt) {
                    panic!("poison hook: injected panic for cell {}", cell.key());
                }
                let seed = retry_seed(cell.derived_seed(), attempt);
                // Checkpointing covers attempt 0 only: retries reseed
                // the RNG, and a snapshot persisted under the original
                // seed must never resume a differently-seeded replay.
                match &self.cache_dir {
                    Some(dir) if sup.checkpoint_every > 0 && attempt == 0 => run_cell_checkpointed(
                        cell,
                        seed,
                        dir,
                        sup.checkpoint_every,
                        Some(Arc::clone(&self.draining)),
                        sup.shards,
                    ),
                    _ => run_cell_seeded(cell, seed, sup.shards),
                }
            }));
            match outcome {
                Ok(mut record) => {
                    let elapsed = started.elapsed();
                    record.attempts = attempt + 1;
                    if attempt > 0 {
                        record.cell_outcome = "retried".to_string();
                        self.counters.retried.fetch_add(1, Ordering::Relaxed);
                    }
                    if record.resumed_from_cycle.is_some() {
                        self.counters.resumed.fetch_add(1, Ordering::Relaxed);
                    }
                    self.counters
                        .checkpoints_written
                        .fetch_add(record.checkpoints_written, Ordering::Relaxed);
                    // A drained cell is an administrative stop, not a
                    // result — return it before wall-clock
                    // classification can mislabel the partial run.
                    if record.is_drained() {
                        self.counters.drained.fetch_add(1, Ordering::Relaxed);
                        return record;
                    }
                    if let Some(budget) = sup.cell_timeout {
                        if elapsed > budget {
                            self.counters.timed_out.fetch_add(1, Ordering::Relaxed);
                            return CellRecord::from_timeout(
                                cell,
                                budget.as_millis() as u64,
                                elapsed.as_millis() as u64,
                                attempt + 1,
                            );
                        }
                    }
                    if record.is_error() {
                        self.counters.failed.fetch_add(1, Ordering::Relaxed);
                    }
                    return record;
                }
                Err(payload) => last_panic = panic_message(payload),
            }
        }
        self.counters.crashed.fetch_add(1, Ordering::Relaxed);
        CellRecord::from_crash(cell, &last_panic, sup.max_retries + 1)
    }
}
