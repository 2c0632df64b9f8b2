//! The one supervised cell executor: how a cell becomes a record, and
//! how that record reaches memory, disk and concurrent askers.
//!
//! Every execution layer drives a [`CellRunner`]:
//! [`run_spec`](crate::run_spec) maps a whole grid over one, the
//! explore loop maps each batch of candidates, the serving daemon hands
//! it cells from many concurrent clients. The runner owns:
//!
//! * **One writer, many callers** — it holds the cache directory's
//!   exclusive writer lock for its whole lifetime and is safe to call
//!   from any number of threads.
//! * **Content-addressed memory** — results load from the on-disk
//!   cache at open and accumulate in memory; every later request for
//!   the same fingerprint is a hit.
//! * **In-flight dedup** — concurrent requests for the same
//!   fingerprint collapse into one execution via [`InflightMap`]:
//!   one leader simulates, every follower shares the record.
//! * **Supervision** — one misbehaving cell never takes its callers
//!   down. A cell runs once, under its derived seed; a panic is caught
//!   and quarantined as a `crashed` record. Quarantine verdicts are
//!   **not** cached — only genuine simulation results are — so a fixed
//!   build re-simulates them.
//! * **The append sink** — genuine results are made durable as they
//!   complete. The first failed append closes the sink for the rest of
//!   the runner's life (a torn tail must never be welded onto a later
//!   record); every record after it counts as an append failure.
//!
//! Determinism: records are a pure function of the cell — its seed
//! derives from the cell key — so worker count, scheduling order and
//! cache state change only wall-clock time and hit counts, and a
//! runner shared by N racing clients yields byte-identical records to
//! N sequential grids, with the overlap simulated exactly once.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use orion_ckpt::{checkpoint_path, run_checkpointed, CheckpointOptions};
use orion_core::exec::panic_message;
use orion_core::{failpoint, RunResult};

use crate::cache::{CacheAppender, CacheLock, ResultCache};
use crate::inflight::{lock_unpoisoned, Claim, InflightMap};
use crate::record::CellRecord;
use crate::spec::Cell;

/// The supervision knobs of one request, grid or search — declared
/// here once and carried whole by [`EngineOptions`](crate::EngineOptions)
/// and the explore options (`--checkpoint-every` / `--shards`).
#[derive(Debug, Clone, Default)]
pub struct Supervision {
    /// Persist a mid-run checkpoint of each executing cell every this
    /// many cycles (0 = off). Requires the runner to have a cache
    /// directory — checkpoints live at
    /// `<cache_dir>/ckpt/<fingerprint>.ckpt` — and makes a killed run
    /// replay the in-flight cell from its last interval instead of
    /// cycle 0, bit-identically. It is also what lets a graceful drain
    /// ([`CellRunner::request_drain`]) stop in-flight cells at a
    /// resumable boundary.
    pub checkpoint_every: u64,
    /// Shards per cell engine (`orion-shard`; 0 or 1 = monolithic).
    /// Results are bit-identical at every shard count, so this knob is
    /// deliberately **outside** the cell fingerprint: a cache written
    /// at one shard count serves every other.
    pub shards: usize,
}

/// Declares each runner counter once: its [`RunnerStats`] field, its
/// atomic in `Counters` and the gauge name `/metrics` serves it under.
macro_rules! runner_counters {
    ($($(#[doc = $doc:literal])* $field:ident => $gauge:literal,)*) => {
        /// Monotonic accounting over a runner's lifetime. Snapshot via
        /// [`CellRunner::stats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct RunnerStats {
            $($(#[doc = $doc])* pub $field: u64,)*
        }

        impl RunnerStats {
            /// Every counter paired with its `/metrics` gauge name.
            pub fn gauges(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$(($gauge, self.$field)),*].into_iter()
            }
        }

        #[derive(Debug, Default)]
        struct Counters {
            $($field: AtomicU64,)*
        }

        impl Counters {
            fn snapshot(&self) -> RunnerStats {
                RunnerStats { $($field: self.$field.load(Ordering::Relaxed),)* }
            }
        }
    };
}

runner_counters! {
    /// Requests answered from memory (disk cache or earlier run).
    cache_hits => "runner_cache_hits",
    /// Cells actually simulated (each distinct execution counts once,
    /// however many requesters shared it).
    executed => "runner_executed",
    /// Requests that shared a concurrent in-flight execution.
    deduped => "runner_deduped",
    /// Executions quarantined after panicking.
    crashed => "runner_crashed",
    /// Executions whose configuration was rejected (`"error"`).
    failed => "runner_failed",
    /// Records that could not be appended to the disk cache: the one
    /// whose append failed and every record after it (the sink closes
    /// at the first failure).
    append_failures => "runner_append_failures",
    /// Executions stopped at a checkpoint boundary by a drain.
    drained => "runner_drained",
    /// Executions that resumed from a persisted checkpoint.
    resumed => "ckpt_resumed_total",
    /// Mid-run checkpoints persisted across all executions.
    checkpoints_written => "ckpt_written_total",
}

/// The append half of the cache. `error` set means the sink broke and
/// closed: nothing is appended afterwards, even if a later write would
/// succeed.
#[derive(Debug, Default)]
struct Sink {
    appender: Option<CacheAppender>,
    error: Option<String>,
}

/// The shared executor. See the module docs for the contract.
#[derive(Debug)]
pub struct CellRunner {
    /// Held from open until [`flush`](Self::flush) or drop; `None`
    /// without a cache directory (pure in-memory dedup).
    lock: Mutex<Option<CacheLock>>,
    cache_dir: Option<PathBuf>,
    entries: RwLock<HashMap<u64, CellRecord>>,
    sink: Mutex<Sink>,
    corrupt_cache_lines: usize,
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
        let (lock, entries, appender, corrupt_cache_lines) = match cache_dir {
            Some(dir) => {
                let lock = CacheLock::acquire(dir)?;
                let cache = ResultCache::open(dir)?;
                // Heal debris a killed run left behind (torn final
                // line, superseded duplicates) before appending more.
                cache.compact()?;
                let appender = cache.appender()?;
                let map = cache.entries().map(|(fp, rec)| (fp, rec.clone())).collect();
                (Some(lock), map, Some(appender), cache.corrupt_lines())
            }
            None => (None, HashMap::new(), None, 0),
        };
        Ok(CellRunner {
            lock: Mutex::new(lock),
            cache_dir: cache_dir.map(Path::to_path_buf),
            entries: RwLock::new(entries),
            sink: Mutex::new(Sink {
                appender,
                error: None,
            }),
            corrupt_cache_lines,
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
                // Crashed cells are a bug and drained cells are
                // incomplete — neither is remembered (a fixed build or
                // the next daemon re-simulates/resumes them); genuine
                // results are made durable and shared.
                if !record.is_crashed() && !record.is_drained() {
                    self.remember(fp, &record);
                }
                guard.publish(&record);
                record
            }
        }
    }

    /// A point-in-time copy of the accounting counters.
    pub fn stats(&self) -> RunnerStats {
        self.counters.snapshot()
    }

    /// The error that closed the append sink, when an append failed.
    pub fn append_error(&self) -> Option<String> {
        lock_unpoisoned(&self.sink).error.clone()
    }

    /// Unparseable cache lines skipped (and compacted away) at open.
    pub fn corrupt_cache_lines(&self) -> usize {
        self.corrupt_cache_lines
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
        lock_unpoisoned(&self.sink).appender = None;
        let result = match &self.cache_dir {
            Some(dir) => ResultCache::open(dir).and_then(|c| c.compact()).map(|_| ()),
            None => Ok(()),
        };
        // Release the lock only after compaction: the heal must happen
        // under exclusivity.
        *lock_unpoisoned(&self.lock) = None;
        result
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
        let mut sink = lock_unpoisoned(&self.sink);
        if sink.error.is_none() {
            let Some(appender) = sink.appender.as_mut() else {
                return;
            };
            let Err(e) = appender.append(record) else {
                return;
            };
            // The writer may still buffer the unflushed tail of a torn
            // line; a later append through it would weld a good record
            // onto that tail, so the sink closes for good.
            sink.appender = None;
            sink.error = Some(e.to_string());
        }
        self.counters
            .append_failures
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Supervised execution of one cell: it runs once, under its
    /// derived seed, and a panic quarantines it as a `crashed` record.
    fn execute(&self, cell: &Cell, sup: &Supervision) -> CellRecord {
        self.counters.executed.fetch_add(1, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // The `cell.run` failpoint, keyed by the cell: an armed
            // `error` ends the run exactly as a `panic` does.
            if let Err(e) = failpoint::hit_with("cell.run", || cell.key()) {
                panic!("{e}");
            }
            let checkpoint = match &self.cache_dir {
                Some(dir) if sup.checkpoint_every > 0 => Some(CheckpointOptions {
                    path: checkpoint_path(dir, cell.fingerprint()),
                    fingerprint: cell.fingerprint(),
                    every: sup.checkpoint_every,
                    cancel: Some(Arc::clone(&self.draining)),
                }),
                _ => None,
            };
            simulate(cell, sup.shards, checkpoint.as_ref())
        }));
        let record = match outcome {
            Ok(record) => record,
            Err(payload) => {
                self.counters.crashed.fetch_add(1, Ordering::Relaxed);
                return CellRecord::from_crash(cell, &panic_message(payload));
            }
        };
        if record.resumed_from_cycle.is_some() {
            self.counters.resumed.fetch_add(1, Ordering::Relaxed);
        }
        self.counters
            .checkpoints_written
            .fetch_add(record.checkpoints_written, Ordering::Relaxed);
        if record.is_drained() {
            self.counters.drained.fetch_add(1, Ordering::Relaxed);
        } else if record.is_error() {
            self.counters.failed.fetch_add(1, Ordering::Relaxed);
        }
        record
    }
}

/// One run of one cell under its derived seed. Never panics on
/// configuration or workload errors — they become `outcome: "error"`
/// records. With `checkpoint`, the cell runs under the checkpoint
/// policy: it resumes from a valid leftover snapshot (any corruption
/// degrades to a cycle-0 replay), persists the in-flight state every
/// `every` cycles, and stops at the next boundary once `cancel` is
/// raised — the cell then comes back as a `drained` record.
pub(crate) fn simulate(
    cell: &Cell,
    shards: usize,
    checkpoint: Option<&CheckpointOptions>,
) -> CellRecord {
    let experiment = cell.experiment(cell.derived_seed(), shards.max(1));
    match (experiment, checkpoint) {
        (Err(e), _) => CellRecord::from_error(cell, &e.to_string()),
        (Ok(exp), None) => match exp.run() {
            Ok(report) => CellRecord::from_report(cell, &report),
            Err(e) => CellRecord::from_error(cell, &e.to_string()),
        },
        (Ok(exp), Some(opts)) => match run_checkpointed(exp, opts) {
            Ok(out) => {
                let mut r = match out.result {
                    RunResult::Finished(report) => CellRecord::from_report(cell, &report),
                    RunResult::Aborted(ck) => CellRecord::from_drain(cell, ck.cycle),
                };
                r.resumed_from_cycle = out.resumed_from_cycle;
                r.checkpoints_written = out.checkpoints_written;
                r
            }
            Err(e) => CellRecord::from_error(cell, &e.to_string()),
        },
    }
}
