//! Content-addressed result cache: one JSONL file per cache directory,
//! keyed by cell fingerprint.
//!
//! * **Hit** — a line whose `fingerprint` matches the cell's current
//!   fingerprint. Fingerprints cover the code-model version, the full
//!   parameter point and the measurement discipline, so a hit is safe
//!   to reuse verbatim.
//! * **Miss** — no such line. The cell is simulated and its record
//!   appended, making interrupted or extended grids resumable: only
//!   new or invalidated cells pay simulation time.
//! * **Corruption** — a line that fails to parse (truncated append,
//!   manual edit, version skew) is skipped and counted. Damage is
//!   per-line: every other entry remains usable.
//!
//! The directory is additionally guarded by a multi-reader /
//! single-writer advisory [`CacheLock`] (two concurrent writers
//! interleaving appends would tear each other's lines, but any number
//! of fully-cached runs may read side by side), carries a crash-safe
//! [`Manifest`] describing the last run's progress, and heals itself:
//! [`ResultCache::compact`] atomically rewrites a file that
//! accumulated torn or superseded lines.
//!
//! # Lock protocol
//!
//! Three kinds of PID-stamped lock files live next to the cache:
//!
//! * [`LOCK_FILE`] — the single writer's lock, held for a whole run.
//! * `orion-exp-cache.rlock.<pid>-<n>` — one per shared reader.
//! * [`INTENT_FILE`] — a writer's *intent*, held only while it waits
//!   for readers to drain. New readers refuse to start while an intent
//!   is posted, so a steady stream of readers cannot starve a writer
//!   (writer fairness).
//!
//! All three are created with `create_new` (atomic create-or-fail) and
//! record the holder's PID. A file whose holder is provably dead is
//! *stale* and broken automatically — via an atomic rename to a
//! breaker-unique name and a **post-rename liveness re-check**, so two
//! racing breakers can never delete a lock a live process just
//! re-acquired (the TOCTOU window a plain check-then-remove leaves
//! open).

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use orion_obs::json::Json;

use crate::artifact::write_atomic;
use crate::record::{parse_flat_object, CellRecord};

/// File name of the cache inside a `--cache-dir`.
pub const CACHE_FILE: &str = "orion-exp-cache.jsonl";

/// File name of the exclusive writer lock inside a `--cache-dir`.
pub const LOCK_FILE: &str = "orion-exp-cache.lock";

/// File name of the writer-intent marker inside a `--cache-dir`.
pub const INTENT_FILE: &str = "orion-exp-cache.lock.intent";

/// File-name prefix of shared reader locks inside a `--cache-dir`.
pub const RLOCK_PREFIX: &str = "orion-exp-cache.rlock.";

/// File name of the run manifest inside a `--cache-dir`.
pub const MANIFEST_FILE: &str = "orion-exp-manifest.json";

/// Distinguishes reader locks taken by different threads of one
/// process (the PID alone would collide).
static RLOCK_SEQ: AtomicU64 = AtomicU64::new(0);

/// How the lock is held: by the single writer or by one of many
/// readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Exclusive: no other writer, no readers.
    Exclusive,
    /// Shared: any number of readers, no writer.
    Shared,
}

/// Advisory multi-reader / single-writer lock on a cache directory,
/// held for the duration of a run and released (file removed) on drop.
///
/// A lock whose holder is no longer alive (a run killed mid-grid) is
/// considered stale and broken automatically, so kill-and-resume needs
/// no manual cleanup; a lock held by a live process is an error the
/// CLI surfaces as bad input (exit 2).
#[derive(Debug)]
pub struct CacheLock {
    path: PathBuf,
    mode: LockMode,
}

impl CacheLock {
    /// Acquires the **exclusive** (writer) lock under `dir` without
    /// waiting, creating the directory if needed.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::AlreadyExists`] when another live writer or reader
    /// holds the lock; any other I/O error from creating the directory
    /// or file.
    pub fn acquire(dir: &Path) -> std::io::Result<CacheLock> {
        CacheLock::acquire_exclusive_wait(dir, Duration::ZERO)
    }

    /// Acquires the exclusive (writer) lock, waiting up to `patience`
    /// for live readers to drain. While waiting, a writer *intent* is
    /// posted that refuses new readers, so the writer cannot be
    /// starved by a stream of short-lived readers.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::AlreadyExists`] when a live writer (or a live
    /// waiting writer) holds the directory, or readers did not drain
    /// within `patience`; other I/O errors are propagated.
    pub fn acquire_exclusive_wait(dir: &Path, patience: Duration) -> std::io::Result<CacheLock> {
        fs::create_dir_all(dir)?;
        let deadline = Instant::now() + patience;
        // Post the intent first: at most one writer may wait, and its
        // presence keeps new readers out (fairness).
        let intent = Intent::post(dir)?;
        let lock_path = dir.join(LOCK_FILE);
        loop {
            match try_create_pid_file(&lock_path)? {
                Ok(()) => {}
                Err(holder) => {
                    // A live writer from before our intent: not stale,
                    // so fail (or keep waiting out our patience — a
                    // writer exits by removing its lock).
                    if Instant::now() < deadline {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                    return Err(held_error(dir, &lock_path, "a live run", &holder));
                }
            }
            // TOCTOU closure (supervision-PR follow-up): `create_new`
            // succeeding is not proof we own the file — a racing
            // breaker that misjudged staleness could have renamed our
            // fresh lock away and a third party recreated it. Re-read
            // and verify the PID is ours *after* acquisition.
            if read_pid(&lock_path) != Some(std::process::id()) {
                continue;
            }
            break;
        }
        let lock = CacheLock {
            path: lock_path,
            mode: LockMode::Exclusive,
        };
        // Writer excludes readers: wait for live ones to drain (their
        // stale husks are broken on the way).
        loop {
            match live_readers(dir) {
                None => break,
                Some(reader) => {
                    if Instant::now() < deadline {
                        std::thread::sleep(Duration::from_millis(5));
                    } else {
                        // `lock` drops here, removing the writer file.
                        return Err(held_error(
                            dir,
                            &reader,
                            "a live shared reader",
                            &fs::read_to_string(&reader).unwrap_or_default(),
                        ));
                    }
                }
            }
        }
        drop(intent);
        Ok(lock)
    }

    /// Acquires a **shared** (reader) lock under `dir`, creating the
    /// directory if needed. Any number of readers may hold the lock at
    /// once; a live writer — or a writer *waiting* for the lock —
    /// excludes new readers.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::AlreadyExists`] when a live writer holds or awaits
    /// the lock; any other I/O error from creating the directory or
    /// file.
    pub fn acquire_shared(dir: &Path) -> std::io::Result<CacheLock> {
        fs::create_dir_all(dir)?;
        let intent_path = dir.join(INTENT_FILE);
        let lock_path = dir.join(LOCK_FILE);
        // Fairness: a posted (live) writer intent refuses new readers.
        if pid_file_held(&intent_path) {
            return Err(held_error(
                dir,
                &intent_path,
                "a waiting writer",
                &fs::read_to_string(&intent_path).unwrap_or_default(),
            ));
        }
        if pid_file_held(&lock_path) {
            return Err(held_error(
                dir,
                &lock_path,
                "a live run",
                &fs::read_to_string(&lock_path).unwrap_or_default(),
            ));
        }
        let seq = RLOCK_SEQ.fetch_add(1, Ordering::Relaxed);
        let rpath = dir.join(format!("{RLOCK_PREFIX}{}-{seq}", std::process::id()));
        let mut f = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&rpath)?;
        let _ = write!(f, "{}", std::process::id());
        drop(f);
        // Re-check: a writer that slipped in between our check and the
        // rlock creation wins — back out so it is not torn under.
        if pid_file_held(&lock_path) || pid_file_held(&intent_path) {
            let _ = fs::remove_file(&rpath);
            return Err(held_error(
                dir,
                &lock_path,
                "a live run",
                &fs::read_to_string(&lock_path).unwrap_or_default(),
            ));
        }
        Ok(CacheLock {
            path: rpath,
            mode: LockMode::Shared,
        })
    }

    /// How this lock is held.
    pub fn mode(&self) -> LockMode {
        self.mode
    }
}

impl Drop for CacheLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// RAII writer-intent marker: removed on drop, including every error
/// path out of the exclusive acquisition.
#[derive(Debug)]
struct Intent {
    path: PathBuf,
}

impl Intent {
    fn post(dir: &Path) -> std::io::Result<Intent> {
        let path = dir.join(INTENT_FILE);
        match try_create_pid_file(&path)? {
            Ok(()) => Ok(Intent { path }),
            Err(holder) => Err(held_error(dir, &path, "a waiting writer", &holder)),
        }
    }
}

impl Drop for Intent {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Tries to `create_new` a PID-stamped lock file, breaking stale
/// holders. `Ok(Ok(()))` = created; `Ok(Err(holder))` = a live holder
/// (its PID text returned) kept it.
///
/// # Errors
///
/// Propagates I/O errors other than `AlreadyExists`.
fn try_create_pid_file(path: &Path) -> std::io::Result<Result<(), String>> {
    loop {
        match OpenOptions::new().write(true).create_new(true).open(path) {
            Ok(mut f) => {
                let _ = write!(f, "{}", std::process::id());
                return Ok(Ok(()));
            }
            Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                if break_stale(path) {
                    continue;
                }
                return Ok(Err(fs::read_to_string(path).unwrap_or_default()));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Whether a PID-stamped lock file currently excludes us: it exists
/// and its holder is alive (stale files are broken on the way).
fn pid_file_held(path: &Path) -> bool {
    path.exists() && !break_stale(path) && path.exists()
}

/// The first live reader-lock path under `dir`, after breaking stale
/// ones; `None` when no live reader remains.
fn live_readers(dir: &Path) -> Option<PathBuf> {
    let entries = fs::read_dir(dir).ok()?;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.starts_with(RLOCK_PREFIX) {
            continue;
        }
        let path = entry.path();
        if !break_stale(&path) && path.exists() {
            return Some(path);
        }
    }
    None
}

/// Breaks `path` if its holder is provably dead. Returns `true` when
/// the file is gone afterwards (broken by us *or* by a racing
/// breaker), `false` when a live holder keeps it.
///
/// The break is race-safe in two steps: an atomic `rename` to a
/// breaker-unique name claims the file (exactly one of N racing
/// breakers wins), then the holder's liveness is **re-verified on the
/// renamed file** before deletion. If the holder turns out alive — it
/// re-acquired between our staleness check and the rename — the file
/// is renamed back, closing the check-then-remove TOCTOU window.
fn break_stale(path: &Path) -> bool {
    if !stale_lock(path) {
        return !path.exists();
    }
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("lock")
        .to_string();
    // A dotfile name outside every lock-file prefix, unique per
    // breaker, so claims are invisible to the reader scan and exactly
    // one of N racing renames can succeed.
    let claim = path.with_file_name(format!(
        ".breaking.{}.{}.{name}",
        std::process::id(),
        RLOCK_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    match fs::rename(path, &claim) {
        Ok(()) => {
            if stale_lock(&claim) {
                let _ = fs::remove_file(&claim);
                true
            } else {
                // The holder is alive after all: put its lock back.
                let _ = fs::rename(&claim, path);
                false
            }
        }
        // Someone else claimed (or the holder released) it first.
        Err(_) => !path.exists(),
    }
}

/// Whether a lock file's holder is provably gone: unreadable PIDs are
/// stale (a torn lock write), and on Linux a PID with no `/proc` entry
/// is stale. Elsewhere liveness cannot be checked cheaply, so a
/// well-formed lock is conservatively treated as held. A missing file
/// is *not* stale — there is nothing to break.
fn stale_lock(path: &Path) -> bool {
    let Ok(text) = fs::read_to_string(path) else {
        return false;
    };
    let Ok(pid) = text.trim().parse::<u32>() else {
        return true;
    };
    !pid_alive(pid)
}

/// Reads the PID a lock file records, `None` when missing/torn.
fn read_pid(path: &Path) -> Option<u32> {
    fs::read_to_string(path).ok()?.trim().parse().ok()
}

/// Whether `pid` names a live process (Linux: `/proc` entry;
/// elsewhere conservatively `true`).
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

/// A uniform "directory is locked" error.
fn held_error(dir: &Path, path: &Path, what: &str, holder: &str) -> std::io::Error {
    std::io::Error::new(
        ErrorKind::AlreadyExists,
        format!(
            "cache directory `{}` is locked by {what} (pid {}); \
             wait for it to finish or remove `{}`",
            dir.display(),
            holder.trim(),
            path.display(),
        ),
    )
}

/// Crash-safe progress marker for the last grid run against a cache
/// directory, written atomically so a killed run never leaves a torn
/// manifest. A resumed run reads it purely for reporting — the cache
/// contents, not the manifest, decide what re-simulates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Name of the experiment that ran.
    pub spec_name: String,
    /// Cells in that experiment's expanded grid.
    pub total_cells: usize,
    /// Cells whose results were durably cached when it was written.
    pub completed_cells: usize,
}

impl Manifest {
    /// Writes the manifest under `dir` via an atomic rename.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        let mut json = String::new();
        let mut o = Json::compact(&mut json);
        o.key("spec_name").str(&self.spec_name);
        o.key("total_cells").num(self.total_cells);
        o.key("completed_cells").num(self.completed_cells);
        o.end();
        json.push('\n');
        write_atomic(&dir.join(MANIFEST_FILE), json.as_bytes())
    }

    /// Reads the manifest under `dir`; `None` when absent or
    /// malformed (both mean "no usable progress information").
    pub fn read(dir: &Path) -> Option<Manifest> {
        let text = fs::read_to_string(dir.join(MANIFEST_FILE)).ok()?;
        let obj = parse_flat_object(text.trim())?;
        Some(Manifest {
            spec_name: obj.get("spec_name")?.as_str()?.to_string(),
            total_cells: obj.get("total_cells")?.as_u64()?.try_into().ok()?,
            completed_cells: obj.get("completed_cells")?.as_u64()?.try_into().ok()?,
        })
    }
}

/// An on-disk result cache, loaded eagerly and appended incrementally.
#[derive(Debug)]
pub struct ResultCache {
    path: PathBuf,
    entries: HashMap<u64, CellRecord>,
    corrupt_lines: usize,
    superseded_lines: usize,
}

impl ResultCache {
    /// Opens (or initializes) the cache under `dir`. Missing files and
    /// directories are created lazily on first append; corrupt lines
    /// are skipped and counted, never fatal.
    ///
    /// # Errors
    ///
    /// Returns an I/O error only when an *existing* cache file cannot
    /// be read.
    pub fn open(dir: &Path) -> std::io::Result<ResultCache> {
        let path = dir.join(CACHE_FILE);
        let mut entries = HashMap::new();
        let mut corrupt_lines = 0;
        let mut superseded_lines = 0;
        if path.exists() {
            let text = fs::read_to_string(&path)?;
            for line in text.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                match CellRecord::from_json_line(line) {
                    // Later lines win: a re-simulated cell supersedes
                    // its earlier entry.
                    Some(rec) => {
                        if entries.insert(rec.fingerprint, rec).is_some() {
                            superseded_lines += 1;
                        }
                    }
                    None => corrupt_lines += 1,
                }
            }
        }
        Ok(ResultCache {
            path,
            entries,
            corrupt_lines,
            superseded_lines,
        })
    }

    /// Looks up a result by fingerprint. The returned record is marked
    /// `cached`.
    pub fn get(&self, fingerprint: u64) -> Option<&CellRecord> {
        self.entries.get(&fingerprint)
    }

    /// Iterates over every loaded `(fingerprint, record)` pair, in
    /// arbitrary order.
    pub fn entries(&self) -> impl Iterator<Item = (u64, &CellRecord)> {
        self.entries.iter().map(|(fp, rec)| (*fp, rec))
    }

    /// Number of usable entries loaded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of unparseable lines skipped at load.
    pub fn corrupt_lines(&self) -> usize {
        self.corrupt_lines
    }

    /// Whether the on-disk file deviates from the loaded entry set:
    /// torn lines (a killed append) or superseded duplicates.
    pub fn needs_compaction(&self) -> bool {
        self.corrupt_lines > 0 || self.superseded_lines > 0
    }

    /// Rewrites the cache file to exactly the loaded entries, sorted
    /// by cell key, via an atomic temp-file rename — healing torn and
    /// duplicate lines a killed run left behind. A no-op (returning
    /// `false`) when the file already matches. Also garbage-collects
    /// checkpoint files of completed cells (see
    /// [`gc_checkpoints`](Self::gc_checkpoints)).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; the original file survives a
    /// failed rewrite.
    pub fn compact(&self) -> std::io::Result<bool> {
        self.gc_checkpoints();
        if !self.needs_compaction() {
            return Ok(false);
        }
        let mut recs: Vec<&CellRecord> = self.entries.values().collect();
        recs.sort_by(|a, b| a.cell.cmp(&b.cell));
        let text = orion_obs::json::lines(recs, CellRecord::to_json_line);
        write_atomic(&self.path, text.as_bytes())?;
        Ok(true)
    }

    /// Removes leftover mid-run checkpoints of cells whose results are
    /// already cached. A finished cell normally deletes its own
    /// checkpoint, but a process killed between the final append and
    /// that deletion leaves debris — compaction heals it here, exactly
    /// like torn cache lines. Best-effort: an undeletable file only
    /// costs disk space, never correctness (a leftover checkpoint is
    /// masked by the cache hit anyway).
    fn gc_checkpoints(&self) {
        let Some(dir) = self.path.parent() else {
            return;
        };
        let Ok(entries) = fs::read_dir(dir.join("ckpt")) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name.strip_suffix(".ckpt") else {
                continue;
            };
            let Some(fp) = crate::fingerprint::from_hex(stem) else {
                continue;
            };
            if self.entries.contains_key(&fp) {
                let _ = fs::remove_file(entry.path());
            }
        }
    }

    /// Opens an append handle for writing fresh results as they
    /// complete (creating the directory and file on first use).
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the directory or file cannot be created.
    pub fn appender(&self) -> std::io::Result<CacheAppender> {
        if let Some(parent) = self.path.parent() {
            fs::create_dir_all(parent)?;
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        Ok(CacheAppender {
            writer: BufWriter::new(file),
        })
    }
}

/// An append-only handle to the cache file. Each record is written as
/// one line and flushed immediately, so an interrupted run loses at
/// most the record being written — and a torn final line is exactly
/// the corruption [`ResultCache::open`] tolerates.
#[derive(Debug)]
pub struct CacheAppender {
    writer: BufWriter<File>,
}

impl CacheAppender {
    /// Appends one record and flushes. Failpoint: `cache.append`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; an armed `cache.append`
    /// failpoint with the `error` action surfaces the same way, so
    /// chaos tests exercise the exact degraded path a full disk would.
    pub fn append(&mut self, record: &CellRecord) -> std::io::Result<()> {
        orion_core::failpoint::hit("cache.append")
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        self.writer.write_all(record.to_json_line().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExperimentSpec;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("orion-exp-cache-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn records(n: usize) -> Vec<CellRecord> {
        let rates: Vec<String> = (1..=n).map(|i| format!("0.{i:02}")).collect();
        let spec = ExperimentSpec::parse(&format!(
            "[experiment]\nname = \"t\"\n[grid]\npresets = [\"vc16\"]\nrates = [{}]\n",
            rates.join(", ")
        ))
        .unwrap();
        spec.expand()
            .iter()
            .map(|c| CellRecord::from_error(c, "placeholder"))
            .collect()
    }

    #[test]
    fn roundtrip_and_miss() {
        let dir = temp_dir("roundtrip");
        let cache = ResultCache::open(&dir).unwrap();
        assert!(cache.is_empty());
        let recs = records(3);
        let mut app = cache.appender().unwrap();
        for r in &recs[..2] {
            app.append(r).unwrap();
        }
        drop(app);

        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.corrupt_lines(), 0);
        assert!(cache.get(recs[0].fingerprint).unwrap().cached);
        assert!(cache.get(recs[2].fingerprint).is_none(), "miss for unseen");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_line_skipped_not_fatal() {
        let dir = temp_dir("corrupt");
        let cache = ResultCache::open(&dir).unwrap();
        let recs = records(3);
        let mut app = cache.appender().unwrap();
        for r in &recs {
            app.append(r).unwrap();
        }
        drop(app);

        // Corrupt the middle line.
        let path = dir.join(CACHE_FILE);
        let text = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines[1] = lines[1][..lines[1].len() / 2].to_string();
        fs::write(&path, lines.join("\n") + "\n").unwrap();

        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 2, "the other lines survive");
        assert_eq!(cache.corrupt_lines(), 1);
        assert!(cache.get(recs[1].fingerprint).is_none());
        assert!(cache.get(recs[0].fingerprint).is_some());
        assert!(cache.get(recs[2].fingerprint).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn later_entries_supersede_earlier() {
        let dir = temp_dir("supersede");
        let cache = ResultCache::open(&dir).unwrap();
        let mut rec = records(1).remove(0);
        let mut app = cache.appender().unwrap();
        app.append(&rec).unwrap();
        rec.error = Some("newer".into());
        app.append(&rec).unwrap();
        drop(app);

        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.get(rec.fingerprint).unwrap().error.as_deref(),
            Some("newer")
        );
        assert!(cache.needs_compaction(), "a superseded line is debris");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lock_is_exclusive_and_released_on_drop() {
        let dir = temp_dir("lock");
        let lock = CacheLock::acquire(&dir).unwrap();
        let second = CacheLock::acquire(&dir);
        let err = second.expect_err("a live lock must not be re-acquired");
        assert_eq!(err.kind(), ErrorKind::AlreadyExists);
        assert!(err.to_string().contains(LOCK_FILE), "{err}");
        drop(lock);
        assert!(!dir.join(LOCK_FILE).exists(), "drop removes the lock");
        let relock = CacheLock::acquire(&dir).unwrap();
        drop(relock);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_is_broken_automatically() {
        let dir = temp_dir("stale-lock");
        fs::create_dir_all(&dir).unwrap();
        // A garbage PID is always stale; on Linux a dead PID would be
        // detected the same way via /proc.
        fs::write(dir.join(LOCK_FILE), "not-a-pid").unwrap();
        let lock = CacheLock::acquire(&dir).expect("stale lock must be broken");
        drop(lock);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A PID no live process can have: Linux caps PIDs at 2^22 by
    /// default and the value is far beyond any configured `pid_max`.
    const DEAD_PID: &str = "4294967294";

    #[test]
    fn shared_locks_coexist_and_exclude_writers() {
        let dir = temp_dir("rwlock");
        let r1 = CacheLock::acquire_shared(&dir).unwrap();
        let r2 = CacheLock::acquire_shared(&dir).unwrap();
        assert_eq!(r1.mode(), LockMode::Shared);
        assert_eq!(r2.mode(), LockMode::Shared);

        let w = CacheLock::acquire(&dir);
        let err = w.expect_err("readers exclude the writer");
        assert_eq!(err.kind(), ErrorKind::AlreadyExists);
        assert!(err.to_string().contains("reader"), "{err}");
        assert!(
            !dir.join(INTENT_FILE).exists(),
            "failed writer leaves no intent behind"
        );

        drop(r1);
        drop(r2);
        let w = CacheLock::acquire(&dir).expect("drained readers free the writer");
        assert_eq!(w.mode(), LockMode::Exclusive);
        let r3 = CacheLock::acquire_shared(&dir);
        assert_eq!(
            r3.expect_err("writer excludes readers").kind(),
            ErrorKind::AlreadyExists
        );
        drop(w);
        let _ = CacheLock::acquire_shared(&dir).expect("writer release frees readers");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn waiting_writer_refuses_new_readers_then_acquires() {
        let dir = temp_dir("fairness");
        let reader = CacheLock::acquire_shared(&dir).unwrap();
        let dir2 = dir.clone();
        let writer = std::thread::spawn(move || {
            CacheLock::acquire_exclusive_wait(&dir2, Duration::from_secs(10))
        });
        // Wait for the writer's intent to be posted.
        for _ in 0..1000 {
            if dir.join(INTENT_FILE).exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(dir.join(INTENT_FILE).exists(), "writer posted its intent");
        let late = CacheLock::acquire_shared(&dir);
        let err = late.expect_err("intent refuses new readers (fairness)");
        assert_eq!(err.kind(), ErrorKind::AlreadyExists);
        assert!(err.to_string().contains("writer"), "{err}");
        drop(reader);
        let w = writer
            .join()
            .unwrap()
            .expect("writer acquires once drained");
        assert_eq!(w.mode(), LockMode::Exclusive);
        assert!(!dir.join(INTENT_FILE).exists(), "intent cleared on acquire");
        drop(w);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_reader_locks_are_broken_by_writers() {
        let dir = temp_dir("stale-reader");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(format!("{RLOCK_PREFIX}{DEAD_PID}-0")), DEAD_PID).unwrap();
        let w = CacheLock::acquire(&dir).expect("stale reader must not block a writer");
        drop(w);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_breakers_break_exactly_once_without_stealing() {
        let dir = temp_dir("racing-breakers");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(LOCK_FILE);

        // Two breakers racing on a genuinely stale lock: both must
        // report it gone, exactly one rename wins, no debris remains.
        for _ in 0..50 {
            fs::write(&path, DEAD_PID).unwrap();
            let (a, b) = std::thread::scope(|s| {
                let t1 = s.spawn(|| break_stale(&path));
                let t2 = s.spawn(|| break_stale(&path));
                (t1.join().unwrap(), t2.join().unwrap())
            });
            assert!(a && b, "both racers observe the stale lock broken");
            assert!(!path.exists());
            let debris: Vec<String> = fs::read_dir(&dir)
                .unwrap()
                .flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect();
            assert!(debris.is_empty(), "leftover claim files: {debris:?}");
        }

        // A live holder survives a breaker: liveness is re-verified
        // after the rename claims the file, so the lock is put back.
        fs::write(&path, format!("{}", std::process::id())).unwrap();
        assert!(!break_stale(&path), "live lock must not be broken");
        assert!(path.exists(), "live lock file restored");
        assert_eq!(read_pid(&path), Some(std::process::id()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_roundtrips_atomically() {
        let dir = temp_dir("manifest");
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(Manifest::read(&dir), None, "absent manifest reads None");
        let m = Manifest {
            spec_name: "fig5".into(),
            total_cells: 16,
            completed_cells: 7,
        };
        m.write(&dir).unwrap();
        assert_eq!(
            fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap(),
            "{\"spec_name\":\"fig5\",\"total_cells\":16,\"completed_cells\":7}\n"
        );
        assert_eq!(Manifest::read(&dir), Some(m));
        assert!(!dir.join(format!("{MANIFEST_FILE}.tmp")).exists());
        fs::write(dir.join(MANIFEST_FILE), "{torn").unwrap();
        assert_eq!(Manifest::read(&dir), None, "torn manifest reads None");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_heals_torn_and_duplicate_lines() {
        let dir = temp_dir("compact");
        let cache = ResultCache::open(&dir).unwrap();
        let recs = records(3);
        let mut app = cache.appender().unwrap();
        for r in &recs {
            app.append(r).unwrap();
        }
        app.append(&recs[1]).unwrap(); // duplicate
        drop(app);
        // Tear the final line, as a SIGKILL mid-append would.
        let path = dir.join(CACHE_FILE);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 30]).unwrap();

        let cache = ResultCache::open(&dir).unwrap();
        assert!(cache.needs_compaction());
        assert!(cache.compact().unwrap(), "a rewrite happened");

        let healed = ResultCache::open(&dir).unwrap();
        assert_eq!(healed.len(), 3);
        assert!(!healed.needs_compaction(), "compaction converges");
        assert!(!healed.compact().unwrap(), "second compact is a no-op");
        let keys: Vec<String> = fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(|l| l.to_string())
            .collect();
        assert_eq!(keys.len(), 3, "exactly one line per cell");
        let _ = fs::remove_dir_all(&dir);
    }
}
