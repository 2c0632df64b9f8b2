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
//! The kernel holds the lock: two files next to the cache exist only
//! to take an OS advisory lock on ([`File::try_lock`] /
//! [`File::try_lock_shared`]), under three rules.
//!
//! * The writer holds [`LOCK_FILE`] **exclusively** for a whole run and
//!   excludes everyone.
//! * Readers hold it **shared** and coexist.
//! * A **waiting writer refuses new readers**: it holds [`INTENT_FILE`]
//!   exclusively while it waits and a reader must pass that file first,
//!   so a stream of readers cannot starve it.
//!
//! Closing the handle releases a lock — [`CacheLock`]'s drop, or the
//! process dying however it dies — so a killed run leaves nothing to
//! clean up. The files are **never unlinked** (a run that had opened
//! the old inode and the next run would each lock their own): an idle
//! directory keeps them, their existence and content mean nothing, and
//! "released" is observed by acquiring. The writer stamps its PID into
//! [`LOCK_FILE`] only so a refusal can name the holder; nobody reads it
//! to decide ownership.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions, TryLockError};
use std::io::{BufWriter, ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use orion_obs::json::Json;

use crate::artifact::write_atomic;
use crate::record::{parse_flat_object, CellRecord};

/// File name of the cache inside a `--cache-dir`.
pub const CACHE_FILE: &str = "orion-exp-cache.jsonl";

/// File name of the lock file inside a `--cache-dir`.
pub const LOCK_FILE: &str = "orion-exp-cache.lock";

/// File name of the waiting-writer lock file inside a `--cache-dir`.
pub const INTENT_FILE: &str = "orion-exp-cache.lock.intent";

/// File name of the run manifest inside a `--cache-dir`.
pub const MANIFEST_FILE: &str = "orion-exp-manifest.json";

/// Advisory multi-reader / single-writer lock on a cache directory: an
/// open handle on [`LOCK_FILE`] holding an OS lock, released when the
/// handle closes — on drop, or when the process dies.
///
/// A killed run therefore never wedges the directory; a lock held by a
/// live process is an error the CLI surfaces as bad input (exit 2).
#[derive(Debug)]
pub struct CacheLock {
    _file: File,
}

impl CacheLock {
    /// Acquires the **exclusive** (writer) lock under `dir` without
    /// waiting, creating the directory if needed.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::AlreadyExists`] when another writer or a reader
    /// holds the lock; any other I/O error from creating the directory
    /// or file.
    pub fn acquire(dir: &Path) -> std::io::Result<CacheLock> {
        CacheLock::acquire_exclusive_wait(dir, Duration::ZERO)
    }

    /// Acquires the exclusive (writer) lock, waiting up to `patience`
    /// for its holders to let go. While waiting, the writer holds
    /// [`INTENT_FILE`], which refuses new readers, so it cannot be
    /// starved by a stream of short-lived readers.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::AlreadyExists`] when a writer, a waiting writer or
    /// readers still hold the directory after `patience`; other I/O
    /// errors are propagated.
    pub fn acquire_exclusive_wait(dir: &Path, patience: Duration) -> std::io::Result<CacheLock> {
        let mut file = lock_dir(dir, File::try_lock, patience)?;
        // Only for a refusal's message. Ten columns cover any earlier
        // PID whole; truncating first would cost ~120 µs.
        let _ = write!(file, "{:<10}", std::process::id());
        Ok(CacheLock { _file: file })
    }

    /// Acquires a **shared** (reader) lock under `dir` without waiting,
    /// creating the directory if needed. Any number of readers may
    /// hold the lock at once; a writer — or a writer *waiting* for the
    /// lock — excludes new readers.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::AlreadyExists`] when a writer holds or awaits the
    /// lock; any other I/O error from creating the directory or file.
    pub fn acquire_shared(dir: &Path) -> std::io::Result<CacheLock> {
        let file = lock_dir(dir, File::try_lock_shared, Duration::ZERO)?;
        Ok(CacheLock { _file: file })
    }
}

/// [`File::try_lock`] for a writer, [`File::try_lock_shared`] for a reader.
type TryLock = fn(&File) -> Result<(), TryLockError>;

/// Creates `dir` if needed, passes [`INTENT_FILE`] and returns
/// [`LOCK_FILE`] locked, both by `try_lock` and within `patience`.
fn lock_dir(dir: &Path, try_lock: TryLock, patience: Duration) -> std::io::Result<File> {
    fs::create_dir_all(dir)?;
    let deadline = Instant::now() + patience;
    let refused = |path: &Path, holder: &str| {
        let (dir, path) = (dir.display(), path.display());
        let text = format!(
            "cache directory `{dir}` is locked: {holder} holds `{path}`; wait for it to finish"
        );
        std::io::Error::new(ErrorKind::AlreadyExists, text)
    };
    // A writer keeps the intent while it waits below and a reader must
    // get it shared to go on, so a waiting writer refuses new readers
    // (and a reader passing through refuses a writer that its lock was
    // about to refuse anyway). Released when this returns.
    let intent_path = dir.join(INTENT_FILE);
    let intent = open_lock_file(&intent_path)?;
    if !lock_by(&intent, try_lock, deadline)? {
        return Err(refused(&intent_path, "a waiting writer"));
    }
    let path = dir.join(LOCK_FILE);
    let file = open_lock_file(&path)?;
    if lock_by(&file, try_lock, deadline)? {
        return Ok(file);
    }
    // Readers would let one more reader in; a writer would not, and
    // has stamped its PID.
    let holder = match file.try_lock_shared() {
        Ok(()) => "a shared reader".to_string(),
        Err(_) => {
            let pid = fs::read_to_string(&path).unwrap_or_default();
            format!("a live run (pid {})", pid.trim())
        }
    };
    Err(refused(&path, &holder))
}

/// Opens (creating if absent, never truncating) a file to lock.
fn open_lock_file(path: &Path) -> std::io::Result<File> {
    OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
}

/// Takes `file`'s lock, retrying until `deadline` with a back-off that
/// doubles from 20 µs to at most 250 µs. `Ok(false)` = someone else
/// still held it at the deadline. A deadline already passed means one
/// attempt and no sleep.
fn lock_by(file: &File, try_lock: TryLock, deadline: Instant) -> std::io::Result<bool> {
    let mut pause = Duration::from_micros(20);
    loop {
        match try_lock(file) {
            Ok(()) => return Ok(true),
            Err(TryLockError::Error(e)) => return Err(e),
            Err(TryLockError::WouldBlock) => {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Ok(false);
                }
                std::thread::sleep(pause.min(left));
                pause = (pause * 2).min(Duration::from_micros(250));
            }
        }
    }
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
            let bytes = fs::read(&path)?;
            for line in bytes.split(|&b| b == b'\n') {
                // Not UTF-8 is unparseable, like any other damage to a line.
                let text = std::str::from_utf8(line).ok();
                match text.and_then(CellRecord::from_json_line) {
                    // Later lines win: a re-simulated cell supersedes
                    // its earlier entry.
                    Some(rec) => {
                        if entries.insert(rec.fingerprint, rec).is_some() {
                            superseded_lines += 1;
                        }
                    }
                    None if line.trim_ascii().is_empty() => {}
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
    /// already cached: `<fp>.ckpt`, and the `<fp>.ckpt.tmp` of a write
    /// killed before its rename. A finished cell normally deletes its
    /// own checkpoint, but a process killed between the final append
    /// and that deletion leaves debris — compaction heals it here,
    /// exactly like torn cache lines. Best-effort: an undeletable file
    /// only costs disk space, never correctness (a leftover checkpoint
    /// is masked by the cache hit anyway).
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
            let Some(stem) = name
                .strip_suffix(".ckpt")
                .or_else(|| name.strip_suffix(".ckpt.tmp"))
            else {
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
    fn non_utf8_bytes_cost_one_record_not_the_cache() {
        let dir = temp_dir("non-utf8");
        let cache = ResultCache::open(&dir).unwrap();
        let recs = records(3);
        let mut app = cache.appender().unwrap();
        for r in &recs {
            app.append(r).unwrap();
        }
        drop(app);

        // Splice two bytes that are not UTF-8 into the middle line.
        let path = dir.join(CACHE_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let second_line = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        bytes.splice(second_line + 10..second_line + 10, [0xFF, 0xFE]);
        fs::write(&path, bytes).unwrap();

        let cache = ResultCache::open(&dir).expect("damage is per line");
        assert_eq!(cache.corrupt_lines(), 1);
        assert!(cache.get(recs[0].fingerprint).is_some());
        assert!(cache.get(recs[1].fingerprint).is_none());
        assert!(cache.get(recs[2].fingerprint).is_some());
        assert!(cache.needs_compaction());
        assert!(cache.compact().unwrap(), "compaction heals the file");
        let healed = fs::read_to_string(&path).expect("healed file is UTF-8");
        assert_eq!(healed.lines().count(), 2);
        assert!(healed
            .lines()
            .all(|l| CellRecord::from_json_line(l).is_some()));
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
        let pid = format!("(pid {})", std::process::id());
        assert!(err.to_string().contains(&pid), "{err}");
        drop(lock);
        let relock = CacheLock::acquire(&dir).expect("drop releases the lock");
        drop(relock);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_lock_files_never_block() {
        let dir = temp_dir("leftovers");
        fs::create_dir_all(&dir).unwrap();
        // What any older build, killed or alive, could have left: a
        // lock stamped with a PID that is alive (ours), an intent, two
        // reader marks and a rename-claim husk. Nobody holds a kernel
        // lock, so nobody is refused.
        let me = std::process::id().to_string();
        for name in [
            LOCK_FILE,
            INTENT_FILE,
            "orion-exp-cache.rlock.1-0",
            &format!("orion-exp-cache.rlock.{me}-1"),
            &format!(".breaking.{me}.7.{LOCK_FILE}"),
        ] {
            fs::write(dir.join(name), &me).unwrap();
        }
        drop(CacheLock::acquire(&dir).expect("file content is not ownership"));
        drop(CacheLock::acquire_shared(&dir).expect("readers ignore leftovers too"));
        drop(CacheLock::acquire_exclusive_wait(&dir, Duration::ZERO).expect("so do waiters"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_locks_coexist_and_exclude_writers() {
        let dir = temp_dir("rwlock");
        let r1 = CacheLock::acquire_shared(&dir).unwrap();
        let r2 = CacheLock::acquire_shared(&dir).unwrap();

        let w = CacheLock::acquire(&dir);
        let err = w.expect_err("readers exclude the writer");
        assert_eq!(err.kind(), ErrorKind::AlreadyExists);
        assert!(err.to_string().contains("reader"), "{err}");
        assert!(!err.to_string().contains("pid"), "{err}");
        drop(CacheLock::acquire_shared(&dir).expect("a refused writer leaves no intent held"));

        drop(r1);
        drop(r2);
        let w = CacheLock::acquire(&dir).expect("drained readers free the writer");
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
        // Readers are admitted until the writer holds its intent.
        let late = (0..1000).find_map(|_| {
            let late = CacheLock::acquire_shared(&dir).err();
            if late.is_none() {
                std::thread::sleep(Duration::from_millis(2));
            }
            late
        });
        let err = late.expect("intent refuses new readers (fairness)");
        assert_eq!(err.kind(), ErrorKind::AlreadyExists);
        assert!(err.to_string().contains("writer"), "{err}");
        drop(reader);
        let w = writer
            .join()
            .unwrap()
            .expect("writer acquires once drained");
        let late = CacheLock::acquire_shared(&dir);
        assert!(late.is_err(), "the writer now holds the lock itself");
        drop(w);
        drop(CacheLock::acquire_shared(&dir).expect("intent and lock released on drop"));
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

    #[test]
    fn compaction_removes_checkpoints_and_orphaned_tmps_of_cached_cells() {
        let dir = temp_dir("ckpt-gc");
        let recs = records(2);
        let mut app = ResultCache::open(&dir).unwrap().appender().unwrap();
        app.append(&recs[0]).unwrap();
        drop(app);
        // A cached cell killed mid-`write_atomic` after an earlier
        // checkpoint, and an uncached cell's torn write in progress.
        let ckpt = dir.join("ckpt");
        fs::create_dir_all(&ckpt).unwrap();
        let cached = format!("{:016x}", recs[0].fingerprint);
        let pending = ckpt.join(format!("{:016x}.ckpt.tmp", recs[1].fingerprint));
        for path in [
            ckpt.join(format!("{cached}.ckpt")),
            ckpt.join(format!("{cached}.ckpt.tmp")),
            pending.clone(),
        ] {
            fs::write(path, b"debris").unwrap();
        }
        ResultCache::open(&dir).unwrap().compact().unwrap();
        let left: Vec<PathBuf> = fs::read_dir(&ckpt)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(left, [pending], "only the uncached cell's file stays");
        let _ = fs::remove_dir_all(&dir);
    }
}
