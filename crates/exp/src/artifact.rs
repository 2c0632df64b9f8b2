//! Artifact writers: the engine's records as versioned JSONL and CSV
//! files.
//!
//! Files are written **atomically**: bytes land in a `.tmp` sibling,
//! are fsynced, and are renamed over the destination in one step. A
//! run killed mid-write therefore leaves either the previous complete
//! artifact or the new complete artifact — never a torn file. Records
//! are written in the order the engine returns them — sorted by cell
//! key — so two runs of the same spec produce byte-identical files
//! regardless of thread count or cache state.

use std::fs;
use std::path::{Path, PathBuf};

use crate::record::CellRecord;

// The atomic-write primitive moved down to `orion-ckpt` so checkpoint
// files and artifacts share one crash-safety implementation; the
// re-export keeps this crate's API unchanged.
pub use orion_ckpt::io::write_atomic;

/// Paths of the artifacts one engine run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifacts {
    /// The JSONL file (one [`CellRecord`] per line).
    pub jsonl: PathBuf,
    /// The CSV file (header + one row per record).
    pub csv: PathBuf,
}

/// Strips execution provenance before a record enters an artifact.
///
/// Artifacts are a pure function of the spec: the checkpoint
/// provenance fields (`resumed_from_cycle`, `checkpoints_written`)
/// describe how one particular execution happened to run — resumed
/// from a snapshot or from cycle 0 — not what the result is, and the
/// results themselves are bit-identical either way. Normalizing them
/// here is what makes a resumed run's artifacts byte-identical to an
/// uninterrupted run's (the guarantee `orion-cli`'s
/// `tests/chaos_resume.rs` checks). Cache lines and serve responses
/// keep the real provenance.
fn normalized(r: &CellRecord) -> CellRecord {
    let mut r = r.clone();
    r.resumed_from_cycle = None;
    r.checkpoints_written = 0;
    r
}

/// Renders records as JSONL bytes (execution provenance normalized —
/// see [`write_artifacts`]).
pub fn to_jsonl(records: &[CellRecord]) -> String {
    orion_obs::json::lines(records, |r| normalized(r).to_json_line())
}

/// Renders records as CSV bytes (header included; execution
/// provenance normalized — see [`write_artifacts`]).
pub fn to_csv(records: &[CellRecord]) -> String {
    let mut out = String::from(CellRecord::csv_header());
    out.push('\n');
    for r in records {
        out.push_str(&normalized(r).to_csv_row());
        out.push('\n');
    }
    out
}

/// Writes `<name>.jsonl` and `<name>.csv` under `dir` (created if
/// missing), each via [`write_atomic`].
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_artifacts(
    dir: &Path,
    name: &str,
    records: &[CellRecord],
) -> std::io::Result<Artifacts> {
    fs::create_dir_all(dir)?;
    let jsonl = dir.join(format!("{name}.jsonl"));
    let csv = dir.join(format!("{name}.csv"));
    write_atomic(&jsonl, to_jsonl(records).as_bytes())?;
    write_atomic(&csv, to_csv(records).as_bytes())?;
    Ok(Artifacts { jsonl, csv })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("orion-exp-atomic-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        write_atomic(&path, b"first\n").unwrap();
        write_atomic(&path, b"second\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second\n");
        assert!(
            !dir.join("out.jsonl.tmp").exists(),
            "temp file must not survive a successful write"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
