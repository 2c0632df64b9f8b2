//! Crash-and-resume chaos tests, driven through the real binary.
//!
//! Each scenario runs `orion-power-cli experiment run` as a
//! subprocess, kills it at a seeded failpoint (`ORION_FAILPOINTS`,
//! simulated SIGKILL via `process::abort`), then reruns the same
//! command and asserts the final artifacts are **byte-identical** to
//! an uninterrupted baseline. This is the end-to-end proof behind the
//! checkpoint layer's contract: a crash can cost restart time, never
//! results — and a corrupted snapshot degrades to a cycle-0 replay,
//! never a failure.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_orion-power-cli");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("orion-chaos-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A two-cell grid, small enough to finish in well under a second but
/// long enough (in cycles) to cross several 64-cycle checkpoints.
fn write_spec(dir: &Path, name: &str) -> PathBuf {
    let path = dir.join("spec.toml");
    fs::write(
        &path,
        format!(
            r#"
[experiment]
name = "{name}"

[measure]
warmup = 100
sample_packets = 100
max_cycles = 20000

[grid]
presets = ["vc16"]
rates = [0.02, 0.04]
"#
        ),
    )
    .unwrap();
    path
}

fn run_experiment(
    spec: &Path,
    cache: &Path,
    out: &Path,
    failpoints: Option<&str>,
) -> std::process::Output {
    let mut cmd = Command::new(BIN);
    cmd.args([
        "experiment",
        "run",
        spec.to_str().unwrap(),
        "--cache-dir",
        cache.to_str().unwrap(),
        "--out-dir",
        out.to_str().unwrap(),
        "--checkpoint-every",
        "64",
        // One cell at a time: the failpoints count checkpoint writes
        // across the whole run.
        "--threads",
        "1",
        "--quiet",
    ]);
    cmd.env_remove("ORION_FAILPOINTS");
    if let Some(fp) = failpoints {
        cmd.env("ORION_FAILPOINTS", fp);
    }
    cmd.output().expect("spawn orion-power-cli")
}

fn artifacts(out: &Path, name: &str) -> (String, String) {
    (
        fs::read_to_string(out.join(format!("{name}.jsonl"))).expect("jsonl artifact"),
        fs::read_to_string(out.join(format!("{name}.csv"))).expect("csv artifact"),
    )
}

/// Whether any cached record carries mid-cell resume provenance
/// (`"resumed_from_cycle":<number>` rather than `null`).
fn has_resume_provenance(cache_lines: &str) -> bool {
    cache_lines.lines().any(|l| {
        l.split("\"resumed_from_cycle\":")
            .nth(1)
            .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()))
    })
}

/// The newest checkpoint file under `<cache>/ckpt`, if any.
fn newest_checkpoint(cache: &Path) -> Option<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(cache.join("ckpt"))
        .ok()?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    files.sort_by_key(|p| fs::metadata(p).and_then(|m| m.modified()).ok());
    files.pop()
}

#[test]
fn kill_at_checkpoint_boundary_resumes_to_byte_identical_artifacts() {
    let dir = temp_dir("kill-resume");
    let spec = write_spec(&dir, "chaos-kill");

    // Uninterrupted baseline.
    let base = run_experiment(&spec, &dir.join("cache-a"), &dir.join("out-a"), None);
    assert!(base.status.success(), "baseline failed: {base:?}");
    let (base_jsonl, base_csv) = artifacts(&dir.join("out-a"), "chaos-kill");

    // Chaos run: simulated SIGKILL on the second checkpoint write —
    // the first snapshot is already durable, the process dies mid-cell.
    let cache = dir.join("cache-b");
    let out = dir.join("out-b");
    let killed = run_experiment(&spec, &cache, &out, Some("ckpt.write=kill@2"));
    assert!(
        !killed.status.success(),
        "the armed kill failpoint must abort the run"
    );
    assert!(
        newest_checkpoint(&cache).is_some(),
        "the killed run left a durable checkpoint behind"
    );
    assert!(
        !out.join("chaos-kill.jsonl").exists(),
        "a killed run must not leave artifacts"
    );

    // Rerun without failpoints: resumes the interrupted cell from its
    // snapshot and must agree with the baseline byte for byte.
    let resumed = run_experiment(&spec, &cache, &out, None);
    assert!(resumed.status.success(), "resume failed: {resumed:?}");
    let (jsonl, csv) = artifacts(&out, "chaos-kill");
    assert_eq!(jsonl, base_jsonl, "resumed JSONL differs from baseline");
    assert_eq!(csv, base_csv, "resumed CSV differs from baseline");

    // The cache proves a real mid-cell resume happened (the cache
    // line keeps provenance; artifacts deliberately strip it).
    let cache_lines = fs::read_to_string(cache.join("orion-exp-cache.jsonl")).unwrap();
    assert!(
        has_resume_provenance(&cache_lines),
        "no cached record carries resume provenance:\n{cache_lines}"
    );
    // Finished cells garbage-collect their snapshots, after the last
    // write settled: no `.ckpt` and no `.tmp` is left.
    let left: Vec<PathBuf> = fs::read_dir(cache.join("ckpt"))
        .map(|dir| dir.map(|e| e.unwrap().path()).collect())
        .unwrap_or_default();
    assert!(
        left.is_empty(),
        "checkpoint debris after the resume: {left:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_checkpoint_degrades_to_clean_cycle_zero_replay() {
    let dir = temp_dir("corrupt-fallback");
    let spec = write_spec(&dir, "chaos-corrupt");

    let base = run_experiment(&spec, &dir.join("cache-a"), &dir.join("out-a"), None);
    assert!(base.status.success(), "baseline failed: {base:?}");
    let (base_jsonl, base_csv) = artifacts(&dir.join("out-a"), "chaos-corrupt");

    // Kill mid-cell, then corrupt the snapshot the next run would use.
    let cache = dir.join("cache-b");
    let out = dir.join("out-b");
    let killed = run_experiment(&spec, &cache, &out, Some("ckpt.write=kill@2"));
    assert!(!killed.status.success());
    let ckpt = newest_checkpoint(&cache).expect("killed run left a checkpoint");
    fs::write(&ckpt, b"torn garbage where a checkpoint once was").unwrap();

    // The rerun must not fail, must not resume, and must reproduce the
    // baseline exactly from cycle 0. Exit code 0: graceful fallback.
    let rerun = run_experiment(&spec, &cache, &out, None);
    assert!(
        rerun.status.success(),
        "corrupt checkpoint must degrade, not fail: {rerun:?}"
    );
    let (jsonl, csv) = artifacts(&out, "chaos-corrupt");
    assert_eq!(jsonl, base_jsonl, "fallback JSONL differs from baseline");
    assert_eq!(csv, base_csv, "fallback CSV differs from baseline");
    let cache_lines = fs::read_to_string(cache.join("orion-exp-cache.jsonl")).unwrap();
    assert!(
        !has_resume_provenance(&cache_lines),
        "corrupt snapshot must not be resumed:\n{cache_lines}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn injected_restore_error_degrades_to_clean_cycle_zero_replay() {
    // Same fallback contract, but the defect is injected at the
    // *restore* boundary instead of baked into the file — exercising
    // the load-time failpoint path end to end.
    let dir = temp_dir("restore-fault");
    let spec = write_spec(&dir, "chaos-restore");

    let base = run_experiment(&spec, &dir.join("cache-a"), &dir.join("out-a"), None);
    assert!(base.status.success());
    let (base_jsonl, base_csv) = artifacts(&dir.join("out-a"), "chaos-restore");

    let cache = dir.join("cache-b");
    let out = dir.join("out-b");
    let killed = run_experiment(&spec, &cache, &out, Some("ckpt.write=kill@2"));
    assert!(!killed.status.success());
    assert!(newest_checkpoint(&cache).is_some());

    let rerun = run_experiment(&spec, &cache, &out, Some("ckpt.restore=error@1"));
    assert!(
        rerun.status.success(),
        "injected restore failure must degrade, not fail: {rerun:?}"
    );
    let (jsonl, csv) = artifacts(&out, "chaos-restore");
    assert_eq!(jsonl, base_jsonl);
    assert_eq!(csv, base_csv);
    let _ = fs::remove_dir_all(&dir);
}
