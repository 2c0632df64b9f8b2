//! End-to-end engine guarantees: thread-count invariance,
//! cache-driven incremental resume, per-line corruption isolation,
//! and supervised execution (timeouts, lockout). Panic quarantine and
//! retries arm a process-global failpoint, so they live apart, in
//! `supervision.rs`.

use std::fs;
use std::path::PathBuf;

use orion_exp::{artifact, run_spec, CacheLock, EngineOptions, ExperimentSpec, CACHE_FILE};

/// A Fig.5-style grid kept quick: two presets (wormhole + VC) on the
/// 4×4 torus, 8 injection rates, reduced measurement effort.
const SPEC: &str = r#"
[experiment]
name = "grid-test"
description = "determinism and cache coverage"

[measure]
warmup = 100
sample_packets = 200
max_cycles = 30000
watchdog_cycles = 500

[grid]
presets = ["wh64", "vc64"]
rates = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08]
seeds = [1]
"#;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("orion-exp-engine-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts(threads: usize, cache_dir: Option<PathBuf>) -> EngineOptions {
    EngineOptions {
        threads,
        cache_dir,
        progress: false,
        ..EngineOptions::default()
    }
}

#[test]
fn eight_threads_bit_identical_to_one() {
    let spec = ExperimentSpec::parse(SPEC).unwrap();
    let (seq, seq_summary) = run_spec(&spec, &opts(1, None)).unwrap();
    let (par, par_summary) = run_spec(&spec, &opts(8, None)).unwrap();
    assert_eq!(seq_summary.total, 16);
    assert_eq!(seq_summary.simulated, 16);
    assert_eq!(par_summary.simulated, 16);
    // The artifacts — the externally visible product — must match
    // byte for byte, floats included.
    assert_eq!(artifact::to_jsonl(&seq), artifact::to_jsonl(&par));
    assert_eq!(artifact::to_csv(&seq), artifact::to_csv(&par));
    // And the grid actually produced signal, not degenerate zeros.
    assert!(seq.iter().all(|r| !r.is_error()));
    assert!(seq.iter().any(|r| r.avg_latency > 0.0));
    assert!(seq.iter().any(|r| r.total_power_w > 0.0));
}

#[test]
fn second_run_is_all_cache_hits_and_identical() {
    let dir = temp_dir("all-hits");
    let spec = ExperimentSpec::parse(SPEC).unwrap();

    let (first, s1) = run_spec(&spec, &opts(2, Some(dir.clone()))).unwrap();
    assert_eq!(s1.cache_hits, 0);
    assert_eq!(s1.simulated, 16);

    let (second, s2) = run_spec(&spec, &opts(2, Some(dir.clone()))).unwrap();
    assert_eq!(s2.simulated, 0, "nothing may re-simulate");
    assert_eq!(s2.cache_hits, 16);
    assert_eq!(s2.corrupt_cache_lines, 0);
    assert!(second.iter().all(|r| r.cached));

    // Cached replay serializes to the same bytes as the fresh run.
    assert_eq!(artifact::to_jsonl(&first), artifact::to_jsonl(&second));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupting_one_line_invalidates_exactly_that_cell() {
    let dir = temp_dir("corrupt");
    let spec = ExperimentSpec::parse(SPEC).unwrap();
    let (first, _) = run_spec(&spec, &opts(2, Some(dir.clone()))).unwrap();

    // Truncate one mid-file cache line (a torn write, by hand).
    let path = dir.join(CACHE_FILE);
    let text = fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    assert_eq!(lines.len(), 16);
    let half = lines[5].len() / 2;
    lines[5].truncate(half);
    fs::write(&path, lines.join("\n") + "\n").unwrap();

    let (second, s2) = run_spec(&spec, &opts(2, Some(dir.clone()))).unwrap();
    assert_eq!(s2.corrupt_cache_lines, 1);
    assert_eq!(s2.simulated, 1, "only the damaged cell re-runs");
    assert_eq!(s2.cache_hits, 15);
    assert_eq!(
        artifact::to_jsonl(&first),
        artifact::to_jsonl(&second),
        "the re-simulated cell reproduces its original result"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn extending_the_grid_simulates_only_new_cells() {
    let dir = temp_dir("extend");
    let spec = ExperimentSpec::parse(SPEC).unwrap();
    let (_, s1) = run_spec(&spec, &opts(2, Some(dir.clone()))).unwrap();
    assert_eq!(s1.simulated, 16);

    let extended = ExperimentSpec::parse(&SPEC.replace("0.08]", "0.08, 0.09, 0.10]")).unwrap();
    let (records, s2) = run_spec(&extended, &opts(2, Some(dir.clone()))).unwrap();
    assert_eq!(s2.total, 20);
    assert_eq!(s2.cache_hits, 16, "the original grid is reused");
    assert_eq!(s2.simulated, 4, "two presets x two new rates");
    assert_eq!(records.len(), 20);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn changing_measure_discipline_misses_the_cache() {
    let dir = temp_dir("measure-miss");
    let spec = ExperimentSpec::parse(SPEC).unwrap();
    run_spec(&spec, &opts(2, Some(dir.clone()))).unwrap();

    let tweaked = ExperimentSpec::parse(&SPEC.replace("warmup = 100", "warmup = 150")).unwrap();
    let (_, s2) = run_spec(&tweaked, &opts(2, Some(dir.clone()))).unwrap();
    assert_eq!(s2.cache_hits, 0, "fingerprints cover the discipline");
    assert_eq!(s2.simulated, 16);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn artifacts_written_sorted_and_versioned() {
    let dir = temp_dir("artifacts");
    let spec = ExperimentSpec::parse(SPEC).unwrap();
    let (records, _) = run_spec(&spec, &opts(2, None)).unwrap();
    let arts = artifact::write_artifacts(&dir, &spec.name, &records).unwrap();

    let jsonl = fs::read_to_string(&arts.jsonl).unwrap();
    let keys: Vec<&str> = jsonl
        .lines()
        .map(|l| {
            let start = l.find("\"cell\":\"").unwrap() + 8;
            let end = l[start..].find('"').unwrap() + start;
            &l[start..end]
        })
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "JSONL rows sorted by cell key");
    assert!(jsonl.lines().all(|l| l.contains("\"schema_version\":4")));

    let csv = fs::read_to_string(&arts.csv).unwrap();
    assert_eq!(csv.lines().count(), 17, "header + 16 rows");
    assert!(csv.starts_with("schema_version,cell,"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn zero_wall_clock_budget_times_every_cell_out() {
    let spec = ExperimentSpec::parse(SPEC).unwrap();
    let mut timeout_opts = opts(2, None);
    timeout_opts.supervision.cell_timeout = Some(std::time::Duration::from_nanos(1));
    let (records, summary) = run_spec(&spec, &timeout_opts).unwrap();
    assert_eq!(summary.timed_out, 16);
    assert!(summary.is_degraded());
    assert!(records.iter().all(|r| r.is_timed_out()));
    assert!(records[0]
        .error
        .as_deref()
        .unwrap()
        .contains("wall-clock budget"));
}

#[test]
fn second_engine_on_a_locked_cache_is_refused() {
    let dir = temp_dir("lockout");
    let spec = ExperimentSpec::parse(SPEC).unwrap();
    // Engine 1 holds the cache lock (an in-flight run).
    let lock = CacheLock::acquire(&dir).unwrap();
    let err = run_spec(&spec, &opts(2, Some(dir.clone())))
        .expect_err("engine 2 must refuse a locked cache dir");
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
    // Engine 1 finishes; engine 2 now proceeds.
    drop(lock);
    let (_, summary) = run_spec(&spec, &opts(2, Some(dir.clone()))).unwrap();
    assert_eq!(summary.simulated, 16);
    drop(CacheLock::acquire(&dir).expect("the engine releases its lock on return"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn killed_run_resumes_with_byte_identical_artifacts() {
    let reference_dir = temp_dir("kill-ref");
    let resumed_dir = temp_dir("kill-resume");
    let spec = ExperimentSpec::parse(SPEC).unwrap();

    // The uninterrupted reference run.
    let (reference, _) = run_spec(&spec, &opts(2, Some(reference_dir.clone()))).unwrap();

    // Forge the aftermath of a SIGKILL mid-grid: a partial cache with
    // a torn final line, plus the stale lock of the dead holder.
    run_spec(&spec, &opts(2, Some(resumed_dir.clone()))).unwrap();
    let cache_path = resumed_dir.join(CACHE_FILE);
    let text = fs::read_to_string(&cache_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let mut partial = lines[..7].join("\n");
    partial.push('\n');
    partial.push_str(&lines[7][..lines[7].len() / 2]); // torn append
    fs::write(&cache_path, partial).unwrap();
    fs::write(resumed_dir.join(orion_exp::LOCK_FILE), "999999999").unwrap();

    let (resumed, summary) = run_spec(&spec, &opts(2, Some(resumed_dir.clone()))).unwrap();
    assert_eq!(summary.cache_hits, 7, "intact lines are reused");
    assert_eq!(summary.simulated, 9, "torn + missing cells re-run");
    assert_eq!(
        artifact::to_jsonl(&reference),
        artifact::to_jsonl(&resumed),
        "a killed-and-resumed grid converges to the reference bytes"
    );

    // Zero duplicate records: one cache line per cell key.
    let healed = fs::read_to_string(&cache_path).unwrap();
    let mut keys: Vec<&str> = healed
        .lines()
        .map(|l| {
            let start = l.find("\"cell\":\"").unwrap() + 8;
            let end = l[start..].find('"').unwrap() + start;
            &l[start..end]
        })
        .collect();
    let total = keys.len();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), total, "no duplicate cell keys in the cache");
    assert_eq!(total, 16);

    // The crash-safe manifest reflects the completed grid.
    let manifest = orion_exp::Manifest::read(&resumed_dir).unwrap();
    assert_eq!(manifest.spec_name, "grid-test");
    assert_eq!(manifest.total_cells, 16);
    assert_eq!(manifest.completed_cells, 16);

    let _ = fs::remove_dir_all(&reference_dir);
    let _ = fs::remove_dir_all(&resumed_dir);
}

#[test]
fn override_axes_flow_through_to_records() {
    let spec = ExperimentSpec::parse(
        r#"
[experiment]
name = "fc-grid"
[measure]
warmup = 100
sample_packets = 100
max_cycles = 20000
[grid]
presets = ["wh64"]
rates = [0.02]
flow_control = ["flit-level", "cut-through"]
"#,
    )
    .unwrap();
    let (records, summary) = run_spec(&spec, &opts(2, None)).unwrap();
    assert_eq!(summary.total, 2);
    let fcs: Vec<&str> = records.iter().map(|r| r.flow_control.as_str()).collect();
    assert!(fcs.contains(&"flit-level") && fcs.contains(&"cut-through"));
    assert!(records.iter().all(|r| !r.is_error()));
}
