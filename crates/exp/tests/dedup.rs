//! In-flight dedup determinism: concurrent clients submitting
//! overlapping grids through one [`CellRunner`] must produce records
//! byte-identical to sequential `run_spec` execution, with each shared
//! cell simulated exactly once (verified via hit/dedup accounting).

use std::path::PathBuf;
use std::sync::{Arc, Barrier};

use orion_exp::runner::{CellRunner, Supervision};
use orion_exp::{run_spec, CellRecord, EngineOptions, ExperimentSpec};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("orion-exp-dedup-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A fast grid: `rates` controls the cells; everything else is pinned
/// so cells from different specs with equal rates share fingerprints.
fn spec(name: &str, rates: &str) -> ExperimentSpec {
    ExperimentSpec::parse(&format!(
        r#"
[experiment]
name = "{name}"

[grid]
presets = ["vc16"]
rates = {rates}

[measure]
warmup = 100
sample_packets = 100
max_cycles = 20000
"#
    ))
    .unwrap()
}

fn json_lines(records: &[CellRecord]) -> Vec<String> {
    let mut lines: Vec<(String, String)> = records
        .iter()
        .map(|r| (r.cell.clone(), r.to_json_line()))
        .collect();
    lines.sort();
    lines.into_iter().map(|(_, line)| line).collect()
}

#[test]
fn concurrent_overlapping_clients_match_sequential_and_share_cells() {
    let spec_a = spec("client-a", "[0.02, 0.04]");
    let spec_b = spec("client-b", "[0.04, 0.06]");

    // Sequential ground truth: two plain single-threaded uncached runs.
    let opts = EngineOptions {
        threads: 1,
        ..EngineOptions::default()
    };
    let (seq_a, _) = run_spec(&spec_a, &opts).unwrap();
    let (seq_b, _) = run_spec(&spec_b, &opts).unwrap();

    // Concurrent: both clients race through one shared runner.
    let dir = temp_dir("overlap");
    let runner = Arc::new(CellRunner::open(Some(&dir)).unwrap());
    let barrier = Arc::new(Barrier::new(2));
    let client = |spec: ExperimentSpec| {
        let (runner, barrier) = (Arc::clone(&runner), Arc::clone(&barrier));
        std::thread::spawn(move || {
            barrier.wait();
            spec.expand()
                .iter()
                .map(|cell| runner.run(cell, &Supervision::default()))
                .collect::<Vec<_>>()
        })
    };
    let (ha, hb) = (client(spec_a), client(spec_b));
    let (conc_a, conc_b) = (ha.join().unwrap(), hb.join().unwrap());

    // Byte-identical to sequential execution, client by client. The
    // `cached` flag is deliberately not serialized, so records that
    // arrived via dedup or cache hit still compare equal.
    assert_eq!(json_lines(&conc_a), json_lines(&seq_a));
    assert_eq!(json_lines(&conc_b), json_lines(&seq_b));

    // Three distinct cells exist; four were requested. The overlap
    // (rate 0.04) must have been simulated exactly once, its second
    // requester answered by dedup or the cache — never re-executed.
    let stats = runner.stats();
    assert_eq!(stats.executed, 3, "shared cell must run exactly once");
    assert_eq!(
        stats.cache_hits + stats.deduped,
        1,
        "the overlapping request must be answered without re-execution"
    );
    assert_eq!(stats.crashed + stats.failed, 0);

    // Drain: the cache left behind serves a fresh runner entirely from
    // memory, byte-identically.
    Arc::try_unwrap(runner).unwrap().flush().unwrap();
    let reopened = CellRunner::open(Some(&dir)).unwrap();
    assert_eq!(reopened.known_records(), 3);
    let replay: Vec<_> = spec("client-a", "[0.02, 0.04]")
        .expand()
        .iter()
        .map(|cell| reopened.run(cell, &Supervision::default()))
        .collect();
    assert_eq!(json_lines(&replay), json_lines(&seq_a));
    assert_eq!(reopened.stats().executed, 0, "replay must be pure hits");
    assert!(replay.iter().all(|r| r.cached));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn many_clients_identical_grid_execute_once() {
    let dir = temp_dir("stampede");
    let runner = Arc::new(CellRunner::open(Some(&dir)).unwrap());
    let clients = 8;
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let (runner, barrier) = (Arc::clone(&runner), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                spec("stampede", "[0.02, 0.04]")
                    .expand()
                    .iter()
                    .map(|cell| runner.run(cell, &Supervision::default()))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let all: Vec<Vec<_>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let first = json_lines(&all[0]);
    for other in &all[1..] {
        assert_eq!(json_lines(other), first, "every client sees equal records");
    }
    let stats = runner.stats();
    assert_eq!(stats.executed, 2, "two distinct cells, two executions");
    assert_eq!(
        stats.cache_hits + stats.deduped,
        (clients as u64 - 1) * 2,
        "every other request answered by dedup or cache"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_persists_checkpoint_and_next_runner_resumes_bit_identically() {
    let dir = temp_dir("drain-resume");
    let cell = spec("drainable", "[0.02]").expand().remove(0);
    let sup = Supervision {
        checkpoint_every: 64,
    };

    // Ground truth: the same cell run uninterrupted, uncached.
    let baseline = CellRunner::open(None).unwrap().run(&cell, &sup);
    assert!(!baseline.is_error(), "{:?}", baseline.error);

    // First daemon: drain is already requested, so the cell stops at
    // its first checkpoint boundary and leaves a snapshot behind.
    let first = CellRunner::open(Some(&dir)).unwrap();
    first.request_drain();
    let drained = first.run(&cell, &sup);
    assert!(drained.is_drained(), "{:?}", drained.cell_outcome);
    assert_eq!(first.known_records(), 0, "drained cells are never cached");
    assert_eq!(first.stats().drained, 1);
    assert!(first.stats().checkpoints_written >= 1);
    let ckpt = dir
        .join("ckpt")
        .join(format!("{:016x}.ckpt", cell.fingerprint()));
    assert!(
        ckpt.exists(),
        "drain leaves the checkpoint for the next daemon"
    );
    first.flush().unwrap();
    assert!(
        ckpt.exists(),
        "flush must not GC an incomplete cell's checkpoint"
    );

    // Next daemon over the same cache directory: resumes mid-cell and
    // must agree with the uninterrupted run on every result field.
    let second = CellRunner::open(Some(&dir)).unwrap();
    let resumed = second.run(&cell, &sup);
    assert_eq!(resumed.resumed_from_cycle, Some(64));
    assert_eq!(second.stats().resumed, 1);
    let mut normalized = resumed.clone();
    normalized.resumed_from_cycle = None;
    normalized.checkpoints_written = baseline.checkpoints_written;
    assert_eq!(
        normalized.to_json_line(),
        baseline.to_json_line(),
        "resumed results are bit-identical to the uninterrupted run"
    );
    assert!(!ckpt.exists(), "completion garbage-collects the checkpoint");
    second.flush().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoint_degrades_to_cycle_zero_replay() {
    let dir = temp_dir("corrupt-ckpt");
    let cell = spec("corruptible", "[0.02]").expand().remove(0);
    let sup = Supervision {
        checkpoint_every: 64,
    };
    let baseline = CellRunner::open(None).unwrap().run(&cell, &sup);

    // Plant a corrupt checkpoint where a resume would look for one.
    let ckpt_dir = dir.join("ckpt");
    std::fs::create_dir_all(&ckpt_dir).unwrap();
    let ckpt = ckpt_dir.join(format!("{:016x}.ckpt", cell.fingerprint()));
    std::fs::write(&ckpt, b"torn garbage, not a checkpoint").unwrap();

    let runner = CellRunner::open(Some(&dir)).unwrap();
    let rec = runner.run(&cell, &sup);
    assert_eq!(rec.resumed_from_cycle, None, "corrupt snapshot discarded");
    assert!(!rec.is_error() && !rec.is_crashed(), "{:?}", rec.error);
    let mut normalized = rec.clone();
    normalized.checkpoints_written = baseline.checkpoints_written;
    assert_eq!(
        normalized.to_json_line(),
        baseline.to_json_line(),
        "cycle-0 fallback reproduces the uninterrupted result"
    );
    runner.flush().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
